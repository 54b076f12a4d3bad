//! The [`Switch`]: stateful per-switch admission control (§4.3).

use rtcac_bitstream::{BitStream, Rate, StreamError, Time};
use rtcac_net::LinkId;

use crate::intern::{ContractHandle, ContractIntern};
use crate::tables::Tables;
use crate::{CacError, ConnectionId, ConnectionRequest, Priority, RejectReason, SwitchConfig};

/// The outcome of a CAC check: either the connection fits (with the
/// computed worst-case bounds as evidence) or it must be rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The connection can be established at this switch.
    Admitted(BoundsReport),
    /// The connection would violate a delay bound guarantee.
    Rejected(RejectReason),
}

impl AdmissionDecision {
    /// Whether the decision is an admission.
    pub fn is_admitted(&self) -> bool {
        matches!(self, AdmissionDecision::Admitted(_))
    }
}

/// Evidence produced by a successful CAC check: the computed worst-case
/// queueing delay at the connection's outgoing link for its own
/// priority and for every lower priority it could have disturbed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundsReport {
    out_link: LinkId,
    bounds: Vec<(Priority, Time)>,
}

impl BoundsReport {
    /// The outgoing link the report applies to.
    pub fn out_link(&self) -> LinkId {
        self.out_link
    }

    /// The computed worst-case delays, highest priority first.
    pub fn bounds(&self) -> &[(Priority, Time)] {
        &self.bounds
    }

    /// The computed worst-case delay for one priority level, if it was
    /// part of the check.
    pub fn bound_for(&self, priority: Priority) -> Option<Time> {
        self.bounds
            .iter()
            .find(|(p, _)| *p == priority)
            .map(|&(_, d)| d)
    }
}

/// A request's worst-case arrival envelope, as the check found it.
enum Envelope {
    /// An established leg already carries the same `(contract, CDV)`.
    Interned(ContractHandle),
    /// Derived for this check; interned if the leg is committed.
    Derived(BitStream),
}

/// One established leg: the identifying links plus a handle to the
/// interned `(contract, CDV)` entry that induced its arrival envelope.
/// Everything a [`ConnectionRequest`] carries is recoverable from the
/// leg and its intern entry.
#[derive(Debug, Clone, Copy)]
struct Leg {
    id: ConnectionId,
    out_link: LinkId,
    in_link: LinkId,
    handle: ContractHandle,
    priority: Priority,
}

impl Leg {
    /// Reconstructs the admission request the leg was admitted with.
    fn request(&self, intern: &ContractIntern) -> ConnectionRequest {
        ConnectionRequest::new(
            intern.contract(self.handle),
            intern.cdv(self.handle),
            self.in_link,
            self.out_link,
            self.priority,
        )
    }
}

/// What an admitted check hands to the commit: the updated
/// `Sia(i,j,p) + s` it priced, and the request's envelope.
struct Commit {
    sia: BitStream,
    envelope: Envelope,
}

/// A CAC-managed static-priority FIFO switch.
///
/// Holds the §4.3 stream tables and the set of established connections,
/// and implements the six-step admission check. See the crate-level
/// example for a full walkthrough.
///
/// A connection may hold several *legs* at one switch — one per
/// outgoing link — which is how point-to-multipoint VCs reserve every
/// branch port of their tree under a single connection id.
///
/// # Resident-state layout
///
/// Each leg is stored once, in one `Vec` sorted by `(connection,
/// out-link)`. A leg holds only its links, priority, and a refcounted
/// [`ContractIntern`] handle to the `(contract, CDV)` entry that owns
/// the arrival envelope — one envelope per *distinct* parameter pair,
/// however many legs carry it. Binary search serves lookups, and the
/// sort order is the **stable public iteration order** (exactly the
/// order the former `BTreeMap` storage iterated), so admission ledgers
/// and snapshot encodings are byte-identical across representation
/// changes.
#[derive(Debug, Clone)]
pub struct Switch {
    config: SwitchConfig,
    tables: Tables,
    intern: ContractIntern,
    /// Ascending by `(id, out_link)`; one entry per established leg.
    legs: Vec<Leg>,
    epoch: u64,
}

impl Switch {
    /// Creates a switch with the given priority configuration.
    pub fn new(config: SwitchConfig) -> Switch {
        Switch {
            config,
            tables: Tables::new(),
            intern: ContractIntern::new(),
            legs: Vec::new(),
            epoch: 0,
        }
    }

    /// Rebuilds a switch from a previously admitted set of connection
    /// legs — the warm-restart constructor.
    ///
    /// Each leg re-derives its arrival stream exactly as the original
    /// admission did ([`ConnectionRequest::arrival_stream`] plus the
    /// config's quantization grid) and is multiplexed into the stream
    /// tables **without** re-running the admission check: the legs were
    /// admitted once and the caller re-verifies the resulting bounds
    /// afterwards. Because the table aggregates are rebuilt by the same
    /// multiplexing the release path uses, the restored tables are
    /// bit-identical to the tables the legs originally produced.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::DuplicateConnection`] when the same
    /// `(connection, out-link)` leg appears twice,
    /// [`CacError::UnknownPriority`] for a leg at a level the config
    /// does not serve, and the quantization conditions of the arrival
    /// derivation.
    pub fn restore(
        config: SwitchConfig,
        epoch: u64,
        legs: impl IntoIterator<Item = (ConnectionId, ConnectionRequest)>,
    ) -> Result<Switch, CacError> {
        let mut switch = Switch::new(config);
        for (id, request) in legs {
            switch.config.bound(request.priority())?;
            if switch.find_leg(id, request.out_link()).is_ok() {
                return Err(CacError::DuplicateConnection(id));
            }
            switch.attach_leg(id, &request)?;
        }
        switch.epoch = epoch;
        Ok(switch)
    }

    /// The switch's configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// The mutation counter: bumped on every successful admit or
    /// release, never by a check or a rejection. It is persisted with
    /// the switch's legs so that snapshot → restore → snapshot is
    /// byte-identical.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rewinds the mutation counter to `to`, an earlier value
    /// previously observed via [`Switch::epoch`].
    ///
    /// The caller must guarantee the stream tables and connection set
    /// are bit-identical to their state when `to` was read — i.e. every
    /// admit since then has been undone by a matching release. A
    /// two-phase engine uses this after rolling back an aborted
    /// reservation, so the aborted reserve leaves no trace: the shard,
    /// and any snapshot taken of it, match the pre-reserve state.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `to` does not exceed the current epoch.
    pub fn rewind_epoch(&mut self, to: u64) {
        debug_assert!(
            to <= self.epoch,
            "rewind_epoch({to}) past current epoch {}",
            self.epoch
        );
        self.epoch = to;
    }

    /// The fixed queueing delay bound the switch advertises for a
    /// priority level (paper §4.1: equal to the FIFO queue size).
    ///
    /// # Errors
    ///
    /// Returns [`CacError::UnknownPriority`] for an unserved level.
    pub fn advertised_bound(&self, priority: Priority) -> Result<Time, CacError> {
        self.config.bound(priority)
    }

    /// Number of established connection legs (one per connection and
    /// outgoing link; a unicast connection has exactly one).
    pub fn connection_count(&self) -> usize {
        self.legs.len()
    }

    /// Whether a connection holds any leg here.
    pub fn has_connection(&self, id: ConnectionId) -> bool {
        !self.leg_range(id).is_empty()
    }

    /// The established connection legs and their admission parameters,
    /// ascending by `(connection, out-link)`. Requests are
    /// reconstructed from the leg and its interned `(contract, CDV)`
    /// entry — bit-identical to the request originally admitted.
    pub fn connections(&self) -> impl Iterator<Item = (ConnectionId, ConnectionRequest)> + '_ {
        self.legs
            .iter()
            .map(|leg| (leg.id, leg.request(&self.intern)))
    }

    /// The long-run (sustained) load admitted on an outgoing link,
    /// normalized to the link bandwidth.
    pub fn sustained_load(&self, out_link: LinkId) -> Rate {
        self.legs
            .iter()
            .filter(|leg| leg.out_link == out_link)
            .map(|leg| self.intern.contract(leg.handle).sustained_rate())
            .sum()
    }

    /// Number of distinct interned `(contract, CDV)` entries currently
    /// alive — at most the number of legs, typically far fewer.
    pub fn interned_contracts(&self) -> usize {
        self.intern.len()
    }

    /// Capacity of the leg buffer (live legs plus spare room): it
    /// grows with the peak concurrent population and is reused after
    /// releases, so under steady churn it never changes.
    pub fn leg_slots(&self) -> usize {
        self.legs.capacity()
    }

    /// Approximate resident heap bytes of the admission state: the
    /// sorted leg buffer, the intern table (envelopes included), and
    /// the `(i, j, p)` stream aggregates.
    pub fn resident_bytes(&self) -> usize {
        self.legs.capacity() * std::mem::size_of::<Leg>()
            + self.intern.resident_bytes()
            + self.tables.resident_bytes()
    }

    /// Positions of `id`'s legs (contiguous: the legs are sorted by
    /// `(connection, out-link)`).
    fn leg_range(&self, id: ConnectionId) -> std::ops::Range<usize> {
        let start = self.legs.partition_point(|leg| leg.id < id);
        let len = self.legs[start..].partition_point(|leg| leg.id == id);
        start..start + len
    }

    /// The position of one leg: `Ok` if established, `Err` where it
    /// would be stored.
    fn find_leg(&self, id: ConnectionId, out_link: LinkId) -> Result<usize, usize> {
        self.legs
            .binary_search_by(|leg| (leg.id, leg.out_link).cmp(&(id, out_link)))
    }

    /// Attaches one leg without a check (the restore path): acquires
    /// (or creates) its intern entry, multiplexes the interned envelope
    /// into the stream tables, and stores the leg. The caller has
    /// already checked for duplicates.
    fn attach_leg(
        &mut self,
        id: ConnectionId,
        request: &ConnectionRequest,
    ) -> Result<(), CacError> {
        let grid = self.config.quantization();
        let handle = self.intern.acquire(request.contract(), request.cdv(), || {
            let s = request.arrival_stream();
            match grid {
                Some(grid) => s.coarsen(grid).map_err(CacError::from),
                None => Ok(s),
            }
        })?;
        self.tables.add(
            request.in_link(),
            request.out_link(),
            request.priority(),
            self.intern.stream(handle),
        );
        self.store_leg(id, handle, request);
        Ok(())
    }

    /// Commits one admitted leg: the aggregate and envelope its check
    /// built become the stored ones, with nothing derived twice.
    fn commit_leg(&mut self, id: ConnectionId, request: &ConnectionRequest, commit: Commit) {
        let handle = match commit.envelope {
            Envelope::Interned(handle) => {
                self.intern.retain(handle);
                handle
            }
            Envelope::Derived(stream) => {
                self.intern
                    .insert(request.contract(), request.cdv(), stream)
            }
        };
        self.tables.set(
            request.in_link(),
            request.out_link(),
            request.priority(),
            commit.sia,
        );
        self.store_leg(id, handle, request);
    }

    /// Stores a leg at its sorted position.
    fn store_leg(&mut self, id: ConnectionId, handle: ContractHandle, request: &ConnectionRequest) {
        let found = self.find_leg(id, request.out_link());
        debug_assert!(found.is_err(), "leg {id:?} stored twice");
        let (Ok(pos) | Err(pos)) = found;
        self.legs.insert(
            pos,
            Leg {
                id,
                out_link: request.out_link(),
                in_link: request.in_link(),
                handle,
                priority: request.priority(),
            },
        );
    }

    /// **Steps 1–6 of §4.3**: checks whether a new connection fits,
    /// without mutating the switch.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::UnknownPriority`] if the requested priority
    /// is not served, or [`CacError::Stream`] on an internal numeric
    /// failure. A connection that merely does not fit is reported as
    /// [`AdmissionDecision::Rejected`], not as an error.
    pub fn check(&self, request: &ConnectionRequest) -> Result<AdmissionDecision, CacError> {
        Ok(self.price(request)?.0)
    }

    /// Steps 1–6 for [`Switch::check`] and [`Switch::admit`]: the
    /// decision, plus — when it admits — what committing it stores.
    fn price(
        &self,
        request: &ConnectionRequest,
    ) -> Result<(AdmissionDecision, Option<Commit>), CacError> {
        let p = request.priority();
        let advertised = self.config.bound(p)?;
        let (i, j) = (request.in_link(), request.out_link());

        // Step 1: worst-case arrival stream of the new connection
        // (coarsened onto the configured grid, if any — a dominating
        // approximation, so all bounds stay valid).
        let envelope = self.envelope_of(request)?;
        let s = match &envelope {
            Envelope::Interned(handle) => self.intern.stream(*handle),
            Envelope::Derived(s) => s,
        };

        // The incoming link itself must be able to carry the new
        // connection in the long run; without this check, filtering
        // would silently truncate an infeasible aggregate to the link
        // rate and hide the overload.
        if self.tables.in_link_long_run(i) + s.long_run_rate() > Rate::FULL {
            let reason = RejectReason::IncomingOverload {
                in_link: i,
                priority: p,
            };
            return Ok((AdmissionDecision::Rejected(reason), None));
        }

        // Step 2: updated incoming aggregate.
        let sia_new = self.tables.arrival_plus(i, j, p, s);

        // Steps 3–4: delay bound at the connection's own priority under
        // the (unchanged) higher-priority interference, of the updated
        // output aggregate — in-link i's filtered contribution swapped
        // for the new one — read from a lazy merge up to its peak.
        let soa_new = self.tables.port_arrivals(j, p, Some((i, &sia_new)));
        let sof = self.tables.interference_with(j, p, None);
        let mut bounds = Vec::new();
        match Self::bound_or_reject(soa_new, &sof, j, p, advertised)? {
            Ok(d) => bounds.push((p, d)),
            Err(reason) => return Ok((AdmissionDecision::Rejected(reason), None)),
        }

        // Step 5–6: every lower priority must still meet its bound with
        // the new connection added to its interference.
        for p1 in self.config.priorities() {
            if !p.outranks(p1) {
                continue;
            }
            let advertised1 = self.config.bound(p1)?;
            let mut soa1 = self.tables.port_arrivals(j, p1, None).peekable();
            if soa1.peek().is_none() {
                bounds.push((p1, Time::ZERO));
                continue;
            }
            let sof1 = self.tables.interference_with(j, p1, Some((i, s)));
            match Self::bound_or_reject(soa1, &sof1, j, p1, advertised1)? {
                Ok(d) => bounds.push((p1, d)),
                Err(reason) => return Ok((AdmissionDecision::Rejected(reason), None)),
            }
        }

        let report = BoundsReport {
            out_link: j,
            bounds,
        };
        let commit = Commit {
            sia: sia_new,
            envelope,
        };
        Ok((AdmissionDecision::Admitted(report), Some(commit)))
    }

    /// Runs the CAC check and, if it passes, commits the connection
    /// leg to the switch tables.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::DuplicateConnection`] if `id` already holds
    /// a leg on the same outgoing link (another outgoing link is a new
    /// multicast branch, which is fine), plus the conditions of
    /// [`Switch::check`].
    pub fn admit(
        &mut self,
        id: ConnectionId,
        request: ConnectionRequest,
    ) -> Result<AdmissionDecision, CacError> {
        if self.find_leg(id, request.out_link()).is_ok() {
            return Err(CacError::DuplicateConnection(id));
        }
        let (decision, commit) = self.price(&request)?;
        if let Some(commit) = commit {
            self.commit_leg(id, &request, commit);
            self.epoch += 1;
        }
        Ok(decision)
    }

    /// Tears down every leg of an established connection, returning
    /// their admission parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::UnknownConnection`] if `id` holds no leg
    /// here.
    pub fn release(&mut self, id: ConnectionId) -> Result<Vec<ConnectionRequest>, CacError> {
        let range = self.leg_range(id);
        if range.is_empty() {
            return Err(CacError::UnknownConnection(id));
        }
        // The connection's legs are contiguous in the sorted list:
        // drain that range directly, dropping each leg's intern
        // reference — no intermediate key list is materialized.
        let mut released = Vec::with_capacity(range.len());
        for leg in self.legs.drain(range) {
            released.push(leg.request(&self.intern));
            self.intern.release(leg.handle);
        }
        // Rebuild every affected aggregate from the remaining legs
        // (exact, and immune to accumulated demultiplex ordering),
        // multiplexing in sorted order so the result is bit-identical
        // to the aggregate the same legs originally produced.
        for request in &released {
            let key = (request.in_link(), request.out_link(), request.priority());
            let rebuilt = BitStream::multiplex_all(
                self.legs
                    .iter()
                    .filter(|leg| (leg.in_link, leg.out_link, leg.priority) == key)
                    .map(|leg| self.intern.stream(leg.handle)),
            );
            self.tables.set(
                request.in_link(),
                request.out_link(),
                request.priority(),
                rebuilt,
            );
        }
        self.epoch += 1;
        Ok(released)
    }

    /// The current computed worst-case queueing delay for a priority at
    /// an outgoing link, given the established connections only.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::UnknownPriority`] for an unserved level or
    /// [`CacError::Stream`] if the established traffic is overloaded
    /// (cannot happen if all admissions went through [`Switch::admit`]).
    pub fn computed_bound(&self, out_link: LinkId, priority: Priority) -> Result<Time, CacError> {
        self.config.bound(priority)?;
        let soa = self.tables.port_arrivals(out_link, priority, None);
        let sof = self.tables.interference_with(out_link, priority, None);
        BitStream::delay_bound_of_filtered_sum(soa, &sof).map_err(CacError::from)
    }

    /// All outgoing links with established traffic.
    pub fn active_out_links(&self) -> Vec<LinkId> {
        self.tables.out_links().into_iter().collect()
    }

    /// The (possibly quantized) worst-case arrival stream of a request.
    /// When an identical `(contract, CDV)` pair is already interned,
    /// its envelope is borrowed — the same pure function evaluated once.
    fn envelope_of(&self, request: &ConnectionRequest) -> Result<Envelope, CacError> {
        if let Some(handle) = self.intern.find(request.contract(), request.cdv()) {
            return Ok(Envelope::Interned(handle));
        }
        let s = request.arrival_stream();
        Ok(Envelope::Derived(match self.config.quantization() {
            Some(grid) => s.coarsen(grid)?,
            None => s,
        }))
    }

    fn bound_or_reject<'a>(
        arrivals: impl IntoIterator<Item = &'a BitStream>,
        interference: &BitStream,
        out_link: LinkId,
        priority: Priority,
        advertised: Time,
    ) -> Result<Result<Time, RejectReason>, CacError> {
        match BitStream::delay_bound_of_filtered_sum(arrivals, interference) {
            Ok(d) if d <= advertised => Ok(Ok(d)),
            Ok(d) => Ok(Err(RejectReason::BoundExceeded {
                out_link,
                priority,
                computed: d,
                advertised,
            })),
            Err(StreamError::Overload { .. }) => {
                Ok(Err(RejectReason::Overload { out_link, priority }))
            }
            Err(e) => Err(CacError::Stream(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_bitstream::{CbrParams, TrafficContract, VbrParams};
    use rtcac_rational::ratio;

    fn l(n: u32) -> LinkId {
        LinkId::external(n)
    }

    fn cbr(num: i128, den: i128) -> TrafficContract {
        TrafficContract::cbr(CbrParams::new(Rate::new(ratio(num, den))).unwrap())
    }

    fn vbr(pn: i128, pd: i128, sn: i128, sd: i128, mbs: u64) -> TrafficContract {
        TrafficContract::vbr(
            VbrParams::new(Rate::new(ratio(pn, pd)), Rate::new(ratio(sn, sd)), mbs).unwrap(),
        )
    }

    fn one_level_switch(bound: i128) -> Switch {
        Switch::new(SwitchConfig::uniform(1, Time::from_integer(bound)).unwrap())
    }

    fn request(contract: TrafficContract, cdv: i128, i: u32, p: u8) -> ConnectionRequest {
        ConnectionRequest::new(
            contract,
            Time::from_integer(cdv),
            l(i),
            l(100),
            Priority::new(p),
        )
    }

    /// One per established leg: a growing leg is resident bytes per
    /// connection.
    #[test]
    fn leg_layout_pin() {
        assert_eq!(std::mem::size_of::<Leg>(), 24);
    }

    #[test]
    fn admit_single_connection() {
        let mut sw = one_level_switch(32);
        let d = sw
            .admit(ConnectionId::new(1), request(cbr(1, 8), 0, 0, 0))
            .unwrap();
        assert!(d.is_admitted());
        assert_eq!(sw.connection_count(), 1);
        assert!(sw.has_connection(ConnectionId::new(1)));
        assert_eq!(sw.sustained_load(l(100)), Rate::new(ratio(1, 8)));
    }

    #[test]
    fn check_does_not_mutate() {
        let sw = one_level_switch(32);
        let before = sw.connection_count();
        let _ = sw.check(&request(cbr(1, 8), 0, 0, 0)).unwrap();
        assert_eq!(sw.connection_count(), before);
        assert_eq!(
            sw.computed_bound(l(100), Priority::HIGHEST).unwrap(),
            Time::ZERO
        );
    }

    #[test]
    fn duplicate_id_is_error() {
        let mut sw = one_level_switch(32);
        sw.admit(ConnectionId::new(1), request(cbr(1, 8), 0, 0, 0))
            .unwrap();
        assert!(matches!(
            sw.admit(ConnectionId::new(1), request(cbr(1, 8), 0, 1, 0)),
            Err(CacError::DuplicateConnection(_))
        ));
    }

    #[test]
    fn unknown_priority_is_error() {
        let sw = one_level_switch(32);
        assert!(matches!(
            sw.check(&request(cbr(1, 8), 0, 0, 3)),
            Err(CacError::UnknownPriority(_))
        ));
    }

    #[test]
    fn overload_rejected() {
        let mut sw = one_level_switch(1_000_000);
        // Two CBR connections at 3/5 each: long-run 6/5 > 1.
        let d1 = sw
            .admit(ConnectionId::new(1), request(cbr(3, 5), 0, 0, 0))
            .unwrap();
        assert!(d1.is_admitted());
        let d2 = sw
            .admit(ConnectionId::new(2), request(cbr(3, 5), 0, 1, 0))
            .unwrap();
        assert!(matches!(
            d2,
            AdmissionDecision::Rejected(RejectReason::Overload { .. })
        ));
        assert_eq!(sw.connection_count(), 1);
    }

    #[test]
    fn bound_exceeded_rejected_with_jitter() {
        // A tight 2-cell bound; jittered CBR connections clump into
        // bursts that eventually exceed it.
        let mut sw = one_level_switch(2);
        let mut admitted = 0;
        for k in 0..8 {
            let d = sw
                .admit(ConnectionId::new(k), request(cbr(1, 10), 40, k as u32, 0))
                .unwrap();
            match d {
                AdmissionDecision::Admitted(_) => admitted += 1,
                AdmissionDecision::Rejected(RejectReason::BoundExceeded {
                    computed,
                    advertised,
                    ..
                }) => {
                    assert!(computed > advertised);
                    break;
                }
                AdmissionDecision::Rejected(r) => panic!("unexpected: {r}"),
            }
        }
        assert!(admitted >= 1, "at least one connection must fit");
        assert!(admitted < 8, "the tight bound must eventually reject");
        // The committed state still honors the bound.
        let d = sw.computed_bound(l(100), Priority::HIGHEST).unwrap();
        assert!(d <= Time::from_integer(2));
    }

    #[test]
    fn admission_report_contains_bounds() {
        let mut sw = one_level_switch(32);
        match sw
            .admit(ConnectionId::new(1), request(vbr(1, 2, 1, 10, 6), 16, 0, 0))
            .unwrap()
        {
            AdmissionDecision::Admitted(report) => {
                assert_eq!(report.out_link(), l(100));
                let b = report.bound_for(Priority::HIGHEST).unwrap();
                assert!(b <= Time::from_integer(32));
                assert_eq!(report.bounds().len(), 1);
            }
            other => panic!("expected admission, got {other:?}"),
        }
    }

    #[test]
    fn release_restores_capacity() {
        let mut sw = one_level_switch(4);
        // Fill until rejection.
        let mut ids = Vec::new();
        for k in 0..20 {
            let d = sw
                .admit(ConnectionId::new(k), request(cbr(1, 10), 30, k as u32, 0))
                .unwrap();
            if d.is_admitted() {
                ids.push(ConnectionId::new(k));
            } else {
                break;
            }
        }
        let full = sw.connection_count();
        assert!(full > 0);
        // Releasing one connection must allow a similar one back in.
        let released = sw.release(ids[0]).unwrap();
        assert_eq!(released.len(), 1);
        assert_eq!(sw.connection_count(), full - 1);
        let d = sw.admit(ConnectionId::new(99), released[0]).unwrap();
        assert!(d.is_admitted());
        assert_eq!(sw.connection_count(), full);
    }

    #[test]
    fn release_unknown_is_error() {
        let mut sw = one_level_switch(32);
        assert!(matches!(
            sw.release(ConnectionId::new(9)),
            Err(CacError::UnknownConnection(_))
        ));
    }

    #[test]
    fn lower_priority_protected_from_new_higher_traffic() {
        // Level 0: 8-cell bound; level 1: 8-cell bound.
        let config =
            SwitchConfig::with_bounds([Time::from_integer(8), Time::from_integer(8)]).unwrap();
        let mut sw = Switch::new(config);
        // Fill priority 1 close to its bound with jittered CBR traffic.
        let mut k = 0u64;
        loop {
            let d = sw
                .admit(ConnectionId::new(k), request(cbr(1, 12), 60, k as u32, 1))
                .unwrap();
            k += 1;
            if !d.is_admitted() || k > 30 {
                break;
            }
        }
        let low_before = sw.computed_bound(l(100), Priority::new(1)).unwrap();
        assert!(low_before <= Time::from_integer(8));
        // Now a big bursty high-priority connection: its own bound may
        // hold (small aggregate at level 0) but it must not wreck level
        // 1. Admission must either reject it or keep level 1's computed
        // bound within the advertised one.
        let d = sw
            .admit(
                ConnectionId::new(999),
                request(vbr(1, 1, 1, 3, 32), 60, 99, 0),
            )
            .unwrap();
        let low_after = sw.computed_bound(l(100), Priority::new(1)).unwrap();
        assert!(
            low_after <= Time::from_integer(8),
            "lower priority bound violated after {d:?}"
        );
    }

    #[test]
    fn higher_priority_unaffected_by_lower_admission() {
        let config =
            SwitchConfig::with_bounds([Time::from_integer(8), Time::from_integer(64)]).unwrap();
        let mut sw = Switch::new(config);
        sw.admit(ConnectionId::new(1), request(cbr(1, 4), 20, 0, 0))
            .unwrap();
        let hi_before = sw.computed_bound(l(100), Priority::HIGHEST).unwrap();
        // Admit lower-priority traffic.
        sw.admit(ConnectionId::new(2), request(vbr(1, 2, 1, 5, 16), 20, 1, 1))
            .unwrap();
        let hi_after = sw.computed_bound(l(100), Priority::HIGHEST).unwrap();
        assert_eq!(hi_before, hi_after);
    }

    #[test]
    fn report_covers_lower_levels() {
        let config =
            SwitchConfig::with_bounds([Time::from_integer(16), Time::from_integer(64)]).unwrap();
        let mut sw = Switch::new(config);
        sw.admit(ConnectionId::new(1), request(cbr(1, 4), 10, 0, 1))
            .unwrap();
        match sw
            .admit(ConnectionId::new(2), request(cbr(1, 4), 10, 1, 0))
            .unwrap()
        {
            AdmissionDecision::Admitted(report) => {
                assert!(report.bound_for(Priority::HIGHEST).is_some());
                assert!(report.bound_for(Priority::new(1)).is_some());
            }
            other => panic!("expected admission, got {other:?}"),
        }
    }

    #[test]
    fn connections_iterator() {
        let mut sw = one_level_switch(32);
        sw.admit(ConnectionId::new(5), request(cbr(1, 8), 0, 0, 0))
            .unwrap();
        let listed: Vec<ConnectionId> = sw.connections().map(|(id, _)| id).collect();
        assert_eq!(listed, vec![ConnectionId::new(5)]);
        assert_eq!(sw.active_out_links(), vec![l(100)]);
    }

    #[test]
    fn quantized_switch_is_sound_and_scales() {
        // Heterogeneous contracts whose exact aggregation would blow up
        // i128 denominators: quantization keeps arithmetic bounded and
        // the committed state still honors the advertised bound.
        let config = SwitchConfig::uniform(1, Time::from_integer(500))
            .unwrap()
            .with_quantization(4096)
            .unwrap();
        let mut sw = Switch::new(config);
        for k in 0..128u64 {
            let contract = vbr(
                1,
                40 + (k % 11) as i128,
                1,
                600 + (k % 17) as i128,
                2 + k % 6,
            );
            let req = ConnectionRequest::new(
                contract,
                Time::from_integer(64),
                l((k % 4) as u32),
                l(100),
                Priority::HIGHEST,
            );
            let decision = sw.admit(ConnectionId::new(k), req).unwrap();
            assert!(decision.is_admitted(), "connection {k} rejected");
        }
        let bound = sw.computed_bound(l(100), Priority::HIGHEST).unwrap();
        assert!(bound <= Time::from_integer(500));
        // Quantized bounds dominate the per-connection exact ones: the
        // quantized aggregate is built from dominating envelopes.
        assert_eq!(sw.connection_count(), 128);
    }

    #[test]
    fn multicast_legs_share_one_id() {
        // One p2mp connection reserving two output ports of the same
        // switch under a single id.
        let config = SwitchConfig::uniform(1, Time::from_integer(32)).unwrap();
        let mut sw = Switch::new(config);
        let id = ConnectionId::new(7);
        let leg = |out: u32| {
            ConnectionRequest::new(
                cbr(1, 8),
                Time::from_integer(16),
                l(0),
                l(out),
                Priority::HIGHEST,
            )
        };
        assert!(sw.admit(id, leg(100)).unwrap().is_admitted());
        assert!(sw.admit(id, leg(101)).unwrap().is_admitted());
        // Same id, same out link: rejected as a duplicate.
        assert!(matches!(
            sw.admit(id, leg(100)),
            Err(CacError::DuplicateConnection(_))
        ));
        assert_eq!(sw.connection_count(), 2);
        assert!(sw.has_connection(id));
        // Release removes both legs and frees both ports.
        let released = sw.release(id).unwrap();
        assert_eq!(released.len(), 2);
        assert_eq!(sw.connection_count(), 0);
        assert_eq!(
            sw.computed_bound(l(100), Priority::HIGHEST).unwrap(),
            Time::ZERO
        );
        assert_eq!(
            sw.computed_bound(l(101), Priority::HIGHEST).unwrap(),
            Time::ZERO
        );
    }

    #[test]
    fn legs_iterate_sorted_whatever_the_admit_order() {
        let mut sw = Switch::new(SwitchConfig::uniform(1, Time::from_integer(1024)).unwrap());
        let leg = |i: u32, out: u32| {
            ConnectionRequest::new(cbr(1, 64), Time::ZERO, l(i), l(out), Priority::HIGHEST)
        };
        let multicast = ConnectionId::new(5);
        // One multicast id's legs in descending out-link order, among
        // unicast ids on either side of it.
        let admits = [
            (ConnectionId::new(9), leg(1, 102)),
            (multicast, leg(0, 104)),
            (ConnectionId::new(2), leg(2, 101)),
            (multicast, leg(0, 103)),
            (ConnectionId::new(6), leg(3, 103)),
            (multicast, leg(0, 102)),
            (multicast, leg(0, 101)),
        ];
        for (id, request) in admits {
            assert!(sw.admit(id, request).unwrap().is_admitted());
        }
        let mut expected: Vec<(ConnectionId, LinkId)> = admits
            .iter()
            .map(|(id, request)| (*id, request.out_link()))
            .collect();
        expected.sort();
        let listed: Vec<(ConnectionId, LinkId)> = sw
            .connections()
            .map(|(id, request)| (id, request.out_link()))
            .collect();
        assert_eq!(listed, expected);

        let released = sw.release(multicast).unwrap();
        let released_outs: Vec<LinkId> = released.iter().map(|r| r.out_link()).collect();
        assert_eq!(released_outs, vec![l(101), l(102), l(103), l(104)]);
        assert!(!sw.has_connection(multicast));
        expected.retain(|&(id, _)| id != multicast);
        let listed: Vec<(ConnectionId, LinkId)> = sw
            .connections()
            .map(|(id, request)| (id, request.out_link()))
            .collect();
        assert_eq!(listed, expected);
        assert_eq!(sw.sustained_load(l(104)), Rate::ZERO);
        assert_eq!(sw.sustained_load(l(103)), Rate::new(ratio(1, 64)));
    }

    #[test]
    fn epoch_tracks_mutations_only() {
        let mut sw = one_level_switch(32);
        assert_eq!(sw.epoch(), 0);
        // A pure check does not bump the epoch.
        let _ = sw.check(&request(cbr(1, 8), 0, 0, 0)).unwrap();
        assert_eq!(sw.epoch(), 0);
        sw.admit(ConnectionId::new(1), request(cbr(1, 8), 0, 0, 0))
            .unwrap();
        assert_eq!(sw.epoch(), 1);
        // A rejected admission leaves the tables (and epoch) untouched.
        let d = sw
            .admit(ConnectionId::new(2), request(cbr(9, 10), 0, 1, 0))
            .unwrap();
        assert!(!d.is_admitted());
        assert_eq!(sw.epoch(), 1);
        sw.release(ConnectionId::new(1)).unwrap();
        assert_eq!(sw.epoch(), 2);
    }

    /// Two CBR contracts with coprime 63-bit denominators at one port:
    /// the first two of the three whose rate sum overflows `i128`. Each
    /// envelope fits machine words; the sum of the two does not, so the
    /// aggregate that holds both is stored in the 64-byte form.
    #[test]
    fn coprime_word_denominators_are_priced_and_stored_exactly() {
        const D1: i128 = 9_223_372_036_854_775_783;
        const D2: i128 = 9_223_372_036_854_775_643;
        let wide = |s: &BitStream| s.resident_bytes() == s.segment_count() * 64;
        let port =
            |sw: &Switch, i: u32| sw.tables.arrival(l(i), l(100), Priority::HIGHEST).cloned();
        for shared_in_link in [false, true] {
            let mut sw = one_level_switch(32);
            let second_in = u32::from(!shared_in_link);
            let legs = [
                (ConnectionId::new(1), request(cbr(1, D1), 0, 0, 0)),
                (ConnectionId::new(2), request(cbr(1, D2), 0, second_in, 0)),
            ];
            for (id, leg) in legs {
                assert!(sw.admit(id, leg).unwrap().is_admitted());
            }
            // The bounds computed when every segment was stored wide.
            let bound = if shared_in_link { 0 } else { 1 };
            assert_eq!(
                sw.computed_bound(l(100), Priority::HIGHEST).unwrap(),
                Time::from_integer(bound)
            );
            // Apart, each in-link stores one word-sized envelope; shared,
            // the one stored aggregate is their wide sum.
            let stored: Vec<BitStream> = (0..2).filter_map(|i| port(&sw, i)).collect();
            assert_eq!(stored.len(), if shared_in_link { 1 } else { 2 });
            assert!(stored.iter().all(|s| wide(s) == shared_in_link));
            assert!(wide(&BitStream::multiplex_all(&stored)));
            let restored = |sw: &Switch| {
                Switch::restore(sw.config().clone(), sw.epoch(), sw.connections()).unwrap()
            };
            assert_eq!(sw.tables, restored(&sw).tables);
            sw.release(ConnectionId::new(1)).unwrap();
            assert_eq!(sw.tables, restored(&sw).tables);
            assert!(port(&sw, second_in).is_some_and(|s| !wide(&s)));
        }
    }

    #[test]
    fn advertised_bound_matches_config() {
        let sw = one_level_switch(32);
        assert_eq!(
            sw.advertised_bound(Priority::HIGHEST).unwrap(),
            Time::from_integer(32)
        );
        assert!(sw.advertised_bound(Priority::new(1)).is_err());
    }
}
