//! The per-switch stream bookkeeping of §4.3.
//!
//! **Stored:** for every (incoming link `i`, outgoing link `j`, priority
//! `p`) the aggregated worst-case arrival stream `Sia(i,j,p)` of the
//! admitted connections, and nothing else. The aggregates are grouped by
//! port: each `(j, p)` holds its in-links' `Sia` sorted by `i`, so a
//! check that prices one port reads that port's entries (or the `(j, ·)`
//! range of levels above `p`) and never the rest of the switch.
//!
//! **Derived per check,** from one port's entries, never stored:
//!
//! - `Sif(i,j,p) = filter(Sia(i,j,p))` — what can actually cross the
//!   incoming link; read as a filtered view inside the sum below, never
//!   built on its own;
//! - `Soa(j,p)   = Σᵢ Sif(i,j,p)` — the aggregate arriving at output
//!   port `j` for priority `p`, never built either: Algorithm 4.1 reads
//!   it from a lazy merge of the port's entries, up to its peak
//!   ([`BitStream::delay_bound_of_filtered_sum`]);
//! - `Sia(i,j)(p) = Σ_{p' ≻ p} Sia(i,j,p')` — the higher-priority
//!   aggregate per incoming link;
//! - `Sof(j)(p)  = filter(Σᵢ filter(Sia(i,j)(p)))` — the worst-case
//!   higher-priority *transmission* stream that interferes with `p`.
//!
//! Storing `Sif` or `Soa` as well would trade resident memory per
//! connection for check time; DESIGN.md §5 records why it does not pay.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use rtcac_bitstream::BitStream;
use rtcac_net::LinkId;

use crate::Priority;

/// What one stored aggregate is counted as besides its segments: its
/// (incoming link, outgoing link, priority) key.
type Key = (LinkId, LinkId, Priority);

/// One port's aggregates: `(i, Sia(i,j,p))`, sorted by `i`.
type Entries = Vec<(LinkId, BitStream)>;

/// The stored `Sia(i,j,p)` aggregates of one switch, keyed by port.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Tables {
    /// `(j, p)` → that port's non-zero aggregates; no port is empty.
    ports: BTreeMap<(LinkId, Priority), Entries>,
}

/// The aggregate of in-link `i` among one port's entries.
fn find(entries: &[(LinkId, BitStream)], i: LinkId) -> Option<&BitStream> {
    entries
        .binary_search_by_key(&i, |&(k, _)| k)
        .ok()
        .map(|at| &entries[at].1)
}

impl Tables {
    pub(crate) fn new() -> Tables {
        Tables::default()
    }

    /// One port's entries (empty if it carries nothing).
    fn port(&self, j: LinkId, p: Priority) -> &[(LinkId, BitStream)] {
        self.ports.get(&(j, p)).map_or(&[], Vec::as_slice)
    }

    /// The entries of every level at port `j` that outranks `p`.
    fn higher(&self, j: LinkId, p: Priority) -> impl Iterator<Item = &Entries> {
        self.ports
            .range((j, Priority::HIGHEST)..(j, p))
            .map(|(_, entries)| entries)
    }

    /// The stored aggregate for a key, if any.
    pub(crate) fn arrival(&self, i: LinkId, j: LinkId, p: Priority) -> Option<&BitStream> {
        find(self.port(j, p), i)
    }

    /// `Sia(i,j,p) + stream`, the key's aggregate with one more stream
    /// multiplexed in (zero plus `stream` is `stream`).
    pub(crate) fn arrival_plus(
        &self,
        i: LinkId,
        j: LinkId,
        p: Priority,
        stream: &BitStream,
    ) -> BitStream {
        self.arrival(i, j, p)
            .map_or_else(|| stream.clone(), |sia| sia.multiplex(stream))
    }

    /// Multiplexes a stream into a key's aggregate.
    pub(crate) fn add(&mut self, i: LinkId, j: LinkId, p: Priority, stream: &BitStream) {
        self.set(i, j, p, self.arrival_plus(i, j, p, stream));
    }

    /// Replaces a key's aggregate wholesale (an admission commits the
    /// aggregate its check built; a release recomputes it); a zero
    /// stream removes the entry.
    pub(crate) fn set(&mut self, i: LinkId, j: LinkId, p: Priority, stream: BitStream) {
        if stream.is_zero() {
            if let Some(entries) = self.ports.get_mut(&(j, p)) {
                if let Ok(at) = entries.binary_search_by_key(&i, |&(k, _)| k) {
                    entries.remove(at);
                }
                if entries.is_empty() {
                    self.ports.remove(&(j, p));
                }
            }
            return;
        }
        let entries = self.ports.entry((j, p)).or_default();
        match entries.binary_search_by_key(&i, |&(k, _)| k) {
            Ok(at) => entries[at].1 = stream,
            Err(at) => entries.insert(at, (i, stream)),
        }
    }

    /// Approximate resident heap bytes of the stored aggregates.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.ports
            .values()
            .flatten()
            .map(|(_, s)| std::mem::size_of::<Key>() + s.resident_bytes())
            .sum()
    }

    /// The total long-run rate currently crossing incoming link `i`
    /// (all outgoing links and priorities).
    pub(crate) fn in_link_long_run(&self, i: LinkId) -> rtcac_bitstream::Rate {
        self.ports
            .values()
            .filter_map(|entries| find(entries, i))
            .map(BitStream::long_run_rate)
            .sum()
    }

    /// All output links with any stored aggregate.
    pub(crate) fn out_links(&self) -> BTreeSet<LinkId> {
        self.ports.keys().map(|&(j, _)| j).collect()
    }

    /// Every in-link's `Sia(i,j,p)` at port `(j, p)` — the terms of
    /// `Soa(j,p)` — with in-link `i`'s swapped for `sia` if given, as
    /// Step 3 updates it.
    pub(crate) fn port_arrivals<'a>(
        &'a self,
        j: LinkId,
        p: Priority,
        swap: Option<(LinkId, &'a BitStream)>,
    ) -> impl Iterator<Item = &'a BitStream> {
        let (skip, entries) = (swap.map(|(i, _)| i), self.port(j, p).iter());
        let others = entries.filter(move |e| Some(e.0) != skip).map(|(_, s)| s);
        others.chain(swap.map(|(_, sia)| sia))
    }

    /// `Sia(i,j)(p) = Σ_{p' ≻ p} Sia(i,j,p')`: the higher-priority
    /// aggregate on one incoming link.
    pub(crate) fn higher_in(&self, i: LinkId, j: LinkId, p: Priority) -> BitStream {
        BitStream::multiplex_all(self.higher(j, p).filter_map(|entries| find(entries, i)))
    }

    /// `Sof(j)(p) = filter(Σᵢ filter(Sia(i,j)(p)))` — the filtered
    /// higher-priority interference at output port `j`, optionally with
    /// an extra stream injected at one incoming link (Step 5 evaluates
    /// the effect of the candidate connection on lower priorities). A
    /// level nothing outranks reads an empty range: the zero stream.
    pub(crate) fn interference_with(
        &self,
        j: LinkId,
        p: Priority,
        extra: Option<(LinkId, &BitStream)>,
    ) -> BitStream {
        let mut links: BTreeSet<LinkId> = self
            .higher(j, p)
            .flat_map(|entries| entries.iter().map(|&(i, _)| i))
            .collect();
        links.extend(extra.map(|(i, _)| i));
        let per_link: Vec<BitStream> = links
            .into_iter()
            .map(|i| {
                let higher = self.higher_in(i, j, p);
                match extra {
                    Some((ei, stream)) if ei == i => higher.multiplex(stream),
                    _ => higher,
                }
            })
            .collect();
        BitStream::multiplex_filtered(&per_link).filter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_bitstream::{Rate, Time};
    use rtcac_rational::ratio;

    fn l(n: u32) -> LinkId {
        LinkId::external(n)
    }

    /// Number of non-zero aggregates.
    fn len(t: &Tables) -> usize {
        t.ports.values().map(Vec::len).sum()
    }

    fn burst(rate_num: i128, rate_den: i128, until: i128) -> BitStream {
        BitStream::from_rate_breaks([
            (ratio(2, 1), ratio(0, 1)),
            (ratio(rate_num, rate_den), ratio(until, 1)),
        ])
        .unwrap()
    }

    #[test]
    fn add_and_arrival() {
        let mut t = Tables::new();
        assert!(t.arrival(l(0), l(1), Priority::HIGHEST).is_none());
        let s = burst(1, 4, 2);
        t.add(l(0), l(1), Priority::HIGHEST, &s);
        assert_eq!(t.arrival(l(0), l(1), Priority::HIGHEST), Some(&s));
        t.add(l(0), l(1), Priority::HIGHEST, &s);
        assert_eq!(
            t.arrival(l(0), l(1), Priority::HIGHEST),
            Some(&s.multiplex(&s))
        );
        assert_eq!(len(&t), 1);
    }

    #[test]
    fn set_zero_removes() {
        let mut t = Tables::new();
        t.add(l(0), l(1), Priority::HIGHEST, &burst(1, 4, 2));
        t.set(l(0), l(1), Priority::HIGHEST, BitStream::zero());
        assert_eq!(len(&t), 0);
        assert!(t.arrival(l(0), l(1), Priority::HIGHEST).is_none());
        assert_eq!(t, Tables::new(), "an emptied port is dropped");
    }

    #[test]
    fn link_enumeration() {
        let mut t = Tables::new();
        t.add(l(0), l(5), Priority::HIGHEST, &burst(1, 8, 1));
        t.add(l(1), l(5), Priority::new(1), &burst(1, 8, 1));
        t.add(l(0), l(6), Priority::HIGHEST, &burst(1, 8, 1));
        let outs: Vec<LinkId> = t.out_links().into_iter().collect();
        assert_eq!(outs, vec![l(5), l(6)]);
    }

    #[test]
    fn in_link_long_run_sums_every_port_and_level() {
        let mut t = Tables::new();
        t.add(l(0), l(5), Priority::HIGHEST, &burst(1, 8, 1));
        t.add(l(0), l(5), Priority::new(2), &burst(1, 4, 1));
        t.add(l(1), l(5), Priority::HIGHEST, &burst(1, 2, 1));
        t.add(l(0), l(6), Priority::new(1), &burst(1, 16, 1));
        assert_eq!(t.in_link_long_run(l(0)), Rate::new(ratio(7, 16)));
        assert_eq!(t.in_link_long_run(l(1)), Rate::new(ratio(1, 2)));
        assert_eq!(t.in_link_long_run(l(9)), Rate::ZERO);
    }

    /// `Soa(j,p)`, built from the port's terms.
    fn soa(t: &Tables, j: LinkId, p: Priority, swap: Option<(LinkId, &BitStream)>) -> BitStream {
        BitStream::multiplex_filtered(t.port_arrivals(j, p, swap))
    }

    #[test]
    fn port_arrivals_are_filtered_per_in_link() {
        let mut t = Tables::new();
        // Two bursty aggregates on different in-links: each is filtered
        // to <= 1 before summing, so the output aggregate peaks at 2,
        // not 4.
        t.add(l(0), l(5), Priority::HIGHEST, &burst(1, 8, 2));
        t.add(l(1), l(5), Priority::HIGHEST, &burst(1, 8, 2));
        let agg = soa(&t, l(5), Priority::HIGHEST, None);
        assert_eq!(agg.peak_rate(), Rate::new(ratio(2, 1)));
    }

    #[test]
    fn port_arrivals_sum_to_the_filtered_in_links() {
        let mut t = Tables::new();
        let parts = [burst(1, 8, 2), burst(1, 4, 3), burst(1, 2, 1)];
        for (k, s) in parts.iter().enumerate() {
            t.add(l(k as u32), l(5), Priority::HIGHEST, s);
        }
        t.add(l(0), l(6), Priority::HIGHEST, &burst(1, 2, 9));
        let terms: Vec<&BitStream> = t.port_arrivals(l(5), Priority::HIGHEST, None).collect();
        assert_eq!(terms, parts.iter().collect::<Vec<_>>());
        let pairwise = parts
            .iter()
            .fold(BitStream::zero(), |acc, s| acc.multiplex(&s.filter()));
        assert_eq!(soa(&t, l(5), Priority::HIGHEST, None), pairwise);
        assert_eq!(t.port_arrivals(l(5), Priority::new(1), None).count(), 0);
    }

    #[test]
    fn port_arrivals_swap_one_link() {
        let mut t = Tables::new();
        t.add(l(0), l(5), Priority::HIGHEST, &burst(1, 8, 2));
        t.add(l(1), l(5), Priority::HIGHEST, &burst(1, 8, 2));
        let p = Priority::HIGHEST;
        let sia0 = t.arrival(l(0), l(5), p).unwrap().clone();
        // Swapping in-link 1 for nothing leaves in-link 0 alone.
        let partial = soa(&t, l(5), p, Some((l(1), &BitStream::zero())));
        assert_eq!(partial, sia0.filter());
        // Swapping a link for its own aggregate changes nothing.
        let same = soa(&t, l(5), p, Some((l(1), &burst(1, 8, 2))));
        assert_eq!(same, soa(&t, l(5), p, None));
        // A fresh in-link adds its filtered aggregate.
        let added = soa(&t, l(5), p, Some((l(7), &burst(1, 4, 3))));
        assert_eq!(
            added,
            soa(&t, l(5), p, None).multiplex(&burst(1, 4, 3).filter())
        );
    }

    #[test]
    fn higher_in_collects_outranking_levels_only() {
        let mut t = Tables::new();
        let s0 = burst(1, 8, 1);
        let s1 = burst(1, 4, 1);
        t.add(l(0), l(5), Priority::new(0), &s0);
        t.add(l(0), l(5), Priority::new(1), &s1);
        t.add(l(0), l(5), Priority::new(2), &burst(1, 2, 1));
        assert!(t.higher_in(l(0), l(5), Priority::new(0)).is_zero());
        assert_eq!(t.higher_in(l(0), l(5), Priority::new(1)), s0);
        assert_eq!(t.higher_in(l(0), l(5), Priority::new(2)), s0.multiplex(&s1));
    }

    #[test]
    fn interference_is_filtered() {
        let mut t = Tables::new();
        t.add(l(0), l(5), Priority::HIGHEST, &burst(1, 8, 4));
        t.add(l(1), l(5), Priority::HIGHEST, &burst(1, 8, 4));
        let sof = t.interference_with(l(5), Priority::new(1), None);
        // Output filtering caps the interference at the link rate.
        assert!(sof.peak_rate() <= Rate::FULL);
        assert!(!sof.is_zero());
        // Highest priority sees no interference.
        assert!(t.interference_with(l(5), Priority::HIGHEST, None).is_zero());
    }

    #[test]
    fn interference_with_extra_stream() {
        let mut t = Tables::new();
        t.add(l(0), l(5), Priority::HIGHEST, &burst(1, 8, 2));
        let extra = burst(1, 8, 2);
        let without = t.interference_with(l(5), Priority::new(1), None);
        let with_same_link = t.interference_with(l(5), Priority::new(1), Some((l(0), &extra)));
        let with_new_link = t.interference_with(l(5), Priority::new(1), Some((l(7), &extra)));
        // Adding interference can only inflate the envelope.
        let ts = Time::from_integer(6);
        assert!(with_same_link.cumulative(ts) >= without.cumulative(ts));
        assert!(with_new_link.cumulative(ts) >= without.cumulative(ts));
        // On a fresh in-link the extra stream is filtered independently,
        // so the two placements differ in general.
        assert!(with_new_link.peak_rate() <= Rate::new(ratio(2, 1)));
    }
}
