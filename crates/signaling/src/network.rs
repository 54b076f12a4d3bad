//! The [`Network`]: CAC-managed switches over a topology, driving the
//! distributed setup procedure.

use std::collections::BTreeMap;

use rtcac_bitstream::{Time, TrafficContract};
use rtcac_cac::{
    release_order, AdmissionDecision, AdmissionReport, AdmissionVerdict, ConnectionId,
    ConnectionRequest, FailureImpact, GuaranteeViolation, HopDriver, PlannedHop, Priority,
    ReservationPlan, ReserveOutcome, RoutePlan, Switch, SwitchConfig,
};
use rtcac_net::{LinkId, NodeId, Route, Topology};
use rtcac_obs::Tracer;

use crate::metrics::NetworkMetrics;
use crate::{CdvPolicy, SetupRejection, SignalError, SignalEvent};

// Re-exported from the shared admission core so alternative setup
// drivers (e.g. the concurrent `rtcac-engine`) produce bit-identical
// `ConnectionRequest`s and therefore identical admission decisions.
pub use rtcac_cac::LOCAL_INJECTION;

/// The connection parameters carried in a SETUP message: traffic
/// contract, priority, and the requested end-to-end queueing delay
/// bound `D` (paper §4.1: `(PCR, SCR, MBS, D)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetupRequest {
    contract: TrafficContract,
    priority: Priority,
    delay_bound: Time,
}

impl SetupRequest {
    /// Creates a setup request.
    pub fn new(contract: TrafficContract, priority: Priority, delay_bound: Time) -> SetupRequest {
        SetupRequest {
            contract,
            priority,
            delay_bound,
        }
    }

    /// The traffic contract.
    pub fn contract(&self) -> TrafficContract {
        self.contract
    }

    /// The transmission priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The requested end-to-end queueing delay bound.
    pub fn delay_bound(&self) -> Time {
        self.delay_bound
    }
}

/// A successfully established connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionInfo {
    id: ConnectionId,
    request: SetupRequest,
    route: Route,
    guaranteed_delay: Time,
    per_hop_bounds: Vec<(NodeId, Time)>,
}

impl ConnectionInfo {
    /// The connection's identifier.
    pub fn id(&self) -> ConnectionId {
        self.id
    }

    /// The original setup request.
    pub fn request(&self) -> &SetupRequest {
        &self.request
    }

    /// The route the connection follows.
    pub fn route(&self) -> &Route {
        &self.route
    }

    /// The guaranteed end-to-end queueing delay bound: the sum of the
    /// advertised per-hop bounds (fixed regardless of load, per the
    /// paper's design).
    pub fn guaranteed_delay(&self) -> Time {
        self.guaranteed_delay
    }

    /// The advertised bound at each switch crossed, in route order.
    pub fn per_hop_bounds(&self) -> &[(NodeId, Time)] {
        &self.per_hop_bounds
    }
}

/// The outcome of a setup attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetupOutcome {
    /// CONNECTED: the connection is established end to end.
    Connected(ConnectionInfo),
    /// REJECT: some switch refused, or the QoS is unachievable; any
    /// upstream reservations have been rolled back.
    Rejected(SetupRejection),
}

impl SetupOutcome {
    /// Whether the setup succeeded.
    pub fn is_connected(&self) -> bool {
        matches!(self, SetupOutcome::Connected(_))
    }
}

/// A network of CAC-managed switches over a [`Topology`], implementing
/// the distributed setup procedure of §4.1. See the crate-level example.
#[derive(Debug, Clone)]
pub struct Network {
    topology: Topology,
    switches: BTreeMap<NodeId, Switch>,
    policy: CdvPolicy,
    connections: BTreeMap<ConnectionId, ConnectionInfo>,
    multicast: BTreeMap<ConnectionId, crate::MulticastInfo>,
    events: Vec<SignalEvent>,
    next_id: u64,
    metrics: NetworkMetrics,
    tracer: Tracer,
    last_report: Option<AdmissionReport>,
    cdv_inflation: BTreeMap<LinkId, Time>,
}

impl Network {
    /// Creates a network giving every switch node of the topology the
    /// same configuration.
    pub fn new(topology: Topology, config: SwitchConfig, policy: CdvPolicy) -> Network {
        let switches = topology
            .switches()
            .map(|n| (n.id(), Switch::new(config.clone())))
            .collect();
        Network {
            topology,
            switches,
            policy,
            connections: BTreeMap::new(),
            multicast: BTreeMap::new(),
            events: Vec::new(),
            next_id: 1,
            metrics: NetworkMetrics::from_global(),
            tracer: Tracer::noop(),
            last_report: None,
            cdv_inflation: BTreeMap::new(),
        }
    }

    /// Sets the CDV inflation of one link: `extra` cell times of jitter
    /// that a degraded (but still up) link adds to every connection
    /// priced across it, tightening subsequent admission decisions.
    /// `Time::ZERO` restores the link. Established connections are
    /// unaffected — inflation changes pricing, not reservations.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::Net`] for an unknown link, or
    /// [`SignalError::Cac`] for a negative inflation.
    pub fn set_link_cdv_inflation(&mut self, link: LinkId, extra: Time) -> Result<(), SignalError> {
        self.topology.link(link)?;
        if extra < Time::ZERO {
            return Err(SignalError::Cac(rtcac_cac::CacError::BadConfig(
                "CDV inflation must be non-negative",
            )));
        }
        if extra == Time::ZERO {
            self.cdv_inflation.remove(&link);
        } else {
            self.cdv_inflation.insert(link, extra);
        }
        Ok(())
    }

    /// The CDV inflation currently applied to a link (zero by default).
    pub fn link_cdv_inflation(&self, link: LinkId) -> Time {
        self.cdv_inflation.get(&link).copied().unwrap_or(Time::ZERO)
    }

    /// Rebinds this network's observability handles to an explicit
    /// [`rtcac_obs::Registry`] instead of the process-global one
    /// (useful for tests and embedders that keep registries isolated).
    pub fn set_registry(&mut self, registry: &std::sync::Arc<rtcac_obs::Registry>) {
        self.metrics.rebind(registry);
    }

    /// Installs a [`Tracer`]: subsequent setups emit causal spans
    /// (price, reserve, per-hop events) into its ring. The default is
    /// a noop tracer costing one branch per instrumentation site.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer (noop unless [`Network::set_tracer`] ran).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The decision provenance of the most recent setup attempt that
    /// reached pricing: one row per hop with the bound-vs-deadline
    /// comparison, plus the end-to-end verdict. `None` before any
    /// setup, or when the last setup was refused before pricing (dead
    /// route, duplicate id).
    pub fn last_admission_report(&self) -> Option<&AdmissionReport> {
        self.last_report.as_ref()
    }

    /// Replaces the configuration of one switch (e.g. to give a core
    /// switch deeper queues). Existing connections are kept.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::NoSwitchAt`] if the node is not a managed
    /// switch.
    pub fn configure_switch(
        &mut self,
        node: NodeId,
        config: SwitchConfig,
    ) -> Result<(), SignalError> {
        match self.switches.get_mut(&node) {
            Some(s) if s.connection_count() == 0 => {
                *s = Switch::new(config);
                Ok(())
            }
            Some(_) => Err(SignalError::Cac(rtcac_cac::CacError::BadConfig(
                "cannot reconfigure a switch with established connections",
            ))),
            None => Err(SignalError::NoSwitchAt(node)),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The CDV accumulation policy in force.
    pub fn policy(&self) -> CdvPolicy {
        self.policy
    }

    /// The managed switch at a node.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::NoSwitchAt`] for non-switch nodes.
    pub fn switch(&self, node: NodeId) -> Result<&Switch, SignalError> {
        self.switches
            .get(&node)
            .ok_or(SignalError::NoSwitchAt(node))
    }

    /// The recorded signaling trace.
    pub fn events(&self) -> &[SignalEvent] {
        &self.events
    }

    /// Established connections.
    pub fn connections(&self) -> impl Iterator<Item = &ConnectionInfo> + '_ {
        self.connections.values()
    }

    /// Looks up an established connection.
    pub fn connection(&self, id: ConnectionId) -> Option<&ConnectionInfo> {
        self.connections.get(&id)
    }

    /// Established multicast connections.
    pub fn multicast_connections(&self) -> impl Iterator<Item = &crate::MulticastInfo> + '_ {
        self.multicast.values()
    }

    /// Looks up an established multicast connection.
    pub fn multicast_connection(&self, id: ConnectionId) -> Option<&crate::MulticastInfo> {
        self.multicast.get(&id)
    }

    pub(crate) fn allocate_id(&mut self) -> ConnectionId {
        let id = ConnectionId::new(self.next_id);
        self.next_id += 1;
        id
    }

    pub(crate) fn switch_mut(&mut self, node: NodeId) -> Result<&mut Switch, SignalError> {
        self.switches
            .get_mut(&node)
            .ok_or(SignalError::NoSwitchAt(node))
    }

    pub(crate) fn push_event(&mut self, event: SignalEvent) {
        self.events.push(event);
    }

    pub(crate) fn insert_multicast(&mut self, info: crate::MulticastInfo) {
        self.multicast.insert(info.id(), info);
    }

    pub(crate) fn remove_multicast(&mut self, id: ConnectionId) -> Option<crate::MulticastInfo> {
        self.multicast.remove(&id)
    }

    /// The smallest end-to-end delay bound the route can guarantee for
    /// a priority: the sum of advertised per-hop bounds.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::NoSwitchAt`] or propagated CAC/topology
    /// errors for invalid routes or priorities.
    pub fn achievable_delay(&self, route: &Route, priority: Priority) -> Result<Time, SignalError> {
        let mut total = Time::ZERO;
        for (node, _) in route.queueing_points(&self.topology)? {
            let switch = self.switch(node)?;
            total += switch.advertised_bound(priority)?;
        }
        Ok(total)
    }

    /// Attempts to establish a connection along `route`, emulating the
    /// SETUP / REJECT / CONNECTED exchange. On rejection at hop `k`,
    /// hops `1..k` are rolled back.
    ///
    /// Returns the assigned [`ConnectionId`] via
    /// [`ConnectionInfo::id`] on success.
    ///
    /// # Errors
    ///
    /// Returns an error only for API misuse (invalid route, unmanaged
    /// node, unknown priority); a connection that simply does not fit
    /// yields [`SetupOutcome::Rejected`].
    pub fn setup(
        &mut self,
        route: &Route,
        request: SetupRequest,
    ) -> Result<SetupOutcome, SignalError> {
        let id = ConnectionId::new(self.next_id);
        let outcome = self.setup_with_id(id, route, request)?;
        if outcome.is_connected() {
            self.next_id += 1;
        }
        Ok(outcome)
    }

    /// [`Network::setup`] with an explicit connection id (used by the
    /// central server façade).
    ///
    /// # Errors
    ///
    /// As [`Network::setup`], plus [`SignalError::DuplicateConnection`].
    pub fn setup_with_id(
        &mut self,
        id: ConnectionId,
        route: &Route,
        request: SetupRequest,
    ) -> Result<SetupOutcome, SignalError> {
        if self.connections.contains_key(&id) {
            return Err(SignalError::DuplicateConnection(id));
        }
        self.last_report = None;
        let mut ctx = self.tracer.start("signaling.setup");
        if ctx.is_live() {
            ctx.attr("conn", id.to_string());
        }
        // A route over a dead element is refused outright — no switch
        // on it may reserve anything (ATM crankback then retries on an
        // alternate route, see [`Network::setup_crankback`]).
        if let Some(link) = route.first_dead_link(&self.topology)? {
            self.metrics.setup_rejected_route_down();
            ctx.event("reject.provenance", format!("route down at link {link}"));
            ctx.finish(true);
            return Ok(SetupOutcome::Rejected(SetupRejection::RouteDown { link }));
        }

        // Shape and price the route through the shared admission core:
        // per-hop CDV accumulation and the guaranteed terminal delay
        // are computed once, from the fixed advertised bounds.
        let price_span = ctx.begin("price");
        let plan = RoutePlan::from_route(&self.topology, route)?;
        let priced = self.price_plan(&plan, request.contract(), request.priority())?;
        ctx.end(price_span);
        let mut rows = priced.report_rows();

        // The QoS feasibility gate: the fixed advertised bounds are the
        // only guarantee the network gives, so the requested bound must
        // cover their sum.
        let achievable = priced.achievable();
        if request.delay_bound() < achievable {
            self.metrics.setup_rejected_qos();
            let report = AdmissionReport::new(
                rows,
                AdmissionVerdict::RejectedQos {
                    requested: request.delay_bound(),
                    achievable,
                },
            );
            ctx.event("reject.provenance", report.summary());
            ctx.finish(true);
            self.last_report = Some(report);
            return Ok(SetupOutcome::Rejected(SetupRejection::QosUnsatisfiable {
                requested: request.delay_bound(),
                achievable,
            }));
        }

        // The reserve walk: the core admits hop by hop and rolls back
        // on the first REJECT travelling upstream. The observer fills
        // the provenance rows (and trace events) from each decision.
        let reserve_span = ctx.begin("reserve");
        let trace_hops = ctx.is_live();
        let outcome = self.reserve_priced_observed(id, &priced, |index, hop, decision| {
            rows[index].record_decision(decision);
            if trace_hops {
                ctx.event(
                    "hop",
                    format!(
                        "node {} out {} cdv {}: {}",
                        hop.node, hop.out_link, hop.cdv, rows[index].verdict
                    ),
                );
            }
        })?;
        ctx.end(reserve_span);
        match outcome {
            ReserveOutcome::Reserved => {}
            ReserveOutcome::Refused {
                at,
                index,
                reason,
                legs_rolled_back,
                ..
            } => {
                self.metrics.setup_rejected_switch();
                self.events.push(SignalEvent::Rejected {
                    connection: id,
                    switch: at,
                    reason,
                });
                let report =
                    AdmissionReport::new(rows, AdmissionVerdict::RejectedHop { at, index });
                ctx.event("reject.provenance", report.summary());
                ctx.finish(true);
                self.last_report = Some(report);
                return Ok(SetupOutcome::Rejected(SetupRejection::Switch {
                    at,
                    reason,
                    hops_rolled_back: legs_rolled_back,
                }));
            }
        }
        self.last_report = Some(AdmissionReport::new(
            rows,
            AdmissionVerdict::Admitted {
                guaranteed_delay: achievable,
            },
        ));
        ctx.finish(false);

        let info = ConnectionInfo {
            id,
            request,
            route: route.clone(),
            guaranteed_delay: achievable,
            per_hop_bounds: priced
                .hops()
                .iter()
                .map(|h| (h.node, h.advertised))
                .collect(),
        };
        self.metrics.setup_connected();
        self.events.push(SignalEvent::Connected {
            connection: id,
            guaranteed_delay: achievable,
        });
        self.connections.insert(id, info.clone());
        Ok(SetupOutcome::Connected(info))
    }

    /// Prices a [`RoutePlan`] against the live switches' advertised
    /// bounds under the network's CDV policy.
    pub(crate) fn price_plan(
        &self,
        plan: &RoutePlan,
        contract: TrafficContract,
        priority: Priority,
    ) -> Result<ReservationPlan, SignalError> {
        ReservationPlan::price_inflated(
            plan,
            self.policy,
            contract,
            priority,
            |node| {
                self.switches
                    .get(&node)
                    .ok_or(SignalError::NoSwitchAt(node))?
                    .advertised_bound(priority)
                    .map_err(SignalError::from)
            },
            |link| self.cdv_inflation.get(&link).copied().unwrap_or(Time::ZERO),
        )
    }

    /// Runs the core reserve walk with the serial driver (live switch
    /// map, signaling trace, hop metrics).
    pub(crate) fn reserve_priced(
        &mut self,
        id: ConnectionId,
        priced: &ReservationPlan,
    ) -> Result<ReserveOutcome, SignalError> {
        self.reserve_priced_observed(id, priced, |_, _, _| {})
    }

    /// [`Network::reserve_priced`] with a per-hop observer (see
    /// [`ReservationPlan::reserve_observed`]) — provenance rows and
    /// trace events are recorded from outside the walk.
    pub(crate) fn reserve_priced_observed(
        &mut self,
        id: ConnectionId,
        priced: &ReservationPlan,
        observe: impl FnMut(usize, &PlannedHop, &AdmissionDecision),
    ) -> Result<ReserveOutcome, SignalError> {
        let mut driver = SerialDriver {
            id,
            switches: &mut self.switches,
            events: &mut self.events,
            metrics: &self.metrics,
        };
        priced.reserve_observed(&mut driver, observe)
    }

    pub(crate) fn metrics(&self) -> &NetworkMetrics {
        &self.metrics
    }

    /// Tears down an established connection, releasing every switch
    /// reservation on its route.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::UnknownConnection`] if the id is not
    /// established — including a second teardown of an id that was
    /// already released (both outcomes are counted under the
    /// `outcome="unknown"` teardown counter).
    pub fn teardown(&mut self, id: ConnectionId) -> Result<(), SignalError> {
        let Some(info) = self.connections.remove(&id) else {
            self.metrics.teardown_unknown();
            return Err(SignalError::UnknownConnection(id));
        };
        let points = info.route.queueing_points(&self.topology)?;
        for node in release_order(points.into_iter().map(|(node, _)| node)) {
            self.switches
                .get_mut(&node)
                .ok_or(SignalError::NoSwitchAt(node))?
                .release(id)?;
        }
        self.metrics.teardown();
        self.events.push(SignalEvent::Released { connection: id });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Failure handling and recovery
    // ------------------------------------------------------------------

    /// Marks a link as failed and tears down every connection routed
    /// over it, releasing its bandwidth at every surviving hop so the
    /// Algorithm 4.1 tables never leak a reservation.
    ///
    /// Idempotent: failing an already-down link changes nothing and
    /// tears down nothing ([`FailureImpact::is_changed`] is `false`).
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::Net`] for an unknown link.
    pub fn fail_link(&mut self, link: LinkId) -> Result<FailureImpact, SignalError> {
        if !self.topology.fail_link(link)? {
            return Ok(FailureImpact::unchanged());
        }
        self.metrics.element_failed(false);
        let torn_down = self.teardown_dead_routes()?;
        self.events.push(SignalEvent::LinkFailed {
            link,
            torn_down: torn_down.len(),
        });
        self.publish_orphan_audit();
        Ok(FailureImpact::changed(torn_down))
    }

    /// Restores a failed link. Established connections are unaffected
    /// (none can be routed over a down link); new setups may use it
    /// again immediately.
    ///
    /// Returns `true` if the link was actually down.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::Net`] for an unknown link.
    pub fn heal_link(&mut self, link: LinkId) -> Result<bool, SignalError> {
        let changed = self.topology.heal_link(link)?;
        if changed {
            self.metrics.element_healed(false);
            self.events.push(SignalEvent::LinkHealed { link });
            self.publish_orphan_audit();
        }
        Ok(changed)
    }

    /// Marks a node as failed (its attached links become unusable) and
    /// tears down every connection routed through it.
    ///
    /// Idempotent like [`Network::fail_link`].
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::Net`] for an unknown node.
    pub fn fail_node(&mut self, node: NodeId) -> Result<FailureImpact, SignalError> {
        if !self.topology.fail_node(node)? {
            return Ok(FailureImpact::unchanged());
        }
        self.metrics.element_failed(true);
        let torn_down = self.teardown_dead_routes()?;
        self.events.push(SignalEvent::NodeFailed {
            node,
            torn_down: torn_down.len(),
        });
        self.publish_orphan_audit();
        Ok(FailureImpact::changed(torn_down))
    }

    /// Restores a failed node. Returns `true` if it was actually down.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::Net`] for an unknown node.
    pub fn heal_node(&mut self, node: NodeId) -> Result<bool, SignalError> {
        let changed = self.topology.heal_node(node)?;
        if changed {
            self.metrics.element_healed(true);
            self.events.push(SignalEvent::NodeHealed { node });
            self.publish_orphan_audit();
        }
        Ok(changed)
    }

    /// Tears down every established connection whose route (or
    /// multicast tree) crosses a currently-dead element, releasing its
    /// reservations at every hop. Returns the ids torn down.
    fn teardown_dead_routes(&mut self) -> Result<Vec<ConnectionId>, SignalError> {
        let mut dead = Vec::new();
        for info in self.connections.values() {
            if info.route.first_dead_link(&self.topology)?.is_some() {
                dead.push(info.id);
            }
        }
        for &id in &dead {
            let info = self.connections.remove(&id).expect("id just listed");
            // The switch objects survive element failure (the *graph*
            // element is down, not the CAC bookkeeping), so release at
            // every hop: tables stay exact for when the element heals.
            let points = info.route.queueing_points(&self.topology)?;
            for node in release_order(points.into_iter().map(|(node, _)| node)) {
                self.switches
                    .get_mut(&node)
                    .ok_or(SignalError::NoSwitchAt(node))?
                    .release(id)?;
            }
            self.metrics.teardown_failover();
            self.events.push(SignalEvent::Released { connection: id });
        }
        let mut dead_mc = Vec::new();
        for info in self.multicast.values() {
            for &link in info.tree().links() {
                if !self.topology.link_usable(link)? {
                    dead_mc.push(info.id());
                    break;
                }
            }
        }
        for &id in &dead_mc {
            let info = self.multicast.remove(&id).expect("id just listed");
            let points = info.tree().queueing_points(&self.topology)?;
            for node in release_order(points.into_iter().map(|(node, _, _)| node)) {
                self.switches
                    .get_mut(&node)
                    .ok_or(SignalError::NoSwitchAt(node))?
                    .release(id)?;
            }
            self.metrics.teardown_failover();
            self.events.push(SignalEvent::Released { connection: id });
        }
        dead.extend(dead_mc);
        Ok(dead)
    }

    /// Audits the switches for reservations not backed by any
    /// established connection. The invariant maintained by setup
    /// rollback and failure teardown is that this is always empty;
    /// it is exposed (and published as the
    /// `signaling_orphaned_reservations` gauge) so tests and operators
    /// can verify rather than trust.
    pub fn orphaned_reservations(&self) -> Vec<(NodeId, ConnectionId)> {
        let mut orphans = Vec::new();
        for (&node, switch) in &self.switches {
            for (id, _) in switch.connections() {
                if !self.connections.contains_key(&id) && !self.multicast.contains_key(&id) {
                    orphans.push((node, id));
                }
            }
        }
        orphans.dedup();
        orphans
    }

    fn publish_orphan_audit(&self) {
        self.metrics
            .set_orphaned(self.orphaned_reservations().len() as u64);
    }

    /// Re-verifies every established guarantee — unicast *and*
    /// multicast — against the current switch state: each crossed
    /// port's recomputed Algorithm 4.1 bound must fit the advertised
    /// bound, and each terminal's guaranteed delay must fit the
    /// contracted delay bound. Returns the violations found (empty when
    /// every guarantee holds).
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::NoSwitchAt`] or propagated CAC errors for
    /// inconsistent bookkeeping.
    pub fn verify_guarantees(&self) -> Result<Vec<GuaranteeViolation>, SignalError> {
        let mut violations = Vec::new();
        let check_port = |violations: &mut Vec<GuaranteeViolation>,
                          id: ConnectionId,
                          node: NodeId,
                          out_link: LinkId,
                          priority: Priority|
         -> Result<(), SignalError> {
            let switch = self.switch(node)?;
            let advertised = switch.advertised_bound(priority)?;
            let computed = switch.computed_bound(out_link, priority)?;
            if computed > advertised {
                violations.push(GuaranteeViolation {
                    id,
                    at: Some(node),
                    computed,
                    limit: advertised,
                });
            }
            Ok(())
        };
        for info in self.connections.values() {
            for (node, out_link) in info.route.queueing_points(&self.topology)? {
                check_port(
                    &mut violations,
                    info.id,
                    node,
                    out_link,
                    info.request.priority(),
                )?;
            }
            if info.guaranteed_delay > info.request.delay_bound() {
                violations.push(GuaranteeViolation {
                    id: info.id,
                    at: None,
                    computed: info.guaranteed_delay,
                    limit: info.request.delay_bound(),
                });
            }
        }
        for info in self.multicast.values() {
            for (node, out_link, _) in info.tree().queueing_points(&self.topology)? {
                check_port(
                    &mut violations,
                    info.id(),
                    node,
                    out_link,
                    info.request().priority(),
                )?;
            }
            if info.guaranteed_delay() > info.request().delay_bound() {
                violations.push(GuaranteeViolation {
                    id: info.id(),
                    at: None,
                    computed: info.guaranteed_delay(),
                    limit: info.request().delay_bound(),
                });
            }
        }
        Ok(violations)
    }

    /// ATM-style crankback setup: route `from → to` on the shortest
    /// healthy route; when a hop rejects (or the route dies under the
    /// attempt), exclude the offending link and retry on the next
    /// alternate, up to `policy.max_retries` retries with deterministic
    /// exponential backoff *accounting* (no wall-clock sleeping — the
    /// accrued backoff is reported in cell times so callers and tests
    /// stay deterministic).
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::Net`] when no healthy route exists at the
    /// first attempt, and propagates API-misuse errors from
    /// [`Network::setup`]. CAC rejections are reported via
    /// [`CrankbackOutcome`], not as errors.
    pub fn setup_crankback(
        &mut self,
        from: NodeId,
        to: NodeId,
        request: SetupRequest,
        policy: CrankbackPolicy,
    ) -> Result<CrankbackOutcome, SignalError> {
        let mut excluded: Vec<LinkId> = Vec::new();
        let mut attempts: Vec<CrankbackAttempt> = Vec::new();
        let mut backoff_cells: u64 = 0;
        for attempt in 0..=policy.max_retries {
            let route = match self
                .topology
                .shortest_route_avoiding(from, to, &excluded, &[])
            {
                Ok(route) => route,
                Err(e) if attempts.is_empty() => return Err(SignalError::Net(e)),
                Err(_) => break, // alternates exhausted; report last rejection
            };
            self.metrics.crankback_attempt();
            match self.setup(&route, request)? {
                SetupOutcome::Connected(info) => {
                    self.metrics.crankback_finished(true, backoff_cells);
                    return Ok(CrankbackOutcome {
                        outcome: SetupOutcome::Connected(info),
                        attempts,
                        backoff_cells,
                    });
                }
                SetupOutcome::Rejected(rejection) => {
                    let culprit = match &rejection {
                        SetupRejection::Switch { reason, .. } => rejected_link(reason),
                        SetupRejection::RouteDown { link } => Some(*link),
                        // A shorter route already misses the QoS gate;
                        // longer alternates only add advertised delay.
                        _ => None,
                    };
                    attempts.push(CrankbackAttempt {
                        route,
                        rejection: rejection.clone(),
                    });
                    let Some(link) = culprit else { break };
                    if attempt < policy.max_retries {
                        excluded.push(link);
                        let step = policy
                            .backoff_base_cells
                            .checked_shl(attempt as u32)
                            .unwrap_or(u64::MAX);
                        backoff_cells = backoff_cells.saturating_add(step);
                    }
                }
            }
        }
        self.metrics.crankback_finished(false, backoff_cells);
        let last = attempts
            .last()
            .map(|a| a.rejection.clone())
            .expect("loop ran at least once before exhausting");
        Ok(CrankbackOutcome {
            outcome: SetupOutcome::Rejected(last),
            attempts,
            backoff_cells,
        })
    }
}

/// The serial [`HopDriver`]: admits each priced leg against the live
/// switch map, recording the signaling trace and hop metrics as it
/// goes. The concurrent `rtcac-engine` drives the identical core walk
/// against its locked shards instead.
struct SerialDriver<'a> {
    id: ConnectionId,
    switches: &'a mut BTreeMap<NodeId, Switch>,
    events: &'a mut Vec<SignalEvent>,
    metrics: &'a NetworkMetrics,
}

impl HopDriver for SerialDriver<'_> {
    type Error = SignalError;

    fn admit(
        &mut self,
        _index: usize,
        hop: &PlannedHop,
        request: ConnectionRequest,
    ) -> Result<AdmissionDecision, SignalError> {
        let switch = self
            .switches
            .get_mut(&hop.node)
            .ok_or(SignalError::NoSwitchAt(hop.node))?;
        let decision = switch.admit(self.id, request)?;
        match decision {
            AdmissionDecision::Admitted(_) => {
                self.metrics.hop_admitted(hop.cdv);
                self.events.push(SignalEvent::SetupForwarded {
                    connection: self.id,
                    switch: hop.node,
                    out_link: hop.out_link,
                    cdv: hop.cdv,
                });
            }
            AdmissionDecision::Rejected(_) => self.metrics.hop_rejected(hop.cdv),
        }
        Ok(decision)
    }

    fn rollback(&mut self, node: NodeId) -> Result<(), SignalError> {
        self.switches
            .get_mut(&node)
            .ok_or(SignalError::NoSwitchAt(node))?
            .release(self.id)?;
        Ok(())
    }
}

/// The outgoing (or incoming) link a CAC rejection points at — the
/// element a crankback retry should route around.
fn rejected_link(reason: &rtcac_cac::RejectReason) -> Option<LinkId> {
    use rtcac_cac::RejectReason;
    match reason {
        RejectReason::BoundExceeded { out_link, .. } | RejectReason::Overload { out_link, .. } => {
            Some(*out_link)
        }
        RejectReason::IncomingOverload { in_link, .. } => Some(*in_link),
        _ => None,
    }
}

/// Retry budget and deterministic backoff accounting for
/// [`Network::setup_crankback`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrankbackPolicy {
    /// Retries after the first attempt (so `max_retries + 1` route
    /// attempts in total).
    pub max_retries: usize,
    /// Backoff accrued before retry `k` is `backoff_base_cells << k`
    /// (cell times; purely accounting, nothing sleeps).
    pub backoff_base_cells: u64,
}

impl Default for CrankbackPolicy {
    fn default() -> CrankbackPolicy {
        CrankbackPolicy {
            max_retries: 3,
            backoff_base_cells: 64,
        }
    }
}

/// One failed route attempt inside a crankback setup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrankbackAttempt {
    /// The route that was tried.
    pub route: Route,
    /// Why it was refused.
    pub rejection: SetupRejection,
}

/// The result of [`Network::setup_crankback`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrankbackOutcome {
    /// The final outcome: `Connected` on the successful attempt, or
    /// the last rejection once alternates/retries were exhausted.
    pub outcome: SetupOutcome,
    /// The failed attempts that preceded it, in order.
    pub attempts: Vec<CrankbackAttempt>,
    /// Total deterministic backoff accounted across retries, in cell
    /// times.
    pub backoff_cells: u64,
}

impl CrankbackOutcome {
    /// Whether the setup eventually connected.
    pub fn is_connected(&self) -> bool {
        self.outcome.is_connected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_bitstream::{CbrParams, Rate, VbrParams};
    use rtcac_net::builders;
    use rtcac_rational::ratio;

    fn cbr(num: i128, den: i128) -> TrafficContract {
        TrafficContract::cbr(CbrParams::new(Rate::new(ratio(num, den))).unwrap())
    }

    fn line_net(switches: usize, bound: i128) -> (Network, Route) {
        let (topology, src, sw, dst) = builders::line(switches).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(bound)).unwrap();
        let route = Route::from_nodes(
            &topology,
            std::iter::once(src)
                .chain(sw.iter().copied())
                .chain(std::iter::once(dst)),
        )
        .unwrap();
        (Network::new(topology, config, CdvPolicy::Hard), route)
    }

    #[test]
    fn setup_and_teardown_roundtrip() {
        let (mut net, route) = line_net(3, 32);
        let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(200));
        let outcome = net.setup(&route, req).unwrap();
        let info = match outcome {
            SetupOutcome::Connected(info) => info,
            other => panic!("expected connection, got {other:?}"),
        };
        assert_eq!(info.guaranteed_delay(), Time::from_integer(96));
        assert_eq!(info.per_hop_bounds().len(), 3);
        assert_eq!(net.connections().count(), 1);
        // All three switches hold the reservation.
        for (node, _) in info.route().queueing_points(net.topology()).unwrap() {
            assert_eq!(net.switch(node).unwrap().connection_count(), 1);
        }
        net.teardown(info.id()).unwrap();
        assert_eq!(net.connections().count(), 0);
        for (node, _) in route.queueing_points(net.topology()).unwrap() {
            assert_eq!(net.switch(node).unwrap().connection_count(), 0);
        }
    }

    #[test]
    fn qos_gate_rejects_impossible_bounds() {
        let (mut net, route) = line_net(3, 32);
        let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(50));
        match net.setup(&route, req).unwrap() {
            SetupOutcome::Rejected(SetupRejection::QosUnsatisfiable {
                requested,
                achievable,
            }) => {
                assert_eq!(requested, Time::from_integer(50));
                assert_eq!(achievable, Time::from_integer(96));
            }
            other => panic!("expected qos rejection, got {other:?}"),
        }
        assert_eq!(net.connections().count(), 0);
    }

    #[test]
    fn rejection_rolls_back_upstream_reservations() {
        let (mut net, route) = line_net(2, 1_000);
        // Saturate the line with big CBR connections until one is
        // rejected mid-route; afterwards no switch may hold a partial
        // reservation.
        let mut rejected = false;
        for _ in 0..5 {
            let req = SetupRequest::new(cbr(2, 5), Priority::HIGHEST, Time::from_integer(100_000));
            match net.setup(&route, req).unwrap() {
                SetupOutcome::Connected(_) => {}
                SetupOutcome::Rejected(SetupRejection::Switch { .. }) => {
                    rejected = true;
                    break;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(rejected, "link must eventually saturate");
        // Connection counts must be equal on every switch (no orphans).
        let counts: Vec<usize> = route
            .queueing_points(net.topology())
            .unwrap()
            .iter()
            .map(|&(node, _)| net.switch(node).unwrap().connection_count())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn events_trace_protocol() {
        let (mut net, route) = line_net(2, 32);
        let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(100));
        let outcome = net.setup(&route, req).unwrap();
        assert!(outcome.is_connected());
        let kinds: Vec<&'static str> = net
            .events()
            .iter()
            .map(|e| match e {
                SignalEvent::SetupForwarded { .. } => "setup",
                SignalEvent::Rejected { .. } => "reject",
                SignalEvent::Connected { .. } => "connected",
                SignalEvent::Released { .. } => "released",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["setup", "setup", "connected"]);
    }

    #[test]
    fn cdv_grows_along_route() {
        let (mut net, route) = line_net(3, 32);
        let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(200));
        net.setup(&route, req).unwrap();
        let cdvs: Vec<Time> = net
            .events()
            .iter()
            .filter_map(|e| match e {
                SignalEvent::SetupForwarded { cdv, .. } => Some(*cdv),
                _ => None,
            })
            .collect();
        assert_eq!(
            cdvs,
            vec![Time::ZERO, Time::from_integer(32), Time::from_integer(64)]
        );
    }

    #[test]
    fn soft_policy_accumulates_less_cdv() {
        let (topology, src, sw, dst) = builders::line(4).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(32)).unwrap();
        let route = Route::from_nodes(
            &topology,
            std::iter::once(src)
                .chain(sw.iter().copied())
                .chain(std::iter::once(dst)),
        )
        .unwrap();
        let mut net = Network::new(topology, config, CdvPolicy::SoftSqrt);
        let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(500));
        net.setup(&route, req).unwrap();
        let cdvs: Vec<Time> = net
            .events()
            .iter()
            .filter_map(|e| match e {
                SignalEvent::SetupForwarded { cdv, .. } => Some(*cdv),
                _ => None,
            })
            .collect();
        // Last hop: hard would be 96; soft is sqrt(3)*32 ~ 55.4.
        assert!(cdvs[3] < Time::from_integer(60));
        assert!(cdvs[3] > Time::from_integer(55));
    }

    #[test]
    fn duplicate_and_unknown_ids() {
        let (mut net, route) = line_net(2, 32);
        let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(100));
        let id = ConnectionId::new(77);
        net.setup_with_id(id, &route, req).unwrap();
        assert!(matches!(
            net.setup_with_id(id, &route, req),
            Err(SignalError::DuplicateConnection(_))
        ));
        assert!(matches!(
            net.teardown(ConnectionId::new(99)),
            Err(SignalError::UnknownConnection(_))
        ));
    }

    #[test]
    fn achievable_delay_reports_route_total() {
        let (net, route) = line_net(3, 32);
        assert_eq!(
            net.achievable_delay(&route, Priority::HIGHEST).unwrap(),
            Time::from_integer(96)
        );
    }

    #[test]
    fn configure_switch_rules() {
        let (mut net, route) = line_net(2, 32);
        let node = route.queueing_points(net.topology()).unwrap()[0].0;
        let deeper = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
        net.configure_switch(node, deeper.clone()).unwrap();
        assert_eq!(
            net.switch(node)
                .unwrap()
                .advertised_bound(Priority::HIGHEST)
                .unwrap(),
            Time::from_integer(64)
        );
        // Established connections forbid reconfiguration.
        let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(200));
        net.setup(&route, req).unwrap();
        assert!(net.configure_switch(node, deeper).is_err());
        // Unknown node.
        assert!(matches!(
            net.configure_switch(
                NodeId::external(999),
                SwitchConfig::uniform(1, Time::ONE).unwrap()
            ),
            Err(SignalError::NoSwitchAt(_))
        ));
    }

    #[test]
    fn explicit_registry_counts_hops_and_outcomes() {
        use std::sync::Arc;
        let registry = Arc::new(rtcac_obs::Registry::new());
        let (mut net, route) = line_net(3, 32);
        net.set_registry(&registry);
        // One connected setup (3 hops), one QoS rejection, one teardown.
        let ok = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(200));
        let outcome = net.setup(&route, ok).unwrap();
        let id = match outcome {
            SetupOutcome::Connected(info) => info.id(),
            other => panic!("expected connection, got {other:?}"),
        };
        let qos = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(10));
        assert!(!net.setup(&route, qos).unwrap().is_connected());
        net.teardown(id).unwrap();

        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("signaling_hop_checks_total"), 3);
        assert_eq!(snap.counter_total("signaling_setups_total"), 2);
        assert_eq!(snap.counter_total("signaling_teardowns_total"), 1);
        // Hop CDVs were 0, 32, 64 cell times: three observations, the
        // largest being 64.
        let cdv = snap.histogram("signaling_cdv_cells").unwrap();
        assert_eq!(cdv.count, 3);
        assert_eq!(cdv.max, 64);
    }

    /// a → s1 → {s2 | s3} → s4 → d with two equal-cost middle paths.
    fn diamond_net(bound: i128) -> (Network, [NodeId; 6]) {
        let mut t = Topology::new();
        let a = t.add_end_system("a");
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        let s3 = t.add_switch("s3");
        let s4 = t.add_switch("s4");
        let d = t.add_end_system("d");
        t.add_link(a, s1).unwrap();
        t.add_link(s1, s2).unwrap();
        t.add_link(s1, s3).unwrap();
        t.add_link(s2, s4).unwrap();
        t.add_link(s3, s4).unwrap();
        t.add_link(s4, d).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(bound)).unwrap();
        (
            Network::new(t, config, CdvPolicy::Hard),
            [a, s1, s2, s3, s4, d],
        )
    }

    #[test]
    fn link_failure_tears_down_and_leaves_no_orphans() {
        let (mut net, route) = line_net(3, 32);
        let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(200));
        let id = match net.setup(&route, req).unwrap() {
            SetupOutcome::Connected(info) => info.id(),
            other => panic!("expected connection, got {other:?}"),
        };
        let mid_link = route.links()[1];
        let impact = net.fail_link(mid_link).unwrap();
        assert!(impact.is_changed());
        assert_eq!(impact.torn_down(), &[id]);
        assert_eq!(net.connections().count(), 0);
        for (node, _) in route.queueing_points(net.topology()).unwrap() {
            assert_eq!(net.switch(node).unwrap().connection_count(), 0);
        }
        assert!(net.orphaned_reservations().is_empty());
        // Failing it again is a no-op.
        assert!(!net.fail_link(mid_link).unwrap().is_changed());
        // Setup over the dead route is refused without reserving.
        match net.setup(&route, req).unwrap() {
            SetupOutcome::Rejected(SetupRejection::RouteDown { link }) => {
                assert_eq!(link, mid_link);
            }
            other => panic!("expected route-down rejection, got {other:?}"),
        }
        // After healing, setup works again.
        assert!(net.heal_link(mid_link).unwrap());
        assert!(!net.heal_link(mid_link).unwrap());
        assert!(net.setup(&route, req).unwrap().is_connected());
        assert!(net.orphaned_reservations().is_empty());
    }

    #[test]
    fn node_failure_tears_down_routed_connections() {
        let (mut net, nodes) = diamond_net(32);
        let [a, s1, s2, _, s4, d] = nodes;
        let route = Route::from_nodes(net.topology(), [a, s1, s2, s4, d]).unwrap();
        let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(200));
        assert!(net.setup(&route, req).unwrap().is_connected());
        let impact = net.fail_node(s2).unwrap();
        assert!(impact.is_changed());
        assert_eq!(impact.torn_down().len(), 1);
        assert_eq!(net.connections().count(), 0);
        assert!(net.orphaned_reservations().is_empty());
        // The other middle path still works.
        assert!(net
            .setup_crankback(a, d, req, CrankbackPolicy::default())
            .unwrap()
            .is_connected());
        assert!(net.heal_node(s2).unwrap());
    }

    #[test]
    fn crankback_reroutes_around_failed_link() {
        let (mut net, nodes) = diamond_net(32);
        let [a, s1, s2, s3, _, d] = nodes;
        let via_s2 = net.topology().find_link(s1, s2).unwrap();
        net.fail_link(via_s2).unwrap();
        let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(200));
        let result = net
            .setup_crankback(a, d, req, CrankbackPolicy::default())
            .unwrap();
        assert!(result.is_connected(), "{:?}", result.outcome);
        let info = match &result.outcome {
            SetupOutcome::Connected(info) => info,
            other => panic!("expected connection, got {other:?}"),
        };
        // The established route goes via s3, never via the dead link.
        let route_nodes = info.route().nodes(net.topology()).unwrap();
        assert!(route_nodes.contains(&s3));
        assert!(!info.route().links().contains(&via_s2));
        // The healthy search already avoids the dead link, so the first
        // attempt connects: no failed attempts, no backoff accrued.
        assert!(result.attempts.is_empty());
        assert_eq!(result.backoff_cells, 0);
    }

    /// The diamond plus a second terminal pair `b → s1 … s4 → e`, so a
    /// background connection can saturate the s2 middle path without
    /// touching `a`'s access link or `d`'s egress link.
    fn loaded_diamond() -> (Network, [NodeId; 6]) {
        let mut t = Topology::new();
        let a = t.add_end_system("a");
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        let s3 = t.add_switch("s3");
        let s4 = t.add_switch("s4");
        let d = t.add_end_system("d");
        let b = t.add_end_system("b");
        let e = t.add_end_system("e");
        t.add_link(a, s1).unwrap();
        t.add_link(s1, s2).unwrap();
        t.add_link(s1, s3).unwrap();
        t.add_link(s2, s4).unwrap();
        t.add_link(s3, s4).unwrap();
        t.add_link(s4, d).unwrap();
        t.add_link(b, s1).unwrap();
        t.add_link(s4, e).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(1_000)).unwrap();
        let mut net = Network::new(t, config, CdvPolicy::Hard);
        // The hog fills s1→s2 (and s2→s4) at 4/5 of capacity.
        let hog_route = Route::from_nodes(net.topology(), [b, s1, s2, s4, e]).unwrap();
        let hog = SetupRequest::new(cbr(4, 5), Priority::HIGHEST, Time::from_integer(100_000));
        assert!(net.setup(&hog_route, hog).unwrap().is_connected());
        (net, [a, s1, s2, s3, s4, d])
    }

    #[test]
    fn crankback_retries_after_capacity_rejection() {
        let (mut net, nodes) = loaded_diamond();
        let [a, _, _, s3, _, d] = nodes;
        // 2/5 more does not fit through s1→s2 (4/5 + 2/5 > 1) but fits
        // via s3; crankback must find it.
        let req = SetupRequest::new(cbr(2, 5), Priority::HIGHEST, Time::from_integer(100_000));
        let result = net
            .setup_crankback(a, d, req, CrankbackPolicy::default())
            .unwrap();
        assert!(result.is_connected(), "{:?}", result.outcome);
        assert_eq!(result.attempts.len(), 1);
        assert!(result.backoff_cells > 0);
        let info = match &result.outcome {
            SetupOutcome::Connected(info) => info,
            other => panic!("expected connection, got {other:?}"),
        };
        assert!(info.route().nodes(net.topology()).unwrap().contains(&s3));
        assert!(net.orphaned_reservations().is_empty());
        // With no retry budget, the same load pattern is refused.
        let (mut net2, _) = loaded_diamond();
        let no_retry = CrankbackPolicy {
            max_retries: 0,
            backoff_base_cells: 64,
        };
        let result = net2.setup_crankback(a, d, req, no_retry).unwrap();
        assert!(!result.is_connected());
        assert_eq!(result.attempts.len(), 1);
        assert!(net2.orphaned_reservations().is_empty());
    }

    #[test]
    fn unknown_and_double_teardown_agree() {
        use std::sync::Arc;
        let registry = Arc::new(rtcac_obs::Registry::new());
        let (mut net, route) = line_net(2, 32);
        net.set_registry(&registry);
        let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(100));
        let id = match net.setup(&route, req).unwrap() {
            SetupOutcome::Connected(info) => info.id(),
            other => panic!("expected connection, got {other:?}"),
        };
        // Teardown of a never-established id and a double teardown
        // must return the *same* typed variant, and both are counted.
        let unknown = net.teardown(ConnectionId::new(4242));
        assert!(
            matches!(unknown, Err(SignalError::UnknownConnection(u)) if u == ConnectionId::new(4242))
        );
        net.teardown(id).unwrap();
        let doubled = net.teardown(id);
        assert!(matches!(doubled, Err(SignalError::UnknownConnection(u)) if u == id));
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("signaling_teardowns_total"), 3);
        assert_eq!(
            snap.counter_with("signaling_teardowns_total", &[("outcome", "unknown")]),
            Some(2)
        );
        assert_eq!(
            snap.counter_with("signaling_teardowns_total", &[("outcome", "released")]),
            Some(1)
        );
    }

    #[test]
    fn failure_metrics_and_events_recorded() {
        use std::sync::Arc;
        let registry = Arc::new(rtcac_obs::Registry::new());
        let (mut net, route) = line_net(2, 32);
        net.set_registry(&registry);
        let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(100));
        assert!(net.setup(&route, req).unwrap().is_connected());
        let link = route.links()[0];
        net.fail_link(link).unwrap();
        net.heal_link(link).unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_with("signaling_element_failures_total", &[("element", "link")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_with("signaling_element_heals_total", &[("element", "link")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_with("signaling_teardowns_total", &[("outcome", "failover")]),
            Some(1)
        );
        assert_eq!(snap.gauge("signaling_orphaned_reservations"), Some(0));
        assert!(net
            .events()
            .iter()
            .any(|e| matches!(e, SignalEvent::LinkFailed { torn_down: 1, .. })));
        assert!(net
            .events()
            .iter()
            .any(|e| matches!(e, SignalEvent::LinkHealed { .. })));
    }

    #[test]
    fn vbr_setup_over_line() {
        let (mut net, route) = line_net(3, 64);
        let contract = TrafficContract::vbr(
            VbrParams::new(Rate::new(ratio(1, 2)), Rate::new(ratio(1, 10)), 12).unwrap(),
        );
        let req = SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(400));
        assert!(net.setup(&route, req).unwrap().is_connected());
    }
}
