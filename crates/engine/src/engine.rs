//! The sharded admission engine and its two-phase setup protocol.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use rtcac_bitstream::Time;
use rtcac_cac::{
    AdmissionDecision, AdmissionReport, AdmissionVerdict, ConnectionId, ConnectionRequest,
    FailureImpact, GuaranteeViolation, HopDriver, HopVerdict, PlannedHop, Priority,
    ReservationPlan, ReserveOutcome, RoutePlan, Switch, SwitchConfig,
};
use rtcac_net::{LinkId, MulticastTree, NodeId, Route, Topology};
use rtcac_obs::{Registry, TraceCtx, Tracer};
use rtcac_signaling::{CdvPolicy, SetupRejection, SetupRequest};

use crate::metrics::EngineMetrics;
use crate::shard::Shard;
use crate::state::{ConnectionState, EngineState, HealthOverlayState, SwitchState};
use crate::stats::Counters;
use crate::{EngineError, EngineStats};

/// The outcome of one engine setup: the concurrent analogue of
/// [`rtcac_signaling::SetupOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineOutcome {
    /// The connection is committed on every hop of its route.
    Admitted {
        /// The established connection's id.
        id: ConnectionId,
        /// Guaranteed end-to-end queueing delay: the sum of the
        /// advertised per-hop bounds (fixed regardless of load).
        guaranteed_delay: Time,
    },
    /// The setup was refused; any reserved hops were rolled back
    /// before any lock was dropped.
    Rejected {
        /// The id the setup would have used.
        id: ConnectionId,
        /// Why, and how many hops had to be rolled back.
        rejection: SetupRejection,
    },
    /// The submitted route was (or went) dead, and the connection was
    /// committed on an alternate route instead — the engine's crankback.
    Rerouted {
        /// The established connection's id.
        id: ConnectionId,
        /// Guaranteed end-to-end queueing delay on the alternate route.
        guaranteed_delay: Time,
        /// The route the connection actually follows.
        route: Route,
        /// How many alternate routes were tried before this one stuck.
        attempts: usize,
    },
}

impl EngineOutcome {
    /// Whether the setup was committed on its *submitted* route.
    pub fn is_admitted(&self) -> bool {
        matches!(self, EngineOutcome::Admitted { .. })
    }

    /// Whether the connection is established — on the submitted route
    /// or a crankback alternate.
    pub fn is_established(&self) -> bool {
        matches!(
            self,
            EngineOutcome::Admitted { .. } | EngineOutcome::Rerouted { .. }
        )
    }
}

/// Default lock-health watchdog threshold: a single setup's full-route
/// shard-lock hold is normally microseconds, so a 100 ms hold signals
/// pathology (a stuck commit, runaway pricing under the locks) rather
/// than load. Override per engine with
/// [`AdmissionEngine::set_lock_hold_threshold_ns`].
pub const DEFAULT_LOCK_HOLD_THRESHOLD_NS: u64 = 100_000_000;

/// Registry entry for an established connection (unicast or tree).
#[derive(Debug, Clone)]
struct Established {
    shape: EstablishedShape,
    points: Vec<(NodeId, LinkId)>,
    priority: Priority,
    delay_bound: Time,
    guaranteed_delay: Time,
    /// Guaranteed end-to-end delay per terminal: one entry (the
    /// destination) for unicast, one per leaf for multicast.
    per_leaf: Vec<(NodeId, Time)>,
}

/// The transport an established connection runs over.
#[derive(Debug, Clone)]
enum EstablishedShape {
    Unicast(Route),
    Multicast(MulticastTree),
}

impl EstablishedShape {
    /// The links the connection occupies.
    fn links(&self) -> &[LinkId] {
        match self {
            EstablishedShape::Unicast(route) => route.links(),
            EstablishedShape::Multicast(tree) => tree.links(),
        }
    }
}

/// Engine-side element health: the pristine [`Topology`] stays the
/// immutable route graph, and failures live in this interior-mutable
/// overlay so `&self` admission paths can observe them. The epoch
/// counts health *changes*; a reserve phase records it before touching
/// shards and re-validates under the registry lock before commit, which
/// is what makes a failure between reserve and commit detectable.
#[derive(Debug, Default)]
struct HealthState {
    down_links: BTreeSet<LinkId>,
    down_nodes: BTreeSet<NodeId>,
    epoch: u64,
}

impl HealthState {
    fn all_up(&self) -> bool {
        self.down_links.is_empty() && self.down_nodes.is_empty()
    }
}

/// Internal result of one admission attempt on one concrete route.
enum AttemptResult {
    Committed { guaranteed_delay: Time },
    Refused { rejection: SetupRejection },
    RouteDead { link: LinkId },
}

/// A concurrent, sharded connection admission engine.
///
/// Wraps one [`Switch`](rtcac_cac::Switch) per topology switch node in
/// a [`Shard`] (the switch behind one mutex) and serves setups with a
/// deterministic **two-phase protocol**:
///
/// 1. **Reserve** — the worker locks every shard on the route in
///    ascending [`NodeId`] order (a global lock order, so concurrent
///    setups cannot deadlock), then admits hop by hop in *route* order
///    with the CDV accumulated from the advertised upstream bounds —
///    exactly the request stream [`rtcac_signaling::Network::setup`]
///    would build.
/// 2. **Commit / abort** — if every hop admitted, the connection is
///    recorded and all locks released; if any hop refused, the already
///    reserved hops are rolled back *before* any lock is dropped, so
///    no other setup ever observes a half-reserved route.
///
/// Because each setup holds all its shard locks for the full
/// check-and-commit, the concurrent execution is serializable: the
/// committed state always equals *some* serial order of the same
/// setups through [`rtcac_signaling::Network`].
/// The anomaly-hook signature: `(reason, detail)`. See
/// [`AdmissionEngine::set_anomaly_hook`].
pub type AnomalyHook = std::sync::Arc<dyn Fn(&'static str, String) + Send + Sync>;

/// Mutex-guarded hook slot with an opaque `Debug` (closures have
/// none).
#[derive(Default)]
struct AnomalyHookCell(Mutex<Option<AnomalyHook>>);

impl std::fmt::Debug for AnomalyHookCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let installed = self.0.lock().map(|hook| hook.is_some()).unwrap_or_default();
        f.debug_tuple("AnomalyHookCell").field(&installed).finish()
    }
}

#[derive(Debug)]
pub struct AdmissionEngine {
    topology: Topology,
    policy: CdvPolicy,
    configs: BTreeMap<NodeId, SwitchConfig>,
    shards: BTreeMap<NodeId, Shard>,
    connections: Mutex<BTreeMap<ConnectionId, Established>>,
    health: Mutex<HealthState>,
    draining: AtomicBool,
    reroute_budget: AtomicU64,
    next_id: AtomicU64,
    counters: Counters,
    metrics: EngineMetrics,
    tracer: Tracer,
    capture_reports: AtomicBool,
    reports: Mutex<BTreeMap<ConnectionId, AdmissionReport>>,
    /// Per-link CDV inflation applied at pricing time (impairment
    /// overlay): a degraded link adds jitter to every plan crossing it.
    /// Not part of the exported snapshot state — impairments are an
    /// environment property, re-applied by whoever drives them.
    cdv_inflation: Mutex<BTreeMap<LinkId, Time>>,
    /// Lock-health watchdog threshold in nanoseconds: shard-lock holds
    /// longer than this bump `engine_lock_hold_long_total`.
    lock_hold_threshold_ns: AtomicU64,
    /// Anomaly hook (flight recorder): called with `(reason, detail)`
    /// on watchdog/audit findings. Behind a mutex consulted only on
    /// those rare paths — never on the admission hot path.
    anomaly_hook: AnomalyHookCell,
    /// Test-only trap: a link to mark down after the reserve phase of
    /// the next setup, before the commit-time health re-check — lets
    /// tests inject a failure into the reserve→commit window
    /// deterministically.
    #[cfg(test)]
    pub(crate) test_fail_after_reserve: Mutex<Option<LinkId>>,
}

impl AdmissionEngine {
    /// Creates an engine giving every switch node of the topology the
    /// same configuration (the analogue of
    /// [`rtcac_signaling::Network::new`]). Metrics go to the installed
    /// [`rtcac_obs`] global registry, or nowhere (at near-zero cost)
    /// when none is installed; use
    /// [`AdmissionEngine::with_registry`] for an explicit registry.
    pub fn new(topology: Topology, config: SwitchConfig, policy: CdvPolicy) -> AdmissionEngine {
        let metrics = EngineMetrics::from_global(topology.switches().map(|n| n.id()));
        AdmissionEngine::build(topology, config, policy, metrics)
    }

    /// Creates an engine whose metrics land in `registry` regardless of
    /// the global default — the form tests and benches use to observe
    /// in isolation.
    pub fn with_registry(
        topology: Topology,
        config: SwitchConfig,
        policy: CdvPolicy,
        registry: Arc<Registry>,
    ) -> AdmissionEngine {
        let metrics = EngineMetrics::from_registry(registry, topology.switches().map(|n| n.id()));
        AdmissionEngine::build(topology, config, policy, metrics)
    }

    fn build(
        topology: Topology,
        config: SwitchConfig,
        policy: CdvPolicy,
        metrics: EngineMetrics,
    ) -> AdmissionEngine {
        let configs: BTreeMap<NodeId, SwitchConfig> = topology
            .switches()
            .map(|n| (n.id(), config.clone()))
            .collect();
        let shards = configs
            .iter()
            .map(|(&node, cfg)| (node, Shard::new(cfg.clone())))
            .collect();
        AdmissionEngine {
            topology,
            policy,
            configs,
            shards,
            connections: Mutex::new(BTreeMap::new()),
            health: Mutex::new(HealthState::default()),
            draining: AtomicBool::new(false),
            reroute_budget: AtomicU64::new(2),
            next_id: AtomicU64::new(1),
            counters: Counters::default(),
            metrics,
            tracer: Tracer::noop(),
            capture_reports: AtomicBool::new(false),
            reports: Mutex::new(BTreeMap::new()),
            cdv_inflation: Mutex::new(BTreeMap::new()),
            lock_hold_threshold_ns: AtomicU64::new(DEFAULT_LOCK_HOLD_THRESHOLD_NS),
            anomaly_hook: AnomalyHookCell::default(),
            #[cfg(test)]
            test_fail_after_reserve: Mutex::new(None),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Installs a [`Tracer`]: subsequent setups emit causal spans
    /// (queue wait, attempts, price/reserve/commit, per-hop events)
    /// into its ring. The default noop tracer costs one branch per
    /// instrumentation site. Exclusive access, so no setups are in
    /// flight while the subscriber changes.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer (noop unless
    /// [`AdmissionEngine::set_tracer`] ran).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Turns decision-provenance capture on or off. While on, every
    /// setup that reaches pricing stores its [`AdmissionReport`]
    /// keyed by connection id (rejections included; a crankback's
    /// final attempt wins). Off by default — under sustained load the
    /// map would grow without bound.
    pub fn set_capture_reports(&self, capture: bool) {
        self.capture_reports.store(capture, Ordering::Relaxed);
    }

    /// The captured decision provenance of a setup, when
    /// [`AdmissionEngine::set_capture_reports`] was on while it ran.
    pub fn admission_report(&self, id: ConnectionId) -> Option<AdmissionReport> {
        let reports = match self.reports.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        reports.get(&id).cloned()
    }

    /// Opens an admission trace tagged with the connection id and the
    /// current fault epoch (free on a noop tracer). A
    /// [`ServicePool`](crate::ServicePool) calls this before it waits
    /// for a permit, so its trace also covers the queue wait.
    /// Unsampled contexts skip the tags — a rejection re-attaches them
    /// in [`publish_report`](Self::publish_report) — so the sampled-out
    /// hot path never formats strings or touches the health lock.
    pub fn start_trace(&self, name: &'static str, id: ConnectionId) -> TraceCtx {
        let mut ctx = self.tracer.start(name);
        if ctx.is_sampled() {
            ctx.attr("conn", id.to_string());
            ctx.attr("fault_epoch", self.health_epoch().to_string());
        }
        ctx
    }

    /// Whether an outcome should force its trace into the ring (the
    /// always-sample-on-reject rule).
    pub fn outcome_rejects(outcome: &Result<EngineOutcome, EngineError>) -> bool {
        !matches!(
            outcome,
            Ok(EngineOutcome::Admitted { .. } | EngineOutcome::Rerouted { .. })
        )
    }

    /// Publishes a finished attempt's provenance: rejection summaries
    /// go to the trace as `reject.provenance` events, and the full
    /// report is stored when capture is on.
    fn publish_report(&self, id: ConnectionId, report: AdmissionReport, ctx: &mut TraceCtx) {
        if ctx.can_flush() && !report.is_admitted() {
            if !ctx.is_sampled() {
                // The trace skipped its tags at start (sampled-out hot
                // path) but the rejection is about to force a flush.
                ctx.attr("conn", id.to_string());
                ctx.attr("fault_epoch", self.health_epoch().to_string());
            }
            ctx.event("reject.provenance", report.summary());
        }
        if self.capture_reports.load(Ordering::Relaxed) {
            let mut reports = match self.reports.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            reports.insert(id, report);
        }
    }

    /// The CDV accumulation policy in force.
    pub fn policy(&self) -> CdvPolicy {
        self.policy
    }

    /// Sets the CDV inflation of one link: `extra` cell times of jitter
    /// that a degraded (but still up) link adds to every plan priced
    /// across it, tightening subsequent admission decisions — the
    /// engine-side analogue of
    /// [`rtcac_signaling::Network::set_link_cdv_inflation`].
    /// `Time::ZERO` restores the link. Established connections are
    /// unaffected: inflation changes pricing, not reservations, so the
    /// guarantee audit stays valid across degrade/restore edges.
    ///
    /// Inflation is an environment property, not admission state — it
    /// is deliberately absent from [`AdmissionEngine::export_state`],
    /// and must be re-applied after a warm restart by whoever drives
    /// the impairment schedule.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Net`] for a foreign link id, or
    /// [`EngineError::Cac`] for a negative inflation.
    pub fn set_link_cdv_inflation(&self, link: LinkId, extra: Time) -> Result<(), EngineError> {
        self.topology.link(link)?;
        if extra < Time::ZERO {
            return Err(EngineError::Cac(rtcac_cac::CacError::BadConfig(
                "CDV inflation must be non-negative",
            )));
        }
        let mut inflation = self.lock_cdv_inflation();
        if extra == Time::ZERO {
            inflation.remove(&link);
        } else {
            inflation.insert(link, extra);
        }
        Ok(())
    }

    /// The CDV inflation currently applied to a link (zero by default).
    pub fn link_cdv_inflation(&self, link: LinkId) -> Time {
        self.lock_cdv_inflation()
            .get(&link)
            .copied()
            .unwrap_or(Time::ZERO)
    }

    /// Sets the lock-health watchdog threshold: shard-lock holds longer
    /// than `ns` nanoseconds bump `engine_lock_hold_long_total` (every
    /// hold is recorded in the `engine_lock_hold_ns` histogram
    /// regardless). Defaults to [`DEFAULT_LOCK_HOLD_THRESHOLD_NS`].
    pub fn set_lock_hold_threshold_ns(&self, ns: u64) {
        self.lock_hold_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Installs the anomaly hook, called with `(reason, detail)` when
    /// the lock-hold watchdog trips, the orphan audit finds leaked
    /// reservations, or the guarantee audit finds violations. The
    /// flight recorder is the intended listener; the hook must not call
    /// back into the engine.
    pub fn set_anomaly_hook(&self, hook: AnomalyHook) {
        *self.anomaly_hook.0.lock().expect("anomaly hook poisoned") = Some(hook);
    }

    /// Fires the anomaly hook, if installed. Clones the hook out of
    /// the mutex first so a slow listener never extends the lock.
    fn fire_anomaly(&self, reason: &'static str, detail: String) {
        let hook = self
            .anomaly_hook
            .0
            .lock()
            .expect("anomaly hook poisoned")
            .clone();
        if let Some(hook) = hook {
            hook(reason, detail);
        }
    }

    /// The lock-health watchdog threshold in nanoseconds.
    pub fn lock_hold_threshold_ns(&self) -> u64 {
        self.lock_hold_threshold_ns.load(Ordering::Relaxed)
    }

    /// Replaces the configuration of one switch shard (exclusive
    /// access, so no setups can be in flight). The shard must hold no
    /// established connections.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoSwitchAt`] if the node is not a managed
    /// switch, or [`EngineError::Cac`] if connections are established.
    pub fn configure_switch(
        &mut self,
        node: NodeId,
        config: SwitchConfig,
    ) -> Result<(), EngineError> {
        let shard = self
            .shards
            .get_mut(&node)
            .ok_or(EngineError::NoSwitchAt(node))?;
        if shard.lock().connection_count() != 0 {
            return Err(EngineError::Cac(rtcac_cac::CacError::BadConfig(
                "cannot reconfigure a shard with established connections",
            )));
        }
        *shard = Shard::new(config.clone());
        self.configs.insert(node, config);
        Ok(())
    }

    /// Allocates a fresh connection id (thread-safe, strictly
    /// increasing).
    pub fn allocate_id(&self) -> ConnectionId {
        ConnectionId::new(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Number of established connections.
    pub fn connection_count(&self) -> usize {
        self.lock_registry().len()
    }

    /// The guaranteed end-to-end delay of an established connection.
    pub fn guaranteed_delay(&self, id: ConnectionId) -> Option<Time> {
        self.lock_registry().get(&id).map(|e| e.guaranteed_delay)
    }

    /// Number of established connection legs at one switch shard.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoSwitchAt`] for non-switch nodes.
    pub fn shard_connection_count(&self, node: NodeId) -> Result<usize, EngineError> {
        Ok(self.shard(node)?.lock().connection_count())
    }

    /// The mutation counter of one switch shard (see
    /// [`rtcac_cac::Switch::epoch`]).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoSwitchAt`] for non-switch nodes.
    pub fn shard_epoch(&self, node: NodeId) -> Result<u64, EngineError> {
        Ok(self.shard(node)?.lock().epoch())
    }

    /// The computed delay bound at one shard port — the Algorithm 4.1
    /// result for the committed state.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoSwitchAt`] for non-switch nodes, plus
    /// the conditions of [`rtcac_cac::Switch::computed_bound`].
    pub fn computed_bound(
        &self,
        node: NodeId,
        out_link: rtcac_net::LinkId,
        priority: Priority,
    ) -> Result<Time, EngineError> {
        Ok(self
            .shard(node)?
            .lock()
            .computed_bound(out_link, priority)?)
    }

    /// Attempts to establish a connection along `route`, allocating a
    /// fresh id. See [`AdmissionEngine::admit_with_id`].
    ///
    /// # Errors
    ///
    /// As [`AdmissionEngine::admit_with_id`].
    pub fn admit(
        &self,
        route: &Route,
        request: SetupRequest,
    ) -> Result<EngineOutcome, EngineError> {
        self.admit_with_id(self.allocate_id(), route, request)
    }

    /// Attempts to establish a connection along `route` under an
    /// explicit id, using the two-phase reserve/commit protocol.
    ///
    /// # Errors
    ///
    /// Returns an error only for API misuse (invalid route, unmanaged
    /// node, unknown priority, duplicate id); a connection that simply
    /// does not fit yields [`EngineOutcome::Rejected`].
    pub fn admit_with_id(
        &self,
        id: ConnectionId,
        route: &Route,
        request: SetupRequest,
    ) -> Result<EngineOutcome, EngineError> {
        let mut ctx = self.start_trace("engine.admit", id);
        let result = self.admit_with_ctx(id, route, request, &mut ctx);
        ctx.finish(Self::outcome_rejects(&result));
        result
    }

    /// [`AdmissionEngine::admit_with_id`] under a caller-owned trace
    /// context (a [`ServicePool`](crate::ServicePool) opens the trace
    /// before it waits for a permit, so the span tree covers the queue
    /// wait too). The caller finishes the context.
    ///
    /// # Errors
    ///
    /// As [`AdmissionEngine::admit_with_id`].
    pub fn admit_with_ctx(
        &self,
        id: ConnectionId,
        route: &Route,
        request: SetupRequest,
        ctx: &mut TraceCtx,
    ) -> Result<EngineOutcome, EngineError> {
        Counters::bump(&self.counters.submitted);
        self.metrics.submitted.inc();
        let result = self.admit_routed(id, route, request, ctx);
        if result.is_err() {
            Counters::bump(&self.counters.errored);
            self.metrics.errored.inc();
        }
        result
    }

    /// Attempts to establish a point-to-multipoint connection over
    /// `tree`, allocating a fresh id. See
    /// [`AdmissionEngine::admit_multicast_with_id`].
    ///
    /// # Errors
    ///
    /// As [`AdmissionEngine::admit_multicast_with_id`].
    pub fn admit_multicast(
        &self,
        tree: &MulticastTree,
        request: SetupRequest,
    ) -> Result<EngineOutcome, EngineError> {
        self.admit_multicast_with_id(self.allocate_id(), tree, request)
    }

    /// Attempts to establish a point-to-multipoint connection over
    /// `tree` under an explicit id, through the same two-phase
    /// reserve/commit protocol as unicast setup: every tree leg is
    /// admitted under the shard locks (taken in ascending [`NodeId`]
    /// order), a refusal anywhere rolls the reserved legs back with
    /// full epoch rewind before any lock is dropped, and the commit
    /// re-validates tree health under the registry lock. A dead tree
    /// is refused outright — there is no crankback for trees, because
    /// the engine has no alternate-tree search.
    ///
    /// # Errors
    ///
    /// Returns an error only for API misuse (foreign tree, unmanaged
    /// node, unknown priority, duplicate id); an infeasible connection
    /// yields [`EngineOutcome::Rejected`].
    pub fn admit_multicast_with_id(
        &self,
        id: ConnectionId,
        tree: &MulticastTree,
        request: SetupRequest,
    ) -> Result<EngineOutcome, EngineError> {
        Counters::bump(&self.counters.submitted);
        Counters::bump(&self.counters.mcast_submitted);
        self.metrics.submitted.inc();
        self.metrics.mcast_submitted.inc();
        let mut ctx = self.start_trace("engine.admit_multicast", id);
        let result = self.admit_tree(id, tree, request, &mut ctx);
        ctx.finish(Self::outcome_rejects(&result));
        if result.is_err() {
            Counters::bump(&self.counters.errored);
            self.metrics.errored.inc();
        }
        result
    }

    /// Terminal-counter bookkeeping for one tree setup: every
    /// submitted tree lands in exactly one outcome bucket, mirroring
    /// [`admit_routed`](Self::admit_routed) minus the crankback loop.
    fn admit_tree(
        &self,
        id: ConnectionId,
        tree: &MulticastTree,
        request: SetupRequest,
        ctx: &mut TraceCtx,
    ) -> Result<EngineOutcome, EngineError> {
        if self.draining.load(Ordering::Relaxed) {
            Counters::bump(&self.counters.rejected);
            Counters::bump(&self.counters.mcast_rejected);
            self.metrics.rejected.inc();
            self.metrics.mcast_rejected.inc();
            self.metrics.reject_draining.inc();
            self.metrics.exemplar_draining.record_from(ctx);
            return Ok(EngineOutcome::Rejected {
                id,
                rejection: SetupRejection::Draining,
            });
        }
        let plan = RoutePlan::from_tree(&self.topology, tree)?;
        let shape = EstablishedShape::Multicast(tree.clone());
        match self.attempt_plan(id, &plan, request, &shape, ctx)? {
            AttemptResult::Committed { guaranteed_delay } => {
                Counters::bump(&self.counters.admitted);
                Counters::bump(&self.counters.mcast_admitted);
                self.metrics.admitted.inc();
                self.metrics.mcast_admitted.inc();
                Ok(EngineOutcome::Admitted {
                    id,
                    guaranteed_delay,
                })
            }
            AttemptResult::Refused { rejection } => {
                let aborted = matches!(
                    &rejection,
                    SetupRejection::Switch { hops_rolled_back, .. } if *hops_rolled_back > 0
                );
                if aborted {
                    Counters::bump(&self.counters.aborted);
                    self.metrics.aborted.inc();
                } else {
                    Counters::bump(&self.counters.rejected);
                    self.metrics.rejected.inc();
                }
                Counters::bump(&self.counters.mcast_rejected);
                self.metrics.mcast_rejected.inc();
                Ok(EngineOutcome::Rejected { id, rejection })
            }
            AttemptResult::RouteDead { link } => {
                Counters::bump(&self.counters.rejected);
                Counters::bump(&self.counters.mcast_rejected);
                self.metrics.rejected.inc();
                self.metrics.mcast_rejected.inc();
                self.metrics.reject_route_down.inc();
                self.metrics.exemplar_route_down.record_from(ctx);
                Ok(EngineOutcome::Rejected {
                    id,
                    rejection: SetupRejection::RouteDown { link },
                })
            }
        }
    }

    /// The guaranteed end-to-end delay bound per terminal of an
    /// established connection: one entry (the destination) for
    /// unicast, one per leaf — sorted by node — for multicast.
    pub fn per_leaf_bounds(&self, id: ConnectionId) -> Option<Vec<(NodeId, Time)>> {
        self.lock_registry().get(&id).map(|e| e.per_leaf.clone())
    }

    /// The engine's crankback loop: drives [`admit_attempt`] over the
    /// submitted route, and when that route is (or goes) dead, searches
    /// an alternate around the dead elements — up to the reroute
    /// budget. Terminal-counter bookkeeping happens here, so every
    /// submitted setup lands in exactly one bucket.
    ///
    /// [`admit_attempt`]: AdmissionEngine::admit_attempt
    fn admit_routed(
        &self,
        id: ConnectionId,
        route: &Route,
        request: SetupRequest,
        ctx: &mut TraceCtx,
    ) -> Result<EngineOutcome, EngineError> {
        if self.draining.load(Ordering::Relaxed) {
            Counters::bump(&self.counters.rejected);
            self.metrics.rejected.inc();
            self.metrics.reject_draining.inc();
            self.metrics.exemplar_draining.record_from(ctx);
            return Ok(EngineOutcome::Rejected {
                id,
                rejection: SetupRejection::Draining,
            });
        }
        let budget = self.reroute_budget.load(Ordering::Relaxed) as usize;
        let mut attempts: usize = 0;
        let mut excluded: Vec<LinkId> = Vec::new();
        let mut reroute_start = None;
        let mut current = route.clone();
        loop {
            let attempt_span = ctx.begin("attempt");
            if ctx.can_flush() && attempts > 0 {
                ctx.attr("reroute_attempt", attempts.to_string());
            }
            let attempt = self.admit_attempt(id, &current, request, ctx);
            ctx.end(attempt_span);
            match attempt? {
                AttemptResult::Committed { guaranteed_delay } => {
                    return Ok(if attempts == 0 {
                        Counters::bump(&self.counters.admitted);
                        self.metrics.admitted.inc();
                        EngineOutcome::Admitted {
                            id,
                            guaranteed_delay,
                        }
                    } else {
                        Counters::bump(&self.counters.rerouted);
                        self.metrics.rerouted.inc();
                        self.metrics
                            .record_since(reroute_start, &self.metrics.reroute_ns);
                        EngineOutcome::Rerouted {
                            id,
                            guaranteed_delay,
                            route: current,
                            attempts,
                        }
                    });
                }
                AttemptResult::Refused { rejection } => {
                    let aborted = matches!(
                        &rejection,
                        SetupRejection::Switch { hops_rolled_back, .. } if *hops_rolled_back > 0
                    );
                    if aborted {
                        Counters::bump(&self.counters.aborted);
                        self.metrics.aborted.inc();
                    } else {
                        Counters::bump(&self.counters.rejected);
                        self.metrics.rejected.inc();
                    }
                    return Ok(EngineOutcome::Rejected { id, rejection });
                }
                AttemptResult::RouteDead { link } => {
                    if !excluded.contains(&link) {
                        excluded.push(link);
                    }
                    let alternate = if attempts < budget {
                        self.alternate_route(route, &excluded)
                    } else {
                        None
                    };
                    match alternate {
                        Some(alt) => {
                            attempts += 1;
                            if reroute_start.is_none() {
                                reroute_start = self.metrics.start();
                            }
                            current = alt;
                        }
                        None => {
                            Counters::bump(&self.counters.rejected);
                            self.metrics.rejected.inc();
                            self.metrics.reject_route_down.inc();
                            self.metrics.exemplar_route_down.record_from(ctx);
                            return Ok(EngineOutcome::Rejected {
                                id,
                                rejection: SetupRejection::RouteDown { link },
                            });
                        }
                    }
                }
            }
        }
    }

    /// A healthy alternate route between `route`'s endpoints avoiding
    /// every down element plus `excluded`, or `None` when no such
    /// route exists.
    fn alternate_route(&self, route: &Route, excluded: &[LinkId]) -> Option<Route> {
        let from = route.source(&self.topology).ok()?;
        let to = route.destination(&self.topology).ok()?;
        let (avoid_links, avoid_nodes) = {
            let health = self.lock_health();
            let mut links: Vec<LinkId> = health.down_links.iter().copied().collect();
            links.extend(excluded.iter().copied());
            let nodes: Vec<NodeId> = health.down_nodes.iter().copied().collect();
            (links, nodes)
        };
        self.topology
            .shortest_route_avoiding(from, to, &avoid_links, &avoid_nodes)
            .ok()
    }

    /// The first of `links` that is unusable under the health overlay
    /// (the link itself or one of its endpoints is down).
    fn overlay_dead_link(
        &self,
        links: &[LinkId],
        health: &HealthState,
    ) -> Result<Option<LinkId>, EngineError> {
        if health.all_up() {
            return Ok(None);
        }
        for &id in links {
            if health.down_links.contains(&id) {
                return Ok(Some(id));
            }
            let link = self.topology.link(id)?;
            if health.down_nodes.contains(&link.from()) || health.down_nodes.contains(&link.to()) {
                return Ok(Some(id));
            }
        }
        Ok(None)
    }

    /// One two-phase reserve/commit attempt on one concrete route.
    fn admit_attempt(
        &self,
        id: ConnectionId,
        route: &Route,
        request: SetupRequest,
        ctx: &mut TraceCtx,
    ) -> Result<AttemptResult, EngineError> {
        let plan = RoutePlan::from_route(&self.topology, route)?;
        let shape = EstablishedShape::Unicast(route.clone());
        self.attempt_plan(id, &plan, request, &shape, ctx)
    }

    /// One two-phase reserve/commit attempt of a shaped plan — the
    /// concurrent driver for the shared admission core, used for both
    /// unicast routes and multicast trees. `shape` is the transport
    /// recorded in the registry on commit.
    fn attempt_plan(
        &self,
        id: ConnectionId,
        plan: &RoutePlan,
        request: SetupRequest,
        shape: &EstablishedShape,
        ctx: &mut TraceCtx,
    ) -> Result<AttemptResult, EngineError> {
        // Health gate — a cheap refusal before any shard lock when the
        // transport is already known dead.
        {
            let health = self.lock_health();
            if let Some(link) = self.overlay_dead_link(shape.links(), &health)? {
                ctx.event("reject.provenance", format!("route down at link {link}"));
                return Ok(AttemptResult::RouteDead { link });
            }
        }

        // QoS feasibility gate and per-hop CDV — priced lock-free by
        // the core from the static per-node configurations: the
        // advertised bounds never change while setups are in flight.
        let price_span = ctx.begin("price");
        let priced = {
            let inflation = self.lock_cdv_inflation();
            ReservationPlan::price_inflated(
                plan,
                self.policy,
                request.contract(),
                request.priority(),
                |node| {
                    self.configs
                        .get(&node)
                        .ok_or(EngineError::NoSwitchAt(node))?
                        .bound(request.priority())
                        .map_err(EngineError::from)
                },
                |link| inflation.get(&link).copied().unwrap_or(Time::ZERO),
            )?
        };
        ctx.end(price_span);
        // Provenance rows are assembled during the walk only when
        // someone is guaranteed to see them: a sampled trace, or a
        // caller that switched report capture on. A live-but-unsampled
        // trace pays nothing here — if the setup ends in a rejection
        // (which forces the trace to flush), the rare reject path
        // below reconstructs the ledger post-hoc.
        let want_report = self.capture_reports.load(Ordering::Relaxed) || ctx.is_sampled();
        let mut rows = if want_report {
            priced.report_rows()
        } else {
            Vec::new()
        };
        let achievable = priced.achievable();
        if request.delay_bound() < achievable {
            self.metrics.reject_qos.inc();
            self.metrics.exemplar_qos.record_from(ctx);
            if want_report || ctx.can_flush() {
                // Refused before the walk: every row is NotEvaluated,
                // so the skeleton is the exact ledger either way.
                let rows = if want_report {
                    rows
                } else {
                    priced.report_rows()
                };
                self.publish_report(
                    id,
                    AdmissionReport::new(
                        rows,
                        AdmissionVerdict::RejectedQos {
                            requested: request.delay_bound(),
                            achievable,
                        },
                    ),
                    ctx,
                );
            }
            return Ok(AttemptResult::Refused {
                rejection: SetupRejection::QosUnsatisfiable {
                    requested: request.delay_bound(),
                    achievable,
                },
            });
        }

        if self.lock_registry().contains_key(&id) {
            return Err(EngineError::DuplicateConnection(id));
        }

        // Phase 1 (reserve): take every shard lock on the plan in
        // ascending NodeId order — the global order that makes
        // concurrent setups deadlock-free — then drive the core's
        // reserve walk leg by leg in plan order. A refusal rolls every
        // reserved leg back (phase 2, abort) before any lock drops.
        let reserve_span = ctx.begin("reserve");
        let reserve_start = self.metrics.start();
        let mut guards = self.lock_route_shards(plan.hops().iter().map(|h| h.node))?;
        let pre_epochs: BTreeMap<NodeId, u64> = guards
            .iter()
            .map(|(&node, switch)| (node, switch.epoch()))
            .collect();
        let mut driver = ShardDriver {
            id,
            guards: &mut guards,
            pre_epochs: &pre_epochs,
            metrics: &self.metrics,
            reserve_start,
            rollback_start: None,
        };
        let outcome = if want_report {
            let trace_hops = ctx.is_sampled();
            let mut hop_events: Vec<String> = Vec::new();
            let outcome = priced.reserve_observed(&mut driver, |index, hop, decision| {
                rows[index].record_decision(decision);
                if trace_hops {
                    hop_events.push(format!(
                        "node {} out {} cdv {}: {}",
                        hop.node, hop.out_link, hop.cdv, rows[index].verdict
                    ));
                }
            })?;
            for detail in hop_events {
                ctx.event("hop", detail);
            }
            outcome
        } else {
            priced.reserve(&mut driver)?
        };
        let (reserve_pending, rollback_start) = (driver.reserve_start, driver.rollback_start);
        match outcome {
            ReserveOutcome::Reserved => {
                ctx.end(reserve_span);
                self.metrics
                    .record_since(reserve_pending, &self.metrics.reserve_ns);
            }
            ReserveOutcome::Refused {
                at,
                index,
                reason,
                legs_rolled_back,
                ..
            } => {
                ctx.end(reserve_span);
                if legs_rolled_back > 0 {
                    self.metrics
                        .record_since(rollback_start, &self.metrics.rollback_ns);
                    self.metrics.record_abort_event(format!(
                        "conn {id} refused at node {at}: rolled back {legs_rolled_back} hop(s)"
                    ));
                }
                self.metrics.reject_switch.inc();
                self.metrics.exemplar_switch.record_from(ctx);
                if want_report || ctx.can_flush() {
                    let rows = if want_report {
                        rows
                    } else {
                        // The sampled-out walk ran without an observer;
                        // rebuild the ledger for the forced reject
                        // flush. Upstream verdicts are known (they
                        // admitted), only their computed bounds were
                        // not retained; the refusing hop's reason —
                        // including its computed bound — is.
                        let mut rows = priced.report_rows();
                        for row in rows.iter_mut().take(index) {
                            row.verdict = HopVerdict::Admitted;
                        }
                        rows[index].record_decision(&AdmissionDecision::Rejected(reason));
                        rows
                    };
                    self.publish_report(
                        id,
                        AdmissionReport::new(rows, AdmissionVerdict::RejectedHop { at, index }),
                        ctx,
                    );
                }
                return Ok(AttemptResult::Refused {
                    rejection: SetupRejection::Switch {
                        at,
                        reason,
                        hops_rolled_back: legs_rolled_back,
                    },
                });
            }
        }

        // Test trap: fail a link inside the reserve→commit window.
        #[cfg(test)]
        {
            let trap = self
                .test_fail_after_reserve
                .lock()
                .expect("trap mutex poisoned")
                .take();
            if let Some(link) = trap {
                let mut health = self.lock_health();
                if health.down_links.insert(link) {
                    health.epoch += 1;
                }
            }
        }

        // Phase 2 (commit): record the connection while the shard locks
        // are still held, so a concurrent release cannot interleave.
        //
        // The registry lock serializes this block against `fail_link` /
        // `fail_node`, which mark health and snapshot the affected
        // connections under the same lock — so a failure racing a setup
        // is seen by exactly one side: either the health re-check here
        // observes it (and the reserve is rolled back), or the failure
        // path sees the committed registry entry (and tears it down).
        let commit_span = ctx.begin("commit");
        let commit_start = self.metrics.start();
        {
            let mut registry = self.lock_registry();
            let dead = {
                let health = self.lock_health();
                self.overlay_dead_link(shape.links(), &health)?
            };
            if let Some(link) = dead {
                drop(registry);
                let rollback_start = self.metrics.start();
                let reserved: Vec<NodeId> = plan.hops().iter().map(|h| h.node).collect();
                Self::rollback(&mut guards, &pre_epochs, &reserved, id)?;
                self.metrics
                    .record_since(rollback_start, &self.metrics.rollback_ns);
                self.metrics.record_abort_event(format!(
                    "conn {id}: link {link} failed between reserve and commit; rolled back {} hop(s)",
                    reserved.len()
                ));
                ctx.end(commit_span);
                ctx.event(
                    "commit.abort",
                    format!("link {link} failed between reserve and commit"),
                );
                return Ok(AttemptResult::RouteDead { link });
            }
            registry.insert(
                id,
                Established {
                    shape: shape.clone(),
                    points: plan.hops().iter().map(|h| (h.node, h.out_link)).collect(),
                    priority: request.priority(),
                    delay_bound: request.delay_bound(),
                    guaranteed_delay: achievable,
                    per_leaf: priced.terminals().to_vec(),
                },
            );
        }
        self.metrics
            .record_since(commit_start, &self.metrics.commit_ns);
        ctx.end(commit_span);
        if want_report {
            self.publish_report(
                id,
                AdmissionReport::new(
                    rows,
                    AdmissionVerdict::Admitted {
                        guaranteed_delay: achievable,
                    },
                ),
                ctx,
            );
        }
        Ok(AttemptResult::Committed {
            guaranteed_delay: achievable,
        })
    }

    /// Rolls back every reserved hop and rewinds each touched shard's
    /// mutation counter, so the shards end bit-identical to their
    /// pre-reserve state.
    fn rollback(
        guards: &mut BTreeMap<NodeId, MutexGuard<'_, Switch>>,
        pre_epochs: &BTreeMap<NodeId, u64>,
        reserved: &[NodeId],
        id: ConnectionId,
    ) -> Result<(), EngineError> {
        let mut rolled: Vec<NodeId> = Vec::new();
        for &up in reserved.iter().rev() {
            if rolled.contains(&up) {
                continue; // multi-leg: one release frees all
            }
            undo_reserve(guards, pre_epochs, up, id)?;
            rolled.push(up);
        }
        Ok(())
    }

    /// Tears down an established connection, releasing every shard
    /// reservation on its route.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownConnection`] if the id is not
    /// established.
    pub fn release(&self, id: ConnectionId) -> Result<(), EngineError> {
        let entry = self
            .lock_registry()
            .remove(&id)
            .ok_or(EngineError::UnknownConnection(id))?;
        let mut guards = self.lock_route_shards(entry.points.iter().map(|&(n, _)| n))?;
        for switch in guards.values_mut() {
            switch.release(id)?;
        }
        Counters::bump(&self.counters.released);
        self.metrics.released.inc();
        Ok(())
    }

    /// Marks a link down in the engine's health overlay and
    /// force-releases every established connection whose route crosses
    /// it. New setups over the link are refused (or rerouted around it)
    /// and reserve/commit windows in flight observe the failure.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Net`] for a foreign link id.
    pub fn fail_link(&self, link: LinkId) -> Result<FailureImpact, EngineError> {
        self.topology.link(link)?;
        let affected: Vec<ConnectionId> = {
            let registry = self.lock_registry();
            let mut health = self.lock_health();
            if !health.down_links.insert(link) {
                return Ok(FailureImpact::unchanged());
            }
            health.epoch += 1;
            drop(health);
            registry
                .iter()
                .filter(|(_, e)| e.shape.links().contains(&link))
                .map(|(&id, _)| id)
                .collect()
        };
        self.metrics.link_failures.inc();
        self.fail_over(affected)
    }

    /// Marks a link up again in the health overlay. Returns whether
    /// the state changed (healing a healthy link is a no-op).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Net`] for a foreign link id.
    pub fn heal_link(&self, link: LinkId) -> Result<bool, EngineError> {
        self.topology.link(link)?;
        let changed = {
            let mut health = self.lock_health();
            let changed = health.down_links.remove(&link);
            if changed {
                health.epoch += 1;
            }
            changed
        };
        if changed {
            self.metrics.link_heals.inc();
        }
        Ok(changed)
    }

    /// Marks a node down in the health overlay and force-releases
    /// every established connection whose route visits it (as endpoint
    /// or transit).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Net`] for a foreign node id.
    pub fn fail_node(&self, node: NodeId) -> Result<FailureImpact, EngineError> {
        self.topology.node(node)?;
        let affected: Vec<ConnectionId> = {
            let registry = self.lock_registry();
            let mut health = self.lock_health();
            if !health.down_nodes.insert(node) {
                return Ok(FailureImpact::unchanged());
            }
            health.epoch += 1;
            drop(health);
            let mut ids = Vec::new();
            for (&id, entry) in registry.iter() {
                if links_visit(&self.topology, entry.shape.links(), node)? {
                    ids.push(id);
                }
            }
            ids
        };
        self.metrics.node_failures.inc();
        self.fail_over(affected)
    }

    /// Marks a node up again in the health overlay. Returns whether
    /// the state changed.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Net`] for a foreign node id.
    pub fn heal_node(&self, node: NodeId) -> Result<bool, EngineError> {
        self.topology.node(node)?;
        let changed = {
            let mut health = self.lock_health();
            let changed = health.down_nodes.remove(&node);
            if changed {
                health.epoch += 1;
            }
            changed
        };
        if changed {
            self.metrics.node_heals.inc();
        }
        Ok(changed)
    }

    /// Tears down every connection in `affected` and publishes the
    /// post-failure orphan audit.
    fn fail_over(&self, affected: Vec<ConnectionId>) -> Result<FailureImpact, EngineError> {
        let mut torn_down = Vec::new();
        for id in affected {
            if self.release_failover(id)? {
                torn_down.push(id);
            }
        }
        self.publish_orphans();
        Ok(FailureImpact::changed(torn_down))
    }

    /// Force-releases a connection because an element on its route
    /// failed. Returns `false` when the connection is already gone (a
    /// benign race with a caller-initiated release).
    fn release_failover(&self, id: ConnectionId) -> Result<bool, EngineError> {
        let Some(entry) = self.lock_registry().remove(&id) else {
            return Ok(false);
        };
        let mut guards = self.lock_route_shards(entry.points.iter().map(|&(n, _)| n))?;
        for switch in guards.values_mut() {
            switch.release(id)?;
        }
        Counters::bump(&self.counters.failed_over);
        self.metrics.failed_over.inc();
        Ok(true)
    }

    /// The health-change epoch: bumps on every effective fail or heal.
    pub fn health_epoch(&self) -> u64 {
        self.lock_health().epoch
    }

    /// Whether a link is currently usable under the health overlay
    /// (itself up, both endpoints up).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Net`] for a foreign link id.
    pub fn link_usable(&self, link: LinkId) -> Result<bool, EngineError> {
        let l = self.topology.link(link)?;
        let health = self.lock_health();
        Ok(!health.down_links.contains(&link)
            && !health.down_nodes.contains(&l.from())
            && !health.down_nodes.contains(&l.to()))
    }

    /// Puts the engine in (or out of) drain mode: while draining,
    /// every new setup is refused with [`SetupRejection::Draining`];
    /// releases and failure handling still run.
    pub fn set_draining(&self, draining: bool) {
        self.draining.store(draining, Ordering::Relaxed);
    }

    /// Whether drain mode is on.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Sets how many alternate routes a setup may try after its route
    /// is found dead (default 2; 0 disables the engine crankback).
    pub fn set_reroute_budget(&self, budget: u64) {
        self.reroute_budget.store(budget, Ordering::Relaxed);
    }

    /// Every `(shard, connection)` reservation with no owning registry
    /// entry. Non-empty means a rollback or failover leaked bandwidth;
    /// the chaos harness asserts this stays empty.
    pub fn orphaned_reservations(&self) -> Vec<(NodeId, ConnectionId)> {
        let mut held: Vec<(NodeId, ConnectionId)> = Vec::new();
        for (&node, shard) in &self.shards {
            let ids: BTreeSet<ConnectionId> =
                shard.lock().connections().map(|(id, _)| id).collect();
            held.extend(ids.into_iter().map(|id| (node, id)));
        }
        let registry = self.lock_registry();
        held.retain(|(_, id)| !registry.contains_key(id));
        held
    }

    /// Runs the orphaned-reservation audit, publishes the count to
    /// the `engine_orphaned_reservations` gauge, and returns it (zero
    /// when the no-leak invariant holds).
    pub fn publish_orphan_audit(&self) -> usize {
        let orphans = self.orphaned_reservations().len();
        if self.metrics.live {
            self.metrics.orphaned.set(orphans as u64);
        }
        if orphans > 0 {
            self.fire_anomaly("orphans", format!("{orphans} orphaned reservation(s)"));
        }
        orphans
    }

    /// Publishes the orphaned-reservation count to the obs gauge.
    fn publish_orphans(&self) {
        self.publish_orphan_audit();
    }

    /// Recomputes every established connection's Algorithm 4.1 bounds
    /// and checks them against the guarantees handed out at setup:
    /// each queueing point's computed bound must stay within the
    /// advertised per-hop bound, and the guaranteed end-to-end delay
    /// must stay within the contracted delay bound. Returns the
    /// violations found (empty when every guarantee holds).
    ///
    /// Each distinct `(switch, out-link, priority)` port is priced once
    /// per call, however many connections cross it.
    ///
    /// # Errors
    ///
    /// Returns the conditions of [`AdmissionEngine::computed_bound`].
    pub fn verify_guarantees(&self) -> Result<Vec<GuaranteeViolation>, EngineError> {
        let snapshot: Vec<(ConnectionId, Established)> = self
            .lock_registry()
            .iter()
            .map(|(&id, entry)| (id, entry.clone()))
            .collect();
        let mut port_bounds: BTreeMap<(NodeId, LinkId, Priority), Time> = BTreeMap::new();
        let mut violations = Vec::new();
        for (id, entry) in snapshot {
            for &(node, out_link) in &entry.points {
                let advertised = self
                    .configs
                    .get(&node)
                    .ok_or(EngineError::NoSwitchAt(node))?
                    .bound(entry.priority)?;
                let computed = match port_bounds.entry((node, out_link, entry.priority)) {
                    Entry::Occupied(priced) => *priced.get(),
                    Entry::Vacant(slot) => {
                        *slot.insert(self.computed_bound(node, out_link, entry.priority)?)
                    }
                };
                if computed > advertised {
                    violations.push(GuaranteeViolation {
                        id,
                        at: Some(node),
                        computed,
                        limit: advertised,
                    });
                }
            }
            if entry.guaranteed_delay > entry.delay_bound {
                violations.push(GuaranteeViolation {
                    id,
                    at: None,
                    computed: entry.guaranteed_delay,
                    limit: entry.delay_bound,
                });
            }
        }
        if let Some(v) = violations.first() {
            self.fire_anomaly(
                "guarantee_audit",
                format!(
                    "{} violation(s); first: connection {} computed {} > limit {}",
                    violations.len(),
                    v.id,
                    v.computed,
                    v.limit
                ),
            );
        }
        Ok(violations)
    }

    /// A snapshot of the engine counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            admitted: self.counters.admitted.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            aborted: self.counters.aborted.load(Ordering::Relaxed),
            errored: self.counters.errored.load(Ordering::Relaxed),
            rerouted: self.counters.rerouted.load(Ordering::Relaxed),
            released: self.counters.released.load(Ordering::Relaxed),
            failed_over: self.counters.failed_over.load(Ordering::Relaxed),
            mcast_submitted: self.counters.mcast_submitted.load(Ordering::Relaxed),
            mcast_admitted: self.counters.mcast_admitted.load(Ordering::Relaxed),
            mcast_rejected: self.counters.mcast_rejected.load(Ordering::Relaxed),
        }
    }

    /// Exports a consistent cut of the full engine state for
    /// snapshotting: per-shard connection legs and epochs, the
    /// connection registry, health overlay, drain flag, id allocator
    /// and outcome counters (see [`EngineState`] for what is stored
    /// versus derived).
    ///
    /// The cut is taken with **every** shard locked in ascending
    /// [`NodeId`] order, then the registry and health locks — the same
    /// nesting order the commit path uses — so no in-flight setup can
    /// be observed half-committed.
    pub fn export_state(&self) -> EngineState {
        let guards: Vec<(NodeId, MutexGuard<'_, Switch>)> = self
            .shards
            .iter()
            .map(|(&node, shard)| (node, shard.lock()))
            .collect();
        let registry = self.lock_registry();
        let health = self.lock_health();
        let switches = guards
            .iter()
            .map(|(node, switch)| SwitchState {
                node: *node,
                config: self.configs[node].clone(),
                epoch: switch.epoch(),
                legs: switch.connections().collect(),
            })
            .collect();
        let connections = registry
            .iter()
            .map(|(&id, entry)| ConnectionState {
                id,
                multicast: matches!(entry.shape, EstablishedShape::Multicast(_)),
                links: entry.shape.links().to_vec(),
                points: entry.points.clone(),
                priority: entry.priority,
                delay_bound: entry.delay_bound,
                guaranteed_delay: entry.guaranteed_delay,
                per_leaf: entry.per_leaf.clone(),
            })
            .collect();
        EngineState {
            policy: self.policy,
            reroute_budget: self.reroute_budget.load(Ordering::Relaxed),
            next_id: self.next_id.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::Relaxed),
            health: HealthOverlayState {
                down_links: health.down_links.iter().copied().collect(),
                down_nodes: health.down_nodes.iter().copied().collect(),
                epoch: health.epoch,
            },
            switches,
            connections,
            counters: self.stats(),
        }
    }

    /// Approximate resident heap bytes of the engine's admission state:
    /// the sum of every shard switch's
    /// [`resident_bytes`](rtcac_cac::Switch::resident_bytes). Each
    /// shard is locked briefly in ascending order (not all at once —
    /// the figure is a gauge, not a consistent cut), so scraping it
    /// from a metrics endpoint does not stall admissions.
    pub fn resident_bytes(&self) -> usize {
        self.shards
            .values()
            .map(|shard| shard.lock().resident_bytes())
            .sum()
    }

    /// Rebuilds an engine from an exported state — the warm-restart
    /// constructor. Metrics go to the installed global registry like
    /// [`AdmissionEngine::new`].
    ///
    /// Every part is re-validated against `topology` (shapes re-walk
    /// their link chains, legs re-derive their arrival streams), and
    /// the rebuilt engine must pass the orphaned-reservation audit and
    /// [`AdmissionEngine::verify_guarantees`] before it is returned — a
    /// snapshot that fails is refused whole, never half-loaded.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::RestoreRefused`] for any inconsistency
    /// between the state and the topology, or when the post-rebuild
    /// audit fails.
    pub fn from_state(
        topology: Topology,
        state: &EngineState,
    ) -> Result<AdmissionEngine, EngineError> {
        let metrics = EngineMetrics::from_global(topology.switches().map(|n| n.id()));
        AdmissionEngine::build_from_state(topology, state, metrics)
    }

    /// [`AdmissionEngine::from_state`] with an explicit metrics
    /// registry (the form the resident service and tests use).
    ///
    /// # Errors
    ///
    /// As [`AdmissionEngine::from_state`].
    pub fn from_state_with_registry(
        topology: Topology,
        state: &EngineState,
        registry: Arc<Registry>,
    ) -> Result<AdmissionEngine, EngineError> {
        let metrics = EngineMetrics::from_registry(registry, topology.switches().map(|n| n.id()));
        AdmissionEngine::build_from_state(topology, state, metrics)
    }

    fn build_from_state(
        topology: Topology,
        state: &EngineState,
        metrics: EngineMetrics,
    ) -> Result<AdmissionEngine, EngineError> {
        let (configs, switches, established) = AdmissionEngine::rebuild_parts(&topology, state)?;
        let shards = switches
            .into_iter()
            .map(|(node, switch)| (node, Shard::from_switch(switch)))
            .collect();
        let engine = AdmissionEngine {
            topology,
            policy: state.policy,
            configs,
            shards,
            connections: Mutex::new(established),
            health: Mutex::new(HealthState {
                down_links: state.health.down_links.iter().copied().collect(),
                down_nodes: state.health.down_nodes.iter().copied().collect(),
                epoch: state.health.epoch,
            }),
            draining: AtomicBool::new(state.draining),
            reroute_budget: AtomicU64::new(state.reroute_budget),
            next_id: AtomicU64::new(state.next_id),
            counters: Counters::default(),
            metrics,
            tracer: Tracer::noop(),
            capture_reports: AtomicBool::new(false),
            reports: Mutex::new(BTreeMap::new()),
            cdv_inflation: Mutex::new(BTreeMap::new()),
            lock_hold_threshold_ns: AtomicU64::new(DEFAULT_LOCK_HOLD_THRESHOLD_NS),
            anomaly_hook: AnomalyHookCell::default(),
            #[cfg(test)]
            test_fail_after_reserve: Mutex::new(None),
        };
        engine.load_counters(&state.counters);
        engine.audit_restored()?;
        Ok(engine)
    }

    /// Adopts an exported state into this already-running engine — the
    /// in-place warm restart the resident service uses, so the engine
    /// handle shared with its service pool stays valid.
    ///
    /// The state is fully rebuilt and audited on a throwaway engine
    /// *before* anything is applied, so a failing snapshot leaves this
    /// engine untouched. The topology, switch configurations and CDV
    /// policy must match the snapshot exactly. The swap itself happens
    /// under every shard lock (ascending order) plus the registry and
    /// health locks — the same consistent-cut discipline as
    /// [`AdmissionEngine::export_state`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::RestoreRefused`] for any mismatch or
    /// audit failure; the engine keeps serving its pre-call state.
    pub fn adopt_state(&self, state: &EngineState) -> Result<(), EngineError> {
        if state.policy != self.policy {
            return Err(EngineError::RestoreRefused(format!(
                "CDV policy mismatch: engine runs {:?}, snapshot was taken under {:?}",
                self.policy, state.policy
            )));
        }
        let (configs, mut switches, established) =
            AdmissionEngine::rebuild_parts(&self.topology, state)?;
        if configs != self.configs {
            return Err(EngineError::RestoreRefused(
                "switch configuration mismatch between engine and snapshot".into(),
            ));
        }
        // Dry-run the full rebuild + audit on a throwaway engine first:
        // a snapshot that fails verify_guarantees or the orphan audit
        // must be refused before any of it becomes visible here.
        AdmissionEngine::build_from_state(self.topology.clone(), state, EngineMetrics::default())?;
        {
            let mut guards: Vec<(NodeId, MutexGuard<'_, Switch>)> = self
                .shards
                .iter()
                .map(|(&node, shard)| (node, shard.lock()))
                .collect();
            let mut registry = self.lock_registry();
            let mut health = self.lock_health();
            for (node, guard) in guards.iter_mut() {
                **guard = switches.remove(node).expect("validated switch set");
            }
            *registry = established;
            *health = HealthState {
                down_links: state.health.down_links.iter().copied().collect(),
                down_nodes: state.health.down_nodes.iter().copied().collect(),
                epoch: state.health.epoch,
            };
        }
        self.draining.store(state.draining, Ordering::Relaxed);
        self.reroute_budget
            .store(state.reroute_budget, Ordering::Relaxed);
        self.next_id.store(state.next_id, Ordering::Relaxed);
        self.load_counters(&state.counters);
        self.publish_orphan_audit();
        Ok(())
    }

    /// Rebuilds the restorable parts of an engine from an exported
    /// state, validating everything against `topology` without touching
    /// any engine.
    #[allow(clippy::type_complexity)]
    fn rebuild_parts(
        topology: &Topology,
        state: &EngineState,
    ) -> Result<
        (
            BTreeMap<NodeId, SwitchConfig>,
            BTreeMap<NodeId, Switch>,
            BTreeMap<ConnectionId, Established>,
        ),
        EngineError,
    > {
        let refuse = EngineError::RestoreRefused;
        let expected: BTreeSet<NodeId> = topology.switches().map(|n| n.id()).collect();
        let got: BTreeSet<NodeId> = state.switches.iter().map(|s| s.node).collect();
        if state.switches.len() != got.len() {
            return Err(refuse("duplicate switch section in state".into()));
        }
        if expected != got {
            return Err(refuse(format!(
                "switch set mismatch: topology has {} switch(es), state has {}",
                expected.len(),
                got.len()
            )));
        }
        for &link in &state.health.down_links {
            topology
                .link(link)
                .map_err(|e| refuse(format!("health overlay references a foreign link: {e}")))?;
        }
        for &node in &state.health.down_nodes {
            topology
                .node(node)
                .map_err(|e| refuse(format!("health overlay references a foreign node: {e}")))?;
        }
        let mut configs = BTreeMap::new();
        let mut switches = BTreeMap::new();
        for shard in &state.switches {
            let switch = Switch::restore(
                shard.config.clone(),
                shard.epoch,
                shard.legs.iter().copied(),
            )
            .map_err(|e| refuse(format!("cannot rebuild switch at {}: {e}", shard.node)))?;
            configs.insert(shard.node, shard.config.clone());
            switches.insert(shard.node, switch);
        }
        let mut established: BTreeMap<ConnectionId, Established> = BTreeMap::new();
        for conn in &state.connections {
            let links = conn.links.iter().copied();
            let shape =
                if conn.multicast {
                    EstablishedShape::Multicast(MulticastTree::new(topology, links).map_err(
                        |e| refuse(format!("connection {}: invalid tree: {e}", conn.id)),
                    )?)
                } else {
                    EstablishedShape::Unicast(Route::new(topology, links).map_err(|e| {
                        refuse(format!("connection {}: invalid route: {e}", conn.id))
                    })?)
                };
            for &(node, _) in &conn.points {
                let held = switches
                    .get(&node)
                    .is_some_and(|s| s.has_connection(conn.id));
                if !held {
                    return Err(refuse(format!(
                        "connection {} has no reservation at its queueing point {node}",
                        conn.id
                    )));
                }
            }
            let previous = established.insert(
                conn.id,
                Established {
                    shape,
                    points: conn.points.clone(),
                    priority: conn.priority,
                    delay_bound: conn.delay_bound,
                    guaranteed_delay: conn.guaranteed_delay,
                    per_leaf: conn.per_leaf.clone(),
                },
            );
            if previous.is_some() {
                return Err(refuse(format!("duplicate connection {} in state", conn.id)));
            }
        }
        // The id allocator must be past every restored connection:
        // otherwise post-restore setups burn one DuplicateConnection
        // failure per stale id until the counter catches up — an
        // availability gap, so such a state is refused outright.
        if let Some((&max_id, _)) = established.last_key_value() {
            if state.next_id <= max_id.raw() {
                return Err(refuse(format!(
                    "next connection id {} is not past the largest established id {}",
                    state.next_id, max_id
                )));
            }
        }
        Ok((configs, switches, established))
    }

    /// Stores exported outcome counters into the engine's atomics.
    fn load_counters(&self, stats: &EngineStats) {
        let c = &self.counters;
        for (atomic, value) in [
            (&c.submitted, stats.submitted),
            (&c.admitted, stats.admitted),
            (&c.rejected, stats.rejected),
            (&c.aborted, stats.aborted),
            (&c.errored, stats.errored),
            (&c.rerouted, stats.rerouted),
            (&c.released, stats.released),
            (&c.failed_over, stats.failed_over),
            (&c.mcast_submitted, stats.mcast_submitted),
            (&c.mcast_admitted, stats.mcast_admitted),
            (&c.mcast_rejected, stats.mcast_rejected),
        ] {
            atomic.store(value, Ordering::Relaxed);
        }
    }

    /// The accept-traffic gate of a rebuilt engine: the
    /// orphaned-reservation audit must find nothing and every
    /// recomputed Algorithm 4.1 bound must still honor its guarantee.
    fn audit_restored(&self) -> Result<(), EngineError> {
        let orphans = self.publish_orphan_audit();
        if orphans != 0 {
            return Err(EngineError::RestoreRefused(format!(
                "{orphans} orphaned reservation(s) after rebuild"
            )));
        }
        let violations = self.verify_guarantees()?;
        if let Some(v) = violations.first() {
            return Err(EngineError::RestoreRefused(format!(
                "{} guarantee violation(s) after rebuild (first: connection {} computed {} > limit {})",
                violations.len(),
                v.id,
                v.computed,
                v.limit
            )));
        }
        Ok(())
    }

    fn shard(&self, node: NodeId) -> Result<&Shard, EngineError> {
        self.shards.get(&node).ok_or(EngineError::NoSwitchAt(node))
    }

    /// Locks the shards of the given route nodes in ascending `NodeId`
    /// order (duplicates collapse), returning the guards keyed by node.
    /// With live metrics, the wait for each shard lock is recorded in
    /// that shard's `engine_shard_lock_wait_ns` histogram, and the
    /// watchdog measures how long the full guard set is held (recorded
    /// when the guards drop).
    fn lock_route_shards(
        &self,
        nodes: impl Iterator<Item = NodeId>,
    ) -> Result<ShardGuards<'_>, EngineError> {
        let unique: std::collections::BTreeSet<NodeId> = nodes.collect();
        let mut guards = BTreeMap::new();
        for node in unique {
            let shard = self.shard(node)?;
            let wait_start = self.metrics.start();
            let guard = shard.lock();
            if let (Some(start), Some(histogram)) =
                (wait_start, self.metrics.lock_wait_ns.get(&node))
            {
                histogram.record_duration(start.elapsed());
            }
            guards.insert(node, guard);
        }
        Ok(ShardGuards {
            guards,
            hold_start: self.metrics.start(),
            engine: self,
            threshold_ns: self.lock_hold_threshold_ns.load(Ordering::Relaxed),
        })
    }

    /// Poisons one shard's mutex by panicking a thread that holds it —
    /// test-only, to exercise worker-panic reporting in the pool.
    #[cfg(test)]
    pub(crate) fn poison_shard(&self, node: NodeId) {
        let shard = self.shard(node).expect("poison target is a switch shard");
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = shard.lock();
                panic!("poisoning shard for a pool panic test");
            });
            assert!(poisoner.join().is_err());
        });
    }

    fn lock_registry(&self) -> MutexGuard<'_, BTreeMap<ConnectionId, Established>> {
        self.connections.lock().expect("registry mutex poisoned")
    }

    fn lock_health(&self) -> MutexGuard<'_, HealthState> {
        self.health.lock().expect("health mutex poisoned")
    }

    fn lock_cdv_inflation(&self) -> MutexGuard<'_, BTreeMap<LinkId, Time>> {
        self.cdv_inflation
            .lock()
            .expect("cdv inflation mutex poisoned")
    }
}

/// The full set of shard locks one setup/release holds, instrumented
/// by the lock-health watchdog: on drop (i.e. just before the locks
/// release) the hold duration lands in `engine_lock_hold_ns`, and
/// holds past the engine's threshold bump
/// `engine_lock_hold_long_total` — the ouisync
/// `expect_short_lifetime` discipline, as metrics instead of panics.
struct ShardGuards<'e> {
    guards: BTreeMap<NodeId, MutexGuard<'e, Switch>>,
    hold_start: Option<Instant>,
    engine: &'e AdmissionEngine,
    threshold_ns: u64,
}

impl<'e> std::ops::Deref for ShardGuards<'e> {
    type Target = BTreeMap<NodeId, MutexGuard<'e, Switch>>;

    fn deref(&self) -> &Self::Target {
        &self.guards
    }
}

impl std::ops::DerefMut for ShardGuards<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.guards
    }
}

impl Drop for ShardGuards<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.hold_start {
            let held = start.elapsed();
            let metrics = &self.engine.metrics;
            metrics.lock_hold_ns.record_duration(held);
            if held.as_nanos() > u128::from(self.threshold_ns) {
                metrics.lock_hold_long.inc();
                // Rare path only: the hook mutex is never touched on
                // an in-threshold hold.
                self.engine.fire_anomaly(
                    "lock_hold",
                    format!(
                        "shard locks held {}ns (threshold {}ns)",
                        held.as_nanos(),
                        self.threshold_ns
                    ),
                );
            }
        }
    }
}

/// Whether any of `links` touches `node`, as endpoint or transit.
fn links_visit(topology: &Topology, links: &[LinkId], node: NodeId) -> Result<bool, EngineError> {
    for &id in links {
        let link = topology.link(id)?;
        if link.from() == node || link.to() == node {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Releases `id` at the locked shard `node` and rewinds its mutation
/// counter to `pre_epochs[node]`, so an aborted reserve leaves that
/// shard bit-identical to its pre-reserve state.
fn undo_reserve(
    guards: &mut BTreeMap<NodeId, MutexGuard<'_, Switch>>,
    pre_epochs: &BTreeMap<NodeId, u64>,
    node: NodeId,
    id: ConnectionId,
) -> Result<(), EngineError> {
    let switch = guards.get_mut(&node).ok_or(EngineError::NoSwitchAt(node))?;
    switch.release(id)?;
    switch.rewind_epoch(pre_epochs[&node]);
    Ok(())
}

/// The engine's [`HopDriver`]: admits each priced leg against the
/// already-locked shards, and undoes a reserved leg on rollback.
struct ShardDriver<'a, 'g> {
    id: ConnectionId,
    guards: &'a mut BTreeMap<NodeId, MutexGuard<'g, Switch>>,
    pre_epochs: &'a BTreeMap<NodeId, u64>,
    metrics: &'a EngineMetrics,
    /// Taken (and the reserve histogram recorded) at the first
    /// refusal, so rollback time is accounted separately.
    reserve_start: Option<Instant>,
    /// Set at the first refusal; the engine records the rollback
    /// histogram from it once the core's walk returns.
    rollback_start: Option<Instant>,
}

impl HopDriver for ShardDriver<'_, '_> {
    type Error = EngineError;

    fn admit(
        &mut self,
        _index: usize,
        hop: &PlannedHop,
        request: ConnectionRequest,
    ) -> Result<AdmissionDecision, EngineError> {
        let decision = self
            .guards
            .get_mut(&hop.node)
            .ok_or(EngineError::NoSwitchAt(hop.node))?
            .admit(self.id, request)?;
        if !decision.is_admitted() {
            self.metrics
                .record_since(self.reserve_start.take(), &self.metrics.reserve_ns);
            self.rollback_start = self.metrics.start();
        }
        Ok(decision)
    }

    fn rollback(&mut self, node: NodeId) -> Result<(), EngineError> {
        undo_reserve(self.guards, self.pre_epochs, node, self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_bitstream::{CbrParams, Rate, TrafficContract};
    use rtcac_net::builders;
    use rtcac_rational::ratio;
    use rtcac_signaling::{Network, SetupOutcome};

    fn cbr(num: i128, den: i128) -> TrafficContract {
        TrafficContract::cbr(CbrParams::new(Rate::new(ratio(num, den))).unwrap())
    }

    fn line_engine(switches: usize, bound: i128) -> (AdmissionEngine, Route) {
        let (topology, src, sw, dst) = builders::line(switches).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(bound)).unwrap();
        let route = Route::from_nodes(
            &topology,
            std::iter::once(src)
                .chain(sw.iter().copied())
                .chain(std::iter::once(dst)),
        )
        .unwrap();
        (
            AdmissionEngine::new(topology, config, CdvPolicy::Hard),
            route,
        )
    }

    #[test]
    fn admit_and_release_roundtrip() {
        let (engine, route) = line_engine(3, 32);
        let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(200));
        let id = match engine.admit(&route, req).unwrap() {
            EngineOutcome::Admitted {
                id,
                guaranteed_delay,
            } => {
                assert_eq!(guaranteed_delay, Time::from_integer(96));
                id
            }
            other => panic!("expected admission, got {other:?}"),
        };
        assert_eq!(engine.connection_count(), 1);
        assert_eq!(engine.guaranteed_delay(id), Some(Time::from_integer(96)));
        for (node, _) in route.queueing_points(engine.topology()).unwrap() {
            assert_eq!(engine.shard_connection_count(node).unwrap(), 1);
        }
        engine.release(id).unwrap();
        assert_eq!(engine.connection_count(), 0);
        for (node, _) in route.queueing_points(engine.topology()).unwrap() {
            assert_eq!(engine.shard_connection_count(node).unwrap(), 0);
        }
        let stats = engine.stats();
        assert_eq!((stats.admitted, stats.released), (1, 1));
    }

    #[test]
    fn qos_gate_rejects_impossible_bounds() {
        let (engine, route) = line_engine(3, 32);
        let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(50));
        match engine.admit(&route, req).unwrap() {
            EngineOutcome::Rejected {
                rejection:
                    SetupRejection::QosUnsatisfiable {
                        requested,
                        achievable,
                    },
                ..
            } => {
                assert_eq!(requested, Time::from_integer(50));
                assert_eq!(achievable, Time::from_integer(96));
            }
            other => panic!("expected qos rejection, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!((stats.rejected, stats.aborted), (1, 0));
    }

    #[test]
    fn mid_route_rejection_rolls_back_and_counts_abort() {
        // Pre-load the destination switch's terminal downlink with
        // local traffic, then push a two-hop setup into it: hop 1 (the
        // source ring node, whose links are free) reserves, hop 2
        // refuses on the saturated downlink, and the reservation must
        // be rolled back and counted as an abort — disjoint from plain
        // rejections.
        let sr = builders::star_ring(4, 2).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
        let engine = AdmissionEngine::new(sr.topology().clone(), config, CdvPolicy::Hard);
        for _ in 0..2 {
            let local = sr.terminal_route((1, 1), (1, 0)).unwrap();
            let req = SetupRequest::new(cbr(2, 5), Priority::HIGHEST, Time::from_integer(500));
            assert!(engine.admit(&local, req).unwrap().is_admitted());
        }
        let cross = sr.terminal_route((0, 0), (1, 0)).unwrap();
        let req = SetupRequest::new(cbr(2, 5), Priority::HIGHEST, Time::from_integer(500));
        match engine.admit(&cross, req).unwrap() {
            EngineOutcome::Rejected {
                rejection:
                    SetupRejection::Switch {
                        at,
                        hops_rolled_back,
                        ..
                    },
                ..
            } => {
                assert_eq!(at, sr.ring_nodes()[1]);
                assert_eq!(hops_rolled_back, 1, "hop 1 was reserved and rolled back");
            }
            other => panic!("expected a mid-route switch rejection, got {other:?}"),
        }
        // Every shard holds exactly the committed connections — no
        // half-reserved leftovers on the rolled-back ring node.
        for (node, _) in cross.queueing_points(engine.topology()).unwrap() {
            let expected = usize::from(node == sr.ring_nodes()[1]) * 2;
            assert_eq!(engine.shard_connection_count(node).unwrap(), expected);
        }
        let stats = engine.stats();
        assert_eq!((stats.admitted, stats.aborted, stats.rejected), (2, 1, 0));
        assert_eq!(
            stats.admitted + stats.rejected + stats.aborted,
            stats.submitted,
            "every submitted setup must land in exactly one outcome"
        );
    }

    #[test]
    fn explicit_registry_records_phase_timings_and_outcome_counters() {
        let (topology, src, sw, dst) = builders::line(3).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(32)).unwrap();
        let route = Route::from_nodes(
            &topology,
            std::iter::once(src)
                .chain(sw.iter().copied())
                .chain(std::iter::once(dst)),
        )
        .unwrap();
        let registry = std::sync::Arc::new(rtcac_obs::Registry::new());
        let engine = AdmissionEngine::with_registry(
            topology,
            config,
            CdvPolicy::Hard,
            std::sync::Arc::clone(&registry),
        );
        for _ in 0..4 {
            let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(200));
            engine.admit(&route, req).unwrap();
        }
        let snap = registry.snapshot();
        let submitted = snap.counter("engine_setups_submitted_total").unwrap();
        assert_eq!(submitted, 4);
        assert_eq!(
            submitted,
            snap.counter("engine_setups_admitted_total").unwrap_or(0)
                + snap.counter("engine_setups_rejected_total").unwrap_or(0)
                + snap.counter("engine_setups_aborted_total").unwrap_or(0)
        );
        let reserve = snap.histogram("engine_reserve_ns").unwrap();
        assert_eq!(reserve.count, 4);
        assert!(reserve.max > 0, "reserving must take measurable time");
        let admitted = snap.counter("engine_setups_admitted_total").unwrap();
        assert_eq!(snap.histogram("engine_commit_ns").unwrap().count, admitted);
        // Every shard on the route was locked once per setup.
        let lock_waits: u64 = snap
            .histograms_named("engine_shard_lock_wait_ns")
            .map(|(_, h)| h.count)
            .sum();
        assert_eq!(lock_waits, 4 * 3);
        // The obs counters agree with the engine's own totals.
        let stats = engine.stats();
        assert_eq!(submitted, stats.submitted);
        assert_eq!(admitted, stats.admitted);
    }

    #[test]
    fn lock_watchdog_records_holds_and_fires_at_zero_threshold() {
        let (topology, src, _sw, dst) = builders::line(3).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
        let route = topology.shortest_route(src, dst).unwrap();
        let registry = std::sync::Arc::new(rtcac_obs::Registry::new());
        let engine = AdmissionEngine::with_registry(
            topology,
            config,
            CdvPolicy::Hard,
            std::sync::Arc::clone(&registry),
        );

        // Under the default (100 ms) threshold, holds are recorded but
        // none counts as long.
        assert_eq!(engine.lock_hold_threshold_ns(), 100_000_000);
        let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(500));
        engine.admit(&route, req).unwrap();
        let snap = registry.snapshot();
        let holds = snap.histogram("engine_lock_hold_ns").unwrap();
        assert!(holds.count > 0, "shard-lock holds must be recorded");
        assert!(holds.max > 0, "a hold takes measurable time");
        assert_eq!(snap.counter("engine_lock_hold_long_total").unwrap_or(0), 0);

        // At threshold zero every positive hold is long — the counter
        // must fire, proving the watchdog path is live and the quiet
        // assertions elsewhere are not vacuous.
        engine.set_lock_hold_threshold_ns(0);
        assert_eq!(engine.lock_hold_threshold_ns(), 0);
        engine.admit(&route, req).unwrap();
        let snap = registry.snapshot();
        assert!(
            snap.counter("engine_lock_hold_long_total").unwrap_or(0) > 0,
            "threshold 0 must flag every hold as long"
        );
    }

    #[test]
    fn rejections_leave_exemplars_and_audits_fire_the_anomaly_hook() {
        use std::sync::atomic::AtomicUsize;

        let (topology, src, _sw, dst) = builders::line(3).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
        let route = topology.shortest_route(src, dst).unwrap();
        let registry = std::sync::Arc::new(rtcac_obs::Registry::new());
        let mut engine = AdmissionEngine::with_registry(
            topology,
            config,
            CdvPolicy::Hard,
            std::sync::Arc::clone(&registry),
        );
        engine.set_tracer(rtcac_obs::Tracer::new(rtcac_obs::Sampling::Always));

        // An impossible delay bound forces a qos rejection; the
        // exemplar slot must then carry the rejected setup's trace id.
        let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(1));
        match engine.admit(&route, req).unwrap() {
            EngineOutcome::Rejected { .. } => {}
            other => panic!("expected qos rejection, got {other:?}"),
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_with("engine_rejections_total", &[("reason", "qos")]),
            Some(1)
        );
        let exemplar = snap
            .exemplars
            .iter()
            .find(|(id, _)| {
                id.name() == "engine_rejections_total"
                    && id.labels() == [("reason".to_owned(), "qos".to_owned())]
            })
            .map(|&(_, raw)| raw);
        let raw = exemplar.expect("qos rejection must leave an exemplar");
        assert!(raw > 0, "trace ids are never zero");
        // The exposition surfaces it in both formats.
        assert!(snap.to_prometheus().contains(&format!(
            "# exemplar engine_rejections_total{{reason=\"qos\"}} trace=t{raw}"
        )));
        assert!(snap.to_json().contains(&format!("\"t{raw}\"")));

        // The anomaly hook fires from the watchdog (threshold 0) and
        // carries a reason string the flight recorder latches on.
        let fired = std::sync::Arc::new(AtomicUsize::new(0));
        let seen = std::sync::Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let (fired2, seen2) = (std::sync::Arc::clone(&fired), std::sync::Arc::clone(&seen));
        engine.set_anomaly_hook(std::sync::Arc::new(move |reason, _detail| {
            fired2.fetch_add(1, Ordering::Relaxed);
            seen2.lock().unwrap().push(reason);
        }));
        engine.set_lock_hold_threshold_ns(0);
        let ok = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(500));
        engine.admit(&route, ok).unwrap();
        assert!(fired.load(Ordering::Relaxed) > 0, "watchdog must fire hook");
        assert!(seen.lock().unwrap().contains(&"lock_hold"));
        // Clean audits stay silent.
        engine.set_lock_hold_threshold_ns(DEFAULT_LOCK_HOLD_THRESHOLD_NS);
        let before = fired.load(Ordering::Relaxed);
        assert_eq!(engine.publish_orphan_audit(), 0);
        assert!(engine.verify_guarantees().unwrap().is_empty());
        assert_eq!(fired.load(Ordering::Relaxed), before);
    }

    #[test]
    fn audit_reports_every_connection_on_a_violated_port() {
        // Four connections from three hosts converge on the center's
        // port to h0; a fifth runs the other way on its own port.
        let (topology, center, hosts) = builders::star(4).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
        let engine = AdmissionEngine::new(topology.clone(), config, CdvPolicy::Hard);
        let route = |from: NodeId, to: NodeId| Route::from_nodes(&topology, [from, center, to]);
        let req = SetupRequest::new(cbr(1, 4), Priority::HIGHEST, Time::from_integer(500));
        for from in [hosts[1], hosts[1], hosts[2], hosts[3]] {
            let to_h0 = route(from, hosts[0]).unwrap();
            assert!(engine.admit(&to_h0, req).unwrap().is_admitted());
        }
        let from_h0 = route(hosts[0], hosts[1]).unwrap();
        assert!(engine.admit(&from_h0, req).unwrap().is_admitted());
        assert!(engine.verify_guarantees().unwrap().is_empty());

        // Advertise a bound below what the converging port computes.
        let tight = Time::from_integer(1);
        let (_, port) = route(hosts[1], hosts[0])
            .unwrap()
            .queueing_points(&topology)
            .unwrap()[0];
        let computed = engine
            .computed_bound(center, port, Priority::HIGHEST)
            .unwrap();
        assert!(computed > tight, "the port must queue: {computed}");
        let mut state = engine.export_state();
        let shard = state.switches.iter_mut().find(|s| s.node == center);
        shard.unwrap().config = SwitchConfig::uniform(1, tight).unwrap();

        match AdmissionEngine::from_state(topology, &state) {
            Err(EngineError::RestoreRefused(why)) => assert!(
                why.starts_with("4 guarantee violation(s)"),
                "every connection on the port must be reported: {why}"
            ),
            Err(e) => panic!("expected a guarantee refusal, got {e}"),
            Ok(_) => panic!("a state over its advertised bound must be refused"),
        }
    }

    #[test]
    fn serial_parity_with_signaling_network() {
        let (topology, src, sw, dst) = builders::line(3).unwrap();
        let config = SwitchConfig::uniform(2, Time::from_integer(64)).unwrap();
        let route = Route::from_nodes(
            &topology,
            std::iter::once(src)
                .chain(sw.iter().copied())
                .chain(std::iter::once(dst)),
        )
        .unwrap();
        let engine = AdmissionEngine::new(topology.clone(), config.clone(), CdvPolicy::SoftSqrt);
        let mut net = Network::new(topology, config, CdvPolicy::SoftSqrt);
        // Drive identical request sequences through both; the outcomes
        // must agree pairwise.
        for k in 1..=8 {
            let req = SetupRequest::new(
                cbr(1, 4 + i128::from(k % 3)),
                Priority::new(u8::from(k % 2 == 0)),
                Time::from_integer(500),
            );
            let via_engine = engine.admit(&route, req).unwrap();
            let via_net = net.setup(&route, req).unwrap();
            match (&via_engine, &via_net) {
                (EngineOutcome::Admitted { .. }, SetupOutcome::Connected(_)) => {}
                (EngineOutcome::Rejected { rejection: a, .. }, SetupOutcome::Rejected(b)) => {
                    assert_eq!(a, b)
                }
                (a, b) => panic!("engine said {a:?}, network said {b:?}"),
            }
        }
        assert_eq!(engine.connection_count(), net.connections().count());
    }

    #[test]
    fn duplicate_id_is_an_error() {
        let (engine, route) = line_engine(1, 64);
        let req = SetupRequest::new(cbr(1, 16), Priority::HIGHEST, Time::from_integer(500));
        let id = engine.allocate_id();
        assert!(engine.admit_with_id(id, &route, req).unwrap().is_admitted());
        assert_eq!(
            engine.admit_with_id(id, &route, req),
            Err(EngineError::DuplicateConnection(id))
        );
        assert_eq!(
            engine.release(ConnectionId::new(999)),
            Err(EngineError::UnknownConnection(ConnectionId::new(999)))
        );
    }

    #[test]
    fn drain_mode_rejects_new_setups() {
        let (engine, route) = line_engine(2, 64);
        engine.set_draining(true);
        assert!(engine.is_draining());
        let req = SetupRequest::new(cbr(1, 16), Priority::HIGHEST, Time::from_integer(500));
        match engine.admit(&route, req).unwrap() {
            EngineOutcome::Rejected {
                rejection: SetupRejection::Draining,
                ..
            } => {}
            other => panic!("expected a draining rejection, got {other:?}"),
        }
        engine.set_draining(false);
        assert!(engine.admit(&route, req).unwrap().is_admitted());
        let stats = engine.stats();
        assert_eq!((stats.rejected, stats.admitted), (1, 1));
        assert_eq!(stats.submitted, stats.rejected + stats.admitted);
    }

    #[test]
    fn link_failure_forces_release_and_reroutes_new_setups() {
        let sr = builders::dual_star_ring(4, 1).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
        let engine = AdmissionEngine::new(sr.topology().clone(), config, CdvPolicy::Hard);
        let route = sr.terminal_route((0, 0), (1, 0)).unwrap();
        let req = SetupRequest::new(cbr(1, 16), Priority::HIGHEST, Time::from_integer(500));
        let id = match engine.admit(&route, req).unwrap() {
            EngineOutcome::Admitted { id, .. } => id,
            other => panic!("expected admission, got {other:?}"),
        };
        let dead = sr.ring_link(0).unwrap();
        let impact = engine.fail_link(dead).unwrap();
        assert!(impact.is_changed());
        assert_eq!(impact.torn_down(), &[id]);
        assert_eq!(engine.connection_count(), 0);
        assert!(engine.orphaned_reservations().is_empty());
        assert!(!engine.link_usable(dead).unwrap());
        // Idempotent: failing an already-failed link changes nothing.
        assert!(!engine.fail_link(dead).unwrap().is_changed());
        // A fresh setup over the dead primary is rerouted onto the
        // counter-rotating ring.
        match engine.admit(&route, req).unwrap() {
            EngineOutcome::Rerouted {
                route: alt,
                attempts,
                ..
            } => {
                assert!(attempts >= 1);
                assert!(!alt.links().contains(&dead));
            }
            other => panic!("expected a reroute, got {other:?}"),
        }
        assert!(engine.heal_link(dead).unwrap());
        assert!(!engine.heal_link(dead).unwrap());
        let stats = engine.stats();
        assert_eq!(
            (stats.failed_over, stats.rerouted, stats.admitted),
            (1, 1, 1)
        );
        assert_eq!(
            stats.submitted,
            stats.admitted + stats.rejected + stats.aborted + stats.errored + stats.rerouted
        );
        assert!(engine.health_epoch() >= 2);
        assert!(engine.verify_guarantees().unwrap().is_empty());
    }

    #[test]
    fn node_failure_tears_down_transit_connections_only() {
        let sr = builders::dual_star_ring(4, 1).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
        let engine = AdmissionEngine::new(sr.topology().clone(), config, CdvPolicy::Hard);
        let req = SetupRequest::new(cbr(1, 16), Priority::HIGHEST, Time::from_integer(500));
        // Crosses ring node 1 in transit; the second route does not.
        let transit = sr.terminal_route((0, 0), (2, 0)).unwrap();
        let clear = sr.terminal_route((3, 0), (0, 0)).unwrap();
        let transit_id = match engine.admit(&transit, req).unwrap() {
            EngineOutcome::Admitted { id, .. } => id,
            other => panic!("expected admission, got {other:?}"),
        };
        assert!(engine.admit(&clear, req).unwrap().is_admitted());
        let impact = engine.fail_node(sr.ring_nodes()[1]).unwrap();
        assert!(impact.is_changed());
        assert_eq!(impact.torn_down(), &[transit_id]);
        assert_eq!(engine.connection_count(), 1);
        assert!(engine.orphaned_reservations().is_empty());
        assert!(engine.heal_node(sr.ring_nodes()[1]).unwrap());
        assert!(!engine.heal_node(sr.ring_nodes()[1]).unwrap());
        assert_eq!(engine.stats().failed_over, 1);
    }

    #[test]
    fn failure_between_reserve_and_commit_reroutes() {
        let sr = builders::dual_star_ring(4, 1).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
        let registry = std::sync::Arc::new(rtcac_obs::Registry::new());
        let engine = AdmissionEngine::with_registry(
            sr.topology().clone(),
            config,
            CdvPolicy::Hard,
            std::sync::Arc::clone(&registry),
        );
        let route = sr.terminal_route((0, 0), (1, 0)).unwrap();
        let dead = sr.ring_link(0).unwrap();
        *engine.test_fail_after_reserve.lock().unwrap() = Some(dead);
        let req = SetupRequest::new(cbr(1, 16), Priority::HIGHEST, Time::from_integer(500));
        match engine.admit(&route, req).unwrap() {
            EngineOutcome::Rerouted {
                route: alt,
                attempts,
                ..
            } => {
                assert_eq!(attempts, 1);
                assert!(!alt.links().contains(&dead));
            }
            other => panic!("expected a reroute, got {other:?}"),
        }
        // The aborted reserve left no residue: every shard reservation
        // belongs to the committed (alternate) route.
        assert!(engine.orphaned_reservations().is_empty());
        let stats = engine.stats();
        assert_eq!((stats.submitted, stats.rerouted, stats.admitted), (1, 1, 0));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine_setups_rerouted_total"), Some(1));
        assert_eq!(snap.histogram("engine_reroute_ns").unwrap().count, 1);
    }

    #[test]
    fn dead_route_without_alternate_is_rejected_route_down() {
        let (engine, route) = line_engine(2, 64);
        let dead = route.links()[1];
        assert!(engine.fail_link(dead).unwrap().is_changed());
        let req = SetupRequest::new(cbr(1, 16), Priority::HIGHEST, Time::from_integer(500));
        match engine.admit(&route, req).unwrap() {
            EngineOutcome::Rejected {
                rejection: SetupRejection::RouteDown { link },
                ..
            } => assert_eq!(link, dead),
            other => panic!("expected a route-down rejection, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!((stats.rejected, stats.submitted), (1, 1));
    }

    #[test]
    fn verify_guarantees_holds_for_committed_state() {
        let (engine, route) = line_engine(3, 32);
        for _ in 0..2 {
            let req = SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(200));
            assert!(engine.admit(&route, req).unwrap().is_admitted());
        }
        assert!(engine.verify_guarantees().unwrap().is_empty());
        assert!(engine.orphaned_reservations().is_empty());
    }

    #[test]
    fn multicast_roundtrip_through_the_shared_core() {
        let sr = builders::star_ring(4, 1).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
        let engine = AdmissionEngine::new(sr.topology().clone(), config, CdvPolicy::Hard);
        let tree = sr.broadcast_tree(0, 0).unwrap();
        let req = SetupRequest::new(cbr(1, 16), Priority::HIGHEST, Time::from_integer(2_000));
        let id = match engine.admit_multicast(&tree, req).unwrap() {
            EngineOutcome::Admitted {
                id,
                guaranteed_delay,
            } => {
                assert!(guaranteed_delay > Time::ZERO);
                id
            }
            other => panic!("expected admission, got {other:?}"),
        };
        // One bound per leaf terminal (the three other terminals).
        let per_leaf = engine.per_leaf_bounds(id).unwrap();
        assert_eq!(per_leaf.len(), 3);
        assert!(per_leaf.iter().all(|&(_, d)| d > Time::ZERO));
        assert_eq!(engine.publish_orphan_audit(), 0);
        assert!(engine.verify_guarantees().unwrap().is_empty());
        engine.release(id).unwrap();
        assert_eq!(engine.connection_count(), 0);
        assert_eq!(engine.publish_orphan_audit(), 0);
        let stats = engine.stats();
        assert_eq!(
            (
                stats.mcast_submitted,
                stats.mcast_admitted,
                stats.mcast_rejected
            ),
            (1, 1, 0)
        );
        assert_eq!((stats.submitted, stats.admitted, stats.released), (1, 1, 1));
    }

    #[test]
    fn link_failure_tears_down_tree_connections() {
        let sr = builders::star_ring(4, 1).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
        let engine = AdmissionEngine::new(sr.topology().clone(), config, CdvPolicy::Hard);
        let tree = sr.broadcast_tree(0, 0).unwrap();
        let req = SetupRequest::new(cbr(1, 16), Priority::HIGHEST, Time::from_integer(2_000));
        let id = match engine.admit_multicast(&tree, req).unwrap() {
            EngineOutcome::Admitted { id, .. } => id,
            other => panic!("expected admission, got {other:?}"),
        };
        let dead = sr.ring_link(1).unwrap();
        assert!(tree.links().contains(&dead), "tree must cross the ring");
        let impact = engine.fail_link(dead).unwrap();
        assert_eq!(impact.torn_down(), &[id]);
        assert_eq!(engine.connection_count(), 0);
        assert!(engine.orphaned_reservations().is_empty());
        // A fresh tree over the dead link is refused route-down — the
        // engine has no alternate-tree crankback.
        match engine.admit_multicast(&tree, req).unwrap() {
            EngineOutcome::Rejected {
                rejection: SetupRejection::RouteDown { link },
                ..
            } => assert_eq!(link, dead),
            other => panic!("expected a route-down rejection, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!((stats.failed_over, stats.mcast_rejected), (1, 1));
        assert_eq!(
            stats.submitted,
            stats.admitted + stats.rejected + stats.aborted + stats.errored + stats.rerouted
        );
    }

    #[test]
    fn epoch_advances_on_commit_and_release() {
        let (engine, route) = line_engine(1, 64);
        let node = route.queueing_points(engine.topology()).unwrap()[0].0;
        let before = engine.shard_epoch(node).unwrap();
        let req = SetupRequest::new(cbr(1, 16), Priority::HIGHEST, Time::from_integer(500));
        let id = match engine.admit(&route, req).unwrap() {
            EngineOutcome::Admitted { id, .. } => id,
            other => panic!("expected admission, got {other:?}"),
        };
        let mid = engine.shard_epoch(node).unwrap();
        assert!(mid > before);
        engine.release(id).unwrap();
        assert!(engine.shard_epoch(node).unwrap() > mid);
    }
}
