//! The chaos harness: churn an [`AdmissionEngine`] with setups and
//! releases while replaying a [`FaultPlan`], auditing the engine's
//! safety invariants the whole way.

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract};
use rtcac_cac::{ConnectionId, Priority};
use rtcac_engine::{AdmissionEngine, EngineError, EngineOutcome, EngineStats};
use rtcac_net::{MulticastTree, NodeId, SimRng, Topology};
use rtcac_rational::ratio;
use rtcac_signaling::SetupRequest;

use crate::plan::{FaultEvent, FaultPlan};

/// New setups submitted per chaos step.
const SETUPS_PER_STEP: u64 = 2;

/// Percent chance per step of releasing one live connection.
const RELEASE_PERCENT: u64 = 30;

/// Percent chance per step of submitting one point-to-multipoint setup
/// (a shortest-path tree from a random root terminal to two random
/// leaves) through [`AdmissionEngine::admit_multicast`].
const MCAST_PERCENT: u64 = 20;

/// What a chaos run did and what the final audits found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Setups committed on their submitted route.
    pub admitted: u64,
    /// Setups committed on a crankback alternate.
    pub rerouted: u64,
    /// Setups refused (capacity, QoS, or no surviving route).
    pub rejected: u64,
    /// Point-to-multipoint setups committed on their submitted tree.
    pub mcast_admitted: u64,
    /// Point-to-multipoint setups refused (trees have no crankback,
    /// so a dead tree is refused outright).
    pub mcast_rejected: u64,
    /// Connections released by the traffic churn.
    pub released: u64,
    /// Connections force-released by element failures.
    pub torn_down: u64,
    /// Effective link failures replayed from the plan.
    pub link_failures: u64,
    /// Effective link heals replayed from the plan.
    pub link_heals: u64,
    /// Effective node failures replayed from the plan.
    pub node_failures: u64,
    /// Effective node heals replayed from the plan.
    pub node_heals: u64,
    /// Orphaned shard reservations observed right after any fault
    /// event (must stay 0: failover releases at every surviving hop).
    pub orphan_violations: u64,
    /// Orphaned shard reservations at the end of the run (must be 0).
    pub orphans_final: u64,
    /// Guarantee violations found by the final
    /// [`AdmissionEngine::verify_guarantees`] audit (must be 0): every
    /// surviving connection's recomputed Algorithm 4.1 bound still
    /// meets its contracted delay.
    pub guarantee_violations: u64,
    /// Connections still established when the run ended.
    pub live_final: u64,
    /// The engine's terminal counters.
    pub stats: EngineStats,
}

impl ChaosReport {
    /// Whether the run upheld the engine's safety invariants: no
    /// orphaned reservations (during or after), no violated delay
    /// guarantees, and terminal-counter conservation — overall
    /// (`submitted == admitted + rejected + aborted + errored +
    /// rerouted`) and for the multicast subset
    /// (`mcast_submitted == mcast_admitted + mcast_rejected`).
    pub fn invariants_hold(&self) -> bool {
        self.orphan_violations == 0
            && self.orphans_final == 0
            && self.guarantee_violations == 0
            && self.stats.submitted
                == self.stats.admitted
                    + self.stats.rejected
                    + self.stats.aborted
                    + self.stats.errored
                    + self.stats.rerouted
            && self.stats.mcast_submitted == self.stats.mcast_admitted + self.stats.mcast_rejected
    }

    /// A human-readable multi-line summary.
    pub fn summary(&self) -> String {
        format!(
            "chaos: admitted={} rerouted={} rejected={} mcast={}/{} released={} torn_down={}\n\
             faults: link {}/{} down/up, node {}/{} down/up\n\
             audits: orphans(mid)={} orphans(final)={} guarantee_violations={} live={}\n\
             invariants: {}",
            self.admitted,
            self.rerouted,
            self.rejected,
            self.mcast_admitted,
            self.mcast_admitted + self.mcast_rejected,
            self.released,
            self.torn_down,
            self.link_failures,
            self.link_heals,
            self.node_failures,
            self.node_heals,
            self.orphan_violations,
            self.orphans_final,
            self.guarantee_violations,
            self.live_final,
            if self.invariants_hold() {
                "OK"
            } else {
                "VIOLATED"
            }
        )
    }
}

/// One traffic decision made during a chaos run, in submission order.
///
/// The log is the basis of the kill-and-restore proof: a run that is
/// killed at step `k` and continued on a restored engine must produce
/// exactly this sequence from step `k` on — same ids, same outcomes —
/// as a run that was never killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosDecision {
    /// A unicast setup committed on its submitted route.
    Admitted(ConnectionId),
    /// A unicast setup committed on a crankback alternate.
    Rerouted(ConnectionId),
    /// A unicast setup refused.
    Rejected,
    /// A point-to-multipoint setup committed.
    McastAdmitted(ConnectionId),
    /// A point-to-multipoint setup refused.
    McastRejected,
    /// A live connection released by the churn.
    Released(ConnectionId),
}

/// The mutable state of a chaos run, carried across
/// [`run_chaos_segment`] calls so a run can be paused (e.g. while the
/// engine is killed and restored from a snapshot) and then continued
/// deterministically.
#[derive(Debug, Clone)]
pub struct ChaosState {
    rng: SimRng,
    live: Vec<ConnectionId>,
    cursor: usize,
    step: u64,
    report: ChaosReport,
    decisions: Vec<ChaosDecision>,
}

impl ChaosState {
    /// Fresh state for a run whose traffic stream (setup/release
    /// choices) is drawn from `seed`. The fault plan carries its own
    /// seed.
    pub fn new(seed: u64) -> ChaosState {
        ChaosState {
            rng: SimRng::seed_from_u64(seed),
            live: Vec::new(),
            cursor: 0,
            step: 0,
            report: ChaosReport::default(),
            decisions: Vec::new(),
        }
    }

    /// Steps executed so far.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Connections currently established by the churn.
    pub fn live(&self) -> &[ConnectionId] {
        &self.live
    }

    /// Every traffic decision made so far, in submission order.
    pub fn decisions(&self) -> &[ChaosDecision] {
        &self.decisions
    }
}

/// Ordered `(source, destination)` end-system pairs for chaos traffic:
/// each end system paired with its successor and with the end system
/// half-way around, so routes of several lengths are exercised.
pub fn endpoint_pairs(topology: &Topology) -> Vec<(NodeId, NodeId)> {
    let terminals: Vec<NodeId> = topology.end_systems().map(|n| n.id()).collect();
    let n = terminals.len();
    if n < 2 {
        return Vec::new();
    }
    let mut pairs = Vec::new();
    for (i, &from) in terminals.iter().enumerate() {
        pairs.push((from, terminals[(i + 1) % n]));
        pairs.push((from, terminals[(i + n / 2) % n]));
    }
    pairs.retain(|(a, b)| a != b);
    pairs
}

/// Runs one chaos session of `steps` steps against `engine`, its
/// traffic drawn from `seed`: per step, replays the due [`FaultPlan`]
/// events (auditing for orphaned reservations after each), submits
/// fresh setups between random `endpoints` (plus the occasional
/// point-to-multipoint tree), and occasionally releases a live
/// connection. Routes and trees are looked up on the pristine
/// topology, so setups submitted over a failed element exercise the
/// engine's crankback (unicast) or health-gated refusal (trees).
///
/// # Errors
///
/// Returns [`EngineError`] only for API-level failures (a plan or
/// endpoint list not belonging to the engine's topology); rejections
/// and failed routes are counted, not raised.
pub fn run_chaos(
    engine: &AdmissionEngine,
    endpoints: &[(NodeId, NodeId)],
    plan: &FaultPlan,
    seed: u64,
    steps: u64,
) -> Result<ChaosReport, EngineError> {
    let mut state = ChaosState::new(seed);
    run_chaos_segment(engine, endpoints, plan, &mut state, steps)?;
    finish_report(engine, &state)
}

/// Runs `steps` further chaos steps against `engine`, continuing from
/// (and mutating) `state`. Splitting a run into segments with the same
/// total step count is behavior-identical to one whole run — the RNG,
/// live list, plan cursor and decision log all travel in `state` — so a
/// caller can cut a run anywhere, kill and restore the engine, and
/// resume.
///
/// # Errors
///
/// As [`run_chaos`].
pub fn run_chaos_segment(
    engine: &AdmissionEngine,
    endpoints: &[(NodeId, NodeId)],
    plan: &FaultPlan,
    state: &mut ChaosState,
    steps: u64,
) -> Result<(), EngineError> {
    let rng = &mut state.rng;
    let live = &mut state.live;
    let cursor = &mut state.cursor;
    let report = &mut state.report;
    let decisions = &mut state.decisions;
    let terminals: Vec<NodeId> = engine.topology().end_systems().map(|n| n.id()).collect();
    for step in state.step..state.step + steps {
        // Replay every fault event due at this step. Each replayed
        // event gets its own span tagged with the fault epoch before
        // and after, so admission traces (which carry `fault_epoch`)
        // can be correlated with the fault that bracketed them.
        while *cursor < plan.events().len() && plan.events()[*cursor].0 <= step {
            let (_, event) = plan.events()[*cursor];
            *cursor += 1;
            let mut ctx = engine.tracer().start("chaos.fault");
            if ctx.is_live() {
                ctx.attr("step", step.to_string());
                ctx.attr("fault_epoch", engine.health_epoch().to_string());
            }
            match event {
                FaultEvent::LinkDown(link) => {
                    let impact = engine.fail_link(link)?;
                    report.link_failures += u64::from(impact.is_changed());
                    report.torn_down += impact.torn_down().len() as u64;
                    live.retain(|id| !impact.torn_down().contains(id));
                    ctx.event(
                        "fault",
                        format!("link {link} down: tore down {}", impact.torn_down().len()),
                    );
                }
                FaultEvent::LinkUp(link) => {
                    report.link_heals += u64::from(engine.heal_link(link)?);
                    ctx.event("fault", format!("link {link} up"));
                }
                FaultEvent::NodeDown(node) => {
                    let impact = engine.fail_node(node)?;
                    report.node_failures += u64::from(impact.is_changed());
                    report.torn_down += impact.torn_down().len() as u64;
                    live.retain(|id| !impact.torn_down().contains(id));
                    ctx.event(
                        "fault",
                        format!("node {node} down: tore down {}", impact.torn_down().len()),
                    );
                }
                FaultEvent::NodeUp(node) => {
                    report.node_heals += u64::from(engine.heal_node(node)?);
                    ctx.event("fault", format!("node {node} up"));
                }
            }
            if ctx.is_live() {
                ctx.attr("fault_epoch_after", engine.health_epoch().to_string());
            }
            ctx.finish(false);
            report.orphan_violations += engine.orphaned_reservations().len() as u64;
        }

        // Traffic churn: submit fresh setups over the pristine-route
        // lookup (the engine reroutes around dead elements itself)…
        if !endpoints.is_empty() {
            for _ in 0..SETUPS_PER_STEP {
                let (from, to) = endpoints[rng.gen_below(endpoints.len() as u64) as usize];
                let Ok(route) = engine
                    .topology()
                    .shortest_route_avoiding(from, to, &[], &[])
                else {
                    continue;
                };
                // Power-of-two denominators keep the exact-rational
                // aggregates' common denominator bounded no matter how
                // many streams multiplex.
                let denominator = 8i128 << rng.gen_below(4);
                let contract = TrafficContract::cbr(
                    CbrParams::new(Rate::new(ratio(1, denominator)))
                        .expect("chaos CBR rate is valid"),
                );
                let request =
                    SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(1_000_000));
                match engine.admit(&route, request)? {
                    EngineOutcome::Admitted { id, .. } => {
                        report.admitted += 1;
                        live.push(id);
                        decisions.push(ChaosDecision::Admitted(id));
                    }
                    EngineOutcome::Rerouted { id, .. } => {
                        report.rerouted += 1;
                        live.push(id);
                        decisions.push(ChaosDecision::Rerouted(id));
                    }
                    EngineOutcome::Rejected { .. } => {
                        report.rejected += 1;
                        decisions.push(ChaosDecision::Rejected);
                    }
                }
            }
        }

        // …sometimes fan one stream out to a pair of leaves…
        if terminals.len() >= 3 && rng.gen_below(100) < MCAST_PERCENT {
            let root = terminals[rng.gen_below(terminals.len() as u64) as usize];
            let mut leaves: Vec<NodeId> = Vec::new();
            for _ in 0..2 {
                let leaf = terminals[rng.gen_below(terminals.len() as u64) as usize];
                if leaf != root && !leaves.contains(&leaf) {
                    leaves.push(leaf);
                }
            }
            if let Ok(tree) = MulticastTree::shortest_tree(engine.topology(), root, &leaves) {
                let contract = TrafficContract::cbr(
                    CbrParams::new(Rate::new(ratio(1, 16))).expect("chaos CBR rate is valid"),
                );
                let request =
                    SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(1_000_000));
                match engine.admit_multicast(&tree, request)? {
                    EngineOutcome::Admitted { id, .. } | EngineOutcome::Rerouted { id, .. } => {
                        report.mcast_admitted += 1;
                        live.push(id);
                        decisions.push(ChaosDecision::McastAdmitted(id));
                    }
                    EngineOutcome::Rejected { .. } => {
                        report.mcast_rejected += 1;
                        decisions.push(ChaosDecision::McastRejected);
                    }
                }
            }
        }

        // …and occasionally hang up.
        if !live.is_empty() && rng.gen_below(100) < RELEASE_PERCENT {
            let id = live.swap_remove(rng.gen_below(live.len() as u64) as usize);
            engine.release(id)?;
            report.released += 1;
            decisions.push(ChaosDecision::Released(id));
        }
    }

    state.step += steps;
    Ok(())
}

/// Runs the end-of-run audits against `engine` (orphaned reservations,
/// [`AdmissionEngine::verify_guarantees`]) and merges them with the
/// counters accumulated in `state` into a final [`ChaosReport`].
///
/// # Errors
///
/// As [`run_chaos`].
pub fn finish_report(
    engine: &AdmissionEngine,
    state: &ChaosState,
) -> Result<ChaosReport, EngineError> {
    let mut report = state.report.clone();
    report.orphans_final = engine.orphaned_reservations().len() as u64;
    report.guarantee_violations = engine.verify_guarantees()?.len() as u64;
    report.live_final = state.live.len() as u64;
    report.stats = engine.stats();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_cac::SwitchConfig;
    use rtcac_net::builders;
    use rtcac_signaling::CdvPolicy;

    #[test]
    fn chaos_smoke_upholds_invariants() {
        let sr = builders::dual_star_ring(6, 1).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
        let engine = AdmissionEngine::new(sr.topology().clone(), config, CdvPolicy::Hard);
        let plan = FaultPlan::random(sr.topology(), 11, 100, 30);
        let pairs = endpoint_pairs(engine.topology());
        assert!(!pairs.is_empty());
        let report = run_chaos(&engine, &pairs, &plan, 11, 100).unwrap();
        assert!(
            report.invariants_hold(),
            "invariants violated:\n{}",
            report.summary()
        );
        assert!(report.link_failures + report.node_failures > 0);
        assert!(report.admitted > 0);
        assert!(
            report.mcast_admitted + report.mcast_rejected > 0,
            "the churn must exercise multicast:\n{}",
            report.summary()
        );
        assert_eq!(
            report.stats.mcast_submitted,
            report.mcast_admitted + report.mcast_rejected,
        );
    }

    #[test]
    fn endpoint_pairs_cover_distinct_terminals() {
        let sr = builders::dual_star_ring(4, 2).unwrap();
        let pairs = endpoint_pairs(sr.topology());
        assert!(!pairs.is_empty());
        assert!(pairs.iter().all(|(a, b)| a != b));
    }
}
