//! The acceptance invariants of the chaos harness, checked for three
//! seeds on a 16-node star-ring: after a full churn-and-fail session,
//! (a) the orphaned-reservation gauge reads 0, (b) every surviving
//! connection's recomputed Algorithm 4.1 bound meets its contracted
//! delay, (c) the lock-health watchdog recorded every shard-lock hold
//! and saw none cross the long-hold threshold, and (d) the engine's
//! terminal counters conserve.

use std::sync::Arc;

use rtcac_bitstream::Time;
use rtcac_cac::SwitchConfig;
use rtcac_engine::AdmissionEngine;
use rtcac_net::builders;
use rtcac_obs::Registry;
use rtcac_signaling::CdvPolicy;
use rtcac_storm::{endpoint_pairs, run_chaos, FaultPlan};

#[test]
fn chaos_invariants_hold_across_seeds() {
    let mut total_rerouted = 0;
    for seed in [1u64, 2, 3] {
        let sr = builders::dual_star_ring(16, 2).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
        let registry = Arc::new(Registry::new());
        let engine = AdmissionEngine::with_registry(
            sr.topology().clone(),
            config,
            CdvPolicy::Hard,
            Arc::clone(&registry),
        );
        let plan = FaultPlan::random(sr.topology(), seed, 200, 25);
        assert!(
            !plan.events().is_empty(),
            "seed {seed}: the plan must schedule failures"
        );
        let pairs = endpoint_pairs(engine.topology());
        let report = run_chaos(&engine, &pairs, &plan, seed, 200).unwrap();

        // (a) No orphaned reservations, mid-run or final — and the obs
        // gauge published after the last failure agrees.
        assert_eq!(
            (report.orphan_violations, report.orphans_final),
            (0, 0),
            "seed {seed}: orphaned reservations:\n{}",
            report.summary()
        );
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.gauge("engine_orphaned_reservations").unwrap_or(0),
            0,
            "seed {seed}: the orphaned-reservation gauge must read 0"
        );

        // (b) Every surviving connection's guarantees still hold.
        assert_eq!(
            report.guarantee_violations,
            0,
            "seed {seed}: guarantee violations:\n{}",
            report.summary()
        );
        assert!(engine.verify_guarantees().unwrap().is_empty());

        // (c) The lock-health watchdog stayed quiet: every shard-lock
        // hold was recorded, and none crossed the long-hold threshold
        // even under full churn-and-fail load.
        let holds = snapshot
            .histogram("engine_lock_hold_ns")
            .expect("lock-hold histogram must be registered");
        assert!(
            holds.count > 0,
            "seed {seed}: no lock holds recorded — the watchdog is not wired"
        );
        assert_eq!(
            snapshot.counter("engine_lock_hold_long_total").unwrap_or(0),
            0,
            "seed {seed}: a shard lock was held past the watchdog threshold"
        );

        // (d) Terminal-counter conservation.
        let stats = report.stats;
        assert_eq!(
            stats.submitted,
            stats.admitted + stats.rejected + stats.aborted + stats.errored + stats.rerouted,
            "seed {seed}: counter conservation violated: {stats:?}"
        );

        // The run must actually have exercised the recovery machinery.
        assert!(
            report.link_failures + report.node_failures > 0,
            "seed {seed}: no failures fired"
        );
        assert!(report.admitted > 0, "seed {seed}: no traffic admitted");
        total_rerouted += stats.rerouted;
    }
    assert!(
        total_rerouted > 0,
        "across all seeds, at least one setup must crank back onto an alternate route"
    );
}
