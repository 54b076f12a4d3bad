//! Kill-and-restore chaos proof: a chaos run that is killed mid-flight
//! and brought back from its last snapshot must be indistinguishable —
//! decision for decision, counter for counter — from a run that was
//! never killed, and the restored engine must still uphold every
//! contracted delay guarantee.
//!
//! Topology: a 16-node dual star-ring (8 ring switches with redundant
//! chords, one terminal each), so crankback reroutes and multicast
//! trees are all in play when the axe falls.

use rtcac_bitstream::Time;
use rtcac_cac::SwitchConfig;
use rtcac_engine::AdmissionEngine;
use rtcac_net::builders;
use rtcac_signaling::CdvPolicy;
use rtcac_snap::{decode, encode, restore_engine, snapshot_engine};
use rtcac_storm::{
    endpoint_pairs, finish_report, run_chaos, run_chaos_segment, ChaosState, FaultPlan,
};

const STEPS: u64 = 120;
const FAULT_PERCENT: u64 = 25;

fn fresh_engine() -> AdmissionEngine {
    let sr = builders::dual_star_ring(8, 1).unwrap();
    assert_eq!(
        sr.topology().nodes().len(),
        16,
        "the proof runs on 16 nodes"
    );
    let config = SwitchConfig::uniform(2, Time::from_integer(64)).unwrap();
    AdmissionEngine::new(sr.topology().clone(), config, CdvPolicy::Hard)
}

/// Runs the same seeded chaos session twice — once uninterrupted, once
/// killed at `cut` steps and restored from a snapshot taken at the cut
/// — and demands identical decisions and an identical report.
fn assert_kill_restore_parity(seed: u64, cut: u64) {
    // The uninterrupted control run.
    let control_engine = fresh_engine();
    let endpoints = endpoint_pairs(control_engine.topology());
    let plan = FaultPlan::random(
        control_engine.topology(),
        seed ^ 0xFA17,
        STEPS,
        FAULT_PERCENT,
    );
    let mut control_state = ChaosState::new(seed);
    run_chaos_segment(
        &control_engine,
        &endpoints,
        &plan,
        &mut control_state,
        STEPS,
    )
    .unwrap();
    let control_report = finish_report(&control_engine, &control_state).unwrap();
    assert!(
        control_report.invariants_hold(),
        "control run violated invariants:\n{}",
        control_report.summary()
    );

    // The victim: run to the cut, snapshot, "kill" the engine (drop
    // it), restore a new engine from the snapshot bytes, continue with
    // the carried chaos state.
    let victim = fresh_engine();
    let mut state = ChaosState::new(seed);
    run_chaos_segment(&victim, &endpoints, &plan, &mut state, cut).unwrap();
    let bytes = encode(&snapshot_engine(&victim, "kill-restore-test"));
    drop(victim);

    let doc = decode(&bytes).unwrap();
    let restored = restore_engine(&doc).unwrap();

    // Every pre-cut connection survived the restore with its Algorithm
    // 4.1 bound still within its contracted deadline.
    assert!(
        restored.verify_guarantees().unwrap().is_empty(),
        "restored engine violates pre-cut guarantees (seed {seed}, cut {cut})"
    );
    assert!(restored.orphaned_reservations().is_empty());

    run_chaos_segment(&restored, &endpoints, &plan, &mut state, STEPS - cut).unwrap();
    let report = finish_report(&restored, &state).unwrap();

    assert!(
        report.invariants_hold(),
        "kill-restore run violated invariants (seed {seed}, cut {cut}):\n{}",
        report.summary()
    );
    assert_eq!(
        control_state.decisions(),
        state.decisions(),
        "post-restore decisions diverged from the never-killed run \
         (seed {seed}, cut {cut})"
    );
    assert_eq!(
        control_report, report,
        "final reports diverged (seed {seed}, cut {cut})"
    );
}

#[test]
fn kill_restore_parity_seed_a() {
    assert_kill_restore_parity(0x51AB_0001, 40);
}

#[test]
fn kill_restore_parity_seed_b() {
    assert_kill_restore_parity(0x51AB_0002, 60);
}

#[test]
fn kill_restore_parity_seed_c() {
    assert_kill_restore_parity(0x51AB_0003, 85);
}

/// Segmenting a run (without any kill) is exactly equivalent to one
/// whole run — the property the kill-restore proof stands on.
#[test]
fn segmented_run_equals_whole_run() {
    let whole_engine = fresh_engine();
    let endpoints = endpoint_pairs(whole_engine.topology());
    let plan = FaultPlan::random(whole_engine.topology(), 7, STEPS, FAULT_PERCENT);
    let whole = run_chaos(&whole_engine, &endpoints, &plan, 7, STEPS).unwrap();

    let segmented_engine = fresh_engine();
    let mut state = ChaosState::new(7);
    for _ in 0..4 {
        run_chaos_segment(&segmented_engine, &endpoints, &plan, &mut state, STEPS / 4).unwrap();
    }
    assert_eq!(state.step(), STEPS);
    let segmented = finish_report(&segmented_engine, &state).unwrap();
    assert_eq!(whole, segmented);
}
