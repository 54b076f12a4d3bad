//! Round-trip identity and decision parity.
//!
//! * `snapshot → encode → decode → restore → snapshot → encode` must be
//!   **byte-identical** — the format is lossless for everything that
//!   matters and deterministic in everything it writes.
//! * An engine restored from a snapshot must make **bit-identical
//!   admission decisions** to the uninterrupted original on the same
//!   subsequent submission stream.

use std::sync::Arc;

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract, VbrParams};
use rtcac_cac::{ConnectionId, Priority, SwitchConfig};
use rtcac_engine::{AdmissionEngine, EngineOutcome};
use rtcac_net::{builders, MulticastTree, NodeId, SimRng, Topology};
use rtcac_rational::ratio;
use rtcac_signaling::{CdvPolicy, SetupRequest};
use rtcac_snap::{
    adopt_into, decode, encode, load_file, restore_engine, save_atomic, snapshot_engine, SnapError,
};

const PRIORITIES: u8 = 2;

fn build_engine() -> (AdmissionEngine, Vec<NodeId>) {
    let sr = builders::star_ring(4, 2).unwrap();
    let config = SwitchConfig::uniform(PRIORITIES, Time::from_integer(64)).unwrap();
    let engine = AdmissionEngine::new(sr.topology().clone(), config, CdvPolicy::Hard);
    let terminals = engine.topology().end_systems().map(|n| n.id()).collect();
    (engine, terminals)
}

fn seeded_contract(rng: &mut SimRng) -> TrafficContract {
    if rng.gen_below(2) == 0 {
        let den = 8i128 << rng.gen_below(3);
        TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, den))).unwrap())
    } else {
        TrafficContract::vbr(
            VbrParams::new(
                Rate::new(ratio(1, 4 + i128::from(rng.gen_below(3)))),
                Rate::new(ratio(1, 16 + i128::from(rng.gen_below(8)))),
                2 + rng.gen_below(5),
            )
            .unwrap(),
        )
    }
}

/// One deterministic churn op against `engine`; returns a comparable
/// record of what happened.
fn churn_op(
    engine: &AdmissionEngine,
    terminals: &[NodeId],
    live: &mut Vec<ConnectionId>,
    rng: &mut SimRng,
) -> String {
    if !live.is_empty() && rng.gen_below(4) == 0 {
        let id = live.swap_remove(rng.gen_below(live.len() as u64) as usize);
        engine.release(id).unwrap();
        return format!("released {id}");
    }
    let request = SetupRequest::new(
        seeded_contract(rng),
        Priority::new(rng.gen_below(u64::from(PRIORITIES)) as u8),
        Time::from_integer(100_000),
    );
    let multicast = rng.gen_below(5) == 0 && terminals.len() >= 3;
    let outcome = if multicast {
        let root = terminals[rng.gen_below(terminals.len() as u64) as usize];
        let leaves: Vec<NodeId> = terminals
            .iter()
            .copied()
            .filter(|&t| t != root)
            .take(2)
            .collect();
        let tree = MulticastTree::shortest_tree(engine.topology(), root, &leaves).unwrap();
        engine.admit_multicast(&tree, request).unwrap()
    } else {
        let from = terminals[rng.gen_below(terminals.len() as u64) as usize];
        let to = terminals[rng.gen_below(terminals.len() as u64) as usize];
        if from == to {
            return "skipped".into();
        }
        let route = engine
            .topology()
            .shortest_route_avoiding(from, to, &[], &[])
            .unwrap();
        engine.admit(&route, request).unwrap()
    };
    match outcome {
        EngineOutcome::Admitted {
            id,
            guaranteed_delay,
        } => {
            live.push(id);
            format!("admitted {id} bound {guaranteed_delay:?}")
        }
        EngineOutcome::Rerouted {
            id,
            guaranteed_delay,
            attempts,
            ..
        } => {
            live.push(id);
            format!("rerouted {id} bound {guaranteed_delay:?} after {attempts}")
        }
        EngineOutcome::Rejected { id, rejection } => format!("rejected {id}: {rejection:?}"),
    }
}

/// A populated engine with unicast + multicast connections, some
/// released, and a link failure in the health overlay.
fn churned_engine(seed: u64, ops: usize) -> (AdmissionEngine, Vec<ConnectionId>, SimRng) {
    let (engine, terminals) = build_engine();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut live = Vec::new();
    for _ in 0..ops {
        churn_op(&engine, &terminals, &mut live, &mut rng);
    }
    // Put the health overlay in a non-trivial state too.
    let link = engine.topology().links()[rng.gen_below(4) as usize].id();
    let impact = engine.fail_link(link).unwrap();
    live.retain(|id| !impact.torn_down().contains(id));
    (engine, live, rng)
}

#[test]
fn snapshot_restore_snapshot_is_byte_identical() {
    let (engine, _, _) = churned_engine(0xD0C, 120);
    let doc = snapshot_engine(&engine, "roundtrip-test");
    assert!(doc.state.total_legs() > 0, "churn must leave live state");
    let bytes = encode(&doc);

    let decoded = decode(&bytes).unwrap();
    assert_eq!(decoded, doc, "decode must invert encode");

    let restored = restore_engine(&decoded).unwrap();
    let again = encode(&snapshot_engine(&restored, "roundtrip-test"));
    assert_eq!(
        bytes, again,
        "snapshot -> restore -> snapshot must be byte-identical"
    );
}

#[test]
fn restored_engine_matches_uninterrupted_decisions() {
    let (original, mut live_a, rng_at_cut) = churned_engine(0xBEEF, 100);
    let doc = snapshot_engine(&original, "parity");
    let restored = restore_engine(&doc).unwrap();
    let terminals: Vec<NodeId> = original.topology().end_systems().map(|n| n.id()).collect();

    // Same stream, same RNG position, one engine uninterrupted and one
    // freshly restored: every decision (ids, bounds, reject reasons)
    // must match.
    let mut live_b = live_a.clone();
    let mut rng_a = rng_at_cut;
    let mut rng_b = rng_at_cut;
    for op in 0..150 {
        let a = churn_op(&original, &terminals, &mut live_a, &mut rng_a);
        let b = churn_op(&restored, &terminals, &mut live_b, &mut rng_b);
        assert_eq!(a, b, "decision diverged at op {op}");
    }

    // And the terminal states agree exactly.
    assert_eq!(original.export_state(), restored.export_state());
}

#[test]
fn adopt_into_replaces_live_state_in_place() {
    let (source, _, _) = churned_engine(0xA0B, 80);
    let doc = snapshot_engine(&source, "adopt");

    let (target, terminals) = build_engine();
    // Dirty the target first so adoption provably replaces state.
    let mut rng = SimRng::seed_from_u64(99);
    let mut live = Vec::new();
    for _ in 0..40 {
        churn_op(&target, &terminals, &mut live, &mut rng);
    }
    adopt_into(&target, &doc).unwrap();
    assert_eq!(target.export_state(), source.export_state());
}

#[test]
fn adopt_into_refuses_topology_mismatch() {
    let (source, _, _) = churned_engine(0xA0C, 40);
    let doc = snapshot_engine(&source, "mismatch");
    let other = builders::star_ring(5, 2).unwrap();
    let config = SwitchConfig::uniform(PRIORITIES, Time::from_integer(64)).unwrap();
    let target = AdmissionEngine::new(other.topology().clone(), config, CdvPolicy::Hard);
    let before = target.export_state();
    assert!(matches!(
        adopt_into(&target, &doc),
        Err(SnapError::Refused(_))
    ));
    assert_eq!(
        target.export_state(),
        before,
        "refusal must not touch the engine"
    );
}

#[test]
fn inconsistent_state_is_refused_not_half_loaded() {
    let (engine, _, _) = churned_engine(0xA0D, 60);
    let mut doc = snapshot_engine(&engine, "tampered");
    let victim = doc
        .state
        .connections
        .first()
        .expect("churn admitted something")
        .id;
    // Strip the victim's shard legs but keep its registry entry: a
    // registry/shard inconsistency the restore audit must catch.
    for switch in &mut doc.state.switches {
        switch.legs.retain(|(id, _)| *id != victim);
    }
    assert!(matches!(restore_engine(&doc), Err(SnapError::Refused(_))));
}

#[test]
fn stale_id_allocator_is_refused() {
    let (engine, _, _) = churned_engine(0xA1D, 60);
    let mut doc = snapshot_engine(&engine, "tampered");
    let max = doc
        .state
        .connections
        .iter()
        .map(|c| c.id.raw())
        .max()
        .expect("churn admitted something");
    // next_id <= an established id would make post-restore setups fail
    // with duplicate-id errors until the allocator caught up.
    doc.state.next_id = max;
    assert!(matches!(restore_engine(&doc), Err(SnapError::Refused(_))));

    let target = restore_engine(&snapshot_engine(&engine, "target")).unwrap();
    let before = target.export_state();
    assert!(matches!(
        adopt_into(&target, &doc),
        Err(SnapError::Refused(_))
    ));
    assert_eq!(
        target.export_state(),
        before,
        "refusal must not touch the engine"
    );
}

#[test]
fn draining_flag_and_counters_survive() {
    let (engine, _, _) = churned_engine(0xA0E, 60);
    engine.set_draining(true);
    let doc = snapshot_engine(&engine, "drain");
    assert!(doc.state.draining);
    let restored = restore_engine(&doc).unwrap();
    assert!(restored.is_draining());
    assert_eq!(engine.stats(), restored.stats());
}

#[test]
fn save_atomic_and_load_file_roundtrip() {
    let dir = std::env::temp_dir().join(format!("rtcac-snap-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.rtsn");

    let (engine, _, _) = churned_engine(0xF11E, 80);
    let doc = snapshot_engine(&engine, "file-roundtrip");
    let size = save_atomic(&doc, &path).unwrap();
    assert_eq!(size, std::fs::metadata(&path).unwrap().len());
    assert_eq!(load_file(&path).unwrap(), doc);

    // Overwrite atomically with new state; no temp file left behind.
    engine.set_draining(true);
    let doc2 = snapshot_engine(&engine, "file-roundtrip");
    save_atomic(&doc2, &path).unwrap();
    assert_eq!(load_file(&path).unwrap(), doc2);
    assert!(!dir.join("state.rtsn.tmp").exists());

    let report = rtcac_snap::inspect(&path).unwrap();
    assert!(
        report.contains(&format!("version {}", rtcac_snap::VERSION)),
        "inspect must name the version:\n{report}"
    );
    assert!(
        report.contains("draining true"),
        "inspect must show state:\n{report}"
    );

    let path_b = dir.join("state-b.rtsn");
    save_atomic(&doc, &path_b).unwrap();
    let diff = rtcac_snap::diff(&path_b, &path).unwrap();
    assert!(
        diff.contains("draining: false -> true"),
        "diff must spot the drain:\n{diff}"
    );
    assert!(rtcac_snap::diff(&path, &path).unwrap().is_empty());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn restore_into_registry_engine_works() {
    let (engine, _, _) = churned_engine(0xCAFE, 50);
    let doc = snapshot_engine(&engine, "metrics");
    let registry = Arc::new(rtcac_obs::Registry::new());
    let restored = rtcac_snap::restore_engine_with_registry(&doc, registry).unwrap();
    assert_eq!(restored.export_state(), engine.export_state());
}

#[test]
fn topology_spec_rebuild_is_exact() {
    let (engine, _, _) = churned_engine(0x7070, 10);
    let spec = rtcac_snap::TopologySpec::of(engine.topology());
    let rebuilt: Topology = spec.build().unwrap();
    assert!(spec.matches(&rebuilt));
    assert_eq!(rebuilt.nodes().len(), engine.topology().nodes().len());
    assert_eq!(rebuilt.links().len(), engine.topology().links().len());
}

/// Version-1 files (full contract repeated per leg) must keep decoding
/// to the exact same document as the interned version-2 codec — old
/// snapshots on disk stay restorable across the format bump — and the
/// dedup must actually shrink the container when legs share contracts.
#[test]
fn v1_snapshots_stay_restorable_and_v2_is_smaller() {
    let (engine, _, _) = churned_engine(0x51AB, 120);
    let doc = snapshot_engine(&engine, "compat");

    let v2 = encode(&doc);
    let v1 = rtcac_snap::encode_with_version(&doc, 1).unwrap();
    assert_ne!(v1, v2, "the versions are distinct on the wire");
    assert_eq!(decode(&v1).unwrap(), doc, "v1 reader path");
    assert_eq!(decode(&v2).unwrap(), doc, "v2 reader path");
    assert!(
        v2.len() < v1.len(),
        "interned switches section must shrink the file: v1 {} <= v2 {}",
        v1.len(),
        v2.len()
    );

    // A restored engine is decision-identical regardless of which
    // version carried the state.
    let from_v1 = restore_engine(&decode(&v1).unwrap()).unwrap();
    let from_v2 = restore_engine(&decode(&v2).unwrap()).unwrap();
    assert_eq!(from_v1.export_state(), from_v2.export_state());

    // Unknown versions — past and future — are refused as versions.
    assert!(matches!(
        rtcac_snap::encode_with_version(&doc, 0),
        Err(SnapError::UnsupportedVersion { got: 0, .. })
    ));
    assert!(matches!(
        rtcac_snap::encode_with_version(&doc, rtcac_snap::VERSION + 1),
        Err(SnapError::UnsupportedVersion { .. })
    ));
}

/// A version-2 leg referencing past the end of its shard's contract
/// table is a payload error, not a panic or a silent default.
#[test]
fn v2_dangling_table_reference_is_refused() {
    let (engine, _, _) = churned_engine(0x0DD, 40);
    let doc = snapshot_engine(&engine, "dangling");
    let good = encode(&doc);
    let sections = rtcac_snap::parse_sections(&good).unwrap();
    // Corrupt the first leg's table index inside the switches section:
    // node u32 + config (levels u8 + bounds + grid flag) is variable,
    // so instead re-encode with a hostile document is not possible —
    // walk the real bytes: find the section, bump every plausible
    // index byte, and require decode to fail loudly rather than panic.
    let s = sections
        .iter()
        .find(|s| s.name == "switches")
        .expect("switches section present");
    let mut refused = 0;
    for off in s.offset..s.offset + s.len {
        let mut bytes = good.clone();
        bytes[off as usize] ^= 0x80;
        // Fix both checksums so only the payload semantics differ.
        let sum = rtcac_snap::fnv64(&bytes[s.offset as usize..(s.offset + s.len) as usize]);
        let dir_entry = 7 + 2 * 25; // third directory slot (switches)
        bytes[dir_entry + 1 + 8 + 8..dir_entry + 1 + 8 + 8 + 8].copy_from_slice(&sum.to_be_bytes());
        let body_end = bytes.len() - 8;
        let file_sum = rtcac_snap::fnv64(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&file_sum.to_be_bytes());
        // A flip may land on another valid encoding; every other
        // outcome must be a refusal, never a panic.
        if decode(&bytes).is_err() {
            refused += 1;
        }
    }
    assert!(refused > 0, "semantic corruption must be refusable");
}
