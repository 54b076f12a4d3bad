//! Seeded fuzz loop over hostile snapshot files: truncations, bit
//! flips, forged versions and forged section tables must always come
//! back as a typed [`SnapError`] — never a panic, and never a partially
//! restored engine.

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract};
use rtcac_cac::{Priority, SwitchConfig};
use rtcac_engine::AdmissionEngine;
use rtcac_net::{builders, SimRng};
use rtcac_rational::ratio;
use rtcac_signaling::{CdvPolicy, SetupRequest};
use rtcac_snap::{adopt_into, decode, encode, restore_engine, snapshot_engine, SnapError};

fn populated_engine() -> AdmissionEngine {
    let sr = builders::star_ring(3, 2).unwrap();
    let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
    let engine = AdmissionEngine::new(sr.topology().clone(), config, CdvPolicy::Hard);
    let terminals: Vec<_> = engine.topology().end_systems().map(|n| n.id()).collect();
    for pair in terminals.windows(2) {
        let route = engine
            .topology()
            .shortest_route_avoiding(pair[0], pair[1], &[], &[])
            .unwrap();
        let contract = TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, 32))).unwrap());
        let request = SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(100_000));
        engine.admit(&route, request).unwrap();
    }
    engine
}

/// `decode` on corrupted bytes must return a typed error (or, for a
/// mutation that happens to decode, the later restore must be
/// all-or-nothing). It must never panic.
#[test]
fn corrupted_snapshots_yield_typed_errors_never_panics() {
    let engine = populated_engine();
    let pristine = encode(&snapshot_engine(&engine, "fuzz"));
    assert!(decode(&pristine).is_ok());

    let mut rng = SimRng::seed_from_u64(0xF022);
    let mut truncations = 0u32;
    let mut flips = 0u32;
    let mut forged = 0u32;
    for round in 0..600 {
        let mut bytes = pristine.clone();
        match rng.gen_below(3) {
            0 => {
                // Truncate to a strictly shorter prefix.
                let keep = rng.gen_below(bytes.len() as u64) as usize;
                bytes.truncate(keep);
                truncations += 1;
            }
            1 => {
                // Flip one bit anywhere — header, directory, payload or
                // trailing checksum.
                let at = rng.gen_below(bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.gen_below(8);
                flips += 1;
            }
            _ => {
                // Forge the format version (and nothing else: re-stamp
                // the whole-file checksum so only the version check can
                // object).
                let version = 2 + (rng.gen_below(u64::from(u16::MAX - 1)) as u16);
                bytes[4..6].copy_from_slice(&version.to_be_bytes());
                let body_end = bytes.len() - 8;
                let sum = rtcac_snap::fnv64(&bytes[..body_end]);
                bytes[body_end..].copy_from_slice(&sum.to_be_bytes());
                forged += 1;
            }
        }
        if bytes == pristine {
            continue;
        }
        let err = match decode(&bytes) {
            Err(e) => e,
            Ok(doc) => panic!("round {round}: corrupted bytes decoded cleanly: {doc:?}"),
        };
        // Every failure is one of the typed decode variants; forged
        // versions specifically must be refused *as versions*, proving
        // the reader is forward-refusing rather than checksum-lucky.
        match err {
            SnapError::BadMagic
            | SnapError::UnsupportedVersion { .. }
            | SnapError::Truncated { .. }
            | SnapError::Oversized { .. }
            | SnapError::BadSection(_)
            | SnapError::ChecksumMismatch { .. }
            | SnapError::BadPayload(_) => {}
            other => panic!("round {round}: unexpected error class: {other:?}"),
        }
    }
    assert!(truncations > 100 && flips > 100 && forged > 100);
}

#[test]
fn forged_version_is_refused_as_a_version() {
    let engine = populated_engine();
    let mut bytes = encode(&snapshot_engine(&engine, "fuzz"));
    bytes[4..6].copy_from_slice(&9u16.to_be_bytes());
    let body_end = bytes.len() - 8;
    let sum = rtcac_snap::fnv64(&bytes[..body_end]);
    bytes[body_end..].copy_from_slice(&sum.to_be_bytes());
    assert_eq!(
        decode(&bytes),
        Err(SnapError::UnsupportedVersion {
            got: 9,
            supported: rtcac_snap::VERSION
        })
    );
}

/// Semantically corrupted documents (valid container, hostile state)
/// must be refused by the restore audits with the live engine left
/// untouched — all-or-nothing, never half-loaded.
#[test]
fn hostile_state_never_partially_restores() {
    let engine = populated_engine();
    let pristine_doc = snapshot_engine(&engine, "fuzz");

    let mut rng = SimRng::seed_from_u64(0x5EED);
    for round in 0..100 {
        let mut doc = pristine_doc.clone();
        match rng.gen_below(5) {
            0 => {
                // Registry entry with no shard legs anywhere.
                let victim = doc.state.connections
                    [rng.gen_below(doc.state.connections.len() as u64) as usize]
                    .id;
                for switch in &mut doc.state.switches {
                    switch.legs.retain(|(id, _)| *id != victim);
                }
            }
            1 => {
                // Shard legs with no registry entry (an orphan).
                let victim = doc.state.connections
                    [rng.gen_below(doc.state.connections.len() as u64) as usize]
                    .id;
                doc.state.connections.retain(|c| c.id != victim);
            }
            2 => {
                // A switch section for a node the topology doesn't have.
                let extra = doc.state.switches[0].clone();
                doc.state.switches.push(extra);
            }
            3 => {
                // Id allocator at or behind an established connection:
                // post-restore setups would collide with stale ids.
                let max = doc
                    .state
                    .connections
                    .iter()
                    .map(|c| c.id.raw())
                    .max()
                    .expect("populated engine has connections");
                doc.state.next_id = rng.gen_below(max + 1);
            }
            _ => {
                // Health overlay naming a link beyond the topology.
                doc.state
                    .health
                    .down_links
                    .push(rtcac_net::LinkId::external(10_000));
            }
        }
        assert!(
            matches!(restore_engine(&doc), Err(SnapError::Refused(_))),
            "round {round}: hostile doc was not refused"
        );

        // In-place adoption must refuse too, leaving the target intact.
        let target = populated_engine();
        let before = target.export_state();
        assert!(adopt_into(&target, &doc).is_err(), "round {round}");
        assert_eq!(
            target.export_state(),
            before,
            "round {round}: refused adoption mutated the engine"
        );
    }

    // The pristine document still restores — the fuzz mutations above
    // worked on clones.
    assert!(restore_engine(&pristine_doc).is_ok());
}
