//! High-level snapshot operations: capture, restore, atomic file I/O,
//! inspect and diff.

use std::fs;
use std::path::Path;
use std::sync::Arc;

use rtcac_engine::{AdmissionEngine, EngineState};
use rtcac_net::Topology;

use crate::format::{self, decode, encode, SectionInfo, SnapMeta, SnapshotDoc, TopologySpec};
use crate::SnapError;

/// Captures a consistent snapshot of a live engine (all shards locked
/// in ascending node order for the cut) tagged with an origin label.
pub fn snapshot_engine(engine: &AdmissionEngine, origin: &str) -> SnapshotDoc {
    SnapshotDoc {
        meta: SnapMeta {
            origin: origin.to_string(),
        },
        topology: TopologySpec::of(engine.topology()),
        state: engine.export_state(),
    }
}

/// Builds a fresh engine from a snapshot. The topology is rebuilt from
/// the snapshot's own topology section, so the file is self-contained.
///
/// # Errors
///
/// Returns [`SnapError::Refused`] (or a payload error) when the
/// snapshot is internally inconsistent or fails the post-rebuild
/// guarantee and orphan audits — in which case no engine is produced.
pub fn restore_engine(doc: &SnapshotDoc) -> Result<AdmissionEngine, SnapError> {
    let topology = doc.topology.build()?;
    Ok(AdmissionEngine::from_state(topology, &doc.state)?)
}

/// As [`restore_engine`], but recording metrics into an explicit
/// observability registry.
pub fn restore_engine_with_registry(
    doc: &SnapshotDoc,
    registry: Arc<rtcac_obs::Registry>,
) -> Result<AdmissionEngine, SnapError> {
    let topology = doc.topology.build()?;
    Ok(AdmissionEngine::from_state_with_registry(
        topology, &doc.state, registry,
    )?)
}

/// Restores a snapshot **into** a running engine in place (the serve
/// warm-restart path). The snapshot's topology must match the engine's;
/// validation runs on a throwaway rebuild first, so on error the live
/// engine is untouched.
///
/// # Errors
///
/// Returns [`SnapError::Refused`] on topology mismatch or any
/// validation failure.
pub fn adopt_into(engine: &AdmissionEngine, doc: &SnapshotDoc) -> Result<(), SnapError> {
    if !doc.topology.matches(engine.topology()) {
        return Err(SnapError::Refused(
            "snapshot topology does not match the serving topology".into(),
        ));
    }
    Ok(engine.adopt_state(&doc.state)?)
}

/// Reads and decodes a snapshot file (size-capped before reading).
///
/// # Errors
///
/// [`SnapError::Io`] on filesystem failure, otherwise decode errors.
pub fn load_file(path: &Path) -> Result<SnapshotDoc, SnapError> {
    decode(&read_capped(path)?)
}

/// Writes a snapshot atomically through
/// [`rtcac_obs::codec::write_atomic`]: a sibling `<name>.tmp`, fsync,
/// rename over the target, then (Unix) an fsync of the parent
/// directory. A crash mid-write leaves the old snapshot or the new one —
/// never a torn file — and no temp file survives a failed write.
///
/// # Errors
///
/// [`SnapError::Io`] on any filesystem failure. Returns the encoded
/// size in bytes on success.
pub fn save_atomic(doc: &SnapshotDoc, path: &Path) -> Result<u64, SnapError> {
    let bytes = encode(doc);
    rtcac_obs::codec::write_atomic(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// A human-readable report of a snapshot file's container structure and
/// state summary, without restoring anything.
///
/// # Errors
///
/// I/O and decode errors; a verifiable header with a corrupt payload
/// still reports the header before failing.
pub fn inspect(path: &Path) -> Result<String, SnapError> {
    let bytes = read_capped(path)?;
    let (version, sections) = format::parse_header(&bytes)?;
    let mut out = String::new();
    push(&mut out, format_args!("snapshot {}", path.display()));
    push(
        &mut out,
        format_args!(
            "  container: magic RTSN, version {version}, {} bytes",
            bytes.len()
        ),
    );
    for s in &sections {
        push(
            &mut out,
            format_args!(
                "  section {} ({}): offset {}, {} bytes, fnv64 {:016x}",
                s.id, s.name, s.offset, s.len, s.checksum
            ),
        );
    }
    let doc = decode(&bytes)?;
    push(&mut out, format_args!("  origin: {}", doc.meta.origin));
    push(
        &mut out,
        format_args!(
            "  topology: {} node(s), {} link(s)",
            doc.topology.nodes.len(),
            doc.topology.links.len()
        ),
    );
    push(
        &mut out,
        format_args!(
            "  state: {} switch shard(s), {} leg(s), {} connection(s), next id {}, draining {}",
            doc.state.switches.len(),
            doc.state.total_legs(),
            doc.state.connections.len(),
            doc.state.next_id,
            doc.state.draining
        ),
    );
    push(
        &mut out,
        format_args!(
            "  health: {} down link(s), {} down node(s), epoch {}",
            doc.state.health.down_links.len(),
            doc.state.health.down_nodes.len(),
            doc.state.health.epoch
        ),
    );
    push(
        &mut out,
        format_args!(
            "  counters: submitted {}, admitted {}, rejected {}, released {}",
            doc.state.counters.submitted,
            doc.state.counters.admitted,
            doc.state.counters.rejected,
            doc.state.counters.released
        ),
    );
    Ok(out)
}

/// Compares two snapshot files and describes the differences (empty
/// string when byte-identical state).
///
/// # Errors
///
/// I/O and decode errors from either file.
pub fn diff(a_path: &Path, b_path: &Path) -> Result<String, SnapError> {
    let a = load_file(a_path)?;
    let b = load_file(b_path)?;
    let mut out = String::new();
    if a.meta.origin != b.meta.origin {
        push(
            &mut out,
            format_args!("origin: {} -> {}", a.meta.origin, b.meta.origin),
        );
    }
    if a.topology != b.topology {
        push(
            &mut out,
            format_args!(
                "topology: {} node(s)/{} link(s) -> {} node(s)/{} link(s)",
                a.topology.nodes.len(),
                a.topology.links.len(),
                b.topology.nodes.len(),
                b.topology.links.len()
            ),
        );
    }
    diff_state(&mut out, &a.state, &b.state);
    Ok(out)
}

fn diff_state(out: &mut String, a: &EngineState, b: &EngineState) {
    if a.policy != b.policy {
        push(
            out,
            format_args!("policy: {:?} -> {:?}", a.policy, b.policy),
        );
    }
    if a.next_id != b.next_id {
        push(out, format_args!("next id: {} -> {}", a.next_id, b.next_id));
    }
    if a.draining != b.draining {
        push(
            out,
            format_args!("draining: {} -> {}", a.draining, b.draining),
        );
    }
    if a.health != b.health {
        push(
            out,
            format_args!(
                "health: {}/{} down, epoch {} -> {}/{} down, epoch {}",
                a.health.down_links.len(),
                a.health.down_nodes.len(),
                a.health.epoch,
                b.health.down_links.len(),
                b.health.down_nodes.len(),
                b.health.epoch
            ),
        );
    }
    let a_ids: std::collections::BTreeSet<u64> = a.connections.iter().map(|c| c.id.raw()).collect();
    let b_ids: std::collections::BTreeSet<u64> = b.connections.iter().map(|c| c.id.raw()).collect();
    for id in a_ids.difference(&b_ids) {
        push(out, format_args!("connection vc{id}: released"));
    }
    for id in b_ids.difference(&a_ids) {
        push(out, format_args!("connection vc{id}: admitted"));
    }
    for (sa, sb) in a.switches.iter().zip(&b.switches) {
        if sa.node == sb.node && (sa.epoch != sb.epoch || sa.legs.len() != sb.legs.len()) {
            push(
                out,
                format_args!(
                    "switch n{}: epoch {} -> {}, {} -> {} leg(s)",
                    sa.node.index(),
                    sa.epoch,
                    sb.epoch,
                    sa.legs.len(),
                    sb.legs.len()
                ),
            );
        }
    }
    if a.counters != b.counters {
        push(
            out,
            format_args!(
                "counters: submitted {} -> {}, admitted {} -> {}, released {} -> {}",
                a.counters.submitted,
                b.counters.submitted,
                a.counters.admitted,
                b.counters.admitted,
                a.counters.released,
                b.counters.released
            ),
        );
    }
}

/// Parses just the container header of a snapshot file — used by
/// `inspect`-style tooling that must not decode payloads.
///
/// # Errors
///
/// I/O and header/checksum errors.
pub fn sections_of(path: &Path) -> Result<Vec<SectionInfo>, SnapError> {
    format::parse_sections(&read_capped(path)?)
}

/// Round-trip helper: restores a snapshot into a fresh engine and
/// re-captures it, returning the second snapshot's bytes. Equal input
/// and output bytes prove the format is lossless for the given state.
///
/// # Errors
///
/// Restore errors from [`restore_engine`].
pub fn recapture(doc: &SnapshotDoc) -> Result<Vec<u8>, SnapError> {
    let engine = restore_engine(doc)?;
    Ok(encode(&snapshot_engine(&engine, &doc.meta.origin)))
}

fn read_capped(path: &Path) -> Result<Vec<u8>, SnapError> {
    let len = fs::metadata(path)?.len();
    if len > format::MAX_SNAPSHOT {
        return Err(SnapError::Oversized {
            len,
            max: format::MAX_SNAPSHOT,
        });
    }
    Ok(fs::read(path)?)
}

fn push(out: &mut String, args: std::fmt::Arguments<'_>) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "{args}");
}

/// Rebuilds a [`Topology`] from a snapshot without restoring state —
/// what a cold-booting server uses to know what to serve.
///
/// # Errors
///
/// [`SnapError::BadPayload`] on an invalid topology section.
pub fn topology_of(doc: &SnapshotDoc) -> Result<Topology, SnapError> {
    doc.topology.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_bitstream::Time;
    use rtcac_cac::SwitchConfig;
    use rtcac_signaling::CdvPolicy;

    #[test]
    fn failed_save_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("rtcac-snap-fail-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // The target name is taken by a directory, so the rename fails
        // after the temp file was written.
        let target = dir.join("state.rtsn");
        fs::create_dir_all(&target).unwrap();
        let topology = rtcac_net::builders::star_ring(2, 1)
            .unwrap()
            .topology()
            .clone();
        let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
        let engine = AdmissionEngine::new(topology, config, CdvPolicy::Hard);
        let doc = snapshot_engine(&engine, "fail");
        assert!(matches!(save_atomic(&doc, &target), Err(SnapError::Io(_))));
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["state.rtsn"], "no temp file left");
        let _ = fs::remove_dir_all(&dir);
    }
}
