//! `rtcac-snap` — versioned snapshot + warm restart of admission state.
//!
//! A running [`rtcac_engine::AdmissionEngine`] holds hard real-time
//! contracts: per-switch `Sia/Sif/Soa/Sof` tables, the connection
//! registry with admitted delay bounds, the link-health overlay and the
//! outcome counters. This crate serializes that state to a
//! length-prefixed, checksummed, **versioned** binary container and
//! restores it — either into a fresh engine or in place into a serving
//! one — so an admission service can be killed and brought back without
//! voiding a single guarantee.
//!
//! Design rules:
//!
//! * **Legs, not tables.** The snapshot stores each switch's admitted
//!   connection legs (exact contracts as `(i128, i128)` rationals), not
//!   the derived bit-stream tables; restore re-derives tables through
//!   the same arrival/multiplex path admission uses, so the rebuild is
//!   bit-identical and version skew in table internals cannot corrupt
//!   state.
//! * **All-or-nothing.** A snapshot that fails checksum verification,
//!   decoding, or the post-rebuild guarantee/orphan audits is refused
//!   with a typed [`SnapError`]; no partially restored engine ever
//!   becomes visible.
//! * **Forward-refusing.** An unknown format version is an error, never
//!   a best-effort parse.
//! * **Deterministic bytes.** Encoding contains no timestamps or
//!   randomness: `snapshot → restore → snapshot` is byte-identical.
//! * **Atomic writes.** [`save_atomic`] writes a temp sibling, fsyncs,
//!   and renames — a crash leaves the old snapshot or none.
//!
//! The container, the field codec and the atomic write are the shared
//! ones of [`rtcac_obs::codec`]; this crate adds the six section codecs
//! and the exact-rational fields ([`EncExact`], [`DecExact`]) the wire
//! protocol reuses.

#![forbid(unsafe_code)]

mod codec;
mod error;
mod format;
mod ops;

pub use codec::{DecExact, EncExact};
pub use error::SnapError;
pub use format::{
    decode, encode, encode_with_version, parse_header, parse_sections, SectionInfo, SnapMeta,
    SnapshotDoc, TopologySpec, MAGIC, MAX_SNAPSHOT, MIN_VERSION, VERSION,
};
pub use ops::{
    adopt_into, diff, inspect, load_file, recapture, restore_engine, restore_engine_with_registry,
    save_atomic, sections_of, snapshot_engine, topology_of,
};
/// The snapshot's section and whole-file checksum — the one FNV-1a of
/// the shared codec.
pub use rtcac_obs::codec::fnv64;
