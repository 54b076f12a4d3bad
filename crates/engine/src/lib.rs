//! `rtcac-engine` — a concurrent, sharded connection admission engine.
//!
//! This crate wraps the per-switch CAC of [`rtcac_cac`] in an engine
//! that serves many setup requests concurrently while producing results
//! indistinguishable from *some* serial order through
//! [`rtcac_signaling::Network`]:
//!
//! * **Shards** — one [`rtcac_cac::Switch`] per switch node, each
//!   behind its own mutex. Reserve, commit and release call
//!   [`Switch::admit`](rtcac_cac::Switch::admit) and
//!   [`Switch::release`](rtcac_cac::Switch::release) exactly as the
//!   serial [`rtcac_signaling::Network`] does.
//! * **Two-phase setups** — phase 1 reserves capacity hop by hop with
//!   every route shard locked in ascending [`rtcac_net::NodeId`] order
//!   (a global lock order, hence deadlock-free); phase 2 commits, or
//!   aborts with full rollback before any lock is dropped. CDV
//!   accumulation follows [`rtcac_signaling::CdvPolicy`] exactly. The
//!   per-hop lifecycle itself — shaping, pricing, the reserve walk and
//!   its rollback order — is the shared [`rtcac_cac::ReservationPlan`]
//!   core, so unicast routes and multicast trees
//!   ([`AdmissionEngine::admit_multicast`]) take the same path the
//!   serial [`rtcac_signaling::Network`] drivers take.
//! * **Rollback** — an aborted reserve releases its legs and rewinds
//!   each touched shard's mutation counter
//!   ([`Switch::epoch`](rtcac_cac::Switch::epoch)), so it leaves no
//!   trace in the shard or in a later snapshot.
//! * **Service pool** — [`ServicePool`] is a counting permit under
//!   which callers on their own threads (the `rtcac-serve` sessions)
//!   decide setups indefinitely, at most `workers` at once.
//! * **Statistics** — lock-free submitted/admitted/rejected/aborted/
//!   released counters, snapshotted as [`EngineStats`] (invariant:
//!   every submitted setup lands in exactly one outcome bucket).
//! * **Observability** — phase timings (reserve/commit/rollback),
//!   per-shard lock-wait histograms and abort events, recorded through [`rtcac_obs`] handles that are no-ops
//!   (near-zero cost, no clock reads) when no registry is installed.
//!   Use [`AdmissionEngine::with_registry`] for an explicit registry.

#![forbid(unsafe_code)]

mod engine;
mod error;
mod metrics;
mod pool;
mod shard;
mod state;
mod stats;

pub use engine::{AdmissionEngine, AnomalyHook, EngineOutcome, DEFAULT_LOCK_HOLD_THRESHOLD_NS};
pub use error::EngineError;
pub use pool::ServicePool;
pub use state::{ConnectionState, EngineState, HealthOverlayState, SwitchState};
pub use stats::EngineStats;

// Shared with the serial driver (`rtcac_signaling`): one definition, in
// the admission core.
pub use rtcac_cac::{FailureImpact, GuaranteeViolation};
