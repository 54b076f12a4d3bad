//! `rtcac-storm` — the adversarial workloads.
//!
//! The analytic crates prove what happens while the network holds
//! still; this crate shakes it, from one hand-picked topology up to
//! generated fabrics of thousands of switches:
//!
//! * **Fault plans and the chaos harness** — a [`FaultPlan`] is a
//!   seeded, deterministic schedule of link/node failures and repairs;
//!   [`run_chaos`] replays a plan against a live
//!   [`rtcac_engine::AdmissionEngine`] while churning connections
//!   through it, auditing after every transition that no shard holds
//!   an orphaned reservation, that every surviving connection's
//!   recomputed Algorithm 4.1 bound still meets its contracted delay,
//!   and that the engine's terminal counters conserve. A run splits
//!   into resumable segments ([`ChaosState`]), so it can be killed,
//!   snapshot-restored and continued.
//! * **Impairment profiles** ([`ProfileKind`]) — time-varying link
//!   degradation schedules (flapping links, regional brownouts,
//!   degrade-then-heal arcs, correlated regional outages) compiled
//!   into deterministic event streams ([`ImpairmentEvent`]) that
//!   drive both the fail/heal health overlay and the CDV-inflation
//!   seam of the admission paths.
//! * **Self-similar background traffic** ([`LrdVbrSource`]) — a
//!   superposition of seeded on/off sources whose periods span
//!   multiple octaves, giving the long-range-dependent burst
//!   structure real VBR traffic shows (variance decaying slower than
//!   Poisson under aggregation), used to modulate connection arrival
//!   intensity.
//! * **Topology generators** ([`TopologyKind`]) — star-of-star-rings,
//!   fat-tree, and seeded sparse WAN graphs beyond the star-ring
//!   family, scalable to thousands of switches.
//! * **A differential scenario fuzzer** ([`generate`]) — random
//!   *valid* `.rtcac` scenario files (connects, releases, multicast
//!   trees, fault/heal, degrade/restore, crankback and chaos
//!   directives over generated topologies) that the CLI replays
//!   through both the serial signaling path and the concurrent
//!   engine, asserting decision parity and byte-identical admission
//!   ledgers.
//!
//! Everything is seeded through [`rtcac_net::SimRng`]: equal seeds
//! give equal plans, traffic, topologies, schedules, and scenario
//! files, so a failing chaos run or storm round replays from its seed
//! alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod fuzz;
mod impairment;
mod plan;
mod topo;
mod traffic;

pub use chaos::{
    endpoint_pairs, finish_report, run_chaos, run_chaos_segment, ChaosDecision, ChaosReport,
    ChaosState,
};
pub use fuzz::{generate, ConnectForm, Directive, FuzzConfig, StormScenario};
pub use impairment::{compile_profile, ImpairmentEvent, ProfileKind};
pub use plan::{FaultEvent, FaultPlan, MAX_CONCURRENT_DOWN};
pub use topo::{generate_topology, generate_topology_sized, sparse_wan, TopologyKind};
pub use traffic::LrdVbrSource;
