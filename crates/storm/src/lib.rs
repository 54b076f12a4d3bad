//! `rtcac-storm` — the adversarial workload engine.
//!
//! The chaos harness of [`rtcac_fault`] shakes one hand-picked
//! topology with memoryless faults; this crate turns the hostility up
//! and makes it *structured*:
//!
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
//!   trees, fault/heal, degrade/restore and crankback directives over
//!   generated topologies) that the CLI replays through both the
//!   serial signaling path and the concurrent engine, asserting
//!   decision parity and byte-identical admission ledgers.
//!
//! Everything is seeded through [`rtcac_net::SimRng`]: equal seeds
//! give equal topologies, schedules, and scenario files, so a failing
//! storm round replays from its seed alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fuzz;
mod impairment;
mod topo;
mod traffic;

pub use fuzz::{generate, ConnectForm, Directive, FuzzConfig, StormScenario};
pub use impairment::{compile_profile, fault_plan_of, ImpairmentEvent, ProfileKind};
pub use topo::{generate_topology, generate_topology_sized, sparse_wan, TopologyKind};
pub use traffic::LrdVbrSource;
