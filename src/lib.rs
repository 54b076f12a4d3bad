//! # rtcac — hard real-time connection admission control for ATM networks
//!
//! A full reproduction of *"Connection Admission Control for Hard
//! Real-Time Communication in ATM Networks"* (Zheng, Yokotani,
//! Ichihashi, Nemoto; MERL TR-96-21 / ICDCS 1997) as a Rust workspace.
//!
//! This facade crate re-exports the public API of every subsystem:
//!
//! - [`bitstream`] — the bit-stream traffic model, the stream
//!   manipulation algebra (delay, multiplex, demultiplex, filter) and
//!   the worst-case queueing delay bound (Algorithms 2.1, 3.1–3.4, 4.1);
//! - [`net`] — topology substrate: nodes, links, routes, and builders
//!   for the paper's star-ring RTnet;
//! - [`cac`] — per-switch admission control state and the six-step
//!   CAC check of §4.3;
//! - [`signaling`] — distributed SETUP/REJECT/CONNECTED connection
//!   establishment with hard/soft CDV accumulation;
//! - [`engine`] — a concurrent sharded admission engine: callers on
//!   their own threads decide setups with a two-phase reserve/commit
//!   protocol and epoch-keyed delay-bound memoization;
//! - [`sim`] — a cell-level slotted ATM simulator used to validate the
//!   analytic bounds empirically;
//! - [`rtnet`] — the RTnet evaluation of §5: cyclic transmission
//!   classes and the experiment drivers behind Figures 10–13;
//! - [`serve`] — the resident admission service: a TCP server speaking
//!   a length-prefixed binary protocol (SETUP / RELEASE / QUERY /
//!   DRAIN / STATS), a blocking client sharing the same codec, and a
//!   multi-threaded traffic source;
//! - [`obs`] — std-only observability: counters, log2 histograms,
//!   causal tracing, a bounded event ring and Prometheus/JSON
//!   exposition, fed by the registry the admission engine is handed;
//! - [`snap`] — versioned snapshots and warm restart of admission
//!   state;
//! - [`storm`] — the adversarial workloads: seeded link/node fault
//!   plans and a chaos harness that churns the engine while asserting
//!   no reservation is orphaned and no guarantee is violated,
//!   time-varying impairment profiles, self-similar background
//!   traffic, topology generators, and the differential scenario
//!   fuzzer behind `rtcac storm`.
//!
//! See the repository `README.md` for a tour and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! # Quickstart
//!
//! ```
//! use rtcac::bitstream::{BitStream, Rate, Time, TrafficContract, VbrParams};
//! use rtcac::rational::ratio;
//!
//! // Model a bursty hard real-time source…
//! let contract = TrafficContract::vbr(VbrParams::new(
//!     Rate::new(ratio(1, 4)),
//!     Rate::new(ratio(1, 20)),
//!     8,
//! )?);
//! // …derive its worst-case arrival after 16 cell times of jitter…
//! let arrival = contract.worst_case_stream().delay(Time::from_integer(16));
//! // …and bound the FIFO queueing delay of six such connections
//! // multiplexed at an output port, at the highest priority.
//! let aggregate = BitStream::multiplex_all(std::iter::repeat(&arrival).take(6));
//! let bound = aggregate.delay_bound(&BitStream::zero())?;
//! assert!(bound > Time::ZERO);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rtcac_bitstream as bitstream;
pub use rtcac_cac as cac;
pub use rtcac_engine as engine;
pub use rtcac_net as net;
pub use rtcac_obs as obs;
pub use rtcac_rational as rational;
pub use rtcac_rtnet as rtnet;
pub use rtcac_serve as serve;
pub use rtcac_signaling as signaling;
pub use rtcac_sim as sim;
pub use rtcac_snap as snap;
pub use rtcac_storm as storm;
