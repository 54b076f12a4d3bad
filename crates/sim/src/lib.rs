//! A slotted, cell-level ATM network simulator with static-priority
//! FIFO output-queued switches.
//!
//! The analytic machinery of the sibling crates *bounds* worst-case
//! queueing delays; this crate *measures* them, so the bounds can be
//! validated empirically (an experiment the paper's authors ran on
//! RTnet hardware; here the hardware substrate is simulated, which the
//! CAC analysis treats identically — only link rates, queue sizes and
//! priorities matter).
//!
//! # Model
//!
//! Time advances in **cell slots**: the time to transmit one cell at
//! full link bandwidth (~2.7 µs at 155 Mbps). Per slot, each link
//! transmits at most one cell (store-and-forward: a cell transmitted in
//! slot `t` is available at the next node in slot `t + 1`). Every link
//! has an output port at its sending node holding one FIFO queue per
//! priority level; switches serve the highest non-empty priority first.
//!
//! Sources are token-bucket shaped ([`Shaper`], implementing the
//! paper's Equation 1) and can follow several [`TrafficPattern`]s:
//! greedy (the worst case of Figure 1), periodic, or seeded-random
//! on/off.
//!
//! # Examples
//!
//! ```
//! use rtcac_bitstream::{Rate, TrafficContract, VbrParams};
//! use rtcac_cac::{ConnectionId, Priority};
//! use rtcac_net::{builders, Route};
//! use rtcac_rational::ratio;
//! use rtcac_sim::{Simulation, TrafficPattern};
//!
//! let (topology, src, switches, dst) = builders::line(2)?;
//! let route = Route::from_nodes(&topology, [src, switches[0], switches[1], dst])?;
//!
//! let contract = TrafficContract::vbr(VbrParams::new(
//!     Rate::new(ratio(1, 4)),
//!     Rate::new(ratio(1, 16)),
//!     8,
//! )?);
//!
//! let mut sim = Simulation::new(&topology);
//! sim.add_connection(
//!     ConnectionId::new(1),
//!     route,
//!     Priority::HIGHEST,
//!     contract,
//!     TrafficPattern::Greedy,
//! )?;
//! let report = sim.run(10_000);
//! let conn = report.connection(ConnectionId::new(1)).unwrap();
//! assert!(conn.delivered > 0);
//! assert_eq!(conn.emitted, conn.delivered + conn.in_flight);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod queue;
mod shaper;
mod source;
mod stats;

pub use engine::Simulation;
pub use error::SimError;
pub use queue::PriorityFifo;
pub use shaper::Shaper;
pub use source::{ShapedSource, TrafficPattern};
pub use stats::{ConnectionStats, PortStats, SimReport};

// The generator moved to `rtcac-net` so seeded crates need not link the
// simulator; `rtcac_sim::SimRng` keeps resolving.
pub use rtcac_net::SimRng;
