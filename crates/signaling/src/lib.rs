//! Distributed establishment of hard real-time connections — the
//! paper's connection setup sequence (§4.1) and CDV accumulation
//! schemes (§4.3, discussion 1).
//!
//! A source end system requests a connection by sending a SETUP message
//! carrying `(PCR, SCR, MBS, D)` along a preselected route. Every
//! switch on the route runs the §4.3 CAC check with the cell delay
//! variation (CDV) accumulated over its *upstream* switches; the first
//! failing switch answers REJECT (releasing upstream reservations), and
//! a SETUP that reaches the destination yields CONNECTED.
//!
//! Two CDV accumulation policies are provided ([`CdvPolicy`]):
//!
//! - **Hard** — the sum of upstream advertised bounds: the true worst
//!   case, required for hard real-time guarantees;
//! - **SoftSqrt** — the square root of the sum of squares: a less
//!   conservative estimate for soft real-time connections (the paper's
//!   Figure 13 quantifies the capacity gained).
//!
//! [`Network`] drives the whole procedure over a
//! [`Topology`](rtcac_net::Topology) and records an auditable
//! [`SignalEvent`] trace. The centralized connection-management style
//! planned for the next RTnet version (§4.3, discussion 3) is the
//! `rtcac-serve` crate: a resident TCP service dispatching a wire
//! protocol onto the concurrent admission engine.
//!
//! # Examples
//!
//! ```
//! use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract};
//! use rtcac_cac::{Priority, SwitchConfig};
//! use rtcac_net::{builders, Route};
//! use rtcac_rational::ratio;
//! use rtcac_signaling::{CdvPolicy, Network, SetupOutcome, SetupRequest};
//!
//! // Two switches in a line, 32-cell FIFO queues.
//! let (topology, src, switches, dst) = builders::line(2)?;
//! let config = SwitchConfig::uniform(1, Time::from_integer(32))?;
//! let mut network = Network::new(topology, config, CdvPolicy::Hard);
//!
//! let route = Route::from_nodes(
//!     network.topology(),
//!     [src, switches[0], switches[1], dst],
//! )?;
//! let contract = TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, 8)))?);
//! let request = SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(100));
//!
//! match network.setup(&route, request)? {
//!     SetupOutcome::Connected(info) => {
//!         // Guaranteed end-to-end queueing delay: both hops' bounds.
//!         assert_eq!(info.guaranteed_delay(), Time::from_integer(64));
//!     }
//!     SetupOutcome::Rejected(r) => panic!("unexpected rejection: {r:?}"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod message;
mod multicast;
mod network;

pub use error::SignalError;
pub use message::{SetupRejection, SignalEvent};
pub use multicast::{MulticastInfo, MulticastOutcome};
pub use network::{
    ConnectionInfo, CrankbackAttempt, CrankbackOutcome, CrankbackPolicy, Network, SetupOutcome,
    SetupRequest, LOCAL_INJECTION,
};
// Shared with the concurrent driver (`rtcac_engine`): one definition, in
// the admission core.
pub use rtcac_cac::{CdvPolicy, FailureImpact, GuaranteeViolation};
