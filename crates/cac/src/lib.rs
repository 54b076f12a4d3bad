//! Per-switch connection admission control for hard real-time ATM
//! connections — the paper's §4.3.
//!
//! Each [`Switch`] keeps, for every (incoming link, outgoing link,
//! priority) triple, the aggregated worst-case arrival [`BitStream`] of
//! the connections admitted through it, and advertises a **fixed**
//! queueing delay bound per priority level equal to its FIFO queue size
//! in cells. A new connection is admitted if and only if, with its
//! worst-case (jitter-distorted) arrival stream added, the computed
//! worst-case queueing delay of its own priority *and of every lower
//! priority* still fits the advertised bounds (Steps 1–6 of §4.3).
//!
//! Because admitted traffic never queues longer than the advertised
//! bound, the FIFO queue (sized to that bound) also never overflows —
//! admission simultaneously guarantees bounded delay and zero cell
//! loss.
//!
//! [`BitStream`]: rtcac_bitstream::BitStream
//!
//! # Examples
//!
//! ```
//! use rtcac_bitstream::{Rate, Time, TrafficContract, VbrParams};
//! use rtcac_cac::{AdmissionDecision, ConnectionId, ConnectionRequest, Priority, Switch, SwitchConfig};
//! use rtcac_net::LinkId;
//! use rtcac_rational::ratio;
//!
//! // A switch with one priority level and a 32-cell FIFO (the RTnet
//! // configuration: 87 µs at 155 Mbps).
//! let config = SwitchConfig::uniform(1, Time::from_integer(32))?;
//! let mut switch = Switch::new(config);
//!
//! let contract = TrafficContract::vbr(VbrParams::new(
//!     Rate::new(ratio(1, 4)),
//!     Rate::new(ratio(1, 16)),
//!     8,
//! )?);
//! let request = ConnectionRequest::new(
//!     contract,
//!     Time::from_integer(64), // accumulated upstream CDV
//!     LinkId::external(0),    // incoming port
//!     LinkId::external(1),    // outgoing port
//!     Priority::HIGHEST,
//! );
//!
//! match switch.admit(ConnectionId::new(1), request)? {
//!     AdmissionDecision::Admitted(report) => {
//!         assert!(report.bound_for(Priority::HIGHEST).unwrap() <= Time::from_integer(32));
//!     }
//!     AdmissionDecision::Rejected(reason) => panic!("unexpected rejection: {reason}"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
pub mod baseline;
mod cdv;
mod config;
mod connection;
mod error;
mod intern;
mod plan;
mod report;
mod switch;
mod tables;

pub use audit::{FailureImpact, GuaranteeViolation};
pub use cdv::CdvPolicy;
pub use config::{Priority, SwitchConfig};
pub use connection::{ConnectionId, ConnectionRequest};
pub use error::{CacError, RejectReason};
pub use intern::ContractHandle;
pub use plan::{
    release_order, HopDriver, HopSpec, PlannedHop, ReservationPlan, ReserveOutcome, RoutePlan,
    LOCAL_INJECTION,
};
pub use report::{AdmissionReport, AdmissionVerdict, HopRow, HopVerdict};
pub use switch::{AdmissionDecision, BoundsReport, Switch};
