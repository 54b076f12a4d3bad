//! Bit-stream traffic model and worst-case queueing analysis for hard
//! real-time ATM connection admission control.
//!
//! This crate implements the analytical core of *"Connection Admission
//! Control for Hard Real-Time Communication in ATM Networks"* (Zheng,
//! Yokotani, Ichihashi, Nemoto; MERL TR-96-21 / ICDCS'97):
//!
//! - the **bit-stream traffic model** (§2): the worst-case arrival of a
//!   CBR/VBR connection as a monotonically non-increasing, piecewise
//!   constant rate function of time — see [`BitStream`] and
//!   [`TrafficContract`] (Algorithm 2.1);
//! - the **stream manipulation algebra** (§3) modeling traffic
//!   distortion inside a network: [`BitStream::delay`] (Algorithm 3.1,
//!   jitter clumping), [`BitStream::multiplex`] (Algorithm 3.2),
//!   [`BitStream::demultiplex`] (Algorithm 3.3) and
//!   [`BitStream::filter`] (Algorithm 3.4, link smoothing);
//! - the **worst-case queueing delay bound** (§4.2, Algorithm 4.1):
//!   [`BitStream::delay_bound`] computes the maximum FIFO queueing delay
//!   of a priority class under the interference of all higher-priority
//!   traffic.
//!
//! Time is measured in **cell times** (the time to transmit one ATM cell
//! at full link bandwidth) and rates are **normalized to the link
//! bandwidth**, exactly as in the paper. All arithmetic is exact
//! (rational numbers from [`rtcac_rational`]).
//!
//! # Quickstart
//!
//! ```
//! use rtcac_bitstream::{BitStream, Rate, Time, TrafficContract, VbrParams};
//! use rtcac_rational::ratio;
//!
//! // A VBR connection: peak 1/4 of the link, sustainable 1/20, bursts
//! // of up to 10 cells.
//! let vbr = TrafficContract::vbr(VbrParams::new(
//!     Rate::new(ratio(1, 4)),
//!     Rate::new(ratio(1, 20)),
//!     10,
//! )?);
//! let source = vbr.worst_case_stream();
//!
//! // After traversing switches with 30 cell times of accumulated
//! // jitter, the worst-case arrival is clumpier:
//! let arrival = source.delay(Time::new(ratio(30, 1)));
//!
//! // Five such connections multiplexed at an output port can burst
//! // above the link rate; bound their FIFO queueing delay at the
//! // highest priority:
//! let aggregate = BitStream::multiplex_all(std::iter::repeat(&arrival).take(5));
//! let bound = aggregate.delay_bound(&BitStream::zero())?;
//! assert!(bound > Time::ZERO);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coarsen;
mod contract;
mod cumulative;
mod delay;
mod delay_bound;
mod error;
mod filter;
mod mux;
mod stream;
mod units;

pub use contract::{CbrParams, ContractError, TrafficContract, VbrParams};
pub use error::StreamError;
pub use stream::{BitStream, Segment, SegmentIter, Segments};
pub use units::{Cells, Rate, Time};
