//! Command-line admission-control toolkit for the `rtcac` workspace.
//!
//! The `rtcac` binary exposes the paper's machinery without writing
//! Rust:
//!
//! - `rtcac bound …` — worst-case delay-bound calculator for a set of
//!   identical connections at one port;
//! - `rtcac check <scenario>` — run the distributed setup procedure
//!   over a scenario file and report every outcome;
//! - `rtcac simulate <scenario> …` — replay the admitted scenario in
//!   the cell-level simulator and compare measured vs computed;
//! - `rtcac rtnet …` — RTnet ring analysis (port bounds, end-to-end
//!   bound, admissibility) for symmetric/asymmetric loads.
//!
//! Scenario files use a line-based format documented in [`scenario`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub mod error;
mod replay;
pub mod scenario;
pub mod storm;
pub mod top;

pub use error::CliError;
