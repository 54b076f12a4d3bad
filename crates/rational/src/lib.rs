//! Exact rational arithmetic for worst-case real-time network analysis.
//!
//! The connection-admission-control algebra in the sibling crates composes
//! long chains of stream operations (multiplexing, filtering, delaying).
//! Floating point would accumulate drift and make conservation laws hold
//! only approximately; this crate provides an exact [`Ratio`] type over
//! `i128` so that invariants such as "demultiplexing undoes multiplexing"
//! hold with `==`.
//!
//! # Examples
//!
//! ```
//! use rtcac_rational::Ratio;
//!
//! let third = Ratio::new(1, 3)?;
//! let sixth = Ratio::new(1, 6)?;
//! assert_eq!(third + sixth, Ratio::new(1, 2)?);
//! assert!(third > sixth);
//! # Ok::<(), rtcac_rational::RatioError>(())
//! ```
//!
//! All arithmetic is checked: operators panic on overflow (documented on
//! each impl), while `checked_*` methods return `Option`. In practice the
//! CAC workloads keep numerators and denominators far below the `i128`
//! range because every operation reduces by the GCD.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fmt;
mod isqrt;
mod ops;
mod ratio;

pub use isqrt::{isqrt_floor, sqrt_lower, sqrt_upper};
pub use ratio::{NarrowRatio, Ratio, RatioError};

/// The greatest common divisor of two machine words, by the binary
/// (Stein) algorithm that reduces every word-sized [`Ratio`];
/// `gcd(0, b) == b`.
///
/// ```
/// assert_eq!(rtcac_rational::gcd(4096, 24), 8);
/// assert_eq!(rtcac_rational::gcd(0, 7), 7);
/// ```
#[inline]
pub fn gcd(a: u64, b: u64) -> u64 {
    ratio::gcd_u64(a, b)
}

/// Convenience constructor used pervasively in tests and examples.
///
/// # Panics
///
/// Panics if `den == 0`. Use [`Ratio::new`] for a fallible version.
///
/// ```
/// use rtcac_rational::{ratio, Ratio};
/// assert_eq!(ratio(2, 4), Ratio::new(1, 2).unwrap());
/// ```
pub fn ratio(num: i128, den: i128) -> Ratio {
    Ratio::new(num, den).expect("ratio: zero denominator")
}
