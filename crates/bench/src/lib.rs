//! Shared formatting helpers for the table/figure regeneration
//! binaries.
//!
//! Each binary in `src/bin/` reproduces one artifact of the paper's
//! evaluation section and prints it in a gnuplot-friendly format:
//! `# comment` headers, whitespace-separated columns, blank lines
//! between series. See `EXPERIMENTS.md` at the repository root for the
//! paper-vs-measured comparison.

// `deny`, not `forbid`: the `memory` module needs one scoped `unsafe`
// block for its `GlobalAlloc` impl and opts in explicitly.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod memory;

use std::fmt::Display;

use rtcac_bitstream::{Rate, Time, TrafficContract, VbrParams};
use rtcac_cac::{ConnectionId, ConnectionRequest, Priority, Switch, SwitchConfig};
use rtcac_net::LinkId;
use rtcac_rational::ratio;

/// Prints a `# key: value` header line.
pub fn header(key: &str, value: impl Display) {
    println!("# {key}: {value}");
}

/// Prints a `# columns: ...` line describing the data columns.
pub fn columns(names: &[&str]) {
    println!("# columns: {}", names.join(" "));
}

/// Prints one whitespace-separated data row.
pub fn row(values: &[String]) {
    println!("{}", values.join(" "));
}

/// Formats an `f64` with three decimals (plot precision).
pub fn f(value: f64) -> String {
    format!("{value:.3}")
}

/// Starts a named series block (gnuplot `index` separation).
pub fn series(name: impl Display) {
    println!();
    println!("# series: {name}");
}

/// Times `op` with a short warm-up, returning mean seconds per call.
///
/// A std-only stand-in for criterion (the registry is offline): runs
/// the closure until at least `min_total` has elapsed and divides.
pub fn time_op<T>(mut op: impl FnMut() -> T, min_total: std::time::Duration) -> f64 {
    // Warm-up: populate caches and let the branch predictor settle.
    for _ in 0..3 {
        std::hint::black_box(op());
    }
    let mut iters = 0u64;
    let start = std::time::Instant::now();
    loop {
        std::hint::black_box(op());
        iters += 1;
        if start.elapsed() >= min_total {
            break;
        }
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// The `k`-th VBR contract of the admission-cost preload: eleven peak
/// rates and seventeen sustained rates, so the exact denominators of a
/// port's aggregate grow until quantization bounds them.
pub fn preload_contract(k: u64) -> TrafficContract {
    TrafficContract::vbr(
        VbrParams::new(
            Rate::new(ratio(1, 40 + (k % 11) as i128)),
            Rate::new(ratio(1, 600 + (k % 17) as i128)),
            2 + k % 6,
        )
        .expect("the preload's contracts are valid"),
    )
}

/// A switch preloaded with `n` established connections spread over 4
/// incoming links and `levels` priorities, all on out-link 100.
/// Quantization keeps the exact-rational denominators of the
/// heterogeneous contracts bounded (the production configuration for
/// large switches).
///
/// # Panics
///
/// Panics if a preload connection is refused (it never is for the
/// sizes the admission-cost bench and its allocation pin use).
pub fn loaded_switch(n: u64, levels: u8) -> Switch {
    let config = SwitchConfig::uniform(levels, Time::from_integer(500))
        .and_then(|config| config.with_quantization(4096))
        .expect("a valid preload config");
    let mut sw = Switch::new(config);
    for k in 0..n {
        let request = ConnectionRequest::new(
            preload_contract(k),
            Time::from_integer(64),
            LinkId::external((k % 4) as u32),
            LinkId::external(100),
            Priority::new((k % levels as u64) as u8),
        );
        let decision = sw.admit(ConnectionId::new(k), request);
        assert!(
            decision.is_ok_and(|d| d.is_admitted()),
            "preload connection {k} must fit"
        );
    }
    sw
}

/// The request the admission-cost bench prices against a preload: a
/// contract no preload connection holds, on in-link 1 at the highest
/// priority.
pub fn preload_probe() -> ConnectionRequest {
    ConnectionRequest::new(
        preload_contract(9999),
        Time::from_integer(64),
        LinkId::external(1),
        LinkId::external(100),
        Priority::HIGHEST,
    )
}

/// Formats a seconds-per-call figure with an adaptive unit.
pub fn human_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} us", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f_formats_three_decimals() {
        assert_eq!(f(0.5), "0.500");
        assert_eq!(f(1.0 / 3.0), "0.333");
    }
}
