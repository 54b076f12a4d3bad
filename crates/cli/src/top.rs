//! `rtcac top` — a live terminal view of a running admission server.
//!
//! Scrapes the server's `/metrics` exposition endpoint on an interval
//! through [`rtcac_serve::Scraper`], which feeds a windowed
//! [`rtcac_obs::TimeSeries`] — so every figure shown is a *live* rate
//! or a sliding-window quantile, not a since-boot average.
//!
//! Two render modes: a redrawn ANSI dashboard (default, for a human
//! terminal) and `--no-tui` one-line-per-sample output (for CI logs
//! and piping).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rtcac_obs::TimeSeries;
use rtcac_serve::{human_bytes, Scraper};

use crate::error::CliError;

/// Parameters of `rtcac top`.
#[derive(Debug, Clone)]
pub struct TopArgs {
    /// Exposition endpoint to scrape (`host:port`).
    pub addr: String,
    /// Milliseconds between scrapes.
    pub interval_ms: u64,
    /// Stop after this many samples (`None` = run until interrupted).
    pub samples: Option<u64>,
    /// Line-per-sample output instead of the redrawn dashboard.
    pub no_tui: bool,
}

impl Default for TopArgs {
    fn default() -> TopArgs {
        TopArgs {
            addr: "127.0.0.1:7048".into(),
            interval_ms: 1000,
            samples: None,
            no_tui: false,
        }
    }
}

/// Consecutive scrape failures tolerated before giving up (a server
/// being drained mid-watch should end the watch, not wedge it).
const MAX_SCRAPE_FAILURES: u32 = 5;

/// Runs the live view until `--samples` is exhausted or the endpoint
/// goes away.
///
/// # Errors
///
/// Returns [`CliError::Domain`] when the endpoint cannot be scraped at
/// all, or disappears mid-watch.
pub fn top(args: &TopArgs) -> Result<String, CliError> {
    let interval = Duration::from_millis(args.interval_ms.max(100));
    let mut scraper = Scraper::new(&args.addr);
    let mut failures = 0u32;
    let mut taken = 0u64;
    let started = Instant::now();
    loop {
        match scraper.scrape() {
            Ok(series) => {
                failures = 0;
                taken += 1;
                if args.no_tui {
                    println!("{}", status_line(series, started.elapsed()));
                } else {
                    // Clear + home, then the full frame: a flicker-free
                    // redraw without any terminal library.
                    print!("\x1b[2J\x1b[H{}", render_frame(series, args, started));
                }
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
            }
            Err(e) => {
                failures += 1;
                if taken == 0 {
                    return Err(CliError::Domain(format!(
                        "top: cannot scrape {}/metrics: {e}",
                        args.addr
                    )));
                }
                if failures >= MAX_SCRAPE_FAILURES {
                    return Ok(format!(
                        "top: endpoint {} went away after {taken} sample(s) ({e})\n",
                        args.addr
                    ));
                }
            }
        }
        if let Some(limit) = args.samples {
            if taken >= limit {
                return Ok(if args.no_tui {
                    String::new()
                } else {
                    format!("top: watched {} for {taken} sample(s)\n", args.addr)
                });
            }
        }
        std::thread::sleep(interval);
    }
}

/// The one-line form: what `--no-tui` prints per sample.
fn status_line(series: &TimeSeries, uptime: Duration) -> String {
    format!(
        "top: t={:>5.0}s ops/s={:<8.0} admit/s={:<8.0} reject/s={:<6.0} reroute/s={:<4.0} \
         reserve_p50={}ns p99={}ns resident={} active={} orphans={}",
        uptime.as_secs_f64(),
        series.rate_last("engine_setups_submitted_total"),
        series.rate_last("engine_setups_admitted_total"),
        series.rate_last("engine_setups_rejected_total"),
        series.rate_last("engine_setups_rerouted_total"),
        series.window_quantile("engine_reserve_ns", 0.5),
        series.window_quantile("engine_reserve_ns", 0.99),
        human_bytes(series.last_gauge("engine_resident_bytes").unwrap_or(0)),
        series.last_gauge("serve_active_connections").unwrap_or(0),
        series
            .last_gauge("engine_orphaned_reservations")
            .unwrap_or(0),
    )
}

/// The full dashboard frame for the TUI mode.
fn render_frame(series: &TimeSeries, args: &TopArgs, started: Instant) -> String {
    let mut out = String::new();
    let window_secs = series.window_ms() as f64 / 1e3;
    let _ = writeln!(
        out,
        "rtcac top — {}  (up {:.0}s, window {:.0}s over {} ticks, ^C to quit)",
        args.addr,
        started.elapsed().as_secs_f64(),
        window_secs,
        series.len(),
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "  admission (per second, latest tick)");
    let _ = writeln!(
        out,
        "    submitted {:>10.0}   admitted {:>10.0}   rejected {:>8.0}   rerouted {:>6.0}",
        series.rate_last("engine_setups_submitted_total"),
        series.rate_last("engine_setups_admitted_total"),
        series.rate_last("engine_setups_rejected_total"),
        series.rate_last("engine_setups_rerouted_total"),
    );
    let _ = writeln!(
        out,
        "    released  {:>10.0}   aborted  {:>10.0}   window avg submitted/s {:>8.0}",
        series.rate_last("engine_released_total"),
        series.rate_last("engine_setups_aborted_total"),
        series.rate("engine_setups_submitted_total"),
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "  latency (sliding window, ns)");
    let _ = writeln!(
        out,
        "    reserve  p50 {:>10}  p99 {:>10}   commit p99 {:>10}   lock-wait p99 {:>10}",
        series.window_quantile("engine_reserve_ns", 0.5),
        series.window_quantile("engine_reserve_ns", 0.99),
        series.window_quantile("engine_commit_ns", 0.99),
        series.window_quantile("engine_shard_lock_wait_ns", 0.99),
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "  state");
    let _ = writeln!(
        out,
        "    active {:>8}   orphans {:>4}   long lock holds (window) {:>4}   draining {}",
        series.last_gauge("serve_active_connections").unwrap_or(0),
        series
            .last_gauge("engine_orphaned_reservations")
            .unwrap_or(0),
        series.window_count("engine_lock_hold_long_total"),
        if series.last_gauge("serve_draining").unwrap_or(0) != 0 {
            "YES"
        } else {
            "no"
        },
    );
    let _ = writeln!(
        out,
        "    resident {:>10}   alloc live {:>10}   snapshot age {:>5}s ({})",
        human_bytes(series.last_gauge("engine_resident_bytes").unwrap_or(0)),
        human_bytes(series.last_gauge("alloc_live_bytes").unwrap_or(0)),
        series.last_gauge("snapshot_age_seconds").unwrap_or(0),
        human_bytes(series.last_gauge("snapshot_bytes").unwrap_or(0)),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_obs::Registry;

    fn ticked_series() -> TimeSeries {
        let registry = Registry::new();
        let mut series = TimeSeries::new(8);
        series.observe(&registry.snapshot(), 0);
        registry.counter("engine_setups_submitted_total").add(500);
        registry.counter("engine_setups_admitted_total").add(450);
        registry.counter("engine_setups_rejected_total").add(50);
        registry.gauge("engine_resident_bytes").set(3 << 20);
        registry.gauge("serve_active_connections").set(42);
        let h = registry.histogram("engine_reserve_ns");
        for _ in 0..100 {
            h.record(4_000);
        }
        series.observe(&registry.snapshot(), 1000);
        series
    }

    #[test]
    fn status_line_carries_live_rates() {
        let series = ticked_series();
        let line = status_line(&series, Duration::from_secs(12));
        assert!(line.contains("ops/s=500"), "rates in: {line}");
        assert!(line.contains("reject/s=50"), "rejects in: {line}");
        assert!(line.contains("resident=3.0MiB"), "resident in: {line}");
        assert!(line.contains("active=42"), "active in: {line}");
    }

    #[test]
    fn frame_renders_every_section() {
        let series = ticked_series();
        let frame = render_frame(&series, &TopArgs::default(), Instant::now());
        for needle in ["admission", "latency", "state", "submitted", "reserve"] {
            assert!(frame.contains(needle), "missing '{needle}' in:\n{frame}");
        }
        // Quantiles come from the windowed histogram, interpolated
        // within the winning bucket — bounded by the bucket's range.
        let p99 = series.window_quantile("engine_reserve_ns", 0.99);
        assert!((2048..=8191).contains(&p99), "windowed p99: {p99}");
    }
}
