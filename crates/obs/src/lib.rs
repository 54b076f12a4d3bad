//! `rtcac-obs` — std-only observability for the rtcac workspace.
//!
//! The registry is deliberately tiny and dependency-free (the growth
//! environment runs with an unreachable crates.io registry, see
//! ROADMAP.md): everything is built from `std::sync` atomics and
//! mutexes.
//!
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s and [`Histogram`]s,
//!   all backed by `AtomicU64`; handle acquisition takes a lock once,
//!   after which every update is a lock-free atomic op.
//! * [`Histogram`] — log2-bucketed value/latency distribution with
//!   p50/p90/p99/max readout from a [`HistogramSnapshot`].
//! * [`Span`] — an RAII guard recording its lifetime (in nanoseconds)
//!   into a histogram; [`Span::enter`] resolves the histogram from the
//!   global registry, [`Span::timed`] uses a pre-resolved handle.
//! * [`EventRing`] — a bounded, mutex-sharded event buffer that counts
//!   drops under contention instead of ever blocking a hot path.
//! * [`Snapshot`] — a point-in-time view of everything, rendered as
//!   Prometheus text ([`Snapshot::to_prometheus`]) or JSON
//!   ([`Snapshot::to_json`]).
//! * [`Tracer`] / [`TraceCtx`] — causal tracing: per-admission
//!   trace/span contexts with deterministic sampling
//!   ([`Sampling`]), flushed into a lock-sharded span ring and
//!   exported as Chrome `trace_event` JSON ([`chrome_trace`]) or an
//!   indented text tree ([`render_spans`]).
//! * [`codec`] — the one bounds-checked binary codec, sectioned-file
//!   container and atomic file write, shared by the wire protocol, the
//!   snapshot and the flight dump.
//!
//! # The no-op default
//!
//! Instrumented code paths obtain handles that are either *live*
//! (pointing at registry atomics) or *no-op* (`Option::None` inside):
//! when no registry is installed every `inc`/`record` is a single
//! branch on a `None` and no clock is read, so instrumentation can stay
//! compiled into hot paths at near-zero cost. Install a process-global
//! registry with [`install`]; components may also accept an explicit
//! registry (e.g. `AdmissionEngine::with_registry` in `rtcac-engine`)
//! so tests and benches can observe in isolation.
//!
//! ```
//! use std::sync::Arc;
//! use rtcac_obs::Registry;
//!
//! let registry = Arc::new(Registry::new());
//! let admitted = registry.counter("engine_setups_admitted_total");
//! let latency = registry.histogram("engine_reserve_ns");
//! admitted.inc();
//! latency.record(750);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("engine_setups_admitted_total"), Some(1));
//! assert!(snap.to_prometheus().contains("engine_reserve_ns_bucket"));
//! assert!(snap.to_json().starts_with('{'));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
pub mod codec;
mod expo;
pub mod flight;
mod histogram;
mod registry;
mod ring;
pub mod series;
mod span;
mod trace;

pub use alloc::{alloc_count, alloc_live_bytes, note_alloc, note_dealloc};
pub use expo::{EventsSnapshot, Snapshot};
pub use flight::{FlightConfig, FlightDump, FlightError, FlightRecorder};
pub use histogram::{bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, BUCKET_COUNT};
pub use registry::{Counter, Exemplar, Gauge, MetricId, Registry};
pub use ring::{Event, EventRing};
pub use series::{Sampler, TickDelta, TimeSeries};
pub use span::Span;
pub use trace::{
    chrome_trace, render_spans, Sampling, SpanId, SpanRecord, TraceCtx, TraceId, Tracer,
};

use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// Installs the process-global registry. Returns `false` (leaving the
/// existing registry in place) if one was already installed.
pub fn install(registry: Arc<Registry>) -> bool {
    GLOBAL.set(registry).is_ok()
}

/// The installed global registry, if any.
pub fn global() -> Option<&'static Arc<Registry>> {
    GLOBAL.get()
}

/// A counter from the global registry, or a no-op handle if no registry
/// is installed.
pub fn counter(name: &str) -> Counter {
    global().map_or_else(Counter::noop, |r| r.counter(name))
}

/// A gauge from the global registry, or a no-op handle.
pub fn gauge(name: &str) -> Gauge {
    global().map_or_else(Gauge::noop, |r| r.gauge(name))
}

/// A histogram from the global registry, or a no-op handle.
pub fn histogram(name: &str) -> Histogram {
    global().map_or_else(Histogram::noop, |r| r.histogram(name))
}

/// Records an event into the global registry's ring (dropped silently
/// when no registry is installed).
pub fn record_event(name: &'static str, detail: impl Into<String>) {
    if let Some(r) = global() {
        r.events().record(name, detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global OnceLock is process-wide, so keep all global-path
    // assertions in one test (test binaries run tests concurrently).
    #[test]
    fn global_install_and_noop_fallback() {
        // Before install the helpers return no-op handles that accept
        // updates without panicking.
        let c = counter("pre_install_total");
        c.inc();
        assert_eq!(c.get(), 0);
        let h = histogram("pre_install_ns");
        h.record(5);
        assert!(h.snapshot().count == 0);
        record_event("pre", "nothing listens");

        let registry = Arc::new(Registry::new());
        assert!(install(Arc::clone(&registry)));
        assert!(
            !install(Arc::new(Registry::new())),
            "second install wins nothing"
        );

        counter("post_install_total").inc();
        record_event("post", "now recorded");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("post_install_total"), Some(1));
        assert!(snap.events.events.iter().any(|e| e.name == "post"));
    }
}
