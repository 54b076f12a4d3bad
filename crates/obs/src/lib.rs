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
//! a component built without a registry gets no-op handles, so every
//! `inc`/`record` is a single branch on a `None` and no clock is read,
//! and instrumentation can stay compiled into hot paths at near-zero
//! cost. There is no process-global registry: a component that records
//! takes its [`Registry`] as an argument (e.g.
//! `AdmissionEngine::with_registry` in `rtcac-engine`), so every
//! reader holds the registry it reads.
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
mod trace;

pub use alloc::{alloc_count, alloc_live_bytes, note_alloc, note_dealloc};
pub use expo::{EventsSnapshot, Snapshot};
pub use flight::{FlightConfig, FlightDump, FlightError, FlightRecorder};
pub use histogram::{bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, BUCKET_COUNT};
pub use registry::{Counter, Exemplar, Gauge, MetricId, Registry};
pub use ring::{Event, EventRing};
pub use series::{Sampler, TickDelta, TimeSeries};
pub use trace::{
    chrome_trace, render_spans, Sampling, SpanId, SpanRecord, TraceCtx, TraceId, Tracer,
};
