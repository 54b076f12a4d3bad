//! The flight recorder: an always-on, bounded black box dumped on
//! anomaly.
//!
//! A Prometheus scrape tells you what the counters are *now*; when the
//! orphan gauge goes nonzero at 03:12 the question is what the system
//! was doing in the thirty seconds *before*. The [`FlightRecorder`]
//! keeps that answer ready at all times with bounded memory: a ring of
//! recent [`TickDelta`]s (fed by the [`Sampler`](crate::series::Sampler)
//! or explicit calls), and on a trigger it captures the event ring,
//! recent span trees and gauge levels and writes everything to one
//! self-verifying binary file.
//!
//! # Triggers
//!
//! | trigger                         | source                          |
//! |---------------------------------|---------------------------------|
//! | orphan gauge > 0                | per-tick check or engine hook   |
//! | guarantee-audit failure         | engine anomaly hook             |
//! | lock-hold watchdog              | per-tick check or engine hook   |
//! | resident-bytes jump             | per-tick check                  |
//! | panic                           | [`FlightRecorder::install_panic_hook`] |
//! | explicit `DUMP` wire op / CLI   | [`FlightRecorder::force_dump`]  |
//!
//! Every trigger reason is *once-latched* (default: one dump per reason
//! per process, [`FlightConfig::max_dumps_per_reason`]) so a persistent
//! anomaly produces one black box, not a disk full of identical ones;
//! `force_dump` bypasses the latch.
//!
//! # Container (`.rtfr`)
//!
//! The shared sectioned file of [`crate::codec`] (the snapshot's
//! `RTSN` is the other user) with magic `RTFR`, version 1 and five
//! sections: 1 meta, 2 series (the tick ring), 3 events, 4 spans,
//! 5 gauges. A reader refuses unknown versions and any checksum
//! mismatch — a corrupted black box must say so, not half-render.
//!
//! Dumps are written with [`write_atomic`] (temp sibling, fsync,
//! rename) so a crash mid-dump never leaves a torn `.rtfr`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::codec::{write_atomic, CodecError, Container, Dec, Enc};
use crate::registry::{MetricId, Registry};
use crate::series::TickDelta;
use crate::trace::{SpanId, SpanRecord, TraceId};
use crate::{EventsSnapshot, HistogramSnapshot, Snapshot, BUCKET_COUNT};

/// The container magic.
pub const MAGIC: [u8; 4] = *b"RTFR";
/// The only format version this build reads and writes.
pub const VERSION: u16 = 1;
/// Decode refuses files larger than this.
pub const MAX_DUMP: u64 = 64 << 20;

/// The dump's checksum — the one FNV-1a every container uses.
pub use crate::codec::fnv64;

const CONTAINER: Container = Container {
    magic: MAGIC,
    versions: VERSION..=VERSION,
    sections: &[
        (1, "meta"),
        (2, "series"),
        (3, "events"),
        (4, "spans"),
        (5, "gauges"),
    ],
    max_len: MAX_DUMP,
};

/// Everything that can be wrong with a flight-dump file: the shared
/// codec's error, since the container and every field go through it.
pub type FlightError = CodecError;

// ── section codecs ──────────────────────────────────────────────────

fn enc_metric_id(enc: &mut Enc, id: &MetricId) {
    enc.string(id.name());
    enc.u8(id.labels().len() as u8);
    for (k, v) in id.labels() {
        enc.string(k).string(v);
    }
}

/// A `u32`-counted list of `(metric id, value)` pairs.
fn enc_metric_values(enc: &mut Enc, values: &[(MetricId, u64)]) {
    enc.u32(values.len() as u32);
    for (id, v) in values {
        enc_metric_id(enc, id);
        enc.u64(*v);
    }
}

fn dec_metric_values(dec: &mut Dec<'_>) -> Result<Vec<(MetricId, u64)>, FlightError> {
    dec.list(4 + 1 + 8, |d| Ok((dec_metric_id(d)?, d.u64()?)))
}

fn dec_metric_id(dec: &mut Dec<'_>) -> Result<MetricId, FlightError> {
    let name = dec.string()?;
    let label_count = dec.u8()?;
    let mut labels = Vec::with_capacity(label_count as usize);
    for _ in 0..label_count {
        labels.push((dec.string()?, dec.string()?));
    }
    Ok(MetricId::from_parts(name, labels))
}

/// One histogram of a tick: its id, then sparse `(bucket, count)` pairs.
fn dec_histogram(dec: &mut Dec<'_>) -> Result<(MetricId, HistogramSnapshot), FlightError> {
    let id = dec_metric_id(dec)?;
    let mut h = HistogramSnapshot::default();
    for _ in 0..dec.u8()? {
        let idx = dec.u8()? as usize;
        if idx >= BUCKET_COUNT {
            return Err(FlightError::Invalid("bucket index out of range"));
        }
        h.buckets[idx] = dec.u64()?;
    }
    h.count = h.buckets.iter().sum();
    h.sum = dec.u64()?;
    h.max = dec.u64()?;
    Ok((id, h))
}

/// Interns a decoded span/attr name, giving it the `&'static str` the
/// in-memory [`SpanRecord`] shape requires. Deduplicated, so the leak
/// is bounded by the number of *distinct* names ever decoded — a
/// handful in practice ("engine.admit", "reserve", …) — and `decode`
/// is only called from short-lived inspection paths anyway.
fn intern(s: String) -> &'static str {
    static POOL: OnceLock<Mutex<std::collections::BTreeSet<&'static str>>> = OnceLock::new();
    let mut pool = POOL
        .get_or_init(|| Mutex::new(std::collections::BTreeSet::new()))
        .lock()
        .expect("intern pool poisoned");
    match pool.get(s.as_str()) {
        Some(&existing) => existing,
        None => {
            let leaked: &'static str = Box::leak(s.into_boxed_str());
            pool.insert(leaked);
            leaked
        }
    }
}

// ── the dump document ───────────────────────────────────────────────

/// One decoded flight dump: why it fired and what the system was doing.
#[derive(Debug, Clone, Default)]
pub struct FlightDump {
    /// The trigger reason (`"orphans"`, `"lock_hold"`, `"panic"`, …).
    pub reason: String,
    /// Free-form trigger detail.
    pub detail: String,
    /// Dump sequence number within the writing process.
    pub seq: u64,
    /// The tick number during which the trigger fired (the last entry
    /// of `ticks` at capture time).
    pub trigger_tick: u64,
    /// Whether this was a forced dump (wire `DUMP` / CLI) rather than
    /// an anomaly trigger.
    pub forced: bool,
    /// The retained window of per-tick deltas, oldest first.
    pub ticks: Vec<TickDelta>,
    /// The event ring at capture time.
    pub events: EventsSnapshot,
    /// Recent span records at capture time.
    pub spans: Vec<SpanRecord>,
    /// Gauge levels at capture time.
    pub gauges: Vec<(MetricId, u64)>,
}

impl FlightDump {
    /// Encodes the dump into its container bytes.
    pub fn encode(&self) -> Vec<u8> {
        CONTAINER.write(
            VERSION,
            &[
                self.encode_meta(),
                self.encode_series(),
                self.encode_events(),
                self.encode_spans(),
                self.encode_gauges(),
            ],
        )
    }

    fn encode_meta(&self) -> Vec<u8> {
        Enc::new()
            .string(&self.reason)
            .string(&self.detail)
            .u64(self.seq)
            .u64(self.trigger_tick)
            .flag(self.forced)
            .finish()
    }

    fn encode_series(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u32(self.ticks.len() as u32);
        for tick in &self.ticks {
            enc.u64(tick.tick).u64(tick.elapsed_ms);
            enc_metric_values(&mut enc, &tick.counters);
            enc_metric_values(&mut enc, &tick.gauges);
            enc.u32(tick.histograms.len() as u32);
            for (id, h) in &tick.histograms {
                enc_metric_id(&mut enc, id);
                // Sparse buckets: log2 deltas are almost all zero.
                let nonzero: Vec<(u8, u64)> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(i, &c)| (i as u8, c))
                    .collect();
                enc.u8(nonzero.len() as u8);
                for (i, c) in nonzero {
                    enc.u8(i).u64(c);
                }
                enc.u64(h.sum).u64(h.max);
            }
        }
        enc.finish()
    }

    fn encode_events(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u64(self.events.recorded)
            .u64(self.events.dropped)
            .u64(self.events.evicted);
        enc.u32(self.events.events.len() as u32);
        for e in &self.events.events {
            enc.u64(e.seq).string(e.name).string(&e.detail);
        }
        enc.finish()
    }

    fn encode_spans(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u32(self.spans.len() as u32);
        for s in &self.spans {
            enc.u64(s.trace.get()).u64(s.span.get());
            match s.parent {
                Some(p) => enc.flag(true).u64(p.get()),
                None => enc.flag(false),
            };
            enc.string(s.name).u64(s.begin_ns).u64(s.end_ns);
            enc.u8(s.attrs.len() as u8);
            for (k, v) in &s.attrs {
                enc.string(k).string(v);
            }
        }
        enc.finish()
    }

    fn encode_gauges(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc_metric_values(&mut enc, &self.gauges);
        enc.finish()
    }

    /// Decodes and fully verifies a flight dump: magic, version,
    /// section directory bounds, per-section checksums, whole-file
    /// checksum, then every payload consumed exactly.
    ///
    /// # Errors
    ///
    /// A [`FlightError`] naming the first thing wrong with the bytes —
    /// a single flipped bit anywhere in the file is refused.
    pub fn decode(bytes: &[u8]) -> Result<FlightDump, FlightError> {
        let (_, sections) = CONTAINER.parse(bytes)?;
        let payloads: Vec<&[u8]> = sections.iter().map(|s| s.payload(bytes)).collect();
        let mut dump = FlightDump::decode_meta(payloads[0])?;
        dump.ticks = FlightDump::decode_series(payloads[1])?;
        dump.events = FlightDump::decode_events(payloads[2])?;
        dump.spans = FlightDump::decode_spans(payloads[3])?;
        dump.gauges = FlightDump::decode_gauges(payloads[4])?;
        Ok(dump)
    }

    fn decode_meta(bytes: &[u8]) -> Result<FlightDump, FlightError> {
        let mut dec = Dec::new(bytes);
        let reason = dec.string()?;
        let detail = dec.string()?;
        let seq = dec.u64()?;
        let trigger_tick = dec.u64()?;
        let forced = dec.flag()?;
        dec.expect_end()?;
        Ok(FlightDump {
            reason,
            detail,
            seq,
            trigger_tick,
            forced,
            ..FlightDump::default()
        })
    }

    fn decode_series(bytes: &[u8]) -> Result<Vec<TickDelta>, FlightError> {
        let mut dec = Dec::new(bytes);
        let ticks = dec.list(8 + 8 + 4 + 4 + 4, |d| {
            Ok(TickDelta {
                tick: d.u64()?,
                elapsed_ms: d.u64()?,
                counters: dec_metric_values(d)?,
                gauges: dec_metric_values(d)?,
                histograms: d.list(4 + 1 + 1 + 8 + 8, dec_histogram)?,
            })
        })?;
        dec.expect_end()?;
        Ok(ticks)
    }

    fn decode_events(bytes: &[u8]) -> Result<EventsSnapshot, FlightError> {
        let mut dec = Dec::new(bytes);
        let events = EventsSnapshot {
            recorded: dec.u64()?,
            dropped: dec.u64()?,
            evicted: dec.u64()?,
            events: dec.list(8 + 4 + 4, |d| {
                Ok(crate::Event {
                    seq: d.u64()?,
                    name: intern(d.string()?),
                    detail: d.string()?,
                })
            })?,
        };
        dec.expect_end()?;
        Ok(events)
    }

    fn decode_spans(bytes: &[u8]) -> Result<Vec<SpanRecord>, FlightError> {
        let mut dec = Dec::new(bytes);
        let spans = dec.list(8 + 8 + 1 + 4 + 8 + 8 + 1, |d| {
            let trace = TraceId::new(d.u64()?);
            let span = SpanId::new(d.u64()?);
            let parent = if d.flag()? {
                Some(SpanId::new(d.u64()?))
            } else {
                None
            };
            let name = intern(d.string()?);
            let begin_ns = d.u64()?;
            let end_ns = d.u64()?;
            if end_ns < begin_ns {
                return Err(FlightError::Invalid("span ends before it begins"));
            }
            let attr_count = d.u8()?;
            let mut attrs = Vec::with_capacity(attr_count as usize);
            for _ in 0..attr_count {
                attrs.push((intern(d.string()?), d.string()?));
            }
            Ok(SpanRecord {
                trace,
                span,
                parent,
                name,
                begin_ns,
                end_ns,
                attrs,
            })
        })?;
        dec.expect_end()?;
        Ok(spans)
    }

    fn decode_gauges(bytes: &[u8]) -> Result<Vec<(MetricId, u64)>, FlightError> {
        let mut dec = Dec::new(bytes);
        let gauges = dec_metric_values(&mut dec)?;
        dec.expect_end()?;
        Ok(gauges)
    }

    /// Renders the dump as a human-readable timeline: the trigger, one
    /// line per retained tick (rates and key gauges), then events and
    /// span trees.
    pub fn render_timeline(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight dump #{} reason={} {}tick {}",
            self.seq,
            self.reason,
            if self.forced { "(forced) " } else { "" },
            self.trigger_tick
        );
        if !self.detail.is_empty() {
            let _ = writeln!(out, "  detail: {}", self.detail);
        }
        let _ = writeln!(out, "timeline ({} ticks):", self.ticks.len());
        for t in &self.ticks {
            let ops = t.counter_total("engine_setups_submitted_total");
            let rejects = t.counter_total("engine_rejections_total");
            let reroutes = t.counter_total("engine_setups_rerouted_total");
            let long_holds = t.counter_total("engine_lock_hold_long_total");
            let orphans = t.gauge("engine_orphaned_reservations").unwrap_or(0);
            let resident = t.gauge("engine_resident_bytes").unwrap_or(0);
            let marker = if t.tick == self.trigger_tick {
                "  << trigger"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  tick {:>6} +{:>5}ms ops={ops} rejects={rejects} reroutes={reroutes} \
                 long_holds={long_holds} orphans={orphans} resident={resident}{marker}",
                t.tick, t.elapsed_ms
            );
        }
        if self.ticks.is_empty() {
            let _ = writeln!(out, "  (no ticks retained — sampler not running?)");
        }
        let _ = writeln!(
            out,
            "events: {} retained ({} recorded, {} dropped, {} evicted)",
            self.events.events.len(),
            self.events.recorded,
            self.events.dropped,
            self.events.evicted
        );
        for e in &self.events.events {
            let _ = writeln!(out, "  [{}] {}: {}", e.seq, e.name, e.detail);
        }
        let _ = writeln!(out, "gauges at capture:");
        for (id, v) in &self.gauges {
            let _ = writeln!(out, "  {id} = {v}");
        }
        if !self.spans.is_empty() {
            let _ = writeln!(out, "spans ({}):", self.spans.len());
            out.push_str(&crate::render_spans(&self.spans));
        }
        out
    }

    /// Exports the dump's spans as Chrome `trace_event` JSON (load in
    /// `chrome://tracing` or Perfetto).
    pub fn chrome_trace(&self) -> String {
        crate::chrome_trace(&self.spans)
    }
}

// ── the recorder ────────────────────────────────────────────────────

/// Flight-recorder tuning.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Directory dumps are written into (created on first dump).
    pub dir: PathBuf,
    /// How many recent ticks the in-memory ring retains.
    pub capture_ticks: usize,
    /// Once-latch: automatic dumps allowed per distinct trigger reason
    /// (forced dumps are exempt). The default 1 means a persistent
    /// anomaly produces exactly one black box.
    pub max_dumps_per_reason: u64,
    /// Resident-bytes jump trigger: fires when the gauge grows by more
    /// than this factor within one tick…
    pub resident_jump_factor: f64,
    /// …and by at least this many bytes (suppresses startup noise).
    pub resident_jump_floor: u64,
}

impl Default for FlightConfig {
    fn default() -> FlightConfig {
        FlightConfig {
            dir: PathBuf::from("flight"),
            capture_ticks: 32,
            max_dumps_per_reason: 1,
            resident_jump_factor: 1.5,
            resident_jump_floor: 64 << 20,
        }
    }
}

/// Provides recent span records at dump time (wired to the engine's
/// tracer by the host).
pub type SpanProvider = Box<dyn Fn() -> Vec<SpanRecord> + Send + Sync>;

struct RecorderState {
    ticks: std::collections::VecDeque<TickDelta>,
    dumped: BTreeMap<String, u64>,
    last_resident: u64,
    last_orphans: u64,
}

/// The always-on black box. See the [module docs](self) for the trigger
/// matrix and file format.
pub struct FlightRecorder {
    config: FlightConfig,
    registry: Arc<Registry>,
    spans: Mutex<Option<SpanProvider>>,
    state: Mutex<RecorderState>,
    seq: AtomicU64,
    dumps_written: AtomicU64,
    last_path: Mutex<Option<PathBuf>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("dir", &self.config.dir)
            .field("dumps_written", &self.dumps_written.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// A recorder capturing from `registry` into `config.dir`.
    pub fn new(registry: Arc<Registry>, config: FlightConfig) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder {
            state: Mutex::new(RecorderState {
                ticks: std::collections::VecDeque::with_capacity(config.capture_ticks),
                dumped: BTreeMap::new(),
                last_resident: 0,
                last_orphans: 0,
            }),
            config,
            registry,
            spans: Mutex::new(None),
            seq: AtomicU64::new(0),
            dumps_written: AtomicU64::new(0),
            last_path: Mutex::new(None),
        })
    }

    /// Installs the span provider consulted at dump time.
    pub fn set_span_provider(&self, provider: SpanProvider) {
        *self.spans.lock().expect("span provider poisoned") = Some(provider);
    }

    /// Feeds one tick into the ring and evaluates the per-tick
    /// triggers (orphan gauge, lock-hold watchdog counter, resident
    /// jump). Call from the sampler observer or directly in tests.
    pub fn observe_tick(&self, tick: &TickDelta) {
        let (orphan_edge, long_holds, resident_jump) = {
            let mut state = self.state.lock().expect("recorder state poisoned");
            if state.ticks.len() == self.config.capture_ticks {
                state.ticks.pop_front();
            }
            state.ticks.push_back(tick.clone());
            let orphans = tick.gauge("engine_orphaned_reservations").unwrap_or(0);
            let orphan_edge = orphans > 0 && state.last_orphans == 0;
            state.last_orphans = orphans;
            let long_holds = tick.counter_total("engine_lock_hold_long_total");
            let resident = tick.gauge("engine_resident_bytes").unwrap_or(0);
            let grew = resident.saturating_sub(state.last_resident);
            let resident_jump = state.last_resident > 0
                && grew >= self.config.resident_jump_floor
                && resident as f64 > state.last_resident as f64 * self.config.resident_jump_factor;
            state.last_resident = resident;
            (
                orphan_edge,
                long_holds,
                resident_jump.then_some((grew, resident)),
            )
        };
        if orphan_edge {
            let orphans = tick.gauge("engine_orphaned_reservations").unwrap_or(0);
            self.trigger("orphans", format!("orphan gauge went to {orphans}"));
        }
        if long_holds > 0 {
            self.trigger(
                "lock_hold",
                format!("{long_holds} over-threshold lock holds this tick"),
            );
        }
        if let Some((grew, resident)) = resident_jump {
            self.trigger(
                "resident_jump",
                format!("resident bytes grew {grew} to {resident} in one tick"),
            );
        }
    }

    /// Fires an anomaly trigger. Latched per reason
    /// ([`FlightConfig::max_dumps_per_reason`]); returns the dump path
    /// when one was written, `None` when latched or on I/O failure
    /// (recording must never take the process down).
    pub fn trigger(&self, reason: &str, detail: impl Into<String>) -> Option<PathBuf> {
        {
            let mut state = self.state.lock().expect("recorder state poisoned");
            let count = state.dumped.entry(reason.to_owned()).or_insert(0);
            if *count >= self.config.max_dumps_per_reason {
                return None;
            }
            *count += 1;
        }
        self.write_dump(reason, detail.into(), false).ok()
    }

    /// Writes a dump unconditionally (the `DUMP` wire op and CLI path);
    /// bypasses the once-latch.
    ///
    /// # Errors
    ///
    /// The underlying `std::io::Error` when the dump cannot be written.
    pub fn force_dump(&self, reason: &str, detail: impl Into<String>) -> std::io::Result<PathBuf> {
        self.write_dump(reason, detail.into(), true)
    }

    /// Number of dumps written so far.
    pub fn dumps_written(&self) -> u64 {
        self.dumps_written.load(Ordering::Relaxed)
    }

    /// Path of the most recent dump, if any.
    pub fn last_dump_path(&self) -> Option<PathBuf> {
        self.last_path.lock().expect("last path poisoned").clone()
    }

    /// Captures the current in-memory document without writing it.
    pub fn capture(&self, reason: &str, detail: String, forced: bool) -> FlightDump {
        let snap: Snapshot = self.registry.snapshot();
        let state = self.state.lock().expect("recorder state poisoned");
        let ticks: Vec<TickDelta> = state.ticks.iter().cloned().collect();
        let trigger_tick = ticks.last().map_or(0, |t| t.tick);
        drop(state);
        let spans = self
            .spans
            .lock()
            .expect("span provider poisoned")
            .as_ref()
            .map_or_else(Vec::new, |p| p());
        FlightDump {
            reason: reason.to_owned(),
            detail,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            trigger_tick,
            forced,
            ticks,
            events: snap.events,
            spans,
            gauges: snap.gauges,
        }
    }

    fn write_dump(&self, reason: &str, detail: String, forced: bool) -> std::io::Result<PathBuf> {
        let dump = self.capture(reason, detail, forced);
        let bytes = dump.encode();
        std::fs::create_dir_all(&self.config.dir)?;
        // Filesystem-safe reason slug.
        let slug: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let final_path = self
            .config
            .dir
            .join(format!("flight-{:04}-{slug}.rtfr", dump.seq));
        write_atomic(&final_path, &bytes)?;
        self.dumps_written.fetch_add(1, Ordering::Relaxed);
        *self.last_path.lock().expect("last path poisoned") = Some(final_path.clone());
        self.registry
            .events()
            .record("flight_dump", format!("{reason}: {}", final_path.display()));
        Ok(final_path)
    }

    /// Installs a panic hook that dumps (reason `"panic"`) before
    /// delegating to the previous hook. Keeps a weak reference, so the
    /// hook never extends the recorder's lifetime.
    pub fn install_panic_hook(recorder: &Arc<FlightRecorder>) {
        let weak = Arc::downgrade(recorder);
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(recorder) = weak.upgrade() {
                let detail = info
                    .location()
                    .map_or_else(|| "panic".to_owned(), |l| l.to_string());
                let _ = recorder.trigger("panic", detail);
            }
            previous(info);
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::TimeSeries;

    fn registry_with_activity() -> Arc<Registry> {
        let r = Arc::new(Registry::new());
        r.counter("engine_setups_submitted_total").add(100);
        r.counter_with("engine_rejections_total", &[("reason", "qos")])
            .add(3);
        r.gauge("engine_resident_bytes").set(1 << 20);
        r.histogram("engine_reserve_ns").record(1234);
        r.events().record("setup", "conn 1 admitted");
        r
    }

    fn tick_from(r: &Registry, ts: &mut TimeSeries) -> TickDelta {
        ts.observe(&r.snapshot(), 1000).clone()
    }

    #[test]
    fn dump_round_trips_bit_exact() {
        let r = registry_with_activity();
        let mut ts = TimeSeries::new(8);
        let recorder = FlightRecorder::new(
            Arc::clone(&r),
            FlightConfig {
                dir: std::env::temp_dir().join("rtfr-test-unused"),
                ..FlightConfig::default()
            },
        );
        recorder.observe_tick(&tick_from(&r, &mut ts));
        r.counter("engine_setups_submitted_total").add(7);
        recorder.observe_tick(&tick_from(&r, &mut ts));
        recorder.set_span_provider(Box::new(|| {
            vec![SpanRecord {
                trace: TraceId::new(9),
                span: SpanId::new(1),
                parent: None,
                name: "engine.admit",
                begin_ns: 10,
                end_ns: 90,
                attrs: vec![("outcome", "admitted".to_owned())],
            }]
        }));
        let dump = recorder.capture("test", "round trip".to_owned(), true);
        let bytes = dump.encode();
        let decoded = FlightDump::decode(&bytes).expect("decodes");
        assert_eq!(decoded.reason, "test");
        assert_eq!(decoded.detail, "round trip");
        assert!(decoded.forced);
        assert_eq!(decoded.ticks.len(), 2);
        assert_eq!(
            decoded.ticks[1].counter_total("engine_setups_submitted_total"),
            7
        );
        assert_eq!(decoded.spans.len(), 1);
        assert_eq!(decoded.spans[0].name, "engine.admit");
        assert_eq!(decoded.spans[0].attrs[0].1, "admitted");
        assert_eq!(decoded.events.events.len(), 1);
        assert_eq!(decoded.gauges, dump.gauges);
        // Re-encoding the decoded document is byte-identical.
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn every_flipped_bit_is_refused() {
        let r = registry_with_activity();
        let recorder = FlightRecorder::new(Arc::clone(&r), FlightConfig::default());
        let mut ts = TimeSeries::new(4);
        recorder.observe_tick(&tick_from(&r, &mut ts));
        let bytes = recorder.capture("x", String::new(), true).encode();
        assert!(FlightDump::decode(&bytes).is_ok());
        // Flip one bit at a spread of offsets covering header,
        // directory, payloads and trailer.
        for offset in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[offset] ^= 0x10;
            assert!(
                FlightDump::decode(&bad).is_err(),
                "bit flip at {offset} was accepted"
            );
        }
        // Truncations are refused too.
        for cut in [0, 3, 6, bytes.len() / 2, bytes.len() - 1] {
            assert!(FlightDump::decode(&bytes[..cut]).is_err());
        }
        // Future versions are refused, not guessed at.
        let mut future = bytes.clone();
        future[5] = 0xFF;
        // (fix the file checksum so only the version differs)
        let body_end = future.len() - 8;
        let sum = fnv64(&future[..body_end]);
        future[body_end..].copy_from_slice(&sum.to_be_bytes());
        assert!(matches!(
            FlightDump::decode(&future),
            Err(FlightError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn failed_dump_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("rtfr-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = FlightRecorder::new(
            registry_with_activity(),
            FlightConfig {
                dir: dir.clone(),
                ..FlightConfig::default()
            },
        );
        // The first dump's target name is taken by a directory, so the
        // rename fails after the temp file was written.
        std::fs::create_dir_all(dir.join("flight-0000-blocked.rtfr")).unwrap();
        assert!(recorder.force_dump("blocked", "rename fails").is_err());
        assert_eq!(recorder.dumps_written(), 0);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["flight-0000-blocked.rtfr"], "no temp file left");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn triggers_latch_per_reason_and_dump_to_disk() {
        let dir = std::env::temp_dir().join(format!("rtfr-latch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = registry_with_activity();
        let recorder = FlightRecorder::new(
            Arc::clone(&r),
            FlightConfig {
                dir: dir.clone(),
                ..FlightConfig::default()
            },
        );
        let mut ts = TimeSeries::new(4);
        recorder.observe_tick(&tick_from(&r, &mut ts));
        // First trigger dumps, repeat of the same reason is latched.
        let first = recorder.trigger("orphans", "gauge=2");
        assert!(first.is_some());
        assert!(recorder.trigger("orphans", "gauge=2 again").is_none());
        // A different reason still dumps once.
        assert!(recorder.trigger("lock_hold", "1 long hold").is_some());
        assert!(recorder.trigger("lock_hold", "again").is_none());
        // Forced dumps bypass the latch.
        assert!(recorder.force_dump("orphans", "manual").is_ok());
        assert_eq!(recorder.dumps_written(), 3);
        let path = first.unwrap();
        let decoded = FlightDump::decode(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(decoded.reason, "orphans");
        let timeline = decoded.render_timeline();
        assert!(timeline.contains("reason=orphans"));
        assert!(timeline.contains("<< trigger"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tick_triggers_fire_from_metrics() {
        let dir = std::env::temp_dir().join(format!("rtfr-tick-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = Arc::new(Registry::new());
        let orphans = r.gauge("engine_orphaned_reservations");
        let long = r.counter("engine_lock_hold_long_total");
        let recorder = FlightRecorder::new(
            Arc::clone(&r),
            FlightConfig {
                dir: dir.clone(),
                ..FlightConfig::default()
            },
        );
        let mut ts = TimeSeries::new(8);
        recorder.observe_tick(&tick_from(&r, &mut ts));
        assert_eq!(recorder.dumps_written(), 0, "clean ticks never dump");
        // Orphan gauge going nonzero fires once.
        orphans.set(3);
        recorder.observe_tick(&tick_from(&r, &mut ts));
        assert_eq!(recorder.dumps_written(), 1);
        orphans.set(4);
        recorder.observe_tick(&tick_from(&r, &mut ts));
        assert_eq!(recorder.dumps_written(), 1, "latched");
        // Watchdog counter increments fire the lock_hold reason.
        long.inc();
        recorder.observe_tick(&tick_from(&r, &mut ts));
        assert_eq!(recorder.dumps_written(), 2);
        let dump = FlightDump::decode(&std::fs::read(recorder.last_dump_path().unwrap()).unwrap())
            .unwrap();
        assert_eq!(dump.reason, "lock_hold");
        // The timeline names the trigger tick.
        assert!(dump
            .render_timeline()
            .contains(&format!("tick {}", dump.trigger_tick)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resident_jump_trigger_needs_factor_and_floor() {
        let r = Arc::new(Registry::new());
        let mem = r.gauge("engine_resident_bytes");
        let recorder = FlightRecorder::new(
            Arc::clone(&r),
            FlightConfig {
                dir: std::env::temp_dir().join(format!("rtfr-jump-{}", std::process::id())),
                resident_jump_factor: 1.5,
                resident_jump_floor: 1 << 20,
                ..FlightConfig::default()
            },
        );
        let mut ts = TimeSeries::new(8);
        mem.set(10 << 20);
        recorder.observe_tick(&tick_from(&r, &mut ts));
        // +10% — no trigger.
        mem.set(11 << 20);
        recorder.observe_tick(&tick_from(&r, &mut ts));
        assert_eq!(recorder.dumps_written(), 0);
        // 3x jump above the floor — trigger.
        mem.set(33 << 20);
        recorder.observe_tick(&tick_from(&r, &mut ts));
        assert_eq!(recorder.dumps_written(), 1);
        let _ = std::fs::remove_dir_all(
            std::env::temp_dir().join(format!("rtfr-jump-{}", std::process::id())),
        );
    }
}
