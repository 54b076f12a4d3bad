//! Windowed time-series: a fixed-size ring of per-tick snapshot deltas.
//!
//! Every observability surface before this module was point-in-time: a
//! scrape tells you what the counters *are*, not what the system was
//! doing over the last 30 seconds. [`TimeSeries`] closes that gap with
//! bounded memory: each call to [`TimeSeries::observe`] diffs the new
//! [`Snapshot`] against the previous one and retains only the *delta*
//! (counter increments, histogram bucket increments, gauge point
//! values) in a ring of at most `capacity` ticks. From the ring it
//! answers rate questions (`ops/s`, rejects/s) and sliding-window
//! quantiles (`p99` over the window, not since process start).
//!
//! Feed it locally (a [`Sampler`] thread snapshotting a registry every
//! second, or an explicit `observe` call in tests) or remotely
//! ([`Snapshot::from_prometheus`] over scraped `/metrics` text — how
//! `rtcac top` and `rtcac load --soak` build their windows).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::histogram::HistogramSnapshot;
use crate::registry::{MetricId, Registry};
use crate::Snapshot;

/// Default ring capacity: 120 ticks ≈ two minutes at the default 1s
/// interval.
pub const DEFAULT_TICKS: usize = 120;

/// The delta between two consecutive snapshots of the same registry.
#[derive(Debug, Clone, Default)]
pub struct TickDelta {
    /// Monotonic tick sequence number (0 for the first observation).
    pub tick: u64,
    /// Wall-clock time this tick covers, in milliseconds.
    pub elapsed_ms: u64,
    /// Counter increments during the tick; zero deltas are omitted.
    pub counters: Vec<(MetricId, u64)>,
    /// Gauge point values at the end of the tick (gauges are levels,
    /// not flows — a delta would be meaningless for e.g. resident
    /// bytes).
    pub gauges: Vec<(MetricId, u64)>,
    /// Histogram observations recorded during the tick; empty deltas
    /// are omitted.
    pub histograms: Vec<(MetricId, HistogramSnapshot)>,
}

impl TickDelta {
    /// Sum of this tick's increments of counter `name` across all label
    /// sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(id, _)| id.name() == name)
            .map(|&(_, v)| v)
            .sum()
    }

    /// The unlabelled gauge `name` at the end of this tick.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(id, _)| id.name() == name && id.labels().is_empty())
            .map(|&(_, v)| v)
    }
}

fn lookup<T>(sorted: &[(MetricId, T)], id: &MetricId) -> Option<usize> {
    sorted.binary_search_by(|(k, _)| k.cmp(id)).ok()
}

/// A bounded window of [`TickDelta`]s plus the snapshot they are
/// relative to.
#[derive(Debug)]
pub struct TimeSeries {
    capacity: usize,
    ticks: VecDeque<TickDelta>,
    last: Option<Snapshot>,
    next_tick: u64,
}

impl Default for TimeSeries {
    fn default() -> TimeSeries {
        TimeSeries::new(DEFAULT_TICKS)
    }
}

impl TimeSeries {
    /// A series retaining at most `capacity` ticks (min 1).
    pub fn new(capacity: usize) -> TimeSeries {
        TimeSeries {
            capacity: capacity.max(1),
            ticks: VecDeque::new(),
            last: None,
            next_tick: 0,
        }
    }

    /// Ingests a snapshot taken `elapsed_ms` after the previous one and
    /// returns the resulting tick. The first observation establishes
    /// the baseline and yields an empty tick (rates need two points).
    ///
    /// A counter or bucket that went *backwards* (server restart
    /// between remote scrapes) contributes a zero delta for that tick;
    /// the new, lower snapshot becomes the next baseline, so the
    /// following tick is accurate again.
    pub fn observe(&mut self, snap: &Snapshot, elapsed_ms: u64) -> &TickDelta {
        let mut delta = TickDelta {
            tick: self.next_tick,
            elapsed_ms,
            gauges: snap.gauges.clone(),
            ..TickDelta::default()
        };
        if let Some(last) = &self.last {
            for (id, now) in &snap.counters {
                let then = lookup(&last.counters, id).map_or(0, |i| last.counters[i].1);
                let d = now.saturating_sub(then);
                if d > 0 {
                    delta.counters.push((id.clone(), d));
                }
            }
            for (id, now) in &snap.histograms {
                let d = match lookup(&last.histograms, id) {
                    Some(i) => now.delta(&last.histograms[i].1),
                    None => now.clone(),
                };
                if d.count > 0 {
                    delta.histograms.push((id.clone(), d));
                }
            }
        }
        self.next_tick += 1;
        self.last = Some(snap.clone());
        if self.ticks.len() == self.capacity {
            self.ticks.pop_front();
        }
        self.ticks.push_back(delta);
        self.ticks.back().expect("just pushed")
    }

    /// Number of retained ticks.
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// Whether no tick has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retained ticks, oldest first.
    pub fn ticks(&self) -> impl Iterator<Item = &TickDelta> {
        self.ticks.iter()
    }

    /// The most recent tick.
    pub fn latest(&self) -> Option<&TickDelta> {
        self.ticks.back()
    }

    /// Wall-clock span of the retained window in milliseconds.
    pub fn window_ms(&self) -> u64 {
        self.ticks.iter().map(|t| t.elapsed_ms).sum()
    }

    /// Total increments of counter `name` (across label sets) over the
    /// window.
    pub fn window_count(&self, name: &str) -> u64 {
        self.ticks.iter().map(|t| t.counter_total(name)).sum()
    }

    /// Average per-second rate of counter `name` over the whole window.
    pub fn rate(&self, name: &str) -> f64 {
        per_second(self.window_count(name), self.window_ms())
    }

    /// Per-second rate of counter `name` over just the latest tick —
    /// what a live dashboard shows as "now".
    pub fn rate_last(&self, name: &str) -> f64 {
        match self.latest() {
            Some(t) => per_second(t.counter_total(name), t.elapsed_ms),
            None => 0.0,
        }
    }

    /// All observations of histogram `name` (across label sets) during
    /// the window, merged into one distribution.
    pub fn window_histogram(&self, name: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for tick in &self.ticks {
            for (id, h) in &tick.histograms {
                if id.name() == name {
                    merged.merge(h);
                }
            }
        }
        merged
    }

    /// Sliding-window quantile of histogram `name`: the `q`-quantile of
    /// observations recorded during the window, not since process
    /// start.
    pub fn window_quantile(&self, name: &str, q: f64) -> u64 {
        self.window_histogram(name).quantile(q)
    }

    /// The unlabelled gauge `name` as of the latest tick.
    pub fn last_gauge(&self, name: &str) -> Option<u64> {
        self.latest().and_then(|t| t.gauge(name))
    }
}

fn per_second(count: u64, elapsed_ms: u64) -> f64 {
    if elapsed_ms == 0 {
        0.0
    } else {
        count as f64 * 1000.0 / elapsed_ms as f64
    }
}

/// A background thread snapshotting a [`Registry`] into a
/// [`TimeSeries`] at a fixed interval. Dropping the sampler stops and
/// joins the thread.
pub struct Sampler {
    shared: Arc<SamplerShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

struct SamplerShared {
    stop: AtomicBool,
    series: Mutex<TimeSeries>,
}

/// Observer invoked after every sampled tick with the series (already
/// containing the new tick) and the raw snapshot that produced it; this
/// is how the flight recorder taps the sampler.
pub type TickObserver = Box<dyn Fn(&TimeSeries, &Snapshot) + Send>;

impl Sampler {
    /// Spawns a sampler ticking every `interval` into a series of
    /// `capacity` ticks.
    pub fn spawn(registry: Arc<Registry>, interval: Duration, capacity: usize) -> Sampler {
        Sampler::spawn_with_observer(registry, interval, capacity, None)
    }

    /// Spawns a sampler that additionally calls `observer` after every
    /// tick (while holding the series lock — keep it quick).
    pub fn spawn_with_observer(
        registry: Arc<Registry>,
        interval: Duration,
        capacity: usize,
        observer: Option<TickObserver>,
    ) -> Sampler {
        let shared = Arc::new(SamplerShared {
            stop: AtomicBool::new(false),
            series: Mutex::new(TimeSeries::new(capacity)),
        });
        let thread_shared = Arc::clone(&shared);
        let interval = interval.max(Duration::from_millis(10));
        let handle = std::thread::Builder::new()
            .name("rtcac-sampler".into())
            .spawn(move || {
                let mut last = Instant::now();
                while !thread_shared.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    if thread_shared.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let snap = registry.snapshot();
                    let now = Instant::now();
                    let elapsed_ms =
                        u64::try_from(now.duration_since(last).as_millis()).unwrap_or(u64::MAX);
                    last = now;
                    let mut series = thread_shared.series.lock().expect("series poisoned");
                    series.observe(&snap, elapsed_ms);
                    if let Some(obs) = &observer {
                        obs(&series, &snap);
                    }
                }
            })
            .expect("spawn sampler thread");
        Sampler {
            shared,
            handle: Some(handle),
        }
    }

    /// Runs `f` with the current series under its lock.
    pub fn with_series<R>(&self, f: impl FnOnce(&TimeSeries) -> R) -> R {
        f(&self.shared.series.lock().expect("series poisoned"))
    }

    /// Stops and joins the sampler thread.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("stopped", &self.shared.stop.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_rates_and_window_quantiles() {
        let r = Registry::new();
        let ops = r.counter("engine_setups_admitted_total");
        let lat = r.histogram("engine_reserve_ns");
        let mem = r.gauge("engine_resident_bytes");
        let mut ts = TimeSeries::new(3);

        mem.set(100);
        ts.observe(&r.snapshot(), 0); // baseline
        assert_eq!(ts.rate("engine_setups_admitted_total"), 0.0);

        ops.add(50);
        for v in [1000u64, 2000, 3000] {
            lat.record(v);
        }
        mem.set(200);
        ts.observe(&r.snapshot(), 1000);
        assert_eq!(ts.window_count("engine_setups_admitted_total"), 50);
        assert!((ts.rate_last("engine_setups_admitted_total") - 50.0).abs() < 1e-9);
        assert_eq!(ts.last_gauge("engine_resident_bytes"), Some(200));
        assert_eq!(ts.window_histogram("engine_reserve_ns").count, 3);

        // Second active tick: the window merges both.
        ops.add(10);
        lat.record(4000);
        ts.observe(&r.snapshot(), 1000);
        assert_eq!(ts.window_count("engine_setups_admitted_total"), 60);
        assert!((ts.rate("engine_setups_admitted_total") - 30.0).abs() < 1e-9);
        assert!((ts.rate_last("engine_setups_admitted_total") - 10.0).abs() < 1e-9);
        let w = ts.window_histogram("engine_reserve_ns");
        assert_eq!(w.count, 4);
        assert!(w.quantile(1.0) >= 4000);

        // Ring eviction: capacity 3, so the baseline tick falls out and
        // the window now covers only the last three observations.
        ops.add(2);
        ts.observe(&r.snapshot(), 1000);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.window_count("engine_setups_admitted_total"), 62);
        assert_eq!(ts.window_ms(), 3000);
    }

    #[test]
    fn restart_regression_yields_zero_not_garbage() {
        let mut ts = TimeSeries::new(8);
        let r1 = Registry::new();
        r1.counter("x_total").add(100);
        ts.observe(&r1.snapshot(), 1000);
        // "Restarted server": same series, lower value.
        let r2 = Registry::new();
        r2.counter("x_total").add(5);
        let tick = ts.observe(&r2.snapshot(), 1000);
        assert_eq!(tick.counter_total("x_total"), 0);
        // Next tick is accurate against the new baseline.
        r2.counter("x_total").add(7);
        let tick = ts.observe(&r2.snapshot(), 1000);
        assert_eq!(tick.counter_total("x_total"), 7);
    }

    #[test]
    fn labelled_counters_aggregate_per_window() {
        let r = Registry::new();
        let mut ts = TimeSeries::new(4);
        ts.observe(&r.snapshot(), 0);
        r.counter_with("engine_rejections_total", &[("reason", "qos")])
            .add(3);
        r.counter_with("engine_rejections_total", &[("reason", "switch")])
            .add(4);
        ts.observe(&r.snapshot(), 500);
        assert_eq!(ts.window_count("engine_rejections_total"), 7);
        assert!((ts.rate("engine_rejections_total") - 14.0).abs() < 1e-9);
    }

    #[test]
    fn sampler_ticks() {
        let r = Arc::new(Registry::new());
        let c = r.counter("sampled_total");
        let sampler = Sampler::spawn(Arc::clone(&r), Duration::from_millis(10), 16);
        let deadline = Instant::now() + Duration::from_secs(5);
        // Let the baseline tick land first, otherwise the increment is
        // absorbed into it and no delta is ever visible.
        while sampler.with_series(|ts| ts.is_empty()) {
            assert!(Instant::now() < deadline, "sampler never ticked");
            std::thread::sleep(Duration::from_millis(5));
        }
        c.add(5);
        loop {
            let done = sampler.with_series(|ts| ts.window_count("sampled_total") >= 5);
            if done {
                break;
            }
            assert!(Instant::now() < deadline, "sampler never observed counter");
            std::thread::sleep(Duration::from_millis(5));
        }
        sampler.stop();
    }

    #[test]
    fn remote_round_trip_feeds_series() {
        // The `rtcac top` path: scrape text, parse, observe.
        let r = Registry::new();
        let mut ts = TimeSeries::new(8);
        ts.observe(&Snapshot::from_prometheus(&r.snapshot().to_prometheus()), 0);
        r.counter("serve_setups_admitted_total").add(20);
        r.histogram("engine_reserve_ns").record(1500);
        let text = r.snapshot().to_prometheus();
        ts.observe(&Snapshot::from_prometheus(&text), 2000);
        assert!((ts.rate("serve_setups_admitted_total") - 10.0).abs() < 1e-9);
        assert_eq!(ts.window_histogram("engine_reserve_ns").count, 1);
    }
}
