//! Admission throughput of the concurrent sharded engine: setups per
//! second at 1/2/4/8 workers on the paper's 16-node star-ring, with
//! per-ring-node terminal routes so the shards are disjoint and the
//! admitting threads can scale.
//!
//! Besides the worker sweep, the run ends with three A/B arms: the
//! same batch timed with no metrics registry (no-op handles) versus an
//! explicit [`rtcac_obs::Registry`]; with no tracer versus an
//! installed [`rtcac_obs::Tracer`] whose sampling is hard-off
//! ([`Sampling::Never`] — the cost of the disabled instrumentation
//! branches alone); and with the windowed-series sampler thread plus
//! flight recorder live versus paused (the cost of the whole time
//! dimension).
//!
//! Flags:
//! - `--smoke` — a seconds-long run for CI (small batches, short
//!   budgets); the output format is unchanged.
//! - `--metrics PATH` — write the enabled arm's final snapshot to
//!   `PATH` in Prometheus text format.
//! - `--bench-json PATH` — write the machine-readable perf trajectory
//!   (per-worker ops/sec with reserve-phase p50/p99, plus both A/B
//!   deltas) for `rtcac bench-report` to diff across commits.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rtcac_bench::{columns, f, header, row};
use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract, VbrParams};
use rtcac_cac::{Priority, SwitchConfig};
use rtcac_engine::AdmissionEngine;
use rtcac_net::builders::{self, StarRing};
use rtcac_obs::{FlightConfig, FlightRecorder, Registry, Sampler, Sampling, Tracer};
use rtcac_rational::ratio;
use rtcac_signaling::{CdvPolicy, SetupRequest};

const RING_NODES: usize = 16;

fn fresh_engine(
    sr: &StarRing,
    registry: Option<&Arc<Registry>>,
    tracer: Option<&Tracer>,
) -> AdmissionEngine {
    let config = SwitchConfig::uniform(1, Time::from_integer(64)).expect("switch config");
    let mut engine = match registry {
        Some(registry) => AdmissionEngine::with_registry(
            sr.topology().clone(),
            config,
            CdvPolicy::Hard,
            Arc::clone(registry),
        ),
        None => AdmissionEngine::new(sr.topology().clone(), config, CdvPolicy::Hard),
    };
    if let Some(tracer) = tracer {
        engine.set_tracer(tracer.clone());
    }
    engine
}

/// One measured round: a full batch of admissions striped over
/// `workers` scoped threads — thread `t` takes setups `t`,
/// `t + workers`, … — on a fresh engine, so every round starts from
/// empty tables. Returns the wall-clock seconds of the batch and its
/// admitted count.
fn run_round(
    sr: &StarRing,
    workers: usize,
    setups_per_node: usize,
    registry: Option<&Arc<Registry>>,
    tracer: Option<&Tracer>,
) -> (f64, usize) {
    let engine = fresh_engine(sr, registry, tracer);
    // Alternate smooth CBR with bursty VBR: the burst envelopes make
    // each admission check a real bit-stream computation rather than a
    // queue-overhead microbenchmark.
    let cbr = TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, 64))).expect("cbr"));
    let vbr = TrafficContract::vbr(
        VbrParams::new(Rate::new(ratio(1, 8)), Rate::new(ratio(1, 128)), 8).expect("vbr"),
    );
    let mut jobs = Vec::with_capacity(RING_NODES * setups_per_node);
    for i in 0..RING_NODES {
        for k in 0..setups_per_node {
            let route = sr.terminal_route((i, 0), (i, 1)).expect("terminal route");
            let contract = if k % 2 == 0 { cbr } else { vbr };
            let request =
                SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(10_000));
            jobs.push((route, request));
        }
    }
    let jobs = &jobs;
    let engine = &engine;
    let start = Instant::now();
    let admitted = std::thread::scope(|s| {
        let stripes: Vec<_> = (0..workers)
            .map(|t| {
                s.spawn(move || {
                    let stripe = jobs.iter().skip(t).step_by(workers);
                    stripe
                        .filter(|(route, request)| {
                            let outcome = engine.admit(route, *request).expect("engine outcome");
                            outcome.is_admitted()
                        })
                        .count()
                })
            })
            .collect();
        stripes
            .into_iter()
            .map(|stripe| stripe.join().expect("no admitting thread panicked"))
            .sum()
    });
    (start.elapsed().as_secs_f64(), admitted)
}

/// Interleaved A/B comparison: alternates whole rounds between the
/// two configurations and compares each arm's *median* round time.
/// Interleaving keeps slow drifts (frequency scaling, background
/// load) from landing on one arm; the median discards outliers in
/// both directions, where a best-of would let one lucky turbo window
/// inflate whichever arm caught it. Returns (ops/sec A, ops/sec B).
#[allow(clippy::type_complexity)]
fn measure_ab(
    sr: &StarRing,
    workers: usize,
    setups_per_node: usize,
    pairs: u32,
    arm_a: (Option<&Arc<Registry>>, Option<&Tracer>),
    arm_b: (Option<&Arc<Registry>>, Option<&Tracer>),
) -> (f64, f64) {
    let total = (RING_NODES * setups_per_node) as f64;
    let _ = run_round(sr, workers, setups_per_node, arm_a.0, arm_a.1);
    let _ = run_round(sr, workers, setups_per_node, arm_b.0, arm_b.1);
    let mut times_a = Vec::with_capacity(pairs as usize);
    let mut times_b = Vec::with_capacity(pairs as usize);
    for _ in 0..pairs {
        times_a.push(run_round(sr, workers, setups_per_node, arm_a.0, arm_a.1).0);
        times_b.push(run_round(sr, workers, setups_per_node, arm_b.0, arm_b.1).0);
    }
    (total / median(&mut times_a), total / median(&mut times_b))
}

fn median(times: &mut [f64]) -> f64 {
    times.sort_by(f64::total_cmp);
    let mid = times.len() / 2;
    if times.len().is_multiple_of(2) {
        (times[mid - 1] + times[mid]) / 2.0
    } else {
        times[mid]
    }
}

/// Whole rounds until the time budget is spent; returns setups/sec.
fn measure(
    sr: &StarRing,
    workers: usize,
    setups_per_node: usize,
    min_seconds: f64,
    registry: Option<&Arc<Registry>>,
    tracer: Option<&Tracer>,
) -> (f64, u32, usize) {
    let total = RING_NODES * setups_per_node;
    // Warm-up round, then measure whole rounds so short batches do not
    // drown in noise.
    let _ = run_round(sr, workers, setups_per_node, registry, tracer);
    let mut rounds = 0u32;
    let mut busy = 0.0;
    let mut admitted = 0;
    while busy < min_seconds {
        let (elapsed, ok) = run_round(sr, workers, setups_per_node, registry, tracer);
        busy += elapsed;
        admitted = ok;
        rounds += 1;
    }
    (f64::from(rounds) * total as f64 / busy, rounds, admitted)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let metrics_path = args
        .iter()
        .position(|a| a == "--metrics")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let bench_json_path = args
        .iter()
        .position(|a| a == "--bench-json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let (setups_per_node, min_seconds) = if smoke { (4, 0.02) } else { (32, 0.4) };

    let sr = builders::star_ring(RING_NODES, 2).expect("star-ring topology");
    let total = RING_NODES * setups_per_node;
    header("artifact", "engine admission throughput vs worker count");
    header(
        "setup",
        format!(
            "{RING_NODES}-node star-ring, {total} mixed CBR/VBR setups per round, \
             disjoint per-node shards, hard CAC"
        ),
    );
    header(
        "hardware_threads",
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    if smoke {
        header("mode", "smoke (short budgets; figures are not stable)");
    }
    columns(&[
        "workers",
        "rounds",
        "admitted",
        "setups_per_sec",
        "speedup_vs_1",
    ]);

    let mut baseline = None;
    // workers -> (ops/sec, reserve p50, reserve p99) for --bench-json.
    let mut sweep: Vec<(usize, f64, u64, u64)> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let (throughput, rounds, admitted) =
            measure(&sr, workers, setups_per_node, min_seconds, None, None);
        let speedup = throughput / *baseline.get_or_insert(throughput);
        row(&[
            workers.to_string(),
            rounds.to_string(),
            admitted.to_string(),
            f(throughput),
            f(speedup),
        ]);
        // Percentiles come from a separate observed pass so the sweep
        // figures above stay registry-free; the observed throughput is
        // discarded (the obs A/B below quantifies its overhead).
        if bench_json_path.is_some() {
            let observed = Arc::new(Registry::new());
            let _ = measure(
                &sr,
                workers,
                setups_per_node,
                min_seconds,
                Some(&observed),
                None,
            );
            let snapshot = observed.snapshot();
            let (p50, p99) = snapshot
                .histogram("engine_reserve_ns")
                .map_or((0, 0), |h| (h.p50(), h.p99()));
            sweep.push((workers, throughput, p50, p99));
        }
    }

    // Observability A/B: the same 4-worker batch with metrics disabled
    // (no registry installed, so every handle is a no-op) versus
    // enabled. The disabled arm is the cost everyone pays; the delta
    // is what turning observability on costs. Rounds interleave and
    // each arm keeps its best time, so machine noise cancels.
    let ab_pairs = if smoke { 12 } else { 16 };
    // Larger rounds than the sweep's: per-round noise (thread spawn,
    // scheduler) shrinks relative to the measured work, which the
    // few-percent A/B deltas need even in smoke mode.
    let ab_setups_per_node = setups_per_node * 4;
    let registry = Arc::new(Registry::new());
    let (off, on) = measure_ab(
        &sr,
        4,
        ab_setups_per_node,
        ab_pairs,
        (None, None),
        (Some(&registry), None),
    );
    header(
        "obs_overhead",
        format!(
            "disabled {:.0} setups/s vs enabled {:.0} setups/s ({:+.1}% when enabled)",
            off,
            on,
            (off / on - 1.0) * 100.0
        ),
    );

    // Tracing A/B: no tracer (the noop, one dead branch per site)
    // versus an installed tracer with sampling hard-off — the cost of
    // the disabled instrumentation branches through submit/price/
    // reserve/commit. `Never` is the arm because it is the *disabled*
    // setting: `RejectsOnly` is a live policy whose cost is
    // per-rejection flush work, and this batch saturates the ring, so
    // measuring it here would measure the provenance feature (at an
    // adversarial ~50% reject rate), not the idle overhead.
    let idle_tracer = Tracer::new(Sampling::Never);
    let (trace_off, trace_on) = measure_ab(
        &sr,
        4,
        ab_setups_per_node,
        ab_pairs,
        (None, None),
        (None, Some(&idle_tracer)),
    );
    let trace_delta = (trace_off / trace_on - 1.0) * 100.0;
    header(
        "trace_overhead",
        format!(
            "no tracer {trace_off:.0} setups/s vs sampling-off tracer {trace_on:.0} setups/s \
             ({trace_delta:+.1}% when installed)"
        ),
    );

    // Flight A/B: the same registry-enabled batch with the whole time
    // dimension live — a 5ms sampler thread snapshotting the registry
    // into a windowed series plus an armed flight recorder checking
    // its triggers on every tick — versus the sampler paused
    // (`set_active(false)`: the thread sleeps through its interval
    // without snapshotting). Both arms share one registry, so the
    // delta isolates the sampler+recorder cost from handle cost (which
    // obs_overhead above already prices).
    let flight_registry = Arc::new(Registry::new());
    let flight_dir =
        std::env::temp_dir().join(format!("rtcac-bench-flight-{}", std::process::id()));
    let recorder = FlightRecorder::new(
        Arc::clone(&flight_registry),
        FlightConfig {
            dir: flight_dir.clone(),
            ..FlightConfig::default()
        },
    );
    let tick_recorder = Arc::clone(&recorder);
    let sampler = Sampler::spawn_with_observer(
        Arc::clone(&flight_registry),
        Duration::from_millis(5),
        120,
        Some(Box::new(move |series, _snapshot| {
            if let Some(tick) = series.latest() {
                tick_recorder.observe_tick(tick);
            }
        })),
    );
    let flight_total = (RING_NODES * ab_setups_per_node) as f64;
    sampler.set_active(true);
    let _ = run_round(&sr, 4, ab_setups_per_node, Some(&flight_registry), None);
    sampler.set_active(false);
    let _ = run_round(&sr, 4, ab_setups_per_node, Some(&flight_registry), None);
    let mut times_live = Vec::with_capacity(ab_pairs as usize);
    let mut times_paused = Vec::with_capacity(ab_pairs as usize);
    for _ in 0..ab_pairs {
        sampler.set_active(true);
        times_live.push(run_round(&sr, 4, ab_setups_per_node, Some(&flight_registry), None).0);
        sampler.set_active(false);
        times_paused.push(run_round(&sr, 4, ab_setups_per_node, Some(&flight_registry), None).0);
    }
    sampler.stop();
    let flight_off = flight_total / median(&mut times_paused);
    let flight_on = flight_total / median(&mut times_live);
    let flight_delta = (flight_off / flight_on - 1.0) * 100.0;
    header(
        "flight_overhead",
        format!(
            "sampler paused {flight_off:.0} setups/s vs sampler+recorder live \
             {flight_on:.0} setups/s ({flight_delta:+.1}% when live)"
        ),
    );
    header("flight_dumps", recorder.dumps_written());
    let _ = std::fs::remove_dir_all(&flight_dir);

    if let Some(path) = &bench_json_path {
        let mut json = String::from("{\"bench\":\"engine_throughput\",");
        json.push_str(&format!("\"smoke\":{smoke},\n\"rounds\":[\n"));
        for (i, (workers, ops, p50, p99)) in sweep.iter().enumerate() {
            let comma = if i + 1 < sweep.len() { "," } else { "" };
            json.push_str(&format!(
                "{{\"workers\":{workers},\"ops_per_sec\":{ops:.1},\"p50_ns\":{p50},\"p99_ns\":{p99}}}{comma}\n"
            ));
        }
        json.push_str(&format!(
            "],\n\"trace_ab\":{{\"off_ops_per_sec\":{trace_off:.1},\"on_ops_per_sec\":{trace_on:.1},\"delta_percent\":{trace_delta:.2}}},\n"
        ));
        json.push_str(&format!(
            "\"flight_ab\":{{\"off_ops_per_sec\":{flight_off:.1},\"on_ops_per_sec\":{flight_on:.1},\"delta_percent\":{flight_delta:.2}}},\n"
        ));
        json.push_str(&format!(
            "\"obs_ab\":{{\"off_ops_per_sec\":{off:.1},\"on_ops_per_sec\":{on:.1},\"delta_percent\":{:.2}}}}}\n",
            (off / on - 1.0) * 100.0
        ));
        std::fs::write(path, json).expect("write bench json");
        header("bench_json", path);
    }

    // Metrics summary of the enabled arm (all measured rounds).
    let snapshot = registry.snapshot();
    if let Some(h) = snapshot.histogram("engine_reserve_ns") {
        header(
            "reserve_ns",
            format!(
                "count={} p50={} p99={} max={}",
                h.count,
                h.p50(),
                h.p99(),
                h.max
            ),
        );
    }
    if let Some(h) = snapshot.histogram("engine_commit_ns") {
        header(
            "commit_ns",
            format!(
                "count={} p50={} p99={} max={}",
                h.count,
                h.p50(),
                h.p99(),
                h.max
            ),
        );
    }

    if let Some(path) = metrics_path {
        std::fs::write(&path, snapshot.to_prometheus()).expect("write metrics file");
        header("metrics_file", path);
    }
}
