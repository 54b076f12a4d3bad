//! The traced run: every layer timed from outside, through its public
//! functions, on the state the workload leaves it in.
//!
//! The first 2 000 churn ops of the workload's stream are replayed
//! single-threaded through four nested entry points — wire
//! `Client`→`Server`, `ServicePool::admit`, `AdmissionEngine::admit`,
//! serial `Network::setup` — each from the same fabric state. The span
//! of an op at an inner entry point is the child of its span at the
//! next outer one; a layer's self time is its span minus its child.
//! Below the serial network the per-hop `Switch` and `BitStream` calls
//! are timed on the busiest shard's state, rebuilt from
//! `export_state()`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtcac_bitstream::{BitStream, Time};
use rtcac_cac::{ConnectionId, ConnectionRequest, Priority, ReservationPlan, RoutePlan, Switch};
use rtcac_engine::{EngineState, ServicePool, SwitchState};
use rtcac_net::{LinkId, Route};
use rtcac_obs::{HistogramSnapshot, Registry, Snapshot};
use rtcac_rational::Ratio;
use rtcac_serve::{Client, Request, Response};
use rtcac_signaling::CdvPolicy;

use crate::catalog::PER_LAYER;
use crate::fabric::{self, Entry, Fabric, Inputs};
use crate::gen::{self, Op};
use crate::json::Value;
use crate::phases::{self, span_of, LoopSpec, Phase, Plan, Segments};
use crate::run::{closed_loop, open_loop, Gate, Options, RUN_SECONDS, SETTLE_OTHER, SETTLE_SAT};
use crate::sink::{self, Call, EngineSink, PoolSink, SerialSink, Sink, Tally, Verdicts, WireSink};
use crate::span::{self, Recorder};
use crate::stats::{self, Timing};

/// What the traced run produced.
pub struct Traced {
    pub tally: Tally,
    pub gates: Vec<Gate>,
    /// `(name, unit, value)` in catalogue order.
    pub values: Vec<(&'static str, &'static str, f64)>,
}

/// The ledger may miss the wire p50 by this share on the workloads the
/// acceptance names.
const LEDGER_TOLERANCE_PCT: f64 = 15.0;

/// Values by metric name, checked against the catalogue at the end.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.0.insert(name, value);
    }

    fn in_catalogue_order(&self) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        PER_LAYER
            .iter()
            .map(|m| {
                self.0
                    .get(m.name)
                    .map(|&v| (m.name, m.unit, v))
                    .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))
            })
            .collect()
    }
}

/// Median ns per call of `f`, over five batches of `iters` calls.
fn bench<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let iters = iters.max(1);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&batches)
}

/// Median ns of `f` applied to each item in turn, over five passes.
fn bench_each<T, R>(items: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let mut index = 0;
    bench(items.len(), || {
        let item = &items[index % items.len()];
        index += 1;
        f(item)
    })
}

fn p50(samples: &[u64]) -> f64 {
    stats::quantile(samples, 0.5) as f64
}

fn p99(samples: &[u64]) -> f64 {
    stats::quantile(samples, 0.99) as f64
}

/// One entry point's replay of the trace stream.
struct Nested {
    verdicts: Verdicts,
    tally: Tally,
    /// Span index per op, `u32::MAX` where the op made no call.
    span_of_op: Vec<u32>,
    setup_ns: Vec<u64>,
    release_ns: Vec<u64>,
}

fn replay_traced(
    name: &'static str,
    sink: &mut dyn Sink,
    inputs: &Inputs,
    recorder: &mut Recorder,
    epoch: Instant,
) -> Nested {
    let mut nested = Nested {
        verdicts: Verdicts::default(),
        tally: Tally::default(),
        span_of_op: vec![u32::MAX; inputs.trace.len()],
        setup_ns: Vec::new(),
        release_ns: Vec::new(),
    };
    let Nested {
        verdicts,
        span_of_op,
        setup_ns,
        release_ns,
        ..
    } = &mut nested;
    let tally = sink::replay(
        sink,
        inputs,
        &inputs.trace,
        Some(verdicts),
        &mut |call: Call| {
            span_of_op[call.op as usize] = recorder.push(span_of(name, epoch, &call));
            if call.setup {
                setup_ns.push(call.ns);
            } else {
                release_ns.push(call.ns);
            }
        },
    );
    nested.tally = tally;
    nested
}

/// Whether the entry points agree on every verdict and guaranteed
/// delay of the replay.
pub fn digest_gate(digests: &[(&'static str, u64)]) -> Gate {
    let agree = digests.windows(2).all(|w| w[0].1 == w[1].1);
    let detail = digests
        .iter()
        .map(|(name, d)| format!("{name} {d:016x}"))
        .collect::<Vec<_>>()
        .join(", ");
    Gate::check("verdict_digests_agree", agree, detail)
}

/// The ledger line: wire p50 = serve + pool + engine + serial, with
/// the residual stated.
pub fn ledger_gate(enforced: bool, wire_p50: f64, parts: [f64; 4]) -> (f64, Gate) {
    let sum: f64 = parts.iter().sum();
    let residual_pct = if wire_p50 > 0.0 {
        (wire_p50 - sum) / wire_p50 * 100.0
    } else {
        0.0
    };
    let detail = format!(
        "wire p50 {wire_p50:.0} ns = serve {:.0} + pool {:.0} + engine {:.0} + serial {:.0}, residual {residual_pct:+.1} %",
        parts[0], parts[1], parts[2], parts[3]
    );
    let ok = !enforced || residual_pct.abs() <= LEDGER_TOLERANCE_PCT;
    (
        residual_pct,
        Gate::check("ledger_accounts_for_wire", ok, detail),
    )
}

/// The shard with the most legs, and every shard's legs per out-port.
fn busiest(state: &EngineState) -> (&SwitchState, Vec<usize>) {
    let shard = state
        .switches
        .iter()
        .max_by_key(|s| s.legs.len())
        .expect("the star-ring has switches");
    let mut per_port: BTreeMap<(u32, LinkId), usize> = BTreeMap::new();
    for s in &state.switches {
        for (_, leg) in &s.legs {
            *per_port
                .entry((s.node.index() as u32, leg.out_link()))
                .or_default() += 1;
        }
    }
    (shard, per_port.into_values().collect())
}

/// The shard's stream tables rebuilt from its legs: the filtered
/// aggregate per in-link of every out-port, and each port's output
/// aggregate.
struct Aggregates {
    /// Per (in, out): the multiplexed arrival aggregate.
    arrivals: Vec<BitStream>,
    /// Per out-port: the multiplexed filtered aggregates.
    outputs: Vec<BitStream>,
}

fn aggregates(shard: &SwitchState) -> Aggregates {
    let mut by_pair: BTreeMap<(LinkId, LinkId), Vec<BitStream>> = BTreeMap::new();
    for (_, leg) in &shard.legs {
        by_pair
            .entry((leg.out_link(), leg.in_link()))
            .or_default()
            .push(leg.arrival_stream());
    }
    let mut arrivals = Vec::new();
    let mut by_out: BTreeMap<LinkId, Vec<BitStream>> = BTreeMap::new();
    for ((out, _), streams) in by_pair {
        let sia = BitStream::multiplex_all(streams.iter());
        by_out.entry(out).or_default().push(sia.filter());
        arrivals.push(sia);
    }
    let outputs = by_out
        .into_values()
        .map(|filtered| BitStream::multiplex_all(filtered.iter()))
        .collect();
    Aggregates { arrivals, outputs }
}

fn ratios_of(streams: &[BitStream]) -> Vec<Ratio> {
    streams
        .iter()
        .flat_map(|s| s.segments().iter())
        .flat_map(|seg| [seg.rate.as_ratio(), seg.start.as_ratio()])
        .filter(|r| !r.is_zero())
        .collect()
}

fn den_bits(r: Ratio) -> u32 {
    128 - r.denom().unsigned_abs().leading_zeros()
}

/// `rational.*`: exact-rational ops on operands harvested from the
/// workload's port aggregates (from the churn contracts' arrival
/// streams where the fabric is empty).
fn rational_layer(values: &mut Values, operands: &[Ratio], scale: f64) {
    let n = operands.len();
    let pairs: Vec<(Ratio, Ratio)> = (0..n.min(512))
        .map(|i| (operands[i], operands[(i * 7 + 3) % n]))
        .collect();
    let reps = ((40.0 * scale) as usize).max(1);
    let per_pair = |f: &dyn Fn(Ratio, Ratio)| {
        bench(reps, || {
            for &(a, b) in &pairs {
                f(a, b);
            }
        }) / pairs.len().max(1) as f64
    };
    values.set(
        "rational.add_ns",
        per_pair(&|a, b| {
            black_box(black_box(a).checked_add(black_box(b)));
        }),
    );
    values.set(
        "rational.mul_ns",
        per_pair(&|a, b| {
            black_box(black_box(a).checked_mul(black_box(b)));
        }),
    );
    values.set(
        "rational.cmp_ns",
        per_pair(&|a, b| {
            black_box(black_box(a) < black_box(b));
        }),
    );
    let bits = pairs
        .iter()
        .flat_map(|&(a, b)| [Some(a), Some(b), a.checked_add(b), a.checked_mul(b)])
        .flatten()
        .map(den_bits)
        .max()
        .unwrap_or(0);
    values.set("rational.den_bits_max", f64::from(bits));
}

/// `bitstream.*`: Algorithms 2.1, 3.1–3.4 and 4.1 on the busiest
/// shard's aggregates.
fn bitstream_layer(values: &mut Values, inputs: &Inputs, agg: &Aggregates, scale: f64) {
    let contracts: Vec<_> = inputs
        .spec
        .classes
        .iter()
        .map(|&c| gen::contract(c))
        .collect();
    let worst: Vec<BitStream> = contracts.iter().map(|c| c.worst_case_stream()).collect();
    let cdv = Time::from_integer(inputs.spec.bound);
    let arrivals: Vec<BitStream> = worst.iter().map(|s| s.delay(cdv)).collect();
    let reps = |n: usize| ((n as f64 * scale) as usize).max(1);

    values.set(
        "bitstream.worst_case_ns",
        bench(reps(2000), {
            let mut i = 0;
            move || {
                i += 1;
                contracts[i % contracts.len()].worst_case_stream()
            }
        }),
    );
    values.set(
        "bitstream.delay_ns",
        bench(reps(2000), {
            let mut i = 0;
            let worst = &worst;
            move || {
                i += 1;
                worst[i % worst.len()].delay(cdv)
            }
        }),
    );
    // An empty port still prices: the aggregate is the zero stream.
    let zero = [BitStream::zero()];
    let sia: &[BitStream] = if agg.arrivals.is_empty() {
        &zero
    } else {
        &agg.arrivals
    };
    let soa: &[BitStream] = if agg.outputs.is_empty() {
        &zero
    } else {
        &agg.outputs
    };
    let pick = |i: usize| (&sia[i % sia.len()], &arrivals[i % arrivals.len()]);
    values.set(
        "bitstream.mux_ns",
        bench(reps(600), {
            let mut i = 0;
            move || {
                i += 1;
                let (a, s) = pick(i);
                a.multiplex(s)
            }
        }),
    );
    let muxed: Vec<(BitStream, &BitStream)> = (0..sia.len().max(arrivals.len()))
        .map(|i| {
            let (a, s) = pick(i);
            (a.multiplex(s), s)
        })
        .collect();
    values.set(
        "bitstream.demux_ns",
        bench_each(&muxed, |(sum, s)| sum.demultiplex(s).ok()),
    );
    values.set("bitstream.filter_ns", bench_each(sia, |a| a.filter()));
    let no_interference = BitStream::zero();
    values.set(
        "bitstream.delay_bound_ns",
        bench_each(soa, |a| a.delay_bound(&no_interference).ok()),
    );
    let mut segments: Vec<u64> = soa.iter().map(|s| s.segment_count() as u64).collect();
    segments.sort_unstable();
    values.set(
        "bitstream.agg_segments_p50",
        stats::percentile(&segments, 0.5).unwrap_or(0) as f64,
    );
}

/// The per-hop requests the trace stream's SETUPs price at `node`.
fn requests_at(inputs: &Inputs, shard: &SwitchState, limit: usize) -> Vec<ConnectionRequest> {
    let topology = inputs.sr.topology();
    let bound = Time::from_integer(inputs.spec.bound);
    let mut out = Vec::new();
    for op in &inputs.trace {
        let Op::Setup { route, class } = *op else {
            continue;
        };
        let Ok(plan) = RoutePlan::from_route(topology, &inputs.route_objs[usize::from(route)])
        else {
            continue;
        };
        let priced = ReservationPlan::price::<rtcac_cac::CacError>(
            &plan,
            CdvPolicy::Hard,
            gen::contract(class),
            Priority::HIGHEST,
            |_| Ok(bound),
        );
        let Ok(priced) = priced else { continue };
        for (index, hop) in priced.hops().iter().enumerate() {
            if hop.node == shard.node {
                out.push(priced.request_for(index));
            }
        }
        if out.len() >= limit {
            break;
        }
    }
    out
}

/// `cac.*` and `net.*`: a bare `Switch` rebuilt from the busiest
/// shard, and the per-SETUP route work.
fn cac_layer(
    values: &mut Values,
    inputs: &Inputs,
    shard: &SwitchState,
    legs_per_port: &[usize],
) -> Result<(), String> {
    let mut switch = Switch::restore(
        shard.config.clone(),
        shard.epoch,
        shard.legs.iter().cloned(),
    )
    .map_err(|e| format!("cannot rebuild the busiest shard: {e}"))?;
    let requests = requests_at(inputs, shard, 300);
    let mut check_ns = Vec::with_capacity(requests.len());
    let mut admit_ns = Vec::new();
    let mut release_ns = Vec::new();
    for (k, request) in requests.iter().enumerate() {
        let start = Instant::now();
        let verdict = black_box(switch.check(request));
        check_ns.push(start.elapsed().as_nanos() as u64);
        if verdict.is_ok_and(|d| d.is_admitted()) {
            let id = ConnectionId::new(u64::MAX - k as u64);
            let start = Instant::now();
            let admitted = switch.admit(id, *request);
            admit_ns.push(start.elapsed().as_nanos() as u64);
            if admitted.is_ok_and(|d| d.is_admitted()) {
                let start = Instant::now();
                let released = switch.release(id);
                release_ns.push(start.elapsed().as_nanos() as u64);
                released.map_err(|e| format!("bare switch release failed: {e}"))?;
            }
        }
    }
    values.set("cac.check_ns_p50", p50(&check_ns));
    values.set("cac.admit_ns_p50", p50(&admit_ns));
    values.set("cac.release_ns_p50", p50(&release_ns));

    let topology = inputs.sr.topology();
    let bound = Time::from_integer(inputs.spec.bound);
    let setups: Vec<(u16, u8)> = inputs
        .trace
        .iter()
        .filter_map(|op| match *op {
            Op::Setup { route, class } => Some((route, class)),
            Op::Release { .. } => None,
        })
        .collect();
    let plans: Vec<(RoutePlan, u8)> = setups
        .iter()
        .filter_map(|&(route, class)| {
            RoutePlan::from_route(topology, &inputs.route_objs[usize::from(route)])
                .ok()
                .map(|plan| (plan, class))
        })
        .collect();
    let mut price_ns = Vec::with_capacity(plans.len());
    for (plan, class) in &plans {
        let start = Instant::now();
        black_box(
            ReservationPlan::price::<rtcac_cac::CacError>(
                plan,
                CdvPolicy::Hard,
                gen::contract(*class),
                Priority::HIGHEST,
                |_| Ok(bound),
            )
            .is_ok(),
        );
        price_ns.push(start.elapsed().as_nanos() as u64);
    }
    values.set("cac.price_ns_p50", p50(&price_ns));
    let hops: usize = setups
        .iter()
        .map(|&(route, _)| inputs.routes[usize::from(route)].hops)
        .sum();
    values.set(
        "cac.hops_per_setup",
        hops as f64 / setups.len().max(1) as f64,
    );
    let mut legs: Vec<u64> = legs_per_port.iter().map(|&n| n as u64).collect();
    legs.sort_unstable();
    values.set(
        "cac.legs_per_port_p50",
        stats::percentile(&legs, 0.5).unwrap_or(0) as f64,
    );

    values.set(
        "net.route_new_ns",
        bench_each(&setups, |&(route, _)| {
            Route::new(
                topology,
                inputs.routes[usize::from(route)]
                    .links
                    .iter()
                    .map(|&l| LinkId::external(l)),
            )
            .is_ok()
        }),
    );
    values.set(
        "net.route_plan_ns",
        bench_each(&setups, |&(route, _)| {
            RoutePlan::from_route(topology, &inputs.route_objs[usize::from(route)]).is_ok()
        }),
    );
    Ok(())
}

/// `serve.*` codec figures: the frames of the trace stream's SETUPs and
/// of the replies the wire replay got.
fn codec_layer(values: &mut Values, inputs: &Inputs, wire: &Nested) {
    let requests: Vec<Request> = inputs
        .trace
        .iter()
        .filter_map(|op| match *op {
            Op::Setup { route, class } => Some(Request::Setup {
                links: inputs.routes[usize::from(route)].links.clone(),
                request: inputs.requests[usize::from(class)],
            }),
            Op::Release { .. } => None,
        })
        .collect();
    let payloads: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
    values.set(
        "serve.req_encode_ns",
        bench_each(&requests, Request::encode),
    );
    values.set(
        "serve.req_decode_ns",
        bench_each(&payloads, |p| Request::decode(p).is_ok()),
    );
    // Frame = 4-byte length prefix + payload.
    let frame_bytes = |payloads: &[Vec<u8>]| {
        payloads.iter().map(|p| p.len() + 4).sum::<usize>() as f64 / payloads.len().max(1) as f64
    };
    values.set("serve.setup_frame_bytes", frame_bytes(&payloads));

    let admitted = Response::Admitted {
        id: 1_000_000,
        guaranteed_delay: inputs.expected_delay(0),
        attempts: 0,
    };
    let rejected = Response::Rejected {
        id: 1_000_000,
        code: 1,
        detail: wire.verdicts.first_rejected.clone().unwrap_or_default(),
    };
    // Replies in the replay's own verdict proportions.
    let setups = wire.tally.setups().max(1);
    let replies: Vec<Response> = (0..setups)
        .map(|k| {
            if k < wire.tally.rejected {
                rejected.clone()
            } else {
                admitted.clone()
            }
        })
        .collect();
    let reply_payloads: Vec<Vec<u8>> = replies.iter().map(Response::encode).collect();
    values.set(
        "serve.resp_encode_ns",
        bench_each(&replies, Response::encode),
    );
    values.set(
        "serve.resp_decode_ns",
        bench_each(&reply_payloads, |p| Response::decode(p).is_ok()),
    );
    values.set("serve.reply_frame_bytes", frame_bytes(&reply_payloads));
}

/// `snap.*`: snapshot, encode, decode and restore of the preloaded
/// engine.
fn snap_layer(values: &mut Values, fabric: &Fabric) -> Result<(), String> {
    let engine = fabric.engine();
    let doc = rtcac_snap::snapshot_engine(engine, "rtcac-benchmark");
    let bytes = rtcac_snap::encode(&doc);
    let reps = 3;
    values.set(
        "snap.encode_ns",
        bench(reps, || rtcac_snap::encode(&doc).len()),
    );
    values.set(
        "snap.decode_ns",
        bench(reps, || rtcac_snap::decode(&bytes).is_ok()),
    );
    rtcac_snap::restore_engine(&doc).map_err(|e| format!("snapshot does not restore: {e}"))?;
    values.set(
        "snap.restore_ns",
        bench(1, || rtcac_snap::restore_engine(&doc).is_ok()),
    );
    values.set(
        "snap.bytes_per_conn",
        bytes.len() as f64 / engine.connection_count().max(1) as f64,
    );
    Ok(())
}

fn histogram_delta(before: &Snapshot, after: &Snapshot, name: &str) -> HistogramSnapshot {
    let mut merged = HistogramSnapshot::default();
    for (id, h) in after.histograms_named(name) {
        let earlier = before
            .histograms
            .iter()
            .find(|(other, _)| other == id)
            .map(|(_, h)| h.clone())
            .unwrap_or_default();
        merged.merge(&h.delta(&earlier));
    }
    merged
}

/// `engine.*` figures the program's own histograms and counters hold,
/// read through `Registry::snapshot` around the traced phases.
fn registry_layer(values: &mut Values, before: &Snapshot, after: &Snapshot) {
    let quantile = |name: &str, q: f64| histogram_delta(before, after, name).quantile(q) as f64;
    values.set("engine.reserve_ns_p50", quantile("engine_reserve_ns", 0.5));
    values.set("engine.commit_ns_p50", quantile("engine_commit_ns", 0.5));
    values.set(
        "engine.rollback_ns_p50",
        quantile("engine_rollback_ns", 0.5),
    );
    values.set(
        "engine.lock_wait_ns_p99",
        quantile("engine_shard_lock_wait_ns", 0.99),
    );
    values.set(
        "engine.lock_hold_ns_p99",
        quantile("engine_lock_hold_ns", 0.99),
    );
    let counted = |name: &str| after.counter_total(name) - before.counter_total(name);
    let hits = counted("engine_sof_cache_hits_total");
    let misses = counted("engine_sof_cache_misses_total");
    values.set(
        "cac.sof_hit_ratio",
        match hits + misses {
            0 => 0.0,
            n => hits as f64 / n as f64,
        },
    );
    let refused = counted("engine_setups_rejected_total");
    let rolled_back = counted("engine_setups_aborted_total");
    let submitted = counted("engine_setups_submitted_total");
    values.set(
        "engine.reject_share",
        (refused + rolled_back) as f64 / submitted.max(1) as f64,
    );
    values.set(
        "engine.rollback_share",
        rolled_back as f64 / (refused + rolled_back).max(1) as f64,
    );
}

/// `obs.registry_overhead_pct`: the trace stream through an engine with
/// a registry against one without, in interleaved pairs.
fn registry_overhead(
    inputs: &Inputs,
    fabric: &Fabric,
    pairs: usize,
) -> Result<(f64, Tally), String> {
    let with = fabric::engine_replica(inputs, &fabric.placed, Some(Arc::new(Registry::new())))?;
    let without = fabric::engine_replica(inputs, &fabric.placed, None)?;
    let mut tally = Tally::default();
    let mut timed = |engine: &rtcac_engine::AdmissionEngine| {
        let start = Instant::now();
        let t = sink::replay(
            &mut EngineSink(engine),
            inputs,
            &inputs.trace,
            None,
            &mut |_| {},
        );
        tally.add(&t);
        start.elapsed().as_nanos() as f64
    };
    // One untimed pass each, so neither side pays first-touch costs.
    timed(&with);
    timed(&without);
    let overheads: Vec<f64> = (0..pairs.max(1))
        .map(|k| {
            // Alternate which side runs first.
            let (a, b) = if k % 2 == 0 {
                let a = timed(&with);
                (a, timed(&without))
            } else {
                let b = timed(&without);
                (timed(&with), b)
            };
            (a / b - 1.0) * 100.0
        })
        .collect();
    Ok((stats::median(&overheads), tally))
}

/// Runs the traced measurements on a set-up fabric.
pub fn run(inputs: &Inputs, fabric: &Fabric, options: &Options) -> Result<Traced, String> {
    let spec = inputs.spec;
    let scale = (options.seconds as f64 / RUN_SECONDS as f64).clamp(0.05, 1.0);
    let addr = fabric.server.addr();
    let engine = fabric.engine();
    let mut values = Values::default();
    let mut gates = Vec::new();
    let mut tally = Tally::default();
    let mut recorder = Recorder::new(Instant::now());
    let epoch = recorder.epoch();

    let registry_before = fabric.server.registry().snapshot();

    // The four nested entry points, each from the same fabric state.
    let client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    let mut wire_sink = WireSink(client);
    let mut wire = replay_traced("wire", &mut wire_sink, inputs, &mut recorder, epoch);
    let mut rtt = Vec::with_capacity(1000);
    for _ in 0..((1000.0 * scale) as usize).max(50) {
        let start = Instant::now();
        let reply = wire_sink.0.stats();
        rtt.push(start.elapsed().as_nanos() as u64);
        if !matches!(reply, Ok(Response::StatsReply { .. })) {
            return Err("STATS was not answered by STATS-REPLY".into());
        }
    }
    drop(wire_sink);
    let pool = ServicePool::new(Arc::clone(engine), fabric::WORKERS);
    let pooled = replay_traced("pool", &mut PoolSink(&pool), inputs, &mut recorder, epoch);
    pool.shutdown();
    let direct = replay_traced(
        "engine",
        &mut EngineSink(engine),
        inputs,
        &mut recorder,
        epoch,
    );
    let mut network = fabric::serial_replica(inputs, &fabric.placed)?;
    let serial = replay_traced(
        "serial",
        &mut SerialSink(&mut network),
        inputs,
        &mut recorder,
        epoch,
    );
    if options.flip_verdict {
        // The self-test of the digest gate: one recorded verdict flipped.
        wire.verdicts.push(&sink::Reply::Rejected {
            detail: "flipped by --flip-verdict".into(),
        });
    }
    gates.push(digest_gate(&[
        ("wire", wire.verdicts.digest()),
        ("pool", pooled.verdicts.digest()),
        ("engine", direct.verdicts.digest()),
        ("serial", serial.verdicts.digest()),
    ]));
    let chain = [&wire, &pooled, &direct, &serial];
    for pair in chain.windows(2) {
        for (outer, inner) in pair[0].span_of_op.iter().zip(&pair[1].span_of_op) {
            if *outer != u32::MAX && *inner != u32::MAX {
                recorder.adopt(*outer, *inner);
            }
        }
    }
    for nested in chain {
        tally.add(&nested.tally);
    }

    // Self time per layer, over the SETUP spans.
    let self_ns = span::self_times(recorder.spans());
    let setup_self = |nested: &Nested| -> Vec<u64> {
        inputs
            .trace
            .iter()
            .zip(&nested.span_of_op)
            .filter(|(op, &span)| matches!(op, Op::Setup { .. }) && span != u32::MAX)
            .map(|(_, &span)| self_ns[span as usize])
            .collect()
    };
    let wire_p50 = p50(&wire.setup_ns);
    let parts = [
        p50(&setup_self(&wire)),
        p50(&setup_self(&pooled)),
        p50(&setup_self(&direct)),
        p50(&serial.setup_ns),
    ];
    values.set("serve.wire_ns_p50", wire_p50);
    values.set("serve.self_ns", parts[0]);
    values.set("engine.pool_self_ns", parts[1]);
    values.set("engine.self_ns", parts[2]);
    values.set("engine.pool_admit_ns_p50", p50(&pooled.setup_ns));
    values.set("engine.admit_ns_p50", p50(&direct.setup_ns));
    values.set("engine.admit_ns_p99", p99(&direct.setup_ns));
    values.set("engine.release_ns_p50", p50(&direct.release_ns));
    values.set("signaling.setup_ns_p50", parts[3]);
    values.set("signaling.teardown_ns_p50", p50(&serial.release_ns));
    values.set("serve.rtt_floor_ns_p50", p50(&rtt));
    let enforced = matches!(spec.name, "wire_light" | "wire_loaded");
    let (residual_pct, ledger) = ledger_gate(enforced, wire_p50, parts);
    values.set("ledger.residual_pct", residual_pct);
    println!("  ledger: {}", ledger.detail);
    gates.push(ledger);

    // An untraced closed loop against a traced one, then one open
    // loop; the program's own histograms are read around them.
    let measure = |settle: Duration, seconds: f64| Plan {
        settle,
        measure: Duration::from_secs_f64(seconds * scale.max(0.25)),
    };
    let rate = |segments: &Segments| {
        stats::median(
            &segments
                .kept
                .iter()
                .map(Phase::ops_per_s)
                .collect::<Vec<_>>(),
        )
    };
    let untraced = phases::alone(
        inputs,
        closed_loop(inputs, fabric, None),
        measure(SETTLE_SAT, 2.0),
    );
    let traced = phases::alone(
        inputs,
        closed_loop(inputs, fabric, Some(epoch)),
        measure(SETTLE_SAT, 2.0),
    );
    tally.add(&untraced.tally);
    tally.add(&traced.tally);
    values.set(
        "trace.overhead_pct",
        (1.0 - rate(&traced) / rate(&untraced)) * 100.0,
    );
    let mut sat_setup_ns: Vec<u64> = traced
        .kept
        .iter()
        .flat_map(|p| p.setup_ns.iter().copied())
        .collect();
    values.set("serve.sat_p50_us", p50(&sat_setup_ns) / 1000.0);
    let sat_spans: Vec<span::Span> = traced.kept.into_iter().flat_map(|p| p.spans).collect();
    let paced = phases::alone(
        inputs,
        open_loop(inputs, fabric),
        measure(SETTLE_OTHER, 2.0),
    );
    tally.add(&paced.tally);
    let mut paced_setup_ns: Vec<u64> = paced
        .kept
        .iter()
        .flat_map(|p| p.setup_ns.iter().copied())
        .collect();
    let mut late_ns: Vec<u64> = paced
        .kept
        .iter()
        .flat_map(|p| p.late_ns.iter().copied())
        .collect();
    values.set("serve.paced_p99_us", p99(&paced_setup_ns) / 1000.0);
    values.set("serve.gen_late_p99_us", p99(&late_ns) / 1000.0);
    values.set(
        "serve.backlog_max",
        paced.kept.iter().map(|p| p.backlog_max).max().unwrap_or(0) as f64,
    );
    let in_flight = (phases::CLIENTS
        * match spec.entry {
            Entry::Wire => phases::WINDOW,
            Entry::Direct => 1,
        }) as f64;
    println!(
        "  closed loop: SETUP {} ns; {} in flight / {:.0} ops/s = {:.1} us per op (Little's law)",
        Timing::of(&mut sat_setup_ns),
        in_flight,
        rate(&untraced),
        in_flight / rate(&untraced) * 1e6
    );
    println!(
        "  open loop at {} ops/s: SETUP from due time {} ns; generator late {} ns",
        spec.paced_rate,
        Timing::of(&mut paced_setup_ns),
        Timing::of(&mut late_ns)
    );
    let registry_after = fabric.server.registry().snapshot();
    registry_layer(&mut values, &registry_before, &registry_after);
    values.set(
        "obs.snapshot_ns",
        bench(((20.0 * scale) as usize).max(2), || {
            fabric.server.registry().snapshot().counters.len()
        }),
    );

    // One thread against two on the same streams.
    let threads = |streams| {
        let spec = LoopSpec::SatDirect {
            engine,
            streams,
            trace: None,
        };
        phases::alone(inputs, spec, measure(SETTLE_OTHER, 1.0))
    };
    let one = threads(&inputs.direct[..1]);
    let two = threads(&inputs.direct[..]);
    values.set("engine.contended_speedup", rate(&two) / rate(&one));
    tally.add(&one.tally);
    tally.add(&two.tally);

    let (overhead, replica_tally) =
        registry_overhead(inputs, fabric, ((3.0 * scale).ceil() as usize).max(1))?;
    values.set("obs.registry_overhead_pct", overhead);
    tally.add(&replica_tally);

    // Below the serial network: the busiest shard's switch and streams.
    let state = engine.export_state();
    let (shard, legs_per_port) = busiest(&state);
    let agg = aggregates(shard);
    let mut operands = ratios_of(&agg.outputs);
    operands.extend(ratios_of(&agg.arrivals));
    if operands.len() < 64 {
        let cdv = Time::from_integer(spec.bound);
        let arrivals: Vec<BitStream> = spec
            .classes
            .iter()
            .map(|&c| gen::contract(c).worst_case_stream().delay(cdv))
            .collect();
        operands.extend(ratios_of(&arrivals));
    }
    rational_layer(&mut values, &operands, scale);
    bitstream_layer(&mut values, inputs, &agg, scale);
    cac_layer(&mut values, inputs, shard, &legs_per_port)?;
    codec_layer(&mut values, inputs, &wire);
    snap_layer(&mut values, fabric)?;

    // Filled in once the server has drained.
    values.set("serve.cleanup_released", 0.0);
    values.set("failed_share", 0.0);

    if let Some(dir) = &options.out {
        let mut spans = recorder.into_spans();
        spans.extend(sat_spans);
        write_spans(dir, spec.name, &spans)?;
    }
    Ok(Traced {
        tally,
        gates,
        values: values.in_catalogue_order()?,
    })
}

/// Fills the two figures only known after the server has drained.
pub fn finish(
    values: &mut [(&'static str, &'static str, f64)],
    cleanup_released: u64,
    tally: &Tally,
) {
    for (name, _, value) in values.iter_mut() {
        match *name {
            "serve.cleanup_released" => *value = cleanup_released as f64,
            "failed_share" => *value = tally.failed as f64 / tally.sent.max(1) as f64,
            _ => {}
        }
    }
}

fn write_spans(dir: &std::path::Path, workload: &str, spans: &[span::Span]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.trace.json"));
    let doc = Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                    ),
                    ("op", Value::Num(f64::from(s.op))),
                ])
            })
            .collect(),
    );
    std::fs::write(&path, doc.write())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("  {} spans written to {}", spans.len(), path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_gate_fires_when_one_entry_point_disagrees() {
        let same = [("wire", 7), ("pool", 7), ("engine", 7), ("serial", 7)];
        assert!(digest_gate(&same).ok);
        let flipped = [("wire", 7), ("pool", 7), ("engine", 8), ("serial", 7)];
        let gate = digest_gate(&flipped);
        assert!(!gate.ok);
        assert!(gate.detail.contains("engine 0000000000000008"));
    }

    #[test]
    fn ledger_gate_fires_past_fifteen_percent_where_enforced() {
        let (residual, gate) = ledger_gate(true, 100.0, [40.0, 20.0, 10.0, 25.0]);
        assert!((residual - 5.0).abs() < 1e-9);
        assert!(gate.ok);
        let (residual, gate) = ledger_gate(true, 100.0, [40.0, 20.0, 10.0, 10.0]);
        assert!((residual - 20.0).abs() < 1e-9);
        assert!(!gate.ok);
        assert!(ledger_gate(false, 100.0, [40.0, 20.0, 10.0, 10.0]).1.ok);
        assert!(!ledger_gate(true, 100.0, [80.0, 20.0, 10.0, 10.0]).1.ok);
    }

    #[test]
    fn bench_reports_time_per_call_and_grows_with_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = x.wrapping_add(black_box(i));
                }
                x
            }
        };
        let small = bench(200, spin(100));
        let large = bench(200, spin(10_000));
        assert!(large > small * 10.0, "{small} vs {large}");
    }

    #[test]
    fn values_must_cover_the_catalogue() {
        let mut values = Values::default();
        assert!(values.in_catalogue_order().is_err());
        for m in PER_LAYER {
            values.set(m.name, 1.0);
        }
        let ordered = values.in_catalogue_order().unwrap();
        assert_eq!(ordered.len(), PER_LAYER.len());
        assert_eq!(ordered[0].0, PER_LAYER[0].name);
    }

    #[test]
    fn denominator_bits() {
        assert_eq!(den_bits(Ratio::from_integer(5)), 1);
        assert_eq!(den_bits(rtcac_rational::ratio(1, 8)), 4);
        assert_eq!(den_bits(rtcac_rational::ratio(3, 8192)), 14);
    }
}
