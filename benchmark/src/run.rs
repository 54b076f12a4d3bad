//! One run of one workload: timed set-up, the loops replaying the same
//! seeded streams from the same fabric state, the correctness gates,
//! and the result.

use std::thread;
use std::time::{Duration, Instant};

use rtcac_engine::EngineStats;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::fabric::{Entry, Fabric, Inputs, Preload, Regime, Spec, LOADED_LEGS};
use crate::json::Value;
use crate::layers;
use crate::phases::{self, Control, LoopSpec, Phase, Plan, Running, Segments};
use crate::sink::Tally;
use crate::stats;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures when
/// the caller does not say.
pub const RUN_SECONDS: u64 = 20;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds in which the open and the direct loop take turns.
const ROUNDS: usize = 4;
/// How long each loop runs before its first kept segment: the closed
/// loop has to outlast the guest's one-CPU start (see `phases`); the
/// others only have to fault their paths in.
pub const SETTLE_SAT: Duration = Duration::from_millis(2500);
pub const SETTLE_OTHER: Duration = Duration::from_millis(500);

/// What the caller asked for.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out: Option<std::path::PathBuf>,
    /// Self-test of the verdict-digest gate: flips one recorded verdict
    /// of the traced replay, so the run must fail.
    pub flip_verdict: bool,
}

/// One correctness gate and what it found.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Gate {
    pub fn check(name: &'static str, ok: bool, detail: impl Into<String>) -> Gate {
        Gate {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// A metric's value in every round; reported as their median.
#[derive(Debug, Clone)]
pub struct Series {
    pub name: &'static str,
    pub unit: &'static str,
    pub rounds: Vec<f64>,
}

impl Series {
    pub fn value(&self) -> f64 {
        stats::median(&self.rounds)
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub digest: u64,
    pub traced: bool,
    pub tally: Tally,
    pub gates: Vec<Gate>,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Series>,
    /// Per-layer metrics (traced runs), in catalogue order.
    pub layers: Vec<(&'static str, &'static str, f64)>,
    /// Segments left out of the medians for host steal.
    pub rounds_discarded: usize,
    /// Host steal share of every kept closed-loop segment.
    pub steal: Vec<f64>,
    /// Generator lateness of the open loop, p50 and p99, in µs.
    pub gen_late_us: (f64, f64),
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }

    /// Pools another run of the same workload into this one: every
    /// metric's segments side by side, every gate kept.
    pub fn absorb(&mut self, other: RunResult) {
        self.tally.add(&other.tally);
        self.gates.extend(other.gates);
        for (mine, theirs) in self.end_to_end.iter_mut().zip(other.end_to_end) {
            mine.rounds.extend(theirs.rounds);
        }
        self.rounds_discarded += other.rounds_discarded;
        self.steal.extend(other.steal);
    }

    /// The line the driver reads: last on standard output.
    pub fn driver_line(&self) -> String {
        let metric = |value: f64, unit: &str| {
            Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))])
        };
        let metrics: Vec<(&str, Value)> = if self.traced {
            self.layers
                .iter()
                .map(|&(name, unit, value)| (name, metric(value, unit)))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|s| (s.name, metric(s.value(), s.unit)))
                .collect()
        };
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.tally.sent.max(1) as f64)),
            ("failed", Value::Num(self.tally.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .write()
    }

    /// The full record `compare` reads.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("workload", Value::str(self.workload)),
            ("seed", Value::Num(self.seed as f64)),
            ("stream_digest", Value::str(format!("{:016x}", self.digest))),
            ("traced", Value::Bool(self.traced)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.tally.sent as f64)),
            ("failed", Value::Num(self.tally.failed as f64)),
            ("rounds_discarded", Value::Num(self.rounds_discarded as f64)),
            ("steal_share", Value::nums(&self.steal)),
            ("gen_late_p50_us", Value::Num(self.gen_late_us.0)),
            ("gen_late_p99_us", Value::Num(self.gen_late_us.1)),
            (
                "gates",
                Value::Arr(
                    self.gates
                        .iter()
                        .map(|g| {
                            Value::obj([
                                ("name", Value::str(g.name)),
                                ("ok", Value::Bool(g.ok)),
                                ("detail", Value::str(g.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Value::Arr(
                    self.end_to_end
                        .iter()
                        .map(|s| {
                            let (q1, q3) = stats::quartiles(&s.rounds);
                            Value::obj([
                                ("name", Value::str(s.name)),
                                ("unit", Value::str(s.unit)),
                                ("median", Value::Num(s.value())),
                                ("q1", Value::Num(q1)),
                                ("q3", Value::Num(q3)),
                                ("rounds", Value::nums(&s.rounds)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Value::Arr(
                    self.layers
                        .iter()
                        .map(|&(name, unit, value)| {
                            Value::obj([
                                ("name", Value::str(name)),
                                ("unit", Value::str(unit)),
                                ("value", Value::Num(value)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The loops of an untraced run.
pub struct Loops {
    /// The closed loop through the workload's entry point.
    pub sat: Segments,
    /// The open loop through the workload's entry point.
    pub paced: Segments,
    /// One thread calling the engine directly, on wire workloads; where
    /// the closed loop already is direct, `None`.
    pub direct: Option<Segments>,
}

impl Loops {
    /// The segments whose SETUP latencies are `admit_p50_us` and
    /// `admit_p90_us`.
    pub fn admits(&self) -> &[Phase] {
        &self.direct.as_ref().unwrap_or(&self.sat).kept
    }

    pub fn tally(&self) -> Tally {
        let mut t = self.sat.tally;
        t.add(&self.paced.tally);
        if let Some(d) = &self.direct {
            t.add(&d.tally);
        }
        t
    }

    pub fn discarded(&self) -> usize {
        self.sat.discarded + self.paced.discarded + self.direct.as_ref().map_or(0, |d| d.discarded)
    }
}

/// The closed loop through the workload's entry point.
pub fn closed_loop<'a>(
    inputs: &'a Inputs,
    fabric: &'a Fabric,
    trace: Option<Instant>,
) -> LoopSpec<'a> {
    match inputs.spec.entry {
        Entry::Wire => LoopSpec::SatWire {
            addr: fabric.server.addr(),
            streams: &inputs.sat,
            trace,
        },
        Entry::Direct => LoopSpec::SatDirect {
            engine: fabric.engine(),
            streams: &inputs.sat,
            trace,
        },
    }
}

/// The open loop through the workload's entry point.
pub fn open_loop<'a>(inputs: &'a Inputs, fabric: &'a Fabric) -> LoopSpec<'a> {
    let rate = inputs.spec.paced_rate;
    match inputs.spec.entry {
        Entry::Wire => LoopSpec::PacedWire {
            addr: fabric.server.addr(),
            ops: &inputs.paced,
            rate,
        },
        Entry::Direct => LoopSpec::PacedDirect {
            engine: fabric.engine(),
            ops: &inputs.paced,
            rate,
        },
    }
}

/// Runs the loops. The closed loop runs first and without a pause:
/// a pause lets the guest gather its threads on one CPU again, and it
/// then runs fast for a second or two of every slice. The open loop
/// and (on a wire workload) the direct loop, which have no such state,
/// then take turns over [`ROUNDS`] rounds, so that each samples the
/// whole of its stretch of the run rather than one end of it.
fn run_loops(inputs: &Inputs, fabric: &Fabric, seconds: u64) -> Loops {
    let wire = inputs.spec.entry == Entry::Wire;
    let (sat_share, paced_share, direct_share) = if wire {
        (0.45, 0.35, 0.2)
    } else {
        (0.55, 0.45, 0.0)
    };
    let share = |share: f64| Duration::from_secs_f64(seconds as f64 * share);
    let sat = phases::alone(
        inputs,
        closed_loop(inputs, fabric, None),
        Plan {
            settle: SETTLE_SAT,
            measure: share(sat_share),
        },
    );
    let open = open_loop(inputs, fabric);
    let direct = LoopSpec::SatDirect {
        engine: fabric.engine(),
        streams: &inputs.direct[..1],
        trace: None,
    };
    let controls = (Control::new(&open), Control::new(&direct));
    let (paced, direct) = thread::scope(|scope| {
        let mut paced = phases::start(scope, &controls.0, inputs, open);
        let mut direct = wire.then(|| phases::start(scope, &controls.1, inputs, direct));
        paced.slice(SETTLE_OTHER, false);
        if let Some(direct) = &mut direct {
            direct.slice(SETTLE_OTHER, false);
        }
        for _ in 0..ROUNDS {
            paced.slice(share(paced_share) / ROUNDS as u32, true);
            if let Some(direct) = &mut direct {
                direct.slice(share(direct_share) / ROUNDS as u32, true);
            }
        }
        (paced.finish(), direct.map(Running::finish))
    });
    Loops { sat, paced, direct }
}

/// The discarded warm-up of a set-up: one replay of the short streams
/// through every loop.
fn warm_up(inputs: &Inputs, fabric: &Fabric) -> Tally {
    let once = Plan {
        settle: Duration::ZERO,
        measure: Duration::ZERO,
    };
    let spec = inputs.spec;
    let engine = fabric.engine();
    let mut loops = vec![LoopSpec::SatDirect {
        engine,
        streams: &inputs.warm,
        trace: None,
    }];
    match spec.entry {
        Entry::Wire => {
            let addr = fabric.server.addr();
            loops.push(LoopSpec::SatWire {
                addr,
                streams: &inputs.warm,
                trace: None,
            });
            loops.push(LoopSpec::PacedWire {
                addr,
                ops: &inputs.warm_paced,
                rate: spec.paced_rate,
            });
        }
        Entry::Direct => loops.push(LoopSpec::PacedDirect {
            engine,
            ops: &inputs.warm_paced,
            rate: spec.paced_rate,
        }),
    }
    let mut tally = Tally::default();
    for spec in loops {
        tally.add(&phases::alone(inputs, spec, once).tally);
    }
    tally
}

/// Builds the fabric and warms it, timed: topology, `Server::start`,
/// preload through `server.engine().admit`, one discarded warm-up.
fn set_up(inputs: &Inputs) -> Result<(Fabric, f64, Tally), String> {
    let start = Instant::now();
    let fabric = Fabric::build(inputs)?;
    let tally = warm_up(inputs, &fabric);
    Ok((fabric, start.elapsed().as_secs_f64(), tally))
}

/// Drains the server and checks what shutdown found.
fn tear_down(fabric: Fabric, gates: &mut Vec<Gate>) -> u64 {
    let preloaded = fabric.placed.len();
    fabric.server.request_drain();
    let summary = fabric.server.join();
    gates.push(Gate::check(
        "drain_clean",
        summary.is_clean() && summary.active == preloaded,
        format!(
            "orphans {} violations {} active {} (preloaded {preloaded})",
            summary.orphans, summary.violations, summary.active
        ),
    ));
    gates.push(Gate::check(
        "cleanup_released_zero",
        summary.cleanup_released == 0,
        format!(
            "{} connections left for session cleanup",
            summary.cleanup_released
        ),
    ));
    summary.cleanup_released
}

/// Whether the measured SETUPs stayed in the workload's verdict regime.
pub fn regime_gates(
    spec: &Spec,
    tally: &Tally,
    before: &EngineStats,
    after: &EngineStats,
) -> Vec<Gate> {
    let refused = after.rejected - before.rejected;
    let rolled_back = after.aborted - before.aborted;
    let rollback_share = match refused + rolled_back {
        0 => 0.0,
        n => rolled_back as f64 / n as f64,
    };
    match spec.regime {
        Regime::AllAdmitted => vec![Gate::check(
            "regime_all_admitted",
            tally.rejected == 0 && refused + rolled_back == 0,
            format!("{} SETUPs refused", refused + rolled_back),
        )],
        Regime::Refusing {
            lo,
            hi,
            rolled_back: floor,
        } => vec![
            Gate::check(
                "regime_reject_share",
                (lo..=hi).contains(&tally.reject_share()),
                format!(
                    "reject share {:.3}, wanted {lo}..={hi}",
                    tally.reject_share()
                ),
            ),
            Gate::check(
                "regime_rollback_share",
                rollback_share >= floor,
                format!("{rollback_share:.3} of refusals rolled back a leg, wanted >= {floor}"),
            ),
        ],
    }
}

/// Runs one workload and returns its result. Progress goes to standard
/// output as plain lines; the caller prints the driver line last.
pub fn run(spec: &'static Spec, options: &Options) -> Result<RunResult, String> {
    let inputs = Inputs::new(spec, options.seed);
    println!(
        "workload {} seed {} stream digest {:016x}",
        spec.name, inputs.seed, inputs.digest
    );
    println!("  why: {}", spec.why);
    println!(
        "  generator: one process, {} connections/threads; server in the same process over the \
         loopback interface, ServeConfig.workers = {}",
        phases::CLIENTS,
        crate::fabric::WORKERS
    );
    let mut gates = Vec::new();
    let mut tally = Tally::default();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(previous) = kept.take() {
            tear_down(previous, &mut gates);
        }
        let (fabric, seconds, warm) = set_up(&inputs)?;
        setup_s.push(seconds);
        tally.add(&warm);
        kept = Some(fabric);
    }
    let fabric = kept.expect("SETUPS is at least one");
    let legs = fabric.engine().export_state().total_legs();
    println!(
        "  set-up x{SETUPS}: median {:.4} s; preloaded {} connections, {legs} legs",
        stats::median(&setup_s),
        fabric.placed.len(),
    );
    if spec.preload == Preload::Loaded {
        gates.push(Gate::check(
            "preload_legs",
            legs == LOADED_LEGS,
            format!("{legs} legs preloaded, {LOADED_LEGS} wanted"),
        ));
    }

    let stats_before = fabric.engine().stats();
    let mut result = RunResult {
        workload: spec.name,
        seed: inputs.seed,
        digest: inputs.digest,
        traced: options.trace,
        tally: Tally::default(),
        gates: Vec::new(),
        end_to_end: Vec::new(),
        layers: Vec::new(),
        rounds_discarded: 0,
        steal: Vec::new(),
        gen_late_us: (0.0, 0.0),
    };

    let mut measured = Tally::default();
    if options.trace {
        let traced = layers::run(&inputs, &fabric, options)?;
        measured.add(&traced.tally);
        gates.extend(traced.gates);
        result.layers = traced.values;
    } else {
        let loops = run_loops(&inputs, &fabric, options.seconds);
        measured.add(&loops.tally());
        result.rounds_discarded = loops.discarded();
        result.steal = loops.sat.kept.iter().map(|p| p.steal).collect();
        let late: Vec<u64> = loops
            .paced
            .kept
            .iter()
            .flat_map(|p| p.late_ns.iter().copied())
            .collect();
        result.gen_late_us = (quantile_us(&late, 0.5), quantile_us(&late, 0.99));
        println!(
            "  kept segments: closed loop {}, open loop {}, direct {}; left out for steal {}",
            loops.sat.kept.len(),
            loops.paced.kept.len(),
            loops.admits().len(),
            loops.discarded()
        );
        println!(
            "  open loop at {} ops/s: generator late p50 {:.1} us p99 {:.1} us",
            spec.paced_rate, result.gen_late_us.0, result.gen_late_us.1
        );
        result.end_to_end = end_to_end(&setup_s, fabric.resident_bytes_per_conn, &loops);
    }
    let stats_after = fabric.engine().stats();

    gates.push(Gate::check(
        "sent_balances",
        measured.balanced() && tally.balanced(),
        format!(
            "sent {} = admitted {} + rejected {} + released {} + failed {}",
            measured.sent, measured.admitted, measured.rejected, measured.released, measured.failed
        ),
    ));
    gates.extend(regime_gates(spec, &measured, &stats_before, &stats_after));
    tally.add(&measured);
    gates.push(Gate::check(
        "nothing_failed",
        tally.failed == 0,
        format!("{} of {} ops failed", tally.failed, tally.sent),
    ));
    gates.push(Gate::check(
        "fabric_restored",
        fabric.engine().connection_count() == fabric.placed.len(),
        format!(
            "{} connections held after the last segment, {} preloaded",
            fabric.engine().connection_count(),
            fabric.placed.len()
        ),
    ));
    let orphans = fabric.engine().orphaned_reservations().len();
    let violations = fabric
        .engine()
        .verify_guarantees()
        .map_or(usize::MAX, |v| v.len());
    gates.push(Gate::check(
        "engine_audit",
        orphans == 0 && violations == 0,
        format!("{orphans} orphaned reservations, {violations} guarantee violations"),
    ));
    let cleanup_released = tear_down(fabric, &mut gates);
    if options.trace {
        layers::finish(&mut result.layers, cleanup_released, &tally);
    }

    result.tally = tally;
    result.gates = gates;
    report(&result);
    Ok(result)
}

fn quantile_us(samples: &[u64], q: f64) -> f64 {
    stats::quantile(samples, q) as f64 / 1000.0
}

/// Reduces the loops' segments to the end-to-end series, in catalogue
/// order.
fn end_to_end(setup_s: &[f64], resident: f64, loops: &Loops) -> Vec<Series> {
    let each = |phases: &[Phase], f: &dyn Fn(&Phase) -> f64| phases.iter().map(f).collect();
    END_TO_END
        .iter()
        .map(|m| Series {
            name: m.name,
            unit: m.unit,
            rounds: match m.name {
                "setup_s" => setup_s.to_vec(),
                "ops_per_s" => each(&loops.sat.kept, &Phase::ops_per_s),
                "cpu_us_per_op" => each(&loops.sat.kept, &Phase::cpu_us_per_op),
                "paced_p50_us" => each(&loops.paced.kept, &|p| quantile_us(&p.setup_ns, 0.5)),
                "admit_p50_us" => each(loops.admits(), &|p| quantile_us(&p.setup_ns, 0.5)),
                "admit_p90_us" => each(loops.admits(), &|p| quantile_us(&p.setup_ns, 0.9)),
                "resident_bytes_per_conn" => vec![resident],
                other => unreachable!("end-to-end metric {other} has no measurement"),
            },
        })
        .collect()
}

/// Prints every metric by name with its unit, then the gates.
fn report(result: &RunResult) {
    for (s, m) in result.end_to_end.iter().zip(&END_TO_END) {
        let (q1, q3) = stats::quartiles(&s.rounds);
        println!(
            "  {:<26} {:>14.4} {:<6} (q1 {:.4} q3 {:.4}, {} values; {} is better, bound {:.0} %)",
            s.name,
            s.value(),
            s.unit,
            q1,
            q3,
            s.rounds.len(),
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    for (&(name, unit, value), m) in result.layers.iter().zip(&PER_LAYER) {
        println!(
            "  {name:<30} {value:>16.3} {unit:<6} ({} is better)",
            m.better.as_str()
        );
    }
    println!(
        "  attempted {} failed {}",
        result.tally.sent, result.tally.failed
    );
    for g in &result.gates {
        println!(
            "  gate {:<24} {} {}",
            g.name,
            if g.ok { "ok  " } else { "FAIL" },
            g.detail
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::spec;

    fn stats_with(rejected: u64, aborted: u64) -> EngineStats {
        EngineStats {
            rejected,
            aborted,
            ..EngineStats::default()
        }
    }

    #[test]
    fn regime_gates_fire_outside_the_regime() {
        let zero = EngineStats::default();
        let all = spec("wire_loaded").unwrap();
        let clean = Tally {
            sent: 10,
            admitted: 5,
            released: 5,
            ..Tally::default()
        };
        assert!(regime_gates(all, &clean, &zero, &zero).iter().all(|g| g.ok));
        // One refusal on a workload that admits everything.
        assert!(regime_gates(all, &clean, &zero, &stats_with(1, 0))
            .iter()
            .any(|g| !g.ok));

        let refusing = spec("wire_saturated").unwrap();
        let tally = |admitted, rejected| Tally {
            sent: admitted + rejected,
            admitted,
            rejected,
            ..Tally::default()
        };
        let ok = regime_gates(refusing, &tally(25, 75), &zero, &stats_with(40, 35));
        assert!(ok.iter().all(|g| g.ok), "{ok:?}");
        // Too few refusals, too many, and too few of them rolled back.
        for (t, after) in [
            (tally(50, 50), stats_with(25, 25)),
            (tally(5, 95), stats_with(50, 45)),
            (tally(25, 75), stats_with(70, 5)),
        ] {
            assert!(regime_gates(refusing, &t, &zero, &after)
                .iter()
                .any(|g| !g.ok));
        }
    }

    #[test]
    fn any_failed_gate_makes_the_result_incorrect() {
        let mut result = RunResult {
            workload: "wire_light",
            seed: 1,
            digest: 0,
            traced: false,
            tally: Tally {
                sent: 10,
                admitted: 5,
                released: 5,
                ..Tally::default()
            },
            gates: vec![Gate::check("a", true, ""), Gate::check("b", true, "")],
            end_to_end: vec![Series {
                name: "setup_s",
                unit: "s",
                rounds: vec![0.5, 0.25, 0.75],
            }],
            layers: Vec::new(),
            rounds_discarded: 0,
            steal: Vec::new(),
            gen_late_us: (0.0, 0.0),
        };
        assert!(result.correct());
        assert!(result.driver_line().starts_with(
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}"
        ));
        result.gates.push(Gate::check("c", false, "provoked"));
        assert!(!result.correct());
        assert!(result.driver_line().starts_with("{\"correct\":false,"));
        assert_eq!(result.to_json().get("correct"), Some(&Value::Bool(false)));
    }
}
