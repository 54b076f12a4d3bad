//! `rtcac storm`: the differential scenario fuzzer.
//!
//! Each round draws a seeded random — but always *valid* — `.rtcac`
//! scenario from [`rtcac_storm::generate`] (generated topology,
//! optional time-varying impairment profile, LRD-shaped connect
//! volume), then steps two [`Replay`]s of it in lock-step: one over
//! the serial signaling `Network` and one over the concurrent sharded
//! `AdmissionEngine`. The parity oracle is `serial_step ==
//! engine_step`, directive by directive:
//!
//! - plain unicast connects must agree on the verdict, the guaranteed
//!   delay, and the full per-hop [`AdmissionReport`] ledger (the same
//!   explicit connection id is submitted to both sides, so the
//!   ledgers must be *identical* — the rendered bytes included);
//! - multicast connects must agree on the verdict and worst-leaf delay;
//! - crankback connects are compared loosely: the serial driver's
//!   excluded-link search and the engine's reroute search may
//!   legitimately pick different alternates, so a divergence downgrades
//!   the rest of the round to invariant-only checking (counted, not
//!   fatal);
//! - fault/heal directives must agree on whether anything changed and
//!   how many connections were torn down; releases must agree on
//!   whether the connection was still live;
//! - embedded `chaos` directives must hold their invariants, and on a
//!   sampling of rounds are additionally run through a
//!   kill/snapshot-restore cycle ([`rtcac_snap`]) that must be
//!   decision-identical to the uninterrupted run;
//! - after every round both sides must pass the orphaned-reservation
//!   and guarantee audits, and at the end of the storm the engine's
//!   lock-hold watchdog counter must still be zero.
//!
//! On a violation the failing scenario is minimized (greedy
//! delta-debugging over the directive list) and written to `--out`,
//! and the command exits nonzero.

use std::fmt::Write as _;
use std::sync::Arc;

use rtcac_bitstream::TrafficContract;
use rtcac_cac::AdmissionReport;
use rtcac_net::SimRng;
use rtcac_snap::{decode, encode, restore_engine, snapshot_engine};
use rtcac_storm::{
    finish_report, generate, run_chaos_segment, ChaosState, FuzzConfig, ProfileKind, StormScenario,
    TopologyKind,
};

use crate::commands::{build_engine, build_network, export_metrics, write_metrics_file};
use crate::replay::{ChaosSession, Driver, EngineDriver, Replay, Step};
use crate::scenario::{RouteKind, Scenario, ScenarioAction};
use crate::CliError;

/// Parameters of `rtcac storm`.
#[derive(Debug, Clone)]
pub struct StormArgs {
    /// Master seed: every round's scenario derives from it.
    pub seed: u64,
    /// Fuzz rounds to run.
    pub rounds: u64,
    /// Impairment profile: a profile name, `none`, or `mixed`
    /// (default) to cycle through all of them plus unimpaired rounds.
    pub profile: Option<String>,
    /// Topology family: a family name or `mixed` (default) to cycle
    /// through all of them.
    pub topology: Option<String>,
    /// Optional switch budget per generated topology. `None` keeps
    /// the default small fuzz-round draws; `Some(n)` sizes every
    /// round's fabric to roughly `n` switches.
    pub nodes: Option<usize>,
    /// Where to write the minimized failing scenario on a violation.
    pub out: Option<String>,
    /// Optional metrics output path (Prometheus text, plus `.json`).
    pub metrics: Option<String>,
    /// Optional flight-recorder directory: each round becomes one
    /// tick of a windowed series, and the first parity violation dumps
    /// a black box there (clean storms write nothing).
    pub flight: Option<String>,
}

impl Default for StormArgs {
    fn default() -> StormArgs {
        StormArgs {
            seed: 1,
            rounds: 1000,
            profile: None,
            topology: None,
            nodes: None,
            out: None,
            metrics: None,
            flight: None,
        }
    }
}

/// A deliberate fault injected into the comparison layer — the test
/// double proving the harness actually catches parity bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tamper {
    /// Honest comparison.
    None,
    /// Pretend the engine returned the opposite verdict for every
    /// plain unicast connect.
    FlipVerdicts,
}

/// Every Nth round, the embedded chaos session (when the scenario has
/// one) is re-run through a kill/snapshot-restore cycle.
const RESUME_CHECK_EVERY: u64 = 5;

/// Counters of one storm run, folded into the exit report.
#[derive(Default)]
struct StormTotals {
    directives: u64,
    connects: u64,
    releases: u64,
    faults: u64,
    degrades: u64,
    chaos: u64,
    resume_checks: u64,
    crankback_divergences: u64,
}

/// `rtcac storm`: seeded differential fuzzing of the serial signaling
/// walk against the concurrent engine (see the module docs).
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown profile/topology names and
/// [`CliError::Domain`] on the first parity violation or audit failure
/// — after writing the minimized failing scenario to `--out`.
pub fn storm(args: &StormArgs) -> Result<String, CliError> {
    storm_with(args, Tamper::None)
}

/// [`storm`] with an injectable comparison-layer fault (tests only).
pub(crate) fn storm_with(args: &StormArgs, tamper: Tamper) -> Result<String, CliError> {
    let topologies: Vec<TopologyKind> = match args.topology.as_deref() {
        None | Some("mixed") => TopologyKind::ALL.to_vec(),
        Some(name) => vec![TopologyKind::parse(name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown topology '{name}' (star-of-rings|fat-tree|wan|mixed)"
            ))
        })?],
    };
    let profiles: Vec<Option<ProfileKind>> = match args.profile.as_deref() {
        None | Some("mixed") => {
            let mut all: Vec<Option<ProfileKind>> = vec![None];
            all.extend(ProfileKind::ALL.into_iter().map(Some));
            all
        }
        Some("none") => vec![None],
        Some(name) => vec![Some(ProfileKind::parse(name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown profile '{name}' (flap|brownout|degrade-heal|regional|none|mixed)"
            ))
        })?)],
    };

    let registry = Arc::new(rtcac_obs::Registry::new());
    let rounds_total = registry.counter("storm_rounds_total");
    let violations_total = registry.counter("storm_parity_violations_total");
    let round_ns = registry.histogram("storm_round_ns");

    // With --flight, every round becomes one tick of a windowed series
    // feeding an armed flight recorder: the first parity violation (or
    // a tick-level anomaly like an orphan edge) dumps a black box of
    // the recent rounds; clean storms write nothing at all.
    let flight = args.flight.as_ref().map(|dir| {
        rtcac_obs::FlightRecorder::new(
            Arc::clone(&registry),
            rtcac_obs::FlightConfig {
                dir: std::path::PathBuf::from(dir),
                ..rtcac_obs::FlightConfig::default()
            },
        )
    });
    let mut flight_series = rtcac_obs::TimeSeries::default();
    if flight.is_some() {
        flight_series.observe(&registry.snapshot(), 0);
    }

    let mut master = SimRng::seed_from_u64(args.seed);
    let mut totals = StormTotals::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "storm: seed={} rounds={}{} topologies={} profiles={}",
        args.seed,
        args.rounds,
        args.nodes
            .map_or_else(String::new, |n| format!(" nodes={n}")),
        topologies
            .iter()
            .map(|t| t.name())
            .collect::<Vec<_>>()
            .join(","),
        profiles
            .iter()
            .map(|p| p.map_or("none", ProfileKind::name))
            .collect::<Vec<_>>()
            .join(","),
    );

    for round in 0..args.rounds {
        let round_seed = master.next_u64();
        let config = FuzzConfig {
            topology: topologies[(round as usize) % topologies.len()],
            profile: profiles[(round as usize) % profiles.len()],
            nodes: args.nodes,
            ..FuzzConfig::default()
        };
        let check_resume = round % RESUME_CHECK_EVERY == 0;
        let round_started = std::time::Instant::now();
        let scenario = generate(round_seed, &config).map_err(CliError::domain)?;
        let violations = run_differential(&scenario, &registry, tamper, check_resume, &mut totals)?;
        round_ns.record(round_started.elapsed().as_nanos() as u64);
        rounds_total.inc();
        if let Some(recorder) = &flight {
            let elapsed_ms = (round_started.elapsed().as_millis() as u64).max(1);
            let tick = flight_series.observe(&registry.snapshot(), elapsed_ms);
            recorder.observe_tick(tick);
        }
        if !violations.is_empty() {
            violations_total.add(violations.len() as u64);
            if let Some(recorder) = &flight {
                if let Some(path) = recorder.trigger("parity", violations[0].clone()) {
                    let _ = writeln!(out, "flight: black box written to {}", path.display());
                }
            }
            let minimized = minimize(&scenario, &registry, tamper);
            let _ = writeln!(
                out,
                "round {round} (seed {round_seed}, topology {}, profile {}): \
                 {} parity violation(s)",
                config.topology.name(),
                config.profile.map_or("none", ProfileKind::name),
                violations.len()
            );
            for v in &violations {
                let _ = writeln!(out, "  - {v}");
            }
            if let Some(path) = &args.out {
                write_metrics_file(path, &minimized.emit())?;
                let _ = writeln!(
                    out,
                    "minimized failing scenario ({} of {} directive(s)) written to {path}",
                    minimized.directives.len(),
                    scenario.directives.len()
                );
            }
            if let Some(path) = &args.metrics {
                export_metrics(&registry, path, &mut out)?;
            }
            return Err(CliError::Domain(format!(
                "storm round {round} (seed {round_seed}) violated parity:\n{out}"
            )));
        }
    }

    let _ = writeln!(
        out,
        "rounds: {} clean ({} directives, {} connects, {} releases, {} faults, \
         {} degrades, {} chaos, {} resume checks, {} tolerated crankback divergences)",
        args.rounds,
        totals.directives,
        totals.connects,
        totals.releases,
        totals.faults,
        totals.degrades,
        totals.chaos,
        totals.resume_checks,
        totals.crankback_divergences,
    );

    // The lock-hold watchdog must have stayed quiet across every
    // engine the storm built: a long hold under this workload means a
    // shard lock was held across something unbounded.
    let long_holds = registry.counter("engine_lock_hold_long_total").get();
    if long_holds != 0 {
        return Err(CliError::Domain(format!(
            "lock-hold watchdog fired {long_holds} time(s) during the storm"
        )));
    }
    let _ = writeln!(out, "lock-hold watchdog: quiet");
    if let Some(recorder) = &flight {
        let _ = writeln!(
            out,
            "flight recorder: {} dump(s) written",
            recorder.dumps_written()
        );
    }
    if let Some(path) = &args.metrics {
        export_metrics(&registry, path, &mut out)?;
    }
    let _ = writeln!(out, "storm: OK");
    Ok(out)
}

/// Replays one generated scenario through both drivers and returns
/// every parity violation found (empty = clean round).
fn run_differential(
    storm: &StormScenario,
    registry: &Arc<rtcac_obs::Registry>,
    tamper: Tamper,
    check_resume: bool,
    totals: &mut StormTotals,
) -> Result<Vec<String>, CliError> {
    let text = storm.emit();
    let scenario = match Scenario::parse(&text) {
        Ok(s) => s,
        // The fuzzer promises valid files; a parse error IS a finding.
        Err(e) => return Ok(vec![format!("generated scenario failed to parse: {e}")]),
    };

    let mut serial = Replay::with_explicit_ids(&scenario, build_network(&scenario)?);
    let engine = Arc::new(build_engine(&scenario, Some(registry))?);
    let mut engine = Replay::with_explicit_ids(&scenario, EngineDriver::lockstep(engine));

    let mut violations = Vec::new();
    // Once a tolerated crankback divergence splits the two sides'
    // admitted sets, later decisions may legitimately differ — the
    // rest of the round checks invariants only.
    let mut strict = true;

    for action in &scenario.actions {
        totals.directives += 1;
        // A chaos session runs on engines of its own — once, not once
        // per driver — and on sampled rounds again through a
        // kill/restore cycle.
        if let ScenarioAction::Chaos { seed, steps, rate } = *action {
            totals.chaos += 1;
            if check_resume {
                totals.resume_checks += 1;
            }
            if let Some(v) = run_chaos_directive(&scenario, seed, steps, rate, check_resume)? {
                violations.push(v);
            }
            continue;
        }
        let serial_step = serial.step(action)?;
        let engine_step = engine.step(action)?;
        let mut engine_connected = matches!(engine_step, Step::Connected { .. });
        let verdict_split =
            |engine_connected| matches!(serial_step, Step::Connected { .. }) != engine_connected;
        let mut ledgers = None;
        let mut plain_connect = false;
        match serial_step {
            Step::Connected { index, .. } | Step::Rejected { index, .. } => {
                totals.connects += 1;
                let spec = &scenario.connections[index];
                if spec.crankback.is_some() {
                    // The two search strategies may legitimately pick
                    // different alternates, so only the verdicts are
                    // compared, and a divergence is tolerated. Even
                    // when both sides establish they may have committed
                    // *different* routes, silently splitting the
                    // admission state — so any crankback connect ends
                    // strict checking.
                    if verdict_split(engine_connected) {
                        totals.crankback_divergences += 1;
                    }
                    strict = false;
                    continue;
                }
                plain_connect = true;
                if let RouteKind::Unicast(_) = spec.route {
                    // The tamper pretends the engine said the opposite.
                    engine_connected ^= tamper == Tamper::FlipVerdicts;
                    // Only a strict round compares (and so clones) them.
                    ledgers = strict.then(|| {
                        let serial = serial.driver.admission_report();
                        (serial, engine.driver.admission_report())
                    });
                }
            }
            Step::Released { .. } => totals.releases += 1,
            Step::Failed { .. } | Step::Healed { .. } => totals.faults += 1,
            Step::Degraded { .. } => totals.degrades += 1,
            Step::Chaos { .. } => unreachable!("chaos directives never reach a replay here"),
        }
        if !strict {
            continue;
        }
        if verdict_split(engine_connected) || serial_step != engine_step {
            let what = if verdict_split(engine_connected) {
                "verdict"
            } else {
                "step"
            };
            violations.push(format!(
                "{}: {what} diverged (serial {serial_step:?}, engine {engine_step:?})",
                scenario.directive_label(action)
            ));
        } else if let Some((serial_ledger, engine_ledger)) = ledgers.filter(|(s, e)| s != e) {
            let render = |r: &Option<AdmissionReport>| {
                r.as_ref()
                    .map_or_else(|| "<no ledger>".into(), AdmissionReport::render)
            };
            violations.push(format!(
                "{}: admission ledgers diverged\n--- serial ---\n{}\
                 --- engine ---\n{}",
                scenario.directive_label(action),
                render(&serial_ledger),
                render(&engine_ledger)
            ));
        }
        // The first divergence at a connect splits the two sides'
        // state; everything after it is downstream noise.
        if plain_connect && !violations.is_empty() {
            strict = false;
        }
    }

    // End-of-round safety audits, both sides.
    audit("serial", &serial.driver, &mut violations)?;
    audit("engine", &engine.driver, &mut violations)?;
    Ok(violations)
}

/// Runs one side's orphaned-reservation and guarantee audits.
fn audit<D: Driver>(side: &str, driver: &D, violations: &mut Vec<String>) -> Result<(), CliError> {
    let (orphans, broken) = driver.audit()?;
    if orphans != 0 {
        violations.push(format!("{side} audit: {orphans} orphaned reservation(s)"));
    }
    if !broken.is_empty() {
        violations.push(format!(
            "{side} audit: {} violated guarantee(s)",
            broken.len()
        ));
    }
    Ok(())
}

/// Runs an embedded `chaos` directive on its [`ChaosSession`]'s fresh
/// engine. The run always uses resumable
/// [`ChaosState`] segments; with `check_resume` it is additionally
/// killed at the halfway point, snapshot-restored, and finished on the
/// restored engine — and must be decision-identical to the
/// uninterrupted run.
fn run_chaos_directive(
    scenario: &Scenario,
    seed: u64,
    steps: u64,
    rate: u64,
    check_resume: bool,
) -> Result<Option<String>, CliError> {
    let ChaosSession {
        engine: control,
        endpoints,
        plan,
    } = ChaosSession::new(scenario, seed, steps, rate, None)?;
    let mut control_state = ChaosState::new(seed);
    run_chaos_segment(&control, &endpoints, &plan, &mut control_state, steps)
        .map_err(CliError::domain)?;
    let control_report = finish_report(&control, &control_state).map_err(CliError::domain)?;
    if !control_report.invariants_hold() {
        return Ok(Some(format!(
            "chaos seed={seed} violated its invariants:\n{}",
            control_report.summary()
        )));
    }
    if !check_resume {
        return Ok(None);
    }

    // Kill at the halfway point, snapshot, restore, finish.
    let victim = build_engine(scenario, None)?;
    let mut state = ChaosState::new(seed);
    let cut = (steps / 2).max(1);
    run_chaos_segment(&victim, &endpoints, &plan, &mut state, cut).map_err(CliError::domain)?;
    let bytes = encode(&snapshot_engine(&victim, "storm-resume-check"));
    drop(victim);
    let doc = decode(&bytes).map_err(CliError::domain)?;
    let restored = restore_engine(&doc).map_err(CliError::domain)?;
    run_chaos_segment(&restored, &endpoints, &plan, &mut state, steps - cut)
        .map_err(CliError::domain)?;
    let report = finish_report(&restored, &state).map_err(CliError::domain)?;
    if control_state.decisions() != state.decisions() {
        return Ok(Some(format!(
            "chaos seed={seed}: decisions after kill/snapshot-restore diverged \
             from the uninterrupted run"
        )));
    }
    if control_report != report {
        return Ok(Some(format!(
            "chaos seed={seed}: final report after kill/snapshot-restore diverged \
             from the uninterrupted run"
        )));
    }
    Ok(None)
}

/// Greedy delta-debugging over the directive list: repeatedly drop
/// chunks (halving down to singles) while the subset still fails, then
/// return the smallest failing scenario found. `retain` drops dangling
/// releases, so every candidate still parses.
fn minimize(
    storm: &StormScenario,
    registry: &Arc<rtcac_obs::Registry>,
    tamper: Tamper,
) -> StormScenario {
    let fails = |candidate: &StormScenario| -> bool {
        let mut scratch = StormTotals::default();
        run_differential(candidate, registry, tamper, false, &mut scratch)
            .map(|v| !v.is_empty())
            .unwrap_or(true)
    };
    let n = storm.directives.len();
    if n == 0 {
        return storm.clone();
    }
    let mut keep = vec![true; n];
    let mut chunk = (n / 2).max(1);
    loop {
        let mut progress = false;
        let active: Vec<usize> = (0..n).filter(|&i| keep[i]).collect();
        for window in active.chunks(chunk) {
            for &i in window {
                keep[i] = false;
            }
            if fails(&storm.retain(&keep)) {
                progress = true;
            } else {
                for &i in window {
                    keep[i] = true;
                }
            }
        }
        if chunk == 1 {
            if !progress {
                break;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }
    storm.retain(&keep)
}

/// The canonical directive signatures of a *parsed* scenario — the CLI
/// half of the emitter round-trip: a [`StormScenario`] emitted to text
/// and re-parsed must produce exactly
/// [`StormScenario::signature`].
pub fn scenario_signature(scenario: &Scenario) -> Vec<String> {
    scenario
        .actions
        .iter()
        .map(|action| match *action {
            ScenarioAction::Connect(i) => {
                let spec = &scenario.connections[i];
                let (kind, links): (&str, Vec<String>) = match &spec.route {
                    RouteKind::Unicast(route) => (
                        "unicast",
                        route
                            .links()
                            .iter()
                            .map(|&l| scenario.link_name(l).unwrap_or("?").to_owned())
                            .collect(),
                    ),
                    RouteKind::Multicast(tree) => (
                        "tree",
                        tree.links()
                            .iter()
                            .map(|&l| scenario.link_name(l).unwrap_or("?").to_owned())
                            .collect(),
                    ),
                };
                let contract = match spec.request.contract() {
                    TrafficContract::Cbr(p) => format!("cbr:{}", p.pcr()),
                    TrafficContract::Vbr(p) => {
                        format!("vbr:{},{},{}", p.pcr(), p.scr(), p.mbs())
                    }
                };
                let crankback = spec.crankback.map_or_else(|| "-".into(), |b| b.to_string());
                format!(
                    "connect {} {kind} links={} contract={contract} priority={} \
                     delay={} crankback={crankback}",
                    spec.name,
                    links.join(","),
                    spec.request.priority().level(),
                    spec.request.delay_bound(),
                )
            }
            ref directive => scenario.directive_label(directive),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args() -> StormArgs {
        StormArgs {
            seed: 0xBEEF,
            rounds: 6,
            ..StormArgs::default()
        }
    }

    #[test]
    fn small_storm_is_clean() {
        let report = storm(&tiny_args()).expect("clean storm");
        assert!(report.contains("storm: OK"), "{report}");
        assert!(report.contains("lock-hold watchdog: quiet"), "{report}");
    }

    /// The lifted-caps satellite: one full differential round over a
    /// ~thousand-switch sparse WAN — topology generation, both
    /// drivers, parity and audits all at memory scale.
    #[test]
    fn thousand_switch_round_is_clean() {
        let args = StormArgs {
            seed: 0x1000,
            rounds: 1,
            topology: Some("wan".into()),
            profile: Some("none".into()),
            nodes: Some(1000),
            ..StormArgs::default()
        };
        let report = storm(&args).expect("clean thousand-switch round");
        assert!(report.contains("nodes=1000"), "{report}");
        assert!(report.contains("storm: OK"), "{report}");
    }

    #[test]
    fn storm_is_deterministic() {
        let a = storm(&tiny_args()).expect("first run");
        let b = storm(&tiny_args()).expect("second run");
        assert_eq!(a, b);
    }

    /// The injected-parity-bug proof: a comparison layer that flips
    /// the engine's verdict on every plain connect must be caught on
    /// the very first round and minimized down to (nearly) a single
    /// connect directive.
    #[test]
    fn tampered_comparison_is_caught_and_minimized() {
        let dir = std::env::temp_dir().join(format!("rtcac-storm-{}", std::process::id()));
        let out = dir.join("minimized.rtcac");
        let args = StormArgs {
            seed: 7,
            rounds: 3,
            out: Some(out.display().to_string()),
            ..StormArgs::default()
        };
        let err = storm_with(&args, Tamper::FlipVerdicts).expect_err("tamper must be caught");
        let message = err.to_string();
        assert!(
            message.contains("verdict diverged"),
            "tamper not reported: {message}"
        );
        let minimized = std::fs::read_to_string(&out).expect("minimized scenario written");
        // The minimized scenario must still parse and still fail —
        // and a verdict flip needs exactly one plain connect.
        let parsed = Scenario::parse(&minimized).expect("minimized scenario parses");
        let connects = parsed
            .actions
            .iter()
            .filter(|a| matches!(a, ScenarioAction::Connect(_)))
            .count();
        assert_eq!(
            connects, 1,
            "minimizer should reduce a flip-every-verdict bug to one connect:\n{minimized}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The storm half of the flight-recorder proof: a tampered run
    /// produces exactly ONE black box whose timeline carries the
    /// trigger tick, and `rtcac flight inspect` renders it.
    #[test]
    fn tampered_storm_dumps_exactly_one_black_box() {
        let dir = std::env::temp_dir().join(format!("rtcac-storm-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = StormArgs {
            seed: 7,
            rounds: 3,
            flight: Some(dir.display().to_string()),
            ..StormArgs::default()
        };
        storm_with(&args, Tamper::FlipVerdicts).expect_err("tamper must be caught");
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("flight dir exists")
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files.len(), 1, "exactly one black box: {files:?}");
        let dump = rtcac_obs::FlightDump::decode(&std::fs::read(&files[0]).unwrap())
            .expect("dump decodes");
        assert_eq!(dump.reason, "parity");
        assert!(dump.detail.contains("verdict diverged"), "{}", dump.detail);
        // The violating round's tick is both retained and marked.
        assert!(
            dump.ticks.iter().any(|t| t.tick == dump.trigger_tick),
            "trigger tick {} missing from the retained window",
            dump.trigger_tick
        );
        let timeline = dump.render_timeline();
        assert!(timeline.contains("<< trigger"), "{timeline}");
        let rendered = crate::commands::flight_inspect(&files[0].display().to_string())
            .expect("inspect renders the dump");
        assert!(rendered.contains("reason=parity"), "{rendered}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The clean half of the proof: a 200-round clean storm with the
    /// recorder armed writes ZERO dumps.
    #[test]
    fn clean_200_round_storm_writes_no_dumps() {
        let dir = std::env::temp_dir().join(format!("rtcac-storm-clean-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = StormArgs {
            seed: 0xC1EA4,
            rounds: 200,
            flight: Some(dir.display().to_string()),
            ..StormArgs::default()
        };
        let report = storm(&args).expect("clean storm");
        assert!(
            report.contains("flight recorder: 0 dump(s) written"),
            "{report}"
        );
        assert!(
            !dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none(),
            "no dump files on disk"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: the emitter round-trip. 500 seeded scenarios are
    /// emitted, re-parsed, and must describe structurally identical
    /// directive lists — canonical signature for canonical signature.
    #[test]
    fn emitter_round_trip_500_seeds() {
        let mut rng = SimRng::seed_from_u64(0x500);
        for case in 0..500u64 {
            let config = FuzzConfig {
                topology: TopologyKind::ALL[(case as usize) % TopologyKind::ALL.len()],
                profile: match case % 5 {
                    0 => None,
                    k => Some(ProfileKind::ALL[(k - 1) as usize]),
                },
                ..FuzzConfig::default()
            };
            let seed = rng.next_u64();
            let storm = generate(seed, &config).expect("generate");
            let text = storm.emit();
            let parsed = Scenario::parse(&text).unwrap_or_else(|e| {
                panic!("case {case} (seed {seed}) failed to re-parse: {e}\n{text}")
            });
            assert_eq!(
                storm.signature(),
                scenario_signature(&parsed),
                "case {case} (seed {seed}) round-trip diverged\n{text}"
            );
        }
    }
}
