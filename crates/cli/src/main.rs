//! The `rtcac` command-line binary: argument parsing and dispatch.
//! All real work lives in [`rtcac_cli::commands`].

use std::process::ExitCode;
use std::time::Duration;

use rtcac_cli::commands::{self, BoundArgs, RtnetArgs};
use rtcac_cli::scenario::Scenario;
use rtcac_cli::CliError;
use rtcac_rational::Ratio;

/// Count every allocation into the process heap gauge, so `rtcac
/// serve`'s `/metrics` endpoint exports a live `alloc_live_bytes`
/// alongside `engine_resident_bytes`.
#[global_allocator]
static ALLOC: rtcac_bench::memory::CountingAlloc = rtcac_bench::memory::CountingAlloc;

const USAGE: &str = "\
rtcac — hard real-time ATM connection admission control toolkit

USAGE:
  rtcac bound --pcr RATE [--scr RATE --mbs N] [--cdv CELLS] [--count N]
              [--interference RATE]
      Worst-case queueing delay of N identical connections at one port.

  rtcac check SCENARIO_FILE [--engine] [--metrics PATH]
      Replay the scenario in file order through the distributed SETUP
      procedure: connects (with optional crankback=N rerouting),
      fail-link/heal-link/fail-node/heal-node directives, and embedded
      'chaos' sessions (exiting nonzero if one breaks a safety
      invariant); report outcomes and final port bounds. With
      --engine the same replay runs through the concurrent sharded
      engine instead (unicast and multicast setups alike), ending with
      an orphaned-reservation audit; --metrics then writes the
      observability snapshot to PATH (Prometheus) and PATH.json.

  rtcac trace SCENARIO_FILE [--engine] [--out PATH]
      Replay the scenario with an always-sampling tracer and print the
      causal span tree of every setup — crankback attempts,
      price/reserve/commit phases, per-hop admission events, and
      reject-provenance events. With --engine the replay runs through
      the concurrent sharded engine; with --out, the spans are also
      written as Chrome trace_event JSON (chrome://tracing, Perfetto).

  rtcac why SCENARIO_FILE CONNECTION_NAME
      Replay the scenario serially and print the decision provenance of
      one named connection: the per-hop ledger of computed Algorithm
      4.1 bound vs deadline with CDV in/out, the refusing hop marked.

  rtcac storm [--seed N] [--rounds N] [--topology KIND] [--profile KIND]
              [--nodes N] [--out PATH] [--metrics PATH] [--flight DIR]
      Differential scenario fuzzer: each round generates a seeded
      random valid scenario (topologies: star-of-rings, fat-tree, wan,
      or 'mixed'; impairment profiles: flap, brownout, degrade-heal,
      regional, 'none', or 'mixed'; --nodes sizes every round's fabric
      to roughly N switches instead of the default small draws) and
      replays it through both the
      serial SETUP procedure and the concurrent sharded engine,
      asserting verdict, guaranteed-delay, and admission-ledger parity,
      plus orphan/guarantee audits after every round and periodic
      kill/snapshot-restore checks of embedded chaos sessions. Exits
      nonzero on the first violation, writing the minimized failing
      scenario to --out. With --flight, each round becomes one tick of
      a windowed series feeding an armed flight recorder: the first
      violation dumps ONE black box of the recent rounds into DIR
      ('rtcac flight inspect' reads it); clean storms write nothing.

  rtcac serve [--addr HOST:PORT] [--metrics-addr HOST:PORT] [--nodes N]
              [--terminals N] [--bound CELLS] [--workers N]
              [--snapshot-free] [--snapshot PATH] [--snapshot-every SECS]
              [--flight-dir DIR] [--watchdog-ns NS]
      Run the resident admission service on a star-ring: a TCP server
      speaking the length-prefixed SETUP / SETUP-MCAST / RELEASE /
      QUERY / DRAIN / STATS protocol onto the concurrent engine. Each
      session prices its own setups; --workers bounds how many are
      priced at once. Sessions own the connections they admit; a
      dead client's reservations are released on cleanup. With
      --metrics-addr, a trivial HTTP endpoint serves /metrics
      (Prometheus), /metrics.json, and /healthz. --snapshot-free runs
      with no-op observability handles. With --snapshot, the server
      restores its admission state from PATH on boot (answering the
      typed SNAPSHOT-RESTORING error until the restore audit passes)
      and saves it atomically on DRAIN — plus every SECS seconds with
      --snapshot-every. With --flight-dir, a sampler thread keeps a
      windowed time-series and an always-on flight recorder arms:
      anomalies (orphans, guarantee-audit failures, watchdogged lock
      holds, resident-bytes jumps, panics) each dump ONE bounded black
      box into DIR; the DUMP wire op ('rtcac flight dump') forces more.
      --watchdog-ns sets the shard lock-hold watchdog threshold (0
      trips on every setup — a CI lever). Blocks until a client sends
      DRAIN, then exits nonzero unless the final audit is clean (no
      orphaned reservations, no violated guarantees, no refused
      restore).

  rtcac snapshot save SCENARIO_FILE OUT
  rtcac snapshot restore FILE
  rtcac snapshot inspect FILE
  rtcac snapshot diff FILE_A FILE_B
      Work with versioned engine snapshots ('rtcac serve --snapshot'
      state files). 'save' admits the scenario in file order through
      the concurrent engine and writes its state atomically; 'restore'
      rebuilds a full engine from FILE and re-runs the guarantee and
      orphan audits (a failing file is refused, never half-loaded);
      'inspect' prints the header, section table and state summary;
      'diff' compares two snapshots field by field.

  rtcac load [--addr HOST:PORT] [--threads N] [--ops N] [--seed N]
             [--smoke] [--drain] [--soak MINS [--metrics-addr HOST:PORT]]
      Traffic source for a running 'rtcac serve': pipelined
      setup+release churn over randomized star-ring routes, reporting
      how many setups were sent, admitted and rejected. --smoke is
      shorthand for a small CI-sized run; --drain sends DRAIN
      afterwards. --soak MINS repeats --ops-sized batches until the
      deadline while scraping the server's metrics endpoint the way
      'rtcac top' does, printing one live status line per sample (setup
      and reject rates, sliding reserve p99, resident bytes) — the
      churn memory-stability probe. It measures no latency or
      throughput: perf figures come from the reference benchmark
      (benchmark/run.sh).

  rtcac top [--addr HOST:PORT] [--interval MS] [--samples N] [--no-tui]
      Live terminal view of a running 'rtcac serve': scrapes /metrics
      on an interval into a windowed time-series and shows per-second
      admission/reject/reroute rates, sliding-window reserve and
      lock-wait quantiles, resident bytes, active sessions, and
      snapshot age. Default is a redrawn full-screen dashboard;
      --no-tui prints one line per sample (for CI logs), --samples N
      exits after N scrapes.

  rtcac flight inspect FILE
  rtcac flight export FILE [--out PATH]
  rtcac flight dump --addr HOST:PORT
      Work with flight-recorder black boxes ('rtcac serve
      --flight-dir' dumps). 'inspect' verifies the checksums and
      renders the header plus the per-tick anomaly timeline (a
      tampered file is refused, never half-rendered); 'export'
      converts the captured spans to Chrome trace_event JSON
      (chrome://tracing, Perfetto); 'dump' asks a live server to write
      a black box now, bypassing the once-per-reason latch.

  rtcac stats --addr HOST:PORT [--json]
      Print a live 'rtcac serve' exposition endpoint's bare metrics
      snapshot to stdout — Prometheus text by default, JSON with
      --json. A scenario's snapshot is 'rtcac check FILE --engine
      --metrics PATH'.

  rtcac simulate SCENARIO_FILE [--slots N] [--jitter CELLS] [--seed N]
      Admit the scenario, then measure it in the cell-level simulator.

  rtcac rtnet --nodes N --terminals N --load RATE [--share P] [--soft]
      RTnet ring analysis: port bounds, end-to-end bound, admissibility.

Every command refuses a --flag it does not list above, and a flag's
value may not itself start with '--'.

Rates and loads are exact rationals ('1/8', '0.35'); times are in ATM
cell times (~2.7 us at 155 Mbps; 370 cells ~= 1 ms).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            // Only command-line mistakes earn the usage dump; data and
            // domain failures (unreadable dump file, corrupt snapshot,
            // dirty shutdown audit) stay a one-line error.
            if matches!(e, CliError::Usage(_)) {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("bound") => {
            let rest = flags(
                "bound",
                it,
                "--pcr --scr --mbs --cdv --count --interference",
            )?;
            let pcr = flag_ratio(&rest, "--pcr")?
                .ok_or_else(|| CliError::Usage("--pcr is required".into()))?;
            let scr = flag_ratio(&rest, "--scr")?;
            let mbs = flag_u64(&rest, "--mbs")?.unwrap_or(1);
            let cdv = flag_ratio(&rest, "--cdv")?.unwrap_or(Ratio::ZERO);
            let count = flag_u64(&rest, "--count")?.unwrap_or(1) as u32;
            let interference = flag_ratio(&rest, "--interference")?;
            commands::bound(&BoundArgs {
                pcr,
                scr,
                mbs,
                cdv,
                count,
                interference,
            })
        }
        Some("check") => {
            let path = it
                .next()
                .ok_or_else(|| CliError::Usage("check needs a scenario file".into()))?;
            let rest = flags("check", it, "--engine --metrics")?;
            let engine_mode = rest.iter().any(|a| a.as_str() == "--engine");
            let metrics = flag_value(&rest, "--metrics")?;
            let scenario = load(path)?;
            if engine_mode {
                commands::check_engine(&scenario, metrics)
            } else {
                if metrics.is_some() {
                    return Err(CliError::Usage(
                        "check --metrics requires --engine (the serial replay has no registry)"
                            .into(),
                    ));
                }
                commands::check(&scenario)
            }
        }
        Some("storm") => {
            let rest = flags(
                "storm",
                it,
                "--seed --rounds --profile --topology --nodes --out --metrics --flight",
            )?;
            rtcac_cli::storm::storm(&rtcac_cli::storm::StormArgs {
                seed: flag_u64(&rest, "--seed")?.unwrap_or(1),
                rounds: flag_u64(&rest, "--rounds")?.unwrap_or(1000),
                profile: flag_value(&rest, "--profile")?.map(str::to_owned),
                topology: flag_value(&rest, "--topology")?.map(str::to_owned),
                nodes: flag_u64(&rest, "--nodes")?
                    .map(|n| {
                        if n == 0 {
                            Err(CliError::Usage("--nodes needs a positive count".into()))
                        } else {
                            Ok(n as usize)
                        }
                    })
                    .transpose()?,
                out: flag_value(&rest, "--out")?.map(str::to_owned),
                metrics: flag_value(&rest, "--metrics")?.map(str::to_owned),
                flight: flag_value(&rest, "--flight")?.map(str::to_owned),
            })
        }
        Some("trace") => {
            let path = it
                .next()
                .ok_or_else(|| CliError::Usage("trace needs a scenario file".into()))?;
            let rest = flags("trace", it, "--engine --out")?;
            let engine_mode = rest.iter().any(|a| a.as_str() == "--engine");
            let out = flag_value(&rest, "--out")?;
            let scenario = load(path)?;
            commands::trace(&scenario, engine_mode, out)
        }
        Some("why") => {
            let path = it
                .next()
                .ok_or_else(|| CliError::Usage("why needs a scenario file".into()))?;
            let name = it
                .next()
                .ok_or_else(|| CliError::Usage("why needs a connection name".into()))?;
            flags("why", it, "")?;
            let scenario = load(path)?;
            commands::why(&scenario, name)
        }
        Some("stats") => {
            let rest = flags("stats", it, "--json --addr")?;
            let json = rest.iter().any(|a| a.as_str() == "--json");
            let addr = flag_value(&rest, "--addr")?.ok_or_else(|| {
                CliError::Usage(
                    "stats needs --addr HOST:PORT (a scenario's metrics: \
                     'rtcac check FILE --engine --metrics PATH')"
                        .into(),
                )
            })?;
            commands::stats_remote(addr, json)
        }
        Some("serve") => {
            let rest = flags(
                "serve",
                it,
                "--addr --metrics-addr --nodes --terminals --bound --workers \
                 --snapshot-free --snapshot --snapshot-every --flight-dir --watchdog-ns",
            )?;
            commands::serve(&commands::ServeArgs {
                addr: flag_value(&rest, "--addr")?
                    .unwrap_or("127.0.0.1:7047")
                    .to_owned(),
                metrics_addr: flag_value(&rest, "--metrics-addr")?.map(str::to_owned),
                nodes: flag_u64(&rest, "--nodes")?.unwrap_or(16) as usize,
                terminals: flag_u64(&rest, "--terminals")?.unwrap_or(4) as usize,
                bound: flag_u64(&rest, "--bound")?.unwrap_or(64),
                workers: flag_u64(&rest, "--workers")?.unwrap_or(4) as usize,
                snapshot_free: rest.iter().any(|a| a.as_str() == "--snapshot-free"),
                snapshot: flag_value(&rest, "--snapshot")?.map(str::to_owned),
                snapshot_every: flag_u64(&rest, "--snapshot-every")?,
                flight_dir: flag_value(&rest, "--flight-dir")?.map(str::to_owned),
                watchdog_ns: flag_u64(&rest, "--watchdog-ns")?,
            })
        }
        Some("snapshot") => {
            let action = it
                .next()
                .ok_or_else(|| {
                    CliError::Usage("snapshot needs an action: save|restore|inspect|diff".into())
                })?
                .as_str();
            let rest = flags(&format!("snapshot {action}"), it, "")?;
            let positional = |n: usize, what: &str| -> Result<&str, CliError> {
                rest.get(n)
                    .map(|s| s.as_str())
                    .ok_or_else(|| CliError::Usage(format!("snapshot {action} needs {what}")))
            };
            match action {
                "save" => {
                    let scenario = load(positional(0, "a scenario file")?)?;
                    let out = positional(1, "an output path")?;
                    commands::snapshot_save(&scenario, out)
                }
                "restore" => commands::snapshot_restore(positional(0, "a snapshot file")?),
                "inspect" => commands::snapshot_inspect(positional(0, "a snapshot file")?),
                "diff" => commands::snapshot_diff(
                    positional(0, "two snapshot files")?,
                    positional(1, "two snapshot files")?,
                ),
                other => Err(CliError::Usage(format!(
                    "unknown snapshot action '{other}' (save|restore|inspect|diff)"
                ))),
            }
        }
        Some("load") => {
            let rest = flags(
                "load",
                it,
                "--addr --threads --ops --seed --smoke --drain --soak --metrics-addr",
            )?;
            let smoke = rest.iter().any(|a| a.as_str() == "--smoke");
            let config = rtcac_serve::LoadConfig {
                addr: flag_value(&rest, "--addr")?
                    .unwrap_or("127.0.0.1:7047")
                    .to_owned(),
                threads: flag_u64(&rest, "--threads")?.unwrap_or(if smoke { 2 } else { 4 })
                    as usize,
                ops: flag_u64(&rest, "--ops")?.unwrap_or(if smoke { 20_000 } else { 1_000_000 }),
                seed: flag_u64(&rest, "--seed")?.unwrap_or(7),
            };
            let soak = flag_value(&rest, "--soak")?
                .map(|v| {
                    v.parse::<f64>()
                        .ok()
                        .filter(|m| *m > 0.0)
                        .and_then(|m| Duration::try_from_secs_f64(m * 60.0).ok())
                        .ok_or_else(|| {
                            CliError::Usage(format!(
                                "--soak needs a positive number of minutes, got '{v}'"
                            ))
                        })
                })
                .transpose()?;
            let metrics_addr = flag_value(&rest, "--metrics-addr")?;
            if metrics_addr.is_some() && soak.is_none() {
                return Err(CliError::Usage(
                    "load --metrics-addr names the endpoint a --soak scrapes; it needs --soak"
                        .into(),
                ));
            }
            commands::serve_load(
                &config,
                soak.map(|duration| (duration, metrics_addr.unwrap_or("127.0.0.1:7048"))),
                rest.iter().any(|a| a.as_str() == "--drain"),
            )
        }
        Some("top") => {
            let rest = flags("top", it, "--addr --interval --samples --no-tui")?;
            rtcac_cli::top::top(&rtcac_cli::top::TopArgs {
                addr: flag_value(&rest, "--addr")?
                    .unwrap_or("127.0.0.1:7048")
                    .to_owned(),
                interval_ms: flag_u64(&rest, "--interval")?.unwrap_or(1000),
                samples: flag_u64(&rest, "--samples")?,
                no_tui: rest.iter().any(|a| a.as_str() == "--no-tui"),
            })
        }
        Some("flight") => {
            let action = it
                .next()
                .ok_or_else(|| {
                    CliError::Usage("flight needs an action: inspect|export|dump".into())
                })?
                .as_str();
            let accepted = match action {
                "export" => "--out",
                "dump" => "--addr",
                _ => "",
            };
            let rest = flags(&format!("flight {action}"), it, accepted)?;
            let positional = |n: usize, what: &str| -> Result<&str, CliError> {
                rest.iter()
                    .filter(|a| !a.starts_with("--"))
                    .nth(n)
                    .map(|s| s.as_str())
                    .ok_or_else(|| CliError::Usage(format!("flight {action} needs {what}")))
            };
            match action {
                "inspect" => commands::flight_inspect(positional(0, "a dump file")?),
                "export" => commands::flight_export(
                    positional(0, "a dump file")?,
                    flag_value(&rest, "--out")?,
                ),
                "dump" => {
                    let addr = flag_value(&rest, "--addr")?
                        .ok_or_else(|| CliError::Usage("flight dump needs --addr".into()))?;
                    commands::flight_dump_remote(addr)
                }
                other => Err(CliError::Usage(format!(
                    "unknown flight action '{other}' (inspect|export|dump)"
                ))),
            }
        }
        Some("simulate") => {
            let path = it
                .next()
                .ok_or_else(|| CliError::Usage("simulate needs a scenario file".into()))?;
            let rest = flags("simulate", it, "--slots --jitter --seed")?;
            let slots = flag_u64(&rest, "--slots")?.unwrap_or(100_000);
            let jitter = flag_u64(&rest, "--jitter")?;
            let seed = flag_u64(&rest, "--seed")?.unwrap_or(1);
            let scenario = load(path)?;
            commands::simulate(&scenario, slots, jitter.map(|j| (j, seed)))
        }
        Some("rtnet") => {
            let rest = flags("rtnet", it, "--nodes --terminals --load --share --soft")?;
            let nodes = flag_u64(&rest, "--nodes")?.unwrap_or(16) as usize;
            let terminals = flag_u64(&rest, "--terminals")?.unwrap_or(1) as usize;
            let load = flag_ratio(&rest, "--load")?
                .ok_or_else(|| CliError::Usage("--load is required".into()))?;
            let share = flag_ratio(&rest, "--share")?;
            let soft = rest.iter().any(|a| a.as_str() == "--soft");
            commands::rtnet(&RtnetArgs {
                nodes,
                terminals,
                load,
                share,
                soft,
            })
        }
        Some("--help") | Some("-h") | Some("help") => Ok(USAGE.to_string()),
        Some(other) => Err(CliError::Usage(format!("unknown command '{other}'"))),
        None => Err(CliError::Usage("no command given".into())),
    }
}

fn load(path: &str) -> Result<Scenario, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read '{path}': {e}")))?;
    Scenario::parse(&text)
}

/// Collects a command's remaining arguments, refusing any `--flag` the
/// command does not accept: an ignored flag would exit 0 and leave a
/// script waiting for output that never comes.
fn flags<'a>(
    command: &str,
    args: impl Iterator<Item = &'a String>,
    accepted: &str,
) -> Result<Vec<&'a String>, CliError> {
    let rest: Vec<&String> = args.collect();
    let unknown =
        |a: &&&String| a.starts_with("--") && !accepted.split_whitespace().any(|f| f == a.as_str());
    match rest.iter().find(unknown) {
        Some(flag) => Err(CliError::Usage(format!(
            "{command} takes no {flag} (accepted: {})",
            if accepted.is_empty() {
                "none"
            } else {
                accepted
            }
        ))),
        None => Ok(rest),
    }
}

/// The value after `flag`, if the flag is present. A value cannot
/// itself be a flag: `--metrics --rounds 5` is a missing value, not a
/// file named `--rounds`.
fn flag_value<'a>(args: &'a [&String], flag: &str) -> Result<Option<&'a str>, CliError> {
    match args.iter().position(|a| a.as_str() == flag) {
        Some(i) => args
            .get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .map(|s| Some(s.as_str()))
            .ok_or_else(|| CliError::Usage(format!("{flag} requires a value"))),
        None => Ok(None),
    }
}

fn flag_ratio(args: &[&String], flag: &str) -> Result<Option<Ratio>, CliError> {
    flag_value(args, flag)?
        .map(|v| {
            v.parse::<Ratio>()
                .map_err(|e| CliError::Usage(format!("bad value for {flag}: {e}")))
        })
        .transpose()
}

fn flag_u64(args: &[&String], flag: &str) -> Result<Option<u64>, CliError> {
    flag_value(args, flag)?
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| CliError::Usage(format!("bad value for {flag}: '{v}'")))
        })
        .transpose()
}
