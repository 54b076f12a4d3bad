//! `rtcac-benchmark` — the reference benchmark of the rtcac tree.
//!
//! ```text
//! rtcac-benchmark run [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--out DIR]
//! rtcac-benchmark compare A.json B.json
//! rtcac-benchmark selfcheck [--seed N] [--seconds N] [--out DIR]
//! ```
//!
//! `run` prints every metric by name with its unit, fails on any
//! correctness gate, and ends with the one-line JSON object the
//! driver reads. See `benchmark/README.md`.

mod catalog;
mod compare;
mod cpu;
mod fabric;
mod gen;
mod json;
mod layers;
mod phases;
mod run;
mod sink;
mod span;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Value;
use run::{Options, RunResult};

const USAGE: &str = "usage:
  rtcac-benchmark run [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--out DIR]
  rtcac-benchmark compare A.json B.json
  rtcac-benchmark selfcheck [--seed N] [--seconds N] [--out DIR]
workloads: wire_light wire_loaded wire_saturated engine_hot_switch (default: all four)";

/// Passes `selfcheck` makes per side.
const SELFCHECK_PASSES: usize = 2;

/// Parsed `run`/`selfcheck` arguments.
struct Args {
    workloads: Vec<&'static fabric::Spec>,
    options: Options,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workloads = Vec::new();
    let mut options = Options {
        seed: 1,
        seconds: run::RUN_SECONDS,
        trace: false,
        out: None,
        flip_verdict: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workloads
                    .push(fabric::spec(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                options.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                options.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a whole number".to_string())?;
            }
            "--out" => options.out = Some(PathBuf::from(value("a directory")?)),
            "--flip-verdict" => options.flip_verdict = true,
            "--trace" => {
                // Bare `--trace` turns tracing on; the driver passes 0 or 1.
                options.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if workloads.is_empty() {
        workloads = fabric::SPECS.iter().collect();
    }
    Ok(Args { workloads, options })
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the numbers were taken.
fn environment(options: &Options) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        ("rustc", Value::str(first_line_of("rustc", &["--version"]))),
        (
            "git_commit",
            Value::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::Num(options.seed as f64)),
        ("seconds", Value::Num(options.seconds as f64)),
        ("transport", Value::str("loopback, in-process server")),
        (
            "generator",
            Value::str(format!(
                "one process, {} connections or threads, window {}",
                phases::CLIENTS,
                phases::WINDOW
            )),
        ),
        ("server_workers", Value::Num(fabric::WORKERS as f64)),
    ])
}

/// Runs the workloads one after another.
fn run_set(args: &Args) -> Result<Vec<RunResult>, String> {
    let mut results: Vec<RunResult> = Vec::new();
    for spec in &args.workloads {
        results.push(run::run(spec, &args.options)?);
    }
    // The driver reads the last line of standard output.
    for result in &results {
        println!("{}", result.driver_line());
    }
    Ok(results)
}

/// The result document of a set, and whether every gate held.
fn document(environment: &Value, results: &[RunResult]) -> (Value, bool) {
    let doc = Value::obj([
        ("environment", environment.clone()),
        (
            "workloads",
            Value::Arr(results.iter().map(RunResult::to_json).collect()),
        ),
    ]);
    (doc, results.iter().all(RunResult::correct))
}

fn write_result(dir: &Path, name: &str, doc: &Value) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, doc.write() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn read_result(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn command(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let parsed = parse_args(&args[1..])?;
            let env = environment(&parsed.options);
            println!("environment {}", env.write());
            let (doc, correct) = document(&env, &run_set(&parsed)?);
            if let Some(dir) = &parsed.options.out {
                let name = if parsed.options.trace {
                    "result.trace.json"
                } else {
                    "result.json"
                };
                eprintln!(
                    "result written to {}",
                    write_result(dir, name, &doc)?.display()
                );
            }
            Ok(correct)
        }
        Some("compare") => match &args[1..] {
            [a, b] => {
                let rows = compare::compare(&read_result(a)?, &read_result(b)?)?;
                Ok(compare::report(&rows))
            }
            _ => Err("compare needs two result files".into()),
        },
        Some("selfcheck") => {
            let mut parsed = parse_args(&args[1..])?;
            parsed.options.trace = false;
            let dir = parsed
                .options
                .out
                .clone()
                .unwrap_or_else(|| PathBuf::from("benchmark/out"));
            // The two sides take turns, and each side's passes are
            // pooled: a stretch of bad weather then lands on both sides
            // instead of deciding the comparison.
            let mut sides: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
            for _ in 0..SELFCHECK_PASSES {
                for side in &mut sides {
                    let pass = run_set(&parsed)?;
                    if side.is_empty() {
                        *side = pass;
                    } else {
                        for (pooled, run) in side.iter_mut().zip(pass) {
                            pooled.absorb(run);
                        }
                    }
                }
            }
            let env = environment(&parsed.options);
            let (a, correct_a) = document(&env, &sides[0]);
            let (b, correct_b) = document(&env, &sides[1]);
            write_result(&dir, "selfcheck.a.json", &a)?;
            write_result(&dir, "selfcheck.b.json", &b)?;
            let rows = compare::compare(&a, &b)?;
            Ok(compare::report(&rows) && correct_a && correct_b)
        }
        _ => Err("expected run, compare or selfcheck".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match command(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("rtcac-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse(&[
            "--workload",
            "wire_loaded",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(a.workloads[0].name, "wire_loaded");
        assert_eq!(
            (a.options.seed, a.options.seconds, a.options.trace),
            (42, 20, false)
        );
        assert!(parse(&["--trace", "1"]).unwrap().options.trace);
        assert!(parse(&["--trace"]).unwrap().options.trace);
        assert!(parse(&["--trace", "--seed", "3"]).unwrap().options.trace);
        assert_eq!(parse(&[]).unwrap().workloads.len(), 4);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(command(&["compare".into(), "only-one".into()]).is_err());
        assert!(command(&[]).is_err());
    }
}
