//! Byte-for-byte goldens of every command that replays a scenario —
//! `check`, `check --engine`, `trace`, `trace --engine` and `why` of
//! each connection — over the four shipped walkthroughs in
//! `examples/scenarios/` (`chaos.rtcac`, which holds one chaos session
//! and no connects, is checked by `check_runs_embedded_chaos_directives`
//! and the `failover_scenario` binary test instead).
//!
//! The files under `tests/golden/<scenario>/` were captured from the
//! `rtcac` binary of the commit *before* the replay loops were folded
//! into one (`crates/cli/src/replay.rs`), so "the refactor changed no
//! output" is this test passing. Each golden is the command's stdout,
//! then its stderr if it failed, then an `exit: N` line. The two
//! `trace` goldens hold the replay echo only — every line before the
//! `trace:` summary — because span timings are wall-clock. `trace
//! --engine` replays in file order like `check --engine`, so on every
//! scenario its echo is the terse form of `check --engine`'s. The
//! connect-only `trace_engine` goldens were re-captured when that
//! command stopped handing connects to a worker pool.
//!
//! Known quirks the goldens pin rather than paper over:
//!
//! - `failover.rtcac`: `retry` connects via `spare` serially but is
//!   `REJECTED` through the engine, whose own search only reroutes off
//!   *dead* routes and ignores the scenario's `crankback=` budget.
//! - `why` of a multicast connection prints the ledger of the last
//!   *unicast* setup before it (`plant.rtcac`: `why alarm` shows
//!   `vision`'s hops), or fails when there was none (`multicast.rtcac`:
//!   `feed`, `audio`): the serial walk keeps one ledger and a tree
//!   setup does not touch it.

use std::path::{Path, PathBuf};
use std::process::Command;

use rtcac_cli::scenario::Scenario;

const SCENARIOS: [&str; 4] = ["cell_floor", "failover", "multicast", "plant"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `rtcac ARGS` from the repository root and renders the outcome
/// the way the goldens were captured.
fn run(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_rtcac"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the rtcac binary must run");
    let mut text = String::from_utf8(output.stdout).expect("utf-8 stdout");
    if !output.status.success() {
        text.push_str(&String::from_utf8(output.stderr).expect("utf-8 stderr"));
    }
    text.push_str(&format!("exit: {}\n", output.status.code().unwrap_or(-1)));
    text
}

/// The replay echo of a `trace` run: everything before the summary.
fn echo_only(rendered: &str) -> String {
    let lines = rendered.lines().take_while(|l| !l.starts_with("trace: "));
    lines.map(|l| format!("{l}\n")).collect()
}

fn assert_golden(scenario: &str, golden: &str, actual: &str) {
    let path = repo_root().join(format!("crates/cli/tests/golden/{scenario}/{golden}.txt"));
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{scenario}/{golden} no longer matches its golden"
    );
}

#[test]
fn replay_commands_match_the_goldens_byte_for_byte() {
    for name in SCENARIOS {
        let file = format!("examples/scenarios/{name}.rtcac");
        assert_golden(name, "check", &run(&["check", &file]));
        assert_golden(name, "check_engine", &run(&["check", &file, "--engine"]));
        assert_golden(name, "trace", &echo_only(&run(&["trace", &file])));
        let sharded = run(&["trace", &file, "--engine"]);
        assert_golden(name, "trace_engine", &echo_only(&sharded));

        let text = std::fs::read_to_string(repo_root().join(&file)).expect("scenario ships");
        let scenario = Scenario::parse(&text).expect("scenario parses");
        assert!(!scenario.connections.is_empty());
        for spec in &scenario.connections {
            let golden = format!("why_{}", spec.name);
            assert_golden(name, &golden, &run(&["why", &file, &spec.name]));
        }
    }
}

/// The serial-vs-engine difference on the failover walkthrough is in
/// the goldens on purpose; this keeps a re-capture from erasing it.
#[test]
fn failover_goldens_pin_the_serial_vs_engine_difference() {
    let golden = |name: &str| {
        let path = repo_root().join(format!("crates/cli/tests/golden/failover/{name}.txt"));
        std::fs::read_to_string(path).expect("golden ships")
    };
    let serial = golden("check");
    assert!(
        serial.contains("retry: CONNECTED") && serial.contains("(crankback: 1 rejected"),
        "{serial}"
    );
    assert!(serial.contains("summary: 4/4 connected"), "{serial}");
    let sharded = golden("check_engine");
    assert!(sharded.contains("retry: REJECTED ("), "{sharded}");
    assert!(sharded.contains("summary: 3/4 connected"), "{sharded}");
    assert!(golden("why_retry").contains("out=spare"));
}
