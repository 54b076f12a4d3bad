//! CLI-level coverage of the shipped failover walkthrough: the
//! `examples/scenarios/failover.rtcac` replay must demonstrate
//! fail-link → crankback re-setup → heal-link end to end, both through
//! the library entry point and through the `rtcac` binary itself.

use rtcac_cli::commands;
use rtcac_cli::scenario::Scenario;

fn scenario_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios/failover.rtcac")
}

#[test]
fn shipped_failover_scenario_replays_the_recovery_story() {
    let text = std::fs::read_to_string(scenario_path()).expect("example scenario must ship");
    let scenario = Scenario::parse(&text).unwrap();
    assert!(!scenario.is_connect_only());
    let out = commands::check(&scenario).unwrap();

    // The recovery story, in order: steady state, failure with
    // teardown, crankback re-setup that routes around both the dead
    // link and the saturated alternate, repair, and reuse.
    let expect = [
        "primary: CONNECTED",
        "hog: CONNECTED",
        "fail-link main: down, 1 connection(s) torn down",
        "retry: CONNECTED",
        "heal-link main: restored",
        "after: CONNECTED",
        "summary: 4/4 connected",
    ];
    let mut cursor = 0;
    for needle in expect {
        let at = out[cursor..]
            .find(needle)
            .unwrap_or_else(|| panic!("missing or out of order: '{needle}' in\n{out}"));
        cursor += at + needle.len();
    }
    // The re-setup must have cranked back off the saturated alternate,
    // not just picked a healthy route first try.
    assert!(
        out.contains("(crankback: 1 rejected attempt(s), backoff 64 cells)"),
        "{out}"
    );
}

#[test]
fn rtcac_binary_replays_the_scenario_and_exits_zero() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_rtcac"))
        .arg("check")
        .arg(scenario_path())
        .output()
        .expect("the rtcac binary must run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "exit: {:?}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("retry: CONNECTED"), "{stdout}");
    assert!(stdout.contains("heal-link main: restored"), "{stdout}");
}

#[test]
fn rtcac_chaos_subcommand_runs_green_and_writes_metrics() {
    let dir = std::env::temp_dir().join(format!("rtcac-failover-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = dir.join("nested").join("chaos.prom");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_rtcac"))
        .args([
            "chaos",
            "--nodes",
            "8",
            "--terminals",
            "1",
            "--seed",
            "3",
            "--steps",
            "120",
            "--rate",
            "25",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("the rtcac binary must run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "exit: {:?}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("invariants: OK"), "{stdout}");
    // --metrics creates the missing parent directories itself, and the
    // exposition shows the orphaned-reservation gauge at zero.
    let prom = std::fs::read_to_string(&metrics).unwrap();
    assert!(prom.contains("engine_orphaned_reservations 0"), "{prom}");
    let _ = std::fs::remove_dir_all(&dir);
}
