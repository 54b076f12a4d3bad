//! CLI-level coverage of the shipped failover walkthrough: the
//! `examples/scenarios/failover.rtcac` replay must demonstrate
//! fail-link → crankback re-setup → heal-link end to end, both through
//! the library entry point and through the `rtcac` binary itself; and
//! the shipped `chaos.rtcac` session must pass through the binary.

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

/// The shipped chaos scenario through the binary: its embedded session
/// upholds every safety invariant, and a broken one would exit nonzero.
#[test]
fn rtcac_binary_checks_the_shipped_chaos_scenario_and_exits_zero() {
    let path = scenario_path().with_file_name("chaos.rtcac");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_rtcac"))
        .arg("check")
        .arg(path)
        .arg("--engine")
        .output()
        .expect("the rtcac binary must run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "exit: {:?}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.contains("chaos seed=1 steps=200 rate=25%:"),
        "{stdout}"
    );
    assert!(stdout.contains("invariants: OK"), "{stdout}");
    assert!(stdout.contains("orphaned reservations: 0"), "{stdout}");
}
