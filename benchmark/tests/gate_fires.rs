//! The digest gate, provoked end to end: one verdict of the traced
//! replay's recorded digest is flipped, and `run` must exit non-zero
//! with `"correct":false` on its last line.

use std::process::Command;

#[test]
fn a_flipped_verdict_makes_run_exit_non_zero() {
    let output = Command::new(env!("CARGO_BIN_EXE_rtcac-benchmark"))
        .args([
            "run",
            "--workload",
            "wire_light",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "1",
            "--flip-verdict",
        ])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(1), "{stdout}");
    assert!(
        stdout
            .lines()
            .any(|l| l.contains("verdict_digests_agree") && l.contains("FAIL")),
        "{stdout}"
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with("{\"correct\":false,"), "{last}");
    // Every other gate held: the flip is the only thing wrong.
    let failed: Vec<&str> = stdout.lines().filter(|l| l.contains("FAIL")).collect();
    assert_eq!(failed.len(), 1, "{failed:?}");
}
