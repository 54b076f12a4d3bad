//! `--workers` sizes `rtcac serve` and nothing else. The commands that
//! replay a scenario in file order refuse it as a usage error that
//! names the flag and the command, instead of silently ignoring it.

use std::path::Path;
use std::process::Command;

#[test]
fn replay_commands_refuse_workers_by_name() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = std::env::temp_dir().join(format!("rtcac-workers-{}.snap", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    let file = "examples/scenarios/cell_floor.rtcac";
    for (command, args) in [
        ("trace", vec!["trace", file, "--engine", "--workers", "4"]),
        ("engine", vec!["engine", file, "--workers", "4"]),
        ("stats", vec!["stats", file, "--workers", "4"]),
        (
            "snapshot save",
            vec!["snapshot", "save", file, out, "--workers", "4"],
        ),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_rtcac"))
            .args(&args)
            .current_dir(&root)
            .output()
            .expect("the rtcac binary must run");
        assert!(!output.status.success(), "{command} accepted --workers");
        let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.contains("--workers") && first.contains(command),
            "{command}: {first}"
        );
    }
    assert!(!Path::new(out).exists(), "a refused save wrote {out}");
}
