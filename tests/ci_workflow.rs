//! `.github/workflows/ci.yml` must load as YAML, or none of its jobs
//! run. The one way it has broken is a shell command written as a plain
//! (unquoted, single-line) `run:` scalar that contains `: ` — which YAML
//! reads as a nested mapping — or ` #`, which it reads as a comment.
//! No YAML loader exists offline, so this walks the `run:` lines itself.

use std::path::Path;

/// What YAML would misread in a plain `run:` scalar, if anything.
fn plain_scalar_hazard(command: &str) -> Option<&'static str> {
    if command.contains(": ") || command.ends_with(':') {
        Some("': ' starts a mapping value")
    } else if command.contains(" #") {
        Some("' #' starts a comment")
    } else {
        None
    }
}

/// `(line number, hazard)` for every plain single-line `run:` scalar
/// that YAML would not read as the command it spells.
fn hazards(workflow: &str) -> Vec<(usize, &'static str)> {
    workflow
        .lines()
        .enumerate()
        .filter_map(|(n, line)| {
            let entry = line.trim_start();
            let value = entry
                .strip_prefix("- run:")
                .or_else(|| entry.strip_prefix("run:"))?
                .trim();
            // Block (`|`, `>`) and quoted scalars may hold anything.
            if value.starts_with(['|', '>', '\'', '"']) {
                return None;
            }
            plain_scalar_hazard(value).map(|why| (n + 1, why))
        })
        .collect()
}

#[test]
fn every_plain_run_scalar_is_yaml_safe() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(".github/workflows/ci.yml");
    let workflow = std::fs::read_to_string(&path).unwrap();
    assert!(
        workflow.matches("run:").count() > 50,
        "walked the wrong file"
    );
    assert_eq!(hazards(&workflow), [], "in {}", path.display());
}

#[test]
fn the_lint_refuses_what_broke_the_file() {
    // The step as it stood when the file stopped loading.
    let broken = "    steps:\n      - run: grep -q \"serve: shutdown clean\" serve-log.txt\n";
    assert_eq!(hazards(broken), [(2, "': ' starts a mapping value")]);
    let fixed = "      - run: 'grep -q \"serve: shutdown clean\" serve-log.txt'\n";
    assert_eq!(hazards(fixed), []);
    assert_eq!(
        hazards("      - run: make all # then deploy\n"),
        [(1, "' #' starts a comment")]
    );
    let block = "      - run: |\n          echo \"a: b\" # fine here\n";
    assert_eq!(hazards(block), []);
}
