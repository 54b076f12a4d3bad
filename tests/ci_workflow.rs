//! `.github/workflows/ci.yml` must load as YAML, or none of its jobs
//! run. The one way it has broken is a shell command written as a plain
//! (unquoted, single-line) `run:` scalar that contains `: ` — which YAML
//! reads as a nested mapping — or ` #`, which it reads as a comment.
//! No YAML loader exists offline, so this walks the `run:` lines itself.
//!
//! Every gate must also be able to fail. Actions runs a step with no
//! `shell:` as `bash -e`, without pipefail, so a step that pipes into
//! `tee` reports `tee`'s status. A piped step is refused unless the
//! shell that runs it is a plain `bash`, which Actions runs as
//! `bash -eo pipefail`: the step's own `shell:`, else its job's
//! `defaults:`, else the workflow's.

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

/// The value of the `run:` key on `line`, if the line holds one.
fn run_value(line: &str) -> Option<&str> {
    let entry = line.trim_start();
    let value = entry
        .strip_prefix("- run:")
        .or_else(|| entry.strip_prefix("run:"))?;
    Some(value.trim())
}

/// `(line number, hazard)` for every plain single-line `run:` scalar
/// that YAML would not read as the command it spells.
fn hazards(workflow: &str) -> Vec<(usize, &'static str)> {
    workflow
        .lines()
        .enumerate()
        .filter_map(|(n, line)| {
            let value = run_value(line)?;
            // Block (`|`, `>`) and quoted scalars may hold anything.
            if value.starts_with(['|', '>', '\'', '"']) {
                return None;
            }
            plain_scalar_hazard(value).map(|why| (n + 1, why))
        })
        .collect()
}

/// `(line number, command)` for every `run:` step: a flow scalar's text
/// as written, or a block scalar's (`|`, `>`) indented lines.
fn run_commands(workflow: &str) -> Vec<(usize, String)> {
    let lines: Vec<&str> = workflow.lines().collect();
    let mut commands = Vec::new();
    for (n, line) in lines.iter().enumerate() {
        let Some(value) = run_value(line) else {
            continue;
        };
        if value.is_empty() {
            // A mapping key, as under `defaults:`.
            continue;
        }
        if value.starts_with(['|', '>']) {
            let indent = line.len() - line.trim_start().len();
            let deeper = |l: &&&str| l.trim().is_empty() || l.len() - l.trim_start().len() > indent;
            let body: Vec<&str> = lines[n + 1..]
                .iter()
                .take_while(deeper)
                .map(|l| l.trim())
                .collect();
            commands.push((n + 1, body.join("\n")));
        } else {
            commands.push((n + 1, value.to_string()));
        }
    }
    commands
}

/// Whether a command pipes one command into another (`||` is no pipe).
fn pipes(command: &str) -> bool {
    let bytes = command.as_bytes();
    (0..bytes.len()).any(|i| {
        bytes[i] == b'|' && bytes.get(i + 1) != Some(&b'|') && (i == 0 || bytes[i - 1] != b'|')
    })
}

fn indent(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// The value of a `shell:` key, without a trailing comment.
fn shell_value(key: &str) -> Option<&str> {
    let value = key.strip_prefix("shell:")?;
    Some(value.split(" #").next().unwrap_or_default().trim())
}

/// The lines nested under `lines[at]`: every following line that is
/// blank or indented deeper.
fn nested<'a>(lines: &[&'a str], at: usize) -> Vec<&'a str> {
    let depth = indent(lines[at]);
    lines[at + 1..]
        .iter()
        .take_while(|l| l.trim().is_empty() || indent(l) > depth)
        .copied()
        .collect()
}

/// The shell that a `defaults:` key at `depth` sets for `run:` steps.
fn default_shell<'a>(lines: &[&'a str], depth: usize) -> Option<&'a str> {
    let at = lines
        .iter()
        .position(|l| indent(l) == depth && l.trim() == "defaults:")?;
    nested(lines, at)
        .into_iter()
        .find_map(|l| shell_value(l.trim()))
}

/// The shell that runs the `run:` step on `lines[at]`: the step's own
/// `shell:`, else its job's `defaults:`, else the workflow's.
fn step_shell<'a>(lines: &[&'a str], at: usize) -> Option<&'a str> {
    // The step's keys sit one column right of its `- ` item marker.
    let entry = lines[at].trim_start();
    let keys = indent(lines[at]) + if entry.starts_with("- ") { 2 } else { 0 };
    let item = (0..=at)
        .rev()
        .find(|&j| lines[j].trim_start().starts_with("- ") && indent(lines[j]) + 2 == keys);
    if let Some(item) = item {
        let head = lines[item].trim_start().trim_start_matches("- ");
        let body = nested(lines, item);
        let own = body.iter().filter(|l| indent(l) == keys).map(|l| l.trim());
        if let Some(shell) = [head].into_iter().chain(own).find_map(shell_value) {
            return Some(shell);
        }
    }
    let jobs = lines.iter().position(|l| *l == "jobs:");
    let job = jobs.and_then(|jobs| {
        (jobs + 1..at)
            .rev()
            .find(|&j| indent(lines[j]) == 2 && lines[j].trim_end().ends_with(':'))
    });
    job.and_then(|job| default_shell(&nested(lines, job), 4))
        .or_else(|| default_shell(lines, 0))
}

/// Line numbers of the piped `run:` steps whose status the pipe's last
/// command decides: every one that a plain `bash`, which Actions runs
/// as `bash -eo pipefail`, does not run.
fn unguarded_pipes(workflow: &str) -> Vec<usize> {
    let lines: Vec<&str> = workflow.lines().collect();
    run_commands(workflow)
        .into_iter()
        .filter(|(n, command)| pipes(command) && step_shell(&lines, n - 1) != Some("bash"))
        .map(|(n, _)| n)
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

#[test]
fn every_piped_step_fails_with_its_pipe() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(".github/workflows/ci.yml");
    let workflow = std::fs::read_to_string(&path).unwrap();
    let commands = run_commands(&workflow);
    assert!(commands.len() > 50, "walked the wrong file");
    assert!(
        commands.iter().any(|(_, command)| pipes(command)),
        "no piped step: the lint checks nothing"
    );
    assert_eq!(unguarded_pipes(&workflow), [], "in {}", path.display());
}

#[test]
fn the_lint_refuses_a_pipe_without_pipefail() {
    // snap-smoke's load step as it stood: `tee` passed whatever `load` did.
    let piped =
        "jobs:\n  snap:\n    steps:\n      - run: rtcac load --smoke | tee load-report.txt\n";
    assert_eq!(unguarded_pipes(piped), [4]);
    let guarded = format!("defaults:\n  run:\n    shell: bash\n\n{piped}");
    assert_eq!(unguarded_pipes(&guarded), []);
    // A default that names another shell guards nothing.
    let sh = format!("defaults:\n  run:\n    shell: sh\n\n{piped}");
    assert_eq!(unguarded_pipes(&sh), [8]);
    // A job's own default overrides the workflow's, either way.
    let job = |shell: &str| {
        format!(
            "defaults:\n  run:\n    shell: bash\n\njobs:\n  snap:\n    defaults:\n      run:\n        shell: {shell}\n    steps:\n      - run: rtcac load --smoke | tee load-report.txt\n"
        )
    };
    assert_eq!(unguarded_pipes(&job("sh")), [11]);
    assert_eq!(unguarded_pipes(&job("bash")), []);
    // So does a step's own `shell:`, on either side of its `run:`;
    // `bash {0}` runs without pipefail.
    for shell in ["sh", "bash {0}", "bash -e {0}"] {
        let step = format!("defaults:\n  run:\n    shell: bash\n\n{piped}        shell: {shell}\n");
        assert_eq!(unguarded_pipes(&step), [8], "shell: {shell}");
        let named = format!(
            "defaults:\n  run:\n    shell: bash\njobs:\n  snap:\n    steps:\n      - name: load\n        shell: {shell}\n        run: rtcac load --smoke | tee load-report.txt\n"
        );
        assert_eq!(unguarded_pipes(&named), [9], "shell: {shell}");
    }
    let own_bash = format!("{piped}        shell: bash\n");
    assert_eq!(unguarded_pipes(&own_bash), []);
    // A shell set on one step leaves the next step to the defaults.
    let next =
        format!("{piped}        shell: bash\n      - run: rtcac load --smoke | tee again.txt\n");
    assert_eq!(unguarded_pipes(&next), [6]);
    // A pipe inside a block scalar counts; `||` is no pipe.
    let block = "      - run: >\n          rtcac storm --seed 1\n          --metrics s.prom | tee s.txt\n      - run: kill -0 1 || exit 0\n";
    assert_eq!(unguarded_pipes(block), [1]);
}
