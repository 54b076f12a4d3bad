//! Every subcommand the prose names must be one the `rtcac` binary
//! has. A deleted subcommand otherwise lives on in the docs:
//! `examples/scenarios/cell_floor.rtcac` told its reader to run
//! `rtcac engine` after that command was gone.
//!
//! The lint reads README.md, DESIGN.md, everything under `examples/`
//! and the sources under `crates/*/src`. It takes two spellings of a
//! command: a backticked `` `rtcac WORD` `` anywhere, and a line that
//! shows an invocation — `rtcac WORD …` at its start, after any comment
//! marker. Each `WORD` must open an entry of `crates/cli/src/main.rs`'s
//! USAGE (`  rtcac WORD …`).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The subcommands the binary's USAGE lists: the first word of each
/// entry line, `  rtcac NAME …`.
fn usage_subcommands() -> BTreeSet<String> {
    let main = fs::read_to_string(root().join("crates/cli/src/main.rs")).unwrap();
    let usage = main
        .split("const USAGE: &str = \"")
        .nth(1)
        .and_then(|rest| rest.split("\";").next())
        .unwrap_or_default();
    usage
        .lines()
        .filter_map(|line| line.strip_prefix("  rtcac "))
        .filter_map(|entry| entry.split_whitespace().next())
        .map(str::to_owned)
        .collect()
}

/// The word right after `rtcac ` at the start of `rest`, if any.
fn word(rest: &str) -> Option<String> {
    let word: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_'))
        .collect();
    (!word.is_empty()).then_some(word)
}

/// `(line number, word)` for every subcommand `text` names.
fn named_subcommands(text: &str) -> Vec<(usize, String)> {
    let mut named = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let ticked = line
            .match_indices("`rtcac ")
            .map(|(at, tag)| &line[at + tag.len()..]);
        let shown = line
            .trim_start()
            .trim_start_matches(['#', '/', '!'])
            .trim_start()
            .strip_prefix("rtcac ");
        for rest in ticked.chain(shown) {
            named.extend(word(rest).map(|word| (n + 1, word)));
        }
    }
    named.dedup();
    named
}

/// The names in `text` that `usage` does not list.
fn unknown(text: &str, usage: &BTreeSet<String>) -> Vec<(usize, String)> {
    let mut named = named_subcommands(text);
    named.retain(|(_, word)| !usage.contains(word));
    named
}

/// Every file under `dir`, recursively.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// README.md, DESIGN.md, `examples/` and every crate's `src/`.
fn documents() -> Vec<PathBuf> {
    let mut docs = vec![root().join("README.md"), root().join("DESIGN.md")];
    files_under(&root().join("examples"), &mut docs);
    for krate in fs::read_dir(root().join("crates")).unwrap().flatten() {
        files_under(&krate.path().join("src"), &mut docs);
    }
    docs
}

#[test]
fn every_named_subcommand_is_in_usage() {
    let usage = usage_subcommands();
    assert!(
        usage.len() >= 10 && usage.contains("check"),
        "read the wrong USAGE: {usage:?}"
    );
    let (mut named, mut refused) = (0, Vec::new());
    for path in documents() {
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        named += named_subcommands(&text).len();
        let shown = path
            .strip_prefix(root())
            .unwrap_or(&path)
            .display()
            .to_string();
        for (line, word) in unknown(&text, &usage) {
            refused.push(format!("{shown}:{line}: rtcac {word}"));
        }
    }
    assert!(
        named > 50,
        "only {named} names found: the lint checks nothing"
    );
    assert!(
        refused.is_empty(),
        "not in USAGE {usage:?}:\n{}",
        refused.join("\n")
    );
}

#[test]
fn the_lint_refuses_a_deleted_subcommand() {
    let usage = usage_subcommands();
    // `cell_floor.rtcac`'s header as it stood after `rtcac engine` went.
    let stale = "#\n#   rtcac engine examples/scenarios/cell_floor.rtcac\n#   rtcac check  examples/scenarios/cell_floor.rtcac\n";
    assert_eq!(unknown(stale, &usage), [(2, "engine".to_owned())]);
    let ticked = "/// Replays the file like `rtcac engine FILE` did.";
    assert_eq!(unknown(ticked, &usage), [(1, "engine".to_owned())]);
    let fixed = "#   rtcac check examples/scenarios/cell_floor.rtcac --engine\n";
    assert_eq!(unknown(fixed, &usage), []);
    // Prose about the binary names no subcommand.
    assert_eq!(unknown("the `rtcac` binary and `rtcac-cli`", &usage), []);
}
