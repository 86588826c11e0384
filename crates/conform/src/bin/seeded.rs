//! `seeded` — re-runs the checked-in seeded-bug table.
//!
//! ```text
//! cargo run --release -p det-conform --bin seeded [-- --file <path>...]
//! ```
//!
//! `--file <path>` (repeatable, relative to the workspace root) runs
//! only the rows whose bug goes into one of the named files: the rows
//! on the lines a change touched, without the whole table. A path no
//! row names exits 2. Without it every row runs.
//!
//! Checks HEAD out into a `git worktree` under `target/seeded-bugs/`,
//! and for each row of `crates/conform/seeded_bugs.json` puts the bug
//! into its file, runs each of the row's tests there (`cargo test
//! --offline <args>`, every row building into the one
//! `target/seeded-bugs/target`), and puts the file back. Prints one
//! line per row:
//!
//! - `killed`: every named test failed;
//! - `SURVIVED`: some named test passed with the bug in;
//! - `STALE`: the snippet does not occur exactly once in its file, or a
//!   named test no longer exists;
//! - `BROKEN`: the bug does not compile, so it tests nothing.
//!
//! Exits 1 if any row is not killed, unless the row is marked as a
//! known survivor and survived. The named tests must terminate with the
//! bug in; the runner sets no timeout of its own.

use std::path::Path;
use std::process::{Command, ExitCode};

use det_conform::seeded::{self, SeededBug};
use det_conform::worktree;

/// How one `cargo test` run with the bug in ended.
enum Outcome {
    Failed,
    Passed,
    NoTests,
    DidNotBuild,
}

/// Runs one test selection in the worktree.
fn run_tests(tree: &Path, target: &Path, args: &str) -> Result<Outcome, String> {
    let out = Command::new("cargo")
        .current_dir(tree)
        .env("CARGO_TARGET_DIR", target)
        .args(["test", "--offline", "-q"])
        .args(args.split_whitespace())
        .output()
        .map_err(|e| format!("cargo: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let results: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("test result:"))
        .collect();
    Ok(if results.is_empty() {
        // No test binary finished: one that started and died (an abort,
        // a crash) is a kill, one that never built is not.
        if stdout.contains("running ") {
            Outcome::Failed
        } else {
            Outcome::DidNotBuild
        }
    } else if !out.status.success() || results.iter().any(|l| l.contains("FAILED")) {
        Outcome::Failed
    } else if results.iter().all(|l| l.contains(" 0 passed")) {
        Outcome::NoTests
    } else {
        Outcome::Passed
    })
}

/// What one row came to: its verdict word and the detail behind it.
fn judge(bug: &SeededBug, tree: &Path, target: &Path) -> Result<(&'static str, String), String> {
    let path = tree.join(&bug.file);
    let io = |e: std::io::Error| format!("{}: {e}", bug.file);
    let original = std::fs::read_to_string(&path).map_err(io)?;
    let Some(seeded) = seeded::apply(bug, &original) else {
        let n = seeded::occurrences(bug, &original);
        return Ok(("STALE", format!("snippet occurs {n} times")));
    };
    std::fs::write(&path, seeded).map_err(io)?;
    let outcomes: Result<Vec<_>, String> = (bug.tests.iter())
        .map(|args| run_tests(tree, target, args).map(|o| (args, o)))
        .collect();
    std::fs::write(&path, &original).map_err(io)?;
    let mut passed = Vec::new();
    for (args, outcome) in outcomes? {
        match outcome {
            Outcome::Failed => {}
            Outcome::Passed => passed.push(args.as_str()),
            Outcome::NoTests => return Ok(("STALE", format!("no test: {args}"))),
            Outcome::DidNotBuild => return Ok(("BROKEN", format!("does not build: {args}"))),
        }
    }
    Ok(if passed.is_empty() {
        ("killed", String::new())
    } else {
        ("SURVIVED", format!("passed: {}", passed.join("; ")))
    })
}

/// The `--file` paths of the command line.
fn files(mut args: impl Iterator<Item = String>) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--file", Some(path)) => files.push(path),
            _ => return Err(format!("usage: seeded [--file <path>]... (at {arg})")),
        }
    }
    Ok(files)
}

fn main() -> ExitCode {
    let root = worktree::workspace_root();
    let bugs = files(std::env::args().skip(1)).and_then(|files| {
        let table = seeded::table().map_err(|e| format!("seeded_bugs.json: {e}"))?;
        seeded::select(table, &files)
    });
    let bugs = match bugs {
        Ok(bugs) => bugs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let work = root.join("target/seeded-bugs");
    let tree = work.join("worktree");
    let target = work.join("target");
    if let Err(e) = worktree::add(&root, &tree, "HEAD") {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    let mut failing = 0;
    for bug in &bugs {
        let (word, detail) = judge(bug, &tree, &target).unwrap_or_else(|e| ("BROKEN", e));
        if !(word == "killed" || (bug.survivor && word == "SURVIVED")) {
            failing += 1;
        }
        let mark = if bug.survivor {
            " [known survivor]"
        } else {
            ""
        };
        let detail = if detail.is_empty() {
            detail
        } else {
            format!(" ({detail})")
        };
        println!(
            "{:<34} {:<9} {} (PR {}){mark}{detail}",
            bug.id, word, bug.file, bug.pr
        );
    }
    worktree::remove(&root, &tree);
    println!("{} rows, {failing} not as expected", bugs.len());
    if failing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::files;

    fn parse(args: &[&str]) -> Result<Vec<String>, String> {
        files(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn file_flags_repeat_and_nothing_else_parses() {
        assert_eq!(parse(&[]), Ok(vec![]));
        assert_eq!(
            parse(&["--file", "a.rs", "--file", "b.rs"]),
            Ok(vec!["a.rs".to_string(), "b.rs".to_string()])
        );
        assert!(parse(&["--file"]).is_err());
        assert!(parse(&["a.rs"]).is_err());
        assert!(parse(&["--files", "a.rs"]).is_err());
    }
}
