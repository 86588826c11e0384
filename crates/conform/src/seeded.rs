//! Seeded bugs as a checked-in table.
//!
//! Each row of `crates/conform/seeded_bugs.json` is one deliberate bug:
//! an exact snippet of a source file, the replacement that breaks it,
//! and the tests that must fail once it is in. The `seeded` binary
//! applies every row to a `git worktree` of HEAD and runs its tests, so
//! "what does this mechanism catch" is a command, not prose. A row whose
//! snippet no longer occurs exactly once in its file is stale — a
//! finding, as a `detlint` waiver that waives nothing is.

use serde::Deserialize;

/// The table, as checked in beside this crate's manifest.
pub const TABLE: &str = include_str!("../seeded_bugs.json");

/// One seeded bug.
#[derive(Clone, Debug, Deserialize)]
pub struct SeededBug {
    /// A short, unique name for the row.
    pub id: String,
    /// The source file the bug goes into, relative to the workspace
    /// root.
    pub file: String,
    /// The exact text the bug replaces; it must occur exactly once in
    /// `file`.
    pub snippet: String,
    /// What replaces it.
    pub replacement: String,
    /// The tests that must fail with the bug in, each as the arguments
    /// of one `cargo test` run (for example `-p det-kernel --lib
    /// kernel::tests::live_slots_are_the_replayed_slots`).
    pub tests: Vec<String>,
    /// The PR the bug was first seeded by.
    pub pr: u32,
    /// True for a known survivor: a bug no test catches yet, kept in
    /// the table so it is not forgotten.
    pub survivor: bool,
}

/// Parses the checked-in table.
pub fn table() -> Result<Vec<SeededBug>, serde_json::Error> {
    serde_json::from_str(TABLE)
}

/// How many times `bug`'s snippet occurs in `source`, the text of its
/// file; a live row has exactly one.
pub fn occurrences(bug: &SeededBug, source: &str) -> usize {
    source.matches(bug.snippet.as_str()).count()
}

/// `source` with `bug` applied, or `None` when the row is stale.
pub fn apply(bug: &SeededBug, source: &str) -> Option<String> {
    (occurrences(bug, source) == 1).then(|| source.replacen(&bug.snippet, &bug.replacement, 1))
}
