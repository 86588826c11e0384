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

/// The rows whose `file` is one of `files`, in table order; the whole
/// table when `files` is empty. A named file that no row names is an
/// error, not an empty run: a mistyped path would otherwise pass.
pub fn select(bugs: Vec<SeededBug>, files: &[String]) -> Result<Vec<SeededBug>, String> {
    if let Some(file) = files.iter().find(|f| !bugs.iter().any(|b| &b.file == *f)) {
        return Err(format!("no seeded bug goes into {file}"));
    }
    Ok(bugs
        .into_iter()
        .filter(|b| files.is_empty() || files.contains(&b.file))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bug(id: &str, file: &str) -> SeededBug {
        SeededBug {
            id: id.into(),
            file: file.into(),
            snippet: "a".into(),
            replacement: "b".into(),
            tests: vec!["-p x".into()],
            pr: 1,
            survivor: false,
        }
    }

    fn ids(bugs: &[SeededBug]) -> Vec<&str> {
        bugs.iter().map(|b| b.id.as_str()).collect()
    }

    #[test]
    fn select_keeps_the_named_files_rows_in_table_order() {
        let table = vec![bug("m1", "m.rs"), bug("f1", "f.rs"), bug("m2", "m.rs")];
        let files = |f: &[&str]| f.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let all = select(table.clone(), &[]).unwrap();
        assert_eq!(ids(&all), ["m1", "f1", "m2"]);
        let m = select(table.clone(), &files(&["m.rs"])).unwrap();
        assert_eq!(ids(&m), ["m1", "m2"]);
        let both = select(table.clone(), &files(&["f.rs", "m.rs"])).unwrap();
        assert_eq!(ids(&both), ["m1", "f1", "m2"]);
        assert_eq!(
            select(table, &files(&["m.rs", "x.rs"])).map(|b| b.len()),
            Err("no seeded bug goes into x.rs".to_string())
        );
    }

    #[test]
    fn every_row_of_the_table_selects_by_its_own_file() {
        let table = table().expect("the table parses");
        for b in &table {
            let rows = select(table.clone(), std::slice::from_ref(&b.file)).unwrap();
            assert!(rows.iter().any(|r| r.id == b.id), "{}", b.id);
            assert!(rows.iter().all(|r| r.file == b.file), "{}", b.id);
        }
    }
}
