//! The seeded-bug table stays live: every row parses, names tests, and
//! its snippet occurs exactly once in its file. A stale row is a
//! finding, as a `detlint` waiver that waives nothing is; the `seeded`
//! binary is what applies the rows and runs their tests.

use std::collections::BTreeSet;

#[test]
fn every_seeded_bug_still_applies() {
    let bugs = det_conform::seeded::table().expect("seeded_bugs.json parses");
    assert!(!bugs.is_empty());
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut ids = BTreeSet::new();
    let mut stale = Vec::new();
    for bug in &bugs {
        assert!(ids.insert(bug.id.as_str()), "{}: duplicate id", bug.id);
        assert!(!bug.tests.is_empty(), "{}: names no test", bug.id);
        assert_ne!(bug.snippet, bug.replacement, "{}: changes nothing", bug.id);
        let source = std::fs::read_to_string(format!("{root}/{}", bug.file))
            .unwrap_or_else(|e| panic!("{}: {}: {e}", bug.id, bug.file));
        let n = det_conform::seeded::occurrences(bug, &source);
        if n != 1 {
            stale.push(format!(
                "{} ({}): snippet occurs {n} times",
                bug.id, bug.file
            ));
        }
    }
    assert!(stale.is_empty(), "stale seeded bugs:\n{}", stale.join("\n"));
}
