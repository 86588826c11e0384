//! Quickstart: private workspaces, race-free swap, and conflict
//! detection (PAPER.md §2.2).
//!
//! The body lives in the conformance registry as the
//! `quickstart_swap` scenario (`det_conform::scenario`), so the exact
//! computation this example demonstrates is also what the N-replica
//! harness verifies in CI. This wrapper runs it once and narrates.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use determinator::conform::{ScenarioConfig, find};

fn main() {
    let sc = find("quickstart_swap").expect("registered scenario");
    let run = (sc.run)(&ScenarioConfig::default());
    let out = run.outcome;
    assert_eq!(out.exit, Ok(0));
    // The scenario reports through the console device: the clean swap,
    // then the *detected* (not silent) write/write race.
    print!("{}", out.console_string());
    println!(
        "virtual makespan: {} µs, merges: {}, conflicts detected: {}",
        out.vclock_ns / 1000,
        out.stats.merges,
        out.stats.conflicts
    );
}
