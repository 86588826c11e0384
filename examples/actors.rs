//! Figure 1: the lock-step time simulation — a game/simulator with an
//! array of actors, each updated in place by a forked thread per time
//! step. Racy under conventional threads; exact under Determinator.
//!
//! The body lives in the conformance registry as the `actors_grid`
//! scenario (`det_conform::scenario`), so the same computation is
//! byte-compared across N replicas in CI. This wrapper runs one
//! replica and narrates.
//!
//! ```sh
//! cargo run --release --example actors
//! ```

use determinator::conform::{ScenarioConfig, find};

fn main() {
    let sc = find("actors_grid").expect("registered scenario");
    let run = (sc.run)(&ScenarioConfig::default());
    let out = run.outcome;
    let digest = out.exit.expect("simulation trapped");
    // Per-step samples, written by the scenario through the console
    // device so they are part of the compared artifact bundle.
    print!("{}", out.console_string());
    println!("final universe digest: {digest:#x} (identical on every run, any host schedule)");
    println!(
        "virtual makespan {} µs over {} merges, 0 races possible",
        out.vclock_ns / 1000,
        out.stats.merges
    );
}
