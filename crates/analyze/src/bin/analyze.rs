//! `analyze` — the footprint-soundness gate and report generator.
//!
//! Runs the differential gate ([`det_analyze::gate`]) over every
//! program in the registered VM corpus, prints a markdown report
//! (nightly CI uploads it as `ANALYZE_<date>.md`), and exits nonzero
//! if any program's observed footprint escapes its predicted one — a
//! false negative, which the analysis must never produce.

use std::process::ExitCode;

use det_analyze::gate::{check_program, report_row};
use det_vm::corpus::PROGRAMS;

fn main() -> ExitCode {
    println!("# det-analyze footprint report");
    println!();
    println!("Static footprints vs. observed page accesses for every");
    println!("registered VM corpus program. `sound` asserts the");
    println!("inclusions: observed writes ⊆ predicted writes and");
    println!("observed touches ⊆ predicted reads ∪ writes.");
    println!();
    println!("| program | steps | pred reads | pred writes | obs reads | obs writes | sound |");
    println!("|---|---|---|---|---|---|---|");

    let mut unsound = 0u32;
    for p in PROGRAMS {
        let g = check_program(p.src, p.budget);
        println!("{}", report_row(p.name, &g));
        if !g.sound {
            unsound += 1;
        }
    }

    println!();
    if unsound == 0 {
        println!(
            "**Gate: sound** — zero false negatives across {} programs.",
            PROGRAMS.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("**Gate: UNSOUND** — {unsound} program(s) escaped their predicted footprint.");
        eprintln!("analyze: {unsound} unsound footprint(s)");
        ExitCode::FAILURE
    }
}
