//! The footprint-soundness gate: differential validation of the
//! static analysis against concrete execution.
//!
//! For a program, the gate (1) analyzes the assembled image, (2) runs
//! it concretely in the corpus's standard sandbox
//! ([`det_vm::corpus::sandbox_space`]) under
//! [`Cpu::run_observed`], which logs every page the slow-path
//! interpreter fetches, loads or stores, and (3) checks the soundness
//! inclusions:
//!
//! * observed written pages ⊆ predicted write footprint, and
//! * observed touched pages ⊆ predicted reads ∪ writes.
//!
//! A violation is a **false negative** — the one thing the analysis
//! must never produce — so CI fails the build on any. The `analyze`
//! binary runs this over every registered corpus program; the
//! 200-case proptest in `tests/` runs it over random programs.

use det_vm::corpus::sandbox_space;
use det_vm::{Cpu, PageLog, VmExit, assemble};

use crate::footprint::{Analysis, AnalyzeConfig, PageSet, Segment, analyze};

/// Outcome of one differential soundness check.
#[derive(Clone, Debug)]
pub struct GateOutcome {
    /// The static analysis of the program.
    pub analysis: Analysis,
    /// Pages the concrete run read (fetches included).
    pub observed_read: Vec<u64>,
    /// Pages the concrete run wrote.
    pub observed_written: Vec<u64>,
    /// How the concrete run ended (display form).
    pub exit: String,
    /// Instructions the concrete run retired.
    pub insns: u64,
    /// `true` iff both soundness inclusions hold.
    pub sound: bool,
}

/// Runs the full differential check on one assembly program.
///
/// The concrete run resumes across `sys` exits without kernel
/// intervention (registers unchanged) — one of the behaviors the
/// register-havocking analysis must cover — and stops at `halt`, a
/// trap, or the instruction budget.
pub fn check_program(src: &str, budget: u64) -> GateOutcome {
    let image = assemble(src).expect("program assembles");
    let segs = [Segment {
        base: 0,
        bytes: &image.bytes,
    }];
    let analysis = analyze(&segs, 0, &AnalyzeConfig::default());

    let mut mem = sandbox_space(&image.bytes);
    let mut log = PageLog::new();
    let mut cpu = Cpu::new();
    let mut left = budget;
    let mut exit = VmExit::OutOfBudget;
    while left > 0 {
        let before = cpu.insn_count;
        exit = cpu.run_observed(&mut mem, Some(left), &mut log);
        left = left.saturating_sub(cpu.insn_count - before);
        match exit {
            VmExit::Sys(_) => continue,
            _ => break,
        }
    }

    let observed_read = log.pages_read();
    let observed_written = log.pages_written();
    let fp = &analysis.footprint;
    let reads_ok = observed_read
        .iter()
        .all(|&p| fp.reads.contains(p) || fp.writes.contains(p));
    let writes_ok = observed_written.iter().all(|&p| fp.writes.contains(p));

    GateOutcome {
        observed_read,
        observed_written,
        exit: format!("{exit:?}"),
        insns: cpu.insn_count,
        sound: reads_ok && writes_ok,
        analysis,
    }
}

/// Renders one markdown table row for the gate report.
pub fn report_row(name: &str, g: &GateOutcome) -> String {
    let fp = &g.analysis.footprint;
    format!(
        "| {} | {} | {} | {} | {} | {} | {} |",
        name,
        fp.steps,
        fp.reads,
        fp.writes,
        PageSet::Ranges(vpn_ranges(&g.observed_read)),
        PageSet::Ranges(vpn_ranges(&g.observed_written)),
        if g.sound { "yes" } else { "**NO**" },
    )
}

fn vpn_ranges(sorted: &[u64]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for &v in sorted {
        match out.last_mut() {
            Some((_, l)) if *l + 1 == v => *l = v,
            _ => out.push((v, v)),
        }
    }
    out
}
