//! The two workloads built from the paper's §6.2 programs as the
//! library ships them (`workloads::*::run`, opaque to the benchmark):
//!
//! * `forkjoin_coarse` — the coarse-grained claim: a few big forks,
//!   native compute between them, a few dense merges. The substrate
//!   (bulk `read_u64s`/`write_u64s`, merges) should stay in the noise,
//!   which makes this the "prediction: no change" row for almost every
//!   optimisation and the guard against overhead creeping into the
//!   bulk paths.
//! * `sync_fine` — the fine-grained cost: word-granular `memory` access
//!   (about eight translated accesses per butterfly), a merge per
//!   barrier, and native-thread rendezvous through
//!   `runtime::{ThreadGroup, dsched}`. `memory`, `kernel` and `runtime`
//!   do nearly all the work; `vm` and `cluster` none.

use determinator::workloads::{Mode, RunResult, blackscholes, fft, lu, matmult, md5, qsort};

use super::{Part, THREADS, Workload, part};
use crate::seed::Rng;

#[derive(Clone, Copy, Debug)]
pub struct CoarseInputs {
    pub md5: md5::Md5Config,
    pub matmult: matmult::MatmultConfig,
    pub qsort: qsort::QsortConfig,
    pub blackscholes: blackscholes::BsConfig,
}

pub fn coarse_inputs(mut rng: Rng) -> CoarseInputs {
    let keyspace = rng.jitter(100_000, 3);
    CoarseInputs {
        md5: md5::Md5Config {
            threads: THREADS,
            keyspace,
            target: rng.below(keyspace),
        },
        // n moves the work by n³: one step is already 8 ‰, so it stays.
        matmult: matmult::MatmultConfig {
            threads: THREADS,
            n: 384,
        },
        // The pivot is picked by position, so another n splits the
        // array elsewhere and moves the makespan by several percent.
        qsort: qsort::QsortConfig {
            depth: 1,
            n: 1 << 19,
        },
        blackscholes: blackscholes::BsConfig {
            threads: THREADS,
            options: rng.jitter(65_536, 3) as usize,
            quantum_ns: blackscholes::PAPER_QUANTUM_NS,
        },
    }
}

#[derive(Clone, Copy, Debug)]
pub struct FineInputs {
    pub fft: fft::FftConfig,
    pub lu_n: usize,
    pub blackscholes: blackscholes::BsConfig,
}

pub fn fine_inputs(mut rng: Rng) -> FineInputs {
    FineInputs {
        // Powers of two and n³ leave no room for a few-‰ step; the
        // seed moves the option count only.
        fft: fft::FftConfig {
            threads: THREADS,
            log2n: 14,
        },
        lu_n: 128,
        blackscholes: blackscholes::BsConfig {
            threads: THREADS,
            options: rng.jitter(32_768, 3) as usize,
            quantum_ns: 100_000,
        },
    }
}

/// One library call: the part (and span) name, the relative-speed
/// metric it feeds, and the call itself.
struct Program {
    name: &'static str,
    rel_speed: &'static str,
    run: Box<dyn Fn(Mode) -> RunResult>,
}

fn program(
    name: &'static str,
    rel_speed: &'static str,
    run: impl Fn(Mode) -> RunResult + 'static,
) -> Program {
    Program {
        name,
        rel_speed,
        run: Box::new(run),
    }
}

pub struct Section62 {
    programs: Vec<Program>,
    /// `Mode::Baseline` clocks, computed once at build.
    baseline_ns: Vec<u64>,
}

impl Section62 {
    fn build(programs: Vec<Program>) -> Section62 {
        let mut set = Section62 {
            programs,
            baseline_ns: Vec::new(),
        };
        set.baseline_ns = set
            .run_all(Mode::Baseline)
            .iter()
            .map(|p| p.vclock_ns)
            .collect();
        set
    }

    pub fn forkjoin_coarse(rng: Rng) -> Section62 {
        let i = coarse_inputs(rng);
        Section62::build(vec![
            program("md5", "workloads.rel_speed_md5", move |m| {
                md5::run(m, i.md5)
            }),
            program("matmult", "workloads.rel_speed_matmult", move |m| {
                matmult::run(m, i.matmult)
            }),
            program("qsort", "workloads.rel_speed_qsort", move |m| {
                qsort::run(m, i.qsort)
            }),
            program(
                "blackscholes",
                "workloads.rel_speed_blackscholes",
                move |m| blackscholes::run(m, i.blackscholes),
            ),
        ])
    }

    pub fn sync_fine(rng: Rng) -> Section62 {
        let i = fine_inputs(rng);
        let lu_cfg = move |layout| lu::LuConfig {
            threads: THREADS,
            n: i.lu_n,
            layout,
        };
        Section62::build(vec![
            program("fft", "workloads.rel_speed_fft", move |m| {
                fft::run(m, i.fft)
            }),
            program("lu_cont", "workloads.rel_speed_lu_cont", move |m| {
                lu::run(m, lu_cfg(lu::Layout::Contiguous))
            }),
            program("lu_noncont", "workloads.rel_speed_lu_noncont", move |m| {
                lu::run(m, lu_cfg(lu::Layout::NonContiguous))
            }),
            program("bs_fineq", "workloads.rel_speed_bs_fineq", move |m| {
                blackscholes::run(m, i.blackscholes)
            }),
        ])
    }

    fn run_all(&self, mode: Mode) -> Vec<Part> {
        self.programs
            .iter()
            .map(|p| part("workloads", p.name, || Ok(Part::of_run((p.run)(mode)))))
            .collect()
    }
}

impl Workload for Section62 {
    fn iterate(&mut self) -> Vec<Part> {
        self.run_all(Mode::Determinator)
    }

    /// Baseline-mode clock ÷ Determinator-mode clock per program:
    /// Figure 7's number, exact because both clocks are virtual.
    fn fixed_metrics(&self, parts: &[Part]) -> Vec<(&'static str, f64)> {
        self.programs
            .iter()
            .zip(&self.baseline_ns)
            .zip(parts)
            .filter(|(_, det)| det.vclock_ns > 0)
            .map(|((p, base), det)| (p.rel_speed, *base as f64 / det.vclock_ns as f64))
            .collect()
    }
}
