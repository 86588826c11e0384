//! The paper's parallel benchmarks (§6.2–6.3), each in two modes:
//!
//! * [`Mode::Determinator`] — private-workspace threads on the
//!   calibrated cost model: fork pays copy-on-write mapping, join pays
//!   byte-granularity merge, exactly as the kernel counts them;
//! * [`Mode::Baseline`] — the *same* workload and fork/join structure
//!   on the conventional-OS model: threads share memory directly
//!   (copy/merge operations cost zero virtual time) and pay typical
//!   pthread dispatch costs. This plays the role of "pthreads on
//!   Ubuntu Linux" in Figures 7, 9, 10.
//!
//! Every workload computes **real results** natively (real MD5, real
//! matrix products, real option prices…) and validates them; only the
//! *clock* is virtual, driven by declared per-operation costs
//! (identical in both modes) plus the kernel's counted operations.

pub mod blackscholes;
pub mod dist;
pub mod fft;
pub mod lu;
pub mod mathx;
pub mod matmult;
pub mod md5;
pub mod qsort;
pub mod sharded;

use det_kernel::{CostModel, KernelConfig, KernelStats};

/// Which system model a run uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Determinator: private workspaces, snapshots, merges — all
    /// charged by the calibrated cost model.
    Determinator,
    /// Conventional shared-memory OS ("pthreads on Linux"): identical
    /// structure, zero-cost sharing, realistic thread dispatch.
    Baseline,
}

impl Mode {
    /// The kernel configuration this mode runs under.
    pub fn config(self) -> KernelConfig {
        KernelConfig::builder()
            .costs(match self {
                Mode::Determinator => CostModel::calibrated(),
                Mode::Baseline => baseline_costs(),
            })
            .build()
    }
}

/// The conventional-OS cost model: sharing is free (hardware cache
/// coherence), thread creation costs what `pthread_create` did on the
/// paper's testbed (~15 µs), syscalls ~300 ns.
pub fn baseline_costs() -> CostModel {
    CostModel {
        syscall_ps: 300_000,
        spawn_ps: 15_000_000,
        resume_ps: 1_000_000,
        // Conventional threads block and wake through the same
        // scheduler dispatch `resume_ps` models; no separate
        // rendezvous park is charged.
        rendezvous_ps: 0,
        page_map_ps: 0,
        space_clone_ps: 0,
        page_scan_ps: 0,
        word_compare_ps: 0,
        byte_compare_ps: 0,
        byte_copy_ps: 0,
        vm_insn_ps: 1_000,
        // Hardware TLB: misses are absorbed into the per-instruction
        // rate, as they are for native pthreads code.
        vm_tlb_fill_ps: 0,
        // Conventional threads don't checkpoint; the baseline never
        // issues the syscall, so the per-leaf rate is moot.
        checkpoint_leaf_ps: 0,
    }
}

/// Result of one benchmark run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Virtual-time makespan in nanoseconds (the root space's clock).
    pub vclock_ns: u64,
    /// Kernel operation counters.
    pub stats: KernelStats,
    /// Workload-specific checksum (must match across modes and thread
    /// counts — the determinism *and* correctness witness).
    pub checksum: u64,
}

/// Virtual seconds as f64 (for report printing).
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Speedup of `b` relative to `a` in virtual time.
pub fn speedup(base_ns: u64, other_ns: u64) -> f64 {
    base_ns as f64 / other_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_differ_only_in_costs() {
        let d = Mode::Determinator.config();
        let b = Mode::Baseline.config();
        assert_ne!(d.costs, b.costs);
        assert_eq!(b.costs.byte_compare_ps, 0);
        assert!(d.costs.byte_compare_ps > 0);
    }

    #[test]
    fn helpers() {
        assert_eq!(secs(1_500_000_000), 1.5);
        assert_eq!(speedup(200, 100), 2.0);
    }
}
