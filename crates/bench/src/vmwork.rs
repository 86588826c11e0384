//! VM-coded workload kernels: the inner loops of the paper's
//! benchmarks (fft, matmult, md5) hand-written in det-vm assembly, so
//! the interpreter's real throughput — MIPS on this host — can be
//! measured per workload shape rather than only on the synthetic ALU
//! loop. Used by the `vm` bench group (benches/substrate.rs) and the
//! report binary's per-workload MIPS table.
//!
//! Each kernel initializes its own data in VM code and then loops
//! forever over a working set that fits the software TLB, the shape of
//! every paper workload's steady state; the harness bounds execution
//! with the instruction budget. Throughput is wall-clock (indicative);
//! the cache-hit statistics reported alongside are exact and
//! deterministic.

use std::time::Instant;

use det_vm::{CpuCacheStats, VmExit};

/// A named VM assembly kernel.
pub struct VmKernel {
    /// Short name (matches the workload crate's module names).
    pub name: &'static str,
    /// Assembly source; must loop indefinitely.
    pub src: &'static str,
}

/// The synthetic ALU loop and the TLB-hostile stride loop, re-exported
/// from the registered corpus so existing bench call sites keep their
/// names.
pub use det_vm::corpus::{ALU_LOOP, TLB_MISS_STRIDE};

/// The paper-workload kernels measured by the MIPS table and benches.
/// Sources live in [`det_vm::corpus`] so the conformance registry and
/// the static analyzer's soundness gate exercise the same programs.
pub const KERNELS: &[VmKernel] = &[
    VmKernel {
        name: "fft",
        src: det_vm::corpus::FFT_KERNEL,
    },
    VmKernel {
        name: "matmult",
        src: det_vm::corpus::MATMULT_KERNEL,
    },
    VmKernel {
        name: "md5",
        src: det_vm::corpus::MD5_KERNEL,
    },
    VmKernel {
        name: "qsort",
        src: det_vm::corpus::QSORT_KERNEL,
    },
];

/// Result of one measured kernel run.
pub struct KernelRun {
    /// Instructions retired.
    pub insns: u64,
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// The CPU's cache counters over the run.
    pub stats: CpuCacheStats,
}

impl KernelRun {
    /// Million instructions per second.
    pub fn mips(&self) -> f64 {
        self.insns as f64 * 1e3 / self.wall_ns.max(1) as f64
    }

    /// Nanoseconds per instruction.
    pub fn ns_per_insn(&self) -> f64 {
        self.wall_ns as f64 / self.insns.max(1) as f64
    }
}

/// The standard kernel sandbox: 16 pages of code + the data window the
/// kernels use (plus the stride bench's far pages).
pub use det_vm::corpus::sandbox;

/// Runs `src` for `budget` instructions (after a warm-up quarter) and
/// reports throughput + cache stats. `fast` selects the TLB/icache
/// path or the pre-TLB reference interpreter.
pub fn run_kernel(src: &str, budget: u64, fast: bool) -> KernelRun {
    let (mut cpu, mut mem) = sandbox(src);
    if !fast {
        cpu.fast_path = false;
    }
    assert_eq!(cpu.run(&mut mem, Some(budget / 4)), VmExit::OutOfBudget);
    let mark = cpu.cache_stats;
    let start = Instant::now();
    assert_eq!(cpu.run(&mut mem, Some(budget)), VmExit::OutOfBudget);
    let wall_ns = start.elapsed().as_nanos() as u64;
    KernelRun {
        insns: budget,
        wall_ns,
        stats: cpu.cache_stats.since(&mark),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kernel assembles, runs indefinitely, and (except the
    /// deliberately hostile stride loop) keeps the TLB hot.
    #[test]
    fn kernels_run_and_stay_hot() {
        for k in KERNELS {
            let run = run_kernel(k.src, 200_000, true);
            assert!(
                run.stats.hit_rate() > 0.99,
                "{}: hit rate {}",
                k.name,
                run.stats.hit_rate()
            );
        }
        let alu = run_kernel(ALU_LOOP, 100_000, true);
        assert!(alu.stats.hit_rate() > 0.999);
    }

    /// The stride loop really does defeat the direct-mapped TLB: every
    /// load walks the page table.
    #[test]
    fn stride_loop_misses() {
        let run = run_kernel(TLB_MISS_STRIDE, 90_000, true);
        // 1 load per 1.5 instructions (ldd, ldd, beq), every one a
        // fill: walk count tracks the load count.
        assert!(
            run.stats.tlb_read_fills > run.insns / 4,
            "fills {} of {} insns",
            run.stats.tlb_read_fills,
            run.insns
        );
    }
}
