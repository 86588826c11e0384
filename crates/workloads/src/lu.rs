//! The lu benchmark: parallel LU decomposition with a barrier per
//! elimination step — the paper's fine-grained stress case (§6.2).
//!
//! Two row-distribution layouts reproduce the SPLASH-2 pair. The
//! arithmetic is identical; what differs is how many threads write
//! each *page* between two barriers, which is all the join cares about:
//!
//! * **contiguous** (`lu_cont`): thread t owns a contiguous row block,
//!   so (with blocks of whole pages) every page it dirties has one
//!   writer. At the barrier the parent still holds the fork-time frame
//!   of that page and simply takes the thread's frame — a page-table
//!   update, no bytes examined (`MergeStats::pages_adopted`);
//! * **non-contiguous** (`lu_noncont`): rows are interleaved
//!   round-robin, so every page of the trailing matrix holds rows of
//!   every thread. Only the first thread joined finds the parent's
//!   frame untouched; each later one meets a page the parent has
//!   already merged into and must be diffed against its snapshot word
//!   by word (`MergeStats::pages_diffed`) — once per thread per step,
//!   measurably worse under Determinator, as in Figure 7.

use det_kernel::{Kernel, KernelConfig, Region, RunOutcome};
use det_memory::Perm;
use det_runtime::threads::{self, ThreadGroup};

use crate::mathx::XorShift64;
use crate::{Mode, RunResult};

/// Virtual cost per trailing-matrix element update (2 flops).
pub const NS_PER_UPDATE: u64 = 2;
/// Virtual cost per L-column element (division).
pub const NS_PER_DIV: u64 = 8;

const BASE: u64 = 0x1000_0000;

/// Row-to-thread layout.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layout {
    /// Contiguous row blocks.
    Contiguous,
    /// Round-robin interleaved rows.
    NonContiguous,
}

/// Benchmark parameters.
#[derive(Clone, Copy, Debug)]
pub struct LuConfig {
    /// Threads.
    pub threads: usize,
    /// Matrix dimension.
    pub n: usize,
    /// Row distribution.
    pub layout: Layout,
}

fn region_for(n: usize) -> Region {
    let end = (BASE + (n * n * 8) as u64 + 0xfff) & !0xfff;
    Region::new(BASE, end)
}

fn owns(layout: Layout, threads: usize, n: usize, t: usize, row: usize) -> bool {
    match layout {
        Layout::Contiguous => {
            let per = n.div_ceil(threads);
            row / per == t
        }
        Layout::NonContiguous => row % threads == t,
    }
}

/// Runs the LU decomposition under an arbitrary kernel configuration
/// and returns the raw outcome (conformance harness entry point).
/// Validates `L·U ≈ A` at sampled entries in-run.
pub fn outcome(kcfg: KernelConfig, cfg: LuConfig) -> RunOutcome {
    let n = cfg.n;
    let threads = cfg.threads.max(1);
    let layout = cfg.layout;
    let region = region_for(n);
    Kernel::new(kcfg).run(move |ctx| {
        ctx.mem_mut().map_zero(region, Perm::RW)?;
        let mut rng = XorShift64::new(0x10);
        let mut a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        for i in 0..n {
            a[i * n + i] += n as f64; // Diagonal dominance.
        }
        let original = a.clone();
        ctx.mem_mut().write_f64s(BASE, &a)?;

        let mut group = ThreadGroup::new(ctx, region, 0);
        for t in 0..threads {
            group.fork(t as u64, move |c| {
                for k in 0..n - 1 {
                    // Rows below k that this thread owns.
                    let akk = c.mem().read_f64(BASE + ((k * n + k) * 8) as u64)?;
                    let row_k = c.mem().read_f64s(BASE + ((k * n + k) * 8) as u64, n - k)?;
                    let mut work = 0u64;
                    for i in (k + 1)..n {
                        if !owns(layout, threads, n, t, i) {
                            continue;
                        }
                        let aik = c.mem().read_f64(BASE + ((i * n + k) * 8) as u64)?;
                        let l = aik / akk;
                        let mut row_i =
                            c.mem().read_f64s(BASE + ((i * n + k) * 8) as u64, n - k)?;
                        row_i[0] = l; // Store L in place.
                        for j in 1..n - k {
                            row_i[j] -= l * row_k[j];
                        }
                        c.mem_mut()
                            .write_f64s(BASE + ((i * n + k) * 8) as u64, &row_i)?;
                        work += NS_PER_DIV + (n - k - 1) as u64 * NS_PER_UPDATE;
                    }
                    c.charge(work.max(1))?;
                    if k + 1 < n - 1 {
                        threads::barrier(c)?;
                    }
                }
                Ok(0)
            })?;
        }
        let ids: Vec<u64> = (0..threads as u64).collect();
        group.run_to_completion(&ids)?;

        // Validate L·U ≈ A at sampled entries.
        let lu = ctx.mem().read_f64s(BASE, n * n)?;
        let mut spot = XorShift64::new(77);
        for _ in 0..12 {
            let i = spot.below(n as u64) as usize;
            let j = spot.below(n as u64) as usize;
            let mut acc = 0f64;
            for k in 0..=i.min(j) {
                let l = if k == i { 1.0 } else { lu[i * n + k] };
                let u = if k <= j { lu[k * n + j] } else { 0.0 };
                acc += l * u;
            }
            let want = original[i * n + j];
            assert!(
                (acc - want).abs() < 1e-6 * n as f64,
                "LU[{i}][{j}] = {acc}, want {want}"
            );
        }
        let mut d = det_memory::ContentDigest::new();
        for v in &lu {
            d.update_u64(v.to_bits());
        }
        Ok((d.value() & 0x7fff_ffff) as i32)
    })
}

/// Runs the LU decomposition (no pivoting; the generated matrix is
/// diagonally dominant).
pub fn run(mode: Mode, cfg: LuConfig) -> RunResult {
    let outcome = outcome(mode.config(), cfg);
    let checksum = outcome.exit.expect("lu trapped") as u64;
    RunResult {
        vclock_ns: outcome.vclock_ns,
        stats: outcome.stats,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposes_correctly_both_layouts() {
        for layout in [Layout::Contiguous, Layout::NonContiguous] {
            let cfg = LuConfig {
                threads: 3,
                n: 48,
                layout,
            };
            let d = run(Mode::Determinator, cfg);
            let b = run(Mode::Baseline, cfg);
            assert_eq!(d.checksum, b.checksum, "{layout:?}");
        }
    }

    #[test]
    fn fine_grained_overhead_is_high() {
        // lu is the paper's pathological case: expect a clearly larger
        // det/baseline ratio than coarse benchmarks.
        let cfg = LuConfig {
            threads: 4,
            n: 96,
            layout: Layout::Contiguous,
        };
        let d = run(Mode::Determinator, cfg).vclock_ns as f64;
        let b = run(Mode::Baseline, cfg).vclock_ns as f64;
        assert!(d / b > 2.0, "lu should hurt, got {}", d / b);
    }

    #[test]
    fn noncontiguous_is_worse_than_contiguous() {
        let mk = |layout| LuConfig {
            threads: 4,
            n: 96,
            layout,
        };
        let cont = run(Mode::Determinator, mk(Layout::Contiguous)).vclock_ns;
        let noncont = run(Mode::Determinator, mk(Layout::NonContiguous)).vclock_ns;
        assert!(
            noncont > cont,
            "interleaved rows must cost more: {cont} vs {noncont}"
        );
    }
}
