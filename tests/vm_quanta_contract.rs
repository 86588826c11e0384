//! The VM's side of the two-clock contract, where plain `cargo test`
//! sees it: the four corpus kernels as `Program::Vm` children,
//! preempted every 2 µs of virtual time and resumed through the fused
//! `put_get`, then merged back. Virtual time, every VM counter the
//! kernel forwards and the merged image are constants — recorded at
//! commit 1ede57b, before the interpreter pinned pages (DESIGN.md §4,
//! "Run-scoped pins"). An interpreter change that moves one of them
//! changed behaviour, not just host time; re-baselining is a decision
//! for CHANGES.md, never an edit made to get this file green.
//!
//! The clock field has been re-baselined once, by PR 24 (CHANGES.md),
//! and by arithmetic rather than by reading the new number off a run:
//! the sandbox is 16 pages alone in page-table leaf 0, so each of the
//! four `Copy`s now shares that leaf (`space_clone_ps`, 300 ns) where
//! it installed 16 pages (16 × `page_map_ps` = 480 ns) — 528 131 −
//! 4 × (16 × 30 − 300) = 527 411 ns. The six VM counters and the
//! digest are still the ones recorded at 1ede57b.

use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

use determinator::kernel::{
    ConflictPolicy, CopySpec, GetSpec, Kernel, KernelConfig, Perm, Program, PutSpec, Region, Regs,
    RunOutcome, StopReason,
};
use determinator::vm::{assemble, corpus};

/// Code and the kernels' working sets (the corpus's standard sandbox).
const SANDBOX: Region = Region {
    start: 0,
    end: 0x10000,
};
const QUANTUM_NS: u64 = 2_000;
const QUANTA: u32 = 20;

/// Runs the scenario; returns the outcome and the root's final digest.
fn run() -> (RunOutcome, u64) {
    let images: Vec<_> = [
        corpus::FFT_KERNEL,
        corpus::MATMULT_KERNEL,
        corpus::MD5_KERNEL,
        corpus::QSORT_KERNEL,
    ]
    .into_iter()
    .map(|src| assemble(src).expect("corpus kernel assembles"))
    .collect();
    let children = images.len() as u64;
    let digest = Arc::new(AtomicU64::new(0));
    let root_digest = Arc::clone(&digest);
    let out = Kernel::new(KernelConfig::default()).run(move |ctx| {
        ctx.mem_mut().map_zero(SANDBOX, Perm::RW)?;
        for (k, image) in images.iter().enumerate() {
            // Every kernel is linked at 0; the copy is taken at the put.
            ctx.mem_mut().write(0, &image.bytes)?;
            ctx.put(
                k as u64,
                PutSpec::new()
                    .program(Program::Vm)
                    .regs(Regs::at_entry(0))
                    .copy(CopySpec::mirror(SANDBOX))
                    .snap()
                    .start_limited(QUANTUM_NS),
            )?;
        }
        for _ in 1..QUANTA {
            for k in 0..children {
                let r = ctx.put_get(k, PutSpec::new().start_limited(QUANTUM_NS), GetSpec::new())?;
                assert_eq!(r.stop, StopReason::LimitReached);
            }
        }
        // The kernels share addresses, so later children win.
        for k in 0..children {
            let r = ctx.get(
                k,
                GetSpec::new()
                    .merge(SANDBOX)
                    .merge_policy(ConflictPolicy::ChildWins),
            )?;
            assert_eq!(r.stop, StopReason::LimitReached);
        }
        root_digest.store(ctx.mem().content_digest().value(), Ordering::Relaxed);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    (out, digest.load(Ordering::Relaxed))
}

/// What the kernel reports about the VM, in one comparable value:
/// `(vclock_ns, vm_instructions, vm_tlb_hits, vm_pages_walked,
/// vm_icache_hits, vm_icache_fills, root digest)`.
type Observed = (u64, u64, u64, u64, u64, u64, u64);

fn observe() -> Observed {
    let (out, digest) = run();
    let s = &out.stats;
    assert_eq!(s.limit_preemptions, 4 * QUANTA as u64);
    (
        out.vclock_ns,
        s.vm_instructions,
        s.vm_tlb_hits,
        s.vm_pages_walked,
        s.vm_icache_hits,
        s.vm_icache_fills,
        digest,
    )
}

/// Recorded at 1ede57b with this file's scenario; the clock is that
/// recording less the 720 ns derived in the header.
const AT_1EDE57B: Observed = (
    527_411, // 528_131 − 4 × (16 × 30 − 300)
    160_000,
    41_006,
    15,
    159_807,
    193,
    18_126_479_599_095_609_372,
);

#[test]
fn twenty_quanta_cost_exactly_what_they_cost_at_1ede57b() {
    assert_eq!(observe(), AT_1EDE57B);
}
