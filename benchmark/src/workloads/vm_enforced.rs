//! `vm_enforced` — system-enforced determinism for untrusted code
//! (§3.2 instruction limits): four `Program::Vm` children running the
//! corpus kernels, preempted by `start_limited` and resumed through the
//! fused `put_get`. Three parts use the same layers differently inside
//! one workload: `long` quanta leave the time in the `vm` interpreter,
//! `short` quanta move it to the `kernel` boundary, and `stride` puts it
//! in `memory` translation (every load misses the software TLB).
//!
//! Dispatch is the default (inline): the waiting parent interprets the
//! child, so the whole workload runs on one host thread.

use determinator::kernel::{
    ConflictPolicy, CopySpec, GetSpec, Kernel, KernelConfig, Perm, Program, PutSpec, Region, Regs,
    RunOutcome, SpaceCtx, StopReason,
};
use determinator::memory::ContentDigest;
use determinator::vm::{Image, assemble, corpus};

use super::{Part, Workload, part};
use crate::seed::Rng;
use crate::span;

/// The corpus's standard sandbox: 64 KiB holding code and the kernels'
/// working sets, and the 512 KiB far window the stride loop walks.
const CODE: Region = Region {
    start: 0,
    end: 0x10000,
};
const DATA: Region = Region {
    start: 0x10_0000,
    end: 0x18_0000,
};

#[derive(Clone, Copy, Debug)]
pub struct Inputs {
    /// Quantum lengths in virtual ns — one VM instruction each — and
    /// how many of them every child gets.
    pub long_quantum_ns: u64,
    pub long_quanta: u32,
    pub short_quantum_ns: u64,
    pub short_quanta: u32,
    pub stride_insns: u64,
}

pub fn inputs(mut rng: Rng) -> Inputs {
    Inputs {
        long_quantum_ns: rng.jitter(100_000, 3),
        long_quanta: 50,
        short_quantum_ns: rng.jitter(2_000, 3),
        short_quanta: 2_000,
        stride_insns: rng.jitter(2_000_000, 3),
    }
}

pub struct VmEnforced {
    inputs: Inputs,
    kernels: Vec<Image>,
    stride: Image,
}

impl VmEnforced {
    pub fn build(rng: Rng) -> Result<VmEnforced, String> {
        let asm = |src| assemble(src).map_err(|e| format!("corpus kernel: {e:?}"));
        Ok(VmEnforced {
            inputs: inputs(rng),
            kernels: [
                corpus::FFT_KERNEL,
                corpus::MATMULT_KERNEL,
                corpus::MD5_KERNEL,
                corpus::QSORT_KERNEL,
            ]
            .into_iter()
            .map(asm)
            .collect::<Result<_, _>>()?,
            stride: asm(corpus::TLB_MISS_STRIDE)?,
        })
    }
}

type KResult<T> = determinator::kernel::Result<T>;

fn put(ctx: &mut SpaceCtx, child: u64, spec: PutSpec) -> KResult<()> {
    let _s = span::enter("kernel", "put");
    ctx.put(child, spec).map(|_| ())
}

fn get(ctx: &mut SpaceCtx, child: u64, spec: GetSpec) -> KResult<determinator::kernel::GetResult> {
    let _s = span::enter("kernel", "get");
    ctx.get(child, spec)
}

/// Forks one VM child per image, each with the sandbox mirrored and
/// snapshotted, and starts it on its first quantum.
fn fork_children(ctx: &mut SpaceCtx, images: &[Image], quantum_ns: u64) -> KResult<()> {
    ctx.mem_mut().map_zero(CODE, Perm::RW)?;
    ctx.mem_mut().map_zero(DATA, Perm::RW)?;
    for (k, image) in images.iter().enumerate() {
        // Every kernel is linked at 0; the copy is taken at the put, so
        // the next image may overwrite this one straight after.
        ctx.mem_mut().write(0, &image.bytes)?;
        put(
            ctx,
            k as u64,
            PutSpec::new()
                .program(Program::Vm)
                .regs(Regs::at_entry(0))
                .copy(CopySpec::mirror(CODE)),
        )?;
        put(
            ctx,
            k as u64,
            PutSpec::new()
                .copy(CopySpec::mirror(DATA))
                .snap()
                .start_limited(quantum_ns),
        )?;
    }
    Ok(())
}

/// Drives `children` round-robin through `quanta` quanta each and folds
/// the final registers into a checksum. With `merge`, every child's
/// sandbox is merged back (the kernels share addresses, so later
/// children win) and the merged image is digested too.
fn quanta_part(images: &[Image], quantum_ns: u64, quanta: u32, merge: bool) -> RunOutcome {
    let children = images.len() as u64;
    Kernel::new(KernelConfig::default()).run(|ctx| {
        fork_children(ctx, images, quantum_ns)?;
        let expect_preempted = |stop| {
            assert_eq!(
                stop,
                StopReason::LimitReached,
                "corpus kernels never stop by themselves"
            );
        };
        for k in 0..children {
            expect_preempted(get(ctx, k, GetSpec::new())?.stop);
        }
        for _ in 2..quanta {
            for k in 0..children {
                let _s = span::enter("kernel", "put_get");
                let r = ctx.put_get(k, PutSpec::new().start_limited(quantum_ns), GetSpec::new())?;
                expect_preempted(r.stop);
            }
        }
        let mut digest = ContentDigest::new();
        for k in 0..children {
            let mut collect = GetSpec::new().regs();
            if merge {
                collect = collect.merge(CODE).merge_policy(ConflictPolicy::ChildWins);
            }
            put(ctx, k, PutSpec::new().start_limited(quantum_ns))?;
            let r = get(ctx, k, collect)?;
            expect_preempted(r.stop);
            let regs = r.regs.expect("requested");
            digest.update_u64(regs.pc);
            regs.gpr.iter().for_each(|g| digest.update_u64(*g));
        }
        if merge {
            digest.update_u64(ctx.mem().content_digest().value());
        }
        Ok((digest.value() & 0x7fff_ffff) as i32)
    })
}

impl Workload for VmEnforced {
    fn iterate(&mut self) -> Vec<Part> {
        let i = self.inputs;
        vec![
            part("vm", "long", || {
                Part::of_outcome(quanta_part(
                    &self.kernels,
                    i.long_quantum_ns,
                    i.long_quanta,
                    true,
                ))
            }),
            part("vm", "short", || {
                Part::of_outcome(quanta_part(
                    &self.kernels,
                    i.short_quantum_ns,
                    i.short_quanta,
                    false,
                ))
            }),
            part("vm", "stride", || {
                Part::of_outcome(quanta_part(
                    std::slice::from_ref(&self.stride),
                    i.stride_insns / 2,
                    2,
                    false,
                ))
            }),
        ]
    }
}
