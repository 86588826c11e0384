//! Workloads for the real-thread shard cluster (`det_cluster`'s
//! [`ClusterSpec`]): the fan-outs behind the §6.3 scaling figures and
//! the shard-count-invariance conformance scenarios.
//!
//! Every workload here addresses **logical nodes**; the shard count is
//! a free parameter that must change wall-clock time only. Each
//! workload writes its deterministic result to the console device, so
//! its bytes land in the conformance bundle's `[outputs]` section.

use det_cluster::{ClusterOutcome, ClusterSpec, JobSpec};
use det_kernel::{
    CopySpec, DeviceId, FaultPlan, GetSpec, NativeResult, Program, PutSpec, Region, Regs, SpaceCtx,
    StopReason,
};
use det_memory::Perm;
use det_runtime::dsched::{self, DSched};

use crate::md5::{NS_PER_HASH, candidate, md5};

pub(crate) const BASE: u64 = 0x1000_0000;

/// Parameters of a sharded run.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Logical nodes (fixes every deterministic quantity).
    pub nodes: u16,
    /// Physical shards (OS threads; wall-clock only).
    pub shards: usize,
    /// Workload size knob (keyspace, rounds, …).
    pub size: u64,
    /// Fault-injection plan for the root kernel.
    pub faults: FaultPlan,
}

impl ShardedConfig {
    /// A quick configuration for tests.
    pub fn quick(nodes: u16, shards: usize) -> ShardedConfig {
        ShardedConfig {
            nodes,
            shards,
            size: 2_000,
            faults: FaultPlan::default(),
        }
    }

    pub(crate) fn spec(&self) -> ClusterSpec {
        let mut spec = ClusterSpec::new(self.nodes.max(1), self.shards.max(1));
        spec.faults = self.faults.clone();
        spec
    }
}

/// Result of a sharded workload run.
pub struct ShardedResult {
    /// The full cluster outcome (bundle, stats, artifacts).
    pub outcome: ClusterOutcome,
    /// Workload checksum — must be invariant across shard counts and
    /// host load.
    pub checksum: u64,
}

pub(crate) fn finish(outcome: ClusterOutcome) -> ShardedResult {
    // A run cut short by an injected root fault has no checksum; the
    // sentinel keeps the result deterministic without panicking.
    let checksum = match outcome.exit {
        Ok(code) => code as u32 as u64,
        Err(_) => u64::MAX,
    };
    ShardedResult { outcome, checksum }
}

// ---------------------------------------------------------------------
// md5-scan: embarrassingly parallel real compute (the scaling figure).
// ---------------------------------------------------------------------

/// The md5 cluster workloads' shared page of per-node result slots
/// (node `k`'s at `BASE + 8k`).
pub(crate) const MD5_SLOTS: Region = Region {
    start: BASE,
    end: BASE + 0x1000,
};

/// The scan every md5 cluster workload runs per node: hashes the
/// candidates `keys.0..keys.1` against `digest`, charges their
/// declared cost, and writes `found + 1` to `slot` — so an untouched
/// slot (0) means "not here" and key 0 is still a representable
/// answer.
pub(crate) fn md5_scan_range(
    c: &mut SpaceCtx,
    digest: [u8; 16],
    keys: (u64, u64),
    slot: u64,
) -> NativeResult {
    let (lo, hi) = keys;
    let mut found = u64::MAX;
    for i in lo..hi {
        if md5(&candidate(i)) == digest {
            found = i;
        }
    }
    c.charge((hi - lo) * NS_PER_HASH)?;
    if found != u64::MAX {
        c.mem_mut().write_u64(slot, found + 1)?;
    }
    Ok(0)
}

/// The lowest key any of `nodes` per-node slots reports
/// (`u64::MAX` if none did) — the decode of [`md5_scan_range`]'s slots.
pub(crate) fn md5_found(ctx: &SpaceCtx, nodes: u64) -> det_kernel::Result<u64> {
    let mut found = u64::MAX;
    for k in 0..nodes {
        let v = ctx.mem().read_u64(BASE + k * 8)?;
        if v != 0 {
            found = found.min(v - 1);
        }
    }
    Ok(found)
}

/// Brute-forces an MD5 preimage with one scanning job per logical
/// node (node 0's slice runs inside the root space). The real hash
/// work dominates, so wall-clock time scales with the shard count
/// while every deterministic quantity stays fixed.
pub fn md5_scan(cfg: ShardedConfig) -> ShardedResult {
    let nodes = cfg.spec().nodes as u64;
    let keyspace = cfg.size;
    let target = keyspace * 7 / 8;
    let digest = md5(&candidate(target));
    let outcome = cfg.spec().run(move |ctx, net| {
        ctx.mem_mut().map_zero(MD5_SLOTS, Perm::RW)?;
        let per = keyspace.div_ceil(nodes);
        for n in 1..net.nodes() {
            let keys = (n as u64 * per, ((n as u64 + 1) * per).min(keyspace));
            let slot = BASE + n as u64 * 8;
            net.fork(
                ctx,
                n as u64,
                n,
                JobSpec::native(MD5_SLOTS, move |c, _| md5_scan_range(c, digest, keys, slot)),
            )?;
        }
        // The root scans its own slice while the jobs run.
        md5_scan_range(ctx, digest, (0, per.min(keyspace)), BASE)?;
        for n in 1..net.nodes() {
            net.join(ctx, n as u64)?;
        }
        let found = md5_found(ctx, nodes)?;
        ctx.dev_write(DeviceId::ConsoleOut, &found.to_le_bytes())?;
        Ok(found as i32)
    });
    let r = finish(outcome);
    if r.outcome.exit.is_ok() {
        assert_eq!(r.checksum, target, "md5-scan missed its preimage");
    }
    r
}

// ---------------------------------------------------------------------
// migration-storm: many small cross-shard migrations, with a det-vm
// child inside every job kernel.
// ---------------------------------------------------------------------

/// Rounds of fork/join against every non-root node, where each job
/// runs a det-vm child *inside its own job kernel* (so the inline VM
/// drive exercises the whole stack on every shard) and then mixes
/// the VM's result into its slot. Dominated by migration traffic —
/// the conformance storm scenario.
pub fn migration_storm(cfg: ShardedConfig) -> ShardedResult {
    let nodes = cfg.spec().nodes as u64;
    let rounds = cfg.size.clamp(1, 64);
    let shared = Region::new(BASE, BASE + 0x1000);
    let image = det_vm::assemble(
        "
        li  r5, 0x2000
        ldd r2, [r5+0]
        muli r2, r2, 3
        addi r2, r2, 7
        std r2, [r5+8]
        ldi r1, 0
        halt
        ",
    )
    .expect("storm VM program assembles");
    let outcome = cfg.spec().run(move |ctx, net| {
        ctx.mem_mut().map_zero(shared, Perm::RW)?;
        for round in 0..rounds {
            for n in 1..net.nodes() {
                let slot = BASE + n as u64 * 8;
                let bytes = image.bytes.clone();
                net.fork(
                    ctx,
                    n as u64,
                    n,
                    JobSpec::native(shared, move |c, _| {
                        // Seed the VM child from this job's slot, run
                        // it in a private child space, merge back.
                        let vm_region = Region::new(0, 0x3000);
                        c.mem_mut().map_zero(vm_region, Perm::RW)?;
                        c.mem_mut().write(0, &bytes)?;
                        let seed = c.mem().read_u64(slot)?;
                        c.mem_mut().write_u64(0x2000, seed + round)?;
                        c.put(
                            0,
                            PutSpec::new()
                                .program(Program::Vm)
                                .copy(CopySpec::mirror(vm_region))
                                .regs(Regs::at_entry(0))
                                .snap()
                                .start(),
                        )?;
                        let r = c.get(0, GetSpec::new().merge(vm_region))?;
                        assert_eq!(r.stop, StopReason::Halted);
                        let out = c.mem().read_u64(0x2008)?;
                        c.mem_mut().write_u64(slot, out ^ (seed >> 3))?;
                        Ok(0)
                    }),
                )?;
            }
            for n in 1..net.nodes() {
                net.join(ctx, n as u64)?;
            }
        }
        let mut acc = 0u64;
        for k in 1..nodes {
            acc = acc
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(ctx.mem().read_u64(BASE + k * 8)?);
        }
        ctx.dev_write(DeviceId::ConsoleOut, &acc.to_le_bytes())?;
        Ok((acc & 0x7fff_ffff) as i32)
    });
    finish(outcome)
}

// ---------------------------------------------------------------------
// dsched: deterministically scheduled lock-based threads inside
// migrated job kernels.
// ---------------------------------------------------------------------

/// Each job runs a mutex/condvar workload under the deterministic
/// scheduler *inside its job kernel*: threads contend on a shared
/// counter, and the final tally lands in the job's slot. Exercises
/// dsched's quantum accounting on every shard.
pub fn dsched_counter(cfg: ShardedConfig) -> ShardedResult {
    let nodes = cfg.spec().nodes as u64;
    let increments = cfg.size.clamp(1, 200);
    let shared = Region::new(BASE, BASE + 0x1000);
    let outcome = cfg.spec().run(move |ctx, net| {
        ctx.mem_mut().map_zero(shared, Perm::RW)?;
        for n in 1..net.nodes() {
            let slot = BASE + n as u64 * 8;
            net.fork(
                ctx,
                n as u64,
                n,
                JobSpec::native(shared, move |c, _| {
                    let work = Region::new(0x4000, 0x5000);
                    c.mem_mut().map_zero(work, Perm::RW)?;
                    let mut ds = DSched::new(c, work, 1_000, 100)?;
                    for t in 0..3u64 {
                        ds.spawn(t, move |tc| {
                            for _ in 0..increments {
                                dsched::mutex_lock(tc, 1)?;
                                let v = tc.mem().read_u64(0x4000)?;
                                tc.charge(200)?;
                                tc.mem_mut().write_u64(0x4000, v + t + 1)?;
                                dsched::mutex_unlock(tc, 1)?;
                            }
                            Ok(0)
                        })?;
                    }
                    ds.run()?;
                    let total = c.mem().read_u64(0x4000)?;
                    c.mem_mut().write_u64(slot, total)?;
                    Ok(0)
                }),
            )?;
        }
        for n in 1..net.nodes() {
            net.join(ctx, n as u64)?;
        }
        let mut acc = 0u64;
        for k in 1..nodes {
            let v = ctx.mem().read_u64(BASE + k * 8)?;
            // Three threads adding (t+1) each, `increments` times.
            assert_eq!(v, increments * 6, "dsched tally wrong on node {k}");
            acc = acc.wrapping_add(v.wrapping_mul(k + 1));
        }
        ctx.dev_write(DeviceId::ConsoleOut, &acc.to_le_bytes())?;
        Ok((acc & 0x7fff_ffff) as i32)
    });
    finish(outcome)
}

// ---------------------------------------------------------------------
// vm-prefetch: footprint-hinted leaf-pull migration (DESIGN.md §11).
// ---------------------------------------------------------------------

/// Declared virtual nanoseconds per VM instruction in a prefetch job
/// (the job drives the interpreter natively and charges by exact
/// instruction count, like `Program::Vm` children do).
const NS_PER_VM_INSN: u64 = 2;

/// Leaf granularity of the migration protocol, in bytes.
const LEAF_BYTES: u64 = (det_memory::PAGES_PER_LEAF as u64) << det_memory::PAGE_SHIFT;

/// One slot leaf per node plus a code leaf, with a VM kernel that
/// marches a pointer over its own node's slot only. With `hint` set,
/// the root asks [`SpaceCtx::analyze_footprint_from`] for each job's
/// sound page footprint — the entry registers resolve the slot
/// pointer — and attaches it via `JobSpec::touch_footprint`, so
/// migration pulls just the code leaf and the job's own slot leaf
/// instead of every leaf the shared region summarizes. The checksum
/// and console bytes must be identical with the hint on or off: a
/// sound hint may change traffic, never results.
pub fn vm_prefetch(cfg: ShardedConfig, hint: bool) -> ShardedResult {
    let nodes = cfg.spec().nodes as u64;
    let words = (cfg.size / 16).clamp(8, 128);
    let end_off = words * 8;
    let code_base = BASE + nodes * LEAF_BYTES;
    // The analyzable marching-pointer idiom: the loop branches on the
    // pointer against a bound derived from the entry register, so the
    // abstract interpreter proves the exact slot byte range.
    let image = det_vm::assemble(&format!(
        "
        addi r5, r2, 0
        addi r12, r2, {end_off}
        ldi r4, 0
    loop:
        ldd r3, [r5+0]
        muli r3, r3, 0x61d
        add r4, r4, r3
        std r4, [r5+0]
        addi r5, r5, 8
        bltu r5, r12, loop
        std r4, [r12+0]
        ldi r1, 0
        halt
        "
    ))
    .expect("prefetch VM kernel assembles");
    let image_len = image.bytes.len() as u64;
    let outcome = cfg.spec().run(move |ctx, net| {
        ctx.mem_mut()
            .map_zero(Region::new(code_base, code_base + 0x1000), Perm::RW)?;
        ctx.mem_mut().write(code_base, &image.bytes)?;
        for n in 1..net.nodes() {
            let slot = BASE + n as u64 * LEAF_BYTES;
            ctx.mem_mut()
                .map_zero(Region::new(slot, slot + 0x1000), Perm::RW)?;
            for i in 0..words {
                ctx.mem_mut()
                    .write_u64(slot + i * 8, n as u64 * 1_000_003 + i * 7919)?;
            }
        }
        let shared = Region::new(BASE, code_base + 0x1000);
        for n in 1..net.nodes() {
            let slot = BASE + n as u64 * LEAF_BYTES;
            let mut spec = JobSpec::native(shared, move |c, _| {
                let mut cpu = det_vm::Cpu::at_entry(code_base);
                cpu.regs.gpr[2] = slot;
                let exit = cpu.run(c.mem_mut(), Some(200_000));
                assert_eq!(exit, det_vm::VmExit::Halt, "prefetch VM kernel halts");
                c.charge(cpu.insn_count * NS_PER_VM_INSN)?;
                Ok(0)
            });
            if hint {
                let mut regs = Regs::at_entry(code_base);
                regs.gpr[2] = slot;
                let fp = ctx.analyze_footprint_from(code_base, image_len, &regs)?;
                assert!(
                    fp.touch_regions().is_some(),
                    "prefetch kernel's footprint must stay bounded"
                );
                spec = spec.touch_footprint(&fp);
            }
            net.fork(ctx, n as u64, n, spec)?;
        }
        for n in 1..net.nodes() {
            net.join(ctx, n as u64)?;
        }
        let mut acc = 0u64;
        for n in 1..nodes {
            let slot = BASE + n * LEAF_BYTES;
            acc = acc
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(ctx.mem().read_u64(slot + end_off)?);
        }
        ctx.dev_write(DeviceId::ConsoleOut, &acc.to_le_bytes())?;
        Ok((acc & 0x7fff_ffff) as i32)
    });
    finish(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md5_scan_finds_the_key_on_any_shard_count() {
        let a = md5_scan(ShardedConfig::quick(4, 1));
        let b = md5_scan(ShardedConfig::quick(4, 4));
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.outcome.bundle_bytes(), b.outcome.bundle_bytes());
    }

    #[test]
    fn storm_and_dsched_are_shard_count_invariant() {
        let cfg = |shards| ShardedConfig {
            size: 3,
            ..ShardedConfig::quick(3, shards)
        };
        let s1 = migration_storm(cfg(1));
        let s3 = migration_storm(cfg(3));
        assert_eq!(s1.outcome.bundle_bytes(), s3.outcome.bundle_bytes());
        let d1 = dsched_counter(cfg(1));
        let d2 = dsched_counter(cfg(2));
        assert_eq!(d1.outcome.bundle_bytes(), d2.outcome.bundle_bytes());
    }

    #[test]
    fn prefetch_hint_cuts_pulls_without_changing_results() {
        let on = vm_prefetch(ShardedConfig::quick(4, 2), true);
        let off = vm_prefetch(ShardedConfig::quick(4, 2), false);
        assert_eq!(on.checksum, off.checksum, "hint changed the result");
        assert_eq!(
            on.outcome.root.outputs, off.outcome.root.outputs,
            "hint changed the console bytes"
        );
        assert!(
            on.outcome.cluster.page_pulls < off.outcome.cluster.page_pulls,
            "hint did not reduce migration pulls ({} vs {})",
            on.outcome.cluster.page_pulls,
            off.outcome.cluster.page_pulls
        );
    }

    #[test]
    fn prefetch_is_shard_count_invariant() {
        let a = vm_prefetch(ShardedConfig::quick(3, 1), true);
        let b = vm_prefetch(ShardedConfig::quick(3, 3), true);
        assert_eq!(a.outcome.bundle_bytes(), b.outcome.bundle_bytes());
    }
}
