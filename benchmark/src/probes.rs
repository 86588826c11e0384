//! Layer probes: fixed micro-loops over each layer's public functions,
//! run in the traced run only. They are the same whichever workload is
//! named and give the unit costs the workloads' counts multiply.

use std::hint::black_box;
use std::time::{Duration, Instant};

use determinator::analyze::{AnalyzeConfig, Segment, analyze};
use determinator::kernel::{
    ConflictPolicy, CopySpec, GetSpec, Kernel, KernelConfig, Perm, Program, PutSpec, Region, Regs,
};
use determinator::memory::{AddressSpace, PAGE_SIZE, PAGES_PER_LEAF, reference};
use determinator::runtime::{ThreadGroup, barrier, dsched, run_deterministic};
use determinator::vm::{Cpu, VmExit, assemble, corpus};

use crate::harness::{geomean, median};
use crate::seed::Rng;
use crate::workloads::{THREADS, cluster_migrate, persist_replay};

/// Median ns per call of `op`, run in batches for about `budget`. The
/// batch grows until it lasts 200 µs, so the clock reads cost nothing.
fn time_ns(budget: Duration, mut op: impl FnMut()) -> f64 {
    let mut run = |calls: u64| {
        let start = Instant::now();
        for _ in 0..calls {
            op();
        }
        start.elapsed()
    };
    let mut calls = 1u64;
    while run(calls) < Duration::from_micros(200) && calls < 1 << 24 {
        calls *= 2;
    }
    repeat(budget, || run(calls).as_nanos() as f64 / calls as f64)
}

/// Median of `measure()` called until `budget` is used, thrice at least.
fn repeat(budget: Duration, mut measure: impl FnMut() -> f64) -> f64 {
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 3 || Instant::now() < deadline {
        samples.push(measure());
    }
    median(&samples)
}

// --------------------------------------------------------------- memory

const PAGES: u64 = 1024;
const PAGE: u64 = PAGE_SIZE as u64;
/// 4 MiB starting on a page-table leaf, so copies share whole leaves.
const SPACE: Region = Region {
    start: 4 * PAGES_PER_LEAF as u64 * PAGE,
    end: 4 * PAGES_PER_LEAF as u64 * PAGE + PAGES * PAGE,
};

fn written_space() -> AddressSpace {
    let mut mem = AddressSpace::new();
    mem.map_zero(SPACE, Perm::RW).expect("map");
    for vpn in 0..PAGES {
        mem.write_u64(SPACE.start + vpn * PAGE, vpn + 1)
            .expect("write");
    }
    mem
}

fn fork_of(parent: &AddressSpace) -> AddressSpace {
    let mut child = AddressSpace::new();
    child.copy_from(parent, SPACE, SPACE.start).expect("copy");
    child
}

/// Parent, child with every `stride`-th page dirtied, and the snapshot
/// between them: the fork idiom of §3.2.
fn forked(stride: u64) -> (AddressSpace, AddressSpace, AddressSpace) {
    let parent = written_space();
    let mut child = fork_of(&parent);
    let snap = child.snapshot();
    for vpn in (0..PAGES).step_by(stride as usize) {
        child
            .write_u64(SPACE.start + vpn * PAGE + 64, vpn + 7)
            .expect("write");
    }
    (parent, child, snap)
}

fn memory(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let mut src = written_space();
    out.push((
        "memory.snapshot_ns",
        time_ns(budget, || {
            black_box(src.snapshot());
        }),
    ));
    out.push((
        "memory.copy_aligned_ns",
        time_ns(budget, || {
            black_box(fork_of(&src));
        }),
    ));
    out.push((
        "memory.cow_first_write_ns",
        time_ns(budget, || {
            let mut child = fork_of(&src);
            for vpn in 0..PAGES {
                child
                    .write_u64(SPACE.start + vpn * PAGE + 8, vpn)
                    .expect("write");
            }
            black_box(child);
        }) / PAGES as f64,
    ));
    let mut addr = SPACE.start;
    out.push((
        "memory.word_rw_ns",
        time_ns(budget, || {
            let v = src.read_u64(addr).expect("read");
            src.write_u64(addr, v.wrapping_add(1)).expect("write");
            addr = SPACE.start + (addr - SPACE.start + 8) % (16 * PAGE);
        }),
    ));
    let words = (1 << 20) / 8;
    let bulk_ns = time_ns(budget, || {
        let vals = src.read_u64s(SPACE.start, words).expect("read");
        src.write_u64s(SPACE.start + (2 << 20), &vals)
            .expect("write");
    });
    // One call reads a MiB and writes a MiB.
    out.push((
        "memory.bulk_rw_mb_s",
        2.0 * (1 << 20) as f64 / 1e6 / (bulk_ns / 1e9),
    ));

    let merge_ns = |stride, oracle: bool| {
        let (parent, child, snap) = forked(stride);
        time_ns(budget, || {
            let mut p = parent.clone();
            let policy = ConflictPolicy::Strict;
            if oracle {
                black_box(reference::merge_from_reference(
                    &mut p, &child, &snap, SPACE, policy,
                ))
                .expect("merge");
            } else {
                black_box(p.try_merge_from(&child, &snap, SPACE, policy)).expect("merge");
            }
        })
    };
    let sparse = merge_ns(PAGES / 16, false);
    out.push(("memory.merge_sparse_us", sparse / 1e3));
    out.push(("memory.merge_dense_us", merge_ns(1, false) / 1e3));
    out.push((
        "memory.merge_ref_ratio",
        merge_ns(PAGES / 16, true) / sparse,
    ));

    let (parent, child, _) = forked(PAGES / 64);
    out.push((
        "memory.delta_roundtrip_us",
        time_ns(budget, || {
            let delta = child.delta_since(&parent);
            let mut p = parent.clone();
            p.apply_delta(&delta).expect("apply");
            black_box(p);
        }) / 1e3,
    ));
    let digest_ns = time_ns(budget, || {
        black_box(src.content_digest());
    });
    out.push((
        "memory.digest_mb_s",
        SPACE.len() as f64 / 1e6 / (digest_ns / 1e9),
    ));
}

// ------------------------------------------------------------------- vm

/// ns per instruction of `src` in the corpus's standard sandbox, after
/// a warm-up quarter; `cpu` chooses the fast path or the oracle.
fn ns_per_insn(budget: Duration, src: &str, insns: u64, cpu: fn() -> Cpu) -> f64 {
    let image = assemble(src).expect("corpus kernel assembles");
    repeat(budget, || {
        let mut mem = AddressSpace::new();
        mem.map_zero(Region::new(0, 0x10000), Perm::RW)
            .expect("map");
        mem.map_zero(Region::new(0x10_0000, 0x18_0000), Perm::RW)
            .expect("map");
        mem.write(0, &image.bytes).expect("load");
        let mut cpu = cpu();
        assert_eq!(cpu.run(&mut mem, Some(insns / 4)), VmExit::OutOfBudget);
        let start = Instant::now();
        assert_eq!(cpu.run(&mut mem, Some(insns)), VmExit::OutOfBudget);
        start.elapsed().as_nanos() as f64 / insns as f64
    })
}

const CORPUS_KERNELS: [&str; 4] = [
    corpus::FFT_KERNEL,
    corpus::MATMULT_KERNEL,
    corpus::MD5_KERNEL,
    corpus::QSORT_KERNEL,
];

fn vm(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    out.push((
        "vm.alu_ns_per_insn",
        ns_per_insn(budget, corpus::ALU_LOOP, 2_000_000, Cpu::new),
    ));
    let each: Vec<f64> = CORPUS_KERNELS
        .iter()
        .map(|src| ns_per_insn(budget / 4, src, 1_000_000, Cpu::new))
        .collect();
    out.push(("vm.corpus_ns_per_insn", geomean(&each)));
    out.push((
        "vm.tlb_miss_ns_per_insn",
        ns_per_insn(budget, corpus::TLB_MISS_STRIDE, 500_000, Cpu::new),
    ));
    let slow = ns_per_insn(budget, corpus::FFT_KERNEL, 200_000, Cpu::slow_path);
    out.push(("vm.fast_slow_ratio", slow / each[0]));
    out.push((
        "vm.assemble_us",
        time_ns(budget, || {
            for src in CORPUS_KERNELS {
                black_box(assemble(src).expect("assembles"));
            }
        }) / 1e3,
    ));
}

// -------------------------------------------------------------- analyze

fn analyzer(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let images: Vec<_> = corpus::PROGRAMS
        .iter()
        .map(|p| assemble(p.src).expect("corpus program assembles"))
        .collect();
    let cfg = AnalyzeConfig::default();
    let run = || -> u64 {
        images
            .iter()
            .map(|image| {
                let segments = [Segment {
                    base: 0,
                    bytes: &image.bytes,
                }];
                analyze(&segments, 0, &cfg).footprint.steps
            })
            .sum()
    };
    out.push(("analyze.steps", run() as f64));
    out.push((
        "analyze.corpus_us",
        time_ns(budget, || {
            black_box(run());
        }) / 1e3,
    ));
}

// --------------------------------------------------------------- kernel

/// Two VM instructions per rendezvous: return to the parent, loop.
const RET_LOOP: &str = "
loop:
    sys 0
    beq r0, r0, loop
";

/// ns per round trip against an inline VM child: `get` + `put`, or the
/// fused `put_get`.
fn rt_inline(budget: Duration, fused: bool) -> f64 {
    let image = assemble(RET_LOOP).expect("assembles");
    let code = Region::new(0, 0x1000);
    let mut ns = 0.0;
    let out = Kernel::new(KernelConfig::default()).run(|ctx| {
        ctx.mem_mut().map_zero(code, Perm::RW)?;
        ctx.mem_mut().write(0, &image.bytes)?;
        let child = PutSpec::new()
            .program(Program::Vm)
            .copy(CopySpec::mirror(code))
            .regs(Regs::at_entry(0));
        ctx.put(0, child.start())?;
        ctx.get(0, GetSpec::new())?;
        ns = time_ns(budget, || {
            if fused {
                ctx.put_get(0, PutSpec::new().start(), GetSpec::new())
                    .expect("put_get");
            } else {
                ctx.put(0, PutSpec::new().start()).expect("put");
                ctx.get(0, GetSpec::new()).expect("get");
            }
        });
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0), "round-trip probe");
    ns
}

/// ns per round trip against a child on its own host thread.
fn rt_native(budget: Duration) -> f64 {
    let mut ns = 0.0;
    let out = Kernel::new(KernelConfig::default()).run(|ctx| {
        let child = Program::native(|c| {
            loop {
                c.ret(0)?;
            }
        });
        ctx.put(0, PutSpec::new().program(child).start())?;
        ctx.get(0, GetSpec::new())?;
        ns = time_ns(budget, || {
            ctx.put(0, PutSpec::new().start()).expect("put");
            ctx.get(0, GetSpec::new()).expect("get");
        });
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0), "native round-trip probe");
    ns
}

/// ns per fork (copy + snap + start of a native child that dirties 16
/// pages) and join (get + merge).
fn fork_join(budget: Duration) -> f64 {
    let region = Region::new(0x10000, 0x10000 + 16 * PAGE);
    let mut ns = 0.0;
    let out = Kernel::new(KernelConfig::default()).run(|ctx| {
        ctx.mem_mut().map_zero(region, Perm::RW)?;
        ns = time_ns(budget, || {
            let child = Program::native(move |c| {
                for page in 0..16 {
                    c.mem_mut()
                        .write_u64(region.start + page * PAGE, page + 1)?;
                }
                Ok(0)
            });
            let fork = PutSpec::new().program(child).copy(CopySpec::mirror(region));
            ctx.put(0, fork.snap().start()).expect("fork");
            ctx.get(0, GetSpec::new().merge(region)).expect("join");
        });
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0), "fork/join probe");
    ns
}

fn kernel(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    out.push((
        "kernel.spinup_us",
        time_ns(budget, || {
            black_box(Kernel::new(KernelConfig::default()).run(|_| Ok(0)));
        }) / 1e3,
    ));
    out.push(("kernel.rt_inline_ns", rt_inline(budget, false)));
    out.push(("kernel.rt_fused_ns", rt_inline(budget, true)));
    out.push(("kernel.rt_native_us", rt_native(budget) / 1e3));
    out.push(("kernel.fork_join_us", fork_join(budget) / 1e3));
    // The persist_replay scenarios live, with a sink and without.
    let inputs = persist_replay::inputs(Rng::for_workload(0, "persist_replay"));
    let live_ns = |traced| {
        repeat(budget / 2, || {
            let start = Instant::now();
            persist_replay::live_only(inputs, traced);
            start.elapsed().as_nanos() as f64
        })
    };
    out.push((
        "kernel.record_overhead_ratio",
        live_ns(true) / live_ns(false),
    ));
}

// -------------------------------------------------------------- runtime

const SHARED: Region = Region {
    start: 0x1000_0000,
    end: 0x1000_1000,
};

/// µs per thread-barrier: [`THREADS`] threads meet `CYCLES` times.
fn barrier_us(budget: Duration) -> f64 {
    const CYCLES: u64 = 500;
    repeat(budget, || {
        let mut ns = 0.0;
        let out = run_deterministic(KernelConfig::default(), |ctx| {
            ctx.mem_mut().map_zero(SHARED, Perm::RW)?;
            let mut group = ThreadGroup::new(ctx, SHARED, 0);
            for t in 0..THREADS as u64 {
                group.fork(t, move |c| {
                    for cycle in 0..CYCLES {
                        c.mem_mut().write_u64(SHARED.start + t * 8, cycle)?;
                        barrier(c)?;
                    }
                    Ok(0)
                })?;
            }
            let members: Vec<u64> = (0..THREADS as u64).collect();
            let start = Instant::now();
            group.run_to_completion(&members)?;
            ns = start.elapsed().as_nanos() as f64;
            Ok(0)
        });
        assert_eq!(out.exit, Ok(0), "barrier probe");
        ns / 1e3 / (CYCLES * THREADS as u64) as f64
    })
}

/// µs per mutex hand-off under the deterministic scheduler: two threads
/// take turns on one lock, a quantum shorter than the critical section.
fn dsched_switch_us(budget: Duration) -> f64 {
    const LOCKS: u64 = 200;
    repeat(budget, || {
        let mut ns = 0.0;
        let out = run_deterministic(KernelConfig::default(), |ctx| {
            ctx.mem_mut().map_zero(SHARED, Perm::RW)?;
            let mut sched = dsched::DSched::new(ctx, SHARED, 1_000, 0)?;
            for t in 0..2 {
                sched.spawn(t, move |c| {
                    for _ in 0..LOCKS {
                        dsched::mutex_lock(c, 1)?;
                        let v = c.mem().read_u64(SHARED.start)?;
                        c.charge(2_000)?;
                        c.mem_mut().write_u64(SHARED.start, v + 1)?;
                        dsched::mutex_unlock(c, 1)?;
                    }
                    Ok(0)
                })?;
            }
            let start = Instant::now();
            sched.run()?;
            ns = start.elapsed().as_nanos() as f64;
            Ok(0)
        });
        assert_eq!(out.exit, Ok(0), "dsched probe");
        ns / 1e3 / (2 * LOCKS) as f64
    })
}

// -------------------------------------------------------------- cluster

/// The control job on one shard ÷ on two: what the second core buys.
/// 0 on a host with a single core, where it would say nothing.
fn speedup_2v1() -> f64 {
    if std::thread::available_parallelism().map_or(1, usize::from) < 2 {
        return 0.0;
    }
    let jobs = cluster_migrate::inputs(Rng::for_workload(0, "cluster_migrate"));
    let scan = jobs
        .iter()
        .find(|j| j.name == "md5_scan")
        .expect("the control job");
    let wall = |shards| {
        let start = Instant::now();
        black_box(scan.run_on(shards));
        start.elapsed().as_secs_f64()
    };
    wall(1) / wall(2)
}

/// Every P and R metric, in about `seconds`.
pub fn run_all(seconds: f64) -> Vec<(&'static str, f64)> {
    // 27 timed loops share the budget; a few use a fraction of theirs.
    let budget = Duration::from_secs_f64(seconds / 27.0);
    let mut out = Vec::new();
    memory(budget, &mut out);
    vm(budget, &mut out);
    analyzer(budget, &mut out);
    kernel(budget, &mut out);
    out.push(("runtime.barrier_us", barrier_us(budget)));
    out.push(("runtime.dsched_switch_us", dsched_switch_us(budget)));
    out.push(("cluster.speedup_2v1", speedup_2v1()));
    out
}
