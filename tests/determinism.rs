//! Cross-crate determinism tests: the paper's core claim, verified
//! end-to-end — identical results, output bytes, and virtual clocks
//! across repeated runs and perturbed host schedules, for every layer
//! of the stack.

use determinator::conform::ChaosLoad;
use determinator::kernel::{
    CopySpec, DeviceId, GetSpec, IoMode, Kernel, KernelConfig, Program, PutSpec, Region,
};
use determinator::runtime::proc::{ProgramRegistry, run_process_tree, run_process_tree_on};
use determinator::runtime::shell;
use determinator::workloads::Mode;
use determinator::workloads::blackscholes::{self, BsConfig};
use determinator::workloads::dist;
use determinator::workloads::fft::{self, FftConfig};
use determinator::workloads::lu::{self, Layout, LuConfig};
use determinator::workloads::matmult::{self, MatmultConfig};
use determinator::workloads::md5::{self, Md5Config};
use determinator::workloads::qsort::{self, QsortConfig};
use determinator::workloads::sharded::ShardedConfig;

/// Every single-node workload: identical checksum AND identical
/// virtual time across reruns (full-stack repeatability).
#[test]
fn workloads_repeat_exactly() {
    let run_all = || {
        vec![
            {
                let r = md5::run(Mode::Determinator, Md5Config::quick(3));
                (r.checksum, r.vclock_ns)
            },
            {
                let r = matmult::run(Mode::Determinator, MatmultConfig { threads: 3, n: 48 });
                (r.checksum, r.vclock_ns)
            },
            {
                let r = qsort::run(Mode::Determinator, QsortConfig { depth: 2, n: 8192 });
                (r.checksum, r.vclock_ns)
            },
            {
                let r = blackscholes::run(Mode::Determinator, BsConfig::quick(3));
                (r.checksum, r.vclock_ns)
            },
            {
                let r = fft::run(
                    Mode::Determinator,
                    FftConfig {
                        threads: 3,
                        log2n: 10,
                    },
                );
                (r.checksum, r.vclock_ns)
            },
            {
                let r = lu::run(
                    Mode::Determinator,
                    LuConfig {
                        threads: 3,
                        n: 40,
                        layout: Layout::NonContiguous,
                    },
                );
                (r.checksum, r.vclock_ns)
            },
        ]
    };
    assert_eq!(run_all(), run_all());
}

/// Distributed runs repeat exactly too (migration, leaf pulls and
/// network charges are all deterministic).
#[test]
fn distributed_runs_repeat_exactly() {
    let run = || {
        let r = dist::md5_tree(ShardedConfig::quick(4, 2));
        assert!(r.outcome.exit.is_ok(), "{:?}", r.outcome.exit);
        (r.checksum, r.outcome.vclock_ns, r.outcome.stats.migrations)
    };
    assert_eq!(run(), run());
}

/// Checksums are also identical across Determinator and the
/// conventional baseline — the model changes timing, never results.
#[test]
fn results_mode_invariant() {
    for threads in [1usize, 2, 5] {
        let d = matmult::run(Mode::Determinator, MatmultConfig { threads, n: 40 });
        let b = matmult::run(Mode::Baseline, MatmultConfig { threads, n: 40 });
        assert_eq!(d.checksum, b.checksum, "threads={threads}");
    }
}

/// The shell's console output is byte-identical run to run, including
/// across interleaved child processes (§4.3).
#[test]
fn shell_script_repeats_byte_identically() {
    let script = "
        echo one > a
        echo two > b
        cat a b | wc
        ls
    ";
    let run = || {
        run_process_tree(KernelConfig::default(), ProgramRegistry::new(), move |p| {
            shell::run_script(p, script)
        })
    };
    let x = run();
    let y = run();
    assert_eq!(x.exit, Ok(0));
    assert_eq!(x.console(), y.console());
    assert_eq!(x.vclock_ns, y.vclock_ns);
}

/// Record/replay end-to-end through the process runtime: a run
/// consuming console, clock, and entropy inputs replays bit-for-bit
/// from its log alone (§2.1).
#[test]
fn record_replay_full_stack() {
    let app = |p: &mut determinator::runtime::Proc<'_>| {
        let mut buf = [0u8; 16];
        let n = p.read(0, &mut buf)?;
        let clock = p.ctx().dev_read(DeviceId::Clock)?.unwrap();
        let rand = p.ctx().dev_read(DeviceId::Random)?.unwrap();
        p.write(1, &buf[..n])?;
        p.write(1, &clock)?;
        p.write(1, &rand)?;
        Ok(0)
    };
    let kernel = Kernel::new(KernelConfig::default());
    kernel.push_input(DeviceId::ConsoleIn, b"input!".to_vec());
    let rec = run_process_tree_on(kernel, ProgramRegistry::new(), app);
    assert_eq!(rec.exit, Ok(0));

    let kernel = Kernel::new(
        KernelConfig::builder()
            .io(IoMode::Replay(rec.io_log.clone()))
            .build(),
    );
    let rep = run_process_tree_on(kernel, ProgramRegistry::new(), app);
    assert_eq!(rec.console(), rep.console());
    assert_eq!(rec.vclock_ns, rep.vclock_ns);
}

/// N-way fork/join with the join order permuted by seed: the parent's
/// final memory digest must be identical regardless of the order in
/// which children are merged. Guards the merge engine's dirty-set
/// optimization against any join-order sensitivity.
#[test]
fn n_way_join_order_digest_invariant() {
    let region = Region::new(0x1000, 0x9000);
    // Runs an N-way fork/join, merging children in the order produced
    // by repeatedly striding `seed` over the remaining set, and
    // returns the parent's final memory digest.
    let run = |n: u64, seed: u64| {
        let order: Vec<u64> = {
            let mut remaining: Vec<u64> = (0..n).collect();
            let mut out = Vec::new();
            let mut pos = seed as usize;
            while !remaining.is_empty() {
                pos = (pos * 7 + seed as usize + 3) % remaining.len();
                out.push(remaining.remove(pos));
            }
            out
        };
        let out = Kernel::new(KernelConfig::default()).run(move |ctx| {
            ctx.mem_mut()
                .map_zero(region, determinator::memory::Perm::RW)?;
            ctx.mem_mut().write_u64(0x1000, 0xC0FFEE)?;
            for i in 0..n {
                ctx.put(
                    i,
                    PutSpec::new()
                        .program(Program::native(move |c| {
                            // Disjoint slots plus a disjoint per-child run.
                            c.mem_mut().write_u64(0x2000 + i * 8, i * i + 1)?;
                            c.mem_mut().write_u64(0x4000 + i * 0x800, i + 7)?;
                            Ok(0)
                        }))
                        .copy(CopySpec::mirror(region))
                        .snap()
                        .start(),
                )?;
            }
            for &i in &order {
                ctx.get(i, GetSpec::new().merge(region))?;
            }
            Ok(ctx.mem().content_digest().value() as i32)
        });
        out.exit.expect("no trap")
    };
    for n in [2u64, 4, 8] {
        let digests: Vec<i32> = (0..4).map(|seed| run(n, seed)).collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "join order changed the merged digest for n={n}: {digests:?}"
        );
    }
}

/// Rendezvous storm under chaotic host load: N children each driven
/// through many park/resume roundtrips (the targeted-wakeup engine's
/// hot path, including the fused `PutGet` exchange) while background
/// host threads thrash the scheduler. The parent's final digest,
/// virtual clock, and rendezvous counters must be bit-identical run
/// to run — a lost or misdirected wakeup would hang (watchdogged by
/// the suite timeout) and a stat race would diverge the counters.
#[test]
fn rendezvous_storm_digest_invariant_under_chaos() {
    use determinator::kernel::{Perm, StopReason};
    let region = Region::new(0x1000, 0x5000);
    let run = |chaos: bool| {
        // Background load perturbing the host scheduler.
        let load = chaos.then(|| ChaosLoad::start(3));
        let out = Kernel::new(KernelConfig::default()).run(move |ctx| {
            ctx.mem_mut().map_zero(region, Perm::RW)?;
            const N: u64 = 6;
            const ROUNDS: u64 = 20;
            for i in 0..N {
                ctx.put(
                    i,
                    PutSpec::new()
                        .program(Program::native(move |c| {
                            for round in 0..ROUNDS {
                                c.mem_mut().write_u64(0x2000 + i * 8, round * N + i)?;
                                c.ret(round)?;
                            }
                            Ok(i as i32)
                        }))
                        .copy(CopySpec::mirror(region))
                        .snap()
                        .start(),
                )?;
            }
            // Drive every child through every round with the fused
            // exchange, merging its writes and restaging the region.
            for round in 0..ROUNDS {
                for i in 0..N {
                    let r = if round == 0 {
                        ctx.get(i, GetSpec::new().merge(region))?
                    } else {
                        ctx.put_get(
                            i,
                            PutSpec::new().copy(CopySpec::mirror(region)).snap().start(),
                            GetSpec::new().merge(region),
                        )?
                    };
                    assert_eq!(r.stop, StopReason::Ret);
                }
            }
            for i in 0..N {
                let r = ctx.put_get(
                    i,
                    PutSpec::new().copy(CopySpec::mirror(region)).snap().start(),
                    GetSpec::new().merge(region),
                )?;
                assert_eq!((r.stop, r.code), (StopReason::Halted, i));
            }
            Ok(ctx.mem().content_digest().value() as i32)
        });
        drop(load);
        (
            out.exit.expect("storm must not trap"),
            out.vclock_ns,
            out.stats.rets,
            out.stats.put_gets,
            out.stats.merges,
        )
    };
    let quiet = run(false);
    let loud = run(true);
    assert_eq!(quiet, loud, "host load changed an observable outcome");
}

/// Shard-count invariance (DESIGN.md §10): the real-thread cluster
/// runtime must produce **byte-identical** conformance bundles —
/// digest, virtual clock, kernel stats, traffic counters, outputs,
/// per-job artifacts — whether the logical nodes are packed onto 1
/// OS-thread shard or spread over 8, and regardless of host load.
/// Shards may only change wall-clock time.
#[test]
fn sharded_workloads_invariant_across_shard_counts_under_chaos() {
    use determinator::workloads::sharded::{ShardedResult, dsched_counter, md5_scan};
    type Workload = fn(ShardedConfig) -> ShardedResult;

    let _chaos = ChaosLoad::start(3);
    let runs: Vec<(&str, Workload)> =
        vec![("md5_scan", md5_scan), ("dsched_counter", dsched_counter)];
    for (name, run) in runs {
        let cfg = |shards| ShardedConfig {
            size: 600,
            ..ShardedConfig::quick(8, shards)
        };
        let base = run(cfg(1));
        let base_bundle = base.outcome.bundle_bytes();
        for shards in [2usize, 4, 8] {
            let other = run(cfg(shards));
            assert_eq!(other.checksum, base.checksum, "{name} shards={shards}");
            assert_eq!(
                other.outcome.vclock_ns, base.outcome.vclock_ns,
                "{name} vclock diverged at shards={shards}"
            );
            assert_eq!(
                other.outcome.stats, base.outcome.stats,
                "{name} kernel stats diverged at shards={shards}"
            );
            assert_eq!(
                other.outcome.bundle_bytes(),
                base_bundle,
                "{name} bundle diverged at shards={shards}"
            );
        }
    }
}

/// The migration storm (nested det-vm children inside every migrated
/// job kernel) repeats bit-identically across shard counts and
/// reruns — dispatch vehicles and shard placement must leave no
/// deterministic trace.
#[test]
fn sharded_migration_storm_repeats_and_shard_invariant() {
    use determinator::workloads::sharded::migration_storm;
    let cfg = |shards| ShardedConfig {
        size: 4,
        ..ShardedConfig::quick(4, shards)
    };
    let a = migration_storm(cfg(1));
    let b = migration_storm(cfg(1));
    assert_eq!(a.outcome.bundle_bytes(), b.outcome.bundle_bytes());
    for shards in [2usize, 4, 8] {
        let c = migration_storm(cfg(shards));
        assert_eq!(
            a.outcome.bundle_bytes(),
            c.outcome.bundle_bytes(),
            "storm bundle diverged at shards={shards}"
        );
    }
}

/// Host-schedule independence at the workload level: sleeping threads
/// at random points must not change anything observable.
#[test]
fn host_schedule_perturbation_is_invisible() {
    // The qsort forks a tree of spaces whose host threads race; the
    // kernel rendezvous discipline must hide all of it.
    let runs: Vec<(u64, u64)> = (0..3)
        .map(|_| {
            let r = qsort::run(
                Mode::Determinator,
                QsortConfig {
                    depth: 3,
                    n: 20_000,
                },
            );
            (r.checksum, r.vclock_ns)
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}
