//! The scenario registry: every example and workload as a
//! library-callable fixture.
//!
//! A [`Scenario`] is a named, deterministic computation that the
//! conformance harness can run any number of times under any host
//! load, producing a [`det_kernel::RunOutcome`] (and, when requested,
//! a syscall-level [`det_kernel::Trace`]). The
//! bodies mirror the repository's `examples/` and the det-workloads
//! benchmarks at test-sized parameters; anything the examples print is
//! routed through the console device so it lands in the artifact
//! bundle instead of bypassing the kernel via host stdout.

use det_kernel::{
    CopySpec, DeviceId, FaultPlan, GetSpec, Kernel, KernelConfig, KernelError, Program, PutSpec,
    Region, Regs, RunOutcome, StopReason, Trace, TraceSink,
};
use det_memory::Perm;
use det_runtime::proc::{ProgramRegistry, run_process_tree};
use det_runtime::threads::ThreadGroup;
use det_runtime::{run_deterministic, shell};
use det_workloads::{Mode, blackscholes, dist, fft, lu, matmult, md5, qsort, sharded};

/// How the harness wants a scenario executed. The default is a clean,
/// untraced run.
#[derive(Clone, Debug, Default)]
pub struct ScenarioConfig {
    /// Residue: the frozen benchmark reads `cfg.dispatch` and calls
    /// `ScenarioConfig::traced(Default::default())`
    /// (`benchmark/src/workloads/persist_replay.rs:110,157,163,210`).
    /// Nothing reads it; the next `[benchmark]` PR deletes the field
    /// and the argument.
    #[doc(hidden)]
    pub dispatch: (),
    /// Record a syscall trace (ignored for untraceable scenarios).
    pub trace: bool,
    /// Deterministic faults to inject (empty = run clean).
    pub faults: FaultPlan,
}

impl ScenarioConfig {
    /// A clean traced run.
    pub fn traced(_dispatch: ()) -> ScenarioConfig {
        ScenarioConfig {
            trace: true,
            ..ScenarioConfig::default()
        }
    }
}

/// One execution of a scenario.
pub struct ScenarioRun {
    /// The run's outcome (exit, clocks, stats, outputs, artifacts).
    pub outcome: RunOutcome,
    /// The syscall trace, when recording was requested and supported.
    pub trace: Option<Trace>,
}

/// A registered conformance fixture.
#[derive(Clone, Copy)]
pub struct Scenario {
    /// Unique name (stable across runs; keys CI reports).
    pub name: &'static str,
    /// False for scenarios that cannot record a trace (cluster runs:
    /// migration is not yet a trace event).
    pub traceable: bool,
    /// Runs the scenario under the given configuration.
    pub run: fn(&ScenarioConfig) -> ScenarioRun,
}

/// Builds a kernel configuration (and optional sink) for a scenario
/// and wraps the outcome.
fn run_scenario(cfg: &ScenarioConfig, f: impl FnOnce(KernelConfig) -> RunOutcome) -> ScenarioRun {
    let sink = cfg.trace.then(TraceSink::new);
    let mut b = KernelConfig::builder().faults(cfg.faults.clone());
    if let Some(s) = &sink {
        b = b.trace(s.clone());
    }
    let outcome = f(b.build());
    ScenarioRun {
        outcome,
        trace: sink.and_then(|s| s.collect()),
    }
}

// ---------------------------------------------------------------------
// Example-derived scenarios.
// ---------------------------------------------------------------------

/// `examples/quickstart.rs`: race-free swap, then a *detected*
/// write/write conflict.
fn quickstart_swap(cfg: &ScenarioConfig) -> ScenarioRun {
    run_scenario(cfg, |kc| {
        let shared = Region::new(0x1000, 0x2000);
        let (x, y) = (0x1000u64, 0x1008u64);
        Kernel::new(kc).run(move |ctx| {
            ctx.mem_mut().map_zero(shared, Perm::RW)?;
            ctx.mem_mut().write_u64(x, 1)?;
            ctx.mem_mut().write_u64(y, 2)?;
            ctx.put(
                0,
                PutSpec::new()
                    .program(Program::native(move |c| {
                        let v = c.mem().read_u64(y)?;
                        c.mem_mut().write_u64(x, v)?;
                        Ok(0)
                    }))
                    .copy(CopySpec::mirror(shared))
                    .snap()
                    .start(),
            )?;
            ctx.put(
                1,
                PutSpec::new()
                    .program(Program::native(move |c| {
                        let v = c.mem().read_u64(x)?;
                        c.mem_mut().write_u64(y, v)?;
                        Ok(0)
                    }))
                    .copy(CopySpec::mirror(shared))
                    .snap()
                    .start(),
            )?;
            ctx.get(0, GetSpec::new().merge(shared))?;
            ctx.get(1, GetSpec::new().merge(shared))?;
            let line = format!(
                "swap: x = {}, y = {}\n",
                ctx.mem().read_u64(x)?,
                ctx.mem().read_u64(y)?
            );
            ctx.dev_write(DeviceId::ConsoleOut, line.as_bytes())?;
            // Checkpoint mark: a crash past here recovers from this
            // rendezvous boundary instead of replaying from scratch.
            ctx.checkpoint()?;
            for i in 0..2u64 {
                ctx.put(
                    10 + i,
                    PutSpec::new()
                        .program(Program::native(move |c| {
                            c.mem_mut().write_u64(0x1010, 100 + i)?;
                            Ok(0)
                        }))
                        .copy(CopySpec::mirror(shared))
                        .snap()
                        .start(),
                )?;
            }
            ctx.get(10, GetSpec::new().merge(shared))?;
            match ctx.get(11, GetSpec::new().merge(shared)) {
                Err(KernelError::Conflict(c)) => {
                    let line = format!(
                        "conflict at 0x{:x}: child {} vs sibling {}\n",
                        c.addr, c.child, c.parent
                    );
                    ctx.dev_write(DeviceId::ConsoleOut, line.as_bytes())?;
                }
                other => panic!("expected a conflict, got {other:?}"),
            }
            Ok(0)
        })
    })
}

/// `examples/actors.rs` at test size: the Figure 1 lock-step actor
/// simulation.
fn actors_grid(cfg: &ScenarioConfig) -> ScenarioRun {
    const NACTORS: u64 = 8;
    const STEPS: usize = 4;
    const SHARED: Region = Region {
        start: 0x1000_0000,
        end: 0x1000_0000 + 0x1000,
    };
    fn slot(i: u64) -> u64 {
        SHARED.start + (i % NACTORS) * 8
    }
    run_scenario(cfg, |kc| {
        run_deterministic(kc, |ctx| {
            ctx.mem_mut().map_zero(SHARED, Perm::RW)?;
            for i in 0..NACTORS {
                ctx.mem_mut().write_u64(slot(i), i * i % 97)?;
            }
            for time in 0..STEPS {
                let mut group = ThreadGroup::new(ctx, SHARED, 0);
                for i in 0..NACTORS {
                    group.fork(i, move |c| {
                        let left = c.mem().read_u64(slot(i + NACTORS - 1))?;
                        let right = c.mem().read_u64(slot(i + 1))?;
                        let me = c.mem().read_u64(slot(i))?;
                        c.mem_mut()
                            .write_u64(slot(i), (left + right + me) % 1_000_003)?;
                        c.charge(250)?;
                        Ok(0)
                    })?;
                }
                for i in 0..NACTORS {
                    group.join(i)?;
                }
                let sample: Vec<u64> = (0..4)
                    .map(|i| ctx.mem().read_u64(slot(i)).unwrap())
                    .collect();
                let line = format!("t={time}: actors[0..4] = {sample:?}\n");
                ctx.dev_write(DeviceId::ConsoleOut, line.as_bytes())?;
            }
            Ok((ctx.mem().content_digest().value() & 0x7fff_ffff) as i32)
        })
    })
}

/// `examples/vm_sandbox.rs`: an untrusted VM guest preempted at exact
/// instruction counts.
fn vm_sandbox(cfg: &ScenarioConfig) -> ScenarioRun {
    run_scenario(cfg, |kc| {
        let image = det_vm::assemble(det_vm::corpus::FIB_PREEMPT).expect("assembles");
        let code = Region::new(0, 0x1000);
        Kernel::new(kc).run(move |ctx| {
            ctx.mem_mut().map_zero(code, Perm::RW)?;
            ctx.mem_mut().write(0, &image.bytes)?;
            ctx.put(
                0,
                PutSpec::new()
                    .program(Program::Vm)
                    .copy(CopySpec::mirror(code))
                    .regs(Regs::at_entry(0))
                    .start_limited(1_000),
            )?;
            for quantum in 1..=3 {
                let r = ctx.get(0, GetSpec::new().regs())?;
                assert_eq!(r.stop, StopReason::LimitReached);
                let regs = r.regs.expect("requested");
                let line = format!(
                    "quantum {quantum}: r5={} fib={}\n",
                    regs.gpr[5], regs.gpr[3]
                );
                ctx.dev_write(DeviceId::ConsoleOut, line.as_bytes())?;
                ctx.put(0, PutSpec::new().start_limited(1_000))?;
            }
            let r = ctx.get(0, GetSpec::new().regs())?;
            let line = format!("quantum 4: r5={}\n", r.regs.expect("requested").gpr[5]);
            ctx.dev_write(DeviceId::ConsoleOut, line.as_bytes())?;
            Ok(0)
        })
    })
}

/// Two VM children streaming counter values to the parent through a
/// `Ret` loop (the inline VM drive, two leaves under one waiter).
fn vm_counter_stream(cfg: &ScenarioConfig) -> ScenarioRun {
    run_scenario(cfg, |kc| {
        let image = det_vm::assemble(det_vm::corpus::COUNTER_STREAM).expect("assembles");
        Kernel::new(kc).run(move |ctx| {
            ctx.mem_mut().map_zero(Region::new(0, 0x3000), Perm::RW)?;
            ctx.mem_mut().write(0, &image.bytes)?;
            for i in 0..2u64 {
                ctx.put(
                    i,
                    PutSpec::new()
                        .program(Program::Vm)
                        .copy(CopySpec::mirror(Region::new(0, 0x3000)))
                        .regs(Regs::at_entry(0))
                        .start(),
                )?;
            }
            for i in 0..2u64 {
                loop {
                    let r = ctx.get(
                        i,
                        GetSpec::new().copy(CopySpec {
                            src: Region::new(0x2000, 0x3000),
                            dst: 0x8000 + i * 0x1000,
                        }),
                    )?;
                    match r.stop {
                        StopReason::Ret => ctx.put(i, PutSpec::new().start())?,
                        StopReason::Halted => break,
                        other => panic!("unexpected stop {other:?}"),
                    };
                }
            }
            Ok((ctx.mem().content_digest().value() & 0x7fff_ffff) as i32)
        })
    })
}

/// `examples/parallel_make.rs`: forked compiler processes, private
/// file-system replicas, deterministic `wait()`.
fn parallel_make(cfg: &ScenarioConfig) -> ScenarioRun {
    run_scenario(cfg, |kc| {
        let tasks = [("lexer.o", 6u64), ("parser.o", 2), ("emit.o", 4)];
        run_process_tree(kc, ProgramRegistry::new(), move |p| {
            let mut running = Vec::new();
            for &(name, ms) in &tasks[..2] {
                let pid = p.fork(move |c| {
                    c.charge(ms * 1_000_000)?;
                    let fd = c.open_write(&format!("obj/{name}"))?;
                    c.write(fd, format!("compiled {name} in {ms}ms").as_bytes())?;
                    Ok(0)
                })?;
                running.push(pid);
                p.print(&format!("started compile of {name} ({ms} ms)\n"))?;
            }
            let (first, _) = p.wait()?;
            p.print(&format!("wait() returned pid {}\n", first.0))?;
            let (name, ms) = tasks[2];
            p.fork(move |c| {
                c.charge(ms * 1_000_000)?;
                let fd = c.open_write(&format!("obj/{name}"))?;
                c.write(fd, format!("compiled {name} in {ms}ms").as_bytes())?;
                Ok(0)
            })?;
            p.print(&format!("started compile of {name} ({ms} ms)\n"))?;
            while p.has_children() {
                p.wait()?;
            }
            for f in p.fs().list("obj/") {
                let fd = p.open_read(&f)?;
                let data = p.read_to_end(fd)?;
                p.print(&format!("{f}: {}\n", String::from_utf8_lossy(&data)))?;
            }
            Ok(0)
        })
    })
}

/// `examples/shell_demo.rs`: the scripted shell with a pipeline,
/// redirection, and an exec'd user program.
fn shell_pipeline(cfg: &ScenarioConfig) -> ScenarioRun {
    const SCRIPT: &str = "
echo the quick brown fox > corpus.txt
echo jumps over the lazy dog >> corpus.txt
cat corpus.txt | wc > stats.txt
cat stats.txt
ls
upper corpus.txt
";
    run_scenario(cfg, |kc| {
        let mut reg = ProgramRegistry::new();
        reg.register("upper", |p, args| {
            let path = args.first().cloned().unwrap_or_default();
            let fd = p.open_read(&path)?;
            let data = p.read_to_end(fd)?;
            let upper: Vec<u8> = data.iter().map(|b| b.to_ascii_uppercase()).collect();
            p.write(1, &upper)?;
            Ok(0)
        });
        run_process_tree(kc, reg, |p| shell::run_script(p, SCRIPT))
    })
}

/// `tests/determinism.rs`'s rendezvous storm at test size: children
/// driven through many park/resume roundtrips including the fused
/// `PutGet` exchange.
fn rendezvous_storm(cfg: &ScenarioConfig) -> ScenarioRun {
    run_scenario(cfg, |kc| {
        let region = Region::new(0x1000, 0x5000);
        Kernel::new(kc).run(move |ctx| {
            ctx.mem_mut().map_zero(region, Perm::RW)?;
            const N: u64 = 4;
            const ROUNDS: u64 = 6;
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
                // One checkpoint mark per round: recovery restores the
                // latest completed round instead of replaying them all.
                ctx.checkpoint()?;
            }
            for i in 0..N {
                let r = ctx.put_get(
                    i,
                    PutSpec::new().copy(CopySpec::mirror(region)).snap().start(),
                    GetSpec::new().merge(region),
                )?;
                assert_eq!((r.stop, r.code), (StopReason::Halted, i));
            }
            let digest = ctx.mem().content_digest().value();
            let line = format!("storm digest: {digest:#x}\n");
            ctx.dev_write(DeviceId::ConsoleOut, line.as_bytes())?;
            Ok(0)
        })
    })
}

/// Root-only device I/O: host-pushed console input plus the
/// synthesized clock and entropy sources, echoed back out.
fn device_io(cfg: &ScenarioConfig) -> ScenarioRun {
    run_scenario(cfg, |kc| {
        let k = Kernel::new(kc);
        k.push_input(DeviceId::ConsoleIn, b"determinator\n".to_vec());
        k.run(|ctx| {
            let line = ctx.dev_read(DeviceId::ConsoleIn)?.unwrap_or_default();
            ctx.dev_write(DeviceId::ConsoleOut, b"echo: ")?;
            ctx.dev_write(DeviceId::ConsoleOut, &line)?;
            // Checkpoint mark between the echo and the clock/entropy
            // loop: recovery re-feeds only the suffix's device inputs.
            ctx.checkpoint()?;
            for _ in 0..3 {
                let clock = ctx.dev_read(DeviceId::Clock)?.unwrap_or_default();
                let rand = ctx.dev_read(DeviceId::Random)?.unwrap_or_default();
                let line = format!(
                    "clock={:02x?} random={:02x?}\n",
                    &clock[..clock.len().min(8)],
                    &rand[..rand.len().min(8)]
                );
                ctx.dev_write(DeviceId::ConsoleOut, line.as_bytes())?;
            }
            let empty = ctx.dev_read(DeviceId::ConsoleIn)?;
            assert_eq!(empty, None, "input queue drained");
            Ok(0)
        })
    })
}

// ---------------------------------------------------------------------
// Workload-derived scenarios (det-workloads at test sizes).
// ---------------------------------------------------------------------

/// md5 brute-force search (fork/join tree).
fn wl_md5(cfg: &ScenarioConfig) -> ScenarioRun {
    run_scenario(cfg, |kc| md5::outcome(kc, md5::Md5Config::quick(3)))
}

/// Blocked matrix multiply.
fn wl_matmult(cfg: &ScenarioConfig) -> ScenarioRun {
    run_scenario(cfg, |kc| {
        matmult::outcome(kc, matmult::MatmultConfig { threads: 3, n: 24 })
    })
}

/// Recursive fork/join quicksort.
fn wl_qsort(cfg: &ScenarioConfig) -> ScenarioRun {
    run_scenario(cfg, |kc| {
        qsort::outcome(kc, qsort::QsortConfig { depth: 2, n: 512 })
    })
}

/// Iterative radix-2 FFT.
fn wl_fft(cfg: &ScenarioConfig) -> ScenarioRun {
    run_scenario(cfg, |kc| {
        fft::outcome(
            kc,
            fft::FftConfig {
                threads: 3,
                log2n: 7,
            },
        )
    })
}

/// LU decomposition (contiguous row blocks).
fn wl_lu(cfg: &ScenarioConfig) -> ScenarioRun {
    run_scenario(cfg, |kc| {
        lu::outcome(
            kc,
            lu::LuConfig {
                threads: 2,
                n: 16,
                layout: lu::Layout::Contiguous,
            },
        )
    })
}

/// blackscholes under the deterministic scheduler.
fn wl_blackscholes(cfg: &ScenarioConfig) -> ScenarioRun {
    run_scenario(cfg, |kc| {
        blackscholes::outcome(
            kc,
            Mode::Determinator,
            blackscholes::BsConfig {
                threads: 2,
                options: 512,
                quantum_ns: 100_000,
            },
        )
    })
}

/// The corpus quicksort (`det_vm::corpus::QSORT_SORT`) as a VM child:
/// LCG-fill, iterative in-place sort with an explicit range stack,
/// sortedness sweep, halt. The branchy, data-dependent guest the
/// static analyzer's soundness gate leans on — running it here keeps
/// the conformance suite and the gate exercising the same image.
fn wl_vm_qsort(cfg: &ScenarioConfig) -> ScenarioRun {
    run_scenario(cfg, |kc| {
        let image = det_vm::assemble(det_vm::corpus::QSORT_SORT).expect("assembles");
        let guest = Region::new(0, 0x10000);
        Kernel::new(kc).run(move |ctx| {
            ctx.mem_mut().map_zero(guest, Perm::RW)?;
            ctx.mem_mut().write(0, &image.bytes)?;
            ctx.put(
                0,
                PutSpec::new()
                    .program(Program::Vm)
                    .copy(CopySpec::mirror(guest))
                    .regs(Regs::at_entry(0))
                    .snap()
                    .start(),
            )?;
            let r = ctx.get(0, GetSpec::new().merge(guest))?;
            assert_eq!(r.stop, StopReason::Halted);
            let sorted = ctx.mem().read_u64(0x8800)?;
            assert_eq!(sorted, 1, "guest's sortedness sweep failed");
            let (first, last) = (ctx.mem().read_u64(0x8000)?, ctx.mem().read_u64(0x81f8)?);
            assert!(first <= last, "array not sorted at the endpoints");
            let line = format!("qsort: sorted=1 a[0]={first:#x} a[63]={last:#x}\n");
            ctx.dev_write(DeviceId::ConsoleOut, line.as_bytes())?;
            Ok((ctx.mem().content_digest().value() & 0x7fff_ffff) as i32)
        })
    })
}

// ---------------------------------------------------------------------
// Real-thread shard-cluster scenarios.
// ---------------------------------------------------------------------

/// Wraps a shard-cluster workload (`det_workloads::{sharded, dist}` on
/// `det_cluster::ClusterSpec`) as a scenario. Migration is not yet a
/// trace event (ROADMAP 2a), so no syscall trace is recorded; the
/// replica-compared outcome is the root kernel's with the
/// cluster-wide aggregate statistics swapped in and the
/// `[cluster]`/`[jobs]` bundle sections appended to the console
/// stream, so every traffic counter and per-job artifact participates
/// in the byte comparison.
fn cluster_scenario(
    cfg: &ScenarioConfig,
    nodes: u16,
    size: u64,
    run: fn(sharded::ShardedConfig) -> sharded::ShardedResult,
) -> ScenarioRun {
    let r = run(sharded::ShardedConfig {
        size,
        faults: cfg.faults.clone(),
        ..sharded::ShardedConfig::quick(nodes, 3)
    });
    let sections = r.outcome.cluster_sections();
    let stats = r.outcome.stats.clone();
    let mut outcome = r.outcome.root;
    outcome.stats = stats;
    outcome
        .outputs
        .entry(DeviceId::ConsoleOut)
        .or_default()
        .extend_from_slice(&sections);
    ScenarioRun {
        outcome,
        trace: None,
    }
}

/// §6.3's md5-tree: recursive binary fan-out over 4 logical nodes,
/// every inner job forking again from inside its own job kernel.
fn dist_md5_tree(cfg: &ScenarioConfig) -> ScenarioRun {
    cluster_scenario(cfg, 4, 2_000, dist::md5_tree)
}

/// Remote fork fan-out: one md5-scanning job per logical node, pulled
/// onto its home shard by leaf migration, joined and folded at the
/// root.
fn cluster_fork_fanout(cfg: &ScenarioConfig) -> ScenarioRun {
    cluster_scenario(cfg, 4, 800, sharded::md5_scan)
}

/// Cross-shard migration storm: rounds of fork/join against every
/// non-root node, each job running a det-vm child inside its own job
/// kernel — migration traffic dominates and the inline VM drive is
/// exercised on every shard.
fn cluster_migration_storm(cfg: &ScenarioConfig) -> ScenarioRun {
    cluster_scenario(cfg, 4, 3, sharded::migration_storm)
}

/// Footprint-hinted migration: the root statically analyzes each
/// job's VM kernel (entry registers resolving its slot pointer) and
/// forks with the proven page set as the leaf-pull prefetch hint. The
/// replica comparison covers the `[cluster]` traffic counters, so a
/// hint that drifted across replicas would surface as a byte diff.
fn cluster_vm_prefetch(cfg: &ScenarioConfig) -> ScenarioRun {
    cluster_scenario(cfg, 4, 1_600, |c| sharded::vm_prefetch(c, true))
}

/// All registered scenarios, in a fixed order.
pub fn registry() -> Vec<Scenario> {
    fn s(name: &'static str, traceable: bool, run: fn(&ScenarioConfig) -> ScenarioRun) -> Scenario {
        Scenario {
            name,
            traceable,
            run,
        }
    }
    vec![
        s("quickstart_swap", true, quickstart_swap),
        s("actors_grid", true, actors_grid),
        s("vm_sandbox", true, vm_sandbox),
        s("vm_counter_stream", true, vm_counter_stream),
        s("parallel_make", true, parallel_make),
        s("shell_pipeline", true, shell_pipeline),
        s("rendezvous_storm", true, rendezvous_storm),
        s("device_io", true, device_io),
        s("wl_md5", true, wl_md5),
        s("wl_matmult", true, wl_matmult),
        s("wl_qsort", true, wl_qsort),
        s("wl_fft", true, wl_fft),
        s("wl_lu", true, wl_lu),
        s("wl_blackscholes", true, wl_blackscholes),
        s("wl_vm_qsort", true, wl_vm_qsort),
        s("dist_md5_tree", false, dist_md5_tree),
        s("cluster_fork_fanout", false, cluster_fork_fanout),
        s("cluster_migration_storm", false, cluster_migration_storm),
        s("cluster_vm_prefetch", false, cluster_vm_prefetch),
    ]
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}
