//! Trace record/replay lock-in: a recorded run re-applied through the
//! pure core — **no vehicles, no VM interpretation, no host devices**
//! — must land on the same exit status, virtual clock, kernel stats,
//! device outputs, and per-space memory digests as the live run.
//!
//! Every scenario also pushes the trace through its JSON serialization
//! before replaying, so the on-disk form is covered by the same
//! bit-identity guarantee.

use det_kernel::{
    ConflictPolicy, CopySpec, DeviceId, GetSpec, Kernel, KernelConfig, KernelError, Program,
    PutSpec, Region, RunOutcome, StopReason, Trace, TraceSink,
};
use det_memory::Perm;
use det_vm::Regs;

/// Replays `sink`'s recording (through JSON) and asserts it matches
/// the live outcome bit-for-bit. Host-scheduling noise lives in
/// `RunOutcome::host`, outside the comparison; everything the kernel
/// itself produced must be identical — no carve-outs.
fn assert_replay_matches(live: &RunOutcome, sink: &TraceSink) {
    let trace = sink.collect().expect("sink recorded a trace");
    let json = trace.to_json();
    let trace = Trace::from_json(&json).expect("trace survives JSON round-trip");
    let rep = trace.replay().expect("trace replays cleanly");

    assert_eq!(trace.io_log(), live.io_log, "the trace carries the inputs");
    assert_eq!(rep.exit, live.exit, "exit status must replay");
    assert_eq!(rep.vclock_ns, live.vclock_ns, "virtual clock must replay");
    assert_eq!(rep.outputs, live.outputs, "device outputs must replay");
    assert_eq!(
        rep.spaces, live.spaces,
        "per-space artifacts (paths, clocks, digests) must replay"
    );
    assert_eq!(
        rep.space_paths, live.space_paths,
        "lineage paths must replay"
    );
    assert_eq!(rep.stats, live.stats, "kernel stats must replay");
}

/// The PR 5 rendezvous storm — fork-join plus rounds of the fused
/// put_get exchange with merges and restaging — recorded and replayed.
/// This is the acceptance-criteria scenario: the dominant runtime
/// pattern, covering Put (program install, copy, snap, start), fused
/// PutGet, merge, Ret and Halted check-ins.
#[test]
fn put_get_storm_replays_bit_identically() {
    let sink = TraceSink::new();
    let region = Region::new(0x1000, 0x5000);
    let out = Kernel::new(KernelConfig::builder().trace(sink.clone()).build()).run(move |ctx| {
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
    assert!(out.exit.is_ok(), "storm must not trap: {:?}", out.exit);
    assert!(out.stats.put_gets > 0, "storm exercises the fused path");
    assert!(out.stats.merges > 0, "storm exercises merges");
    assert_replay_matches(&out, &sink);
}

/// VM children, interpreted by the thread that waits for them: the
/// replay reproduces exact instruction counts, VM cache counters, and
/// vclock charges without interpreting a single instruction.
#[test]
fn inline_vm_children_replay_bit_identically() {
    let image = det_vm::assemble(
        "
        ldi r1, 0
        li  r5, 0x2000
    loop:
        addi r1, r1, 1
        std r1, [r5+0]
        sys 0
        li  r6, 4
        blt r1, r6, loop
        halt
        ",
    )
    .unwrap();
    let sink = TraceSink::new();
    let out = Kernel::new(KernelConfig::builder().trace(sink.clone()).build()).run(move |ctx| {
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
        Ok(ctx.mem().content_digest().value() as i32)
    });
    assert!(out.exit.is_ok());
    assert!(out.stats.vm_instructions > 0, "VM children really ran");
    assert!(out.stats.vm_inline_runs > 0, "the waiter drove them");
    assert_replay_matches(&out, &sink);
}

/// Limit-preempted VM children — the `tests/vm_quanta_contract.rs`
/// scenario: four corpus kernels, 20 quanta of 2 µs each, resumed
/// through the fused `put_get` — replay with zero vehicles. The golden
/// there pins what the inline check-in counts (`limit_preemptions`,
/// the VM counters, the park charge); this is the second, independent
/// detector of the same accounting.
#[test]
fn limit_preempted_vm_children_replay_bit_identically() {
    const SANDBOX: Region = Region {
        start: 0,
        end: 0x10000,
    };
    const QUANTUM_NS: u64 = 2_000;
    const QUANTA: u64 = 20;
    let images: Vec<_> = [
        det_vm::corpus::FFT_KERNEL,
        det_vm::corpus::MATMULT_KERNEL,
        det_vm::corpus::MD5_KERNEL,
        det_vm::corpus::QSORT_KERNEL,
    ]
    .into_iter()
    .map(|src| det_vm::assemble(src).expect("corpus kernel assembles"))
    .collect();
    let children = images.len() as u64;
    let sink = TraceSink::new();
    let out = Kernel::new(KernelConfig::builder().trace(sink.clone()).build()).run(move |ctx| {
        ctx.mem_mut().map_zero(SANDBOX, Perm::RW)?;
        for (k, image) in images.iter().enumerate() {
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
        for k in 0..children {
            let r = ctx.get(
                k,
                GetSpec::new()
                    .merge(SANDBOX)
                    .merge_policy(ConflictPolicy::ChildWins),
            )?;
            assert_eq!(r.stop, StopReason::LimitReached);
        }
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.limit_preemptions, children * QUANTA);
    assert_eq!(out.stats.vm_inline_runs, children * QUANTA);
    assert_replay_matches(&out, &sink);
}

/// Root device I/O: pushed inputs consumed by `dev_read` and console
/// bytes from `dev_write` both appear identically in the replay —
/// inputs via the recorded deltas, outputs via replayed effects.
#[test]
fn device_io_replays_bit_identically() {
    let sink = TraceSink::new();
    let k = Kernel::new(KernelConfig::builder().trace(sink.clone()).build());
    k.push_input(DeviceId::ConsoleIn, b"deterministic".to_vec());
    let out = k.run(|ctx| {
        let data = ctx.dev_read(DeviceId::ConsoleIn)?.expect("input queued");
        ctx.dev_write(DeviceId::ConsoleOut, &data)?;
        ctx.dev_write(DeviceId::ConsoleOut, b" echo")?;
        // A read past the queue returns None; that, too, must replay.
        assert!(ctx.dev_read(DeviceId::ConsoleIn)?.is_none());
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.console(), b"deterministic echo");
    assert_replay_matches(&out, &sink);
}

/// Error paths replay: a write/write merge conflict traps the second
/// join deterministically, and the recorded trace reproduces the
/// conflict counter, the caller's charge, and the final digests.
#[test]
fn merge_conflict_replays_bit_identically() {
    let sink = TraceSink::new();
    let region = Region::new(0x1000, 0x2000);
    let out = Kernel::new(KernelConfig::builder().trace(sink.clone()).build()).run(move |ctx| {
        ctx.mem_mut().map_zero(region, Perm::RW)?;
        for i in 0..2u64 {
            ctx.put(
                i,
                PutSpec::new()
                    .program(Program::native(move |c| {
                        c.mem_mut().write_u64(0x1800, 100 + i)?;
                        Ok(0)
                    }))
                    .copy(CopySpec::mirror(region))
                    .snap()
                    .start(),
            )?;
        }
        ctx.get(0, GetSpec::new().merge(region))?;
        match ctx.get(1, GetSpec::new().merge(region)) {
            Err(KernelError::Conflict(c)) => assert_eq!(c.addr, 0x1800),
            other => panic!("expected conflict, got {other:?}"),
        }
        Ok(9)
    });
    assert_eq!(out.exit, Ok(9));
    assert_eq!(out.stats.conflicts, 1);
    assert_replay_matches(&out, &sink);
}

/// A panicking native child mid-rendezvous: the vehicle dies without
/// state, the shell synthesizes a terminal trap (PR 5's liveness fix),
/// and the lost-state check-in replays to the same trap and stats.
#[test]
fn lost_state_trap_replays_bit_identically() {
    let sink = TraceSink::new();
    let out = Kernel::new(KernelConfig::builder().trace(sink.clone()).build()).run(|ctx| {
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|_c| panic!("vehicle dies")))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert!(matches!(r.stop, StopReason::Trap(_)), "got {:?}", r.stop);
        Ok(1)
    });
    assert_eq!(out.exit, Ok(1));
    assert_replay_matches(&out, &sink);
}

/// Deep hierarchies replay: a child that itself forks grandchildren
/// (native programs calling Put/Get from inside their own space).
#[test]
fn nested_fork_join_replays_bit_identically() {
    let sink = TraceSink::new();
    let region = Region::new(0x1000, 0x2000);
    let out = Kernel::new(KernelConfig::builder().trace(sink.clone()).build()).run(move |ctx| {
        ctx.mem_mut().map_zero(region, Perm::RW)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(move |c| {
                    for j in 0..2u64 {
                        c.put(
                            j,
                            PutSpec::new()
                                .program(Program::native(move |g| {
                                    g.mem_mut().write_u64(0x1000 + j * 8, j + 1)?;
                                    Ok(0)
                                }))
                                .copy(CopySpec::mirror(region))
                                .snap()
                                .start(),
                        )?;
                    }
                    for j in 0..2u64 {
                        c.get(j, GetSpec::new().merge(region))?;
                    }
                    Ok(0)
                }))
                .copy(CopySpec::mirror(region))
                .snap()
                .start(),
        )?;
        ctx.get(0, GetSpec::new().merge(region))?;
        assert_eq!(ctx.mem().read_u64(0x1000)?, 1);
        assert_eq!(ctx.mem().read_u64(0x1008)?, 2);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_replay_matches(&out, &sink);
}

/// A barrier cycle — the fine-grained workloads' shape — where every
/// join mixes the two page-level cases: each child owns one page (the
/// parent never writes it, so the join remaps it) and all children
/// write disjoint words of one shared page (after the first join the
/// parent's frame is no longer the later children's snapshot frame, so
/// those joins diff). Frame identity decides which is which, so the
/// replay — which rebuilds every space from recorded deltas — must
/// reproduce the identities, not just the bytes: the per-join
/// `MergeStats` and the run totals have to come out equal.
#[test]
fn barrier_cycle_merge_stats_replay_bit_identically() {
    const N: u64 = 3;
    const ROUNDS: u64 = 4;
    let sink = TraceSink::new();
    let region = Region::new(0x1000, 0x5000);
    let out = Kernel::new(KernelConfig::builder().trace(sink.clone()).build()).run(move |ctx| {
        ctx.mem_mut().map_zero(region, Perm::RW)?;
        let restage = || PutSpec::new().copy(CopySpec::mirror(region)).snap().start();
        for i in 0..N {
            let body = Program::native(move |c| {
                for round in 0..ROUNDS {
                    c.mem_mut().write_u64(0x1000 + i * 8, round + 1)?; // Shared page.
                    c.mem_mut().write_u64(0x2000 + i * 0x1000, round + 1)?; // Own page.
                    c.ret(round)?;
                }
                Ok(0)
            });
            ctx.put(i, restage().program(body))?;
        }
        for round in 0..=ROUNDS {
            // The barrier: join every child, then release them all
            // from the merged state.
            for i in 0..N {
                let r = ctx.get(i, GetSpec::new().merge(region))?;
                let merge = r.merge.expect("merge requested");
                if round == ROUNDS {
                    // The children only halt: nothing left to join.
                    assert_eq!(r.stop, StopReason::Halted);
                    assert_eq!(merge.pages_scanned, 0);
                } else if i == 0 {
                    assert_eq!((merge.pages_adopted, merge.pages_diffed), (2, 0));
                } else {
                    assert_eq!((merge.pages_adopted, merge.pages_diffed), (1, 1));
                    assert_eq!(merge.bytes_copied, 1);
                }
            }
            if round < ROUNDS {
                for i in 0..N {
                    ctx.put(i, restage())?;
                }
            }
        }
        for i in 0..N {
            assert_eq!(ctx.mem().read_u64(0x1000 + i * 8)?, ROUNDS);
            assert_eq!(ctx.mem().read_u64(0x2000 + i * 0x1000)?, ROUNDS);
        }
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    let totals = out.stats.merge_totals.0;
    assert_eq!(totals.pages_adopted, ROUNDS * (N + 1));
    assert_eq!(totals.pages_diffed, ROUNDS * (N - 1));
    // `stats` — the merge totals in it, `pages_adopted` included — and
    // every clock charged from them are compared without carve-outs.
    assert_replay_matches(&out, &sink);
}

/// Without a sink the kernel records nothing and pays nothing:
/// `spaces` stays empty and `collect` returns `None`.
#[test]
fn no_sink_means_no_trace() {
    let sink = TraceSink::new();
    let out = Kernel::new(KernelConfig::default()).run(|_ctx| Ok(0));
    assert_eq!(out.exit, Ok(0));
    assert!(out.spaces.is_empty());
    assert!(out.space_paths.is_empty());
    assert!(sink.collect().is_none());
}

/// One run that walks every `Put`/`Get` option of Tables 1–2 — install
/// over a fresh, a resumable and a finished child, copy, zero, perm,
/// tree, snap, spawn and resume, each error path — plus device I/O and
/// a checkpoint mark.
fn tables_scenario(ctx: &mut det_kernel::SpaceCtx) -> det_kernel::NativeResult {
    let a = Region::new(0x1000, 0x3000);
    let page2 = Region::new(0x2000, 0x3000);
    let code = Region::new(0x8000, 0x9000);
    ctx.mem_mut().map_zero(a, Perm::RW)?;
    ctx.mem_mut().write_u64(0x1000, 0xAAAA)?;
    ctx.mem_mut().write_u64(0x2000, 0xBBBB)?;
    let image = det_vm::assemble(
        "
        ldi r1, 0
        li  r5, 0x2000
    loop:
        addi r1, r1, 1
        std r1, [r5+0]
        li  r6, 200
        blt r1, r6, loop
        halt
        ",
    )
    .expect("assembles");
    ctx.mem_mut().map_zero(code, Perm::RW)?;
    ctx.mem_mut().write(code.start, &image.bytes)?;

    // Child 0: every memory option at once, over a fresh child.
    let worker = || {
        Program::native(|c| {
            c.mem_mut().write_u64(0x1008, 1)?;
            c.ret(1)?;
            c.mem_mut().write_u64(0x1010, 2)?;
            Ok(7)
        })
    };
    ctx.put(
        0,
        PutSpec::new()
            .regs(Regs::at_entry(0x40))
            .program(worker())
            .copy(CopySpec::mirror(a))
            .zero(Region::new(0x2000, 0x4000))
            .perm(Region::new(0x3000, 0x4000), Perm::R)
            .snap()
            .start(),
    )?;
    let r = ctx.get(0, GetSpec::new().regs().merge(a))?;
    assert_eq!(r.stop, StopReason::Ret);
    // Install over a resumable child: refused, registers written.
    let active = ctx.put(
        0,
        PutSpec::new().regs(Regs::at_entry(0x80)).program(worker()),
    );
    assert!(matches!(active, Err(KernelError::ChildActive)));
    // Resume it, collect its exit, scrub and protect its buffer.
    let r = ctx.put_get(
        0,
        PutSpec::new().copy(CopySpec::mirror(a)).snap().start(),
        GetSpec::new().merge(a).zero(page2).perm(page2, Perm::R),
    )?;
    assert_eq!((r.stop, r.code), (StopReason::Halted, 7));
    // Install over the finished child: the old vehicle is replaced.
    ctx.put(
        0,
        PutSpec::new()
            .program(worker())
            .copy(CopySpec::mirror(a))
            .start(),
    )?;
    assert_eq!(ctx.get(0, GetSpec::new())?.stop, StopReason::Ret);

    // Errors the program observes: no snapshot (after a copy that
    // happened), a failing option that must start nothing, a Start with
    // no program.
    let c = CopySpec {
        src: page2,
        dst: 0x5000,
    };
    assert!(matches!(
        ctx.get(2, GetSpec::new().copy(c).merge(a)),
        Err(KernelError::NoSnapshot)
    ));
    let bad = CopySpec {
        src: a,
        dst: 0x1008,
    };
    assert!(
        ctx.put(6, PutSpec::new().program(worker()).copy(bad).start())
            .is_err()
    );
    assert!(matches!(
        ctx.put(7, PutSpec::new().start()),
        Err(KernelError::NoProgram)
    ));

    // Two writers of one word: the second join conflicts and is billed.
    for i in 3..5u64 {
        ctx.put(
            i,
            PutSpec::new()
                .program(Program::native(move |c| {
                    c.mem_mut().write_u64(0x1800, 100 + i)?;
                    Ok(0)
                }))
                .copy(CopySpec::mirror(a))
                .snap()
                .start(),
        )?;
    }
    ctx.get(3, GetSpec::new().merge(a))?;
    assert!(matches!(
        ctx.get(4, GetSpec::new().merge(a)),
        Err(KernelError::Conflict(_))
    ));

    // Tree: clone child 0 (parked at its Ret) into child 5; bad sources.
    ctx.put(5, PutSpec::new().tree_from(0).snap())?;
    assert!(ctx.put(5, PutSpec::new().tree_from(5)).is_err());
    assert!(ctx.put(5, PutSpec::new().tree_from(99)).is_err());

    // A VM child in limited quanta, resumed through the fused exchange.
    ctx.put(
        1,
        PutSpec::new()
            .program(Program::Vm)
            .regs(Regs::at_entry(code.start))
            .copy(CopySpec::mirror(code))
            .zero(page2)
            .snap()
            .start_limited(300),
    )?;
    let mut stop = ctx.get(1, GetSpec::new())?.stop;
    while stop == StopReason::LimitReached {
        stop = ctx
            .put_get(1, PutSpec::new().start_limited(300), GetSpec::new())?
            .stop;
    }
    assert_eq!(stop, StopReason::Halted);
    ctx.get(
        1,
        GetSpec::new()
            .merge(page2)
            .merge_policy(ConflictPolicy::ChildWins),
    )?;

    ctx.dev_write(DeviceId::ConsoleOut, b"tables")?;
    let _ = ctx.dev_read(DeviceId::Clock)?;
    ctx.checkpoint()?;
    Ok(ctx.mem().read_u64(0x2000)? as i32)
}

/// The compared face of a run, as text: exit, clock, every counter,
/// device output, and each space by lineage path.
fn render(
    exit: &Result<i32, det_kernel::TrapKind>,
    vclock_ns: u64,
    stats: &det_kernel::KernelStats,
    outputs: &std::collections::BTreeMap<DeviceId, Vec<u8>>,
    spaces: &[det_kernel::SpaceArtifact],
) -> String {
    let mut s = format!("exit={exit:?}\nvclock_ns={vclock_ns}\n");
    for (k, v) in stats.lines() {
        s.push_str(&format!("{k}={v}\n"));
    }
    for (dev, data) in outputs {
        s.push_str(&format!("{dev:?}={data:?}\n"));
    }
    let mut spaces: Vec<_> = spaces.iter().collect();
    spaces.sort_by(|a, b| a.path.cmp(&b.path));
    for sp in spaces {
        s.push_str(&format!(
            "space {} vclock_ps={} insn={} digest={:016x}\n",
            sp.path, sp.vclock_ps, sp.insn_count, sp.digest
        ));
    }
    s
}

/// The trace recorded at f920a0f decodes and encodes back to its own
/// bytes: the JSON rendering of every event kind it holds is pinned.
#[test]
fn trace_recorded_at_f920a0f_encodes_to_its_own_bytes() {
    let golden = include_str!("golden/tables_f920a0f.trace.json");
    let trace = Trace::from_json(golden).expect("a version-5 trace parses");
    assert!(trace.to_json() == golden, "the re-encoded trace differs");
}

/// A trace recorded at f920a0f — before the option sequencing moved
/// into the pure core — replays on this build to the outcome f920a0f
/// reached, and the same program run live reaches it too. The trace's
/// cross-slot event order is host-chosen, so the outcome is what is
/// pinned, not the live trace's bytes.
#[test]
fn trace_recorded_at_f920a0f_replays_to_the_same_outcome() {
    let golden = include_str!("golden/tables_f920a0f.outcome.txt");
    let trace = Trace::from_json(include_str!("golden/tables_f920a0f.trace.json"))
        .expect("a version-5 trace parses");
    let rep = trace.replay().expect("the recorded trace replays");
    assert_eq!(
        render(
            &rep.exit,
            rep.vclock_ns,
            &rep.stats,
            &rep.outputs,
            &rep.spaces
        ),
        golden
    );

    let sink = TraceSink::new();
    let out = Kernel::new(KernelConfig::builder().trace(sink.clone()).build()).run(tables_scenario);
    assert_eq!(
        render(
            &out.exit,
            out.vclock_ns,
            &out.stats,
            &out.outputs,
            &out.spaces
        ),
        golden
    );
    assert_replay_matches(&out, &sink);
}
