//! Kernel lifecycle, rendezvous, and determinism tests.

use std::sync::Arc;
use std::sync::atomic::{AtomicBool, Ordering};

use det_kernel::{
    CopySpec, DeviceId, GetSpec, IoMode, Kernel, KernelConfig, KernelError, MemError, Perm,
    Program, PutSpec, Region, Regs, RunOutcome, SpaceCtx, StopReason, TrapKind,
};

fn kernel() -> Kernel {
    Kernel::new(KernelConfig::default())
}

/// Runs a kernel scenario on a helper thread and fails the test if it
/// does not finish within the deadline — liveness regressions in the
/// rendezvous protocol must show up as test failures, not CI hangs.
fn with_watchdog<F>(f: F) -> RunOutcome
where
    F: FnOnce() -> RunOutcome + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .expect("rendezvous deadlock: scenario did not finish under the watchdog")
}

const R: Region = Region {
    start: 0x1000,
    end: 0x3000,
};

/// Sets up a two-page RW region in the root with a few markers.
fn setup_root(ctx: &mut SpaceCtx) -> det_kernel::Result<()> {
    ctx.mem_mut().map_zero(R, Perm::RW)?;
    ctx.mem_mut().write_u64(0x1000, 0xAAAA)?;
    Ok(())
}

#[test]
fn child_halts_with_exit_code() {
    let out = kernel().run(|ctx| {
        ctx.put(
            0,
            PutSpec::new().program(Program::native(|_| Ok(42))).start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!(r.stop, StopReason::Halted);
        assert_eq!(r.code, 42);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.spaces_created, 1);
    assert_eq!(out.stats.threads_spawned, 1);
}

#[test]
fn get_on_unstarted_child_sees_zero_state() {
    let out = kernel().run(|ctx| {
        let r = ctx.get(5, GetSpec::new().regs())?;
        assert_eq!(r.stop, StopReason::Unstarted);
        assert_eq!(r.regs.unwrap(), Regs::default());
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.spaces_created, 1);
}

#[test]
fn start_without_program_fails() {
    let out = kernel().run(|ctx| {
        let e = ctx.put(0, PutSpec::new().start()).unwrap_err();
        assert_eq!(e, KernelError::NoProgram);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn copy_into_child_and_back() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    let v = c.mem().read_u64(0x1000)?;
                    c.mem_mut().write_u64(0x1008, v + 1)?;
                    Ok(0)
                }))
                .copy(CopySpec::mirror(R))
                .start(),
        )?;
        ctx.get(
            0,
            GetSpec::new().copy(CopySpec {
                src: Region::new(0x1000, 0x2000),
                dst: 0x8000,
            }),
        )?;
        assert_eq!(ctx.mem().read_u64(0x8008)?, 0xAAAB);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert!(out.stats.pages_copied >= 3);
}

#[test]
fn ret_rendezvous_roundtrips() {
    let out = kernel().run(|ctx| {
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    c.ret(1)?; // First checkpoint.
                    c.ret(2)?; // Second.
                    Ok(3)
                }))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Ret, 1));
        // Resume; child rets again.
        ctx.put(0, PutSpec::new().start())?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Ret, 2));
        // Resume to completion.
        ctx.put(0, PutSpec::new().start())?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Halted, 3));
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.rets, 2);
}

#[test]
fn snapshot_merge_joins_disjoint_writes() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        for i in 0..4u64 {
            ctx.put(
                i,
                PutSpec::new()
                    .program(Program::native(move |c| {
                        c.mem_mut().write_u64(0x2000 + i * 8, 100 + i)?;
                        Ok(0)
                    }))
                    .copy(CopySpec::mirror(R))
                    .snap()
                    .start(),
            )?;
        }
        for i in 0..4u64 {
            let r = ctx.get(i, GetSpec::new().merge(R))?;
            assert!(r.merge.is_some());
        }
        for i in 0..4u64 {
            assert_eq!(ctx.mem().read_u64(0x2000 + i * 8)?, 100 + i);
        }
        // Root's own marker survived.
        assert_eq!(ctx.mem().read_u64(0x1000)?, 0xAAAA);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.merges, 4);
    assert_eq!(out.stats.conflicts, 0);
}

#[test]
fn write_write_conflict_detected_at_second_join() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        for i in 0..2u64 {
            ctx.put(
                i,
                PutSpec::new()
                    .program(Program::native(move |c| {
                        c.mem_mut().write_u64(0x2000, 100 + i)?; // Same address!
                        Ok(0)
                    }))
                    .copy(CopySpec::mirror(R))
                    .snap()
                    .start(),
            )?;
        }
        ctx.get(0, GetSpec::new().merge(R))?;
        let e = ctx.get(1, GetSpec::new().merge(R)).unwrap_err();
        match e {
            KernelError::Conflict(c) => assert_eq!(c.addr, 0x2000),
            other => panic!("expected conflict, got {other:?}"),
        }
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.conflicts, 1);
}

#[test]
fn merge_over_unaligned_region_fails_and_parent_is_intact() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    c.mem_mut().write_u64(0x2000, 0xBEEF)?;
                    Ok(0)
                }))
                .copy(CopySpec::mirror(R))
                .snap()
                .start(),
        )?;
        // Wait for the child, then attempt a misaligned merge.
        ctx.get(0, GetSpec::new())?;
        let before = ctx.mem().content_digest();
        let e = ctx
            .get(0, GetSpec::new().merge(Region::new(0x1000, 0x1800)))
            .unwrap_err();
        assert!(matches!(
            e,
            KernelError::Mem(MemError::Misaligned { addr: 0x1800 })
        ));
        // The failed join left the parent byte-identical, and the
        // child is still joinable over the aligned region.
        assert_eq!(ctx.mem().content_digest(), before);
        ctx.get(0, GetSpec::new().merge(R))?;
        assert_eq!(ctx.mem().read_u64(0x2000)?, 0xBEEF);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn merge_into_read_only_parent_mapping_fails_and_parent_is_intact() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    c.mem_mut().write_u64(0x2000, 0xF00D)?;
                    Ok(0)
                }))
                .copy(CopySpec::mirror(R))
                .snap()
                .start(),
        )?;
        ctx.get(0, GetSpec::new())?;
        // The parent downgrades the page the child wrote to read-only:
        // the join must fail up front (validate-before-write) instead
        // of silently writing through the protection.
        ctx.mem_mut()
            .set_perm(Region::new(0x2000, 0x3000), Perm::R)?;
        let before = ctx.mem().content_digest();
        let e = ctx.get(0, GetSpec::new().merge(R)).unwrap_err();
        assert!(matches!(
            e,
            KernelError::Mem(MemError::PermDenied { addr: 0x2000, .. })
        ));
        assert_eq!(ctx.mem().content_digest(), before);
        assert_eq!(ctx.mem().read_u64(0x2000)?, 0);
        // Restoring the mapping lets the same join complete.
        ctx.mem_mut()
            .set_perm(Region::new(0x2000, 0x3000), Perm::RW)?;
        ctx.get(0, GetSpec::new().merge(R))?;
        assert_eq!(ctx.mem().read_u64(0x2000)?, 0xF00D);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn merge_without_snapshot_is_rejected() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|_| Ok(0)))
                .copy(CopySpec::mirror(R))
                .start(),
        )?;
        let e = ctx.get(0, GetSpec::new().merge(R)).unwrap_err();
        assert_eq!(e, KernelError::NoSnapshot);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn child_trap_reported_to_parent() {
    let out = kernel().run(|ctx| {
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    // Unmapped access faults.
                    c.mem().read_u8(0xdead_0000)?;
                    Ok(0)
                }))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        match r.stop {
            StopReason::Trap(TrapKind::Mem(MemError::Unmapped { .. })) => {}
            other => panic!("expected unmapped trap, got {other:?}"),
        }
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.traps, 1);
}

#[test]
fn child_panic_reported_as_trap() {
    let out = kernel().run(|ctx| {
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|_| panic!("boom")))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!(r.stop, StopReason::Trap(TrapKind::Panic));
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn grandchildren_compose() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    // The child forks its own children.
                    for i in 0..2u64 {
                        c.put(
                            i,
                            PutSpec::new()
                                .program(Program::native(move |cc| {
                                    cc.mem_mut().write_u64(0x2100 + i * 8, 7 + i)?;
                                    Ok(0)
                                }))
                                .copy(CopySpec::mirror(R))
                                .snap()
                                .start(),
                        )?;
                    }
                    for i in 0..2u64 {
                        c.get(i, GetSpec::new().merge(R))?;
                    }
                    Ok(0)
                }))
                .copy(CopySpec::mirror(R))
                .snap()
                .start(),
        )?;
        ctx.get(0, GetSpec::new().merge(R))?;
        assert_eq!(ctx.mem().read_u64(0x2100)?, 7);
        assert_eq!(ctx.mem().read_u64(0x2108)?, 8);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.spaces_created, 3);
}

#[test]
fn vclock_rendezvous_takes_max() {
    let out = kernel().run(|ctx| {
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    c.charge(1_000_000)?; // 1 ms of work.
                    Ok(0)
                }))
                .start(),
        )?;
        let before = ctx.vclock_ns();
        ctx.get(0, GetSpec::new())?;
        let after = ctx.vclock_ns();
        assert!(after >= 1_000_000, "parent absorbed child's clock: {after}");
        assert!(after >= before);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert!(out.vclock_ns >= 1_000_000);
}

#[test]
fn parallel_children_overlap_in_virtual_time() {
    // Two children, 1ms each: makespan ~1ms (parallel), not 2ms.
    let out = kernel().run(|ctx| {
        for i in 0..2u64 {
            ctx.put(
                i,
                PutSpec::new()
                    .program(Program::native(|c| {
                        c.charge(1_000_000)?;
                        Ok(0)
                    }))
                    .start(),
            )?;
        }
        for i in 0..2u64 {
            ctx.get(i, GetSpec::new())?;
        }
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert!(out.vclock_ns >= 1_000_000);
    assert!(
        out.vclock_ns < 1_200_000,
        "children should overlap: {}",
        out.vclock_ns
    );
}

#[test]
fn sequential_children_accumulate_virtual_time() {
    // Fork-join one at a time: makespan ~2ms.
    let out = kernel().run(|ctx| {
        for i in 0..2u64 {
            ctx.put(
                i,
                PutSpec::new()
                    .program(Program::native(|c| {
                        c.charge(1_000_000)?;
                        Ok(0)
                    }))
                    .start(),
            )?;
            ctx.get(i, GetSpec::new())?;
        }
        Ok(0)
    });
    assert!(out.vclock_ns >= 2_000_000);
}

#[test]
fn native_limit_preempts_at_charge_points() {
    let out = kernel().run(|ctx| {
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    for _ in 0..10 {
                        c.charge(1_000)?; // 10 µs total.
                    }
                    Ok(0)
                }))
                .start_limited(3_500),
        )?;
        let mut preemptions = 0;
        loop {
            let r = ctx.get(0, GetSpec::new())?;
            match r.stop {
                StopReason::LimitReached => {
                    preemptions += 1;
                    ctx.put(0, PutSpec::new().start_limited(3_500))?;
                }
                StopReason::Halted => break,
                other => panic!("unexpected stop {other:?}"),
            }
        }
        assert!(preemptions >= 2, "got {preemptions}");
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert!(out.stats.limit_preemptions >= 2);
}

#[test]
fn vm_child_runs_and_halts() {
    let image = det_vm::assemble(
        "
        ldi r2, 21
        add r2, r2, r2
        li  r5, 0x2000
        std r2, [r5+0]
        ldi r1, 9
        halt
        ",
    )
    .unwrap();
    let out = kernel().run(move |ctx| {
        ctx.mem_mut().map_zero(Region::new(0, 0x3000), Perm::RW)?;
        ctx.mem_mut().write(0, &image.bytes)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::Vm)
                .copy(CopySpec::mirror(Region::new(0, 0x3000)))
                .regs(Regs::at_entry(0))
                .snap()
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new().merge(Region::new(0, 0x3000)))?;
        assert_eq!(r.stop, StopReason::Halted);
        assert_eq!(r.code, 9);
        assert_eq!(ctx.mem().read_u64(0x2000)?, 42);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.vm_instructions, 7); // li = 2 insns here.
}

#[test]
fn vm_sys_ret_and_resume() {
    let image = det_vm::assemble(
        "
        ldi r1, 5
        sys 0
        addi r1, r1, 1
        halt
        ",
    )
    .unwrap();
    let out = kernel().run(move |ctx| {
        ctx.mem_mut().map_zero(Region::new(0, 0x1000), Perm::RW)?;
        ctx.mem_mut().write(0, &image.bytes)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::Vm)
                .copy(CopySpec::mirror(Region::new(0, 0x1000)))
                .regs(Regs::at_entry(0))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Ret, 5));
        ctx.put(0, PutSpec::new().start())?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Halted, 6));
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn vm_tlb_stats_lock_in_translation_reduction() {
    // A workload-shaped loop (fetch + load + store per iteration) run
    // under the kernel: the software TLB must turn per-access page
    // walks into a handful of fills, and the reduction is locked in at
    // the stat level, not by wall-clock. Counters are deterministic —
    // asserted by the exact-equality replay below.
    let image = det_vm::assemble(
        "
        ldi r1, 0
        li  r5, 0x2000
        li  r6, 30000
    loop:
        addi r1, r1, 1
        std r1, [r5+0]
        ldd r2, [r5+0]
        blt r1, r6, loop
        halt
        ",
    )
    .unwrap();
    let run = || {
        let image = image.clone();
        kernel().run(move |ctx| {
            ctx.mem_mut().map_zero(Region::new(0, 0x3000), Perm::RW)?;
            ctx.mem_mut().write(0, &image.bytes)?;
            ctx.put(
                0,
                PutSpec::new()
                    .program(Program::Vm)
                    .copy(CopySpec::mirror(Region::new(0, 0x3000)))
                    .regs(Regs::at_entry(0))
                    .start(),
            )?;
            let r = ctx.get(0, GetSpec::new())?;
            assert_eq!(r.stop, StopReason::Halted);
            Ok(0)
        })
    };
    let out = run();
    let s = &out.stats;
    assert!(s.vm_instructions > 100_000, "{s:?}");
    // Pages walked per retired instruction: a fraction of a percent
    // (one fill per page per generation epoch, not one per access).
    assert!(
        s.vm_pages_walked * 200 < s.vm_instructions,
        "walked {} of {} instructions",
        s.vm_pages_walked,
        s.vm_instructions
    );
    // Fetches decode once; loads and stores hit their TLBs.
    assert!(s.vm_icache_hits > s.vm_instructions - 32);
    assert!(s.vm_tlb_hits > 2 * (s.vm_instructions / 6) - 32);
    // The counters are deterministic state: a replay reproduces them
    // exactly (the cost model charges virtual time by them).
    let again = run();
    assert_eq!(s.vm_pages_walked, again.stats.vm_pages_walked);
    assert_eq!(s.vm_tlb_hits, again.stats.vm_tlb_hits);
    assert_eq!(s.vm_icache_hits, again.stats.vm_icache_hits);
    assert_eq!(out.vclock_ns, again.vclock_ns);
}

#[test]
fn vm_instruction_limit_is_exact() {
    // A counting loop; 1 ns per instruction in the default model, so a
    // limit of N ns runs exactly N instructions.
    let image = det_vm::assemble(
        "
        ldi r2, 0
    loop:
        addi r2, r2, 1
        beq r0, r0, loop
        ",
    )
    .unwrap();
    let out = kernel().run(move |ctx| {
        ctx.mem_mut().map_zero(Region::new(0, 0x1000), Perm::RW)?;
        ctx.mem_mut().write(0, &image.bytes)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::Vm)
                .copy(CopySpec::mirror(Region::new(0, 0x1000)))
                .regs(Regs::at_entry(0))
                .start_limited(101),
        )?;
        let r = ctx.get(0, GetSpec::new().regs())?;
        assert_eq!(r.stop, StopReason::LimitReached);
        // 101 instructions: ldi + 50 × (addi, beq) = 101.
        assert_eq!(r.regs.unwrap().gpr[2], 50);
        // Resume for 10 more instructions: 5 more increments.
        ctx.put(0, PutSpec::new().start_limited(10))?;
        let r = ctx.get(0, GetSpec::new().regs())?;
        assert_eq!(r.regs.unwrap().gpr[2], 55);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.vm_instructions, 111);
}

#[test]
fn vm_trap_is_implicit_ret() {
    let image = det_vm::assemble(
        "
        ldi r1, 1
        ldi r2, 0
        div r3, r1, r2
        halt
        ",
    )
    .unwrap();
    let out = kernel().run(move |ctx| {
        ctx.mem_mut().map_zero(Region::new(0, 0x1000), Perm::RW)?;
        ctx.mem_mut().write(0, &image.bytes)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::Vm)
                .copy(CopySpec::mirror(Region::new(0, 0x1000)))
                .regs(Regs::at_entry(0))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!(r.stop, StopReason::Trap(TrapKind::DivideByZero));
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn tree_copy_clones_child_subtree() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        // Build child 0 with some state and a grandchild.
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    c.mem_mut().write_u64(0x1100, 77)?;
                    c.put(9, PutSpec::new().zero(Region::new(0x4000, 0x5000)))?;
                    Ok(0)
                }))
                .copy(CopySpec::mirror(R))
                .start(),
        )?;
        ctx.get(0, GetSpec::new())?;
        // Clone child 0's subtree into child 1.
        ctx.put(1, PutSpec::new().tree_from(0))?;
        let r = ctx.get(
            1,
            GetSpec::new().copy(CopySpec {
                src: Region::new(0x1000, 0x2000),
                dst: 0x9000,
            }),
        )?;
        assert_eq!(r.stop, StopReason::Unstarted);
        assert_eq!(ctx.mem().read_u64(0x9100)?, 77);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    // Root + child0 + grandchild + clone + cloned grandchild.
    assert_eq!(out.stats.spaces_created, 4);
}

/// `Tree` rendezvouses with its source like any other kernel call
/// (§3.2): issued while the source's vehicle still holds its state, it
/// waits for the stop instead of failing with a host-timing-dependent
/// `ChildActive`.
#[test]
fn tree_copy_waits_for_a_running_source() {
    let out = with_watchdog(|| {
        kernel().run(|ctx| {
            setup_root(ctx)?;
            ctx.put(
                0,
                PutSpec::new()
                    .program(Program::native(|c| {
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        c.mem_mut().write_u64(0x1100, 77)?;
                        Ok(0)
                    }))
                    .copy(CopySpec::mirror(R))
                    .start(),
            )?;
            ctx.put(1, PutSpec::new().tree_from(0))?;
            ctx.get(
                1,
                GetSpec::new().copy(CopySpec {
                    src: Region::new(0x1000, 0x2000),
                    dst: 0x9000,
                }),
            )?;
            assert_eq!(ctx.mem().read_u64(0x9100)?, 77);
            Ok(0)
        })
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn device_access_is_root_only() {
    let out = kernel().run(|ctx| {
        assert!(ctx.is_root());
        ctx.dev_write(DeviceId::ConsoleOut, b"root writes\n")?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    assert!(!c.is_root());
                    match c.dev_write(DeviceId::ConsoleOut, b"child writes") {
                        Err(KernelError::NotRoot) => Ok(0),
                        other => panic!("expected NotRoot, got {other:?}"),
                    }
                }))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!(r.stop, StopReason::Halted);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.console(), b"root writes\n");
}

#[test]
fn console_input_and_record_replay() {
    let run = |io: IoMode, push: bool| {
        let k = Kernel::new(KernelConfig::builder().io(io).build());
        if push {
            k.push_input(DeviceId::ConsoleIn, b"hello".to_vec());
        }
        k.run(|ctx| {
            let input = ctx.dev_read(DeviceId::ConsoleIn)?.unwrap_or_default();
            let clock = ctx.dev_read(DeviceId::Clock)?.unwrap();
            let rand = ctx.dev_read(DeviceId::Random)?.unwrap();
            ctx.dev_write(DeviceId::ConsoleOut, &input)?;
            ctx.dev_write(DeviceId::ConsoleOut, &clock)?;
            ctx.dev_write(DeviceId::ConsoleOut, &rand)?;
            Ok(0)
        })
    };
    let first = run(IoMode::Record, true);
    assert_eq!(first.io_log.events.len(), 3);
    // Replay without pushing input: identical output.
    let second = run(IoMode::Replay(first.io_log.clone()), false);
    assert_eq!(first.console(), second.console());
}

/// Why re-execution from the input log stays beside trace replay:
/// input that arrives *while* the root runs. The root finds the console
/// empty, asks a host thread for input and polls until it lands; how
/// many empty polls that takes is host timing, and each one charges
/// virtual time. The log records every poll, so re-executing from it
/// reproduces the run exactly — and no input pushed before the run
/// could have produced its `None` before the `Some`.
#[test]
fn input_pushed_mid_run_reexecutes_from_its_log() {
    fn root(ctx: &mut SpaceCtx, ask: &std::sync::mpsc::Sender<()>) -> det_kernel::NativeResult {
        let mut empty_polls = 0;
        let data = loop {
            match ctx.dev_read(DeviceId::ConsoleIn)? {
                Some(data) => break data,
                None if empty_polls == 0 => {
                    // Re-executed, nobody listens: the log answers.
                    let _ = ask.send(());
                }
                None => std::thread::yield_now(),
            }
            empty_polls += 1;
        };
        ctx.dev_write(DeviceId::ConsoleOut, &data)?;
        Ok(empty_polls)
    }
    let (ask, asked) = std::sync::mpsc::channel();
    let kernel = kernel();
    let input = kernel.input_handle();
    let host = std::thread::spawn(move || {
        asked.recv().expect("the root asks for input");
        input.push(DeviceId::ConsoleIn, b"late".to_vec());
    });
    let live = kernel.run(move |ctx| root(ctx, &ask));
    host.join().expect("host thread");
    assert_eq!(live.console(), b"late");
    let log = &live.io_log.events;
    assert_eq!(log.first().map(|e| e.data.is_none()), Some(true));
    assert_eq!(
        log.last().and_then(|e| e.data.as_deref()),
        Some(&b"late"[..])
    );

    let (ask, _) = std::sync::mpsc::channel();
    let replayed = Kernel::new(
        KernelConfig::builder()
            .io(IoMode::Replay(live.io_log.clone()))
            .build(),
    )
    .run(move |ctx| root(ctx, &ask));
    assert_eq!(replayed.exit, live.exit);
    assert_eq!(replayed.console(), live.console());
    assert_eq!(replayed.vclock_ns, live.vclock_ns);
    assert_eq!(replayed.stats, live.stats);
}

#[test]
fn replay_divergence_detected() {
    let first = kernel().run(|ctx| {
        ctx.dev_read(DeviceId::Clock)?;
        Ok(0)
    });
    let replayed = Kernel::new(
        KernelConfig::builder()
            .io(IoMode::Replay(first.io_log))
            .build(),
    )
    .run(|ctx| {
        // Ask for a different device than the log has.
        match ctx.dev_read(DeviceId::Random) {
            Err(KernelError::ReplayDivergence(_)) => Ok(0),
            other => panic!("expected divergence, got {other:?}"),
        }
    });
    assert_eq!(replayed.exit, Ok(0));
}

#[test]
fn a_same_value_double_write_conflicts() {
    // §2.2: a write/write overlap at join is an error even when both
    // sides wrote the same value.
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        for i in 0..2u64 {
            ctx.put(
                i,
                PutSpec::new()
                    .program(Program::native(|c| {
                        c.mem_mut().write_u64(0x2000, 555)?; // Same value.
                        Ok(0)
                    }))
                    .copy(CopySpec::mirror(R))
                    .snap()
                    .start(),
            )?;
        }
        ctx.get(0, GetSpec::new().merge(R))?;
        let e = ctx.get(1, GetSpec::new().merge(R)).unwrap_err();
        match e {
            KernelError::Conflict(c) => assert_eq!(c.addr, 0x2000),
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(ctx.mem().read_u64(0x2000)?, 555);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.conflicts, 1);
}

#[test]
fn results_identical_across_host_schedules() {
    // Race-prone structure: many children writing disjoint slots with
    // varying compute times. The final memory digest and virtual time
    // must be identical across runs regardless of host scheduling.
    let run = |spin: bool| {
        kernel().run(move |ctx| {
            setup_root(ctx)?;
            for i in 0..8u64 {
                ctx.put(
                    i,
                    PutSpec::new()
                        .program(Program::native(move |c| {
                            if spin && i % 2 == 0 {
                                // Perturb host timing without touching
                                // virtual state.
                                std::thread::sleep(std::time::Duration::from_millis(2));
                            }
                            c.charge(1_000 * (i + 1))?;
                            c.mem_mut().write_u64(0x2000 + i * 8, i * i)?;
                            Ok(0)
                        }))
                        .copy(CopySpec::mirror(R))
                        .snap()
                        .start(),
                )?;
            }
            for i in 0..8u64 {
                ctx.get(i, GetSpec::new().merge(R))?;
            }
            Ok(ctx.mem().content_digest().value() as i32)
        })
    };
    let a = run(false);
    let b = run(true);
    assert_eq!(a.exit, b.exit);
    assert_eq!(a.vclock_ns, b.vclock_ns);
}

#[test]
fn many_sequential_spaces_no_leak() {
    // Exercise slot reuse: 100 forks into the same child number.
    let out = kernel().run(|ctx| {
        for i in 0..100 {
            ctx.put(
                0,
                PutSpec::new()
                    .program(Program::native(move |_| Ok(i)))
                    .start(),
            )?;
            let r = ctx.get(0, GetSpec::new())?;
            assert_eq!(r.code, i as u64);
        }
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.spaces_created, 1);
    // A hundred vehicles started on one OS thread: each child's worker
    // is back on the pool's stack before its exit is visible, so every
    // fork after the first re-arms it. Exact, not a bound.
    assert_eq!(out.stats.threads_spawned, 100);
    assert_eq!(out.host.os_threads_created, 1);
}

/// Two finished children (their workers idle on the pool's stack), two
/// parked at a barrier and one compute-looping in `charge`. With
/// `join_first` the root releases the barrier, stops the loop and
/// collects all three before returning; without, it just returns.
fn teardown_scenario(join_first: bool) -> RunOutcome {
    let stop_looping = Arc::new(AtomicBool::new(false));
    let stop = Arc::clone(&stop_looping);
    let out = with_watchdog(move || {
        kernel().run(move |ctx| {
            for done in 0..2 {
                let finished = Program::native(|_| Ok(0));
                ctx.put(done, PutSpec::new().program(finished).start())?;
            }
            for done in 0..2 {
                assert_eq!(ctx.get(done, GetSpec::new())?.stop, StopReason::Halted);
            }
            for parked in 2..4 {
                let at_barrier = Program::native(|c| c.ret(0).map(|()| 0));
                ctx.put(parked, PutSpec::new().program(at_barrier).start())?;
            }
            for parked in 2..4 {
                assert_eq!(ctx.get(parked, GetSpec::new())?.stop, StopReason::Ret);
            }
            let looping = Program::native(move |c| {
                while !stop.load(Ordering::SeqCst) {
                    c.charge(1)?;
                    std::thread::yield_now();
                }
                Ok(0)
            });
            ctx.put(4, PutSpec::new().program(looping).start())?;
            if join_first {
                stop_looping.store(true, Ordering::SeqCst);
                for child in 2..4 {
                    ctx.put(child, PutSpec::new().start())?;
                }
                for child in 2..5 {
                    assert_eq!(ctx.get(child, GetSpec::new())?.stop, StopReason::Halted);
                }
            }
            Ok(0)
        })
    });
    assert_eq!(out.exit, Ok(0));
    out
}

#[test]
fn unjoined_running_child_is_cleaned_up() {
    // The root exits while children are parked, computing, and done:
    // shutdown must not hang (the parked ones are woken into
    // `Destroyed`, the looping one observes it at a `charge`; that
    // every pooled thread has been joined when `run` returns is
    // `kernel::tests::run_leaves_no_worker_behind`, which can see it).
    let abandoned = teardown_scenario(false);
    // Five vehicles on three threads: both finished children were
    // collected before the third fork, so it found a worker parked.
    assert_eq!(abandoned.stats.threads_spawned, 5);
    assert_eq!(abandoned.host.os_threads_created, 3);
    // Teardown is not a rendezvous: a space destroyed mid-flight checks
    // nothing in, so the stop counters are what the same program
    // reports when it collects everyone first.
    let joined = teardown_scenario(true);
    assert_eq!(joined.host.os_threads_created, 3);
    let stops = |s: &det_kernel::KernelStats| (s.rets, s.traps, s.limit_preemptions);
    assert_eq!(stops(&abandoned.stats), (2, 0, 0));
    assert_eq!(stops(&abandoned.stats), stops(&joined.stats));
}

/// A child number is a plain 64-bit name with no reserved bits: one
/// with bit 48 set (once a cluster node field) names an ordinary
/// child, distinct from the child whose low bits it shares.
#[test]
fn child_number_high_bits_name_ordinary_children() {
    let out = kernel().run(|ctx| {
        for (c, code) in [(1u64, 11), ((1u64 << 48) | 1, 22), (u64::MAX, 33)] {
            ctx.put(
                c,
                PutSpec::new()
                    .program(Program::native(move |_| Ok(code)))
                    .start(),
            )?;
        }
        for (c, code) in [(1u64, 11), ((1u64 << 48) | 1, 22), (u64::MAX, 33)] {
            assert_eq!(ctx.get(c, GetSpec::new())?.code, code);
        }
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.spaces_created, 3);
    assert_eq!(out.stats.migrations, 0);
}

#[test]
fn root_cannot_ret() {
    let out = kernel().run(|ctx| match ctx.ret(0) {
        Err(KernelError::InvalidSpec(_)) => Ok(0),
        other => panic!("expected InvalidSpec, got {other:?}"),
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn root_trap_reported_in_outcome() {
    let out = kernel().run(|ctx| {
        ctx.mem().read_u8(0x1)?;
        Ok(0)
    });
    assert!(matches!(out.exit, Err(TrapKind::Mem(_))));
}

// ---------------------------------------------------------------------
// Targeted-wakeup rendezvous engine (DESIGN.md §6)
// ---------------------------------------------------------------------

/// A space thread that dies without checking in — here by fabricating
/// the kernel's own `Destroyed` error — must trap its waiting parent
/// deterministically instead of leaving the slot stuck in `Running`
/// and the parent deadlocked in `wait_idle` forever.
#[test]
fn fabricated_destroyed_return_traps_parent_not_deadlock() {
    let out = with_watchdog(|| {
        kernel().run(|ctx| {
            ctx.put(
                0,
                PutSpec::new()
                    .program(Program::native(|_| Err(KernelError::Destroyed)))
                    .start(),
            )?;
            let r = ctx.get(0, GetSpec::new())?;
            match r.stop {
                StopReason::Trap(TrapKind::Fault(_)) => Ok(0),
                other => panic!("expected fault trap, got {other:?}"),
            }
        })
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.traps, 1);
}

/// A child that panics mid-rendezvous-protocol (after a successful
/// `Ret` round trip) must surface as a trap at the parent's next
/// rendezvous, never as a hang.
#[test]
fn panicking_child_mid_rendezvous_traps_parent() {
    let out = with_watchdog(|| {
        kernel().run(|ctx| {
            ctx.put(
                0,
                PutSpec::new()
                    .program(Program::native(|c| {
                        c.ret(1)?;
                        panic!("child dies between rendezvous");
                    }))
                    .start(),
            )?;
            let r = ctx.get(0, GetSpec::new())?;
            assert_eq!((r.stop, r.code), (StopReason::Ret, 1));
            ctx.put(0, PutSpec::new().start())?;
            let r = ctx.get(0, GetSpec::new())?;
            assert_eq!(r.stop, StopReason::Trap(TrapKind::Panic));
            Ok(0)
        })
    });
    assert_eq!(out.exit, Ok(0));
}

/// A native program's trap is terminal (the closure has unwound;
/// there is no vehicle left to resume): `Start` must fail cleanly
/// instead of marking the slot `Running` with nobody to wake — which
/// would deadlock the next `wait_idle`.
#[test]
fn resume_after_terminal_native_trap_fails_cleanly() {
    let out = with_watchdog(|| {
        kernel().run(|ctx| {
            ctx.put(
                0,
                PutSpec::new()
                    .program(Program::native(|_| panic!("boom")))
                    .start(),
            )?;
            let r = ctx.get(0, GetSpec::new())?;
            assert_eq!(r.stop, StopReason::Trap(TrapKind::Panic));
            match ctx.put(0, PutSpec::new().start()) {
                Err(KernelError::NoProgram) => {}
                other => panic!("expected NoProgram, got {other:?}"),
            }
            // The slot is reusable with a fresh program.
            ctx.put(
                0,
                PutSpec::new().program(Program::native(|_| Ok(5))).start(),
            )?;
            let r = ctx.get(0, GetSpec::new())?;
            assert_eq!((r.stop, r.code), (StopReason::Halted, 5));
            Ok(0)
        })
    });
    assert_eq!(out.exit, Ok(0));
}

/// A started VM child that root never joins retires nothing, however
/// long the host lets the run live: a VM leaf executes only on the
/// thread that waits for it, so `vm_instructions` — a compared counter
/// — cannot leak host time. (On a thread of its own the same child
/// retired a host-timing-dependent number of instructions before
/// shutdown.)
#[test]
fn abandoned_vm_child_retires_nothing() {
    let image = det_vm::assemble(
        "
    loop:
        addi r2, r2, 1
        beq r0, r0, loop
        ",
    )
    .unwrap();
    let run = |host_sleep_ms: u64| {
        let image = image.clone();
        with_watchdog(move || {
            kernel().run(move |ctx| {
                ctx.mem_mut().map_zero(Region::new(0, 0x1000), Perm::RW)?;
                ctx.mem_mut().write(0, &image.bytes)?;
                ctx.put(
                    0,
                    PutSpec::new()
                        .program(Program::Vm)
                        .copy(CopySpec::mirror(Region::new(0, 0x1000)))
                        .regs(Regs::at_entry(0))
                        .start(),
                )?;
                std::thread::sleep(std::time::Duration::from_millis(host_sleep_ms));
                Ok(0)
            })
        })
    };
    for host_sleep_ms in [0, 30] {
        let out = run(host_sleep_ms);
        assert_eq!(out.exit, Ok(0));
        assert_eq!(out.stats.vm_instructions, 0, "after {host_sleep_ms} ms");
        assert_eq!(out.stats.vm_inline_runs, 0);
        assert_eq!(out.stats.threads_spawned, 0);
    }
}

/// The targeted-wakeup lock-in: every park/resume/final check-in
/// issues exactly one condvar notify aimed at its one known waiter,
/// so the total is an exact deterministic function of the rendezvous
/// history — and, critically, *independent of how many other spaces
/// sit parked*. A broadcast engine (the old `notify_all` herd) cannot
/// reproduce these counts.
#[test]
fn targeted_wakeups_exact_and_independent_of_parked_population() {
    const R: u64 = 50; // Roundtrips on the active child.
    let run = |bystanders: u64| {
        kernel().run(move |ctx| {
            // Park `bystanders` children at a Ret rendezvous.
            for b in 0..bystanders {
                ctx.put(
                    b,
                    PutSpec::new()
                        .program(Program::native(|c| {
                            c.ret(0)?;
                            Ok(0)
                        }))
                        .start(),
                )?;
                ctx.get(b, GetSpec::new())?;
            }
            // Drive R rendezvous roundtrips on one more child.
            ctx.put(
                100,
                PutSpec::new()
                    .program(Program::native(|c| {
                        for _ in 0..R {
                            c.ret(0)?;
                        }
                        Ok(0)
                    }))
                    .start(),
            )?;
            for _ in 0..R {
                ctx.get(100, GetSpec::new())?;
                ctx.put(100, PutSpec::new().start())?;
            }
            ctx.get(100, GetSpec::new())?;
            Ok(0)
        })
    };
    // Per roundtrip: one park notify + one resume notify. Plus one
    // park notify per bystander and one final check-in notify for the
    // active child's halt.
    let expect = |b: u64| 2 * R + b + 1;
    for b in [0u64, 6] {
        let out = run(b);
        assert_eq!(out.exit, Ok(0));
        assert_eq!(
            out.stats.condvar_wakeups,
            expect(b),
            "wakeups for {b} parked bystanders"
        );
        // Deterministic: an identical rerun reproduces the count.
        assert_eq!(run(b).stats.condvar_wakeups, expect(b));
    }
}

/// The inline VM drive: a leaf VM space is executed by the waiting
/// parent, so its rendezvous issues no condvar traffic and spawns no
/// vehicle at all.
#[test]
fn vm_inline_rendezvous_issues_no_wakeups() {
    let image = det_vm::assemble(
        "
    loop:
        sys 0
        beq r0, r0, loop
        ",
    )
    .unwrap();
    let out = kernel().run(move |ctx| {
        ctx.mem_mut().map_zero(Region::new(0, 0x1000), Perm::RW)?;
        ctx.mem_mut().write(0, &image.bytes)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::Vm)
                .copy(CopySpec::mirror(Region::new(0, 0x1000)))
                .regs(Regs::at_entry(0))
                .start(),
        )?;
        for _ in 0..40 {
            let r = ctx.get(0, GetSpec::new())?;
            assert_eq!(r.stop, StopReason::Ret);
            ctx.put(0, PutSpec::new().start())?;
        }
        ctx.get(0, GetSpec::new())?;
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(
        out.stats.condvar_wakeups, 0,
        "inline rendezvous must not touch condvars"
    );
    assert_eq!(
        out.stats.threads_spawned, 0,
        "leaf VM spaces need no vehicle"
    );
    assert!(out.stats.vm_inline_runs > 40);
    assert_eq!(out.stats.rets, 41);
}

/// Installing a program over a child parked at a *resumable* trap is
/// `ChildActive` — the live program must not be replaced out from
/// under a possible resume.
#[test]
fn program_replacement_over_resumable_trap_is_child_active() {
    let image = det_vm::assemble(
        "
        ldi r1, 1
        ldi r2, 0
        div r3, r1, r2
        halt
        ",
    )
    .unwrap();
    let out = kernel().run(move |ctx| {
        ctx.mem_mut().map_zero(Region::new(0, 0x1000), Perm::RW)?;
        ctx.mem_mut().write(0, &image.bytes)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::Vm)
                .copy(CopySpec::mirror(Region::new(0, 0x1000)))
                .regs(Regs::at_entry(0))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!(r.stop, StopReason::Trap(TrapKind::DivideByZero));
        match ctx.put(0, PutSpec::new().program(Program::Vm)) {
            Err(KernelError::ChildActive) => Ok(0),
            other => panic!("expected ChildActive, got {other:?}"),
        }
    });
    assert_eq!(out.exit, Ok(0));
}

/// A VM child's stores reach its parent at each rendezvous, one `Ret`
/// at a time: the parent's copy-out sees 1, 2, … 5, then the halt.
#[test]
fn vm_ret_loop_publishes_each_store_at_its_rendezvous() {
    let image = det_vm::assemble(
        "
        ldi r1, 0
        li  r5, 0x2000
    loop:
        addi r1, r1, 1
        std r1, [r5+0]
        sys 0
        li  r6, 5
        blt r1, r6, loop
        halt
        ",
    )
    .unwrap();
    let out = kernel().run(move |ctx| {
        ctx.mem_mut().map_zero(Region::new(0, 0x3000), Perm::RW)?;
        ctx.mem_mut().write(0, &image.bytes)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::Vm)
                .copy(CopySpec::mirror(Region::new(0, 0x3000)))
                .regs(Regs::at_entry(0))
                .start(),
        )?;
        let mut seen = Vec::new();
        loop {
            let r = ctx.get(
                0,
                GetSpec::new().copy(CopySpec {
                    src: Region::new(0x2000, 0x3000),
                    dst: 0x8000,
                }),
            )?;
            seen.push(ctx.mem().read_u64(0x8000)?);
            match r.stop {
                StopReason::Ret => ctx.put(0, PutSpec::new().start())?,
                StopReason::Halted => break,
                other => panic!("unexpected stop {other:?}"),
            };
        }
        assert_eq!(seen, [1, 2, 3, 4, 5, 5]);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!((out.stats.rets, out.stats.puts, out.stats.gets), (5, 6, 6));
    assert_eq!(out.stats.vm_inline_runs, 6);
}

/// The fused `PutGet` exchange: applies the Put at the current stop,
/// restarts the child, and collects its *next* stop in one kernel
/// entry.
#[test]
fn put_get_exchange_resumes_and_collects_next_stop() {
    let out = kernel().run(|ctx| {
        // Without Start the exchange has no next stop to collect.
        match ctx.put_get(0, PutSpec::new(), GetSpec::new()) {
            Err(KernelError::InvalidSpec(_)) => {}
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    for i in 1..=3u64 {
                        c.ret(i)?;
                    }
                    Ok(9)
                }))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Ret, 1));
        let r = ctx.put_get(0, PutSpec::new().start(), GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Ret, 2));
        let r = ctx.put_get(0, PutSpec::new().start(), GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Ret, 3));
        let r = ctx.put_get(0, PutSpec::new().start(), GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Halted, 9));
        // Nothing left to resume.
        match ctx.put_get(0, PutSpec::new().start(), GetSpec::new()) {
            Err(KernelError::NoProgram) => {}
            other => panic!("expected NoProgram, got {other:?}"),
        }
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    // Counted at kernel entry, like puts/gets: 3 successful exchanges
    // plus the final NoProgram attempt.
    assert_eq!(out.stats.put_gets, 4);
    assert_eq!(out.stats.puts, 1);
    assert_eq!(out.stats.gets, 1);
    assert_eq!(out.stats.rets, 3);
}

/// `PutGet` carries the full option set through both rendezvous: the
/// Put stages state into the child, the Get merges the child's writes
/// out of its next stop.
#[test]
fn put_get_stages_and_merges_like_split_calls() {
    let out = kernel().run(|ctx| {
        setup_root(ctx)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    // Round 1: publish what we inherited, then stop.
                    let seen = c.mem().read_u64(0x1000)?;
                    c.mem_mut().write_u64(0x2000, seen)?;
                    c.ret(0)?;
                    // Round 2 (after the parent's PutGet restaged us):
                    let seen = c.mem().read_u64(0x1000)?;
                    c.mem_mut().write_u64(0x2008, seen)?;
                    Ok(0)
                }))
                .copy(CopySpec::mirror(R))
                .snap()
                .start(),
        )?;
        ctx.get(0, GetSpec::new().merge(R))?;
        assert_eq!(ctx.mem().read_u64(0x2000)?, 0xAAAA);
        // Re-stage a changed input and collect the next round's merge
        // in one exchange.
        ctx.mem_mut().write_u64(0x1000, 0xBBBB)?;
        let r = ctx.put_get(
            0,
            PutSpec::new().copy(CopySpec::mirror(R)).snap().start(),
            GetSpec::new().merge(R),
        )?;
        assert_eq!(r.stop, StopReason::Halted);
        assert!(r.merge.is_some());
        assert_eq!(ctx.mem().read_u64(0x2008)?, 0xBBBB);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.stats.merges, 2);
}

#[test]
fn fork_charges_leaves_not_pages() {
    // The structural-clone cost rule: a Put with Copy+Snap over a
    // leaf-congruent 4 MiB region charges per shared page-table leaf
    // (2 for 4 MiB), not per mapped page (1024) — the O(touched) fork
    // of PAPER.md §3.2/§8. The stats expose the split so the reduction
    // is locked in as deterministic counters.
    use det_memory::PAGES_PER_LEAF;
    let leaf_bytes = (PAGES_PER_LEAF * 4096) as u64;
    let big = Region::sized(4 * leaf_bytes, 4 * 1024 * 1024);
    let out = kernel().run(move |ctx| {
        ctx.mem_mut().map_zero(big, Perm::RW)?;
        for vpn in 0..big.page_count() {
            ctx.mem_mut().write_u64(big.start + vpn * 4096, vpn)?;
        }
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|_| Ok(0)))
                .copy(CopySpec::mirror(big))
                .snap()
                .start(),
        )?;
        ctx.get(0, GetSpec::new())?;
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    // Copy shared 2 leaves; Snap cloned the child's 2-leaf spine.
    assert_eq!(out.stats.leaves_cloned, 4);
    assert_eq!(out.stats.pages_copied, 1024);
    assert_eq!(out.stats.pages_snapped, 1024);
    // The virtual-time charge for the whole fork must be far below the
    // per-page cost it replaced (1024 pages × page_map_ps twice).
    let costs = det_kernel::CostModel::calibrated();
    assert!(costs.clone_cost_ps(4) * 5 < costs.map_cost_ps(2 * 1024));
    // Below one leaf the same rule holds wherever sharing the leaf is
    // the same operation as installing its pages, to the picosecond.
    hold_live_and_replayed(COPY_ROWS);
}

/// Page `page` of page-table leaf 1, `pages` long.
const fn in_leaf_1(page: u64, pages: u64) -> Region {
    let start = (det_memory::PAGES_PER_LEAF as u64 + page) * 4096;
    Region {
        start,
        end: start + pages * 4096,
    }
}

/// A barrier-sized shared region with leaf 1 to itself.
const LONE: Region = in_leaf_1(100, 64);
/// One page of the same leaf, outside [`LONE`].
const NEIGHBOUR: Region = in_leaf_1(7, 1);

/// Maps `mapped` in the root and measures one `Put` whose only option
/// is a `Copy` of `copied` into child 0.
fn measure_copy(
    ctx: &mut SpaceCtx,
    mapped: &[Region],
    copied: Region,
) -> det_kernel::Result<Vec<u64>> {
    for r in mapped {
        ctx.mem_mut().map_zero(*r, Perm::RW)?;
    }
    let t0 = ctx.vclock_ps();
    ctx.put(0, PutSpec::new().copy(CopySpec::mirror(copied)))?;
    Ok(vec![ctx.vclock_ps() - t0])
}

/// What one `Copy` is billed below one leaf (DESIGN.md §5), stated from
/// the layout each row builds and never from what the memory crate
/// reported about it.
const COPY_ROWS: &[TableRow] = &[
    TableRow {
        name: "Copy: 64 pages alone in their leaf are billed one leaf share",
        run: |ctx| measure_copy(ctx, &[LONE], LONE),
        check: |m, stats| {
            let costs = det_kernel::CostModel::calibrated();
            assert_eq!(m[0], costs.syscall_ps + costs.space_clone_ps);
            assert_eq!((stats.leaves_cloned, stats.pages_copied), (1, 64));
        },
    },
    TableRow {
        name: "Copy: 10 pages alone in their leaf are billed ten page maps, the cheaper bill",
        run: |ctx| measure_copy(ctx, &[in_leaf_1(100, 10)], in_leaf_1(100, 10)),
        check: |m, stats| {
            let costs = det_kernel::CostModel::calibrated();
            assert_eq!(m[0], costs.syscall_ps + 10 * costs.page_map_ps);
            assert_eq!((stats.leaves_cloned, stats.pages_copied), (0, 10));
        },
    },
    TableRow {
        name: "Copy: 64 pages sharing their leaf with another mapping of the source are billed 64 page maps",
        run: |ctx| measure_copy(ctx, &[LONE, NEIGHBOUR], LONE),
        check: |m, stats| {
            let costs = det_kernel::CostModel::calibrated();
            assert_eq!(m[0], costs.syscall_ps + 64 * costs.page_map_ps);
            assert_eq!((stats.leaves_cloned, stats.pages_copied), (0, 64));
        },
    },
    TableRow {
        name: "Copy: a child holding a page of its own elsewhere in the leaf is billed 64 page maps and keeps it",
        run: |ctx| {
            ctx.put(0, PutSpec::new().zero(NEIGHBOUR))?;
            let measured = measure_copy(ctx, &[LONE], LONE)?;
            // Copied out, a page the child lost would arrive unmapped.
            let out = CopySpec {
                src: NEIGHBOUR,
                dst: 0x5000,
            };
            ctx.get(0, GetSpec::new().copy(out))?;
            assert_eq!(ctx.mem().read_u64(0x5000)?, 0, "still the child's");
            Ok(measured)
        },
        check: |m, stats| {
            let costs = det_kernel::CostModel::calibrated();
            assert_eq!(m[0], costs.syscall_ps + 64 * costs.page_map_ps);
            // The child's zeroed page and the parent's copy of it count too.
            assert_eq!((stats.leaves_cloned, stats.pages_copied), (0, 1 + 64 + 1));
        },
    },
];

#[test]
fn lone_region_barrier_loop_resumes_from_a_checkpoint_on_the_same_clock() {
    // A restored kernel's spaces share no leaf with one another, the
    // live ones did: the Copy's choice of arm reads mapped sets, so
    // the resumed half of the run is billed what the live one was.
    const THREADS: u64 = 2;
    const ROUNDS: u64 = 4;
    let sink = det_kernel::TraceSink::new();
    let live = with_watchdog({
        let sink = sink.clone();
        move || {
            Kernel::new(KernelConfig::builder().trace(sink).build()).run(|ctx| {
                ctx.mem_mut().map_zero(LONE, Perm::RW)?;
                let redistribute = || PutSpec::new().copy(CopySpec::mirror(LONE)).snap().start();
                for i in 0..THREADS {
                    let worker = Program::native(move |c| {
                        for round in 0..ROUNDS {
                            let mine = LONE.start + (i * 8 + round) * 4096;
                            c.mem_mut().write_u64(mine, (round << 8) | i)?;
                            c.ret(round)?;
                        }
                        Ok(0)
                    });
                    ctx.put(i, redistribute().program(worker))?;
                }
                for _ in 0..ROUNDS {
                    // A barrier: everyone joins, then everyone is handed
                    // the merged image.
                    for i in 0..THREADS {
                        let r = ctx.get(i, GetSpec::new().merge(LONE))?;
                        assert_eq!(r.stop, StopReason::Ret);
                    }
                    for i in 0..THREADS {
                        ctx.put(i, redistribute())?;
                    }
                }
                for i in 0..THREADS {
                    let r = ctx.get(i, GetSpec::new().merge(LONE))?;
                    assert_eq!(r.stop, StopReason::Halted);
                }
                Ok(0)
            })
        }
    });
    assert_eq!(live.exit, Ok(0));
    // Every hand-out shared the leaf, and every Snap cloned one.
    let copies = THREADS * (1 + ROUNDS);
    assert_eq!(live.stats.leaves_cloned, 2 * copies);
    assert_eq!(live.stats.pages_copied, 64 * copies);

    let trace = sink.collect().expect("recorded");
    let len = trace.events.len();
    let boundary = det_kernel::latest_restorable_boundary(&trace, len / 2);
    assert!(
        boundary > len / 4,
        "between two barriers, not at the start: {boundary} of {len}"
    );
    let ckpt = det_kernel::Checkpoint::capture(&trace, boundary).expect("capture");
    let resumed = det_kernel::Checkpoint::from_bytes(&ckpt.to_bytes())
        .expect("round-trips")
        .restore()
        .expect("restores")
        .resume(&trace.events[boundary..])
        .expect("resumes");
    assert_eq!(resumed.vclock_ns, live.vclock_ns);
    assert_eq!(resumed.stats, live.stats);
    assert_eq!(resumed.spaces, live.spaces);
}

// ---------------------------------------------------------------------------
// Tables 1–2 from first principles: the option order of `Put` and `Get`
// and who pays for what, one row per rule. None of these goes through a
// comparison of the live kernel with its replay — each row states what
// PAPER.md §3.2 / DESIGN.md §1 say must happen and checks it on the live
// outcome, then again on the outcome replayed from the run's trace.
// ---------------------------------------------------------------------------

/// One rule of Tables 1–2. `run` is the root program: it asserts what
/// it can see from inside (memory, registers, error values) and
/// returns the clock deltas it measured, in picoseconds; `check` pins
/// those and the run's counters.
struct TableRow {
    name: &'static str,
    run: fn(&mut SpaceCtx) -> det_kernel::Result<Vec<u64>>,
    check: fn(&[u64], &det_kernel::KernelStats),
}

/// A child that parks once, then halts.
fn ret_then_halt() -> Program {
    Program::native(|c| {
        c.ret(0)?;
        Ok(0)
    })
}

const TABLE_ROWS: &[TableRow] = &[
    TableRow {
        name: "Put: Perm applies after Zero, so a zeroed range can be handed over read-only",
        run: |ctx| {
            let probe = Program::native(|c| {
                let denied = c.mem_mut().write_u64(R.start, 1).is_err();
                Ok((denied && c.mem().read_u64(R.start)? == 0) as i32)
            });
            ctx.put(
                0,
                PutSpec::new()
                    .program(probe)
                    .zero(R)
                    .perm(R, Perm::R)
                    .start(),
            )?;
            assert_eq!(ctx.get(0, GetSpec::new())?.code, 1);
            Ok(vec![])
        },
        check: |_, _| {},
    },
    TableRow {
        name: "Put: Zero applies after Copy, so where they overlap the child sees zeros",
        run: |ctx| {
            setup_root(ctx)?;
            ctx.mem_mut().write_u64(0x2000, 0xBBBB)?;
            ctx.put(
                0,
                PutSpec::new()
                    .copy(CopySpec::mirror(R))
                    .zero(Region::new(0x2000, 0x4000)),
            )?;
            let out = CopySpec {
                src: Region::new(0x1000, 0x4000),
                dst: 0x5000,
            };
            ctx.get(0, GetSpec::new().copy(out))?;
            assert_eq!(ctx.mem().read_u64(0x5000)?, 0xAAAA, "copied");
            assert_eq!(ctx.mem().read_u64(0x6000)?, 0, "copied, then zeroed");
            assert_eq!(ctx.mem().read_u64(0x7000)?, 0, "zero-mapped");
            Ok(vec![])
        },
        check: |_, _| {},
    },
    TableRow {
        name: "Put: Regs are written before the install check refuses a live child",
        run: |ctx| {
            ctx.put(0, PutSpec::new().program(ret_then_halt()).start())?;
            assert_eq!(ctx.get(0, GetSpec::new())?.stop, StopReason::Ret);
            let refused = ctx.put(
                0,
                PutSpec::new()
                    .regs(Regs::at_entry(0x40))
                    .program(ret_then_halt()),
            );
            assert_eq!(refused.unwrap_err(), KernelError::ChildActive);
            let regs = ctx.get(0, GetSpec::new().regs())?.regs.expect("asked");
            assert_eq!(regs, Regs::at_entry(0x40));
            Ok(vec![])
        },
        check: |_, _| {},
    },
    TableRow {
        name: "Zero counts into pages_copied on Put (the child's image) and not on Get",
        run: |ctx| {
            ctx.put(0, PutSpec::new().zero(R))?;
            ctx.get(0, GetSpec::new().zero(Region::new(0x4000, 0x7000)))?;
            Ok(vec![])
        },
        check: |_, stats| assert_eq!(stats.pages_copied, R.page_count()),
    },
    TableRow {
        name: "Get: a conflicting Merge is billed its scan, on top of what the same Get costs bare",
        run: |ctx| {
            setup_root(ctx)?;
            for i in 0..2u64 {
                let writer = Program::native(move |c| {
                    c.mem_mut().write_u64(0x2000, 100 + i)?;
                    Ok(0)
                });
                let fork = PutSpec::new().copy(CopySpec::mirror(R)).snap();
                ctx.put(i, fork.program(writer).start())?;
            }
            let first = ctx.get(0, GetSpec::new().merge(R))?.merge.expect("asked");
            ctx.get(1, GetSpec::new())?; // Observe the stop: no clock join is left.
            let t0 = ctx.vclock_ps();
            let conflict = ctx.get(1, GetSpec::new().merge(R));
            assert!(matches!(conflict, Err(KernelError::Conflict(c)) if c.addr == 0x2000));
            let t1 = ctx.vclock_ps();
            ctx.get(1, GetSpec::new())?;
            let t2 = ctx.vclock_ps();
            let first_ps = det_kernel::CostModel::default().merge_cost_ps(&first);
            Ok(vec![t1 - t0, t2 - t1, first_ps])
        },
        check: |m, stats| {
            let costs = det_kernel::CostModel::default();
            let (with_merge, bare, first_ps) = (m[0], m[1], m[2]);
            let conflict_ps = costs.merge_cost_ps(&stats.merge_totals.0) - first_ps;
            assert!(conflict_ps > 0, "the conflicting merge scanned something");
            assert_eq!(bare, costs.syscall_ps);
            assert_eq!(with_merge, bare + conflict_ps);
            assert_eq!((stats.merges, stats.conflicts), (2, 1));
        },
    },
    TableRow {
        name: "Get: an option failing after Copy keeps the copy and bills only the syscall entry",
        run: |ctx| {
            setup_root(ctx)?;
            ctx.put(0, PutSpec::new().copy(CopySpec::mirror(R)))?;
            let out = CopySpec {
                src: R,
                dst: 0x5000,
            };
            let t0 = ctx.vclock_ps();
            let unsnapped = ctx.get(0, GetSpec::new().copy(out).merge(R));
            assert_eq!(unsnapped.unwrap_err(), KernelError::NoSnapshot);
            let t1 = ctx.vclock_ps();
            assert_eq!(ctx.mem().read_u64(0x5000)?, 0xAAAA, "the copy happened");
            Ok(vec![t1 - t0])
        },
        check: |m, _| assert_eq!(m[0], det_kernel::CostModel::default().syscall_ps),
    },
    TableRow {
        name: "Put: the caller is billed the work done — a page mapped per page zeroed, a leaf per leaf snapped",
        run: |ctx| {
            let t0 = ctx.vclock_ps();
            ctx.put(0, PutSpec::new().zero(R))?;
            let t1 = ctx.vclock_ps();
            ctx.put(0, PutSpec::new().snap())?;
            let t2 = ctx.vclock_ps();
            Ok(vec![t1 - t0, t2 - t1])
        },
        check: |m, stats| {
            let costs = det_kernel::CostModel::default();
            assert_eq!(m[0], costs.syscall_ps + costs.map_cost_ps(R.page_count()));
            // Both pages sit in one page-table leaf.
            assert_eq!(m[1], costs.syscall_ps + costs.clone_cost_ps(1));
            assert_eq!(stats.pages_snapped, R.page_count());
        },
    },
    TableRow {
        name: "Put: a failing option bills nothing past the syscall entry and starts nothing",
        run: |ctx| {
            setup_root(ctx)?;
            let t0 = ctx.vclock_ps();
            // The copy succeeds (and is metered); the zero after it fails.
            let failed = ctx.put(
                0,
                PutSpec::new()
                    .program(ret_then_halt())
                    .copy(CopySpec::mirror(R))
                    .zero(Region::new(0x2008, 0x3000))
                    .snap()
                    .start(),
            );
            assert!(matches!(failed, Err(KernelError::Mem(_))), "{failed:?}");
            let t1 = ctx.vclock_ps();
            assert_eq!(ctx.get(0, GetSpec::new())?.stop, StopReason::Unstarted);
            Ok(vec![t1 - t0])
        },
        check: |m, stats| {
            assert_eq!(m[0], det_kernel::CostModel::default().syscall_ps);
            assert_eq!(stats.pages_copied, R.page_count(), "the copy ran");
            assert_eq!((stats.threads_spawned, stats.pages_snapped), (0, 0));
        },
    },
    TableRow {
        name: "Start: dispatching a fresh program costs spawn_ps, waking a parked one resume_ps",
        run: |ctx| {
            let t0 = ctx.vclock_ps();
            ctx.put(0, PutSpec::new().program(ret_then_halt()).start())?;
            let t1 = ctx.vclock_ps();
            assert_eq!(ctx.get(0, GetSpec::new())?.stop, StopReason::Ret);
            let t2 = ctx.vclock_ps();
            ctx.put(0, PutSpec::new().start())?;
            let t3 = ctx.vclock_ps();
            // Installed by one Put, started by the next: still a spawn.
            ctx.put(1, PutSpec::new().program(ret_then_halt()))?;
            let t4 = ctx.vclock_ps();
            ctx.put(1, PutSpec::new().start())?;
            let t5 = ctx.vclock_ps();
            // Collect both before the root returns: exact replay is
            // stated for quiesced runs (DESIGN.md §7).
            assert_eq!(ctx.get(0, GetSpec::new())?.stop, StopReason::Halted);
            let collect = PutSpec::new().start();
            let last = ctx.put_get(1, collect, GetSpec::new())?;
            assert_eq!(last.stop, StopReason::Halted);
            Ok(vec![t1 - t0, t3 - t2, t5 - t4])
        },
        check: |m, stats| {
            let costs = det_kernel::CostModel::default();
            assert_ne!(costs.spawn_ps, costs.resume_ps);
            assert_eq!(m[0], costs.syscall_ps + costs.spawn_ps);
            assert_eq!(m[1], costs.syscall_ps + costs.resume_ps);
            assert_eq!(m[2], costs.syscall_ps + costs.spawn_ps);
            assert_eq!(stats.threads_spawned, 2);
        },
    },
];

#[test]
fn tables_1_and_2_hold_row_by_row_live_and_replayed() {
    hold_live_and_replayed(TABLE_ROWS);
}

/// Runs each row live and replayed from its own trace, and checks it
/// on both outcomes.
fn hold_live_and_replayed(rows: &[TableRow]) {
    for row in rows {
        let sink = det_kernel::TraceSink::new();
        let run = row.run;
        let live = with_watchdog({
            let sink = sink.clone();
            move || {
                Kernel::new(KernelConfig::builder().trace(sink).build()).run(move |ctx| {
                    // The measurements ride out as console bytes, so
                    // the replayed outcome carries them too.
                    for ps in run(ctx)? {
                        ctx.dev_write(DeviceId::ConsoleOut, &ps.to_le_bytes())?;
                    }
                    Ok(0)
                })
            }
        });
        assert_eq!(live.exit, Ok(0), "{}", row.name);
        let trace = sink.collect().expect("recorded");
        let replayed = det_kernel::Trace::from_json(&trace.to_json())
            .expect("parses")
            .replay()
            .unwrap_or_else(|e| panic!("{}: {e}", row.name));
        for (side, outputs, stats) in [
            ("live", &live.outputs, &live.stats),
            ("replayed", &replayed.outputs, &replayed.stats),
        ] {
            // Captured unless a bare assert in `check` fails: names
            // the row and the side it failed on.
            eprintln!("{}: {side}", row.name);
            let measured: Vec<u64> = outputs
                .get(&DeviceId::ConsoleOut)
                .map_or(&[][..], Vec::as_slice)
                .chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                .collect();
            (row.check)(&measured, stats);
        }
        assert_eq!(replayed.vclock_ns, live.vclock_ns, "{}", row.name);
        assert_eq!(replayed.spaces, live.spaces, "{}", row.name);
        assert_eq!(replayed.stats, live.stats, "{}", row.name);
    }
}
