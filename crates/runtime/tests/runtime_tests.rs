//! Integration tests for the user-level runtime: processes, file
//! system reconciliation, threads, deterministic scheduling, shell.

use det_kernel::{DeviceId, Kernel, KernelConfig};
use det_memory::{Perm, Region};
use det_runtime::proc::{ExitStatus, ProgramRegistry, run_process_tree, run_process_tree_on};
use det_runtime::run_deterministic;
use det_runtime::threads::{self, ThreadGroup};
use det_runtime::{RtError, dsched, shell};

// ---------------------------------------------------------------------
// Processes and the file system
// ---------------------------------------------------------------------

#[test]
fn fork_wait_exit_codes() {
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), |p| {
        let a = p.fork(|_| Ok(11))?;
        let b = p.fork(|_| Ok(22))?;
        assert_eq!(p.waitpid(b)?, ExitStatus::Exited(22));
        assert_eq!(p.waitpid(a)?, ExitStatus::Exited(11));
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn child_fs_changes_propagate_at_wait() {
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), |p| {
        let pid = p.fork(|c| {
            let fd = c.open_write("build/hello.o")?;
            c.write(fd, b"object code")?;
            c.close(fd)?;
            Ok(0)
        })?;
        p.waitpid(pid)?;
        let fd = p.open_read("build/hello.o")?;
        let data = p.read_to_end(fd)?;
        assert_eq!(data, b"object code");
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn parallel_compilers_write_disjoint_objects() {
    // The paper's parallel-make scenario: each child writes its own
    // .o file; the parent's replica accumulates them all.
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), |p| {
        let mut pids = Vec::new();
        for i in 0..4 {
            pids.push(p.fork(move |c| {
                let fd = c.open_write(&format!("obj/{i}.o"))?;
                c.write(fd, format!("object {i}").as_bytes())?;
                Ok(0)
            })?);
        }
        for pid in pids {
            assert_eq!(p.waitpid(pid)?, ExitStatus::Exited(0));
        }
        assert_eq!(p.fs().list("obj/").len(), 4);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn concurrent_writes_same_file_flag_conflict() {
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), |p| {
        let a = p.fork(|c| {
            let fd = c.open_write("shared.txt")?;
            c.write(fd, b"from a")?;
            Ok(0)
        })?;
        let b = p.fork(|c| {
            let fd = c.open_write("shared.txt")?;
            c.write(fd, b"from b")?;
            Ok(0)
        })?;
        p.waitpid(a)?;
        p.waitpid(b)?;
        // Conflict detected; open now fails (§4.2).
        assert!(p.fs().is_conflicted("shared.txt"));
        match p.open_read("shared.txt") {
            Err(RtError::Conflicted(_)) => {}
            other => panic!("expected conflict, got {other:?}"),
        }
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn wait_returns_earliest_forked_not_first_done() {
    // Child A (forked first) does much more virtual work than B, yet
    // wait() must return A first (§4.1, Figure 4 semantics).
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), |p| {
        let a = p.fork(|c| {
            c.charge(50_000_000)?; // Slow task.
            Ok(1)
        })?;
        let _b = p.fork(|c| {
            c.charge(1_000)?; // Fast task.
            Ok(2)
        })?;
        let (first_pid, st) = p.wait()?;
        assert_eq!(first_pid, a, "wait() must pick the earliest fork");
        assert_eq!(st, ExitStatus::Exited(1));
        let (_, st2) = p.wait()?;
        assert_eq!(st2, ExitStatus::Exited(2));
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn console_output_reaches_kernel_device_in_deterministic_order() {
    let run = || {
        run_process_tree(KernelConfig::default(), ProgramRegistry::new(), |p| {
            let a = p.fork(|c| {
                c.print("alpha\n")?;
                Ok(0)
            })?;
            let b = p.fork(|c| {
                c.print("beta\n")?;
                Ok(0)
            })?;
            // Collect b first: outputs appear in collection order.
            p.waitpid(b)?;
            p.waitpid(a)?;
            p.print("done\n")?;
            Ok(0)
        })
    };
    let first = run();
    let second = run();
    assert_eq!(first.console_string(), "beta\nalpha\ndone\n");
    // Byte-identical across runs (§4.3).
    assert_eq!(first.console(), second.console());
    assert_eq!(first.vclock_ns, second.vclock_ns);
}

#[test]
fn console_input_via_parent_rendezvous() {
    let kernel = Kernel::new(KernelConfig::default());
    kernel.push_input(DeviceId::ConsoleIn, b"typed line\n".to_vec());
    let out = run_process_tree_on(kernel, ProgramRegistry::new(), |p| {
        let pid = p.fork(|c| {
            // The child's replica has no console data; reading forces
            // an I/O rendezvous through the parent to the root device.
            let mut buf = [0u8; 32];
            let n = c.read(0, &mut buf)?;
            c.write(1, &buf[..n])?;
            Ok(0)
        })?;
        p.waitpid(pid)?;
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.console(), b"typed line\n");
}

#[test]
fn exec_replaces_program_and_keeps_fs() {
    let mut reg = ProgramRegistry::new();
    reg.register("printer", |p, args| {
        let text = args.join(",");
        p.print(&text)?;
        // Exec kept the descriptor table and the replica.
        let fd = p.open_read("before-exec")?;
        let data = p.read_to_end(fd)?;
        p.write(1, &data)?;
        Ok(42)
    });
    let out = run_process_tree(KernelConfig::default(), reg, |p| {
        let pid = p.fork(|c| {
            let fd = c.open_write("before-exec")?;
            c.write(fd, b"!kept")?;
            c.close(fd)?;
            c.exec("printer", &["a".into(), "b".into()])
        })?;
        assert_eq!(p.waitpid(pid)?, ExitStatus::Exited(42));
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.console(), b"a,b!kept");
}

#[test]
fn exec_unknown_program_fails() {
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), |p| {
        let pid = p.fork(|c| c.exec("no-such-binary", &[]))?;
        match p.waitpid(pid)? {
            ExitStatus::Trapped(_) => Ok(0),
            other => panic!("expected trap, got {other:?}"),
        }
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn nested_process_trees() {
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), |p| {
        let pid = p.fork(|c| {
            let inner = c.fork(|cc| {
                let fd = cc.open_write("deep/file")?;
                cc.write(fd, b"grandchild")?;
                Ok(7)
            })?;
            assert_eq!(c.waitpid(inner)?, ExitStatus::Exited(7));
            Ok(0)
        })?;
        p.waitpid(pid)?;
        let fd = p.open_read("deep/file")?;
        assert_eq!(p.read_to_end(fd)?, b"grandchild");
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn pids_are_process_local() {
    // Two sibling processes each fork children and see their own PID
    // sequences — numerically overlapping, semantically disjoint (§2.4).
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), |p| {
        let mk = |tag: &'static str| {
            move |c: &mut det_runtime::Proc<'_>| {
                let inner = c.fork(move |cc| {
                    let fd = cc.open_write(&format!("pids/{tag}"))?;
                    cc.write(fd, b"x")?;
                    Ok(0)
                })?;
                // Both siblings observe the same local pid value.
                assert_eq!(inner.0, 2);
                c.waitpid(inner)?;
                Ok(0)
            }
        };
        let a = p.fork(mk("a"))?;
        let b = p.fork(mk("b"))?;
        p.waitpid(a)?;
        p.waitpid(b)?;
        assert_eq!(p.fs().list("pids/").len(), 2);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn fd_bookkeeping() {
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), |p| {
        let fd = p.open_write("f")?;
        assert_eq!(fd, 2); // 0/1 are the console.
        p.write(fd, b"abcdef")?;
        p.close(fd)?;
        assert!(matches!(p.write(fd, b"x"), Err(RtError::BadFd(_))));
        // Slot reuse.
        let fd2 = p.open_read("f")?;
        assert_eq!(fd2, 2);
        // Seek + partial reads.
        p.seek(fd2, 3)?;
        let mut buf = [0u8; 2];
        assert_eq!(p.read(fd2, &mut buf)?, 2);
        assert_eq!(&buf, b"de");
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

// ---------------------------------------------------------------------
// Threads (private workspace model)
// ---------------------------------------------------------------------

const SHARED: Region = Region {
    start: 0x10000,
    end: 0x20000,
};

#[test]
fn actor_simulation_is_race_free() {
    // Figure 1: each child reads neighbours' *old* state and updates
    // its own actor in place; merges are conflict-free and exact.
    let nactors = 16u64;
    let steps = 4;
    let out = run_deterministic(KernelConfig::default(), move |ctx| {
        ctx.mem_mut().map_zero(SHARED, Perm::RW)?;
        for i in 0..nactors {
            ctx.mem_mut().write_u64(SHARED.start + i * 8, i)?;
        }
        for _ in 0..steps {
            let mut group = ThreadGroup::new(ctx, SHARED, 0);
            for i in 0..nactors {
                group.fork(i, move |c| {
                    // New state = old left neighbour + old right.
                    let l = c
                        .mem()
                        .read_u64(SHARED.start + ((i + nactors - 1) % nactors) * 8)?;
                    let r = c.mem().read_u64(SHARED.start + ((i + 1) % nactors) * 8)?;
                    c.mem_mut().write_u64(SHARED.start + i * 8, l + r)?;
                    Ok(0)
                })?;
            }
            for i in 0..nactors {
                group.join(i)?;
            }
        }
        // Compare against a sequential golden model.
        let mut golden: Vec<u64> = (0..nactors).collect();
        for _ in 0..steps {
            let old = golden.clone();
            for i in 0..nactors as usize {
                golden[i] = old[(i + nactors as usize - 1) % nactors as usize]
                    + old[(i + 1) % nactors as usize];
            }
        }
        for i in 0..nactors {
            assert_eq!(
                ctx.mem().read_u64(SHARED.start + i * 8)?,
                golden[i as usize],
                "actor {i}"
            );
        }
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn thread_write_write_race_detected() {
    let out = run_deterministic(KernelConfig::default(), move |ctx| {
        ctx.mem_mut().map_zero(SHARED, Perm::RW)?;
        let mut group = ThreadGroup::new(ctx, SHARED, 0);
        for i in 0..2u64 {
            group.fork(i, move |c| {
                c.mem_mut().write_u64(SHARED.start, 1000 + i)?;
                Ok(0)
            })?;
        }
        group.join(0)?;
        match group.join(1) {
            Err(RtError::Kernel(det_kernel::KernelError::Conflict(c))) => {
                assert_eq!(c.addr, SHARED.start);
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn barriers_make_stage_results_visible() {
    // Two threads ping-pong through 3 barrier stages, each reading the
    // other's previous-stage output.
    let out = run_deterministic(KernelConfig::default(), move |ctx| {
        ctx.mem_mut().map_zero(SHARED, Perm::RW)?;
        let a = SHARED.start;
        let b = SHARED.start + 8;
        let mut group = ThreadGroup::new(ctx, SHARED, 0);
        for t in 0..2u64 {
            group.fork(t, move |c| {
                let (mine, theirs) = if t == 0 { (a, b) } else { (b, a) };
                c.mem_mut().write_u64(mine, t + 1)?;
                for _ in 0..3 {
                    threads::barrier(c)?;
                    let v = c.mem().read_u64(theirs)?;
                    c.mem_mut().write_u64(mine, v * 2)?;
                }
                Ok(0)
            })?;
        }
        let codes = group.run_to_completion(&[0, 1])?;
        assert_eq!(codes, vec![0, 0]);
        // a starts 1, b starts 2; each stage doubles the other's prior:
        // s1: a=4, b=2 ; s2: a=4,b=8 ; s3: a=16,b=8.
        assert_eq!(ctx.mem().read_u64(a)?, 16);
        assert_eq!(ctx.mem().read_u64(b)?, 8);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

// ---------------------------------------------------------------------
// Deterministic scheduler (§4.5)
// ---------------------------------------------------------------------

#[test]
fn dsched_counter_under_mutex_is_exact() {
    let out = run_deterministic(KernelConfig::default(), move |ctx| {
        ctx.mem_mut().map_zero(SHARED, Perm::RW)?;
        let counter = SHARED.start;
        let mut sched = dsched::DSched::new(ctx, SHARED, 50_000, 100)?;
        for t in 0..4u64 {
            sched.spawn(t, move |c| {
                for _ in 0..10 {
                    dsched::mutex_lock(c, 0)?;
                    let v = c.mem().read_u64(counter)?;
                    c.charge(5_000)?; // Work inside the critical section.
                    c.mem_mut().write_u64(counter, v + 1)?;
                    dsched::mutex_unlock(c, 0)?;
                    c.charge(10_000)?; // Work outside.
                }
                Ok(0)
            })?;
        }
        let codes = sched.run()?;
        assert_eq!(codes.len(), 4);
        assert_eq!(ctx.mem().read_u64(counter)?, 40);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn dsched_is_schedule_deterministic() {
    // Unsynchronized racy writes resolve last-writer-wins — but
    // REPEATABLY: identical final state and virtual time across runs.
    let run = |perturb: bool| {
        run_deterministic(KernelConfig::default(), move |ctx| {
            ctx.mem_mut().map_zero(SHARED, Perm::RW)?;
            let mut sched = dsched::DSched::new(ctx, SHARED, 20_000, 100)?;
            for t in 0..3u64 {
                sched.spawn(t, move |c| {
                    for k in 0..5u64 {
                        if perturb && t == 1 {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                        // Racy write to a shared slot.
                        c.mem_mut().write_u64(SHARED.start, t * 100 + k)?;
                        c.charge(7_000)?;
                    }
                    Ok(0)
                })?;
            }
            sched.run()?;
            Ok(ctx.mem().read_u64(SHARED.start)? as i32)
        })
    };
    let a = run(false);
    let b = run(true);
    assert_eq!(a.exit, b.exit, "racy result must still be repeatable");
    assert_eq!(a.vclock_ns, b.vclock_ns);
}

#[test]
fn dsched_mutex_handoff_to_waiter() {
    // Thread 0 holds the mutex for a long time; thread 1 blocks on it
    // and gets it after the unlock.
    let out = run_deterministic(KernelConfig::default(), move |ctx| {
        ctx.mem_mut().map_zero(SHARED, Perm::RW)?;
        let slot = SHARED.start;
        let mut sched = dsched::DSched::new(ctx, SHARED, 10_000, 100)?;
        sched.spawn(0, move |c| {
            dsched::mutex_lock(c, 3)?;
            c.charge(50_000)?; // Several quanta inside the lock.
            c.mem_mut().write_u64(slot, 1)?;
            dsched::mutex_unlock(c, 3)?;
            Ok(0)
        })?;
        sched.spawn(1, move |c| {
            c.charge(15_000)?; // Arrive second.
            dsched::mutex_lock(c, 3)?;
            // Must observe thread 0's protected write.
            let v = c.mem().read_u64(slot)?;
            dsched::mutex_unlock(c, 3)?;
            Ok(v as i32)
        })?;
        let codes = sched.run()?;
        let t1 = codes.iter().find(|(t, _)| *t == 1).expect("t1").1;
        assert_eq!(t1, 1, "waiter must see the protected write");
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn dsched_deadlock_detected() {
    let out = run_deterministic(KernelConfig::default(), move |ctx| {
        ctx.mem_mut().map_zero(SHARED, Perm::RW)?;
        let mut sched = dsched::DSched::new(ctx, SHARED, 10_000, 100)?;
        for t in 0..2u64 {
            sched.spawn(t, move |c| {
                // Each thread locks its own mutex then the other's.
                let (first, second) = if t == 0 { (0, 1) } else { (1, 0) };
                dsched::mutex_lock(c, first)?;
                c.charge(20_000)?; // Hold across a quantum.
                dsched::mutex_lock(c, second)?;
                dsched::mutex_unlock(c, second)?;
                dsched::mutex_unlock(c, first)?;
                Ok(0)
            })?;
        }
        match sched.run() {
            Err(RtError::Invalid(msg)) => {
                assert!(msg.contains("deadlock"));
                Ok(0)
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    });
    assert_eq!(out.exit, Ok(0));
}

#[test]
fn dsched_condvar_producer_consumer() {
    let out = run_deterministic(KernelConfig::default(), move |ctx| {
        ctx.mem_mut().map_zero(SHARED, Perm::RW)?;
        let flag = SHARED.start;
        let data = SHARED.start + 8;
        let mut sched = dsched::DSched::new(ctx, SHARED, 10_000, 100)?;
        // Consumer waits until the producer sets the flag.
        sched.spawn(0, move |c| {
            dsched::mutex_lock(c, 0)?;
            while c.mem().read_u64(flag)? == 0 {
                dsched::cond_wait(c, 0, 9)?;
            }
            let v = c.mem().read_u64(data)?;
            dsched::mutex_unlock(c, 0)?;
            Ok(v as i32)
        })?;
        sched.spawn(1, move |c| {
            c.charge(30_000)?;
            dsched::mutex_lock(c, 0)?;
            c.mem_mut().write_u64(data, 77)?;
            c.mem_mut().write_u64(flag, 1)?;
            dsched::mutex_unlock(c, 0)?;
            dsched::cond_signal(c, 9)?;
            Ok(0)
        })?;
        let codes = sched.run()?;
        let consumer = codes.iter().find(|(t, _)| *t == 0).expect("t0").1;
        assert_eq!(consumer, 77);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

/// `WAITERS` threads wait on one condition variable under mutex 0; a
/// last thread, there first, yields until all of them are waiting, sets
/// the flag and broadcasts once. Every waiter must wake: a broadcast
/// handled as a signal wakes one and leaves the rest blocked, which
/// `run` reports as a deadlock. The root prints what the threads counted
/// and its final memory's digest.
fn dsched_broadcast_run() -> det_kernel::RunOutcome {
    const WAITERS: u64 = 3;
    let (flag, waiting, woken) = (SHARED.start, SHARED.start + 8, SHARED.start + 16);
    run_deterministic(KernelConfig::default(), move |ctx| {
        ctx.mem_mut().map_zero(SHARED, Perm::RW)?;
        let mut sched = dsched::DSched::new(ctx, SHARED, 10_000, 100)?;
        for t in 0..WAITERS {
            sched.spawn(t, move |c| {
                c.charge(30_000 + t * 10_000)?; // The broadcaster arrives first.
                dsched::mutex_lock(c, 0)?;
                let n = c.mem().read_u64(waiting)?;
                c.mem_mut().write_u64(waiting, n + 1)?;
                while c.mem().read_u64(flag)? == 0 {
                    dsched::cond_wait(c, 0, 5)?;
                }
                let n = c.mem().read_u64(woken)?;
                c.mem_mut().write_u64(woken, n + 1)?;
                dsched::mutex_unlock(c, 0)?;
                Ok(t as i32)
            })?;
        }
        sched.spawn(WAITERS, move |c| {
            let mut yields = 0;
            loop {
                dsched::mutex_lock(c, 0)?;
                let ready = c.mem().read_u64(waiting)? == WAITERS;
                if ready {
                    c.mem_mut().write_u64(flag, 1)?;
                }
                dsched::mutex_unlock(c, 0)?;
                if ready {
                    break;
                }
                dsched::sched_yield(c)?;
                yields += 1;
            }
            dsched::cond_broadcast(c, 5)?;
            Ok(yields)
        })?;
        let codes = sched.run()?;
        let yields = codes[WAITERS as usize].1;
        assert_eq!(&codes[..WAITERS as usize], &[(0, 0), (1, 1), (2, 2)]);
        assert!(yields > 0, "the broadcaster yielded");
        let woken = ctx.mem().read_u64(woken)?;
        let digest = ctx.mem().content_digest().value();
        let line = format!("woken {woken} yields {yields} digest {digest:016x}\n");
        ctx.dev_write(DeviceId::ConsoleOut, line.as_bytes())?;
        Ok(woken as i32)
    })
}

#[test]
fn dsched_broadcast_wakes_every_waiter() {
    let out = dsched_broadcast_run();
    assert_eq!(out.exit, Ok(3), "all three waiters woke");
    assert!(out.console_string().starts_with("woken 3 "));
}

#[test]
fn dsched_yield_loop_finishes() {
    let out = run_deterministic(KernelConfig::default(), move |ctx| {
        ctx.mem_mut().map_zero(SHARED, Perm::RW)?;
        let mut sched = dsched::DSched::new(ctx, SHARED, 10_000, 100)?;
        sched.spawn(0, move |c| {
            for k in 0..20u64 {
                c.mem_mut().write_u64(SHARED.start, k)?;
                dsched::sched_yield(c)?;
            }
            Ok(20)
        })?;
        sched.spawn(1, move |c| {
            c.charge(35_000)?;
            Ok(1)
        })?;
        assert_eq!(sched.run()?, vec![(0, 20), (1, 1)]);
        Ok(ctx.mem().read_u64(SHARED.start)? as i32)
    });
    assert_eq!(out.exit, Ok(19));
}

#[test]
fn dsched_broadcast_and_yield_repeat_exactly() {
    let runs: Vec<_> = (0..3).map(|_| dsched_broadcast_run()).collect();
    for out in &runs[1..] {
        assert_eq!(out.exit, runs[0].exit);
        assert_eq!(out.console_string(), runs[0].console_string());
        assert_eq!(out.vclock_ns, runs[0].vclock_ns);
        assert_eq!(out.stats, runs[0].stats);
    }
}

// ---------------------------------------------------------------------
// Shell
// ---------------------------------------------------------------------

#[test]
fn shell_pipeline_with_redirection() {
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), |p| {
        shell::run_script(
            p,
            "
            echo one two three > words.txt
            cat words.txt | wc > counts.txt
            cat counts.txt
            ",
        )
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.console_string(), "1 3 14\n");
}

#[test]
fn shell_append_and_sequencing() {
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), |p| {
        shell::run_script(p, "echo a > log ; echo b >> log ; cat log")
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.console_string(), "a\nb\n");
}

#[test]
fn shell_runs_registered_programs() {
    let mut reg = ProgramRegistry::new();
    reg.register("rev", |p, _| {
        let data = p.read_to_end(0)?;
        let mut line: Vec<u8> = data.strip_suffix(b"\n").unwrap_or(&data).to_vec();
        line.reverse();
        p.write(1, &line)?;
        p.write(1, b"\n")?;
        Ok(0)
    });
    let out = run_process_tree(KernelConfig::default(), reg, |p| {
        shell::run_script(p, "echo hello | rev")
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.console_string(), "olleh\n");
}

#[test]
fn shell_ls_cp_rm() {
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), |p| {
        shell::run_script(
            p,
            "
            echo data > a.txt
            cp a.txt b.txt
            rm a.txt
            ls
            ",
        )
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.console_string(), "b.txt\n");
}

#[test]
fn shell_reruns_byte_identical_with_and_without_redirection() {
    // §4.3: rerunning a parallel computation with and without output
    // redirection yields byte-identical console/log output.
    let script = "
        echo alpha > t1
        echo beta > t2
        cat t1 t2
    ";
    let run = || {
        run_process_tree(KernelConfig::default(), ProgramRegistry::new(), move |p| {
            shell::run_script(p, script)
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.console(), b.console());
    assert_eq!(a.console_string(), "alpha\nbeta\n");
}
