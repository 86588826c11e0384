//! Workspace-level determinism smoke test: one racy fork-join
//! workload, run repeatedly while the host scheduler is deliberately
//! perturbed by CPU-burning chaos threads, must always produce the
//! same memory digest and virtual clock. This is the cheap,
//! always-on version of the empirical claim the heavier property
//! tests (`adversarial_vm.rs`, `determinism.rs`) check in depth.

use std::sync::Arc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use determinator::kernel::{
    CopySpec, Fault, FaultAction, FaultPlan, FaultSite, GetSpec, Kernel, KernelConfig, KernelError,
    KernelStats, NativeResult, Program, PutSpec, SpaceCtx, StopReason, TrapKind,
};
use determinator::memory::{Perm, Region};
use determinator::workloads::Mode;
use determinator::workloads::md5::{self, Md5Config};

/// Forks eight children that each fill a private replica chunk of a
/// shared region, merges them all back, and digests the final memory
/// image. The children's host threads genuinely race; the digest and
/// the virtual makespan must not depend on how that race resolves.
fn fork_join_digest() -> (u64, u64) {
    const SHARED: Region = Region {
        start: 0x1000,
        end: 0x1000 + 8 * 4096,
    };
    let digest = Arc::new(AtomicU64::new(0));
    let digest_out = Arc::clone(&digest);
    let out = Kernel::new(KernelConfig::default()).run(move |ctx| {
        ctx.mem_mut().map_zero(SHARED, Perm::RW)?;
        for child in 0..8u64 {
            ctx.put(
                child,
                PutSpec::new()
                    .program(Program::native(move |c| {
                        let base = SHARED.start + child * 4096;
                        for i in 0..512u64 {
                            c.mem_mut().write_u64(
                                base + i * 8,
                                child.wrapping_mul(0x9e37).wrapping_add(i),
                            )?;
                        }
                        Ok(0)
                    }))
                    .copy(CopySpec::mirror(SHARED))
                    .snap()
                    .start(),
            )?;
        }
        for child in 0..8u64 {
            ctx.get(child, GetSpec::new().merge(SHARED))?;
        }
        digest_out.store(ctx.mem().content_digest().value(), Ordering::Relaxed);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    (digest.load(Ordering::Relaxed), out.vclock_ns)
}

/// Spawns `n` chaos threads that burn CPU, yield, and sleep at pseudo
/// random points so the OS scheduler interleaves the kernel's
/// execution vehicles differently from an idle host.
fn with_host_load<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let stop = Arc::new(AtomicBool::new(false));
    let chaos: Vec<_> = (0..n)
        .map(|i| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut x = i as u64 + 1;
                while !stop.load(Ordering::Relaxed) {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if x.is_multiple_of(4096) {
                        std::thread::yield_now();
                    }
                    if x.is_multiple_of(1 << 20) {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                std::hint::black_box(x)
            })
        })
        .collect();
    let result = f();
    stop.store(true, Ordering::Relaxed);
    for t in chaos {
        t.join().expect("chaos thread");
    }
    result
}

#[test]
fn memory_digest_stable_under_perturbed_host_schedule() {
    let quiet = fork_join_digest();
    let loaded = with_host_load(
        2 * std::thread::available_parallelism().map_or(4, usize::from),
        || (fork_join_digest(), fork_join_digest()),
    );
    assert_eq!(quiet, loaded.0, "digest changed under host load");
    assert_eq!(quiet, loaded.1, "digest unstable across loaded reruns");
}

/// How a first program ends (see [`worker_outlives`]).
type Ending = fn(&mut SpaceCtx) -> NativeResult;

/// A native child running `first`, then a second program installed
/// over it (`InstallAction::Replace`) that exits 7. However the first
/// program left its vehicle — by returning, unwinding out of a panic,
/// or fabricating the kernel's own error — the worker thread is back
/// in the pool before the stop is visible, so the second `Start`
/// re-arms it: two vehicles started on one OS thread, exactly.
fn worker_outlives(first: Ending) -> (StopReason, u64, KernelStats) {
    // Fires in a first program that makes a syscall; a fault fires once.
    let panic_first_syscall =
        Fault::new(FaultSite::Syscall, FaultAction::PanicVehicle).at_path("/0");
    let config = KernelConfig::builder()
        .faults(FaultPlan::new().with(panic_first_syscall))
        .build();
    let mut first_stop = StopReason::Unstarted;
    let out = Kernel::new(config).run(|ctx| {
        ctx.put(0, PutSpec::new().program(Program::native(first)).start())?;
        first_stop = ctx.get(0, GetSpec::new())?.stop;
        let second = Program::native(|_| Ok(7));
        ctx.put(0, PutSpec::new().program(second).start())?;
        Ok(ctx.get(0, GetSpec::new())?.code as i32)
    });
    assert_eq!(out.exit, Ok(7));
    assert_eq!(out.stats.threads_spawned, 2);
    assert_eq!(out.host.os_threads_created, 1);
    (first_stop, out.vclock_ns, out.stats)
}

#[test]
fn a_worker_outlives_its_program_under_perturbed_host_schedule() {
    let panic = StopReason::Trap(TrapKind::Panic);
    let destroyed = StopReason::Trap(KernelError::Destroyed.as_trap());
    let endings: [(&str, Ending, StopReason, u64); 4] = [
        ("halt", |_| Ok(5), StopReason::Halted, 0),
        ("panic", |_| panic!("first program panics"), panic, 1),
        ("injected panic", |c| c.ret(0).map(|()| 5), panic, 1),
        (
            "fabricated destroyed",
            |_| Err(KernelError::Destroyed),
            destroyed,
            1,
        ),
    ];
    for (ending, first, stop, traps) in endings {
        let quiet = worker_outlives(first);
        assert_eq!((quiet.0, quiet.2.traps), (stop, traps), "after {ending}");
        let loaded = with_host_load(8, || (worker_outlives(first), worker_outlives(first)));
        assert_eq!(quiet, loaded.0, "{ending}: changed under host load");
        assert_eq!(quiet, loaded.1, "{ending}: unstable across loaded reruns");
    }
}

#[test]
fn workload_checksum_stable_under_perturbed_host_schedule() {
    let run = || {
        let r = md5::run(Mode::Determinator, Md5Config::quick(4));
        (r.checksum, r.vclock_ns)
    };
    let quiet = run();
    let loaded = with_host_load(8, run);
    assert_eq!(quiet, loaded, "md5 workload diverged under host load");
}
