//! End-to-end fault injection: every armed fault surfaces as a typed
//! [`KernelError`] (never a panic or a hang), faulted runs stay
//! deterministic, and a killed run's partial trace still replays — the
//! property crash recovery is built on.

use det_kernel::{
    CopySpec, DeviceId, FaultPlan, GetSpec, Kernel, KernelConfig, KernelError, Program, PutSpec,
    Region, RunOutcome, StopReason, TraceSink, TrapKind,
};
use det_memory::Perm;

/// A small fork/join body: one child writes, the parent merges, then
/// device I/O. Enough surface to hang every fault site off of.
fn run_with(plan: FaultPlan, sink: Option<TraceSink>) -> RunOutcome {
    let mut b = KernelConfig::builder().faults(plan);
    if let Some(s) = &sink {
        b = b.trace(s.clone());
    }
    Kernel::new(b.build()).run(|ctx| {
        let region = Region::new(0x1000, 0x2000);
        ctx.mem_mut().map_zero(region, Perm::RW)?;
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    c.mem_mut().write_u64(0x1800, 7)?;
                    c.ret(0)?;
                    Ok(0)
                }))
                .copy(CopySpec::mirror(region))
                .snap()
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new().merge(region))?;
        assert_eq!(r.stop, StopReason::Ret);
        ctx.dev_write(DeviceId::ConsoleOut, b"done")?;
        Ok(ctx.mem().read_u64(0x1800)? as i32)
    })
}

/// A kill fault stops the run with the typed `Killed` trap — and the
/// partial trace recorded up to the kill still replays cleanly, which
/// is what lets recovery re-feed the suffix after a restore.
#[test]
fn kill_surfaces_as_typed_trap_and_partial_trace_replays() {
    let sink = TraceSink::new();
    let out = run_with(FaultPlan::kill_at_syscall(2), Some(sink.clone()));
    assert_eq!(
        out.exit,
        Err(TrapKind::Fault("kernel killed by injected fault"))
    );
    let trace = sink.collect().expect("partial trace survives the kill");
    trace
        .replay_prefix()
        .expect("a killed run's trace replays up to the cut");
}

/// An injected vehicle panic in a *child* is contained exactly like a
/// real program panic: the child checks in as a terminal `Panic` trap,
/// the parent's rendezvous completes (no deadlock), and the run as a
/// whole keeps its typed outcome.
#[test]
fn injected_child_panic_is_contained_as_trap() {
    let plan =
        FaultPlan::default().with(FaultPlan::parse("panic@syscall:path=/0").expect("valid spec"));
    let out = Kernel::new(KernelConfig::builder().faults(plan).build()).run(|ctx| {
        ctx.put(
            0,
            PutSpec::new()
                .program(Program::native(|c| {
                    c.ret(0)?; // the armed syscall: panics the vehicle
                    Ok(0)
                }))
                .start(),
        )?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!(r.stop, StopReason::Trap(TrapKind::Panic));
        Ok(41)
    });
    assert_eq!(out.exit, Ok(41));
}

/// A failed device write is a typed error the program can observe —
/// and because the fault fires on deterministic coordinates, two runs
/// under the same plan are identical.
#[test]
fn injected_device_failure_is_typed_and_deterministic() {
    let plan = || FaultPlan::default().with(FaultPlan::parse("fail@device").expect("valid spec"));
    let run = || {
        Kernel::new(KernelConfig::builder().faults(plan()).build()).run(|ctx| {
            match ctx.dev_write(DeviceId::ConsoleOut, b"first") {
                Err(KernelError::FaultInjected(site)) => {
                    assert!(site.contains("device"), "typed site label: {site}");
                }
                other => panic!("expected injected device failure, got {other:?}"),
            }
            // Fire-once: the next write goes through.
            ctx.dev_write(DeviceId::ConsoleOut, b"second")?;
            Ok(0)
        })
    };
    let (a, b) = (run(), run());
    assert_eq!(a.exit, Ok(0));
    assert_eq!(a.console(), b"second");
    assert_eq!(a.exit, b.exit);
    assert_eq!(a.vclock_ns, b.vclock_ns);
    assert_eq!(a.stats, b.stats);
}

/// A simulated allocation failure at a Put is a typed error too; the
/// child slot stays clean and a retry succeeds.
#[test]
fn injected_alloc_failure_is_typed() {
    let plan = FaultPlan::default().with(FaultPlan::parse("fail@alloc").expect("valid spec"));
    let out = Kernel::new(KernelConfig::builder().faults(plan).build()).run(|ctx| {
        let spec = || PutSpec::new().program(Program::native(|_| Ok(3))).start();
        match ctx.put(0, spec()) {
            Err(KernelError::FaultInjected(site)) => {
                assert!(site.contains("alloc"), "typed site label: {site}");
            }
            other => panic!("expected injected alloc failure, got {other:?}"),
        }
        ctx.put(0, spec())?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Halted, 3));
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

/// A fault with no `path=` is the root's, so it fires at the same
/// coordinate in every run: under `fail@alloc:n=1` the root's ordinal 1
/// is a `Get`, which probes no allocation, and nothing fires. Were it
/// "any space", it would take the second `Put` of whichever space
/// probed first — here child A's, the only space with an alloc probe at
/// ordinal 1.
#[test]
fn a_pathless_fault_is_the_roots() {
    let plan = FaultPlan::default().with(FaultPlan::parse("fail@alloc:n=1").expect("valid spec"));
    let out = Kernel::new(KernelConfig::builder().faults(plan).build()).run(|ctx| {
        let a = Program::native(|c| {
            for slot in 0..2 {
                let leaf = PutSpec::new().program(Program::native(|_| Ok(5))).start();
                c.put(slot, leaf)?;
            }
            let mut sum = 0;
            for slot in 0..2 {
                sum += c.get(slot, GetSpec::new())?.code;
            }
            Ok(sum as i32)
        });
        ctx.put(0, PutSpec::new().program(a).start())?;
        let r = ctx.get(0, GetSpec::new())?;
        assert_eq!((r.stop, r.code), (StopReason::Halted, 10));
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}
