//! Crash-recovery conformance: kill a run at a deterministic fault
//! point, restore from the latest restorable checkpoint, replay the
//! trace suffix, and require the recovered bundle to be byte-identical
//! to the uninterrupted run's.
//!
//! The full registry runs in CI via `conform --recover`; the in-tree
//! tests keep to representative subsets so `cargo test` stays snappy.

use det_conform::{
    Artifacts, ConformConfig, ScenarioConfig, Scope, conform_scenario, crash_recovery_check, find,
    first_diff, registry, root_syscalls,
};
use det_kernel::{Checkpoint, FaultPlan, latest_restorable_boundary};

/// Kill-at-midpoint recovery conforms for a representative subset:
/// native spaces, VM spaces, heavy rendezvous, device I/O, and a real
/// workload.
#[test]
fn crash_recovery_conforms_for_representative_subset() {
    for name in [
        "quickstart_swap",
        "vm_counter_stream",
        "rendezvous_storm",
        "device_io",
        "wl_md5",
    ] {
        let sc = find(name).expect("registered");
        let r = crash_recovery_check(&sc, None);
        assert!(r.conforms(), "{}", r.report());
    }
}

/// For every traceable scenario, the bundle of a recovered run renders
/// the live run's bytes: a checkpoint at the latest restorable boundary
/// at or before the trace's midpoint, restored and resumed over the
/// suffix. The bytes are compared directly, not through `compare`,
/// which does not render two equal bundles.
#[test]
fn recovered_bundles_render_the_live_bytes() {
    for sc in registry().into_iter().filter(|sc| sc.traceable) {
        let run = (sc.run)(&ScenarioConfig::traced(()));
        let live = Artifacts::collect(sc.name, (), &run).to_bytes(Scope::Full);
        let trace = run.trace.expect("a traceable scenario records a trace");
        let boundary = latest_restorable_boundary(&trace, trace.len() / 2);
        let resumed = Checkpoint::capture(&trace, boundary)
            .and_then(|c| c.restore())
            .and_then(|r| r.resume(&trace.events[boundary..]))
            .unwrap_or_else(|e| panic!("{}: {e:?}", sc.name));
        let recovered =
            Artifacts::from_recovery(sc.name, (), &resumed, &trace).to_bytes(Scope::Full);
        assert!(
            live == recovered,
            "{}: the recovered bundle first differs at byte {}",
            sc.name,
            first_diff(&live, &recovered)
        );
    }
}

/// Recovery conforms no matter *where* the kill lands: sweep every
/// root-syscall kill point of one scenario. This exercises boundary
/// selection across the whole trace, including kill points inside
/// snap→merge windows (where the checkpoint must fall back to an
/// earlier boundary) and kill at the very first syscall (restore from
/// the empty boundary 0).
#[test]
fn crash_recovery_conforms_at_every_kill_point() {
    let sc = find("quickstart_swap").expect("registered");
    let oracle = (sc.run)(&ScenarioConfig::traced(()));
    let total = root_syscalls(oracle.trace.as_ref().expect("traceable"));
    assert!(total > 2, "scenario too small to sweep");
    for kill in 0..total {
        let r = crash_recovery_check(&sc, Some(kill));
        assert!(r.conforms(), "kill@{kill}: {}", r.report());
    }
}

/// A run under an injected *operation* failure (device write errors
/// once, surfaced as a typed `KernelError`) is still deterministic:
/// replicas of the faulted run conform byte-for-byte.
#[test]
fn injected_device_failure_is_deterministic() {
    let plan = FaultPlan::default().with(FaultPlan::parse("fail@device").expect("valid spec"));
    let sc = find("device_io").expect("registered");
    let cfg = ConformConfig {
        replicas: 3,
        chaos: false,
        faults: plan,
    };
    let r = conform_scenario(&sc, &cfg);
    assert!(r.conforms(), "{}", r.report());
}

/// An injected allocation failure at a Put is also replica-stable.
#[test]
fn injected_alloc_failure_is_deterministic() {
    let plan = FaultPlan::default().with(FaultPlan::parse("fail@alloc:n=2").expect("valid spec"));
    let sc = find("quickstart_swap").expect("registered");
    let cfg = ConformConfig {
        replicas: 2,
        chaos: false,
        faults: plan,
    };
    let r = conform_scenario(&sc, &cfg);
    assert!(r.conforms(), "{}", r.report());
}
