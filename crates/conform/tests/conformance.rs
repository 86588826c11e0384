//! Conformance harness self-tests: replica conformance under chaos,
//! canonical-serialization stability, and divergence classification
//! on seeded faults.

use det_conform::{
    Artifacts, ConformConfig, DivergenceCategory, ScenarioConfig, Scope, compare, conform_all,
    conform_scenario, find, registry,
};

fn artifacts(name: &str) -> Artifacts {
    let sc = find(name).expect("registered");
    let run = (sc.run)(&ScenarioConfig::traced(()));
    Artifacts::collect(sc.name, (), &run)
}

/// A fast representative subset conforms at N=3 under chaos load.
/// (The full registry runs in CI via the `conform` binary; keeping the
/// in-tree test to a subset keeps `cargo test` snappy.)
#[test]
fn replicas_conform_under_chaos() {
    let cfg = ConformConfig {
        replicas: 3,
        chaos: true,
        ..ConformConfig::default()
    };
    for name in [
        "quickstart_swap",
        "vm_counter_stream",
        "rendezvous_storm",
        "device_io",
        "shell_pipeline",
    ] {
        let sc = find(name).expect("registered");
        let r = conform_scenario(&sc, &cfg);
        assert!(r.conforms(), "{}", r.report());
    }
}

/// Serializing the same bundle twice yields identical bytes: the
/// canonical form has no iteration-order or formatting instability
/// (this is what the `HashMap` → `BTreeMap` sweep buys).
#[test]
fn serialization_is_byte_stable() {
    for name in ["quickstart_swap", "device_io", "vm_sandbox"] {
        let a = artifacts(name);
        assert_eq!(
            a.to_bytes(Scope::Full),
            a.to_bytes(Scope::Full),
            "{name}: serialize-twice must be byte-identical"
        );
        // And a bundle is equal to itself under compare().
        assert!(compare(&a, &a, Scope::Full).is_none());
    }
}

/// Every registered scenario runs and two replicas of it agree byte
/// for byte — the in-tree sweep of the whole registry (CI's `conform`
/// binary repeats it at N=3 and under chaos).
#[test]
fn every_scenario_conforms_across_two_replicas() {
    let reports = conform_all(&ConformConfig {
        replicas: 2,
        chaos: false,
        ..ConformConfig::default()
    });
    assert_eq!(reports.len(), registry().len());
    for r in reports {
        assert!(r.conforms(), "{}", r.report());
    }
}

/// A seeded single-bit page corruption is classified as page content,
/// names the right space and page, and the reported offset really is
/// the first divergent byte.
#[test]
fn seeded_page_corruption_localizes() {
    let a = artifacts("quickstart_swap");
    let mut b = a.clone();
    assert!(b.corrupt_page_digest(), "scenario has paged spaces");
    let d = compare(&a, &b, Scope::Full).expect("must diverge");
    assert_eq!(d.category, DivergenceCategory::PageContent, "{}", d.detail);
    assert!(d.detail.contains("page vpn="), "detail: {}", d.detail);

    // Independently recompute the first divergent byte.
    let (ba, bb) = (a.to_bytes(Scope::Full), b.to_bytes(Scope::Full));
    let expected = (0..ba.len().min(bb.len()))
        .find(|&i| ba[i] != bb[i])
        .expect("bytes differ");
    assert_eq!(d.offset, expected);
    assert!(d.context_a.contains('['), "context marks the byte");
    assert_ne!(d.context_a, d.context_b);
}

/// A seeded reorder of two adjacent trace events is classified as a
/// schedule/trace divergence naming the stream and event index, with
/// the exact first divergent offset.
#[test]
fn seeded_trace_reorder_localizes() {
    let a = artifacts("rendezvous_storm");
    let mut b = a.clone();
    assert!(b.reorder_trace(), "scenario records a trace");
    let d = compare(&a, &b, Scope::Full).expect("must diverge");
    assert_eq!(
        d.category,
        DivergenceCategory::ScheduleTrace,
        "{}",
        d.detail
    );
    assert!(d.detail.contains("event 0"), "detail: {}", d.detail);

    let (ba, bb) = (a.to_bytes(Scope::Full), b.to_bytes(Scope::Full));
    let expected = (0..ba.len().min(bb.len()))
        .find(|&i| ba[i] != bb[i])
        .expect("bytes differ");
    assert_eq!(d.offset, expected);
}

/// Stat drift (a counter bumped post-hoc) is classified as such and
/// names the counter.
#[test]
fn seeded_stat_drift_localizes() {
    let a = artifacts("device_io");
    let mut b = a.clone();
    b.stats.merges += 1;
    // The trace streams still agree, so classification falls through
    // to the stats section.
    let d = compare(&a, &b, Scope::Full).expect("must diverge");
    assert_eq!(d.category, DivergenceCategory::StatDrift, "{}", d.detail);
    assert!(d.detail.contains("merges"), "detail: {}", d.detail);

    // A nested merge counter is named by its flattened key. The swap
    // scenario's joins remap pages only one child wrote, so the live
    // count is non-zero before the fault bumps it.
    let a = artifacts("quickstart_swap");
    assert!(a.stats.merge_totals.0.pages_adopted > 0);
    let mut b = a.clone();
    b.stats.merge_totals.0.pages_adopted += 1;
    let d = compare(&a, &b, Scope::Full).expect("must diverge");
    assert_eq!(d.category, DivergenceCategory::StatDrift, "{}", d.detail);
    assert!(
        d.detail.contains("counter merge_totals.pages_adopted:"),
        "detail: {}",
        d.detail
    );
}

/// Device-output divergence (an output byte flipped) is classified as
/// device output when everything upstream agrees.
#[test]
fn seeded_output_corruption_localizes() {
    let a = artifacts("device_io");
    let mut b = a.clone();
    let data = b
        .outputs
        .get_mut(&det_kernel::DeviceId::ConsoleOut)
        .expect("scenario writes the console");
    data[0] ^= 0xff;
    let d = compare(&a, &b, Scope::Full).expect("must diverge");
    assert_eq!(d.category, DivergenceCategory::DeviceOutput, "{}", d.detail);
    assert!(d.detail.contains("byte 0"), "detail: {}", d.detail);
}

/// The untraceable cluster scenario still conforms (no trace section,
/// everything else byte-compared).
#[test]
fn untraceable_scenario_conforms() {
    let sc = find("dist_md5_tree").expect("registered");
    assert!(!sc.traceable);
    let r = conform_scenario(
        &sc,
        &ConformConfig {
            replicas: 2,
            chaos: false,
            ..ConformConfig::default()
        },
    );
    assert!(r.conforms(), "{}", r.report());
    let a = artifacts("dist_md5_tree");
    assert!(a.trace_streams.is_none());
    assert!(!a.spaces.is_empty() || a.vclock_ns > 0);
}
