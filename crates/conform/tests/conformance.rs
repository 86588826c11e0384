//! Conformance harness self-tests: replica conformance under chaos,
//! canonical-serialization stability, and divergence classification
//! on seeded faults.

use det_conform::{
    Artifacts, ConformConfig, DivergenceCategory, ScenarioConfig, Scope, compare, conform_all,
    conform_scenario, find, first_diff, registry,
};
use det_kernel::TraceEvent;
use det_memory::PageDeltaOp;

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

/// Renumbers every space id of a bundle by `f`, as another replica
/// may have allocated them: the spaces' table ids, the trace streams'
/// id → path map, and the ids their events carry.
fn relabel(a: &mut Artifacts, f: impl Fn(u32) -> u32) {
    for sp in &mut a.spaces {
        sp.id = f(sp.id);
    }
    let t = a.trace_streams.as_mut().expect("scenario records a trace");
    t.paths = std::mem::take(&mut t.paths)
        .into_iter()
        .map(|(id, path)| (f(id), path))
        .collect();
    for ev in t.streams.iter_mut().flat_map(|(_, events)| events) {
        match ev {
            TraceEvent::Put {
                caller,
                child_id,
                tree_new_ids,
                ..
            } => {
                *caller = f(*caller);
                *child_id = f(*child_id);
                tree_new_ids.iter_mut().for_each(|id| *id = f(*id));
            }
            TraceEvent::Get {
                caller, child_id, ..
            } => {
                *caller = f(*caller);
                *child_id = f(*child_id);
            }
            TraceEvent::CheckIn { space, .. } => *space = f(*space),
            _ => {}
        }
    }
}

/// The bytes of the first page an event's memory delta writes.
fn written_page(ev: &mut TraceEvent) -> Option<&mut Vec<u8>> {
    let delta = match ev {
        TraceEvent::CheckIn { delta, .. } => delta,
        TraceEvent::Get { entry, .. } => &mut entry.as_mut()?.delta,
        TraceEvent::Put { entry, .. }
        | TraceEvent::DevRead { entry, .. }
        | TraceEvent::DevWrite { entry, .. }
        | TraceEvent::Checkpoint { entry, .. }
        | TraceEvent::RootExit { entry, .. } => &mut entry.delta,
    };
    delta.pages.iter_mut().find_map(|p| match &mut p.op {
        PageDeltaOp::Write(data) => Some(data),
        _ => None,
    })
}

/// Two bundles of one run that number its spaces differently differ
/// as values and render the same bytes, so they conform: `compare`
/// cannot trust value inequality. A flipped byte in one page payload
/// of a stream then diverges at the first differing rendered byte.
#[test]
fn bundles_differing_only_in_space_ids_conform() {
    let a = artifacts("rendezvous_storm");
    let top = *a
        .trace_streams
        .as_ref()
        .unwrap()
        .paths
        .keys()
        .max()
        .unwrap();
    let mut b = a.clone();
    relabel(&mut b, |id| if id == 0 { 0 } else { top + 1 - id });
    assert!(a != b, "the spaces are numbered differently");
    assert!(a.to_bytes(Scope::Full) == b.to_bytes(Scope::Full));
    assert!(compare(&a, &b, Scope::Full).is_none());

    let t = b.trace_streams.as_mut().unwrap();
    let page = (t.streams.iter_mut().flat_map(|(_, events)| events))
        .find_map(written_page)
        .expect("a stream carries page bytes");
    page[0] ^= 0x10;
    let d = compare(&a, &b, Scope::Full).expect("must diverge");
    assert_eq!(
        d.category,
        DivergenceCategory::ScheduleTrace,
        "{}",
        d.detail
    );
    let (ba, bb) = (a.to_bytes(Scope::Full), b.to_bytes(Scope::Full));
    assert_eq!(d.offset, first_diff(&ba, &bb));
    assert!(d.offset < ba.len().min(bb.len()), "a byte differs");
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

/// One seeded fault for [`every_seeded_fault_is_classified_and_located`]:
/// the scenario whose traced bundle it corrupts, the corruption (which
/// returns the locus the report's detail must name), and the category
/// the divergence must get.
struct SeededFault {
    fault: &'static str,
    scenario: &'static str,
    seed: fn(&mut Artifacts) -> String,
    category: DivergenceCategory,
}

/// The first path whose stream has at least two events: the one
/// [`Artifacts::reorder_trace`] swaps.
fn reordered_stream(b: &Artifacts) -> String {
    let t = b.trace_streams.as_ref().expect("scenario records a trace");
    let (path, _) = (t.streams.iter())
        .find(|(_, events)| events.len() >= 2)
        .expect("a stream has two events");
    path.clone()
}

fn seeded_faults() -> Vec<SeededFault> {
    use DivergenceCategory::*;
    vec![
        SeededFault {
            fault: "page-digest flip",
            scenario: "quickstart_swap",
            seed: |b| {
                let sp = (b.spaces.iter_mut())
                    .find(|sp| !sp.page_digests.is_empty())
                    .expect("a paged space");
                sp.page_digests[0].1 ^= 1;
                format!("space {} page vpn={:#x}", sp.path, sp.page_digests[0].0)
            },
            category: PageContent,
        },
        SeededFault {
            fault: "page flip that also moves its space's digest",
            scenario: "quickstart_swap",
            seed: |b| {
                let sp = (b.spaces.iter_mut())
                    .rfind(|sp| !sp.page_digests.is_empty())
                    .expect("a paged space");
                let (vpn, digest) = sp.page_digests.last_mut().expect("paged");
                *digest ^= 1;
                sp.digest ^= 1;
                format!("space {} page vpn={vpn:#x}", sp.path)
            },
            category: PageContent,
        },
        SeededFault {
            fault: "trace reorder",
            scenario: "rendezvous_storm",
            seed: |b| {
                let path = reordered_stream(b);
                assert!(b.reorder_trace());
                format!("stream {path} event 0:")
            },
            category: ScheduleTrace,
        },
        SeededFault {
            fault: "page-payload flip inside a stream event",
            scenario: "rendezvous_storm",
            seed: |b| {
                let t = b.trace_streams.as_mut().expect("scenario records a trace");
                for (path, events) in &mut t.streams {
                    for (i, ev) in events.iter_mut().enumerate() {
                        if let Some(page) = written_page(ev) {
                            page[0] ^= 0x10;
                            return format!("stream {path} event {i}:");
                        }
                    }
                }
                panic!("a stream carries page bytes")
            },
            category: ScheduleTrace,
        },
        SeededFault {
            fault: "merges bump",
            scenario: "device_io",
            seed: |b| {
                b.stats.merges += 1;
                "counter merges:".to_string()
            },
            category: StatDrift,
        },
        SeededFault {
            fault: "merge_totals.pages_adopted bump",
            scenario: "quickstart_swap",
            seed: |b| {
                b.stats.merge_totals.0.pages_adopted += 1;
                "counter merge_totals.pages_adopted:".to_string()
            },
            category: StatDrift,
        },
        SeededFault {
            fault: "root vclock_ns bump",
            scenario: "device_io",
            seed: |b| {
                b.vclock_ns += 1;
                "vclock_ns".to_string()
            },
            category: StatDrift,
        },
        SeededFault {
            fault: "non-root space vclock_ps bump",
            scenario: "quickstart_swap",
            seed: |b| {
                let sp = (b.spaces.iter_mut())
                    .find(|sp| sp.path != "/")
                    .expect("a child space");
                sp.vclock_ps += 1;
                format!(
                    "space {} vclock_ps {} vs {}",
                    sp.path,
                    sp.vclock_ps - 1,
                    sp.vclock_ps
                )
            },
            category: StatDrift,
        },
        SeededFault {
            fault: "exit change",
            scenario: "device_io",
            seed: |b| {
                let was = std::mem::replace(&mut b.exit, "Err(Killed)".to_string());
                format!("{was} vs Err(Killed)")
            },
            category: StatDrift,
        },
        SeededFault {
            fault: "console byte flip",
            scenario: "device_io",
            seed: |b| {
                let data = (b.outputs.get_mut(&det_kernel::DeviceId::ConsoleOut))
                    .expect("scenario writes the console");
                data[5] ^= 0x01;
                "device ConsoleOut output differs at byte 5".to_string()
            },
            category: DeviceOutput,
        },
        SeededFault {
            fault: "io_log change",
            scenario: "device_io",
            seed: |b| {
                assert!(b.io_log.events.pop().is_some(), "scenario reads input");
                "consumed device input logs differ".to_string()
            },
            category: DeviceOutput,
        },
        SeededFault {
            fault: "trace on one side only",
            scenario: "device_io",
            seed: |b| {
                b.trace_streams = None;
                "one replica recorded a trace".to_string()
            },
            category: ScheduleTrace,
        },
        SeededFault {
            fault: "trace reorder plus a merges bump",
            scenario: "rendezvous_storm",
            seed: |b| {
                let path = reordered_stream(b);
                assert!(b.reorder_trace());
                b.stats.merges += 1;
                format!("stream {path} event 0:")
            },
            category: ScheduleTrace,
        },
    ]
}

/// Every seeded fault is classified into its category, reports the
/// first divergent byte of the two renderings, and names its locus.
/// The diagnostic order outranks the byte order: a reorder plus a
/// counter bump is a schedule divergence although `[stats-core]`
/// renders first.
#[test]
fn every_seeded_fault_is_classified_and_located() {
    for row in seeded_faults() {
        let a = artifacts(row.scenario);
        let mut b = a.clone();
        let locus = (row.seed)(&mut b);
        let d = compare(&a, &b, Scope::Full)
            .unwrap_or_else(|| panic!("{}: bundles must diverge", row.fault));
        assert_eq!(d.category, row.category, "{}: {}", row.fault, d.detail);
        let (ba, bb) = (a.to_bytes(Scope::Full), b.to_bytes(Scope::Full));
        assert_eq!(d.offset, first_diff(&ba, &bb), "{}", row.fault);
        assert!(
            d.detail.contains(&locus),
            "{}: detail {:?} does not name {locus:?}",
            row.fault,
            d.detail
        );
    }
}
