//! First-principles check of the shard runtime's cost accounting.
//!
//! One logical schedule — fork a worker onto node 1 over a 16-page
//! region, worker reads every page and writes nothing, join — is run
//! through [`ClusterSpec`], and every traffic counter is derived by
//! hand and pinned **exactly**, so any drift in the runtime's
//! accounting (or in the wire encoding it prices) fails loudly:
//!
//! * **migrations** — 2: the fork summary and the homecoming delta;
//! * **page pulls** — 16 page-*equivalents*: one leaf pull carrying
//!   16 pages;
//! * **messages** — 5: the summary, a request/response pair for the
//!   leaf and one for the join;
//! * **bytes** — headers plus the canonical wire encoding of the leaf
//!   image and of the (empty) homecoming delta, and, from first
//!   principles, a leaf image no bigger than its raw pages plus 64
//!   bytes each and 64 for the delta;
//! * **virtual time** — the same schedule forked onto the root's own
//!   node costs exactly those five messages less.

use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

use det_cluster::{ClusterOutcome, ClusterSpec, JobSpec, NetworkModel};
use det_kernel::{Region, wire};
use det_memory::{AddressSpace, Perm, SpaceDelta};

const BASE: u64 = 0x10000;
const PAGES: u64 = 16;
const REGION: Region = Region {
    start: BASE,
    end: BASE + PAGES * 0x1000,
};
const HEADER: u64 = 64;

/// Root-side setup: map the region and write the first word of every
/// page.
fn fill(mem: &mut AddressSpace) {
    mem.map_zero(REGION, Perm::RW).unwrap();
    for p in 0..PAGES {
        mem.write_u64(BASE + p * 0x1000, p + 1).unwrap();
    }
}

/// The schedule, with the worker forked onto `node`. Also returns the
/// root's clock right after the join, in picoseconds.
fn schedule(node: u16) -> (ClusterOutcome, u64) {
    let joined_ps = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&joined_ps);
    let out = ClusterSpec::new(2, 2).run(move |ctx, net| {
        fill(ctx.mem_mut());
        net.fork(
            ctx,
            1,
            node,
            JobSpec::native(REGION, |c, _| {
                let mut acc = 0u64;
                for p in 0..PAGES {
                    acc = acc.wrapping_add(c.mem().read_u64(BASE + p * 0x1000)?);
                }
                assert_eq!(acc, PAGES * (PAGES + 1) / 2);
                // Enough declared work that the worker, not the root's
                // own join entry, is the later clock at the join.
                c.charge(10_000)?;
                Ok(0)
            }),
        )?;
        net.join(ctx, 1)?;
        seen.store(ctx.vclock_ps(), Ordering::SeqCst);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    (out, joined_ps.load(Ordering::SeqCst))
}

#[test]
fn shard_runtime_prices_a_schedule_from_first_principles() {
    let (out, remote_ps) = schedule(1);
    let h = out.cluster;
    // Fork summary + homecoming delta.
    assert_eq!(h.migrations, 2, "{h:?}");
    // One leaf pull carrying all 16 pages.
    assert_eq!(h.page_pulls, PAGES, "{h:?}");
    // Leaf batching: 1 summary + 2 for the leaf pull + 2 for the join
    // round trip.
    assert_eq!(h.messages, 5, "{h:?}");
    // Bytes priced off the canonical wire encoding: reconstruct the
    // frozen image exactly as `fork` does and measure its leaf image.
    let mut root = AddressSpace::new();
    fill(&mut root);
    let mut img = AddressSpace::new();
    img.copy_from(&root, REGION, REGION.start).unwrap();
    let summary = img.leaf_summary();
    assert_eq!(summary.len(), 1, "16 pages live in one leaf");
    assert_eq!(summary[0].pages, PAGES as u32);
    let leaf = wire::delta_to_bytes(&img.leaf_image(summary[0].first_vpn)).len() as u64;
    // The codec's own output prices the bytes, which would not notice
    // a codec that doubled every page (hex did): the written leaf image
    // is its 16 raw pages plus at most 64 bytes of keys and lengths
    // each, and 64 for the delta around them.
    assert!(
        leaf <= PAGES * (4096 + 64) + 64,
        "leaf image is {leaf} bytes"
    );
    // The worker writes nothing, so the homecoming delta is empty.
    let empty_delta = wire::delta_to_bytes(&SpaceDelta::default()).len() as u64;
    let expected = (HEADER + 16 * PAGES)     // fork summary
        + HEADER + (HEADER + leaf)           // leaf pull round trip
        + HEADER + (HEADER + empty_delta); // join round trip
    assert_eq!(h.bytes_transferred, expected, "{h:?}");
    // Nothing was forked onto its own node.
    assert_eq!(h.cache_hits, 0, "{h:?}");

    // Virtual time: the worker is the critical path, so against the
    // same schedule on the root's own node (no link traffic at all)
    // the remote run is later by exactly its five messages.
    let (local, local_ps) = schedule(0);
    assert_eq!(local.cluster.messages, 0, "{:?}", local.cluster);
    assert_eq!(local.cluster.cache_hits, PAGES, "{:?}", local.cluster);
    let net = NetworkModel::ethernet_1g();
    let link_ps = net.message_ps(HEADER + 16 * PAGES)
        + net.message_ps(HEADER)
        + net.message_ps(HEADER + leaf)
        + net.message_ps(HEADER)
        + net.message_ps(HEADER + empty_delta);
    assert_eq!(remote_ps - local_ps, link_ps);
}

/// A pulled leaf counts as the pages it carries, across region sizes,
/// and a read-only round trip is always two migrations.
#[test]
fn pull_page_equivalents_track_region_size() {
    for pages in [1u64, 4, 32] {
        let region = Region::new(BASE, BASE + pages * 0x1000);
        let shard = ClusterSpec::new(2, 2).run(move |ctx, net| {
            ctx.mem_mut().map_zero(region, Perm::RW)?;
            for p in 0..pages {
                ctx.mem_mut().write_u64(BASE + p * 0x1000, p + 1)?;
            }
            net.fork(
                ctx,
                1,
                1,
                JobSpec::native(region, move |c, _| {
                    for p in 0..pages {
                        c.mem().read_u64(BASE + p * 0x1000)?;
                    }
                    Ok(0)
                }),
            )?;
            net.join(ctx, 1)?;
            Ok(0)
        });
        assert_eq!(shard.exit, Ok(0));
        assert_eq!(shard.cluster.page_pulls, pages, "{:?}", shard.cluster);
        assert_eq!(shard.cluster.migrations, 2, "pages={pages}");
    }
}
