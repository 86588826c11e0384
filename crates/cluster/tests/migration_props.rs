//! Differential property tests of the leaf-pull migration protocol.
//!
//! The real-thread shard runtime materializes a migrated space by
//! pulling *leaves* of the structurally shared page table through the
//! canonical wire encoding (`det_kernel::wire`). These properties pit
//! that path against the trusted whole-space-copy oracle
//! (`AddressSpace::copy_from_counted`) on randomized sparse layouts:
//! the replica must agree byte-for-byte, permission-for-permission,
//! and dirty-set-for-dirty-set, while transferring no more leaves
//! than the touch set intersects.

use det_kernel::wire;
use det_memory::{AddressSpace, PAGES_PER_LEAF, Perm, Region};
use proptest::prelude::*;

const PAGE: u64 = 0x1000;
const LEAF_SPAN: u64 = PAGES_PER_LEAF as u64 * PAGE;
/// Layouts span up to 6 leaves.
const LEAVES: u64 = 6;

/// One mapped page of the randomized layout.
#[derive(Clone, Debug)]
struct Pg {
    leaf: u64,
    slot: u64,
    fill: u8,
    read_only: bool,
    /// Leave the page all-zero (it stays on the shared zero frame, so
    /// the leaf image must use the WriteZero encoding).
    zero: bool,
}

fn pages() -> impl Strategy<Value = Vec<Pg>> {
    proptest::collection::vec(
        (
            0..LEAVES,
            prop_oneof![0..4u64, (PAGES_PER_LEAF as u64 - 3)..PAGES_PER_LEAF as u64],
            any::<u8>(),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(leaf, slot, fill, read_only, zero)| Pg {
                leaf,
                slot,
                fill,
                read_only,
                zero,
            }),
        1..24,
    )
}

/// Touch set: `None` (pull everything) or a random sub-span of leaves.
fn touch() -> impl Strategy<Value = Option<(u64, u64)>> {
    prop_oneof![
        Just(None),
        (0..LEAVES, 1..=LEAVES).prop_map(|(lo, n)| Some((lo, (lo + n).min(LEAVES)))),
    ]
}

fn page_addr(p: &Pg) -> u64 {
    p.leaf * LEAF_SPAN + p.slot * PAGE
}

/// Builds the source space from the randomized layout.
fn build_src(layout: &[Pg]) -> AddressSpace {
    let mut s = AddressSpace::new();
    for p in layout {
        let at = page_addr(p);
        let r = Region::new(at, at + PAGE);
        if s.map_zero_if_unmapped(r, Perm::RW).unwrap() == 0 {
            continue; // duplicate (leaf, slot) — first mapping wins
        }
        if !p.zero {
            s.write_u8(at, p.fill).unwrap();
            s.write_u8(at + PAGE - 1, p.fill ^ 0xff).unwrap();
        }
        if p.read_only {
            s.set_perm(r, Perm::R).unwrap();
        }
    }
    s
}

fn full_region() -> Region {
    Region::new(0, LEAVES * LEAF_SPAN)
}

fn touch_region(t: (u64, u64)) -> Region {
    Region::new(t.0 * LEAF_SPAN, t.1 * LEAF_SPAN)
}

/// The migration under test: summarize, filter by touch, pull each
/// leaf image through the wire codec, apply onto a fresh space.
/// Returns the replica and the number of leaves transferred.
fn leaf_pull_migrate(src: &AddressSpace, touch: Option<(u64, u64)>) -> (AddressSpace, usize) {
    let mut replica = AddressSpace::new();
    let mut transferred = 0;
    for leaf in src.leaf_summary() {
        if let Some(t) = touch {
            let r = touch_region(t);
            let start = leaf.first_vpn * PAGE;
            let end = start + LEAF_SPAN;
            if !(r.start < end && r.end > start) {
                continue;
            }
        }
        let bytes = wire::delta_to_bytes(&src.leaf_image(leaf.first_vpn));
        let delta = wire::delta_from_bytes(&bytes).expect("wire codec round-trips");
        replica.apply_delta(&delta).expect("leaf image applies");
        transferred += 1;
    }
    (replica, transferred)
}

/// The oracle: one whole-space structural copy of the touched span.
fn oracle_migrate(src: &AddressSpace, touch: Option<(u64, u64)>) -> AddressSpace {
    let region = touch.map_or(full_region(), touch_region);
    let mut dst = AddressSpace::new();
    dst.copy_from_counted(src, region, region.start).unwrap();
    dst
}

/// Page-by-page observable state: (vpn, perm, dirty, first byte, last
/// byte).
fn observe(s: &AddressSpace) -> Vec<(u64, Perm, bool, u8, u8)> {
    let dirty: std::collections::BTreeSet<u64> = s.dirty_vpns().into_iter().collect();
    s.iter_pages()
        .map(|p| {
            let at = p.vpn * PAGE;
            (
                p.vpn,
                p.perm,
                dirty.contains(&p.vpn),
                s.read_u8(at).unwrap(),
                s.read_u8(at + PAGE - 1).unwrap(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Full migration (no touch set): the leaf-pull replica and the
    /// whole-space-copy oracle agree on bytes, permissions, dirty
    /// sets, and the whole-image digest.
    #[test]
    fn leaf_pull_equals_whole_copy(layout in pages()) {
        let src = build_src(&layout);
        let (replica, transferred) = leaf_pull_migrate(&src, None);
        let oracle = oracle_migrate(&src, None);
        prop_assert_eq!(observe(&replica), observe(&oracle));
        prop_assert_eq!(
            replica.content_digest().value(),
            oracle.content_digest().value()
        );
        prop_assert_eq!(transferred, src.leaf_summary().len());
    }

    /// Touch-filtered migration: identical to an oracle copy of the
    /// touched span, and never transfers more leaves than the touch
    /// set intersects.
    #[test]
    fn touch_filter_matches_oracle_span(layout in pages(), t in touch()) {
        let src = build_src(&layout);
        let (replica, transferred) = leaf_pull_migrate(&src, t);
        let oracle = oracle_migrate(&src, t);
        prop_assert_eq!(observe(&replica), observe(&oracle));
        let touched = src
            .leaf_summary()
            .iter()
            .filter(|l| match t {
                None => true,
                Some(span) => {
                    let r = touch_region(span);
                    let start = l.first_vpn * PAGE;
                    r.start < start + LEAF_SPAN && r.end > start
                }
            })
            .count();
        prop_assert!(transferred <= touched, "{transferred} > {touched}");
        prop_assert_eq!(transferred, touched);
    }

    /// The summary directory is exact: leaf page counts sum to the
    /// space's page count, and every mapped page falls inside exactly
    /// one summarized leaf.
    #[test]
    fn summary_is_exact(layout in pages()) {
        let src = build_src(&layout);
        let summary = src.leaf_summary();
        let total: u64 = summary.iter().map(|l| l.pages as u64).sum();
        prop_assert_eq!(total, src.page_count() as u64);
        for p in src.iter_pages() {
            let holder = summary
                .iter()
                .filter(|l| {
                    l.first_vpn <= p.vpn && p.vpn < l.first_vpn + PAGES_PER_LEAF as u64
                })
                .count();
            prop_assert_eq!(holder, 1, "vpn {} in {} leaves", p.vpn, holder);
        }
    }

    /// Wire-codec round trip over a leaf image is lossless, and the
    /// encoding is canonical (re-encoding the decoded delta yields the
    /// same bytes — the property the byte-accounting relies on).
    #[test]
    fn wire_codec_is_lossless_and_canonical(layout in pages()) {
        let src = build_src(&layout);
        for leaf in src.leaf_summary() {
            let img = src.leaf_image(leaf.first_vpn);
            let bytes = wire::delta_to_bytes(&img);
            let back = wire::delta_from_bytes(&bytes).unwrap();
            prop_assert_eq!(&back, &img);
            prop_assert_eq!(wire::delta_to_bytes(&back), bytes);
        }
    }
}
