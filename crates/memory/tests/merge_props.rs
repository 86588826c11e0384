//! Property-based tests of the private-workspace merge invariants.
//!
//! These check the paper's §2.2 semantics on randomly generated write
//! sets: reads see only causally prior writes, disjoint writes always
//! union, and write/write overlap is detected as a conflict
//! independently of any schedule.
//!
//! The second half is a **differential suite**: randomized
//! fork/write/merge schedules are run through both the optimized
//! dirty-set engine (`AddressSpace::try_merge_from`) and the naive
//! byte-at-a-time oracle (`reference::merge_from_reference`) under all
//! three conflict policies, asserting identical parent contents,
//! identical conflict detail, and consistent stats — once with the
//! parent's frames private (every candidate is diffed: this pins the
//! engine's word-parallel kernels to the oracle's byte loop) and once
//! as forked (the pages only the child wrote are adopted).

use det_memory::{AddressSpace, ConflictPolicy, MemError, Perm, Region, reference};
use proptest::prelude::*;

const BASE: u64 = 0x1000;
const LEN: u64 = 4 * 4096;
const REGION: Region = Region {
    start: BASE,
    end: BASE + LEN,
};

/// A single byte write at a region-relative offset.
#[derive(Clone, Debug)]
struct W {
    off: u64,
    val: u8,
}

fn writes(max: usize) -> impl Strategy<Value = Vec<W>> {
    proptest::collection::vec(
        (0..LEN, any::<u8>()).prop_map(|(off, val)| W { off, val }),
        0..max,
    )
}

fn fresh_parent(init: &[W]) -> AddressSpace {
    let mut p = AddressSpace::new();
    p.map_zero(REGION, Perm::RW).unwrap();
    for w in init {
        p.write_u8(BASE + w.off, w.val).unwrap();
    }
    p
}

fn fork(p: &AddressSpace) -> (AddressSpace, AddressSpace) {
    let mut c = AddressSpace::new();
    c.copy_from(p, REGION, BASE).unwrap();
    let s = c.snapshot();
    (c, s)
}

/// Final value a sequence of writes leaves at `off`, if any.
fn last_write(ws: &[W], off: u64) -> Option<u8> {
    ws.iter().rev().find(|w| w.off == off).map(|w| w.val)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Disjoint parent/child writes always merge to their union,
    /// regardless of the order and number of writes.
    #[test]
    fn disjoint_writes_union(init in writes(16), child_ws in writes(32), parent_ws in writes(32)) {
        // Make the write sets disjoint by offsetting parent writes into
        // bytes the child never touched.
        let child_offs: std::collections::HashSet<u64> =
            child_ws.iter().map(|w| w.off).collect();
        let parent_ws: Vec<W> = parent_ws
            .into_iter()
            .filter(|w| !child_offs.contains(&w.off))
            .collect();

        let mut parent = fresh_parent(&init);
        let baseline = parent.clone();
        let (mut child, snap) = fork(&parent);
        for w in &child_ws {
            child.write_u8(BASE + w.off, w.val).unwrap();
        }
        for w in &parent_ws {
            parent.write_u8(BASE + w.off, w.val).unwrap();
        }
        parent.merge_from(&child, &snap, REGION, ConflictPolicy::Strict).unwrap();

        for off in 0..LEN {
            let expect = last_write(&child_ws, off)
                .or_else(|| last_write(&parent_ws, off))
                .unwrap_or_else(|| baseline.read_u8(BASE + off).unwrap());
            prop_assert_eq!(parent.read_u8(BASE + off).unwrap(), expect);
        }
    }

    /// Strict policy: the merge errors iff some byte was changed (to a
    /// different final value than the snapshot) on both sides.
    #[test]
    fn conflict_iff_overlapping_change(init in writes(8), child_ws in writes(24), parent_ws in writes(24)) {
        let mut parent = fresh_parent(&init);
        let (mut child, snap) = fork(&parent);
        for w in &child_ws {
            child.write_u8(BASE + w.off, w.val).unwrap();
        }
        for w in &parent_ws {
            parent.write_u8(BASE + w.off, w.val).unwrap();
        }
        // Expected conflict: some offset where both sides' final value
        // differs from the snapshot value.
        let mut expect_conflict = false;
        for off in 0..LEN {
            let base = snap.read_u8(BASE + off).unwrap();
            let c = last_write(&child_ws, off).unwrap_or(base);
            let p = last_write(&parent_ws, off).unwrap_or(
                // Parent's pre-merge value = its own baseline (same as snap here).
                base,
            );
            if c != base && p != base {
                expect_conflict = true;
                break;
            }
        }
        let got = parent.merge_from(&child, &snap, REGION, ConflictPolicy::Strict);
        prop_assert_eq!(got.is_err(), expect_conflict);
        if let Err(e) = got {
            let is_conflict = matches!(e, MemError::Conflict { .. });
            prop_assert!(is_conflict);
        }
    }

    /// Benign policy accepts identical double-writes but still rejects
    /// divergent ones.
    #[test]
    fn benign_same_value(off in 0..LEN, v in any::<u8>(), w in any::<u8>()) {
        prop_assume!(v != 0 && w != 0);
        let mut parent = fresh_parent(&[]);
        let (mut child, snap) = fork(&parent);
        child.write_u8(BASE + off, v).unwrap();
        parent.write_u8(BASE + off, w).unwrap();
        let r = parent.merge_from(&child, &snap, REGION, ConflictPolicy::BenignSameValue);
        if v == w {
            prop_assert!(r.is_ok());
        } else {
            prop_assert!(r.is_err());
        }
    }

    /// Merging a child that wrote nothing is always a no-op with zero
    /// byte traffic (O(1) page skipping).
    #[test]
    fn null_merge_is_free(init in writes(16)) {
        let mut parent = fresh_parent(&init);
        let before = parent.content_digest();
        let (child, snap) = fork(&parent);
        let stats = parent.merge_from(&child, &snap, REGION, ConflictPolicy::Strict).unwrap();
        prop_assert_eq!(stats.bytes_compared, 0);
        prop_assert_eq!(stats.bytes_copied, 0);
        prop_assert_eq!(parent.content_digest(), before);
    }

    /// Join order of children with disjoint writes does not affect the
    /// final state (schedule independence).
    #[test]
    fn join_order_irrelevant_for_disjoint(child1 in writes(16), child2 in writes(16)) {
        let offs1: std::collections::HashSet<u64> = child1.iter().map(|w| w.off).collect();
        let child2: Vec<W> = child2.into_iter().filter(|w| !offs1.contains(&w.off)).collect();

        let parent0 = fresh_parent(&[]);
        let run = |order: [&[W]; 2]| {
            let mut parent = parent0.clone();
            let mut kids = Vec::new();
            for ws in order {
                let (mut c, s) = fork(&parent0);
                for w in ws {
                    c.write_u8(BASE + w.off, w.val).unwrap();
                }
                kids.push((c, s));
            }
            for (c, s) in &kids {
                parent.merge_from(c, s, REGION, ConflictPolicy::Strict).unwrap();
            }
            parent.content_digest()
        };
        prop_assert_eq!(run([&child1, &child2]), run([&child2, &child1]));
    }

    /// COW virtual copy is semantically a deep copy.
    #[test]
    fn cow_copy_equals_deep_copy(init in writes(32), post in writes(32)) {
        let parent = fresh_parent(&init);
        let (mut child, _) = fork(&parent);
        let reference = parent.clone();
        for w in &post {
            child.write_u8(BASE + w.off, w.val).unwrap();
        }
        // Parent unchanged by child writes.
        prop_assert_eq!(parent.content_digest(), reference.content_digest());
        // Child equals parent overwritten with post.
        for off in 0..LEN {
            let expect = last_write(&post, off)
                .unwrap_or_else(|| parent.read_u8(BASE + off).unwrap());
            prop_assert_eq!(child.read_u8(BASE + off).unwrap(), expect);
        }
    }
}

// ---------------------------------------------------------------------
// Differential suite: optimized engine vs the naive reference oracle.
// ---------------------------------------------------------------------

/// Pages the parent maps; the child may map up to 4 more beyond them
/// (child-created pages the merge adopts).
const DPAGES: u64 = 8;
const DEXTRA: u64 = 4;
const DBASE: u64 = 0x10_000;
const PAGE: u64 = 4096;
const DREGION: Region = Region {
    start: DBASE,
    end: DBASE + (DPAGES + DEXTRA) * PAGE,
};

/// One step of a child-side schedule.
#[derive(Clone, Debug)]
enum COp {
    /// Unaligned multi-byte write anywhere in the merged range
    /// (silently skipped if it touches an unmapped page, like a
    /// faulting space would be).
    Write { off: u64, data: Vec<u8> },
    /// Page-aligned whole-page fill.
    FillPage { page: u64, val: u8 },
    /// Map a fresh zero page (possibly beyond the parent's mapping —
    /// a child-created page; possibly over an existing one).
    MapZero { page: u64 },
}

fn child_ops(max: usize) -> impl Strategy<Value = Vec<COp>> {
    proptest::collection::vec(
        prop_oneof![
            (
                0..(DPAGES + DEXTRA) * PAGE - 32,
                proptest::collection::vec(any::<u8>(), 1..24)
            )
                .prop_map(|(off, data)| COp::Write { off, data }),
            (0..DPAGES + DEXTRA, any::<u8>()).prop_map(|(page, val)| COp::FillPage { page, val }),
            (0..DPAGES + DEXTRA).prop_map(|page| COp::MapZero { page }),
        ],
        0..max,
    )
}

fn apply_child_ops(space: &mut AddressSpace, ops: &[COp]) {
    for op in ops {
        match op {
            COp::Write { off, data } => {
                // Writes into unmapped pages fault; the schedule just
                // moves on (all-or-nothing, checked by `write`).
                let _ = space.write(DBASE + off, data);
            }
            COp::FillPage { page, val } => {
                let _ = space.write(DBASE + page * PAGE, &vec![*val; PAGE as usize]);
            }
            COp::MapZero { page } => {
                let start = DBASE + page * PAGE;
                space
                    .map_zero(Region::new(start, start + PAGE), Perm::RW)
                    .unwrap();
            }
        }
    }
}

/// Builds the fork state: parent with `init` applied, child forked
/// from it with a snapshot (clearing the child's dirty write-set).
fn diff_fork(init: &[W]) -> (AddressSpace, AddressSpace, AddressSpace) {
    let mut parent = AddressSpace::new();
    parent
        .map_zero(Region::new(DBASE, DBASE + DPAGES * PAGE), Perm::RW)
        .unwrap();
    for w in init {
        parent
            .write_u8(DBASE + w.off % (DPAGES * PAGE), w.val)
            .unwrap();
    }
    let mut child = AddressSpace::new();
    child
        .copy_from(&parent, Region::new(DBASE, DBASE + DPAGES * PAGE), DBASE)
        .unwrap();
    let snap = child.snapshot();
    (parent, child, snap)
}

/// A copy of `space` with every frame deep-copied: same bytes, same
/// permissions, but no page is frame-identical to the snapshot's (or
/// the child's) any more — the state every page is in once the parent
/// has written it.
fn privatised(space: &AddressSpace) -> AddressSpace {
    let mut s = space.clone();
    for page in space.iter_pages() {
        let addr = page.vpn * PAGE;
        let r = Region::new(addr, addr + PAGE);
        let bytes = space.read_vec(addr, PAGE as usize).unwrap();
        s.set_perm(r, Perm::RW).unwrap();
        s.write(addr, &bytes).unwrap(); // `space` pins the old frame: this copies.
        s.set_perm(r, page.perm).unwrap();
    }
    s
}

/// The pages a successful merge must adopt, stated independently of
/// the engine: dirty in the child, changed frame, and the (writable)
/// parent still on the snapshot's frame.
fn adoptable(
    parent: &AddressSpace,
    child: &AddressSpace,
    snap: &AddressSpace,
    region: Region,
) -> Vec<u64> {
    child
        .dirty_vpns_in(region)
        .into_iter()
        .filter(|&vpn| {
            let addr = vpn * PAGE;
            child.perm_at(addr).is_some()
                && snap.perm_at(addr).is_some()
                && parent.perm_at(addr).is_some_and(|p| p.allows(Perm::W))
                && !child.same_frame(snap, vpn)
                && parent.same_frame(snap, vpn)
        })
        .collect()
}

/// Runs one generated schedule through both engines under `policy`,
/// twice, and asserts they are observationally identical.
///
/// First with the parent's frames [`privatised`]: nothing can be
/// adopted, so every candidate goes through the engine's word-parallel
/// diff and `bytes_copied` must equal the byte-at-a-time oracle's.
/// Then as is: the pages only the child wrote are adopted, and the
/// engine must copy exactly that many bytes fewer.
fn assert_engines_agree(
    parent: &AddressSpace,
    child: &AddressSpace,
    snap: &AddressSpace,
    region: Region,
    policy: ConflictPolicy,
) -> Result<(), TestCaseError> {
    assert_engines_agree_on(&privatised(parent), child, snap, region, policy)?;
    assert_engines_agree_on(parent, child, snap, region, policy)
}

fn assert_engines_agree_on(
    parent: &AddressSpace,
    child: &AddressSpace,
    snap: &AddressSpace,
    region: Region,
    policy: ConflictPolicy,
) -> Result<(), TestCaseError> {
    let before = parent.content_digest();
    let mut p_opt = parent.clone();
    let mut p_ref = parent.clone();
    let opt = p_opt.try_merge_from(child, snap, region, policy);
    let refr = reference::merge_from_reference(&mut p_ref, child, snap, region, policy);
    match (opt, refr) {
        (Ok((s_opt, c_opt)), Ok((s_ref, c_ref))) => {
            prop_assert_eq!(c_opt, c_ref, "conflict detail diverged ({:?})", policy);
            if c_opt.is_some() {
                // Validate-before-write: neither engine touched the parent.
                prop_assert_eq!(p_opt.content_digest(), before.clone());
                prop_assert_eq!(p_ref.content_digest(), before);
                prop_assert_eq!(s_opt.pages_adopted, 0);
            } else {
                prop_assert_eq!(
                    p_opt.content_digest(),
                    p_ref.content_digest(),
                    "merged contents diverged ({:?})",
                    policy
                );
                prop_assert_eq!(s_opt.pages_mapped, s_ref.pages_mapped);
                // What the oracle copied byte by byte into the adopted
                // pages is exactly what the engine did not copy.
                let adopted = adoptable(parent, child, snap, region);
                prop_assert_eq!(s_opt.pages_adopted, adopted.len() as u64);
                let mut remapped_bytes = 0u64;
                for vpn in adopted {
                    prop_assert!(p_opt.same_frame(child, vpn));
                    let c = child.read_vec(vpn * PAGE, PAGE as usize).unwrap();
                    let b = snap.read_vec(vpn * PAGE, PAGE as usize).unwrap();
                    remapped_bytes += c.iter().zip(&b).filter(|(c, b)| c != b).count() as u64;
                }
                prop_assert_eq!(s_opt.bytes_copied + remapped_bytes, s_ref.bytes_copied);
            }
        }
        (Err(e_opt), Err(e_ref)) => {
            prop_assert_eq!(e_opt, e_ref, "error diverged ({:?})", policy);
            prop_assert_eq!(p_opt.content_digest(), before.clone());
            prop_assert_eq!(p_ref.content_digest(), before);
        }
        (opt, refr) => {
            return Err(TestCaseError::Fail(format!(
                "engines disagree under {policy:?}: optimized={opt:?} reference={refr:?}"
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The optimized engine and the reference oracle agree on final
    /// parent bytes, conflict presence/detail, and `bytes_copied`
    /// (less what adoption remapped) across randomized
    /// fork/write/merge schedules under all three conflict policies.
    #[test]
    fn differential_engines_agree(
        init in writes(24),
        cops in child_ops(24),
        pws in writes(24),
        ro_sel in 0u64..20,
        premerge in 0u64..4,
    ) {
        let (mut parent, mut child, snap) = diff_fork(&init);
        apply_child_ops(&mut child, &cops);
        // A quarter of the cases re-merge a child the parent has
        // already joined once (ChildWins cannot conflict): adopted
        // child-created pages then alias the parent's frames, which is
        // the one state where the engines' page-level alias rule must
        // demonstrably agree.
        if premerge == 0 {
            parent
                .merge_from(&child, &snap, DREGION, ConflictPolicy::ChildWins)
                .unwrap();
        }
        for w in &pws {
            parent.write_u8(DBASE + w.off % (DPAGES * PAGE), w.val).unwrap();
        }
        // Occasionally make one parent page read-only: the merge must
        // fail identically (validate-before-write) in both engines.
        if ro_sel < DPAGES {
            let start = DBASE + ro_sel * PAGE;
            parent.set_perm(Region::new(start, start + PAGE), Perm::R).unwrap();
        }
        for policy in [
            ConflictPolicy::Strict,
            ConflictPolicy::BenignSameValue,
            ConflictPolicy::ChildWins,
        ] {
            assert_engines_agree(&parent, &child, &snap, DREGION, policy)?;
        }
    }

    /// Reverted writes (child restores the snapshot value) never
    /// propagate, under either engine.
    #[test]
    fn differential_reverted_writes(off in 0..DPAGES * PAGE, v in 1u8..=255) {
        let (parent, mut child, snap) = diff_fork(&[]);
        child.write_u8(DBASE + off, v).unwrap();
        child.write_u8(DBASE + off, 0).unwrap(); // Back to the base value.
        for policy in [
            ConflictPolicy::Strict,
            ConflictPolicy::BenignSameValue,
            ConflictPolicy::ChildWins,
        ] {
            assert_engines_agree(&parent, &child, &snap, DREGION, policy)?;
            let mut p = parent.clone();
            let stats = p.merge_from(&child, &snap, DREGION, policy).unwrap();
            prop_assert_eq!(stats.bytes_copied, 0);
        }
    }
}

// ---------------------------------------------------------------------
// Structural-sharing differential suite: schedules at page-table-leaf
// scale (512-page leaves), so snapshot/copy_from share, COW, and merge
// *whole leaves* — the DESIGN.md §5 invariant — against the oracle.
// ---------------------------------------------------------------------

const PPL: u64 = det_memory::PAGES_PER_LEAF as u64;
/// Leaf-aligned test region: 2 whole leaves starting at leaf index 4.
const LBASE: u64 = 4 * PPL * PAGE;
const LLEN: u64 = 2 * PPL * PAGE;
const LREGION: Region = Region {
    start: LBASE,
    end: LBASE + LLEN,
};

/// One step of a leaf-scale child schedule. Every constructor keeps
/// the schedule inside `LREGION`'s two leaves (indices 0 and 1).
#[derive(Clone, Debug)]
enum LOp {
    /// Byte write anywhere in the region (faults on unmapped pages are
    /// swallowed, like a trapping space).
    Write { off: u64, val: u8 },
    /// 64-byte fill at a page start.
    FillPage { page: u64, val: u8 },
    /// Leaf-congruent self-aliasing copy: leaf `src` over leaf `dst`
    /// (wholesale `Arc` share of a 512-page leaf).
    CopyLeaf { src: u64, dst: u64 },
    /// Incongruent copy of leaf `src` to an 8-page-shifted offset:
    /// forces the per-page boundary path over shared leaves.
    CopyShifted { src: u64 },
    /// Fresh zero mapping over a whole leaf (shares one zero leaf).
    MapZeroLeaf { leaf: u64 },
    /// Unmap a whole leaf (drops it from the spine in O(1)).
    UnmapLeaf { leaf: u64 },
    /// Replace the reference snapshot, as the kernel's `Snap` option
    /// does — clears the dirty set while every leaf becomes shared.
    Snap,
    /// Fold the child into the parent mid-schedule under `ChildWins`
    /// (never conflicts): afterwards parent and child alias adopted
    /// frames and leaves, the `pages_aliased` state at leaf scale.
    Premerge,
}

fn leaf_region(leaf: u64) -> Region {
    Region::sized(LBASE + leaf * PPL * PAGE, PPL * PAGE)
}

fn leaf_ops(max: usize) -> impl Strategy<Value = Vec<LOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0..LLEN, any::<u8>()).prop_map(|(off, val)| LOp::Write { off, val }),
            (0..2 * PPL, any::<u8>()).prop_map(|(page, val)| LOp::FillPage { page, val }),
            (0..2u64, 0..2u64).prop_map(|(src, dst)| LOp::CopyLeaf { src, dst }),
            (0..2u64).prop_map(|src| LOp::CopyShifted { src }),
            (0..2u64).prop_map(|leaf| LOp::MapZeroLeaf { leaf }),
            (0..2u64).prop_map(|leaf| LOp::UnmapLeaf { leaf }),
            Just(LOp::Snap),
            Just(LOp::Premerge),
        ],
        0..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of snapshot / leaf-congruent copy_from /
    /// write / merge over whole 512-page leaves: the optimized engine
    /// (leaf short-circuit, dirty bitmaps, structural sharing) must
    /// stay observationally identical to the naive oracle, and the
    /// parent must never see a torn or leaked page through a shared
    /// leaf.
    #[test]
    fn differential_leaf_scale_interleavings(
        init_stride in 1u64..64,
        ops in leaf_ops(20),
        pws in proptest::collection::vec((0..LLEN, any::<u8>()), 0..12),
        pol in 0u8..3,
    ) {
        let policy = match pol {
            0 => ConflictPolicy::Strict,
            1 => ConflictPolicy::BenignSameValue,
            _ => ConflictPolicy::ChildWins,
        };
        let mut parent = AddressSpace::new();
        parent.map_zero(LREGION, Perm::RW).unwrap();
        // Sparse recognizable content so merges move real bytes.
        let mut vpn = 0;
        while vpn < 2 * PPL {
            parent.write_u64(LBASE + vpn * PAGE, vpn + 1).unwrap();
            vpn += init_stride;
        }
        // Fork: wholesale leaf share plus reference snapshot.
        let mut child = AddressSpace::new();
        child.copy_from(&parent, LREGION, LBASE).unwrap();
        prop_assert!(child.shares_leaf_with(&parent, LBASE / PAGE));
        let mut snap = child.snapshot();
        for op in &ops {
            match op {
                LOp::Write { off, val } => {
                    let _ = child.write_u8(LBASE + off, *val);
                }
                LOp::FillPage { page, val } => {
                    let _ = child.write(LBASE + page * PAGE, &[*val; 64]);
                }
                LOp::CopyLeaf { src, dst } => {
                    let aliased = child.clone();
                    child
                        .copy_from(&aliased, leaf_region(*src), leaf_region(*dst).start)
                        .unwrap();
                }
                LOp::CopyShifted { src } => {
                    let aliased = child.clone();
                    // Shift by 8 pages but stay inside the region.
                    let r = leaf_region(*src);
                    let r = Region::new(r.start, r.end - 8 * PAGE);
                    child.copy_from(&aliased, r, r.start + 8 * PAGE).unwrap();
                }
                LOp::MapZeroLeaf { leaf } => {
                    child.map_zero(leaf_region(*leaf), Perm::RW).unwrap();
                }
                LOp::UnmapLeaf { leaf } => {
                    child.unmap(leaf_region(*leaf)).unwrap();
                }
                LOp::Snap => snap = child.snapshot(),
                LOp::Premerge => {
                    parent
                        .merge_from(&child, &snap, LREGION, ConflictPolicy::ChildWins)
                        .unwrap();
                }
            }
        }
        for (off, val) in &pws {
            parent.write_u8(LBASE + off, *val).unwrap();
        }
        assert_engines_agree(&parent, &child, &snap, LREGION, policy)?;
    }
}

/// The acceptance benchmark in test form: on a sparse-dirty merge
/// (16 of 1024 pages touched) the optimized engine must report at
/// least a 5x reduction in `pages_scanned + bytes_compared` versus the
/// pre-optimization engine, whose costs the reference oracle would
/// overstate — so the pre-PR figures are reconstructed analytically:
/// it scanned every mapped page (1024) and charged a full page of
/// byte compares per frame-distinct page (16 * 4096).
#[test]
fn sparse_dirty_stat_reduction_is_at_least_5x() {
    const PAGES: u64 = 1024;
    let region = Region::new(0, PAGES * PAGE);
    let mut parent = AddressSpace::new();
    parent.map_zero(region, Perm::RW).unwrap();
    let mut child = AddressSpace::new();
    child.copy_from(&parent, region, 0).unwrap();
    let snap = child.snapshot();
    for i in 0..16u64 {
        child.write_u64(i * 64 * PAGE + 64, i + 1).unwrap();
    }
    let stats = parent
        .merge_from(&child, &snap, region, ConflictPolicy::Strict)
        .unwrap();
    let new_cost = stats.pages_scanned + stats.bytes_compared;
    let pre_pr_cost = PAGES + 16 * PAGE; // pages_scanned + bytes_compared.
    assert!(
        pre_pr_cost >= 5 * new_cost,
        "expected >=5x reduction: pre-PR {pre_pr_cost} vs new {new_cost} ({stats:?})"
    );
    // And the dirty-set bookkeeping is visible in the stats.
    assert_eq!(stats.pages_scanned, 16);
    assert_eq!(stats.pages_skipped_clean, PAGES - 16);
}
