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
//! byte-at-a-time oracle (`reference::merge_from_reference`) under both
//! conflict policies, asserting identical parent contents,
//! identical conflict detail, and consistent stats — once with the
//! parent's frames private (every candidate is diffed: this pins the
//! engine's word-parallel kernels to the oracle's byte loop) and once
//! as forked (the pages only the child wrote are adopted).
//!
//! The last part does the same for the virtual copy: sub-leaf layouts
//! through `AddressSpace::copy_from` and through the
//! page-by-page `reference::copy_from_reference`, each case stating
//! which arm — shared leaf or per-page — the engine must take.

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

    /// Strict policy: two non-zero writes to one byte conflict, equal
    /// or not (§2.2 — a same-value double write is still a race).
    #[test]
    fn strict_double_write_conflicts(
        off in 0..LEN,
        v in 1u8..=255,
        w in 1u8..=255,
        same in any::<bool>(),
    ) {
        let w = if same { v } else { w };
        let mut parent = fresh_parent(&[]);
        let (mut child, snap) = fork(&parent);
        child.write_u8(BASE + off, v).unwrap();
        parent.write_u8(BASE + off, w).unwrap();
        let r = parent.merge_from(&child, &snap, REGION, ConflictPolicy::Strict);
        prop_assert_eq!(r, Err(MemError::Conflict { addr: BASE + off }));
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
    /// fork/write/merge schedules under both conflict policies.
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
        for policy in [ConflictPolicy::Strict, ConflictPolicy::ChildWins] {
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
        for policy in [ConflictPolicy::Strict, ConflictPolicy::ChildWins] {
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
        child_wins in any::<bool>(),
    ) {
        let policy = if child_wins { ConflictPolicy::ChildWins } else { ConflictPolicy::Strict };
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

// ----------------------------------------------------------------------
// Virtual copy vs. its page-by-page oracle
// ----------------------------------------------------------------------
//
// `copy_from` may share a whole page-table leaf where the copied range
// is alone in it (DESIGN.md §5). The oracle below it,
// `reference::copy_from_reference`, installs every page on its own and
// knows nothing of leaves, so the two must leave the same space
// whichever arm the engine took — and each case says which arm that
// must be, so the sharing arm cannot quietly stop being exercised.
// (One layout needs the crate's internals to build — a stale dirty
// mark on an unmapped page beside the range — and is
// `a_lone_range_share_leaves_dirty_marks_outside_the_range_alone` in
// `space.rs`, beside the leaf-chunk walk the copy takes, against the
// same oracle.)

/// First address of the four-leaf window the copy cases live in.
const CBASE: u64 = 64 * PPL * PAGE;
const CWINDOW: Region = Region {
    start: CBASE,
    end: CBASE + 4 * PPL * PAGE,
};

fn cpage(page: u64) -> Region {
    Region::sized(CBASE + page * PAGE, PAGE)
}

/// One virtual copy: what the two page tables hold beforehand, the
/// range copied, and the leaves the engine must share doing it. Pages
/// are indices into [`CWINDOW`].
#[derive(Clone, Debug, Default)]
struct CopyCase {
    /// Source pages, each mapped and tagged with its own index.
    src: Vec<u64>,
    /// Destination pages mapped and written before the destination's
    /// last snapshot: clean when the copy runs.
    dst_clean: Vec<u64>,
    /// Destination pages mapped and written after it: dirty.
    dst_dirty: Vec<u64>,
    /// The copied source range, `first..first + len`.
    first: u64,
    len: u64,
    /// Where page `first` lands in the destination.
    dst_first: u64,
    /// `CloneStats::leaves_shared` the engine must report.
    shared: u64,
}

fn copy_source(case: &CopyCase) -> AddressSpace {
    let mut src = AddressSpace::new();
    for &p in &case.src {
        src.map_zero(cpage(p), Perm::RW).unwrap();
        src.write_u64(cpage(p).start + 8 * (p % 500), p + 1)
            .unwrap();
        if p % 5 == 0 {
            src.set_perm(cpage(p), Perm::R).unwrap();
        }
    }
    src
}

fn copy_destination(case: &CopyCase) -> AddressSpace {
    let mut dst = AddressSpace::new();
    for (pages, tag) in [(&case.dst_clean, 0x1000), (&case.dst_dirty, 0x2000)] {
        for &p in pages {
            dst.map_zero(cpage(p), Perm::RW).unwrap();
            dst.write_u64(cpage(p).start, tag + p).unwrap();
        }
        if tag == 0x1000 {
            dst.clear_dirty();
        }
    }
    dst
}

/// `(vpn, perm)` of every mapped page.
fn perms(space: &AddressSpace) -> Vec<(u64, Perm)> {
    space.iter_pages().map(|p| (p.vpn, p.perm)).collect()
}

/// Runs `case` through the engine and the oracle and compares what
/// they leave, now and after the copy has been used the way a barrier
/// uses it: snapshot, write, merge back into the source.
fn check_copy(case: &CopyCase) -> Result<(), TestCaseError> {
    let src = copy_source(case);
    let range = Region::sized(cpage(case.first).start, case.len * PAGE);
    let dst_start = cpage(case.dst_first).start;
    let mut eng = copy_destination(case);
    let mut orc = copy_destination(case);
    let generation = eng.generation();
    let es = eng.copy_from(&src, range, dst_start).unwrap();
    let os = reference::copy_from_reference(&mut orc, &src, range, dst_start).unwrap();

    prop_assert_eq!(es.leaves_shared, case.shared, "arm taken: {:?}", es);
    prop_assert_eq!((os.leaves_shared, os.boundary_pages), (0, os.pages));
    prop_assert_eq!(es.pages, os.pages);
    if case.shared == 0 {
        prop_assert_eq!(es.boundary_pages, es.pages);
    }
    prop_assert!(es.pages == 0 || eng.generation() > generation);
    prop_assert_eq!(eng.content_digest(), orc.content_digest());
    prop_assert_eq!(perms(&eng), perms(&orc));
    prop_assert_eq!(eng.page_count(), orc.page_count());
    prop_assert_eq!(eng.dirty_vpns(), orc.dirty_vpns());

    let mut merged = Vec::new();
    for child in [&mut eng, &mut orc] {
        let snap = child.snapshot();
        for (i, page) in perms(child).into_iter().enumerate() {
            if i % 3 == 0 {
                // Read-only pages refuse; both sides skip the same ones.
                let _ = child.write_u64(page.0 * PAGE + 16, 0xC0FFEE + page.0);
            }
        }
        let mut parent = src.clone();
        let stats = parent.merge_from(child, &snap, CWINDOW, ConflictPolicy::ChildWins);
        merged.push((
            stats,
            parent.content_digest(),
            parent.dirty_vpns(),
            perms(&parent),
        ));
    }
    prop_assert_eq!(&merged[0], &merged[1]);
    // Neither being shared from nor the writes through the shared
    // leaf reached the source.
    prop_assert_eq!(src.content_digest(), copy_source(case).content_digest());
    Ok(())
}

/// The named layouts, each with the arm it must take. `L` is the
/// first page of leaf 1 of the window.
#[test]
fn copy_matches_oracle_on_each_named_layout() {
    const L: u64 = PPL;
    let run = |lo: u64, n: u64| (lo..lo + n).collect::<Vec<u64>>();
    let min = det_memory::SUBLEAF_SHARE_MIN_PAGES as u64;
    let mirror = |src: Vec<u64>, first: u64, len: u64, shared: u64| CopyCase {
        src,
        first,
        len,
        dst_first: first,
        shared,
        ..CopyCase::default()
    };
    let alone = mirror(run(L + 100, 64), L + 100, 64, 1);
    let holes: Vec<u64> = run(L + 100, 64)
        .into_iter()
        .filter(|p| *p != L + 110 && !(L + 120..L + 125).contains(p))
        .collect();
    let cases = [
        ("range alone in its leaf", alone.clone()),
        (
            "range alone, wider than what the source maps",
            mirror(run(L + 100, 64), L + 50, 250, 1),
        ),
        (
            "source maps a page outside the range",
            mirror([vec![L + 5], run(L + 100, 64)].concat(), L + 100, 64, 0),
        ),
        (
            "destination keeps a private page outside the range",
            CopyCase {
                dst_dirty: vec![L + 300],
                shared: 0,
                ..alone.clone()
            },
        ),
        (
            "destination keeps a clean page outside the range",
            CopyCase {
                dst_clean: vec![L + 99],
                shared: 0,
                ..alone.clone()
            },
        ),
        (
            "holes inside the range, mapped in the destination",
            CopyCase {
                dst_clean: vec![L + 110],
                dst_dirty: vec![L + 121],
                ..mirror(holes, L + 100, 64, 1)
            },
        ),
        (
            "destination residue inside the range",
            CopyCase {
                dst_clean: run(L + 100, 30),
                dst_dirty: run(L + 130, 20),
                ..alone.clone()
            },
        ),
        (
            "the destination's neighbouring leaves are not its business",
            CopyCase {
                dst_clean: vec![L - 1],
                dst_dirty: vec![2 * L],
                ..alone.clone()
            },
        ),
        (
            "congruent offsets two leaves up",
            CopyCase {
                dst_first: L + 100 + 2 * PPL,
                ..alone.clone()
            },
        ),
        (
            "non-congruent offsets",
            CopyCase {
                dst_first: L + 103,
                shared: 0,
                ..alone.clone()
            },
        ),
        (
            "straddling two leaves, each side alone",
            mirror(run(2 * L - 12, 32), 2 * L - 12, 32, 2),
        ),
        (
            "straddling two leaves, one side too short to share",
            mirror(run(2 * L - 5, 25), 2 * L - 5, 25, 1),
        ),
        (
            "a whole leaf and a lone head",
            mirror(run(L, PPL + 16), L, PPL + 16, 2),
        ),
        (
            "one page short of the threshold",
            mirror(run(L + 7, min - 1), L + 7, min - 1, 0),
        ),
        (
            "exactly the threshold",
            mirror(run(L + 7, min), L + 7, min, 1),
        ),
        (
            "a wide range mapping fewer pages than the threshold",
            mirror(run(L + 7, min - 1), L, 64, 0),
        ),
        (
            "nothing mapped in the range",
            mirror(vec![], L + 100, 64, 0),
        ),
    ];
    for (name, case) in cases {
        if let Err(e) = check_copy(&case) {
            panic!("{name}: {e:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random sub-leaf layouts: a run of `n` pages at `lo` in leaf 1
    /// with holes punched in it, copied whole; optionally a stray page
    /// elsewhere in the source's or the destination's leaf, residue
    /// inside the range, and a shifted destination. The expected arm is
    /// stated from those knobs, not recomputed from bitmaps.
    #[test]
    fn copy_matches_oracle_on_random_sub_leaf_layouts(
        n in 1u64..80,
        lo_seed in 0u64..PPL,
        shift in proptest::sample::select(vec![0, 0, PPL, 2 * PPL, 3, PPL + 1]),
        holes in proptest::collection::vec(0u64..80, 0..6),
        src_stray in (0u8..4, 0u64..PPL),
        dst_stray in (0u8..4, 0u64..PPL),
        residue in proptest::collection::vec((0u64..80, any::<bool>()), 0..10),
    ) {
        let lo = lo_seed % (PPL - n);
        // The `k`-th page of leaf 1 that is outside the run.
        let outside = |k: u64| {
            let k = k % (PPL - n);
            PPL + if k < lo { k } else { k + n }
        };
        let mut src: Vec<u64> = (0..n).filter(|i| !holes.contains(i)).map(|i| PPL + lo + i).collect();
        let mapped = src.len() as u64;
        // One case in four has a stray page on each side.
        let (src_stray, dst_stray) = ((src_stray.0 == 0, src_stray.1), (dst_stray.0 == 0, dst_stray.1));
        if src_stray.0 {
            src.push(outside(src_stray.1));
        }
        let mut case = CopyCase {
            src,
            first: PPL + lo,
            len: n,
            dst_first: PPL + lo + shift,
            ..CopyCase::default()
        };
        // The destination's pages sit where the range lands.
        let landed = |p: u64| p + shift;
        for (i, dirty) in residue {
            let pages = if dirty { &mut case.dst_dirty } else { &mut case.dst_clean };
            pages.push(landed(PPL + lo + i % n));
        }
        if dst_stray.0 {
            // Stays inside the leaf the range lands in only when the
            // shift is congruent; otherwise the case is per-page anyway.
            case.dst_dirty.push(landed(outside(dst_stray.1)));
        }
        let lone = !src_stray.0 && !dst_stray.0 && shift % PPL == 0;
        case.shared = u64::from(lone && mapped >= det_memory::SUBLEAF_SHARE_MIN_PAGES as u64);
        check_copy(&case)?;
    }
}
