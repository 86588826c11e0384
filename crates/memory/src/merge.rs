//! Three-way, byte-granularity merge with conflict detection — the
//! kernel's `Merge` option on `Get` (§3.2).
//!
//! The engine is optimized two ways over the naive formulation (which
//! survives as [`crate::reference::merge_from_reference`], the
//! differential-testing oracle):
//!
//! * **Dirty write-set**: instead of walking every mapped page in the
//!   merge region, pass 1 visits only the child's dirty VPNs — pages
//!   the child actually touched since its snapshot (see
//!   [`AddressSpace::snapshot`] for the invariant). Clean pages are
//!   never examined at all and are counted in
//!   [`MergeStats::pages_skipped_clean`].
//! * **Word-chunked diffing**: both conflict detection and apply
//!   compare 8 bytes per step via `u64::from_ne_bytes`, descending to
//!   byte granularity only inside a mismatching word. `words_compared`
//!   counts chunk compares; `bytes_compared` counts only the bytes
//!   examined individually — together they are the work actually done.
//! * **Leaf-granular subtree skipping**: when child and snapshot still
//!   hold the same structurally-shared page-table leaf
//!   ([`crate::PAGES_PER_LEAF`] pages), every candidate inside it is
//!   unchanged by construction — one `Arc` pointer compare covers the
//!   whole 512-page block (DESIGN.md §5).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::page::{Frame, PAGE_SIZE, zero_frame};
use crate::{AddressSpace, MemError, Perm, Region, Result};

/// Bytes per diff chunk: one `u64` comparison.
pub(crate) const CHUNK: usize = 8;

/// How the merge treats a byte changed on *both* sides since the
/// snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum ConflictPolicy {
    /// The paper's semantics: any byte changed in both the child and
    /// the parent since the snapshot is a conflict, even if both sides
    /// wrote the same value. Conflicts are programming errors, like
    /// divide-by-zero.
    #[default]
    Strict,
    /// A relaxed ablation: both sides writing the *same* value is
    /// benign; only divergent double-writes conflict.
    BenignSameValue,
    /// No conflicts: the child's changed bytes always overwrite the
    /// parent's. This is *not* the private-workspace model — it is the
    /// last-writer-wins semantics the deterministic scheduler (§4.5)
    /// uses to emulate a conventional memory model, where races
    /// resolve arbitrarily-but-repeatably instead of being reported.
    ChildWins,
}

/// Detailed description of a detected write/write conflict.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MergeConflict {
    /// Lowest conflicting virtual address.
    pub addr: u64,
    /// Value of the byte in the reference snapshot.
    pub base: u8,
    /// Value the child wrote.
    pub child: u8,
    /// Value the parent wrote.
    pub parent: u8,
}

/// Operation counts from a merge, consumed by the kernel's cost model.
///
/// All counters report work *actually performed*: a page skipped via
/// the dirty set or frame identity contributes nothing to the compare
/// and copy counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct MergeStats {
    /// Candidate pages examined (dirty pages mapped in the region).
    pub pages_scanned: u64,
    /// Mapped pages in the region skipped without examination because
    /// they were not in the child's dirty write-set.
    pub pages_skipped_clean: u64,
    /// Examined pages skipped in O(1) because child and snapshot share
    /// the frame (or a fresh zero page matches a missing snapshot page).
    pub pages_unchanged: u64,
    /// Candidate pages skipped because child and snapshot still share
    /// the whole structurally-shared page-table leaf — one pointer
    /// compare per [`crate::PAGES_PER_LEAF`]-page block, so these are
    /// free in the cost model (no per-page scan charge), unlike
    /// `pages_unchanged`, whose frame-identity test is per-page work.
    pub pages_skipped_shared: u64,
    /// Examined pages skipped in O(1) because the parent already holds
    /// the child's exact frame (self-merge of a previously adopted
    /// page); only possible under non-strict policies.
    pub pages_aliased: u64,
    /// Pages that required a word/byte-level diff.
    pub pages_diffed: u64,
    /// 8-byte chunk comparisons performed during diffing and apply.
    pub words_compared: u64,
    /// Byte comparisons performed inside mismatching words.
    pub bytes_compared: u64,
    /// Bytes copied into the parent (a wholesale page adoption counts
    /// as a full page).
    pub bytes_copied: u64,
    /// Pages newly mapped into the parent by the merge.
    pub pages_mapped: u64,
}

impl MergeStats {
    /// Accumulates another stats record into `self`.
    pub fn accumulate(&mut self, other: &MergeStats) {
        self.pages_scanned += other.pages_scanned;
        self.pages_skipped_clean += other.pages_skipped_clean;
        self.pages_unchanged += other.pages_unchanged;
        self.pages_skipped_shared += other.pages_skipped_shared;
        self.pages_aliased += other.pages_aliased;
        self.pages_diffed += other.pages_diffed;
        self.words_compared += other.words_compared;
        self.bytes_compared += other.bytes_compared;
        self.bytes_copied += other.bytes_copied;
        self.pages_mapped += other.pages_mapped;
    }
}

/// Reads the `u64` chunk at byte offset `w` of a page, or 0 for an
/// absent (all-zero) base page.
#[inline]
fn word_at(bytes: Option<&[u8; PAGE_SIZE]>, w: usize) -> u64 {
    match bytes {
        Some(b) => u64::from_ne_bytes(b[w..w + CHUNK].try_into().expect("chunk of 8")),
        None => 0,
    }
}

impl AddressSpace {
    /// Merges the child's changes since `snap` into `self` over the
    /// page-aligned `region`.
    ///
    /// For every byte in the region, with `base` the snapshot value,
    /// `c` the child's current value and `p` the parent's (self's)
    /// current value:
    ///
    /// * `c == base`: the child did not touch the byte — the parent's
    ///   value stands (the child never sees a torn mix, §2.2);
    /// * `c != base && p == base`: the child's write propagates;
    /// * `c != base && p != base`: a write/write conflict, reported as
    ///   [`MemError::Conflict`] (under
    ///   [`ConflictPolicy::BenignSameValue`], `c == p` is allowed).
    ///
    /// Only pages in the child's dirty write-set are examined; within
    /// them, pages whose child frame is pointer-identical to the
    /// snapshot frame are skipped without touching their bytes. Pages
    /// present in the child but absent from both snapshot and parent
    /// are mapped into the parent (the child extended the shared
    /// region). Pages the merge does not mention are left untouched in
    /// the parent.
    ///
    /// **Dirty-set precondition**: `snap` must be a snapshot of `child`
    /// taken (and left unmodified) at or after the child's most recent
    /// [`snapshot`](AddressSpace::snapshot) call, which is when the
    /// write-set was last cleared. The kernel's `Snap` option satisfies
    /// this by construction. See DESIGN.md §3.
    ///
    /// On conflict the parent is left unmodified (the merge validates
    /// before it writes), so a failed join can be reported and
    /// re-examined — the kernel treats it as a child exception. The
    /// same validate-before-write rule applies to permissions: if any
    /// page that would receive bytes is mapped read-only in the
    /// parent, the merge fails with [`MemError::PermDenied`] without
    /// modifying anything. A page whose parent frame *is* the child
    /// frame (adopted at an earlier join) is already merged: under
    /// non-strict policies it receives no writes and therefore needs
    /// no write permission.
    pub fn merge_from(
        &mut self,
        child: &AddressSpace,
        snap: &AddressSpace,
        region: Region,
        policy: ConflictPolicy,
    ) -> Result<MergeStats> {
        match self.try_merge_from(child, snap, region, policy) {
            Ok((stats, None)) => Ok(stats),
            Ok((_, Some(conflict))) => Err(MemError::Conflict {
                addr: conflict.addr,
            }),
            Err(e) => Err(e),
        }
    }

    /// Like [`merge_from`](AddressSpace::merge_from) but returns the
    /// full [`MergeConflict`] detail instead of collapsing it into an
    /// error, and never applies a conflicting merge.
    ///
    /// On a conflict the scan stops at the lowest conflicting address
    /// (pages and bytes are visited in ascending order), so the stats
    /// reflect only the work done up to detection.
    pub fn try_merge_from(
        &mut self,
        child: &AddressSpace,
        snap: &AddressSpace,
        region: Region,
        policy: ConflictPolicy,
    ) -> Result<(MergeStats, Option<MergeConflict>)> {
        region.check_page_aligned()?;
        let mut stats = MergeStats::default();
        let zero = zero_frame();
        let mapped_in_region = child.mapped_pages_in(region);

        // Candidate set: dirty pages still mapped in the region
        // (dirtied-then-unmapped pages are not propagated — documented
        // limitation; the runtime never unmaps inside shared regions).
        // `pages_skipped_clean` is exact on every exit path, including
        // an early conflict return.
        let mut candidates = child.dirty_vpns_in(region);
        candidates.retain(|&vpn| child.entry_frame(vpn).is_some());
        stats.pages_skipped_clean = mapped_in_region.saturating_sub(candidates.len() as u64);

        // Pass 1: diff the child's dirty pages against the snapshot,
        // detecting conflicts and permission violations without
        // mutating the parent.
        let mut apply: Vec<u64> = Vec::new();
        // Leaf-granular unchanged-subtree skip: one pointer compare per
        // 512-page leaf transition. A structurally-shared leaf means
        // every page it covers is frame-identical to the snapshot, so
        // candidates inside it are unchanged without touching their
        // entries (DESIGN.md §5 — this compounds the §3 dirty-set skip
        // whenever the dirty marks over-approximate, e.g. after a
        // wholesale virtual copy).
        let leaf_shift = crate::PAGES_PER_LEAF.trailing_zeros();
        let mut cur_leaf: Option<(u64, bool)> = None;
        for vpn in candidates {
            let leaf = vpn >> leaf_shift;
            let leaf_shared = match cur_leaf {
                Some((l, shared)) if l == leaf => shared,
                _ => {
                    let shared = child.shares_leaf_with(snap, vpn);
                    cur_leaf = Some((leaf, shared));
                    shared
                }
            };
            if leaf_shared {
                // Free in the cost model: the work here is one pointer
                // compare per leaf transition, not per page — counting
                // these as scanned would charge page_scan_ps for work
                // the structural sharing eliminated.
                stats.pages_skipped_shared += 1;
                continue;
            }
            let (child_frame, _) = child.entry_frame(vpn).expect("retained mapped");
            stats.pages_scanned += 1;
            let snap_frame = snap.entry_frame(vpn).map(|(f, _)| f);
            // O(1) unchanged test via frame identity. A newly mapped
            // page still aliasing the shared zero frame against a
            // missing snapshot page is unchanged too (both read as
            // zeroes).
            match snap_frame {
                Some(sf) if Arc::ptr_eq(child_frame, sf) => {
                    stats.pages_unchanged += 1;
                    continue;
                }
                None if Arc::ptr_eq(child_frame, &zero) => {
                    stats.pages_unchanged += 1;
                    continue;
                }
                _ => {}
            }
            let parent = self.entry_frame(vpn);
            let parent_alias = parent.is_some_and(|(pf, _)| Arc::ptr_eq(pf, child_frame));
            if parent_alias && policy != ConflictPolicy::Strict {
                // The parent already holds exactly the child's frame —
                // a page it adopted at an earlier join. Every parent
                // byte equals the child byte, so BenignSameValue and
                // ChildWins cannot conflict and the page receives no
                // writes: skip in O(1) with no bytes examined and no
                // write permission required. This is a semantic rule,
                // not just a shortcut — the reference oracle applies
                // the same page-level test. (Strict still scans: a
                // double-write of the same value is a conflict there.)
                stats.pages_aliased += 1;
                continue;
            }
            stats.pages_diffed += 1;
            let child_bytes = child_frame.bytes();
            let base_bytes = snap_frame.map(|f| f.bytes());
            let parent_bytes = parent.map(|(f, _)| f.bytes());
            let parent_perm = parent.map(|(_, p)| p);
            let mut page_dirty = false;
            let mut conflict: Option<MergeConflict> = None;
            'page: for w in (0..PAGE_SIZE).step_by(CHUNK) {
                stats.words_compared += 1;
                if word_at(Some(child_bytes), w) == word_at(base_bytes, w) {
                    continue;
                }
                for i in w..w + CHUNK {
                    stats.bytes_compared += 1;
                    let base = base_bytes.map_or(0, |b| b[i]);
                    let c = child_bytes[i];
                    if c == base {
                        continue;
                    }
                    page_dirty = true;
                    if policy == ConflictPolicy::ChildWins {
                        // Nothing further to learn from this page:
                        // no conflicts exist, and pass 2 re-diffs.
                        break 'page;
                    }
                    // Aliased + Strict: the parent byte is the child
                    // byte by construction.
                    let p = if parent_alias {
                        c
                    } else {
                        parent_bytes.map_or(base, |b| b[i])
                    };
                    if p != base {
                        let benign = policy == ConflictPolicy::BenignSameValue && p == c;
                        if !benign {
                            conflict = Some(MergeConflict {
                                addr: (vpn << crate::PAGE_SHIFT) + i as u64,
                                base,
                                child: c,
                                parent: p,
                            });
                            break 'page;
                        }
                    }
                }
            }
            if let Some(c) = conflict {
                return Ok((stats, Some(c)));
            }
            if page_dirty {
                // Validate-before-write: a page about to receive bytes
                // must be writable in the parent (absent pages are
                // adopted; aliased pages cannot reach here — non-strict
                // skipped them above, and under Strict a dirty aliased
                // page already returned a conflict).
                if let Some(p) = parent_perm {
                    if !p.allows(Perm::W) {
                        return Err(MemError::PermDenied {
                            addr: vpn << crate::PAGE_SHIFT,
                            need: Perm::W,
                        });
                    }
                }
                apply.push(vpn);
            }
        }

        // Pass 2: apply child bytes that differ from the snapshot.
        for vpn in apply {
            let (child_frame, child_perm) = child.entry_frame(vpn).expect("still mapped");
            let child_frame = child_frame.clone();
            let snap_frame = snap.entry_frame(vpn).map(|(f, _)| f.clone());
            if self.entry_frame(vpn).is_none() {
                // The child created this page: adopt its frame
                // wholesale (copy-on-write share).
                stats.pages_mapped += 1;
                stats.bytes_copied += PAGE_SIZE as u64;
                self.install_frame(vpn, child_frame, child_perm.union(Perm::RW));
                continue;
            }
            let frame = self.frame_mut(vpn).expect("checked above");
            let dst = frame.bytes_mut();
            let child_bytes = child_frame.bytes();
            let base_bytes: Option<&[u8; PAGE_SIZE]> = snap_frame.as_deref().map(Frame::bytes);
            for w in (0..PAGE_SIZE).step_by(CHUNK) {
                stats.words_compared += 1;
                if word_at(Some(child_bytes), w) == word_at(base_bytes, w) {
                    continue;
                }
                for i in w..w + CHUNK {
                    stats.bytes_compared += 1;
                    let base = base_bytes.map_or(0, |b| b[i]);
                    let c = child_bytes[i];
                    if c != base {
                        dst[i] = c;
                        stats.bytes_copied += 1;
                    }
                }
            }
        }
        Ok((stats, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AddressSpace, AddressSpace, AddressSpace) {
        // Parent with a 4-page RW region; child forked from it; snapshot.
        let mut parent = AddressSpace::new();
        parent
            .map_zero(Region::new(0x1000, 0x5000), Perm::RW)
            .unwrap();
        parent.write(0x1000, b"base").unwrap();
        let mut child = AddressSpace::new();
        child
            .copy_from(&parent, Region::new(0x1000, 0x5000), 0x1000)
            .unwrap();
        let snap = child.snapshot();
        (parent, child, snap)
    }

    const R: Region = Region {
        start: 0x1000,
        end: 0x5000,
    };

    #[test]
    fn disjoint_writes_union() {
        let (mut parent, mut child, snap) = setup();
        child.write(0x2000, b"from-child").unwrap();
        parent.write(0x3000, b"from-parent").unwrap();
        let stats = parent
            .merge_from(&child, &snap, R, ConflictPolicy::Strict)
            .unwrap();
        assert_eq!(parent.read_vec(0x2000, 10).unwrap(), b"from-child");
        assert_eq!(parent.read_vec(0x3000, 11).unwrap(), b"from-parent");
        assert_eq!(stats.bytes_copied, 10);
        // Only the child's one dirty page is even examined; the other
        // three mapped pages are skipped via the dirty set.
        assert_eq!(stats.pages_scanned, 1);
        assert_eq!(stats.pages_skipped_clean, 3);
        assert_eq!(stats.pages_diffed, 1);
    }

    #[test]
    fn same_page_disjoint_bytes_union() {
        let (mut parent, mut child, snap) = setup();
        child.write_u8(0x2000, 11).unwrap();
        parent.write_u8(0x2001, 22).unwrap();
        parent
            .merge_from(&child, &snap, R, ConflictPolicy::Strict)
            .unwrap();
        assert_eq!(parent.read_u8(0x2000).unwrap(), 11);
        assert_eq!(parent.read_u8(0x2001).unwrap(), 22);
    }

    #[test]
    fn child_untouched_byte_never_overwrites_parent() {
        let (mut parent, mut child, snap) = setup();
        // Child dirties its page (so it is diffed) but not this byte.
        child.write_u8(0x1800, 5).unwrap();
        parent.write(0x1000, b"newp").unwrap();
        parent
            .merge_from(&child, &snap, R, ConflictPolicy::Strict)
            .unwrap();
        assert_eq!(parent.read_vec(0x1000, 4).unwrap(), b"newp");
        assert_eq!(parent.read_u8(0x1800).unwrap(), 5);
    }

    #[test]
    fn strict_conflict_detected_and_parent_untouched() {
        let (mut parent, mut child, snap) = setup();
        child.write_u8(0x2004, 1).unwrap();
        parent.write_u8(0x2004, 2).unwrap();
        child.write_u8(0x4000, 9).unwrap(); // Non-conflicting change.
        let err = parent
            .merge_from(&child, &snap, R, ConflictPolicy::Strict)
            .unwrap_err();
        assert_eq!(err, MemError::Conflict { addr: 0x2004 });
        // Merge validates before writing: nothing propagated.
        assert_eq!(parent.read_u8(0x2004).unwrap(), 2);
        assert_eq!(parent.read_u8(0x4000).unwrap(), 0);
    }

    #[test]
    fn conflict_detail_reported() {
        let (mut parent, mut child, snap) = setup();
        child.write_u8(0x2004, 1).unwrap();
        parent.write_u8(0x2004, 2).unwrap();
        let (_, conflict) = parent
            .try_merge_from(&child, &snap, R, ConflictPolicy::Strict)
            .unwrap();
        let c = conflict.expect("conflict expected");
        assert_eq!(c.addr, 0x2004);
        assert_eq!(c.base, 0);
        assert_eq!(c.child, 1);
        assert_eq!(c.parent, 2);
    }

    #[test]
    fn same_value_conflicts_under_strict_but_not_benign() {
        let (parent, mut child, snap) = setup();
        child.write_u8(0x2004, 7).unwrap();
        let mut p1 = parent.clone();
        p1.write_u8(0x2004, 7).unwrap();
        let mut p2 = p1.clone();
        assert!(matches!(
            p1.merge_from(&child, &snap, R, ConflictPolicy::Strict),
            Err(MemError::Conflict { addr: 0x2004 })
        ));
        p2.merge_from(&child, &snap, R, ConflictPolicy::BenignSameValue)
            .unwrap();
        assert_eq!(p2.read_u8(0x2004).unwrap(), 7);
    }

    #[test]
    fn clean_child_merge_examines_nothing() {
        let (mut parent, child, snap) = setup();
        let stats = parent
            .merge_from(&child, &snap, R, ConflictPolicy::Strict)
            .unwrap();
        // With an empty dirty set the merge does not even look at the
        // child's pages: everything is skipped clean.
        assert_eq!(stats.pages_scanned, 0);
        assert_eq!(stats.pages_skipped_clean, 4);
        assert_eq!(stats.words_compared, 0);
        assert_eq!(stats.bytes_compared, 0);
        assert_eq!(stats.bytes_copied, 0);
    }

    #[test]
    fn child_created_page_adopted() {
        let (mut parent, mut child, _) = setup();
        // Child maps and fills a page the parent and snapshot lack.
        child
            .map_zero(Region::new(0x6000, 0x7000), Perm::RW)
            .unwrap();
        child.write(0x6000, b"grown").unwrap();
        let snap2 = AddressSpace::new(); // Empty snapshot for that range.
        let stats = parent
            .merge_from(
                &child,
                &snap2,
                Region::new(0x6000, 0x7000),
                ConflictPolicy::Strict,
            )
            .unwrap();
        assert_eq!(stats.pages_mapped, 1);
        assert_eq!(parent.read_vec(0x6000, 5).unwrap(), b"grown");
    }

    #[test]
    fn zero_page_mapped_by_child_is_unchanged() {
        let (mut parent, mut child, _) = setup();
        // Child maps fresh pages but never writes them: they still
        // alias the global zero frame and merge as unchanged.
        child
            .map_zero(Region::new(0x6000, 0x8000), Perm::RW)
            .unwrap();
        let snap2 = AddressSpace::new();
        let stats = parent
            .merge_from(
                &child,
                &snap2,
                Region::new(0x6000, 0x8000),
                ConflictPolicy::Strict,
            )
            .unwrap();
        assert_eq!(stats.pages_scanned, 2);
        assert_eq!(stats.pages_unchanged, 2);
        assert_eq!(stats.words_compared, 0);
        assert_eq!(stats.pages_mapped, 0);
    }

    #[test]
    fn merge_respects_region_bounds() {
        let (mut parent, mut child, snap) = setup();
        child.write_u8(0x1000, 1).unwrap();
        child.write_u8(0x4000, 2).unwrap();
        // Merge only the first page.
        parent
            .merge_from(
                &child,
                &snap,
                Region::new(0x1000, 0x2000),
                ConflictPolicy::Strict,
            )
            .unwrap();
        assert_eq!(parent.read_u8(0x1000).unwrap(), 1);
        assert_eq!(parent.read_u8(0x4000).unwrap(), 0);
    }

    #[test]
    fn sequential_merges_of_two_children() {
        // The fork/join pattern: two children fork from the same state,
        // write disjoint slots, parent merges both.
        let mut parent = AddressSpace::new();
        parent
            .map_zero(Region::new(0x1000, 0x2000), Perm::RW)
            .unwrap();
        let fork = |p: &AddressSpace| {
            let mut c = AddressSpace::new();
            c.copy_from(p, Region::new(0x1000, 0x2000), 0x1000).unwrap();
            let s = c.snapshot();
            (c, s)
        };
        let (mut c1, s1) = fork(&parent);
        let (mut c2, s2) = fork(&parent);
        c1.write_u64(0x1000, 111).unwrap();
        c2.write_u64(0x1008, 222).unwrap();
        parent
            .merge_from(
                &c1,
                &s1,
                Region::new(0x1000, 0x2000),
                ConflictPolicy::Strict,
            )
            .unwrap();
        parent
            .merge_from(
                &c2,
                &s2,
                Region::new(0x1000, 0x2000),
                ConflictPolicy::Strict,
            )
            .unwrap();
        assert_eq!(parent.read_u64(0x1000).unwrap(), 111);
        assert_eq!(parent.read_u64(0x1008).unwrap(), 222);
    }

    #[test]
    fn two_children_same_byte_conflict_at_second_join() {
        let mut parent = AddressSpace::new();
        parent
            .map_zero(Region::new(0x1000, 0x2000), Perm::RW)
            .unwrap();
        let fork = |p: &AddressSpace| {
            let mut c = AddressSpace::new();
            c.copy_from(p, Region::new(0x1000, 0x2000), 0x1000).unwrap();
            let s = c.snapshot();
            (c, s)
        };
        let (mut c1, s1) = fork(&parent);
        let (mut c2, s2) = fork(&parent);
        c1.write_u64(0x1000, 111).unwrap();
        c2.write_u64(0x1000, 222).unwrap();
        parent
            .merge_from(
                &c1,
                &s1,
                Region::new(0x1000, 0x2000),
                ConflictPolicy::Strict,
            )
            .unwrap();
        // Second join sees the conflict — exactly the paper's actor
        // array example (§2.2).
        assert!(matches!(
            parent.merge_from(
                &c2,
                &s2,
                Region::new(0x1000, 0x2000),
                ConflictPolicy::Strict
            ),
            Err(MemError::Conflict { addr: 0x1000 })
        ));
    }

    #[test]
    fn swap_example_is_race_free() {
        // The paper's `x = y || y = x` example (§2.2): both children
        // read their private snapshots, so the merge swaps the values.
        let mut parent = AddressSpace::new();
        parent
            .map_zero(Region::new(0x1000, 0x2000), Perm::RW)
            .unwrap();
        let x = 0x1000u64;
        let y = 0x1008u64;
        parent.write_u64(x, 1).unwrap();
        parent.write_u64(y, 2).unwrap();
        let fork = |p: &AddressSpace| {
            let mut c = AddressSpace::new();
            c.copy_from(p, Region::new(0x1000, 0x2000), 0x1000).unwrap();
            let s = c.snapshot();
            (c, s)
        };
        let (mut c1, s1) = fork(&parent);
        let (mut c2, s2) = fork(&parent);
        // Child 1: x = y. Child 2: y = x.
        let v = c1.read_u64(y).unwrap();
        c1.write_u64(x, v).unwrap();
        let v = c2.read_u64(x).unwrap();
        c2.write_u64(y, v).unwrap();
        let r = Region::new(0x1000, 0x2000);
        parent
            .merge_from(&c1, &s1, r, ConflictPolicy::Strict)
            .unwrap();
        parent
            .merge_from(&c2, &s2, r, ConflictPolicy::Strict)
            .unwrap();
        assert_eq!(parent.read_u64(x).unwrap(), 2);
        assert_eq!(parent.read_u64(y).unwrap(), 1);
    }

    #[test]
    fn self_merge_of_adopted_page_is_free() {
        // Merge #1 adopts a child-created page into the parent: parent
        // and child then share the frame. Re-merging the same child
        // under a non-strict policy must recognize the alias in O(1)
        // and charge no compare or copy work (the pre-optimization
        // engine charged a full page of bytes_compared here).
        let (mut parent, mut child, _) = setup();
        child
            .map_zero(Region::new(0x6000, 0x7000), Perm::RW)
            .unwrap();
        child.write(0x6000, b"grown").unwrap();
        let snap2 = AddressSpace::new();
        let r = Region::new(0x6000, 0x7000);
        parent
            .merge_from(&child, &snap2, r, ConflictPolicy::ChildWins)
            .unwrap();
        assert!(parent.same_frame(&child, 6));
        let before = parent.content_digest();
        let stats = parent
            .merge_from(&child, &snap2, r, ConflictPolicy::ChildWins)
            .unwrap();
        assert_eq!(stats.pages_aliased, 1);
        assert_eq!(stats.pages_diffed, 0);
        assert_eq!(stats.words_compared, 0);
        assert_eq!(stats.bytes_compared, 0);
        assert_eq!(stats.bytes_copied, 0);
        assert_eq!(parent.content_digest(), before);
        // The frame is still shared — the self-merge did not force a
        // copy-on-write clone of the parent page.
        assert!(parent.same_frame(&child, 6));
        // BenignSameValue skips the same way (p == c everywhere).
        let stats = parent
            .merge_from(&child, &snap2, r, ConflictPolicy::BenignSameValue)
            .unwrap();
        assert_eq!(stats.pages_aliased, 1);
        assert_eq!(stats.bytes_compared, 0);
        // An aliased page receives no writes, so it needs no write
        // permission — both engines agree (the differential suite's
        // alias rule).
        parent.set_perm(r, Perm::R).unwrap();
        let stats = parent
            .merge_from(&child, &snap2, r, ConflictPolicy::ChildWins)
            .unwrap();
        assert_eq!((stats.pages_aliased, stats.bytes_copied), (1, 0));
        let mut p_ref = parent.clone();
        let (ref_stats, ref_conflict) = crate::reference::merge_from_reference(
            &mut p_ref,
            &child,
            &snap2,
            r,
            ConflictPolicy::ChildWins,
        )
        .unwrap();
        assert!(ref_conflict.is_none());
        assert_eq!((ref_stats.pages_aliased, ref_stats.bytes_copied), (1, 0));
        assert_eq!(p_ref.content_digest(), parent.content_digest());
        parent.set_perm(r, Perm::RW).unwrap();
        // Strict still treats the double-write as a conflict.
        assert!(matches!(
            parent.merge_from(&child, &snap2, r, ConflictPolicy::Strict),
            Err(MemError::Conflict { addr: 0x6000 })
        ));
    }

    #[test]
    fn shared_leaf_candidates_skip_free() {
        // A wholesale leaf-congruent self-copy marks every page dirty
        // (sound over-approximation) while the leaf stays Arc-shared
        // with the snapshot. The merge must skip all 512 candidates
        // via the leaf pointer compare — no scan charge, no byte work.
        let ppl = crate::PAGES_PER_LEAF as u64;
        let r = Region::sized(4 * ppl * 4096, ppl * 4096);
        let mut parent = AddressSpace::new();
        parent.map_zero(r, Perm::RW).unwrap();
        let mut child = AddressSpace::new();
        child.copy_from(&parent, r, r.start).unwrap();
        let snap = child.snapshot();
        let aliased = child.clone();
        child.copy_from(&aliased, r, r.start).unwrap();
        assert_eq!(child.dirty_page_count(), ppl as usize);
        assert!(child.shares_leaf_with(&snap, 4 * ppl));
        let stats = parent
            .merge_from(&child, &snap, r, ConflictPolicy::Strict)
            .unwrap();
        assert_eq!(stats.pages_skipped_shared, ppl);
        assert_eq!(stats.pages_scanned, 0);
        assert_eq!(stats.words_compared, 0);
        assert_eq!(stats.bytes_copied, 0);
    }

    #[test]
    fn merge_into_read_only_parent_page_fails_without_writing() {
        let (mut parent, mut child, snap) = setup();
        child.write_u8(0x2004, 9).unwrap();
        parent
            .set_perm(Region::new(0x2000, 0x3000), Perm::R)
            .unwrap();
        let before = parent.content_digest();
        let err = parent
            .merge_from(&child, &snap, R, ConflictPolicy::Strict)
            .unwrap_err();
        assert_eq!(
            err,
            MemError::PermDenied {
                addr: 0x2000,
                need: Perm::W
            }
        );
        assert_eq!(parent.content_digest(), before);
    }

    #[test]
    fn unaligned_byte_runs_merge_exactly() {
        // Writes that straddle word and page boundaries survive the
        // chunked diff byte-for-byte.
        let (mut parent, mut child, snap) = setup();
        let data: Vec<u8> = (1..=100).collect();
        child.write(0x1ffd, &data).unwrap(); // Spans pages 1 and 2.
        child.write_u8(0x3007, 0xEE).unwrap(); // Last byte of a word.
        let stats = parent
            .merge_from(&child, &snap, R, ConflictPolicy::Strict)
            .unwrap();
        assert_eq!(parent.read_vec(0x1ffd, 100).unwrap(), data);
        assert_eq!(parent.read_u8(0x3007).unwrap(), 0xEE);
        assert_eq!(stats.bytes_copied, 101);
    }
}
