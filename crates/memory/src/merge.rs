//! Three-way, byte-granularity merge with conflict detection — the
//! kernel's `Merge` option on `Get` (§3.2).
//!
//! The engine is optimized over the naive formulation (which survives
//! as [`crate::reference::merge_from_reference`], the
//! differential-testing oracle) so that its work is proportional to
//! what was *touched*, and to what was touched on *both* sides:
//!
//! * **Dirty write-set**: instead of walking every mapped page in the
//!   merge region, pass 1 visits only the child's dirty VPNs — pages
//!   the child actually touched since its snapshot (see
//!   [`AddressSpace::snapshot`] for the invariant). Clean pages are
//!   never examined at all and are counted in
//!   [`MergeStats::pages_skipped_clean`].
//! * **Leaf-granular subtree skipping**: when child and snapshot still
//!   hold the same structurally-shared page-table leaf
//!   ([`crate::PAGES_PER_LEAF`] pages), every candidate inside it is
//!   unchanged by construction — one `Arc` pointer compare covers the
//!   whole 512-page block (DESIGN.md §5).
//! * **Page adoption**: a page only the child wrote — the parent's
//!   frame is still the snapshot's frame — is joined by remapping: the
//!   parent takes the child's frame with one `Arc` clone, no byte is
//!   compared or copied ([`MergeStats::pages_adopted`], DESIGN.md §3
//!   "The adoption rule").
//! * **Word-parallel diffing**: the pages both sides wrote are diffed
//!   8 bytes per step on `u64` lanes — per-byte difference masks,
//!   conflict masks and the masked apply are all computed on whole
//!   words, never in a per-byte loop. `words_compared` counts chunk
//!   compares; `bytes_compared` counts the bytes the byte-at-a-time
//!   formulation would have examined inside mismatching words (all 8,
//!   or up to and including the byte that ends the scan), so the
//!   counters — and the virtual time charged for them — are those of
//!   the byte loop the kernels replaced.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::page::{PAGE_SIZE, zero_frame};
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
    /// the child's exact frame — it took the frame at an earlier join
    /// of this same child (`pages_adopted` or `pages_mapped`) and
    /// neither side has written the page since; only possible under
    /// non-strict policies.
    pub pages_aliased: u64,
    /// Examined pages joined by remapping: the parent's frame was
    /// still the snapshot's frame (the parent has not written the page
    /// since the fork), so the merged page *is* the child's page and
    /// the parent took the child's frame — no compare, no copy.
    pub pages_adopted: u64,
    /// Pages that required a word/byte-level diff.
    pub pages_diffed: u64,
    /// 8-byte chunk comparisons performed during diffing and apply.
    pub words_compared: u64,
    /// Byte comparisons performed inside mismatching words.
    pub bytes_compared: u64,
    /// Bytes copied into the parent by the diff path, plus a full page
    /// for every page the child created (`pages_mapped`). An adopted
    /// page (`pages_adopted`) copies nothing.
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
        self.pages_adopted += other.pages_adopted;
        self.pages_diffed += other.pages_diffed;
        self.words_compared += other.words_compared;
        self.bytes_compared += other.bytes_compared;
        self.bytes_copied += other.bytes_copied;
        self.pages_mapped += other.pages_mapped;
    }
}

/// The low seven bits of every byte lane.
const LO7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
/// The top bit of every byte lane.
const HI: u64 = 0x8080_8080_8080_8080;

/// `0x80` in every byte lane of `x` that is nonzero, `0` elsewhere.
/// Adding `0x7f` to a lane's low seven bits carries into its top bit
/// iff any of them is set (and never out of the lane); or-ing `x` back
/// in catches a lane whose only set bit is the top one.
#[inline]
fn nz(x: u64) -> u64 {
    (((x & LO7) + LO7) | x) & HI
}

/// Loads one diff chunk. Little-endian, so byte `k` of the chunk is
/// lane `k` and `trailing_zeros() / 8` of a lane mask is the lowest
/// address it marks.
#[inline]
fn lanes(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("chunk of 8"))
}

/// What pass 1 learned about one both-wrote page.
struct PageScan {
    /// Some child byte differs from the snapshot.
    dirty: bool,
    /// Page offset of the lowest conflicting byte.
    conflict: Option<usize>,
}

/// Pass-1 kernel: diffs `child` against `base` a word at a time and
/// looks for a byte changed on both sides. `parent` is the parent's
/// page, or `base` again when the parent maps none (nothing can
/// conflict). The scan ends at the first conflicting byte — under
/// `ChildWins` at the first changed byte, pass 2 re-diffs — and the
/// counters stop there too, exactly where a byte-at-a-time scan would.
fn scan_page(
    child: &[u8; PAGE_SIZE],
    base: &[u8; PAGE_SIZE],
    parent: &[u8; PAGE_SIZE],
    policy: ConflictPolicy,
    stats: &mut MergeStats,
) -> PageScan {
    let mut scan = PageScan {
        dirty: false,
        conflict: None,
    };
    let mut words = 0u64;
    let mut bytes = 0u64;
    let chunks = child
        .chunks_exact(CHUNK)
        .zip(base.chunks_exact(CHUNK))
        .zip(parent.chunks_exact(CHUNK));
    for ((cw, bw), pw) in chunks {
        words += 1;
        let (c, b) = (lanes(cw), lanes(bw));
        if c == b {
            continue;
        }
        scan.dirty = true;
        let changed = nz(c ^ b);
        let stop = match policy {
            ConflictPolicy::ChildWins => changed,
            ConflictPolicy::Strict => changed & nz(lanes(pw) ^ b),
            ConflictPolicy::BenignSameValue => {
                let p = lanes(pw);
                changed & nz(p ^ b) & nz(p ^ c)
            }
        };
        if stop == 0 {
            bytes += CHUNK as u64;
            continue;
        }
        let k = (stop.trailing_zeros() / 8) as usize;
        bytes += k as u64 + 1;
        if policy != ConflictPolicy::ChildWins {
            scan.conflict = Some((words as usize - 1) * CHUNK + k);
        }
        break;
    }
    stats.words_compared += words;
    stats.bytes_compared += bytes;
    scan
}

/// Pass-2 kernel: writes every child byte that differs from `base`
/// over `dst`, a word at a time (`(p & !m) | (c & m)` with `m` the
/// changed lanes widened to whole bytes).
fn apply_page(
    dst: &mut [u8; PAGE_SIZE],
    child: &[u8; PAGE_SIZE],
    base: &[u8; PAGE_SIZE],
    stats: &mut MergeStats,
) {
    let mut mismatched = 0u64;
    let mut copied = 0u64;
    let chunks = dst
        .chunks_exact_mut(CHUNK)
        .zip(child.chunks_exact(CHUNK))
        .zip(base.chunks_exact(CHUNK));
    for ((dw, cw), bw) in chunks {
        let (c, b) = (lanes(cw), lanes(bw));
        if c == b {
            continue;
        }
        let changed = nz(c ^ b);
        let m = (changed >> 7) * 0xff;
        dw.copy_from_slice(&((lanes(dw) & !m) | (c & m)).to_le_bytes());
        mismatched += 1;
        copied += u64::from(changed.count_ones());
    }
    stats.words_compared += (PAGE_SIZE / CHUNK) as u64;
    stats.bytes_compared += mismatched * CHUNK as u64;
    stats.bytes_copied += copied;
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
    /// snapshot frame are skipped without touching their bytes, and
    /// pages whose *parent* frame is pointer-identical to the snapshot
    /// frame (only the child wrote them) are joined by giving the
    /// parent the child's frame — `p == base` on every byte, so the
    /// rule above yields the child's page whatever the policy. Only
    /// pages both sides wrote are diffed. Pages present in the child
    /// but absent from both snapshot and parent are mapped into the
    /// parent (the child extended the shared region). Pages the merge
    /// does not mention are left untouched in the parent.
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
    /// modifying anything (a read-only page is never adopted: it is
    /// diffed, and fails only if some child byte really differs). A
    /// page whose parent frame *is* the child frame (taken at an
    /// earlier join) is already merged: under non-strict policies it
    /// receives no writes and therefore needs no write permission.
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

        // Pass 1: classify the child's dirty pages and diff the ones
        // both sides wrote against the snapshot, detecting conflicts
        // and permission violations without mutating the parent.
        // `apply` collects, in ascending order, the pages pass 2 acts on.
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
            if policy != ConflictPolicy::Strict
                && parent.is_some_and(|(pf, _)| Arc::ptr_eq(pf, child_frame))
            {
                // The parent already holds exactly the child's frame —
                // it took it at an earlier join of this child. Every
                // parent byte equals the child byte, so BenignSameValue
                // and ChildWins cannot conflict and the page receives
                // no writes: skip in O(1) with no bytes examined and no
                // write permission required. This is a semantic rule,
                // not just a shortcut — the reference oracle applies
                // the same page-level test. (Strict still scans: a
                // double-write of the same value is a conflict there.)
                stats.pages_aliased += 1;
                continue;
            }
            if parent
                .zip(snap_frame)
                .is_some_and(|((pf, pperm), sf)| Arc::ptr_eq(pf, sf) && pperm.allows(Perm::W))
            {
                // Only the child wrote this page: the parent still
                // holds the snapshot's frame, so no byte can conflict
                // and the merged page is the child's. Pass 2 remaps it;
                // nothing to diff. (A read-only parent page takes the
                // diff path below, which fails iff bytes would
                // actually land.)
                apply.push(vpn);
                continue;
            }
            stats.pages_diffed += 1;
            let base_bytes = snap_frame.unwrap_or(&zero).bytes();
            // A parent page that *is* the child's frame (Strict only
            // here) reads as the child's bytes, as it must.
            let parent_bytes = parent.map_or(base_bytes, |(f, _)| f.bytes());
            let scan = scan_page(
                child_frame.bytes(),
                base_bytes,
                parent_bytes,
                policy,
                &mut stats,
            );
            if let Some(off) = scan.conflict {
                let conflict = MergeConflict {
                    addr: (vpn << crate::PAGE_SHIFT) + off as u64,
                    base: base_bytes[off],
                    child: child_frame.bytes()[off],
                    parent: parent_bytes[off],
                };
                return Ok((stats, Some(conflict)));
            }
            if scan.dirty {
                // Validate-before-write: a page about to receive bytes
                // must be writable in the parent (absent pages are
                // mapped; aliased pages cannot reach here — non-strict
                // skipped them above, and under Strict a dirty aliased
                // page already returned a conflict).
                if parent.is_some_and(|(_, p)| !p.allows(Perm::W)) {
                    return Err(MemError::PermDenied {
                        addr: vpn << crate::PAGE_SHIFT,
                        need: Perm::W,
                    });
                }
                apply.push(vpn);
            }
        }

        // Pass 2: nothing can fail any more. Map what the child
        // created, remap what only the child wrote, and copy the
        // child's changed bytes into the pages both sides wrote.
        for vpn in apply {
            let (child_frame, child_perm) = child.entry_frame(vpn).expect("still mapped");
            let snap_frame = snap.entry_frame(vpn).map(|(f, _)| f);
            // The parent's permissions, and whether it still holds the
            // snapshot's frame — pass 1 queued such a page undiffed.
            let parent = self
                .entry_frame(vpn)
                .map(|(pf, perm)| (perm, snap_frame.is_some_and(|sf| Arc::ptr_eq(pf, sf))));
            match parent {
                None => {
                    // The child created this page: map its frame
                    // (copy-on-write share).
                    stats.pages_mapped += 1;
                    stats.bytes_copied += PAGE_SIZE as u64;
                    self.install_frame(vpn, child_frame.clone(), child_perm.union(Perm::RW));
                }
                Some((perm, true)) => {
                    // The adoption rule: one `Arc` clone, the parent's
                    // permissions kept.
                    stats.pages_adopted += 1;
                    self.install_frame(vpn, child_frame.clone(), perm);
                }
                Some((_, false)) => {
                    let dst = self.frame_mut(vpn).expect("mapped above").bytes_mut();
                    let base_bytes = snap_frame.unwrap_or(&zero).bytes();
                    apply_page(dst, child_frame.bytes(), base_bytes, &mut stats);
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

    /// Rewrites every page of `r` with its own bytes: the contents
    /// stay, the frames become private to `s` — what any parent write
    /// to the page does, and what sends a page down the diff path.
    fn touch(s: &mut AddressSpace, r: Region) {
        for addr in (r.start..r.end).step_by(PAGE_SIZE) {
            let page = s.read_vec(addr, PAGE_SIZE).unwrap();
            s.write(addr, &page).unwrap();
        }
    }

    const POLICIES: [ConflictPolicy; 3] = [
        ConflictPolicy::Strict,
        ConflictPolicy::BenignSameValue,
        ConflictPolicy::ChildWins,
    ];

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
        // Only the child's one dirty page is even examined; the other
        // three mapped pages are skipped via the dirty set. The parent
        // never wrote that page, so it is remapped, not diffed.
        assert_eq!(stats.pages_scanned, 1);
        assert_eq!(stats.pages_skipped_clean, 3);
        assert_eq!(stats.pages_adopted, 1);
        assert_eq!(stats.pages_diffed, 0);
        assert_eq!(stats.bytes_copied, 0);
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
        touch(&mut parent, R);
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

    // -----------------------------------------------------------------
    // The adoption rule.
    // -----------------------------------------------------------------

    #[test]
    fn page_only_the_child_wrote_is_adopted() {
        for policy in POLICIES {
            let (mut parent, mut child, snap) = setup();
            child.write(0x2000, b"from-child").unwrap();
            parent.clear_dirty();
            let stats = parent.merge_from(&child, &snap, R, policy).unwrap();
            assert!(parent.same_frame(&child, 2), "{policy:?}");
            assert_eq!(stats.pages_adopted, 1);
            assert_eq!(stats.pages_diffed, 0);
            assert_eq!(stats.words_compared, 0);
            assert_eq!(stats.bytes_copied, 0);
            assert_eq!(stats.pages_mapped, 0);
            assert_eq!(parent.read_vec(0x2000, 10).unwrap(), b"from-child");
            // The parent's own permissions stand, and the page is in
            // its write-set like any page a merge wrote.
            assert_eq!(parent.perm_at(0x2000), Some(Perm::RW));
            assert_eq!(parent.dirty_vpns_in(R), vec![2]);
        }
    }

    #[test]
    fn page_the_parent_also_wrote_is_diffed() {
        let (mut parent, mut child, snap) = setup();
        child.write(0x2000, b"from-child").unwrap();
        parent.write_u8(0x2fff, 1).unwrap(); // One byte, far away.
        let stats = parent
            .merge_from(&child, &snap, R, ConflictPolicy::Strict)
            .unwrap();
        assert!(!parent.same_frame(&child, 2));
        assert_eq!((stats.pages_adopted, stats.pages_diffed), (0, 1));
        assert_eq!(stats.bytes_copied, 10);
        assert_eq!(parent.read_vec(0x2000, 10).unwrap(), b"from-child");
        assert_eq!(parent.read_u8(0x2fff).unwrap(), 1);
    }

    #[test]
    fn read_only_parent_page_is_never_adopted() {
        let ro = Region::new(0x2000, 0x3000);
        // Bytes would land: PermDenied, as before, nothing written.
        let (mut parent, mut child, snap) = setup();
        parent.set_perm(ro, Perm::R).unwrap();
        child.write_u8(0x2004, 9).unwrap();
        let before = parent.content_digest();
        assert_eq!(
            parent.merge_from(&child, &snap, R, ConflictPolicy::Strict),
            Err(MemError::PermDenied {
                addr: 0x2000,
                need: Perm::W
            })
        );
        assert_eq!(parent.content_digest(), before);
        // A reverted write lands nothing: still Ok, still not adopted.
        child.write_u8(0x2004, 0).unwrap();
        let stats = parent
            .merge_from(&child, &snap, R, ConflictPolicy::Strict)
            .unwrap();
        assert_eq!((stats.pages_adopted, stats.pages_diffed), (0, 1));
        assert_eq!(stats.bytes_copied, 0);
        assert!(parent.same_frame(&snap, 2));
        assert_eq!(parent.content_digest(), before);
    }

    #[test]
    fn child_write_after_adoption_stays_private() {
        let (mut parent, mut child, snap) = setup();
        child.write_u64(0x2000, 1).unwrap();
        parent
            .merge_from(&child, &snap, R, ConflictPolicy::Strict)
            .unwrap();
        assert!(parent.same_frame(&child, 2));
        child.write_u64(0x2000, 2).unwrap();
        assert_eq!(parent.read_u64(0x2000).unwrap(), 1);
        assert!(!parent.same_frame(&child, 2));
        // And the other way round.
        parent.write_u64(0x2008, 3).unwrap();
        assert_eq!(child.read_u64(0x2008).unwrap(), 0);
    }

    #[test]
    fn conflict_on_a_later_page_adopts_nothing() {
        let (mut parent, mut child, snap) = setup();
        child.write_u8(0x1000, 7).unwrap(); // Adoptable.
        child.write_u8(0x4004, 1).unwrap();
        parent.write_u8(0x4004, 2).unwrap(); // Conflicts.
        let before = parent.content_digest();
        let (stats, conflict) = parent
            .try_merge_from(&child, &snap, R, ConflictPolicy::Strict)
            .unwrap();
        assert_eq!(conflict.expect("conflict").addr, 0x4004);
        assert_eq!(stats.pages_adopted, 0);
        assert!(parent.same_frame(&snap, 1));
        assert_eq!(parent.content_digest(), before);
    }

    // -----------------------------------------------------------------
    // The word-parallel kernels, against the byte-at-a-time oracle.
    // -----------------------------------------------------------------

    #[test]
    fn nonzero_lane_mask() {
        assert_eq!(nz(0), 0);
        assert_eq!(nz(u64::MAX), HI);
        for k in 0..8 {
            for v in [0x01u64, 0x7f, 0x80, 0xff] {
                assert_eq!(nz(v << (8 * k)), 0x80 << (8 * k), "lane {k} value {v:#x}");
            }
        }
        assert_eq!(nz(0x0100_0000_8000_00ff), 0x8000_0000_8000_0080);
    }

    #[test]
    fn conflict_at_each_byte_of_a_word_matches_the_oracle() {
        const W: u64 = 0x2040;
        for k in 0..8u64 {
            for policy in POLICIES {
                let (mut parent, mut child, snap) = setup();
                child.write_u8(W + k, 0xC0).unwrap();
                parent.write_u8(W + k, 0x0A).unwrap();
                let mut p_ref = parent.clone();
                let (ref_stats, ref_conflict) =
                    crate::reference::merge_from_reference(&mut p_ref, &child, &snap, R, policy)
                        .unwrap();
                let (stats, conflict) = parent.try_merge_from(&child, &snap, R, policy).unwrap();
                assert_eq!(conflict, ref_conflict, "byte {k} {policy:?}");
                assert_eq!(parent.content_digest(), p_ref.content_digest());
                // The word holding the byte is the page's 9th.
                if policy == ConflictPolicy::ChildWins {
                    assert!(conflict.is_none());
                    assert_eq!(parent.read_u8(W + k).unwrap(), 0xC0);
                    // Pass 1 stops at the first changed byte; pass 2
                    // walks the whole page and the one mismatching word.
                    assert_eq!(stats.words_compared, 9 + 512);
                    assert_eq!(stats.bytes_compared, (k + 1) + 8);
                    assert_eq!(stats.bytes_copied, ref_stats.bytes_copied);
                } else {
                    assert_eq!(
                        conflict,
                        Some(MergeConflict {
                            addr: W + k,
                            base: 0,
                            child: 0xC0,
                            parent: 0x0A
                        })
                    );
                    assert_eq!(stats.words_compared, 9);
                    assert_eq!(stats.bytes_compared, k + 1);
                }
            }
            // The same value on both sides: benign under
            // BenignSameValue only, and then the word is fully compared
            // by both passes.
            let (mut parent, mut child, snap) = setup();
            child.write_u8(W + k, 0xC0).unwrap();
            parent.write_u8(W + k, 0xC0).unwrap();
            let stats = parent
                .merge_from(&child, &snap, R, ConflictPolicy::BenignSameValue)
                .unwrap();
            assert_eq!((stats.bytes_compared, stats.bytes_copied), (16, 1));
            assert_eq!(
                parent.merge_from(&child, &snap, R, ConflictPolicy::Strict),
                Err(MemError::Conflict { addr: W + k })
            );
        }
    }

    /// Page `k` of the golden inputs: every byte distinct from its
    /// neighbours and from `!byte`.
    fn golden_page(k: u64) -> Vec<u8> {
        (0..PAGE_SIZE as u64)
            .map(|i| ((i * 31 + k * 17) % 251) as u8)
            .collect()
    }

    #[test]
    fn diff_counters_are_the_byte_loops() {
        // Three both-wrote inputs whose full `MergeStats` were recorded
        // from the per-byte loops this engine had before the
        // word-parallel kernels (commit 5d59a51). The kernels must
        // reproduce every counter: virtual time is charged from them.
        let fork = || {
            let mut parent = AddressSpace::new();
            parent.map_zero(R, Perm::RW).unwrap();
            for k in 0..4 {
                parent.write(0x1000 + k * 0x1000, &golden_page(k)).unwrap();
            }
            let mut child = AddressSpace::new();
            child.copy_from(&parent, R, R.start).unwrap();
            let snap = child.snapshot();
            touch(&mut parent, R);
            (parent, child, snap)
        };
        let sparse = || {
            let (mut parent, mut child, snap) = fork();
            child.write_u8(0x1005, 0xA1).unwrap();
            child.write_u8(0x13e8, 0xA2).unwrap();
            child.write_u8(0x1fff, 0xA3).unwrap();
            child.write_u64(0x2008, 0x1122_3344_5566_7788).unwrap();
            parent.write_u8(0x1800, 0x5A).unwrap();
            parent.write_u8(0x2800, 0x5B).unwrap();
            (parent, child, snap)
        };
        let unaligned = || {
            let (mut parent, mut child, snap) = fork();
            let data: Vec<u8> = (1..=100).collect();
            child.write(0x1ffd, &data).unwrap();
            child.write_u8(0x3007, 0xEE).unwrap();
            child.write(0x3ff9, &[0xC3; 13]).unwrap();
            parent.write(0x2100, b"par").unwrap();
            (parent, child, snap)
        };
        let rewritten = || {
            let (parent, mut child, snap) = fork();
            for k in 0..2 {
                let inv: Vec<u8> = golden_page(k).iter().map(|b| !b).collect();
                child.write(0x1000 + k * 0x1000, &inv).unwrap();
            }
            (parent, child, snap)
        };
        // (scanned, skipped_clean, diffed, words, bytes compared, copied)
        type Row = (u64, u64, u64, u64, u64, u64);
        let check = |name: &str,
                     input: &dyn Fn() -> (AddressSpace, AddressSpace, AddressSpace),
                     both: Row,
                     child_wins: Row| {
            for policy in POLICIES {
                let (mut parent, child, snap) = input();
                let stats = parent.merge_from(&child, &snap, R, policy).unwrap();
                let row = if policy == ConflictPolicy::ChildWins {
                    child_wins
                } else {
                    both
                };
                let want = MergeStats {
                    pages_scanned: row.0,
                    pages_skipped_clean: row.1,
                    pages_diffed: row.2,
                    words_compared: row.3,
                    bytes_compared: row.4,
                    bytes_copied: row.5,
                    ..Default::default()
                };
                assert_eq!(stats, want, "{name} under {policy:?}");
            }
        };
        check(
            "sparse",
            &sparse,
            (2, 2, 2, 2048, 64, 11),
            (2, 2, 2, 1027, 39, 11),
        );
        check(
            "unaligned",
            &unaligned,
            (4, 0, 4, 4096, 272, 114),
            (4, 0, 4, 2563, 152, 114),
        );
        check(
            "rewritten",
            &rewritten,
            (2, 2, 2, 2048, 16384, 8192),
            (2, 2, 2, 1026, 8194, 8192),
        );
    }
}
