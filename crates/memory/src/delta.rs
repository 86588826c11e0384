//! Address-space deltas: the serializable difference between a space
//! and an earlier clone of itself.
//!
//! [`AddressSpace::delta_since`](crate::AddressSpace::delta_since)
//! computes the exact set of pages that changed relative to a base
//! clone, and
//! [`AddressSpace::apply_delta`](crate::AddressSpace::apply_delta)
//! replays it onto a replica of that base. Because a clone pins every
//! frame it shares, any write in the original necessarily COWs the
//! frame away from the base — so frame-pointer inequality finds
//! exactly the written pages, in O(changed leaves) thanks to the
//! structurally shared table (untouched leaves compare equal by one
//! `Arc` pointer).
//!
//! The delta preserves everything the merge engine's fast paths
//! observe, so a replica rebuilt from deltas merges with *identical*
//! [`MergeStats`](crate::MergeStats) as the original:
//!
//! * global-zero-frame identity ([`PageDeltaOp::WriteZero`]) — a
//!   freshly zero-mapped page stays pointer-equal to the shared zero
//!   frame on the replica, as it was live;
//! * the dirty write-set — pages dirtied without a frame change (for
//!   example re-zeroing an already-zero mapping) are carried as
//!   [`PageDeltaOp::MarkDirty`];
//! * leaf sharing — every delta op unshares the touched page-table
//!   leaf on apply, exactly as the corresponding live mutation did.
//!
//! The only assumption is that no `snapshot()` was taken between the
//! base clone and the delta (a snapshot clears the dirty set, which a
//! delta cannot un-mark). The kernel's tracer takes its base clones
//! only at rendezvous boundaries, where that holds by construction.
//!
//! The leaf-granularity export a cluster migration pulls lives here
//! too: [`AddressSpace::leaf_summary`] lists the materialized leaves
//! and [`AddressSpace::leaf_image`] is one leaf's delta against the
//! empty space, the encoder `delta_since` also uses for a leaf only one
//! side holds.
//!
//! An [`AddressSpace`]'s own persisted mapping (a checkpoint stores
//! every space this way) is the delta against the empty space, which
//! has no snapshot to straddle.

use std::collections::BTreeSet;
use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize, Sink, Source};

use crate::page::{Frame, PAGE_SHIFT, PAGE_SIZE, zero_frame};
use crate::space::{LEAF_BITS, LEAF_MASK, PAGES_PER_LEAF, PageEntry};
use crate::{AddressSpace, MemError, Perm};

/// How one page differs from the base.
///
/// The serialized tags and keys are the shard link's wire format:
/// transfer sizes feed the virtual-time network charge, so renaming
/// one moves cluster virtual time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PageDeltaOp {
    /// The page holds these bytes in a private frame; mapped (or
    /// remapped) and marked dirty on apply.
    #[serde(rename = "write")]
    Write(#[serde(rename = "data")] Vec<u8>),
    /// The page aliases the global zero frame; mapped (or remapped)
    /// sharing that frame and marked dirty on apply.
    #[serde(rename = "zero")]
    WriteZero,
    /// Only the permissions changed; the frame and dirty state are
    /// untouched.
    #[serde(rename = "perm")]
    SetPerm,
    /// Only the dirty write-set membership changed (a write landed
    /// without changing the frame, e.g. re-zeroing a zero page).
    #[serde(rename = "dirty")]
    MarkDirty,
}

/// One changed page.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PageDelta {
    /// Virtual page number.
    pub vpn: u64,
    /// The page's permissions after the change.
    pub perm: Perm,
    /// What changed.
    pub op: PageDeltaOp,
}

/// The difference between an address space and an earlier clone.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SpaceDelta {
    /// Changed pages, in ascending VPN order.
    pub pages: Vec<PageDelta>,
    /// VPNs mapped in the base but no longer mapped, ascending.
    pub unmapped: Vec<u64>,
}

impl SpaceDelta {
    /// True if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty() && self.unmapped.is_empty()
    }
}

/// One row of a leaf-granularity address-space summary
/// ([`AddressSpace::leaf_summary`]): a materialized page-table leaf,
/// identified by the virtual page number of its first slot, and how
/// many pages it maps. The summary is the control-plane half of
/// cluster space migration — a remote node that received it can pull
/// exactly these leaves ([`AddressSpace::leaf_image`]) and nothing
/// else.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LeafInfo {
    /// Virtual page number of the leaf's first slot (a multiple of
    /// [`PAGES_PER_LEAF`]).
    pub first_vpn: u64,
    /// Mapped pages in the leaf (1..=[`PAGES_PER_LEAF`]).
    pub pages: u32,
}

/// The op that rebuilds present page `e` in an empty slot: its bytes, or
/// the shared zero frame it still aliases.
fn write_op(e: &PageEntry, zero: &Arc<Frame>) -> PageDeltaOp {
    if Arc::ptr_eq(&e.frame, zero) {
        PageDeltaOp::WriteZero
    } else {
        PageDeltaOp::Write(e.frame.bytes().to_vec())
    }
}

/// The persisted image of an [`AddressSpace`]: its delta against the
/// empty space — every mapped page, O(touched leaves) — split by the
/// dirty write-set. Decoding applies the clean pages, clears their
/// marks, then applies the dirty ones, so the space comes back with
/// its bytes, permissions, zero-frame identities *and* the exact dirty
/// set a later merge reads.
#[derive(Serialize, Deserialize)]
struct Image {
    clean: SpaceDelta,
    dirty: SpaceDelta,
}

impl Serialize for AddressSpace {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        let dirty_vpns: BTreeSet<u64> = self.dirty_vpns().into_iter().collect();
        let (dirty, clean) = self
            .delta_since(&AddressSpace::new())
            .pages
            .into_iter()
            .partition(|p| dirty_vpns.contains(&p.vpn));
        let delta = |pages| SpaceDelta {
            pages,
            unmapped: Vec::new(),
        };
        Image {
            clean: delta(clean),
            dirty: delta(dirty),
        }
        .serialize(sink);
    }
}

impl Deserialize for AddressSpace {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<AddressSpace, S::Error> {
        let image = Image::deserialize(src)?;
        let mut mem = AddressSpace::new();
        mem.apply_delta(&image.clean)
            .map_err(|e| DeError::msg(format!("clean pages: {e}")))?;
        mem.clear_dirty();
        mem.apply_delta(&image.dirty)
            .map_err(|e| DeError::msg(format!("dirty pages: {e}")))?;
        Ok(mem)
    }
}

impl AddressSpace {
    /// The difference between this space and `base`, an earlier clone
    /// of it: every page written since (plus permission changes and
    /// unmappings), suitable for
    /// [`apply_delta`](AddressSpace::apply_delta). Against a fresh
    /// empty space this enumerates the full mapped image. Cost is
    /// O(dirty leaves) against a true earlier clone, O(touched leaves)
    /// against empty.
    ///
    /// Because the clone pins every shared frame, any write since the
    /// clone COWed its frame, so frame-pointer inequality identifies
    /// exactly the changed pages; untouched leaves are skipped with one
    /// pointer compare. Pages dirtied *without* a frame change (a
    /// rewrite of identical content through the zero frame) are found
    /// by diffing the dirty sets, so `apply_delta` reproduces the dirty
    /// write-set — and therefore merge behavior — exactly.
    ///
    /// `base` must not have had `snapshot()` taken on either side since
    /// the clone (a snapshot clears dirty marks, which a delta cannot
    /// express).
    pub fn delta_since(&self, base: &AddressSpace) -> SpaceDelta {
        let zero = zero_frame();
        let mut pages: Vec<PageDelta> = Vec::new();
        let mut unmapped: Vec<u64> = Vec::new();
        // Merge-walk both spines by leaf index.
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.root.len() || j < base.root.len() {
            let sb = self.root.get(i).map(|rs| rs.base);
            let bb = base.root.get(j).map(|rs| rs.base);
            match (sb, bb) {
                (Some(s), Some(b)) if s == b => {
                    let (sl, bl) = (&self.root[i].leaf, &base.root[j].leaf);
                    if !Arc::ptr_eq(sl, bl) {
                        for idx in 0..PAGES_PER_LEAF {
                            let vpn = (s << LEAF_BITS) + idx as u64;
                            match (&sl.entries[idx], &bl.entries[idx]) {
                                (Some(se), Some(be)) if Arc::ptr_eq(&se.frame, &be.frame) => {
                                    if se.perm != be.perm {
                                        pages.push(PageDelta {
                                            vpn,
                                            perm: se.perm,
                                            op: PageDeltaOp::SetPerm,
                                        });
                                    }
                                }
                                (Some(se), _) => pages.push(PageDelta {
                                    vpn,
                                    perm: se.perm,
                                    op: write_op(se, &zero),
                                }),
                                (None, Some(_)) => unmapped.push(vpn),
                                (None, None) => {}
                            }
                        }
                    }
                    i += 1;
                    j += 1;
                }
                (Some(s), bb) if bb.is_none_or(|b| s < b) => {
                    pages.extend(self.leaf_image(s << LEAF_BITS).pages);
                    i += 1;
                }
                (_, Some(b)) => {
                    let bl = &base.root[j].leaf;
                    for idx in bl.present_indices() {
                        unmapped.push((b << LEAF_BITS) + idx as u64);
                    }
                    j += 1;
                }
                _ => unreachable!("loop condition"),
            }
        }
        // Dirty-set difference: pages marked dirty since the base
        // without a frame change. The frame diff above already dirties
        // its Write/WriteZero pages on apply, so only the remainder
        // needs explicit marks.
        let written: BTreeSet<u64> = pages.iter().map(|p| p.vpn).collect();
        for vpn in self.dirty.vpns_in(0, u64::MAX) {
            if base.dirty.contains(vpn) || written.contains(&vpn) {
                continue;
            }
            if let Some(e) = self.entry(vpn) {
                pages.push(PageDelta {
                    vpn,
                    perm: e.perm,
                    op: PageDeltaOp::MarkDirty,
                });
            }
        }
        pages.sort_by_key(|p| p.vpn);
        SpaceDelta { pages, unmapped }
    }

    /// Applies a delta produced by
    /// [`delta_since`](AddressSpace::delta_since) onto this space (a
    /// replica of the delta's base), reproducing the original's
    /// content, permissions, dirty write-set, zero-frame identities,
    /// and leaf-sharing structure.
    pub fn apply_delta(&mut self, delta: &SpaceDelta) -> crate::Result<()> {
        for &vpn in &delta.unmapped {
            self.remove_entry(vpn);
            self.dirty.remove(vpn);
        }
        for p in &delta.pages {
            match &p.op {
                PageDeltaOp::Write(bytes) => {
                    if bytes.len() != PAGE_SIZE {
                        return Err(MemError::Misaligned {
                            addr: p.vpn << PAGE_SHIFT,
                        });
                    }
                    let mut frame = Frame::zeroed();
                    frame.bytes_mut().copy_from_slice(bytes);
                    self.insert_entry(
                        p.vpn,
                        PageEntry {
                            frame: Arc::new(frame),
                            perm: p.perm,
                        },
                    );
                    self.dirty.insert(p.vpn);
                }
                PageDeltaOp::WriteZero => {
                    self.insert_entry(
                        p.vpn,
                        PageEntry {
                            frame: zero_frame(),
                            perm: p.perm,
                        },
                    );
                    self.dirty.insert(p.vpn);
                }
                PageDeltaOp::SetPerm => {
                    // entry_mut unshares the leaf, as live set_perm did.
                    match self.entry_mut(p.vpn) {
                        Some(e) => e.perm = p.perm,
                        None => {
                            return Err(MemError::Unmapped {
                                addr: p.vpn << PAGE_SHIFT,
                            });
                        }
                    }
                }
                PageDeltaOp::MarkDirty => {
                    // The live write that dirtied this page unshared
                    // its leaf even though the frame stayed put (e.g.
                    // map_zero over an already-zero page); entry_mut
                    // reproduces the unsharing on the replica.
                    if self.entry_mut(p.vpn).is_none() {
                        return Err(MemError::Unmapped {
                            addr: p.vpn << PAGE_SHIFT,
                        });
                    }
                    self.dirty.insert(p.vpn);
                }
            }
        }
        self.generation += 1;
        Ok(())
    }

    /// The leaf-granularity summary of this space: one [`LeafInfo`]
    /// per materialized page-table leaf holding at least one mapped
    /// page, ascending by address.
    ///
    /// This is the migration control-plane message of PAPER.md §3.3:
    /// because the structurally shared table only materializes leaves
    /// that were actually touched, the summary — and therefore the
    /// whole leaf-pull transfer it indexes — is O(touched), never
    /// O(address-range).
    ///
    /// # Examples
    ///
    /// ```
    /// use det_memory::{AddressSpace, PAGES_PER_LEAF, Perm, Region};
    ///
    /// let mut s = AddressSpace::new();
    /// // Two pages in one leaf, far apart from a third.
    /// s.map_zero(Region::new(0x1000, 0x3000), Perm::RW).unwrap();
    /// s.map_zero(Region::new(0x4000_0000, 0x4000_1000), Perm::RW).unwrap();
    /// let sum = s.leaf_summary();
    /// assert_eq!(sum.len(), 2);
    /// assert_eq!(sum[0].pages, 2);
    /// assert_eq!(sum[1].first_vpn, 0x4000_0000 >> 12);
    /// assert!(sum.iter().map(|l| l.pages as usize).sum::<usize>() <= s.leaf_count() * PAGES_PER_LEAF);
    /// ```
    pub fn leaf_summary(&self) -> Vec<LeafInfo> {
        self.root
            .iter()
            .filter(|rs| rs.leaf.mapped > 0)
            .map(|rs| LeafInfo {
                first_vpn: rs.base << LEAF_BITS,
                pages: rs.leaf.mapped,
            })
            .collect()
    }

    /// The full image of one page-table leaf as a [`SpaceDelta`]
    /// against an *empty* space: a `Write`/`WriteZero` op (with
    /// permissions) per mapped page of the leaf identified by
    /// `first_vpn` (which must be leaf-aligned). Applying every leaf
    /// image of [`leaf_summary`](AddressSpace::leaf_summary) onto a
    /// fresh space via [`apply_delta`](AddressSpace::apply_delta)
    /// reproduces this space's bytes, permissions, zero-frame
    /// identities, and the dirty marks a live
    /// [`copy_from`](AddressSpace::copy_from) would leave — which is
    /// what lets a migrated space materialize leaf by leaf, pulling
    /// only what the home node's table actually holds.
    ///
    /// An unknown or unmaterialized leaf yields an empty delta.
    ///
    /// # Examples
    ///
    /// ```
    /// use det_memory::{AddressSpace, Perm, Region};
    ///
    /// let mut src = AddressSpace::new();
    /// src.map_zero(Region::new(0x1000, 0x3000), Perm::RW).unwrap();
    /// src.write(0x1000, b"leaf").unwrap();
    ///
    /// let mut dst = AddressSpace::new();
    /// for leaf in src.leaf_summary() {
    ///     dst.apply_delta(&src.leaf_image(leaf.first_vpn)).unwrap();
    /// }
    /// assert_eq!(dst.content_digest(), src.content_digest());
    /// ```
    pub fn leaf_image(&self, first_vpn: u64) -> SpaceDelta {
        let zero = zero_frame();
        let mut pages: Vec<PageDelta> = Vec::new();
        if let Some(leaf) = self
            .leaf_for(first_vpn)
            .filter(|_| first_vpn & LEAF_MASK == 0)
        {
            for idx in leaf.present_indices() {
                let e = leaf.entries[idx].as_ref().expect("present bit set");
                pages.push(PageDelta {
                    vpn: first_vpn + idx as u64,
                    perm: e.perm,
                    op: write_op(e, &zero),
                });
            }
        }
        SpaceDelta {
            pages,
            unmapped: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::space::tests::rw_space;
    use crate::{AddressSpace, ConflictPolicy, PAGE_SHIFT, PageInfo, Perm, Region};

    #[test]
    fn delta_roundtrip_reproduces_content_and_dirty_set() {
        let r = Region::new(0x1000, 0x5000);
        let mut s = rw_space(0x1000, 0x4000);
        s.write_u64(0x1000, 7).unwrap();
        let base = s.clone();
        // A mix of mutations: writes, fresh zero maps, perm change,
        // unmap, and a re-zero of an already-zero page (dirty mark
        // with no frame change).
        s.write_u64(0x2000, 99).unwrap();
        s.map_zero(Region::new(0x4000, 0x5000), Perm::RW).unwrap();
        s.map_zero(Region::new(0x3000, 0x4000), Perm::RW).unwrap();
        s.set_perm(Region::new(0x1000, 0x2000), Perm::R).unwrap();
        s.unmap(Region::new(0x2000, 0x3000)).unwrap();
        let d = s.delta_since(&base);
        let mut replica = base.clone();
        replica.apply_delta(&d).unwrap();
        assert_eq!(replica.content_digest().value(), s.content_digest().value());
        assert_eq!(replica.page_count(), s.page_count());
        assert_eq!(replica.dirty_page_count(), s.dirty_page_count());
        for vpn in r.vpns() {
            assert_eq!(
                replica.perm_at(vpn << PAGE_SHIFT),
                s.perm_at(vpn << PAGE_SHIFT)
            );
        }
    }

    #[test]
    fn delta_preserves_zero_frame_identity() {
        let base = AddressSpace::new();
        let mut s = base.clone();
        s.map_zero(Region::new(0x1000, 0x2000), Perm::RW).unwrap();
        s.map_zero(Region::new(0x2000, 0x3000), Perm::RW).unwrap();
        s.write_u64(0x2000, 5).unwrap();
        let d = s.delta_since(&base);
        let mut replica = base.clone();
        replica.apply_delta(&d).unwrap();
        // The untouched zero page still aliases the global zero frame
        // on the replica (the merge engine's O(1) fast path depends on
        // this identity); the written page holds a private frame.
        let infos: Vec<PageInfo> = replica.iter_pages().collect();
        assert!(infos.iter().any(|p| p.vpn == 1 && p.is_zero_frame));
        assert!(infos.iter().any(|p| p.vpn == 2 && !p.is_zero_frame));
    }

    #[test]
    fn delta_replica_merges_with_identical_stats() {
        // Parent forks a child (copy + snap), the child writes; merging
        // the live child and a delta-reconstructed replica into
        // identical parents must produce bit-identical MergeStats —
        // including the frame-identity and leaf-sharing fast paths.
        let r = Region::new(0x1000, 0x4000);
        let mut parent = rw_space(0x1000, 0x3000);
        parent.write_u64(0x1000, 1).unwrap();
        let mut child = AddressSpace::new();
        child.copy_from(&parent, r, 0x1000).unwrap();
        let snap = child.snapshot();
        let child_base = child.clone();
        let snap_replica = snap.clone();
        let mut child_replica = child_base.clone();
        // The vehicle window: the child writes one page, zero-maps a
        // fresh one, and re-zeroes an existing zero page.
        child.write_u64(0x2000, 42).unwrap();
        child
            .map_zero(Region::new(0x3000, 0x4000), Perm::RW)
            .unwrap();
        child
            .map_zero(Region::new(0x1000, 0x2000), Perm::RW)
            .unwrap();
        let d = child.delta_since(&child_base);
        child_replica.apply_delta(&d).unwrap();

        let mut p_live = parent.clone();
        let mut p_replay = parent.clone();
        let (live, lc) = p_live
            .try_merge_from(&child, &snap, r, ConflictPolicy::ChildWins)
            .unwrap();
        let (replayed, rc) = p_replay
            .try_merge_from(&child_replica, &snap_replica, r, ConflictPolicy::ChildWins)
            .unwrap();
        assert!(lc.is_none() && rc.is_none());
        assert_eq!(live, replayed, "merge stats must replay bit-identically");
        assert_eq!(
            p_live.content_digest().value(),
            p_replay.content_digest().value()
        );
    }

    #[test]
    fn empty_delta_is_empty() {
        let s = rw_space(0x1000, 0x3000);
        let base = s.clone();
        let d = s.delta_since(&base);
        assert!(d.is_empty());
    }
}
