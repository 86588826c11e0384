//! The *reference oracles*: deliberately naive implementations of the
//! §3.2 merge ([`merge_from_reference`]) and of the virtual copy
//! ([`copy_from_reference`]), kept for differential testing and
//! benchmarking of the optimized engine
//! ([`AddressSpace::try_merge_from`],
//! [`AddressSpace::copy_from_counted`]). No production code calls
//! either.
//!
//! [`merge_from_reference`] walks **every mapped child page** in the
//! region and compares **every byte individually** — no dirty
//! write-set, no frame-identity skips, no adoption, no word lanes. Its
//! observable behaviour (final parent bytes and permissions, conflict
//! presence/address/detail, `pages_mapped`, and which error a doomed
//! merge fails with) is required to be identical to
//! [`AddressSpace::try_merge_from`]. `bytes_copied` is identical too
//! whenever the engine adopts nothing — every parent frame in the
//! region private to the parent — which is how the differential suite
//! pins the engine's word-parallel kernels to this byte loop; with
//! frames shared the engine remaps the pages only the child wrote
//! ([`MergeStats::pages_adopted`]) and copies *at most* what the oracle
//! copies. The oracle's *work* counters (`pages_scanned`,
//! `bytes_compared`, …) intentionally reproduce the pre-optimization
//! engine's costs, so a test or bench can quantify the optimization by
//! comparing the two stats records on the same inputs.
//!
//! One page-level rule is *semantics*, not a shortcut, and the oracle
//! must therefore encode it: a page whose parent frame is
//! pointer-identical to the child frame (taken at an earlier join) is
//! already merged — under non-strict policies it receives no writes,
//! charges no copies, and needs no write permission. Frame identity is
//! observable input state, like page contents. Adoption is the
//! opposite case and is deliberately *not* encoded here: it leaves the
//! parent byte-identical to what this byte loop produces, so the
//! oracle checks it instead of mirroring it.
//!
//! Beyond that, keep this module boring. Every shortcut added here
//! weakens the oracle.

use std::sync::Arc;

use crate::page::PAGE_SIZE;
use crate::{
    AddressSpace, CloneStats, ConflictPolicy, MemError, MergeConflict, MergeStats, Perm, Region,
    Result,
};

/// Naive virtual copy of `src_region` of `src` to `dst_start` in `dst`:
/// every page of the range installed or erased on its own, whatever
/// the range's alignment and whatever else either page table holds.
///
/// The resulting space — contents, frame identities, permissions,
/// mapped set and dirty write-set — is required to be identical to
/// what [`AddressSpace::copy_from_counted`] leaves; only the work
/// differs, so the returned [`CloneStats`] never report a shared leaf.
/// The oracle is never taught when a leaf may be shared: that rule is
/// exactly what it exists to check.
pub fn copy_from_reference(
    dst: &mut AddressSpace,
    src: &AddressSpace,
    src_region: Region,
    dst_start: u64,
) -> Result<CloneStats> {
    src_region.check_page_aligned()?;
    if dst_start & (PAGE_SIZE as u64 - 1) != 0 {
        return Err(MemError::Misaligned { addr: dst_start });
    }
    let mut stats = CloneStats::default();
    for (i, vpn) in src_region.vpns().enumerate() {
        let dst_addr = dst_start + ((i as u64) << crate::PAGE_SHIFT);
        match src.entry_frame(vpn) {
            Some((frame, perm)) => {
                dst.install_frame(dst_addr >> crate::PAGE_SHIFT, Arc::clone(frame), perm);
                stats.pages += 1;
                stats.boundary_pages += 1;
            }
            None => dst.unmap(Region::sized(dst_addr, PAGE_SIZE as u64))?,
        }
    }
    Ok(stats)
}

/// Naive three-way merge of `child`'s changes since `snap` into
/// `parent` over the page-aligned `region`.
///
/// Semantics match [`AddressSpace::try_merge_from`] exactly (see its
/// docs); only the algorithm differs. Like the optimized engine it
/// validates before writing: a conflict or a read-only parent page is
/// detected in pass 1 and leaves the parent byte-identical.
pub fn merge_from_reference(
    parent: &mut AddressSpace,
    child: &AddressSpace,
    snap: &AddressSpace,
    region: Region,
    policy: ConflictPolicy,
) -> Result<(MergeStats, Option<MergeConflict>)> {
    region.check_page_aligned()?;
    let mut stats = MergeStats::default();

    // Pass 1: full byte scan of every mapped child page, in ascending
    // address order. Per page: a conflict (lowest byte first) wins over
    // a permission violation; either aborts before anything is applied.
    let mut apply: Vec<u64> = Vec::new();
    for vpn in child.vpns_in(region) {
        stats.pages_scanned += 1;
        let (child_frame, _) = child.entry_frame(vpn).expect("vpn from child map");
        let child_bytes = child_frame.bytes();
        let base = snap.entry_frame(vpn).map(|(f, _)| f.bytes());
        // The semantic alias rule (see module docs): a parent page
        // holding the child's exact frame is already merged under
        // non-strict policies.
        if policy != ConflictPolicy::Strict
            && parent
                .entry_frame(vpn)
                .is_some_and(|(pf, _)| Arc::ptr_eq(pf, child_frame))
        {
            stats.pages_aliased += 1;
            continue;
        }
        let parent_entry = child_to_parent(parent, vpn);
        stats.pages_diffed += 1;
        stats.bytes_compared += PAGE_SIZE as u64;
        let mut page_dirty = false;
        let mut conflict: Option<MergeConflict> = None;
        for i in 0..PAGE_SIZE {
            let b = base.map_or(0, |bb| bb[i]);
            let c = child_bytes[i];
            if c == b {
                continue;
            }
            page_dirty = true;
            if policy == ConflictPolicy::ChildWins {
                continue;
            }
            let p = parent_entry.map_or(b, |(pb, _)| pb[i]);
            if p != b {
                let benign = policy == ConflictPolicy::BenignSameValue && p == c;
                if !benign && conflict.is_none() {
                    conflict = Some(MergeConflict {
                        addr: (vpn << crate::PAGE_SHIFT) + i as u64,
                        base: b,
                        child: c,
                        parent: p,
                    });
                }
            }
        }
        if let Some(c) = conflict {
            return Ok((stats, Some(c)));
        }
        if page_dirty {
            if let Some((_, pperm)) = parent_entry {
                if !pperm.allows(Perm::W) {
                    return Err(MemError::PermDenied {
                        addr: vpn << crate::PAGE_SHIFT,
                        need: Perm::W,
                    });
                }
            }
            apply.push(vpn);
        }
    }

    // Pass 2: apply byte-at-a-time. A page the parent lacks is mapped
    // zero and copied wholesale (all PAGE_SIZE bytes) — the naive
    // equivalent of the optimized engine mapping the child's frame in
    // O(1), producing identical parent contents and the same
    // `bytes_copied`/`pages_mapped` charge.
    for vpn in apply {
        let (child_frame, child_perm) = child.entry_frame(vpn).expect("still mapped");
        let child_frame = Arc::clone(child_frame);
        let child_bytes = child_frame.bytes();
        let snap_frame = snap.entry_frame(vpn).map(|(f, _)| Arc::clone(f));
        let base = snap_frame.as_ref().map(|f| f.bytes());
        let addr = vpn << crate::PAGE_SHIFT;
        if parent.entry_frame(vpn).is_none() {
            stats.pages_mapped += 1;
            parent.map_zero(
                Region::new(addr, addr + PAGE_SIZE as u64),
                child_perm.union(Perm::RW),
            )?;
            let dst = parent.frame_mut(vpn).expect("just mapped");
            for (i, &c) in child_bytes.iter().enumerate() {
                dst.bytes_mut()[i] = c;
                stats.bytes_copied += 1;
            }
            continue;
        }
        let dst = parent.frame_mut(vpn).expect("checked above");
        for i in 0..PAGE_SIZE {
            let b = base.map_or(0, |bb| bb[i]);
            let c = child_bytes[i];
            if c != b {
                dst.bytes_mut()[i] = c;
                stats.bytes_copied += 1;
            }
        }
    }
    Ok((stats, None))
}

/// Reads the parent's page bytes and permissions at `vpn`, if mapped.
#[allow(clippy::type_complexity)]
fn child_to_parent(parent: &AddressSpace, vpn: u64) -> Option<(&[u8; PAGE_SIZE], Perm)> {
    parent.entry_frame(vpn).map(|(f, p)| (f.bytes(), p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_matches_documented_semantics() {
        let mut parent = AddressSpace::new();
        parent
            .map_zero(Region::new(0x1000, 0x3000), Perm::RW)
            .unwrap();
        let mut child = AddressSpace::new();
        child
            .copy_from(&parent, Region::new(0x1000, 0x3000), 0x1000)
            .unwrap();
        let snap = child.snapshot();
        child.write(0x1100, b"abc").unwrap();
        parent.write(0x2100, b"xyz").unwrap();
        let (stats, conflict) = merge_from_reference(
            &mut parent,
            &child,
            &snap,
            Region::new(0x1000, 0x3000),
            ConflictPolicy::Strict,
        )
        .unwrap();
        assert!(conflict.is_none());
        assert_eq!(parent.read_vec(0x1100, 3).unwrap(), b"abc");
        assert_eq!(parent.read_vec(0x2100, 3).unwrap(), b"xyz");
        assert_eq!(stats.bytes_copied, 3);
        // Naive costs: every mapped page fully scanned.
        assert_eq!(stats.pages_scanned, 2);
        assert_eq!(stats.bytes_compared, 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn oracle_reports_lowest_conflict() {
        let mut parent = AddressSpace::new();
        parent
            .map_zero(Region::new(0x1000, 0x2000), Perm::RW)
            .unwrap();
        let mut child = AddressSpace::new();
        child
            .copy_from(&parent, Region::new(0x1000, 0x2000), 0x1000)
            .unwrap();
        let snap = child.snapshot();
        child.write_u8(0x1010, 1).unwrap();
        child.write_u8(0x1020, 2).unwrap();
        parent.write_u8(0x1010, 3).unwrap();
        parent.write_u8(0x1020, 4).unwrap();
        let (_, conflict) = merge_from_reference(
            &mut parent,
            &child,
            &snap,
            Region::new(0x1000, 0x2000),
            ConflictPolicy::Strict,
        )
        .unwrap();
        assert_eq!(conflict.expect("conflict").addr, 0x1010);
    }
}
