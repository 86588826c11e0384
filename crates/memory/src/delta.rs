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
//! An [`AddressSpace`]'s own persisted mapping (a checkpoint stores
//! every space this way) is the delta against the empty space, which
//! has no snapshot to straddle.

use std::collections::BTreeSet;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::{AddressSpace, Perm};

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
    fn to_value(&self) -> Value {
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
        .to_value()
    }
}

impl Deserialize for AddressSpace {
    fn from_value(v: &Value) -> Result<AddressSpace, DeError> {
        let image = Image::from_value(v)?;
        let mut mem = AddressSpace::new();
        mem.apply_delta(&image.clean)
            .map_err(|e| DeError::msg(format!("clean pages: {e}")))?;
        mem.clear_dirty();
        mem.apply_delta(&image.dirty)
            .map_err(|e| DeError::msg(format!("dirty pages: {e}")))?;
        Ok(mem)
    }
}
