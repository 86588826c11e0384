//! The migration data plane: message types and the leaf-pull
//! materialization protocol.
//!
//! A migrated space crosses the (simulated-latency) link in two kinds
//! of message, exactly as in the paper's "simplistic page copying
//! protocol" (§3.3) but at page-table-*leaf* granularity:
//!
//! * a **migration summary** — register/entry state plus the
//!   [`det_memory::LeafInfo`] directory of the space's structurally
//!   shared page table (DESIGN.md §5). Because the table only
//!   materializes leaves that were touched, the summary is O(touched);
//! * **leaf pulls** — one request/response round trip per summarized
//!   leaf the destination actually needs, carrying the leaf's image as
//!   the binary wire delta ([`det_kernel::wire`]): raw page bytes plus
//!   a few dozen bytes of keys and lengths per page.
//!
//! Everything here is deterministic: message sizes come from the
//! canonical wire encoding, so byte counts and the virtual-time
//! charges derived from them are pure functions of the workload and
//! the logical node topology — never of how many OS-thread shards the
//! run happened to use.

use std::sync::mpsc;

use det_kernel::{KernelError, NativeResult, SpaceCtx, TrapKind, wire};
use det_memory::{AddressSpace, LeafInfo, PAGE_SHIFT, PAGES_PER_LEAF, Region, SpaceDelta};

use crate::controller::Remote;

/// Fixed per-message header bytes (addresses, space/job ids, opcode).
pub(crate) const HEADER_BYTES: u64 = 64;

/// Size of a migration summary for a space of `pages` mapped pages:
/// a header plus one 16-byte page-table entry per page.
pub(crate) fn summary_bytes(pages: u64) -> u64 {
    HEADER_BYTES + 16 * pages
}

/// A job's executable half: a native closure driven through the
/// target shard kernel's [`SpaceCtx`], with a [`Remote`] handle for
/// nested cross-node forks.
pub type JobFn = Box<dyn FnOnce(&mut SpaceCtx, &Remote) -> NativeResult + Send + 'static>;

/// True if `leaf` intersects the declared access set (`None` =
/// everything).
pub(crate) fn touched(leaf: &LeafInfo, touch: &Option<Vec<Region>>) -> bool {
    match touch {
        None => true,
        Some(regions) => {
            let start = leaf.first_vpn << PAGE_SHIFT;
            let end = (leaf.first_vpn + PAGES_PER_LEAF as u64) << PAGE_SHIFT;
            regions.iter().any(|r| r.start < end && r.end > start)
        }
    }
}

/// Materializes a migrated space's image from its frozen home copy:
/// applies the leaf image of every summarized leaf intersecting the
/// declared touch set onto a fresh space, then clears the dirty set so
/// the job's write-set starts empty.
///
/// Both sides of a migration use this exact function — the job shard
/// (with wire-decoded leaf images) and the forking parent (directly
/// from the frozen image, to reconstruct the merge snapshot) — so the
/// two replicas are bit-identical by construction.
pub(crate) fn materialize(
    frozen: &AddressSpace,
    summary: &[LeafInfo],
    touch: &Option<Vec<Region>>,
) -> AddressSpace {
    let mut mem = AddressSpace::new();
    for leaf in summary {
        if !touched(leaf, touch) {
            continue;
        }
        mem.apply_delta(&frozen.leaf_image(leaf.first_vpn))
            .expect("leaf image applies onto a fresh space");
    }
    mem.clear_dirty();
    mem
}

/// Decodes a delta that crossed the link: a pulled leaf image or a
/// homecoming write-set. Link bytes are hostile input, so a damaged
/// delta is the job's typed failure, never a panic.
pub(crate) fn decode_delta(bytes: &[u8]) -> Result<SpaceDelta, KernelError> {
    wire::delta_from_bytes(bytes).map_err(|_| KernelError::InvalidSpec("corrupt delta on the wire"))
}

/// Messages a shard host serves on its data-plane channel.
pub(crate) enum HostMsg {
    /// Run a migrated job on this shard.
    Submit(Box<JobMsg>),
    /// Pull one leaf of a frozen home image (request/response).
    PullLeaf {
        job: u64,
        first_vpn: u64,
        reply: mpsc::Sender<Vec<u8>>,
    },
    /// Drain and exit (sent once every job has completed).
    Shutdown,
}

/// A remote fork in flight: everything the target shard needs to
/// materialize and run the migrated space.
pub(crate) struct JobMsg {
    pub job_id: u64,
    /// Deterministic lineage path (fork-ordinal/tag@node under the
    /// parent's path).
    pub path: String,
    /// Logical node the job runs on.
    pub node: u16,
    /// Shard holding the frozen image (the parent's shard).
    pub home_shard: usize,
    /// Logical node the image lives on (the parent's node).
    pub home_node: u16,
    pub program: JobFn,
    pub region: Region,
    pub touch: Option<Vec<Region>>,
    pub summary: Vec<LeafInfo>,
    /// Parent's virtual clock at submit, plus the summary-message
    /// cost: the migrated space's clock starts here (the rendezvous
    /// stamp rule).
    pub start_vclock_ps: u64,
    pub reply: mpsc::Sender<JobDone>,
}

/// A completed job coming home: exit, clock, and the dirty delta in
/// wire encoding. (The job kernel's stats flow into the controller's
/// aggregate directly; only rendezvous-relevant state rides the
/// reply.)
pub(crate) struct JobDone {
    pub exit: Result<i32, TrapKind>,
    /// The job root's final virtual clock (picoseconds), including
    /// its inherited start clock and materialization network time.
    pub vclock_ps: u64,
    /// Final whole-image content digest of the job's memory.
    pub digest: u64,
    /// `delta_since` the materialized base, wire-encoded (empty when
    /// the program panicked before the capture).
    pub delta: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Damaged link bytes — cut short, or not a delta at all — are the
    /// job's typed failure.
    #[test]
    fn damaged_link_bytes_are_a_typed_failure() {
        let good = wire::delta_to_bytes(&SpaceDelta::default());
        assert_eq!(decode_delta(&good).unwrap(), SpaceDelta::default());
        for bad in [&good[..good.len() - 1], b"\x00", b""] {
            assert!(matches!(
                decode_delta(bad),
                Err(KernelError::InvalidSpec("corrupt delta on the wire"))
            ));
        }
    }
}
