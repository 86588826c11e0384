//! The migration data plane: the job message and the leaf-pull
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
//! Inside one process a message is a function call on the job's
//! vehicle, not a hand-off between threads, but a pulled leaf or a
//! homecoming delta is still encoded to its wire bytes, priced on the
//! link by their length and decoded as hostile input.
//!
//! Everything here is deterministic: message sizes come from the
//! canonical wire encoding, so byte counts and the virtual-time
//! charges derived from them are pure functions of the workload and
//! the logical node topology — never of how many shards the run
//! happened to use. The link counters ([`ClusterStats`] but
//! `migrations`, which the kernels count) are written only here, by one
//! function per message shape: [`send_summary`], [`round_trip`] and
//! [`cache_hits`].
//!
//! [`ClusterStats`]: crate::ClusterStats

use std::sync::mpsc;

use det_kernel::{KernelError, NativeResult, SpaceCtx, TrapKind, wire};
use det_memory::{AddressSpace, LeafInfo, PAGE_SHIFT, PAGES_PER_LEAF, Region, SpaceDelta};

use crate::controller::{Env, Remote};

/// Fixed per-message header bytes (addresses, space/job ids, opcode).
const HEADER_BYTES: u64 = 64;

/// Counts a migration summary sent one way across the link — a header
/// plus one 16-byte page-table entry per page the summarized leaves
/// hold — and returns its link time (ps).
pub(crate) fn send_summary(env: &Env, summary: &[LeafInfo]) -> u64 {
    let bytes = HEADER_BYTES + 16 * summary.iter().map(|l| l.pages as u64).sum::<u64>();
    let mut cl = env.cluster.lock();
    cl.messages += 1;
    cl.bytes_transferred += bytes;
    env.spec.net.message_ps(bytes)
}

/// Counts one request/response round trip across the link — a
/// header-only request, then a response of a header and `payload`
/// bytes carrying `pages` pages (a leaf pull or a homecoming) — and
/// returns the link time (ps) of both messages.
///
/// Callers count a response only once it has decoded, so `pages` is
/// what arrived. A response that does not decode cannot occur inside
/// one process: a pulled leaf is `wire::delta_to_bytes` of a frozen
/// leaf image, and a homecoming that of the job's own delta, or empty.
/// [`decode_delta`] still guards both, because link bytes are input.
pub(crate) fn round_trip(env: &Env, payload: usize, pages: u64) -> u64 {
    let response = HEADER_BYTES + payload as u64;
    let net = &env.spec.net;
    let mut cl = env.cluster.lock();
    cl.page_pulls += pages;
    cl.messages += 2;
    cl.bytes_transferred += HEADER_BYTES + response;
    net.message_ps(HEADER_BYTES)
        .saturating_add(net.message_ps(response))
}

/// Counts `pages` a same-node fork materialized without crossing the
/// link.
pub(crate) fn cache_hits(env: &Env, pages: u64) {
    env.cluster.lock().cache_hits += pages;
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

/// A remote fork in flight: everything the job's vehicle needs to
/// materialize and run the migrated space.
pub(crate) struct JobMsg {
    /// Deterministic lineage path (fork-ordinal/tag@node under the
    /// parent's path).
    pub path: String,
    /// Logical node the job runs on.
    pub node: u16,
    /// Logical node the image lives on (the parent's node).
    pub home_node: u16,
    pub program: JobFn,
    pub touch: Option<Vec<Region>>,
    pub summary: Vec<LeafInfo>,
    /// The frozen home image the leaves are pulled from — the "home
    /// node keeps the pages" half of demand paging. Dropped once the
    /// job has materialized.
    pub frozen: AddressSpace,
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
