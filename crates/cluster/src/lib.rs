//! Cross-node distribution via space migration (§3.3): every migrated
//! job runs in a kernel of its own on a real OS thread, under one of N
//! *shards*' compute permits.
//!
//! The paper runs Determinator on up to 32 machines connected by
//! Ethernet; we have one machine, so what is simulated is the *link*
//! — its latency and its per-byte cost are a [`NetworkModel`] charged
//! in virtual time — and everything else is real (DESIGN.md §10):
//!
//! * every logical node is homed on shard `node % shards`, and each
//!   migrated job runs in its own `det-kernel` instance on a vehicle
//!   thread of its own, under its node's shard permit — the paper's
//!   uniprocessor node. A shard is that permit and owns no thread;
//! * migrating a space sends one summary message (register state plus
//!   the leaf directory of its page table), after which the job pulls
//!   the *leaves* it needs, one request/response round trip each, with
//!   no prefetching beyond a declared touch set — the paper's
//!   "simplistic page copying protocol" at leaf granularity. A pull is
//!   a function call, but its wire bytes are encoded, priced and
//!   decoded as if they crossed a wire;
//! * a job forked onto its caller's own node never crosses the link
//!   (counted in [`ClusterStats::cache_hits`]);
//! * a joined job comes home as a dirty delta that the caller
//!   three-way-merges exactly like a local `Get`+merge: a fork and a
//!   join are the kernel's `SpaceCtx::{migrate_out, migrate_home}`
//!   arms, so det-kernel bills, counts and waits for them, and this
//!   crate prices only the link.
//!
//! [`ClusterSpec::run`] drives a root space; it and every migrated job
//! receive a [`Remote`] to [`fork`](Remote::fork) jobs onto logical
//! nodes and [`join`](Remote::join) them back. All deterministic
//! quantities — virtual clocks, digests, kernel stats, traffic
//! counters — are functions of the workload and the logical node
//! count only, so they are bit-identical on 1 shard or 16 (see
//! `tests/determinism.rs`).

mod controller;
mod net;
mod protocol;
mod shard;

pub use controller::{ClusterOutcome, ClusterSpec, JobArtifact, JobOutcome, JobSpec, Remote};
pub use net::NetworkModel;
pub use protocol::JobFn;

/// Aggregate statistics of cluster link traffic.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ClusterStats {
    /// Space migrations: one per cross-node fork summary and one per
    /// cross-node homecoming — the summed `KernelStats::migrations` of
    /// every kernel in the run.
    pub migrations: u64,
    /// Pages pulled over the link: the page count of every pulled
    /// leaf, plus the pages of every homecoming delta.
    pub page_pulls: u64,
    /// Bytes moved across the link.
    pub bytes_transferred: u64,
    /// Messages sent (1 per migration summary, 2 per leaf pull, 2 per
    /// cross-node join).
    pub messages: u64,
    /// Pages a same-node fork materialized without crossing the link.
    pub cache_hits: u64,
}
