//! The cluster control plane: job placement, lifecycle, and the
//! deterministic accounting seam.
//!
//! The controller decouples **logical nodes** from **physical
//! shards**. A workload addresses logical nodes (`0..nodes`), and
//! every deterministic quantity — virtual clocks, migration and
//! message counts, transfer bytes, digests — is a pure function of
//! the workload and that logical topology. Shards (`0..shards`, each
//! one compute permit) are merely where logical nodes execute: node
//! `n` computes under shard `n % shards`'s permit. Changing the shard
//! count changes wall-clock time and nothing else, which is the
//! invariant the shard-count conformance suite pins.
//!
//! Every migrated job runs on a vehicle thread that [`Remote::fork`]
//! spawns and registers here; [`ClusterSpec::run`] joins them all, the
//! never-joined ones included, before it aggregates.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use det_kernel::{
    FaultPlan, Kernel, KernelConfig, KernelError, KernelStats, MergeStats, NativeResult, Result,
    RunOutcome, SpaceCtx, TrapKind,
};
use det_memory::{AddressSpace, Region};

use crate::ClusterStats;
use crate::net::NetworkModel;
use crate::protocol::{self, JobDone, JobFn, JobMsg};
use crate::shard::{Permit, run_job};

/// Configuration of a real-thread shard cluster run.
#[derive(Clone)]
pub struct ClusterSpec {
    /// Logical nodes the workload addresses. Fixed by the workload:
    /// determines every deterministic quantity.
    pub nodes: u16,
    /// Physical shards: compute permits, each letting one job compute
    /// at a time. Affects wall-clock time only.
    pub shards: usize,
    /// The simulated-latency link between nodes.
    pub net: NetworkModel,
    /// Fault-injection plan for the root kernel.
    pub faults: FaultPlan,
}

impl ClusterSpec {
    /// A cluster of `nodes` logical nodes on `shards` shards, with
    /// gigabit-Ethernet link parameters and default kernel
    /// configuration.
    pub fn new(nodes: u16, shards: usize) -> ClusterSpec {
        ClusterSpec {
            nodes,
            shards,
            net: NetworkModel::ethernet_1g(),
            faults: FaultPlan::default(),
        }
    }

    /// Runs `root` as the cluster's root space (node 0, with I/O
    /// privileges) and drives the whole run to completion: executes
    /// every migrated job, joins every job vehicle, and folds all
    /// per-kernel statistics into one deterministic [`ClusterOutcome`].
    pub fn run<F>(self, root: F) -> ClusterOutcome
    where
        F: FnOnce(&mut SpaceCtx, &Remote) -> NativeResult + Send + 'static,
    {
        assert!(self.nodes >= 1, "a cluster needs at least one node");
        assert!(self.shards >= 1, "a cluster needs at least one shard");
        let nodes = self.nodes;
        let shards = self.shards;
        let root_kcfg = KernelConfig::builder().faults(self.faults.clone()).build();

        let env = Arc::new(Env {
            permits: (0..shards).map(|_| Permit::new(1)).collect(),
            spec: self,
            vehicles: Mutex::default(),
            cluster: Mutex::default(),
            agg: Mutex::default(),
        });
        // The root space computes under its home shard's permit like
        // any other resident of node 0.
        env.permits[env.shard_of(0)].acquire();
        let env2 = Arc::clone(&env);
        let outcome = Kernel::new(root_kcfg).run(move |ctx| {
            let remote = Remote::new(env2, 0, String::new());
            root(ctx, &remote)
        });
        env.permits[env.shard_of(0)].release();

        // Leaked (never-joined) jobs still run to completion and their
        // stats still aggregate. A vehicle registers its children's
        // vehicles before it exits, so the list is empty only once
        // every job has been joined.
        let next = || env.vehicles.lock().pop();
        while let Some(vehicle) = next() {
            let _ = vehicle.join();
        }

        let agg = std::mem::take(&mut *env.agg.lock());
        let mut stats = outcome.stats.clone();
        stats.accumulate(&agg.stats);
        // The kernels count migrations; the link counts the rest.
        let cluster = ClusterStats {
            migrations: stats.migrations,
            ..*env.cluster.lock()
        };
        let mut host = outcome.host;
        host.spurious_wakeups += agg.host.spurious_wakeups;
        host.os_threads_created += agg.host.os_threads_created;
        ClusterOutcome {
            exit: outcome.exit,
            vclock_ns: outcome.vclock_ns,
            stats,
            host,
            cluster,
            jobs: agg.jobs.into_values().collect(),
            nodes,
            shards,
            root: outcome,
        }
    }
}

/// Shared cluster state: compute permits, the job vehicles not yet
/// joined, and the deterministic aggregate accumulators.
pub(crate) struct Env {
    pub(crate) spec: ClusterSpec,
    pub(crate) permits: Vec<Permit>,
    /// Job vehicles `Remote::fork` spawned that `run` has not joined.
    vehicles: Mutex<Vec<JoinHandle<()>>>,
    pub(crate) cluster: Mutex<ClusterStats>,
    pub(crate) agg: Mutex<Agg>,
}

impl Env {
    /// The placement map: logical node → physical shard.
    pub(crate) fn shard_of(&self, node: u16) -> usize {
        node as usize % self.spec.shards
    }
}

/// Deterministic aggregates across every job kernel: summed
/// [`KernelStats`] (order-independent), quarantined host counters,
/// and per-job artifacts keyed by deterministic lineage path.
#[derive(Default)]
pub(crate) struct Agg {
    pub(crate) stats: KernelStats,
    pub(crate) host: det_kernel::HostStats,
    pub(crate) jobs: BTreeMap<String, JobArtifact>,
}

/// What a space migrated onto a shard can do with the rest of the
/// cluster: fork jobs onto logical nodes and join them back. One
/// `Remote` exists per migrated space (and one for the root); its
/// lineage path makes every job's identity deterministic.
pub struct Remote {
    env: Arc<Env>,
    node: u16,
    path: String,
    forks: AtomicU64,
    pending: Mutex<BTreeMap<u64, Pending>>,
}

struct Pending {
    rx: mpsc::Receiver<JobDone>,
    /// Local reconstruction of the job's materialized base image —
    /// the merge snapshot.
    base: AddressSpace,
    region: Region,
    node: u16,
}

/// A migrated job to fork onto another logical node.
pub struct JobSpec {
    region: Region,
    touch: Option<Vec<Region>>,
    program: JobFn,
}

impl JobSpec {
    /// A native job over `region`: the child materializes a snapshot
    /// of the caller's `region` (leaf-pulled on demand) and runs `f`
    /// in its own kernel on the target node's shard.
    pub fn native<F>(region: Region, f: F) -> JobSpec
    where
        F: FnOnce(&mut SpaceCtx, &Remote) -> NativeResult + Send + 'static,
    {
        JobSpec {
            region,
            touch: None,
            program: Box::new(f),
        }
    }

    /// Declares the job's access set: only summarized leaves
    /// intersecting `regions` are pulled (the demand-paging contract —
    /// native closures are opaque, so the declared set plays the role
    /// hardware page faults play in the paper). Unset = pull every
    /// touched leaf.
    pub fn touch(mut self, regions: Vec<Region>) -> JobSpec {
        self.touch = Some(regions);
        self
    }
}

/// Result of joining a migrated job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job program's exit status or trap.
    pub exit: std::result::Result<i32, TrapKind>,
    /// Final whole-image content digest of the job's memory.
    pub digest: u64,
    /// The job's effective virtual clock at the join (picoseconds),
    /// including migration and return-trip network time.
    pub vclock_ps: u64,
    /// Statistics of the homecoming merge.
    pub merge: MergeStats,
}

impl Remote {
    pub(crate) fn new(env: Arc<Env>, node: u16, path: String) -> Remote {
        Remote {
            env,
            node,
            path,
            forks: AtomicU64::new(0),
            pending: Mutex::new(BTreeMap::new()),
        }
    }

    /// The logical node this space runs on.
    pub fn node(&self) -> u16 {
        self.node
    }

    /// Logical nodes in the cluster.
    pub fn nodes(&self) -> u16 {
        self.env.spec.nodes
    }

    /// Forks a job onto logical `node` (the paper's remote space
    /// creation, §3.3): freezes a structural snapshot of `spec.region`
    /// as the child's initial image, sends the leaf-directory summary
    /// over the link, and starts the job on a vehicle of its own, which
    /// pulls exactly the leaves it needs. The kernel's migrate-out arm
    /// bills and counts it; this prices the summary on the link.
    pub fn fork(&self, ctx: &mut SpaceCtx, tag: u64, node: u16, spec: JobSpec) -> Result<()> {
        let env = &self.env;
        if node >= env.spec.nodes {
            return Err(KernelError::NodeUnreachable(node));
        }
        if self.pending.lock().contains_key(&tag) {
            return Err(KernelError::ChildActive);
        }

        // Freeze the child's initial image: O(touched leaves).
        let remote_xfer = node != self.node;
        let mut summary = Vec::new();
        let img = ctx.migrate_out(spec.region, |img| {
            summary = img.leaf_summary();
            remote_xfer.then(|| protocol::send_summary(env, &summary))
        })?;

        // Reconstruct the job's materialized base locally — the same
        // deterministic function the job applies, so snapshot
        // and remote image are bit-identical.
        let base = protocol::materialize(&img, &summary, &spec.touch);

        let ordinal = self.forks.fetch_add(1, Ordering::Relaxed);
        let path = format!("{}/{}:{}@{}", self.path, ordinal, tag, node);
        let (reply, rx) = mpsc::channel();
        let msg = JobMsg {
            path: path.clone(),
            node,
            home_node: self.node,
            program: spec.program,
            touch: spec.touch,
            summary,
            frozen: img,
            start_vclock_ps: ctx.vclock_ps(),
            reply,
        };
        let env2 = Arc::clone(env);
        // A vehicle the host refuses drops the job and its reply
        // sender, so the join reads `Killed`.
        let spawned = std::thread::Builder::new()
            .name(format!("job{path}"))
            .spawn(move || run_job(env2, msg));
        if let Ok(vehicle) = spawned {
            env.vehicles.lock().push(vehicle);
        }
        self.pending.lock().insert(
            tag,
            Pending {
                rx,
                base,
                region: spec.region,
                node,
            },
        );
        Ok(())
    }

    /// Joins a forked job: blocks until it comes home (releasing this
    /// shard's compute permit while blocked — the child may need it),
    /// then the kernel's migrate-home arm syncs the caller's clock by
    /// the rendezvous max rule and three-way-merges the job's dirty
    /// delta into the caller's `region` as a local `Get`+merge does.
    pub fn join(&self, ctx: &mut SpaceCtx, tag: u64) -> Result<JobOutcome> {
        let p = self
            .pending
            .lock()
            .remove(&tag)
            .ok_or(KernelError::InvalidSpec(
                "join of a tag with no pending remote job",
            ))?;
        let env = &self.env;
        let permit = &env.permits[env.shard_of(self.node)];
        permit.release();
        let done = p.rx.recv();
        permit.acquire();
        let done = done.map_err(|_| KernelError::Killed)?;

        let delta = if done.delta.is_empty() {
            Ok(det_memory::SpaceDelta::default())
        } else {
            protocol::decode_delta(&done.delta)
        };

        let remote_xfer = p.node != self.node;
        let mut child_eff = done.vclock_ps;
        if let (true, Ok(delta)) = (remote_xfer, &delta) {
            // The homecoming: a get-request and the dirty-delta
            // response, after which the migrated space is gone — its
            // results live on via the merge. (A delta that does not
            // decode fails the merge before the clock is read.)
            let pages = delta.pages.len() as u64;
            child_eff =
                child_eff.saturating_add(protocol::round_trip(env, done.delta.len(), pages));
        }
        let merge = ctx.migrate_home((&p.base, delta), child_eff, p.region, remote_xfer)?;
        Ok(JobOutcome {
            exit: done.exit,
            digest: done.digest,
            vclock_ps: child_eff,
            merge,
        })
    }
}

/// Per-job deterministic artifact: identity, placement, final clock
/// and digest.
#[derive(Clone, Debug, PartialEq)]
pub struct JobArtifact {
    /// Deterministic lineage path
    /// (`<parent>/<fork-ordinal>:<tag>@<node>`).
    pub path: String,
    /// Logical node the job ran on.
    pub node: u16,
    /// Final virtual clock (picoseconds).
    pub vclock_ps: u64,
    /// Final whole-image content digest.
    pub digest: u64,
    /// Exit status or trap.
    pub exit: std::result::Result<i32, TrapKind>,
}

/// Outcome of a [`ClusterSpec::run`]: the root kernel's outcome plus
/// deterministic aggregates over every migrated job kernel.
pub struct ClusterOutcome {
    /// Root program's exit status or trap.
    pub exit: std::result::Result<i32, TrapKind>,
    /// Root space's final virtual clock (nanoseconds) — the cluster
    /// makespan, including every synced job clock and network charge.
    pub vclock_ns: u64,
    /// Summed deterministic kernel counters: root kernel plus every
    /// job kernel.
    pub stats: KernelStats,
    /// Summed host-scheduling-dependent counters (quarantined, may
    /// differ between identical runs).
    pub host: det_kernel::HostStats,
    /// Cluster traffic counters (migrations, leaf pulls as page
    /// equivalents, messages, bytes, cache hits).
    pub cluster: ClusterStats,
    /// Per-job artifacts, ascending by deterministic lineage path.
    pub jobs: Vec<JobArtifact>,
    /// Logical node count.
    pub nodes: u16,
    /// Physical shard count (observability only — absent from the
    /// conformance bundle by construction).
    pub shards: usize,
    /// The root kernel's full outcome (outputs, io log, …).
    pub root: RunOutcome,
}

impl ClusterOutcome {
    /// The canonical conformance bundle: every deterministic section
    /// of the outcome, serialized to stable bytes. Two runs of the
    /// same workload must produce bit-identical bundles regardless of
    /// shard count or host load; the shard count and the quarantined
    /// host counters are deliberately excluded.
    pub fn bundle_bytes(&self) -> Vec<u8> {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("[meta]\nformat=det-cluster-bundle-v2\n");
        writeln!(out, "nodes={}", self.nodes).unwrap();
        writeln!(out, "[exit]\n{:?}", self.exit).unwrap();
        writeln!(out, "[vclock]\nns={}", self.vclock_ns).unwrap();
        out.push_str("[stats-core]\n");
        for (k, v) in self.stats.lines() {
            writeln!(out, "{k}={v}").unwrap();
        }
        out.push_str("[outputs]\n");
        for (dev, bytes) in &self.root.outputs {
            let hex = serde_json::to_string(bytes).expect("bytes render");
            writeln!(out, "{dev:?}={hex}").unwrap();
        }
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(&self.cluster_sections());
        bytes
    }

    /// The `[cluster]` and `[jobs]` sections of the bundle on their
    /// own: the traffic counters and the per-job artifact table.
    /// These are invariant across shard count and host load, which is
    /// what lets a conformance scenario fold them verbatim into its
    /// replica-compared console stream.
    pub fn cluster_sections(&self) -> Vec<u8> {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("[cluster]\n");
        let ClusterStats {
            migrations,
            page_pulls,
            bytes_transferred,
            messages,
            cache_hits,
        } = self.cluster;
        writeln!(out, "migrations={migrations}").unwrap();
        writeln!(out, "page_pulls={page_pulls}").unwrap();
        writeln!(out, "bytes_transferred={bytes_transferred}").unwrap();
        writeln!(out, "messages={messages}").unwrap();
        writeln!(out, "cache_hits={cache_hits}").unwrap();
        out.push_str("[jobs]\n");
        for j in &self.jobs {
            writeln!(
                out,
                "{} node={} vclock_ps={} digest={:016x} exit={:?}",
                j.path, j.node, j.vclock_ps, j.digest, j.exit
            )
            .unwrap();
        }
        out.into_bytes()
    }
}
