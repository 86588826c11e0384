//! The cluster control plane: job placement, lifecycle, and the
//! deterministic accounting seam.
//!
//! The controller decouples **logical nodes** from **physical
//! shards**. A workload addresses logical nodes (`0..nodes`), and
//! every deterministic quantity — virtual clocks, migration and
//! message counts, transfer bytes, digests — is a pure function of
//! the workload and that logical topology. Shards (`0..shards`, each
//! one OS host thread plus a compute permit) are merely where logical
//! nodes execute: node `n` runs on shard `n % shards`. Changing the
//! shard count changes wall-clock time and nothing else, which is the
//! invariant the shard-count conformance suite pins.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

use parking_lot::Mutex;

use det_kernel::{
    ConflictPolicy, CostModel, FaultPlan, Kernel, KernelConfig, KernelError, KernelStats,
    MergeStats, NativeResult, Result, RunOutcome, SpaceCtx, TrapKind,
};
use det_memory::{AddressSpace, Region};

use crate::ClusterStats;
use crate::net::NetworkModel;
use crate::protocol::{self, HostMsg, JobDone, JobFn, JobMsg};
use crate::shard::{Permit, host_loop};

/// Configuration of a real-thread shard cluster run.
#[derive(Clone)]
pub struct ClusterSpec {
    /// Logical nodes the workload addresses. Fixed by the workload:
    /// determines every deterministic quantity.
    pub nodes: u16,
    /// Physical shards (OS host threads). Affects wall-clock time
    /// only.
    pub shards: usize,
    /// The simulated-latency link between nodes.
    pub net: NetworkModel,
    /// Virtual-time cost model for every kernel instance.
    pub costs: CostModel,
    /// Merge conflict policy for every kernel instance.
    pub policy: ConflictPolicy,
    /// Fault-injection plan for the root kernel.
    pub faults: FaultPlan,
}

impl ClusterSpec {
    /// A cluster of `nodes` logical nodes on `shards` host threads,
    /// with gigabit-Ethernet link parameters and default kernel
    /// configuration.
    pub fn new(nodes: u16, shards: usize) -> ClusterSpec {
        ClusterSpec {
            nodes,
            shards,
            net: NetworkModel::ethernet_1g(),
            costs: CostModel::default(),
            policy: ConflictPolicy::default(),
            faults: FaultPlan::default(),
        }
    }

    /// Runs `root` as the cluster's root space (node 0, with I/O
    /// privileges) and drives the whole run to completion: spawns the
    /// shard hosts, executes every migrated job, waits for stragglers,
    /// and folds all per-kernel statistics into one deterministic
    /// [`ClusterOutcome`].
    pub fn run<F>(self, root: F) -> ClusterOutcome
    where
        F: FnOnce(&mut SpaceCtx, &Remote) -> NativeResult + Send + 'static,
    {
        assert!(self.nodes >= 1, "a cluster needs at least one node");
        assert!(self.shards >= 1, "a cluster needs at least one shard");
        let nodes = self.nodes;
        let shards = self.shards;
        let root_kcfg = KernelConfig::builder()
            .costs(self.costs)
            .policy(self.policy)
            .faults(self.faults.clone())
            .build();

        let (env, hosts) = Env::start(self);
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
        // stats still aggregate; hosts shut down only when the last
        // one has drained, so in-flight leaf pulls are always served.
        while env.outstanding.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
        for s in 0..shards {
            env.send(s, HostMsg::Shutdown);
        }
        for h in hosts {
            let _ = h.join();
        }

        let agg = std::mem::take(&mut *env.agg.lock());
        let cluster = *env.cluster.lock();
        let mut stats = outcome.stats.clone();
        add_kernel_stats(&mut stats, &agg.stats);
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

/// Shared cluster state: links to every shard host, compute permits,
/// frozen home images, and the deterministic aggregate accumulators.
pub(crate) struct Env {
    pub(crate) spec: ClusterSpec,
    links: Vec<Mutex<mpsc::Sender<HostMsg>>>,
    pub(crate) permits: Vec<Arc<Permit>>,
    /// Per-shard frozen images of in-flight migrations, keyed by job
    /// id — the "home node keeps the pages" half of demand paging.
    stores: Vec<Mutex<BTreeMap<u64, AddressSpace>>>,
    next_job: AtomicU64,
    pub(crate) outstanding: AtomicU64,
    pub(crate) cluster: Mutex<ClusterStats>,
    pub(crate) agg: Mutex<Agg>,
}

impl Env {
    fn start(spec: ClusterSpec) -> (Arc<Env>, Vec<std::thread::JoinHandle<()>>) {
        let shards = spec.shards;
        let mut links = Vec::with_capacity(shards);
        let mut rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::channel();
            links.push(Mutex::new(tx));
            rxs.push(rx);
        }
        let env = Arc::new(Env {
            spec,
            links,
            permits: (0..shards).map(|_| Arc::new(Permit::new(1))).collect(),
            stores: (0..shards).map(|_| Mutex::new(BTreeMap::new())).collect(),
            next_job: AtomicU64::new(0),
            outstanding: AtomicU64::new(0),
            cluster: Mutex::new(ClusterStats::default()),
            agg: Mutex::new(Agg::default()),
        });
        let hosts = rxs
            .into_iter()
            .enumerate()
            .map(|(s, rx)| {
                let env2 = Arc::clone(&env);
                std::thread::Builder::new()
                    .name(format!("shard{s}-host"))
                    .spawn(move || host_loop(env2, s, rx))
                    .expect("spawn shard host")
            })
            .collect();
        (env, hosts)
    }

    /// The placement map: logical node → physical shard.
    pub(crate) fn shard_of(&self, node: u16) -> usize {
        node as usize % self.spec.shards
    }

    pub(crate) fn send(&self, shard: usize, msg: HostMsg) {
        self.links[shard]
            .lock()
            .send(msg)
            .expect("shard host outlives every sender");
    }

    /// One leaf of a frozen home image, for a pull response.
    pub(crate) fn frozen_leaf(
        &self,
        shard: usize,
        job: u64,
        first_vpn: u64,
    ) -> det_memory::SpaceDelta {
        self.stores[shard]
            .lock()
            .get(&job)
            .expect("frozen image registered before any pull")
            .leaf_image(first_vpn)
    }

    /// Runs `f` against a frozen home image (same-node materialization
    /// path — no link crossing).
    pub(crate) fn with_frozen<T>(
        &self,
        shard: usize,
        job: u64,
        f: impl FnOnce(&AddressSpace) -> T,
    ) -> T {
        f(self.stores[shard]
            .lock()
            .get(&job)
            .expect("frozen image registered before the job runs"))
    }

    /// Kernel configuration for migrated job kernels: identical
    /// deterministic knobs to the root, no I/O or fault injection
    /// (jobs are unprivileged).
    pub(crate) fn job_kernel_config(&self) -> KernelConfig {
        KernelConfig::builder()
            .costs(self.spec.costs)
            .policy(self.spec.policy)
            .build()
    }

    pub(crate) fn job_done(&self) {
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
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

impl Agg {
    pub(crate) fn add_stats(&mut self, s: &KernelStats) {
        add_kernel_stats(&mut self.stats, s);
    }
}

/// Field-by-field sum (the exhaustive destructuring makes adding a
/// `KernelStats` field without deciding its aggregation a compile
/// error).
fn add_kernel_stats(a: &mut KernelStats, b: &KernelStats) {
    let KernelStats {
        puts,
        gets,
        put_gets,
        rets,
        traps,
        limit_preemptions,
        spaces_created,
        threads_spawned,
        pages_copied,
        pages_snapped,
        leaves_cloned,
        merges,
        merge_totals,
        conflicts,
        migrations,
        device_reads,
        device_write_bytes,
        vm_instructions,
        vm_tlb_hits,
        vm_pages_walked,
        vm_icache_hits,
        vm_icache_fills,
        condvar_wakeups,
        vm_inline_runs,
        checkpoints,
        checkpoint_leaves,
    } = b;
    a.puts += puts;
    a.gets += gets;
    a.put_gets += put_gets;
    a.rets += rets;
    a.traps += traps;
    a.limit_preemptions += limit_preemptions;
    a.spaces_created += spaces_created;
    a.threads_spawned += threads_spawned;
    a.pages_copied += pages_copied;
    a.pages_snapped += pages_snapped;
    a.leaves_cloned += leaves_cloned;
    a.merges += merges;
    a.merge_totals.0.accumulate(&merge_totals.0);
    a.conflicts += conflicts;
    a.migrations += migrations;
    a.device_reads += device_reads;
    a.device_write_bytes += device_write_bytes;
    a.vm_instructions += vm_instructions;
    a.vm_tlb_hits += vm_tlb_hits;
    a.vm_pages_walked += vm_pages_walked;
    a.vm_icache_hits += vm_icache_hits;
    a.vm_icache_fills += vm_icache_fills;
    a.condvar_wakeups += condvar_wakeups;
    a.vm_inline_runs += vm_inline_runs;
    a.checkpoints += checkpoints;
    a.checkpoint_leaves += checkpoint_leaves;
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
    job_id: u64,
    home_shard: usize,
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

    /// Declares the job's access set from a static analysis result
    /// (DESIGN.md §11): a bounded footprint becomes a prefetch hint —
    /// exactly the pages the analyzer proved sufficient — while an
    /// unbounded one leaves the spec unhinted (pull everything the
    /// region summarizes). Soundness of the analysis is what makes
    /// this safe: the hint can never exclude a page the job touches.
    pub fn touch_footprint(self, fp: &det_kernel::Footprint) -> JobSpec {
        match fp.touch_regions() {
            Some(regions) => self.touch(regions),
            None => self,
        }
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
    /// over the link, and lets the target shard pull exactly the
    /// leaves it needs. Charges the caller the clone work plus — for a
    /// cross-node fork — the migration summary message.
    pub fn fork(&self, ctx: &mut SpaceCtx, tag: u64, node: u16, spec: JobSpec) -> Result<()> {
        let env = &self.env;
        if node >= env.spec.nodes {
            return Err(KernelError::NodeUnreachable(node));
        }
        if self.pending.lock().contains_key(&tag) {
            return Err(KernelError::ChildActive);
        }
        let costs = env.spec.costs;

        // Freeze the child's initial image: O(touched leaves).
        let mut img = AddressSpace::new();
        let cs = img.copy_from_counted(ctx.mem(), spec.region, spec.region.start)?;
        ctx.charge_ps(
            costs
                .syscall_ps
                .saturating_add(costs.spawn_ps)
                .saturating_add(costs.copy_cost_ps(&cs)),
        )?;

        let summary = img.leaf_summary();
        let total_pages: u64 = summary.iter().map(|l| l.pages as u64).sum();
        let remote_xfer = node != self.node;
        if remote_xfer {
            let sb = protocol::summary_bytes(total_pages);
            {
                let mut cl = env.cluster.lock();
                cl.migrations += 1;
                cl.messages += 1;
                cl.bytes_transferred += sb;
            }
            ctx.note_migration(env.spec.net.message_ps(sb))?;
        }

        let job_id = env.next_job.fetch_add(1, Ordering::Relaxed) + 1;
        let home_shard = env.shard_of(self.node);
        // Reconstruct the job's materialized base locally — the same
        // deterministic function the job shard applies, so snapshot
        // and remote image are bit-identical.
        let base = protocol::materialize(&img, &summary, &spec.touch);
        env.stores[home_shard].lock().insert(job_id, img);

        let ordinal = self.forks.fetch_add(1, Ordering::Relaxed);
        let path = format!("{}/{}:{}@{}", self.path, ordinal, tag, node);
        let (reply, rx) = mpsc::channel();
        env.outstanding.fetch_add(1, Ordering::SeqCst);
        env.send(
            env.shard_of(node),
            HostMsg::Submit(Box::new(JobMsg {
                job_id,
                path,
                node,
                home_shard,
                home_node: self.node,
                program: spec.program,
                region: spec.region,
                touch: spec.touch,
                summary,
                start_vclock_ps: ctx.vclock_ps(),
                reply,
            })),
        );
        self.pending.lock().insert(
            tag,
            Pending {
                rx,
                base,
                region: spec.region,
                node,
                job_id,
                home_shard,
            },
        );
        Ok(())
    }

    /// Joins a forked job: blocks until it comes home (releasing this
    /// shard's compute permit while blocked — the child may need it),
    /// syncs the caller's clock by the rendezvous max rule, and
    /// three-way-merges the job's dirty delta into the caller's
    /// `region` exactly like a local `Get`+merge.
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
        env.stores[p.home_shard].lock().remove(&p.job_id);

        let costs = env.spec.costs;
        ctx.charge_ps(costs.syscall_ps.saturating_add(costs.rendezvous_ps))?;
        let delta = if done.delta.is_empty() {
            det_memory::SpaceDelta::default()
        } else {
            protocol::decode_delta(&done.delta)?
        };

        let remote_xfer = p.node != self.node;
        let mut child_eff = done.vclock_ps;
        if remote_xfer {
            // The homecoming: a get-request and the dirty-delta
            // response, after which the migrated space is gone — its
            // results live on via the merge.
            let resp_bytes = protocol::HEADER_BYTES + done.delta.len() as u64;
            {
                let mut cl = env.cluster.lock();
                cl.migrations += 1;
                cl.messages += 2;
                cl.bytes_transferred += protocol::HEADER_BYTES + resp_bytes;
                cl.page_pulls += delta.pages.len() as u64;
            }
            child_eff = child_eff
                .saturating_add(env.spec.net.message_ps(protocol::HEADER_BYTES))
                .saturating_add(env.spec.net.message_ps(resp_bytes));
            ctx.note_migration(0)?;
        }
        ctx.sync_vclock_ps(child_eff)?;

        let mut child_final = p.base.clone();
        child_final.apply_delta(&delta)?;
        let merge = ctx.merge_remote(&child_final, &p.base, p.region)?;
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
