//! Shard hosts: the data-plane half of the real-thread cluster.
//!
//! Each shard is one OS host thread plus a compute permit. The host
//! thread never computes user work — it dispatches migrated jobs onto
//! fresh vehicle threads and serves leaf pulls from the frozen images
//! it is home to, so a shard stays responsive to the network while its
//! resident job crunches. The permit models the paper's uniprocessor
//! node: at most one migrated job *computes* per shard at a time, and
//! a job blocked joining a child releases its permit (the child may
//! need this very shard).
//!
//! Nothing in this file touches virtual time or the deterministic
//! counters except through quantities that are pure functions of the
//! workload's logical-node topology — which is why every digest,
//! clock, and stat is invariant under the shard count (the
//! Lingua-Franca-style decoupling of logical time from the physical
//! schedule).

use std::sync::Arc;
use std::sync::mpsc;

use parking_lot::{Condvar, Mutex};

use det_kernel::{Kernel, KernelConfig, KernelError, wire};
use det_memory::AddressSpace;

use crate::controller::{Env, JobArtifact, Remote};
use crate::protocol::{
    HostMsg, JobDone, JobMsg, cache_hits, decode_delta, materialize, round_trip, touched,
};

/// A counting permit (capacity 1 per shard): the uniprocessor-node
/// compute token. Thread-agnostic by design — a job releases it while
/// blocked in a join and may reacquire from the same or another
/// thread.
pub(crate) struct Permit {
    free: Mutex<usize>,
    cv: Condvar,
}

impl Permit {
    pub(crate) fn new(capacity: usize) -> Permit {
        Permit {
            free: Mutex::new(capacity),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn acquire(&self) {
        let mut g = self.free.lock();
        while *g == 0 {
            self.cv.wait(&mut g);
        }
        *g -= 1;
    }

    pub(crate) fn release(&self) {
        *self.free.lock() += 1;
        self.cv.notify_one();
    }
}

/// The shard host loop: dispatch jobs, serve leaf pulls, drain on
/// shutdown. Joins every job vehicle it spawned before exiting (the
/// controller only sends `Shutdown` once all jobs have completed, so
/// this never blocks on a pull served by an already-stopped peer).
pub(crate) fn host_loop(env: Arc<Env>, shard: usize, rx: mpsc::Receiver<HostMsg>) {
    let mut vehicles = Vec::new();
    for msg in rx.iter() {
        match msg {
            HostMsg::Submit(job) => {
                let env2 = Arc::clone(&env);
                let name = format!("shard{shard}-job{}", job.job_id);
                vehicles.push(
                    std::thread::Builder::new()
                        .name(name)
                        .spawn(move || run_job(env2, *job))
                        .expect("spawn job vehicle"),
                );
            }
            HostMsg::PullLeaf {
                job,
                first_vpn,
                reply,
            } => {
                // Data plane: encode the leaf from the frozen home
                // image and ship it. Canonical encoding → the byte
                // count every replica charges for is identical.
                let bytes = wire::delta_to_bytes(&env.frozen_leaf(shard, job, first_vpn));
                let _ = reply.send(bytes);
            }
            HostMsg::Shutdown => break,
        }
    }
    for v in vehicles {
        let _ = v.join();
    }
}

/// Runs one migrated job: materialize O(touched) by pulling leaves
/// from the home shard, execute it in a fresh `det-kernel` instance
/// under this shard's compute permit, then ship the dirty delta home.
fn run_job(env: Arc<Env>, msg: JobMsg) {
    let shard = env.shard_of(msg.node);
    let permit = Arc::clone(&env.permits[shard]);
    permit.acquire();

    // --- Materialize the migrated space, leaf by leaf. ---
    let mut net_ps = 0u64;
    let mem = if msg.node != msg.home_node {
        pull_leaves(&env, &msg, &mut net_ps)
    } else {
        // Same-node fork: the image never crosses the link. Count the
        // avoided pulls as cache hits.
        let pages: u64 = msg
            .summary
            .iter()
            .filter(|l| touched(l, &msg.touch))
            .map(|l| l.pages as u64)
            .sum();
        cache_hits(&env, pages);
        Ok(env.with_frozen(msg.home_shard, msg.job_id, |frozen| {
            materialize(frozen, &msg.summary, &msg.touch)
        }))
    };

    // --- Execute in a fresh kernel shard. ---
    let start_ps = msg.start_vclock_ps.saturating_add(net_ps);
    // (vclock, digest, wire delta) of the going-home state.
    let capture = Arc::new(Mutex::new(None::<(u64, u64, Vec<u8>)>));
    let cap = Arc::clone(&capture);
    let env2 = Arc::clone(&env);
    let (node, path, program) = (msg.node, msg.path.clone(), msg.program);
    // A job kernel is unprivileged: no I/O, no fault injection.
    let outcome = Kernel::new(KernelConfig::default()).run(move |ctx| {
        ctx.sync_vclock_ps(start_ps);
        // A leaf that came over the link damaged fails the job before
        // it runs: it comes home with that trap and an empty delta.
        let mut mem = mem?;
        let base = mem.clone();
        std::mem::swap(ctx.mem_mut(), &mut mem);
        let remote = Remote::new(env2, node, path);
        let res = program(ctx, &remote);
        // Capture the going-home state before the kernel tears the
        // space down — on success and on a clean error alike.
        let delta = ctx.mem().delta_since(&base);
        *cap.lock() = Some((
            ctx.vclock_ps(),
            ctx.mem().content_digest().value(),
            wire::delta_to_bytes(&delta),
        ));
        res
    });
    // A panicking program unwinds past the capture; come home with an
    // empty delta and the trap exit (deterministic either way).
    let (vclock_ps, digest, delta) =
        capture
            .lock()
            .take()
            .unwrap_or((det_kernel::ns_to_ps(outcome.vclock_ns), 0, Vec::new()));

    {
        let mut agg = env.agg.lock();
        agg.stats.accumulate(&outcome.stats);
        agg.host.spurious_wakeups += outcome.host.spurious_wakeups;
        agg.host.os_threads_created += outcome.host.os_threads_created;
        agg.jobs.insert(
            msg.path.clone(),
            JobArtifact {
                path: msg.path.clone(),
                node: msg.node,
                vclock_ps,
                digest,
                exit: outcome.exit,
            },
        );
    }

    permit.release();
    let _ = msg.reply.send(JobDone {
        exit: outcome.exit,
        vclock_ps,
        digest,
        delta,
    });
    env.job_done();
}

/// Materializes a migrated space on the job's shard by pulling every
/// touched leaf from the home shard, one request/response round trip
/// per leaf, adding each round trip's link time to `net_ps`.
fn pull_leaves(env: &Env, msg: &JobMsg, net_ps: &mut u64) -> Result<AddressSpace, KernelError> {
    let mut mem = AddressSpace::new();
    for leaf in &msg.summary {
        if !touched(leaf, &msg.touch) {
            continue;
        }
        let (txr, rxr) = mpsc::channel();
        env.send(
            msg.home_shard,
            HostMsg::PullLeaf {
                job: msg.job_id,
                first_vpn: leaf.first_vpn,
                reply: txr,
            },
        );
        let bytes = rxr
            .recv()
            .expect("home shard serves pulls until every job completes");
        let delta = decode_delta(&bytes)?;
        *net_ps = net_ps.saturating_add(round_trip(env, bytes.len(), leaf.pages as u64));
        mem.apply_delta(&delta)?;
    }
    mem.clear_dirty();
    Ok(mem)
}
