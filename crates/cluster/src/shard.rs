//! Shards: where migrated jobs compute.
//!
//! A shard is a compute permit and nothing more. Each migrated job runs
//! on a vehicle thread of its own (spawned by `Remote::fork`), in a
//! fresh `det-kernel` instance, and computes only while it holds its
//! node's shard permit. The permit models the paper's uniprocessor
//! node: at most one migrated job *computes* per shard at a time, and
//! a job blocked joining a child releases its permit (the child may
//! need this very shard).
//!
//! No thread serves the link. A leaf pull is a function call on the
//! job's own vehicle that still encodes the leaf from the frozen home
//! image, prices the wire bytes and decodes them as hostile input.
//! Nothing in this file touches virtual time or the deterministic
//! counters except through quantities that are pure functions of the
//! workload's logical-node topology — which is why every digest,
//! clock, and stat is invariant under the shard count (the
//! Lingua-Franca-style decoupling of logical time from the physical
//! schedule).

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use det_kernel::{Kernel, KernelConfig, KernelError, wire};
use det_memory::AddressSpace;

use crate::controller::{Env, JobArtifact, Remote};
use crate::protocol::{
    JobDone, JobMsg, cache_hits, decode_delta, materialize, round_trip, touched,
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

/// Runs one migrated job on its own vehicle: materialize O(touched)
/// by pulling leaves from the frozen home image, drop that image,
/// execute the job in a fresh `det-kernel` instance under its shard's
/// compute permit, then ship the dirty delta home.
pub(crate) fn run_job(env: Arc<Env>, msg: JobMsg) {
    let permit = &env.permits[env.shard_of(msg.node)];
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
        Ok(materialize(&msg.frozen, &msg.summary, &msg.touch))
    };
    drop(msg.frozen);

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
                path: msg.path,
                node,
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
}

/// Materializes a migrated space on the job's shard by pulling every
/// touched leaf of the frozen home image, one request/response round
/// trip per leaf, adding each round trip's link time to `net_ps`. The
/// leaf crosses the link as its wire bytes, so it is encoded, priced
/// and decoded exactly as a remote node would see it.
fn pull_leaves(env: &Env, msg: &JobMsg, net_ps: &mut u64) -> Result<AddressSpace, KernelError> {
    let mut mem = AddressSpace::new();
    for leaf in msg.summary.iter().filter(|l| touched(l, &msg.touch)) {
        let bytes = wire::delta_to_bytes(&msg.frozen.leaf_image(leaf.first_vpn));
        let delta = decode_delta(&bytes)?;
        *net_ps = net_ps.saturating_add(round_trip(env, bytes.len(), leaf.pages as u64));
        mem.apply_delta(&delta)?;
    }
    mem.clear_dirty();
    Ok(mem)
}
