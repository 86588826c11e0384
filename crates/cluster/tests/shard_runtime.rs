//! Integration tests for the real-thread shard runtime: fork/join
//! semantics, leaf-pull migration, clock propagation, and the
//! shard-count invariance of every deterministic quantity.

use det_cluster::{ClusterOutcome, ClusterSpec, JobSpec};
use det_memory::{Perm, Region};

const REGION: Region = Region {
    start: 0x1000,
    end: 0x9000,
};

/// Fork one job per non-root node; each squares a slot of the shared
/// region; the root merges all of them back.
fn fanout(nodes: u16, shards: usize) -> ClusterOutcome {
    ClusterSpec::new(nodes, shards).run(move |ctx, net| {
        ctx.mem_mut().map_zero(REGION, Perm::RW)?;
        for i in 0..nodes as u64 {
            ctx.mem_mut().write_u64(0x1000 + i * 8, i + 1)?;
        }
        for n in 1..net.nodes() {
            net.fork(
                ctx,
                n as u64,
                n,
                JobSpec::native(REGION, move |c, _| {
                    let v = c.mem().read_u64(0x1000 + n as u64 * 8)?;
                    c.mem_mut().write_u64(0x2000 + n as u64 * 8, v * v)?;
                    Ok(0)
                }),
            )?;
        }
        for n in 1..net.nodes() {
            let j = net.join(ctx, n as u64)?;
            assert_eq!(j.exit, Ok(0));
        }
        for n in 1..nodes as u64 {
            let want = (n + 1) * (n + 1);
            assert_eq!(ctx.mem().read_u64(0x2000 + n * 8)?, want);
        }
        Ok(0)
    })
}

#[test]
fn remote_fanout_merges_results() {
    let out = fanout(4, 2);
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.jobs.len(), 3);
    assert!(out.cluster.migrations >= 3, "{:?}", out.cluster);
    assert!(out.cluster.page_pulls >= 3, "{:?}", out.cluster);
    assert!(out.cluster.bytes_transferred > 0);
}

/// Every deterministic quantity is bit-identical across shard counts.
#[test]
fn fanout_shard_count_invariant() {
    let base = fanout(5, 1);
    let base_bundle = base.bundle_bytes();
    // The merge totals are in the compared bundle counter by counter,
    // the remapped pages included: the first job home finds the
    // root's result page still on the zero frame its base image has.
    let adopted = base.stats.merge_totals.0.pages_adopted;
    assert!(adopted >= 1, "{:?}", base.stats.merge_totals);
    let text = String::from_utf8(base_bundle.clone()).unwrap();
    assert!(
        text.contains(&format!("merge_totals.pages_adopted={adopted}\n")),
        "{text}"
    );
    for shards in [2usize, 3, 5, 8] {
        let other = fanout(5, shards);
        assert_eq!(
            base_bundle,
            other.bundle_bytes(),
            "bundle diverged at shards={shards}"
        );
        assert_eq!(base.vclock_ns, other.vclock_ns);
        assert_eq!(base.stats, other.stats);
        assert_eq!(base.cluster, other.cluster);
    }
}

/// A job forked onto the caller's own node never crosses the link:
/// pulls become cache hits and no bytes move.
#[test]
fn same_node_fork_is_free_of_traffic() {
    let out = ClusterSpec::new(2, 2).run(|ctx, net| {
        ctx.mem_mut().map_zero(REGION, Perm::RW)?;
        ctx.mem_mut().write_u64(0x1000, 21)?;
        net.fork(
            ctx,
            9,
            0, // root's own node
            JobSpec::native(REGION, |c, _| {
                let v = c.mem().read_u64(0x1000)?;
                c.mem_mut().write_u64(0x1008, v * 2)?;
                Ok(0)
            }),
        )?;
        net.join(ctx, 9)?;
        assert_eq!(ctx.mem().read_u64(0x1008)?, 42);
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(out.cluster.migrations, 0, "{:?}", out.cluster);
    assert_eq!(out.cluster.bytes_transferred, 0, "{:?}", out.cluster);
    assert!(out.cluster.cache_hits > 0, "{:?}", out.cluster);
}

/// Nested cross-node forks: a job on node 1 forks a grandchild onto
/// node 2; results propagate back through both merges. Exercises the
/// permit-release-in-join path (on 1 shard the whole chain shares one
/// permit and would deadlock without it).
#[test]
fn nested_remote_forks_propagate() {
    for shards in [1usize, 3] {
        let out = ClusterSpec::new(3, shards).run(|ctx, net| {
            ctx.mem_mut().map_zero(REGION, Perm::RW)?;
            ctx.mem_mut().write_u64(0x1000, 5)?;
            net.fork(
                ctx,
                1,
                1,
                JobSpec::native(REGION, |c, net| {
                    let v = c.mem().read_u64(0x1000)?;
                    c.mem_mut().write_u64(0x1008, v + 1)?;
                    net.fork(
                        c,
                        1,
                        2,
                        JobSpec::native(REGION, |cc, _| {
                            let v = cc.mem().read_u64(0x1008)?;
                            cc.mem_mut().write_u64(0x1010, v * 10)?;
                            Ok(0)
                        }),
                    )?;
                    net.join(c, 1)?;
                    Ok(0)
                }),
            )?;
            net.join(ctx, 1)?;
            assert_eq!(ctx.mem().read_u64(0x1010)?, 60);
            Ok(0)
        });
        assert_eq!(out.exit, Ok(0), "shards={shards}");
        assert_eq!(out.jobs.len(), 2);
        // Lineage paths are hierarchical and deterministic.
        let paths: Vec<&str> = out.jobs.iter().map(|j| j.path.as_str()).collect();
        assert_eq!(paths, ["/0:1@1", "/0:1@1/0:1@2"]);
    }
}

/// The touch set bounds the transfer: leaves outside the declared
/// access set are never pulled.
#[test]
fn touch_set_limits_leaf_pulls() {
    // One mapped page in each of 8 distinct page-table leaves
    // (leaves are 512 pages = 2 MiB apart).
    const LEAF_SPAN: u64 = 512 * 0x1000;
    let wide = Region::new(LEAF_SPAN, 9 * LEAF_SPAN);
    let run = |touch: Option<Region>| {
        ClusterSpec::new(2, 2).run(move |ctx, net| {
            for k in 1..9u64 {
                let at = k * LEAF_SPAN;
                ctx.mem_mut()
                    .map_zero(Region::new(at, at + 0x1000), Perm::RW)?;
                ctx.mem_mut().write_u64(at, k)?;
            }
            let mut spec = JobSpec::native(wide, |c, _| {
                let v = c.mem().read_u64(LEAF_SPAN)?;
                c.mem_mut().write_u64(LEAF_SPAN + 8, v + 1)?;
                Ok(0)
            });
            if let Some(t) = touch {
                spec = spec.touch(vec![t]);
            }
            net.fork(ctx, 1, 1, spec)?;
            net.join(ctx, 1)?;
            Ok(0)
        })
    };
    let full = run(None);
    let narrow = run(Some(Region::new(LEAF_SPAN, LEAF_SPAN + 0x1000)));
    assert_eq!(full.exit, Ok(0));
    assert_eq!(narrow.exit, Ok(0));
    assert!(
        narrow.cluster.page_pulls < full.cluster.page_pulls,
        "narrow={:?} full={:?}",
        narrow.cluster,
        full.cluster
    );
    assert!(narrow.cluster.bytes_transferred < full.cluster.bytes_transferred);
}

/// Clocks follow the rendezvous max rule: the root's final clock is at
/// least the remote job's effective clock including network time, and
/// a remote fork is strictly slower (in virtual time) than the same
/// fork on the root's own node.
#[test]
fn remote_fork_costs_virtual_network_time() {
    let run = |node: u16| {
        ClusterSpec::new(2, 2).run(move |ctx, net| {
            ctx.mem_mut().map_zero(REGION, Perm::RW)?;
            net.fork(
                ctx,
                0,
                node,
                JobSpec::native(REGION, |c, _| {
                    c.mem_mut().write_u64(0x1000, 1)?;
                    Ok(0)
                }),
            )?;
            net.join(ctx, 0)?;
            Ok(0)
        })
    };
    let local = run(0);
    let remote = run(1);
    assert_eq!(local.exit, Ok(0));
    assert_eq!(remote.exit, Ok(0));
    assert!(
        remote.vclock_ns > local.vclock_ns,
        "remote {} <= local {}",
        remote.vclock_ns,
        local.vclock_ns
    );
}

/// Jobs placed on distinct shards really execute concurrently: each
/// one blocks until it has seen *all* of its peers in flight, which
/// can only resolve if no layer of the runtime (fork, the job
/// vehicles, permits) serializes them. A runtime that ran jobs one at a
/// time would never let the first job past the barrier. The rendezvous
/// is host-side (an atomic the closures capture) and leaves no trace
/// in any deterministic quantity.
#[test]
fn distinct_shards_run_jobs_concurrently() {
    use std::sync::Arc;
    use std::sync::atomic::{AtomicU64, Ordering};
    const JOBS: u64 = 3;
    let in_flight = Arc::new(AtomicU64::new(0));
    let out = ClusterSpec::new(4, 4).run({
        let in_flight = Arc::clone(&in_flight);
        move |ctx, net| {
            ctx.mem_mut().map_zero(REGION, Perm::RW)?;
            for n in 1..net.nodes() {
                let in_flight = Arc::clone(&in_flight);
                net.fork(
                    ctx,
                    n as u64,
                    n,
                    JobSpec::native(REGION, move |c, _| {
                        in_flight.fetch_add(1, Ordering::SeqCst);
                        let t0 = std::time::Instant::now();
                        while in_flight.load(Ordering::SeqCst) < JOBS {
                            assert!(
                                t0.elapsed().as_secs() < 30,
                                "peers never came in flight: the runtime serializes jobs"
                            );
                            std::thread::yield_now();
                        }
                        c.mem_mut().write_u64(0x1000 + n as u64 * 8, n as u64)?;
                        Ok(0)
                    }),
                )?;
            }
            for n in 1..net.nodes() {
                net.join(ctx, n as u64)?;
            }
            Ok(0)
        }
    });
    assert_eq!(out.exit, Ok(0));
    assert_eq!(in_flight.load(std::sync::atomic::Ordering::SeqCst), JOBS);
}

/// Unknown tags and unreachable nodes are rejected deterministically.
#[test]
fn fork_join_errors() {
    let out = ClusterSpec::new(2, 1).run(|ctx, net| {
        assert!(matches!(
            net.fork(ctx, 0, 7, JobSpec::native(REGION, |_, _| Ok(0))),
            Err(det_kernel::KernelError::NodeUnreachable(7))
        ));
        assert!(net.join(ctx, 3).is_err());
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));
}

/// A write/write conflict on a remote join is the conflict a local
/// `Get`+merge reports for the same writes: the same address and
/// bytes, counted as the same merge and conflict.
#[test]
fn remote_join_conflict_is_a_local_conflict() {
    use det_kernel::{GetSpec, Kernel, KernelConfig, KernelError, MergeConflict, Program, PutSpec};
    use std::sync::{Arc, Mutex};

    const WORD: u64 = 0x2008;
    type Seen = Arc<Mutex<Option<KernelError>>>;

    let remote: Seen = Arc::default();
    let seen = Arc::clone(&remote);
    let out = ClusterSpec::new(2, 2).run(move |ctx, net| {
        ctx.mem_mut().map_zero(REGION, Perm::RW)?;
        ctx.mem_mut().write_u64(WORD, 1)?;
        let job = JobSpec::native(REGION, |c, _| {
            c.mem_mut().write_u64(WORD, 7)?;
            Ok(0)
        });
        net.fork(ctx, 1, 1, job)?;
        ctx.mem_mut().write_u64(WORD, 9)?;
        *seen.lock().unwrap() = net.join(ctx, 1).err();
        Ok(0)
    });
    assert_eq!(out.exit, Ok(0));

    let local: Seen = Arc::default();
    let seen = Arc::clone(&local);
    let local_out = Kernel::new(KernelConfig::default()).run(move |ctx| {
        ctx.mem_mut().map_zero(REGION, Perm::RW)?;
        ctx.mem_mut().write_u64(WORD, 1)?;
        let child = Program::native(|c| {
            c.mem_mut().write_u64(WORD, 7)?;
            Ok(0)
        });
        let put = PutSpec::new().program(child).copy_mirror(REGION).snap();
        ctx.put(1, put.start())?;
        ctx.mem_mut().write_u64(WORD, 9)?;
        *seen.lock().unwrap() = ctx.get(1, GetSpec::new().merge(REGION)).err();
        Ok(0)
    });
    assert_eq!(local_out.exit, Ok(0));

    let conflict = |seen: &Seen| match seen.lock().unwrap().take() {
        Some(KernelError::Conflict(c)) => c,
        other => panic!("expected a conflict, got {other:?}"),
    };
    let want = MergeConflict {
        addr: WORD,
        base: 1,
        child: 7,
        parent: 9,
    };
    assert_eq!(conflict(&local), want);
    assert_eq!(conflict(&remote), want);
    assert_eq!(
        (out.stats.conflicts, out.stats.merges),
        (local_out.stats.conflicts, local_out.stats.merges)
    );
    assert_eq!((out.stats.conflicts, out.stats.merges), (1, 1));
}

/// Jobs that are never joined still run to completion and still
/// aggregate: the root forks a job onto node 1, which forks a
/// grandchild onto node 2, and neither is joined. Both exits reach the
/// job table, both fork summaries count as migrations (no homecoming
/// does), and the bundle does not depend on the shard count.
#[test]
fn leaked_jobs_still_run_and_count() {
    let run = |shards: usize| {
        ClusterSpec::new(3, shards).run(|ctx, net| {
            ctx.mem_mut().map_zero(REGION, Perm::RW)?;
            ctx.mem_mut().write_u64(0x1000, 3)?;
            net.fork(
                ctx,
                1,
                1,
                JobSpec::native(REGION, |c, net| {
                    let v = c.mem().read_u64(0x1000)?;
                    c.mem_mut().write_u64(0x1008, v + 1)?;
                    net.fork(
                        c,
                        2,
                        2,
                        JobSpec::native(REGION, |cc, _| {
                            let v = cc.mem().read_u64(0x1008)?;
                            cc.mem_mut().write_u64(0x1010, v * 10)?;
                            Ok(7)
                        }),
                    )?;
                    Ok(4)
                }),
            )?;
            Ok(0)
        })
    };
    let base = run(1);
    assert_eq!(base.exit, Ok(0));
    let jobs: Vec<(&str, _)> = base
        .jobs
        .iter()
        .map(|j| (j.path.as_str(), j.exit))
        .collect();
    assert_eq!(jobs, [("/0:1@1", Ok(4)), ("/0:1@1/0:2@2", Ok(7))]);
    assert_eq!(base.cluster.migrations, 2, "{:?}", base.cluster);
    for shards in [2usize, 3] {
        assert_eq!(
            base.bundle_bytes(),
            run(shards).bundle_bytes(),
            "bundle diverged at shards={shards}"
        );
    }
}
