//! Distributed benchmarks (§6.3, Figures 11–12): md5-circuit,
//! md5-tree, and matmult-tree over the shard cluster runtime
//! (`det_cluster::ClusterSpec`), plus the explicit message-passing
//! baselines standing in for the paper's remote-shell / TCP Linux
//! equivalents. Each takes a [`ShardedConfig`], as the
//! [`crate::sharded`] workloads do, and each program returns a
//! [`ShardedResult`].
//!
//! All three Determinator variants still program against *logically
//! shared memory*: a job sees a snapshot of its parent's region and
//! its writes come home through the join's merge — distribution is
//! only visible in the node argument of `Remote::fork`. By convention
//! the space responsible for the node range `lo..hi` runs on node
//! `lo`.

use det_cluster::{ClusterSpec, JobSpec, Remote};
use det_kernel::{Region, SpaceCtx};
use det_memory::Perm;

use crate::matmult::PS_PER_MAC;
use crate::md5::{NS_PER_HASH, candidate, md5};
use crate::sharded::{
    BASE, MD5_SLOTS, ShardedConfig, ShardedResult, finish, md5_found, md5_scan_range,
};

/// Runs `body` as the root of an md5 search for the key at 7/8 of the
/// keyspace (handing it that key's digest), then decodes the lowest
/// key any node's slot reports. A clean exit must have found the key;
/// a faulted run returns [`finish`]'s sentinel.
fn md5_search(
    cfg: ShardedConfig,
    body: impl FnOnce(&mut SpaceCtx, &Remote, [u8; 16]) -> det_kernel::Result<()> + Send + 'static,
) -> ShardedResult {
    let spec = cfg.spec();
    let nodes = spec.nodes as u64;
    let target = cfg.size * 7 / 8;
    let digest = md5(&candidate(target));
    let r = finish(spec.run(move |ctx, net| {
        ctx.mem_mut().map_zero(MD5_SLOTS, Perm::RW)?;
        body(ctx, net, digest)?;
        Ok(md5_found(ctx, nodes)? as i32)
    }));
    if r.outcome.exit.is_ok() {
        assert_eq!(r.checksum, target, "md5 search missed its preimage");
    }
    r
}

// ---------------------------------------------------------------------
// md5-circuit: the master travels to each node in turn (§6.3).
// ---------------------------------------------------------------------

/// One stop of the circuit: the master, now on node `k`, forks that
/// node's worker beside itself (a same-node fork — no link traffic),
/// sends its own continuation on to node `k + 1`, and collects both —
/// the continuation first, so the whole outbound and return trip sits
/// on the critical path as in the paper. (A flat fan-out from the root
/// is *not* a circuit on this runtime: forks are asynchronous, so it
/// would scale like the tree.)
fn circuit_stop(
    ctx: &mut SpaceCtx,
    net: &Remote,
    k: u16,
    per: u64,
    keyspace: u64,
    digest: [u8; 16],
) -> det_kernel::Result<()> {
    let lo = (k as u64 * per).min(keyspace);
    let keys = (lo, (lo + per).min(keyspace));
    let slot = BASE + k as u64 * 8;
    net.fork(
        ctx,
        0,
        k,
        JobSpec::native(MD5_SLOTS, move |c, _| md5_scan_range(c, digest, keys, slot)),
    )?;
    if k + 1 < net.nodes() {
        net.fork(
            ctx,
            1,
            k + 1,
            JobSpec::native(MD5_SLOTS, move |c, net| {
                circuit_stop(c, net, k + 1, per, keyspace, digest)?;
                Ok(0)
            }),
        )?;
        net.join(ctx, 1)?;
    }
    net.join(ctx, 0)?;
    Ok(())
}

/// Runs md5-circuit: the master migrates serially around the nodes,
/// forking one worker on each, then retraces the circuit to collect.
pub fn md5_circuit(cfg: ShardedConfig) -> ShardedResult {
    let keyspace = cfg.size;
    md5_search(cfg, move |ctx, net, digest| {
        let per = keyspace.div_ceil(net.nodes() as u64);
        circuit_stop(ctx, net, 0, per, keyspace, digest)
    })
}

// ---------------------------------------------------------------------
// md5-tree: recursive binary fan-out across the node range.
// ---------------------------------------------------------------------

fn md5_tree_node(
    ctx: &mut SpaceCtx,
    net: &Remote,
    nodes: (u16, u16),
    keys: (u64, u64),
    digest: [u8; 16],
) -> det_kernel::Result<()> {
    let ((node_lo, node_hi), (key_lo, key_hi)) = (nodes, keys);
    if node_hi - node_lo <= 1 {
        md5_scan_range(ctx, digest, keys, BASE + node_lo as u64 * 8)?;
        return Ok(());
    }
    let node_mid = node_lo + (node_hi - node_lo) / 2;
    let key_mid = key_lo + (key_hi - key_lo) / 2;
    let halves = [
        ((node_lo, node_mid), (key_lo, key_mid)),
        ((node_mid, node_hi), (key_mid, key_hi)),
    ];
    for (tag, (nodes, keys)) in halves.into_iter().enumerate() {
        net.fork(
            ctx,
            tag as u64,
            nodes.0,
            JobSpec::native(MD5_SLOTS, move |c, net| {
                md5_tree_node(c, net, nodes, keys, digest)?;
                Ok(0)
            }),
        )?;
    }
    for tag in 0..halves.len() as u64 {
        net.join(ctx, tag)?;
    }
    Ok(())
}

/// Runs md5-tree: recursive fork across nodes, results merged up the
/// tree (§6.3 — the variant that scales).
pub fn md5_tree(cfg: ShardedConfig) -> ShardedResult {
    let keyspace = cfg.size;
    md5_search(cfg, move |ctx, net, digest| {
        md5_tree_node(ctx, net, (0, net.nodes()), (0, keyspace), digest)
    })
}

// ---------------------------------------------------------------------
// matmult-tree: rows distributed recursively; the matrices cross the
// link with every remote fork.
// ---------------------------------------------------------------------

fn mm_region(n: usize) -> Region {
    let bytes = 3 * n * n * 8;
    Region::new(BASE, (BASE + bytes as u64 + 0xfff) & !0xfff)
}

fn mm_tree_node(
    ctx: &mut SpaceCtx,
    net: &Remote,
    n: usize,
    nodes: (u16, u16),
    rows: (usize, usize),
) -> det_kernel::Result<()> {
    let ((node_lo, node_hi), (row_lo, row_hi)) = (nodes, rows);
    if node_hi - node_lo <= 1 {
        // Leaf: real compute on this node, over the A stripe and the
        // whole of B that migration pulled here.
        let a = ctx
            .mem()
            .read_u64s(BASE + (row_lo * n * 8) as u64, (row_hi - row_lo) * n)?;
        let b = ctx.mem().read_u64s(BASE + (n * n * 8) as u64, n * n)?;
        let mut c_rows = vec![0u64; (row_hi - row_lo) * n];
        for i in 0..row_hi - row_lo {
            for k in 0..n {
                let aik = a[i * n + k];
                for j in 0..n {
                    c_rows[i * n + j] =
                        c_rows[i * n + j].wrapping_add(aik.wrapping_mul(b[k * n + j]));
                }
            }
        }
        ctx.mem_mut()
            .write_u64s(BASE + ((2 * n * n + row_lo * n) * 8) as u64, &c_rows)?;
        let macs = ((row_hi - row_lo) * n * n) as u64;
        ctx.charge(macs * PS_PER_MAC / 1000)?;
        return Ok(());
    }
    let node_mid = node_lo + (node_hi - node_lo) / 2;
    let row_mid = row_lo + (row_hi - row_lo) / 2;
    let halves = [
        ((node_lo, node_mid), (row_lo, row_mid)),
        ((node_mid, node_hi), (row_mid, row_hi)),
    ];
    for (tag, (nodes, rows)) in halves.into_iter().enumerate() {
        net.fork(
            ctx,
            tag as u64,
            nodes.0,
            JobSpec::native(mm_region(n), move |c, net| {
                mm_tree_node(c, net, n, nodes, rows)?;
                Ok(0)
            }),
        )?;
    }
    for tag in 0..halves.len() as u64 {
        net.join(ctx, tag)?;
    }
    Ok(())
}

/// Runs matmult-tree with recursive work distribution (§6.3 — never
/// beats one node, because every remote fork must move the matrix
/// data across the link).
pub fn matmult_tree(cfg: ShardedConfig) -> ShardedResult {
    let n = cfg.size as usize;
    finish(cfg.spec().run(move |ctx, net| {
        ctx.mem_mut().map_zero(mm_region(n), Perm::RW)?;
        let mut rng = crate::mathx::XorShift64::new(0xD157);
        let a: Vec<u64> = (0..n * n).map(|_| rng.below(1000)).collect();
        let b: Vec<u64> = (0..n * n).map(|_| rng.below(1000)).collect();
        ctx.mem_mut().write_u64s(BASE, &a)?;
        ctx.mem_mut().write_u64s(BASE + (n * n * 8) as u64, &b)?;
        mm_tree_node(ctx, net, n, (0, net.nodes()), (0, n))?;
        // Spot validation.
        let c_all = ctx.mem().read_u64s(BASE + (2 * n * n * 8) as u64, n * n)?;
        let mut spot = crate::mathx::XorShift64::new(9);
        for _ in 0..8 {
            let i = spot.below(n as u64) as usize;
            let j = spot.below(n as u64) as usize;
            let mut acc = 0u64;
            for k in 0..n {
                acc = acc.wrapping_add(a[i * n + k].wrapping_mul(b[k * n + j]));
            }
            assert_eq!(c_all[i * n + j], acc);
        }
        let mut d = det_memory::ContentDigest::new();
        for v in &c_all {
            d.update_u64(*v);
        }
        Ok((d.value() & 0x7fff_ffff) as i32)
    }))
}

// ---------------------------------------------------------------------
// Message-passing baselines (the paper's nondeterministic
// distributed-memory Linux equivalents, Fig. 12).
// ---------------------------------------------------------------------

/// Virtual makespan (ns) of the remote-shell-style md5: the master
/// sends one small job message per worker, workers scan in parallel,
/// results return as small messages.
pub fn mp_md5_ns(cfg: &ShardedConfig) -> u64 {
    let ClusterSpec { nodes, net, .. } = cfg.spec();
    let nodes = nodes as u64;
    let msg = net.message_ps(128) / 1000;
    let per = cfg.size.div_ceil(nodes);
    let scan = per * NS_PER_HASH;
    // Worker k starts after k+1 sequential job sends; all finish
    // before sequential result collection.
    let last_start = nodes * msg;
    last_start + scan + nodes * msg
}

/// Virtual makespan (ns) of the explicit-TCP matmult: the master
/// streams each worker its A stripe plus the whole of B, workers
/// compute, C stripes stream back (the data movement the paper's §6.3
/// measures at 263 lines of application code).
pub fn mp_matmult_ns(cfg: &ShardedConfig) -> u64 {
    let ClusterSpec { nodes, net, .. } = cfg.spec();
    let (nodes, n) = (nodes as u64, cfg.size);
    let stripe_bytes = n * n * 8 / nodes;
    let b_bytes = n * n * 8;
    let send = net.message_ps(stripe_bytes + b_bytes) / 1000;
    let recv = net.message_ps(stripe_bytes) / 1000;
    let compute = n * n * n / nodes * PS_PER_MAC / 1000;
    // Sends serialize at the master's NIC; computes overlap.
    nodes * send + compute + nodes * recv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(nodes: u16) -> ShardedConfig {
        ShardedConfig {
            size: 40_000,
            ..ShardedConfig::quick(nodes, 2)
        }
    }

    /// A run's virtual time. No test here plans a fault, so every run
    /// must exit cleanly: two trapped runs would agree on `finish`'s
    /// sentinel checksum.
    fn vclock(r: &ShardedResult) -> f64 {
        assert!(r.outcome.exit.is_ok(), "trapped: {:?}", r.outcome.exit);
        r.outcome.vclock_ns as f64
    }

    fn speedup(one: &ShardedResult, many: &ShardedResult) -> f64 {
        vclock(one) / vclock(many)
    }

    #[test]
    fn circuit_and_tree_find_the_key() {
        let c = md5_circuit(quick(4));
        let t = md5_tree(quick(4));
        assert_eq!(c.checksum, 40_000 * 7 / 8);
        assert_eq!(t.checksum, c.checksum);
    }

    #[test]
    fn md5_tree_scales_better_than_circuit() {
        // Fig. 11: the serial circuit pays 2·(K−1) migrations on the
        // critical path; the tree pays O(log K).
        let c1 = md5_circuit(quick(1));
        let c8 = md5_circuit(quick(8));
        let t8 = md5_tree(quick(8));
        let circuit_speedup = speedup(&c1, &c8);
        let tree_speedup = speedup(&c1, &t8);
        assert!(
            tree_speedup > circuit_speedup,
            "tree {tree_speedup} vs circuit {circuit_speedup}"
        );
        assert!(tree_speedup > 2.0, "tree must scale: {tree_speedup}");
    }

    #[test]
    fn circuit_peaks_by_eight_nodes_and_tree_keeps_climbing() {
        let c1 = md5_circuit(quick(1));
        let t1 = md5_tree(quick(1));
        let c8 = speedup(&c1, &md5_circuit(quick(8)));
        let c16 = speedup(&c1, &md5_circuit(quick(16)));
        let t8 = speedup(&t1, &md5_tree(quick(8)));
        let t16 = speedup(&t1, &md5_tree(quick(16)));
        assert!(c16 < c8, "circuit must fall off: {c8:.2} -> {c16:.2}");
        assert!(c16 < t16, "circuit {c16:.2} vs tree {t16:.2} at 16");
        assert!(t16 > t8, "tree must keep scaling: {t8:.2} -> {t16:.2}");
    }

    #[test]
    fn circuit_migrations_sit_on_the_critical_path() {
        // Out and back through every node but the first.
        for k in [2u16, 4, 8] {
            let r = md5_circuit(ShardedConfig {
                size: 4_000,
                ..quick(k)
            });
            assert!(r.outcome.exit.is_ok(), "nodes={k}: {:?}", r.outcome.exit);
            assert_eq!(
                r.outcome.cluster.migrations,
                2 * (k as u64 - 1),
                "nodes={k}"
            );
        }
    }

    #[test]
    fn key_zero_is_found() {
        // Slots hold `found + 1`, so the first key is distinguishable
        // from an empty slot.
        let digest = md5(&candidate(0));
        let out = ClusterSpec::new(2, 1).run(move |ctx, net| {
            ctx.mem_mut().map_zero(MD5_SLOTS, Perm::RW)?;
            md5_tree_node(ctx, net, (0, 2), (0, 64), digest)?;
            Ok(md5_found(ctx, 2)? as i32)
        });
        assert_eq!(out.exit, Ok(0));
    }

    #[test]
    fn matmult_tree_levels_off() {
        // Fig. 11: matmult gains little beyond ~2 nodes because the
        // matrix pages must cross the network with every fork.
        let cfg = |nodes| ShardedConfig {
            size: 96,
            ..quick(nodes)
        };
        let n1 = matmult_tree(cfg(1));
        let s: Vec<f64> = [2u16, 4, 8, 16]
            .into_iter()
            .map(|k| {
                let r = matmult_tree(cfg(k));
                assert_eq!(r.checksum, n1.checksum, "nodes={k}");
                speedup(&n1, &r)
            })
            .collect();
        assert!(
            s[2] < s[0] * 2.5,
            "matmult must level off: s2={:.2} s8={:.2}",
            s[0],
            s[2]
        );
        assert!(
            s.iter().all(|&x| x < 1.0),
            "matmult-tree never beats one node: {s:?}"
        );
    }

    #[test]
    fn tcp_ablation_under_two_percent() {
        let plain = vclock(&md5_tree(quick(4)));
        let tcp = vclock(&md5_tree(ShardedConfig {
            tcp_like: true,
            ..quick(4)
        }));
        let overhead = tcp / plain - 1.0;
        assert!(
            overhead > 0.0 && overhead < 0.02,
            "TCP-like overhead {overhead}"
        );
    }

    #[test]
    fn bundles_are_shard_count_invariant() {
        for (name, size, run) in [
            (
                "md5-circuit",
                2_000,
                md5_circuit as fn(ShardedConfig) -> ShardedResult,
            ),
            ("md5-tree", 2_000, md5_tree),
            ("matmult-tree", 24, matmult_tree),
        ] {
            let cfg = |shards| ShardedConfig {
                size,
                ..ShardedConfig::quick(4, shards)
            };
            let one = run(cfg(1));
            assert!(one.outcome.exit.is_ok(), "{name}: {:?}", one.outcome.exit);
            assert_eq!(
                one.outcome.bundle_bytes(),
                run(cfg(3)).outcome.bundle_bytes(),
                "{name} diverged between 1 and 3 shards"
            );
        }
    }

    #[test]
    fn mp_baselines_monotone() {
        // The message-passing md5 scales; mp matmult saturates.
        let md5 = |nodes| {
            mp_md5_ns(&ShardedConfig {
                size: 400_000,
                ..quick(nodes)
            })
        };
        assert!(md5(1) as f64 / md5(8) as f64 > 4.0);
        let mm = |nodes| {
            mp_matmult_ns(&ShardedConfig {
                size: 256,
                ..quick(nodes)
            })
        };
        let s2 = mm(1) as f64 / mm(2) as f64;
        let s16 = mm(1) as f64 / mm(16) as f64;
        assert!(s16 < s2 * 3.0, "mp matmult saturates: {s2} {s16}");
    }
}
