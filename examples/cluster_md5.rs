//! Distributed md5 cracking via space migration (PAPER.md §3.3, §6.3): the same
//! shared-memory program, spread across the shard cluster's logical
//! nodes by nothing more than the node argument of `Remote::fork`.
//! Speedups are virtual time over a simulated gigabit link.
//!
//! ```sh
//! cargo run --release --example cluster_md5
//! ```

use determinator::workloads::dist;
use determinator::workloads::sharded::{ShardedConfig, ShardedResult};

fn main() {
    let size = 40_000;
    println!("searching a {size}-key space for a planted MD5 preimage\n");
    println!("nodes | circuit speedup | tree speedup | (over 1-node local run)");
    // Two shards (compute permits): the shard count moves wall-clock
    // time only.
    let cfg = |nodes| ShardedConfig {
        size,
        ..ShardedConfig::quick(nodes, 2)
    };
    // No fault is planned, so every run must exit cleanly.
    let vclock = |r: ShardedResult| {
        assert!(r.outcome.exit.is_ok(), "trapped: {:?}", r.outcome.exit);
        r.outcome.vclock_ns
    };
    let base = vclock(dist::md5_tree(cfg(1)));
    for nodes in [1u16, 2, 4, 8, 16] {
        let circuit = vclock(dist::md5_circuit(cfg(nodes)));
        let tree = vclock(dist::md5_tree(cfg(nodes)));
        println!(
            "{nodes:>5} | {:>15.2} | {:>12.2} |",
            base as f64 / circuit as f64,
            base as f64 / tree as f64,
        );
    }
    println!(
        "\nthe serial circuit peaks by 8 nodes and then falls (the master's 2(K-1)\n\
         migrations sit on the critical path); recursive tree distribution keeps\n\
         scaling, as in the paper's Figure 11"
    );
}
