//! Distributed md5 cracking via space migration (PAPER.md §3.3, §6.3): the same
//! shared-memory program, spread across the shard cluster's logical
//! nodes by nothing more than the node argument of `Remote::fork`.
//! Speedups are virtual time over a simulated gigabit link.
//!
//! ```sh
//! cargo run --release --example cluster_md5
//! ```

use determinator::workloads::dist::{self, DistConfig};

fn main() {
    let size = 40_000;
    println!("searching a {size}-key space for a planted MD5 preimage\n");
    println!("nodes | circuit speedup | tree speedup | (over 1-node local run)");
    let base = dist::md5_tree(DistConfig {
        nodes: 1,
        size,
        tcp_like: false,
    })
    .vclock_ns;
    for nodes in [1u16, 2, 4, 8, 16] {
        let cfg = DistConfig {
            nodes,
            size,
            tcp_like: false,
        };
        let circuit = dist::md5_circuit(cfg);
        let tree = dist::md5_tree(cfg);
        println!(
            "{nodes:>5} | {:>15.2} | {:>12.2} |",
            base as f64 / circuit.vclock_ns as f64,
            base as f64 / tree.vclock_ns as f64,
        );
    }
    println!(
        "\nthe serial circuit peaks by 8 nodes and then falls (the master's 2(K-1)\n\
         migrations sit on the critical path); recursive tree distribution keeps\n\
         scaling, as in the paper's Figure 11"
    );
}
