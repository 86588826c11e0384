//! `cluster_migrate` — §6.3 distribution on the real-thread shard
//! runtime (`workloads::sharded` on [`THREADS`] shards). Leaf-pull
//! migration, dirty-delta homecoming and the wire codec dominate;
//! `md5_scan` is the internal control (seven migrations, heavy compute).
//! Touched regions stay small on purpose: the wire decoder is
//! superlinear in the pages it carries (README, "Scratch findings").

use determinator::workloads::sharded::{
    ShardedConfig, ShardedResult, dsched_counter, md5_scan, migration_storm, vm_prefetch,
};

use super::{Part, THREADS, Workload, part};
use crate::seed::Rng;

/// One sharded job: part (and span) name, logical nodes, size knob, and
/// the library call.
#[derive(Clone, Copy)]
pub struct Job {
    pub name: &'static str,
    pub nodes: u16,
    pub size: u64,
    run: fn(ShardedConfig) -> ShardedResult,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(nodes {}, size {})", self.name, self.nodes, self.size)
    }
}

pub fn inputs(mut rng: Rng) -> Vec<Job> {
    let job = |name, nodes, size, run| Job {
        name,
        nodes,
        size,
        run,
    };
    vec![
        job("storm", 4, 2, migration_storm),
        job("prefetch_hint", 8, 2_048, |c| vm_prefetch(c, true)),
        job("prefetch_nohint", 8, 2_048, |c| vm_prefetch(c, false)),
        job("dsched", 4, 100, dsched_counter),
        // The other knobs are round counts and clamped word counts; the
        // scan's keyspace is the one size a few ‰ can move.
        job("md5_scan", 8, rng.jitter(100_000, 3), md5_scan),
    ]
}

impl Job {
    pub fn run_on(&self, shards: usize) -> ShardedResult {
        (self.run)(ShardedConfig {
            size: self.size,
            ..ShardedConfig::quick(self.nodes, shards)
        })
    }
}

pub struct ClusterMigrate {
    jobs: Vec<Job>,
}

impl ClusterMigrate {
    /// Also the shard-count check, once: every job's bundle on one
    /// shard must equal its bundle on [`THREADS`] shards.
    pub fn build(rng: Rng) -> Result<ClusterMigrate, String> {
        let jobs = inputs(rng);
        for job in &jobs {
            let (one, many) = (job.run_on(1), job.run_on(THREADS));
            if one.outcome.bundle_bytes() != many.outcome.bundle_bytes() {
                return Err(format!(
                    "{}: bundle differs between 1 and {THREADS} shards",
                    job.name
                ));
            }
        }
        Ok(ClusterMigrate { jobs })
    }
}

impl Workload for ClusterMigrate {
    fn iterate(&mut self) -> Vec<Part> {
        self.jobs
            .iter()
            .map(|job| {
                part("cluster", job.name, || {
                    let r = job.run_on(THREADS);
                    r.outcome
                        .exit
                        .map_err(|trap| format!("trapped: {trap:?}"))?;
                    Ok(Part {
                        checksum: r.checksum,
                        vclock_ns: r.outcome.vclock_ns,
                        stats: r.outcome.stats,
                        cluster: r.outcome.cluster,
                        ..Part::default()
                    })
                })
            })
            .collect()
    }
}
