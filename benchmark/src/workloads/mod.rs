//! The six workloads. Each is a closed loop with one client: an
//! iteration runs the workload's parts one after another, checks every
//! part, and returns what it saw. Parallelism is fixed at [`THREADS`]
//! and never read from the host, so virtual time does not depend on
//! where the benchmark runs.

pub mod cluster_migrate;
pub mod persist_replay;
pub mod proc_fs;
pub mod section62;
pub mod vm_enforced;

use std::panic::{AssertUnwindSafe, catch_unwind};

use determinator::cluster::ClusterStats;
use determinator::kernel::{KernelStats, RunOutcome};
use determinator::workloads::RunResult;

use crate::span;

/// Threads per fork/join, shards per cluster: `nproc` of the host the
/// sizes were chosen on.
pub const THREADS: usize = 2;

/// `(name, why)` in the order they run.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "forkjoin_coarse",
        "Coarse-grained fork/join (md5, matmult, qsort, blackscholes): native compute dominates, so nearly every optimisation predicts no change here",
    ),
    (
        "sync_fine",
        "Fine-grained barriers (fft, lu, small-quantum blackscholes): word-granular memory access, a merge per barrier, native-thread rendezvous",
    ),
    (
        "vm_enforced",
        "Four VM children preempted by instruction limits: interpreter in long quanta, kernel boundary in short ones, translation in the stride part",
    ),
    (
        "proc_fs",
        "Make-style fork/write/wait rounds and a shell pipeline on the Unix emulation: file-system replica reconciliation is the only heavy layer",
    ),
    (
        "cluster_migrate",
        "Sharded jobs on 2 real-thread shards: leaf-pull migration, dirty-delta homecoming and the wire codec dominate; md5_scan is the control",
    ),
    (
        "persist_replay",
        "Trace encode/decode, replay, checkpoint capture/restore/resume and conform bundles: the pure apply core with no execution vehicles",
    ),
];

/// Result checksums at seed 0, by workload and part. Results only:
/// clocks, stats and bundle bytes may legitimately move in a later
/// change and are reported as metrics instead.
pub const PINNED: [(&str, &str, u64); 25] = [
    ("forkjoin_coarse", "md5", 0x85da),
    ("forkjoin_coarse", "matmult", 0x3f74_f0b9),
    ("forkjoin_coarse", "qsort", 0x23b3_3db3),
    ("forkjoin_coarse", "blackscholes", 0x3f19_5dca),
    ("sync_fine", "fft", 0x2f72_d9cb),
    ("sync_fine", "lu_cont", 0x6599_4c98),
    ("sync_fine", "lu_noncont", 0x6599_4c98),
    ("sync_fine", "bs_fineq", 0x651e_e924),
    ("vm_enforced", "long", 0x8422_2325_69e5_a403),
    ("vm_enforced", "short", 0x8422_2325_06b3_21d3),
    ("vm_enforced", "stride", 0x8422_2325_0db6_3271),
    ("proc_fs", "make", 0xe426_a45b_07c6_cb04),
    ("cluster_migrate", "storm", 0x0059_b6c3),
    ("cluster_migrate", "prefetch_hint", 0x2095_c240),
    ("cluster_migrate", "prefetch_nohint", 0x2095_c240),
    ("cluster_migrate", "dsched", 0x1518),
    ("cluster_migrate", "md5_scan", 0x0001_562d),
    ("persist_replay", "quickstart_swap", 0x73e6_be69_0000_0000),
    ("persist_replay", "parallel_make", 0x5040_e272_0000_0000),
    ("persist_replay", "vm_counter_stream", 0x8422_2325_59a8_eeba),
    ("persist_replay", "vm_sandbox", 0x1ef3_af79_0000_0000),
    ("persist_replay", "device_io", 0x54b2_9019_0000_0000),
    ("persist_replay", "wl_qsort", 0x8422_2325_6f60_123c),
    ("persist_replay", "wl_vm_qsort", 0x4e41_3b4b_50c4_a355),
    ("persist_replay", "seeded_storm", 0x8422_2325_425b_b3a2),
];

/// One checked part of one iteration — the benchmark's *operation*.
#[derive(Clone, Debug, Default)]
pub struct Part {
    pub name: &'static str,
    /// What a user of the system would see: the workload's result.
    pub checksum: u64,
    pub vclock_ns: u64,
    pub stats: KernelStats,
    pub cluster: ClusterStats,
    /// Exact counts no stats struct carries (bytes encoded, events…).
    pub counts: Vec<(&'static str, u64)>,
    /// Why the part failed: a trap, a panic, or a broken identity.
    pub error: Option<String>,
}

impl Part {
    /// The part of a library workload's own result type.
    pub fn of_run(r: RunResult) -> Part {
        Part {
            checksum: r.checksum,
            vclock_ns: r.vclock_ns,
            stats: r.stats,
            ..Part::default()
        }
    }

    /// The part of a kernel run the benchmark drove itself: the result
    /// is the root's exit code and everything it wrote to the console.
    pub fn of_outcome(out: RunOutcome) -> Result<Part, String> {
        let code = out.exit.map_err(|trap| format!("trapped: {trap:?}"))?;
        Ok(Part {
            checksum: code as u64 ^ (digest(out.console()) << 32),
            vclock_ns: out.vclock_ns,
            stats: out.stats,
            ..Part::default()
        })
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, v)| *v)
    }

    /// Whether everything that must repeat exactly from one iteration
    /// to the next does: the result, the virtual clock and the full
    /// stats vector. Not `counts`: a checkpoint cut at a fixed event
    /// index falls on a host-ordered interleaving of concurrent
    /// children, so its size may differ by a few bytes run to run.
    pub fn repeats(&self, first: &Part) -> bool {
        self.checksum == first.checksum
            && self.vclock_ns == first.vclock_ns
            && self.stats == first.stats
            && self.cluster == first.cluster
    }
}

/// Runs one part under a span, turning a panic (the library's workloads
/// assert their own results) or an error into a failed operation.
pub fn part(
    layer: &'static str,
    name: &'static str,
    body: impl FnOnce() -> Result<Part, String>,
) -> Part {
    let _span = span::enter(layer, name);
    let error = match catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok(part)) => return Part { name, ..part },
        Ok(Err(e)) => e,
        Err(_) => "panicked".to_string(),
    };
    Part {
        name,
        error: Some(error),
        ..Part::default()
    }
}

/// FNV-1a of `bytes`, for folding outputs into a result checksum.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut d = determinator::memory::ContentDigest::new();
    d.update(bytes);
    d.value()
}

pub trait Workload {
    /// Runs every part once.
    fn iterate(&mut self) -> Vec<Part>;

    /// Exact per-layer values the workload can state given one
    /// iteration's parts (the paper's relative-speed figures).
    fn fixed_metrics(&self, _parts: &[Part]) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Builds `name`'s inputs from `seed` and everything else an iteration
/// needs (assembled images, baseline-mode clocks, cross-shard checks).
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    let rng = crate::seed::Rng::for_workload(seed, name);
    Ok(match name {
        "forkjoin_coarse" => Box::new(section62::Section62::forkjoin_coarse(rng)),
        "sync_fine" => Box::new(section62::Section62::sync_fine(rng)),
        "vm_enforced" => Box::new(vm_enforced::VmEnforced::build(rng)?),
        "proc_fs" => Box::new(proc_fs::ProcFs::build(rng)),
        "cluster_migrate" => Box::new(cluster_migrate::ClusterMigrate::build(rng)?),
        "persist_replay" => Box::new(persist_replay::PersistReplay::build(rng)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_or_failing_part_is_a_failed_operation_not_a_crash() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let panicked = part("l", "boom", || panic!("wrong checksum"));
        std::panic::set_hook(hook);
        assert_eq!(panicked.error.as_deref(), Some("panicked"));
        let failed = part("l", "trap", || Err("trapped".into()));
        assert_eq!(
            (failed.name, failed.error.as_deref()),
            ("trap", Some("trapped"))
        );
        let fine = part("l", "ok", || {
            Ok(Part {
                checksum: 7,
                ..Part::default()
            })
        });
        assert_eq!((fine.name, fine.checksum, fine.error), ("ok", 7, None));
    }

    /// Every workload's inputs as text, straight from its `inputs`.
    fn inputs_of(seed: u64) -> Vec<String> {
        let rng = |w| crate::seed::Rng::for_workload(seed, w);
        vec![
            format!("{:?}", section62::coarse_inputs(rng("forkjoin_coarse"))),
            format!("{:?}", section62::fine_inputs(rng("sync_fine"))),
            format!("{:?}", vm_enforced::inputs(rng("vm_enforced"))),
            format!("{:?}", proc_fs::inputs(rng("proc_fs"))),
            format!("{:?}", cluster_migrate::inputs(rng("cluster_migrate"))),
            format!("{:?}", persist_replay::inputs(rng("persist_replay"))),
        ]
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed_and_every_seed_differs() {
        assert_eq!(inputs_of(0), inputs_of(0));
        assert_eq!(inputs_of(31337), inputs_of(31337));
        for (a, b) in inputs_of(1).iter().zip(&inputs_of(2)) {
            assert_ne!(a, b, "two seeds, one input");
        }
    }

    #[test]
    fn a_seed_moves_sizes_by_a_few_per_mille_only() {
        for seed in 0..200 {
            let rng = |w| crate::seed::Rng::for_workload(seed, w);
            let c = section62::coarse_inputs(rng("forkjoin_coarse"));
            assert!(c.md5.keyspace.abs_diff(100_000) <= 300 && c.md5.target < c.md5.keyspace);
            assert!(c.blackscholes.options.abs_diff(65_536) <= 197);
            let v = vm_enforced::inputs(rng("vm_enforced"));
            assert!(v.long_quantum_ns.abs_diff(100_000) <= 300);
            assert!(v.short_quantum_ns.abs_diff(2_000) <= 6);
            let p = proc_fs::inputs(rng("proc_fs"));
            assert!(p.shapes[0].len.abs_diff(16_000) <= 48 && p.shapes[0].len < 16 * 1024);
            assert!(p.bytes.len() > p.shapes[0].len);
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(build("nope", 0).is_err());
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 6);
        assert!(
            WORKLOADS
                .iter()
                .all(|(_, why)| why.len() <= 200 && !why.contains('\n'))
        );
    }
}
