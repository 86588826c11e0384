//! Every metric the benchmark reports, in one table. `BENCHMARK.json`
//! and the README's interaction table are printed from it (`manifest`,
//! `metrics` subcommands) and a unit test holds the checked-in files to
//! it, so the three cannot drift apart.

use crate::json::{Value, obj, str};
use crate::workloads::WORKLOADS;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "iter_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "Host wall time of one iteration: median over rounds of the fastest of each round of 5",
    },
    EndToEnd {
        name: "vclock_ms",
        unit: "virtual_ms",
        better: "lower",
        bound: 0.01,
        what: "Sum of the root spaces' virtual-time makespans over one iteration; exact at equal seed",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.20,
        what: "VmHWM of the workload's process at exit",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "Input generation, assembly, baseline clocks, cross-shard check and 2 warm-up iterations; median of 3 set-ups",
    },
];

/// Where a per-layer number comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// Probe: a fixed micro-loop over the layer's public functions.
    P,
    /// Span around a call the benchmark's own driver makes.
    S,
    /// Exact count from `KernelStats`/`MergeStats`/`ClusterStats`/the
    /// benchmark's own byte counts; repeats bit for bit.
    C,
    /// In-run ratio of two host times: host-independent.
    R,
    /// Derived from a count and a time.
    D,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
    /// The end-to-end metric and workload this number should move;
    /// every workload not named is predicted flat.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

use Source::{C, D, P, R, S};

const LO: &str = "lower";
const HI: &str = "higher";

/// S, C and D metrics describe the workload being run and read 0 on a
/// workload that does not do that work; P and R metrics are the same
/// probes whichever workload is named.
#[rustfmt::skip] // one metric, one line: the table is read as a table
pub const PER_LAYER: [PerLayer; 92] = [
    // memory — probes on a 1 024-page / 4 MiB space
    m("memory.snapshot_ns", "ns", LO, P, "iter_ms @ proc_fs, sync_fine"),
    m("memory.copy_aligned_ns", "ns", LO, P, "iter_ms @ proc_fs, sync_fine"),
    m("memory.cow_first_write_ns", "ns/page", LO, P, "iter_ms @ sync_fine, forkjoin_coarse"),
    m("memory.word_rw_ns", "ns", LO, P, "iter_ms @ sync_fine; flat @ forkjoin_coarse"),
    m("memory.bulk_rw_mb_s", "MB/s", HI, P, "iter_ms @ forkjoin_coarse"),
    m("memory.merge_sparse_us", "us", LO, P, "iter_ms @ sync_fine"),
    m("memory.merge_dense_us", "us", LO, P, "iter_ms @ forkjoin_coarse"),
    m("memory.merge_ref_ratio", "ratio", HI, R, "oracle guard: reference merge ÷ fast merge, sparse"),
    m("memory.delta_roundtrip_us", "us", LO, P, "iter_ms @ persist_replay, cluster_migrate"),
    m("memory.digest_mb_s", "MB/s", HI, P, "iter_ms @ persist_replay, cluster_migrate"),
    m("memory.bytes_compared", "count", LO, C, "vclock_ms @ sync_fine, forkjoin_coarse"),
    m("memory.pages_diffed", "count", LO, C, "vclock_ms @ sync_fine, forkjoin_coarse"),
    m("memory.bytes_copied", "count", LO, C, "vclock_ms @ sync_fine, forkjoin_coarse"),
    m("memory.leaves_cloned", "count", LO, C, "vclock_ms @ sync_fine, forkjoin_coarse"),
    m("memory.pages_copied", "count", LO, C, "vclock_ms @ sync_fine, forkjoin_coarse"),
    // vm
    m("vm.alu_ns_per_insn", "ns", LO, P, "iter_ms @ vm_enforced (long)"),
    m("vm.corpus_ns_per_insn", "ns", LO, P, "iter_ms @ vm_enforced (long); geomean of the four corpus kernels"),
    m("vm.tlb_miss_ns_per_insn", "ns", LO, P, "iter_ms @ vm_enforced (stride)"),
    m("vm.fast_slow_ratio", "ratio", HI, R, "oracle guard: slow_path() ÷ fast path"),
    m("vm.assemble_us", "us", LO, P, "setup_s @ vm_enforced"),
    m("vm.minsn_per_s", "M/s", HI, D, "vm.instructions ÷ iter_ms @ vm_enforced"),
    m("vm.instructions", "count", LO, C, "vclock_ms @ vm_enforced"),
    m("vm.pages_walked", "count", LO, C, "vclock_ms @ vm_enforced"),
    m("vm.icache_fills", "count", LO, C, "vclock_ms @ vm_enforced"),
    m("vm.long_ms", "ms", LO, S, "iter_ms @ vm_enforced"),
    m("vm.short_ms", "ms", LO, S, "iter_ms @ vm_enforced"),
    m("vm.stride_ms", "ms", LO, S, "iter_ms @ vm_enforced"),
    // analyze
    m("analyze.corpus_us", "us", LO, P, "iter_ms @ cluster_migrate (hinted part only)"),
    m("analyze.steps", "count", LO, C, "vclock_ms @ cluster_migrate (hinted part only)"),
    // kernel
    m("kernel.spinup_us", "us", LO, P, "iter_ms @ cluster_migrate (fresh kernel per job), persist_replay"),
    m("kernel.rt_inline_ns", "ns", LO, P, "iter_ms @ vm_enforced (short)"),
    m("kernel.rt_fused_ns", "ns", LO, P, "iter_ms @ vm_enforced (short)"),
    m("kernel.rt_native_us", "us", LO, P, "iter_ms @ sync_fine, proc_fs"),
    m("kernel.fork_join_us", "us", LO, P, "iter_ms @ sync_fine, proc_fs"),
    m("kernel.rendezvous", "count", LO, C, "vclock_ms @ sync_fine, vm_enforced"),
    m("kernel.rendezvous_per_s", "1/s", HI, D, "kernel.rendezvous ÷ iter_ms @ sync_fine"),
    m("kernel.limit_preemptions", "count", LO, C, "vclock_ms @ vm_enforced"),
    m("kernel.threads_spawned", "count", LO, C, "vclock_ms @ sync_fine"),
    m("kernel.record_overhead_ratio", "ratio", LO, R, "iter_ms @ persist_replay; live run with a TraceSink ÷ without"),
    m("kernel.trace_encode_mb_s", "MB/s", HI, S, "iter_ms @ persist_replay"),
    m("kernel.trace_decode_mb_s", "MB/s", HI, S, "iter_ms @ persist_replay (most of it today)"),
    m("kernel.replay_kevents_per_s", "k/s", HI, S, "iter_ms @ persist_replay"),
    m("kernel.ckpt_capture_us", "us", LO, S, "iter_ms @ persist_replay"),
    m("kernel.ckpt_encode_mb_s", "MB/s", HI, S, "iter_ms @ persist_replay"),
    m("kernel.ckpt_decode_mb_s", "MB/s", HI, S, "iter_ms @ persist_replay"),
    m("kernel.ckpt_restore_ms", "ms", LO, S, "iter_ms @ persist_replay"),
    m("kernel.resume_ms", "ms", LO, S, "iter_ms @ persist_replay"),
    m("kernel.trace_bytes", "count", LO, C, "kernel.trace_*_mb_s @ persist_replay"),
    m("kernel.ckpt_bytes", "count", LO, C, "kernel.ckpt_*_mb_s @ persist_replay; exact but for parallel_make's cut"),
    // runtime
    m("runtime.fork_wait_us", "us", LO, S, "iter_ms @ proc_fs; per child"),
    m("runtime.fs_write_mb_s", "MB/s", HI, S, "iter_ms @ proc_fs"),
    m("runtime.shell_script_ms", "ms", LO, S, "iter_ms @ proc_fs"),
    m("runtime.barrier_us", "us", LO, P, "iter_ms @ sync_fine; per thread-barrier"),
    m("runtime.dsched_switch_us", "us", LO, P, "iter_ms @ sync_fine (bs_fineq), cluster_migrate (dsched)"),
    // cluster
    m("cluster.storm_ms", "ms", LO, S, "iter_ms @ cluster_migrate"),
    m("cluster.prefetch_hint_ms", "ms", LO, S, "iter_ms @ cluster_migrate"),
    m("cluster.prefetch_nohint_ms", "ms", LO, S, "iter_ms @ cluster_migrate"),
    m("cluster.dsched_ms", "ms", LO, S, "iter_ms @ cluster_migrate"),
    m("cluster.md5_scan_ms", "ms", LO, S, "iter_ms @ cluster_migrate (the control)"),
    m("cluster.ms_per_migration", "ms", LO, D, "iter_ms @ cluster_migrate; storm part"),
    m("cluster.migrations", "count", LO, C, "vclock_ms @ cluster_migrate"),
    m("cluster.page_pulls", "count", LO, C, "vclock_ms @ cluster_migrate"),
    m("cluster.messages", "count", LO, C, "vclock_ms @ cluster_migrate"),
    m("cluster.bytes_transferred", "count", LO, C, "vclock_ms @ cluster_migrate (network charge)"),
    m("cluster.bytes_per_page_pulled", "B/page", LO, C, "vclock_ms @ cluster_migrate (network charge)"),
    m("cluster.hint_pull_ratio", "ratio", LO, C, "hinted ÷ unhinted page_pulls @ cluster_migrate"),
    m("cluster.speedup_2v1", "ratio", HI, R, "informational: md5_scan on 1 shard ÷ on 2, run once"),
    // conform
    m("conform.bundle_ms", "ms", LO, S, "iter_ms @ persist_replay"),
    m("conform.bundle_bytes", "count", LO, C, "conform.bundle_ms @ persist_replay"),
    m("conform.compare_ms", "ms", LO, S, "iter_ms @ persist_replay"),
    // workloads — one span per library call, and Figure 7's number
    m("workloads.md5_ms", "ms", LO, S, "iter_ms @ forkjoin_coarse"),
    m("workloads.matmult_ms", "ms", LO, S, "iter_ms @ forkjoin_coarse"),
    m("workloads.qsort_ms", "ms", LO, S, "iter_ms @ forkjoin_coarse"),
    m("workloads.blackscholes_ms", "ms", LO, S, "iter_ms @ forkjoin_coarse"),
    m("workloads.fft_ms", "ms", LO, S, "iter_ms @ sync_fine"),
    m("workloads.lu_cont_ms", "ms", LO, S, "iter_ms @ sync_fine"),
    m("workloads.lu_noncont_ms", "ms", LO, S, "iter_ms @ sync_fine"),
    m("workloads.bs_fineq_ms", "ms", LO, S, "iter_ms @ sync_fine"),
    m("workloads.rel_speed_md5", "ratio", HI, C, "vclock_ms @ forkjoin_coarse"),
    m("workloads.rel_speed_matmult", "ratio", HI, C, "vclock_ms @ forkjoin_coarse"),
    m("workloads.rel_speed_qsort", "ratio", HI, C, "vclock_ms @ forkjoin_coarse"),
    m("workloads.rel_speed_blackscholes", "ratio", HI, C, "vclock_ms @ forkjoin_coarse"),
    m("workloads.rel_speed_fft", "ratio", HI, C, "vclock_ms @ sync_fine"),
    m("workloads.rel_speed_lu_cont", "ratio", HI, C, "vclock_ms @ sync_fine"),
    m("workloads.rel_speed_lu_noncont", "ratio", HI, C, "vclock_ms @ sync_fine"),
    m("workloads.rel_speed_bs_fineq", "ratio", HI, C, "vclock_ms @ sync_fine"),
    // harness — numbers about the benchmark itself
    m("harness.samples", "count", HI, C, "untraced iterations behind the harness.* numbers of this run"),
    m("harness.iter_ms_p50", "ms", LO, S, "plain median, for comparison with the estimator"),
    m("harness.iter_ms_p75", "ms", LO, S, "highest percentile with 10 samples beyond it at 40 iterations"),
    m("harness.iter_ms_max", "ms", LO, S, "the one-sided bursts the estimator ignores"),
    m("harness.cpu_ms", "ms", LO, S, "process CPU time per iteration, all threads"),
    m("harness.trace_overhead_frac", "ratio", LO, R, "traced ÷ untraced iter_ms − 1; must stay ≤ 0.05"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|e| (e.name, e.unit))
        .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// How long one run measures. 136 runs of about 12 + 4 s and two
/// builds fit the driver's 3 420 s with a third to spare.
pub const RUN_SECONDS: u32 = 12;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj([
        (
            "command",
            Value::Arr(command.iter().map(|s| str(*s)).collect()),
        ),
        ("paths", Value::Arr(vec![str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| obj([("name", str(*name)), ("why", str(*why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|e| {
                        obj([
                            ("name", str(e.name)),
                            ("unit", str(e.unit)),
                            ("better", str(e.better)),
                            ("bound", Value::Num(e.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|p| {
                        obj([
                            ("name", str(p.name)),
                            ("unit", str(p.unit)),
                            ("better", str(p.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_json_pretty()
}

/// The README's tables, as markdown.
pub fn markdown() -> String {
    let mut out =
        String::from("| name | unit | better | bound | what it is |\n|---|---|---|---|---|\n");
    for e in &END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | +{} % | {} |\n",
            e.name,
            e.unit,
            e.better,
            e.bound * 100.0,
            e.what
        );
    }
    out += "\n| name | unit | better | source | should move |\n|---|---|---|---|---|\n";
    for p in &PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | {:?} | {} |\n",
            p.name, p.unit, p.better, p.source, p.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|e| e.name)
            .chain(PER_LAYER.iter().map(|p| p.name))
            .chain(WORKLOADS.iter().map(|(n, _)| *n))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let units = END_TO_END
            .iter()
            .map(|e| e.unit)
            .chain(PER_LAYER.iter().map(|p| p.unit));
        for unit in units {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|e| e.bound > 0.0 && e.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|e| e.name == "setup_s")
            .expect("required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
        assert_eq!(unit_of("vclock_ms"), "virtual_ms");
        assert_eq!(unit_of("memory.word_rw_ns"), "ns");
    }

    /// `BENCHMARK.json` and the README are printed from this table;
    /// regenerate them (`manifest`, `metrics`) when it changes.
    #[test]
    fn checked_in_files_match_the_table() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let manifest_file = std::fs::read_to_string(root.join("../BENCHMARK.json")).unwrap();
        assert_eq!(manifest_file, manifest());
        assert!(manifest_file.len() < 64 * 1024);
        let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
        for line in markdown().lines() {
            assert!(readme.contains(line), "README.md lacks: {line}");
        }
    }
}
