//! The gate table against what nightly's hand-written guards said.
//!
//! Until the table replaced them, nightly's bench job ran nine guard
//! steps, each an `awk` script over the pretty-printed ledger.
//! `golden/gates_749a231.txt` holds their verdicts on every checked-in
//! ledger, one line per ledger and guard (`<ledger> <guard>
//! pass|fail|missing`), recorded by running each step's script verbatim
//! at 749a231. The evaluator must reach the same verdict on every line:
//! a guard is `missing` when a metric one of its rows names is missing,
//! `fail` when a row fails, and `pass` otherwise (a skipped row passes,
//! as the shard-scaling script's skip did). A new ledger gets its
//! lines from this test's output.
//!
//! The tenth guard, `bundle-compare`, had no awk step: its line for each
//! ledger was recorded from this evaluator's output when the row was
//! added, not from a script run at 749a231.

use det_conform::gates::{self, Ledger, Verdict};

const GOLDEN: &str = include_str!("golden/gates_749a231.txt");

/// Each guard step, and the metrics of the table rows that replace it.
const GUARDS: [(&str, &[&str]); 10] = [
    ("rendezvous", &["kernel.rt_inline_ns"]),
    (
        "merge-path",
        &[
            "workloads.rel_speed_fft",
            "workloads.rel_speed_bs_fineq",
            "memory.merge_ref_ratio",
        ],
    ),
    ("word-path", &["workloads.fft_ms", "workloads.bs_fineq_ms"]),
    ("vm-fast-path", &["vm.fast_slow_ratio"]),
    ("fs-delta", &["vclock_ms"]),
    ("wire-bytes", &["cluster.bytes_per_page_pulled"]),
    ("vehicle-pool", &["kernel.fork_join_us"]),
    ("recorder-overhead", &["kernel.record_overhead_ratio"]),
    ("shard-scaling", &["cluster.speedup_2v1"]),
    ("bundle-compare", &["conform.compare_ms"]),
];

/// Every checked-in ledger, relative to the workspace root: the root's
/// `BENCH_*.json` and then `benchmark/results/`'s, each sorted by name.
fn ledgers(root: &str) -> Vec<String> {
    ["", "benchmark/results/"]
        .iter()
        .flat_map(|dir| {
            let mut names: Vec<String> = std::fs::read_dir(format!("{root}/{dir}"))
                .expect("ledger directory")
                .map(|e| {
                    e.expect("directory entry")
                        .file_name()
                        .to_string_lossy()
                        .into_owned()
                })
                .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                .map(|n| format!("{dir}{n}"))
                .collect();
            names.sort();
            names
        })
        .collect()
}

#[test]
fn every_ledger_gets_the_verdicts_of_749a231() {
    let table = gates::table().expect("gates.json parses");
    let mut rows: Vec<&str> = GUARDS.iter().flat_map(|(_, m)| m.iter().copied()).collect();
    let mut metrics: Vec<&str> = table.iter().map(|g| g.metric.as_str()).collect();
    rows.sort();
    metrics.sort();
    assert_eq!(rows, metrics, "every row belongs to exactly one guard");

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut observed = String::new();
    for path in ledgers(root) {
        let text = std::fs::read_to_string(format!("{root}/{path}")).expect("ledger reads");
        let ledger = Ledger::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        for (guard, metrics) in GUARDS {
            let judged: Vec<_> = (table.iter())
                .filter(|g| metrics.contains(&g.metric.as_str()))
                .map(|g| g.judge(&ledger))
                .collect();
            let verdict = if judged.iter().any(|(v, _)| v.is_none()) {
                "missing"
            } else if judged.iter().any(|&(_, v)| v == Verdict::Fail) {
                "fail"
            } else {
                "pass"
            };
            observed.push_str(&format!("{path} {guard} {verdict}\n"));
        }
    }
    if observed != GOLDEN {
        eprint!("observed verdicts:\n{observed}");
    }
    assert_eq!(observed, GOLDEN);
}
