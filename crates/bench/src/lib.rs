//! Figure/table regeneration harness for the paper's evaluation (PAPER.md §6).
//!
//! Each `fig*` function computes one figure's series in virtual time
//! and returns printable rows; the `report` binary drives them. Host
//! timings of the substrate come from `detbench` (`benchmark/`).

use det_workloads::blackscholes::{self, BsConfig};
use det_workloads::dist;
use det_workloads::fft::{self, FftConfig};
use det_workloads::lu::{self, Layout, LuConfig};
use det_workloads::matmult::{self, MatmultConfig};
use det_workloads::md5::{self, Md5Config};
use det_workloads::qsort::{self, QsortConfig};
use det_workloads::sharded::{ShardedConfig, ShardedResult};
use det_workloads::{Mode, RunResult, speedup};

/// One printable table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table id and caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("\n### {}\n\n", self.title);
        out += &format!("| {} |\n", self.headers.join(" | "));
        out += &format!("|{}\n", "---|".repeat(self.headers.len()));
        for row in &self.rows {
            out += &format!("| {} |\n", row.join(" | "));
        }
        out
    }
}

/// Problem scale for report runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Seconds-per-figure sizes for CI and quick checks.
    Quick,
    /// Paper-comparable sizes (minutes).
    Full,
}

fn thread_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![1, 2, 4, 8],
        Scale::Full => vec![1, 2, 4, 8, 12],
    }
}

/// One of the seven single-node benchmarks at the given thread count
/// and scale, under `mode`.
fn bench_run(name: &str, threads: usize, scale: Scale, mode: Mode) -> RunResult {
    match (name, scale) {
        ("md5", Scale::Quick) => md5::run(mode, Md5Config::quick(threads)),
        ("md5", Scale::Full) => md5::run(
            mode,
            Md5Config {
                threads,
                keyspace: 200_000,
                target: 173_210,
            },
        ),
        ("matmult", Scale::Quick) => matmult::run(mode, MatmultConfig { threads, n: 128 }),
        ("matmult", Scale::Full) => matmult::run(mode, MatmultConfig { threads, n: 512 }),
        ("qsort", Scale::Quick) => qsort::run(
            mode,
            QsortConfig {
                depth: threads.next_power_of_two().trailing_zeros(),
                n: 65_536,
            },
        ),
        ("qsort", Scale::Full) => qsort::run(
            mode,
            QsortConfig {
                depth: threads.next_power_of_two().trailing_zeros(),
                n: 1 << 20,
            },
        ),
        ("blackscholes", Scale::Quick) => blackscholes::run(
            mode,
            BsConfig {
                threads,
                options: 16_384,
                quantum_ns: 1_000_000,
            },
        ),
        ("blackscholes", Scale::Full) => blackscholes::run(
            mode,
            BsConfig {
                threads,
                options: 65_536,
                quantum_ns: blackscholes::PAPER_QUANTUM_NS,
            },
        ),
        ("fft", Scale::Quick) => fft::run(mode, FftConfig { threads, log2n: 13 }),
        ("fft", Scale::Full) => fft::run(mode, FftConfig { threads, log2n: 16 }),
        ("lu_cont", Scale::Quick) => lu::run(
            mode,
            LuConfig {
                threads,
                n: 128,
                layout: Layout::Contiguous,
            },
        ),
        ("lu_cont", Scale::Full) => lu::run(
            mode,
            LuConfig {
                threads,
                n: 320,
                layout: Layout::Contiguous,
            },
        ),
        ("lu_noncont", Scale::Quick) => lu::run(
            mode,
            LuConfig {
                threads,
                n: 128,
                layout: Layout::NonContiguous,
            },
        ),
        ("lu_noncont", Scale::Full) => lu::run(
            mode,
            LuConfig {
                threads,
                n: 320,
                layout: Layout::NonContiguous,
            },
        ),
        _ => unreachable!("unknown benchmark {name}"),
    }
}

/// All Figure 7/8 benchmark names.
pub const BENCHMARKS: &[&str] = &[
    "md5",
    "matmult",
    "qsort",
    "blackscholes",
    "fft",
    "lu_cont",
    "lu_noncont",
];

/// Figure 7: Determinator performance relative to the conventional
/// baseline (1.0 = parity, higher = Determinator faster). Beside each
/// ratio, what the joins did with the pages the threads wrote: how
/// many were remapped because one thread wrote them, and how many had
/// to be diffed because several did — the reason `lu_noncont` trails
/// `lu_cont`.
pub fn fig7(scale: Scale) -> Table {
    let threads = thread_counts(scale);
    let mut rows = Vec::new();
    for &name in BENCHMARKS {
        let mut row = vec![name.to_string()];
        for &t in &threads {
            let d = bench_run(name, t, scale, Mode::Determinator);
            let b = bench_run(name, t, scale, Mode::Baseline);
            let m = d.stats.merge_totals.0;
            row.push(format!(
                "{:.2} ({}/{})",
                b.vclock_ns as f64 / d.vclock_ns as f64,
                m.pages_adopted,
                m.pages_diffed
            ));
        }
        rows.push(row);
    }
    let mut headers = vec!["benchmark".into()];
    headers.extend(threads.iter().map(|t| format!("{t} cpus")));
    Table {
        title: "Figure 7 — speed relative to the nondeterministic baseline (1.0 = parity), \
                with (pages adopted/pages diffed) by the joins"
            .into(),
        headers,
        rows,
    }
}

/// Figure 8: parallel speedup over Determinator's own 1-CPU run.
pub fn fig8(scale: Scale) -> Table {
    let threads = thread_counts(scale);
    let mut rows = Vec::new();
    for &name in BENCHMARKS {
        let ns = |t| bench_run(name, t, scale, Mode::Determinator).vclock_ns;
        let base = ns(1);
        let mut row = vec![name.to_string()];
        for &t in &threads {
            row.push(format!("{:.2}", speedup(base, ns(t))));
        }
        rows.push(row);
    }
    let mut headers = vec!["benchmark".into()];
    headers.extend(threads.iter().map(|t| format!("{t} cpus")));
    Table {
        title: "Figure 8 — Determinator speedup over its own single-CPU run".into(),
        headers,
        rows,
    }
}

/// Figure 9: matmult baseline-relative speed vs matrix size.
pub fn fig9(scale: Scale) -> Table {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![16, 32, 64, 128, 256],
        Scale::Full => vec![16, 32, 64, 128, 256, 512, 1024],
    };
    let rows = sizes
        .iter()
        .map(|&n| {
            let cfg = MatmultConfig { threads: 8, n };
            let d = matmult::run(Mode::Determinator, cfg).vclock_ns;
            let b = matmult::run(Mode::Baseline, cfg).vclock_ns;
            vec![n.to_string(), format!("{:.2}", b as f64 / d as f64)]
        })
        .collect();
    Table {
        title: "Figure 9 — matmult relative speed vs matrix size (8 threads)".into(),
        headers: vec!["N".into(), "relative speed".into()],
        rows,
    }
}

/// Figure 10: qsort baseline-relative speed vs array size.
pub fn fig10(scale: Scale) -> Table {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18],
        Scale::Full => vec![
            1 << 10,
            1 << 12,
            1 << 14,
            1 << 16,
            1 << 18,
            1 << 20,
            1 << 22,
        ],
    };
    let rows = sizes
        .iter()
        .map(|&n| {
            let cfg = QsortConfig { depth: 3, n };
            let d = qsort::run(Mode::Determinator, cfg).vclock_ns;
            let b = qsort::run(Mode::Baseline, cfg).vclock_ns;
            vec![n.to_string(), format!("{:.2}", b as f64 / d as f64)]
        })
        .collect();
    Table {
        title: "Figure 10 — qsort relative speed vs array size (depth-3 fork tree)".into(),
        headers: vec!["elements".into(), "relative speed".into()],
        rows,
    }
}

fn node_counts(scale: Scale) -> Vec<u16> {
    match scale {
        Scale::Quick => vec![1, 2, 4, 8, 16],
        Scale::Full => vec![1, 2, 4, 8, 16, 32],
    }
}

/// A cluster run of `size` on `nodes` logical nodes. The figures print
/// virtual time and traffic only, which the shard count cannot move
/// (DESIGN.md §10), so every run takes two shards.
fn cluster(nodes: u16, size: u64) -> ShardedConfig {
    ShardedConfig {
        size,
        ..ShardedConfig::quick(nodes, 2)
    }
}

/// A figure run's virtual time. The figures plan no fault, so a trap
/// (matmult-tree's spot check included) is a bug, not a data point:
/// `finish`'s sentinel checksum would otherwise hide it.
fn clean_vclock(r: ShardedResult) -> u64 {
    assert!(
        r.outcome.exit.is_ok(),
        "cluster run trapped: {:?}",
        r.outcome.exit
    );
    r.outcome.vclock_ns
}

/// Figure 11: distributed speedup over 1-node execution (log-log in
/// the paper; we print the series).
pub fn fig11(scale: Scale) -> Table {
    let nodes = node_counts(scale);
    let md5_size = match scale {
        Scale::Quick => 40_000,
        Scale::Full => 400_000,
    };
    let mm_size = match scale {
        Scale::Quick => 256,
        Scale::Full => 512,
    };
    let clocks: Vec<[u64; 3]> = nodes
        .iter()
        .map(|&k| {
            [
                dist::md5_circuit(cluster(k, md5_size)),
                dist::md5_tree(cluster(k, md5_size)),
                dist::matmult_tree(cluster(k, mm_size)),
            ]
            .map(clean_vclock)
        })
        .collect();
    assert_eq!(nodes[0], 1, "the first row is the 1-node baseline");
    let one = clocks[0];
    let rows = nodes
        .iter()
        .zip(&clocks)
        .map(|(k, c)| {
            let mut row = vec![k.to_string()];
            row.extend((0..3).map(|i| format!("{:.2}", speedup(one[i], c[i]))));
            row
        })
        .collect();
    Table {
        title: "Figure 11 — distributed speedup over 1-node run".into(),
        headers: vec![
            "nodes".into(),
            "md5-circuit".into(),
            "md5-tree".into(),
            "matmult-tree".into(),
        ],
        rows,
    }
}

/// Figure 12: deterministic shared-memory benchmarks vs
/// message-passing equivalents, plus the TCP-like ablation.
pub fn fig12(scale: Scale) -> Table {
    let nodes = node_counts(scale);
    let md5_size = match scale {
        Scale::Quick => 40_000,
        Scale::Full => 400_000,
    };
    let mm_size = match scale {
        Scale::Quick => 256,
        Scale::Full => 512,
    };
    let mut rows = Vec::new();
    for &k in &nodes {
        let md5_cfg = cluster(k, md5_size);
        let det_md5 = clean_vclock(dist::md5_tree(md5_cfg.clone()));
        let mp_md5 = dist::mp_md5_ns(&md5_cfg);
        let det_md5_tcp = clean_vclock(dist::md5_tree(ShardedConfig {
            tcp_like: true,
            ..md5_cfg
        }));
        let mm_cfg = cluster(k, mm_size);
        let det_mm = clean_vclock(dist::matmult_tree(mm_cfg.clone()));
        let mp_mm = dist::mp_matmult_ns(&mm_cfg);
        rows.push(vec![
            k.to_string(),
            format!("{:.2}", mp_md5 as f64 / det_md5 as f64),
            format!("{:.2}", mp_mm as f64 / det_mm as f64),
            format!(
                "{:+.2}%",
                (det_md5_tcp as f64 / det_md5 as f64 - 1.0) * 100.0
            ),
        ]);
    }
    Table {
        title:
            "Figure 12 — Determinator shared-memory speed relative to message-passing equivalents \
             (>1.0 = Determinator faster), with TCP-like RTT ablation"
                .into(),
        headers: vec![
            "nodes".into(),
            "md5 det/mp".into(),
            "matmult det/mp".into(),
            "TCP ablation".into(),
        ],
        rows,
    }
}

/// The blackscholes quantum ablation (PAPER.md §6.2's fixed ~35 % cost at the
/// 10 M-instruction quantum, falling with larger quanta).
pub fn quantum_ablation(scale: Scale) -> Table {
    let options = match scale {
        Scale::Quick => 16_384,
        Scale::Full => 65_536,
    };
    let base = blackscholes::run(
        Mode::Baseline,
        BsConfig {
            threads: 4,
            options,
            quantum_ns: 0,
        },
    )
    .vclock_ns as f64;
    let quanta: &[u64] = &[100_000, 300_000, 1_000_000, 3_000_000, 10_000_000];
    let rows = quanta
        .iter()
        .map(|&q| {
            let d = blackscholes::run(
                Mode::Determinator,
                BsConfig {
                    threads: 4,
                    options,
                    quantum_ns: q,
                },
            )
            .vclock_ns as f64;
            vec![
                format!("{:.1} ms", q as f64 / 1e6),
                format!("{:+.1}%", (d / base - 1.0) * 100.0),
            ]
        })
        .collect();
    Table {
        title: "Quantum ablation — blackscholes dsched overhead vs quantum size (PAPER.md §6.2)"
            .into(),
        headers: vec!["quantum".into(), "overhead vs pthreads".into()],
        rows,
    }
}

/// Figure 4: the parallel-make scheduling scenario. Three tasks of 6,
/// 2 and 4 virtual ms with a 2-worker quota: Unix `wait()` (first
/// completion) packs them in 6 ms; Determinator's deterministic
/// `wait()` (earliest fork) starts task 3 only when task 1 finishes at
/// 6 ms, so the run needs 6 + 4 = 10 ms (plus the runtime's own
/// charges; the table prints 10.1 ms).
pub fn fig4() -> Table {
    use det_kernel::KernelConfig;
    use det_runtime::proc::{ProgramRegistry, run_process_tree};

    let durations_ms = [6u64, 2, 4];
    // Determinator: measured with the real runtime (quota 2).
    let out = run_process_tree(KernelConfig::default(), ProgramRegistry::new(), move |p| {
        let t1 = p.fork(move |c| {
            c.charge(durations_ms[0] * 1_000_000)?;
            Ok(1)
        })?;
        let _t2 = p.fork(move |c| {
            c.charge(durations_ms[1] * 1_000_000)?;
            Ok(2)
        })?;
        // Quota of 2: wait for "any" child before starting task 3.
        // Deterministic wait() returns t1 (earliest fork), even though
        // t2 finished long before.
        let (first, _) = p.wait()?;
        assert_eq!(first, t1);
        let _t3 = p.fork(move |c| {
            c.charge(durations_ms[2] * 1_000_000)?;
            Ok(3)
        })?;
        while p.has_children() {
            p.wait()?;
        }
        Ok(0)
    });
    let det_ms = out.vclock_ns as f64 / 1e6;
    // Unix: wait() returns the 2 ms task first, so task 3 starts at
    // 2 ms and the makespan is max(6, 2+4) = 6 ms.
    let unix_ms = 6.0;
    Table {
        title: "Figure 4 — `make -j2` schedule: 3 tasks (6/2/4 ms), 2-worker quota".into(),
        headers: vec!["system".into(), "makespan".into(), "schedule".into()],
        rows: vec![
            vec![
                "Unix (first-completion wait)".into(),
                format!("{unix_ms:.1} ms"),
                "t3 starts when t2 (2 ms) finishes".into(),
            ],
            vec![
                "Determinator (earliest-fork wait)".into(),
                format!("{det_ms:.1} ms"),
                "t3 starts only when t1 (6 ms) finishes".into(),
            ],
        ],
    }
}

/// Table 3: implementation size of this repository, in semicolon
/// lines per component (the paper's metric).
pub fn table3(repo_root: &std::path::Path) -> Table {
    let count = |sub: &str| -> u64 {
        let mut total = 0u64;
        let dir = repo_root.join(sub);
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&d) else {
                continue;
            };
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().is_some_and(|x| x == "rs") {
                    if let Ok(text) = std::fs::read_to_string(&p) {
                        total += text.lines().filter(|l| l.contains(';')).count() as u64;
                    }
                }
            }
        }
        total
    };
    let components = [
        ("Paged memory (det-memory)", "crates/memory/src"),
        ("Deterministic VM (det-vm)", "crates/vm/src"),
        ("Kernel core (det-kernel)", "crates/kernel/src"),
        ("User-level runtime (det-runtime)", "crates/runtime/src"),
        ("Shard cluster runtime (det-cluster)", "crates/cluster/src"),
        ("Workloads (det-workloads)", "crates/workloads/src"),
        (
            "Static footprint analyzer (det-analyze)",
            "crates/analyze/src",
        ),
        ("Conformance harness (det-conform)", "crates/conform/src"),
        ("Bench harness (det-bench)", "crates/bench/src"),
    ];
    let mut rows = Vec::new();
    let mut total = 0;
    for (name, path) in components {
        let n = count(path);
        total += n;
        rows.push(vec![name.to_string(), n.to_string()]);
    }
    rows.push(vec!["**Total**".into(), total.to_string()]);
    Table {
        title: "Table 3 — implementation size (semicolon lines, the paper's metric)".into(),
        headers: vec!["component".into(), "semicolons".into()],
        rows,
    }
}
