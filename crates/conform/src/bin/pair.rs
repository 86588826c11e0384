//! `pair` — the pair protocol as one command: a parent and a change,
//! benchmarked in alternating pairs of detbench runs.
//!
//! ```text
//! cargo run --release -p det-conform --bin pair -- \
//!     --parent <rev> --change <rev> --workload W --seeds 0,1 \
//!     --pairs N --seconds S --out AB.json [--others] [--trace]
//! ```
//!
//! Checks each revision in turn out into one `git worktree` at
//! `target/pair/tree` and builds detbench there (`cargo build --release
//! --offline --quiet --manifest-path benchmark/Cargo.toml`, the
//! benchmark's own build), each side into its own target directory,
//! which later runs reuse, and copies each side's executable out.
//! Both sides build at the one path because the path a crate is built
//! from enters its symbol hashes: the same revision built in two
//! worktrees of different names compiled `Cpu::run_pinned` with other
//! register choices and read `vm_enforced/iter_ms` 14 % apart. Then, for
//! each seed, runs `N` pairs of one `S`-second run a side, alternating
//! which side runs first, and parses each run's last-line JSON.
//! `--others` adds every other workload `BENCHMARK.json` names, at the
//! same settings; `--trace` makes traced runs (per-layer metrics).
//!
//! Prints, per workload, seed and metric: the parent's median [q1, q3],
//! the change's median, the pairs the change won (a tie is no win), the
//! median pair ratio and a verdict ([`det_conform::pair::Verdict`]), in
//! the direction `BENCHMARK.json` gives the metric. Writes every run and
//! every summary to the `--out` file as JSON. Touches nothing in the
//! working tree but that file: detbench is built in the worktree.
//!
//! Exits 1 when `vclock_ms` differs between the sides of any pair, or
//! when the sides' counts of failed operations differ; 2 on a usage,
//! git, build or parse error.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use det_conform::pair::{Better, Summary};
use det_conform::{gates, worktree};
use serde::{Deserialize, Serialize, Value};

/// The command line.
struct Args {
    parent: String,
    change: String,
    workload: String,
    seeds: Vec<u64>,
    pairs: usize,
    seconds: f64,
    out: PathBuf,
    others: bool,
    trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut it = argv.iter().peekable();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or(format!("unexpected argument {flag:?}"))?;
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            flags.insert(name.to_string(), value.unwrap_or_default());
        }
        let mut take = |name: &str| flags.remove(name);
        let need = |v: Option<String>, name: &str| v.ok_or(format!("--{name} is required"));
        let args = Args {
            parent: need(take("parent"), "parent")?,
            change: need(take("change"), "change")?,
            workload: need(take("workload"), "workload")?,
            seeds: (take("seeds").unwrap_or_else(|| "0".into()).split(','))
                .map(|s| s.parse().map_err(|_| format!("--seeds: bad seed {s:?}")))
                .collect::<Result<_, _>>()?,
            pairs: parsed(take("pairs"), "pairs", 10)?,
            seconds: parsed(take("seconds"), "seconds", 12.0)?,
            out: need(take("out"), "out")?.into(),
            others: take("others").is_some(),
            trace: take("trace").is_some(),
        };
        if let Some(flag) = flags.keys().next() {
            return Err(format!("unknown flag --{flag}"));
        }
        if args.pairs == 0 {
            return Err("--pairs must be at least 1".into());
        }
        Ok(args)
    }
}

/// The value of `--name`, or `default` when the flag is absent.
fn parsed<T: std::str::FromStr>(v: Option<String>, name: &str, default: T) -> Result<T, String> {
    v.map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("--{name}: bad value {v:?}"))
    })
}

/// One side: a revision and the detbench built from it.
struct Side {
    name: &'static str,
    sha: String,
    exe: PathBuf,
}

impl Side {
    /// Checks `rev` out at `work/tree`, builds detbench from it into
    /// `work/<name>-target`, and copies the executable to
    /// `work/detbench-<name>`.
    fn build(root: &Path, work: &Path, name: &'static str, rev: &str) -> Result<Side, String> {
        let sha = worktree::git(
            root,
            &["rev-parse", "--verify", &format!("{rev}^{{commit}}")],
        )?;
        let tree = work.join("tree");
        let target = work.join(format!("{name}-target"));
        worktree::add(root, &tree, &sha)?;
        eprintln!("pair: building detbench at {} ({name})", short(&sha));
        let status = Command::new("cargo")
            .current_dir(&tree)
            .env("CARGO_TARGET_DIR", &target)
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["--manifest-path", "benchmark/Cargo.toml"])
            .status()
            .map_err(|e| format!("cargo: {e}"))?;
        if !status.success() {
            return Err(format!("{name}: detbench did not build at {sha}"));
        }
        let exe = work.join(format!("detbench-{name}"));
        std::fs::copy(target.join("release/detbench"), &exe)
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        Ok(Side { name, sha, exe })
    }
}

/// One run's last line, reduced to what the protocol reads.
#[derive(Serialize)]
struct Run {
    failed: f64,
    metrics: Vec<(String, f64)>,
}

impl Run {
    fn value(&self, metric: &str) -> Option<f64> {
        (self.metrics.iter())
            .find(|(name, _)| name == metric)
            .map(|&(_, v)| v)
    }
}

/// One pair, as the `--out` file records it.
#[derive(Serialize)]
struct Pair {
    first: String,
    parent: Run,
    change: Run,
}

/// One workload at one seed, as the `--out` file records it.
#[derive(Serialize)]
struct Record {
    workload: String,
    seed: u64,
    /// `vclock_ms` equal in every pair, and as many failed operations
    /// on each side.
    ok: bool,
    summary: Vec<(String, Summary)>,
    pairs: Vec<Pair>,
}

/// The `--out` file.
#[derive(Serialize)]
struct Doc {
    parent: String,
    change: String,
    pairs: usize,
    seconds: f64,
    trace: bool,
    runs: Vec<Record>,
}

/// The part of `BENCHMARK.json` the protocol reads.
#[derive(Deserialize)]
struct Manifest {
    workloads: Vec<Workload>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
}

#[derive(Deserialize)]
struct Metric {
    name: String,
    better: Better,
}

fn run(side: &Side, workload: &str, seed: u64, args: &Args) -> Result<Run, String> {
    let out = Command::new(&side.exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", side.exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line =
        (stdout.lines().last()).ok_or(format!("{}: {workload}: no result line", side.name))?;
    let bad = |e: String| format!("{}: {workload}: {e}: {line}", side.name);
    let doc: Value = serde_json::from_str(line).map_err(|e| bad(e.to_string()))?;
    let failed = (doc.get("failed").and_then(|v| f64::from_value(v).ok()))
        .ok_or_else(|| bad("no failed count".into()))?;
    let metrics =
        (doc.get("metrics").and_then(gates::readings)).ok_or_else(|| bad("no metrics".into()))?;
    Ok(Run { failed, metrics })
}

fn short(sha: &str) -> &str {
    &sha[..sha.len().min(7)]
}

/// What `BENCHMARK.json` says: the workloads, and each metric's
/// direction.
fn manifest(root: &Path) -> Result<(Vec<String>, BTreeMap<String, Better>), String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let m: Manifest =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let better = (m.end_to_end.into_iter().chain(m.per_layer))
        .map(|metric| (metric.name, metric.better))
        .collect();
    Ok((m.workloads.into_iter().map(|w| w.name).collect(), better))
}

/// The pairs of one workload at one seed, printed and reduced.
fn measure(
    sides: &[Side; 2],
    workload: &str,
    seed: u64,
    args: &Args,
    better: &BTreeMap<String, Better>,
) -> Result<Record, String> {
    println!(
        "{workload} seed {seed}: {} pairs of {} s{}, parent {} / change {}",
        args.pairs,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        short(&sides[0].sha),
        short(&sides[1].sha),
    );
    let mut pairs = Vec::new();
    for k in 0..args.pairs {
        // Alternate which side runs first, so a drift in the host's
        // speed over the session falls on both sides alike.
        let first = k % 2;
        let mut runs = [None, None];
        for s in [first, 1 - first] {
            runs[s] = Some(run(&sides[s], workload, seed, args)?);
        }
        let [Some(parent), Some(change)] = runs else {
            unreachable!("both sides ran")
        };
        // A traced run reports the iteration time as a percentile.
        let headline = if args.trace {
            "harness.iter_ms_p50"
        } else {
            "iter_ms"
        };
        let value = |r: &Run| r.value(headline).unwrap_or(f64::NAN);
        println!(
            "  pair {:>2} ({} first): {headline} {:.3} -> {:.3}",
            k + 1,
            sides[first].name,
            value(&parent),
            value(&change)
        );
        pairs.push(Pair {
            first: sides[first].name.into(),
            parent,
            change,
        });
    }

    let mut ok = true;
    let clocks_differ = (pairs.iter())
        .filter(|p| p.parent.value("vclock_ms") != p.change.value("vclock_ms"))
        .count();
    if clocks_differ > 0 {
        println!(
            "  FAIL: vclock_ms differs in {clocks_differ} of {} pairs",
            pairs.len()
        );
        ok = false;
    }
    let parent_failed: f64 = pairs.iter().map(|p| p.parent.failed).sum();
    let change_failed: f64 = pairs.iter().map(|p| p.change.failed).sum();
    if parent_failed != change_failed {
        println!("  FAIL: failed operations: parent {parent_failed}, change {change_failed}");
        ok = false;
    }

    println!(
        "  {:<32} {:>30} {:>12} {:>6} {:>7}  verdict",
        "metric", "parent median [q1, q3]", "change", "wins", "ratio"
    );
    let mut summary = Vec::new();
    for (metric, _) in &pairs[0].parent.metrics {
        let values: Option<Vec<(f64, f64)>> = (pairs.iter())
            .map(|p| Some((p.parent.value(metric)?, p.change.value(metric)?)))
            .collect();
        // A layer this workload does not probe reads 0 on both sides.
        let Some(values) = values.filter(|v| v.iter().any(|&p| p != (0.0, 0.0))) else {
            continue;
        };
        let direction = better.get(metric).copied().unwrap_or(Better::Lower);
        let s = Summary::of(&values, direction);
        let verdict = if metric == "vclock_ms" && clocks_differ == 0 {
            "equal in every pair"
        } else {
            s.verdict.word()
        };
        let spread = format!(
            "{:.3} [{:.3}, {:.3}]",
            s.parent.median, s.parent.q1, s.parent.q3
        );
        println!(
            "  {metric:<32} {spread:>30} {:>12.3} {:>3}/{:<2} {:>7.3}  {verdict}",
            s.change_median, s.wins, s.pairs, s.median_ratio
        );
        summary.push((metric.clone(), s));
    }
    Ok(Record {
        workload: workload.into(),
        seed,
        ok,
        summary,
        pairs,
    })
}

fn pair(args: &Args) -> Result<bool, String> {
    let root = worktree::workspace_root();
    let (workloads, better) = manifest(&root)?;
    if !workloads.contains(&args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    let mut chosen = vec![args.workload.clone()];
    if args.others {
        chosen.extend(workloads.into_iter().filter(|w| *w != args.workload));
    }
    let work = root.join("target/pair");
    let built = Side::build(&root, &work, "parent", &args.parent)
        .and_then(|parent| Ok([parent, Side::build(&root, &work, "change", &args.change)?]));
    let sides = match built {
        Ok(sides) => sides,
        Err(e) => {
            worktree::remove(&root, &work.join("tree"));
            return Err(e);
        }
    };
    let mut runs = Vec::new();
    let result = (|| {
        for workload in &chosen {
            for &seed in &args.seeds {
                runs.push(measure(&sides, workload, seed, args, &better)?);
            }
        }
        Ok::<(), String>(())
    })();
    worktree::remove(&root, &work.join("tree"));
    result?;
    let ok = runs.iter().all(|r| r.ok);
    let [parent, change] = sides.map(|s| s.sha);
    let doc = Doc {
        parent,
        change,
        pairs: args.pairs,
        seconds: args.seconds,
        trace: args.trace,
        runs,
    };
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&args.out, text + "\n").map_err(|e| format!("{}: {e}", args.out.display()))?;
    println!("written to {}", args.out.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match Args::parse(&argv).and_then(|args| pair(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pair: {e}");
            ExitCode::from(2)
        }
    }
}
