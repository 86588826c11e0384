//! `detbench` — six named workloads, both clocks end to end, every
//! layer measured from outside. See README.md.
//!
//! ```text
//! detbench --workload W --seed N --seconds S --trace 0|1   one run (the driver's contract)
//! detbench run    [--seed N] [--seconds S] [--trace] [--check] [--ledger FILE]
//! detbench repeat [--seed N] [--seconds S]
//! detbench manifest | metrics                              print BENCHMARK.json / README tables
//! ```

mod harness;
mod json;
mod layers;
mod metrics;
mod probes;
mod runner;
mod seed;
mod span;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use json::{Value, obj, str};
use metrics::{END_TO_END, RUN_SECONDS, unit_of};
use workloads::WORKLOADS;

/// `--flag value` pairs and bare `--flag`s after the subcommand.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter().peekable();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or(format!("unexpected argument {flag:?}"))?;
            let value = it
                .next_if(|v| !v.starts_with("--"))
                .cloned()
                .unwrap_or_default();
            map.insert(name.to_string(), value);
        }
        Ok(Args(map))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.contains_key(flag)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.0.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{flag}: bad value {v:?}")),
        }
    }
}

/// The driver's contract: one workload, the result as the last line.
fn single(args: &Args) -> Result<ExitCode, String> {
    let workload = args.0.get("workload").ok_or("--workload is required")?;
    let seed: u64 = args.number("seed", 0)?;
    let seconds: f64 = args.number("seconds", RUN_SECONDS as f64)?;
    let report = match args.number("trace", 0u8)? {
        0 => runner::untraced(workload, seed, seconds)?,
        _ => runner::traced(workload, seed, seconds)?,
    };
    let metrics = report.metrics.iter().map(|(name, value)| {
        let fields = [("value", Value::Num(*value)), ("unit", str(unit_of(name)))];
        (*name, obj(fields))
    });
    let correct = report.failed == 0;
    let line = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("metrics", obj(metrics)),
    ]);
    println!("{}", line.to_json());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One workload in a process of its own, so peak RSS and set-up are
/// its alone. Returns the parsed result line.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: no result line"))?;
    Value::parse(line).map_err(|e| format!("{workload}: {e}"))
}

fn metrics_of(result: &Value) -> Vec<(String, f64)> {
    match result.get("metrics") {
        Some(Value::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => Vec::new(),
    }
}

fn is_correct(result: &Value) -> bool {
    result.get("correct") == Some(&Value::Bool(true))
}

/// For the library's opaque calls no span sees inside, so the split of
/// an iteration into layers is *computed*, count × probed unit cost —
/// an estimate, printed as such and never reported as a metric.
fn print_estimates(workload: &str, iter_ms: f64, layer: &[(String, f64)]) {
    if !["forkjoin_coarse", "sync_fine", "cluster_migrate"].contains(&workload) {
        return;
    }
    let get = |name: &str| {
        layer
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let kernel = get("kernel.rendezvous") * get("kernel.rt_native_us") / 1e3;
    let merge = get("memory.pages_diffed") * get("memory.merge_dense_us") / 1024.0 / 1e3;
    println!(
        "  {:<34} {kernel:>14.3} ms   est: rendezvous × rt_native_us",
        "est.kernel_ms"
    );
    println!(
        "  {:<34} {merge:>14.3} ms   est: pages_diffed × merge_dense_us/1024",
        "est.memory_merge_ms"
    );
    println!(
        "  {:<34} {:>14.3} ms   est: iter_ms − the two above",
        "est.rest_ms",
        iter_ms - kernel - merge
    );
}

fn host() -> Value {
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        })
        .unwrap_or("unknown".to_string());
    obj([
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("cpu", str(cpu)),
        ("rustc", str(run("rustc", &["--version"]))),
        ("commit", str(run("git", &["rev-parse", "HEAD"]))),
        (
            "profile",
            str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release, lto = thin, codegen-units = 1"
            }),
        ),
    ])
}

/// `run`: every workload, every metric by name and unit, outputs checked.
fn run(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.number("seed", 0)?;
    let check_only = args.has("check");
    let seconds: f64 = args.number("seconds", if check_only { 0.0 } else { RUN_SECONDS as f64 })?;
    let mut all_correct = true;
    let mut ledger = Vec::new();
    for (workload, _) in WORKLOADS {
        let e2e = child(workload, seed, seconds, false)?;
        let layer = (args.has("trace") && !check_only)
            .then(|| child(workload, seed, seconds, true))
            .transpose()?;
        let correct = is_correct(&e2e) && layer.as_ref().is_none_or(is_correct);
        all_correct &= correct;
        let count = |key| e2e.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        println!(
            "{workload}: {} ({} operations attempted, {} failed)",
            if correct { "correct" } else { "INCORRECT" },
            count("attempted"),
            count("failed")
        );
        if check_only {
            continue;
        }
        let e2e_metrics = metrics_of(&e2e);
        let layer_metrics = layer.as_ref().map(metrics_of).unwrap_or_default();
        for (name, value) in e2e_metrics.iter().chain(&layer_metrics) {
            println!("  {name:<34} {value:>14.3} {}", unit_of(name));
        }
        if layer.is_some() {
            let iter_ms = e2e_metrics
                .iter()
                .find(|(n, _)| n == "iter_ms")
                .map_or(0.0, |(_, v)| *v);
            print_estimates(workload, iter_ms, &layer_metrics);
        }
        let section = |result: Option<&Value>| {
            result
                .and_then(|r| r.get("metrics"))
                .cloned()
                .unwrap_or(Value::Obj(vec![]))
        };
        ledger.push((
            workload,
            obj([
                ("correct", Value::Bool(correct)),
                ("attempted", Value::Num(count("attempted"))),
                ("failed", Value::Num(count("failed"))),
                ("end_to_end", section(Some(&e2e))),
                ("per_layer", section(layer.as_ref())),
            ]),
        ));
    }
    if let Some(path) = args.0.get("ledger") {
        let doc = obj([
            ("host", host()),
            ("seed", Value::Num(seed as f64)),
            ("run_seconds", Value::Num(seconds)),
            ("workloads", obj(ledger)),
        ]);
        std::fs::write(path, doc.to_json_pretty()).map_err(|e| format!("{path}: {e}"))?;
        println!("ledger written to {path}");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `repeat`: two full sets back to back; every end-to-end metric ×
/// workload must agree within its bound, and the virtual clock exactly.
fn repeat(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.number("seed", 0)?;
    let seconds: f64 = args.number("seconds", RUN_SECONDS as f64)?;
    let mut sets = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for (workload, _) in WORKLOADS {
            set.push(child(workload, seed, seconds, false)?);
        }
        sets.push(set);
    }
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff %", "bound %"
    );
    let mut ok = true;
    for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
        let (a, b) = (&sets[0][w], &sets[1][w]);
        ok &= is_correct(a) && is_correct(b);
        let (a, b) = (metrics_of(a), metrics_of(b));
        for e in &END_TO_END {
            let value = |m: &[(String, f64)]| m.iter().find(|(n, _)| n == e.name).map(|(_, v)| *v);
            let (Some(x), Some(y)) = (value(&a), value(&b)) else {
                return Err(format!("{workload}: {} missing", e.name));
            };
            let diff = (y - x) / x;
            // Same seed, same code: the virtual clock has no excuse.
            let within = if e.name == "vclock_ms" {
                x == y
            } else {
                diff.abs() <= e.bound
            };
            ok &= within;
            println!(
                "{workload:<16} {:<12} {x:>12.4} {y:>12.4} {:>8.2} {:>7.0}{}",
                e.name,
                diff * 100.0,
                e.bound * 100.0,
                if within { "" } else { "  OUTSIDE" }
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match argv.first().map(String::as_str) {
        Some(s) if !s.starts_with("--") => (s, &argv[1..]),
        _ => ("", &argv[..]),
    };
    let result = Args::parse(rest).and_then(|args| match sub {
        "" => single(&args),
        "run" => run(&args),
        "repeat" => repeat(&args),
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        "metrics" => {
            print!("{}", metrics::markdown());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    });
    result.unwrap_or_else(|e| {
        eprintln!("detbench: {e}");
        ExitCode::from(2)
    })
}
