//! The conformance driver: runs registered scenarios as N replicas,
//! compares artifact bundles byte-for-byte, and writes divergence
//! reports.
//!
//! ```sh
//! conform --replicas 3                  # CI gate
//! conform --replicas 10 --chaos         # nightly
//! conform --scenario wl_md5
//! conform --recover                     # kill + restore + compare
//! conform --recover --kill-at 7         # kill at root syscall 7
//! conform --fault fail@device           # replicas under injected faults
//! conform --list
//! ```
//!
//! Exit codes: 0 on full conformance, **2 on any divergence or
//! recovery failure** (the CI gate keys on this), 64 on usage errors.
//! With `--report-dir DIR` (created if missing) each divergence report
//! is also written to `DIR/<scenario>.txt` (`<scenario>-recovery.txt`
//! for a recovery check).

use std::process::ExitCode;

use det_conform::{ConformConfig, conform_scenario, crash_recovery_check, registry};
use det_kernel::FaultPlan;

struct Args {
    replicas: usize,
    chaos: bool,
    scenarios: Vec<String>,
    report_dir: Option<String>,
    recover: bool,
    kill_at: Option<u64>,
    faults: FaultPlan,
    list: bool,
}

/// Usage errors exit 64 (EX_USAGE), distinct from the divergence
/// gate's exit 2: a CI job must never mistake a typo for a pass *or*
/// for a nondeterminism bug.
fn usage() -> ! {
    eprintln!(
        "usage: conform [--replicas N] [--chaos|--no-chaos] \
         [--scenario NAME]... [--report-dir DIR] \
         [--recover] [--kill-at N] [--fault SPEC]... [--list]\n\
         fault SPEC: <kill|panic|fail>@<syscall|device|alloc>\
         [:COORD[,COORD]] with COORD path=/.. or n=N"
    );
    std::process::exit(64)
}

fn parse_args() -> Args {
    let mut args = Args {
        replicas: 3,
        chaos: false,
        scenarios: Vec::new(),
        report_dir: None,
        recover: false,
        kill_at: None,
        faults: FaultPlan::default(),
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--replicas" => {
                args.replicas = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--chaos" => args.chaos = true,
            "--no-chaos" => args.chaos = false,
            "--scenario" => match it.next() {
                Some(name) => args.scenarios.push(name),
                None => usage(),
            },
            "--report-dir" => args.report_dir = it.next().or_else(|| usage()),
            "--recover" => args.recover = true,
            "--kill-at" => {
                args.kill_at = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--fault" => match it.next().as_deref().map(FaultPlan::parse) {
                Some(Ok(f)) => args.faults = args.faults.clone().with(f),
                Some(Err(e)) => {
                    eprintln!("bad --fault spec: {e}");
                    usage()
                }
                None => usage(),
            },
            "--list" => args.list = true,
            _ => usage(),
        }
    }
    args
}

fn write_report(dir: &Option<String>, name: &str, text: &str) {
    let Some(dir) = dir else { return };
    let path = format!("{dir}/{name}.txt");
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    // Create the report directory up front: CI uploads it whether or
    // not anything diverged, and an absent path fails the upload step.
    if let Some(dir) = &args.report_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --report-dir {dir}: {e}");
            return ExitCode::from(64);
        }
    }
    let all = registry();
    if args.list {
        for sc in &all {
            println!(
                "{}{}",
                sc.name,
                if sc.traceable { "" } else { " (untraceable)" }
            );
        }
        return ExitCode::SUCCESS;
    }
    let selected: Vec<_> = if args.scenarios.is_empty() {
        all
    } else {
        args.scenarios
            .iter()
            .map(|n| {
                det_conform::find(n).unwrap_or_else(|| {
                    eprintln!("unknown scenario: {n}");
                    std::process::exit(64)
                })
            })
            .collect()
    };

    let cfg = ConformConfig {
        replicas: args.replicas,
        chaos: args.chaos,
        faults: args.faults.clone(),
    };
    let mut failed = false;

    if args.recover || args.kill_at.is_some() {
        for sc in &selected {
            if !sc.traceable {
                println!("SKIP {} (untraceable)", sc.name);
                continue;
            }
            let r = crash_recovery_check(sc, args.kill_at);
            println!("{}", r.summary());
            if !r.conforms() {
                failed = true;
                let report = r.report();
                eprint!("{report}");
                write_report(&args.report_dir, &format!("{}-recovery", sc.name), &report);
            }
        }
    } else {
        for sc in &selected {
            let r = conform_scenario(sc, &cfg);
            println!("{}", r.summary());
            if !r.conforms() {
                failed = true;
                let report = r.report();
                eprint!("{report}");
                write_report(&args.report_dir, sc.name, &report);
            }
        }
    }

    if failed {
        // Exit 2: the divergence gate. CI treats this as "determinism
        // or recovery broken", never as an infrastructure failure.
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
