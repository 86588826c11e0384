//! `detlint` — workspace determinism lint CLI.
//!
//! Usage: `detlint [--root <dir>]`
//!
//! Scans production sources under `<dir>` (default: the current
//! directory) with the rules in `det_analyze::lint`, honoring the
//! `detlint.allow` allowlist at the root. Prints one line per finding
//! (an allowlist entry that waives nothing is one) and exits nonzero
//! if any remain — `-D warnings` strictness, there is no warn-only
//! mode.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("detlint: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: detlint [--root <workspace-dir>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("detlint: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    let findings = match det_analyze::lint::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("detlint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("detlint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("detlint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
