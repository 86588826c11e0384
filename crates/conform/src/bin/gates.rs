//! `gates` — evaluates the checked-in gate table on one detbench ledger.
//!
//! ```text
//! cargo run --release --offline -p det-conform --bin gates -- LEDGER
//! ```
//!
//! Reads `LEDGER` (written by `detbench run --trace --ledger LEDGER`)
//! and prints one line per row of `crates/conform/gates.json`: PASS,
//! FAIL or SKIP, the workload, the metric and its bounds, the reading,
//! and why the bounds are there ([`det_conform::gates`]). Exits 1 if any row
//! fails, 2 on a usage error or on a ledger or table that does not
//! parse.

use std::process::ExitCode;

use det_conform::gates::{self, Ledger, Verdict};

/// Prints every row's verdict on the ledger `args` names, and returns
/// how many rows failed.
fn evaluate(args: &[String]) -> Result<usize, String> {
    let [path] = args else {
        return Err("usage: gates LEDGER".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let ledger = Ledger::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let table = gates::table().map_err(|e| format!("gates.json: {e}"))?;
    let mut failed = 0;
    for gate in &table {
        let (value, verdict) = gate.judge(&ledger);
        failed += usize::from(verdict == Verdict::Fail);
        let word = format!("{verdict:?}").to_uppercase();
        let value = value.map_or("missing".into(), |v| v.to_string());
        let (workload, predicate, why) = (&gate.workload, gate.predicate(), &gate.why);
        println!("{word} {workload}: {predicate}: read {value}. {why}");
    }
    let (rows, nproc) = (table.len(), ledger.nproc);
    println!("{rows} rows on a {nproc}-core host, {failed} failed");
    Ok(failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match evaluate(&args) {
        Ok(failed) => ExitCode::from(u8::from(failed > 0)),
        Err(e) => {
            eprintln!("gates: {e}");
            ExitCode::from(2)
        }
    }
}
