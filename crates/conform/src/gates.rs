//! Nightly's ledger gates as a checked-in table.
//!
//! Each row of `crates/conform/gates.json` bounds one reading of a
//! detbench ledger (`detbench run --trace --ledger FILE`) and says why
//! the bound is where it is. The `gates` binary evaluates every row on
//! one ledger; `tests/gates_golden.rs` holds the evaluator to what the
//! workflow's hand-written guards said about every checked-in ledger.

use serde::{Deserialize, Value};

/// The table, as checked in beside this crate's manifest.
const TABLE: &str = include_str!("../gates.json");

/// One gate: a bound on one reading of a ledger.
#[derive(Debug, Deserialize)]
pub struct Gate {
    /// The workload whose entry holds the metric, or `*` for the
    /// largest reading over every workload entry.
    pub workload: String,
    /// The metric, as the ledger names it (`end_to_end` or `per_layer`).
    pub metric: String,
    /// A metric of the same entry to divide by: the row then bounds an
    /// in-run ratio, which fails when the divisor is not positive.
    pub over: Option<String>,
    /// The reading must be greater than this.
    pub above: Option<f64>,
    /// The reading must be at least this.
    pub at_least: Option<f64>,
    /// The reading must be less than this.
    pub below: Option<f64>,
    /// The row is skipped on a host with fewer cores than this.
    pub cores: Option<u64>,
    /// Why the bound is where it is.
    pub why: String,
}

/// Parses the checked-in table.
pub fn table() -> Result<Vec<Gate>, serde_json::Error> {
    serde_json::from_str(TABLE)
}

/// The numbers of a `{name: {"value": x, ...}, ...}` object, in order,
/// or `None` when `obj` is not an object. A name whose value is not a
/// number is left out.
pub fn readings(obj: &Value) -> Option<Vec<(String, f64)>> {
    let Value::Object(o) = obj else { return None };
    let number = |m: &Value| f64::from_value(m.get("value")?).ok();
    let named = |(name, m): &(String, Value)| Some((name.clone(), number(m)?));
    Some(o.iter().filter_map(named).collect())
}

/// A ledger, reduced to what the gates read.
pub struct Ledger {
    /// `host.nproc`: the cores of the host the ledger was taken on.
    pub nproc: u64,
    /// Each workload entry's `end_to_end` and `per_layer` readings.
    workloads: Vec<(String, Vec<(String, f64)>)>,
}

impl Ledger {
    /// Parses a ledger's text.
    pub fn parse(text: &str) -> Result<Ledger, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let host = doc.get("host");
        let nproc = host.and_then(|h| u64::from_value(h.get("nproc")?).ok());
        let Some((nproc, Value::Object(entries))) = nproc.zip(doc.get("workloads")) else {
            return Err("no host.nproc or no workloads".into());
        };
        let sections = ["end_to_end", "per_layer"];
        let entry = |(name, e): &(String, Value)| {
            let read = sections.iter().filter_map(|s| readings(e.get(s)?));
            (name.clone(), read.flatten().collect())
        };
        let workloads = entries.iter().map(entry).collect();
        Ok(Ledger { nproc, workloads })
    }
}

/// What a row says about a ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The reading is within every bound.
    Pass,
    /// The reading is missing or outside a bound.
    Fail,
    /// The host has too few cores for the reading to mean anything.
    Skip,
}

impl Gate {
    /// The row's reading in one workload entry, `None` when a metric it
    /// names is missing.
    fn reading(&self, entry: &[(String, f64)]) -> Option<f64> {
        let get = |m: &str| entry.iter().find(|(name, _)| name == m).map(|&(_, v)| v);
        let v = get(&self.metric)?;
        // A row without a divisor reads its metric over 1.
        let d = self.over.as_ref().map_or(Some(1.0), |o| get(o))?;
        Some(if d > 0.0 { v / d } else { f64::NAN })
    }

    /// The row's reading in `ledger` (`None` when missing) and verdict.
    pub fn judge(&self, ledger: &Ledger) -> (Option<f64>, Verdict) {
        let value = (ledger.workloads.iter())
            .filter(|(w, _)| self.workload == "*" || *w == self.workload)
            .filter_map(|(_, e)| self.reading(e))
            .reduce(f64::max);
        if self.cores.is_some_and(|c| ledger.nproc < c) {
            return (value, Verdict::Skip);
        }
        let within = value.is_some_and(|v| {
            self.above.is_none_or(|b| v > b)
                && self.at_least.is_none_or(|b| v >= b)
                && self.below.is_none_or(|b| v < b)
        });
        (value, if within { Verdict::Pass } else { Verdict::Fail })
    }

    /// What the row requires, as the `gates` binary prints it: the
    /// metric, over its divisor if any, and each bound.
    pub fn predicate(&self) -> String {
        let over: String = self.over.iter().map(|o| format!(" / {o}")).collect();
        let ops = std::iter::zip([">", ">=", "<"], [self.above, self.at_least, self.below]);
        let bound = |(op, b): (&str, Option<f64>)| Some(format!(" {op} {}", b?));
        let bounds: Vec<String> = ops.filter_map(bound).collect();
        format!("{}{over}{}", self.metric, bounds.join(" and"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ledger on an `nproc`-core host whose workloads hold the given
    /// `per_layer` readings (and one `end_to_end` reading, `iter_ms`).
    fn ledger(nproc: u64, workloads: &[(&str, &[(&str, f64)])]) -> Ledger {
        let entries: Vec<String> = (workloads.iter())
            .map(|(w, metrics)| {
                let layer: Vec<String> = (metrics.iter())
                    .map(|(m, v)| format!("\"{m}\": {{\"value\": {v}, \"unit\": \"x\"}}"))
                    .collect();
                format!(
                    "\"{w}\": {{\"end_to_end\": {{\"iter_ms\": {{\"value\": 5}}}}, \
                     \"per_layer\": {{{}}}}}",
                    layer.join(", ")
                )
            })
            .collect();
        let text = format!(
            "{{\"host\": {{\"nproc\": {nproc}}}, \"workloads\": {{{}}}}}",
            entries.join(", ")
        );
        Ledger::parse(&text).expect("synthetic ledger parses")
    }

    fn gate(workload: &str, metric: &str, over: Option<&str>) -> Gate {
        Gate {
            workload: workload.into(),
            metric: metric.into(),
            over: over.map(Into::into),
            above: None,
            at_least: None,
            below: None,
            cores: None,
            why: String::new(),
        }
    }

    #[test]
    fn a_reading_equal_to_a_bound_passes_only_at_least() {
        let l = ledger(2, &[("w", &[("m", 3.0)])]);
        let mut g = gate("w", "m", None);
        g.above = Some(3.0);
        assert_eq!(g.judge(&l), (Some(3.0), Verdict::Fail));
        g.above = None;
        g.below = Some(3.0);
        assert_eq!(g.judge(&l), (Some(3.0), Verdict::Fail));
        g.below = None;
        g.at_least = Some(3.0);
        assert_eq!(g.judge(&l), (Some(3.0), Verdict::Pass));
        g.at_least = Some(3.5);
        assert_eq!(g.judge(&l), (Some(3.0), Verdict::Fail));
        // Every bound must hold: inside one, outside another fails.
        g.at_least = Some(1.0);
        g.below = Some(2.0);
        assert_eq!(g.judge(&l), (Some(3.0), Verdict::Fail));
        g.below = Some(4.0);
        assert_eq!(g.judge(&l), (Some(3.0), Verdict::Pass));
        assert_eq!(g.predicate(), "m >= 1 and < 4");
    }

    #[test]
    fn a_star_row_takes_the_largest_reading_of_any_workload() {
        let l = ledger(
            2,
            &[
                ("a", &[("m", 5.0)]),
                ("b", &[("m", 9.0)]),
                ("c", &[("m", 7.0)]),
                ("d", &[]),
            ],
        );
        let mut g = gate("*", "m", None);
        g.below = Some(8.0);
        assert_eq!(g.judge(&l), (Some(9.0), Verdict::Fail));
        g.below = None;
        g.at_least = Some(8.0);
        assert_eq!(g.judge(&l), (Some(9.0), Verdict::Pass));
        // A named workload reads its own entry.
        assert_eq!(gate("c", "m", None).judge(&l).0, Some(7.0));
        // `end_to_end` readings count as well as `per_layer` ones.
        assert_eq!(gate("d", "iter_ms", None).judge(&l).0, Some(5.0));
    }

    #[test]
    fn over_divides_the_metric_by_the_other() {
        let l = ledger(2, &[("w", &[("num", 3.0), ("den", 2.0), ("zero", 0.0)])]);
        let mut g = gate("w", "num", Some("den"));
        g.below = Some(1.6);
        assert_eq!(g.judge(&l), (Some(1.5), Verdict::Pass));
        g.below = Some(1.4);
        assert_eq!(g.judge(&l), (Some(1.5), Verdict::Fail));
        // A divisor that is not positive fails every bound.
        let mut g = gate("w", "num", Some("zero"));
        g.above = Some(0.0);
        assert_eq!(g.judge(&l).1, Verdict::Fail);
    }

    #[test]
    fn a_missing_metric_fails_its_row() {
        let l = ledger(2, &[("w", &[("m", 1.0)])]);
        for g in [
            gate("w", "gone", None),
            gate("v", "m", None),
            gate("*", "gone", None),
        ] {
            assert_eq!(g.judge(&l), (None, Verdict::Fail), "{g:?}");
        }
        assert_eq!(
            gate("w", "m", Some("gone")).judge(&l),
            (None, Verdict::Fail)
        );
        assert_eq!(
            gate("w", "gone", Some("m")).judge(&l),
            (None, Verdict::Fail)
        );
    }

    #[test]
    fn a_row_needing_more_cores_than_the_host_has_is_skipped() {
        let mut g = gate("*", "m", None);
        g.at_least = Some(1.2);
        g.cores = Some(2);
        assert_eq!(
            g.judge(&ledger(1, &[("w", &[("m", 0.0)])])).1,
            Verdict::Skip
        );
        // On a host with the cores, a probe reading 0 fails.
        assert_eq!(
            g.judge(&ledger(2, &[("w", &[("m", 0.0)])])).1,
            Verdict::Fail
        );
        assert_eq!(
            g.judge(&ledger(4, &[("w", &[("m", 1.3)])])).1,
            Verdict::Pass
        );
    }

    #[test]
    fn the_table_has_thirteen_bounded_explained_rows() {
        let gates = table().expect("gates.json parses");
        assert_eq!(gates.len(), 13);
        for g in &gates {
            assert!(g.predicate() != g.metric, "{}: no bound", g.metric);
            assert!(!g.why.is_empty(), "{}: no why", g.metric);
        }
    }

    #[test]
    fn a_ledger_without_its_host_or_workloads_is_refused() {
        assert!(Ledger::parse("{\"workloads\": {}}").is_err());
        assert!(Ledger::parse("{\"host\": {\"nproc\": 2}}").is_err());
        assert!(Ledger::parse("not json").is_err());
    }
}
