//! One workload, one process: set up, measure, check, report.

use std::time::{Duration, Instant};

use crate::harness::{self, ROUND};
use crate::metrics::PER_LAYER;
use crate::workloads::{self, PINNED, Part, Workload};
use crate::{layers, span};

/// What one run prints as its last line.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; units come from [`crate::metrics`].
    pub metrics: Vec<(&'static str, f64)>,
}

/// Set-ups per untraced run; `setup_s` is their median, because a
/// single set-up of a few hundred ms is too short to be steady.
const SETUPS: usize = 3;
const WARMUPS: usize = 2;
/// Rounds measured however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Counts operations and holds every iteration to the first one.
pub struct Checker {
    workload: String,
    seed: u64,
    first: Option<Vec<Part>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn new(workload: &str, seed: u64) -> Checker {
        Checker {
            workload: workload.to_string(),
            seed,
            first: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// An operation fails if it trapped or panicked, if anything that
    /// must repeat exactly (result, clock, stats) differs from the
    /// first iteration, or — at seed 0 — if its result is not the one
    /// pinned in the benchmark.
    pub fn check(&mut self, parts: &[Part]) {
        let first = self.first.get_or_insert_with(|| parts.to_vec());
        for (i, p) in parts.iter().enumerate() {
            self.attempted += 1;
            let pinned = PINNED
                .iter()
                .find(|(w, part, _)| *w == self.workload && *part == p.name)
                .map(|(_, _, sum)| *sum);
            let miss = if let Some(e) = &p.error {
                Some(e.clone())
            } else if !first.get(i).is_some_and(|f| p.repeats(f)) {
                Some("differs from the first iteration".to_string())
            } else if self.seed == 0 && pinned != Some(p.checksum) {
                Some(format!("checksum {:#x}, pinned {pinned:x?}", p.checksum))
            } else {
                None
            };
            if let Some(why) = miss {
                self.failed += 1;
                eprintln!("FAILED {}/{}: {why}", self.workload, p.name);
            }
        }
    }

    pub fn first(&self) -> &[Part] {
        self.first.as_deref().unwrap_or(&[])
    }
}

/// Input generation, assembly, baseline clocks, cross-shard checks and
/// the warm-up iterations: everything before the first measured one.
fn set_up(name: &str, seed: u64, checker: &mut Checker) -> Result<Box<dyn Workload>, String> {
    let mut w = workloads::build(name, seed)?;
    for _ in 0..WARMUPS {
        checker.check(&w.iterate());
    }
    Ok(w)
}

fn timed_round(w: &mut dyn Workload, checker: &mut Checker, samples: &mut Vec<f64>) {
    for _ in 0..ROUND {
        span::set_iter(samples.len() as u32);
        let start = Instant::now();
        let parts = w.iterate();
        samples.push(start.elapsed().as_secs_f64() * 1e3);
        checker.check(&parts);
    }
}

fn vclock_ms(parts: &[Part]) -> f64 {
    parts.iter().map(|p| p.vclock_ns).sum::<u64>() as f64 / 1e6
}

/// `--trace 0`: the end-to-end metrics.
pub fn untraced(name: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut checker = Checker::new(name, seed);
    let mut setups = Vec::new();
    let mut w = None;
    for _ in 0..SETUPS {
        drop(w.take());
        let start = Instant::now();
        w = Some(set_up(name, seed, &mut checker)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut w = w.expect("SETUPS > 0");

    let mut samples = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while samples.len() < MIN_ROUNDS * ROUND || Instant::now() < deadline {
        timed_round(w.as_mut(), &mut checker, &mut samples);
    }
    eprintln!(
        "{name}: {} iterations in {} rounds of {ROUND}; fastest of each round (ms): {:.1?}",
        samples.len(),
        samples.len() / ROUND,
        harness::round_bests(&samples)
    );
    Ok(Report {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: vec![
            ("iter_ms", harness::median_of_bests(&samples)),
            ("vclock_ms", vclock_ms(checker.first())),
            ("peak_rss_mb", harness::peak_rss_mb()),
            ("setup_s", harness::median(&setups)),
        ],
    })
}

/// `--trace 1`: the per-layer metrics. Rounds alternate between spans
/// off and spans on for half the time, so the two estimates see the
/// same machine phase and their difference is the tracing overhead;
/// the layer probes take the other half.
pub fn traced(name: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut checker = Checker::new(name, seed);
    let mut w = set_up(name, seed, &mut checker)?;
    span::reserve(1 << 16);

    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut totals = layers::SpanTotals::default();
    let mut last_round = Vec::new();
    let cpu_before = harness::cpu_ms();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds / 2.0);
    while plain.is_empty() || Instant::now() < deadline {
        timed_round(w.as_mut(), &mut checker, &mut plain);
        span::set_enabled(true);
        timed_round(w.as_mut(), &mut checker, &mut spanned);
        span::set_enabled(false);
        last_round = span::drain();
        totals.add(&last_round);
    }
    let cpu_per_iter = (harness::cpu_ms() - cpu_before) / (plain.len() + spanned.len()) as f64;
    write_spans(name, &last_round);
    print_self_times(&last_round);

    let iter_ms = harness::median_of_bests(&plain);
    let mut metrics = vec![
        ("harness.samples", plain.len() as f64),
        ("harness.iter_ms_p50", harness::median(&plain)),
        ("harness.iter_ms_p75", harness::percentile(&plain, 0.75)),
        ("harness.iter_ms_max", harness::percentile(&plain, 1.0)),
        ("harness.cpu_ms", cpu_per_iter),
        (
            "harness.trace_overhead_frac",
            harness::median_of_bests(&spanned) / iter_ms - 1.0,
        ),
    ];
    let parts = checker.first().to_vec();
    metrics.extend(w.fixed_metrics(&parts));
    metrics.extend(layers::from_counts(&parts, iter_ms));
    metrics.extend(layers::from_spans(&totals, spanned.len(), &parts));
    drop(w);
    metrics.extend(crate::probes::run_all(seconds / 2.0));
    debug_assert!(
        metrics
            .iter()
            .all(|(n, _)| PER_LAYER.iter().any(|p| p.name == *n))
    );
    // Every per-layer metric, in table order; what this workload does
    // not do reads 0.
    let value = |name| {
        metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    Ok(Report {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: PER_LAYER.iter().map(|p| (p.name, value(p.name))).collect(),
    })
}

/// Where the last traced round's host time went, by layer: each span's
/// self time, summed. Threads run side by side, so the column can add
/// up to more than the wall time.
fn print_self_times(spans: &[span::Span]) {
    let mut by_layer = std::collections::BTreeMap::<&str, u64>::new();
    for (s, own) in spans.iter().zip(span::self_times(spans)) {
        *by_layer.entry(s.layer).or_default() += own;
    }
    for (layer, ns) in by_layer {
        eprintln!(
            "  self time in {layer:<10} {:>10.3} ms/iteration",
            ns as f64 / 1e6 / ROUND as f64
        );
    }
}

/// Spans reach the disk only here, after the last iteration.
fn write_spans(workload: &str, spans: &[span::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let lines: String = spans
        .iter()
        .map(|s| span::to_json_line(workload, s) + "\n")
        .collect();
    let path = dir.join(format!("spans_{workload}.jsonl"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, lines)) {
        eprintln!("could not write {}: {e}", path.display());
    }
}
