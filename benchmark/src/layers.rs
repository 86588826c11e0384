//! Per-layer numbers that describe the workload being run: exact counts
//! read from the stats every part returns (C), times of the spans the
//! drivers record (S), and what follows from the two (D). All read 0 on
//! a workload that does not do that work.

use std::collections::BTreeMap;

use crate::span::Span;
use crate::workloads::Part;

/// Count and total duration of the spans seen so far, by `(layer, op)`.
#[derive(Default)]
pub struct SpanTotals(BTreeMap<(&'static str, &'static str), (u64, u64)>);

impl SpanTotals {
    pub fn add(&mut self, spans: &[Span]) {
        for s in spans {
            let e = self.0.entry((s.layer, s.op)).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
        }
    }

    fn count(&self, layer: &'static str, op: &'static str) -> f64 {
        self.0.get(&(layer, op)).map_or(0.0, |e| e.0 as f64)
    }

    fn ns(&self, layer: &'static str, op: &'static str) -> f64 {
        self.0.get(&(layer, op)).map_or(0.0, |e| e.1 as f64)
    }
}

/// `a / b`, 0 when the workload did none of `b`.
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 { a / b } else { 0.0 }
}

/// C and D metrics from one iteration's parts; `iter_ms` turns counts
/// into rates.
pub fn from_counts(parts: &[Part], iter_ms: f64) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&Part) -> u64| parts.iter().map(f).sum::<u64>() as f64;
    let pulls_of = |name: &str| {
        parts
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.cluster.page_pulls as f64)
    };
    let rendezvous = sum(&|p| p.stats.puts + p.stats.gets + p.stats.put_gets + p.stats.rets);
    let instructions = sum(&|p| p.stats.vm_instructions);
    let page_pulls = sum(&|p| p.cluster.page_pulls);
    let bytes_transferred = sum(&|p| p.cluster.bytes_transferred);
    vec![
        (
            "memory.bytes_compared",
            sum(&|p| p.stats.merge_totals.0.bytes_compared),
        ),
        (
            "memory.pages_diffed",
            sum(&|p| p.stats.merge_totals.0.pages_diffed),
        ),
        (
            "memory.bytes_copied",
            sum(&|p| p.stats.merge_totals.0.bytes_copied),
        ),
        ("memory.leaves_cloned", sum(&|p| p.stats.leaves_cloned)),
        ("memory.pages_copied", sum(&|p| p.stats.pages_copied)),
        ("vm.instructions", instructions),
        ("vm.pages_walked", sum(&|p| p.stats.vm_pages_walked)),
        ("vm.icache_fills", sum(&|p| p.stats.vm_icache_fills)),
        ("vm.minsn_per_s", per(instructions / 1e6, iter_ms / 1e3)),
        ("kernel.rendezvous", rendezvous),
        ("kernel.rendezvous_per_s", per(rendezvous, iter_ms / 1e3)),
        (
            "kernel.limit_preemptions",
            sum(&|p| p.stats.limit_preemptions),
        ),
        ("kernel.threads_spawned", sum(&|p| p.stats.threads_spawned)),
        ("kernel.trace_bytes", sum(&|p| p.count("trace_bytes"))),
        ("kernel.ckpt_bytes", sum(&|p| p.count("ckpt_bytes"))),
        ("conform.bundle_bytes", sum(&|p| p.count("bundle_bytes"))),
        ("cluster.migrations", sum(&|p| p.cluster.migrations)),
        ("cluster.page_pulls", page_pulls),
        ("cluster.messages", sum(&|p| p.cluster.messages)),
        ("cluster.bytes_transferred", bytes_transferred),
        (
            "cluster.bytes_per_page_pulled",
            per(bytes_transferred, page_pulls),
        ),
        (
            "cluster.hint_pull_ratio",
            per(pulls_of("prefetch_hint"), pulls_of("prefetch_nohint")),
        ),
    ]
}

/// S metrics (and the D metrics that need a span) from the spans of
/// `iters` traced iterations.
pub fn from_spans(t: &SpanTotals, iters: usize, parts: &[Part]) -> Vec<(&'static str, f64)> {
    let iters = iters as f64;
    let ms_per_iter = |layer, op| per(t.ns(layer, op) / 1e6, iters);
    // MB/s of `key` bytes per iteration through the `op` spans.
    let mb_s = |key: &str, layer, op| {
        let bytes = parts.iter().map(|p| p.count(key)).sum::<u64>() as f64;
        per(bytes * iters / 1e6, t.ns(layer, op) / 1e9)
    };
    let events = parts.iter().map(|p| p.count("trace_events")).sum::<u64>() as f64;
    let storm_migrations = parts
        .iter()
        .find(|p| p.name == "storm")
        .map_or(0.0, |p| p.cluster.migrations as f64);
    let mut out = vec![
        ("vm.long_ms", ms_per_iter("vm", "long")),
        ("vm.short_ms", ms_per_iter("vm", "short")),
        ("vm.stride_ms", ms_per_iter("vm", "stride")),
        (
            "kernel.trace_encode_mb_s",
            mb_s("trace_bytes", "kernel", "trace_encode"),
        ),
        (
            "kernel.trace_decode_mb_s",
            mb_s("trace_bytes", "kernel", "trace_decode"),
        ),
        (
            "kernel.replay_kevents_per_s",
            per(events * iters / 1e3, t.ns("kernel", "replay") / 1e9),
        ),
        (
            "kernel.ckpt_capture_us",
            per(
                t.ns("kernel", "ckpt_capture") / 1e3,
                t.count("kernel", "ckpt_capture"),
            ),
        ),
        (
            "kernel.ckpt_encode_mb_s",
            mb_s("ckpt_bytes", "kernel", "ckpt_encode"),
        ),
        (
            "kernel.ckpt_decode_mb_s",
            mb_s("ckpt_bytes", "kernel", "ckpt_decode"),
        ),
        (
            "kernel.ckpt_restore_ms",
            ms_per_iter("kernel", "ckpt_restore"),
        ),
        ("kernel.resume_ms", ms_per_iter("kernel", "resume")),
        (
            "runtime.fork_wait_us",
            per(
                (t.ns("runtime", "fork") + t.ns("runtime", "wait")) / 1e3,
                t.count("runtime", "fork"),
            ),
        ),
        (
            "runtime.fs_write_mb_s",
            mb_s("fs_bytes", "runtime", "fs_write"),
        ),
        (
            "runtime.shell_script_ms",
            ms_per_iter("runtime", "shell_script"),
        ),
        (
            "cluster.ms_per_migration",
            per(ms_per_iter("cluster", "storm"), storm_migrations),
        ),
        ("conform.bundle_ms", ms_per_iter("conform", "bundle")),
        ("conform.compare_ms", ms_per_iter("conform", "compare")),
    ];
    for (metric, layer, op) in [
        ("cluster.storm_ms", "cluster", "storm"),
        ("cluster.prefetch_hint_ms", "cluster", "prefetch_hint"),
        ("cluster.prefetch_nohint_ms", "cluster", "prefetch_nohint"),
        ("cluster.dsched_ms", "cluster", "dsched"),
        ("cluster.md5_scan_ms", "cluster", "md5_scan"),
        ("workloads.md5_ms", "workloads", "md5"),
        ("workloads.matmult_ms", "workloads", "matmult"),
        ("workloads.qsort_ms", "workloads", "qsort"),
        ("workloads.blackscholes_ms", "workloads", "blackscholes"),
        ("workloads.fft_ms", "workloads", "fft"),
        ("workloads.lu_cont_ms", "workloads", "lu_cont"),
        ("workloads.lu_noncont_ms", "workloads", "lu_noncont"),
        ("workloads.bs_fineq_ms", "workloads", "bs_fineq"),
    ] {
        out.push((metric, ms_per_iter(layer, op)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, op: &'static str, ns: u64) -> Span {
        Span {
            id: 1,
            parent: 0,
            iter: 0,
            layer,
            op,
            thread: 0,
            start_ns: 0,
            end_ns: ns,
        }
    }

    #[test]
    fn span_metrics_are_per_iteration_and_zero_when_absent() {
        let mut t = SpanTotals::default();
        // Two iterations: 2 forks and 2 waits each, 10 MB/s of writes.
        t.add(&[
            span("runtime", "fork", 1_000),
            span("runtime", "wait", 3_000),
        ]);
        t.add(&[
            span("runtime", "fork", 1_000),
            span("runtime", "wait", 3_000),
        ]);
        t.add(&[
            span("runtime", "fs_write", 2_000_000),
            span("vm", "long", 4_000_000),
        ]);
        let part = Part {
            name: "make",
            counts: vec![("fs_bytes", 10)],
            ..Part::default()
        };
        let m: BTreeMap<_, _> = from_spans(&t, 2, &[part]).into_iter().collect();
        assert_eq!(m["runtime.fork_wait_us"], 4.0);
        assert_eq!(m["runtime.fs_write_mb_s"], 0.01);
        assert_eq!(m["vm.long_ms"], 2.0);
        assert_eq!(m["cluster.storm_ms"], 0.0);
        assert_eq!(m["kernel.trace_decode_mb_s"], 0.0);
    }

    #[test]
    fn count_metrics_sum_over_parts() {
        let mut a = Part::default();
        a.stats.puts = 3;
        a.stats.rets = 1;
        a.stats.vm_instructions = 2_000_000;
        let mut b = Part {
            name: "prefetch_hint",
            ..Part::default()
        };
        b.cluster.page_pulls = 2;
        b.cluster.bytes_transferred = 100;
        let mut c = Part {
            name: "prefetch_nohint",
            ..Part::default()
        };
        c.cluster.page_pulls = 8;
        let m: BTreeMap<_, _> = from_counts(&[a, b, c], 500.0).into_iter().collect();
        assert_eq!(m["kernel.rendezvous"], 4.0);
        assert_eq!(m["kernel.rendezvous_per_s"], 8.0);
        assert_eq!(m["vm.minsn_per_s"], 4.0);
        assert_eq!(m["cluster.hint_pull_ratio"], 0.25);
        assert_eq!(m["cluster.bytes_per_page_pulled"], 10.0);
    }
}
