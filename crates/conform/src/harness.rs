//! The N-replica runner: executes a scenario repeatedly (optionally
//! under chaotic host load), collects a canonical artifact bundle per
//! replica, and compares every replica byte-for-byte against the
//! first.

use std::sync::Arc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;

use det_kernel::{Checkpoint, FaultPlan, Trace, TraceEvent, latest_restorable_boundary};

use crate::bundle::{Artifacts, Scope};
use crate::diff::{Divergence, compare};
use crate::scenario::{Scenario, ScenarioConfig, registry};

/// Background host load that thrashes the OS scheduler while replicas
/// run, shaking out wakeup races and schedule-dependent behaviour.
/// Threads stop and join on drop.
pub struct ChaosLoad {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ChaosLoad {
    /// Starts `n` spin/yield threads.
    pub fn start(n: usize) -> ChaosLoad {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..n)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        ChaosLoad { stop, threads }
    }
}

impl Drop for ChaosLoad {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Harness parameters.
#[derive(Clone, Debug)]
pub struct ConformConfig {
    /// Replicas per scenario (first is the baseline). CI runs 3;
    /// nightly runs 10.
    pub replicas: usize,
    /// Run background chaos load while replicas execute.
    pub chaos: bool,
    /// Deterministic faults injected into every replica (empty = run
    /// clean). Faulted replicas must *still* conform to each other:
    /// an injected fault is a deterministic input, not noise.
    pub faults: FaultPlan,
}

impl Default for ConformConfig {
    fn default() -> ConformConfig {
        ConformConfig {
            replicas: 3,
            chaos: true,
            faults: FaultPlan::default(),
        }
    }
}

/// The result of conforming one scenario.
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// Replicas executed (stops early on the first divergence).
    pub replicas_run: usize,
    /// The diverging replica index (baseline is replica 0) and the
    /// localized divergence, if any replica failed to conform.
    pub divergence: Option<(usize, Divergence)>,
}

impl ScenarioReport {
    /// True when every replica's bundle was byte-identical.
    pub fn conforms(&self) -> bool {
        self.divergence.is_none()
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        match &self.divergence {
            None => format!("PASS {} x{}", self.scenario, self.replicas_run),
            Some((r, d)) => format!(
                "DIVERGED {} replica {} vs 0: {} at byte {}",
                self.scenario,
                r,
                d.category.name(),
                d.offset
            ),
        }
    }

    /// The full report text for a divergence (empty when conforming).
    pub fn report(&self) -> String {
        match &self.divergence {
            None => String::new(),
            Some((r, d)) => d.report(self.scenario, "replica 0", &format!("replica {r}")),
        }
    }
}

/// Runs `replicas` copies of a scenario and compares each bundle
/// byte-for-byte against replica 0.
pub fn conform_scenario(sc: &Scenario, cfg: &ConformConfig) -> ScenarioReport {
    let _chaos = cfg.chaos.then(|| ChaosLoad::start(3));
    let run_cfg = ScenarioConfig {
        faults: cfg.faults.clone(),
        ..ScenarioConfig::traced(())
    };
    let collect = || Artifacts::collect(sc.name, (), &(sc.run)(&run_cfg));
    let baseline = collect();
    let mut replicas_run = 1;
    for r in 1..cfg.replicas.max(1) {
        let replica = collect();
        replicas_run += 1;
        if let Some(d) = compare(&baseline, &replica, Scope::Full) {
            return ScenarioReport {
                scenario: sc.name,
                replicas_run,
                divergence: Some((r, d)),
            };
        }
    }
    ScenarioReport {
        scenario: sc.name,
        replicas_run,
        divergence: None,
    }
}

/// Conforms every registered scenario.
pub fn conform_all(cfg: &ConformConfig) -> Vec<ScenarioReport> {
    registry()
        .iter()
        .map(|sc| conform_scenario(sc, cfg))
        .collect()
}

// ---------------------------------------------------------------------
// Crash-recovery conformance.
// ---------------------------------------------------------------------

/// The result of one crash-recovery check: oracle run, injected kill,
/// checkpoint restore, suffix resume, bundle comparison.
pub struct RecoveryReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// Root syscall ordinal the kernel was killed at.
    pub kill_at: u64,
    /// Trace-event boundary the recovery restored from.
    pub boundary: usize,
    /// Total events in the oracle trace.
    pub trace_len: usize,
    /// A structural failure (kill did not fire, checkpoint rejected,
    /// resume errored) — distinct from a localized divergence.
    pub error: Option<String>,
    /// The localized divergence between the recovered bundle and the
    /// uninterrupted run's, if any.
    pub divergence: Option<Divergence>,
}

impl RecoveryReport {
    /// True when recovery reproduced the uninterrupted run exactly.
    pub fn conforms(&self) -> bool {
        self.error.is_none() && self.divergence.is_none()
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        let tag = format!(
            "{} kill@{} restore@{}/{}",
            self.scenario, self.kill_at, self.boundary, self.trace_len
        );
        match (&self.error, &self.divergence) {
            (Some(e), _) => format!("ERROR {tag}: {e}"),
            (None, Some(d)) => {
                format!("DIVERGED {tag}: {} at byte {}", d.category.name(), d.offset)
            }
            (None, None) => format!("PASS {tag}"),
        }
    }

    /// The full report text (empty when conforming).
    pub fn report(&self) -> String {
        match (&self.error, &self.divergence) {
            (Some(e), _) => format!("{}\n{e}\n", self.summary()),
            (None, Some(d)) => d.report(self.scenario, "uninterrupted", "recovered"),
            (None, None) => String::new(),
        }
    }
}

/// Counts the *root* space's syscalls in a recorded trace — the same
/// ordinal sequence the fault engine's per-space syscall counter
/// produces for lineage path `/`. A fused `PutGet` is one syscall (it
/// records a fused `Put` + `Get` pair; the pair is counted at its
/// `Put` half).
pub fn root_syscalls(trace: &Trace) -> u64 {
    trace
        .events
        .iter()
        .filter(|ev| match ev {
            TraceEvent::Put { caller, .. } => *caller == 0,
            TraceEvent::Get { caller, fused, .. } => *caller == 0 && !fused,
            TraceEvent::DevRead { .. }
            | TraceEvent::DevWrite { .. }
            | TraceEvent::Checkpoint { .. } => true,
            _ => false,
        })
        .count() as u64
}

/// The oracle-trace event index at which the root's `nth` syscall
/// (0-based, in [`root_syscalls`] numbering) was recorded —
/// approximately where a kill at that ordinal cuts the run.
fn root_syscall_event_index(trace: &Trace, nth: u64) -> usize {
    let mut seen = 0u64;
    for (i, ev) in trace.events.iter().enumerate() {
        let is_root_syscall = match ev {
            TraceEvent::Put { caller, .. } => *caller == 0,
            TraceEvent::Get { caller, fused, .. } => *caller == 0 && !fused,
            TraceEvent::DevRead { .. }
            | TraceEvent::DevWrite { .. }
            | TraceEvent::Checkpoint { .. } => true,
            _ => false,
        };
        if is_root_syscall {
            if seen == nth {
                return i;
            }
            seen += 1;
        }
    }
    trace.events.len()
}

/// Runs the crash-recovery conformance check for one scenario:
///
/// 1. an uninterrupted **oracle** run is recorded and bundled;
/// 2. a second run is **killed** by an injected fault at root syscall
///    `kill_at` (default: the midpoint), and its crash log is checked
///    to be a replayable trace prefix;
/// 3. a checkpoint is captured at the latest restorable boundary at
///    or before the kill point, round-tripped through its byte
///    encoding (digest verified), **restored**, and resumed over the
///    oracle trace's suffix;
/// 4. the recovered bundle must be byte-identical to the oracle's.
pub fn crash_recovery_check(sc: &Scenario, kill_at: Option<u64>) -> RecoveryReport {
    let mut report = RecoveryReport {
        scenario: sc.name,
        kill_at: 0,
        boundary: 0,
        trace_len: 0,
        error: None,
        divergence: None,
    };
    fn fail(r: &mut RecoveryReport, msg: String) {
        r.error = Some(msg);
    }

    // 1. Oracle.
    let oracle = (sc.run)(&ScenarioConfig::traced(()));
    let baseline = Artifacts::collect(sc.name, (), &oracle);
    let Some(trace) = oracle.trace else {
        fail(&mut report, "scenario records no trace".to_string());
        return report;
    };
    report.trace_len = trace.events.len();

    // 2. Kill a replica at a root syscall that provably exists.
    let total = root_syscalls(&trace);
    if total == 0 {
        fail(&mut report, "root made no syscalls to kill at".to_string());
        return report;
    }
    let kill = kill_at.unwrap_or(total / 2).min(total - 1);
    report.kill_at = kill;
    let crashed = (sc.run)(&ScenarioConfig {
        faults: FaultPlan::kill_at_syscall(kill),
        ..ScenarioConfig::traced(())
    });
    if crashed.outcome.exit.is_ok() {
        fail(
            &mut report,
            format!(
                "kill at root syscall {kill} did not take the run down \
                 (exit {:?})",
                crashed.outcome.exit
            ),
        );
        return report;
    }
    // The crash log must itself be a structurally valid trace prefix:
    // a crash truncates history, it never corrupts it.
    if let Some(crash_log) = &crashed.trace {
        if let Err(e) = crash_log.replay_prefix() {
            fail(&mut report, format!("crash log does not replay: {e:?}"));
            return report;
        }
    }

    // 3. Restore from the latest restorable boundary at the kill.
    let cut = root_syscall_event_index(&trace, kill);
    let boundary = latest_restorable_boundary(&trace, cut);
    report.boundary = boundary;
    let ckpt = match Checkpoint::capture(&trace, boundary) {
        Ok(c) => c,
        Err(e) => {
            fail(&mut report, format!("checkpoint capture failed: {e:?}"));
            return report;
        }
    };
    // Round-trip through the byte encoding — the form a real recovery
    // loads from disk — so the digest and version checks are on-path.
    let ckpt = match Checkpoint::from_bytes(&ckpt.to_bytes()) {
        Ok(c) => c,
        Err(e) => {
            fail(&mut report, format!("checkpoint bytes rejected: {e:?}"));
            return report;
        }
    };
    let resumed = ckpt
        .restore()
        .and_then(|r| r.resume(&trace.events[boundary..]));
    let out = match resumed {
        Ok(o) => o,
        Err(e) => {
            fail(&mut report, format!("restore/resume failed: {e:?}"));
            return report;
        }
    };

    // 4. Byte-identical bundle or a localized divergence.
    let recovered = Artifacts::from_recovery(sc.name, (), &out, &trace);
    report.divergence = compare(&baseline, &recovered, Scope::Full);
    report
}

/// Runs crash-recovery conformance for every traceable registered
/// scenario.
pub fn recover_all(kill_at: Option<u64>) -> Vec<RecoveryReport> {
    registry()
        .iter()
        .filter(|sc| sc.traceable)
        .map(|sc| crash_recovery_check(sc, kill_at))
        .collect()
}
