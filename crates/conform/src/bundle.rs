//! Canonical artifact bundles.
//!
//! An [`Artifacts`] value captures everything observable about one
//! scenario run: exit status, the virtual clock, the full
//! deterministic [`KernelStats`] vector, device outputs, the consumed
//! input log, per-space memory digests (keyed by *lineage path*, not
//! by allocation-order space id), and — when a trace was recorded —
//! the syscall event log projected into per-space streams.
//!
//! [`Artifacts::to_bytes`] serializes the bundle into a canonical,
//! byte-stable text form: fixed section order, fixed key order inside
//! each section, spaces and trace streams sorted by path, all ids
//! rewritten to paths. Two conforming replicas must produce identical
//! bytes; the first differing byte is the divergence the harness
//! localizes.
//!
//! Space ids never appear in the serialized form: ids are allocation
//! order, which can legitimately differ between replicas when sibling
//! subtrees create spaces concurrently. Lineage paths (`/`, `/3`,
//! `/3/1`, `/3/1@2` after a rebind) are a pure function of the
//! kernel-mediated event history and are therefore run-invariant.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use det_kernel::{DeviceId, IoLog, KernelStats, ReplayOutcome, SpaceArtifact, Trace, TraceEvent};
use serde::{Serialize, Value};

use crate::scenario::ScenarioRun;

/// Which sections of a bundle participate in a comparison: all of
/// them, always — any byte may differ only through a real
/// nondeterminism bug.
///
/// Residue: the frozen benchmark passes `Scope::Full` to
/// [`Artifacts::to_bytes`] and [`crate::compare`]
/// (`benchmark/src/workloads/persist_replay.rs:158,164`). Nothing
/// reads it; the next `[benchmark]` PR drops the parameter.
#[doc(hidden)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scope {
    /// Every section.
    Full,
}

/// The canonical artifact bundle of one scenario run.
#[derive(Clone, Debug)]
pub struct Artifacts {
    /// Scenario name (bundle `[meta]`).
    pub scenario: String,
    /// Root exit status, `Debug`-rendered (`Ok(0)`, `Err(PageFault)`…).
    pub exit: String,
    /// Virtual-time makespan in nanoseconds.
    pub vclock_ns: u64,
    /// The full deterministic kernel statistics vector.
    pub stats: KernelStats,
    /// Final device output streams.
    pub outputs: BTreeMap<DeviceId, Vec<u8>>,
    /// Consumed nondeterministic inputs.
    pub io_log: IoLog,
    /// Per-space final artifacts, sorted by lineage path.
    pub spaces: Vec<SpaceArtifact>,
    /// Per-space serialized trace event streams (path → rewritten
    /// event JSON lines), present when the run recorded a trace.
    pub trace_streams: Option<Vec<(String, Vec<String>)>>,
}

impl Artifacts {
    /// Collects the bundle from a scenario run.
    ///
    /// Residue: the unit argument is what the frozen benchmark's
    /// `cfg.dispatch` is now (`persist_replay.rs:157,163`, for this
    /// and [`Artifacts::from_recovery`]).
    pub fn collect(scenario: &str, _dispatch: (), run: &ScenarioRun) -> Artifacts {
        let out = &run.outcome;
        let mut spaces = out.spaces.clone();
        spaces.sort_by(|a, b| a.path.cmp(&b.path));
        let trace_streams = run
            .trace
            .as_ref()
            .map(|t| project_streams(&t.events, &out.space_paths));
        Artifacts {
            scenario: scenario.to_string(),
            exit: format!("{:?}", out.exit),
            vclock_ns: out.vclock_ns,
            stats: out.stats.clone(),
            outputs: out.outputs.clone(),
            io_log: out.io_log.clone(),
            spaces,
            trace_streams,
        }
    }

    /// Builds the bundle of a *recovered* run: a checkpoint restore
    /// resumed over the oracle trace's suffix.
    ///
    /// The resume yields a [`ReplayOutcome`]; the sections a replay
    /// does not carry are reconstructed from the trace itself — the
    /// input log by [`Trace::io_log`], the trace streams from the full
    /// event sequence the recovered run re-derived. Crash recovery conforms
    /// iff this bundle is byte-identical to the uninterrupted run's
    /// [`Artifacts::collect`] bundle.
    pub fn from_recovery(
        scenario: &str,
        _dispatch: (),
        out: &ReplayOutcome,
        trace: &Trace,
    ) -> Artifacts {
        let mut spaces = out.spaces.clone();
        spaces.sort_by(|a, b| a.path.cmp(&b.path));
        Artifacts {
            scenario: scenario.to_string(),
            exit: format!("{:?}", out.exit),
            vclock_ns: out.vclock_ns,
            stats: out.stats.clone(),
            outputs: out.outputs.clone(),
            io_log: trace.io_log(),
            spaces,
            trace_streams: Some(project_streams(&trace.events, &out.space_paths)),
        }
    }

    /// Serializes the bundle into its canonical byte form.
    ///
    /// Sections appear in a fixed order — `[meta]`, `[exit]`,
    /// `[vclock]`, `[stats-core]`, `[outputs]`, `[io]`, `[spaces]`,
    /// `[trace]` — with one `key=value` line per fact and `\n` line
    /// endings throughout.
    pub fn to_bytes(&self, _scope: Scope) -> Vec<u8> {
        let mut s = String::new();
        let _ = writeln!(s, "[meta]\nscenario={}", self.scenario);
        let _ = writeln!(s, "[exit]\nexit={}", self.exit);
        let _ = writeln!(s, "[vclock]\nvclock_ns={}", self.vclock_ns);

        s.push_str("[stats-core]\n");
        for (k, v) in self.stats.lines() {
            let _ = writeln!(s, "{k}={v}");
        }

        s.push_str("[outputs]\n");
        for (dev, data) in &self.outputs {
            let hex = serde_json::to_string(data).expect("bytes render");
            let _ = writeln!(s, "{dev:?}={hex}");
        }
        s.push_str("[io]\n");
        let _ = writeln!(
            s,
            "events={}",
            serde_json::to_string(&self.io_log).expect("io log renders")
        );
        s.push_str("[spaces]\n");
        for sp in &self.spaces {
            let _ = writeln!(
                s,
                "space path={} vclock_ps={} insn={} digest={:016x}",
                sp.path, sp.vclock_ps, sp.insn_count, sp.digest
            );
            for (vpn, d) in &sp.page_digests {
                let _ = writeln!(s, "page path={} vpn={vpn:#x} digest={d:016x}", sp.path);
            }
        }
        if let Some(streams) = &self.trace_streams {
            s.push_str("[trace]\n");
            for (path, events) in streams {
                let _ = writeln!(s, "stream path={path} events={}", events.len());
                for e in events {
                    let _ = writeln!(s, "e={e}");
                }
            }
        }
        s.into_bytes()
    }

    /// Fault injection for harness self-tests: XORs one bit into the
    /// first per-page digest found, modelling a single corrupted page.
    /// Returns false if the bundle has no paged space.
    pub fn corrupt_page_digest(&mut self) -> bool {
        for sp in &mut self.spaces {
            if let Some((_, d)) = sp.page_digests.first_mut() {
                *d ^= 1;
                return true;
            }
        }
        false
    }

    /// Fault injection for harness self-tests: swaps the first two
    /// events of the first stream that has at least two, modelling a
    /// schedule divergence. Returns false without a suitable stream.
    pub fn reorder_trace(&mut self) -> bool {
        if let Some(streams) = &mut self.trace_streams {
            for (_, events) in streams.iter_mut() {
                if events.len() >= 2 {
                    events.swap(0, 1);
                    return true;
                }
            }
        }
        false
    }
}

/// The space a trace event belongs to: syscalls belong to the caller,
/// check-ins to the space checking in, device I/O and the root exit to
/// the root.
fn event_owner(ev: &TraceEvent) -> u32 {
    match ev {
        TraceEvent::Put { caller, .. } | TraceEvent::Get { caller, .. } => *caller,
        TraceEvent::CheckIn { space, .. } => *space,
        // Device I/O, checkpoints, and the exit are root-only syscalls.
        TraceEvent::DevRead { .. }
        | TraceEvent::DevWrite { .. }
        | TraceEvent::Checkpoint { .. }
        | TraceEvent::RootExit { .. } => 0,
    }
}

/// Projects the global event log into per-space streams keyed by
/// lineage path, rewriting every recorded space id into its path.
///
/// The global interleaving of events from *different* spaces depends
/// on the host schedule and is not part of the deterministic contract;
/// each space's own event sequence is. Projection makes the canonical
/// form exactly as strong as the guarantee.
fn project_streams(
    events: &[TraceEvent],
    space_paths: &[(u32, String)],
) -> Vec<(String, Vec<String>)> {
    let paths: BTreeMap<u32, &str> = space_paths
        .iter()
        .map(|(id, p)| (*id, p.as_str()))
        .collect();
    let path_of = |id: u32| -> String {
        paths
            .get(&id)
            .map(|p| p.to_string())
            .unwrap_or_else(|| format!("<unknown:{id}>"))
    };
    let mut streams: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for ev in events {
        let owner = path_of(event_owner(ev));
        let rewritten = rewrite_ids(ev.to_value(), &path_of);
        streams
            .entry(owner)
            .or_default()
            .push(serde_json::to_string(&rewritten).expect("event renders"));
    }
    streams.into_iter().collect()
}

/// Rewrites the id-bearing fields of a serialized event — `caller`,
/// `child_id`, `space`, and the `tree_new_ids` array — from space ids
/// to lineage paths. Ids only occur at the top level of the event
/// object, so the rewrite is shallow.
fn rewrite_ids(v: Value, path_of: &dyn Fn(u32) -> String) -> Value {
    let Value::Object(fields) = v else {
        return v;
    };
    let mapped = fields
        .into_iter()
        .map(|(k, v)| {
            let v = match (k.as_str(), &v) {
                ("caller" | "child_id" | "space", Value::UInt(id)) => {
                    Value::Str(path_of(*id as u32))
                }
                ("tree_new_ids", Value::Array(ids)) => Value::Array(
                    ids.iter()
                        .map(|id| match id {
                            Value::UInt(id) => Value::Str(path_of(*id as u32)),
                            other => other.clone(),
                        })
                        .collect(),
                ),
                _ => v,
            };
            (k, v)
        })
        .collect();
    Value::Object(mapped)
}

/// Re-projects a [`Trace`]'s events (used by tests that want streams
/// without building full artifacts).
pub fn streams_of(trace: &Trace, space_paths: &[(u32, String)]) -> Vec<(String, Vec<String>)> {
    project_streams(&trace.events, space_paths)
}
