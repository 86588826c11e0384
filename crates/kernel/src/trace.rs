//! Syscall-trace record and replay.
//!
//! With tracing enabled ([`crate::KernelConfig::builder`]'s
//! `trace()`), the shell records every event it feeds the pure core —
//! each rendezvous, check-in, device access, and the root exit — into
//! a [`TraceSink`]. The collected [`Trace`] is a complete, serializable
//! account of the run: [`Trace::replay`] re-applies it to a fresh
//! [`KState`](crate::state::KState) **without running any program
//! code** — no threads, no VM interpretation, no host devices — and
//! reproduces the original run's exit status, virtual clock, kernel
//! statistics, device outputs, and per-space memory digests
//! bit-identically.
//!
//! This is the paper's determinism thesis made mechanically checkable:
//! if the kernel state really is a pure function of the explicit event
//! sequence, then folding the recorded events through
//! [`apply`](crate::apply) must land on the same state the live run
//! reached. The `trace_roundtrip` integration tests assert exactly
//! that, through a JSON round-trip for good measure.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use det_memory::ConflictPolicy;
use serde::{DeError, Deserialize, Serialize, Value, field};

use crate::apply::{TraceEvent, apply};
use crate::cost::{CostModel, ps_to_ns};
use crate::device::{DeviceId, InputEvent, IoLog};
use crate::error::{KernelError, Result, TrapKind};
use crate::state::{KState, RunState, SpaceState};
use crate::stats::KernelStats;

/// Shared event collector the shell records into.
///
/// Clone it, hand one clone to
/// [`KernelConfigBuilder::trace`](crate::KernelConfigBuilder::trace),
/// and call [`TraceSink::collect`] after the run.
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
    meta: Arc<Mutex<Option<TraceMeta>>>,
}

impl TraceSink {
    /// A fresh, empty sink.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// Appends one event (shell-side).
    pub(crate) fn push(&self, ev: TraceEvent) {
        lock_recover(&self.events).push(ev);
    }

    /// Stamps the run parameters (shell-side, at kernel build).
    pub(crate) fn set_meta(&self, meta: TraceMeta) {
        *lock_recover(&self.meta) = Some(meta);
    }

    /// Number of events recorded so far (a crash log's length).
    pub fn len(&self) -> usize {
        lock_recover(&self.events).len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes the recorded trace out of the sink, leaving it empty.
    ///
    /// Returns `None` if the sink was never attached to a kernel.
    pub fn collect(&self) -> Option<Trace> {
        let meta = lock_recover(&self.meta).take()?;
        let events = std::mem::take(&mut *lock_recover(&self.events));
        Some(Trace { meta, events })
    }
}

/// Locks a sink mutex, recovering from poisoning: a vehicle that
/// panicked mid-run (including a deliberately injected panic) must not
/// cascade into every later recorder — the sink holds plain event data
/// that is never left half-written by a panic, so the poison flag
/// carries no information here.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The run parameters a replay must reproduce exactly.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Virtual-time cost model of the recorded run.
    pub costs: CostModel,
    /// Default merge conflict policy.
    pub policy: ConflictPolicy,
}

/// A recorded run: parameters plus the full event sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Run parameters.
    pub meta: TraceMeta,
    /// The events, in recorded order.
    pub events: Vec<TraceEvent>,
}

/// The per-space slice of a run's final state — what the conformance
/// harness compares across replicas, and what a replay must reproduce.
///
/// Spaces are named by their deterministic lineage [`path`] in any
/// cross-run artifact; the table [`id`] is an allocation-order detail
/// carried along for diagnostics only.
///
/// [`path`]: SpaceArtifact::path
/// [`id`]: SpaceArtifact::id
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpaceArtifact {
    /// Space table id (allocation order; may differ across runs).
    pub id: u32,
    /// Deterministic lineage path (`"/"` for the root, `"/7"` for
    /// child number 7 of the root, `"/7/3@1"` for the second space
    /// ever bound at number 3 under it, and so on).
    pub path: String,
    /// Final virtual clock in picoseconds.
    pub vclock_ps: u64,
    /// VM instructions retired.
    pub insn_count: u64,
    /// Whole-space content digest (permissions + bytes of every
    /// mapped page).
    pub digest: u64,
    /// Per-page `(vpn, digest)` pairs, ascending by vpn — fine-grained
    /// enough for a divergence report to name the first differing page.
    pub page_digests: Vec<(u64, u64)>,
}

impl SpaceArtifact {
    pub(crate) fn of(id: u32, path: String, st: &SpaceState) -> SpaceArtifact {
        SpaceArtifact {
            id,
            path,
            vclock_ps: st.vclock_ps,
            insn_count: st.insn_count,
            digest: st.mem.content_digest().value(),
            page_digests: st.mem.page_digests(),
        }
    }
}

/// What a replay reproduces — the deterministic face of
/// [`RunOutcome`](crate::RunOutcome). (The host-I/O log is not part of
/// it: device *inputs* are already baked into the recorded deltas.)
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// The root program's exit status, or the trap that ended it.
    pub exit: std::result::Result<i32, TrapKind>,
    /// The root space's final virtual clock (nanoseconds).
    pub vclock_ns: u64,
    /// Kernel operation counters; every field matches the live run
    /// exactly. (Host scheduling noise lives in
    /// [`HostStats`](crate::HostStats), outside this struct.)
    pub stats: KernelStats,
    /// Device output buffers, ordered by device.
    pub outputs: BTreeMap<DeviceId, Vec<u8>>,
    /// Per-space artifacts at end of run, ascending by space id
    /// (spaces whose state was still checked out to an abandoned
    /// vehicle at shutdown are not observable and not listed).
    pub spaces: Vec<SpaceArtifact>,
    /// Every space's `(id, lineage path)`, including spaces with no
    /// artifact — the complete map for projecting trace events onto
    /// path-named streams.
    pub space_paths: Vec<(u32, String)>,
}

impl Trace {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Compact JSON encoding.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serialization is infallible")
    }

    /// Pretty-printed JSON encoding.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serialization is infallible")
    }

    /// Parses a JSON-encoded trace.
    pub fn from_json(s: &str) -> std::result::Result<Trace, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// The nondeterministic inputs the recorded run consumed, in
    /// consumption order — the root's `DevRead` events, which is exactly
    /// how the live [`RunOutcome::io_log`](crate::RunOutcome::io_log) is
    /// built. Handing it to [`IoMode::Replay`](crate::IoMode::Replay)
    /// re-executes the run from its trace file alone (PAPER.md §2.1).
    pub fn io_log(&self) -> IoLog {
        let mut log = IoLog::default();
        for ev in &self.events {
            if let TraceEvent::DevRead { dev, data, .. } = ev {
                log.events.push(InputEvent {
                    seq: log.events.len() as u64,
                    device: *dev,
                    data: data.clone(),
                });
            }
        }
        log
    }

    /// Re-applies the recorded events to a fresh kernel state, running
    /// no program code, and returns the reproduced outcome.
    ///
    /// Fails with [`KernelError::ReplayDivergence`] only if the trace
    /// is structurally impossible (truncated, reordered across a slot,
    /// or forged); errors the recorded programs observed live are part
    /// of history and replay silently.
    pub fn replay(&self) -> Result<ReplayOutcome> {
        let mut ks = KState::new(self.meta.costs, self.meta.policy);
        for ev in &self.events {
            apply(&mut ks, ev)?;
        }
        outcome_of(ks, true)
    }

    /// Replays a possibly-truncated trace — the crash log of a run
    /// killed mid-flight (e.g. by an injected
    /// [`KernelError::Killed`] fault).
    ///
    /// Identical to [`Trace::replay`], except a missing `RootExit`
    /// event is tolerated: the outcome then reports a
    /// `Fault("run truncated before root exit")` trap in place of an
    /// exit status. Structural divergence still fails — a crash
    /// truncates a trace, it never corrupts it.
    pub fn replay_prefix(&self) -> Result<ReplayOutcome> {
        let mut ks = KState::new(self.meta.costs, self.meta.policy);
        for ev in &self.events {
            apply(&mut ks, ev)?;
        }
        outcome_of(ks, false)
    }
}

/// Extracts the reproduced outcome from a stepped kernel state.
///
/// With `require_exit`, a state whose trace never recorded a `RootExit`
/// is structural divergence; without it (crash logs, checkpoint
/// resumes over partial suffixes) the missing exit is reported as a
/// deterministic truncation trap.
pub(crate) fn outcome_of(ks: KState, require_exit: bool) -> Result<ReplayOutcome> {
    let exit = match ks.root_exit {
        Some(exit) => exit,
        None if require_exit => {
            return Err(KernelError::ReplayDivergence("trace has no RootExit"));
        }
        None => Err(TrapKind::Fault("run truncated before root exit")),
    };
    let vclock_ns = match ks.slots.get(&0).and_then(|s| s.state.as_ref()) {
        Some(st) => ps_to_ns(st.vclock_ps),
        None => return Err(KernelError::ReplayDivergence("root state missing at exit")),
    };
    let mut spaces = Vec::new();
    let mut space_paths = Vec::new();
    for (&id, slot) in &ks.slots {
        space_paths.push((id, slot.path.clone()));
        // A non-root slot still `Running` was checked out to an
        // abandoned vehicle at shutdown; its memory was not
        // observable live either.
        if id != 0 && matches!(slot.run, RunState::Running) {
            continue;
        }
        if let Some(st) = slot.state.as_ref() {
            spaces.push(SpaceArtifact::of(id, slot.path.clone(), st));
        }
    }
    Ok(ReplayOutcome {
        exit,
        vclock_ns,
        stats: ks.stats,
        outputs: ks.outputs,
        spaces,
        space_paths,
    })
}

/// The trace text format this build writes and reads: the derived
/// encodings of [`TraceMeta`] and [`TraceEvent`] (each type's mapping
/// lives with its definition). Bump it when any of them changes shape.
const TRACE_FORMAT_VERSION: u32 = 3;

// Written by hand for the version gate: a trace from another format
// must fail here, before any event is interpreted.
impl Serialize for Trace {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("version".to_string(), TRACE_FORMAT_VERSION.to_value()),
            ("meta".to_string(), self.meta.to_value()),
            ("events".to_string(), self.events.to_value()),
        ])
    }
}

impl Deserialize for Trace {
    fn from_value(v: &Value) -> std::result::Result<Trace, DeError> {
        let version: u32 = field(v, "version")?;
        if version != TRACE_FORMAT_VERSION {
            return Err(DeError::msg(format!(
                "trace format version {version}, this build reads {TRACE_FORMAT_VERSION}"
            )));
        }
        Ok(Trace {
            meta: field(v, "meta")?,
            events: field(v, "events")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

    use det_memory::{MemError, MergeStats, PageDelta, PageDeltaOp, Perm, Region, SpaceDelta};
    use det_vm::Regs;

    use super::*;
    use crate::apply::{EntryRec, PutRec, VmCounters};
    use crate::state::ProgramKind;
    use crate::stats::{HostStats, MergeStatsSerde};
    use crate::syscall::{CopySpec, GetSpec, StartSpec, StopReason};

    /// `to_value` → compact and pretty JSON (the trace's rendering) and
    /// binary (the checkpoint payload's and the wire delta's, which must
    /// also re-encode to the same bytes) → `from_value` gives the value
    /// back.
    fn roundtrip<T: Serialize + Deserialize + PartialEq + Debug>(t: &T) {
        for text in [
            serde_json::to_string(t).unwrap(),
            serde_json::to_string_pretty(t).unwrap(),
        ] {
            assert_eq!(&serde_json::from_str::<T>(&text).unwrap(), t, "{text}");
        }
        let bytes = serde::bin::to_vec(t);
        let back: T = serde::bin::from_slice(&bytes).unwrap();
        assert_eq!(&back, t);
        assert_eq!(serde::bin::to_vec(&back), bytes);
    }

    fn regs() -> Regs {
        Regs {
            pc: 0x40,
            gpr: std::array::from_fn(|i| i as u64 * 3 + 1),
        }
    }

    fn delta() -> SpaceDelta {
        let page = |vpn, perm, op| PageDelta { vpn, perm, op };
        SpaceDelta {
            pages: vec![
                page(4, Perm::RW, PageDeltaOp::Write(vec![0xde, 0xad, 0x00])),
                page(5, Perm::R, PageDeltaOp::WriteZero),
                page(6, Perm::NONE, PageDeltaOp::SetPerm),
                page(7, Perm::W, PageDeltaOp::MarkDirty),
            ],
            unmapped: vec![42],
        }
    }

    fn entry() -> EntryRec {
        EntryRec {
            advance_ps: 123,
            limit_ps: Some(99),
            delta: delta(),
        }
    }

    fn traps() -> Vec<TrapKind> {
        let mem = [
            MemError::Unmapped { addr: 1 },
            MemError::PermDenied {
                addr: 0x4001,
                need: Perm::W,
            },
            MemError::Misaligned { addr: 3 },
            MemError::Conflict { addr: 4 },
            MemError::AddressOverflow,
        ];
        let mut all: Vec<TrapKind> = mem.into_iter().map(TrapKind::Mem).collect();
        all.extend([
            TrapKind::DivideByZero,
            TrapKind::IllegalInstruction(0xfe),
            TrapKind::PcMisaligned(0x1001),
            TrapKind::Panic,
            TrapKind::Conflict(0x2008),
            TrapKind::Fault("undefined syscall"),
        ]);
        all
    }

    fn stops() -> Vec<StopReason> {
        let mut all = vec![
            StopReason::Unstarted,
            StopReason::Ret,
            StopReason::Halted,
            StopReason::LimitReached,
        ];
        all.extend(traps().into_iter().map(StopReason::Trap));
        all
    }

    /// A trace holding every event variant, every field non-default.
    fn full_trace() -> Trace {
        let vm = VmCounters {
            instructions: 9,
            tlb_hits: 8,
            pages_walked: 1,
            icache_hits: 7,
            icache_fills: 2,
        };
        let copy = CopySpec {
            src: Region::new(0x1000, 0x2000),
            dst: 0x3000,
        };
        let mut events = vec![
            TraceEvent::Put {
                caller: 5,
                child: 7,
                child_id: 1,
                fused: true,
                entry: entry(),
                put: PutRec {
                    regs: Some(regs()),
                    program: Some(ProgramKind::Vm),
                    copy: Some(copy),
                    zero: Some(Region::new(0x5000, 0x6000)),
                    perm: Some((Region::new(0, 0x1000), Perm::R)),
                    snap: true,
                    tree_from: Some(9),
                    start: Some(StartSpec {
                        limit_ns: Some(1_000),
                    }),
                },
                tree_new_ids: vec![2, 3],
            },
            TraceEvent::Put {
                caller: 0,
                child: 1,
                child_id: 1,
                fused: false,
                entry: EntryRec::default(),
                put: PutRec {
                    regs: None,
                    program: Some(ProgramKind::Native),
                    copy: None,
                    zero: None,
                    perm: None,
                    snap: false,
                    tree_from: None,
                    start: Some(StartSpec { limit_ns: None }),
                },
                tree_new_ids: Vec::new(),
            },
            TraceEvent::Get {
                caller: 5,
                child: 7,
                child_id: 1,
                fused: true,
                entry: None,
                get: GetSpec {
                    regs: true,
                    copy: Some(copy),
                    merge: Some(Region::new(0x1000, 0x2000)),
                    merge_policy: Some(ConflictPolicy::ChildWins),
                    zero: Some(Region::new(0x7000, 0x8000)),
                    perm: Some((Region::new(0x8000, 0x9000), Perm::RW)),
                },
            },
            TraceEvent::Get {
                caller: 0,
                child: 1,
                child_id: 1,
                fused: false,
                entry: Some(entry()),
                get: GetSpec::default(),
            },
            TraceEvent::DevRead {
                entry: entry(),
                dev: DeviceId::Clock,
                data: Some(vec![1, 2, 3]),
            },
            TraceEvent::DevRead {
                entry: EntryRec::default(),
                dev: DeviceId::ConsoleIn,
                data: None,
            },
            TraceEvent::DevWrite {
                entry: entry(),
                dev: DeviceId::ConsoleOut,
                data: b"hi".to_vec(),
            },
            TraceEvent::Checkpoint {
                entry: entry(),
                leaves: 3,
            },
            TraceEvent::RootExit {
                entry: entry(),
                regs: regs(),
                exit: Ok(-7),
            },
            TraceEvent::RootExit {
                entry: EntryRec::default(),
                regs: Regs::default(),
                exit: Err(TrapKind::Panic),
            },
        ];
        events.extend(stops().into_iter().map(|reason| TraceEvent::CheckIn {
            space: 1,
            reason,
            final_stop: true,
            lost_state: true,
            regs: regs(),
            advance_ps: 55,
            limit_ps: Some(44),
            insn_delta: 9,
            vm,
            delta: delta(),
        }));
        Trace {
            meta: TraceMeta {
                costs: CostModel::default(),
                policy: ConflictPolicy::BenignSameValue,
            },
            events,
        }
    }

    /// Every persisted type, every variant: nothing a mapping could
    /// drop or confuse survives a round trip unnoticed.
    #[test]
    fn every_persisted_shape_roundtrips() {
        roundtrip(&full_trace());
        roundtrip(&delta());
        for policy in [
            ConflictPolicy::Strict,
            ConflictPolicy::BenignSameValue,
            ConflictPolicy::ChildWins,
        ] {
            roundtrip(&policy);
        }
        roundtrip(&[
            DeviceId::ConsoleIn,
            DeviceId::ConsoleOut,
            DeviceId::Clock,
            DeviceId::Random,
        ]);
        roundtrip(&[Perm::NONE, Perm::R, Perm::W, Perm::RW]);
        // `RunState` has no `PartialEq`; compare the encodings.
        let mut runs = vec![RunState::Runnable, RunState::Running, RunState::Destroyed];
        runs.extend(stops().into_iter().map(RunState::Idle));
        let v = runs.to_value();
        let text = serde_json::to_string(&v).unwrap();
        let back: Vec<RunState> = serde_json::from_str(&text).unwrap();
        assert_eq!(back.to_value(), v);
        assert_eq!(back.len(), runs.len());
        let back: Vec<RunState> = serde::bin::from_slice(&serde::bin::to_vec(&v)).unwrap();
        assert_eq!(back.to_value(), v);

        // Every counter distinct, so a swapped pair shows.
        let merge = MergeStats {
            pages_scanned: 1,
            pages_skipped_clean: 2,
            pages_unchanged: 3,
            pages_skipped_shared: 4,
            pages_aliased: 5,
            pages_adopted: 37,
            pages_diffed: 6,
            words_compared: 7,
            bytes_compared: 8,
            bytes_copied: 9,
            pages_mapped: 10,
        };
        roundtrip(&KernelStats {
            puts: 11,
            gets: 12,
            put_gets: 13,
            rets: 14,
            traps: 15,
            limit_preemptions: 16,
            spaces_created: 17,
            threads_spawned: 18,
            pages_copied: 19,
            pages_snapped: 20,
            leaves_cloned: 21,
            merges: 22,
            merge_totals: MergeStatsSerde(merge),
            conflicts: 23,
            migrations: 24,
            device_reads: 25,
            device_write_bytes: 26,
            vm_instructions: 27,
            vm_tlb_hits: 28,
            vm_pages_walked: 29,
            vm_icache_hits: 30,
            vm_icache_fills: 31,
            condvar_wakeups: 32,
            vm_inline_runs: 33,
            checkpoints: 34,
            checkpoint_leaves: 35,
        });
        roundtrip(&HostStats {
            spurious_wakeups: 36,
            os_threads_created: 37,
        });
    }

    #[test]
    fn missing_or_stale_version_is_rejected() {
        let json = full_trace().to_json();
        let current = format!("{{\"version\":{TRACE_FORMAT_VERSION},");
        assert!(json.starts_with(&current));
        assert!(Trace::from_json(&json).is_ok());
        // The previous format (its `meta` still named a VM vehicle).
        let previous = format!("{{\"version\":{},", TRACE_FORMAT_VERSION - 1);
        let stale = json.replacen(&current, &previous, 1);
        assert!(Trace::from_json(&stale).is_err());
        let unversioned = json.replacen(&current, "{", 1);
        assert!(Trace::from_json(&unversioned).is_err());
    }

    #[test]
    fn empty_trace_has_no_root_exit() {
        let trace = Trace {
            meta: TraceMeta {
                costs: CostModel::zero(),
                policy: ConflictPolicy::Strict,
            },
            events: Vec::new(),
        };
        assert!(trace.is_empty());
        assert!(matches!(
            trace.replay(),
            Err(KernelError::ReplayDivergence(_))
        ));
    }
}
