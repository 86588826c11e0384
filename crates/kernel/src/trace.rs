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

use serde::{DeError, Deserialize, Serialize, Sink, Source};

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
        let (digest, page_digests) = st.mem.digests();
        SpaceArtifact {
            id,
            path,
            vclock_ps: st.vclock_ps,
            insn_count: st.insn_count,
            digest: digest.value(),
            page_digests,
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
        outcome_of(fold(KState::new(self.meta.costs), &self.events)?, true)
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
        outcome_of(fold(KState::new(self.meta.costs), &self.events)?, false)
    }
}

/// Steps `ks` through `events` with the pure core, stopping at the
/// first structural divergence — the one fold behind replay, checkpoint
/// capture and resume.
pub(crate) fn fold(mut ks: KState, events: &[TraceEvent]) -> Result<KState> {
    for ev in events {
        apply(&mut ks, ev)?;
    }
    Ok(ks)
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
const TRACE_FORMAT_VERSION: u32 = 5;

// Written by hand for the version gate: a trace from another format
// must fail here, before any event is interpreted.
impl Serialize for Trace {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_object(3);
        sink.key("version");
        TRACE_FORMAT_VERSION.serialize(sink);
        sink.key("meta");
        self.meta.serialize(sink);
        sink.key("events");
        self.events.serialize(sink);
        sink.end_object();
    }
}

/// A trace's fields as its text holds them, in any order; the version
/// is checked before [`Trace`] is built from them.
#[derive(Deserialize)]
struct TraceFields {
    version: u32,
    meta: TraceMeta,
    events: Vec<TraceEvent>,
}

impl Deserialize for Trace {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> std::result::Result<Trace, S::Error> {
        let TraceFields {
            version,
            meta,
            events,
        } = TraceFields::deserialize(src)?;
        if version != TRACE_FORMAT_VERSION {
            return Err(DeError::msg(format!(
                "trace format version {version}, this build reads {TRACE_FORMAT_VERSION}"
            ))
            .into());
        }
        Ok(Trace { meta, events })
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

    use det_memory::{
        AddressSpace, ConflictPolicy, MemError, MergeStats, PageDelta, PageDeltaOp, Perm, Region,
        SpaceDelta,
    };
    use det_vm::Regs;
    use serde::Value;

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
            json_decodes_agree::<T>(&text);
        }
        let bytes = serde::bin::to_vec(t);
        let back: T = serde::bin::from_slice(&bytes).unwrap();
        assert_eq!(&back, t);
        assert_eq!(serde::bin::to_vec(&back), bytes);
        bin_decodes_agree::<T>(&bytes);
    }

    /// A decoded value by its canonical bytes, or `None` when refused.
    fn canonical<T: Serialize, E>(decoded: std::result::Result<T, E>) -> Option<Vec<u8>> {
        decoded.ok().map(|t| serde::bin::to_vec(&t))
    }

    /// The walk reading JSON text straight into `T` accepts exactly
    /// what parsing the text into a tree and reading `T` from the tree
    /// accepts, and gives the same value.
    fn json_decodes_agree<T: Serialize + Deserialize>(text: &str) -> bool {
        let streamed = canonical(serde_json::from_str::<T>(text));
        let tree = serde_json::from_str::<Value>(text).map_err(drop);
        let via_tree = canonical(tree.and_then(|v| T::from_value(&v).map_err(drop)));
        assert_eq!(streamed, via_tree, "{text}");
        streamed.is_some()
    }

    /// [`json_decodes_agree`] for the binary rendering.
    fn bin_decodes_agree<T: Serialize + Deserialize>(bytes: &[u8]) -> bool {
        let streamed = canonical(serde::bin::from_slice::<T>(bytes));
        let tree = serde::bin::from_slice::<Value>(bytes).map_err(drop);
        let via_tree = canonical(tree.and_then(|v| T::from_value(&v).map_err(drop)));
        assert_eq!(streamed, via_tree, "{bytes:?}");
        streamed.is_some()
    }

    /// Every truncation and every single-bit flip of `bytes`, then
    /// `bytes` itself.
    fn damaged(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        let cuts = (0..bytes.len()).map(|n| bytes[..n].to_vec());
        let flips = (0..bytes.len() * 8).map(|bit| {
            let mut b = bytes.to_vec();
            b[bit / 8] ^= 1 << (bit % 8);
            b
        });
        cuts.chain(flips).chain(std::iter::once(bytes.to_vec()))
    }

    /// A checkpoint payload, read as a walk reads it.
    #[derive(Serialize, Deserialize)]
    struct Payload {
        boundary: u64,
        kernel: crate::state::KState,
    }

    /// The streamed decoders agree with decoding through a tree on a
    /// recorded trace, a wire delta and a checkpoint payload, and on
    /// every truncation and single-bit flip of each: the same values
    /// accepted, the same refused.
    #[test]
    fn streamed_and_tree_decodes_agree_on_damaged_artifacts() {
        use crate::{Checkpoint, DeviceId, Kernel, KernelConfig, Program, PutSpec, TraceSink};
        let sink = TraceSink::new();
        let kernel = Kernel::new(KernelConfig::builder().trace(sink.clone()).build());
        kernel.push_input(DeviceId::ConsoleIn, b"in".to_vec());
        let out = kernel.run(|ctx| {
            let data = ctx.dev_read(DeviceId::ConsoleIn)?.unwrap_or_default();
            ctx.dev_write(DeviceId::ConsoleOut, &data)?;
            let child = Program::native(|c| {
                c.ret(1)?;
                Ok(3)
            });
            ctx.put(1, PutSpec::new().program(child).start())?;
            ctx.get(1, GetSpec::new().regs())?;
            ctx.checkpoint()?;
            Ok(0)
        });
        assert_eq!(out.exit, Ok(0));
        let trace = sink.collect().expect("sink recorded");
        let ckpt = Checkpoint::capture(&trace, trace.len() - 1).expect("capture");
        let ckpt = ckpt.to_bytes();
        let newline = ckpt.iter().position(|&b| b == b'\n').expect("header");
        let delta = SpaceDelta {
            pages: vec![
                PageDelta {
                    vpn: 4,
                    perm: Perm::RW,
                    op: PageDeltaOp::Write(vec![0xde, 0xad, 0x00, 0xff]),
                },
                PageDelta {
                    vpn: 5,
                    perm: Perm::R,
                    op: PageDeltaOp::WriteZero,
                },
            ],
            unmapped: vec![42],
        };

        let text = trace.to_json();
        let mut accepted = 0;
        for b in damaged(text.as_bytes()) {
            if let Ok(text) = std::str::from_utf8(&b) {
                accepted += usize::from(json_decodes_agree::<Trace>(text));
            }
        }
        for b in damaged(&serde::bin::to_vec(&delta)) {
            accepted += usize::from(bin_decodes_agree::<SpaceDelta>(&b));
        }
        for b in damaged(&ckpt[newline + 1..]) {
            accepted += usize::from(bin_decodes_agree::<Payload>(&b));
        }
        // The originals, and the flips that leave a value well-formed
        // (a digit for a digit, a bool for a bool).
        assert!(accepted > 3, "{accepted}");
    }

    /// An [`AddressSpace`] has no `PartialEq`: it round-trips when
    /// everything a merge or an artifact observes comes back — bytes,
    /// permissions, the dirty write-set, and which pages still alias
    /// the zero frame — through both renderings.
    fn roundtrip_space(mem: &AddressSpace) {
        let observe = |m: &AddressSpace| {
            let pages: Vec<_> = m
                .iter_pages()
                .map(|p| (p.vpn, p.perm, p.is_zero_frame))
                .collect();
            (m.digests(), m.dirty_vpns(), m.dirty_leaf_count(), pages)
        };
        let text = serde_json::to_string(mem).unwrap();
        let bytes = serde::bin::to_vec(mem);
        for back in [
            serde_json::from_str::<AddressSpace>(&text).unwrap(),
            serde::bin::from_slice::<AddressSpace>(&bytes).unwrap(),
        ] {
            assert_eq!(observe(&back), observe(mem));
            assert_eq!(serde::bin::to_vec(&back), bytes);
        }
        assert!(json_decodes_agree::<AddressSpace>(&text));
        assert!(bin_decodes_agree::<AddressSpace>(&bytes));
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
            MemError::RangeTooLarge { pages: 5 },
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

        roundtrip_space(&AddressSpace::new());
        let mut mem = AddressSpace::new();
        mem.map_zero(Region::new(0x1000, 0x7000), Perm::RW).unwrap();
        mem.write_u64(0x1000, 0xdead_beef).unwrap();
        let _ = mem.snapshot();
        // 1: clean written page, 2: dirty written page, 3: clean zero
        // page, 4: dirty zero page (re-zeroed, so dirty without a frame
        // change), 5: dirty page of zero bytes, 6: clean, `SetPerm`'d.
        mem.write_u64(0x2000, 7).unwrap();
        mem.map_zero(Region::new(0x4000, 0x5000), Perm::RW).unwrap();
        mem.write_u8(0x5000, 0).unwrap();
        mem.set_perm(Region::new(0x6000, 0x7000), Perm::R).unwrap();
        assert_eq!(mem.dirty_vpns(), vec![2, 4, 5]);
        let zero: Vec<u64> = mem
            .iter_pages()
            .filter(|p| p.is_zero_frame)
            .map(|p| p.vpn)
            .collect();
        assert!(zero.contains(&3) && zero.contains(&4), "{zero:?}");
        roundtrip_space(&mem);
        for policy in [ConflictPolicy::Strict, ConflictPolicy::ChildWins] {
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
        roundtrip(&CostModel {
            syscall_ps: 41,
            spawn_ps: 42,
            resume_ps: 43,
            rendezvous_ps: 44,
            page_map_ps: 45,
            space_clone_ps: 46,
            page_scan_ps: 47,
            word_compare_ps: 48,
            byte_compare_ps: 49,
            byte_copy_ps: 50,
            vm_insn_ps: 51,
            vm_tlb_fill_ps: 52,
            checkpoint_leaf_ps: 53,
        });
    }

    #[test]
    fn missing_or_stale_version_is_rejected() {
        let json = full_trace().to_json();
        let current = format!("{{\"version\":{TRACE_FORMAT_VERSION},");
        assert!(json.starts_with(&current));
        assert!(Trace::from_json(&json).is_ok());
        // The previous format (its `meta.costs` still priced an
        // analysis step).
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
                costs: crate::cost::tests::zero(),
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
