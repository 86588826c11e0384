//! Deterministic checkpoint/restore bundles.
//!
//! A [`Checkpoint`] is a byte-stable snapshot of the pure kernel state
//! at a *rendezvous boundary* — an index into a recorded trace's event
//! sequence. Its payload is the boundary and the whole
//! [`KState`](crate::state::KState) (every slot, its checked-in space
//! state, device outputs, deterministic stats) in their derived
//! mappings, rendered by [`serde::bin`]. A space's memory is
//! [`AddressSpace`](det_memory::AddressSpace)'s own mapping: the delta
//! against an empty space, split into clean and dirty pages, so the
//! restored space reproduces not just bytes and permissions but the
//! exact dirty write-set and zero-frame sharing (both observable
//! downstream, by merges and by checkpoint-cost accounting). Cost:
//! O(touched leaves).
//!
//! Restoring a checkpoint and resuming the trace suffix is, by
//! construction, the same computation as replaying the whole trace:
//! both fold the identical event sequence through the pure
//! [`apply`](crate::apply) — the restore merely enters the fold at
//! event `boundary` with the serialized intermediate state instead of
//! at event 0 with the initial state. The crash-recovery conformance
//! scenarios (`crates/conform`) check the resulting bundle equality
//! byte-for-byte; DESIGN.md §9 gives the argument in full.
//!
//! Integrity: the bundle carries a format version and an FNV-1a
//! digest over the payload. A stale version fails with
//! [`KernelError::CheckpointVersion`] before anything is parsed; any
//! bit flip in the payload fails with
//! [`KernelError::CheckpointCorrupt`].
//!
//! One subtlety — *restorable* boundaries: a space's merge snapshot
//! (`snap`) is deliberately **not** serialized (a snapshot is an alias
//! web into the live frame graph; serializing it would destroy the
//! sharing that makes merges O(dirty)). A boundary is therefore
//! restorable only if no suffix merge depends on a prefix snapshot,
//! i.e. every merge-bearing `Get` in the suffix merges against a
//! snapshot taken *within the suffix* — by a snap-bearing `Put` for
//! the same child, or for the source of a `Tree` copy that carried the
//! snapshot over. [`latest_restorable_boundary`] computes the latest
//! such boundary at or below a requested cut; boundary 0 (full replay)
//! always qualifies.

use std::collections::BTreeMap;

use det_memory::ContentDigest;
use serde::{Deserialize, IgnoredAny, Serialize};

use crate::apply::TraceEvent;
use crate::error::{KernelError, Result};
use crate::ids::ChildNum;
use crate::state::KState;
use crate::trace::{ReplayOutcome, Trace, fold, outcome_of};

/// The checkpoint bundle format this build writes and reads.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 9;

const MAGIC: &str = "detckpt";

/// FNV-1a over the payload bytes — the bundle's integrity digest.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut d = ContentDigest::new();
    d.update(bytes);
    d.value()
}

/// What a bundle's payload holds: the boundary, and the kernel state
/// the trace prefix folds to.
#[derive(Serialize)]
struct Payload {
    boundary: u64,
    kernel: KState,
}

/// What [`Checkpoint::from_bytes`] reads of a payload: the boundary.
/// The kernel state, like any key it does not name, is skipped:
/// checked to parse, and never built.
#[derive(Deserialize)]
struct PayloadHead {
    boundary: u64,
}

/// What [`Checkpoint::restore`] reads of a payload: the kernel state
/// (the boundary it already has is skipped).
#[derive(Deserialize)]
struct PayloadBody {
    kernel: KState,
}

/// A serialized kernel state at a rendezvous boundary.
///
/// Produce one with [`Checkpoint::capture`]; turn it back into a
/// running point with [`Checkpoint::restore`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    version: u32,
    boundary: u64,
    digest: u64,
    payload: Vec<u8>,
}

impl Checkpoint {
    /// The bundle format version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The trace-event index this checkpoint was taken at: events
    /// `[0, boundary)` are baked in; resume feeds `[boundary, ..)`.
    pub fn boundary(&self) -> u64 {
        self.boundary
    }

    /// The FNV-1a integrity digest over the payload.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Captures a checkpoint of `trace` at event index `boundary` by
    /// replaying the prefix through the pure core.
    ///
    /// The caller is responsible for picking a restorable boundary
    /// (see [`latest_restorable_boundary`]); capture itself succeeds
    /// at any structurally-valid prefix.
    pub fn capture(trace: &Trace, boundary: usize) -> Result<Checkpoint> {
        let events = trace
            .events
            .get(..boundary)
            .ok_or(KernelError::CheckpointMalformed(
                "boundary beyond trace end",
            ))?;
        let kernel = fold(KState::new(trace.meta.costs), events)?;
        let boundary = boundary as u64;
        let payload = serde::bin::to_vec(&Payload { boundary, kernel });
        Ok(Checkpoint {
            version: CHECKPOINT_FORMAT_VERSION,
            boundary,
            digest: fnv1a64(&payload),
            payload,
        })
    }

    /// The canonical byte encoding: one ASCII header line
    /// (`detckpt <version> <digest>`), then the payload in the serde
    /// shim's binary rendering ([`serde::bin`]).
    ///
    /// Byte-stable: two captures of the same trace prefix produce
    /// identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = format!("{MAGIC} {} {:016x}\n", self.version, self.digest).into_bytes();
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses and *verifies* a bundle: magic and header shape, then
    /// format version, then the integrity digest, then payload
    /// structure (the boundary).
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint> {
        let newline = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or(KernelError::CheckpointMalformed("missing header line"))?;
        let (header, payload) = (&bytes[..newline], &bytes[newline + 1..]);
        let header = std::str::from_utf8(header)
            .map_err(|_| KernelError::CheckpointMalformed("header is not utf-8"))?;
        let mut parts = header.split(' ');
        if parts.next() != Some(MAGIC) {
            return Err(KernelError::CheckpointMalformed("bad magic"));
        }
        let version: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(KernelError::CheckpointMalformed("bad version field"))?;
        // Version gates everything downstream: a future format may
        // change the digest basis or payload shape, so it must fail
        // here, cleanly, not as corruption.
        if version != CHECKPOINT_FORMAT_VERSION {
            return Err(KernelError::CheckpointVersion {
                found: version,
                supported: CHECKPOINT_FORMAT_VERSION,
            });
        }
        let expected = parts
            .next()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or(KernelError::CheckpointMalformed("bad digest field"))?;
        if parts.next().is_some() {
            return Err(KernelError::CheckpointMalformed("trailing header fields"));
        }
        let actual = fnv1a64(payload);
        if actual != expected {
            return Err(KernelError::CheckpointCorrupt { expected, actual });
        }
        // Digest verified; the payload is authentic, so structural
        // errors past this point mean a producer bug, not tampering.
        // One pass reads the boundary and checks the rest parses; a
        // shape error is a missing boundary only if the whole payload
        // parses.
        let boundary = match serde::bin::from_slice::<PayloadHead>(payload) {
            Ok(head) => head.boundary,
            Err(serde::bin::Error::Shape(_))
                if serde::bin::from_slice::<IgnoredAny>(payload).is_ok() =>
            {
                return Err(KernelError::CheckpointMalformed("payload missing boundary"));
            }
            Err(_) => return Err(KernelError::CheckpointMalformed("payload does not parse")),
        };
        Ok(Checkpoint {
            version,
            boundary,
            digest: expected,
            payload: payload.to_vec(),
        })
    }

    /// Restores this bundle into a resumable kernel state, decoding the
    /// payload in one pass.
    pub fn restore(&self) -> Result<RestoredKernel> {
        let body: PayloadBody = serde::bin::from_slice(&self.payload).map_err(|e| {
            KernelError::CheckpointMalformed(match e {
                serde::bin::Error::Shape(_) => "payload does not decode",
                _ => "payload does not parse",
            })
        })?;
        Ok(RestoredKernel {
            ks: body.kernel,
            boundary: self.boundary,
        })
    }
}

/// A kernel state restored from a checkpoint, ready to resume.
pub struct RestoredKernel {
    ks: KState,
    boundary: u64,
}

impl RestoredKernel {
    /// The event index the state was captured at (resume feeds the
    /// trace's events from this index on).
    pub fn boundary(&self) -> u64 {
        self.boundary
    }

    /// Resumes by folding the trace suffix through the pure core —
    /// the second half of the recovery ≡ replay identity. The suffix
    /// must reach the root exit (it is the tail of a complete run).
    pub fn resume(self, suffix: &[TraceEvent]) -> Result<ReplayOutcome> {
        outcome_of(fold(self.ks, suffix)?, true)
    }
}

/// The latest restorable boundary at or below `at_most`.
///
/// A boundary `j` is restorable iff no merge-bearing `Get` at suffix
/// index `m >= j` merges against a snapshot taken by a snap-bearing
/// `Put` at prefix index `s < j` (checkpoints do not serialize merge
/// snapshots — see the module docs). A `Tree` copy carries snapshots
/// over, as it carries the rest of a space's state: the destination
/// and every space the copy creates hold the snapshot their source
/// held, so a merge on a copy depends on the source's `Put`. Spaces are
/// resolved through the `caller`/`child`/`child_id` every rendezvous
/// records and the ids a copy records. For each merge at `m` on a
/// snapshot taken at `s`, the interval `(s, m]` is excluded; a merge
/// with no snapshot excludes nothing (it faulted `NoSnapshot` live,
/// and re-derives the same fault from any restore point). Boundary 0
/// is always restorable.
pub fn latest_restorable_boundary(trace: &Trace, at_most: usize) -> usize {
    let mut children = Children::new();
    let mut snap_at: BTreeMap<u32, usize> = BTreeMap::new();
    let mut excluded: Vec<(usize, usize)> = Vec::new();
    for (i, ev) in trace.events.iter().enumerate() {
        let Some(rv) = ev.rendezvous() else {
            continue;
        };
        let (caller, child, child_id) = (rv.caller, rv.child, rv.child_id);
        children.entry(caller).or_default().insert(child, child_id);
        match ev {
            TraceEvent::Put {
                put, tree_new_ids, ..
            } => {
                let src = put.tree_from.and_then(|num| children[&caller].get(&num));
                if let Some(&src) = src.filter(|&&src| src != child_id) {
                    tree_copy(
                        &mut children,
                        &mut snap_at,
                        src,
                        child_id,
                        &mut tree_new_ids.iter(),
                    );
                }
                if put.snap {
                    snap_at.insert(child_id, i);
                }
            }
            TraceEvent::Get { get, .. } => {
                if let (Some(_), Some(&s)) = (get.merge, snap_at.get(&child_id)) {
                    excluded.push((s + 1, i));
                }
            }
            _ => {}
        }
    }
    let mut j = at_most.min(trace.events.len());
    loop {
        match excluded
            .iter()
            .filter(|&&(lo, hi)| j >= lo && j <= hi)
            .map(|&(lo, _)| lo)
            .min()
        {
            // Jump below the lowest excluding interval in one step.
            Some(lo) => j = lo - 1,
            None => return j,
        }
    }
}

type Children = BTreeMap<u32, BTreeMap<ChildNum, u32>>;

/// A `Tree` copy of `src` into `dst`, as [`latest_restorable_boundary`]
/// sees it — the walk of `apply`'s `replay_clone`: each destination
/// holds its source's snapshot, and the source's children are
/// re-created under the recorded `ids`, in pre-order.
fn tree_copy(
    children: &mut Children,
    snap_at: &mut BTreeMap<u32, usize>,
    src: u32,
    dst: u32,
    ids: &mut std::slice::Iter<'_, u32>,
) {
    match snap_at.get(&src) {
        Some(&s) => snap_at.insert(dst, s),
        None => snap_at.remove(&dst),
    };
    for (num, kid_src) in children.get(&src).cloned().unwrap_or_default() {
        let Some(&kid) = ids.next() else { return };
        children.entry(dst).or_default().insert(num, kid);
        tree_copy(children, snap_at, kid_src, kid, ids);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::{EntryRec, PutRec};
    use crate::syscall::{CopySpec, GetSpec, StopReason};
    use det_memory::{PAGE_SIZE, PageDelta, PageDeltaOp, Perm, Region, SpaceDelta};
    use det_vm::Regs;

    fn empty_trace(costs: crate::CostModel) -> Trace {
        Trace {
            meta: crate::trace::TraceMeta { costs },
            events: Vec::new(),
        }
    }

    #[test]
    fn digest_rejects_single_bit_corruption() {
        let trace = empty_trace(crate::CostModel::default());
        let ckpt = Checkpoint::capture(&trace, 0).unwrap();
        let mut bytes = ckpt.to_bytes();
        assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), ckpt);
        // Flip one bit somewhere inside the payload.
        let n = bytes.len();
        bytes[n - 10] ^= 0x01;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(KernelError::CheckpointCorrupt { .. })
        ));
    }

    #[test]
    fn stale_format_version_errors_cleanly() {
        let bytes = Checkpoint::capture(&empty_trace(crate::cost::tests::zero()), 0)
            .unwrap()
            .to_bytes();
        // The previous format (the state's cost model still priced an
        // analysis step).
        let (current, previous) = (CHECKPOINT_FORMAT_VERSION, 8);
        let header = format!("detckpt {current} ");
        assert!(bytes.starts_with(header.as_bytes()));
        let stale = [
            format!("detckpt {previous} ").as_bytes(),
            &bytes[header.len()..],
        ]
        .concat();
        match Checkpoint::from_bytes(&stale) {
            Err(KernelError::CheckpointVersion { found, supported }) => {
                assert_eq!((found, supported), (previous, current));
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_bundles_error_cleanly() {
        assert!(matches!(
            Checkpoint::from_bytes(b"\xff\xfe"),
            Err(KernelError::CheckpointMalformed(_))
        ));
        assert!(matches!(
            Checkpoint::from_bytes(b"nope 1 0\n{}"),
            Err(KernelError::CheckpointMalformed(_))
        ));
        assert!(matches!(
            Checkpoint::from_bytes(b"detckpt x 0\n{}"),
            Err(KernelError::CheckpointMalformed(_))
        ));
    }

    /// The format-9 bytes are pinned, as the wire delta's are
    /// (`wire::tests::wire_bytes_are_pinned`): the payload is derived
    /// from every type under `KState`, so a renamed or reordered field
    /// anywhere there changes these bytes, and must bump
    /// [`CHECKPOINT_FORMAT_VERSION`] along with this golden.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let trace = Trace::from_json(include_str!("../tests/golden/tables_f920a0f.trace.json"))
            .expect("golden trace parses");
        let boundary = latest_restorable_boundary(&trace, trace.len() / 2);
        let bytes = Checkpoint::capture(&trace, boundary).unwrap().to_bytes();
        assert_eq!(
            (boundary, bytes.len(), fnv1a64(&bytes)),
            (13, 22_991, 0x1e4b_56e9_fd3e_6584),
            "checkpoint bytes moved"
        );
    }

    fn put_rec() -> PutRec {
        PutRec {
            regs: None,
            program: None,
            copy: None,
            zero: None,
            perm: None,
            snap: false,
            tree_from: None,
            start: None,
        }
    }

    /// A `Put` by the root on child number `child_id`.
    fn put(child_id: u32, entry: EntryRec, put: PutRec) -> TraceEvent {
        TraceEvent::Put {
            caller: 0,
            child: child_id as ChildNum,
            child_id,
            fused: false,
            entry,
            put,
            tree_new_ids: Vec::new(),
        }
    }

    /// A `Get` by the root on child number `child_id`.
    fn get(child_id: u32, merge: Option<Region>) -> TraceEvent {
        TraceEvent::Get {
            caller: 0,
            child: child_id as ChildNum,
            child_id,
            fused: false,
            entry: Some(EntryRec::default()),
            get: GetSpec {
                merge,
                ..GetSpec::default()
            },
        }
    }

    #[test]
    fn restorable_boundary_excludes_snap_to_merge_windows() {
        let snap_put = || {
            put(
                1,
                EntryRec::default(),
                PutRec {
                    snap: true,
                    ..put_rec()
                },
            )
        };
        let merge = Some(Region::new(0x1000, 0x2000));
        let mut trace = empty_trace(crate::cost::tests::zero());
        // 0: snap-put, 1: plain get, 2: merge-get, 3: plain put.
        trace.events = vec![
            snap_put(),
            get(1, None),
            get(1, merge),
            put(1, EntryRec::default(), put_rec()),
        ];
        // Boundaries 1 and 2 sit inside the snapshot→merge window.
        assert_eq!(latest_restorable_boundary(&trace, 4), 4);
        assert_eq!(latest_restorable_boundary(&trace, 3), 3);
        assert_eq!(latest_restorable_boundary(&trace, 2), 0);
        assert_eq!(latest_restorable_boundary(&trace, 1), 0);
        assert_eq!(latest_restorable_boundary(&trace, 0), 0);
    }

    /// A `Tree` copy carries its source's snapshot: a merge on the copy
    /// depends on the snap-`Put` of the *source*, though no snap-`Put`
    /// ever named the copy. Restoring anywhere inside that window would
    /// silently drop the merge (restored spaces hold no snapshot).
    #[test]
    fn tree_copied_snapshots_keep_their_merge_window() {
        let region = Region::new(0x1000, 0x2000);
        let page = |op| SpaceDelta {
            pages: vec![PageDelta {
                vpn: 1,
                perm: Perm::RW,
                op,
            }],
            unmapped: Vec::new(),
        };
        let mut trace = empty_trace(crate::CostModel::default());
        trace.events = vec![
            // 0: the root maps the region; child 1 mirrors it, snapshotted.
            put(
                1,
                EntryRec {
                    delta: page(PageDeltaOp::WriteZero),
                    ..EntryRec::default()
                },
                PutRec {
                    copy: Some(CopySpec::mirror(region)),
                    snap: true,
                    ..put_rec()
                },
            ),
            // 1: child 2 is a tree copy of child 1, snapshot included.
            put(
                2,
                EntryRec::default(),
                PutRec {
                    tree_from: Some(1),
                    ..put_rec()
                },
            ),
            // 2-3: child 2 runs, writes the page and halts.
            put(
                2,
                EntryRec::default(),
                PutRec {
                    program: Some(crate::ProgramKind::Native),
                    start: Some(Default::default()),
                    ..put_rec()
                },
            ),
            TraceEvent::CheckIn {
                space: 2,
                reason: StopReason::Halted,
                final_stop: true,
                lost_state: false,
                regs: Regs::default(),
                advance_ps: 0,
                limit_ps: None,
                insn_delta: 0,
                vm: Default::default(),
                delta: page(PageDeltaOp::Write(vec![7; PAGE_SIZE])),
            },
            // 4: the root merges child 2 against the copied snapshot.
            get(2, Some(region)),
            TraceEvent::RootExit {
                entry: EntryRec::default(),
                regs: Regs::default(),
                exit: Ok(0),
            },
        ];
        for cut in 1..=4 {
            assert_eq!(latest_restorable_boundary(&trace, cut), 0, "cut {cut}");
        }
        assert_eq!(latest_restorable_boundary(&trace, 5), 5);

        let oracle = trace.replay().unwrap();
        assert_eq!(oracle.stats.merges, 1);
        let resume = |b: usize| {
            Checkpoint::capture(&trace, b)
                .unwrap()
                .restore()
                .unwrap()
                .resume(&trace.events[b..])
                .unwrap()
        };
        for cut in 0..=trace.len() {
            let out = resume(latest_restorable_boundary(&trace, cut));
            assert_eq!(out.exit, oracle.exit, "cut {cut}");
            assert_eq!(out.vclock_ns, oracle.vclock_ns, "cut {cut}");
            assert_eq!(out.stats, oracle.stats, "cut {cut}");
            assert_eq!(out.spaces, oracle.spaces, "cut {cut}");
        }
        // What the window protects: restored inside it, the merge has
        // no base and faults.
        assert_eq!(resume(3).stats.merges, 0);
    }

    /// The copy's descendants hold their own sources' snapshots: the
    /// root's child 1 snapshots its own child (space 2) at event 1, the
    /// root tree-copies child 1 (the copy is space 3, space 2's copy is
    /// space 4), and space 3 merges space 4 at event 3.
    #[test]
    fn tree_copies_carry_descendants_snapshots() {
        let mut trace = empty_trace(crate::cost::tests::zero());
        trace.events = vec![
            get(1, None),
            TraceEvent::Put {
                caller: 1,
                child: 0,
                child_id: 2,
                fused: false,
                entry: EntryRec::default(),
                put: PutRec {
                    snap: true,
                    ..put_rec()
                },
                tree_new_ids: Vec::new(),
            },
            TraceEvent::Put {
                caller: 0,
                child: 3,
                child_id: 3,
                fused: false,
                entry: EntryRec::default(),
                put: PutRec {
                    tree_from: Some(1),
                    ..put_rec()
                },
                tree_new_ids: vec![4],
            },
            TraceEvent::Get {
                caller: 3,
                child: 0,
                child_id: 4,
                fused: false,
                entry: None,
                get: GetSpec {
                    merge: Some(Region::new(0x1000, 0x2000)),
                    ..GetSpec::default()
                },
            },
        ];
        let boundaries: Vec<usize> = (0..=4)
            .map(|cut| latest_restorable_boundary(&trace, cut))
            .collect();
        assert_eq!(boundaries, [0, 1, 1, 1, 4]);
    }
}
