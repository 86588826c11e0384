//! Deterministic checkpoint/restore bundles.
//!
//! A [`Checkpoint`] is a byte-stable snapshot of the pure kernel state
//! at a *rendezvous boundary* — an index into a recorded trace's event
//! sequence. The bundle serializes the whole
//! [`KState`](crate::state::KState) (every slot, its checked-in space
//! state, device outputs, deterministic stats) with each space's
//! memory encoded through the existing delta machinery
//! ([`AddressSpace::delta_since`] / [`AddressSpace::apply_delta`]):
//!
//! * **Full** encoding — the delta against an empty space, partitioned
//!   into clean and dirty pages so the restored space reproduces not
//!   just bytes and permissions but the exact dirty write-set and
//!   zero-frame sharing (both observable downstream, by merges and by
//!   checkpoint-cost accounting). Cost: O(touched leaves).
//! * **Incremental** encoding — the delta against the same space's
//!   image at the *previous* checkpoint, linked to it by digest
//!   ([`Checkpoint::parent`]). Cost: O(dirty leaves since the parent).
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
//! i.e. every merge-bearing `Get` in the suffix is preceded *within
//! the suffix* by a snap-bearing `Put` for the same child.
//! [`latest_restorable_boundary`] computes the latest such boundary at
//! or below a requested cut; boundary 0 (full replay) always
//! qualifies.

use std::collections::{BTreeMap, BTreeSet};

use det_memory::{AddressSpace, SpaceDelta};
use serde::{DeError, Deserialize, Serialize, Value, field};

use crate::apply::{TraceEvent, apply};
use crate::error::{KernelError, Result};
use crate::state::{KSlot, KState, SpaceState};
use crate::trace::{ReplayOutcome, Trace, TraceMeta, outcome_of};

/// The checkpoint bundle format this build writes and reads.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 6;

const MAGIC: &str = "detckpt";

/// FNV-1a over the payload bytes — the bundle's integrity digest.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The payload's value tree, from its binary rendering.
fn parse_payload(payload: &[u8]) -> Result<Value> {
    serde::bin::from_slice(payload)
        .map_err(|_| KernelError::CheckpointMalformed("payload does not parse"))
}

/// A serialized kernel state at a rendezvous boundary.
///
/// Produce one with [`Checkpoint::capture`] (one-shot, full) or a
/// [`Checkpointer`] (streaming, incremental); turn it back into a
/// running point with [`Checkpoint::restore`] /
/// [`restore_chain`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    version: u32,
    boundary: u64,
    parent: Option<u64>,
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

    /// The digest of the parent checkpoint an incremental bundle's
    /// memory deltas are relative to; `None` for a full bundle.
    pub fn parent(&self) -> Option<u64> {
        self.parent
    }

    /// The FNV-1a integrity digest over the payload.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Captures a *full* checkpoint of `trace` at event index
    /// `boundary` by replaying the prefix through the pure core.
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
        let mut cp = Checkpointer::new(&trace.meta);
        for ev in events {
            cp.feed(ev)?;
        }
        Ok(cp.capture())
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
    /// structure (boundary and parent link).
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
        let v = parse_payload(payload)?;
        let boundary: u64 = field(&v, "boundary")
            .map_err(|_| KernelError::CheckpointMalformed("payload missing boundary"))?;
        let parent: Option<u64> = field(&v, "parent")
            .map_err(|_| KernelError::CheckpointMalformed("payload missing parent link"))?;
        Ok(Checkpoint {
            version,
            boundary,
            parent,
            digest: expected,
            payload: payload.to_vec(),
        })
    }

    /// Restores this bundle into a resumable kernel state.
    ///
    /// Only full bundles restore standalone; an incremental bundle
    /// needs its ancestry — use [`restore_chain`].
    pub fn restore(&self) -> Result<RestoredKernel> {
        restore_chain(std::slice::from_ref(self))
    }
}

/// Restores a full checkpoint followed by its incremental descendants
/// (each linked to its predecessor by [`Checkpoint::parent`]).
pub fn restore_chain(chain: &[Checkpoint]) -> Result<RestoredKernel> {
    let first = chain
        .first()
        .ok_or(KernelError::CheckpointMalformed("empty checkpoint chain"))?;
    if first.parent.is_some() {
        return Err(KernelError::CheckpointMalformed(
            "chain does not start at a full checkpoint",
        ));
    }
    let mut ks: Option<KState> = None;
    let mut prev_digest = None;
    for ckpt in chain {
        if ckpt.parent != prev_digest {
            return Err(KernelError::CheckpointMalformed(
                "broken parent link in checkpoint chain",
            ));
        }
        let v = parse_payload(&ckpt.payload)?;
        ks = Some(
            p_kstate(&v, ks.as_ref())
                .map_err(|_| KernelError::CheckpointMalformed("payload does not decode"))?,
        );
        prev_digest = Some(ckpt.digest);
    }
    let last = chain.last().expect("nonempty");
    Ok(RestoredKernel {
        ks: ks.expect("nonempty chain decoded"),
        boundary: last.boundary,
    })
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

    /// The run parameters baked into the restored state.
    pub fn meta(&self) -> TraceMeta {
        TraceMeta {
            costs: self.ks.costs,
            policy: self.ks.policy,
        }
    }

    /// Resumes by folding the trace suffix through the pure core —
    /// the second half of the recovery ≡ replay identity. The suffix
    /// must reach the root exit (it is the tail of a complete run).
    pub fn resume(self, suffix: &[TraceEvent]) -> Result<ReplayOutcome> {
        let mut ks = self.ks;
        for ev in suffix {
            apply(&mut ks, ev)?;
        }
        outcome_of(ks, true)
    }
}

impl crate::Kernel {
    /// Captures a full [`Checkpoint`] of a recorded trace at
    /// `boundary` (convenience alias of [`Checkpoint::capture`]).
    pub fn checkpoint(trace: &Trace, boundary: usize) -> Result<Checkpoint> {
        Checkpoint::capture(trace, boundary)
    }

    /// Restores a checkpoint into a resumable kernel state
    /// (convenience alias of [`Checkpoint::restore`]).
    pub fn restore(ckpt: &Checkpoint) -> Result<RestoredKernel> {
        ckpt.restore()
    }
}

/// The latest restorable boundary at or below `at_most`.
///
/// A boundary `j` is restorable iff no merge-bearing `Get` at suffix
/// index `m >= j` depends on a snap-bearing `Put` at prefix index
/// `s < j` (checkpoints do not serialize merge snapshots — see the
/// module docs). For each merge at `m` whose child's latest snapshot
/// was taken at `s`, the interval `(s, m]` is excluded; a merge with
/// no prior snapshot excludes nothing (it faulted `NoSnapshot` live,
/// and re-derives the same fault from any restore point). Boundary 0
/// is always restorable.
pub fn latest_restorable_boundary(trace: &Trace, at_most: usize) -> usize {
    let mut last_snap: BTreeMap<u32, usize> = BTreeMap::new();
    let mut excluded: Vec<(usize, usize)> = Vec::new();
    for (i, ev) in trace.events.iter().enumerate() {
        match ev {
            TraceEvent::Put { child_id, put, .. } if put.snap => {
                last_snap.insert(*child_id, i);
            }
            TraceEvent::Get { child_id, get, .. } if get.merge.is_some() => {
                if let Some(&s) = last_snap.get(child_id) {
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

/// Streaming checkpoint producer: feed it the trace events in order
/// and capture bundles at chosen boundaries. The first capture is
/// full; later captures are incremental — each space's memory encoded
/// as a delta against its image at the previous capture (cost
/// proportional to the dirty leaves since then), except spaces whose
/// delta basis was invalidated in between (created, snapshotted,
/// merged into, or state-replaced), which are re-encoded in full.
pub struct Checkpointer {
    ks: KState,
    fed: u64,
    /// Capture count (first capture emits a full bundle).
    captures: u64,
    /// Digest of the previous capture — the next bundle's parent link.
    parent: Option<u64>,
    /// Per-space memory image at the previous capture. Present iff the
    /// space can be delta-encoded against it; invalidated (removed)
    /// when an event breaks `delta_since`'s preconditions.
    bases: BTreeMap<u32, AddressSpace>,
}

impl Checkpointer {
    /// A checkpointer over a run with these parameters, positioned
    /// before the first event.
    pub fn new(meta: &TraceMeta) -> Checkpointer {
        Checkpointer {
            ks: KState::new(meta.costs, meta.policy),
            fed: 0,
            captures: 0,
            parent: None,
            bases: BTreeMap::new(),
        }
    }

    /// The number of events fed so far — the boundary the next
    /// [`Checkpointer::capture`] stamps.
    pub fn boundary(&self) -> u64 {
        self.fed
    }

    /// Advances the shadow state by one recorded event.
    pub fn feed(&mut self, ev: &TraceEvent) -> Result<()> {
        // Invalidate delta bases *before* applying: a snapshot clears
        // the dirty set (breaking `delta_since`'s precondition
        // outright); a merge adopts foreign frames into the caller and
        // a lost-state check-in replaces the image wholesale (both
        // delta-encodable in principle, invalidated out of caution —
        // correctness over compactness).
        match ev {
            TraceEvent::Put { child_id, put, .. } if put.snap || put.tree_from.is_some() => {
                self.bases.remove(child_id);
            }
            TraceEvent::Get { caller, get, .. } if get.merge.is_some() => {
                self.bases.remove(caller);
            }
            TraceEvent::CheckIn {
                space,
                lost_state: true,
                ..
            } => {
                self.bases.remove(space);
            }
            _ => {}
        }
        apply(&mut self.ks, ev)?;
        self.fed += 1;
        Ok(())
    }

    /// Captures a bundle at the current boundary: full on the first
    /// call, incremental (delta against the previous capture) after.
    pub fn capture(&mut self) -> Checkpoint {
        let incremental = self.captures > 0;
        let parent = if incremental { self.parent } else { None };
        let payload_v = v_kstate(
            &self.ks,
            self.fed,
            parent,
            if incremental { Some(&self.bases) } else { None },
        );
        let payload = serde::bin::to_vec(&payload_v);
        let digest = fnv1a64(&payload);
        // Re-base every space on this capture's image.
        self.bases = self
            .ks
            .slots
            .iter()
            .filter_map(|(&id, slot)| slot.state.as_ref().map(|st| (id, st.mem.clone())))
            .collect();
        self.captures += 1;
        self.parent = Some(digest);
        Checkpoint {
            version: CHECKPOINT_FORMAT_VERSION,
            boundary: self.fed,
            parent,
            digest,
            payload,
        }
    }
}

// ---------------------------------------------------------------------------
// KState codec.
//
// `KState`, `KSlot` and `SpaceState` derive their mappings like every
// other persisted type, minus the one thing a derive cannot do: a
// space's memory is encoded against a base image and decoded onto the
// parent checkpoint's. These functions add exactly that — the `slots`
// of a state, the `state` of a slot, the `mem` of a space — threading
// the image through. Field order is fixed, so the rendered payload is
// byte-stable.
// ---------------------------------------------------------------------------

/// `object` with one more field.
fn with(mut object: Value, key: &str, field: Value) -> Value {
    if let Value::Object(fields) = &mut object {
        fields.push((key.to_string(), field));
    }
    object
}

fn req<'a>(v: &'a Value, name: &str) -> std::result::Result<&'a Value, DeError> {
    v.get(name)
        .ok_or_else(|| DeError::msg(format!("missing field `{name}`")))
}

/// One space's memory as the payload stores it.
#[derive(Serialize, Deserialize)]
enum MemImage {
    /// Every mapped page, as deltas against an empty space.
    Full {
        clean: SpaceDelta,
        dirty: SpaceDelta,
    },
    /// The changes since the parent checkpoint's image of the space.
    Delta { delta: SpaceDelta },
}

fn v_mem_full(mem: &AddressSpace) -> Value {
    // Against an empty base, every mapped page appears as a
    // Write/WriteZero op; partitioning by the live dirty set lets the
    // decoder reproduce the exact dirty write-set (clean pages applied
    // first, marks cleared, dirty pages applied after).
    let full = mem.delta_since(&AddressSpace::new());
    let dirty_vpns: BTreeSet<u64> = mem.dirty_vpns().into_iter().collect();
    let mut clean = SpaceDelta::default();
    let mut dirty = SpaceDelta::default();
    for p in full.pages {
        if dirty_vpns.contains(&p.vpn) {
            dirty.pages.push(p);
        } else {
            clean.pages.push(p);
        }
    }
    MemImage::Full { clean, dirty }.to_value()
}

fn p_mem(v: &Value, prev: Option<&AddressSpace>) -> std::result::Result<AddressSpace, DeError> {
    match MemImage::from_value(v)? {
        MemImage::Full { clean, dirty } => {
            let mut mem = AddressSpace::new();
            mem.apply_delta(&clean)
                .map_err(|_| DeError::msg("bad clean delta"))?;
            mem.clear_dirty();
            mem.apply_delta(&dirty)
                .map_err(|_| DeError::msg("bad dirty delta"))?;
            Ok(mem)
        }
        MemImage::Delta { delta } => {
            let mut mem = prev
                .ok_or_else(|| DeError::msg("incremental memory without a parent image"))?
                .clone();
            mem.apply_delta(&delta)
                .map_err(|_| DeError::msg("bad incremental delta"))?;
            Ok(mem)
        }
    }
}

/// Encodes a slot; `mem` is its space's memory, already encoded.
fn v_slot(slot: &KSlot, mem: Option<Value>) -> Value {
    let state = match (slot.state.as_deref(), mem) {
        (Some(st), Some(mem)) => with(st.to_value(), "mem", mem),
        _ => Value::Null,
    };
    with(slot.to_value(), "state", state)
}

fn p_slot(v: &Value, prev_mem: Option<&AddressSpace>) -> std::result::Result<KSlot, DeError> {
    let mut slot = KSlot::from_value(v)?;
    let sv = req(v, "state")?;
    if !matches!(sv, Value::Null) {
        let mut st = SpaceState::from_value(sv)?;
        st.mem = p_mem(req(sv, "mem")?, prev_mem)?;
        slot.state = Some(Box::new(st));
    }
    Ok(slot)
}

/// Encodes the whole kernel state. `bases` selects incremental memory
/// encoding: spaces with a base image are delta-encoded against it,
/// everything else (and everything, when `bases` is `None`) in full.
fn v_kstate(
    ks: &KState,
    boundary: u64,
    parent: Option<u64>,
    bases: Option<&BTreeMap<u32, AddressSpace>>,
) -> Value {
    let slots = ks
        .slots
        .iter()
        .map(|(&id, slot)| {
            let mem = slot
                .state
                .as_deref()
                .map(|st| match bases.and_then(|b| b.get(&id)) {
                    Some(base) => MemImage::Delta {
                        delta: st.mem.delta_since(base),
                    }
                    .to_value(),
                    None => v_mem_full(&st.mem),
                });
            Value::Array(vec![id.to_value(), v_slot(slot, mem)])
        })
        .collect();
    Value::Object(vec![
        ("boundary".to_string(), boundary.to_value()),
        ("parent".to_string(), parent.to_value()),
        ("kernel".to_string(), ks.to_value()),
        ("slots".to_string(), Value::Array(slots)),
    ])
}

/// Decodes a payload into a kernel state; `prev` supplies the parent
/// images incremental memory deltas apply to.
fn p_kstate(v: &Value, prev: Option<&KState>) -> std::result::Result<KState, DeError> {
    let mut ks: KState = field(v, "kernel")?;
    let Value::Array(items) = req(v, "slots")? else {
        return Err(DeError::msg("expected slot array"));
    };
    for item in items {
        let pair = match item {
            Value::Array(p) if p.len() == 2 => p,
            _ => return Err(DeError::msg("expected [id, slot] pair")),
        };
        let id = u32::from_value(&pair[0])?;
        let prev_mem = prev
            .and_then(|p| p.slots.get(&id))
            .and_then(|s| s.state.as_deref())
            .map(|st| &st.mem);
        ks.slots.insert(id, p_slot(&pair[1], prev_mem)?);
    }
    Ok(ks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use det_memory::{Perm, Region};

    #[test]
    fn digest_rejects_single_bit_corruption() {
        let trace = Trace {
            meta: TraceMeta {
                costs: crate::CostModel::default(),
                policy: det_memory::ConflictPolicy::Strict,
            },
            events: Vec::new(),
        };
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
        let trace = Trace {
            meta: TraceMeta {
                costs: crate::CostModel::zero(),
                policy: det_memory::ConflictPolicy::Strict,
            },
            events: Vec::new(),
        };
        let bytes = Checkpoint::capture(&trace, 0).unwrap().to_bytes();
        // The previous format (its payload was JSON text).
        let (current, previous) = (CHECKPOINT_FORMAT_VERSION, CHECKPOINT_FORMAT_VERSION - 1);
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

    #[test]
    fn full_memory_encoding_roundtrips_dirty_and_zero_pages() {
        let mut mem = AddressSpace::new();
        mem.map_zero(Region::new(0x1000, 0x4000), Perm::RW).unwrap();
        mem.write_u64(0x1000, 0xdead_beef).unwrap();
        // Page at 0x2000 stays a clean zero page; 0x3000 a dirty one.
        mem.write_u8(0x3000, 0).unwrap();
        let v = v_mem_full(&mem);
        let back = p_mem(&v, None).unwrap();
        assert_eq!(back.content_digest(), mem.content_digest());
        assert_eq!(back.dirty_vpns(), mem.dirty_vpns());
        assert_eq!(back.dirty_leaf_count(), mem.dirty_leaf_count());
        assert_eq!(back.page_digests(), mem.page_digests());
    }

    #[test]
    fn restorable_boundary_excludes_snap_to_merge_windows() {
        use crate::apply::{EntryRec, PutRec};
        use crate::syscall::GetSpec;
        let put = |snap: bool| TraceEvent::Put {
            caller: 0,
            child: 1,
            child_id: 1,
            fused: false,
            entry: EntryRec::default(),
            put: PutRec {
                regs: None,
                program: None,
                copy: None,
                zero: None,
                perm: None,
                snap,
                tree_from: None,
                start: None,
            },
            tree_new_ids: Vec::new(),
        };
        let get = |merge: bool| TraceEvent::Get {
            caller: 0,
            child: 1,
            child_id: 1,
            fused: false,
            entry: Some(EntryRec::default()),
            get: GetSpec {
                merge: merge.then(|| Region::new(0x1000, 0x2000)),
                ..GetSpec::default()
            },
        };
        let trace = Trace {
            meta: TraceMeta {
                costs: crate::CostModel::zero(),
                policy: det_memory::ConflictPolicy::Strict,
            },
            // 0: snap-put, 1: plain get, 2: merge-get, 3: plain put.
            events: vec![put(true), get(false), get(true), put(false)],
        };
        // Boundaries 1 and 2 sit inside the snapshot→merge window.
        assert_eq!(latest_restorable_boundary(&trace, 4), 4);
        assert_eq!(latest_restorable_boundary(&trace, 3), 3);
        assert_eq!(latest_restorable_boundary(&trace, 2), 0);
        assert_eq!(latest_restorable_boundary(&trace, 1), 0);
        assert_eq!(latest_restorable_boundary(&trace, 0), 0);
    }
}
