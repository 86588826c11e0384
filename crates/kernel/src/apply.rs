//! The pure state-transition function of the kernel core.
//!
//! Everything the kernel *decides* lives here as plain functions over
//! plain data: what a `Put`/`Get` does to the two spaces at a
//! rendezvous and in which order (Tables 1–2, written once:
//! [`put_before_tree`], [`tree_source`], [`put_after_tree`],
//! [`get_options`]), who pays for it ([`bill`], the clock's one
//! adder), how a `Start` dispatches, what a check-in charges and
//! counts. The imperative shell (`kernel.rs`/`ctx.rs`) calls these
//! functions between its waits and wakes and realizes the
//! [`InstallAction`]/[`StartAction`] they return with host vehicles;
//! the trace replayer calls the same functions from [`apply`],
//! stepping a [`KState`] through a recorded [`TraceEvent`] sequence
//! with no execution vehicles at all, and realizes the same actions as
//! [`KSlot`] flags.
//!
//! The vehicle-observability counters (`threads_spawned`,
//! `condvar_wakeups`, `vm_inline_runs`) are bumped where each driver
//! takes the decision — a hot atomic in the shell, a [`KState`] field
//! in replay — which is why they reproduce bit-identically.
//!
//! Everything *nondeterministic or effectful* is excluded by
//! construction and enforced by the `core_modules_are_pure` test
//! below: no locks, no condition variables, no vehicle spawns, no
//! host clocks, no device access.

use det_memory::{MergeConflict, MergeStats, Perm, Region, SpaceDelta};
use det_vm::Regs;
use serde::{Deserialize, Serialize};

use crate::cost::{CostModel, ns_to_ps};
use crate::device::DeviceId;
use crate::error::{KernelError, Result, TrapKind};
use crate::ids::ChildNum;
use crate::state::{
    KSlot, KState, ProgramKind, RunState, SpaceState, StopCounter, check_in_charge, child_path,
    observe_stop, stop_counter,
};
use crate::syscall::{CopySpec, GetSpec, PutSpec, StartSpec, StopReason};

// ---------------------------------------------------------------------------
// Trace events: the explicit inputs of the state machine.
// ---------------------------------------------------------------------------

/// VM cache and instruction counters of one execution window, as
/// deltas (everything a [`TraceEvent::CheckIn`] must carry so replay
/// reproduces the VM observability counters without interpreting).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct VmCounters {
    /// Instructions retired.
    pub instructions: u64,
    /// Software-TLB hits (reads + writes).
    pub tlb_hits: u64,
    /// Page-table walks.
    pub pages_walked: u64,
    /// Decoded-instruction cache hits.
    pub icache_hits: u64,
    /// Decoded-instruction cache fills.
    pub icache_fills: u64,
}

/// The caller-side window since the caller's previous sync point: how
/// far its virtual clock advanced (program charges plus the syscall
/// entry charge), its remaining work limit, and every page its own
/// memory changed. Replay applies this *instead of* running the
/// caller's program.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EntryRec {
    /// Virtual-clock advance over the window, picoseconds.
    pub advance_ps: u64,
    /// The absolute remaining work limit at the sync point.
    pub limit_ps: Option<u64>,
    /// Memory changes over the window.
    pub delta: SpaceDelta,
}

/// Pure-data image of a [`PutSpec`]: identical options, with the
/// program reduced to its [`ProgramKind`] (a native program's closure
/// cannot be serialized — and replay never runs it).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PutRec {
    /// See [`PutSpec::regs`].
    pub regs: Option<Regs>,
    /// See [`PutSpec::program`].
    pub program: Option<ProgramKind>,
    /// See [`PutSpec::copy`].
    pub copy: Option<CopySpec>,
    /// See [`PutSpec::zero`].
    pub zero: Option<Region>,
    /// See [`PutSpec::perm`].
    pub perm: Option<(Region, Perm)>,
    /// See [`PutSpec::snap`].
    pub snap: bool,
    /// See [`PutSpec::tree_from`].
    pub tree_from: Option<ChildNum>,
    /// See [`PutSpec::start`].
    pub start: Option<StartSpec>,
}

impl PutRec {
    /// The recordable image of a spec.
    pub fn of(spec: &PutSpec) -> PutRec {
        PutRec {
            regs: spec.regs,
            program: spec.program.as_ref().map(|p| p.kind()),
            copy: spec.copy,
            zero: spec.zero,
            perm: spec.perm,
            snap: spec.snap,
            tree_from: spec.tree_from,
            start: spec.start,
        }
    }
}

/// One kernel-mediated event: the explicit inputs from which the whole
/// kernel state evolves (PAPER.md's thesis, as a data type).
///
/// Events on the same slot are linearized by that slot's lock at
/// record time; events on different slots commute (they touch disjoint
/// state), so any recorded interleaving replays to the same result.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A `Put` rendezvous (also the Put half of a fused `PutGet`).
    Put {
        /// The invoking space.
        caller: u32,
        /// The child number named by the caller.
        child: ChildNum,
        /// The child's space id (as allocated at record time).
        child_id: u32,
        /// True if this is the Put half of a fused `PutGet`.
        fused: bool,
        /// The caller's window since its previous sync point.
        entry: EntryRec,
        /// The options applied.
        put: PutRec,
        /// Space ids allocated by a `tree_from` subtree copy, in
        /// creation (pre-)order.
        tree_new_ids: Vec<u32>,
    },
    /// A `Get` rendezvous (also the Get half of a fused `PutGet`).
    Get {
        /// The invoking space.
        caller: u32,
        /// The child number named by the caller.
        child: ChildNum,
        /// The child's space id.
        child_id: u32,
        /// True if this is the Get half of a fused `PutGet` (then
        /// `entry` is absent: the caller did nothing since the fused
        /// Put).
        fused: bool,
        /// The caller's window, absent for the fused half.
        entry: Option<EntryRec>,
        /// The options applied.
        get: GetSpec,
    },
    /// A space checked its state in (park, final stop, or an inline VM
    /// drive completing).
    CheckIn {
        /// The space checking in.
        space: u32,
        /// Why it stopped.
        reason: StopReason,
        /// True for a final check-in (the vehicle exited).
        final_stop: bool,
        /// True if the vehicle died without state: replay substitutes
        /// the same fresh state the live kernel synthesizes.
        lost_state: bool,
        /// Register state at the stop.
        regs: Regs,
        /// Virtual-clock advance since the space's last sync point
        /// (vehicle-side work; the rendezvous park charge is re-derived
        /// by replay, not recorded).
        advance_ps: u64,
        /// Absolute remaining work limit at the stop.
        limit_ps: Option<u64>,
        /// VM instructions retired in the window.
        insn_delta: u64,
        /// VM observability counters of the window.
        vm: VmCounters,
        /// Memory changes in the window.
        delta: SpaceDelta,
    },
    /// A root device read (root-only, so the space is implicit).
    DevRead {
        /// The root's window since its previous sync point.
        entry: EntryRec,
        /// Device read from.
        dev: DeviceId,
        /// The input consumed. Replay does not need it (the input is in
        /// the recorded deltas); [`crate::Trace::io_log`] projects these
        /// out as the run's input log.
        data: Option<Vec<u8>>,
    },
    /// A root device write.
    DevWrite {
        /// The root's window since its previous sync point.
        entry: EntryRec,
        /// Device written to.
        dev: DeviceId,
        /// Bytes written.
        data: Vec<u8>,
    },
    /// A root checkpoint mark (root-only, like device I/O, so the
    /// space is implicit): the root asked the kernel to persist a
    /// restorable image at this rendezvous boundary. The event carries
    /// the mark's deterministic cost basis — the number of dirty
    /// page-table leaves in the root's memory — so replay re-derives
    /// (and cross-checks) the identical virtual-time charge.
    Checkpoint {
        /// The root's window since its previous sync point.
        entry: EntryRec,
        /// Dirty page-table leaves in the root's memory at the mark
        /// (the incremental-checkpoint work unit; replay recomputes
        /// this and diverges on mismatch).
        leaves: u64,
    },
    /// The root program returned: the end of the recorded run.
    RootExit {
        /// The root's final window.
        entry: EntryRec,
        /// The root's final registers.
        regs: Regs,
        /// Exit status or terminal trap.
        exit: std::result::Result<i32, TrapKind>,
    },
}

// ---------------------------------------------------------------------------
// Pure decision + memory-op functions, shared by the shell and replay.
// ---------------------------------------------------------------------------

/// The clock's one adder: every picosecond a space is charged — its
/// own work, kernel work done on its behalf, a recorded window — is
/// added here and nowhere else. ([`stamp_start`] and
/// [`observe_stop`] are the two `max` joins: waits, not charges.)
pub(crate) fn bill(st: &mut SpaceState, ps: u64) {
    st.vclock_ps = st.vclock_ps.saturating_add(ps);
}

/// Charges `ps` of virtual work to a space. Returns true when the
/// charge exhausts the space's work limit (the caller parks it with
/// [`StopReason::LimitReached`]; the limit is cleared so the resumed
/// space runs unlimited until its parent sets a new one).
pub(crate) fn charge(st: &mut SpaceState, ps: u64) -> bool {
    bill(st, ps);
    if let Some(limit) = st.limit_ps {
        if ps >= limit {
            st.limit_ps = None;
            return true;
        }
        st.limit_ps = Some(limit - ps);
    }
    false
}

/// What installing a program over a child stopped as `was` entails.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum InstallAction {
    /// Never started: install into the fresh slot.
    Fresh,
    /// Finished (or terminally trapped): reap the old vehicle and CPU
    /// identity, then install.
    Replace,
}

/// Whether a program may be installed over a child stopped as `was`
/// (a resumable stop is a *live* child; installing over it is an
/// error, whichever vehicle runs it).
pub(crate) fn install_action(was: StopReason, terminal: bool) -> Result<InstallAction> {
    match was {
        StopReason::Unstarted => Ok(InstallAction::Fresh),
        StopReason::Trap(_) if !terminal => Err(KernelError::ChildActive),
        StopReason::Halted | StopReason::Trap(_) => Ok(InstallAction::Replace),
        _ => Err(KernelError::ChildActive),
    }
}

/// Memory-op side meters of one rendezvous. The sequencer bills
/// `charge_ps` to the caller; the three counts are folded into stats
/// by whichever driver (shell or replay) ran it — on an error too,
/// since each op that ran did its work.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct MemOpCounts {
    pub pages_copied: u64,
    pub pages_snapped: u64,
    pub leaves_cloned: u64,
    charge_ps: u64,
}

/// The `Copy` option: a virtual (COW) copy from `src` into `dst`.
fn copy_op(
    costs: &CostModel,
    src: &SpaceState,
    dst: &mut SpaceState,
    c: CopySpec,
    counts: &mut MemOpCounts,
) -> Result<()> {
    let cs = dst.mem.copy_from_counted(&src.mem, c.src, c.dst)?;
    counts.pages_copied += cs.pages;
    counts.leaves_cloned += cs.leaves_shared;
    counts.charge_ps += costs.copy_cost_ps(&cs);
    Ok(())
}

/// The `Zero` option. A `Put`+Zero counts into `pages_copied` (the
/// pages are the child's initial image), a `Get`+Zero does not.
fn zero_op(
    costs: &CostModel,
    dst: &mut SpaceState,
    r: Region,
    count_pages: bool,
    counts: &mut MemOpCounts,
) -> Result<()> {
    dst.mem.map_zero(r, Perm::RW)?;
    let pages = r.page_count();
    if count_pages {
        counts.pages_copied += pages;
    }
    counts.charge_ps += costs.map_cost_ps(pages);
    Ok(())
}

/// The `Perm` option.
fn perm_op(dst: &mut SpaceState, r: Region, p: Perm) -> Result<()> {
    dst.mem.set_perm(r, p)?;
    Ok(())
}

/// The `Snap` option: save the child's reference snapshot, charged per
/// page-table leaf.
fn snap_op(costs: &CostModel, child: &mut SpaceState, counts: &mut MemOpCounts) {
    child.snap = Some(child.mem.snapshot());
    let leaves = child.mem.leaf_count() as u64;
    counts.pages_snapped += child.mem.page_count() as u64;
    counts.leaves_cloned += leaves;
    counts.charge_ps += costs.clone_cost_ps(leaves);
}

/// The `Merge` option: fold the child's changes since its snapshot
/// into the caller. The merge cost is metered even when a conflict is
/// found (the scan happened); the caller decides how to record the
/// result.
fn merge_op(
    costs: &CostModel,
    default_policy: det_memory::ConflictPolicy,
    caller: &mut SpaceState,
    child: &SpaceState,
    region: Region,
    policy_override: Option<det_memory::ConflictPolicy>,
    counts: &mut MemOpCounts,
) -> Result<(MergeStats, Option<MergeConflict>)> {
    let snap = child.snap.as_ref().ok_or(KernelError::NoSnapshot)?;
    let policy = policy_override.unwrap_or(default_policy);
    let (stats, conflict) = caller
        .mem
        .try_merge_from(&child.mem, snap, region, policy)?;
    counts.charge_ps += costs.merge_cost_ps(&stats);
    Ok((stats, conflict))
}

/// The spawn-vs-resume cost of a `Start`: dispatching a fresh program
/// is a spawn (vehicle creation), waking a parked space a cheap resume.
fn start_charge_ps(costs: &CostModel, installed_program: bool, was: StopReason) -> u64 {
    if installed_program || was == StopReason::Unstarted {
        costs.spawn_ps
    } else {
        costs.resume_ps
    }
}

// ---------------------------------------------------------------------------
// Tables 1–2, sequenced once: both drivers run a rendezvous's options
// through these, between their own waits and slot bookkeeping.
// ---------------------------------------------------------------------------

/// `Put`, first half, in Table 2's order: `Regs`, the install decision
/// for a program, then `Copy`, `Zero`, `Perm`. The first failing option
/// ends the sequence; what ran before it stays applied and metered.
/// The install decision comes back beside the result because a driver
/// owes its slot bookkeeping (reap the old vehicle, mark the program
/// pending) whenever one was taken, even if a later option failed.
pub(crate) fn put_before_tree(
    costs: &CostModel,
    caller: &SpaceState,
    child: &mut SpaceState,
    put: &PutRec,
    was: StopReason,
    terminal: bool,
    counts: &mut MemOpCounts,
) -> (Option<InstallAction>, Result<()>) {
    if let Some(r) = put.regs {
        child.regs = r;
    }
    let install = match put
        .program
        .map(|_| install_action(was, terminal))
        .transpose()
    {
        Ok(install) => install,
        Err(e) => return (None, Err(e)),
    };
    let mut options = || {
        if let Some(c) = put.copy {
            copy_op(costs, caller, child, c, counts)?;
        }
        if let Some(r) = put.zero {
            zero_op(costs, child, r, true, counts)?;
        }
        if let Some((r, p)) = put.perm {
            perm_op(child, r, p)?;
        }
        Ok(())
    };
    (install, options())
}

/// The `Tree` option's source check. The walk itself is the driver's
/// step between the two halves of a `Put`: the live one must release
/// the destination's lock to rendezvous with every source slot.
pub(crate) fn tree_source(src: Option<u32>, dst: u32) -> Result<()> {
    match src {
        None => Err(KernelError::InvalidSpec("tree source child does not exist")),
        Some(id) if id == dst => Err(KernelError::InvalidSpec("tree source equals destination")),
        Some(_) => Ok(()),
    }
}

/// `Put`, second half, run only when everything before it succeeded:
/// `Snap`, then the caller pays — the kernel work metered so far and,
/// with `Start`, the spawn or the resume. These are bills, not
/// limit-aware charges: the child is held idle here, so the caller's
/// work limit can preempt it only at its *next* kernel entry.
pub(crate) fn put_after_tree(
    costs: &CostModel,
    caller: &mut SpaceState,
    child: &mut SpaceState,
    put: &PutRec,
    was: StopReason,
    counts: &mut MemOpCounts,
) {
    if put.snap {
        snap_op(costs, child, counts);
    }
    bill(caller, counts.charge_ps);
    if put.start.is_some() {
        bill(caller, start_charge_ps(costs, put.program.is_some(), was));
    }
}

/// `Get`, in Table 2's order: `Copy` and `Merge` into the caller, then
/// `Zero` and `Perm` on the child. The caller pays for the metered work
/// when every option succeeded and when the merge found a conflict (the
/// scan happened and the caller observed its result); any other failure
/// bills nothing. The merge's statistics come back whenever a merge ran,
/// conflicting or not.
pub(crate) fn get_options(
    costs: &CostModel,
    default_policy: det_memory::ConflictPolicy,
    caller: &mut SpaceState,
    child: &mut SpaceState,
    get: &GetSpec,
    counts: &mut MemOpCounts,
) -> (Option<MergeStats>, Result<()>) {
    let mut merged = None;
    let mut options = || {
        if let Some(c) = get.copy {
            copy_op(costs, child, caller, c, counts)?;
        }
        if let Some(region) = get.merge {
            let (stats, conflict) = merge_op(
                costs,
                default_policy,
                caller,
                child,
                region,
                get.merge_policy,
                counts,
            )?;
            merged = Some(stats);
            if let Some(c) = conflict {
                return Err(KernelError::Conflict(c));
            }
        }
        if let Some(r) = get.zero {
            zero_op(costs, child, r, false, counts)?;
        }
        if let Some((r, p)) = get.perm {
            perm_op(child, r, p)?;
        }
        Ok(())
    };
    let res = options();
    if matches!(res, Ok(()) | Err(KernelError::Conflict(_))) {
        bill(caller, counts.charge_ps);
    }
    (merged, res)
}

/// Stamps a child's state at start: its clock catches up to the
/// parent's, and the work limit is (re)set.
pub(crate) fn stamp_start(st: &mut SpaceState, parent_vclock_ps: u64, limit_ns: Option<u64>) {
    st.vclock_ps = st.vclock_ps.max(parent_vclock_ps);
    st.limit_ps = limit_ns.map(ns_to_ps);
}

/// How a `Start` dispatches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum StartAction {
    /// Fresh native program, needs a vehicle.
    Spawn,
    /// Fresh VM program: becomes runnable, no vehicle.
    RunnableInline,
    /// Parked inline VM space: becomes runnable again.
    ResumeInline,
    /// Parked vehicle: one targeted wake.
    ResumeVehicle,
}

/// The `Start` dispatch decision. `pending` is the kind of the slot's
/// installed-but-unstarted program; a `Spawn` or `RunnableInline`
/// consumes it.
pub(crate) fn start_action(
    has_vehicle: bool,
    inline_vm: bool,
    pending: Option<ProgramKind>,
    prior: StopReason,
    terminal: bool,
) -> Result<StartAction> {
    if !has_vehicle && !inline_vm {
        match pending.ok_or(KernelError::NoProgram)? {
            ProgramKind::Vm => Ok(StartAction::RunnableInline),
            ProgramKind::Native => Ok(StartAction::Spawn),
        }
    } else if !prior.resumable() || terminal {
        Err(KernelError::NoProgram)
    } else if inline_vm {
        Ok(StartAction::ResumeInline)
    } else {
        Ok(StartAction::ResumeVehicle)
    }
}

// ---------------------------------------------------------------------------
// apply: one event, pure.
// ---------------------------------------------------------------------------

fn divergence<T>(what: &'static str) -> Result<T> {
    Err(KernelError::ReplayDivergence(what))
}

fn slot_mut(ks: &mut KState, id: u32) -> Result<&mut KSlot> {
    match ks.slots.get_mut(&id) {
        Some(s) => Ok(s),
        None => divergence("trace names an unknown space"),
    }
}

fn state_mut(ks: &mut KState, id: u32) -> Result<&mut SpaceState> {
    match ks.slots.get_mut(&id).and_then(|s| s.state.as_deref_mut()) {
        Some(st) => Ok(st),
        None => divergence("trace names a space whose state is checked out"),
    }
}

/// Applies a recorded caller window: clock advance, limit, memory
/// delta.
fn apply_entry(ks: &mut KState, id: u32, e: &EntryRec) -> Result<()> {
    let st = state_mut(ks, id)?;
    bill(st, e.advance_ps);
    st.limit_ps = e.limit_ps;
    match st.mem.apply_delta(&e.delta) {
        Ok(()) => Ok(()),
        Err(_) => divergence("caller window delta does not apply"),
    }
}

/// Resolves (or creates) the slot the caller's child number names,
/// binding it to the recorded id.
fn ensure_child(ks: &mut KState, caller: u32, child: ChildNum, child_id: u32) -> Result<()> {
    let known = slot_mut(ks, caller)?.children.get(&child).copied();
    match known {
        Some(id) if id == child_id => Ok(()),
        Some(_) => divergence("trace child id does not match the children map"),
        None => {
            if ks.slots.contains_key(&child_id) {
                return divergence("trace reuses a space id for a new child");
            }
            let path = {
                let c = slot_mut(ks, caller)?;
                child_path(&c.path.clone(), child, &mut c.child_gens)
            };
            ks.slots.insert(child_id, KSlot::new(path));
            ks.stats.spaces_created += 1;
            slot_mut(ks, caller)?.children.insert(child, child_id);
            Ok(())
        }
    }
}

/// The recorded stop a rendezvous observed: the child must be idle
/// with state checked in (anything else means the trace interleaving
/// is impossible).
fn idle_reason(ks: &mut KState, child_id: u32) -> Result<StopReason> {
    let k = slot_mut(ks, child_id)?;
    match k.run {
        RunState::Idle(r) if k.state.is_some() => Ok(r),
        _ => divergence("rendezvous with a child that is not idle"),
    }
}

/// The `Tree` walk: deep-copies `src`'s state and descendants into
/// `dst`, consuming the recorded fresh ids in creation order.
fn replay_clone(
    ks: &mut KState,
    src: u32,
    dst: u32,
    ids: &mut std::slice::Iter<'_, u32>,
) -> Result<()> {
    let (img, kids) = {
        let s = slot_mut(ks, src)?;
        // A tree copy is a rendezvous with every source slot.
        let st = match (s.run, s.state.as_ref()) {
            (RunState::Idle(_), Some(st)) => st,
            _ => return divergence("tree copy of a source that is not idle"),
        };
        (st.clone_image(), s.children.clone())
    };
    {
        let d = slot_mut(ks, dst)?;
        d.state = Some(Box::new(img));
        d.run = RunState::Idle(StopReason::Unstarted);
    }
    for (num, kid_src) in kids {
        let kid_id = match ids.next() {
            Some(id) => *id,
            None => return divergence("tree copy ran out of recorded ids"),
        };
        if ks.slots.contains_key(&kid_id) {
            return divergence("tree copy reuses a space id");
        }
        let path = {
            let d = slot_mut(ks, dst)?;
            child_path(&d.path.clone(), num, &mut d.child_gens)
        };
        ks.slots.insert(kid_id, KSlot::new(path));
        ks.stats.spaces_created += 1;
        slot_mut(ks, dst)?.children.insert(num, kid_id);
        replay_clone(ks, kid_src, kid_id, ids)?;
    }
    Ok(())
}

/// Checks a space's state out of its slot for a two-space operation.
fn take_state(ks: &mut KState, id: u32) -> Result<Box<SpaceState>> {
    match slot_mut(ks, id)?.state.take() {
        Some(st) => Ok(st),
        None => divergence("trace names a space whose state is checked out"),
    }
}

/// Folds a rendezvous's memory-op meters into the replayed stats.
fn fold_counts(ks: &mut KState, counts: &MemOpCounts) {
    ks.stats.pages_copied += counts.pages_copied;
    ks.stats.pages_snapped += counts.pages_snapped;
    ks.stats.leaves_cloned += counts.leaves_cloned;
}

#[allow(clippy::too_many_arguments)]
fn apply_put(
    ks: &mut KState,
    caller: u32,
    child: ChildNum,
    child_id: u32,
    fused: bool,
    entry: &EntryRec,
    put: &PutRec,
    tree_new_ids: &[u32],
) -> Result<()> {
    if fused {
        ks.stats.put_gets += 1;
    } else {
        ks.stats.puts += 1;
    }
    apply_entry(ks, caller, entry)?;
    ensure_child(ks, caller, child, child_id)?;
    let was = idle_reason(ks, child_id)?;
    let terminal = slot_mut(ks, child_id)?.terminal;
    let costs = ks.costs;
    let mut counts = MemOpCounts::default();
    let mut caller_st = take_state(ks, caller)?;
    let mut child_st = take_state(ks, child_id)?;
    observe_stop(&mut caller_st, child_st.vclock_ps);

    // An error an option returns went to the recorded program: it is
    // part of history, not a divergence.
    let (install, mut res) = put_before_tree(
        &costs,
        &caller_st,
        &mut child_st,
        put,
        was,
        terminal,
        &mut counts,
    );
    if let Some(action) = install {
        let k = slot_mut(ks, child_id)?;
        if action == InstallAction::Replace {
            k.has_vehicle = false;
            k.inline_vm = false;
        }
        k.terminal = false;
        k.pending = put.program;
        k.run = RunState::Idle(StopReason::Unstarted);
    }
    if let (Ok(()), Some(src_child)) = (&res, put.tree_from) {
        let src = slot_mut(ks, caller)?.children.get(&src_child).copied();
        res = tree_source(src, child_id);
        if let (Ok(()), Some(src_id)) = (&res, src) {
            // The walk replaces the destination's whole state, in its
            // slot; it only fails structurally (the live walk's sole
            // error is kernel shutdown).
            slot_mut(ks, child_id)?.state = Some(child_st);
            replay_clone(ks, src_id, child_id, &mut tree_new_ids.iter())?;
            child_st = take_state(ks, child_id)?;
        }
    }
    if res.is_ok() {
        put_after_tree(&costs, &mut caller_st, &mut child_st, put, was, &mut counts);
    }
    let start = put.start.filter(|_| res.is_ok());
    if let Some(s) = start {
        stamp_start(&mut child_st, caller_st.vclock_ps, s.limit_ns);
    }
    slot_mut(ks, caller)?.state = Some(caller_st);
    slot_mut(ks, child_id)?.state = Some(child_st);
    fold_counts(ks, &counts);
    if start.is_none() {
        return Ok(());
    }

    let k = slot_mut(ks, child_id)?;
    match start_action(k.has_vehicle, k.inline_vm, k.pending, was, k.terminal) {
        Ok(StartAction::Spawn) => {
            k.pending = None;
            k.run = RunState::Running;
            k.has_vehicle = true;
            ks.stats.threads_spawned += 1;
        }
        Ok(StartAction::RunnableInline) => {
            k.pending = None;
            k.inline_vm = true;
            k.run = RunState::Runnable;
        }
        Ok(StartAction::ResumeInline) => k.run = RunState::Runnable,
        Ok(StartAction::ResumeVehicle) => {
            k.run = RunState::Running;
            ks.stats.condvar_wakeups += 1;
        }
        // A failed Start was returned to the recorded program, after
        // its bill.
        Err(_) => {}
    }
    Ok(())
}

fn apply_get(
    ks: &mut KState,
    caller: u32,
    child: ChildNum,
    child_id: u32,
    fused: bool,
    entry: Option<&EntryRec>,
    get: &GetSpec,
) -> Result<()> {
    if !fused {
        ks.stats.gets += 1;
    }
    if let Some(e) = entry {
        apply_entry(ks, caller, e)?;
    }
    ensure_child(ks, caller, child, child_id)?;
    idle_reason(ks, child_id)?;
    let (costs, policy) = (ks.costs, ks.policy);
    let mut counts = MemOpCounts::default();
    let mut caller_st = take_state(ks, caller)?;
    let mut child_st = take_state(ks, child_id)?;
    observe_stop(&mut caller_st, child_st.vclock_ps);
    // As for `Put`: an option's error is recorded history.
    let (merged, res) = get_options(
        &costs,
        policy,
        &mut caller_st,
        &mut child_st,
        get,
        &mut counts,
    );
    slot_mut(ks, caller)?.state = Some(caller_st);
    slot_mut(ks, child_id)?.state = Some(child_st);
    if let Some(stats) = merged {
        ks.stats.record_merge(&stats);
    }
    if matches!(res, Err(KernelError::Conflict(_))) {
        ks.stats.conflicts += 1;
    }
    fold_counts(ks, &counts);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn apply_check_in(
    ks: &mut KState,
    space: u32,
    reason: StopReason,
    final_stop: bool,
    lost_state: bool,
    regs: Regs,
    advance_ps: u64,
    limit_ps: Option<u64>,
    insn_delta: u64,
    vm: VmCounters,
    delta: &SpaceDelta,
) -> Result<()> {
    let costs = ks.costs;
    let inline = slot_mut(ks, space)?.inline_vm;
    if inline {
        ks.stats.vm_inline_runs += 1;
    } else {
        // A park or final check-in issues exactly one targeted wake of
        // the waiting parent; an inline drive wakes nobody (the one
        // waiter *is* the executing thread).
        ks.stats.condvar_wakeups += 1;
    }
    {
        let k = slot_mut(ks, space)?;
        if lost_state {
            k.state = Some(Box::new(SpaceState::new()));
        }
        let st = match k.state.as_deref_mut() {
            Some(st) => st,
            None => return divergence("check-in without state"),
        };
        bill(st, advance_ps);
        st.limit_ps = limit_ps;
        if st.mem.apply_delta(delta).is_err() {
            return divergence("check-in delta does not apply");
        }
        st.regs = regs;
        st.insn_count += insn_delta;
        check_in_charge(&costs, st, reason);
        k.run = RunState::Idle(reason);
        if final_stop {
            k.terminal = true;
        }
    }
    match stop_counter(reason) {
        Some(StopCounter::Ret) => ks.stats.rets += 1,
        Some(StopCounter::Trap) => ks.stats.traps += 1,
        Some(StopCounter::Limit) => ks.stats.limit_preemptions += 1,
        None => {}
    }
    ks.stats.vm_instructions += vm.instructions;
    ks.stats.vm_tlb_hits += vm.tlb_hits;
    ks.stats.vm_pages_walked += vm.pages_walked;
    ks.stats.vm_icache_hits += vm.icache_hits;
    ks.stats.vm_icache_fills += vm.icache_fills;
    Ok(())
}

/// Applies one recorded event to the kernel state. Pure: the only
/// inputs are `ks` and `ev`, the only output is the mutation of `ks`.
///
/// Errors are reserved for *structural divergence* (a trace that could
/// not have come from `ks`); errors the recorded programs themselves
/// observed are part of history and replay silently, exactly as they
/// applied live.
pub(crate) fn apply(ks: &mut KState, ev: &TraceEvent) -> Result<()> {
    match ev {
        TraceEvent::Put {
            caller,
            child,
            child_id,
            fused,
            entry,
            put,
            tree_new_ids,
        } => apply_put(
            ks,
            *caller,
            *child,
            *child_id,
            *fused,
            entry,
            put,
            tree_new_ids,
        )?,
        TraceEvent::Get {
            caller,
            child,
            child_id,
            fused,
            entry,
            get,
        } => apply_get(ks, *caller, *child, *child_id, *fused, entry.as_ref(), get)?,
        TraceEvent::CheckIn {
            space,
            reason,
            final_stop,
            lost_state,
            regs,
            advance_ps,
            limit_ps,
            insn_delta,
            vm,
            delta,
        } => apply_check_in(
            ks,
            *space,
            *reason,
            *final_stop,
            *lost_state,
            *regs,
            *advance_ps,
            *limit_ps,
            *insn_delta,
            *vm,
            delta,
        )?,
        TraceEvent::DevRead { entry, dev, data } => {
            ks.stats.device_reads += 1;
            apply_entry(ks, 0, entry)?;
            let _ = (dev, data);
        }
        TraceEvent::DevWrite { entry, dev, data } => {
            ks.stats.device_write_bytes += data.len() as u64;
            apply_entry(ks, 0, entry)?;
            ks.outputs.entry(*dev).or_default().extend_from_slice(data);
        }
        TraceEvent::Checkpoint { entry, leaves } => {
            // The leaf-proportional charge itself rode in on
            // `entry.advance_ps` (recorded at the live syscall), so the
            // window application below reproduces the exact virtual
            // time. What is re-derived here is the *basis*: the dirty
            // leaf count must match what the live kernel saw, or the
            // trace did not come from this state.
            apply_entry(ks, 0, entry)?;
            let actual = state_mut(ks, 0)?.mem.dirty_leaf_count() as u64;
            if actual != *leaves {
                return divergence("checkpoint dirty-leaf count does not match the trace");
            }
            ks.stats.checkpoints += 1;
            ks.stats.checkpoint_leaves += *leaves;
        }
        TraceEvent::RootExit { entry, regs, exit } => {
            apply_entry(ks, 0, entry)?;
            state_mut(ks, 0)?.regs = *regs;
            ks.root_exit = Some(*exit);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The purity gate of the acceptance criteria: the core modules
    /// (`state.rs`, `apply.rs`) must contain no locks, condition
    /// variables, threads, host I/O, host clocks, or unsafe code.
    /// The rule itself (token list, comment stripping, test-boundary
    /// truncation) lives in `det_analyze::lint`, which also runs it
    /// workspace-wide as the `detlint` binary — this test pins the
    /// kernel build to the same single source of truth.
    #[test]
    fn core_modules_are_pure() {
        let sources = [
            ("state.rs", include_str!("state.rs")),
            ("apply.rs", include_str!("apply.rs")),
        ];
        for (name, src) in sources {
            let findings = det_analyze::lint::purity_violations(name, src);
            assert!(
                findings.is_empty(),
                "pure core module violations:\n{}",
                findings
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
    }

    /// The clock has one writer: [`bill`] is the only code in the
    /// kernel that adds to a `vclock_ps`, and [`stamp_start`] and
    /// [`observe_stop`] the only two that join one. Every source of the
    /// crate is scanned the way `det_analyze::lint` scans (comments
    /// stripped, stopping at the `#[cfg(test)]` tail), with whitespace
    /// squeezed out so a write split across lines is still one match.
    #[test]
    fn the_clock_has_one_writer() {
        const WRITERS: [&str; 3] = ["bill", "stamp_start", "observe_stop"];
        const ADDERS: [&str; 5] = [
            ".saturating_add(",
            ".wrapping_add(",
            ".checked_add(",
            ".overflowing_add(",
            ".add_assign(",
        ];
        let is_write = |before: &str, after: &str| {
            let assigns = after.starts_with('=') && !after.starts_with("==");
            let mut next = after.chars();
            let compound =
                next.next().is_some_and(|op| "+-*/%|&^".contains(op)) && next.next() == Some('=');
            let path = before.trim_end_matches(|c: char| c.is_alphanumeric() || "_.".contains(c));
            let borrowed_mut = path.ends_with('&') && before[path.len()..].starts_with("mut");
            assigns || compound || borrowed_mut || ADDERS.iter().any(|a| after.starts_with(a))
        };
        let mut rogue = Vec::new();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        for entry in std::fs::read_dir(dir).expect("kernel sources") {
            let path = entry.expect("directory entry").path();
            let src = std::fs::read_to_string(&path).expect("source reads");
            // The squeezed code, and for each of its bytes the function
            // and line it came from.
            let (mut code, mut origin) = (String::new(), Vec::new());
            let mut func = "";
            for (i, raw) in src.lines().enumerate() {
                let line = raw.split("//").next().unwrap_or("");
                if line.trim_start().starts_with("#[cfg(test)]") {
                    break;
                }
                if let Some(rest) = line.split("fn ").nth(1) {
                    func = rest.split(['(', '<']).next().unwrap_or("");
                }
                for word in line.split_whitespace() {
                    code.push_str(word);
                    origin.resize(code.len(), (func, i + 1));
                }
            }
            for (at, _) in code.match_indices(".vclock_ps") {
                let (func, line) = origin[at];
                if is_write(&code[..at], &code[at + ".vclock_ps".len()..])
                    && !WRITERS.contains(&func)
                {
                    rogue.push(format!("{}:{line} (fn {func})", path.display()));
                }
            }
        }
        assert!(
            rogue.is_empty(),
            "vclock_ps written outside bill/stamp_start/observe_stop:\n{}",
            rogue.join("\n")
        );
    }

    #[test]
    fn charge_decrements_limit_and_reports_exhaustion() {
        let mut st = SpaceState::new();
        st.limit_ps = Some(100);
        assert!(!charge(&mut st, 40));
        assert_eq!(st.limit_ps, Some(60));
        assert_eq!(st.vclock_ps, 40);
        assert!(charge(&mut st, 60), "exact exhaustion preempts");
        assert_eq!(st.limit_ps, None, "limit cleared on preemption");
        assert_eq!(st.vclock_ps, 100);
    }

    #[test]
    fn install_action_rules() {
        assert_eq!(
            install_action(StopReason::Unstarted, false),
            Ok(InstallAction::Fresh)
        );
        assert_eq!(
            install_action(StopReason::Halted, false),
            Ok(InstallAction::Replace)
        );
        assert_eq!(
            install_action(StopReason::Trap(TrapKind::Panic), true),
            Ok(InstallAction::Replace)
        );
        assert_eq!(
            install_action(StopReason::Trap(TrapKind::Panic), false),
            Err(KernelError::ChildActive)
        );
        assert_eq!(
            install_action(StopReason::Ret, false),
            Err(KernelError::ChildActive)
        );
        assert_eq!(
            install_action(StopReason::LimitReached, true),
            Err(KernelError::ChildActive)
        );
    }

    #[test]
    fn start_action_dispatch_table() {
        use StartAction::*;
        let (vm, native) = (Some(ProgramKind::Vm), Some(ProgramKind::Native));
        let (unstarted, ret) = (StopReason::Unstarted, StopReason::Ret);
        // Fresh program, no vehicle yet: the kind picks the vehicle.
        assert_eq!(
            start_action(false, false, vm, unstarted, false),
            Ok(RunnableInline)
        );
        assert_eq!(
            start_action(false, false, native, unstarted, false),
            Ok(Spawn)
        );
        assert_eq!(
            start_action(false, false, None, unstarted, false),
            Err(KernelError::NoProgram)
        );
        // Resumes.
        assert_eq!(
            start_action(true, false, None, ret, false),
            Ok(ResumeVehicle)
        );
        assert_eq!(
            start_action(false, true, None, ret, false),
            Ok(ResumeInline)
        );
        assert_eq!(
            start_action(true, false, None, StopReason::Halted, false),
            Err(KernelError::NoProgram)
        );
        assert_eq!(
            start_action(true, false, None, ret, true),
            Err(KernelError::NoProgram)
        );
    }
}
