//! The pure state-transition function of the kernel core.
//!
//! Everything the kernel *decides* lives here as plain functions over
//! plain data, one arm per event kind, which both drivers call in the
//! same order. A `Put` is two arms around the driver's `Tree` walk
//! ([`put_before_tree`], [`put_after_tree`]; [`tree_source`] checks the
//! walk's source), then [`start`] on success; a `Get` is one, [`get`];
//! a stop is one, [`check_in`], which also synthesizes a lost state.
//! Each arm cuts the caller's window from its cursor when it records,
//! joins the clocks, runs Tables 1–2's options in order, pays with
//! [`bill`] (the clock's one adder), counts, and builds the event's
//! [`TraceEvent`]. A space's record, the [`KSlot`], exists once, and
//! three arms are the only code that writes its flags:
//! [`put_before_tree`] installs a program, [`start`] dispatches one,
//! [`check_in`] stops one. The imperative shell (`kernel.rs`/`ctx.rs`)
//! calls the arms on the `KSlot` and stats of the slot it holds locked,
//! between its waits and wakes, realizes the
//! [`InstallAction`]/[`StartAction`] they return with host vehicles and
//! pushes the events they build; the trace replayer applies each
//! recorded window and calls the same arms from [`apply`] on
//! [`KState::slots`], with no execution vehicles at all. A cluster's
//! remote fork and join are two more arms, [`migrate_out`] and
//! [`migrate_home`].
//!
//! The core is also the one writer of [`KernelStats`]: each event's
//! counts are bumped by one `count_*` function, which the shell calls on
//! the stats of the slot whose lock it holds for that event (summed at
//! shutdown) and replay calls on [`KState`]'s — which is why every
//! counter, the vehicle ones included, reproduces bit-identically.
//!
//! Everything *nondeterministic or effectful* is excluded by
//! construction and enforced by the `core_modules_are_pure` test
//! below: no locks, no condition variables, no vehicle spawns, no
//! host clocks, no device access.

use det_memory::{AddressSpace, MergeConflict, MergeStats, Perm, Region, SpaceDelta};
use det_vm::Regs;
use serde::{Deserialize, Serialize};

use crate::cost::{CostModel, ns_to_ps};
use crate::device::DeviceId;
use crate::error::{KernelError, Result, TrapKind};
use crate::ids::ChildNum;
use crate::state::{
    KSlot, KState, ProgramKind, RunState, SpaceState, TraceCtx, check_in_charge, final_reason,
    observe_stop,
};
use crate::stats::KernelStats;
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

impl TraceEvent {
    /// The spaces a `Put` or `Get` names; `None` for any other event.
    pub(crate) fn rendezvous(&self) -> Option<Rendezvous> {
        match *self {
            TraceEvent::Put {
                caller,
                child,
                child_id,
                fused,
                ..
            }
            | TraceEvent::Get {
                caller,
                child,
                child_id,
                fused,
                ..
            } => Some(Rendezvous {
                caller,
                child,
                child_id,
                fused,
            }),
            _ => None,
        }
    }
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

/// Memory-op side meters of one rendezvous. Its arm bills `charge_ps`
/// to the caller; [`count_put`]/[`count_get`] add the three
/// counts to stats — on an error too, since each op that ran did its
/// work.
#[derive(Clone, Copy, Default, Debug)]
struct MemOpCounts {
    pages_copied: u64,
    pages_snapped: u64,
    leaves_cloned: u64,
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
    let cs = dst.mem.copy_from(&src.mem, c.src, c.dst)?;
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

/// The one merge body, a `Get`'s `Merge` option and a migrated child's
/// homecoming alike: fold what `child` changed since `snap` into the
/// caller. The merge cost is metered even when a conflict is found (the
/// scan happened); the caller decides how to record the result.
fn merge_op(
    costs: &CostModel,
    policy: det_memory::ConflictPolicy,
    caller: &mut SpaceState,
    (child, snap): (&AddressSpace, &AddressSpace),
    region: Region,
    counts: &mut MemOpCounts,
) -> Result<(MergeStats, Option<MergeConflict>)> {
    let (stats, conflict) = caller.mem.try_merge_from(child, snap, region, policy)?;
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
// One arm per event kind: both drivers run a `Put`, a `Get` and a
// check-in through these, between their own waits and slot bookkeeping,
// and the arms build the event the shell records. The event comes back
// boxed: an untraced rendezvous then moves an 8-byte `None` through its
// callers, not a 392-byte `Option<TraceEvent>` (a fifth of an inline
// round trip on a 2-core Xeon guest).
// ---------------------------------------------------------------------------

/// The spaces a `Put` or `Get` event names: its fields of those names.
#[derive(Clone, Copy)]
pub(crate) struct Rendezvous {
    pub caller: u32,
    pub child: ChildNum,
    pub child_id: u32,
    pub fused: bool,
}

/// A `Put` between its two arms, across the driver's `Tree` walk: the
/// install decision (for the host half the shell owes a replaced
/// program: a fresh CPU, the new closure), the result the walk may still
/// fail, and what the second arm bills, counts and records — the
/// caller's window among it, cut before the clock join.
pub(crate) struct PutHalf {
    pub install: Option<InstallAction>,
    pub res: Result<()>,
    was: StopReason,
    rv: Rendezvous,
    counts: MemOpCounts,
    entry: Option<EntryRec>,
}

/// `Put`, first arm: cuts the caller's window (when it records), joins
/// the caller's clock to the child's (stopped as `was`), then runs
/// Table 2's first half — `Regs`, the install decision, `Copy`, `Zero`, `Perm` —
/// until the first failing option (what ran stays applied and metered).
/// It is also the install arm: once the decision is taken, even if a
/// later option fails, the child's record is reset for the new program
/// (pending, not terminal, `Idle(Unstarted)`, and on an
/// [`InstallAction::Replace`] bound to no vehicle).
pub(crate) fn put_before_tree(
    costs: &CostModel,
    (caller, cursor): (&mut SpaceState, Option<&TraceCtx>),
    child: &mut KSlot,
    put: &PutRec,
    was: StopReason,
    rv: Rendezvous,
) -> PutHalf {
    let entry = cursor.map(|c| c.entry(caller));
    observe_stop(caller, child.idle_state().vclock_ps);
    let (counts, mut install) = (&mut MemOpCounts::default(), None);
    let mut options = || {
        if let Some(r) = put.regs {
            child.idle_state().regs = r;
        }
        let decided = put.program.map(|_| install_action(was, child.terminal));
        install = decided.transpose()?;
        let st = child.idle_state();
        if let Some(c) = put.copy {
            copy_op(costs, caller, st, c, counts)?;
        }
        if let Some(r) = put.zero {
            zero_op(costs, st, r, true, counts)?;
        }
        if let Some((r, p)) = put.perm {
            perm_op(st, r, p)?;
        }
        Ok(())
    };
    let res = options();
    if let Some(action) = install {
        if action == InstallAction::Replace {
            child.has_vehicle = false;
            child.inline_vm = false;
        }
        child.terminal = false;
        child.pending = put.program;
        child.run = RunState::Idle(StopReason::Unstarted);
    }
    PutHalf {
        install,
        res,
        was,
        rv,
        counts: *counts,
        entry,
    }
}

/// The `Tree` option's source check. The walk itself is the driver's
/// step between the two arms of a `Put`: the live one must release the
/// destination's lock to rendezvous with every source slot.
pub(crate) fn tree_source(src: Option<u32>, dst: u32) -> Result<()> {
    match src {
        None => Err(KernelError::InvalidSpec("tree source child does not exist")),
        Some(id) if id == dst => Err(KernelError::InvalidSpec("tree source equals destination")),
        Some(_) => Ok(()),
    }
}

/// `Put`, second arm, after the walk. On success only: `Snap`, then the
/// caller is billed the metered work and, with `Start`, the spawn or the
/// resume (bills, not charges: the child is held idle, so a work limit
/// preempts only at the caller's next entry). On a failure too (replay
/// re-derives it): the `Put` is counted and, when the caller records,
/// its event built with the ids the walk minted. `start` follows only on
/// success.
pub(crate) fn put_after_tree(
    costs: &CostModel,
    caller: &mut SpaceState,
    (child, stats): (&mut KSlot, &mut KernelStats),
    put: &PutRec,
    half: PutHalf,
    tree_new_ids: Vec<u32>,
) -> (Result<()>, Option<Box<TraceEvent>>) {
    let PutHalf {
        res,
        was,
        rv,
        mut counts,
        entry,
        ..
    } = half;
    if res.is_ok() {
        if put.snap {
            snap_op(costs, child.idle_state(), &mut counts);
        }
        bill(caller, counts.charge_ps);
        if put.start.is_some() {
            bill(caller, start_charge_ps(costs, put.program.is_some(), was));
        }
    }
    count_put(stats, rv.fused, &counts);
    let ev = entry.map(|entry| TraceEvent::Put {
        caller: rv.caller,
        child: rv.child,
        child_id: rv.child_id,
        fused: rv.fused,
        entry,
        put: put.clone(),
        tree_new_ids,
    });
    (res, ev.map(Box::new))
}

/// The `Get` arm: cuts the caller's window (when it records, unless a
/// fused half), joins the clocks, runs Table 2's `Get` options (`Copy`,
/// `Merge` into the caller, `Zero`, `Perm` on the child) and bills the
/// metered work on success and on a conflict (the scan ran and was
/// observed), never on another failure. Counts the `Get` and its merge,
/// and builds the event when the caller records. Returns the merge's
/// statistics whenever a merge ran, the result and the event.
pub(crate) fn get(
    costs: &CostModel,
    (caller, cursor): (&mut SpaceState, Option<&TraceCtx>),
    (slot, stats): (&mut KSlot, &mut KernelStats),
    get: &GetSpec,
    rv: Rendezvous,
) -> (Option<MergeStats>, Result<()>, Option<Box<TraceEvent>>) {
    let entry = cursor.filter(|_| !rv.fused).map(|c| c.entry(caller));
    let child = slot.idle_state();
    observe_stop(caller, child.vclock_ps);
    let counts = &mut MemOpCounts::default();
    let mut merged = None;
    let mut options = || {
        if let Some(c) = get.copy {
            copy_op(costs, child, caller, c, counts)?;
        }
        if let Some(region) = get.merge {
            let snap = child.snap.as_ref().ok_or(KernelError::NoSnapshot)?;
            let policy = get.merge_policy.unwrap_or_default();
            let (stats, conflict) =
                merge_op(costs, policy, caller, (&child.mem, snap), region, counts)?;
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
    count_get(stats, rv.fused, counts, merged.as_ref(), &res);
    let ev = cursor.map(|_| TraceEvent::Get {
        caller: rv.caller,
        child: rv.child,
        child_id: rv.child_id,
        fused: rv.fused,
        entry,
        get: *get,
    });
    (merged, res, ev.map(Box::new))
}

/// Stamps a child's state at start: its clock catches up to the
/// parent's, and the work limit is (re)set.
fn stamp_start(st: &mut SpaceState, parent_vclock_ps: u64, limit_ns: Option<u64>) {
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

/// The start arm: a `Start` of a child held idle with its state in.
/// Stamps the child at the parent's clock, decides the dispatch, counts
/// it on `stats` and moves the child's record to it — a fresh program's
/// kind is consumed, a `Spawn` binds a vehicle, an inline VM space
/// becomes `Runnable`, a parked vehicle `Running`. The host half (a
/// worker for a `Spawn`, a CPU and trace cursor for an inline space, the
/// one targeted wake) is the shell's.
pub(crate) fn start(
    (child, stats): (&mut KSlot, &mut KernelStats),
    parent_vclock_ps: u64,
    limit_ns: Option<u64>,
    prior: StopReason,
) -> Result<StartAction> {
    stamp_start(child.idle_state(), parent_vclock_ps, limit_ns);
    let action = start_action(
        child.has_vehicle,
        child.inline_vm,
        child.pending,
        prior,
        child.terminal,
    )?;
    count_start(stats, action);
    match action {
        StartAction::Spawn => {
            child.pending = None;
            child.has_vehicle = true;
            child.run = RunState::Running;
        }
        StartAction::RunnableInline => {
            child.pending = None;
            child.inline_vm = true;
            child.run = RunState::Runnable;
        }
        StartAction::ResumeInline => child.run = RunState::Runnable,
        StartAction::ResumeVehicle => child.run = RunState::Running,
    }
    Ok(action)
}

/// The check-in arm: space `id` stops with `reason` and `st` is checked
/// back in; a vehicle that died without state is checked in as a fresh
/// state and a terminal trap, so its parent observes a deterministic
/// stop. The event is built first — when the space records (`cursor`),
/// and for a lost state whatever the cursor — so its window excludes
/// the park charge that replay re-derives here. Then the stop is counted
/// (an inline drive's apart from a park, by `inline_vm`), a resumable
/// stop is charged the park cost, and a final one leaves nothing to
/// resume.
pub(crate) fn check_in(
    costs: &CostModel,
    id: u32,
    (space, stats): (&mut KSlot, &mut KernelStats),
    (st, cursor): (Option<Box<SpaceState>>, Option<&TraceCtx>),
    reason: StopReason,
    final_stop: bool,
    vm: &VmCounters,
) -> Option<Box<TraceEvent>> {
    let lost_state = st.is_none();
    let reason = final_reason(!lost_state, reason);
    let mut st = st.unwrap_or_else(|| Box::new(SpaceState::new()));
    let window = match cursor {
        _ if lost_state => Some((EntryRec::default(), 0)),
        Some(c) => Some((c.entry(&st), st.insn_count - c.sync_insn)),
        None => None,
    };
    let ev = window.map(|(e, insn_delta)| TraceEvent::CheckIn {
        space: id,
        reason,
        final_stop,
        lost_state,
        regs: st.regs,
        advance_ps: e.advance_ps,
        limit_ps: e.limit_ps,
        insn_delta,
        vm: *vm,
        delta: e.delta,
    });
    count_check_in(stats, reason, space.inline_vm, vm);
    check_in_charge(costs, &mut st, reason);
    space.state = Some(st);
    space.run = RunState::Idle(reason);
    if final_stop {
        space.terminal = true;
    }
    ev.map(Box::new)
}

/// The migrate-out arm, a cluster fork (§3.3): freezes `region` into
/// the child's image and bills syscall, spawn and clone. `link_ps`
/// prices the summary from that image; `None` (a fork onto the
/// caller's own node) crosses no link and is no migration.
pub(crate) fn migrate_out(
    costs: &CostModel,
    st: &mut SpaceState,
    stats: &mut KernelStats,
    region: Region,
    link_ps: impl FnOnce(&AddressSpace) -> Option<u64>,
) -> Result<AddressSpace> {
    let mut img = AddressSpace::new();
    let cs = img.copy_from(&st.mem, region, region.start)?;
    let spawn_ps = costs.syscall_ps.saturating_add(costs.spawn_ps);
    bill(st, spawn_ps.saturating_add(costs.copy_cost_ps(&cs)));
    if let Some(ps) = link_ps(&img) {
        count_migration(stats);
        bill(st, ps);
    }
    Ok(img)
}

/// The migrate-home arm, a cluster join: bills syscall and rendezvous,
/// counts a homecoming from another node, waits for the child's clock
/// (its return trip included), then merges `base` + `delta` into
/// `region` under [`ConflictPolicy::Strict`](det_memory::ConflictPolicy),
/// as a `Get` does by default. A damaged `delta` fails after the bill.
pub(crate) fn migrate_home(
    costs: &CostModel,
    st: &mut SpaceState,
    stats: &mut KernelStats,
    (base, delta): (&AddressSpace, Result<SpaceDelta>),
    child_vclock_ps: u64,
    region: Region,
    migrated: bool,
) -> Result<MergeStats> {
    bill(st, costs.syscall_ps.saturating_add(costs.rendezvous_ps));
    let delta = delta?;
    if migrated {
        count_migration(stats);
    }
    observe_stop(st, child_vclock_ps);
    let mut child = base.clone();
    child.apply_delta(&delta)?;
    let mut counts = MemOpCounts::default();
    let strict = det_memory::ConflictPolicy::Strict;
    let (merge, conflict) = merge_op(costs, strict, st, (&child, base), region, &mut counts)?;
    bill(st, counts.charge_ps);
    count_merge(stats, &merge, conflict.is_some());
    conflict.map_or(Ok(merge), |c| Err(KernelError::Conflict(c)))
}

// ---------------------------------------------------------------------------
// Counters: the one writer of `KernelStats`. The shell bumps the stats
// of the slot whose lock it holds for the event, replay `KState::stats`.
// ---------------------------------------------------------------------------

/// A space was created: a first `Put`/`Get` naming it, or one node of a
/// `Tree` copy.
pub(crate) fn count_space(stats: &mut KernelStats) {
    stats.spaces_created += 1;
}

/// A `Put` rendezvous (the Put half of a fused `PutGet` counts the
/// exchange) and the memory ops its options ran.
fn count_put(stats: &mut KernelStats, fused: bool, counts: &MemOpCounts) {
    if fused {
        stats.put_gets += 1;
    } else {
        stats.puts += 1;
    }
    count_mem_ops(stats, counts);
}

/// A `Get` rendezvous (the fused half was counted by its `Put`), the
/// memory ops its options ran, and its merge, conflicting or not.
fn count_get(
    stats: &mut KernelStats,
    fused: bool,
    counts: &MemOpCounts,
    merge: Option<&MergeStats>,
    res: &Result<()>,
) {
    if !fused {
        stats.gets += 1;
    }
    count_mem_ops(stats, counts);
    if let Some(m) = merge {
        count_merge(stats, m, matches!(res, Err(KernelError::Conflict(_))));
    }
}

fn count_mem_ops(stats: &mut KernelStats, counts: &MemOpCounts) {
    stats.pages_copied += counts.pages_copied;
    stats.pages_snapped += counts.pages_snapped;
    stats.leaves_cloned += counts.leaves_cloned;
}

/// One merge, and the conflict it found if it found one (a `Get`'s, or
/// a remote child's coming home).
pub(crate) fn count_merge(stats: &mut KernelStats, merge: &MergeStats, conflict: bool) {
    stats.record_merge(merge);
    if conflict {
        stats.conflicts += 1;
    }
}

/// A `Start`'s dispatch: a spawn starts a vehicle, a parked vehicle's
/// resume is one targeted wake.
fn count_start(stats: &mut KernelStats, action: StartAction) {
    match action {
        StartAction::Spawn => stats.threads_spawned += 1,
        StartAction::ResumeVehicle => stats.condvar_wakeups += 1,
        StartAction::RunnableInline | StartAction::ResumeInline => {}
    }
}

/// A check-in: the stop, the VM counters of its window, and its wake. A
/// park or final check-in wakes the waiting parent; an inline drive
/// wakes nobody (the one waiter *is* the executing thread).
fn count_check_in(stats: &mut KernelStats, reason: StopReason, inline: bool, vm: &VmCounters) {
    if inline {
        stats.vm_inline_runs += 1;
    } else {
        stats.condvar_wakeups += 1;
    }
    match reason {
        StopReason::Ret => stats.rets += 1,
        StopReason::Trap(_) => stats.traps += 1,
        StopReason::LimitReached => stats.limit_preemptions += 1,
        StopReason::Unstarted | StopReason::Halted => {}
    }
    stats.vm_instructions += vm.instructions;
    stats.vm_tlb_hits += vm.tlb_hits;
    stats.vm_pages_walked += vm.pages_walked;
    stats.vm_icache_hits += vm.icache_hits;
    stats.vm_icache_fills += vm.icache_fills;
}

/// A root device read.
pub(crate) fn count_dev_read(stats: &mut KernelStats) {
    stats.device_reads += 1;
}

/// A root device write of `bytes` bytes.
pub(crate) fn count_dev_write(stats: &mut KernelStats, bytes: usize) {
    stats.device_write_bytes += bytes as u64;
}

/// A root checkpoint mark over `leaves` dirty page-table leaves.
pub(crate) fn count_checkpoint(stats: &mut KernelStats, leaves: u64) {
    stats.checkpoints += 1;
    stats.checkpoint_leaves += leaves;
}

/// A space migration across a cluster link: a fork out or a homecoming.
pub(crate) fn count_migration(stats: &mut KernelStats) {
    stats.migrations += 1;
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

/// Applies a recorded window: clock advance, limit, memory delta.
fn apply_window(st: &mut SpaceState, ps: u64, limit: Option<u64>, d: &SpaceDelta) -> Result<()> {
    bill(st, ps);
    st.limit_ps = limit;
    st.mem
        .apply_delta(d)
        .or_else(|_| divergence("a recorded window's delta does not apply"))
}

/// Applies a recorded caller window.
fn apply_entry(ks: &mut KState, id: u32, e: &EntryRec) -> Result<()> {
    apply_window(state_mut(ks, id)?, e.advance_ps, e.limit_ps, &e.delta)
}

/// Resolves (or creates) the slot the caller's child number names,
/// binding it to the recorded id.
fn ensure_child(ks: &mut KState, caller: u32, child: ChildNum, child_id: u32) -> Result<()> {
    let known = slot_mut(ks, caller)?.children.get(&child).copied();
    match known {
        Some(id) if id == child_id => Ok(()),
        Some(_) => divergence("trace child id does not match the children map"),
        None => new_child(ks, caller, child, child_id),
    }
}

/// Binds `num` under `parent` to a new space with the recorded `id`.
fn new_child(ks: &mut KState, parent: u32, num: ChildNum, id: u32) -> Result<()> {
    if ks.slots.contains_key(&id) {
        return divergence("trace reuses a space id for a new child");
    }
    let k = KSlot::child_of(slot_mut(ks, parent)?, num);
    ks.slots.insert(id, k);
    count_space(&mut ks.stats);
    slot_mut(ks, parent)?.children.insert(num, id);
    Ok(())
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
        new_child(ks, dst, num, kid_id)?;
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

/// A slot and the stats its events count on.
fn slot_stats(ks: &mut KState, id: u32) -> Result<(&mut KSlot, &mut KernelStats)> {
    match ks.slots.get_mut(&id) {
        Some(k) => Ok((k, &mut ks.stats)),
        None => divergence("trace names an unknown space"),
    }
}

fn apply_put(
    ks: &mut KState,
    rv: Rendezvous,
    entry: &EntryRec,
    put: &PutRec,
    tree_new_ids: &[u32],
) -> Result<()> {
    apply_entry(ks, rv.caller, entry)?;
    ensure_child(ks, rv.caller, rv.child, rv.child_id)?;
    let was = idle_reason(ks, rv.child_id)?;
    let costs = ks.costs;
    let mut caller = take_state(ks, rv.caller)?;
    // An error an option returns went to the recorded program: it is
    // part of history, not a divergence.
    let k = slot_mut(ks, rv.child_id)?;
    let mut half = put_before_tree(&costs, (&mut *caller, None), k, put, was, rv);
    if let (Ok(()), Some(src_child)) = (&half.res, put.tree_from) {
        let src = slot_mut(ks, rv.caller)?.children.get(&src_child).copied();
        half.res = tree_source(src, rv.child_id);
        if let (Ok(()), Some(src_id)) = (&half.res, src) {
            // The walk replaces the destination's whole state, in its
            // slot; it only fails structurally (the live walk's sole
            // error is kernel shutdown).
            replay_clone(ks, src_id, rv.child_id, &mut tree_new_ids.iter())?;
        }
    }
    let child = slot_stats(ks, rv.child_id)?;
    let (res, _) = put_after_tree(&costs, &mut caller, child, put, half, Vec::new());
    if let (Ok(()), Some(s)) = (res, put.start) {
        // A failed Start was returned to the recorded program, after
        // its bill.
        let child = slot_stats(ks, rv.child_id)?;
        let _ = start(child, caller.vclock_ps, s.limit_ns, was);
    }
    slot_mut(ks, rv.caller)?.state = Some(caller);
    Ok(())
}

fn apply_get(
    ks: &mut KState,
    rv: Rendezvous,
    entry: Option<&EntryRec>,
    get_spec: &GetSpec,
) -> Result<()> {
    if let Some(e) = entry {
        apply_entry(ks, rv.caller, e)?;
    }
    ensure_child(ks, rv.caller, rv.child, rv.child_id)?;
    idle_reason(ks, rv.child_id)?;
    let costs = ks.costs;
    let mut caller = take_state(ks, rv.caller)?;
    let child = slot_stats(ks, rv.child_id)?;
    // As for `Put`: an option's error is recorded history.
    let _ = get(&costs, (&mut *caller, None), child, get_spec, rv);
    slot_mut(ks, rv.caller)?.state = Some(caller);
    Ok(())
}

fn apply_check_in(ks: &mut KState, ev: &TraceEvent) -> Result<()> {
    let &TraceEvent::CheckIn {
        space,
        reason,
        final_stop,
        lost_state,
        regs,
        advance_ps,
        limit_ps,
        insn_delta,
        vm,
        ref delta,
    } = ev
    else {
        return divergence("not a check-in");
    };
    let costs = ks.costs;
    let (k, stats) = slot_stats(ks, space)?;
    // The recorded window stands in for the vehicle's run; a lost state
    // had none.
    let st = match k.state.take() {
        _ if lost_state => None,
        None => return divergence("check-in without state"),
        Some(mut st) => {
            apply_window(&mut st, advance_ps, limit_ps, delta)?;
            st.regs = regs;
            st.insn_count += insn_delta;
            Some(st)
        }
    };
    check_in(
        &costs,
        space,
        (k, stats),
        (st, None),
        reason,
        final_stop,
        &vm,
    );
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
    let rv = || ev.rendezvous().expect("a Put or a Get names its spaces");
    match ev {
        TraceEvent::Put {
            entry,
            put,
            tree_new_ids,
            ..
        } => apply_put(ks, rv(), entry, put, tree_new_ids)?,
        TraceEvent::Get { entry, get, .. } => apply_get(ks, rv(), entry.as_ref(), get)?,
        TraceEvent::CheckIn { .. } => apply_check_in(ks, ev)?,
        TraceEvent::DevRead { entry, dev, data } => {
            count_dev_read(&mut ks.stats);
            apply_entry(ks, 0, entry)?;
            let _ = (dev, data);
        }
        TraceEvent::DevWrite { entry, dev, data } => {
            count_dev_write(&mut ks.stats, data.len());
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
            count_checkpoint(&mut ks.stats, *leaves);
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

    /// The kernel links no analyzer: a program that wants a footprint
    /// runs det-analyze itself and declares the price (DESIGN.md §11).
    /// det-analyze stays a dev-dependency, for the lint call above.
    #[test]
    fn the_kernel_links_no_analyzer() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
        let manifest = std::fs::read_to_string(path).expect("det-kernel's manifest");
        let deps: Vec<&str> = manifest
            .lines()
            .skip_while(|l| l.trim() != "[dependencies]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .collect();
        assert!(!deps.is_empty(), "no [dependencies] table in {path}");
        assert!(
            !deps
                .iter()
                .any(|l| l.trim_start().starts_with("det-analyze")),
            "det-kernel's [dependencies] name det-analyze:\n{}",
            deps.join("\n")
        );
    }

    /// One kernel source as the one-writer tests read it: scanned the
    /// way `det_analyze::lint` scans (comments stripped, stopping at the
    /// `#[cfg(test)]` tail), with whitespace squeezed out so a write
    /// split across lines is still one match.
    struct Source {
        file: String,
        /// The squeezed code.
        code: String,
        /// For each byte of `code`, the index of the line it came from.
        line_of: Vec<usize>,
        /// Each line, comments stripped, and the function it sits in.
        lines: Vec<(String, String)>,
    }

    impl Source {
        /// The function the byte at `at` sits in.
        fn func_at(&self, at: usize) -> &str {
            &self.lines[self.line_of[at]].1
        }

        /// `file:line (fn name)` of the byte at `at`.
        fn locate(&self, at: usize) -> String {
            let line = self.line_of[at];
            format!("{}:{} (fn {})", self.file, line + 1, self.lines[line].1)
        }

        /// Every write to a field named `field`, or to anything inside
        /// it — an assignment, a compound assignment, an adder call or a
        /// `&mut` borrow — as the offset of its `.`.
        fn writes_to(&self, field: &str) -> Vec<usize> {
            const ADDERS: [&str; 6] = [
                ".saturating_add(",
                ".wrapping_add(",
                ".checked_add(",
                ".overflowing_add(",
                ".add_assign(",
                ".accumulate(",
            ];
            let ident = |c: char| c.is_alphanumeric() || c == '_';
            let needle = format!(".{field}");
            let mut writes = Vec::new();
            for (at, _) in self.code.match_indices(&needle) {
                let before = &self.code[..at];
                let mut after = &self.code[at + needle.len()..];
                if after.starts_with(ident) {
                    continue; // a longer name
                }
                // Step into sub-fields (`.0.pages_adopted`), not calls.
                while let Some(rest) = after.strip_prefix('.') {
                    let end = rest.find(|c| !ident(c)).unwrap_or(rest.len());
                    if end == 0 || rest[end..].starts_with('(') {
                        break;
                    }
                    after = &rest[end..];
                }
                let assigns = after.starts_with('=') && !after.starts_with("==");
                let mut next = after.chars();
                let compound = next.next().is_some_and(|op| "+-*/%|&^".contains(op))
                    && next.next() == Some('=');
                let path = before.trim_end_matches(|c| ident(c) || c == '.');
                let borrowed_mut = path.ends_with('&') && before[path.len()..].starts_with("mut");
                if assigns
                    || compound
                    || borrowed_mut
                    || ADDERS.iter().any(|a| after.starts_with(a))
                {
                    writes.push(at);
                }
            }
            writes
        }
    }

    /// Every source file of the kernel crate, scanned.
    fn kernel_sources() -> Vec<Source> {
        sources_in(concat!(env!("CARGO_MANIFEST_DIR"), "/src"))
    }

    /// Every source file in `dir`, scanned.
    fn sources_in(dir: &str) -> Vec<Source> {
        let mut sources = Vec::new();
        for entry in std::fs::read_dir(dir).expect("kernel sources") {
            let path = entry.expect("directory entry").path();
            let text = std::fs::read_to_string(&path).expect("source reads");
            let file = path.file_name().expect("a file").to_string_lossy();
            let mut src = Source {
                file: file.into_owned(),
                code: String::new(),
                line_of: Vec::new(),
                lines: Vec::new(),
            };
            let mut func = String::new();
            let mut lines = text.lines();
            while let Some(raw) = lines.next() {
                let line = raw.split("//").next().unwrap_or("");
                if line.trim_start().starts_with("#[cfg(test)]") {
                    // Anything but the test module here would hide the
                    // rest of the file from the scan. (`cost.rs`'s is
                    // `pub(crate)`: other test modules share its helper.)
                    let next = lines.next().unwrap_or("").trim_start();
                    let next = next.strip_prefix("pub(crate) ").unwrap_or(next);
                    assert!(
                        next.starts_with("mod "),
                        "{}: #[cfg(test)] on {next}",
                        src.file
                    );
                    break;
                }
                if let Some(rest) = line.split("fn ").nth(1) {
                    func = rest.split(['(', '<']).next().unwrap_or("").to_string();
                }
                for word in line.split_whitespace() {
                    src.code.push_str(word);
                    src.line_of.resize(src.code.len(), src.lines.len());
                }
                src.lines.push((line.trim().to_string(), func.clone()));
            }
            sources.push(src);
        }
        sources
    }

    /// The clock has one writer: [`bill`] is the only code in the
    /// kernel that adds to a `vclock_ps`, and [`stamp_start`] and
    /// [`observe_stop`] the only two that join one.
    #[test]
    fn the_clock_has_one_writer() {
        const WRITERS: [&str; 3] = ["bill", "stamp_start", "observe_stop"];
        let mut rogue = Vec::new();
        for src in kernel_sources() {
            for at in src.writes_to("vclock_ps") {
                if !WRITERS.contains(&src.func_at(at)) {
                    rogue.push(src.locate(at));
                }
            }
        }
        assert!(
            rogue.is_empty(),
            "vclock_ps written outside bill/stamp_start/observe_stop:\n{}",
            rogue.join("\n")
        );
    }

    /// The counters have one writer: no code outside the pure core
    /// (`apply.rs`, `state.rs`) and `stats.rs` writes a [`KernelStats`]
    /// field, and no atomic counts beside it — the kernel's only
    /// `AtomicU64`s are the two host counters of `HostStats`.
    #[test]
    fn every_counter_has_one_writer() {
        const WRITERS: [&str; 3] = ["apply.rs", "state.rs", "stats.rs"];
        const HOST: [&str; 2] = ["spurious_wakeups:AtomicU64", "os_threads_created:AtomicU64"];
        let fields: std::collections::BTreeSet<String> = KernelStats::default()
            .lines()
            .into_iter()
            .map(|(k, _)| k.split('.').next().unwrap_or("").to_string())
            .collect();
        assert_eq!(fields.len(), 26);
        let mut rogue = Vec::new();
        for src in kernel_sources() {
            if !WRITERS.contains(&src.file.as_str()) {
                for field in &fields {
                    rogue.extend(src.writes_to(field).into_iter().map(|at| src.locate(at)));
                }
            }
            for (at, atomic) in src.code.match_indices("AtomicU64") {
                let host = HOST
                    .iter()
                    .any(|h| src.code[..at + atomic.len()].ends_with(h));
                let import = src.lines[src.line_of[at]].0.starts_with("use ");
                if !host && !import {
                    rogue.push(format!("{} (an AtomicU64)", src.locate(at)));
                }
            }
        }
        assert!(
            rogue.is_empty(),
            "KernelStats counted outside the pure core:\n{}",
            rogue.join("\n")
        );
    }

    /// The cluster has no back door into the kernel: det-cluster's
    /// sources write no [`KernelStats`] field, read no [`CostModel`]
    /// price and charge nothing. A remote fork and a remote join are
    /// kernel arms ([`migrate_out`], [`migrate_home`]) that bill, wait,
    /// merge and count in here; the cluster keeps only its link.
    #[test]
    fn the_cluster_prices_no_kernel_term() {
        let cost = sources_in(concat!(env!("CARGO_MANIFEST_DIR"), "/src"))
            .into_iter()
            .find(|s| s.file == "cost.rs")
            .expect("cost.rs");
        // The prices: every `*_ps` field and `*_cost_ps` method.
        let prices: Vec<&str> = (cost.lines.iter())
            .filter_map(|(line, _)| match line.strip_prefix("pub fn ") {
                Some(f) => f.split('(').next().filter(|n| n.ends_with("_cost_ps")),
                None => line.strip_prefix("pub ")?.split(':').next(),
            })
            .filter(|name| name.ends_with("_ps"))
            .collect();
        assert!(prices.contains(&"syscall_ps") && prices.contains(&"copy_cost_ps"));
        let fields: std::collections::BTreeSet<String> = KernelStats::default()
            .lines()
            .into_iter()
            .map(|(k, _)| k.split('.').next().unwrap_or("").to_string())
            .collect();
        let ident = |c: char| c.is_alphanumeric() || c == '_';
        let mut rogue = std::collections::BTreeSet::new();
        for src in sources_in(concat!(env!("CARGO_MANIFEST_DIR"), "/../cluster/src")) {
            for field in &fields {
                rogue.extend(src.writes_to(field).into_iter().map(|at| src.locate(at)));
            }
            for name in prices.iter().map(|p| format!(".{p}")) {
                for (at, _) in src.code.match_indices(&name) {
                    if !src.code[at + name.len()..].starts_with(ident) {
                        rogue.insert(src.locate(at));
                    }
                }
            }
            for call in [".charge(", ".charge_ps("] {
                rogue.extend(src.code.match_indices(call).map(|(at, _)| src.locate(at)));
            }
        }
        assert!(
            rogue.is_empty(),
            "det-cluster counts, prices or charges a kernel term:\n{}",
            rogue.into_iter().collect::<Vec<_>>().join("\n")
        );
    }

    /// A space's flags have one writer: no code outside the pure core
    /// (`apply.rs`, `state.rs`) writes a [`KSlot`]'s `has_vehicle`,
    /// `inline_vm`, `terminal`, `pending` or `child_gens` — the shell
    /// steps its record through the same arms replay does. `run` and
    /// `state` are left out on purpose: the shell also checks a state
    /// out to a vehicle or an inline drive, and its shutdown sweep
    /// destroys every slot, and replay models neither.
    #[test]
    fn slot_flags_have_one_writer() {
        const WRITERS: [&str; 2] = ["apply.rs", "state.rs"];
        const FLAGS: [&str; 5] = [
            "has_vehicle",
            "inline_vm",
            "terminal",
            "pending",
            "child_gens",
        ];
        let mut rogue = Vec::new();
        for src in kernel_sources() {
            if !WRITERS.contains(&src.file.as_str()) {
                for flag in FLAGS {
                    rogue.extend(src.writes_to(flag).into_iter().map(|at| src.locate(at)));
                }
            }
        }
        assert!(
            rogue.is_empty(),
            "a slot flag written outside the pure core:\n{}",
            rogue.join("\n")
        );
    }

    /// The shell builds no rendezvous event: no code outside `apply.rs`
    /// constructs a `Put`, `Get` or `CheckIn` [`TraceEvent`] (a pattern
    /// that reads one — braces ending in `..`, or followed by `=>`, `|`
    /// or `=` — is not a build), and the lost-state synthesis,
    /// [`final_reason`] and a fresh [`SpaceState`], happens only in the
    /// [`check_in`] arm (`KSlot::new`'s fresh state aside). Each event
    /// kind is built by the arm both drivers run.
    #[test]
    fn the_shell_builds_no_rendezvous_event() {
        const EVENTS: [&str; 3] = [
            "TraceEvent::Put{",
            "TraceEvent::Get{",
            "TraceEvent::CheckIn{",
        ];
        const CALLS: [(&str, &[(&str, &str)]); 2] = [
            ("final_reason(", &[("apply.rs", "check_in")]),
            (
                "SpaceState::new()",
                &[("apply.rs", "check_in"), ("state.rs", "new")],
            ),
        ];
        let mut rogue = Vec::new();
        for src in kernel_sources() {
            for ev in EVENTS.iter().filter(|_| src.file != "apply.rs") {
                for (at, _) in src.code.match_indices(ev) {
                    let body = &src.code[at + ev.len()..];
                    let mut depth = 1;
                    let end = body
                        .find(|c| {
                            depth += i32::from(c == '{') - i32::from(c == '}');
                            depth == 0
                        })
                        .unwrap_or(body.len());
                    let next = body.get(end + 1..).unwrap_or("");
                    let pattern = body[..end].ends_with("..")
                        || next.starts_with("=>")
                        || next.starts_with('|')
                        || (next.starts_with('=') && !next.starts_with("=="));
                    if !pattern {
                        rogue.push(format!("{} builds {ev}..}}", src.locate(at)));
                    }
                }
            }
            for (call, homes) in CALLS {
                for (at, _) in src.code.match_indices(call) {
                    let home = (src.file.as_str(), src.func_at(at));
                    if !src.code[..at].ends_with("fn") && !homes.contains(&home) {
                        rogue.push(format!("{} calls {call}", src.locate(at)));
                    }
                }
            }
        }
        assert!(
            rogue.is_empty(),
            "a rendezvous event or a lost state made outside its arm:\n{}",
            rogue.join("\n")
        );
    }

    /// A successful check-in charges the calibrated rendezvous park
    /// cost exactly once, for resumable stops only.
    #[test]
    fn check_in_charges_rendezvous_cost() {
        let costs = CostModel::default();
        let mut k = KSlot::new("/t".to_string());
        let mut stats = KernelStats::default();
        let vm = VmCounters::default();
        let st = k.state.take();
        k.run = RunState::Running;
        let ret = StopReason::Ret;
        check_in(&costs, 1, (&mut k, &mut stats), (st, None), ret, false, &vm);
        assert_eq!(k.state.as_ref().unwrap().vclock_ps, costs.rendezvous_ps);
        let st = k.state.take();
        k.run = RunState::Running;
        let halted = StopReason::Halted;
        check_in(
            &costs,
            1,
            (&mut k, &mut stats),
            (st, None),
            halted,
            false,
            &vm,
        );
        // Halting is final: no park, no park cost.
        assert_eq!(k.state.as_ref().unwrap().vclock_ps, costs.rendezvous_ps);
        assert_eq!(stats.rets, 1);
    }

    /// A remote child's homecoming bills what a local join does: the
    /// syscall, the rendezvous and the merge of the pages it dirtied,
    /// priced from the `MergeStats` the arm returns.
    #[test]
    fn migrate_home_bills_syscall_rendezvous_and_merge() {
        let costs = CostModel::default();
        let region = Region::new(0x10000, 0x12000);
        let mut st = SpaceState::new();
        st.mem.map_zero(region, Perm::RW).expect("maps");
        st.mem.write_u64(region.start, 1).expect("writes");
        let mut base = st.mem.clone();
        base.clear_dirty();
        let mut child = base.clone();
        child.write_u64(region.start + 8, 7).expect("writes");
        let delta = child.delta_since(&base);
        assert!(!delta.pages.is_empty(), "the child dirtied a page");
        let mut stats = KernelStats::default();
        let home = (&base, Ok(delta));
        let merge = migrate_home(&costs, &mut st, &mut stats, home, 0, region, true)
            .expect("a conflict-free homecoming");
        let merge_ps = costs.merge_cost_ps(&merge);
        assert!(merge_ps > 0, "the merge is priced");
        assert_eq!(
            st.vclock_ps,
            costs.syscall_ps + costs.rendezvous_ps + merge_ps
        );
        assert_eq!(st.mem.read_u64(region.start + 8), Ok(7));
        assert_eq!(stats.migrations, 1);
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
