//! Pure kernel state: the plain-data half of the functional core.
//!
//! Everything in this module (and in [`crate::apply`]) is ordinary
//! data plus pure functions over it — no locks, no condition
//! variables, no threads, no device or host I/O. The imperative shell
//! (`kernel.rs` / `ctx.rs`) owns all of those and calls the pure core
//! between its waits and wakes; the trace replayer ([`crate::trace`])
//! drives the very same core with no execution vehicles at all. What a
//! rendezvous does, in which order, and who pays is the core's
//! (`apply.rs`); a driver only finds the two spaces and realizes the
//! decisions that come back. A unit test enforces the purity boundary
//! by scanning this module's source (see `core_modules_are_pure` in
//! `apply.rs`), and a second one that the clock has one adder.

use std::collections::BTreeMap;

use det_memory::{AddressSpace, ConflictPolicy};
use det_vm::Regs;
use serde::{Deserialize, Serialize};

use crate::apply::bill;
use crate::cost::CostModel;
use crate::device::DeviceId;
use crate::error::TrapKind;
use crate::ids::ChildNum;
use crate::stats::KernelStats;
use crate::syscall::StopReason;

/// Execution phase of a space slot.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub(crate) enum RunState {
    /// Stopped; `state` present in the slot.
    Idle(StopReason),
    /// An inline VM space with pending execution: `state` (and a warm
    /// `cpu`) present in the slot, waiting to be driven by whichever
    /// thread next waits on it.
    Runnable,
    /// Checked out — to the slot's own vehicle, or to the parent
    /// thread currently executing it inline.
    Running,
    /// Gone; vehicles observing this unwind.
    Destroyed,
}

/// What kind of program a slot executes — the pure-data shadow of
/// [`crate::Program`], which (for native programs) carries a host
/// closure the core cannot hold.
///
/// The kind is also the whole vehicle policy (DESIGN.md §6): which host
/// thread runs a space is unobservable — a child's effects exist for
/// its parent only at a rendezvous — so it is fixed per kind, not
/// configured.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ProgramKind {
    /// A host closure driven through [`crate::SpaceCtx`], on a host
    /// thread of its own.
    Native,
    /// A deterministic VM program executing from the space's memory.
    ///
    /// A VM space is always a *leaf* (the VM ISA has no `Put`/`Get`
    /// surface), so the one thread that waits for it interprets it: a
    /// rendezvous costs zero host context switches. Execution is lazy —
    /// a started child that nobody ever waits on retires no
    /// instruction, which is what keeps `vm_instructions` a pure
    /// function of the event history.
    Vm,
}

/// The movable per-space state, checked in/out around execution.
///
/// The derived mapping leaves the memory out: a checkpoint encodes
/// `mem` against a base image (`checkpoint.rs`) and never stores
/// `snap` (see that module's docs on restorable boundaries).
#[derive(Serialize, Deserialize)]
pub(crate) struct SpaceState {
    pub regs: Regs,
    #[serde(skip)]
    pub mem: AddressSpace,
    #[serde(skip)]
    pub snap: Option<AddressSpace>,
    /// Virtual clock in picoseconds.
    pub vclock_ps: u64,
    /// Remaining work budget in picoseconds, if limited.
    pub limit_ps: Option<u64>,
    /// VM instructions retired by this space.
    pub insn_count: u64,
}

impl SpaceState {
    pub(crate) fn new() -> SpaceState {
        SpaceState {
            regs: Regs::default(),
            mem: AddressSpace::new(),
            snap: None,
            vclock_ps: 0,
            limit_ps: None,
            insn_count: 0,
        }
    }

    pub(crate) fn clone_image(&self) -> SpaceState {
        SpaceState {
            regs: self.regs,
            mem: self.mem.clone(),
            snap: self.snap.clone(),
            vclock_ps: self.vclock_ps,
            limit_ps: self.limit_ps,
            insn_count: self.insn_count,
        }
    }
}

/// One space slot as plain data: the pure core's view of what the
/// shell keeps in a locked `Slot` (children map, run phase, checked-in
/// state, program bookkeeping) minus everything host-bound (the join
/// handle, the warm CPU, the condvars).
///
/// The derived mapping leaves `state` out; `checkpoint.rs` adds it,
/// because decoding its memory needs the parent checkpoint's image.
#[derive(Serialize, Deserialize)]
pub(crate) struct KSlot {
    /// Child number → space id, the per-space private namespace.
    pub children: BTreeMap<ChildNum, u32>,
    /// Deterministic lineage path (see [`child_path`]). Space *table
    /// ids* are allocation-order artifacts — concurrent creations race
    /// for them — so any cross-run artifact names spaces by path, never
    /// by id.
    pub path: String,
    /// Per-child-number creation counter feeding [`child_path`]'s
    /// generation suffix.
    pub child_gens: BTreeMap<ChildNum, u32>,
    pub run: RunState,
    #[serde(skip)]
    pub state: Option<Box<SpaceState>>,
    /// Program installed but not yet started.
    pub pending: Option<ProgramKind>,
    /// A dedicated vehicle exists (live thread in the shell).
    pub has_vehicle: bool,
    /// The slot runs its program as an inline VM space.
    pub inline_vm: bool,
    /// Set by a final check-in: nothing is left to resume.
    pub terminal: bool,
}

impl KSlot {
    pub(crate) fn new(path: String) -> KSlot {
        KSlot {
            children: BTreeMap::new(),
            path,
            child_gens: BTreeMap::new(),
            run: RunState::Idle(StopReason::Unstarted),
            state: Some(Box::new(SpaceState::new())),
            pending: None,
            has_vehicle: false,
            inline_vm: false,
            terminal: false,
        }
    }
}

/// Derives the lineage path of the next space bound at `child` under a
/// parent, bumping the parent's per-number creation counter.
///
/// The root is `"/"`; a first binding is `<parent>/<child-num>`; a
/// binding that *replaces* an earlier one (only `Tree` copies do this —
/// `ensure_child` never creates over an existing entry) is suffixed
/// `@<generation>`. Because every space's children are created by its
/// own single thread of control (a parent can only rewrite the map
/// while the space is parked), the per-number creation *sequence* is a
/// pure function of the kernel-mediated event history — so paths, and
/// anything keyed by them, are identical across runs and between a
/// live run and its trace replay. The shell (`ctx.rs`) and the replayer
/// (`apply.rs`) both assign paths through this one function.
pub(crate) fn child_path(
    parent: &str,
    child: ChildNum,
    gens: &mut BTreeMap<ChildNum, u32>,
) -> String {
    let counter = gens.entry(child).or_insert(0);
    let generation = *counter;
    *counter += 1;
    let base = if parent == "/" {
        format!("/{child}")
    } else {
        format!("{parent}/{child}")
    };
    if generation == 0 {
        base
    } else {
        format!("{base}@{generation}")
    }
}

/// The root space's lineage path.
pub(crate) const ROOT_PATH: &str = "/";

/// The whole kernel as plain data: the state a trace replay evolves.
///
/// This is exactly the information the shell scatters across its
/// locked slot table, device hub, and hot counters — gathered into one
/// owned value a pure `apply` can step.
///
/// The derived mapping leaves `slots` out, for [`KSlot`]'s reason.
#[derive(Serialize, Deserialize)]
pub(crate) struct KState {
    pub costs: CostModel,
    pub policy: ConflictPolicy,
    #[serde(skip)]
    pub slots: BTreeMap<u32, KSlot>,
    pub stats: KernelStats,
    /// Device output buffers (the replayed side of the device hub).
    /// Ordered, like the hub's, so serialized artifacts enumerate
    /// devices canonically.
    pub outputs: BTreeMap<DeviceId, Vec<u8>>,
    /// Set by the `RootExit` event.
    pub root_exit: Option<std::result::Result<i32, TrapKind>>,
}

impl KState {
    pub(crate) fn new(costs: CostModel, policy: ConflictPolicy) -> KState {
        let mut slots = BTreeMap::new();
        let mut root = KSlot::new(ROOT_PATH.to_string());
        root.run = RunState::Running;
        slots.insert(0, root);
        KState {
            costs,
            policy,
            slots,
            stats: KernelStats::default(),
            outputs: BTreeMap::new(),
            root_exit: None,
        }
    }
}

/// Which stop-reason counter a check-in bumps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum StopCounter {
    Ret,
    Trap,
    Limit,
}

/// Classifies a stop for the check-in counters (pure; the shell maps
/// the result onto hot atomics, the replayer onto [`KernelStats`]).
pub(crate) fn stop_counter(reason: StopReason) -> Option<StopCounter> {
    match reason {
        StopReason::Ret => Some(StopCounter::Ret),
        StopReason::Trap(_) => Some(StopCounter::Trap),
        StopReason::LimitReached => Some(StopCounter::Limit),
        _ => None,
    }
}

/// The rendezvous park charge applied at check-in: resumable stops pay
/// the handoff cost, final stops do not.
pub(crate) fn check_in_charge(costs: &CostModel, st: &mut SpaceState, reason: StopReason) {
    if reason.resumable() {
        bill(st, costs.rendezvous_ps);
    }
}

/// The stop reason a final check-in records: a vehicle dying *without*
/// state is checked in as a terminal trap so a waiting parent observes
/// a deterministic stop instead of hanging.
pub(crate) fn final_reason(has_state: bool, reason: StopReason) -> StopReason {
    if has_state || matches!(reason, StopReason::Trap(_)) {
        reason
    } else {
        StopReason::Trap(TrapKind::Panic)
    }
}

/// Rendezvous clock rule: the caller observes the child's stop and
/// takes the later of the two clocks — a wait, not a charge (the
/// other `max` join is `apply::stamp_start`). Returns the child's
/// clock.
pub(crate) fn observe_stop(caller: &mut SpaceState, child_vclock_ps: u64) -> u64 {
    caller.vclock_ps = caller.vclock_ps.max(child_vclock_ps);
    child_vclock_ps
}
