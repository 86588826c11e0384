//! The kernel proper: space table, rendezvous, execution vehicles.
//!
//! Spaces interact *only* through `Put`/`Get`/`Ret` (§3.2). The
//! implementation keeps every stopped space's state (registers +
//! private address space) in the kernel's space table; when a space
//! runs, its state is checked out to an execution vehicle, making it
//! physically inaccessible to every other space. `Put`/`Get` on a
//! running child blocks until the child checks its state back in via
//! `Ret`, a trap, or a limit preemption — the "rendezvous" semantics
//! that make the space hierarchy a deterministic Kahn network.
//!
//! Rendezvous is a **targeted-wakeup engine** (DESIGN.md §6): each
//! slot owns its own lock and a pair of condition variables, and every
//! park, check-in, and resume wakes exactly the one thread known to be
//! waiting (the slot's parent in `wait_idle`, or the slot's own parked
//! vehicle) — never a broadcast.
//!
//! Host threads are *execution vehicles only*: all cross-space
//! communication is kernel-mediated, so results are independent of how
//! the host schedules (or lends) the vehicles. Which vehicle a space
//! gets is therefore a function of its program kind, not an option: a
//! native space runs on a host thread of its own, and a VM space —
//! always a leaf — is interpreted *inline* by the thread that waits
//! for it, so its rendezvous costs no host context switch at all.
//! A native space's thread comes from the kernel's [`VehiclePool`]: a
//! `Start` re-arms a parked worker and creates an OS thread only when
//! none is parked.

use std::collections::BTreeMap;
use std::panic::{AssertUnwindSafe, catch_unwind};
use std::sync::Arc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex, MutexGuard};

use det_memory::{AddressSpace, ConflictPolicy, MergeStats};
use det_vm::{Cpu, VmExit};

use crate::apply::{
    EntryRec, MemOpCounts, StartAction, TraceEvent, VmCounters, bill, stamp_start, start_action,
};
use crate::cost::{CostModel, ps_to_ns};
use crate::ctx::SpaceCtx;
use crate::device::{DeviceHub, DeviceId, IoLog, IoMode};
use crate::error::{KernelError, Result, TrapKind};
use crate::fault::{ArmedFaults, FaultPlan};
use crate::ids::SpaceId;
use crate::program::{NativeEntry, NativeResult, Program};
use crate::state::{ROOT_PATH, StopCounter, check_in_charge, final_reason, stop_counter};
use crate::stats::{HostStats, KernelStats};
use crate::syscall::StopReason;
use crate::trace::{SpaceArtifact, TraceMeta, TraceSink};

/// Kernel construction parameters.
///
/// Construct via [`KernelConfig::builder`] (the struct is
/// `#[non_exhaustive]`, so literal construction only works inside this
/// crate); `KernelConfig::default()` remains the zero-config path.
#[derive(Debug, Default)]
#[non_exhaustive]
pub struct KernelConfig {
    /// Virtual-time cost model.
    pub costs: CostModel,
    /// Merge conflict policy (paper default: strict).
    pub policy: ConflictPolicy,
    /// Record or replay nondeterministic inputs.
    pub io: IoMode,
    /// When set, the kernel records every syscall-level transition into
    /// this sink; the resulting [`crate::Trace`] replays without any
    /// execution vehicles.
    pub trace: Option<TraceSink>,
    /// Deterministic fault-injection plan (empty by default). Faults
    /// fire at deterministic coordinates and surface as typed errors —
    /// see [`FaultPlan`].
    pub faults: FaultPlan,
}

impl KernelConfig {
    /// Starts a typed builder over the default configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use det_kernel::{ConflictPolicy, KernelConfig};
    /// let cfg = KernelConfig::builder()
    ///     .policy(ConflictPolicy::ChildWins)
    ///     .build();
    /// assert_eq!(cfg.policy, ConflictPolicy::ChildWins);
    /// ```
    pub fn builder() -> KernelConfigBuilder {
        KernelConfigBuilder {
            config: KernelConfig::default(),
        }
    }
}

/// Builder for [`KernelConfig`] — the only way to construct a
/// non-default configuration from outside this crate.
#[derive(Debug, Default)]
pub struct KernelConfigBuilder {
    config: KernelConfig,
}

impl KernelConfigBuilder {
    /// Sets the virtual-time cost model.
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.config.costs = costs;
        self
    }

    /// Sets the merge conflict policy.
    pub fn policy(mut self, policy: ConflictPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the nondeterministic-input mode (record or replay).
    pub fn io(mut self, io: IoMode) -> Self {
        self.config.io = io;
        self
    }

    /// Attaches a trace sink recording every kernel transition.
    pub fn trace(mut self, sink: TraceSink) -> Self {
        self.config.trace = Some(sink);
        self
    }

    /// Arms a deterministic fault-injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.config.faults = plan;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> KernelConfig {
        self.config
    }
}

pub(crate) use crate::state::{RunState, SpaceState};

/// Trace-recording cursor for one space: the sink plus the *base*
/// image the next event's [`EntryRec`] delta is computed against.
///
/// The base is re-cloned ("resynced") at the end of every traced
/// syscall and at every park-resume, so snapshots and parent-side
/// mutations applied to a parked space are never straddled by a
/// delta — `delta_since` requires that (a snapshot clears the dirty
/// set), and replay re-applies parent-side mutations itself via the
/// recorded `Put`/`Get` events.
pub(crate) struct TraceCtx {
    base: AddressSpace,
    sync_ps: u64,
    sync_insn: u64,
}

impl TraceCtx {
    pub(crate) fn new(st: &SpaceState) -> TraceCtx {
        TraceCtx {
            base: st.mem.clone(),
            sync_ps: st.vclock_ps,
            sync_insn: st.insn_count,
        }
    }

    pub(crate) fn resync(&mut self, st: &SpaceState) {
        self.base = st.mem.clone();
        self.sync_ps = st.vclock_ps;
        self.sync_insn = st.insn_count;
    }

    /// The caller-side record of a syscall entry: everything that
    /// happened to this space since the last sync point.
    pub(crate) fn entry(&self, st: &SpaceState) -> EntryRec {
        EntryRec {
            advance_ps: st.vclock_ps - self.sync_ps,
            limit_ps: st.limit_ps,
            delta: st.mem.delta_since(&self.base),
        }
    }

    /// A check-in event for this space, built *before* the check-in
    /// charge is applied (replay re-applies that charge itself).
    pub(crate) fn check_in(
        &self,
        id: SpaceId,
        st: &SpaceState,
        reason: StopReason,
        final_stop: bool,
        vm: VmCounters,
    ) -> TraceEvent {
        TraceEvent::CheckIn {
            space: id.index(),
            reason,
            final_stop,
            lost_state: false,
            regs: st.regs,
            advance_ps: st.vclock_ps - self.sync_ps,
            limit_ps: st.limit_ps,
            insn_delta: st.insn_count - self.sync_insn,
            vm,
            delta: st.mem.delta_since(&self.base),
        }
    }
}

/// The check-in event for a vehicle that died without state: replay
/// synthesizes a fresh state and a terminal trap, as
/// [`Shared::final_check_in`] does.
pub(crate) fn lost_state_check_in(id: SpaceId, reason: StopReason) -> TraceEvent {
    TraceEvent::CheckIn {
        space: id.index(),
        reason,
        final_stop: true,
        lost_state: true,
        regs: det_vm::Regs::default(),
        advance_ps: 0,
        limit_ps: None,
        insn_delta: 0,
        vm: VmCounters::default(),
        delta: det_memory::SpaceDelta::default(),
    }
}

/// A resolved child: its table id plus its slot cell, stored together
/// in the parent's children map so rendezvous resolution is one
/// (uncontended) lock of the parent's own slot — never a walk of the
/// kernel-global space table — and `Tree` copies that rewrite the map
/// are authoritative immediately.
pub(crate) type ChildRef = (SpaceId, Arc<SlotCell>);

pub(crate) struct Slot {
    pub children: BTreeMap<u64, ChildRef>,
    /// Deterministic lineage path (see [`crate::state::child_path`]):
    /// table ids are allocation-order artifacts that race under
    /// concurrent creation, so artifacts and reports name spaces by
    /// path. Assigned at creation under the parent's slot lock,
    /// through the one function replay calls too.
    pub path: String,
    /// Per-child-number creation counter for the path generation
    /// suffix (only `Tree` copies ever rebind a number).
    pub child_gens: BTreeMap<u64, u32>,
    pub run: RunState,
    pub state: Option<Box<SpaceState>>,
    pub pending: Option<Program>,
    /// True while a pooled worker is bound to this slot's program: set
    /// when a `Start` hands the program to one, cleared when a new
    /// program is installed over a finished one. It is the bit
    /// [`start_action`] reads; the worker itself belongs to the
    /// [`VehiclePool`], never to the slot.
    pub has_vehicle: bool,
    /// Warm CPU (software TLB + decoded-instruction cache) of an
    /// inline VM space, preserved across stops and resumes.
    pub cpu: Option<Box<Cpu>>,
    /// True once the slot runs its program as an inline VM space.
    pub inline_vm: bool,
    /// Trace cursor for an inline VM slot, established whenever the
    /// slot becomes `Runnable` (its vehicle-less equivalent of the
    /// thread-local cursor a dedicated vehicle carries). Taken by the
    /// thread that drives the slot.
    pub trace_base: Option<TraceCtx>,
    /// Set by a *final* check-in: the slot's vehicle has exited (or is
    /// about to), so a resumable-looking stop (e.g. a native trap) has
    /// nothing left to resume. Cleared when a new program is
    /// installed. Prevents a `Start` from waking nobody and hanging
    /// the next `wait_idle` forever.
    pub terminal: bool,
}

impl Slot {
    pub(crate) fn new_child(path: String) -> Slot {
        Slot {
            children: BTreeMap::new(),
            path,
            child_gens: BTreeMap::new(),
            run: RunState::Idle(StopReason::Unstarted),
            state: Some(Box::new(SpaceState::new())),
            pending: None,
            has_vehicle: false,
            cpu: None,
            inline_vm: false,
            trace_base: None,
            terminal: false,
        }
    }
}

/// One space's slot: its own lock plus the two targeted wait points.
///
/// At most one thread ever waits on each condvar — the slot's unique
/// parent in [`Shared::wait_idle`] on `idle_cv`, and the slot's own
/// parked vehicle in [`Shared::park`] on `resume_cv` — so every
/// `notify_one` wakes exactly the intended thread and nobody else.
pub(crate) struct SlotCell {
    pub m: Mutex<Slot>,
    /// Wakes the parent blocked in `wait_idle` on this slot.
    pub idle_cv: Condvar,
    /// Wakes this slot's parked vehicle when the parent restarts it.
    pub resume_cv: Condvar,
}

impl SlotCell {
    fn new(slot: Slot) -> Arc<SlotCell> {
        Arc::new(SlotCell {
            m: Mutex::new(slot),
            idle_cv: Condvar::new(),
            resume_cv: Condvar::new(),
        })
    }
}

/// One native program handed to a pooled worker: what `native_thread`
/// runs.
struct Job {
    cell: Arc<SlotCell>,
    id: SpaceId,
    entry: NativeEntry,
    st: Box<SpaceState>,
}

#[derive(Default)]
struct Mailbox {
    /// At most one job: a worker is handed one only after it was popped
    /// off the idle stack, and goes back on only after taking it.
    job: Option<Job>,
    /// Set once by `Kernel::run`; honoured after a pending job.
    quit: bool,
}

/// One pooled vehicle thread's wait point — the third of DESIGN.md §6.
/// Only the worker itself ever waits on `cv`, and both predicate
/// changes (a job stored, `quit` set) happen under `mailbox` before the
/// one `notify_one`, so the §6 arguments hold here unchanged. The wake
/// is not a rendezvous wake and is not counted in `condvar_wakeups`.
#[derive(Default)]
pub(crate) struct Worker {
    mailbox: Mutex<Mailbox>,
    cv: Condvar,
}

/// Creates the OS thread behind a new worker. A parameter of
/// [`Shared::start_vehicle`] so a test can make the host refuse.
type SpawnWorker = fn(Arc<Shared>, Arc<Worker>) -> std::io::Result<JoinHandle<()>>;

fn spawn_worker(shared: Arc<Shared>, me: Arc<Worker>) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("vehicle".to_string())
        .spawn(move || worker_loop(&shared, &me))
}

/// The kernel's parked vehicle threads. Neither field is sized or
/// selected by anything: the pool grows to the widest set of native
/// programs that were ever running at once and is torn down by
/// `Kernel::run`.
#[derive(Default)]
pub(crate) struct VehiclePool {
    /// Workers with no program, most recently parked last. LIFO, and a
    /// worker parks *before* its program's final check-in is visible
    /// (see `native_thread`), so a sequential fork/join loop re-arms the
    /// one thread whose stack is still warm.
    idle: Vec<Arc<Worker>>,
    /// Every worker created, idle or busy, for the shutdown join.
    workers: Vec<(Arc<Worker>, JoinHandle<()>)>,
}

/// Accumulated merge statistics (cold path; merges do real byte work,
/// so a mutex here costs nothing measurable).
#[derive(Default)]
pub(crate) struct MergeAccum {
    pub merges: u64,
    pub totals: MergeStats,
}

/// Counters bumped on hot paths without taking any slot lock.
///
/// Relaxed atomics: each is an independent event count, folded into
/// [`KernelStats`] only at collection time (`Kernel::run` shutdown,
/// after every vehicle has been joined), so no ordering between them
/// is ever observed mid-run. The *values* are deterministic — they
/// count kernel-mediated events, not host scheduling — only the bump
/// itself is lock-free. (`spurious_wakeups` and `os_threads_created`
/// are the exceptions — wake races and which `Start` finds a worker
/// parked are host timing — which is why they fold into [`HostStats`],
/// never into [`KernelStats`].)
#[derive(Default)]
pub(crate) struct HotStats {
    pub puts: AtomicU64,
    pub gets: AtomicU64,
    pub put_gets: AtomicU64,
    pub rets: AtomicU64,
    pub traps: AtomicU64,
    pub limit_preemptions: AtomicU64,
    pub spaces_created: AtomicU64,
    pub threads_spawned: AtomicU64,
    pub pages_copied: AtomicU64,
    pub pages_snapped: AtomicU64,
    pub leaves_cloned: AtomicU64,
    pub conflicts: AtomicU64,
    pub migrations: AtomicU64,
    pub device_reads: AtomicU64,
    pub device_write_bytes: AtomicU64,
    pub vm_instructions: AtomicU64,
    pub vm_tlb_hits: AtomicU64,
    pub vm_pages_walked: AtomicU64,
    pub vm_icache_hits: AtomicU64,
    pub vm_icache_fills: AtomicU64,
    pub condvar_wakeups: AtomicU64,
    pub spurious_wakeups: AtomicU64,
    pub os_threads_created: AtomicU64,
    pub vm_inline_runs: AtomicU64,
    pub checkpoints: AtomicU64,
    pub checkpoint_leaves: AtomicU64,
}

impl HotStats {
    /// Folds the hot counters into a stats record (read-time merge).
    pub(crate) fn fold_into(&self, stats: &mut KernelStats) {
        stats.puts += self.puts.load(Relaxed);
        stats.gets += self.gets.load(Relaxed);
        stats.put_gets += self.put_gets.load(Relaxed);
        stats.rets += self.rets.load(Relaxed);
        stats.traps += self.traps.load(Relaxed);
        stats.limit_preemptions += self.limit_preemptions.load(Relaxed);
        stats.spaces_created += self.spaces_created.load(Relaxed);
        stats.threads_spawned += self.threads_spawned.load(Relaxed);
        stats.pages_copied += self.pages_copied.load(Relaxed);
        stats.pages_snapped += self.pages_snapped.load(Relaxed);
        stats.leaves_cloned += self.leaves_cloned.load(Relaxed);
        stats.conflicts += self.conflicts.load(Relaxed);
        stats.migrations += self.migrations.load(Relaxed);
        stats.device_reads += self.device_reads.load(Relaxed);
        stats.device_write_bytes += self.device_write_bytes.load(Relaxed);
        stats.vm_instructions += self.vm_instructions.load(Relaxed);
        stats.vm_tlb_hits += self.vm_tlb_hits.load(Relaxed);
        stats.vm_pages_walked += self.vm_pages_walked.load(Relaxed);
        stats.vm_icache_hits += self.vm_icache_hits.load(Relaxed);
        stats.vm_icache_fills += self.vm_icache_fills.load(Relaxed);
        stats.condvar_wakeups += self.condvar_wakeups.load(Relaxed);
        stats.vm_inline_runs += self.vm_inline_runs.load(Relaxed);
        stats.checkpoints += self.checkpoints.load(Relaxed);
        stats.checkpoint_leaves += self.checkpoint_leaves.load(Relaxed);
    }

    /// The host-scheduling-dependent counters, segregated from the
    /// deterministic [`KernelStats`].
    pub(crate) fn host_stats(&self) -> HostStats {
        HostStats {
            spurious_wakeups: self.spurious_wakeups.load(Relaxed),
            os_threads_created: self.os_threads_created.load(Relaxed),
        }
    }
}

pub(crate) struct Shared {
    /// The space table: append-only; the lock covers growth and
    /// enumeration only. Rendezvous never touches it — each syscall
    /// resolves its child's [`SlotCell`] once and caches the `Arc`.
    pub table: Mutex<Vec<Arc<SlotCell>>>,
    /// Device hub (root-only I/O; never on the rendezvous path).
    pub devices: Mutex<DeviceHub>,
    pub costs: CostModel,
    pub policy: ConflictPolicy,
    /// Lock-free hot-path counters (folded into the outcome's
    /// [`KernelStats`] at collection time).
    pub hot: HotStats,
    /// Accumulated merge statistics (cold path).
    pub merge_accum: Mutex<MergeAccum>,
    /// Transition-trace sink, when recording (never on the rendezvous
    /// fast path: checked once per syscall, not per wakeup).
    pub trace: Option<TraceSink>,
    /// Set at kernel shutdown; checked lock-free by hot paths
    /// (`charge`, the VM chunk loop) so compute-looping programs
    /// observe destruction.
    pub shutdown: AtomicBool,
    /// Armed fault-injection plan (usually empty; probed once per
    /// syscall prologue, before any charge or trace record).
    pub faults: ArmedFaults,
    /// Parked and busy vehicle threads (taken once per vehicle start
    /// and once per program exit; never on the park/resume path).
    pub pool: Mutex<VehiclePool>,
}

impl Shared {
    /// Resolves a slot cell by id (table lock held only for the clone).
    pub(crate) fn cell(&self, id: SpaceId) -> Arc<SlotCell> {
        Arc::clone(&self.table.lock()[id.0 as usize])
    }

    /// Appends a fresh child slot to the table. `path` is the slot's
    /// deterministic lineage path, derived by the caller under the
    /// parent's slot lock (the table id, by contrast, is an
    /// allocation-order artifact).
    pub(crate) fn new_slot(&self, path: String) -> (SpaceId, Arc<SlotCell>) {
        let cell = SlotCell::new(Slot::new_child(path));
        let mut t = self.table.lock();
        let id = SpaceId(t.len() as u32);
        t.push(Arc::clone(&cell));
        drop(t);
        self.hot.spaces_created.fetch_add(1, Relaxed);
        (id, cell)
    }

    /// Folds a rendezvous's memory-op meters into the hot counters.
    pub(crate) fn fold_counts(&self, counts: &MemOpCounts) {
        self.hot
            .pages_copied
            .fetch_add(counts.pages_copied, Relaxed);
        self.hot
            .pages_snapped
            .fetch_add(counts.pages_snapped, Relaxed);
        self.hot
            .leaves_cloned
            .fetch_add(counts.leaves_cloned, Relaxed);
    }

    /// Records one merge's statistics.
    pub(crate) fn record_merge(&self, s: &MergeStats) {
        let mut acc = self.merge_accum.lock();
        acc.merges += 1;
        acc.totals.accumulate(s);
    }

    /// Pushes a trace event, if recording. Call sites on the
    /// rendezvous path hold the affected child's slot lock, which
    /// linearizes a parent's syscall events against that child's
    /// check-ins exactly as replay will re-derive them.
    pub(crate) fn trace_push(&self, ev: Option<TraceEvent>) {
        if let (Some(sink), Some(ev)) = (self.trace.as_ref(), ev) {
            sink.push(ev);
        }
    }

    /// Checks a stopped space's state into its (locked) slot.
    ///
    /// All rendezvous accounting funnels through here, for both
    /// vehicles: stats count only stops that actually materialized (a
    /// destroyed slot never reaches this point), and resumable stops
    /// are charged the park/handoff cost whichever thread ran them.
    fn check_in_locked(&self, slot: &mut Slot, mut st: Box<SpaceState>, reason: StopReason) {
        match stop_counter(reason) {
            Some(StopCounter::Ret) => {
                self.hot.rets.fetch_add(1, Relaxed);
            }
            Some(StopCounter::Trap) => {
                self.hot.traps.fetch_add(1, Relaxed);
            }
            Some(StopCounter::Limit) => {
                self.hot.limit_preemptions.fetch_add(1, Relaxed);
            }
            None => {}
        }
        check_in_charge(&self.costs, &mut st, reason);
        slot.state = Some(st);
        slot.run = RunState::Idle(reason);
    }

    /// Issues one targeted wakeup (counted; see
    /// [`KernelStats::condvar_wakeups`]).
    fn notify_one(&self, cv: &Condvar) {
        self.hot.condvar_wakeups.fetch_add(1, Relaxed);
        cv.notify_one();
    }

    /// Blocks until the slot is stopped with its state checked in;
    /// returns the guard and the stop reason.
    ///
    /// If the slot is a runnable inline VM space, *this thread* (the
    /// unique waiter) executes it to its next stop — the
    /// zero-context-switch rendezvous. Otherwise it waits on the
    /// slot's `idle_cv`, to be woken by exactly one targeted notify
    /// from the slot's check-in.
    pub(crate) fn wait_idle<'a>(
        &self,
        cell: &'a SlotCell,
        id: SpaceId,
        mut g: MutexGuard<'a, Slot>,
    ) -> Result<(MutexGuard<'a, Slot>, StopReason)> {
        loop {
            match g.run {
                RunState::Idle(r) if g.state.is_some() => return Ok((g, r)),
                RunState::Destroyed => return Err(KernelError::Destroyed),
                RunState::Runnable => {
                    let mut st = g.state.take().expect("runnable slot has state");
                    let mut cpu = g.cpu.take().unwrap_or_default();
                    let tr = g.trace_base.take();
                    g.run = RunState::Running;
                    drop(g);
                    self.hot.vm_inline_runs.fetch_add(1, Relaxed);
                    let (stop, vmc) = vm_execute(self, &mut st, &mut cpu);
                    g = cell.m.lock();
                    match stop {
                        // Shutdown observed mid-run: the state dies
                        // with the kernel.
                        None => return Err(KernelError::Destroyed),
                        Some(reason) => {
                            if matches!(g.run, RunState::Destroyed) {
                                return Err(KernelError::Destroyed);
                            }
                            // Event built pre-charge: replay re-applies
                            // the check-in charge itself.
                            let ev = tr
                                .as_ref()
                                .map(|tr| tr.check_in(id, &st, reason, false, vmc));
                            self.check_in_locked(&mut g, st, reason);
                            g.cpu = Some(cpu);
                            self.trace_push(ev);
                            // No notify: the one waiter is this thread.
                        }
                    }
                }
                _ => {
                    cell.idle_cv.wait(&mut g);
                    if !matches!(g.run, RunState::Idle(_) | RunState::Destroyed) {
                        self.hot.spurious_wakeups.fetch_add(1, Relaxed);
                    }
                }
            }
        }
    }

    /// A running space checks its state in with `reason`, waits for
    /// its parent to restart it, and checks the state back out.
    pub(crate) fn park(
        &self,
        cell: &SlotCell,
        st: Box<SpaceState>,
        reason: StopReason,
        trace_ev: Option<TraceEvent>,
    ) -> Result<Box<SpaceState>> {
        let mut g = cell.m.lock();
        // Destroyed check *before* any accounting: a park raced by
        // destruction is a rendezvous that never happened, and must
        // not drift the replay-comparable stop counters.
        if matches!(g.run, RunState::Destroyed) {
            return Err(KernelError::Destroyed);
        }
        self.check_in_locked(&mut g, st, reason);
        self.trace_push(trace_ev);
        // Exactly one thread can be waiting for this stop: the parent
        // in `wait_idle`.
        self.notify_one(&cell.idle_cv);
        loop {
            match g.run {
                RunState::Running => {
                    if let Some(st) = g.state.take() {
                        return Ok(st);
                    }
                    cell.resume_cv.wait(&mut g);
                }
                RunState::Destroyed => return Err(KernelError::Destroyed),
                _ => {
                    cell.resume_cv.wait(&mut g);
                    if !matches!(g.run, RunState::Running | RunState::Destroyed) {
                        self.hot.spurious_wakeups.fetch_add(1, Relaxed);
                    }
                }
            }
        }
    }

    /// Final check-in of a space whose vehicle is exiting: its program
    /// finished, trapped terminally, or died without state.
    ///
    /// `st: None` (a vehicle dying without state on a live slot) is
    /// checked in as a terminal `Idle(Trap(Panic))` so a parent
    /// blocked in `wait_idle` observes a deterministic trap instead of
    /// hanging forever on a slot stuck in `Running`.
    pub(crate) fn final_check_in(
        &self,
        cell: &SlotCell,
        st: Option<Box<SpaceState>>,
        reason: StopReason,
        trace_ev: Option<TraceEvent>,
    ) {
        let mut g = cell.m.lock();
        if matches!(g.run, RunState::Destroyed) {
            return;
        }
        let reason = final_reason(st.is_some(), reason);
        let st = st.unwrap_or_else(|| Box::new(SpaceState::new()));
        self.check_in_locked(&mut g, st, reason);
        g.terminal = true;
        self.trace_push(trace_ev);
        self.notify_one(&cell.idle_cv);
    }

    /// Starts or resumes an idle child whose state is checked in.
    ///
    /// The caller holds the child's slot lock and has already applied
    /// the rendezvous clock rules; `parent_vclock_ps` stamps the
    /// child's resume time.
    pub(crate) fn start_child(
        self: &Arc<Self>,
        g: &mut MutexGuard<'_, Slot>,
        cell: &Arc<SlotCell>,
        child: SpaceId,
        limit_ns: Option<u64>,
        parent_vclock_ps: u64,
        prior: StopReason,
    ) -> Result<()> {
        if matches!(g.run, RunState::Destroyed)
            || self.shutdown.load(std::sync::atomic::Ordering::SeqCst)
        {
            // Refusing to dispatch under shutdown keeps the join-then-
            // collect teardown exhaustive: every vehicle that exists
            // was visible to the destroy sweep.
            return Err(KernelError::Destroyed);
        }
        stamp_start(
            g.state
                .as_mut()
                .expect("start_child requires checked-in state"),
            parent_vclock_ps,
            limit_ns,
        );
        // The *decision* is the pure core's (`start_action` is also what
        // replay runs); this shell only realizes it with host vehicles.
        let action = start_action(
            g.has_vehicle,
            g.inline_vm,
            g.pending.as_ref().map(Program::kind),
            prior,
            g.terminal,
        )?;
        match action {
            StartAction::RunnableInline => {
                // A leaf VM space: no vehicle of its own. It runs
                // when someone waits for it.
                g.pending = None;
                g.inline_vm = true;
                g.cpu = Some(Box::default());
                g.run = RunState::Runnable;
                self.set_trace_base(g);
            }
            StartAction::Spawn => {
                let Some(Program::Native(entry)) = g.pending.take() else {
                    unreachable!("start_action spawns only a pending native program");
                };
                self.start_vehicle(g, cell, child, entry, spawn_worker);
            }
            StartAction::ResumeInline => {
                g.run = RunState::Runnable;
                self.set_trace_base(g);
            }
            StartAction::ResumeVehicle => {
                g.run = RunState::Running;
                // Exactly one thread can be waiting for this resume:
                // the slot's own parked vehicle.
                self.notify_one(&cell.resume_cv);
            }
        }
        Ok(())
    }

    /// Realizes [`StartAction::Spawn`]: checks the child's state out and
    /// hands its program to a pooled worker — the most recently parked
    /// one, or a new OS thread from `spawn` when none is parked. One
    /// uncounted wake; `threads_spawned` counts the decision either way.
    ///
    /// A new worker is registered in the pool here, under the child's
    /// slot lock, and `start_child` checked the shutdown flag under
    /// that same lock — so `Kernel::run`, which publishes the flag,
    /// then takes every slot lock in its destroy sweep and only then
    /// drains the pool, joins every worker that was ever created, a
    /// `Start` that raced the flag included.
    fn start_vehicle(
        self: &Arc<Self>,
        g: &mut Slot,
        cell: &Arc<SlotCell>,
        child: SpaceId,
        entry: NativeEntry,
        spawn: SpawnWorker,
    ) {
        let st = g.state.take().expect("start_child checked the state in");
        g.run = RunState::Running;
        self.hot.threads_spawned.fetch_add(1, Relaxed);
        let parked = self.pool.lock().idle.pop();
        let worker = match parked {
            Some(w) => w,
            None => {
                let w = Arc::<Worker>::default();
                let Ok(handle) = spawn(Arc::clone(self), Arc::clone(&w)) else {
                    return self.vehicle_refused(g, child);
                };
                self.hot.os_threads_created.fetch_add(1, Relaxed);
                self.pool.lock().workers.push((Arc::clone(&w), handle));
                w
            }
        };
        g.has_vehicle = true;
        let job = Job {
            cell: Arc::clone(cell),
            id: child,
            entry,
            st,
        };
        let unclaimed = worker.mailbox.lock().job.replace(job);
        assert!(unclaimed.is_none(), "a worker off the stack has no job");
        worker.cv.notify_one();
    }

    /// The host refused a vehicle (thread exhaustion, or an injected
    /// allocation fault at the OS layer) for a child whose state was
    /// already checked out. That is the lost-state shape: check the
    /// slot in as a terminal trap so the caller's next wait observes a
    /// deterministic stop instead of a slot stuck in `Running`. No
    /// worker is bound (`has_vehicle` stays clear), so a later `Start`
    /// finds no program rather than waking nobody.
    fn vehicle_refused(&self, g: &mut Slot, child: SpaceId) {
        let reason = final_reason(
            false,
            StopReason::Trap(TrapKind::Fault("vehicle spawn failed")),
        );
        let ev = self
            .trace
            .as_ref()
            .map(|_| lost_state_check_in(child, reason));
        self.check_in_locked(g, Box::new(SpaceState::new()), reason);
        g.terminal = true;
        self.trace_push(ev);
        // No notify: the caller holds this slot's lock and is the
        // unique observer of the stop.
    }

    /// Establishes the trace cursor of a slot just made `Runnable`:
    /// the inline drive that eventually executes it records its
    /// check-in relative to this post-rendezvous image.
    fn set_trace_base(&self, g: &mut MutexGuard<'_, Slot>) {
        if self.trace.is_some() {
            let st = g.state.as_ref().expect("runnable slot has state");
            g.trace_base = Some(TraceCtx::new(st));
        }
    }
}

/// Outcome of a full kernel run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The root program's exit status, or the trap that ended it.
    pub exit: std::result::Result<i32, TrapKind>,
    /// The root space's final virtual clock (nanoseconds): the
    /// virtual-time makespan of the whole computation.
    pub vclock_ns: u64,
    /// Kernel operation counters. Fully deterministic: every field is
    /// a pure function of the kernel-mediated event history.
    pub stats: KernelStats,
    /// Host-scheduling-dependent counters, segregated so `stats` can
    /// be compared across runs without carve-outs.
    pub host: HostStats,
    /// Device output buffers (console, etc.), in canonical device
    /// order.
    pub outputs: BTreeMap<DeviceId, Vec<u8>>,
    /// The recorded nondeterministic-input log (for replay).
    pub io_log: IoLog,
    /// Final per-space artifacts (lineage path, clock, instruction
    /// count, whole-image and per-page memory digests), ascending by
    /// space id with the root first — populated only when a trace sink
    /// is attached, for comparison against
    /// [`crate::ReplayOutcome::spaces`] and across replicas by the
    /// conformance harness.
    pub spaces: Vec<SpaceArtifact>,
    /// Lineage path of *every* space the run created (including spaces
    /// whose final state was not observable), ascending by space id —
    /// populated only when a trace sink is attached. This is the
    /// id→path key for rewriting recorded trace events into
    /// run-invariant form.
    pub space_paths: Vec<(u32, String)>,
}

impl RunOutcome {
    /// The console output bytes.
    pub fn console(&self) -> &[u8] {
        self.outputs
            .get(&DeviceId::ConsoleOut)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The console output as UTF-8 (lossy).
    pub fn console_string(&self) -> String {
        String::from_utf8_lossy(self.console()).into_owned()
    }
}

/// The Determinator kernel.
///
/// Construct one, optionally push device inputs, then [`Kernel::run`]
/// a root program. The root space is the only space with device
/// access; everything else lives in its subtree.
///
/// # Examples
///
/// ```
/// use det_kernel::{Kernel, KernelConfig};
///
/// let outcome = Kernel::new(KernelConfig::default()).run(|ctx| {
///     ctx.charge(1_000)?;
///     Ok(7)
/// });
/// assert_eq!(outcome.exit, Ok(7));
/// assert!(outcome.vclock_ns >= 1_000);
/// ```
pub struct Kernel {
    shared: Arc<Shared>,
}

impl Kernel {
    /// Creates a kernel with the given configuration.
    pub fn new(config: KernelConfig) -> Kernel {
        if let Some(sink) = config.trace.as_ref() {
            sink.set_meta(TraceMeta {
                costs: config.costs,
                policy: config.policy,
            });
        }
        let root = SlotCell::new(Slot::new_child(ROOT_PATH.to_string()));
        Kernel {
            shared: Arc::new(Shared {
                table: Mutex::new(vec![root]),
                devices: Mutex::new(DeviceHub::new(config.io)),
                costs: config.costs,
                policy: config.policy,
                hot: HotStats::default(),
                merge_accum: Mutex::new(MergeAccum::default()),
                trace: config.trace,
                shutdown: AtomicBool::new(false),
                faults: ArmedFaults::new(config.faults),
                pool: Mutex::default(),
            }),
        }
    }

    /// Queues input bytes on a device (host side).
    pub fn push_input(&self, dev: DeviceId, data: impl Into<Vec<u8>>) {
        self.shared.devices.lock().push_input(dev, data.into());
    }

    /// Returns a handle that can push device input while the kernel
    /// runs (e.g., from a host timer thread).
    pub fn input_handle(&self) -> InputHandle {
        InputHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs `root` as the root space on the current thread, then shuts
    /// the space hierarchy down and reports the outcome.
    pub fn run<F>(self, root: F) -> RunOutcome
    where
        F: FnOnce(&mut SpaceCtx) -> NativeResult,
    {
        let root_cell = self.shared.cell(SpaceId::ROOT);
        let st = {
            let mut g = root_cell.m.lock();
            g.run = RunState::Running;
            g.state.take().expect("fresh root state")
        };
        let mut ctx = SpaceCtx::new(Arc::clone(&self.shared), SpaceId::ROOT, root_cell, st);
        let out = catch_unwind(AssertUnwindSafe(|| root(&mut ctx)));
        let exit = match out {
            Ok(Ok(code)) => Ok(code),
            Ok(Err(e)) => Err(e.as_trap()),
            Err(_) => Err(TrapKind::Panic),
        };
        ctx.record_exit(exit);
        let root_st = ctx.into_state();
        let vclock_ns = root_st.as_ref().map(|s| ps_to_ns(s.vclock_ps)).unwrap_or(0);

        // Shutdown: destroy every space, wake parked vehicles, join
        // every pooled worker, and only then collect stats and device
        // output — draining vehicles still bump hot counters on their
        // way out, and collecting first would drop those bumps from
        // the outcome. (The shutdown flag is published before the
        // table snapshot, and `start_child` re-checks it under the
        // child's slot lock, so once this sweep has held every slot
        // lock no vehicle can start and the pool holds every worker
        // there will ever be — see `start_vehicle`.)
        self.shared
            .shutdown
            .store(true, std::sync::atomic::Ordering::SeqCst);
        let cells: Vec<Arc<SlotCell>> = self.shared.table.lock().clone();
        // Final per-space artifacts, for trace-replay comparison and
        // the conformance harness: the root from its just-returned
        // state, every other space from whatever state the destroy
        // sweep finds checked in. Only computed when recording —
        // digesting every space costs real work.
        let tracing = self.shared.trace.is_some();
        let mut spaces: Vec<SpaceArtifact> = Vec::new();
        let mut space_paths: Vec<(u32, String)> = Vec::new();
        for (idx, cell) in cells.iter().enumerate() {
            let mut g = cell.m.lock();
            if tracing {
                space_paths.push((idx as u32, g.path.clone()));
                let st = if idx == 0 {
                    root_st.as_deref()
                } else {
                    g.state.as_deref()
                };
                if let Some(st) = st {
                    spaces.push(SpaceArtifact::of(idx as u32, g.path.clone(), st));
                }
            }
            g.run = RunState::Destroyed;
            g.state = None;
            g.pending = None;
            g.cpu = None;
            drop(g);
            // Broadcast, not targeted: destruction is the one event
            // with arbitrarily many observers (uncounted; see
            // `KernelStats::condvar_wakeups`).
            cell.idle_cv.notify_all();
            cell.resume_cv.notify_all();
        }
        // Every slot is destroyed, so every busy worker is on its way
        // back to its mailbox; tell each to quit (it first runs a job a
        // racing `Start` may have left there) and join it.
        let workers = std::mem::take(&mut *self.shared.pool.lock()).workers;
        for (w, _) in &workers {
            w.mailbox.lock().quit = true;
            w.cv.notify_one();
        }
        for (_, handle) in workers {
            handle
                .join()
                .expect("a vehicle worker panicked outside its program");
        }
        let mut stats = KernelStats::default();
        self.shared.hot.fold_into(&mut stats);
        {
            let acc = self.shared.merge_accum.lock();
            stats.merges = acc.merges;
            stats.merge_totals.0 = acc.totals;
        }
        let devices = std::mem::replace(
            &mut *self.shared.devices.lock(),
            DeviceHub::new(IoMode::Record),
        );
        let (outputs, io_log) = devices.into_parts();
        RunOutcome {
            exit,
            vclock_ns,
            stats,
            host: self.shared.hot.host_stats(),
            outputs,
            io_log,
            spaces,
            space_paths,
        }
    }
}

/// Host-side handle for pushing device input during a run.
#[derive(Clone)]
pub struct InputHandle {
    shared: Arc<Shared>,
}

impl InputHandle {
    /// Queues input bytes on a device.
    pub fn push(&self, dev: DeviceId, data: impl Into<Vec<u8>>) {
        self.shared.devices.lock().push_input(dev, data.into());
    }
}

/// A pooled vehicle thread: runs one native program per job until told
/// to quit.
fn worker_loop(shared: &Arc<Shared>, me: &Arc<Worker>) {
    loop {
        let job = {
            let mut m = me.mailbox.lock();
            loop {
                if let Some(job) = m.job.take() {
                    break job;
                }
                if m.quit {
                    return;
                }
                me.cv.wait(&mut m);
            }
        };
        native_thread(shared, me, job);
    }
}

fn native_thread(shared: &Arc<Shared>, me: &Arc<Worker>, job: Job) {
    let Job {
        cell,
        id,
        entry,
        st,
    } = job;
    let mut ctx = SpaceCtx::new(Arc::clone(shared), id, Arc::clone(&cell), st);
    let out = catch_unwind(AssertUnwindSafe(|| entry(&mut ctx)));
    if ctx.destroyed_by_kernel() {
        // The kernel itself tore this space down (shutdown/destroy):
        // the destroy sweep owns the slot's fate, and checking in here
        // would race it — the stop counters must not depend on which
        // side wins. Nothing starts after shutdown, so the worker does
        // not park either; its next wake is the quit.
        return;
    }
    let (mut st, trace) = ctx.into_parts();
    let reason = match out {
        Ok(Ok(code)) => {
            if let Some(s) = st.as_mut() {
                s.regs.gpr[1] = code as u64;
            }
            StopReason::Halted
        }
        // This includes a *fabricated* `Destroyed` error (the kernel
        // never issued one — see the check above): the slot is live,
        // so the check-in below traps the parent instead of leaving
        // it waiting on a slot stuck in `Running` forever.
        Ok(Err(e)) => StopReason::Trap(e.as_trap()),
        Err(_) => StopReason::Trap(TrapKind::Panic),
    };
    let ev = trace.as_ref().map(|tr| match st.as_deref() {
        Some(s) => tr.check_in(
            id,
            s,
            final_reason(true, reason),
            true,
            VmCounters::default(),
        ),
        None => lost_state_check_in(id, final_reason(false, reason)),
    });
    // Park before the check-in: whoever observes this stop finds the
    // worker already on the stack, so the parent's next `Start` re-arms
    // it instead of creating a thread. A job stored meanwhile waits in
    // the mailbox until `worker_loop` comes back round.
    shared.pool.lock().idle.push(Arc::clone(me));
    // Always check in — even with the state lost (`st: None`), the
    // slot must leave `Running` so a waiting parent observes a
    // deterministic trap rather than deadlocking.
    shared.final_check_in(&cell, st, reason, ev);
}

/// Interprets a VM space's program on the current thread until it
/// stops. Returns the stop reason — or `None` iff kernel shutdown was
/// observed mid-run (the caller unwinds and the state dies with the
/// kernel) — plus this drive's counters, already folded into the hot
/// stats exactly once.
fn vm_execute(
    shared: &Shared,
    st: &mut SpaceState,
    cpu: &mut Cpu,
) -> (Option<StopReason>, VmCounters) {
    let mut vmc = VmCounters::default();
    let stop = vm_execute_inner(shared, st, cpu, &mut vmc);
    shared
        .hot
        .vm_instructions
        .fetch_add(vmc.instructions, Relaxed);
    shared.hot.vm_tlb_hits.fetch_add(vmc.tlb_hits, Relaxed);
    shared
        .hot
        .vm_pages_walked
        .fetch_add(vmc.pages_walked, Relaxed);
    shared
        .hot
        .vm_icache_hits
        .fetch_add(vmc.icache_hits, Relaxed);
    shared
        .hot
        .vm_icache_fills
        .fetch_add(vmc.icache_fills, Relaxed);
    (stop, vmc)
}

fn vm_execute_inner(
    shared: &Shared,
    st: &mut SpaceState,
    cpu: &mut Cpu,
    vmc: &mut VmCounters,
) -> Option<StopReason> {
    let insn_ps = shared.costs.vm_insn_ps.max(1);
    let walk_ps = shared.costs.vm_tlb_fill_ps;
    // Interpret in bounded chunks so unlimited programs still observe
    // kernel shutdown between chunks.
    const CHUNK: u64 = 4_000_000;
    // The CPU's software TLB and decoded-instruction cache stay warm
    // across chunk boundaries, preemptions, and rendezvous (the slot
    // stores the CPU between drives). Parent-side mutations while the
    // state is parked (copy, merge, zero, perm, snap — even a
    // wholesale Tree image replacement) bump the address space's
    // generation or change its identity, so stale entries miss instead
    // of lying. The parent may also have rewritten the registers at
    // the rendezvous (Put with regs), so resync them on entry.
    cpu.regs = st.regs;
    let mut cache_mark = cpu.cache_stats;
    loop {
        let limit_insns = st.limit_ps.map(|ps| ps / insn_ps);
        let this_budget = limit_insns.map_or(CHUNK, |b| b.min(CHUNK));
        let insns_before = cpu.insn_count;
        let exit = cpu.run(&mut st.mem, Some(this_budget));
        let executed = cpu.insn_count - insns_before;
        let cache = cpu.cache_stats.since(&cache_mark);
        cache_mark = cpu.cache_stats;
        st.regs = cpu.regs;
        st.insn_count += executed;
        // Instructions advance the clock at the TLB-hit rate; every
        // page walk (TLB fill or slow-path access) is charged on top.
        // Walk costs hit the clock but not the work limit, preserving
        // the "limit of N ns runs exactly N instructions" contract.
        bill(
            st,
            executed
                .saturating_mul(insn_ps)
                .saturating_add(cache.pages_walked.saturating_mul(walk_ps)),
        );
        if let Some(l) = st.limit_ps.as_mut() {
            *l = l.saturating_sub(executed.saturating_mul(insn_ps));
        }
        vmc.instructions += executed;
        vmc.tlb_hits += cache.tlb_read_hits + cache.tlb_write_hits;
        vmc.pages_walked += cache.pages_walked;
        vmc.icache_hits += cache.icache_hits;
        vmc.icache_fills += cache.icache_fills;
        return Some(match exit {
            VmExit::Halt => StopReason::Halted,
            VmExit::Sys(0) => StopReason::Ret,
            VmExit::Sys(_) => StopReason::Trap(TrapKind::Fault("undefined syscall")),
            VmExit::Trap(t) => StopReason::Trap(t.into()),
            VmExit::OutOfBudget => {
                if shared.shutdown.load(std::sync::atomic::Ordering::Relaxed) {
                    return None;
                }
                match st.limit_ps {
                    // Chunk boundary only: keep interpreting.
                    None => continue,
                    Some(rem) if rem >= insn_ps => continue,
                    // The real work limit is exhausted.
                    Some(_) => StopReason::LimitReached,
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> Arc<Shared> {
        Arc::clone(&Kernel::new(KernelConfig::default()).shared)
    }

    /// Satellite regression: a vehicle dying *without* state on a live
    /// slot must still leave `Running` — checked in as a terminal
    /// deterministic trap — or the waiting parent deadlocks.
    #[test]
    fn final_check_in_without_state_synthesizes_terminal_trap() {
        let sh = shared();
        let (_, cell) = sh.new_slot("/t".to_string());
        {
            let mut g = cell.m.lock();
            g.state = None;
            g.run = RunState::Running;
        }
        sh.final_check_in(&cell, None, StopReason::Halted, None);
        let g = cell.m.lock();
        assert!(matches!(
            g.run,
            RunState::Idle(StopReason::Trap(TrapKind::Panic))
        ));
        assert!(g.state.is_some(), "wait_idle requires checked-in state");
        assert!(g.terminal, "nothing is left to resume");
        assert_eq!(sh.hot.traps.load(Relaxed), 1);
    }

    /// The host refusing a vehicle thread is the lost-state shape seen
    /// from the starter's side: the child's state is already checked
    /// out, so the slot is checked in as a terminal trap — recorded, so
    /// replay agrees — and no worker is bound or registered.
    #[test]
    fn refused_vehicle_is_a_terminal_trap_and_registers_no_worker() {
        let sink = TraceSink::new();
        let config = KernelConfig::builder().trace(sink.clone()).build();
        let sh = Arc::clone(&Kernel::new(config).shared);
        let (id, cell) = sh.new_slot("/t".to_string());
        let mut g = cell.m.lock();
        sh.start_vehicle(&mut g, &cell, id, Box::new(|_| Ok(0)), |_, _| {
            Err(std::io::Error::other("host refused a thread"))
        });
        assert!(matches!(
            g.run,
            RunState::Idle(StopReason::Trap(TrapKind::Fault("vehicle spawn failed")))
        ));
        assert!(g.state.is_some(), "wait_idle requires checked-in state");
        assert!(g.terminal && !g.has_vehicle);
        assert_eq!(sh.hot.traps.load(Relaxed), 1);
        assert_eq!(sh.hot.threads_spawned.load(Relaxed), 1, "the decision");
        assert_eq!(sh.hot.os_threads_created.load(Relaxed), 0, "the host");
        {
            let pool = sh.pool.lock();
            assert!(pool.idle.is_empty() && pool.workers.is_empty());
        }
        // A later `Start` finds no program; it does not wake nobody and
        // leave the slot `Running`.
        let prior = StopReason::Trap(TrapKind::Fault("vehicle spawn failed"));
        assert!(matches!(
            sh.start_child(&mut g, &cell, id, None, 0, prior),
            Err(KernelError::NoProgram)
        ));
        assert!(matches!(g.run, RunState::Idle(_)));
        drop(g);
        let events = sink.collect().expect("meta set by Kernel::new").events;
        assert!(matches!(
            events[..],
            [TraceEvent::CheckIn {
                lost_state: true,
                final_stop: true,
                ..
            }]
        ));
    }

    /// Every pooled worker — idle on the stack, parked in a rendezvous
    /// or mid-program — owns an `Arc<Shared>`, as does each `SpaceCtx`
    /// it runs. `run` returns with all of them joined: the outcome's
    /// `Shared` has no other owner.
    #[test]
    fn run_leaves_no_worker_behind() {
        use crate::syscall::{GetSpec, PutSpec};
        let kernel = Kernel::new(KernelConfig::default());
        let shared = Arc::clone(&kernel.shared);
        let out = kernel.run(|ctx| {
            let idle = Program::native(|_| Ok(0));
            ctx.put(0, PutSpec::new().program(idle).start())?;
            ctx.get(0, GetSpec::new())?;
            let parked = Program::native(|c| c.ret(0).map(|()| 0));
            ctx.put(1, PutSpec::new().program(parked).start())?;
            ctx.get(1, GetSpec::new())?;
            let looping = Program::native(|c| {
                loop {
                    c.charge(1)?;
                    std::thread::yield_now();
                }
            });
            ctx.put(2, PutSpec::new().program(looping).start())?;
            Ok(0)
        });
        assert_eq!(out.exit, Ok(0));
        assert_eq!(out.host.os_threads_created, 2);
        assert_eq!(Arc::strong_count(&shared), 1);
        assert!(shared.pool.lock().workers.is_empty());
    }

    /// Satellite regression: a park raced by destruction must count
    /// nothing — the stop never materialized as a rendezvous, and
    /// replay-comparable counters must not drift.
    #[test]
    fn park_after_destroy_counts_nothing() {
        let sh = shared();
        let (_, cell) = sh.new_slot("/t".to_string());
        {
            let mut g = cell.m.lock();
            g.state = None;
            g.run = RunState::Destroyed;
        }
        let st = Box::new(SpaceState::new());
        assert!(matches!(
            sh.park(&cell, st, StopReason::Ret, None),
            Err(KernelError::Destroyed)
        ));
        assert_eq!(sh.hot.rets.load(Relaxed), 0);
        assert_eq!(sh.hot.condvar_wakeups.load(Relaxed), 0);
    }

    /// Same drift rule for the final check-in of a destroyed slot.
    #[test]
    fn final_check_in_on_destroyed_slot_is_noop() {
        let sh = shared();
        let (_, cell) = sh.new_slot("/t".to_string());
        {
            let mut g = cell.m.lock();
            g.state = None;
            g.run = RunState::Destroyed;
        }
        sh.final_check_in(
            &cell,
            Some(Box::new(SpaceState::new())),
            StopReason::Trap(TrapKind::Panic),
            None,
        );
        let g = cell.m.lock();
        assert!(matches!(g.run, RunState::Destroyed));
        assert!(g.state.is_none());
        assert_eq!(sh.hot.traps.load(Relaxed), 0);
    }

    /// A successful check-in charges the calibrated rendezvous park
    /// cost exactly once, for resumable stops only.
    #[test]
    fn check_in_charges_rendezvous_cost() {
        let sh = shared();
        let (_, cell) = sh.new_slot("/t".to_string());
        {
            let mut g = cell.m.lock();
            let st = g.state.take().expect("fresh slot");
            g.run = RunState::Running;
            sh.check_in_locked(&mut g, st, StopReason::Ret);
            assert_eq!(g.state.as_ref().unwrap().vclock_ps, sh.costs.rendezvous_ps);
            let st = g.state.take().expect("checked in");
            g.run = RunState::Running;
            sh.check_in_locked(&mut g, st, StopReason::Halted);
            // Halting is final: no park, no park cost.
            assert_eq!(g.state.as_ref().unwrap().vclock_ps, sh.costs.rendezvous_ps);
        }
        assert_eq!(sh.hot.rets.load(Relaxed), 1);
    }
}
