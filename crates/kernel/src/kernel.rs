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

use det_vm::{Cpu, VmExit};

use crate::apply::{StartAction, TraceEvent, VmCounters, bill, check_in, count_space, start};
use crate::cost::{CostModel, ps_to_ns};
use crate::ctx::SpaceCtx;
use crate::device::{DeviceHub, DeviceId, IoLog, IoMode};
use crate::error::{KernelError, Result, TrapKind};
use crate::fault::{ArmedFaults, FaultPlan};
use crate::ids::{ChildNum, SpaceId};
use crate::program::{NativeEntry, NativeResult};
use crate::state::{KSlot, ROOT_PATH, TraceCtx};
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
    /// use det_kernel::{IoLog, IoMode, KernelConfig};
    /// let cfg = KernelConfig::builder()
    ///     .io(IoMode::Replay(IoLog::default()))
    ///     .build();
    /// assert!(matches!(cfg.io, IoMode::Replay(_)));
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

/// One space's slot: its record — the same [`KSlot`] trace replay
/// steps, updated through the same arms of the pure core — plus what
/// only the host has.
pub(crate) struct Slot {
    pub k: KSlot,
    /// The closure of the installed-but-unstarted native program
    /// (`k.pending` holds its kind). A `Spawn` hands it to a pooled
    /// worker; the worker itself belongs to the [`VehiclePool`], never
    /// to the slot.
    pub native: Option<NativeEntry>,
    /// The cell of each child in `k.children`, by space id, so
    /// rendezvous resolution is one (uncontended) lock of the parent's
    /// own slot — never a walk of the kernel-global space table — and
    /// `Tree` copies that rebind a child are authoritative immediately.
    cells: BTreeMap<u32, Arc<SlotCell>>,
    /// Warm CPU (software TLB + decoded-instruction cache) of an
    /// inline VM space, preserved across stops and resumes.
    pub cpu: Option<Box<Cpu>>,
    /// Trace cursor for an inline VM slot, established whenever the
    /// slot becomes `Runnable` (its vehicle-less equivalent of the
    /// thread-local cursor a dedicated vehicle carries). Taken by the
    /// thread that drives the slot.
    pub trace_base: Option<TraceCtx>,
    /// This slot's share of the run's [`KernelStats`]: every event
    /// recorded under this slot's lock (a rendezvous with it, its own
    /// check-ins and its creation) is counted here, under that lock,
    /// by the pure core's `count_*` functions. `Kernel::run` sums the
    /// slots once every vehicle is joined.
    pub stats: KernelStats,
}

impl Slot {
    fn new(k: KSlot) -> Slot {
        Slot {
            k,
            native: None,
            cells: BTreeMap::new(),
            cpu: None,
            trace_base: None,
            stats: KernelStats::default(),
        }
    }

    /// What the pure core's arms step: the record, and this slot's stats
    /// that its events count on.
    pub(crate) fn core(&mut self) -> (&mut KSlot, &mut KernelStats) {
        (&mut self.k, &mut self.stats)
    }

    /// The child bound at `child`, with its cell.
    pub(crate) fn child(&self, child: ChildNum) -> Option<(SpaceId, Arc<SlotCell>)> {
        let id = *self.k.children.get(&child)?;
        Some((SpaceId(id), Arc::clone(&self.cells[&id])))
    }

    /// Every child, in child-number order.
    pub(crate) fn children(&self) -> Vec<(ChildNum, SpaceId, Arc<SlotCell>)> {
        let kids = self.k.children.iter();
        let kid = |(&num, &id): (&ChildNum, &u32)| (num, SpaceId(id), Arc::clone(&self.cells[&id]));
        kids.map(kid).collect()
    }

    /// Binds `child` to a new space and caches its cell (a `Tree` copy
    /// rebinding a number drops the cell it replaces).
    pub(crate) fn bind(&mut self, child: ChildNum, id: SpaceId, cell: &Arc<SlotCell>) {
        if let Some(old) = self.k.children.insert(child, id.0) {
            self.cells.remove(&old);
        }
        self.cells.insert(id.0, Arc::clone(cell));
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

/// Creates the OS thread behind a new worker: [`spawn_worker`], except
/// where a test stores one that makes the host refuse.
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

pub(crate) struct Shared {
    /// The space table: append-only; the lock covers growth and
    /// enumeration only. Rendezvous never touches it — each syscall
    /// resolves its child's [`SlotCell`] once and caches the `Arc`.
    pub table: Mutex<Vec<Arc<SlotCell>>>,
    /// Device hub (root-only I/O; never on the rendezvous path).
    pub devices: Mutex<DeviceHub>,
    pub costs: CostModel,
    /// The two [`HostStats`] counters, bumped without any lock: wake
    /// races and which `Start` finds a worker parked are host timing,
    /// so they are never [`KernelStats`] (whose counts live in the
    /// slots).
    pub spurious_wakeups: AtomicU64,
    pub os_threads_created: AtomicU64,
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
    /// How `start_vehicle` creates a worker's OS thread. Always
    /// [`spawn_worker`]: only this module's tests swap it.
    pub spawn: SpawnWorker,
}

impl Shared {
    /// Resolves a slot cell by id (table lock held only for the clone).
    pub(crate) fn cell(&self, id: SpaceId) -> Arc<SlotCell> {
        Arc::clone(&self.table.lock()[id.0 as usize])
    }

    /// Appends a fresh child slot to the table. `k` is its record,
    /// derived by the caller under the parent's slot lock
    /// ([`KSlot::child_of`]; the table id, by contrast, is an
    /// allocation-order artifact).
    pub(crate) fn new_slot(&self, k: KSlot) -> (SpaceId, Arc<SlotCell>) {
        let mut slot = Slot::new(k);
        count_space(&mut slot.stats);
        let cell = SlotCell::new(slot);
        let mut t = self.table.lock();
        let id = SpaceId(t.len() as u32);
        t.push(Arc::clone(&cell));
        (id, cell)
    }

    /// Pushes a trace event, if recording. Call sites on the
    /// rendezvous path hold the affected child's slot lock, which
    /// linearizes a parent's syscall events against that child's
    /// check-ins exactly as replay will re-derive them.
    pub(crate) fn trace_push(&self, ev: Option<Box<TraceEvent>>) {
        if let (Some(sink), Some(ev)) = (self.trace.as_ref(), ev) {
            sink.push(*ev);
        }
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
            match g.k.run {
                RunState::Idle(r) if g.k.state.is_some() => return Ok((g, r)),
                RunState::Destroyed => return Err(KernelError::Destroyed),
                RunState::Runnable => {
                    let mut st = g.k.state.take().expect("runnable slot has state");
                    let mut cpu = g.cpu.take().unwrap_or_default();
                    let tr = g.trace_base.take();
                    g.k.run = RunState::Running;
                    drop(g);
                    let mut vmc = VmCounters::default();
                    let stop = vm_execute(self, &mut st, &mut cpu, &mut vmc);
                    g = cell.m.lock();
                    // Shutdown observed mid-run, or the slot destroyed
                    // since: the state dies with the kernel.
                    let destroyed = matches!(g.k.run, RunState::Destroyed);
                    let Some(reason) = stop.filter(|_| !destroyed) else {
                        return Err(KernelError::Destroyed);
                    };
                    let window = (Some(st), tr.as_ref());
                    let ev = check_in(
                        &self.costs,
                        id.index(),
                        g.core(),
                        window,
                        reason,
                        false,
                        &vmc,
                    );
                    g.cpu = Some(cpu);
                    self.trace_push(ev);
                    // No notify: the one waiter is this thread.
                }
                _ => {
                    cell.idle_cv.wait(&mut g);
                    if !matches!(g.k.run, RunState::Idle(_) | RunState::Destroyed) {
                        self.spurious_wakeups.fetch_add(1, Relaxed);
                    }
                }
            }
        }
    }

    /// A running space checks its state in with `reason` (recording its
    /// window when it has a `cursor`), waits for its parent to restart
    /// it, and checks the state back out.
    pub(crate) fn park(
        &self,
        cell: &SlotCell,
        id: SpaceId,
        st: Box<SpaceState>,
        reason: StopReason,
        cursor: Option<&TraceCtx>,
    ) -> Result<Box<SpaceState>> {
        let Some(mut g) = self.stop(cell, id, (Some(st), cursor), reason, false) else {
            return Err(KernelError::Destroyed);
        };
        loop {
            match g.k.run {
                RunState::Running => {
                    if let Some(st) = g.k.state.take() {
                        return Ok(st);
                    }
                    cell.resume_cv.wait(&mut g);
                }
                RunState::Destroyed => return Err(KernelError::Destroyed),
                _ => {
                    cell.resume_cv.wait(&mut g);
                    if !matches!(g.k.run, RunState::Running | RunState::Destroyed) {
                        self.spurious_wakeups.fetch_add(1, Relaxed);
                    }
                }
            }
        }
    }

    /// Final check-in of a space whose vehicle is exiting: its program
    /// finished, trapped terminally, or died without state.
    ///
    /// `st: None` (a vehicle dying without state on a live slot) is
    /// checked in by the `check_in` arm as a terminal trap, so a parent
    /// blocked in `wait_idle` observes a deterministic stop instead of
    /// hanging forever on a slot stuck in `Running`.
    pub(crate) fn final_check_in(
        &self,
        cell: &SlotCell,
        id: SpaceId,
        st: Option<Box<SpaceState>>,
        reason: StopReason,
        cursor: Option<&TraceCtx>,
    ) {
        self.stop(cell, id, (st, cursor), reason, true);
    }

    /// A running space stops: the `check_in` arm checks its state in,
    /// the event is recorded, and the one thread that can be waiting for
    /// the stop — the parent, in `wait_idle` — is woken. Returns the
    /// slot's guard, or `None` if the slot was destroyed: a stop raced by
    /// destruction is a rendezvous that never happened, and is checked
    /// *before* any accounting so it cannot drift the replay-comparable
    /// stop counters.
    fn stop<'a>(
        &self,
        cell: &'a SlotCell,
        id: SpaceId,
        window: (Option<Box<SpaceState>>, Option<&TraceCtx>),
        reason: StopReason,
        final_stop: bool,
    ) -> Option<MutexGuard<'a, Slot>> {
        let mut g = cell.m.lock();
        if matches!(g.k.run, RunState::Destroyed) {
            return None;
        }
        let vm = VmCounters::default();
        let ev = check_in(
            &self.costs,
            id.index(),
            g.core(),
            window,
            reason,
            final_stop,
            &vm,
        );
        self.trace_push(ev);
        cell.idle_cv.notify_one();
        Some(g)
    }

    /// Starts or resumes an idle child whose state is checked in.
    ///
    /// The caller holds the child's slot lock and has already applied
    /// the rendezvous clock rules; `parent_vclock_ps` stamps the
    /// child's resume time. The pure core's `start` arm — the one
    /// replay runs — decides, counts and moves the child's record; this
    /// shell only realizes the decision with host vehicles. Returns the
    /// check-in of a vehicle the host refused, which the caller records
    /// *after* the `Put` that started it, as replay must apply them.
    pub(crate) fn start_child(
        self: &Arc<Self>,
        g: &mut MutexGuard<'_, Slot>,
        cell: &Arc<SlotCell>,
        child: SpaceId,
        limit_ns: Option<u64>,
        parent_vclock_ps: u64,
        prior: StopReason,
    ) -> Result<Option<Box<TraceEvent>>> {
        if matches!(g.k.run, RunState::Destroyed)
            || self.shutdown.load(std::sync::atomic::Ordering::SeqCst)
        {
            // Refusing to dispatch under shutdown keeps the join-then-
            // collect teardown exhaustive: every vehicle that exists
            // was visible to the destroy sweep.
            return Err(KernelError::Destroyed);
        }
        let s = &mut **g;
        match start(s.core(), parent_vclock_ps, limit_ns, prior)? {
            StartAction::RunnableInline => {
                // A leaf VM space: no vehicle of its own. It runs
                // when someone waits for it.
                s.cpu = Some(Box::default());
                self.set_trace_base(s);
            }
            StartAction::Spawn => {
                let entry = s.native.take().expect("a native program is pending");
                return Ok(self.start_vehicle(s, cell, child, entry));
            }
            StartAction::ResumeInline => self.set_trace_base(s),
            // Exactly one thread can be waiting for this resume: the
            // slot's own parked vehicle.
            StartAction::ResumeVehicle => cell.resume_cv.notify_one(),
        }
        Ok(None)
    }

    /// Realizes [`StartAction::Spawn`]: checks the child's state out and
    /// hands its program to a pooled worker — the most recently parked
    /// one, or a new OS thread from `self.spawn` when none is parked. One
    /// uncounted wake; `threads_spawned` counts the decision either way
    /// (in the `start` arm). Returns a refused vehicle's check-in event.
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
    ) -> Option<Box<TraceEvent>> {
        let st = g.k.state.take().expect("start_child checked the state in");
        let parked = self.pool.lock().idle.pop();
        let worker = match parked {
            Some(w) => w,
            None => {
                let w = Arc::<Worker>::default();
                let Ok(handle) = (self.spawn)(Arc::clone(self), Arc::clone(&w)) else {
                    return self.vehicle_refused(g, child);
                };
                self.os_threads_created.fetch_add(1, Relaxed);
                self.pool.lock().workers.push((Arc::clone(&w), handle));
                w
            }
        };
        let job = Job {
            cell: Arc::clone(cell),
            id: child,
            entry,
            st,
        };
        let unclaimed = worker.mailbox.lock().job.replace(job);
        assert!(unclaimed.is_none(), "a worker off the stack has no job");
        worker.cv.notify_one();
        None
    }

    /// The host refused a vehicle (thread exhaustion, or an injected
    /// allocation fault at the OS layer) for a child whose state was
    /// already checked out. That is the lost-state shape: the slot is
    /// checked in through the `check_in` arm with no state, so the
    /// caller's next wait observes a deterministic stop instead of a
    /// slot stuck in `Running`, and `terminal` makes a later `Start`
    /// find no program rather than wake nobody. The record keeps
    /// `has_vehicle`, as replay does: it is the `Spawn` decision, not a
    /// worker. Returns the check-in event for the caller to record after
    /// its `Put`.
    fn vehicle_refused(&self, g: &mut Slot, child: SpaceId) -> Option<Box<TraceEvent>> {
        // No notify: the caller holds this slot's lock and is the
        // unique observer of the stop.
        let reason = StopReason::Trap(TrapKind::Fault("vehicle spawn failed"));
        let vm = VmCounters::default();
        check_in(
            &self.costs,
            child.index(),
            g.core(),
            (None, None),
            reason,
            true,
            &vm,
        )
    }

    /// Establishes the trace cursor of a slot just made `Runnable`:
    /// the inline drive that eventually executes it records its
    /// check-in relative to this post-rendezvous image.
    fn set_trace_base(&self, g: &mut Slot) {
        if self.trace.is_some() {
            let st = g.k.state.as_ref().expect("runnable slot has state");
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
            });
        }
        let root = SlotCell::new(Slot::new(KSlot::new(ROOT_PATH.to_string())));
        Kernel {
            shared: Arc::new(Shared {
                table: Mutex::new(vec![root]),
                devices: Mutex::new(DeviceHub::new(config.io)),
                costs: config.costs,
                spurious_wakeups: AtomicU64::default(),
                os_threads_created: AtomicU64::default(),
                trace: config.trace,
                shutdown: AtomicBool::new(false),
                faults: ArmedFaults::new(config.faults),
                pool: Mutex::default(),
                spawn: spawn_worker,
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
            g.k.run = RunState::Running;
            g.k.state.take().expect("fresh root state")
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
        // output — draining vehicles still count into their slots on
        // their way out (and may append a slot), and collecting first
        // would drop those counts from the outcome. (The shutdown flag is published before the
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
        // sweep finds checked in. Only computed when recording: it is
        // one pass over every mapped page, 5.6 µs per page of data on a
        // 2-core 2 GHz Xeon guest and 0.04 µs per page still on the
        // zero frame (DESIGN.md §8), work an untraced run has no use
        // for.
        let tracing = self.shared.trace.is_some();
        let mut spaces: Vec<SpaceArtifact> = Vec::new();
        let mut space_paths: Vec<(u32, String)> = Vec::new();
        for (idx, cell) in cells.iter().enumerate() {
            let mut g = cell.m.lock();
            if tracing {
                space_paths.push((idx as u32, g.k.path.clone()));
                let st = if idx == 0 {
                    root_st.as_deref()
                } else {
                    g.k.state.as_deref()
                };
                if let Some(st) = st {
                    spaces.push(SpaceArtifact::of(idx as u32, g.k.path.clone(), st));
                }
            }
            g.k.run = RunState::Destroyed;
            g.k.state = None;
            g.native = None;
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
        // Re-read the table: a draining vehicle may have appended a slot.
        let mut stats = KernelStats::default();
        let cells = self.shared.table.lock().clone();
        for cell in cells {
            stats.accumulate(&cell.m.lock().stats);
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
            host: HostStats {
                spurious_wakeups: self.shared.spurious_wakeups.load(Relaxed),
                os_threads_created: self.shared.os_threads_created.load(Relaxed),
            },
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
    // Park before the check-in: whoever observes this stop finds the
    // worker already on the stack, so the parent's next `Start` re-arms
    // it instead of creating a thread. A job stored meanwhile waits in
    // the mailbox until `worker_loop` comes back round.
    shared.pool.lock().idle.push(Arc::clone(me));
    // Always check in — even with the state lost (`st: None`), the
    // slot must leave `Running` so a waiting parent observes a
    // deterministic trap rather than deadlocking.
    shared.final_check_in(&cell, id, st, reason, trace.as_ref());
}

/// Interprets a VM space's program on the current thread until it
/// stops, adding this drive's counters to `vmc`. Returns the stop
/// reason — or `None` iff kernel shutdown was observed mid-run (the
/// caller unwinds and the state dies with the kernel). The counters are
/// counted by the check-in that records them, or not at all.
fn vm_execute(
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
    use crate::program::Program;
    use crate::state::{KState, ProgramKind};

    fn shared() -> Arc<Shared> {
        Arc::clone(&Kernel::new(KernelConfig::default()).shared)
    }

    /// A kernel whose host refuses every new vehicle thread.
    fn refusing_kernel(config: KernelConfig) -> Kernel {
        let mut kernel = Kernel::new(config);
        Arc::get_mut(&mut kernel.shared)
            .expect("a new kernel's state is unshared")
            .spawn = |_, _| Err(std::io::Error::other("host refused a thread"));
        kernel
    }

    /// What a fresh slot's stats hold: its own creation.
    fn created_only() -> KernelStats {
        KernelStats {
            spaces_created: 1,
            ..KernelStats::default()
        }
    }

    /// Satellite regression: a vehicle dying *without* state on a live
    /// slot must still leave `Running` — checked in as a terminal
    /// deterministic trap — or the waiting parent deadlocks.
    #[test]
    fn final_check_in_without_state_synthesizes_terminal_trap() {
        let sh = shared();
        let (id, cell) = sh.new_slot(KSlot::new("/t".to_string()));
        {
            let mut g = cell.m.lock();
            g.k.state = None;
            g.k.run = RunState::Running;
        }
        sh.final_check_in(&cell, id, None, StopReason::Halted, None);
        let g = cell.m.lock();
        assert!(matches!(
            g.k.run,
            RunState::Idle(StopReason::Trap(TrapKind::Panic))
        ));
        assert!(g.k.state.is_some(), "wait_idle requires checked-in state");
        assert!(g.k.terminal, "nothing is left to resume");
        assert_eq!((g.stats.traps, g.stats.condvar_wakeups), (1, 1));
    }

    /// The host refusing a vehicle thread is the lost-state shape seen
    /// from the starter's side: the child's state is already checked
    /// out, so the slot is checked in as a terminal trap, and no worker
    /// is bound or registered. The check-in event goes back to the
    /// caller, which records it after its `Put`
    /// (`a_refused_vehicle_replays_to_the_live_outcome` replays it).
    #[test]
    fn refused_vehicle_is_a_terminal_trap_and_registers_no_worker() {
        let sink = TraceSink::new();
        let kernel = refusing_kernel(KernelConfig::builder().trace(sink.clone()).build());
        let sh = Arc::clone(&kernel.shared);
        let (id, cell) = sh.new_slot(KSlot::new("/t".to_string()));
        let mut g = cell.m.lock();
        g.k.pending = Some(ProgramKind::Native);
        g.native = Some(Box::new(|_| Ok(0)));
        let refused = sh.start_child(&mut g, &cell, id, None, 0, StopReason::Unstarted);
        assert!(matches!(
            refused.as_ref().map(|ev| ev.as_deref()),
            Ok(Some(TraceEvent::CheckIn {
                lost_state: true,
                final_stop: true,
                ..
            }))
        ));
        assert!(matches!(
            g.k.run,
            RunState::Idle(StopReason::Trap(TrapKind::Fault("vehicle spawn failed")))
        ));
        assert!(g.k.state.is_some(), "wait_idle requires checked-in state");
        assert!(g.k.terminal);
        assert_eq!(g.stats.traps, 1);
        assert_eq!(g.stats.threads_spawned, 1, "the decision");
        assert_eq!(
            g.stats.condvar_wakeups, 1,
            "a check-in, as replay counts it"
        );
        assert_eq!(sh.os_threads_created.load(Relaxed), 0, "the host");
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
        assert!(matches!(g.k.run, RunState::Idle(_)));
        drop(g);
        assert!(sink.is_empty(), "the caller records the check-in");
    }

    /// A whole traced run in which the host refuses the vehicle: the
    /// refused check-in is recorded after the `Put` that started it, so
    /// the trace replays, and replay reproduces the exit, the clock,
    /// every counter and every space.
    #[test]
    fn a_refused_vehicle_replays_to_the_live_outcome() {
        use crate::syscall::{CopySpec, GetSpec, PutSpec};
        use det_memory::{Perm, Region};
        let sink = TraceSink::new();
        let kernel = refusing_kernel(KernelConfig::builder().trace(sink.clone()).build());
        let out = kernel.run(|ctx| {
            let shared = Region::new(0x1000, 0x3000);
            ctx.mem_mut().map_zero(shared, Perm::RW)?;
            ctx.mem_mut().write_u64(0x1000, 42)?;
            let child = Program::native(|c| {
                c.mem_mut().write_u64(0x1000, 1)?;
                Ok(0)
            });
            let put = PutSpec::new().program(child).copy(CopySpec::mirror(shared));
            ctx.put(0, put.snap().start())?;
            let got = ctx.get(0, GetSpec::new())?;
            let refused = StopReason::Trap(TrapKind::Fault("vehicle spawn failed"));
            ctx.dev_write(DeviceId::ConsoleOut, &[u8::from(got.stop == refused)])?;
            Ok(7)
        });
        assert_eq!(out.exit, Ok(7));
        assert_eq!(out.outputs[&DeviceId::ConsoleOut], [1]);
        assert_eq!(
            (out.stats.threads_spawned, out.host.os_threads_created),
            (1, 0)
        );
        assert_eq!((out.stats.traps, out.stats.condvar_wakeups), (1, 1));
        assert_eq!(out.stats.pages_copied, 2);
        let trace = sink.collect().expect("meta set by Kernel::new");
        assert!(matches!(
            trace.events[..],
            [
                TraceEvent::Put { .. },
                TraceEvent::CheckIn {
                    lost_state: true,
                    ..
                },
                TraceEvent::Get { .. },
                TraceEvent::DevWrite { .. },
                TraceEvent::RootExit { .. },
            ]
        ));
        let rep = trace.replay().expect("the refused run replays");
        assert_eq!(rep.exit, out.exit);
        assert_eq!(rep.vclock_ns, out.vclock_ns);
        assert_eq!(rep.stats, out.stats);
        assert_eq!(rep.outputs, out.outputs);
        assert_eq!(rep.spaces, out.spaces);
        assert_eq!(rep.space_paths, out.space_paths);
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
        let (id, cell) = sh.new_slot(KSlot::new("/t".to_string()));
        {
            let mut g = cell.m.lock();
            g.k.state = None;
            g.k.run = RunState::Destroyed;
        }
        let st = Box::new(SpaceState::new());
        assert!(matches!(
            sh.park(&cell, id, st, StopReason::Ret, None),
            Err(KernelError::Destroyed)
        ));
        assert_eq!(cell.m.lock().stats, created_only());
    }

    /// Same drift rule for the final check-in of a destroyed slot.
    #[test]
    fn final_check_in_on_destroyed_slot_is_noop() {
        let sh = shared();
        let (id, cell) = sh.new_slot(KSlot::new("/t".to_string()));
        {
            let mut g = cell.m.lock();
            g.k.state = None;
            g.k.run = RunState::Destroyed;
        }
        sh.final_check_in(
            &cell,
            id,
            Some(Box::new(SpaceState::new())),
            StopReason::Trap(TrapKind::Panic),
            None,
        );
        let g = cell.m.lock();
        assert!(matches!(g.k.run, RunState::Destroyed));
        assert!(g.k.state.is_none());
        assert_eq!(g.stats, created_only());
    }

    /// One space's record as `live_slots_are_the_replayed_slots`
    /// compares it: every field but the state itself, and whether the
    /// state is checked in (unless the space is the running root, whose
    /// state is out in its `SpaceCtx`).
    fn record(k: &KSlot, with_state: bool) -> String {
        let state_in = with_state.then_some(k.state.is_some());
        format!(
            "{} children {:?} gens {:?} {:?} pending {:?} vehicle {} inline {} terminal {} state-in {:?}",
            k.path,
            k.children,
            k.child_gens,
            k.run,
            k.pending,
            k.has_vehicle,
            k.inline_vm,
            k.terminal,
            state_in
        )
    }

    /// Runs `root` traced on `kernel` and, once it has quiesced, holds
    /// every live slot's record to the record trace replay folds from
    /// the events recorded so far: the shell and replay step one record
    /// through the same arms, so they agree field by field.
    fn assert_live_slots_are_replayed(
        kernel: Kernel,
        sink: &TraceSink,
        root: impl FnOnce(&mut SpaceCtx) -> Result<()>,
    ) {
        let shared = Arc::clone(&kernel.shared);
        let mut live = BTreeMap::new();
        let out = kernel.run(|ctx| {
            root(ctx)?;
            for (id, cell) in shared.table.lock().iter().enumerate() {
                live.insert(id as u32, record(&cell.m.lock().k, id != 0));
            }
            Ok(0)
        });
        assert_eq!(out.exit, Ok(0));
        let trace = sink.collect().expect("meta set by Kernel::new");
        let mut ks = KState::new(trace.meta.costs);
        for ev in &trace.events {
            if !matches!(ev, TraceEvent::RootExit { .. }) {
                crate::apply::apply(&mut ks, ev).expect("the trace replays");
            }
        }
        let replayed: BTreeMap<u32, String> = (ks.slots.iter())
            .map(|(&id, k)| (id, record(k, id != 0)))
            .collect();
        assert_eq!(live, replayed);
    }

    #[test]
    fn live_slots_are_the_replayed_slots() {
        use crate::syscall::{CopySpec, GetSpec, PutSpec};
        use det_memory::{Perm, Region};
        use det_vm::Regs;
        let image = det_vm::assemble("ldi r1, 5\nsys 0\naddi r1, r1, 1\nhalt\n")
            .expect("the program assembles");
        let code = Region::new(0, 0x1000);
        let sink = TraceSink::new();
        let kernel = Kernel::new(KernelConfig::builder().trace(sink.clone()).build());
        assert_live_slots_are_replayed(kernel, &sink, |ctx| {
            ctx.mem_mut().map_zero(code, Perm::RW)?;
            ctx.mem_mut().write(0, &image.bytes)?;
            let vm = || {
                PutSpec::new()
                    .program(Program::Vm)
                    .copy(CopySpec::mirror(code))
                    .regs(Regs::at_entry(0))
                    .start()
            };
            // A VM start, and an inline resume to its halt.
            ctx.put(0, vm())?;
            assert_eq!(ctx.get(0, GetSpec::new())?.stop, StopReason::Ret);
            ctx.put(0, PutSpec::new().start())?;
            assert_eq!(ctx.get(0, GetSpec::new())?.stop, StopReason::Halted);
            // A parked native resume, to its final check-in.
            let parks = Program::native(|c| c.ret(1).map(|()| 2));
            ctx.put(1, PutSpec::new().program(parks).start())?;
            assert_eq!(ctx.get(1, GetSpec::new())?.stop, StopReason::Ret);
            ctx.put(1, PutSpec::new().start())?;
            assert_eq!(ctx.get(1, GetSpec::new())?.stop, StopReason::Halted);
            // A `Tree` copy of a subtree with a grandchild.
            let forks = Program::native(|c| {
                c.put(9, PutSpec::new().zero(Region::new(0x4000, 0x5000)))?;
                Ok(0)
            });
            ctx.put(2, PutSpec::new().program(forks).start())?;
            ctx.get(2, GetSpec::new())?;
            ctx.put(3, PutSpec::new().tree_from(2))?;
            assert_eq!(ctx.get(3, GetSpec::new())?.stop, StopReason::Unstarted);
            // `Replace` over the finished VM child (with a native
            // program) and over the finished native child (with a VM
            // program).
            ctx.put(
                0,
                PutSpec::new().program(Program::native(|_| Ok(3))).start(),
            )?;
            assert_eq!(ctx.get(0, GetSpec::new())?.code, 3);
            ctx.put(1, vm())?;
            assert_eq!(ctx.get(1, GetSpec::new())?.stop, StopReason::Ret);
            Ok(())
        });

        // A vehicle the host refuses.
        let sink = TraceSink::new();
        let kernel = refusing_kernel(KernelConfig::builder().trace(sink.clone()).build());
        assert_live_slots_are_replayed(kernel, &sink, |ctx| {
            ctx.put(
                0,
                PutSpec::new().program(Program::native(|_| Ok(0))).start(),
            )?;
            let refused = StopReason::Trap(TrapKind::Fault("vehicle spawn failed"));
            assert_eq!(ctx.get(0, GetSpec::new())?.stop, refused);
            Ok(())
        });
    }
}
