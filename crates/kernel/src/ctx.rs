//! The capability handle through which a space's program acts.
//!
//! A [`SpaceCtx`] is the *entire* interface between user code and the
//! world: private registers and memory, the system calls, a
//! virtual-time charge meter, and (for the root space only) device
//! access. This is the enforcement boundary of §3.1 — native programs
//! hold no other handles, and VM programs cannot even express anything
//! else.
//!
//! Rendezvous syscalls resolve their child through the space's own
//! children map, which stores each child's slot cell alongside its id
//! ([`crate::kernel::ChildRef`]) — one uncontended lock of the
//! caller's own slot, never a walk of the kernel-global space table
//! (DESIGN.md §6).

use std::sync::Arc;

use parking_lot::MutexGuard;

use det_memory::{AddressSpace, Region};
use det_vm::Regs;

use crate::apply::{
    EntryRec, InstallAction, MemOpCounts, PutRec, TraceEvent, VmCounters, bill, charge,
    get_options, put_after_tree, put_before_tree, tree_source,
};
use crate::cost::{ns_to_ps, ps_to_ns};
use crate::device::DeviceId;
use crate::error::{KernelError, Result, TrapKind};
use crate::fault::{FaultAction, FaultSite};
use crate::ids::{ChildNum, SpaceId};
use crate::kernel::{ChildRef, RunState, Shared, Slot, SlotCell, SpaceState, TraceCtx};
use crate::state::{child_path, observe_stop};
use crate::syscall::{GetResult, GetSpec, PutResult, PutSpec, StopReason};

use std::sync::atomic::Ordering::Relaxed;

/// Execution context of a running space.
pub struct SpaceCtx {
    shared: Arc<Shared>,
    id: SpaceId,
    /// This space's own slot cell.
    cell: Arc<SlotCell>,
    st: Option<Box<SpaceState>>,
    /// Trace cursor when recording: resynced at the end of every
    /// traced syscall and after every park-resume.
    trace: Option<TraceCtx>,
    destroyed: bool,
    /// Syscalls entered by this space (counted at the fault gate, i.e.
    /// including faulted entries) — a deterministic per-space ordinal
    /// used as a fault-injection coordinate.
    syscalls: u64,
    /// Lineage path, fetched lazily from the slot and cached (the path
    /// never changes after creation).
    path: Option<String>,
}

impl SpaceCtx {
    pub(crate) fn new(
        shared: Arc<Shared>,
        id: SpaceId,
        cell: Arc<SlotCell>,
        st: Box<SpaceState>,
    ) -> SpaceCtx {
        let trace = shared.trace.as_ref().map(|_| TraceCtx::new(&st));
        SpaceCtx {
            shared,
            id,
            cell,
            st: Some(st),
            trace,
            destroyed: false,
            syscalls: 0,
            path: None,
        }
    }

    /// Deterministic fault gate, probed at every syscall prologue
    /// *before* any charge or trace record — a faulted entry
    /// leaves no trace-visible effect, so faulted runs replay.
    ///
    /// `sites` lists the injection sites the syscall exposes, probed in
    /// order; the [`FaultSite::TraceSink`] site is probed only when the
    /// kernel records a trace.
    fn fault_gate(&mut self, sites: &[FaultSite]) -> Result<()> {
        let nth = self.syscalls;
        self.syscalls += 1;
        if self.shared.faults.is_empty() {
            return Ok(());
        }
        let vclock_ps = self.st.as_deref().map_or(0, |s| s.vclock_ps);
        if self.path.is_none() {
            self.path = Some(self.cell.m.lock().path.clone());
        }
        let path = self.path.as_deref().expect("cached above");
        let recording = self.trace.is_some();
        for &site in sites {
            if site == FaultSite::TraceSink && !recording {
                continue;
            }
            match self.shared.faults.probe(site, path, nth, vclock_ps) {
                None => {}
                Some(FaultAction::KillKernel) => {
                    // Publish shutdown so every space observes the
                    // crash at its next kernel entry; the triggering
                    // space unwinds with the typed kill error (for the
                    // root, that ends the run — the trace recorded so
                    // far is the crash log).
                    self.shared
                        .shutdown
                        .store(true, std::sync::atomic::Ordering::SeqCst);
                    return Err(KernelError::Killed);
                }
                Some(FaultAction::PanicVehicle) => {
                    // Deterministic panic: the vehicle's existing
                    // catch_unwind converts it into a terminal
                    // `Trap(Panic)` check-in.
                    panic!("injected vehicle panic");
                }
                Some(FaultAction::FailOp) => {
                    return Err(KernelError::FaultInjected(site.label()));
                }
            }
        }
        Ok(())
    }

    pub(crate) fn into_state(self) -> Option<Box<SpaceState>> {
        self.st
    }

    /// Splits the context into its final state and its trace cursor
    /// (for the vehicle's final check-in event).
    pub(crate) fn into_parts(self) -> (Option<Box<SpaceState>>, Option<TraceCtx>) {
        (self.st, self.trace)
    }

    /// The caller-side syscall-entry record: everything that happened
    /// to this space since the last sync point. `None` when not
    /// recording.
    fn trace_entry(&self) -> Option<EntryRec> {
        let tr = self.trace.as_ref()?;
        Some(tr.entry(self.st.as_deref()?))
    }

    /// Re-bases the trace cursor on the space's current image, ending
    /// the recorded syscall (its effects are re-derived by replay, not
    /// carried by the next delta).
    fn trace_resync(&mut self) {
        if let (Some(tr), Some(st)) = (self.trace.as_mut(), self.st.as_deref()) {
            tr.resync(st);
        }
    }

    /// Records the root program's exit (called by `Kernel::run` before
    /// the state is taken for shutdown).
    pub(crate) fn record_exit(&mut self, exit: std::result::Result<i32, TrapKind>) {
        if let (Some(entry), Some(st)) = (self.trace_entry(), self.st.as_deref()) {
            self.shared.trace_push(Some(TraceEvent::RootExit {
                entry,
                regs: st.regs,
                exit,
            }));
        }
    }

    /// True if the *kernel* destroyed this space (shutdown teardown or
    /// a park raced by destruction) — as opposed to the program merely
    /// returning a fabricated `Destroyed` error.
    pub(crate) fn destroyed_by_kernel(&self) -> bool {
        self.destroyed
    }

    fn st(&self) -> &SpaceState {
        self.st
            .as_deref()
            .expect("space state absent: the space was destroyed; programs must return after a Destroyed error")
    }

    fn st_mut(&mut self) -> &mut SpaceState {
        self.st
            .as_deref_mut()
            .expect("space state absent: the space was destroyed; programs must return after a Destroyed error")
    }

    /// This space's private memory.
    pub fn mem(&self) -> &AddressSpace {
        &self.st().mem
    }

    /// This space's private memory, mutably.
    pub fn mem_mut(&mut self) -> &mut AddressSpace {
        &mut self.st_mut().mem
    }

    /// This space's registers.
    pub fn regs(&self) -> &Regs {
        &self.st().regs
    }

    /// This space's registers, mutably.
    pub fn regs_mut(&mut self) -> &mut Regs {
        &mut self.st_mut().regs
    }

    /// The space's virtual clock, in nanoseconds.
    pub fn vclock_ns(&self) -> u64 {
        ps_to_ns(self.st().vclock_ps)
    }

    /// The space's virtual clock, in picoseconds — the exact value the
    /// rendezvous max-rule propagates. Shard runtimes compare and sync
    /// clocks at this precision so a remote join is bit-identical to a
    /// local one.
    pub fn vclock_ps(&self) -> u64 {
        self.st().vclock_ps
    }

    /// Rendezvous-style clock sync: advances this space's virtual
    /// clock to `max(current, target_ps)` — the `parent = max(parent,
    /// child)` rule of DESIGN.md §1, applied to a child that ran on
    /// another kernel shard. Charging through the normal path means a
    /// work limit can preempt here exactly as it would on a local
    /// charge.
    pub fn sync_vclock_ps(&mut self, target_ps: u64) -> Result<()> {
        let cur = self.st().vclock_ps;
        if target_ps > cur {
            self.charge_ps(target_ps - cur)
        } else {
            Ok(())
        }
    }

    /// Records a cross-shard space migration driven by an external
    /// shard runtime: counts it in [`crate::KernelStats::migrations`]
    /// and charges `ps` (the link cost of the migration summary
    /// message) to this space's clock.
    pub fn note_migration(&mut self, ps: u64) -> Result<()> {
        self.shared.hot.migrations.fetch_add(1, Relaxed);
        self.charge_ps(ps)
    }

    /// Merges a migrated child's returned memory into this space —
    /// the `Get`+merge rendezvous of §3.2, for a child that ran on a
    /// remote kernel shard and came home as a dirty delta.
    ///
    /// `child` is the child's final memory (its materialized image
    /// plus the returned delta) and `snap` the image it started from;
    /// the three-way merge, conflict detection, virtual-time charge,
    /// and statistics are identical to the local merge path, which is
    /// what keeps a cluster run's artifact bundle invariant over how
    /// spaces were placed on shards.
    pub fn merge_remote(
        &mut self,
        child: &AddressSpace,
        snap: &AddressSpace,
        region: Region,
    ) -> Result<det_memory::MergeStats> {
        let costs = self.shared.costs;
        let policy = self.shared.policy;
        let (stats, conflict) = self
            .st_mut()
            .mem
            .try_merge_from(child, snap, region, policy)?;
        // The caller pays for the scan on success and on conflict
        // alike, as a local `Get`+merge does.
        bill(self.st_mut(), costs.merge_cost_ps(&stats));
        self.shared.record_merge(&stats);
        if let Some(c) = conflict {
            self.shared.hot.conflicts.fetch_add(1, Relaxed);
            return Err(KernelError::Conflict(c));
        }
        Ok(stats)
    }

    /// True if this is the root space (I/O privileges).
    pub fn is_root(&self) -> bool {
        self.id == SpaceId::ROOT
    }

    /// Declares `ns` nanoseconds of compute work on the virtual clock.
    ///
    /// Native workloads call this with calibrated per-operation costs;
    /// VM programs are charged automatically per instruction. If the
    /// space runs under a work limit and this charge exhausts it, the
    /// space is preempted here: control returns to the parent, and the
    /// call completes when the parent restarts the space (the paper's
    /// instruction-limit preemption, §3.2).
    pub fn charge(&mut self, ns: u64) -> Result<()> {
        self.charge_ps(ns_to_ps(ns))
    }

    /// Declares `ps` picoseconds of work on the virtual clock — the
    /// picosecond-precision form of [`charge`](SpaceCtx::charge), used
    /// by shard runtimes and cost models whose charges are computed in
    /// the clock's native unit. Same preemption semantics as `charge`.
    pub fn charge_ps(&mut self, ps: u64) -> Result<()> {
        if self.destroyed {
            return Err(KernelError::Destroyed);
        }
        if self.id != SpaceId::ROOT
            && self
                .shared
                .shutdown
                .load(std::sync::atomic::Ordering::Relaxed)
        {
            self.destroyed = true;
            return Err(KernelError::Destroyed);
        }
        if charge(self.st_mut(), ps) {
            return self.park(StopReason::LimitReached);
        }
        Ok(())
    }

    /// Parks this space with `reason` and blocks until the parent
    /// restarts it.
    fn park(&mut self, reason: StopReason) -> Result<()> {
        let st = self.st.take().expect("parking requires live state");
        let ev = self
            .trace
            .as_ref()
            .map(|tr| tr.check_in(self.id, &st, reason, false, VmCounters::default()));
        let cell = Arc::clone(&self.cell);
        match self.shared.park(&cell, st, reason, ev) {
            Ok(st) => {
                self.st = Some(st);
                self.trace_resync();
                Ok(())
            }
            Err(e) => {
                self.destroyed = true;
                Err(e)
            }
        }
    }

    /// Finds or creates the slot for `child` under this space.
    ///
    /// The children map is read under this space's own (uncontended)
    /// slot lock, so a `Tree` copy that rewrites the map while this
    /// space is parked is authoritative the moment it resumes. The
    /// global table lock is taken only on first creation, and never
    /// while a slot lock is held.
    fn ensure_child(&mut self, child: ChildNum) -> ChildRef {
        if let Some((id, cell)) = self.cell.m.lock().children.get(&child) {
            return (*id, Arc::clone(cell));
        }
        // Only this space's own thread creates its children, and a
        // parent can only Tree-rewrite the map while this space is
        // parked — so the miss above cannot race an insert.
        let path = {
            let mut g = self.cell.m.lock();
            let parent = g.path.clone();
            child_path(&parent, child, &mut g.child_gens)
        };
        let (id, cell) = self.shared.new_slot(path);
        self.cell
            .m
            .lock()
            .children
            .insert(child, (id, Arc::clone(&cell)));
        (id, cell)
    }

    /// Looks a child up without creating it.
    fn lookup_child(&mut self, child: ChildNum) -> Option<ChildRef> {
        self.cell
            .m
            .lock()
            .children
            .get(&child)
            .map(|(id, cell)| (*id, Arc::clone(cell)))
    }

    /// Rendezvous clock rule: the caller observes the child's stop and
    /// takes the later of the two clocks. Returns the child's clock.
    fn sync_clocks(&mut self, g: &mut MutexGuard<'_, Slot>) -> u64 {
        observe_stop(self.st_mut(), idle_state(g).vclock_ps)
    }

    /// The `Put` half of a rendezvous, for `put` and `put_get` alike:
    /// waits for the child's stop, runs the core's option sequencer
    /// around the host-side steps (reaping a replaced vehicle, the
    /// lock-releasing `Tree` walk, starting the child) and records the
    /// event. Returns the child's guard and the stop the options
    /// applied to; on an error the guard is released and the trace
    /// cursor resynced.
    fn put_half<'a>(
        &mut self,
        cell: &'a Arc<SlotCell>,
        child: ChildNum,
        child_id: SpaceId,
        spec: PutSpec,
        fused: bool,
    ) -> Result<(MutexGuard<'a, Slot>, StopReason)> {
        let entry = self.trace_entry();
        let rec = PutRec::of(&spec);
        let (mut g, was) = self.shared.wait_idle(cell, child_id, cell.m.lock())?;
        self.sync_clocks(&mut g);
        let costs = self.shared.costs;
        let mut counts = MemOpCounts::default();
        let mut tree_ids = Vec::new();
        let terminal = g.terminal;
        let (install, mut res) = put_before_tree(
            &costs,
            self.st(),
            idle_state(&mut g),
            &rec,
            was,
            terminal,
            &mut counts,
        );
        if let Some(action) = install {
            if action == InstallAction::Replace {
                // The old program's worker went back to the pool before
                // its final check-in; a fresh program gets a fresh
                // vehicle binding and a fresh CPU identity.
                g.has_vehicle = false;
                g.cpu = None;
                g.inline_vm = false;
            }
            g.terminal = false;
            g.pending = spec.program;
            g.run = RunState::Idle(StopReason::Unstarted);
        }
        if let (Ok(()), Some(src_child)) = (&res, rec.tree_from) {
            let src = self.lookup_child(src_child);
            res = tree_source(src.as_ref().map(|(id, _)| id.index()), child_id.index());
            if let (Ok(()), Some((src_id, src_cell))) = (&res, src) {
                // A tree copy walks other slots; release this child's
                // lock so slot locks are only ever taken one at a time.
                drop(g);
                res = clone_into(&self.shared, src_id, &src_cell, cell, &mut tree_ids);
                g = cell.m.lock();
                if res.is_ok() && matches!(g.run, RunState::Destroyed) {
                    res = Err(KernelError::Destroyed);
                }
            }
        }
        if res.is_ok() {
            put_after_tree(
                &costs,
                self.st_mut(),
                idle_state(&mut g),
                &rec,
                was,
                &mut counts,
            );
            if let Some(s) = rec.start {
                let parent_v = self.st().vclock_ps;
                res = self
                    .shared
                    .start_child(&mut g, cell, child_id, s.limit_ns, parent_v, was);
            }
        }
        self.shared.fold_counts(&counts);
        // Recorded whether the options succeeded or failed — replay
        // re-derives the same error from the same state — and while the
        // child's guard is held: linearized against the started child's
        // own first check-in.
        let caller = self.id.index();
        self.shared.trace_push(entry.map(|entry| TraceEvent::Put {
            caller,
            child,
            child_id: child_id.index(),
            fused,
            entry,
            put: rec,
            tree_new_ids: tree_ids,
        }));
        match res {
            Ok(()) => Ok((g, was)),
            Err(e) => {
                drop(g);
                self.trace_resync();
                Err(e)
            }
        }
    }

    /// The `Get` half of a rendezvous with a stopped child whose slot
    /// guard the caller holds: the core's option sequencer, the merge
    /// and conflict counters, the event. `entry` is the caller's window
    /// for a plain `get`, absent for the fused half.
    fn get_half(
        &mut self,
        g: &mut MutexGuard<'_, Slot>,
        child: ChildNum,
        child_id: SpaceId,
        spec: GetSpec,
        stop: StopReason,
        entry: Option<EntryRec>,
    ) -> Result<GetResult> {
        let child_v = self.sync_clocks(g);
        let child_st = idle_state(g);
        let code = child_st.regs.gpr[1];
        let regs = spec.regs.then_some(child_st.regs);
        let (costs, policy) = (self.shared.costs, self.shared.policy);
        let mut counts = MemOpCounts::default();
        let (merge, res) = get_options(&costs, policy, self.st_mut(), child_st, &spec, &mut counts);
        self.shared.fold_counts(&counts);
        if let Some(stats) = &merge {
            self.shared.record_merge(stats);
        }
        if matches!(res, Err(KernelError::Conflict(_))) {
            self.shared.hot.conflicts.fetch_add(1, Relaxed);
        }
        // Recorded on success and failure alike (replay re-derives the
        // same error), while the child's guard is held.
        if self.trace.is_some() {
            self.shared.trace_push(Some(TraceEvent::Get {
                caller: self.id.index(),
                child,
                child_id: child_id.index(),
                fused: entry.is_none(),
                entry,
                get: spec,
            }));
        }
        res.map(|()| GetResult {
            stop,
            code,
            regs,
            merge,
            child_vclock_ns: ps_to_ns(child_v),
        })
    }

    /// The `Put` system call: copy state into a child (creating it on
    /// first reference) and optionally start it (§3.2, Tables 1–2).
    ///
    /// Blocks while the child is running — spaces synchronize only at
    /// well-defined rendezvous points.
    pub fn put(&mut self, child: ChildNum, spec: PutSpec) -> Result<PutResult> {
        self.fault_gate(&[FaultSite::Syscall, FaultSite::Alloc, FaultSite::TraceSink])?;
        self.charge_ps(self.shared.costs.syscall_ps)?;
        self.shared.hot.puts.fetch_add(1, Relaxed);
        let (child_id, cell) = self.ensure_child(child);
        let (g, child_was) = self.put_half(&cell, child, child_id, spec, false)?;
        drop(g);
        self.trace_resync();
        Ok(PutResult { child_was })
    }

    /// The `Get` system call: synchronize with a child and copy or
    /// merge state out of it (§3.2, Tables 1–2).
    ///
    /// With `merge`, bytes the child changed since its snapshot are
    /// folded into this space; concurrent changes to the same byte
    /// raise [`KernelError::Conflict`] and leave this space untouched.
    pub fn get(&mut self, child: ChildNum, spec: GetSpec) -> Result<GetResult> {
        self.fault_gate(&[FaultSite::Syscall, FaultSite::TraceSink])?;
        self.charge_ps(self.shared.costs.syscall_ps)?;
        let entry = self.trace_entry();
        self.shared.hot.gets.fetch_add(1, Relaxed);
        let (child_id, cell) = self.ensure_child(child);
        let (mut g, stop) = self.shared.wait_idle(&cell, child_id, cell.m.lock())?;
        let res = self.get_half(&mut g, child, child_id, spec, stop, entry);
        drop(g);
        self.trace_resync();
        res
    }

    /// The fused `PutGet` exchange: applies `put` to the child at its
    /// current stop, starts it, blocks for its *next* stop, and
    /// collects it with `get` — the runtime's dominant resume→collect
    /// pattern (fs-image staging in `wait`, quantum driving) as one
    /// kernel entry instead of two, with a single blocking wait.
    ///
    /// `put.start` is required (without it there would be no next stop
    /// to collect). The returned [`GetResult`] describes the stop the
    /// child reached *after* the restart.
    pub fn put_get(&mut self, child: ChildNum, put: PutSpec, get: GetSpec) -> Result<GetResult> {
        if put.start.is_none() {
            return Err(KernelError::InvalidSpec(
                "put_get requires the Start option",
            ));
        }
        self.fault_gate(&[FaultSite::Syscall, FaultSite::Alloc, FaultSite::TraceSink])?;
        self.charge_ps(self.shared.costs.syscall_ps)?;
        self.shared.hot.put_gets.fetch_add(1, Relaxed);
        let (child_id, cell) = self.ensure_child(child);
        // First rendezvous: the stop the Put applies to. Its event is
        // pushed before the second wait drives the child, so the
        // child's next check-in follows it in the trace.
        let (g, _) = self.put_half(&cell, child, child_id, put, true)?;
        // Second rendezvous: the child's next stop (for an inline VM
        // child this executes it right here, lock-step, with no
        // condvar traffic at all).
        let (mut g, stop) = self.shared.wait_idle(&cell, child_id, g)?;
        let res = self.get_half(&mut g, child, child_id, get, stop, None);
        drop(g);
        self.trace_resync();
        res
    }

    /// The `Ret` system call: stop and wait for the parent (§3.2).
    ///
    /// `code` is placed in `r1` (the exit-status convention read by
    /// `Get`). Returns when the parent restarts this space.
    pub fn ret(&mut self, code: u64) -> Result<()> {
        if self.id == SpaceId::ROOT {
            return Err(KernelError::InvalidSpec("root space cannot ret"));
        }
        self.fault_gate(&[FaultSite::Syscall, FaultSite::TraceSink])?;
        self.charge_ps(self.shared.costs.syscall_ps)?;
        self.st_mut().regs.gpr[1] = code;
        self.park(StopReason::Ret)
    }

    /// Reads the next input event from a device (root only; §3.1).
    ///
    /// `None` means the device has no input available. In record mode
    /// the consumed event is logged; in replay mode it comes from the
    /// log.
    pub fn dev_read(&mut self, dev: DeviceId) -> Result<Option<Vec<u8>>> {
        if self.id != SpaceId::ROOT {
            return Err(KernelError::NotRoot);
        }
        self.fault_gate(&[FaultSite::Syscall, FaultSite::Device, FaultSite::TraceSink])?;
        self.charge_ps(self.shared.costs.syscall_ps)?;
        self.shared.hot.device_reads.fetch_add(1, Relaxed);
        let res = self.shared.devices.lock().read(dev);
        if let Some(entry) = self.trace_entry() {
            self.shared.trace_push(Some(TraceEvent::DevRead {
                entry,
                dev,
                data: res.as_ref().ok().and_then(|d| d.clone()),
            }));
            self.trace_resync();
        }
        res
    }

    /// Writes output bytes to a device (root only).
    pub fn dev_write(&mut self, dev: DeviceId, data: &[u8]) -> Result<()> {
        if self.id != SpaceId::ROOT {
            return Err(KernelError::NotRoot);
        }
        self.fault_gate(&[FaultSite::Syscall, FaultSite::Device, FaultSite::TraceSink])?;
        self.charge_ps(self.shared.costs.syscall_ps)?;
        self.shared
            .hot
            .device_write_bytes
            .fetch_add(data.len() as u64, Relaxed);
        self.shared.devices.lock().write(dev, data);
        if let Some(entry) = self.trace_entry() {
            self.shared.trace_push(Some(TraceEvent::DevWrite {
                entry,
                dev,
                data: data.to_vec(),
            }));
            self.trace_resync();
        }
        Ok(())
    }

    /// The `Checkpoint` mark (root only): declares a durable snapshot
    /// point and charges its deterministic cost — syscall entry plus a
    /// per-dirty-leaf increment (the kernel-side work a real
    /// incremental checkpoint would do is proportional to the dirty
    /// page-table leaves, exactly the unit `delta_since` walks).
    ///
    /// The mark carries no payload: the checkpoint *bundle* is captured
    /// from the recorded trace (see [`crate::Checkpoint`]), which keeps
    /// the bundle a pure function of the event history. Returns the
    /// dirty-leaf count the charge was based on.
    pub fn checkpoint(&mut self) -> Result<u64> {
        if self.id != SpaceId::ROOT {
            return Err(KernelError::NotRoot);
        }
        self.fault_gate(&[FaultSite::Syscall, FaultSite::TraceSink])?;
        let leaves = self.st().mem.dirty_leaf_count() as u64;
        // One fused charge, applied *before* the entry record is cut,
        // so the leaf-proportional cost rides in `entry.advance_ps` and
        // replay reproduces the identical clock without re-deriving it.
        let ps = self
            .shared
            .costs
            .syscall_ps
            .saturating_add(self.shared.costs.checkpoint_cost_ps(leaves));
        self.charge_ps(ps)?;
        self.shared.hot.checkpoints.fetch_add(1, Relaxed);
        self.shared.hot.checkpoint_leaves.fetch_add(leaves, Relaxed);
        if let Some(entry) = self.trace_entry() {
            self.shared
                .trace_push(Some(TraceEvent::Checkpoint { entry, leaves }));
            self.trace_resync();
        }
        Ok(leaves)
    }

    /// Statically analyzes the VM program image at `[base, base+len)`
    /// in this space's memory and returns its sound page footprint
    /// (DESIGN.md §11).
    ///
    /// The footprint is a pure, deterministic function of the image
    /// bytes, so no trace event is needed: replay recomputes nothing
    /// and the charge below rides in the next cut entry's
    /// `advance_ps` like any other compute charge. The cost is the
    /// syscall constant plus `analyze_step_ps` per abstract transfer
    /// step — the analyzer's own deterministic work measure — so
    /// asking for a prefetch hint has a host-invariant price.
    pub fn analyze_footprint(&mut self, base: u64, len: u64) -> Result<det_analyze::Footprint> {
        let regs = det_vm::Regs {
            pc: base,
            ..Default::default()
        };
        self.analyze_footprint_from(base, len, &regs)
    }

    /// Like [`SpaceCtx::analyze_footprint`], but seeds the abstract
    /// interpreter with the concrete entry registers in `regs` (entry
    /// pc = `regs.pc`). Resolving data pointers the caller passes in
    /// registers — a per-node slot base, say — turns an otherwise
    /// unbounded footprint into the tight per-job page set that
    /// cluster leaf-pull migration wants as a prefetch hint.
    pub fn analyze_footprint_from(
        &mut self,
        base: u64,
        len: u64,
        regs: &det_vm::Regs,
    ) -> Result<det_analyze::Footprint> {
        self.fault_gate(&[FaultSite::Syscall])?;
        // The length is the caller's word: bound it by what the space
        // maps before allocating for it. A readable range can be no
        // longer than that, so nothing valid is refused, and `read`
        // below still faults on the first unmapped page inside it.
        let mem = &self.st().mem;
        let image_len = match usize::try_from(len) {
            Ok(n) if n > 0 && len <= mem.mapped_bytes() && base.checked_add(len).is_some() => n,
            _ => {
                return Err(KernelError::InvalidSpec(
                    "analysis image is empty or exceeds the mapped space",
                ));
            }
        };
        let mut image = vec![0u8; image_len];
        mem.read(base, &mut image)?;
        let init = std::array::from_fn(|i| det_analyze::Val::exact_u64(regs.gpr[i]));
        let analysis = det_analyze::analyze_with_regs(
            &[det_analyze::Segment {
                base,
                bytes: &image,
            }],
            regs.pc,
            &init,
            &det_analyze::AnalyzeConfig::default(),
        );
        let ps = self
            .shared
            .costs
            .syscall_ps
            .saturating_add(self.shared.costs.analyze_cost_ps(analysis.footprint.steps));
        self.charge_ps(ps)?;
        Ok(analysis.footprint)
    }
}

/// A stopped child's checked-in state, through its held slot guard.
fn idle_state<'g>(g: &'g mut MutexGuard<'_, Slot>) -> &'g mut SpaceState {
    g.state.as_deref_mut().expect("idle child has state")
}

/// Deep-copies the state of `src` (and recursively its descendants)
/// into `dst` — the `Tree` option. Every source slot is a rendezvous
/// like any other (§3.2): the walk waits for it to stop, driving a
/// runnable VM leaf to its stop, so what is copied never depends on
/// how far a vehicle happened to get. Slot locks are taken one at a
/// time (clone the image out of the source, then install it), so the
/// walk can never deadlock against concurrent rendezvous; the children
/// maps carry each child's cell, so the walk never touches the global
/// space table except to append fresh slots.
fn clone_into(
    shared: &Arc<Shared>,
    src_id: SpaceId,
    src: &SlotCell,
    dst: &Arc<SlotCell>,
    new_ids: &mut Vec<u32>,
) -> Result<()> {
    let (img, kids) = {
        let (g, _) = shared.wait_idle(src, src_id, src.m.lock())?;
        let st = g.state.as_ref().expect("idle slot has state");
        (st.clone_image(), g.children.clone())
    };
    {
        let mut g = dst.m.lock();
        if matches!(g.run, RunState::Destroyed) {
            return Err(KernelError::Destroyed);
        }
        g.state = Some(Box::new(img));
        g.run = RunState::Idle(StopReason::Unstarted);
    }
    for (num, (kid_src_id, kid_src)) in kids {
        // Create a matching child under dst and recurse. The created
        // ids are recorded in pre-order — even on an error part-way —
        // so trace replay can mint the identical tree.
        let path = {
            let mut g = dst.m.lock();
            let parent = g.path.clone();
            child_path(&parent, num, &mut g.child_gens)
        };
        let (kid_id, kid_dst) = shared.new_slot(path);
        new_ids.push(kid_id.index());
        dst.m
            .lock()
            .children
            .insert(num, (kid_id, Arc::clone(&kid_dst)));
        clone_into(shared, kid_src_id, &kid_src, &kid_dst, new_ids)?;
    }
    Ok(())
}

/// Region helper: the whole 48-bit user address range, for coarse
/// whole-space operations in tests and the runtime.
pub fn full_user_region() -> Region {
    Region::new(0, 1u64 << 47)
}
