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
//! slot, which caches each child's slot cell beside its children map
//! ([`crate::kernel::Slot::child`]) — one uncontended lock of the
//! caller's own slot, never a walk of the kernel-global space table
//! (DESIGN.md §6).

use std::sync::Arc;

use parking_lot::MutexGuard;

use det_memory::{AddressSpace, MergeStats, Region, SpaceDelta};
use det_vm::Regs;

use crate::apply::{
    EntryRec, InstallAction, PutRec, Rendezvous, TraceEvent, charge, count_checkpoint,
    count_dev_read, count_dev_write, get, migrate_home, migrate_out, put_after_tree,
    put_before_tree, tree_source,
};
use crate::cost::{ns_to_ps, ps_to_ns};
use crate::device::DeviceId;
use crate::error::{KernelError, Result, TrapKind};
use crate::fault::{FaultAction, FaultSite};
use crate::ids::{ChildNum, SpaceId};
use crate::kernel::{RunState, Shared, Slot, SlotCell, SpaceState};
use crate::program::Program;
use crate::state::{KSlot, TraceCtx, observe_stop};
use crate::stats::KernelStats;
use crate::syscall::{GetResult, GetSpec, PutResult, PutSpec, StopReason};

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
    /// order.
    fn fault_gate(&mut self, sites: &[FaultSite]) -> Result<()> {
        let nth = self.syscalls;
        self.syscalls += 1;
        if self.shared.faults.is_empty() {
            return Ok(());
        }
        if self.path.is_none() {
            self.path = Some(self.cell.m.lock().k.path.clone());
        }
        let path = self.path.as_deref().expect("cached above");
        for &site in sites {
            match self.shared.faults.probe(site, path, nth) {
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
            *tr = TraceCtx::new(st);
        }
    }

    /// Records the root program's exit (called by `Kernel::run` before
    /// the state is taken for shutdown).
    pub(crate) fn record_exit(&mut self, exit: std::result::Result<i32, TrapKind>) {
        if let (Some(entry), Some(st)) = (self.trace_entry(), self.st.as_deref()) {
            self.shared.trace_push(Some(Box::new(TraceEvent::RootExit {
                entry,
                regs: st.regs,
                exit,
            })));
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
        self.window().0
    }

    /// This space's state and, when it records, its window cursor: what
    /// an arm cuts the space's window from.
    fn window(&mut self) -> (&mut SpaceState, Option<&TraceCtx>) {
        let st = self.st.as_deref_mut();
        let st = st.expect("space state absent: the space was destroyed; programs must return after a Destroyed error");
        (st, self.trace.as_ref())
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

    /// The job root's arrival stamp: a space migrated onto another
    /// kernel shard starts no earlier than the clock it was forked at
    /// plus its transfer time — the `max` join of DESIGN.md §1, a wait,
    /// so it cannot preempt.
    pub fn sync_vclock_ps(&mut self, target_ps: u64) {
        observe_stop(self.st_mut(), target_ps);
    }

    /// Forks a migrated child off this space (§3.3) through the
    /// `migrate_out` arm: returns the frozen image of `region` it starts
    /// from; `link_ps` prices the summary (`None`: same node).
    pub fn migrate_out(
        &mut self,
        region: Region,
        link_ps: impl FnOnce(&AddressSpace) -> Option<u64>,
    ) -> Result<AddressSpace> {
        let (costs, cell) = (self.shared.costs, Arc::clone(&self.cell));
        let mut own = cell.m.lock();
        migrate_out(&costs, self.st_mut(), &mut own.stats, region, link_ps)
    }

    /// Joins a migrated child, home as `delta` over its `base` image,
    /// through the `migrate_home` arm: the rendezvous, wait and merge of
    /// a local `Get`. `migrated`: the child ran on another node.
    pub fn migrate_home(
        &mut self,
        home: (&AddressSpace, Result<SpaceDelta>),
        child_vclock_ps: u64,
        region: Region,
        migrated: bool,
    ) -> Result<MergeStats> {
        let (costs, cell) = (self.shared.costs, self.cell.clone());
        let (mut own, st) = (cell.m.lock(), self.st_mut());
        migrate_home(
            &costs,
            st,
            &mut own.stats,
            home,
            child_vclock_ps,
            region,
            migrated,
        )
    }

    /// Counts an event of this space's own that no rendezvous guard
    /// covers (device I/O, checkpoint marks) under its own, uncontended,
    /// slot lock.
    fn count_own(&self, count: impl FnOnce(&mut KernelStats)) {
        count(&mut self.cell.m.lock().stats);
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
    /// picosecond-precision form of [`charge`](SpaceCtx::charge) the
    /// syscalls charge their entry with. Same preemption semantics as
    /// `charge`.
    fn charge_ps(&mut self, ps: u64) -> Result<()> {
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
        let cell = Arc::clone(&self.cell);
        match self
            .shared
            .park(&cell, self.id, st, reason, self.trace.as_ref())
        {
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
    fn ensure_child(&mut self, child: ChildNum) -> (SpaceId, Arc<SlotCell>) {
        if let Some(found) = self.cell.m.lock().child(child) {
            return found;
        }
        // Only this space's own thread creates its children, and a
        // parent can only Tree-rewrite the map while this space is
        // parked — so the miss above cannot race an insert.
        let k = KSlot::child_of(&mut self.cell.m.lock().k, child);
        let (id, cell) = self.shared.new_slot(k);
        self.cell.m.lock().bind(child, id, &cell);
        (id, cell)
    }

    /// The `Put` half of a rendezvous, for `put` and `put_get` alike:
    /// waits for the child's stop and runs the core's two `Put` arms
    /// around the host-side steps (a replaced program's CPU and closure,
    /// the lock-releasing `Tree` walk, realizing the start), then records
    /// the event the arms built. Returns the child's guard and the stop
    /// the options applied to; on an error the guard is released and the
    /// trace cursor resynced.
    fn put_half<'a>(
        &mut self,
        cell: &'a Arc<SlotCell>,
        child: ChildNum,
        child_id: SpaceId,
        spec: PutSpec,
        fused: bool,
    ) -> Result<(MutexGuard<'a, Slot>, StopReason)> {
        let rec = PutRec::of(&spec);
        let (mut g, was) = self.shared.wait_idle(cell, child_id, cell.m.lock())?;
        let costs = self.shared.costs;
        let rv = self.rendezvous(child, child_id, fused);
        let mut half = put_before_tree(&costs, self.window(), &mut g.k, &rec, was, rv);
        if let Some(action) = half.install {
            // The old program's worker went back to the pool before its
            // final check-in; a fresh program gets a fresh CPU identity.
            if action == InstallAction::Replace {
                g.cpu = None;
            }
            g.native = match spec.program {
                Some(Program::Native(entry)) => Some(entry),
                _ => None,
            };
        }
        let mut tree_ids = Vec::new();
        if let (Ok(()), Some(src_child)) = (&half.res, rec.tree_from) {
            let src = self.cell.m.lock().child(src_child);
            half.res = tree_source(src.as_ref().map(|(id, _)| id.index()), child_id.index());
            if let (Ok(()), Some((src_id, src_cell))) = (&half.res, src) {
                // A tree copy walks other slots; release this child's
                // lock so slot locks are only ever taken one at a time.
                drop(g);
                half.res = clone_into(&self.shared, src_id, &src_cell, cell, &mut tree_ids);
                g = cell.m.lock();
                if half.res.is_ok() && matches!(g.k.run, RunState::Destroyed) {
                    half.res = Err(KernelError::Destroyed);
                }
            }
        }
        let (mut res, ev) = put_after_tree(&costs, self.st_mut(), g.core(), &rec, half, tree_ids);
        let mut refused = None;
        if let (Ok(()), Some(s)) = (&res, rec.start) {
            let parent_v = self.st().vclock_ps;
            match self
                .shared
                .start_child(&mut g, cell, child_id, s.limit_ns, parent_v, was)
            {
                Ok(ev) => refused = ev,
                Err(e) => res = Err(e),
            }
        }
        // Recorded while the child's guard is held: linearized against
        // the started child's own first check-in. A refused vehicle's
        // check-in follows the `Put` that started it.
        self.shared.trace_push(ev);
        self.shared.trace_push(refused);
        match res {
            Ok(()) => Ok((g, was)),
            Err(e) => {
                drop(g);
                self.trace_resync();
                Err(e)
            }
        }
    }

    /// The `Get` half of a rendezvous, for `get` and `put_get` alike:
    /// waits (from the child's guard `g`) for the child's stop, runs the
    /// core's `Get` arm, records the event it built while the guard is
    /// held, and resyncs the trace cursor.
    fn get_half(
        &mut self,
        cell: &SlotCell,
        g: MutexGuard<'_, Slot>,
        child: ChildNum,
        child_id: SpaceId,
        spec: GetSpec,
        fused: bool,
    ) -> Result<GetResult> {
        let (mut g, stop) = self.shared.wait_idle(cell, child_id, g)?;
        let costs = self.shared.costs;
        let rv = self.rendezvous(child, child_id, fused);
        let (merge, res, ev) = get(&costs, self.window(), g.core(), &spec, rv);
        self.shared.trace_push(ev);
        let child_st = g.k.idle_state();
        let res = res.map(|()| GetResult {
            stop,
            code: child_st.regs.gpr[1],
            regs: spec.regs.then_some(child_st.regs),
            merge,
            child_vclock_ns: ps_to_ns(child_st.vclock_ps),
        });
        drop(g);
        self.trace_resync();
        res
    }

    /// The spaces a rendezvous of this space with `child` names.
    fn rendezvous(&self, child: ChildNum, child_id: SpaceId, fused: bool) -> Rendezvous {
        Rendezvous {
            caller: self.id.index(),
            child,
            child_id: child_id.index(),
            fused,
        }
    }

    /// The `Put` system call: copy state into a child (creating it on
    /// first reference) and optionally start it (§3.2, Tables 1–2).
    ///
    /// Blocks while the child is running — spaces synchronize only at
    /// well-defined rendezvous points.
    pub fn put(&mut self, child: ChildNum, spec: PutSpec) -> Result<PutResult> {
        self.fault_gate(&[FaultSite::Syscall, FaultSite::Alloc])?;
        self.charge_ps(self.shared.costs.syscall_ps)?;
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
        self.fault_gate(&[FaultSite::Syscall])?;
        self.charge_ps(self.shared.costs.syscall_ps)?;
        let (child_id, cell) = self.ensure_child(child);
        self.get_half(&cell, cell.m.lock(), child, child_id, spec, false)
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
        self.fault_gate(&[FaultSite::Syscall, FaultSite::Alloc])?;
        self.charge_ps(self.shared.costs.syscall_ps)?;
        let (child_id, cell) = self.ensure_child(child);
        // First rendezvous: the stop the Put applies to. Its event is
        // pushed before the second wait drives the child, so the
        // child's next check-in follows it in the trace.
        let (g, _) = self.put_half(&cell, child, child_id, put, true)?;
        // Second rendezvous: the child's next stop (for an inline VM
        // child this executes it right here, lock-step, with no
        // condvar traffic at all).
        self.get_half(&cell, g, child, child_id, get, true)
    }

    /// The `Ret` system call: stop and wait for the parent (§3.2).
    ///
    /// `code` is placed in `r1` (the exit-status convention read by
    /// `Get`). Returns when the parent restarts this space.
    pub fn ret(&mut self, code: u64) -> Result<()> {
        if self.id == SpaceId::ROOT {
            return Err(KernelError::InvalidSpec("root space cannot ret"));
        }
        self.fault_gate(&[FaultSite::Syscall])?;
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
        self.fault_gate(&[FaultSite::Syscall, FaultSite::Device])?;
        self.charge_ps(self.shared.costs.syscall_ps)?;
        let res = self.shared.devices.lock().read(dev);
        self.count_own(count_dev_read);
        if let Some(entry) = self.trace_entry() {
            self.shared.trace_push(Some(Box::new(TraceEvent::DevRead {
                entry,
                dev,
                data: res.as_ref().ok().and_then(|d| d.clone()),
            })));
            self.trace_resync();
        }
        res
    }

    /// Writes output bytes to a device (root only).
    pub fn dev_write(&mut self, dev: DeviceId, data: &[u8]) -> Result<()> {
        if self.id != SpaceId::ROOT {
            return Err(KernelError::NotRoot);
        }
        self.fault_gate(&[FaultSite::Syscall, FaultSite::Device])?;
        self.charge_ps(self.shared.costs.syscall_ps)?;
        self.shared.devices.lock().write(dev, data);
        self.count_own(|s| count_dev_write(s, data.len()));
        if let Some(entry) = self.trace_entry() {
            self.shared.trace_push(Some(Box::new(TraceEvent::DevWrite {
                entry,
                dev,
                data: data.to_vec(),
            })));
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
        self.fault_gate(&[FaultSite::Syscall])?;
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
        self.count_own(|s| count_checkpoint(s, leaves));
        if let Some(entry) = self.trace_entry() {
            self.shared
                .trace_push(Some(Box::new(TraceEvent::Checkpoint { entry, leaves })));
            self.trace_resync();
        }
        Ok(leaves)
    }
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
        let st = g.k.state.as_ref().expect("idle slot has state");
        (st.clone_image(), g.children())
    };
    {
        let mut g = dst.m.lock();
        if matches!(g.k.run, RunState::Destroyed) {
            return Err(KernelError::Destroyed);
        }
        g.k.state = Some(Box::new(img));
        g.k.run = RunState::Idle(StopReason::Unstarted);
    }
    for (num, kid_src_id, kid_src) in kids {
        // Create a matching child under dst and recurse. The created
        // ids are recorded in pre-order — even on an error part-way —
        // so trace replay can mint the identical tree.
        let k = KSlot::child_of(&mut dst.m.lock().k, num);
        let (kid_id, kid_dst) = shared.new_slot(k);
        new_ids.push(kid_id.index());
        dst.m.lock().bind(num, kid_id, &kid_dst);
        clone_into(shared, kid_src_id, &kid_src, &kid_dst, new_ids)?;
    }
    Ok(())
}
