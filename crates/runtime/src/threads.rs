//! Shared-memory multithreading in the private workspace model (§4.4).
//!
//! A [`ThreadGroup`] turns a space into the *master* of a set of
//! thread spaces sharing a designated memory region. `fork` copies the
//! shared region into a child with a snapshot (`Put` +
//! `Copy|Snap|Regs|Start`); `join` merges the child's changes back
//! (`Get` + `Merge`). Threads therefore compute "in place" on shared
//! structures with no packing/unpacking — Figure 1's in-line child
//! code — while reads always see the fork-time state and write/write
//! overlaps surface as join-time conflicts instead of silent races.
//!
//! Barriers (§4.4) are a merge-all / redistribute-all cycle driven by
//! the master; children call [`barrier`] between phases.

use det_kernel::{
    ChildNum, CopySpec, GetSpec, KernelError, MergeStats, Program, PutSpec, Region, Regs, SpaceCtx,
    StopReason,
};

use crate::error::{Result, RtError};

/// Child `Ret` code announcing arrival at a barrier.
pub const RET_BARRIER: u64 = 0xBA44;

/// Outcome of joining one thread.
#[derive(Clone, Debug)]
pub struct JoinResult {
    /// The thread's exit code.
    pub code: i32,
    /// Merge statistics for its shared-region changes.
    pub merge: Option<MergeStats>,
}

/// Master-side manager of a group of threads sharing `region`.
pub struct ThreadGroup<'c> {
    ctx: &'c mut SpaceCtx,
    region: Region,
    base_child: ChildNum,
}

impl<'c> ThreadGroup<'c> {
    /// Creates a manager for threads sharing `region` (page-aligned).
    ///
    /// `base_child` offsets the child numbers used, letting several
    /// groups (or a process runtime) coexist in one space.
    pub fn new(ctx: &'c mut SpaceCtx, region: Region, base_child: ChildNum) -> ThreadGroup<'c> {
        ThreadGroup {
            ctx,
            region,
            base_child,
        }
    }

    /// The shared region.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Forks thread `t` running `f`.
    ///
    /// The child inherits a copy-on-write replica of the shared region
    /// plus a snapshot; `t` is also placed in the child's `r2` so
    /// thread bodies can self-identify (the paper's `thread_fork(i)`).
    pub fn fork<F>(&mut self, t: u64, f: F) -> Result<()>
    where
        F: FnOnce(&mut SpaceCtx) -> std::result::Result<i32, KernelError> + Send + 'static,
    {
        let mut regs = Regs::default();
        regs.gpr[2] = t;
        self.ctx.put(
            self.base_child + t,
            PutSpec::new()
                .program(Program::native(f))
                .regs(regs)
                .copy(CopySpec::mirror(self.region))
                .snap()
                .start(),
        )?;
        Ok(())
    }

    /// Joins thread `t`: merges its shared-region changes and returns
    /// its exit code. A write/write conflict with previously joined
    /// threads (or the master) surfaces here as
    /// [`KernelError::Conflict`] — deterministically, regardless of
    /// execution schedule (§2.2).
    pub fn join(&mut self, t: u64) -> Result<JoinResult> {
        let r = self
            .ctx
            .get(self.base_child + t, GetSpec::new().merge(self.region))?;
        match r.stop {
            StopReason::Halted => Ok(JoinResult {
                code: r.code as i32,
                merge: r.merge,
            }),
            StopReason::Trap(k) => Err(RtError::ChildTrapped(k)),
            other => Err(RtError::Invalid(match other {
                StopReason::Ret => "thread stopped at a barrier; drive it with barrier_cycle",
                _ => "thread in unexpected state",
            })),
        }
    }

    /// Runs one barrier cycle over threads `ts` (§4.4): waits for each
    /// to arrive (Ret) or finish (Halt), merges everyone's changes,
    /// then redistributes a fresh shared snapshot to the threads still
    /// running and resumes them.
    ///
    /// Returns the per-thread status: `Some(code)` if the thread
    /// halted, `None` if it passed the barrier and continues.
    pub fn barrier_cycle(&mut self, ts: &[u64]) -> Result<Vec<Option<i32>>> {
        let mut out = Vec::with_capacity(ts.len());
        // Phase 1: collect and merge everyone.
        for &t in ts {
            let r = self
                .ctx
                .get(self.base_child + t, GetSpec::new().merge(self.region))?;
            match r.stop {
                StopReason::Ret if r.code == RET_BARRIER => out.push(None),
                StopReason::Halted => out.push(Some(r.code as i32)),
                StopReason::Trap(k) => return Err(RtError::ChildTrapped(k)),
                _ => return Err(RtError::Invalid("thread in unexpected state at barrier")),
            }
        }
        // Phase 2: redistribute the merged image and resume runners.
        for (&t, status) in ts.iter().zip(&out) {
            if status.is_none() {
                self.ctx.put(
                    self.base_child + t,
                    PutSpec::new()
                        .copy(CopySpec::mirror(self.region))
                        .snap()
                        .start(),
                )?;
            }
        }
        Ok(out)
    }

    /// Drives threads `ts` through barrier cycles until all halt;
    /// returns their exit codes.
    pub fn run_to_completion(&mut self, ts: &[u64]) -> Result<Vec<i32>> {
        let mut done: Vec<Option<i32>> = vec![None; ts.len()];
        loop {
            let live: Vec<u64> = ts
                .iter()
                .copied()
                .zip(&done)
                .filter(|(_, d)| d.is_none())
                .map(|(t, _)| t)
                .collect();
            if live.is_empty() {
                return Ok(done.into_iter().map(|d| d.expect("all halted")).collect());
            }
            if live.len() == 1 {
                // Sole live thread: a barrier over one member has no
                // peers to wait for, so each remaining cycle (merge,
                // redistribute, resume, wait) fuses into one `PutGet`
                // rendezvous — the join tail of an uneven fork tree
                // pays one kernel entry per stage instead of two.
                let t = live[0];
                let code = self.drive_solo(t)?;
                let idx = ts.iter().position(|x| *x == t).expect("member");
                done[idx] = Some(code);
                continue;
            }
            let statuses = self.barrier_cycle(&live)?;
            for (t, s) in live.iter().zip(statuses) {
                if let Some(code) = s {
                    let idx = ts.iter().position(|x| x == t).expect("member");
                    done[idx] = Some(code);
                }
            }
        }
    }

    /// Drives a single thread through its remaining barriers to
    /// completion (the degenerate one-member barrier cycle), fusing
    /// every resume→collect pair into one `PutGet` exchange.
    fn drive_solo(&mut self, t: u64) -> Result<i32> {
        let child = self.base_child + t;
        let mut r = self.ctx.get(child, GetSpec::new().merge(self.region))?;
        loop {
            match r.stop {
                StopReason::Halted => return Ok(r.code as i32),
                StopReason::Ret if r.code == RET_BARRIER => {
                    r = self.ctx.put_get(
                        child,
                        PutSpec::new()
                            .copy(CopySpec::mirror(self.region))
                            .snap()
                            .start(),
                        GetSpec::new().merge(self.region),
                    )?;
                }
                StopReason::Trap(k) => return Err(RtError::ChildTrapped(k)),
                _ => return Err(RtError::Invalid("thread in unexpected state at barrier")),
            }
        }
    }
}

/// Child side: arrive at a barrier and wait for the group (§4.4).
///
/// The caller's subsequent reads see the *merged* state of all threads
/// from before the barrier.
pub fn barrier(ctx: &mut SpaceCtx) -> std::result::Result<(), KernelError> {
    ctx.ret(RET_BARRIER)
}

/// Child side: this thread's id (`r2`, set by [`ThreadGroup::fork`]).
pub fn thread_id(ctx: &SpaceCtx) -> u64 {
    ctx.regs().gpr[2]
}
