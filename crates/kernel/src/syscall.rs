//! Syscall request and result types: the options of Table 2.
//!
//! A [`PutSpec`]/[`GetSpec`] pair can also travel through the fused
//! `PutGet` exchange ([`crate::SpaceCtx::put_get`]): the Put options
//! apply at the child's current stop, the child restarts, and the Get
//! options collect its *next* stop — the runtime's dominant
//! resume→collect pattern as one kernel entry instead of two.

use det_memory::{MergeStats, Perm, Region};
use det_vm::Regs;
use serde::{Deserialize, Serialize};

use crate::error::TrapKind;
use crate::ids::ChildNum;
use crate::program::Program;

/// A memory copy between the invoking space and a child.
///
/// On `Put` the data flows parent → child; on `Get`, child → parent.
/// `src` is a page-aligned region in the source space; `dst` is the
/// page-aligned destination start address. The copy is virtual
/// (copy-on-write shared frames).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CopySpec {
    /// Source region (in the space data flows *from*).
    pub src: Region,
    /// Destination start address (in the space data flows *to*).
    pub dst: u64,
}

impl CopySpec {
    /// Copies `src` to the same addresses in the destination space.
    pub fn mirror(src: Region) -> CopySpec {
        CopySpec {
            src,
            dst: src.start,
        }
    }
}

/// The `Start` option: begin (or resume) child execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct StartSpec {
    /// Work limit in virtual nanoseconds; the child is preempted back
    /// to the parent when its charged work reaches the limit (the
    /// paper's instruction limit, §3.2; exact for VM programs,
    /// checked at kernel entry points for native programs).
    pub limit_ns: Option<u64>,
}

/// Options to the `Put` system call (Table 2).
///
/// All options may be combined in one call; they are applied in the
/// order: `regs`, `program`, `copy`, `zero`, `perm`, `tree`, `snap`,
/// `start`. The first one that fails ends the call: later options do
/// not run, nothing is started, and the caller is billed only the
/// syscall entry.
#[derive(Default, Debug)]
pub struct PutSpec {
    /// Set the child's register state.
    ///
    /// Applied first, before `program`'s install check — so a `Put`
    /// of `regs` and `program` onto a resumable child returns
    /// [`ChildActive`](crate::KernelError::ChildActive) *with the
    /// registers written* (pinned by the Tables 1–2 rows in
    /// `tests/kernel_core.rs`).
    pub regs: Option<Regs>,
    /// Install the child's program.
    ///
    /// On real hardware the program *is* the memory image copied by
    /// `copy` plus the entry point in `regs`; for VM programs that is
    /// literally true here ([`Program::Vm`] executes from the child's
    /// memory). Native programs additionally carry a host closure,
    /// this library's analogue of the loaded text segment.
    pub program: Option<Program>,
    /// Copy a virtual memory range into the child.
    pub copy: Option<CopySpec>,
    /// Zero-fill a range in the child (mapping it if needed).
    pub zero: Option<Region>,
    /// Set page permissions on a range in the child.
    pub perm: Option<(Region, Perm)>,
    /// Save a reference snapshot of the child's (post-copy) memory.
    pub snap: bool,
    /// Copy the complete state (registers, memory, snapshot, and
    /// recursively all descendants) of another of the caller's
    /// children into this child — the `Tree` option, used for
    /// checkpointing and migration.
    pub tree_from: Option<ChildNum>,
    /// Start the child executing.
    pub start: Option<StartSpec>,
}

impl PutSpec {
    /// An empty request (pure synchronization).
    pub fn new() -> PutSpec {
        PutSpec::default()
    }

    /// Sets the child's registers.
    pub fn regs(mut self, r: Regs) -> Self {
        self.regs = Some(r);
        self
    }

    /// Installs the child's program.
    pub fn program(mut self, p: Program) -> Self {
        self.program = Some(p);
        self
    }

    /// Copies a memory range into the child.
    pub fn copy(mut self, c: CopySpec) -> Self {
        self.copy = Some(c);
        self
    }

    /// Copies `region` to the same addresses in the child.
    pub fn copy_mirror(self, region: Region) -> Self {
        self.copy(CopySpec::mirror(region))
    }

    /// Zero-fills a range in the child.
    pub fn zero(mut self, r: Region) -> Self {
        self.zero = Some(r);
        self
    }

    /// Sets permissions on a range in the child.
    pub fn perm(mut self, r: Region, p: Perm) -> Self {
        self.perm = Some((r, p));
        self
    }

    /// Saves a snapshot of the child's memory.
    pub fn snap(mut self) -> Self {
        self.snap = true;
        self
    }

    /// Copies another child's subtree state into this child.
    pub fn tree_from(mut self, src: ChildNum) -> Self {
        self.tree_from = Some(src);
        self
    }

    /// Starts the child (no limit).
    pub fn start(mut self) -> Self {
        self.start = Some(StartSpec::default());
        self
    }

    /// Starts the child with a work limit in virtual nanoseconds.
    pub fn start_limited(mut self, limit_ns: u64) -> Self {
        self.start = Some(StartSpec {
            limit_ns: Some(limit_ns),
        });
        self
    }
}

/// Options to the `Get` system call (Table 2).
///
/// Applied in the order: `regs` (read), `copy`, `merge`, `zero`,
/// `perm`; `zero`/`perm` manipulate the *child* (for example, clearing
/// a buffer after collecting it). The caller is billed for the work
/// when every option succeeded and when the merge found a conflict;
/// any other failure ends the call with what ran kept and only the
/// syscall entry billed.
#[derive(Clone, Copy, PartialEq, Default, Debug, Serialize, Deserialize)]
pub struct GetSpec {
    /// Read the child's register state into the result.
    pub regs: bool,
    /// Copy a range out of the child.
    pub copy: Option<CopySpec>,
    /// Merge the child's changes since its snapshot into the caller
    /// over this range.
    pub merge: Option<Region>,
    /// Conflict policy for this merge, the only place one is chosen:
    /// `None` is [`ConflictPolicy::Strict`](det_memory::ConflictPolicy)
    /// (§2.2), and the deterministic scheduler asks for `ChildWins`.
    pub merge_policy: Option<det_memory::ConflictPolicy>,
    /// Zero-fill a range in the child.
    pub zero: Option<Region>,
    /// Set page permissions on a range in the child.
    pub perm: Option<(Region, Perm)>,
}

impl GetSpec {
    /// An empty request (pure synchronization — "wait for child").
    pub fn new() -> GetSpec {
        GetSpec::default()
    }

    /// Reads the child's registers.
    pub fn regs(mut self) -> Self {
        self.regs = true;
        self
    }

    /// Copies a range out of the child.
    pub fn copy(mut self, c: CopySpec) -> Self {
        self.copy = Some(c);
        self
    }

    /// Merges the child's changes over `region`.
    pub fn merge(mut self, region: Region) -> Self {
        self.merge = Some(region);
        self
    }

    /// Sets the conflict policy for this merge (`Strict` when unset).
    pub fn merge_policy(mut self, policy: det_memory::ConflictPolicy) -> Self {
        self.merge_policy = Some(policy);
        self
    }

    /// Zero-fills a range in the child.
    pub fn zero(mut self, r: Region) -> Self {
        self.zero = Some(r);
        self
    }

    /// Sets permissions on a range in the child.
    pub fn perm(mut self, r: Region, p: Perm) -> Self {
        self.perm = Some((r, p));
        self
    }
}

/// Why a child is stopped, as observed by its parent.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum StopReason {
    /// Never started.
    Unstarted,
    /// Called `Ret` (or `sys 0` in VM code) and is resumable.
    Ret,
    /// Its program finished; the exit status is in `r1`.
    Halted,
    /// Trapped; resumable after the parent repairs state.
    Trap(TrapKind),
    /// Preempted by its work limit; resumable.
    LimitReached,
}

impl StopReason {
    /// True if `Put` with `Start` can resume the child.
    pub fn resumable(self) -> bool {
        matches!(
            self,
            StopReason::Ret | StopReason::Trap(_) | StopReason::LimitReached
        )
    }
}

/// Result of a `Put`.
#[derive(Clone, Copy, Debug)]
pub struct PutResult {
    /// The child's stop state when the rendezvous happened (before any
    /// `start` in this call).
    pub child_was: StopReason,
}

/// Result of a `Get`.
#[derive(Clone, Debug)]
pub struct GetResult {
    /// Why the child is stopped.
    pub stop: StopReason,
    /// The child's `r1` (exit-status convention).
    pub code: u64,
    /// The child's registers, if requested.
    pub regs: Option<Regs>,
    /// Merge statistics, if a merge was requested.
    pub merge: Option<MergeStats>,
    /// The child's virtual clock at the rendezvous, in nanoseconds.
    pub child_vclock_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let r = Region::new(0x1000, 0x3000);
        let spec = PutSpec::new()
            .regs(Regs::at_entry(0x40))
            .copy_mirror(r)
            .perm(r, Perm::RW)
            .snap()
            .start_limited(1_000);
        assert!(spec.regs.is_some());
        assert!(spec.snap);
        assert_eq!(spec.start.unwrap().limit_ns, Some(1_000));
        assert_eq!(spec.copy.unwrap().dst, 0x1000);

        let g = GetSpec::new().regs().merge(r);
        assert!(g.regs);
        assert_eq!(g.merge.unwrap(), r);
    }

    #[test]
    fn resumability() {
        assert!(StopReason::Ret.resumable());
        assert!(StopReason::LimitReached.resumable());
        assert!(StopReason::Trap(TrapKind::Panic).resumable());
        assert!(!StopReason::Halted.resumable());
        assert!(!StopReason::Unstarted.resumable());
    }
}
