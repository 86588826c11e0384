//! The Determinator microkernel (OSDI 2010), reproduced as a library.
//!
//! The kernel executes application code in an arbitrarily deep
//! hierarchy of *spaces* (§3.1): single control flows with private
//! registers and private virtual memory, no globally shared state, and
//! exactly three system calls — [`SpaceCtx::put`], [`SpaceCtx::get`],
//! [`SpaceCtx::ret`] — each interacting only with the space's
//! immediate parent or children. Nondeterministic inputs exist only as
//! explicit [`DeviceId`] events readable by the root space, which can
//! record and replay them.
//!
//! Because Put/Get/Ret reduce to blocking one-to-one channels, the
//! space hierarchy forms a deterministic Kahn network: every
//! unprivileged computation is repeatable regardless of how the host
//! schedules the execution vehicles. The integration tests assert this
//! empirically by rerunning racy workloads under perturbed host
//! schedules and comparing memory digests.
//!
//! Time is *virtual* (see `DESIGN.md`): spaces carry virtual clocks,
//! charged by declared compute work (native programs), exact
//! instruction counts (VM programs), and the [`CostModel`] for kernel
//! operations. Rendezvous propagates clocks (`parent = max(parent,
//! child)`), so a run's root clock is the parallel makespan that the
//! paper's wall-clock figures measure.
//!
//! # Examples
//!
//! Fork-join with private workspaces — the paper's `x = y ∥ y = x`
//! swap (§2.2), race-free by construction:
//!
//! ```
//! use det_kernel::{CopySpec, GetSpec, Kernel, KernelConfig, Program, PutSpec};
//! use det_memory::{Perm, Region};
//!
//! let shared = Region::new(0x1000, 0x2000);
//! let outcome = Kernel::new(KernelConfig::default()).run(move |ctx| {
//!     ctx.mem_mut().map_zero(shared, Perm::RW)?;
//!     ctx.mem_mut().write_u64(0x1000, 1)?; // x
//!     ctx.mem_mut().write_u64(0x1008, 2)?; // y
//!     for (i, prog) in [
//!         Program::native(|c: &mut det_kernel::SpaceCtx| {
//!             let y = c.mem().read_u64(0x1008)?;
//!             c.mem_mut().write_u64(0x1000, y)?; // x = y
//!             Ok(0)
//!         }),
//!         Program::native(|c: &mut det_kernel::SpaceCtx| {
//!             let x = c.mem().read_u64(0x1000)?;
//!             c.mem_mut().write_u64(0x1008, x)?; // y = x
//!             Ok(0)
//!         }),
//!     ]
//!     .into_iter()
//!     .enumerate()
//!     {
//!         ctx.put(
//!             i as u64,
//!             PutSpec::new()
//!                 .program(prog)
//!                 .copy(CopySpec::mirror(shared))
//!                 .snap()
//!                 .start(),
//!         )?;
//!     }
//!     for i in 0..2u64 {
//!         ctx.get(i, GetSpec::new().merge(shared))?;
//!     }
//!     assert_eq!(ctx.mem().read_u64(0x1000)?, 2); // swapped
//!     assert_eq!(ctx.mem().read_u64(0x1008)?, 1);
//!     Ok(0)
//! });
//! assert_eq!(outcome.exit, Ok(0));
//! ```

#![warn(missing_docs)]

mod apply;
mod checkpoint;
mod cost;
mod ctx;
mod device;
mod error;
mod fault;
mod ids;
mod kernel;
mod program;
mod state;
mod stats;
mod syscall;
mod trace;
pub mod wire;

pub use apply::{EntryRec, PutRec, TraceEvent, VmCounters};
pub use checkpoint::{
    CHECKPOINT_FORMAT_VERSION, Checkpoint, RestoredKernel, latest_restorable_boundary,
};
pub use cost::{CostModel, ns_to_ps, ps_to_ns};
pub use ctx::SpaceCtx;
pub use device::{DeviceId, InputEvent, IoLog, IoMode};
pub use error::{KernelError, Result, TrapKind};
pub use fault::{Fault, FaultAction, FaultPlan, FaultSite};
pub use ids::{ChildNum, SpaceId};
pub use kernel::{InputHandle, Kernel, KernelConfig, KernelConfigBuilder, RunOutcome};
pub use program::{NativeEntry, NativeResult, Program};
pub use state::ProgramKind;
pub use stats::{HostStats, KernelStats, MergeStatsSerde};
pub use syscall::{CopySpec, GetResult, GetSpec, PutResult, PutSpec, StartSpec, StopReason};
pub use trace::{ReplayOutcome, SpaceArtifact, Trace, TraceMeta, TraceSink};

// Re-export the substrate types the kernel API exposes.
pub use det_memory::{
    AddressSpace, ConflictPolicy, MemError, MergeConflict, MergeStats, Perm, Region,
};
pub use det_vm::Regs;
