//! Determinator's user-level runtime (§4): familiar abstractions
//! rebuilt, race-free, on the three-syscall kernel.
//!
//! Everything here runs in user space on top of
//! [`det_kernel`]: bugs in this crate cannot compromise the kernel's
//! determinism guarantee, and applications are free to replace any of
//! it (§1).
//!
//! * [`proc`] — Unix processes: `fork`/`exec`/`wait` with
//!   process-local PID namespaces (§4.1), file descriptors, and the
//!   parent-mediated console I/O protocol (§4.3).
//! * [`fs`] — the logically shared file system: a replica per
//!   process, reconciled with file versioning at synchronization
//!   points; append-only merge for console/log files (§4.2–4.3).
//! * [`threads`] — shared-memory threads in the private workspace
//!   model: fork/join and barriers via `Snap`/`Merge` (§4.4).
//! * [`dsched`] — a deterministic scheduler emulating mutex/condvar
//!   APIs with quantum preemption and mutex ownership stealing (§4.5).
//! * [`shell`] — a scripted shell with redirection and pipelines (§5).
//!
//! # Examples
//!
//! The paper's Figure 1 pattern — fork a thread per actor, update in
//! place, join, with no data races by construction:
//!
//! ```
//! use det_kernel::KernelConfig;
//! use det_memory::{Perm, Region};
//! use det_runtime::threads::ThreadGroup;
//!
//! let shared = Region::new(0x10000, 0x11000);
//! let out = det_runtime::run_deterministic(KernelConfig::default(), move |ctx| {
//!     ctx.mem_mut().map_zero(shared, Perm::RW)?;
//!     let mut group = ThreadGroup::new(ctx, shared, 0);
//!     for i in 0..4u64 {
//!         group.fork(i, move |c| {
//!             // Each thread updates its own actor slot "in place".
//!             c.mem_mut().write_u64(0x10000 + i * 8, (i + 1) * 11)?;
//!             Ok(0)
//!         })?;
//!     }
//!     for i in 0..4u64 {
//!         group.join(i)?;
//!     }
//!     assert_eq!(ctx.mem().read_u64(0x10018)?, 44);
//!     Ok(0)
//! });
//! assert_eq!(out.exit, Ok(0));
//! ```

pub mod dsched;
pub mod error;
pub mod fs;
pub mod layout;
pub mod proc;
pub mod shell;
pub mod threads;

pub use error::{Result, RtError};
pub use fs::{FileSys, ImageForm, ReconcileStats};
pub use proc::{ExitStatus, Pid, Proc, ProgramRegistry, run_process_tree, run_process_tree_on};
pub use threads::{JoinResult, ThreadGroup, barrier, thread_id};

/// Runs a root program that uses the runtime's [`Result`] type on a
/// fresh kernel, bridging runtime errors to kernel traps at the
/// boundary.
pub fn run_deterministic<F>(config: det_kernel::KernelConfig, root: F) -> det_kernel::RunOutcome
where
    F: FnOnce(&mut det_kernel::SpaceCtx) -> Result<i32>,
{
    det_kernel::Kernel::new(config).run(|ctx| root(ctx).map_err(RtError::into_kernel))
}
