//! **determinator** — a Rust reproduction of *"Efficient
//! System-Enforced Deterministic Parallelism"* (Aviram, Weng, Hu,
//! Ford; OSDI 2010).
//!
//! Determinator is an operating system that makes *all* unprivileged
//! computation deterministic by construction: user code runs in a
//! hierarchy of single-threaded [`kernel::SpaceCtx`] *spaces* with
//! private virtual memory, three system calls (Put/Get/Ret), and no
//! access to any nondeterministic input except explicit, loggable
//! device events at the root. On top, a user-level runtime rebuilds
//! processes, a shared file system, shared-memory threads and even
//! legacy lock-based APIs — all race-free or
//! deterministically-scheduled.
//!
//! This crate is a facade with an *intentional* public surface: every
//! name below is re-exported explicitly (no glob re-exports), so the
//! API a release promises is exactly what this file lists. Start with
//! [`prelude`] for the common vocabulary, or reach into a domain
//! module:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`memory`] | `det-memory` | paged COW address spaces, snapshots, byte-granularity merge |
//! | [`vm`] | `det-vm` | deterministic RISC-style VM with exact instruction limits |
//! | [`kernel`] | `det-kernel` | spaces, Put/Get/Ret, devices, virtual-time cost model, trace record/replay |
//! | [`runtime`] | `det-runtime` | fork/exec/wait, replicated fs, threads, dsched, shell |
//! | [`cluster`] | `det-cluster` | space migration across kernel shards over a simulated link |
//! | [`workloads`] | `det-workloads` | the paper's benchmarks + baselines |
//! | [`conform`] | `det-conform` | N-replica conformance harness with divergence localization |
//! | [`analyze`] | `det-analyze` | sound VM footprint/conflict analysis + the workspace determinism lint |
//!
//! # Quickstart
//!
//! The paper's headline example: two "threads" racing on `x` and `y`
//! swap them cleanly, because each works in a private workspace and
//! the kernel merges their writes at join:
//!
//! ```
//! use determinator::prelude::*;
//!
//! let shared = Region::new(0x1000, 0x2000);
//! let (x, y) = (0x1000, 0x1008);
//! let out = Kernel::new(KernelConfig::default()).run(move |ctx| {
//!     ctx.mem_mut().map_zero(shared, Perm::RW)?;
//!     ctx.mem_mut().write_u64(x, 1)?;
//!     ctx.mem_mut().write_u64(y, 2)?;
//!     ctx.put(0, PutSpec::new()
//!         .program(Program::native(move |c| {
//!             let v = c.mem().read_u64(y)?;
//!             c.mem_mut().write_u64(x, v)?; // x = y
//!             Ok(0)
//!         }))
//!         .copy(CopySpec::mirror(shared)).snap().start())?;
//!     ctx.put(1, PutSpec::new()
//!         .program(Program::native(move |c| {
//!             let v = c.mem().read_u64(x)?;
//!             c.mem_mut().write_u64(y, v)?; // y = x
//!             Ok(0)
//!         }))
//!         .copy(CopySpec::mirror(shared)).snap().start())?;
//!     ctx.get(0, GetSpec::new().merge(shared))?;
//!     ctx.get(1, GetSpec::new().merge(shared))?;
//!     assert_eq!(ctx.mem().read_u64(x)?, 2);
//!     assert_eq!(ctx.mem().read_u64(y)?, 1);
//!     Ok(0)
//! });
//! assert_eq!(out.exit, Ok(0));
//! ```
//!
//! # Record and replay
//!
//! Attach a [`TraceSink`] and the kernel records every syscall-level
//! transition; the collected [`Trace`] re-applies through the pure
//! state machine — *no execution vehicles* — and reproduces the same
//! stats, digests, and virtual clock (see `examples/replay.rs`):
//!
//! ```
//! use determinator::prelude::*;
//!
//! let sink = TraceSink::new();
//! let cfg = KernelConfig::builder().trace(sink.clone()).build();
//! let live = Kernel::new(cfg).run(|ctx| {
//!     ctx.mem_mut().map_zero(Region::new(0, 0x1000), Perm::RW)?;
//!     Ok(7)
//! });
//! let trace = sink.collect().expect("run was traced");
//! let replayed = trace.replay().expect("trace replays");
//! assert_eq!(replayed.exit, live.exit);
//! assert_eq!(replayed.vclock_ns, live.vclock_ns);
//! ```
//!
//! See `examples/` for the actor simulation (Figure 1), the parallel
//! make scenario (Figure 4), the scripted shell, record/replay, and
//! cluster distribution.

#![warn(missing_docs)]

// The headline API, also available unqualified at the crate root.
pub use det_kernel::{
    CostModel, HostStats, Kernel, KernelConfig, KernelConfigBuilder, KernelError, KernelStats,
    ReplayOutcome, RunOutcome, SpaceArtifact, Trace, TraceEvent, TraceMeta, TraceSink,
};

/// The common vocabulary for driving a deterministic kernel: one
/// `use determinator::prelude::*` covers kernel construction, the
/// Put/Get/Ret syscall surface, memory regions, and trace
/// record/replay.
pub mod prelude {
    pub use det_kernel::{
        CopySpec, CostModel, DeviceId, GetResult, GetSpec, IoMode, Kernel, KernelConfig,
        KernelConfigBuilder, KernelError, KernelStats, Program, PutResult, PutSpec, ReplayOutcome,
        RunOutcome, SpaceCtx, StartSpec, StopReason, Trace, TraceMeta, TraceSink, TrapKind,
    };
    pub use det_memory::{ConflictPolicy, Perm, Region};
}

/// Paged copy-on-write memory: `det-memory`.
pub mod memory {
    pub use det_memory::{
        AccessTracker, AddressSpace, CloneStats, ConflictPolicy, ContentDigest, Frame, MemError,
        MergeConflict, MergeStats, PAGE_SHIFT, PAGE_SIZE, PAGES_PER_LEAF, PageDelta, PageDeltaOp,
        PageInfo, Perm, Pinned, Region, Result, SpaceDelta, Translation, reference,
    };
}

/// Deterministic virtual CPU: `det-vm`.
pub mod vm {
    pub use det_vm::{
        AsmError, Cpu, CpuCacheStats, DecodeError, Image, Insn, Opcode, Regs, VmExit, VmTrap,
        assemble, corpus, decode, disassemble, encode,
    };
}

/// The Determinator kernel: `det-kernel`.
pub mod kernel {
    pub use det_kernel::{
        CHECKPOINT_FORMAT_VERSION, Checkpoint, Checkpointer, ChildNum, CopySpec, CostModel,
        DeviceId, EntryRec, Fault, FaultAction, FaultPlan, FaultSite, GetResult, GetSpec,
        HostStats, InputEvent, InputHandle, IoLog, IoMode, Kernel, KernelConfig,
        KernelConfigBuilder, KernelError, KernelStats, MergeStatsSerde, NativeEntry, NativeResult,
        Program, ProgramKind, PutRec, PutResult, PutSpec, ReplayOutcome, RestoredKernel, Result,
        RunOutcome, SpaceArtifact, SpaceCtx, SpaceId, StartSpec, StopReason, Trace, TraceEvent,
        TraceMeta, TraceSink, TrapKind, VmCounters, full_user_region, latest_restorable_boundary,
        ns_to_ps, ps_to_ns, restore_chain,
    };
    // Substrate types the kernel API surfaces directly.
    pub use det_memory::{
        AddressSpace, ConflictPolicy, MemError, MergeConflict, MergeStats, Perm, Region,
    };
    pub use det_vm::Regs;
}

/// User-level runtime: `det-runtime`.
pub mod runtime {
    pub use det_runtime::{
        ExitStatus, FileSys, JoinResult, Pid, Proc, ProgramRegistry, ReconcileStats, Result,
        RtError, ThreadGroup, barrier, dsched, fs, layout, proc, run_deterministic,
        run_process_tree, run_process_tree_on, shell, thread_id, threads,
    };
}

/// The shard cluster runtime: `det-cluster`.
pub mod cluster {
    pub use det_cluster::{
        ClusterOutcome, ClusterSpec, ClusterStats, JobArtifact, JobFn, JobOutcome, JobSpec,
        NetworkModel, Remote,
    };
}

/// The paper's benchmarks: `det-workloads`.
pub mod workloads {
    pub use det_workloads::{
        Mode, RunResult, baseline_costs, blackscholes, dist, fft, lu, mathx, matmult, md5, qsort,
        secs, sharded, speedup,
    };
}

/// Sound static analysis + determinism lint: `det-analyze`.
pub mod analyze {
    pub use det_analyze::{
        Analysis, AnalyzeConfig, Footprint, MustWrite, PageSet, Segment, Val, Verdict, analyze,
        analyze_with_regs, classify, classify_with_base, lint,
    };
}

/// The conformance harness: `det-conform`.
pub mod conform {
    pub use det_conform::{
        Artifacts, ChaosLoad, ConformConfig, Divergence, DivergenceCategory, Scenario,
        ScenarioConfig, ScenarioReport, ScenarioRun, Scope, compare, conform_all, conform_scenario,
        find, first_diff, hex_context, registry,
    };
}
