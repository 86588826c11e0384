//! det-conform: the N-replica conformance harness with divergence
//! localization.
//!
//! Determinator's promise is that a computation's observable outcome
//! is a pure function of its inputs — independent of host scheduling
//! and core count. This crate *enforces*
//! that promise mechanically:
//!
//! 1. every example and workload is registered as a library-callable
//!    [`scenario::Scenario`];
//! 2. the [`harness`] runs N replicas of each scenario (optionally
//!    under chaotic host load) and collects a canonical
//!    [`bundle::Artifacts`] per replica — exit status, virtual clock,
//!    the full deterministic stats vector, device outputs, per-space
//!    memory digests keyed by lineage path, and the syscall trace
//!    projected into per-space streams;
//! 3. bundles are serialized byte-stably and compared byte-for-byte
//!    (two bundles equal as values are not serialized at all);
//! 4. on mismatch, [`diff`] reports the first divergent byte offset
//!    with hex context and classifies the root cause: schedule/trace
//!    divergence vs page content vs stat drift vs device output.
//!
//! The `conform` binary drives the same machinery from CI
//! (`conform --replicas 3`) and nightly chaos runs
//! (`conform --replicas 10 --chaos`). The `seeded` binary re-runs the
//! checked-in table of seeded bugs ([`seeded`]) that the tests must
//! catch. The `pair` binary benchmarks a parent and a change in
//! alternating detbench runs and judges a host-time claim ([`pair`]);
//! both check their revisions out with [`worktree`]. The `gates` binary
//! holds a detbench ledger to the checked-in table of bounds ([`gates`]).

#![warn(missing_docs)]

pub mod bundle;
pub mod diff;
pub mod gates;
pub mod harness;
pub mod pair;
pub mod scenario;
pub mod seeded;
pub mod worktree;

pub use bundle::{Artifacts, Scope, TraceStreams};
pub use diff::{Divergence, DivergenceCategory, compare, first_diff, hex_context};
pub use harness::{
    ChaosLoad, ConformConfig, RecoveryReport, ScenarioReport, conform_all, conform_scenario,
    crash_recovery_check, root_syscalls,
};
pub use scenario::{Scenario, ScenarioConfig, ScenarioRun, find, registry};
