//! det-analyze: sound static footprint analysis for the det-vm ISA,
//! plus `detlint`, the workspace determinism lint.
//!
//! Determinator answers "did these children conflict?" *dynamically*:
//! the merge compares bytes at Ret time and any race becomes a
//! deterministic conflict exception (DESIGN.md §4). This crate answers
//! a narrower static question — which pages can a program touch:
//!
//! * [`footprint::analyze`] runs an abstract interpreter (interval +
//!   stride domain, [`domain::Val`]) over a VM program and returns a
//!   **sound over-approximation** of the pages it can read and write.
//!   Soundness is the load-bearing property — the predicted write set
//!   must contain every page the program can dirty under any schedule
//!   — and is enforced differentially in CI against every registered
//!   VM scenario and a 200-case random-program proptest. The cluster
//!   uses [`footprint::Footprint::touch_regions`] as a leaf-pull
//!   prefetch hint (DESIGN.md §10/§11) without risking a miss.
//! * [`lint`] is the determinism lint: token-level rules that keep
//!   host clocks, randomized-iteration collections, and impurity out
//!   of the deterministic substrate, workspace-wide.
//!
//! The two binaries (`analyze`, `detlint`) are thin CLI wrappers used
//! by CI: `analyze` is the footprint-soundness gate and nightly report
//! generator, `detlint` exits nonzero on any un-allowlisted finding
//! and on any allowlist entry that waives nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domain;
pub mod footprint;
pub mod gate;
pub mod lint;

pub use domain::Val;
pub use footprint::{
    Analysis, AnalyzeConfig, Footprint, PageSet, Segment, analyze, analyze_with_regs,
};
