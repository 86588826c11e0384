//! The virtual-time cost model.
//!
//! The reproduction host has a single CPU, so the paper's wall-clock
//! figures are regenerated in *virtual time* (see DESIGN.md): every
//! space carries a virtual clock, advanced by (a) compute work the
//! program declares or the VM counts, and (b) kernel operation costs
//! from this model. Operation *counts* are real — pages copied, bytes
//! compared and copied by merges, syscalls — only the unit costs are
//! parameters, calibrated to commodity hardware of the paper's era
//! (2.2 GHz Opteron, §6.2). `detbench run --trace` (benchmark/)
//! measures the real unit costs of this substrate so the calibration
//! can be checked.
//!
//! All costs are in **picoseconds** to avoid rounding sub-nanosecond
//! per-byte costs; public clock readings are in nanoseconds.

use serde::{Deserialize, Serialize};

use det_memory::MergeStats;

/// Picoseconds per unit of kernel work.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CostModel {
    /// Fixed cost of entering the kernel (trap + dispatch).
    pub syscall_ps: u64,
    /// Cost of creating and dispatching a fresh space execution
    /// (thread creation analogue; first `Start`).
    pub spawn_ps: u64,
    /// Cost of resuming an already-live space (`Start` on a parked
    /// space; scheduler dispatch analogue).
    pub resume_ps: u64,
    /// Cost a space pays to park at a rendezvous (`Ret`, a trap, or a
    /// limit preemption): checking its state in and handing control to
    /// the waiting side. Charged once per resumable check-in,
    /// whichever host thread ran the space (its own, or its waiter's),
    /// so virtual time is execution-vehicle-invariant.
    pub rendezvous_ps: u64,
    /// Per-page cost of copy-on-write mapping (zero-fill, the boundary
    /// pages a virtual copy walks individually — a range that shares
    /// its page-table leaf with something else, is shorter than
    /// `det_memory::SUBLEAF_SHARE_MIN_PAGES`, or lands at other
    /// offsets within its leaf — and every page a merge remaps into
    /// the parent instead of diffing, `MergeStats::pages_adopted`).
    pub page_map_ps: u64,
    /// Per-leaf cost of a structural clone: sharing one 512-page
    /// page-table leaf during a snapshot or a leaf-congruent virtual
    /// copy (`det_memory::PAGES_PER_LEAF` pages per unit). This is
    /// what makes fork/snapshot O(pages-touched) in virtual time too —
    /// a 4 MiB snapshot charges 2 leaves, not 1024 pages. A virtual
    /// copy charges it for every leaf its range covers whole and for
    /// every leaf the range is alone in; `SUBLEAF_SHARE_MIN_PAGES` is
    /// the page count from which this is the smaller bill, so the rule
    /// never raises a charge. Un-sharing the leaf at the first write
    /// is not charged, for these copies as for every other
    /// copy-on-write fault (ROADMAP item 2b).
    pub space_clone_ps: u64,
    /// Per-page cost of scanning a page table entry during merge.
    pub page_scan_ps: u64,
    /// Per-chunk cost of an 8-byte word comparison during merge
    /// diffing (the engine's fast path).
    pub word_compare_ps: u64,
    /// Per-byte cost of comparing bytes during merge diffing (paid
    /// only inside mismatching words).
    pub byte_compare_ps: u64,
    /// Per-byte cost of copying merged bytes into the parent.
    pub byte_copy_ps: u64,
    /// Cost of one interpreted VM instruction (1 GIPS default).
    ///
    /// This is the *TLB-hit* rate: an instruction whose fetch and data
    /// access hit the VM's software TLB / decoded-instruction cache
    /// costs exactly this.
    pub vm_insn_ps: u64,
    /// Cost of one page-table walk performed on the VM's behalf — a
    /// TLB fill or a slow-path access (first touch of a page, a
    /// page-crossing access, or a translation invalidated by a kernel
    /// operation). Charged *in addition to* `vm_insn_ps` for the
    /// instruction that missed, mirroring a hardware TLB miss.
    pub vm_tlb_fill_ps: u64,
    /// Per-dirty-leaf cost of a checkpoint mark: persisting one
    /// page-table leaf's worth of dirty-delta state. The `Checkpoint`
    /// syscall charges this per leaf holding dirty pages, so a mark
    /// costs O(dirty) in virtual time, as a real incremental
    /// checkpoint's work is — and nothing extra when the space is
    /// clean.
    pub checkpoint_leaf_ps: u64,
}

impl CostModel {
    /// Calibration resembling the paper's 2.2 GHz Opteron testbed:
    /// ~0.5 µs syscalls, ~25 µs space creation, ~30 ns/page of
    /// page-table work for individually COW-mapped pages, ~300 ns per
    /// structurally-shared page-table leaf (copying one page-directory
    /// entry plus refcount work — the per-512-pages unit of snapshot
    /// and virtual-copy cost), ~1 cycle (~0.45 ns) per 8-byte word
    /// compare on the merge fast path, memcpy/memcmp-class per-byte
    /// costs (~0.25–0.3 ns/byte) for the byte-granularity slow path,
    /// and a ~20 ns TLB fill (a software page-table walk, same order
    /// as `page_scan_ps`). A rendezvous park costs ~1 µs (check-in
    /// plus a targeted wake of the one waiting side — a context-
    /// switch-class cost, checked against the `rendezvous` bench
    /// group's threaded path).
    pub fn calibrated() -> CostModel {
        CostModel {
            syscall_ps: 500_000,
            spawn_ps: 25_000_000,
            resume_ps: 2_000_000,
            rendezvous_ps: 1_000_000,
            page_map_ps: 30_000,
            space_clone_ps: 300_000,
            page_scan_ps: 20_000,
            word_compare_ps: 450,
            byte_compare_ps: 250,
            byte_copy_ps: 300,
            vm_insn_ps: 1_000,
            vm_tlb_fill_ps: 20_000,
            checkpoint_leaf_ps: 300_000,
        }
    }

    /// Cost of copy-on-write mapping `pages` pages individually.
    pub fn map_cost_ps(&self, pages: u64) -> u64 {
        self.page_map_ps.saturating_mul(pages)
    }

    /// Cost of structurally sharing `leaves` page-table leaves (one
    /// snapshot or leaf-congruent virtual copy charges this per leaf
    /// instead of `page_map_ps` per mapped page).
    pub fn clone_cost_ps(&self, leaves: u64) -> u64 {
        self.space_clone_ps.saturating_mul(leaves)
    }

    /// Cost of a virtual copy with the given structural-clone counts:
    /// shared leaves at the per-leaf rate, boundary pages at the
    /// per-page rate.
    pub fn copy_cost_ps(&self, stats: &det_memory::CloneStats) -> u64 {
        self.clone_cost_ps(stats.leaves_shared)
            .saturating_add(self.map_cost_ps(stats.boundary_pages))
    }

    /// Cost of a checkpoint mark persisting `leaves` dirty page-table
    /// leaves (see [`CostModel::checkpoint_leaf_ps`]).
    pub fn checkpoint_cost_ps(&self, leaves: u64) -> u64 {
        self.checkpoint_leaf_ps.saturating_mul(leaves)
    }

    /// Cost of a merge with the given statistics. Pages skipped via
    /// the dirty write-set (`pages_skipped_clean`) and via a
    /// structurally-shared leaf (`pages_skipped_shared`, one pointer
    /// compare per 512-page block) are free — those are the
    /// optimizations the stats exist to prove out. A page only the
    /// child wrote (`pages_adopted`) costs its scan plus one page-table
    /// update, `page_scan_ps + page_map_ps`, whatever it holds; the
    /// word, byte-compare and byte-copy terms are paid only for pages
    /// both sides wrote (and a full page of `byte_copy_ps` for each
    /// page the child created).
    pub fn merge_cost_ps(&self, stats: &MergeStats) -> u64 {
        self.page_scan_ps
            .saturating_mul(stats.pages_scanned)
            .saturating_add(self.map_cost_ps(stats.pages_adopted))
            .saturating_add(self.word_compare_ps.saturating_mul(stats.words_compared))
            .saturating_add(self.byte_compare_ps.saturating_mul(stats.bytes_compared))
            .saturating_add(self.byte_copy_ps.saturating_mul(stats.bytes_copied))
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::calibrated()
    }
}

/// Converts picoseconds to nanoseconds (rounding down).
pub fn ps_to_ns(ps: u64) -> u64 {
    ps / 1000
}

/// Converts nanoseconds to picoseconds (saturating).
pub fn ns_to_ps(ns: u64) -> u64 {
    ns.saturating_mul(1000)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// All-zero costs but the instruction: virtual time advances only
    /// through explicit program charges and retired instructions.
    pub(crate) fn zero() -> CostModel {
        CostModel {
            syscall_ps: 0,
            spawn_ps: 0,
            resume_ps: 0,
            rendezvous_ps: 0,
            page_map_ps: 0,
            space_clone_ps: 0,
            page_scan_ps: 0,
            word_compare_ps: 0,
            byte_compare_ps: 0,
            byte_copy_ps: 0,
            vm_insn_ps: 1_000,
            vm_tlb_fill_ps: 0,
            checkpoint_leaf_ps: 0,
        }
    }

    #[test]
    fn merge_cost_combines_terms() {
        let m = CostModel {
            syscall_ps: 0,
            spawn_ps: 0,
            resume_ps: 0,
            rendezvous_ps: 0,
            page_map_ps: 17,
            space_clone_ps: 0,
            page_scan_ps: 10,
            word_compare_ps: 5,
            byte_compare_ps: 2,
            byte_copy_ps: 3,
            vm_insn_ps: 1,
            vm_tlb_fill_ps: 7,
            checkpoint_leaf_ps: 11,
        };
        let stats = MergeStats {
            pages_scanned: 7,
            pages_unchanged: 2,
            pages_adopted: 3,
            pages_diffed: 2,
            words_compared: 50,
            bytes_compared: 100,
            bytes_copied: 7,
            ..Default::default()
        };
        assert_eq!(
            m.merge_cost_ps(&stats),
            7 * 10 + 3 * 17 + 50 * 5 + 100 * 2 + 7 * 3
        );
    }

    #[test]
    fn adopted_page_costs_a_scan_and_a_map() {
        let m = CostModel::calibrated();
        let stats = MergeStats {
            pages_scanned: 1,
            pages_adopted: 1,
            ..Default::default()
        };
        assert_eq!(m.merge_cost_ps(&stats), 50_000);
    }

    #[test]
    fn clean_skipped_pages_are_free() {
        let m = CostModel::calibrated();
        let stats = MergeStats {
            pages_skipped_clean: 10_000,
            ..Default::default()
        };
        assert_eq!(m.merge_cost_ps(&stats), 0);
    }

    #[test]
    fn zero_model_is_free() {
        let m = zero();
        assert_eq!(m.map_cost_ps(1000), 0);
        assert_eq!(m.clone_cost_ps(1000), 0);
        assert_eq!(m.merge_cost_ps(&MergeStats::default()), 0);
    }

    #[test]
    fn structural_clone_charges_leaves_not_pages() {
        let m = CostModel::calibrated();
        // A 4 MiB snapshot is 2 leaves: orders of magnitude cheaper in
        // virtual time than 1024 individually mapped pages.
        assert!(m.clone_cost_ps(2) < m.map_cost_ps(1024) / 10);
        let stats = det_memory::CloneStats {
            pages: 1024,
            leaves_shared: 2,
            boundary_pages: 0,
        };
        assert_eq!(m.copy_cost_ps(&stats), m.clone_cost_ps(2));
        let stats = det_memory::CloneStats {
            pages: 16,
            leaves_shared: 0,
            boundary_pages: 16,
        };
        assert_eq!(m.copy_cost_ps(&stats), m.map_cost_ps(16));
    }

    #[test]
    fn a_lone_range_shares_its_leaf_from_where_that_is_the_smaller_bill() {
        // det-memory picks the arm and cannot see this model; its
        // threshold has to sit exactly where the two bills cross.
        let m = CostModel::calibrated();
        let min = det_memory::SUBLEAF_SHARE_MIN_PAGES as u64;
        assert!(m.map_cost_ps(min) > m.clone_cost_ps(1));
        assert!(m.clone_cost_ps(1) >= m.map_cost_ps(min - 1));
    }

    #[test]
    fn checkpoint_cost_scales_with_dirty_leaves() {
        let m = CostModel::calibrated();
        assert_eq!(m.checkpoint_cost_ps(0), 0);
        assert_eq!(m.checkpoint_cost_ps(3), 3 * m.checkpoint_leaf_ps);
        assert_eq!(zero().checkpoint_cost_ps(1_000), 0);
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(ps_to_ns(1999), 1);
        assert_eq!(ns_to_ps(3), 3000);
        assert_eq!(ns_to_ps(u64::MAX), u64::MAX);
    }
}
