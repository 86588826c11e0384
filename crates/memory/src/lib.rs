//! Paged copy-on-write virtual memory for the Determinator reproduction.
//!
//! This crate is the software analogue of the MMU mechanisms the
//! Determinator kernel (OSDI 2010) relies on:
//!
//! * an [`AddressSpace`] is a sparse map from virtual page numbers to
//!   reference-counted page frames with per-page permissions, stored as
//!   a two-level *structurally shared* table: a root spine over
//!   `Arc`-counted 512-entry leaves ([`PAGES_PER_LEAF`]), so cloning a
//!   space copies only the spine — O(leaves), not O(mapped pages) —
//!   and the first write into a shared leaf clones just that leaf
//!   (DESIGN.md §5);
//! * *virtual copy* ([`AddressSpace::copy_from`]) shares whole leaves
//!   when source and destination are leaf-congruent and frames
//!   copy-on-write otherwise, so replicating a whole file system image
//!   or a multi-megabyte heap is O(leaves + boundary pages) pointer
//!   work, not O(bytes) — [`CloneStats`] reports the split;
//! * [`AddressSpace::snapshot`] captures the reference state used by
//!   [`AddressSpace::merge_from`], which copies only bytes the child
//!   changed since the snapshot and reports a *conflict* when a byte
//!   changed on both sides — the paper's `Snap`/`Merge` kernel options
//!   (§3.2);
//! * unchanged pages are skipped in O(1) via frame pointer equality,
//!   mirroring the kernel's page-table diffing — and pages outside the
//!   child's *dirty write-set* (maintained by every mutation path,
//!   cleared by `snapshot`) are never examined at all;
//! * [`reference::merge_from_reference`] is the deliberately naive
//!   merge oracle that differential tests and benches compare the
//!   optimized engine against;
//! * [`AddressSpace::translate_read`] / [`AddressSpace::translate_write`]
//!   mint generation-validated [`Translation`]s — the entries of the
//!   VM's software TLB — that skip the page-table walk, permission
//!   check, and dirty-set bookkeeping until the next mutation
//!   invalidates them (DESIGN.md §4);
//! * [`AddressSpace::pin`] is the one routine that redeems them: up to
//!   two translations become [`Pinned`] page views that last as long
//!   as the caller's exclusive borrow of the space, so an inner loop
//!   validates once per page instead of once per access;
//! * [`AddressSpace::window`] pins caller-declared spans the same way
//!   for native code: a [`Window`] loads and stores `f64`s at page
//!   views, its writable pages un-shared and dirtied once, when it is
//!   minted.
//!
//! All operations are deterministic: iteration orders are fixed
//! (B-tree), no host state is consulted, and [`MergeStats`] exposes the
//! exact operation counts that the kernel's virtual-time cost model
//! charges.
//!
//! # Examples
//!
//! ```
//! use det_memory::{AddressSpace, Perm, Region, ConflictPolicy};
//!
//! let mut parent = AddressSpace::new();
//! parent.map_zero(Region::new(0x1000, 0x3000), Perm::RW).unwrap();
//! parent.write(0x1000, &[1, 2, 3]).unwrap();
//!
//! // Fork: virtual copy plus snapshot.
//! let mut child = AddressSpace::new();
//! child.copy_from(&parent, Region::new(0x1000, 0x3000), 0x1000).unwrap();
//! let snap = child.snapshot();
//!
//! // The child works in its private replica.
//! child.write(0x2000, &[9]).unwrap();
//! parent.write(0x1003, &[7]).unwrap();
//!
//! // Join: merge the child's changes; disjoint writes both survive.
//! let stats = parent
//!     .merge_from(&child, &snap, Region::new(0x1000, 0x3000), ConflictPolicy::Strict)
//!     .unwrap();
//! assert_eq!(parent.read_u8(0x2000).unwrap(), 9);
//! assert_eq!(parent.read_u8(0x1003).unwrap(), 7);
//! // The page the child never touched was skipped via the dirty set.
//! assert!(stats.pages_skipped_clean >= 1);
//! ```

#![warn(missing_docs)]

mod delta;
mod digest;
mod dirty;
mod error;
mod merge;
mod page;
mod perm;
mod pin;
pub mod reference;
mod region;
mod space;

pub use delta::{LeafInfo, PageDelta, PageDeltaOp, SpaceDelta};
pub use digest::ContentDigest;
pub use error::MemError;
pub use merge::{ConflictPolicy, MergeConflict, MergeStats};
pub use page::{Frame, PAGE_SHIFT, PAGE_SIZE};
pub use perm::Perm;
pub use pin::{Pinned, Translation, Window};
pub use region::Region;
pub use space::{
    AddressSpace, CloneStats, MAX_RANGE_PAGES, PAGES_PER_LEAF, PageInfo, SUBLEAF_SHARE_MIN_PAGES,
};

/// Result alias for memory operations.
pub type Result<T> = std::result::Result<T, MemError>;
