//! Sparse paged address spaces with two-level, structurally-shared
//! copy-on-write page tables.

use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::digest::ContentDigest;
use crate::dirty::DirtySet;
use crate::page::{Frame, PAGE_SHIFT, PAGE_SIZE, offset_of, vpn_of, zero_frame};
use crate::tracker::AccessTracker;
use crate::{MemError, Perm, Region, Result};

/// Log2 of [`PAGES_PER_LEAF`].
pub(crate) const LEAF_BITS: u32 = 9;

/// Pages covered by one page-table leaf (512 pages = 2 MiB).
///
/// The page table is a two-level tree: a root *spine* of
/// `Arc`-reference-counted 512-entry leaves. Cloning a space
/// ([`AddressSpace::snapshot`], [`AddressSpace::copy_from`] over
/// leaf-congruent ranges, `clone`) copies only the spine and shares the
/// leaves, so forking is O(leaves), not O(mapped pages); the first
/// write into a shared leaf clones that one leaf (see DESIGN.md §5).
pub const PAGES_PER_LEAF: usize = 1 << LEAF_BITS;

/// Mask extracting the within-leaf index from a vpn.
pub(crate) const LEAF_MASK: u64 = PAGES_PER_LEAF as u64 - 1;

/// `u64` words in a per-leaf bitmap (one bit per page).
pub(crate) const LEAF_WORDS: usize = PAGES_PER_LEAF / 64;

/// Fewest mapped pages for which a virtual copy of a range that is
/// alone in its page-table leaf shares the leaf instead of installing
/// the pages one by one ([`AddressSpace::copy_from_counted`]).
///
/// It is the first page count whose per-page bill exceeds one leaf
/// share under the kernel's calibrated cost model (`11 × page_map_ps >
/// space_clone_ps >= 10 × page_map_ps`; a kernel test holds the two
/// crates together), so sharing never raises a charge and a one-page
/// mailbox copy never drags a 512-entry leaf around.
pub const SUBLEAF_SHARE_MIN_PAGES: u32 = 11;

/// The bits of word `w` of a per-leaf bitmap whose page index lies in
/// `lo..=hi`.
#[inline]
pub(crate) fn range_mask(w: usize, lo: usize, hi: usize) -> u64 {
    // Clamp the range to this word's 64 indices, as offsets into it.
    let from = lo.saturating_sub(w * 64);
    let upto = (hi + 1).saturating_sub(w * 64).min(64);
    if from >= upto {
        return 0;
    }
    (u64::MAX >> (64 - (upto - from))) << from
}

/// One page-table entry: a shared frame plus its permissions.
#[derive(Clone, Debug)]
pub(crate) struct PageEntry {
    pub(crate) frame: Arc<Frame>,
    pub(crate) perm: Perm,
}

/// One 512-entry page-table leaf. Leaves are immutable while shared
/// (`Arc::make_mut` clones on first write), which is what makes whole
/// address spaces cheap to duplicate: a snapshot or leaf-congruent
/// virtual copy shares leaves the way individual writes share frames —
/// the same copy-on-write trick, one level up.
#[derive(Clone)]
pub(crate) struct Leaf {
    /// Dense entry array indexed by `vpn & LEAF_MASK`.
    entries: [Option<PageEntry>; PAGES_PER_LEAF],
    /// Bitmap of `Some` entries (one bit per page, 8×64 = 512).
    present: [u64; LEAF_WORDS],
    /// Number of `Some` entries (== ones in `present`).
    mapped: u32,
}

impl Leaf {
    fn empty() -> Leaf {
        Leaf {
            entries: [const { None }; PAGES_PER_LEAF],
            present: [0; PAGES_PER_LEAF / 64],
            mapped: 0,
        }
    }

    #[inline]
    fn is_present(&self, idx: usize) -> bool {
        self.present[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Installs `e` at `idx`; returns true if the slot was empty.
    fn set(&mut self, idx: usize, e: PageEntry) -> bool {
        let fresh = self.entries[idx].replace(e).is_none();
        if fresh {
            self.present[idx / 64] |= 1u64 << (idx % 64);
            self.mapped += 1;
        }
        fresh
    }

    /// Clears the entry at `idx`; returns true if it was mapped.
    fn clear(&mut self, idx: usize) -> bool {
        if self.entries[idx].take().is_some() {
            self.present[idx / 64] &= !(1u64 << (idx % 64));
            self.mapped -= 1;
            true
        } else {
            false
        }
    }

    pub(crate) fn present_bits(&self) -> &[u64; LEAF_WORDS] {
        &self.present
    }

    /// Iterates the indices of mapped entries in ascending order.
    fn present_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.present.iter().enumerate().flat_map(|(w, &bits)| {
            let mut b = bits;
            std::iter::from_fn(move || {
                if b == 0 {
                    None
                } else {
                    let i = b.trailing_zeros() as usize;
                    b &= b - 1;
                    Some(w * 64 + i)
                }
            })
        })
    }

    /// Number of mapped entries with index in `lo..=hi`.
    fn mapped_in(&self, lo: usize, hi: usize) -> u32 {
        self.present
            .iter()
            .enumerate()
            .map(|(w, &bits)| (bits & range_mask(w, lo, hi)).count_ones())
            .sum()
    }

    /// True if no entry with index outside `lo..=hi` is mapped.
    fn maps_only(&self, lo: usize, hi: usize) -> bool {
        self.mapped_in(lo, hi) == self.mapped
    }
}

/// One root-spine slot: a leaf plus the leaf index it covers
/// (`vpn >> LEAF_BITS`). The spine is a `Vec` sorted by `base`; slot
/// positions are stable between generation bumps (every structural
/// mutation bumps the generation), which is what lets a [`Translation`]
/// carry a spine position and still be redeemed in O(1).
#[derive(Clone)]
struct RootSlot {
    base: u64,
    leaf: Arc<Leaf>,
}

/// Public, read-only view of one mapped page (for inspection tools and
/// the cluster's residency accounting).
#[derive(Clone, Debug)]
pub struct PageInfo {
    /// Virtual page number.
    pub vpn: u64,
    /// Page permissions.
    pub perm: Perm,
    /// Number of address spaces (and snapshots) sharing the frame.
    ///
    /// This counts *direct* frame references only: a space holding the
    /// frame through a structurally-shared leaf contributes one
    /// reference via the leaf, not one per space.
    pub frame_refs: usize,
    /// True if the page still aliases the global zero frame.
    pub is_zero_frame: bool,
}

/// Operation counts from a structural clone
/// ([`AddressSpace::copy_from_counted`]), consumed by the kernel's
/// virtual-time cost model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CloneStats {
    /// Pages now mapped in the destination range (the semantic count —
    /// what [`AddressSpace::copy_from`] returns).
    pub pages: u64,
    /// Leaves shared wholesale by cloning one `Arc` on the root spine —
    /// O(1) each, regardless of how many pages the leaf maps: every
    /// leaf the range covers whole, and every leaf in which the range
    /// is alone (see [`AddressSpace::copy_from_counted`]).
    pub leaves_shared: u64,
    /// Pages handled individually: range-boundary partial leaves that
    /// hold something besides the range (or fewer than
    /// [`SUBLEAF_SHARE_MIN_PAGES`] pages), plus every page of a copy
    /// whose source/destination offsets are not congruent modulo
    /// [`PAGES_PER_LEAF`].
    pub boundary_pages: u64,
}

/// One row of a leaf-granularity address-space summary
/// ([`AddressSpace::leaf_summary`]): a materialized page-table leaf,
/// identified by the virtual page number of its first slot, and how
/// many pages it maps. The summary is the control-plane half of
/// cluster space migration — a remote node that received it can pull
/// exactly these leaves ([`AddressSpace::leaf_image`]) and nothing
/// else.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LeafInfo {
    /// Virtual page number of the leaf's first slot (a multiple of
    /// [`PAGES_PER_LEAF`]).
    pub first_vpn: u64,
    /// Mapped pages in the leaf (1..=[`PAGES_PER_LEAF`]).
    pub pages: u32,
}

/// A generation-validated translation of one virtual page, minted by
/// [`AddressSpace::translate_read`] / [`AddressSpace::translate_write`]
/// and redeemed — alone or two at a time — through
/// [`AddressSpace::pin`].
///
/// This is the entry type of the VM's software TLB (see DESIGN.md §4).
/// A translation is a *capability to skip the page-table walk*, not a
/// pointer: redeeming it re-checks that it was minted by this exact
/// space (`space_id`) at its current `generation`, so a translation
/// that survived any page-table mutation — map, unmap, permission
/// change, snapshot, merge, external write — is refused and the caller
/// falls back to the slow path. A stale hit is therefore impossible by
/// construction; the worst a forged or outdated translation can do is
/// miss. What redemption returns is a [`Pinned`] view that borrows the
/// space exclusively, so the check is good for every access made
/// through the view, not just the first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Translation {
    space_id: u64,
    generation: u64,
    /// Root-spine position of the page's leaf.
    slot: u32,
    /// Entry index within the leaf.
    entry: u16,
    writable: bool,
}

impl Translation {
    /// A translation that never validates (TLB reset value).
    pub const INVALID: Translation = Translation {
        space_id: 0, // Real space ids start at 1.
        generation: 0,
        slot: 0,
        entry: 0,
        writable: false,
    };
}

impl Default for Translation {
    fn default() -> Translation {
        Translation::INVALID
    }
}

/// One page redeemed by [`AddressSpace::pin`]: its bytes, borrowed for
/// as long as the caller keeps the exclusive borrow of the space.
#[derive(Debug)]
pub enum Pinned<'a> {
    /// Read-only view: the page may be shared with other spaces.
    Ro(&'a [u8; PAGE_SIZE]),
    /// In-place view of a page this space owns exclusively.
    Rw(&'a mut [u8; PAGE_SIZE]),
}

impl Pinned<'_> {
    /// The page's bytes, whichever kind of view this is.
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        match self {
            Pinned::Ro(b) => b,
            Pinned::Rw(b) => b,
        }
    }
}

/// Whether `Arc::get_mut` would succeed. Exclusivity is probed first
/// and borrowed second because a failed `get_mut` whose borrow reached
/// the return value would keep the shared fallback from compiling; and
/// it is probed by reading the counts because a second `get_mut` is a
/// second compare-exchange per store. The answer cannot go stale in
/// between: the caller holds `&mut` to the handle, so nothing can clone
/// it, and a unique handle has no sibling to be cloned instead.
#[inline(always)]
fn is_unique<T>(a: &Arc<T>) -> bool {
    Arc::strong_count(a) == 1 && Arc::weak_count(a) == 0
}

/// [`AddressSpace::pin`] within one leaf: views of the entries `a` and
/// `b` name (validated translations whose `slot` is this leaf).
#[inline(always)]
fn leaf_views<'a>(
    leaf: &'a mut Arc<Leaf>,
    a: Option<Translation>,
    b: Option<Translation>,
) -> [Option<Pinned<'a>>; 2] {
    let index = |t: Translation| t.entry as usize;
    let wants_rw = [a, b].iter().flatten().any(|t| t.writable);
    if !(wants_rw && is_unique(leaf)) {
        let leaf: &'a Leaf = leaf;
        return [a, b].map(|t| {
            let e = leaf.entries.get(index(t?))?.as_ref()?;
            Some(Pinned::Ro(e.frame.bytes()))
        });
    }
    let entries = &mut Arc::get_mut(leaf).expect("probed unique").entries;
    match (a, b) {
        (Some(ta), Some(tb)) => match entries.get_disjoint_mut([index(ta), index(tb)]) {
            Ok([ea, eb]) => [entry_view(ea, ta), entry_view(eb, tb)],
            Err(_) => [None, None],
        },
        (Some(t), None) => [
            entries.get_mut(index(t)).and_then(|e| entry_view(e, t)),
            None,
        ],
        (None, Some(t)) => [
            None,
            entries.get_mut(index(t)).and_then(|e| entry_view(e, t)),
        ],
        (None, None) => [None, None],
    }
}

/// The view `t` earns of an entry in an exclusively-owned leaf.
#[inline(always)]
fn entry_view(e: &mut Option<PageEntry>, t: Translation) -> Option<Pinned<'_>> {
    let e = e.as_mut()?;
    if t.writable && is_unique(&e.frame) {
        Arc::get_mut(&mut e.frame).map(|f| Pinned::Rw(f.bytes_mut()))
    } else {
        Some(Pinned::Ro(e.frame.bytes()))
    }
}

/// Source of unique [`AddressSpace::space_id`] values. Ids only ever
/// feed *equality checks* against translations minted from the same
/// space, so allocation order (which can vary with host scheduling)
/// never influences observable behavior — a translation matches its
/// own space or nothing.
static NEXT_SPACE_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_space_id() -> u64 {
    NEXT_SPACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// A private virtual address space: the memory half of a Determinator
/// *space* (PAPER.md §3.1).
///
/// The map is sparse: untouched addresses are unmapped and fault.
/// Cloning an `AddressSpace` (or taking a [`snapshot`]) copies only the
/// root spine of the two-level page table; leaves and frames are shared
/// and cloned lazily on first write (copy-on-write at both levels),
/// which is what makes the paper's fork/snapshot/merge cycle
/// O(pages-touched) rather than O(pages-mapped).
///
/// Internally the page table is a root spine (`Vec` of
/// `(leaf index, Arc<Leaf>)`, sorted) over 512-entry leaves
/// ([`PAGES_PER_LEAF`]). The spine gives the VM's software TLB an O(1),
/// bounds-checked redemption path for cached [`Translation`]s without
/// any raw pointers; the `generation` counter (bumped by every mutation
/// that could make a cached translation or a decoded instruction stale)
/// is what keeps those translations honest, and `Arc::get_mut` on the
/// leaf — checked *before* the frame — is what keeps a cached write
/// from leaking through a structurally-shared leaf (DESIGN.md §5).
///
/// [`snapshot`]: AddressSpace::snapshot
pub struct AddressSpace {
    /// Root spine, sorted by leaf index.
    root: Vec<RootSlot>,
    /// Total mapped pages (sum of leaf `mapped` counts).
    pages: usize,
    /// The *dirty write-set*: VPNs whose contents may have changed
    /// since the last [`snapshot`](AddressSpace::snapshot) (which
    /// clears it). Every mutation path — `write`, `map_zero`,
    /// `copy_from`, `translate_write`, and the merge engine's own
    /// applies — records the pages it touches here, so `try_merge_from`
    /// can visit only the pages a child actually dirtied instead of
    /// every mapped page in the merge region. An over-approximation is
    /// sound (extra entries are rediscovered clean by frame identity or
    /// byte diffing); a missed entry would lose writes, so every
    /// content-mutating path below must mark it.
    dirty: DirtySet,
    /// Bumped by every page-table or content mutation that could
    /// invalidate an outstanding [`Translation`] or a decoded
    /// instruction (see DESIGN.md §4 for the exact rule). Monotonic.
    generation: u64,
    /// Unique identity of this space, distinguishing its translations
    /// from those of clones/snapshots that share `generation` values.
    space_id: u64,
    tracker: Option<AccessTracker>,
}

impl Default for AddressSpace {
    fn default() -> AddressSpace {
        AddressSpace {
            root: Vec::new(),
            pages: 0,
            dirty: DirtySet::default(),
            generation: 0,
            space_id: fresh_space_id(),
            tracker: None,
        }
    }
}

impl Clone for AddressSpace {
    fn clone(&self) -> AddressSpace {
        AddressSpace {
            // O(leaves): the spine is copied, every leaf is shared.
            root: self.root.clone(),
            pages: self.pages,
            dirty: self.dirty.clone(),
            generation: self.generation,
            // A clone is a different space: translations minted from
            // the original must not validate against it (they could
            // diverge from here on).
            space_id: fresh_space_id(),
            tracker: self.tracker.clone(),
        }
    }
}

impl AddressSpace {
    /// Returns an empty address space.
    pub fn new() -> AddressSpace {
        AddressSpace::default()
    }

    /// Installs an access tracker that records every page touched by
    /// reads and writes (the observation `det-analyze`'s soundness gate
    /// checks a static footprint against). Returns any previous tracker.
    ///
    /// Installing or removing a tracker bumps the generation and
    /// disables the translation fast path (`translate_*` return `None`
    /// while a tracker is present), so the tracker's log stays exact.
    pub fn set_tracker(&mut self, tracker: Option<AccessTracker>) -> Option<AccessTracker> {
        self.generation += 1;
        std::mem::replace(&mut self.tracker, tracker)
    }

    /// Returns a reference to the installed access tracker, if any.
    pub fn tracker(&self) -> Option<&AccessTracker> {
        self.tracker.as_ref()
    }

    /// Returns the number of mapped pages.
    pub fn page_count(&self) -> usize {
        self.pages
    }

    /// Returns the number of page-table leaves the root spine holds —
    /// the unit of structural-clone work ([`snapshot`] and leaf-
    /// congruent [`copy_from`] cost O(leaves), and the kernel charges
    /// `space_clone_ps` per leaf).
    ///
    /// [`snapshot`]: AddressSpace::snapshot
    /// [`copy_from`]: AddressSpace::copy_from
    pub fn leaf_count(&self) -> usize {
        self.root.len()
    }

    /// Returns the total mapped size in bytes.
    pub fn mapped_bytes(&self) -> u64 {
        (self.pages as u64) << crate::PAGE_SHIFT
    }

    // ------------------------------------------------------------------
    // Two-level table plumbing
    // ------------------------------------------------------------------

    /// Binary search for the spine position of leaf `base`
    /// (`Err` = insertion point).
    #[inline]
    fn leaf_pos(&self, base: u64) -> std::result::Result<usize, usize> {
        self.root.binary_search_by_key(&base, |rs| rs.base)
    }

    /// The leaf covering `vpn`, if present on the spine.
    #[inline]
    pub(crate) fn leaf_for(&self, vpn: u64) -> Option<&Arc<Leaf>> {
        let pos = self.leaf_pos(vpn >> LEAF_BITS).ok()?;
        Some(&self.root[pos].leaf)
    }

    #[inline]
    fn entry(&self, vpn: u64) -> Option<&PageEntry> {
        self.leaf_for(vpn)?.entries[(vpn & LEAF_MASK) as usize].as_ref()
    }

    /// Mutable entry access; clones the leaf first if shared. Checks
    /// presence *before* `Arc::make_mut` so probing an unmapped page
    /// never breaks sharing.
    #[inline]
    fn entry_mut(&mut self, vpn: u64) -> Option<&mut PageEntry> {
        let pos = self.leaf_pos(vpn >> LEAF_BITS).ok()?;
        let idx = (vpn & LEAF_MASK) as usize;
        if !self.root[pos].leaf.is_present(idx) {
            return None;
        }
        Arc::make_mut(&mut self.root[pos].leaf).entries[idx].as_mut()
    }

    fn insert_entry(&mut self, vpn: u64, e: PageEntry) {
        let base = vpn >> LEAF_BITS;
        let pos = match self.leaf_pos(base) {
            Ok(p) => p,
            Err(p) => {
                self.root.insert(
                    p,
                    RootSlot {
                        base,
                        leaf: Arc::new(Leaf::empty()),
                    },
                );
                p
            }
        };
        let leaf = Arc::make_mut(&mut self.root[pos].leaf);
        if leaf.set((vpn & LEAF_MASK) as usize, e) {
            self.pages += 1;
        }
    }

    fn remove_entry(&mut self, vpn: u64) -> bool {
        let Ok(pos) = self.leaf_pos(vpn >> LEAF_BITS) else {
            return false;
        };
        let idx = (vpn & LEAF_MASK) as usize;
        if !self.root[pos].leaf.is_present(idx) {
            return false;
        }
        if self.root[pos].leaf.mapped == 1 {
            // Last page: drop the whole leaf without cloning it (the
            // clone a `make_mut` on a shared leaf would do is wasted
            // work when the result is immediately empty).
            self.root.remove(pos);
        } else {
            Arc::make_mut(&mut self.root[pos].leaf).clear(idx);
        }
        self.pages -= 1;
        true
    }

    /// Installs `leaf` wholesale at leaf index `base`, replacing any
    /// existing leaf (the structural-sharing fast path).
    fn set_leaf(&mut self, base: u64, leaf: Arc<Leaf>) {
        match self.leaf_pos(base) {
            Ok(pos) => {
                self.pages =
                    self.pages - self.root[pos].leaf.mapped as usize + leaf.mapped as usize;
                self.root[pos].leaf = leaf;
            }
            Err(pos) => {
                self.pages += leaf.mapped as usize;
                self.root.insert(pos, RootSlot { base, leaf });
            }
        }
    }

    /// Drops the whole leaf at leaf index `base`; returns true if one
    /// was present.
    fn remove_leaf(&mut self, base: u64) -> bool {
        match self.leaf_pos(base) {
            Ok(pos) => {
                self.pages -= self.root[pos].leaf.mapped as usize;
                self.root.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates information about every mapped page, in address order.
    pub fn iter_pages(&self) -> impl Iterator<Item = PageInfo> + '_ {
        let zero = zero_frame();
        self.root.iter().flat_map(move |rs| {
            let zero = zero.clone();
            rs.leaf.present_indices().map(move |idx| {
                let e = rs.leaf.entries[idx].as_ref().expect("present bit set");
                PageInfo {
                    vpn: (rs.base << LEAF_BITS) + idx as u64,
                    perm: e.perm,
                    frame_refs: Arc::strong_count(&e.frame),
                    is_zero_frame: Arc::ptr_eq(&e.frame, &zero),
                }
            })
        })
    }

    /// Maps `region` as zero-filled pages with permissions `perm`.
    ///
    /// Already-mapped pages in the range are replaced by zero pages.
    /// The zero frame is shared, so no bytes are written regardless of
    /// size; spans covering whole leaves are filled by sharing one
    /// prebuilt zero leaf per call (O(1) per 512 pages after the
    /// first). The region must be page-aligned.
    pub fn map_zero(&mut self, region: Region, perm: Perm) -> Result<()> {
        region.check_page_aligned()?;
        if region.is_empty() {
            return Ok(());
        }
        let zero = zero_frame();
        let first = vpn_of(region.start);
        let last = vpn_of(region.end - 1);
        // Built on first use, shared across every full leaf in the
        // region (and with the destination: later writes COW it).
        let mut zero_leaf: Option<Arc<Leaf>> = None;
        let mut vpn = first;
        while vpn <= last {
            let base = vpn >> LEAF_BITS;
            let leaf_last = ((base + 1) << LEAF_BITS) - 1;
            let chunk_last = leaf_last.min(last);
            if vpn & LEAF_MASK == 0 && chunk_last == leaf_last {
                let l = zero_leaf.get_or_insert_with(|| {
                    let mut l = Leaf::empty();
                    for i in 0..PAGES_PER_LEAF {
                        l.set(
                            i,
                            PageEntry {
                                frame: zero.clone(),
                                perm,
                            },
                        );
                    }
                    Arc::new(l)
                });
                self.set_leaf(base, l.clone());
                self.dirty
                    .assign_leaf(base, 0, PAGES_PER_LEAF - 1, &[u64::MAX; LEAF_WORDS]);
            } else {
                for v in vpn..=chunk_last {
                    self.insert_entry(
                        v,
                        PageEntry {
                            frame: zero.clone(),
                            perm,
                        },
                    );
                    self.dirty.insert(v);
                }
            }
            vpn = chunk_last + 1;
        }
        self.generation += 1;
        Ok(())
    }

    /// Like [`map_zero`](AddressSpace::map_zero) but leaves
    /// already-mapped pages in the range untouched (contents, frames,
    /// and permissions). Returns the number of pages newly mapped.
    ///
    /// Re-staging paths (the process runtime rewrites its file-system
    /// image region at every rendezvous) use this to avoid discarding
    /// frames — and dirtying pages — that the subsequent write will
    /// overwrite anyway. When every page is already mapped this is a
    /// pure no-op: no dirty marks and **no generation bump**, so a
    /// rendezvous that re-stages an image does not spuriously
    /// invalidate the VM's cached translations.
    pub fn map_zero_if_unmapped(&mut self, region: Region, perm: Perm) -> Result<usize> {
        region.check_page_aligned()?;
        let zero = zero_frame();
        let mut added = 0;
        for vpn in region.vpns() {
            if self.entry(vpn).is_some() {
                continue;
            }
            self.insert_entry(
                vpn,
                PageEntry {
                    frame: zero.clone(),
                    perm,
                },
            );
            self.dirty.insert(vpn);
            added += 1;
        }
        if added > 0 {
            self.generation += 1;
        }
        Ok(added)
    }

    /// Removes all mappings in the page-aligned `region`.
    ///
    /// Spans covering whole leaves drop the leaf in O(1) (no
    /// copy-on-write clone of a shared leaf just to empty it).
    pub fn unmap(&mut self, region: Region) -> Result<()> {
        region.check_page_aligned()?;
        if region.is_empty() {
            return Ok(());
        }
        let first = vpn_of(region.start);
        let last = vpn_of(region.end - 1);
        let mut changed = false;
        let mut vpn = first;
        while vpn <= last {
            let base = vpn >> LEAF_BITS;
            let leaf_last = ((base + 1) << LEAF_BITS) - 1;
            let chunk_last = leaf_last.min(last);
            if vpn & LEAF_MASK == 0 && chunk_last == leaf_last {
                if self.remove_leaf(base) {
                    changed = true;
                }
                self.dirty.clear_leaf(base);
            } else {
                for v in vpn..=chunk_last {
                    if self.remove_entry(v) {
                        changed = true;
                    }
                    self.dirty.remove(v);
                }
            }
            vpn = chunk_last + 1;
        }
        if changed {
            self.generation += 1;
        }
        Ok(())
    }

    /// Sets permissions on every mapped page in the page-aligned
    /// `region`; unmapped pages in the range are skipped.
    pub fn set_perm(&mut self, region: Region, perm: Perm) -> Result<()> {
        region.check_page_aligned()?;
        let mut changed = false;
        for vpn in region.vpns() {
            if let Some(e) = self.entry_mut(vpn) {
                e.perm = perm;
                changed = true;
            }
        }
        if changed {
            self.generation += 1;
        }
        Ok(())
    }

    /// Returns the permissions of the page containing `addr`, if mapped.
    pub fn perm_at(&self, addr: u64) -> Option<Perm> {
        self.entry(vpn_of(addr)).map(|e| e.perm)
    }

    /// Virtually copies `src_region` (page-aligned) of `src` to
    /// `dst_start` (page-aligned) in `self`.
    ///
    /// Frames are shared copy-on-write: no bytes move until one side
    /// writes. Pages unmapped in the source become unmapped in the
    /// destination, making the copy an exact replica of the range.
    /// Returns the number of pages installed.
    ///
    /// When source and destination are congruent modulo
    /// [`PAGES_PER_LEAF`], whole leaves inside the range — and partial
    /// leaves at its boundaries that hold nothing but the range — are
    /// shared structurally, O(1) per leaf; the remaining boundary pages
    /// are walked one by one. See
    /// [`copy_from_counted`](AddressSpace::copy_from_counted) for the
    /// rule and the work breakdown.
    ///
    /// # Examples
    ///
    /// ```
    /// use det_memory::{AddressSpace, Perm, Region};
    ///
    /// let mut parent = AddressSpace::new();
    /// parent.map_zero(Region::new(0x1000, 0x3000), Perm::RW).unwrap();
    /// parent.write(0x1000, b"shared").unwrap();
    ///
    /// let mut child = AddressSpace::new();
    /// let installed = child
    ///     .copy_from(&parent, Region::new(0x1000, 0x3000), 0x1000)
    ///     .unwrap();
    /// assert_eq!(installed, 2);
    /// assert_eq!(child.read_vec(0x1000, 6).unwrap(), b"shared");
    ///
    /// // Copy-on-write: the child's writes never reach the parent.
    /// child.write(0x1000, b"mine").unwrap();
    /// assert_eq!(parent.read_vec(0x1000, 6).unwrap(), b"shared");
    /// ```
    pub fn copy_from(
        &mut self,
        src: &AddressSpace,
        src_region: Region,
        dst_start: u64,
    ) -> Result<usize> {
        self.copy_from_counted(src, src_region, dst_start)
            .map(|s| s.pages as usize)
    }

    /// Like [`copy_from`](AddressSpace::copy_from) but reports the
    /// structural work performed: how many leaves were shared in O(1)
    /// versus pages walked individually. The kernel charges
    /// `space_clone_ps` per shared leaf and `page_map_ps` per boundary
    /// page from these counts.
    ///
    /// A leaf-congruent chunk of the range shares its source leaf when
    /// doing so *is* the copy: the chunk holds every page the source
    /// leaf maps, the destination leaf (if any) maps nothing outside
    /// the chunk, and the chunk either spans the leaf or maps at least
    /// [`SUBLEAF_SHARE_MIN_PAGES`] pages. Anything else — a neighbour
    /// in either leaf, a short range, incongruent offsets — is copied
    /// entry by entry. The result is the same space either way; only
    /// the work, and so the charge, differs.
    pub fn copy_from_counted(
        &mut self,
        src: &AddressSpace,
        src_region: Region,
        dst_start: u64,
    ) -> Result<CloneStats> {
        src_region.check_page_aligned()?;
        if dst_start & (PAGE_SIZE as u64 - 1) != 0 {
            return Err(MemError::Misaligned { addr: dst_start });
        }
        let mut stats = CloneStats::default();
        if src_region.is_empty() {
            return Ok(stats);
        }
        let delta = (dst_start >> crate::PAGE_SHIFT) as i128 - vpn_of(src_region.start) as i128;
        let congruent = delta.rem_euclid(PAGES_PER_LEAF as i128) == 0;
        let first = vpn_of(src_region.start);
        let last = vpn_of(src_region.end - 1);
        let mut changed = false;
        let mut vpn = first;
        while vpn <= last {
            let base = vpn >> LEAF_BITS;
            let leaf_last = ((base + 1) << LEAF_BITS) - 1;
            let chunk_last = leaf_last.min(last);
            let (lo, hi) = (
                (vpn & LEAF_MASK) as usize,
                (chunk_last & LEAF_MASK) as usize,
            );
            let whole = lo == 0 && chunk_last == leaf_last;
            // The leaf the chunk lands in, when it lands at the same
            // offsets within it.
            let dst_base =
                congruent.then(|| (base as i128 + delta / PAGES_PER_LEAF as i128) as u64);
            let src_leaf = src.leaf_for(vpn).filter(|l| l.mapped > 0);
            match (dst_base, src_leaf) {
                // Structural share: one Arc clone replaces up to 512
                // page installs. A chunk short of its leaf is the same
                // operation as a whole-leaf one when it holds every
                // page the source leaf maps and the destination leaf
                // maps nothing outside it — provided it maps enough
                // pages to be worth a leaf. The choice reads the range
                // and the two present bitmaps only, never `Arc`
                // identity or refcounts, so a restored checkpoint, a
                // replay and every shard count make it identically.
                (Some(dst_base), Some(l))
                    if whole
                        || (l.mapped >= SUBLEAF_SHARE_MIN_PAGES
                            && l.maps_only(lo, hi)
                            && self
                                .leaf_for(dst_base << LEAF_BITS)
                                .is_none_or(|d| d.maps_only(lo, hi))) =>
                {
                    stats.leaves_shared += 1;
                    stats.pages += l.mapped as u64;
                    // The chunk's dirty bits become exactly the
                    // source's present bits (installed pages dirty,
                    // holes cleared) — the marks the per-page path
                    // would leave; marks outside it are not its to
                    // touch.
                    self.dirty.assign_leaf(dst_base, lo, hi, l.present_bits());
                    self.set_leaf(dst_base, Arc::clone(l));
                    changed = true;
                }
                (Some(dst_base), None) if whole => {
                    if self.remove_leaf(dst_base) {
                        changed = true;
                    }
                    self.dirty.clear_leaf(dst_base);
                }
                _ => {
                    for v in vpn..=chunk_last {
                        let dst_vpn = (v as i128 + delta) as u64;
                        match src.entry(v) {
                            Some(e) => {
                                self.insert_entry(dst_vpn, e.clone());
                                self.dirty.insert(dst_vpn);
                                stats.pages += 1;
                                stats.boundary_pages += 1;
                                changed = true;
                            }
                            None => {
                                if self.remove_entry(dst_vpn) {
                                    changed = true;
                                }
                                self.dirty.remove(dst_vpn);
                            }
                        }
                    }
                }
            }
            vpn = chunk_last + 1;
        }
        if changed {
            self.generation += 1;
        }
        Ok(stats)
    }

    /// Takes a snapshot: a structural page-table copy whose leaves and
    /// frames are shared with `self` until either side writes.
    ///
    /// The copy clones only the root spine — O(leaves), ~one `Arc`
    /// clone per 512 mapped pages — which is what makes the paper's
    /// `Snap` option near-free (PAPER.md §3.2, §8: fork/snapshot cost
    /// proportional to pages *touched*, not pages *mapped*).
    ///
    /// The snapshot is the *reference state* against which
    /// [`merge_from`](AddressSpace::merge_from) computes changes.
    /// Trackers are not inherited by snapshots.
    ///
    /// Taking a snapshot **clears this space's dirty write-set**: the
    /// returned snapshot is byte-identical to `self` at this instant,
    /// so "changed since the snapshot" and "dirtied since the write-set
    /// was cleared" start out as the same (empty) set, and every later
    /// mutation maintains both. This is the invariant that lets
    /// [`try_merge_from`](AddressSpace::try_merge_from) visit only
    /// dirty pages; it holds for any snapshot taken at or after the
    /// most recent `snapshot()` call (see DESIGN.md §3).
    ///
    /// Snapshots also bump the generation: a cached write translation
    /// pre-dates the dirty-set clear, so redeeming it would skip a
    /// dirty mark the merge engine depends on. (The refcount bump the
    /// snapshot puts on every *leaf* would already force such writes
    /// back to the slow path while the snapshot lives — redemption
    /// checks leaf exclusivity before frame exclusivity — but the
    /// generation bump keeps them out even after it is dropped.)
    ///
    /// # Examples
    ///
    /// ```
    /// use det_memory::{AddressSpace, Perm, Region};
    ///
    /// let mut s = AddressSpace::new();
    /// s.map_zero(Region::new(0x1000, 0x2000), Perm::RW).unwrap();
    /// s.write_u64(0x1000, 1).unwrap();
    /// let snap = s.snapshot();
    /// s.write_u64(0x1000, 2).unwrap();
    /// assert_eq!(snap.read_u64(0x1000).unwrap(), 1); // frozen
    /// assert_eq!(s.read_u64(0x1000).unwrap(), 2);
    /// ```
    pub fn snapshot(&mut self) -> AddressSpace {
        self.dirty.clear();
        self.generation += 1;
        AddressSpace {
            root: self.root.clone(),
            pages: self.pages,
            dirty: DirtySet::default(),
            generation: 0,
            space_id: fresh_space_id(),
            tracker: None,
        }
    }

    /// Returns true if the page frames backing `vpn` are the identical
    /// physical frame in `self` and `other` (O(1) unchanged-page test).
    ///
    /// A structurally-shared leaf short-circuits the test: if both
    /// spaces hold the same leaf `Arc`, every page it covers is
    /// trivially identical (mapped or not).
    pub fn same_frame(&self, other: &AddressSpace, vpn: u64) -> bool {
        if self.shares_leaf_with(other, vpn) {
            return true;
        }
        match (self.entry(vpn), other.entry(vpn)) {
            (Some(a), Some(b)) => Arc::ptr_eq(&a.frame, &b.frame),
            (None, None) => true,
            _ => false,
        }
    }

    /// Returns true if `self` and `other` hold the *same page-table
    /// leaf* for the 512-page aligned block containing `vpn` — the O(1)
    /// unchanged-subtree test the merge engine uses to skip whole
    /// blocks (one pointer compare covers [`PAGES_PER_LEAF`] pages).
    pub fn shares_leaf_with(&self, other: &AddressSpace, vpn: u64) -> bool {
        match (self.leaf_for(vpn), other.leaf_for(vpn)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Deltas (see the `delta` module)
    // ------------------------------------------------------------------

    /// Computes the exact difference between `self` and `base`, an
    /// earlier clone of this space (see [`crate::SpaceDelta`]).
    ///
    /// Because the clone pins every shared frame, any write since the
    /// clone COWed its frame, so frame-pointer inequality identifies
    /// exactly the changed pages; untouched leaves are skipped with one
    /// pointer compare. Pages dirtied *without* a frame change (a
    /// rewrite of identical content through the zero frame) are found
    /// by diffing the dirty sets, so
    /// [`apply_delta`](AddressSpace::apply_delta) reproduces the dirty
    /// write-set — and therefore merge behavior — exactly.
    ///
    /// `base` must not have had `snapshot()` taken on either side since
    /// the clone (a snapshot clears dirty marks, which a delta cannot
    /// express).
    /// Clears every dirty mark without touching content, permissions,
    /// structure, or the generation counter.
    ///
    /// This exists for checkpoint *restore*: a full checkpoint encodes
    /// content as a delta from the empty space, and
    /// [`apply_delta`](AddressSpace::apply_delta) marks every written
    /// page dirty — the restorer clears those marks and then re-applies
    /// the true dirty set, reproducing the original's write-set exactly
    /// even when a pre-checkpoint `snapshot()` had cleaned part of it.
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
    }

    /// The difference between this space and `base`, an earlier clone
    /// of it: every page written since (plus permission changes and
    /// unmappings), suitable for
    /// [`apply_delta`](AddressSpace::apply_delta). Against a fresh
    /// empty space this enumerates the full mapped image. Cost is
    /// O(dirty leaves) against a true earlier clone, O(touched leaves)
    /// against empty.
    pub fn delta_since(&self, base: &AddressSpace) -> crate::SpaceDelta {
        use crate::delta::{PageDelta, PageDeltaOp, SpaceDelta};
        let zero = zero_frame();
        let mut pages: Vec<PageDelta> = Vec::new();
        let mut unmapped: Vec<u64> = Vec::new();
        let entry_op = |e: &PageEntry| {
            if Arc::ptr_eq(&e.frame, &zero) {
                PageDeltaOp::WriteZero
            } else {
                PageDeltaOp::Write(e.frame.bytes().to_vec())
            }
        };
        // Merge-walk both spines by leaf index.
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.root.len() || j < base.root.len() {
            let sb = self.root.get(i).map(|rs| rs.base);
            let bb = base.root.get(j).map(|rs| rs.base);
            match (sb, bb) {
                (Some(s), Some(b)) if s == b => {
                    let (sl, bl) = (&self.root[i].leaf, &base.root[j].leaf);
                    if !Arc::ptr_eq(sl, bl) {
                        for idx in 0..PAGES_PER_LEAF {
                            let vpn = (s << LEAF_BITS) + idx as u64;
                            match (&sl.entries[idx], &bl.entries[idx]) {
                                (Some(se), Some(be)) => {
                                    if !Arc::ptr_eq(&se.frame, &be.frame) {
                                        pages.push(PageDelta {
                                            vpn,
                                            perm: se.perm,
                                            op: entry_op(se),
                                        });
                                    } else if se.perm != be.perm {
                                        pages.push(PageDelta {
                                            vpn,
                                            perm: se.perm,
                                            op: PageDeltaOp::SetPerm,
                                        });
                                    }
                                }
                                (Some(se), None) => pages.push(PageDelta {
                                    vpn,
                                    perm: se.perm,
                                    op: entry_op(se),
                                }),
                                (None, Some(_)) => unmapped.push(vpn),
                                (None, None) => {}
                            }
                        }
                    }
                    i += 1;
                    j += 1;
                }
                (Some(s), bb) if bb.is_none_or(|b| s < b) => {
                    let sl = &self.root[i].leaf;
                    for idx in sl.present_indices() {
                        let se = sl.entries[idx].as_ref().expect("present bit set");
                        pages.push(PageDelta {
                            vpn: (s << LEAF_BITS) + idx as u64,
                            perm: se.perm,
                            op: entry_op(se),
                        });
                    }
                    i += 1;
                }
                (_, Some(b)) => {
                    let bl = &base.root[j].leaf;
                    for idx in bl.present_indices() {
                        unmapped.push((b << LEAF_BITS) + idx as u64);
                    }
                    j += 1;
                }
                _ => unreachable!("loop condition"),
            }
        }
        // Dirty-set difference: pages marked dirty since the base
        // without a frame change. The frame diff above already dirties
        // its Write/WriteZero pages on apply, so only the remainder
        // needs explicit marks.
        let written: std::collections::BTreeSet<u64> = pages.iter().map(|p| p.vpn).collect();
        for vpn in self.dirty.vpns_in(0, u64::MAX) {
            if base.dirty.contains(vpn) || written.contains(&vpn) {
                continue;
            }
            if let Some(e) = self.entry(vpn) {
                pages.push(PageDelta {
                    vpn,
                    perm: e.perm,
                    op: PageDeltaOp::MarkDirty,
                });
            }
        }
        pages.sort_by_key(|p| p.vpn);
        SpaceDelta { pages, unmapped }
    }

    /// Applies a delta produced by
    /// [`delta_since`](AddressSpace::delta_since) onto this space (a
    /// replica of the delta's base), reproducing the original's
    /// content, permissions, dirty write-set, zero-frame identities,
    /// and leaf-sharing structure.
    pub fn apply_delta(&mut self, delta: &crate::SpaceDelta) -> Result<()> {
        use crate::delta::PageDeltaOp;
        for &vpn in &delta.unmapped {
            self.remove_entry(vpn);
            self.dirty.remove(vpn);
        }
        for p in &delta.pages {
            match &p.op {
                PageDeltaOp::Write(bytes) => {
                    if bytes.len() != PAGE_SIZE {
                        return Err(MemError::Misaligned {
                            addr: p.vpn << PAGE_SHIFT,
                        });
                    }
                    let mut frame = Frame::zeroed();
                    frame.bytes_mut().copy_from_slice(bytes);
                    self.insert_entry(
                        p.vpn,
                        PageEntry {
                            frame: Arc::new(frame),
                            perm: p.perm,
                        },
                    );
                    self.dirty.insert(p.vpn);
                }
                PageDeltaOp::WriteZero => {
                    self.insert_entry(
                        p.vpn,
                        PageEntry {
                            frame: zero_frame(),
                            perm: p.perm,
                        },
                    );
                    self.dirty.insert(p.vpn);
                }
                PageDeltaOp::SetPerm => {
                    // entry_mut unshares the leaf, as live set_perm did.
                    match self.entry_mut(p.vpn) {
                        Some(e) => e.perm = p.perm,
                        None => {
                            return Err(MemError::Unmapped {
                                addr: p.vpn << PAGE_SHIFT,
                            });
                        }
                    }
                }
                PageDeltaOp::MarkDirty => {
                    // The live write that dirtied this page unshared
                    // its leaf even though the frame stayed put (e.g.
                    // map_zero over an already-zero page); entry_mut
                    // reproduces the unsharing on the replica.
                    if self.entry_mut(p.vpn).is_none() {
                        return Err(MemError::Unmapped {
                            addr: p.vpn << PAGE_SHIFT,
                        });
                    }
                    self.dirty.insert(p.vpn);
                }
            }
        }
        self.generation += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Leaf-granularity export (cluster migration pulls)
    // ------------------------------------------------------------------

    /// The leaf-granularity summary of this space: one [`LeafInfo`]
    /// per materialized page-table leaf holding at least one mapped
    /// page, ascending by address.
    ///
    /// This is the migration control-plane message of PAPER.md §3.3:
    /// because the structurally shared table only materializes leaves
    /// that were actually touched, the summary — and therefore the
    /// whole leaf-pull transfer it indexes — is O(touched), never
    /// O(address-range).
    ///
    /// # Examples
    ///
    /// ```
    /// use det_memory::{AddressSpace, PAGES_PER_LEAF, Perm, Region};
    ///
    /// let mut s = AddressSpace::new();
    /// // Two pages in one leaf, far apart from a third.
    /// s.map_zero(Region::new(0x1000, 0x3000), Perm::RW).unwrap();
    /// s.map_zero(Region::new(0x4000_0000, 0x4000_1000), Perm::RW).unwrap();
    /// let sum = s.leaf_summary();
    /// assert_eq!(sum.len(), 2);
    /// assert_eq!(sum[0].pages, 2);
    /// assert_eq!(sum[1].first_vpn, 0x4000_0000 >> 12);
    /// assert!(sum.iter().map(|l| l.pages as usize).sum::<usize>() <= s.leaf_count() * PAGES_PER_LEAF);
    /// ```
    pub fn leaf_summary(&self) -> Vec<LeafInfo> {
        self.root
            .iter()
            .filter(|rs| rs.leaf.mapped > 0)
            .map(|rs| LeafInfo {
                first_vpn: rs.base << LEAF_BITS,
                pages: rs.leaf.mapped,
            })
            .collect()
    }

    /// The full image of one page-table leaf as a [`crate::SpaceDelta`]
    /// against an *empty* space: a `Write`/`WriteZero` op (with
    /// permissions) per mapped page of the leaf identified by
    /// `first_vpn` (which must be leaf-aligned). Applying every leaf
    /// image of [`leaf_summary`](AddressSpace::leaf_summary) onto a
    /// fresh space via [`apply_delta`](AddressSpace::apply_delta)
    /// reproduces this space's bytes, permissions, zero-frame
    /// identities, and the dirty marks a live
    /// [`copy_from`](AddressSpace::copy_from) would leave — which is
    /// what lets a migrated space materialize leaf by leaf, pulling
    /// only what the home node's table actually holds.
    ///
    /// An unknown or unmaterialized leaf yields an empty delta.
    ///
    /// # Examples
    ///
    /// ```
    /// use det_memory::{AddressSpace, Perm, Region};
    ///
    /// let mut src = AddressSpace::new();
    /// src.map_zero(Region::new(0x1000, 0x3000), Perm::RW).unwrap();
    /// src.write(0x1000, b"leaf").unwrap();
    ///
    /// let mut dst = AddressSpace::new();
    /// for leaf in src.leaf_summary() {
    ///     dst.apply_delta(&src.leaf_image(leaf.first_vpn)).unwrap();
    /// }
    /// assert_eq!(dst.content_digest(), src.content_digest());
    /// ```
    pub fn leaf_image(&self, first_vpn: u64) -> crate::SpaceDelta {
        use crate::delta::{PageDelta, PageDeltaOp, SpaceDelta};
        let zero = zero_frame();
        let mut pages: Vec<PageDelta> = Vec::new();
        if first_vpn & LEAF_MASK == 0 {
            if let Ok(pos) = self.leaf_pos(first_vpn >> LEAF_BITS) {
                let leaf = &self.root[pos].leaf;
                for idx in leaf.present_indices() {
                    let e = leaf.entries[idx].as_ref().expect("present bit set");
                    pages.push(PageDelta {
                        vpn: first_vpn + idx as u64,
                        perm: e.perm,
                        op: if Arc::ptr_eq(&e.frame, &zero) {
                            PageDeltaOp::WriteZero
                        } else {
                            PageDeltaOp::Write(e.frame.bytes().to_vec())
                        },
                    });
                }
            }
        }
        SpaceDelta {
            pages,
            unmapped: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Translation fast path (the VM's software TLB)
    // ------------------------------------------------------------------

    /// The current page-table generation (see [`Translation`]).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// This space's unique identity (see [`Translation`]).
    #[inline]
    pub fn space_id(&self) -> u64 {
        self.space_id
    }

    /// Mints a read translation for the page containing `addr`, or
    /// `None` if the page is unmapped, not readable, or an access
    /// tracker is installed (the fast path would bypass its log).
    ///
    /// The translation stays redeemable until the next generation bump;
    /// a whole page of reads through it is semantically identical to
    /// the [`read`](AddressSpace::read) slow path.
    #[inline]
    pub fn translate_read(&self, addr: u64) -> Option<Translation> {
        if self.tracker.is_some() {
            return None;
        }
        let vpn = vpn_of(addr);
        let slot = self.leaf_pos(vpn >> LEAF_BITS).ok()?;
        let entry = (vpn & LEAF_MASK) as usize;
        let e = self.root[slot].leaf.entries[entry].as_ref()?;
        if !e.perm.allows(Perm::R) {
            return None;
        }
        Some(Translation {
            space_id: self.space_id,
            generation: self.generation,
            slot: slot as u32,
            entry: entry as u16,
            writable: false,
        })
    }

    /// Mints a write translation for the page containing `addr`, or
    /// `None` if the page is unmapped, not writable, or a tracker is
    /// installed.
    ///
    /// The page is made exclusively owned now (copy-on-write clone of
    /// a shared leaf *and* a shared frame, if needed) and marked dirty,
    /// so the [`Pinned::Rw`] view [`pin`](AddressSpace::pin) redeems it
    /// into can be written in place with no per-store permission check,
    /// dirty-set insert, or `Arc::make_mut`. This mints without bumping
    /// the generation: the table structure, permissions, and dirty set
    /// only gained information, so no outstanding translation went
    /// stale.
    pub fn translate_write(&mut self, addr: u64) -> Option<Translation> {
        if self.tracker.is_some() {
            return None;
        }
        let vpn = vpn_of(addr);
        let slot = self.leaf_pos(vpn >> LEAF_BITS).ok()?;
        let entry = (vpn & LEAF_MASK) as usize;
        // Refuse through the *shared* leaf: un-sharing it for a store
        // that will be denied anyway would pay a 512-entry clone and
        // needlessly break structural sharing with a live snapshot.
        if !self.root[slot].leaf.entries[entry]
            .as_ref()
            .is_some_and(|e| e.perm.allows(Perm::W))
        {
            return None;
        }
        let leaf = Arc::make_mut(&mut self.root[slot].leaf);
        let e = leaf.entries[entry].as_mut().expect("checked above");
        Arc::make_mut(&mut e.frame);
        self.dirty.insert(vpn);
        Some(Translation {
            space_id: self.space_id,
            generation: self.generation,
            slot: slot as u32,
            entry: entry as u16,
            writable: true,
        })
    }

    /// True if `t` was minted by this exact space at its current
    /// generation — the part of redemption that needs no borrow of the
    /// table. A TLB that caches separate read and write translations
    /// for one page asks this to decide which to hand to
    /// [`pin`](AddressSpace::pin).
    #[inline]
    pub fn is_current(&self, t: Translation) -> bool {
        t.space_id == self.space_id && t.generation == self.generation
    }

    /// Redeems up to two translations — of two *different* pages — into
    /// views of the pages' bytes that live as long as this exclusive
    /// borrow of the space: the one routine through which a
    /// [`Translation`] turns into memory.
    ///
    /// A slot comes back `None` if its translation is not
    /// [current](AddressSpace::is_current) (minted by another space or
    /// before the last generation bump); any failure is a miss and the
    /// caller falls back to the slow path. A read translation yields
    /// [`Pinned::Ro`]. A write translation yields [`Pinned::Rw`] only
    /// while the page is still exclusively owned at *both* levels: a
    /// snapshot or leaf-congruent virtual copy shares the whole leaf,
    /// a per-page copy or an adopting merge shares the frame, and none
    /// of them bumps this space's generation. Writing in place through
    /// either kind of sharing would leak through the copy-on-write
    /// boundary, so leaf exclusivity (`Arc::get_mut` on the leaf) is
    /// checked **before** frame exclusivity — a frame inside a
    /// structurally-shared leaf has a refcount of one, and only the
    /// leaf check can see that it is reachable from two spaces. A
    /// write translation that fails either check is redeemed `Ro`; the
    /// store it was meant for misses, and the slow path clones
    /// properly.
    ///
    /// The checks run once per call, not once per access, and that is
    /// sound for exactly as long as the views can live: sharing a leaf
    /// or a frame (`clone`, being a `copy_from` or merge *source*)
    /// needs at least `&self`, every mutation needs `&mut self`, and
    /// the views hold `&mut self`. Two pages of one leaf, or of two
    /// leaves in either order, come back as disjoint borrows; passing
    /// the same page twice — through read or write translations, a
    /// shared leaf or an exclusive one — returns `None` for both.
    ///
    /// **Single-executor contract**: in-place writes through an `Rw`
    /// view deliberately do *not* bump the generation (that is the
    /// entire fast path), so they are invisible to any *other* holder
    /// of content-derived caches over this space. The one legitimate
    /// caller is the single `det_vm::Cpu` executing the space — it
    /// invalidates its own decoded-instruction cache on stores into
    /// code pages. Driving two CPUs against one space (the kernel
    /// never does) would let one CPU's stores stale the other's cached
    /// decodes; use [`write`](AddressSpace::write) (which bumps the
    /// generation) for any externally-observable mutation.
    #[inline(always)]
    pub fn pin(&mut self, pages: [Option<Translation>; 2]) -> [Option<Pinned<'_>>; 2] {
        let [a, b] = pages.map(|t| t.filter(|&t| self.is_current(t)));
        let slot = |t: Translation| t.slot as usize;
        match (a, b) {
            (Some(ta), Some(tb)) if (ta.slot, ta.entry) == (tb.slot, tb.entry) => [None, None],
            (Some(ta), Some(tb)) if ta.slot != tb.slot => {
                let Ok([sa, sb]) = self.root.get_disjoint_mut([slot(ta), slot(tb)]) else {
                    return [None, None];
                };
                let [va, _] = leaf_views(&mut sa.leaf, a, None);
                let [_, vb] = leaf_views(&mut sb.leaf, None, b);
                [va, vb]
            }
            _ => match a.or(b).and_then(|t| self.root.get_mut(slot(t))) {
                Some(rs) => leaf_views(&mut rs.leaf, a, b),
                None => [None, None],
            },
        }
    }

    // ------------------------------------------------------------------
    // Byte access
    // ------------------------------------------------------------------

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// Fails with [`MemError::Unmapped`] or [`MemError::PermDenied`] at
    /// the first inaccessible byte; earlier bytes may already have been
    /// copied into `buf` (the kernel aborts the faulting space anyway).
    ///
    /// # Examples
    ///
    /// ```
    /// use det_memory::{AddressSpace, MemError, Perm, Region};
    ///
    /// let mut s = AddressSpace::new();
    /// s.map_zero(Region::new(0x1000, 0x2000), Perm::RW).unwrap();
    /// s.write(0x1000, b"abc").unwrap();
    /// let mut buf = [0u8; 3];
    /// s.read(0x1000, &mut buf).unwrap();
    /// assert_eq!(&buf, b"abc");
    /// assert_eq!(s.read(0x9000, &mut buf), Err(MemError::Unmapped { addr: 0x9000 }));
    /// ```
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<()> {
        self.access(addr, buf.len(), Perm::R, |off, frame_bytes, chunk| {
            buf[off..off + chunk.len()].copy_from_slice(chunk);
            let _ = frame_bytes;
        })
    }

    /// Writes `data` starting at `addr`, cloning shared leaves and
    /// frames first (copy-on-write).
    ///
    /// The range is validated up front — every page mapped and
    /// writable — so a failed write is still all-or-nothing: nothing is
    /// dirtied or copied unless the whole range is writable. The copy
    /// loop then works leaf by leaf, un-sharing each leaf at most once.
    /// External content writes bump the generation: the bytes under any
    /// outstanding translation (and any decoded instruction) may have
    /// changed.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let end = addr
            .checked_add(data.len() as u64)
            .ok_or(MemError::AddressOverflow)?;
        let first_vpn = vpn_of(addr);
        let last_vpn = vpn_of(end - 1);

        // Validation pass: every page present and writable, reported
        // in ascending address order. Walked leaf by leaf — one spine
        // lookup per 512 pages, not per page — so staging a large
        // image validates in O(pages) array probes.
        let mut vpn = first_vpn;
        while vpn <= last_vpn {
            let base = vpn >> LEAF_BITS;
            let pos = self.leaf_pos(base).map_err(|_| MemError::Unmapped {
                addr: vpn << crate::PAGE_SHIFT,
            })?;
            let leaf = &self.root[pos].leaf;
            let chunk_last = (((base + 1) << LEAF_BITS) - 1).min(last_vpn);
            for v in vpn..=chunk_last {
                match leaf.entries[(v & LEAF_MASK) as usize].as_ref() {
                    None => {
                        return Err(MemError::Unmapped {
                            addr: v << crate::PAGE_SHIFT,
                        });
                    }
                    Some(e) if !e.perm.allows(Perm::W) => {
                        return Err(MemError::PermDenied {
                            addr: v << crate::PAGE_SHIFT,
                            need: Perm::W,
                        });
                    }
                    Some(_) => {}
                }
            }
            vpn = chunk_last + 1;
        }

        if let Some(t) = &self.tracker {
            t.record_write_range(addr, data.len() as u64);
        }
        self.generation += 1;
        let mut cursor = addr;
        let mut remaining = data;
        let mut vpn = first_vpn;
        while vpn <= last_vpn {
            let base = vpn >> LEAF_BITS;
            let pos = self.leaf_pos(base).expect("validated above");
            let chunk_last = (((base + 1) << LEAF_BITS) - 1).min(last_vpn);
            // One un-share per leaf, then in-place stores.
            let leaf = Arc::make_mut(&mut self.root[pos].leaf);
            for v in vpn..=chunk_last {
                self.dirty.insert(v);
                let off = offset_of(cursor);
                let n = remaining.len().min(PAGE_SIZE - off);
                let e = leaf.entries[(v & LEAF_MASK) as usize]
                    .as_mut()
                    .expect("validated above");
                // Copy-on-write: clone the frame if it is shared.
                let frame = Arc::make_mut(&mut e.frame);
                frame.bytes_mut()[off..off + n].copy_from_slice(&remaining[..n]);
                cursor += n as u64;
                remaining = &remaining[n..];
            }
            vpn = chunk_last + 1;
        }
        Ok(())
    }

    /// Shared read walk used by `read`; calls `sink(buf_offset, frame, chunk)`
    /// per page-sized chunk.
    fn access(
        &self,
        addr: u64,
        len: usize,
        need: Perm,
        mut sink: impl FnMut(usize, &Frame, &[u8]),
    ) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let _end = addr
            .checked_add(len as u64)
            .ok_or(MemError::AddressOverflow)?;
        if let Some(t) = &self.tracker {
            t.record_read_range(addr, len as u64);
        }
        let mut cursor = addr;
        let mut done = 0usize;
        while done < len {
            let off = offset_of(cursor);
            let chunk = (len - done).min(PAGE_SIZE - off);
            let entry = self.entry(vpn_of(cursor)).ok_or(MemError::Unmapped {
                addr: vpn_of(cursor) << crate::PAGE_SHIFT,
            })?;
            if !entry.perm.allows(need) {
                return Err(MemError::PermDenied {
                    addr: vpn_of(cursor) << crate::PAGE_SHIFT,
                    need,
                });
            }
            sink(done, &entry.frame, &entry.frame.bytes()[off..off + chunk]);
            cursor += chunk as u64;
            done += chunk;
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector.
    pub fn read_vec(&self, addr: u64, len: usize) -> Result<Vec<u8>> {
        let mut v = vec![0u8; len];
        self.read(addr, &mut v)?;
        Ok(v)
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> Result<u8> {
        let mut b = [0u8; 1];
        self.read(addr, &mut b)?;
        Ok(b[0])
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> Result<u32> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a little-endian `f64`.
    pub fn read_f64(&self, addr: u64) -> Result<f64> {
        Ok(f64::from_bits(self.read_u64(addr)?))
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) -> Result<()> {
        self.write(addr, &[v])
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<()> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<()> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Writes a little-endian `f64`.
    pub fn write_f64(&mut self, addr: u64, v: f64) -> Result<()> {
        self.write_u64(addr, v.to_bits())
    }

    /// Reads `n` little-endian `u64`s starting at `addr`.
    pub fn read_u64s(&self, addr: u64, n: usize) -> Result<Vec<u64>> {
        let raw = self.read_vec(addr, n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect())
    }

    /// Writes a slice of `u64`s little-endian starting at `addr`.
    pub fn write_u64s(&mut self, addr: u64, vals: &[u64]) -> Result<()> {
        let mut raw = Vec::with_capacity(vals.len() * 8);
        for v in vals {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        self.write(addr, &raw)
    }

    /// Reads `n` little-endian `f64`s starting at `addr`.
    pub fn read_f64s(&self, addr: u64, n: usize) -> Result<Vec<f64>> {
        let raw = self.read_vec(addr, n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect())
    }

    /// Writes a slice of `f64`s little-endian starting at `addr`.
    pub fn write_f64s(&mut self, addr: u64, vals: &[f64]) -> Result<()> {
        let mut raw = Vec::with_capacity(vals.len() * 8);
        for v in vals {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        self.write(addr, &raw)
    }

    /// Returns a deterministic digest of the mapped contents
    /// (vpn, perm, bytes), used by determinism tests to compare whole
    /// memory images across runs. The generation and space id are
    /// deliberately excluded: they are cache-validation state, not
    /// memory contents.
    pub fn content_digest(&self) -> ContentDigest {
        let mut d = ContentDigest::new();
        for rs in &self.root {
            for idx in rs.leaf.present_indices() {
                let e = rs.leaf.entries[idx].as_ref().expect("present bit set");
                d.update_u64((rs.base << LEAF_BITS) + idx as u64);
                d.update_u64(if e.perm.allows(Perm::R) { 1 } else { 0 });
                d.update_u64(if e.perm.allows(Perm::W) { 1 } else { 0 });
                d.update(e.frame.bytes());
            }
        }
        d
    }

    /// Returns one `(vpn, digest)` pair per mapped page, in ascending
    /// vpn order. Each digest covers the page's permission bits plus
    /// its full contents, computed with the same FNV chain as
    /// [`AddressSpace::content_digest`]. This is the stable per-space
    /// enumeration the conformance harness serializes into artifact
    /// bundles: a content divergence localizes to the first differing
    /// page instead of one opaque whole-image digest.
    pub fn page_digests(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.page_count());
        for rs in &self.root {
            for idx in rs.leaf.present_indices() {
                let e = rs.leaf.entries[idx].as_ref().expect("present bit set");
                let mut d = ContentDigest::new();
                d.update_u64(if e.perm.allows(Perm::R) { 1 } else { 0 });
                d.update_u64(if e.perm.allows(Perm::W) { 1 } else { 0 });
                d.update(e.frame.bytes());
                out.push(((rs.base << LEAF_BITS) + idx as u64, d.value()));
            }
        }
        out
    }

    /// Grants `merge_from` access to entries (crate-internal).
    pub(crate) fn entry_frame(&self, vpn: u64) -> Option<(&Arc<Frame>, Perm)> {
        self.entry(vpn).map(|e| (&e.frame, e.perm))
    }

    /// Installs `frame` at `vpn` with `perm` (crate-internal, used by merge).
    pub(crate) fn install_frame(&mut self, vpn: u64, frame: Arc<Frame>, perm: Perm) {
        self.insert_entry(vpn, PageEntry { frame, perm });
        self.dirty.insert(vpn);
        self.generation += 1;
    }

    /// Returns a mutable reference to the frame at `vpn`, cloning leaf
    /// and frame first if shared (crate-internal, used by merge).
    pub(crate) fn frame_mut(&mut self, vpn: u64) -> Option<&mut Frame> {
        self.dirty.insert(vpn);
        self.generation += 1;
        self.entry_mut(vpn).map(|e| Arc::make_mut(&mut e.frame))
    }

    /// Returns the sorted list of mapped vpns intersecting `region`.
    pub(crate) fn vpns_in(&self, region: Region) -> Vec<u64> {
        if region.is_empty() {
            return Vec::new();
        }
        let first = vpn_of(region.start);
        let last = vpn_of(region.end - 1);
        let mut out = Vec::new();
        let start_pos = self
            .root
            .partition_point(|rs| rs.base < (first >> LEAF_BITS));
        for rs in &self.root[start_pos..] {
            if rs.base > (last >> LEAF_BITS) {
                break;
            }
            for idx in rs.leaf.present_indices() {
                let vpn = (rs.base << LEAF_BITS) + idx as u64;
                if vpn >= first && vpn <= last {
                    out.push(vpn);
                }
            }
        }
        out
    }

    /// Returns the sorted dirty VPNs intersecting `region` — the
    /// candidate set the merge engine examines (public for inspection
    /// tools and the VM's differential tests).
    pub fn dirty_vpns_in(&self, region: Region) -> Vec<u64> {
        if region.is_empty() {
            return Vec::new();
        }
        self.dirty
            .vpns_in(vpn_of(region.start), vpn_of(region.end - 1))
    }

    /// Counts mapped pages intersecting `region` — O(leaves) popcount
    /// work on the present bitmaps, no per-page iteration.
    pub(crate) fn mapped_pages_in(&self, region: Region) -> u64 {
        if region.is_empty() {
            return 0;
        }
        let first = vpn_of(region.start);
        let last = vpn_of(region.end - 1);
        let mut n = 0u64;
        let start_pos = self
            .root
            .partition_point(|rs| rs.base < (first >> LEAF_BITS));
        for rs in &self.root[start_pos..] {
            if rs.base > (last >> LEAF_BITS) {
                break;
            }
            let leaf_first = rs.base << LEAF_BITS;
            let lo = first.max(leaf_first) - leaf_first;
            let hi = last.min(leaf_first + LEAF_MASK) - leaf_first;
            if lo == 0 && hi == LEAF_MASK {
                n += rs.leaf.mapped as u64;
            } else {
                n += rs.leaf.mapped_in(lo as usize, hi as usize) as u64;
            }
        }
        n
    }

    /// Number of pages currently in the dirty write-set (pages whose
    /// contents may have changed since the last
    /// [`snapshot`](AddressSpace::snapshot)).
    pub fn dirty_page_count(&self) -> usize {
        self.dirty.len()
    }

    /// The complete sorted dirty write-set, across the whole address
    /// space (the checkpoint encoder persists it so a restored replica
    /// merges with identical stats — see
    /// [`delta_since`](AddressSpace::delta_since)).
    pub fn dirty_vpns(&self) -> Vec<u64> {
        self.dirty.vpns_in(0, u64::MAX)
    }

    /// Number of distinct page-table leaves containing at least one
    /// dirty page — the unit of incremental-checkpoint work.
    /// [`delta_since`](AddressSpace::delta_since) visits exactly the
    /// leaves that changed since the base, so the kernel charges
    /// checkpoint virtual time per dirty leaf, mirroring how
    /// `space_clone_ps` is charged per leaf on snapshot.
    pub fn dirty_leaf_count(&self) -> usize {
        let mut leaves = 0usize;
        let mut cur: Option<u64> = None;
        for vpn in self.dirty.vpns_in(0, u64::MAX) {
            let leaf = vpn >> LEAF_BITS;
            if cur != Some(leaf) {
                leaves += 1;
                cur = Some(leaf);
            }
        }
        leaves
    }
}

impl std::fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AddressSpace {{ pages: {}, leaves: {}, bytes: {} }}",
            self.pages,
            self.root.len(),
            self.mapped_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConflictPolicy;

    fn rw_space(start: u64, len: u64) -> AddressSpace {
        let mut s = AddressSpace::new();
        s.map_zero(Region::sized(start, len), Perm::RW).unwrap();
        s
    }

    #[test]
    fn zero_mapped_reads_zero() {
        let s = rw_space(0x1000, 0x3000);
        assert_eq!(s.read_vec(0x1000, 16).unwrap(), vec![0u8; 16]);
        assert_eq!(s.read_u64(0x2ff8).unwrap(), 0);
    }

    #[test]
    fn unmapped_faults() {
        let s = rw_space(0x1000, 0x1000);
        assert_eq!(s.read_u8(0x3000), Err(MemError::Unmapped { addr: 0x3000 }));
        let mut s = s;
        assert!(matches!(s.write_u8(0x0, 1), Err(MemError::Unmapped { .. })));
    }

    #[test]
    fn perm_enforced() {
        let mut s = AddressSpace::new();
        s.map_zero(Region::new(0x1000, 0x2000), Perm::R).unwrap();
        assert!(s.read_u8(0x1000).is_ok());
        assert_eq!(
            s.write_u8(0x1000, 1),
            Err(MemError::PermDenied {
                addr: 0x1000,
                need: Perm::W
            })
        );
        s.set_perm(Region::new(0x1000, 0x2000), Perm::RW).unwrap();
        assert!(s.write_u8(0x1000, 1).is_ok());
        s.set_perm(Region::new(0x1000, 0x2000), Perm::NONE).unwrap();
        assert!(matches!(
            s.read_u8(0x1000),
            Err(MemError::PermDenied { .. })
        ));
    }

    #[test]
    fn write_spanning_pages() {
        let mut s = rw_space(0x1000, 0x2000);
        let data: Vec<u8> = (0..100).collect();
        s.write(0x1fd0, &data).unwrap();
        assert_eq!(s.read_vec(0x1fd0, 100).unwrap(), data);
    }

    #[test]
    fn write_spanning_many_pages() {
        let mut s = rw_space(0x1000, 0x10000);
        let data: Vec<u8> = (0..0xa000u32).map(|i| i as u8).collect();
        s.write(0x1800, &data).unwrap();
        assert_eq!(s.read_vec(0x1800, data.len()).unwrap(), data);
    }

    #[test]
    fn write_spanning_leaves() {
        // A write crossing a 512-page leaf boundary un-shares both
        // leaves and lands byte-exactly.
        let base = (PAGES_PER_LEAF as u64 - 1) << crate::PAGE_SHIFT;
        let mut s = rw_space(base, 2 * PAGE_SIZE as u64);
        assert_eq!(s.leaf_count(), 2);
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        s.write(base + PAGE_SIZE as u64 - 100, &data).unwrap();
        assert_eq!(
            s.read_vec(base + PAGE_SIZE as u64 - 100, 200).unwrap(),
            data
        );
    }

    #[test]
    fn failed_write_is_all_or_nothing() {
        let mut s = rw_space(0x1000, 0x1000);
        // Spans into unmapped page 0x2000.
        let before = s.read_vec(0x1ff0, 16).unwrap();
        let dirty_before = s.dirty_page_count();
        assert!(s.write(0x1ff0, &[1u8; 32]).is_err());
        assert_eq!(s.read_vec(0x1ff0, 16).unwrap(), before);
        // The failed write also left no dirty marks behind.
        assert_eq!(s.dirty_page_count(), dirty_before);
    }

    #[test]
    fn failed_write_reports_first_bad_page() {
        let mut s = rw_space(0x1000, 0x1000);
        s.map_zero(Region::new(0x3000, 0x4000), Perm::RW).unwrap();
        // Hole at 0x2000 in the middle of the range.
        assert_eq!(
            s.write(0x1ff0, &[0u8; 0x2020]),
            Err(MemError::Unmapped { addr: 0x2000 })
        );
        // Read-only page in the middle is found too.
        s.map_zero(Region::new(0x2000, 0x3000), Perm::R).unwrap();
        assert_eq!(
            s.write(0x1ff0, &[0u8; 0x2020]),
            Err(MemError::PermDenied {
                addr: 0x2000,
                need: Perm::W
            })
        );
    }

    #[test]
    fn cow_copy_isolates_writes() {
        let mut parent = rw_space(0x1000, 0x2000);
        parent.write_u64(0x1000, 42).unwrap();
        let mut child = AddressSpace::new();
        child
            .copy_from(&parent, Region::new(0x1000, 0x3000), 0x1000)
            .unwrap();
        // Shared frame until a write.
        assert!(child.same_frame(&parent, 1));
        child.write_u64(0x1000, 7).unwrap();
        assert!(!child.same_frame(&parent, 1));
        assert_eq!(parent.read_u64(0x1000).unwrap(), 42);
        assert_eq!(child.read_u64(0x1000).unwrap(), 7);
        // Untouched page still shared.
        assert!(child.same_frame(&parent, 2));
    }

    #[test]
    fn copy_to_different_destination() {
        let mut src = rw_space(0x1000, 0x1000);
        src.write(0x1100, b"hello").unwrap();
        let mut dst = AddressSpace::new();
        dst.copy_from(&src, Region::new(0x1000, 0x2000), 0x8000)
            .unwrap();
        assert_eq!(dst.read_vec(0x8100, 5).unwrap(), b"hello");
    }

    #[test]
    fn copy_propagates_holes() {
        let mut src = AddressSpace::new();
        src.map_zero(Region::new(0x1000, 0x2000), Perm::RW).unwrap();
        // dst has a page at 0x5000 that the source range lacks.
        let mut dst = rw_space(0x4000, 0x3000);
        dst.copy_from(&src, Region::new(0x0000, 0x3000), 0x4000)
            .unwrap();
        // 0x4000 (from unmapped 0x0000) must now be unmapped.
        assert!(matches!(
            dst.read_u8(0x4000),
            Err(MemError::Unmapped { .. })
        ));
        assert!(dst.read_u8(0x5000).is_ok());
        assert!(matches!(
            dst.read_u8(0x6000),
            Err(MemError::Unmapped { .. })
        ));
    }

    #[test]
    fn snapshot_is_immutable_reference() {
        let mut s = rw_space(0x1000, 0x1000);
        s.write_u64(0x1000, 1).unwrap();
        let snap = s.snapshot();
        s.write_u64(0x1000, 2).unwrap();
        assert_eq!(snap.read_u64(0x1000).unwrap(), 1);
        assert_eq!(s.read_u64(0x1000).unwrap(), 2);
    }

    #[test]
    fn digest_detects_content_and_perm_changes() {
        let mut a = rw_space(0x1000, 0x2000);
        let d0 = a.content_digest();
        a.write_u8(0x1800, 1).unwrap();
        let d1 = a.content_digest();
        assert_ne!(d0, d1);
        a.write_u8(0x1800, 0).unwrap();
        // Content equality matters, not sharing structure.
        assert_eq!(a.content_digest(), d0);
        a.set_perm(Region::new(0x1000, 0x2000), Perm::R).unwrap();
        assert_ne!(a.content_digest(), d0);
    }

    #[test]
    fn typed_accessors_roundtrip() {
        let mut s = rw_space(0, 0x2000);
        s.write_u32(0x10, 0xdead_beef).unwrap();
        assert_eq!(s.read_u32(0x10).unwrap(), 0xdead_beef);
        s.write_f64(0x20, -1.5e300).unwrap();
        assert_eq!(s.read_f64(0x20).unwrap(), -1.5e300);
        s.write_u64s(0x100, &[1, 2, 3]).unwrap();
        assert_eq!(s.read_u64s(0x100, 3).unwrap(), vec![1, 2, 3]);
        s.write_f64s(0x200, &[0.5, -0.25]).unwrap();
        assert_eq!(s.read_f64s(0x200, 2).unwrap(), vec![0.5, -0.25]);
    }

    #[test]
    fn unmap_removes_pages() {
        let mut s = rw_space(0x1000, 0x3000);
        s.unmap(Region::new(0x2000, 0x3000)).unwrap();
        assert!(s.read_u8(0x1000).is_ok());
        assert!(matches!(s.read_u8(0x2000), Err(MemError::Unmapped { .. })));
        assert!(s.read_u8(0x3000).is_ok());
        assert_eq!(s.page_count(), 2);
    }

    #[test]
    fn empty_leaves_are_dropped() {
        let mut s = rw_space(0x1000, 0x3000);
        assert_eq!(s.leaf_count(), 1);
        s.unmap(Region::new(0x1000, 0x4000)).unwrap();
        // Unmapping the last page of a leaf removes the leaf itself,
        // so the spine never accumulates empty leaves.
        assert_eq!(s.leaf_count(), 0);
        s.map_zero(Region::new(0x8000, 0xa000), Perm::RW).unwrap();
        assert_eq!(s.leaf_count(), 1);
        s.write_u8(0x8000, 7).unwrap();
        assert_eq!(s.read_u8(0x8000).unwrap(), 7);
        assert_eq!(s.page_count(), 2);
    }

    #[test]
    fn misaligned_kernel_ops_rejected() {
        let mut s = AddressSpace::new();
        assert!(matches!(
            s.map_zero(Region::new(0x100, 0x2000), Perm::RW),
            Err(MemError::Misaligned { .. })
        ));
        let src = AddressSpace::new();
        assert!(matches!(
            s.copy_from(&src, Region::new(0x1000, 0x2000), 0x80),
            Err(MemError::Misaligned { .. })
        ));
    }

    #[test]
    fn zero_fill_shares_global_frame() {
        let s = rw_space(0x1000, 0x100000);
        assert!(s.iter_pages().all(|p| p.is_zero_frame));
        assert_eq!(s.page_count(), 0x100);
    }

    #[test]
    fn dirty_set_tracks_mutations_and_snapshot_clears() {
        let mut s = rw_space(0x1000, 0x3000);
        // map_zero dirtied all three pages.
        assert_eq!(s.dirty_page_count(), 3);
        let _snap = s.snapshot();
        assert_eq!(s.dirty_page_count(), 0);
        // A write spanning two pages dirties both.
        s.write(0x1ff0, &[1u8; 32]).unwrap();
        assert_eq!(s.dirty_vpns_in(Region::new(0x1000, 0x4000)), vec![1, 2]);
        // Unmapping removes the page from the set.
        s.unmap(Region::new(0x2000, 0x3000)).unwrap();
        assert_eq!(s.dirty_vpns_in(Region::new(0x1000, 0x4000)), vec![1]);
        // Region filtering works.
        assert!(s.dirty_vpns_in(Region::new(0x3000, 0x4000)).is_empty());
        assert_eq!(s.mapped_pages_in(Region::new(0x1000, 0x4000)), 2);
    }

    #[test]
    fn copy_from_marks_destination_dirty() {
        let mut src = rw_space(0x1000, 0x2000);
        src.write_u8(0x1000, 9).unwrap();
        let mut dst = AddressSpace::new();
        let _snap = dst.snapshot();
        dst.copy_from(&src, Region::new(0x1000, 0x3000), 0x1000)
            .unwrap();
        assert_eq!(dst.dirty_vpns_in(Region::new(0x1000, 0x3000)), vec![1, 2]);
    }

    #[test]
    fn map_zero_if_unmapped_preserves_existing_pages() {
        let mut s = rw_space(0x1000, 0x1000);
        s.write_u8(0x1000, 7).unwrap();
        let added = s
            .map_zero_if_unmapped(Region::new(0x1000, 0x3000), Perm::RW)
            .unwrap();
        assert_eq!(added, 1);
        // The existing page's contents survived; the new page is zero.
        assert_eq!(s.read_u8(0x1000).unwrap(), 7);
        assert_eq!(s.read_u8(0x2000).unwrap(), 0);
    }

    // ------------------------------------------------------------------
    // Structural sharing (leaf-level copy-on-write)
    // ------------------------------------------------------------------

    /// A leaf-aligned region of `leaves` full leaves starting at leaf
    /// index `base`.
    fn leaf_region(base: u64, leaves: u64) -> Region {
        let start = base << (LEAF_BITS + crate::PAGE_SHIFT);
        Region::sized(start, leaves * (PAGES_PER_LEAF * PAGE_SIZE) as u64)
    }

    #[test]
    fn snapshot_shares_leaves_structurally() {
        let mut s = AddressSpace::new();
        s.map_zero(leaf_region(1, 2), Perm::RW).unwrap();
        for i in 0..2 * PAGES_PER_LEAF as u64 {
            s.write_u64(leaf_region(1, 2).start + i * PAGE_SIZE as u64, i)
                .unwrap();
        }
        let snap = s.snapshot();
        // Every leaf is shared, no frame was copied.
        assert!(s.shares_leaf_with(&snap, PAGES_PER_LEAF as u64));
        assert!(s.shares_leaf_with(&snap, 2 * PAGES_PER_LEAF as u64));
        // One write un-shares exactly one leaf.
        s.write_u64(leaf_region(1, 1).start, 999).unwrap();
        assert!(!s.shares_leaf_with(&snap, PAGES_PER_LEAF as u64));
        assert!(s.shares_leaf_with(&snap, 2 * PAGES_PER_LEAF as u64));
        // The snapshot still reads the old value; frames of the
        // un-shared leaf are still frame-shared except the written one.
        assert_eq!(snap.read_u64(leaf_region(1, 1).start).unwrap(), 0);
        assert_eq!(s.read_u64(leaf_region(1, 1).start).unwrap(), 999);
        assert!(s.same_frame(&snap, PAGES_PER_LEAF as u64 + 1));
    }

    #[test]
    fn leaf_congruent_copy_shares_wholesale() {
        let r = leaf_region(2, 2);
        let mut src = AddressSpace::new();
        src.map_zero(r, Perm::RW).unwrap();
        src.write(r.start, b"payload").unwrap();
        let mut dst = AddressSpace::new();
        // Same offset: fully congruent, zero boundary pages.
        let stats = dst.copy_from_counted(&src, r, r.start).unwrap();
        assert_eq!(stats.leaves_shared, 2);
        assert_eq!(stats.boundary_pages, 0);
        assert_eq!(stats.pages, 2 * PAGES_PER_LEAF as u64);
        assert!(dst.shares_leaf_with(&src, 2 * PAGES_PER_LEAF as u64));
        assert_eq!(dst.read_vec(r.start, 7).unwrap(), b"payload");
        // A congruent but shifted destination still shares.
        let mut dst2 = AddressSpace::new();
        let shifted = leaf_region(10, 1).start;
        let stats = dst2.copy_from_counted(&src, r, shifted).unwrap();
        assert_eq!(stats.leaves_shared, 2);
        assert_eq!(dst2.read_vec(shifted, 7).unwrap(), b"payload");
        // Writes through a shared leaf COW and never leak back.
        dst2.write(shifted, b"other!!").unwrap();
        assert_eq!(src.read_vec(r.start, 7).unwrap(), b"payload");
    }

    #[test]
    fn incongruent_copy_falls_back_to_pages() {
        let r = leaf_region(2, 1);
        let mut src = AddressSpace::new();
        src.map_zero(r, Perm::RW).unwrap();
        let mut dst = AddressSpace::new();
        // Destination shifted by one page: no leaf can be shared.
        let stats = dst
            .copy_from_counted(&src, r, r.start + PAGE_SIZE as u64)
            .unwrap();
        assert_eq!(stats.leaves_shared, 0);
        assert_eq!(stats.boundary_pages, PAGES_PER_LEAF as u64);
        assert_eq!(dst.page_count(), PAGES_PER_LEAF);
    }

    /// A two-leaf-long range starting 16 pages into leaf 1: a 496-page
    /// head, leaf 2 whole, a 16-page tail in leaf 3.
    fn mid_leaf_range() -> Region {
        let start = leaf_region(1, 1).start + 16 * PAGE_SIZE as u64;
        Region::sized(start, (2 * PAGES_PER_LEAF * PAGE_SIZE) as u64)
    }

    #[test]
    fn partial_leaves_holding_only_the_range_are_shared() {
        // Head and tail are alone in their leaves, so sharing those
        // leaves is the same operation as installing their pages.
        let r = mid_leaf_range();
        let mut src = AddressSpace::new();
        src.map_zero(r, Perm::RW).unwrap();
        let mut dst = AddressSpace::new();
        let stats = dst.copy_from_counted(&src, r, r.start).unwrap();
        assert_eq!(stats.leaves_shared, 3);
        assert_eq!(stats.boundary_pages, 0);
        assert_eq!(stats.pages, 2 * PAGES_PER_LEAF as u64);
        for leaf in 1..=3 {
            assert!(dst.shares_leaf_with(&src, leaf * PAGES_PER_LEAF as u64));
        }
        assert_eq!(dst.page_count(), 2 * PAGES_PER_LEAF);
        assert_eq!(dst.dirty_page_count(), 2 * PAGES_PER_LEAF);
    }

    #[test]
    fn a_stray_page_in_a_partial_leaf_keeps_the_per_page_path() {
        // One source page in the head's leaf but outside the range:
        // sharing that leaf would copy a page nobody asked for.
        let r = mid_leaf_range();
        let mut src = AddressSpace::new();
        src.map_zero(r, Perm::RW).unwrap();
        src.map_zero(
            Region::sized(leaf_region(1, 1).start, PAGE_SIZE as u64),
            Perm::RW,
        )
        .unwrap();
        let mut dst = AddressSpace::new();
        let stats = dst.copy_from_counted(&src, r, r.start).unwrap();
        assert_eq!(stats.leaves_shared, 2);
        assert_eq!(stats.boundary_pages, (PAGES_PER_LEAF - 16) as u64);
        assert_eq!(stats.pages, 2 * PAGES_PER_LEAF as u64);
        assert!(!dst.shares_leaf_with(&src, PAGES_PER_LEAF as u64));
        assert!(dst.perm_at(leaf_region(1, 1).start).is_none());
        assert_eq!(dst.page_count(), 2 * PAGES_PER_LEAF);
    }

    #[test]
    fn a_lone_range_share_leaves_dirty_marks_outside_the_range_alone() {
        // No public path leaves a dirty mark on an unmapped page, so
        // the differential suite cannot build this one. The choice of
        // arm reads present bitmaps, not the dirty set: a stale mark
        // beside the range does not stop the share, and the share must
        // not be what clears it — the page-by-page oracle would not.
        let first = PAGES_PER_LEAF as u64 + 100;
        let r = Region::sized(first << PAGE_SHIFT, 64 * PAGE_SIZE as u64);
        let mut src = AddressSpace::new();
        src.map_zero(r, Perm::RW).unwrap();
        let stale = PAGES_PER_LEAF as u64 + 7;
        let mut eng = AddressSpace::new();
        let mut orc = AddressSpace::new();
        for dst in [&mut eng, &mut orc] {
            dst.dirty.insert(stale);
            dst.dirty.insert(first); // Inside the range: reassigned.
        }
        let stats = eng.copy_from_counted(&src, r, r.start).unwrap();
        assert_eq!(stats.leaves_shared, 1);
        crate::reference::copy_from_reference(&mut orc, &src, r, r.start).unwrap();
        assert_eq!(eng.dirty_vpns(), orc.dirty_vpns());
        assert!(eng.dirty.contains(stale));
        assert_eq!(eng.dirty_page_count(), 65);
    }

    #[test]
    fn wholesale_copy_propagates_leaf_holes() {
        // An interior leaf absent from the source must erase the
        // destination's leaf in O(1), exactly like per-page hole
        // propagation would.
        let r = leaf_region(4, 3);
        let mut src = AddressSpace::new();
        src.map_zero(leaf_region(4, 1), Perm::RW).unwrap(); // Leaf 4 only.
        src.map_zero(leaf_region(6, 1), Perm::RW).unwrap(); // Leaf 6 only.
        let mut dst = AddressSpace::new();
        dst.map_zero(r, Perm::RW).unwrap(); // All three leaves mapped.
        dst.copy_from(&src, r, r.start).unwrap();
        assert_eq!(dst.page_count(), 2 * PAGES_PER_LEAF);
        assert!(dst.read_u8(leaf_region(4, 1).start).is_ok());
        assert!(matches!(
            dst.read_u8(leaf_region(5, 1).start),
            Err(MemError::Unmapped { .. })
        ));
        assert!(dst.read_u8(leaf_region(6, 1).start).is_ok());
        // Dirty marks mirror the source's present set.
        assert_eq!(dst.dirty_page_count(), 2 * PAGES_PER_LEAF);
    }

    #[test]
    fn unmap_drops_whole_leaves_without_cow() {
        let r = leaf_region(1, 2);
        let mut s = AddressSpace::new();
        s.map_zero(r, Perm::RW).unwrap();
        let snap = s.snapshot();
        // Unmapping a whole shared leaf must not clone it first.
        s.unmap(leaf_region(1, 1)).unwrap();
        assert_eq!(s.page_count(), PAGES_PER_LEAF);
        assert_eq!(snap.page_count(), 2 * PAGES_PER_LEAF);
        assert!(snap.read_u8(r.start).is_ok());
    }

    // ------------------------------------------------------------------
    // Generation + translation fast path
    // ------------------------------------------------------------------

    #[test]
    fn generation_bumps_on_table_and_content_mutations() {
        let mut s = AddressSpace::new();
        let g0 = s.generation();
        s.map_zero(Region::new(0x1000, 0x3000), Perm::RW).unwrap();
        let g1 = s.generation();
        assert!(g1 > g0);
        s.write_u8(0x1000, 1).unwrap();
        let g2 = s.generation();
        assert!(g2 > g1);
        s.set_perm(Region::new(0x1000, 0x2000), Perm::R).unwrap();
        let g3 = s.generation();
        assert!(g3 > g2);
        let _snap = s.snapshot();
        let g4 = s.generation();
        assert!(g4 > g3);
        s.unmap(Region::new(0x2000, 0x3000)).unwrap();
        assert!(s.generation() > g4);
    }

    #[test]
    fn generation_stable_under_noop_restage_and_reads() {
        // The proc-runtime rendezvous re-stages its fs image with
        // map_zero_if_unmapped; when every page is already mapped the
        // call must not invalidate cached translations.
        let mut s = rw_space(0x1000, 0x3000);
        let g = s.generation();
        s.map_zero_if_unmapped(Region::new(0x1000, 0x3000), Perm::RW)
            .unwrap();
        assert_eq!(s.generation(), g);
        // Reads and no-op mutations on empty ranges don't bump either.
        s.read_u64(0x1000).unwrap();
        s.unmap(Region::new(0x8000, 0x9000)).unwrap();
        s.set_perm(Region::new(0x8000, 0x9000), Perm::R).unwrap();
        s.write(0x1000, &[]).unwrap();
        assert_eq!(s.generation(), g);
    }

    /// One-page redemption for reading: the view's bytes, if any.
    fn redeem(s: &mut AddressSpace, t: Translation) -> Option<[u8; PAGE_SIZE]> {
        let [view, _] = s.pin([Some(t), None]);
        view.map(|v| *v.bytes())
    }

    /// One-page redemption for writing: `Rw` or nothing.
    fn redeem_mut(s: &mut AddressSpace, t: Translation) -> Option<&mut [u8; PAGE_SIZE]> {
        match s.pin([Some(t), None]) {
            [Some(Pinned::Rw(bytes)), _] => Some(bytes),
            _ => None,
        }
    }

    #[test]
    fn translations_roundtrip_and_go_stale() {
        let mut s = rw_space(0x1000, 0x2000);
        s.write(0x1000, b"abcd").unwrap();
        let t = s.translate_read(0x1004).unwrap();
        assert_eq!(&redeem(&mut s, t).unwrap()[0..4], b"abcd");
        // Any mutation invalidates it.
        s.write_u8(0x2000, 1).unwrap();
        assert!(!s.is_current(t));
        assert!(redeem(&mut s, t).is_none());
        // A fresh one works again.
        let t = s.translate_read(0x1000).unwrap();
        assert!(redeem(&mut s, t).is_some());
        // Read translations cannot be redeemed for writing.
        assert!(redeem_mut(&mut s, t).is_none());
    }

    #[test]
    fn translate_respects_perms_and_mapping() {
        let mut s = AddressSpace::new();
        s.map_zero(Region::new(0x1000, 0x2000), Perm::R).unwrap();
        assert!(s.translate_read(0x1000).is_some());
        assert!(s.translate_write(0x1000).is_none());
        assert!(s.translate_read(0x5000).is_none());
        s.set_perm(Region::new(0x1000, 0x2000), Perm::NONE).unwrap();
        assert!(s.translate_read(0x1000).is_none());
    }

    #[test]
    fn write_translation_marks_dirty_and_writes_in_place() {
        let mut s = rw_space(0x1000, 0x2000);
        let _snap = s.snapshot();
        assert_eq!(s.dirty_page_count(), 0);
        let t = s.translate_write(0x1008).unwrap();
        // Minting the translation already dirtied the page.
        assert_eq!(s.dirty_vpns_in(Region::new(0x1000, 0x3000)), vec![1]);
        let g = s.generation();
        redeem_mut(&mut s, t).unwrap()[8] = 0xAB;
        // In-place writes do not bump the generation...
        assert_eq!(s.generation(), g);
        // ...and are visible to ordinary reads.
        assert_eq!(s.read_u8(0x1008).unwrap(), 0xAB);
    }

    #[test]
    fn write_translation_refused_once_frame_shared() {
        let mut s = rw_space(0x1000, 0x2000);
        s.write_u8(0x1000, 1).unwrap(); // Own the frame exclusively.
        let t = s.translate_write(0x1000).unwrap();
        assert!(redeem_mut(&mut s, t).is_some());
        // A snapshot shares every leaf again (and bumps generation).
        let snap = s.snapshot();
        assert!(redeem_mut(&mut s, t).is_none());
        // Even a fresh write translation COWs first, so writing through
        // it cannot leak into the snapshot.
        let t2 = s.translate_write(0x1000).unwrap();
        redeem_mut(&mut s, t2).unwrap()[0] = 9;
        assert_eq!(snap.read_u8(0x1000).unwrap(), 1);
        assert_eq!(s.read_u8(0x1000).unwrap(), 9);
    }

    #[test]
    fn write_translation_refused_once_leaf_shared() {
        // The structural analogue of the frame-sharing test: using this
        // space as the *source* of a leaf-congruent copy bumps only the
        // leaf's refcount (the frames inside keep refcount 1), and
        // redemption must detect that sharing via the leaf check alone.
        let r = leaf_region(1, 1);
        let mut s = AddressSpace::new();
        s.map_zero(r, Perm::RW).unwrap();
        s.write_u8(r.start, 1).unwrap();
        let t = s.translate_write(r.start).unwrap();
        assert!(redeem_mut(&mut s, t).is_some());
        let mut other = AddressSpace::new();
        other.copy_from(&s, r, r.start).unwrap();
        assert!(other.shares_leaf_with(&s, PAGES_PER_LEAF as u64));
        // No generation bump happened on the source, but the in-place
        // write path must still refuse: the leaf is no longer exclusive.
        // The translation is still good for reading the shared page.
        assert!(s.is_current(t));
        assert!(matches!(
            s.pin([Some(t), None]),
            [Some(Pinned::Ro(_)), None]
        ));
        // The slow path COWs properly and the copy keeps the old byte.
        s.write_u8(r.start, 2).unwrap();
        assert_eq!(other.read_u8(r.start).unwrap(), 1);
        assert_eq!(s.read_u8(r.start).unwrap(), 2);
    }

    #[test]
    fn write_translation_refused_once_frame_shared_by_page_copy() {
        // A copy that is not leaf-congruent shares frame by frame: the
        // source's leaf stays exclusive and only the frame check can
        // see the second owner.
        let mut s = rw_space(0x1000, 0x2000);
        s.write_u8(0x1000, 1).unwrap();
        let t = s.translate_write(0x1000).unwrap();
        assert!(redeem_mut(&mut s, t).is_some());
        let mut other = AddressSpace::new();
        other
            .copy_from(&s, Region::new(0x1000, 0x2000), 0x8000)
            .unwrap();
        assert!(!other.shares_leaf_with(&s, 1));
        assert!(s.is_current(t));
        assert!(matches!(
            s.pin([Some(t), None]),
            [Some(Pinned::Ro(_)), None]
        ));
        // The untouched neighbour page is still exclusively owned.
        let t2 = s.translate_write(0x2000).unwrap();
        assert!(matches!(
            s.pin([Some(t), Some(t2)]),
            [Some(Pinned::Ro(_)), Some(Pinned::Rw(_))]
        ));
    }

    #[test]
    fn refused_write_translation_keeps_leaf_shared() {
        // A denied store must be refused through the *shared* leaf:
        // un-sharing it first would pay a 512-entry clone and break
        // structural sharing with the snapshot for nothing.
        let r = leaf_region(1, 1);
        let mut s = AddressSpace::new();
        s.map_zero(r, Perm::R).unwrap();
        let snap = s.snapshot();
        assert!(s.translate_write(r.start).is_none());
        assert!(s.shares_leaf_with(&snap, PAGES_PER_LEAF as u64));
    }

    #[test]
    fn translations_do_not_cross_spaces() {
        let mut a = rw_space(0x1000, 0x1000);
        let t = a.translate_read(0x1000).unwrap();
        let mut b = a.clone();
        // The clone shares frames but is a different space; the
        // original's translation must not validate against it.
        assert!(redeem(&mut b, t).is_none());
        assert!(redeem(&mut a, t).is_some());
    }

    #[test]
    fn tracker_disables_fast_path() {
        let mut s = rw_space(0x1000, 0x1000);
        let t = s.translate_read(0x1000).unwrap();
        s.set_tracker(Some(AccessTracker::new()));
        // Installing the tracker bumped the generation...
        assert!(redeem(&mut s, t).is_none());
        // ...and minting is refused while it is present.
        assert!(s.translate_read(0x1000).is_none());
        assert!(s.translate_write(0x1000).is_none());
        s.set_tracker(None);
        assert!(s.translate_read(0x1000).is_some());
    }

    #[test]
    fn pin_returns_disjoint_views_within_a_leaf_and_across_leaves() {
        // Pages 1 and 2 share leaf 0; page 512 opens leaf 1.
        let far = (PAGES_PER_LEAF as u64) << PAGE_SHIFT;
        let mut s = rw_space(0x1000, 0x2000);
        s.map_zero(Region::new(far, far + 0x1000), Perm::RW)
            .unwrap();
        let pairs = [
            (0x1000, 0x2000),
            (0x2000, 0x1000),
            (0x1000, far),
            (far, 0x1000),
        ];
        for (i, (x, y)) in pairs.into_iter().enumerate() {
            let (tx, ty) = (s.translate_write(x).unwrap(), s.translate_write(y).unwrap());
            let [Some(Pinned::Rw(vx)), Some(Pinned::Rw(vy))] = s.pin([Some(tx), Some(ty)]) else {
                panic!("two exclusive pages pin read-write");
            };
            // Both views are live at once and land on their own page.
            (vx[0], vy[0]) = (i as u8 + 1, i as u8 + 101);
            assert_eq!(s.read_u8(x).unwrap(), i as u8 + 1);
            assert_eq!(s.read_u8(y).unwrap(), i as u8 + 101);
            // A read translation beside a write translation stays `Ro`.
            let tr = s.translate_read(y).unwrap();
            assert!(matches!(
                s.pin([Some(tx), Some(tr)]),
                [Some(Pinned::Rw(_)), Some(Pinned::Ro(_))]
            ));
        }
        // The same page twice is refused, whatever the views would be:
        // two `Rw` cannot be disjoint, and two read translations, a
        // mixed pair, or a leaf a live clone shares (all `Ro`) get the
        // same answer.
        let t = s.translate_write(0x1000).unwrap();
        let tr = s.translate_read(0x1000).unwrap();
        for pair in [[t, t], [tr, tr], [t, tr], [tr, t]] {
            assert!(matches!(s.pin(pair.map(Some)), [None, None]));
            let sibling = s.clone();
            assert!(matches!(s.pin(pair.map(Some)), [None, None]));
            drop(sibling);
        }
        // An empty request and a lone second slot are served in place.
        assert!(matches!(s.pin([None, None]), [None, None]));
        assert!(matches!(
            s.pin([None, Some(t)]),
            [None, Some(Pinned::Rw(_))]
        ));
    }

    #[test]
    fn pin_through_a_live_clone_is_read_only_at_both_slots() {
        let mut s = rw_space(0x1000, 0x2000);
        s.write_u8(0x1000, 7).unwrap();
        let (t1, t2) = (
            s.translate_write(0x1000).unwrap(),
            s.translate_write(0x2000).unwrap(),
        );
        // `clone` shares every leaf without bumping the generation.
        let sibling = s.clone();
        assert!(s.is_current(t1));
        let [Some(Pinned::Ro(v1)), Some(Pinned::Ro(_))] = s.pin([Some(t1), Some(t2)]) else {
            panic!("a leaf shared by a live clone pins read-only");
        };
        assert_eq!(v1[0], 7);
        drop(sibling);
        // Exclusive again: the very same translations pin read-write.
        assert!(matches!(
            s.pin([Some(t1), Some(t2)]),
            [Some(Pinned::Rw(_)), Some(Pinned::Rw(_))]
        ));
    }

    #[test]
    fn pin_refuses_foreign_and_stale_translations_slot_by_slot() {
        let mut s = rw_space(0x1000, 0x2000);
        let mut other = rw_space(0x1000, 0x2000);
        let foreign = other.translate_write(0x1000).unwrap();
        let stale = s.translate_read(0x1000).unwrap();
        s.write_u8(0x2000, 1).unwrap(); // Bumps the generation.
        let fresh = s.translate_read(0x2000).unwrap();
        assert!(matches!(
            s.pin([Some(foreign), Some(fresh)]),
            [None, Some(Pinned::Ro(_))]
        ));
        assert!(matches!(
            s.pin([Some(fresh), Some(stale)]),
            [Some(Pinned::Ro(_)), None]
        ));
        assert!(matches!(other.pin([Some(fresh), None]), [None, None]));
    }

    #[test]
    fn delta_roundtrip_reproduces_content_and_dirty_set() {
        let r = Region::new(0x1000, 0x5000);
        let mut s = rw_space(0x1000, 0x4000);
        s.write_u64(0x1000, 7).unwrap();
        let base = s.clone();
        // A mix of mutations: writes, fresh zero maps, perm change,
        // unmap, and a re-zero of an already-zero page (dirty mark
        // with no frame change).
        s.write_u64(0x2000, 99).unwrap();
        s.map_zero(Region::new(0x4000, 0x5000), Perm::RW).unwrap();
        s.map_zero(Region::new(0x3000, 0x4000), Perm::RW).unwrap();
        s.set_perm(Region::new(0x1000, 0x2000), Perm::R).unwrap();
        s.unmap(Region::new(0x2000, 0x3000)).unwrap();
        let d = s.delta_since(&base);
        let mut replica = base.clone();
        replica.apply_delta(&d).unwrap();
        assert_eq!(replica.content_digest().value(), s.content_digest().value());
        assert_eq!(replica.page_count(), s.page_count());
        assert_eq!(replica.dirty_page_count(), s.dirty_page_count());
        for vpn in r.vpns() {
            assert_eq!(
                replica.perm_at(vpn << PAGE_SHIFT),
                s.perm_at(vpn << PAGE_SHIFT)
            );
        }
    }

    #[test]
    fn delta_preserves_zero_frame_identity() {
        let base = AddressSpace::new();
        let mut s = base.clone();
        s.map_zero(Region::new(0x1000, 0x2000), Perm::RW).unwrap();
        s.map_zero(Region::new(0x2000, 0x3000), Perm::RW).unwrap();
        s.write_u64(0x2000, 5).unwrap();
        let d = s.delta_since(&base);
        let mut replica = base.clone();
        replica.apply_delta(&d).unwrap();
        // The untouched zero page still aliases the global zero frame
        // on the replica (the merge engine's O(1) fast path depends on
        // this identity); the written page holds a private frame.
        let infos: Vec<PageInfo> = replica.iter_pages().collect();
        assert!(infos.iter().any(|p| p.vpn == 1 && p.is_zero_frame));
        assert!(infos.iter().any(|p| p.vpn == 2 && !p.is_zero_frame));
    }

    #[test]
    fn delta_replica_merges_with_identical_stats() {
        // Parent forks a child (copy + snap), the child writes; merging
        // the live child and a delta-reconstructed replica into
        // identical parents must produce bit-identical MergeStats —
        // including the frame-identity and leaf-sharing fast paths.
        let r = Region::new(0x1000, 0x4000);
        let mut parent = rw_space(0x1000, 0x3000);
        parent.write_u64(0x1000, 1).unwrap();
        let mut child = AddressSpace::new();
        child.copy_from(&parent, r, 0x1000).unwrap();
        let snap = child.snapshot();
        let child_base = child.clone();
        let snap_replica = snap.clone();
        let mut child_replica = child_base.clone();
        // The vehicle window: the child writes one page, zero-maps a
        // fresh one, and re-zeroes an existing zero page.
        child.write_u64(0x2000, 42).unwrap();
        child
            .map_zero(Region::new(0x3000, 0x4000), Perm::RW)
            .unwrap();
        child
            .map_zero(Region::new(0x1000, 0x2000), Perm::RW)
            .unwrap();
        let d = child.delta_since(&child_base);
        child_replica.apply_delta(&d).unwrap();

        let mut p_live = parent.clone();
        let mut p_replay = parent.clone();
        let (live, lc) = p_live
            .try_merge_from(&child, &snap, r, ConflictPolicy::ChildWins)
            .unwrap();
        let (replayed, rc) = p_replay
            .try_merge_from(&child_replica, &snap_replica, r, ConflictPolicy::ChildWins)
            .unwrap();
        assert!(lc.is_none() && rc.is_none());
        assert_eq!(live, replayed, "merge stats must replay bit-identically");
        assert_eq!(
            p_live.content_digest().value(),
            p_replay.content_digest().value()
        );
    }

    #[test]
    fn empty_delta_is_empty() {
        let s = rw_space(0x1000, 0x3000);
        let base = s.clone();
        let d = s.delta_since(&base);
        assert!(d.is_empty());
    }
}
