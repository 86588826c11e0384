//! Sparse paged address spaces with two-level, structurally-shared
//! copy-on-write page tables.

use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::digest::ContentDigest;
use crate::dirty::DirtySet;
use crate::page::{Frame, PAGE_SIZE, offset_of, vpn_of, zero_frame};
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
/// the pages one by one ([`AddressSpace::copy_from`]).
///
/// It is the first page count whose per-page bill exceeds one leaf
/// share under the kernel's calibrated cost model (`11 × page_map_ps >
/// space_clone_ps >= 10 × page_map_ps`; a kernel test holds the two
/// crates together), so sharing never raises a charge and a one-page
/// mailbox copy never drags a 512-entry leaf around.
pub const SUBLEAF_SHARE_MIN_PAGES: u32 = 11;

/// The most pages one range operation (`map_zero`,
/// `map_zero_if_unmapped`, `unmap`, `set_perm`, `copy_from`) may span:
/// 4 GiB, sixteen times the runtime's shared region (65 536 pages).
/// A region is an argument a program or a decoded trace supplies, and
/// every range operation walks it one leaf at a time, so without a
/// bound a forged end near 2^47 keeps the walk busy for tens of
/// millions of leaves. A longer range is refused with
/// [`MemError::RangeTooLarge`] before anything changes.
pub const MAX_RANGE_PAGES: u64 = 1 << 20;

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

impl PageEntry {
    /// The shared zero frame with `perm`.
    fn zero(perm: Perm) -> PageEntry {
        PageEntry {
            frame: zero_frame(),
            perm,
        }
    }
}

/// One 512-entry page-table leaf. Leaves are immutable while shared
/// (`Arc::make_mut` clones on first write), which is what makes whole
/// address spaces cheap to duplicate: a snapshot or leaf-congruent
/// virtual copy shares leaves the way individual writes share frames —
/// the same copy-on-write trick, one level up.
#[derive(Clone)]
pub(crate) struct Leaf {
    /// Dense entry array indexed by `vpn & LEAF_MASK`.
    pub(crate) entries: [Option<PageEntry>; PAGES_PER_LEAF],
    /// Bitmap of `Some` entries (one bit per page, 8×64 = 512).
    present: [u64; LEAF_WORDS],
    /// Number of `Some` entries (== ones in `present`).
    pub(crate) mapped: u32,
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
    pub(crate) fn present_indices(&self) -> impl Iterator<Item = usize> + '_ {
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

/// One page-table leaf's share of a range of pages: the leaf index and
/// the range's first and last entry within it.
#[derive(Clone, Copy)]
struct Chunk {
    base: u64,
    lo: usize,
    hi: usize,
}

impl Chunk {
    /// Leaf `base`'s chunk of the vpns `first..=last`, which meet it.
    fn of(base: u64, first: u64, last: u64) -> Chunk {
        let leaf_first = base << LEAF_BITS;
        let leaf_last = leaf_first + LEAF_MASK;
        let chunk_last = leaf_last.min(last);
        Chunk {
            base,
            lo: (first.max(leaf_first) - leaf_first) as usize,
            hi: (chunk_last - leaf_first) as usize,
        }
    }

    /// True if the chunk spans its whole leaf.
    fn whole(self) -> bool {
        self.lo == 0 && self.hi == PAGES_PER_LEAF - 1
    }

    /// The chunk's first vpn.
    fn first(self) -> u64 {
        (self.base << LEAF_BITS) + self.lo as u64
    }

    /// The chunk's vpns, ascending.
    fn vpns(self) -> std::ops::RangeInclusive<u64> {
        self.first()..=self.first() + (self.hi - self.lo) as u64
    }
}

/// The first and last vpn of the pages a non-empty `r` touches.
fn vpn_span(r: Region) -> Option<(u64, u64)> {
    (!r.is_empty()).then(|| (vpn_of(r.start), vpn_of(r.end - 1)))
}

/// The check every range mutator makes before it walks `r`: both ends
/// page-aligned, and no more than [`MAX_RANGE_PAGES`] pages between.
fn check_range(r: Region) -> Result<()> {
    r.check_page_aligned()?;
    match r.page_count() {
        pages if pages > MAX_RANGE_PAGES => Err(MemError::RangeTooLarge { pages }),
        _ => Ok(()),
    }
}

/// The pages `r` touches as one [`Chunk`] per page-table leaf they
/// meet, ascending: the walk every range mutator takes.
fn leaf_chunks(r: Region) -> impl Iterator<Item = Chunk> {
    vpn_span(r).into_iter().flat_map(|(first, last)| {
        (first >> LEAF_BITS..=last >> LEAF_BITS).map(move |base| Chunk::of(base, first, last))
    })
}

/// One root-spine slot: a leaf plus the leaf index it covers
/// (`vpn >> LEAF_BITS`). The spine is a `Vec` sorted by `base`; slot
/// positions are stable between generation bumps (every structural
/// mutation bumps the generation), which is what lets a
/// [`Translation`](crate::Translation) carry a spine position and still
/// be redeemed in O(1).
#[derive(Clone)]
pub(crate) struct RootSlot {
    pub(crate) base: u64,
    pub(crate) leaf: Arc<Leaf>,
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
/// ([`AddressSpace::copy_from`]), consumed by the kernel's virtual-time
/// cost model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CloneStats {
    /// Pages now mapped in the destination range (the semantic count).
    pub pages: u64,
    /// Leaves shared wholesale by cloning one `Arc` on the root spine —
    /// O(1) each, regardless of how many pages the leaf maps: every
    /// leaf the range covers whole, and every leaf in which the range
    /// is alone (see [`AddressSpace::copy_from`]).
    pub leaves_shared: u64,
    /// Pages handled individually: range-boundary partial leaves that
    /// hold something besides the range (or fewer than
    /// [`SUBLEAF_SHARE_MIN_PAGES`] pages), plus every page of a copy
    /// whose source/destination offsets are not congruent modulo
    /// [`PAGES_PER_LEAF`].
    pub boundary_pages: u64,
}

/// An 8-byte little-endian word the bulk accessors move.
trait Word: Copy {
    fn from_le(bytes: [u8; 8]) -> Self;
    fn to_le(self) -> [u8; 8];
}

impl Word for u64 {
    fn from_le(bytes: [u8; 8]) -> u64 {
        u64::from_le_bytes(bytes)
    }
    fn to_le(self) -> [u8; 8] {
        self.to_le_bytes()
    }
}

impl Word for f64 {
    fn from_le(bytes: [u8; 8]) -> f64 {
        f64::from_le_bytes(bytes)
    }
    fn to_le(self) -> [u8; 8] {
        self.to_le_bytes()
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
/// bounds-checked redemption path for cached
/// [`Translation`](crate::Translation)s without any raw pointers (the
/// `pin` module holds that half); the `generation` counter (bumped by
/// every mutation that could make a cached translation or a decoded
/// instruction stale) is what keeps those translations honest, and
/// `Arc::get_mut` on the leaf — checked *before* the frame — is what
/// keeps a cached write from leaking through a structurally-shared leaf
/// (DESIGN.md §5).
///
/// [`snapshot`]: AddressSpace::snapshot
pub struct AddressSpace {
    /// Root spine, sorted by leaf index.
    pub(crate) root: Vec<RootSlot>,
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
    pub(crate) dirty: DirtySet,
    /// Bumped by every page-table or content mutation that could
    /// invalidate an outstanding [`Translation`](crate::Translation) or
    /// a decoded instruction (see DESIGN.md §4 for the exact rule).
    /// Monotonic.
    pub(crate) generation: u64,
    /// Unique identity of this space, distinguishing its translations
    /// from those of clones/snapshots that share `generation` values.
    pub(crate) space_id: u64,
}

impl Default for AddressSpace {
    fn default() -> AddressSpace {
        AddressSpace {
            root: Vec::new(),
            pages: 0,
            dirty: DirtySet::default(),
            generation: 0,
            space_id: fresh_space_id(),
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
        }
    }
}

impl AddressSpace {
    /// Returns an empty address space.
    pub fn new() -> AddressSpace {
        AddressSpace::default()
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
    pub(crate) fn leaf_pos(&self, base: u64) -> std::result::Result<usize, usize> {
        self.root.binary_search_by_key(&base, |rs| rs.base)
    }

    /// The leaf covering `vpn`, if present on the spine.
    #[inline]
    pub(crate) fn leaf_for(&self, vpn: u64) -> Option<&Arc<Leaf>> {
        let pos = self.leaf_pos(vpn >> LEAF_BITS).ok()?;
        Some(&self.root[pos].leaf)
    }

    #[inline]
    pub(crate) fn entry(&self, vpn: u64) -> Option<&PageEntry> {
        self.leaf_for(vpn)?.entries[(vpn & LEAF_MASK) as usize].as_ref()
    }

    /// Mutable entry access; clones the leaf first if shared. Checks
    /// presence *before* `Arc::make_mut` so probing an unmapped page
    /// never breaks sharing.
    #[inline]
    pub(crate) fn entry_mut(&mut self, vpn: u64) -> Option<&mut PageEntry> {
        let pos = self.leaf_pos(vpn >> LEAF_BITS).ok()?;
        let idx = (vpn & LEAF_MASK) as usize;
        if !self.root[pos].leaf.is_present(idx) {
            return None;
        }
        Arc::make_mut(&mut self.root[pos].leaf).entries[idx].as_mut()
    }

    pub(crate) fn insert_entry(&mut self, vpn: u64, e: PageEntry) {
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

    pub(crate) fn remove_entry(&mut self, vpn: u64) -> bool {
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
        check_range(region)?;
        if region.is_empty() {
            return Ok(());
        }
        // Built on first use, shared across every full leaf in the
        // region (and with the destination: later writes COW it).
        let mut zero_leaf = None;
        for c in leaf_chunks(region) {
            if c.whole() {
                self.share_zero_leaf(c.base, &mut zero_leaf, perm);
            } else {
                for v in c.vpns() {
                    self.insert_entry(v, PageEntry::zero(perm));
                    self.dirty.insert(v);
                }
            }
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
        check_range(region)?;
        let mut zero_leaf = None;
        let mut added = 0;
        for c in leaf_chunks(region) {
            let held = self
                .leaf_for(c.first())
                .map_or([0; LEAF_WORDS], |l| l.present);
            if c.whole() && held == [0; LEAF_WORDS] {
                // A leaf the space does not hold at all: shared whole,
                // as `map_zero` shares it.
                self.share_zero_leaf(c.base, &mut zero_leaf, perm);
                added += PAGES_PER_LEAF;
                continue;
            }
            for (idx, vpn) in (c.lo..=c.hi).zip(c.vpns()) {
                if held[idx / 64] & (1u64 << (idx % 64)) != 0 {
                    continue;
                }
                self.insert_entry(vpn, PageEntry::zero(perm));
                self.dirty.insert(vpn);
                added += 1;
            }
        }
        if added > 0 {
            self.generation += 1;
        }
        Ok(added)
    }

    /// Maps every page of leaf `base` to the shared zero frame with
    /// `perm`, dirty, by sharing `leaf` — built on the first call and
    /// shared by every later one.
    fn share_zero_leaf(&mut self, base: u64, leaf: &mut Option<Arc<Leaf>>, perm: Perm) {
        let leaf = leaf.get_or_insert_with(|| {
            let mut l = Leaf::empty();
            for i in 0..PAGES_PER_LEAF {
                l.set(i, PageEntry::zero(perm));
            }
            Arc::new(l)
        });
        self.set_leaf(base, leaf.clone());
        self.dirty
            .assign_leaf(base, 0, PAGES_PER_LEAF - 1, &[u64::MAX; LEAF_WORDS]);
    }

    /// Removes all mappings in the page-aligned `region`.
    ///
    /// Spans covering whole leaves drop the leaf in O(1) (no
    /// copy-on-write clone of a shared leaf just to empty it).
    pub fn unmap(&mut self, region: Region) -> Result<()> {
        check_range(region)?;
        let mut changed = false;
        for c in leaf_chunks(region) {
            if c.whole() {
                changed |= self.remove_leaf(c.base);
                self.dirty.clear_leaf(c.base);
            } else {
                for v in c.vpns() {
                    changed |= self.remove_entry(v);
                    self.dirty.remove(v);
                }
            }
        }
        if changed {
            self.generation += 1;
        }
        Ok(())
    }

    /// Sets permissions on every mapped page in the page-aligned
    /// `region`; unmapped pages in the range are skipped.
    pub fn set_perm(&mut self, region: Region, perm: Perm) -> Result<()> {
        check_range(region)?;
        let mut changed = false;
        for c in leaf_chunks(region) {
            let Ok(pos) = self.leaf_pos(c.base) else {
                continue;
            };
            // Un-share the leaf only if the chunk maps a page of it.
            let leaf = &mut self.root[pos].leaf;
            if leaf.mapped_in(c.lo, c.hi) > 0 {
                for e in Arc::make_mut(leaf).entries[c.lo..=c.hi]
                    .iter_mut()
                    .flatten()
                {
                    e.perm = perm;
                }
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
    /// `dst_start` (page-aligned) in `self`, and reports the structural
    /// work it did: how many leaves were shared in O(1) versus pages
    /// walked individually. The kernel charges `space_clone_ps` per
    /// shared leaf and `page_map_ps` per boundary page from these
    /// counts.
    ///
    /// Frames are shared copy-on-write: no bytes move until one side
    /// writes. Pages unmapped in the source become unmapped in the
    /// destination, making the copy an exact replica of the range.
    ///
    /// A leaf-congruent chunk of the range (source and destination
    /// congruent modulo [`PAGES_PER_LEAF`]) shares its source leaf when
    /// doing so *is* the copy: the chunk holds every page the source
    /// leaf maps, the destination leaf (if any) maps nothing outside
    /// the chunk, and the chunk either spans the leaf or maps at least
    /// [`SUBLEAF_SHARE_MIN_PAGES`] pages. Anything else — a neighbour
    /// in either leaf, a short range, incongruent offsets — is copied
    /// entry by entry. The result is the same space either way; only
    /// the work, and so the charge, differs.
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
    /// let stats = child
    ///     .copy_from(&parent, Region::new(0x1000, 0x3000), 0x1000)
    ///     .unwrap();
    /// assert_eq!(stats.pages, 2);
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
    ) -> Result<CloneStats> {
        check_range(src_region)?;
        if dst_start & (PAGE_SIZE as u64 - 1) != 0 {
            return Err(MemError::Misaligned { addr: dst_start });
        }
        let mut stats = CloneStats::default();
        let delta = (dst_start >> crate::PAGE_SHIFT) as i128 - vpn_of(src_region.start) as i128;
        let congruent = delta.rem_euclid(PAGES_PER_LEAF as i128) == 0;
        let mut changed = false;
        for c in leaf_chunks(src_region) {
            let (lo, hi) = (c.lo, c.hi);
            // The leaf the chunk lands in, when it lands at the same
            // offsets within it.
            let dst_base =
                congruent.then(|| (c.base as i128 + delta / PAGES_PER_LEAF as i128) as u64);
            let src_leaf = src.leaf_for(c.first()).filter(|l| l.mapped > 0);
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
                    if c.whole()
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
                (Some(dst_base), None) if c.whole() => {
                    changed |= self.remove_leaf(dst_base);
                    self.dirty.clear_leaf(dst_base);
                }
                _ => {
                    for v in c.vpns() {
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
                                changed |= self.remove_entry(dst_vpn);
                                self.dirty.remove(dst_vpn);
                            }
                        }
                    }
                }
            }
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

    /// Clears every dirty mark without touching content, permissions,
    /// structure, or the generation counter.
    ///
    /// This exists for rebuilding a space from deltas against the
    /// empty space (its persisted image, see the `delta` module, and a
    /// migrated replica): [`apply_delta`](AddressSpace::apply_delta)
    /// marks every written page dirty — the rebuilder clears those
    /// marks and then re-applies the true dirty set, reproducing the
    /// original's write-set exactly even when a `snapshot()` had
    /// cleaned part of it.
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
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
        self.access(addr, buf.len(), Perm::R, |off, chunk| {
            buf[off..off + chunk.len()].copy_from_slice(chunk);
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
        self.write_with(addr, data.len(), |done, chunk| {
            chunk.copy_from_slice(&data[done..done + chunk.len()]);
        })
    }

    /// The page walk every write takes: `write` and the bulk word
    /// writes differ only in `fill(done, chunk)`, which stores the
    /// range's bytes from `done` on into `chunk`, one page's part of
    /// `[addr, addr + len)` in an un-shared, dirtied frame.
    fn write_with(
        &mut self,
        addr: u64,
        len: usize,
        mut fill: impl FnMut(usize, &mut [u8]),
    ) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let end = addr
            .checked_add(len as u64)
            .ok_or(MemError::AddressOverflow)?;
        let range = Region::new(addr, end);

        // Validation pass: every page present and writable, reported
        // in ascending address order. Walked leaf by leaf — one spine
        // lookup per 512 pages, not per page — so staging a large
        // image validates in O(pages) array probes.
        for c in leaf_chunks(range) {
            let pos = self.leaf_pos(c.base).map_err(|_| MemError::Unmapped {
                addr: c.first() << crate::PAGE_SHIFT,
            })?;
            let leaf = &self.root[pos].leaf;
            for v in c.vpns() {
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
        }

        self.generation += 1;
        let mut cursor = addr;
        let mut done = 0;
        for c in leaf_chunks(range) {
            let pos = self.leaf_pos(c.base).expect("validated above");
            // One un-share per leaf, then in-place stores.
            let leaf = Arc::make_mut(&mut self.root[pos].leaf);
            for v in c.vpns() {
                self.dirty.insert(v);
                let off = offset_of(cursor);
                let n = (len - done).min(PAGE_SIZE - off);
                let e = leaf.entries[(v & LEAF_MASK) as usize]
                    .as_mut()
                    .expect("validated above");
                // Copy-on-write: clone the frame if it is shared.
                let frame = Arc::make_mut(&mut e.frame);
                fill(done, &mut frame.bytes_mut()[off..off + n]);
                cursor += n as u64;
                done += n;
            }
        }
        Ok(())
    }

    /// Shared read walk used by `read` and the bulk word reads; calls
    /// `sink(done, chunk)` per page's part of the range, `done` being
    /// the bytes of the range before it.
    fn access(
        &self,
        addr: u64,
        len: usize,
        need: Perm,
        mut sink: impl FnMut(usize, &[u8]),
    ) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let _end = addr
            .checked_add(len as u64)
            .ok_or(MemError::AddressOverflow)?;
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
            sink(done, &entry.frame.bytes()[off..off + chunk]);
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
        self.read_words(addr, n)
    }

    /// Writes a slice of `u64`s little-endian starting at `addr`.
    pub fn write_u64s(&mut self, addr: u64, vals: &[u64]) -> Result<()> {
        self.write_words(addr, vals)
    }

    /// Reads `n` little-endian `f64`s starting at `addr`.
    pub fn read_f64s(&self, addr: u64, n: usize) -> Result<Vec<f64>> {
        self.read_words(addr, n)
    }

    /// Writes a slice of `f64`s little-endian starting at `addr`.
    pub fn write_f64s(&mut self, addr: u64, vals: &[f64]) -> Result<()> {
        self.write_words(addr, vals)
    }

    /// Reads `n` words, decoding each page's chunk straight from its
    /// frame into the result. A length whose byte count overflows is
    /// `AddressOverflow`, never a shorter read.
    fn read_words<W: Word>(&self, addr: u64, n: usize) -> Result<Vec<W>> {
        let len = n.checked_mul(8).ok_or(MemError::AddressOverflow)?;
        // A read longer than everything mapped faults somewhere, so it
        // reserves nothing up front.
        let fits = len as u64 <= self.mapped_bytes();
        let mut out = Vec::with_capacity(if fits { n } else { 0 });
        // The low bytes of a word split across a page boundary.
        let mut split = [0u8; 8];
        let mut held = 0;
        self.access(addr, len, Perm::R, |_, chunk| {
            let (head, body) = chunk.split_at((8 - held) % 8);
            if held > 0 {
                split[held..].copy_from_slice(head);
                out.push(W::from_le(split));
            }
            let words = body.chunks_exact(8);
            let tail = words.remainder();
            out.extend(words.map(|w| W::from_le(w.try_into().expect("8 bytes"))));
            split[..tail.len()].copy_from_slice(tail);
            held = tail.len();
        })?;
        Ok(out)
    }

    /// Writes `vals` through [`AddressSpace::write_with`], encoding each
    /// page's chunk straight from the slice into the frame.
    fn write_words<W: Word>(&mut self, addr: u64, vals: &[W]) -> Result<()> {
        self.write_with(addr, vals.len() * 8, |done, chunk| {
            // The high bytes of a word the previous page began.
            let (head, body) = chunk.split_at_mut((8 - done % 8) % 8);
            if !head.is_empty() {
                head.copy_from_slice(&vals[done / 8].to_le()[done % 8..]);
            }
            let first = done.div_ceil(8);
            let whole = body.len() / 8;
            let (body, tail) = body.split_at_mut(whole * 8);
            for (w, v) in body.chunks_exact_mut(8).zip(&vals[first..first + whole]) {
                w.copy_from_slice(&v.to_le());
            }
            // The low bytes of a word the next page ends.
            if !tail.is_empty() {
                tail.copy_from_slice(&vals[first + whole].to_le()[..tail.len()]);
            }
        })
    }

    /// Returns a deterministic digest of the mapped contents
    /// (vpn, perm, bytes), used to compare whole memory images across
    /// runs. The generation and space id are deliberately excluded:
    /// they are cache-validation state, not memory contents.
    pub fn content_digest(&self) -> ContentDigest {
        self.walk_digests(|_, _| {})
    }

    /// Returns [`AddressSpace::content_digest`] and one `(vpn, digest)`
    /// pair per mapped page, in ascending vpn order, from one pass over
    /// the pages. Each page digest covers the page's permission bits
    /// plus its full contents, with the same FNV chain. This is the
    /// stable per-space enumeration the conformance harness serializes
    /// into artifact bundles: a content divergence localizes to the
    /// first differing page instead of one opaque whole-image digest.
    pub fn digests(&self) -> (ContentDigest, Vec<(u64, u64)>) {
        let mut pages = Vec::with_capacity(self.page_count());
        let whole = self.walk_digests(|vpn, d| pages.push((vpn, d)));
        (whole, pages)
    }

    /// Feeds every mapped page, ascending by vpn, to the whole-space
    /// chain (vpn, R bit, W bit, bytes) and to a fresh per-page chain
    /// (R bit, W bit, bytes) in the same loop, and hands each page's
    /// digest to `page`. A page still aliasing the shared zero frame
    /// absorbs its bytes as one zero run.
    fn walk_digests(&self, mut page: impl FnMut(u64, u64)) -> ContentDigest {
        let zero = zero_frame();
        let mut whole = ContentDigest::new();
        for rs in &self.root {
            for idx in rs.leaf.present_indices() {
                let e = rs.leaf.entries[idx].as_ref().expect("present bit set");
                let vpn = (rs.base << LEAF_BITS) + idx as u64;
                let mut own = ContentDigest::new();
                whole.update_u64(vpn);
                for bit in [Perm::R, Perm::W] {
                    let w = u64::from(e.perm.allows(bit));
                    whole.update_u64(w);
                    own.update_u64(w);
                }
                if Arc::ptr_eq(&e.frame, &zero) {
                    whole.update_zeros(PAGE_SIZE as u64);
                    own.update_zeros(PAGE_SIZE as u64);
                } else {
                    ContentDigest::update_both(&mut whole, &mut own, e.frame.bytes());
                }
                page(vpn, own.value());
            }
        }
        whole
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

    /// The spine's leaves that meet `region`, each with its chunk of
    /// `region`, ascending: O(leaves held), however wide the region.
    fn slots_in(&self, region: Region) -> impl Iterator<Item = (&Leaf, Chunk)> {
        vpn_span(region).into_iter().flat_map(move |(first, last)| {
            let from = self.root.partition_point(|rs| rs.base < first >> LEAF_BITS);
            self.root[from..]
                .iter()
                .take_while(move |rs| rs.base <= last >> LEAF_BITS)
                .map(move |rs| (&*rs.leaf, Chunk::of(rs.base, first, last)))
        })
    }

    /// Returns the sorted list of mapped vpns intersecting `region`.
    pub(crate) fn vpns_in(&self, region: Region) -> Vec<u64> {
        self.slots_in(region)
            .flat_map(|(leaf, c)| {
                let first = c.base << LEAF_BITS;
                let held = leaf
                    .present_indices()
                    .filter(move |i| (c.lo..=c.hi).contains(i));
                held.map(move |i| first + i as u64)
            })
            .collect()
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
        self.slots_in(region)
            .map(|(leaf, c)| u64::from(leaf.mapped_in(c.lo, c.hi)))
            .sum()
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
        self.dirty.leaf_count()
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
pub(crate) mod tests {
    use super::*;
    use crate::PAGE_SHIFT;

    pub(crate) fn rw_space(start: u64, len: u64) -> AddressSpace {
        let mut s = AddressSpace::new();
        s.map_zero(Region::sized(start, len), Perm::RW).unwrap();
        s
    }

    /// Every range mutator admits a range of exactly
    /// `MAX_RANGE_PAGES` pages and refuses one page more, before it
    /// changes anything.
    #[test]
    fn range_mutators_refuse_past_the_page_cap() {
        let at_cap = Region::sized(0x1000, MAX_RANGE_PAGES << PAGE_SHIFT);
        let over = Region::sized(0x1000, (MAX_RANGE_PAGES + 1) << PAGE_SHIFT);
        let refused = Err(MemError::RangeTooLarge {
            pages: MAX_RANGE_PAGES + 1,
        });
        let mut s = rw_space(0x1000, 0x1000);
        let src = s.clone();
        let generation = s.generation();
        assert_eq!(s.map_zero(over, Perm::RW), refused);
        assert_eq!(s.map_zero_if_unmapped(over, Perm::RW), refused.map(|()| 0));
        assert_eq!(s.unmap(over), refused);
        assert_eq!(s.set_perm(over, Perm::R), refused);
        assert_eq!(
            s.copy_from(&src, over, 0x1000),
            refused.map(|()| CloneStats::default())
        );
        assert_eq!((s.generation(), s.page_count()), (generation, 1));

        s.map_zero(at_cap, Perm::RW).unwrap();
        assert_eq!(s.page_count() as u64, MAX_RANGE_PAGES);
        s.set_perm(at_cap, Perm::R).unwrap();
        s.copy_from(&src, at_cap, 0x1000).unwrap();
        s.unmap(at_cap).unwrap();
        assert_eq!(
            s.map_zero_if_unmapped(at_cap, Perm::RW),
            Ok(MAX_RANGE_PAGES as usize)
        );
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

    /// Leaves the space does not hold at all are shared whole, and the
    /// result is the page-by-page mapping's: same pages, contents,
    /// permissions and dirty marks, and a write to one shared leaf
    /// shows in no other.
    #[test]
    fn map_zero_if_unmapped_shares_whole_unheld_leaves() {
        let ppl = PAGES_PER_LEAF as u64;
        let page = |vpn: u64| vpn << crate::PAGE_SHIFT;
        let mut s = rw_space(page(ppl + 88), PAGE_SIZE as u64);
        s.write_u8(page(ppl + 88), 7).unwrap();
        s.clear_dirty();
        let mut by_page = s.clone();
        let region = leaf_region(0, 4);
        assert_eq!(
            s.map_zero_if_unmapped(region, Perm::R),
            Ok(4 * PAGES_PER_LEAF - 1)
        );
        by_page
            .map_zero(Region::new(0, page(ppl + 88)), Perm::R)
            .unwrap();
        by_page
            .map_zero(Region::new(page(ppl + 89), region.end), Perm::R)
            .unwrap();
        assert_eq!(s.page_count(), by_page.page_count());
        assert_eq!(s.content_digest(), by_page.content_digest());
        assert_eq!(s.dirty_vpns(), by_page.dirty_vpns());
        assert_eq!(s.read_u8(page(ppl + 88)).unwrap(), 7);
        s.set_perm(region, Perm::RW).unwrap();
        s.write_u8(page(2), 9).unwrap();
        assert_eq!(s.read_u8(page(2 * ppl + 2)).unwrap(), 0);
        assert_eq!(s.read_u8(page(3 * ppl + 2)).unwrap(), 0);
        assert_eq!(s.map_zero_if_unmapped(region, Perm::RW), Ok(0));
    }

    // ------------------------------------------------------------------
    // Structural sharing (leaf-level copy-on-write)
    // ------------------------------------------------------------------

    /// A leaf-aligned region of `leaves` full leaves starting at leaf
    /// index `base`.
    pub(crate) fn leaf_region(base: u64, leaves: u64) -> Region {
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
        let stats = dst.copy_from(&src, r, r.start).unwrap();
        assert_eq!(stats.leaves_shared, 2);
        assert_eq!(stats.boundary_pages, 0);
        assert_eq!(stats.pages, 2 * PAGES_PER_LEAF as u64);
        assert!(dst.shares_leaf_with(&src, 2 * PAGES_PER_LEAF as u64));
        assert_eq!(dst.read_vec(r.start, 7).unwrap(), b"payload");
        // A congruent but shifted destination still shares.
        let mut dst2 = AddressSpace::new();
        let shifted = leaf_region(10, 1).start;
        let stats = dst2.copy_from(&src, r, shifted).unwrap();
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
        let stats = dst.copy_from(&src, r, r.start + PAGE_SIZE as u64).unwrap();
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
        let stats = dst.copy_from(&src, r, r.start).unwrap();
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
        let stats = dst.copy_from(&src, r, r.start).unwrap();
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
        let stats = eng.copy_from(&src, r, r.start).unwrap();
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
    // Generation (the translation fast path is tested in `pin`)
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
}
