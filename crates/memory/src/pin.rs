//! The translation half of an [`AddressSpace`]: generation-validated
//! [`Translation`]s (the VM's software TLB entries), the [`Pinned`]
//! page views [`AddressSpace::pin`] redeems them into, and the
//! [`Window`] of caller-declared spans [`AddressSpace::window`] pins
//! for native code (DESIGN.md §4).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::page::{PAGE_SHIFT, PAGE_SIZE, offset_of, vpn_of};
use crate::space::{LEAF_BITS, LEAF_MASK, Leaf, PageEntry, RootSlot};
use crate::{AddressSpace, MemError, Perm, Region, Result};

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

/// Caller-declared spans of an address space, pinned by
/// [`AddressSpace::window`] for the length of a borrow.
///
/// Accesses are checked against the window, not the page table: a word
/// on a page no span touches is [`MemError::Unmapped`], and a load or
/// store its spans did not ask for is [`MemError::PermDenied`]. A word
/// may straddle two pages of the window.
#[derive(Debug)]
pub struct Window<'a> {
    /// The window's pages as runs of consecutive pages, ascending: first
    /// vpn, page count, and the first's index in `pages`. A loop's
    /// window is a handful of runs, and one compare per run finds a
    /// page faster than a search of the pages would.
    runs: Vec<(u64, u64, usize)>,
    /// Each page's permission in the window and its view, ascending.
    pages: Vec<(Perm, Pinned<'a>)>,
}

impl Window<'_> {
    /// Position of page `vpn` in the window, checked for `need`.
    #[inline]
    fn index(&self, vpn: u64, need: Perm) -> Result<usize> {
        let addr = vpn << PAGE_SHIFT;
        let i = self
            .runs
            .iter()
            .find_map(|&(first, n, at)| {
                let k = vpn.wrapping_sub(first);
                (k < n).then(|| at + k as usize)
            })
            .ok_or(MemError::Unmapped { addr })?;
        if !self.pages[i].0.allows(need) {
            return Err(MemError::PermDenied { addr, need });
        }
        Ok(i)
    }

    #[inline]
    fn page(&self, vpn: u64) -> Result<&[u8; PAGE_SIZE]> {
        Ok(self.pages[self.index(vpn, Perm::R)?].1.bytes())
    }

    #[inline]
    fn page_mut(&mut self, vpn: u64) -> Result<&mut [u8; PAGE_SIZE]> {
        let i = self.index(vpn, Perm::W)?;
        match &mut self.pages[i].1 {
            Pinned::Rw(b) => Ok(b),
            Pinned::Ro(_) => Err(MemError::PermDenied {
                addr: vpn << PAGE_SHIFT,
                need: Perm::W,
            }),
        }
    }

    /// Reads a little-endian `f64`.
    #[inline]
    pub fn read_f64(&self, addr: u64) -> Result<f64> {
        let off = offset_of(addr);
        match self.page(vpn_of(addr))?.get(off..off + 8) {
            Some(b) => Ok(f64::from_le_bytes(b.try_into().expect("8 bytes"))),
            None => self.read_straddling(addr),
        }
    }

    /// Writes a little-endian `f64`; a refused store writes no byte.
    #[inline]
    pub fn write_f64(&mut self, addr: u64, v: f64) -> Result<()> {
        let off = offset_of(addr);
        match self.page_mut(vpn_of(addr))?.get_mut(off..off + 8) {
            Some(b) => b.copy_from_slice(&v.to_le_bytes()),
            None => return self.write_straddling(addr, v.to_le_bytes()),
        }
        Ok(())
    }

    /// [`Window::read_f64`] of a word that crosses into the next page.
    #[cold]
    fn read_straddling(&self, addr: u64) -> Result<f64> {
        let (vpn, n) = (vpn_of(addr), PAGE_SIZE - offset_of(addr));
        let mut b = [0u8; 8];
        b[..n].copy_from_slice(&self.page(vpn)?[PAGE_SIZE - n..]);
        b[n..].copy_from_slice(&self.page(vpn + 1)?[..8 - n]);
        Ok(f64::from_le_bytes(b))
    }

    /// [`Window::write_f64`] of a word that crosses into the next page:
    /// both pages are checked before either is written.
    #[cold]
    fn write_straddling(&mut self, addr: u64, b: [u8; 8]) -> Result<()> {
        let (vpn, n) = (vpn_of(addr), PAGE_SIZE - offset_of(addr));
        self.page_mut(vpn + 1)?;
        self.page_mut(vpn)?[PAGE_SIZE - n..].copy_from_slice(&b[..n]);
        self.page_mut(vpn + 1)?[..8 - n].copy_from_slice(&b[n..]);
        Ok(())
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

/// `&mut` borrows of `items[i]` for each index `i` of `at`, which must
/// be strictly ascending; the borrows end at the first index that is
/// not, or that is out of range.
#[inline(always)]
fn each_mut<T>(
    mut items: &mut [T],
    at: impl IntoIterator<Item = usize>,
) -> impl Iterator<Item = &mut T> {
    let mut base = 0;
    at.into_iter().map_while(move |i| {
        let (item, tail) = std::mem::take(&mut items)
            .get_mut(i.checked_sub(base)?..)?
            .split_first_mut()?;
        (items, base) = (tail, i + 1);
        Some(item)
    })
}

/// Redeems validated translations, sorted by page and naming no page
/// twice, into `view(i, …)` for the `i`th of them: the body of
/// [`AddressSpace::pin`] and [`AddressSpace::window`]. A translation
/// whose page cannot be served gets no call.
#[inline(always)]
fn redeem<'a>(
    root: &'a mut [RootSlot],
    ts: &[Translation],
    mut view: impl FnMut(usize, Pinned<'a>),
) {
    let runs = ts.chunk_by(|a, b| a.slot == b.slot);
    let mut first = 0;
    for (rs, run) in each_mut(root, runs.clone().map(|r| r[0].slot as usize)).zip(runs) {
        leaf_views(&mut rs.leaf, run, |i, v| view(first + i, v));
        first += run.len();
    }
}

/// [`redeem`] within one leaf: views of the entries `ts` name
/// (validated translations whose `slot` is this leaf, ascending).
#[inline(always)]
fn leaf_views<'a>(
    leaf: &'a mut Arc<Leaf>,
    ts: &[Translation],
    mut view: impl FnMut(usize, Pinned<'a>),
) {
    if !(ts.iter().any(|t| t.writable) && is_unique(leaf)) {
        let leaf: &'a Leaf = leaf;
        for (i, t) in ts.iter().enumerate() {
            if let Some(e) = leaf.entries.get(t.entry as usize).and_then(Option::as_ref) {
                view(i, Pinned::Ro(e.frame.bytes()));
            }
        }
        return;
    }
    let entries = &mut Arc::get_mut(leaf).expect("probed unique").entries;
    let at = ts.iter().map(|t| t.entry as usize);
    for (i, (e, &t)) in each_mut(entries, at).zip(ts).enumerate() {
        if let Some(v) = entry_view(e, t) {
            view(i, v);
        }
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

impl AddressSpace {
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
    /// `None` if the page is unmapped or not readable.
    ///
    /// The translation stays redeemable until the next generation bump;
    /// a whole page of reads through it is semantically identical to
    /// the [`read`](AddressSpace::read) slow path.
    #[inline]
    pub fn translate_read(&self, addr: u64) -> Option<Translation> {
        let vpn = vpn_of(addr);
        let slot = self.leaf_pos(vpn >> LEAF_BITS).ok()?;
        let entry = (vpn & LEAF_MASK) as usize;
        let e = self.root[slot].leaf.entries[entry].as_ref()?;
        if !e.perm.allows(Perm::R) {
            return None;
        }
        Some(self.mint(slot, vpn, false))
    }

    /// Mints a write translation for the page containing `addr`, or
    /// `None` if the page is unmapped or not writable.
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
        self.own(slot, vpn);
        Some(self.mint(slot, vpn, true))
    }

    /// A translation of page `vpn`, whose leaf is spine slot `slot`,
    /// current now.
    #[inline]
    fn mint(&self, slot: usize, vpn: u64, writable: bool) -> Translation {
        Translation {
            space_id: self.space_id,
            generation: self.generation,
            slot: slot as u32,
            entry: (vpn & LEAF_MASK) as u16,
            writable,
        }
    }

    /// Makes mapped page `vpn` (in spine slot `slot`) exclusively owned
    /// at both levels and marks it dirty: what minting a write
    /// translation does to the page.
    fn own(&mut self, slot: usize, vpn: u64) {
        let leaf = Arc::make_mut(&mut self.root[slot].leaf);
        let e = leaf.entries[(vpn & LEAF_MASK) as usize]
            .as_mut()
            .expect("caller checked the page is mapped");
        Arc::make_mut(&mut e.frame);
        self.dirty.insert(vpn);
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
        let mut out = [None, None];
        let page = |t: Translation| (t.slot, t.entry);
        match (a, b) {
            (Some(ta), Some(tb)) if page(ta) == page(tb) => {}
            (Some(ta), Some(tb)) => {
                let swap = page(tb) < page(ta);
                let ts = if swap { [tb, ta] } else { [ta, tb] };
                redeem(&mut self.root, &ts, |i, v| {
                    out[i ^ usize::from(swap)] = Some(v)
                });
            }
            (Some(t), None) => redeem(&mut self.root, &[t], |_, v| out[0] = Some(v)),
            (None, Some(t)) => redeem(&mut self.root, &[t], |_, v| out[1] = Some(v)),
            (None, None) => {}
        }
        out
    }

    /// Pins every page the `spans` touch for as long as the returned
    /// [`Window`] borrows the space, so a native inner loop loads and
    /// stores at page views instead of paying a page-table walk, a
    /// generation bump and a dirty insert per word.
    ///
    /// A page gets the union of the permissions its spans ask for. All
    /// pages are validated first, so a refusal — the lowest page that is
    /// unmapped or lacks a permission asked of it — touches nothing, as
    /// a refused [`write`](AddressSpace::write) does. Then each `W` page
    /// is un-shared and dirtied as
    /// [`translate_write`](AddressSpace::translate_write) mints it, the
    /// generation is bumped once, and the pages are redeemed by
    /// [`pin`](AddressSpace::pin)'s routine, valid while the borrow
    /// lasts (DESIGN.md §4). A caller's `W` spans must therefore be
    /// exactly the pages it stores to.
    ///
    /// ```
    /// use det_memory::{AddressSpace, MemError, Perm, Region};
    ///
    /// let mut s = AddressSpace::new();
    /// s.map_zero(Region::new(0x1000, 0x3000), Perm::RW).unwrap();
    /// let _snap = s.snapshot(); // clears the dirty set
    /// let spans = [(Region::new(0x1000, 0x1008), Perm::R), (Region::new(0x2000, 0x2008), Perm::W)];
    /// let mut w = s.window(&spans).unwrap();
    /// w.write_f64(0x2000, 1.5).unwrap();
    /// let denied = MemError::PermDenied { addr: 0x1000, need: Perm::W };
    /// assert_eq!(w.write_f64(0x1000, 0.0), Err(denied));
    /// assert_eq!(s.read_f64(0x2000).unwrap(), 1.5);
    /// assert_eq!(s.dirty_vpns(), vec![2]); // the W page only
    /// ```
    pub fn window(&mut self, spans: &[(Region, Perm)]) -> Result<Window<'_>> {
        let mut union = BTreeMap::new();
        for &(r, perm) in spans.iter().filter(|(r, _)| !r.is_empty()) {
            for vpn in vpn_of(r.start)..=vpn_of(r.end - 1) {
                let p = union.entry(vpn).or_insert(Perm::NONE);
                *p = p.union(perm);
            }
        }
        let pages: Vec<(u64, Perm)> = union.into_iter().collect();
        let mut slots = Vec::with_capacity(pages.len());
        for &(vpn, perm) in &pages {
            let addr = vpn << PAGE_SHIFT;
            let slot = self
                .leaf_pos(vpn >> LEAF_BITS)
                .map_err(|_| MemError::Unmapped { addr })?;
            let e = self.root[slot].leaf.entries[(vpn & LEAF_MASK) as usize]
                .as_ref()
                .ok_or(MemError::Unmapped { addr })?;
            if let Some(need) = [Perm::R, Perm::W]
                .into_iter()
                .find(|&bit| perm.allows(bit) && !e.perm.allows(bit))
            {
                return Err(MemError::PermDenied { addr, need });
            }
            slots.push(slot);
        }
        if pages.iter().any(|(_, perm)| perm.allows(Perm::W)) {
            self.generation += 1;
        }
        let ts: Vec<Translation> = slots
            .into_iter()
            .zip(&pages)
            .map(|(slot, &(vpn, perm))| {
                let w = perm.allows(Perm::W);
                if w {
                    self.own(slot, vpn);
                }
                self.mint(slot, vpn, w)
            })
            .collect();
        let (mut runs, mut views) = (Vec::new(), Vec::with_capacity(ts.len()));
        redeem(&mut self.root, &ts, |i, v| {
            let (vpn, perm) = pages[i];
            match runs.last_mut() {
                Some((first, n, _)) if *first + *n == vpn => *n += 1,
                _ => runs.push((vpn, 1, views.len())),
            }
            views.push((perm, v));
        });
        Ok(Window { runs, pages: views })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGES_PER_LEAF;
    use crate::space::tests::{leaf_region, rw_space};

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
}
