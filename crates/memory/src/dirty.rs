//! The dirty write-set, stored at page-table-leaf granularity.
//!
//! PR 2 introduced the dirty set as a `BTreeSet<u64>` of VPNs; with
//! the structurally-shared page table (DESIGN.md §5), bulk operations
//! matter: a leaf-congruent virtual copy installs up to 512 pages with
//! one `Arc` clone, and its dirty marks must be just as cheap or the
//! bookkeeping would re-introduce the O(pages) cost the sharing
//! removed. So the set is a map from leaf index to a 512-bit bitmap:
//! per-page marks are one bit flip, whole-leaf marks are one 8-word
//! assignment.

use std::collections::BTreeMap;

use crate::space::{LEAF_BITS, LEAF_MASK, LEAF_WORDS as WORDS, range_mask};

/// Set of dirty VPNs, bitmap-chunked by page-table leaf.
///
/// Invariant: no stored bitmap is all-zero (empty leaves are removed),
/// and `count` equals the total number of set bits.
#[derive(Clone, Debug, Default)]
pub(crate) struct DirtySet {
    leaves: BTreeMap<u64, [u64; WORDS]>,
    count: usize,
}

/// Set bits in one leaf's bitmap.
fn ones(bits: &[u64; WORDS]) -> usize {
    bits.iter().map(|w| w.count_ones() as usize).sum()
}

impl DirtySet {
    /// Marks `vpn` dirty.
    pub(crate) fn insert(&mut self, vpn: u64) {
        let bits = self.leaves.entry(vpn >> LEAF_BITS).or_insert([0; WORDS]);
        let idx = (vpn & LEAF_MASK) as usize;
        let bit = 1u64 << (idx % 64);
        if bits[idx / 64] & bit == 0 {
            bits[idx / 64] |= bit;
            self.count += 1;
        }
    }

    /// Clears `vpn`'s dirty mark, if set.
    pub(crate) fn remove(&mut self, vpn: u64) {
        let base = vpn >> LEAF_BITS;
        let Some(bits) = self.leaves.get_mut(&base) else {
            return;
        };
        let idx = (vpn & LEAF_MASK) as usize;
        let bit = 1u64 << (idx % 64);
        if bits[idx / 64] & bit != 0 {
            bits[idx / 64] &= !bit;
            self.count -= 1;
            if bits.iter().all(|&w| w == 0) {
                self.leaves.remove(&base);
            }
        }
    }

    /// Sets the dirty bits of leaf `base` with page index in `lo..=hi`
    /// to `bits`' and leaves the marks outside that window alone — the
    /// bulk form of insert-every-mapped-page / remove-every-hole a
    /// wholesale leaf install needs (O(1) per 512 pages). The window is
    /// the whole leaf for a whole-leaf install, and the copied range
    /// when a range alone in its leaf shares it.
    pub(crate) fn assign_leaf(&mut self, base: u64, lo: usize, hi: usize, bits: &[u64; WORDS]) {
        let marks = self.leaves.entry(base).or_insert([0; WORDS]);
        let old = ones(marks);
        if lo == 0 && hi == WORDS * 64 - 1 {
            // The whole-leaf install every aligned fork makes: the
            // masking below is a fifth of such a copy's host time.
            *marks = *bits;
        } else {
            for (w, m) in marks.iter_mut().enumerate() {
                let window = range_mask(w, lo, hi);
                *m = (*m & !window) | (bits[w] & window);
            }
        }
        let new = ones(marks);
        if new == 0 {
            self.leaves.remove(&base);
        }
        self.count = self.count - old + new;
    }

    /// Clears every dirty bit of leaf `base` (O(1)).
    pub(crate) fn clear_leaf(&mut self, base: u64) {
        if let Some(prev) = self.leaves.remove(&base) {
            self.count -= ones(&prev);
        }
    }

    /// Clears the whole set.
    pub(crate) fn clear(&mut self) {
        self.leaves.clear();
        self.count = 0;
    }

    /// Number of dirty pages.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Number of leaves holding a dirty page (no stored bitmap is
    /// all-zero).
    pub(crate) fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// True if `vpn` is marked dirty.
    pub(crate) fn contains(&self, vpn: u64) -> bool {
        match self.leaves.get(&(vpn >> LEAF_BITS)) {
            Some(bits) => {
                let idx = (vpn & LEAF_MASK) as usize;
                bits[idx / 64] & (1u64 << (idx % 64)) != 0
            }
            None => false,
        }
    }

    /// The sorted dirty VPNs in `first..=last`.
    pub(crate) fn vpns_in(&self, first: u64, last: u64) -> Vec<u64> {
        let mut out = Vec::new();
        for (&base, bits) in self.leaves.range(first >> LEAF_BITS..=last >> LEAF_BITS) {
            for (w, &word) in bits.iter().enumerate() {
                let mut b = word;
                while b != 0 {
                    let i = b.trailing_zeros() as u64;
                    b &= b - 1;
                    let vpn = (base << LEAF_BITS) + w as u64 * 64 + i;
                    if vpn >= first && vpn <= last {
                        out.push(vpn);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_count() {
        let mut d = DirtySet::default();
        d.insert(5);
        d.insert(5);
        d.insert(513);
        assert_eq!(d.len(), 2);
        assert_eq!(d.vpns_in(0, u64::MAX - 1), vec![5, 513]);
        d.remove(5);
        d.remove(5);
        assert_eq!(d.len(), 1);
        d.remove(513);
        assert_eq!(d.len(), 0);
        assert!(d.leaves.is_empty(), "empty bitmaps must be dropped");
    }

    #[test]
    fn assign_and_clear_leaf_adjust_count() {
        let mut d = DirtySet::default();
        d.insert(3);
        let mut bits = [0u64; WORDS];
        bits[0] = 0b1010;
        d.assign_leaf(0, 0, 511, &bits);
        assert_eq!(d.len(), 2);
        assert_eq!(d.vpns_in(0, 511), vec![1, 3]);
        d.assign_leaf(0, 0, 511, &[0; WORDS]);
        assert_eq!(d.len(), 0);
        assert!(d.leaves.is_empty(), "empty bitmaps must be dropped");
        d.insert(700);
        d.clear_leaf(1);
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn assign_leaf_leaves_marks_outside_its_window_alone() {
        let mut d = DirtySet::default();
        for vpn in [2, 70, 130, 600] {
            d.insert(vpn);
        }
        let mut bits = [0u64; WORDS];
        bits[1] = 0b11 << 1; // pages 65 and 66
        d.assign_leaf(0, 64, 127, &bits);
        assert_eq!(d.vpns_in(0, u64::MAX - 1), vec![2, 65, 66, 130, 600]);
        assert_eq!(d.len(), 5);
        // Bits outside the window are not taken from the source either.
        bits[0] = 1;
        d.assign_leaf(0, 64, 127, &bits);
        assert_eq!(d.vpns_in(0, 63), vec![2]);
        // A window that empties the last marks drops the bitmap.
        d.assign_leaf(1, 0, 511, &[0; WORDS]);
        assert_eq!(d.vpns_in(512, 1023), Vec::<u64>::new());
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn range_filters_within_leaf() {
        let mut d = DirtySet::default();
        for vpn in [0, 100, 511, 512, 1024] {
            d.insert(vpn);
        }
        assert_eq!(d.vpns_in(100, 512), vec![100, 511, 512]);
        assert_eq!(d.vpns_in(513, 1023), Vec::<u64>::new());
    }
}
