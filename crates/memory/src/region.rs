//! Virtual memory regions (half-open address ranges).

use serde::{DeError, Deserialize, Serialize, Source};

use crate::page::{PAGE_SIZE, vpn_of};
use crate::{MemError, Result};

/// A half-open virtual address range `[start, end)`.
///
/// Kernel operations (`Copy`, `Zero`, `Snap`, `Merge`, `Perm`) operate
/// on page-aligned regions, as the hardware page tables the paper's
/// kernel manipulates do; [`Region::check_page_aligned`] enforces this.
/// Byte-granularity access inside a region goes through
/// [`crate::AddressSpace::read`] / [`crate::AddressSpace::write`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub struct Region {
    /// First address in the region.
    pub start: u64,
    /// First address past the region.
    pub end: u64,
}

/// A region's bounds as persisted, before [`Region::new`]'s condition
/// is checked.
#[derive(Deserialize)]
struct Bounds {
    start: u64,
    end: u64,
}

// Written by hand to keep `Region::new`'s condition: a decoded range
// with `end < start` (a damaged or forged trace) is refused here, before
// any page arithmetic underflows on it.
impl Deserialize for Region {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> std::result::Result<Region, S::Error> {
        let Bounds { start, end } = Bounds::deserialize(src)?;
        if end < start {
            return Err(DeError::msg(format!("region end {end:#x} below start {start:#x}")).into());
        }
        Ok(Region { start, end })
    }
}

impl Region {
    /// Returns the region `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: u64, end: u64) -> Region {
        assert!(end >= start, "region end {end:#x} below start {start:#x}");
        Region { start, end }
    }

    /// Returns the region of `len` bytes starting at `start`.
    pub fn sized(start: u64, len: u64) -> Region {
        Region::new(start, start.checked_add(len).expect("region overflows"))
    }

    /// Returns the region covering exactly one page containing `addr`.
    pub fn page_of(addr: u64) -> Region {
        let base = addr & !(PAGE_SIZE as u64 - 1);
        Region::new(base, base + PAGE_SIZE as u64)
    }

    /// Returns the region's length in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Returns true if the region is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns true if `addr` lies inside the region.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end
    }

    /// Returns true if the two regions share at least one address.
    pub fn overlaps(&self, other: &Region) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Errors with [`MemError::Misaligned`] unless both endpoints are
    /// page-aligned.
    pub fn check_page_aligned(&self) -> Result<()> {
        let mask = PAGE_SIZE as u64 - 1;
        if self.start & mask != 0 {
            return Err(MemError::Misaligned { addr: self.start });
        }
        if self.end & mask != 0 {
            return Err(MemError::Misaligned { addr: self.end });
        }
        Ok(())
    }

    /// Iterates the virtual page numbers the region covers (the final
    /// partial page is included).
    pub fn vpns(&self) -> impl Iterator<Item = u64> {
        let first = vpn_of(self.start);
        let last = if self.is_empty() {
            first
        } else {
            vpn_of(self.end - 1) + 1
        };
        first..last
    }

    /// Returns the number of pages the region touches.
    pub fn page_count(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            vpn_of(self.end - 1) - vpn_of(self.start) + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_geometry() {
        let r = Region::sized(0x1000, 0x3000);
        assert_eq!(r.len(), 0x3000);
        assert!(r.contains(0x1000));
        assert!(r.contains(0x3fff));
        assert!(!r.contains(0x4000));
        assert_eq!(r.page_count(), 3);
        assert_eq!(r.vpns().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn alignment_check() {
        assert!(Region::new(0x1000, 0x2000).check_page_aligned().is_ok());
        assert!(Region::new(0x1001, 0x2000).check_page_aligned().is_err());
        assert!(Region::new(0x1000, 0x2001).check_page_aligned().is_err());
    }

    #[test]
    fn overlap() {
        let a = Region::new(0x1000, 0x2000);
        assert!(a.overlaps(&Region::new(0x1fff, 0x3000)));
        assert!(!a.overlaps(&Region::new(0x2000, 0x3000)));
        assert!(a.overlaps(&Region::new(0, u64::MAX)));
    }

    #[test]
    fn empty_region() {
        let r = Region::new(0x1000, 0x1000);
        assert!(r.is_empty());
        assert_eq!(r.page_count(), 0);
        assert_eq!(r.vpns().count(), 0);
    }

    #[test]
    fn page_of() {
        let r = Region::page_of(0x1234);
        assert_eq!(r.start, 0x1000);
        assert_eq!(r.end, 0x2000);
    }

    #[test]
    #[should_panic(expected = "region end")]
    fn inverted_region_panics() {
        let _ = Region::new(0x2000, 0x1000);
    }
}
