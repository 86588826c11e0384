//! Vendored shim for the parts of `bytes` this workspace uses: an
//! immutable, cheaply clonable view into a shared byte buffer.
//!
//! As in the real crate, a `Bytes` is a reference-counted buffer plus
//! an offset and a length: `clone` and [`Bytes::slice`] share the
//! buffer, `From<Vec<u8>>` takes the vector over without copying it,
//! and equality, ordering and hashing look at the viewed contents only.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Cheaply clonable immutable bytes.
#[derive(Clone)]
pub struct Bytes {
    buf: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Copies `data` into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the contents out into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }

    /// A view of `range` within this one, sharing its buffer.
    ///
    /// # Panics
    ///
    /// If the range is inverted or reaches past `self.len()`.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "range {start}..{end} out of bounds for Bytes of length {}",
            self.len
        );
        Bytes {
            buf: Arc::clone(&self.buf),
            off: self.off + start,
            len: end - start,
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.off..self.off + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> Ordering {
        self[..].cmp(&other[..])
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            buf: Arc::new(v),
            off: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Bytes {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    #[test]
    fn roundtrip_and_slice() {
        let b = Bytes::from(vec![1, 2, 3, 4]);
        assert_eq!(b.len(), 4);
        assert_eq!(&b[1..3], &[2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3, 4]);
        let c = b.clone();
        assert_eq!(b, c);
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn from_vec_takes_the_allocation_over() {
        let v = vec![7u8; 64];
        let at = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), at);
    }

    #[test]
    fn slices_share_the_buffer_and_nest() {
        let b = Bytes::from((0u8..10).collect::<Vec<_>>());
        let mid = b.slice(2..8);
        assert_eq!(&mid[..], &[2, 3, 4, 5, 6, 7]);
        assert_eq!(mid.as_ptr(), b[2..].as_ptr());
        let inner = mid.slice(1..=2);
        assert_eq!(&inner[..], &[3, 4]);
        assert_eq!(inner.as_ptr(), b[3..].as_ptr());
        assert_eq!(mid.slice(..), mid);
        assert!(mid.slice(6..).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_view_panics_even_inside_the_buffer() {
        let b = Bytes::from(vec![0u8; 10]);
        b.slice(0..4).slice(0..5);
    }

    #[test]
    fn eq_ord_and_hash_see_contents_only() {
        let whole = Bytes::from(b"xxabyy".to_vec());
        let view = whole.slice(2..4);
        let own = Bytes::from("ab");
        assert_eq!(view, own);
        assert_eq!(view.cmp(&own), Ordering::Equal);
        assert!(view < Bytes::from("ac") && view > Bytes::from("a"));
        let hash = |b: &Bytes| {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&view), hash(&own));
        assert_ne!(view, whole);
    }
}
