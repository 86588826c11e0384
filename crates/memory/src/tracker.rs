//! Page access tracking: the concrete observation a static footprint
//! is checked against.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::sync::Mutex;

use crate::page::vpn_of;

/// Records the set of virtual pages touched by reads and writes.
///
/// `det-analyze`'s soundness gate installs a tracker on the space a
/// program runs in and checks that every page the run really touched
/// lies inside the statically predicted footprint (DESIGN.md §11) —
/// the one thing the analysis must never get wrong.
///
/// The tracker is shared (`Arc`) so the checker keeps a handle while
/// the space owns its clone; a mutex keeps it thread-safe. Determinism
/// is unaffected: the *sets* recorded depend only on the program's own
/// accesses.
#[derive(Clone, Default, Debug)]
pub struct AccessTracker {
    inner: Arc<Mutex<TrackerState>>,
}

#[derive(Default, Debug)]
struct TrackerState {
    read: BTreeSet<u64>,
    written: BTreeSet<u64>,
}

impl AccessTracker {
    /// Returns a fresh, empty tracker.
    pub fn new() -> AccessTracker {
        AccessTracker::default()
    }

    /// Records a read of `len` bytes at `addr`.
    pub fn record_read_range(&self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let mut st = self.inner.lock().expect("tracker poisoned");
        for vpn in vpn_of(addr)..=vpn_of(addr + len - 1) {
            st.read.insert(vpn);
        }
    }

    /// Records a write of `len` bytes at `addr`.
    pub fn record_write_range(&self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let mut st = self.inner.lock().expect("tracker poisoned");
        for vpn in vpn_of(addr)..=vpn_of(addr + len - 1) {
            st.written.insert(vpn);
        }
    }

    /// Returns the sorted set of pages read (including read-modify-write).
    pub fn pages_read(&self) -> Vec<u64> {
        self.inner
            .lock()
            .expect("tracker poisoned")
            .read
            .iter()
            .copied()
            .collect()
    }

    /// Returns the sorted set of pages written.
    pub fn pages_written(&self) -> Vec<u64> {
        self.inner
            .lock()
            .expect("tracker poisoned")
            .written
            .iter()
            .copied()
            .collect()
    }

    /// Returns the sorted union of all pages touched.
    pub fn pages_touched(&self) -> Vec<u64> {
        let st = self.inner.lock().expect("tracker poisoned");
        st.read.union(&st.written).copied().collect()
    }

    /// Clears the recorded sets (between migration legs).
    pub fn reset(&self) {
        let mut st = self.inner.lock().expect("tracker poisoned");
        st.read.clear();
        st.written.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AddressSpace, Perm, Region};

    #[test]
    fn records_page_spans() {
        let t = AccessTracker::new();
        t.record_read_range(0x1ff0, 0x20); // Spans pages 1 and 2.
        t.record_write_range(0x3000, 1);
        assert_eq!(t.pages_read(), vec![1, 2]);
        assert_eq!(t.pages_written(), vec![3]);
        assert_eq!(t.pages_touched(), vec![1, 2, 3]);
        t.reset();
        assert!(t.pages_touched().is_empty());
    }

    #[test]
    fn integrates_with_address_space() {
        let mut s = AddressSpace::new();
        s.map_zero(Region::new(0x1000, 0x4000), Perm::RW).unwrap();
        let t = AccessTracker::new();
        s.set_tracker(Some(t.clone()));
        s.read_u64(0x1000).unwrap();
        s.write_u64(0x2000, 5).unwrap();
        assert_eq!(t.pages_read(), vec![1]);
        assert_eq!(t.pages_written(), vec![2]);
        // Detaching stops recording.
        s.set_tracker(None);
        s.write_u64(0x3000, 5).unwrap();
        assert_eq!(t.pages_written(), vec![2]);
    }

    #[test]
    fn zero_len_ignored() {
        let t = AccessTracker::new();
        t.record_read_range(0x1000, 0);
        assert!(t.pages_touched().is_empty());
    }
}
