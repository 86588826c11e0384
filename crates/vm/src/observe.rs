//! Page-level observation of a concrete run: what
//! [`Cpu::run_observed`](crate::Cpu::run_observed) records, and what
//! `det-analyze`'s soundness gate checks a static footprint against
//! (DESIGN.md §11).

use std::collections::BTreeSet;

use det_memory::PAGE_SHIFT;

/// The virtual pages an observed run read (instruction fetches
/// included) and wrote.
///
/// A load's or fetch's page span is recorded before the access, so a
/// faulting load still counts as a read: the analysis must have
/// predicted it. A store's span is recorded only once the store has
/// committed. An access whose end would overflow the address space is
/// refused before any page is touched and is not recorded.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct PageLog {
    read: BTreeSet<u64>,
    written: BTreeSet<u64>,
}

impl PageLog {
    /// Returns an empty log.
    pub fn new() -> PageLog {
        PageLog::default()
    }

    /// The pages read, ascending.
    pub fn pages_read(&self) -> Vec<u64> {
        self.read.iter().copied().collect()
    }

    /// The pages written, ascending.
    pub fn pages_written(&self) -> Vec<u64> {
        self.written.iter().copied().collect()
    }

    /// Records a read of the `N` bytes at `addr`, unless they overflow.
    pub(crate) fn read<const N: usize>(&mut self, addr: u64) {
        insert_span::<N>(&mut self.read, addr);
    }

    /// Records a committed write of the `N` bytes at `addr`.
    pub(crate) fn write<const N: usize>(&mut self, addr: u64) {
        insert_span::<N>(&mut self.written, addr);
    }
}

fn insert_span<const N: usize>(set: &mut BTreeSet<u64>, addr: u64) {
    if let Some(end) = addr.checked_add(N as u64) {
        set.extend(addr >> PAGE_SHIFT..=(end - 1) >> PAGE_SHIFT);
    }
}

#[cfg(test)]
mod tests {
    use det_memory::{AddressSpace, MemError, Perm, Region};

    use super::*;
    use crate::{Cpu, VmExit, VmTrap, assemble};

    /// Pages 0–2 mapped read-write, page 3 read-only, `src` at 0.
    fn observe(src: &str) -> (VmExit, PageLog) {
        let mut mem = AddressSpace::new();
        mem.map_zero(Region::new(0, 0x3000), Perm::RW).unwrap();
        mem.map_zero(Region::new(0x3000, 0x4000), Perm::R).unwrap();
        mem.write(0, &assemble(src).unwrap().bytes).unwrap();
        let mut log = PageLog::new();
        let exit = Cpu::new().run_observed(&mut mem, None, &mut log);
        (exit, log)
    }

    #[test]
    fn records_page_spans() {
        let mut log = PageLog::new();
        log.read::<8>(0x1ffc); // Spans pages 1 and 2.
        log.write::<1>(0x3000);
        log.read::<8>(u64::MAX - 3); // Overflows: refused, not logged.
        assert_eq!(log.pages_read(), vec![1, 2]);
        assert_eq!(log.pages_written(), vec![3]);
    }

    #[test]
    fn integrates_with_address_space() {
        let (exit, log) =
            observe("li r5, 0x1000\nli r6, 0x2000\nldd r1, [r5+0]\nstd r1, [r6+0]\nhalt");
        assert_eq!(exit, VmExit::Halt);
        // Fetches are reads: the code page is in the read set.
        assert_eq!(log.pages_read(), vec![0, 1]);
        assert_eq!(log.pages_written(), vec![2]);
    }

    #[test]
    fn an_instruction_without_an_operand_logs_only_its_fetch() {
        let (exit, log) = observe("ldi r1, 5\nhalt");
        assert_eq!(exit, VmExit::Halt);
        assert_eq!(log.pages_read(), vec![0]);
        assert!(log.pages_written().is_empty());
    }

    #[test]
    fn a_misaligned_pc_traps_before_any_fetch() {
        let mut cpu = Cpu::at_entry(2);
        let mut log = PageLog::new();
        let exit = cpu.run_observed(&mut AddressSpace::new(), None, &mut log);
        assert_eq!(exit, VmExit::Trap(VmTrap::PcMisaligned(2)));
        assert_eq!(log, PageLog::new());
    }

    #[test]
    fn a_page_crossing_load_logs_both_pages() {
        let (exit, log) = observe("li r5, 0x1ffc\nldd r1, [r5+0]\nhalt");
        assert_eq!(exit, VmExit::Halt);
        assert_eq!(log.pages_read(), vec![0, 1, 2]);
    }

    #[test]
    fn a_faulting_load_is_logged() {
        let (exit, log) = observe("li r5, 0x9000\nldd r1, [r5+0]\nhalt");
        assert_eq!(
            exit,
            VmExit::Trap(VmTrap::Mem(MemError::Unmapped { addr: 0x9000 }))
        );
        assert_eq!(log.pages_read(), vec![0, 9]);
    }

    #[test]
    fn a_faulting_store_is_not_logged() {
        let (exit, log) = observe("li r5, 0x3000\nstd r1, [r5+0]\nhalt");
        assert!(matches!(
            exit,
            VmExit::Trap(VmTrap::Mem(MemError::PermDenied { addr: 0x3000, .. }))
        ));
        assert_eq!(log.pages_read(), vec![0]);
        assert!(log.pages_written().is_empty());
    }
}
