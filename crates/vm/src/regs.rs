//! CPU register state: the per-space "register half" of a
//! Determinator space (§3.1).

use serde::{Deserialize, Serialize};

/// Register file of one space's single control flow.
///
/// Sixteen 64-bit general-purpose registers plus a program counter.
/// Floating point uses the same registers, bit-cast as IEEE-754
/// doubles — all FP operations are single IEEE operations, so results
/// are bit-deterministic across hosts.
///
/// Conventions used by the assembler and the user-level runtime:
///
/// * `r0` — scratch / return value,
/// * `r1` — syscall code / exit status,
/// * `r14` — link register for `jal`,
/// * `r15` — stack pointer.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct Regs {
    /// Program counter (byte address of the next instruction).
    pub pc: u64,
    /// General-purpose registers.
    pub gpr: [u64; 16],
}

impl Regs {
    /// Register count.
    pub const NUM_GPR: usize = 16;
    /// Conventional link register index.
    pub const LINK: usize = 14;
    /// Conventional stack-pointer index.
    pub const SP: usize = 15;

    /// Returns zeroed registers with the given entry point.
    pub fn at_entry(pc: u64) -> Regs {
        Regs { pc, gpr: [0; 16] }
    }

    /// Reads register `r` as an IEEE-754 double.
    #[inline]
    pub fn f(&self, r: usize) -> f64 {
        f64::from_bits(self.gpr[r])
    }

    /// Writes register `r` as an IEEE-754 double.
    #[inline]
    pub fn set_f(&mut self, r: usize, v: f64) {
        self.gpr[r] = v.to_bits();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_state() {
        let r = Regs::at_entry(0x400);
        assert_eq!(r.pc, 0x400);
        assert!(r.gpr.iter().all(|&g| g == 0));
    }

    #[test]
    fn float_views_are_bit_casts() {
        let mut r = Regs::default();
        r.set_f(3, -0.5);
        assert_eq!(r.f(3), -0.5);
        assert_eq!(r.gpr[3], (-0.5f64).to_bits());
    }
}
