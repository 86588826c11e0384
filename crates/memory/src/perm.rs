//! Per-page access permissions.

use std::fmt;

use serde::{Deserialize, Serialize, Sink, Source};

/// Page access permissions (read / write bits).
///
/// The Determinator kernel's `Perm` option on `Put`/`Get` sets these on
/// a virtual memory range (§3.2). A page with [`Perm::NONE`] is mapped
/// but inaccessible, which the user-level runtime uses, for example, to
/// write-protect file system images between operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Perm(u8);

impl Perm {
    /// No access.
    pub const NONE: Perm = Perm(0);
    /// Read-only.
    pub const R: Perm = Perm(1);
    /// Write-only (rarely useful alone, provided for completeness).
    pub const W: Perm = Perm(2);
    /// Read-write.
    pub const RW: Perm = Perm(3);

    /// Returns true if `self` grants every bit in `need`.
    #[inline]
    pub fn allows(self, need: Perm) -> bool {
        self.0 & need.0 == need.0
    }

    /// Returns the union of two permission sets.
    #[inline]
    pub fn union(self, other: Perm) -> Perm {
        Perm(self.0 | other.0)
    }

    /// Returns true if no access is granted.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

// Written by hand because a `Perm` is a private bit set: it persists
// as the two named bits, `{"r":…,"w":…}`, not as the raw byte.
impl Serialize for Perm {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_object(2);
        sink.key("r");
        sink.bool(self.allows(Perm::R));
        sink.key("w");
        sink.bool(self.allows(Perm::W));
        sink.end_object();
    }
}

/// The two bits a [`Perm`] persists as.
#[derive(Deserialize)]
struct Bits {
    r: bool,
    w: bool,
}

impl Deserialize for Perm {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Perm, S::Error> {
        let Bits { r, w } = Bits::deserialize(src)?;
        let bit = |on, p| if on { p } else { Perm::NONE };
        Ok(bit(r, Perm::R).union(bit(w, Perm::W)))
    }
}

impl fmt::Debug for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = if self.allows(Perm::R) { "r" } else { "-" };
        let w = if self.allows(Perm::W) { "w" } else { "-" };
        write!(f, "{r}{w}")
    }
}

impl fmt::Display for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allows_is_bitwise() {
        assert!(Perm::RW.allows(Perm::R));
        assert!(Perm::RW.allows(Perm::W));
        assert!(Perm::RW.allows(Perm::RW));
        assert!(!Perm::R.allows(Perm::W));
        assert!(!Perm::NONE.allows(Perm::R));
        // Everything allows NONE.
        assert!(Perm::NONE.allows(Perm::NONE));
    }

    #[test]
    fn union_combines() {
        assert_eq!(Perm::R.union(Perm::W), Perm::RW);
        assert_eq!(Perm::NONE.union(Perm::R), Perm::R);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", Perm::RW), "rw");
        assert_eq!(format!("{:?}", Perm::R), "r-");
        assert_eq!(format!("{:?}", Perm::NONE), "--");
    }
}
