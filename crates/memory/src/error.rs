//! Memory access and merge errors.

use serde::{Deserialize, Serialize};

use crate::Perm;

/// Errors raised by address-space operations.
///
/// In the kernel these become processor-style traps delivered to the
/// space's parent (an implicit `Ret`, §3.2), so each variant carries
/// the faulting address.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum MemError {
    /// Access to an address with no page mapped.
    Unmapped {
        /// The faulting address.
        addr: u64,
    },
    /// Access denied by the page's permissions.
    PermDenied {
        /// The faulting address.
        addr: u64,
        /// The access that was attempted.
        need: Perm,
    },
    /// A kernel-level operation was given a non-page-aligned boundary.
    Misaligned {
        /// The misaligned address.
        addr: u64,
    },
    /// Two spaces changed the same byte since the reference snapshot.
    ///
    /// The paper treats this "like an illegal memory access or
    /// divide-by-zero" (§3.2): a reliably detected, schedule-independent
    /// conflict rather than a silently racing write.
    Conflict {
        /// The first conflicting address found (lowest).
        addr: u64,
    },
    /// An address computation overflowed the 64-bit space.
    AddressOverflow,
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::Unmapped { addr } => write!(f, "unmapped address {addr:#x}"),
            MemError::PermDenied { addr, need } => {
                write!(f, "permission denied at {addr:#x} (need {need})")
            }
            MemError::Misaligned { addr } => write!(f, "address {addr:#x} not page-aligned"),
            MemError::Conflict { addr } => {
                write!(f, "write/write merge conflict at {addr:#x}")
            }
            MemError::AddressOverflow => write!(f, "address computation overflowed"),
        }
    }
}

impl std::error::Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            MemError::Unmapped { addr: 0x1000 }.to_string(),
            "unmapped address 0x1000"
        );
        assert_eq!(
            MemError::Conflict { addr: 0x2004 }.to_string(),
            "write/write merge conflict at 0x2004"
        );
        assert!(
            MemError::PermDenied {
                addr: 1,
                need: Perm::W
            }
            .to_string()
            .contains("-w")
        );
    }
}
