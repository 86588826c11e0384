//! Kernel errors and processor-style traps.

use det_memory::{MemError, MergeConflict};
use det_vm::VmTrap;
use serde::{Deserialize, Serialize};

/// Why a space trapped.
///
/// A trap stops the space and returns control to its parent with this
/// status — the paper's "implicit Ret" (§3.2). Conflicts detected at
/// merge time are traps too: "a programming error, like an illegal
/// memory access or divide-by-zero".
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TrapKind {
    /// Memory fault (unmapped address or permission violation).
    Mem(MemError),
    /// Integer division by zero.
    DivideByZero,
    /// Undefined instruction encoding.
    IllegalInstruction(u8),
    /// Misaligned program counter.
    PcMisaligned(u64),
    /// A native program panicked.
    Panic,
    /// A write/write merge conflict at the given address.
    Conflict(u64),
    /// Any other fault, with a static description.
    Fault(&'static str),
}

impl From<VmTrap> for TrapKind {
    fn from(t: VmTrap) -> TrapKind {
        match t {
            VmTrap::Mem(e) => TrapKind::Mem(e),
            VmTrap::IllegalInstruction(b) => TrapKind::IllegalInstruction(b),
            VmTrap::DivideByZero => TrapKind::DivideByZero,
            VmTrap::PcMisaligned(pc) => TrapKind::PcMisaligned(pc),
        }
    }
}

impl std::fmt::Display for TrapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrapKind::Mem(e) => write!(f, "memory fault: {e}"),
            TrapKind::DivideByZero => write!(f, "divide by zero"),
            TrapKind::IllegalInstruction(b) => write!(f, "illegal instruction {b:#04x}"),
            TrapKind::PcMisaligned(pc) => write!(f, "misaligned pc {pc:#x}"),
            TrapKind::Panic => write!(f, "program panicked"),
            TrapKind::Conflict(addr) => write!(f, "merge conflict at {addr:#x}"),
            TrapKind::Fault(s) => write!(f, "fault: {s}"),
        }
    }
}

/// Errors returned by kernel operations to the invoking space.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum KernelError {
    /// A memory operation faulted.
    Mem(MemError),
    /// A `Get`+`Merge` found a write/write conflict; the merge was not
    /// applied.
    Conflict(MergeConflict),
    /// `Get`+`Merge` on a child that has no reference snapshot.
    NoSnapshot,
    /// `Start` on a child that has no program installed.
    NoProgram,
    /// Installing a program over a live (resumable) child.
    ChildActive,
    /// The space was destroyed (kernel shutdown or parent exit); the
    /// program should unwind promptly.
    Destroyed,
    /// A device operation from a non-root space (§3.1: only the root
    /// has I/O privileges).
    NotRoot,
    /// A remote fork named a logical node the cluster does not have.
    NodeUnreachable(u16),
    /// Malformed request.
    InvalidSpec(&'static str),
    /// Replay mode: the execution requested a different input sequence
    /// than the log contains.
    ReplayDivergence(&'static str),
    /// The kernel was killed by an injected fault (see
    /// [`FaultPlan`](crate::FaultPlan)); in-flight syscalls unwind with
    /// this error and the recorded trace prefix is the crash log.
    Killed,
    /// An injected fault failed this operation (device write, trace
    /// append, allocation, …) without killing the kernel; the payload
    /// names the injection site.
    FaultInjected(&'static str),
    /// A checkpoint failed its integrity digest — the bytes were
    /// corrupted since capture and must not be restored.
    CheckpointCorrupt {
        /// Digest recorded in the checkpoint header.
        expected: u64,
        /// Digest recomputed over the payload.
        actual: u64,
    },
    /// A checkpoint was written by an incompatible format version.
    CheckpointVersion {
        /// Version recorded in the checkpoint header.
        found: u32,
        /// Version this kernel writes and restores.
        supported: u32,
    },
    /// A checkpoint could not be decoded or restored (truncated or
    /// structurally invalid payload).
    CheckpointMalformed(&'static str),
}

impl From<MemError> for KernelError {
    fn from(e: MemError) -> KernelError {
        KernelError::Mem(e)
    }
}

impl KernelError {
    /// Maps an error escaping a native program to the trap its space
    /// reports to the parent.
    pub fn as_trap(&self) -> TrapKind {
        match self {
            KernelError::Mem(e) => TrapKind::Mem(*e),
            KernelError::Conflict(c) => TrapKind::Conflict(c.addr),
            KernelError::NoSnapshot => TrapKind::Fault("merge without snapshot"),
            KernelError::NoProgram => TrapKind::Fault("start without program"),
            KernelError::ChildActive => TrapKind::Fault("program install on live child"),
            KernelError::Destroyed => TrapKind::Fault("space destroyed"),
            KernelError::NotRoot => TrapKind::Fault("device access from non-root space"),
            KernelError::NodeUnreachable(_) => TrapKind::Fault("unreachable node"),
            KernelError::InvalidSpec(s) => TrapKind::Fault(s),
            KernelError::ReplayDivergence(s) => TrapKind::Fault(s),
            KernelError::Killed => TrapKind::Fault("kernel killed by injected fault"),
            KernelError::FaultInjected(site) => TrapKind::Fault(site),
            KernelError::CheckpointCorrupt { .. } => TrapKind::Fault("checkpoint corrupt"),
            KernelError::CheckpointVersion { .. } => TrapKind::Fault("checkpoint version"),
            KernelError::CheckpointMalformed(s) => TrapKind::Fault(s),
        }
    }
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::Mem(e) => write!(f, "memory error: {e}"),
            KernelError::Conflict(c) => write!(
                f,
                "merge conflict at {:#x} (base {}, child {}, parent {})",
                c.addr, c.base, c.child, c.parent
            ),
            KernelError::NoSnapshot => write!(f, "merge requires a prior snapshot"),
            KernelError::NoProgram => write!(f, "child has no program to start"),
            KernelError::ChildActive => write!(f, "child is live; cannot replace program"),
            KernelError::Destroyed => write!(f, "space destroyed"),
            KernelError::NotRoot => {
                write!(f, "device access requires root I/O privileges")
            }
            KernelError::NodeUnreachable(n) => write!(f, "node {n} unreachable"),
            KernelError::InvalidSpec(s) => write!(f, "invalid request: {s}"),
            KernelError::ReplayDivergence(s) => write!(f, "replay divergence: {s}"),
            KernelError::Killed => write!(f, "kernel killed by injected fault"),
            KernelError::FaultInjected(site) => write!(f, "injected fault: {site}"),
            KernelError::CheckpointCorrupt { expected, actual } => write!(
                f,
                "checkpoint integrity digest mismatch: header {expected:016x}, payload {actual:016x}"
            ),
            KernelError::CheckpointVersion { found, supported } => write!(
                f,
                "checkpoint format v{found} not restorable by this kernel (supports v{supported})"
            ),
            KernelError::CheckpointMalformed(s) => write!(f, "malformed checkpoint: {s}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// Result alias for kernel operations.
pub type Result<T> = std::result::Result<T, KernelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_trap_conversion() {
        assert_eq!(TrapKind::from(VmTrap::DivideByZero), TrapKind::DivideByZero);
        assert_eq!(
            TrapKind::from(VmTrap::Mem(MemError::Unmapped { addr: 4 })),
            TrapKind::Mem(MemError::Unmapped { addr: 4 })
        );
    }

    #[test]
    fn error_to_trap_mapping() {
        let e = KernelError::Mem(MemError::Unmapped { addr: 8 });
        assert_eq!(e.as_trap(), TrapKind::Mem(MemError::Unmapped { addr: 8 }));
        let c = MergeConflict {
            addr: 0x10,
            base: 0,
            child: 1,
            parent: 2,
        };
        assert_eq!(KernelError::Conflict(c).as_trap(), TrapKind::Conflict(0x10));
    }

    #[test]
    fn displays() {
        assert!(KernelError::NoSnapshot.to_string().contains("snapshot"));
        assert!(TrapKind::Panic.to_string().contains("panicked"));
    }
}
