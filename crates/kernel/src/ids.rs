//! Space identifiers and the child-number namespace.

/// Kernel-internal identifier of a space slot.
///
/// Applications never see these: per the paper's race-free namespace
/// principle (§2.4), user code names *its own children* with
/// application-chosen [`ChildNum`]s; `SpaceId` is only an index into
/// the kernel's space table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SpaceId(pub(crate) u32);

impl SpaceId {
    /// The root space's id.
    pub const ROOT: SpaceId = SpaceId(0);

    /// Returns the raw index (for diagnostics).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// An application-chosen child number, private to each space.
///
/// A plain 64-bit name with no reserved bits: the kernel only ever uses
/// it as a key in the calling space's own children map. Placement on
/// cluster nodes is the shard runtime's business (`det-cluster`'s
/// `Remote::fork` takes the node as an argument), not an encoding
/// inside the child number.
pub type ChildNum = u64;
