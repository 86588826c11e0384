//! Wire codec for shard-to-shard space transfer.
//!
//! Cluster migration moves memory between kernel shards as
//! [`SpaceDelta`]s — the same leaf-granularity encoding checkpoints
//! persist (DESIGN.md §9) — in the serde shim's binary rendering
//! ([`serde::bin`]) of the one derived mapping, which is also what a
//! checkpoint payload is written in. Pages cross as raw bytes. Reusing
//! one codec keeps every byte that crosses a shard link byte-stable and
//! replayable: the data plane transfers exactly what
//! `delta_since`/`apply_delta` round-trip, nothing more.

use det_memory::SpaceDelta;

/// Encodes a delta for the link. The output is canonical: the same
/// delta always encodes to the same bytes, so transfer sizes (and the
/// virtual-time charges derived from them) are deterministic.
pub fn delta_to_bytes(d: &SpaceDelta) -> Vec<u8> {
    serde::bin::to_vec(d)
}

/// Decodes a delta produced by [`delta_to_bytes`]. Link bytes are
/// hostile input: anything else is a typed error.
pub fn delta_from_bytes(b: &[u8]) -> Result<SpaceDelta, serde::bin::Error> {
    serde::bin::from_slice(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use det_memory::{AddressSpace, PageDelta, PageDeltaOp, Perm, Region};

    /// The wire bytes are pinned: their count is what the shard link
    /// charges virtual time for, so one byte more or less moves every
    /// cluster `vclock`. Field keys ride along (the generic rendering
    /// of the derived mapping); page data does not grow.
    #[test]
    fn wire_bytes_are_pinned() {
        let page = |vpn, perm, op| PageDelta { vpn, perm, op };
        let d = SpaceDelta {
            pages: vec![
                page(
                    4,
                    Perm::RW,
                    PageDeltaOp::Write(vec![0xde, 0xad, 0x00, 0xff]),
                ),
                page(5, Perm::R, PageDeltaOp::WriteZero),
                page(6, Perm::NONE, PageDeltaOp::SetPerm),
                page(7, Perm::W, PageDeltaOp::MarkDirty),
            ],
            unmapped: vec![42],
        };
        // Tags: 1/2 bool, 3 uint, 6 str, 7 bytes, 8 array, 9 object;
        // every length and count is one byte here.
        let page_bytes = |vpn: u8, r: u8, w: u8, op: &[u8]| {
            [
                &[9, 3, 3][..],
                b"vpn",
                &[3, vpn, 4],
                b"perm",
                &[9, 2, 1, b'r', r, 1, b'w', w, 2],
                b"op",
                op,
            ]
            .concat()
        };
        let golden = [
            &[9, 2, 5][..],
            b"pages",
            &[8, 4],
            &page_bytes(
                4,
                2,
                2,
                b"\x09\x02\x01k\x06\x05write\x04data\x07\x04\xde\xad\x00\xff",
            ),
            &page_bytes(5, 2, 1, b"\x09\x01\x01k\x06\x04zero"),
            &page_bytes(6, 1, 1, b"\x09\x01\x01k\x06\x04perm"),
            &page_bytes(7, 1, 2, b"\x09\x01\x01k\x06\x05dirty"),
            &[8],
            b"unmapped",
            &[8, 1, 3, 42],
        ]
        .concat();
        assert_eq!(delta_to_bytes(&d), golden);
        assert_eq!(delta_from_bytes(&golden).unwrap(), d);
    }

    #[test]
    fn delta_bytes_roundtrip() {
        let mut s = AddressSpace::new();
        s.map_zero(Region::new(0x1000, 0x4000), Perm::RW).unwrap();
        s.write(0x2000, b"wire codec").unwrap();
        s.set_perm(Region::new(0x3000, 0x4000), Perm::R).unwrap();
        let d = s.delta_since(&AddressSpace::new());
        let bytes = delta_to_bytes(&d);
        assert_eq!(bytes, delta_to_bytes(&d), "encoding is canonical");
        let back = delta_from_bytes(&bytes).unwrap();
        let mut replica = AddressSpace::new();
        replica.apply_delta(&back).unwrap();
        assert_eq!(replica.content_digest(), s.content_digest());
    }
}
