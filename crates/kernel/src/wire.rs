//! Wire codec for shard-to-shard space transfer.
//!
//! Cluster migration moves memory between kernel shards as
//! [`SpaceDelta`]s — the same leaf-granularity encoding checkpoints
//! persist (DESIGN.md §9) — serialized to the checkpoint JSON form.
//! Reusing one codec keeps every byte that crosses a shard link
//! byte-stable and replayable: the data plane transfers exactly what
//! `delta_since`/`apply_delta` round-trip, nothing more.

use det_memory::SpaceDelta;

/// Encodes a delta in the checkpoint JSON leaf encoding. The output is
/// canonical: the same delta always encodes to the same bytes, so
/// transfer sizes (and the virtual-time charges derived from them) are
/// deterministic.
pub fn delta_to_json(d: &SpaceDelta) -> String {
    serde_json::to_string(d).expect("delta encoding is infallible")
}

/// Decodes a delta produced by [`delta_to_json`].
pub fn delta_from_json(s: &str) -> Result<SpaceDelta, String> {
    serde_json::from_str(s).map_err(|e| format!("delta wire decode: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use det_memory::{AddressSpace, PageDelta, PageDeltaOp, Perm, Region};

    /// The wire text is pinned: its length is what the shard link
    /// charges virtual time for, so one byte more or less moves every
    /// cluster `vclock`. The string is what the hand-written mapper
    /// emitted before the types derived their encoding.
    #[test]
    fn wire_text_is_pinned() {
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
        let golden = concat!(
            r#"{"pages":[{"vpn":4,"perm":{"r":true,"w":true},"op":{"k":"write","data":"dead00ff"}},"#,
            r#"{"vpn":5,"perm":{"r":true,"w":false},"op":{"k":"zero"}},"#,
            r#"{"vpn":6,"perm":{"r":false,"w":false},"op":{"k":"perm"}},"#,
            r#"{"vpn":7,"perm":{"r":false,"w":true},"op":{"k":"dirty"}}],"unmapped":[42]}"#,
        );
        assert_eq!(delta_to_json(&d), golden);
        assert_eq!(delta_from_json(golden).unwrap(), d);
    }

    #[test]
    fn delta_json_roundtrip() {
        let mut s = AddressSpace::new();
        s.map_zero(Region::new(0x1000, 0x4000), Perm::RW).unwrap();
        s.write(0x2000, b"wire codec").unwrap();
        s.set_perm(Region::new(0x3000, 0x4000), Perm::R).unwrap();
        let d = s.delta_since(&AddressSpace::new());
        let json = delta_to_json(&d);
        assert_eq!(json, delta_to_json(&d), "encoding is canonical");
        let back = delta_from_json(&json).unwrap();
        let mut replica = AddressSpace::new();
        replica.apply_delta(&back).unwrap();
        assert_eq!(replica.content_digest(), s.content_digest());
    }
}
