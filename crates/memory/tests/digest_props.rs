//! The digest against a byte-serial FNV-1a reference.
//!
//! `ContentDigest` absorbs zero runs by exponent and
//! `AddressSpace::digests` feeds two chains per page in one pass and
//! skips the shared zero frame. The reference below does none of that:
//! one byte, one xor, one multiply, over a model of the space built
//! beside it. It must never learn the shortcuts it checks.

use std::collections::BTreeMap;

use det_memory::{AddressSpace, ContentDigest, PAGE_SIZE, PAGES_PER_LEAF, Perm, Region};
use proptest::collection::vec;
use proptest::prelude::*;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Byte-serial FNV-1a from state `h`.
fn reference(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What one generated page holds.
#[derive(Clone, Copy, Debug)]
enum Fill {
    /// Mapped zero-filled and never written: aliases the zero frame.
    SharedZero,
    /// Written with zeros: a private frame that is all zero.
    PrivateZero,
    /// Every byte drawn.
    Dense,
    /// A few nonzero bytes in a zero page.
    Sparse,
    /// Every word nonzero, with zero bytes inside the words.
    ZeroBytesInWords,
}

const FILLS: [Fill; 5] = [
    Fill::SharedZero,
    Fill::PrivateZero,
    Fill::Dense,
    Fill::Sparse,
    Fill::ZeroBytesInWords,
];

const PERMS: [Perm; 4] = [Perm::NONE, Perm::R, Perm::W, Perm::RW];

/// SplitMix64, for page contents from a seed.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn contents(fill: Fill, mut seed: u64) -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE];
    match fill {
        Fill::SharedZero | Fill::PrivateZero => {}
        Fill::Dense => page.iter_mut().for_each(|b| *b = mix(&mut seed) as u8),
        Fill::Sparse => {
            for _ in 0..1 + mix(&mut seed) % 6 {
                let at = (mix(&mut seed) % PAGE_SIZE as u64) as usize;
                page[at] = 1 + (mix(&mut seed) % 255) as u8;
            }
        }
        Fill::ZeroBytesInWords => {
            for (i, b) in page.iter_mut().enumerate() {
                // Byte 0 of every word is nonzero; the rest are zero
                // half the time.
                let r = mix(&mut seed) as u8;
                *b = if i % 8 == 0 {
                    r | 1
                } else {
                    r & (r >> 7).wrapping_neg()
                };
            }
        }
    }
    page
}

fn page_region(vpn: u64) -> Region {
    Region::new(vpn * PAGE_SIZE as u64, (vpn + 1) * PAGE_SIZE as u64)
}

/// A space and its model: `vpn -> (perm, bytes)`.
fn build(
    pages: &[(u64, usize, usize, u64)],
    zero_leaf: Option<usize>,
) -> (AddressSpace, BTreeMap<u64, (Perm, Vec<u8>)>) {
    let mut space = AddressSpace::new();
    let mut model = BTreeMap::new();
    if let Some(p) = zero_leaf {
        // A whole leaf mapped at once shares one prebuilt zero leaf.
        let first = 9 * PAGES_PER_LEAF as u64;
        let leaf = Region::new(
            first * PAGE_SIZE as u64,
            (first + PAGES_PER_LEAF as u64) * PAGE_SIZE as u64,
        );
        space.map_zero(leaf, PERMS[p]).unwrap();
        for vpn in first..first + PAGES_PER_LEAF as u64 {
            model.insert(vpn, (PERMS[p], vec![0u8; PAGE_SIZE]));
        }
    }
    for &(vpn, f, p, seed) in pages {
        let (fill, perm) = (FILLS[f], PERMS[p]);
        let bytes = contents(fill, seed);
        let region = page_region(vpn);
        space.map_zero(region, Perm::RW).unwrap();
        if !matches!(fill, Fill::SharedZero) {
            space.write(region.start, &bytes).unwrap();
        }
        space.set_perm(region, perm).unwrap();
        model.insert(vpn, (perm, bytes));
    }
    (space, model)
}

/// The space digests the reference computes from the model.
fn reference_digests(model: &BTreeMap<u64, (Perm, Vec<u8>)>) -> (u64, Vec<(u64, u64)>) {
    let mut whole = OFFSET;
    let mut pages = Vec::new();
    for (&vpn, (perm, bytes)) in model {
        let r = u64::from(perm.allows(Perm::R)).to_le_bytes();
        let w = u64::from(perm.allows(Perm::W)).to_le_bytes();
        for part in [&vpn.to_le_bytes()[..], &r, &w, bytes] {
            whole = reference(whole, part);
        }
        let own = [&r[..], &w, bytes]
            .iter()
            .fold(OFFSET, |h, part| reference(h, part));
        pages.push((vpn, own));
    }
    (whole, pages)
}

/// A page in one of four leaves, three of them adjacent.
fn vpn() -> impl Strategy<Value = u64> {
    (
        proptest::sample::select(vec![0u64, 1, 2, 7]),
        0u64..PAGES_PER_LEAF as u64,
    )
        .prop_map(|(leaf, idx)| leaf * PAGES_PER_LEAF as u64 + idx)
}

/// A byte string made of runs: zeros, one nonzero byte, or bytes that
/// are sometimes zero.
fn runs() -> impl Strategy<Value = Vec<u8>> {
    vec((0u8..3, 1usize..40, any::<u8>()), 0..24).prop_map(|runs| {
        let mut out = Vec::new();
        for (kind, len, b) in runs {
            match kind {
                0 => out.extend(std::iter::repeat_n(0, len)),
                1 => out.push(b | 1),
                _ => out.extend((0..len).map(|i| b.wrapping_mul(i as u8) & 0xf3)),
            }
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn space_digests_are_the_byte_serial_reference(
        pages in vec((vpn(), 0usize..5, 0usize..4, any::<u64>()), 1..24),
        zero_leaf in proptest::sample::select(vec![None, None, Some(0usize), Some(3)]),
    ) {
        let (space, model) = build(&pages, zero_leaf);
        // The generated fills are what they say: the zero frame is
        // still shared exactly where no write landed.
        let last: BTreeMap<u64, usize> = pages.iter().map(|&(v, f, _, _)| (v, f)).collect();
        for info in space.iter_pages() {
            let shared = last.get(&info.vpn).is_none_or(|&f| matches!(FILLS[f], Fill::SharedZero));
            prop_assert_eq!(info.is_zero_frame, shared, "vpn {:#x}", info.vpn);
        }
        let (whole, page_digests) = reference_digests(&model);
        let (d, p) = space.digests();
        prop_assert_eq!(d.value(), whole);
        prop_assert_eq!(p, page_digests);
        prop_assert_eq!(space.content_digest().value(), whole);
    }

    #[test]
    fn update_is_the_byte_serial_reference(
        bytes in runs(),
        tail in vec(any::<u8>(), 0..3),
        cut in any::<usize>(),
    ) {
        // Every length mod 8, and the slice split in two calls (a zero
        // run may straddle the split).
        for extra in 0..8 {
            let mut b = bytes.clone();
            b.extend(std::iter::repeat_n(0, extra));
            b.extend(&tail);
            let want = reference(OFFSET, &b);
            let mut whole = ContentDigest::new();
            whole.update(&b);
            prop_assert_eq!(whole.value(), want, "len {}", b.len());
            let at = cut % (b.len() + 1);
            let mut split = ContentDigest::new();
            split.update(&b[..at]);
            split.update(&b[at..]);
            prop_assert_eq!(split.value(), want, "len {} split at {}", b.len(), at);
        }
    }
}

#[test]
fn update_zeros_is_n_zero_bytes() {
    for n in [0usize, 1, 7, 8, 9, 4095, 4096, 4097] {
        for prefix in [&b""[..], b"a", b"\x00\x01"] {
            let mut d = ContentDigest::new();
            d.update(prefix);
            d.update_zeros(n as u64);
            let want = reference(reference(OFFSET, prefix), &vec![0; n]);
            assert_eq!(d.value(), want, "n {n} after {prefix:?}");
        }
    }
}
