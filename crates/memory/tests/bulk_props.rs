//! Differential tests of the bulk word accessors: `read_u64s`,
//! `read_f64s`, `write_u64s` and `write_f64s` must do exactly what the
//! byte path does on an identical space. A read must equal decoding
//! `read_vec` of the same bytes, error included; a write must leave the
//! same digests, dirty set, generation and frame sharing as `write` of
//! the little-endian bytes, and a refused write must touch nothing.
//!
//! The space straddles a page-table-leaf boundary and may hold one
//! read-only page, write-only page or hole inside its range; pages the
//! fill never writes still alias the shared zero frame. It is optionally
//! shared first — with a live snapshot, a clone, or a per-page copy —
//! and the sharer must never see a write. Addresses are aligned,
//! unaligned, straddle a page or straddle the leaf boundary, and runs
//! reach up to three pages, past the region's ends.

use det_memory::{AddressSpace, MemError, PAGES_PER_LEAF, Perm, Region};
use proptest::prelude::*;

const PAGE: u64 = 4096;
/// First page: four pages before the second leaf.
const FIRST: u64 = PAGES_PER_LEAF as u64 - 4;
const PAGES: u64 = 8;
const REGION: Region = Region {
    start: FIRST * PAGE,
    end: (FIRST + PAGES) * PAGE,
};
/// The first byte of the second leaf.
const LEAF_EDGE: u64 = PAGES_PER_LEAF as u64 * PAGE;

/// The one page of the region that is not read-write, if any.
#[derive(Clone, Copy, Debug)]
enum Odd {
    None,
    ReadOnly(u64),
    WriteOnly(u64),
    Hole(u64),
}

/// How the space shares its leaves and frames beforehand.
#[derive(Clone, Copy, Debug)]
enum Share {
    /// Nothing else holds them.
    Alone,
    /// A live snapshot shares every leaf (and clears the dirty set).
    Snapshot,
    /// A clone shares every leaf.
    Clone,
    /// A copy at an offset incongruent to the leaf shares every frame.
    PageCopy,
}

/// The space, filled with `fill` (region-relative offset, byte), and
/// the copy it shares with under `share`.
fn build(odd: Odd, fill: &[(u64, u8)], share: Share) -> (AddressSpace, Option<AddressSpace>) {
    let mut s = AddressSpace::new();
    s.map_zero(REGION, Perm::RW).unwrap();
    for &(off, b) in fill {
        s.write_u8(REGION.start + off, b).unwrap();
    }
    let page = |i: u64| Region::sized(REGION.start + i * PAGE, PAGE);
    match odd {
        Odd::None => {}
        Odd::ReadOnly(i) => s.set_perm(page(i), Perm::R).unwrap(),
        Odd::WriteOnly(i) => s.set_perm(page(i), Perm::W).unwrap(),
        Odd::Hole(i) => s.unmap(page(i)).unwrap(),
    }
    let other = match share {
        Share::Alone => None,
        Share::Snapshot => Some(s.snapshot()),
        Share::Clone => Some(s.clone()),
        Share::PageCopy => {
            let mut c = AddressSpace::new();
            c.copy_from(&s, REGION, REGION.start + 3 * PAGE).unwrap();
            Some(c)
        }
    };
    (s, other)
}

/// One bulk access.
#[derive(Clone, Debug)]
enum Op {
    ReadU64s(u64, usize),
    ReadF64s(u64, usize),
    WriteU64s(u64, Vec<u64>),
    WriteF64s(u64, Vec<f64>),
}

fn odd() -> impl Strategy<Value = Odd> {
    (0..8u8, 0..PAGES).prop_map(|(kind, i)| match kind {
        0 => Odd::ReadOnly(i),
        1 => Odd::WriteOnly(i),
        2 => Odd::Hole(i),
        _ => Odd::None,
    })
}

fn share() -> impl Strategy<Value = Share> {
    proptest::sample::select(vec![
        Share::Alone,
        Share::Snapshot,
        Share::Clone,
        Share::PageCopy,
    ])
}

/// Bytes written before sharing; pages none of them land on keep the
/// zero frame.
fn fill() -> impl Strategy<Value = Vec<(u64, u8)>> {
    proptest::collection::vec((0..PAGES * PAGE, 1..=255u8), 0..24)
}

/// An address from a page before the region to one after it: aligned,
/// anywhere, within a word of a page's end, or within 64 bytes before
/// the leaf boundary.
fn addr() -> impl Strategy<Value = u64> {
    let in_page = prop_oneof![
        (0..PAGE / 8).prop_map(|w| w * 8).boxed(),
        (0..PAGE).boxed(),
        (PAGE - 7..PAGE).boxed(),
    ];
    prop_oneof![
        (0..PAGES + 2, in_page)
            .prop_map(|(page, off)| REGION.start - PAGE + page * PAGE + off)
            .boxed(),
        (0..64u64).prop_map(|d| LEAF_EDGE - 64 + d).boxed(),
    ]
}

/// A word count: a few, or up to three pages' worth.
fn words() -> impl Strategy<Value = usize> {
    prop_oneof![(0..4usize).boxed(), (0..3 * PAGE as usize / 8 + 2).boxed()]
}

fn op() -> impl Strategy<Value = Op> {
    (0..4u8, addr(), words(), any::<u64>()).prop_map(|(kind, a, n, seed)| {
        // Distinct, nonzero words, so a misplaced or lost byte shows.
        let vals = (0..n as u64).map(|i| (seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1);
        match kind {
            0 => Op::ReadU64s(a, n),
            1 => Op::ReadF64s(a, n),
            2 => Op::WriteU64s(a, vals.collect()),
            _ => Op::WriteF64s(a, vals.map(f64::from_bits).collect()),
        }
    })
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op(), 1..6)
}

/// The 8-byte little-endian words of `raw`.
fn words_of(raw: Vec<u8>) -> Vec<u64> {
    raw.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Per page: vpn, permission, whether it aliases the zero frame, and
/// how many references its frame has (left out for the zero frame,
/// which every space in the process shares).
fn frames(s: &AddressSpace) -> Vec<(u64, Perm, bool, usize)> {
    s.iter_pages()
        .map(|p| {
            let refs = if p.is_zero_frame { 0 } else { p.frame_refs };
            (p.vpn, p.perm, p.is_zero_frame, refs)
        })
        .collect()
}

/// Everything a write may change, to compare two spaces by.
type Image = (
    u64,
    Vec<(u64, u64)>,
    Vec<u64>,
    Vec<(u64, Perm, bool, usize)>,
);

fn image(s: &AddressSpace) -> Image {
    let (whole, pages) = s.digests();
    (whole.value(), pages, s.dirty_vpns(), frames(s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Each bulk read decodes `read_vec`, and each bulk write is
    /// `write` of its little-endian bytes: the same result, image and
    /// generation step, all or nothing, and unseen by the sharer.
    #[test]
    fn bulk_words_are_the_byte_path(
        odd in odd(),
        fill in fill(),
        share in share(),
        ops in ops(),
    ) {
        let (mut s, other) = build(odd, &fill, share);
        let (mut reference, _reference_other) = build(odd, &fill, share);
        let other_digest = other.as_ref().map(|o| o.content_digest());

        for op in &ops {
            let before = image(&s);
            let generation = s.generation();
            let reference_generation = reference.generation();
            let written = match op {
                Op::ReadU64s(a, n) => {
                    let want = reference.read_vec(*a, n * 8).map(words_of);
                    prop_assert_eq!(s.read_u64s(*a, *n), want, "{:?}", op);
                    None
                }
                Op::ReadF64s(a, n) => {
                    let want = reference.read_vec(*a, n * 8).map(words_of);
                    let got = s.read_f64s(*a, *n).map(|v| v.into_iter().map(f64::to_bits).collect());
                    prop_assert_eq!(got, want, "{:?}", op);
                    None
                }
                Op::WriteU64s(a, vals) => {
                    let raw: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
                    let want = reference.write(*a, &raw);
                    let got = s.write_u64s(*a, vals);
                    prop_assert_eq!(got, want, "{:?}", op);
                    Some(got)
                }
                Op::WriteF64s(a, vals) => {
                    let raw: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
                    let want = reference.write(*a, &raw);
                    let got = s.write_f64s(*a, vals);
                    prop_assert_eq!(got, want, "{:?}", op);
                    Some(got)
                }
            };
            prop_assert!(image(&s) == image(&reference), "{:?}: images differ", op);
            prop_assert_eq!(
                s.generation() - generation,
                reference.generation() - reference_generation,
                "{:?}", op
            );
            match written {
                // A read, or a refused write, touches nothing.
                None | Some(Err(_)) => {
                    prop_assert!(image(&s) == before, "{:?} touched the space", op);
                    prop_assert_eq!(s.generation(), generation, "{:?}", op);
                }
                Some(Ok(())) => {}
            }
            if let Some(o) = &other {
                prop_assert_eq!(Some(o.content_digest()), other_digest, "{:?}: the sharer saw it", op);
            }
        }
    }
}

#[test]
fn a_word_split_across_the_leaf_edge_lands_whole() {
    let (mut s, snap) = build(Odd::None, &[], Share::Snapshot);
    let a = LEAF_EDGE - 3;
    s.write_u64s(a, &[0x0807_0605_0403_0201, u64::MAX]).unwrap();
    assert_eq!(
        s.read_vec(a, 16).unwrap(),
        [
            1, 2, 3, 4, 5, 6, 7, 8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff
        ]
    );
    assert_eq!(
        s.read_u64s(a, 2).unwrap(),
        [0x0807_0605_0403_0201, u64::MAX]
    );
    assert_eq!(s.read_f64s(a + 8, 1).unwrap()[0].to_bits(), u64::MAX);
    assert_eq!(s.dirty_vpns(), vec![FIRST + 3, FIRST + 4]);
    assert_eq!(snap.unwrap().read_u64s(a, 2).unwrap(), [0, 0]);
}

#[test]
fn a_refused_bulk_write_touches_nothing() {
    let (mut s, _) = build(Odd::ReadOnly(5), &[(16, 7)], Share::Alone);
    let before = image(&s);
    let generation = s.generation();
    let a = REGION.start + 4 * PAGE + 8;
    assert_eq!(
        s.write_f64s(a, &[1.5; PAGE as usize / 4]),
        Err(MemError::PermDenied {
            addr: REGION.start + 5 * PAGE,
            need: Perm::W
        })
    );
    assert!(image(&s) == before);
    assert_eq!(s.generation(), generation);
}

#[test]
fn a_bulk_read_whose_byte_count_overflows_is_refused() {
    let (s, _) = build(Odd::None, &[], Share::Alone);
    let n = (1usize << 61) + 1;
    assert_eq!(s.read_u64s(REGION.start, n), Err(MemError::AddressOverflow));
    assert_eq!(s.read_f64s(REGION.start, n), Err(MemError::AddressOverflow));
    assert_eq!(s.read_u64s(u64::MAX - 7, 1), Err(MemError::AddressOverflow));
    // Longer than everything mapped, but representable: the first
    // unmapped page, not an allocation of the whole length.
    assert_eq!(
        s.read_u64s(REGION.start, 1usize << 59),
        Err(MemError::Unmapped { addr: REGION.end })
    );
}
