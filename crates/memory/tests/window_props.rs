//! Differential tests of `AddressSpace::window`: random span sets and
//! random `f64` loads and stores through a window must do exactly what
//! the same loads and stores do through `read_f64`/`write_f64` on an
//! identical space — the same bytes, the same dirty set and, when the
//! window is refused, the same error with nothing touched.
//!
//! The space straddles a page-table-leaf boundary and holds a read-only
//! page, a write-only page and a hole at its end, so span sets cover two leaves,
//! overlap with mixed permissions, get refused, and place words across
//! page boundaries. The window's space is optionally shared first — with
//! a live snapshot, a clone, or a per-page copy — and the other copy's
//! bytes must come through untouched (the window un-shares what it
//! writes, and only that).

use det_memory::{AddressSpace, MemError, PAGES_PER_LEAF, Perm, Region};
use proptest::prelude::*;

const PAGE: u64 = 4096;
/// First page: four pages before the second leaf.
const FIRST: u64 = PAGES_PER_LEAF as u64 - 4;
const PAGES: u64 = 8;
/// The last page is a hole.
const HOLE: u64 = PAGES - 1;
const REGION: Region = Region {
    start: FIRST * PAGE,
    end: (FIRST + PAGES) * PAGE,
};

/// Each page's permission, `None` for the hole and outside the region.
fn page_perm(vpn: u64) -> Option<Perm> {
    match vpn.checked_sub(FIRST)? {
        2 => Some(Perm::R),
        5 => Some(Perm::W),
        HOLE.. => None,
        _ => Some(Perm::RW),
    }
}

/// How the window's space shares its leaves and frames beforehand.
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

/// The space, filled with `fill` (page-relative offset, byte), and the
/// copy it shares with under `share`.
fn build(fill: &[(u64, u8)], share: Share) -> (AddressSpace, Option<AddressSpace>) {
    let mut s = AddressSpace::new();
    s.map_zero(REGION, Perm::RW).unwrap();
    for &(off, b) in fill {
        s.write_u8(REGION.start + off, b).unwrap();
    }
    for vpn in FIRST..FIRST + PAGES {
        let page = Region::sized(vpn * PAGE, PAGE);
        match page_perm(vpn) {
            Some(perm) => s.set_perm(page, perm).unwrap(),
            None => s.unmap(page).unwrap(),
        }
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

/// One access the loop makes: a load, or a store of a value.
#[derive(Clone, Copy, Debug)]
enum Op {
    Load(u64),
    Store(u64, f64),
}

fn share() -> impl Strategy<Value = Share> {
    proptest::sample::select(vec![
        Share::Alone,
        Share::Snapshot,
        Share::Clone,
        Share::PageCopy,
    ])
}

/// A span up to three pages long. Most ask for all that every page
/// they touch allows (read, write or both) and stop short of the hole;
/// one in eight starts within half a page of either side of the region
/// and asks for any of the three, and is then often refused.
fn spans() -> impl Strategy<Value = Vec<(Region, Perm)>> {
    let any_perm = proptest::sample::select(vec![Perm::R, Perm::W, Perm::RW]);
    proptest::collection::vec(
        (0..(PAGES + 1) * PAGE, 0..3 * PAGE, any_perm, 0..8u8).prop_map(|(at, len, perm, kind)| {
            if kind == 0 {
                return (Region::sized(REGION.start - PAGE / 2 + at, len), perm);
            }
            let start = REGION.start + at % (HOLE * PAGE);
            let r = Region::new(start, (start + len).min(REGION.start + HOLE * PAGE));
            let allowed = |need| {
                (r.start / PAGE..r.end.div_ceil(PAGE))
                    .all(|vpn| page_perm(vpn).is_some_and(|p| p.allows(need)))
            };
            let fit = [Perm::R, Perm::W]
                .into_iter()
                .filter(|&need| allowed(need))
                .fold(Perm::NONE, Perm::union);
            (r, if fit.is_none() { perm } else { fit })
        }),
        1..4,
    )
}

/// An address in or near the region, often where a word straddles two
/// pages.
fn addr() -> impl Strategy<Value = u64> {
    let off = prop_oneof![
        (0..PAGE / 8).prop_map(|w| w * 8).boxed(),
        (PAGE - 7..PAGE).boxed(),
        (0..PAGE).boxed(),
    ];
    (0..PAGES, off).prop_map(|(page, off)| REGION.start + page * PAGE + off)
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (addr(), any::<bool>(), any::<u64>()).prop_map(|(a, load, bits)| {
        if load {
            Op::Load(a)
        } else {
            Op::Store(a, f64::from_bits(bits))
        }
    });
    proptest::collection::vec(op, 0..48)
}

fn fill() -> impl Strategy<Value = Vec<(u64, u8)>> {
    proptest::collection::vec((0..PAGES * PAGE, 1..=255u8), 0..64).prop_map(|f| {
        f.into_iter()
            .filter(|&(off, _)| page_perm(FIRST + off / PAGE).is_some())
            .collect()
    })
}

/// Every page the spans touch, with the union of what they ask for.
fn window_pages(spans: &[(Region, Perm)]) -> Vec<(u64, Perm)> {
    let mut pages: Vec<(u64, Perm)> = Vec::new();
    for &(r, perm) in spans.iter().filter(|(r, _)| !r.is_empty()) {
        for vpn in r.start / PAGE..=(r.end - 1) / PAGE {
            match pages.iter_mut().find(|(v, _)| *v == vpn) {
                Some((_, p)) => *p = p.union(perm),
                None => pages.push((vpn, perm)),
            }
        }
    }
    pages.sort_by_key(|&(vpn, _)| vpn);
    pages
}

/// What the window must refuse: the lowest page that is unmapped or
/// lacks a permission asked of it, read before write.
fn expected_refusal(s: &AddressSpace, pages: &[(u64, Perm)]) -> Option<MemError> {
    pages.iter().find_map(|&(vpn, want)| {
        let addr = vpn * PAGE;
        let Some(have) = s.perm_at(addr) else {
            return Some(MemError::Unmapped { addr });
        };
        [Perm::R, Perm::W]
            .into_iter()
            .find(|&need| want.allows(need) && !have.allows(need))
            .map(|need| MemError::PermDenied { addr, need })
    })
}

/// What the window allows an access to the word at `addr` that needs
/// `need`: both pages it touches must be in the window with `need`.
fn expected_access(pages: &[(u64, Perm)], addr: u64, need: Perm) -> Result<(), MemError> {
    for vpn in [addr / PAGE, (addr + 7) / PAGE] {
        let page = vpn * PAGE;
        match pages.iter().find(|(v, _)| *v == vpn) {
            None => return Err(MemError::Unmapped { addr: page }),
            Some(&(_, perm)) if !perm.allows(need) => {
                return Err(MemError::PermDenied { addr: page, need });
            }
            Some(_) => {}
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A window's loads and stores are the per-word slow path's, its
    /// refusal is `write`'s, and the space it un-shares from never
    /// sees a byte of it.
    #[test]
    fn a_window_is_the_word_path_and_isolates_its_sharers(
        fill in fill(),
        share in share(),
        spans in spans(),
        ops in ops(),
    ) {
        let (mut s, other) = build(&fill, share);
        let (mut reference, _) = build(&fill, share);
        let other_digest = other.as_ref().map(|o| o.content_digest());
        let pages = window_pages(&spans);
        let (digest, dirty) = (s.content_digest(), s.dirty_vpns());

        if let Some(refusal) = expected_refusal(&s, &pages) {
            let generation = s.generation();
            prop_assert_eq!(s.window(&spans).unwrap_err(), refusal);
            prop_assert_eq!(s.content_digest(), digest);
            prop_assert_eq!(s.dirty_vpns(), dirty);
            prop_assert_eq!(s.generation(), generation);
            if let (Share::Snapshot | Share::Clone, Some(o)) = (share, &other) {
                for &(vpn, _) in &pages {
                    prop_assert!(s.shares_leaf_with(o, vpn), "page {vpn:#x} un-shared");
                }
            }
            return Ok(());
        }

        // The loop stores to every page it asks to write: a store at
        // each `W` page first, then the random accesses.
        let first_stores = pages
            .iter()
            .filter(|(_, perm)| perm.allows(Perm::W))
            .map(|&(vpn, _)| Op::Store(vpn * PAGE + 16, vpn as f64));
        let ops: Vec<Op> = first_stores.chain(ops).collect();
        let mut w = s.window(&spans).unwrap();
        for &op in &ops {
            match op {
                Op::Load(a) => {
                    let want = expected_access(&pages, a, Perm::R).map(|()| reference.read_f64(a).unwrap());
                    prop_assert_eq!(w.read_f64(a).map(f64::to_bits), want.map(f64::to_bits), "load at {:#x}", a);
                }
                Op::Store(a, v) => {
                    let want = expected_access(&pages, a, Perm::W);
                    prop_assert_eq!(w.write_f64(a, v), want, "store at {:#x}", a);
                    if want.is_ok() {
                        reference.write_f64(a, v).unwrap();
                    }
                }
            }
        }
        drop(w);
        prop_assert_eq!(s.content_digest(), reference.content_digest());
        prop_assert_eq!(s.dirty_vpns(), reference.dirty_vpns());
        if let Some(o) = &other {
            prop_assert_eq!(Some(o.content_digest()), other_digest, "a sharer saw a store");
        }
        if let (Share::Snapshot | Share::Clone, Some(o)) = (share, &other) {
            for &(vpn, perm) in &pages {
                // A page only read keeps its frame shared and clean.
                prop_assert_eq!(s.same_frame(o, vpn), !perm.allows(Perm::W), "page {:#x}", vpn);
            }
        }
    }
}

#[test]
fn an_access_outside_the_window_or_a_store_into_a_read_span_is_refused() {
    // The snapshot clears the dirty set the mapping left.
    let (mut s, _) = build(&[], Share::Snapshot);
    let a = REGION.start;
    let mut w = s
        .window(&[
            (Region::sized(a, 8), Perm::R),
            (Region::sized(a + PAGE, 8), Perm::W),
        ])
        .unwrap();
    assert_eq!(
        w.write_f64(a, 1.0),
        Err(MemError::PermDenied {
            addr: a,
            need: Perm::W
        })
    );
    assert_eq!(
        w.read_f64(a + PAGE),
        Err(MemError::PermDenied {
            addr: a + PAGE,
            need: Perm::R
        })
    );
    assert_eq!(
        w.read_f64(a + 3 * PAGE),
        Err(MemError::Unmapped { addr: a + 3 * PAGE })
    );
    // A word straddling out of the window is refused whole.
    assert_eq!(
        w.write_f64(a + 2 * PAGE - 4, 1.0),
        Err(MemError::Unmapped { addr: a + 2 * PAGE })
    );
    assert_eq!(w.write_f64(a + PAGE, 2.5), Ok(()));
    drop(w);
    assert_eq!(s.read_f64(a + 2 * PAGE - 4).unwrap(), 0.0);
    assert_eq!(s.read_f64(a + PAGE).unwrap(), 2.5);
    assert_eq!(s.dirty_vpns(), vec![FIRST + 1]);
}
