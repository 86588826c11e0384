//! `AddressSpace`'s range operations on a fixed set of page-table
//! layouts, held to what they did at 9eb72fb — before each range walk
//! was written once.
//!
//! The layouts reach every arm of the leaf-chunk walk: whole leaves, a
//! range alone in a partial leaf, the same range with a stray neighbour
//! page in its leaf, a copy whose offsets are incongruent modulo the
//! leaf, a range with holes, and a range straddling two leaves whose
//! first chunk is too short to share. Each operation's line records its
//! return value (a count, a `CloneStats` or an error), the generation,
//! the dirty write-set (as runs of vpns) and the dirty-leaf count. The
//! digest lines record the FNV-1a-64 of the content digest, of a
//! delta's and of every leaf image's `serde::bin` bytes, and one merge's
//! `MergeStats` per layout. A chunk one page short, a share taken where
//! a neighbour forbids it, or a dirty mark the per-page path would not
//! leave moves a line here even when the bytes still match.

use det_memory::{AddressSpace, ConflictPolicy, ContentDigest, PAGE_SIZE, Perm, Region};

const GOLDEN: &str = include_str!("golden/space_ops_9eb72fb.txt");

const PAGE: u64 = PAGE_SIZE as u64;

/// One layout: the pages a space maps, the holes then unmapped, the
/// vpn range the operations act on and where its copy lands.
struct Layout {
    name: &'static str,
    /// Mapped vpn runs, `[first, end)`.
    maps: &'static [(u64, u64)],
    /// Vpn runs unmapped after mapping, `[first, end)`.
    holes: &'static [(u64, u64)],
    /// The range, `[first, end)` in vpns.
    range: (u64, u64),
    /// The vpn the range's copy starts at.
    dst: u64,
}

const LAYOUTS: &[Layout] = &[
    Layout {
        name: "whole-leaves",
        maps: &[(512, 1536)],
        holes: &[],
        range: (512, 1536),
        dst: 2048,
    },
    Layout {
        name: "lone-partial",
        maps: &[(600, 660)],
        holes: &[],
        range: (600, 660),
        dst: 2648,
    },
    Layout {
        name: "stray-neighbour",
        maps: &[(600, 660), (900, 901)],
        holes: &[],
        range: (600, 660),
        dst: 2648,
    },
    Layout {
        name: "incongruent",
        maps: &[(512, 1536)],
        holes: &[],
        range: (512, 1536),
        dst: 2051,
    },
    Layout {
        name: "holes",
        maps: &[(512, 1024)],
        holes: &[(520, 530), (700, 701)],
        range: (512, 1024),
        dst: 2048,
    },
    Layout {
        name: "straddle",
        maps: &[(1020, 1100)],
        holes: &[],
        range: (1020, 1100),
        dst: 3068,
    },
];

fn vpns(first: u64, end: u64) -> Region {
    Region::new(first * PAGE, end * PAGE)
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut d = ContentDigest::new();
    d.update(bytes);
    d.value()
}

/// Ascending vpns as `first-last` runs.
fn runs(v: &[u64]) -> String {
    let mut out: Vec<String> = Vec::new();
    let mut i = 0;
    while i < v.len() {
        let mut j = i;
        while j + 1 < v.len() && v[j + 1] == v[j] + 1 {
            j += 1;
        }
        out.push(if i == j {
            v[i].to_string()
        } else {
            format!("{}-{}", v[i], v[j])
        });
        i = j + 1;
    }
    format!("[{}]", out.join(","))
}

/// Records one operation's result and the space's state after it.
fn op(log: &mut String, layout: &str, name: &str, result: impl std::fmt::Debug, s: &AddressSpace) {
    log.push_str(&format!(
        "{layout} {name} -> {result:?} gen={} dirty={} dirty_leaves={}\n",
        s.generation(),
        runs(&s.dirty_vpns()),
        s.dirty_leaf_count(),
    ));
}

/// Records the digests of `s`: its content digest, its image against
/// the empty space, and each of its leaf images.
fn digests(log: &mut String, layout: &str, name: &str, s: &AddressSpace) {
    let image = serde::bin::to_vec(&s.delta_since(&AddressSpace::new()));
    let leaves: Vec<String> = s
        .leaf_summary()
        .iter()
        .map(|l| {
            let bytes = serde::bin::to_vec(&s.leaf_image(l.first_vpn));
            format!("{}:{}:{:016x}", l.first_vpn, l.pages, fnv(&bytes))
        })
        .collect();
    log.push_str(&format!(
        "{layout} {name} content={:016x} image={:016x} leaves=[{}]\n",
        fnv(&s.content_digest().value().to_le_bytes()),
        fnv(&image),
        leaves.join(","),
    ));
}

fn run(l: &Layout, log: &mut String) {
    let n = l.name;
    let (first, end) = l.range;
    let range = vpns(first, end);
    let mut s = AddressSpace::new();
    for &(a, b) in l.maps {
        let r = s.map_zero(vpns(a, b), Perm::RW);
        op(log, n, &format!("map_zero {a}..{b}"), r, &s);
    }
    for &(a, b) in l.holes {
        let r = s.unmap(vpns(a, b));
        op(log, n, &format!("unmap {a}..{b}"), r, &s);
    }
    // The whole range (refused where it holds a hole), then two pages
    // from inside its first page, then across every leaf edge in it.
    let r = s.write(range.start, &vec![0x5a; range.len() as usize]);
    op(log, n, "write range", r, &s);
    let r = s.write(range.start + 100, &[0xa5; 2 * PAGE_SIZE]);
    op(log, n, "write head", r, &s);
    for edge in (first + 1..end).filter(|v| v % 512 == 0) {
        let r = s.write(edge * PAGE - 8, &[0x3c; 16]);
        op(log, n, &format!("write edge {edge}"), r, &s);
    }
    digests(log, n, "written", &s);

    // Staging on a clone, so the source keeps the layout's mapping.
    let mut t = s.clone();
    let _snap = t.snapshot();
    op(log, n, "snapshot", (), &t);
    let r = t.map_zero_if_unmapped(vpns(first - 8, end + 8), Perm::RW);
    op(log, n, "map_zero_if_unmapped", r, &t);
    let r = t.map_zero_if_unmapped(vpns(first - 8, end + 8), Perm::RW);
    op(log, n, "map_zero_if_unmapped again", r, &t);
    let r = t.set_perm(range, Perm::R);
    op(log, n, "set_perm R", r, &t);
    let r = t.set_perm(vpns(first - 16, end + 16), Perm::RW);
    op(log, n, "set_perm RW", r, &t);
    let r = t.map_zero(vpns(first + 2, first + 5), Perm::RW);
    op(log, n, "map_zero 3 pages", r, &t);
    digests(log, n, "staged", &t);

    // A destination mapping exactly the copy's range, its marks cleared.
    let at = |v: u64| v - first + l.dst;
    let mut d = AddressSpace::new();
    d.map_zero(vpns(l.dst, at(end)), Perm::RW).unwrap();
    let _ = d.snapshot();
    let base = d.clone();
    let r = d.copy_from(&s, range, l.dst * PAGE);
    op(log, n, "copy_from", r, &d);
    let r = s.unmap(vpns(first, first + (end - first) / 2));
    op(log, n, "unmap first half", r, &s);
    let r = d.copy_from(&s, range, l.dst * PAGE);
    op(log, n, "copy_from again", r, &d);
    let r = d.write(at(end - 1) * PAGE, &[7; 8]);
    op(log, n, "write copy", r, &d);
    let delta = serde::bin::to_vec(&d.delta_since(&base));
    log.push_str(&format!("{n} delta={:016x}\n", fnv(&delta)));
    digests(log, n, "source", &s);
    digests(log, n, "copy", &d);

    // One fork and join of the range: disjoint writes on both sides.
    let mut parent = AddressSpace::new();
    for &(a, b) in l.maps {
        parent.map_zero(vpns(a, b), Perm::RW).unwrap();
    }
    for &(a, b) in l.holes {
        parent.unmap(vpns(a, b)).unwrap();
    }
    let mut child = AddressSpace::new();
    child.copy_from(&parent, range, range.start).unwrap();
    let snap = child.snapshot();
    child.write_u64((end - 1) * PAGE, 1).unwrap();
    child.write_u64(first * PAGE + 8, 2).unwrap();
    parent.write_u64(first * PAGE, 3).unwrap();
    let r = parent.try_merge_from(&child, &snap, range, ConflictPolicy::Strict);
    op(log, n, "try_merge_from", r, &parent);
    digests(log, n, "merged", &parent);
}

#[test]
fn range_operations_are_what_they_were_at_9eb72fb() {
    let mut observed = String::new();
    for l in LAYOUTS {
        run(l, &mut observed);
    }
    if observed != GOLDEN {
        eprint!("observed operations:\n{observed}");
    }
    assert_eq!(observed, GOLDEN);
}
