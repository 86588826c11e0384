//! The merge's handling of pages both sides wrote, on a fixed set of
//! page patterns, held to what it did at ca4eece — before the diff,
//! the conflict check and the apply were one pass.
//!
//! The patterns are the ones the workloads and the corner cases make:
//! lu_noncont's interleaved 1 KiB rows joined thread by thread (the
//! first join adopts, every later one diffs against a parent frame it
//! shares with the first thread), fft's stripes that end inside a
//! butterfly group, one changed byte at each of the eight lane offsets
//! of a word, one byte changed on both sides at each offset, both
//! sides writing the same value, a parent frame private or shared with
//! a third space, and a read-only parent page, alone and behind an
//! earlier page the merge would write.
//!
//! Each case runs under both policies, and its line records the
//! merge's whole result (every `MergeStats` field and the conflict
//! detail, or the error), the parent's generation and dirty pages,
//! and per page of the region the FNV-1a-64 of its bytes and whether
//! the parent now holds the child's frame (`c`) or not (`-`). A
//! counter that stops a byte late, a word the parent changed taken
//! whole from the child, or a frame installed before a later page
//! fails moves a line here even when the oracle's bytes still match.

use det_memory::{AddressSpace, ConflictPolicy, ContentDigest, PAGE_SIZE, Perm, Region};

const GOLDEN: &str = include_str!("golden/merge_pages_ca4eece.txt");

const PAGE: u64 = PAGE_SIZE as u64;
/// The merged region: four pages from vpn 1.
const R: Region = Region {
    start: PAGE,
    end: 5 * PAGE,
};
const POLICIES: [ConflictPolicy; 2] = [ConflictPolicy::Strict, ConflictPolicy::ChildWins];

fn fnv(bytes: &[u8]) -> u64 {
    let mut d = ContentDigest::new();
    d.update(bytes);
    d.value()
}

/// A parent whose every page holds distinct bytes (no byte equals its
/// neighbour or its complement), its marks cleared.
fn parent() -> AddressSpace {
    let mut p = AddressSpace::new();
    p.map_zero(R, Perm::RW).unwrap();
    for k in 0..R.page_count() {
        let page: Vec<u8> = (0..PAGE).map(|i| ((i * 31 + k * 17) % 251) as u8).collect();
        p.write(R.start + k * PAGE, &page).unwrap();
    }
    p.clear_dirty();
    p
}

/// A child forked from `p` over the region, and its snapshot.
fn fork(p: &AddressSpace) -> (AddressSpace, AddressSpace) {
    let mut c = AddressSpace::new();
    c.copy_from(p, R, R.start).unwrap();
    let s = c.snapshot();
    (c, s)
}

/// Rewrites `addr..addr + len` with its own bytes: nothing changes but
/// the frame, which becomes private to `s`.
fn touch(s: &mut AddressSpace, addr: u64, len: usize) {
    let bytes = s.read_vec(addr, len).unwrap();
    s.write(addr, &bytes).unwrap();
}

/// Writes `len` bytes at `addr`, each the old byte plus `add`.
fn bump(s: &mut AddressSpace, addr: u64, len: usize, add: u8) {
    let bytes: Vec<u8> = s
        .read_vec(addr, len)
        .unwrap()
        .iter()
        .map(|b| b.wrapping_add(add))
        .collect();
    s.write(addr, &bytes).unwrap();
}

/// Merges `child` into `parent` and records the line.
fn merge(
    log: &mut String,
    name: &str,
    parent: &mut AddressSpace,
    child: &AddressSpace,
    snap: &AddressSpace,
    policy: ConflictPolicy,
) {
    let result = parent.try_merge_from(child, snap, R, policy);
    let pages: Vec<String> = (R.start / PAGE..R.end / PAGE)
        .map(|vpn| {
            let bytes = parent.read_vec(vpn * PAGE, PAGE_SIZE).unwrap();
            let shares = if parent.same_frame(child, vpn) {
                'c'
            } else {
                '-'
            };
            format!("{vpn}:{:016x}:{shares}", fnv(&bytes))
        })
        .collect();
    log.push_str(&format!(
        "{name} {policy:?} -> {result:?} gen={} dirty={:?} pages=[{}]\n",
        parent.generation(),
        parent.dirty_vpns(),
        pages.join(","),
    ));
}

/// lu_noncont at n = 128: a page holds four 1 KiB rows, thread `t`
/// owns row `t` of every page, and the master joins the threads in
/// order. Every thread rewrites its rows but every seventh word, so
/// the first join adopts and each later one diffs.
fn lu_noncont(log: &mut String, policy: ConflictPolicy) {
    let mut p = parent();
    let children: Vec<(AddressSpace, AddressSpace)> = (0..4u64)
        .map(|t| {
            let (mut c, s) = fork(&p);
            for vpn in R.start / PAGE..R.end / PAGE {
                let row = vpn * PAGE + t * 1024;
                for w in (0..128u64).filter(|w| w % 7 != 3) {
                    let x = c.read_u64(row + 8 * w).unwrap();
                    c.write_u64(row + 8 * w, x.rotate_left(13) ^ (t + 1))
                        .unwrap();
                }
            }
            (c, s)
        })
        .collect();
    for (t, (c, s)) in children.iter().enumerate() {
        merge(log, &format!("lu_noncont t{t}"), &mut p, c, s, policy);
    }
}

/// One fft stage with groups of `half` butterflies: two threads split
/// the stage's butterflies at `split`, which falls inside a group, so
/// both write runs of the same page (16-byte samples, `i0` and
/// `i1 = i0 + half` per butterfly).
fn fft_stripes(log: &mut String, policy: ConflictPolicy, half: u64, split: u64) {
    let butterflies = R.len() / 32;
    let mut p = parent();
    let stripe = |lo: u64, hi: u64| {
        let (mut c, s) = fork(&p);
        for b in lo..hi {
            let i0 = b / half * half * 2 + b % half;
            for i in [i0, i0 + half] {
                bump(&mut c, R.start + 16 * i, 16, 0x40 + (b % 5) as u8);
            }
        }
        (c, s)
    };
    let (c0, s0) = stripe(0, split);
    let (c1, s1) = stripe(split, butterflies);
    let name = format!("fft half={half} split={split}");
    merge(log, &format!("{name} t0"), &mut p, &c0, &s0, policy);
    merge(log, &format!("{name} t1"), &mut p, &c1, &s1, policy);
}

/// Page 2's ninth word: the word the lane cases act on.
const W: u64 = 2 * PAGE + 0x40;

fn run(log: &mut String, policy: ConflictPolicy) {
    lu_noncont(log, policy);
    fft_stripes(log, policy, 4, 70);
    fft_stripes(log, policy, 64, 100);
    fft_stripes(log, policy, 256, 300);

    // One child byte at each lane offset; the parent wrote a byte far
    // away in the same page, so the page is diffed.
    for k in 0..8 {
        let mut p = parent();
        let (mut c, s) = fork(&p);
        bump(&mut c, W + k, 1, 0x80);
        bump(&mut p, 2 * PAGE + 0xff8, 1, 1);
        merge(log, &format!("lane {k}"), &mut p, &c, &s, policy);
    }
    // One byte changed on both sides at each offset, behind two child
    // words the scan passes first and ahead of a child change on a
    // later page.
    for k in 0..8 {
        let mut p = parent();
        let (mut c, s) = fork(&p);
        bump(&mut c, 2 * PAGE + 0x8, 8, 3);
        bump(&mut c, 2 * PAGE + 0x21, 2, 3);
        bump(&mut c, W + k, 1, 0x40);
        bump(&mut p, W + k, 1, 0x0a);
        bump(&mut c, 3 * PAGE + 0x100, 4, 9);
        merge(log, &format!("both {k}"), &mut p, &c, &s, policy);
    }
    // Both sides write the same value into one word.
    {
        let mut p = parent();
        let (mut c, s) = fork(&p);
        c.write_u64(2 * PAGE + 0x100, 0x0102_0304_0506_0708)
            .unwrap();
        p.write_u64(2 * PAGE + 0x100, 0x0102_0304_0506_0708)
            .unwrap();
        bump(&mut c, 2 * PAGE + 0x200, 3, 1);
        merge(log, "same value", &mut p, &c, &s, policy);
    }
    // Both sides change one word in different bytes: the child the
    // lanes `lanes` marks, the parent the others.
    for lanes in [0x01u8, 0x0f, 0x7f, 0x55, 0xaa] {
        let mut p = parent();
        let (mut c, s) = fork(&p);
        for k in 0..8 {
            if lanes >> k & 1 == 1 {
                bump(&mut c, W + k, 1, 0x21);
            } else {
                bump(&mut p, W + k, 1, 0x12);
            }
        }
        merge(log, &format!("split {lanes:#04x}"), &mut p, &c, &s, policy);
    }
    // The whole page rewritten by the child, the parent's frame private
    // (its write changed nothing) or shared with a third space.
    for shared in [false, true] {
        let mut p = parent();
        let (mut c, s) = fork(&p);
        bump(&mut c, 2 * PAGE, PAGE_SIZE, 0x55);
        bump(&mut c, 3 * PAGE + 0x7f0, 0x20, 1);
        touch(&mut p, 2 * PAGE, 8);
        bump(&mut p, 3 * PAGE + 0x10, 8, 1);
        let third = shared.then(|| p.clone());
        let name = if shared { "third shares" } else { "private" };
        merge(log, name, &mut p, &c, &s, policy);
        if let Some(third) = third {
            let bytes = third.read_vec(R.start, R.len() as usize).unwrap();
            log.push_str(&format!("{name} {policy:?} third={:016x}\n", fnv(&bytes)));
        }
    }
    // A read-only parent page: a child byte that really differs, the
    // same byte reverted, and an earlier page the merge would write
    // ahead of the read-only one.
    for (name, revert, earlier) in [
        ("read-only", false, false),
        ("read-only reverted", true, false),
        ("read-only behind a write", false, true),
    ] {
        let mut p = parent();
        let (mut c, s) = fork(&p);
        bump(&mut c, 3 * PAGE + 0x44, 1, 7);
        if revert {
            bump(&mut c, 3 * PAGE + 0x44, 1, 0u8.wrapping_sub(7));
        }
        if earlier {
            bump(&mut c, PAGE + 0x300, 16, 2);
            bump(&mut p, PAGE + 0x10, 1, 2);
        }
        p.set_perm(Region::new(3 * PAGE, 4 * PAGE), Perm::R)
            .unwrap();
        merge(log, name, &mut p, &c, &s, policy);
    }
    // A conflict on a later page than one the merge would write.
    {
        let mut p = parent();
        let (mut c, s) = fork(&p);
        bump(&mut c, PAGE + 0x300, 16, 2);
        bump(&mut p, PAGE + 0x10, 1, 2);
        bump(&mut c, 4 * PAGE + 0x123, 1, 5);
        bump(&mut p, 4 * PAGE + 0x123, 1, 6);
        merge(log, "conflict behind a write", &mut p, &c, &s, policy);
    }
}

#[test]
fn both_wrote_pages_merge_as_they_did_at_ca4eece() {
    let mut observed = String::new();
    for policy in POLICIES {
        run(&mut observed, policy);
    }
    if observed != GOLDEN {
        eprint!("observed merges:\n{observed}");
    }
    assert_eq!(observed, GOLDEN);
}
