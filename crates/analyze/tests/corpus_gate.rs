//! Differential soundness + precision gate over the registered VM
//! corpus, plus the footprint's degenerate cases on hand-built
//! programs.
//!
//! This is the test-suite twin of the `analyze` CI binary: every
//! corpus program's observed page accesses must fall inside its
//! predicted footprint (soundness — zero false negatives), and for
//! the loop-structured kernels the prediction must also be *tight*
//! (precision — the abstract domain carries its weight).

use det_analyze::footprint::{AnalyzeConfig, PageSet, Segment, analyze};
use det_analyze::gate::check_program;
use det_vm::assemble;
use det_vm::corpus::PROGRAMS;

fn ranges(fp: &PageSet) -> &[(u64, u64)] {
    match fp {
        PageSet::Ranges(r) => r,
        PageSet::Unbounded => panic!("unexpected unbounded footprint"),
    }
}

#[test]
fn every_corpus_program_is_sound() {
    for p in PROGRAMS {
        let g = check_program(p.src, p.budget);
        assert!(
            g.sound,
            "{}: observed write pages {:?} / read pages {:?} escape predicted {} / {}",
            p.name,
            g.observed_written,
            g.observed_read,
            g.analysis.footprint.writes,
            g.analysis.footprint.reads,
        );
    }
}

/// The loop kernels march pointers over fixed windows; after widening
/// and narrowing the analysis should recover those windows exactly at
/// page granularity, not just soundly.
#[test]
fn corpus_precision_is_page_exact() {
    let expect_writes: &[(&str, &[(u64, u64)])] = &[
        ("alu_loop", &[]),
        ("fib_preempt", &[]),
        ("tlb_stride", &[]),
        ("fft", &[(8, 8)]),
        ("md5", &[(8, 8)]),
        ("matmult", &[(8, 9)]),
        ("qsort", &[(8, 9)]),
        ("qsort_sort", &[(8, 9)]),
        ("counter_stream", &[(2, 2)]),
    ];
    for (name, want) in expect_writes {
        let p = PROGRAMS
            .iter()
            .find(|p| p.name == *name)
            .expect("registered");
        let g = check_program(p.src, p.budget);
        assert_eq!(
            ranges(&g.analysis.footprint.writes),
            *want,
            "{name}: write footprint drifted"
        );
    }
}

#[test]
fn footprints_are_deterministic() {
    let cfg = AnalyzeConfig::default();
    for p in PROGRAMS {
        let image = assemble(p.src).unwrap();
        let segs = [Segment {
            base: 0,
            bytes: &image.bytes,
        }];
        let a = analyze(&segs, 0, &cfg);
        let b = analyze(&segs, 0, &cfg);
        assert_eq!(a, b, "{}: analysis not deterministic", p.name);
    }
}

#[test]
fn unknown_indirect_jump_degrades_to_unbounded() {
    let cfg = AnalyzeConfig::default();
    let src = "li r2, 0x8000\nldd r1, [r2+0]\njalr r1, r1, 0\nhalt\n";
    let image = assemble(src).unwrap();
    let segs = [Segment {
        base: 0,
        bytes: &image.bytes,
    }];
    let a = analyze(&segs, 0, &cfg);
    assert!(a.footprint.writes.is_unbounded());
    assert!(a.footprint.reads.is_unbounded());
    assert!(
        a.footprint.touch_regions().is_none(),
        "no prefetch hint when unbounded"
    );
}

/// A store through `-8` writes the last page of the address space; its
/// touch region must end at the top of memory, not wrap to zero.
#[test]
fn top_page_footprint_converts_to_regions() {
    let cfg = AnalyzeConfig::default();
    let image = assemble("li r2, -8\nli r1, 5\nstd r1, [r2+0]\nhalt\n").unwrap();
    let segs = [Segment {
        base: 0,
        bytes: &image.bytes,
    }];
    let fp = analyze(&segs, 0, &cfg).footprint;
    assert_eq!(
        ranges(&fp.writes),
        &[(0xf_ffff_ffff_ffff, 0xf_ffff_ffff_ffff)]
    );
    let regions = fp.touch_regions().expect("bounded");
    assert_eq!(
        regions.last().map(|r| (r.start, r.end)),
        Some((0xffff_ffff_ffff_f000, u64::MAX))
    );
}

#[test]
fn touch_regions_cover_reads_and_writes() {
    let p = PROGRAMS.iter().find(|p| p.name == "fft").unwrap();
    let g = check_program(p.src, p.budget);
    let regions = g.analysis.footprint.touch_regions().expect("bounded");
    for &vpn in g.observed_read.iter().chain(&g.observed_written) {
        let addr = vpn << 12;
        assert!(
            regions.iter().any(|r| r.start <= addr && addr < r.end),
            "page {vpn:#x} not covered by hint regions {regions:?}"
        );
    }
}

/// The image `det-vm`'s `hostile_input.rs` runs across 2^63 (a `jal`
/// forward over it, a `bne` back over it), and a `nop` in the last
/// four bytes of the address space: the analysis wraps as the
/// interpreter does and never overflows, in any build profile.
#[test]
fn branches_across_two_to_the_63_and_the_top_do_not_panic() {
    use det_vm::{Insn, Opcode::*, encode};
    let top = 1u64 << 63;
    let words = [
        Insn::new(Addi, 1, 1, 0, 1),
        Insn::new(Addi, 2, 2, 0, 1),
        Insn::new(Jal, 13, 0, 0, 1),
        Insn::new(Addi, 3, 3, 0, 1),
        Insn::new(Addi, 4, 4, 0, 1),
        Insn::new(Slti, 5, 4, 0, 5),
        Insn::new(Bne, 0, 5, 0, -4),
        Insn::new(Halt, 0, 0, 0, 0),
    ];
    let bytes: Vec<u8> = words
        .iter()
        .flat_map(|&i| encode(i).to_le_bytes())
        .collect();
    let seg = Segment {
        base: top - 16,
        bytes: &bytes,
    };
    let a = analyze(&[seg], top - 16, &AnalyzeConfig::default());
    assert!(a.footprint.reads.contains((top - 16) >> 12));
    assert!(a.footprint.reads.contains(top >> 12));

    let nop = encode(Insn::new(Nop, 0, 0, 0, 0)).to_le_bytes();
    let seg = Segment {
        base: u64::MAX - 3,
        bytes: &nop,
    };
    analyze(&[seg], u64::MAX - 3, &AnalyzeConfig::default());
}

/// A segment that ends at 2^64 − 1 with fewer than four bytes after its
/// last aligned word: that word is not wholly inside the image, so the
/// pc escapes and the footprint is unbounded, as for any other escape.
#[test]
fn a_partial_word_at_the_top_is_outside_the_image() {
    use det_analyze::{Val, analyze_with_regs};
    let seg = Segment {
        base: u64::MAX - 7,
        bytes: &[0; 7],
    };
    let fp = analyze_with_regs(&[seg], u64::MAX - 7, &[Val::exact(0); 16]).footprint;
    assert!(fp.reads.is_unbounded() && fp.writes.is_unbounded());
}

/// A sub-word load's destination is bounded by its width and no
/// tighter: the top three bits of an all-ones byte, half or word pick
/// the last of eight pages, which the prediction must cover.
#[test]
fn a_loaded_value_is_bounded_by_its_width() {
    for (op, bits) in [("ldb", 8), ("ldh", 16), ("ldw", 32)] {
        let src = format!(
            "beq r0, r0, start\n.word 0\n.quad -1\nstart: {op} r1, [r0+8]\n\
             shri r1, r1, {}\nshli r1, r1, 12\nli r4, 0x8000\nadd r1, r1, r4\n\
             std r0, [r1+0]\nhalt\n",
            bits - 3
        );
        let g = check_program(&src, 100);
        assert_eq!(g.observed_written, [0xf], "{op}");
        assert!(
            g.sound,
            "{op}: predicted writes {}",
            g.analysis.footprint.writes
        );
        assert_eq!(ranges(&g.analysis.footprint.writes), [(8, 15)], "{op}");
    }
}
