//! The 200-case differential soundness suite.
//!
//! Random structured VM programs (bounded loops, masked and wild
//! pointer arithmetic, syscalls, forward skips, byte and word stores)
//! are run concretely under `Cpu::run_observed`, and every case asserts
//! the two load-bearing properties of the analysis:
//!
//! 1. **Footprint soundness** — observed written pages ⊆ predicted
//!    write footprint, observed touched pages ⊆ predicted reads ∪
//!    writes. No false negatives, ever.
//! 2. **Disjointness soundness** — when a sibling pair's write
//!    footprints share no page, forking both from one parent, running
//!    them, and merging them back must produce **zero merge conflicts
//!    under both [`ConflictPolicy`] variants**.
//!
//! A third property takes raw bytes instead of assembled source: the
//! analysis of any image terminates, and a bounded run of the same
//! bytes stays inside what it predicts.

use det_analyze::footprint::{AnalyzeConfig, Segment, analyze};
use det_analyze::gate::check_program;
use det_memory::{AddressSpace, ConflictPolicy, Perm, Region};
use det_vm::{Cpu, Opcode, PageLog, VmExit, assemble};
use proptest::prelude::*;

const BUDGET: u64 = 200_000;
/// Data windows a generated program may claim (one page each).
const DATA_BASES: [u64; 3] = [0x8000, 0x9000, 0xa000];
/// The page-aligned merge region covering every data window.
const MERGE_REGION: Region = Region {
    start: 0x8000,
    end: 0xb000,
};

/// Splitmix-style deterministic generator stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Emits a random but *structured* program: a bounded counter loop
/// whose body mixes ALU ops, stores/loads through a data pointer
/// (usually masked back into the program's window, occasionally left
/// wild so the analysis must degrade to unbounded), syscalls, and
/// forward skips. Always terminates concretely: the loop counter is
/// finite and every branch inside the body only jumps forward.
fn gen_program(seed: u64, data_base: u64) -> String {
    let mut rng = Rng(seed);
    let mut lines: Vec<String> = Vec::new();
    lines.push(format!("li r8, {data_base:#x}"));
    lines.push(format!("ldi r7, {}", 1 + rng.below(16)));
    lines.push("loop:".to_string());
    let body = 2 + rng.below(10);
    let mut skips = 0u32;
    for _ in 0..body {
        let r = |rng: &mut Rng| 1 + rng.below(6); // r1..r6 scratch
        match rng.below(12) {
            0 | 1 => {
                let (d, imm) = (r(&mut rng), rng.below(4096) as i64 - 2048);
                lines.push(format!("ldi r{d}, {imm}"));
            }
            2 => {
                let (d, s, imm) = (r(&mut rng), r(&mut rng), rng.below(256) as i64 - 128);
                lines.push(format!("addi r{d}, r{s}, {imm}"));
            }
            3 | 4 => {
                let op = ["add", "sub", "mul", "and", "or", "xor"][rng.below(6) as usize];
                let (d, s, t) = (r(&mut rng), r(&mut rng), r(&mut rng));
                lines.push(format!("{op} r{d}, r{s}, r{t}"));
            }
            5 => {
                let op = ["shli", "shri", "sari"][rng.below(3) as usize];
                let (d, s, k) = (r(&mut rng), r(&mut rng), rng.below(64));
                lines.push(format!("{op} r{d}, r{s}, {k}"));
            }
            6 | 7 => {
                let (s, disp) = (r(&mut rng), 8 * rng.below(64));
                lines.push(format!("std r{s}, [r8+{disp}]"));
            }
            8 => {
                let (s, disp) = (r(&mut rng), rng.below(512));
                lines.push(format!("stb r{s}, [r8+{disp}]"));
            }
            9 => {
                let (d, disp) = (r(&mut rng), 8 * rng.below(64));
                lines.push(format!("ldd r{d}, [r8+{disp}]"));
            }
            10 => {
                // Re-derive the data pointer from scratch state,
                // masked back into this program's window — the
                // analyzable pointer idiom.
                let s = r(&mut rng);
                lines.push(format!("andi r9, r{s}, 504"));
                lines.push(format!("li r8, {data_base:#x}"));
                lines.push("add r8, r8, r9".to_string());
            }
            _ => {
                if rng.below(4) == 0 {
                    // Wild pointer: the analysis must go unbounded,
                    // and a concrete trap (unmapped store) is fine —
                    // accesses before the trap are still checked.
                    let s = r(&mut rng);
                    lines.push(format!("add r8, r8, r{s}"));
                } else {
                    lines.push(format!("sys {}", rng.below(8)));
                    // Mirror the corpus idiom: pointers are
                    // re-established after every syscall because the
                    // kernel may rewrite registers.
                    lines.push(format!("li r8, {data_base:#x}"));
                }
            }
        }
        if rng.below(5) == 0 {
            let (a, b) = (r(&mut rng), r(&mut rng));
            let (d, imm) = (r(&mut rng), rng.below(100) as i64);
            lines.push(format!("beq r{a}, r{b}, skip{skips}"));
            lines.push(format!("ldi r{d}, {imm}"));
            lines.push(format!("skip{skips}:"));
            skips += 1;
        }
    }
    lines.push("addi r7, r7, -1".to_string());
    lines.push("bne r7, r0, loop".to_string());
    lines.push("halt".to_string());
    lines.join("\n")
}

/// Runs a child space from `entry`, resuming across `sys`, until halt,
/// trap, or budget, and returns the pages it touched.
fn run_child(mem: &mut AddressSpace, entry: u64) -> PageLog {
    let mut cpu = Cpu::new();
    cpu.regs.pc = entry;
    let mut log = PageLog::new();
    let mut left = BUDGET;
    loop {
        let before = cpu.insn_count;
        let exit = cpu.run_observed(mem, Some(left), &mut log);
        left = left.saturating_sub(cpu.insn_count - before);
        match exit {
            VmExit::Sys(_) if left > 0 => continue,
            _ => return log,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Property 1+2 for a random sibling pair: per-program footprint
    /// soundness, then disjoint write footprints checked against the
    /// real merge under both policies.
    #[test]
    fn random_programs_stay_inside_predicted_footprints(seed in any::<u64>()) {
        let mut rng = Rng(seed ^ 0xdead_beef);
        let base_a = DATA_BASES[rng.below(3) as usize];
        let base_b = DATA_BASES[rng.below(3) as usize];
        let src_a = gen_program(seed, base_a);
        let src_b = gen_program(seed.wrapping_mul(31).wrapping_add(7), base_b);
        let cfg = AnalyzeConfig::default();

        // Property 1: each program alone, observed ⊆ predicted.
        for (name, src) in [("A", &src_a), ("B", &src_b)] {
            let g = check_program(src, BUDGET);
            prop_assert!(
                g.sound,
                "{name} (seed {seed:#x}): wrote {:?} read {:?}, predicted {} / {}\n{src}",
                g.observed_written, g.observed_read,
                g.analysis.footprint.writes, g.analysis.footprint.reads,
            );
        }

        // Siblings as the kernel would lay them out: A at 0, B at
        // 0x4000 (the ISA's control flow is pc-relative, so images
        // relocate freely).
        let img_a = assemble(&src_a).unwrap();
        let img_b = assemble(&src_b).unwrap();
        let an_a = analyze(&[Segment { base: 0, bytes: &img_a.bytes }], 0, &cfg);
        let an_b = analyze(&[Segment { base: 0x4000, bytes: &img_b.bytes }], 0x4000, &cfg);
        let disjoint = !an_a.footprint.writes.intersects(&an_b.footprint.writes);

        let mut parent = AddressSpace::new();
        parent.map_zero(Region::new(0, 0x10000), Perm::RW).unwrap();
        parent.write(0, &img_a.bytes).unwrap();
        parent.write(0x4000, &img_b.bytes).unwrap();

        // Property 2: under every policy, fork both children from the
        // same snapshot, run, merge back; disjoint pairs must merge
        // clean.
        for policy in [ConflictPolicy::Strict, ConflictPolicy::ChildWins] {
            let mut p = parent.clone();
            let fork = |p: &AddressSpace| {
                let mut c = AddressSpace::new();
                c.copy_from(p, Region::new(0, 0x10000), 0).unwrap();
                c
            };
            let mut child_a = fork(&p);
            let mut child_b = fork(&p);
            let snap = p.snapshot();

            // Belt-and-braces: the in-situ sibling run also stays
            // inside its predicted footprint.
            for vpn in run_child(&mut child_a, 0).pages_written() {
                prop_assert!(
                    an_a.footprint.writes.contains(vpn),
                    "sibling A (seed {seed:#x}) wrote page {vpn:#x} outside {}",
                    an_a.footprint.writes
                );
            }
            run_child(&mut child_b, 0x4000);

            let (_, c1) = p
                .try_merge_from(&child_a, &snap, MERGE_REGION, policy)
                .unwrap();
            let (_, c2) = p
                .try_merge_from(&child_b, &snap, MERGE_REGION, policy)
                .unwrap();
            if disjoint {
                prop_assert!(
                    c1.is_none() && c2.is_none(),
                    "disjoint write footprints but {policy:?} merge conflicted (seed {seed:#x}):\nA data {base_a:#x}:\n{src_a}\nB data {base_b:#x}:\n{src_b}"
                );
            }
        }
    }
}

/// The gate's observations of 64 generated programs, recorded at
/// e995264 — the last commit whose gate observed through an access
/// tracker installed on the address space — one line per program:
/// `seed data-base exit insns pages-read pages-written`. Seeds 0–49,
/// then every seed below 20 000 whose program traps (a wild store or
/// load), so faulting accesses are covered. The data base is picked as
/// the proptest picks program A's.
const GATE_GOLDEN: &str = include_str!("golden/gate_e995264.txt");

/// The golden programs: `(seed, data base, source)` for each seed of
/// [`GATE_GOLDEN`].
fn golden_programs() -> impl Iterator<Item = (u64, u64, String)> {
    GATE_GOLDEN.lines().map(|line| {
        let seed: u64 = line.split(' ').next().unwrap().parse().unwrap();
        let base = DATA_BASES[Rng(seed ^ 0xdead_beef).below(3) as usize];
        (seed, base, gen_program(seed, base))
    })
}

#[test]
fn observations_are_the_access_trackers() {
    let observed: String = golden_programs()
        .map(|(seed, base, src)| {
            let g = check_program(&src, BUDGET);
            format!(
                "{seed} {base:#x} {} {} {:?} {:?}\n",
                g.exit, g.insns, g.observed_read, g.observed_written
            )
        })
        .collect();
    assert_eq!(GATE_GOLDEN.lines().count(), 64);
    assert_eq!(observed, GATE_GOLDEN);
}

/// What the analysis *predicts* for the same 64 programs, recorded at
/// 2e1b868 — the last commit with the must-write walk and the sibling
/// verdicts beside the footprint query — one line per program:
/// `seed data-base steps reads writes` (the `PageSet` display form).
const FOOTPRINT_GOLDEN: &str = include_str!("golden/footprints_2e1b868.txt");

#[test]
fn predictions_are_what_they_were_at_2e1b868() {
    let predicted: String = golden_programs()
        .map(|(seed, base, src)| {
            let fp = check_program(&src, BUDGET).analysis.footprint;
            format!("{seed} {base:#x} {} {} {}\n", fp.steps, fp.reads, fp.writes)
        })
        .collect();
    if predicted != FOOTPRINT_GOLDEN {
        eprint!("predicted footprints:\n{predicted}");
    }
    assert_eq!(predicted.lines().count(), 64);
    assert_eq!(predicted, FOOTPRINT_GOLDEN);
}

/// A VM image of raw bytes. `ops` overwrites the opcode byte of seven
/// words in eight with a defined opcode, so the interpreter and the
/// analyzer get past the first fetch more often than noise alone
/// would let them.
fn hostile_image(mut bytes: Vec<u8>, ops: &[(u8, usize)]) -> Vec<u8> {
    for (word, &(keep, op)) in bytes.chunks_exact_mut(4).zip(ops) {
        if keep != 0 {
            word[3] = Opcode::ALL[op % Opcode::ALL.len()] as u8;
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The analysis of arbitrary image bytes — not assembled source —
    /// terminates with a footprint, and a bounded concrete run of the
    /// same bytes stays inside it.
    #[test]
    fn arbitrary_image_bytes_analyze_soundly(
        bytes in proptest::collection::vec(any::<u8>(), 1..513),
        ops in proptest::collection::vec((0u8..8, any::<usize>()), 128),
    ) {
        let image = hostile_image(bytes, &ops);
        let fp = analyze(&[Segment { base: 0, bytes: &image }], 0, &AnalyzeConfig::default())
            .footprint;

        let mut mem = AddressSpace::new();
        mem.map_zero(Region::new(0, 0x10000), Perm::RW).unwrap();
        mem.write(0, &image).unwrap();
        let mut log = PageLog::new();
        let mut cpu = Cpu::new();
        // Like the gate: resume across `sys` exits with the registers
        // untouched.
        while cpu.insn_count < 20_000 {
            match cpu.run_observed(&mut mem, Some(20_000 - cpu.insn_count), &mut log) {
                VmExit::Sys(_) => continue,
                _ => break,
            }
        }
        for p in log.pages_written() {
            prop_assert!(fp.writes.contains(p), "wrote page {p:#x} outside {}", fp.writes);
        }
        for p in log.pages_read() {
            prop_assert!(
                fp.reads.contains(p) || fp.writes.contains(p),
                "read page {p:#x} outside {} / {}",
                fp.reads,
                fp.writes
            );
        }
    }
}
