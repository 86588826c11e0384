//! Where a run stops and what it counted, held to what the
//! per-instruction pinned loop did at e72d73f — the last interpreter
//! that probed the icache tag and the budget on every instruction.
//!
//! The counters are charged in virtual time, so a fast path that
//! executes a run of icache hits as one unit (a predecoded block) must
//! stop at exactly the instruction the per-instruction loop stopped at
//! and count exactly what it counted, whatever cuts the run short: the
//! budget, a taken branch, an access the pins cannot serve, a trap, a
//! `halt` or `sys`, a store that flushes the icache, a write from
//! outside, or a conflict eviction. Each row is the final exit, `pc`,
//! retired count and every [`CpuCacheStats`] field; the golden file
//! holds them in `golden/block_edges_e72d73f.txt`:
//!
//! * `cold`: a fresh CPU run to each budget 1..=40 in quanta of `q`,
//!   the 40 rows folded into one FNV-1a-64 beside the last row;
//! * `warm`: one CPU run 2 000 instructions, then 40 more windows of
//!   1, 2, …, 40 instructions in quanta of `q`, one row per window,
//!   folded likewise;
//! * `full`: the program's whole budget in quanta of `q`.
//!
//! Programs are every corpus program plus `cases()`, one shape per
//! way a block can end early. A mismatch prints the observed file.
//! `fused_cases()` are the adjacent pairs a block fuses into one
//! micro-op (`li` chains, `addi` + `bltu`, `add` + `ldd`), held the same
//! way to `golden/block_fused_5dadd36.txt`, recorded by the block loop
//! that ran one member at a time. The proptest at the bottom runs all
//! the shapes, randomly composed, beside [`Cpu::slow_path`].

use det_memory::{AddressSpace, Perm, Region};
use det_vm::{Cpu, CpuCacheStats, Insn, Opcode, VmExit, assemble, corpus, encode};
use proptest::prelude::*;

const GOLDEN: &str = include_str!("golden/block_edges_e72d73f.txt");

const FUSED_GOLDEN: &str = include_str!("golden/block_fused_5dadd36.txt");

const QUANTA: [u64; 7] = [1, 2, 3, 7, 16, 17, 2000];

/// Instructions a `warm` row runs before its 40 windows.
const WARM: u64 = 2_000;

/// Budget of a targeted case's `full` row.
const CASE_BUDGET: u64 = 3_000;

/// Byte-serial FNV-1a-64 (the golden must not depend on the
/// production hash).
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What happens to the space between two quanta.
#[derive(Clone, Copy)]
enum Between {
    Nothing,
    /// `write_u64` of the quantum's index into a data word the program
    /// loads: a generation bump from outside.
    ExternalWrite,
}

/// Runs `cpu` until it has retired `target` instructions in all, or
/// halts or traps, in quanta of `q`, resuming after every preemption
/// and `sys`. Returns the last exit.
fn drive(cpu: &mut Cpu, mem: &mut AddressSpace, target: u64, q: u64, between: Between) -> VmExit {
    let mut exit = VmExit::OutOfBudget;
    let mut k = 0u64;
    while cpu.insn_count < target {
        exit = cpu.run(mem, Some(q.min(target - cpu.insn_count)));
        if matches!(exit, VmExit::Halt | VmExit::Trap(_)) {
            break;
        }
        if let Between::ExternalWrite = between {
            k += 1;
            mem.write_u64(0x8100, k).unwrap();
        }
    }
    exit
}

fn stats(s: &CpuCacheStats) -> [u64; 10] {
    [
        s.icache_hits,
        s.icache_fills,
        s.icache_flushes,
        s.tlb_read_hits,
        s.tlb_read_fills,
        s.tlb_write_hits,
        s.tlb_write_fills,
        s.slow_accesses,
        s.pages_walked,
        s.pin_builds,
    ]
}

fn row(exit: VmExit, cpu: &Cpu) -> String {
    format!(
        "{exit:?} pc={:#x} n={} {:?}",
        cpu.regs.pc,
        cpu.insn_count,
        stats(&cpu.cache_stats)
    )
}

/// 40 rows folded into one line.
fn folded(tag: &str, rows: &[String]) -> String {
    let all = rows.join("\n");
    format!(
        "{tag} fnv={:016x} last={}\n",
        fnv1a64(all.as_bytes()),
        rows.last().expect("40 rows")
    )
}

/// One program's lines of the golden file.
fn observe(name: &str, src: &str, budget: u64, between: Between) -> String {
    let mut out = String::new();
    for q in QUANTA {
        let cold: Vec<String> = (1..=40)
            .map(|b| {
                let (mut cpu, mut mem) = corpus::sandbox(src);
                let exit = drive(&mut cpu, &mut mem, b, q, between);
                row(exit, &cpu)
            })
            .collect();
        out.push_str(&folded(&format!("cold {name} q{q}"), &cold));

        let (mut cpu, mut mem) = corpus::sandbox(src);
        drive(&mut cpu, &mut mem, WARM, 2_000, between);
        let warm: Vec<String> = (1..=40)
            .map(|b| {
                let target = cpu.insn_count + b;
                let exit = drive(&mut cpu, &mut mem, target, q, between);
                row(exit, &cpu)
            })
            .collect();
        out.push_str(&folded(&format!("warm {name} q{q}"), &warm));

        let (mut cpu, mut mem) = corpus::sandbox(src);
        let exit = drive(&mut cpu, &mut mem, budget, q, between);
        out.push_str(&format!("full {name} q{q} {}\n", row(exit, &cpu)));
    }
    out
}

/// A conditional branch in the middle of straight-line code, taken
/// every fourth iteration.
const COND_TAKEN_MID_BLOCK: &str = "
    li   r7, 0x8000
loop:
    addi r1, r1, 1
    ldd  r2, [r7+0]
    add  r2, r2, r1
    andi r3, r1, 3
    beq  r3, r0, skip
    addi r2, r2, 7
    xor  r4, r2, r1
skip:
    std  r2, [r7+0]
    shli r5, r1, 2
    beq  r0, r0, loop
";

/// Static jumps mid-block and as the back edge, so a block runs
/// through the loop more than once and is cut by its length cap.
const STATIC_JUMPS: &str = "
    li   r7, 0x8000
loop:
    addi r1, r1, 1
    jal  r13, over
    addi r1, r1, 100
over:
    std  r1, [r7+0]
    ldd  r2, [r7+0]
    jal  r13, loop
";

/// Two hot pages, and a third page loaded mid-block every iteration
/// (the pins hold two) and again after a not-taken branch every 16th.
const THIRD_PAGE_MID_BLOCK: &str = "
    li   r5, 0x8000
    li   r6, 0x9000
    li   r7, 0x100000
loop:
    ldd  r1, [r5+0]
    ldd  r2, [r5+8]
    ldd  r2, [r6+0]
    ldd  r9, [r6+8]
    add  r1, r1, r2
    addi r4, r4, 1
    andi r8, r4, 15
    bne  r8, r0, skip
    ldd  r3, [r7+0]
    add  r1, r1, r3
skip:
    std  r1, [r5+16]
    std  r4, [r6+16]
    ldd  r3, [r7+8]
    std  r3, [r7+16]
    beq  r0, r0, loop
";

/// A divisor counting down to zero: the run ends in a trap mid-block.
const DIV_BY_ZERO_MID_BLOCK: &str = "
    ldi  r2, 90
    li   r7, 0x8000
loop:
    ldd  r1, [r7+0]
    addi r1, r1, 3
    std  r1, [r7+0]
    addi r2, r2, -1
    div  r3, r1, r2
    add  r4, r4, r3
    beq  r0, r0, loop
";

/// `sys` closes a block mid-loop and `halt` closes the last one.
const HALT_AND_SYS: &str = "
    li   r7, 0x8000
    ldi  r2, 120
loop:
    ldd  r1, [r7+0]
    addi r1, r1, 1
    std  r1, [r7+0]
    sys  3
    addi r2, r2, -1
    ldd  r1, [r7+0]
    std  r1, [r7+8]
    bne  r2, r0, loop
    addi r5, r5, 1
    halt
";

/// Every eighth iteration a store rewrites an instruction of the loop
/// (flushing the icache) with one of two encodings in turn.
fn self_modifying() -> String {
    let one = encode(Insn::new(Opcode::Addi, 9, 9, 0, 1));
    let two = encode(Insn::new(Opcode::Addi, 9, 9, 0, 2));
    let src = |patch: u64| {
        format!(
            "
            li   r7, 0x8000
            li   r4, {one}
            li   r5, {two}
            ldi  r6, {patch}
        loop:
            addi r1, r1, 1
            andi r8, r1, 7
            bne  r8, r0, run
            stw  r4, [r6+0]
            xor  r4, r4, r5
            xor  r5, r4, r5
            xor  r4, r4, r5
        run:
        patch:
            addi r9, r9, 1
            std  r9, [r7+0]
            ldd  r3, [r7+0]
            beq  r0, r0, loop
            "
        )
    };
    let at = assemble(&src(0)).unwrap().labels["patch"];
    src(at)
}

/// A loop at page 0 calling a function 4 KiB above it: the two map
/// onto the same icache slots and evict each other on every call.
fn icache_conflict() -> String {
    let caller = "
        li   r7, 0x8000
    loop:
        addi r1, r1, 1
        ldd  r2, [r7+0]
        jal  r14, func
        std  r2, [r7+8]
        ldd  r3, [r7+8]
        beq  r0, r0, loop
    ";
    let len = assemble(&format!("{caller}\nfunc: halt")).unwrap().labels["func"];
    format!(
        "{caller}
        .zero {}
    func:
        add  r2, r2, r1
        addi r3, r3, 1
        std  r3, [r7+16]
        jalr r13, r14, 0
        ",
        0x1000 - len
    )
}

/// A loop whose block outlives an eviction of two of its members: a
/// function 4 KiB above the loop's third instruction, called every
/// second iteration, takes that instruction's and the next one's
/// icache slots but not the slot of the instruction the pinned level
/// re-enters at.
fn evicted_member() -> String {
    let caller = "
        li   r7, 0x8000
    loop:
        ldd  r1, [r7+0]
        addi r1, r1, 1
        std  r1, [r7+0]
        ldd  r2, [r7+8]
        andi r3, r1, 1
        bne  r3, r0, loop
        jal  r14, func
        beq  r0, r0, loop
    ";
    let image = assemble(&format!("{caller}\nfunc: halt")).unwrap();
    let third = image.labels["loop"] + 8;
    format!(
        "{caller}
        .zero {}
    func:
        addi r4, r4, 1
        addi r5, r5, 1
        jalr r13, r14, 0
        ",
        third + 0x1000 - image.labels["func"]
    )
}

/// `li` chains of 2, 3 and 6 members, and chains broken by an `ldih` to
/// another register: right after the `ldi`, and after a 2-member chain.
/// Bit 12 of each other register (its bit 0 before that `ldih`) decides
/// a branch, so a chain that ran on into it, or swallowed it, would
/// move the exits.
const LI_CHAINS: &str = "
    li   r7, 0x8000
loop:
    addi r9, r9, 1
    li   r1, 0x123456
    li   r2, 0x12345678
    li   r3, 0x123456789abcdef0
    add  r1, r1, r9
    std  r1, [r7+0]
    std  r2, [r7+8]
    std  r3, [r7+16]
    ldi  r4, 5
    ldih r5, 0x321
    ldih r4, 0x7ff
    std  r4, [r7+24]
    std  r5, [r7+32]
    li   r6, 0x123456
    ldih r8, 0x5
    shri r10, r8, 12
    andi r10, r10, 1
    beq  r10, r0, even
    addi r11, r11, 1
even:
    shri r10, r5, 12
    andi r10, r10, 1
    bne  r10, r0, loop
    addi r12, r12, 1
    beq  r0, r0, loop
";

/// A 6-member `li` chain starting at a loop block's 14th member, so the
/// 16-member cap falls inside it.
const LI_CHAIN_PAST_THE_CAP: &str = "
    li   r7, 0x8000
loop:
    addi r1, r1, 1
    xor  r2, r2, r1
    addi r4, r4, 3
    and  r5, r2, r4
    addi r6, r6, 5
    or   r5, r5, r6
    addi r8, r8, 7
    sub  r9, r8, r5
    addi r10, r10, 9
    xor  r9, r9, r10
    addi r11, r11, 11
    add  r9, r9, r11
    addi r12, r12, 13
    li   r3, 0x123456789abcdef0
    add  r3, r3, r1
    std  r3, [r7+0]
    std  r9, [r7+8]
    beq  r0, r0, loop
";

/// `addi` + `bltu` pairs: the inner back edge reads the `addi`'s
/// destination and is taken 31 times in 32; a forward branch reads
/// neither of its `addi`'s operands and is taken 3 times in 4; a third
/// reads the `addi`'s destination as its second operand.
const ADDI_BLTU: &str = "
    li   r12, 0x8100
    ldi  r13, 3
outer:
    li   r5, 0x8000
inner:
    ldd  r1, [r5+0]
    addi r1, r1, 1
    std  r1, [r5+0]
    addi r8, r8, 1
    andi r9, r8, 3
    addi r10, r10, 5
    bltu r9, r13, over
    addi r11, r11, 1
over:
    addi r14, r9, 1
    bltu r13, r14, far
    xor  r2, r2, r14
far:
    addi r5, r5, 8
    bltu r5, r12, inner
    beq  r0, r0, outer
";

/// `add` + `ldd` pairs: a load whose base is the `add`'s destination,
/// one whose base is not, and, every fourth iteration, one on a third
/// page (the pins hold two) right after its `add`.
const ADD_LDD: &str = "
    li   r5, 0x8000
    li   r11, 0x1000
    li   r12, 0x100000
loop:
    add  r6, r5, r11
    ldd  r2, [r6+0]
    add  r3, r2, r1
    ldd  r4, [r5+8]
    std  r3, [r5+0]
    addi r1, r1, 1
    andi r8, r1, 3
    bne  r8, r0, skip
    add  r9, r12, r8
    ldd  r10, [r9+0]
    add  r4, r4, r10
skip:
    std  r4, [r6+8]
    beq  r0, r0, loop
";

/// The fused-pair shapes, recorded by the per-member block loop.
fn fused_cases() -> Vec<(&'static str, &'static str)> {
    vec![
        ("li_chains", LI_CHAINS),
        ("li_chain_past_the_cap", LI_CHAIN_PAST_THE_CAP),
        ("addi_bltu", ADDI_BLTU),
        ("add_ldd", ADD_LDD),
    ]
}

/// The targeted shapes: `(name, source, what happens between quanta)`.
fn cases() -> Vec<(&'static str, String, Between)> {
    vec![
        (
            "cond_taken_mid_block",
            COND_TAKEN_MID_BLOCK.into(),
            Between::Nothing,
        ),
        ("static_jumps", STATIC_JUMPS.into(), Between::Nothing),
        (
            "third_page_mid_block",
            THIRD_PAGE_MID_BLOCK.into(),
            Between::Nothing,
        ),
        (
            "div_by_zero_mid_block",
            DIV_BY_ZERO_MID_BLOCK.into(),
            Between::Nothing,
        ),
        ("halt_and_sys", HALT_AND_SYS.into(), Between::Nothing),
        ("self_modifying", self_modifying(), Between::Nothing),
        (
            "external_write",
            COND_TAKEN_MID_BLOCK.into(),
            Between::ExternalWrite,
        ),
        ("icache_conflict", icache_conflict(), Between::Nothing),
        ("evicted_member", evicted_member(), Between::Nothing),
    ]
}

#[test]
fn block_edges_count_as_the_per_instruction_loop_did() {
    let mut observed = String::new();
    for p in corpus::PROGRAMS {
        observed.push_str(&observe(p.name, p.src, p.budget, Between::Nothing));
    }
    for (name, src, between) in cases() {
        observed.push_str(&observe(name, &src, CASE_BUDGET, between));
    }
    if observed != GOLDEN {
        eprint!("observed block edges:\n{observed}");
    }
    assert_eq!(observed.lines().count(), (9 + 9) * QUANTA.len() * 3);
    assert_eq!(observed, GOLDEN);
}

/// The fused-pair shapes count and stop exactly as the block loop of
/// 5dadd36 did, before blocks were translated into micro-ops; held to
/// `golden/block_fused_5dadd36.txt`.
#[test]
fn fused_pairs_count_as_the_block_loop_did() {
    let mut observed = String::new();
    for (name, src) in fused_cases() {
        observed.push_str(&observe(name, src, CASE_BUDGET, Between::Nothing));
    }
    if observed != FUSED_GOLDEN {
        eprint!("observed fused-pair edges:\n{observed}");
    }
    assert_eq!(observed.lines().count(), 4 * QUANTA.len() * 3);
    assert_eq!(observed, FUSED_GOLDEN);
}

/// The targeted shapes really do what their names say on the fast path.
#[test]
fn the_cases_reach_their_edges() {
    let full = |src: &str, between| {
        let (mut cpu, mut mem) = corpus::sandbox(src);
        let exit = drive(&mut cpu, &mut mem, CASE_BUDGET, 2_000, between);
        (exit, cpu.cache_stats)
    };
    let (exit, _) = full(DIV_BY_ZERO_MID_BLOCK, Between::Nothing);
    assert_eq!(exit, VmExit::Trap(det_vm::VmTrap::DivideByZero));
    assert_eq!(full(HALT_AND_SYS, Between::Nothing).0, VmExit::Halt);
    let (_, s) = full(&self_modifying(), Between::Nothing);
    assert!(s.icache_flushes > 20, "{s:?}");
    let (_, s) = full(&icache_conflict(), Between::Nothing);
    assert!(s.icache_fills > 1_000, "{s:?}");
    let (_, s) = full(THIRD_PAGE_MID_BLOCK, Between::Nothing);
    assert!(s.pin_builds > 100, "{s:?}");
}

// ---------------------------------------------------------------------
// The same shapes, randomly composed, beside the slow path.
// ---------------------------------------------------------------------

/// One piece of a generated loop body. Every piece is a few
/// instructions; together they cover the ways a block ends and the
/// pairs a block fuses.
fn piece((k, a, b): (u8, u8, u8)) -> String {
    let (a, b) = (a % 8, b % 8);
    match k % 14 {
        0 => format!("add r{a}, r{a}, r{b}\naddi r{b}, r{b}, {}", a as i32 - 3),
        1 => format!("ldd r{a}, [r10+{}]\nstd r{b}, [r10+{}]", a * 8, b * 8),
        2 => format!("ldd r{a}, [r11+{}]", b * 8),
        // The third page: never pinned beside the first two.
        3 => format!("ldd r{a}, [r12+{}]\nstd r{a}, [r12+{}]", b * 8, a * 8),
        // Conditional branch over one or two instructions, taken or
        // not depending on the iteration.
        4 => format!(
            "andi r8, r9, {}\nbeq r8, r0, 2\naddi r{a}, r{a}, 1\nxor r{b}, r{b}, r{a}",
            (a % 4) + 1
        ),
        // A static jump over one instruction.
        5 => format!("jal r13, 1\naddi r{a}, r{a}, 99\nori r{b}, r{b}, 5"),
        // Division by a value that reaches zero when r9's low bits do.
        6 => format!(
            "andi r8, r9, {}\ndivu r{a}, r{b}, r8",
            [7, 15, 31, 63][a as usize % 4]
        ),
        7 => "sys 1".into(),
        // A store into the code page, away from the code: flushes.
        8 => format!("std r{a}, [r14+{}]", b * 8),
        // A `li` chain of 1 to 6 members, then an `ldih` to another
        // register right after it.
        10 => format!(
            "li r{a}, {}\nldih r{b}, {}",
            [
                5u64,
                0x7654,
                0x1234_5678,
                0x9_8765_4321,
                0xfedc_ba98_7654,
                u64::MAX / 3
            ][a as usize % 6],
            u16::from(b) * 0x111
        ),
        // `addi` + `bltu` over one instruction, reading the `addi`'s
        // destination or not, taken or not depending on the values.
        11 => format!(
            "addi r{a}, r{a}, {}\nbltu r{}, r{b}, 1\nxor r{b}, r{b}, r{a}",
            b as i32 - 4,
            if b % 2 == 0 { a } else { b ^ 1 }
        ),
        // `add` + `ldd` whose base is the `add`'s destination, on a hot
        // page or on the third.
        12 => format!(
            "andi r{a}, r{b}, 248\nadd r{a}, r{a}, r{}\nldd r{b}, [r{a}+0]",
            if a % 2 == 0 { 11 } else { 12 }
        ),
        // `add` + `ldd` whose base is not the `add`'s destination.
        13 => format!("add r{a}, r{a}, r{b}\nldd r{b}, [r10+{}]", a * 8),
        _ => format!("sub r{a}, r{b}, r{a}\nmul r{b}, r{b}, r{a}"),
    }
}

/// A loop over the generated pieces: `r9` counts iterations, `r10` and
/// `r11` are the hot pages, `r12` the third, `r14` a word of the code
/// page past the code.
fn program(pieces: &[(u8, u8, u8)], iterations: u8) -> String {
    let mut src = String::from(
        "li r10, 0x8000\nli r11, 0x9000\nli r12, 0x100000\nli r14, 0xc00\nloop:\naddi r9, r9, 1\n",
    );
    for &p in pieces {
        src.push_str(&piece(p));
        src.push('\n');
    }
    src.push_str(&format!(
        "slti r8, r9, {iterations}\nbne r8, r0, loop\nhalt\n"
    ));
    src
}

fn load(src: &str) -> AddressSpace {
    let image = assemble(src).expect("generated program assembles");
    let mut mem = corpus::sandbox_space(&image.bytes);
    mem.map_zero_if_unmapped(Region::new(0xa000, 0xb000), Perm::RW)
        .unwrap();
    mem
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Random compositions of the shapes, random quanta, and random
    /// writes from outside between quanta: the fast path stops where
    /// the slow path stops, with the same registers, retired count and
    /// memory.
    #[test]
    fn composed_shapes_match_the_slow_path(
        pieces in proptest::collection::vec((0u8..14, 0u8..8, 0u8..8), 1..24),
        iterations in 1u8..60,
        quanta in proptest::collection::vec(1u64..40, 1..40),
        writes in proptest::collection::vec(0u8..4, 0..40),
    ) {
        let src = program(&pieces, iterations);
        let (mut mem_f, mut mem_s) = (load(&src), load(&src));
        let (mut fast, mut slow) = (Cpu::new(), Cpu::slow_path());
        for i in 0..400 {
            let q = quanta[i % quanta.len()];
            let ef = fast.run(&mut mem_f, Some(q));
            let es = slow.run(&mut mem_s, Some(q));
            prop_assert_eq!(ef, es, "exit at quantum {}", i);
            prop_assert_eq!(fast.regs, slow.regs, "registers at quantum {}", i);
            prop_assert_eq!(fast.insn_count, slow.insn_count);
            if matches!(ef, VmExit::Halt | VmExit::Trap(_)) {
                break;
            }
            let value = i as u64 * 0x9e37;
            match writes.get(i).copied().unwrap_or(0) {
                1 => {
                    mem_f.write_u64(0x8000, value).unwrap();
                    mem_s.write_u64(0x8000, value).unwrap();
                }
                2 => {
                    mem_f.write_u64(0xa000, value).unwrap();
                    mem_s.write_u64(0xa000, value).unwrap();
                }
                3 => {
                    // Rewrite a code word with itself: no byte changes,
                    // but every cached decode goes stale.
                    let w = mem_f.read_u32(8).unwrap();
                    mem_f.write_u32(8, w).unwrap();
                    mem_s.write_u32(8, w).unwrap();
                }
                _ => {}
            }
        }
        prop_assert_eq!(mem_f.content_digest(), mem_s.content_digest());
    }
}
