//! Assembler source is hostile input (the `kernel/tests/hostile_input.rs`
//! family, one layer down): whatever the text, [`assemble`] returns an
//! [`AsmError`] or a well-formed image — never a panic, and never an
//! answer that depends on the build profile. The programs it
//! assembles are hostile too: a guest chooses its branch targets, and
//! one across 2^63 must wrap on every execution path. Plain `cargo test`
//! runs this in a debug build, where the arithmetic-overflow class a
//! release build wraps silently is a panic.

use det_memory::{AddressSpace, Perm, Region};
use det_vm::{
    AsmError, Cpu, Image, Insn, MAX_IMAGE_BYTES, Opcode, PageLog, VmExit, assemble, encode,
};
use proptest::prelude::*;

mod common;
use common::MALFORMED;

/// An accepted image is internally consistent.
fn assert_well_formed(image: &Image, src: &str) {
    let len = image.bytes.len() as u64;
    assert!(len <= MAX_IMAGE_BYTES, "{src:?}");
    assert!(image.labels.values().all(|&at| at <= len), "{src:?}");
    let start = image.labels.get("_start").copied().unwrap_or(0);
    assert_eq!(image.entry, start, "{src:?}");
}

#[test]
fn every_malformed_source_is_a_typed_error() {
    for src in MALFORMED {
        match assemble(src) {
            Err(AsmError { line, .. }) => assert!(line >= 1, "{src:?}"),
            Ok(image) => panic!("{src:?} assembled to {} bytes", image.bytes.len()),
        }
    }
}

#[test]
fn integer_literals_cover_exactly_two_to_the_64() {
    for (literal, value) in [
        ("-0x8000000000000000", i64::MIN as u64),
        ("-9223372036854775808", i64::MIN as u64),
        ("-0b1", u64::MAX),
        ("-0", 0),
        ("+5", 5),
        ("0X7f", 0x7f),
        ("9223372036854775808", 1 << 63),
        ("18446744073709551615", u64::MAX),
        ("0xffffffffffffffff", u64::MAX),
    ] {
        let image = assemble(&format!("li r1, {literal}\nhalt")).expect(literal);
        let mut mem = AddressSpace::new();
        mem.map_zero(Region::new(0, 0x1000), Perm::RW).unwrap();
        mem.write(0, &image.bytes).unwrap();
        let mut cpu = Cpu::new();
        assert_eq!(cpu.run(&mut mem, None), VmExit::Halt, "{literal}");
        assert_eq!(cpu.regs.gpr[1], value, "{literal}");
    }
    // The largest image is accepted; one byte more is not (above).
    let image = assemble(".zero 16777216").unwrap();
    assert_eq!(image.bytes.len() as u64, MAX_IMAGE_BYTES);
}

/// What the soup is made of: every token class the grammar has, the
/// boundary literals, and bytes it has no business seeing.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "add", "addi", "ldi", "ldih", "li", "mov", "ldd", "stb", "beq", "jal", "jalr", "sys", "halt",
    "nop", "fsqrt", ".word", ".quad", ".zero", ".ascii", ".bogus", "r0", "r1", "r15", "r16", "sp",
    "lr", "r", "r+5", "x", "loop", "_start", "9lives", "0", "1", "-1", "5", "2047", "2048", "-2048",
    "-2049", "4095", "4096", "12000", "70000", "0x", "0x7ff", "0b101", "0b2",
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "18446744073709551615", "18446744073709551616",
    "0x8000000000000000", "-0x8000000000000000", "16777216", "[", "]", "+", "-", "--", ",", ":",
    ";", "#", "\"", "\"hi\"", "\n", "\n", "\n", "\t", "\0", "\u{e9}", "\u{1f980}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random token soup — with and without spaces between tokens —
    /// never panics, and whatever it accepts is well-formed.
    #[test]
    fn token_soup_never_panics(
        picks in proptest::collection::vec((0usize..TOKENS.len(), 0u8..4), 0..40),
    ) {
        let mut src = String::new();
        for (token, gap) in picks {
            src.push_str(TOKENS[token]);
            if gap != 0 {
                src.push(' ');
            }
        }
        if let Ok(image) = assemble(&src) {
            assert_well_formed(&image, &src);
        }
    }
}

/// A guest chooses its branch targets, including ones across 2^63,
/// where a signed `pc + displacement` overflows.
const HIGH: u64 = 0x7fff_ffff_ffff_f000;

/// Code straddling 2^63: a `jal` forward across it, a `bne` back
/// across it four times, then straight-line execution across it again.
fn straddling_2_63() -> (Vec<(u64, Insn)>, u64) {
    use Opcode::*;
    let top = 1u64 << 63;
    let code = vec![
        (top - 16, Insn::new(Addi, 1, 1, 0, 1)),
        (top - 12, Insn::new(Addi, 2, 2, 0, 1)),
        // next = 2^63 - 4, target = 2^63: forward across.
        (top - 8, Insn::new(Jal, 13, 0, 0, 1)),
        (top - 4, Insn::new(Addi, 3, 3, 0, 1)),
        (top, Insn::new(Addi, 4, 4, 0, 1)),
        (top + 4, Insn::new(Slti, 5, 4, 0, 5)),
        // next = 2^63 + 12, target = 2^63 - 4: backward across.
        (top + 8, Insn::new(Bne, 0, 5, 0, -4)),
        (top + 12, Insn::new(Halt, 0, 0, 0, 0)),
    ];
    (code, top - 16)
}

fn high_space(code: &[(u64, Insn)]) -> AddressSpace {
    let mut mem = AddressSpace::new();
    mem.map_zero(Region::new(HIGH, HIGH + 0x2000), Perm::RW)
        .unwrap();
    for &(at, insn) in code {
        mem.write_u32(at, encode(insn)).unwrap();
    }
    mem
}

/// Runs to halt in quanta of `q` on `cpu`, or on the observed slow
/// path when `observed`; returns every exit and the final CPU.
fn run_high(mut cpu: Cpu, q: u64, observed: bool) -> (Vec<VmExit>, Cpu) {
    let (code, entry) = straddling_2_63();
    let mut mem = high_space(&code);
    cpu.regs.pc = entry;
    let mut log = PageLog::new();
    let mut exits = Vec::new();
    for _ in 0..1_000 {
        let exit = if observed {
            cpu.run_observed(&mut mem, Some(q), &mut log)
        } else {
            cpu.run(&mut mem, Some(q))
        };
        exits.push(exit);
        if exit != VmExit::OutOfBudget {
            break;
        }
    }
    (exits, cpu)
}

#[test]
fn branches_across_two_to_the_63_wrap_on_every_path() {
    for q in [1, 2, 3, 5, 16, 1_000] {
        let (exits, fast) = run_high(Cpu::new(), q, false);
        assert_eq!(exits.last(), Some(&VmExit::Halt), "quanta of {q}");
        assert_eq!(fast.regs.pc, (1u64 << 63) + 16);
        assert_eq!(
            fast.regs.gpr[1..=4],
            [1, 1, 4, 5],
            "one pass forward, four back"
        );
        assert_eq!(fast.regs.gpr[13], (1u64 << 63) - 4, "jal's link");
        for (slow, observed) in [(Cpu::slow_path(), false), (Cpu::new(), true)] {
            let (slow_exits, slow) = run_high(slow, q, observed);
            assert_eq!(slow_exits, exits, "quanta of {q}, observed {observed}");
            assert_eq!(slow.regs, fast.regs, "quanta of {q}, observed {observed}");
            assert_eq!(slow.insn_count, fast.insn_count);
        }
    }
}

#[test]
fn branch_target_wraps_both_ways() {
    let beq = |imm| Insn::new(Opcode::Beq, 0, 0, 0, imm);
    let top = 1u64 << 63;
    assert_eq!(beq(-2).branch_target(top - 4), top - 8);
    assert_eq!(beq(1).branch_target(top - 8), top);
    assert_eq!(beq(-1).branch_target(0), 0);
    assert_eq!(beq(-2).branch_target(0), u64::MAX - 3);
    assert_eq!(beq(0).branch_target(u64::MAX - 3), 0);
}
