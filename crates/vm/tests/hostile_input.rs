//! Assembler source is hostile input (the `kernel/tests/hostile_input.rs`
//! family, one layer down): whatever the text, [`assemble`] returns an
//! [`AsmError`] or a well-formed image — never a panic, and never an
//! answer that depends on the build profile. Plain `cargo test` runs
//! this in a debug build, where the arithmetic-overflow class a release
//! build wraps silently is a panic.

use det_memory::{AddressSpace, Perm, Region};
use det_vm::{AsmError, Cpu, Image, MAX_IMAGE_BYTES, VmExit, assemble};
use proptest::prelude::*;

/// An accepted image is internally consistent.
fn assert_well_formed(image: &Image, src: &str) {
    let len = image.bytes.len() as u64;
    assert!(len <= MAX_IMAGE_BYTES, "{src:?}");
    assert!(image.labels.values().all(|&at| at <= len), "{src:?}");
    let start = image.labels.get("_start").copied().unwrap_or(0);
    assert_eq!(image.entry, start, "{src:?}");
}

/// Sources with exactly one thing wrong each. Every one must be
/// rejected; the three integer rows at the top are the ones that used
/// to panic in debug builds, assemble the wrong sign, or pass.
const MALFORMED: &[&str] = &[
    // Integers: outside [-2^63, 2^64), a second sign, no digits.
    "li r1, -9223372036854775809",
    "li r1, -0x8000000000000001",
    "li r1, --5",
    "li r1, -+5",
    "li r1, +-5",
    "li r1, ++5",
    "li r1, 18446744073709551616",
    "li r1, 0x10000000000000000",
    "li r1, 0x",
    "li r1, 0x+5",
    "li r1, -0x-5",
    "li r1, 0b2",
    "li r1, 1_000",
    "li r1, 5 5",
    "li r1, ",
    "li r1, -",
    // Missing and surplus operands.
    "add r1, r2",
    "add r1, r2, r3, r4",
    "ldi r1",
    "li r1",
    "mov r1",
    "sys",
    "halt r1",
    "nop 1",
    "jal r1",
    "jalr r1, r2",
    "beq r1, r2",
    "ldd r1",
    // Registers.
    "add r16, r1, r2",
    "add r-1, r1, r2",
    "add r+5, r1, r2",
    "add r, r1, r2",
    "add x1, r1, r2",
    "add r1, r2, 3",
    "ldd r1, [r16+0]",
    // Memory operands.
    "ldd r1, [r2+8",
    "ldd r1, r2+8]",
    "ldd r1, []",
    "ldd r1, [r2+]",
    "ldd r1, [r2--8]",
    "ldd r1, [r2+-8]",
    "ldd r1, [r2++8]",
    "ldd r1, [+8]",
    "ldd r1, [r2+r3]",
    // Immediates one past 12 bits.
    "addi r1, r1, 2048",
    "addi r1, r1, -2049",
    "ldih r1, 4096",
    "ldih r1, -1",
    "ldd r1, [r2+2048]",
    "ldd r1, [r2-2049]",
    "ldd r1, [r2-0x8000000000000000]",
    // Magnitudes that, cast to i64, wrap to +1 and -1.
    "ldd r1, [r2-0xffffffffffffffff]",
    "ldd r1, [r2+18446744073709551615]",
    "sys 2048",
    // Labels.
    "beq r0, r0, nowhere",
    "x: nop\nx: nop",
    "jal r14, 9lives",
    "beq r0, r0, far\n.zero 12000\nfar: halt",
    "far: halt\n.zero 12000\nbeq r0, r0, far",
    // Directives and image size.
    ".bogus 1",
    ".zero",
    ".zero -1",
    ".zero 16777217",
    ".zero 16777216\nnop",
    ".word 1,,2",
    ".quad x",
    ".ascii hi",
    ".ascii \"",
    ".ascii \"unterminated",
    // Not assembly at all.
    "bogus r1",
    "ld r1, [r2]",
    ":",
    "1abc: nop",
    "nop\0",
    "\0",
    "ldi r1, 1\0",
    "l\u{e9}i r1, 1",
];

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
