//! The assembler and the disassembler, held to what they produced at
//! 36f663f (`golden/asm_36f663f.txt`), before each opcode's operand
//! syntax came from its form in the opcode table. The golden records:
//!
//! * every corpus program's image length, FNV-1a-64 and labels;
//! * the `line: message` of the error every `MALFORMED` source gets,
//!   and of every opcode given one operand too many;
//! * `disassemble` of every opcode at four fixed operand patterns, and
//!   what the assembler makes of that text again.

use det_vm::{Opcode, assemble, corpus, decode, disassemble};

mod common;
use common::MALFORMED;

const GOLDEN: &str = include_str!("golden/asm_36f663f.txt");

/// `rd`, `rs`, `rt` and the raw 12-bit immediate of each pattern.
const PATTERNS: [(u32, u32, u32, u32); 4] = [
    (0, 0, 0, 0x000),
    (1, 2, 3, 0xffb),
    (15, 14, 13, 0x7ff),
    (9, 10, 11, 0x800),
];

/// Byte-serial FNV-1a-64 (the golden must not depend on the
/// production hash).
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The first word `src` assembles to, or its error.
fn reassembled(src: &str) -> String {
    match assemble(src) {
        Ok(img) => format!(
            "{:08x}",
            u32::from_le_bytes(img.bytes[..4].try_into().expect("one word"))
        ),
        Err(e) => format!("error {}: {:?}", e.line, e.msg),
    }
}

fn observed() -> String {
    let mut out = String::new();
    for p in corpus::PROGRAMS {
        let img = assemble(p.src).expect("corpus assembles");
        let labels: Vec<String> = img.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        out.push_str(&format!(
            "corpus {} len={} fnv={:016x} entry={} labels {}\n",
            p.name,
            img.bytes.len(),
            fnv1a64(&img.bytes),
            img.entry,
            labels.join(" ")
        ));
    }
    for src in MALFORMED {
        let e = assemble(src).expect_err(src);
        out.push_str(&format!("malformed {src:?} {}: {:?}\n", e.line, e.msg));
    }
    for &op in Opcode::ALL {
        let src = format!("{} r1, r2, r3, r4", op.mnemonic());
        out.push_str(&format!("surplus {src:?} {}\n", reassembled(&src)));
    }
    for &op in Opcode::ALL {
        for (rd, rs, rt, imm) in PATTERNS {
            let word = (op as u32) << 24 | rd << 20 | rs << 16 | rt << 12 | imm;
            let text = disassemble(decode(word).expect("defined opcode"));
            out.push_str(&format!(
                "disasm {word:08x} {text:?} {}\n",
                reassembled(&text)
            ));
        }
    }
    out
}

#[test]
fn assembler_and_disassembler_are_what_they_were_at_36f663f() {
    let observed = observed();
    if observed != GOLDEN {
        eprint!("observed assembler lines:\n{observed}");
    }
    assert_eq!(
        observed.lines().count(),
        corpus::PROGRAMS.len() + MALFORMED.len() + Opcode::ALL.len() * (1 + PATTERNS.len())
    );
    assert_eq!(observed, GOLDEN);
}
