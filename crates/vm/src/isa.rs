//! Instruction set: encoding, decoding, and disassembly.
//!
//! Fixed 32-bit words:
//!
//! ```text
//! | opcode:8 | rd:4 | rs:4 | rt:4 | imm:12 |
//! ```
//!
//! `imm` is sign-extended except for [`Opcode::Ldih`], which treats it
//! as raw bits. Branch displacements are in words relative to the next
//! instruction.

/// Decoded instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Insn {
    /// Operation.
    pub op: Opcode,
    /// Destination register (or store-source for `St*`).
    pub rd: u8,
    /// First source register.
    pub rs: u8,
    /// Second source register.
    pub rt: u8,
    /// 12-bit immediate, sign-extended at decode.
    pub imm: i16,
}

impl Insn {
    /// Convenience constructor.
    pub fn new(op: Opcode, rd: u8, rs: u8, rt: u8, imm: i16) -> Insn {
        Insn {
            op,
            rd,
            rs,
            rt,
            imm,
        }
    }

    /// Where this branch or `jal` at `pc` goes when taken: `imm` words
    /// past the next instruction, modulo 2^64. The guest chooses the
    /// displacement, so a target across 2^63 (or across 0) is an
    /// ordinary address, never an overflow.
    #[inline]
    pub fn branch_target(self, pc: u64) -> u64 {
        pc.wrapping_add(4)
            .wrapping_add((i64::from(self.imm) * 4) as u64)
    }
}

macro_rules! opcodes {
    ($($name:ident = $val:expr, $mnem:expr;)*) => {
        /// Operation codes.
        ///
        /// Grouped as: system (`Nop`/`Halt`/`Sys`), register ALU,
        /// immediate ALU, loads/stores, branches/jumps, and IEEE-754
        /// double-precision float ops over the integer register file.
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        #[repr(u8)]
        pub enum Opcode {
            $(
                #[doc = $mnem]
                $name = $val,
            )*
        }

        impl Opcode {
            /// Returns the opcode for an encoded byte, if defined.
            #[inline]
            pub fn from_u8(v: u8) -> Option<Opcode> {
                match v {
                    $($val => Some(Opcode::$name),)*
                    _ => None,
                }
            }

            /// Returns the assembler mnemonic.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $(Opcode::$name => $mnem,)*
                }
            }

            /// Returns the opcode for a mnemonic, if defined.
            pub fn from_mnemonic(m: &str) -> Option<Opcode> {
                match m {
                    $($mnem => Some(Opcode::$name),)*
                    _ => None,
                }
            }

            /// All defined opcodes (for property tests and fuzzing).
            pub const ALL: &'static [Opcode] = &[$(Opcode::$name,)*];
        }
    };
}

/// The opcode table: calls `$m!` with one `Name = byte, "mnemonic";`
/// per opcode. [`Opcode`] is made from it here, and the interpreter's
/// micro-op kinds from it too, so the two agree name for name.
macro_rules! with_opcodes {
    ($m:ident) => {
        $m! {
            Nop = 0x00, "nop";
            Halt = 0x01, "halt";
            Sys = 0x02, "sys";

            Add = 0x10, "add";
            Sub = 0x11, "sub";
            Mul = 0x12, "mul";
            Div = 0x13, "div";
            Mod = 0x14, "mod";
            Divu = 0x15, "divu";
            Modu = 0x16, "modu";
            And = 0x17, "and";
            Or = 0x18, "or";
            Xor = 0x19, "xor";
            Shl = 0x1a, "shl";
            Shr = 0x1b, "shr";
            Sar = 0x1c, "sar";
            Slt = 0x1d, "slt";
            Sltu = 0x1e, "sltu";

            Addi = 0x20, "addi";
            Andi = 0x21, "andi";
            Ori = 0x22, "ori";
            Xori = 0x23, "xori";
            Shli = 0x24, "shli";
            Shri = 0x25, "shri";
            Sari = 0x26, "sari";
            Slti = 0x27, "slti";
            Muli = 0x28, "muli";
            Ldi = 0x29, "ldi";
            Ldih = 0x2a, "ldih";

            Ldb = 0x30, "ldb";
            Ldh = 0x31, "ldh";
            Ldw = 0x32, "ldw";
            Ldd = 0x33, "ldd";
            Stb = 0x34, "stb";
            Sth = 0x35, "sth";
            Stw = 0x36, "stw";
            Std = 0x37, "std";

            Beq = 0x40, "beq";
            Bne = 0x41, "bne";
            Blt = 0x42, "blt";
            Bge = 0x43, "bge";
            Bltu = 0x44, "bltu";
            Bgeu = 0x45, "bgeu";
            Jal = 0x46, "jal";
            Jalr = 0x47, "jalr";

            Fadd = 0x50, "fadd";
            Fsub = 0x51, "fsub";
            Fmul = 0x52, "fmul";
            Fdiv = 0x53, "fdiv";
            Fsqrt = 0x54, "fsqrt";
            Cvtif = 0x55, "cvtif";
            Cvtfi = 0x56, "cvtfi";
            Flt = 0x57, "flt";
            Feq = 0x58, "feq";
            Fle = 0x59, "fle";
        }
    };
}
pub(crate) use with_opcodes;

with_opcodes!(opcodes);

/// Instruction decoding failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodeError {
    /// The undefined opcode byte.
    pub opcode: u8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "illegal opcode {:#04x}", self.opcode)
    }
}

impl std::error::Error for DecodeError {}

/// Encodes an instruction into a 32-bit word.
pub fn encode(i: Insn) -> u32 {
    debug_assert!(i.rd < 16 && i.rs < 16 && i.rt < 16);
    debug_assert!((-2048..=2047).contains(&i.imm) || i.op == Opcode::Ldih);
    ((i.op as u32) << 24)
        | ((i.rd as u32 & 0xf) << 20)
        | ((i.rs as u32 & 0xf) << 16)
        | ((i.rt as u32 & 0xf) << 12)
        | (i.imm as u32 & 0xfff)
}

/// Decodes a 32-bit word into an instruction.
///
/// Inlined: this is the decoded-instruction cache's fill path; a hit
/// skips it entirely.
#[inline]
pub fn decode(word: u32) -> Result<Insn, DecodeError> {
    let op_byte = (word >> 24) as u8;
    let op = Opcode::from_u8(op_byte).ok_or(DecodeError { opcode: op_byte })?;
    let raw_imm = (word & 0xfff) as u16;
    let imm = if op == Opcode::Ldih {
        raw_imm as i16
    } else {
        // Sign-extend 12 bits.
        ((raw_imm << 4) as i16) >> 4
    };
    Ok(Insn {
        op,
        rd: ((word >> 20) & 0xf) as u8,
        rs: ((word >> 16) & 0xf) as u8,
        rt: ((word >> 12) & 0xf) as u8,
        imm,
    })
}

/// Renders an instruction in assembler syntax.
pub fn disassemble(i: Insn) -> String {
    use Opcode::*;
    let m = i.op.mnemonic();
    match i.op {
        Nop | Halt => m.to_string(),
        Sys => format!("{m} {}", i.imm),
        Add | Sub | Mul | Div | Mod | Divu | Modu | And | Or | Xor | Shl | Shr | Sar | Slt
        | Sltu | Fadd | Fsub | Fmul | Fdiv | Flt | Feq | Fle => {
            format!("{m} r{}, r{}, r{}", i.rd, i.rs, i.rt)
        }
        Fsqrt | Cvtif | Cvtfi => format!("{m} r{}, r{}", i.rd, i.rs),
        Addi | Andi | Ori | Xori | Shli | Shri | Sari | Slti | Muli => {
            format!("{m} r{}, r{}, {}", i.rd, i.rs, i.imm)
        }
        Ldi => format!("{m} r{}, {}", i.rd, i.imm),
        Ldih => format!("{m} r{}, {:#x}", i.rd, i.imm as u16 & 0xfff),
        Ldb | Ldh | Ldw | Ldd => format!("{m} r{}, [r{}{:+}]", i.rd, i.rs, i.imm),
        Stb | Sth | Stw | Std => format!("{m} r{}, [r{}{:+}]", i.rd, i.rs, i.imm),
        Beq | Bne | Blt | Bge | Bltu | Bgeu => {
            format!("{m} r{}, r{}, {}", i.rs, i.rt, i.imm)
        }
        Jal => format!("{m} r{}, {}", i.rd, i.imm),
        Jalr => format!("{m} r{}, r{}, {}", i.rd, i.rs, i.imm),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_opcodes() {
        for &op in Opcode::ALL {
            let i = Insn::new(op, 3, 7, 11, -5);
            let i = if op == Opcode::Ldih {
                Insn { imm: 0x7ab, ..i }
            } else {
                i
            };
            let d = decode(encode(i)).expect("decodes");
            assert_eq!(d, i, "opcode {op:?}");
        }
    }

    #[test]
    fn imm_sign_extension() {
        let i = Insn::new(Opcode::Addi, 1, 2, 0, -2048);
        assert_eq!(decode(encode(i)).unwrap().imm, -2048);
        let i = Insn::new(Opcode::Addi, 1, 2, 0, 2047);
        assert_eq!(decode(encode(i)).unwrap().imm, 2047);
    }

    #[test]
    fn ldih_imm_is_raw() {
        let i = Insn::new(Opcode::Ldih, 1, 0, 0, 0xfff_u16 as i16 & 0xfff);
        let d = decode(encode(i)).unwrap();
        assert_eq!(d.imm as u16 & 0xfff, 0xfff);
    }

    #[test]
    fn illegal_opcode_rejected() {
        assert_eq!(decode(0xff00_0000), Err(DecodeError { opcode: 0xff }));
        assert_eq!(decode(0x0300_0000), Err(DecodeError { opcode: 0x03 }));
    }

    #[test]
    fn mnemonic_lookup_roundtrips() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(Opcode::from_mnemonic("bogus"), None);
    }

    #[test]
    fn disassembly_examples() {
        assert_eq!(
            disassemble(Insn::new(Opcode::Add, 1, 2, 3, 0)),
            "add r1, r2, r3"
        );
        assert_eq!(
            disassemble(Insn::new(Opcode::Ldd, 4, 15, 0, -8)),
            "ldd r4, [r15-8]"
        );
        assert_eq!(
            disassemble(Insn::new(Opcode::Beq, 0, 1, 2, 6)),
            "beq r1, r2, 6"
        );
        assert_eq!(disassemble(Insn::new(Opcode::Halt, 0, 0, 0, 0)), "halt");
    }
}
