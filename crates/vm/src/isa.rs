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
    ($($name:ident = $val:expr, $mnem:expr, $form:expr;)*) => {
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

            /// Returns the opcode's form: its operands, its successors
            /// and its memory access.
            pub const fn form(self) -> Form {
                match self {
                    $(Opcode::$name => $form,)*
                }
            }

            /// All defined opcodes (for property tests and fuzzing).
            pub const ALL: &'static [Opcode] = &[$(Opcode::$name,)*];
        }
    };
}

/// The opcode table: calls `$m!` with one `Name = byte, "mnemonic",
/// form;` per opcode. [`Opcode`] is made from it here, and the
/// interpreter's micro-op kinds from it too, so the two agree name for
/// name. The form column is the only place an opcode is said to be a
/// load, a store, a branch or an immediate op.
macro_rules! with_opcodes {
    ($m:ident) => {
        $m! {
            Nop = 0x00, "nop", Form::Nop;
            Halt = 0x01, "halt", Form::Halt;
            Sys = 0x02, "sys", Form::Sys;

            Add = 0x10, "add", Form::Alu;
            Sub = 0x11, "sub", Form::Alu;
            Mul = 0x12, "mul", Form::Alu;
            Div = 0x13, "div", Form::Alu;
            Mod = 0x14, "mod", Form::Alu;
            Divu = 0x15, "divu", Form::Alu;
            Modu = 0x16, "modu", Form::Alu;
            And = 0x17, "and", Form::Alu;
            Or = 0x18, "or", Form::Alu;
            Xor = 0x19, "xor", Form::Alu;
            Shl = 0x1a, "shl", Form::Alu;
            Shr = 0x1b, "shr", Form::Alu;
            Sar = 0x1c, "sar", Form::Alu;
            Slt = 0x1d, "slt", Form::Alu;
            Sltu = 0x1e, "sltu", Form::Alu;

            Addi = 0x20, "addi", Form::AluImm;
            Andi = 0x21, "andi", Form::AluImm;
            Ori = 0x22, "ori", Form::AluImm;
            Xori = 0x23, "xori", Form::AluImm;
            Shli = 0x24, "shli", Form::AluImm;
            Shri = 0x25, "shri", Form::AluImm;
            Sari = 0x26, "sari", Form::AluImm;
            Slti = 0x27, "slti", Form::AluImm;
            Muli = 0x28, "muli", Form::AluImm;
            Ldi = 0x29, "ldi", Form::Ldi;
            Ldih = 0x2a, "ldih", Form::Ldih;

            Ldb = 0x30, "ldb", Form::Load(1);
            Ldh = 0x31, "ldh", Form::Load(2);
            Ldw = 0x32, "ldw", Form::Load(4);
            Ldd = 0x33, "ldd", Form::Load(8);
            Stb = 0x34, "stb", Form::Store(1);
            Sth = 0x35, "sth", Form::Store(2);
            Stw = 0x36, "stw", Form::Store(4);
            Std = 0x37, "std", Form::Store(8);

            Beq = 0x40, "beq", Form::Branch;
            Bne = 0x41, "bne", Form::Branch;
            Blt = 0x42, "blt", Form::Branch;
            Bge = 0x43, "bge", Form::Branch;
            Bltu = 0x44, "bltu", Form::Branch;
            Bgeu = 0x45, "bgeu", Form::Branch;
            Jal = 0x46, "jal", Form::Jal;
            Jalr = 0x47, "jalr", Form::Jalr;

            Fadd = 0x50, "fadd", Form::Alu;
            Fsub = 0x51, "fsub", Form::Alu;
            Fmul = 0x52, "fmul", Form::Alu;
            Fdiv = 0x53, "fdiv", Form::Alu;
            Fsqrt = 0x54, "fsqrt", Form::Unary;
            Cvtif = 0x55, "cvtif", Form::Unary;
            Cvtfi = 0x56, "cvtfi", Form::Unary;
            Flt = 0x57, "flt", Form::Alu;
            Feq = 0x58, "feq", Form::Alu;
            Fle = 0x59, "fle", Form::Alu;
        }
    };
}
pub(crate) use with_opcodes;

with_opcodes!(opcodes);

/// What kind of instruction an opcode is. The assembler's and the
/// disassembler's operand syntax, where control goes next
/// ([`Form::flow`]) and how many bytes a load or store moves all follow
/// from it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Form {
    /// `nop`: no operands.
    Nop,
    /// `halt`: no operands; the run stops.
    Halt,
    /// `sys n`: the run stops for the kernel, which resumes it at the
    /// next instruction.
    Sys,
    /// `op rd, rs, rt`: `rd` = `rs` op `rt`.
    Alu,
    /// `op rd, rs`: `rd` = op `rs`.
    Unary,
    /// `op rd, rs, imm`: `rd` = `rs` op `imm`.
    AluImm,
    /// `ldi rd, imm`: `rd` = `imm`.
    Ldi,
    /// `ldih rd, bits`: `rd` = `rd` << 12 | `bits`, the 12 bits raw.
    Ldih,
    /// `op rd, [rs±imm]`: loads this many bytes, zero-extended, into
    /// `rd`.
    Load(u8),
    /// `op rd, [rs±imm]`: stores the low this many bytes of `rd`.
    Store(u8),
    /// `op rs, rt, target`: goes to `target` if `rs` and `rt` compare.
    Branch,
    /// `jal rd, target`: links into `rd` and goes to `target`.
    Jal,
    /// `jalr rd, rs, imm`: links into `rd` and goes to `rs + imm`.
    Jalr,
}

/// Where control goes after an instruction retires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flow {
    /// To the next instruction.
    Fall,
    /// To the branch target if taken, else to the next instruction.
    Branch,
    /// To the branch target.
    Jump,
    /// To a register plus the immediate.
    Indirect,
    /// `pc` moves to the next instruction, but the run stops there.
    Stop,
}

/// One operand of an instruction's source text.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Arg {
    Rd,
    Rs,
    Rt,
    /// A signed immediate.
    Imm,
    /// `ldih`'s raw 12 bits, printed in hex.
    Bits,
    /// `[rs±imm]`.
    Mem,
    /// A branch displacement in words, or a label.
    Target,
}

impl Form {
    /// Where control goes after an instruction of this form retires.
    pub const fn flow(self) -> Flow {
        match self {
            Form::Halt | Form::Sys => Flow::Stop,
            Form::Branch => Flow::Branch,
            Form::Jal => Flow::Jump,
            Form::Jalr => Flow::Indirect,
            Form::Nop
            | Form::Alu
            | Form::Unary
            | Form::AluImm
            | Form::Ldi
            | Form::Ldih
            | Form::Load(_)
            | Form::Store(_) => Flow::Fall,
        }
    }

    /// The operands of this form's source text, in order.
    pub(crate) const fn operands(self) -> &'static [Arg] {
        use Arg::*;
        match self {
            Form::Nop | Form::Halt => &[],
            Form::Sys => &[Imm],
            Form::Alu => &[Rd, Rs, Rt],
            Form::Unary => &[Rd, Rs],
            Form::AluImm | Form::Jalr => &[Rd, Rs, Imm],
            Form::Ldi => &[Rd, Imm],
            Form::Ldih => &[Rd, Bits],
            Form::Load(_) | Form::Store(_) => &[Rd, Mem],
            Form::Branch => &[Rs, Rt, Target],
            Form::Jal => &[Rd, Target],
        }
    }
}

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
    let m = i.op.mnemonic();
    let ops: Vec<String> = (i.op.form().operands().iter())
        .map(|o| match o {
            Arg::Rd => format!("r{}", i.rd),
            Arg::Rs => format!("r{}", i.rs),
            Arg::Rt => format!("r{}", i.rt),
            Arg::Imm | Arg::Target => i.imm.to_string(),
            Arg::Bits => format!("{:#x}", i.imm as u16 & 0xfff),
            Arg::Mem => format!("[r{}{:+}]", i.rs, i.imm),
        })
        .collect();
    if ops.is_empty() {
        m.to_string()
    } else {
        format!("{m} {}", ops.join(", "))
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
