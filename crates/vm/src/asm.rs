//! A small two-pass assembler for the det-vm ISA.
//!
//! Supports labels, numeric and label branch targets, the `li`
//! pseudo-instruction (expanding to a minimal `ldi`/`ldih` chain for
//! any 64-bit constant), register aliases (`sp` = r15, `lr` = r14),
//! and the data directives `.word`, `.quad`, `.zero`, `.ascii`.
//! Comments start with `;` or `#`.

use std::collections::BTreeMap;

use crate::isa::{Insn, Opcode, encode};

/// An assembled program image.
#[derive(Clone, Debug)]
pub struct Image {
    /// Raw little-endian bytes, loaded at address 0 by convention.
    pub bytes: Vec<u8>,
    /// Label name → byte offset.
    pub labels: BTreeMap<String, u64>,
    /// Entry point: the `_start` label if defined, else 0.
    pub entry: u64,
}

/// Largest image [`assemble`] will produce. Source text is hostile
/// input: without a bound, `.zero -1` is a 2⁶⁴-byte allocation.
pub const MAX_IMAGE_BYTES: u64 = 1 << 24;

/// Assembly failure with a 1-based source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AsmError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

/// Assembles `src` into an [`Image`].
///
/// # Examples
///
/// ```
/// let img = det_vm::assemble("ldi r1, 1\nhalt").unwrap();
/// assert_eq!(img.bytes.len(), 8);
/// ```
pub fn assemble(src: &str) -> Result<Image, AsmError> {
    let mut items: Vec<(usize, Item)> = Vec::new();
    let mut labels: BTreeMap<String, u64> = BTreeMap::new();
    let mut offset: u64 = 0;

    // Pass 1: parse, size, and collect labels.
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let mut line = raw;
        if let Some(p) = line.find([';', '#']) {
            line = &line[..p];
        }
        let mut rest = line.trim();
        // Leading labels (possibly several).
        while let Some(colon) = rest.find(':') {
            let (name, tail) = rest.split_at(colon);
            let name = name.trim();
            if name.is_empty() || !is_ident(name) {
                break;
            }
            if labels.insert(name.to_string(), offset).is_some() {
                return Err(err(line_no, format!("duplicate label `{name}`")));
            }
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        let item = parse_item(line_no, rest)?;
        offset = offset
            .checked_add(item.size())
            .filter(|&end| end <= MAX_IMAGE_BYTES)
            .ok_or_else(|| err(line_no, "image exceeds MAX_IMAGE_BYTES"))?;
        items.push((line_no, item));
    }

    // Pass 2: encode.
    let mut bytes = Vec::with_capacity(offset as usize);
    for (line_no, item) in items {
        let at = bytes.len() as u64;
        match item {
            Item::Insn(tmpl) => {
                let insn = tmpl.resolve(line_no, at, &labels)?;
                bytes.extend_from_slice(&encode(insn).to_le_bytes());
            }
            Item::Li { rd, value } => {
                for insn in li_sequence(rd, value) {
                    bytes.extend_from_slice(&encode(insn).to_le_bytes());
                }
            }
            Item::Word(vals) => {
                for v in vals {
                    bytes.extend_from_slice(&(v as u32).to_le_bytes());
                }
            }
            Item::Quad(vals) => {
                for v in vals {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
            }
            Item::Zero(n) => bytes.extend(std::iter::repeat_n(0u8, n as usize)),
            Item::Ascii(s) => bytes.extend_from_slice(s.as_bytes()),
        }
    }

    let entry = labels.get("_start").copied().unwrap_or(0);
    Ok(Image {
        bytes,
        labels,
        entry,
    })
}

/// Computes the minimal `ldi`/`ldih` chain loading `value` into `rd`.
pub(crate) fn li_sequence(rd: u8, value: u64) -> Vec<Insn> {
    let n = li_len(value);
    let mut out = Vec::with_capacity(n);
    let top_shift = 12 * (n - 1);
    let top = ((value as i64) >> top_shift) as i16;
    out.push(Insn::new(Opcode::Ldi, rd, 0, 0, top));
    for k in (0..n - 1).rev() {
        let chunk = ((value >> (12 * k)) & 0xfff) as i16;
        out.push(Insn::new(Opcode::Ldih, rd, 0, 0, chunk));
    }
    out
}

/// Number of instructions `li` needs for `value`.
fn li_len(value: u64) -> usize {
    for n in 1..=6usize {
        let shift = 12 * (n - 1);
        let top = (value as i64) >> shift;
        if (-2048..=2047).contains(&top) {
            return n;
        }
    }
    6
}

enum Item {
    Insn(Template),
    Li { rd: u8, value: u64 },
    Word(Vec<u64>),
    Quad(Vec<u64>),
    Zero(u64),
    Ascii(String),
}

impl Item {
    fn size(&self) -> u64 {
        match self {
            Item::Insn(_) => 4,
            Item::Li { value, .. } => 4 * li_len(*value) as u64,
            Item::Word(v) => 4 * v.len() as u64,
            Item::Quad(v) => 8 * v.len() as u64,
            Item::Zero(n) => *n,
            Item::Ascii(s) => s.len() as u64,
        }
    }
}

/// An instruction with a possibly unresolved branch target.
struct Template {
    op: Opcode,
    rd: u8,
    rs: u8,
    rt: u8,
    imm: ImmSpec,
}

enum ImmSpec {
    Lit(i64),
    /// Word displacement from the *next* instruction to a label.
    Rel(String),
}

impl Template {
    fn resolve(
        self,
        line: usize,
        at: u64,
        labels: &BTreeMap<String, u64>,
    ) -> Result<Insn, AsmError> {
        let imm = match self.imm {
            ImmSpec::Lit(v) => v,
            ImmSpec::Rel(name) => {
                let target = *labels
                    .get(&name)
                    .ok_or_else(|| err(line, format!("undefined label `{name}`")))?;
                (target as i64 - (at as i64 + 4)) / 4
            }
        };
        let range_ok = if self.op == Opcode::Ldih {
            (0..=4095).contains(&imm)
        } else {
            (-2048..=2047).contains(&imm)
        };
        if !range_ok {
            return Err(err(line, format!("immediate {imm} out of 12-bit range")));
        }
        Ok(Insn::new(self.op, self.rd, self.rs, self.rt, imm as i16))
    }
}

fn err(line: usize, msg: impl Into<String>) -> AsmError {
    AsmError {
        line,
        msg: msg.into(),
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        && !s.chars().next().expect("nonempty").is_ascii_digit()
}

fn parse_item(line: usize, text: &str) -> Result<Item, AsmError> {
    let (head, tail) = match text.find(char::is_whitespace) {
        Some(p) => (&text[..p], text[p..].trim()),
        None => (text, ""),
    };
    let mnemonic = head.to_ascii_lowercase();

    if let Some(directive) = mnemonic.strip_prefix('.') {
        return parse_directive(line, directive, tail);
    }

    if mnemonic == "li" {
        let ops = split_operands(tail);
        if ops.len() != 2 {
            return Err(err(line, "li needs `rd, value`"));
        }
        let rd = parse_reg(line, &ops[0])?;
        let value = parse_int(line, &ops[1])? as u64;
        return Ok(Item::Li { rd, value });
    }
    if mnemonic == "mov" {
        // mov rd, rs  =>  ori rd, rs, 0.
        let ops = split_operands(tail);
        if ops.len() != 2 {
            return Err(err(line, "mov needs `rd, rs`"));
        }
        return Ok(Item::Insn(Template {
            op: Opcode::Ori,
            rd: parse_reg(line, &ops[0])?,
            rs: parse_reg(line, &ops[1])?,
            rt: 0,
            imm: ImmSpec::Lit(0),
        }));
    }

    let op = Opcode::from_mnemonic(&mnemonic)
        .ok_or_else(|| err(line, format!("unknown mnemonic `{mnemonic}`")))?;
    let ops = split_operands(tail);
    let t = build_template(line, op, &ops)?;
    Ok(Item::Insn(t))
}

fn parse_directive(line: usize, directive: &str, tail: &str) -> Result<Item, AsmError> {
    match directive {
        "word" => {
            let vals = split_operands(tail)
                .iter()
                .map(|s| parse_int(line, s).map(|v| v as u64))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Item::Word(vals))
        }
        "quad" => {
            let vals = split_operands(tail)
                .iter()
                .map(|s| parse_int(line, s).map(|v| v as u64))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Item::Quad(vals))
        }
        "zero" => Ok(Item::Zero(parse_int(line, tail.trim())? as u64)),
        "ascii" => {
            let t = tail.trim();
            if t.len() < 2 || !t.starts_with('"') || !t.ends_with('"') {
                return Err(err(line, ".ascii needs a double-quoted string"));
            }
            Ok(Item::Ascii(t[1..t.len() - 1].to_string()))
        }
        other => Err(err(line, format!("unknown directive `.{other}`"))),
    }
}

fn build_template(line: usize, op: Opcode, ops: &[String]) -> Result<Template, AsmError> {
    use Opcode::*;
    let need = |n: usize| {
        if ops.len() == n {
            Ok(())
        } else {
            Err(err(
                line,
                format!("{} expects {n} operands, got {}", op.mnemonic(), ops.len()),
            ))
        }
    };
    let reg = |s: &str| parse_reg(line, s);
    let imm_or_label = |s: &str| -> Result<ImmSpec, AsmError> {
        if let Ok(v) = parse_int(line, s) {
            Ok(ImmSpec::Lit(v))
        } else if is_ident(s) {
            Ok(ImmSpec::Rel(s.to_string()))
        } else {
            Err(err(line, format!("bad immediate or label `{s}`")))
        }
    };
    match op {
        Nop | Halt => {
            need(0)?;
            Ok(Template {
                op,
                rd: 0,
                rs: 0,
                rt: 0,
                imm: ImmSpec::Lit(0),
            })
        }
        Sys => {
            need(1)?;
            Ok(Template {
                op,
                rd: 0,
                rs: 0,
                rt: 0,
                imm: ImmSpec::Lit(parse_int(line, &ops[0])?),
            })
        }
        Add | Sub | Mul | Div | Mod | Divu | Modu | And | Or | Xor | Shl | Shr | Sar | Slt
        | Sltu | Fadd | Fsub | Fmul | Fdiv | Flt | Feq | Fle => {
            need(3)?;
            Ok(Template {
                op,
                rd: reg(&ops[0])?,
                rs: reg(&ops[1])?,
                rt: reg(&ops[2])?,
                imm: ImmSpec::Lit(0),
            })
        }
        Fsqrt | Cvtif | Cvtfi => {
            need(2)?;
            Ok(Template {
                op,
                rd: reg(&ops[0])?,
                rs: reg(&ops[1])?,
                rt: 0,
                imm: ImmSpec::Lit(0),
            })
        }
        Addi | Andi | Ori | Xori | Shli | Shri | Sari | Slti | Muli => {
            need(3)?;
            Ok(Template {
                op,
                rd: reg(&ops[0])?,
                rs: reg(&ops[1])?,
                rt: 0,
                imm: ImmSpec::Lit(parse_int(line, &ops[2])?),
            })
        }
        Ldi => {
            need(2)?;
            Ok(Template {
                op,
                rd: reg(&ops[0])?,
                rs: 0,
                rt: 0,
                imm: ImmSpec::Lit(parse_int(line, &ops[1])?),
            })
        }
        Ldih => {
            need(2)?;
            Ok(Template {
                op,
                rd: reg(&ops[0])?,
                rs: 0,
                rt: 0,
                imm: ImmSpec::Lit(parse_int(line, &ops[1])?),
            })
        }
        Ldb | Ldh | Ldw | Ldd | Stb | Sth | Stw | Std => {
            need(2)?;
            let (rs, disp) = parse_mem_operand(line, &ops[1])?;
            Ok(Template {
                op,
                rd: reg(&ops[0])?,
                rs,
                rt: 0,
                imm: ImmSpec::Lit(disp),
            })
        }
        Beq | Bne | Blt | Bge | Bltu | Bgeu => {
            need(3)?;
            Ok(Template {
                op,
                rd: 0,
                rs: reg(&ops[0])?,
                rt: reg(&ops[1])?,
                imm: imm_or_label(&ops[2])?,
            })
        }
        Jal => {
            need(2)?;
            Ok(Template {
                op,
                rd: reg(&ops[0])?,
                rs: 0,
                rt: 0,
                imm: imm_or_label(&ops[1])?,
            })
        }
        Jalr => {
            need(3)?;
            Ok(Template {
                op,
                rd: reg(&ops[0])?,
                rs: reg(&ops[1])?,
                rt: 0,
                imm: ImmSpec::Lit(parse_int(line, &ops[2])?),
            })
        }
    }
}

fn split_operands(s: &str) -> Vec<String> {
    if s.trim().is_empty() {
        return Vec::new();
    }
    s.split(',').map(|p| p.trim().to_string()).collect()
}

fn parse_reg(line: usize, s: &str) -> Result<u8, AsmError> {
    let s = s.trim();
    let lower = s.to_ascii_lowercase();
    match lower.as_str() {
        "sp" => return Ok(15),
        "lr" => return Ok(14),
        _ => {}
    }
    if let Some(num) = lower.strip_prefix('r') {
        // Digits only: `parse` alone would take `r+5`.
        if num.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n @ 0..16) = num.parse::<u8>() {
                return Ok(n);
            }
        }
    }
    Err(err(line, format!("bad register `{s}`")))
}

/// Parses an unsigned literal — decimal, `0x` hex or `0b` binary — with
/// no sign: the callers own the one sign the grammar allows, and
/// `from_str_radix` would quietly accept a second.
fn parse_magnitude(s: &str) -> Option<u64> {
    let (digits, radix) = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        (hex, 16)
    } else if let Some(bin) = s.strip_prefix("0b") {
        (bin, 2)
    } else {
        (s, 10)
    };
    if digits.starts_with(['+', '-']) {
        return None;
    }
    u64::from_str_radix(digits, radix).ok()
}

/// Parses an integer in [−2⁶³, 2⁶⁴) as its 64-bit two's-complement
/// pattern: one optional sign, then a magnitude that fits.
fn parse_int(line: usize, s: &str) -> Result<i64, AsmError> {
    let s = s.trim();
    let (negative, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    match parse_magnitude(body) {
        Some(m) if !negative => Ok(m as i64),
        Some(m) if m <= 1 << 63 => Ok((m as i64).wrapping_neg()),
        _ => Err(err(line, format!("bad integer `{s}`"))),
    }
}

/// Parses `[rN+disp]`, `[rN-disp]`, or `[rN]`.
fn parse_mem_operand(line: usize, s: &str) -> Result<(u8, i64), AsmError> {
    let s = s.trim();
    if !s.starts_with('[') || !s.ends_with(']') {
        return Err(err(line, format!("bad memory operand `{s}`")));
    }
    let inner = s[1..s.len() - 1].trim();
    // Find a +/- separating register and displacement (not a leading sign).
    let mut split_at = None;
    for (i, c) in inner.char_indices().skip(1) {
        if c == '+' || c == '-' {
            split_at = Some(i);
            break;
        }
    }
    match split_at {
        None => Ok((parse_reg(line, inner)?, 0)),
        Some(i) => {
            let reg = parse_reg(line, inner[..i].trim())?;
            // The separator is the displacement's sign. A magnitude
            // past `i64::MAX` is refused here: cast, it would wrap to a
            // small value of the other sign and pass the 12-bit check.
            let disp = parse_magnitude(inner[i + 1..].trim())
                .and_then(|m| i64::try_from(m).ok())
                .ok_or_else(|| err(line, format!("bad displacement in `{s}`")))?;
            let negative = inner.as_bytes()[i] == b'-';
            Ok((reg, if negative { -disp } else { disp }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{decode, disassemble};

    #[test]
    fn labels_and_branches() {
        let img = assemble(
            "
        start:
            ldi r1, 3
        loop:
            addi r1, r1, -1
            bne r1, r0, loop
            beq r0, r0, start
            halt
            ",
        )
        .unwrap();
        assert_eq!(img.labels["start"], 0);
        assert_eq!(img.labels["loop"], 4);
        // `bne` at offset 8 targets 4: disp = (4 - 12)/4 = -2.
        let w = u32::from_le_bytes(img.bytes[8..12].try_into().unwrap());
        assert_eq!(decode(w).unwrap().imm, -2);
        // `beq` at offset 12 targets 0: disp = (0 - 16)/4 = -4.
        let w = u32::from_le_bytes(img.bytes[12..16].try_into().unwrap());
        assert_eq!(decode(w).unwrap().imm, -4);
    }

    #[test]
    fn li_small_is_single_insn() {
        let img = assemble("li r1, 42").unwrap();
        assert_eq!(img.bytes.len(), 4);
        let img = assemble("li r1, -2048").unwrap();
        assert_eq!(img.bytes.len(), 4);
    }

    #[test]
    fn li_expansion_correct_for_edge_values() {
        use crate::interp::{Cpu, VmExit};
        use det_memory::{AddressSpace, Perm, Region};
        for v in [
            0u64,
            1,
            2047,
            2048,
            0x8000,
            0xffff_ffff,
            0x1234_5678_9abc_def0,
            u64::MAX,
            i64::MIN as u64,
            0x7fff_ffff_ffff_ffff,
        ] {
            let src = format!("li r1, {v}\nhalt");
            let img = assemble(&src).unwrap();
            let mut mem = AddressSpace::new();
            mem.map_zero(Region::new(0, 0x1000), Perm::RW).unwrap();
            mem.write(0, &img.bytes).unwrap();
            let mut cpu = Cpu::new();
            assert_eq!(cpu.run(&mut mem, None), VmExit::Halt, "value {v:#x}");
            assert_eq!(cpu.regs.gpr[1], v, "value {v:#x}");
        }
    }

    #[test]
    fn mem_operand_forms() {
        for (src, rs, imm) in [
            ("ldd r1, [r2]", 2u8, 0i16),
            ("ldd r1, [r2+16]", 2, 16),
            ("ldd r1, [r2 - 8]", 2, -8),
            ("ldd r1, [sp+0]", 15, 0),
        ] {
            let img = assemble(src).unwrap();
            let w = u32::from_le_bytes(img.bytes[0..4].try_into().unwrap());
            let i = decode(w).unwrap();
            assert_eq!((i.rs, i.imm), (rs, imm), "{src}");
        }
    }

    #[test]
    fn data_directives() {
        let img = assemble(
            "
            .word 1, 2
            .quad 0xdeadbeef
            .zero 3
            .ascii \"hi\"
            ",
        )
        .unwrap();
        assert_eq!(img.bytes.len(), 4 + 4 + 8 + 3 + 2);
        assert_eq!(&img.bytes[0..4], &1u32.to_le_bytes());
        assert_eq!(&img.bytes[8..16], &0xdeadbeefu64.to_le_bytes());
        assert_eq!(&img.bytes[19..21], b"hi");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\nbogus r1\nnop").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("bogus"));

        let e = assemble("beq r1, r0, nowhere").unwrap_err();
        assert!(e.msg.contains("undefined label"));

        let e = assemble("x: nop\nx: nop").unwrap_err();
        assert!(e.msg.contains("duplicate label"));

        let e = assemble("addi r1, r2, 99999").unwrap_err();
        assert!(e.msg.contains("out of 12-bit range"));

        let e = assemble("add r99, r1, r2").unwrap_err();
        assert!(e.msg.contains("bad register"));
    }

    #[test]
    fn entry_defaults_and_start_label() {
        assert_eq!(assemble("nop").unwrap().entry, 0);
        let img = assemble("nop\n_start: halt").unwrap();
        assert_eq!(img.entry, 4);
    }

    #[test]
    fn comments_ignored() {
        let img = assemble("; full line\nnop # trailing\n  # another\n").unwrap();
        assert_eq!(img.bytes.len(), 4);
    }

    #[test]
    fn disassemble_assembled_roundtrip() {
        let src = "add r1, r2, r3";
        let img = assemble(src).unwrap();
        let w = u32::from_le_bytes(img.bytes[0..4].try_into().unwrap());
        assert_eq!(disassemble(decode(w).unwrap()), src);
    }
}
