//! Property tests of the VM: encode/decode bijectivity, assembler
//! round trips, ALU semantics against reference arithmetic, and exact
//! determinism/preemption of random programs.

use det_memory::{AddressSpace, Perm, Region};
use det_vm::{
    Cpu, Flow, Form, Insn, Opcode, PageLog, Regs, VmExit, assemble, decode, disassemble, encode,
};
use proptest::prelude::*;

fn arb_valid_insn() -> impl Strategy<Value = Insn> {
    (
        proptest::sample::select(Opcode::ALL.to_vec()),
        0u8..16,
        0u8..16,
        0u8..16,
        -2048i16..=2047,
    )
        .prop_map(|(op, rd, rs, rt, imm)| {
            let imm = if op == Opcode::Ldih { imm & 0xfff } else { imm };
            Insn::new(op, rd, rs, rt, imm)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode ∘ decode is the identity on valid instructions.
    #[test]
    fn encode_decode_roundtrip(i in arb_valid_insn()) {
        prop_assert_eq!(decode(encode(i)).unwrap(), i);
    }

    /// Disassembly output reassembles to the identical word, for every
    /// opcode: branch and `jal` displacements print as numbers.
    #[test]
    fn disasm_asm_roundtrip(i in arb_valid_insn()) {
        use Opcode::*;
        // Nop/halt/sys render without their (ignored) operand fields;
        // normalize them so the round trip is well-defined.
        let i = match i.op {
            Nop | Halt => Insn::new(i.op, 0, 0, 0, 0),
            Sys => Insn::new(i.op, 0, 0, 0, i.imm.max(0)),
            _ => i,
        };
        let text = disassemble(i);
        let img = assemble(&text).unwrap();
        let word = u32::from_le_bytes(img.bytes[0..4].try_into().unwrap());
        // Unused operand fields (e.g. the imm of a 3-register ALU op)
        // are not printable, so compare the *semantic* rendering of
        // the reassembled word, not the raw bits.
        prop_assert_eq!(disassemble(decode(word).unwrap()), text);
    }

    /// Register ALU ops match reference Rust arithmetic.
    #[test]
    fn alu_reference_semantics(a in any::<u64>(), b in any::<u64>()) {
        let cases: Vec<(Opcode, Option<u64>)> = vec![
            (Opcode::Add, Some(a.wrapping_add(b))),
            (Opcode::Sub, Some(a.wrapping_sub(b))),
            (Opcode::Mul, Some(a.wrapping_mul(b))),
            (Opcode::And, Some(a & b)),
            (Opcode::Or, Some(a | b)),
            (Opcode::Xor, Some(a ^ b)),
            (Opcode::Shl, Some(a.wrapping_shl(b as u32))),
            (Opcode::Shr, Some(a.wrapping_shr(b as u32))),
            (Opcode::Sltu, Some((a < b) as u64)),
            (Opcode::Slt, Some(((a as i64) < (b as i64)) as u64)),
            (Opcode::Divu, a.checked_div(b)),
            (Opcode::Modu, a.checked_rem(b)),
        ];
        for (op, expect) in cases {
            let mut mem = AddressSpace::new();
            mem.map_zero(Region::new(0, 0x1000), Perm::RW).unwrap();
            mem.write_u32(0, encode(Insn::new(op, 3, 1, 2, 0))).unwrap();
            mem.write_u32(4, encode(Insn::new(Opcode::Halt, 0, 0, 0, 0)))
                .unwrap();
            let mut cpu = Cpu::new();
            cpu.regs.gpr[1] = a;
            cpu.regs.gpr[2] = b;
            let exit = cpu.run(&mut mem, None);
            match expect {
                Some(v) => {
                    prop_assert_eq!(exit, VmExit::Halt, "{:?}", op);
                    prop_assert_eq!(cpu.regs.gpr[3], v, "{:?}", op);
                }
                None => {
                    let trapped = matches!(exit, VmExit::Trap(_));
                    prop_assert!(trapped, "{:?} should trap", op);
                }
            }
        }
    }

    /// Any random word sequence executes deterministically: two CPUs
    /// stepping the same memory agree on every architectural state.
    #[test]
    fn random_programs_deterministic(words in proptest::collection::vec(any::<u32>(), 1..64)) {
        let build = || {
            let mut mem = AddressSpace::new();
            mem.map_zero(Region::new(0, 0x2000), Perm::RW).unwrap();
            for (i, w) in words.iter().enumerate() {
                mem.write_u32((i * 4) as u64, *w).unwrap();
            }
            (Cpu::new(), mem)
        };
        let (mut c1, mut m1) = build();
        let (mut c2, mut m2) = build();
        let e1 = c1.run(&mut m1, Some(10_000));
        let e2 = c2.run(&mut m2, Some(10_000));
        prop_assert_eq!(e1, e2);
        prop_assert_eq!(c1.regs, c2.regs);
        prop_assert_eq!(c1.insn_count, c2.insn_count);
        prop_assert_eq!(m1.content_digest(), m2.content_digest());
    }

    /// Chopping execution into arbitrary quanta never changes the
    /// outcome (preemption transparency).
    #[test]
    fn arbitrary_quanta_transparent(
        words in proptest::collection::vec(any::<u32>(), 1..48),
        quanta in proptest::collection::vec(1u64..97, 1..64),
    ) {
        let build = || {
            let mut mem = AddressSpace::new();
            mem.map_zero(Region::new(0, 0x2000), Perm::RW).unwrap();
            for (i, w) in words.iter().enumerate() {
                mem.write_u32((i * 4) as u64, *w).unwrap();
            }
            (Cpu::new(), mem)
        };
        let total: u64 = quanta.iter().sum();
        let (mut c1, mut m1) = build();
        let e1 = c1.run(&mut m1, Some(total));

        let (mut c2, mut m2) = build();
        let mut e2 = VmExit::OutOfBudget;
        for q in &quanta {
            e2 = c2.run(&mut m2, Some(*q));
            if e2 != VmExit::OutOfBudget {
                break;
            }
        }
        // If the chopped run ended early on halt/trap/sys, the
        // unchopped run saw the same exit; if it ran out of budget,
        // both consumed exactly `total` instructions.
        prop_assert_eq!(e1, e2);
        prop_assert_eq!(c1.regs, c2.regs);
        prop_assert_eq!(c1.insn_count, c2.insn_count);
        prop_assert_eq!(m1.content_digest(), m2.content_digest());
    }

    /// The `li` pseudo-instruction loads any 64-bit constant.
    #[test]
    fn li_loads_any_constant(v in any::<u64>()) {
        let img = assemble(&format!("li r7, {v}\nhalt")).unwrap();
        let mut mem = AddressSpace::new();
        mem.map_zero(Region::new(0, 0x1000), Perm::RW).unwrap();
        mem.write(0, &img.bytes).unwrap();
        let mut cpu = Cpu::new();
        prop_assert_eq!(cpu.run(&mut mem, None), VmExit::Halt);
        prop_assert_eq!(cpu.regs.gpr[7], v);
    }

    /// Memory stores then loads round-trip at every width/alignment.
    #[test]
    fn load_store_roundtrip(v in any::<u64>(), off in 0u64..4088) {
        let mut mem = AddressSpace::new();
        mem.map_zero(Region::new(0, 0x3000), Perm::RW).unwrap();
        let prog = format!(
            "li r5, {addr}\nli r1, {v}\nstd r1, [r5+0]\nldd r2, [r5+0]\nldw r3, [r5+0]\nldb r4, [r5+0]\nhalt",
            addr = 0x2000 + off,
        );
        let img = assemble(&prog).unwrap();
        mem.write(0, &img.bytes).unwrap();
        let mut cpu = Cpu::new();
        prop_assert_eq!(cpu.run(&mut mem, None), VmExit::Halt);
        prop_assert_eq!(cpu.regs.gpr[2], v);
        prop_assert_eq!(cpu.regs.gpr[3], v & 0xffff_ffff);
        prop_assert_eq!(cpu.regs.gpr[4], v & 0xff);
    }
}

/// Regs sanity outside proptest: default is all-zero at pc 0.
#[test]
fn fresh_cpu_state() {
    let c = Cpu::new();
    assert_eq!(c.regs, Regs::default());
    assert_eq!(c.insn_count, 0);
}

/// The opcode table against `exec!`: one slow-path step of every opcode
/// loads or stores exactly its form's width, touches the data page only
/// if its form is a load or a store, stops the run only if its form
/// says so, and leaves `pc` at one of its form's successors. Across the
/// two register files (`rs == rt`, `rs < rt`) every branch takes both
/// of its edges.
#[test]
fn every_opcode_steps_as_its_form_says() {
    const PC: u64 = 0x100;
    const DATA: u64 = 0x1000;
    for &op in Opcode::ALL {
        let insn = Insn::new(op, 1, 2, 3, 8);
        let mut left = std::collections::BTreeSet::new();
        for rt in [DATA, DATA + 1] {
            let mut mem = AddressSpace::new();
            mem.map_zero(Region::new(0, 0x2000), Perm::RW).unwrap();
            mem.write(PC, &encode(insn).to_le_bytes()).unwrap();
            mem.write(DATA, &[0xff; 32]).unwrap();
            let mut cpu = Cpu::slow_path();
            cpu.regs.pc = PC;
            (cpu.regs.gpr[2], cpu.regs.gpr[3]) = (DATA, rt);
            let mut log = PageLog::new();
            let exit = cpu.run_observed(&mut mem, Some(1), &mut log);
            let mut data = [0; 32];
            mem.read(DATA, &mut data).unwrap();
            let stored = data.iter().filter(|&&b| b == 0).count();
            let data_page = DATA >> 12;
            let read_data = log.pages_read().contains(&data_page);
            let wrote_data = log.pages_written().contains(&data_page);
            match op.form() {
                Form::Load(w) => {
                    assert!(read_data && !wrote_data && stored == 0, "{op:?}");
                    assert_eq!(
                        cpu.regs.gpr[1],
                        u64::MAX >> (64 - 8 * u32::from(w)),
                        "{op:?}"
                    );
                }
                Form::Store(w) => assert!(wrote_data && stored == usize::from(w), "{op:?}"),
                _ => assert!(!read_data && !wrote_data && stored == 0, "{op:?}"),
            }
            let flow = op.form().flow();
            let (next, target) = (PC + 4, insn.branch_target(PC));
            let successors = match flow {
                Flow::Fall | Flow::Stop => vec![next],
                Flow::Branch => vec![next, target],
                Flow::Jump => vec![target],
                Flow::Indirect => vec![DATA + 8],
            };
            assert!(
                successors.contains(&cpu.regs.pc),
                "{op:?} left pc {:#x}",
                cpu.regs.pc
            );
            let stopped = matches!(exit, VmExit::Halt | VmExit::Sys(_));
            assert_eq!(stopped, flow == Flow::Stop, "{op:?} {exit:?}");
            assert!(stopped || exit == VmExit::OutOfBudget, "{op:?} {exit:?}");
            left.insert(cpu.regs.pc);
        }
        if op.form().flow() == Flow::Branch {
            assert_eq!(left.len(), 2, "{op:?} took one edge only");
        }
    }
}
