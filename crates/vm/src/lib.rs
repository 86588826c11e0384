//! A deterministic RISC-style virtual CPU for the Determinator
//! reproduction.
//!
//! The paper's kernel enforces determinism on *arbitrary* user code:
//! unprivileged spaces have no instruction that can observe real time,
//! scheduling, or any other nondeterministic input, and the kernel can
//! preempt a space after a precise number of instructions (the
//! PA-RISC/ReVirt "instruction limit" of §3.2, used by the
//! deterministic scheduler of §4.5).
//!
//! We cannot run native x86 rings in a library, so this crate provides
//! the equivalent: a small 64-bit ISA whose only effects are on the
//! space's private registers ([`Regs`]) and its private
//! [`det_memory::AddressSpace`], interpreted with an exact
//! architectural instruction counter and mid-stream preemption
//! ([`Cpu::run`] with a budget). A program that wants anything beyond
//! pure computation must execute `SYS`, which hands control to the
//! kernel — exactly the paper's trap-or-syscall containment argument.
//!
//! # Examples
//!
//! ```
//! use det_memory::{AddressSpace, Perm, Region};
//! use det_vm::{assemble, Cpu, VmExit};
//!
//! let image = assemble(
//!     "
//!     li   r1, 6
//!     li   r2, 7
//!     mul  r1, r1, r2
//!     halt
//!     ",
//! )
//! .unwrap();
//! let mut mem = AddressSpace::new();
//! mem.map_zero(Region::new(0, 0x1000), Perm::RW).unwrap();
//! mem.write(0, &image.bytes).unwrap();
//!
//! let mut cpu = Cpu::new();
//! let exit = cpu.run(&mut mem, None);
//! assert_eq!(exit, VmExit::Halt);
//! assert_eq!(cpu.regs.gpr[1], 42);
//! ```

mod asm;
pub mod corpus;
mod interp;
mod isa;
mod observe;
mod regs;

pub use asm::{AsmError, Image, MAX_IMAGE_BYTES, assemble};
pub use interp::{Cpu, CpuCacheStats, VmExit, VmTrap};
pub use isa::{DecodeError, Flow, Form, Insn, Opcode, decode, disassemble, encode};
pub use observe::PageLog;
pub use regs::Regs;
