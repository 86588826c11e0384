//! The registered corpus of VM-coded programs.
//!
//! Every VM assembly source the repository runs repeatedly — the
//! paper-workload kernels behind the MIPS table, the conformance
//! scenarios' guests, and the microbench loops — lives here, in the
//! crate that owns the ISA, so the benches (`det-bench`), the
//! conformance registry (`det-conform`), and the static analyzer's
//! soundness gate (`det-analyze`) all exercise the *same* programs.
//! The gate in particular iterates [`PROGRAMS`]: for each entry it
//! must prove the statically predicted write footprint a superset of
//! the pages the interpreter actually dirties.
//!
//! Programs run in the **standard sandbox**: code loaded at address 0
//! inside a zero-filled RW window `[0, 0x10000)`, plus a far window
//! `[0x100000, 0x180000)` for the TLB-hostile stride loop. Kernels
//! marked as looping run forever and are bounded by an instruction
//! budget; the rest halt (or `sys`-exit) on their own.
//!
//! Every kernel is written in the **analyzable pointer idiom** that
//! `det-analyze`'s interval/stride abstract interpreter can bound:
//! loops branch on the marching pointer itself (`bltu rP, rEnd`)
//! instead of on a detached counter, companion pointers are derived
//! affinely from the guarded one (`add r6, r5, r11`), and the
//! quicksort guest `andi`-masks every data-dependent index to the
//! sandbox window before dereferencing it. Concretely the masks and
//! guards are no-ops (in-range data stays in range); abstractly they
//! are what lets an interval analysis prove a tight page footprint —
//! the same belt-and-braces bounding a deterministic sandbox applies
//! to untrusted code.

use det_memory::{AddressSpace, Perm, Region};

use crate::{Cpu, assemble};

/// Builds the standard sandbox (module docs) with `src` assembled and
/// loaded at address 0, and a fresh [`Cpu`] to run it.
///
/// # Panics
///
/// If `src` does not assemble or does not fit the low window.
pub fn sandbox(src: &str) -> (Cpu, AddressSpace) {
    let image = assemble(src).expect("program assembles");
    let mut mem = AddressSpace::new();
    mem.map_zero(Region::new(0, 0x10000), Perm::RW)
        .expect("low window maps");
    mem.map_zero(Region::new(0x100000, 0x180000), Perm::RW)
        .expect("far window maps");
    mem.write(0, &image.bytes)
        .expect("image fits the low window");
    (Cpu::new(), mem)
}

/// A registered VM program: a name, its assembly source, and an
/// instruction budget that reaches steady state (for looping kernels)
/// or completion (for halting guests).
#[derive(Clone, Copy, Debug)]
pub struct VmProgram {
    /// Short stable name (keys bench ids and gate report rows).
    pub name: &'static str,
    /// Assembly source for [`crate::assemble`].
    pub src: &'static str,
    /// Instruction budget for a standalone differential run.
    pub budget: u64,
}

/// The synthetic ALU loop `vm_interpreter_mips` has always measured:
/// pure fetch/decode/dispatch, no data memory.
pub const ALU_LOOP: &str = "
    ldi r1, 0
loop:
    addi r1, r1, 1
    addi r2, r1, 3
    xor  r3, r2, r1
    beq r0, r0, loop
";

/// fft: the butterfly — two f64 loads, add/sub/scale, two stores,
/// marching a pair of pointers across a 2 KiB array. Loops bound the
/// marching pointer directly; `b[]` is derived affinely from `a[]`.
pub const FFT_KERNEL: &str = "
    li   r5, 0x8000        ; a[]
    li   r11, 0x400        ; b[] - a[]
    li   r12, 0x8400       ; a[] end
    ldi  r1, 3
    cvtif r10, r1          ; twiddle-ish scale 3.0
init:
    addi r1, r1, 1
    cvtif r2, r1
    add  r6, r5, r11
    std  r2, [r5+0]
    std  r2, [r6+0]
    addi r5, r5, 8
    bltu r5, r12, init
outer:
    li   r5, 0x8000
pass:
    add  r6, r5, r11
    ldd  r2, [r5+0]        ; x = a[i]
    ldd  r3, [r6+0]        ; y = b[i]
    fmul r4, r3, r10       ; t = y * w
    fadd r8, r2, r4        ; a' = x + t
    fsub r9, r2, r4        ; b' = x - t
    std  r8, [r5+0]
    std  r9, [r6+0]
    addi r5, r5, 8
    bltu r5, r12, pass
    beq  r0, r0, outer
";

/// matmult: the dot-product inner loop — two f64 loads, fused
/// multiply-accumulate, one store per row.
pub const MATMULT_KERNEL: &str = "
    li   r5, 0x8000        ; row of A
    li   r11, 0x800        ; column of B - row of A
    li   r12, 0x8800       ; row end
    ldi  r1, 0
init:
    addi r1, r1, 1
    cvtif r2, r1
    add  r6, r5, r11
    std  r2, [r5+0]
    std  r2, [r6+0]
    addi r5, r5, 8
    bltu r5, r12, init
outer:
    li   r5, 0x8000
    ldi  r9, 0
    cvtif r9, r9           ; acc = 0.0
dot:
    add  r6, r5, r11
    ldd  r2, [r5+0]        ; A[i][k]
    ldd  r3, [r6+0]        ; B[k][j]
    fmul r4, r2, r3
    fadd r9, r9, r4        ; acc += A*B
    addi r5, r5, 8
    bltu r5, r12, dot
    li   r6, 0x9000
    std  r9, [r6+0]        ; C[i][j] = acc
    beq  r0, r0, outer
";

/// md5: the round function's shape — load a word, mix with rotates
/// (shl/shr/or), adds and xors against round constants, store back.
pub const MD5_KERNEL: &str = "
    li   r5, 0x8000        ; 64-word block
    li   r12, 0x8100       ; block end
    ldi  r1, 0
init:
    addi r1, r1, 1
    muli r2, r1, 0x61d
    stw  r2, [r5+0]
    addi r5, r5, 4
    bltu r5, r12, init
    li   r10, 0x67452301   ; state a
    li   r11, 0xefcdab89   ; state b
outer:
    li   r5, 0x8000
round:
    ldw  r2, [r5+0]        ; m = block[i]
    add  r3, r10, r2       ; a + m
    li   r4, 0x5a827999
    add  r3, r3, r4        ; + k
    shli r8, r3, 7         ; rotl 7
    shri r9, r3, 57
    or   r3, r8, r9
    xor  r3, r3, r11       ; mix with b
    add  r10, r11, r3      ; rotate state
    or   r11, r3, r0
    stw  r3, [r5+0]        ; write the lane back
    addi r5, r5, 4
    bltu r5, r12, round
    beq  r0, r0, outer
";

/// A TLB-hostile load loop: alternating accesses 64 pages apart map to
/// the same direct-mapped TLB index with different tags, so every load
/// misses — the miss-path microbench.
pub const TLB_MISS_STRIDE: &str = "
    li   r5, 0x100000
    li   r6, 0x140000      ; +64 pages: same TLB set, different page
loop:
    ldd  r1, [r5+0]
    ldd  r2, [r6+0]
    beq  r0, r0, loop
";

/// The shared quicksort body: LCG-fill 64 u64s at `0x8000`, iterative
/// in-place quicksort with an explicit range stack at `0x9000`, then
/// an unsigned sortedness sweep leaving a 0/1 flag at `0x8800`.
/// Data-dependent indices are masked to the sandbox window before
/// every dereference (see the module docs).
macro_rules! qsort_body {
    ($tail:expr) => {
        concat!(
            "
    li   r1, 0x8000        ; a[]
    ldi  r2, 64            ; n
    li   r4, 0x243f6a8885a308d3   ; seed
    li   r13, 0x9000       ; range-stack base
fill:
    ldi  r3, 0
floop:
    li   r10, 0x5851f42d4c957f2d  ; LCG multiplier
    mul  r4, r4, r10
    li   r10, 0x14057b7ef767814f  ; LCG increment
    add  r4, r4, r10
    shli r6, r3, 3
    add  r6, r6, r1
    std  r4, [r6+0]
    addi r3, r3, 1
    blt  r3, r2, floop
    ldi  r15, 0            ; stack byte offset
    ldi  r3, 0             ; push (0, n-1)
    addi r5, r2, -1
    add  r12, r13, r15
    std  r3, [r12+0]
    std  r5, [r12+8]
    addi r15, r15, 16
qloop:
    beq  r15, r0, done
    addi r15, r15, -16
    andi r15, r15, 1023    ; mask: stack stays inside its page
    add  r12, r13, r15
    ldd  r3, [r12+0]       ; lo
    ldd  r5, [r12+8]       ; hi
    andi r3, r3, 127       ; mask: indices stay inside the window
    andi r5, r5, 127
    shli r6, r5, 3
    add  r6, r6, r1
    ldd  r7, [r6+0]        ; pivot = a[hi]
    addi r8, r3, -1        ; i = lo - 1
    mov  r9, r3            ; j = lo
part:
    bge  r9, r5, pdone
    shli r6, r9, 3
    add  r6, r6, r1
    ldd  r10, [r6+0]       ; a[j]
    bgeu r10, r7, pskip
    addi r8, r8, 1
    andi r8, r8, 127
    shli r11, r8, 3
    add  r11, r11, r1
    ldd  r12, [r11+0]      ; swap a[i] <-> a[j]
    std  r10, [r11+0]
    std  r12, [r6+0]
pskip:
    addi r9, r9, 1
    beq  r0, r0, part
pdone:
    addi r8, r8, 1         ; p = i + 1
    andi r8, r8, 127
    shli r11, r8, 3
    add  r11, r11, r1
    ldd  r12, [r11+0]
    std  r7, [r11+0]       ; a[p] = pivot
    shli r6, r5, 3
    add  r6, r6, r1
    std  r12, [r6+0]       ; a[hi] = old a[p]
    addi r10, r8, -1       ; push (lo, p-1) when non-trivial
    bge  r3, r10, skip1
    andi r15, r15, 1023
    add  r12, r13, r15
    std  r3, [r12+0]
    std  r10, [r12+8]
    addi r15, r15, 16
skip1:
    addi r10, r8, 1        ; push (p+1, hi) when non-trivial
    bge  r10, r5, skip2
    andi r15, r15, 1023
    add  r12, r13, r15
    std  r10, [r12+0]
    std  r5, [r12+8]
    addi r15, r15, 16
skip2:
    beq  r0, r0, qloop
done:
    ldi  r12, 1            ; sortedness sweep
    ldi  r3, 1
check:
    bge  r3, r2, fin
    shli r6, r3, 3
    add  r6, r6, r1
    ldd  r10, [r6+0]
    ldd  r11, [r6-8]
    bgeu r10, r11, cok
    ldi  r12, 0
cok:
    addi r3, r3, 1
    beq  r0, r0, check
fin:
    li   r6, 0x8800
    std  r12, [r6+0]       ; 1 = sorted
",
            $tail
        )
    };
}

/// qsort, looping: each round re-fills the array from the evolving LCG
/// seed and re-sorts — the branchy, data-dependent MIPS kernel.
pub const QSORT_KERNEL: &str = qsort_body!("    beq  r0, r0, fill\n");

/// qsort, halting: one fill/sort/verify pass, then `halt` — the
/// conformance-scenario guest and the gate's halting witness.
pub const QSORT_SORT: &str = qsort_body!("    halt\n");

/// The `vm_sandbox` scenario's untrusted guest: an unbounded Fibonacci
/// loop the kernel preempts at exact instruction counts.
pub const FIB_PREEMPT: &str = "
    ldi r3, 0
    ldi r4, 1
    ldi r5, 0
loop:
    add r6, r3, r4
    mov r3, r4
    mov r4, r6
    addi r5, r5, 1
    beq r0, r0, loop
";

/// The `vm_counter_stream` scenario's guest: streams counter values to
/// the parent through a `sys`/`Ret` loop, then halts. The slot pointer
/// is re-established after every `sys` — the kernel may rewrite any
/// register across a syscall, so the analyzer havocs the whole file
/// there; reloading the pointer keeps the footprint bounded.
pub const COUNTER_STREAM: &str = "
    ldi r1, 0
loop:
    li  r5, 0x2000
    addi r1, r1, 1
    std r1, [r5+0]
    sys 0
    li  r6, 4
    blt r1, r6, loop
    halt
";

/// Every registered VM program, in stable order. The static analyzer's
/// soundness gate runs each entry differentially: predicted write
/// footprint ⊇ observed dirty pages, predicted read footprint ⊇
/// observed touched-read pages (fetches included), on a standalone run
/// of `budget` instructions in the standard sandbox.
pub const PROGRAMS: &[VmProgram] = &[
    VmProgram {
        name: "alu_loop",
        src: ALU_LOOP,
        budget: 20_000,
    },
    VmProgram {
        name: "fft",
        src: FFT_KERNEL,
        budget: 50_000,
    },
    VmProgram {
        name: "matmult",
        src: MATMULT_KERNEL,
        budget: 50_000,
    },
    VmProgram {
        name: "md5",
        src: MD5_KERNEL,
        budget: 50_000,
    },
    VmProgram {
        name: "tlb_stride",
        src: TLB_MISS_STRIDE,
        budget: 20_000,
    },
    VmProgram {
        name: "qsort",
        src: QSORT_KERNEL,
        budget: 120_000,
    },
    VmProgram {
        name: "qsort_sort",
        src: QSORT_SORT,
        budget: 120_000,
    },
    VmProgram {
        name: "fib_preempt",
        src: FIB_PREEMPT,
        budget: 10_000,
    },
    VmProgram {
        name: "counter_stream",
        src: COUNTER_STREAM,
        budget: 1_000,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VmExit;

    #[test]
    fn every_program_assembles_and_runs_trap_free() {
        for p in PROGRAMS {
            let (mut cpu, mut mem) = sandbox(p.src);
            let exit = cpu.run(&mut mem, Some(p.budget));
            assert!(
                matches!(exit, VmExit::OutOfBudget | VmExit::Halt | VmExit::Sys(_)),
                "{}: unexpected exit {exit:?}",
                p.name
            );
        }
    }

    #[test]
    fn qsort_sorts_and_halts() {
        let (mut cpu, mut mem) = sandbox(QSORT_SORT);
        assert_eq!(cpu.run(&mut mem, Some(120_000)), VmExit::Halt);
        assert_eq!(mem.read_u64(0x8800).unwrap(), 1, "sortedness flag");
        let mut prev = 0u64;
        let mut distinct = 0;
        for i in 0..64u64 {
            let v = mem.read_u64(0x8000 + i * 8).unwrap();
            assert!(v >= prev, "a[{i}] out of order");
            if v != prev {
                distinct += 1;
            }
            prev = v;
        }
        assert!(distinct > 32, "LCG fill should be near-distinct");
    }

    #[test]
    fn qsort_kernel_loops_forever() {
        let (mut cpu, mut mem) = sandbox(QSORT_KERNEL);
        assert_eq!(cpu.run(&mut mem, Some(300_000)), VmExit::OutOfBudget);
        // Several full rounds completed: the flag is set and the array
        // page has been rewritten many times.
        assert_eq!(mem.read_u64(0x8800).unwrap(), 1);
    }
}
