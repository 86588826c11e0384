//! Differential property suite for the VM's software TLB + predecoded
//! instruction cache (the PR-2-style merge-oracle technique, applied to
//! the interpreter): every random program is executed twice, once with
//! the fast path ([`Cpu::new`]) and once with it disabled
//! ([`Cpu::slow_path`] — the original interpreter), under identical
//! preemption quanta and identical externally-applied kernel operations
//! (writes, permission flips, snapshot + merge, fresh mappings, virtual
//! copies). The two executions must agree on *everything observable*:
//! every exit (including traps and their order), every register, the
//! retired-instruction count, the final memory digest, the dirty
//! write-set, and merge statistics and conflicts under both
//! conflict policies. The caches are allowed to change performance
//! only. The same differential with the slow side under
//! [`Cpu::run_observed`] shows that observing a run does not perturb
//! it.

use det_memory::{AddressSpace, ConflictPolicy, Perm, Region};
use det_vm::{Cpu, CpuCacheStats, Insn, Opcode, PageLog, VmExit, assemble, corpus, encode};
use proptest::prelude::*;

const CODE: Region = Region {
    start: 0,
    end: 0x2000,
};
const DATA: Region = Region {
    start: 0x8000,
    end: 0xa000,
};
const RO_PAGE: Region = Region {
    start: 0xb000,
    end: 0xc000,
};
/// Everything the programs and mutation ops can touch.
const WORLD: Region = Region {
    start: 0,
    end: 0x10000,
};

/// Maps a generated tuple to an instruction word. The mapping is a
/// pure function, so a failing case's seed reproduces exactly.
fn gen_word((k, rd, rs, rt, raw): (u8, u8, u8, u8, u16)) -> u32 {
    use Opcode::*;
    let alu = [Add, Sub, Mul, And, Or, Xor, Shl, Shr, Sar, Slt, Sltu];
    let alui = [
        Addi, Andi, Ori, Xori, Shli, Shri, Sari, Slti, Muli, Ldi, Ldih,
    ];
    let lds = [Ldb, Ldh, Ldw, Ldd];
    let sts = [Stb, Sth, Stw, Std];
    let brs = [Beq, Bne, Blt, Bge, Bltu, Bgeu];
    let divs = [Div, Mod, Divu, Modu];
    // Destinations avoid the base registers r14/r15 so loads and
    // stores keep landing in interesting places.
    let rd_safe = rd % 14;
    let imm12 = (raw & 0xfff) as i16;
    let simm = (imm12 << 4) >> 4; // sign-extend 12 bits
    match k {
        0..=2 => encode(Insn::new(alu[raw as usize % alu.len()], rd_safe, rs, rt, 0)),
        3..=4 => {
            let op = alui[raw as usize % alui.len()];
            let imm = if op == Ldih { imm12 & 0xfff } else { simm };
            encode(Insn::new(op, rd_safe, rs, 0, imm))
        }
        // Loads/stores against the data base r15 (dense, in-bounds).
        5 => encode(Insn::new(
            lds[raw as usize % lds.len()],
            rd_safe,
            15,
            0,
            (raw & 0x7ff) as i16,
        )),
        6 => encode(Insn::new(
            sts[raw as usize % sts.len()],
            rd_safe,
            15,
            0,
            (raw & 0x7ff) as i16,
        )),
        // Against r14, parked at a page boundary next to an unmapped
        // hole and the read-only page: page-crossing accesses, faults.
        7 => {
            let op = if raw & 1 == 0 {
                lds[raw as usize % lds.len()]
            } else {
                sts[raw as usize % sts.len()]
            };
            encode(Insn::new(op, rd_safe, 14, 0, (raw & 0x1f) as i16 - 8))
        }
        8 => encode(Insn::new(
            brs[raw as usize % brs.len()],
            0,
            rs,
            rt,
            (raw % 9) as i16 - 4,
        )),
        9 => encode(Insn::new(Jal, 13, 0, 0, (raw % 8) as i16)),
        10 => encode(Insn::new(
            divs[raw as usize % divs.len()],
            rd_safe,
            rs,
            rt,
            0,
        )),
        _ => {
            if raw % 7 == 0 {
                0xfe00_0000 | raw as u32 // Illegal opcode: decode trap.
            } else if raw % 5 == 0 {
                encode(Insn::new(Halt, 0, 0, 0, 0))
            } else {
                encode(Insn::new(Sys, 0, 0, 0, (raw & 0xf) as i16))
            }
        }
    }
}

fn arb_program() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(
        (0u8..12, 0u8..16, 0u8..16, 0u8..16, 0u16..4096).prop_map(gen_word),
        4..96,
    )
}

fn build(words: &[u32]) -> (Cpu, AddressSpace) {
    let mut mem = AddressSpace::new();
    mem.map_zero(CODE, Perm::RW).unwrap();
    mem.map_zero(DATA, Perm::RW).unwrap();
    mem.map_zero(RO_PAGE, Perm::R).unwrap();
    for (i, w) in words.iter().enumerate() {
        mem.write_u32((i * 4) as u64, *w).unwrap();
    }
    // Recognizable nonzero data so merges have bytes to move.
    for i in 0..64u64 {
        mem.write_u64(DATA.start + i * 97 % 0x1ff8, i.wrapping_mul(0x9e37))
            .unwrap();
    }
    let mut cpu = Cpu::new();
    cpu.regs.gpr[15] = DATA.start;
    cpu.regs.gpr[14] = DATA.end - 4; // Boundary: hole above, data below.
    (cpu, mem)
}

/// One externally-applied kernel operation between quanta. Applied
/// identically to both executions; returns a digest-like summary so
/// the test can also assert the *operation's* outcome matched.
///
/// `sibling` is a structurally-shared fork of the space that persists
/// across quanta: while it lives, every page-table leaf of `mem` is
/// shared (`AddressSpace::clone` bumps leaf refcounts without bumping
/// the generation), so the VM's cached *write* translations stay
/// tag-valid but must dynamically miss on redemption — the DESIGN.md
/// §5 leaf-exclusivity rule. A fast path that wrote in place anyway
/// would corrupt the sibling, which the caller detects by comparing
/// sibling digests between the fast and slow executions.
fn apply_op(
    op: u8,
    mem: &mut AddressSpace,
    sibling: &mut Option<AddressSpace>,
    policy: ConflictPolicy,
) -> String {
    match op % 8 {
        // External content write (device staging, parent copy-out).
        // May fail if an earlier op write-protected the page; the
        // outcome (either way) must match between executions.
        0 => format!(
            "write {:?}",
            mem.write(DATA.start + 0x123, b"external-write")
        ),
        // Snapshot + three-way merge into a cloned parent: the dirty
        // write-set and generation interplay the TLB must survive.
        1 => {
            let mut parent = mem.clone();
            let snap = mem.snapshot();
            let w = mem.write_u64(DATA.start + 0x800, 0xC0FFEE);
            let merged = parent.try_merge_from(mem, &snap, DATA, policy);
            let merged = merged.map(|(s, c)| (w, s, c));
            let merged = merged.map(|(w, stats, conflict)| {
                format!(
                    "w {w:?} copied {} conflict {conflict:?} parent {:?}",
                    stats.bytes_copied,
                    parent.content_digest()
                )
            });
            format!("merge {merged:?}")
        }
        // Write-protect the first data page...
        2 => {
            mem.set_perm(Region::new(0x8000, 0x9000), Perm::R).unwrap();
            "protect".into()
        }
        // ...and un-protect it again.
        3 => {
            mem.set_perm(Region::new(0x8000, 0x9000), Perm::RW).unwrap();
            "unprotect".into()
        }
        // Fresh zero mapping over the hole the r14 accesses probe.
        4 => {
            mem.map_zero(Region::new(0xa000, 0xb000), Perm::RW).unwrap();
            "map".into()
        }
        // Virtual copy: either a page-granular alias of the data pages
        // over the code region's tail (frames become shared, write
        // translations must COW), or — for high op bytes — a
        // leaf-congruent wholesale self-copy that swaps in the clone's
        // identical 512-page leaf (structural-sharing fast path:
        // generation bump, bulk dirty reassignment).
        5 => {
            if op >= 128 {
                let leaf = Region::new(0, (det_memory::PAGES_PER_LEAF * 4096) as u64);
                let installed = mem.copy_from(&mem.clone(), leaf, 0).unwrap().pages;
                format!("leafcopy {installed}")
            } else {
                let installed = mem.copy_from(&mem.clone(), DATA, 0x6000).unwrap().pages;
                format!("copy {installed}")
            }
        }
        // Fork a long-lived sibling: all leaves shared from here on,
        // with *no* generation bump — cached write translations must
        // start missing via the leaf-exclusivity check alone.
        6 => {
            *sibling = Some(mem.clone());
            format!("fork {}", mem.page_count())
        }
        // Drop the sibling, reporting its digest: it must be identical
        // between the fast and slow executions (it was forked at the
        // same point and never written — any difference means a cached
        // write leaked through a shared leaf).
        _ => {
            let d = sibling.take().map(|s| format!("{:?}", s.content_digest()));
            format!("drop {d:?}")
        }
    }
}

/// Runs the same schedule on fast and slow CPUs, asserting equality at
/// every observation point; with `observed`, the slow side runs under
/// [`Cpu::run_observed`].
fn differential_run(
    words: &[u32],
    quanta: &[u64],
    ops: &[u8],
    policy: ConflictPolicy,
    observed: bool,
) -> Result<(), TestCaseError> {
    let (mut fast, mut mem_f) = build(words);
    let (_, mut mem_s) = build(words);
    let mut slow = Cpu::slow_path();
    slow.regs = fast.regs;
    let mut log = PageLog::new();
    let (mut sib_f, mut sib_s) = (None, None);
    for (i, &q) in quanta.iter().enumerate() {
        let ef = fast.run(&mut mem_f, Some(q));
        let es = if observed {
            slow.run_observed(&mut mem_s, Some(q), &mut log)
        } else {
            slow.run(&mut mem_s, Some(q))
        };
        prop_assert_eq!(ef, es, "exit diverged at quantum {}", i);
        prop_assert_eq!(fast.regs, slow.regs, "registers diverged at quantum {}", i);
        prop_assert_eq!(fast.insn_count, slow.insn_count);
        if matches!(ef, VmExit::Halt | VmExit::Trap(_)) {
            break;
        }
        if let Some(&op) = ops.get(i) {
            let rf = apply_op(op, &mut mem_f, &mut sib_f, policy);
            let rs = apply_op(op, &mut mem_s, &mut sib_s, policy);
            prop_assert_eq!(rf, rs, "kernel op diverged at quantum {}", i);
        }
    }
    prop_assert_eq!(mem_f.content_digest(), mem_s.content_digest());
    prop_assert_eq!(mem_f.dirty_vpns_in(WORLD), mem_s.dirty_vpns_in(WORLD));
    // A surviving sibling shares leaves with the executed space; its
    // contents must be unperturbed by the fast path (identical to the
    // slow execution's sibling).
    match (sib_f, sib_s) {
        (Some(a), Some(b)) => prop_assert_eq!(a.content_digest(), b.content_digest()),
        (None, None) => {}
        _ => unreachable!("identical schedules fork identically"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(220))]

    /// The headline differential: random programs, random preemption
    /// quanta, random mid-run kernel operations, both conflict
    /// policies — fast and slow paths byte-identical throughout.
    #[test]
    fn fast_path_is_semantically_invisible(
        words in arb_program(),
        quanta in proptest::collection::vec(1u64..80, 1..10),
        ops in proptest::collection::vec(0u8..=255, 0..10),
        child_wins in any::<bool>(),
    ) {
        let policy = if child_wins { ConflictPolicy::ChildWins } else { ConflictPolicy::Strict };
        differential_run(&words, &quanta, &ops, policy, false)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fast path against the observed slow path: observing a run
    /// does not perturb it.
    #[test]
    fn observing_does_not_perturb_execution(
        words in arb_program(),
        quanta in proptest::collection::vec(1u64..80, 1..8),
        ops in proptest::collection::vec(0u8..=255, 0..8),
    ) {
        differential_run(&words, &quanta, &ops, ConflictPolicy::Strict, true)?;
    }

    /// A CPU whose fast path is warm logs, when observed, exactly what
    /// a cold slow-path CPU logs from the same point: no cached
    /// translation or decode can hide an access.
    #[test]
    fn warm_caches_cannot_hide_an_access(
        words in arb_program(),
        q in 1u64..200,
    ) {
        let (mut fast, mut mem_f) = build(&words);
        let (_, mut mem_s) = build(&words);
        let mut slow = Cpu::slow_path();
        slow.regs = fast.regs;
        // Phase 1: unobserved (the fast path warms its caches).
        let ef = fast.run(&mut mem_f, Some(q));
        let es = slow.run(&mut mem_s, Some(q));
        prop_assert_eq!(ef, es);
        if !matches!(ef, VmExit::Halt | VmExit::Trap(_)) {
            // Phase 2: the warm CPU observed beside a cold one.
            let mut cold = Cpu::slow_path();
            (cold.regs, cold.insn_count) = (slow.regs, slow.insn_count);
            slow = cold;
            let warm = fast.cache_stats;
            let (mut lf, mut ls) = (PageLog::new(), PageLog::new());
            let ef = fast.run_observed(&mut mem_f, Some(q), &mut lf);
            let es = slow.run_observed(&mut mem_s, Some(q), &mut ls);
            prop_assert_eq!(ef, es);
            prop_assert_eq!(lf, ls);
            prop_assert_eq!(fast.cache_stats, warm, "an observed run caches nothing");
            // Phase 3: unobserved again, the fast path resumes.
            let ef = fast.run(&mut mem_f, Some(q));
            let es = slow.run(&mut mem_s, Some(q));
            prop_assert_eq!(ef, es);
        }
        prop_assert_eq!(fast.regs, slow.regs);
        prop_assert_eq!(fast.insn_count, slow.insn_count);
        prop_assert_eq!(mem_f.content_digest(), mem_s.content_digest());
    }
}

// ---------------------------------------------------------------------
// Stat-level lock-in: the reduction the TLB exists for, as hard
// deterministic counters rather than wall-clock.
// ---------------------------------------------------------------------

/// The `vm_interpreter_mips` bench loop plus a load/store pair: the
/// shape of every paper workload's inner loop.
fn hot_loop() -> Vec<u32> {
    use Opcode::*;
    vec![
        encode(Insn::new(Ldi, 1, 0, 0, 0)),   // 0
        encode(Insn::new(Addi, 1, 1, 0, 1)),  // 4  loop:
        encode(Insn::new(Std, 1, 15, 0, 64)), // 8
        encode(Insn::new(Ldd, 2, 15, 0, 64)), // 12
        encode(Insn::new(Addi, 3, 2, 0, 3)),  // 16
        encode(Insn::new(Beq, 0, 0, 0, -5)),  // 20 → 4
    ]
}

#[test]
fn tlb_stats_lock_in_the_reduction() {
    let words = hot_loop();
    let (mut cpu, mut mem) = build(&words);
    let n = 250_000u64;
    assert_eq!(cpu.run(&mut mem, Some(n)), VmExit::OutOfBudget);
    let s = cpu.cache_stats;
    // Pages walked per retired instruction: one walk per *page*, not
    // per access — a handful total for a loop touching two pages.
    assert!(
        s.pages_walked < 16,
        "pages walked {} for {} instructions",
        s.pages_walked,
        n
    );
    assert!(s.hit_rate() > 0.9999, "hit rate {}", s.hit_rate());
    // Every instruction fetch after warmup is an icache hit, and every
    // load/store hits its TLB.
    assert!(s.icache_hits > n - 16);
    assert!(s.tlb_read_hits > n / 6 - 16);
    assert!(s.tlb_write_hits > n / 6 - 16);
    // The identical counters on a second identical run (determinism of
    // the stats themselves — the kernel charges virtual time by them).
    let (mut cpu2, mut mem2) = build(&words);
    assert_eq!(cpu2.run(&mut mem2, Some(n)), VmExit::OutOfBudget);
    assert_eq!(cpu2.cache_stats, s);
}

/// A merge can hand the child's own frame to the parent (the adoption
/// rule, DESIGN.md §3) without touching the child — so the child's
/// generation does not move and its warm *write* translation stays
/// tag-valid while the frame underneath gains a second owner. Resumed
/// without a fresh `Copy`, the child's next store must miss on
/// redemption (frame exclusivity) and copy-on-write: the parent's
/// bytes must not move, and the child must end up exactly where the
/// translation-free interpreter ends up.
#[test]
fn stale_write_translation_cannot_reach_an_adopted_frame() {
    let words = hot_loop();
    let data_vpn = DATA.start >> 12;
    let run = |mut cpu: Cpu| {
        let (built, mut parent) = build(&words);
        cpu.regs = built.regs;
        // Fork: the child shares the parent's frames; snapshot.
        let mut child = AddressSpace::new();
        child.copy_from(&parent, WORLD, 0).unwrap();
        let snap = child.snapshot();
        // Warm the write translation for the data page.
        assert_eq!(cpu.run(&mut child, Some(600)), VmExit::OutOfBudget);
        let generation = child.generation();
        let stats = parent
            .merge_from(&child, &snap, DATA, ConflictPolicy::Strict)
            .unwrap();
        assert_eq!((stats.pages_adopted, stats.pages_diffed), (1, 0));
        assert!(parent.same_frame(&child, data_vpn));
        assert_eq!(child.generation(), generation, "the child is untouched");
        let merged = parent.content_digest();
        let counter = parent.read_u64(DATA.start + 64).unwrap();
        assert_eq!(counter, 120); // 600 instructions: 120 stores of the 5-long loop.
        // Resume with no Copy in between: same CPU, same caches.
        assert_eq!(cpu.run(&mut child, Some(600)), VmExit::OutOfBudget);
        assert_eq!(child.read_u64(DATA.start + 64).unwrap(), 240);
        assert_eq!(
            parent.content_digest(),
            merged,
            "store leaked into the parent"
        );
        assert!(!parent.same_frame(&child, data_vpn));
        (cpu, child.content_digest(), child.dirty_vpns_in(WORLD))
    };
    let (fast, fast_digest, fast_dirty) = run(Cpu::new());
    let (slow, slow_digest, slow_dirty) = run(Cpu::slow_path());
    assert_eq!(fast.regs, slow.regs);
    assert_eq!(fast_digest, slow_digest);
    assert_eq!(fast_dirty, slow_dirty);
    // The fast run really was on its fast path around the merge.
    assert!(
        fast.cache_stats.tlb_write_hits > 150,
        "{:?}",
        fast.cache_stats
    );
}

/// Locked wall-clock regression guard: the fast path must stay at
/// least 2× the slow (pre-TLB) interpreter on the bench loop. The
/// measured margin at introduction was ~5-9×, so 2× holds through
/// host noise; min-of-3 interleaved runs per attempt plus a few whole
/// retries (a true regression fails every attempt, transient host
/// load does not persist across all of them) keep CI from flaking.
/// The deterministic counter-based lock-in above guards the
/// optimization itself; this pins the wall-clock claim.
#[test]
fn fast_path_at_least_2x_slow_path() {
    fn best_ns_per_insn(fast: bool, n: u64) -> f64 {
        let words = hot_loop();
        let mut best = f64::MAX;
        for _ in 0..3 {
            let (mut cpu, mut mem) = build(&words);
            if !fast {
                cpu = Cpu::slow_path();
                cpu.regs.gpr[15] = DATA.start;
            }
            // Warm up, then measure.
            assert_eq!(cpu.run(&mut mem, Some(n / 4)), VmExit::OutOfBudget);
            let start = std::time::Instant::now();
            assert_eq!(cpu.run(&mut mem, Some(n)), VmExit::OutOfBudget);
            best = best.min(start.elapsed().as_nanos() as f64 / n as f64);
        }
        best
    }
    let mut last = (0.0, 0.0);
    for attempt in 0..4 {
        // Grow the sample on retries so later attempts average over
        // more of the noise instead of re-rolling the same dice.
        let n = 400_000u64 << attempt;
        let fast = best_ns_per_insn(true, n);
        let slow = best_ns_per_insn(false, n);
        if fast * 2.0 <= slow {
            return;
        }
        last = (fast, slow);
    }
    panic!(
        "fast path {:.1} ns/insn is not 2x faster than slow path {:.1} ns/insn \
         (4 attempts, rising sample sizes)",
        last.0, last.1
    );
}

// ---------------------------------------------------------------------
// Counter goldens: the counters are charged in virtual time, so a host
// optimisation of the fast path must leave every one of them alone.
// ---------------------------------------------------------------------

/// Runs to `budget` retired instructions (or `halt`) in quanta of
/// `quantum`, resuming after every preemption and `sys`.
fn run_in_quanta(cpu: &mut Cpu, mem: &mut AddressSpace, budget: u64, quantum: u64) {
    while cpu.insn_count < budget {
        match cpu.run(mem, Some(quantum.min(budget - cpu.insn_count))) {
            VmExit::Halt => break,
            VmExit::Sys(_) | VmExit::OutOfBudget => {}
            VmExit::Trap(t) => panic!("unexpected trap {t}"),
        }
    }
}

/// The nine counters the parent commit had, in declaration order
/// (`pin_builds` is newer than the goldens and asserted separately).
fn counters(s: &CpuCacheStats) -> [u64; 9] {
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
    ]
}

/// Everything a golden row pins: counters, retired instructions and
/// the final memory digest.
fn observe(src: &str, budget: u64, quantum: u64) -> ([u64; 9], u64, u64) {
    let (mut cpu, mut mem) = corpus::sandbox(src);
    run_in_quanta(&mut cpu, &mut mem, budget, quantum);
    (
        counters(&cpu.cache_stats),
        cpu.insn_count,
        mem.content_digest().value(),
    )
}

const QUANTA: [u64; 3] = [u64::MAX, 2_000, 97];

/// One hot page (loaded and stored every iteration, so it is pinned)
/// beside two far pages 64 apart that evict each other from both TLBs:
/// every far access is a fill that sends the loop to its outer level
/// and back, re-deriving the hot page's pin each time.
const HOT_PLUS_EVICTING_PAIR: &str = "
    li   r5, 0x100000
    li   r6, 0x140000      ; +64 pages: same TLB index as r5's page
    li   r7, 0x8000        ; the hot page
loop:
    ldd  r1, [r7+0]
    addi r1, r1, 1
    std  r1, [r7+0]
    ldd  r2, [r5+0]
    std  r1, [r5+8]
    ldd  r3, [r6+0]
    std  r1, [r6+8]
    beq  r0, r0, loop
";

/// Recorded at commit 1ede57b — the last interpreter that redeemed a
/// translation on every access — by running this file's `observe`
/// there: `(program, nine counters, retired instructions, digest)`.
/// At that commit each program produced the same row under all three
/// `QUANTA` (the caches survive a preemption), so the 27 observations
/// are nine rows, asserted under every quantum. The fast path may get
/// faster; it may not count differently. A change that moves *when*
/// the caches fill (decoding a whole block at its first fetch, an
/// associative TLB) moves virtual time with it and re-records this
/// table as a stated re-baseline.
#[rustfmt::skip]
const GOLDENS_AT_1EDE57B: [(&str, [u64; 9], u64, u64); 9] = [
    ("alu_loop",       [19_995, 5, 0, 4, 1, 0, 0, 0, 1],                20_000, 0x8246b642002238fc),
    ("fft",            [49_973, 27, 0, 9_821, 2, 10_051, 1, 0, 3],      50_000, 0x35209e08165856bd),
    ("matmult",        [49_971, 29, 0, 13_739, 2, 536, 2, 0, 4],        50_000, 0xb36bbb4b478c076e),
    ("md5",            [49_966, 34, 0, 3_333, 2, 3_364, 1, 0, 3],       50_000, 0x9febf1c073bdd614),
    ("tlb_stride",     [19_993, 7, 0, 4, 13_334, 0, 0, 0, 13_334],      20_000, 0x355e70ccdbf2c8ce),
    ("qsort",          [119_897, 103, 0, 14_487, 3, 10_429, 2, 0, 5],  120_000, 0x5ce2edca96def0a9),
    ("qsort_sort",     [6_326, 103, 0, 867, 3, 533, 2, 0, 5],            6_429, 0x98ff3596689889d5),
    ("fib_preempt",    [9_992, 8, 0, 7, 1, 0, 0, 0, 1],                 10_000, 0xdb243e0186c96a70),
    ("counter_stream", [21, 9, 0, 8, 1, 3, 1, 0, 2],                        30, 0x3a7602d883737bfc),
];

#[test]
fn counters_are_the_parent_commits() {
    assert_eq!(corpus::PROGRAMS.len(), GOLDENS_AT_1EDE57B.len());
    for (p, (name, golden, insns, digest)) in corpus::PROGRAMS.iter().zip(GOLDENS_AT_1EDE57B) {
        assert_eq!(p.name, name);
        for quantum in QUANTA {
            assert_eq!(
                observe(p.src, p.budget, quantum),
                (golden, insns, digest),
                "{name} in quanta of {quantum}"
            );
        }
    }
}

/// The conflict case by construction: the far pages' fills evict each
/// other forever while the hot page's entries stay put. Golden from
/// 1ede57b, as above.
#[test]
fn evicting_pair_beside_a_pinned_page_counts_as_the_parent_did() {
    for quantum in QUANTA {
        assert_eq!(
            observe(HOT_PLUS_EVICTING_PAIR, 40_000, quantum),
            (
                [39_986, 14, 0, 5_010, 10_002, 4_998, 9_999, 0, 20_001],
                40_000,
                0x1c8764614e68df33
            ),
            "quanta of {quantum}"
        );
    }
    let s = fast_vs_oracle(HOT_PLUS_EVICTING_PAIR, 40_000).cache_stats;
    // The hot page is re-pinned after every far excursion.
    assert!(s.pin_builds > 4_000, "{s:?}");
}

/// Registers, retired count and digest of `src` on the slow path.
fn oracle(src: &str, budget: u64) -> (det_vm::Regs, u64, u64) {
    let (_, mut mem) = corpus::sandbox(src);
    let mut slow = Cpu::slow_path();
    run_in_quanta(&mut slow, &mut mem, budget, u64::MAX);
    (slow.regs, slow.insn_count, mem.content_digest().value())
}

/// Runs `src` on the fast path and checks it against the oracle.
fn fast_vs_oracle(src: &str, budget: u64) -> Cpu {
    let (mut cpu, mut mem) = corpus::sandbox(src);
    run_in_quanta(&mut cpu, &mut mem, budget, u64::MAX);
    assert_eq!(
        (cpu.regs, cpu.insn_count, mem.content_digest().value()),
        oracle(src, budget)
    );
    cpu
}

#[test]
fn store_into_a_pinned_code_page_flushes_once_and_runs_the_patch() {
    // Page 0 holds the code *and* the word the loop keeps loading, so
    // its read view is pinned when the patching store arrives.
    let patch = encode(Insn::new(Opcode::Ldi, 2, 0, 0, 7));
    let src = |target: u64| {
        format!(
            "
            li   r4, {patch}
            ldi  r1, 8
        warm:
            ldw  r6, [r0+512]      ; pins page 0 for reading
            addi r1, r1, -1
            bne  r1, r0, warm
        target:
            ldi  r2, 1             ; executed (and cached) before the patch
            bne  r5, r0, done
            ldi  r5, 1
            stw  r4, [r0+{target}]
            beq  r0, r0, target
        done:
            halt
            "
        )
    };
    // The displacement does not change the layout: assemble once to
    // learn where `target` landed.
    let target = assemble(&src(0)).unwrap().labels["target"];
    let src = src(target);
    let cpu = fast_vs_oracle(&src, 1_000);
    assert_eq!(cpu.regs.gpr[2], 7, "the patched instruction must execute");
    assert_eq!(cpu.cache_stats.icache_flushes, 1);
    // A store into a code page is never served by a pin.
    assert_eq!(cpu.cache_stats.tlb_write_hits, 0);
    assert_eq!(cpu.cache_stats.tlb_write_fills, 1);
    assert!(cpu.cache_stats.pin_builds >= 1, "page 0 was pinned");
}

#[test]
fn access_straddling_a_pinned_page_takes_the_slow_path() {
    let src = "
        li   r5, 0x8000
        li   r6, 0x8ffc        ; 8 bytes from here end in the next page
        li   r1, 0x1122334455667788
        std  r1, [r6+0]
        ldi  r3, 50
    loop:
        ldd  r2, [r5+0]
        std  r2, [r5+16]       ; page 8 is pinned, read and write
        ldd  r4, [r6+0]        ; starts in the pinned page, ends past it
        addi r3, r3, -1
        bne  r3, r0, loop
        addi r1, r1, 1
        std  r1, [r6+0]        ; likewise, and bumps the generation
        ldd  r4, [r6+0]
        std  r4, [r5+0]
        ldd  r2, [r5+0]
        halt
    ";
    let cpu = fast_vs_oracle(src, 10_000);
    assert_eq!(cpu.regs.gpr[4], 0x1122334455667789);
    assert_eq!(cpu.regs.gpr[2], cpu.regs.gpr[4]);
    let s = cpu.cache_stats;
    assert_eq!(s.slow_accesses, 53, "{s:?}");
    // Golden from 1ede57b.
    assert_eq!(counters(&s), [245, 23, 0, 69, 5, 49, 2, 53, 60]);
    // The straddling load ends the inner level; the next access to
    // page 8 rebuilds its pin.
    assert!(s.pin_builds >= 45, "page 8 was pinned in every iteration");
}

#[test]
fn first_store_to_a_read_pinned_page_is_one_write_fill() {
    let src = "
        li   r5, 0x8000
        ldi  r3, 20
    reads:
        ldd  r2, [r5+0]        ; the page is pinned read-only here
        addi r3, r3, -1
        bne  r3, r0, reads
        ldi  r3, 20
    writes:
        std  r3, [r5+8]
        addi r3, r3, -1
        bne  r3, r0, writes
        halt
    ";
    let s = fast_vs_oracle(src, 10_000).cache_stats;
    assert_eq!((s.tlb_write_fills, s.tlb_write_hits), (1, 19), "{s:?}");
    assert_eq!(s.slow_accesses, 0);
    // Pinned for the reads, and again — writable — after the fill.
    assert!(s.pin_builds >= 2, "{s:?}");
}

/// `pin_builds` is the one counter pins added, so it is the one place
/// their cost shows deterministically: a kernel whose working set fits
/// the pins rebuilds them at most once per icache fill while it warms
/// up and once per quantum after that, and a loop the policy refuses
/// to pin never builds one.
#[test]
fn pins_are_built_once_per_quantum_and_never_for_conflict_misses() {
    let builds = |src: &str, budget: u64, quantum: u64| {
        let (mut cpu, mut mem) = corpus::sandbox(src);
        run_in_quanta(&mut cpu, &mut mem, budget, quantum);
        (cpu.cache_stats.pin_builds, cpu.cache_stats.icache_fills)
    };
    let (one_run, fills) = builds(corpus::FFT_KERNEL, 50_000, u64::MAX);
    assert!((1..=fills).contains(&one_run), "{one_run} builds");
    for quantum in [2_000, 97] {
        let (in_quanta, _) = builds(corpus::FFT_KERNEL, 50_000, quantum);
        let quanta = 50_000u64.div_ceil(quantum);
        assert!(
            (quanta..=one_run + quanta).contains(&in_quanta),
            "{in_quanta} builds in {quanta} quanta"
        );
    }
    for quantum in QUANTA {
        let stride = builds(corpus::TLB_MISS_STRIDE, 20_000, quantum);
        assert_eq!(stride.0, 0, "every stride load is a fill");
        assert_eq!(builds(corpus::ALU_LOOP, 20_000, quantum).0, 0);
    }
}

// ---------------------------------------------------------------------
// Leaf exclusivity below one leaf (DESIGN.md §5): a window that is
// alone in its page-table leaf is handed over by sharing the leaf, so
// the leaf — not its frames — is what gains the second owner.
// ---------------------------------------------------------------------

/// Sixteen pages with page-table leaf 1 to themselves.
const LONE_WINDOW: Region = Region {
    start: 0x20_8000,
    end: 0x21_8000,
};

/// A counter in the window's first page, mirrored into its second:
/// two hot pages, both stored to on every iteration.
const LONE_WINDOW_LOOP: &str = "
    li   r5, 0x208000
    li   r6, 0x209000
loop:
    ldd  r1, [r5+0]
    addi r1, r1, 1
    std  r1, [r5+0]
    std  r1, [r6+8]
    beq  r0, r0, loop
";

/// Runs [`LONE_WINDOW_LOOP`] in a VM child whose window arrived as a
/// shared leaf, eight rounds of 500 instructions each in quanta of
/// `quantum`. Before every round a sibling takes the child's window
/// the way the kernel's `Copy` does — sharing the leaf, which leaves
/// the child's generation and its frames' refcounts where they were —
/// and holds it across the round's quanta. Returns the CPU, the
/// sibling's digest per round, and the child's final digest and dirty
/// set.
fn lone_window_rounds(mut cpu: Cpu, quantum: u64) -> (Cpu, Vec<u64>, u64, Vec<u64>) {
    let image = assemble(LONE_WINDOW_LOOP).expect("assembles");
    let mut master = AddressSpace::new();
    master.map_zero(CODE, Perm::RW).unwrap();
    master.map_zero(LONE_WINDOW, Perm::RW).unwrap();
    master.write(0, &image.bytes).unwrap();
    let mut child = AddressSpace::new();
    child.copy_from(&master, CODE, 0).unwrap();
    let handed = child
        .copy_from(&master, LONE_WINDOW, LONE_WINDOW.start)
        .unwrap();
    assert_eq!((handed.leaves_shared, handed.boundary_pages), (1, 0));

    let window_vpn = LONE_WINDOW.start >> 12;
    let mut sibling = AddressSpace::new();
    let mut held = Vec::new();
    for round in 1..=8u64 {
        let generation = child.generation();
        let taken = sibling
            .copy_from(&child, LONE_WINDOW, LONE_WINDOW.start)
            .unwrap();
        assert_eq!(taken.leaves_shared, 1);
        assert!(sibling.shares_leaf_with(&child, window_vpn));
        assert_eq!(child.generation(), generation, "a copy source is untouched");
        let before = sibling.content_digest();
        run_in_quanta(&mut cpu, &mut child, round * 500, quantum);
        assert_eq!(
            sibling.content_digest(),
            before,
            "round {round}: a store leaked through the shared leaf"
        );
        assert!(!sibling.shares_leaf_with(&child, window_vpn));
        held.push(before.value());
    }
    // 4 000 instructions of a five-long loop, less the preamble.
    assert!(child.read_u64(LONE_WINDOW.start).unwrap() >= 790);
    // The master never saw any of it.
    assert_eq!(master.read_u64(LONE_WINDOW.start).unwrap(), 0);
    let digest = child.content_digest().value();
    (cpu, held, digest, child.dirty_vpns())
}

#[test]
fn stores_through_a_lone_window_leaf_shared_across_quanta_never_leak() {
    // One instruction per `run` call never reaches the inner level:
    // the TLB's own redemption, leaf before frame, serves every store.
    let (tlb, tlb_held, tlb_digest, tlb_dirty) = lone_window_rounds(Cpu::new(), 1);
    // Whole rounds per call: the pins serve nearly all of them.
    let (pinned, pinned_held, pinned_digest, pinned_dirty) = lone_window_rounds(Cpu::new(), 500);
    let (slow, slow_held, slow_digest, slow_dirty) = lone_window_rounds(Cpu::slow_path(), 500);
    assert_eq!(tlb.cache_stats.pin_builds, 0);
    assert!(
        pinned.cache_stats.pin_builds >= 8,
        "{:?}",
        pinned.cache_stats
    );

    assert_eq!((tlb.regs, tlb.insn_count), (slow.regs, slow.insn_count));
    assert_eq!(
        (pinned.regs, pinned.insn_count),
        (slow.regs, slow.insn_count)
    );
    assert_eq!((&tlb_held, &pinned_held), (&slow_held, &slow_held));
    assert_eq!((tlb_digest, pinned_digest), (slow_digest, slow_digest));
    assert_eq!((&tlb_dirty, &pinned_dirty), (&slow_dirty, &slow_dirty));
    // Pins count as the TLB hits they shadow: every walk — one write
    // fill per hot page per round, the re-shared leaf refusing the
    // cached translation — is charged the same with and without them.
    assert_eq!(counters(&tlb.cache_stats), counters(&pinned.cache_stats));
    assert_eq!(pinned.cache_stats.tlb_write_fills, 2 * 8);
}
