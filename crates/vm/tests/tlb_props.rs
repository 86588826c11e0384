//! Differential property suite for the VM's software TLB + predecoded
//! instruction cache (the PR-2-style merge-oracle technique, applied to
//! the interpreter): every random program is executed twice, once with
//! the fast path ([`Cpu::new`]) and once with it disabled
//! ([`Cpu::slow_path`] — the original interpreter), under identical
//! preemption quanta and identical externally-applied kernel operations
//! (writes, permission flips, snapshot + merge, fresh mappings, virtual
//! copies, tracker install/removal). The two executions must agree on
//! *everything observable*: every exit (including traps and their
//! order), every register, the retired-instruction count, the final
//! memory digest, the dirty write-set, merge statistics and conflicts
//! under all three conflict policies, and the access tracker's page
//! log. The caches are allowed to change performance only.

use det_memory::{AccessTracker, AddressSpace, ConflictPolicy, Perm, Region};
use det_vm::{Cpu, Insn, Opcode, VmExit, encode};
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
                let installed = mem.copy_from(&mem.clone(), leaf, 0).unwrap();
                format!("leafcopy {installed}")
            } else {
                let installed = mem.copy_from(&mem.clone(), DATA, 0x6000).unwrap();
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
/// every observation point. Returns (exits, final digest) for extra
/// checks.
fn differential_run(
    words: &[u32],
    quanta: &[u64],
    ops: &[u8],
    policy: ConflictPolicy,
    tracked: bool,
) -> Result<(), TestCaseError> {
    let (mut fast, mut mem_f) = build(words);
    let (_, mut mem_s) = build(words);
    let mut slow = Cpu::slow_path();
    slow.regs = fast.regs;
    let (tf, ts) = (AccessTracker::new(), AccessTracker::new());
    if tracked {
        mem_f.set_tracker(Some(tf.clone()));
        mem_s.set_tracker(Some(ts.clone()));
    }
    let (mut sib_f, mut sib_s) = (None, None);
    for (i, &q) in quanta.iter().enumerate() {
        let ef = fast.run(&mut mem_f, Some(q));
        let es = slow.run(&mut mem_s, Some(q));
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
    if tracked {
        prop_assert_eq!(tf.pages_read(), ts.pages_read());
        prop_assert_eq!(tf.pages_written(), ts.pages_written());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(220))]

    /// The headline differential: random programs, random preemption
    /// quanta, random mid-run kernel operations, all three conflict
    /// policies — fast and slow paths byte-identical throughout.
    #[test]
    fn fast_path_is_semantically_invisible(
        words in arb_program(),
        quanta in proptest::collection::vec(1u64..80, 1..10),
        ops in proptest::collection::vec(0u8..=255, 0..10),
        pol in 0u8..3,
    ) {
        let policy = match pol {
            0 => ConflictPolicy::Strict,
            1 => ConflictPolicy::BenignSameValue,
            _ => ConflictPolicy::ChildWins,
        };
        differential_run(&words, &quanta, &ops, policy, false)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same differential with an access tracker installed: the fast
    /// path must disable itself and leave an identical page log.
    #[test]
    fn tracker_log_is_identical(
        words in arb_program(),
        quanta in proptest::collection::vec(1u64..80, 1..8),
        ops in proptest::collection::vec(0u8..=255, 0..8),
    ) {
        differential_run(&words, &quanta, &ops, ConflictPolicy::Strict, true)?;
    }

    /// Mid-run tracker install/removal: translations cached while
    /// untracked must not leak accesses past a later tracker.
    #[test]
    fn tracker_installed_mid_run(
        words in arb_program(),
        q in 1u64..200,
    ) {
        let (mut fast, mut mem_f) = build(&words);
        let (_, mut mem_s) = build(&words);
        let mut slow = Cpu::slow_path();
        slow.regs = fast.regs;
        // Phase 1: untracked (fast path warms its caches).
        let ef = fast.run(&mut mem_f, Some(q));
        let es = slow.run(&mut mem_s, Some(q));
        prop_assert_eq!(ef, es);
        if !matches!(ef, VmExit::Halt | VmExit::Trap(_)) {
            // Phase 2: tracker installed on both.
            let (tf, ts) = (AccessTracker::new(), AccessTracker::new());
            mem_f.set_tracker(Some(tf.clone()));
            mem_s.set_tracker(Some(ts.clone()));
            let ef = fast.run(&mut mem_f, Some(q));
            let es = slow.run(&mut mem_s, Some(q));
            prop_assert_eq!(ef, es);
            prop_assert_eq!(tf.pages_read(), ts.pages_read());
            prop_assert_eq!(tf.pages_written(), ts.pages_written());
            // Phase 3: tracker removed, fast path resumes.
            mem_f.set_tracker(None);
            mem_s.set_tracker(None);
            let ef = fast.run(&mut mem_f, Some(q));
            let es = slow.run(&mut mem_s, Some(q));
            prop_assert_eq!(ef, es);
        }
        prop_assert_eq!(fast.regs, slow.regs);
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
