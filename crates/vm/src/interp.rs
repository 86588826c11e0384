//! The interpreter: deterministic execution with exact instruction
//! accounting, preemption, and a software TLB + predecoded instruction
//! cache on the hot fetch/load/store paths, with run-scoped page pins
//! and predecoded blocks above them.
//!
//! # The fast path
//!
//! The first-cut interpreter paid a full page-table walk (B-tree
//! lookup, permission check, dirty-set insert,
//! `Arc::make_mut`) for every instruction fetch, load, and store, and
//! re-decoded every instruction word on every step. [`Cpu`] keeps
//! three caches, all validated by the address space's generation
//! counter (see `det_memory::Translation` and DESIGN.md §4):
//!
//! * a direct-mapped **read TLB** and **write TLB** of
//!   [`Translation`]s, so a hit costs one index, one tag compare, and
//!   one O(1) redemption instead of a page-table walk. Write hits
//!   additionally skip the per-store permission re-check, dirty-set
//!   insert, and `Arc::make_mut` — the translation was minted with the
//!   frame exclusively owned and the page already dirty;
//! * a direct-mapped **decoded-instruction cache** keyed by
//!   `(pc, space, generation)`, so straight-line code decodes once.
//!
//! Above the TLBs sit **run-scoped pins**. Redeeming a translation is
//! O(1) but not free — a 40-byte entry copied, identity and generation
//! compared, four dependent pointers chased, and two `Arc::get_mut`s
//! per store — and none of it can come out different while
//! [`Cpu::run`] holds `&mut AddressSpace`. So the fast path runs in
//! three levels ([`Cpu::run_fast`]):
//!
//! 1. an outer one that is the TLB interpreter;
//! 2. an inner one that redeems the TLB entries of up to two hot pages
//!    *once* into page views ([`AddressSpace::pin`]) and then serves
//!    loads and stores to those pages with a page-number compare and a
//!    slice index;
//! 3. inside the inner one, **predecoded blocks**: a run of up to 16
//!    icache hits — through not-taken conditional branches and `jal`s,
//!    up to a `jalr`, `halt` or `sys` — copied out of the icache once
//!    and then found by one tag check and cut to the budget by one
//!    compare, instead of an icache probe and a budget check per
//!    instruction. A block is also translated into **micro-ops**
//!    ([`Uop`]): fields extracted, registers masked, immediates
//!    sign-extended and branch targets resolved once, and the corpus's
//!    hottest adjacent pairs — `li` chains, `addi` + `bltu`, `add` +
//!    `ldd` — fused into one. A block the budget does not cut runs as
//!    micro-ops, one `match` each, and touches `pc`, the retired count
//!    and the hit count only where it leaves.
//!
//! Each opcode's effect on the registers is written once, in the
//! `exec!` table, which both [`step`] (the slow path and the outer
//! level, and a block the budget cuts) and the micro-op dispatch
//! expand.
//!
//! A pin *shadows a valid TLB entry*: a pinned load counts the read-TLB
//! hit it would have been, a pinned store the write-TLB hit, and
//! anything a pin cannot serve drops to the outer level and is
//! performed and counted there as it always was. A block member
//! likewise *is* an icache hit — the block is valid only under a stamp
//! that every icache fill and flush, and every change of space or
//! generation, moves — and counts as one. Every [`CpuCacheStats`]
//! counter the kernel charges virtual time by is therefore the same
//! number with pins and blocks as without; only host time moves.
//!
//! The caches are semantically invisible: every miss or stale hit
//! falls back to the exact slow path, and a store into a page holding
//! cached decodes flushes them (self-modifying code). [`Cpu::slow_path`]
//! builds a CPU that never uses them — the original interpreter, which
//! the differential suites in `tests/tlb_props.rs` and
//! `tests/block_golden.rs` run beside the fast path, demanding
//! byte-identical results and pinning the fast path's counters to
//! goldens recorded before pins, and before blocks, existed.
//!
//! The slow path is also where a run is observed page by page
//! ([`Cpu::run_observed`], the analyzer gate's view of a concrete run):
//! it walks the page table for every fetch, load and store and caches
//! nothing, so no cache can hide an access from the [`PageLog`].
//!
//! One invariant is the caller's: **at most one `Cpu` executes a given
//! `AddressSpace`** (the kernel runs exactly one per space). The fast
//! path's in-place stores bump no generation, so a *second* CPU
//! interleaving stores on the same space could stale the first's
//! cached decodes — see the single-executor contract on
//! `AddressSpace::pin`. External mutation between runs through the
//! ordinary `AddressSpace` API (writes, copies, merges, snapshots) is
//! always safe: those paths bump the generation, and nothing is pinned
//! across runs.

use det_memory::{AddressSpace, MemError, PAGE_SHIFT, PAGE_SIZE, Pinned, Translation};

use crate::isa::{Flow, Insn, Opcode, decode, with_opcodes};
use crate::observe::PageLog;
use crate::regs::Regs;

/// Why the interpreter stopped.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum VmExit {
    /// `halt` executed; status convention: `r1`.
    Halt,
    /// `sys imm` executed: the program requests a kernel service.
    /// The register file holds the arguments; `pc` already points at
    /// the next instruction, so resuming continues after the syscall.
    Sys(u16),
    /// A trap; the faulting instruction did not commit.
    Trap(VmTrap),
    /// The instruction budget was exhausted before the next
    /// instruction; resuming later continues exactly where it left
    /// off. This is the kernel's "instruction limit" (§3.2).
    OutOfBudget,
}

/// Processor trap causes.
///
/// Traps cause an implicit `Ret` to the parent space in the kernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmTrap {
    /// Memory fault (unmapped or permission-denied access).
    Mem(MemError),
    /// Undefined opcode byte.
    IllegalInstruction(u8),
    /// Integer division or remainder by zero.
    DivideByZero,
    /// The program counter is not 4-byte aligned.
    PcMisaligned(u64),
}

impl std::fmt::Display for VmTrap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmTrap::Mem(e) => write!(f, "memory fault: {e}"),
            VmTrap::IllegalInstruction(b) => write!(f, "illegal instruction {b:#04x}"),
            VmTrap::DivideByZero => write!(f, "integer divide by zero"),
            VmTrap::PcMisaligned(pc) => write!(f, "misaligned pc {pc:#x}"),
        }
    }
}

/// Entries per direct-mapped TLB (separate read and write arrays).
const DTLB_ENTRIES: usize = 64;

/// Slots in the exact code-page set backing the self-modifying-code
/// filter; programs spanning more distinct code pages fall back to
/// flush-on-any-filter-hit.
const CODE_PAGE_SLOTS: usize = 8;

/// Entries in the decoded-instruction cache (4 KiB of straight-line
/// code before conflict evictions start).
const ICACHE_ENTRIES: usize = 1024;

/// One data-TLB entry: a page tag plus its cached translation.
#[derive(Clone, Copy, Debug)]
struct DtlbEntry {
    vpn: u64,
    tr: Translation,
}

impl DtlbEntry {
    /// No virtual address has this page number (48-bit addresses), so
    /// an invalid entry can never tag-match.
    const INVALID: DtlbEntry = DtlbEntry {
        vpn: u64::MAX,
        tr: Translation::INVALID,
    };
}

/// One decoded-instruction cache entry.
#[derive(Clone, Copy, Debug)]
struct ICacheEntry {
    /// Tag: only 4-aligned pcs are ever filled, so `u64::MAX` is a
    /// safe invalid marker.
    pc: u64,
    space_id: u64,
    generation: u64,
    insn: Insn,
}

impl ICacheEntry {
    const INVALID: ICacheEntry = ICacheEntry {
        pc: u64::MAX,
        space_id: 0,
        generation: 0,
        insn: Insn {
            op: Opcode::Nop,
            rd: 0,
            rs: 0,
            rt: 0,
            imm: 0,
        },
    };
}

/// Most instructions one predecoded block holds.
const BLOCK_LEN: usize = 16;

/// Blocks in the block store, direct-mapped by start pc.
const BLOCKS: usize = 32;

/// A predecoded superblock: the decodes of up to [`BLOCK_LEN`]
/// instructions that execute in a row from `pc`, each an icache hit
/// when the block was built. It runs on through not-taken conditional
/// branches and `jal`s and ends with `jalr`, `halt` or `sys`. The
/// members are kept twice: as decodes, for a run the budget cuts short,
/// and translated into [`Uop`]s, for a run of the whole block.
#[derive(Clone, Copy, Debug)]
struct Block {
    /// Tag: the start pc ([`NO_VPN`], which is not 4-aligned, when
    /// empty).
    pc: u64,
    /// The [`Caches::stamp`] the block was built under; any other value
    /// means an icache entry it copied may have changed since.
    stamp: u64,
    /// Where the last member goes on if it does not branch away.
    next: u64,
    /// Each member's pc.
    pcs: [u64; BLOCK_LEN],
    insns: [Insn; BLOCK_LEN],
    uops: [Uop; BLOCK_LEN],
    len: u8,
    /// How many of `uops` the members translated into.
    uop_len: u8,
}

impl Block {
    const EMPTY: Block = Block {
        pc: NO_VPN,
        stamp: 0,
        next: 0,
        pcs: [0; BLOCK_LEN],
        insns: [ICacheEntry::INVALID.insn; BLOCK_LEN],
        uops: [Uop::NOP; BLOCK_LEN],
        len: 0,
        uop_len: 0,
    };
}

macro_rules! uop_kinds {
    ($($name:ident = $val:expr, $mnem:expr, $form:expr;)*) => {
        /// What a micro-op does: one member's opcode, under the
        /// opcode's own name and byte, or an adjacent pair or chain of
        /// members fused into one dispatch. One flat enum, so the
        /// dispatch is one jump table.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(u8)]
        enum UopKind {
            $($name = $val,)*
            /// An `ldi` and the `ldih`s after it that shift into the
            /// same register (an `li` chain): one write of the chain's
            /// value.
            Const,
            /// `addi` then `bltu`: a compare-and-branch.
            AddiBltu,
            /// `add` then `ldd`: an address-and-load.
            AddLdd,
        }

        impl UopKind {
            /// The kind that runs `op` alone.
            fn one(op: Opcode) -> UopKind {
                match op {
                    $(Opcode::$name => UopKind::$name,)*
                }
            }
        }
    };
}

with_opcodes!(uop_kinds);

/// A translated block member, or a fused run of members: the fields
/// `step` would extract on every execution, extracted once.
#[derive(Clone, Copy, Debug)]
struct Uop {
    kind: UopKind,
    /// The block index of the first member it runs.
    first: u8,
    /// `rd`, `rs`, `rt` of its first and second member, masked to the
    /// register file.
    regs: [[Reg; 3]; 2],
    /// Each member's immediate, sign-extended; a branch's or `jal`'s
    /// resolved target instead; a [`UopKind::Const`]'s value.
    imm: [u64; 2],
}

impl Uop {
    const NOP: Uop = Uop {
        kind: UopKind::Nop,
        first: 0,
        regs: [[Reg::R0; 3]; 2],
        imm: [0; 2],
    };
}

/// The fused kind the block builder makes of `a` followed by `b`, if
/// any: the corpus's hottest adjacent pairs (DESIGN.md §4, "Micro-ops").
/// A [`UopKind::Const`] chain goes on through every further `ldih` into
/// the same register.
fn fuse(a: Insn, b: Insn) -> Option<UopKind> {
    match (a.op, b.op) {
        (Opcode::Ldi, Opcode::Ldih) if same_rd(a, b) => Some(UopKind::Const),
        (Opcode::Addi, Opcode::Bltu) => Some(UopKind::AddiBltu),
        (Opcode::Add, Opcode::Ldd) => Some(UopKind::AddLdd),
        _ => None,
    }
}

fn same_rd(a: Insn, b: Insn) -> bool {
    a.rd & 15 == b.rd & 15
}

/// A port with no memory behind it: what the block builder folds an
/// `li` chain with.
struct NoMemory;

impl Port for NoMemory {
    type Miss = ();
    fn load<const N: usize>(&mut self, _: u64) -> Result<[u8; N], ()> {
        Err(())
    }
    fn store<const N: usize>(&mut self, _: u64, _: [u8; N]) -> Result<(), ()> {
        Err(())
    }
}

/// Translates a block's members (`insns`, at `pcs`) into micro-ops,
/// fusing what [`fuse`] names; returns how many it wrote.
fn translate(insns: &[Insn], pcs: &[u64], uops: &mut [Uop; BLOCK_LEN]) -> u8 {
    let mut n = 0;
    let mut i = 0;
    while i < insns.len() {
        let kind = insns
            .get(i + 1)
            .and_then(|&b| fuse(insns[i], b))
            .unwrap_or(UopKind::one(insns[i].op));
        let members = match kind {
            UopKind::Const => {
                2 + insns[i + 2..]
                    .iter()
                    .take_while(|&&b| b.op == Opcode::Ldih && same_rd(insns[i], b))
                    .count()
            }
            UopKind::AddiBltu | UopKind::AddLdd => 2,
            _ => 1,
        };
        let mut uop = Uop {
            kind,
            first: i as u8,
            ..Uop::NOP
        };
        for w in 0..members.min(2) {
            let (insn, at) = (insns[i + w], pcs[i + w]);
            uop.regs[w] = [Reg::new(insn.rd), Reg::new(insn.rs), Reg::new(insn.rt)];
            uop.imm[w] = match insn.op.form().flow() {
                Flow::Branch | Flow::Jump => insn.branch_target(at),
                _ => insn.imm as i64 as u64,
            };
        }
        if kind == UopKind::Const {
            // The chain's value, by the chain's own semantics.
            let (mut regs, mut pc) = (Regs::default(), 0);
            for &insn in &insns[i..i + members] {
                step(&mut regs, insn, &mut pc, &mut NoMemory);
            }
            uop.imm[0] = regs.gpr[Reg::new(insns[i].rd) as usize];
        }
        uops[n] = uop;
        n += 1;
        i += members;
    }
    n as u8
}

/// Counters for the fetch/load/store fast path. Monotonic over the
/// CPU's lifetime; all counts are deterministic functions of the
/// program and the kernel operations applied to its memory, never of
/// host scheduling — which is what lets the kernel charge misses in
/// virtual time.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CpuCacheStats {
    /// Decoded-instruction cache hits.
    pub icache_hits: u64,
    /// Decoded-instruction cache fills (fetch + decode performed).
    pub icache_fills: u64,
    /// Whole-icache flushes forced by stores into cached code pages.
    pub icache_flushes: u64,
    /// Read-TLB hits (loads and instruction fetches).
    pub tlb_read_hits: u64,
    /// Read-TLB fills.
    pub tlb_read_fills: u64,
    /// Write-TLB hits.
    pub tlb_write_hits: u64,
    /// Write-TLB fills.
    pub tlb_write_fills: u64,
    /// Memory accesses that took the full slow path (a page-crossing
    /// or a faulting access).
    pub slow_accesses: u64,
    /// Page-table walks performed on the VM's behalf: every TLB fill
    /// attempt and every slow-path access. The ratio of this to
    /// retired instructions is the stat the TLB exists to crush.
    pub pages_walked: u64,
    /// Times the fast path redeemed TLB entries into pinned page views
    /// ([`AddressSpace::pin`]) on entering its inner loop. Every access
    /// a view serves is counted as the TLB hit it shadows, so this is
    /// the only counter pins add; the kernel does not forward it.
    pub pin_builds: u64,
}

impl CpuCacheStats {
    /// Total TLB + icache hits.
    pub fn hits(&self) -> u64 {
        self.icache_hits + self.tlb_read_hits + self.tlb_write_hits
    }

    /// Total fills (misses that installed a fresh entry).
    pub fn fills(&self) -> u64 {
        self.icache_fills + self.tlb_read_fills + self.tlb_write_fills
    }

    /// Hit rate over all cache probes, in [0, 1]; 1.0 for an idle CPU.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.fills() + self.slow_accesses;
        if total == 0 {
            1.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Counter-wise difference `self - earlier` (for per-quantum
    /// accounting of a live CPU).
    pub fn since(&self, earlier: &CpuCacheStats) -> CpuCacheStats {
        CpuCacheStats {
            icache_hits: self.icache_hits - earlier.icache_hits,
            icache_fills: self.icache_fills - earlier.icache_fills,
            icache_flushes: self.icache_flushes - earlier.icache_flushes,
            tlb_read_hits: self.tlb_read_hits - earlier.tlb_read_hits,
            tlb_read_fills: self.tlb_read_fills - earlier.tlb_read_fills,
            tlb_write_hits: self.tlb_write_hits - earlier.tlb_write_hits,
            tlb_write_fills: self.tlb_write_fills - earlier.tlb_write_fills,
            slow_accesses: self.slow_accesses - earlier.slow_accesses,
            pages_walked: self.pages_walked - earlier.pages_walked,
            pin_builds: self.pin_builds - earlier.pin_builds,
        }
    }
}

/// The translation and decode caches of one [`Cpu`], apart from the
/// architectural state so a memory port can borrow them while the
/// register file is being written.
#[derive(Clone)]
struct Caches {
    dtlb_read: [DtlbEntry; DTLB_ENTRIES],
    dtlb_write: [DtlbEntry; DTLB_ENTRIES],
    icache: [ICacheEntry; ICACHE_ENTRIES],
    /// Coarse filter of code pages with live icache entries: bit
    /// `vpn & 63`. A store whose page hits the filter consults the
    /// exact `code_pages` set before flushing (self-modifying code);
    /// false positives cost a short scan, false negatives cannot
    /// happen.
    code_vpns: u64,
    /// Exact set of code page numbers with live icache entries (first
    /// `code_page_count` slots). Confirms or rejects filter hits, so a
    /// data page that merely aliases a code page mod 64 does not flush
    /// the icache on every store.
    code_pages: [u64; CODE_PAGE_SLOTS],
    code_page_count: u8,
    /// More than `CODE_PAGE_SLOTS` distinct code pages are live: the
    /// exact set is no longer complete, so every filter hit flushes.
    code_pages_overflowed: bool,
    /// The pages the pin policy wants pinned, newer first ([`NO_VPN`]
    /// for none); reset on every entry to [`Cpu::run_fast`]. Here
    /// rather than in a local of that function so its dispatch loop,
    /// which needs it only after a data access, does not carry it in
    /// registers.
    wanted: [u64; 2],
    /// Predecoded blocks, valid while their stamp is `stamp`.
    blocks: [Block; BLOCKS],
    /// Bumped by every icache fill and flush, and whenever the pinned
    /// level is entered for a different `(space_id, generation)` than
    /// `stamped`: while it stands still, every icache entry a block
    /// copied is still there and still a hit.
    stamp: u64,
    stamped: (u64, u64),
}

impl Caches {
    const EMPTY: Caches = Caches {
        dtlb_read: [DtlbEntry::INVALID; DTLB_ENTRIES],
        dtlb_write: [DtlbEntry::INVALID; DTLB_ENTRIES],
        icache: [ICacheEntry::INVALID; ICACHE_ENTRIES],
        code_vpns: 0,
        code_pages: [0; CODE_PAGE_SLOTS],
        code_page_count: 0,
        code_pages_overflowed: false,
        wanted: [NO_VPN; 2],
        blocks: [Block::EMPTY; BLOCKS],
        stamp: 0,
        // Real space ids start at 1.
        stamped: (0, 0),
    };

    /// Drops every cached decode and the code-page bookkeeping.
    fn flush_icache(&mut self) {
        self.stamp += 1;
        self.icache = [ICacheEntry::INVALID; ICACHE_ENTRIES];
        self.code_vpns = 0;
        self.code_pages = [0; CODE_PAGE_SLOTS];
        self.code_page_count = 0;
        self.code_pages_overflowed = false;
    }

    /// True if a store touching pages `vpn..=last_vpn` (one page or
    /// two) may hit cached decodes and so must flush them first
    /// (self-modifying code). The 64-bit filter rejects most stores in
    /// one AND; a filter hit (which a data page aliasing a code page
    /// mod 64 can also produce) is confirmed against the exact
    /// code-page set, so only genuine code stores pay the flush.
    fn holds_code(&self, vpn: u64, last_vpn: u64) -> bool {
        let mask = (1u64 << (vpn & 63)) | (1u64 << (last_vpn & 63));
        if self.code_vpns & mask == 0 {
            return false;
        }
        self.code_pages_overflowed
            || self.code_pages[..self.code_page_count as usize]
                .iter()
                .any(|&p| p == vpn || p == last_vpn)
    }

    /// Records that the icache now holds a decode from page `vpn`.
    fn note_code_page(&mut self, vpn: u64) {
        self.code_vpns |= 1 << (vpn & 63);
        if !self.code_pages[..self.code_page_count as usize].contains(&vpn) {
            if (self.code_page_count as usize) < CODE_PAGE_SLOTS {
                self.code_pages[self.code_page_count as usize] = vpn;
                self.code_page_count += 1;
            } else {
                self.code_pages_overflowed = true;
            }
        }
    }
}

/// A deterministic CPU: registers plus a lifetime instruction counter.
///
/// The memory it executes against is passed to [`Cpu::run`] so the
/// kernel can check a space's memory in and out around preemptions.
/// The translation and decode caches ride along; they validate against
/// the specific `AddressSpace` (identity and generation) on every hit,
/// so a `Cpu` may be kept across preemptions, rendezvous, and even a
/// wholesale replacement of its memory image — stale entries miss,
/// they never lie. Pinned page views never outlive one `run` call.
#[derive(Clone)]
pub struct Cpu {
    /// Architectural register state.
    pub regs: Regs,
    /// Total instructions retired over the CPU's lifetime.
    pub insn_count: u64,
    /// Use the TLB/icache fast path; `false` only for
    /// [`Cpu::slow_path`].
    fast_path: bool,
    /// Fast-path hit/miss counters.
    pub cache_stats: CpuCacheStats,
    caches: Caches,
}

impl Default for Cpu {
    fn default() -> Cpu {
        Cpu {
            regs: Regs::default(),
            insn_count: 0,
            fast_path: true,
            cache_stats: CpuCacheStats::default(),
            caches: Caches::EMPTY,
        }
    }
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("regs", &self.regs)
            .field("insn_count", &self.insn_count)
            .field("fast_path", &self.fast_path)
            .field("cache_stats", &self.cache_stats)
            .finish_non_exhaustive()
    }
}

/// How one instruction reaches memory. The opcode match in [`step`] is
/// written once against this; each execution level supplies its own
/// port.
trait Port {
    /// Why the port did not perform an access.
    type Miss;
    fn load<const N: usize>(&mut self, addr: u64) -> Result<[u8; N], Self::Miss>;
    fn store<const N: usize>(&mut self, addr: u64, data: [u8; N]) -> Result<(), Self::Miss>;
}

/// What one instruction did.
enum Step<M> {
    /// Retired, and `pc` advanced.
    Next,
    /// `halt` or `sys`: retired, `pc` advanced, and the run stops.
    Stop(VmExit),
    /// Trapped without committing.
    Trap(VmTrap),
    /// The port refused the instruction's memory access; nothing
    /// committed.
    Miss(M),
}

/// Every opcode's effect, written once. [`step`] and the micro-op
/// dispatch ([`run_uops`]) each expand it into one `match` on their own
/// operation type `$K` ([`Opcode`] or [`UopKind`], which share the
/// opcodes' names), with register indices `$rd`, `$rs`, `$rt` into
/// `$g`, the immediate `$imm` sign-extended to 64 bits, and `$link` the
/// address after the instruction. What touches `pc` or memory is the
/// caller's: the table calls back `$on!($($ctx)* <event>)` with one of
///
/// * `stop exit` — `halt` or `sys` retired;
/// * `trap t` — the instruction trapped before committing;
/// * `branch taken` — a conditional branch decided;
/// * `jal` — a `jal` wrote its link;
/// * `jalr target` — a `jalr` wrote its link and goes to `target`;
/// * `load N, addr` — evaluates to the `N` bytes at `addr`;
/// * `store addr, bytes`.
///
/// `$arms` are extra arms for the caller's other operations.
macro_rules! exec {
    (
        match $op:expr, as $K:ident;
        regs $g:ident, $rd:expr, $rs:expr, $rt:expr;
        imm $imm:expr, link $link:expr;
        on $on:ident($($ctx:tt)*);
        $($arms:tt)*
    ) => {
        match $op {
            $K::Nop => {}
            $K::Halt => $on!($($ctx)* stop VmExit::Halt),
            $K::Sys => $on!($($ctx)* stop VmExit::Sys($imm as u16 & 0xfff)),

            $K::Add => $g[$rd] = $g[$rs].wrapping_add($g[$rt]),
            $K::Sub => $g[$rd] = $g[$rs].wrapping_sub($g[$rt]),
            $K::Mul => $g[$rd] = $g[$rs].wrapping_mul($g[$rt]),
            $K::Div | $K::Mod | $K::Divu | $K::Modu if $g[$rt] == 0 => {
                $on!($($ctx)* trap VmTrap::DivideByZero)
            }
            $K::Div => $g[$rd] = ($g[$rs] as i64).wrapping_div($g[$rt] as i64) as u64,
            $K::Mod => $g[$rd] = ($g[$rs] as i64).wrapping_rem($g[$rt] as i64) as u64,
            $K::Divu => $g[$rd] = $g[$rs] / $g[$rt],
            $K::Modu => $g[$rd] = $g[$rs] % $g[$rt],
            $K::And => $g[$rd] = $g[$rs] & $g[$rt],
            $K::Or => $g[$rd] = $g[$rs] | $g[$rt],
            $K::Xor => $g[$rd] = $g[$rs] ^ $g[$rt],
            $K::Shl => $g[$rd] = $g[$rs].wrapping_shl($g[$rt] as u32),
            $K::Shr => $g[$rd] = $g[$rs].wrapping_shr($g[$rt] as u32),
            $K::Sar => $g[$rd] = ($g[$rs] as i64).wrapping_shr($g[$rt] as u32) as u64,
            $K::Slt => $g[$rd] = (($g[$rs] as i64) < ($g[$rt] as i64)) as u64,
            $K::Sltu => $g[$rd] = ($g[$rs] < $g[$rt]) as u64,

            $K::Addi => $g[$rd] = $g[$rs].wrapping_add($imm),
            $K::Andi => $g[$rd] = $g[$rs] & $imm,
            $K::Ori => $g[$rd] = $g[$rs] | $imm,
            $K::Xori => $g[$rd] = $g[$rs] ^ $imm,
            $K::Shli => $g[$rd] = $g[$rs].wrapping_shl($imm as u32 & 63),
            $K::Shri => $g[$rd] = $g[$rs].wrapping_shr($imm as u32 & 63),
            $K::Sari => $g[$rd] = ($g[$rs] as i64).wrapping_shr($imm as u32 & 63) as u64,
            $K::Slti => $g[$rd] = (($g[$rs] as i64) < ($imm as i64)) as u64,
            $K::Muli => $g[$rd] = $g[$rs].wrapping_mul($imm),
            $K::Ldi => $g[$rd] = $imm,
            // `ldih`'s immediate is raw bits, never sign-extended.
            $K::Ldih => $g[$rd] = ($g[$rd] << 12) | ($imm & 0xfff),

            $K::Ldb => {
                $g[$rd] = u8::from_le_bytes($on!($($ctx)* load 1, $g[$rs].wrapping_add($imm))).into()
            }
            $K::Ldh => {
                $g[$rd] = u16::from_le_bytes($on!($($ctx)* load 2, $g[$rs].wrapping_add($imm))).into()
            }
            $K::Ldw => {
                $g[$rd] = u32::from_le_bytes($on!($($ctx)* load 4, $g[$rs].wrapping_add($imm))).into()
            }
            $K::Ldd => {
                $g[$rd] = u64::from_le_bytes($on!($($ctx)* load 8, $g[$rs].wrapping_add($imm)))
            }
            $K::Stb => {
                $on!($($ctx)* store $g[$rs].wrapping_add($imm), ($g[$rd] as u8).to_le_bytes())
            }
            $K::Sth => {
                $on!($($ctx)* store $g[$rs].wrapping_add($imm), ($g[$rd] as u16).to_le_bytes())
            }
            $K::Stw => {
                $on!($($ctx)* store $g[$rs].wrapping_add($imm), ($g[$rd] as u32).to_le_bytes())
            }
            $K::Std => $on!($($ctx)* store $g[$rs].wrapping_add($imm), $g[$rd].to_le_bytes()),

            $K::Beq => $on!($($ctx)* branch $g[$rs] == $g[$rt]),
            $K::Bne => $on!($($ctx)* branch $g[$rs] != $g[$rt]),
            $K::Blt => $on!($($ctx)* branch ($g[$rs] as i64) < ($g[$rt] as i64)),
            $K::Bge => $on!($($ctx)* branch ($g[$rs] as i64) >= ($g[$rt] as i64)),
            $K::Bltu => $on!($($ctx)* branch $g[$rs] < $g[$rt]),
            $K::Bgeu => $on!($($ctx)* branch $g[$rs] >= $g[$rt]),
            $K::Jal => {
                $g[$rd] = $link;
                $on!($($ctx)* jal)
            }
            $K::Jalr => {
                let target = $g[$rs].wrapping_add($imm);
                $g[$rd] = $link;
                $on!($($ctx)* jalr target)
            }

            // Floating point uses the same registers, bit-cast (see
            // `Regs::f`).
            $K::Fadd => $g[$rd] = (f($g[$rs]) + f($g[$rt])).to_bits(),
            $K::Fsub => $g[$rd] = (f($g[$rs]) - f($g[$rt])).to_bits(),
            $K::Fmul => $g[$rd] = (f($g[$rs]) * f($g[$rt])).to_bits(),
            $K::Fdiv => $g[$rd] = (f($g[$rs]) / f($g[$rt])).to_bits(),
            $K::Fsqrt => $g[$rd] = f($g[$rs]).sqrt().to_bits(),
            $K::Cvtif => $g[$rd] = ($g[$rs] as i64 as f64).to_bits(),
            // Rust's saturating float→int cast is deterministic.
            $K::Cvtfi => $g[$rd] = f($g[$rs]) as i64 as u64,
            $K::Flt => $g[$rd] = (f($g[$rs]) < f($g[$rt])) as u64,
            $K::Feq => $g[$rd] = (f($g[$rs]) == f($g[$rt])) as u64,
            $K::Fle => $g[$rd] = (f($g[$rs]) <= f($g[$rt])) as u64,
            $($arms)*
        }
    };
}

/// A register as an IEEE-754 double.
#[inline(always)]
fn f(bits: u64) -> f64 {
    f64::from_bits(bits)
}

/// Executes the decoded instruction at `pc` against the register file
/// and a memory port, and moves `pc` past it if it retires. Branch
/// displacements are in words relative to the next instruction. (`pc`
/// is in and out by reference, not a payload of [`Step`]: sharing
/// bytes with the exit variants there costs the dispatch loop a
/// disassembly and reassembly of it per instruction.)
#[inline(always)]
fn step<P: Port>(regs: &mut Regs, insn: Insn, pc: &mut u64, port: &mut P) -> Step<P::Miss> {
    let next_pc = pc.wrapping_add(4);
    // Register fields decode from 4-bit slots; re-masking here is free
    // and lets the compiler drop the 16-entry bounds checks on the
    // register file.
    let (rd, rs, rt) = (
        (insn.rd & 15) as usize,
        (insn.rs & 15) as usize,
        (insn.rt & 15) as usize,
    );
    let g = &mut regs.gpr;
    macro_rules! on {
        (stop $exit:expr) => {{
            *pc = next_pc;
            return Step::Stop($exit);
        }};
        (trap $t:expr) => {
            return Step::Trap($t)
        };
        (branch $taken:expr) => {{
            *pc = if $taken {
                insn.branch_target(*pc)
            } else {
                next_pc
            };
            return Step::Next;
        }};
        (jal) => {{
            *pc = insn.branch_target(*pc);
            return Step::Next;
        }};
        (jalr $target:expr) => {{
            *pc = $target;
            return Step::Next;
        }};
        (load $n:literal, $addr:expr) => {
            match port.load::<$n>($addr) {
                Ok(bytes) => bytes,
                Err(m) => return Step::Miss(m),
            }
        };
        (store $addr:expr, $bytes:expr) => {
            if let Err(m) = port.store($addr, $bytes) {
                return Step::Miss(m);
            }
        };
    }
    exec! {
        match insn.op, as Opcode;
        regs g, rd, rs, rt;
        imm insn.imm as i64 as u64, link next_pc;
        on on();
    }
    *pc = next_pc;
    Step::Next
}

/// The slow path's port: every access is a full page-table walk. This
/// is the pre-TLB interpreter, and it learns nothing about caches or
/// pins.
struct Untranslated<'a>(&'a mut AddressSpace);

impl Port for Untranslated<'_> {
    type Miss = MemError;

    #[inline]
    fn load<const N: usize>(&mut self, addr: u64) -> Result<[u8; N], MemError> {
        let mut buf = [0u8; N];
        self.0.read(addr, &mut buf)?;
        Ok(buf)
    }

    #[inline]
    fn store<const N: usize>(&mut self, addr: u64, data: [u8; N]) -> Result<(), MemError> {
        self.0.write(addr, &data)
    }
}

/// The slow path's port with every access logged ([`Cpu::run_observed`]):
/// a load or fetch before it is performed, fault or not, and a store
/// once it has committed.
struct Observed<'a> {
    mem: Untranslated<'a>,
    log: &'a mut PageLog,
}

impl Port for Observed<'_> {
    type Miss = MemError;

    fn load<const N: usize>(&mut self, addr: u64) -> Result<[u8; N], MemError> {
        self.log.read::<N>(addr);
        self.mem.load(addr)
    }

    fn store<const N: usize>(&mut self, addr: u64, data: [u8; N]) -> Result<(), MemError> {
        self.mem.store(addr, data)?;
        self.log.write::<N>(addr);
        Ok(())
    }
}

/// The outer level's port: every access goes through the software TLB
/// ([`Caches::load`], [`Caches::store`]), which also runs the pin
/// policy. The wrappers inline and the accesses do not, so the level's
/// loop keeps its state in registers and pays a call only per load or
/// store.
struct Translated<'a> {
    caches: &'a mut Caches,
    stats: &'a mut CpuCacheStats,
    mem: &'a mut AddressSpace,
    /// Why the level goes on: [`UNSERVED`] and [`FILLED`] bits.
    stay: u8,
}

/// The latest data access was one a pin could not have served (anything
/// but a hit on a page that was already wanted). Lasts until the next
/// data access.
const UNSERVED: u8 = 1;
/// This instruction's fetch was an icache fill. Lasts for the
/// instruction.
const FILLED: u8 = 2;

impl Port for Translated<'_> {
    type Miss = MemError;

    #[inline(always)]
    fn load<const N: usize>(&mut self, addr: u64) -> Result<[u8; N], MemError> {
        let (bytes, pinnable) = self.caches.load::<N, true>(self.stats, self.mem, addr)?;
        self.stay = (self.stay & FILLED) | if pinnable { 0 } else { UNSERVED };
        Ok(bytes)
    }

    #[inline(always)]
    fn store<const N: usize>(&mut self, addr: u64, data: [u8; N]) -> Result<(), MemError> {
        let pinnable = self.caches.store(self.stats, self.mem, addr, data)?;
        self.stay = (self.stay & FILLED) | if pinnable { 0 } else { UNSERVED };
        Ok(())
    }
}

/// The pin policy, run on what each outer-level access did to the TLB.
impl Caches {
    /// The access hit a cached translation of `vpn`. If the page is
    /// already wanted, a pin would have served the access (`true`);
    /// otherwise it becomes wanted, over the older wanted page.
    fn hit(&mut self, vpn: u64) -> bool {
        if self.wanted.contains(&vpn) {
            return true;
        }
        let kept = if self.wanted[0] == NO_VPN {
            self.wanted[1]
        } else {
            self.wanted[0]
        };
        self.wanted = [vpn, kept];
        false
    }

    /// The access filled a translation of `vpn`, evicting whatever page
    /// held its direct-mapped index: that page stops being wanted, and
    /// `vpn` does not start.
    fn filled(&mut self, vpn: u64) {
        for w in &mut self.wanted {
            if *w != vpn && (*w ^ vpn) & (DTLB_ENTRIES as u64 - 1) == 0 {
                *w = NO_VPN;
            }
        }
    }
}

/// Accesses through the software TLB: probe, redeem a hit, fill on a
/// miss, fall back to the slow path — counted access by access. This
/// is the only code on the fast path that touches the address space.
impl Caches {
    /// Loads `N` bytes, through the read TLB when possible. `DATA`
    /// accesses feed the pin policy and report whether a pin would have
    /// served them; instruction fetches do neither — which pages hold
    /// code is no business of the policy's.
    #[inline(never)]
    fn load<const N: usize, const DATA: bool>(
        &mut self,
        stats: &mut CpuCacheStats,
        mem: &mut AddressSpace,
        addr: u64,
    ) -> Result<([u8; N], bool), MemError> {
        let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
        if off + N <= PAGE_SIZE {
            let vpn = addr >> PAGE_SHIFT;
            let idx = (vpn as usize) & (DTLB_ENTRIES - 1);
            let e = self.dtlb_read[idx];
            if e.vpn == vpn {
                if let [Some(page), _] = mem.pin([Some(e.tr), None]) {
                    stats.tlb_read_hits += 1;
                    let bytes = page.bytes()[off..off + N].try_into().expect("page-bounded");
                    return Ok((bytes, DATA && self.hit(vpn)));
                }
            }
            if let Some(tr) = mem.translate_read(addr) {
                stats.pages_walked += 1;
                stats.tlb_read_fills += 1;
                self.dtlb_read[idx] = DtlbEntry { vpn, tr };
                let [Some(page), _] = mem.pin([Some(tr), None]) else {
                    unreachable!("a fresh translation is current");
                };
                let bytes = page.bytes()[off..off + N].try_into().expect("page-bounded");
                if DATA {
                    self.filled(vpn);
                }
                return Ok((bytes, false));
            }
            // A refused translation (unmapped, no permission) is not
            // counted here: the slow path below performs — and counts —
            // the one real walk.
        }
        // A page-crossing access or a fault: the exact slow path (which
        // also produces the exact error).
        stats.slow_accesses += 1;
        stats.pages_walked += 1;
        let mut buf = [0u8; N];
        mem.read(addr, &mut buf)?;
        Ok((buf, false))
    }

    /// Stores `N` bytes, through the write TLB when possible.
    #[inline(never)]
    fn store<const N: usize>(
        &mut self,
        stats: &mut CpuCacheStats,
        mem: &mut AddressSpace,
        addr: u64,
        data: [u8; N],
    ) -> Result<bool, MemError> {
        // Self-modifying code: if a page this store can touch holds
        // cached decodes, drop them before the bytes change.
        let vpn = addr >> PAGE_SHIFT;
        let last_vpn = addr.saturating_add(N as u64 - 1) >> PAGE_SHIFT;
        if self.holds_code(vpn, last_vpn) {
            stats.icache_flushes += 1;
            self.flush_icache();
        }
        let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
        if off + N <= PAGE_SIZE {
            let idx = (vpn as usize) & (DTLB_ENTRIES - 1);
            let e = self.dtlb_write[idx];
            if e.vpn == vpn {
                if let [Some(Pinned::Rw(page)), _] = mem.pin([Some(e.tr), None]) {
                    stats.tlb_write_hits += 1;
                    page[off..off + N].copy_from_slice(&data);
                    return Ok(self.hit(vpn));
                }
            }
            if let Some(tr) = mem.translate_write(addr) {
                stats.pages_walked += 1;
                stats.tlb_write_fills += 1;
                self.dtlb_write[idx] = DtlbEntry { vpn, tr };
                let [Some(Pinned::Rw(page)), _] = mem.pin([Some(tr), None]) else {
                    unreachable!("a fresh write translation is current and exclusive");
                };
                page[off..off + N].copy_from_slice(&data);
                self.filled(vpn);
                return Ok(false);
            }
            // Refused translation: the slow path below performs — and
            // counts — the one real walk.
        }
        stats.slow_accesses += 1;
        stats.pages_walked += 1;
        mem.write(addr, &data)?;
        Ok(false)
    }

    /// Fetch miss: check alignment, read and decode the word, and
    /// install the decode in the icache.
    #[inline(never)]
    fn fetch_fill(
        &mut self,
        stats: &mut CpuCacheStats,
        mem: &mut AddressSpace,
        pc: u64,
    ) -> Result<Insn, VmExit> {
        if !pc.is_multiple_of(4) {
            return Err(VmExit::Trap(VmTrap::PcMisaligned(pc)));
        }
        let word = match self.load::<4, false>(stats, mem, pc) {
            Ok((b, _)) => u32::from_le_bytes(b),
            Err(e) => return Err(VmExit::Trap(VmTrap::Mem(e))),
        };
        let insn = match decode(word) {
            Ok(i) => i,
            Err(e) => return Err(VmExit::Trap(VmTrap::IllegalInstruction(e.opcode))),
        };
        stats.icache_fills += 1;
        self.stamp += 1;
        self.icache[icache_index(pc)] = ICacheEntry {
            pc,
            space_id: mem.space_id(),
            generation: mem.generation(),
            insn,
        };
        self.note_code_page(pc >> PAGE_SHIFT);
        Ok(insn)
    }

    /// Predecodes the block starting at `pc` from the icache entries
    /// that hit for `(sid, generation)`, following each member's
    /// static successor, and translates it into micro-ops; `false` if
    /// `pc` itself misses.
    #[inline(never)]
    fn build_block(&mut self, pc: u64, sid: u64, generation: u64) -> bool {
        let mut block = Block {
            pc,
            stamp: self.stamp,
            ..Block::EMPTY
        };
        let mut at = pc;
        for (slot, slot_pc) in block.insns.iter_mut().zip(&mut block.pcs) {
            let e = &self.icache[icache_index(at)];
            if !(e.pc == at && e.space_id == sid && e.generation == generation) {
                break;
            }
            (*slot, *slot_pc) = (e.insn, at);
            block.len += 1;
            match static_successor(e.insn, at) {
                Some(next) => at = next,
                None => break,
            }
        }
        if block.len == 0 {
            return false;
        }
        // Past a `jalr`, `halt` or `sys` no member ever falls through.
        block.next = at;
        let len = usize::from(block.len);
        block.uop_len = translate(&block.insns[..len], &block.pcs[..len], &mut block.uops);
        self.blocks[block_index(pc)] = block;
        true
    }
}

/// Where a block goes on after `insn` at `pc` if it does not branch
/// away: the next instruction, or a `jal`'s target. `None` ends the
/// block after `insn`.
fn static_successor(insn: Insn, pc: u64) -> Option<u64> {
    match insn.op.form().flow() {
        Flow::Indirect | Flow::Stop => None,
        Flow::Jump => Some(insn.branch_target(pc)),
        Flow::Fall | Flow::Branch => Some(pc.wrapping_add(4)),
    }
}

/// The inner level could not serve an access from its pinned views.
/// Nothing was counted and nothing changed: the outer level performs
/// the instruction from scratch.
struct Unpinned;

/// One pinned page as the inner loop sees it. Reads and writes are
/// enabled separately because the read and write TLBs are separate
/// arrays: a pinned access counts the TLB hit it shadows, so it may
/// only happen where that hit would.
struct Pin<'a> {
    /// The page loads may take from `view`, or [`NO_VPN`].
    read_vpn: u64,
    /// The page stores may put into `view` (which is then `Rw`), or
    /// [`NO_VPN`].
    write_vpn: u64,
    view: Pinned<'a>,
}

/// No virtual address has this page number (48-bit addresses).
const NO_VPN: u64 = u64::MAX;

impl Pin<'_> {
    const NONE: Pin<'static> = Pin {
        read_vpn: NO_VPN,
        write_vpn: NO_VPN,
        view: Pinned::Ro(&[0; PAGE_SIZE]),
    };
}

/// The inner level's port: the pinned views and the TLB hits they
/// shadowed.
struct Pins<'a> {
    slots: [Pin<'a>; 2],
    read_hits: u64,
    write_hits: u64,
}

impl Port for Pins<'_> {
    type Miss = Unpinned;

    #[inline(always)]
    fn load<const N: usize>(&mut self, addr: u64) -> Result<[u8; N], Unpinned> {
        let vpn = addr >> PAGE_SHIFT;
        let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
        let [a, b] = &self.slots;
        let page = if vpn == a.read_vpn {
            a.view.bytes()
        } else if vpn == b.read_vpn {
            b.view.bytes()
        } else {
            return Err(Unpinned);
        };
        // `None` is a page-crossing access.
        let bytes = page.get(off..off + N).ok_or(Unpinned)?;
        self.read_hits += 1;
        Ok(bytes.try_into().expect("N bytes"))
    }

    #[inline(always)]
    fn store<const N: usize>(&mut self, addr: u64, data: [u8; N]) -> Result<(), Unpinned> {
        let vpn = addr >> PAGE_SHIFT;
        let off = (addr & (PAGE_SIZE as u64 - 1)) as usize;
        let [a, b] = &mut self.slots;
        let view = if vpn == a.write_vpn {
            &mut a.view
        } else if vpn == b.write_vpn {
            &mut b.view
        } else {
            return Err(Unpinned);
        };
        let Pinned::Rw(page) = view else {
            return Err(Unpinned);
        };
        page.get_mut(off..off + N)
            .ok_or(Unpinned)?
            .copy_from_slice(&data);
        self.write_hits += 1;
        Ok(())
    }
}

impl Cpu {
    /// Returns a CPU with zeroed registers at pc 0.
    pub fn new() -> Cpu {
        Cpu::default()
    }

    /// Returns a CPU with the given entry point.
    pub fn at_entry(pc: u64) -> Cpu {
        Cpu {
            regs: Regs::at_entry(pc),
            ..Cpu::default()
        }
    }

    /// Returns a CPU with the translation/decode fast path disabled —
    /// the pre-TLB interpreter, kept as the reference side of
    /// differential tests and benchmarks. [`run`](Cpu::run) on it is
    /// [`run_observed`](Cpu::run_observed) without the log.
    pub fn slow_path() -> Cpu {
        Cpu {
            fast_path: false,
            ..Cpu::default()
        }
    }

    /// Executes instructions against `mem` until halt, syscall, trap,
    /// or budget exhaustion.
    ///
    /// `budget` limits the number of instructions retired in this call
    /// (`None` = unlimited). The count is exact: a budget of `n`
    /// retires at most `n` instructions, and [`VmExit::OutOfBudget`] is
    /// returned *between* instructions so a later `run` resumes
    /// precisely — the property the paper's deterministic scheduler
    /// depends on.
    pub fn run(&mut self, mem: &mut AddressSpace, budget: Option<u64>) -> VmExit {
        let Some(remaining) = nonzero(budget) else {
            return VmExit::OutOfBudget;
        };
        if self.fast_path {
            self.run_fast(mem, remaining)
        } else {
            self.run_slow(&mut Untranslated(mem), remaining)
        }
    }

    /// [`run`](Cpu::run) on the slow path, whatever this CPU's caches
    /// hold, recording every page it fetches from, loads from or stores
    /// to in `log` (see [`PageLog`] for exactly when). Execution is the
    /// same as `run`'s: exits, registers, retired count and memory all
    /// agree; only the cache counters stand still.
    pub fn run_observed(
        &mut self,
        mem: &mut AddressSpace,
        budget: Option<u64>,
        log: &mut PageLog,
    ) -> VmExit {
        let Some(remaining) = nonzero(budget) else {
            return VmExit::OutOfBudget;
        };
        let mut port = Observed {
            mem: Untranslated(mem),
            log,
        };
        self.run_slow(&mut port, remaining)
    }

    /// Executes one instruction; returns `Some` on any stop condition.
    ///
    /// Retired instructions (including `halt`/`sys`) bump
    /// [`Cpu::insn_count`]; trapped instructions do not commit.
    /// Equivalent to [`run`](Cpu::run) with a budget of one (which is
    /// exactly how it is implemented, so the two can never drift).
    pub fn step(&mut self, mem: &mut AddressSpace) -> Option<VmExit> {
        match self.run(mem, Some(1)) {
            VmExit::OutOfBudget => None,
            exit => Some(exit),
        }
    }

    /// The pre-TLB interpreter: fetch, decode and walk the page table
    /// for every instruction and every access, all through `port`.
    fn run_slow<P: Port<Miss = MemError>>(&mut self, port: &mut P, mut remaining: u64) -> VmExit {
        let mut pc = self.regs.pc;
        let exit = loop {
            let insn = match fetch_slow(port, pc) {
                Ok(insn) => insn,
                Err(exit) => break exit,
            };
            match step(&mut self.regs, insn, &mut pc, port) {
                Step::Next => {}
                Step::Stop(exit) => {
                    self.insn_count += 1;
                    break exit;
                }
                Step::Trap(t) => break VmExit::Trap(t),
                Step::Miss(e) => break VmExit::Trap(VmTrap::Mem(e)),
            }
            self.insn_count += 1;
            remaining -= 1;
            if remaining == 0 {
                break VmExit::OutOfBudget;
            }
        };
        self.regs.pc = pc;
        exit
    }

    /// The fast path: an outer level, and an inner level that runs blocks.
    ///
    /// The **outer level** is the TLB interpreter: probe the icache,
    /// fill it on a miss, perform each access through [`Translated`] —
    /// the only code here that touches `mem` — and count everything
    /// access by access. Its accesses also run the pin policy
    /// ([`Caches::hit`], [`Caches::filled`]): a TLB **hit** makes its
    /// page wanted, over the older of the two wanted pages; a **fill**
    /// wants nothing and drops a wanted page it evicted from the
    /// direct-mapped index. The level lasts while its latest data
    /// access was one a pin could not have served, and ends at the
    /// first hit on a page that is *already* wanted. So two pages that
    /// evict each other never get a pin (rebuilding a view per access
    /// would cost more than the redemptions it saves), three pages
    /// taking turns in two slots do not either, and both run at TLB
    /// speed; a page hit twice running is pinned from then on. The
    /// level also lasts while its latest fetch was an icache fill:
    /// misses come in runs (cold code, a loop body larger than the
    /// icache), and building views that the next miss throws away
    /// costs more than the fill itself.
    ///
    /// The **inner level** ([`Cpu::run_pinned`]) holds the wanted
    /// pages' views and executes icache-hit instructions, a predecoded
    /// block at a time, whose loads and stores fall inside them: one
    /// page-number compare and a slice index per access. The views were
    /// validated once, by [`AddressSpace::pin`], and stay valid because
    /// they *are* the exclusive borrow of `mem`: nothing can share,
    /// snapshot, remap or write the space while they live. An icache miss or an access the
    /// pins cannot serve ends the level — and the views — with nothing
    /// counted; the outer level performs that instruction from its
    /// icache probe on. Generation, code pages and TLB entries are all
    /// re-read on the way back in, so a slow-path store, an icache fill
    /// or a conflict eviction out there turns the next pinned access
    /// into the miss it always was.
    ///
    /// Nothing is pinned across calls — the first access to a page in
    /// every call goes through the TLB — and every exit writes the
    /// architectural `pc` back.
    fn run_fast(&mut self, mem: &mut AddressSpace, mut remaining: u64) -> VmExit {
        let sid = mem.space_id();
        let mut pc = self.regs.pc;
        self.caches.wanted = [NO_VPN; 2];
        let mut stay = 0;
        // Exits return from where they are: a value carried to one
        // common exit would be live across the whole dispatch loop.
        macro_rules! exit {
            ($exit:expr) => {{
                self.regs.pc = pc;
                return $exit;
            }};
        }
        loop {
            loop {
                let e = &self.caches.icache[icache_index(pc)];
                let insn = if e.pc == pc && e.space_id == sid && e.generation == mem.generation() {
                    self.cache_stats.icache_hits += 1;
                    e.insn
                } else {
                    stay |= FILLED;
                    match self.caches.fetch_fill(&mut self.cache_stats, mem, pc) {
                        Ok(insn) => insn,
                        Err(exit) => exit!(exit),
                    }
                };
                let mut port = Translated {
                    caches: &mut self.caches,
                    stats: &mut self.cache_stats,
                    mem,
                    stay,
                };
                match step(&mut self.regs, insn, &mut pc, &mut port) {
                    Step::Next => {}
                    Step::Stop(exit) => {
                        self.insn_count += 1;
                        exit!(exit);
                    }
                    Step::Trap(t) => exit!(VmExit::Trap(t)),
                    Step::Miss(e) => exit!(VmExit::Trap(VmTrap::Mem(e))),
                }
                self.insn_count += 1;
                remaining -= 1;
                if remaining == 0 {
                    exit!(VmExit::OutOfBudget);
                }
                if port.stay == 0 {
                    break;
                }
                stay = port.stay & UNSERVED;
            }

            self.regs.pc = pc;
            match self.run_pinned(mem, remaining) {
                Ok(left) => remaining = left,
                Err(exit) => return exit,
            }
            pc = self.regs.pc;
        }
    }

    /// The inner level of [`run_fast`](Cpu::run_fast): executes from
    /// `regs.pc` under pins of the wanted pages, leaves `regs.pc`
    /// where it stopped, and returns what is left of `remaining` when
    /// the outer level is needed, or the exit that ended the run. A
    /// function of its own so the hot loop's registers are allocated
    /// for it alone.
    ///
    /// It runs predecoded [`Block`]s: one tag check finds the block at
    /// `pc` (built from the icache on a miss, or the level ends at an
    /// icache miss), and one budget check decides how it runs: whole,
    /// as micro-ops ([`run_uops`]), or cut to `left`, member by member
    /// ([`run_members`]). Each member is the icache hit the
    /// per-instruction loop would have counted, and each exit counts
    /// what that loop counted:
    ///
    /// | how member `i` (from 0) ends the block | retired | icache hits |
    /// |-----------------------------------------|---------|-------------|
    /// | last member run, or a taken branch      | `i + 1` | `i + 1`     |
    /// | `halt` or `sys`                         | `i + 1` | `i + 1`     |
    /// | trap                                    | `i`     | `i + 1`     |
    /// | an access the pins cannot serve         | `i`     | `i`         |
    ///
    /// The last row leaves member `i` to the outer level, which probes
    /// (and counts) it again. In a fused micro-op, `i` is the member the
    /// exit happened at: an `addi` + `bltu` taken is `i + 1` of its
    /// `bltu`, and an `add` + `ldd` whose load the pins cannot serve
    /// has retired its `add` and leaves at the `ldd`.
    #[inline(never)]
    fn run_pinned(&mut self, mem: &mut AddressSpace, remaining: u64) -> Result<u64, VmExit> {
        let (sid, generation) = (mem.space_id(), mem.generation());
        if self.caches.stamped != (sid, generation) {
            self.caches.stamped = (sid, generation);
            self.caches.stamp += 1;
        }
        let stamp = self.caches.stamp;
        let mut pins = self.pins(mem);
        // Counters live in locals while the level lasts.
        let mut pc = self.regs.pc;
        let mut left = remaining;
        let mut icache_hits = 0;
        let exit = loop {
            let b = &self.caches.blocks[block_index(pc)];
            let hit = b.pc == pc && b.stamp == stamp;
            if !(hit || self.caches.build_block(pc, sid, generation)) {
                break None;
            }
            let b = &self.caches.blocks[block_index(pc)];
            let end = if u64::from(b.len) <= left {
                run_uops(b, left, &mut self.regs.gpr, &mut pins)
            } else {
                run_members(b, left, &mut self.regs, &mut pins)
            };
            match end {
                BlockEnd::Next { retired, pc: next } => {
                    left -= retired;
                    icache_hits += retired;
                    pc = next;
                    if left == 0 {
                        break Some(VmExit::OutOfBudget);
                    }
                }
                BlockEnd::Leave {
                    retired,
                    hits,
                    pc: at,
                    exit,
                } => {
                    left -= retired;
                    icache_hits += hits;
                    pc = at;
                    break exit;
                }
            }
        };
        self.regs.pc = pc;
        self.insn_count += remaining - left;
        self.cache_stats.icache_hits += icache_hits;
        self.cache_stats.tlb_read_hits += pins.read_hits;
        self.cache_stats.tlb_write_hits += pins.write_hits;
        exit.map_or(Ok(left), Err)
    }

    /// Derives the inner level's port from the TLB arrays: for each
    /// wanted page, whichever of its two entries are current decide
    /// what the pin may shadow — loads iff the read TLB holds the page;
    /// stores iff the write TLB does, the view came back exclusive,
    /// **and** the page holds no cached decodes (a store that would
    /// flush them always takes the outer level, which does).
    fn pins<'a>(&mut self, mem: &'a mut AddressSpace) -> Pins<'a> {
        let mut pins = Pins {
            slots: [Pin::NONE; 2],
            read_hits: 0,
            write_hits: 0,
        };
        let mut request = [None; 2];
        for ((pin, request), vpn) in pins
            .slots
            .iter_mut()
            .zip(&mut request)
            .zip(self.caches.wanted)
        {
            // (An unwanted slot's `NO_VPN` tag-matches an invalid TLB
            // entry, whose translation is never current.)
            let idx = (vpn as usize) & (DTLB_ENTRIES - 1);
            let (r, w) = (self.caches.dtlb_read[idx], self.caches.dtlb_write[idx]);
            if r.vpn == vpn && mem.is_current(r.tr) {
                pin.read_vpn = vpn;
                *request = Some(r.tr);
            }
            if w.vpn == vpn && mem.is_current(w.tr) {
                if !self.caches.holds_code(vpn, vpn) {
                    pin.write_vpn = vpn;
                }
                *request = Some(w.tr);
            }
        }
        if request == [None; 2] {
            return pins;
        }
        self.cache_stats.pin_builds += 1;
        for (pin, view) in pins.slots.iter_mut().zip(mem.pin(request)) {
            match view {
                Some(view) => {
                    if matches!(view, Pinned::Ro(_)) {
                        pin.write_vpn = NO_VPN;
                    }
                    pin.view = view;
                }
                None => *pin = Pin::NONE,
            }
        }
        pins
    }
}

/// How a run through a block ended, counted as DESIGN.md §4's exit
/// table counts it.
enum BlockEnd {
    /// Past its last member, or a taken branch at member `retired - 1`:
    /// `retired` members retired and hit, and the next block is at `pc`.
    Next { retired: u64, pc: u64 },
    /// The level ends at `pc` with `exit`, or goes back to the outer
    /// level on `None`, with `retired` members retired and `hits`
    /// icache hits counted.
    Leave {
        retired: u64,
        hits: u64,
        pc: u64,
        exit: Option<VmExit>,
    },
}

/// Runs the whole of block `b` as micro-ops: one dispatch each, and no
/// member writes `pc` or returns a [`Step`]. Only an exit looks at
/// which member it happened at (the micro-op's first member, plus one
/// in a fused micro-op's second) and rebuilds `pc`, the retired count
/// and the hits from it. A taken branch back to the block's own start
/// (a loop that fits one block) runs it again from the top, while
/// `left` holds another whole run, instead of looking the block up.
#[inline(always)]
fn run_uops(b: &Block, left: u64, g: &mut [u64; 16], pins: &mut Pins<'_>) -> BlockEnd {
    let len = u64::from(b.len);
    // Another whole run fits while no more than this many members have
    // retired.
    let rerun_limit = left - len;
    // Members retired by the runs before this one.
    let mut base = 0;
    'again: loop {
        for u in &b.uops[..usize::from(b.uop_len)] {
            // The micro-op's first member: its index in the block, and
            // how many members this call had retired before it.
            let (at, first) = (usize::from(u.first), base + u64::from(u.first));
            // `$w` is which of the micro-op's members (0 or 1) the table
            // is running.
            macro_rules! on {
                ($w:tt stop $exit:expr) => {
                    return BlockEnd::Leave {
                        retired: first + $w + 1,
                        hits: first + $w + 1,
                        pc: b.pcs[at + $w].wrapping_add(4),
                        exit: Some($exit),
                    }
                };
                ($w:tt trap $t:expr) => {
                    return BlockEnd::Leave {
                        retired: first + $w,
                        hits: first + $w + 1,
                        pc: b.pcs[at + $w],
                        exit: Some(VmExit::Trap($t)),
                    }
                };
                ($w:tt branch $taken:expr) => {
                    if $taken {
                        on!($w jalr u.imm[$w])
                    }
                };
                ($w:tt jal) => {
                    ()
                };
                ($w:tt jalr $target:expr) => {{
                    let (retired, target) = (first + $w + 1, $target);
                    if target == b.pc && retired <= rerun_limit {
                        base = retired;
                        continue 'again;
                    }
                    return BlockEnd::Next {
                        retired,
                        pc: target,
                    };
                }};
                // The outer level probes (and counts) the member again.
                ($w:tt miss) => {
                    return BlockEnd::Leave {
                        retired: first + $w,
                        hits: first + $w,
                        pc: b.pcs[at + $w],
                        exit: None,
                    }
                };
                ($w:tt load $n:literal, $addr:expr) => {
                    match pins.load::<$n>($addr) {
                        Ok(bytes) => bytes,
                        Err(Unpinned) => on!($w miss),
                    }
                };
                ($w:tt store $addr:expr, $bytes:expr) => {
                    if let Err(Unpinned) = pins.store($addr, $bytes) {
                        on!($w miss)
                    }
                };
            }
            // Member `$w` of a fused micro-op, as `$op`.
            macro_rules! member {
                ($op:expr, $w:tt) => {
                    exec! {
                        match $op, as Opcode;
                        regs g, reg(u, $w, 0), reg(u, $w, 1), reg(u, $w, 2);
                        imm u.imm[$w], link b.pcs[at + $w].wrapping_add(4);
                        on on($w);
                    }
                };
            }
            exec! {
                match u.kind, as UopKind;
                regs g, reg(u, 0, 0), reg(u, 0, 1), reg(u, 0, 2);
                imm u.imm[0], link b.pcs[at].wrapping_add(4);
                on on(0);
                UopKind::Const => g[reg(u, 0, 0)] = u.imm[0],
                UopKind::AddiBltu => {
                    member!(Opcode::Addi, 0);
                    member!(Opcode::Bltu, 1);
                }
                UopKind::AddLdd => {
                    member!(Opcode::Add, 0);
                    member!(Opcode::Ldd, 1);
                }
            }
        }
        return BlockEnd::Next {
            retired: base + len,
            pc: b.next,
        };
    }
}

/// Runs the first `n` members of block `b`, fewer than all of them, one
/// [`step`] at a time: the budget cuts this run short.
#[inline(always)]
fn run_members(b: &Block, n: u64, regs: &mut Regs, pins: &mut Pins<'_>) -> BlockEnd {
    let mut pc = b.pc;
    for (i, &insn) in b.insns[..n as usize].iter().enumerate() {
        let (at, i) = (pc, i as u64);
        let (retired, hits, exit) = match step(regs, insn, &mut pc, pins) {
            // The block assumed the fall-through or the `jal`; a taken
            // branch ends it.
            Step::Next if pc == at.wrapping_add(4) || insn.op == Opcode::Jal => continue,
            Step::Next => return BlockEnd::Next { retired: i + 1, pc },
            Step::Stop(exit) => (i + 1, i + 1, Some(exit)),
            Step::Trap(t) => (i, i + 1, Some(VmExit::Trap(t))),
            // The outer level probes (and counts) it again.
            Step::Miss(Unpinned) => (i, i, None),
        };
        // (`step` moved `pc` past a `halt` or `sys` only.)
        return BlockEnd::Leave {
            retired,
            hits,
            pc,
            exit,
        };
    }
    BlockEnd::Next { retired: n, pc }
}

/// Register field `field` of member `w` of `u`.
#[inline(always)]
fn reg(u: &Uop, w: usize, field: usize) -> usize {
    u.regs[w][field] as usize
}

/// A register index, masked once when a block is translated: its type
/// tells the compiler it is inside the register file, so indexing by it
/// needs neither a mask nor a bounds check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
#[rustfmt::skip]
enum Reg { R0, R1, R2, R3, R4, R5, R6, R7, R8, R9, R10, R11, R12, R13, R14, R15 }

impl Reg {
    /// The register a 4-bit field names.
    fn new(field: u8) -> Reg {
        use Reg::*;
        [
            R0, R1, R2, R3, R4, R5, R6, R7, R8, R9, R10, R11, R12, R13, R14, R15,
        ][usize::from(field & 15)]
    }
}

/// The icache slot `pc` maps to.
#[inline]
fn icache_index(pc: u64) -> usize {
    ((pc >> 2) as usize) & (ICACHE_ENTRIES - 1)
}

/// The block-store slot a block starting at `pc` maps to.
#[inline]
fn block_index(pc: u64) -> usize {
    ((pc >> 2) as usize) & (BLOCKS - 1)
}

/// `budget` with `None` folded to u64::MAX, or `None` if it is zero.
/// The run loops then carry no Option per instruction, and 2^64
/// instructions is centuries of virtual time, unreachable before the
/// kernel's chunking.
fn nonzero(budget: Option<u64>) -> Option<u64> {
    match budget {
        Some(0) => None,
        Some(n) => Some(n),
        None => Some(u64::MAX),
    }
}

/// The original fetch path, byte-for-byte (the slow path's): a
/// misaligned pc traps before anything is read.
fn fetch_slow<P: Port<Miss = MemError>>(port: &mut P, pc: u64) -> Result<Insn, VmExit> {
    if !pc.is_multiple_of(4) {
        return Err(VmExit::Trap(VmTrap::PcMisaligned(pc)));
    }
    let word = match port.load::<4>(pc) {
        Ok(b) => u32::from_le_bytes(b),
        Err(e) => return Err(VmExit::Trap(VmTrap::Mem(e))),
    };
    decode(word).map_err(|e| VmExit::Trap(VmTrap::IllegalInstruction(e.opcode)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use det_memory::{Perm, Region};

    fn load(src: &str) -> (Cpu, AddressSpace) {
        let image = assemble(src).expect("assembles");
        let mut mem = AddressSpace::new();
        mem.map_zero(Region::new(0, 0x10000), Perm::RW).unwrap();
        mem.write(0, &image.bytes).unwrap();
        (Cpu::new(), mem)
    }

    #[test]
    fn arithmetic_and_halt() {
        let (mut cpu, mut mem) = load(
            "
            ldi r1, 100
            ldi r2, 42
            sub r3, r1, r2
            halt
            ",
        );
        assert_eq!(cpu.run(&mut mem, None), VmExit::Halt);
        assert_eq!(cpu.regs.gpr[3], 58);
        assert_eq!(cpu.insn_count, 4);
    }

    #[test]
    fn loop_sum() {
        // Sum 1..=10 into r3.
        let (mut cpu, mut mem) = load(
            "
            ldi r1, 10
            ldi r3, 0
        loop:
            add r3, r3, r1
            addi r1, r1, -1
            bne r1, r0, loop
            halt
            ",
        );
        assert_eq!(cpu.run(&mut mem, None), VmExit::Halt);
        assert_eq!(cpu.regs.gpr[3], 55);
    }

    #[test]
    fn memory_roundtrip_all_widths() {
        let (mut cpu, mut mem) = load(
            "
            li  r5, 0x8000
            ldi r1, -1
            std r1, [r5+0]
            ldb r2, [r5+0]
            ldh r3, [r5+0]
            ldw r4, [r5+0]
            ldd r6, [r5+0]
            halt
            ",
        );
        assert_eq!(cpu.run(&mut mem, None), VmExit::Halt);
        assert_eq!(cpu.regs.gpr[2], 0xff);
        assert_eq!(cpu.regs.gpr[3], 0xffff);
        assert_eq!(cpu.regs.gpr[4], 0xffff_ffff);
        assert_eq!(cpu.regs.gpr[6], u64::MAX);
    }

    #[test]
    fn divide_by_zero_traps_without_commit() {
        let (mut cpu, mut mem) = load(
            "
            ldi r1, 5
            ldi r2, 0
            div r3, r1, r2
            halt
            ",
        );
        let exit = cpu.run(&mut mem, None);
        assert_eq!(exit, VmExit::Trap(VmTrap::DivideByZero));
        // Trapped instruction does not retire; pc points at it.
        assert_eq!(cpu.insn_count, 2);
        assert_eq!(cpu.regs.pc, 8);
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut mem = AddressSpace::new();
        mem.map_zero(Region::new(0, 0x1000), Perm::RW).unwrap();
        mem.write_u32(0, 0xff00_0000).unwrap();
        let mut cpu = Cpu::new();
        assert_eq!(
            cpu.run(&mut mem, None),
            VmExit::Trap(VmTrap::IllegalInstruction(0xff))
        );
    }

    #[test]
    fn unmapped_fetch_traps() {
        let mut mem = AddressSpace::new();
        let mut cpu = Cpu::new();
        assert!(matches!(
            cpu.run(&mut mem, None),
            VmExit::Trap(VmTrap::Mem(MemError::Unmapped { .. }))
        ));
    }

    #[test]
    fn store_to_readonly_traps() {
        let image = assemble("li r5, 0x8000\nstd r1, [r5+0]\nhalt").unwrap();
        let mut mem = AddressSpace::new();
        mem.map_zero(Region::new(0, 0x1000), Perm::RW).unwrap();
        mem.map_zero(Region::new(0x8000, 0x9000), Perm::R).unwrap();
        mem.write(0, &image.bytes).unwrap();
        let mut cpu = Cpu::new();
        assert!(matches!(
            cpu.run(&mut mem, None),
            VmExit::Trap(VmTrap::Mem(MemError::PermDenied { .. }))
        ));
    }

    #[test]
    fn misaligned_pc_traps() {
        let mut cpu = Cpu::new();
        cpu.regs.pc = 2;
        let mut mem = AddressSpace::new();
        assert_eq!(
            cpu.step(&mut mem),
            Some(VmExit::Trap(VmTrap::PcMisaligned(2)))
        );
    }

    #[test]
    fn sys_returns_control_and_resumes() {
        let (mut cpu, mut mem) = load(
            "
            ldi r1, 1
            sys 7
            addi r1, r1, 1
            halt
            ",
        );
        assert_eq!(cpu.run(&mut mem, None), VmExit::Sys(7));
        assert_eq!(cpu.regs.gpr[1], 1);
        // Resume after the syscall.
        assert_eq!(cpu.run(&mut mem, None), VmExit::Halt);
        assert_eq!(cpu.regs.gpr[1], 2);
    }

    #[test]
    fn budget_is_exact_and_resumable() {
        let (mut cpu, mut mem) = load(
            "
            ldi r1, 0
            addi r1, r1, 1
            addi r1, r1, 1
            addi r1, r1, 1
            halt
            ",
        );
        // Run exactly 2 instructions.
        assert_eq!(cpu.run(&mut mem, Some(2)), VmExit::OutOfBudget);
        assert_eq!(cpu.insn_count, 2);
        assert_eq!(cpu.regs.gpr[1], 1);
        // Zero budget runs nothing.
        assert_eq!(cpu.run(&mut mem, Some(0)), VmExit::OutOfBudget);
        assert_eq!(cpu.insn_count, 2);
        // Resume to completion.
        assert_eq!(cpu.run(&mut mem, Some(100)), VmExit::Halt);
        assert_eq!(cpu.regs.gpr[1], 3);
        assert_eq!(cpu.insn_count, 5);
    }

    #[test]
    fn preemption_is_transparent() {
        // Same program, run once without and once with many tiny
        // quanta: identical final state and instruction count.
        let src = "
            ldi r1, 37
            ldi r3, 0
        loop:
            add r3, r3, r1
            addi r1, r1, -1
            bne r1, r0, loop
            li  r5, 0x8000
            std r3, [r5+0]
            halt
        ";
        let (mut a, mut mem_a) = load(src);
        assert_eq!(a.run(&mut mem_a, None), VmExit::Halt);

        let (mut b, mut mem_b) = load(src);
        loop {
            match b.run(&mut mem_b, Some(3)) {
                VmExit::OutOfBudget => continue,
                VmExit::Halt => break,
                other => panic!("unexpected exit {other:?}"),
            }
        }
        assert_eq!(a.regs, b.regs);
        assert_eq!(a.insn_count, b.insn_count);
        assert_eq!(mem_a.content_digest(), mem_b.content_digest());
    }

    #[test]
    fn float_ops() {
        let (mut cpu, mut mem) = load(
            "
            ldi r1, 9
            cvtif r2, r1
            fsqrt r3, r2
            ldi r4, 2
            cvtif r5, r4
            fmul r6, r3, r5
            cvtfi r7, r6
            fle r8, r2, r6
            flt r9, r2, r6
            halt
            ",
        );
        assert_eq!(cpu.run(&mut mem, None), VmExit::Halt);
        assert_eq!(cpu.regs.f(3), 3.0);
        assert_eq!(cpu.regs.gpr[7], 6);
        assert_eq!(cpu.regs.gpr[8], 0); // 9.0 <= 6.0 is false.
        assert_eq!(cpu.regs.gpr[9], 0);
    }

    #[test]
    fn jal_and_jalr_call_return() {
        let (mut cpu, mut mem) = load(
            "
            ldi r1, 5
            jal r14, double
            jal r14, double
            halt
        double:
            add r1, r1, r1
            jalr r0, r14, 0
            ",
        );
        assert_eq!(cpu.run(&mut mem, None), VmExit::Halt);
        assert_eq!(cpu.regs.gpr[1], 20);
    }

    // ------------------------------------------------------------------
    // Fast-path specifics
    // ------------------------------------------------------------------

    #[test]
    fn fast_and_slow_paths_agree() {
        let src = "
            ldi r1, 200
            ldi r3, 0
            li  r5, 0x8000
        loop:
            add r3, r3, r1
            std r3, [r5+0]
            ldd r4, [r5+0]
            stb r3, [r5+9]
            ldh r6, [r5+8]
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        ";
        let (mut fast, mut mem_f) = load(src);
        let (_, mut mem_s) = load(src);
        let mut slow = Cpu::slow_path();
        assert_eq!(fast.run(&mut mem_f, None), VmExit::Halt);
        assert_eq!(slow.run(&mut mem_s, None), VmExit::Halt);
        assert_eq!(fast.regs, slow.regs);
        assert_eq!(fast.insn_count, slow.insn_count);
        assert_eq!(mem_f.content_digest(), mem_s.content_digest());
        // And the fast run actually used its caches.
        assert!(fast.cache_stats.icache_hits > 1000);
        assert!(fast.cache_stats.tlb_write_hits > 100);
        assert_eq!(slow.cache_stats, CpuCacheStats::default());
    }

    #[test]
    fn loop_hits_cache_and_walks_few_pages() {
        let (mut cpu, mut mem) = load(
            "
            ldi r1, 0
        loop:
            addi r1, r1, 1
            beq r0, r0, loop
            ",
        );
        assert_eq!(cpu.run(&mut mem, Some(100_000)), VmExit::OutOfBudget);
        let s = cpu.cache_stats;
        assert!(s.hit_rate() > 0.999, "hit rate {}", s.hit_rate());
        // A tight loop touches one code page: a handful of walks, ever.
        assert!(s.pages_walked < 10, "pages walked {}", s.pages_walked);
        assert!(s.icache_hits > 99_000);
    }

    /// Hand-assembled image: words at ascending addresses from 0.
    fn load_words(words: &[u32], extra: &[(u64, u32)]) -> (Cpu, AddressSpace) {
        let mut mem = AddressSpace::new();
        mem.map_zero(Region::new(0, 0x10000), Perm::RW).unwrap();
        for (i, w) in words.iter().enumerate() {
            mem.write_u32((i * 4) as u64, *w).unwrap();
        }
        for &(addr, w) in extra {
            mem.write_u32(addr, w).unwrap();
        }
        (Cpu::new(), mem)
    }

    #[test]
    fn self_modifying_code_reflects_stores() {
        use crate::isa::encode;
        // The program loads `ldi r2, 7` from data memory and writes it
        // over the instruction at address 12, then executes it.
        let patch = encode(Insn::new(Opcode::Ldi, 2, 0, 0, 7));
        let words = [
            encode(Insn::new(Opcode::Ldw, 4, 0, 0, 256)), // 0: r4 = patch
            encode(Insn::new(Opcode::Stw, 4, 0, 0, 12)),  // 4: patch @12
            encode(Insn::new(Opcode::Nop, 0, 0, 0, 0)),   // 8
            encode(Insn::new(Opcode::Halt, 0, 0, 0, 0)),  // 12: replaced
            encode(Insn::new(Opcode::Halt, 0, 0, 0, 0)),  // 16
        ];
        let (mut fast, mut mem_f) = load_words(&words, &[(256, patch)]);
        assert_eq!(fast.run(&mut mem_f, None), VmExit::Halt);
        assert_eq!(fast.regs.gpr[2], 7, "patched instruction must execute");
        assert_eq!(fast.regs.pc, 20, "halt at 16, not the patched 12");

        // Slow path agrees.
        let (_, mut mem_s) = load_words(&words, &[(256, patch)]);
        let mut slow = Cpu::slow_path();
        assert_eq!(slow.run(&mut mem_s, None), VmExit::Halt);
        assert_eq!(fast.regs, slow.regs);
    }

    #[test]
    fn self_modifying_code_after_warm_icache() {
        use crate::isa::encode;
        // First pass executes (and caches) the target instruction, then
        // patches it and loops back — the store must flush the cached
        // decode so the second pass sees the new instruction.
        let patch = encode(Insn::new(Opcode::Ldi, 2, 0, 0, 9));
        let words = [
            encode(Insn::new(Opcode::Ldw, 4, 0, 0, 256)), // 0: r4 = patch
            encode(Insn::new(Opcode::Ldi, 2, 0, 0, 1)),   // 4: target
            encode(Insn::new(Opcode::Bne, 0, 5, 0, 3)),   // 8: pass 2 → 24
            encode(Insn::new(Opcode::Ldi, 5, 0, 0, 1)),   // 12: flag
            encode(Insn::new(Opcode::Stw, 4, 0, 0, 4)),   // 16: patch @4
            encode(Insn::new(Opcode::Beq, 0, 0, 0, -5)),  // 20: → 4
            encode(Insn::new(Opcode::Halt, 0, 0, 0, 0)),  // 24
        ];
        let (mut fast, mut mem_f) = load_words(&words, &[(256, patch)]);
        let (_, mut mem_s) = load_words(&words, &[(256, patch)]);
        let mut slow = Cpu::slow_path();
        assert_eq!(fast.run(&mut mem_f, None), VmExit::Halt);
        assert_eq!(slow.run(&mut mem_s, None), VmExit::Halt);
        assert_eq!(fast.regs, slow.regs);
        assert_eq!(fast.regs.gpr[2], 9);
        assert!(fast.cache_stats.icache_flushes >= 1);
    }

    #[test]
    fn external_mutation_between_steps_is_seen() {
        // A cached translation must go stale when the kernel mutates
        // memory between quanta (snapshot, merge, protection change).
        let (mut cpu, mut mem) = load(
            "
            li  r5, 0x8000
        loop:
            ldd r2, [r5+0]
            beq r0, r0, loop
            ",
        );
        assert_eq!(cpu.run(&mut mem, Some(10)), VmExit::OutOfBudget);
        assert_eq!(cpu.regs.gpr[2], 0);
        // External write through the kernel path.
        mem.write_u64(0x8000, 0xFEED).unwrap();
        assert_eq!(cpu.run(&mut mem, Some(10)), VmExit::OutOfBudget);
        assert_eq!(cpu.regs.gpr[2], 0xFEED);
        // Protection change faults the next load.
        mem.set_perm(Region::new(0x8000, 0x9000), Perm::NONE)
            .unwrap();
        assert!(matches!(
            cpu.run(&mut mem, Some(10)),
            VmExit::Trap(VmTrap::Mem(MemError::PermDenied { .. }))
        ));
    }

    #[test]
    fn cpu_survives_memory_image_replacement() {
        // Swapping in a different AddressSpace (kernel Tree option)
        // must never produce stale hits: the space id differs.
        let (mut cpu, mut mem_a) = load("ldi r1, 1\nbeq r0, r0, -2\n");
        assert_eq!(cpu.run(&mut mem_a, Some(100)), VmExit::OutOfBudget);
        let (_, mut mem_b) = load("ldi r1, 2\nbeq r0, r0, -2\n");
        cpu.regs.pc = 0;
        assert_eq!(cpu.run(&mut mem_b, Some(3)), VmExit::OutOfBudget);
        assert_eq!(cpu.regs.gpr[1], 2);
    }

    #[test]
    fn observed_log_identical_whatever_the_cpu() {
        let src = "
            li  r5, 0x8000
            ldd r2, [r5+0]
            std r2, [r5+256]
            ldb r3, [r5+0]
            halt
        ";
        let run = |cpu: &mut Cpu| {
            let (_, mut mem) = load(src);
            let mut log = PageLog::new();
            assert_eq!(cpu.run_observed(&mut mem, None, &mut log), VmExit::Halt);
            assert_eq!(cpu.cache_stats, CpuCacheStats::default());
            (log.pages_read(), log.pages_written())
        };
        let fast_log = run(&mut Cpu::new());
        let slow_log = run(&mut Cpu::slow_path());
        assert_eq!(fast_log, slow_log);
        // Fetches are reads: page 0 must be in the read set.
        assert_eq!(fast_log, (vec![0, 8], vec![8]));
    }

    #[test]
    fn store_page_aliasing_code_page_mod64_does_not_flush() {
        // Code lives at vpn 0; the store target at 0x40000 is vpn 64 —
        // the same 64-bit filter bit. The exact code-page set must
        // reject the false positive, so a store-heavy loop keeps its
        // decoded instructions.
        let mut mem = AddressSpace::new();
        mem.map_zero(Region::new(0, 0x1000), Perm::RW).unwrap();
        mem.map_zero(Region::new(0x40000, 0x41000), Perm::RW)
            .unwrap();
        let image = assemble(
            "
            li r5, 0x40000
        loop:
            std r1, [r5+0]
            addi r1, r1, 1
            beq r0, r0, loop
            ",
        )
        .unwrap();
        mem.write(0, &image.bytes).unwrap();
        let mut cpu = Cpu::new();
        assert_eq!(cpu.run(&mut mem, Some(30_000)), VmExit::OutOfBudget);
        let s = cpu.cache_stats;
        assert_eq!(s.icache_flushes, 0, "aliasing store must not flush");
        assert!(s.hit_rate() > 0.999, "hit rate {}", s.hit_rate());
    }

    #[test]
    fn page_crossing_access_takes_slow_path_correctly() {
        let (mut cpu, mut mem) = load(
            "
            li  r5, 0x8ffc
            li  r1, 0x1122334455667788
            std r1, [r5+0]
            ldd r2, [r5+0]
            halt
            ",
        );
        assert_eq!(cpu.run(&mut mem, None), VmExit::Halt);
        assert_eq!(cpu.regs.gpr[2], 0x1122334455667788);
        assert_eq!(mem.read_u64(0x8ffc).unwrap(), 0x1122334455667788);
        assert!(cpu.cache_stats.slow_accesses >= 2);
    }

    // ------------------------------------------------------------------
    // Micro-ops
    // ------------------------------------------------------------------

    /// No counter or golden can see whether blocks fuse, so this looks:
    /// after a warm run of each corpus kernel, the block at its hot loop
    /// holds the fused micro-ops the loop's pairs call for.
    #[test]
    fn hot_loops_run_fused_micro_ops() {
        use crate::corpus;
        use UopKind::{AddLdd, AddiBltu, Const};
        for (src, label, kinds) in [
            (corpus::FFT_KERNEL, "pass", &[AddLdd, AddiBltu][..]),
            (corpus::MATMULT_KERNEL, "dot", &[AddLdd, AddiBltu]),
            (corpus::MD5_KERNEL, "round", &[Const, AddiBltu]),
            (corpus::QSORT_KERNEL, "part", &[AddLdd]),
        ] {
            let at = assemble(src).unwrap().labels[label];
            let (mut cpu, mut mem) = corpus::sandbox(src);
            assert_eq!(cpu.run(&mut mem, Some(100_000)), VmExit::OutOfBudget);
            let b = &cpu.caches.blocks[block_index(at)];
            assert_eq!(
                (b.pc, b.stamp),
                (at, cpu.caches.stamp),
                "{label}: no live block"
            );
            let held: Vec<UopKind> = b.uops[..usize::from(b.uop_len)]
                .iter()
                .map(|u| u.kind)
                .collect();
            for kind in kinds {
                assert!(held.contains(kind), "{label}: {held:?} lacks {kind:?}");
            }
        }
    }

    /// The fused kinds are the corpus's hot pairs, not a guess: on the
    /// slow path, each pair [`fuse`] fuses ranks among the dynamic pair
    /// histogram's top ten over the four paper kernels. An `li` chain is
    /// counted by every link it fuses, `ldih` after `ldih` into the same
    /// register as well as after the `ldi`.
    #[test]
    fn fused_pairs_rank_among_the_corpus_hot_pairs() {
        use crate::corpus;
        use std::collections::HashMap;
        let fused: Vec<(Opcode, Opcode)> = Opcode::ALL
            .iter()
            .flat_map(|&a| Opcode::ALL.iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| fuse(Insn::new(a, 1, 2, 3, 0), Insn::new(b, 1, 2, 3, 0)).is_some())
            .collect();
        assert_eq!(fused.len(), 3, "{fused:?}");
        let mut counts: HashMap<(Opcode, Opcode), u64> = HashMap::new();
        for src in [
            corpus::FFT_KERNEL,
            corpus::MATMULT_KERNEL,
            corpus::MD5_KERNEL,
            corpus::QSORT_KERNEL,
        ] {
            let (_, mut mem) = corpus::sandbox(src);
            let mut cpu = Cpu::slow_path();
            let mut prev: Option<Insn> = None;
            for _ in 0..200_000 {
                let insn = decode(mem.read_u32(cpu.regs.pc).unwrap()).unwrap();
                if let Some(p) = prev {
                    let pair = match (p.op, insn.op) {
                        (Opcode::Ldih, Opcode::Ldih) if same_rd(p, insn) => {
                            (Opcode::Ldi, Opcode::Ldih)
                        }
                        pair => pair,
                    };
                    *counts.entry(pair).or_default() += 1;
                }
                prev = Some(insn);
                assert_eq!(cpu.step(&mut mem), None);
            }
        }
        let mut ranked: Vec<((Opcode, Opcode), u64)> = counts.into_iter().collect();
        ranked.sort_by_key(|&((a, b), n)| (std::cmp::Reverse(n), a as u8, b as u8));
        for pair in fused {
            let rank = ranked.iter().position(|&(p, _)| p == pair);
            assert!(
                rank.is_some_and(|r| r < 10),
                "{pair:?} ranks {rank:?} in {:?}",
                &ranked[..10]
            );
        }
    }
}
