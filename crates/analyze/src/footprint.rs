//! Sound footprint analysis over det-vm programs.
//!
//! An abstract interpreter runs the predecoded ISA over the
//! interval/stride domain ([`crate::domain::Val`]): a worklist
//! fixpoint with per-pc states, branch-edge refinement, threshold
//! widening, and two narrowing sweeps (the corpus kernels guard loops
//! at the loop *bottom*, so the refined backedge can only pull a
//! widened head back down during narrowing). The result is a
//! [`Footprint`]: page sets that **over-approximate every page the
//! program can read (fetches included) or write**, however it is
//! scheduled or preempted.
//!
//! The soundness contract (validated differentially by the gate binary
//! and the 200-case proptest in `tests/`):
//!
//! * every access's address interval covers the concrete address, so
//!   predicted reads ⊇ observed touched pages and predicted writes ⊇
//!   observed dirty pages;
//! * `sys` havocs the whole register file (the kernel may rewrite any
//!   register across a syscall);
//! * an unknown indirect-jump target, a pc escaping the supplied
//!   image (unless [`AnalyzeConfig::escape_is_trap`]), a possible
//!   store into an executed code page (self-modifying code), or
//!   exceeding [`AnalyzeConfig::max_steps`] all degrade to
//!   [`PageSet::Unbounded`] — never to a false negative;
//! * traps terminate a path; accesses attempted before the trap are
//!   already covered because the faulting address lies inside the
//!   predicted interval.
//!
//! Conflict classification ([`classify`]) is the static face of the
//! paper's merge-time determinism: sibling fork sets whose write
//! footprints are bounded and pairwise page-disjoint can never
//! write/write-conflict at merge time under *any*
//! [`det_memory::ConflictPolicy`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use det_memory::{PAGE_SHIFT, Region};
use det_vm::{Insn, Opcode, decode};

use crate::domain::Val;

/// A mapped, executable byte range of the analyzed image.
#[derive(Clone, Copy, Debug)]
pub struct Segment<'a> {
    /// Virtual address of the first byte.
    pub base: u64,
    /// The bytes (code and data alike; zeroes decode as `nop`).
    pub bytes: &'a [u8],
}

/// Analysis tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct AnalyzeConfig {
    /// Transfer applications before the analysis gives up and reports
    /// [`PageSet::Unbounded`] (still sound, never wrong).
    pub max_steps: u64,
    /// Joins observed at a pc before widening kicks in.
    pub widen_after: u32,
    /// Narrowing sweeps after the widened fixpoint converges.
    pub narrow_sweeps: u32,
    /// When true, a pc outside every segment terminates the path (the
    /// caller passed *every* executable mapping, so the concrete
    /// machine would trap there). When false — the conservative
    /// default — an escaping pc makes the result unbounded.
    pub escape_is_trap: bool,
}

impl Default for AnalyzeConfig {
    fn default() -> AnalyzeConfig {
        AnalyzeConfig {
            max_steps: 400_000,
            widen_after: 8,
            narrow_sweeps: 2,
            escape_is_trap: false,
        }
    }
}

/// A sorted, coalesced set of virtual page numbers, or ⊤.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PageSet {
    /// The analysis could not bound the set: every page is possible.
    Unbounded,
    /// Disjoint, sorted, inclusive `[first, last]` vpn ranges.
    Ranges(Vec<(u64, u64)>),
}

impl PageSet {
    /// The empty set.
    pub fn empty() -> PageSet {
        PageSet::Ranges(Vec::new())
    }

    /// Is this ⊤?
    pub fn is_unbounded(&self) -> bool {
        matches!(self, PageSet::Unbounded)
    }

    /// Number of pages, if bounded.
    pub fn page_count(&self) -> Option<u64> {
        match self {
            PageSet::Unbounded => None,
            PageSet::Ranges(rs) => Some(rs.iter().map(|(a, b)| b - a + 1).sum()),
        }
    }

    /// Does the set contain `vpn`?
    pub fn contains(&self, vpn: u64) -> bool {
        match self {
            PageSet::Unbounded => true,
            PageSet::Ranges(rs) => rs.iter().any(|&(a, b)| (a..=b).contains(&vpn)),
        }
    }

    /// Inserts the inclusive vpn range, keeping the representation
    /// sorted and coalesced.
    pub fn insert_range(&mut self, first: u64, last: u64) {
        let PageSet::Ranges(rs) = self else {
            return;
        };
        debug_assert!(first <= last);
        let mut merged = Vec::with_capacity(rs.len() + 1);
        let (mut f, mut l) = (first, last);
        let mut placed = false;
        for &(a, b) in rs.iter() {
            if b.saturating_add(1) < f {
                merged.push((a, b));
            } else if a > l.saturating_add(1) {
                if !placed {
                    merged.push((f, l));
                    placed = true;
                }
                merged.push((a, b));
            } else {
                f = f.min(a);
                l = l.max(b);
            }
        }
        if !placed {
            merged.push((f, l));
        }
        merged.sort_unstable();
        *rs = merged;
    }

    /// Degrades the set to ⊤.
    pub fn make_unbounded(&mut self) {
        *self = PageSet::Unbounded;
    }

    /// Do two sets share any page?
    pub fn intersects(&self, other: &PageSet) -> bool {
        match (self, other) {
            (PageSet::Unbounded, _) | (_, PageSet::Unbounded) => true,
            (PageSet::Ranges(a), PageSet::Ranges(b)) => {
                let mut i = 0;
                let mut j = 0;
                while i < a.len() && j < b.len() {
                    let (af, al) = a[i];
                    let (bf, bl) = b[j];
                    if al < bf {
                        i += 1;
                    } else if bl < af {
                        j += 1;
                    } else {
                        return true;
                    }
                }
                false
            }
        }
    }

    /// Converts to page-aligned byte [`Region`]s for the cluster's
    /// leaf-pull touch filter; `None` when unbounded (no hint).
    pub fn to_regions(&self) -> Option<Vec<Region>> {
        match self {
            PageSet::Unbounded => None,
            PageSet::Ranges(rs) => Some(
                rs.iter()
                    .map(|&(a, b)| {
                        let start = a << PAGE_SHIFT;
                        let end = b
                            .saturating_add(1)
                            .checked_shl(PAGE_SHIFT)
                            .unwrap_or(u64::MAX);
                        Region::new(start, end)
                    })
                    .collect(),
            ),
        }
    }
}

impl std::fmt::Display for PageSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageSet::Unbounded => write!(f, "unbounded"),
            PageSet::Ranges(rs) => {
                if rs.is_empty() {
                    return write!(f, "∅");
                }
                for (i, (a, b)) in rs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    if a == b {
                        write!(f, "{a:#x}")?;
                    } else {
                        write!(f, "{a:#x}-{b:#x}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

/// The analysis result: sound page over-approximations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Footprint {
    /// Pages the program may read (instruction fetches included).
    pub reads: PageSet,
    /// Pages the program may write.
    pub writes: PageSet,
    /// Transfer applications performed — the deterministic work
    /// measure the kernel charges (`analyze_step_ps`).
    pub steps: u64,
}

impl Footprint {
    /// The write footprint as touch regions for prefetch hints; `None`
    /// when the footprint is unbounded (pull everything).
    pub fn touch_regions(&self) -> Option<Vec<Region>> {
        let mut all = PageSet::empty();
        match (&self.reads, &self.writes) {
            (PageSet::Ranges(rs), PageSet::Ranges(ws)) => {
                for &(a, b) in rs.iter().chain(ws.iter()) {
                    all.insert_range(a, b);
                }
                all.to_regions()
            }
            _ => None,
        }
    }
}

/// A byte range the program writes on every run (with the values it
/// writes), discovered by a bounded concrete walk of the entry path.
/// Assumes the target window is mapped — a trap would cut the prefix
/// short — so these feed the *advisory* definite-conflict verdict,
/// never the soundness-gated one.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MustWrite {
    /// First byte address.
    pub addr: u64,
    /// The exact bytes written (little-endian store image).
    pub bytes: Vec<u8>,
}

/// Full analysis output for one program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Analysis {
    /// Sound may-footprints.
    pub footprint: Footprint,
    /// Definite writes on the entry path (advisory).
    pub must_writes: Vec<MustWrite>,
}

/// Static verdict for a sibling fork set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Write footprints are bounded and pairwise page-disjoint: the
    /// siblings can never write/write-conflict at merge time, under
    /// any [`det_memory::ConflictPolicy`]. This is the verdict the
    /// soundness tests gate.
    ConflictFree,
    /// Two siblings definitely write the same byte with values that
    /// both differ from the snapshot: merging them conflicts under
    /// [`det_memory::ConflictPolicy::Strict`] (and, when the values
    /// also differ from each other, under `BenignSameValue`).
    DefiniteConflict,
    /// Overlap cannot be ruled out (or in): run it and let the
    /// deterministic merge decide — the paper's dynamic answer.
    PossibleConflict,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::ConflictFree => "conflict-free",
            Verdict::DefiniteConflict => "definite-conflict",
            Verdict::PossibleConflict => "possible-conflict",
        })
    }
}

/// Classifies a sibling fork set from may-footprints alone:
/// [`Verdict::ConflictFree`] when every pair of write footprints is
/// bounded and disjoint, [`Verdict::PossibleConflict`] otherwise. Use
/// [`classify_with_base`] to also detect definite conflicts.
pub fn classify(siblings: &[&Analysis]) -> Verdict {
    for (i, a) in siblings.iter().enumerate() {
        for b in siblings.iter().skip(i + 1) {
            if a.footprint.writes.intersects(&b.footprint.writes) {
                return Verdict::PossibleConflict;
            }
        }
    }
    Verdict::ConflictFree
}

/// Like [`classify`], with the snapshot's byte contents available:
/// upgrades to [`Verdict::DefiniteConflict`] when two siblings
/// must-write the same byte and both written values differ from the
/// snapshot byte (the paper's strict write/write conflict).
pub fn classify_with_base(siblings: &[&Analysis], base_byte: &dyn Fn(u64) -> u8) -> Verdict {
    match classify(siblings) {
        Verdict::ConflictFree => Verdict::ConflictFree,
        _ => {
            for (i, a) in siblings.iter().enumerate() {
                for b in siblings.iter().skip(i + 1) {
                    if definite_pair_conflict(a, b, base_byte) {
                        return Verdict::DefiniteConflict;
                    }
                }
            }
            Verdict::PossibleConflict
        }
    }
}

fn definite_pair_conflict(a: &Analysis, b: &Analysis, base_byte: &dyn Fn(u64) -> u8) -> bool {
    let bytes_of = |an: &Analysis| -> BTreeMap<u64, u8> {
        let mut m = BTreeMap::new();
        for w in &an.must_writes {
            for (k, &v) in w.bytes.iter().enumerate() {
                m.insert(w.addr + k as u64, v);
            }
        }
        m
    };
    let ma = bytes_of(a);
    let mb = bytes_of(b);
    for (addr, va) in &ma {
        if let Some(vb) = mb.get(addr) {
            let base = base_byte(*addr);
            if *va != base && *vb != base {
                return true;
            }
        }
    }
    false
}

// --- The abstract interpreter ---

type AbsState = [Val; 16];

fn covers(a: &AbsState, b: &AbsState) -> bool {
    a.iter().zip(b.iter()).all(|(x, y)| val_covers(x, y))
}

fn val_covers(a: &Val, b: &Val) -> bool {
    if b.lo < a.lo || b.hi > a.hi {
        return false;
    }
    if a.stride <= 1 {
        return true;
    }
    let aligned =
        |v: i64| -> bool { ((v as i128 - a.lo as i128) as u128).is_multiple_of(a.stride as u128) };
    if !aligned(b.lo) || !aligned(b.hi) {
        return false;
    }
    b.lo == b.hi || (b.stride > 0 && (b.stride as u128).is_multiple_of(a.stride as u128))
}

fn join_states(a: &AbsState, b: &AbsState) -> AbsState {
    std::array::from_fn(|i| a[i].join(&b[i]))
}

struct Engine<'a> {
    segs: &'a [Segment<'a>],
    cfg: AnalyzeConfig,
    steps: u64,
    escaped: bool,
}

/// One instruction's abstract outcome.
struct StepOut {
    edges: Vec<(u64, AbsState)>,
    reads: Vec<(Val, u32)>,
    writes: Vec<(Val, u32)>,
}

impl<'a> Engine<'a> {
    fn fetch(&self, pc: u64) -> Option<Result<Insn, ()>> {
        if !pc.is_multiple_of(4) {
            return Some(Err(()));
        }
        for s in self.segs {
            if pc >= s.base && pc.saturating_add(4) <= s.base.saturating_add(s.bytes.len() as u64) {
                let off = (pc - s.base) as usize;
                let word = u32::from_le_bytes(s.bytes[off..off + 4].try_into().unwrap());
                return Some(decode(word).map_err(|_| ()));
            }
        }
        None
    }

    /// Applies one instruction to `st`, producing successor edges and
    /// the memory accesses this pc can perform.
    fn step(&mut self, pc: u64, st: &AbsState, out: &mut StepOut) {
        use Opcode::*;
        out.edges.clear();
        out.reads.clear();
        out.writes.clear();
        self.steps += 1;

        let insn = match self.fetch(pc) {
            None => {
                if !self.cfg.escape_is_trap {
                    self.escaped = true;
                }
                return;
            }
            Some(Err(())) => return, // trap: path ends
            Some(Ok(i)) => i,
        };
        let next_pc = pc + 4;
        let (rd, rs, rt) = (
            (insn.rd & 15) as usize,
            (insn.rs & 15) as usize,
            (insn.rt & 15) as usize,
        );
        let imm = insn.imm as i64;
        let branch_target = (next_pc as i64).wrapping_add(imm * 4) as u64;
        let mut n = *st;

        let fall = |n: AbsState, out: &mut StepOut| out.edges.push((next_pc, n));
        match insn.op {
            Nop => fall(n, out),
            Halt => {}
            Sys => {
                // The kernel may rewrite every register across a
                // syscall (Get copies, trap handling): havoc the file.
                fall([Val::top(); 16], out);
            }

            Add => {
                n[rd] = st[rs].add(&st[rt]);
                fall(n, out);
            }
            Sub => {
                n[rd] = st[rs].sub(&st[rt]);
                fall(n, out);
            }
            Mul => {
                n[rd] = st[rs].mul(&st[rt]);
                fall(n, out);
            }
            Div | Mod | Divu | Modu => {
                // A zero divisor traps (ending the path); the non-trap
                // continuation is soundly ⊤.
                n[rd] = Val::top();
                fall(n, out);
            }
            And => {
                n[rd] = st[rs].and(&st[rt]);
                fall(n, out);
            }
            Or => {
                n[rd] = st[rs].or(&st[rt]);
                fall(n, out);
            }
            Xor => {
                n[rd] = st[rs].xor(&st[rt]);
                fall(n, out);
            }
            Shl => {
                n[rd] = st[rs].shl(&st[rt]);
                fall(n, out);
            }
            Shr => {
                n[rd] = st[rs].shr(&st[rt]);
                fall(n, out);
            }
            Sar => {
                n[rd] = st[rs].sar(&st[rt]);
                fall(n, out);
            }
            Slt => {
                n[rd] = st[rs].lt_signed(&st[rt]);
                fall(n, out);
            }
            Sltu => {
                n[rd] = st[rs].lt_unsigned(&st[rt]);
                fall(n, out);
            }

            Addi => {
                n[rd] = st[rs].add(&Val::exact(imm));
                fall(n, out);
            }
            Andi => {
                n[rd] = st[rs].and_mask(imm);
                fall(n, out);
            }
            Ori => {
                n[rd] = st[rs].or(&Val::exact(imm));
                fall(n, out);
            }
            Xori => {
                n[rd] = st[rs].xor(&Val::exact(imm));
                fall(n, out);
            }
            Shli => {
                n[rd] = st[rs].shl_imm(imm as u32 & 63);
                fall(n, out);
            }
            Shri => {
                n[rd] = st[rs].shr_imm(imm as u32 & 63);
                fall(n, out);
            }
            Sari => {
                n[rd] = st[rs].sar_imm(imm as u32 & 63);
                fall(n, out);
            }
            Slti => {
                n[rd] = st[rs].lt_signed(&Val::exact(imm));
                fall(n, out);
            }
            Muli => {
                n[rd] = st[rs].scale(imm);
                fall(n, out);
            }
            Ldi => {
                n[rd] = Val::exact(imm);
                fall(n, out);
            }
            Ldih => {
                // (rd << 12) | imm12: affine when no bits shift out.
                let shifted = st[rd].shl_imm(12);
                n[rd] = if shifted.is_top() {
                    Val::top()
                } else {
                    shifted.add(&Val::exact(imm & 0xfff))
                };
                fall(n, out);
            }

            Ldb | Ldh | Ldw | Ldd => {
                let addr = st[rs].add(&Val::exact(imm));
                let size = match insn.op {
                    Ldb => 1,
                    Ldh => 2,
                    Ldw => 4,
                    _ => 8,
                };
                out.reads.push((addr, size));
                n[rd] = match insn.op {
                    Ldb => Val::range(0, 0xff),
                    Ldh => Val::range(0, 0xffff),
                    Ldw => Val::range(0, 0xffff_ffff),
                    _ => Val::top(),
                };
                fall(n, out);
            }
            Stb | Sth | Stw | Std => {
                let addr = st[rs].add(&Val::exact(imm));
                let size = match insn.op {
                    Stb => 1,
                    Sth => 2,
                    Stw => 4,
                    _ => 8,
                };
                out.writes.push((addr, size));
                fall(n, out);
            }

            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                let (a, b) = (st[rs], st[rt]);
                let (taken, fallthrough) = match insn.op {
                    Beq => (a.refine_eq(&b), a.refine_ne(&b)),
                    Bne => (a.refine_ne(&b), a.refine_eq(&b)),
                    Blt => (a.refine_lt_signed(&b), a.refine_ge_signed(&b)),
                    Bge => (a.refine_ge_signed(&b), a.refine_lt_signed(&b)),
                    Bltu => (a.refine_lt_unsigned(&b), a.refine_ge_unsigned(&b)),
                    _ => (a.refine_ge_unsigned(&b), a.refine_lt_unsigned(&b)),
                };
                // Refine the right operand symmetrically where cheap.
                let rt_taken = match insn.op {
                    Beq => b.refine_eq(&a),
                    Blt => b.refine_ge_signed(&a).and_then(|v| v.refine_ne(&a)),
                    _ => Some(b),
                };
                if let Some(ra) = taken {
                    let mut t = *st;
                    t[rs] = ra;
                    if rt != rs {
                        if let Some(rb) = rt_taken {
                            t[rt] = rb;
                        }
                    }
                    out.edges.push((branch_target, t));
                }
                if let Some(ra) = fallthrough {
                    let mut t = *st;
                    t[rs] = ra;
                    out.edges.push((next_pc, t));
                }
            }
            Jal => {
                n[rd] = Val::exact_u64(next_pc);
                out.edges.push((branch_target, n));
            }
            Jalr => {
                let target = st[rs].add(&Val::exact(imm));
                n[rd] = Val::exact_u64(next_pc);
                match target.as_exact() {
                    Some(t) => out.edges.push((t as u64, n)),
                    None => self.escaped = true,
                }
            }

            Fadd | Fsub | Fmul | Fdiv | Fsqrt | Cvtif | Cvtfi => {
                n[rd] = Val::top();
                fall(n, out);
            }
            Flt | Feq | Fle => {
                n[rd] = Val::range(0, 1);
                fall(n, out);
            }
        }
    }
}

/// Analyzes a program image, starting from `entry` with all registers
/// zero (how the kernel starts a VM space).
pub fn analyze(segments: &[Segment<'_>], entry: u64, cfg: &AnalyzeConfig) -> Analysis {
    analyze_with_regs(segments, entry, &[Val::exact(0); 16], cfg)
}

/// Analyzes with explicit initial register abstractions.
pub fn analyze_with_regs(
    segments: &[Segment<'_>],
    entry: u64,
    init: &[Val; 16],
    cfg: &AnalyzeConfig,
) -> Analysis {
    let mut eng = Engine {
        segs: segments,
        cfg: *cfg,
        steps: 0,
        escaped: false,
    };

    // Widened fixpoint over per-pc states; contributions are keyed by
    // source pc so narrowing can recompute exact joins later.
    let mut state: BTreeMap<u64, AbsState> = BTreeMap::new();
    let mut contribs: BTreeMap<u64, BTreeMap<u64, AbsState>> = BTreeMap::new();
    let mut joins: BTreeMap<u64, u32> = BTreeMap::new();
    let mut work: VecDeque<u64> = VecDeque::new();
    let mut queued: BTreeSet<u64> = BTreeSet::new();
    let mut out = StepOut {
        edges: Vec::new(),
        reads: Vec::new(),
        writes: Vec::new(),
    };

    state.insert(entry, *init);
    work.push_back(entry);
    queued.insert(entry);
    let mut gave_up = false;

    while let Some(pc) = work.pop_front() {
        queued.remove(&pc);
        if eng.steps >= cfg.max_steps {
            gave_up = true;
            break;
        }
        let st = state[&pc];
        eng.step(pc, &st, &mut out);
        // Merge parallel edges to the same target (e.g. a zero-offset
        // branch) before recording the contribution.
        let mut merged: BTreeMap<u64, AbsState> = BTreeMap::new();
        for (succ, s) in out.edges.drain(..) {
            merged
                .entry(succ)
                .and_modify(|e| *e = join_states(e, &s))
                .or_insert(s);
        }
        for (succ, s) in merged {
            contribs.entry(succ).or_default().insert(pc, s);
            let mut acc: Option<AbsState> = (succ == entry).then_some(*init);
            for c in contribs[&succ].values() {
                acc = Some(match acc {
                    Some(a) => join_states(&a, c),
                    None => *c,
                });
            }
            let joined = acc.expect("contribution just inserted");
            match state.get(&succ) {
                Some(cur) if covers(cur, &joined) => {}
                Some(cur) => {
                    let grown = join_states(cur, &joined);
                    let cnt = joins.entry(succ).or_insert(0);
                    *cnt += 1;
                    let new = if *cnt > cfg.widen_after {
                        std::array::from_fn(|i| cur[i].widen(&grown[i]))
                    } else {
                        grown
                    };
                    state.insert(succ, new);
                    if queued.insert(succ) {
                        work.push_back(succ);
                    }
                }
                None => {
                    state.insert(succ, joined);
                    if queued.insert(succ) {
                        work.push_back(succ);
                    }
                }
            }
        }
    }

    // Narrowing: recompute transfers from the converged states and
    // replace each state with the plain join of its in-flows (plus the
    // entry seed). Each sweep applies the sound transfer once more, so
    // every iterate stays an over-approximation.
    if !gave_up {
        for _ in 0..cfg.narrow_sweeps {
            let pcs: Vec<u64> = state.keys().copied().collect();
            // In-order chaotic iteration: refresh each pc's state from
            // its in-flows, then immediately re-emit its out-edges, so
            // a narrowed loop head propagates through the whole
            // forward chain within one sweep (backedges catch up on
            // the next). Every state stays a join of sound transfer
            // outputs, so each iterate remains an over-approximation.
            for &pc in &pcs {
                let mut acc: Option<AbsState> = (pc == entry).then_some(*init);
                if let Some(ins) = contribs.get(&pc) {
                    for c in ins.values() {
                        acc = Some(match acc {
                            Some(a) => join_states(&a, c),
                            None => *c,
                        });
                    }
                }
                let st = match acc {
                    Some(a) => {
                        state.insert(pc, a);
                        a
                    }
                    None => state[&pc],
                };
                eng.step(pc, &st, &mut out);
                let mut merged: BTreeMap<u64, AbsState> = BTreeMap::new();
                for (succ, s) in out.edges.drain(..) {
                    merged
                        .entry(succ)
                        .and_modify(|e| *e = join_states(e, &s))
                        .or_insert(s);
                }
                for (succ, s) in merged {
                    contribs.entry(succ).or_default().insert(pc, s);
                }
            }
        }
    }

    // Final pass: accumulate accesses and fetched pages from the
    // converged states.
    let mut reads = PageSet::empty();
    let mut writes = PageSet::empty();
    let mut code_pages = PageSet::empty();
    let pcs: Vec<u64> = state.keys().copied().collect();
    for &pc in &pcs {
        code_pages.insert_range(pc >> PAGE_SHIFT, pc >> PAGE_SHIFT);
        reads.insert_range(pc >> PAGE_SHIFT, pc >> PAGE_SHIFT);
        let st = state[&pc];
        eng.step(pc, &st, &mut out);
        for (set, accesses) in [(&mut reads, &out.reads), (&mut writes, &out.writes)] {
            for (addr, size) in accesses.iter() {
                if addr.is_top() {
                    set.make_unbounded();
                    continue;
                }
                for (lo, hi) in addr.u64_spans() {
                    let last = hi.saturating_add(*size as u64 - 1);
                    set.insert_range(lo >> PAGE_SHIFT, last >> PAGE_SHIFT);
                }
            }
        }
    }

    if gave_up || eng.escaped {
        reads.make_unbounded();
        writes.make_unbounded();
    }
    // Possible self-modifying code: a write into an executed page
    // invalidates the decoded CFG — degrade rather than guess.
    if writes.intersects(&code_pages) && !writes.is_unbounded() {
        reads.make_unbounded();
        writes.make_unbounded();
    }

    let must_writes = must_write_prefix(segments, entry);
    Analysis {
        footprint: Footprint {
            reads,
            writes,
            steps: eng.steps,
        },
        must_writes,
    }
}

/// Bounded concrete walk of the entry path: registers start at zero,
/// loads produce unknowns, and the walk stops at the first unknown
/// branch condition, unknown address, `sys`, or 1024 steps. Every
/// store executed before the stop with known address and value is a
/// definite write (assuming the window is mapped — see [`MustWrite`]).
fn must_write_prefix(segments: &[Segment<'_>], entry: u64) -> Vec<MustWrite> {
    let fetch = |pc: u64| -> Option<Insn> {
        if !pc.is_multiple_of(4) {
            return None;
        }
        for s in segments {
            if pc >= s.base && pc.saturating_add(4) <= s.base.saturating_add(s.bytes.len() as u64) {
                let off = (pc - s.base) as usize;
                let word = u32::from_le_bytes(s.bytes[off..off + 4].try_into().unwrap());
                return decode(word).ok();
            }
        }
        None
    };

    use Opcode::*;
    let mut g: [Option<u64>; 16] = [Some(0); 16];
    let mut pc = entry;
    let mut writes: BTreeMap<u64, u8> = BTreeMap::new();
    for _ in 0..1024 {
        let Some(i) = fetch(pc) else { break };
        let next_pc = pc + 4;
        let (rd, rs, rt) = (
            (i.rd & 15) as usize,
            (i.rs & 15) as usize,
            (i.rt & 15) as usize,
        );
        let imm = i.imm as i64;
        let bin = |a: Option<u64>, b: Option<u64>, f: fn(u64, u64) -> u64| -> Option<u64> {
            Some(f(a?, b?))
        };
        match i.op {
            Nop => pc = next_pc,
            Halt | Sys => break,
            Add => {
                g[rd] = bin(g[rs], g[rt], u64::wrapping_add);
                pc = next_pc;
            }
            Sub => {
                g[rd] = bin(g[rs], g[rt], u64::wrapping_sub);
                pc = next_pc;
            }
            Mul => {
                g[rd] = bin(g[rs], g[rt], u64::wrapping_mul);
                pc = next_pc;
            }
            Div | Mod | Divu | Modu => match (g[rs], g[rt]) {
                (Some(a), Some(b)) if b != 0 => {
                    g[rd] = Some(match i.op {
                        Div => (a as i64).wrapping_div(b as i64) as u64,
                        Mod => (a as i64).wrapping_rem(b as i64) as u64,
                        Divu => a / b,
                        _ => a % b,
                    });
                    pc = next_pc;
                }
                _ => break, // may trap or unknown: stop the prefix
            },
            And => {
                g[rd] = bin(g[rs], g[rt], |a, b| a & b);
                pc = next_pc;
            }
            Or => {
                g[rd] = bin(g[rs], g[rt], |a, b| a | b);
                pc = next_pc;
            }
            Xor => {
                g[rd] = bin(g[rs], g[rt], |a, b| a ^ b);
                pc = next_pc;
            }
            Shl => {
                g[rd] = bin(g[rs], g[rt], |a, b| a.wrapping_shl(b as u32));
                pc = next_pc;
            }
            Shr => {
                g[rd] = bin(g[rs], g[rt], |a, b| a.wrapping_shr(b as u32));
                pc = next_pc;
            }
            Sar => {
                g[rd] = bin(g[rs], g[rt], |a, b| {
                    (a as i64).wrapping_shr(b as u32) as u64
                });
                pc = next_pc;
            }
            Slt => {
                g[rd] = bin(g[rs], g[rt], |a, b| ((a as i64) < (b as i64)) as u64);
                pc = next_pc;
            }
            Sltu => {
                g[rd] = bin(g[rs], g[rt], |a, b| (a < b) as u64);
                pc = next_pc;
            }
            Addi => {
                g[rd] = g[rs].map(|a| a.wrapping_add(imm as u64));
                pc = next_pc;
            }
            Andi => {
                g[rd] = g[rs].map(|a| a & imm as u64);
                pc = next_pc;
            }
            Ori => {
                g[rd] = g[rs].map(|a| a | imm as u64);
                pc = next_pc;
            }
            Xori => {
                g[rd] = g[rs].map(|a| a ^ imm as u64);
                pc = next_pc;
            }
            Shli => {
                g[rd] = g[rs].map(|a| a.wrapping_shl(imm as u32 & 63));
                pc = next_pc;
            }
            Shri => {
                g[rd] = g[rs].map(|a| a.wrapping_shr(imm as u32 & 63));
                pc = next_pc;
            }
            Sari => {
                g[rd] = g[rs].map(|a| (a as i64).wrapping_shr(imm as u32 & 63) as u64);
                pc = next_pc;
            }
            Slti => {
                g[rd] = g[rs].map(|a| ((a as i64) < imm) as u64);
                pc = next_pc;
            }
            Muli => {
                g[rd] = g[rs].map(|a| a.wrapping_mul(imm as u64));
                pc = next_pc;
            }
            Ldi => {
                g[rd] = Some(imm as u64);
                pc = next_pc;
            }
            Ldih => {
                g[rd] = g[rd].map(|a| (a << 12) | (i.imm as u64 & 0xfff));
                pc = next_pc;
            }
            Ldb | Ldh | Ldw | Ldd => {
                // Memory contents are unknown to the static prefix.
                g[rd] = None;
                pc = next_pc;
            }
            Stb | Sth | Stw | Std => {
                let (Some(base), Some(v)) = (g[rs], g[rd]) else {
                    break;
                };
                let a = base.wrapping_add(imm as u64);
                let bytes: &[u8] = match i.op {
                    Stb => &v.to_le_bytes()[..1],
                    Sth => &v.to_le_bytes()[..2],
                    Stw => &v.to_le_bytes()[..4],
                    _ => &v.to_le_bytes()[..8],
                };
                for (k, &bv) in bytes.iter().enumerate() {
                    writes.insert(a.wrapping_add(k as u64), bv);
                }
                pc = next_pc;
            }
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                let (Some(a), Some(b)) = (g[rs], g[rt]) else {
                    break;
                };
                let taken = match i.op {
                    Beq => a == b,
                    Bne => a != b,
                    Blt => (a as i64) < (b as i64),
                    Bge => (a as i64) >= (b as i64),
                    Bltu => a < b,
                    _ => a >= b,
                };
                pc = if taken {
                    (next_pc as i64).wrapping_add(imm * 4) as u64
                } else {
                    next_pc
                };
            }
            Jal => {
                g[rd] = Some(next_pc);
                pc = (next_pc as i64).wrapping_add(imm * 4) as u64;
            }
            Jalr => {
                let Some(base) = g[rs] else { break };
                g[rd] = Some(next_pc);
                pc = base.wrapping_add(imm as u64);
            }
            Fadd | Fsub | Fmul | Fdiv | Fsqrt | Cvtif | Cvtfi | Flt | Feq | Fle => {
                // Float semantics are deterministic but not modeled
                // here; the result is unknown.
                g[rd] = None;
                pc = next_pc;
            }
        }
    }

    // Coalesce the byte map into contiguous runs.
    let mut runs: Vec<MustWrite> = Vec::new();
    for (addr, v) in writes {
        match runs.last_mut() {
            Some(r) if r.addr + r.bytes.len() as u64 == addr => r.bytes.push(v),
            _ => runs.push(MustWrite {
                addr,
                bytes: vec![v],
            }),
        }
    }
    runs
}
