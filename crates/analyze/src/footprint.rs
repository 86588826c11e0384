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
//!   image, a possible store into an executed code page
//!   (self-modifying code), or exceeding the step budget (400 000
//!   transfer applications) all degrade to [`PageSet::Unbounded`] —
//!   never to a false negative;
//! * traps terminate a path; accesses attempted before the trap are
//!   already covered because the faulting address lies inside the
//!   predicted interval.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use det_memory::{PAGE_SHIFT, PAGE_SIZE, Region};
use det_vm::{Flow, Form, Insn, Opcode, decode};

use crate::domain::Val;

/// A mapped, executable byte range of the analyzed image.
#[derive(Clone, Copy, Debug)]
pub struct Segment<'a> {
    /// Virtual address of the first byte.
    pub base: u64,
    /// The bytes (code and data alike; zeroes decode as `nop`).
    pub bytes: &'a [u8],
}

/// The analysis has no knobs. This fieldless type remains only because
/// `benchmark/src/probes.rs` passes `&AnalyzeConfig::default()` to
/// [`analyze`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AnalyzeConfig {}

/// Transfer applications before the analysis gives up and reports
/// [`PageSet::Unbounded`] (still sound, never wrong).
const MAX_STEPS: u64 = 400_000;
/// Joins observed at a pc before widening kicks in.
const WIDEN_AFTER: u32 = 8;
/// Narrowing sweeps after the widened fixpoint converges.
const NARROW_SWEEPS: u32 = 2;

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
                        // The top page's end (2^64) is not representable.
                        let end = b
                            .checked_add(1)
                            .and_then(|n| n.checked_mul(PAGE_SIZE as u64))
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
    /// measure a caller prices the analysis by.
    pub steps: u64,
}

impl Footprint {
    /// Every page the program may touch (reads ∪ writes) as touch
    /// regions for prefetch hints; `None` when either set is unbounded
    /// (pull everything).
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

/// Full analysis output for one program. Its one field remains only
/// because `benchmark/src/probes.rs` reads `analyze(..).footprint`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Analysis {
    /// Sound may-footprints.
    pub footprint: Footprint,
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
    /// The instruction at `pc`: `None` unless all four bytes of its word
    /// lie inside one segment, `Some(Err)` for a trap.
    fn fetch(&self, pc: u64) -> Option<Result<Insn, ()>> {
        if !pc.is_multiple_of(4) {
            return Some(Err(()));
        }
        let word = self.segs.iter().find_map(|s| {
            let off = usize::try_from(pc.checked_sub(s.base)?).ok()?;
            s.bytes.get(off..off.checked_add(4)?)
        })?;
        let word = u32::from_le_bytes(word.try_into().expect("four bytes"));
        Some(decode(word).map_err(|_| ()))
    }

    /// Applies one instruction to `st`, producing successor edges and
    /// the memory accesses this pc can perform. The instruction's form
    /// decides which registers change, its access and its edges; only
    /// the abstract value operations ([`alu`], [`refine`]) are per
    /// opcode.
    fn step(&mut self, pc: u64, st: &AbsState, out: &mut StepOut) {
        out.edges.clear();
        out.reads.clear();
        out.writes.clear();
        self.steps += 1;

        let insn = match self.fetch(pc) {
            None => {
                self.escaped = true;
                return;
            }
            Some(Err(())) => return, // trap: path ends
            Some(Ok(i)) => i,
        };
        let next_pc = pc.wrapping_add(4);
        let (rd, rs, rt) = (
            (insn.rd & 15) as usize,
            (insn.rs & 15) as usize,
            (insn.rt & 15) as usize,
        );
        let imm = insn.imm as i64;
        let addr = st[rs].add(&Val::exact(imm));
        let mut n = *st;

        let form = insn.op.form();
        match form {
            Form::Nop | Form::Branch => {}
            // The space is done: no successor.
            Form::Halt => return,
            // The kernel may rewrite every register across a syscall
            // (Get copies, trap handling): havoc the file.
            Form::Sys => n = [Val::top(); 16],
            Form::Alu | Form::Unary => n[rd] = alu(insn.op, &st[rs], &st[rt], imm),
            Form::AluImm => n[rd] = alu(insn.op, &st[rs], &Val::exact(imm), imm),
            Form::Ldi => n[rd] = Val::exact(imm),
            Form::Ldih => {
                // (rd << 12) | imm12: affine when no bits shift out.
                let shifted = st[rd].shl_imm(12);
                n[rd] = if shifted.is_top() {
                    Val::top()
                } else {
                    shifted.add(&Val::exact(imm & 0xfff))
                };
            }
            Form::Load(w) => {
                out.reads.push((addr, w.into()));
                // Zero-extended: below 2^(8w), and any value at w = 8.
                n[rd] = match w {
                    8 => Val::top(),
                    _ => Val::range(0, (1 << (8 * w)) - 1),
                };
            }
            Form::Store(w) => out.writes.push((addr, w.into())),
            Form::Jal | Form::Jalr => n[rd] = Val::exact_u64(next_pc),
        }

        let target = insn.branch_target(pc);
        match form.flow() {
            Flow::Fall | Flow::Stop => out.edges.push((next_pc, n)),
            Flow::Jump => out.edges.push((target, n)),
            Flow::Indirect => match addr.as_exact() {
                Some(t) => out.edges.push((t as u64, n)),
                None => self.escaped = true,
            },
            Flow::Branch => {
                let (a, b) = (st[rs], st[rt]);
                let [taken, fallthrough, rt_taken] = refine(insn.op, &a, &b);
                if let Some(ra) = taken {
                    let mut t = *st;
                    t[rs] = ra;
                    if rt != rs {
                        if let Some(rb) = rt_taken {
                            t[rt] = rb;
                        }
                    }
                    out.edges.push((target, t));
                }
                if let Some(ra) = fallthrough {
                    let mut t = *st;
                    t[rs] = ra;
                    out.edges.push((next_pc, t));
                }
            }
        }
    }
}

/// The abstract value an ALU opcode computes from `rs`'s value `a`
/// and `b`, which is `rt`'s value or the immediate `imm`.
fn alu(op: Opcode, a: &Val, b: &Val, imm: i64) -> Val {
    use Opcode::*;
    match op {
        Add | Addi => a.add(b),
        Sub => a.sub(b),
        Mul => a.mul(b),
        Muli => a.scale(imm),
        And => a.and(b),
        Andi => a.and_mask(imm),
        Or | Ori => a.or(b),
        Xor | Xori => a.xor(b),
        Shl => a.shl(b),
        Shr => a.shr(b),
        Sar => a.sar(b),
        Shli => a.shl_imm(imm as u32 & 63),
        Shri => a.shr_imm(imm as u32 & 63),
        Sari => a.sar_imm(imm as u32 & 63),
        Slt | Slti => a.lt_signed(b),
        Sltu => a.lt_unsigned(b),
        Flt | Feq | Fle => Val::range(0, 1),
        // A zero divisor traps (ending the path), so the non-trap
        // continuation is soundly ⊤, as is every other float result.
        _ => Val::top(),
    }
}

/// A conditional branch's refinements of `rs`'s value `a` against
/// `rt`'s value `b`: `a` on the taken edge, `a` on the fall-through
/// edge, and `b` on the taken edge (refined where cheap). `None` is an
/// edge that cannot be taken.
fn refine(op: Opcode, a: &Val, b: &Val) -> [Option<Val>; 3] {
    use Opcode::*;
    match op {
        Beq => [a.refine_eq(b), a.refine_ne(b), b.refine_eq(a)],
        Bne => [a.refine_ne(b), a.refine_eq(b), Some(*b)],
        Blt => [
            a.refine_lt_signed(b),
            a.refine_ge_signed(b),
            b.refine_ge_signed(a).and_then(|v| v.refine_ne(a)),
        ],
        Bge => [a.refine_ge_signed(b), a.refine_lt_signed(b), Some(*b)],
        Bltu => [a.refine_lt_unsigned(b), a.refine_ge_unsigned(b), Some(*b)],
        _ => [a.refine_ge_unsigned(b), a.refine_lt_unsigned(b), Some(*b)],
    }
}

/// Analyzes a program image, starting from `entry` with all registers
/// zero (how the kernel starts a VM space).
pub fn analyze(segments: &[Segment<'_>], entry: u64, _cfg: &AnalyzeConfig) -> Analysis {
    analyze_with_regs(segments, entry, &[Val::exact(0); 16])
}

/// Analyzes with explicit initial register abstractions.
pub fn analyze_with_regs(segments: &[Segment<'_>], entry: u64, init: &[Val; 16]) -> Analysis {
    let mut eng = Engine {
        segs: segments,
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
        if eng.steps >= MAX_STEPS {
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
                    let new = if *cnt > WIDEN_AFTER {
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
        for _ in 0..NARROW_SWEEPS {
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

    Analysis {
        footprint: Footprint {
            reads,
            writes,
            steps: eng.steps,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::PageSet;

    fn set(ranges: &[(u64, u64)]) -> PageSet {
        PageSet::Ranges(ranges.to_vec())
    }

    #[test]
    fn intersects_is_page_overlap() {
        let (a, b) = (set(&[(1, 2)]), set(&[(3, 4)]));
        let empty = PageSet::empty();
        // Either side unbounded overlaps everything, the empty set too.
        for s in [&a, &empty, &PageSet::Unbounded] {
            assert!(PageSet::Unbounded.intersects(s));
            assert!(s.intersects(&PageSet::Unbounded));
        }
        // Adjacent but disjoint ranges share no page.
        assert!(!a.intersects(&b) && !b.intersects(&a));
        // One shared page is an overlap, whichever set holds more.
        let c = set(&[(0, 0), (2, 3), (9, 9)]);
        assert!(a.intersects(&c) && c.intersects(&a));
        assert!(b.intersects(&c) && c.intersects(&b));
        assert!(!set(&[(4, 8)]).intersects(&c));
        // The empty set meets no bounded set, itself included.
        for s in [&a, &b, &c, &empty] {
            assert!(!empty.intersects(s) && !s.intersects(&empty));
        }
    }
}
