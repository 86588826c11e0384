//! Differential checkpoint/restore properties.
//!
//! The oracle is the PR 6 replay contract: a recorded trace re-applied
//! through the pure core lands bit-identically on the live outcome.
//! These properties assert that *checkpoint at a random restorable
//! boundary + byte round-trip + restore + resume the suffix* lands on
//! exactly the same outcome — exit, virtual clock, the full
//! [`det_kernel::KernelStats`] vector, device outputs, and per-space
//! digests. Recovery is replay with a snapshotted prefix; nothing may
//! leak through the serialization.

use det_kernel::{
    Checkpoint, Checkpointer, CopySpec, CostModel, DeviceId, GetSpec, Kernel, KernelConfig,
    Program, PutSpec, Region, RunOutcome, StopReason, Trace, TraceSink, latest_restorable_boundary,
    restore_chain,
};
use det_memory::Perm;
use proptest::prelude::*;

/// Parameters of one randomized fork/exchange/merge workload.
#[derive(Clone, Debug)]
struct Params {
    n: u64,
    rounds: u64,
    seed: u64,
    /// Root checkpoints after every `ckpt_every`-th join (0 = never).
    ckpt_every: u64,
    dev: bool,
}

/// Runs the parameterized storm traced and returns the live outcome
/// plus its recording. The shape mirrors the PR 6 storm: fork N
/// children with snapshots, `rounds` rounds of ret/put_get exchange
/// with merges, a final halting join, seeded data so page contents
/// vary per case, and optional root checkpoints and device I/O.
fn run_traced(p: &Params) -> (RunOutcome, Trace) {
    let sink = TraceSink::new();
    let kernel = Kernel::new(KernelConfig::builder().trace(sink.clone()).build());
    if p.dev {
        kernel.push_input(DeviceId::ConsoleIn, p.seed.to_le_bytes().to_vec());
    }
    let p = p.clone();
    let region = Region::new(0x1000, 0x5000);
    let out = kernel.run(move |ctx| {
        ctx.mem_mut().map_zero(region, Perm::RW)?;
        if p.dev {
            let data = ctx.dev_read(DeviceId::ConsoleIn)?.unwrap_or_default();
            ctx.dev_write(DeviceId::ConsoleOut, &data)?;
        }
        for i in 0..p.n {
            let (rounds, seed, n) = (p.rounds, p.seed, p.n);
            ctx.put(
                i,
                PutSpec::new()
                    .program(Program::native(move |c| {
                        for round in 0..rounds {
                            let v = seed.wrapping_mul(round * n + i + 1);
                            c.mem_mut().write_u64(0x2000 + i * 8, v)?;
                            c.ret(round)?;
                        }
                        Ok(i as i32)
                    }))
                    .copy(CopySpec::mirror(region))
                    .snap()
                    .start(),
            )?;
        }
        let mut joins = 0u64;
        for round in 0..p.rounds {
            for i in 0..p.n {
                let r = if round == 0 {
                    ctx.get(i, GetSpec::new().merge(region))?
                } else {
                    ctx.put_get(
                        i,
                        PutSpec::new().copy(CopySpec::mirror(region)).snap().start(),
                        GetSpec::new().merge(region),
                    )?
                };
                assert_eq!(r.stop, StopReason::Ret);
                joins += 1;
                if p.ckpt_every > 0 && joins.is_multiple_of(p.ckpt_every) {
                    ctx.checkpoint()?;
                }
            }
        }
        for i in 0..p.n {
            let r = ctx.put_get(
                i,
                PutSpec::new().copy(CopySpec::mirror(region)).snap().start(),
                GetSpec::new().merge(region),
            )?;
            assert_eq!(r.stop, StopReason::Halted);
        }
        Ok(ctx.mem().content_digest().value() as i32)
    });
    let trace = sink.collect().expect("sink recorded");
    (out, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Checkpoint at a random restorable boundary, round-trip the
    /// bundle through bytes, restore, and resume the trace suffix:
    /// the outcome must equal the uninterrupted replay in every field.
    #[test]
    fn checkpoint_restore_resume_matches_oracle(
        n in 1u64..4,
        rounds in 1u64..4,
        seed in any::<u64>(),
        ckpt_every in 0u64..4,
        dev in any::<bool>(),
        cut_frac in 0u64..=1000,
    ) {
        let p = Params { n, rounds, seed, ckpt_every, dev };
        let (live, trace) = run_traced(&p);
        let oracle = trace.replay().expect("trace replays");
        prop_assert_eq!(&oracle.exit, &live.exit);
        prop_assert_eq!(oracle.vclock_ns, live.vclock_ns);

        let cut = (trace.events.len() as u64 * cut_frac / 1000) as usize;
        let boundary = latest_restorable_boundary(&trace, cut);
        prop_assert!(boundary <= cut);

        let ck = Checkpoint::capture(&trace, boundary).expect("capture");
        let ck = Checkpoint::from_bytes(&ck.to_bytes()).expect("byte round-trip");
        prop_assert_eq!(ck.boundary(), boundary as u64);
        prop_assert_eq!(ck.parent(), None);

        let out = ck
            .restore()
            .expect("restore")
            .resume(&trace.events[boundary..])
            .expect("resume");
        prop_assert_eq!(&out.exit, &oracle.exit);
        prop_assert_eq!(out.vclock_ns, oracle.vclock_ns);
        prop_assert_eq!(&out.stats, &oracle.stats);
        prop_assert_eq!(&out.outputs, &oracle.outputs);
        prop_assert_eq!(&out.spaces, &oracle.spaces);
        prop_assert_eq!(&out.space_paths, &oracle.space_paths);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An incremental chain (full base + delta links captured by one
    /// `Checkpointer` mid-stream) restores through `restore_chain` to
    /// the same outcome as the uninterrupted replay.
    #[test]
    fn incremental_chain_matches_oracle(
        n in 1u64..4,
        rounds in 2u64..4,
        seed in any::<u64>(),
        links in 2usize..5,
    ) {
        let p = Params { n, rounds, seed, ckpt_every: 2, dev: false };
        let (_, trace) = run_traced(&p);
        let oracle = trace.replay().expect("trace replays");

        let len = trace.events.len();
        let mut cuts: Vec<usize> = (1..=links)
            .map(|j| latest_restorable_boundary(&trace, len * j / (links + 1)))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();

        let mut cp = Checkpointer::new(&trace.meta);
        let mut fed = 0usize;
        let mut chain = Vec::new();
        for &cut in &cuts {
            while fed < cut {
                cp.feed(&trace.events[fed]).expect("feed");
                fed += 1;
            }
            chain.push(cp.capture());
        }
        // Round-trip every link through its byte form, and check the
        // parent-digest links: first full, the rest incremental.
        let chain: Vec<Checkpoint> = chain
            .iter()
            .map(|c| Checkpoint::from_bytes(&c.to_bytes()).expect("round-trip"))
            .collect();
        prop_assert_eq!(chain[0].parent(), None);
        for w in chain.windows(2) {
            prop_assert_eq!(w[1].parent(), Some(w[0].digest()));
        }

        let last = *cuts.last().expect("at least one cut");
        let out = restore_chain(&chain)
            .expect("chain restores")
            .resume(&trace.events[last..])
            .expect("resume");
        prop_assert_eq!(&out.exit, &oracle.exit);
        prop_assert_eq!(out.vclock_ns, oracle.vclock_ns);
        prop_assert_eq!(&out.stats, &oracle.stats);
        prop_assert_eq!(&out.outputs, &oracle.outputs);
        prop_assert_eq!(&out.spaces, &oracle.spaces);
    }
}

/// Locks the checkpoint cost law into virtual time: a root checkpoint
/// advances the clock by exactly `syscall_ps + checkpoint_leaf_ps ×
/// dirty-leaves` — proportional to the *dirty* set, not the address
/// space.
#[test]
fn checkpoint_cost_is_per_dirty_leaf() {
    fn run(pages: u64, ckpt: bool) -> (RunOutcome, u64) {
        let cfg = KernelConfig::builder()
            .costs(CostModel::calibrated())
            .build();
        let mut leaves = 0;
        let out = Kernel::new(cfg).run(|ctx| {
            ctx.mem_mut()
                .map_zero(Region::new(0x1000, 0x1000 + 64 * 0x1000), Perm::RW)?;
            for p in 0..pages {
                ctx.mem_mut().write_u64(0x1000 + p * 0x1000, p + 1)?;
            }
            let leaves = if ckpt { ctx.checkpoint()? } else { 0 };
            Ok(leaves as i32)
        });
        if let Ok(code) = out.exit {
            leaves = code as u64;
        }
        (out, leaves)
    }

    let costs = CostModel::calibrated();
    let mut prev_leaves = 0;
    for pages in [1u64, 8, 32] {
        let (base, _) = run(pages, false);
        let (with, leaves) = run(pages, true);
        assert!(leaves > 0, "checkpoint saw dirty leaves");
        assert!(
            leaves >= prev_leaves,
            "dirty-leaf count grows with the dirty set"
        );
        prev_leaves = leaves;
        assert_eq!(with.stats.checkpoints, 1);
        assert_eq!(with.stats.checkpoint_leaves, leaves);
        // Both charges are multiples of 1000 ps, so the ns-clock delta
        // is exact regardless of where the base clock sits.
        let charge_ps = costs.syscall_ps + costs.checkpoint_leaf_ps * leaves;
        assert_eq!(
            with.vclock_ns - base.vclock_ns,
            charge_ps / 1000,
            "checkpoint must charge per dirty leaf ({pages} pages, {leaves} leaves)"
        );
    }
}
