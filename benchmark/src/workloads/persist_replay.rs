//! `persist_replay` — the `kernel` layer used the other way round: the
//! pure `apply` core driven by recorded events with no execution
//! vehicles, reading back what the live workloads write. Every
//! scenario goes traced live run → `Trace::to_json` → `Trace::from_json`
//! → `replay` → `Checkpoint::capture` → `to_bytes` → `from_bytes` →
//! `restore` → `resume(suffix)` → conform bundle → compare. It is the
//! only row where trace and checkpoint encode/decode do the work, and
//! it stays flat for every execution-path optimisation.
//!
//! The scenarios are the registry's small ones plus a seeded fork/join
//! storm of the benchmark's own. Traces over 200 KB are left out: the
//! JSON shim's string parser is quadratic, one such trace takes
//! seconds to decode (README, "Scratch findings").

use determinator::conform::{Artifacts, ScenarioConfig, ScenarioRun, Scope, compare, find};
use determinator::kernel::{
    Checkpoint, CopySpec, GetSpec, Kernel, KernelConfig, Perm, Program, PutSpec, Region,
    ReplayOutcome, RunOutcome, StopReason, Trace, TraceSink, latest_restorable_boundary,
};

use super::{Part, Workload, part};
use crate::seed::Rng;
use crate::span;

const SCENARIOS: [&str; 7] = [
    "quickstart_swap",
    "parallel_make",
    "vm_counter_stream",
    "vm_sandbox",
    "device_io",
    "wl_qsort",
    "wl_vm_qsort",
];

/// The seeded storm: `children` native children exchange with the root
/// for `rounds` rounds of fused `put_get`, each declaring `work_ns` of
/// compute and writing `salt`-derived words into its own slots of a
/// shared region merged every round. Counts are fixed — trace decoding
/// is quadratic in trace size, so one more round is a different
/// workload — and the seed moves contents and declared work only.
#[derive(Clone, Copy, Debug)]
pub struct Inputs {
    pub children: u64,
    pub rounds: u64,
    pub work_ns: u64,
    pub salt: u64,
}

pub fn inputs(mut rng: Rng) -> Inputs {
    Inputs {
        children: 3,
        rounds: 2,
        work_ns: rng.jitter(1_000_000, 3),
        salt: rng.next(),
    }
}

fn storm(i: Inputs, kcfg: KernelConfig) -> RunOutcome {
    let region = Region::new(0x2000, 0x4000);
    Kernel::new(kcfg).run(move |ctx| {
        ctx.mem_mut().map_zero(region, Perm::RW)?;
        let exchange = || PutSpec::new().copy(CopySpec::mirror(region)).snap().start();
        for c in 0..i.children {
            let body = Program::native(move |cc| {
                for round in 0..i.rounds {
                    let word = i.salt.rotate_left((c * 8 + round) as u32) ^ round;
                    cc.charge(i.work_ns)?;
                    cc.mem_mut()
                        .write_u64(region.start + c * 0x800 + round * 8, word)?;
                    cc.ret(round)?;
                }
                Ok(c as i32)
            });
            ctx.put(c, exchange().program(body))?;
        }
        for round in 0..=i.rounds {
            for c in 0..i.children {
                let r = if round == 0 {
                    ctx.get(c, GetSpec::new().merge(region))?
                } else {
                    ctx.put_get(c, exchange(), GetSpec::new().merge(region))?
                };
                let last = round == i.rounds;
                assert_eq!(
                    r.stop == StopReason::Halted,
                    last,
                    "child {c} round {round}"
                );
            }
        }
        Ok((ctx.mem().content_digest().value() & 0x7fff_ffff) as i32)
    })
}

fn same_as_live(what: &str, live: &RunOutcome, re: &ReplayOutcome) -> Result<(), String> {
    let same = re.exit == live.exit
        && re.vclock_ns == live.vclock_ns
        && re.stats == live.stats
        && re.outputs == live.outputs
        && re.spaces == live.spaces;
    same.then_some(())
        .ok_or(format!("{what} differs from the live run"))
}

/// The whole persistence pipeline over one traced live run.
fn pipeline(
    name: &'static str,
    live: impl FnOnce(&ScenarioConfig) -> ScenarioRun,
) -> Result<Part, String> {
    let cfg = ScenarioConfig::traced(Default::default());
    let run = {
        let _s = span::enter("kernel", "live_traced");
        live(&cfg)
    };
    let trace = run.trace.as_ref().ok_or("run was not traced")?;
    let json = {
        let _s = span::enter("kernel", "trace_encode");
        trace.to_json()
    };
    let decoded = {
        let _s = span::enter("kernel", "trace_decode");
        Trace::from_json(&json).map_err(|e| format!("trace decode: {e:?}"))?
    };
    let replayed = {
        let _s = span::enter("kernel", "replay");
        decoded.replay().map_err(|e| format!("replay: {e:?}"))?
    };
    same_as_live("replay", &run.outcome, &replayed)?;

    let boundary = latest_restorable_boundary(&decoded, decoded.len() / 2);
    let ckpt = {
        let _s = span::enter("kernel", "ckpt_capture");
        Checkpoint::capture(&decoded, boundary).map_err(|e| format!("capture: {e:?}"))?
    };
    let bytes = {
        let _s = span::enter("kernel", "ckpt_encode");
        ckpt.to_bytes()
    };
    let ckpt = {
        let _s = span::enter("kernel", "ckpt_decode");
        Checkpoint::from_bytes(&bytes).map_err(|e| format!("checkpoint decode: {e:?}"))?
    };
    let restored = {
        let _s = span::enter("kernel", "ckpt_restore");
        ckpt.restore().map_err(|e| format!("restore: {e:?}"))?
    };
    let resumed = {
        let _s = span::enter("kernel", "resume");
        restored
            .resume(&decoded.events[boundary..])
            .map_err(|e| format!("resume: {e:?}"))?
    };
    same_as_live("restore+resume", &run.outcome, &resumed)?;

    let (artifacts, bundle) = {
        let _s = span::enter("conform", "bundle");
        let a = Artifacts::collect(name, cfg.dispatch, &run);
        let bytes = a.to_bytes(Scope::Full);
        (a, bytes)
    };
    {
        let _s = span::enter("conform", "compare");
        let recovered = Artifacts::from_recovery(name, cfg.dispatch, &resumed, &decoded);
        if let Some(d) = compare(&artifacts, &recovered, Scope::Full) {
            return Err(format!("recovered bundle diverges: {}", d.detail));
        }
    }

    Ok(Part {
        counts: vec![
            ("trace_bytes", json.len() as u64),
            ("trace_events", decoded.len() as u64),
            ("ckpt_bytes", bytes.len() as u64),
            ("bundle_bytes", bundle.len() as u64),
        ],
        ..Part::of_outcome(run.outcome)?
    })
}

type Live = Box<dyn Fn(&ScenarioConfig) -> ScenarioRun>;

/// Every scenario of the workload as a live run: the registry's by
/// name, then the storm, traced or not as the configuration says.
fn scenarios(i: Inputs) -> Vec<(&'static str, Live)> {
    let mut all: Vec<(&'static str, Live)> = SCENARIOS
        .iter()
        .map(|&name| {
            let run = find(name).expect("scenario is in the registry").run;
            (name, Box::new(run) as Live)
        })
        .collect();
    let storm_run = move |cfg: &ScenarioConfig| {
        let sink = cfg.trace.then(TraceSink::new);
        let kcfg = match &sink {
            Some(sink) => KernelConfig::builder().trace(sink.clone()).build(),
            None => KernelConfig::default(),
        };
        ScenarioRun {
            outcome: storm(i, kcfg),
            trace: sink.and_then(|s| s.collect()),
        }
    };
    all.push(("seeded_storm", Box::new(storm_run)));
    all
}

/// A plain live run of every scenario with or without a sink, for the
/// record-overhead ratio.
pub fn live_only(i: Inputs, traced: bool) {
    let mut cfg = ScenarioConfig::traced(Default::default());
    cfg.trace = traced;
    for (name, live) in scenarios(i) {
        assert!(live(&cfg).outcome.exit.is_ok(), "{name} trapped");
    }
}

pub struct PersistReplay {
    scenarios: Vec<(&'static str, Live)>,
}

impl PersistReplay {
    pub fn build(rng: Rng) -> PersistReplay {
        PersistReplay {
            scenarios: scenarios(inputs(rng)),
        }
    }
}

impl Workload for PersistReplay {
    fn iterate(&mut self) -> Vec<Part> {
        self.scenarios
            .iter()
            .map(|&(name, ref live)| part("kernel", name, || pipeline(name, live)))
            .collect()
    }
}
