//! The blackscholes benchmark (PARSEC): option pricing, run under the
//! deterministic scheduler since the original uses pthreads (§4.5,
//! §6.2 — "porting required no changes; the deterministic scheduler's
//! quantization incurs a fixed cost").
//!
//! The master fills the inputs, and each batch of `price_stripe` loads
//! its inputs and stores its prices, through a [`det_memory::Window`]:
//! the inputs read-only, the batch's slice of outputs — exactly the
//! pages the batch writes — writable. A batch's window ends before its
//! charge, so the charges stay the deterministic scheduler's only
//! preemption points and no view outlives a quantum.

use det_kernel::{Kernel, KernelConfig, Region, RunOutcome};
use det_memory::Perm;
use det_runtime::dsched::DSched;
use det_runtime::threads::ThreadGroup;

use crate::mathx::{XorShift64, norm_cdf};
use crate::{Mode, RunResult};

/// Virtual cost of pricing one option (exp/log/sqrt-heavy formula).
pub const NS_PER_OPTION: u64 = 400;

/// The paper's deterministic-scheduler quantum: 10 M instructions at
/// 1 GIPS ≈ 10 ms of virtual time.
pub const PAPER_QUANTUM_NS: u64 = 10_000_000;

const BASE: u64 = 0x1000_0000;
// Layout: per option 5 inputs (S, K, r, v, T) then call+put outputs.
const IN_STRIDE: usize = 5 * 8;

/// Benchmark parameters.
#[derive(Clone, Copy, Debug)]
pub struct BsConfig {
    /// Threads.
    pub threads: usize,
    /// Option count.
    pub options: usize,
    /// dsched quantum (virtual ns) for Determinator mode.
    pub quantum_ns: u64,
}

impl BsConfig {
    /// Test-sized configuration with the paper's quantum scaled down.
    pub fn quick(threads: usize) -> BsConfig {
        BsConfig {
            threads,
            options: 4096,
            quantum_ns: 100_000,
        }
    }
}

fn region_for(options: usize) -> Region {
    let bytes = options * (IN_STRIDE + 16);
    let end = (BASE + bytes as u64 + 0xfff) & !0xfff;
    Region::new(BASE, end)
}

fn out_base(options: usize) -> u64 {
    BASE + (options * IN_STRIDE) as u64
}

/// Black–Scholes closed-form call and put prices.
pub fn price(s: f64, k: f64, r: f64, v: f64, t: f64) -> (f64, f64) {
    let d1 = ((s / k).ln() + (r + v * v / 2.0) * t) / (v * t.sqrt());
    let d2 = d1 - v * t.sqrt();
    let call = s * norm_cdf(d1) - k * (-r * t).exp() * norm_cdf(d2);
    let put = k * (-r * t).exp() * norm_cdf(-d2) - s * norm_cdf(-d1);
    (call, put)
}

fn price_stripe(
    c: &mut det_kernel::SpaceCtx,
    options: usize,
    lo: usize,
    hi: usize,
) -> std::result::Result<(), det_kernel::KernelError> {
    // Price in batches so dsched quanta can preempt between charges.
    const BATCH: usize = 64;
    let ob = out_base(options);
    let mut i = lo;
    while i < hi {
        let end = (i + BATCH).min(hi);
        let n = (end - i) as u64;
        let mut w = c.mem_mut().window(&[
            (
                Region::sized(BASE + (i * IN_STRIDE) as u64, n * IN_STRIDE as u64),
                Perm::R,
            ),
            (Region::sized(ob + (i * 16) as u64, n * 16), Perm::W),
        ])?;
        for opt in i..end {
            let a = BASE + (opt * IN_STRIDE) as u64;
            let s = w.read_f64(a)?;
            let k = w.read_f64(a + 8)?;
            let r = w.read_f64(a + 16)?;
            let v = w.read_f64(a + 24)?;
            let t = w.read_f64(a + 32)?;
            let (call, put) = price(s, k, r, v, t);
            w.write_f64(ob + (opt * 16) as u64, call)?;
            w.write_f64(ob + (opt * 16 + 8) as u64, put)?;
        }
        c.charge(n * NS_PER_OPTION)?;
        i = end;
    }
    Ok(())
}

/// Runs blackscholes under an arbitrary kernel configuration and
/// returns the raw outcome (conformance harness entry point). `mode`
/// still picks the threading style — deterministic scheduler vs plain
/// threads — independent of the cost model in `kcfg`. Validates
/// put-call parity on samples in-run.
pub fn outcome(kcfg: KernelConfig, mode: Mode, cfg: BsConfig) -> RunOutcome {
    let options = cfg.options;
    let threads = cfg.threads.max(1);
    let quantum = cfg.quantum_ns;
    let region = region_for(options);
    Kernel::new(kcfg).run(move |ctx| {
        ctx.mem_mut().map_zero(region, Perm::RW)?;
        let mut rng = XorShift64::new(0xB5);
        let mut params = Vec::with_capacity(options);
        let inputs = Region::new(BASE, out_base(options));
        let mut w = ctx.mem_mut().window(&[(inputs, Perm::W)])?;
        for opt in 0..options {
            let s = 20.0 + 160.0 * rng.next_f64();
            let k = 20.0 + 160.0 * rng.next_f64();
            let r = 0.01 + 0.09 * rng.next_f64();
            let v = 0.10 + 0.50 * rng.next_f64();
            let t = 0.25 + 1.75 * rng.next_f64();
            let a = BASE + (opt * IN_STRIDE) as u64;
            for (off, val) in [s, k, r, v, t].into_iter().enumerate() {
                w.write_f64(a + (off * 8) as u64, val)?;
            }
            params.push((s, k, r, v, t));
        }
        drop(w);
        let per = options.div_ceil(threads);
        match mode {
            Mode::Determinator => {
                let mut sched = DSched::new(ctx, region, quantum, 0)?;
                for t in 0..threads {
                    let lo = t * per;
                    let hi = ((t + 1) * per).min(options);
                    sched.spawn(t as u64, move |c| {
                        price_stripe(c, options, lo, hi)?;
                        Ok(0)
                    })?;
                }
                sched.run()?;
            }
            Mode::Baseline => {
                let mut group = ThreadGroup::new(ctx, region, 0);
                for t in 0..threads {
                    let lo = t * per;
                    let hi = ((t + 1) * per).min(options);
                    group.fork(t as u64, move |c| {
                        price_stripe(c, options, lo, hi)?;
                        Ok(0)
                    })?;
                }
                for t in 0..threads {
                    group.join(t as u64)?;
                }
            }
        }
        // Put-call parity spot checks: C - P = S - K·e^{-rT}.
        let ob = out_base(options);
        let mut spot = XorShift64::new(5);
        for _ in 0..16 {
            let opt = spot.below(options as u64) as usize;
            let (s, k, r, _v, t) = params[opt];
            let call = ctx.mem().read_f64(ob + (opt * 16) as u64)?;
            let put = ctx.mem().read_f64(ob + (opt * 16 + 8) as u64)?;
            let parity = s - k * (-r * t).exp();
            assert!(
                ((call - put) - parity).abs() < 1e-6 * s.max(k),
                "parity violated for option {opt}"
            );
        }
        let prices = ctx.mem().read_f64s(ob, options * 2)?;
        let mut d = det_memory::ContentDigest::new();
        for v in &prices {
            d.update_u64(v.to_bits());
        }
        Ok((d.value() & 0x7fff_ffff) as i32)
    })
}

/// Runs blackscholes: Determinator mode uses the deterministic
/// scheduler (pthread emulation); baseline mode uses plain threads on
/// the conventional cost model.
pub fn run(mode: Mode, cfg: BsConfig) -> RunResult {
    let outcome = outcome(mode.config(), mode, cfg);
    let checksum = outcome.exit.expect("blackscholes trapped") as u64;
    RunResult {
        vclock_ns: outcome.vclock_ns,
        stats: outcome.stats,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_sanity() {
        // Deep in-the-money call ≈ S - K·e^{-rT}; worthless put.
        let (c, p) = price(200.0, 50.0, 0.05, 0.2, 1.0);
        assert!((c - (200.0 - 50.0 * (-0.05f64).exp())).abs() < 0.01);
        assert!(p < 0.01);
    }

    #[test]
    fn prices_match_across_modes() {
        let cfg = BsConfig::quick(4);
        let d = run(Mode::Determinator, cfg);
        let b = run(Mode::Baseline, cfg);
        assert_eq!(d.checksum, b.checksum);
    }

    #[test]
    fn quantization_overhead_shrinks_with_quantum() {
        // The paper's fixed ~35 % cost at the 10 M-insn quantum falls
        // as quanta grow (§6.2). Sweep two quanta and compare.
        let base = run(Mode::Baseline, BsConfig::quick(2)).vclock_ns as f64;
        let ratio = |quantum_ns: u64| {
            let cfg = BsConfig {
                quantum_ns,
                ..BsConfig::quick(2)
            };
            run(Mode::Determinator, cfg).vclock_ns as f64 / base
        };
        let fine = ratio(40_000);
        let coarse = ratio(400_000);
        assert!(
            coarse < fine,
            "larger quanta must amortize: {fine} -> {coarse}"
        );
    }

    #[test]
    fn dsched_preemptions_actually_happen() {
        let cfg = BsConfig {
            threads: 2,
            options: 2048,
            quantum_ns: 50_000,
        };
        let r = run(Mode::Determinator, cfg);
        assert!(
            r.stats.limit_preemptions > 0,
            "quanta must preempt: {:?}",
            r.stats.limit_preemptions
        );
    }
}
