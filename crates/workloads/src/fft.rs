//! The fft benchmark: iterative radix-2 FFT with a barrier per stage
//! (§6.2, SPLASH-2's kernel reduced to one dimension).
//!
//! Complex samples live in the shared region (interleaved re/im
//! doubles). Each stage partitions the N/2 butterflies contiguously
//! across threads (disjoint writes); the master's barrier cycle merges
//! all stripes and redistributes the array — the per-stage
//! synchronization that makes fft markedly finer-grained than md5 yet
//! still coarse enough to stay near the baseline (Fig. 7).
//!
//! A thread's stage loads and stores its samples through one
//! [`det_memory::Window`] over the runs the stage touches
//! (`stage_spans`, computed per stage, not per butterfly): the space is
//! private between barriers, so the pages are validated, un-shared and
//! dirtied once per stage instead of once per word. The spans are
//! exactly the pages the butterflies write, so the dirty set, every
//! merge count and the virtual clock are those of storing each word on
//! its own.

use det_kernel::{Kernel, KernelConfig, Region, RunOutcome};
use det_memory::Perm;
use det_runtime::threads::{self, ThreadGroup};

use crate::mathx::XorShift64;
use crate::{Mode, RunResult};

/// Virtual cost per butterfly (10 flops + twiddle lookup).
pub const NS_PER_BUTTERFLY: u64 = 12;

const BASE: u64 = 0x1000_0000;

/// Benchmark parameters.
#[derive(Clone, Copy, Debug)]
pub struct FftConfig {
    /// Threads.
    pub threads: usize,
    /// log2 of the transform size.
    pub log2n: u32,
}

fn region_for(n: usize) -> Region {
    let end = (BASE + (n * 16) as u64 + 0xfff) & !0xfff;
    Region::new(BASE, end)
}

/// The samples butterflies `lo..hi` (non-empty) of the stage with
/// half-group `half` load and store, as read-write spans: the i0 and
/// i1 runs of a partial group at each end and the whole groups between
/// them as one run. These are exactly the pages the stage writes.
fn stage_spans(lo: usize, hi: usize, half: usize) -> [(Region, Perm); 5] {
    let (g_lo, g_hi) = (lo / half, (hi - 1) / half);
    let samples = |a: usize, b: usize| {
        let at = |i: usize| BASE + (i * 16) as u64;
        (Region::new(at(a), at(b.max(a))), Perm::RW)
    };
    // Group `g`'s i0 run over offsets `j0..j1` and its i1 run.
    let group = |g: usize, j0: usize, j1: usize| {
        let i0 = g * half * 2;
        [
            samples(i0 + j0, i0 + j1),
            samples(i0 + half + j0, i0 + half + j1),
        ]
    };
    let last_j = (hi - 1) % half + 1;
    let [head0, head1] = group(g_lo, lo % half, if g_lo == g_hi { last_j } else { half });
    let [tail0, tail1] = group(g_hi, 0, if g_lo < g_hi { last_j } else { 0 });
    let middle = samples((g_lo + 1) * half * 2, g_hi * half * 2);
    [head0, head1, middle, tail0, tail1]
}

/// The twiddle factors `(cos, sin)` of `-π j / half` for the
/// butterflies `lo..hi` of the stage with half-group `half` (a power of
/// two): butterfly `b` (so `j = b % half`) reads entry
/// `(b - lo) & (half - 1)`. A stripe wider than a group needs `half`
/// entries, a narrower one one per butterfly. Each entry is the same
/// f64 expression of the same `j` and `half`, evaluated by the same
/// operations in the same order as a butterfly computing its own
/// twiddle, so it is bit-identical to that, and so are the spectrum and
/// every stored word (`word_path_golden` and the checksums hold them).
fn stage_twiddles(lo: usize, hi: usize, half: usize) -> Vec<(f64, f64)> {
    (lo..hi.min(lo + half))
        .map(|b| {
            let ang = -std::f64::consts::PI * ((b % half) as f64) / (half as f64);
            (ang.cos(), ang.sin())
        })
        .collect()
}

/// Runs the FFT under an arbitrary kernel configuration and returns
/// the raw outcome (conformance harness entry point). Validates
/// against a direct DFT at sampled frequencies in-run.
pub fn outcome(kcfg: KernelConfig, cfg: FftConfig) -> RunOutcome {
    let n = 1usize << cfg.log2n;
    let threads = cfg.threads.max(1);
    let region = region_for(n);
    let log2n = cfg.log2n;
    Kernel::new(kcfg).run(move |ctx| {
        ctx.mem_mut().map_zero(region, Perm::RW)?;
        // Deterministic input signal.
        let mut rng = XorShift64::new(0xFF7);
        let input: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect();
        // Bit-reversal permutation, done sequentially by the master.
        let mut buf = vec![0f64; 2 * n];
        for (i, &(re, im)) in input.iter().enumerate() {
            let j = i.reverse_bits() >> (usize::BITS - log2n);
            buf[2 * j] = re;
            buf[2 * j + 1] = im;
        }
        ctx.mem_mut().write_f64s(BASE, &buf)?;
        // Freed here, so the validation's root table below takes its
        // place instead of adding to the run's peak.
        drop(buf);
        ctx.charge(n as u64 * 2)?;

        let mut group = ThreadGroup::new(ctx, region, 0);
        let bf_per = (n / 2).div_ceil(threads);
        for t in 0..threads {
            let hi = ((t + 1) * bf_per).min(n / 2);
            let lo = (t * bf_per).min(hi);
            group.fork(t as u64, move |c| {
                for s in 0..log2n {
                    let half = 1usize << s;
                    if lo < hi {
                        let twiddles = stage_twiddles(lo, hi, half);
                        let mut w = c.mem_mut().window(&stage_spans(lo, hi, half))?;
                        for b in lo..hi {
                            let g = b / half;
                            let j = b % half;
                            let i0 = g * half * 2 + j;
                            let i1 = i0 + half;
                            let (wr, wi) = twiddles[(b - lo) & (half - 1)];
                            let x0r = w.read_f64(BASE + (2 * i0) as u64 * 8)?;
                            let x0i = w.read_f64(BASE + (2 * i0 + 1) as u64 * 8)?;
                            let x1r = w.read_f64(BASE + (2 * i1) as u64 * 8)?;
                            let x1i = w.read_f64(BASE + (2 * i1 + 1) as u64 * 8)?;
                            let tr = x1r * wr - x1i * wi;
                            let ti = x1r * wi + x1i * wr;
                            w.write_f64(BASE + (2 * i0) as u64 * 8, x0r + tr)?;
                            w.write_f64(BASE + (2 * i0 + 1) as u64 * 8, x0i + ti)?;
                            w.write_f64(BASE + (2 * i1) as u64 * 8, x0r - tr)?;
                            w.write_f64(BASE + (2 * i1 + 1) as u64 * 8, x0i - ti)?;
                        }
                    }
                    c.charge((hi - lo) as u64 * NS_PER_BUTTERFLY)?;
                    if s + 1 < log2n {
                        threads::barrier(c)?;
                    }
                }
                Ok(0)
            })?;
        }
        let ids: Vec<u64> = (0..threads as u64).collect();
        group.run_to_completion(&ids)?;

        // Validate against a direct DFT at sampled frequencies. The
        // n-th roots of unity come from one table (bin `k` at sample
        // `t` reads root `k t mod n`), dropped with the validation.
        let spectrum = ctx.mem().read_f64s(BASE, 2 * n)?;
        let roots: Vec<(f64, f64)> = (0..n)
            .map(|m| {
                let ang = -2.0 * std::f64::consts::PI * (m as f64) / (n as f64);
                (ang.cos(), ang.sin())
            })
            .collect();
        let mut spot = XorShift64::new(3);
        for _ in 0..6 {
            let k = spot.below(n as u64) as usize;
            let (mut sr, mut si) = (0f64, 0f64);
            for (t, &(re, im)) in input.iter().enumerate() {
                let (c0, s0) = roots[(k * t) & (n - 1)];
                sr += re * c0 - im * s0;
                si += re * s0 + im * c0;
            }
            let got_r = spectrum[2 * k];
            let got_i = spectrum[2 * k + 1];
            let scale = (n as f64).sqrt().max(1.0);
            assert!(
                (got_r - sr).abs() < 1e-6 * scale && (got_i - si).abs() < 1e-6 * scale,
                "bin {k}: got ({got_r},{got_i}), want ({sr},{si})"
            );
        }
        let mut d = det_memory::ContentDigest::new();
        for v in &spectrum {
            d.update_u64(v.to_bits());
        }
        Ok((d.value() & 0x7fff_ffff) as i32)
    })
}

/// Runs the FFT; checksum digests the spectrum bits.
pub fn run(mode: Mode, cfg: FftConfig) -> RunResult {
    let outcome = outcome(mode.config(), cfg);
    let checksum = outcome.exit.expect("fft trapped") as u64;
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
    fn fft_matches_dft_in_both_modes() {
        let cfg = FftConfig {
            threads: 4,
            log2n: 10,
        };
        let d = run(Mode::Determinator, cfg);
        let b = run(Mode::Baseline, cfg);
        assert_eq!(d.checksum, b.checksum);
    }

    #[test]
    fn single_thread_matches_parallel() {
        let c1 = run(
            Mode::Determinator,
            FftConfig {
                threads: 1,
                log2n: 9,
            },
        )
        .checksum;
        let c4 = run(
            Mode::Determinator,
            FftConfig {
                threads: 4,
                log2n: 9,
            },
        )
        .checksum;
        assert_eq!(c1, c4);
    }

    #[test]
    fn threads_past_the_last_butterfly_get_empty_stripes() {
        // 8 butterflies a stage in stripes of 2: threads 4..7 start at
        // or past the end and must charge nothing, not wrap around.
        let cfg = FftConfig {
            threads: 7,
            log2n: 4,
        };
        let r = run(Mode::Determinator, cfg);
        let one = run(Mode::Determinator, FftConfig { threads: 1, ..cfg });
        assert_eq!(r.checksum, one.checksum);
        assert!(
            r.vclock_ns < 10 * one.vclock_ns,
            "{} ns against {} ns on one thread",
            r.vclock_ns,
            one.vclock_ns
        );
    }

    #[test]
    fn per_stage_barriers_cost_more_than_md5_style() {
        // fft must show a larger det/baseline gap than an
        // embarrassingly parallel workload of similar compute.
        let cfg = FftConfig {
            threads: 4,
            log2n: 12,
        };
        let d = run(Mode::Determinator, cfg).vclock_ns as f64;
        let b = run(Mode::Baseline, cfg).vclock_ns as f64;
        let ratio = d / b;
        assert!(ratio > 1.05, "fft should pay for barriers, got {ratio}");
        assert!(ratio < 12.0, "but stay usable, got {ratio}");
    }
}
