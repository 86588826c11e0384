//! Seed → inputs. The library never sees the seed: each workload turns
//! its own stream of this generator into sizes, targets and contents,
//! and only those reach `determinator`.
//!
//! The driver runs every seed once and takes the spread *across seeds*
//! as the benchmark's noise, so a seed may move the amount of work by a
//! few parts per thousand at most ([`Rng::jitter`]) — enough that no
//! two seeds produce the same virtual clock, too little to show in host
//! time.

/// splitmix64: tiny, well mixed, and a pure function of its state.
pub struct Rng(u64);

impl Rng {
    /// The stream of `workload` under `seed`. Streams are independent,
    /// so adding a draw to one workload never shifts another's inputs.
    pub fn for_workload(seed: u64, workload: &str) -> Rng {
        let tag = workload.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        let mut rng = Rng(seed ^ tag);
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `nominal` moved by at most ±`per_mille` ‰, uniformly.
    pub fn jitter(&mut self, nominal: u64, per_mille: u64) -> u64 {
        let span = nominal * per_mille / 1000;
        nominal - span + self.below(2 * span + 1)
    }

    pub fn fill(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_stays_within_its_band_and_reaches_both_sides() {
        let mut rng = Rng::for_workload(1, "w");
        let draws: Vec<u64> = (0..500).map(|_| rng.jitter(100_000, 3)).collect();
        assert!(draws.iter().all(|v| (99_700..=100_300).contains(v)));
        assert!(draws.iter().any(|v| *v < 100_000) && draws.iter().any(|v| *v > 100_000));
    }

    #[test]
    fn streams_are_pure_and_independent() {
        let take = |seed, w| {
            let mut r = Rng::for_workload(seed, w);
            (r.next(), r.below(10), r.fill(13))
        };
        assert_eq!(take(7, "a"), take(7, "a"));
        assert_ne!(take(7, "a"), take(8, "a"));
        assert_ne!(take(7, "a"), take(7, "b"));
        assert_eq!(take(7, "a").2.len(), 13);
    }
}
