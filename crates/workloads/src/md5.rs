//! The md5 benchmark: brute-force search for the ASCII string with a
//! given MD5 hash (§6.2), plus a from-scratch RFC 1321 MD5.

use det_kernel::{CopySpec, GetSpec, Kernel, KernelConfig, Program, PutSpec, Region, RunOutcome};
use det_memory::Perm;

use crate::{Mode, RunResult};

// ---------------------------------------------------------------------
// MD5 (RFC 1321), implemented from scratch.
// ---------------------------------------------------------------------

const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9,
    14, 20, 5, 9, 14, 20, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 6, 10, 15,
    21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Computes the MD5 digest of `msg`. Full 64-byte chunks are
/// compressed straight from `msg`; only the padded tail is copied, into
/// a buffer on the stack, so a call allocates nothing.
pub fn md5(msg: &[u8]) -> [u8; 16] {
    let mut state: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];
    let mut chunks = msg.chunks_exact(64);
    for chunk in &mut chunks {
        compress(&mut state, chunk.try_into().expect("64 bytes"));
    }
    // Padding: 0x80, zeros, 64-bit bit length. A tail of 56 bytes or
    // more leaves no room for the length, so it takes a second block.
    let tail = chunks.remainder();
    let mut pad = [0u8; 128];
    pad[..tail.len()].copy_from_slice(tail);
    pad[tail.len()] = 0x80;
    let end = if tail.len() < 56 { 64 } else { 128 };
    let bitlen = (msg.len() as u64).wrapping_mul(8);
    pad[end - 8..end].copy_from_slice(&bitlen.to_le_bytes());
    for block in pad[..end].chunks_exact(64) {
        compress(&mut state, block.try_into().expect("64 bytes"));
    }
    let mut out = [0u8; 16];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// One MD5 compression of `block` into `state`: four rounds of sixteen
/// steps, each round a loop of its own so that it unrolls with its
/// function and message index fixed per step.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (word, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
    }
    let mut v = *state;
    round(&mut v, &m, 0, |b, c, d| (b & c) | (!b & d), |i| i);
    round(
        &mut v,
        &m,
        16,
        |b, c, d| (d & b) | (!d & c),
        |i| (5 * i + 1) % 16,
    );
    round(&mut v, &m, 32, |b, c, d| b ^ c ^ d, |i| (3 * i + 5) % 16);
    round(&mut v, &m, 48, |b, c, d| c ^ (b | !d), |i| (7 * i) % 16);
    for (s, x) in state.iter_mut().zip(v) {
        *s = s.wrapping_add(x);
    }
}

/// Steps `first..first + 16` with round function `f` and message word
/// `g(i)` at step `i`. Sixteen steps rotate the four words back into
/// place.
#[inline(always)]
fn round(
    v: &mut [u32; 4],
    m: &[u32; 16],
    first: usize,
    f: impl Fn(u32, u32, u32) -> u32,
    g: impl Fn(usize) -> usize,
) {
    let [mut a, mut b, mut c, mut d] = *v;
    for i in first..first + 16 {
        let sum = a
            .wrapping_add(f(b, c, d))
            .wrapping_add(K[i])
            .wrapping_add(m[g(i)]);
        (a, b, c, d) = (d, b.wrapping_add(sum.rotate_left(S[i])), b, c);
    }
    *v = [a, b, c, d];
}

/// Renders the candidate password for index `i` (lowercase base-26,
/// fixed width 8 — the "ASCII string" search space).
pub fn candidate(i: u64) -> [u8; 8] {
    let mut s = [b'a'; 8];
    let mut v = i;
    for slot in s.iter_mut().rev() {
        *slot = b'a' + (v % 26) as u8;
        v /= 26;
    }
    s
}

/// Virtual cost of one MD5 trial (hash of a short string on the
/// paper-era testbed ≈ 0.7 µs).
pub const NS_PER_HASH: u64 = 700;

const SHARED: Region = Region {
    start: 0x1000_0000,
    end: 0x1000_1000,
};
const FOUND_ADDR: u64 = SHARED.start;

/// Benchmark parameters.
#[derive(Clone, Copy, Debug)]
pub struct Md5Config {
    /// Worker thread count.
    pub threads: usize,
    /// Keyspace size (indices scanned).
    pub keyspace: u64,
    /// Index of the planted target within the keyspace.
    pub target: u64,
}

impl Md5Config {
    /// A configuration sized for tests and quick reports.
    pub fn quick(threads: usize) -> Md5Config {
        Md5Config {
            threads,
            keyspace: 20_000,
            target: 17_321,
        }
    }
}

/// Runs the md5 search under an arbitrary kernel configuration and
/// returns the raw outcome (the conformance harness's entry point —
/// it supplies trace sinks and fault plans through `kcfg`).
pub fn outcome(kcfg: KernelConfig, cfg: Md5Config) -> RunOutcome {
    let digest = md5(&candidate(cfg.target));
    let threads = cfg.threads as u64;
    Kernel::new(kcfg).run(move |ctx| {
        ctx.mem_mut().map_zero(SHARED, Perm::RW)?;
        ctx.mem_mut().write_u64(FOUND_ADDR, u64::MAX)?;
        let per = cfg.keyspace.div_ceil(threads);
        for t in 0..threads {
            let hi = ((t + 1) * per).min(cfg.keyspace);
            let lo = (t * per).min(hi);
            ctx.put(
                t,
                PutSpec::new()
                    .program(Program::native(move |c| {
                        let mut found = u64::MAX;
                        for i in lo..hi {
                            if md5(&candidate(i)) == digest {
                                found = i;
                            }
                        }
                        // One charge for the whole scan keeps the hot
                        // loop native-speed; the cost is per-trial.
                        c.charge((hi - lo) * NS_PER_HASH)?;
                        if found != u64::MAX {
                            c.mem_mut().write_u64(FOUND_ADDR, found)?;
                        }
                        Ok(0)
                    }))
                    .copy(CopySpec::mirror(SHARED))
                    .snap()
                    .start(),
            )?;
        }
        for t in 0..threads {
            ctx.get(t, GetSpec::new().merge(SHARED))?;
        }
        let found = ctx.mem().read_u64(FOUND_ADDR)?;
        Ok(found as i32)
    })
}

/// Runs the md5 search with `cfg` under `mode`; the checksum is the
/// found index (validated against the plant).
pub fn run(mode: Mode, cfg: Md5Config) -> RunResult {
    let outcome = outcome(mode.config(), cfg);
    let found = outcome.exit.expect("md5 run trapped") as u32 as u64;
    assert_eq!(found, cfg.target, "search must find the planted key");
    RunResult {
        vclock_ns: outcome.vclock_ns,
        stats: outcome.stats,
        checksum: found,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1321 appendix A.5 test vectors.
    #[test]
    fn rfc1321_vectors() {
        let hex = |d: [u8; 16]| d.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(hex(md5(b"")), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(hex(md5(b"a")), "0cc175b9c0f1b6a831c399e269772661");
        assert_eq!(hex(md5(b"abc")), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(
            hex(md5(b"message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0"
        );
        assert_eq!(
            hex(md5(b"abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b"
        );
        assert_eq!(
            hex(md5(
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            )),
            "57edf4a22be3c955ac49da2e2107b67a"
        );
    }

    /// Every length 0..=130 of a fixed byte pattern (one- and two-block
    /// tails, the 55/56 padding edge, one and two full chunks before a
    /// tail) and a spread of search candidates, held to digests
    /// recorded at 97599ce and checked against coreutils `md5sum`.
    #[test]
    fn md5_multiblock_boundary() {
        let hex = |d: [u8; 16]| d.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let pattern: Vec<u8> = (0..130u32).map(|i| (i * 37 + 11) as u8).collect();
        let mut observed = String::new();
        for len in 0..=pattern.len() {
            observed.push_str(&format!("len={len} {}\n", hex(md5(&pattern[..len]))));
        }
        for i in [
            0,
            1,
            25,
            26,
            675,
            12_345,
            17_321,
            19_999,
            1 << 32,
            26u64.pow(8) - 1,
        ] {
            let c = candidate(i);
            let text = String::from_utf8_lossy(&c);
            observed.push_str(&format!("candidate={i} {text} {}\n", hex(md5(&c))));
        }
        let golden = include_str!("../tests/golden/md5_97599ce.txt");
        if observed != golden {
            eprint!("observed digests:\n{observed}");
        }
        assert_eq!(observed.lines().count(), 141);
        assert_eq!(observed, golden);
    }

    #[test]
    fn candidates_are_distinct_and_fixed_width() {
        assert_eq!(&candidate(0), b"aaaaaaaa");
        assert_eq!(&candidate(1), b"aaaaaaab");
        assert_eq!(&candidate(26), b"aaaaaaba");
        assert_ne!(candidate(12345), candidate(12346));
    }

    #[test]
    fn search_finds_plant_in_both_modes() {
        for mode in [Mode::Determinator, Mode::Baseline] {
            let r = run(mode, Md5Config::quick(4));
            assert_eq!(r.checksum, 17_321, "{mode:?}");
        }
    }

    #[test]
    fn threads_past_the_keyspace_get_empty_stripes() {
        // Stripes of 2 over 10 keys: thread 6 starts past the end and
        // must charge nothing, not wrap around.
        let cfg = Md5Config {
            threads: 7,
            keyspace: 10,
            target: 3,
        };
        let r = run(Mode::Determinator, cfg);
        let one = run(Mode::Determinator, Md5Config { threads: 1, ..cfg });
        assert_eq!(r.checksum, 3);
        assert_eq!(r.stats.traps, 0, "a stripe trapped");
        assert!(
            r.vclock_ns < 10 * one.vclock_ns,
            "{} ns against {} ns on one thread",
            r.vclock_ns,
            one.vclock_ns
        );
    }

    #[test]
    fn embarrassingly_parallel_speedup_shape() {
        // Doubling threads should nearly halve virtual time.
        let t1 = run(Mode::Determinator, Md5Config::quick(1)).vclock_ns;
        let t4 = run(Mode::Determinator, Md5Config::quick(4)).vclock_ns;
        let s = t1 as f64 / t4 as f64;
        assert!(s > 3.0, "speedup {s}");
    }

    #[test]
    fn determinator_close_to_baseline() {
        // md5 is coarse-grained: det/baseline ratio near 1 (Fig. 7).
        let d = run(Mode::Determinator, Md5Config::quick(4)).vclock_ns;
        let b = run(Mode::Baseline, Md5Config::quick(4)).vclock_ns;
        let ratio = d as f64 / b as f64;
        assert!(ratio < 1.3, "ratio {ratio}");
    }
}
