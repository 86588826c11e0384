//! Deterministic content digests for cross-run equality assertions.

/// A 64-bit FNV-1a digest of memory contents.
///
/// Not cryptographic. It is the repo's one byte hash, and its values
/// are persisted: they pin conform bundles (whole-space and per-page
/// digests of every [`AddressSpace`](crate::AddressSpace)), checkpoint
/// integrity, cluster homecomings and workload checksums. So the
/// function and every value it produces are fixed; only how fast a
/// value is computed may change (DESIGN.md §8, "How artifacts are
/// digested").
///
/// A zero byte only multiplies the state by the FNV prime, so `n`
/// zero bytes multiply it by the prime's `n`-th power:
/// [`update_zeros`](Self::update_zeros) absorbs any run of zeros in
/// one multiply, and [`update`](Self::update) absorbs each run of
/// all-zero 8-byte words that way.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ContentDigest(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^n` (mod 2^64), by squaring.
#[inline]
const fn prime_pow(mut n: u64) -> u64 {
    let (mut base, mut acc) = (FNV_PRIME, 1u64);
    while n > 0 {
        if n & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        n >>= 1;
    }
    acc
}

/// Absorbs `bytes` into `N` independent FNV-1a states at once. The
/// states are separate dependency chains, so the CPU overlaps them:
/// two chains cost what one does.
#[inline]
fn absorb<const N: usize>(hs: &mut [u64; N], bytes: &[u8]) {
    let step = |hs: &mut [u64; N], b: u64| {
        hs.iter_mut()
            .for_each(|h| *h = (*h ^ b).wrapping_mul(FNV_PRIME));
    };
    let zero_run = |hs: &mut [u64; N], n: u64| {
        let p = prime_pow(n);
        hs.iter_mut().for_each(|h| *h = h.wrapping_mul(p));
    };
    let mut words = bytes.chunks_exact(8);
    // Zero bytes seen since the last nonzero word, not yet absorbed.
    let mut zeros = 0u64;
    for w in words.by_ref() {
        let word = u64::from_le_bytes(w.try_into().expect("chunk of 8"));
        if word == 0 {
            zeros += 8;
            continue;
        }
        if zeros > 0 {
            zero_run(hs, zeros);
            zeros = 0;
        }
        for i in 0..8 {
            step(hs, (word >> (8 * i)) & 0xff);
        }
    }
    zero_run(hs, zeros);
    for &b in words.remainder() {
        step(hs, u64::from(b));
    }
}

impl ContentDigest {
    /// Returns a fresh digest in its initial state.
    pub fn new() -> ContentDigest {
        ContentDigest(FNV_OFFSET)
    }

    /// Absorbs a byte slice.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut hs = [self.0];
        absorb(&mut hs, bytes);
        self.0 = hs[0];
    }

    /// Absorbs the same byte slice into two digests in one pass.
    pub(crate) fn update_both(a: &mut ContentDigest, b: &mut ContentDigest, bytes: &[u8]) {
        let mut hs = [a.0, b.0];
        absorb(&mut hs, bytes);
        [a.0, b.0] = hs;
    }

    /// Absorbs `n` zero bytes in one multiply.
    pub fn update_zeros(&mut self, n: u64) {
        self.0 = self.0.wrapping_mul(prime_pow(n));
    }

    /// Absorbs a `u64` (little-endian).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Returns the digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for ContentDigest {
    fn default() -> Self {
        ContentDigest::new()
    }
}

impl std::fmt::Display for ContentDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut a = ContentDigest::new();
        a.update(b"hello");
        let mut b = ContentDigest::new();
        b.update(b"hello");
        assert_eq!(a, b);
        let mut c = ContentDigest::new();
        c.update(b"olleh");
        assert_ne!(a, c);
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c.
        let mut d = ContentDigest::new();
        d.update(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(
            ContentDigest::new().to_string(),
            format!("{FNV_OFFSET:016x}")
        );
    }
}
