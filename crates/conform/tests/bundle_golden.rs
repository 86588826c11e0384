//! Every registered scenario's bundle, untraced and traced, held to the
//! bytes it had at 1548f6a — the last commit whose live kernel counted
//! `KernelStats` through its own atomics instead of the pure core.
//!
//! One line per bundle: `name traced=<bool> len=<bytes> fnv=<FNV-1a-64>`
//! of [`Artifacts::to_bytes`]. A change that moves a vclock on purpose
//! (a re-baseline) re-records this file in the same commit.

use det_conform::{Artifacts, ScenarioConfig, Scope, registry};

const BUNDLE_GOLDEN: &str = include_str!("golden/bundles_1548f6a.txt");

/// Byte-serial FNV-1a, kept here on purpose instead of calling
/// `ContentDigest`: the golden must not move if the production hash's
/// shortcuts (zero runs by exponent) ever go wrong.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn every_bundle_is_what_it_was_at_1548f6a() {
    let mut observed = String::new();
    for sc in registry() {
        for traced in [false, true] {
            let cfg = ScenarioConfig {
                trace: traced,
                ..ScenarioConfig::default()
            };
            let bytes = Artifacts::collect(sc.name, (), &(sc.run)(&cfg)).to_bytes(Scope::Full);
            observed.push_str(&format!(
                "{} traced={traced} len={} fnv={:016x}\n",
                sc.name,
                bytes.len(),
                fnv1a64(&bytes)
            ));
        }
    }
    if observed != BUNDLE_GOLDEN {
        eprint!("observed bundles:\n{observed}");
    }
    assert_eq!(observed.lines().count(), 38);
    assert_eq!(observed, BUNDLE_GOLDEN);
}
