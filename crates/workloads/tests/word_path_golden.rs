//! fft and blackscholes, in configurations the conformance registry
//! does not run, held to what they did at 7112f25 — before their inner
//! loops stopped storing one word per `AddressSpace::write` and began
//! loading and storing through a `Window` (DESIGN.md §4).
//!
//! One line per run: the checksum, the virtual clock and every
//! `KernelStats` field. The configurations reach the edges a window's
//! spans must get exactly right: fft stripes that start and end inside
//! a butterfly group, stages whose half-group is wider than a stripe,
//! more threads than butterflies; blackscholes arrays small enough that
//! inputs and outputs share a page. A `W` span one page too wide dirties
//! a page the per-word loop never wrote, which moves `pages_diffed` or
//! `pages_adopted` here even when every checksum still matches.

use det_workloads::blackscholes::{self, BsConfig};
use det_workloads::fft::{self, FftConfig};
use det_workloads::{Mode, RunResult};

const GOLDEN: &str = include_str!("golden/word_path_7112f25.txt");

fn line(name: &str, mode: Mode, r: &RunResult) -> String {
    format!(
        "{name} {mode:?} checksum={} vclock_ns={} {:?}\n",
        r.checksum, r.vclock_ns, r.stats
    )
}

#[test]
fn word_loops_are_what_they_were_at_7112f25() {
    let mut observed = String::new();
    for mode in [Mode::Determinator, Mode::Baseline] {
        for threads in [1, 2, 3, 5] {
            for log2n in [3, 9, 12] {
                let r = fft::run(mode, FftConfig { threads, log2n });
                observed.push_str(&line(&format!("fft t={threads} log2n={log2n}"), mode, &r));
            }
        }
        for options in [100, 1_000, 4_096] {
            for threads in [1, 3] {
                let cfg = BsConfig {
                    threads,
                    options,
                    quantum_ns: 20_000,
                };
                let r = blackscholes::run(mode, cfg);
                observed.push_str(&line(
                    &format!("blackscholes t={threads} options={options}"),
                    mode,
                    &r,
                ));
            }
        }
    }
    if observed != GOLDEN {
        eprint!("observed runs:\n{observed}");
    }
    assert_eq!(observed.lines().count(), 36);
    assert_eq!(observed, GOLDEN);
}
