//! Figure 7's ordering, for the paper's reason.
//!
//! The paper separates `lu_cont` from `lu_noncont` because a page
//! written by one thread is cheap to join and a page written by
//! several is not (§6.2). This locks the mechanism, not just the
//! numbers: where every page has one writer per barrier interval (fft,
//! contiguous lu) the merge engine must remap, never diff; where rows
//! interleave on a page (non-contiguous lu) it must diff — and that is
//! what makes the layout slower in virtual time. Results stay equal to
//! the conventional-threads baseline throughout.

use determinator::workloads::fft::{self, FftConfig};
use determinator::workloads::lu::{self, Layout, LuConfig};
use determinator::workloads::{Mode, RunResult};

fn fft_run(mode: Mode) -> RunResult {
    fft::run(
        mode,
        FftConfig {
            threads: 2,
            log2n: 10,
        },
    )
}

fn lu_run(mode: Mode, layout: Layout) -> RunResult {
    lu::run(
        mode,
        LuConfig {
            threads: 2,
            n: 64,
            layout,
        },
    )
}

#[test]
fn single_writer_pages_are_remapped_and_shared_pages_diffed() {
    let fft = fft_run(Mode::Determinator);
    let cont = lu_run(Mode::Determinator, Layout::Contiguous);
    let noncont = lu_run(Mode::Determinator, Layout::NonContiguous);

    assert_eq!(fft.checksum, fft_run(Mode::Baseline).checksum);
    assert_eq!(
        cont.checksum,
        lu_run(Mode::Baseline, Layout::Contiguous).checksum
    );
    assert_eq!(
        noncont.checksum,
        lu_run(Mode::Baseline, Layout::NonContiguous).checksum
    );
    // The layouts compute the same factorisation.
    assert_eq!(cont.checksum, noncont.checksum);

    for (name, run) in [("fft", &fft), ("lu_cont", &cont)] {
        let m = run.stats.merge_totals.0;
        assert_eq!(m.pages_diffed, 0, "{name}: {m:?}");
        assert_eq!(m.bytes_compared, 0, "{name}: {m:?}");
        assert!(m.pages_adopted > 0, "{name}: {m:?}");
    }
    let m = noncont.stats.merge_totals.0;
    assert!(m.pages_diffed > 0, "lu_noncont: {m:?}");
    assert!(m.pages_adopted > 0, "lu_noncont: {m:?}");

    assert!(
        noncont.vclock_ns > cont.vclock_ns,
        "lu_noncont {} ns must be slower than lu_cont {} ns",
        noncont.vclock_ns,
        cont.vclock_ns
    );
}
