//! Figures 11 and 12 (the cluster figures) held to `report_quick.md`,
//! the quick-scale report CI diffs byte for byte. This test puts the
//! two figures the shard runtime draws under `cargo test`, so a change
//! that moves a cluster clock or counter fails here too, not only in
//! CI's shell `diff` (which also covers the other sections).

use det_bench::{Scale, fig11, fig12};

const REPORT_QUICK: &str = include_str!("golden/report_quick.md");

#[test]
fn cluster_figures_are_the_recorded_report() {
    for (name, table) in [
        ("fig11", fig11(Scale::Quick)),
        ("fig12", fig12(Scale::Quick)),
    ] {
        let md = table.to_markdown();
        assert!(
            REPORT_QUICK.contains(&md),
            "{name} moved from golden/report_quick.md; it now reads:{md}"
        );
    }
}
