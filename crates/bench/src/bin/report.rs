//! Regenerates the paper's figures and tables in virtual time.
//!
//! ```text
//! cargo run --release -p det-bench --bin report -- all        # quick scale
//! cargo run --release -p det-bench --bin report -- all --full # paper scale
//! cargo run --release -p det-bench --bin report -- fig7 fig11
//! ```

use std::process::ExitCode;

use det_bench::{
    Scale, Table, analyze_cost, analyze_prefetch, clone_table, fig4, fig7, fig8, fig9, fig10,
    fig11, fig12, quantum_ablation, scaling, table3, vm_mips,
};

/// A report section: its name on the command line and its tables.
type Section = (&'static str, fn(Scale) -> Vec<Table>);

/// Every section, in print order.
const SECTIONS: [Section; 13] = [
    ("fig4", |_| vec![fig4()]),
    ("fig7", |s| vec![fig7(s)]),
    ("fig8", |s| vec![fig8(s)]),
    ("fig9", |s| vec![fig9(s)]),
    ("fig10", |s| vec![fig10(s)]),
    ("fig11", |s| vec![fig11(s)]),
    ("fig12", |s| vec![fig12(s)]),
    ("quantum", |s| vec![quantum_ablation(s)]),
    ("vmmips", |s| vec![vm_mips(s)]),
    ("clone", |s| vec![clone_table(s)]),
    ("scaling", |s| vec![scaling(s)]),
    ("analyze", |s| vec![analyze_cost(s), analyze_prefetch(s)]),
    ("table3", |_| {
        let root = std::env::var("CARGO_MANIFEST_DIR")
            .map(|d| std::path::PathBuf::from(d).join("../.."))
            .unwrap_or_else(|_| ".".into());
        vec![table3(&root)]
    }),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let known = |name: &str| name == "all" || SECTIONS.iter().any(|(n, _)| *n == name);
    if let Some(unknown) = wanted.iter().find(|name| !known(name)) {
        let names: Vec<&str> = SECTIONS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "report: unknown section `{unknown}`; valid: all {}",
            names.join(" ")
        );
        return ExitCode::from(64);
    }
    let all = wanted.is_empty() || wanted.contains(&"all");

    println!(
        "# Determinator reproduction report ({})\n",
        if scale == Scale::Full {
            "full scale"
        } else {
            "quick scale"
        }
    );
    for (name, tables) in SECTIONS {
        if all || wanted.contains(&name) {
            for table in tables(scale) {
                print!("{}", table.to_markdown());
            }
        }
    }
    ExitCode::SUCCESS
}
