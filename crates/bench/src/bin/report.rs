//! Regenerates the paper's figures and tables in virtual time.
//!
//! ```text
//! cargo run --release -p det-bench --bin report -- all        # quick scale
//! cargo run --release -p det-bench --bin report -- all --full # paper scale
//! cargo run --release -p det-bench --bin report -- fig7 fig11
//! ```

use std::process::ExitCode;

use det_bench::{
    Scale, Table, fig4, fig7, fig8, fig9, fig10, fig11, fig12, quantum_ablation, table3,
};

/// A report section: its name on the command line and its table.
type Section = (&'static str, fn(Scale) -> Table);

/// Every section, in print order.
const SECTIONS: [Section; 9] = [
    ("fig4", |_| fig4()),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("quantum", quantum_ablation),
    ("table3", |_| {
        let root = std::env::var("CARGO_MANIFEST_DIR")
            .map(|d| std::path::PathBuf::from(d).join("../.."))
            .unwrap_or_else(|_| ".".into());
        table3(&root)
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
    for (name, table) in SECTIONS {
        if all || wanted.contains(&name) {
            print!("{}", table(scale).to_markdown());
        }
    }
    ExitCode::SUCCESS
}
