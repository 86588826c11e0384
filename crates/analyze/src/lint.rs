//! `detlint`: a workspace determinism lint.
//!
//! Generalizes the kernel's `core_modules_are_pure` test into a
//! workspace-wide scan. The rules are deliberately token/line-level —
//! no `syn`, no parsing — so the lint is trivially auditable and runs
//! in milliseconds. Comments are stripped (`//` to end of line) so
//! prose can neither trip nor hide a match, and the scan of a file
//! stops at the first line of code that opens with `#[cfg(test)]`:
//! only production code is scanned.
//!
//! Three rules:
//!
//! * **`purity`** — the pure kernel core (`state.rs`, `apply.rs`) must
//!   contain no locks, threads, atomics, host I/O, host clocks, or
//!   unsafe code. Replay determinism (DESIGN.md §6) rests on these
//!   modules being pure functions of kernel state.
//! * **`canonical-collections`** — `HashMap`/`HashSet` are forbidden
//!   in production code: their iteration order is randomized per
//!   process, so any serialization, digest, merge sweep, or stats
//!   fold that walks one silently becomes nondeterministic. Use
//!   `BTreeMap`/`BTreeSet`.
//! * **`host-time`** — `Instant`/`SystemTime`/host randomness are
//!   forbidden in production code. Host timing is measured by
//!   detbench (`benchmark/`), outside the scanned tree.
//!
//! Escapes go in an explicit allowlist file (`detlint.allow` at the
//! workspace root): one `<rule> <path-substring>` pair per line. An
//! allowlist entry is an audited claim, not an off switch — each line
//! should carry a comment saying why the use is benign. A claim about
//! code that no longer exists is itself a finding (`stale-waiver`):
//! an entry that waived nothing is reported at its line of the file.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Tokens forbidden in the pure kernel core. This is the
/// `core_modules_are_pure` list, now owned here so the kernel test and
/// the workspace lint cannot drift apart.
pub const PURITY_TOKENS: &[&str] = &[
    "Mutex",
    "Condvar",
    "RwLock",
    "std::thread",
    "thread::",
    ".spawn(",
    "AtomicBool",
    "AtomicU64",
    "std::io",
    "std::fs",
    "std::net",
    "Instant",
    "SystemTime",
    "unsafe ",
    "parking_lot",
];

/// Randomized-iteration collections: forbidden in production code.
pub const COLLECTION_TOKENS: &[&str] = &["HashMap", "HashSet"];

/// Host clocks and host randomness: forbidden in production code.
pub const HOST_TIME_TOKENS: &[&str] = &[
    "Instant",
    "SystemTime",
    "thread_rng",
    "rand::",
    "RandomState",
    "from_entropy",
    "getrandom",
];

/// One lint hit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// Which rule fired (`purity`, `canonical-collections`,
    /// `host-time`, [`STALE_WAIVER`]).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The forbidden token that matched (empty for a stale waiver).
    pub token: &'static str,
}

/// The rule of a finding that points at an allowlist entry which
/// waived nothing.
pub const STALE_WAIVER: &str = "stale-waiver";

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] ", self.path, self.line, self.rule)?;
        if self.rule == STALE_WAIVER {
            f.write_str("waiver suppresses no finding")
        } else {
            write!(f, "forbidden token {:?}", self.token)
        }
    }
}

/// One allowlist entry: findings of `rule` in any path containing
/// `fragment` are waived.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Waiver {
    /// The rule waived.
    pub rule: String,
    /// A substring of the waived paths.
    pub fragment: String,
    /// 1-based line of the entry in the allowlist file.
    pub line: usize,
}

/// An allowlist: its entries in file order.
pub type Allowlist = Vec<Waiver>;

/// Parses an allowlist file: one `<rule> <path-substring>` per line;
/// `#` starts a comment; blank lines are skipped.
pub fn parse_allowlist(text: &str) -> Allowlist {
    text.lines()
        .enumerate()
        .filter_map(|(i, l)| {
            let mut it = l.split('#').next().unwrap_or("").split_whitespace();
            Some(Waiver {
                rule: it.next()?.to_string(),
                fragment: it.next()?.to_string(),
                line: i + 1,
            })
        })
        .collect()
}

/// Drops the findings `allow` waives, then reports every entry that
/// waives none as a [`STALE_WAIVER`] finding at its line of
/// `allow_path`.
fn apply_allowlist(findings: &[Finding], allow: &Allowlist, allow_path: &str) -> Vec<Finding> {
    let waives = |w: &Waiver, f: &Finding| w.rule == f.rule && f.path.contains(&w.fragment);
    let stale = allow
        .iter()
        .filter(|w| !findings.iter().any(|f| waives(w, f)))
        .map(|w| Finding {
            rule: STALE_WAIVER,
            path: allow_path.to_string(),
            line: w.line,
            token: "",
        });
    findings
        .iter()
        .filter(|f| !allow.iter().any(|w| waives(w, f)))
        .cloned()
        .chain(stale)
        .collect()
}

/// Scans one source file against one rule's token list. Comments are
/// stripped line by line, preserving line numbers, and the scan stops
/// at the first line whose code opens with `#[cfg(test)]` — the
/// attribute itself, not a comment or a string that mentions it.
pub fn scan_source(
    rule: &'static str,
    tokens: &[&'static str],
    path: &str,
    src: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let code = raw.split("//").next().unwrap_or("");
        if code.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        for &tok in tokens {
            if code.contains(tok) {
                out.push(Finding {
                    rule,
                    path: path.to_string(),
                    line: i + 1,
                    token: tok,
                });
            }
        }
    }
    out
}

/// The purity scan, exposed so the kernel's `core_modules_are_pure`
/// test is a one-line call into the same rule the workspace lint runs.
pub fn purity_violations(path: &str, src: &str) -> Vec<Finding> {
    scan_source("purity", PURITY_TOKENS, path, src)
}

/// Lints one production source file, applying every rule that governs
/// its path.
pub fn lint_file(rel_path: &str, src: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let file_name = rel_path.rsplit('/').next().unwrap_or(rel_path);
    if matches!(file_name, "state.rs" | "apply.rs") {
        out.extend(scan_source("purity", PURITY_TOKENS, rel_path, src));
    }
    out.extend(scan_source(
        "canonical-collections",
        COLLECTION_TOKENS,
        rel_path,
        src,
    ));
    out.extend(scan_source("host-time", HOST_TIME_TOKENS, rel_path, src));
    out
}

/// Lints every production source in the workspace: `src/` and
/// `crates/*/src/` recursively. `tests/`, `benches/`, `examples/`, and
/// the vendored `shims/` are out of scope by construction — they are
/// host-side harness code, not the deterministic substrate. Findings
/// pass through `detlint.allow`, and each entry of it that waives
/// nothing is a finding of its own.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    const ALLOW_FILE: &str = "detlint.allow";
    let allow = match fs::read_to_string(root.join(ALLOW_FILE)) {
        Ok(s) => parse_allowlist(&s),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };

    let mut files: Vec<PathBuf> = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates)?
            .map(|e| Ok(e?.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for dir in entries {
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();

    let mut out = Vec::new();
    for f in &files {
        let src = fs::read_to_string(f)?;
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        out.extend(lint_file(&rel, &src));
    }
    Ok(apply_allowlist(&out, &allow, ALLOW_FILE))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| Ok(e?.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_tests_do_not_trip() {
        let src = "// a HashMap in prose\nfn f() {}\n#[cfg(test)]\nmod t { use std::collections::HashMap; }\n";
        assert!(lint_file("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn mentioning_the_test_attribute_does_not_end_the_scan() {
        let src = "// everything below `#[cfg(test)]` is skipped\n\
                   const MARK: &str = \"#[cfg(test)]\";\n\
                   use std::collections::HashMap;\n\
                   #[cfg(test)]\nmod t { use std::collections::HashSet; }\n";
        let hits = lint_file("crates/x/src/a.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].line, hits[0].token), (3, "HashMap"));
    }

    #[test]
    fn production_hashmap_is_flagged_and_allowlistable() {
        let src = "use std::collections::HashMap;\n";
        let hits = lint_file("crates/x/src/a.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "canonical-collections");
        assert_eq!(hits[0].line, 1);
        let allow = parse_allowlist("canonical-collections crates/x/src/a.rs # audited\n");
        assert!(apply_allowlist(&hits, &allow, "detlint.allow").is_empty());
    }

    #[test]
    fn a_waiver_that_waives_nothing_is_a_finding() {
        let allow = parse_allowlist(
            "# audited\n\
             host-time crates/x/src/a.rs\n\
             \n\
             host-time crates/gone/src/b.rs # file deleted\n\
             canonical-collections crates/x/src/a.rs\n",
        );
        let hits = lint_file("crates/x/src/a.rs", "use std::time::Instant;\n");
        let out = apply_allowlist(&hits, &allow, "detlint.allow");
        let stale: Vec<String> = out.iter().map(ToString::to_string).collect();
        assert_eq!(
            stale,
            [
                "detlint.allow:4: [stale-waiver] waiver suppresses no finding",
                "detlint.allow:5: [stale-waiver] waiver suppresses no finding",
            ]
        );
    }

    #[test]
    fn purity_rule_targets_core_modules_only() {
        let src = "fn f() { let _ = 1; } // fine\nstruct Holds { m: std::sync::Mutex<u8> }\n";
        assert!(
            lint_file("crates/k/src/other.rs", src)
                .iter()
                .all(|f| f.rule != "purity")
        );
        let hits = lint_file("crates/k/src/apply.rs", src);
        assert!(hits.iter().any(|f| f.rule == "purity" && f.line == 2));
    }

    #[test]
    fn host_time_flagged_everywhere() {
        let src = "use std::time::Instant;\n";
        let hits = lint_file("crates/cluster/src/x.rs", src);
        assert!(hits.iter().any(|f| f.rule == "host-time"));
    }

    #[test]
    fn this_workspace_is_lint_clean() {
        // CARGO_MANIFEST_DIR = crates/analyze; workspace root is ../..
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
        let findings = lint_workspace(&root).expect("workspace scan");
        assert!(
            findings.is_empty(),
            "detlint findings:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
