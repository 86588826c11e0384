//! Divergence localization: byte-exact comparison of two artifact
//! bundles plus root-cause classification.
//!
//! The byte offset answers *where* two bundles first disagree; the
//! classification answers *what kind* of nondeterminism produced the
//! disagreement. Classification follows the diagnostic order from the
//! harness design: trace streams are diffed first (a schedule or
//! syscall divergence upstream usually explains every downstream
//! delta), then per-space memory, then the stats vector and clocks,
//! then device outputs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::bundle::{Artifacts, Scope};

/// Root-cause category of a divergence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DivergenceCategory {
    /// The syscall event streams disagree: a schedule-visible
    /// difference in what the replicas *did*, not just what they
    /// computed.
    ScheduleTrace,
    /// A space's final memory differs (per-page digest mismatch).
    PageContent,
    /// A deterministic counter, clock, or the exit status drifted.
    StatDrift,
    /// Device output bytes or the consumed input log differ.
    DeviceOutput,
}

impl DivergenceCategory {
    /// Stable lowercase name used in reports and CI logs.
    pub fn name(self) -> &'static str {
        match self {
            DivergenceCategory::ScheduleTrace => "schedule-trace",
            DivergenceCategory::PageContent => "page-content",
            DivergenceCategory::StatDrift => "stat-drift",
            DivergenceCategory::DeviceOutput => "device-output",
        }
    }
}

/// A localized divergence between two bundles.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Root-cause classification.
    pub category: DivergenceCategory,
    /// Human-readable locus: which stream/space/counter/device, and
    /// how the two sides disagree.
    pub detail: String,
    /// First divergent byte offset into the canonical serialization.
    pub offset: usize,
    /// Hex context (±16 bytes around the offset) from the first bundle.
    pub context_a: String,
    /// Hex context from the second bundle.
    pub context_b: String,
}

impl Divergence {
    /// Renders the full divergence report.
    pub fn report(&self, scenario: &str, label_a: &str, label_b: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "CONFORMANCE DIVERGENCE: {scenario}");
        let _ = writeln!(s, "  category: {}", self.category.name());
        let _ = writeln!(s, "  detail:   {}", self.detail);
        let _ = writeln!(s, "  first divergent byte offset: {}", self.offset);
        let _ = writeln!(s, "  {label_a}: {}", self.context_a);
        let _ = writeln!(s, "  {label_b}: {}", self.context_b);
        s
    }
}

/// Compares two bundles byte-for-byte. Returns `None` when they are
/// identical; otherwise the first divergent offset with hex context
/// and a root-cause classification. (`scope`: see [`Scope`].)
pub fn compare(a: &Artifacts, b: &Artifacts, scope: Scope) -> Option<Divergence> {
    let ba = a.to_bytes(scope);
    let bb = b.to_bytes(scope);
    if ba == bb {
        return None;
    }
    let offset = first_diff(&ba, &bb);
    let (category, detail) = classify(a, b);
    Some(Divergence {
        category,
        detail,
        offset,
        context_a: hex_context(&ba, offset),
        context_b: hex_context(&bb, offset),
    })
}

/// First index at which the byte strings differ (the shorter length
/// when one is a prefix of the other).
pub fn first_diff(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    (0..n).find(|&i| a[i] != b[i]).unwrap_or(n)
}

/// Hex dump of the 16 bytes before and after `offset` with the
/// divergent byte bracketed, e.g. `..73 70 61 [63] 65 2e..`.
pub fn hex_context(bytes: &[u8], offset: usize) -> String {
    let lo = offset.saturating_sub(16);
    let hi = (offset + 17).min(bytes.len());
    let mut s = String::new();
    if lo > 0 {
        s.push_str("..");
    }
    for (i, b) in bytes[lo..hi].iter().enumerate() {
        let pos = lo + i;
        if i > 0 {
            s.push(' ');
        }
        if pos == offset {
            let _ = write!(s, "[{b:02x}]");
        } else {
            let _ = write!(s, "{b:02x}");
        }
    }
    if offset >= bytes.len() {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str("[end]");
    } else if hi < bytes.len() {
        s.push_str("..");
    }
    s
}

/// Truncates a serialized event for report text.
fn brief(e: &str) -> String {
    if e.len() <= 96 {
        e.to_string()
    } else {
        format!("{}…", &e[..96])
    }
}

/// Root-cause classification, in diagnostic order.
fn classify(a: &Artifacts, b: &Artifacts) -> (DivergenceCategory, String) {
    // 1. Trace event streams: a syscall-level divergence explains
    //    everything downstream, so look there first.
    if let Some(d) = classify_traces(a, b) {
        return d;
    }
    // 2. Per-space memory.
    if let Some(d) = classify_spaces(a, b) {
        return d;
    }
    // 3. The deterministic stats vector, clocks, and exit status.
    if let Some(d) = classify_stats(a, b) {
        return d;
    }
    // 4. Device outputs and the input log.
    if let Some(d) = classify_devices(a, b) {
        return d;
    }
    (
        DivergenceCategory::StatDrift,
        "bundles differ but no section classifier fired (encoding drift?)".to_string(),
    )
}

fn classify_traces(a: &Artifacts, b: &Artifacts) -> Option<(DivergenceCategory, String)> {
    let (sa, sb) = match (&a.trace_streams, &b.trace_streams) {
        (Some(sa), Some(sb)) => (sa, sb),
        (None, None) => return None,
        _ => {
            return Some((
                DivergenceCategory::ScheduleTrace,
                "one replica recorded a trace and the other did not".to_string(),
            ));
        }
    };
    let ma: BTreeMap<&str, &Vec<String>> = sa.iter().map(|(p, e)| (p.as_str(), e)).collect();
    let mb: BTreeMap<&str, &Vec<String>> = sb.iter().map(|(p, e)| (p.as_str(), e)).collect();
    for (path, ea) in &ma {
        let Some(eb) = mb.get(path) else {
            return Some((
                DivergenceCategory::ScheduleTrace,
                format!("space {path} has a trace stream in only one replica"),
            ));
        };
        for (i, (va, vb)) in ea.iter().zip(eb.iter()).enumerate() {
            if va != vb {
                return Some((
                    DivergenceCategory::ScheduleTrace,
                    format!("stream {path} event {i}: {} vs {}", brief(va), brief(vb)),
                ));
            }
        }
        if ea.len() != eb.len() {
            return Some((
                DivergenceCategory::ScheduleTrace,
                format!("stream {path}: {} events vs {} events", ea.len(), eb.len()),
            ));
        }
    }
    for path in mb.keys() {
        if !ma.contains_key(path) {
            return Some((
                DivergenceCategory::ScheduleTrace,
                format!("space {path} has a trace stream in only one replica"),
            ));
        }
    }
    None
}

fn classify_spaces(a: &Artifacts, b: &Artifacts) -> Option<(DivergenceCategory, String)> {
    let ma: BTreeMap<&str, &det_kernel::SpaceArtifact> =
        a.spaces.iter().map(|s| (s.path.as_str(), s)).collect();
    let mb: BTreeMap<&str, &det_kernel::SpaceArtifact> =
        b.spaces.iter().map(|s| (s.path.as_str(), s)).collect();
    for (path, sa) in &ma {
        let Some(sb) = mb.get(path) else {
            return Some((
                DivergenceCategory::PageContent,
                format!("space {path} exists in only one replica"),
            ));
        };
        let pa: BTreeMap<u64, u64> = sa.page_digests.iter().copied().collect();
        let pb: BTreeMap<u64, u64> = sb.page_digests.iter().copied().collect();
        for (vpn, da) in &pa {
            match pb.get(vpn) {
                Some(db) if db == da => {}
                Some(db) => {
                    return Some((
                        DivergenceCategory::PageContent,
                        format!("space {path} page vpn={vpn:#x}: digest {da:016x} vs {db:016x}"),
                    ));
                }
                None => {
                    return Some((
                        DivergenceCategory::PageContent,
                        format!("space {path} page vpn={vpn:#x} mapped in only one replica"),
                    ));
                }
            }
        }
        for vpn in pb.keys() {
            if !pa.contains_key(vpn) {
                return Some((
                    DivergenceCategory::PageContent,
                    format!("space {path} page vpn={vpn:#x} mapped in only one replica"),
                ));
            }
        }
        if sa.digest != sb.digest {
            return Some((
                DivergenceCategory::PageContent,
                format!(
                    "space {path} content digest {:016x} vs {:016x} (pages agree)",
                    sa.digest, sb.digest
                ),
            ));
        }
        if sa.vclock_ps != sb.vclock_ps {
            return Some((
                DivergenceCategory::StatDrift,
                format!(
                    "space {path} vclock_ps {} vs {}",
                    sa.vclock_ps, sb.vclock_ps
                ),
            ));
        }
        if sa.insn_count != sb.insn_count {
            return Some((
                DivergenceCategory::StatDrift,
                format!(
                    "space {path} insn_count {} vs {}",
                    sa.insn_count, sb.insn_count
                ),
            ));
        }
    }
    for path in mb.keys() {
        if !ma.contains_key(path) {
            return Some((
                DivergenceCategory::PageContent,
                format!("space {path} exists in only one replica"),
            ));
        }
    }
    None
}

fn classify_stats(a: &Artifacts, b: &Artifacts) -> Option<(DivergenceCategory, String)> {
    if a.exit != b.exit {
        return Some((
            DivergenceCategory::StatDrift,
            format!("exit status {} vs {}", a.exit, b.exit),
        ));
    }
    if a.vclock_ns != b.vclock_ns {
        return Some((
            DivergenceCategory::StatDrift,
            format!("vclock_ns {} vs {}", a.vclock_ns, b.vclock_ns),
        ));
    }
    // Field-by-field through the serialized form so the report names
    // the counter.
    for ((ka, a_val), (_kb, b_val)) in a.stats.lines().iter().zip(b.stats.lines().iter()) {
        if a_val != b_val {
            return Some((
                DivergenceCategory::StatDrift,
                format!("counter {ka}: {a_val} vs {b_val}"),
            ));
        }
    }
    None
}

fn classify_devices(a: &Artifacts, b: &Artifacts) -> Option<(DivergenceCategory, String)> {
    for (dev, da) in &a.outputs {
        match b.outputs.get(dev) {
            Some(db) if db == da => {}
            Some(db) => {
                let at = first_diff(da, db);
                return Some((
                    DivergenceCategory::DeviceOutput,
                    format!("device {dev:?} output differs at byte {at}"),
                ));
            }
            None => {
                return Some((
                    DivergenceCategory::DeviceOutput,
                    format!("device {dev:?} produced output in only one replica"),
                ));
            }
        }
    }
    for dev in b.outputs.keys() {
        if !a.outputs.contains_key(dev) {
            return Some((
                DivergenceCategory::DeviceOutput,
                format!("device {dev:?} produced output in only one replica"),
            ));
        }
    }
    if a.io_log != b.io_log {
        return Some((
            DivergenceCategory::DeviceOutput,
            "consumed device input logs differ".to_string(),
        ));
    }
    None
}
