//! Divergence localization: byte-exact comparison of two artifact
//! bundles plus root-cause classification.
//!
//! Two bundles that are equal as values are not rendered at all; any
//! other pair is compared through its canonical bytes (see
//! [`compare`]).
//!
//! The byte offset answers *where* two bundles first disagree; the
//! classification answers *what kind* of nondeterminism produced the
//! disagreement. Both read the same two renderings: classification
//! splits each into its `[section]` lines and walks the sections in the
//! harness design's diagnostic order (`DIAGNOSTIC_ORDER`), so a
//! section added to [`Artifacts::to_bytes`] is classified by the line
//! that renders it, with no second diff to keep in step.

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

/// Compares two bundles byte-for-byte. Returns `None` when their
/// canonical bytes are identical; otherwise the first divergent offset
/// with hex context and a root-cause classification. (`scope`: see
/// [`Scope`].)
///
/// Two bundles equal as values are not rendered: [`Artifacts::to_bytes`]
/// is a function of the compared fields, so equal values give equal
/// bytes. The converse fails, so the byte step stays for every other
/// pair: [`SpaceArtifact::id`] and the trace streams' events carry
/// allocation-order space ids, and replicas may number their spaces
/// differently (DESIGN.md §8) and still render the same bytes.
///
/// [`SpaceArtifact::id`]: det_kernel::SpaceArtifact::id
pub fn compare(a: &Artifacts, b: &Artifacts, scope: Scope) -> Option<Divergence> {
    if a == b {
        return None;
    }
    let ba = a.to_bytes(scope);
    let bb = b.to_bytes(scope);
    if ba == bb {
        return None;
    }
    let offset = first_diff(&ba, &bb);
    let (category, detail) = classify(&ba, &bb);
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

/// Cuts two differing rendered lines for report text: the same window
/// of each, up to 96 characters from 32 before their first differing
/// character, so a difference deep in a long line still shows. An
/// elided head or tail is marked `…`.
fn briefs(x: &str, y: &str) -> (String, String) {
    const WIDTH: usize = 96;
    let at = x.chars().zip(y.chars()).take_while(|(p, q)| p == q).count();
    let from = at.saturating_sub(32);
    let cut = |line: &str| {
        let mut rest = line.chars().skip(from);
        let window: String = rest.by_ref().take(WIDTH).collect();
        let head = if from > 0 { "…" } else { "" };
        let tail = if rest.next().is_some() { "…" } else { "" };
        format!("{head}{window}{tail}")
    };
    (cut(x), cut(y))
}

/// The bundle's sections in diagnostic order, each with the category a
/// differing line in it names: a trace divergence explains everything
/// downstream, so the trace streams come first, then per-space memory,
/// then the clocks and the stats vector, then device outputs. (A
/// `[spaces]` line names stat drift when only a clock or an
/// instruction count moved.)
const DIAGNOSTIC_ORDER: [(&str, DivergenceCategory); 8] = [
    ("[trace]", DivergenceCategory::ScheduleTrace),
    ("[spaces]", DivergenceCategory::PageContent),
    ("[meta]", DivergenceCategory::StatDrift),
    ("[exit]", DivergenceCategory::StatDrift),
    ("[vclock]", DivergenceCategory::StatDrift),
    ("[stats-core]", DivergenceCategory::StatDrift),
    ("[outputs]", DivergenceCategory::DeviceOutput),
    ("[io]", DivergenceCategory::DeviceOutput),
];

/// A rendering's lines grouped under their `[section]` headers.
fn sections(bytes: &[u8]) -> BTreeMap<&str, Vec<&str>> {
    let text = std::str::from_utf8(bytes).expect("a bundle renders as text");
    let mut out: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut section = "";
    for line in text.lines() {
        if line.starts_with('[') {
            section = line;
            out.entry(section).or_default();
        } else {
            out.entry(section).or_default().push(line);
        }
    }
    out
}

/// Root-cause classification of two renderings that differ: the first
/// section in [`DIAGNOSTIC_ORDER`] with a differing line names the
/// category, and that line names the locus.
fn classify(ba: &[u8], bb: &[u8]) -> (DivergenceCategory, String) {
    let (sa, sb) = (sections(ba), sections(bb));
    (DIAGNOSTIC_ORDER.into_iter())
        .find_map(|(name, category)| match (sa.get(name), sb.get(name)) {
            (Some(la), Some(lb)) => (0..la.len().max(lb.len()))
                .find(|&i| la.get(i) != lb.get(i))
                .map(|i| locate(name, category, la, lb, i)),
            (None, None) => None,
            // Every section but `[trace]` is always rendered.
            _ => Some((
                category,
                "one replica recorded a trace and the other did not".to_string(),
            )),
        })
        .expect("renderings that differ differ in a line")
}

/// Category and detail of section `name`'s first differing line `i`.
fn locate(
    name: &str,
    category: DivergenceCategory,
    la: &[&str],
    lb: &[&str],
    i: usize,
) -> (DivergenceCategory, String) {
    let i = under(la, lb, i);
    let (x, y) = (la.get(i).copied(), lb.get(i).copied());
    let category = match x.zip(y).is_some_and(|(x, y)| same_space_and_digest(x, y)) {
        true => DivergenceCategory::StatDrift,
        false => category,
    };
    let detail = match (name, x, y) {
        ("[io]", ..) => Some("consumed device input logs differ".to_string()),
        ("[trace]", Some(x), Some(y)) => event_detail(la, i, x, y).or_else(|| field_detail(x, y)),
        ("[spaces]", Some(x), Some(y)) => field_detail(x, y),
        ("[outputs]", Some(x), Some(y)) => key_value(x, y).map(|(dev, a, b)| {
            let at = first_diff(
                a.trim_matches('"').as_bytes(),
                b.trim_matches('"').as_bytes(),
            );
            format!("device {dev} output differs at byte {}", at / 2)
        }),
        (_, Some(x), Some(y)) => {
            key_value(x, y).map(|(k, a, b)| format!("counter {k}: {a} vs {b}"))
        }
        _ => None,
    };
    let detail = detail.unwrap_or_else(|| {
        let (x, y) = briefs(x.unwrap_or("(no line)"), y.unwrap_or("(no line)"));
        format!("{name} {x} vs {y}")
    });
    (category, detail)
}

/// A `space` or `stream` line heads the lines under it and sums them
/// up (a digest, an event count): when it differs and so does a line
/// under it, that line is the locus.
fn under(la: &[&str], lb: &[&str], i: usize) -> usize {
    let head = |l: &&str| l.starts_with("space ") || l.starts_with("stream ");
    if !(la.get(i).is_some_and(head) && lb.get(i).is_some_and(head)) {
        return i;
    }
    match (i + 1..la.len().min(lb.len())).find(|&j| la[j] != lb[j] || head(&la[j])) {
        Some(j) if !head(&la[j]) && !head(&lb[j]) => j,
        _ => i,
    }
}

/// Whether two `space` lines (only `[spaces]` has them) name one space
/// with one digest: they then differ in a clock or an instruction
/// count, not in memory.
fn same_space_and_digest(x: &str, y: &str) -> bool {
    (x.starts_with("space ") && y.starts_with("space "))
        && x.split(' ').nth(1) == y.split(' ').nth(1)
        && x.rsplit(' ').next() == y.rsplit(' ').next()
}

/// `stream P event i: … vs …` for two differing `e=` lines, `i`
/// counted from the stream's `stream path=P` header.
fn event_detail(la: &[&str], i: usize, x: &str, y: &str) -> Option<String> {
    let (x, y) = (x.strip_prefix("e=")?, y.strip_prefix("e=")?);
    let head = la[..i].iter().rposition(|l| l.starts_with("stream "))?;
    let path = la[head].split(' ').nth(1)?.strip_prefix("path=")?;
    let event = i - head - 1;
    let (x, y) = briefs(x, y);
    Some(format!("stream {path} event {event}: {x} vs {y}"))
}

/// Names two `space`, `page` or `stream` lines of one path by their
/// first differing field: `space /1 vclock_ps 5 vs 6`, `space / page
/// vpn=0x10 digest … vs …`, `stream / events 3 vs 4`. A space line is
/// named by its digest whenever that differs.
fn field_detail(x: &str, y: &str) -> Option<String> {
    let (tx, ty): (Vec<&str>, Vec<&str>) = (x.split(' ').collect(), y.split(' ').collect());
    let j = tx.iter().zip(&ty).position(|(p, q)| p != q)?;
    // A space's digest outranks its clocks: it makes the line page content.
    let j = match tx.len() - 1 {
        last if tx[0] == "space" && j >= 2 && tx.last() != ty.get(last) => last,
        _ => j,
    };
    let ((k, a), (kb, b)) = (tx[j].split_once('=')?, ty.get(j)?.split_once('=')?);
    let path = tx.get(1)?.strip_prefix("path=")?;
    let at = match tx[0] {
        "page" if j == 3 => format!("space {path} page {}", tx[2]),
        kind if j >= 2 => format!("{kind} {path}"),
        _ => return None,
    };
    (k == kb).then(|| format!("{at} {k} {a} vs {b}"))
}

/// Splits two `key=value` lines of one key into the key and both
/// values.
fn key_value<'l>(x: &'l str, y: &'l str) -> Option<(&'l str, &'l str, &'l str)> {
    let ((k, a), (kb, b)) = (x.split_once('=')?, y.split_once('=')?);
    (k == kb).then_some((k, a, b))
}

#[cfg(test)]
mod tests {
    use super::DivergenceCategory::*;
    use super::*;

    fn classified(a: &str, b: &str) -> (DivergenceCategory, String) {
        classify(a.as_bytes(), b.as_bytes())
    }

    const SPACES: &str = "[meta]\nscenario=s\n[spaces]\n\
        space path=/ vclock_ps=5 insn=0 digest=aa\n\
        page path=/ vpn=0x1 digest=01\n\
        page path=/ vpn=0x2 digest=02\n\
        space path=/0 vclock_ps=3 insn=0 digest=bb\n";

    const TRACE: &str = "[meta]\nscenario=s\n[trace]\n\
        stream path=/ events=2\ne={\"k\":1}\ne={\"k\":2}\n\
        stream path=/0 events=1\ne={\"k\":3}\n";

    /// Two events that differ at character 300 show where: each side
    /// is cut to the same window around the difference, on character
    /// boundaries (the shared prefix is two-byte `é`s).
    #[test]
    fn a_late_difference_shows_in_the_window() {
        let (head, tail) = ("é".repeat(300), "z".repeat(200));
        let (x, y) = (format!("{head}a{tail}"), format!("{head}b{tail}"));
        let (wx, wy) = briefs(&x, &y);
        let window = |c| format!("…{}{c}{}…", "é".repeat(32), "z".repeat(63));
        assert_eq!((wx, wy), (window('a'), window('b')));

        let b = TRACE.replace("e={\"k\":2}", &format!("e={{\"k\":2,\"v\":\"{y}\"}}"));
        let a = TRACE.replace("e={\"k\":2}", &format!("e={{\"k\":2,\"v\":\"{x}\"}}"));
        let (category, detail) = classified(&a, &b);
        assert_eq!(category, ScheduleTrace);
        assert!(detail.starts_with("stream / event 1: …"), "{detail}");
        assert!(detail.contains("éa") && detail.contains("éb"), "{detail}");
    }

    #[test]
    fn a_space_line_defers_to_the_differing_page_under_it() {
        let b = (SPACES.replace("digest=aa", "digest=ab")).replace("digest=02", "digest=03");
        let want = "space / page vpn=0x2 digest 02 vs 03";
        assert_eq!(classified(SPACES, &b), (PageContent, want.to_string()));
    }

    #[test]
    fn a_space_digest_outranks_its_clock() {
        let b = SPACES.replace(
            "vclock_ps=5 insn=0 digest=aa",
            "vclock_ps=6 insn=0 digest=ab",
        );
        let want = "space / digest aa vs ab";
        assert_eq!(classified(SPACES, &b), (PageContent, want.to_string()));
        let b = SPACES.replace("insn=0 digest=bb", "insn=1 digest=bb");
        let want = "space /0 insn 0 vs 1";
        assert_eq!(classified(SPACES, &b), (StatDrift, want.to_string()));
    }

    #[test]
    fn a_space_in_one_replica_only_is_page_content() {
        let b = SPACES.replace("space path=/0 vclock_ps=3 insn=0 digest=bb\n", "");
        let (category, detail) = classified(SPACES, &b);
        assert_eq!(category, PageContent);
        assert!(detail.contains("space path=/0"), "{detail}");
        let b = SPACES.replace("/0", "/1");
        assert_eq!(classified(SPACES, &b).0, PageContent);
    }

    #[test]
    fn an_event_count_defers_to_the_differing_event_under_it() {
        let b = TRACE.replace(
            "events=2\ne={\"k\":1}",
            "events=3\ne={\"k\":1}\ne={\"k\":9}",
        );
        let want = "stream / event 1: {\"k\":2} vs {\"k\":9}";
        assert_eq!(classified(TRACE, &b), (ScheduleTrace, want.to_string()));
        let b = TRACE.replace(
            "events=1\ne={\"k\":3}",
            "events=2\ne={\"k\":3}\ne={\"k\":4}",
        );
        let want = "stream /0 events 1 vs 2";
        assert_eq!(classified(TRACE, &b), (ScheduleTrace, want.to_string()));
    }

    #[test]
    fn an_output_names_its_first_differing_byte() {
        let a = "[outputs]\nConsoleOut=\"00112233\"\n[io]\nevents=[]\n";
        let b = a.replace("2233", "2244");
        let want = "device ConsoleOut output differs at byte 3";
        assert_eq!(classified(a, &b), (DeviceOutput, want.to_string()));
        let b = a.replace("33\"", "3344\"");
        let want = "device ConsoleOut output differs at byte 4";
        assert_eq!(classified(a, &b), (DeviceOutput, want.to_string()));
        let b = a.replace("[io]", "Clock=\"01\"\n[io]");
        assert_eq!(classified(a, &b).0, DeviceOutput);
    }
}
