//! The workspace's one clippy-style diagnostics model.
//!
//! The analyzer's passes and `sched-verify`'s certificates, lints and
//! determinism checks all report [`Finding`]s: a stable code (`S` here;
//! `C`/`L`/`A`/`P`/`D` in `sched_verify::codes`, which owns those
//! checks), a [`Level`] (deny/warn/pedantic), an [`Anchor`] naming the
//! object the finding is about, and — when the region came from a text-IR
//! file — a real source position ([`SrcPos`]) so renderers can emit
//! `file:line:col` spans.
//!
//! Two renderers ship with the engine: [`render_text`] (rustc-style, for
//! humans) and [`render_json`] (a hand-rolled machine-readable document —
//! the workspace vendors no serializer). A [`Baseline`] file suppresses
//! known findings by stable key so pedantic results on legitimate inputs
//! never break CI.

use sched_ir::textir::SrcPos;
use sched_ir::Reg;
use std::collections::BTreeSet;
use std::fmt;

/// How a finding is treated by gates, in ascending strictness of the
/// threshold that reports it.
///
/// The ordering is `Pedantic < Warn < Deny` so a gate level can be
/// compared with `>=`: `analyze --deny-level warn` fails on `Warn` and
/// `Deny` findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Exact and true, but expected on legitimate inputs (e.g. a
    /// transitively redundant edge in a def-use DDG). Reported for
    /// completeness; never gates by default.
    Pedantic,
    /// Suspicious: almost certainly a generator or tooling bug, but the
    /// region is still schedulable.
    Warn,
    /// A violated invariant: the region, claim, or configuration is wrong.
    /// Deny findings fail the CI gate and the `analyze` exit code.
    Deny,
}

impl Level {
    /// Stable lowercase name (used by both renderers and the CLI flag).
    pub fn name(self) -> &'static str {
        match self {
            Level::Pedantic => "pedantic",
            Level::Warn => "warn",
            Level::Deny => "deny",
        }
    }

    /// Parses a [`Level`] from its [`Level::name`].
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "pedantic" => Some(Level::Pedantic),
            "warn" => Some(Level::Warn),
            "deny" => Some(Level::Deny),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The stable analysis codes.
///
/// `S` codes are *exact* findings: every one is backed by a recomputed
/// ground truth (closure, machine model, lower bound, or fingerprint),
/// never a heuristic. See DESIGN.md's "Static analysis" section for the
/// severity policy.
pub mod codes {
    /// An edge implied by a transitive path of at least the same
    /// effective latency (exact transitive reduction; replaces the old
    /// heuristic `L001`).
    pub const TRANSITIVE_REDUNDANT: &str = "S001";
    /// The dependence relation contains a cycle (reported with a minimal
    /// witness cycle).
    pub const CYCLE: &str = "S002";
    /// An orphan node: no dependences, no defs, no uses.
    pub const ORPHAN: &str = "S003";
    /// An edge latency disagrees with the machine model's latency for the
    /// producing instruction's op kind.
    pub const LATENCY_MODEL: &str = "S004";
    /// A claimed peak register pressure below the exact static lower
    /// bound: the claim is infeasible.
    pub const PRP_INFEASIBLE: &str = "S005";
    /// A claimed schedule length below the length lower bound.
    pub const LENGTH_INFEASIBLE: &str = "S006";
}

/// Which graph object a finding is about.
///
/// Node and edge anchors use raw `u32` indices (not [`sched_ir::InstrId`])
/// because the analyzer also runs on pre-validation raw regions, where a
/// cyclic graph has no `Ddg` to index into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Anchor {
    /// The region as a whole.
    Region,
    /// One instruction, by index.
    Node(u32),
    /// One dependence edge.
    Edge {
        /// Producer index.
        from: u32,
        /// Consumer index.
        to: u32,
    },
    /// A cycle through the listed nodes (a minimal witness: consecutive
    /// entries are edges, and the last closes back to the first).
    Cycle(Vec<u32>),
    /// A named claim a scheduler made about a schedule.
    Claim(&'static str),
    /// A named configuration field.
    ConfigField(&'static str),
    /// One register.
    Reg(Reg),
    /// One pheromone-table entry (row `n` is the virtual start row).
    PheromoneEntry {
        /// Table row (the previously issued instruction).
        row: usize,
        /// Table column (the candidate instruction).
        col: usize,
    },
}

impl fmt::Display for Anchor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anchor::Region => write!(f, "region"),
            Anchor::Node(i) => write!(f, "node {i}"),
            Anchor::Edge { from, to } => write!(f, "edge {from} -> {to}"),
            Anchor::Cycle(nodes) => {
                write!(f, "cycle ")?;
                for n in nodes {
                    write!(f, "{n} -> ")?;
                }
                match nodes.first() {
                    Some(first) => write!(f, "{first}"),
                    None => write!(f, "(empty)"),
                }
            }
            Anchor::Claim(name) => write!(f, "claim `{name}`"),
            Anchor::ConfigField(name) => write!(f, "config field `{name}`"),
            Anchor::Reg(r) => write!(f, "reg {r}"),
            Anchor::PheromoneEntry { row, col } => write!(f, "pheromone entry ({row}, {col})"),
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Stable code (see [`codes`]).
    pub code: &'static str,
    /// Gate level.
    pub level: Level,
    /// The graph object the finding is about.
    pub anchor: Anchor,
    /// Source position of the anchor in the region's text-IR file, when
    /// the region was parsed from one.
    pub span: Option<SrcPos>,
    /// The file the span refers to, when known.
    pub file: Option<String>,
    /// Human-readable description.
    pub message: String,
    /// Kernel index within a suite, when analyzing a suite.
    pub kernel: Option<usize>,
    /// Region index within the kernel, when analyzing a suite.
    pub region: Option<usize>,
}

impl Finding {
    /// A new finding with no span/suite attribution.
    pub fn new(
        code: &'static str,
        level: Level,
        anchor: Anchor,
        message: impl Into<String>,
    ) -> Finding {
        Finding {
            code,
            level,
            anchor,
            span: None,
            file: None,
            message: message.into(),
            kernel: None,
            region: None,
        }
    }

    /// The finding with a text-IR source span attached.
    pub fn with_span(mut self, span: Option<SrcPos>) -> Finding {
        self.span = span;
        self
    }

    /// The finding attributed to a file.
    pub fn in_file(mut self, file: impl Into<String>) -> Finding {
        self.file = Some(file.into());
        self
    }

    /// The finding attributed to a suite location.
    pub fn in_region(mut self, kernel: usize, region: usize) -> Finding {
        self.kernel = Some(kernel);
        self.region = Some(region);
        self
    }

    /// The stable suppression key of the finding: code plus anchor plus
    /// location, *excluding* the message (messages carry computed values
    /// and may legitimately change between runs).
    pub fn baseline_key(&self) -> String {
        let mut key = String::new();
        if let Some(f) = &self.file {
            key.push_str(f);
            key.push(' ');
        }
        if let (Some(k), Some(r)) = (self.kernel, self.region) {
            key.push_str(&format!("k{k}/r{r} "));
        }
        key.push_str(self.code);
        key.push(' ');
        key.push_str(&self.anchor.to_string());
        key
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}[{}]: {}", self.level, self.code, self.message)?;
        write!(f, "  --> ")?;
        if let Some(file) = &self.file {
            write!(f, "{file}")?;
            if let Some(span) = self.span {
                write!(f, ":{span}")?;
            }
            write!(f, ": ")?;
        } else if let Some(span) = self.span {
            write!(f, "{span}: ")?;
        }
        if let (Some(k), Some(r)) = (self.kernel, self.region) {
            write!(f, "kernel {k}, region {r}, ")?;
        }
        write!(f, "{}", self.anchor)
    }
}

/// Per-level finding counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelCounts {
    /// Number of [`Level::Deny`] findings.
    pub deny: usize,
    /// Number of [`Level::Warn`] findings.
    pub warn: usize,
    /// Number of [`Level::Pedantic`] findings.
    pub pedantic: usize,
}

impl LevelCounts {
    /// Counts the findings of a slice.
    pub fn of(findings: &[Finding]) -> LevelCounts {
        let mut c = LevelCounts::default();
        for f in findings {
            match f.level {
                Level::Deny => c.deny += 1,
                Level::Warn => c.warn += 1,
                Level::Pedantic => c.pedantic += 1,
            }
        }
        c
    }
}

/// Renders findings rustc-style, one paragraph each, with a trailing
/// per-level summary line prefixed by the reporting `tool`'s name.
pub fn render_text(tool: &str, findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    let c = LevelCounts::of(findings);
    out.push_str(&format!(
        "{tool}: {} deny, {} warn, {} pedantic\n",
        c.deny, c.warn, c.pedantic
    ));
    out
}

/// Escapes a string for a JSON string literal (without the quotes).
fn escape_json(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    escape_json(value, out);
    out.push('"');
}

/// Renders findings as a machine-readable JSON document.
///
/// Schema (`sched-analyze-findings/v1`):
///
/// ```json
/// {
///   "schema": "sched-analyze-findings/v1",
///   "deny": 0, "warn": 0, "pedantic": 2, "suppressed": 1,
///   "findings": [
///     {"code": "S001", "level": "pedantic", "anchor": "edge 3 -> 7",
///      "file": "r.txt", "line": 12, "col": 1, "kernel": 0, "region": 2,
///      "message": "..."}
///   ]
/// }
/// ```
///
/// `file`/`line`/`col`/`kernel`/`region` are present only when known.
pub fn render_json(findings: &[Finding], suppressed: usize) -> String {
    let c = LevelCounts::of(findings);
    let mut out = String::new();
    out.push_str("{\"schema\":\"sched-analyze-findings/v1\",");
    out.push_str(&format!(
        "\"deny\":{},\"warn\":{},\"pedantic\":{},\"suppressed\":{suppressed},",
        c.deny, c.warn, c.pedantic
    ));
    out.push_str("\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_str_field(&mut out, "code", f.code);
        out.push(',');
        push_str_field(&mut out, "level", f.level.name());
        out.push(',');
        push_str_field(&mut out, "anchor", &f.anchor.to_string());
        if let Some(file) = &f.file {
            out.push(',');
            push_str_field(&mut out, "file", file);
        }
        if let Some(span) = f.span {
            out.push_str(&format!(",\"line\":{},\"col\":{}", span.line, span.col));
        }
        if let (Some(k), Some(r)) = (f.kernel, f.region) {
            out.push_str(&format!(",\"kernel\":{k},\"region\":{r}"));
        }
        out.push(',');
        push_str_field(&mut out, "message", &f.message);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// A clippy-style baseline-suppression file: one [`Finding::baseline_key`]
/// per line, comments with `#`.
///
/// A baseline records *accepted* findings (typically pedantic ones on
/// legitimate inputs) so gates only trip on new ones. Keys exclude
/// messages, so value changes in a message do not invalidate a baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    keys: BTreeSet<String>,
}

/// The header line of a serialized [`Baseline`].
pub const BASELINE_HEADER: &str = "# sched-analyze baseline v1";

impl Baseline {
    /// An empty baseline (suppresses nothing).
    pub fn new() -> Baseline {
        Baseline::default()
    }

    /// Parses a baseline file.
    pub fn parse(text: &str) -> Baseline {
        let keys = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        Baseline { keys }
    }

    /// A baseline accepting every given finding.
    pub fn accepting(findings: &[Finding]) -> Baseline {
        Baseline {
            keys: findings.iter().map(Finding::baseline_key).collect(),
        }
    }

    /// Serializes the baseline (stable order).
    pub fn to_text(&self) -> String {
        let mut out = String::from(BASELINE_HEADER);
        out.push('\n');
        for k in &self.keys {
            out.push_str(k);
            out.push('\n');
        }
        out
    }

    /// Number of suppressed keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the baseline suppresses nothing.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether the baseline suppresses this finding.
    pub fn suppresses(&self, finding: &Finding) -> bool {
        self.keys.contains(&finding.baseline_key())
    }

    /// Splits findings into (kept, suppressed-count).
    pub fn apply(&self, findings: Vec<Finding>) -> (Vec<Finding>, usize) {
        let before = findings.len();
        let kept: Vec<Finding> = findings
            .into_iter()
            .filter(|f| !self.suppresses(f))
            .collect();
        let suppressed = before - kept.len();
        (kept, suppressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding::new(
            codes::TRANSITIVE_REDUNDANT,
            Level::Pedantic,
            Anchor::Edge { from: 3, to: 7 },
            "edge 3 -> 7 (latency 1) is implied by a path of effective latency 65",
        )
        .with_span(Some(SrcPos { line: 12, col: 1 }))
        .in_file("r.txt")
    }

    #[test]
    fn levels_are_ordered_for_gating() {
        assert!(Level::Deny > Level::Warn);
        assert!(Level::Warn > Level::Pedantic);
        assert_eq!(Level::parse("deny"), Some(Level::Deny));
        assert_eq!(Level::parse("bogus"), None);
    }

    #[test]
    fn text_rendering_is_rustc_like_with_file_spans() {
        let s = sample().to_string();
        assert!(s.starts_with("pedantic[S001]:"), "{s}");
        assert!(s.contains("--> r.txt:12:1: edge 3 -> 7"), "{s}");
        let summary = render_text("analyze", &[sample()]);
        assert!(summary.contains("analyze: 0 deny, 0 warn, 1 pedantic"));
    }

    #[test]
    fn json_rendering_escapes_and_counts() {
        let mut f = sample();
        f.message = "quote \" backslash \\ newline \n done".into();
        let doc = render_json(&[f], 2);
        assert!(doc.contains("\"schema\":\"sched-analyze-findings/v1\""));
        assert!(doc.contains("\"deny\":0,\"warn\":0,\"pedantic\":1,\"suppressed\":2"));
        assert!(doc.contains("quote \\\" backslash \\\\ newline \\n done"));
        assert!(doc.contains("\"line\":12,\"col\":1"));
        crate::json_check::validate(&doc).expect("well-formed JSON");
    }

    #[test]
    fn baseline_roundtrips_and_suppresses_by_key() {
        let f = sample();
        let b = Baseline::accepting(std::slice::from_ref(&f));
        assert!(b.suppresses(&f));
        // Message changes do not invalidate the key.
        let mut f2 = f.clone();
        f2.message = "different numbers".into();
        assert!(b.suppresses(&f2));
        // A different edge is a different key.
        let mut f3 = f.clone();
        f3.anchor = Anchor::Edge { from: 3, to: 8 };
        assert!(!b.suppresses(&f3));
        let parsed = Baseline::parse(&b.to_text());
        assert_eq!(parsed, b);
        let (kept, suppressed) = parsed.apply(vec![f, f3.clone()]);
        assert_eq!(suppressed, 1);
        assert_eq!(kept, vec![f3]);
    }

    #[test]
    fn cycle_anchor_renders_closed() {
        let a = Anchor::Cycle(vec![2, 5, 9]);
        assert_eq!(a.to_string(), "cycle 2 -> 5 -> 9 -> 2");
    }
}
