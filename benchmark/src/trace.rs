//! In-memory span recorder for the `--trace 1` run.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each product layer; nothing inside the product crates is
//! instrumented. They stay in memory until the run ends and are then
//! written as one JSON file, so recording costs two clock reads and a
//! `Vec::push` per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Region-size band of the thing a span worked on (Table 1's bands).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Band {
    /// Not tied to one region (whole-suite steps, protocol work).
    None,
    /// 1–49 instructions.
    Small,
    /// 50–99 instructions.
    Medium,
    /// 100 instructions and more.
    Large,
}

impl Band {
    pub fn of(instrs: usize) -> Band {
        match instrs {
            0..=49 => Band::Small,
            50..=99 => Band::Medium,
            _ => Band::Large,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Band::None => "none",
            Band::Small => "1-49",
            Band::Medium => "50-99",
            Band::Large => "100+",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request or region identifier shared by the spans of one operation.
    pub id: u64,
    pub band: Band,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub max_ns: u64,
}

impl NameTotal {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// The recorder. Spans opened with [`Tracer::enter`] nest: a span's parent
/// is whatever span was open on this tracer when it started.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str, id: u64, band: Band) -> usize {
        let idx = self.spans.len();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            id,
            band,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx`, which must be the innermost open span.
    pub fn exit(&mut self, idx: usize) {
        let now = self.ns(Instant::now());
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = now;
    }

    /// Records a span measured elsewhere (a client thread's request) as a
    /// child of `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        band: Band,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            id,
            band,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its own
    /// interval that its children cover. Overlapping children (requests in
    /// flight on several connections) are merged first, so covered time is
    /// subtracted once and self time is never negative.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Count, total, self and maximum time per span name, optionally
    /// restricted to one band.
    pub fn totals(&self, band: Option<Band>) -> BTreeMap<&'static str, NameTotal> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            if band.is_some_and(|b| b != s.band) {
                continue;
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
            t.max_ns = t.max_ns.max(s.duration_ns());
        }
        out
    }

    /// The trace as one JSON document: the spans in recording order, then
    /// the per-name totals.
    pub fn to_json(&self, workload: &str) -> String {
        let selfs = self.self_times_ns();
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": ["
        );
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"i\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \
                 \"self\": {self_ns}, \"parent\": {parent}, \"id\": {}, \"band\": \"{}\"}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.id,
                s.band.name(),
            );
        }
        out.push_str("\n], \"totals\": {");
        for (i, (name, t)) in self.totals(None).iter().enumerate() {
            let _ = write!(
                out,
                "{}\n\"{name}\": {{\"count\": {}, \"total\": {}, \"self\": {}, \"max\": {}}}",
                if i == 0 { "" } else { "," },
                t.count,
                t.total_ns,
                t.self_ns,
                t.max_ns,
            );
        }
        out.push_str("\n}}\n");
        out
    }
}

/// A tracer shared by a driver loop and the observer closure it hands to
/// the product code; both sides borrow it only for the length of one
/// `enter`/`exit` call, never across the traced work.
pub type SharedTracer = RefCell<Tracer>;

/// Runs `f` inside a span on a shared tracer.
pub fn spanned<R>(
    tracer: &SharedTracer,
    name: &'static str,
    id: u64,
    band: Band,
    f: impl FnOnce() -> R,
) -> R {
    let idx = tracer.borrow_mut().enter(name, id, band);
    let r = f();
    tracer.borrow_mut().exit(idx);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(origin: Instant, ns: u64) -> Instant {
        origin + std::time::Duration::from_nanos(ns)
    }

    /// A tracer with hand-placed spans: `(name, start, end, parent)`.
    fn fixture(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new();
        let origin = t.origin;
        for &(name, lo, hi, parent) in spans {
            t.record(name, 0, Band::None, at(origin, lo), at(origin, hi), parent);
        }
        t
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let t = fixture(&[
            ("root", 0, 100, None),
            ("a", 10, 30, Some(0)),
            ("b", 50, 90, Some(0)),
        ]);
        assert_eq!(t.self_times_ns(), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Two requests in flight at once cover [10, 60) between them.
        let t = fixture(&[
            ("root", 0, 100, None),
            ("req", 10, 50, Some(0)),
            ("req", 30, 60, Some(0)),
            ("req", 35, 40, Some(0)),
        ]);
        assert_eq!(t.self_times_ns()[0], 50);
    }

    #[test]
    fn self_time_is_never_negative() {
        // A child recorded on another thread may overhang its parent.
        let t = fixture(&[("root", 10, 20, None), ("kid", 0, 100, Some(0))]);
        assert_eq!(t.self_times_ns(), vec![0, 100]);
        // And a child wholly outside its parent subtracts nothing.
        let t = fixture(&[("root", 10, 20, None), ("kid", 30, 40, Some(0))]);
        assert_eq!(t.self_times_ns()[0], 10);
    }

    #[test]
    fn grandchildren_count_against_their_parent_only() {
        let t = fixture(&[
            ("root", 0, 100, None),
            ("mid", 20, 80, Some(0)),
            ("leaf", 30, 50, Some(1)),
        ]);
        assert_eq!(t.self_times_ns(), vec![40, 40, 20]);
    }

    #[test]
    fn enter_exit_nest_and_total_by_name_and_band() {
        let mut t = Tracer::new();
        let root = t.enter("root", 1, Band::None);
        let a = t.enter("leaf", 1, Band::Small);
        t.exit(a);
        let b = t.enter("leaf", 2, Band::Large);
        t.exit(b);
        t.exit(root);
        assert_eq!(t.spans()[a].parent, Some(root));
        assert_eq!(t.spans()[b].parent, Some(root));
        assert_eq!(t.spans()[root].parent, None);
        let all = t.totals(None);
        assert_eq!(all["leaf"].count, 2);
        assert_eq!(all["root"].count, 1);
        assert_eq!(t.totals(Some(Band::Large))["leaf"].count, 1);
        assert!(!t.totals(Some(Band::Large)).contains_key("root"));
        let selfs = t.self_times_ns();
        let kids = t.spans()[a].duration_ns() + t.spans()[b].duration_ns();
        assert_eq!(selfs[root], t.spans()[root].duration_ns() - kids);
    }

    #[test]
    fn bands_follow_table_one() {
        assert_eq!(Band::of(1), Band::Small);
        assert_eq!(Band::of(49), Band::Small);
        assert_eq!(Band::of(50), Band::Medium);
        assert_eq!(Band::of(99), Band::Medium);
        assert_eq!(Band::of(100), Band::Large);
    }

    #[test]
    fn json_lists_every_span_and_total() {
        let t = fixture(&[("root", 0, 100, None), ("a", 10, 30, Some(0))]);
        let json = t.to_json("w");
        assert!(json.contains("\"workload\": \"w\""));
        assert!(json
            .contains("\"name\": \"a\", \"start\": 10, \"end\": 30, \"self\": 20, \"parent\": 0"));
        assert!(
            json.contains("\"root\": {\"count\": 1, \"total\": 100, \"self\": 80, \"max\": 100}")
        );
        crate::json::parse(&json).expect("trace file must be valid JSON");
    }
}
