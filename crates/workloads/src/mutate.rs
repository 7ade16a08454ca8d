//! Defect injectors for analyzer mutation testing.
//!
//! Each injector takes a clean generated region and plants exactly one
//! defect of a known class, returning the mutated region plus enough
//! information for a test to assert the analyzer's finding points at the
//! planted defect — the mutation-testing counterpart of `sched-analyze`'s
//! S-code passes (redundant edge → S001, cycle → S002, orphan → S003,
//! corrupted latency → S004).
//!
//! Injectors are deterministic: the `seed` selects among the eligible
//! injection sites so property tests can sweep many placements. They
//! return `None` when the region has no eligible site (e.g. no transitive
//! pair to span with a redundant edge).

use machine_model::{op_latency, OpKind};
use sched_ir::textir;
use sched_ir::{Ddg, DdgBuilder, InstrId};

/// Rebuilds a region's instructions and edges into a fresh builder,
/// optionally overriding one edge's latency.
fn rebuild(ddg: &Ddg, override_edge: Option<(InstrId, InstrId, u16)>) -> DdgBuilder {
    let mut b = DdgBuilder::new();
    for id in ddg.ids() {
        let i = ddg.instr(id);
        b.instr(i.name(), i.defs().iter().copied(), i.uses().iter().copied());
    }
    for id in ddg.ids() {
        for &(succ, lat) in ddg.succs(id) {
            let lat = match override_edge {
                Some((f, t, l)) if f == id && t == succ => l,
                _ => lat,
            };
            b.edge(id, succ, lat).expect("edges of a valid Ddg rebuild");
        }
    }
    b
}

/// Plants one transitively redundant edge: a latency-1 edge `a -> b` where
/// a path of two or more edges already runs `a -> ... -> b` (so its
/// effective latency is at least 2, which always covers the planted
/// edge's effective latency of 1 — the edge is redundant by construction).
///
/// Returns the mutated region and the planted edge, or `None` when the
/// region has no uncovered transitive pair.
pub fn with_redundant_edge(ddg: &Ddg, seed: u64) -> Option<(Ddg, (InstrId, InstrId))> {
    let tc = ddg.transitive_closure();
    let mut sites = Vec::new();
    for a in ddg.ids() {
        for &(m, _) in ddg.succs(a) {
            for b in tc.descendants(m) {
                // a -> m -> ... -> b is a multi-edge path; eligible when no
                // direct edge a -> b exists yet.
                if ddg.succs(a).iter().all(|&(s, _)| s != b) {
                    sites.push((a, b));
                }
            }
        }
    }
    sites.sort();
    sites.dedup();
    if sites.is_empty() {
        return None;
    }
    let (a, b) = sites[(seed as usize) % sites.len()];
    let mut builder = rebuild(ddg, None);
    builder.edge(a, b, 1).expect("a -> b follows the closure");
    Some((builder.build().expect("still acyclic"), (a, b)))
}

/// Appends one orphan node: no dependences, no defs, no uses. Generators
/// never emit one (every instruction carries registers), so any orphan in
/// a generated region is an injected defect.
///
/// Returns the mutated region and the orphan's id.
pub fn with_orphan_node(ddg: &Ddg) -> (Ddg, InstrId) {
    let mut builder = rebuild(ddg, None);
    let orphan = builder.instr("orphan", [], []);
    (
        builder.build().expect("adding a node keeps acyclicity"),
        orphan,
    )
}

/// Maps a generated instruction name (`{mnemonic}_{index}`) back to its
/// [`OpKind`], mirroring how the generators assign edge latencies.
fn kind_of_name(name: &str) -> Option<OpKind> {
    OpKind::ALL.into_iter().find(|k| {
        let m = k.mnemonic();
        name.strip_prefix(m)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('_'))
    })
}

/// Corrupts one edge's latency to `op_latency(kind) + 17`, violating the
/// generator invariant that every out-edge of a `{mnemonic}_{i}` producer
/// carries the producer's model latency.
///
/// Returns the mutated region and the corrupted edge, or `None` when no
/// edge has a model-named producer.
pub fn with_corrupt_latency(ddg: &Ddg, seed: u64) -> Option<(Ddg, (InstrId, InstrId))> {
    let mut sites = Vec::new();
    for a in ddg.ids() {
        if let Some(kind) = kind_of_name(ddg.instr(a).name()) {
            for &(b, _) in ddg.succs(a) {
                sites.push((a, b, op_latency(kind) + 17));
            }
        }
    }
    if sites.is_empty() {
        return None;
    }
    let (a, b, bad) = sites[(seed as usize) % sites.len()];
    let ddg = rebuild(ddg, Some((a, b, bad)))
        .build()
        .expect("latency change keeps the graph acyclic");
    Some((ddg, (a, b)))
}

/// Renders the region to text IR and appends the reverse of one edge,
/// creating a two-node dependence cycle. The result can only exist as
/// text (a validated [`Ddg`] cannot represent it) — parse it with
/// [`textir::parse_raw`].
///
/// Returns the cyclic text and the two nodes of the planted cycle, or
/// `None` for an edgeless region.
pub fn with_cycle_text(ddg: &Ddg, seed: u64) -> Option<(String, (InstrId, InstrId))> {
    let mut edges = Vec::new();
    for id in ddg.ids() {
        for &(succ, lat) in ddg.succs(id) {
            edges.push((id, succ, lat));
        }
    }
    if edges.is_empty() {
        return None;
    }
    let (a, b, lat) = edges[(seed as usize) % edges.len()];
    let mut text = textir::to_text(ddg);
    text.push_str(&format!("edge {} {} {}\n", b.0, a.0, lat));
    Some((text, (a, b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;

    #[test]
    fn redundant_edge_injection_spans_a_transitive_pair() {
        let ddg = patterns::reduction(8, 3);
        let (mutated, (a, b)) = with_redundant_edge(&ddg, 5).expect("reductions have chains");
        assert_eq!(mutated.len(), ddg.len());
        assert_eq!(mutated.edge_count(), ddg.edge_count() + 1);
        assert!(mutated.succs(a).iter().any(|&(s, l)| s == b && l == 1));
        assert!(ddg.transitive_closure().depends(a, b));
    }

    #[test]
    fn orphan_injection_appends_a_disconnected_node() {
        let ddg = patterns::scan(8, 3);
        let (mutated, orphan) = with_orphan_node(&ddg);
        assert_eq!(mutated.len(), ddg.len() + 1);
        assert!(mutated.succs(orphan).is_empty());
        assert_eq!(mutated.pred_counts()[orphan.index()], 0);
        assert!(mutated.instr(orphan).defs().is_empty());
    }

    #[test]
    fn latency_corruption_breaks_the_model_invariant() {
        let ddg = patterns::sized(60, 11);
        let (mutated, (a, b)) = with_corrupt_latency(&ddg, 2).expect("generated names map");
        let kind = kind_of_name(mutated.instr(a).name()).unwrap();
        let lat = mutated
            .succs(a)
            .iter()
            .find(|&&(s, _)| s == b)
            .map(|&(_, l)| l)
            .unwrap();
        assert_eq!(lat, op_latency(kind) + 17);
    }

    #[test]
    fn cycle_text_reverses_an_existing_edge() {
        let ddg = patterns::transform_chain(2, 5, 9);
        let (text, (a, b)) = with_cycle_text(&ddg, 0).expect("chains have edges");
        let raw = textir::parse_raw(&text).expect("still syntactically valid");
        assert!(raw.edges.iter().any(|e| (e.from, e.to) == (b.0, a.0)));
        assert!(
            raw.into_ddg().is_err(),
            "the cycle must defeat strict parsing"
        );
    }

    #[test]
    fn injectors_return_none_without_eligible_sites() {
        let mut b = DdgBuilder::new();
        b.instr("lone_a", [], []);
        b.instr("lone_b", [], []);
        let ddg = b.build().unwrap();
        assert!(with_redundant_edge(&ddg, 0).is_none());
        assert!(with_corrupt_latency(&ddg, 0).is_none());
        assert!(with_cycle_text(&ddg, 0).is_none());
    }
}
