//! Test oracles: the routines the near-linear engine replaced, kept
//! verbatim as reference implementations, and the exactness tests that
//! hold the engine to them.
//!
//! The oracle composes the way the analyzer used to: [`analyze_graph`] and
//! each [`check_claims`] call start over from the graph (their own Kahn
//! order, closure and bounds); S001 runs a full-order longest-path sweep
//! with fresh `Option` vectors per producer; the cut bound walks a
//! `HashMap<Reg, (defs, uses)>` once per node with single-bit closure
//! probes; S004 resolves the producer's name once per edge. The tests
//! compare whole `Vec<Finding>`s — code, level, anchor, span, message and
//! order — never counts.

use crate::diag::{codes, Anchor, Finding, Level};
use crate::framework::{closure, eff, length_lower_bound, topo_or_cycle, RedundantEdge, Topo};
use crate::graph::RegionGraph;
use crate::passes::{op_kind_of_name, ScheduleClaim, PRP_CLAIMS};
use machine_model::op_latency;
use sched_ir::{BitMatrix, Reg, REG_CLASS_COUNT};
use std::collections::HashMap;

/// Longest effective-latency distances from `src` over paths of **two or
/// more edges** (`None` = no such path), and over paths of any length.
fn multi_edge_longest_from(
    g: &RegionGraph,
    order: &[u32],
    src: u32,
) -> (Vec<Option<u64>>, Vec<Option<u64>>) {
    let n = g.len();
    let mut any: Vec<Option<u64>> = vec![None; n]; // >= 1 edge
    let mut multi: Vec<Option<u64>> = vec![None; n]; // >= 2 edges
    for &u in order {
        if u == src {
            for e in g.succ_edges(u) {
                let cand = eff(e.latency);
                if any[e.to as usize].is_none_or(|d| cand > d) {
                    any[e.to as usize] = Some(cand);
                }
            }
        } else if let Some(du) = any[u as usize] {
            // Any path through a non-source reachable node has >= 2 edges.
            for e in g.succ_edges(u) {
                let cand = du + eff(e.latency);
                if any[e.to as usize].is_none_or(|d| cand > d) {
                    any[e.to as usize] = Some(cand);
                }
                if multi[e.to as usize].is_none_or(|d| cand > d) {
                    multi[e.to as usize] = Some(cand);
                }
            }
        }
    }
    (multi, any)
}

/// The cut bound by its per-node definition (see
/// [`crate::framework::pressure_lower_bound`] for the rule): every node
/// walks every register and probes the closure one bit at a time.
pub(crate) fn pressure_lower_bound(g: &RegionGraph, reach: &BitMatrix) -> [u32; REG_CLASS_COUNT] {
    let n = g.len() as u32;
    // Reg -> (def nodes, use nodes).
    let mut regs: HashMap<Reg, (Vec<u32>, Vec<u32>)> = HashMap::new();
    for i in 0..n {
        for &r in g.defs(i) {
            regs.entry(r).or_default().0.push(i);
        }
        for &r in g.uses(i) {
            regs.entry(r).or_default().1.push(i);
        }
    }
    // Live-out cut: defined-never-used registers all overlap at the end.
    let mut live_out = [0u32; REG_CLASS_COUNT];
    for (r, (defs, uses)) in &regs {
        if defs.len() == 1 && uses.is_empty() {
            live_out[r.class().index()] += 1;
        }
    }
    let mut bound = live_out;
    // Per-node cuts.
    for x in 0..n {
        let mut cut = [0u32; REG_CLASS_COUNT];
        for (r, (defs, uses)) in &regs {
            let live = match defs.as_slice() {
                [] => uses.iter().any(|&u| reach.get(x as usize, u as usize)),
                &[d] => {
                    (d == x || reach.get(d as usize, x as usize))
                        && (uses.is_empty()
                            || uses.iter().any(|&u| reach.get(x as usize, u as usize)))
                }
                _ => false, // multiple defs: skipped for soundness
            };
            if live {
                cut[r.class().index()] += 1;
            }
        }
        for c in 0..REG_CLASS_COUNT {
            bound[c] = bound[c].max(cut[c]);
        }
    }
    bound
}

/// Exact transitive reduction: one full-order sweep per producer.
pub(crate) fn redundant_edges(g: &RegionGraph, order: &[u32]) -> Vec<RedundantEdge> {
    let mut out = Vec::new();
    for src in 0..g.len() as u32 {
        // A multi-edge path src -> .. -> b needs a second out-edge.
        if g.out_degree(src) < 2 {
            continue;
        }
        let (multi, _) = multi_edge_longest_from(g, order, src);
        for e in g.succ_edges(src) {
            if let Some(m) = multi[e.to as usize] {
                if m >= eff(e.latency) {
                    out.push(RedundantEdge {
                        from: e.from,
                        to: e.to,
                        latency: e.latency,
                        implied: m,
                    });
                }
            }
        }
    }
    out
}

/// The graph passes (S001–S004), from the graph up.
pub(crate) fn analyze_graph(g: &RegionGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    if g.is_empty() {
        return findings;
    }

    // S003: orphan nodes.
    for i in 0..g.len() as u32 {
        if g.in_degree(i) == 0
            && g.out_degree(i) == 0
            && g.defs(i).is_empty()
            && g.uses(i).is_empty()
        {
            findings.push(
                Finding::new(
                    codes::ORPHAN,
                    Level::Warn,
                    Anchor::Node(i),
                    format!(
                        "node {i} (`{}`) has no dependences, defs, or uses: it \
                         constrains nothing and schedules anywhere",
                        g.name(i)
                    ),
                )
                .with_span(g.node_span(i)),
            );
        }
    }

    // S004: edge latencies vs the machine model.
    for e in g.edges() {
        if let Some(kind) = op_kind_of_name(g.name(e.from)) {
            let expected = op_latency(kind);
            if e.latency != expected {
                findings.push(
                    Finding::new(
                        codes::LATENCY_MODEL,
                        Level::Deny,
                        Anchor::Edge {
                            from: e.from,
                            to: e.to,
                        },
                        format!(
                            "edge {} -> {} has latency {} but producer `{}` is a \
                             {:?} with model latency {}",
                            e.from,
                            e.to,
                            e.latency,
                            g.name(e.from),
                            kind,
                            expected
                        ),
                    )
                    .with_span(e.span),
                );
            }
        }
    }

    match topo_or_cycle(g) {
        Topo::Cyclic(witness) => {
            let span = g
                .succ_edges(*witness.last().expect("witness is non-empty"))
                .find(|e| e.to == witness[0])
                .and_then(|e| e.span);
            let msg = if witness.len() == 1 {
                format!("node {} depends on itself (self edge)", witness[0])
            } else {
                format!(
                    "the dependence relation is cyclic: no schedule can order \
                     {} nodes that each transitively wait on the others",
                    witness.len()
                )
            };
            findings.push(
                Finding::new(codes::CYCLE, Level::Deny, Anchor::Cycle(witness), msg)
                    .with_span(span),
            );
        }
        Topo::Acyclic(order) => {
            // S001: exact transitive reduction.
            for r in redundant_edges(g, &order) {
                let span = g
                    .succ_edges(r.from)
                    .find(|e| e.to == r.to && e.latency == r.latency)
                    .and_then(|e| e.span);
                findings.push(
                    Finding::new(
                        codes::TRANSITIVE_REDUNDANT,
                        Level::Pedantic,
                        Anchor::Edge {
                            from: r.from,
                            to: r.to,
                        },
                        format!(
                            "edge {} -> {} (latency {}, effective {}) is implied by a \
                             longer path of effective latency {}: removing it cannot \
                             change any schedule",
                            r.from,
                            r.to,
                            r.latency,
                            eff(r.latency),
                            r.implied
                        ),
                    )
                    .with_span(span),
                );
            }
        }
    }
    findings
}

/// S005/S006 for one claim, from the graph up.
pub(crate) fn check_claims(g: &RegionGraph, claim: &ScheduleClaim) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Topo::Acyclic(order) = topo_or_cycle(g) else {
        return findings;
    };
    let length_lb = length_lower_bound(g, &order);
    if claim.length < length_lb {
        findings.push(Finding::new(
            codes::LENGTH_INFEASIBLE,
            Level::Deny,
            Anchor::Claim("schedule_length"),
            format!(
                "{} claims schedule length {} but the length lower bound \
                 is {}: the claim is infeasible",
                claim.source, claim.length, length_lb
            ),
        ));
    }
    let reach = closure(g, &order);
    let prp_lb = pressure_lower_bound(g, &reach);
    for c in 0..REG_CLASS_COUNT {
        if claim.prp[c] < prp_lb[c] {
            findings.push(Finding::new(
                codes::PRP_INFEASIBLE,
                Level::Deny,
                Anchor::Claim(PRP_CLAIMS[c]),
                format!(
                    "{} claims peak pressure {} but the static cut bound forces \
                     at least {} simultaneously live registers of that class",
                    claim.source, claim.prp[c], prp_lb[c]
                ),
            ));
        }
    }
    findings
}

/// The analyzer's old per-region composition: every call starts over.
fn oracle_findings(g: &RegionGraph, claims: &[ScheduleClaim]) -> Vec<Finding> {
    let mut findings = analyze_graph(g);
    for claim in claims {
        findings.extend(check_claims(g, claim));
    }
    findings
}

/// Three claim settings per region: loose (nothing fires), all-zero
/// (S005/S006 fire wherever a bound is positive, with the bound in the
/// message) and mid-range (they fire on some regions and classes only).
fn claim_settings(g: &RegionGraph) -> [Vec<ScheduleClaim>; 3] {
    let claim = |length, prp, source| ScheduleClaim {
        length,
        prp,
        source,
    };
    [
        vec![claim(u64::MAX, [u32::MAX; REG_CLASS_COUNT], "loose")],
        vec![
            claim(0, [0; REG_CLASS_COUNT], "heuristic"),
            claim(0, [0; REG_CLASS_COUNT], "aco"),
        ],
        vec![
            claim(g.len() as u64, [3, 1], "heuristic"),
            claim(g.len() as u64 + 4, [6, 0], "aco"),
        ],
    ]
}

/// Holds the engine to the oracle on one region: the shared-facts entry
/// point against the from-scratch composition under every claim setting,
/// and the two single-purpose entry points against their oracles.
fn assert_exact(label: &str, g: &RegionGraph) {
    use crate::passes;
    assert_eq!(passes::analyze_graph(g), analyze_graph(g), "{label}: graph");
    assert_eq!(
        passes::analyze_with_claims(g, &[]),
        analyze_graph(g),
        "{label}: no claims"
    );
    for claims in claim_settings(g) {
        assert_eq!(
            passes::analyze_with_claims(g, &claims),
            oracle_findings(g, &claims),
            "{label}: {} claim(s) from {}",
            claims.len(),
            claims[0].source
        );
        for claim in &claims {
            assert_eq!(
                passes::check_claims(g, claim),
                check_claims(g, claim),
                "{label}: {claim:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework;
    use sched_ir::{textir, Ddg};
    use workloads::{mutate, patterns};

    fn codes_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    /// Generated regions whose sizes straddle one and two closure words.
    fn generated() -> Vec<(String, Ddg)> {
        let mut regions = Vec::new();
        for seed in [1u64, 7, 42] {
            for target in [40, 60, 63, 64, 65, 70, 120, 127, 128, 129, 140, 200] {
                regions.push((
                    format!("sized({target}, {seed})"),
                    patterns::sized(target, seed),
                ));
            }
            for lanes in [8, 24, 31, 32, 33, 63, 64, 65, 100] {
                regions.push((
                    format!("reduction({lanes}, {seed})"),
                    patterns::reduction(lanes, seed),
                ));
            }
            for (streams, chain) in [(4, 6), (6, 10), (8, 8), (9, 14), (12, 12)] {
                regions.push((
                    format!("transform_chain({streams}, {chain}, {seed})"),
                    patterns::transform_chain(streams, chain, seed),
                ));
            }
            for (layers, width) in [
                (4, 6),
                (6, 10),
                (8, 8),
                (9, 14),
                (12, 12),
                (13, 16),
                (16, 20),
            ] {
                regions.push((
                    format!("random_layered({layers}, {width}, {seed})"),
                    patterns::random_layered(layers, width, seed),
                ));
            }
        }
        regions
    }

    #[test]
    fn engine_equals_the_oracle_on_generated_regions() {
        let regions = generated();
        for pattern in ["sized", "reduction", "transform_chain", "random_layered"] {
            let sizes = regions
                .iter()
                .filter(|(label, _)| label.starts_with(pattern))
                .map(|(_, ddg)| ddg.len());
            let (min, max) = (sizes.clone().min().unwrap(), sizes.max().unwrap());
            assert!(
                min < 64 && max > 128,
                "{pattern}: sizes {min}..={max} must straddle 64 and 128 nodes"
            );
        }
        let (mut s001, mut s005, mut s006) = (0, 0, 0);
        for (label, ddg) in &regions {
            let g = RegionGraph::from_ddg(ddg);
            assert_exact(label, &g);
            for claims in claim_settings(&g) {
                for f in crate::passes::analyze_with_claims(&g, &claims) {
                    match f.code {
                        codes::TRANSITIVE_REDUNDANT => s001 += 1,
                        codes::PRP_INFEASIBLE => s005 += 1,
                        codes::LENGTH_INFEASIBLE => s006 += 1,
                        _ => {}
                    }
                }
            }
        }
        // The comparison is not vacuous: every path-based pass fired.
        assert!(s001 > 0 && s005 > 0 && s006 > 0, "{s001} {s005} {s006}");
    }

    #[test]
    fn engine_equals_the_oracle_on_every_injected_defect() {
        for seed in [3u64, 11, 42, 1009] {
            for (label, ddg) in [
                ("sized", patterns::sized(80, seed)),
                ("random_layered", patterns::random_layered(5, 14, seed)),
                ("transform_chain", patterns::transform_chain(9, 14, seed)),
                ("reduction", patterns::reduction(16, seed)),
            ] {
                let label = format!("{label} seed {seed}");
                if let Some((mutated, _)) = mutate::with_redundant_edge(&ddg, seed) {
                    assert_exact(
                        &format!("{label} redundant"),
                        &RegionGraph::from_ddg(&mutated),
                    );
                }
                let (mutated, _) = mutate::with_orphan_node(&ddg);
                assert_exact(&format!("{label} orphan"), &RegionGraph::from_ddg(&mutated));
                if let Some((mutated, _)) = mutate::with_corrupt_latency(&ddg, seed) {
                    assert_exact(
                        &format!("{label} latency"),
                        &RegionGraph::from_ddg(&mutated),
                    );
                }
                if let Some((text, _)) = mutate::with_cycle_text(&ddg, seed) {
                    let raw = textir::parse_raw(&text).unwrap();
                    assert_exact(&format!("{label} cycle"), &RegionGraph::from_raw(&raw));
                }
            }
        }
    }

    /// Parses a hand-built region, holds the engine to the oracle on it,
    /// and returns the engine's findings under an all-zero claim.
    fn exact_on(text: &str) -> Vec<Finding> {
        let raw = textir::parse_raw(text).unwrap();
        let g = RegionGraph::from_raw(&raw);
        assert_exact(text, &g);
        crate::passes::analyze_with_claims(
            &g,
            &[ScheduleClaim {
                length: 0,
                prp: [0; REG_CLASS_COUNT],
                source: "test",
            }],
        )
    }

    fn prp_bound(text: &str) -> [u32; REG_CLASS_COUNT] {
        let g = RegionGraph::parse_leaked(text);
        let Topo::Acyclic(order) = topo_or_cycle(&g) else {
            panic!("cyclic test region");
        };
        let (desc, anc) = (closure(&g, &order), framework::ancestors(&g, &order));
        let bound = framework::pressure_lower_bound(&g, &desc, &anc);
        assert_eq!(bound, pressure_lower_bound(&g, &desc), "{text}");
        bound
    }

    #[test]
    fn register_corner_cases_are_exact() {
        // A register defined twice is skipped; v1 alone is forced live.
        let text =
            "instr a defs v0\ninstr b defs v0,v1\ninstr c uses v0,v1\nedge 0 2 1\nedge 1 2 1";
        exact_on(text);
        assert_eq!(prp_bound(text), [1, 0]);
        // The same register twice in one def list still counts as two defs.
        let text = "instr a defs v0,v0\ninstr b uses v0\nedge 0 1 1";
        exact_on(text);
        assert_eq!(prp_bound(text), [0, 0]);
        // A register used by its own definer, with and without a later use.
        let text = "instr a defs v0 uses v0\ninstr b uses v0\nedge 0 1 1";
        exact_on(text);
        assert_eq!(prp_bound(text), [1, 0]);
        let text = "instr a defs v0 uses v0\ninstr b\nedge 0 1 1";
        exact_on(text);
        assert_eq!(prp_bound(text), [0, 0]);
        // Live-in only: forced live at every strict ancestor of a use.
        let text =
            "instr a uses v0,s1\ninstr b uses v0\ninstr c uses s1,s2\nedge 0 1 1\nedge 1 2 1";
        exact_on(text);
        assert_eq!(prp_bound(text), [1, 2]);
        // Live-out only: all overlap at the region's end.
        let text = "instr a defs v0\ninstr b defs v1,s0\ninstr c defs v2";
        exact_on(text);
        assert_eq!(prp_bound(text), [3, 1]);
        // No registers at all; an empty region.
        let text = "instr a\ninstr b\nedge 0 1 1";
        assert_eq!(codes_of(&exact_on(text)), [codes::LENGTH_INFEASIBLE]);
        assert_eq!(prp_bound(text), [0, 0]);
        assert_eq!(exact_on(""), vec![]);
        assert_eq!(prp_bound(""), [0, 0]);
    }

    #[test]
    fn reduction_corner_cases_are_exact() {
        // A zero-latency chain: each edge still costs a cycle, so the
        // two-hop path (effective 2) implies the direct edge (effective 1).
        let f = exact_on(
            "instr a defs v0\ninstr b defs v1 uses v0\ninstr c uses v1\n\
             edge 0 1 0\nedge 1 2 0\nedge 0 2 0",
        );
        assert_eq!(
            codes_of(&f),
            [
                codes::TRANSITIVE_REDUNDANT,
                codes::LENGTH_INFEASIBLE,
                codes::PRP_INFEASIBLE
            ]
        );
        assert!(
            f[0].message.contains("(latency 0, effective 1)"),
            "{}",
            f[0].message
        );
        // The redundant edge's target is the producer's *last* direct
        // successor in topological order: the window's far end.
        let f = exact_on(
            "instr a\ninstr b\ninstr c\ninstr d\ninstr e\n\
             edge 0 1 1\nedge 0 2 1\nedge 0 3 2\nedge 2 3 1\nedge 3 4 1",
        );
        assert_eq!(f[0].anchor, Anchor::Edge { from: 0, to: 3 });
        assert_eq!(
            codes_of(&f),
            [codes::TRANSITIVE_REDUNDANT, codes::LENGTH_INFEASIBLE]
        );
        // An interior node's edge that leaves the window is skipped and
        // the necessary edge 0 -> 2 stays clean.
        let f = exact_on(
            "instr a\ninstr b\ninstr c\ninstr d\n\
             edge 0 1 1\nedge 0 2 5\nedge 1 2 1\nedge 1 3 9\nedge 2 3 1",
        );
        assert_eq!(codes_of(&f), [codes::LENGTH_INFEASIBLE], "{f:?}");
        // Two parallel implying paths of equal latency: reported once.
        let f = exact_on(
            "instr a\ninstr b\ninstr c\ninstr d\n\
             edge 0 1 1\nedge 0 2 1\nedge 1 3 1\nedge 2 3 1\nedge 0 3 2",
        );
        assert_eq!(
            codes_of(&f),
            [codes::TRANSITIVE_REDUNDANT, codes::LENGTH_INFEASIBLE]
        );
        assert!(
            f[0].message.contains("effective latency 2:"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn raw_only_shapes_are_exact() {
        // Duplicate edges: a duplicate is not a multi-edge path, so the
        // pair 0 -> 1 is clean; both copies of 0 -> 2 are implied by
        // 0 -> 1 -> 2 and both report the first copy's span.
        let f = exact_on(
            "instr a\ninstr b\ninstr c\n\
             edge 0 1 1\nedge 0 1 1\nedge 1 2 1\nedge 0 2 1\nedge 0 2 1",
        );
        let s001: Vec<&Finding> = f
            .iter()
            .filter(|f| f.code == codes::TRANSITIVE_REDUNDANT)
            .collect();
        assert_eq!(s001.len(), 2);
        for f in s001 {
            assert_eq!(f.anchor, Anchor::Edge { from: 0, to: 2 });
            assert_eq!(f.span.map(|s| s.line), Some(7));
        }
        // A cycle: the S002 witness is unchanged, S001 and the claim
        // passes are skipped although 0 -> 2 would otherwise be redundant.
        let f = exact_on(
            "instr a\ninstr b\ninstr c\ninstr d\n\
             edge 0 1 1\nedge 1 2 1\nedge 0 2 1\nedge 2 3 1\nedge 3 1 1",
        );
        assert_eq!(codes_of(&f), [codes::CYCLE]);
        assert_eq!(f[0].anchor, Anchor::Cycle(vec![1, 2, 3]));
        assert_eq!(f[0].span.map(|s| s.line), Some(9));
    }
}
