//! The exact S-code passes.
//!
//! | Code | Level    | Finding |
//! |------|----------|---------|
//! | S001 | pedantic | transitively redundant edge (exact reduction)    |
//! | S002 | deny     | dependence cycle (minimal witness)               |
//! | S003 | warn     | orphan node: no edges, no defs, no uses          |
//! | S004 | deny     | edge latency disagrees with the machine model    |
//! | S005 | deny     | claimed PRP below the exact static lower bound   |
//! | S006 | deny     | claimed length below the heads-and-tails bound   |
//!
//! S001–S004 are *graph* passes over a [`RegionGraph`]
//! ([`analyze_graph`]); S005/S006 check a scheduler's [`ScheduleClaim`]
//! against recomputed lower bounds ([`check_claims`]).
//! [`analyze_with_claims`] runs the graph passes and any number of claim
//! checks over one set of per-region facts — one topological order, one
//! pair of lower bounds — and is what per-region callers use.
//!
//! Every pass is exact: a finding is backed by a recomputed ground truth
//! (a witness path, cycle, model latency, or lower bound), never a
//! heuristic, so a deny finding is always actionable.

use crate::diag::{codes, Anchor, Finding, Level};
use crate::framework::{
    ancestors, closure, eff, length_lower_bound, pressure_lower_bound, redundant_edges,
    topo_or_cycle, RedundantEdge, Topo,
};
use crate::graph::RegionGraph;
use machine_model::{op_latency, OpKind};
use sched_ir::REG_CLASS_COUNT;

/// Maps a generated instruction name back to its [`OpKind`].
///
/// The workload generators name instructions `{mnemonic}_{index}`
/// (`v_load_12`), and `link()` always labels out-edges with the producer's
/// `op_latency`. A name matches when it *is* a mnemonic or extends one
/// with `_`; anything else (hand-written names like figure1's `a`..`g`)
/// is out of model and exempt from S004.
pub fn op_kind_of_name(name: &str) -> Option<OpKind> {
    OpKind::ALL.into_iter().find(|k| {
        let m = k.mnemonic();
        name.strip_prefix(m)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('_'))
    })
}

/// S003: orphan nodes.
fn orphans(g: &RegionGraph, findings: &mut Vec<Finding>) {
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
}

/// S004: edge latencies vs the machine model, in edge input order. A
/// producer's name is resolved once however many edges leave it.
fn model_latencies(g: &RegionGraph, findings: &mut Vec<Finding>) {
    let producers: Vec<Option<(OpKind, u16)>> = (0..g.len() as u32)
        .map(|i| {
            if g.out_degree(i) == 0 {
                return None;
            }
            let kind = op_kind_of_name(g.name(i))?;
            Some((kind, op_latency(kind)))
        })
        .collect();
    for e in g.edges() {
        let Some((kind, expected)) = producers[e.from as usize] else {
            continue;
        };
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

/// S002: the minimal witness cycle [`topo_or_cycle`] found.
fn cycle_finding(g: &RegionGraph, witness: Vec<u32>) -> Finding {
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
    Finding::new(codes::CYCLE, Level::Deny, Anchor::Cycle(witness), msg).with_span(span)
}

/// S001: one redundant edge of the exact transitive reduction.
fn redundant_finding(g: &RegionGraph, r: RedundantEdge) -> Finding {
    let span = g
        .succ_edges(r.from)
        .find(|e| e.to == r.to && e.latency == r.latency)
        .and_then(|e| e.span);
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
    .with_span(span)
}

/// The graph passes (S001–S004) given the region's [`Topo`].
fn graph_findings(g: &RegionGraph, topo: Topo) -> Vec<Finding> {
    let mut findings = Vec::new();
    if g.is_empty() {
        return findings;
    }
    orphans(g, &mut findings);
    model_latencies(g, &mut findings);
    match topo {
        Topo::Cyclic(witness) => findings.push(cycle_finding(g, witness)),
        Topo::Acyclic(order) => findings.extend(
            redundant_edges(g, &order)
                .into_iter()
                .map(|r| redundant_finding(g, r)),
        ),
    }
    findings
}

/// Runs the graph passes (S001–S004) over a region.
///
/// On a cyclic region, S002 is reported and the path-based S001 is
/// skipped (no topological order exists); S003/S004 still run.
pub fn analyze_graph(g: &RegionGraph) -> Vec<Finding> {
    graph_findings(g, topo_or_cycle(g))
}

/// What a scheduler claims about a schedule of the region, for S005/S006.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleClaim {
    /// Claimed schedule length in cycles.
    pub length: u64,
    /// Claimed peak register pressure per class.
    pub prp: [u32; REG_CLASS_COUNT],
    /// Which scheduler made the claim (for messages).
    pub source: &'static str,
}

/// Names of the claim anchors, indexed like `ScheduleClaim::prp`.
pub(crate) const PRP_CLAIMS: [&str; REG_CLASS_COUNT] = ["prp_vgpr", "prp_sgpr"];

/// The exact lower bounds S005/S006 compare claims against. They depend on
/// the region only, so every claim about one region shares one pair.
#[derive(Debug, Clone, Copy)]
struct LowerBounds {
    /// Schedule-length lower bound in cycles.
    length: u64,
    /// Peak-register-pressure lower bound per class.
    prp: [u32; REG_CLASS_COUNT],
}

impl LowerBounds {
    /// Recomputes both bounds over an acyclic region (`order` from
    /// [`topo_or_cycle`]).
    fn of(g: &RegionGraph, order: &[u32]) -> LowerBounds {
        LowerBounds {
            length: length_lower_bound(g, order),
            prp: pressure_lower_bound(g, &closure(g, order), &ancestors(g, order)),
        }
    }

    /// S005/S006 for one claim: a claim *below* a lower bound is
    /// infeasible — no legal schedule achieves it, so the scheduler (or
    /// the metric plumbing) is lying.
    fn check(&self, claim: &ScheduleClaim, findings: &mut Vec<Finding>) {
        if claim.length < self.length {
            findings.push(Finding::new(
                codes::LENGTH_INFEASIBLE,
                Level::Deny,
                Anchor::Claim("schedule_length"),
                format!(
                    "{} claims schedule length {} but the length lower bound \
                     is {}: the claim is infeasible",
                    claim.source, claim.length, self.length
                ),
            ));
        }
        for ((&claimed, &bound), anchor) in claim.prp.iter().zip(&self.prp).zip(PRP_CLAIMS) {
            if claimed < bound {
                findings.push(Finding::new(
                    codes::PRP_INFEASIBLE,
                    Level::Deny,
                    Anchor::Claim(anchor),
                    format!(
                        "{} claims peak pressure {claimed} but the static cut bound forces \
                         at least {bound} simultaneously live registers of that class",
                        claim.source
                    ),
                ));
            }
        }
    }
}

/// Checks a schedule's claimed metrics against recomputed exact lower
/// bounds (S005 register pressure, S006 length). Cyclic regions return no
/// findings — S002 already denies them and no bounds exist.
pub fn check_claims(g: &RegionGraph, claim: &ScheduleClaim) -> Vec<Finding> {
    let mut findings = Vec::new();
    if let Topo::Acyclic(order) = topo_or_cycle(g) {
        LowerBounds::of(g, &order).check(claim, &mut findings);
    }
    findings
}

/// [`analyze_graph`] followed by [`check_claims`] for every claim, in
/// order, with the facts computed once: one topological order under S001,
/// S005 and S006, and one pair of lower bounds under all the claims.
pub fn analyze_with_claims(g: &RegionGraph, claims: &[ScheduleClaim]) -> Vec<Finding> {
    let topo = topo_or_cycle(g);
    let bounds = match &topo {
        Topo::Acyclic(order) if !claims.is_empty() => Some(LowerBounds::of(g, order)),
        _ => None,
    };
    let mut findings = graph_findings(g, topo);
    if let Some(bounds) = bounds {
        for claim in claims {
            bounds.check(claim, &mut findings);
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_ir::textir;

    fn graph(text: &str) -> RegionGraph<'static> {
        RegionGraph::parse_leaked(text)
    }

    fn codes_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn op_kind_mapping_requires_separator_or_exact_match() {
        assert_eq!(op_kind_of_name("v_load_12"), Some(OpKind::VMemLoad));
        assert_eq!(op_kind_of_name("v_load"), Some(OpKind::VMemLoad));
        assert_eq!(op_kind_of_name("v_loadx"), None);
        assert_eq!(op_kind_of_name("ds_op_0"), Some(OpKind::Lds));
        assert_eq!(op_kind_of_name("a"), None);
        assert_eq!(op_kind_of_name("mul"), None);
    }

    #[test]
    fn figure1_is_clean() {
        let ddg = sched_ir::figure1::ddg();
        assert!(analyze_graph(&RegionGraph::from_ddg(&ddg)).is_empty());
    }

    #[test]
    fn a_seven_cycle_figure1_claim_is_infeasible() {
        // Seven cycles matches both the instruction count and the critical
        // path, but single issue cannot reach it: the heads-and-tails bound
        // of Figure 1 is 8 (see `sched_ir::figure1`).
        let ddg = sched_ir::figure1::ddg();
        let g = RegionGraph::from_ddg(&ddg);
        let claim = |length| ScheduleClaim {
            length,
            prp: [u32::MAX; REG_CLASS_COUNT],
            source: "test",
        };
        let findings = check_claims(&g, &claim(7));
        assert_eq!(codes_of(&findings), [codes::LENGTH_INFEASIBLE]);
        assert!(findings[0].message.contains("length lower bound is 8"));
        assert!(check_claims(&g, &claim(8)).is_empty());
    }

    #[test]
    fn s001_fires_only_on_truly_redundant_edges() {
        // Direct edge eff 2 vs path eff 1+1=2: redundant (equal suffices).
        let g = graph("instr a\ninstr b\ninstr c\nedge 0 1 1\nedge 1 2 1\nedge 0 2 2");
        let f = analyze_graph(&g);
        assert_eq!(codes_of(&f), vec![codes::TRANSITIVE_REDUNDANT]);
        assert_eq!(f[0].anchor, Anchor::Edge { from: 0, to: 2 });
        assert_eq!(f[0].level, Level::Pedantic);
        assert_eq!(f[0].span, Some(textir::SrcPos { line: 6, col: 1 }));
        // Direct edge eff 3 beats the path: necessary, clean.
        let g = graph("instr a\ninstr b\ninstr c\nedge 0 1 1\nedge 1 2 1\nedge 0 2 3");
        assert!(analyze_graph(&g).is_empty());
    }

    #[test]
    fn s001_credits_zero_latency_edges_at_effective_one() {
        // The old heuristic summed raw latencies (0 + 0 = 0 < 2) and missed
        // this; single-issue semantics make the path cost 2 cycles.
        let g = graph("instr a\ninstr b\ninstr c\nedge 0 1 0\nedge 1 2 0\nedge 0 2 2");
        assert_eq!(
            codes_of(&analyze_graph(&g)),
            vec![codes::TRANSITIVE_REDUNDANT]
        );
    }

    #[test]
    fn s002_reports_a_minimal_witness_and_suppresses_s001() {
        let g = graph("instr a\ninstr b\ninstr c\nedge 0 1 1\nedge 1 2 1\nedge 2 0 1");
        let f = analyze_graph(&g);
        assert_eq!(codes_of(&f), vec![codes::CYCLE]);
        assert_eq!(f[0].level, Level::Deny);
        match &f[0].anchor {
            Anchor::Cycle(w) => assert_eq!(w.len(), 3),
            other => panic!("expected a cycle anchor, got {other:?}"),
        }
    }

    #[test]
    fn s003_flags_orphans_but_not_constrained_or_reg_carrying_nodes() {
        let g = graph("instr a defs v0\ninstr orphan\ninstr b uses v0\nedge 0 2 1");
        let f = analyze_graph(&g);
        assert_eq!(codes_of(&f), vec![codes::ORPHAN]);
        assert_eq!(f[0].anchor, Anchor::Node(1));
        // A node with only a use is not an orphan: it extends a live range.
        let g = graph("instr a defs v0\ninstr reader uses v0");
        assert!(analyze_graph(&g).is_empty());
    }

    #[test]
    fn s004_checks_model_latency_for_mnemonic_names_only() {
        let g = graph("instr v_load_0 defs v0\ninstr v_alu_1 uses v0\nedge 0 1 63");
        let f = analyze_graph(&g);
        assert_eq!(codes_of(&f), vec![codes::LATENCY_MODEL]);
        assert!(
            f[0].message.contains("model latency 64"),
            "{}",
            f[0].message
        );
        // Correct latency: clean.
        let g = graph("instr v_load_0 defs v0\ninstr v_alu_1 uses v0\nedge 0 1 64");
        assert!(analyze_graph(&g).is_empty());
        // Unknown names are out of model.
        let g = graph("instr mystery defs v0\ninstr other uses v0\nedge 0 1 63");
        assert!(analyze_graph(&g).is_empty());
    }

    #[test]
    fn claims_at_the_bounds_pass_and_below_them_deny() {
        // Chain of three latency-1 edges: length LB = 3, pressure LB = 1.
        let g = graph(
            "instr a defs v0\ninstr b defs v1 uses v0\ninstr c uses v1\nedge 0 1 1\nedge 1 2 1",
        );
        let ok = ScheduleClaim {
            length: 3,
            prp: [1, 0],
            source: "test",
        };
        assert!(check_claims(&g, &ok).is_empty());
        let lying = ScheduleClaim {
            length: 2,
            prp: [0, 0],
            source: "test",
        };
        let f = check_claims(&g, &lying);
        assert_eq!(
            codes_of(&f),
            vec![codes::LENGTH_INFEASIBLE, codes::PRP_INFEASIBLE]
        );
        assert!(f.iter().all(|f| f.level == Level::Deny));
    }
}
