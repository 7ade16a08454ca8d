//! Mutation property tests: every S-code pass fires on its injected
//! defect class and stays silent on clean generated regions.
//!
//! "Silent" means: no warn/deny findings on any clean region, real
//! scheduler claims never flagged (S005/S006 soundness), and every
//! pedantic S001 finding independently re-verified against a brute-force
//! longest-multi-edge-path oracle (zero false positives) with none missed
//! (100% detection — exactness, not just soundness).

use list_sched::{Heuristic, ListScheduler};
use machine_model::OccupancyModel;
use sched_analyze::framework::eff;
use sched_analyze::{
    analyze_graph, check_claims, codes, Anchor, Level, RegionGraph, ScheduleClaim,
};
use sched_ir::{textir, Ddg, InstrId};
use workloads::{mutate, patterns};

const SEEDS: [u64; 4] = [3, 11, 42, 1009];

/// Every generator shape the suite builder draws from, at test-sized
/// dimensions.
fn clean_regions(seed: u64) -> Vec<(&'static str, Ddg)> {
    vec![
        ("reduction", patterns::reduction(16, seed)),
        ("scan", patterns::scan(16, seed)),
        ("transform_chain", patterns::transform_chain(4, 6, seed)),
        ("gather_chain", patterns::gather_chain(4, 4, seed)),
        (
            "vector_transform",
            patterns::vector_transform(2, 4, 4, seed),
        ),
        ("stencil", patterns::stencil(8, 2, seed)),
        ("sort_network", patterns::sort_network(8, seed)),
        ("random_layered", patterns::random_layered(4, 6, seed)),
        ("sized", patterns::sized(80, seed)),
    ]
}

/// Independent oracle: longest effective-latency path `from -> ... -> to`
/// using two or more edges, via memoized DFS (a different algorithm shape
/// than the analyzer's forward topological DP).
fn oracle_multi_edge_longest(ddg: &Ddg, from: InstrId, to: InstrId) -> Option<u64> {
    fn longest_any(
        ddg: &Ddg,
        memo: &mut [Option<Option<u64>>],
        from: usize,
        to: usize,
    ) -> Option<u64> {
        if let Some(cached) = memo[from] {
            return cached;
        }
        let mut best: Option<u64> = None;
        for &(m, lat) in ddg.succs(InstrId(from as u32)) {
            let tail = if m.index() == to {
                Some(0)
            } else {
                longest_any(ddg, memo, m.index(), to)
            };
            if let Some(t) = tail {
                let cand = t + eff(lat);
                if best.is_none_or(|b| cand > b) {
                    best = Some(cand);
                }
            }
        }
        memo[from] = Some(best);
        best
    }
    let mut best: Option<u64> = None;
    for &(m, lat) in ddg.succs(from) {
        if m == to {
            continue; // the direct edge itself is a one-edge path
        }
        let mut memo = vec![None; ddg.len()];
        if let Some(t) = longest_any(ddg, &mut memo, m.index(), to.index()) {
            if t > 0 || m == to {
                let cand = t + eff(lat);
                if best.is_none_or(|b| cand > b) {
                    best = Some(cand);
                }
            }
        }
    }
    best
}

fn real_claim(ddg: &Ddg, heuristic: Heuristic) -> ScheduleClaim {
    let occ = OccupancyModel::vega_like();
    let result = ListScheduler::new(heuristic).schedule(ddg, &occ);
    ScheduleClaim {
        length: result.length as u64,
        prp: result.prp,
        source: "list-sched",
    }
}

#[test]
fn clean_regions_have_no_warn_or_deny_findings() {
    for seed in SEEDS {
        for (name, ddg) in clean_regions(seed) {
            let g = RegionGraph::from_ddg(&ddg);
            let noisy: Vec<_> = analyze_graph(&g)
                .into_iter()
                .filter(|f| f.level >= Level::Warn)
                .collect();
            assert!(
                noisy.is_empty(),
                "{name} seed {seed}: clean region produced {noisy:?}"
            );
        }
    }
}

#[test]
fn s001_findings_are_exactly_the_brute_force_redundant_edges() {
    for seed in SEEDS {
        for (name, ddg) in clean_regions(seed) {
            let g = RegionGraph::from_ddg(&ddg);
            let mut reported: Vec<(u32, u32)> = analyze_graph(&g)
                .into_iter()
                .filter(|f| f.code == codes::TRANSITIVE_REDUNDANT)
                .map(|f| match f.anchor {
                    Anchor::Edge { from, to } => (from, to),
                    other => panic!("S001 must anchor an edge, got {other:?}"),
                })
                .collect();
            reported.sort_unstable();
            let mut truth = Vec::new();
            for a in ddg.ids() {
                for &(b, lat) in ddg.succs(a) {
                    if oracle_multi_edge_longest(&ddg, a, b)
                        .is_some_and(|implied| implied >= eff(lat))
                    {
                        truth.push((a.0, b.0));
                    }
                }
            }
            truth.sort_unstable();
            assert_eq!(
                reported, truth,
                "{name} seed {seed}: S001 must match the oracle exactly"
            );
        }
    }
}

#[test]
fn real_scheduler_claims_are_never_flagged() {
    for seed in SEEDS {
        for (name, ddg) in clean_regions(seed) {
            let g = RegionGraph::from_ddg(&ddg);
            for h in [Heuristic::CriticalPath, Heuristic::AmdMaxOccupancy] {
                let claim = real_claim(&ddg, h);
                let findings = check_claims(&g, &claim);
                assert!(
                    findings.is_empty(),
                    "{name} seed {seed} {h:?}: sound bounds must accept a real \
                     schedule's claim {claim:?}, got {findings:?}"
                );
            }
        }
    }
}

#[test]
fn injected_redundant_edges_are_always_detected() {
    let mut injections = 0;
    for seed in SEEDS {
        for (name, ddg) in clean_regions(seed) {
            let Some((mutated, (a, b))) = mutate::with_redundant_edge(&ddg, seed) else {
                continue;
            };
            injections += 1;
            let findings = analyze_graph(&RegionGraph::from_ddg(&mutated));
            assert!(
                findings
                    .iter()
                    .any(|f| f.code == codes::TRANSITIVE_REDUNDANT
                        && f.anchor == Anchor::Edge { from: a.0, to: b.0 }),
                "{name} seed {seed}: planted redundant edge {a} -> {b} missed"
            );
        }
    }
    assert!(injections > 20, "injector must find sites ({injections})");
}

#[test]
fn injected_orphans_are_always_detected() {
    for seed in SEEDS {
        for (name, ddg) in clean_regions(seed) {
            let (mutated, orphan) = mutate::with_orphan_node(&ddg);
            let findings = analyze_graph(&RegionGraph::from_ddg(&mutated));
            let hits: Vec<_> = findings
                .iter()
                .filter(|f| f.code == codes::ORPHAN)
                .collect();
            assert_eq!(hits.len(), 1, "{name} seed {seed}: exactly one orphan");
            assert_eq!(hits[0].anchor, Anchor::Node(orphan.0));
            assert_eq!(hits[0].level, Level::Warn);
        }
    }
}

#[test]
fn injected_latency_corruption_is_always_detected() {
    let mut injections = 0;
    for seed in SEEDS {
        for (name, ddg) in clean_regions(seed) {
            let Some((mutated, (a, b))) = mutate::with_corrupt_latency(&ddg, seed) else {
                continue;
            };
            injections += 1;
            let findings = analyze_graph(&RegionGraph::from_ddg(&mutated));
            assert!(
                findings.iter().any(|f| f.code == codes::LATENCY_MODEL
                    && f.level == Level::Deny
                    && f.anchor == Anchor::Edge { from: a.0, to: b.0 }),
                "{name} seed {seed}: corrupted edge {a} -> {b} missed"
            );
        }
    }
    assert!(injections > 20, "injector must find sites ({injections})");
}

#[test]
fn injected_cycles_are_always_detected_with_a_minimal_witness() {
    for seed in SEEDS {
        for (name, ddg) in clean_regions(seed) {
            let Some((text, (a, b))) = mutate::with_cycle_text(&ddg, seed) else {
                continue;
            };
            let raw = textir::parse_raw(&text).expect("cyclic text still parses raw");
            let findings = analyze_graph(&RegionGraph::from_raw(&raw));
            let cycle = findings
                .iter()
                .find(|f| f.code == codes::CYCLE)
                .unwrap_or_else(|| panic!("{name} seed {seed}: cycle missed"));
            assert_eq!(cycle.level, Level::Deny);
            match &cycle.anchor {
                Anchor::Cycle(witness) => {
                    // The planted reverse edge creates exactly one cycle
                    // family; the minimal witness is the 2-cycle a <-> b.
                    let mut w = witness.clone();
                    w.sort_unstable();
                    let mut expect = vec![a.0, b.0];
                    expect.sort_unstable();
                    assert_eq!(w, expect, "{name} seed {seed}");
                }
                other => panic!("S002 must anchor a cycle, got {other:?}"),
            }
        }
    }
}

#[test]
fn understated_claims_are_always_detected() {
    for seed in SEEDS {
        for (name, ddg) in clean_regions(seed) {
            let g = RegionGraph::from_ddg(&ddg);
            let honest = real_claim(&ddg, Heuristic::AmdMaxOccupancy);
            // Understate the length below the length bound.
            let lying_length = ScheduleClaim {
                length: (ddg.len() as u64).min(honest.length) - 1,
                ..honest
            };
            let findings = check_claims(&g, &lying_length);
            assert!(
                findings.iter().any(|f| f.code == codes::LENGTH_INFEASIBLE),
                "{name} seed {seed}: understated length accepted"
            );
            // Understate the VGPR pressure below whatever the bound forces.
            let mut lying_prp = honest;
            lying_prp.prp = [0, 0];
            let findings = check_claims(&g, &lying_prp);
            assert!(
                findings.iter().any(|f| f.code == codes::PRP_INFEASIBLE),
                "{name} seed {seed}: understated PRP accepted \
                 (real prp {:?})",
                honest.prp
            );
        }
    }
}
