//! The generic analysis framework the passes are built on.
//!
//! Everything here recomputes its answer from first principles over the raw
//! [`RegionGraph`] — topological order via Kahn's algorithm (returning a
//! minimal witness cycle instead of an order when the graph is cyclic),
//! the descendant and ancestor reachability closures as bit matrices,
//! levels (earliest starts) and tails (distances to a leaf), the exact
//! transitive reduction behind S001,
//! and the schedule-length and register-pressure lower bounds the
//! claim-checking passes compare against.
//!
//! One region costs O(n + e) plus a few word-parallel bitset sweeps: the
//! closures are row ORs, the pressure bound combines closure rows whole
//! words at a time, and the reduction only sweeps the topological window a
//! producer's direct successors span. The quadratic routines these
//! replaced survive as test oracles (`crate::oracle`).
//!
//! # Effective latency
//!
//! All path arithmetic uses the *effective* latency `eff(l) = max(l, 1)`:
//! on the paper's single-issue machine two dependent instructions occupy
//! distinct cycles even across a zero-latency edge, exactly as
//! `Ddg::distance_to_leaf` counts it. Using raw latencies here is what made
//! the old `L001` lint a heuristic: a chain of two latency-1 edges implies
//! a latency-2 separation, which raw-latency summing fails to credit.

use crate::graph::RegionGraph;
use sched_ir::bitmatrix::count_set_bits_into;
use sched_ir::{BitMatrix, RegTable, REG_CLASS_COUNT};
use std::collections::VecDeque;

/// Effective latency of an edge on a single-issue machine (see the module
/// docs).
#[inline]
pub fn eff(latency: u16) -> u64 {
    (latency as u64).max(1)
}

/// Result of [`topo_or_cycle`]: a topological order, or a minimal witness
/// cycle when none exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topo {
    /// The graph is acyclic; a topological order of all nodes.
    Acyclic(Vec<u32>),
    /// The graph is cyclic. The witness is a *minimal* cycle: no cycle
    /// through fewer nodes exists. Consecutive entries are edges, and an
    /// edge closes the last node back to the first. A self edge yields a
    /// one-node witness.
    Cyclic(Vec<u32>),
}

/// Kahn's algorithm, keeping enough state to extract a minimal witness
/// cycle from the cyclic core (the nodes never drained) on failure.
pub fn topo_or_cycle(g: &RegionGraph) -> Topo {
    let n = g.len();
    let mut indeg: Vec<usize> = (0..n as u32).map(|i| g.in_degree(i)).collect();
    let mut order = Vec::with_capacity(n);
    let mut queue: VecDeque<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for e in g.succ_edges(v) {
            let d = &mut indeg[e.to as usize];
            *d -= 1;
            if *d == 0 {
                queue.push_back(e.to);
            }
        }
    }
    if order.len() == n {
        return Topo::Acyclic(order);
    }
    // The cyclic core: nodes with edges still pending. Every core node lies
    // on or downstream-within a cycle; BFS from each core node restricted
    // to the core finds the shortest path back to itself, and the global
    // minimum over start nodes is a minimal cycle.
    let in_core: Vec<bool> = indeg.iter().map(|&d| d > 0).collect();
    let mut best: Option<Vec<u32>> = None;
    for start in (0..n as u32).filter(|&i| in_core[i as usize]) {
        // Self edge: minimal possible witness, stop immediately.
        if g.succ_edges(start).any(|e| e.to == start) {
            return Topo::Cyclic(vec![start]);
        }
        let mut parent: Vec<Option<u32>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[start as usize] = true;
        let mut q = VecDeque::from([start]);
        'bfs: while let Some(v) = q.pop_front() {
            for e in g.succ_edges(v) {
                if !in_core[e.to as usize] {
                    continue;
                }
                if e.to == start {
                    // Reconstruct start -> ... -> v, then the closing edge.
                    let mut path = vec![v];
                    let mut cur = v;
                    while let Some(p) = parent[cur as usize] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    if best.as_ref().is_none_or(|b| path.len() < b.len()) {
                        best = Some(path);
                    }
                    break 'bfs;
                }
                if !seen[e.to as usize] {
                    seen[e.to as usize] = true;
                    parent[e.to as usize] = Some(v);
                    q.push_back(e.to);
                }
            }
        }
        if best.as_ref().is_some_and(|b| b.len() == 2) {
            break; // no shorter cycle exists in a self-edge-free graph
        }
    }
    Topo::Cyclic(best.expect("cyclic core must contain a cycle"))
}

/// Reachability closure over an acyclic [`RegionGraph`]: bit `(a, b)` means
/// a directed path `a -> ... -> b` exists, so row `a` is the set of `a`'s
/// strict descendants. Same reverse-topological row-OR construction as
/// [`sched_ir::Ddg::transitive_closure`].
pub fn closure(g: &RegionGraph, order: &[u32]) -> BitMatrix {
    let mut reach = BitMatrix::new(g.len());
    for &v in order.iter().rev() {
        for e in g.succ_edges(v) {
            reach.set(v as usize, e.to as usize);
            reach.or_row_into(e.to as usize, v as usize);
        }
    }
    reach
}

/// The transpose of [`closure`], built the same way in forward order: row
/// `b` is the set of `b`'s strict ancestors.
pub fn ancestors(g: &RegionGraph, order: &[u32]) -> BitMatrix {
    let mut anc = BitMatrix::new(g.len());
    for &v in order {
        for e in g.pred_edges(v) {
            anc.set(v as usize, e.from as usize);
            anc.or_row_into(e.from as usize, v as usize);
        }
    }
    anc
}

/// Level of every node: the earliest cycle it can issue at, i.e. the
/// longest effective-latency path from any root.
pub fn levels(g: &RegionGraph, order: &[u32]) -> Vec<u64> {
    let mut level = vec![0u64; g.len()];
    for &v in order {
        for e in g.succ_edges(v) {
            let cand = level[v as usize] + eff(e.latency);
            if cand > level[e.to as usize] {
                level[e.to as usize] = cand;
            }
        }
    }
    level
}

/// Tail of every node: the longest effective-latency path to any leaf,
/// counting the node's own issue cycle (a leaf's tail is 1).
pub fn tails(g: &RegionGraph, order: &[u32]) -> Vec<u64> {
    let mut tail = vec![1u64; g.len()];
    for &v in order.iter().rev() {
        for e in g.succ_edges(v) {
            let cand = tail[e.to as usize] + eff(e.latency);
            if cand > tail[v as usize] {
                tail[v as usize] = cand;
            }
        }
    }
    tail
}

/// One transitively redundant edge, with the implied-path evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedundantEdge {
    /// Producer node index.
    pub from: u32,
    /// Consumer node index.
    pub to: u32,
    /// The edge's own latency.
    pub latency: u16,
    /// Effective latency of the longest implying path (>= 2 edges).
    pub implied: u64,
}

/// Exact transitive reduction: every edge `src -> b` implied by a path of
/// **two or more edges** of at least the same effective latency
/// (`multi[b] >= eff(latency)`), producers in index order and each
/// producer's edges in input order. Requires an acyclic graph (`order`
/// from [`topo_or_cycle`]).
///
/// Per producer this is a longest-path sweep, but only over a window of
/// the topological order: every interior node of a path `src -> .. -> b`
/// sits strictly between `src` and `b`, so nothing past the last direct
/// successor can contribute, and edges leaving the window are skipped.
/// The two distance vectors (0 = no path; effective latencies are >= 1)
/// are shared by all producers and reset through a touched list.
pub fn redundant_edges(g: &RegionGraph, order: &[u32]) -> Vec<RedundantEdge> {
    let n = g.len();
    let mut pos = vec![0u32; n];
    for (p, &v) in order.iter().enumerate() {
        pos[v as usize] = p as u32;
    }
    let mut any = vec![0u64; n]; // longest path of >= 1 edge from src
    let mut multi = vec![0u64; n]; // longest path of >= 2 edges from src
    let mut touched: Vec<u32> = Vec::new();
    let mut out = Vec::new();
    for src in 0..n as u32 {
        // A multi-edge path src -> .. -> b needs a second out-edge.
        if g.out_degree(src) < 2 {
            continue;
        }
        let mut last = 0;
        for e in g.succ_edges(src) {
            let d = &mut any[e.to as usize];
            if *d == 0 {
                touched.push(e.to);
            }
            *d = (*d).max(eff(e.latency));
            last = last.max(pos[e.to as usize]);
        }
        for &u in &order[pos[src as usize] as usize + 1..last as usize] {
            let du = any[u as usize];
            if du == 0 {
                continue;
            }
            // Any path through a non-source reachable node has >= 2 edges.
            for e in g.succ_edges(u) {
                if pos[e.to as usize] > last {
                    continue;
                }
                let cand = du + eff(e.latency);
                let t = e.to as usize;
                if any[t] == 0 {
                    touched.push(e.to);
                }
                any[t] = any[t].max(cand);
                multi[t] = multi[t].max(cand);
            }
        }
        for e in g.succ_edges(src) {
            let m = multi[e.to as usize];
            if m != 0 && m >= eff(e.latency) {
                out.push(RedundantEdge {
                    from: e.from,
                    to: e.to,
                    latency: e.latency,
                    implied: m,
                });
            }
        }
        for t in touched.drain(..) {
            any[t as usize] = 0;
            multi[t as usize] = 0;
        }
    }
    out
}

/// Lower bound on the length (in cycles) of any single-issue schedule of
/// the region: the one-machine heads-and-tails bound
/// ([`sched_ir::bounds::heads_tails_length_lb`]) over this module's own
/// [`levels`] and [`tails`], which is never below the node count or the
/// longest effective-latency path + 1.
pub fn length_lower_bound(g: &RegionGraph, order: &[u32]) -> u64 {
    sched_ir::bounds::heads_tails_length_lb(&levels(g, order), &tails(g, order))
}

/// Where one register is defined and used, for [`pressure_lower_bound`].
#[derive(Debug, Clone, Copy, Default)]
struct RegSites {
    /// Def mentions (an operand listed twice in one def list counts twice).
    defs: u32,
    /// The defining node, meaningful when `defs == 1`.
    def: u32,
    /// One past the index of the register's latest use mention (0 = never
    /// used); each mention links to the one before it.
    last_use: u32,
}

/// Exact static per-class lower bound on the peak register pressure of any
/// schedule of the region (the "cut" bound, after Chen et al.'s min-reg
/// formulation): for every node `x`, count the registers *forced* to be
/// live in the cycle `x` issues, in every legal schedule.
///
/// A register is forced live at `x` when, writing `A(x)`/`D(x)` for strict
/// ancestors/descendants in the dependence relation:
///
/// * its single def is `x` itself or in `A(x)` — so it is defined no later
///   than `x`'s cycle — **and** it is live-out (never used: stays live to
///   the region's end) or has a use in `D(x)` (the use issues strictly
///   after `x`, and with the tracker's kills-before-opens rule the
///   register survives through `x`'s cycle);
/// * or it is live-in (no def) with a use in `D(x)`.
///
/// Read per register instead of per node, that is a set identity: the
/// nodes a register with def `d` and uses `U` is forced live at are
/// `({d} ∪ D(d)) ∩ ⋃ A(u)` over `u ∈ U` (the second factor is every node
/// when `U` is empty, the first when there is no def) — `n / 64` words per
/// register out of the two closures (`desc` from [`closure`], `anc` from
/// [`ancestors`]), and the cut at `x` is the number of sets containing
/// `x`.
///
/// The final bound also covers the region's last cycle, where every
/// live-out register is live simultaneously whatever the order.
/// Registers with multiple defs are skipped entirely — their lifetime
/// under the tracker is order-dependent, and skipping only weakens the
/// bound (keeps it sound).
pub fn pressure_lower_bound(
    g: &RegionGraph,
    desc: &BitMatrix,
    anc: &BitMatrix,
) -> [u32; REG_CLASS_COUNT] {
    let n = g.len();
    // Group mentions by register: one dense slot per register, use
    // mentions chained newest-first as `(node, previous mention + 1)`.
    let mut sites: RegTable<RegSites> = RegTable::new();
    let mut use_mentions: Vec<(u32, u32)> = Vec::new();
    for i in 0..n as u32 {
        for &r in g.defs(i) {
            let s = sites.slot(r);
            s.defs += 1;
            s.def = i;
        }
        for &r in g.uses(i) {
            let s = sites.slot(r);
            use_mentions.push((i, s.last_use));
            s.last_use = use_mentions.len() as u32;
        }
    }

    let mut bound = [0u32; REG_CLASS_COUNT];
    let mut cut = vec![0u32; n];
    let mut forced = vec![0u64; n.div_ceil(64)];
    for (c, bound) in bound.iter_mut().enumerate() {
        // Live-out cut: defined-never-used registers all overlap at the end.
        let mut live_out = 0u32;
        cut.fill(0);
        for s in sites.class(c) {
            let d = s.def as usize;
            match (s.defs, s.last_use) {
                (1, 0) => {
                    live_out += 1;
                    forced.copy_from_slice(desc.row(d));
                    forced[d / 64] |= 1 << (d % 64);
                }
                (0 | 1, mut mention @ 1..) => {
                    forced.fill(0);
                    while mention != 0 {
                        let (u, previous) = use_mentions[mention as usize - 1];
                        for (f, a) in forced.iter_mut().zip(anc.row(u as usize)) {
                            *f |= a;
                        }
                        mention = previous;
                    }
                    if s.defs == 1 {
                        let own = forced[d / 64] & (1 << (d % 64));
                        for (f, r) in forced.iter_mut().zip(desc.row(d)) {
                            *f &= r;
                        }
                        forced[d / 64] |= own;
                    }
                }
                // An id nobody mentions, or multiple defs (skipped for
                // soundness).
                _ => continue,
            }
            count_set_bits_into(&forced, &mut cut);
        }
        *bound = cut.iter().copied().max().unwrap_or(0).max(live_out);
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(text: &str) -> RegionGraph<'static> {
        RegionGraph::parse_leaked(text)
    }

    fn order(g: &RegionGraph) -> Vec<u32> {
        match topo_or_cycle(g) {
            Topo::Acyclic(o) => o,
            Topo::Cyclic(w) => panic!("unexpected cycle {w:?}"),
        }
    }

    fn prp_lb(g: &RegionGraph) -> [u32; REG_CLASS_COUNT] {
        let o = order(g);
        pressure_lower_bound(g, &closure(g, &o), &ancestors(g, &o))
    }

    #[test]
    fn topo_orders_a_diamond() {
        let g = graph(
            "instr a\ninstr b\ninstr c\ninstr d\nedge 0 1 1\nedge 0 2 1\nedge 1 3 1\nedge 2 3 1",
        );
        let o = order(&g);
        assert_eq!(o.len(), 4);
        assert_eq!(o[0], 0);
        assert_eq!(o[3], 3);
    }

    #[test]
    fn minimal_witness_cycle_is_found() {
        // A 3-cycle 0 -> 1 -> 2 -> 0 plus a 2-cycle 3 <-> 4 downstream.
        let g = graph(
            "instr a\ninstr b\ninstr c\ninstr d\ninstr e\n\
             edge 0 1 1\nedge 1 2 1\nedge 2 0 1\nedge 3 4 1\nedge 4 3 1",
        );
        match topo_or_cycle(&g) {
            Topo::Cyclic(w) => assert_eq!(w.len(), 2, "minimal cycle is the 2-cycle, got {w:?}"),
            Topo::Acyclic(_) => panic!("graph is cyclic"),
        }
    }

    #[test]
    fn self_edge_is_a_one_node_witness() {
        let g = graph("instr a\nedge 0 0 1");
        assert_eq!(topo_or_cycle(&g), Topo::Cyclic(vec![0]));
    }

    #[test]
    fn closure_and_levels_match_hand_computation() {
        // 0 --2--> 1 --3--> 3, 0 --1--> 2 --1--> 3 (cf. bounds.rs tests).
        let g = graph(
            "instr a\ninstr b\ninstr c\ninstr d\nedge 0 1 2\nedge 1 3 3\nedge 0 2 1\nedge 2 3 1",
        );
        let o = order(&g);
        let reach = closure(&g, &o);
        assert!(reach.get(0, 3));
        assert!(!reach.get(1, 2));
        assert!(!reach.get(3, 0));
        let lv = levels(&g, &o);
        assert_eq!(lv, vec![0, 2, 1, 5]);
        assert_eq!(length_lower_bound(&g, &o), 6);
    }

    #[test]
    fn zero_latency_edges_still_cost_a_cycle() {
        let g = graph("instr a\ninstr b\nedge 0 1 0");
        let o = order(&g);
        assert_eq!(levels(&g, &o), vec![0, 1]);
        assert_eq!(length_lower_bound(&g, &o), 2);
    }

    #[test]
    fn ancestors_is_the_transpose_of_the_closure() {
        let g = graph(
            "instr a\ninstr b\ninstr c\ninstr d\ninstr e\n\
             edge 0 1 2\nedge 1 3 3\nedge 0 2 1\nedge 2 3 1\nedge 0 3 1",
        );
        let o = order(&g);
        let (desc, anc) = (closure(&g, &o), ancestors(&g, &o));
        for a in 0..g.len() {
            for b in 0..g.len() {
                assert_eq!(desc.get(a, b), anc.get(b, a), "({a}, {b})");
            }
        }
        assert_eq!(anc.count_row(3), 3);
        assert_eq!(anc.count_row(4), 0);
    }

    #[test]
    fn reduction_excludes_the_direct_edge_from_its_own_evidence() {
        // 0 -> 1 (lat 5), and 0 -> 2 -> 1 with eff 1 + 1 = 2: the direct
        // edge is the longest path overall, the only multi-edge path sums
        // to 2, so the edge is necessary.
        let g = graph("instr a\ninstr b\ninstr c\nedge 0 1 5\nedge 0 2 1\nedge 2 1 1");
        assert_eq!(redundant_edges(&g, &order(&g)), vec![]);
        // At latency 2 the two-hop path implies it.
        let g = graph("instr a\ninstr b\ninstr c\nedge 0 1 2\nedge 0 2 1\nedge 2 1 1");
        assert_eq!(
            redundant_edges(&g, &order(&g)),
            vec![RedundantEdge {
                from: 0,
                to: 1,
                latency: 2,
                implied: 2
            }]
        );
    }

    #[test]
    fn pressure_bound_counts_forced_overlap() {
        // load defines v0 and v1 used by two dependent consumers; while the
        // chain c1 -> c2 runs, v1 (used by c2) must stay live.
        let g = graph(
            "instr load defs v0,v1\n\
             instr c1 defs v2 uses v0\n\
             instr c2 uses v1,v2\n\
             edge 0 1 1\nedge 0 2 1\nedge 1 2 1",
        );
        let lb = prp_lb(&g);
        // At c1's cycle: v0 dead after c1? No — kills-before-opens means v0
        // dies *at* c1, so forced-live there: v1 (use at descendant c2),
        // v2 (def at c1, used at c2). At load's cycle: v0, v1. => 2.
        assert_eq!(lb[0], 2);
    }

    #[test]
    fn pressure_bound_covers_live_out_overlap() {
        let g = graph("instr a defs v0\ninstr b defs v1\ninstr c defs v2");
        // Three live-out regs with no deps at all still overlap at the end.
        assert_eq!(prp_lb(&g)[0], 3);
    }

    #[test]
    fn pressure_bound_is_sound_on_a_chain() {
        // v0 dies feeding b; only one reg live at a time plus the new def.
        let g = graph(
            "instr a defs v0\ninstr b defs v1 uses v0\ninstr c uses v1\nedge 0 1 1\nedge 1 2 1",
        );
        let lb = prp_lb(&g);
        assert_eq!(lb[0], 1, "kills-before-opens: v0 is dead at b's cycle");
    }
}
