//! The raw graph view all passes analyze.
//!
//! [`RegionGraph`] is deliberately *not* a [`Ddg`]: a `Ddg` is validated at
//! construction (acyclic, deduplicated edges), which makes it impossible to
//! even represent the defects S002 exists to catch. The analyzer therefore
//! works on a plain edge list with optional source spans, built either from
//! a validated `Ddg` ([`RegionGraph::from_ddg`]) or from a pre-validation
//! [`RawRegion`] straight out of the text-IR parser
//! ([`RegionGraph::from_raw`]), where cycles and self edges are
//! representable.
//!
//! The view *borrows* its nodes — names, def lists and use lists stay in
//! the `Ddg` or `RawRegion` it was built from — and holds adjacency in CSR
//! form: one edge array in input order plus, per direction, `n + 1`
//! offsets into a flat array of edge indices. Building a view is a handful
//! of allocations whatever the region size, none of them per node.

use sched_ir::textir::{RawRegion, SrcPos};
use sched_ir::{csr_rows, Ddg, InstrTable, Reg};

/// One dependence edge of a [`RegionGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionEdge {
    /// Producer node index.
    pub from: u32,
    /// Consumer node index.
    pub to: u32,
    /// Latency in cycles.
    pub latency: u16,
    /// Source position of the `edge` line, when parsed from text IR.
    pub span: Option<SrcPos>,
}

/// A scheduling region as a plain node/edge list (see the module docs).
#[derive(Debug, Clone)]
pub struct RegionGraph<'a> {
    nodes: &'a InstrTable,
    /// Source position of every node's `instr` line, when parsed from text.
    spans: Option<&'a [SrcPos]>,
    /// All edges, in input order.
    edges: Vec<RegionEdge>,
    /// `succ_idx[succ_off[i]..succ_off[i + 1]]`: node `i`'s outgoing edge
    /// indices, in input order.
    succ_off: Vec<u32>,
    succ_idx: Vec<u32>,
    /// Likewise for incoming edges.
    pred_off: Vec<u32>,
    pred_idx: Vec<u32>,
}

impl<'a> RegionGraph<'a> {
    /// Groups edge indices per node and direction, each group in input order.
    fn new(nodes: &'a InstrTable, spans: Option<&'a [SrcPos]>, edges: Vec<RegionEdge>) -> Self {
        let (succ_off, succ_idx) = csr_rows(nodes.len(), &edges, |e| e.from);
        let (pred_off, pred_idx) = csr_rows(nodes.len(), &edges, |e| e.to);
        RegionGraph {
            nodes,
            spans,
            edges,
            succ_off,
            succ_idx,
            pred_off,
            pred_idx,
        }
    }

    /// The view of a validated [`Ddg`] (no spans; edges in stored order).
    pub fn from_ddg(ddg: &'a Ddg) -> RegionGraph<'a> {
        let mut edges = Vec::with_capacity(ddg.edge_count());
        for id in ddg.ids() {
            edges.extend(ddg.succs(id).iter().map(|&(succ, latency)| RegionEdge {
                from: id.0,
                to: succ.0,
                latency,
                span: None,
            }));
        }
        RegionGraph::new(ddg.instrs(), None, edges)
    }

    /// The view of a pre-validation [`RawRegion`], spans included. Cycles,
    /// self edges, and duplicate edges survive into the view.
    pub fn from_raw(raw: &'a RawRegion) -> RegionGraph<'a> {
        let edges = raw
            .edges
            .iter()
            .map(|e| RegionEdge {
                from: e.from,
                to: e.to,
                latency: e.latency,
                span: Some(e.pos),
            })
            .collect();
        RegionGraph::new(&raw.instrs, Some(&raw.instr_pos), edges)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.succ_off.len() - 1
    }

    /// Whether the region has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of edges (duplicates counted).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Name of node `i`.
    pub fn name(&self, i: u32) -> &'a str {
        self.nodes.get(i as usize).name()
    }

    /// Registers defined by node `i`.
    pub fn defs(&self, i: u32) -> &'a [Reg] {
        self.nodes.get(i as usize).defs()
    }

    /// Registers used by node `i`.
    pub fn uses(&self, i: u32) -> &'a [Reg] {
        self.nodes.get(i as usize).uses()
    }

    /// Source position of node `i`'s `instr` line, when known.
    pub fn node_span(&self, i: u32) -> Option<SrcPos> {
        self.spans.map(|spans| spans[i as usize])
    }

    /// All edges, in input order.
    pub fn edges(&self) -> &[RegionEdge] {
        &self.edges
    }

    fn incident<'s>(
        &'s self,
        off: &'s [u32],
        idx: &'s [u32],
        i: u32,
    ) -> impl Iterator<Item = &'s RegionEdge> + 's {
        idx[off[i as usize] as usize..off[i as usize + 1] as usize]
            .iter()
            .map(|&e| &self.edges[e as usize])
    }

    /// Outgoing edges of node `i`, in input order.
    pub fn succ_edges(&self, i: u32) -> impl Iterator<Item = &RegionEdge> + '_ {
        self.incident(&self.succ_off, &self.succ_idx, i)
    }

    /// Incoming edges of node `i`, in input order.
    pub fn pred_edges(&self, i: u32) -> impl Iterator<Item = &RegionEdge> + '_ {
        self.incident(&self.pred_off, &self.pred_idx, i)
    }

    /// Out-degree of node `i`.
    pub fn out_degree(&self, i: u32) -> usize {
        (self.succ_off[i as usize + 1] - self.succ_off[i as usize]) as usize
    }

    /// In-degree of node `i`.
    pub fn in_degree(&self, i: u32) -> usize {
        (self.pred_off[i as usize + 1] - self.pred_off[i as usize]) as usize
    }
}

#[cfg(test)]
impl RegionGraph<'static> {
    /// The raw view of a text-IR region, for tests: the view borrows its
    /// region, so the region is leaked.
    pub(crate) fn parse_leaked(text: &str) -> RegionGraph<'static> {
        let raw = sched_ir::textir::parse_raw(text).expect("test region parses");
        RegionGraph::from_raw(Box::leak(Box::new(raw)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_ir::textir;
    use sched_ir::DdgBuilder;

    #[test]
    fn ddg_view_preserves_structure() {
        let mut b = DdgBuilder::new();
        let a = b.instr("a", [Reg::vgpr(0)], []);
        let c = b.instr("c", [], [Reg::vgpr(0)]);
        b.edge(a, c, 4).unwrap();
        let ddg = b.build().unwrap();
        let g = RegionGraph::from_ddg(&ddg);
        assert_eq!(g.len(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.name(0), "a");
        assert_eq!(g.defs(0), &[Reg::vgpr(0)]);
        assert_eq!(g.uses(1), &[Reg::vgpr(0)]);
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.in_degree(1), 1);
        let e = g.succ_edges(0).next().unwrap();
        assert_eq!((e.from, e.to, e.latency, e.span), (0, 1, 4, None));
    }

    #[test]
    fn raw_view_keeps_cycles_and_spans() {
        let raw = textir::parse_raw("instr a\ninstr b\nedge 0 1 1\nedge 1 0 1").unwrap();
        let g = RegionGraph::from_raw(&raw);
        assert_eq!(g.len(), 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edges()[1].span, Some(SrcPos { line: 4, col: 1 }));
        assert_eq!(g.node_span(0), Some(SrcPos { line: 1, col: 1 }));
    }

    #[test]
    fn adjacency_groups_keep_input_order_with_duplicates() {
        // Edges interleaved across producers, one duplicated, one self edge.
        let raw = textir::parse_raw(
            "instr a\ninstr b\ninstr c\n\
             edge 1 2 7\nedge 0 2 3\nedge 0 1 1\nedge 0 2 3\nedge 2 2 9",
        )
        .unwrap();
        let g = RegionGraph::from_raw(&raw);
        let lat = |it: &mut dyn Iterator<Item = &RegionEdge>| -> Vec<(u32, u32, u16)> {
            it.map(|e| (e.from, e.to, e.latency)).collect()
        };
        assert_eq!(lat(&mut g.succ_edges(0)), [(0, 2, 3), (0, 1, 1), (0, 2, 3)]);
        assert_eq!(lat(&mut g.succ_edges(1)), [(1, 2, 7)]);
        assert_eq!(
            lat(&mut g.pred_edges(2)),
            [(1, 2, 7), (0, 2, 3), (0, 2, 3), (2, 2, 9)]
        );
        assert_eq!(lat(&mut g.pred_edges(0)), []);
        assert_eq!((g.out_degree(2), g.in_degree(2), g.in_degree(1)), (1, 4, 1));
        // The second `edge 0 2 3` keeps its own span.
        let spans: Vec<u32> = g.succ_edges(0).map(|e| e.span.unwrap().line).collect();
        assert_eq!(spans, [5, 6, 7]);
    }

    #[test]
    fn empty_region_has_an_empty_view() {
        let raw = textir::parse_raw("").unwrap();
        let g = RegionGraph::from_raw(&raw);
        assert!(g.is_empty());
        assert_eq!((g.len(), g.edge_count()), (0, 0));
    }
}
