//! The data dependence graph of a scheduling region.

use crate::bitmatrix::BitMatrix;
use crate::instr::{Instr, InstrId, InstrTable};

/// A data dependence graph (DDG): the input to every scheduler.
///
/// Nodes are [`Instr`]s, edges carry latencies. A `Ddg` is immutable
/// and validated at construction time (see [`crate::DdgBuilder`]): it is
/// guaranteed acyclic, and `topo_order` is a cached topological order.
///
/// Mirrors the problem definition of Section II-A of the paper: "In a DDG, a
/// node represents an instruction, an edge represents a dependency and an
/// edge label represents a latency."
///
/// A region of any size is six exact-fit heap blocks: the
/// [`InstrTable`]'s three, then one each for the offsets, the orders and
/// the edges. `offsets` holds `n + 1` successor offsets into `edges`, then
/// the `n` predecessor counts; `order` holds the topological order, then
/// the roots; `edges` holds every successor row, as `(instruction,
/// latency)` pairs. Each dependence is stored once: a scheduler that needs
/// an instruction's operand-arrival cycle folds `issue + latency` into it
/// as each producer issues, on the successor walk it already makes. So
/// `succs(id)` is an offset-pair slice and every accessor is a slice of one
/// block. Per-row *stored order* is fixed by [`crate::DdgBuilder::build`]:
/// `content_eq`, the content fingerprint, and ACO tie-breaking all depend
/// on it.
#[derive(Debug, Clone)]
pub struct Ddg {
    pub(crate) instrs: InstrTable,
    pub(crate) offsets: Box<[u32]>,
    pub(crate) order: Box<[InstrId]>,
    pub(crate) edges: Box<[(InstrId, u16)]>,
}

impl Ddg {
    /// Number of instructions in the region.
    #[inline]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn instr(&self, id: InstrId) -> Instr<'_> {
        self.instrs.get(id.index())
    }

    /// All instructions, indexed by [`InstrId`].
    pub fn instrs(&self) -> &InstrTable {
        &self.instrs
    }

    /// Successor edges of `id` as `(successor, latency)` pairs.
    #[inline]
    pub fn succs(&self, id: InstrId) -> &[(InstrId, u16)] {
        let (o, i) = (&self.offsets, id.index());
        &self.edges[o[i] as usize..o[i + 1] as usize]
    }

    /// Number of dependence edges: the length of the edge block, so
    /// calling this in a loop is free.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The `n + 1` successor offsets into the edge block.
    fn succ_off(&self) -> &[u32] {
        &self.offsets[..=self.len()]
    }

    /// Predecessor count of every instruction, indexed by [`InstrId`]:
    /// how many successor rows name it.
    ///
    /// This is the initial pending-predecessor vector every ant reset
    /// needs; stored beside the successor offsets, so a reset is a single
    /// `memcpy` and no scheduler counts producers itself.
    #[inline]
    pub fn pred_counts(&self) -> &[u32] {
        &self.offsets[self.len() + 1..]
    }

    /// Instructions with no predecessors (ready at cycle 0), in id order.
    ///
    /// Cached at build time: every ant construction seeds its ready list
    /// from the roots, so deriving them would otherwise put a full
    /// `pred_counts` scan on the colony's hottest path.
    pub fn roots(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.order[self.len()..].iter().copied()
    }

    /// Instructions with no successors.
    pub fn leaves(&self) -> impl Iterator<Item = InstrId> + '_ {
        let off = self.succ_off();
        (0..self.len()).filter_map(|i| (off[i] == off[i + 1]).then_some(InstrId(i as u32)))
    }

    /// A topological order of the instructions (cached at build time).
    #[inline]
    pub fn topo_order(&self) -> &[InstrId] {
        &self.order[..self.len()]
    }

    /// Iterates over all instruction ids in index order.
    pub fn ids(&self) -> impl Iterator<Item = InstrId> {
        (0..self.len() as u32).map(InstrId)
    }

    /// Whether two regions have identical *scheduling content*: the same
    /// instruction count, the same Def/Use register sets per id, and the
    /// same successor edges (targets and latencies) in the same stored
    /// order.
    ///
    /// Instruction names are deliberately excluded: no scheduler reads
    /// them and no schedule, pressure, or cost result depends on them, so
    /// two regions that differ only in names schedule identically. Edge
    /// *order* is included because ACO's tie-breaking walks the adjacency
    /// lists in stored order — equality here must guarantee bitwise-equal
    /// scheduler output, not just isomorphism.
    pub fn content_eq(&self, other: &Ddg) -> bool {
        // Offsets + flat arrays compare what per-id lists would: the same
        // registers, targets and latencies, partitioned identically.
        let (a, b) = (&self.instrs, &other.instrs);
        a.regs == b.regs
            && a.len() == b.len()
            && a.ends.iter().zip(&b.ends).all(|(x, y)| x[1..] == y[1..])
            && self.succ_off() == other.succ_off()
            && self.edges == other.edges
    }

    /// Computes the transitive closure of the dependence relation.
    ///
    /// The closure answers, for every pair `(x, y)`, whether `y` transitively
    /// depends on `x`. Section V-A of the paper uses it to derive a tight
    /// upper bound on the ready-list size, which in turn sizes the
    /// preallocated GPU arrays.
    pub fn transitive_closure(&self) -> TransitiveClosure {
        let n = self.len();
        let mut reach = BitMatrix::new(n);
        // Process in reverse topological order so each node's row already
        // contains its successors' full reachability when merged.
        for &id in self.topo_order().iter().rev() {
            for &(succ, _) in self.succs(id) {
                reach.set(id.index(), succ.index());
                reach.or_row_into(succ.index(), id.index());
            }
        }
        // Precompute per-node descendant (row popcount) and ancestor
        // (column popcount, one word-level sweep) totals so the
        // independence queries below are O(1) instead of O(n) single-bit
        // column probes each.
        let desc_counts: Vec<u32> = (0..n).map(|i| reach.count_row(i) as u32).collect();
        let mut anc_counts = vec![0u32; n];
        reach.accumulate_column_counts(&mut anc_counts);
        TransitiveClosure {
            reach,
            desc_counts,
            anc_counts,
        }
    }
}

/// The transitive closure of a [`Ddg`]'s dependence relation.
///
/// `depends(x, y)` is true when `y` must execute after `x` (there is a
/// directed path `x -> ... -> y`).
#[derive(Debug, Clone)]
pub struct TransitiveClosure {
    reach: BitMatrix,
    desc_counts: Vec<u32>,
    anc_counts: Vec<u32>,
}

impl TransitiveClosure {
    /// Whether `later` transitively depends on `earlier`.
    pub fn depends(&self, earlier: InstrId, later: InstrId) -> bool {
        self.reach.get(earlier.index(), later.index())
    }

    /// Whether the two instructions are independent (neither reaches the
    /// other, and they are distinct).
    pub fn independent(&self, a: InstrId, b: InstrId) -> bool {
        a != b && !self.depends(a, b) && !self.depends(b, a)
    }

    /// Number of instructions independent of `id`.
    ///
    /// O(1): descendant and ancestor totals are precomputed at closure
    /// construction (`n - 1` for self, minus both).
    pub fn independent_count(&self, id: InstrId) -> usize {
        let n = self.reach.len();
        n - 1 - self.desc_counts[id.index()] as usize - self.anc_counts[id.index()] as usize
    }

    /// The tight ready-list upper bound of Section V-A: one plus the maximum
    /// number of independent instructions any instruction has.
    ///
    /// For the Figure-1 DDG this is 5, versus the loose bound of 7 (the
    /// instruction count). O(n) over the precomputed counts.
    pub fn ready_list_ub(&self) -> usize {
        let n = self.reach.len();
        if n == 0 {
            return 0;
        }
        let max_indep = (0..n as u32)
            .map(|i| self.independent_count(InstrId(i)))
            .max()
            .unwrap_or(0);
        (1 + max_indep).min(n)
    }

    /// Side length (number of instructions).
    pub fn len(&self) -> usize {
        self.reach.len()
    }

    /// Whether the closure covers zero instructions.
    pub fn is_empty(&self) -> bool {
        self.reach.is_empty()
    }

    /// Iterates over the transitive successors of `id`.
    pub fn descendants(&self, id: InstrId) -> impl Iterator<Item = InstrId> + '_ {
        self.reach.iter_row(id.index()).map(|j| InstrId(j as u32))
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::DdgBuilder;
    use crate::instr::InstrId;

    /// Builds a diamond: a -> b, a -> c, b -> d, c -> d.
    fn diamond() -> crate::Ddg {
        let mut b = DdgBuilder::new();
        let a = b.instr("a", [], []);
        let x = b.instr("b", [], []);
        let y = b.instr("c", [], []);
        let d = b.instr("d", [], []);
        b.edge(a, x, 1).unwrap();
        b.edge(a, y, 1).unwrap();
        b.edge(x, d, 1).unwrap();
        b.edge(y, d, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn roots_and_leaves() {
        let g = diamond();
        assert_eq!(g.roots().collect::<Vec<_>>(), vec![InstrId(0)]);
        assert_eq!(g.leaves().collect::<Vec<_>>(), vec![InstrId(3)]);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn cached_roots_match_a_successor_row_scan_in_id_order() {
        let mut b = DdgBuilder::new();
        let a = b.instr("a", [], []);
        let x = b.instr("b", [], []);
        let y = b.instr("c", [], []);
        b.instr("d", [], []);
        b.edge(a, y, 1).unwrap();
        b.edge(x, y, 1).unwrap();
        let g = b.build().unwrap();
        let named = |i: InstrId| g.ids().any(|p| g.succs(p).iter().any(|&(s, _)| s == i));
        let scanned: Vec<InstrId> = g.ids().filter(|&i| !named(i)).collect();
        assert_eq!(g.roots().collect::<Vec<_>>(), scanned);
        assert_eq!(scanned, vec![InstrId(0), InstrId(1), InstrId(3)]);
    }

    #[test]
    fn content_eq_reads_the_def_use_split_but_not_the_names() {
        use crate::instr::Reg;
        let build = |name: &str, defs: &[Reg], uses: &[Reg]| {
            let mut b = DdgBuilder::new();
            b.instr(name, defs.iter().copied(), uses.iter().copied());
            b.instr("tail", [], []);
            b.build().unwrap()
        };
        let (v0, s2) = (Reg::vgpr(0), Reg::sgpr(2));
        let base = build("ld", &[v0], &[s2]);
        // A longer name moves the name column of the offsets only.
        assert!(base.content_eq(&build("a_much_longer_name", &[v0], &[s2])));
        // The same flat register list, split elsewhere, is other content.
        assert!(!base.content_eq(&build("ld", &[], &[v0, s2])));
        assert!(!base.content_eq(&build("ld", &[v0, s2], &[])));
        assert!(!base.content_eq(&build("ld", &[v0], &[])));
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let pos: Vec<usize> = {
            let mut pos = vec![0; g.len()];
            for (i, id) in g.topo_order().iter().enumerate() {
                pos[id.index()] = i;
            }
            pos
        };
        for id in g.ids() {
            for &(s, _) in g.succs(id) {
                assert!(pos[id.index()] < pos[s.index()]);
            }
        }
    }

    #[test]
    fn closure_diamond() {
        let g = diamond();
        let tc = g.transitive_closure();
        let (a, b, c, d) = (InstrId(0), InstrId(1), InstrId(2), InstrId(3));
        assert!(tc.depends(a, d)); // transitive
        assert!(tc.depends(a, b));
        assert!(!tc.depends(d, a));
        assert!(tc.independent(b, c));
        assert!(!tc.independent(a, a));
        assert_eq!(tc.independent_count(b), 1); // only c
        assert_eq!(tc.ready_list_ub(), 2);
    }

    #[test]
    fn closure_descendants() {
        let g = diamond();
        let tc = g.transitive_closure();
        let mut desc: Vec<_> = tc.descendants(InstrId(0)).collect();
        desc.sort();
        assert_eq!(desc, vec![InstrId(1), InstrId(2), InstrId(3)]);
    }

    #[test]
    fn independent_chain_has_ub_one() {
        let mut b = DdgBuilder::new();
        let i0 = b.instr("x", [], []);
        let i1 = b.instr("y", [], []);
        let i2 = b.instr("z", [], []);
        b.edge(i0, i1, 1).unwrap();
        b.edge(i1, i2, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.transitive_closure().ready_list_ub(), 1);
    }

    #[test]
    fn fully_independent_has_ub_n() {
        let mut b = DdgBuilder::new();
        for i in 0..6 {
            b.instr(format!("i{i}"), [], []);
        }
        let g = b.build().unwrap();
        assert_eq!(g.transitive_closure().ready_list_ub(), 6);
    }

    #[test]
    fn empty_ddg() {
        let g = DdgBuilder::new().build().unwrap();
        assert!(g.is_empty());
        assert_eq!(g.transitive_closure().ready_list_ub(), 0);
    }
}
