//! Construction and validation of [`Ddg`]s.

use crate::ddg::Ddg;
use crate::instr::{InstrId, InstrTable, Reg, TableBuilder};
use std::error::Error;
use std::fmt;

/// Error produced when a [`DdgBuilder`] is given an invalid graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DdgError {
    /// An edge referenced an instruction id that was never added.
    UnknownInstr(InstrId),
    /// A self edge `x -> x` was added.
    SelfEdge(InstrId),
    /// The dependence graph contains a cycle (no topological order exists).
    Cyclic,
}

impl fmt::Display for DdgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdgError::UnknownInstr(id) => write!(f, "edge references unknown instruction {id}"),
            DdgError::SelfEdge(id) => write!(f, "self edge on instruction {id}"),
            DdgError::Cyclic => write!(f, "dependence graph contains a cycle"),
        }
    }
}

impl Error for DdgError {}

/// Incremental builder for a [`Ddg`].
///
/// # Example
///
/// ```
/// use sched_ir::{DdgBuilder, Reg};
///
/// let mut b = DdgBuilder::new();
/// let producer = b.instr("load", [Reg::vgpr(0)], []);
/// let consumer = b.instr("use", [], [Reg::vgpr(0)]);
/// b.edge(producer, consumer, 8)?;
/// let ddg = b.build()?;
/// assert_eq!(ddg.len(), 2);
/// # Ok::<(), sched_ir::DdgError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct DdgBuilder {
    pub(crate) instrs: TableBuilder,
    pub(crate) edges: Vec<(InstrId, InstrId, u16)>,
}

impl DdgBuilder {
    /// Creates an empty builder.
    pub fn new() -> DdgBuilder {
        DdgBuilder::default()
    }

    /// Adds an instruction (its name formatted into the table) and returns its id.
    pub fn instr(
        &mut self,
        name: impl fmt::Display,
        defs: impl IntoIterator<Item = Reg>,
        uses: impl IntoIterator<Item = Reg>,
    ) -> InstrId {
        let id = InstrId(self.instrs.len() as u32);
        self.instrs.push(name, defs, uses);
        id
    }

    /// Adds a dependence edge with the given latency.
    ///
    /// A latency of `l` means the consumer may issue no earlier than
    /// `l` cycles after the producer (producer cycle + latency).
    ///
    /// # Errors
    ///
    /// Returns [`DdgError::UnknownInstr`] if either endpoint has not been
    /// added, or [`DdgError::SelfEdge`] for an `x -> x` edge.
    pub fn edge(&mut self, from: InstrId, to: InstrId, latency: u16) -> Result<(), DdgError> {
        check_edge(self.instrs.len(), from, to)?;
        self.edges.push((from, to, latency));
        Ok(())
    }

    /// Number of instructions added so far.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether no instruction has been added yet.
    pub fn is_empty(&self) -> bool {
        self.instrs.len() == 0
    }

    /// Validates the graph and produces an immutable, exact-fit [`Ddg`].
    ///
    /// Duplicate edges between the same pair are merged: the first keeps
    /// its position and takes the largest latency (the binding constraint).
    /// Successor rows list edges in insertion order (the *stored order* of
    /// [`Ddg`]'s docs).
    ///
    /// # Errors
    ///
    /// Returns [`DdgError::Cyclic`] if the edges admit no topological order.
    pub fn build(self) -> Result<Ddg, DdgError> {
        build(self.instrs.finish(), self.edges)
    }
}

/// Whether [`DdgBuilder::edge`] takes the edge `from -> to` in a region of
/// `n` instructions.
pub(crate) fn check_edge(n: usize, from: InstrId, to: InstrId) -> Result<(), DdgError> {
    if let Some(&id) = [from, to].iter().find(|id| id.index() >= n) {
        return Err(DdgError::UnknownInstr(id));
    }
    if from == to {
        return Err(DdgError::SelfEdge(from));
    }
    Ok(())
}

/// [`DdgBuilder::build`] over a finished table and edges that passed
/// [`check_edge`]. Writes each of the [`Ddg`]'s own three blocks once, at
/// its exact size.
pub(crate) fn build(
    instrs: InstrTable,
    mut edges: Vec<(InstrId, InstrId, u16)>,
) -> Result<Ddg, DdgError> {
    const MERGED: InstrId = InstrId(u32::MAX);
    let n = instrs.len();
    let (mut succ_off, mut by_from) = csr_rows(n, &edges, |e| e.0 .0);
    // Per node: first the edge of the current row that first reached it
    // (a mark counts only if this row set it), then Kahn's in-degree.
    let mut scratch = vec![u32::MAX; n];
    let added = edges.len();
    for (from, row) in succ_off.windows(2).enumerate() {
        for &e in &by_from[row[0] as usize..row[1] as usize] {
            let (_, to, latency) = edges[e as usize];
            match edges.get_mut(scratch[to.index()] as usize) {
                Some(first) if first.0.index() == from => {
                    first.2 = first.2.max(latency);
                    edges[e as usize].0 = MERGED;
                }
                _ => scratch[to.index()] = e,
            }
        }
    }
    edges.retain(|e| e.0 != MERGED);
    if edges.len() != added {
        (succ_off, by_from) = csr_rows(n, &edges, |e| e.0 .0);
    }
    assert!(
        edges.len() <= u32::MAX as usize,
        "region IR offsets fit u32"
    );
    // The successor offsets, then the predecessor counts behind them.
    let mut offsets = Vec::with_capacity(2 * n + 1);
    offsets.extend_from_slice(&succ_off);
    offsets.resize(2 * n + 1, 0);
    for e in &edges {
        offsets[n + 1 + e.1.index()] += 1;
    }
    let flat: Vec<(InstrId, u16)> = by_from
        .iter()
        .map(|&e| (edges[e as usize].1, edges[e as usize].2))
        .collect();
    let pred_counts = &offsets[n + 1..];

    // Kahn's algorithm, FIFO by id: every node enters the order once, so it
    // is its own queue; the zero-indegree prefix is the root set, in id
    // order, copied behind the order once it is complete.
    let mut indeg = scratch;
    indeg.copy_from_slice(pred_counts);
    let roots = pred_counts.iter().filter(|&&c| c == 0).count();
    let mut order = Vec::with_capacity(n + roots);
    order.extend((0..n as u32).map(InstrId).filter(|i| indeg[i.index()] == 0));
    let mut head = 0;
    while let Some(&id) = order.get(head) {
        head += 1;
        let row = succ_off[id.index()] as usize..succ_off[id.index() + 1] as usize;
        for &(s, _) in &flat[row] {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                order.push(s);
            }
        }
    }
    if order.len() != n {
        return Err(DdgError::Cyclic);
    }
    order.extend_from_within(..roots);
    Ok(Ddg {
        instrs,
        offsets: offsets.into_boxed_slice(),
        order: order.into_boxed_slice(),
        edges: flat.into_boxed_slice(),
    })
}

/// The workspace's one edge-list-to-CSR routine: a stable counting sort of
/// `edges` by `key` (a node index below `n`). Returns `n + 1` row offsets
/// and the edge indices of every row back to back, each row in list order.
pub fn csr_rows<E>(n: usize, edges: &[E], key: impl Fn(&E) -> u32) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n + 1];
    for e in edges {
        off[key(e) as usize + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    // Scatter with `off[k]` as row `k`'s cursor; every cursor ends on the
    // next row's start, so one shift restores the offsets.
    let mut order = vec![0u32; edges.len()];
    for (i, e) in edges.iter().enumerate() {
        let cursor = &mut off[key(e) as usize];
        order[*cursor as usize] = i as u32;
        *cursor += 1;
    }
    off.copy_within(0..n, 1);
    off[0] = 0;
    (off, order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_unknown_endpoints() {
        let mut b = DdgBuilder::new();
        let a = b.instr("a", [], []);
        assert_eq!(
            b.edge(a, InstrId(5), 1),
            Err(DdgError::UnknownInstr(InstrId(5)))
        );
        assert_eq!(
            b.edge(InstrId(7), a, 1),
            Err(DdgError::UnknownInstr(InstrId(7)))
        );
    }

    #[test]
    fn rejects_self_edges() {
        let mut b = DdgBuilder::new();
        let a = b.instr("a", [], []);
        assert_eq!(b.edge(a, a, 1), Err(DdgError::SelfEdge(a)));
    }

    #[test]
    fn detects_cycles() {
        let mut b = DdgBuilder::new();
        let a = b.instr("a", [], []);
        let c = b.instr("b", [], []);
        b.edge(a, c, 1).unwrap();
        b.edge(c, a, 1).unwrap();
        assert_eq!(b.build().unwrap_err(), DdgError::Cyclic);
    }

    #[test]
    fn merges_duplicate_edges_keeping_max_latency() {
        let mut b = DdgBuilder::new();
        let a = b.instr("a", [], []);
        let c = b.instr("b", [], []);
        b.edge(a, c, 2).unwrap();
        b.edge(a, c, 9).unwrap();
        b.edge(a, c, 4).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.succs(a), &[(c, 9)]);
        assert!(g.succs(c).is_empty());
        // The cached count must agree with what the builder merged down to.
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.pred_counts(), &[0, 1]);
    }

    #[test]
    fn names_are_written_without_an_intermediate_string() {
        let mut b = DdgBuilder::new();
        assert!(b.is_empty());
        assert_eq!(b.instr("nop", [], []), InstrId(0));
        assert_eq!(b.instr(format_args!("n{}", 1), [], []), InstrId(1));
        assert_eq!(b.len(), 2);
        let g = b.build().unwrap();
        assert_eq!(g.instr(InstrId(0)).name(), "nop");
        assert_eq!(g.instr(InstrId(1)).name(), "n1");
    }

    #[test]
    fn merged_duplicates_keep_first_position_in_their_row() {
        let mut b = DdgBuilder::new();
        let ids: Vec<InstrId> = (0..4)
            .map(|i| b.instr(format_args!("i{i}"), [], []))
            .collect();
        // Interleaved producers; (0,3) repeats with a rising then falling
        // latency, (1,3) repeats with a falling one.
        for (f, t, l) in [
            (1, 3, 7),
            (0, 3, 2),
            (0, 2, 1),
            (0, 3, 9),
            (2, 3, 4),
            (1, 3, 5),
            (0, 3, 3),
            (0, 1, 6),
        ] {
            b.edge(ids[f], ids[t], l).unwrap();
        }
        let g = b.build().unwrap();
        let row = |r: &[(InstrId, u16)]| -> Vec<(u32, u16)> {
            r.iter().map(|&(i, l)| (i.0, l)).collect()
        };
        assert_eq!(row(g.succs(ids[0])), [(3, 9), (2, 1), (1, 6)]);
        assert_eq!(row(g.succs(ids[1])), [(3, 7)]);
        assert_eq!(row(g.succs(ids[2])), [(3, 4)]);
        assert!(g.succs(ids[3]).is_empty());
        assert_eq!(g.pred_counts(), &[0, 1, 1, 3]);
        assert_eq!(g.edge_count(), 5);
        // FIFO Kahn: node 0 releases 2 before 1 (its stored successor order).
        assert_eq!(g.topo_order(), &[ids[0], ids[2], ids[1], ids[3]]);
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(DdgError::Cyclic.to_string().contains("cycle"));
        assert!(DdgError::SelfEdge(InstrId(1)).to_string().contains("i1"));
        assert!(DdgError::UnknownInstr(InstrId(2))
            .to_string()
            .contains("i2"));
    }
}
