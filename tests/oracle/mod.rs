//! Test oracle for the flat region IR: the array-of-structures front door
//! it replaced, kept verbatim as the reference — one owned [`Instruction`]
//! per node, `parse_raw` with a `String` and two `Vec`s per `instr` line,
//! `DdgBuilder::build` assembling `Vec<Vec<_>>` adjacency and flattening
//! it, `to_text` joining a `Vec<String>` per operand list, `content_eq` and
//! the content-fingerprint word stream. [`Ddg`] here is the old struct, not
//! `sched_ir::Ddg`; error, position, edge and register types are the
//! product's own, so results compare by value.
//!
//! `tests/region_ir_exact.rs` holds the product to it.

use gpu_aco::ir::textir::{ParseTextError, RawEdge, SrcPos, MAX_REG_ID};
use gpu_aco::ir::{DdgError, Fnv64, InstrId, Reg};
use std::collections::VecDeque;

/// An instruction with its *Def* and *Use* register sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instruction {
    name: String,
    defs: Vec<Reg>,
    uses: Vec<Reg>,
}

impl Instruction {
    pub fn new(
        name: impl Into<String>,
        defs: impl IntoIterator<Item = Reg>,
        uses: impl IntoIterator<Item = Reg>,
    ) -> Instruction {
        Instruction {
            name: name.into(),
            defs: defs.into_iter().collect(),
            uses: uses.into_iter().collect(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn defs(&self) -> &[Reg] {
        &self.defs
    }

    pub fn uses(&self) -> &[Reg] {
        &self.uses
    }
}

/// The old `Ddg`: one `Instruction` per node next to the CSR edge arrays.
#[derive(Debug, Clone)]
pub struct Ddg {
    pub instrs: Vec<Instruction>,
    pub succ_off: Vec<u32>,
    pub succ_edges: Vec<(InstrId, u16)>,
    pub pred_off: Vec<u32>,
    pub pred_edges: Vec<(InstrId, u16)>,
    pub pred_counts: Vec<u32>,
    pub topo: Vec<InstrId>,
    pub roots: Vec<InstrId>,
}

impl Ddg {
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    pub fn instr(&self, id: InstrId) -> &Instruction {
        &self.instrs[id.index()]
    }

    pub fn succs(&self, id: InstrId) -> &[(InstrId, u16)] {
        let i = id.index();
        &self.succ_edges[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    pub fn preds(&self, id: InstrId) -> &[(InstrId, u16)] {
        let i = id.index();
        &self.pred_edges[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    pub fn edge_count(&self) -> usize {
        self.succ_edges.len()
    }

    pub fn ids(&self) -> impl Iterator<Item = InstrId> {
        (0..self.len() as u32).map(InstrId)
    }

    pub fn content_eq(&self, other: &Ddg) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let regs_eq = self
            .instrs
            .iter()
            .zip(&other.instrs)
            .all(|(a, b)| a.defs() == b.defs() && a.uses() == b.uses());
        // Offsets + flat edges compare exactly what the per-id adjacency
        // lists used to: the same targets and latencies in the same stored
        // order, partitioned identically across instructions.
        regs_eq && self.succ_off == other.succ_off && self.succ_edges == other.succ_edges
    }
}

/// Incremental builder for a [`Ddg`].
#[derive(Debug, Default, Clone)]
pub struct DdgBuilder {
    instrs: Vec<Instruction>,
    edges: Vec<(InstrId, InstrId, u16)>,
}

impl DdgBuilder {
    pub fn new() -> DdgBuilder {
        DdgBuilder::default()
    }

    pub fn instr(
        &mut self,
        name: impl Into<String>,
        defs: impl IntoIterator<Item = Reg>,
        uses: impl IntoIterator<Item = Reg>,
    ) -> InstrId {
        let id = InstrId(self.instrs.len() as u32);
        self.instrs.push(Instruction::new(name, defs, uses));
        id
    }

    pub fn edge(&mut self, from: InstrId, to: InstrId, latency: u16) -> Result<(), DdgError> {
        let n = self.instrs.len() as u32;
        for &id in &[from, to] {
            if id.0 >= n {
                return Err(DdgError::UnknownInstr(id));
            }
        }
        if from == to {
            return Err(DdgError::SelfEdge(from));
        }
        self.edges.push((from, to, latency));
        Ok(())
    }

    pub fn build(self) -> Result<Ddg, DdgError> {
        let n = self.instrs.len();
        let mut succs: Vec<Vec<(InstrId, u16)>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<(InstrId, u16)>> = vec![Vec::new(); n];
        for (from, to, lat) in self.edges {
            // Merge duplicates, keeping max latency.
            match succs[from.index()].iter_mut().find(|(t, _)| *t == to) {
                Some((_, l)) => {
                    if lat > *l {
                        *l = lat;
                        let p = preds[to.index()]
                            .iter_mut()
                            .find(|(f, _)| *f == from)
                            .expect("pred mirror of existing succ edge");
                        p.1 = lat;
                    }
                }
                None => {
                    succs[from.index()].push((to, lat));
                    preds[to.index()].push((from, lat));
                }
            }
        }

        // Kahn's algorithm for topological sort + cycle detection. The
        // initial zero-indegree set doubles as the cached root set (in id
        // order, matching what the old preds scan produced).
        let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut queue: VecDeque<InstrId> = (0..n as u32)
            .map(InstrId)
            .filter(|i| indeg[i.index()] == 0)
            .collect();
        let roots: Vec<InstrId> = queue.iter().copied().collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(id) = queue.pop_front() {
            topo.push(id);
            for &(s, _) in &succs[id.index()] {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push_back(s);
                }
            }
        }
        if topo.len() != n {
            return Err(DdgError::Cyclic);
        }

        let (succ_off, succ_edges) = flatten_csr(&succs);
        let (pred_off, pred_edges) = flatten_csr(&preds);
        let pred_counts: Vec<u32> = preds.iter().map(|p| p.len() as u32).collect();

        Ok(Ddg {
            instrs: self.instrs,
            succ_off,
            succ_edges,
            pred_off,
            pred_edges,
            pred_counts,
            topo,
            roots,
        })
    }
}

/// Flattens per-id adjacency lists into `(offsets, flat edges)` CSR arrays,
/// preserving per-list stored order.
fn flatten_csr(lists: &[Vec<(InstrId, u16)>]) -> (Vec<u32>, Vec<(InstrId, u16)>) {
    let total: usize = lists.iter().map(Vec::len).sum();
    let mut off = Vec::with_capacity(lists.len() + 1);
    let mut edges = Vec::with_capacity(total);
    off.push(0u32);
    for list in lists {
        edges.extend_from_slice(list);
        off.push(edges.len() as u32);
    }
    (off, edges)
}

fn err(pos: SrcPos, message: impl Into<String>) -> ParseTextError {
    ParseTextError {
        line: pos.line as usize,
        col: pos.col as usize,
        message: message.into(),
    }
}

/// One `instr` line of a [`RawRegion`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawInstr {
    pub name: String,
    pub defs: Vec<Reg>,
    pub uses: Vec<Reg>,
    pub pos: SrcPos,
}

/// A syntactically valid region with source positions, *before* graph
/// validation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RawRegion {
    pub instrs: Vec<RawInstr>,
    pub edges: Vec<RawEdge>,
}

impl RawRegion {
    pub fn into_ddg(self) -> Result<Ddg, ParseTextError> {
        let mut b = DdgBuilder::new();
        for ri in self.instrs {
            b.instr(ri.name, ri.defs, ri.uses);
        }
        for e in &self.edges {
            b.edge(InstrId(e.from), InstrId(e.to), e.latency)
                .map_err(|why| err(e.pos, why.to_string()))?;
        }
        b.build()
            .map_err(|e| err(SrcPos { line: 0, col: 0 }, e.to_string()))
    }
}

/// Whitespace-splits a line into `(1-indexed byte column, token)` pairs.
fn tokens(line: &str) -> impl Iterator<Item = (u32, &str)> {
    line.split_whitespace().map(move |tok| {
        // `split_whitespace` yields subslices of `line`, so the byte offset
        // recovers the column exactly.
        let off = tok.as_ptr() as usize - line.as_ptr() as usize;
        (off as u32 + 1, tok)
    })
}

fn parse_reg(tok: &str, pos: SrcPos) -> Result<Reg, ParseTextError> {
    // Panics when the first character is multi-byte: the defect the flat
    // parser fixed (asserted separately by the differential test).
    let (class, rest) = tok.split_at(1.min(tok.len()));
    let id: u32 = rest
        .parse()
        .map_err(|_| err(pos, format!("bad register `{tok}`")))?;
    if id > MAX_REG_ID {
        return Err(err(
            pos,
            format!("register id in `{tok}` exceeds the maximum {MAX_REG_ID}"),
        ));
    }
    match class {
        "v" => Ok(Reg::vgpr(id)),
        "s" => Ok(Reg::sgpr(id)),
        _ => Err(err(
            pos,
            format!("bad register class in `{tok}` (expected v<N> or s<N>)"),
        )),
    }
}

fn parse_reg_list(tok: &str, pos: SrcPos) -> Result<Vec<Reg>, ParseTextError> {
    // Column of each register within the comma-joined list.
    let mut col = pos.col;
    let mut regs = Vec::new();
    for part in tok.split(',') {
        if !part.is_empty() {
            regs.push(parse_reg(
                part,
                SrcPos {
                    line: pos.line,
                    col,
                },
            )?);
        }
        col += part.len() as u32 + 1;
    }
    Ok(regs)
}

pub fn parse_raw(text: &str) -> Result<RawRegion, ParseTextError> {
    let mut region = RawRegion::default();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i as u32 + 1;
        let at = |col: u32| SrcPos { line: line_no, col };
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut toks = tokens(raw);
        let (kw_col, kw) = toks.next().expect("non-blank line has a token");
        match kw {
            "instr" => {
                let (name_col, name) = toks
                    .next()
                    .ok_or_else(|| err(at(kw_col), "instr needs a name"))?;
                let _ = name_col;
                let mut defs = Vec::new();
                let mut uses = Vec::new();
                while let Some((col, kw)) = toks.next() {
                    let (list_col, list) = toks
                        .next()
                        .ok_or_else(|| err(at(col), format!("{kw} needs a list")))?;
                    match kw {
                        "defs" => defs = parse_reg_list(list, at(list_col))?,
                        "uses" => uses = parse_reg_list(list, at(list_col))?,
                        other => return Err(err(at(col), format!("unknown keyword `{other}`"))),
                    }
                }
                region.instrs.push(RawInstr {
                    name: name.to_string(),
                    defs,
                    uses,
                    pos: at(kw_col),
                });
            }
            "edge" => {
                let mut num = |what: &str| -> Result<(u32, u32), ParseTextError> {
                    let (col, tok) = toks
                        .next()
                        .ok_or_else(|| err(at(kw_col), format!("edge needs {what}")))?;
                    let n = tok
                        .parse()
                        .map_err(|_| err(at(col), format!("bad {what}")))?;
                    Ok((col, n))
                };
                let (_, from) = num("a from-index")?;
                let (_, to) = num("a to-index")?;
                let (lat_col, lat) = num("a latency")?;
                let latency = u16::try_from(lat).map_err(|_| {
                    err(
                        at(lat_col),
                        format!("latency {lat} exceeds the maximum {}", u16::MAX),
                    )
                })?;
                region.edges.push(RawEdge {
                    from,
                    to,
                    latency,
                    pos: at(kw_col),
                });
            }
            other => return Err(err(at(kw_col), format!("unknown directive `{other}`"))),
        }
    }
    let n = region.instrs.len() as u32;
    for e in &region.edges {
        for endpoint in [e.from, e.to] {
            if endpoint >= n {
                return Err(err(
                    e.pos,
                    format!("edge endpoint {endpoint} out of range ({n} instructions)"),
                ));
            }
        }
    }
    Ok(region)
}

/// Renders a region in the text format.
pub fn to_text(ddg: &Ddg) -> String {
    let mut out = String::new();
    for id in ddg.ids() {
        let instr = ddg.instr(id);
        out.push_str("instr ");
        out.push_str(instr.name());
        if !instr.defs().is_empty() {
            let regs: Vec<String> = instr.defs().iter().map(|r| r.to_string()).collect();
            out.push_str(" defs ");
            out.push_str(&regs.join(","));
        }
        if !instr.uses().is_empty() {
            let regs: Vec<String> = instr.uses().iter().map(|r| r.to_string()).collect();
            out.push_str(" uses ");
            out.push_str(&regs.join(","));
        }
        out.push('\n');
    }
    for id in ddg.ids() {
        for &(s, lat) in ddg.succs(id) {
            out.push_str(&format!("edge {} {} {}\n", id.0, s.0, lat));
        }
    }
    out
}

/// Canonical fingerprint of a region's scheduling content, derived here
/// from the oracle's own rows: FNV-1a over the instruction count, then per
/// instruction in id order its def and use counts, its registers (`id << 1
/// | class`, defs then uses) and its successor edges (target, latency) in
/// stored order. The word stream `sched_ir::ddg_content_fingerprint` hashes
/// and `sched_ir::PackedDdg` stores.
pub fn ddg_content_fingerprint(ddg: &Ddg) -> u64 {
    let mut h = Fnv64::new();
    h.word(ddg.len() as u64);
    for id in ddg.ids() {
        let i = ddg.instr(id);
        h.word(i.defs().len() as u64);
        h.word(i.uses().len() as u64);
        for r in i.defs().iter().chain(i.uses()) {
            h.word(u64::from(r.id()) << 1 | r.class().index() as u64);
        }
        let succs = ddg.succs(id);
        h.word(succs.len() as u64);
        for &(s, lat) in succs {
            h.word(s.0.into());
            h.word(lat.into());
        }
    }
    h.finish()
}

/// One row of `(producer, latency)` pairs.
pub type PredRow = Vec<(InstrId, u16)>;

/// The comparison the flat region's missing predecessor rows leave: the
/// oracle's row of every instruction, in producer-id order, next to the
/// row derived from `flat`'s successor rows (whose walk in id order yields
/// producer-id order). The oracle stores its rows in global insertion
/// order, which successor rows cannot recover; the set of `(producer,
/// latency)` pairs is what any reader of them sees.
pub fn pred_rows(old: &Ddg, flat: &gpu_aco::ir::Ddg) -> Vec<(PredRow, PredRow)> {
    let mut derived = vec![PredRow::new(); flat.len()];
    for p in flat.ids() {
        for &(s, lat) in flat.succs(p) {
            derived[s.index()].push((p, lat));
        }
    }
    derived
        .into_iter()
        .enumerate()
        .map(|(i, row)| {
            let mut want = old.preds(InstrId(i as u32)).to_vec();
            want.sort_unstable();
            (want, row)
        })
        .collect()
}
