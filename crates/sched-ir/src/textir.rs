//! A plain-text interchange format for scheduling regions.
//!
//! One region per file, one item per line:
//!
//! ```text
//! # comment
//! instr <name> [defs <reg>,<reg>,...] [uses <reg>,...]
//! edge <from-index> <to-index> <latency>
//! ```
//!
//! Registers are written AMD-style: `v<N>` (VGPR) or `s<N>` (SGPR), with
//! `N` at most [`MAX_REG_ID`]; a latency is at most 65,535 (`u16`).
//! Instruction indices refer to `instr` lines in order of appearance.
//! The format round-trips through [`to_text`] / [`parse`].
//!
//! Parsing is split in two layers:
//!
//! * [`parse_raw`] checks syntax and index ranges only and returns a
//!   [`RawRegion`] with a source position ([`SrcPos`]) on every
//!   instruction and edge. Self edges, duplicate edges, and cycles are
//!   *representable* at this layer — that is what lets `sched-analyze`
//!   diagnose a cyclic region file with a witness cycle instead of a bare
//!   parse error.
//! * [`parse`] (the strict entry everything else uses) runs [`parse_raw`]
//!   and then builds a validated [`Ddg`], rejecting whatever the
//!   [`DdgBuilder`] rejects.
//!
//! # Example
//!
//! ```
//! let text = "\
//! instr load defs v0 uses s0
//! instr add defs v1 uses v0
//! edge 0 1 4
//! ";
//! let ddg = sched_ir::textir::parse(text).unwrap();
//! assert_eq!(ddg.len(), 2);
//! assert_eq!(sched_ir::textir::parse(&sched_ir::textir::to_text(&ddg)).unwrap().len(), 2);
//! ```

use crate::builder::DdgBuilder;
use crate::ddg::Ddg;
use crate::instr::{InstrId, Reg};
use std::error::Error;
use std::fmt;

/// A 1-indexed line/column position in a region text file.
///
/// The column points at the first byte of the token the item (or error)
/// refers to, so diagnostics can render `file:line:col` spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SrcPos {
    /// 1-indexed line.
    pub line: u32,
    /// 1-indexed byte column of the relevant token (0 = unknown).
    pub col: u32,
}

impl fmt::Display for SrcPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col > 0 {
            write!(f, "{}:{}", self.line, self.col)
        } else {
            write!(f, "{}", self.line)
        }
    }
}

/// Error produced when parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTextError {
    /// 1-indexed line of the offending input (0 for whole-graph errors
    /// such as a cycle rejected by the builder).
    pub line: usize,
    /// 1-indexed byte column of the offending token (0 = unknown).
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col > 0 {
            write!(
                f,
                "line {}, column {}: {}",
                self.line, self.col, self.message
            )
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ParseTextError {}

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
    /// Instruction name.
    pub name: String,
    /// Defined registers, in written order.
    pub defs: Vec<Reg>,
    /// Used registers, in written order.
    pub uses: Vec<Reg>,
    /// Where the `instr` keyword sits in the source.
    pub pos: SrcPos,
}

/// One `edge` line of a [`RawRegion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawEdge {
    /// Producer instruction index.
    pub from: u32,
    /// Consumer instruction index.
    pub to: u32,
    /// Edge latency in cycles.
    pub latency: u16,
    /// Where the `edge` keyword sits in the source.
    pub pos: SrcPos,
}

/// A syntactically valid region with source positions, *before* graph
/// validation: edge endpoints are range-checked, but self edges, duplicate
/// edges, and cycles are representable (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RawRegion {
    /// Instructions in file order (edge indices refer to this order).
    pub instrs: Vec<RawInstr>,
    /// Edges in file order.
    pub edges: Vec<RawEdge>,
}

impl RawRegion {
    /// Builds the validated [`Ddg`], rejecting whatever [`DdgBuilder`]
    /// rejects (self edges, cycles), with the error pinned to the source
    /// position of the offending edge where one exists. Copies the region;
    /// callers done with it use [`RawRegion::into_ddg`].
    pub fn build(&self) -> Result<Ddg, ParseTextError> {
        self.clone().into_ddg()
    }

    /// [`RawRegion::build`] consuming the region: every name, def list and
    /// use list moves into the [`Ddg`] instead of being cloned.
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

/// Largest register id the text format accepts. Every per-register table
/// in the workspace is dense in the id ([`crate::RegTable`], the pressure
/// tracker's universe), so an id read from untrusted text bounds an
/// allocation; real regions use a few thousand ids at most.
pub const MAX_REG_ID: u32 = (1 << 20) - 1;

fn parse_reg(tok: &str, pos: SrcPos) -> Result<Reg, ParseTextError> {
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

/// Parses a region's *syntax*, returning a [`RawRegion`] with source
/// positions on every item.
///
/// Edge endpoints are range-checked against the final instruction count
/// (forward references are fine); graph-level validity (self edges,
/// cycles) is deliberately **not** checked here — use
/// [`RawRegion::build`] or [`parse`] for that.
///
/// # Errors
///
/// Returns a [`ParseTextError`] with the line and column of the first
/// offending token: unknown directives, malformed registers, indices, or
/// latencies, or out-of-range edge endpoints.
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

/// Parses a region from the text format.
///
/// # Errors
///
/// Returns a [`ParseTextError`] naming the first offending line (and,
/// where known, column): unknown directives, malformed
/// registers/indices, out-of-range edge endpoints, or a graph the
/// [`DdgBuilder`] rejects (self edges, cycles).
pub fn parse(text: &str) -> Result<Ddg, ParseTextError> {
    parse_raw(text)?.into_ddg()
}

/// Renders a region in the text format (inverse of [`parse`]).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1;

    #[test]
    fn figure1_roundtrips() {
        let ddg = figure1::ddg();
        let text = to_text(&ddg);
        let back = parse(&text).unwrap();
        assert_eq!(back.len(), ddg.len());
        assert_eq!(back.edge_count(), ddg.edge_count());
        for id in ddg.ids() {
            assert_eq!(back.instr(id).name(), ddg.instr(id).name());
            assert_eq!(back.instr(id).defs(), ddg.instr(id).defs());
            assert_eq!(back.succs(id), ddg.succs(id));
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let ddg =
            parse("# header\n\ninstr a defs v0\n# mid\ninstr b uses v0\nedge 0 1 2\n").unwrap();
        assert_eq!(ddg.len(), 2);
        assert_eq!(ddg.succs(InstrId(0)), &[(InstrId(1), 2)]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        assert_eq!(parse("bogus x").unwrap_err().line, 1);
        assert_eq!(parse("instr a\nedge 0 7 1").unwrap_err().line, 2);
        assert_eq!(parse("instr a defs q7").unwrap_err().line, 1);
        assert!(
            parse("instr a\ninstr b\nedge 0 1 1\nedge 1 0 1").is_err(),
            "cycle"
        );
    }

    #[test]
    fn errors_carry_columns() {
        // `q7` is the defs list, at byte column 14 of `instr a defs q7`.
        let e = parse("instr a defs q7").unwrap_err();
        assert_eq!((e.line, e.col), (1, 14));
        // The bad latency token `x` sits at column 10.
        let e = parse("instr a\ninstr b\nedge 0 1 x").unwrap_err();
        assert_eq!((e.line, e.col), (3, 10));
        // Leading indentation shifts the reported column.
        let e = parse("   bogus x").unwrap_err();
        assert_eq!((e.line, e.col), (1, 4));
        // A second register in a defs list gets its own column.
        let e = parse("instr a defs v0,q1").unwrap_err();
        assert_eq!((e.line, e.col), (1, 17));
    }

    #[test]
    fn latency_is_range_checked_at_the_u16_boundary() {
        let ddg = parse("instr a\ninstr b\nedge 0 1 65535").unwrap();
        assert_eq!(ddg.succs(InstrId(0)), &[(InstrId(1), u16::MAX)]);
        // 65,536 used to truncate to latency 0 (65,537 to 1) silently.
        let e = parse("instr a\ninstr b\nedge 0 1 65536").unwrap_err();
        assert_eq!((e.line, e.col), (3, 10));
        assert!(e.message.contains("65536"), "{e}");
        let e = parse_raw("instr a\ninstr b\n  edge 0 1 65537").unwrap_err();
        assert_eq!((e.line, e.col), (3, 12));
    }

    #[test]
    fn register_ids_are_capped_at_the_front_door() {
        let text = format!("instr a defs v{MAX_REG_ID}\ninstr b uses s{MAX_REG_ID}");
        assert_eq!(parse(&text).unwrap().len(), 2);
        // One past the cap: positioned on the register inside its list.
        let text = format!("instr a defs v0,v{}", MAX_REG_ID + 1);
        let e = parse_raw(&text).unwrap_err();
        assert_eq!((e.line, e.col), (1, 17));
        assert!(e.message.contains("v1048576"), "{e}");
        // The id that used to make `RegUniverse::new` allocate 16 GB.
        let e =
            parse("instr a defs v4000000000\ninstr b uses v4000000000\nedge 0 1 1").unwrap_err();
        assert_eq!((e.line, e.col), (1, 14));
    }

    #[test]
    fn consuming_build_equals_the_borrowing_build() {
        let text = to_text(&figure1::ddg());
        let raw = parse_raw(&text).unwrap();
        let (kept, moved) = (raw.build().unwrap(), raw.into_ddg().unwrap());
        assert!(kept.content_eq(&moved));
        for id in kept.ids() {
            assert_eq!(kept.instr(id), moved.instr(id));
        }
        // Errors are the same values on both paths.
        let raw = parse_raw("instr a\ninstr b\nedge 0 1 1\nedge 1 0 1").unwrap();
        assert_eq!(raw.build().unwrap_err(), raw.into_ddg().unwrap_err());
    }

    #[test]
    fn raw_parse_represents_cycles_and_self_edges() {
        let raw = parse_raw("instr a\ninstr b\nedge 0 1 1\nedge 1 0 1").unwrap();
        assert_eq!(raw.instrs.len(), 2);
        assert_eq!(raw.edges.len(), 2);
        assert!(raw.build().is_err(), "strict build still rejects the cycle");
        let raw = parse_raw("instr a\nedge 0 0 1").unwrap();
        assert_eq!(raw.edges[0].from, raw.edges[0].to);
        assert!(
            raw.build().is_err(),
            "strict build still rejects self edges"
        );
        // Out-of-range endpoints stay a parse error even at the raw layer.
        let e = parse_raw("instr a\nedge 0 7 1").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn raw_positions_point_at_directives() {
        let raw = parse_raw("# hdr\ninstr a defs v0\n\ninstr b uses v0\nedge 0 1 2\n").unwrap();
        assert_eq!(raw.instrs[0].pos, SrcPos { line: 2, col: 1 });
        assert_eq!(raw.instrs[1].pos, SrcPos { line: 4, col: 1 });
        assert_eq!(raw.edges[0].pos, SrcPos { line: 5, col: 1 });
    }

    #[test]
    fn error_display_is_informative() {
        let e = parse("edge 0 0 1").unwrap_err();
        assert!(e.to_string().contains("line 1"));
        let e = parse("instr a defs q7").unwrap_err();
        assert!(e.to_string().contains("column 14"));
    }
}
