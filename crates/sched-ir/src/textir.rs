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
//! Tokens split on any Unicode whitespace, numbers may carry a leading
//! `+`, a repeated `defs`/`uses` replaces the earlier list (DESIGN.md,
//! "Region IR layout", has the grammar in full).
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
use crate::instr::{InstrId, InstrTable, Reg};
use std::error::Error;
use std::fmt::{self, Write};

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
    pub instrs: InstrTable,
    /// Where each instruction's `instr` keyword sits in the source.
    pub instr_pos: Vec<SrcPos>,
    /// Edges in file order.
    pub edges: Vec<RawEdge>,
}

impl RawRegion {
    /// Builds the validated [`Ddg`] (the instruction table moves into it),
    /// rejecting whatever [`DdgBuilder`] rejects (self edges, cycles) at
    /// the source position of the offending edge where one exists.
    pub fn into_ddg(self) -> Result<Ddg, ParseTextError> {
        let mut b = DdgBuilder {
            instrs: self.instrs,
            edges: Vec::with_capacity(self.edges.len()),
        };
        for e in &self.edges {
            b.edge(InstrId(e.from), InstrId(e.to), e.latency)
                .map_err(|why| err(e.pos, why.to_string()))?;
        }
        b.build()
            .map_err(|e| err(SrcPos { line: 0, col: 0 }, e.to_string()))
    }
}

/// Largest register id the text format accepts. Every per-register table
/// in the workspace is dense in the id ([`crate::RegTable`], the pressure
/// tracker's universe), so an id read from untrusted text bounds an
/// allocation; real regions use a few thousand ids at most.
pub const MAX_REG_ID: u32 = (1 << 20) - 1;

fn parse_reg(tok: &str, pos: SrcPos) -> Result<Reg, ParseTextError> {
    // The class is the first character, whatever its width in bytes.
    let (class, rest) = tok.split_at(tok.chars().next().map_or(0, char::len_utf8));
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

/// Appends the registers of one comma-joined list; returns their count.
fn push_regs(tok: &str, mut pos: SrcPos, regs: &mut Vec<Reg>) -> Result<usize, ParseTextError> {
    let before = regs.len();
    for part in tok.split(',') {
        if !part.is_empty() {
            regs.push(parse_reg(part, pos)?);
        }
        // Column of the next register within the list.
        pos.col += part.len() as u32 + 1;
    }
    Ok(regs.len() - before)
}

/// Parses a region's *syntax*, returning a [`RawRegion`] with source
/// positions on every item.
///
/// Edge endpoints are range-checked against the final instruction count
/// (forward references are fine); graph-level validity (self edges,
/// cycles) is deliberately **not** checked here — use
/// [`RawRegion::into_ddg`] or [`parse`] for that.
///
/// # Errors
///
/// Returns a [`ParseTextError`] with the line and column of the first
/// offending token: unknown directives, malformed registers, indices, or
/// latencies, or out-of-range edge endpoints.
pub fn parse_raw(text: &str) -> Result<RawRegion, ParseTextError> {
    // Lines, columns and table offsets are `u32`s.
    if u32::try_from(text.len()).is_err() {
        return Err(err(SrcPos { line: 0, col: 0 }, "region text exceeds 4 GiB"));
    }
    // Upper bounds, tight on printed text: one item a line, one more register
    // a list than commas; capped by the 7 and 3 bytes the shortest of each takes.
    let count = |byte| text.bytes().filter(|&b| b == byte).count();
    let lines = (count(b'\n') + 1).min(text.len() / 7 + 1);
    let regs = (count(b',') + 2 * lines).min(text.len() / 3 + 1);
    let mut region = RawRegion {
        instrs: InstrTable {
            names: String::with_capacity(text.len()),
            regs: Vec::with_capacity(regs),
            ends: Vec::with_capacity(lines),
        },
        instr_pos: Vec::with_capacity(lines),
        edges: Vec::with_capacity(lines),
    };
    for (i, raw) in text.lines().enumerate() {
        let line_no = i as u32 + 1;
        let at = |col: u32| SrcPos { line: line_no, col };
        // Tokens with their 1-indexed byte columns: `split_whitespace`
        // yields subslices of `raw`, so pointer distance is the offset.
        let col_of = |tok: &str| (tok.as_ptr() as usize - raw.as_ptr() as usize) as u32 + 1;
        let mut toks = raw.split_whitespace().map(|tok| (col_of(tok), tok));
        let Some((kw_col, kw)) = toks.next().filter(|(_, kw)| !kw.starts_with('#')) else {
            continue; // blank or comment
        };
        match kw {
            "instr" => {
                let (_, name) = toks
                    .next()
                    .ok_or_else(|| err(at(kw_col), "instr needs a name"))?;
                // The row grows at the tail of `regs` as defs, then uses.
                let regs = &mut region.instrs.regs;
                let row = regs.len();
                let (mut defs, mut uses) = (0, 0);
                while let Some((col, kw)) = toks.next() {
                    let (list_col, list) = toks
                        .next()
                        .ok_or_else(|| err(at(col), format!("{kw} needs a list")))?;
                    match kw {
                        "defs" => {
                            // A new list lands behind the uses: drop the
                            // defs it replaces and rotate it to the front.
                            let new = push_regs(list, at(list_col), regs)?;
                            regs.drain(row..row + defs);
                            regs[row..].rotate_left(uses);
                            defs = new;
                        }
                        "uses" => {
                            let new = push_regs(list, at(list_col), regs)?;
                            regs.drain(row + defs..row + defs + uses);
                            uses = new;
                        }
                        other => return Err(err(at(col), format!("unknown keyword `{other}`"))),
                    }
                }
                region.instrs.names.push_str(name);
                region.instrs.close_row(row + defs);
                region.instr_pos.push(at(kw_col));
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
    // Room for the longest rendering (19 bytes of keywords a line, ten
    // digits a number): the one buffer never grows, and is cut to size.
    let t = ddg.instrs();
    let bound = t.names.len() + 19 * t.len() + 12 * t.regs.len() + 33 * ddg.edge_count();
    let mut out = String::with_capacity(bound);
    let ok = "writing to a String cannot fail";
    for instr in ddg.ids().map(|id| ddg.instr(id)) {
        out.push_str("instr ");
        out.push_str(instr.name());
        for (keyword, regs) in [(" defs ", instr.defs()), (" uses ", instr.uses())] {
            for (i, r) in regs.iter().enumerate() {
                out.push_str(if i == 0 { keyword } else { "," });
                write!(out, "{r}").expect(ok);
            }
        }
        out.push('\n');
    }
    for id in ddg.ids() {
        for &(s, lat) in ddg.succs(id) {
            writeln!(out, "edge {} {} {}", id.0, s.0, lat).expect(ok);
        }
    }
    out.shrink_to_fit();
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
    fn non_ascii_register_tokens_are_positioned_errors() {
        // `split_at(1)` used to panic inside the first multi-byte character.
        let e = parse("instr a defs é5").unwrap_err();
        assert_eq!((e.line, e.col), (1, 14));
        assert!(e.message.starts_with("bad register"), "{e}");
        let e = parse_raw("instr a defs v0,€").unwrap_err();
        assert_eq!((e.line, e.col), (1, 17));
        assert_eq!(e.message, "bad register `€`");
        // Columns stay byte columns after a multi-byte token.
        let e = parse("instr é defs v0 uses ß").unwrap_err();
        assert_eq!((e.line, e.col), (1, 23));
    }

    #[test]
    fn operand_lists_land_as_defs_then_uses_whatever_the_order_written() {
        let table = |text: &str| parse_raw(text).unwrap().instrs;
        let want = table("instr a defs v1,v2 uses s0\ninstr b uses v1");
        // `uses` first, a repeated keyword (the last list wins), skipped
        // empty entries, a leading `+`, Unicode whitespace between tokens.
        assert_eq!(table("instr a uses s0 defs v1,v2\ninstr b uses v1"), want);
        assert_eq!(
            table("instr a defs v9 uses s3,s4 defs v1,v2 uses s0\ninstr b uses v1"),
            want
        );
        assert_eq!(
            table("instr a defs ,v1,,v+2, uses s0\r\n\u{a0}instr\u{2003}b\tuses v1\u{b}"),
            want
        );
        let emptied = table("instr a defs v1 uses s0 defs , uses ,");
        assert!(emptied.get(0).defs().is_empty() && emptied.get(0).uses().is_empty());
        // An earlier list is still checked even though a later one replaces it.
        let e = parse_raw("instr a defs q7 defs v0").unwrap_err();
        assert_eq!((e.line, e.col), (1, 14));
    }

    #[test]
    fn raw_parse_represents_cycles_and_self_edges() {
        let raw = parse_raw("instr a\ninstr b\nedge 0 1 1\nedge 1 0 1").unwrap();
        assert_eq!(raw.instrs.len(), 2);
        assert_eq!(raw.edges.len(), 2);
        assert!(
            raw.clone().into_ddg().is_err(),
            "strict build still rejects the cycle"
        );
        let raw = parse_raw("instr a\nedge 0 0 1").unwrap();
        assert_eq!(raw.edges[0].from, raw.edges[0].to);
        assert!(
            raw.clone().into_ddg().is_err(),
            "strict build still rejects self edges"
        );
        // Out-of-range endpoints stay a parse error even at the raw layer.
        let e = parse_raw("instr a\nedge 0 7 1").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn raw_positions_point_at_directives() {
        let raw = parse_raw("# hdr\ninstr a defs v0\n\ninstr b uses v0\nedge 0 1 2\n").unwrap();
        assert_eq!(raw.instr_pos[0], SrcPos { line: 2, col: 1 });
        assert_eq!(raw.instr_pos[1], SrcPos { line: 4, col: 1 });
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
