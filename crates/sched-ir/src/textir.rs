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
//! [`parse_raw`] is one forward scanner over the text's bytes: after a
//! single counting pass that reserves the table's buffers, it classifies
//! ASCII inline, accumulates numbers in place, and writes names and
//! registers straight into those buffers, which become the
//! [`InstrTable`]'s blocks when the text ends. A byte ≥ 0x80 is decoded
//! as one `char` in a cold helper, so Unicode whitespace still separates
//! tokens and a wide register class is still an error, not a panic.
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
//!   [`DdgBuilder`](crate::DdgBuilder) rejects.
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

use crate::builder;
use crate::ddg::Ddg;
pub use crate::instr::MAX_REG_ID;
use crate::instr::{InstrId, InstrTable, Reg, RegClass, TableBuilder};
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
    /// rejecting whatever [`DdgBuilder`](crate::DdgBuilder) rejects (self edges, cycles) at
    /// the source position of the offending edge where one exists.
    pub fn into_ddg(self) -> Result<Ddg, ParseTextError> {
        let mut edges = Vec::with_capacity(self.edges.len());
        for e in &self.edges {
            let (from, to) = (InstrId(e.from), InstrId(e.to));
            builder::check_edge(self.instrs.len(), from, to)
                .map_err(|why| err(e.pos, why.to_string()))?;
            edges.push((from, to, e.latency));
        }
        builder::build(self.instrs, edges)
            .map_err(|e| err(SrcPos { line: 0, col: 0 }, e.to_string()))
    }
}

/// Whether an ASCII byte is `White_Space`: space, `\t`, `\n`, VT, FF, `\r`.
#[inline]
fn ascii_space(b: u8) -> bool {
    b == b' ' || (9..=13).contains(&b)
}

/// The character that starts at byte `at` of `text`: the scanner's one look
/// past a byte ≥ 0x80, for the whitespace test and a register class.
#[cold]
#[inline(never)]
fn wide_char(text: &str, at: usize) -> char {
    text[at..]
        .chars()
        .next()
        .expect("the cursor sits on a character")
}

/// A forward cursor over a region's text. It stays on a character
/// boundary: ASCII bytes are taken one at a time, anything wider a whole
/// character at a time through [`wide_char`].
struct Scanner<'a> {
    text: &'a str,
    at: usize,
    line: u32,
    line_start: usize,
}

impl<'a> Scanner<'a> {
    /// Where the cursor is.
    fn pos(&self) -> SrcPos {
        let col = (self.at - self.line_start + 1) as u32;
        SrcPos {
            line: self.line,
            col,
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    /// The character at the cursor: its width in bytes and whether it is
    /// white space (`\n` is); `None` at the end of the text.
    #[inline]
    fn peek(&self) -> Option<(usize, bool)> {
        match self.byte()? {
            b if b < 0x80 => Some((1, ascii_space(b))),
            _ => {
                let c = wide_char(self.text, self.at);
                Some((c.len_utf8(), c.is_whitespace()))
            }
        }
    }

    /// Whether a token ends at the cursor: white space or the end of the text.
    fn at_token_end(&self) -> bool {
        !matches!(self.peek(), Some((_, false)))
    }

    /// Skips white space up to the next token of the line; false at the
    /// line's end.
    fn skip_to_token(&mut self) -> bool {
        while !matches!(self.byte(), None | Some(b'\n')) {
            match self.peek() {
                Some((w, true)) => self.at += w,
                _ => return true,
            }
        }
        false
    }

    /// The next token of the line and where it starts.
    // `token`, `number` and `reg_list` run a few times a line: left as
    // calls they cost about a quarter of a parse.
    #[inline(always)]
    fn token(&mut self) -> Option<(SrcPos, &'a str)> {
        if !self.skip_to_token() {
            return None;
        }
        let (pos, start) = (self.pos(), self.at);
        while let Some((w, false)) = self.peek() {
            self.at += w;
        }
        Some((pos, &self.text[start..self.at]))
    }

    /// Moves to the start of the next line; false at the end of the text.
    fn next_line(&mut self) -> bool {
        let rest = &self.text.as_bytes()[self.at..];
        match rest.iter().position(|&b| b == b'\n') {
            Some(i) => {
                self.at += i + 1;
                self.line += 1;
                self.line_start = self.at;
                true
            }
            None => false,
        }
    }

    /// Reads a Rust `u32` decimal as the standard library reads one — at
    /// most one leading `+`, then ASCII digits, leading zeros allowed — up
    /// to the first byte that cannot continue it. `None` if no digit was
    /// read or the value passed `u32::MAX`; the caller checks that the
    /// token (or list entry) ends there.
    fn digits(&mut self) -> Option<u32> {
        self.at += usize::from(self.byte() == Some(b'+'));
        let first = self.at;
        let mut n = Some(0u32);
        while let Some(d @ b'0'..=b'9') = self.byte() {
            n = n.and_then(|n| n.checked_mul(10)?.checked_add(u32::from(d - b'0')));
            self.at += 1;
        }
        n.filter(|_| self.at > first)
    }

    /// A number token of an `edge` line: `edge needs <what>` at the keyword
    /// when the line has no token left, `bad <what>` at a token that is not
    /// a `u32`.
    #[inline(always)]
    fn number(&mut self, kw: SrcPos, what: &str) -> Result<(SrcPos, u32), ParseTextError> {
        if !self.skip_to_token() {
            return Err(err(kw, format!("edge needs {what}")));
        }
        let pos = self.pos();
        let n = self.digits().filter(|_| self.at_token_end());
        n.map(|n| (pos, n))
            .ok_or_else(|| err(pos, format!("bad {what}")))
    }

    /// Appends the registers of the comma-joined list at the cursor and
    /// returns their count; empty entries are skipped. An entry is a class
    /// character (the first, whatever its width) and a `u32` id.
    #[inline(always)]
    fn reg_list(&mut self, regs: &mut Vec<Reg>) -> Result<usize, ParseTextError> {
        let before = regs.len();
        loop {
            if self.byte() == Some(b',') {
                self.at += 1;
                continue;
            }
            let (pos, start) = (self.pos(), self.at);
            // A wide class character keeps its lead byte: neither `v` nor `s`.
            let class = match (self.byte(), self.peek()) {
                (Some(b), Some((w, false))) => {
                    self.at += w;
                    b
                }
                _ => return Ok(regs.len() - before),
            };
            let id = self.digits();
            let id = id.filter(|_| self.byte() == Some(b',') || self.at_token_end());
            let text = self.text;
            let entry = || {
                let rest = &text[start..];
                let end = rest.find(|c: char| c == ',' || c.is_whitespace());
                end.map_or(rest, |end| &rest[..end])
            };
            let reg = match (id, class) {
                (None, _) => return Err(err(pos, format!("bad register `{}`", entry()))),
                (Some(id), _) if id > MAX_REG_ID => {
                    let tok = entry();
                    let why = format!("register id in `{tok}` exceeds the maximum {MAX_REG_ID}");
                    return Err(err(pos, why));
                }
                (Some(id), b'v') => Reg::vgpr(id),
                (Some(id), b's') => Reg::sgpr(id),
                _ => {
                    let tok = entry();
                    let why = format!("bad register class in `{tok}` (expected v<N> or s<N>)");
                    return Err(err(pos, why));
                }
            };
            regs.push(reg);
        }
    }
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
    // One pass counts both, in byte-wide counters a chunk at a time so that it
    // vectorises.
    let (mut newlines, mut commas) = (0, 0);
    for chunk in text.as_bytes().chunks(u8::MAX.into()) {
        let (mut nl, mut cm) = (0u8, 0u8);
        for &b in chunk {
            nl += u8::from(b == b'\n');
            cm += u8::from(b == b',');
        }
        (newlines, commas) = (newlines + usize::from(nl), commas + usize::from(cm));
    }
    let lines = (newlines + 1).min(text.len() / 7 + 1);
    let regs = (commas + 2 * lines).min(text.len() / 3 + 1);
    let mut table = TableBuilder {
        names: String::with_capacity(text.len()),
        regs: Vec::with_capacity(regs),
        ends: Vec::with_capacity(lines),
    };
    let mut instr_pos = Vec::with_capacity(lines);
    let mut edges = Vec::with_capacity(lines);
    let mut s = Scanner {
        text,
        at: 0,
        line: 1,
        line_start: 0,
    };
    loop {
        match s.token() {
            // A blank line has no token; a comment's first token starts with `#`.
            None => {}
            Some((_, kw)) if kw.starts_with('#') => {}
            Some((kw_pos, "instr")) => {
                let (_, name) = s.token().ok_or_else(|| err(kw_pos, "instr needs a name"))?;
                // The row grows at the tail of `regs` as defs, then uses.
                let regs = &mut table.regs;
                let row = regs.len();
                let (mut defs, mut uses) = (0, 0);
                while let Some((pos, kw)) = s.token() {
                    if !s.skip_to_token() {
                        return Err(err(pos, format!("{kw} needs a list")));
                    }
                    match kw {
                        "defs" => {
                            // A new list lands behind the uses: drop the
                            // defs it replaces and rotate it to the front.
                            // The guards keep the usual line, one list of
                            // each, off `drain` and `rotate_left` (a fifth
                            // of a parse when called with nothing to move).
                            let new = s.reg_list(regs)?;
                            if defs + uses > 0 {
                                regs.drain(row..row + defs);
                                regs[row..].rotate_left(uses);
                            }
                            defs = new;
                        }
                        "uses" => {
                            let new = s.reg_list(regs)?;
                            if uses > 0 {
                                regs.drain(row + defs..row + defs + uses);
                            }
                            uses = new;
                        }
                        other => return Err(err(pos, format!("unknown keyword `{other}`"))),
                    }
                }
                table.names.push_str(name);
                table.close_row(row + defs);
                instr_pos.push(kw_pos);
            }
            Some((kw_pos, "edge")) => {
                let (_, from) = s.number(kw_pos, "a from-index")?;
                let (_, to) = s.number(kw_pos, "a to-index")?;
                let (lat_pos, lat) = s.number(kw_pos, "a latency")?;
                let latency = u16::try_from(lat).map_err(|_| {
                    err(
                        lat_pos,
                        format!("latency {lat} exceeds the maximum {}", u16::MAX),
                    )
                })?;
                edges.push(RawEdge {
                    from,
                    to,
                    latency,
                    pos: kw_pos,
                });
            }
            Some((kw_pos, other)) => {
                return Err(err(kw_pos, format!("unknown directive `{other}`")))
            }
        }
        // Whatever the line has left (a comment, tokens after a latency).
        if !s.next_line() {
            break;
        }
    }
    let n = table.len() as u32;
    for e in &edges {
        for endpoint in [e.from, e.to] {
            if endpoint >= n {
                return Err(err(
                    e.pos,
                    format!("edge endpoint {endpoint} out of range ({n} instructions)"),
                ));
            }
        }
    }
    Ok(RawRegion {
        instrs: table.finish(),
        instr_pos,
        edges,
    })
}

/// Parses a region from the text format.
///
/// # Errors
///
/// Returns a [`ParseTextError`] naming the first offending line (and,
/// where known, column): unknown directives, malformed
/// registers/indices, out-of-range edge endpoints, or a graph the
/// [`DdgBuilder`](crate::DdgBuilder) rejects (self edges, cycles).
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
    for instr in ddg.ids().map(|id| ddg.instr(id)) {
        out.push_str("instr ");
        out.push_str(instr.name());
        for (keyword, regs) in [(" defs ", instr.defs()), (" uses ", instr.uses())] {
            for (i, r) in regs.iter().enumerate() {
                out.push_str(if i == 0 { keyword } else { "," });
                out.push(match r.class() {
                    RegClass::Vgpr => 'v',
                    RegClass::Sgpr => 's',
                });
                push_decimal(&mut out, r.id());
            }
        }
        out.push('\n');
    }
    for id in ddg.ids() {
        for &(s, lat) in ddg.succs(id) {
            for (sep, n) in [("edge ", id.0), (" ", s.0), (" ", lat.into())] {
                out.push_str(sep);
                push_decimal(&mut out, n);
            }
            out.push('\n');
        }
    }
    out.shrink_to_fit();
    out
}

/// Appends `n` in decimal, as `{n}` would print it.
fn push_decimal(out: &mut String, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[i..].iter().map(|&d| char::from(d)));
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
