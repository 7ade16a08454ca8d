//! Differential fuzz test of the text-IR front door: seeded token soup drawn
//! from the grammar's corners, every text held to the parser kept verbatim
//! in `tests/oracle/mod.rs`. `textir::parse_raw` must return the oracle's
//! region field for field (names, defs, uses, positions, edges) or its
//! `ParseTextError` (line, column and message); `textir::parse` must build
//! the same region (stored orders, topological order, roots, fingerprint,
//! printed text) or fail with the same error.
//!
//! Each case is generated from its own seed, so a failure names the one
//! text to replay. Tier-1 runs a few thousand cases; the long run is
//! `cargo test --release --test textir_fuzz -- --ignored` (`scripts/check.sh`
//! runs it).

// Only the parser half of the oracle is used here.
#[allow(dead_code)]
mod oracle;

use gpu_aco::ir::{ddg_content_fingerprint, textir};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What the comparison of the generated texts found.
#[derive(Debug, Default)]
struct Tally {
    built: usize,
    /// Rejected by the syntax layer (`parse_raw`).
    rejected: usize,
    /// Parsed, then rejected by the builder (self edge, cycle).
    unbuildable: usize,
    /// Texts the oracle panicked on (a multi-byte register class).
    old_panics: usize,
}

/// Token soup with a per-text rate of syntax corners and, independently,
/// graph defects: a text with neither is a valid region.
struct Soup {
    rng: SmallRng,
    corner: f64,
    /// Whether edges may be self edges or reverse an earlier edge (cycles).
    defects: bool,
    out: String,
}

/// Characters `char::is_whitespace` accepts (`\r` and U+2028 / U+0085 are
/// not line ends), then two it does not, which glue tokens together.
const SPACES: &[&str] = &[
    "\t", "\u{b}", "\u{c}", "\r", "  ", "\u{85}", "\u{a0}", "\u{1680}", "\u{2000}", "\u{2001}",
    "\u{2002}", "\u{2003}", "\u{2004}", "\u{2005}", "\u{2006}", "\u{2007}", "\u{2008}", "\u{2009}",
    "\u{200a}", "\u{2028}", "\u{2029}", "\u{202f}", "\u{205f}", "\u{3000}",
];
const GLUE: &[&str] = &["\u{200b}", "\u{feff}"];

const NAMES: &[&str] = &["a", "v_add_u32", "s_load_dword", "n7", "x.y-z"];
const ODD_NAMES: &[&str] = &[
    "instr",
    "edge",
    "defs",
    "uses",
    "#",
    "#x",
    "é",
    "名前",
    "a,b",
    "v0",
    "x\u{200b}y",
];
const ODD_KEYWORDS: &[&str] = &["frobs", "Defs", "USES", "def", "defs,", "#defs", "édefs"];
const ODD_DIRECTIVES: &[&str] = &[
    "Instr",
    "EDGE",
    "instrs",
    "edges",
    "bogus",
    "é",
    "\u{feff}instr",
];
const ODD_CLASSES: &[&str] = &["q", "V", "S", "é", "€", "", "+", "-", "7", "\u{200b}", "ß"];
/// Register ids and edge numbers past a range, signed, empty or not ASCII.
const ODD_NUMBERS: &[&str] = &[
    "1048575",
    "1048576",
    "65535",
    "65536",
    "4294967295",
    "4294967296",
    "99999999999",
    "-1",
    "-0",
    "",
    "+",
    "++1",
    "+-1",
    "٣",
    "1é",
    "x",
    "0x10",
    "1_0",
    "00000000000000000001",
];

impl Soup {
    fn new(case: u64) -> Soup {
        let mut rng = SmallRng::seed_from_u64(case);
        let corner = [0.0, 0.0, 0.01, 0.03, 0.08, 0.2][rng.gen_range(0..6)];
        let defects = rng.gen_bool(0.3);
        Soup {
            rng,
            corner,
            defects,
            out: String::new(),
        }
    }

    fn odd(&mut self) -> bool {
        self.rng.gen_bool(self.corner)
    }

    fn one_of<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.rng.gen_range(0..from.len())]
    }

    /// Between two tokens: mostly one space, else any white space, rarely
    /// a character that is not one.
    fn gap(&mut self) {
        let gap = if self.odd() {
            self.one_of(GLUE)
        } else if self.rng.gen_bool(0.15) {
            self.one_of(SPACES)
        } else {
            " "
        };
        self.out.push_str(gap);
    }

    fn number(&mut self, good: u32) {
        let n = if self.odd() {
            self.one_of(ODD_NUMBERS).to_string()
        } else {
            // Forms `str::parse` accepts: a `+`, leading zeros.
            match self.rng.gen_range(0..20) {
                0 => format!("+{good}"),
                1 => format!("00{good}"),
                _ => good.to_string(),
            }
        };
        self.out.push_str(&n);
    }

    /// A `defs` / `uses` list: empty entries, repeats, odd classes and ids.
    fn reg_list(&mut self) {
        let entries = self.rng.gen_range(0..5);
        if entries == 0 || self.rng.gen_bool(0.05) {
            self.out.push(',');
        }
        for i in 0..entries {
            if i > 0 {
                self.out.push(',');
            }
            if self.rng.gen_bool(0.05) {
                self.out.push(','); // an empty entry
            }
            let class = if self.odd() {
                self.one_of(ODD_CLASSES)
            } else {
                self.one_of(&["v", "s"])
            };
            self.out.push_str(class);
            let id = self.rng.gen_range(0..24);
            self.number(id);
        }
        if self.rng.gen_bool(0.05) {
            self.out.push(',');
        }
    }

    fn instr(&mut self) {
        let kw = if self.odd() {
            self.one_of(ODD_DIRECTIVES)
        } else {
            "instr"
        };
        self.out.push_str(kw);
        if self.odd() {
            return; // no name
        }
        self.gap();
        let name = if self.odd() {
            self.one_of(ODD_NAMES)
        } else {
            self.one_of(NAMES)
        };
        self.out.push_str(name);
        // Lists in either order, a repeated keyword replacing the first.
        for _ in 0..self.rng.gen_range(0..4) {
            self.gap();
            let kw = if self.odd() {
                self.one_of(ODD_KEYWORDS)
            } else {
                self.one_of(&["defs", "uses"])
            };
            self.out.push_str(kw);
            if self.odd() {
                return; // no list
            }
            self.gap();
            self.reg_list();
        }
    }

    /// An `edge` line over `n` instructions: forward edges, repeats of
    /// earlier ones; self and reversed edges as defects; out-of-range
    /// endpoints, odd or missing numbers and trailing tokens as corners.
    fn edge(&mut self, n: u32, edges: &mut Vec<(u32, u32)>) {
        self.out.push_str("edge");
        let (from, to) = match (self.rng.gen_range(0..40), edges.len()) {
            (0..=5, k) if k > 0 => edges[self.rng.gen_range(0..k)],
            (6, k) if k > 0 && self.defects => {
                let (from, to) = edges[self.rng.gen_range(0..k)];
                (to, from)
            }
            (7, _) if self.defects => {
                let i = self.rng.gen_range(0..n);
                (i, i)
            }
            _ if self.odd() => (self.rng.gen_range(0..n + 2), self.rng.gen_range(0..n + 2)),
            _ => {
                let from = self.rng.gen_range(0..n - 1);
                (from, self.rng.gen_range(from + 1..n))
            }
        };
        edges.push((from, to));
        let latency = self.rng.gen_range(0..30);
        let numbers = if self.odd() {
            self.rng.gen_range(0..3)
        } else {
            3
        };
        for v in [from, to, latency].into_iter().take(numbers) {
            self.gap();
            self.number(v);
        }
        if self.odd() {
            self.gap();
            self.out.push_str("trailing 1 2");
        }
    }

    /// One region's text.
    fn text(mut self) -> String {
        let n = self.rng.gen_range(2..12);
        let (mut instrs, mut edges) = (0, Vec::new());
        let edge_lines = self.rng.gen_range(0..2 * n);
        while instrs < n || edges.len() < edge_lines as usize {
            if self.rng.gen_bool(0.2) {
                let indent = self.one_of(&[" ", "\t", "  ", "\u{3000}"]);
                self.out.push_str(indent);
            }
            match self.rng.gen_range(0..20) {
                0 => {
                    let comment = self.one_of(&["# comment", "#", "#instr a", "##"]);
                    self.out.push_str(comment);
                }
                1 => {} // a blank line
                _ if instrs < n
                    && (edges.len() >= edge_lines as usize || self.rng.gen_bool(0.5)) =>
                {
                    self.instr();
                    instrs += 1;
                }
                _ if edges.len() < edge_lines as usize => self.edge(n, &mut edges),
                _ => {}
            }
            if self.rng.gen_bool(0.1) {
                let trailing = self.one_of(SPACES);
                self.out.push_str(trailing);
            }
            // `\r\n` and `\n` end a line; a bare `\r` does not.
            let end = match self.rng.gen_range(0..40) {
                0..=4 => "\r\n",
                5 if self.corner > 0.0 => "\r",
                _ => "\n",
            };
            self.out.push_str(end);
        }
        if self.rng.gen_bool(0.3) {
            self.out.pop(); // no newline at the end of the text
        }
        self.out
    }
}

/// Holds `parse_raw` and `parse` to the oracle on one text.
fn check(case: u64, text: &str, tally: &mut Tally) {
    let what = format!("case {case}: {text:?}");
    let Ok(old) = catch_unwind(AssertUnwindSafe(|| oracle::parse_raw(text))) else {
        // The oracle's known defect: a multi-byte register class panics in
        // it. The front door answers with a positioned register error, as
        // `region_ir_exact::check` requires — or, since an id is checked
        // before its class, with the over-range error when the id is past
        // `MAX_REG_ID` (`€4294967295`), a pairing that corpus never makes.
        let e = textir::parse_raw(text).expect_err(&what);
        let register = ["bad register", "register id in `"];
        assert!(
            register.iter().any(|m| e.message.starts_with(m)),
            "{what}: {e}"
        );
        assert!(e.line > 0 && e.col > 0, "{what}: {e}");
        assert_eq!(textir::parse(text).unwrap_err(), e, "{what}");
        tally.old_panics += 1;
        return;
    };
    let (old, new) = match (old, textir::parse_raw(text)) {
        (Err(o), Err(n)) => {
            assert_eq!(o, n, "{what}");
            assert_eq!(textir::parse(text).unwrap_err(), n, "{what}");
            tally.rejected += 1;
            return;
        }
        (Ok(o), Ok(n)) => (o, n),
        (o, n) => panic!("{what}: oracle {o:?} vs front door {n:?}"),
    };
    assert_eq!(old.instrs.len(), new.instrs.len(), "{what}");
    for (i, o) in old.instrs.iter().enumerate() {
        let n = new.instrs.get(i);
        assert_eq!(
            (o.name.as_str(), &o.defs[..], &o.uses[..], o.pos),
            (n.name(), n.defs(), n.uses(), new.instr_pos[i]),
            "{what}: instr {i}"
        );
    }
    assert_eq!(old.edges, new.edges, "{what}: edges");
    match (old.into_ddg(), textir::parse(text)) {
        (Err(o), Err(n)) => {
            assert_eq!(o, n, "{what}");
            tally.unbuildable += 1;
        }
        (Ok(old), Ok(new)) => {
            for (i, (old_row, row)) in oracle::pred_rows(&old, &new).iter().enumerate() {
                assert_eq!(old_row, row, "{what}: preds of i{i}");
            }
            assert_eq!(old.pred_counts, new.pred_counts(), "{what}");
            assert_eq!(old.topo, new.topo_order(), "{what}");
            assert_eq!(old.roots, new.roots().collect::<Vec<_>>(), "{what}");
            assert_eq!(
                oracle::ddg_content_fingerprint(&old),
                ddg_content_fingerprint(&new),
                "{what}"
            );
            // Names, defs, uses and successor rows in stored order.
            assert_eq!(oracle::to_text(&old), textir::to_text(&new), "{what}");
            tally.built += 1;
        }
        (o, n) => panic!("{what}: oracle {:?} vs front door {:?}", o.err(), n.err()),
    }
}

fn run(cases: std::ops::Range<u64>) -> Tally {
    let mut tally = Tally::default();
    for case in cases {
        check(case, &Soup::new(case).text(), &mut tally);
    }
    println!("{tally:?}");
    tally
}

#[test]
fn token_soup_parses_as_the_oracle_does() {
    let tally = run(0..8_000);
    // Every outcome is exercised, none of them rarely.
    assert!(tally.built > 2_000, "{tally:?}");
    assert!(tally.rejected > 2_000, "{tally:?}");
    assert!(tally.unbuildable > 100, "{tally:?}");
    assert!(tally.old_panics > 100, "{tally:?}");
}

#[test]
#[ignore = "long run: --release -- --ignored (scripts/check.sh does)"]
fn token_soup_parses_as_the_oracle_does_long() {
    let tally = run(8_000..400_000);
    assert!(
        tally.built > 100_000 && tally.rejected > 100_000,
        "{tally:?}"
    );
    assert!(
        tally.unbuildable > 5_000 && tally.old_panics > 5_000,
        "{tally:?}"
    );
}
