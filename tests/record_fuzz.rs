//! Differential fuzz test of the record codec (`sched_ir::record`) and the
//! two formats that read through it.
//!
//! * `schedcache v1`: seeded token soup drawn from the corners of the
//!   grammar — blank lines, `\r\n` and bare `\r`, missing
//!   and extra fields, `0x` prefixes present, absent or doubled, `+` signs,
//!   u32 / u64 overflow, a `ddg <n>` that over- or under-counts, a block
//!   that fails to parse or build, lying and missing `eof` trailers, content
//!   after the trailer, repeated records, non-UTF-8 bytes and cuts — applied
//!   to files the product wrote. Every file is held to the loader and
//!   writer kept verbatim in `tests/oracle/records.rs`: the old load + save
//!   bytes equal the new load + save bytes, or both reject. The product may
//!   reject where the oracle accepted only for the two classes it tightened
//!   (a value that does not fit its field, a repeated cache key). Every
//!   rejection is `InvalidData` naming a line of the file, and an error
//!   inside a `ddg` block names the oracle's column.
//! * The serve protocol: `parse_request_line` never panics, a `schedule`
//!   header framed by `ddg <n>` owns exactly `n` payload lines whether its
//!   options parse or not, and `render_response` → `read_response`
//!   round-trips every response.
//!
//! Each case is generated from its own seed, so a failure names the one
//! input to replay. Tier-1 runs a few thousand cases; the long run is
//! `cargo test --release --test record_fuzz -- --ignored` (`scripts/check.sh`
//! runs it).

#[path = "oracle/records.rs"]
mod records;

use gpu_aco::compile::ScheduleCache;
use gpu_aco::serve::proto::MAX_PAYLOAD_LINES;
use gpu_aco::serve::{parse_request_line, read_response, render_response, Parsed, Response};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// What the comparison of the generated files found.
#[derive(Debug, Default)]
struct Tally {
    /// Both loaders accepted and saved the same bytes.
    loaded: usize,
    /// Both rejected.
    rejected: usize,
    /// The oracle accepted a class the product now rejects.
    tightened: usize,
    /// Rejections inside a `ddg` block that carry a column.
    columns: usize,
}

/// Decimal fields past a range, signed, empty or not ASCII.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "3",
    "+5",
    "++5",
    "-1",
    "-0",
    "-2",
    "4294967295",
    "4294967296",
    "4294967301",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "",
    "abc",
    "1e3",
    "0x10",
    "٣",
    "５",
];
/// Hexadecimal fields with the prefix doubled, signed, cased or too wide.
const HEX: &[&str] = &[
    "0",
    "ff",
    "0x0",
    "0x",
    "0x0x1f",
    "+1f",
    "0x+1f",
    "0X1f",
    "-1",
    "ffffffffffffffff",
    "10000000000000000",
    "g",
];
/// Width corners for the `cfg` and `comp` fields the product reads as u32.
const WIDE: &[&str] = &[
    "4294967295",
    "4294967296",
    "4294967297",
    "4294967301",
    "+4294967296",
];
/// Occupancy caps: none, small, at and past the width, negative.
const CAPS: &[&str] = &["-1", "0", "3", "4294967295", "4294967297", "-2", "+7"];
/// Lines that break a text-IR block: syntax, ranges, self edges, cycles.
const BLOCK_LINES: &[&str] = &[
    "edge 0 0 1",
    "edge 0 999 1",
    "edge 1 0 1",
    "edge 0 1 65536",
    "instr a defs q1",
    "instr a defs v4000000000",
    "instr a defs \u{e9}5",
    "bogus",
    "# comment",
    "",
    "instr extra",
];
/// Blank lines: empty, or white space only (`\u{3000}` is Unicode space).
const BLANKS: &[&str] = &["", " ", "\t", "\r", "\u{3000}", "  \t "];
/// Token separators: Unicode white space, then two that are not.
const SPACES: &[&str] = &[
    "\t", "  ", "\u{3000}", "\u{a0}", "\u{b}", "\u{200b}", "\u{feff}",
];
const NOT_UTF8: &[&[u8]] = &[b"\xff", b"\xc3", b"\x80", b"\xfe\xfe"];

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::read(path.join(name)).unwrap()
}

/// Token soup over one seed file: a few grammar-corner mutations of its
/// lines, then maybe a cut.
struct Soup {
    rng: SmallRng,
    lines: Vec<Vec<u8>>,
}

impl Soup {
    fn new(case: u64, seed: &[u8]) -> Soup {
        let mut lines: Vec<Vec<u8>> = seed.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
        lines.pop(); // the empty piece after the last newline
        Soup {
            rng: SmallRng::seed_from_u64(case),
            lines,
        }
    }

    fn one_of<'a, T: ?Sized>(&mut self, from: &[&'a T]) -> &'a T {
        from[self.rng.gen_range(0..from.len())]
    }

    fn pick_line(&mut self) -> usize {
        self.rng.gen_range(0..self.lines.len())
    }

    /// A line starting with `keyword`, if the file has one.
    fn line_starting(&mut self, keyword: &str) -> Option<usize> {
        let found: Vec<usize> = (0..self.lines.len())
            .filter(|&i| self.lines[i].starts_with(keyword.as_bytes()))
            .collect();
        (!found.is_empty()).then(|| found[self.rng.gen_range(0..found.len())])
    }

    /// Replaces the space-separated token `tok` of line `i` (or a random
    /// one) with `with`.
    fn set_token(&mut self, i: usize, tok: Option<usize>, with: &[u8]) {
        let mut toks: Vec<Vec<u8>> = self.lines[i]
            .split(|&b| b == b' ')
            .map(<[u8]>::to_vec)
            .collect();
        let t = tok.unwrap_or_else(|| self.rng.gen_range(0..toks.len()));
        if t < toks.len() {
            toks[t] = with.to_vec();
        }
        self.lines[i] = toks.join(&b' ');
    }

    fn edit_token(&mut self, edit: impl FnOnce(&mut SmallRng, &mut Vec<Vec<u8>>, usize)) {
        let i = self.pick_line();
        let mut toks: Vec<Vec<u8>> = self.lines[i]
            .split(|&b| b == b' ')
            .map(<[u8]>::to_vec)
            .collect();
        let t = self.rng.gen_range(0..toks.len());
        edit(&mut self.rng, &mut toks, t);
        self.lines[i] = toks.join(&b' ');
    }

    fn mutate(&mut self) {
        if self.lines.is_empty() {
            return;
        }
        match self.rng.gen_range(0..22) {
            0 => {
                let (i, with) = (self.pick_line(), self.one_of(NUMBERS));
                self.set_token(i, None, with.as_bytes());
            }
            1 => {
                let (i, with) = (self.pick_line(), self.one_of(HEX));
                self.set_token(i, None, with.as_bytes());
            }
            2 => self.edit_token(|_, toks, t| {
                toks.remove(t);
            }),
            3 => self.edit_token(|_, toks, t| toks.insert(t, toks[t].clone())),
            4 => {
                let at = self.rng.gen_range(0..=self.lines.len());
                let blank = self.one_of(BLANKS);
                self.lines.insert(at, blank.as_bytes().to_vec());
            }
            5 => {
                let i = self.pick_line();
                self.lines[i].push(b'\r');
            }
            6 => {
                let i = self.pick_line();
                let at = self.rng.gen_range(0..=self.lines[i].len());
                self.lines[i].insert(at, b'\r');
            }
            7 => self.edit_token(|rng, toks, t| {
                let tok = &mut toks[t];
                if let Some(rest) = tok.strip_prefix(b"0x") {
                    *tok = if rng.gen_bool(0.5) {
                        rest.to_vec()
                    } else {
                        [b"0x0x", rest].concat()
                    };
                } else {
                    tok.splice(0..0, *b"0x");
                }
            }),
            8 => self.edit_token(|_, toks, t| toks[t].insert(0, b'+')),
            // A value past its field's width: a u32 of `cfg` or `comp`, or
            // the occupancy cap.
            9 => {
                if let Some(i) = self.line_starting("cfg ") {
                    let (tok, with) = match self.rng.gen_range(0..3) {
                        0 => (30, self.one_of(CAPS)),
                        1 => (self.rng.gen_range(31..38), self.one_of(WIDE)),
                        _ => (
                            [2, 3, 5, 6, 7, 15, 18, 29][self.rng.gen_range(0..8)],
                            self.one_of(WIDE),
                        ),
                    };
                    self.set_token(i, Some(tok), with.as_bytes());
                }
            }
            10 => {
                if let Some(i) = self.line_starting("comp ") {
                    let (tok, with) = (self.rng.gen_range(3..5), self.one_of(WIDE));
                    self.set_token(i, Some(tok), with.as_bytes());
                }
            }
            11 => {
                if let Some(i) = self.line_starting("ddg ") {
                    let n: i64 = String::from_utf8_lossy(&self.lines[i][4..])
                        .parse()
                        .unwrap_or(1);
                    let with = match self.rng.gen_range(0..5) {
                        0 => (n + 1).to_string(),
                        1 => (n - 1).to_string(),
                        2 => "0".into(),
                        3 => "1000000".into(),
                        _ => format!("+{n}"),
                    };
                    self.set_token(i, Some(1), with.as_bytes());
                }
            }
            12 => {
                if let Some(i) = self.line_starting("ddg ") {
                    let n: usize = String::from_utf8_lossy(&self.lines[i][4..])
                        .parse()
                        .unwrap_or(0);
                    let at = (i + 1 + self.rng.gen_range(0..n.max(1))).min(self.lines.len());
                    let with = self.one_of(BLOCK_LINES).as_bytes().to_vec();
                    if self.rng.gen_bool(0.5) && at < self.lines.len() {
                        self.lines[at] = with;
                    } else {
                        self.lines.insert(at, with);
                    }
                }
            }
            13 => {
                if let Some(i) = self.line_starting("eof ") {
                    match self.rng.gen_range(0..5) {
                        0 => {
                            self.lines.remove(i);
                        }
                        1 => self.bump_eof(i, 1),
                        2 => self.bump_eof(i, -1),
                        _ => {
                            let after =
                                self.one_of(&["key 0x1", "x", "", "eof 0", "  ", "class 0"]);
                            self.lines.push(after.as_bytes().to_vec());
                        }
                    }
                }
            }
            // A repeated record: a whole cache entry, or one line, with
            // the trailer recounted half of the time.
            14 => {
                let (start, len) = match self.line_starting("key ") {
                    Some(k) => {
                        let end = (k..self.lines.len()).find(|&j| self.lines[j] == b"end");
                        (k, end.map_or(1, |e| e + 1 - k))
                    }
                    None => (self.pick_line(), 1),
                };
                let copy: Vec<Vec<u8>> = self.lines[start..start + len].to_vec();
                let at = start + len;
                self.lines.splice(at..at, copy);
                if self.rng.gen_bool(0.5) {
                    if let Some(e) = self.line_starting("eof ") {
                        let which = self.lines[start].starts_with(b"warm ");
                        self.bump_eof_field(e, usize::from(which), 1);
                    }
                }
            }
            15 => {
                let i = self.pick_line();
                let at = self.rng.gen_range(0..=self.lines[i].len());
                let bytes = self.one_of(NOT_UTF8);
                self.lines[i].splice(at..at, bytes.iter().copied());
            }
            16 => {
                let i = self.pick_line();
                self.lines.remove(i);
            }
            17 => {
                let i = self.pick_line();
                self.lines.insert(i, self.lines[i].clone());
            }
            18 => {
                if self.lines.len() > 1 {
                    let i = self.rng.gen_range(0..self.lines.len() - 1);
                    self.lines.swap(i, i + 1);
                }
            }
            19 => {
                let i = self.pick_line();
                let spaces: Vec<usize> = (0..self.lines[i].len())
                    .filter(|&j| self.lines[i][j] == b' ')
                    .collect();
                if !spaces.is_empty() {
                    let j = spaces[self.rng.gen_range(0..spaces.len())];
                    let with = self.one_of(SPACES);
                    self.lines[i].splice(j..j + 1, with.bytes());
                }
            }
            // Arms 20 and 21 edit lines of the removed `schedtune` format.
            // A cache file has such a line only after arm 13 appends one;
            // they stay so that every case keeps its seed's input.
            20 => {
                if let Some(i) = self.line_starting("class ") {
                    let with = self.one_of(&["0", "13", "124", "125", "99", "-1"]);
                    self.set_token(i, Some(1), with.as_bytes());
                }
            }
            _ => {
                if let Some(i) = self.line_starting("warm ") {
                    let with = self.one_of(&["0", "1", "2", "9"]);
                    let toks = self.lines[i].split(|&b| b == b' ').count();
                    let t = self.rng.gen_range(2..toks);
                    self.set_token(i, Some(t), with.as_bytes());
                }
            }
        }
    }

    fn bump_eof(&mut self, i: usize, by: i64) {
        let fields = self.lines[i].split(|&b| b == b' ').count() - 1;
        let field = self.rng.gen_range(0..fields.max(1));
        self.bump_eof_field(i, field, by);
    }

    fn bump_eof_field(&mut self, i: usize, field: usize, by: i64) {
        let line = String::from_utf8_lossy(&self.lines[i]).into_owned();
        let mut toks: Vec<String> = line.split(' ').map(str::to_string).collect();
        if let Some(tok) = toks.get_mut(field + 1) {
            if let Ok(n) = tok.parse::<i64>() {
                *tok = (n + by).to_string();
            }
        }
        self.lines[i] = toks.join(" ").into_bytes();
    }

    fn bytes(mut self) -> Vec<u8> {
        if !self.rng.gen_bool(0.08) {
            for _ in 0..self.rng.gen_range(1..4) {
                self.mutate();
            }
        }
        let mut out: Vec<u8> = self
            .lines
            .iter()
            .flat_map(|l| l.iter().copied().chain([b'\n']))
            .collect();
        match self.rng.gen_range(0..20) {
            0 => out.truncate(self.rng.gen_range(0..out.len().max(1))),
            1 => {
                out.pop(); // no newline after the last line
            }
            _ => {}
        }
        out
    }
}

/// Asserts `e` is `InvalidData` naming a line of `bytes` (or the one past
/// its end, for a truncation), and a byte of that line where it names a
/// column. Returns the message after the position.
fn positioned<'a>(format: &str, e: &'a str, bytes: &[u8], what: &str) -> &'a str {
    let rest = e
        .strip_prefix(format)
        .and_then(|r| r.strip_prefix(": line "))
        .unwrap_or_else(|| panic!("{what}: unpositioned error `{e}`"));
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let line: usize = rest[..digits].parse().unwrap();
    let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    let count = lines.len() - usize::from(bytes.ends_with(b"\n") || bytes.is_empty());
    assert!(
        (1..=count + 1).contains(&line),
        "{what}: line {line} of {count}: {e}"
    );
    let rest = &rest[digits..];
    if let Some(col) = rest.strip_prefix(", column ") {
        let digits = col.bytes().take_while(u8::is_ascii_digit).count();
        let column: usize = col[..digits].parse().unwrap();
        assert!(
            line <= count && (1..=lines[line - 1].len() + 1).contains(&column),
            "{what}: column {column} of line {line}: {e}"
        );
    }
    rest
}

/// Holds the cache loader to the oracle on one file.
fn check_cache(case: u64, bytes: &[u8], tally: &mut Tally) {
    let what = format!("case {case}: {:?}", String::from_utf8_lossy(bytes));
    let old = records::load_cache(bytes).map(|c| {
        let mut out = Vec::new();
        records::save_cache(&c, &mut out).unwrap();
        (out, c.tightened)
    });
    let new = catch_unwind(AssertUnwindSafe(|| {
        ScheduleCache::load_from_reader(bytes).map(|c| {
            let mut out = Vec::new();
            c.save_to_writer(&mut out).unwrap();
            out
        })
    }))
    .unwrap_or_else(|_| panic!("{what}: the loader panicked"));
    match (old, new) {
        (Ok((old, tightened)), Ok(new)) => {
            assert!(!tightened, "{what}: a tightened class loaded");
            assert!(old == new, "{what}: saved bytes differ");
            tally.loaded += 1;
        }
        (Ok((_, true)), Err(e)) => {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}");
            positioned("schedcache", &e.to_string(), bytes, &what);
            tally.tightened += 1;
        }
        (Ok(_), Err(e)) => panic!("{what}: the oracle loads it, the product says {e}"),
        (Err(e), Ok(_)) => panic!("{what}: the oracle says {e}, the product loads it"),
        (Err(old), Err(new)) => {
            assert_eq!(new.kind(), io::ErrorKind::InvalidData, "{what}");
            let msg = new.to_string();
            let rest = positioned("schedcache", &msg, bytes, &what);
            // A text-IR error keeps the oracle's column and message; only
            // its line moves from the block's to the file's. The product
            // stops earlier past a tightened class, and calls a block cut
            // inside its last line a truncation where the oracle parsed
            // the stub.
            let old = old.to_string();
            let cut_block = rest.starts_with(": truncated file: missing ddg line");
            if let Some((_, old_tail)) = old
                .split_once(", column ")
                .filter(|_| !records::tightened() && !cut_block)
            {
                let new_tail = rest.strip_prefix(", column ");
                assert_eq!(new_tail, Some(old_tail), "{what}: {msg} vs {old}");
                tally.columns += 1;
            }
            tally.rejected += 1;
        }
    }
}

fn run_cache(cases: std::ops::Range<u64>) -> Tally {
    let seed = fixture("parent_schedcache_v1.cache");
    let mut tally = Tally::default();
    for case in cases {
        check_cache(case, &Soup::new(case, &seed).bytes(), &mut tally);
    }
    println!("schedcache: {tally:?}");
    tally
}

#[test]
fn cache_files_load_as_the_oracle_does() {
    let tally = run_cache(0..2_500);
    assert!(tally.loaded > 100, "{tally:?}");
    assert!(tally.rejected > 1_000, "{tally:?}");
    assert!(tally.tightened > 30, "{tally:?}");
    assert!(tally.columns > 10, "{tally:?}");
}

/// The persisted cache file cut at every line boundary and at every byte
/// of its first lines: a positioned error each time, never a half-load.
#[test]
fn every_cut_is_a_positioned_error() {
    let bytes = fixture("parent_schedcache_v1.cache");
    let cuts = (0..bytes.len())
        .filter(|&i| i == 0 || bytes[i - 1] == b'\n')
        .chain(1..bytes.len().min(200));
    for cut in cuts {
        let what = format!("schedcache cut at byte {cut}");
        let e = ScheduleCache::load_from_reader(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("{what}: loaded"));
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}");
        positioned("schedcache", &e.to_string(), &bytes[..cut], &what);
    }
}

/// Option tokens of both request kinds, good and bad, and frame words.
const OPTIONS: &[&str] = &[
    "scheduler=amd",
    "scheduler=batched",
    "scheduler=",
    "seed=3",
    "seed=abc",
    "seed=-1",
    "blocks=0",
    "blocks=8",
    "blocks=4294967296",
    "deadline-ms=5",
    "deadline-ms=-1",
    "unit-aprp",
    "frobnicate",
    "scale=0.1",
    "gate=1",
    "ddg",
    "7",
    "=",
    "req",
    "schedule",
    "é",
];
const COMMANDS: &[&str] = &["schedule", "suite", "stats", "flush", "bogus", "", "ddg"];
const IDS: &[&str] = &["c1", "-", "x", "ddg", "schedule", "名前", "0", "resp"];
/// Separators `split_whitespace` splits on.
const WHITE: &[&str] = &[" ", "  ", "\t", "\u{3000}", "\u{a0}", "\r"];
/// Payload lines and message fragments, including protocol look-alikes.
const TEXT: &[&str] = &[
    "",
    "instr a defs v0",
    "resp x ok 3",
    "req c1 stats",
    "a\rb",
    "\r",
    "é",
    "  ",
    "\t",
    "err",
    "ok 2",
];

fn soup_line(rng: &mut SmallRng, words: &[&str], max: usize) -> String {
    let mut line = String::new();
    for _ in 0..rng.gen_range(0..max) {
        line.push_str(WHITE[rng.gen_range(0..WHITE.len())]);
        line.push_str(words[rng.gen_range(0..words.len())]);
    }
    line
}

fn response(rng: &mut SmallRng) -> Response {
    match rng.gen_range(0..4) {
        0 => Response::Ok {
            payload: (0..rng.gen_range(0..5))
                .map(|_| TEXT[rng.gen_range(0..TEXT.len())].to_string() + "\n")
                .collect(),
        },
        1 => Response::Err {
            message: (0..rng.gen_range(0..6))
                .map(|_| [TEXT[rng.gen_range(0..TEXT.len())], "\n", " "][rng.gen_range(0..3)])
                .collect(),
        },
        2 => Response::Overloaded {
            queued: rng.gen::<u64>() as usize,
            capacity: rng.gen_range(0..300),
        },
        _ => Response::Expired {
            waited_ms: rng.gen(),
            deadline_ms: rng.gen_range(0..1000),
        },
    }
}

/// One case of the protocol properties.
fn check_protocol(case: u64) {
    let mut rng = SmallRng::seed_from_u64(case);
    // Any header: never a panic.
    let header = format!(
        "{}{}",
        ["req", "", "resp", "req req"][rng.gen_range(0..4)],
        soup_line(&mut rng, &[IDS, COMMANDS, OPTIONS].concat(), 8)
    );
    let _ = catch_unwind(|| parse_request_line(&header))
        .unwrap_or_else(|_| panic!("case {case}: parse_request_line panicked on {header:?}"));

    // A framed `schedule` header owns exactly its payload, options or not;
    // a frame out of range owns nothing.
    let (n, owned) = match rng.gen_range(0..8) {
        0 => (1, 1),
        1 => (MAX_PAYLOAD_LINES, MAX_PAYLOAD_LINES),
        2 => (0, 0),
        3 => (MAX_PAYLOAD_LINES + 1, 0),
        _ => {
            let n = rng.gen_range(1..60);
            (n, n)
        }
    };
    let mut white = || WHITE[rng.gen_range(0..WHITE.len())];
    let (a, b, c, d) = (white(), white(), white(), white());
    let id = IDS[rng.gen_range(0..IDS.len())];
    let opts = soup_line(&mut rng, OPTIONS, 6);
    let line = format!("req{a}{id}{b}schedule{opts}{c}ddg{d}{n}");
    let got = match parse_request_line(&line) {
        Ok((_, Parsed::Schedule { payload_lines, .. })) => payload_lines,
        Ok((_, other)) => panic!("case {case}: {line:?} parsed as {other:?}"),
        Err(e) => e.payload_lines,
    };
    assert_eq!(got, owned, "case {case}: {line:?}");

    // Rendered responses read back in order, then a clean end of stream.
    let sent: Vec<(String, Response)> = (0..rng.gen_range(1..6))
        .map(|_| {
            (
                IDS[rng.gen_range(0..IDS.len())].to_string(),
                response(&mut rng),
            )
        })
        .collect();
    let wire: String = sent.iter().map(|(id, r)| render_response(id, r)).collect();
    let mut reader = io::BufReader::new(wire.as_bytes());
    for (id, r) in &sent {
        let want = match r {
            Response::Err { message } => Response::Err {
                message: message.replace('\n', "; "),
            },
            other => other.clone(),
        };
        let got =
            read_response(&mut reader).unwrap_or_else(|e| panic!("case {case}: {e} on {wire:?}"));
        assert_eq!(got, Some((id.clone(), want)), "case {case}: {wire:?}");
    }
    assert_eq!(read_response(&mut reader).unwrap(), None, "case {case}");
}

#[test]
fn protocol_frames_and_round_trips() {
    for case in 0..3_000 {
        check_protocol(case);
    }
}

#[test]
#[ignore = "long run: --release -- --ignored (scripts/check.sh does)"]
fn record_formats_long() {
    let cache = run_cache(2_500..120_000);
    assert!(cache.loaded > 5_000 && cache.tightened > 1_000, "{cache:?}");
    for case in 3_000..200_000 {
        check_protocol(case);
    }
}
