//! One codec for the line formats (`schedcache v1` and the serve
//! protocol's counted payloads): [`atomic_save`], the counted-line
//! primitive [`read_lines`], the file reader [`Records`], and [`At`], which
//! makes `schedcache: line 17: bad key ...` errors and reads typed fields.

use crate::ddg::Ddg;
use crate::textir;
use std::fmt::Display;
use std::fs::File;
use std::io::{self, BufRead, BufWriter};
use std::path::Path;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes `path` atomically: `write` fills a sibling temporary file, which
/// is flushed, fsynced and renamed over the target, and the directory is
/// fsynced, so a crash mid-save (even `kill -9`) leaves the old file or the
/// new one. Every error surfaces, and removes the temporary file.
pub fn atomic_save(
    path: &Path,
    format: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let Some(file_name) = path.file_name() else {
        let msg = format!("{format}: save path has no file name");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    };
    // Unique per process and per call: concurrent saves never share a
    // temporary file, and the last rename wins with a complete file.
    static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SAVE_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!(
        ".{}.tmp.{}.{seq}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut out = BufWriter::new(File::create(&tmp)?);
        write(&mut out)?;
        out.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_all()?;
        std::fs::rename(&tmp, path)?;
        // The rename is durable once the directory holding it is synced.
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Appends the next `lines` lines of `reader` to `buf`, newlines included:
/// `Ok(true)` once the last newline is in, `Ok(false)` when the input ends
/// first (what arrived stays in `buf`) or `stop` says to give up. A read
/// that times out, would block or is interrupted asks `stop` and carries on
/// mid-line: the daemon's socket reads time out so that it notices a
/// shutdown. Files and clients pass a `stop` that is never true.
pub fn read_lines(
    reader: &mut impl BufRead,
    lines: usize,
    buf: &mut Vec<u8>,
    stop: impl Fn() -> bool,
) -> io::Result<bool> {
    use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    for _ in 0..lines {
        loop {
            match reader.read_until(b'\n', buf) {
                Ok(n) if n > 0 && buf.ends_with(b"\n") => break,
                Ok(_) => return Ok(false),
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {
                    if stop() {
                        return Ok(false);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
    Ok(true)
}

/// A line of a named format: its errors and typed fields.
#[derive(Debug, Clone, Copy)]
pub struct At {
    format: &'static str,
    line: usize,
}

impl At {
    /// The `InvalidData` error `<format>: line <n>: <msg>`.
    pub fn err(self, msg: impl Display) -> io::Error {
        let msg = format!("{}: line {}: {msg}", self.format, self.line);
        io::Error::new(io::ErrorKind::InvalidData, msg)
    }

    fn bad(self, what: &str, tok: &str, e: impl Display) -> io::Error {
        self.err(format_args!("bad {what} `{tok}`: {e}"))
    }

    /// A decimal field at its declared width (`str::parse`: an optional
    /// `+`, a `-` only where `T` is signed).
    pub fn num<T: FromStr<Err: Display>>(self, tok: &str, what: &str) -> io::Result<T> {
        tok.parse().map_err(|e| self.bad(what, tok, e))
    }

    /// The white-space separated fields of `text`, which must number `n`.
    pub fn fields<'t>(self, text: &'t str, n: usize, what: &str) -> io::Result<Vec<&'t str>> {
        let fields: Vec<&str> = text.split_whitespace().collect();
        match fields.len() {
            len if len == n => Ok(fields),
            len => Err(self.err(format_args!("{what} expects {n} fields, got {len}"))),
        }
    }

    /// A hexadecimal `u64`, after any number of leading `0x`.
    pub fn hex_u64(self, tok: &str, what: &str) -> io::Result<u64> {
        u64::from_str_radix(tok.trim_start_matches("0x"), 16).map_err(|e| self.bad(what, tok, e))
    }

    /// An `f64` written as the hexadecimal of its bits, with no `0x`.
    pub fn f64_bits(self, tok: &str, what: &str) -> io::Result<f64> {
        let bits = u64::from_str_radix(tok, 16).map_err(|e| self.bad(what, tok, e))?;
        Ok(f64::from_bits(bits))
    }
}

/// A flag field: anything but `0` is set.
pub fn flag(tok: &str) -> bool {
    tok != "0"
}

/// One line of a file, without its line end, and where it sits.
#[derive(Debug, Clone, Copy)]
pub struct Line<'a> {
    /// The line's text.
    pub text: &'a str,
    /// Its position.
    pub at: At,
}

impl<'a> Line<'a> {
    /// The trimmed line after `keyword` (which carries its separating
    /// space), or an error naming what was expected.
    pub fn after(&self, keyword: &str) -> io::Result<&'a str> {
        let text = self.text;
        (text.trim().strip_prefix(keyword)).ok_or_else(|| {
            self.at
                .err(format_args!("expected `{keyword}...`, got `{text}`"))
        })
    }
}

/// A streaming reader over a line-format file: one reused byte buffer,
/// lines numbered from 1, `\n` or `\r\n` stripped, a last line without a
/// newline still a line, a non-UTF-8 line an error at its number.
pub struct Records<R> {
    reader: R,
    buf: Vec<u8>,
    /// The line in `buf`.
    at: At,
}

impl<R: BufRead> Records<R> {
    /// A reader for the format named `format` in its errors.
    pub fn new(reader: R, format: &'static str) -> Records<R> {
        let at = At { format, line: 0 };
        Records {
            reader,
            buf: Vec::new(),
            at,
        }
    }

    /// Reads the next line into the buffer; `false` at the end of the input.
    fn advance(&mut self) -> io::Result<bool> {
        self.buf.clear();
        let whole = read_lines(&mut self.reader, 1, &mut self.buf, || false)?;
        self.at.line += 1;
        Ok(whole || !self.buf.is_empty())
    }

    fn current(&self) -> io::Result<Line<'_>> {
        let bytes = match self.buf.strip_suffix(b"\n") {
            Some(bytes) => bytes.strip_suffix(b"\r").unwrap_or(bytes),
            None => &self.buf,
        };
        let text = std::str::from_utf8(bytes).map_err(|_| self.at.err("not UTF-8"))?;
        Ok(Line { text, at: self.at })
    }

    /// The next line; the end of the input is an error naming `what` is
    /// missing.
    pub fn expect_line(&mut self, what: &str) -> io::Result<Line<'_>> {
        if !self.advance()? {
            return Err(self.at.err(format_args!("truncated file: missing {what}")));
        }
        self.current()
    }

    /// The next line that is not blank, as [`Self::expect_line`].
    pub fn expect_record(&mut self, what: &str) -> io::Result<Line<'_>> {
        while self.expect_line(what)?.text.trim().is_empty() {}
        self.current()
    }

    /// Reads the `n` lines of text IR after a `ddg <n>` line and parses them
    /// where they lie in the buffer. A parse error keeps its column and gets
    /// the file's line; a region-wide one (a cycle) gets the `ddg` line's.
    pub fn ddg_block(&mut self, n: usize) -> io::Result<Ddg> {
        let (header, buf) = (self.at, &mut self.buf);
        buf.clear();
        let whole = read_lines(&mut self.reader, n, buf, || false)?;
        let at = |end: usize| {
            let line = header.line + 1 + buf[..end].iter().filter(|&&b| b == b'\n').count();
            At { line, ..header }
        };
        if !whole {
            return Err(at(buf.len()).err("truncated file: missing ddg line"));
        }
        let text = std::str::from_utf8(buf).map_err(|e| at(e.valid_up_to()).err("not UTF-8"))?;
        let ddg = textir::parse(text).map_err(|e| {
            let line = header.line + e.line;
            let pos = match e.col {
                0 => format!("line {line}"),
                col => format!("line {line}, column {col}"),
            };
            let msg = format!("{}: {pos}: {}", header.format, e.message);
            io::Error::new(io::ErrorKind::InvalidData, msg)
        })?;
        self.at.line += n;
        Ok(ddg)
    }

    /// Checks that nothing but blank lines follows the `eof` trailer.
    pub fn finish(mut self) -> io::Result<()> {
        while self.advance()? {
            let line = self.current()?;
            if !line.text.trim().is_empty() {
                return Err(line.at.err("content after `eof` trailer"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that times out once before every byte it hands over, as
    /// the daemon's sockets do between a client's writes.
    struct Stuttering<'a> {
        bytes: &'a [u8],
        ready: bool,
    }

    impl io::Read for Stuttering<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.ready = !self.ready;
            if !self.ready {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.bytes.len()).min(1);
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_lines_counts_newlines_across_timeouts_and_stops_on_request() {
        let mut r = io::BufReader::new(Stuttering {
            bytes: b"a\nbc\nd",
            ready: false,
        });
        let mut buf = Vec::new();
        assert!(read_lines(&mut r, 2, &mut buf, || false).unwrap());
        assert_eq!(buf, b"a\nbc\n");
        buf.clear();
        // The input ends inside a line: what arrived stays in the buffer.
        assert!(!read_lines(&mut r, 1, &mut buf, || false).unwrap());
        assert_eq!(buf, b"d");
        let mut r = io::BufReader::new(Stuttering {
            bytes: b"never read",
            ready: false,
        });
        assert!(!read_lines(&mut r, 1, &mut Vec::new(), || true).unwrap());
        assert!(read_lines(&mut r, 0, &mut Vec::new(), || true).unwrap());
    }

    #[test]
    fn records_number_lines_strip_line_ends_and_count_a_last_unterminated_line() {
        let mut r = Records::new(&b"one\r\n\n \ttwo\nthree"[..], "fmt");
        let line = r.expect_line("first").unwrap();
        assert_eq!((line.text, line.at.line), ("one", 1));
        let line = r.expect_record("second").unwrap();
        assert_eq!((line.text, line.at.line), (" \ttwo", 3));
        assert_eq!(
            line.after("one ").unwrap_err().to_string(),
            "fmt: line 3: expected `one ...`, got ` \ttwo`"
        );
        assert_eq!(r.expect_line("third").unwrap().text, "three");
        let err = r.expect_line("fourth").unwrap_err();
        assert_eq!(
            err.to_string(),
            "fmt: line 5: truncated file: missing fourth"
        );
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // After a trailer only blank lines may follow.
        assert!(Records::new(&b"\n \t\n\r\n"[..], "fmt").finish().is_ok());
        let err = Records::new(&b"\n\nx\n"[..], "fmt").finish().unwrap_err();
        assert_eq!(err.to_string(), "fmt: line 3: content after `eof` trailer");
    }

    #[test]
    fn fields_parse_at_their_width() {
        let at = At {
            format: "fmt",
            line: 7,
        };
        assert_eq!(at.num::<u32>("+4294967295", "n").unwrap(), u32::MAX);
        assert_eq!(
            at.num::<u32>("4294967296", "n").unwrap_err().to_string(),
            "fmt: line 7: bad n `4294967296`: number too large to fit in target type"
        );
        assert_eq!(at.hex_u64("0x0x1f", "h").unwrap(), 0x1f);
        assert!(at.hex_u64("10000000000000000", "h").is_err());
        assert_eq!(at.f64_bits("3ff0000000000000", "f").unwrap(), 1.0);
        assert!(at.f64_bits("0x3ff0000000000000", "f").is_err());
        assert!(flag("00") && flag("x") && !flag("0"));
    }

    #[test]
    fn a_ddg_block_parses_in_place_and_reports_file_positions() {
        let text = b"ddg 2\ninstr a defs v0\ninstr b uses v0\r\nedge 0 1 1\n";
        let mut r = Records::new(&text[..], "fmt");
        r.expect_line("ddg").unwrap();
        assert_eq!(r.ddg_block(2).unwrap().len(), 2);
        assert_eq!(r.expect_line("edge").unwrap().at.line, 4);
        for (text, want) in [
            (
                &b"x\ninstr a\ninstr b defs q1\n"[..],
                "fmt: line 3, column 14: bad register class in `q1` (expected v<N> or s<N>)",
            ),
            (
                b"x\ninstr a\nedge 0 0 1\n",
                "fmt: line 3, column 1: self edge on instruction i0",
            ),
            (b"x\ninstr a\n\xff\n", "fmt: line 3: not UTF-8"),
            (
                b"x\ninstr a\ninstr b",
                "fmt: line 3: truncated file: missing ddg line",
            ),
        ] {
            let mut r = Records::new(text, "fmt");
            r.expect_line("ddg").unwrap();
            let err = r.ddg_block(2).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn atomic_save_replaces_whole_files_and_cleans_up_after_a_failure() {
        let dir = std::env::temp_dir().join(format!("record_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store");
        atomic_save(&path, "fmt", |out| io::Write::write_all(out, b"one\n")).unwrap();
        let failed = atomic_save(&path, "fmt", |out| {
            io::Write::write_all(out, b"half")?;
            Err(io::ErrorKind::StorageFull.into())
        });
        assert_eq!(failed.unwrap_err().kind(), io::ErrorKind::StorageFull);
        assert_eq!(std::fs::read(&path).unwrap(), b"one\n");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "temp file leaked"
        );
        let err = atomic_save(Path::new("/"), "fmt", |_| Ok(())).unwrap_err();
        assert_eq!(err.to_string(), "fmt: save path has no file name");
        std::fs::remove_dir_all(&dir).ok();
    }
}
