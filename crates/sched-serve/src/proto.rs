//! The line-delimited serve protocol.
//!
//! Requests and responses are newline-framed UTF-8, one header line plus
//! an optional counted payload, so the protocol runs unchanged over stdio
//! and Unix sockets and stays greppable in captures:
//!
//! ```text
//! req <id> schedule [scheduler=amd|cp|seq|par] [seed=N] [blocks=N]
//!                   [unit-aprp] [deadline-ms=N] ddg <nlines>
//! <nlines of text-IR>
//! req <id> suite [scheduler=amd|cp|seq|par|batched] [seed=N] [scale=F]
//!                [blocks=N] [gate=N] [unit-aprp] [deadline-ms=N]
//! req <id> stats
//! req <id> flush
//! ```
//!
//! `<id>` is an arbitrary whitespace-free client token echoed on the
//! response, so responses can interleave across outstanding requests of
//! one connection in completion order. Responses:
//!
//! ```text
//! resp <id> ok <nlines>
//! <nlines of payload>
//! resp <id> err <one-line message>
//! resp <id> overloaded <queued> <capacity>
//! resp <id> expired <waited-ms> <deadline-ms>
//! ```
//!
//! Admission is parse → cache lookup → answer or queue: a `schedule`
//! request whose region is already in the shared cache is answered on the
//! connection thread and never queues, so it can be neither `overloaded`
//! nor `expired`. `overloaded` is the typed admission-control rejection of
//! a request that needed a compile (the bounded queue was full; it was
//! **not** enqueued); `expired` means a request was queued but its
//! `deadline-ms` elapsed before a worker started it.
//!
//! [`ScheduleOpts`] owns a single-region request, the daemon's and the
//! CLI's alike: `gpu-aco-cli schedule` and `verify` parse their flags with
//! [`ScheduleOpts::set`] and compile under [`ScheduleOpts::config`], so the
//! defaults (`scheduler=par seed=0 blocks=32`), validation and error text
//! are one, and a `schedule` reply's payload is byte-for-byte what
//! `gpu-aco-cli schedule <region>` prints with the same options. A `suite`
//! request's defaults (`scale=0.008 blocks=4 gate=1`) mirror the
//! golden-fingerprint suite configuration, so `suite seed=5` must report
//! the pinned `SUITE_GOLDEN` fingerprint of `sched-verify`.

use machine_model::OccupancyModel;
use pipeline::{PipelineConfig, SchedulerKind};
use sched_ir::record::read_lines;
use std::io::{self, BufRead};
use std::str::SplitWhitespace;

/// Hard cap on a `schedule` request's text-IR payload, lines. Bounds the
/// memory one request can pin while queued.
pub const MAX_PAYLOAD_LINES: usize = 100_000;

/// Hard cap on a `suite` request's workload scale (the full paper suite is
/// `1.0`; the wall-clock bench runs `0.02`). Bounds the work one request
/// can enqueue.
pub const MAX_SUITE_SCALE: f64 = 0.1;

/// Options of a `schedule` request, and of `gpu-aco-cli schedule` and
/// `verify` for the kinds they share with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleOpts {
    /// Scheduler kind (cache-persistable kinds only: amd, cp, seq, par).
    pub scheduler: SchedulerKind,
    /// ACO seed.
    pub seed: u64,
    /// Colony blocks.
    pub blocks: u32,
    /// Use the unit occupancy model instead of the Vega-like one.
    pub unit_aprp: bool,
    /// Queue-wait deadline, milliseconds from arrival.
    pub deadline_ms: Option<u64>,
}

impl Default for ScheduleOpts {
    fn default() -> ScheduleOpts {
        ScheduleOpts {
            scheduler: SchedulerKind::ParallelAco,
            seed: 0,
            blocks: 32,
            unit_aprp: false,
            deadline_ms: None,
        }
    }
}

impl ScheduleOpts {
    /// Applies one option: a request's `key=value` token, or `key` alone
    /// for a switch (`value` is `None`). The CLI passes its `--key value`
    /// flags here too, so both front doors validate alike.
    pub fn set(&mut self, key: &str, value: Option<&str>) -> Result<(), String> {
        match (key, value) {
            ("scheduler", Some(v)) => self.scheduler = scheduler_kind(v, false)?,
            ("seed", Some(v)) => self.seed = v.parse().map_err(|_| "bad seed")?,
            ("blocks", Some(v)) => self.blocks = parse_blocks(v)?,
            ("deadline-ms", Some(v)) => {
                self.deadline_ms = Some(v.parse().map_err(|_| "bad deadline-ms")?);
            }
            ("unit-aprp", None) => self.unit_aprp = true,
            (_, Some(v)) => return Err(format!("unknown schedule option `{key}={v}`")),
            (_, None) => return Err(format!("unknown schedule option `{key}`")),
        }
        Ok(())
    }

    /// The occupancy model and pipeline configuration the region compiles
    /// under: the paper's configuration for the kind and seed, with the
    /// colony's blocks.
    pub fn config(&self) -> (OccupancyModel, PipelineConfig) {
        let mut cfg = PipelineConfig::paper(self.scheduler, self.seed);
        cfg.aco.blocks = self.blocks;
        (occupancy_model(self.unit_aprp), cfg)
    }
}

/// The unit occupancy model under `unit-aprp`, the Vega-like one otherwise.
pub(crate) fn occupancy_model(unit_aprp: bool) -> OccupancyModel {
    if unit_aprp {
        OccupancyModel::unit()
    } else {
        OccupancyModel::vega_like()
    }
}

/// Options of a `suite` request; defaults mirror the golden-fingerprint
/// suite configuration (`SuiteConfig::scaled(seed, 0.008)`, 4 blocks,
/// pass-2 gate 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteOpts {
    /// Scheduler kind (any, including batched).
    pub scheduler: SchedulerKind,
    /// Workload-generator seed.
    pub seed: u64,
    /// Workload scale in `(0, MAX_SUITE_SCALE]`.
    pub scale: f64,
    /// Colony blocks.
    pub blocks: u32,
    /// Pass-2 gate threshold, cycles.
    pub gate: u32,
    /// Use the unit occupancy model instead of the Vega-like one.
    pub unit_aprp: bool,
    /// Queue-wait deadline, milliseconds from arrival.
    pub deadline_ms: Option<u64>,
}

impl Default for SuiteOpts {
    fn default() -> SuiteOpts {
        SuiteOpts {
            scheduler: SchedulerKind::ParallelAco,
            seed: 0,
            scale: 0.008,
            blocks: 4,
            gate: 1,
            unit_aprp: false,
            deadline_ms: None,
        }
    }
}

/// A parsed request header (the payload, if any, follows on the wire).
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed {
    /// `schedule`: `payload_lines` lines of text-IR follow the header.
    Schedule {
        /// Request options.
        opts: ScheduleOpts,
        /// Number of text-IR payload lines that follow.
        payload_lines: usize,
    },
    /// `suite`: compile a generated workload suite.
    Suite(SuiteOpts),
    /// `stats`: report counters and latencies.
    Stats,
    /// `flush`: persist the shared cache now.
    Flush,
}

/// A request line that could not be parsed; `id` is recovered when the
/// line got far enough to carry one, so the error response can still be
/// correlated.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseErr {
    /// The request id, when recoverable.
    pub id: Option<String>,
    /// What was wrong.
    pub msg: String,
    /// Payload lines that follow the rejected header on the wire: the
    /// count of a `schedule` header whose `ddg <n>` frame parsed but whose
    /// options did not, 0 otherwise. The reader must discard them, or each
    /// would be read as a request of its own.
    pub payload_lines: usize,
}

fn perr(id: Option<&str>, msg: impl Into<String>) -> ParseErr {
    ParseErr {
        id: id.map(str::to_string),
        msg: msg.into(),
        payload_lines: 0,
    }
}

/// The kind a `scheduler=` value names; `batched` only where a batch
/// group exists (`suite`), never for a solo region.
fn scheduler_kind(name: &str, allow_batched: bool) -> Result<SchedulerKind, String> {
    match SchedulerKind::from_short_name(name) {
        Some(SchedulerKind::BatchedParallelAco) if !allow_batched => None,
        kind => kind,
    }
    .ok_or_else(|| format!("unknown scheduler `{name}`"))
}

/// Parses one request header line.
pub fn parse_request_line(line: &str) -> Result<(String, Parsed), ParseErr> {
    let mut toks = line.split_whitespace();
    if toks.next() != Some("req") {
        return Err(perr(None, "expected `req <id> <command> ...`"));
    }
    let id = toks
        .next()
        .ok_or_else(|| perr(None, "missing request id"))?;
    let cmd = toks
        .next()
        .ok_or_else(|| perr(Some(id), "missing command"))?;
    let parsed = match cmd {
        "stats" => {
            if toks.next().is_some() {
                return Err(perr(Some(id), "stats takes no options"));
            }
            Parsed::Stats
        }
        "flush" => {
            if toks.next().is_some() {
                return Err(perr(Some(id), "flush takes no options"));
            }
            Parsed::Flush
        }
        "schedule" => parse_schedule(id, toks)?,
        "suite" => Parsed::Suite(parse_suite_opts(toks).map_err(|msg| perr(Some(id), msg))?),
        other => return Err(perr(Some(id), format!("unknown command `{other}`"))),
    };
    Ok((id.to_string(), parsed))
}

fn parse_schedule(id: &str, mut opts: SplitWhitespace) -> Result<Parsed, ParseErr> {
    // The trailing `ddg <nlines>` marker is mandatory: it frames the
    // payload that follows.
    let marker = match (opts.next_back(), opts.next_back()) {
        (Some(n), Some("ddg")) => n,
        _ => {
            return Err(perr(
                Some(id),
                "schedule must end with `ddg <payload lines>`",
            ))
        }
    };
    let payload_lines: usize = marker
        .parse()
        .map_err(|_| perr(Some(id), "bad ddg payload line count"))?;
    if payload_lines == 0 || payload_lines > MAX_PAYLOAD_LINES {
        return Err(perr(
            Some(id),
            format!("ddg payload must be 1..={MAX_PAYLOAD_LINES} lines"),
        ));
    }
    // From here on the frame is known: a bad option still owns its payload.
    let opts = parse_schedule_opts(opts).map_err(|msg| ParseErr {
        payload_lines,
        ..perr(Some(id), msg)
    })?;
    Ok(Parsed::Schedule {
        opts,
        payload_lines,
    })
}

fn parse_schedule_opts(opts: SplitWhitespace) -> Result<ScheduleOpts, String> {
    let mut o = ScheduleOpts::default();
    for tok in opts {
        match tok.split_once('=') {
            Some((key, value)) => o.set(key, Some(value))?,
            None => o.set(tok, None)?,
        }
    }
    Ok(o)
}

fn parse_suite_opts(opts: SplitWhitespace) -> Result<SuiteOpts, String> {
    let mut o = SuiteOpts::default();
    for tok in opts {
        match tok.split_once('=') {
            Some(("scheduler", v)) => o.scheduler = scheduler_kind(v, true)?,
            Some(("seed", v)) => o.seed = v.parse().map_err(|_| "bad seed")?,
            Some(("scale", v)) => {
                o.scale = v.parse().map_err(|_| "bad scale")?;
                if !(o.scale > 0.0 && o.scale <= MAX_SUITE_SCALE) {
                    return Err(format!("scale must be in (0, {MAX_SUITE_SCALE}]"));
                }
            }
            Some(("blocks", v)) => o.blocks = parse_blocks(v)?,
            Some(("gate", v)) => o.gate = v.parse().map_err(|_| "bad gate")?,
            Some(("deadline-ms", v)) => {
                o.deadline_ms = Some(v.parse().map_err(|_| "bad deadline-ms")?);
            }
            None if tok == "unit-aprp" => o.unit_aprp = true,
            _ => return Err(format!("unknown suite option `{tok}`")),
        }
    }
    Ok(o)
}

fn parse_blocks(v: &str) -> Result<u32, String> {
    let blocks: u32 = v.parse().map_err(|_| "bad blocks".to_string())?;
    if blocks == 0 {
        return Err("blocks must be positive".into());
    }
    Ok(blocks)
}

/// A response to one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success; `payload` is newline-terminated text.
    Ok {
        /// The response body (for `schedule`: byte-identical to the
        /// one-shot CLI's stdout for the same input).
        payload: String,
    },
    /// The request failed (parse error, invalid region, internal error).
    Err {
        /// One-line description.
        message: String,
    },
    /// Typed admission-control rejection: the bounded queue was full and
    /// the request was not enqueued. Retry later.
    Overloaded {
        /// Items queued at rejection time.
        queued: usize,
        /// The queue's capacity.
        capacity: usize,
    },
    /// The request waited in the queue past its `deadline-ms`.
    Expired {
        /// How long the request actually waited, milliseconds.
        waited_ms: u64,
        /// The deadline it carried, milliseconds.
        deadline_ms: u64,
    },
}

/// Renders a response for the wire. `Ok` payloads are counted and framed;
/// error messages are flattened to one line.
pub fn render_response(id: &str, resp: &Response) -> String {
    match resp {
        Response::Ok { payload } => {
            debug_assert!(payload.is_empty() || payload.ends_with('\n'));
            format!("resp {id} ok {}\n{payload}", payload.lines().count())
        }
        Response::Err { message } => {
            format!("resp {id} err {}\n", message.replace('\n', "; "))
        }
        Response::Overloaded { queued, capacity } => {
            format!("resp {id} overloaded {queued} {capacity}\n")
        }
        Response::Expired {
            waited_ms,
            deadline_ms,
        } => format!("resp {id} expired {waited_ms} {deadline_ms}\n"),
    }
}

/// Reads one response (header plus counted payload) from `reader` — the
/// client side of the protocol, through the daemon's own counted-line
/// primitive. Returns the echoed request id and the parsed response, an
/// `err` message exactly as rendered; `Ok(None)` on a clean end of stream.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Option<(String, Response)>> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, format!("serve: {msg}"));
    let mut header = Vec::new();
    if !read_lines(reader, 1, &mut header, || false)? && header.is_empty() {
        return Ok(None);
    }
    let line = std::str::from_utf8(&header).map_err(|_| bad("response line is not UTF-8"))?;
    let line = line.strip_suffix('\n').unwrap_or(line);
    // `resp <id> <kind> <rest>`: the rest of an `err` line is its message.
    let mut parts = line.splitn(4, ' ');
    let (Some("resp"), Some(id), Some(kind)) = (parts.next(), parts.next(), parts.next()) else {
        return Err(bad(&format!("malformed response line `{}`", line.trim())));
    };
    let rest = parts.next().unwrap_or("");
    let resp = match kind {
        "ok" => {
            let n: usize = rest.trim().parse().map_err(|_| bad("bad ok line count"))?;
            let mut payload = Vec::new();
            if !read_lines(reader, n, &mut payload, || false)? {
                return Err(bad("truncated ok payload"));
            }
            let payload = String::from_utf8(payload).map_err(|_| bad("ok payload is not UTF-8"))?;
            Response::Ok { payload }
        }
        "err" => Response::Err {
            message: rest.to_string(),
        },
        "overloaded" => {
            let (queued, capacity) = two(rest).ok_or_else(|| bad("bad overloaded response"))?;
            Response::Overloaded { queued, capacity }
        }
        "expired" => {
            let (waited_ms, deadline_ms) = two(rest).ok_or_else(|| bad("bad expired response"))?;
            Response::Expired {
                waited_ms,
                deadline_ms,
            }
        }
        other => return Err(bad(&format!("unknown response kind `{other}`"))),
    };
    Ok(Some((id.to_string(), resp)))
}

/// The first two numbers of an `overloaded` or `expired` line.
fn two<T: std::str::FromStr>(rest: &str) -> Option<(T, T)> {
    let mut fields = rest.split_whitespace().map(|t| t.parse().ok());
    Some((fields.next()??, fields.next()??))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_requests_parse_with_defaults_and_options() {
        let (id, p) = parse_request_line("req r1 schedule ddg 12").unwrap();
        assert_eq!(id, "r1");
        assert_eq!(
            p,
            Parsed::Schedule {
                opts: ScheduleOpts::default(),
                payload_lines: 12
            }
        );
        let (_, p) = parse_request_line(
            "req 7 schedule scheduler=amd seed=3 blocks=8 unit-aprp deadline-ms=250 ddg 4",
        )
        .unwrap();
        let Parsed::Schedule {
            opts,
            payload_lines,
        } = p
        else {
            panic!("not a schedule: {p:?}")
        };
        assert_eq!(payload_lines, 4);
        assert_eq!(opts.scheduler, SchedulerKind::BaseAmd);
        assert_eq!((opts.seed, opts.blocks), (3, 8));
        assert!(opts.unit_aprp);
        assert_eq!(opts.deadline_ms, Some(250));
    }

    #[test]
    fn suite_stats_flush_parse() {
        let (_, p) =
            parse_request_line("req a suite seed=5 scale=0.008 scheduler=batched gate=1").unwrap();
        let Parsed::Suite(o) = p else { panic!() };
        assert_eq!(o.scheduler, SchedulerKind::BatchedParallelAco);
        assert_eq!(o.seed, 5);
        assert_eq!(parse_request_line("req b stats").unwrap().1, Parsed::Stats);
        assert_eq!(parse_request_line("req c flush").unwrap().1, Parsed::Flush);
    }

    #[test]
    fn malformed_requests_are_rejected_with_recovered_ids() {
        // No id recoverable.
        assert_eq!(parse_request_line("nonsense").unwrap_err().id, None);
        // Id recoverable once present.
        let e = parse_request_line("req x bogus-cmd").unwrap_err();
        assert_eq!(e.id.as_deref(), Some("x"));
        // schedule needs the ddg payload marker.
        assert!(parse_request_line("req x schedule").is_err());
        assert!(parse_request_line("req x schedule ddg 0").is_err());
        assert!(parse_request_line("req x schedule ddg many").is_err());
        // batched is suite-only (a solo region has no batch group).
        assert!(parse_request_line("req x schedule scheduler=batched ddg 3").is_err());
        // Bounded scale.
        assert!(parse_request_line("req x suite scale=0.5").is_err());
        assert!(parse_request_line("req x suite scale=0").is_err());
        assert!(parse_request_line("req x suite blocks=0").is_err());
        assert!(parse_request_line("req x stats extra").is_err());
    }

    #[test]
    fn a_bad_option_behind_a_good_frame_still_owns_its_payload() {
        // The frame parsed: the error carries its line count, so the reader
        // can skip the payload instead of reading it as requests.
        for (line, msg) in [
            ("req c1 schedule seed=abc ddg 3", "bad seed"),
            ("req c1 schedule blocks=0 ddg 3", "blocks must be positive"),
            (
                "req c1 schedule frobnicate ddg 3",
                "unknown schedule option `frobnicate`",
            ),
            (
                "req c1 schedule scheduler=batched ddg 3",
                "unknown scheduler `batched`",
            ),
            ("req c1 schedule deadline-ms=-1 ddg 3", "bad deadline-ms"),
        ] {
            let e = parse_request_line(line).unwrap_err();
            assert_eq!(
                (e.id.as_deref(), e.msg.as_str(), e.payload_lines),
                (Some("c1"), msg, 3),
                "{line}"
            );
        }
        // No frame, or a malformed one: nothing is known to follow.
        for line in [
            "req c1 schedule seed=abc",
            "req c1 schedule seed=abc ddg",
            "req c1 schedule seed=abc ddg 0",
            "req c1 schedule seed=abc ddg many",
            "req c1 schedule seed=abc ddg 100001",
            "req c1 suite seed=abc",
            "req c1 bogus ddg 3",
        ] {
            assert_eq!(
                parse_request_line(line).unwrap_err().payload_lines,
                0,
                "{line}"
            );
        }
    }

    #[test]
    fn responses_roundtrip_through_render_and_read() {
        let cases = [
            (
                "r1",
                Response::Ok {
                    payload: "line one\nline two\n".into(),
                },
            ),
            (
                "r2",
                Response::Err {
                    message: "parse failed: bad edge".into(),
                },
            ),
            (
                "r3",
                Response::Overloaded {
                    queued: 9,
                    capacity: 8,
                },
            ),
            (
                "r4",
                Response::Expired {
                    waited_ms: 120,
                    deadline_ms: 100,
                },
            ),
        ];
        let mut wire = String::new();
        for (id, r) in &cases {
            wire.push_str(&render_response(id, r));
        }
        let mut reader = io::BufReader::new(wire.as_bytes());
        for (id, r) in &cases {
            let (got_id, got) = read_response(&mut reader).unwrap().unwrap();
            assert_eq!(&got_id, id);
            assert_eq!(&got, r);
        }
        assert!(read_response(&mut reader).unwrap().is_none());
    }

    #[test]
    fn multiline_error_messages_are_flattened() {
        let r = Response::Err {
            message: "two\nlines".into(),
        };
        let wire = render_response("x", &r);
        assert_eq!(wire, "resp x err two; lines\n");
    }
}
