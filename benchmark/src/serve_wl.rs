//! The serve workloads: `serve-mix` and `serve-warm` against an
//! in-process `sched_serve::Server`.
//!
//! **Closed loop.** Callers of a compile daemon wait for their reply, so
//! each of the `min(nproc, 4)` client connections has exactly one request
//! outstanding: it sends the next request only when the previous reply has
//! been read to its last payload byte. Connections are the two ends of a
//! `UnixStream::pair()`, the daemon's end served by `handle_connection` —
//! the daemon's real read loop, framing and worker pool, without a socket
//! file.

use crate::inputs::{self, Opts, Request, SplitMix64};
use crate::layers::{self, Counts};
use crate::report::Report;
use crate::stats::{self, Summary};
use crate::suite_wl::{modeled_sched_s, peak_rss_mb, timed_passes, Timed};
use crate::trace::{spanned, Band, SharedTracer, Tracer};
use pipeline::{compile_region, compile_suite, SchedulerKind};
use sched_serve::{handle_connection, read_response, render, Response, ServeConfig, Server};
use std::cell::RefCell;
use std::hint::black_box;
use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// The daemon's default queue of 256 refuses a `suite` request that plans
/// more jobs than that; a benchmark workload may not be refused.
const QUEUE_CAPACITY: usize = 4096;

/// Freshly booted daemons the trace run of `serve-mix` drains the cold
/// phase on: with 40 requests each, 200 pooled latency samples, so ten lie
/// beyond p95.
const COLD_DRAINS: usize = 5;

/// One client connection: the benchmark's end of a socket pair.
struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

/// A booted daemon with its client connections.
struct Session {
    server: Server,
    conns: Vec<Conn>,
    handlers: Vec<JoinHandle<()>>,
}

impl Session {
    /// Boots a daemon with `threads` workers and connects `threads`
    /// clients to it.
    fn boot(threads: usize) -> std::io::Result<Session> {
        let server = Server::start(ServeConfig {
            workers: threads,
            queue_capacity: QUEUE_CAPACITY,
            cache_path: None,
            tune: false,
            tune_path: None,
        })?;
        let mut conns = Vec::with_capacity(threads);
        let mut handlers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (client, daemon) = UnixStream::pair()?;
            let daemon_reader = BufReader::new(daemon.try_clone()?);
            let engine = Arc::clone(server.engine());
            handlers.push(std::thread::spawn(move || {
                handle_connection(&engine, daemon_reader, Box::new(daemon));
            }));
            conns.push(Conn {
                reader: BufReader::new(client.try_clone()?),
                writer: client,
            });
        }
        Ok(Session {
            server,
            conns,
            handlers,
        })
    }

    /// Closes every connection, waits for the daemon's connection threads
    /// and drains the daemon. Returns whether everything ended cleanly.
    fn shutdown(self) -> bool {
        for c in &self.conns {
            let _ = c.writer.shutdown(std::net::Shutdown::Both);
        }
        drop(self.conns);
        let joined = self.handlers.into_iter().all(|h| h.join().is_ok());
        self.server.shutdown().is_ok() && joined
    }
}

/// Boots a session; a daemon that does not boot is a failed operation.
fn boot(threads: usize, report: &mut Report) -> Option<Session> {
    match Session::boot(threads) {
        Ok(session) => Some(session),
        Err(e) => {
            report.op(false, || format!("daemon boot failed: {e}"));
            None
        }
    }
}

/// Shuts a session down; so is one that does not drain cleanly.
fn shut_down(session: Session, report: &mut Report) {
    report.op(session.shutdown(), || {
        "daemon did not shut down cleanly".into()
    });
}

/// One answered request.
struct Reply {
    /// Index into the request set.
    index: usize,
    start: Instant,
    end: Instant,
    /// The echoed id and the response, or the transport error.
    response: Result<(String, Response), String>,
}

impl Reply {
    fn latency_ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Sends one request and reads its reply to the last payload byte.
fn exchange(conn: &mut Conn, index: usize, wire: &str) -> Reply {
    let start = Instant::now();
    let response = conn
        .writer
        .write_all(wire.as_bytes())
        .and_then(|()| read_response(&mut conn.reader))
        .map_err(|e| e.to_string())
        .and_then(|r| r.ok_or_else(|| "connection closed before the reply".to_string()));
    Reply {
        index,
        start,
        end: Instant::now(),
        response,
    }
}

/// Runs `work(worker, slot)` for every slot in `0..n` on one thread per
/// worker, each worker claiming the next unclaimed slot when its previous
/// one is done. Results come back in no particular order.
fn pull<W: Send, R: Send>(
    workers: impl IntoIterator<Item = W>,
    n: usize,
    work: impl Fn(&mut W, usize) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut worker| {
                let (next, work) = (&next, &work);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        if slot >= n {
                            return mine;
                        }
                        mine.push(work(&mut worker, slot));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// Drives `order` (indices into `requests`) through the connections in a
/// closed loop: each connection takes the next unsent request when its
/// previous reply is complete. Returns the wall seconds and every reply,
/// in sending order.
fn drive(conns: &mut [Conn], requests: &[Request], order: &[usize]) -> (f64, Vec<Reply>) {
    let t = Instant::now();
    let mut replies = pull(conns.iter_mut(), order.len(), |conn, slot| {
        exchange(conn, order[slot], &requests[order[slot]].wire)
    });
    let wall = t.elapsed().as_secs_f64();
    replies.sort_by_key(|r| r.start);
    (wall, replies)
}

/// What every reply is checked against, computed by the one-shot path:
/// `compile_region` + `render::schedule_report` per request, and
/// `compile_suite` + `render::suite_report` per suite request.
struct Reference {
    payloads: Vec<String>,
    suite_wires: Vec<String>,
    suite_payloads: Vec<String>,
    total_length: u64,
    total_occupancy: u64,
    modeled_sched_s: f64,
    /// Modeled throughput of every benchmark of every suite request, GB/s.
    throughputs: Vec<f64>,
}

fn build_reference(requests: &[Request], opts: &Opts, suite_requests: usize) -> Reference {
    let (cfg, occ) = inputs::request_config();
    let threads = inputs::host_threads();
    let mut compiled = pull(0..threads, requests.len(), |_, i| {
        let ddg = &requests[i].ddg;
        let comp = compile_region(ddg, &occ, &cfg);
        let payload = render::schedule_report(ddg, &occ, SchedulerKind::ParallelAco, &comp)
            .unwrap_or_else(|e| format!("one-shot render failed: {e}"));
        (i, payload, comp)
    });
    compiled.sort_by_key(|c| c.0);
    let mut total_length: u64 = compiled.iter().map(|c| u64::from(c.2.length)).sum();
    let mut total_occupancy: u64 = compiled.iter().map(|c| u64::from(c.2.occupancy)).sum();
    let mut region_us: Vec<f64> = compiled.iter().map(|c| c.2.sched_time_us).collect();

    let scale = opts.sizes().suite_request_scale;
    let mut suite_wires = Vec::new();
    let mut suite_payloads = Vec::new();
    let mut throughputs = Vec::new();
    for j in 0..suite_requests as u64 {
        let suite_seed = inputs::SUITE_SEED + j;
        let (suite, suite_cfg) = inputs::suite_request_inputs(suite_seed, scale);
        let run = compile_suite(&suite, &occ, &suite_cfg.with_host_threads(threads));
        total_length += run.total_length();
        total_occupancy += run.total_occupancy();
        region_us.extend(run.regions.iter().map(|r| r.sched_time_us));
        throughputs.extend(&run.benchmark_throughput);
        suite_wires.push(format!("req s{j} suite seed={suite_seed} scale={scale}\n"));
        suite_payloads.push(render::suite_report(&run));
    }
    Reference {
        payloads: compiled.into_iter().map(|c| c.1).collect(),
        suite_wires,
        suite_payloads,
        total_length,
        total_occupancy,
        modeled_sched_s: modeled_sched_s(region_us.into_iter()),
        throughputs,
    }
}

/// Counts one reply as an operation: it must be `ok`, echo its request's
/// id, and carry the one-shot payload byte for byte.
fn check_reply(report: &mut Report, reply: &Reply, id: &str, expected: &str) {
    let ok = matches!(
        &reply.response,
        Ok((got_id, Response::Ok { payload })) if got_id == id && payload == expected
    );
    report.op(ok, || match &reply.response {
        Ok((got_id, Response::Ok { .. })) if got_id != id => {
            format!("request {id} was answered as {got_id}")
        }
        Ok((_, Response::Ok { .. })) => {
            format!("request {id}: payload differs from the one-shot render")
        }
        Ok((_, other)) => format!("request {id}: {other:?}"),
        Err(e) => format!("request {id}: {e}"),
    });
}

fn check_replies(report: &mut Report, replies: &[Reply], reference: &Reference) {
    for r in replies {
        check_reply(
            report,
            r,
            &format!("c{}", r.index),
            &reference.payloads[r.index],
        );
    }
}

/// Sends the suite requests back to back on the first connection.
fn suite_phase(conn: &mut Conn, reference: &Reference, report: &mut Report) -> Vec<Reply> {
    reference
        .suite_wires
        .iter()
        .enumerate()
        .map(|(j, wire)| {
            let reply = exchange(conn, j, wire);
            check_reply(
                report,
                &reply,
                &format!("s{j}"),
                &reference.suite_payloads[j],
            );
            reply
        })
        .collect()
}

/// A fresh order of the whole request set.
fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// The serve numbers one run measured besides pass time, pooled over its
/// passes. All are per-layer metrics; an untraced run prints them too.
#[derive(Default)]
struct Latencies {
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    suite_s: Vec<f64>,
    warm_rates: Vec<f64>,
}

impl Latencies {
    /// Hands every number that was measured to `put(name, value, summary)`.
    /// A cold latency tail below the highest percentile that still has ten
    /// samples beyond it is one outlier's value; the printed line says
    /// which percentile this run's sample count supports.
    fn report(&self, mut put: impl FnMut(&'static str, f64, Option<Summary>)) {
        if !self.cold_ms.is_empty() {
            put(
                "request_p50_ms",
                stats::percentile(&self.cold_ms, 50.0),
                None,
            );
            put(
                "request_p95_ms",
                stats::percentile(&self.cold_ms, 95.0),
                None,
            );
            println!(
                "cold request samples {} (highest percentile with ten samples beyond it: {})",
                self.cold_ms.len(),
                stats::highest_supported_percentile(self.cold_ms.len())
                    .map_or("none".to_string(), |p| format!("p{p}")),
            );
        }
        if !self.suite_s.is_empty() {
            let s = stats::summarize(&self.suite_s);
            put("suite_request_s", s.median, Some(s));
        }
        if !self.warm_rates.is_empty() {
            let s = stats::summarize(&self.warm_rates);
            put("warm_requests_per_s", s.median, Some(s));
            put(
                "sched_serve.hit_request_us_p50",
                stats::percentile(&self.warm_ms, 50.0) * 1e3,
                None,
            );
        }
    }
}

/// Set-up of a serve workload: the request set and a booted, connected
/// daemon, with the seconds they took.
fn timed_setup(opts: &Opts, report: &mut Report) -> Option<(Vec<Request>, Session, f64)> {
    let t = Instant::now();
    let requests = inputs::build_requests(opts.sizes().requests);
    let session = boot(inputs::host_threads(), report)?;
    Some((requests, session, t.elapsed().as_secs_f64()))
}

/// One more set-up, thrown away once timed (NaN if the daemon did not
/// boot, which `boot` has counted as a failed operation).
fn discarded_setup(opts: &Opts, report: &mut Report) -> f64 {
    let Some((_, session, seconds)) = timed_setup(opts, report) else {
        return f64::NAN;
    };
    shut_down(session, report);
    seconds
}

/// One `serve-mix` pass on a freshly booted daemon: the cold phase, then
/// the suite requests. Returns the seconds from the first request sent to
/// the last suite reply read, and the replies of both phases.
fn cold_pass(
    session: &mut Session,
    requests: &[Request],
    reference: &Reference,
    rng: &mut SplitMix64,
    report: &mut Report,
) -> (f64, Vec<Reply>, Vec<Reply>) {
    let order = shuffled(requests.len(), rng);
    let t = Instant::now();
    let (_, replies) = drive(&mut session.conns, requests, &order);
    let suites = suite_phase(&mut session.conns[0], reference, report);
    let wall = t.elapsed().as_secs_f64();
    check_replies(report, &replies, reference);
    (wall, replies, suites)
}

/// One `serve-warm` pass: the request set re-sent `replays` times, each
/// time in a fresh order, against a daemon that has answered all of it
/// before. Returns the wall seconds and the replies.
fn warm_pass(
    session: &mut Session,
    requests: &[Request],
    reference: &Reference,
    replays: usize,
    rng: &mut SplitMix64,
    report: &mut Report,
) -> (f64, Vec<Reply>) {
    let order: Vec<usize> = (0..replays)
        .flat_map(|_| shuffled(requests.len(), rng))
        .collect();
    let (wall, replies) = drive(&mut session.conns, requests, &order);
    check_replies(report, &replies, reference);
    (wall, replies)
}

/// The untraced run of `serve-mix` or `serve-warm`.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::end_to_end();
    let threads = inputs::host_threads();
    let sizes = opts.sizes();
    let mut setup: Vec<f64> = (1..inputs::SETUP_REPEATS)
        .map(|_| discarded_setup(opts, &mut report))
        .collect();
    let Some((requests, session, seconds)) = timed_setup(opts, &mut report) else {
        return report;
    };
    setup.push(seconds);
    let warm = opts.workload == "serve-warm";
    let reference = build_reference(&requests, opts, if warm { 0 } else { sizes.suite_requests });
    println!(
        "host_threads {threads}  daemon_workers {threads}  connections {threads}  closed loop, \
         one request outstanding per connection  distinct_requests {}",
        requests.len()
    );
    let mut rng = SplitMix64::new(opts.seed);
    let mut lat = Latencies::default();

    let samples = if warm {
        // Warm-up, discarded from timing: the cold fill of the daemon's
        // cache, every reply checked against the one-shot render.
        let mut session = session;
        warm_pass(
            &mut session,
            &requests,
            &reference,
            1,
            &mut rng,
            &mut report,
        );
        let samples = timed_passes(opts, &mut setup, |timed| {
            if timed == Timed::Setup {
                return discarded_setup(opts, &mut report);
            }
            let (wall, replies) = warm_pass(
                &mut session,
                &requests,
                &reference,
                sizes.warm_replays,
                &mut rng,
                &mut report,
            );
            lat.warm_ms.extend(replies.iter().map(Reply::latency_ms));
            lat.warm_rates.push(replies.len() as f64 / wall);
            wall
        });
        shut_down(session, &mut report);
        samples
    } else {
        // The set-up daemon only measured boot; every pass boots its own,
        // so every pass is cold.
        shut_down(session, &mut report);
        let mut pass = |report: &mut Report, lat: Option<&mut Latencies>| {
            let Some(mut session) = boot(threads, report) else {
                return f64::NAN;
            };
            let (wall, replies, suites) =
                cold_pass(&mut session, &requests, &reference, &mut rng, report);
            if let Some(lat) = lat {
                lat.cold_ms.extend(replies.iter().map(Reply::latency_ms));
                lat.suite_s
                    .extend(suites.iter().map(|r| r.latency_ms() / 1e3));
            }
            shut_down(session, report);
            wall
        };
        pass(&mut report, None); // warm-up pass, discarded from timing
        timed_passes(opts, &mut setup, |timed| match timed {
            Timed::Setup => discarded_setup(opts, &mut report),
            Timed::Pass => pass(&mut report, Some(&mut lat)),
        })
    };

    report.set_summary("setup_s", stats::summarize(&setup));
    report.set_summary("compile_s", stats::summarize(&samples));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("total_length", reference.total_length as f64);
    report.set("total_occupancy", reference.total_occupancy as f64);
    report.also("modeled_sched_s", reference.modeled_sched_s, None);
    if !reference.throughputs.is_empty() {
        report.also(
            "throughput_geomean_gbs",
            stats::geomean(&reference.throughputs),
            None,
        );
    }
    lat.report(|name, value, summary| report.also(name, value, summary));
    report
}

/// A number of the daemon's `stats` payload, on the line that starts with
/// `line`: with `Side::After`, the first number after the last of `labels`
/// (searched left to right, each after the one before); with
/// `Side::Before`, the number just before the label (`3 errors`).
fn stat(payload: &str, line: &str, labels: &[&str], side: Side) -> f64 {
    let Some(mut rest) = payload.lines().find(|l| l.starts_with(line)) else {
        return 0.0;
    };
    let mut before = "";
    for label in labels {
        let Some((head, tail)) = rest.split_once(label) else {
            return 0.0;
        };
        (before, rest) = (head, tail);
    }
    let number = match side {
        Side::After => rest
            .trim_start()
            .split(|c: char| !c.is_ascii_digit())
            .next(),
        Side::Before => before
            .trim_end()
            .rsplit(|c: char| !c.is_ascii_digit())
            .next(),
    };
    number.and_then(|n| n.parse().ok()).unwrap_or(0.0)
}

#[derive(Clone, Copy)]
enum Side {
    Before,
    After,
}

/// The traced session of `serve-mix`: `COLD_DRAINS` freshly booted daemons
/// each drain the cold phase, their latency samples pooled, and the last
/// one goes on to answer the suite requests. Returns that daemon, still
/// up, and the seconds each drain took.
fn trace_cold(
    tr: &SharedTracer,
    requests: &[Request],
    reference: &Reference,
    rng: &mut SplitMix64,
    lat: &mut Latencies,
    report: &mut Report,
) -> Option<(Session, Vec<f64>)> {
    let threads = inputs::host_threads();
    let mut drains = Vec::new();
    let mut kept: Option<Session> = None;
    for drain in 0..COLD_DRAINS as u64 {
        if let Some(previous) = kept.take() {
            shut_down(previous, report);
        }
        let mut session = spanned(tr, "sched_serve.boot", drain, Band::None, || {
            boot(threads, report)
        })?;
        let order = shuffled(requests.len(), rng);
        let root = tr
            .borrow_mut()
            .enter("sched_serve.cold_phase", drain, Band::None);
        let (wall, replies) = drive(&mut session.conns, requests, &order);
        tr.borrow_mut().exit(root);
        record_requests(
            tr,
            "sched_serve.request.cold",
            &replies,
            root,
            Some(requests),
        );
        check_replies(report, &replies, reference);
        lat.cold_ms.extend(replies.iter().map(Reply::latency_ms));
        drains.push(wall);
        kept = Some(session);
    }
    let mut session = kept?;
    let root = tr
        .borrow_mut()
        .enter("sched_serve.suite_phase", 0, Band::None);
    let suites = suite_phase(&mut session.conns[0], reference, report);
    tr.borrow_mut().exit(root);
    record_requests(tr, "sched_serve.request.suite", &suites, root, None);
    lat.suite_s
        .extend(suites.iter().map(|r| r.latency_ms() / 1e3));
    Some((session, drains))
}

/// The traced session of `serve-warm`: one daemon, the fill that the
/// untraced run's warm-up pass does, then one pass of replays. Returns the
/// daemon, still up, and the seconds the replays took.
fn trace_warm(
    tr: &SharedTracer,
    requests: &[Request],
    reference: &Reference,
    replays: usize,
    rng: &mut SplitMix64,
    lat: &mut Latencies,
    report: &mut Report,
) -> Option<(Session, Vec<f64>)> {
    let threads = inputs::host_threads();
    let mut session = spanned(tr, "sched_serve.boot", 0, Band::None, || {
        boot(threads, report)
    })?;
    let root = tr
        .borrow_mut()
        .enter("sched_serve.fill_phase", 0, Band::None);
    let (_, fill) = warm_pass(&mut session, requests, reference, 1, rng, report);
    tr.borrow_mut().exit(root);
    record_requests(tr, "sched_serve.request.fill", &fill, root, Some(requests));

    let root = tr
        .borrow_mut()
        .enter("sched_serve.warm_phase", 0, Band::None);
    let (wall, replies) = warm_pass(&mut session, requests, reference, replays, rng, report);
    tr.borrow_mut().exit(root);
    record_requests(
        tr,
        "sched_serve.request.warm",
        &replies,
        root,
        Some(requests),
    );
    lat.warm_ms.extend(replies.iter().map(Reply::latency_ms));
    lat.warm_rates.push(replies.len() as f64 / wall);
    Some((session, vec![wall]))
}

/// Records one span per reply, as its client timed it, under `parent`.
/// `requests` gives the size band of a `schedule` request's region.
fn record_requests(
    tr: &SharedTracer,
    name: &'static str,
    replies: &[Reply],
    parent: usize,
    requests: Option<&[Request]>,
) {
    let mut t = tr.borrow_mut();
    for r in replies {
        let band = requests.map_or(Band::None, |q| Band::of(q[r.index].ddg.len()));
        t.record(name, r.index as u64, band, r.start, r.end, Some(parent));
    }
}

/// The `--trace 1` run of a serve workload: the session the workload's
/// untraced passes run, with a span per request as its client saw it,
/// then the layers under one request replayed one by one on this thread —
/// for `serve-mix` those a cold request runs (ACO included), for
/// `serve-warm` only those a cache hit runs.
pub fn trace(opts: &Opts) -> Report {
    let mut report = Report::per_layer();
    let mut counts = Counts::default();
    let threads = inputs::host_threads();
    let sizes = opts.sizes();
    let warm = opts.workload == "serve-warm";
    let tr: SharedTracer = RefCell::new(Tracer::new());

    let requests = spanned(&tr, "workloads.generate", 0, Band::None, || {
        inputs::build_requests(sizes.requests)
    });
    let reference = build_reference(&requests, opts, if warm { 0 } else { sizes.suite_requests });
    let mut rng = SplitMix64::new(opts.seed);
    let mut lat = Latencies::default();
    let session = if warm {
        trace_warm(
            &tr,
            &requests,
            &reference,
            sizes.warm_replays,
            &mut rng,
            &mut lat,
            &mut report,
        )
    } else {
        trace_cold(&tr, &requests, &reference, &mut rng, &mut lat, &mut report)
    };
    let Some((mut session, pass_s)) = session else {
        return report;
    };

    // The daemon's own view of the session.
    let stats_reply = exchange(&mut session.conns[0], 0, "req st stats\n");
    let stats_payload = match &stats_reply.response {
        Ok((_, Response::Ok { payload })) => payload.clone(),
        other => {
            report.op(false, || format!("stats request failed: {other:?}"));
            String::new()
        }
    };

    // Layer replays, while the daemon's warm cache is still there to hit.
    let (cfg, occ) = inputs::request_config();
    let root = tr.borrow_mut().enter("trace.replay", 0, Band::None);
    for (i, req) in requests.iter().enumerate() {
        let (id, band) = (i as u64, Band::of(req.ddg.len()));
        spanned(&tr, "sched_serve.parse_request", id, band, || {
            black_box(sched_serve::parse_request_line(&req.header).is_ok())
        });
        if warm {
            layers::replay_front_end(&tr, &mut counts, id, &req.ddg, req.text());
        } else {
            layers::replay_region(&tr, &mut counts, id, &req.ddg, false);
            layers::replay_heuristic(&tr, &mut counts, id, &req.ddg, &occ);
            layers::replay_parallel_aco(&tr, &mut counts, id, &req.ddg, &occ, &cfg);
        }
        let before = session.server.engine().cache.stats();
        let comp = spanned(&tr, "pipeline.cache.hit", id, band, || {
            session
                .server
                .engine()
                .cache
                .compile_solo(&req.ddg, &occ, &cfg)
        });
        let delta = session.server.engine().cache.stats().since(before);
        report.op(delta.hits == 1 && delta.misses == 0, || {
            format!("request {i} was not in the daemon's cache after the session")
        });
        let diags = spanned(&tr, "sched_verify.certify", id, band, || {
            sched_verify::verify_region_compilation(&req.ddg, &occ, &cfg, &comp)
        });
        counts.schedules_certified += 1;
        report.op(!sched_verify::has_errors(&diags), || {
            format!("request {i}: {}", sched_verify::render(&diags))
        });
        spanned(&tr, "sched_serve.render", id, band, || {
            let payload =
                render::schedule_report(&req.ddg, &occ, SchedulerKind::ParallelAco, &comp)
                    .unwrap_or_default();
            black_box(sched_serve::render_response("c", &Response::Ok { payload }).len())
        });
    }
    if !warm {
        let large: Vec<&sched_ir::Ddg> = requests
            .iter()
            .map(|r| &r.ddg)
            .filter(|d| d.len() >= 100)
            .take(3)
            .collect();
        layers::micro_benches(&tr, &mut counts, &large, &occ, &cfg);
    }
    tr.borrow_mut().exit(root);

    counts.cache = session.server.engine().cache.stats();
    shut_down(session, &mut report);

    let tracer = tr.into_inner();
    layers::fill_report(&mut report, &tracer, &counts);
    let totals = tracer.totals(None);
    let mean_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count.max(1) as f64)
    };
    report.set("workloads.distinct_regions", requests.len() as f64);
    report.set(
        "pipeline.cache.hit_us_per_region",
        mean_us("pipeline.cache.hit"),
    );
    report.set("modeled_sched_s", reference.modeled_sched_s);
    report.set(
        "throughput_geomean_gbs",
        stats::geomean(&reference.throughputs),
    );
    report.set("sched_serve.boot_s", mean_us("sched_serve.boot") / 1e6);
    lat.report(|name, value, summary| match summary {
        Some(s) => report.set_summary(name, s),
        None => report.set(name, value),
    });
    report.set(
        "sched_serve.parse_request_us",
        mean_us("sched_serve.parse_request"),
    );
    report.set("sched_serve.render_us", mean_us("sched_serve.render"));
    for (name, line, labels, side) in [
        (
            "sched_serve.queue_wait_us_avg",
            "latency_us:",
            &["queue_wait", "(avg"][..],
            Side::After,
        ),
        (
            "sched_serve.service_us_avg",
            "latency_us:",
            &["service", "(avg"][..],
            Side::After,
        ),
        (
            "sched_serve.suite_plan_us",
            "suite_phases_us:",
            &["plan"][..],
            Side::After,
        ),
        (
            "sched_serve.suite_jobs_us",
            "suite_phases_us:",
            &["jobs"][..],
            Side::After,
        ),
        (
            "sched_serve.suite_merge_us",
            "suite_phases_us:",
            &["merge"][..],
            Side::After,
        ),
        (
            "sched_serve.suite_overlap_us",
            "suite_phases_us:",
            &["(overlapped"][..],
            Side::After,
        ),
        (
            "sched_serve.errors",
            "requests:",
            &[" errors"][..],
            Side::Before,
        ),
        (
            "sched_serve.overloaded",
            "requests:",
            &[" overloaded"][..],
            Side::Before,
        ),
        (
            "sched_serve.expired",
            "requests:",
            &[" expired"][..],
            Side::Before,
        ),
    ] {
        report.set(name, stat(&stats_payload, line, labels, side));
    }
    // A request's span is the two clock reads its client makes in an
    // untraced run too, so a traced pass is a plain pass: both read the
    // median pass of this session and the overhead is none by construction.
    let pass_s = stats::median(&pass_s);
    report.set("trace.plain_pass_s", pass_s);
    report.set("trace.traced_pass_s", pass_s);
    report.set("trace.overhead_share", 0.0);
    println!(
        "host_threads {threads}  daemon_workers {threads}  connections {threads}  closed loop"
    );
    layers::write_trace(&tracer, &opts.workload, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_fields_are_read_by_label() {
        let payload =
            "requests: 9 received, 8 served, 1 errors, 2 overloaded, 3 expired, 0 flushes\n\
                       cache: 4 hits, 5 misses, 5 inserts, 0 bypasses, 0 evictions\n\
                       queue: 0 queued, 7 regions compiled, 1 suites\n\
                       latency_us: queue_wait 800 (avg 100), service 16000 (avg 2000)\n\
                       suite_phases_us: plan 11, jobs 22, merge 33 (overlapped 4)\n";
        assert_eq!(stat(payload, "requests:", &[" errors"], Side::Before), 1.0);
        assert_eq!(
            stat(payload, "requests:", &[" overloaded"], Side::Before),
            2.0
        );
        assert_eq!(stat(payload, "requests:", &[" expired"], Side::Before), 3.0);
        assert_eq!(
            stat(payload, "latency_us:", &["queue_wait", "(avg"], Side::After),
            100.0
        );
        assert_eq!(
            stat(payload, "latency_us:", &["service", "(avg"], Side::After),
            2000.0
        );
        assert_eq!(
            stat(payload, "suite_phases_us:", &["plan"], Side::After),
            11.0
        );
        assert_eq!(
            stat(payload, "suite_phases_us:", &["jobs"], Side::After),
            22.0
        );
        assert_eq!(
            stat(payload, "suite_phases_us:", &["merge"], Side::After),
            33.0
        );
        assert_eq!(
            stat(payload, "suite_phases_us:", &["(overlapped"], Side::After),
            4.0
        );
        assert_eq!(stat(payload, "nope:", &["x"], Side::After), 0.0);
        assert_eq!(stat(payload, "cache:", &["absent"], Side::After), 0.0);
    }
}
