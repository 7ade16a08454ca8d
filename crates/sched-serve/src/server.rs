//! The serve engine: workers, connections, transports, shutdown.
//!
//! One [`Engine`] per daemon holds the three shared pieces — the warm
//! [`ScheduleCache`], the [`Planner`] admission queue, and the
//! [`ServeStats`] counters. Connection threads parse requests, answer a
//! `schedule` request whose region is already in the cache on the spot
//! ([`ScheduleCache::lookup_solo`] — a warm hit is cheaper than the
//! hand-off to a worker) and submit the rest; a fixed pool of compile
//! workers drains the planner in smallest-first order through the same
//! pipeline entry points the one-shot CLI uses
//! ([`ScheduleCache::compile_solo`], [`compile_suite_with_stores`]). A
//! `suite` request is one queued item: the worker that pops it runs the
//! pipeline's own suite driver on a host pool as wide as `--workers`.
//! Responses travel back through a per-connection [`ResponseWriter`] so
//! completions can interleave across a connection's outstanding requests.
//!
//! Shutdown is a *drain*: on SIGTERM/SIGINT (socket transport) or EOF
//! (stdio transport) the daemon stops admitting, lets every queued and
//! in-flight request finish and respond, then persists the shared cache
//! atomically ([`ScheduleCache::save_to`] writes a temp sibling and
//! renames) before exiting. A `kill -9` mid-save therefore never leaves a
//! half-written cache at the configured path.

use crate::planner::Planner;
use crate::proto::{self, Parsed, Response, ScheduleOpts, SuiteOpts};
use crate::render;
use crate::signal;
use crate::stats::ServeStats;
use machine_model::OccupancyModel;
use pipeline::{compile_suite_with_stores, PipelineConfig, RegionCompilation, ScheduleCache};
use sched_ir::record::read_lines;
use sched_ir::{textir, Ddg};
use std::any::Any;
use std::io::{self, BufRead, BufReader, Write};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How the daemon is configured at boot.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Compile worker threads.
    pub workers: usize,
    /// Planner queue capacity (queued items; in-flight excluded).
    pub queue_capacity: usize,
    /// Cache persistence path: preloaded on boot when it exists, written
    /// on shutdown and on `flush`. `None` disables persistence (the warm
    /// in-memory cache still serves all clients).
    pub cache_path: Option<PathBuf>,
    /// Must be `false`. The field named the self-tuning store, which was
    /// removed; it stays because the benchmark sets it, and
    /// [`Server::start`] rejects `true` with `InvalidInput`.
    pub tune: bool,
    /// Must be `None`, for the same reason as [`ServeConfig::tune`]:
    /// [`Server::start`] rejects a path with `InvalidInput`.
    pub tune_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            queue_capacity: 256,
            cache_path: None,
            tune: false,
            tune_path: None,
        }
    }
}

/// A per-connection response channel. Responses are rendered first and
/// written under one lock as a single `write_all` + flush, so concurrent
/// worker completions never interleave bytes. Write errors are swallowed:
/// a vanished client must not take a worker down.
pub struct ResponseWriter {
    out: Mutex<Box<dyn Write + Send>>,
}

impl ResponseWriter {
    fn new(out: Box<dyn Write + Send>) -> ResponseWriter {
        ResponseWriter {
            out: Mutex::new(out),
        }
    }

    fn send(&self, id: &str, resp: &Response) {
        let rendered = proto::render_response(id, resp);
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = out.write_all(rendered.as_bytes());
        let _ = out.flush();
    }
}

/// Everything a completion needs to answer its request.
struct RequestCtx {
    id: String,
    out: Arc<ResponseWriter>,
    arrived: Instant,
    deadline: Option<Instant>,
    deadline_ms: u64,
}

impl RequestCtx {
    /// True (and responds `expired`) when the request out-waited its
    /// deadline before service began.
    fn expired_at(&self, now: Instant, stats: &ServeStats) -> bool {
        match self.deadline {
            Some(d) if now >= d => {
                let waited = now.duration_since(self.arrived).as_millis() as u64;
                self.out.send(
                    &self.id,
                    &Response::Expired {
                        waited_ms: waited,
                        deadline_ms: self.deadline_ms,
                    },
                );
                ServeStats::bump(&stats.expired, 1);
                true
            }
            _ => false,
        }
    }
}

/// One `schedule` request, ready to compile.
struct RegionWork {
    ddg: Ddg,
    occ: OccupancyModel,
    cfg: PipelineConfig,
    ctx: RequestCtx,
}

/// One `suite` request, ready to compile.
struct SuiteWork {
    suite: workloads::Suite,
    occ: OccupancyModel,
    cfg: PipelineConfig,
    ctx: RequestCtx,
}

enum Work {
    Region(Box<RegionWork>),
    Suite(Box<SuiteWork>),
}

impl Work {
    fn ctx(&self) -> &RequestCtx {
        match self {
            Work::Region(w) => &w.ctx,
            Work::Suite(w) => &w.ctx,
        }
    }
}

/// The daemon's shared core: one warm cache, one admission queue, one set
/// of counters.
pub struct Engine {
    /// The cache every request consults; preloaded on boot, persisted on
    /// shutdown/flush.
    pub cache: ScheduleCache,
    planner: Planner<Work>,
    stats: ServeStats,
    cache_path: Option<PathBuf>,
    /// Compile worker threads, and the host pool width of a `suite`.
    workers: usize,
}

impl Engine {
    /// Renders the `stats` payload.
    fn stats_report(&self) -> String {
        self.stats
            .report(&self.cache.stats(), self.planner.queued())
    }

    /// Persists the cache to `cache_path` (atomic temp + rename).
    fn flush(&self) -> Result<String, String> {
        let Some(path) = &self.cache_path else {
            return Err("no cache file configured (start with --cache FILE)".into());
        };
        self.cache
            .save_to(path)
            .map_err(|e| format!("writing cache {}: {e}", path.display()))?;
        Ok(path.display().to_string())
    }
}

/// A running daemon: the engine plus its worker pool.
pub struct Server {
    engine: Arc<Engine>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Boots the engine: loads the cache from `cache_path` when the file
    /// exists (a corrupt or truncated file is a boot error, not a silent
    /// empty cache) and starts the worker pool. `tune: true` or a
    /// `tune_path` is an `InvalidInput` error: self-tuning was removed.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        if config.tune || config.tune_path.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "self-tuning was removed: `tune` must be false and `tune_path` None",
            ));
        }
        let cache = match &config.cache_path {
            Some(p) if p.exists() => ScheduleCache::load_from(p)?,
            _ => ScheduleCache::new(),
        };
        let engine = Arc::new(Engine {
            cache,
            planner: Planner::new(config.queue_capacity),
            stats: ServeStats::default(),
            cache_path: config.cache_path,
            workers: config.workers.max(1),
        });
        let workers = (0..engine.workers)
            .map(|_| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || worker_loop(&engine))
            })
            .collect();
        Ok(Server { engine, workers })
    }

    /// The shared core, for connection handlers.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Graceful drain: stop admission, finish and answer everything
    /// queued or in flight, join the workers, persist the cache.
    pub fn shutdown(self) -> io::Result<()> {
        self.engine.planner.drain();
        for w in self.workers {
            let _ = w.join();
        }
        if self.engine.cache_path.is_some() {
            self.engine
                .flush()
                .map_err(|e| io::Error::other(format!("persisting cache on shutdown: {e}")))?;
        }
        Ok(())
    }

    /// Blocks until nothing is queued or in flight (test aid).
    pub fn wait_idle(&self) {
        self.engine.planner.wait_idle();
    }
}

fn worker_loop(engine: &Engine) {
    while let Some(work) = engine.planner.pop() {
        let started = Instant::now();
        let served = panic::catch_unwind(AssertUnwindSafe(|| match &work {
            Work::Region(w) => run_region(engine, w, started),
            Work::Suite(w) => run_suite(engine, w, started),
        }));
        if let Err(payload) = served {
            let ctx = work.ctx();
            fail(engine, &ctx.out, &ctx.id, &*payload);
        }
        engine.planner.task_done();
    }
}

/// Answers a request whose service panicked with one `err`, so the worker
/// or connection thread lives on and nobody waits for an answer that never
/// comes. A suite's pool re-raises a job's panic on its worker, so a suite
/// fails here too, and so does a `schedule` admitted on its connection.
fn fail(engine: &Engine, out: &ResponseWriter, id: &str, panic: &(dyn Any + Send)) {
    let text = match (panic.downcast_ref::<&str>(), panic.downcast_ref::<String>()) {
        (Some(text), _) => text,
        (_, Some(text)) => text.as_str(),
        _ => "no message",
    };
    ServeStats::bump(&engine.stats.errors, 1);
    let message = format!("internal error: {text}");
    out.send(id, &Response::Err { message });
}

fn run_region(engine: &Engine, w: &RegionWork, started: Instant) {
    let waited_us = started.duration_since(w.ctx.arrived).as_micros() as u64;
    if w.ctx.expired_at(started, &engine.stats) {
        return;
    }
    let comp = engine.cache.compile_solo(&w.ddg, &w.occ, &w.cfg);
    answer(engine, w, &comp, waited_us, started);
}

/// Answers one `schedule` request with its compilation and books it — the
/// one render → count → send sequence, run by a worker after a compile and
/// by a connection thread on an admission hit. `started` is when service
/// of the request began (after `waited_us` in the queue, 0 for a hit).
fn answer(
    engine: &Engine,
    w: &RegionWork,
    comp: &RegionCompilation,
    waited_us: u64,
    started: Instant,
) {
    let resp = match render::schedule_report(&w.ddg, &w.occ, w.cfg.scheduler, comp) {
        Ok(payload) => {
            ServeStats::bump(&engine.stats.served, 1);
            Response::Ok { payload }
        }
        Err(message) => {
            ServeStats::bump(&engine.stats.errors, 1);
            Response::Err { message }
        }
    };
    w.ctx.out.send(&w.ctx.id, &resp);
    ServeStats::bump(&engine.stats.regions, 1);
    ServeStats::bump(&engine.stats.queue_wait_us, waited_us);
    ServeStats::bump(
        &engine.stats.service_us,
        started.elapsed().as_micros() as u64,
    );
}

/// Runs one `suite` request through the pipeline's suite driver, on a
/// host pool as wide as the worker pool, and books its phases.
fn run_suite(engine: &Engine, w: &SuiteWork, started: Instant) {
    let waited_us = started.duration_since(w.ctx.arrived).as_micros() as u64;
    if w.ctx.expired_at(started, &engine.stats) {
        return;
    }
    let (run, wall) = compile_suite_with_stores(
        &w.suite,
        &w.occ,
        &w.cfg.with_host_threads(engine.workers),
        Some(&engine.cache),
        |_, _, _, _, _| {},
    );
    let payload = render::suite_report(&run);
    // Measured before the send, so it never exceeds what the client sees.
    let service_us = started.elapsed().as_micros() as u64;
    w.ctx.out.send(&w.ctx.id, &Response::Ok { payload });
    let stats = &engine.stats;
    let us = |s: f64| (s * 1e6) as u64;
    ServeStats::bump(&stats.suite_plan_us, us(wall.plan_s));
    ServeStats::bump(&stats.suite_jobs_us, us(wall.jobs_s));
    ServeStats::bump(&stats.suite_merge_us, us(wall.merge_s));
    ServeStats::bump(&stats.suite_overlap_us, us(wall.merge_overlap_s));
    ServeStats::bump(&stats.suites, 1);
    ServeStats::bump(&stats.served, 1);
    ServeStats::bump(&stats.queue_wait_us, waited_us);
    ServeStats::bump(&stats.service_us, service_us);
}

/// Serves one connection until EOF, shutdown, or a fatal transport error.
/// `stats`/`flush` are answered inline, and so is a `schedule` request the
/// cache already holds; other `schedule`s and `suite`s go through the
/// planner and are answered by workers, possibly after this function
/// returns (the shared [`ResponseWriter`] outlives the read loop).
pub fn handle_connection(
    engine: &Arc<Engine>,
    mut reader: impl BufRead,
    writer: Box<dyn Write + Send>,
) {
    let out = Arc::new(ResponseWriter::new(writer));
    // One header and one payload buffer for the connection's lifetime, each
    // refilled through the counted-line primitive: `false` at the end of the
    // stream, on shutdown or on a transport error.
    let (mut header, mut payload) = (Vec::new(), Vec::new());
    let mut read = |lines: usize, buf: &mut Vec<u8>| {
        buf.clear();
        let stop = signal::shutdown_requested;
        matches!(read_lines(&mut reader, lines, buf, stop), Ok(true))
    };
    loop {
        if !read(1, &mut header) {
            break;
        }
        let Ok(line) = std::str::from_utf8(&header) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        ServeStats::bump(&engine.stats.received, 1);
        let (id, parsed) = match proto::parse_request_line(line) {
            Ok(p) => p,
            Err(e) => {
                ServeStats::bump(&engine.stats.errors, 1);
                out.send(
                    e.id.as_deref().unwrap_or("-"),
                    &Response::Err { message: e.msg },
                );
                // A framed header with a bad option still owns its payload:
                // skip it, or every line of it is read as a request.
                match read(e.payload_lines, &mut payload) {
                    true => continue,
                    false => break,
                }
            }
        };
        match parsed {
            Parsed::Stats => {
                ServeStats::bump(&engine.stats.served, 1);
                out.send(
                    &id,
                    &Response::Ok {
                        payload: engine.stats_report(),
                    },
                );
            }
            Parsed::Flush => match engine.flush() {
                Ok(flushed) => {
                    ServeStats::bump(&engine.stats.flushes, 1);
                    ServeStats::bump(&engine.stats.served, 1);
                    out.send(
                        &id,
                        &Response::Ok {
                            payload: format!("flushed {flushed}\n"),
                        },
                    );
                }
                Err(message) => {
                    ServeStats::bump(&engine.stats.errors, 1);
                    out.send(&id, &Response::Err { message });
                }
            },
            Parsed::Schedule {
                opts,
                payload_lines,
            } => {
                let text = match read(payload_lines, &mut payload) {
                    true => std::str::from_utf8(&payload).ok(),
                    false => None,
                };
                let Some(text) = text else {
                    // Truncated payload: the stream is desynchronized
                    // beyond recovery; answer and drop the connection.
                    ServeStats::bump(&engine.stats.errors, 1);
                    out.send(
                        &id,
                        &Response::Err {
                            message: "truncated ddg payload".into(),
                        },
                    );
                    break;
                };
                submit_schedule(engine, &out, id, opts, text);
            }
            Parsed::Suite(opts) => submit_suite(engine, &out, id, opts),
        }
    }
}

fn request_ctx(id: String, out: &Arc<ResponseWriter>, deadline_ms: Option<u64>) -> RequestCtx {
    let arrived = Instant::now();
    RequestCtx {
        id,
        out: Arc::clone(out),
        arrived,
        deadline: deadline_ms.map(|ms| arrived + Duration::from_millis(ms)),
        deadline_ms: deadline_ms.unwrap_or(0),
    }
}

/// Admits one `schedule` request on its connection thread. The parse, the
/// cache lookup and a hit's certify → render → send run here, under the
/// guard a worker's compile runs under: a panic costs the request one
/// `err`, one counted error, and the connection reads on.
fn submit_schedule(
    engine: &Engine,
    out: &Arc<ResponseWriter>,
    id: String,
    opts: ScheduleOpts,
    payload: &str,
) {
    let admitted = panic::catch_unwind(AssertUnwindSafe(|| {
        admit_schedule(engine, out, &id, opts, payload)
    }));
    if let Err(panic) = admitted {
        fail(engine, out, &id, &*panic);
    }
}

fn admit_schedule(
    engine: &Engine,
    out: &Arc<ResponseWriter>,
    id: &str,
    opts: ScheduleOpts,
    payload: &str,
) {
    let ddg = match textir::parse(payload) {
        Ok(d) => d,
        Err(e) => {
            ServeStats::bump(&engine.stats.errors, 1);
            out.send(
                id,
                &Response::Err {
                    message: format!("parsing region: {e}"),
                },
            );
            return;
        }
    };
    let (occ, cfg) = opts.config();
    let work = RegionWork {
        ddg,
        occ,
        cfg,
        ctx: request_ctx(id.to_owned(), out, opts.deadline_ms),
    };
    // Queue only what has to be compiled. A region already in the cache is
    // answered here: the hit is cheaper than the hand-off to a worker, it
    // never waits, and so neither the queue's bound nor the request's
    // queue-wait deadline applies to it.
    if let Some(comp) = engine.cache.lookup_solo(&work.ddg, &work.occ, &work.cfg) {
        #[cfg(test)]
        if tests::PANIC_ON_NEXT_HIT.take() {
            panic!("a hit that cannot be answered");
        }
        answer(engine, &work, &comp, 0, work.ctx.arrived);
        return;
    }
    let priority = work.ddg.len() as u64;
    enqueue(engine, priority, Work::Region(Box::new(work)));
}

fn submit_suite(engine: &Engine, out: &Arc<ResponseWriter>, id: String, opts: SuiteOpts) {
    // Generation is booked as planning here; the driver's job planning is
    // booked with the suite's other phases by the worker that runs it.
    let t_plan = Instant::now();
    let suite = workloads::Suite::generate(&workloads::SuiteConfig::scaled(opts.seed, opts.scale));
    ServeStats::bump(
        &engine.stats.suite_plan_us,
        t_plan.elapsed().as_micros() as u64,
    );
    // The pipeline seed stays 0 — the golden-fingerprint configuration;
    // the request's `seed` parameterizes workload generation, so
    // `suite seed=5` reproduces the pinned SUITE_GOLDEN fingerprints.
    let mut cfg = PipelineConfig::paper(opts.scheduler, 0);
    cfg.aco.blocks = opts.blocks;
    cfg.aco.pass2_gate_cycles = opts.gate;
    let occ = proto::occupancy_model(opts.unit_aprp);
    let priority = suite.regions().map(|(_, _, ddg)| ddg.len() as u64).sum();
    let work = SuiteWork {
        suite,
        occ,
        cfg,
        ctx: request_ctx(id, out, opts.deadline_ms),
    };
    enqueue(engine, priority, Work::Suite(Box::new(work)));
}

/// Queues `work` at `priority`, or answers its request `overloaded`.
fn enqueue(engine: &Engine, priority: u64, work: Work) {
    let ctx = work.ctx();
    let (id, out) = (ctx.id.clone(), Arc::clone(&ctx.out));
    if let Err(over) = engine.planner.submit(priority, work) {
        ServeStats::bump(&engine.stats.overloaded, 1);
        out.send(
            &id,
            &Response::Overloaded {
                queued: over.queued,
                capacity: over.capacity,
            },
        );
    }
}

/// Serves the stdio transport: requests on stdin, responses on stdout.
/// EOF triggers the graceful drain (persisting the cache); the exit path
/// every pipe-driven client exercises.
pub fn serve_stdio(config: ServeConfig) -> io::Result<()> {
    let server = Server::start(config)?;
    let stdin = io::stdin();
    let engine = Arc::clone(server.engine());
    handle_connection(&engine, stdin.lock(), Box::new(io::stdout()));
    server.shutdown()
}

/// Serves the Unix-socket transport at `socket_path` until SIGTERM/SIGINT,
/// then drains gracefully and persists the cache. Accepts any number of
/// concurrent client connections, each on its own thread.
#[cfg(unix)]
pub fn serve_unix(socket_path: &Path, config: ServeConfig) -> io::Result<()> {
    use std::os::unix::net::UnixListener;

    signal::install_shutdown_handler();
    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(socket_path);
    let listener = UnixListener::bind(socket_path)?;
    listener.set_nonblocking(true)?;
    let server = Server::start(config)?;
    let mut connections = Vec::new();
    while !signal::shutdown_requested() {
        match listener.accept() {
            Ok((stream, _)) => {
                // Blocking I/O with a short read timeout: the read loop
                // stays responsive to the shutdown flag without busy
                // polling.
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(Some(Duration::from_millis(100)))?;
                let engine = Arc::clone(server.engine());
                let writer = stream.try_clone()?;
                connections.push(std::thread::spawn(move || {
                    handle_connection(&engine, BufReader::new(stream), Box::new(writer));
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                let _ = std::fs::remove_file(socket_path);
                return Err(e);
            }
        }
    }
    // Drain: connection threads notice the flag within one read timeout;
    // queued work keeps its Arc'd writers, so late responses still reach
    // clients that stay connected.
    for c in connections {
        let _ = c.join();
    }
    let result = server.shutdown();
    let _ = std::fs::remove_file(socket_path);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::SchedulerKind;
    use std::cell::Cell;
    use std::sync::atomic::Ordering;
    use std::sync::mpsc;

    thread_local! {
        /// Arms a panic in this thread's next admission hit, between the
        /// cache lookup and the answer.
        pub(super) static PANIC_ON_NEXT_HIT: Cell<bool> = const { Cell::new(false) };
    }

    /// A client connection's byte stream, readable by the test, and when
    /// its last reply landed.
    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<(Vec<u8>, Option<Instant>)>>);

    impl Sink {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().0.clone()).unwrap()
        }

        fn last_write(&self) -> Instant {
            self.0.lock().unwrap().1.expect("no reply was written")
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut sink = self.0.lock().unwrap();
            sink.0.extend_from_slice(buf);
            sink.1 = Some(Instant::now());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Serves `script` on one connection of a fresh daemon with `workers`
    /// workers. Returns the replies, the time from the start of the script
    /// to the last reply, and the `stats` payload once the daemon is idle.
    fn serve(workers: usize, script: &str) -> (String, Duration, String) {
        let server = Server::start(ServeConfig {
            workers,
            ..ServeConfig::default()
        })
        .unwrap();
        let sink = Sink::default();
        let t0 = Instant::now();
        handle_connection(server.engine(), script.as_bytes(), Box::new(sink.clone()));
        server.wait_idle();
        let stats = server.engine().stats_report();
        server.shutdown().unwrap();
        (sink.text(), sink.last_write() - t0, stats)
    }

    /// The numbers of a `stats` line, in order.
    fn numbers(stats: &str, prefix: &str) -> Vec<u64> {
        let line = stats.lines().find(|l| l.starts_with(prefix)).unwrap();
        let words = line.split(|c: char| !c.is_ascii_digit());
        words.filter_map(|w| w.parse().ok()).collect()
    }

    #[test]
    fn a_panicking_suite_is_one_err_and_the_worker_serves_on() {
        let sink = Sink::default();
        let client = sink.clone();
        let (tx, rx) = mpsc::channel();
        let daemon = std::thread::spawn(move || {
            let config = ServeConfig {
                workers: 2,
                queue_capacity: 1 << 16,
                ..ServeConfig::default()
            };
            let server = Server::start(config).unwrap();
            let engine = Arc::clone(server.engine());
            let out = Arc::new(ResponseWriter::new(Box::new(client.clone())));
            let mut suite = workloads::Suite::generate(&workloads::SuiteConfig::scaled(7, 0.008));
            // A kernel the suite lacks: the merge panics totalling the
            // benchmark's modeled time.
            suite.benchmarks[0].kernels.push(suite.kernels.len());
            let work = SuiteWork {
                suite,
                occ: OccupancyModel::vega_like(),
                cfg: PipelineConfig::paper(SchedulerKind::BaseAmd, 0),
                ctx: request_ctx("s1".into(), &out, None),
            };
            enqueue(&engine, 0, Work::Suite(Box::new(work)));
            server.wait_idle();
            tx.send("wait_idle").unwrap();
            let text = textir::to_text(&workloads::patterns::sized(20, 3));
            let request = format!("req r1 schedule ddg {}\n{text}", text.lines().count());
            handle_connection(&engine, request.as_bytes(), Box::new(client));
            server.wait_idle();
            let errors = engine.stats.errors.load(Ordering::SeqCst);
            drop(engine);
            server.shutdown().unwrap();
            tx.send("shutdown").unwrap();
            errors
        });
        for step in ["wait_idle", "shutdown"] {
            let got = rx.recv_timeout(Duration::from_secs(30));
            assert_eq!(got, Ok(step), "the daemon hung before `{step}` returned");
        }
        assert_eq!(daemon.join().unwrap(), 1, "the panic is one counted error");
        let text = sink.text();
        let suite: Vec<&str> = text.lines().filter(|l| l.starts_with("resp s1 ")).collect();
        assert_eq!(suite.len(), 1, "one answer for the suite:\n{text}");
        assert!(
            suite[0].starts_with("resp s1 err internal error: "),
            "{text}"
        );
        assert!(text.contains("resp r1 ok "), "the worker survived:\n{text}");
    }

    #[test]
    fn a_panicking_hit_is_one_err_and_the_connection_reads_on() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let engine = server.engine();
        let text = textir::to_text(&workloads::patterns::sized(20, 3));
        let request = |id: &str| format!("req {id} schedule ddg {}\n{text}", text.lines().count());
        let warm = Sink::default();
        handle_connection(engine, request("r1").as_bytes(), Box::new(warm.clone()));
        server.wait_idle();
        assert!(warm.text().starts_with("resp r1 ok "), "{}", warm.text());
        let errors = || engine.stats.errors.load(Ordering::SeqCst);
        assert_eq!(errors(), 0);

        // Same region again: a hit, answered on this (the connection's)
        // thread, where the seam panics it.
        PANIC_ON_NEXT_HIT.set(true);
        let sink = Sink::default();
        let script = format!("{}req r3 stats\n{}", request("r2"), request("r4"));
        handle_connection(engine, script.as_bytes(), Box::new(sink.clone()));
        server.wait_idle();
        assert!(!PANIC_ON_NEXT_HIT.get(), "the seam fired");
        let text = sink.text();
        let lines: Vec<&str> = text.lines().filter(|l| l.starts_with("resp ")).collect();
        assert_eq!(
            lines[0], "resp r2 err internal error: a hit that cannot be answered",
            "one err for the panicked hit:\n{text}"
        );
        assert!(lines[1].starts_with("resp r3 ok "), "{text}");
        assert!(lines[2].starts_with("resp r4 ok "), "{text}");
        assert_eq!(lines.len(), 3, "{text}");
        assert_eq!(errors(), 1, "the panic is one counted error");
        // r3's stats reply already counts it: r1 and r3 served, r2 an error.
        assert!(
            text.contains("requests: 3 received, 2 served, 1 errors"),
            "{text}"
        );
        server.shutdown().unwrap();
    }

    /// Overlapped merge time is a part of the merge time: a consume call
    /// that outlasts the last job counts only up to that job's end.
    #[test]
    fn suite_overlap_never_exceeds_the_merge() {
        let config = ServeConfig {
            workers: 2,
            queue_capacity: 1 << 16,
            ..ServeConfig::default()
        };
        let server = Server::start(config).unwrap();
        let engine = Arc::clone(server.engine());
        let sink = Sink::default();
        let requests = "req s1 suite seed=3\nreq s2 suite seed=4 scheduler=amd\n";
        handle_connection(&engine, requests.as_bytes(), Box::new(sink.clone()));
        server.wait_idle();
        let stats = &engine.stats;
        let (merge, overlap) = (
            stats.suite_merge_us.load(Ordering::SeqCst),
            stats.suite_overlap_us.load(Ordering::SeqCst),
        );
        assert_eq!(stats.suites.load(Ordering::SeqCst), 2);
        assert!(merge > 0, "two suites merged in no time");
        assert!(overlap <= merge, "overlap {overlap} us > merge {merge} us");
        drop(engine);
        server.shutdown().unwrap();
    }

    /// A suite is one work item: one queue wait and one service time, and
    /// both together fit inside the reply time the client saw.
    #[test]
    fn a_served_suite_adds_one_wait_and_one_service_time() {
        let (replies, reply, stats) = serve(2, "req s suite seed=5 scheduler=amd\n");
        assert!(replies.starts_with("resp s ok "), "{replies}");
        let latency = numbers(&stats, "latency_us:");
        let [wait, wait_avg, service, service_avg] = latency[..] else {
            panic!("{stats}");
        };
        assert_eq!((wait, service), (wait_avg, service_avg), "{stats}");
        let reply_us = reply.as_micros() as u64;
        assert!(
            wait + service <= reply_us,
            "wait {wait} us + service {service} us > reply {reply_us} us"
        );
    }

    #[test]
    fn a_suite_past_its_deadline_expires_once() {
        let (replies, _, stats) = serve(2, "req s suite deadline-ms=0\n");
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(lines.len(), 1, "{replies}");
        assert!(lines[0].starts_with("resp s expired "), "{replies}");
        assert!(stats.contains(", 1 expired,"), "{stats}");
        assert!(stats.contains(", 0 suites"), "{stats}");
    }

    /// A suite in service holds one worker; a small `schedule` sent after
    /// it on the same connection is served by the other and answered
    /// first.
    #[test]
    fn a_small_schedule_overtakes_a_suite_in_service() {
        let text = textir::to_text(&workloads::patterns::sized(20, 3));
        let script = format!(
            "req s suite scale=0.02 scheduler=par\nreq r schedule ddg {}\n{text}",
            text.lines().count()
        );
        let (replies, _, _) = serve(2, &script);
        let ids: Vec<&str> = replies
            .lines()
            .filter_map(|l| l.strip_prefix("resp "))
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        assert_eq!(ids, ["r", "s"], "{replies}");
    }
}
