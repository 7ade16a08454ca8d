//! Admission semantics of the serve daemon: parse → cache lookup → answer
//! or queue. A `schedule` request whose region the shared cache already
//! holds is answered on the connection thread — while every worker is
//! busy, while the queue is full or has no capacity, and whatever its
//! `deadline-ms` — and only a request that needs a compile is queued,
//! bounced `overloaded` or `expired`. In-process: a [`Server`] with
//! [`handle_connection`] on one end of a `UnixStream::pair()` per client,
//! the benchmark's shape.

#![cfg(unix)]

use gpu_aco::bench_workloads::patterns;
use gpu_aco::compile::{compile_region, PipelineConfig, ScheduleCache, SchedulerKind};
use gpu_aco::ir::{textir, Ddg};
use gpu_aco::machine::OccupancyModel;
use gpu_aco::serve::{handle_connection, read_response, render, Response, ServeConfig, Server};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

/// One client connection to an in-process daemon.
struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    handler: JoinHandle<()>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let (client, daemon) = UnixStream::pair().unwrap();
        let daemon_reader = BufReader::new(daemon.try_clone().unwrap());
        let engine = Arc::clone(server.engine());
        let handler = std::thread::spawn(move || {
            handle_connection(&engine, daemon_reader, Box::new(daemon));
        });
        Client {
            reader: BufReader::new(client.try_clone().unwrap()),
            writer: client,
            handler,
        }
    }

    fn send(&mut self, wire: &str) {
        self.writer.write_all(wire.as_bytes()).unwrap();
    }

    fn recv(&mut self) -> (String, Response) {
        read_response(&mut self.reader)
            .unwrap()
            .expect("the daemon closed the connection")
    }

    /// Sends one request and reads the next reply, which must echo `id`.
    fn exchange(&mut self, id: &str, wire: &str) -> Response {
        self.send(wire);
        let (got, resp) = self.recv();
        assert_eq!(got, id, "reply to another request: {resp:?}");
        resp
    }

    fn stats(&mut self) -> String {
        match self.exchange("st", "req st stats\n") {
            Response::Ok { payload } => payload,
            other => panic!("stats: {other:?}"),
        }
    }

    fn close(self) {
        self.writer.shutdown(std::net::Shutdown::Write).unwrap();
        self.handler.join().unwrap();
    }
}

/// The wire form of a `schedule` request for `ddg`.
fn schedule(id: &str, opts: &str, ddg: &Ddg) -> String {
    let text = textir::to_text(ddg);
    format!(
        "req {id} schedule {opts} ddg {}\n{text}",
        text.lines().count()
    )
}

fn request_cfg(kind: SchedulerKind) -> (PipelineConfig, OccupancyModel) {
    let mut cfg = PipelineConfig::paper(kind, 0);
    cfg.aco.blocks = 32;
    (cfg, OccupancyModel::vega_like())
}

/// What the one-shot path renders for `ddg` under the request defaults.
fn one_shot(ddg: &Ddg, kind: SchedulerKind) -> String {
    let (cfg, occ) = request_cfg(kind);
    render::schedule_report(ddg, &occ, kind, &compile_region(ddg, &occ, &cfg)).unwrap()
}

fn expect_ok(resp: Response, want: &str, what: &str) {
    match resp {
        Response::Ok { payload } => assert_eq!(payload, want, "{what}: payload drifted"),
        other => panic!("{what}: expected ok, got {other:?}"),
    }
}

/// The number just before `label` in a `stats` payload (`3 errors`).
fn before(stats: &str, label: &str) -> u64 {
    let (head, _) = stats
        .split_once(label)
        .unwrap_or_else(|| panic!("no `{label}` in {stats}"));
    let digits = head.len() - head.trim_end_matches(|c: char| c.is_ascii_digit()).len();
    head[head.len() - digits..].parse().unwrap()
}

/// The number just after `label` in a `stats` payload (`queue_wait 800`).
fn after(stats: &str, label: &str) -> u64 {
    let (_, tail) = stats
        .split_once(label)
        .unwrap_or_else(|| panic!("no `{label}` in {stats}"));
    let digits = tail.len() - tail.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    tail[..digits].parse().unwrap()
}

/// `(hits, misses, bypasses)` of the daemon's cache.
fn cache_counts(stats: &str) -> (u64, u64, u64) {
    (
        before(stats, " hits"),
        before(stats, " misses"),
        before(stats, " bypasses"),
    )
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpu-aco-admission-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_warm_request_is_answered_while_the_worker_is_busy_and_the_queue_is_full() {
    let warm = patterns::sized(30, 5);
    let long = patterns::sized(120, 13);
    let short = patterns::sized(20, 9);

    // The reference is the one-shot CLI on the same file.
    let dir = tmp_dir("busy");
    let file = dir.join("warm.txt");
    std::fs::write(&file, textir::to_text(&warm)).unwrap();
    let cli = Command::new(env!("CARGO_BIN_EXE_gpu-aco-cli"))
        .args(["schedule", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(cli.status.success());
    let want = String::from_utf8(cli.stdout).unwrap();

    let server = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut busy = Client::connect(&server);
    let mut quick = Client::connect(&server);
    expect_ok(
        quick.exchange("w0", &schedule("w0", "", &warm)),
        &want,
        "the cold fill",
    );
    // A worker books a request after it has sent the reply.
    server.wait_idle();

    // One long region in service and one queued behind it. With capacity 1
    // the second is admitted only once the worker has popped the first, so
    // an admitted `b` with `1 queued` after it pins exactly that state.
    busy.send(&schedule("a", "", &long));
    'queued: for attempt in 0.. {
        let (b, s) = (format!("b{attempt}"), format!("s{attempt}"));
        busy.send(&schedule(&b, "", &short));
        busy.send(&format!("req {s} stats\n"));
        loop {
            match busy.recv() {
                (id, Response::Overloaded { .. }) if id == b => {}
                (id, Response::Ok { payload }) if id == s => {
                    if before(&payload, " overloaded") == attempt {
                        assert_eq!(before(&payload, " queued"), 1, "{payload}");
                        break 'queued;
                    }
                    std::thread::yield_now();
                    break;
                }
                other => panic!("the long region must still be in service: {other:?}"),
            }
        }
    }

    // The worker is busy and the queue is full: a hit is answered anyway.
    expect_ok(
        quick.exchange("w1", &schedule("w1", "", &warm)),
        &want,
        "the warm request",
    );
    let stats = quick.stats();
    assert_eq!(before(&stats, " queued"), 1, "`b` still waits: {stats}");
    assert_eq!(
        before(&stats, " regions compiled"),
        2,
        "only the fill and the hit are answered so far: {stats}"
    );
    // A request that needs a compile still bounces off the full queue.
    let cold = patterns::sized(24, 3);
    assert_eq!(
        quick.exchange("c", &schedule("c", "", &cold)),
        Response::Overloaded {
            queued: 1,
            capacity: 1
        }
    );

    for id in ["a", "b"] {
        let (got, resp) = busy.recv();
        assert!(got.starts_with(id), "{got}");
        assert!(matches!(resp, Response::Ok { .. }), "{got}: {resp:?}");
    }
    busy.close();
    quick.close();
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn without_queue_capacity_a_preloaded_region_is_served_and_a_new_one_bounces() {
    let warm = patterns::sized(30, 5);
    let cold = patterns::sized(24, 3);
    let dir = tmp_dir("preload");
    let path = dir.join("cache.txt");
    let (cfg, occ) = request_cfg(SchedulerKind::ParallelAco);
    let cache = ScheduleCache::new();
    cache.compile_solo(&warm, &occ, &cfg);
    cache.save_to(&path).unwrap();

    let server = Server::start(ServeConfig {
        queue_capacity: 0,
        cache_path: Some(path),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server);
    expect_ok(
        client.exchange("w", &schedule("w", "", &warm)),
        &one_shot(&warm, SchedulerKind::ParallelAco),
        "the preloaded region",
    );
    assert_eq!(
        client.exchange("c", &schedule("c", "", &cold)),
        Response::Overloaded {
            queued: 0,
            capacity: 0
        }
    );
    let stats = client.stats();
    assert_eq!(cache_counts(&stats), (1, 0, 0), "{stats}");
    assert_eq!(before(&stats, " overloaded"), 1, "{stats}");
    client.close();
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_zero_deadline_expires_a_compile_and_not_a_hit() {
    let warm = patterns::sized(30, 5);
    let cold = patterns::sized(24, 3);
    let want = one_shot(&warm, SchedulerKind::CriticalPath);
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server);
    expect_ok(
        client.exchange("fill", &schedule("fill", "scheduler=cp", &warm)),
        &want,
        "the cold fill",
    );
    // `deadline-ms` bounds the wait in the queue, and a hit never waits.
    expect_ok(
        client.exchange("w", &schedule("w", "scheduler=cp deadline-ms=0", &warm)),
        &want,
        "the warm request",
    );
    let expired = client.exchange("c", &schedule("c", "scheduler=cp deadline-ms=0", &cold));
    assert!(
        matches!(expired, Response::Expired { deadline_ms: 0, .. }),
        "{expired:?}"
    );
    client.close();
    server.shutdown().unwrap();
}

#[test]
fn hits_and_misses_add_up_and_only_compiles_wait_in_the_queue() {
    let regions: Vec<Ddg> = (0..3)
        .map(|i| patterns::sized(16 + 6 * i, 40 + i as u64))
        .collect();
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server);
    for (i, ddg) in regions.iter().enumerate() {
        let id = format!("cold{i}");
        expect_ok(
            client.exchange(&id, &schedule(&id, "scheduler=amd", ddg)),
            &one_shot(ddg, SchedulerKind::BaseAmd),
            &id,
        );
    }
    // A worker books a request after it has sent the reply.
    server.wait_idle();
    let cold = client.stats();
    assert_eq!(cache_counts(&cold), (0, 3, 0), "{cold}");
    assert_eq!(before(&cold, " regions compiled"), 3, "{cold}");

    for round in 0..4 {
        for (i, ddg) in regions.iter().enumerate() {
            let id = format!("warm{round}-{i}");
            expect_ok(
                client.exchange(&id, &schedule(&id, "scheduler=amd", ddg)),
                &one_shot(ddg, SchedulerKind::BaseAmd),
                &id,
            );
        }
    }
    let warm = client.stats();
    assert_eq!(cache_counts(&warm), (12, 3, 0), "{warm}");
    assert_eq!(before(&warm, " regions compiled"), 15, "{warm}");
    assert_eq!(before(&warm, " served"), 15 + 2, "{warm}");
    assert_eq!(
        after(&warm, "queue_wait "),
        after(&cold, "queue_wait "),
        "a hit waits in no queue: {warm}"
    );
    assert!(
        after(&warm, "service ") >= after(&cold, "service "),
        "{warm}"
    );
    client.close();
    server.shutdown().unwrap();
}

#[test]
fn a_lying_cache_file_entry_is_not_answered_at_admission() {
    // The edit of `hand_edited_cache_file_cannot_poison`: the persisted
    // claims lie about the final occupancy.
    let ddg = patterns::sized(30, 23);
    let dir = tmp_dir("lie");
    let path = dir.join("cache.txt");
    let (cfg, occ) = request_cfg(SchedulerKind::BaseAmd);
    let cache = ScheduleCache::new();
    cache.compile_solo(&ddg, &occ, &cfg);
    cache.save_to(&path).unwrap();
    let edited: String = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .map(|l| match l.strip_prefix("comp ") {
            Some(rest) => {
                let mut t: Vec<String> = rest.split_whitespace().map(str::to_string).collect();
                t[2] = (t[2].parse::<u32>().unwrap() + 1).to_string();
                format!("comp {}\n", t.join(" "))
            }
            None => format!("{l}\n"),
        })
        .collect();
    std::fs::write(&path, edited).unwrap();

    let server = Server::start(ServeConfig {
        cache_path: Some(path),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server);
    let want = one_shot(&ddg, SchedulerKind::BaseAmd);
    expect_ok(
        client.exchange("r1", &schedule("r1", "scheduler=amd", &ddg)),
        &want,
        "the recomputed reply",
    );
    // Only a worker's `compile_solo` counts a bypass: the request queued.
    let stats = client.stats();
    assert_eq!(cache_counts(&stats), (0, 0, 1), "{stats}");
    // Self-healed: the next one is a hit.
    expect_ok(
        client.exchange("r2", &schedule("r2", "scheduler=amd", &ddg)),
        &want,
        "the healed reply",
    );
    let stats = client.stats();
    assert_eq!(cache_counts(&stats), (1, 0, 1), "{stats}");
    client.close();
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The path that is newly concurrent: four connection threads answer hits
/// themselves while two workers compile and insert.
#[test]
fn concurrent_admission_hits_and_worker_compiles_add_up() {
    const WARM: usize = 20;
    const REPLAYS: usize = 50;
    const COLD: usize = 10;
    let kind_of = |i: usize| match i % 3 {
        0 => ("scheduler=amd", SchedulerKind::BaseAmd),
        1 => ("scheduler=cp", SchedulerKind::CriticalPath),
        _ => ("", SchedulerKind::ParallelAco),
    };
    let warm: Vec<(Ddg, String)> = (0..WARM)
        .map(|i| patterns::sized(10 + i, 100 + i as u64))
        .enumerate()
        .map(|(i, ddg)| {
            let want = one_shot(&ddg, kind_of(i).1);
            (ddg, want)
        })
        .collect();
    let cold: Vec<(Ddg, String)> = (0..COLD)
        .map(|i| patterns::sized(32 + i, 200 + i as u64))
        .enumerate()
        .map(|(i, ddg)| {
            let want = one_shot(&ddg, kind_of(i).1);
            (ddg, want)
        })
        .collect();

    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut filler = Client::connect(&server);
    for (i, (ddg, want)) in warm.iter().enumerate() {
        let id = format!("fill{i}");
        expect_ok(
            filler.exchange(&id, &schedule(&id, kind_of(i).0, ddg)),
            want,
            &id,
        );
    }

    let start = Barrier::new(5);
    let replies: usize = std::thread::scope(|s| {
        let (server, warm, cold, start) = (&server, &warm, &cold, &start);
        let mut clients: Vec<_> = [1, 3, 7, 9]
            .into_iter()
            .enumerate()
            .map(|(t, stride)| {
                s.spawn(move || {
                    let mut client = Client::connect(server);
                    start.wait();
                    for round in 0..REPLAYS {
                        for step in 0..WARM {
                            // A stride coprime to 20: each thread its own order.
                            let i = (step * stride + t + round) % WARM;
                            let id = format!("t{t}-{round}-{i}");
                            expect_ok(
                                client.exchange(&id, &schedule(&id, kind_of(i).0, &warm[i].0)),
                                &warm[i].1,
                                &id,
                            );
                        }
                    }
                    client.close();
                    REPLAYS * WARM
                })
            })
            .collect();
        clients.push(s.spawn(move || {
            let mut client = Client::connect(server);
            start.wait();
            // All ten outstanding at once, answered in completion order.
            for (i, (ddg, _)) in cold.iter().enumerate() {
                client.send(&schedule(&format!("cold{i}"), kind_of(i).0, ddg));
            }
            let mut got = HashMap::new();
            for _ in 0..COLD {
                let (id, resp) = client.recv();
                assert!(got.insert(id, resp).is_none(), "an id answered twice");
            }
            for (i, (_, want)) in cold.iter().enumerate() {
                let id = format!("cold{i}");
                expect_ok(got.remove(&id).expect("every id answered"), want, &id);
            }
            client.close();
            COLD
        }));
        clients.into_iter().map(|c| c.join().unwrap()).sum()
    });

    // A worker books a request after it has sent the reply.
    server.wait_idle();
    let stats = filler.stats();
    let schedules = (WARM + replies) as u64;
    assert_eq!(replies, 4 * REPLAYS * WARM + COLD);
    let (hits, misses, bypasses) = cache_counts(&stats);
    assert_eq!(
        hits + misses + bypasses,
        schedules,
        "one request is exactly one of hit, miss and bypass: {stats}"
    );
    assert_eq!(bypasses, 0, "{stats}");
    assert_eq!(before(&stats, " received"), schedules + 1, "{stats}");
    assert_eq!(before(&stats, " served"), schedules + 1, "{stats}");
    assert_eq!(before(&stats, " regions compiled"), schedules, "{stats}");
    assert_eq!(before(&stats, " queued"), 0, "{stats}");
    assert_eq!(before(&stats, " errors"), 0, "{stats}");
    filler.close();
    server.shutdown().unwrap();
}
