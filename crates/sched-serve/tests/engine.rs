//! In-process engine tests: requests through [`handle_connection`] against
//! a live worker pool, checked for byte identity with direct pipeline
//! calls, typed overload/expiry behavior, and correct persistence.

use machine_model::OccupancyModel;
use pipeline::{compile_suite, PipelineConfig, ScheduleCache, SchedulerKind};
use sched_serve::proto::{read_response, Response};
use sched_serve::{handle_connection, render, ServeConfig, Server};
use std::io::{BufReader, Write};
use std::sync::{Arc, Mutex};

/// A `Box<dyn Write + Send>` view over a shared byte buffer.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

const REGION: &str = "\
instr load0 defs v0 uses s0
instr load1 defs v1 uses s0
instr mul defs v2 uses v0,v1
instr add defs v3 uses v2,v0
instr store uses v3
edge 0 2 4
edge 1 2 4
edge 2 3 2
edge 3 4 2
";

/// Runs a scripted connection against a fresh server and returns every
/// response in arrival order.
fn run_session(config: ServeConfig, script: &str) -> Vec<(String, Response)> {
    let server = Server::start(config).unwrap();
    let buf = SharedBuf::default();
    handle_connection(server.engine(), script.as_bytes(), Box::new(buf.clone()));
    server.wait_idle();
    let bytes = buf.0.lock().unwrap().clone();
    server.shutdown().unwrap();
    let mut reader = BufReader::new(&bytes[..]);
    let mut responses = Vec::new();
    while let Some(r) = read_response(&mut reader).unwrap() {
        responses.push(r);
    }
    responses
}

fn schedule_script(id: &str, opts: &str) -> String {
    let sep = if opts.is_empty() { "" } else { " " };
    format!(
        "req {id} schedule{sep}{opts} ddg {}\n{REGION}",
        REGION.lines().count()
    )
}

#[test]
fn schedule_response_is_byte_identical_to_direct_pipeline() {
    let responses = run_session(ServeConfig::default(), &schedule_script("r1", ""));
    assert_eq!(responses.len(), 1);
    let (id, resp) = &responses[0];
    assert_eq!(id, "r1");
    let Response::Ok { payload } = resp else {
        panic!("expected ok, got {resp:?}");
    };
    // The same input through the pipeline directly (cache off — certified
    // hits make cache on/off byte-identical).
    let ddg = sched_ir::textir::parse(REGION).unwrap();
    let occ = OccupancyModel::vega_like();
    let mut cfg = PipelineConfig::paper(SchedulerKind::ParallelAco, 0);
    cfg.aco.blocks = 32;
    let comp = pipeline::compile_region(&ddg, &occ, &cfg);
    let want = render::schedule_report(&ddg, &occ, SchedulerKind::ParallelAco, &comp).unwrap();
    assert_eq!(payload, &want);
}

#[test]
fn concurrent_requests_on_one_connection_all_answer() {
    // Four outstanding requests with distinct options; every response
    // must arrive, tagged with its id, and match a direct compile.
    let mut script = String::new();
    let cases = [
        ("a", "scheduler=amd"),
        ("b", "scheduler=cp"),
        ("c", "scheduler=seq seed=3"),
        ("d", "seed=1 blocks=8"),
    ];
    for (id, opts) in &cases {
        script.push_str(&schedule_script(id, opts));
    }
    let responses = run_session(ServeConfig::default(), &script);
    assert_eq!(responses.len(), cases.len());
    let ddg = sched_ir::textir::parse(REGION).unwrap();
    let occ = OccupancyModel::vega_like();
    for (id, resp) in &responses {
        let (kind, seed, blocks) = match id.as_str() {
            "a" => (SchedulerKind::BaseAmd, 0, 32),
            "b" => (SchedulerKind::CriticalPath, 0, 32),
            "c" => (SchedulerKind::SequentialAco, 3, 32),
            "d" => (SchedulerKind::ParallelAco, 1, 8),
            other => panic!("unexpected id {other}"),
        };
        let mut cfg = PipelineConfig::paper(kind, seed);
        cfg.aco.blocks = blocks;
        let comp = pipeline::compile_region(&ddg, &occ, &cfg);
        let want = render::schedule_report(&ddg, &occ, kind, &comp).unwrap();
        let Response::Ok { payload } = resp else {
            panic!("{id}: expected ok, got {resp:?}");
        };
        assert_eq!(payload, &want, "response {id} drifted");
    }
}

#[test]
fn zero_capacity_returns_typed_overload() {
    let config = ServeConfig {
        queue_capacity: 0,
        ..ServeConfig::default()
    };
    let responses = run_session(config, &schedule_script("r1", ""));
    assert_eq!(responses.len(), 1);
    assert_eq!(
        responses[0].1,
        Response::Overloaded {
            queued: 0,
            capacity: 0
        }
    );
}

#[test]
fn zero_deadline_returns_typed_expiry() {
    let responses = run_session(
        ServeConfig::default(),
        &schedule_script("r1", "deadline-ms=0"),
    );
    assert_eq!(responses.len(), 1);
    let Response::Expired { deadline_ms, .. } = responses[0].1 else {
        panic!("expected expired, got {:?}", responses[0].1);
    };
    assert_eq!(deadline_ms, 0);
}

#[test]
fn malformed_and_invalid_requests_answer_err_and_keep_serving() {
    let mut script = String::from("req x bogus\n");
    // Unparsable region payload.
    script.push_str("req y schedule ddg 1\nnot an instr line\n");
    // A valid request afterwards still works: errors do not wedge the
    // connection.
    script.push_str(&schedule_script("z", "scheduler=amd"));
    let responses = run_session(ServeConfig::default(), &script);
    assert_eq!(responses.len(), 3);
    assert_eq!(responses[0].0, "x");
    assert!(matches!(responses[0].1, Response::Err { .. }));
    assert_eq!(responses[1].0, "y");
    assert!(matches!(responses[1].1, Response::Err { .. }));
    assert_eq!(responses[2].0, "z");
    assert!(matches!(responses[2].1, Response::Ok { .. }));
}

#[test]
fn suite_response_reports_the_golden_fingerprint() {
    // `suite seed=5` under the default options is exactly the golden
    // suite configuration: scaled(5, 0.008), pipeline seed 0, 4 blocks,
    // pass-2 gate 1. The served fingerprint must equal a direct
    // `compile_suite` run's, and the whole report must be the shared
    // renderer's over that run, at any worker count and for every suite
    // scheduler the daemon's pool runs differently.
    let suite = workloads::Suite::generate(&workloads::SuiteConfig::scaled(5, 0.008));
    let occ = OccupancyModel::vega_like();
    for (name, kind) in [
        ("par", SchedulerKind::ParallelAco),
        ("amd", SchedulerKind::BaseAmd),
        ("batched", SchedulerKind::BatchedParallelAco),
    ] {
        let mut cfg = PipelineConfig::paper(kind, 0);
        cfg.aco.blocks = 4;
        cfg.aco.pass2_gate_cycles = 1;
        let run = compile_suite(&suite, &occ, &cfg);
        let want = render::suite_report(&run);
        let fingerprint = format!(
            "fingerprint {:#018x}",
            sched_verify::suite_fingerprint(&run)
        );
        assert!(want.lines().any(|l| l == fingerprint), "{want}");
        for workers in [1, 2, 8] {
            let script = format!("req s suite seed=5 scheduler={name}\n");
            let responses = run_session(
                ServeConfig {
                    workers,
                    ..ServeConfig::default()
                },
                &script,
            );
            assert_eq!(responses.len(), 1);
            let Response::Ok { payload } = &responses[0].1 else {
                panic!("expected ok, got {:?}", responses[0].1);
            };
            assert_eq!(payload, &want, "{name} at {workers} workers");
        }
    }
}

#[test]
fn stats_and_flush_roundtrip_and_cache_persists() {
    let dir = std::env::temp_dir().join(format!("sched-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_path = dir.join("cache.txt");
    let _ = std::fs::remove_file(&cache_path);

    let config = ServeConfig {
        cache_path: Some(cache_path.clone()),
        ..ServeConfig::default()
    };
    // Two identical schedules (second should hit the warm cache), then
    // stats, then flush.
    let mut script = String::new();
    script.push_str(&schedule_script("r1", ""));
    script.push_str(&schedule_script("r2", ""));
    script.push_str("req s1 stats\nreq f1 flush\n");
    let server = Server::start(config.clone()).unwrap();
    let buf = SharedBuf::default();
    handle_connection(server.engine(), script.as_bytes(), Box::new(buf.clone()));
    server.wait_idle();
    // Read the stats answered inline mid-session.
    let bytes = buf.0.lock().unwrap().clone();
    let mut reader = BufReader::new(&bytes[..]);
    let mut by_id = std::collections::HashMap::new();
    while let Some((id, r)) = read_response(&mut reader).unwrap() {
        by_id.insert(id, r);
    }
    let Some(Response::Ok { payload }) = by_id.get("s1") else {
        panic!("stats missing: {by_id:?}");
    };
    // The stats request is answered inline, after itself was counted but
    // before the flush arrived: 3 requests seen at that instant.
    assert!(payload.contains("requests: 3 received"), "{payload}");
    assert!(payload.contains("hits"), "{payload}");
    let Some(Response::Ok { payload }) = by_id.get("f1") else {
        panic!("flush missing: {by_id:?}");
    };
    assert!(payload.contains("flushed"), "{payload}");
    assert!(cache_path.exists(), "flush must write the cache file");
    server.shutdown().unwrap();

    // The persisted cache reloads cleanly and serves the same bytes.
    let reloaded = ScheduleCache::load_from(&cache_path).unwrap();
    let ddg = sched_ir::textir::parse(REGION).unwrap();
    let occ = OccupancyModel::vega_like();
    let mut cfg = PipelineConfig::paper(SchedulerKind::ParallelAco, 0);
    cfg.aco.blocks = 32;
    let comp = reloaded.compile_solo(&ddg, &occ, &cfg);
    let stats = reloaded.stats();
    assert_eq!(stats.hits, 1, "persisted entry must hit on reload");
    let direct = pipeline::compile_region(&ddg, &occ, &cfg);
    assert_eq!(
        render::schedule_report(&ddg, &occ, SchedulerKind::ParallelAco, &comp).unwrap(),
        render::schedule_report(&ddg, &occ, SchedulerKind::ParallelAco, &direct).unwrap(),
    );
    let _ = std::fs::remove_file(&cache_path);
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn flush_without_cache_path_is_a_typed_error() {
    let responses = run_session(ServeConfig::default(), "req f flush\n");
    assert_eq!(responses.len(), 1);
    let Response::Err { message } = &responses[0].1 else {
        panic!("expected err, got {:?}", responses[0].1);
    };
    assert!(message.contains("no cache file configured"), "{message}");
}

#[test]
fn the_retired_tuning_fields_are_invalid_input() {
    let path = std::env::temp_dir().join(format!("sched-serve-tune-{}", std::process::id()));
    for config in [
        ServeConfig {
            tune: true,
            ..ServeConfig::default()
        },
        ServeConfig {
            tune_path: Some(path.clone()),
            ..ServeConfig::default()
        },
    ] {
        let Err(e) = Server::start(config) else {
            panic!("a tuning daemon must not boot");
        };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
        assert!(e.to_string().contains("self-tuning was removed"), "{e}");
    }
    assert!(!path.exists(), "a rejected boot must not write the path");
}
