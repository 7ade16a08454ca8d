//! End-to-end tests of the scheduling daemon (`gpu-aco-cli serve`) and its
//! client (`gpu-aco-cli request`): byte identity with the one-shot CLI,
//! concurrent Unix-socket clients, typed overload/expiry rejections, and
//! SIGTERM drain with durable cache persistence.

#![cfg(unix)]

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn cli(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpu-aco-cli"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("running gpu-aco-cli")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpu-aco-serve-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_region(dir: &Path, name: &str, pattern: &str, size: &str, seed: &str) -> String {
    let out = cli(&["generate", pattern, size, "--seed", seed], dir);
    assert!(out.status.success());
    let path = dir.join(name);
    std::fs::write(&path, &out.stdout).unwrap();
    path.to_string_lossy().into_owned()
}

/// Boots `serve --socket` and waits for the socket to exist.
fn start_daemon(dir: &Path, socket: &Path, extra: &[&str]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gpu-aco-cli"));
    cmd.arg("serve")
        .arg("--socket")
        .arg(socket)
        .args(extra)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let child = cmd.spawn().expect("spawning daemon");
    let deadline = Instant::now() + Duration::from_secs(20);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    child
}

fn stop_daemon(mut child: Child) {
    // SIGTERM → graceful drain; the daemon must exit on its own.
    let term = Command::new("kill")
        .arg(child.id().to_string())
        .status()
        .expect("sending SIGTERM");
    assert!(term.success());
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match child.try_wait().expect("waiting for daemon") {
            Some(status) => {
                assert!(status.success(), "daemon exited with {status}");
                break;
            }
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("daemon did not drain within the deadline");
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

#[test]
fn stdio_session_is_byte_identical_to_one_shot_cli() {
    let dir = tmp_dir("stdio");
    let region = write_region(&dir, "r.txt", "mixed", "60", "7");
    let one_shot = cli(
        &["schedule", &region, "--scheduler", "seq", "--seed", "2"],
        &dir,
    );
    assert!(one_shot.status.success());

    let text = std::fs::read_to_string(&region).unwrap();
    let request = format!(
        "req q1 schedule scheduler=seq seed=2 ddg {}\n{text}",
        text.lines().count()
    );
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_gpu-aco-cli"))
        .arg("serve")
        .current_dir(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning stdio daemon");
    daemon
        .stdin
        .take()
        .unwrap()
        .write_all(request.as_bytes())
        .unwrap();
    // Dropping stdin closes it: EOF drains the daemon.
    let out = daemon.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let (header, payload) = stdout.split_once('\n').expect("framed response");
    assert!(header.starts_with("resp q1 ok "), "header: {header}");
    assert_eq!(
        payload.as_bytes(),
        &one_shot.stdout[..],
        "daemon payload differs from one-shot CLI output"
    );
}

/// Sends `bad` (three lines of text-IR) as request `big` and a small valid
/// region as request `next` on one stdio connection; returns the response
/// line of `big` once `next` has been seen served.
fn rejected_then_served(dir_name: &str, bad: &str) -> String {
    let dir = tmp_dir(dir_name);
    let good = "instr a defs v0\ninstr b uses v0\nedge 0 1 1\n";
    let request = format!(
        "req big schedule scheduler=amd ddg 3\n{bad}req next schedule scheduler=amd ddg 3\n{good}"
    );
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_gpu-aco-cli"))
        .arg("serve")
        .current_dir(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning stdio daemon");
    daemon
        .stdin
        .take()
        .unwrap()
        .write_all(request.as_bytes())
        .unwrap();
    let out = daemon.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.lines().any(|l| l.starts_with("resp next ok ")),
        "the next request on the connection must be served: {stdout}"
    );
    assert!(stdout.contains("2 instructions in 2 cycles"), "{stdout}");
    stdout
        .lines()
        .find(|l| l.starts_with("resp big "))
        .expect("the rejected request is answered")
        .to_string()
}

/// One register name used to make the pressure tracker's id-keyed table
/// allocate 16 GB. The text-IR front door now rejects the id: the daemon
/// answers with a typed `err` and serves the next request on the same
/// connection.
#[test]
fn oversized_register_id_is_a_typed_err_and_the_connection_survives() {
    let rejected = rejected_then_served(
        "regid",
        "instr a defs v4000000000\ninstr b uses v4000000000\nedge 0 1 1\n",
    );
    assert!(
        rejected.starts_with("resp big err parsing region: line 1, column 14: register id"),
        "{rejected}"
    );
    assert!(
        rejected.contains("exceeds the maximum 1048575"),
        "{rejected}"
    );
}

/// A register token whose first character is multi-byte used to panic the
/// parser on the connection thread: that request and every later one on
/// the connection went unanswered.
#[test]
fn non_ascii_register_token_is_a_typed_err_and_the_connection_survives() {
    let rejected = rejected_then_served("regutf8", "instr a defs é5\ninstr b\nedge 0 1 1\n");
    assert!(
        rejected.starts_with("resp big err parsing region: line 1, column 14: bad register"),
        "{rejected}"
    );
    let rejected = rejected_then_served("regutf8b", "instr a defs v0,€\ninstr b\nedge 0 1 1\n");
    assert!(
        rejected.starts_with("resp big err parsing region: line 1, column 17: bad register `€`"),
        "{rejected}"
    );
}

/// A `schedule` header whose `ddg <n>` frame parses but whose options do
/// not used to leave its payload on the stream: every payload line was
/// then read as a request and answered `resp - err`, and a closed-loop
/// client was out of step from the first one.
#[test]
fn a_bad_schedule_option_is_one_err_and_its_payload_is_skipped() {
    let dir = tmp_dir("badopt");
    let session = "req c1 schedule seed=abc ddg 3\ninstr a defs v0\ninstr b uses v0\n\
                   edge 0 1 1\nreq c2 stats\n";
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_gpu-aco-cli"))
        .args(["serve", "--stdio"])
        .current_dir(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning stdio daemon");
    daemon
        .stdin
        .take()
        .unwrap()
        .write_all(session.as_bytes())
        .unwrap();
    let out = daemon.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let replies: Vec<&str> = stdout.lines().filter(|l| l.starts_with("resp ")).collect();
    assert_eq!(
        replies,
        ["resp c1 err bad seed", "resp c2 ok 5"],
        "{stdout}"
    );
    assert!(
        stdout.contains("requests: 2 received, 1 served, 1 errors"),
        "{stdout}"
    );
}

#[test]
fn concurrent_socket_clients_match_one_shot_and_cache_survives_sigterm() {
    let dir = tmp_dir("socket");
    let socket = dir.join("daemon.sock");
    let cache = dir.join("cache.txt");

    // Pre-warm a cache file through the one-shot CLI so boot exercises the
    // preload path.
    let warm_region = write_region(&dir, "warm.txt", "reduction", "40", "1");
    let warm = cli(
        &["schedule", &warm_region, "--cache", cache.to_str().unwrap()],
        &dir,
    );
    assert!(warm.status.success());
    assert!(cache.exists());

    let daemon = start_daemon(&dir, &socket, &["--cache", cache.to_str().unwrap()]);

    // Distinct regions served concurrently, each checked byte-for-byte
    // against the one-shot CLI (cache off: certified hits make cache
    // on/off identical).
    let cases = [
        ("a.txt", "mixed", "50", "3", "par"),
        ("b.txt", "scan", "70", "4", "amd"),
        ("c.txt", "transform", "45", "5", "seq"),
    ];
    let sock = socket.to_string_lossy().into_owned();
    let mut expected = Vec::new();
    let mut paths = Vec::new();
    for (name, pattern, size, seed, sched) in &cases {
        let path = write_region(&dir, name, pattern, size, seed);
        let one = cli(&["schedule", &path, "--scheduler", sched], &dir);
        assert!(one.status.success());
        expected.push(one.stdout);
        paths.push(path);
    }
    let handles: Vec<_> = cases
        .iter()
        .zip(&paths)
        .map(|((_, _, _, _, sched), path)| {
            let (dir, sock, path, sched) =
                (dir.clone(), sock.clone(), path.clone(), sched.to_string());
            std::thread::spawn(move || {
                cli(
                    &[
                        "request",
                        "--socket",
                        &sock,
                        "schedule",
                        &path,
                        "--scheduler",
                        &sched,
                    ],
                    &dir,
                )
            })
        })
        .collect();
    for (h, want) in handles.into_iter().zip(&expected) {
        let out = h.join().unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            &out.stdout, want,
            "concurrent response differs from one-shot CLI output"
        );
    }

    // Stats over the same socket: the preloaded + newly inserted entries
    // are all visible through one shared cache.
    let stats = cli(&["request", "--socket", &sock, "stats"], &dir);
    assert!(stats.status.success());
    let stats_text = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(stats_text.contains("requests:"), "{stats_text}");
    assert!(stats_text.contains("cache:"), "{stats_text}");
    assert!(stats_text.contains("regions compiled"), "{stats_text}");

    // SIGTERM: graceful drain, atomic persist, socket removed.
    stop_daemon(daemon);
    assert!(!socket.exists(), "socket file must be removed on shutdown");
    assert!(cache.exists());

    // The persisted cache must reload cleanly and still hold the warm
    // entry: a one-shot compile of the warm region over it hits.
    let replay = cli(
        &[
            "schedule",
            &warm_region,
            "--cache",
            cache.to_str().unwrap(),
            "--cache-stats",
        ],
        &dir,
    );
    assert!(replay.status.success());
    assert_eq!(
        replay.stdout, warm.stdout,
        "replay over persisted cache drifted"
    );
    let replay_err = String::from_utf8_lossy(&replay.stderr);
    assert!(
        replay_err.contains("cache: 1 hits"),
        "expected a cache hit on the persisted file: {replay_err}"
    );
}

#[test]
fn overload_and_deadline_rejections_are_typed() {
    let dir = tmp_dir("overload");
    let socket = dir.join("daemon.sock");
    let region = write_region(&dir, "r.txt", "vector", "50", "9");
    // Zero queue capacity: every schedule/suite submission bounces.
    let daemon = start_daemon(&dir, &socket, &["--queue", "0"]);
    let sock = socket.to_string_lossy().into_owned();

    let out = cli(&["request", "--socket", &sock, "schedule", &region], &dir);
    assert!(
        !out.status.success(),
        "overloaded request must exit nonzero"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("overloaded"), "stderr: {err}");

    // Inline requests still work on an overloaded daemon.
    let stats = cli(&["request", "--socket", &sock, "stats"], &dir);
    assert!(stats.status.success());
    assert!(String::from_utf8_lossy(&stats.stdout).contains("1 overloaded"));
    stop_daemon(daemon);

    // A zero deadline on a working daemon expires in the queue.
    let socket2 = dir.join("daemon2.sock");
    let daemon2 = start_daemon(&dir, &socket2, &[]);
    let sock2 = socket2.to_string_lossy().into_owned();
    let out = cli(
        &[
            "request",
            "--socket",
            &sock2,
            "schedule",
            &region,
            "--deadline-ms",
            "0",
        ],
        &dir,
    );
    assert!(!out.status.success(), "expired request must exit nonzero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("expired"), "stderr: {err}");
    stop_daemon(daemon2);
}

#[test]
fn suite_request_is_byte_identical_to_the_one_shot_pipeline() {
    let dir = tmp_dir("suite");
    let socket = dir.join("daemon.sock");
    let daemon = start_daemon(&dir, &socket, &[]);
    let sock = socket.to_string_lossy().into_owned();
    let out = cli(
        &["request", "--socket", &sock, "suite", "--seed", "5"],
        &dir,
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    // Same run in-process through the pipeline, rendered through the same
    // function the daemon uses: the daemon's streaming merge must produce
    // the byte-identical payload, not just the same fingerprint line.
    let suite = gpu_aco::bench_workloads::Suite::generate(
        &gpu_aco::bench_workloads::SuiteConfig::scaled(5, 0.008),
    );
    let occ = gpu_aco::machine::OccupancyModel::vega_like();
    let mut cfg =
        gpu_aco::compile::PipelineConfig::paper(gpu_aco::compile::SchedulerKind::ParallelAco, 0);
    cfg.aco.blocks = 4;
    cfg.aco.pass2_gate_cycles = 1;
    let run = gpu_aco::compile::compile_suite(&suite, &occ, &cfg);
    let want_payload = gpu_aco::serve::render::suite_report(&run);
    assert_eq!(
        text, want_payload,
        "daemon suite payload differs from the one-shot pipeline"
    );
    let want = format!(
        "fingerprint {:#018x}",
        gpu_aco::verify::suite_fingerprint(&run)
    );
    assert!(
        text.lines().any(|l| l == want),
        "suite response {text:?} lacks {want:?}"
    );
    // The incremental fingerprint folded during the streaming merge must
    // equal the whole-run recomputation the renderer prints.
    assert_eq!(run.fingerprint, gpu_aco::verify::suite_fingerprint(&run));

    // The stats payload surfaces the merge-overlap latency split.
    let stats = cli(&["request", "--socket", &sock, "stats"], &dir);
    assert!(stats.status.success());
    let stats_text = String::from_utf8_lossy(&stats.stdout).into_owned();
    let phases = stats_text
        .lines()
        .find(|l| l.starts_with("suite_phases_us:"))
        .unwrap_or_else(|| panic!("stats lacks suite_phases_us line: {stats_text}"));
    assert!(
        phases.contains("(overlapped "),
        "phases line lacks overlap split: {phases}"
    );
    stop_daemon(daemon);
}
