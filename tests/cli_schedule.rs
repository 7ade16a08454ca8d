//! End-to-end tests of `gpu-aco-cli schedule` and `verify` around the
//! colony size and the host cores they may use.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cli(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpu-aco-cli"))
        .args(args)
        .current_dir(dir)
        .stdin(std::process::Stdio::null())
        .output()
        .expect("running gpu-aco-cli")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gpu-aco-cli-schedule-{name}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `gpu-aco-cli generate <pattern> <size>` to `file` in `dir`.
fn generate(dir: &Path, pattern: &str, size: &str, file: &str) -> String {
    let out = cli(&["generate", pattern, size, "--seed", "3"], dir);
    assert!(out.status.success());
    let path = dir.join(file);
    std::fs::write(&path, &out.stdout).unwrap();
    path.to_string_lossy().into_owned()
}

/// `--blocks 0` used to abort `schedule --scheduler par` with `at least
/// one ant` (exit 101). Every subcommand that takes the flag rejects it
/// where it is parsed, with the daemon's message.
#[test]
fn zero_blocks_is_an_error_not_a_panic() {
    let dir = tmp_dir("zero-blocks");
    let region = generate(&dir, "random", "60", "r.txt");
    let cache = dir.join("c.cache").to_string_lossy().into_owned();
    let runs: [&[&str]; 5] = [
        &["schedule", &region, "--scheduler", "par", "--blocks", "0"],
        &[
            "schedule",
            &region,
            "--scheduler",
            "par",
            "--blocks",
            "0",
            "--cache",
            &cache,
        ],
        &["schedule", &region, &region, "--batch", "--blocks", "0"],
        &["verify", &region, "--blocks", "0"],
        &["verify", &region, "--scheduler", "par", "--blocks", "0"],
    ];
    for args in runs {
        let out = cli(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("blocks must be positive"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// `--threads N` lends N − 1 idle cores to the region's ACO iterations;
/// the output is the same bytes at any N, and `verify` certifies the lent
/// run and its lent-core determinism check.
#[test]
fn lent_cores_never_change_the_output() {
    let dir = tmp_dir("lent-cores");
    let region = generate(&dir, "mixed", "200", "r200.txt");
    let schedule = |threads: &str| {
        let args = ["schedule", &region, "--blocks", "4", "--threads", threads];
        let out = cli(&args, &dir);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let one = schedule("1");
    assert!(String::from_utf8_lossy(&one).contains("200 instructions"));
    for threads in ["2", "8"] {
        assert_eq!(one, schedule(threads), "--threads {threads}");
    }
    let out = cli(
        &[
            "verify",
            &region,
            "--scheduler",
            "par",
            "--blocks",
            "4",
            "--threads",
            "3",
        ],
        &dir,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("verify: par: ok"), "{stdout}");
}

/// A corrupted cache file stops `schedule` and `serve` with exit 1 and an
/// error that names the file and the line, never a panic.
#[test]
fn a_corrupted_store_file_is_an_error_that_names_its_line() {
    let dir = tmp_dir("corrupted-stores");
    let region = generate(&dir, "mixed", "60", "r.txt");
    let cache = dir.join("c.cache");
    let cache_arg = cache.to_str().unwrap();
    let out = cli(&["schedule", &region, "--cache", cache_arg], &dir);
    assert!(out.status.success());
    // The cache cut mid-entry.
    let bytes = std::fs::read(&cache).unwrap();
    std::fs::write(&cache, &bytes[..bytes.len() / 2]).unwrap();

    for (args, want) in [
        (
            vec!["schedule", &region, "--cache", cache_arg],
            format!("error: loading cache {cache_arg}: schedcache: line "),
        ),
        (
            vec!["serve", "--stdio", "--cache", cache_arg],
            "error: serve: schedcache: line ".to_string(),
        ),
    ] {
        let out = cli(&args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with(&want), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A flag a subcommand does not take is a usage error, not a silently
/// ignored word: a mistyped `--cache` or the removed `--tune` used to run
/// the uncached, untuned path and exit 0. The named file is never written,
/// and `serve` fails before it binds its socket.
#[test]
fn an_unknown_flag_is_a_usage_error() {
    let dir = tmp_dir("unknown-flag");
    let region = generate(&dir, "mixed", "60", "r.txt");
    let file = dir.join("f");
    let socket = dir.join("s.sock");
    let (file_arg, socket_arg) = (file.to_str().unwrap(), socket.to_str().unwrap());
    for (args, flag) in [
        (vec!["schedule", &region, "--tune", file_arg], "--tune"),
        (vec!["schedule", &region, "--cahce", file_arg], "--cahce"),
        (vec!["schedule", &region, "--no-tune"], "--no-tune"),
        (vec!["serve", "--socket", socket_arg, "--tune"], "--tune"),
        (vec!["serve", "--stdio", "--tune", file_arg], "--tune"),
    ] {
        let out = cli(&args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: unknown option `{flag}`")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!file.exists(), "{args:?} wrote {file_arg}");
        assert!(!socket.exists(), "{args:?} bound {socket_arg}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The exit status and stderr of `args`.
fn fails(args: &[&str], dir: &Path) -> (Option<i32>, String) {
    let out = cli(args, dir);
    let stderr = String::from_utf8_lossy(&out.stderr).into();
    (out.status.code(), stderr)
}

/// `--batch` always runs parallel ACO and writes no graph, so another
/// `--scheduler` or a `--dot` is a usage error, and the `--dot` file is
/// never written.
#[test]
fn batch_rejects_a_scheduler_and_a_dot_it_would_ignore() {
    let dir = tmp_dir("batch-flags");
    let region = generate(&dir, "mixed", "20", "r.txt");
    let dot = dir.join("out.dot");
    let dot_arg = dot.to_str().unwrap();
    for (args, want) in [
        (
            vec![
                "schedule",
                &region,
                &region,
                "--batch",
                "--scheduler",
                "seq",
            ],
            "error: --batch runs parallel ACO only, not `--scheduler seq`",
        ),
        (
            vec![
                "schedule",
                &region,
                &region,
                "--batch",
                "--scheduler",
                "luc",
            ],
            "error: --batch runs parallel ACO only, not `--scheduler luc`",
        ),
        (
            vec!["schedule", &region, &region, "--batch", "--dot", dot_arg],
            "error: --dot is not supported with --batch",
        ),
    ] {
        let (code, stderr) = fails(&args, &dir);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with(want), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!dot.exists(), "{args:?} wrote {dot_arg}");
    }
    let args = [
        "schedule",
        &region,
        &region,
        "--batch",
        "--scheduler",
        "par",
    ];
    let out = cli(&args, &dir);
    assert!(out.status.success(), "{args:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Flags may come before the positionals: `schedule --blocks 4 r.txt` used
/// to read `--blocks` as the region file. A value flag without its value
/// and a repeated flag are usage errors; `--dot --seed 3` used to write a
/// file named `--seed`.
#[test]
fn flags_before_the_positionals_and_malformed_flags() {
    let dir = tmp_dir("flag-order");
    let region = generate(&dir, "mixed", "20", "r.txt");
    let same = |before: &[&str], after: &[&str]| {
        let (a, b) = (cli(before, &dir), cli(after, &dir));
        let stderr = String::from_utf8_lossy(&a.stderr);
        assert!(a.status.success(), "{before:?}: {stderr}");
        assert!(b.status.success(), "{after:?}");
        assert_eq!(a.stdout, b.stdout, "{before:?} vs {after:?}");
    };
    same(
        &["schedule", "--blocks", "4", "--seed", "2", &region],
        &["schedule", &region, "--blocks", "4", "--seed", "2"],
    );
    same(
        &["verify", "--blocks", "4", "--scheduler", "seq", &region],
        &["verify", &region, "--blocks", "4", "--scheduler", "seq"],
    );
    same(
        &["generate", "--seed", "5", "scan", "4"],
        &["generate", "scan", "4", "--seed", "5"],
    );
    // `inspect` takes no flag: one in front of the file is named as such,
    // not read as the file.
    same(&["inspect", &region], &["inspect", &region]);
    let (code, stderr) = fails(&["inspect", "--blocks", &region], &dir);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: unknown option `--blocks`"),
        "{stderr}"
    );

    for (args, want) in [
        (
            vec!["schedule", &region, "--dot", "--seed", "3"],
            "error: option `--dot` needs a value",
        ),
        (
            vec!["schedule", &region, "--blocks"],
            "error: option `--blocks` needs a value",
        ),
        (
            vec!["verify", "--seed", "1", &region, "--seed", "2"],
            "error: option `--seed` given more than once",
        ),
        (
            vec!["schedule", &region, "--seed", "1", "--seed", "2"],
            "error: option `--seed` given more than once",
        ),
        (
            vec!["generate", "--seed", "1", "scan", "4", "--seed", "2"],
            "error: option `--seed` given more than once",
        ),
        (
            vec!["schedule", &region, &region],
            "error: unexpected argument",
        ),
    ] {
        let (code, stderr) = fails(&args, &dir);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with(want), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    assert!(
        !dir.join("--seed").exists(),
        "`--dot --seed` wrote `--seed`"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// For every pipeline kind, bare `schedule R` prints exactly the payload
/// of the daemon's reply to the same bare `schedule` request, and exactly
/// what `schedule R --cache F` prints on a cold and on a warm cache.
#[test]
fn bare_schedule_is_the_daemon_reply_and_the_cached_output() {
    use gpu_aco::serve::{read_response, Response};
    use std::io::Write;

    let dir = tmp_dir("one-path");
    let region = generate(&dir, "mixed", "60", "r.txt");
    let text = std::fs::read_to_string(&region).unwrap();
    // (CLI flags, request options)
    let cases: [(&[&str], &str); 6] = [
        (&["--scheduler", "amd"], "scheduler=amd"),
        (
            &["--scheduler", "cp", "--unit-aprp"],
            "scheduler=cp unit-aprp",
        ),
        (
            &["--scheduler", "seq", "--seed", "2", "--blocks", "4"],
            "scheduler=seq seed=2 blocks=4",
        ),
        (
            &[
                "--scheduler",
                "par",
                "--seed",
                "5",
                "--blocks",
                "8",
                "--unit-aprp",
            ],
            "scheduler=par seed=5 blocks=8 unit-aprp",
        ),
        (&["--blocks", "6"], "blocks=6"),
        (&["--seed", "3", "--blocks", "8"], "seed=3 blocks=8"),
    ];
    let mut requests = String::new();
    for (i, (_, opts)) in cases.iter().enumerate() {
        let n = text.lines().count();
        requests.push_str(&format!("req c{i} schedule {opts} ddg {n}\n{text}"));
    }
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_gpu-aco-cli"))
        .args(["serve", "--stdio", "--workers", "2"])
        .current_dir(&dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = daemon.stdin.take().unwrap();
    stdin.write_all(requests.as_bytes()).unwrap();
    drop(stdin);
    let out = daemon.wait_with_output().unwrap();
    assert!(out.status.success());
    let mut replies = std::collections::HashMap::new();
    let mut reader = &out.stdout[..];
    while let Some((id, resp)) = read_response(&mut reader).unwrap() {
        let Response::Ok { payload } = resp else {
            panic!("{id}: {resp:?}");
        };
        replies.insert(id, payload);
    }

    for (i, (flags, _)) in cases.iter().enumerate() {
        let run = |extra: &[&str]| {
            let mut args = vec!["schedule", &region];
            args.extend_from_slice(flags);
            args.extend_from_slice(extra);
            let out = cli(&args, &dir);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{args:?}: {stderr}");
            String::from_utf8(out.stdout).unwrap()
        };
        let bare = run(&[]);
        assert!(bare.starts_with("pipeline "), "{flags:?}: {bare}");
        assert_eq!(bare, replies[&format!("c{i}")], "{flags:?}: daemon reply");
        let cache = dir.join(format!("c{i}.cache"));
        let cache = cache.to_str().unwrap();
        assert_eq!(bare, run(&["--cache", cache]), "{flags:?}: cold cache");
        assert_eq!(bare, run(&["--cache", cache]), "{flags:?}: warm cache");
    }
    std::fs::remove_dir_all(&dir).ok();
}
