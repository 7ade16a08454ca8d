//! End-to-end tests of `gpu-aco-cli schedule` and `verify` around the
//! colony size, the host cores they may use and the region files
//! `schedule` takes.

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
        &[
            "schedule",
            &region,
            &region,
            "--scheduler",
            "batched",
            "--blocks",
            "0",
        ],
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
        (vec!["schedule", &region, &region, "--batch"], "--batch"),
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

/// A graph and the direct schedulers' reports are of one region, and the
/// cache holds no batched compilation: each is a usage error that writes
/// neither the graph nor the cache.
#[test]
fn one_region_options_and_a_batched_cache_are_usage_errors() {
    let dir = tmp_dir("one-region-options");
    let region = generate(&dir, "mixed", "20", "r.txt");
    let (dot, cache) = (dir.join("out.dot"), dir.join("c.cache"));
    let (dot_arg, cache_arg) = (dot.to_str().unwrap(), cache.to_str().unwrap());
    let unexpected = format!("error: unexpected argument `{region}`");
    for (args, want) in [
        (
            vec!["schedule", &region, &region, "--dot", dot_arg],
            unexpected.as_str(),
        ),
        (
            vec!["schedule", &region, &region, "--scheduler", "luc"],
            &unexpected,
        ),
        (
            vec!["schedule", &region, &region, "--scheduler", "exact"],
            &unexpected,
        ),
        (
            vec![
                "schedule",
                &region,
                &region,
                "--scheduler",
                "batched",
                "--cache",
                cache_arg,
            ],
            "error: the schedule cache supports --scheduler amd|cp|seq|par, not `batched`",
        ),
    ] {
        let (code, stderr) = fails(&args, &dir);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with(want), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!dot.exists(), "{args:?} wrote {dot_arg}");
        assert!(!cache.exists(), "{args:?} wrote {cache_arg}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `schedule A B` prints exactly `schedule A` followed by `schedule B`,
/// with and without `--cache F`.
#[test]
fn several_files_print_each_file_report_in_order() {
    let dir = tmp_dir("several-files");
    let a = generate(&dir, "mixed", "30", "a.txt");
    let b = generate(&dir, "reduction", "40", "b.txt");
    let run = |args: &[&str]| {
        let out = cli(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        String::from_utf8(out.stdout).unwrap()
    };
    for kind in ["amd", "par"] {
        let flags = ["--scheduler", kind, "--blocks", "4"];
        let one = |file: &str| run(&[&["schedule", file][..], &flags].concat());
        let want = one(&a) + &one(&b);
        assert_eq!(want.matches("pipeline ").count(), 2, "{want}");
        let both = [&["schedule", &a, &b][..], &flags].concat();
        assert_eq!(run(&both), want, "{kind}");
        let cache = dir.join(format!("{kind}.cache"));
        let cached = [&both[..], &["--cache", cache.to_str().unwrap()]].concat();
        assert_eq!(run(&cached), want, "{kind}: cold cache");
        assert_eq!(run(&cached), want, "{kind}: warm cache");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--scheduler batched` plans the files into cooperative launch groups,
/// and each region keeps what its own `par` run with its share of the
/// colony keeps: at 12 blocks these six regions form one group of 2-block
/// shares. The second region's colony schedule gains 2 waves at a cost of
/// 118 cycles, so the post filter keeps the heuristic's, as it does on a
/// solo run. Only the kind name in the header differs.
#[test]
fn batched_regions_keep_what_their_solo_par_runs_keep() {
    let dir = tmp_dir("batched");
    let files: Vec<String> = (1..=6u32)
        .map(|s| {
            let out = cli(
                &[
                    "generate",
                    "mixed",
                    &(40 + 23 * s).to_string(),
                    "--seed",
                    &s.to_string(),
                ],
                &dir,
            );
            assert!(out.status.success());
            let path = dir.join(format!("r{s}.txt"));
            std::fs::write(&path, &out.stdout).unwrap();
            path.to_string_lossy().into_owned()
        })
        .collect();
    let run = |args: &[&str]| {
        let out = cli(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        String::from_utf8(out.stdout).unwrap()
    };
    let mut args = vec!["schedule", "--scheduler", "batched", "--blocks", "12"];
    args.extend(files.iter().map(String::as_str));
    let batched = run(&args);
    let solo: String = files
        .iter()
        .map(|f| run(&["schedule", f, "--scheduler", "par", "--blocks", "2"]))
        .collect();
    assert_eq!(
        batched,
        solo.replace("pipeline ParallelAco:", "pipeline BatchedParallelAco:")
    );
    assert!(
        batched.contains(
            "pipeline BatchedParallelAco: 87 instructions in 161 cycles (74 stalls), \
             VGPR PRP 29, SGPR PRP 1, occupancy 8 (kept Heuristic)\n"
        ),
        "{batched}"
    );
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
            vec!["schedule", &region, &region, "--scheduler", "luc"],
            "error: unexpected argument",
        ),
        (
            vec!["schedule", &region, "--scheduler", "amd", "--cache-stats"],
            "error: --cache-stats needs --cache",
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

/// `inspect` prints the region's facts: the critical path, length bound
/// and ready-list bound come from one `RegionAnalysis`, and every number
/// is pinned.
#[test]
fn inspect_prints_the_region_facts() {
    let dir = tmp_dir("inspect");
    let out = cli(&["generate", "mixed", "60", "--seed", "7"], &dir);
    assert!(out.status.success());
    std::fs::write(dir.join("r.txt"), &out.stdout).unwrap();
    let out = cli(&["inspect", "r.txt"], &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "instructions     : 64\n\
         edges            : 104\n\
         critical path    : 71 cycles\n\
         length LB        : 120 cycles\n\
         ready-list UB    : 32 (loose bound 64)\n\
         RP lower bound   : VGPR 1, SGPR 1\n\
         live-in / out    : [0, 1] / [0, 0]\n\
         AMD heuristic    : 122 cycles, VGPR PRP 9, occupancy 10\n"
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
