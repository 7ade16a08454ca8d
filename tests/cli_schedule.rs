//! End-to-end tests of `gpu-aco-cli schedule` and `verify` around the
//! colony size and the host cores they may use.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cli(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpu-aco-cli"))
        .args(args)
        .current_dir(dir)
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
/// the output is the same bytes at any N, through the plain and the
/// pipeline (`--no-cache`) paths, and `verify` certifies the lent run and
/// its lent-core determinism check.
#[test]
fn lent_cores_never_change_the_output() {
    let dir = tmp_dir("lent-cores");
    let region = generate(&dir, "mixed", "200", "r200.txt");
    let schedule = |threads: &str, extra: &[&str]| {
        let mut args = vec!["schedule", &region, "--blocks", "4", "--threads", threads];
        args.extend_from_slice(extra);
        let out = cli(&args, &dir);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    for extra in [&[][..], &["--no-cache"][..]] {
        let one = schedule("1", extra);
        assert!(String::from_utf8_lossy(&one).contains("200 instructions"));
        for threads in ["2", "8"] {
            assert_eq!(
                one,
                schedule(threads, extra),
                "{extra:?} --threads {threads}"
            );
        }
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
        let out = Command::new(env!("CARGO_BIN_EXE_gpu-aco-cli"))
            .args(&args)
            .current_dir(&dir)
            .stdin(std::process::Stdio::null())
            .output()
            .unwrap();
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
        let out = Command::new(env!("CARGO_BIN_EXE_gpu-aco-cli"))
            .args(&args)
            .current_dir(&dir)
            .stdin(std::process::Stdio::null())
            .output()
            .unwrap();
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
