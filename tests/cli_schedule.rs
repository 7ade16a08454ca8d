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

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// `parent_schedtune_v1.tune` was written by `gpu-aco-cli schedule
/// <region> --tune` before the record codec: four tuned runs over the three
/// parent regions. It loads and saves back byte for byte, and one more
/// tuned run prints what that binary printed (`.out`) and leaves the store
/// it left (`.next.tune`).
#[test]
fn a_schedtune_file_written_before_the_record_codec_loads_and_tunes_the_same() {
    let written = std::fs::read(fixture("parent_schedtune_v1.tune")).unwrap();
    let store = gpu_aco::tuning::TuneStore::load_from_reader(&written[..]).unwrap();
    let mut saved = Vec::new();
    store.save_to_writer(&mut saved).unwrap();
    assert!(
        saved == written,
        "load + save must reproduce the parent's bytes"
    );

    let dir = tmp_dir("parent-tune");
    let tune = dir.join("t.tune");
    std::fs::write(&tune, &written).unwrap();
    let region = fixture("parent_region_a.txt");
    let (region, tune_arg) = (region.to_str().unwrap(), tune.to_str().unwrap());
    let out = cli(
        &["schedule", region, "--blocks", "4", "--tune", tune_arg],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout == std::fs::read(fixture("parent_schedtune_v1.out")).unwrap());
    assert!(
        std::fs::read(&tune).unwrap()
            == std::fs::read(fixture("parent_schedtune_v1.next.tune")).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupted cache or tuning-store file stops `schedule` and `serve` with
/// exit 1 and an error that names the file and the line, never a panic.
#[test]
fn a_corrupted_store_file_is_an_error_that_names_its_line() {
    let dir = tmp_dir("corrupted-stores");
    let region = generate(&dir, "mixed", "60", "r.txt");
    let (cache, tune) = (dir.join("c.cache"), dir.join("t.tune"));
    let (cache_arg, tune_arg) = (cache.to_str().unwrap(), tune.to_str().unwrap());
    let out = cli(
        &[
            "schedule", &region, "--cache", cache_arg, "--tune", tune_arg,
        ],
        &dir,
    );
    assert!(out.status.success());
    // The cache cut mid-entry; the first class statistic of the store made
    // non-numeric.
    let bytes = std::fs::read(&cache).unwrap();
    std::fs::write(&cache, &bytes[..bytes.len() / 2]).unwrap();
    let text = std::fs::read_to_string(&tune).unwrap();
    let class_line = text.lines().position(|l| l.starts_with("class ")).unwrap() + 1;
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let mut toks: Vec<&str> = lines[class_line - 1].split(' ').collect();
    toks[2] = "x1";
    lines[class_line - 1] = toks.join(" ");
    std::fs::write(&tune, lines.join("\n") + "\n").unwrap();

    let tune_err =
        format!("tuning store {tune_arg}: schedtune: line {class_line}: bad class statistic `x1`");
    for (args, want) in [
        (
            vec!["schedule", &region, "--cache", cache_arg],
            format!("error: loading cache {cache_arg}: schedcache: line "),
        ),
        (
            vec!["schedule", &region, "--tune", tune_arg],
            format!("error: loading {tune_err}"),
        ),
        (
            vec!["serve", "--stdio", "--cache", cache_arg],
            "error: serve: schedcache: line ".to_string(),
        ),
        (
            vec!["serve", "--stdio", "--tune", tune_arg],
            format!("error: serve: schedtune: line {class_line}: bad class statistic"),
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
