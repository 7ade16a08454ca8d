//! End-to-end tests of the `gpu-aco-cli analyze` subcommand: exit codes,
//! source spans, the machine-readable JSON report the CI deny-gate
//! consumes, and baseline suppression.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli(args: &[&str], dir: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpu-aco-cli"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("running gpu-aco-cli")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gpu-aco-cli-analyze-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A clean region file: generated workloads are acyclic, SSA, and carry
/// model-consistent latencies, so `analyze` must exit 0 on them.
fn write_clean_region(dir: &std::path::Path) -> String {
    let out = cli(&["generate", "mixed", "40", "--seed", "3"], dir);
    assert!(out.status.success());
    let path = dir.join("clean.txt");
    std::fs::write(&path, &out.stdout).unwrap();
    path.to_string_lossy().into_owned()
}

/// A two-instruction region with a dependence cycle (S002, deny).
fn write_cyclic_region(dir: &std::path::Path) -> String {
    let path = dir.join("cyclic.txt");
    std::fs::write(
        &path,
        "instr v_alu_0 defs v0\ninstr v_alu_1 defs v1 uses v0\nedge 0 1 1\nedge 1 0 1\n",
    )
    .unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn clean_region_analyzes_ok() {
    let dir = tmp_dir("clean");
    let region = write_clean_region(&dir);
    let out = cli(&["analyze", &region], &dir);
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok"), "{stdout}");
}

#[test]
fn cyclic_region_denies_with_witness_and_span() {
    let dir = tmp_dir("cyclic");
    let region = write_cyclic_region(&dir);
    let out = cli(&["analyze", &region], &dir);
    assert!(!out.status.success(), "a deny finding must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("deny[S002]"), "{stdout}");
    // The span points at the cycle-closing edge's source line.
    assert!(stdout.contains("cyclic.txt:4:1"), "{stdout}");
    assert!(stdout.contains("cycle 0 -> 1 -> 0"), "{stdout}");
}

#[test]
fn json_report_is_valid_and_machine_readable() {
    let dir = tmp_dir("json");
    let clean = write_clean_region(&dir);
    let cyclic = write_cyclic_region(&dir);
    let out = cli(&["analyze", &clean, &cyclic, "--json"], &dir);
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Strict JSON: the report must parse under an independent RFC 8259
    // recognizer, not just look JSON-ish.
    gpu_aco::analyze::json_check::validate(stdout.trim())
        .unwrap_or_else(|(pos, msg)| panic!("invalid JSON at byte {pos}: {msg}\n{stdout}"));
    assert!(stdout.contains("\"schema\":\"sched-analyze-findings/v1\""));
    assert!(stdout.contains("\"deny\":1"), "{stdout}");
    assert!(stdout.contains("\"code\":\"S002\""), "{stdout}");
    assert!(stdout.contains("\"line\":4"), "{stdout}");
}

#[test]
fn baseline_suppresses_known_findings() {
    let dir = tmp_dir("baseline");
    let region = write_cyclic_region(&dir);
    let baseline = dir.join("baseline.txt").to_string_lossy().into_owned();
    let write = cli(&["analyze", &region, "--write-baseline", &baseline], &dir);
    assert!(
        !write.status.success(),
        "findings still denied on the write run"
    );
    let out = cli(&["analyze", &region, "--baseline", &baseline], &dir);
    assert!(
        out.status.success(),
        "baselined findings must not gate: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let json = cli(
        &["analyze", &region, "--baseline", &baseline, "--json"],
        &dir,
    );
    let stdout = String::from_utf8_lossy(&json.stdout);
    assert!(stdout.contains("\"deny\":0"), "{stdout}");
    assert!(stdout.contains("\"suppressed\":1"), "{stdout}");
}

#[test]
fn pedantic_flag_reveals_redundant_edges() {
    let dir = tmp_dir("pedantic");
    let path = dir.join("redundant.txt");
    // a -> m -> b plus a direct a -> b edge of latency 1: the two-edge
    // path has effective latency 2, so the direct edge is S001-redundant.
    std::fs::write(
        &path,
        "instr v_alu_0 defs v0\ninstr v_alu_1 defs v1 uses v0\n\
         instr v_alu_2 defs v2 uses v1\nedge 0 1 1\nedge 1 2 1\nedge 0 2 1\n",
    )
    .unwrap();
    let region = path.to_string_lossy().into_owned();
    let quiet = cli(&["analyze", &region], &dir);
    assert!(quiet.status.success());
    assert!(!String::from_utf8_lossy(&quiet.stdout).contains("S001"));
    let loud = cli(&["analyze", &region, "--pedantic"], &dir);
    assert!(loud.status.success(), "pedantic findings never gate");
    let stdout = String::from_utf8_lossy(&loud.stdout);
    assert!(stdout.contains("pedantic[S001]"), "{stdout}");
}

/// A region that defines `v0` twice parses, so every profile must answer
/// it the same way: `schedule` schedules it (first def wins; the debug
/// profile used to panic on an interning assertion the release profile
/// compiled out), and naming the SSA violation stays `verify`'s job.
#[test]
fn twice_defined_register_schedules_and_verify_denies() {
    let dir = tmp_dir("non-ssa");
    let path = dir.join("non_ssa.txt");
    std::fs::write(
        &path,
        "instr a defs v0 uses s0\ninstr b defs v0 uses s0\ninstr c defs v1 uses v0\n\
         instr d uses v1,v0\nedge 0 2 4\nedge 1 3 4\nedge 2 3 1\n",
    )
    .unwrap();
    let region = path.to_string_lossy().into_owned();
    for scheduler in ["amd", "luc", "seq", "par"] {
        let out = cli(&["schedule", &region, "--scheduler", scheduler], &dir);
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(out.status.success(), "{scheduler}: {stdout}\n{stderr}");
        // `schedule: a b _ _ c d`: one slot per cycle, `_` a stall.
        let slots: Vec<&str> = stdout
            .lines()
            .find_map(|l| l.strip_prefix("schedule: "))
            .unwrap_or_else(|| panic!("{scheduler}: no schedule line in {stdout}"))
            .split_whitespace()
            .collect();
        let cycle = |name: &str| {
            let at: Vec<usize> = (0..slots.len()).filter(|&i| slots[i] == name).collect();
            assert_eq!(at.len(), 1, "{scheduler}: `{name}` in {slots:?}");
            at[0]
        };
        let (a, b, c, d) = (cycle("a"), cycle("b"), cycle("c"), cycle("d"));
        assert!(
            c >= a + 4 && d >= b + 4 && d > c,
            "{scheduler}: latencies violated in {slots:?}"
        );
    }
    let out = cli(&["verify", &region], &dir);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("deny[L002]"), "{stdout}");
}

/// A register token whose first character is multi-byte used to abort
/// `schedule`, `verify` and `analyze` with a `not a char boundary` panic;
/// it is a positioned diagnostic like any other bad register.
#[test]
fn non_ascii_register_token_is_a_diagnostic_not_a_panic() {
    let dir = tmp_dir("utf8-reg");
    for (name, text, at) in [
        (
            "class.txt",
            "instr a defs é5\n",
            "line 1, column 14: bad register",
        ),
        (
            "list.txt",
            "instr a defs v0,€\n",
            "line 1, column 17: bad register `€`",
        ),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let region = path.to_string_lossy().into_owned();
        for subcommand in ["schedule", "verify", "analyze"] {
            let out = cli(&[subcommand, &region], &dir);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{subcommand} {name}: {stderr}");
            assert!(stderr.contains(at), "{subcommand} {name}: {stderr}");
            assert!(
                !stderr.contains("panicked"),
                "{subcommand} {name}: {stderr}"
            );
        }
    }
}
