#!/usr/bin/env bash
# CI gate: formatting, lints, and the full test suite.
#
#   scripts/check.sh          # run everything
#   scripts/check.sh --fast   # skip the release build
#
# Mirrors what reviewers expect before a merge: rustfmt clean, clippy
# clean at -D warnings across every target, no Rust source naming a
# vendored stand-in crate, all workspace tests green,
# and (unless --fast) the release build the tier-1 gate uses, the bench
# binaries compiling, the full-corpus flat-IR differential test, the long
# text-IR parser, record-format and packed-region fuzz runs, the full lent-core equality
# matrix, the long host-pool lost-wake-up stress, the occupancy LUT over a
# grid of models, a truncated cache file that must be a positioned error, a CLI
# verify smoke run on generated regions, a `schedule --threads 1` vs
# `--threads 2` byte comparison, a flag before the region file, an unknown
# flag that must be a usage error, a non-ASCII register token that
# must be a diagnostic and not a panic, a `schedule` header with a bad
# option that must cost one `err` and not one per payload line, the
# static-analysis deny-gate (`gpu-aco-cli analyze --json`), the wall-clock
# smoke perf gate, and the `benchmark/` package's unit tests and
# self-checking `--smoke` runs of `suite-unique`, `suite-dup`,
# `suite-variants`, `frontend-large`, `serve-warm` and `serve-mix`
# (which must leave `benchmark/` and BENCHMARK.json untouched).

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> no product code names crossbeam, parking_lot, serde or aco_tune"
# The three stand-ins under vendor/ and the empty aco-tune package have no
# user left; they stay in the manifests only until a benchmark PR can move
# benchmark/Cargo.lock with them. Until then nothing may start using them
# again.
if grep -rnE 'crossbeam|parking_lot|serde|aco_tune' --include='*.rs' crates src tests examples; then
    echo "a stand-in regained a user (std has scope and Mutex; no serializer is vendored; the tuner was removed)"
    exit 1
fi

if [[ "${1:-}" != "--fast" ]]; then
    echo "==> cargo build --release"
    cargo build --release

    echo "==> cargo bench --workspace --no-run"
    cargo bench --workspace --no-run

    echo "==> flat region IR == old front door on the 9,941-region corpus"
    # Tier-1 runs a reduced corpus of tests/region_ir_exact.rs; this is the
    # whole frontend-large corpus plus the larger mutation sweep.
    cargo test --release -q --test region_ir_exact -- --ignored

    echo "==> text-IR parser == old front door on 392k token-soup texts"
    # Tier-1 runs 8,000 cases of tests/textir_fuzz.rs; this is the long run.
    cargo test --release -q --test textir_fuzz -- --ignored

    echo "==> record codec == old loader and writer on 117k token-soup files"
    # Tier-1 runs a few thousand cases of tests/record_fuzz.rs (schedcache,
    # serve framing); this is the long run.
    cargo test --release -q --test record_fuzz -- --ignored

    echo "==> a packed cached region answers as content_eq does: 60k cases"
    # Tier-1 runs 300 cases of tests/packed_ddg_fuzz.rs (random regions,
    # mutants, name/latency/edge-order near misses); this is the long run.
    cargo test --release -q --test packed_ddg_fuzz -- --ignored

    echo "==> lent idle cores never change a bit: the full matrix"
    # Tier-1 runs tests/lending_exact.rs on short searches; this is the
    # cross product of region sizes, colony shapes and tuning toggles.
    cargo test --release -q --test lending_exact -- --ignored

    echo "==> the host pool loses no wake-up: the long stress"
    # Tier-1 runs host_pool's no_wake_up_is_lost once per shape; this is
    # the same seeded job and merge durations over twelve times the seeds.
    cargo test --release -q -p pipeline --lib no_wake_up_is_lost_long -- --ignored

    echo "==> the occupancy LUT equals its model over a parameter grid"
    # Tier-1 holds the LUT to four models; this is 13,440 custom ones
    # (granule 1-16, budgets below the granule, per-wave maxima off a
    # multiple of it, 1-20 waves).
    cargo test --release -q -p machine-model --lib lut_matches_model_on_a_parameter_grid -- --ignored

    echo "==> gpu-aco-cli verify smoke run"
    smoke_dir="$(mktemp -d)"
    trap 'rm -rf "$smoke_dir"' EXIT
    ./target/release/gpu-aco-cli generate mixed 60 --seed 7 > "$smoke_dir/region.txt"
    ./target/release/gpu-aco-cli verify "$smoke_dir/region.txt" --blocks 8
    ./target/release/gpu-aco-cli generate reduction 40 --seed 9 > "$smoke_dir/region2.txt"
    ./target/release/gpu-aco-cli schedule "$smoke_dir/region.txt" "$smoke_dir/region2.txt" \
        --batch --blocks 8 > /dev/null

    echo "==> schedule: lent cores leave the output alone"
    # --threads 2 lends one idle core to the wavefronts of each ACO
    # iteration of a large region; the bytes must not move.
    ./target/release/gpu-aco-cli generate mixed 200 --seed 3 > "$smoke_dir/region200.txt"
    ./target/release/gpu-aco-cli schedule "$smoke_dir/region200.txt" --threads 1 \
        > "$smoke_dir/threads1.txt"
    ./target/release/gpu-aco-cli schedule "$smoke_dir/region200.txt" --threads 2 \
        > "$smoke_dir/threads2.txt"
    cmp "$smoke_dir/threads1.txt" "$smoke_dir/threads2.txt"

    echo "==> non-ASCII register token smoke"
    # `instr a defs é5` used to panic the parser (`byte index 1 is not a
    # char boundary`); every front door must answer with the positioned
    # diagnostic instead.
    printf 'instr a defs \xc3\xa95\n' > "$smoke_dir/utf8_reg.txt"
    for subcommand in schedule analyze; do
        if ./target/release/gpu-aco-cli "$subcommand" "$smoke_dir/utf8_reg.txt" \
            > /dev/null 2> "$smoke_dir/utf8_reg.err"; then
            echo "$subcommand must reject a non-ASCII register token"; exit 1
        fi
        grep -q "line 1, column 14" "$smoke_dir/utf8_reg.err" \
            || { echo "$subcommand: no positioned diagnostic"; cat "$smoke_dir/utf8_reg.err"; exit 1; }
        if grep -q "panicked" "$smoke_dir/utf8_reg.err"; then
            echo "$subcommand panicked on a non-ASCII register token"; exit 1
        fi
    done

    echo "==> schedule cache on/off smoke"
    # `--cache F`, cold and warm, prints the bytes bare `schedule` prints.
    ./target/release/gpu-aco-cli schedule "$smoke_dir/region.txt" --blocks 8 \
        --cache "$smoke_dir/sched.cache" --cache-stats > "$smoke_dir/cache_on.txt"
    ./target/release/gpu-aco-cli schedule "$smoke_dir/region.txt" --blocks 8 \
        --cache "$smoke_dir/sched.cache" --cache-stats 2>&1 > "$smoke_dir/cache_on2.txt" \
        | grep -q "cache: 1 hits" || { echo "second cached run must hit"; exit 1; }
    ./target/release/gpu-aco-cli schedule "$smoke_dir/region.txt" --blocks 8 \
        > "$smoke_dir/cache_off.txt"
    cmp "$smoke_dir/cache_on.txt" "$smoke_dir/cache_off.txt"
    cmp "$smoke_dir/cache_on.txt" "$smoke_dir/cache_on2.txt"

    echo "==> a flag before the region file"
    # The file is the positional wherever it stands, not the first word.
    ./target/release/gpu-aco-cli schedule --blocks 8 "$smoke_dir/region.txt" > /dev/null

    echo "==> a cache file cut mid-entry is a positioned error"
    # Loading must fail with exit 1 and name the line, never half-load or
    # panic.
    head -c "$(( $(wc -c < "$smoke_dir/sched.cache") / 2 ))" "$smoke_dir/sched.cache" \
        > "$smoke_dir/cut.cache"
    if ./target/release/gpu-aco-cli schedule "$smoke_dir/region.txt" --cache "$smoke_dir/cut.cache" \
        > /dev/null 2> "$smoke_dir/cut.err"; then
        echo "a truncated cache file must not load"; exit 1
    fi
    grep -q "schedcache: line " "$smoke_dir/cut.err" \
        || { echo "no positioned load error:"; head -n 1 "$smoke_dir/cut.err"; exit 1; }
    if grep -q "panicked" "$smoke_dir/cut.err"; then
        echo "a truncated cache file panicked the CLI"; exit 1
    fi

    echo "==> an unknown flag is a usage error"
    # A flag the subcommand does not take must fail, not run the default
    # path silently and leave the file it names unwritten.
    if ./target/release/gpu-aco-cli schedule "$smoke_dir/region.txt" \
        --tune "$smoke_dir/x" > /dev/null 2>&1 || [[ -e "$smoke_dir/x" ]]; then
        echo "schedule --tune must exit nonzero and write nothing"; exit 1
    fi

    echo "==> serve daemon smoke"
    # Boot the daemon on a Unix socket, preloading the cache the smoke
    # above persisted; serve three concurrent clients (two schedules and a
    # suite) plus a stats request; SIGTERM-drain it; then verify the
    # persisted cache still answers the one-shot CLI with a hit. Schedule
    # responses must be byte-identical to the one-shot `schedule` output
    # for the same inputs, and the suite must report its fingerprint.
    ./target/release/gpu-aco-cli serve --socket "$smoke_dir/daemon.sock" \
        --cache "$smoke_dir/sched.cache" &
    serve_pid=$!
    for _ in $(seq 100); do
        [[ -S "$smoke_dir/daemon.sock" ]] && break
        sleep 0.05
    done
    [[ -S "$smoke_dir/daemon.sock" ]] || { echo "daemon never bound its socket"; exit 1; }
    ./target/release/gpu-aco-cli request --socket "$smoke_dir/daemon.sock" \
        schedule "$smoke_dir/region.txt" --blocks 8 > "$smoke_dir/serve1.txt" &
    req1=$!
    ./target/release/gpu-aco-cli request --socket "$smoke_dir/daemon.sock" \
        schedule "$smoke_dir/region2.txt" --scheduler amd > "$smoke_dir/serve2.txt" &
    req2=$!
    ./target/release/gpu-aco-cli request --socket "$smoke_dir/daemon.sock" \
        suite --seed 5 --scale 0.004 > "$smoke_dir/serve_suite.txt" &
    req3=$!
    wait "$req1"
    wait "$req2"
    wait "$req3" || { echo "daemon suite request failed"; exit 1; }
    grep -q "^fingerprint 0x" "$smoke_dir/serve_suite.txt" \
        || { echo "daemon suite reply lacks its fingerprint:"; cat "$smoke_dir/serve_suite.txt"; exit 1; }
    cmp "$smoke_dir/serve1.txt" "$smoke_dir/cache_on.txt"
    ./target/release/gpu-aco-cli schedule "$smoke_dir/region2.txt" \
        --scheduler amd > "$smoke_dir/oneshot2.txt"
    cmp "$smoke_dir/serve2.txt" "$smoke_dir/oneshot2.txt"
    ./target/release/gpu-aco-cli request --socket "$smoke_dir/daemon.sock" stats \
        | grep -q "regions compiled" || { echo "stats response malformed"; exit 1; }
    kill "$serve_pid"
    wait "$serve_pid"
    [[ ! -e "$smoke_dir/daemon.sock" ]] || { echo "socket not removed on drain"; exit 1; }
    ./target/release/gpu-aco-cli schedule "$smoke_dir/region2.txt" --scheduler amd \
        --cache "$smoke_dir/sched.cache" --cache-stats 2>&1 > /dev/null \
        | grep -q "cache: 1 hits" \
        || { echo "persisted cache must hit after daemon drain"; exit 1; }

    echo "==> serve: a bad schedule option skips its payload"
    # The header's `ddg 3` frame parses, `seed=abc` does not: the daemon
    # must answer one `err`, discard the three payload lines and serve the
    # next request — not read each payload line as a request (`resp - err`).
    printf 'req c1 schedule seed=abc ddg 3\ninstr a defs v0\ninstr b uses v0\nedge 0 1 1\nreq c2 stats\n' \
        | ./target/release/gpu-aco-cli serve --stdio > "$smoke_dir/badopt.txt"
    [[ "$(grep '^resp ' "$smoke_dir/badopt.txt")" == $'resp c1 err bad seed\nresp c2 ok 5' ]] \
        || { echo "a bad schedule option must be one err, then c2 served:"; cat "$smoke_dir/badopt.txt"; exit 1; }

    echo "==> gpu-aco-cli analyze deny-gate"
    # The static-analysis gate: every smoke region must analyze clean of
    # deny-level findings, and the JSON report must match the
    # sched-analyze-findings/v1 schema the tooling consumes. The exit code
    # of `analyze` itself is the gate; the python step re-validates the
    # report shape so a renderer regression cannot slip through.
    ./target/release/gpu-aco-cli analyze "$smoke_dir/region.txt" "$smoke_dir/region2.txt" \
        --json > "$smoke_dir/analyze.json"
    python3 - "$smoke_dir/analyze.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    rep = json.load(f)
assert rep["schema"] == "sched-analyze-findings/v1", rep.get("schema")
for key in ("deny", "warn", "pedantic", "suppressed", "findings"):
    assert key in rep, f"missing key {key}"
for f in rep["findings"]:
    assert f["level"] in ("deny", "warn", "pedantic"), f
    assert f["code"].startswith("S"), f
    assert f["anchor"] and f["message"], f
assert rep["deny"] == 0, f"deny-gate: {rep['deny']} deny finding(s): {rep['findings']}"
print(f"analyze gate: clean ({rep['warn']} warn, {rep['pedantic']} pedantic)")
EOF

    echo "==> scripts/bench.sh --smoke"
    scripts/bench.sh --smoke --out "$smoke_dir/BENCH_wallclock.json" \
        --cache-out "$smoke_dir/BENCH_cache.json"

    echo "==> wallclock smoke perf gate"
    # Schema-validate the bench reports with a real JSON parser (the
    # binaries only do structural checks). Schema v3 is mandatory: v2
    # artifacts (no streaming-merge split) are rejected so a stale
    # committed report cannot pass. Then compare the smoke run's
    # sequential jobs_s, merge_s, and best_total_s against the committed
    # baseline: a regression beyond 1.25x on any of them fails the gate.
    # Regenerate the baseline on the reference machine with
    #   ./target/release/wallclock --smoke --out /dev/null
    # and edit BENCH_smoke_baseline.json when a slowdown is intentional.
    python3 - "$smoke_dir/BENCH_wallclock.json" BENCH_smoke_baseline.json \
        BENCH_wallclock.json <<'EOF'
import json, sys

def validate(path):
    with open(path) as f:
        rep = json.load(f)
    got = rep.get("schema_version")
    assert got != 2, f"{path}: schema v2 artifact — regenerate with the v3 bench"
    assert got == 3, f"{path}: unknown schema_version {got}"
    assert rep["benchmark"] == "suite_compile_wallclock", rep["benchmark"]
    for key in ("cores", "scheduler", "suite", "repetitions", "checksum",
                "checksums_agree", "samples", "sequential_best_s",
                "parallel_best_s", "speedup"):
        assert key in rep, f"{path}: missing key {key}"
    assert rep["checksums_agree"] is True, f"{path}: checksum drift"
    assert rep["samples"], f"{path}: no samples"
    for s in rep["samples"]:
        for key in ("threads", "oversubscribed", "best_total_s", "plan_s",
                    "jobs_s", "merge_s", "merge_overlap_s", "critical_path_s",
                    "all_total_s", "modeled_compile_s"):
            assert key in s, f"{path}: missing sample key {key}"
        assert s["oversubscribed"] == (s["threads"] > rep["cores"]), \
            f"{path}: bad oversubscription label at {s['threads']} threads"
        # Streaming-merge split sanity: overlap is a sub-span of merge,
        # inline (1-thread) runs cannot overlap, and the critical path is
        # exactly the non-overlapped portion of the phase sum.
        assert 0.0 <= s["merge_overlap_s"] <= s["merge_s"] + 1e-12, \
            f"{path}: merge_overlap_s outside [0, merge_s] at {s['threads']} threads"
        if s["threads"] <= 1:
            assert s["merge_overlap_s"] == 0.0, \
                f"{path}: inline merge reported overlap"
        want_cp = s["plan_s"] + s["jobs_s"] + (s["merge_s"] - s["merge_overlap_s"])
        assert abs(s["critical_path_s"] - want_cp) <= 1e-9, \
            f"{path}: critical_path_s disagrees with the phase split"
    # The headline numbers must come from honest rows only.
    honest = [s["best_total_s"] for s in rep["samples"]
              if s["threads"] > 1 and not s["oversubscribed"]]
    want = min(honest) if honest else None
    assert rep["parallel_best_s"] == want, \
        f"{path}: parallel_best_s drew from an oversubscribed row"
    return rep

smoke = validate(sys.argv[1])
validate(sys.argv[3])  # the committed full-scale report stays well-formed
with open(sys.argv[2]) as f:
    base = json.load(f)
assert base["schema_version"] == 2, \
    "baseline must be schema 2 (jobs_s + merge_s + best_total_s)"
assert smoke["suite"]["scale"] == base["suite"]["scale"], \
    "baseline/smoke suite scale mismatch"
cur = next(s for s in smoke["samples"] if s["threads"] == base["threads"])
for metric in ("jobs_s", "merge_s", "best_total_s"):
    limit = base[metric] * 1.25
    assert cur[metric] <= limit, (
        f"perf gate: smoke {metric} {cur[metric]:.4f}s exceeds {limit:.4f}s "
        f"(committed baseline {base[metric]:.4f}s x 1.25)")
    print(f"perf gate: smoke {metric} {cur[metric]:.4f}s <= {limit:.4f}s "
          f"(baseline {base[metric]:.4f}s)")
EOF

    echo "==> benchmark/: unit tests + suite-unique, suite-dup, suite-variants, frontend-large, serve-warm and serve-mix smoke"
    # The repository's one benchmark (BENCHMARK.json, benchmark/) is its own
    # cargo workspace, so `--workspace` above never builds it. Its smoke run
    # compiles a tiny suite-unique with the full correctness gate — every
    # schedule certified, timed passes repeating the warm-up's fingerprint —
    # and exits non-zero if any output is wrong (`pipefail` carries that
    # through the `tail`). The frontend-large smoke is the only CI run that
    # drives text-IR -> BaseAmd -> in-job analysis -> certifier end to end;
    # its gate fails on any deny finding or uncertified schedule. The
    # suite-dup smoke is the workload whose pool lends idle cores to the
    # region in flight. The suite-variants smoke is the only one that drives
    # SequentialAco and BatchedParallelAco. The two serve smokes drive the
    # daemon's read loop, admission and workers over socket pairs, every
    # reply checked byte for byte against the one-shot render: `serve-warm`
    # is all admission hits, `serve-mix` all compiles.
    cargo test --offline --quiet --manifest-path benchmark/Cargo.toml
    for workload in suite-unique suite-dup suite-variants frontend-large serve-warm serve-mix; do
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --smoke | tail -n 1
    done
    # The benchmark's files are frozen between benchmark PRs: a product
    # dependency edit that made cargo rewrite benchmark/Cargo.lock just now
    # (or any other drift under those paths) must fail here, not leave the
    # tree dirty.
    git diff --exit-code -- benchmark BENCHMARK.json
fi

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "All checks passed."
