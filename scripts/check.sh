#!/usr/bin/env bash
# CI gate: formatting, lints, and the full test suite.
#
#   scripts/check.sh          # run everything
#   scripts/check.sh --fast   # skip the release build
#
# Mirrors what reviewers expect before a merge: rustfmt clean, clippy
# clean at -D warnings across every target, rustdoc clean at -D warnings
# (no broken or private intra-doc link), no Rust source naming a
# vendored stand-in crate, all workspace tests green,
# and (unless --fast) the release build the tier-1 gate uses, the bench
# binaries compiling, the `tables` bench regenerating EXPERIMENTS.md's
# generated blocks, which must leave the file as committed (its wall time is
# printed), the full-corpus flat-IR differential test (which also holds
# `Schedule::from_order` to earliest fit over the oracle's predecessor
# lists on random topological orders of every region), the long text-IR
# parser, record-format and packed-region/cache-key fuzz runs, the long
# brute-force soundness run of the length bound, the full lent-core equality
# matrix, the long host-pool lost-wake-up stress, the occupancy LUT over a
# grid of models, a truncated cache file that must be a positioned error, a CLI
# verify smoke run on generated regions, a `schedule --threads 1` vs
# `--threads 2` byte comparison, a flag before the region file, an unknown
# flag that must be a usage error, a non-ASCII register token that
# must be a diagnostic and not a panic, a `schedule` header with a bad
# option that must cost one `err` and not one per payload line, the
# static-analysis deny-gate (`gpu-aco-cli analyze --json`), the
# `benchmark/` package's unit tests and self-checking `--smoke` runs of
# `suite-unique`, `suite-dup`, `suite-variants`, `frontend-large`,
# `serve-warm` and `serve-mix` (which must leave `benchmark/` and
# BENCHMARK.json untouched), and the suite compile-time gate: two more
# `suite-unique` and `suite-dup` smoke runs each, the minimum `compile_s`
# of each workload's three held under a ceiling.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
# A deleted or renamed item that a doc link still names fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

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

    echo "==> EXPERIMENTS.md's generated tables are current"
    # The `tables` target rewrites every generated block of EXPERIMENTS.md
    # from seeded modeled runs, so a fresh run must reproduce the committed
    # file: a difference is a hand-edited block, or a result that moved
    # without its tables. A missing or broken block marker fails the run.
    tables_start=$SECONDS
    cargo bench -p bench-harness --bench tables
    echo "tables: $(( SECONDS - tables_start )) s"
    git diff --exit-code -- EXPERIMENTS.md \
        || { echo "EXPERIMENTS.md differs from its generated tables; commit the regenerated file"; exit 1; }

    echo "==> flat region IR == old front door on the 9,941-region corpus"
    # Tier-1 runs a reduced corpus of tests/region_ir_exact.rs; this is the
    # whole frontend-large corpus plus the larger mutation sweep, each built
    # region also checked for from_order == earliest fit over the oracle's
    # predecessor lists.
    cargo test --release -q --test region_ir_exact -- --ignored

    echo "==> text-IR parser == old front door on 392k token-soup texts"
    # Tier-1 runs 8,000 cases of tests/textir_fuzz.rs; this is the long run.
    cargo test --release -q --test textir_fuzz -- --ignored

    echo "==> record codec == old loader and writer on 117k token-soup files"
    # Tier-1 runs a few thousand cases of tests/record_fuzz.rs (schedcache,
    # serve framing); this is the long run.
    cargo test --release -q --test record_fuzz -- --ignored

    echo "==> the length bound never exceeds the brute-force optimum: 20k DAGs"
    # Tier-1 runs 500 DAGs of up to 7 instructions of
    # tests/length_bound_oracle.rs; this is the long run, up to 8.
    cargo test --release -q --test length_bound_oracle -- --ignored

    echo "==> a packed cached region and its key fingerprint answer as content_eq does: 60k cases"
    # Tier-1 runs 300 cases of tests/packed_ddg_fuzz.rs (random regions,
    # mutants, name/latency/edge-order near misses); this is the long run.
    # It holds both halves of a cache lookup to `Ddg::content_eq`: the
    # equality gate (`PackedDdg::matches`) and the key (equal content
    # fingerprints exactly when the content is equal).
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
        --scheduler batched --blocks 8 > /dev/null

    echo "==> schedule: several files print each file's report in order"
    ./target/release/gpu-aco-cli schedule "$smoke_dir/region.txt" "$smoke_dir/region2.txt" \
        > "$smoke_dir/two_files.txt"
    { ./target/release/gpu-aco-cli schedule "$smoke_dir/region.txt"
      ./target/release/gpu-aco-cli schedule "$smoke_dir/region2.txt"; } > "$smoke_dir/one_by_one.txt"
    cmp "$smoke_dir/two_files.txt" "$smoke_dir/one_by_one.txt"

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
    smoke() {
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$1" --smoke | tail -n 1 | tee -a "$smoke_dir/$1.jsonl"
    }
    for workload in suite-unique suite-dup suite-variants frontend-large serve-warm serve-mix; do
        smoke "$workload"
    done

    echo "==> suite compile-time gate: best of three --smoke runs"
    # The runs above are the first of three for suite-unique and suite-dup;
    # two more each, alternated, then the minimum compile_s of each
    # workload's three must stay under its ceiling. Noise on a shared host
    # only adds time, so the minimum is the run closest to the code's own
    # cost.
    for _ in 1 2; do
        smoke suite-unique > /dev/null
        smoke suite-dup > /dev/null
    done
    python3 - "$smoke_dir" <<'EOF'
import json, sys

# Ceilings, seconds, on the 2-core reference host. Each sits just under the
# fastest minimum-of-three of the regressions the gate exists to catch and
# above the slowest minimum-of-three of the unregressed code (CHANGES.md
# lists every run): pressure what-if queries rescanning their operands
# instead of reading the tables, and the process pinned to one CPU. A
# merge that redoes per-region work costs about what the jobs do, so it
# trips them too. A schedule cache that always misses saves less time at
# smoke size than the host's noise; the hit-rate floor of
# tests/cache_policy.rs and the cache smoke above catch that instead.
CEILINGS = {"suite-unique": 0.30, "suite-dup": 0.30}

failed = False
for workload, ceiling in CEILINGS.items():
    with open(f"{sys.argv[1]}/{workload}.jsonl") as f:
        runs = [json.loads(line)["metrics"]["compile_s"]["value"] for line in f]
    assert len(runs) == 3, f"{workload}: {len(runs)} smoke runs, want 3"
    best = min(runs)
    verdict = "pass" if best <= ceiling else "FAIL"
    print(f"{workload}: compile_s {' '.join(f'{r:.3f}' for r in runs)} s, "
          f"min {best:.3f} s, ceiling {ceiling:.3f} s: {verdict}")
    failed |= best > ceiling
sys.exit(1 if failed else 0)
EOF
    # The benchmark's files are frozen between benchmark PRs: a product
    # dependency edit that made cargo rewrite benchmark/Cargo.lock just now
    # (or any other drift under those paths) must fail here, not leave the
    # tree dirty.
    git diff --exit-code -- benchmark BENCHMARK.json
fi

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "All checks passed."
