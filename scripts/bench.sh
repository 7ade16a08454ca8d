#!/usr/bin/env bash
# Host wall-clock benchmarks of suite compilation.
#
#   scripts/bench.sh            # full run: thread ladder up to all cores,
#                               # best of 3, writes BENCH_wallclock.json;
#                               # then the schedule-cache benchmark on a
#                               # duplicate-heavy suite (BENCH_cache.json)
#   scripts/bench.sh --smoke    # tiny suites + self-gating: validates the
#                               # JSON schemas, checks result checksums
#                               # agree, requires the honest parallel best
#                               # not to lose to sequential and the
#                               # cache-on best not to lose to cache-off
#                               # (10% noise allowance), and requires a
#                               # >=30% hit rate on the duplicate-heavy
#                               # suite
#
# Extra arguments are forwarded to the `wallclock` binary, e.g.
#   scripts/bench.sh --threads 1,2,4,8 --reps 5 --scale 0.05
# except `--cache-out PATH`, which bench.sh consumes itself as the output
# path of the cache report (default BENCH_cache.json). `--smoke` is
# forwarded to every binary.
#
# The reports separate the two time domains deliberately: the modeled GPU
# microseconds inside a SuiteRun never change with host threads or the
# cache (the checksum fields prove it); only the host seconds here do.

set -euo pipefail
cd "$(dirname "$0")/.."

cache_out="BENCH_cache.json"
smoke=""
wallclock_args=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --cache-out)
            cache_out="$2"
            shift 2
            ;;
        --smoke)
            smoke="--smoke"
            wallclock_args+=("$1")
            shift
            ;;
        *)
            wallclock_args+=("$1")
            shift
            ;;
    esac
done

echo "==> cargo build --release -p bench-harness --bin wallclock --bin cache_bench"
cargo build --release -p bench-harness --bin wallclock --bin cache_bench

echo "==> wallclock ${wallclock_args[*]:-}"
./target/release/wallclock "${wallclock_args[@]:+${wallclock_args[@]}}"

echo "==> cache_bench ${smoke:+$smoke }--out $cache_out"
# shellcheck disable=SC2086
./target/release/cache_bench $smoke --out "$cache_out"
