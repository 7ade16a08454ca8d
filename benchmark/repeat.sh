#!/usr/bin/env bash
# Runs every workload of BENCHMARK.json twice on one build, for its
# run_seconds, and fails unless the two sets of runs agree: every end-to-end
# timing metric within its own bound, every deterministic metric exactly.
# Prints both sets and their ratio.
#
#   benchmark/repeat.sh                       # seed 5
#   benchmark/repeat.sh --seeds "1 2 3 4 5 6 7 8 9 10"
#                                             # two sets of ten seeds each, as the driver
#                                             # does; each set's spread must hold the bound too
#   benchmark/repeat.sh --smoke               # tiny inputs, full correctness gate, 30 s in all
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

seeds="5"
smoke=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seeds) seeds="$2"; shift 2 ;;
    --smoke) smoke="--smoke"; shift ;;
    *) echo "repeat.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

manifest() { python3 -c 'import json, sys; print(eval(sys.argv[1], {"m": json.load(open("BENCHMARK.json"))}))' "$1"; }
seconds="$(manifest 'm["run_seconds"]')"
workloads="$(manifest '" ".join(w["name"] for w in m["workloads"])')"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"
out="benchmark/out/repeat"
rm -rf "$out"
mkdir -p "$out"

status=0
for set in A B; do
  for w in $workloads; do
    for seed in $seeds; do
      log="$out/$set-$w-$seed.log"
      # shellcheck disable=SC2086
      if ! "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 $smoke > "$log"; then
        echo "repeat.sh: $w seed $seed (set $set) exited non-zero; see $log" >&2
        status=1
      fi
      tail -n 1 "$log" > "$out/$set-$w-$seed.json"
    done
  done
done

# One traced run per workload at the first seed: its single-threaded
# fingerprint must equal the untraced run's.
first_seed="${seeds%% *}"
for w in $workloads; do
  log="$out/T-$w-$first_seed.log"
  # shellcheck disable=SC2086
  if ! "$bin" --workload "$w" --seed "$first_seed" --trace 1 $smoke > "$log"; then
    echo "repeat.sh: traced $w seed $first_seed exited non-zero; see $log" >&2
    status=1
  fi
  untraced="$(grep -o ' fingerprint 0x[0-9a-f]*' "$out/A-$w-$first_seed.log" | awk '{print $2}' || true)"
  traced="$(grep -o 'trace.fingerprint 0x[0-9a-f]*' "$log" | awk '{print $2}' || true)"
  if [ "$untraced" != "$traced" ]; then
    echo "repeat.sh: $w: untraced fingerprint $untraced, traced $traced" >&2
    status=1
  fi
done

python3 - "$out" "$workloads" "$seeds" "$smoke" <<'PY' || status=1
import json, statistics, sys

out, workloads, seeds = sys.argv[1], sys.argv[2].split(), sys.argv[3].split()
# One pass over tiny inputs times nothing worth comparing: a smoke run
# holds the correctness gate and the deterministic metrics only.
smoke = sys.argv[4] != ""
manifest = json.load(open("BENCHMARK.json"))
failed = False

def load(set_, w, seed):
    with open(f"{out}/{set_}-{w}-{seed}.json") as f:
        return json.loads(f.read())

def spread(values):
    if len(values) < 4:
        return None
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

print(f"{'workload':<16}{'metric':<17}{'set A':>16}{'set B':>16}{'B/A':>9}{'bound':>7}"
      f"{'spread A':>10}{'spread B':>10}  verdict")
for w in workloads:
    runs = {s: [load(s, w, seed) for seed in seeds] for s in "AB"}
    for s in "AB":
        for seed, r in zip(seeds, runs[s]):
            if not r["correct"] or r["failed"]:
                print(f"{w}: set {s} seed {seed}: {r['failed']} of {r['attempted']} operations failed")
                failed = True
    for m in manifest["end_to_end"]:
        name, bound = m["name"], m["bound"]
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in "AB"}
        a, b = (statistics.median(vals[s]) for s in "AB")
        ratio = b / a
        # How much worse the worse set is than the better one, as a share.
        worse = max(ratio, 1 / ratio) - 1
        exact = m["unit"] not in ("s", "MB")
        ok = (vals["A"] == vals["B"]) if exact else (smoke or worse <= bound)
        spreads = [spread(vals[s]) for s in "AB"]
        steady = smoke or all(sp is None or sp <= bound for sp in spreads)
        verdict = "ok" if ok and steady else ("DIFFERS" if not ok else "UNSTEADY")
        if smoke and not exact:
            verdict = "not compared (smoke)"
        failed |= not (ok and steady)
        show = lambda sp: f"{sp:>10.4f}" if sp is not None else f"{'-':>10}"
        print(f"{w:<16}{name:<17}{a:>16.6g}{b:>16.6g}{ratio:>9.4f}"
              f"{('exact' if exact else bound):>7}{show(spreads[0])}{show(spreads[1])}  {verdict}")
sys.exit(1 if failed else 0)
PY

if [ "$status" -ne 0 ]; then
  echo "repeat.sh: FAILED" >&2
else
  echo "repeat.sh: the two sets agree"
fi
exit "$status"
