#!/usr/bin/env bash
# One guard of the benchmark-harness CI job.
#
#   bench_guard.sh <workload> <seconds> '<python condition over m>' '<what a miss means>' [trace]
#
# Runs <workload> at seed 3 — traced unless [trace] is 0 — and evaluates
# the condition over `m` (metric name -> value of that run: every
# per-layer metric when traced, the three end-to-end ones when not).
# Both sides of a ratio come from the same run, so the speed of the box
# cancels. An incorrect run fails at once; a missed condition is
# re-timed up to twice to shrug off scheduler noise before the guard
# fails.
set -u -o pipefail
workload=$1 seconds=$2 condition=$3 miss=$4 trace=${5:-1}
for attempt in 1 2 3; do
  line=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seed 3 --seconds "$seconds" --trace "$trace" | tail -n 1) \
    || { echo "benchmark run failed: $line"; exit 1; }
  rc=0
  python3 -c '
import json, re, sys
r = json.loads(sys.argv[1])
if not r["correct"] or r["failed"]:
    print("incorrect run:", r["failed"], "of", r["attempted"], "checks failed")
    sys.exit(2)
m = {name: entry["value"] for name, entry in r["metrics"].items()}
for name in re.findall(r"m\[\"([^\"]+)\"\]", sys.argv[2]):
    print(name, "=", m[name])
sys.exit(0 if eval(sys.argv[2]) else 1)
' "$line" "$condition" || rc=$?
  if [ "$rc" -eq 0 ]; then exit 0; fi
  if [ "$rc" -ne 1 ]; then exit 1; fi
  echo "attempt $attempt: $miss; re-timing"
done
echo "$miss on three timings: $condition does not hold"
exit 1
