#!/usr/bin/env bash
# Repo CI gate. Run from the repo root:
#
#   ./ci.sh          # full gate: build, tests, replay, bench, perf gate, lints
#   ./ci.sh quick    # fast inner loop: debug tests + one debug smoke replay
#
# Everything must pass offline — the workspace has no external
# dependencies by design (see DESIGN.md §2, "External crates").
#
# Perf gate knobs:
#   CI_PERF_TOLERANCE=25        allowed ± drift (percent) of
#                               wall_us_per_simulated_request vs the
#                               committed BENCH_baseline.json
#   CI_PERF_BASELINE=accept     re-seed BENCH_baseline.json from this
#                               run instead of gating (use after a real
#                               perf change or a hardware move, then
#                               commit the new baseline)
set -euo pipefail
cd "$(dirname "$0")"

mode=${1:-full}

# replay_gate <example> [debug] — run the example twice with
# `--quick --json` and byte-diff the outputs. The JSON arms emit only
# seed-derived facts (no wall-clock), so any diff is a determinism bug.
# The first run is also diffed against data/golden/<example>_quick.json
# when one exists (all eight full-gate examples have one, captured before
# the serving-core consolidation): a diff there is cross-commit drift — a
# refactor or a disabled layer perturbed the RNG streams or the dispatch
# order. Re-capture a golden only for an intended model change.
replay_gate() {
  local ex=$1
  local flag=--release
  [[ "${2:-}" == debug ]] && flag=""
  local golden="data/golden/${ex}_quick.json"
  echo "==> deterministic replay: $ex --quick --json twice, byte-diffed"
  cargo run $flag --quiet --example "$ex" -- --quick --json > "/tmp/ci_${ex}_a.json"
  cargo run $flag --quiet --example "$ex" -- --quick --json > "/tmp/ci_${ex}_b.json"
  diff "/tmp/ci_${ex}_a.json" "/tmp/ci_${ex}_b.json"
  if [[ -f "$golden" ]]; then
    echo "==> golden replay: $ex vs $golden"
    diff "/tmp/ci_${ex}_a.json" "$golden"
  fi
  rm -f "/tmp/ci_${ex}_a.json" "/tmp/ci_${ex}_b.json"
}

# bench_snapshot <example> <outfile> [extra args...] — capture the
# example's `--bench` snapshot (wall-clock; machine-dependent, so it is
# recorded, not diffed).
bench_snapshot() {
  local ex=$1 out=$2
  shift 2
  echo "==> bench snapshot: $ex --bench -> $out (wall-clock; not diffed)"
  cargo run --release --quiet --example "$ex" -- --bench "$@" > "$out"
  cat "$out"
}

# json_field <file> <key> — pull one numeric field out of a
# BenchSnapshot JSON file (pretty-printed, one field per line; no jq in
# the base image, so plain awk).
json_field() {
  awk -v k="\"$2\":" '$1 == k { gsub(/,/, "", $2); print $2; exit }' "$1"
}

if [[ "$mode" == quick ]]; then
  echo "==> cargo test -q (tier-1: root package, debug)"
  cargo test -q

  echo "==> cargo test -q --workspace (debug)"
  cargo test -q --workspace

  replay_gate fleet_chaos debug

  echo "CI OK (quick)"
  exit 0
fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q (tier-1: root package)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Every replay-gated example, once: `example` or `example:BENCH_file`.
# All are replayed and golden-diffed; the ones naming a file also record a
# `--bench --quick` snapshot there.
gated="fleet_chaos:BENCH_chaos.json cluster_scaling:BENCH_cluster.json
       trace_explorer attestation_storm:BENCH_attplane.json
       partition_drill:BENCH_net.json perf_sweep
       tenant_qos:BENCH_policy.json autoscale_drill:BENCH_autoscale.json"
for entry in $gated; do
  replay_gate "${entry%%:*}"
done

# The shared front end rejects what it does not know: a typo must not fall
# through to the paper-scale sweep.
echo "==> flag typo: fleet_chaos --qiuck must exit 2"
code=0
cargo run --release --quiet --example fleet_chaos -- --qiuck > /dev/null 2>&1 || code=$?
if [[ $code != 2 ]]; then
  echo "fleet_chaos --qiuck exited $code, expected 2"
  exit 1
fi

for entry in $gated; do
  if [[ "$entry" == *:* ]]; then
    bench_snapshot "${entry%%:*}" "${entry#*:}" --quick
  fi
done
# Full scale on purpose: the perf gate needs the 12M-job workload where
# the calendar/heap gap is meaningful; quick scale fits in cache and
# under-reports it.
bench_snapshot perf_sweep BENCH_perf.json

echo "==> appending BENCH_perf.json to BENCH_trajectory.jsonl"
tr -d '\n' < BENCH_perf.json | tr -s ' ' >> BENCH_trajectory.jsonl
echo >> BENCH_trajectory.jsonl

tol=${CI_PERF_TOLERANCE:-25}
cur=$(json_field BENCH_perf.json wall_us_per_simulated_request)
if [[ "${CI_PERF_BASELINE:-}" == accept ]]; then
  echo "==> perf gate: CI_PERF_BASELINE=accept — re-seeding BENCH_baseline.json"
  cp BENCH_perf.json BENCH_baseline.json
elif [[ ! -f BENCH_baseline.json ]]; then
  echo "==> perf gate: no BENCH_baseline.json — seeding it from this run"
  cp BENCH_perf.json BENCH_baseline.json
else
  base=$(json_field BENCH_baseline.json wall_us_per_simulated_request)
  echo "==> perf gate: wall_us_per_simulated_request $cur vs baseline $base (±${tol}%)"
  if ! awk -v cur="$cur" -v base="$base" -v tol="$tol" \
      'BEGIN { exit !(cur <= base * (1 + tol / 100) &&
                      cur >= base * (1 - tol / 100)) }'; then
    echo "PERF GATE FAILED: wall_us_per_simulated_request drifted more than"
    echo "${tol}% from the committed baseline. If the change is intentional"
    echo "(real perf work, new hardware), rerun with CI_PERF_BASELINE=accept"
    echo "and commit the refreshed BENCH_baseline.json; otherwise bisect the"
    echo "regression before merging. CI_PERF_TOLERANCE widens the band."
    exit 1
  fi
fi

# The benchmark crate pins public items of every layer (benchmark/README.md,
# "Public items the benchmark pins"); building and testing it here makes a
# break fail CI instead of the next benchmark run.
echo "==> benchmark crate: cargo test --release --locked --offline"
(cd benchmark && cargo test --release --locked --offline -q)

# The size budgets (ISSUEs 12 and 13): non-blank, non-comment lines before
# `#[cfg(test)]`.
code_lines() {
  for f in "$@"; do
    awk '/^#\[cfg\(test\)\]/{exit} !/^[[:space:]]*(\/\/|$)/' "$f"
  done | wc -l
}
echo "==> serving-core code lines (crates/fleet/src + crates/cluster/src)"
code_lines $(find crates/fleet/src crates/cluster/src -name '*.rs')
echo "==> harness code lines (examples/*.rs + crates/bench/src)"
code_lines examples/*.rs $(find crates/bench/src -name '*.rs')

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
