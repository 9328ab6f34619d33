#!/usr/bin/env bash
# The one command: builds the benchmark, then runs it.
#
#   benchmark/run.sh                        all six workloads (add --trace for the traced passes too)
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh --compare A.json B.json
#
# Every metric is printed as `metric <name> <unit> <value> [q1 q3 n]`; the last
# line of a single-workload run is the result object. Results are written
# under benchmark/out/. Exits non-zero when the build or any check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: stdout belongs to the results.
cargo build --release --locked --offline --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/sevf-benchmark" --out-dir "$here/out" "$@"
