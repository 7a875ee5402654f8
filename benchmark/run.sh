#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run qsurf_bench
# with the given arguments, from the repository root.  Build output
# goes to stderr, so the last line on stdout is the benchmark's own.
#
#   bash benchmark/run.sh                       # every workload
#   bash benchmark/run.sh --trace               # ... plus traced runs
#   bash benchmark/run.sh --smoke               # scaled down, <= 15 s
#   bash benchmark/run.sh --repeat=10           # spread over 10 seeds
#   bash benchmark/run.sh --workload sim-congested --seed 1 \
#       --seconds 12 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"

cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --parallel "$(nproc)" >&2
exec "$build/qsurf_bench" "$@"
