#!/usr/bin/env bash
# Builds the benchmark and runs its noise gate: every workload in two
# interleaved sets of the same code (A B A B). Fails if the sets disagree
# beyond the benchmark's own bounds. With a file name, saves both sets:
#
#   crates/kappa-bench/perf/run.sh                                  # gate only
#   crates/kappa-bench/perf/run.sh crates/kappa-bench/perf/results/BENCH_13.json
#
# Takes about 15 minutes. Run it on an otherwise idle machine.
set -euo pipefail
cd "$(dirname "$0")/../../.."
manifest=crates/kappa-bench/perf/Cargo.toml
cargo build --release --quiet --manifest-path "$manifest"
if [ $# -gt 0 ]; then
    exec cargo run --release --quiet --manifest-path "$manifest" -- --selfcheck --save "$1"
fi
exec cargo run --release --quiet --manifest-path "$manifest" -- --selfcheck
