#!/usr/bin/env bash
# Standing performance runs — kept out of tier1.sh so the gate stays fast.
# Run from the repo root (CI runs this after the tier-1 gate):
#   scripts/bench.sh                 # default: 10000 revolutions, best of 5
#   scripts/bench.sh --revolutions 50000 --runs 9
#
# Produces results/BENCH_loop.json (revolutions/sec for every engine
# fidelity × execution mode: batched step_block vs per-turn, with and
# without a sampled observer) and results/BENCH_reftrack.json (the RefTrack
# kernel backend × ensemble-size matrix plus the closed-loop engine pair).
# The bounds are separately *enforced* by the release-only loop_guard and
# reftrack_guard tests.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release -p cil-bench --bin bench_loop -- "$@"
cargo run --release -p cil-bench --bin bench_reftrack -- "$@"
