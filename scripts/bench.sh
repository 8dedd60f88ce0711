#!/usr/bin/env bash
# Standing performance runs — kept out of tier1.sh so the gate stays fast,
# and the only step that writes the committed results/BENCH_*.json.
# Run from the repo root (CI runs this after the tier-1 gate):
#   scripts/bench.sh                 # default: 10000 revolutions, 5 samples per case
#   scripts/bench.sh --revolutions 50000 --runs 9
#
# Every step measures through cil_bench::measure and writes
# target/bench/BENCH_<name>.json stamped with the host fingerprint:
# loop (revolutions/sec for every engine fidelity × execution mode),
# reftrack (kernel backend × ensemble-size matrix plus the closed-loop
# engine pair), service (SessionMux fleet across worker counts), campaign
# (the full phase-diagram campaign; ~1 min on 2 cores), and the
# telemetry and checkpoint overhead guards. The last step copies exactly
# those six files into results/. The bounds are enforced by the
# release-only guards in crates/bench/tests (run by tier1.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

rm -rf target/bench
cargo run --release -p cil-bench --bin bench_loop -- "$@"
cargo run --release -p cil-bench --bin bench_reftrack -- "$@"
cargo run --release -p cil-bench --bin bench_service
cargo run --release -p cil-bench --bin campaign_runner
cargo test --release -q -p cil-bench --test telemetry_guard --test checkpoint_guard \
  -- --include-ignored
cp target/bench/BENCH_*.json results/
