#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, release build, full test suite.
# Run from the repo root; CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# Cross-reference lint: DESIGN.md section numbers cited from other docs
# and crate docs must match the heading they name (several drifted in the
# PR 9 renumbering). Each line pins one citation to its live heading.
ref() { # $1 section number, $2 heading substring, $3 citing file, $4 citation pattern
  grep -q "^## $1\. .*$2" DESIGN.md && grep -q "$4" "$3" || {
    echo "stale DESIGN.md cross-reference: §$1 ($2) cited from $3" >&2
    exit 1
  }
}
ref 11 "SessionMux" README.md 'DESIGN.md §11'
ref 13 "Experiment index" EXPERIMENTS.md 'DESIGN.md §13 for the experiment index'
ref 17 "Known deviations" EXPERIMENTS.md 'DESIGN.md §17'
ref 17 "Known deviations" crates/cgra/src/isa.rs 'see DESIGN.md §17'
ref 13 "Experiment index" crates/bench/src/lib.rs 'see DESIGN.md §13'
cargo build --release --workspace --all-targets
# Reproduction claims as artifacts: the M1 jitter table, the A10 noise
# ablation and the A2 period-averaging ablation are deterministic, so
# rerunning their bins must leave the committed CSVs (and the figures
# EXPERIMENTS.md quotes from them) as they are. A diff here means the claim
# moved; regenerate and update the docs.
cargo run -q --release -p cil-bench --bin jitter_table > /dev/null
cargo run -q --release -p cil-bench --bin ablation_noise > /dev/null
cargo run -q --release -p cil-bench --bin ablation_period_avg > /dev/null
git diff --exit-code -- results/jitter_table.csv results/ablation_noise.csv \
  results/ablation_period_avg.csv
# The fault/supervision crates must stay warning-free even where clippy has
# no lint (e.g. future rustc warnings on new code paths).
RUSTFLAGS="-D warnings" cargo build -q -p cil-core -p cil-dsp -p cil-cgra
# The strict-faults gate (supervisor recoveries become panics) must keep
# compiling; it is a debugging configuration, not part of the test run.
cargo build -q -p cil-core --features strict-faults
# Every suite in the opt-level 2 test profile, root tests/*.rs included.
# Headline robustness claims among them (tests/fault_injection.rs): storm
# recovery, deterministic replay, graceful engine degradation.
cargo test -q --workspace
# Signal-chain golden digests and exactness proptests: the per-sample path
# must stay bit-identical at opt-level 3 with thin LTO too, not only in the
# opt-level 2 test profile the workspace pass uses.
cargo test --release -q --test dsp_chain
# Telemetry golden traces, merge proptest and exports.
cargo test --release -q --test telemetry
# Crash-recovery chaos suite: kill-and-resume bit-identity (including
# mid-storm and across a fidelity demotion), corrupted-snapshot fallback,
# decoder fuzzing.
cargo test --release -q --test checkpoint_recovery
# Event-scheduled core: block-size invariance of traces, telemetry and
# checkpoint bytes under coprime cadences, same-tick ordering proptest,
# observer cadence and event-tally accounting.
cargo test --release -q --test event_core
# Campaign chaos suite: proptest kill-and-resume byte-identical aggregate
# CSV, quarantine determinism across worker counts, retry-then-succeed
# accounting, torn-WAL-tail recovery, foreign-header rejection.
cargo test --release -q --test campaign
# Cavity-failure chaos suite: compensation strictly extends survival,
# block-size and kill-and-resume bit-identity through the quench window,
# zero-amplitude == fault-free, cross-fidelity ladder agreement.
cargo test --release -q --test cavity_failure
# RefTrack wide-lane kernel differential suite: poly-vs-libm ulp bound,
# backend × thread × chunk × block bit-identity proptests, checkpoint
# kill-and-resume through the intra-step parallel path.
cargo test --release -q --test reftrack_kernel
# SessionMux suite: random pause/evict/restore/steal interleavings across
# worker counts {1,4,8} and slice budgets stay bit-identical to an
# uninterrupted run_supervised (trace + audit events + deterministic
# telemetry), including kill-and-resume of snapshot bytes in a fresh mux.
cargo test --release -q --test session_mux
# bench_service smoke: a small fleet end to end through the bin (table +
# JSON plumbing; no timing claims at this size).
cargo run -q --release -p cil-bench --bin bench_service -- \
  --sessions 40 --revolutions 300 --workers 1,2 > /dev/null
# The six release-only timing guards, all in crates/bench/tests and all
# measured by cil_bench::measure (median of alternating A/B sample pairs):
# telemetry-on <= 1.10x off; checkpointing at the default cadence <= 1.25x
# off; plan+batched CGRA >= 0.31x map_batched and >= 0.76x of itself with
# a sampled observer; RefTrack Auto >= 3x libm on the kernel and >= 1.5x
# through the closed loop; a 1000-session SessionMux fleet >= 0.5x the
# single-loop map_batched rate on one worker (and >= 2.5x 1 -> 8 worker
# scaling on hosts with >= 8 cores); Campaign <= 1.15x a raw
# parallel_sweep. Each writes target/bench/BENCH_<name>.json; only
# scripts/bench.sh copies those files into results/.
cargo test --release -q -p cil-bench -- --include-ignored
