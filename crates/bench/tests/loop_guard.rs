//! Release-only throughput regression guard for the closed-loop hot path.
//!
//! The micro-op plan + batched `step_block` combination is this repo's
//! standing perf claim. Two ratios, measured in the same process on the
//! same scenario, pin it: plan+batched CGRA must reach at least
//! [`PLAN_VS_MAP_BOUND`] × the batched analytic map, and an attached
//! (sampled) observer must keep the plan loop at least
//! [`OBSERVED_VS_PLAN_BOUND`] × its unobserved throughput. Meaningless at
//! opt-level 0, so the test is ignored in debug builds and run via
//! `--include-ignored` in release (tier1/CI) — the same pattern as the
//! telemetry and checkpoint guards. Writes `results/BENCH_loop.json` as a
//! side effect, so CI always uploads a fresh artifact.

use cil_bench::loop_bench::{
    guard_ratios, run_loop_bench, write_bench_json, OBSERVED_VS_PLAN_BOUND, PLAN_VS_MAP_BOUND,
};

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn planned_batched_loop_holds_its_throughput_bounds() {
    let revolutions = 10_000;
    let runs = 5;
    let rows = run_loop_bench(revolutions, runs);
    for r in &rows {
        assert_eq!(
            r.revolutions, rows[0].revolutions,
            "{}: all cases must run the same loop",
            r.label
        );
    }
    let (plan_vs_map, observed_vs_plan) = guard_ratios(&rows);
    write_bench_json(revolutions, runs, &rows);
    assert!(
        plan_vs_map >= PLAN_VS_MAP_BOUND,
        "plan+batched CGRA only {plan_vs_map:.3}x map_batched (bound {PLAN_VS_MAP_BOUND}x): \
         {rows:#?}"
    );
    // The event-core claim: an attached (sampled) observer no longer forces
    // per-turn stepping, so the observed batched loop stays near the
    // unobserved one.
    assert!(
        observed_vs_plan >= OBSERVED_VS_PLAN_BOUND,
        "observer-attached plan+batched CGRA only {observed_vs_plan:.3}x the unobserved loop \
         (bound {OBSERVED_VS_PLAN_BOUND}x): {rows:#?}"
    );
}
