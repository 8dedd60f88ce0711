//! Release-only throughput regression guard for the closed-loop hot path.
//!
//! The micro-op plan + batched `step_block` combination is this repo's
//! standing perf claim. Two paired ratios, measured in the same process on
//! the same scenario, pin it: plan+batched CGRA must reach at least
//! [`PLAN_VS_MAP_BOUND`] × the batched analytic map, and an attached
//! (sampled) observer must keep the plan loop at least
//! [`OBSERVED_VS_PLAN_BOUND`] × its unobserved throughput. Each ratio is
//! the median of `cil_bench::measure`'s alternating sample pairs.
//! Meaningless at opt-level 0, so the test is ignored in debug builds and
//! run via `--include-ignored` in release, like every guard in this
//! directory. Writes `target/bench/BENCH_loop.json`.

use cil_bench::loop_bench::{run_loop_bench, OBSERVED_VS_PLAN_BOUND, PLAN_VS_MAP_BOUND};

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn planned_batched_loop_holds_its_throughput_bounds() {
    let bench = run_loop_bench(10_000, 5);
    bench.write();
    let rows = &bench.rows;
    for r in rows {
        assert_eq!(
            r.revolutions, rows[0].revolutions,
            "{}: all cases must run the same loop",
            r.label
        );
    }
    let plan_vs_map = bench.plan_vs_map.ratio;
    assert!(
        plan_vs_map.median >= PLAN_VS_MAP_BOUND,
        "plan+batched CGRA only {plan_vs_map}x map_batched (bound {PLAN_VS_MAP_BOUND}x): \
         {rows:#?}"
    );
    // The event-core claim: an attached (sampled) observer no longer forces
    // per-turn stepping, so the observed batched loop stays near the
    // unobserved one.
    let observed_vs_plan = bench.observed_vs_plan.ratio;
    assert!(
        observed_vs_plan.median >= OBSERVED_VS_PLAN_BOUND,
        "observer-attached plan+batched CGRA only {observed_vs_plan}x the unobserved loop \
         (bound {OBSERVED_VS_PLAN_BOUND}x): {rows:#?}"
    );
}
