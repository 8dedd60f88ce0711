//! Release-only throughput regression guard for the SessionMux service
//! path.
//!
//! The mux's standing perf claim: hosting 1000 skewed sessions must not
//! cost more than 2x over running the same rows in a single bare loop —
//! the aggregate fleet rate stays at ≥0.5x the single-loop `map_batched`
//! baseline even on one worker, slicing, arena checkout and queue
//! traffic included. On machines with ≥8 cores the 1→8 worker scaling
//! must additionally reach ≥2.5x. Both are paired ratios from
//! `cil_bench::measure`. Meaningless at opt-level 0, so the test is
//! ignored in debug builds and run via `--include-ignored` in release,
//! like every guard in this directory. Writes
//! `target/bench/BENCH_service.json`.

use cil_bench::service_bench::{run_service_bench, BASELINE_BOUND, SCALING_BOUND};

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fleet_aggregate_holds_half_the_single_loop_rate() {
    // A long baseline: at 2k revolutions one run is ~0.2 ms.
    let bench = run_service_bench(&[1, 2, 4, 8], 1000, 2000, 200_000, 3);
    bench.write();
    let rows = &bench.rows;
    let ratio = bench.vs_baseline.ratio;
    assert!(
        ratio.median >= BASELINE_BOUND,
        "1-worker fleet aggregate only {ratio}x the single-loop map_batched rate \
         (bound {BASELINE_BOUND}x): {rows:#?}"
    );
    for r in rows {
        assert!(
            r.p99_dispatch_s.is_finite() && r.p99_dispatch_s > 0.0,
            "{} workers: dispatch-latency histogram must fill",
            r.workers
        );
    }

    // The scaling half of the claim needs real cores behind the workers;
    // oversubscribed threads on a small box would measure the scheduler,
    // not the mux.
    match bench.scaling {
        Some(scaling) => assert!(
            scaling.ratio.median >= SCALING_BOUND,
            "1 -> 8 worker scaling only {}x (bound {SCALING_BOUND}x): {rows:#?}",
            scaling.ratio
        ),
        None => eprintln!(
            "skipping the 8-worker scaling bound: only {} cores available",
            cil_bench::measure::cores()
        ),
    }
}
