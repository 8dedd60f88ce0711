//! Standing closed-loop throughput benchmark — revolutions per second for
//! every engine fidelity and execution mode (batched `step_block` vs
//! per-turn stepping, with and without a sampled observer).
//!
//! Prints the table and writes `results/BENCH_loop.json`. Meaningful in
//! release builds only (`cargo run --release -p cil-bench --bin
//! bench_loop`); the release-only `loop_guard` test enforces the two
//! plan+batched bounds on CI.
//!
//! Flags: `--revolutions N` (default 10000), `--runs N` (default 5).

use cil_bench::loop_bench::{
    guard_ratios, run_loop_bench, write_bench_json, OBSERVED_VS_PLAN_BOUND, PLAN_VS_MAP_BOUND,
};
use cil_bench::{arg_value, Table};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let revolutions: u64 =
        arg_value(&args, "--revolutions").map_or(10_000, |v| v.parse().expect("--revolutions N"));
    let runs: usize = arg_value(&args, "--runs").map_or(5, |v| v.parse().expect("--runs N"));
    if cfg!(debug_assertions) {
        eprintln!("warning: debug build — timings are not meaningful");
    }
    println!("Closed-loop throughput (best of {runs} runs, {revolutions} revolutions)\n");

    let rows = run_loop_bench(revolutions, runs);
    let mut t = Table::new(&["case", "revolutions", "wall [ms]", "revs/s"]);
    for r in &rows {
        t.row(&[
            r.label.to_string(),
            format!("{}", r.revolutions),
            format!("{:.2}", r.wall_s * 1e3),
            format!("{:.0}", r.revs_per_sec),
        ]);
    }
    t.print();

    let (plan_vs_map, observed_vs_plan) = guard_ratios(&rows);
    println!("\nplan+batched CGRA vs map_batched: {plan_vs_map:.3}x (bound {PLAN_VS_MAP_BOUND}x)");
    println!(
        "plan+batched with observer vs without: {observed_vs_plan:.3}x \
         (bound {OBSERVED_VS_PLAN_BOUND}x)"
    );
    let path = write_bench_json(revolutions, runs, &rows);
    println!("data -> {}", path.display());
}
