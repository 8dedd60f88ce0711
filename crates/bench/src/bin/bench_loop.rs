//! Standing closed-loop throughput benchmark — revolutions per second for
//! every engine fidelity and execution mode (batched `step_block` vs
//! per-turn stepping, with and without a sampled observer).
//!
//! Prints the table and writes `target/bench/BENCH_loop.json`
//! (`scripts/bench.sh` copies it into `results/`). Meaningful in release
//! builds only (`cargo run --release -p cil-bench --bin bench_loop`); the
//! release-only `loop_guard` test enforces the two plan+batched bounds.
//!
//! Flags: `--revolutions N` (default 10000), `--runs N` (samples per case,
//! default 5).

use cil_bench::loop_bench::{run_loop_bench, OBSERVED_VS_PLAN_BOUND, PLAN_VS_MAP_BOUND};
use cil_bench::{arg_value, Table};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let revolutions: u64 =
        arg_value(&args, "--revolutions").map_or(10_000, |v| v.parse().expect("--revolutions N"));
    let runs: usize = arg_value(&args, "--runs").map_or(5, |v| v.parse().expect("--runs N"));
    if cfg!(debug_assertions) {
        eprintln!("warning: debug build — timings are not meaningful");
    }
    println!("Closed-loop throughput ({runs} samples per case, {revolutions} revolutions)\n");

    let bench = run_loop_bench(revolutions, runs);
    let mut t = Table::new(&["case", "revolutions", "M revs/s [q1, q3]"]);
    for r in &bench.rows {
        t.row(&[
            r.label.to_string(),
            format!("{}", r.revolutions),
            format!("{}", r.revs_per_sec.scaled(1e-6)),
        ]);
    }
    t.print();

    println!(
        "\nplan+batched CGRA vs map_batched: {}x (bound {PLAN_VS_MAP_BOUND}x)",
        bench.plan_vs_map.ratio
    );
    println!(
        "plan+batched with observer vs without: {}x (bound {OBSERVED_VS_PLAN_BOUND}x)",
        bench.observed_vs_plan.ratio
    );
    println!("data -> {}", bench.write().display());
}
