//! Standing multi-session service benchmark — aggregate fleet throughput
//! and p99 dispatch latency of the [`SessionMux`] across a worker-count
//! sweep, with the single-loop `map_batched` rate as the per-core
//! baseline.
//!
//! Prints the table and writes `target/bench/BENCH_service.json`
//! (`scripts/bench.sh` copies it into `results/`). Meaningful in release
//! builds only (`cargo run --release -p cil-bench --bin bench_service`);
//! the release-only `service_guard` test enforces the 0.5x-of-baseline
//! aggregate bound.
//!
//! Flags: `--sessions N` (default 1000), `--revolutions N` (hot-session
//! rows, default 2000), `--workers a,b,c` (default `1,2,4,8`).
//!
//! [`SessionMux`]: cil_core::SessionMux

use cil_bench::measure::oversubscribed;
use cil_bench::service_bench::{run_service_bench, BASELINE_BOUND};
use cil_bench::{arg_value, Table};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sessions: usize =
        arg_value(&args, "--sessions").map_or(1000, |v| v.parse().expect("--sessions N"));
    let revolutions: u64 =
        arg_value(&args, "--revolutions").map_or(2000, |v| v.parse().expect("--revolutions N"));
    let workers: Vec<usize> = arg_value(&args, "--workers").map_or_else(
        || vec![1, 2, 4, 8],
        |v| {
            v.split(',')
                .map(|w| w.parse().expect("--workers a,b,c"))
                .collect()
        },
    );
    if cfg!(debug_assertions) {
        eprintln!("warning: debug build — timings are not meaningful");
    }
    println!(
        "SessionMux service throughput ({sessions} sessions, 90/10 skew, \
         hot sessions {revolutions} revolutions)\n"
    );

    let bench = run_service_bench(&workers, sessions, revolutions, revolutions.max(100_000), 3);
    let baseline = bench.baseline_revs_per_sec();
    let mut t = Table::new(&[
        "workers",
        "sessions",
        "total rows",
        "M revs/s [q1, q3]",
        "vs 1-loop baseline",
        "p99 dispatch [us]",
    ]);
    for r in &bench.rows {
        let star = if oversubscribed(r.workers) { "*" } else { "" };
        t.row(&[
            format!("{}{star}", r.workers),
            r.sessions.to_string(),
            r.total_rows.to_string(),
            format!("{}", r.revs_per_sec.scaled(1e-6)),
            format!("{:.2}x", r.revs_per_sec.median / baseline),
            format!("{:.1}", r.p99_dispatch_s * 1e6),
        ]);
    }
    t.print();
    println!("(* more workers than cores: oversubscribed, no scaling claim)");
    println!("\nsingle-loop map_batched baseline: {baseline:.0} revs/s");
    println!(
        "1-worker fleet vs baseline, paired: {}x (bound {BASELINE_BOUND}x)",
        bench.vs_baseline.ratio
    );
    if let Some(scaling) = &bench.scaling {
        println!("scaling 1 -> 8 workers, paired: {}x", scaling.ratio);
    }
    println!("data -> {}", bench.write().display());
}
