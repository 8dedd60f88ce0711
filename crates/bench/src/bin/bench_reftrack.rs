//! RefTrack kernel case-matrix benchmark — particle-turns/s for every sine
//! backend (host libm, runtime-dispatched `Auto`, and each polynomial
//! backend the host exposes) at small/medium/large ensembles, plus the full
//! closed-loop `RefTrackEngine` path on both `Auto` and libm.
//!
//! Prints the table and writes `target/bench/BENCH_reftrack.json`
//! (`scripts/bench.sh` copies it into `results/`). Meaningful in release
//! builds only (`cargo run --release -p cil-bench --bin bench_reftrack`);
//! the release-only `reftrack_guard` test enforces the kernel and engine
//! bounds.
//!
//! Flags: `--revolutions N` (engine cases, default 10000), `--runs N`
//! (samples per case, default 3).

use cil_bench::reftrack_bench::{run_reftrack_bench, ENGINE_BOUND, KERNEL_BOUND};
use cil_bench::{arg_value, Table};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let revolutions: u64 =
        arg_value(&args, "--revolutions").map_or(10_000, |v| v.parse().expect("--revolutions N"));
    let runs: usize = arg_value(&args, "--runs").map_or(3, |v| v.parse().expect("--runs N"));
    if cfg!(debug_assertions) {
        eprintln!("warning: debug build — timings are not meaningful");
    }
    println!("RefTrack kernel throughput ({runs} samples per case)\n");

    let bench = run_reftrack_bench(revolutions, runs);
    let mut t = Table::new(&[
        "case",
        "particles",
        "threads",
        "turns",
        "Mpart-turns/s [q1, q3]",
        "ns/particle-turn",
    ]);
    for r in &bench.rows {
        t.row(&[
            r.case.label.clone(),
            format!("{}", r.case.particles),
            format!("{}", r.case.threads),
            format!("{}", r.turns),
            format!("{}", r.particle_turns_per_sec.scaled(1e-6)),
            format!("{:.2}", r.ns_per_particle_turn()),
        ]);
    }
    t.print();

    println!(
        "\nAuto kernel vs host libm (large ensemble): {}x (bound {KERNEL_BOUND}x)",
        bench.kernel.ratio
    );
    println!(
        "closed-loop engine Auto vs libm:           {}x (bound {ENGINE_BOUND}x)",
        bench.engine.ratio
    );
    println!("data -> {}", bench.write().display());
}
