//! The CGRA toolchain end to end on a *custom* kernel: write C, compile to
//! a SCAR dataflow graph, schedule on different grids, generate context
//! memories, and execute cycle-accurately — the "model changes are
//! available on the experimental setup in seconds" workflow of the paper.
//!
//! ```text
//! cargo run --release --example cgra_playground
//! ```

use cavity_in_the_loop::cgra::context::ContextMemories;
use cavity_in_the_loop::cgra::exec::{CgraExecutor, MapBus};
use cavity_in_the_loop::cgra::frontend::compile;
use cavity_in_the_loop::cgra::grid::GridConfig;
use cavity_in_the_loop::cgra::sched::ListScheduler;
use std::time::Instant;

/// A little IIR filter kernel with loop-carried state — something a control
/// engineer might actually drop onto the CGRA.
const SOURCE: &str = r#"
// one-pole smoother + peak tracker over a sensor stream
static float smooth = 0.0f;
static float peak = 0.0f;

for (;;) {
    float x = read_sensor(0, 0.0f);
    smooth = smooth * 0.9f + x * 0.1f;
    peak = fmaxf(peak * 0.999f, fabsf(x));
    float snr = smooth / sqrtf(peak * peak + 1.0e-9f);
    write_actuator(0, smooth);
    write_actuator(1, snr);
}
"#;

fn main() {
    println!("compiling the kernel source:\n{SOURCE}");
    let t0 = Instant::now();
    let kernel = compile(SOURCE).expect("kernel compiles");
    println!(
        "-> SCAR DFG: {} nodes, {} loop-carried registers ({} us)\n",
        kernel.dfg.len(),
        kernel.dfg.reg_count(),
        t0.elapsed().as_micros()
    );
    println!("op histogram:");
    for (op, n) in kernel.dfg.op_histogram() {
        println!("  {op:<16} {n}");
    }

    println!("\nscheduling on different grids:");
    let (_, cp) = kernel.dfg.critical_path();
    println!("  critical path (lower bound): {cp} ticks");
    let mut chosen = None;
    for size in [2u16, 3, 5] {
        let grid = GridConfig::mesh(size, size);
        let t0 = Instant::now();
        let schedule = ListScheduler::new(grid).schedule(&kernel.dfg);
        schedule.validate(&kernel.dfg).expect("valid");
        println!(
            "  {size}x{size}: {} ticks, utilisation {:.0}%, scheduled in {} us",
            schedule.makespan,
            schedule.utilisation() * 100.0,
            t0.elapsed().as_micros()
        );
        if size == 3 {
            chosen = Some(schedule);
        }
    }
    let schedule = chosen.unwrap();

    // The reconfiguration artifact.
    let ctx = ContextMemories::from_schedule(&kernel.dfg, &schedule);
    let image = ctx.pack();
    println!("\ncontext-memory image: {} bytes (patched into the bitstream\nwithout re-synthesis — the paper's seconds-not-hours turnaround)", image.len());

    // Execute against a synthetic sensor.
    let mut ex = CgraExecutor::new(kernel.dfg.clone(), schedule);
    for &(r, v) in &kernel.reg_inits {
        ex.set_reg(r, v);
    }
    let mut bus = MapBus::default();
    println!("\nrunning 10 iterations against a noisy sensor:");
    for i in 0..10 {
        let x = if i % 3 == 0 { 2.0 } else { 0.5 };
        bus.set_sensor(0, x);
        bus.writes.clear();
        ex.try_run_iteration(&mut bus, &[]).unwrap();
        let smooth = bus.writes.iter().find(|(p, _)| *p == 0).unwrap().1;
        let snr = bus.writes.iter().find(|(p, _)| *p == 1).unwrap().1;
        println!("  in {x:>4}: smooth = {smooth:.4}, snr = {snr:.4}");
    }
    println!(
        "\none iteration = {} CGRA ticks -> {:.2} us at the 111 MHz CGRA clock",
        ex.ticks_per_iteration(),
        ex.iteration_seconds(111e6) * 1e6
    );
}
