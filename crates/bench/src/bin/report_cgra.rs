//! Inspect the CGRA artifacts for a beam-kernel configuration: the
//! generated C source, DFG statistics, the schedule Gantt chart, the
//! routing report, the context-memory footprint, and the wall-clock of the
//! whole C source → context-memories toolchain for that configuration.
//!
//! `--bunches N` (default 1), `--sequential` (default pipelined),
//! `--grid N` (N×N mesh, default 5), `--source` (dump the C source).

use cil_bench::measure::{samples, timed};
use cil_bench::{arg_flag, arg_value};
use cil_cgra::context::ContextMemories;
use cil_cgra::grid::GridConfig;
use cil_cgra::kernels::{build_beam_kernel, KernelParams};
use cil_cgra::report::{gantt, pe_stats, summary};
use cil_cgra::route::route;
use cil_cgra::sched::ListScheduler;
use cil_core::scenario::MdeScenario;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let bunches: usize =
        arg_value(&args, "--bunches").map_or(1, |v| v.parse().expect("bad --bunches"));
    let pipelined = !arg_flag(&args, "--sequential");
    let n: u16 = arg_value(&args, "--grid").map_or(5, |v| v.parse().expect("bad --grid"));

    let params: KernelParams = MdeScenario::nov24_2023().kernel_params().unwrap();
    let bk = build_beam_kernel(&params, bunches, pipelined);
    if arg_flag(&args, "--source") {
        println!("{}", bk.source);
    }

    let grid = GridConfig::mesh(n, n);
    let schedule = ListScheduler::new(grid).schedule(&bk.kernel.dfg);
    schedule.validate(&bk.kernel.dfg).expect("valid schedule");

    println!("== kernel ==");
    println!("bunches = {bunches}, pipelined = {pipelined}");
    for (op, count) in bk.kernel.dfg.op_histogram() {
        println!("  {op:<16} {count}");
    }
    println!("\n== schedule ==");
    println!("{}", summary(&bk.kernel.dfg, &schedule));
    println!(
        "max revolution frequency at 111 MHz: {:.3} MHz\n",
        schedule.max_revolution_frequency(111e6) / 1e6
    );
    println!("{}", gantt(&bk.kernel.dfg, &schedule, 120));

    println!("== PE occupancy ==");
    for st in pe_stats(&bk.kernel.dfg, &schedule) {
        if st.ops > 0 {
            println!(
                "  PE{:<3} {:>3} ops  {:>4.0}%",
                st.pe,
                st.ops,
                st.issue_occupancy * 100.0
            );
        }
    }

    let r = route(&bk.kernel.dfg, &schedule);
    println!("\n== routing ==");
    println!("  transfers needing hops : {}", r.routed_transfers);
    println!("  total hops             : {}", r.total_hops);
    println!("  links used             : {}", r.links_used);
    println!(
        "  max link occupancy     : {} (channel multiplicity needed)",
        r.max_link_occupancy
    );
    println!("  contended slots        : {}", r.contended_slots);

    let ctx = ContextMemories::from_schedule(&bk.kernel.dfg, &schedule);
    println!("\n== context memories ==");
    println!("  configured slots : {}", ctx.slot_count());
    println!(
        "  packed image     : {} bytes (the bitstream patch)",
        ctx.pack().len()
    );

    // Reconfiguration is a software step, not hours of synthesis: time the
    // full toolchain (generate + compile C, pipeline split, schedule, pack
    // contexts), in builds per second over five samples.
    let per_s = samples(5, 1.0, || {
        timed(|| {
            let k = build_beam_kernel(&params, bunches, pipelined);
            let s = ListScheduler::new(grid).schedule(&k.kernel.dfg);
            ContextMemories::from_schedule(&k.kernel.dfg, &s).pack()
        })
        .1
    });
    println!("\n== toolchain ==");
    println!("  source -> contexts : {per_s} builds/s (median [q1, q3])");
}
