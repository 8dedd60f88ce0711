//! §I motivation (experiment M1): output-timing jitter of a software
//! simulator vs the CGRA/FPGA implementation.
//!
//! "In principle it could be fast enough, but the time jitter induced by
//! the microarchitecture and the interfacing to the sensors was too high."
//! The table reports RMS / p99.9 / worst-case output-pulse timing error for
//! the three implementation models against the hard budget
//! [`HARD_BUDGET_S`], 1 % of the minimum revolution time (T_R ≈ 0.7 µs).

use cil_bench::{write_csv, Table};
use cil_core::jitter::{Implementation, JitterModel, HARD_BUDGET_S};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

fn main() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let n = 2_000_000;
    let budget = HARD_BUDGET_S;
    let budget_col = format!("budget {:.0} ns", budget * 1e9);

    let mut t = Table::new(&["implementation", "rms", "p99.9", "worst", &budget_col]);
    let mut csv = String::from("implementation,rms_s,p999_s,worst_s,meets_budget\n");
    for imp in [
        Implementation::CgraFpga,
        Implementation::RealtimeSoftware,
        Implementation::GeneralPurposeSoftware,
    ] {
        let s = JitterModel::for_implementation(imp).summarize(n, &mut rng);
        let fmt = |v: f64| {
            if v < 1e-6 {
                format!("{:.2} ns", v * 1e9)
            } else {
                format!("{:.2} us", v * 1e6)
            }
        };
        t.row(&[
            format!("{imp:?}"),
            fmt(s.rms),
            fmt(s.p999),
            fmt(s.worst),
            if s.meets_budget(budget) {
                "PASS".into()
            } else {
                "FAIL".into()
            },
        ]);
        writeln!(
            csv,
            "{imp:?},{:.3e},{:.3e},{:.3e},{}",
            s.rms,
            s.p999,
            s.worst,
            s.meets_budget(budget)
        )
        .unwrap();
    }

    println!("§I motivation — output-pulse timing jitter over {n} revolutions\n");
    t.print();
    println!();
    println!("paper claim: only the FPGA/CGRA path gives the deterministic");
    println!("sub-sample timing a hardware-in-the-loop LLRF test bench needs;");
    println!("a software loop's tail latencies blow the revolution budget.");
    let path = write_csv("jitter_table.csv", &csv);
    println!("\ndata -> {}", path.display());
}
