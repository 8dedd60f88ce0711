//! Integration + property tests for the CGRA toolchain: C source → DFG →
//! schedule → context memories → execution, with the executor checked
//! against direct DFG interpretation on randomly generated kernels.

use cavity_in_the_loop::cgra::context::ContextMemories;
use cavity_in_the_loop::cgra::exec::{interpret_dfg, CgraExecutor, MapBus};
use cavity_in_the_loop::cgra::frontend::compile;
use cavity_in_the_loop::cgra::grid::{GridConfig, Topology};
use cavity_in_the_loop::cgra::sched::ListScheduler;
use proptest::prelude::*;

/// Generate a random — but always valid — kernel source: a chain of
/// arithmetic statements over locals, statics and sensors.
fn random_kernel_source(ops: &[u8]) -> String {
    let mut src = String::from(
        "static float s0 = 1.5f;\nstatic float s1 = -0.25f;\nfor (;;) {\n  float v0 = read_sensor(0, 0.0f);\n  float v1 = 2.0f;\n",
    );
    let mut next = 2usize;
    for (i, &op) in ops.iter().enumerate() {
        let a = format!("v{}", i % next);
        let b = format!("v{}", (i * 7 + 1) % next);
        let expr = match op % 8 {
            0 => format!("{a} + {b}"),
            1 => format!("{a} - {b}"),
            2 => format!("{a} * 0.5f + {b}"),
            3 => format!("{a} / ({b} * {b} + 1.0f)"),
            4 => format!("sqrtf({a} * {a} + 1.0f)"),
            5 => format!("fminf({a}, {b})"),
            6 => format!("select({a} < {b}, {a}, {b})"),
            _ => format!("fabsf({a}) + s0 * 0.125f"),
        };
        src.push_str(&format!("  float v{next} = {expr};\n"));
        next += 1;
    }
    src.push_str(&format!("  s0 = v{} * 0.5f + s1;\n", next - 1));
    src.push_str(&format!("  s1 = s1 * 0.9f + v{} * 0.01f;\n", next / 2));
    src.push_str(&format!("  write_actuator(0, v{});\n", next - 1));
    src.push_str("}\n");
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The scheduled executor agrees exactly with direct interpretation on
    /// arbitrary kernels, grids and sensor streams, over several iterations
    /// of loop-carried state.
    #[test]
    fn executor_matches_interpreter(
        ops in prop::collection::vec(any::<u8>(), 1..24),
        rows in 2u16..5,
        cols in 2u16..5,
        topo_idx in 0usize..3,
        sensor_vals in prop::collection::vec(-10.0f64..10.0, 5),
    ) {
        let src = random_kernel_source(&ops);
        let kernel = compile(&src).expect("generated source is valid");
        let topo = [Topology::Mesh, Topology::MeshDiagonal, Topology::Torus][topo_idx];
        let grid = GridConfig { topology: topo, ..GridConfig::mesh(rows, cols) };
        let schedule = ListScheduler::new(grid).schedule(&kernel.dfg);
        schedule.validate(&kernel.dfg).expect("schedule valid");

        let mut ex = CgraExecutor::new(kernel.dfg.clone(), schedule);
        let mut regs = vec![0.0f64; kernel.dfg.reg_count() as usize];
        for &(r, v) in &kernel.reg_inits {
            ex.set_reg(r, v);
            regs[r as usize] = v;
        }
        for &sv in &sensor_vals {
            let mut bus_a = MapBus::default();
            let mut bus_b = MapBus::default();
            bus_a.set_sensor(0, sv);
            bus_b.set_sensor(0, sv);
            let out_a = ex.try_run_iteration(&mut bus_a, &[]).unwrap();
            let out_b = interpret_dfg(&kernel.dfg, &mut regs, &mut bus_b, &[]);
            // Exact equality: same operations in dependency order, no
            // reassociation anywhere.
            prop_assert_eq!(out_a, out_b);
            prop_assert_eq!(bus_a.writes, bus_b.writes);
        }
    }

    /// Context memories survive the pack/unpack byte roundtrip for any
    /// kernel/grid combination.
    #[test]
    fn context_roundtrip(
        ops in prop::collection::vec(any::<u8>(), 1..16),
        size in 2u16..5,
    ) {
        let src = random_kernel_source(&ops);
        let kernel = compile(&src).expect("valid source");
        let schedule = ListScheduler::new(GridConfig::mesh(size, size)).schedule(&kernel.dfg);
        let ctx = ContextMemories::from_schedule(&kernel.dfg, &schedule);
        let img = ctx.pack();
        let back = ContextMemories::unpack(&img).unwrap();
        prop_assert_eq!(back.makespan, ctx.makespan);
        prop_assert_eq!(back.per_pe, ctx.per_pe);
    }

    /// The pipeline-split transform never changes single-stage kernels and
    /// always removes stage-crossing edges from two-stage kernels.
    #[test]
    fn pipeline_split_invariants(ops in prop::collection::vec(any::<u8>(), 1..16)) {
        let src = random_kernel_source(&ops);
        let kernel = compile(&src).expect("valid source");
        // No pipeline_stage() marker in the generated source: split is a
        // structural no-op (same node count, no new registers).
        let split = kernel.dfg.pipeline_split();
        prop_assert_eq!(split.len(), kernel.dfg.len());
        prop_assert_eq!(split.reg_count(), kernel.dfg.reg_count());
    }
}

#[test]
fn scheduler_respects_every_grid_shape() {
    // Deterministic sweep: the beam kernel schedules and validates on a
    // range of plausible grids, including degenerate 1-row shapes.
    let src = random_kernel_source(&[0, 1, 2, 3, 4, 5, 6, 7]);
    let kernel = compile(&src).unwrap();
    for (r, c) in [(1u16, 4u16), (4, 1), (2, 3), (3, 2), (6, 6)] {
        let schedule = ListScheduler::new(GridConfig::mesh(r, c)).schedule(&kernel.dfg);
        schedule
            .validate(&kernel.dfg)
            .unwrap_or_else(|e| panic!("{r}x{c}: {e}"));
    }
}
