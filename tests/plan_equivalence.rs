//! Property tests pinning the pre-decoded micro-op plan to its oracle.
//!
//! The CGRA executor replays a flat [`MicroOpPlan`] lowered at compile
//! time; the order-independent interpreter [`interpret_dfg`] is the
//! differential oracle. These properties check the two agree *bit-exactly*
//! on random kernels — outputs, actuator writes and loop-carried registers
//! across iterations — and that a mid-iteration `MissingInput` fault rolls
//! register state back to the last committed iteration, so a supervisor
//! retry resumes on the same trajectory as a run that never faulted.

use cavity_in_the_loop::cgra::exec::{interpret_dfg, CgraExecutor, ExecError, MapBus};
use cavity_in_the_loop::cgra::frontend::compile;
use cavity_in_the_loop::cgra::grid::{GridConfig, Topology};
use cavity_in_the_loop::cgra::isa::OpKind;
use cavity_in_the_loop::cgra::sched::ListScheduler;
use cavity_in_the_loop::cgra::Dfg;
use proptest::prelude::*;

/// Random — but always valid — kernel source: a chain of arithmetic over
/// locals, statics and sensors (same shape as the toolchain roundtrip
/// generator, kept separate so the two suites can diverge).
fn random_kernel_source(ops: &[u8]) -> String {
    let mut src = String::from(
        "static float s0 = 0.75f;\nstatic float s1 = -0.5f;\nfor (;;) {\n  float v0 = read_sensor(0, 0.0f);\n  float v1 = 3.0f;\n",
    );
    let mut next = 2usize;
    for (i, &op) in ops.iter().enumerate() {
        let a = format!("v{}", i % next);
        let b = format!("v{}", (i * 5 + 1) % next);
        let expr = match op % 8 {
            0 => format!("{a} + {b}"),
            1 => format!("{a} - {b}"),
            2 => format!("{a} * 0.25f + {b}"),
            3 => format!("{a} / ({b} * {b} + 2.0f)"),
            4 => format!("sqrtf({a} * {a} + 0.5f)"),
            5 => format!("fmaxf({a}, {b})"),
            6 => format!("select({b} < {a}, {a}, {b})"),
            _ => format!("fabsf({b}) + s1 * 0.0625f"),
        };
        src.push_str(&format!("  float v{next} = {expr};\n"));
        next += 1;
    }
    src.push_str(&format!("  s0 = v{} * 0.5f + s1;\n", next - 1));
    src.push_str(&format!("  s1 = s1 * 0.875f + v{} * 0.03125f;\n", next / 2));
    src.push_str(&format!("  write_actuator(0, v{});\n", next - 1));
    src.push_str("}\n");
    src
}

/// A random DFG with loop-carried registers and a *faultable* `Input`
/// node, built directly on the graph API (the C frontend never emits
/// `Input` — engines feed those ports from the harness).
fn input_bearing_dfg(ops: &[u8]) -> Dfg {
    let mut g = Dfg::new();
    let r0 = g.add(OpKind::RegRead(0), &[]);
    let r1 = g.add(OpKind::RegRead(1), &[]);
    let live_in = g.add(OpKind::Input(0), &[]);
    let mut vals = vec![r0, r1, live_in, g.konst(0.5)];
    for (i, &op) in ops.iter().enumerate() {
        let a = vals[i % vals.len()];
        let b = vals[(i * 3 + 1) % vals.len()];
        let id = match op % 6 {
            0 => g.add(OpKind::Add, &[a, b]),
            1 => g.add(OpKind::Sub, &[a, b]),
            2 => g.add(OpKind::Mul, &[a, b]),
            3 => g.add(OpKind::Abs, &[a]),
            4 => g.add(OpKind::Min, &[a, b]),
            _ => g.add(OpKind::Select, &[a, b, live_in]),
        };
        vals.push(id);
    }
    let last = *vals.last().unwrap();
    let mid = vals[vals.len() / 2];
    g.add(OpKind::RegWrite(0), &[last]);
    g.add(OpKind::RegWrite(1), &[mid]);
    g.add(OpKind::Output(0), &[last]);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Plan replay and direct interpretation agree bit-exactly on outputs,
    /// actuator writes and loop-carried registers, over several iterations
    /// of random kernels on random grids.
    #[test]
    fn plan_and_interpreter_agree(
        ops in prop::collection::vec(any::<u8>(), 1..24),
        rows in 2u16..5,
        cols in 2u16..5,
        topo_idx in 0usize..3,
        sensor_vals in prop::collection::vec(-8.0f64..8.0, 4),
    ) {
        let src = random_kernel_source(&ops);
        let kernel = compile(&src).expect("generated source is valid");
        let topo = [Topology::Mesh, Topology::MeshDiagonal, Topology::Torus][topo_idx];
        let grid = GridConfig { topology: topo, ..GridConfig::mesh(rows, cols) };
        let schedule = ListScheduler::new(grid).schedule(&kernel.dfg);
        schedule.validate(&kernel.dfg).expect("schedule valid");

        let mut planned = CgraExecutor::new(kernel.dfg.clone(), schedule);
        let mut regs = vec![0.0f64; kernel.dfg.reg_count() as usize];
        for &(r, v) in &kernel.reg_inits {
            planned.set_reg(r, v);
            regs[r as usize] = v;
        }
        let mut out_planned: Vec<(u16, f64)> = Vec::new();
        for &sv in &sensor_vals {
            let mut bus_p = MapBus::default();
            let mut bus_i = MapBus::default();
            bus_p.set_sensor(0, sv);
            bus_i.set_sensor(0, sv);
            planned
                .try_run_iteration_into(&mut bus_p, &[], &mut out_planned)
                .expect("plan replay succeeds");
            let out_interp = interpret_dfg(&kernel.dfg, &mut regs, &mut bus_i, &[]);
            // Exact equality: same operations in dependency order, no
            // reassociation anywhere.
            prop_assert_eq!(&out_planned, &out_interp);
            prop_assert_eq!(&bus_p.writes, &bus_i.writes);
            for r in 0..kernel.dfg.reg_count() {
                prop_assert_eq!(planned.reg(r), regs[r as usize]);
            }
        }
    }

    /// A `MissingInput` fault mid-iteration rolls loop-carried registers
    /// back to the last committed iteration: the faulted iteration is
    /// invisible, and the retried run stays bit-identical to an oracle
    /// that never faulted.
    #[test]
    fn missing_input_rollback_is_bit_identical(
        ops in prop::collection::vec(any::<u8>(), 1..16),
        good_iters in 1usize..4,
        live_in in -4.0f64..4.0,
    ) {
        let g = input_bearing_dfg(&ops);
        let schedule = ListScheduler::new(GridConfig::mesh(4, 4)).schedule(&g);
        schedule.validate(&g).expect("schedule valid");

        let mut planned = CgraExecutor::new(g.clone(), schedule);
        let mut regs = vec![0.0f64; g.reg_count() as usize];
        let mut out_planned: Vec<(u16, f64)> = Vec::new();

        // Healthy prefix: plan and interpreter advance in lockstep.
        for _ in 0..good_iters {
            planned
                .try_run_iteration_into(&mut MapBus::default(), &[live_in], &mut out_planned)
                .expect("inputs present");
            interpret_dfg(&g, &mut regs, &mut MapBus::default(), &[live_in]);
        }

        // Fault: input withheld. The plan reports the port, leaves
        // registers exactly as the last good iteration committed them and
        // leaves the scratch buffer empty.
        let before: Vec<f64> = (0..g.reg_count()).map(|r| planned.reg(r)).collect();
        let err_p = planned.try_run_iteration_into(&mut MapBus::default(), &[], &mut out_planned);
        prop_assert_eq!(err_p, Err(ExecError::MissingInput(0)));
        prop_assert!(out_planned.is_empty(), "failed iteration emits no outputs");
        for r in 0..g.reg_count() {
            prop_assert_eq!(planned.reg(r), before[r as usize]);
        }

        // Retry with the input restored: bit-identical to the never-faulted
        // interpreter on outputs and committed registers.
        planned
            .try_run_iteration_into(&mut MapBus::default(), &[live_in], &mut out_planned)
            .expect("retry succeeds");
        let out_interp = interpret_dfg(&g, &mut regs, &mut MapBus::default(), &[live_in]);
        prop_assert_eq!(&out_planned, &out_interp);
        for r in 0..g.reg_count() {
            prop_assert_eq!(planned.reg(r), regs[r as usize]);
        }
    }
}
