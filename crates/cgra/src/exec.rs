//! Cycle-accurate CGRA executor.
//!
//! Replays the compiled kernel cycle by cycle against a [`SensorBus`] (the
//! SensorAccess module of Section III-C). Values, register state and sensor
//! traffic are modelled exactly; the executor is the component the HIL
//! framework (`cil-core`) drives once per revolution.
//!
//! The executor replays a pre-decoded [`MicroOpPlan`] (see [`crate::plan`]):
//! a flat array of micro-ops with pre-resolved value-slot indices, built
//! once from the `(Dfg, Schedule)` pair.
//!
//! Correctness is anchored two ways: `Schedule::validate` proves the
//! timing is feasible, and the plan replay is differentially tested
//! against [`interpret_dfg`], the order-independent reference evaluation.

use crate::context::ContextMemories;
use crate::dfg::Dfg;
use crate::isa::OpKind;
use crate::plan::MicroOpPlan;
use crate::sched::Schedule;
use std::sync::Arc;

/// A typed executor failure — what used to be a panic inside the replay
/// loop. The HIL layer surfaces these as beam-loss / engine-fault events
/// instead of aborting the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// An `Input(p)` node fired but the caller supplied no value for port
    /// `p`.
    MissingInput(u16),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingInput(p) => write!(f, "missing input port {p}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The SensorAccess module interface: "a SensorAccess module was implemented
/// to act as memory. This allows the simulation model to both read input
/// signal data and set the output timing for the next Gauss pulse."
pub trait SensorBus {
    /// Read sensor `port` at address `addr` (meaning is port-specific, e.g.
    /// "samples before the last zero crossing" for ring-buffer ports).
    fn read(&mut self, port: u16, addr: f64) -> f64;
    /// Write `value` to actuator `port`.
    fn write(&mut self, port: u16, value: f64);
}

/// A sensor bus for tests: fixed scalar per port, records writes.
///
/// Sensor values live in a port-sorted table probed by binary search — the
/// table is built once (or amended by [`MapBus::set_sensor`]) and each read
/// is a cache-friendly probe of a small contiguous array instead of a
/// B-tree walk. A port with no entry reads as `0.0`, exactly as before.
#[derive(Debug, Default, Clone)]
pub struct MapBus {
    /// Port table sorted by port number.
    sensors: Vec<(u16, f64)>,
    /// All writes observed, in order.
    pub writes: Vec<(u16, f64)>,
}

impl MapBus {
    /// Set the value served on sensor `port` (inserting or overwriting its
    /// table entry, keeping the table sorted).
    pub fn set_sensor(&mut self, port: u16, value: f64) {
        match self.sensors.binary_search_by_key(&port, |&(p, _)| p) {
            Ok(i) => self.sensors[i].1 = value,
            Err(i) => self.sensors.insert(i, (port, value)),
        }
    }

    /// The value sensor `port` currently serves (`0.0` when unset).
    pub fn sensor(&self, port: u16) -> f64 {
        match self.sensors.binary_search_by_key(&port, |&(p, _)| p) {
            Ok(i) => self.sensors[i].1,
            Err(_) => 0.0,
        }
    }
}

impl SensorBus for MapBus {
    fn read(&mut self, port: u16, _addr: f64) -> f64 {
        self.sensor(port)
    }
    fn write(&mut self, port: u16, value: f64) {
        self.writes.push((port, value));
    }
}

/// Executor state: configured contexts + loop-carried register file.
///
/// The compile artifacts (DFG + schedule + micro-op plan) are held behind
/// `Arc`, so many executors — e.g. one per sweep worker — can share one
/// compiled kernel ([`crate::cache::CompiledKernelCache`]) while keeping
/// private mutable run state.
#[derive(Debug, Clone)]
pub struct CgraExecutor {
    dfg: Arc<Dfg>,
    schedule: Arc<Schedule>,
    plan: Arc<MicroOpPlan>,
    contexts: ContextMemories,
    /// Loop-carried registers (double-buffered: reads see last iteration).
    regs_current: Vec<f64>,
    regs_next: Vec<f64>,
    /// Scratch node-value store reused across iterations, seeded from the
    /// plan's constant-folded template.
    values: Vec<f64>,
    /// Iterations executed.
    iterations: u64,
}

impl CgraExecutor {
    /// Configure an executor from a DFG + its schedule. Initial register
    /// values default to zero; use [`Self::set_reg`] for kernel `static`
    /// initialisers.
    pub fn new(dfg: Dfg, schedule: Schedule) -> Self {
        Self::from_shared(Arc::new(dfg), Arc::new(schedule))
    }

    /// Configure an executor over *shared* compile artifacts (no DFG or
    /// schedule clone), lowering a fresh micro-op plan.
    pub fn from_shared(dfg: Arc<Dfg>, schedule: Arc<Schedule>) -> Self {
        let plan = Arc::new(MicroOpPlan::build(&dfg, &schedule));
        Self::from_shared_plan(dfg, schedule, plan)
    }

    /// Configure an executor over shared artifacts *including* an already
    /// lowered plan. This is how [`crate::cache::CompiledKernel`] stamps out
    /// per-run executors from one cached compilation: the plan is lowered
    /// once per cache entry and shared across every executor and thread.
    pub fn from_shared_plan(
        dfg: Arc<Dfg>,
        schedule: Arc<Schedule>,
        plan: Arc<MicroOpPlan>,
    ) -> Self {
        schedule
            .validate(&dfg)
            .expect("schedule must be valid for its DFG");
        let contexts = ContextMemories::from_schedule(&dfg, &schedule);
        let regs = vec![0.0; dfg.reg_count() as usize];
        let values = plan.values_template().to_vec();
        Self {
            dfg,
            schedule,
            plan,
            contexts,
            regs_current: regs.clone(),
            regs_next: regs,
            values,
            iterations: 0,
        }
    }

    /// Reset all per-run state (registers, scratch values, iteration
    /// counter) without touching the shared compile artifacts — the cheap
    /// way to reuse an executor for a fresh run.
    pub fn reset(&mut self) {
        self.regs_current.fill(0.0);
        self.regs_next.fill(0.0);
        self.values.copy_from_slice(self.plan.values_template());
        self.iterations = 0;
    }

    /// Set a loop-carried register (kernel `static float x = init;`).
    pub fn set_reg(&mut self, reg: u16, value: f64) {
        self.regs_current[reg as usize] = value;
        self.regs_next[reg as usize] = value;
    }

    /// Read a loop-carried register.
    pub fn reg(&self, reg: u16) -> f64 {
        self.regs_current[reg as usize]
    }

    /// Execute one kernel iteration ("one revolution"): every context slot
    /// fires at its cycle; sensor reads/writes hit `bus`; register writes
    /// become visible to the *next* iteration. `inputs[i]` feeds
    /// `OpKind::Input(i)`. Returns the values written to `Output` ports.
    ///
    /// Executor faults come back as [`ExecError`] with all register state
    /// untouched by the failed iteration (writes only commit on success), so
    /// a supervisor can degrade gracefully instead of unwinding through the
    /// loop.
    ///
    /// Thin allocating wrapper over [`Self::try_run_iteration_into`].
    pub fn try_run_iteration<B: SensorBus>(
        &mut self,
        bus: &mut B,
        inputs: &[f64],
    ) -> Result<Vec<(u16, f64)>, ExecError> {
        let mut outputs = Vec::with_capacity(self.plan.output_count());
        self.try_run_iteration_into(bus, inputs, &mut outputs)?;
        Ok(outputs)
    }

    /// The allocation-free hot path: replay the micro-op plan for one
    /// iteration, writing the kernel outputs into the caller-owned scratch
    /// buffer `outputs` (cleared first). Per-iteration cost is one pass
    /// over the flat plan — no `Arc` chasing, no heap traffic.
    ///
    /// Error semantics match [`Self::try_run_iteration`] exactly: on
    /// [`ExecError`] the loop-carried registers are rolled back and
    /// `outputs` is left empty.
    pub fn try_run_iteration_into<B: SensorBus>(
        &mut self,
        bus: &mut B,
        inputs: &[f64],
        outputs: &mut Vec<(u16, f64)>,
    ) -> Result<(), ExecError> {
        outputs.clear();
        for &op in self.plan.ops() {
            if let Err(port) = op.dispatch(
                &mut self.values,
                &self.regs_current,
                &mut self.regs_next,
                bus,
                inputs,
            ) {
                // Roll partially-written next-iteration register state back
                // so a retry starts clean.
                self.regs_next.copy_from_slice(&self.regs_current);
                return Err(ExecError::MissingInput(port));
            }
        }
        outputs.extend(
            self.plan
                .outputs()
                .iter()
                .map(|&(port, slot)| (port, self.values[slot as usize])),
        );
        // Commit loop-carried registers.
        self.regs_current.copy_from_slice(&self.regs_next);
        self.iterations += 1;
        Ok(())
    }

    /// Warm-up for pipelined kernels: the stage-bridging registers start at
    /// zero, so the first iteration's second half computes garbage (up to
    /// NaN via division by zero). This mirrors the paper's initialisation
    /// phase (Section IV-B): run one iteration to fill the bridges, then
    /// restore the architectural state registers to their initial values.
    ///
    /// A malformed kernel surfaces as [`ExecError`] (with
    /// registers rolled back and the iteration counter untouched) instead
    /// of aborting, so the HIL supervisor can degrade the engine fidelity
    /// gracefully.
    pub fn try_warmup<B: SensorBus>(
        &mut self,
        bus: &mut B,
        inputs: &[f64],
        restore: &[(u16, f64)],
    ) -> Result<(), ExecError> {
        let mut scratch = Vec::with_capacity(self.plan.output_count());
        self.try_run_iteration_into(bus, inputs, &mut scratch)?;
        for &(r, v) in restore {
            self.set_reg(r, v);
        }
        self.iterations = 0;
        Ok(())
    }

    /// The micro-op plan this executor replays.
    pub fn plan(&self) -> &MicroOpPlan {
        &self.plan
    }

    /// Schedule length in CGRA ticks — the time one iteration occupies.
    pub fn ticks_per_iteration(&self) -> u32 {
        self.schedule.makespan
    }

    /// Wall-clock duration of one iteration at CGRA clock `f_clk`.
    pub fn iteration_seconds(&self, f_clk: f64) -> f64 {
        f64::from(self.schedule.makespan) / f_clk
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Snapshot the architectural run state for checkpointing. Only the
    /// committed register file and the iteration counter are captured: after
    /// a committed iteration `regs_next == regs_current`, and the scratch
    /// value store carries nothing across iterations.
    pub fn state(&self) -> ExecutorState {
        ExecutorState {
            regs: self.regs_current.clone(),
            iterations: self.iterations,
        }
    }

    /// Restore a state captured by [`Self::state`]. Fails (returns `false`)
    /// when the register-file size does not match this executor's kernel.
    pub fn restore(&mut self, state: &ExecutorState) -> bool {
        if state.regs.len() != self.regs_current.len() {
            return false;
        }
        self.regs_current.copy_from_slice(&state.regs);
        self.regs_next.copy_from_slice(&state.regs);
        self.iterations = state.iterations;
        true
    }

    /// The configured context memories (the bitstream-patch artifact).
    pub fn contexts(&self) -> &ContextMemories {
        &self.contexts
    }

    /// The underlying schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The underlying DFG.
    pub fn dfg(&self) -> &Dfg {
        &self.dfg
    }
}

/// Checkpointable architectural state of a [`CgraExecutor`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorState {
    /// Committed loop-carried register file.
    pub regs: Vec<f64>,
    /// Iterations executed.
    pub iterations: u64,
}

/// Reference interpretation of a DFG for one iteration: definition order
/// (operands always precede users), same register/bus semantics. The
/// executor must agree with this exactly.
pub fn interpret_dfg<B: SensorBus>(
    dfg: &Dfg,
    regs: &mut [f64],
    bus: &mut B,
    inputs: &[f64],
) -> Vec<(u16, f64)> {
    let mut values = vec![0.0f64; dfg.len()];
    let mut outputs = Vec::new();
    let mut regs_next = regs.to_vec();
    for (id, node) in dfg.nodes() {
        let v = match node.op {
            OpKind::Input(p) => inputs[p as usize],
            OpKind::Output(p) => {
                let v = values[node.operands[0].0 as usize];
                outputs.push((p, v));
                v
            }
            OpKind::SensorRead(p) => {
                let addr = values[node.operands[0].0 as usize];
                bus.read(p, addr)
            }
            OpKind::ActuatorWrite(p) => {
                let v = values[node.operands[0].0 as usize];
                bus.write(p, v);
                v
            }
            OpKind::RegRead(r) => regs[r as usize],
            OpKind::RegWrite(r) => {
                let v = values[node.operands[0].0 as usize];
                regs_next[r as usize] = v;
                v
            }
            ref pure => {
                let args: Vec<f64> = node
                    .operands
                    .iter()
                    .map(|&o| values[o.0 as usize])
                    .collect();
                pure.eval_pure(&args).expect("pure op")
            }
        };
        values[id.0 as usize] = v;
    }
    regs.copy_from_slice(&regs_next);
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridConfig;
    use crate::sched::ListScheduler;

    /// y = sqrt(sensor(0)) * 2 ; actuator(0) <- y ; state += y
    fn kernel() -> Dfg {
        let mut g = Dfg::new();
        let zero = g.konst(0.0);
        let s = g.add(OpKind::SensorRead(0), &[zero]);
        let r = g.add(OpKind::Sqrt, &[s]);
        let two = g.konst(2.0);
        let y = g.add(OpKind::Mul, &[r, two]);
        g.add(OpKind::ActuatorWrite(0), &[y]);
        let acc = g.add(OpKind::RegRead(0), &[]);
        let acc2 = g.add(OpKind::Add, &[acc, y]);
        g.add(OpKind::RegWrite(0), &[acc2]);
        g.add(OpKind::Output(0), &[acc2]);
        g
    }

    fn executor() -> CgraExecutor {
        let g = kernel();
        let s = ListScheduler::new(GridConfig::mesh_3x3()).schedule(&g);
        CgraExecutor::new(g, s)
    }

    #[test]
    fn single_iteration_value() {
        let mut ex = executor();
        let mut bus = MapBus::default();
        bus.set_sensor(0, 9.0);
        let out = ex.try_run_iteration(&mut bus, &[]).unwrap();
        // sqrt(9)*2 = 6; accumulator = 6.
        assert_eq!(out, vec![(0, 6.0)]);
        assert_eq!(bus.writes, vec![(0, 6.0)]);
    }

    #[test]
    fn registers_carry_across_iterations() {
        let mut ex = executor();
        let mut bus = MapBus::default();
        bus.set_sensor(0, 4.0);
        for expected in [4.0, 8.0, 12.0] {
            let out = ex.try_run_iteration(&mut bus, &[]).unwrap();
            assert_eq!(out[0].1, expected, "accumulator grows by 4 per turn");
        }
        assert_eq!(ex.iterations(), 3);
    }

    #[test]
    fn set_reg_initialises_state() {
        let mut ex = executor();
        ex.set_reg(0, 100.0);
        let mut bus = MapBus::default();
        bus.set_sensor(0, 1.0);
        let out = ex.try_run_iteration(&mut bus, &[]).unwrap();
        assert_eq!(out[0].1, 102.0);
    }

    #[test]
    fn executor_matches_interpreter() {
        // Differential test over several iterations and varying sensors:
        // planned replay vs. reference interpreter.
        let g = kernel();
        let s = ListScheduler::new(GridConfig::mesh_5x5()).schedule(&g);
        let mut ex = CgraExecutor::new(g.clone(), s);
        let mut regs = vec![0.0f64; g.reg_count() as usize];
        for i in 0..10 {
            let mut bus_a = MapBus::default();
            let mut bus_b = MapBus::default();
            let sensor_val = (i as f64 + 1.0) * 1.7;
            bus_a.set_sensor(0, sensor_val);
            bus_b.set_sensor(0, sensor_val);
            let out_a = ex.try_run_iteration(&mut bus_a, &[]).unwrap();
            let out_b = interpret_dfg(&g, &mut regs, &mut bus_b, &[]);
            assert_eq!(out_a, out_b, "iteration {i}");
            assert_eq!(bus_a.writes, bus_b.writes);
        }
    }

    #[test]
    fn run_into_reuses_caller_buffer() {
        let mut ex = executor();
        let mut bus = MapBus::default();
        bus.set_sensor(0, 4.0);
        let mut out = Vec::new();
        ex.try_run_iteration_into(&mut bus, &[], &mut out).unwrap();
        assert_eq!(out, vec![(0, 4.0)]);
        let cap = out.capacity();
        ex.try_run_iteration_into(&mut bus, &[], &mut out).unwrap();
        assert_eq!(out, vec![(0, 8.0)]);
        assert_eq!(out.capacity(), cap, "no reallocation on reuse");
    }

    #[test]
    fn inputs_feed_input_nodes() {
        let mut g = Dfg::new();
        let a = g.add(OpKind::Input(0), &[]);
        let b = g.add(OpKind::Input(1), &[]);
        let s = g.add(OpKind::Add, &[a, b]);
        g.add(OpKind::Output(0), &[s]);
        let sch = ListScheduler::new(GridConfig::mesh_3x3()).schedule(&g);
        let mut ex = CgraExecutor::new(g, sch);
        let out = ex
            .try_run_iteration(&mut MapBus::default(), &[3.0, 4.0])
            .unwrap();
        assert_eq!(out, vec![(0, 7.0)]);
    }

    #[test]
    fn iteration_timing_from_schedule() {
        let ex = executor();
        let ticks = ex.ticks_per_iteration();
        assert!(ticks > 0);
        let dt = ex.iteration_seconds(111e6);
        assert!((dt - f64::from(ticks) / 111e6).abs() < 1e-15);
    }

    #[test]
    fn missing_input_is_a_typed_error() {
        let mut g = Dfg::new();
        let a = g.add(OpKind::Input(0), &[]);
        g.add(OpKind::Output(0), &[a]);
        let sch = ListScheduler::new(GridConfig::mesh_3x3()).schedule(&g);
        let mut ex = CgraExecutor::new(g, sch);
        let err = ex
            .try_run_iteration(&mut MapBus::default(), &[])
            .unwrap_err();
        assert_eq!(err, ExecError::MissingInput(0));
        assert!(err.to_string().contains("missing input port"), "{err}");
    }

    #[test]
    fn missing_input_rolls_back_and_leaves_outputs_empty() {
        let mut g = Dfg::new();
        let r = g.add(OpKind::RegRead(0), &[]);
        let one = g.konst(1.0);
        let inc = g.add(OpKind::Add, &[r, one]);
        g.add(OpKind::RegWrite(0), &[inc]);
        let a = g.add(OpKind::Input(0), &[]);
        g.add(OpKind::Output(0), &[a]);
        let sch = ListScheduler::new(GridConfig::mesh_3x3()).schedule(&g);
        let mut ex = CgraExecutor::new(g, sch);
        let mut out = vec![(9u16, 9.0f64)];
        let err = ex.try_run_iteration_into(&mut MapBus::default(), &[], &mut out);
        assert_eq!(err, Err(ExecError::MissingInput(0)));
        assert!(out.is_empty(), "failed iteration produces no outputs");
        assert_eq!(ex.reg(0), 0.0, "register write rolled back");
        assert_eq!(ex.iterations(), 0);
        // A retry with the input present commits normally.
        ex.try_run_iteration_into(&mut MapBus::default(), &[5.0], &mut out)
            .unwrap();
        assert_eq!(out, vec![(0, 5.0)]);
        assert_eq!(ex.reg(0), 1.0);
    }

    #[test]
    fn try_warmup_surfaces_missing_input() {
        let mut g = Dfg::new();
        let a = g.add(OpKind::Input(0), &[]);
        g.add(OpKind::Output(0), &[a]);
        let sch = ListScheduler::new(GridConfig::mesh_3x3()).schedule(&g);
        let mut ex = CgraExecutor::new(g, sch);
        let err = ex.try_warmup(&mut MapBus::default(), &[], &[]);
        assert_eq!(err, Err(ExecError::MissingInput(0)));
        assert_eq!(ex.iterations(), 0);
        assert!(ex.try_warmup(&mut MapBus::default(), &[1.0], &[]).is_ok());
        assert_eq!(ex.iterations(), 0, "warmup does not count as an iteration");
    }

    #[test]
    fn reset_restores_constant_template() {
        let mut ex = executor();
        let mut bus = MapBus::default();
        bus.set_sensor(0, 4.0);
        ex.try_run_iteration(&mut bus, &[]).unwrap();
        ex.reset();
        let out = ex.try_run_iteration(&mut bus, &[]).unwrap();
        assert_eq!(out, vec![(0, 4.0)], "reset executor behaves like fresh");
        assert_eq!(ex.iterations(), 1);
    }

    #[test]
    fn map_bus_sorted_table_semantics() {
        let mut bus = MapBus::default();
        bus.set_sensor(7, 1.5);
        bus.set_sensor(2, 2.5);
        bus.set_sensor(7, 3.5); // overwrite
        assert_eq!(bus.read(2, 0.0), 2.5);
        assert_eq!(bus.read(7, 0.0), 3.5);
        assert_eq!(bus.read(99, 0.0), 0.0, "unset port reads zero");
    }
}
