//! Beam-model engines behind one step-per-measurement interface.
//!
//! Every closed-loop executive used to carry its own copy of the loop
//! plumbing around a hand-wired beam model. [`BeamEngine`] factors the model
//! out: an engine owns the beam state and the actuation bookkeeping, and
//! exposes exactly what the harness ([`crate::harness::LoopHarness`]) needs —
//! advance to the next phase measurement, report per-bunch phase, accept a
//! controller actuation. Four fidelities implement it:
//!
//! * [`MapEngine`] — the two-particle map, one step per revolution;
//! * [`CgraEngine`] — the compiled kernel on the cycle-accurate CGRA
//!   executor fed by analytic signals (any bunch count), with schedules
//!   served from the process-wide [`cil_cgra::cache`];
//! * [`RefTrackEngine`] — the multi-particle reference tracker;
//! * [`SignalLevelEngine`] — the full 250 MS/s bench → framework → phase
//!   detector chain, one `step` per detector event;
//!
//! plus [`RampEngine`], the acceleration-ramp variant of the map.

use crate::error::{CilError, Result};
use crate::fault::{CavityPlant, CavityPlantState, FaultProgram, LossCause};
use crate::scenario::MdeScenario;
use crate::signalgen::{PhaseJumpProgram, SignalBench};
use cil_cgra::cache::CompiledKernel;
use cil_cgra::exec::{CgraExecutor, SensorBus};
use cil_cgra::kernels::{ACT_DT_BASE, PORT_GAP_BUF, PORT_PERIOD, PORT_REF_BUF};
use cil_dsp::phase_detector::PhaseDetector;
use cil_physics::constants::TWO_PI;
use cil_physics::machine::MachineParams;
use cil_physics::ramp::{RampProgram, RampTracker};
use cil_physics::tracking::TwoParticleMap;
use cil_physics::IonSpecies;
use cil_reftrack::ensemble::Ensemble;
use cil_reftrack::tracker::{MultiParticleTracker, TrackerConfig};
use std::sync::Arc;

/// Outcome of one engine step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStep {
    /// A phase measurement is available in `phase_out`.
    Measured,
    /// Time advanced but no measurement yet (signal-level warm-up).
    Idle,
    /// The beam was lost for the given reason; the run should stop (or the
    /// supervisor should degrade).
    Lost(LossCause),
}

/// One recorded engine step inside a [`StepBlock`].
#[derive(Debug, Clone, Copy)]
pub struct BlockStep {
    /// Engine time before the step, seconds — where the harness stamps jump
    /// edges (the engine evaluates the jump program for a step at its
    /// pre-step time).
    pub t_pre: f64,
    /// Engine time after the step, seconds — the measurement timestamp.
    pub t_post: f64,
    /// Jump-program offset applied during the step, degrees.
    pub jump_deg: f64,
    /// What the step produced. Each `Measured` step owns the next
    /// `bunches` phases of [`StepBlock::phase_row_mut`], in step order.
    pub result: EngineStep,
}

/// Reusable recording buffer for [`BeamEngine::step_block`]: per-step
/// bookkeeping plus row-major phase storage for the measured steps. Allocate
/// once, reuse across blocks — after the first few blocks the hot loop
/// never allocates.
#[derive(Debug, Default)]
pub struct StepBlock {
    steps: Vec<BlockStep>,
    phases: Vec<f64>,
    bunches: usize,
}

impl StepBlock {
    /// Empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset for a new block of up to `max_rows` measured rows.
    fn begin(&mut self, bunches: usize, max_rows: usize) {
        self.steps.clear();
        self.phases.clear();
        self.bunches = bunches.max(1);
        self.steps.reserve(max_rows);
        self.phases.reserve(max_rows * self.bunches);
    }

    /// Every step taken, in order (idle and lost steps included).
    pub fn steps(&self) -> &[BlockStep] {
        &self.steps
    }

    /// Measured rows recorded.
    pub fn rows(&self) -> usize {
        self.phases.len() / self.bunches
    }

    /// Phase row of the `row`-th *measured* step, mutable so the harness
    /// can apply fault corruption in place before recording.
    pub fn phase_row_mut(&mut self, row: usize) -> &mut [f64] {
        let start = row * self.bunches;
        &mut self.phases[start..start + self.bunches]
    }
}

/// A beam model the [`crate::harness::LoopHarness`] can close the loop
/// around.
///
/// `step` advances the model to its next measurement opportunity — one
/// revolution for the turn-level engines, the next phase-detector event for
/// the signal-level engine — evaluating `jumps` at the model's own time
/// base (the signal engine applies them at sample resolution internally).
/// Phases are *raw* model output in degrees at the RF harmonic; the harness
/// adds the instrumentation offset.
pub trait BeamEngine {
    /// Number of simulated bunches (= length `step` expects of `phase_out`).
    fn bunches(&self) -> usize;

    /// Elapsed simulated time, seconds.
    fn time(&self) -> f64;

    /// Advance to the next measurement opportunity, writing per-bunch phase
    /// (degrees at the RF harmonic) into `phase_out` when it returns
    /// [`EngineStep::Measured`].
    fn step(&mut self, jumps: &PhaseJumpProgram, phase_out: &mut [f64]) -> EngineStep;

    /// Advance up to `max_rows` *measured* rows (idle steps ride along, a
    /// loss or reaching `duration_s` ends the block early), recording every
    /// step's times, applied jump offset and — for measured steps — phases
    /// into `block`.
    ///
    /// Observationally equivalent to calling [`Self::step`] in a loop: the
    /// default implementation *is* that loop, so the engine's state after a
    /// block of `n` rows is bit-identical to `n` per-turn steps. The point
    /// is amortisation — the harness pays one dynamic dispatch and one
    /// round of per-row bookkeeping per block instead of per revolution,
    /// and the inner `step` calls devirtualise inside each concrete
    /// engine's monomorphised default body.
    fn step_block(
        &mut self,
        jumps: &PhaseJumpProgram,
        duration_s: f64,
        max_rows: usize,
        block: &mut StepBlock,
    ) {
        block.begin(self.bunches(), max_rows);
        let bunches = block.bunches;
        let mut rows = 0;
        while rows < max_rows && self.time() < duration_s {
            let t_pre = self.time();
            let start = block.phases.len();
            block.phases.resize(start + bunches, 0.0);
            let result = self.step(jumps, &mut block.phases[start..]);
            block.steps.push(BlockStep {
                t_pre,
                t_post: self.time(),
                jump_deg: self.applied_jump_deg(),
                result,
            });
            match result {
                EngineStep::Measured => rows += 1,
                EngineStep::Idle => block.phases.truncate(start),
                EngineStep::Lost(_) => {
                    block.phases.truncate(start);
                    return;
                }
            }
        }
    }

    /// Apply one controller output `u_hz` (gap-frequency trim, Hz) that is
    /// held for `decimation` measurements.
    fn apply_control(&mut self, u_hz: f64, decimation: u32);

    /// Jump-program offset currently applied to the gap, degrees — the
    /// harness watches this edge to record jump times.
    fn applied_jump_deg(&self) -> f64;

    /// Seed the engine's clock and accumulated control phase — used when a
    /// supervisor swaps a freshly built engine in mid-run so the loop's
    /// time base and actuation history carry over. The beam's oscillation
    /// state restarts matched (on-reference); engines without a turn-level
    /// state (the signal-level chain) ignore this.
    fn seed_state(&mut self, time_s: f64, ctrl_phase_rad: f64) {
        let _ = (time_s, ctrl_phase_rad);
    }

    /// Effective cavity voltage scale currently in force (scheduled fault
    /// scale × commanded boost) — the supervisor's audit channel for the
    /// voltage-sag estimator. 1.0 for engines without a cavity plant.
    fn cavity_voltage_scale(&self) -> f64 {
        1.0
    }

    /// Command the plant-side voltage boost (the VoltageRematch path: the
    /// supervisor raises the reference amplitude toward the pre-fault
    /// bucket area). 1.0 restores nominal. Engines without a cavity plant
    /// ignore it.
    fn command_voltage(&mut self, _boost: f64) {}

    /// Snapshot of the cavity plant's dynamic state (commanded boost,
    /// integrated detune phase).
    fn cavity_state(&self) -> CavityPlantState {
        CavityPlantState::default()
    }

    /// Restore a cavity plant state — used when the supervisor swaps a
    /// freshly built engine in mid-run, so the accumulated detune phase and
    /// the commanded boost survive the fidelity demotion.
    fn restore_cavity(&mut self, _state: &CavityPlantState) {}

    /// Export engine-internal statistics into `telemetry` (called by the
    /// harness when a run finishes). Default: nothing to report. Engines
    /// with internal DSP state (the signal-level chain) override this to
    /// publish detector drop counts, period-guard admissions and ring-buffer
    /// occupancy without the DSP crates ever depending on the registry.
    fn sample_telemetry(&self, telemetry: &crate::telemetry::TelemetryRegistry) {
        let _ = telemetry;
    }

    /// Capture the engine's *complete* dynamic state for checkpointing.
    /// Static configuration (machine parameters, compiled kernels, LUTs,
    /// filter taps) is not captured — a restore rebuilds the engine from the
    /// scenario first and then patches the dynamic fields back in.
    fn save_state(&self) -> EngineState;

    /// Restore a state captured by [`Self::save_state`] onto an engine that
    /// was freshly built from the *same scenario and kind*. Returns `false`
    /// when the state belongs to a different engine kind or its shapes
    /// (bunch count, ensemble size, buffer depth, …) do not match.
    fn restore_state(&mut self, state: &EngineState) -> bool;
}

/// Checkpointable state of any [`BeamEngine`] — the variant identifies the
/// engine fidelity it was captured from, and restores reject a mismatch.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineState {
    /// [`MapEngine`] state.
    Map(MapEngineState),
    /// [`CgraEngine`] state.
    Cgra(CgraEngineState),
    /// [`RefTrackEngine`] state.
    RefTrack(RefTrackEngineState),
    /// [`RampEngine`] state.
    Ramp(RampEngineState),
    /// [`SignalLevelEngine`] state.
    SignalLevel(Box<SignalLevelEngineState>),
}

/// Shared turn-level bookkeeping captured with every turn-level engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TurnStateSnapshot {
    /// Elapsed simulated time, seconds.
    pub time: f64,
    /// Accumulated control phase, radians.
    pub ctrl_phase_rad: f64,
    /// Jump offset in force, degrees.
    pub applied_jump_deg: f64,
    /// Cavity plant dynamic state (boost command, integrated detune phase).
    pub cavity: CavityPlantState,
}

/// Checkpointable state of a [`MapEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapEngineState {
    /// Reference-particle Lorentz factor γ_R.
    pub gamma_r: f64,
    /// Macro-particle energy deviation Δγ.
    pub dgamma: f64,
    /// Macro-particle arrival-time deviation Δt, seconds.
    pub dt: f64,
    /// Turn-level bookkeeping.
    pub turn: TurnStateSnapshot,
}

/// Checkpointable state of a [`CgraEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct CgraEngineState {
    /// CGRA register file + iteration counter.
    pub executor: cil_cgra::ExecutorState,
    /// Gap-phase offset currently presented on the analytic bus, radians.
    pub gap_phase_rad: f64,
    /// Injected gap dropout in force.
    pub gap_dropout: bool,
    /// Last Δt written per bunch, seconds.
    pub dt_out: Vec<f64>,
    /// Turn-level bookkeeping.
    pub turn: TurnStateSnapshot,
}

/// Checkpointable state of a [`RefTrackEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct RefTrackEngineState {
    /// Ensemble arrival-time deviations, seconds.
    pub dt: Vec<f64>,
    /// Ensemble energy deviations Δγ.
    pub dgamma: Vec<f64>,
    /// Completed tracker revolutions.
    pub tracker_turn: u64,
    /// Turn-level bookkeeping.
    pub turn: TurnStateSnapshot,
}

/// Checkpointable state of a [`RampEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampEngineState {
    /// Reference-particle Lorentz factor γ_R.
    pub gamma_r: f64,
    /// Macro-particle energy deviation Δγ.
    pub dgamma: f64,
    /// Macro-particle arrival-time deviation Δt, seconds.
    pub dt: f64,
    /// Elapsed machine time, seconds.
    pub time: f64,
    /// Completed revolutions.
    pub tracker_turn: u64,
    /// Accumulated control phase, radians.
    pub ctrl_phase_rad: f64,
    /// Jump offset in force, degrees.
    pub applied_jump_deg: f64,
    /// Revolution frequency after the latest step, Hz.
    pub last_f_rev: f64,
    /// Reference γ after the latest step.
    pub last_gamma_r: f64,
    /// Synchronous phase of the latest step, degrees.
    pub last_phi_s_deg: f64,
}

/// Checkpointable state of a [`SignalLevelEngine`] — the deep end: bench,
/// framework and detector internals in full.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalLevelEngineState {
    /// DDS bench state.
    pub bench: crate::signalgen::SignalBenchState,
    /// Framework state (CGRA, ring buffers, detectors, pulses, ADC RNG).
    pub fw: crate::framework::FrameworkState,
    /// Beam-phase detector state.
    pub detector: cil_dsp::phase_detector::PhaseDetectorState,
    /// Detector period setting, samples.
    pub period_samples: f64,
    /// Engine sample clock.
    pub sample: u64,
    /// Period-guard admissions.
    pub period_admitted: u64,
    /// Period-guard rejections.
    pub period_rejected: u64,
    /// Cavity plant dynamic state.
    pub cavity: CavityPlantState,
}

/// Which beam-model engine a turn-level executive uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The two-particle map evaluated directly (fastest).
    Map,
    /// The compiled kernel on the cycle-accurate CGRA executor, fed by
    /// analytic signals — the cavity-in-the-loop path without converter
    /// effects.
    Cgra,
    /// The multi-particle reference tracker (slowest, highest fidelity).
    RefTrack {
        /// Macro particles in the matched ensemble.
        particles: usize,
        /// Ensemble sampling seed.
        seed: u64,
    },
}

impl EngineKind {
    /// Bunch count of every engine [`EngineKind::build`] makes, and so of
    /// every checkpoint a resume can apply.
    pub(crate) const BUILT_BUNCHES: usize = 1;

    /// Build the engine for a scenario (single bunch, launched
    /// on-reference).
    pub fn build(&self, scenario: &MdeScenario) -> Result<Box<dyn BeamEngine>> {
        Ok(match *self {
            EngineKind::Map => Box::new(MapEngine::from_scenario(scenario)?),
            EngineKind::Cgra => Box::new(CgraEngine::from_scenario(
                scenario,
                Self::BUILT_BUNCHES,
                &[],
            )?),
            EngineKind::RefTrack { particles, seed } => Box::new(RefTrackEngine::from_scenario(
                scenario, particles, seed, 15e-9, 0.0,
            )?),
        })
    }

    /// The graceful-degradation ladder: the fidelity to fall back to when
    /// this engine cannot hold its deadline (or produces garbage). The
    /// analytic map is the floor — nothing is cheaper while still closing
    /// the loop.
    pub fn demote(&self) -> Option<EngineKind> {
        match *self {
            EngineKind::Cgra | EngineKind::RefTrack { .. } => Some(EngineKind::Map),
            EngineKind::Map => None,
        }
    }

    /// Stable label for metric names (`fidelity="..."`).
    pub fn fidelity_label(&self) -> &'static str {
        match *self {
            EngineKind::Map => "map",
            EngineKind::Cgra => "cgra",
            EngineKind::RefTrack { .. } => "reftrack",
        }
    }
}

/// Shared turn-level actuation state: the accumulated control phase and the
/// current jump evaluation.
#[derive(Debug, Clone, Copy, Default)]
struct TurnState {
    time: f64,
    ctrl_phase_rad: f64,
    applied_jump_deg: f64,
}

impl TurnState {
    /// Evaluate the jump program at the current turn and return the total
    /// gap-phase offset (jump + accumulated control), radians.
    fn gap_phase_rad(&mut self, jumps: &PhaseJumpProgram) -> f64 {
        self.applied_jump_deg = jumps.offset_deg_at(self.time);
        self.applied_jump_deg.to_radians() + self.ctrl_phase_rad
    }

    fn snapshot(&self, cavity: CavityPlantState) -> TurnStateSnapshot {
        TurnStateSnapshot {
            time: self.time,
            ctrl_phase_rad: self.ctrl_phase_rad,
            applied_jump_deg: self.applied_jump_deg,
            cavity,
        }
    }

    fn restore(&mut self, s: &TurnStateSnapshot) {
        self.time = s.time;
        self.ctrl_phase_rad = s.ctrl_phase_rad;
        self.applied_jump_deg = s.applied_jump_deg;
    }
}

/// The two-particle map as a [`BeamEngine`].
pub struct MapEngine {
    map: TwoParticleMap,
    v_hat: f64,
    f_rf: f64,
    t_rev: f64,
    state: TurnState,
    plant: CavityPlant,
}

impl MapEngine {
    /// Engine at the scenario's operating point.
    pub fn from_scenario(s: &MdeScenario) -> Result<Self> {
        let op = s.operating_point()?;
        Ok(Self {
            map: TwoParticleMap::at_operating_point(&op),
            v_hat: op.v_gap_volts,
            f_rf: op.f_rf(),
            t_rev: 1.0 / s.f_rev,
            state: TurnState::default(),
            plant: CavityPlant::from_program(&s.faults),
        })
    }
}

impl BeamEngine for MapEngine {
    fn bunches(&self) -> usize {
        1
    }

    fn time(&self) -> f64 {
        self.state.time
    }

    fn step(&mut self, jumps: &PhaseJumpProgram, phase_out: &mut [f64]) -> EngineStep {
        let gap_phase = self.state.gap_phase_rad(jumps);
        if self.plant.is_idle() {
            // The original code path, untouched: a fault-free (or
            // zero-amplitude) run stays bit-identical.
            let dt = self.map.step_stationary(self.v_hat, gap_phase);
            phase_out[0] = dt * self.f_rf * 360.0;
            self.state.time += self.t_rev;
            return EngineStep::Measured;
        }
        let c = self.plant.advance(self.state.time, self.t_rev);
        let dt = self
            .map
            .step_stationary(self.v_hat * c.scale, gap_phase + c.phase_rad);
        let deg = dt * self.f_rf * 360.0;
        phase_out[0] = deg;
        self.state.time += self.t_rev;
        if !deg.is_finite() {
            return EngineStep::Lost(LossCause::NonFinitePhase);
        }
        if deg.abs() > 180.0 {
            // The degraded plant shrank the bucket until the beam left it.
            return EngineStep::Lost(LossCause::CavityFault);
        }
        EngineStep::Measured
    }

    fn apply_control(&mut self, u_hz: f64, decimation: u32) {
        self.state.ctrl_phase_rad += TWO_PI * u_hz * self.t_rev * f64::from(decimation);
    }

    fn applied_jump_deg(&self) -> f64 {
        self.state.applied_jump_deg
    }

    fn seed_state(&mut self, time_s: f64, ctrl_phase_rad: f64) {
        self.state.time = time_s;
        self.state.ctrl_phase_rad = ctrl_phase_rad;
    }

    fn cavity_voltage_scale(&self) -> f64 {
        self.plant.effective_scale_at(self.state.time)
    }

    fn command_voltage(&mut self, boost: f64) {
        self.plant.command_boost(boost);
    }

    fn cavity_state(&self) -> CavityPlantState {
        self.plant.state()
    }

    fn restore_cavity(&mut self, state: &CavityPlantState) {
        self.plant.restore(state);
    }

    fn save_state(&self) -> EngineState {
        EngineState::Map(MapEngineState {
            gamma_r: self.map.reference.gamma,
            dgamma: self.map.particle.dgamma,
            dt: self.map.particle.dt,
            turn: self.state.snapshot(self.plant.state()),
        })
    }

    fn restore_state(&mut self, state: &EngineState) -> bool {
        let EngineState::Map(s) = state else {
            return false;
        };
        self.map.reference.gamma = s.gamma_r;
        self.map.particle.dgamma = s.dgamma;
        self.map.particle.dt = s.dt;
        self.state.restore(&s.turn);
        self.plant.restore(&s.turn.cavity);
        true
    }
}

/// Analytic SensorBus for the turn-level CGRA engines: serves ideal DDS
/// waveforms (no ADC/quantisation) with the current gap-phase offset.
struct AnalyticBus {
    f_rev: f64,
    f_rf: f64,
    sample_rate: f64,
    /// ADC-side amplitudes (the kernel multiplies by its scale factors).
    amp: f64,
    /// Gap-channel amplitude: `amp` scaled by the cavity plant's effective
    /// voltage scale (equal to `amp` while the plant is nominal).
    gap_amp: f64,
    gap_phase_rad: f64,
    /// Injected gap-DDS dropout: the gap port reads 0 V while set.
    gap_dropout: bool,
    dt_out: Vec<f64>,
}

impl SensorBus for AnalyticBus {
    fn read(&mut self, port: u16, addr: f64) -> f64 {
        let t = addr / self.sample_rate; // seconds relative to the crossing
        match port {
            PORT_PERIOD => 1.0 / self.f_rev,
            PORT_REF_BUF => self.amp * (TWO_PI * self.f_rev * t).sin(),
            PORT_GAP_BUF if self.gap_dropout => 0.0,
            PORT_GAP_BUF => self.gap_amp * (TWO_PI * self.f_rf * t + self.gap_phase_rad).sin(),
            _ => 0.0,
        }
    }
    fn write(&mut self, port: u16, value: f64) {
        let b = (port - ACT_DT_BASE) as usize;
        if b < self.dt_out.len() {
            self.dt_out[b] = value;
        }
    }
}

/// The compiled beam kernel on the cycle-accurate CGRA executor, fed by
/// analytic signals — one Δt actuator per bunch.
pub struct CgraEngine {
    compiled: Arc<CompiledKernel>,
    executor: CgraExecutor,
    bus: AnalyticBus,
    bunches: usize,
    f_rf: f64,
    t_rev: f64,
    state: TurnState,
    faults: FaultProgram,
    plant: CavityPlant,
    /// Caller-owned output scratch for the executor's allocation-free path.
    out_scratch: Vec<(u16, f64)>,
}

impl CgraEngine {
    /// Engine for a scenario with `bunches` bunches; bunch `b` launches
    /// displaced by `initial_offsets_deg[b]` (missing entries → 0°). The
    /// kernel schedule comes from the process-wide compile cache.
    pub fn from_scenario(
        s: &MdeScenario,
        bunches: usize,
        initial_offsets_deg: &[f64],
    ) -> Result<Self> {
        let op = s.operating_point()?;
        let f_rf = op.f_rf();
        let compiled = cil_cgra::cache::global().get_or_compile(
            &s.kernel_params()?,
            bunches,
            s.pipelined,
            true,
            s.grid,
        );
        let mut executor = compiled.executor();
        let mut displacements = Vec::new();
        for (b, &deg) in initial_offsets_deg.iter().enumerate().take(bunches) {
            let name = format!("dt_{b}");
            let reg = compiled
                .static_reg(&name)
                .ok_or(CilError::MissingKernelRegister(name))?;
            displacements.push((reg, deg / 360.0 / f_rf));
        }
        for &(reg, dt) in &displacements {
            executor.set_reg(reg, dt);
        }
        let mut bus = AnalyticBus {
            f_rev: s.f_rev,
            f_rf,
            sample_rate: 250e6,
            amp: s.adc_amplitude,
            gap_amp: s.adc_amplitude,
            gap_phase_rad: 0.0,
            gap_dropout: false,
            dt_out: vec![0.0; bunches],
        };
        if s.pipelined {
            // Warm the stage bridges, then restore inits + displacements. A
            // kernel that cannot complete its warmup iteration is a
            // configuration error the caller can act on (the supervisor
            // demotes through the fidelity ladder) — not a panic.
            let mut restore = compiled.kernel.kernel.reg_inits.clone();
            restore.extend_from_slice(&displacements);
            executor
                .try_warmup(&mut bus, &[], &restore)
                .map_err(|e| CilError::InvalidConfig(format!("CGRA kernel warmup failed: {e}")))?;
        }
        let output_count = compiled.plan.output_count();
        Ok(Self {
            compiled,
            executor,
            bus,
            bunches,
            f_rf,
            t_rev: 1.0 / s.f_rev,
            state: TurnState::default(),
            faults: s.faults.clone(),
            plant: CavityPlant::from_program(&s.faults),
            out_scratch: Vec::with_capacity(output_count),
        })
    }

    /// The cached compilation artifact this engine runs.
    pub fn compiled(&self) -> &CompiledKernel {
        &self.compiled
    }
}

impl BeamEngine for CgraEngine {
    fn bunches(&self) -> usize {
        self.bunches
    }

    fn time(&self) -> f64 {
        self.state.time
    }

    fn step(&mut self, jumps: &PhaseJumpProgram, phase_out: &mut [f64]) -> EngineStep {
        self.bus.gap_phase_rad = self.state.gap_phase_rad(jumps);
        if !self.faults.is_empty() {
            self.bus.gap_dropout = self.faults.sample_faults_at(self.state.time).dds_dropout;
        }
        let cavity_active = !self.plant.is_idle();
        if cavity_active {
            // The degraded cavity enters through the bus: the kernel's
            // simulated beam feels the scaled gap voltage and the
            // accumulated detune phase like every other fidelity.
            let c = self.plant.advance(self.state.time, self.t_rev);
            self.bus.gap_amp = self.bus.amp * c.scale;
            self.bus.gap_phase_rad += c.phase_rad;
        }
        if self
            .executor
            .try_run_iteration_into(&mut self.bus, &[], &mut self.out_scratch)
            .is_err()
        {
            return EngineStep::Lost(LossCause::NonFinitePhase);
        }
        for (out, &dt) in phase_out.iter_mut().zip(&self.bus.dt_out) {
            *out = dt * self.f_rf * 360.0;
        }
        self.state.time += self.t_rev;
        if phase_out.iter().any(|p| !p.is_finite()) {
            return EngineStep::Lost(LossCause::NonFinitePhase);
        }
        if cavity_active && phase_out.iter().any(|p| p.abs() > 180.0) {
            return EngineStep::Lost(LossCause::CavityFault);
        }
        EngineStep::Measured
    }

    fn apply_control(&mut self, u_hz: f64, decimation: u32) {
        self.state.ctrl_phase_rad += TWO_PI * u_hz * self.t_rev * f64::from(decimation);
    }

    fn applied_jump_deg(&self) -> f64 {
        self.state.applied_jump_deg
    }

    fn seed_state(&mut self, time_s: f64, ctrl_phase_rad: f64) {
        self.state.time = time_s;
        self.state.ctrl_phase_rad = ctrl_phase_rad;
    }

    fn cavity_voltage_scale(&self) -> f64 {
        self.plant.effective_scale_at(self.state.time)
    }

    fn command_voltage(&mut self, boost: f64) {
        self.plant.command_boost(boost);
    }

    fn cavity_state(&self) -> CavityPlantState {
        self.plant.state()
    }

    fn restore_cavity(&mut self, state: &CavityPlantState) {
        self.plant.restore(state);
    }

    fn save_state(&self) -> EngineState {
        EngineState::Cgra(CgraEngineState {
            executor: self.executor.state(),
            gap_phase_rad: self.bus.gap_phase_rad,
            gap_dropout: self.bus.gap_dropout,
            dt_out: self.bus.dt_out.clone(),
            turn: self.state.snapshot(self.plant.state()),
        })
    }

    fn restore_state(&mut self, state: &EngineState) -> bool {
        let EngineState::Cgra(s) = state else {
            return false;
        };
        if s.dt_out.len() != self.bus.dt_out.len() || !self.executor.restore(&s.executor) {
            return false;
        }
        self.bus.gap_phase_rad = s.gap_phase_rad;
        self.bus.gap_dropout = s.gap_dropout;
        self.bus.dt_out = s.dt_out.clone();
        self.state.restore(&s.turn);
        self.plant.restore(&s.turn.cavity);
        true
    }
}

/// The multi-particle reference tracker as a [`BeamEngine`] — the "MDE
/// stand-in" fidelity the CGRA results are checked against.
pub struct RefTrackEngine {
    tracker: MultiParticleTracker,
    t_rev: f64,
    state: TurnState,
    plant: CavityPlant,
}

impl RefTrackEngine {
    /// Engine over a matched Gaussian ensemble of `particles` macro
    /// particles (`sigma_s` RMS bunch length, deterministic in `seed`),
    /// coherently displaced by `displace_dt` seconds at launch.
    pub fn from_scenario(
        s: &MdeScenario,
        particles: usize,
        seed: u64,
        sigma_s: f64,
        displace_dt: f64,
    ) -> Result<Self> {
        let op = s.operating_point()?;
        let spec = cil_physics::distribution::BunchSpec::gaussian(sigma_s);
        let mut ensemble = Ensemble::matched(&spec, particles, &op, seed)?;
        ensemble.displace_dt(displace_dt);
        Ok(Self {
            tracker: MultiParticleTracker::new(op, ensemble, TrackerConfig::default()),
            t_rev: 1.0 / s.f_rev,
            state: TurnState::default(),
            plant: CavityPlant::from_program(&s.faults),
        })
    }

    /// The tracked ensemble (inspection).
    pub fn ensemble(&self) -> &Ensemble {
        &self.tracker.ensemble
    }

    /// Replace the tracker's worker configuration (threads, chunking,
    /// kernel backend). Determinism contract: any configuration produces
    /// bit-identical trajectories and centroid bits on the polynomial
    /// backends, so this only changes *how fast* the engine runs — callers
    /// (harness, tests, benches) may retune freely between steps.
    pub fn set_tracker_config(&mut self, config: cil_reftrack::TrackerConfig) {
        self.tracker.config = config;
    }

    /// The tracker's current worker configuration.
    pub fn tracker_config(&self) -> cil_reftrack::TrackerConfig {
        self.tracker.config
    }
}

impl BeamEngine for RefTrackEngine {
    fn bunches(&self) -> usize {
        1
    }

    fn time(&self) -> f64 {
        self.state.time
    }

    fn step(&mut self, jumps: &PhaseJumpProgram, phase_out: &mut [f64]) -> EngineStep {
        let gap_phase = self.state.gap_phase_rad(jumps);
        if self.plant.is_idle() {
            let moments = self.tracker.step(gap_phase);
            phase_out[0] = self.tracker.phase_deg_of_dt(moments.centroid_dt());
            self.state.time += self.t_rev;
            return EngineStep::Measured;
        }
        let c = self.plant.advance(self.state.time, self.t_rev);
        let moments = self.tracker.step_scaled(gap_phase + c.phase_rad, c.scale);
        let deg = self.tracker.phase_deg_of_dt(moments.centroid_dt());
        phase_out[0] = deg;
        self.state.time += self.t_rev;
        if !deg.is_finite() {
            return EngineStep::Lost(LossCause::NonFinitePhase);
        }
        if deg.abs() > 180.0 {
            return EngineStep::Lost(LossCause::CavityFault);
        }
        EngineStep::Measured
    }

    fn apply_control(&mut self, u_hz: f64, decimation: u32) {
        self.state.ctrl_phase_rad += TWO_PI * u_hz * self.t_rev * f64::from(decimation);
    }

    fn applied_jump_deg(&self) -> f64 {
        self.state.applied_jump_deg
    }

    fn seed_state(&mut self, time_s: f64, ctrl_phase_rad: f64) {
        self.state.time = time_s;
        self.state.ctrl_phase_rad = ctrl_phase_rad;
    }

    fn cavity_voltage_scale(&self) -> f64 {
        self.plant.effective_scale_at(self.state.time)
    }

    fn command_voltage(&mut self, boost: f64) {
        self.plant.command_boost(boost);
    }

    fn cavity_state(&self) -> CavityPlantState {
        self.plant.state()
    }

    fn restore_cavity(&mut self, state: &CavityPlantState) {
        self.plant.restore(state);
    }

    fn save_state(&self) -> EngineState {
        EngineState::RefTrack(RefTrackEngineState {
            dt: self.tracker.ensemble.dt.clone(),
            dgamma: self.tracker.ensemble.dgamma.clone(),
            tracker_turn: self.tracker.turn,
            turn: self.state.snapshot(self.plant.state()),
        })
    }

    fn restore_state(&mut self, state: &EngineState) -> bool {
        let EngineState::RefTrack(s) = state else {
            return false;
        };
        if s.dt.len() != self.tracker.ensemble.dt.len() || s.dt.len() != s.dgamma.len() {
            return false;
        }
        self.tracker.ensemble.dt = s.dt.clone();
        self.tracker.ensemble.dgamma = s.dgamma.clone();
        self.tracker.turn = s.tracker_turn;
        self.state.restore(&s.turn);
        self.plant.restore(&s.turn.cavity);
        true
    }

    fn sample_telemetry(&self, telemetry: &crate::telemetry::TelemetryRegistry) {
        let cfg = self.tracker.config;
        telemetry
            .gauge(&format!(
                "cil_reftrack_kernel_active{{backend=\"{}\"}}",
                cfg.backend.resolve().label()
            ))
            .set(1.0);
        telemetry
            .gauge("cil_reftrack_worker_threads")
            .set(cfg.threads.max(1) as f64);
        telemetry
            .gauge("cil_reftrack_particles")
            .set(self.tracker.ensemble.len() as f64);
    }
}

/// The two-particle map along an acceleration ramp. Reports
/// [`EngineStep::Lost`] when the ramp over-demands the bucket or the phase
/// leaves ±180°; the revolution period varies with the ramp, so its
/// measurement times are not uniform.
pub struct RampEngine {
    machine: MachineParams,
    tracker: RampTracker,
    ctrl_phase_rad: f64,
    applied_jump_deg: f64,
    last_f_rev: f64,
    last_gamma_r: f64,
    last_phi_s_deg: f64,
}

impl RampEngine {
    /// Engine at the start of a ramp program.
    pub fn new(machine: MachineParams, ion: IonSpecies, program: RampProgram) -> Self {
        let f0 = program.f_rev.at(0.0);
        let tracker = RampTracker::new(machine, ion, program);
        let gamma0 = tracker.map.reference.gamma;
        Self {
            machine,
            tracker,
            ctrl_phase_rad: 0.0,
            applied_jump_deg: 0.0,
            last_f_rev: f0,
            last_gamma_r: gamma0,
            last_phi_s_deg: 0.0,
        }
    }

    /// Reference γ after the latest step.
    pub fn gamma_r(&self) -> f64 {
        self.last_gamma_r
    }

    /// Synchronous phase of the latest step, degrees.
    pub fn phi_s_deg(&self) -> f64 {
        self.last_phi_s_deg
    }
}

impl BeamEngine for RampEngine {
    fn bunches(&self) -> usize {
        1
    }

    fn time(&self) -> f64 {
        self.tracker.time
    }

    fn step(&mut self, jumps: &PhaseJumpProgram, phase_out: &mut [f64]) -> EngineStep {
        self.applied_jump_deg = jumps.offset_deg_at(self.tracker.time);
        let offset = self.applied_jump_deg.to_radians() + self.ctrl_phase_rad;
        let Some(sample) = self.tracker.step_with_phase_offset(offset) else {
            return EngineStep::Lost(LossCause::BucketOverdemand);
        };
        let f_rev = self.machine.revolution_frequency(sample.gamma_r);
        let f_rf = self.machine.rf_frequency(f_rev);
        let phase_deg = sample.dt * f_rf * 360.0;
        if phase_deg.abs() > 180.0 {
            // Left the bucket: count as beam loss.
            return EngineStep::Lost(LossCause::OutOfBucket);
        }
        self.last_f_rev = f_rev;
        self.last_gamma_r = sample.gamma_r;
        self.last_phi_s_deg = sample.phi_s.to_degrees();
        phase_out[0] = phase_deg;
        EngineStep::Measured
    }

    fn apply_control(&mut self, u_hz: f64, decimation: u32) {
        // The actuation interval follows the ramping revolution frequency.
        self.ctrl_phase_rad += TWO_PI * u_hz / self.last_f_rev * f64::from(decimation);
    }

    fn applied_jump_deg(&self) -> f64 {
        self.applied_jump_deg
    }

    fn save_state(&self) -> EngineState {
        EngineState::Ramp(RampEngineState {
            gamma_r: self.tracker.map.reference.gamma,
            dgamma: self.tracker.map.particle.dgamma,
            dt: self.tracker.map.particle.dt,
            time: self.tracker.time,
            tracker_turn: self.tracker.turn,
            ctrl_phase_rad: self.ctrl_phase_rad,
            applied_jump_deg: self.applied_jump_deg,
            last_f_rev: self.last_f_rev,
            last_gamma_r: self.last_gamma_r,
            last_phi_s_deg: self.last_phi_s_deg,
        })
    }

    fn restore_state(&mut self, state: &EngineState) -> bool {
        let EngineState::Ramp(s) = state else {
            return false;
        };
        self.tracker.map.reference.gamma = s.gamma_r;
        self.tracker.map.particle.dgamma = s.dgamma;
        self.tracker.map.particle.dt = s.dt;
        self.tracker.time = s.time;
        self.tracker.turn = s.tracker_turn;
        self.ctrl_phase_rad = s.ctrl_phase_rad;
        self.applied_jump_deg = s.applied_jump_deg;
        self.last_f_rev = s.last_f_rev;
        self.last_gamma_r = s.last_gamma_r;
        self.last_phi_s_deg = s.last_phi_s_deg;
        true
    }
}

/// The full signal-level chain as a [`BeamEngine`]: DDS bench → ADC →
/// framework (ring buffers, detectors, CGRA, Gauss pulses, DAC) → DSP phase
/// detector. One `step` runs samples until the detector produces a
/// measurement (or an internal cap is hit during warm-up → `Idle`). The
/// bench owns the jump program and applies it edge-accurately at sample
/// resolution, so `step`'s `jumps` argument is not consulted here.
pub struct SignalLevelEngine {
    bench: SignalBench,
    fw: crate::framework::SimulatorFramework,
    detector: PhaseDetector,
    period_samples: f64,
    sample_rate: f64,
    sample: u64,
    faults: FaultProgram,
    plant: CavityPlant,
    /// Period-guard verdicts, one per new period measurement: admitted to
    /// the detector vs rejected as a transient mis-measurement (exported
    /// via `sample_telemetry`).
    period_admitted: u64,
    period_rejected: u64,
}

impl SignalLevelEngine {
    /// The scenario's Fig. 4 bench (jump program included).
    pub fn from_scenario(s: &MdeScenario) -> Result<Self> {
        let sample_rate = 250e6;
        let bench = SignalBench::new(
            sample_rate,
            s.f_rev,
            s.harmonic(),
            s.adc_amplitude,
            s.adc_amplitude,
            s.jumps,
        );
        let fw =
            crate::framework::SimulatorFramework::new(s.framework_config(), s.kernel_params()?);
        let period_samples = sample_rate / s.f_rev;
        let detector = PhaseDetector::with_zc_threshold(
            fw.config().pulse_amplitude * 0.25,
            f64::from(s.harmonic()),
            period_samples,
            fw.config().zc_threshold,
        );
        Ok(Self {
            bench,
            fw,
            detector,
            period_samples,
            sample_rate,
            sample: 0,
            faults: s.faults.clone(),
            plant: CavityPlant::from_program(&s.faults),
            period_admitted: 0,
            period_rejected: 0,
        })
    }

    /// The underlying framework (inspection: records, kernel statics, …).
    pub fn framework(&self) -> &crate::framework::SimulatorFramework {
        &self.fw
    }

    /// Hand a new period measurement to the detector, guarded against
    /// transient mis-measurements under heavy noise. The measured period
    /// only changes here, so between measurements the detector keeps the
    /// last admitted value.
    fn track_period(&mut self) {
        if let Some(p) = self.fw.measured_period() {
            let samples = p * self.sample_rate;
            if samples > self.period_samples * 0.5 && samples < self.period_samples * 2.0 {
                self.period_admitted += 1;
                self.detector.set_period_samples(samples);
            } else {
                self.period_rejected += 1;
            }
        }
    }
}

impl BeamEngine for SignalLevelEngine {
    fn bunches(&self) -> usize {
        1
    }

    fn time(&self) -> f64 {
        self.sample as f64 / self.sample_rate
    }

    fn step(&mut self, _jumps: &PhaseJumpProgram, phase_out: &mut [f64]) -> EngineStep {
        // Signal-chain fault injection, refreshed once per step (~2 µs of
        // bench time — far finer than any scheduled fault window).
        if !self.faults.is_empty() {
            let sf = self.faults.sample_faults_at(self.time());
            self.fw.set_adc_fault(sf.adc);
            self.bench.gap.set_dropout(sf.dds_dropout);
        }
        if !self.plant.is_idle() {
            // The signal chain applies the cavity plant on the real DDS:
            // scaled gap amplitude, and the detuning as a true frequency
            // offset (the phase accumulator integrates it for real, where
            // the turn-level engines integrate analytically).
            let t = self.time();
            self.bench
                .set_cavity(self.plant.effective_scale_at(t), self.plant.detune_hz_at(t));
        }
        // At most two revolutions per step: during detector warm-up no
        // measurement fires, and the harness must still observe time moving.
        let cap = (self.period_samples * 2.0) as usize;
        for _ in 0..cap {
            let (v_ref, v_gap) = self.bench.tick();
            let out = self.fw.push_sample(v_ref, v_gap);
            self.sample += 1;
            if out.period_updated {
                self.track_period();
            }
            if let Some(m) = self.detector.push(v_ref, out.beam) {
                phase_out[0] = m.phase_deg;
                return EngineStep::Measured;
            }
        }
        EngineStep::Idle
    }

    fn apply_control(&mut self, u_hz: f64, _decimation: u32) {
        self.bench.set_control_frequency_offset(u_hz);
    }

    fn applied_jump_deg(&self) -> f64 {
        self.bench.applied_jump_deg()
    }

    fn cavity_voltage_scale(&self) -> f64 {
        self.plant.effective_scale_at(self.time())
    }

    fn command_voltage(&mut self, boost: f64) {
        self.plant.command_boost(boost);
    }

    fn cavity_state(&self) -> CavityPlantState {
        self.plant.state()
    }

    fn restore_cavity(&mut self, state: &CavityPlantState) {
        self.plant.restore(state);
    }

    fn save_state(&self) -> EngineState {
        EngineState::SignalLevel(Box::new(SignalLevelEngineState {
            bench: self.bench.state(),
            fw: self.fw.state(),
            detector: self.detector.state(),
            period_samples: self.period_samples,
            sample: self.sample,
            period_admitted: self.period_admitted,
            period_rejected: self.period_rejected,
            cavity: self.plant.state(),
        }))
    }

    fn restore_state(&mut self, state: &EngineState) -> bool {
        let EngineState::SignalLevel(s) = state else {
            return false;
        };
        if !self.fw.restore(&s.fw) {
            return false;
        }
        self.bench.restore(&s.bench);
        // PhaseDetectorState carries the detector's own (measured) period,
        // so no set_period_samples here — that would clobber it with the
        // nominal one.
        self.detector.restore(&s.detector);
        self.period_samples = s.period_samples;
        self.sample = s.sample;
        self.period_admitted = s.period_admitted;
        self.period_rejected = s.period_rejected;
        self.plant.restore(&s.cavity);
        true
    }

    fn sample_telemetry(&self, telemetry: &crate::telemetry::TelemetryRegistry) {
        telemetry
            .counter("cil_detector_dropped_samples_total")
            .add(self.detector.dropped_samples());
        telemetry
            .counter("cil_detector_period_admissions_total")
            .add(self.period_admitted);
        telemetry
            .counter("cil_detector_period_rejections_total")
            .add(self.period_rejected);
        telemetry
            .gauge("cil_ring_buffer_occupancy_samples{channel=\"ref\"}")
            .set(self.fw.ref_buffer_occupancy() as f64);
        telemetry
            .gauge("cil_ring_buffer_occupancy_samples{channel=\"gap\"}")
            .set(self.fw.gap_buffer_occupancy() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> MdeScenario {
        let mut s = MdeScenario::nov24_2023();
        s.duration_s = 0.01;
        s.bunches = 1;
        s
    }

    #[test]
    fn map_engine_steps_one_turn() {
        let s = scenario();
        let mut e = MapEngine::from_scenario(&s).unwrap();
        let mut out = [0.0];
        assert_eq!(e.time(), 0.0);
        assert_eq!(e.step(&s.jumps, &mut out), EngineStep::Measured);
        assert!((e.time() - 1.25e-6).abs() < 1e-15);
    }

    #[test]
    fn turn_engines_report_the_jump() {
        let s = scenario();
        let mut e = MapEngine::from_scenario(&s).unwrap();
        let mut out = [0.0];
        // Jump program displaced so the very first turn already sees it.
        let jumps = PhaseJumpProgram {
            amplitude_deg: 8.0,
            interval_s: 0.05,
            path_latency_s: -0.06,
        };
        e.step(&jumps, &mut out);
        assert_eq!(e.applied_jump_deg(), 8.0);
    }

    #[test]
    fn cgra_engine_uses_the_compile_cache() {
        let s = scenario();
        let before = cil_cgra::cache::global().misses();
        let a = CgraEngine::from_scenario(&s, 1, &[]).unwrap();
        let _b = CgraEngine::from_scenario(&s, 1, &[]).unwrap();
        let after_misses = cil_cgra::cache::global().misses();
        // Building the same engine twice compiles at most once.
        assert!(
            after_misses - before <= 1,
            "second build must hit the cache"
        );
        assert!(a.compiled().schedule.makespan > 0);
    }

    #[test]
    fn engine_kind_is_object_safe() {
        let s = scenario();
        let mut e: Box<dyn BeamEngine> = EngineKind::Map.build(&s).unwrap();
        let mut out = vec![0.0; e.bunches()];
        assert_eq!(e.step(&s.jumps, &mut out), EngineStep::Measured);
        e.apply_control(10.0, 4);
    }

    #[test]
    fn ramp_engine_reports_loss_on_overdemand() {
        use cil_physics::ramp::Curve;
        let program = RampProgram {
            f_rev: Curve::linear(0.0, 400e3, 0.01, 1.2e6),
            v_hat: Curve::constant(100.0),
        };
        let mut e = RampEngine::new(MachineParams::sis18(), IonSpecies::n14_7plus(), program);
        let jumps = PhaseJumpProgram {
            amplitude_deg: 0.0,
            interval_s: 1e9,
            path_latency_s: 0.0,
        };
        let mut out = [0.0];
        let mut lost = false;
        for _ in 0..200_000 {
            if matches!(e.step(&jumps, &mut out), EngineStep::Lost(_)) {
                lost = true;
                break;
            }
        }
        assert!(lost, "over-demanded ramp must lose the beam");
    }
}
