//! A [`BeamEngine`] wrapper that times every call into the engine.
//!
//! The harness sees an ordinary engine: every trait method forwards to the
//! wrapped one, so a wrapped run's trace is bit-identical to an unwrapped
//! run's. `step` and `step_block` run inside a span of the wrapper's layer,
//! which gives the engine's share of a closed-loop run; the harness's self
//! time is the run's wall time minus it.

use cil_core::engine::{BeamEngine, EngineState, EngineStep, StepBlock};
use cil_core::fault::CavityPlantState;
use cil_core::signalgen::PhaseJumpProgram;
use cil_core::telemetry::TelemetryRegistry;

use crate::tracing::{Layer, Tracer, NO_PARENT};

/// Times `step`/`step_block` of `inner` into `layer` spans.
pub struct TimedEngine<'t, E> {
    inner: E,
    tracer: &'t Tracer,
    layer: Layer,
    /// Span id the engine calls are children of (the sub-run).
    pub parent: u32,
}

impl<'t, E: BeamEngine> TimedEngine<'t, E> {
    /// Wrap `inner`, recording its calls as `layer` spans in `tracer`.
    pub fn new(inner: E, tracer: &'t Tracer, layer: Layer) -> Self {
        Self {
            inner,
            tracer,
            layer,
            parent: NO_PARENT,
        }
    }
}

impl<E: BeamEngine> BeamEngine for TimedEngine<'_, E> {
    fn bunches(&self) -> usize {
        self.inner.bunches()
    }

    fn time(&self) -> f64 {
        self.inner.time()
    }

    fn step(&mut self, jumps: &PhaseJumpProgram, phase_out: &mut [f64]) -> EngineStep {
        let open = self.tracer.open();
        let result = self.inner.step(jumps, phase_out);
        self.tracer.close(open, self.layer, self.parent, 0);
        result
    }

    fn step_block(
        &mut self,
        jumps: &PhaseJumpProgram,
        duration_s: f64,
        max_rows: usize,
        block: &mut StepBlock,
    ) {
        let open = self.tracer.open();
        self.inner.step_block(jumps, duration_s, max_rows, block);
        self.tracer.close(open, self.layer, self.parent, 0);
    }

    fn apply_control(&mut self, u_hz: f64, decimation: u32) {
        self.inner.apply_control(u_hz, decimation);
    }

    fn applied_jump_deg(&self) -> f64 {
        self.inner.applied_jump_deg()
    }

    fn seed_state(&mut self, time_s: f64, ctrl_phase_rad: f64) {
        self.inner.seed_state(time_s, ctrl_phase_rad);
    }

    fn cavity_voltage_scale(&self) -> f64 {
        self.inner.cavity_voltage_scale()
    }

    fn command_voltage(&mut self, boost: f64) {
        self.inner.command_voltage(boost);
    }

    fn cavity_state(&self) -> CavityPlantState {
        self.inner.cavity_state()
    }

    fn restore_cavity(&mut self, state: &CavityPlantState) {
        self.inner.restore_cavity(state);
    }

    fn sample_telemetry(&self, telemetry: &TelemetryRegistry) {
        self.inner.sample_telemetry(telemetry);
    }

    fn save_state(&self) -> EngineState {
        self.inner.save_state()
    }

    fn restore_state(&mut self, state: &EngineState) -> bool {
        self.inner.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::trace_difference;
    use cil_core::control::BeamPhaseController;
    use cil_core::engine::{CgraEngine, MapEngine, RefTrackEngine, SignalLevelEngine};
    use cil_core::harness::{LoopHarness, LoopTrace};
    use cil_core::MdeScenario;

    fn scenario(bunches: usize, revs: u32) -> MdeScenario {
        let mut s = MdeScenario::nov24_2023();
        s.bunches = bunches;
        s.jumps.interval_s = 0.5e-3;
        s.duration_s = f64::from(revs) / s.f_rev;
        s
    }

    /// Run `engine` bare and wrapped (tracing on) under identical harnesses:
    /// the traces and every piece of engine state the trait exposes must
    /// match bit for bit, and the wrapper must have timed the engine calls.
    fn assert_transparent<E: BeamEngine>(
        s: &MdeScenario,
        build: impl Fn() -> E,
        harness: impl Fn() -> LoopHarness,
    ) {
        let mut bare = build();
        let bare_trace: LoopTrace = harness().run(&mut bare, s.duration_s);
        assert!(bare_trace.survived() && !bare_trace.times.is_empty());
        let tracer = Tracer::new(true);
        for per_row in [false, true] {
            let mut wrapped = TimedEngine::new(build(), &tracer, Layer::CgraStep);
            let trace = if per_row {
                // The cadence-1 observer path: one row per block.
                harness().run_with(&mut wrapped, s.duration_s, |_| {})
            } else {
                harness().run(&mut wrapped, s.duration_s)
            };
            assert_eq!(trace_difference(&bare_trace, &trace), None);
            assert_eq!(wrapped.bunches(), bare.bunches());
            assert_eq!(wrapped.time().to_bits(), bare.time().to_bits());
            assert_eq!(
                wrapped.applied_jump_deg().to_bits(),
                bare.applied_jump_deg().to_bits()
            );
            assert_eq!(wrapped.save_state(), bare.save_state());

            // The calls the plain harness never makes.
            let mut b = build();
            let mut w = TimedEngine::new(build(), &tracer, Layer::CgraStep);
            for e in [&mut b as &mut dyn BeamEngine, &mut w] {
                e.seed_state(1e-3, 0.25);
                e.command_voltage(1.5);
                e.apply_control(3.0, 4);
            }
            assert_eq!(w.save_state(), b.save_state());
            assert_eq!(w.cavity_state(), b.cavity_state());
            assert_eq!(
                w.cavity_voltage_scale().to_bits(),
                b.cavity_voltage_scale().to_bits()
            );
            w.restore_cavity(&bare.cavity_state());
            b.restore_cavity(&bare.cavity_state());
            assert_eq!(w.cavity_state(), b.cavity_state());
            assert!(w.restore_state(&bare.save_state()));
            assert!(b.restore_state(&bare.save_state()));
            assert_eq!(w.save_state(), bare.save_state());
            let (rw, rb) = (TelemetryRegistry::new(), TelemetryRegistry::new());
            w.sample_telemetry(&rw);
            b.sample_telemetry(&rb);
            assert_eq!(rw.snapshot().to_json(), rb.snapshot().to_json());
        }
        assert!(
            tracer.total(Layer::CgraStep).1 > 0,
            "engine calls were timed"
        );
    }

    #[test]
    fn wrapped_runs_are_bit_identical_on_every_engine() {
        let s = scenario(1, 1200);
        let turn = || LoopHarness::for_scenario(&s, true);
        assert_transparent(&s, || MapEngine::from_scenario(&s).unwrap(), turn);
        assert_transparent(&s, || CgraEngine::from_scenario(&s, 1, &[]).unwrap(), turn);
        assert_transparent(
            &s,
            || RefTrackEngine::from_scenario(&s, 512, 9, 15e-9, 0.0).unwrap(),
            turn,
        );
        let sig = scenario(4, 1200);
        assert_transparent(
            &sig,
            || SignalLevelEngine::from_scenario(&sig).unwrap(),
            || {
                let controller =
                    BeamPhaseController::new(sig.controller, sig.f_rev * sig.bunches as f64);
                LoopHarness::new(controller, sig.jumps, sig.instrument_offset_deg)
            },
        );
    }
}
