//! Closed-loop executives — "cavity in the loop".
//!
//! Two fidelities of the same experiment, both thin adapters over the
//! shared [`crate::harness::LoopHarness`] / [`crate::engine::BeamEngine`]
//! pair:
//!
//! * [`TurnLevelLoop`] — one step per revolution. The beam model runs as
//!   the plain two-particle map, through the *actual CGRA executor* fed by
//!   analytic signals, or as the multi-particle reference tracker
//!   (see [`EngineKind`]). Fast enough for the full 0.4 s Fig. 5 trace in
//!   milliseconds.
//! * [`SignalLevelLoop`] — every 250 MHz sample: DDS → ADC → ring buffers →
//!   detectors → CGRA → Gauss pulses → DAC → DSP phase detector →
//!   controller → gap DDS. The full Fig. 3 + Fig. 4 chain; ablation A6
//!   checks it against the turn-level loop.

use crate::control::BeamPhaseController;
use crate::engine::SignalLevelEngine;
use crate::error::Result;
use crate::fault::{LoopEvent, LoopOutcome, LoopSupervisor};
use crate::harness::{LoopHarness, LoopTrace};
use crate::scenario::MdeScenario;
use crate::telemetry::TelemetryRegistry;
use crate::trace::TimeSeries;

pub use crate::engine::EngineKind;

/// Result of a closed-loop run.
#[derive(Debug, Clone)]
pub struct HilResult {
    /// Beam-vs-reference phase (degrees at the RF harmonic), one sample per
    /// revolution — the Fig. 5 trace.
    pub phase_deg: TimeSeries,
    /// Controller actuation (Hz gap-frequency trim), one sample per
    /// revolution.
    pub control_hz: TimeSeries,
    /// Times at which the jump program toggled, seconds.
    pub jump_times: Vec<f64>,
    /// Audit channel: fault activations, rejections, demotions, losses.
    pub events: Vec<LoopEvent>,
    /// How the run ended.
    pub outcome: LoopOutcome,
}

impl HilResult {
    /// The Fig. 5a display form: 5-sample moving average.
    pub fn display_trace(&self) -> TimeSeries {
        self.phase_deg.averaged(5)
    }
}

/// Turn-level closed-loop executive.
pub struct TurnLevelLoop {
    scenario: MdeScenario,
    engine: EngineKind,
    telemetry: Option<TelemetryRegistry>,
}

impl TurnLevelLoop {
    /// New loop for a scenario.
    pub fn new(scenario: MdeScenario, engine: EngineKind) -> Self {
        Self {
            scenario,
            engine,
            telemetry: None,
        }
    }

    /// Record run metrics into `registry` (builder style).
    pub fn with_telemetry(mut self, registry: &TelemetryRegistry) -> Self {
        self.telemetry = Some(registry.clone());
        self
    }

    /// Run the experiment for the scenario duration. `control_enabled`
    /// opens/closes the loop (Fig. 5 runs closed).
    pub fn run(&self, control_enabled: bool) -> Result<HilResult> {
        let mut engine = self.engine.build(&self.scenario)?;
        self.run_on(engine.as_mut(), control_enabled)
    }

    /// Like [`Self::run`] but on a caller-provided engine — the hook sweeps
    /// use to amortise engine construction across points via an
    /// [`EngineArena`](crate::sweep::EngineArena). The engine must be in
    /// its freshly-built state for this scenario (the arena restores it);
    /// the harness (controller, fault injector, jump program) is rebuilt
    /// per call, so only engine construction is shared.
    pub fn run_on(
        &self,
        engine: &mut dyn crate::engine::BeamEngine,
        control_enabled: bool,
    ) -> Result<HilResult> {
        self.turn_level(control_enabled, |h, s| Ok(h.run(engine, s.duration_s)))
    }

    /// Run the experiment under a [`LoopSupervisor`]: deadline watchdog,
    /// outlier rejection, actuation clamping and graceful engine
    /// degradation (see [`LoopHarness::run_supervised`]).
    pub fn run_supervised(
        &self,
        control_enabled: bool,
        supervisor: &mut LoopSupervisor,
    ) -> Result<HilResult> {
        self.turn_level(control_enabled, |h, s| {
            h.run_supervised(s, self.engine, s.duration_s, supervisor)
        })
    }

    /// Run `run` on this experiment's turn-level harness and reshape its
    /// trace into a [`HilResult`], one sample per revolution.
    fn turn_level(
        &self,
        control_enabled: bool,
        run: impl FnOnce(&mut LoopHarness, &MdeScenario) -> Result<LoopTrace>,
    ) -> Result<HilResult> {
        let s = &self.scenario;
        let t_rev = 1.0 / s.f_rev;
        let mut harness = LoopHarness::for_scenario(s, control_enabled);
        if let Some(reg) = &self.telemetry {
            harness = harness.with_telemetry(reg);
        }
        let trace = run(&mut harness, s)?;
        Ok(HilResult {
            phase_deg: TimeSeries::new(0.0, t_rev, trace.mean_phase_deg),
            control_hz: TimeSeries::new(0.0, t_rev, trace.control_hz),
            jump_times: trace.jump_times,
            events: trace.events,
            outcome: trace.outcome,
        })
    }
}

/// Signal-level closed-loop executive: the full test bench of Fig. 4.
pub struct SignalLevelLoop {
    scenario: MdeScenario,
    telemetry: Option<TelemetryRegistry>,
}

impl SignalLevelLoop {
    /// New loop for a scenario.
    pub fn new(scenario: MdeScenario) -> Self {
        Self {
            scenario,
            telemetry: None,
        }
    }

    /// Record run metrics into `registry` (builder style).
    pub fn with_telemetry(mut self, registry: &TelemetryRegistry) -> Self {
        self.telemetry = Some(registry.clone());
        self
    }

    /// Run for `duration_s` seconds of bench time (may be shorter than the
    /// scenario duration — the signal-level loop processes 250 M samples
    /// per simulated second).
    pub fn run(&self, duration_s: f64, control_enabled: bool) -> Result<HilResult> {
        let s = &self.scenario;
        let mut engine = SignalLevelEngine::from_scenario(s)?;
        // The detector measures once per bunch passage, so the controller's
        // decimated rate derives from f_rev × bunches, not f_rev.
        let mut controller = BeamPhaseController::new(s.controller, s.f_rev * s.bunches as f64);
        controller.enabled = control_enabled;
        let mut harness = LoopHarness::new(controller, s.jumps, s.instrument_offset_deg);
        if let Some(reg) = &self.telemetry {
            harness = harness.with_telemetry(reg);
        }
        let trace = harness.run(&mut engine, duration_s);

        let t_rev = 1.0 / s.f_rev;
        let phase_events: Vec<(f64, f64)> = trace
            .times
            .iter()
            .copied()
            .zip(trace.mean_phase_deg)
            .collect();
        let control_events: Vec<(f64, f64)> =
            trace.times.iter().copied().zip(trace.control_hz).collect();
        Ok(HilResult {
            phase_deg: resample(&phase_events, t_rev, duration_s),
            control_hz: resample(&control_events, t_rev, duration_s),
            jump_times: trace.jump_times,
            events: trace.events,
            outcome: trace.outcome,
        })
    }
}

/// Convert irregular (time, value) events into a uniform series with
/// zero-order hold, one sample per `dt`.
fn resample(events: &[(f64, f64)], dt: f64, duration: f64) -> TimeSeries {
    let n = (duration / dt) as usize;
    let mut values = Vec::with_capacity(n);
    let mut idx = 0usize;
    let mut current = events.first().map_or(0.0, |e| e.1);
    for i in 0..n {
        let t = i as f64 * dt;
        while idx < events.len() && events[idx].0 <= t {
            current = events[idx].1;
            idx += 1;
        }
        values.push(current);
    }
    TimeSeries::new(0.0, dt, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::score_jump_response;

    fn fast_scenario() -> MdeScenario {
        // Shorter jump interval so short runs still contain jump events.
        let mut s = MdeScenario::nov24_2023();
        s.duration_s = 0.1;
        s.bunches = 1;
        s
    }

    #[test]
    fn turn_level_map_reproduces_fig5_shape() {
        let s = fast_scenario();
        let result = TurnLevelLoop::new(s.clone(), EngineKind::Map)
            .run(true)
            .unwrap();
        assert!(!result.jump_times.is_empty(), "at least one jump in 0.1 s");
        let t_jump = result.jump_times[0];
        let r = score_jump_response(
            &result.phase_deg,
            t_jump,
            t_jump + 0.045,
            s.jumps.amplitude_deg,
        );
        // First peak ≈ 2× the jump; the loop damps the oscillation.
        assert!(
            (r.first_peak_ratio - 2.0).abs() < 0.35,
            "first-peak ratio {}",
            r.first_peak_ratio
        );
        assert!(
            r.residual_ratio < 0.2,
            "damped, residual {}",
            r.residual_ratio
        );
        // A constant baseline offset is visible. It is close to, but not
        // exactly, the instrumentation offset: the controller's start-up
        // transient integrates into a permanent (physically arbitrary) RF
        // phase shift — the same class of constant offset the paper notes
        // in Fig. 5 and dismisses as irrelevant.
        assert!((r.baseline_deg - s.instrument_offset_deg).abs() < 8.0);
    }

    #[test]
    fn turn_level_cgra_matches_map_engine() {
        let mut s = fast_scenario();
        s.duration_s = 0.06;
        let a = TurnLevelLoop::new(s.clone(), EngineKind::Map)
            .run(true)
            .unwrap();
        let b = TurnLevelLoop::new(s, EngineKind::Cgra).run(true).unwrap();
        assert_eq!(a.phase_deg.len(), b.phase_deg.len());
        // The engines see slightly different sampled voltages (the CGRA
        // kernel does its own ΔT bookkeeping), but the traces must agree to
        // a fraction of a degree RMS.
        let mut err2 = 0.0;
        for (x, y) in a.phase_deg.values.iter().zip(&b.phase_deg.values) {
            err2 += (x - y) * (x - y);
        }
        let rms = (err2 / a.phase_deg.len() as f64).sqrt();
        assert!(rms < 0.8, "map vs CGRA rms {rms} deg");
    }

    #[test]
    fn open_loop_does_not_damp() {
        let mut s = fast_scenario();
        s.duration_s = 0.1;
        let result = TurnLevelLoop::new(s.clone(), EngineKind::Map)
            .run(false)
            .unwrap();
        let t_jump = result.jump_times[0];
        let r = score_jump_response(
            &result.phase_deg,
            t_jump,
            t_jump + 0.045,
            s.jumps.amplitude_deg,
        );
        assert!(
            r.residual_ratio > 0.7,
            "open loop rings, residual {}",
            r.residual_ratio
        );
    }

    #[test]
    fn display_trace_is_smoothed() {
        let s = fast_scenario();
        let result = TurnLevelLoop::new(s, EngineKind::Map).run(true).unwrap();
        let raw = &result.phase_deg;
        let disp = result.display_trace();
        assert_eq!(raw.len(), disp.len());
    }

    #[test]
    fn signal_level_loop_oscillates_and_damps() {
        // One real jump cycle at the paper's 0.05 s spacing: 65 ms of full
        // 250 MS/s simulation. Score on the paper's display form (5-sample
        // averaging) — the raw trace carries the ±4.6° quantisation of the
        // 4 ns pulse-trigger grid.
        let s = fast_scenario();
        let result = SignalLevelLoop::new(s).run(0.076, true).unwrap();
        assert!(!result.jump_times.is_empty());
        let t_jump = result.jump_times[0];
        let display = result.display_trace();
        let r = score_jump_response(&display, t_jump, t_jump + 0.025, 8.0);
        assert!(
            r.first_peak_ratio > 1.4 && r.first_peak_ratio < 2.6,
            "signal-level first-peak ratio {}",
            r.first_peak_ratio
        );
        // The signal-level loop damps more slowly than the ideal turn-level
        // loop: the pipelined kernel's two-turn-stale voltages cost ~80/s of
        // damping rate, and the 4 ns pulse-trigger grid leaves a ~0.3
        // quantisation floor. Within 25 ms the oscillation must still fall
        // well below the open-loop level (≈ 1.0).
        assert!(r.residual_ratio < 0.6, "residual {}", r.residual_ratio);
    }

    #[test]
    fn signal_level_matches_turn_level_open_loop() {
        // Ablation A6 (reduced): open-loop phase traces from both
        // fidelities agree on frequency and amplitude of the oscillation.
        let mut s = fast_scenario();
        s.jumps.interval_s = 4e-3;
        s.instrument_offset_deg = 0.0;
        let duration = 0.012;
        let sig = SignalLevelLoop::new(s.clone())
            .run(duration, false)
            .unwrap();
        let mut s_turn = s.clone();
        s_turn.duration_s = duration;
        let turn = TurnLevelLoop::new(s_turn, EngineKind::Map)
            .run(false)
            .unwrap();

        // Compare over the window after the first signal-level jump.
        let t0 = sig.jump_times[0].max(turn.jump_times[0]) + 1e-4;
        let w_sig = sig.phase_deg.window(t0, duration);
        let w_turn = turn.phase_deg.window(t0, duration);
        let (f_sig, a_sig) = w_sig.dominant_frequency(600.0, 3000.0);
        let (f_turn, a_turn) = w_turn.dominant_frequency(600.0, 3000.0);
        assert!((f_sig - f_turn).abs() < 100.0, "fs {f_sig} vs {f_turn}");
        assert!(
            (a_sig - a_turn).abs() / a_turn < 0.35,
            "amplitude {a_sig} vs {a_turn}"
        );
    }

    #[test]
    fn resample_zero_order_hold() {
        let events = vec![(0.1, 1.0), (0.3, 2.0)];
        let s = resample(&events, 0.1, 0.5);
        assert_eq!(s.values, vec![1.0, 1.0, 1.0, 2.0, 2.0]);
    }
}
