//! The beam-phase control loop (Section V; structure after Klingbeil 2007,
//! ref. [8] of the paper).
//!
//! The DSP measures the phase difference between beam and reference signal;
//! the controller filters it with an FIR filter (pass frequency 1.4 kHz),
//! applies the loop gain (−5) and a recursive (pole 0.99) DC-rejection
//! stage, and actuates the *frequency* of the gap-voltage DDS. Frequency
//! actuation turns the loop into velocity-type feedback on the RF phase, so
//! a proportional path damps the dipole synchrotron oscillation; the DC
//! blocker prevents the constant (dead-time) phase offset — which the paper
//! notes is irrelevant — from winding up the frequency integrator.
//!
//! Linearised analysis (checked numerically in the tests): with gap-phase
//! dynamics `y'' = −ω_s²(y + φ_rf)` and actuation `φ_rf' = 360·G·y` deg/s,
//! the oscillatory pair gets `Re(s) = 180·G`, so `G < 0` damps — matching
//! the paper's negative gain — with time constant `τ = 1/(180·|G|)` seconds.

use cil_dsp::fir::FirFilter;
use cil_dsp::iir::DcBlocker;

/// Controller parameters. Defaults reproduce the evaluation's settings
/// ("f_pass = 1.4 kHz, gain = −5 and recursion factor = 0.99, which are the
/// optimal parameters according to [8]").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerParams {
    /// Pass frequency of the FIR lowpass, Hz.
    pub f_pass: f64,
    /// Dimensionless loop gain (paper convention; negative damps).
    pub gain: f64,
    /// Recursion factor: pole radius of the DC-rejection stage.
    pub recursion: f64,
    /// Revolutions averaged per controller sample (decimation).
    pub decimation: u32,
    /// FIR tap count.
    pub fir_taps: usize,
    /// Actuator saturation: |Δf| limit on the gap DDS, Hz.
    pub max_freq_offset_hz: f64,
    /// Gain normalisation: Hz of frequency trim per degree of filtered
    /// phase error and per unit of `gain`.
    pub hz_per_deg_per_gain: f64,
}

impl ControllerParams {
    /// The evaluation's parameter set at an 800 kHz revolution frequency.
    pub fn evaluation_default() -> Self {
        Self {
            f_pass: 1.4e3,
            gain: -5.0,
            recursion: 0.99,
            decimation: 4,
            fir_taps: 63,
            max_freq_offset_hz: 2.0e3,
            hz_per_deg_per_gain: 0.25,
        }
    }

    /// Effective proportional gain G in Hz per degree.
    pub fn effective_gain_hz_per_deg(&self) -> f64 {
        self.gain * self.hz_per_deg_per_gain
    }

    /// Predicted closed-loop damping time constant, seconds
    /// (`1/(180·|G|)`, from the linearised analysis; valid while the
    /// damping rate is well below ω_s).
    pub fn predicted_damping_time(&self) -> f64 {
        1.0 / (180.0 * self.effective_gain_hz_per_deg().abs())
    }
}

/// How the supervisor compensates a degraded RF plant (cavity quench, trip
/// or tune drift — the C-ADS cavity-failure rematch scenario, PAPERS.md).
/// Policies are pure configuration; the run-time ladder state (commanded
/// boost, gain multiplier, sag latch) lives in
/// [`crate::fault::LoopSupervisor`] and is checkpointed with it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CompensationPolicy {
    /// No compensation: ride the degraded plant until the beam is lost.
    #[default]
    None,
    /// Retune the controller gain to the surviving voltage: the loop gain
    /// is multiplied by `1/sqrt(scale)` — the synchrotron frequency, and
    /// with it the plant gain of the phase loop, scales with `sqrt(V)` —
    /// capped at `max_gain_scale`.
    GainRescale {
        /// Cap on the gain multiplier (the controller has finite headroom
        /// before its own phase margin goes).
        max_gain_scale: f64,
    },
    /// Command the signal generator to raise the reference amplitude toward
    /// the pre-fault bucket area. The boost is slew-rate-limited per
    /// decimated actuation interval and observes the *effective* (already
    /// boosted) voltage, so it stops commanding once the sag is healed —
    /// closed-loop anti-windup rather than open-loop inversion.
    VoltageRematch {
        /// Maximum boost change per controller actuation interval.
        slew_per_update: f64,
        /// Hard amplifier ceiling on the commanded boost.
        max_boost: f64,
    },
}

impl CompensationPolicy {
    /// Gain-rescale policy with the default 4x gain headroom.
    pub fn gain_rescale() -> Self {
        Self::GainRescale {
            max_gain_scale: 4.0,
        }
    }

    /// Voltage-rematch policy with the default slew (5 % of nominal per
    /// actuation tick) and a 3x amplifier ceiling.
    pub fn voltage_rematch() -> Self {
        Self::VoltageRematch {
            slew_per_update: 0.05,
            max_boost: 3.0,
        }
    }

    /// Short label for tables and CSV columns.
    pub fn label(&self) -> &'static str {
        match self {
            Self::None => "none",
            Self::GainRescale { .. } => "gain_rescale",
            Self::VoltageRematch { .. } => "voltage_rematch",
        }
    }
}

/// One decimated controller step under a supervisor-imposed limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LimitedControl {
    /// Actuation after clamping and the enable gate, Hz.
    pub actuation_hz: f64,
    /// Unclamped controller output, Hz.
    pub raw_hz: f64,
    /// The limit in force (tightest of supervisor and saturation), Hz.
    pub limit_hz: f64,
    /// True when the limit engaged (and anti-windup rolled the DC stage
    /// back).
    pub clamped: bool,
}

/// The streaming beam-phase controller.
#[derive(Debug, Clone)]
pub struct BeamPhaseController {
    /// Parameters in force.
    pub params: ControllerParams,
    dc: DcBlocker,
    fir: FirFilter,
    /// Decimation accumulator.
    acc: f64,
    acc_n: u32,
    /// Last actuation output, Hz.
    last_output: f64,
    /// Supervisor-commanded gain multiplier ([`CompensationPolicy::
    /// GainRescale`]); 1.0 = nominal.
    gain_scale: f64,
    /// True when the loop is closed (false = monitoring only).
    pub enabled: bool,
}

impl BeamPhaseController {
    /// Build a controller for a given revolution frequency (sets the FIR
    /// cutoff relative to the decimated sample rate).
    pub fn new(params: ControllerParams, f_rev: f64) -> Self {
        assert!(params.decimation >= 1);
        let f_ctrl = f_rev / f64::from(params.decimation);
        let fc = (params.f_pass / f_ctrl).min(0.45);
        Self {
            params,
            dc: DcBlocker::new(params.recursion),
            fir: FirFilter::lowpass(fc, params.fir_taps | 1),
            acc: 0.0,
            acc_n: 0,
            last_output: 0.0,
            gain_scale: 1.0,
            enabled: true,
        }
    }

    /// Supervisor-commanded gain multiplier in force (1.0 = nominal).
    pub fn gain_scale(&self) -> f64 {
        self.gain_scale
    }

    /// Set the gain multiplier ([`CompensationPolicy::GainRescale`] path).
    /// Multiplies the effective loop gain on every subsequent decimated
    /// step; 1.0 restores the nominal gain exactly.
    pub fn set_gain_scale(&mut self, scale: f64) {
        assert!(scale.is_finite() && scale > 0.0);
        self.gain_scale = scale;
    }

    /// Feed one per-revolution phase measurement (degrees at the RF
    /// harmonic). Returns `Some(freq_offset_hz)` when a decimated controller
    /// step completes; the returned value is also retained as
    /// [`Self::output`].
    pub fn push_measurement(&mut self, phase_deg: f64) -> Option<f64> {
        self.acc += phase_deg;
        self.acc_n += 1;
        if self.acc_n < self.params.decimation {
            return None;
        }
        let avg = self.acc / f64::from(self.acc_n);
        self.acc = 0.0;
        self.acc_n = 0;

        let ac = self.dc.push(avg);
        let filtered = self.fir.push(ac);
        let raw = self.params.effective_gain_hz_per_deg() * self.gain_scale * filtered;
        let clamped = raw.clamp(
            -self.params.max_freq_offset_hz,
            self.params.max_freq_offset_hz,
        );
        self.last_output = if self.enabled { clamped } else { 0.0 };
        Some(self.last_output)
    }

    /// Like [`Self::push_measurement`], with a supervisor-imposed actuation
    /// limit (tightest of `limit_hz` and the configured saturation) and
    /// anti-windup: when the limit engages, the recursive DC-rejection
    /// stage is rolled back to its pre-sample state (conditional
    /// integration), so a long clamped stretch cannot wind the infinite
    /// -memory pole up. The FIR stage has finite memory and needs no
    /// rollback. Returns one [`LimitedControl`] per decimated step.
    pub fn push_measurement_limited(
        &mut self,
        phase_deg: f64,
        limit_hz: f64,
    ) -> Option<LimitedControl> {
        self.acc += phase_deg;
        self.acc_n += 1;
        if self.acc_n < self.params.decimation {
            return None;
        }
        let avg = self.acc / f64::from(self.acc_n);
        self.acc = 0.0;
        self.acc_n = 0;

        let dc_snapshot = self.dc;
        let ac = self.dc.push(avg);
        let filtered = self.fir.push(ac);
        let raw = self.params.effective_gain_hz_per_deg() * self.gain_scale * filtered;
        let lim = limit_hz.min(self.params.max_freq_offset_hz).max(0.0);
        let clamped_flag = raw.abs() > lim;
        if clamped_flag {
            self.dc = dc_snapshot;
        }
        let clamped = raw.clamp(-lim, lim);
        self.last_output = if self.enabled { clamped } else { 0.0 };
        Some(LimitedControl {
            actuation_hz: self.last_output,
            raw_hz: raw,
            limit_hz: lim,
            clamped: clamped_flag,
        })
    }

    /// Most recent actuation value, Hz.
    pub fn output(&self) -> f64 {
        self.last_output
    }

    /// Measurements still to be pushed before the next decimated controller
    /// step fires (always ≥ 1: the accumulator empties whenever it reaches
    /// the decimation). The harness uses this to size engine step blocks so
    /// an actuation can only ever fall on a block's last row.
    pub fn rows_until_actuation(&self) -> u32 {
        self.params.decimation - self.acc_n
    }

    /// Reset all filter state (e.g. between experiments).
    pub fn reset(&mut self) {
        self.dc.reset();
        self.fir.reset();
        self.acc = 0.0;
        self.acc_n = 0;
        self.last_output = 0.0;
    }

    /// Snapshot all filter and accumulator state (DC-blocker registers, FIR
    /// delay line, decimation accumulator, last output, enable gate). The
    /// parameters and FIR taps are configuration and are rebuilt.
    pub fn state(&self) -> ControllerState {
        let (dc_x1, dc_y1) = self.dc.state();
        ControllerState {
            dc_x1,
            dc_y1,
            fir: self.fir.state(),
            acc: self.acc,
            acc_n: self.acc_n,
            last_output: self.last_output,
            gain_scale: self.gain_scale,
            enabled: self.enabled,
        }
    }

    /// Restore a state captured by [`Self::state`]. Fails (returns `false`)
    /// when the FIR delay-line length does not match this controller's tap
    /// count.
    pub fn restore(&mut self, state: &ControllerState) -> bool {
        if !self.fir.restore(&state.fir) {
            return false;
        }
        self.dc.restore(state.dc_x1, state.dc_y1);
        self.acc = state.acc;
        self.acc_n = state.acc_n;
        self.last_output = state.last_output;
        self.gain_scale = state.gain_scale;
        self.enabled = state.enabled;
        true
    }
}

/// Checkpointable state of a [`BeamPhaseController`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerState {
    /// DC-blocker previous input.
    pub dc_x1: f64,
    /// DC-blocker previous output.
    pub dc_y1: f64,
    /// FIR delay line + cursor.
    pub fir: cil_dsp::fir::FirState,
    /// Decimation accumulator.
    pub acc: f64,
    /// Samples accumulated toward the next decimated step.
    pub acc_n: u32,
    /// Last actuation output, Hz.
    pub last_output: f64,
    /// Supervisor-commanded gain multiplier.
    pub gain_scale: f64,
    /// Loop-closed gate.
    pub enabled: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil_physics::machine::{MachineParams, OperatingPoint};
    use cil_physics::synchrotron::SynchrotronCalc;
    use cil_physics::tracking::TwoParticleMap;
    use cil_physics::IonSpecies;

    fn op() -> OperatingPoint {
        let m = MachineParams::sis18();
        let ion = IonSpecies::n14_7plus();
        let v = SynchrotronCalc::new(m, ion)
            .voltage_for_fs(800e3, 1.28e3)
            .unwrap();
        OperatingPoint::from_revolution_frequency(m, ion, 800e3, v)
    }

    #[test]
    fn dc_offset_is_rejected() {
        // A constant phase offset (dead times, cable lengths — the paper
        // says it is irrelevant) must produce no steady-state actuation.
        let mut c = BeamPhaseController::new(ControllerParams::evaluation_default(), 800e3);
        let mut last = f64::MAX;
        for _ in 0..400_000 {
            if let Some(u) = c.push_measurement(25.0) {
                last = u;
            }
        }
        assert!(last.abs() < 1e-3, "steady-state output {last} Hz");
    }

    #[test]
    fn saturation_clamps_output() {
        let mut p = ControllerParams::evaluation_default();
        p.max_freq_offset_hz = 10.0;
        let mut c = BeamPhaseController::new(p, 800e3);
        let mut max_out = 0.0f64;
        // Huge oscillating input at fs.
        for i in 0..100_000 {
            let phase = 1e4 * (std::f64::consts::TAU * 1.28e3 / 800e3 * i as f64).sin();
            if let Some(u) = c.push_measurement(phase) {
                max_out = max_out.max(u.abs());
            }
        }
        assert!(max_out <= 10.0 + 1e-9);
        assert!(max_out > 9.0, "saturation actually reached");
    }

    #[test]
    fn disabled_controller_outputs_zero() {
        let mut c = BeamPhaseController::new(ControllerParams::evaluation_default(), 800e3);
        c.enabled = false;
        for i in 0..10_000 {
            let phase = 10.0 * (0.01 * i as f64).sin();
            if let Some(u) = c.push_measurement(phase) {
                assert_eq!(u, 0.0);
            }
        }
    }

    /// The decisive test: close the loop around the two-particle map after
    /// an 8° phase jump and verify (a) damping, (b) the paper's sign
    /// convention (negative gain damps, positive gain does not).
    fn closed_loop_amplitude(gain: f64, turns: usize) -> (f64, f64) {
        let op = op();
        let mut params = ControllerParams::evaluation_default();
        params.gain = gain;
        let mut ctrl = BeamPhaseController::new(params, op.f_rev());
        let mut map = TwoParticleMap::at_operating_point(&op);
        let t_rev = 1.0 / op.f_rev();

        // 8 degree jump at t=0: gap phase offset starts at 8 deg.
        let jump_rad = 8.0_f64.to_radians();
        let mut ctrl_phase_rad = 0.0; // integral of the frequency trim
        let period_turns = (op.f_rev() / 1.28e3) as usize;
        let mut trace = Vec::with_capacity(turns);
        for _ in 0..turns {
            let phi = jump_rad + ctrl_phase_rad;
            let dt = map.step_stationary(op.v_gap_volts, phi);
            let phase_deg = dt * op.f_rf() * 360.0;
            if let Some(u) = ctrl.push_measurement(phase_deg) {
                // integrate over the decimation window
                ctrl_phase_rad += std::f64::consts::TAU * u * t_rev * f64::from(params.decimation);
            }
            trace.push(phase_deg);
        }
        // Oscillation amplitude about the local mean — the jump moves the
        // equilibrium to −8°, so raw |phase| would conflate offset and
        // oscillation (the paper makes the same distinction about constant
        // offsets in Fig. 5).
        let amp = |w: &[f64]| {
            let max = w.iter().cloned().fold(f64::MIN, f64::max);
            let min = w.iter().cloned().fold(f64::MAX, f64::min);
            (max - min) / 2.0
        };
        (
            amp(&trace[..period_turns]),
            amp(&trace[turns - period_turns..]),
        )
    }

    #[test]
    fn negative_gain_damps_the_oscillation() {
        // 25 ms ≈ 5 predicted damping times at gain −5.
        let turns = (0.025 * 800e3) as usize;
        let (first, tail) = closed_loop_amplitude(-5.0, turns);
        // First swing: amplitude ≈ 8° about the new equilibrium, i.e. the
        // paper's "peak-to-peak phase amplitude … twice the amplitude of the
        // phase jump".
        assert!(first > 7.0 && first < 10.0, "first amplitude {first}");
        assert!(tail < first * 0.25, "damped: first {first}, tail {tail}");
    }

    #[test]
    fn positive_gain_does_not_damp() {
        let turns = (0.025 * 800e3) as usize;
        let (first, tail) = closed_loop_amplitude(5.0, turns);
        assert!(
            tail > first * 0.5,
            "undamped/growing: first {first}, tail {tail}"
        );
    }

    #[test]
    fn open_loop_oscillation_persists() {
        let turns = (0.025 * 800e3) as usize;
        let (first, tail) = closed_loop_amplitude(0.0, turns);
        assert!((tail - first).abs() / first < 0.2, "no loop, no damping");
    }

    #[test]
    fn predicted_damping_time_matches_measurement() {
        // Measure the e-folding time from the envelope and compare with the
        // linearised prediction (within a factor ~2 — the DC blocker and FIR
        // phase shift perturb the ideal value).
        let op = op();
        let params = ControllerParams::evaluation_default();
        let mut ctrl = BeamPhaseController::new(params, op.f_rev());
        let mut map = TwoParticleMap::at_operating_point(&op);
        let t_rev = 1.0 / op.f_rev();
        let jump_rad = 8.0_f64.to_radians();
        let mut ctrl_phase = 0.0;
        let mut trace = Vec::new();
        for _ in 0..(0.03 * 800e3) as usize {
            let dt = map.step_stationary(op.v_gap_volts, jump_rad + ctrl_phase);
            let deg = dt * op.f_rf() * 360.0;
            if let Some(u) = ctrl.push_measurement(deg) {
                ctrl_phase += std::f64::consts::TAU * u * t_rev * f64::from(params.decimation);
            }
            trace.push(deg);
        }
        let tau_turns = cil_physics::modes::damping_time_turns(&trace).expect("decaying envelope");
        let tau_s = tau_turns / 800e3;
        let predicted = params.predicted_damping_time();
        assert!(
            tau_s > predicted * 0.4 && tau_s < predicted * 2.5,
            "tau {tau_s} vs predicted {predicted}"
        );
    }

    #[test]
    fn stronger_gain_damps_faster() {
        let turns = (0.02 * 800e3) as usize;
        let (_, tail_weak) = closed_loop_amplitude(-2.0, turns);
        let (_, tail_strong) = closed_loop_amplitude(-8.0, turns);
        assert!(
            tail_strong < tail_weak,
            "gain -8 tail {tail_strong} vs gain -2 tail {tail_weak}"
        );
    }
}
