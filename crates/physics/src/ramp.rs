//! Acceleration-ramp programs — the paper's "ramp-up case" (Section VI):
//! after injection the bunches have much smaller energies and longer
//! revolution times, and the RF frequency and amplitude vary during the ramp.
//!
//! A [`RampProgram`] describes set-value curves f_R(t) and V̂(t) plus the
//! synchronous phase; [`RampTracker`] advances the two-particle map along the
//! ramp, with the reference particle accelerated each turn by
//! `V̂·sin(φ_s)` exactly as the LLRF set values demand.

use crate::constants::TWO_PI;
use crate::machine::MachineParams;
use crate::relativity;
use crate::tracking::TwoParticleMap;

/// Piecewise-linear set-value curve (time → value), the shape LLRF control
/// systems actually play out.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// (time s, value) breakpoints, strictly increasing in time.
    pub points: Vec<(f64, f64)>,
}

impl Curve {
    /// A constant curve.
    pub fn constant(value: f64) -> Self {
        Self {
            points: vec![(0.0, value)],
        }
    }

    /// A linear ramp from `(t0, v0)` to `(t1, v1)`, constant outside.
    pub fn linear(t0: f64, v0: f64, t1: f64, v1: f64) -> Self {
        assert!(t1 > t0, "ramp must have positive duration");
        Self {
            points: vec![(t0, v0), (t1, v1)],
        }
    }

    /// Build from explicit breakpoints.
    ///
    /// Panics if `points` is empty or times are not strictly increasing.
    pub fn from_points(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "curve needs at least one point");
        for w in points.windows(2) {
            assert!(w[1].0 > w[0].0, "times must be strictly increasing");
        }
        Self { points }
    }

    /// Sample the curve at time `t` (clamped to the first/last breakpoint).
    pub fn at(&self, t: f64) -> f64 {
        let pts = &self.points;
        if t <= pts[0].0 {
            return pts[0].1;
        }
        if t >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        // Binary search for the surrounding segment.
        let idx = pts.partition_point(|&(tp, _)| tp <= t);
        let (t0, v0) = pts[idx - 1];
        let (t1, v1) = pts[idx];
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }
}

/// A complete ramp description.
#[derive(Debug, Clone, PartialEq)]
pub struct RampProgram {
    /// Revolution-frequency set curve f_R(t), Hz.
    pub f_rev: Curve,
    /// Gap-voltage amplitude set curve V̂(t), volts.
    pub v_hat: Curve,
}

impl RampProgram {
    /// A stationary (flat-top) program.
    pub fn stationary(f_rev: f64, v_hat: f64) -> Self {
        Self {
            f_rev: Curve::constant(f_rev),
            v_hat: Curve::constant(v_hat),
        }
    }

    /// SIS18-like injection-to-flattop ramp: 100 kHz → 800 kHz revolution
    /// frequency over `ramp_seconds`, voltage raised from `v0` to `v1`.
    ///
    /// The 100 kHz lower end is the "smaller revolution frequencies down to
    /// 100 kHz" the paper's ring buffers are sized for (Section III-B).
    pub fn sis18_injection(ramp_seconds: f64, v0: f64, v1: f64) -> Self {
        Self {
            f_rev: Curve::linear(0.0, 100e3, ramp_seconds, 800e3),
            v_hat: Curve::linear(0.0, v0, ramp_seconds, v1),
        }
    }
}

/// Tracks the two-particle map along a ramp program.
///
/// Each revolution the tracker:
/// 1. reads the set values f_R(t), V̂(t);
/// 2. computes the synchronous voltage `V_R` that realises the programmed
///    energy gain (the B-field/frequency program and the cavity must agree —
///    in a real LLRF this is the synchronous phase φ_s);
/// 3. applies the map with the asynchronous particle sampling the sine at
///    its arrival-time offset around φ_s.
#[derive(Debug, Clone)]
pub struct RampTracker {
    /// The underlying two-particle map.
    pub map: TwoParticleMap,
    /// Ramp set curves.
    pub program: RampProgram,
    /// Elapsed machine time, seconds.
    pub time: f64,
    /// Completed revolutions.
    pub turn: u64,
}

/// One revolution's worth of ramp-tracking telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampSample {
    /// Machine time at the end of the revolution, s.
    pub time: f64,
    /// Reference Lorentz factor after the kick.
    pub gamma_r: f64,
    /// Synchronous phase used this turn, radians.
    pub phi_s: f64,
    /// Arrival-time deviation of the macro particle, s.
    pub dt: f64,
    /// Energy deviation of the macro particle.
    pub dgamma: f64,
}

impl RampTracker {
    /// Start a ramp at t = 0 with the reference particle at the programmed
    /// injection frequency and the macro particle on-reference.
    pub fn new(machine: MachineParams, ion: crate::ion::IonSpecies, program: RampProgram) -> Self {
        let f0 = program.f_rev.at(0.0);
        let op = crate::machine::OperatingPoint::from_revolution_frequency(
            machine,
            ion,
            f0,
            program.v_hat.at(0.0),
        );
        Self {
            map: TwoParticleMap::at_operating_point(&op),
            program,
            time: 0.0,
            turn: 0,
        }
    }

    /// The synchronous phase demanded by the programmed frequency slope at
    /// time `t`: the per-turn γ gain needed to follow f_R(t), divided by the
    /// available voltage. Returns `None` if the programmed ramp is steeper
    /// than the cavity voltage allows (over-demanded bucket).
    pub fn required_phi_s(&self, t: f64) -> Option<f64> {
        let dt_probe = 1e-4; // s, well below any realistic ramp feature
        let f_now = self.program.f_rev.at(t);
        let f_next = self.program.f_rev.at(t + dt_probe);
        let l = self.map.machine.orbit_length_m;
        let g_now = relativity::gamma_from_revolution(f_now, l);
        let g_next = relativity::gamma_from_revolution(f_next, l);
        let dgamma_dt = (g_next - g_now) / dt_probe;
        let t_rev = 1.0 / f_now;
        let dgamma_per_turn = dgamma_dt * t_rev;
        let v_hat = self.program.v_hat.at(t);
        let need = dgamma_per_turn / (self.map.ion.gamma_per_volt() * v_hat);
        if need.abs() > 1.0 {
            return None;
        }
        Some(need.asin())
    }

    /// Advance one revolution. Returns `None` if the ramp over-demands the
    /// bucket (caller should treat this as beam loss).
    pub fn step(&mut self) -> Option<RampSample> {
        self.step_with_phase_offset(0.0)
    }

    /// Advance one revolution with an additional gap-phase offset (radians
    /// at the RF harmonic) — the injection point for phase jumps and the
    /// beam-phase controller when the ramp runs inside the HIL loop. The
    /// offset displaces only the asynchronous particle's sampling point;
    /// the reference particle follows the undisturbed set values.
    pub fn step_with_phase_offset(&mut self, offset_rad: f64) -> Option<RampSample> {
        let t = self.time;
        let phi_s = self.required_phi_s(t)?;
        let v_hat = self.program.v_hat.at(t);
        let f_rev = self
            .map
            .machine
            .revolution_frequency(self.map.reference.gamma);
        let f_rf = self.map.machine.rf_frequency(f_rev);

        // Reference particle crosses at φ_s; the asynchronous particle at
        // φ_s + ω_RF·Δt (+ the injected offset).
        let v_ref = v_hat * phi_s.sin();
        let v_async = v_hat * (phi_s + TWO_PI * f_rf * self.map.particle.dt + offset_rad).sin();
        self.map.step_with_voltages(v_ref, v_async);

        self.time += 1.0 / f_rev;
        self.turn += 1;
        Some(RampSample {
            time: self.time,
            gamma_r: self.map.reference.gamma,
            phi_s,
            dt: self.map.particle.dt,
            dgamma: self.map.particle.dgamma,
        })
    }

    /// Run until `t_end` seconds; returns every `stride`-th sample.
    pub fn run_until(&mut self, t_end: f64, stride: usize) -> Vec<RampSample> {
        let mut out = Vec::new();
        let mut n = 0usize;
        while self.time < t_end {
            match self.step() {
                Some(s) => {
                    if n.is_multiple_of(stride.max(1)) {
                        out.push(s);
                    }
                    n += 1;
                }
                None => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ion::IonSpecies;

    #[test]
    fn curve_interpolates_linearly() {
        let c = Curve::linear(0.0, 0.0, 1.0, 10.0);
        assert_eq!(c.at(-1.0), 0.0);
        assert_eq!(c.at(2.0), 10.0);
        assert!((c.at(0.25) - 2.5).abs() < 1e-12);
        assert!((c.at(0.75) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn curve_multi_segment() {
        let c = Curve::from_points(vec![(0.0, 1.0), (1.0, 2.0), (3.0, 0.0)]);
        assert!((c.at(0.5) - 1.5).abs() < 1e-12);
        assert!((c.at(2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn curve_rejects_unordered_points() {
        let _ = Curve::from_points(vec![(1.0, 0.0), (0.5, 1.0)]);
    }

    #[test]
    fn ramp_accelerates_reference_to_programmed_frequency() {
        // A short, gentle ramp: 780 kHz -> 800 kHz in 50 ms.
        let program = RampProgram {
            f_rev: Curve::linear(0.0, 780e3, 0.05, 800e3),
            v_hat: Curve::constant(15e3),
        };
        let mut tr = RampTracker::new(MachineParams::sis18(), IonSpecies::n14_7plus(), program);
        let samples = tr.run_until(0.06, 1000);
        assert!(!samples.is_empty());
        let f_final = tr.map.machine.revolution_frequency(tr.map.reference.gamma);
        assert!(
            (f_final - 800e3).abs() < 2e3,
            "final f_rev = {f_final}, expected ~800 kHz"
        );
        // Synchronous phase must have been positive during the ramp
        // (acceleration below transition) and ~0 at flat top.
        let mid = &samples[samples.len() / 3];
        assert!(mid.phi_s > 0.0);
    }

    #[test]
    fn overdemanded_ramp_detected() {
        // Absurd ramp with tiny voltage: required sin(phi_s) > 1.
        let program = RampProgram {
            f_rev: Curve::linear(0.0, 400e3, 0.001, 1.2e6),
            v_hat: Curve::constant(1.0),
        };
        let tr = RampTracker::new(MachineParams::sis18(), IonSpecies::n14_7plus(), program);
        assert!(tr.required_phi_s(0.0005).is_none());
    }

    #[test]
    fn macro_particle_stays_bound_during_gentle_ramp() {
        let program = RampProgram {
            f_rev: Curve::linear(0.0, 790e3, 0.1, 800e3),
            v_hat: Curve::constant(20e3),
        };
        let mut tr = RampTracker::new(MachineParams::sis18(), IonSpecies::n14_7plus(), program);
        // Offset the macro particle slightly.
        tr.map.particle.dt = 5e-9;
        let samples = tr.run_until(0.1, 100);
        let max_dt = samples.iter().map(|s| s.dt.abs()).fold(0.0, f64::max);
        // Bound motion: stays within a small multiple of the initial offset
        // (adiabatic damping may shrink it; phase-jitter may grow it a bit).
        assert!(max_dt < 50e-9, "max |dt| = {max_dt}");
    }

    #[test]
    fn stationary_program_is_flat() {
        let p = RampProgram::stationary(800e3, 4.9e3);
        assert_eq!(p.f_rev.at(123.0), 800e3);
        assert_eq!(p.v_hat.at(0.5), 4.9e3);
    }

    #[test]
    fn sis18_injection_program_spans_paper_range() {
        let p = RampProgram::sis18_injection(1.0, 2e3, 10e3);
        assert_eq!(p.f_rev.at(0.0), 100e3); // ring-buffer sizing case
        assert_eq!(p.f_rev.at(1.0), 800e3);
    }
}
