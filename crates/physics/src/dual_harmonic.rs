//! Dual-harmonic RF systems.
//!
//! SIS18 runs a dual-harmonic cavity system (the paper's companion work,
//! ref. [9]: "A Digital Beam-Phase Control System for a Heavy-Ion
//! Synchrotron With a Dual-Harmonic Cavity System"): a second cavity at
//! twice the RF frequency in counter-phase flattens the bucket, lengthening
//! the bunch and lowering the peak line density. This module models the
//! combined gap voltage and its beam-dynamics consequences, reusing the
//! same two-particle map (the voltage function is the only thing that
//! changes — exactly how the HIL kernel would be extended).

use crate::constants::TWO_PI;
use crate::machine::OperatingPoint;
use crate::tracking::TwoParticleMap;

/// A dual-harmonic gap-voltage configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualHarmonicRf {
    /// Fundamental peak voltage V₁, volts.
    pub v1: f64,
    /// Second-harmonic amplitude ratio r = V₂/V₁ (0 = single harmonic;
    /// 0.5 gives the maximally flattened stationary bucket).
    pub ratio: f64,
    /// Harmonic multiple of the second cavity (2 at SIS18).
    pub multiple: u32,
    /// Phase of the second harmonic relative to counter-phase operation,
    /// radians (0 = ideal bunch-lengthening mode).
    pub phase_error: f64,
}

impl DualHarmonicRf {
    /// Single-harmonic configuration (reduces to the paper's model).
    pub fn single(v1: f64) -> Self {
        Self {
            v1,
            ratio: 0.0,
            multiple: 2,
            phase_error: 0.0,
        }
    }

    /// The SIS18 bunch-lengthening mode: V₂ = V₁/2 in counter-phase.
    pub fn bunch_lengthening(v1: f64) -> Self {
        Self {
            v1,
            ratio: 0.5,
            multiple: 2,
            phase_error: 0.0,
        }
    }

    /// Gap voltage at RF phase φ (radians at the fundamental):
    /// `V(φ) = V₁·[sin φ − r·sin(mφ + ε)]`.
    #[inline]
    pub fn voltage_at_phase(&self, phi: f64) -> f64 {
        self.v1
            * (phi.sin() - self.ratio * (f64::from(self.multiple) * phi + self.phase_error).sin())
    }

    /// Restoring-force slope at the stationary point (∂V/∂φ at φ = 0):
    /// `V₁·(1 − r·m·cos ε)`. Zero for the ideally flattened bucket with
    /// r = 1/m — small oscillations become anharmonic.
    pub fn slope_at_center(&self) -> f64 {
        self.v1 * (1.0 - self.ratio * f64::from(self.multiple) * self.phase_error.cos())
    }

    /// Advance a two-particle map one revolution in the stationary case
    /// with this RF (gap phase offset `offset_rad` for jumps/control).
    pub fn step(&self, map: &mut TwoParticleMap, offset_rad: f64) -> f64 {
        let f_rev = map.machine.revolution_frequency(map.reference.gamma);
        let f_rf = map.machine.rf_frequency(f_rev);
        let phi = TWO_PI * f_rf * map.particle.dt + offset_rad;
        let v = self.voltage_at_phase(phi);
        map.step_with_voltages(0.0, v)
    }

    /// Numerically measured synchrotron frequency (Hz) at a given launch
    /// amplitude (degrees at the fundamental), via zero-crossing counting.
    /// Returns `None` if the motion does not complete two oscillation
    /// periods within `max_turns` (e.g. the flat-bucket centre).
    pub fn fs_at_amplitude(
        &self,
        op: &OperatingPoint,
        amplitude_deg: f64,
        max_turns: usize,
    ) -> Option<f64> {
        let mut map = TwoParticleMap::at_operating_point(op);
        map.particle.dt = amplitude_deg / 360.0 / op.f_rf();
        let mut crossings: Vec<usize> = Vec::new();
        let mut last = map.particle.dt;
        for n in 0..max_turns {
            let dt = self.step(&mut map, 0.0);
            if last < 0.0 && dt >= 0.0 {
                crossings.push(n);
                if crossings.len() >= 3 {
                    break;
                }
            }
            last = dt;
        }
        if crossings.len() < 3 {
            return None;
        }
        let periods = (crossings.len() - 1) as f64;
        let turns = (crossings[crossings.len() - 1] - crossings[0]) as f64;
        Some(op.f_rev() * periods / turns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineParams;
    use crate::synchrotron::SynchrotronCalc;
    use crate::IonSpecies;

    fn op() -> OperatingPoint {
        let m = MachineParams::sis18();
        let ion = IonSpecies::n14_7plus();
        let v = SynchrotronCalc::new(m, ion)
            .voltage_for_fs(800e3, 1.28e3)
            .unwrap();
        OperatingPoint::from_revolution_frequency(m, ion, 800e3, v)
    }

    #[test]
    fn single_harmonic_reduces_to_plain_sine() {
        let rf = DualHarmonicRf::single(1000.0);
        for phi in [-1.0f64, 0.0, 0.5, 2.0] {
            assert!((rf.voltage_at_phase(phi) - 1000.0 * phi.sin()).abs() < 1e-12);
        }
    }

    #[test]
    fn lengthening_mode_flattens_the_center() {
        let v1 = 1000.0;
        let single = DualHarmonicRf::single(v1);
        let dual = DualHarmonicRf::bunch_lengthening(v1);
        assert!((single.slope_at_center() - v1).abs() < 1e-9);
        assert!(dual.slope_at_center().abs() < 1e-9, "ideally flat");
        // Near the centre the dual voltage is ~cubic: much smaller.
        let phi = 0.1;
        assert!(dual.voltage_at_phase(phi).abs() < single.voltage_at_phase(phi).abs() * 0.1);
    }

    #[test]
    fn single_harmonic_step_matches_map() {
        let op = op();
        let rf = DualHarmonicRf::single(op.v_gap_volts);
        let mut a = TwoParticleMap::at_operating_point(&op);
        let mut b = TwoParticleMap::at_operating_point(&op);
        a.particle.dt = 5e-9;
        b.particle.dt = 5e-9;
        for _ in 0..1000 {
            rf.step(&mut a, 0.0);
            b.step_stationary(op.v_gap_volts, 0.0);
            assert!((a.particle.dt - b.particle.dt).abs() < 1e-20);
        }
    }

    #[test]
    fn dual_harmonic_lowers_small_amplitude_fs() {
        let op = op();
        let single = DualHarmonicRf::single(op.v_gap_volts);
        let dual = DualHarmonicRf::bunch_lengthening(op.v_gap_volts);
        let fs_single = single.fs_at_amplitude(&op, 4.0, 100_000).unwrap();
        let fs_dual = dual.fs_at_amplitude(&op, 4.0, 100_000).unwrap();
        assert!((fs_single - 1.28e3).abs() < 30.0, "sanity: {fs_single}");
        assert!(
            fs_dual < fs_single * 0.5,
            "flat bucket slows small oscillations: {fs_dual} vs {fs_single}"
        );
    }

    #[test]
    fn dual_harmonic_fs_rises_with_amplitude() {
        // Anharmonic flat bucket: larger amplitudes reach the steep wall and
        // oscillate faster (opposite of the single-harmonic pendulum).
        let op = op();
        let dual = DualHarmonicRf::bunch_lengthening(op.v_gap_volts);
        let fs_small = dual.fs_at_amplitude(&op, 3.0, 400_000).unwrap();
        let fs_large = dual.fs_at_amplitude(&op, 25.0, 400_000).unwrap();
        assert!(fs_large > fs_small * 1.5, "{fs_small} -> {fs_large}");
    }

    #[test]
    fn single_harmonic_fs_falls_with_amplitude() {
        // The classic pendulum softening, for contrast.
        let op = op();
        let rf = DualHarmonicRf::single(op.v_gap_volts);
        let fs_small = rf.fs_at_amplitude(&op, 3.0, 200_000).unwrap();
        let fs_large = rf.fs_at_amplitude(&op, 60.0, 200_000).unwrap();
        assert!(fs_large < fs_small, "{fs_small} -> {fs_large}");
    }

    #[test]
    fn motion_stays_bounded_in_dual_bucket() {
        let op = op();
        let dual = DualHarmonicRf::bunch_lengthening(op.v_gap_volts);
        let mut map = TwoParticleMap::at_operating_point(&op);
        let dt0 = 20.0 / 360.0 / op.f_rf();
        map.particle.dt = dt0;
        let mut max_dt: f64 = 0.0;
        for _ in 0..200_000 {
            max_dt = max_dt.max(dual.step(&mut map, 0.0).abs());
        }
        assert!(max_dt < dt0 * 1.2, "bounded: {max_dt} vs {dt0}");
    }

    #[test]
    fn phase_error_restores_a_linear_slope() {
        // A 90° second-harmonic phase error stops cancelling the slope.
        let rf = DualHarmonicRf {
            phase_error: std::f64::consts::FRAC_PI_2,
            ..DualHarmonicRf::bunch_lengthening(1000.0)
        };
        assert!(rf.slope_at_center() > 900.0);
    }
}
