//! Small-amplitude synchrotron-oscillation theory.
//!
//! The evaluation (Section V) sets the gap-voltage amplitude so that the
//! simulated synchrotron frequency matches the 1.28 kHz observed in the MDE.
//! This module provides that inversion, the forward formula, and bucket
//! parameters used by the multi-particle reference tracker to generate
//! matched bunches.
//!
//! For a stationary bucket (synchronous phase 0 below transition) the
//! per-second angular synchrotron frequency is
//!
//! ```text
//! ω_s = ω_R · sqrt( h·|η|·Q·V̂·cos φ_s / (2π·β²·γ·mc²) )
//! ```
//!
//! which follows from linearising the two-particle map of
//! [`crate::tracking`]; the derivation is checked *numerically* against the
//! map in this module's tests, so theory and simulation cannot drift apart.

use crate::constants::TWO_PI;
use crate::ion::IonSpecies;
use crate::machine::MachineParams;
use crate::relativity;

/// Error returned when a synchrotron-frequency computation is requested at
/// an unstable operating point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynchrotronError {
    /// The requested phase/energy combination gives no stable oscillation
    /// (e.g. stationary bucket exactly at transition energy).
    Unstable,
}

impl std::fmt::Display for SynchrotronError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Unstable => write!(
                f,
                "no stable synchrotron oscillation at this operating point"
            ),
        }
    }
}

impl std::error::Error for SynchrotronError {}

/// Calculator bundling machine + ion for synchrotron-frequency relations.
#[derive(Debug, Clone, Copy)]
pub struct SynchrotronCalc {
    machine: MachineParams,
    ion: IonSpecies,
}

impl SynchrotronCalc {
    /// New calculator for a ring/species pair.
    pub fn new(machine: MachineParams, ion: IonSpecies) -> Self {
        Self { machine, ion }
    }

    /// Small-amplitude synchrotron frequency (Hz) in a stationary bucket at
    /// revolution frequency `f_rev` with peak gap voltage `v_hat` volts.
    pub fn fs_stationary(&self, f_rev: f64, v_hat: f64) -> Result<f64, SynchrotronError> {
        self.fs_at_phase(f_rev, v_hat, 0.0)
    }

    /// Small-amplitude synchrotron frequency (Hz) about a synchronous phase
    /// `phi_s` (radians). Below transition stability requires cos φ_s > 0.
    pub fn fs_at_phase(&self, f_rev: f64, v_hat: f64, phi_s: f64) -> Result<f64, SynchrotronError> {
        let gamma = relativity::gamma_from_revolution(f_rev, self.machine.orbit_length_m);
        let beta2 = 1.0 - 1.0 / (gamma * gamma);
        let eta = self.machine.phase_slip(gamma);
        let h = f64::from(self.machine.harmonic_number);
        let q_v = f64::from(self.ion.charge_number) * v_hat;
        let e_total = gamma * self.ion.rest_energy_ev;
        // Stability: η·cosφ_s < 0 below transition convention folded into |·|;
        // the product must be positive after sign bookkeeping.
        let arg = -eta * q_v * phi_s.cos() * h / (TWO_PI * beta2 * e_total);
        if arg <= 0.0 {
            return Err(SynchrotronError::Unstable);
        }
        Ok(f_rev * arg.sqrt())
    }

    /// Invert [`Self::fs_stationary`]: the peak gap voltage (volts) that
    /// yields synchrotron frequency `fs` at revolution frequency `f_rev`.
    ///
    /// This is how the evaluation's V̂ ≈ 4.9 kV is derived from the MDE's
    /// 1.28 kHz (Section V: "the input voltage amplitude was adjusted to
    /// achieve a similar synchrotron frequency").
    pub fn voltage_for_fs(&self, f_rev: f64, fs: f64) -> Result<f64, SynchrotronError> {
        let gamma = relativity::gamma_from_revolution(f_rev, self.machine.orbit_length_m);
        let beta2 = 1.0 - 1.0 / (gamma * gamma);
        let eta = self.machine.phase_slip(gamma);
        if eta >= 0.0 {
            // Above (or at) transition the stationary bucket at φ_s = 0 is
            // unstable; the MDE ran below transition.
            return Err(SynchrotronError::Unstable);
        }
        let h = f64::from(self.machine.harmonic_number);
        let e_total = gamma * self.ion.rest_energy_ev;
        let ratio = fs / f_rev;
        let v = ratio * ratio * TWO_PI * beta2 * e_total
            / (h * eta.abs() * f64::from(self.ion.charge_number));
        Ok(v)
    }

    /// Bucket half-height in Δγ for a stationary bucket: the maximum energy
    /// deviation still inside the separatrix,
    /// `Δγ_max = sqrt( 2·Q·V̂·β²·γ / (π·h·|η|·mc²) ) · γ` — expressed via the
    /// map coefficients so it is consistent with the tracker.
    pub fn bucket_half_height_dgamma(
        &self,
        f_rev: f64,
        v_hat: f64,
    ) -> Result<f64, SynchrotronError> {
        let gamma = relativity::gamma_from_revolution(f_rev, self.machine.orbit_length_m);
        let eta = self.machine.phase_slip(gamma);
        if eta >= 0.0 {
            return Err(SynchrotronError::Unstable);
        }
        let h = f64::from(self.machine.harmonic_number);
        let q_v = f64::from(self.ion.charge_number) * v_hat;
        let beta2 = 1.0 - 1.0 / (gamma * gamma);
        // Standard stationary-bucket height: ΔE_max = β·sqrt(2·Q·V̂·E/(π·h·|η|)),
        // converted to Δγ = ΔE / mc².
        let e_total = gamma * self.ion.rest_energy_ev;
        let de_max =
            beta2.sqrt() * (2.0 * q_v * e_total / (std::f64::consts::PI * h * eta.abs())).sqrt();
        Ok(de_max / self.ion.rest_energy_ev)
    }

    /// RMS Δγ matched to an RMS bunch length (seconds) for small-amplitude
    /// (linear) motion: σ_Δγ = ω_s·γ·β³·c·σ_t / (l_R·|η|) — the inverse of the
    /// Eq. (6) drift over a quarter oscillation.
    pub fn matched_sigma_dgamma(
        &self,
        f_rev: f64,
        v_hat: f64,
        sigma_t: f64,
    ) -> Result<f64, SynchrotronError> {
        let fs = self.fs_stationary(f_rev, v_hat)?;
        let gamma = relativity::gamma_from_revolution(f_rev, self.machine.orbit_length_m);
        let drift = self.machine.drift_coefficient(gamma).abs() / gamma;
        // Linear oscillator: dt' = drift·Δγ per turn; angular frequency per
        // turn ω = 2π·fs/f_rev. Matched ellipse: σ_Δγ = ω·σ_t/drift.
        let omega_per_turn = TWO_PI * fs / f_rev;
        Ok(omega_per_turn * sigma_t / drift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::OperatingPoint;
    use crate::tracking::{MacroParticle, TwoParticleMap};

    fn calc() -> SynchrotronCalc {
        SynchrotronCalc::new(MachineParams::sis18(), IonSpecies::n14_7plus())
    }

    #[test]
    fn mde_voltage_is_a_few_kilovolts() {
        let v = calc().voltage_for_fs(800e3, 1.28e3).unwrap();
        assert!(v > 2e3 && v < 10e3, "V = {v}");
    }

    #[test]
    fn forward_and_inverse_are_consistent() {
        let c = calc();
        for &fs in &[0.5e3, 1.28e3, 3.0e3] {
            let v = c.voltage_for_fs(800e3, fs).unwrap();
            let fs_back = c.fs_stationary(800e3, v).unwrap();
            assert!((fs_back - fs).abs() / fs < 1e-12);
        }
    }

    #[test]
    fn fs_scales_with_sqrt_voltage() {
        let c = calc();
        let f1 = c.fs_stationary(800e3, 1e3).unwrap();
        let f4 = c.fs_stationary(800e3, 4e3).unwrap();
        assert!((f4 / f1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn theory_matches_tracking_map() {
        // The analytic fs must match the frequency the actual discrete map
        // produces — the consistency anchor between theory and simulation.
        let c = calc();
        let v = c.voltage_for_fs(800e3, 1.28e3).unwrap();
        let op = OperatingPoint::from_revolution_frequency(
            MachineParams::sis18(),
            IonSpecies::n14_7plus(),
            800e3,
            v,
        );
        let mut map = TwoParticleMap::at_operating_point(&op);
        map.particle = MacroParticle::from_phase_offset_deg(1.0, &op); // small amplitude
                                                                       // Count turns for 4 full periods via positive-going zero crossings.
        let mut crossings = Vec::new();
        let mut last = map.particle.dt;
        for n in 0..(800e3 / 1.28e3 * 5.0) as usize {
            let dt = map.step_stationary(op.v_gap_volts, 0.0);
            if last < 0.0 && dt >= 0.0 {
                crossings.push(n);
            }
            last = dt;
        }
        assert!(crossings.len() >= 3);
        let periods = (crossings.len() - 1) as f64;
        let turns = (crossings[crossings.len() - 1] - crossings[0]) as f64;
        let fs_sim = 800e3 * periods / turns;
        assert!((fs_sim - 1.28e3).abs() / 1.28e3 < 5e-3, "fs_sim = {fs_sim}");
    }

    #[test]
    fn unstable_above_transition() {
        let m = MachineParams::sis18();
        // Pick a revolution frequency corresponding to γ > γ_t: β from γ = 6.
        let beta = relativity::beta_from_gamma(6.0);
        let f_rev = beta * crate::constants::C / m.orbit_length_m;
        let c = SynchrotronCalc::new(m, IonSpecies::n14_7plus());
        assert_eq!(
            c.voltage_for_fs(f_rev, 1e3),
            Err(SynchrotronError::Unstable)
        );
        assert_eq!(c.fs_stationary(f_rev, 1e3), Err(SynchrotronError::Unstable));
    }

    #[test]
    fn unstable_phase_rejected() {
        // φ_s = 100° below transition: cos < 0, unstable.
        let c = calc();
        assert!(c.fs_at_phase(800e3, 4e3, 100.0_f64.to_radians()).is_err());
        assert!(c.fs_at_phase(800e3, 4e3, 30.0_f64.to_radians()).is_ok());
    }

    #[test]
    fn bucket_height_positive_and_scaling() {
        let c = calc();
        let h1 = c.bucket_half_height_dgamma(800e3, 1e3).unwrap();
        let h4 = c.bucket_half_height_dgamma(800e3, 4e3).unwrap();
        assert!(h1 > 0.0);
        assert!((h4 / h1 - 2.0).abs() < 1e-12, "height scales with sqrt(V)");
    }

    #[test]
    fn matched_sigma_produces_circular_motion() {
        // A particle launched at (σ_t, 0) and one at (0, σ_Δγ) should reach
        // the same extremes — i.e. the matching is consistent with the map.
        let c = calc();
        let v = c.voltage_for_fs(800e3, 1.28e3).unwrap();
        // Small amplitude (5 ns ≈ 5.8° at the RF harmonic) so the linear
        // matching formula applies; at tens of ns the pendulum nonlinearity
        // distorts the ellipse by several percent.
        let sigma_t = 5e-9;
        let sigma_dg = c.matched_sigma_dgamma(800e3, v, sigma_t).unwrap();
        let op = OperatingPoint::from_revolution_frequency(
            MachineParams::sis18(),
            IonSpecies::n14_7plus(),
            800e3,
            v,
        );
        let mut map = TwoParticleMap::at_operating_point(&op);
        map.particle = MacroParticle {
            dgamma: sigma_dg,
            dt: 0.0,
        };
        let mut max_dt: f64 = 0.0;
        for _ in 0..(800e3 / 1.28e3) as usize {
            let dt = map.step_stationary(op.v_gap_volts, 0.0);
            max_dt = max_dt.max(dt.abs());
        }
        assert!(
            (max_dt - sigma_t).abs() / sigma_t < 0.02,
            "max_dt = {max_dt}"
        );
    }
}
