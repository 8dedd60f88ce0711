//! Synchrotron ring model: orbit length, momentum compaction, harmonic
//! number, and the phase-slip factor of Eq. (5).
//!
//! The paper's use cases all refer to the GSI SIS18 (circumference 216.72 m,
//! harmonic number 4 in the reproduced MDE); other rings can be described by
//! constructing [`MachineParams`] directly.

use crate::constants::C;
use crate::ion::IonSpecies;
use crate::relativity;

/// Static parameters of a synchrotron ring and the chosen ion optics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// Reference-orbit length `l_R` in metres (the paper's constant orbit).
    pub orbit_length_m: f64,
    /// Momentum compaction factor α_c (Eq. 4). Positive at GSI.
    pub momentum_compaction: f64,
    /// Harmonic number h: f_RF = h · f_R.
    pub harmonic_number: u32,
}

impl MachineParams {
    /// The GSI SIS18 heavy-ion synchrotron with the MDE's harmonic number 4.
    ///
    /// Circumference 216.72 m; transition gamma γ_t ≈ 5.45, i.e.
    /// α_c = 1/γ_t² ≈ 0.0337.
    pub fn sis18() -> Self {
        Self::sis18_with_harmonic(4)
    }

    /// SIS18 with an explicit harmonic number (Fig. 2 uses h = 2).
    pub fn sis18_with_harmonic(harmonic_number: u32) -> Self {
        let gamma_t = 5.45_f64;
        Self {
            orbit_length_m: 216.72,
            momentum_compaction: 1.0 / (gamma_t * gamma_t),
            harmonic_number,
        }
    }

    /// Transition gamma γ_t = 1/√α_c. Above this energy the phase-slip
    /// factor changes sign and the stable phase flips.
    pub fn gamma_transition(&self) -> f64 {
        (1.0 / self.momentum_compaction).sqrt()
    }

    /// Phase-slip factor η_R = α_c − 1/γ² (Eq. 5).
    #[inline]
    pub fn phase_slip(&self, gamma: f64) -> f64 {
        self.momentum_compaction - 1.0 / (gamma * gamma)
    }

    /// True if a particle with Lorentz factor γ is below transition
    /// (η < 0, the regime of the reproduced MDE).
    pub fn below_transition(&self, gamma: f64) -> bool {
        self.phase_slip(gamma) < 0.0
    }

    /// RF frequency for a given revolution frequency: f_RF = h·f_R.
    #[inline]
    pub fn rf_frequency(&self, f_rev: f64) -> f64 {
        f64::from(self.harmonic_number) * f_rev
    }

    /// Revolution frequency of a particle with Lorentz factor γ on the
    /// reference orbit.
    #[inline]
    pub fn revolution_frequency(&self, gamma: f64) -> f64 {
        relativity::revolution_frequency(gamma, self.orbit_length_m)
    }

    /// Revolution period of a particle with Lorentz factor γ.
    #[inline]
    pub fn revolution_time(&self, gamma: f64) -> f64 {
        relativity::revolution_time(gamma, self.orbit_length_m)
    }

    /// The drift coefficient of Eq. (6): the per-revolution advance of Δt per
    /// unit of Δγ/γ_R, i.e. `l_R·η_R/(β_R³·c)` (with β ≈ β_R for the
    /// asynchronous particle, the paper's second simplification).
    #[inline]
    pub fn drift_coefficient(&self, gamma: f64) -> f64 {
        let beta = relativity::beta_from_gamma(gamma);
        self.orbit_length_m * self.phase_slip(gamma) / (beta * beta * beta * C)
    }
}

/// A fully specified operating point: ring + ion + reference energy + gap
/// voltage amplitude. This is the tuple every experiment in the evaluation
/// is parameterised by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Ring and optics.
    pub machine: MachineParams,
    /// Circulating species.
    pub ion: IonSpecies,
    /// Lorentz factor of the reference particle.
    pub gamma_r: f64,
    /// Peak gap voltage V̂ in volts.
    pub v_gap_volts: f64,
}

impl OperatingPoint {
    /// Construct the operating point from a measured revolution frequency,
    /// exactly like the paper's kernel initialises from the period-length
    /// detector (Section IV-B).
    pub fn from_revolution_frequency(
        machine: MachineParams,
        ion: IonSpecies,
        f_rev: f64,
        v_gap_volts: f64,
    ) -> Self {
        let gamma_r = relativity::gamma_from_revolution(f_rev, machine.orbit_length_m);
        Self {
            machine,
            ion,
            gamma_r,
            v_gap_volts,
        }
    }

    /// Revolution frequency of the reference particle, Hz.
    pub fn f_rev(&self) -> f64 {
        self.machine.revolution_frequency(self.gamma_r)
    }

    /// RF (gap) frequency, Hz.
    pub fn f_rf(&self) -> f64 {
        self.machine.rf_frequency(self.f_rev())
    }

    /// Phase-slip factor at this energy.
    pub fn eta(&self) -> f64 {
        self.machine.phase_slip(self.gamma_r)
    }

    /// β of the reference particle.
    pub fn beta_r(&self) -> f64 {
        relativity::beta_from_gamma(self.gamma_r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mde_point() -> OperatingPoint {
        OperatingPoint::from_revolution_frequency(
            MachineParams::sis18(),
            IonSpecies::n14_7plus(),
            800e3,
            4.9e3,
        )
    }

    #[test]
    fn sis18_basic_parameters() {
        let m = MachineParams::sis18();
        assert_eq!(m.harmonic_number, 4);
        assert!((m.orbit_length_m - 216.72).abs() < 1e-9);
        assert!((m.gamma_transition() - 5.45).abs() < 1e-9);
        assert!(m.momentum_compaction > 0.0, "GSI: alpha_c positive");
    }

    #[test]
    fn mde_point_is_below_transition() {
        let op = mde_point();
        assert!(op.machine.below_transition(op.gamma_r));
        // eta ≈ 0.0337 - 1/1.2258^2 ≈ -0.632
        assert!((op.eta() + 0.632).abs() < 2e-3, "eta={}", op.eta());
    }

    #[test]
    fn rf_frequency_is_harmonic_multiple() {
        let op = mde_point();
        assert!((op.f_rf() - 3.2e6).abs() < 10.0);
        assert!((op.f_rev() - 800e3).abs() < 1.0);
    }

    #[test]
    fn phase_slip_changes_sign_at_transition() {
        let m = MachineParams::sis18();
        let gt = m.gamma_transition();
        assert!(m.phase_slip(gt * 0.99) < 0.0);
        assert!(m.phase_slip(gt * 1.01) > 0.0);
        assert!(m.phase_slip(gt).abs() < 1e-6);
    }

    #[test]
    fn drift_coefficient_sign_below_transition() {
        // Below transition a positive Δγ must *reduce* Δt (higher energy
        // arrives earlier), so the coefficient is negative.
        let op = mde_point();
        assert!(op.machine.drift_coefficient(op.gamma_r) < 0.0);
    }

    #[test]
    fn fig2_harmonic_two_variant() {
        let m = MachineParams::sis18_with_harmonic(2);
        assert_eq!(m.rf_frequency(800e3), 1.6e6);
    }
}
