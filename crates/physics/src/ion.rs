//! Ion species: charge state and rest energy.
//!
//! The MDE reproduced in the paper's evaluation accelerated ¹⁴N⁷⁺ ions
//! (Fig. 5 caption). SIS18 runs many species; a few common ones are provided
//! as ready-made constants, and arbitrary species can be constructed.

use crate::constants::{AMU_EV, ELECTRON_REST_EV, PROTON_REST_EV};

/// An ion species circulating in the synchrotron.
///
/// `charge_number` is the net charge in units of the elementary charge
/// (the `Q` of Eqs. 2–3, when voltages are expressed in volts and energies in
/// eV). `rest_energy_ev` is the ion rest energy `m c²` in eV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IonSpecies {
    /// Human-readable species label, e.g. `"14N7+"` (display-only).
    pub name: &'static str,
    /// Mass number A (number of nucleons); 1 for a proton.
    pub mass_number: u32,
    /// Net charge in units of e (the paper's Q/e).
    pub charge_number: u32,
    /// Rest energy m·c² in eV.
    pub rest_energy_ev: f64,
}

impl IonSpecies {
    /// Construct a species from its neutral atomic mass in unified atomic
    /// mass units and the number of stripped electrons.
    ///
    /// The rest energy subtracts the stripped electrons' rest mass (electron
    /// binding energies, ~keV, are negligible at the eV precision any of the
    /// reproduced experiments resolve).
    pub fn from_atomic_mass(
        name: &'static str,
        mass_number: u32,
        atomic_mass_u: f64,
        charge_number: u32,
    ) -> Self {
        let rest = atomic_mass_u * AMU_EV - f64::from(charge_number) * ELECTRON_REST_EV;
        Self {
            name,
            mass_number,
            charge_number,
            rest_energy_ev: rest,
        }
    }

    /// ¹⁴N⁷⁺ — fully stripped nitrogen, the species of the Nov 24 2023 MDE
    /// reproduced in Fig. 5.
    pub fn n14_7plus() -> Self {
        Self::from_atomic_mass("14N7+", 14, 14.003_074_004, 7)
    }

    /// ⁴⁰Ar¹⁸⁺ — fully stripped argon, a common SIS18 species.
    pub fn ar40_18plus() -> Self {
        Self::from_atomic_mass("40Ar18+", 40, 39.962_383_124, 18)
    }

    /// ²³⁸U⁷³⁺ — partially stripped uranium, the SIS18 design ion.
    pub fn u238_73plus() -> Self {
        Self::from_atomic_mass("238U73+", 238, 238.050_788_4, 73)
    }

    /// A bare proton.
    pub fn proton() -> Self {
        Self {
            name: "p",
            mass_number: 1,
            charge_number: 1,
            rest_energy_ev: PROTON_REST_EV,
        }
    }

    /// The paper's Q/(m c²) factor of Eqs. (2) and (3): multiplying a gap
    /// voltage in volts by this factor yields the per-passage change in γ.
    #[inline]
    pub fn gamma_per_volt(&self) -> f64 {
        f64::from(self.charge_number) / self.rest_energy_ev
    }

    /// Rest energy per nucleon in eV, useful for quoting kinetic energies
    /// the way accelerator operators do (MeV/u).
    pub fn rest_energy_per_nucleon(&self) -> f64 {
        self.rest_energy_ev / f64::from(self.mass_number)
    }

    /// γ reached at a given kinetic energy per nucleon (eV/u), the standard
    /// operator-facing energy scale.
    pub fn gamma_at_kinetic_per_nucleon(&self, kinetic_ev_per_u: f64) -> f64 {
        1.0 + kinetic_ev_per_u * f64::from(self.mass_number) / self.rest_energy_ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n14_rest_energy_plausible() {
        let ion = IonSpecies::n14_7plus();
        // 14.003074 u * 931.494 MeV/u - 7 * 0.511 MeV ≈ 13040.2 MeV
        assert!(
            (ion.rest_energy_ev - 13.0402e9).abs() < 5e6,
            "{}",
            ion.rest_energy_ev
        );
        assert_eq!(ion.charge_number, 7);
    }

    #[test]
    fn gamma_per_volt_scales_with_charge() {
        let n = IonSpecies::n14_7plus();
        let p = IonSpecies::proton();
        // Proton: 1 V -> 1 eV on ~938 MeV rest energy.
        assert!((p.gamma_per_volt() - 1.0 / PROTON_REST_EV).abs() < 1e-20);
        // Nitrogen picks up 7 eV per volt but is ~14x heavier.
        assert!(n.gamma_per_volt() < p.gamma_per_volt());
    }

    #[test]
    fn uranium_is_heavy() {
        let u = IonSpecies::u238_73plus();
        assert!(u.rest_energy_ev > 221e9 && u.rest_energy_ev < 222e9);
    }
}
