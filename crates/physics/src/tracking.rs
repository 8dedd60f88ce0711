//! The paper's recursive two-particle tracking map (Section IV-A).
//!
//! One *reference particle* (index R) defines the ideal acceleration scenario
//! and stays on the constant-length reference orbit; one *asynchronous macro
//! particle* represents the whole bunch and oscillates around the reference.
//! Per revolution the map applies:
//!
//! * Eq. (2): `γ_R,n = γ_R,n−1 + (Q/mc²)·V_R,n−1`
//! * Eq. (3): `Δγ_n = Δγ_n−1 + (Q/mc²)·ΔV_n` with `ΔV = V − V_R`
//! * Eq. (5): `η_R,n = α_c − 1/γ_R,n²`
//! * Eq. (6): `Δt_n = Δt_n−1 + l_R·η_R,n/(β_R³·c·γ_R,n) · Δγ_n`
//!
//! Two map variants are provided: the paper's linearised form
//! ([`TwoParticleMap`]) — this is exactly what the CGRA kernel computes — and
//! an exact nonlinear form ([`ExactMap`]) used to quantify the paper's three
//! stated simplifications.

use crate::constants::{C, TWO_PI};
use crate::ion::IonSpecies;
use crate::machine::{MachineParams, OperatingPoint};
use crate::relativity;

/// State of the reference particle: its Lorentz factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceParticle {
    /// Lorentz factor γ_R of the reference particle.
    pub gamma: f64,
}

impl ReferenceParticle {
    /// Initialise from a measured revolution frequency (the period-length
    /// detector path of Section IV-B).
    pub fn from_revolution_frequency(f_rev: f64, machine: &MachineParams) -> Self {
        Self {
            gamma: relativity::gamma_from_revolution(f_rev, machine.orbit_length_m),
        }
    }

    /// Apply the energy kick of one gap passage (Eq. 2).
    #[inline]
    pub fn kick(&mut self, v_gap_volts: f64, ion: &IonSpecies) {
        self.gamma += ion.gamma_per_volt() * v_gap_volts;
    }

    /// Current revolution time on the reference orbit.
    #[inline]
    pub fn revolution_time(&self, machine: &MachineParams) -> f64 {
        machine.revolution_time(self.gamma)
    }
}

/// State of the asynchronous macro particle, expressed as deviations from
/// the reference particle (the Δ quantities of Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MacroParticle {
    /// Energy deviation Δγ = γ − γ_R.
    pub dgamma: f64,
    /// Arrival-time deviation Δt at the gap, seconds. Positive = late.
    pub dt: f64,
}

impl MacroParticle {
    /// A particle launched with an initial phase offset (degrees, at RF
    /// harmonic h) and no energy error — the state right after an RF phase
    /// jump of that size.
    pub fn from_phase_offset_deg(phase_deg: f64, op: &OperatingPoint) -> Self {
        Self {
            dgamma: 0.0,
            dt: phase_deg / 360.0 / op.f_rf(),
        }
    }

    /// Phase deviation in degrees at the RF harmonic, the quantity the DSP
    /// phase detector reports in Fig. 5.
    pub fn phase_deg(&self, op: &OperatingPoint) -> f64 {
        self.dt * op.f_rf() * 360.0
    }
}

/// The paper's linearised per-revolution map. This struct is deliberately
/// *voltage-driven*: the caller supplies the gap voltages the two particles
/// sampled (from ring buffers in the HIL, or from an analytic RF model), so
/// the identical state machine runs under the CGRA, the turn-level engine and
/// unit tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoParticleMap {
    /// Ring parameters.
    pub machine: MachineParams,
    /// Circulating ion species.
    pub ion: IonSpecies,
    /// Reference-particle state.
    pub reference: ReferenceParticle,
    /// Asynchronous macro-particle state.
    pub particle: MacroParticle,
}

impl TwoParticleMap {
    /// Build a map at a given operating point with the macro particle on the
    /// reference trajectory (Δγ = Δt = 0, the paper's initialisation).
    pub fn at_operating_point(op: &OperatingPoint) -> Self {
        Self {
            machine: op.machine,
            ion: op.ion,
            reference: ReferenceParticle { gamma: op.gamma_r },
            particle: MacroParticle::default(),
        }
    }

    /// Advance one revolution given the *sampled* voltages (volts at the
    /// gap): `v_ref` seen by the reference particle and `v_async` seen by the
    /// asynchronous particle. Returns the updated Δt.
    ///
    /// Order of operations follows Section IV-B: kick the reference (Eq. 2),
    /// kick the deviation (Eq. 3), recompute η (Eq. 5), then drift (Eq. 6).
    #[inline]
    pub fn step_with_voltages(&mut self, v_ref: f64, v_async: f64) -> f64 {
        let q_over_mc2 = self.ion.gamma_per_volt();
        self.reference.gamma += q_over_mc2 * v_ref;
        self.particle.dgamma += q_over_mc2 * (v_async - v_ref);
        let drift = self.machine.drift_coefficient(self.reference.gamma);
        self.particle.dt += drift * self.particle.dgamma / self.reference.gamma;
        self.particle.dt
    }

    /// Advance one revolution in the *stationary analytic* case: sinusoidal
    /// gap voltage of amplitude `v_hat` whose phase is offset by
    /// `rf_phase_offset_rad` (phase jumps + control action).
    ///
    /// The reference particle is a mathematical construct that follows the
    /// undisturbed set values (Section IV-B: its voltage comes from the
    /// *reference* signal, whose positive zero crossing it rides), so in the
    /// stationary case it receives no net kick. Only the asynchronous
    /// particle samples the — possibly phase-shifted — gap signal:
    /// `V̂·sin(ω_RF·Δt + φ_off)`. A phase jump therefore moves the stable
    /// point to `Δt = −φ_off/ω_RF` and the bunch starts oscillating around
    /// it, with the first peak at twice the jump (the Fig. 5 signature).
    #[inline]
    pub fn step_stationary(&mut self, v_hat: f64, rf_phase_offset_rad: f64) -> f64 {
        let f_rf = self
            .machine
            .rf_frequency(self.machine.revolution_frequency(self.reference.gamma));
        let v_async = v_hat * (TWO_PI * f_rf * self.particle.dt + rf_phase_offset_rad).sin();
        self.step_with_voltages(0.0, v_async)
    }

    /// Current operating point snapshot (γ_R changes under acceleration).
    pub fn operating_point(&self, v_hat: f64) -> OperatingPoint {
        OperatingPoint {
            machine: self.machine,
            ion: self.ion,
            gamma_r: self.reference.gamma,
            v_gap_volts: v_hat,
        }
    }
}

/// Exact nonlinear per-revolution map tracking absolute quantities for both
/// particles, including the orbit-length change of Eq. (4). Used to validate
/// the paper's three simplifications (Section IV-A) and as ground truth in
/// accuracy ablations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactMap {
    /// Ring parameters.
    pub machine: MachineParams,
    /// Circulating ion species.
    pub ion: IonSpecies,
    /// γ of the reference particle.
    pub gamma_r: f64,
    /// γ of the asynchronous particle (absolute, not a deviation).
    pub gamma: f64,
    /// Absolute arrival-time deviation Δt, seconds.
    pub dt: f64,
}

impl ExactMap {
    /// Build from the linearised map state.
    pub fn from_linear(map: &TwoParticleMap) -> Self {
        Self {
            machine: map.machine,
            ion: map.ion,
            gamma_r: map.reference.gamma,
            gamma: map.reference.gamma + map.particle.dgamma,
            dt: map.particle.dt,
        }
    }

    /// Advance one revolution with explicit sampled voltages.
    ///
    /// Both particles get exact relativistic updates; the asynchronous
    /// particle's revolution time uses its own velocity *and* its own orbit
    /// length `l = l_R·(1 + α_c·Δp/p)` (Eq. 4) — no small-deviation
    /// expansion anywhere.
    pub fn step_with_voltages(&mut self, v_ref: f64, v_async: f64) -> f64 {
        let q_over_mc2 = self.ion.gamma_per_volt();
        self.gamma_r += q_over_mc2 * v_ref;
        self.gamma += q_over_mc2 * v_async;

        let l_r = self.machine.orbit_length_m;
        let dp_over_p = relativity::dp_over_p_exact(self.gamma_r, self.gamma);
        let l = l_r * (1.0 + self.machine.momentum_compaction * dp_over_p);

        let t_r = l_r / (relativity::beta_from_gamma(self.gamma_r) * C);
        let t = l / (relativity::beta_from_gamma(self.gamma) * C);
        self.dt += t - t_r;
        self.dt
    }

    /// Stationary analytic step, mirroring [`TwoParticleMap::step_stationary`]
    /// (reference particle follows undisturbed set values; only the
    /// asynchronous particle samples the shifted gap signal).
    pub fn step_stationary(&mut self, v_hat: f64, rf_phase_offset_rad: f64) -> f64 {
        let f_rev = self.machine.revolution_frequency(self.gamma_r);
        let f_rf = self.machine.rf_frequency(f_rev);
        let v_async = v_hat * (TWO_PI * f_rf * self.dt + rf_phase_offset_rad).sin();
        self.step_with_voltages(0.0, v_async)
    }

    /// Energy deviation Δγ.
    pub fn dgamma(&self) -> f64 {
        self.gamma - self.gamma_r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synchrotron::SynchrotronCalc;

    fn mde_op() -> OperatingPoint {
        let machine = MachineParams::sis18();
        let ion = IonSpecies::n14_7plus();
        let v = SynchrotronCalc::new(machine, ion)
            .voltage_for_fs(800e3, 1.28e3)
            .expect("stationary point below transition");
        OperatingPoint::from_revolution_frequency(machine, ion, 800e3, v)
    }

    #[test]
    fn stationary_particle_on_reference_stays_put() {
        let op = mde_op();
        let mut map = TwoParticleMap::at_operating_point(&op);
        for _ in 0..10_000 {
            map.step_stationary(op.v_gap_volts, 0.0);
        }
        assert_eq!(map.particle.dt, 0.0);
        assert_eq!(map.particle.dgamma, 0.0);
        // Stationary: zero net acceleration of the reference.
        assert!((map.reference.gamma - op.gamma_r).abs() < 1e-12);
    }

    #[test]
    fn displaced_particle_oscillates_at_synchrotron_frequency() {
        let op = mde_op();
        let mut map = TwoParticleMap::at_operating_point(&op);
        // 8 degree offset at the RF harmonic, as after a phase jump.
        map.particle = MacroParticle::from_phase_offset_deg(8.0, &op);
        let dt0 = map.particle.dt;

        // Track for one synchrotron period and find the dominant frequency
        // from zero crossings of dt.
        let f_rev = op.f_rev();
        let turns = (f_rev / 1.28e3 * 6.0) as usize; // six synchrotron periods
        let mut crossings = 0usize;
        let mut last = map.particle.dt;
        let mut first_crossing_turn = None;
        let mut last_crossing_turn = 0usize;
        for n in 0..turns {
            let dt = map.step_stationary(op.v_gap_volts, 0.0);
            if last > 0.0 && dt <= 0.0 || last < 0.0 && dt >= 0.0 {
                crossings += 1;
                if first_crossing_turn.is_none() {
                    first_crossing_turn = Some(n);
                }
                last_crossing_turn = n;
            }
            last = dt;
        }
        // crossings-1 half periods between first and last crossing.
        let half_periods = crossings - 1;
        let span_turns = (last_crossing_turn - first_crossing_turn.unwrap()) as f64;
        let fs = f_rev * half_periods as f64 / (2.0 * span_turns);
        assert!(
            (fs - 1.28e3).abs() / 1.28e3 < 0.02,
            "measured fs = {fs}, expected 1.28 kHz"
        );
        // Amplitude is preserved to a few percent over 6 periods
        // (the symplectic-ish discrete map has tiny amplitude error).
        assert!(map.particle.dt.abs() <= dt0 * 1.05);
    }

    #[test]
    fn oscillation_is_stable_below_transition() {
        let op = mde_op();
        let mut map = TwoParticleMap::at_operating_point(&op);
        map.particle = MacroParticle::from_phase_offset_deg(8.0, &op);
        let dt0 = map.particle.dt;
        let mut max_dt: f64 = 0.0;
        for _ in 0..200_000 {
            let dt = map.step_stationary(op.v_gap_volts, 0.0);
            max_dt = max_dt.max(dt.abs());
        }
        // Bounded motion: never exceeds the initial amplitude by more than 10%.
        assert!(max_dt < dt0 * 1.10, "max |dt| = {max_dt}, dt0 = {dt0}");
    }

    #[test]
    fn energy_kick_signs_match_fig1() {
        // Fig. 1: a late particle (Δt > 0) sees a higher voltage and is
        // accelerated; an early one is slowed down.
        let op = mde_op();
        let mut late = TwoParticleMap::at_operating_point(&op);
        late.particle.dt = 10e-9;
        late.step_stationary(op.v_gap_volts, 0.0);
        assert!(late.particle.dgamma > 0.0, "late particle must gain energy");

        let mut early = TwoParticleMap::at_operating_point(&op);
        early.particle.dt = -10e-9;
        early.step_stationary(op.v_gap_volts, 0.0);
        assert!(
            early.particle.dgamma < 0.0,
            "early particle must lose energy"
        );
    }

    #[test]
    fn linear_map_matches_exact_map_for_small_amplitude() {
        let op = mde_op();
        let mut lin = TwoParticleMap::at_operating_point(&op);
        lin.particle = MacroParticle::from_phase_offset_deg(2.0, &op);
        let mut exact = ExactMap::from_linear(&lin);
        let mut max_rel = 0.0_f64;
        let amp = lin.particle.dt;
        for _ in 0..5_000 {
            let a = lin.step_stationary(op.v_gap_volts, 0.0);
            let b = exact.step_stationary(op.v_gap_volts, 0.0);
            max_rel = max_rel.max((a - b).abs() / amp);
        }
        // The paper's simplifications hold to well below a percent of the
        // oscillation amplitude at small Δγ/γ.
        assert!(max_rel < 0.02, "max relative deviation {max_rel}");
    }

    #[test]
    fn acceleration_raises_reference_energy() {
        let op = mde_op();
        let mut map = TwoParticleMap::at_operating_point(&op);
        let g0 = map.reference.gamma;
        // Synchronous phase 30 degrees: net acceleration each turn.
        for _ in 0..1000 {
            let v_ref = op.v_gap_volts * (30.0_f64.to_radians()).sin();
            map.step_with_voltages(v_ref, v_ref);
        }
        assert!(map.reference.gamma > g0);
        // With equal voltages the deviation stays zero.
        assert_eq!(map.particle.dgamma, 0.0);
    }

    #[test]
    fn phase_deg_conversion_roundtrip() {
        let op = mde_op();
        let p = MacroParticle::from_phase_offset_deg(8.0, &op);
        assert!((p.phase_deg(&op) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn reference_particle_from_frequency_matches_machine() {
        let m = MachineParams::sis18();
        let r = ReferenceParticle::from_revolution_frequency(800e3, &m);
        assert!((m.revolution_frequency(r.gamma) - 800e3).abs() < 1e-3);
    }
}
