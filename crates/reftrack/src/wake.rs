//! Beam loading: the bunch's own induced voltage in the cavity.
//!
//! The paper positions offline codes (ESME, LONG1D, BLonD) as including
//! "many important beam dynamics effects … such as beam loading or
//! space-charge effects" (Section II) that its real-time two-particle model
//! omits. This module adds the dominant one to the multi-particle tracker:
//! the gap behaves as a parallel RLC resonator, each passing charge rings
//! it, and later particles see the accumulated induced voltage.
//!
//! Model: the standard resonator wake. For shunt impedance `R_s`, quality
//! factor `Q` and resonant angular frequency `ω_r`, a point charge `q`
//! leaves behind (for times t > 0)
//!
//! ```text
//! W(t) = (ω_r R_s / Q) · e^{−ω_r t / 2Q} · [cos(ω̄ t) − sin(ω̄ t)/(2Q̄)]
//! ```
//!
//! with `ω̄ = ω_r √(1 − 1/4Q²)`. Instead of convolving over all past
//! particles, the cavity state is carried as a complex phasor that decays
//! and rotates between kicks — O(N log N) per turn (dominated by the sort),
//! numerically exact for the resonator model.

use crate::ensemble::Ensemble;

/// A parallel-resonator gap impedance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resonator {
    /// Shunt impedance R_s, ohms.
    pub shunt_ohms: f64,
    /// Quality factor Q (≥ 0.5 for an oscillatory response).
    pub quality: f64,
    /// Resonant frequency, Hz.
    pub f_res: f64,
}

impl Resonator {
    /// An SIS18-like ferrite-cavity resonator tuned near the RF harmonic.
    pub fn sis18_like(f_rf: f64) -> Self {
        Self {
            shunt_ohms: 2e3,
            quality: 20.0,
            f_res: f_rf,
        }
    }

    /// Fundamental theorem of beam loading: the charge sees half its own
    /// induced voltage. Per unit charge: `k = ω_r R_s / 2Q` (the loss
    /// factor).
    pub fn loss_factor(&self) -> f64 {
        std::f64::consts::TAU * self.f_res * self.shunt_ohms / (2.0 * self.quality)
    }
}

/// Cavity beam-loading state: the ringing phasor between passages.
#[derive(Debug, Clone)]
pub struct BeamLoading {
    /// The resonator.
    pub resonator: Resonator,
    /// Charge per macro particle, coulombs (bunch charge / macro count).
    pub charge_per_macro: f64,
    /// Phasor (voltage-like) components of the ringing cavity.
    v_cos: f64,
    v_sin: f64,
    /// Absolute time of the phasor reference, seconds.
    t_ref: f64,
    /// Scratch: particle order by arrival time (reused per turn).
    order: Vec<u32>,
}

impl BeamLoading {
    /// New quiet cavity.
    pub fn new(resonator: Resonator, bunch_charge_c: f64, macros: usize) -> Self {
        assert!(macros > 0);
        assert!(
            resonator.quality >= 0.5,
            "overdamped resonators not supported"
        );
        Self {
            resonator,
            charge_per_macro: bunch_charge_c / macros as f64,
            v_cos: 0.0,
            v_sin: 0.0,
            t_ref: 0.0,
            order: Vec::new(),
        }
    }

    /// Decay + rotate the phasor from `t_ref` to `t`.
    fn evolve_to(&mut self, t: f64) {
        if self.v_cos == 0.0 && self.v_sin == 0.0 {
            // Quiet cavity: just move the reference (also covers the first
            // passage, whose earliest particle precedes the nominal t = 0).
            self.t_ref = t;
            return;
        }
        let dt = t - self.t_ref;
        debug_assert!(dt >= 0.0, "time must not run backwards");
        let w_r = std::f64::consts::TAU * self.resonator.f_res;
        let q = self.resonator.quality;
        let w_bar = w_r * (1.0 - 1.0 / (4.0 * q * q)).sqrt();
        let damp = (-w_r * dt / (2.0 * q)).exp();
        let (s, c) = (w_bar * dt).sin_cos();
        let (vc, vs) = (self.v_cos, self.v_sin);
        self.v_cos = damp * (vc * c - vs * s);
        self.v_sin = damp * (vc * s + vs * c);
        self.t_ref = t;
    }

    /// Induced voltage seen right now (phasor cosine component).
    fn voltage_now(&self) -> f64 {
        self.v_cos
    }

    /// One bunch passage at absolute turn time `t_turn`: every particle
    /// receives the voltage rung up by all *earlier* particles of this and
    /// previous turns, plus half its own contribution (fundamental theorem).
    /// Returns the per-particle induced voltages (volts), ordered like the
    /// ensemble.
    pub fn passage(&mut self, ensemble: &Ensemble, t_turn: f64) -> Vec<f64> {
        let n = ensemble.len();
        // Sort indices by arrival time.
        self.order.clear();
        self.order.extend(0..n as u32);
        let dts = &ensemble.dt;
        self.order.sort_by(|&a, &b| {
            dts[a as usize]
                .partial_cmp(&dts[b as usize])
                .expect("finite dt")
        });

        let k = self.resonator.loss_factor();
        let dv = 2.0 * k * self.charge_per_macro; // full ring-up per macro
        let mut out = vec![0.0; n];
        let order = std::mem::take(&mut self.order);
        for &i in &order {
            let t = t_turn + dts[i as usize];
            self.evolve_to(t);
            // Sees the existing field + half its own.
            out[i as usize] = self.voltage_now() - 0.5 * dv;
            // Rings the cavity down (decelerating: negative voltage behind).
            self.v_cos -= dv;
        }
        self.order = order;
        out
    }

    /// Peak induced voltage currently ringing in the cavity.
    pub fn stored_voltage(&self) -> f64 {
        (self.v_cos * self.v_cos + self.v_sin * self.v_sin).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil_physics::distribution::BunchSpec;
    use cil_physics::machine::{MachineParams, OperatingPoint};
    use cil_physics::synchrotron::SynchrotronCalc;
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
    fn loss_factor_formula() {
        let r = Resonator {
            shunt_ohms: 1e3,
            quality: 10.0,
            f_res: 3.2e6,
        };
        let expect = std::f64::consts::TAU * 3.2e6 * 1e3 / 20.0;
        assert!((r.loss_factor() - expect).abs() < 1.0);
    }

    #[test]
    fn single_particle_sees_half_its_own_wake() {
        let r = Resonator::sis18_like(3.2e6);
        let mut bl = BeamLoading::new(r, 1e-9, 1);
        let e = Ensemble::monoparticle(1, 0.0, 0.0);
        let v = bl.passage(&e, 0.0);
        let dv = 2.0 * r.loss_factor() * 1e-9;
        assert!(
            (v[0] + 0.5 * dv).abs() < 1e-12,
            "fundamental theorem: {}",
            v[0]
        );
        assert!((bl.stored_voltage() - dv).abs() < 1e-12);
    }

    #[test]
    fn trailing_particle_sees_the_leaders_wake() {
        let r = Resonator {
            shunt_ohms: 1e3,
            quality: 1e6,
            f_res: 3.2e6,
        };
        let mut bl = BeamLoading::new(r, 2e-9, 2);
        // Two particles, the second exactly one resonator period behind:
        // it sees the leader's full (decelerating) wake in phase.
        let period = 1.0 / 3.2e6;
        let e = Ensemble {
            dt: vec![0.0, period],
            dgamma: vec![0.0; 2],
        };
        let v = bl.passage(&e, 0.0);
        let dv = 2.0 * r.loss_factor() * 1e-9;
        assert!(v[1] < v[0], "trailing particle decelerated more");
        assert!(
            (v[1] - (v[0] - dv)).abs() < dv * 1e-3,
            "full wake at one period"
        );
    }

    #[test]
    fn wake_decays_between_turns() {
        let r = Resonator {
            shunt_ohms: 2e3,
            quality: 5.0,
            f_res: 3.2e6,
        };
        let mut bl = BeamLoading::new(r, 1e-9, 1);
        let e = Ensemble::monoparticle(1, 0.0, 0.0);
        bl.passage(&e, 0.0);
        let v0 = bl.stored_voltage();
        // Evolve one revolution (1.25 µs): Q=5 at 3.2 MHz decays fast.
        bl.evolve_to(1.25e-6);
        assert!(bl.stored_voltage() < v0 * 0.1, "ringing decayed");
    }

    #[test]
    fn induced_voltage_scales_with_intensity() {
        let r = Resonator::sis18_like(3.2e6);
        let e = Ensemble::matched(&BunchSpec::gaussian(15e-9), 1000, &op(), 3).unwrap();
        let mut low = BeamLoading::new(r, 1e-9, 1000);
        let mut high = BeamLoading::new(r, 1e-8, 1000);
        let v_low = low.passage(&e, 0.0);
        let v_high = high.passage(&e, 0.0);
        let sum = |v: &[f64]| v.iter().map(|x| x.abs()).sum::<f64>();
        let ratio = sum(&v_high) / sum(&v_low);
        assert!((ratio - 10.0).abs() < 0.5, "linear in charge: {ratio}");
    }

    #[test]
    fn wake_kick_loop_is_thread_count_invariant() {
        // `passage` is a sequential phasor sweep in arrival order and the
        // tracker kick is elementwise, so the combined wake + RF loop must
        // be bit-identical for every worker configuration — the same
        // determinism contract the bare tracker gives.
        use crate::kernel::KernelBackend;
        use crate::tracker::{MultiParticleTracker, TrackerConfig};
        let op = op();
        let f_rf = op.f_rf();
        let run = |threads: usize, min_chunk: usize| {
            let e = Ensemble::matched(&BunchSpec::gaussian(14e-9), 4096, &op, 23).unwrap();
            let mut tracker = MultiParticleTracker::new(
                op,
                e,
                TrackerConfig {
                    threads,
                    min_chunk,
                    backend: KernelBackend::Auto,
                },
            );
            let mut bl = BeamLoading::new(Resonator::sis18_like(f_rf), 2e-9, 4096);
            let q_over_mc2 = op.ion.gamma_per_volt();
            let mut wake_head = Vec::new();
            for turn in 0..120 {
                let t_turn = turn as f64 / op.f_rev();
                let v_ind = bl.passage(&tracker.ensemble, t_turn);
                for (g, v) in tracker.ensemble.dgamma.iter_mut().zip(&v_ind) {
                    *g += q_over_mc2 * v;
                }
                tracker.step(0.0);
                wake_head.push(v_ind[0].to_bits());
            }
            (tracker.ensemble.dt, tracker.ensemble.dgamma, wake_head)
        };
        let reference = run(1, 1);
        for (threads, min_chunk) in [(2usize, 64usize), (4, 997), (8, 1)] {
            let got = run(threads, min_chunk);
            assert_eq!(reference.0, got.0, "dt @ {threads} threads");
            assert_eq!(reference.1, got.1, "dgamma @ {threads} threads");
            assert_eq!(reference.2, got.2, "wake voltages @ {threads} threads");
        }
    }

    #[test]
    fn beam_loading_shifts_the_equilibrium_with_intensity() {
        // The first-order collective effect: the bunch decelerates itself
        // (loss factor), so the stable position moves to where the RF makes
        // up the loss — the synchronous-phase shift every high-intensity
        // ring must compensate. Track a matched bunch to equilibrium with
        // increasing charge and watch the mean position move.
        use crate::tracker::{MultiParticleTracker, TrackerConfig};
        let op = op();
        let f_rf = op.f_rf();
        let run = |bunch_charge: f64| {
            let e = Ensemble::matched(&BunchSpec::gaussian(12e-9), 2000, &op, 17).unwrap();
            let mut tracker = MultiParticleTracker::new(
                op,
                e,
                TrackerConfig {
                    threads: 1,
                    min_chunk: 1 << 30,
                    backend: crate::kernel::KernelBackend::Auto,
                },
            );
            let mut bl = BeamLoading::new(Resonator::sis18_like(f_rf), bunch_charge, 2000);
            let turns = (op.f_rev() / 1.28e3 * 8.0) as usize;
            let mut tail_mean = 0.0;
            let tail_start = turns * 3 / 4;
            for turn in 0..turns {
                // Induced-voltage kick before the RF kick.
                let t_turn = turn as f64 / op.f_rev();
                let v_ind = bl.passage(&tracker.ensemble, t_turn);
                let q_over_mc2 = op.ion.gamma_per_volt();
                for (g, v) in tracker.ensemble.dgamma.iter_mut().zip(&v_ind) {
                    *g += q_over_mc2 * v;
                }
                tracker.step(0.0);
                if turn >= tail_start {
                    tail_mean += tracker.ensemble.centroid_dt();
                }
            }
            tail_mean / (turns - tail_start) as f64
        };
        let dt_weak = run(1e-12);
        let dt_strong = run(5e-8);
        // Below transition the loss is made up by arriving late (positive
        // gap voltage), so the equilibrium moves to positive dt.
        let shift = dt_strong - dt_weak;
        assert!(
            shift > 0.2e-9,
            "intensity shifts the equilibrium: {dt_weak} -> {dt_strong}"
        );
        // Sanity: predicted shift = <V_ind>/(V_hat * w_rf) — same order.
        let v_loss = Resonator::sis18_like(f_rf).loss_factor() * 5e-8; // ~ mean self-loss
        let predicted = v_loss / (op.v_gap_volts * std::f64::consts::TAU * f_rf);
        assert!(
            shift < predicted * 10.0 && shift > predicted / 10.0,
            "shift {shift} vs predicted order {predicted}"
        );
    }
}
