//! Longitudinal phase-space distributions.
//!
//! The paper's HIL simulator plays back a *Gaussian* beam pulse (Section
//! III-B) and its future work replaces the single macro particle with a
//! particle set. This module generates matched particle ensembles in
//! (Δt, Δγ) used by `cil-reftrack` (the real-beam stand-in for Fig. 5b) and
//! parametric bunch-profile shapes for the pulse generator.

use crate::machine::OperatingPoint;
use crate::synchrotron::{SynchrotronCalc, SynchrotronError};
use rand::distributions::Distribution;
use rand::Rng;

/// Supported bunch profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BunchShape {
    /// Gaussian in both planes — the common SIS18 observation
    /// ("often Gaussian", Section I).
    Gaussian,
    /// Parabolic line density (elliptic in phase space), the textbook
    /// matched distribution for a single-harmonic bucket.
    Parabolic,
}

/// A matched-bunch specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BunchSpec {
    /// Profile family.
    pub shape: BunchShape,
    /// RMS bunch length in seconds (Gaussian) or half-length/√5 (parabolic,
    /// so that `sigma_t` is always the RMS).
    pub sigma_t: f64,
}

impl BunchSpec {
    /// Gaussian bunch with the given RMS length.
    pub fn gaussian(sigma_t: f64) -> Self {
        Self {
            shape: BunchShape::Gaussian,
            sigma_t,
        }
    }

    /// Parabolic bunch with the given RMS length.
    pub fn parabolic(sigma_t: f64) -> Self {
        Self {
            shape: BunchShape::Parabolic,
            sigma_t,
        }
    }

    /// Sample `n` particles matched to the bucket at `op`, returning
    /// `(dt, dgamma)` pairs in SoA form. The energy spread is chosen so the
    /// distribution is stationary under small-amplitude motion.
    pub fn sample<R: Rng>(
        &self,
        n: usize,
        op: &OperatingPoint,
        rng: &mut R,
    ) -> Result<(Vec<f64>, Vec<f64>), SynchrotronError> {
        let calc = SynchrotronCalc::new(op.machine, op.ion);
        let f_rev = op.f_rev();
        let sigma_dg = calc.matched_sigma_dgamma(f_rev, op.v_gap_volts, self.sigma_t)?;
        let mut dts = Vec::with_capacity(n);
        let mut dgs = Vec::with_capacity(n);
        match self.shape {
            BunchShape::Gaussian => {
                let normal_t = rand_normal(self.sigma_t);
                let normal_g = rand_normal(sigma_dg);
                for _ in 0..n {
                    dts.push(normal_t.sample(rng));
                    dgs.push(normal_g.sample(rng));
                }
            }
            BunchShape::Parabolic => {
                // A parabolic line density (1 − u²) corresponds to the
                // phase-space density f(x, y) ∝ √(1 − x² − y²): sample a
                // point uniformly in the 3-ball and keep (x, y). Half-axes
                // √5·σ give RMS σ in each projection (Var(x) = a²/5).
                let a_t = 5.0_f64.sqrt() * self.sigma_t;
                let a_g = 5.0_f64.sqrt() * sigma_dg;
                let mut accepted = 0usize;
                while accepted < n {
                    let x: f64 = rng.gen_range(-1.0..1.0);
                    let y: f64 = rng.gen_range(-1.0..1.0);
                    let z: f64 = rng.gen_range(-1.0..1.0);
                    if x * x + y * y + z * z <= 1.0 {
                        dts.push(x * a_t);
                        dgs.push(y * a_g);
                        accepted += 1;
                    }
                }
            }
        }
        Ok((dts, dgs))
    }

    /// Line-density profile λ(t) sampled on `points` over ±`span_sigmas`·σ,
    /// normalised to peak 1 — the table the Gauss pulse generator plays
    /// back (and its parametric extension, Section VI).
    pub fn profile(&self, points: usize, span_sigmas: f64) -> Vec<f64> {
        assert!(points >= 2);
        let mut out = Vec::with_capacity(points);
        for i in 0..points {
            let x = (i as f64 / (points - 1) as f64 * 2.0 - 1.0) * span_sigmas;
            let v = match self.shape {
                BunchShape::Gaussian => (-0.5 * x * x).exp(),
                BunchShape::Parabolic => {
                    // Parabolic density over half-length √5·σ.
                    let half = 5.0_f64.sqrt();
                    let u = x / half;
                    (1.0 - u * u).max(0.0)
                }
            };
            out.push(v);
        }
        out
    }
}

/// Minimal Box–Muller normal distribution (avoids depending on rand_distr).
#[derive(Debug, Clone, Copy)]
struct Normal {
    sigma: f64,
}

fn rand_normal(sigma: f64) -> Normal {
    Normal { sigma }
}

impl Distribution<f64> for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller; u1 in (0,1] to avoid ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let mag = (-2.0 * u1.ln()).sqrt();
        self.sigma * mag * (std::f64::consts::TAU * u2).cos()
    }
}

/// Summary statistics of an ensemble — used by tests and by the mode
/// diagnostics in [`crate::modes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsembleStats {
    /// Mean of the samples.
    pub mean: f64,
    /// Standard deviation (population).
    pub std: f64,
}

/// Compute mean/std of a slice.
pub fn stats(xs: &[f64]) -> EnsembleStats {
    assert!(!xs.is_empty());
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    EnsembleStats {
        mean,
        std: var.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ion::IonSpecies;
    use crate::machine::MachineParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn op() -> OperatingPoint {
        let m = MachineParams::sis18();
        let ion = IonSpecies::n14_7plus();
        let v = SynchrotronCalc::new(m, ion)
            .voltage_for_fs(800e3, 1.28e3)
            .unwrap();
        OperatingPoint::from_revolution_frequency(m, ion, 800e3, v)
    }

    #[test]
    fn gaussian_sample_has_requested_sigmas() {
        let mut rng = StdRng::seed_from_u64(42);
        let spec = BunchSpec::gaussian(50e-9);
        let (dts, dgs) = spec.sample(200_000, &op(), &mut rng).unwrap();
        let st = stats(&dts);
        assert!(
            (st.std - 50e-9).abs() / 50e-9 < 0.02,
            "sigma_t = {}",
            st.std
        );
        assert!(st.mean.abs() < 2e-9);
        let sg = stats(&dgs);
        assert!(sg.std > 0.0);
    }

    #[test]
    fn parabolic_sample_bounded() {
        let mut rng = StdRng::seed_from_u64(7);
        let spec = BunchSpec::parabolic(50e-9);
        let (dts, _) = spec.sample(50_000, &op(), &mut rng).unwrap();
        let half = 5.0_f64.sqrt() * 50e-9;
        assert!(dts.iter().all(|&t| t.abs() <= half));
        // RMS of a uniformly filled ellipse projection is sigma.
        let st = stats(&dts);
        assert!((st.std - 50e-9).abs() / 50e-9 < 0.03, "sigma = {}", st.std);
    }

    #[test]
    fn gaussian_profile_peak_centered() {
        let p = BunchSpec::gaussian(1.0).profile(101, 4.0);
        assert_eq!(p.len(), 101);
        assert!((p[50] - 1.0).abs() < 1e-12, "peak at centre");
        assert!(p[0] < 1e-3 && p[100] < 1e-3, "tails small at 4 sigma");
        // Symmetry.
        for i in 0..50 {
            assert!((p[i] - p[100 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn parabolic_profile_has_compact_support() {
        let p = BunchSpec::parabolic(1.0).profile(201, 4.0);
        // Beyond sqrt(5)≈2.24 sigma the density is exactly zero.
        assert_eq!(p[0], 0.0);
        assert_eq!(p[200], 0.0);
        assert!(p[100] > 0.99);
    }

    #[test]
    fn stats_of_constant_slice() {
        let s = stats(&[3.0, 3.0, 3.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn matched_bunch_is_nearly_stationary_under_tracking() {
        // Track a matched Gaussian bunch for half a synchrotron period: the
        // RMS length must stay within a few percent (it would breathe at
        // 2·fs if mismatched).
        use crate::tracking::TwoParticleMap;
        // σ_t = 10 ns keeps the bunch well inside the 3.2 MHz bucket
        // (half-length 156 ns), i.e. in the near-linear region where the
        // matching is exact; larger bunches filament (that nonlinear effect
        // is exactly what cil-reftrack studies).
        let op = op();
        let mut rng = StdRng::seed_from_u64(3);
        let (mut dts, mut dgs) = BunchSpec::gaussian(10e-9)
            .sample(20_000, &op, &mut rng)
            .unwrap();
        let turns = (800e3 / 1.28e3 / 2.0) as usize;
        let template = TwoParticleMap::at_operating_point(&op);
        let sigma0 = stats(&dts).std;
        for _ in 0..turns {
            for i in 0..dts.len() {
                let mut m = template;
                m.particle.dt = dts[i];
                m.particle.dgamma = dgs[i];
                m.step_stationary(op.v_gap_volts, 0.0);
                dts[i] = m.particle.dt;
                dgs[i] = m.particle.dgamma;
            }
        }
        let sigma1 = stats(&dts).std;
        assert!(
            (sigma1 - sigma0).abs() / sigma0 < 0.06,
            "sigma drifted {sigma0} -> {sigma1}"
        );
    }
}
