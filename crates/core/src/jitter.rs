//! Output-timing jitter models (the Section I motivation).
//!
//! "After several investigations, we decided that a pure software based
//! solution … is not feasible. In principle it could be fast enough, but
//! the time jitter induced by the microarchitecture and the interfacing to
//! the sensors was too high."
//!
//! We model the distribution of the *output-pulse timing error* for three
//! implementations of the same per-revolution computation:
//!
//! * CGRA/FPGA path: fully deterministic pipeline; the only error is the
//!   quantisation of the trigger instant to the 250 MHz sample grid
//!   (uniform within ±2 ns).
//! * Real-time-tuned software (kernel-bypass, pinned cores): Gaussian
//!   microarchitectural noise (caches, DRAM, SMIs) of a few hundred ns.
//! * General-purpose OS loop: the same plus a heavy scheduling tail
//!   (log-normal, tens of µs) — occasional timer/softirq preemption.
//!
//! The distributions are synthetic but parameterised on published
//! cyclictest-class figures; the *comparison* (deterministic grid-bounded
//! vs unbounded-tail) is the paper's point, and the experiment M1 scores it
//! against [`HARD_BUDGET_S`], 1 % of the 0.7 µs minimum revolution period.

use rand::Rng;

/// Hard output-timing budget (s) the M1 jitter table scores against: 1 % of
/// the minimum revolution period T_R,min ≈ 0.7 µs (SIS18 at its ≈ 1.4 MHz
/// maximum revolution frequency), i.e. 7 ns — under two samples of the
/// 250 MHz grid.
pub const HARD_BUDGET_S: f64 = 7e-9;

/// An implementation whose output timing we model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Implementation {
    /// The CGRA-based simulator (the paper's system).
    CgraFpga,
    /// A tuned real-time software loop (PREEMPT_RT-class).
    RealtimeSoftware,
    /// A general-purpose OS userspace loop.
    GeneralPurposeSoftware,
}

/// Jitter model parameters for one implementation.
#[derive(Debug, Clone, Copy)]
pub struct JitterModel {
    /// Which implementation this models.
    pub implementation: Implementation,
    /// Half-width of the uniform quantisation component, seconds.
    pub quantisation_half_width: f64,
    /// RMS of the Gaussian noise component, seconds.
    pub gaussian_rms: f64,
    /// Log-normal tail: probability per event that a scheduling stall hits.
    pub tail_probability: f64,
    /// Median of the stall magnitude, seconds.
    pub tail_median: f64,
    /// Log-normal sigma (in ln-space) of the stall magnitude.
    pub tail_sigma: f64,
}

impl JitterModel {
    /// Model for an implementation.
    pub fn for_implementation(imp: Implementation) -> Self {
        match imp {
            Implementation::CgraFpga => Self {
                implementation: imp,
                // ±half a 250 MHz sample: the trigger rounds to the grid.
                quantisation_half_width: 2e-9,
                gaussian_rms: 0.0,
                tail_probability: 0.0,
                tail_median: 0.0,
                tail_sigma: 0.0,
            },
            Implementation::RealtimeSoftware => Self {
                implementation: imp,
                quantisation_half_width: 0.0,
                gaussian_rms: 300e-9,
                tail_probability: 1e-4,
                tail_median: 5e-6,
                tail_sigma: 0.5,
            },
            Implementation::GeneralPurposeSoftware => Self {
                implementation: imp,
                quantisation_half_width: 0.0,
                gaussian_rms: 1.5e-6,
                tail_probability: 5e-3,
                tail_median: 30e-6,
                tail_sigma: 1.0,
            },
        }
    }

    /// Draw one output-timing error (seconds, absolute value is the lateness
    /// magnitude; quantisation can be early or late).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let mut e = 0.0;
        if self.quantisation_half_width > 0.0 {
            e += rng.gen_range(-self.quantisation_half_width..self.quantisation_half_width);
        }
        if self.gaussian_rms > 0.0 {
            e += gauss(rng) * self.gaussian_rms;
        }
        if self.tail_probability > 0.0 && rng.gen::<f64>() < self.tail_probability {
            // Log-normal stall, always late.
            let z = gauss(rng);
            e += self.tail_median * (self.tail_sigma * z).exp();
        }
        e
    }

    /// Summarise `n` draws: (rms, p999 |error|, worst |error|).
    pub fn summarize<R: Rng>(&self, n: usize, rng: &mut R) -> JitterSummary {
        assert!(n >= 1000);
        let mut errs: Vec<f64> = (0..n).map(|_| self.sample(rng).abs()).collect();
        errs.sort_by(|a, b| a.total_cmp(b));
        let rms = (errs.iter().map(|e| e * e).sum::<f64>() / n as f64).sqrt();
        JitterSummary {
            implementation: self.implementation,
            rms,
            p999: errs[(n as f64 * 0.999) as usize],
            worst: errs[n - 1],
        }
    }
}

/// Jitter statistics of one implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterSummary {
    /// Which implementation.
    pub implementation: Implementation,
    /// RMS timing error, seconds.
    pub rms: f64,
    /// 99.9th percentile |error|.
    pub p999: f64,
    /// Worst observed |error|.
    pub worst: f64,
}

impl JitterSummary {
    /// Hard-real-time verdict against a deadline budget: the worst-case
    /// error must stay below `budget` (e.g. [`HARD_BUDGET_S`]).
    pub fn meets_budget(&self, budget: f64) -> bool {
        self.worst < budget
    }
}

fn gauss<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn summary(imp: Implementation) -> JitterSummary {
        let mut rng = StdRng::seed_from_u64(1234);
        JitterModel::for_implementation(imp).summarize(200_000, &mut rng)
    }

    #[test]
    fn cgra_jitter_bounded_by_sample_grid() {
        let s = summary(Implementation::CgraFpga);
        assert!(s.worst <= 2e-9, "worst {}", s.worst);
        // Uniform ±2 ns → RMS = 2/√3 ns.
        assert!(
            (s.rms - 2e-9 / 3.0f64.sqrt()).abs() < 0.1e-9,
            "rms {}",
            s.rms
        );
    }

    #[test]
    fn software_has_heavy_tail() {
        let s = summary(Implementation::GeneralPurposeSoftware);
        assert!(s.p999 > 10e-6, "p999 {}", s.p999);
        assert!(s.worst > s.rms * 5.0, "tail dominates worst case");
    }

    #[test]
    fn ordering_matches_motivation() {
        let cgra = summary(Implementation::CgraFpga);
        let rt = summary(Implementation::RealtimeSoftware);
        let gp = summary(Implementation::GeneralPurposeSoftware);
        assert!(cgra.rms < rt.rms && rt.rms < gp.rms);
        assert!(cgra.worst < rt.worst && rt.worst < gp.worst);
    }

    #[test]
    fn only_cgra_meets_sub_revolution_budget() {
        let budget = HARD_BUDGET_S;
        assert!(summary(Implementation::CgraFpga).meets_budget(budget));
        assert!(!summary(Implementation::RealtimeSoftware).meets_budget(budget));
        assert!(!summary(Implementation::GeneralPurposeSoftware).meets_budget(budget));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = JitterModel::for_implementation(Implementation::GeneralPurposeSoftware);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(m.sample(&mut a), m.sample(&mut b));
        }
    }
}
