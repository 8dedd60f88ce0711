//! Small IIR building blocks.
//!
//! The beam-phase controller's "recursion factor = 0.99" (Section V) is the
//! pole of a first-order recursive section in the Klingbeil 2007 filter
//! structure. We provide the leaky integrator and a DC blocker — the
//! pieces `cil-core::control` assembles.

/// First-order leaky integrator: `y[n] = r·y[n−1] + (1−r)·x[n]`.
///
/// DC gain is exactly 1; `r` close to 1 gives a long memory. With r = 0.99
/// at the revolution rate this matches the paper's recursion factor.
#[derive(Debug, Clone, Copy)]
pub struct LeakyIntegrator {
    /// Recursion factor r ∈ [0, 1).
    pub r: f64,
    y: f64,
}

impl LeakyIntegrator {
    /// New integrator with recursion factor `r`.
    pub fn new(r: f64) -> Self {
        assert!((0.0..1.0).contains(&r), "r must be in [0, 1)");
        Self { r, y: 0.0 }
    }

    /// Process one sample.
    #[inline]
    pub fn push(&mut self, x: f64) -> f64 {
        self.y = self.r * self.y + (1.0 - self.r) * x;
        self.y
    }

    /// Current output state.
    pub fn state(&self) -> f64 {
        self.y
    }

    /// Reset state to zero.
    pub fn reset(&mut self) {
        self.y = 0.0;
    }

    /// −3 dB cutoff in units of the sample rate: fc ≈ (1−r)/(2π) for r→1.
    pub fn cutoff(&self) -> f64 {
        (1.0 - self.r) / std::f64::consts::TAU
    }
}

/// DC blocker: `y[n] = x[n] − x[n−1] + r·y[n−1]`.
///
/// Removes slowly varying offsets (the constant phase offset the paper notes
/// is irrelevant) while passing the synchrotron-frequency band.
#[derive(Debug, Clone, Copy)]
pub struct DcBlocker {
    /// Pole radius r ∈ [0, 1): closer to 1 = narrower notch at DC.
    pub r: f64,
    x1: f64,
    y1: f64,
}

impl DcBlocker {
    /// New blocker with pole radius `r`.
    pub fn new(r: f64) -> Self {
        assert!((0.0..1.0).contains(&r), "r must be in [0, 1)");
        Self {
            r,
            x1: 0.0,
            y1: 0.0,
        }
    }

    /// Process one sample.
    #[inline]
    pub fn push(&mut self, x: f64) -> f64 {
        let y = x - self.x1 + self.r * self.y1;
        self.x1 = x;
        self.y1 = y;
        y
    }

    /// Reset state.
    pub fn reset(&mut self) {
        self.x1 = 0.0;
        self.y1 = 0.0;
    }

    /// Filter memory `(x[n−1], y[n−1])` — the anti-windup rollback state
    /// the controller checkpoints.
    pub fn state(&self) -> (f64, f64) {
        (self.x1, self.y1)
    }

    /// Restore filter memory captured by [`Self::state`].
    pub fn restore(&mut self, x1: f64, y1: f64) {
        self.x1 = x1;
        self.y1 = y1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaky_integrator_converges_to_dc() {
        let mut li = LeakyIntegrator::new(0.99);
        let mut y = 0.0;
        for _ in 0..2000 {
            y = li.push(5.0);
        }
        assert!((y - 5.0).abs() < 1e-6, "y = {y}");
    }

    #[test]
    fn leaky_integrator_smooths_noise() {
        let mut li = LeakyIntegrator::new(0.99);
        let mut out = Vec::new();
        for i in 0..10_000 {
            let x = if i % 2 == 0 { 1.0 } else { -1.0 };
            out.push(li.push(x));
        }
        let tail_max = out[5000..].iter().fold(0.0_f64, |a, &b| a.max(b.abs()));
        assert!(
            tail_max < 0.02,
            "alternating input almost cancelled: {tail_max}"
        );
    }

    #[test]
    fn dc_blocker_removes_offset_passes_ac() {
        let mut db = DcBlocker::new(0.995);
        let mut out = Vec::new();
        for i in 0..20_000 {
            let x = 3.0 + (std::f64::consts::TAU * 0.05 * i as f64).sin();
            out.push(db.push(x));
        }
        let tail = &out[10_000..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        let rms =
            (tail.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / tail.len() as f64).sqrt();
        assert!(mean.abs() < 1e-3, "DC removed: {mean}");
        assert!(
            (rms - 1.0 / 2.0_f64.sqrt()).abs() < 0.05,
            "AC passed: {rms}"
        );
    }

    #[test]
    fn leaky_cutoff_formula() {
        let li = LeakyIntegrator::new(0.99);
        assert!((li.cutoff() - 0.01 / std::f64::consts::TAU).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn unstable_pole_rejected() {
        let _ = LeakyIntegrator::new(1.0);
    }
}
