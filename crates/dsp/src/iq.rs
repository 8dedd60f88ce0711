//! IQ-demodulation phase measurement.
//!
//! The GSI DSP system of ref. [8] measures bunch phase by quadrature
//! demodulation at the RF harmonic rather than pulse-centroid timing: the
//! input is multiplied by cos/sin local oscillators at h·f_ref, lowpassed,
//! and the phase is `atan2(Q, I)`. This resolves phase continuously (no
//! 4 ns trigger grid) and tracks *any* periodic beam signal, which is why
//! the real instrument prefers it. Provided here as the alternative
//! instrument for the detector-comparison ablation.

use crate::iir::LeakyIntegrator;

/// Streaming IQ demodulator at a fixed analysis frequency.
#[derive(Debug, Clone)]
pub struct IqDemodulator {
    /// Analysis frequency normalised to the sample rate.
    f_norm: f64,
    phase: f64,
    lp_i: LeakyIntegrator,
    lp_q: LeakyIntegrator,
    samples: u64,
    settle: u64,
}

impl IqDemodulator {
    /// New demodulator at `f_hz` with sample rate `fs_hz`; `bandwidth_hz`
    /// sets the lowpass (and thus the measurement response time ≈
    /// 1/(2π·BW)).
    pub fn new(f_hz: f64, fs_hz: f64, bandwidth_hz: f64) -> Self {
        assert!(
            f_hz > 0.0 && f_hz < fs_hz / 2.0,
            "analysis frequency out of band"
        );
        assert!(
            bandwidth_hz > 0.0 && bandwidth_hz < f_hz,
            "bandwidth must sit below f"
        );
        // One-pole lowpass: r = 1 - 2π·BW/fs.
        let r = (1.0 - std::f64::consts::TAU * bandwidth_hz / fs_hz).clamp(0.0, 0.999_999);
        let settle = (fs_hz / bandwidth_hz * 3.0) as u64;
        Self {
            f_norm: f_hz / fs_hz,
            phase: 0.0,
            lp_i: LeakyIntegrator::new(r),
            lp_q: LeakyIntegrator::new(r),
            samples: 0,
            settle,
        }
    }

    /// Feed one sample; returns the current phase estimate in degrees once
    /// the lowpass has settled (`None` during settling).
    #[inline]
    pub fn push(&mut self, x: f64) -> Option<f64> {
        let (s, c) = self.phase.sin_cos();
        self.phase += std::f64::consts::TAU * self.f_norm;
        if self.phase > std::f64::consts::TAU {
            self.phase -= std::f64::consts::TAU;
        }
        let i = self.lp_i.push(x * c);
        let q = self.lp_q.push(x * s);
        self.samples += 1;
        if self.samples < self.settle {
            return None;
        }
        // x = sin(ωt+φ): I = ½sin(φ), Q = ½cos(φ) → φ = atan2(I, Q).
        Some(i.atan2(q).to_degrees())
    }

    /// Magnitude of the demodulated component (amplitude/2 of a matching
    /// sine once settled).
    pub fn magnitude(&self) -> f64 {
        (self.lp_i.state().powi(2) + self.lp_q.state().powi(2)).sqrt()
    }

    /// True once the lowpass has settled.
    pub fn settled(&self) -> bool {
        self.samples >= self.settle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(f: f64, fs: f64, phase_deg: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (std::f64::consts::TAU * f * i as f64 / fs + phase_deg.to_radians()).sin())
            .collect()
    }

    #[test]
    fn measures_absolute_phase_shift() {
        let fs = 250e6;
        let f = 3.2e6;
        let run = |deg: f64| {
            let mut demod = IqDemodulator::new(f, fs, 50e3);
            let mut last = None;
            for x in tone(f, fs, deg, 60_000) {
                if let Some(p) = demod.push(x) {
                    last = Some(p);
                }
            }
            last.unwrap()
        };
        let d = run(25.0) - run(0.0);
        assert!((d - 25.0).abs() < 0.5, "delta = {d}");
    }

    #[test]
    fn magnitude_tracks_amplitude() {
        let fs = 250e6;
        let f = 3.2e6;
        let mut demod = IqDemodulator::new(f, fs, 100e3);
        for x in tone(f, fs, 0.0, 60_000) {
            demod.push(x);
        }
        // Mixer halves the amplitude: |IQ| = A/2.
        assert!(
            (demod.magnitude() - 0.5).abs() < 0.02,
            "{}",
            demod.magnitude()
        );
    }

    #[test]
    fn rejects_off_frequency_component() {
        let fs = 250e6;
        let mut demod = IqDemodulator::new(3.2e6, fs, 20e3);
        // 800 kHz tone only: demodulated magnitude near zero.
        for x in tone(800e3, fs, 0.0, 100_000) {
            demod.push(x);
        }
        assert!(demod.magnitude() < 0.01, "{}", demod.magnitude());
    }

    #[test]
    fn settling_gate_holds_output() {
        let mut demod = IqDemodulator::new(3.2e6, 250e6, 10e3);
        assert!(!demod.settled());
        assert_eq!(demod.push(1.0), None);
    }
}
