//! Longitudinal oscillation-mode diagnostics.
//!
//! The paper's evaluation concerns the *dipole* mode (the bunch centre
//! oscillating around the RF zero crossing); its future work targets
//! *quadrupole* (bunch-length breathing) and higher modes. This module
//! extracts mode amplitudes from ensemble trajectories so those experiments
//! can be scored quantitatively.

/// Time series of ensemble moments, one entry per revolution.
#[derive(Debug, Clone, Default)]
pub struct MomentHistory {
    /// Centroid ⟨Δt⟩ per turn, seconds — the dipole coordinate.
    pub centroid: Vec<f64>,
    /// RMS bunch length per turn, seconds — the quadrupole coordinate.
    pub rms: Vec<f64>,
}

impl MomentHistory {
    /// Record one turn's moments from particle arrival times.
    pub fn push_from_particles(&mut self, dts: &[f64]) {
        let n = dts.len() as f64;
        let mean = dts.iter().sum::<f64>() / n;
        let var = dts.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / n;
        self.centroid.push(mean);
        self.rms.push(var.sqrt());
    }

    /// Number of recorded turns.
    pub fn len(&self) -> usize {
        self.centroid.len()
    }

    /// True if no turns have been recorded.
    pub fn is_empty(&self) -> bool {
        self.centroid.is_empty()
    }
}

/// Result of a single-mode analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeAnalysis {
    /// Dominant oscillation frequency in units of 1/turn.
    pub frequency_per_turn: f64,
    /// Peak amplitude of the oscillating component (same units as input).
    pub amplitude: f64,
    /// Mean (DC) level that the oscillation rides on.
    pub mean: f64,
}

/// Estimate the dominant oscillation of a (detrended) series by scanning a
/// dense frequency grid with the Goertzel-style projection
/// `A(f) = |Σ x_n e^{-2πi f n}|·2/N`.
///
/// `f_min`/`f_max` bound the search in cycles/turn. Designed for the short,
/// noisy traces the Fig. 5 experiments produce; resolution is refined by a
/// three-point parabolic interpolation around the grid peak.
pub fn analyze_mode(series: &[f64], f_min: f64, f_max: f64) -> ModeAnalysis {
    assert!(series.len() >= 8, "need at least 8 samples");
    assert!(f_min >= 0.0 && f_max > f_min && f_max <= 0.5);
    let n = series.len();
    let mean = series.iter().sum::<f64>() / n as f64;

    let grid = 512usize;
    let mut best = (0usize, 0.0_f64);
    let mut amps = vec![0.0_f64; grid];
    for (k, amp_slot) in amps.iter_mut().enumerate() {
        let f = f_min + (f_max - f_min) * k as f64 / (grid - 1) as f64;
        let (mut re, mut im) = (0.0_f64, 0.0_f64);
        for (i, &x) in series.iter().enumerate() {
            let ph = std::f64::consts::TAU * f * i as f64;
            let v = x - mean;
            re += v * ph.cos();
            im -= v * ph.sin();
        }
        let a = 2.0 * (re * re + im * im).sqrt() / n as f64;
        *amp_slot = a;
        if a > best.1 {
            best = (k, a);
        }
    }
    // Parabolic refinement of the peak bin.
    let k = best.0;
    let df = (f_max - f_min) / (grid - 1) as f64;
    let f_peak = if k > 0 && k < grid - 1 {
        let (a0, a1, a2) = (amps[k - 1], amps[k], amps[k + 1]);
        let denom = a0 - 2.0 * a1 + a2;
        let delta = if denom.abs() > 1e-30 {
            0.5 * (a0 - a2) / denom
        } else {
            0.0
        };
        f_min + (k as f64 + delta.clamp(-0.5, 0.5)) * df
    } else {
        f_min + k as f64 * df
    };
    ModeAnalysis {
        frequency_per_turn: f_peak,
        amplitude: best.1,
        mean,
    }
}

/// Exponential-decay fit of the envelope of an oscillating series:
/// returns the damping time constant in turns, from a least-squares line fit
/// to `ln |peaks|`. Returns `None` if fewer than 3 peaks are found or the
/// envelope is not decaying.
pub fn damping_time_turns(series: &[f64]) -> Option<f64> {
    let mean = series.iter().sum::<f64>() / series.len() as f64;
    // Collect local maxima of |x - mean|.
    let mut peaks: Vec<(f64, f64)> = Vec::new();
    for i in 1..series.len() - 1 {
        let a = (series[i - 1] - mean).abs();
        let b = (series[i] - mean).abs();
        let c = (series[i + 1] - mean).abs();
        if b >= a && b > c && b > 0.0 {
            peaks.push((i as f64, b.ln()));
        }
    }
    if peaks.len() < 3 {
        return None;
    }
    // Least-squares slope of ln|peak| vs turn.
    let n = peaks.len() as f64;
    let sx: f64 = peaks.iter().map(|p| p.0).sum();
    let sy: f64 = peaks.iter().map(|p| p.1).sum();
    let sxx: f64 = peaks.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = peaks.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-30 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    if slope >= 0.0 {
        None // growing or flat envelope
    } else {
        Some(-1.0 / slope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(n: usize, f: f64, amp: f64, mean: f64, decay: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                mean + amp
                    * (std::f64::consts::TAU * f * i as f64).sin()
                    * (-(i as f64) / decay).exp()
            })
            .collect()
    }

    #[test]
    fn analyze_recovers_frequency_and_amplitude() {
        let s = synth(4096, 0.0123, 2.5, 10.0, f64::INFINITY);
        let m = analyze_mode(&s, 0.001, 0.05);
        assert!(
            (m.frequency_per_turn - 0.0123).abs() < 1e-4,
            "f = {}",
            m.frequency_per_turn
        );
        assert!((m.amplitude - 2.5).abs() < 0.05, "A = {}", m.amplitude);
        // Mean over a non-integer number of periods carries a small O(A/N)
        // leakage term.
        assert!((m.mean - 10.0).abs() < 0.05);
    }

    #[test]
    fn analyze_two_tone_picks_dominant() {
        let mut s = synth(4096, 0.010, 3.0, 0.0, f64::INFINITY);
        let weak = synth(4096, 0.020, 0.5, 0.0, f64::INFINITY);
        for i in 0..s.len() {
            s[i] += weak[i];
        }
        let m = analyze_mode(&s, 0.005, 0.03);
        assert!((m.frequency_per_turn - 0.010).abs() < 5e-4);
    }

    #[test]
    fn damping_time_recovered() {
        let s = synth(8000, 0.01, 1.0, 0.0, 1500.0);
        let tau = damping_time_turns(&s).expect("decaying envelope");
        assert!((tau - 1500.0).abs() / 1500.0 < 0.1, "tau = {tau}");
    }

    #[test]
    fn growing_envelope_returns_none() {
        let s: Vec<f64> = (0..4000)
            .map(|i| (std::f64::consts::TAU * 0.01 * i as f64).sin() * (i as f64 / 1000.0).exp())
            .collect();
        assert_eq!(damping_time_turns(&s), None);
    }

    #[test]
    fn moment_history_tracks_centroid_and_rms() {
        let mut h = MomentHistory::default();
        h.push_from_particles(&[1.0, 3.0]);
        h.push_from_particles(&[-1.0, 1.0]);
        assert_eq!(h.len(), 2);
        assert_eq!(h.centroid[0], 2.0);
        assert_eq!(h.centroid[1], 0.0);
        assert!((h.rms[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quadrupole_mode_visible_in_rms() {
        // Breathe the RMS at f=0.02: rms_n = 1 + 0.1 sin(2π f n).
        let mut h = MomentHistory::default();
        for i in 0..2048 {
            let r = 1.0 + 0.1 * (std::f64::consts::TAU * 0.02 * i as f64).sin();
            // Two symmetric particles at ±r give rms = r, centroid 0.
            h.push_from_particles(&[-r, r]);
        }
        let dip = analyze_mode(&h.centroid, 0.001, 0.1);
        let quad = analyze_mode(&h.rms, 0.001, 0.1);
        assert!(dip.amplitude < 1e-9, "no dipole motion");
        assert!((quad.frequency_per_turn - 0.02).abs() < 1e-3);
        assert!((quad.amplitude - 0.1).abs() < 5e-3);
    }
}
