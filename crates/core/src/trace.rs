//! Time-series recording and the Fig. 5 summary statistics.
//!
//! Every experiment produces phase-vs-time traces; this module gives them a
//! common shape, CSV export (the artifact the paper's figures are plotted
//! from), the 5-sample averaging display filter of Fig. 5a, and the scalar
//! scores of Section V: measured synchrotron frequency, first-peak ratio
//! after a phase jump, and the closed-loop damping time.

use cil_dsp::fir::FirFilter;

/// A uniformly sampled time series.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Time of the first sample, seconds.
    pub t0: f64,
    /// Sample spacing, seconds.
    pub dt: f64,
    /// Sample values.
    pub values: Vec<f64>,
}

impl TimeSeries {
    /// New series.
    pub fn new(t0: f64, dt: f64, values: Vec<f64>) -> Self {
        assert!(dt > 0.0);
        Self { t0, dt, values }
    }

    /// Time of sample `i`.
    pub fn time_at(&self, i: usize) -> f64 {
        self.t0 + self.dt * i as f64
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample rate, Hz.
    pub fn sample_rate(&self) -> f64 {
        1.0 / self.dt
    }

    /// Apply the Fig. 5a display filter: a moving average of `width`
    /// samples ("An averaging filter with a width of 5 samples has been
    /// applied").
    pub fn averaged(&self, width: usize) -> TimeSeries {
        let mut f = FirFilter::moving_average(width);
        TimeSeries {
            t0: self.t0,
            dt: self.dt,
            values: f.filter(&self.values),
        }
    }

    /// Slice between two times (inclusive start, exclusive end).
    pub fn window(&self, t_start: f64, t_end: f64) -> TimeSeries {
        assert!(t_end > t_start);
        let i0 = (((t_start - self.t0) / self.dt).ceil().max(0.0)) as usize;
        let i1 = ((((t_end - self.t0) / self.dt).floor()).max(0.0) as usize).min(self.len());
        TimeSeries {
            t0: self.time_at(i0),
            dt: self.dt,
            values: self.values.get(i0..i1).unwrap_or(&[]).to_vec(),
        }
    }

    /// Mean value.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Peak-to-peak amplitude.
    pub fn peak_to_peak(&self) -> f64 {
        let max = self.values.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.values.iter().cloned().fold(f64::MAX, f64::min);
        max - min
    }

    /// Dominant oscillation frequency in `[f_lo, f_hi]` Hz, via the DSP
    /// spectrum scan. Returns `(frequency_hz, amplitude)`.
    pub fn dominant_frequency(&self, f_lo: f64, f_hi: f64) -> (f64, f64) {
        let fs = self.sample_rate();
        let (f, a) = cil_dsp::spectrum::dominant_frequency(
            &self.values,
            (f_lo / fs).max(0.0),
            (f_hi / fs).min(0.5),
        );
        (f * fs, a)
    }

    /// CSV export with a `time,value` header — the plotting artifact.
    pub fn to_csv(&self) -> String {
        let mut s = String::with_capacity(self.len() * 24 + 16);
        s.push_str("time_s,value\n");
        for (i, v) in self.values.iter().enumerate() {
            s.push_str(&format!("{:.9},{:.9}\n", self.time_at(i), v));
        }
        s
    }

    /// Parse the CSV format produced by [`Self::to_csv`].
    pub fn from_csv(csv: &str) -> Result<Self, String> {
        let mut times = Vec::new();
        let mut values = Vec::new();
        for (ln, line) in csv.lines().enumerate() {
            if ln == 0 {
                continue; // header
            }
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split(',');
            let t: f64 = parts
                .next()
                .ok_or_else(|| format!("line {ln}: missing time"))?
                .trim()
                .parse()
                .map_err(|e| format!("line {ln}: {e}"))?;
            let v: f64 = parts
                .next()
                .ok_or_else(|| format!("line {ln}: missing value"))?
                .trim()
                .parse()
                .map_err(|e| format!("line {ln}: {e}"))?;
            times.push(t);
            values.push(v);
        }
        if times.len() < 2 {
            return Err("need at least two samples".into());
        }
        let dt = times[1] - times[0];
        if dt <= 0.0 {
            return Err("non-increasing time column".into());
        }
        Ok(Self {
            t0: times[0],
            dt,
            values,
        })
    }
}

/// Scores of a phase-jump response (one jump event within a trace), the
/// Section V observables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JumpResponse {
    /// Phase level before the jump (deg).
    pub baseline_deg: f64,
    /// First extremum after the jump, relative to the baseline (deg).
    pub first_peak_deg: f64,
    /// Ratio |first peak| / jump amplitude — ≈ 2 per the paper.
    pub first_peak_ratio: f64,
    /// Oscillation amplitude in the final quarter of the window, relative
    /// to the *initial oscillation amplitude* (half the first-peak
    /// deviation — a jump response swings from 0 to 2× around the shifted
    /// equilibrium). ≈ 1 undamped, ≈ 0 when the loop damps well.
    pub residual_ratio: f64,
    /// e-folding damping time (s), if the envelope decays.
    pub damping_time_s: Option<f64>,
}

/// Score the response to a jump of `jump_deg` occurring at `t_jump` within
/// `trace`; the analysis window extends to `t_end`.
pub fn score_jump_response(
    trace: &TimeSeries,
    t_jump: f64,
    t_end: f64,
    jump_deg: f64,
) -> JumpResponse {
    assert!(jump_deg > 0.0);
    let pre = trace.window((t_jump - 5e-3).max(trace.t0), t_jump);
    let baseline = if pre.is_empty() { 0.0 } else { pre.mean() };
    let post = trace.window(t_jump, t_end);
    assert!(!post.is_empty(), "empty post-jump window");

    // First extremum relative to baseline. The early exit only arms once
    // the excursion clearly exceeds the jump amplitude, so baseline ringing
    // (quantisation noise pumped by the pipelined kernel) cannot truncate
    // the search before the real swing.
    let mut first_peak = 0.0f64;
    for &v in &post.values {
        let dev = v - baseline;
        if dev.abs() > first_peak.abs() {
            first_peak = dev;
        } else if first_peak.abs() > jump_deg && dev.abs() < first_peak.abs() * 0.7 {
            break; // past the first swing
        }
    }

    let quarter = post.len() / 4;
    let tail = TimeSeries {
        t0: 0.0,
        dt: post.dt,
        values: post.values[post.len() - quarter.max(2)..].to_vec(),
    };
    let residual = tail.peak_to_peak() / 2.0;
    let damping = cil_physics::modes::damping_time_turns(&post.values).map(|turns| turns * post.dt);
    JumpResponse {
        baseline_deg: baseline,
        first_peak_deg: first_peak,
        first_peak_ratio: first_peak.abs() / jump_deg,
        residual_ratio: if first_peak != 0.0 {
            residual / (first_peak.abs() / 2.0)
        } else {
            0.0
        },
        damping_time_s: damping,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_series() -> TimeSeries {
        TimeSeries::new(1.0, 0.5, vec![0.0, 1.0, 2.0, 3.0])
    }

    #[test]
    fn indexing_and_times() {
        let s = ramp_series();
        assert_eq!(s.len(), 4);
        assert_eq!(s.time_at(2), 2.0);
        assert_eq!(s.sample_rate(), 2.0);
    }

    #[test]
    fn window_selects_by_time() {
        let s = ramp_series();
        let w = s.window(1.4, 2.6);
        assert_eq!(w.values, vec![1.0, 2.0]);
        assert_eq!(w.t0, 1.5);
    }

    #[test]
    fn csv_roundtrip() {
        let s = ramp_series();
        let back = TimeSeries::from_csv(&s.to_csv()).unwrap();
        assert_eq!(back.len(), s.len());
        assert!((back.dt - s.dt).abs() < 1e-12);
        for (a, b) in back.values.iter().zip(&s.values) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(TimeSeries::from_csv("time,value\nx,y\n").is_err());
        assert!(
            TimeSeries::from_csv("time,value\n1.0,2.0\n").is_err(),
            "one sample"
        );
    }

    #[test]
    fn averaging_filter_smooths() {
        let mut values = Vec::new();
        for i in 0..100 {
            values.push(if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        let s = TimeSeries::new(0.0, 1.0, values);
        let a = s.averaged(2);
        let tail_max = a.values[2..]
            .iter()
            .cloned()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(tail_max < 1e-12);
    }

    #[test]
    fn dominant_frequency_in_hz() {
        let fs = 1000.0;
        let f = 37.0;
        let values: Vec<f64> = (0..4096)
            .map(|i| (std::f64::consts::TAU * f * i as f64 / fs).sin())
            .collect();
        let s = TimeSeries::new(0.0, 1.0 / fs, values);
        let (fm, am) = s.dominant_frequency(10.0, 100.0);
        assert!((fm - f).abs() < 0.5, "f = {fm}");
        assert!((am - 1.0).abs() < 0.05);
    }

    fn jump_trace(jump: f64, damping: f64) -> TimeSeries {
        // Baseline 3 deg; jump at t=0.05: oscillation around (3 - jump)
        // starting from 3, i.e. first peak ≈ 2*jump below baseline.
        let fs = 100e3;
        let f_s = 1.28e3;
        let n = (0.1 * fs) as usize;
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                if t < 0.05 {
                    3.0
                } else {
                    let tau = t - 0.05;
                    3.0 - jump
                        + jump * (std::f64::consts::TAU * f_s * tau).cos() * (-tau / damping).exp()
                }
            })
            .collect();
        TimeSeries::new(0.0, 1.0 / fs, values)
    }

    #[test]
    fn jump_scoring_finds_two_to_one_peak() {
        let s = jump_trace(8.0, 5e-3);
        let r = score_jump_response(&s, 0.05, 0.1, 8.0);
        assert!((r.baseline_deg - 3.0).abs() < 0.01);
        // First extremum is -2*jump relative to baseline.
        assert!(
            (r.first_peak_ratio - 2.0).abs() < 0.15,
            "ratio {}",
            r.first_peak_ratio
        );
        assert!(r.first_peak_deg < 0.0);
        assert!(r.residual_ratio < 0.05, "well damped tail");
        let tau = r.damping_time_s.expect("damped");
        assert!((tau - 5e-3).abs() < 2e-3, "tau {tau}");
    }

    #[test]
    fn undamped_jump_has_large_residual() {
        let s = jump_trace(8.0, f64::INFINITY);
        let r = score_jump_response(&s, 0.05, 0.1, 8.0);
        assert!(r.residual_ratio > 0.8, "residual {}", r.residual_ratio);
    }
}
