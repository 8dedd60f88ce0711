//! Output checks shared by the workloads.

use cil_core::harness::LoopTrace;
use cil_core::trace::{score_jump_response, TimeSeries};
use cil_core::MdeScenario;

/// The first-peak tolerance: EXPERIMENTS.md reports the response to a
/// phase jump peaking at ≈2× the jump (2.27× signal-level, 2.01× on the
/// multi-particle tracker). A ratio outside 2× ± 20 % is a physics
/// regression, not noise.
pub const FIRST_PEAK_RANGE: (f64, f64) = (1.6, 2.4);

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Where two traces first differ, or `None` when they are bit-identical
/// (every time, phase, actuation and jump edge, the audit events and the
/// outcome).
pub fn trace_difference(a: &LoopTrace, b: &LoopTrace) -> Option<&'static str> {
    if !same_bits(&a.times, &b.times) {
        return Some("row times");
    }
    if a.bunch_phase_deg.len() != b.bunch_phase_deg.len()
        || a.bunch_phase_deg
            .iter()
            .zip(&b.bunch_phase_deg)
            .any(|(x, y)| !same_bits(x, y))
    {
        return Some("per-bunch phases");
    }
    if !same_bits(&a.mean_phase_deg, &b.mean_phase_deg) {
        return Some("mean phases");
    }
    if !same_bits(&a.control_hz, &b.control_hz) {
        return Some("actuation");
    }
    if !same_bits(&a.jump_times, &b.jump_times) {
        return Some("jump times");
    }
    if a.events != b.events {
        return Some("audit events");
    }
    if a.outcome != b.outcome {
        return Some("outcome");
    }
    None
}

/// Zero-order-hold resampling of irregular `(time, value)` rows onto one
/// sample per `dt` — the signal-level executive's display resampling.
pub fn resample(times: &[f64], values: &[f64], dt: f64, duration: f64) -> TimeSeries {
    let n = (duration / dt) as usize;
    let mut out = Vec::with_capacity(n);
    let mut idx = 0usize;
    let mut current = values.first().copied().unwrap_or(0.0);
    for i in 0..n {
        let t = i as f64 * dt;
        while idx < times.len() && times[idx] <= t {
            current = values[idx];
            idx += 1;
        }
        out.push(current);
    }
    TimeSeries::new(0.0, dt, out)
}

/// First-peak ratio of the response to the first jump in `phase` (one
/// sample per revolution), scored up to the next jump edge.
pub fn first_peak_ratio(phase: &TimeSeries, jump_times: &[f64], s: &MdeScenario) -> Option<f64> {
    let &t_jump = jump_times.first()?;
    let t_end = (t_jump + s.jumps.interval_s - 2e-4).min(s.duration_s);
    if t_end <= t_jump {
        return None;
    }
    Some(score_jump_response(phase, t_jump, t_end, s.jumps.amplitude_deg).first_peak_ratio)
}

/// `None` when the first-peak ratio is within [`FIRST_PEAK_RANGE`],
/// otherwise the problem.
pub fn first_peak_problem(what: &str, ratio: Option<f64>) -> Option<String> {
    let (lo, hi) = FIRST_PEAK_RANGE;
    match ratio {
        Some(r) if (lo..=hi).contains(&r) => None,
        Some(r) => Some(format!(
            "{what}: first-peak ratio {r:.3} outside [{lo}, {hi}]"
        )),
        None => Some(format!("{what}: no jump to score in the trace")),
    }
}
