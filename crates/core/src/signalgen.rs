//! Signal generation side of the test bench (Fig. 4).
//!
//! Three synchronised DDS modules generate the RF signals; the phase jump is
//! injected into the gap DDS through an AWG → CEL (optical) path with a
//! fixed latency; the beam-phase controller additionally trims the gap DDS
//! frequency. This module bundles those sources into a [`SignalBench`]
//! producing one (reference, gap) voltage pair per system-clock sample.

use cil_dsp::dds::Dds;

/// The phase-jump program of the evaluation: the AWG toggles a phase offset
/// on and off at a fixed interval ("The phase jump was toggled every
/// twentieth of a second", amplitude 8°).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseJumpProgram {
    /// Jump amplitude, degrees (8° in the test setup, 10° in the MDE).
    pub amplitude_deg: f64,
    /// Toggle interval, seconds (0.05 s).
    pub interval_s: f64,
    /// CEL/optical-path latency between command and effect, seconds.
    pub path_latency_s: f64,
}

impl PhaseJumpProgram {
    /// The evaluation's program: 8° every 0.05 s, ~200 ns optical path.
    pub fn evaluation_default() -> Self {
        Self {
            amplitude_deg: 8.0,
            interval_s: 0.05,
            path_latency_s: 200e-9,
        }
    }

    /// Phase offset (degrees) in effect at time `t` (seconds).
    pub fn offset_deg_at(&self, t: f64) -> f64 {
        let t_eff = t - self.path_latency_s;
        if t_eff < 0.0 {
            return 0.0;
        }
        let phase_idx = (t_eff / self.interval_s) as u64;
        if phase_idx % 2 == 1 {
            self.amplitude_deg
        } else {
            0.0
        }
    }

    /// Index of the toggle interval in effect at time `t` — the quantity
    /// [`Self::offset_deg_at`] takes the parity of, computed the same way
    /// (`None` before the optical path delivers). Monotone in `t`, so a
    /// sample-clocked consumer can locate the next change by bisection.
    fn interval_index_at(&self, t: f64) -> Option<u64> {
        let t_eff = t - self.path_latency_s;
        if t_eff < 0.0 {
            return None;
        }
        Some((t_eff / self.interval_s) as u64)
    }

    /// Time of the next toggle edge strictly after `t`.
    pub fn next_toggle_after(&self, t: f64) -> f64 {
        let t_eff = (t - self.path_latency_s).max(0.0);
        let idx = (t_eff / self.interval_s).floor() + 1.0;
        idx * self.interval_s + self.path_latency_s
    }
}

/// The synchronised signal bench: reference DDS at f_rev, gap DDS at
/// h·f_rev, a jump program and a controller-driven frequency trim.
#[derive(Debug, Clone)]
pub struct SignalBench {
    /// Reference DDS (undisturbed, "follows the revolution frequency set
    /// values in an undisturbed way").
    pub reference: Dds,
    /// Gap DDS (receives jumps and control action).
    pub gap: Dds,
    /// The AWG jump program (fixed at construction: the edge schedule
    /// below is derived from it).
    jumps: PhaseJumpProgram,
    /// Harmonic number h.
    pub harmonic: u32,
    sample_rate: f64,
    sample: u64,
    /// Next sample at which the jump program must be evaluated: the first
    /// sample whose toggle interval differs from the last evaluated one
    /// (`u64::MAX` = never). Between edges the offset cannot change, so the
    /// per-sample path is one compare.
    jump_edge: u64,
    /// Currently applied jump offset (deg) so that toggles are edges.
    applied_jump_deg: f64,
    /// Controller frequency trim currently applied to the gap DDS, Hz.
    ctrl_freq_offset: f64,
    base_gap_freq: f64,
    base_gap_amp: f64,
    /// Cavity voltage scale in force (fault collapse × compensation boost).
    cavity_scale: f64,
    /// Cavity detune currently shifting the gap DDS, Hz.
    cavity_detune_hz: f64,
}

impl SignalBench {
    /// New bench at revolution frequency `f_rev`, harmonic `h`, given DDS
    /// amplitudes (volts at the ADC inputs).
    pub fn new(
        sample_rate: f64,
        f_rev: f64,
        harmonic: u32,
        amp_ref: f64,
        amp_gap: f64,
        jumps: PhaseJumpProgram,
    ) -> Self {
        let mut reference = Dds::standard(sample_rate);
        reference.set_frequency(f_rev);
        reference.set_amplitude(amp_ref);
        let mut gap = Dds::standard(sample_rate);
        let f_gap = f_rev * f64::from(harmonic);
        gap.set_frequency(f_gap);
        gap.set_amplitude(amp_gap);
        // Synchronised reset (the mini control system of Fig. 4).
        reference.sync_reset();
        gap.sync_reset();
        Self {
            reference,
            gap,
            jumps,
            harmonic,
            sample_rate,
            sample: 0,
            jump_edge: 0,
            applied_jump_deg: 0.0,
            ctrl_freq_offset: 0.0,
            base_gap_freq: f_gap,
            base_gap_amp: amp_gap,
            cavity_scale: 1.0,
            cavity_detune_hz: 0.0,
        }
    }

    /// Apply a controller frequency trim (Hz at the gap/RF frequency).
    pub fn set_control_frequency_offset(&mut self, df: f64) {
        if df != self.ctrl_freq_offset {
            self.ctrl_freq_offset = df;
            self.apply_gap_frequency();
        }
    }

    /// Currently applied controller trim, Hz.
    pub fn control_frequency_offset(&self) -> f64 {
        self.ctrl_freq_offset
    }

    /// Cavity plant command: scale the gap amplitude (fault collapse ×
    /// compensation boost) and detune the gap DDS. Edge-applied so an
    /// unchanged command leaves the DDS untouched; a healthy plant
    /// (`scale = 1`, `detune = 0`) never perturbs the fault-free signal.
    pub fn set_cavity(&mut self, scale: f64, detune_hz: f64) {
        assert!(scale.is_finite() && scale >= 0.0, "cavity scale {scale}");
        assert!(detune_hz.is_finite(), "cavity detune {detune_hz}");
        if scale != self.cavity_scale {
            self.cavity_scale = scale;
            self.gap.set_amplitude(self.base_gap_amp * scale);
        }
        if detune_hz != self.cavity_detune_hz {
            self.cavity_detune_hz = detune_hz;
            self.apply_gap_frequency();
        }
    }

    fn apply_gap_frequency(&mut self) {
        self.gap.set_frequency(
            (self.base_gap_freq + self.ctrl_freq_offset + self.cavity_detune_hz).max(0.0),
        );
    }

    /// Produce the next (reference, gap) sample pair.
    #[inline]
    pub fn tick(&mut self) -> (f64, f64) {
        if self.sample >= self.jump_edge {
            self.apply_jump_program();
        }
        self.sample += 1;
        (self.reference.tick(), self.gap.tick())
    }

    /// Edge-apply the jump program at the current sample and schedule the
    /// next evaluation. Evaluating at any sample is idempotent, so an early
    /// evaluation (construction, restore) is always safe.
    #[cold]
    fn apply_jump_program(&mut self) {
        let want = self
            .jumps
            .offset_deg_at(self.sample as f64 / self.sample_rate);
        if want != self.applied_jump_deg {
            self.gap.jump_phase_deg(want - self.applied_jump_deg);
            self.applied_jump_deg = want;
        }
        self.jump_edge = self.next_jump_edge(self.sample);
    }

    /// The first sample after `n` whose toggle interval differs from `n`'s,
    /// or `u64::MAX` if there is none. The interval index is monotone in
    /// the sample index (every step of its computation is), so "changed
    /// since `n`" is false up to the edge and true from it on: gallop ahead
    /// to a changed sample, then bisect back to the first one. About
    /// 2·log2(interval in samples) probes per edge.
    fn next_jump_edge(&self, n: u64) -> u64 {
        let index_at = |k: u64| self.jumps.interval_index_at(k as f64 / self.sample_rate);
        let here = index_at(n);
        // `lo` has not changed, `hi` has.
        let mut lo = n;
        let mut step = 1u64;
        let mut hi = loop {
            let k = lo.saturating_add(step);
            if index_at(k) != here {
                break k;
            }
            if k == u64::MAX {
                return u64::MAX;
            }
            lo = k;
            step = step.saturating_mul(2);
        };
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if index_at(mid) != here {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// Current bench time, seconds.
    pub fn time(&self) -> f64 {
        self.sample as f64 / self.sample_rate
    }

    /// Currently applied jump offset (degrees).
    pub fn applied_jump_deg(&self) -> f64 {
        self.applied_jump_deg
    }

    /// Snapshot the bench's dynamic state (DDS phase accumulators, sample
    /// clock, edge-applied jump offset, controller trim). The jump program,
    /// harmonic and amplitudes are configuration and are rebuilt.
    pub fn state(&self) -> SignalBenchState {
        SignalBenchState {
            reference: self.reference.state(),
            gap: self.gap.state(),
            sample: self.sample,
            applied_jump_deg: self.applied_jump_deg,
            ctrl_freq_offset: self.ctrl_freq_offset,
            cavity_scale: self.cavity_scale,
            cavity_detune_hz: self.cavity_detune_hz,
        }
    }

    /// Restore a state captured by [`Self::state`]. Writes the DDS states
    /// directly (including the gap increment, which already carries the
    /// controller trim), so `ctrl_freq_offset` is set without re-deriving
    /// the gap frequency.
    pub fn restore(&mut self, state: &SignalBenchState) {
        self.reference.restore(&state.reference);
        self.gap.restore(&state.gap);
        self.sample = state.sample;
        // Re-derive the edge schedule: evaluate on the next tick.
        self.jump_edge = state.sample;
        self.applied_jump_deg = state.applied_jump_deg;
        self.ctrl_freq_offset = state.ctrl_freq_offset;
        self.cavity_scale = state.cavity_scale;
        self.cavity_detune_hz = state.cavity_detune_hz;
    }
}

/// Checkpointable state of a [`SignalBench`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalBenchState {
    /// Reference DDS state.
    pub reference: cil_dsp::dds::DdsState,
    /// Gap DDS state (its increment carries the controller trim).
    pub gap: cil_dsp::dds::DdsState,
    /// Sample clock.
    pub sample: u64,
    /// Edge-applied jump offset, degrees.
    pub applied_jump_deg: f64,
    /// Controller frequency trim in force, Hz.
    pub ctrl_freq_offset: f64,
    /// Cavity voltage scale in force (1.0 = healthy plant).
    pub cavity_scale: f64,
    /// Cavity detune in force, Hz (0.0 = on tune).
    pub cavity_detune_hz: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jump_program_toggles_every_interval() {
        let p = PhaseJumpProgram {
            amplitude_deg: 8.0,
            interval_s: 0.05,
            path_latency_s: 0.0,
        };
        assert_eq!(p.offset_deg_at(0.01), 0.0);
        assert_eq!(p.offset_deg_at(0.06), 8.0);
        assert_eq!(p.offset_deg_at(0.11), 0.0);
        assert_eq!(p.offset_deg_at(0.16), 8.0);
    }

    #[test]
    fn path_latency_delays_effect() {
        let p = PhaseJumpProgram {
            amplitude_deg: 8.0,
            interval_s: 0.05,
            path_latency_s: 1e-3,
        };
        assert_eq!(p.offset_deg_at(0.0505), 0.0, "before optical path delivers");
        assert_eq!(p.offset_deg_at(0.052), 8.0);
    }

    #[test]
    fn next_toggle_is_strictly_future() {
        let p = PhaseJumpProgram::evaluation_default();
        let t = p.next_toggle_after(0.0);
        assert!(t > 0.0 && t <= 0.051);
        let t2 = p.next_toggle_after(t);
        assert!((t2 - t - 0.05).abs() < 1e-9);
    }

    #[test]
    fn bench_produces_harmonic_pair() {
        let mut bench = SignalBench::new(
            250e6,
            800e3,
            4,
            0.5,
            0.5,
            PhaseJumpProgram {
                amplitude_deg: 0.0,
                interval_s: 1.0,
                path_latency_s: 0.0,
            },
        );
        // Count zero crossings over 1 ms.
        let (mut cr, mut cg) = (0, 0);
        let (mut lr, mut lg) = bench.tick();
        for _ in 0..250_000 {
            let (r, g) = bench.tick();
            if lr < 0.0 && r >= 0.0 {
                cr += 1;
            }
            if lg < 0.0 && g >= 0.0 {
                cg += 1;
            }
            lr = r;
            lg = g;
        }
        assert!((cr as i64 - 800).abs() <= 1, "ref crossings {cr}");
        assert!((cg as i64 - 3200).abs() <= 1, "gap crossings {cg}");
    }

    #[test]
    fn jump_applies_once_per_toggle() {
        let mut bench = SignalBench::new(
            250e6,
            800e3,
            4,
            1.0,
            1.0,
            PhaseJumpProgram {
                amplitude_deg: 8.0,
                interval_s: 1e-4,
                path_latency_s: 0.0,
            },
        );
        // Cross two toggle boundaries; applied offset alternates 0/8.
        let mut seen = Vec::new();
        for _ in 0..(250e6_f64 * 2.5e-4) as usize {
            bench.tick();
            if seen.last() != Some(&bench.applied_jump_deg()) {
                seen.push(bench.applied_jump_deg());
            }
        }
        assert_eq!(seen, vec![0.0, 8.0, 0.0]);
    }

    #[test]
    fn control_offset_changes_gap_frequency() {
        let mut bench = SignalBench::new(
            250e6,
            800e3,
            4,
            1.0,
            1.0,
            PhaseJumpProgram {
                amplitude_deg: 0.0,
                interval_s: 1.0,
                path_latency_s: 0.0,
            },
        );
        bench.set_control_frequency_offset(1e3);
        // 3.201 MHz over 1 ms -> 3201 crossings.
        let (mut c, mut last) = (0, bench.tick().1);
        for _ in 0..250_000 {
            let (_, g) = bench.tick();
            if last < 0.0 && g >= 0.0 {
                c += 1;
            }
            last = g;
        }
        assert!((c as i64 - 3201).abs() <= 1, "crossings {c}");
    }
}
