//! Gauss pulse generator (Section III-B).
//!
//! "When the timer module triggers, a single, precalculated, Gaussian
//! distributed pulse is played back from sample memory through the DAC
//! output." This module holds the precomputed pulse table (or a parametric
//! bunch-shape table, the Section VI extension) and plays it back sample by
//! sample when triggered at a programmable sample time.

/// Precomputed pulse table + playback engine.
#[derive(Debug, Clone)]
pub struct GaussPulseGenerator {
    table: Vec<f64>,
    /// Playback position; `None` when idle.
    playing: Option<usize>,
    /// Pending triggers: absolute sample indices at which playback starts.
    /// A queue, because the framework arms the *next* revolution's pulse
    /// while the previous one may still be pending.
    armed_at: std::collections::VecDeque<u64>,
    /// The queue's front trigger (`u64::MAX` when nothing is armed), so an
    /// idle tick is one compare instead of a queue lookup.
    next_trigger: u64,
    /// Current absolute sample index.
    now: u64,
    /// Output amplitude scale.
    pub amplitude: f64,
}

impl GaussPulseGenerator {
    /// Build from an arbitrary normalised pulse table (peak 1.0).
    pub fn from_table(table: Vec<f64>, amplitude: f64) -> Self {
        assert!(!table.is_empty(), "pulse table must not be empty");
        Self {
            table,
            playing: None,
            armed_at: std::collections::VecDeque::new(),
            next_trigger: u64::MAX,
            now: 0,
            amplitude,
        }
    }

    /// Precompute a Gaussian pulse with RMS width `sigma_samples`, covering
    /// ±`span_sigmas`·σ.
    pub fn gaussian(sigma_samples: f64, span_sigmas: f64, amplitude: f64) -> Self {
        assert!(sigma_samples > 0.0 && span_sigmas > 0.0);
        let half = (sigma_samples * span_sigmas).ceil() as i64;
        let table: Vec<f64> = (-half..=half)
            .map(|i| (-0.5 * (i as f64 / sigma_samples).powi(2)).exp())
            .collect();
        Self::from_table(table, amplitude)
    }

    /// The evaluation's beam-pulse shape: a bunch of RMS length
    /// `sigma_seconds` sampled at `sample_rate`, ±4σ span.
    pub fn for_bunch(sigma_seconds: f64, sample_rate: f64, amplitude: f64) -> Self {
        Self::gaussian(sigma_seconds * sample_rate, 4.0, amplitude)
    }

    /// Arm a trigger: playback starts when the sample counter reaches
    /// `at_sample` (absolute index; may be fractional in the framework —
    /// rounding to the nearest sample is the DAC-side quantisation the
    /// jitter analysis quantifies). Triggers queue in arming order, so the
    /// per-revolution arm of the next pulse never cancels a pending one.
    pub fn arm(&mut self, at_sample: u64) {
        self.armed_at.push_back(at_sample);
        self.refresh_next_trigger();
    }

    fn refresh_next_trigger(&mut self) {
        self.next_trigger = self.armed_at.front().copied().unwrap_or(u64::MAX);
    }

    /// Start the pulse at the queue's front (at most one per tick).
    fn fire(&mut self) {
        if self.armed_at.pop_front().is_some() {
            self.playing = Some(0);
            self.refresh_next_trigger();
        }
    }

    /// Advance one sample clock and produce the output voltage.
    #[inline]
    pub fn tick(&mut self) -> f64 {
        if self.now >= self.next_trigger {
            self.fire();
        }
        self.now += 1;
        match self.playing {
            Some(pos) => {
                let v = self.table[pos] * self.amplitude;
                self.playing = if pos + 1 < self.table.len() {
                    Some(pos + 1)
                } else {
                    None
                };
                v
            }
            None => 0.0,
        }
    }

    /// Swap the pulse table in place, preserving the time base and any
    /// pending triggers — the runtime path for parametric bunch shapes.
    /// An in-flight pulse is restarted on the new table.
    pub fn set_table(&mut self, table: Vec<f64>) {
        assert!(!table.is_empty(), "pulse table must not be empty");
        self.table = table;
        if self.playing.is_some() {
            self.playing = Some(0);
        }
    }

    /// Current absolute sample index (next tick's timestamp).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Length of the pulse table in samples.
    pub fn pulse_len(&self) -> usize {
        self.table.len()
    }

    /// True while a pulse is being played.
    pub fn is_playing(&self) -> bool {
        self.playing.is_some()
    }

    /// Snapshot the playback state (position, pending triggers, time base,
    /// amplitude). The pulse table itself is configuration and is rebuilt.
    pub fn state(&self) -> GaussPulseState {
        GaussPulseState {
            playing: self.playing,
            armed_at: self.armed_at.iter().copied().collect(),
            now: self.now,
            amplitude: self.amplitude,
        }
    }

    /// Restore a state captured by [`Self::state`]. Fails (returns `false`)
    /// when the playback position is beyond this generator's table.
    pub fn restore(&mut self, state: &GaussPulseState) -> bool {
        if let Some(pos) = state.playing {
            if pos >= self.table.len() {
                return false;
            }
        }
        self.playing = state.playing;
        self.armed_at = state.armed_at.iter().copied().collect();
        self.refresh_next_trigger();
        self.now = state.now;
        self.amplitude = state.amplitude;
        true
    }
}

/// Checkpointable state of a [`GaussPulseGenerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct GaussPulseState {
    /// Playback position, if a pulse is in flight.
    pub playing: Option<usize>,
    /// Pending trigger sample times, in arming order.
    pub armed_at: Vec<u64>,
    /// Current absolute sample index.
    pub now: u64,
    /// Output amplitude scale.
    pub amplitude: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_output_is_zero() {
        let mut g = GaussPulseGenerator::gaussian(10.0, 4.0, 1.0);
        for _ in 0..100 {
            assert_eq!(g.tick(), 0.0);
        }
    }

    #[test]
    fn triggered_pulse_peaks_at_center() {
        let mut g = GaussPulseGenerator::gaussian(10.0, 4.0, 0.8);
        g.arm(5);
        let mut out = Vec::new();
        for _ in 0..120 {
            out.push(g.tick());
        }
        let (imax, &vmax) = out
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert!((vmax - 0.8).abs() < 1e-12, "peak = {vmax}");
        // Pulse spans 81 samples (±40); center 40 samples after start at 5.
        assert_eq!(imax, 5 + 40);
    }

    #[test]
    fn pulse_is_symmetric() {
        let g = GaussPulseGenerator::gaussian(8.0, 3.0, 1.0);
        let t = &g.table;
        for i in 0..t.len() / 2 {
            assert!((t[i] - t[t.len() - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn immediate_trigger_when_time_passed() {
        let mut g = GaussPulseGenerator::gaussian(2.0, 2.0, 1.0);
        for _ in 0..10 {
            g.tick();
        }
        g.arm(3); // already in the past → fires on next tick
        let v = g.tick();
        assert!(v > 0.0, "playback must start immediately");
    }

    #[test]
    fn triggers_queue_in_order() {
        let mut g = GaussPulseGenerator::gaussian(2.0, 2.0, 1.0);
        g.arm(5);
        g.arm(30); // next revolution's pulse, armed early
        let mut peaks = Vec::new();
        for n in 0..60u64 {
            if g.tick() >= 0.999 {
                peaks.push(n);
            }
        }
        assert_eq!(peaks.len(), 2, "both pulses fire: {peaks:?}");
        // Pulse table spans ±4 samples, peak 4 samples after the trigger.
        assert_eq!(peaks[0], 5 + 4);
        assert_eq!(peaks[1], 30 + 4);
    }

    #[test]
    fn periodic_pulse_train() {
        // Fire every 100 samples — the per-revolution beam signal.
        let mut g = GaussPulseGenerator::gaussian(3.0, 3.0, 1.0);
        let mut peaks = 0;
        for n in 0..1000u64 {
            if n % 100 == 0 {
                g.arm(n);
            }
            if g.tick() >= 0.999 {
                peaks += 1;
            }
        }
        assert_eq!(peaks, 10);
    }

    #[test]
    fn set_table_preserves_clock_and_triggers() {
        let mut g = GaussPulseGenerator::gaussian(2.0, 2.0, 1.0);
        for _ in 0..100 {
            g.tick();
        }
        g.arm(110);
        g.set_table(vec![1.0, 1.0, 1.0]);
        let mut fired = false;
        for n in 100..130u64 {
            if g.tick() > 0.5 {
                fired = true;
                assert!(n >= 110, "fires at the armed time, not early");
                break;
            }
        }
        assert!(fired, "pending trigger survives the table swap");
    }

    #[test]
    fn for_bunch_sizes_table_from_time() {
        // 20 ns RMS at 250 MS/s → σ = 5 samples → table 2*20+1 = 41.
        let g = GaussPulseGenerator::for_bunch(20e-9, 250e6, 1.0);
        assert_eq!(g.pulse_len(), 41);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_table_rejected() {
        let _ = GaussPulseGenerator::from_table(vec![], 1.0);
    }
}
