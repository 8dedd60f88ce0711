//! Direct digital synthesis — the signal source of the experimental setup.
//!
//! The paper's testbed uses three synchronised DDS modules (Fig. 4) driven by
//! the BuTiS campus clock; the reference DDS "generates a sine wave that
//! follows the revolution frequency set values in an undisturbed way"
//! (Section IV-B). This model is a classic phase-accumulator + sine-LUT DDS
//! with run-time frequency/phase control and synchronised reset.

use crate::fixed::{pow2, PhaseAccumulator};

/// A direct digital synthesiser producing one sample per clock tick.
#[derive(Debug, Clone)]
pub struct Dds {
    accumulator: PhaseAccumulator,
    lut: Box<[f64]>,
    lut_bits: u32,
    amplitude: f64,
    f_clk: f64,
    /// Output mute (injected fault): the accumulator keeps running — as a
    /// real DDS with a failed output stage would — but the analogue output
    /// is zero.
    dropout: bool,
}

impl Dds {
    /// New DDS with a 32-bit phase accumulator and a `2^lut_bits`-entry sine
    /// table, clocked at `f_clk` Hz.
    pub fn new(f_clk: f64, lut_bits: u32) -> Self {
        assert!((4..=20).contains(&lut_bits), "LUT size out of range");
        let n = 1usize << lut_bits;
        let lut: Box<[f64]> = (0..n)
            .map(|i| (std::f64::consts::TAU * i as f64 / n as f64).sin())
            .collect();
        Self {
            accumulator: PhaseAccumulator::new(32),
            lut,
            lut_bits,
            amplitude: 1.0,
            f_clk,
            dropout: false,
        }
    }

    /// Standard instance for the paper's setup: 250 MHz clock, 4096-entry
    /// table.
    pub fn standard(f_clk: f64) -> Self {
        Self::new(f_clk, 12)
    }

    /// Set the output frequency in Hz (set-value interface).
    pub fn set_frequency(&mut self, freq: f64) {
        self.accumulator.set_frequency(freq, self.f_clk);
    }

    /// Actual synthesised frequency after tuning-word rounding.
    pub fn actual_frequency(&self) -> f64 {
        self.accumulator.actual_frequency(self.f_clk)
    }

    /// Set the peak output amplitude (volts).
    pub fn set_amplitude(&mut self, amplitude: f64) {
        assert!(amplitude >= 0.0);
        self.amplitude = amplitude;
    }

    /// Jump the output phase by `deg` degrees (the AWG/CEL phase-jump path
    /// of the evaluation acts here).
    pub fn jump_phase_deg(&mut self, deg: f64) {
        self.accumulator.add_phase_turns(deg / 360.0);
    }

    /// Synchronised phase reset (the "mini control system" resetting all
    /// DDS modules simultaneously, Section V).
    pub fn sync_reset(&mut self) {
        self.accumulator.reset();
    }

    /// Current phase in turns [0, 1) without advancing.
    pub fn phase_turns(&self) -> f64 {
        self.accumulator.acc as f64 / 2.0_f64.powi(32)
    }

    /// Inject or clear an output dropout. While set, [`Self::tick`] returns
    /// 0 V but the phase accumulator keeps advancing, so clearing the fault
    /// resumes the waveform phase-continuously.
    pub fn set_dropout(&mut self, dropout: bool) {
        self.dropout = dropout;
    }

    /// Whether an output dropout is currently injected.
    pub fn dropout(&self) -> bool {
        self.dropout
    }

    /// Produce the next sample (volts) and advance one clock.
    #[inline]
    pub fn tick(&mut self) -> f64 {
        if self.dropout {
            self.accumulator.tick();
            return 0.0;
        }
        let phase = self.accumulator.tick();
        let idx_f = phase * pow2(self.lut_bits as i32);
        // `idx_f` lies in [0, 2^lut_bits], so truncation is the floor (and
        // the signed conversions are exact and cheaper than unsigned ones).
        let whole = idx_f as i64;
        let mask = self.lut.len() - 1;
        let idx = whole as usize & mask;
        // Linear interpolation between adjacent LUT entries keeps spurs far
        // below the 14-bit ADC floor.
        let next = (idx + 1) & mask;
        let frac = idx_f - whole as f64;
        self.amplitude * (self.lut[idx] * (1.0 - frac) + self.lut[next] * frac)
    }

    /// Sample clock frequency, Hz.
    pub fn f_clk(&self) -> f64 {
        self.f_clk
    }

    /// Snapshot the dynamic state (accumulator position + tuning word,
    /// amplitude, dropout flag). The sine LUT is pure configuration and is
    /// rebuilt, not captured.
    pub fn state(&self) -> DdsState {
        DdsState {
            acc: self.accumulator.acc,
            increment: self.accumulator.increment,
            amplitude: self.amplitude,
            dropout: self.dropout,
        }
    }

    /// Restore a state captured by [`Self::state`].
    pub fn restore(&mut self, state: &DdsState) {
        self.accumulator.acc = state.acc;
        self.accumulator.increment = state.increment;
        self.amplitude = state.amplitude;
        self.dropout = state.dropout;
    }
}

/// Checkpointable state of a [`Dds`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdsState {
    /// Phase accumulator value.
    pub acc: u64,
    /// Tuning word (per-tick accumulator increment).
    pub increment: u64,
    /// Peak output amplitude, volts.
    pub amplitude: f64,
    /// Output-dropout fault flag.
    pub dropout: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dds_produces_requested_frequency() {
        let mut dds = Dds::standard(250e6);
        dds.set_frequency(800e3);
        // Count positive zero crossings over 1 ms = 800 periods.
        let samples = 250_000;
        let mut crossings = 0;
        let mut last = dds.tick();
        for _ in 0..samples {
            let s = dds.tick();
            if last < 0.0 && s >= 0.0 {
                crossings += 1;
            }
            last = s;
        }
        assert!(
            (crossings as i64 - 800).abs() <= 1,
            "crossings = {crossings}"
        );
    }

    #[test]
    fn amplitude_scales_output() {
        let mut dds = Dds::standard(250e6);
        dds.set_frequency(1e6);
        dds.set_amplitude(0.5);
        let max = (0..1000).map(|_| dds.tick()).fold(f64::MIN, f64::max);
        assert!((max - 0.5).abs() < 0.01);
    }

    #[test]
    fn sine_purity() {
        // RMS of a sine is A/sqrt(2); LUT interpolation keeps the error tiny.
        let mut dds = Dds::standard(250e6);
        dds.set_frequency(2.5e6); // 100 samples per period
        let n = 100_000;
        let sum_sq: f64 = (0..n).map(|_| dds.tick().powi(2)).sum();
        let rms = (sum_sq / n as f64).sqrt();
        assert!((rms - 1.0 / 2.0_f64.sqrt()).abs() < 1e-3, "rms = {rms}");
    }

    #[test]
    fn phase_jump_shifts_waveform() {
        let mut a = Dds::standard(250e6);
        let mut b = Dds::standard(250e6);
        a.set_frequency(1e6);
        b.set_frequency(1e6);
        b.jump_phase_deg(90.0);
        // After a 90° jump, b leads a by a quarter period: b(t) = sin(x+π/2)=cos(x).
        let sa = a.tick();
        let sb = b.tick();
        assert!(sa.abs() < 1e-6, "a starts at sin(0)=0");
        assert!((sb - 1.0).abs() < 1e-6, "b starts at cos(0)=1");
    }

    #[test]
    fn sync_reset_aligns_two_modules() {
        let mut a = Dds::standard(250e6);
        let mut b = Dds::standard(250e6);
        // Use frequencies with an integer number of samples per period so
        // the check is exact up to tuning-word rounding.
        a.set_frequency(1e6);
        b.set_frequency(4e6);
        // Let them free-run out of alignment, then reset both.
        for _ in 0..12345 {
            a.tick();
            b.tick();
        }
        a.sync_reset();
        b.sync_reset();
        assert_eq!(a.phase_turns(), 0.0);
        assert_eq!(b.phase_turns(), 0.0);
        // Harmonic relationship: after one reference period both are at a
        // positive zero crossing again (h = 4).
        for _ in 0..250 {
            a.tick();
            b.tick();
        }
        let ap = a.phase_turns();
        assert!(
            !(1e-5..=1.0 - 1e-5).contains(&ap),
            "reference DDS phase = {ap}"
        );
        let bp = b.phase_turns();
        assert!(!(1e-4..=1.0 - 1e-4).contains(&bp), "gap DDS phase = {bp}");
    }

    #[test]
    fn negative_phase_jump() {
        let mut dds = Dds::standard(250e6);
        dds.set_frequency(1e6);
        dds.jump_phase_deg(-90.0);
        let s = dds.tick();
        assert!((s + 1.0).abs() < 1e-6, "sin(-90°) = -1, got {s}");
    }

    #[test]
    fn dropout_mutes_but_keeps_phase() {
        let mut with_fault = Dds::standard(250e6);
        let mut clean = Dds::standard(250e6);
        with_fault.set_frequency(1e6);
        clean.set_frequency(1e6);
        // Mute for 100 samples: output is zero, accumulator still runs.
        with_fault.set_dropout(true);
        for _ in 0..100 {
            assert_eq!(with_fault.tick(), 0.0);
            clean.tick();
        }
        with_fault.set_dropout(false);
        // Phase-continuous resume: both modules agree exactly.
        for _ in 0..100 {
            assert_eq!(with_fault.tick(), clean.tick());
        }
    }

    #[test]
    fn tuning_word_rounding_reported() {
        let mut dds = Dds::standard(250e6);
        dds.set_frequency(800e3);
        assert!((dds.actual_frequency() - 800e3).abs() < 0.06);
    }
}
