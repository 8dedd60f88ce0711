//! Fixed-point helpers shared by the converter and DDS models.
//!
//! The FPGA framework operates on integer sample codes (14-bit ADC, 16-bit
//! DAC, 32-bit DDS phase accumulator). These helpers implement the
//! quantisation and wrap-around arithmetic of that world, with explicit
//! saturation semantics matching real converter front-ends.

/// `2^exp` as an `f64`, built from its bit pattern (`exp` in the normal
/// range `-1022..=1023`).
///
/// Multiplying by `pow2(-k)` is bit-identical to dividing by `2^k`: both are
/// one correctly rounded operation on the same exact real value, so the
/// results agree everywhere — including overflow, underflow and NaN. The
/// per-sample converter and DDS paths scale this way instead of dividing.
#[inline]
pub fn pow2(exp: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&exp));
    f64::from_bits(((exp + 1023) as u64) << 52)
}

/// `x.round() as i64` (round half away from zero) by truncation and
/// correction, for `|x| < 2^63` and NaN (→ 0). `f64::round` is a libm call
/// on the baseline x86-64 target (no SSE4.1 `roundsd`); the truncating
/// conversion is one instruction, and `x - trunc(x)` is exact.
#[inline]
fn round_half_away(x: f64) -> i64 {
    let whole = x as i64;
    let frac = x - whole as f64;
    whole + i64::from(frac >= 0.5) - i64::from(frac <= -0.5)
}

/// Quantise a real value in `[-full_scale, +full_scale)` to a signed code of
/// `bits` bits, saturating at the rails (converter-style clipping).
///
/// Rounds half away from zero. Clamping to the (integer) rails before
/// rounding is the same as clamping the rounded code, because rounding is
/// monotone and fixes integers.
#[inline]
pub fn quantize(value: f64, full_scale: f64, bits: u32) -> i32 {
    debug_assert!((2..=31).contains(&bits));
    debug_assert!(full_scale > 0.0);
    let half_range = pow2(bits as i32 - 1);
    let scaled = (value / full_scale * half_range).clamp(-half_range, half_range - 1.0);
    round_half_away(scaled) as i32
}

/// Reconstruct a real value from a signed `bits`-bit code (ideal DAC).
#[inline]
pub fn dequantize(code: i32, full_scale: f64, bits: u32) -> f64 {
    debug_assert!((2..=31).contains(&bits));
    f64::from(code) * pow2(1 - bits as i32) * full_scale
}

/// One LSB of a `bits`-bit converter with the given full scale.
#[inline]
pub fn lsb(full_scale: f64, bits: u32) -> f64 {
    full_scale / (1i64 << (bits - 1)) as f64
}

/// A wrapping phase accumulator of `bits` bits — the core of every DDS.
///
/// The accumulator maps the full `2^bits` range onto one signal period, so
/// frequency resolution is `f_clk / 2^bits` and phase arithmetic wraps for
/// free, exactly like the hardware register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseAccumulator {
    /// Current accumulator value (wraps modulo 2^bits).
    pub acc: u64,
    /// Per-clock increment (frequency tuning word).
    pub increment: u64,
    bits: u32,
}

impl PhaseAccumulator {
    /// New accumulator with the given width in bits (≤ 63).
    pub fn new(bits: u32) -> Self {
        assert!((8..=63).contains(&bits), "accumulator width out of range");
        Self {
            acc: 0,
            increment: 0,
            bits,
        }
    }

    /// Set the frequency tuning word for `freq` Hz at clock `f_clk` Hz.
    pub fn set_frequency(&mut self, freq: f64, f_clk: f64) {
        assert!(
            freq >= 0.0 && freq < f_clk / 2.0,
            "frequency out of Nyquist range"
        );
        let span = (1u128 << self.bits) as f64;
        self.increment = (freq / f_clk * span).round() as u64 & self.mask();
    }

    /// Actual synthesised frequency (Hz) after tuning-word rounding.
    pub fn actual_frequency(&self, f_clk: f64) -> f64 {
        self.increment as f64 / (1u128 << self.bits) as f64 * f_clk
    }

    /// Advance one clock; returns the *pre-increment* phase in turns [0, 1).
    #[inline]
    pub fn tick(&mut self) -> f64 {
        // `acc < 2^63`, so the signed conversion (one instruction on
        // x86-64, unlike the unsigned one) gives the same value.
        let phase = self.acc as i64 as f64 * pow2(-(self.bits as i32));
        self.acc = (self.acc + self.increment) & self.mask();
        phase
    }

    /// Add a (possibly negative) phase offset in turns, wrapping.
    pub fn add_phase_turns(&mut self, turns: f64) {
        let span = (1u128 << self.bits) as f64;
        let delta = (turns.rem_euclid(1.0) * span) as u64;
        self.acc = (self.acc + delta) & self.mask();
    }

    /// Reset the accumulator phase to zero (the synchronised DDS reset the
    /// mini control system performs in Fig. 4).
    pub fn reset(&mut self) {
        self.acc = 0;
    }

    #[inline]
    fn mask(&self) -> u64 {
        (1u64 << self.bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_zero_is_zero() {
        assert_eq!(quantize(0.0, 1.0, 14), 0);
    }

    #[test]
    fn quantize_saturates_at_rails() {
        assert_eq!(quantize(2.0, 1.0, 14), 8191);
        assert_eq!(quantize(-2.0, 1.0, 14), -8192);
    }

    #[test]
    fn quantize_roundtrip_error_below_lsb() {
        let fs = 1.0;
        for i in 0..1000 {
            let v = (i as f64 / 1000.0) * 1.9 - 0.95;
            let code = quantize(v, fs, 14);
            let back = dequantize(code, fs, 14);
            assert!((back - v).abs() <= lsb(fs, 14), "v={v}");
        }
    }

    #[test]
    fn lsb_of_14_bit_2vpp() {
        // FMC151: ±1 V on 14 bits → LSB ≈ 122 µV.
        let l = lsb(1.0, 14);
        assert!((l - 1.0 / 8192.0).abs() < 1e-12);
    }

    #[test]
    fn accumulator_frequency_resolution() {
        let mut acc = PhaseAccumulator::new(32);
        acc.set_frequency(800e3, 250e6);
        let f = acc.actual_frequency(250e6);
        // 32-bit accumulator at 250 MHz: resolution ≈ 0.058 Hz.
        assert!((f - 800e3).abs() < 0.06, "f = {f}");
    }

    #[test]
    fn accumulator_phase_advances_linearly() {
        let mut acc = PhaseAccumulator::new(32);
        acc.set_frequency(1.0, 8.0); // period = 8 clocks
        let phases: Vec<f64> = (0..8).map(|_| acc.tick()).collect();
        for (i, p) in phases.iter().enumerate() {
            assert!((p - i as f64 / 8.0).abs() < 1e-9);
        }
        // Wrapped around after a full period.
        assert!(acc.tick() < 1e-9);
    }

    #[test]
    fn phase_offset_wraps() {
        let mut acc = PhaseAccumulator::new(32);
        acc.add_phase_turns(0.75);
        acc.add_phase_turns(0.5);
        let p = acc.tick();
        assert!((p - 0.25).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn negative_phase_offset() {
        let mut acc = PhaseAccumulator::new(32);
        acc.add_phase_turns(-0.25);
        let p = acc.tick();
        assert!((p - 0.75).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn reset_clears_phase() {
        let mut acc = PhaseAccumulator::new(32);
        acc.set_frequency(1e6, 250e6);
        for _ in 0..1000 {
            acc.tick();
        }
        acc.reset();
        assert_eq!(acc.acc, 0);
    }

    #[test]
    #[should_panic(expected = "Nyquist")]
    fn rejects_above_nyquist() {
        let mut acc = PhaseAccumulator::new(32);
        acc.set_frequency(200e6, 250e6);
    }
}
