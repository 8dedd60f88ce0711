//! Clock domains of the simulator (Sections III-A/III-C) and the BuTiS
//! campus clock (Section V).
//!
//! The converter/framework side runs at the 250 MHz sample clock; the CGRA
//! has its own 111 MHz clock ("to meet timing criteria on our FPGA, we
//! cannot use the system clock of 250 MHz for our CGRA"). BuTiS provides the
//! facility-wide low-jitter reference ("accuracy of 100 picoseconds per
//! kilometre", jitter "in the low femtosecond range").

/// A clock domain with a nominal frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockDomain {
    /// Nominal frequency, Hz.
    pub frequency: f64,
}

impl ClockDomain {
    /// The FMC151 / framework sample clock: 250 MHz.
    pub fn system() -> Self {
        Self { frequency: 250e6 }
    }

    /// The CGRA clock: 111 MHz.
    pub fn cgra() -> Self {
        Self { frequency: 111e6 }
    }

    /// Period in seconds.
    pub fn period(&self) -> f64 {
        1.0 / self.frequency
    }

    /// Convert a tick count to seconds.
    pub fn ticks_to_seconds(&self, ticks: u64) -> f64 {
        ticks as f64 * self.period()
    }

    /// Convert seconds to (fractional) ticks.
    pub fn seconds_to_ticks(&self, seconds: f64) -> f64 {
        seconds * self.frequency
    }

    /// Convert a tick count of `self` into fractional ticks of `other`.
    pub fn convert_ticks(&self, ticks: u64, other: &ClockDomain) -> f64 {
        self.ticks_to_seconds(ticks) * other.frequency
    }

    /// The revolution "clock": one tick per beam revolution. This is the
    /// domain the harness's event queue schedules on (one tick per measured
    /// trace row for turn-level engines).
    pub fn revolution(f_rev: f64) -> Self {
        Self { frequency: f_rev }
    }

    /// Convert a tick count of `self` into whole ticks of `other`, rounding
    /// *up* — the conservative direction for deadlines: an event converted
    /// across domains may fire one tick early, never late. Exact
    /// conversions (within one part in 2⁻³² of a tick, absorbing the float
    /// round-trip) stay exact.
    pub fn convert_ticks_ceil(&self, ticks: u64, other: &ClockDomain) -> u64 {
        let fractional = self.convert_ticks(ticks, other);
        let eps = 2f64.powi(-32);
        (fractional - eps).ceil().max(0.0) as u64
    }
}

/// The BuTiS-grade master clock: a time base with an optional Gaussian
/// cycle-to-cycle jitter (σ in seconds). With the default femtosecond-class
/// jitter the clock is effectively ideal for the 4 ns sample grid; ablations
/// crank this up to see when timing degrades.
#[derive(Debug, Clone)]
pub struct MasterClock {
    domain: ClockDomain,
    /// RMS edge jitter, seconds.
    pub jitter_rms: f64,
    tick: u64,
    rng_state: u64,
}

impl MasterClock {
    /// New master clock; `jitter_rms = 0` gives the ideal clock.
    pub fn new(domain: ClockDomain, jitter_rms: f64, seed: u64) -> Self {
        Self {
            domain,
            jitter_rms,
            tick: 0,
            rng_state: seed.wrapping_mul(0x9E3779B97F4A7C15) | 1,
        }
    }

    /// BuTiS-grade: 250 MHz with 50 fs RMS jitter.
    pub fn butis(seed: u64) -> Self {
        Self::new(ClockDomain::system(), 50e-15, seed)
    }

    /// Advance one cycle; returns the actual edge time in seconds.
    pub fn next_edge(&mut self) -> f64 {
        let nominal = self.domain.ticks_to_seconds(self.tick);
        self.tick += 1;
        if self.jitter_rms == 0.0 {
            return nominal;
        }
        nominal + self.gauss() * self.jitter_rms
    }

    /// Current tick index.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    // xorshift + Box–Muller; deliberately self-contained so clock behaviour
    // never depends on external RNG sequencing.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        x
    }

    fn gauss(&mut self) -> f64 {
        let u1 = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let u2 = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let u1 = (1.0 - u1).max(1e-300);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_frequencies() {
        assert_eq!(ClockDomain::system().frequency, 250e6);
        assert_eq!(ClockDomain::cgra().frequency, 111e6);
    }

    #[test]
    fn tick_second_roundtrip() {
        let d = ClockDomain::system();
        let t = d.seconds_to_ticks(1e-6);
        assert!((t - 250.0).abs() < 1e-9);
        assert!((d.ticks_to_seconds(250) - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn cross_domain_conversion() {
        // 111 CGRA ticks = 1 µs = 250 system ticks.
        let cgra = ClockDomain::cgra();
        let sys = ClockDomain::system();
        let t = cgra.convert_ticks(111, &sys);
        assert!((t - 250.0).abs() < 1e-9);
    }

    #[test]
    fn ceil_conversion_never_lands_late() {
        let cgra = ClockDomain::cgra();
        let sys = ClockDomain::system();
        // Exact: 111 CGRA ticks = 250 system ticks.
        assert_eq!(cgra.convert_ticks_ceil(111, &sys), 250);
        // Inexact: 1 CGRA tick = 250/111 ≈ 2.252 system ticks → 3.
        assert_eq!(cgra.convert_ticks_ceil(1, &sys), 3);
        assert_eq!(cgra.convert_ticks_ceil(0, &sys), 0);
        // A deadline converted up is never later than the original:
        // ceil ticks / f_other ≥ ticks / f_self.
        for ticks in [1u64, 7, 111, 1000, 123457] {
            let converted = cgra.convert_ticks_ceil(ticks, &sys);
            assert!(sys.ticks_to_seconds(converted) >= cgra.ticks_to_seconds(ticks) - 1e-15);
        }
    }

    #[test]
    fn revolution_domain_ticks_once_per_turn() {
        let rev = ClockDomain::revolution(500e3);
        assert!((rev.period() - 2e-6).abs() < 1e-18);
        // 0.05 s of jump-program interval = 25 000 revolutions.
        assert!((rev.seconds_to_ticks(0.05) - 25_000.0).abs() < 1e-6);
    }

    #[test]
    fn ideal_clock_edges_are_exact() {
        let mut clk = MasterClock::new(ClockDomain::system(), 0.0, 1);
        assert_eq!(clk.next_edge(), 0.0);
        assert!((clk.next_edge() - 4e-9).abs() < 1e-20);
    }

    #[test]
    fn jittered_clock_stays_near_nominal() {
        let mut clk = MasterClock::butis(42);
        let mut max_dev = 0.0f64;
        for i in 0..10_000u64 {
            let e = clk.next_edge();
            let nominal = i as f64 * 4e-9;
            max_dev = max_dev.max((e - nominal).abs());
        }
        // 50 fs RMS: even 6 sigma is < 1 ps, vastly below the 4 ns grid.
        assert!(max_dev < 1e-12, "max deviation {max_dev}");
        assert!(max_dev > 0.0, "jitter actually applied");
    }

    #[test]
    fn jitter_rms_is_calibrated() {
        let mut clk = MasterClock::new(ClockDomain::system(), 1e-12, 7);
        let n = 100_000;
        let mut sum_sq = 0.0;
        for i in 0..n as u64 {
            let dev = clk.next_edge() - i as f64 * 4e-9;
            sum_sq += dev * dev;
        }
        let rms = (sum_sq / n as f64).sqrt();
        assert!((rms - 1e-12).abs() / 1e-12 < 0.05, "rms = {rms}");
    }
}
