//! Experiment descriptions.
//!
//! A scenario bundles every knob of an evaluation run — machine, ion,
//! operating point, jump program, controller settings, converter and CGRA
//! configuration — and derives the component configurations from it, so the
//! same scenario drives the turn-level loop, the signal-level loop and the
//! multi-particle reference consistently.

use crate::control::ControllerParams;
use crate::error::Result;
use crate::fault::FaultProgram;
use crate::framework::{FrameworkConfig, MonitorMode};
use crate::signalgen::PhaseJumpProgram;
use cil_cgra::grid::GridConfig;
use cil_cgra::kernels::KernelParams;
use cil_dsp::converter::{AdcModel, DacModel};
use cil_physics::machine::{MachineParams, OperatingPoint};
use cil_physics::synchrotron::SynchrotronCalc;
use cil_physics::IonSpecies;

/// The machine-development-experiment scenario of Section V (and variants).
#[derive(Debug, Clone)]
pub struct MdeScenario {
    /// Ring parameters.
    pub machine: MachineParams,
    /// Ion species.
    pub ion: IonSpecies,
    /// Revolution frequency of the reference signal, Hz.
    pub f_rev: f64,
    /// Target synchrotron frequency, Hz (sets the gap-voltage amplitude).
    pub fs_target: f64,
    /// The AWG phase-jump program.
    pub jumps: PhaseJumpProgram,
    /// Beam-phase controller settings.
    pub controller: ControllerParams,
    /// Bunches simulated (≤ harmonic number).
    pub bunches: usize,
    /// DDS amplitudes at the ADC inputs, volts.
    pub adc_amplitude: f64,
    /// Experiment duration, seconds.
    pub duration_s: f64,
    /// Pipelined CGRA kernel?
    pub pipelined: bool,
    /// CGRA grid.
    pub grid: GridConfig,
    /// Constant instrumentation phase offset (dead times / cable lengths),
    /// degrees — the offset the paper notes is irrelevant to the result.
    pub instrument_offset_deg: f64,
    /// RMS width of the generated beam pulse, seconds.
    pub pulse_sigma_s: f64,
    /// Additive ADC input noise, volts RMS (0 = clean front-end).
    pub adc_noise_rms: f64,
    /// Scheduled fault injection (empty = nothing ever goes wrong).
    pub faults: FaultProgram,
}

impl MdeScenario {
    /// The Nov 24 2023 MDE reproduction: SIS18, ¹⁴N⁷⁺, 800 kHz / h = 4
    /// (gap 3200 kHz), f_s = 1.28 kHz, 8° jumps every 0.05 s, controller at
    /// f_pass = 1.4 kHz / gain −5 / recursion 0.99.
    pub fn nov24_2023() -> Self {
        Self {
            machine: MachineParams::sis18(),
            ion: IonSpecies::n14_7plus(),
            f_rev: 800e3,
            fs_target: 1.28e3,
            jumps: PhaseJumpProgram::evaluation_default(),
            controller: ControllerParams::evaluation_default(),
            bunches: 4,
            adc_amplitude: 0.5,
            duration_s: 0.4,
            pipelined: true,
            grid: GridConfig::mesh_5x5(),
            instrument_offset_deg: 14.0,
            pulse_sigma_s: 20e-9,
            adc_noise_rms: 0.0,
            faults: FaultProgram::none(),
        }
    }

    /// Fig. 2 variant: harmonic number 2.
    pub fn harmonic_two_snapshot() -> Self {
        Self {
            machine: MachineParams::sis18_with_harmonic(2),
            bunches: 2,
            ..Self::nov24_2023()
        }
    }

    /// Harmonic number of the ring configuration.
    pub fn harmonic(&self) -> u32 {
        self.machine.harmonic_number
    }

    /// Gap-voltage amplitude (volts at the gap) realising `fs_target`.
    /// Errs when the scenario sits above transition (no stable bucket).
    pub fn v_hat(&self) -> Result<f64> {
        Ok(SynchrotronCalc::new(self.machine, self.ion)
            .voltage_for_fs(self.f_rev, self.fs_target)?)
    }

    /// The derived operating point.
    pub fn operating_point(&self) -> Result<OperatingPoint> {
        Ok(OperatingPoint::from_revolution_frequency(
            self.machine,
            self.ion,
            self.f_rev,
            self.v_hat()?,
        ))
    }

    /// Kernel generation parameters (scales map ADC volts → gap volts).
    pub fn kernel_params(&self) -> Result<KernelParams> {
        let op = self.operating_point()?;
        Ok(KernelParams {
            orbit_length_m: self.machine.orbit_length_m,
            momentum_compaction: self.machine.momentum_compaction,
            gamma_per_volt: self.ion.gamma_per_volt(),
            sample_rate: 250e6,
            scale_ref: self.v_hat()? / self.adc_amplitude,
            scale_gap: self.v_hat()? / self.adc_amplitude,
            gamma_r_init: op.gamma_r,
        })
    }

    /// Framework configuration.
    pub fn framework_config(&self) -> FrameworkConfig {
        FrameworkConfig {
            sample_rate: 250e6,
            adc: AdcModel {
                noise_rms: self.adc_noise_rms,
                ..AdcModel::fmc151()
            },
            dac: DacModel::fmc151(),
            buffer_depth: 8192,
            period_avg: 4,
            zc_threshold: (self.adc_noise_rms * 4.0).max(0.05),
            pulse_sigma_s: self.pulse_sigma_s,
            pulse_table: None,
            pulse_amplitude: 0.8,
            monitor_mode: MonitorMode::PhaseDifference,
            monitor_scale: 1e7,
            bunches: self.bunches,
            harmonic: self.harmonic(),
            grid: self.grid,
            pipelined: self.pipelined,
            interpolate: true,
            record_capacity: (self.duration_s * self.f_rev * 1.2) as usize + 1024,
        }
    }

    /// Number of revolutions in the experiment.
    pub fn revolutions(&self) -> usize {
        (self.duration_s * self.f_rev) as usize
    }

    /// Deterministic 64-bit digest of every scenario field, FNV-1a over the
    /// exact bit patterns (floats via `to_bits`, so `-0.0 ≠ 0.0` and any
    /// NaN payload is distinguished — the digest identifies the *input*, it
    /// does not define numeric equivalence).
    ///
    /// This is the stable identity of a sweep/campaign point: it names the
    /// point behind a [`crate::sweep::SweepPanic`]'s index, keys retry/quarantine
    /// records in the campaign WAL, and lets a resumed campaign verify the
    /// regenerated point list matches the one the log was written against.
    /// Platform-independent (no `RandomState`, fixed field order) so a WAL
    /// written on one machine resumes on another.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.f64(self.machine.orbit_length_m);
        h.f64(self.machine.momentum_compaction);
        h.u64(u64::from(self.machine.harmonic_number));
        h.bytes(self.ion.name.as_bytes());
        h.u64(u64::from(self.ion.mass_number));
        h.u64(u64::from(self.ion.charge_number));
        h.f64(self.ion.rest_energy_ev);
        h.f64(self.f_rev);
        h.f64(self.fs_target);
        h.f64(self.jumps.amplitude_deg);
        h.f64(self.jumps.interval_s);
        h.f64(self.jumps.path_latency_s);
        h.f64(self.controller.f_pass);
        h.f64(self.controller.gain);
        h.f64(self.controller.recursion);
        h.u64(u64::from(self.controller.decimation));
        h.u64(self.controller.fir_taps as u64);
        h.f64(self.controller.max_freq_offset_hz);
        h.f64(self.controller.hz_per_deg_per_gain);
        h.u64(self.bunches as u64);
        h.f64(self.adc_amplitude);
        h.f64(self.duration_s);
        h.u64(u64::from(self.pipelined));
        h.u64(u64::from(self.grid.rows));
        h.u64(u64::from(self.grid.cols));
        h.u64(match self.grid.topology {
            cil_cgra::grid::Topology::Mesh => 0,
            cil_cgra::grid::Topology::MeshDiagonal => 1,
            cil_cgra::grid::Topology::Torus => 2,
        });
        h.u64(u64::from(self.grid.io_columns));
        h.f64(self.instrument_offset_deg);
        h.f64(self.pulse_sigma_s);
        h.f64(self.adc_noise_rms);
        h.u64(self.faults.seed);
        h.u64(self.faults.events.len() as u64);
        for ev in &self.faults.events {
            h.f64(ev.start_s);
            h.f64(ev.end_s);
            use crate::fault::FaultKind as K;
            match ev.kind {
                K::AdcSaturation => h.u64(0),
                K::AdcStuckCode { code } => {
                    h.u64(1);
                    h.u64(code as u32 as u64);
                }
                K::AdcBitFlip { bit } => {
                    h.u64(2);
                    h.u64(u64::from(bit));
                }
                K::DdsDropout => h.u64(3),
                K::DetectorOutlier {
                    probability,
                    amplitude_deg,
                } => {
                    h.u64(4);
                    h.f64(probability);
                    h.f64(amplitude_deg);
                }
                K::NanBurst { probability } => {
                    h.u64(5);
                    h.f64(probability);
                }
                K::BeamLoss => h.u64(6),
                K::DeadlineOverrun { factor } => {
                    h.u64(7);
                    h.f64(factor);
                }
                K::CavityDetune { drift_hz_per_s } => {
                    h.u64(8);
                    h.f64(drift_hz_per_s);
                }
                K::CavityQuench { collapse_s } => {
                    h.u64(9);
                    h.f64(collapse_s);
                }
                K::CavityTrip { recover_s } => {
                    h.u64(10);
                    h.f64(recover_s);
                }
            }
        }
        h.finish()
    }

    /// Do two scenarios build identical turn-level engines
    /// ([`crate::engine::EngineKind::build`])? Compares every field that
    /// flows into engine construction — machine, ion, operating point,
    /// bunch count, converter amplitudes/noise, CGRA grid and pipelining,
    /// pulse shape and fault program — and ignores the harness-side knobs a
    /// sweep typically varies (controller settings, jump program, duration,
    /// instrument offset). Engine arenas use this to decide whether a
    /// built engine can be re-used for the next sweep point.
    pub fn engine_config_eq(&self, other: &Self) -> bool {
        self.machine == other.machine
            && self.ion == other.ion
            && self.f_rev == other.f_rev
            && self.fs_target == other.fs_target
            && self.bunches == other.bunches
            && self.adc_amplitude == other.adc_amplitude
            && self.pipelined == other.pipelined
            && self.grid == other.grid
            && self.pulse_sigma_s == other.pulse_sigma_s
            && self.adc_noise_rms == other.adc_noise_rms
            && self.faults == other.faults
    }
}

/// FNV-1a, 64-bit — tiny, allocation-free, and identical on every platform
/// (unlike `DefaultHasher`, whose output is unspecified across releases).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_scenario_matches_paper_numbers() {
        let s = MdeScenario::nov24_2023();
        assert_eq!(s.f_rev, 800e3);
        assert_eq!(s.harmonic(), 4);
        assert_eq!(s.machine.rf_frequency(s.f_rev), 3.2e6);
        assert_eq!(s.jumps.amplitude_deg, 8.0);
        assert_eq!(s.jumps.interval_s, 0.05);
        assert_eq!(s.controller.f_pass, 1.4e3);
        assert_eq!(s.controller.gain, -5.0);
        assert_eq!(s.controller.recursion, 0.99);
        assert_eq!(s.ion.name, "14N7+");
    }

    #[test]
    fn v_hat_gives_target_fs() {
        let s = MdeScenario::nov24_2023();
        let fs = SynchrotronCalc::new(s.machine, s.ion)
            .fs_stationary(s.f_rev, s.v_hat().unwrap())
            .unwrap();
        assert!((fs - 1.28e3).abs() < 1e-6);
    }

    #[test]
    fn kernel_scales_invert_adc_attenuation() {
        // "Gap and reference voltage are scaled down on the beam side … to
        // fit within the acceptable ADC ranges"; the kernel multiplies back.
        let s = MdeScenario::nov24_2023();
        let k = s.kernel_params().unwrap();
        assert!((k.scale_gap * s.adc_amplitude - s.v_hat().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn harmonic_two_variant() {
        let s = MdeScenario::harmonic_two_snapshot();
        assert_eq!(s.harmonic(), 2);
        assert_eq!(s.machine.rf_frequency(s.f_rev), 1.6e6);
        assert_eq!(s.bunches, 2);
    }

    #[test]
    fn engine_config_eq_ignores_harness_knobs() {
        let a = MdeScenario::nov24_2023();
        let mut b = a.clone();
        b.controller.gain = -7.0;
        b.duration_s = 0.1;
        b.instrument_offset_deg = 0.0;
        b.jumps.amplitude_deg = 4.0;
        assert!(a.engine_config_eq(&b), "harness knobs must not split slots");
        b.fs_target = 1.0e3;
        assert!(!a.engine_config_eq(&b), "operating point is engine-facing");
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        let a = MdeScenario::nov24_2023();
        assert_eq!(a.digest(), a.clone().digest(), "digest is deterministic");
        let mut b = a.clone();
        b.controller.gain = -5.000001;
        assert_ne!(a.digest(), b.digest(), "harness knobs change the digest");
        let mut c = a.clone();
        c.faults = FaultProgram {
            seed: 1,
            events: vec![crate::fault::FaultEvent {
                start_s: 0.01,
                end_s: 0.02,
                kind: crate::fault::FaultKind::DdsDropout,
            }],
        };
        assert_ne!(a.digest(), c.digest(), "fault program changes the digest");
    }

    #[test]
    fn framework_config_sized_for_duration() {
        let s = MdeScenario::nov24_2023();
        let f = s.framework_config();
        assert!(f.record_capacity >= s.revolutions());
        assert_eq!(f.bunches, 4);
        assert_eq!(f.harmonic, 4);
    }
}
