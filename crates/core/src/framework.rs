//! The FPGA framework top level (Fig. 3).
//!
//! Wires together, sample by sample at 250 MHz: the two ADC channels →
//! capture ring buffers, the zero-crossing + period-length detectors on the
//! reference channel, the CGRA (via its `SensorBus`), the Gauss pulse
//! generators and the DAC outputs, plus the monitoring mux, the
//! SpartanMC-style parameter interface and the DRAM recorder.

use crate::error::{CilError, Result};
use cil_cgra::cache::CompiledKernel;
use cil_cgra::exec::{CgraExecutor, SensorBus};
use cil_cgra::grid::GridConfig;
use cil_cgra::kernels::{
    BeamKernel, KernelParams, ACT_DT_BASE, ACT_MONITOR, PORT_GAP_BUF, PORT_PERIOD, PORT_REF_BUF,
};
use cil_dsp::converter::{AdcFault, AdcModel, DacModel};
use cil_dsp::gauss::GaussPulseGenerator;
use cil_dsp::period::PeriodLengthDetector;
use cil_dsp::ring_buffer::CaptureRingBuffer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// What the second DAC channel shows ("a monitoring signal to either show
/// the phase difference calculated in the model or mirror the generated
/// signal, this can be adjusted at runtime", Section III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorMode {
    /// Output the model's Δt (scaled to volts).
    PhaseDifference,
    /// Mirror the generated beam signal.
    MirrorBeam,
}

/// Framework configuration.
#[derive(Debug, Clone)]
pub struct FrameworkConfig {
    /// Sample rate of the converter clock, Hz (250 MHz).
    pub sample_rate: f64,
    /// ADC model for both input channels.
    pub adc: AdcModel,
    /// DAC model for both output channels.
    pub dac: DacModel,
    /// Capture-buffer depth (2^13 in the paper).
    pub buffer_depth: usize,
    /// Period-average window (4 in the paper).
    pub period_avg: usize,
    /// Zero-crossing hysteresis threshold on the reference channel, volts.
    /// Must sit well above the front-end noise floor.
    pub zc_threshold: f64,
    /// RMS width of the generated Gauss pulse, seconds.
    pub pulse_sigma_s: f64,
    /// Optional custom pulse table (normalised to peak 1) replacing the
    /// synthetic Gaussian — the parametric bunch-shape extension of
    /// Section VI ("replace the synthetic Gauss pulse by a parametric
    /// version that adapts to the energy/phase distribution of the bunch").
    pub pulse_table: Option<Vec<f64>>,
    /// Peak amplitude of the beam pulses, volts.
    pub pulse_amplitude: f64,
    /// Monitoring-channel selection.
    pub monitor_mode: MonitorMode,
    /// Volts of monitoring output per second of Δt.
    pub monitor_scale: f64,
    /// Bunches simulated (one Gauss pulse generator each).
    pub bunches: usize,
    /// Harmonic number (bunch spacing = period/h).
    pub harmonic: u32,
    /// CGRA grid.
    pub grid: GridConfig,
    /// Use the pipelined kernel variant.
    pub pipelined: bool,
    /// Use the two-read linear interpolation of Section IV-B (ablation A1
    /// turns this off for a single nearest-sample read).
    pub interpolate: bool,
    /// Capacity of the DRAM recorder in revolutions (0 disables).
    pub record_capacity: usize,
}

impl FrameworkConfig {
    /// The paper's configuration for the Fig. 5 experiment.
    pub fn evaluation_default() -> Self {
        Self {
            sample_rate: 250e6,
            adc: AdcModel::fmc151(),
            dac: DacModel::fmc151(),
            buffer_depth: 8192,
            period_avg: 4,
            zc_threshold: 0.05,
            pulse_sigma_s: 20e-9,
            pulse_table: None,
            pulse_amplitude: 0.8,
            monitor_mode: MonitorMode::PhaseDifference,
            monitor_scale: 1e7, // 100 ns full scale
            bunches: 4,
            harmonic: 4,
            grid: GridConfig::mesh_5x5(),
            pipelined: true,
            interpolate: true,
            record_capacity: 1 << 20,
        }
    }
}

/// One recorded revolution (the DRAM recording of Section III-B).
#[derive(Debug, Clone, PartialEq)]
pub struct RevolutionRecord {
    /// Sample index of the triggering zero crossing.
    pub crossing_sample: u64,
    /// Measured revolution period, seconds.
    pub period_s: f64,
    /// Δt written by the kernel for each bunch, seconds.
    pub dt: Vec<f64>,
}

/// Output voltages of one framework sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameworkOutput {
    /// DAC channel 1: the synthetic beam signal.
    pub beam: f64,
    /// DAC channel 2: the monitoring signal.
    pub monitor: f64,
    /// This sample completed a period measurement: the value
    /// [`SimulatorFramework::measured_period`] reports has just been updated.
    pub period_updated: bool,
}

/// The SpartanMC-style parameter interface: a tiny register map through
/// which runtime parameters are adjusted (Section III-B).
pub mod params {
    /// Register: monitor mode (0 = phase difference, 1 = mirror).
    pub const REG_MONITOR_MODE: u16 = 0;
    /// Register: monitor scale, volts per second of Δt.
    pub const REG_MONITOR_SCALE: u16 = 1;
    /// Register: pulse amplitude, volts.
    pub const REG_PULSE_AMPLITUDE: u16 = 2;
    /// Register: recording enable (nonzero = record).
    pub const REG_RECORD_ENABLE: u16 = 3;
}

/// The simulator framework.
pub struct SimulatorFramework {
    /// Active configuration; runtime changes go through
    /// [`Self::write_param`], which keeps the cached monitor output in step.
    config: FrameworkConfig,
    compiled: Arc<CompiledKernel>,
    executor: CgraExecutor,
    ref_buffer: CaptureRingBuffer,
    gap_buffer: CaptureRingBuffer,
    period: PeriodLengthDetector,
    pulses: Vec<GaussPulseGenerator>,
    /// Sample counter (framework time base).
    sample: u64,
    /// Integer sample index of the last accepted zero crossing.
    last_crossing_sample: Option<u64>,
    /// The crossing before that: buffer reads address around it, because
    /// samples after the *current* crossing are not captured yet — this is
    /// why the paper sizes the buffers for two full periods.
    prev_crossing_sample: Option<u64>,
    /// Latest Δt per bunch (monitoring + phase bookkeeping).
    last_dt: Vec<f64>,
    /// Monitoring value written by the kernel, if any.
    monitor_value: f64,
    /// Phase-difference monitor output (DAC-quantised `last_dt[0]` ×
    /// monitor scale); its inputs change once per kernel run at most.
    monitor_out: f64,
    /// Initialisation done (first kernel run used as pipeline warm-up).
    warmed_up: bool,
    /// Scratch for the kernel's output ports; the kernel reports through
    /// the bus, so the values themselves are unused.
    kernel_outputs: Vec<(u16, f64)>,
    /// DRAM recording.
    pub records: Vec<RevolutionRecord>,
    recording: bool,
    /// Kernel runs so far.
    pub revolutions: u64,
    /// Deterministic RNG for the ADC noise model (seeded per framework so
    /// runs are exactly reproducible).
    adc_rng: StdRng,
    /// Active ADC fault applied to both channel codes (fault injection).
    adc_fault: Option<AdcFault>,
}

impl SimulatorFramework {
    /// Build the framework. The beam kernel is compiled and scheduled at
    /// most once per configuration — repeated constructions (sweeps,
    /// repeated loop runs) reuse the shared artifact from
    /// [`cil_cgra::cache`] and only stamp out fresh executor state.
    pub fn new(config: FrameworkConfig, kernel_params: KernelParams) -> Self {
        let compiled = cil_cgra::cache::global().get_or_compile(
            &kernel_params,
            config.bunches,
            config.pipelined,
            config.interpolate,
            config.grid,
        );
        let executor = compiled.executor();
        let pulses = (0..config.bunches)
            .map(|_| match &config.pulse_table {
                Some(table) => {
                    GaussPulseGenerator::from_table(table.clone(), config.pulse_amplitude)
                }
                None => GaussPulseGenerator::for_bunch(
                    config.pulse_sigma_s,
                    config.sample_rate,
                    config.pulse_amplitude,
                ),
            })
            .collect();
        let mut fw = Self {
            ref_buffer: CaptureRingBuffer::new(config.buffer_depth),
            gap_buffer: CaptureRingBuffer::new(config.buffer_depth),
            period: PeriodLengthDetector::new(config.period_avg, config.zc_threshold),
            pulses,
            sample: 0,
            last_crossing_sample: None,
            prev_crossing_sample: None,
            last_dt: vec![0.0; config.bunches],
            monitor_value: 0.0,
            monitor_out: 0.0,
            warmed_up: false,
            kernel_outputs: Vec::new(),
            records: Vec::new(),
            recording: true,
            revolutions: 0,
            adc_rng: StdRng::seed_from_u64(0x05EE_DC11),
            adc_fault: None,
            compiled,
            executor,
            config,
        };
        fw.refresh_monitor();
        fw
    }

    /// The active configuration.
    pub fn config(&self) -> &FrameworkConfig {
        &self.config
    }

    /// Parameter-interface write (the SpartanMC register map).
    pub fn write_param(&mut self, reg: u16, value: f64) {
        match reg {
            params::REG_MONITOR_MODE => {
                self.config.monitor_mode = if value == 0.0 {
                    MonitorMode::PhaseDifference
                } else {
                    MonitorMode::MirrorBeam
                };
            }
            params::REG_MONITOR_SCALE => self.config.monitor_scale = value,
            params::REG_PULSE_AMPLITUDE => {
                self.config.pulse_amplitude = value;
                for p in &mut self.pulses {
                    p.amplitude = value;
                }
            }
            params::REG_RECORD_ENABLE => self.recording = value != 0.0,
            _ => {} // unknown registers ignore writes, like real MMIO
        }
        self.refresh_monitor();
    }

    fn refresh_monitor(&mut self) {
        self.monitor_out = self
            .config
            .dac
            .quantize_volts(self.last_dt[0] * self.config.monitor_scale);
    }

    /// Set (or clear) the ADC fault applied to both channel codes — the
    /// injection point of `cil_core::fault` into the converter front-end.
    pub fn set_adc_fault(&mut self, fault: Option<AdcFault>) {
        self.adc_fault = fault;
    }

    /// Process one sample of the two analogue inputs (volts at the ADC
    /// pins); returns the DAC output voltages.
    pub fn push_sample(&mut self, v_ref: f64, v_gap: f64) -> FrameworkOutput {
        // ADC conversion (quantisation + optional input noise), fault
        // corruption at the code level, and capture.
        let (mut ref_code, mut gap_code) = if self.config.adc.noise_rms > 0.0 {
            (
                self.config.adc.convert(v_ref, &mut self.adc_rng),
                self.config.adc.convert(v_gap, &mut self.adc_rng),
            )
        } else {
            (
                self.config.adc.quantize(v_ref),
                self.config.adc.quantize(v_gap),
            )
        };
        if let Some(fault) = self.adc_fault {
            ref_code = self.config.adc.apply_fault(ref_code, fault);
            gap_code = self.config.adc.apply_fault(gap_code, fault);
        }
        let ref_q = self.config.adc.code_to_volts(ref_code);
        let gap_q = self.config.adc.code_to_volts(gap_code);
        self.ref_buffer.push(ref_q);
        self.gap_buffer.push(gap_q);

        // Reference-side detectors.
        let period_updated = self.period.push(ref_q).is_some();
        if period_updated && self.period.warmed_up() {
            // Integer sample index of the crossing (hardware addressing).
            // Rounding — not flooring — the refined crossing time keeps the
            // addressing bias zero-mean; a systematic half-sample offset
            // would slowly walk γ_R through the Eq. (2) feedback.
            // Faults on the reference channel can starve the crossing
            // detector of the refined timestamp; skip the revolution rather
            // than abort the loop service.
            if let Some(crossing_time) = self.period.zero_crossing().last_crossing_time() {
                let crossing = crossing_time.round() as u64;
                self.prev_crossing_sample = self.last_crossing_sample.replace(crossing);
                if let Some(prev) = self.prev_crossing_sample {
                    self.run_kernel(crossing, prev);
                    self.refresh_monitor();
                }
            }
        }

        // Outputs. Between pulses (most samples) the sum is zero, which the
        // DAC reproduces exactly as +0.0.
        let mut beam = 0.0;
        for p in &mut self.pulses {
            beam += p.tick();
        }
        let beam = if beam == 0.0 {
            0.0
        } else {
            self.config.dac.quantize_volts(beam)
        };
        let monitor = match self.config.monitor_mode {
            MonitorMode::PhaseDifference => self.monitor_out,
            MonitorMode::MirrorBeam => beam,
        };
        self.sample += 1;
        FrameworkOutput {
            beam,
            monitor,
            period_updated,
        }
    }

    fn run_kernel(&mut self, crossing: u64, prev_crossing: u64) {
        // Only reachable after `warmed_up()`, but the average can still be
        // absent if a fault resets the detector between check and use.
        let Some(period_samples) = self.period.average_period() else {
            return;
        };
        let period_s = period_samples / self.config.sample_rate;
        let orbit_length = self.kernel_orbit_length();

        let mut bus = FrameworkBus {
            ref_buffer: &self.ref_buffer,
            gap_buffer: &self.gap_buffer,
            period_s,
            // Address relative to the previous crossing: everything within
            // ±Δt of it is guaranteed captured (the two-period buffer
            // sizing argument of Section III-B).
            crossing: prev_crossing,
            current_sample: self.sample,
            dt_out: &mut self.last_dt,
            monitor_out: &mut self.monitor_value,
        };

        if !self.warmed_up {
            // First run doubles as the pipeline warm-up: fill the stage
            // bridges, then restore the architectural state (and pull γ_R
            // from the *measured* frequency, as the paper's init phase does).
            let mut restore = self.compiled.kernel.kernel.reg_inits.clone();
            let gamma_meas =
                cil_physics::relativity::gamma_from_revolution(1.0 / period_s, orbit_length);
            for (name, reg) in &self.compiled.kernel.kernel.statics {
                if name == "gamma_r" {
                    for r in &mut restore {
                        if r.0 == *reg {
                            r.1 = gamma_meas;
                        }
                    }
                }
            }
            // A faulting kernel skips the revolution like an absent period
            // does; the warm-up is retried on the next one.
            if self.executor.try_warmup(&mut bus, &[], &restore).is_ok() {
                self.warmed_up = true;
            }
            // Warm-up outputs are not armed.
            return;
        }

        if self
            .executor
            .try_run_iteration_into(&mut bus, &[], &mut self.kernel_outputs)
            .is_err()
        {
            return;
        }

        // Arm the Gauss pulses for the next revolution: bunch b sits b RF
        // periods after the crossing, plus its Δt.
        let rf_period = period_samples / f64::from(self.config.harmonic);
        for (b, pulse) in self.pulses.iter_mut().enumerate() {
            let dt_samples = self.last_dt[b] * self.config.sample_rate;
            let trigger = crossing as f64 + period_samples + b as f64 * rf_period + dt_samples;
            // DAC-side quantisation of the trigger instant (the residual
            // output jitter of the CGRA path, cf. `crate::jitter`).
            pulse.arm(trigger.round().max(0.0) as u64);
        }

        self.revolutions += 1;
        if self.recording
            && self.config.record_capacity > 0
            && self.records.len() < self.config.record_capacity
        {
            self.records.push(RevolutionRecord {
                crossing_sample: crossing,
                period_s,
                dt: self.last_dt.clone(),
            });
        }
    }

    fn kernel_orbit_length(&self) -> f64 {
        // The orbit length is a generation parameter; SIS18 in all shipped
        // scenarios. (Kept as a method so a future multi-ring setup can
        // thread it through BeamKernel.)
        216.72
    }

    /// Measured revolution period (seconds), if the detector has locked.
    pub fn measured_period(&self) -> Option<f64> {
        self.period
            .average_period()
            .map(|p| p / self.config.sample_rate)
    }

    /// Most recent Δt per bunch.
    pub fn last_dt(&self) -> &[f64] {
        &self.last_dt
    }

    /// Valid samples currently held in the reference capture buffer.
    pub fn ref_buffer_occupancy(&self) -> usize {
        self.ref_buffer.occupancy()
    }

    /// Valid samples currently held in the gap capture buffer.
    pub fn gap_buffer_occupancy(&self) -> usize {
        self.gap_buffer.occupancy()
    }

    /// Last value the kernel wrote to the monitoring actuator.
    pub fn monitor_value(&self) -> f64 {
        self.monitor_value
    }

    /// Direct register access to the CGRA state (test/diagnostic path, like
    /// the SpartanMC debug port). Returns `None` for unknown statics.
    pub fn kernel_static(&self, name: &str) -> Option<f64> {
        self.compiled
            .static_reg(name)
            .map(|reg| self.executor.reg(reg))
    }

    /// Overwrite a kernel static (e.g. to launch the bunch displaced).
    pub fn set_kernel_static(&mut self, name: &str, value: f64) -> bool {
        if let Some(reg) = self.compiled.static_reg(name) {
            self.executor.set_reg(reg, value);
            true
        } else {
            false
        }
    }

    /// The compiled kernel (source + DFG), for inspection.
    pub fn kernel(&self) -> &BeamKernel {
        &self.compiled.kernel
    }

    /// Snapshot the framework's dynamic state: CGRA register file, capture
    /// buffers, period detector, pulse generators, crossing bookkeeping,
    /// ADC-noise RNG cursor and the active ADC fault. The compiled kernel is
    /// *not* captured — it is recompiled (or taken from the shared cache) on
    /// restore. The DRAM recording (`records`) is also not captured; see
    /// DESIGN.md §5 for the rationale.
    pub fn state(&self) -> FrameworkState {
        FrameworkState {
            executor: self.executor.state(),
            ref_buffer: self.ref_buffer.state(),
            gap_buffer: self.gap_buffer.state(),
            period: self.period.state(),
            pulses: self.pulses.iter().map(|p| p.state()).collect(),
            sample: self.sample,
            last_crossing_sample: self.last_crossing_sample,
            prev_crossing_sample: self.prev_crossing_sample,
            last_dt: self.last_dt.clone(),
            monitor_value: self.monitor_value,
            warmed_up: self.warmed_up,
            recording: self.recording,
            revolutions: self.revolutions,
            adc_rng: self.adc_rng.state(),
            adc_fault: self.adc_fault,
        }
    }

    /// Restore a state captured by [`Self::state`] onto a freshly built
    /// framework of the *same configuration*. Fails (returns `false`) on any
    /// shape mismatch — buffer depth, period window, register-file size,
    /// pulse count or bunch count.
    pub fn restore(&mut self, state: &FrameworkState) -> bool {
        if state.pulses.len() != self.pulses.len() || state.last_dt.len() != self.last_dt.len() {
            return false;
        }
        if !self.executor.restore(&state.executor)
            || !self.ref_buffer.restore(&state.ref_buffer)
            || !self.gap_buffer.restore(&state.gap_buffer)
            || !self.period.restore(&state.period)
        {
            return false;
        }
        for (p, ps) in self.pulses.iter_mut().zip(&state.pulses) {
            if !p.restore(ps) {
                return false;
            }
        }
        self.sample = state.sample;
        self.last_crossing_sample = state.last_crossing_sample;
        self.prev_crossing_sample = state.prev_crossing_sample;
        self.last_dt = state.last_dt.clone();
        self.monitor_value = state.monitor_value;
        self.warmed_up = state.warmed_up;
        self.recording = state.recording;
        self.revolutions = state.revolutions;
        self.adc_rng = StdRng::from_state(state.adc_rng);
        self.adc_fault = state.adc_fault;
        self.refresh_monitor();
        true
    }

    /// Schedule length of the configured kernel in CGRA ticks.
    pub fn schedule_ticks(&self) -> u32 {
        self.executor.ticks_per_iteration()
    }

    /// Whether the initialisation (detector lock + pipeline warm-up) is done.
    pub fn initialised(&self) -> bool {
        self.warmed_up
    }

    /// Swap the beam-pulse table at runtime (normalised to peak 1) — the
    /// Section VI parametric-pulse path: e.g. feed in
    /// `cil_reftrack::observables::parametric_pulse` of a tracked ensemble
    /// so the synthetic beam adapts to the actual bunch shape.
    pub fn set_pulse_table(&mut self, table: Vec<f64>) -> Result<()> {
        if table.is_empty() {
            return Err(CilError::InvalidConfig(
                "pulse table must not be empty".into(),
            ));
        }
        for p in &mut self.pulses {
            p.set_table(table.clone());
        }
        self.config.pulse_table = Some(table);
        Ok(())
    }
}

/// Checkpointable state of a [`SimulatorFramework`].
///
/// Everything dynamic is here; the compiled kernel, pulse tables and
/// configuration are rebuilt from the scenario. The DRAM recording
/// (`records`) is intentionally excluded.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameworkState {
    /// CGRA register file + iteration counter.
    pub executor: cil_cgra::ExecutorState,
    /// Reference-channel capture buffer.
    pub ref_buffer: cil_dsp::ring_buffer::RingBufferState,
    /// Gap-channel capture buffer.
    pub gap_buffer: cil_dsp::ring_buffer::RingBufferState,
    /// Period-length detector (zero-crossing + averaging window).
    pub period: cil_dsp::period::PeriodDetectorState,
    /// Per-bunch Gauss pulse generator states.
    pub pulses: Vec<cil_dsp::gauss::GaussPulseState>,
    /// Framework sample clock.
    pub sample: u64,
    /// Last accepted zero-crossing sample index.
    pub last_crossing_sample: Option<u64>,
    /// The crossing before that (buffer addressing base).
    pub prev_crossing_sample: Option<u64>,
    /// Latest Δt per bunch, seconds.
    pub last_dt: Vec<f64>,
    /// Last kernel monitor write.
    pub monitor_value: f64,
    /// Pipeline warm-up done.
    pub warmed_up: bool,
    /// DRAM recording enabled.
    pub recording: bool,
    /// Kernel runs so far.
    pub revolutions: u64,
    /// ADC-noise RNG stream cursor.
    pub adc_rng: u64,
    /// Active ADC fault, if any.
    pub adc_fault: Option<AdcFault>,
}

/// The SensorAccess implementation backed by the framework's detectors and
/// capture buffers.
struct FrameworkBus<'a> {
    ref_buffer: &'a CaptureRingBuffer,
    gap_buffer: &'a CaptureRingBuffer,
    period_s: f64,
    crossing: u64,
    current_sample: u64,
    dt_out: &'a mut [f64],
    monitor_out: &'a mut f64,
}

impl FrameworkBus<'_> {
    fn buffer_read(&self, buf: &CaptureRingBuffer, addr: f64) -> f64 {
        // `addr` = whole samples relative to the last positive zero
        // crossing. Translate to a "samples back from now" offset.
        let abs = self.crossing as f64 + addr;
        let back = self.current_sample as f64 - abs;
        debug_assert!(
            back >= 0.0,
            "future read: addressing must use the previous crossing"
        );
        if back < 0.0 {
            return buf.read_back(0).unwrap_or(0.0);
        }
        buf.read_back(back.round() as usize).unwrap_or(0.0)
    }
}

impl SensorBus for FrameworkBus<'_> {
    fn read(&mut self, port: u16, addr: f64) -> f64 {
        match port {
            PORT_PERIOD => self.period_s,
            PORT_REF_BUF => self.buffer_read(self.ref_buffer, addr),
            PORT_GAP_BUF => self.buffer_read(self.gap_buffer, addr),
            _ => 0.0,
        }
    }

    fn write(&mut self, port: u16, value: f64) {
        if port == ACT_MONITOR {
            *self.monitor_out = value;
        } else {
            let b = (port - ACT_DT_BASE) as usize;
            if b < self.dt_out.len() {
                self.dt_out[b] = value;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signalgen::{PhaseJumpProgram, SignalBench};
    use cil_physics::machine::MachineParams;
    use cil_physics::synchrotron::SynchrotronCalc;
    use cil_physics::IonSpecies;

    fn kernel_params(v_hat: f64, amp_adc: f64) -> KernelParams {
        let machine = MachineParams::sis18();
        let ion = IonSpecies::n14_7plus();
        KernelParams {
            orbit_length_m: machine.orbit_length_m,
            momentum_compaction: machine.momentum_compaction,
            gamma_per_volt: ion.gamma_per_volt(),
            sample_rate: 250e6,
            scale_ref: v_hat / amp_adc,
            scale_gap: v_hat / amp_adc,
            gamma_r_init: cil_physics::relativity::gamma_from_revolution(800e3, 216.72),
        }
    }

    fn v_hat() -> f64 {
        SynchrotronCalc::new(MachineParams::sis18(), IonSpecies::n14_7plus())
            .voltage_for_fs(800e3, 1.28e3)
            .unwrap()
    }

    fn small_config(bunches: usize) -> FrameworkConfig {
        FrameworkConfig {
            bunches,
            record_capacity: 100_000,
            ..FrameworkConfig::evaluation_default()
        }
    }

    /// Run the framework against the signal bench for `seconds`, collecting
    /// outputs.
    fn run_bench(
        fw: &mut SimulatorFramework,
        bench: &mut SignalBench,
        seconds: f64,
    ) -> Vec<FrameworkOutput> {
        let n = (seconds * 250e6) as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let (r, g) = bench.tick();
            out.push(fw.push_sample(r, g));
        }
        out
    }

    fn quiet_bench() -> SignalBench {
        SignalBench::new(
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
        )
    }

    #[test]
    fn initialises_and_measures_period() {
        let mut fw = SimulatorFramework::new(small_config(1), kernel_params(v_hat(), 0.5));
        let mut bench = quiet_bench();
        run_bench(&mut fw, &mut bench, 100e-6); // 80 revolutions
        assert!(fw.initialised());
        let p = fw.measured_period().unwrap();
        assert!((p - 1.25e-6).abs() < 1e-9, "period {p}");
        assert!(fw.revolutions > 50);
    }

    #[test]
    fn quiescent_beam_stays_on_reference() {
        let mut fw = SimulatorFramework::new(small_config(1), kernel_params(v_hat(), 0.5));
        let mut bench = quiet_bench();
        run_bench(&mut fw, &mut bench, 200e-6);
        // No jump, bunch launched on-reference: |dt| stays tiny compared to
        // an RF period (78 ns).
        let dt = fw.last_dt()[0].abs();
        assert!(dt < 5e-9, "quiescent dt = {dt}");
    }

    #[test]
    fn beam_pulses_appear_once_per_rf_bucket() {
        let mut fw = SimulatorFramework::new(small_config(4), kernel_params(v_hat(), 0.5));
        let mut bench = quiet_bench();
        let out = run_bench(&mut fw, &mut bench, 300e-6);
        // Count beam-pulse peaks in the second half (initialised, armed).
        let half = out.len() / 2;
        let beam: Vec<f64> = out[half..].iter().map(|o| o.beam).collect();
        let mut peaks = 0;
        for i in 1..beam.len() - 1 {
            if beam[i] > 0.7 && beam[i] >= beam[i - 1] && beam[i] > beam[i + 1] {
                peaks += 1;
            }
        }
        // 150 µs at 800 kHz × 4 bunches = 480 pulses.
        assert!((peaks as i64 - 480).abs() <= 8, "peaks = {peaks}");
    }

    #[test]
    fn displaced_bunch_oscillates_at_synchrotron_frequency() {
        // Unpipelined kernel: the pipelined variant's two-turn-stale
        // voltages add a slow anti-damping that grows the amplitude by
        // ~20% over this window (see hil tests / EXPERIMENTS.md), which
        // would confound the amplitude check here.
        let mut cfg = small_config(1);
        cfg.pipelined = false;
        let mut fw = SimulatorFramework::new(cfg, kernel_params(v_hat(), 0.5));
        let mut bench = quiet_bench();
        // Initialise first.
        run_bench(&mut fw, &mut bench, 50e-6);
        assert!(fw.initialised());
        // Displace by 8° at the RF harmonic.
        let dt0 = 8.0 / 360.0 / 3.2e6;
        assert!(fw.set_kernel_static("dt_0", dt0));
        // Track for six synchrotron periods (~4.7 ms) — enough resolution
        // for the spectral estimate.
        fw.records.clear();
        run_bench(&mut fw, &mut bench, 4.7e-3);
        let trace: Vec<f64> = fw.records.iter().map(|r| r.dt[0]).collect();
        assert!(trace.len() > 3000);
        // Dominant frequency ≈ 1.28 kHz (trace sampled at 800 kHz).
        let (f_norm, amp) =
            cil_dsp::spectrum::dominant_frequency(&trace, 800.0 / 800e3, 2000.0 / 800e3);
        let fs = f_norm * 800e3;
        assert!((fs - 1.28e3).abs() < 60.0, "fs = {fs}");
        assert!((amp - dt0).abs() / dt0 < 0.2, "amplitude {amp} vs {dt0}");
    }

    #[test]
    fn monitor_mux_switches_at_runtime() {
        let mut fw = SimulatorFramework::new(small_config(1), kernel_params(v_hat(), 0.5));
        let mut bench = quiet_bench();
        run_bench(&mut fw, &mut bench, 50e-6);
        fw.set_kernel_static("dt_0", 10e-9);
        let out_phase = run_bench(&mut fw, &mut bench, 20e-6);
        // Phase-difference mode: monitor ≈ dt * scale, nonzero.
        let m = out_phase.last().unwrap().monitor;
        assert!(m.abs() > 1e-3, "phase monitor {m}");
        // Switch to mirror mode via the parameter interface.
        fw.write_param(params::REG_MONITOR_MODE, 1.0);
        let out_mirror = run_bench(&mut fw, &mut bench, 20e-6);
        for o in &out_mirror {
            assert_eq!(o.monitor, o.beam, "mirror mode copies the beam output");
        }
    }

    #[test]
    fn recorder_respects_enable_and_capacity() {
        let mut cfg = small_config(1);
        cfg.record_capacity = 10;
        let mut fw = SimulatorFramework::new(cfg, kernel_params(v_hat(), 0.5));
        let mut bench = quiet_bench();
        run_bench(&mut fw, &mut bench, 100e-6);
        assert_eq!(fw.records.len(), 10, "capacity bound");
        fw.write_param(params::REG_RECORD_ENABLE, 0.0);
        fw.records.clear();
        run_bench(&mut fw, &mut bench, 50e-6);
        assert!(fw.records.is_empty(), "recording disabled");
    }

    #[test]
    fn pulse_amplitude_parameter_applies() {
        let mut fw = SimulatorFramework::new(small_config(1), kernel_params(v_hat(), 0.5));
        let mut bench = quiet_bench();
        fw.write_param(params::REG_PULSE_AMPLITUDE, 0.25);
        let out = run_bench(&mut fw, &mut bench, 300e-6);
        let max_beam = out[out.len() / 2..]
            .iter()
            .map(|o| o.beam)
            .fold(0.0f64, f64::max);
        assert!((max_beam - 0.25).abs() < 0.01, "peak {max_beam}");
    }

    #[test]
    fn unpipelined_kernel_also_runs() {
        let mut cfg = small_config(1);
        cfg.pipelined = false;
        let mut fw = SimulatorFramework::new(cfg, kernel_params(v_hat(), 0.5));
        let mut bench = quiet_bench();
        run_bench(&mut fw, &mut bench, 100e-6);
        assert!(fw.initialised());
        assert!(fw.last_dt()[0].abs() < 5e-9);
    }

    #[test]
    fn parametric_pulse_table_shapes_the_beam() {
        // A rectangular pulse table replaces the Gaussian: the beam output
        // must show flat-topped pulses.
        let mut cfg = small_config(1);
        cfg.pulse_table = Some(vec![1.0; 15]);
        let mut fw = SimulatorFramework::new(cfg, kernel_params(v_hat(), 0.5));
        let mut bench = quiet_bench();
        let out = run_bench(&mut fw, &mut bench, 200e-6);
        let half = &out[out.len() / 2..];
        // Count samples at the (quantised) top per pulse window: a Gaussian
        // has 1 peak sample, the rectangle has 15.
        let top = half.iter().filter(|o| o.beam > 0.79).count();
        let pulses = 200e-6 / 2.0 * 800e3; // pulses in the second half
        let per_pulse = top as f64 / pulses;
        assert!(
            (per_pulse - 15.0).abs() < 1.0,
            "flat top of {per_pulse} samples"
        );
    }

    #[test]
    fn pulse_table_swaps_at_runtime() {
        let mut fw = SimulatorFramework::new(small_config(1), kernel_params(v_hat(), 0.5));
        let mut bench = quiet_bench();
        run_bench(&mut fw, &mut bench, 100e-6);
        // Adapt the pulse to a wider flat shape mid-run.
        fw.set_pulse_table(vec![1.0; 25]).unwrap();
        let out = run_bench(&mut fw, &mut bench, 100e-6);
        let top = out[out.len() / 2..]
            .iter()
            .filter(|o| o.beam > 0.79)
            .count();
        let per_pulse = top as f64 / (100e-6 / 2.0 * 800e3);
        assert!(
            (per_pulse - 25.0).abs() < 2.0,
            "swapped table in effect: {per_pulse}"
        );
    }

    #[test]
    fn schedule_ticks_exposed() {
        let fw = SimulatorFramework::new(small_config(1), kernel_params(v_hat(), 0.5));
        let t = fw.schedule_ticks();
        assert!(t > 20 && t < 400, "ticks = {t}");
    }
}
