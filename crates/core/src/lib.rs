//! # cil-core — the Cavity-in-the-Loop HIL framework
//!
//! The paper's contribution: a hardware-in-the-loop environment in which the
//! (real) beam-phase control system runs against a real-time simulation of
//! the beam. This crate models the complete Fig. 3 / Fig. 4 setup:
//!
//! * [`clock`] — the two clock domains (250 MHz system, 111 MHz CGRA) and
//!   the BuTiS-grade master clock;
//! * [`signalgen`] — the group DDS (reference + gap, synchronised reset)
//!   and the AWG/CEL phase-jump injection path;
//! * [`framework`] — the FPGA top level: ADC front-ends, capture ring
//!   buffers, zero-crossing + period-length detectors, the CGRA
//!   `SensorBus` wiring, Gauss pulse generators, monitoring mux, the
//!   SpartanMC-style parameter interface and the DRAM recorder;
//! * [`control`] — the beam-phase control loop (FIR + recursion factor +
//!   gain, frequency actuation on the gap DDS — Klingbeil 2007);
//! * [`engine`] — the beam models behind one [`engine::BeamEngine`]
//!   step-per-measurement interface (two-particle map, CGRA executor,
//!   multi-particle reference, ramp, full signal chain);
//! * [`harness`] — the shared closed-loop skeleton (controller + jump
//!   program + instrumentation offset + trace recording) every executive
//!   runs through;
//! * [`hil`] — closed-loop executives at two fidelities: **signal-level**
//!   (every 250 MHz sample) and **turn-level** (one step per revolution,
//!   validated against signal-level in ablation A6);
//! * [`scenario`] — experiment descriptions (the Nov 24 2023 MDE, ramp-up,
//!   multi-bunch);
//! * [`jitter`] — output-timing jitter models comparing an OS-scheduled
//!   software simulator against the CGRA pipeline (the Section I
//!   motivation);
//! * [`fault`] — the fault-injection + loop-supervision layer: scheduled
//!   hardware faults (ADC, DDS, detector, engine), the per-revolution
//!   deadline watchdog and graceful engine degradation;
//! * [`error`] — the typed [`error::CilError`] every run-path constructor
//!   returns instead of panicking;
//! * [`event`] — the deterministic event-scheduled core: [`event::SimEvent`]
//!   taxonomy and the [`event::EventQueue`] whose horizon sizes every engine
//!   step block (actuation, checkpoint, observer, wall-sample and watchdog
//!   cadences all enter as scheduled events);
//! * [`campaign`] — the crash-safe campaign runner: resumable sharded
//!   sweeps over 10⁵+ points with a framed WAL, per-point panic isolation,
//!   deterministic retry/backoff and poison-point quarantine;
//! * [`checkpoint`] — versioned, CRC-checksummed snapshots of the complete
//!   closed-loop state plus a write-ahead trace log, so a killed run
//!   resumes bit-identical to an uninterrupted one;
//! * [`session`] — the multi-session execution core: [`session::SessionMux`]
//!   hosts thousands of concurrent closed-loop sessions with work-stealing
//!   workers, cooperative time slices, per-worker engine arenas and
//!   checkpoint-backed eviction of idle sessions;
//! * [`telemetry`] — the zero-allocation-on-hot-path metrics registry
//!   (counters, gauges, log2-bucket histograms), span timing, registry
//!   merging for parallel sweeps, and Prometheus/JSON export;
//! * [`trace`] — time-series recording, CSV export and the Fig. 5 summary
//!   statistics (measured f_s, first-peak ratio, damping time).

pub mod campaign;
pub mod checkpoint;
pub mod clock;
pub mod control;
pub mod engine;
pub mod error;
pub mod event;
pub mod fault;
pub mod framework;
pub mod harness;
pub mod hil;
pub mod jitter;
pub mod multibunch;
pub mod ramploop;
pub mod recorder;
pub mod scenario;
pub mod session;
pub mod signalgen;
pub mod sweep;
pub mod telemetry;
pub mod trace;

pub use campaign::{
    Campaign, CampaignConfig, CampaignError, CampaignPoint, CampaignReport, CampaignWorker,
    PointOutcome, PointStatus,
};
pub use checkpoint::{Checkpoint, CheckpointConfig, CheckpointError};
pub use control::{BeamPhaseController, CompensationPolicy};
pub use engine::{BeamEngine, EngineKind, EngineState, EngineStep};
pub use error::CilError;
pub use event::{EventQueue, ScheduledEvent, SimEvent};
pub use fault::{
    CavityPlant, CavityPlantState, CavitySample, FaultEvent, FaultInjector, FaultKind,
    FaultProgram, LoopEvent, LoopOutcome, LoopSupervisor, LossCause, StepCalibration,
    SupervisorConfig,
};
pub use harness::{LoopHarness, LoopTrace, RunSpec, RunStart};
pub use hil::{SignalLevelLoop, TurnLevelLoop};
pub use multibunch::MultiBunchLoop;
pub use ramploop::RampLoop;
pub use scenario::MdeScenario;
pub use session::{MuxConfig, SessionHandle, SessionMux, SessionSpec, SessionState, SessionStatus};
pub use sweep::{EngineArena, SweepPanic};
pub use telemetry::{TelemetryRegistry, TelemetrySnapshot};
pub use trace::TimeSeries;
