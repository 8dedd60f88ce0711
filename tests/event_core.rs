//! Event-core acceptance tests: the deterministic event-scheduled loop.
//!
//! The harness schedules everything that observes or perturbs the closed
//! loop — controller actuation, checkpoint cadence, observer hooks,
//! wall-clock sampling, the supervisor watchdog — as [`SimEvent`]s on an
//! [`EventQueue`], and sizes every engine step block to the queue's
//! horizon. The contract under test: for *any* interleaving of event
//! cadences (deliberately coprime, so due rows land mid-block unless the
//! horizon caps them) and any block size, the recorded trace, audit
//! events, deterministic telemetry and checkpoint directory bytes are
//! bit-identical to per-turn stepping; and same-tick events fire in one
//! fixed `(tick, priority, seq)` order regardless of insertion order.

use cil_core::checkpoint::CheckpointConfig;
use cil_core::event::{EventQueue, ScheduledEvent, SimEvent};
use cil_core::fault::FaultProgram;
use cil_core::harness::{LoopHarness, LoopTrace, RunSpec, DEFAULT_BLOCK_ROWS};
use cil_core::hil::EngineKind;
use cil_core::signalgen::PhaseJumpProgram;
use cil_core::telemetry::TelemetrySnapshot;
use cil_core::{LoopSupervisor, MdeScenario, StepCalibration, TelemetryRegistry};
use proptest::prelude::*;
use std::path::PathBuf;

/// Block sizes spanning per-turn, sub-default, the default and
/// larger-than-any-cadence-window.
const BLOCK_SIZES: [usize; 4] = [1, 5, DEFAULT_BLOCK_ROWS, 1000];

/// Coprime to every tested block size (1, 5, 64, 1000), to the wall-sample
/// cadence (64) and to every tested decimation — due rows land mid-block
/// unless the horizon caps them.
const CKPT_CADENCE: usize = 97;

/// Observer cadence, coprime to the block sizes and decimations.
const OBSERVER_CADENCE: u64 = 3;

/// Decimations (controller actuation cadence) the interleaving sweep
/// covers, all coprime to 64 and 97 and to each other.
const DECIMATIONS: [u32; 3] = [3, 5, 7];

fn base_scenario(duration_s: f64) -> MdeScenario {
    let mut s = MdeScenario::nov24_2023();
    s.duration_s = duration_s;
    s.bunches = 1;
    s
}

/// A scenario whose cadences all collide: coprime actuation decimation, a
/// jump program toggling mid-run, and a detector-outlier storm so the
/// fault path (per-step detection + per-row corruption) is live too.
fn interleaved_scenario(decimation: u32) -> MdeScenario {
    let mut s = base_scenario(0.05);
    s.controller.decimation = decimation;
    s.jumps = PhaseJumpProgram {
        amplitude_deg: 8.0,
        interval_s: 0.02,
        path_latency_s: 0.0,
    };
    s.faults = FaultProgram::detector_outlier_storm(0.01, 0.03, 0.05, 40.0, 0xC0FFEE);
    s
}

fn assert_traces_identical(a: &LoopTrace, b: &LoopTrace, what: &str) {
    assert_eq!(a.times, b.times, "{what}: row times");
    assert_eq!(a.bunch_phase_deg, b.bunch_phase_deg, "{what}: bunch rows");
    assert_eq!(a.mean_phase_deg, b.mean_phase_deg, "{what}: mean phase");
    assert_eq!(a.control_hz, b.control_hz, "{what}: actuation");
    assert_eq!(a.jump_times, b.jump_times, "{what}: jump edges");
    assert_eq!(a.events, b.events, "{what}: audit events");
    assert_eq!(a.outcome, b.outcome, "{what}: outcome");
}

/// Drop wall-clock-derived metrics (names containing `wall`) — the only
/// part of a snapshot allowed to differ between runs of the same loop.
fn deterministic_part(snap: &TelemetrySnapshot) -> TelemetrySnapshot {
    TelemetrySnapshot {
        counters: snap
            .counters
            .iter()
            .filter(|(n, _)| !n.contains("wall"))
            .cloned()
            .collect(),
        gauges: snap
            .gauges
            .iter()
            .filter(|(n, _)| !n.contains("wall"))
            .cloned()
            .collect(),
        histograms: snap
            .histograms
            .iter()
            .filter(|(n, _)| !n.contains("wall"))
            .cloned()
            .collect(),
    }
}

fn counter(snap: &TelemetrySnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no counter {name}"))
        .1
}

fn ckpt_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/target/event-core-tests"
    ))
    .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sorted (name, bytes) of every file in a checkpoint directory.
type DirBytes = Vec<(String, Vec<u8>)>;

fn dir_bytes(dir: &PathBuf) -> DirBytes {
    let mut out: DirBytes = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The tentpole property, unsupervised: coprime actuation / observer /
    /// wall-sample cadences under a live fault storm, swept over every
    /// block size — trace, events and deterministic telemetry must all be
    /// bit-identical to the per-turn (block = 1) reference.
    #[test]
    fn interleaved_cadences_are_block_size_invariant(dec_idx in 0usize..DECIMATIONS.len()) {
        let s = interleaved_scenario(DECIMATIONS[dec_idx]);
        let mut reference: Option<(LoopTrace, TelemetrySnapshot, u64)> = None;
        for block in BLOCK_SIZES {
            let registry = TelemetryRegistry::new();
            let mut engine = EngineKind::Map.build(&s).unwrap();
            let mut fired = 0u64;
            let trace = LoopHarness::for_scenario(&s, true)
                .with_telemetry(&registry)
                .with_block_rows(block)
                .unwrap()
                .run_with_every(engine.as_mut(), s.duration_s, OBSERVER_CADENCE, |_| fired += 1)
                .unwrap();
            prop_assert!(!trace.jump_times.is_empty(), "jumps toggled in-run");
            prop_assert!(!trace.events.is_empty(), "storm produced audit events");
            let snap = registry.snapshot();
            match &reference {
                None => reference = Some((trace, snap, fired)),
                Some((ref_trace, ref_snap, ref_fired)) => {
                    let what = format!("decimation={} block={block}", DECIMATIONS[dec_idx]);
                    assert_traces_identical(ref_trace, &trace, &what);
                    prop_assert_eq!(
                        deterministic_part(ref_snap),
                        deterministic_part(&snap),
                        "{}: telemetry", what
                    );
                    prop_assert_eq!(*ref_fired, fired, "{}: observer firings", what);
                }
            }
        }
    }

    /// The tentpole property, supervised + checkpointed: a coprime
    /// checkpoint cadence against coprime decimation under supervision —
    /// trace and the complete checkpoint directory bytes must be
    /// bit-identical for every block size. (No telemetry attached: every
    /// checkpoint byte is then deterministic.)
    #[test]
    fn supervised_checkpoint_bytes_are_block_size_invariant(dec_idx in 0usize..DECIMATIONS.len()) {
        let decimation = DECIMATIONS[dec_idx];
        let mut s = interleaved_scenario(decimation);
        s.duration_s = 0.02;
        let mut reference: Option<(LoopTrace, DirBytes)> = None;
        for block in BLOCK_SIZES {
            let dir = ckpt_dir(&format!("sup-d{decimation}-b{block}"));
            let mut cfg = CheckpointConfig::new(dir.clone());
            cfg.every_turns = CKPT_CADENCE;
            let mut sup = LoopSupervisor::for_scenario(&s);
            // Pin the warmup calibration: it is wall-clock-measured and
            // serialized into every checkpoint, so byte comparison needs a
            // fixed value (the harness skips calibration when one matching
            // the fidelity is already set).
            sup.set_calibration(StepCalibration {
                kind: EngineKind::Map,
                step_seconds: 5.0e-8,
            });
            let trace = LoopHarness::for_scenario(&s, true)
                .with_block_rows(block)
                .unwrap()
                .with_checkpointing(cfg)
                .run_supervised(&s, EngineKind::Map, s.duration_s, &mut sup)
                .unwrap();
            let bytes = dir_bytes(&dir);
            prop_assert!(!bytes.is_empty(), "block={block}: checkpoints were written");
            match &reference {
                None => reference = Some((trace, bytes)),
                Some((ref_trace, ref_bytes)) => {
                    let what = format!("decimation={decimation} block={block}");
                    assert_traces_identical(ref_trace, &trace, &what);
                    prop_assert_eq!(ref_bytes, &bytes, "{}: checkpoint bytes", what);
                }
            }
        }
    }

    /// Same-tick tie-break determinism: whatever order same-tick events are
    /// inserted in, the queue pops them in the one documented priority
    /// order, and a raw sort of the [`ScheduledEvent`]s agrees (the
    /// insertion `seq` breaks any remaining tie, so the total order is
    /// fixed — never partial).
    #[test]
    fn same_tick_events_pop_in_one_fixed_order(seed in 0u64..u64::MAX / 2) {
        // Fisher–Yates over a seeded LCG: a deterministic permutation of
        // the insertion order per proptest case.
        let mut order: Vec<SimEvent> = SimEvent::ALL.to_vec();
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for i in (1..order.len()).rev() {
            order.swap(i, next() as usize % (i + 1));
        }

        let mut q = EventQueue::new();
        for &kind in &order {
            q.schedule(kind, 42);
        }
        let mut popped = Vec::new();
        while let Some(kind) = q.pop_due(42) {
            popped.push(kind);
        }
        prop_assert_eq!(popped, SimEvent::ALL.to_vec(), "insertion order {:?}", order);

        // The raw event ordering agrees and is total: same tick resolves
        // by priority, identical (tick, kind) by insertion seq.
        let mut raw: Vec<ScheduledEvent> = order
            .iter()
            .enumerate()
            .map(|(seq, &kind)| ScheduledEvent { tick: 42, kind, seq: seq as u64 })
            .collect();
        raw.sort();
        let kinds: Vec<SimEvent> = raw.iter().map(|e| e.kind).collect();
        prop_assert_eq!(kinds, SimEvent::ALL.to_vec());
        for seq in 0..3u64 {
            let a = ScheduledEvent { tick: 7, kind: SimEvent::Observer, seq };
            let b = ScheduledEvent { tick: 7, kind: SimEvent::Observer, seq: seq + 1 };
            prop_assert!(a < b, "insertion seq is the final tie-break");
        }
    }
}

/// A sampled observer fires exactly `floor(rows / n)` times and never
/// perturbs the trace, across cadences spanning sub-block to
/// larger-than-run.
#[test]
fn sampled_observer_cadences_fire_exactly_and_identically() {
    let s = base_scenario(0.02);
    let mut engine = EngineKind::Map.build(&s).unwrap();
    let reference = LoopHarness::for_scenario(&s, true).run(engine.as_mut(), s.duration_s);
    for every in [1u64, 7, 64, 997, 1_000_000] {
        let mut engine = EngineKind::Map.build(&s).unwrap();
        let mut fired = 0u64;
        let trace = LoopHarness::for_scenario(&s, true)
            .run_with_every(engine.as_mut(), s.duration_s, every, |_| fired += 1)
            .unwrap();
        assert_eq!(
            fired,
            trace.times.len() as u64 / every,
            "cadence {every}: firings"
        );
        assert_traces_identical(&reference, &trace, &format!("cadence {every}"));
    }
}

/// The exported event tallies agree with what an auditor derives from the
/// trace: actuations = rows / decimation, observer firings = rows /
/// cadence, wall samples = rows / 64, jump edges = recorded jump times,
/// and each cadence kind holds the scheduled = fired + 1 invariant (the
/// final occurrence is still armed when the run ends).
#[test]
fn event_tallies_match_the_trace() {
    let s = base_scenario(0.02);
    let registry = TelemetryRegistry::new();
    let mut engine = EngineKind::Map.build(&s).unwrap();
    let trace = LoopHarness::for_scenario(&s, true)
        .with_telemetry(&registry)
        .run_with_every(engine.as_mut(), s.duration_s, OBSERVER_CADENCE, |_| {})
        .unwrap();
    let snap = registry.snapshot();
    let rows = trace.times.len() as u64;
    let decimation = u64::from(s.controller.decimation);
    let fired = |kind: &str| counter(&snap, &format!("cil_events_fired_total{{kind=\"{kind}\"}}"));
    let scheduled = |kind: &str| {
        counter(
            &snap,
            &format!("cil_events_scheduled_total{{kind=\"{kind}\"}}"),
        )
    };
    assert_eq!(fired("actuation"), rows / decimation);
    assert_eq!(fired("observer"), rows / OBSERVER_CADENCE);
    assert_eq!(fired("wall_sample"), rows / 64);
    assert_eq!(fired("jump_edge"), trace.jump_times.len() as u64);
    assert_eq!(fired("fault_edge"), 0, "clean run has no fault edges");
    assert_eq!(fired("watchdog"), 0, "unsupervised run has no watchdog");
    assert_eq!(fired("checkpoint"), 0, "no checkpointing configured");
    for kind in ["actuation", "observer", "wall_sample"] {
        assert_eq!(
            scheduled(kind),
            fired(kind) + 1,
            "{kind}: the final occurrence is still armed at run end"
        );
    }
    let depth = snap
        .gauges
        .iter()
        .find(|(n, _)| n == "cil_events_queue_depth{checkpointing=\"off\"}")
        .expect("queue depth gauge exported")
        .1;
    assert_eq!(depth, 3.0, "actuation + observer + wall sample stay armed");
}

/// Invalid event cadences are typed config errors, not silent clamps.
#[test]
fn zero_cadences_are_rejected_as_config_errors() {
    let s = base_scenario(0.01);
    assert!(LoopHarness::for_scenario(&s, true)
        .with_block_rows(0)
        .is_err());
    let mut cfg = CheckpointConfig::new(ckpt_dir("zero-cadence"));
    cfg.every_turns = 0;
    assert!(cfg.validate().is_err());
    let mut cfg = CheckpointConfig::new(ckpt_dir("zero-keep"));
    cfg.keep = 0;
    assert!(cfg.validate().is_err());
    let mut engine = EngineKind::Map.build(&s).unwrap();
    assert!(LoopHarness::for_scenario(&s, true)
        .run_with_every(engine.as_mut(), s.duration_s, 0, |_| {})
        .is_err());
}

/// A zero checkpoint cadence aborts `run_spec` before any engine stepping
/// or directory I/O happens.
#[test]
fn run_spec_validates_the_cadence() {
    let s = base_scenario(0.01);
    let dir = ckpt_dir("invalid-run");
    let mut cfg = CheckpointConfig::new(dir.clone());
    cfg.every_turns = 0;
    let err = LoopHarness::for_scenario(&s, true)
        .with_checkpointing(cfg)
        .run_spec(
            &s,
            RunSpec::fresh(&s, EngineKind::Map, s.duration_s).unwrap(),
        );
    assert!(err.is_err(), "cadence 0 must be rejected");
    assert!(!dir.exists(), "no checkpoint directory for a rejected run");
}
