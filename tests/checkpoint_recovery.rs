//! Checkpoint / crash-recovery acceptance tests.
//!
//! The headline claim: a closed-loop run killed at an arbitrary turn —
//! including mid-fault-storm and across a fidelity demotion — and resumed
//! from its checkpoint directory converges to the *bit-identical* final
//! state: same trace rows, same audit events, same deterministic telemetry
//! as an uninterrupted run. A corrupted or truncated newest snapshot is
//! detected, audited as [`LoopEvent::CheckpointRejected`], and recovery
//! falls back to the previous good snapshot. The decoder never panics on
//! hostile bytes, and (release builds) checkpointing at the default cadence
//! costs ~1.08x wall-clock on a quiet machine, bounded at 1.25x
//! (`results/BENCH_checkpoint.json`).

use cil_core::checkpoint::{
    crc32, decode_snapshot, decode_trace_log, encode_snapshot, CheckpointConfig, CheckpointError,
};
use cil_core::engine::MapEngine;
use cil_core::fault::{FaultEvent, FaultKind, FaultProgram, LoopEvent};
use cil_core::harness::{LoopHarness, LoopTrace, RunSpec, RunStart};
use cil_core::hil::EngineKind;
use cil_core::signalgen::PhaseJumpProgram;
use cil_core::telemetry::TelemetrySnapshot;
use cil_core::{
    CilError, LoopSupervisor, MdeScenario, MuxConfig, SessionMux, SessionSpec, TelemetryRegistry,
};
use proptest::prelude::*;
use std::path::PathBuf;

/// Fresh per-test checkpoint directory under the target tree (no tempfile
/// dependency; `CheckpointSession::begin` clears stale state on reuse).
fn ckpt_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/ckpt-tests")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything in a snapshot except wall-clock metrics (allowed to differ
/// between identical runs) and checkpoint-op metrics (which differ by
/// construction between an interrupted and an uninterrupted run).
fn deterministic_part(snap: &TelemetrySnapshot) -> TelemetrySnapshot {
    let keep = |n: &str| !n.contains("wall") && !n.contains("checkpoint");
    TelemetrySnapshot {
        counters: snap
            .counters
            .iter()
            .filter(|(n, _)| keep(n))
            .cloned()
            .collect(),
        gauges: snap
            .gauges
            .iter()
            .filter(|(n, _)| keep(n))
            .cloned()
            .collect(),
        histograms: snap
            .histograms
            .iter()
            .filter(|(n, _)| keep(n))
            .cloned()
            .collect(),
    }
}

/// Assert two traces are bit-identical, field by field (f64 equality is
/// exact — the whole point of the checkpoint layer).
fn assert_traces_identical(a: &LoopTrace, b: &LoopTrace) {
    assert_eq!(a.times, b.times, "row times");
    assert_eq!(a.bunch_phase_deg, b.bunch_phase_deg, "bunch rows");
    assert_eq!(a.mean_phase_deg, b.mean_phase_deg, "mean phase");
    assert_eq!(a.control_hz, b.control_hz, "actuation");
    assert_eq!(a.jump_times, b.jump_times, "jump edges");
    assert_eq!(a.events, b.events, "audit events");
    assert_eq!(a.outcome, b.outcome, "outcome");
}

/// A persistent (non-toggling within the run) jump at `t0`.
fn persistent_jump(amplitude_deg: f64, t0: f64) -> PhaseJumpProgram {
    PhaseJumpProgram {
        amplitude_deg,
        interval_s: 10.0,
        path_latency_s: -(10.0 - t0),
    }
}

fn base_scenario(duration_s: f64) -> MdeScenario {
    let mut s = MdeScenario::nov24_2023();
    s.duration_s = duration_s;
    s.bunches = 1;
    s
}

/// Detector-outlier storm covering the tail of the run.
fn storm_scenario() -> MdeScenario {
    let mut s = base_scenario(0.04);
    s.jumps = persistent_jump(15.0, 0.008);
    s.faults = FaultProgram::detector_outlier_storm(0.01, 0.04, 0.08, 120.0, 0xBAD5EED);
    s
}

/// Forced deadline overruns from 10 ms on: the supervised CGRA run demotes
/// to the analytic map mid-run.
fn demotion_scenario() -> MdeScenario {
    let mut s = base_scenario(0.05);
    s.faults = FaultProgram {
        seed: 0,
        events: vec![FaultEvent {
            start_s: 0.01,
            end_s: 0.05,
            kind: FaultKind::DeadlineOverrun { factor: 3.0 },
        }],
    };
    s
}

fn config(dir: PathBuf, every_turns: usize) -> CheckpointConfig {
    let mut cfg = CheckpointConfig::new(dir);
    cfg.every_turns = every_turns;
    cfg
}

// ---------------------------------------------------------------------------
// Kill-and-resume bit-identity
// ---------------------------------------------------------------------------

/// One unsupervised kill-and-resume round trip; returns (reference trace +
/// telemetry, resumed trace + telemetry).
fn unsupervised_round_trip(
    s: &MdeScenario,
    dir: PathBuf,
    every_turns: usize,
    cut_s: f64,
) -> (
    (LoopTrace, TelemetrySnapshot),
    (LoopTrace, TelemetrySnapshot),
) {
    // Reference: uninterrupted, no checkpointing at all — proves the
    // checkpoint layer never perturbs the dynamics.
    let ref_reg = TelemetryRegistry::new();
    let mut engine = MapEngine::from_scenario(s).unwrap();
    let mut harness = LoopHarness::for_scenario(s, true).with_telemetry(&ref_reg);
    let reference = harness.run(&mut engine, s.duration_s);

    // "Kill": run with checkpointing, but stop at `cut_s`. All checkpoint
    // I/O is atomic and happens at cadence boundaries, so the directory is
    // byte-identical to one left behind by a SIGKILL at that instant.
    let mut harness = LoopHarness::for_scenario(s, true)
        .with_telemetry(&TelemetryRegistry::new())
        .with_checkpointing(config(dir.clone(), every_turns));
    let _ = harness
        .run_spec(s, RunSpec::fresh(s, EngineKind::Map, cut_s).unwrap())
        .unwrap();

    // Resume in a *fresh* harness (new process, as far as state goes).
    let res_reg = TelemetryRegistry::new();
    let mut harness = LoopHarness::for_scenario(s, true)
        .with_telemetry(&res_reg)
        .with_checkpointing(config(dir, every_turns));
    let resumed = harness.run_spec(s, RunSpec::resume(s.duration_s)).unwrap();

    (
        (reference, ref_reg.snapshot()),
        (resumed, res_reg.snapshot()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Kill the unsupervised loop at a proptest-chosen turn, resume, and
    /// compare everything bit-for-bit against an uninterrupted run.
    #[test]
    fn kill_and_resume_is_bit_identical(kill_frac in 0.2f64..0.9) {
        let s = base_scenario(0.02);
        let cut_s = s.duration_s * kill_frac;
        let dir = ckpt_dir(&format!("proptest-{:03}", (kill_frac * 1000.0) as u32));
        let ((reference, ref_t), (resumed, res_t)) =
            unsupervised_round_trip(&s, dir, 128, cut_s);
        assert_traces_identical(&reference, &resumed);
        prop_assert_eq!(deterministic_part(&ref_t), deterministic_part(&res_t));
    }

    /// Same property with the kill landing *inside a detector-outlier
    /// storm*, under supervision: the injector RNG stream, the
    /// supervisor's hold-last-good state and the rejection audit all cross
    /// the cut bit-exact.
    #[test]
    fn kill_mid_storm_resumes_bit_identical(kill_frac in 0.3f64..0.95) {
        let s = storm_scenario();
        // Storm occupies [0.01, 0.04) — these fractions all land inside.
        let cut_s = s.duration_s * kill_frac;
        let dir = ckpt_dir(&format!("storm-{:03}", (kill_frac * 1000.0) as u32));

        let ref_reg = TelemetryRegistry::new();
        let mut harness = LoopHarness::for_scenario(&s, true).with_telemetry(&ref_reg);
        let mut sup = LoopSupervisor::for_scenario(&s);
        let reference = harness
            .run_supervised(&s, EngineKind::Map, s.duration_s, &mut sup)
            .unwrap();
        assert!(
            reference.events.iter().any(|e| matches!(e, LoopEvent::OutlierRejected { .. })),
            "storm produced rejections"
        );

        let mut harness = LoopHarness::for_scenario(&s, true)
            .with_telemetry(&TelemetryRegistry::new())
            .with_checkpointing(config(dir.clone(), 256));
        let mut sup = LoopSupervisor::for_scenario(&s);
        let _ = harness.run_supervised(&s, EngineKind::Map, cut_s, &mut sup).unwrap();

        let res_reg = TelemetryRegistry::new();
        let mut harness = LoopHarness::for_scenario(&s, true)
            .with_telemetry(&res_reg)
            .with_checkpointing(config(dir, 256));
        let mut sup = LoopSupervisor::for_scenario(&s);
        let resumed = harness.run_spec(&s, RunSpec::resume(s.duration_s).supervised(&mut sup)).unwrap();

        assert_traces_identical(&reference, &resumed);
        prop_assert_eq!(deterministic_part(&ref_reg.snapshot()), deterministic_part(&res_reg.snapshot()));
    }
}

/// Kill the supervised CGRA run on both sides of its mid-run demotion to
/// the map engine. Resuming after the demotion must rebuild the *demoted*
/// fidelity (the snapshot records the kind currently running), carrying
/// the accumulated control phase across.
#[test]
fn kill_across_demotion_resumes_bit_identical() {
    let s = demotion_scenario();

    let mut harness = LoopHarness::for_scenario(&s, true);
    let mut sup = LoopSupervisor::for_scenario(&s);
    let reference = harness
        .run_supervised(&s, EngineKind::Cgra, s.duration_s, &mut sup)
        .unwrap();
    let demotion_t = reference
        .events
        .iter()
        .find_map(|e| match *e {
            LoopEvent::EngineDemoted { time_s, .. } => Some(time_s),
            _ => None,
        })
        .expect("reference run demoted");

    for (tag, cut_s) in [("before", demotion_t * 0.6), ("after", s.duration_s * 0.7)] {
        assert!(
            (tag == "before") == (cut_s < demotion_t),
            "cut {cut_s} vs demotion {demotion_t}"
        );
        let dir = ckpt_dir(&format!("demotion-{tag}"));
        let mut harness =
            LoopHarness::for_scenario(&s, true).with_checkpointing(config(dir.clone(), 256));
        let mut sup = LoopSupervisor::for_scenario(&s);
        let _ = harness
            .run_supervised(&s, EngineKind::Cgra, cut_s, &mut sup)
            .unwrap();

        let mut harness = LoopHarness::for_scenario(&s, true).with_checkpointing(config(dir, 256));
        let mut sup = LoopSupervisor::for_scenario(&s);
        let resumed = harness
            .run_spec(&s, RunSpec::resume(s.duration_s).supervised(&mut sup))
            .unwrap();
        assert_traces_identical(&reference, &resumed);
    }
}

/// Sorted (name, bytes) of every file in a checkpoint directory.
fn dir_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
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

/// RefTrack kill-and-resume through the *intra-step parallel* path: the
/// checkpointed run splits every revolution across 8 worker threads, the
/// resume rebuilds with the default (sequential on this box) configuration.
/// Both the CILCKPT bytes and the resumed trace must be bit-identical —
/// the kernel's fixed chunk boundaries and fixed-tree reduction are what
/// make the parallel step checkpoint-transparent.
#[test]
fn reftrack_parallel_step_checkpoints_bit_identical() {
    use cil_core::engine::RefTrackEngine;
    use cil_reftrack::kernel::KernelBackend;
    use cil_reftrack::TrackerConfig;

    let s = base_scenario(0.004);
    let kind = EngineKind::RefTrack {
        particles: 2048,
        seed: 7,
    };
    let parallel = TrackerConfig {
        threads: 8,
        min_chunk: 64,
        backend: KernelBackend::Auto,
    };

    // Reference: uninterrupted, default workers, no checkpointing.
    let mut engine = kind.build(&s).unwrap();
    let reference = LoopHarness::for_scenario(&s, true).run(engine.as_mut(), s.duration_s);

    // Full checkpointed runs, sequential vs 8-thread: the CILCKPT bytes on
    // disk must not depend on the worker configuration.
    let mut dirs = Vec::new();
    for (tag, threads) in [("seq", 1usize), ("par", 8)] {
        let dir = ckpt_dir(&format!("reftrack-{tag}"));
        let mut engine = RefTrackEngine::from_scenario(&s, 2048, 7, 15e-9, 0.0).unwrap();
        engine.set_tracker_config(TrackerConfig {
            threads,
            ..parallel
        });
        let mut harness =
            LoopHarness::for_scenario(&s, true).with_checkpointing(config(dir.clone(), 256));
        let trace = harness
            .run_spec(
                &s,
                RunSpec {
                    duration_s: s.duration_s,
                    start: RunStart::Fresh {
                        engine: Box::new(engine),
                        kind,
                    },
                    supervisor: None,
                },
            )
            .unwrap();
        assert_traces_identical(&reference, &trace);
        dirs.push(dir);
    }
    assert_eq!(
        dir_bytes(&dirs[0]),
        dir_bytes(&dirs[1]),
        "CILCKPT bytes differ between sequential and parallel steps"
    );

    // Kill mid-run on the parallel path, resume in a fresh harness (which
    // rebuilds the engine with the default worker configuration).
    let dir = ckpt_dir("reftrack-kill");
    let mut engine = RefTrackEngine::from_scenario(&s, 2048, 7, 15e-9, 0.0).unwrap();
    engine.set_tracker_config(parallel);
    let mut harness =
        LoopHarness::for_scenario(&s, true).with_checkpointing(config(dir.clone(), 256));
    let _ = harness
        .run_spec(
            &s,
            RunSpec {
                duration_s: s.duration_s * 0.55,
                start: RunStart::Fresh {
                    engine: Box::new(engine),
                    kind,
                },
                supervisor: None,
            },
        )
        .unwrap();

    let mut harness = LoopHarness::for_scenario(&s, true).with_checkpointing(config(dir, 256));
    let resumed = harness.run_spec(&s, RunSpec::resume(s.duration_s)).unwrap();
    assert_traces_identical(&reference, &resumed);
}

// ---------------------------------------------------------------------------
// Corruption: fallback + audit
// ---------------------------------------------------------------------------

fn snapshot_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt_") && n.ends_with(".cil"))
        })
        .collect();
    files.sort();
    files
}

/// Corrupt the newest snapshot: recovery must audit a
/// `CheckpointRejected`, fall back to the previous good snapshot, and
/// still finish with rows bit-identical to the uninterrupted run.
#[test]
fn corrupted_newest_checkpoint_falls_back_and_audits() {
    let s = base_scenario(0.02);
    let dir = ckpt_dir("corrupt-newest");

    let mut engine = MapEngine::from_scenario(&s).unwrap();
    let mut harness = LoopHarness::for_scenario(&s, true);
    let reference = harness.run(&mut engine, s.duration_s);

    let mut harness =
        LoopHarness::for_scenario(&s, true).with_checkpointing(config(dir.clone(), 128));
    let _ = harness
        .run_spec(
            &s,
            RunSpec::fresh(&s, EngineKind::Map, s.duration_s * 0.6).unwrap(),
        )
        .unwrap();

    let files = snapshot_files(&dir);
    assert!(files.len() >= 2, "rolling retention kept a fallback");
    let newest = files.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(newest, &bytes).unwrap();

    let mut harness = LoopHarness::for_scenario(&s, true).with_checkpointing(config(dir, 128));
    let resumed = harness.run_spec(&s, RunSpec::resume(s.duration_s)).unwrap();

    let rejections: Vec<&LoopEvent> = resumed
        .events
        .iter()
        .filter(|e| matches!(e, LoopEvent::CheckpointRejected { .. }))
        .collect();
    assert_eq!(rejections.len(), 1, "exactly one rejected snapshot audited");

    // Everything except the audit entry matches the uninterrupted run.
    assert_eq!(reference.times, resumed.times);
    assert_eq!(reference.bunch_phase_deg, resumed.bunch_phase_deg);
    assert_eq!(reference.mean_phase_deg, resumed.mean_phase_deg);
    assert_eq!(reference.control_hz, resumed.control_hz);
    assert_eq!(reference.jump_times, resumed.jump_times);
    let without_rejections: Vec<&LoopEvent> = resumed
        .events
        .iter()
        .filter(|e| !matches!(e, LoopEvent::CheckpointRejected { .. }))
        .collect();
    assert_eq!(
        without_rejections,
        reference.events.iter().collect::<Vec<_>>()
    );
    assert!(resumed.survived());
}

/// Truncating (rather than bit-flipping) the newest snapshot hits the
/// length-check path instead of the CRC path — same observable fallback.
#[test]
fn truncated_newest_checkpoint_falls_back() {
    let s = base_scenario(0.02);
    let dir = ckpt_dir("truncate-newest");
    let mut harness =
        LoopHarness::for_scenario(&s, true).with_checkpointing(config(dir.clone(), 128));
    let _ = harness
        .run_spec(
            &s,
            RunSpec::fresh(&s, EngineKind::Map, s.duration_s * 0.6).unwrap(),
        )
        .unwrap();

    let files = snapshot_files(&dir);
    let newest = files.last().unwrap();
    let bytes = std::fs::read(newest).unwrap();
    std::fs::write(newest, &bytes[..bytes.len() / 3]).unwrap();

    let mut harness = LoopHarness::for_scenario(&s, true).with_checkpointing(config(dir, 128));
    let resumed = harness.run_spec(&s, RunSpec::resume(s.duration_s)).unwrap();
    assert!(resumed.survived());
    assert_eq!(
        resumed
            .events
            .iter()
            .filter(|e| matches!(e, LoopEvent::CheckpointRejected { .. }))
            .count(),
        1
    );
}

/// With *every* snapshot corrupted, resume fails with a typed error — it
/// must not panic, hang, or fabricate state.
#[test]
fn all_snapshots_corrupted_is_a_typed_error() {
    let s = base_scenario(0.01);
    let dir = ckpt_dir("corrupt-all");
    let mut harness =
        LoopHarness::for_scenario(&s, true).with_checkpointing(config(dir.clone(), 128));
    let _ = harness
        .run_spec(
            &s,
            RunSpec::fresh(&s, EngineKind::Map, s.duration_s).unwrap(),
        )
        .unwrap();

    for file in snapshot_files(&dir) {
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&file, &bytes).unwrap();
    }

    let mut harness = LoopHarness::for_scenario(&s, true).with_checkpointing(config(dir, 128));
    let err = harness
        .run_spec(&s, RunSpec::resume(s.duration_s))
        .unwrap_err();
    assert!(
        matches!(err, CilError::Checkpoint(CheckpointError::NoCheckpoint)),
        "got {err:?}"
    );
}

/// A supervised checkpoint refuses the unsupervised resume entry point
/// (and vice versa) with a typed incompatibility, not silent misbehaviour.
#[test]
fn mismatched_resume_entry_point_is_rejected() {
    let s = base_scenario(0.01);
    let dir = ckpt_dir("mismatched-entry");
    let mut harness =
        LoopHarness::for_scenario(&s, true).with_checkpointing(config(dir.clone(), 128));
    let mut sup = LoopSupervisor::for_scenario(&s);
    let _ = harness
        .run_supervised(&s, EngineKind::Map, s.duration_s, &mut sup)
        .unwrap();

    let mut harness = LoopHarness::for_scenario(&s, true).with_checkpointing(config(dir, 128));
    let err = harness
        .run_spec(&s, RunSpec::resume(s.duration_s))
        .unwrap_err();
    assert!(
        matches!(err, CilError::Checkpoint(CheckpointError::Incompatible(_))),
        "got {err:?}"
    );
}

/// The reverse mismatch: an unsupervised checkpoint refuses a supervised
/// resume, with the same typed incompatibility.
#[test]
fn unsupervised_checkpoint_rejects_a_supervised_resume() {
    let s = base_scenario(0.01);
    let dir = ckpt_dir("mismatched-reverse");
    LoopHarness::for_scenario(&s, true)
        .with_checkpointing(config(dir.clone(), 128))
        .run_spec(
            &s,
            RunSpec::fresh(&s, EngineKind::Map, s.duration_s).unwrap(),
        )
        .unwrap();

    let mut sup = LoopSupervisor::for_scenario(&s);
    let err = LoopHarness::for_scenario(&s, true)
        .with_checkpointing(config(dir, 128))
        .run_spec(&s, RunSpec::resume(s.duration_s).supervised(&mut sup))
        .unwrap_err();
    assert!(
        matches!(err, CilError::Checkpoint(CheckpointError::Incompatible(_))),
        "got {err:?}"
    );
}

/// A resume needs a checkpoint directory to read: without
/// `with_checkpointing` it is a configuration error, supervised or not.
#[test]
fn resume_without_checkpointing_is_a_config_error() {
    let s = base_scenario(0.01);
    let mut sup = LoopSupervisor::for_scenario(&s);
    for spec in [
        RunSpec::resume(s.duration_s),
        RunSpec::resume(s.duration_s).supervised(&mut sup),
    ] {
        let err = LoopHarness::for_scenario(&s, true)
            .run_spec(&s, spec)
            .unwrap_err();
        assert!(matches!(err, CilError::InvalidConfig(_)), "got {err:?}");
    }
}

// ---------------------------------------------------------------------------
// Decoder fuzzing: hostile bytes never panic
// ---------------------------------------------------------------------------

/// A real snapshot file's bytes, produced once per process.
fn real_snapshot_bytes() -> Vec<u8> {
    let s = base_scenario(0.005);
    let dir = ckpt_dir("fuzz-source");
    let mut harness =
        LoopHarness::for_scenario(&s, true).with_checkpointing(config(dir.clone(), 128));
    let _ = harness
        .run_spec(
            &s,
            RunSpec::fresh(&s, EngineKind::Map, s.duration_s).unwrap(),
        )
        .unwrap();
    let files = snapshot_files(&dir);
    std::fs::read(files.last().unwrap()).unwrap()
}

#[test]
fn zero_length_and_header_only_files_are_typed_errors() {
    assert!(matches!(
        decode_snapshot(&[]),
        Err(CheckpointError::TooShort)
    ));
    assert!(matches!(
        decode_snapshot(b"CILCKPT\0"),
        Err(CheckpointError::TooShort)
    ));
    assert!(matches!(
        decode_snapshot(&[0u8; 64]),
        Err(CheckpointError::BadMagic)
    ));
    let mut wrong_version = real_snapshot_bytes();
    wrong_version[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        decode_snapshot(&wrong_version),
        Err(CheckpointError::UnsupportedVersion(99))
    ));
    assert!(decode_trace_log(&[], 1).is_ok(), "empty log is zero blocks");
    assert!(
        decode_trace_log(&[0x42; 5], 1).is_err(),
        "torn block header"
    );
}

/// A CRC-valid 32-byte trace-log block declaring `u32::MAX` bunches and no
/// rows, events or jumps. Decoding once sized a ~100 GB allocation from that
/// count and aborted the process.
fn hostile_bunch_block() -> Vec<u8> {
    let mut payload = u32::MAX.to_le_bytes().to_vec();
    payload.extend_from_slice(&[0; 12]);
    let mut block = 0x5452_4342u32.to_le_bytes().to_vec(); // "TRCB"
    block.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    block.extend_from_slice(&payload);
    block.extend_from_slice(&crc32(&payload).to_le_bytes());
    assert_eq!(block.len(), 32);
    block
}

/// The hostile block is a typed error on every path that decodes a trace
/// log: directly, through resume from a checkpoint directory, and through
/// `SessionMux::create_from_snapshot`.
#[test]
fn hostile_bunch_count_block_is_a_typed_error() {
    let block = hostile_bunch_block();
    assert!(matches!(
        decode_trace_log(&block, 1),
        Err(CheckpointError::Malformed(_))
    ));

    // A real snapshot, re-cut so that its log prefix is exactly the block.
    let s = base_scenario(0.004);
    let dir = ckpt_dir("hostile-bunches");
    LoopHarness::for_scenario(&s, true)
        .with_checkpointing(config(dir.clone(), 128))
        .run_spec(
            &s,
            RunSpec::fresh(&s, EngineKind::Map, s.duration_s).unwrap(),
        )
        .unwrap();
    let files = snapshot_files(&dir);
    let mut ck = decode_snapshot(&std::fs::read(files.last().unwrap()).unwrap()).unwrap();
    (ck.rows, ck.events, ck.jumps) = (0, 0, 0);
    ck.log_bytes = block.len() as u64;
    for f in &files {
        std::fs::remove_file(f).unwrap();
    }
    let snap = encode_snapshot(&ck);
    std::fs::write(dir.join(format!("ckpt_{:010}.cil", ck.turn)), &snap).unwrap();
    std::fs::write(dir.join("trace.log"), &block).unwrap();
    let err = LoopHarness::for_scenario(&s, true)
        .with_checkpointing(config(dir, 128))
        .run_spec(&s, RunSpec::resume(s.duration_s))
        .unwrap_err();
    assert!(
        matches!(err, CilError::Checkpoint(CheckpointError::NoCheckpoint)),
        "{err:?}"
    );

    let mut evicted = (snap.len() as u64).to_le_bytes().to_vec();
    evicted.extend_from_slice(&snap);
    evicted.extend_from_slice(&block);
    let mux = SessionMux::new(MuxConfig {
        workers: 1,
        ..MuxConfig::default()
    })
    .unwrap();
    let created = mux.create_from_snapshot(SessionSpec::new(s, EngineKind::Map), evicted);
    assert!(matches!(
        created,
        Err(CilError::Checkpoint(CheckpointError::Malformed(_)))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncate a real snapshot anywhere: typed error, never a panic and
    /// never a bogus success.
    #[test]
    fn truncated_snapshot_never_panics(frac in 0.0f64..1.0) {
        let bytes = real_snapshot_bytes();
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(decode_snapshot(&bytes[..cut]).is_err());
    }

    /// Flip any single bit of a real snapshot: decode must either reject
    /// it (typed) — or, only for flips inside the 8-byte declared-length
    /// field that happen to keep framing consistent, it may never succeed
    /// silently. CRC covers the payload, so payload flips always reject.
    #[test]
    fn flipped_byte_never_panics(pos_frac in 0.0f64..1.0, bit in 0u32..8) {
        let mut bytes = real_snapshot_bytes();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1u8 << bit;
        // Must not panic; a flip is allowed to be *detected* in different
        // ways, but never accepted as a different valid checkpoint.
        prop_assert!(decode_snapshot(&bytes).is_err());
    }

    /// Hostile random prefixes against the trace-log decoder.
    #[test]
    fn random_trace_log_bytes_never_panic(seed in 0u64..u64::MAX / 2, len in 0usize..256) {
        let mut state = seed | 1;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        let _ = decode_trace_log(&bytes, 1); // any Result is fine; panics are not
    }
}

// ---------------------------------------------------------------------------
// Overhead guard (release only)
// ---------------------------------------------------------------------------

/// Checkpointing at the default cadence costs ~1.08x wall-clock on a
/// realistic (multi-particle) workload, bounded at 1.25x to ride out
/// shared-runner I/O contention. Debug builds skew the
/// encode/step cost ratio, so the guard is release-only; it emits
/// `results/BENCH_checkpoint.json` either way it runs.
#[cfg(not(debug_assertions))]
#[test]
fn checkpoint_overhead_bounded() {
    let mut s = base_scenario(0.02);
    s.bunches = 1;
    let kind = EngineKind::RefTrack {
        particles: 2048,
        seed: 7,
    };
    let rows = s.revolutions();
    let dir = ckpt_dir("overhead");

    let time_run = |checkpoint: bool| -> f64 {
        let mut harness = LoopHarness::for_scenario(&s, true);
        if checkpoint {
            // Default cadence + retention (CheckpointConfig::new).
            harness = harness.with_checkpointing(CheckpointConfig::new(dir.clone()));
        }
        let t0 = std::time::Instant::now();
        let trace = harness
            .run_spec(&s, RunSpec::fresh(&s, kind, s.duration_s).unwrap())
            .unwrap();
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(trace.times.len(), rows);
        dt
    };
    // Interleave the arms and take the best of each: with ~0.3 s runs the
    // per-run noise on a shared machine is comparable to the ~8% overhead
    // being measured, and sequential arms pick up a systematic drift bias
    // (the later arm runs on a warmer/more-throttled machine). Pairing
    // disabled/enabled back-to-back exposes both arms to the same drift.
    // A measurement above the quiet-machine value (~1.08x) is retried up
    // to twice in the hope of catching a quiet window; the hard bound is
    // 1.25x, loose enough that shared-runner I/O contention (observed to
    // push the ratio to ~1.1-1.15x) cannot fail the guard while any real
    // regression in checkpoint cost still does.
    let _ = time_run(false); // warmup
    let _ = time_run(true); // warmup (page-caches the checkpoint dir)
    let mut disabled = f64::INFINITY;
    let mut enabled = f64::INFINITY;
    let mut ratio = f64::INFINITY;
    let mut pairs = 0;
    for _attempt in 0..3 {
        for _ in 0..3 {
            disabled = disabled.min(time_run(false));
            enabled = enabled.min(time_run(true));
            pairs += 1;
        }
        ratio = enabled / disabled;
        if ratio < 1.10 {
            break;
        }
    }

    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/results")).unwrap();
    std::fs::write(
        concat!(env!("CARGO_MANIFEST_DIR"), "/results/BENCH_checkpoint.json"),
        format!(
            "{{\"bench\":\"checkpoint_overhead\",\"engine\":\"reftrack2048\",\
             \"revolutions\":{rows},\"cadence\":256,\"runs\":{pairs},\
             \"disabled_wall_s\":{disabled},\"enabled_wall_s\":{enabled},\
             \"ratio\":{ratio},\"bound\":1.25}}\n"
        ),
    )
    .unwrap();

    assert!(
        ratio < 1.25,
        "checkpoint overhead {ratio:.3}x (enabled {enabled:.6}s vs disabled {disabled:.6}s)"
    );
}
