//! Batched-stepping equivalence: the harness's `step_block` path must be
//! bit-identical to per-turn stepping for *every* block size — same trace
//! rows, same jump edges, same audit events, same checkpoint bytes. The
//! block size is pure mechanics (how many engine steps run between harness
//! touches); observable boundaries (controller actuation, due checkpoints,
//! watchdog demotions) are capped to a block's last row, so nothing the
//! loop records may move.

use cil_core::checkpoint::CheckpointConfig;
use cil_core::harness::{LoopHarness, LoopTrace, RunSpec, DEFAULT_BLOCK_ROWS};
use cil_core::hil::EngineKind;
use cil_core::signalgen::PhaseJumpProgram;
use cil_core::{LoopSupervisor, MdeScenario};
use std::path::PathBuf;

/// Block sizes spanning per-turn, sub-default, the default and
/// larger-than-any-actuation-window.
const BLOCK_SIZES: [usize; 4] = [1, 5, DEFAULT_BLOCK_ROWS, 1000];

fn base_scenario(duration_s: f64) -> MdeScenario {
    let mut s = MdeScenario::nov24_2023();
    s.duration_s = duration_s;
    s.bunches = 1;
    s
}

/// A persistent large jump early in the run: enough outlier rejections in a
/// row to exercise the supervisor's admission and watchdog paths.
fn storm_jumps() -> PhaseJumpProgram {
    PhaseJumpProgram {
        amplitude_deg: 60.0,
        interval_s: 10.0,
        path_latency_s: -(10.0 - 0.004),
    }
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

fn ckpt_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/ckpt-tests")).join(name);
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

#[test]
fn unsupervised_trace_is_block_size_invariant() {
    // 0.11 s spans two jump toggles (every 0.05 s), so edge stamping is
    // exercised mid-run, not just at t = 0.
    let s = base_scenario(0.11);
    for kind in [EngineKind::Map, EngineKind::Cgra] {
        let reference = {
            let mut engine = kind.build(&s).unwrap();
            LoopHarness::for_scenario(&s, true)
                .with_block_rows(1)
                .unwrap()
                .run(engine.as_mut(), s.duration_s)
        };
        assert!(reference.outcome.survived());
        assert!(!reference.jump_times.is_empty(), "jumps toggled in-run");
        for block in BLOCK_SIZES {
            let mut engine = kind.build(&s).unwrap();
            let trace = LoopHarness::for_scenario(&s, true)
                .with_block_rows(block)
                .unwrap()
                .run(engine.as_mut(), s.duration_s);
            assert_traces_identical(&reference, &trace, &format!("{kind:?} block={block}"));
        }
    }
}

#[test]
fn observer_path_equals_batched_run() {
    // A cadence-1 observer caps every block at one measured row so it sees
    // the engine at every row; the recorded trace must still match the
    // batched `run`.
    let s = base_scenario(0.03);
    let mut engine = EngineKind::Map.build(&s).unwrap();
    let batched = LoopHarness::for_scenario(&s, true).run(engine.as_mut(), s.duration_s);
    let mut engine = EngineKind::Map.build(&s).unwrap();
    let mut rows_seen = 0usize;
    let observed =
        LoopHarness::for_scenario(&s, true).run_with(engine.as_mut(), s.duration_s, |_| {
            rows_seen += 1;
        });
    assert_eq!(rows_seen, observed.times.len(), "observer fired per row");
    assert_traces_identical(&batched, &observed, "run_with vs run");
}

#[test]
fn supervised_trace_and_events_are_block_size_invariant() {
    // A 0.9 µs deadline sits below the CGRA fidelity's 1.0 µs modelled
    // step, so every Cgra row overruns until the watchdog demotes to Map
    // (8 DeadlineOverrun events + EngineDemoted), while Map's software
    // jitter tail overruns only sporadically. Combined with the jump
    // storm, both fidelities produce event-rich traces whose rows must
    // land identically regardless of block size.
    let mut s = base_scenario(0.03);
    s.jumps = storm_jumps();
    let supervisor = |s: &MdeScenario| {
        let mut sup = LoopSupervisor::for_scenario(s);
        sup.config.deadline_s = 0.9e-6;
        sup
    };
    for kind in [EngineKind::Map, EngineKind::Cgra] {
        let reference = {
            let mut sup = supervisor(&s);
            LoopHarness::for_scenario(&s, true)
                .with_block_rows(1)
                .unwrap()
                .run_supervised(&s, kind, s.duration_s, &mut sup)
                .unwrap()
        };
        assert!(
            !reference.events.is_empty(),
            "{kind:?}: the tight deadline must produce audit events"
        );
        for block in BLOCK_SIZES {
            let mut sup = supervisor(&s);
            let trace = LoopHarness::for_scenario(&s, true)
                .with_block_rows(block)
                .unwrap()
                .run_supervised(&s, kind, s.duration_s, &mut sup)
                .unwrap();
            assert_traces_identical(&reference, &trace, &format!("{kind:?} block={block}"));
        }
    }
}

#[test]
fn checkpoint_bytes_are_block_size_invariant() {
    // Checkpoint cadence (177) is deliberately coprime to every tested
    // block size, so due rows land mid-block unless the budget caps them —
    // the caps are what this test pins down. No telemetry attached: every
    // checkpoint byte is then deterministic.
    let s = base_scenario(0.02);
    let mut reference: Option<(LoopTrace, DirBytes)> = None;
    for block in BLOCK_SIZES {
        let dir = ckpt_dir(&format!("block-{block}"));
        let mut cfg = CheckpointConfig::new(dir.clone());
        cfg.every_turns = 177;
        let trace = LoopHarness::for_scenario(&s, true)
            .with_block_rows(block)
            .unwrap()
            .with_checkpointing(cfg)
            .run_spec(
                &s,
                RunSpec::fresh(&s, EngineKind::Map, s.duration_s).unwrap(),
            )
            .unwrap();
        let bytes = dir_bytes(&dir);
        assert!(!bytes.is_empty(), "block={block}: checkpoints were written");
        match &reference {
            None => reference = Some((trace, bytes)),
            Some((ref_trace, ref_bytes)) => {
                assert_traces_identical(ref_trace, &trace, &format!("ckpt block={block}"));
                assert_eq!(
                    ref_bytes, &bytes,
                    "block={block}: checkpoint directory bytes differ"
                );
            }
        }
    }
}
