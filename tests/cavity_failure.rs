//! Cavity-failure chaos suite.
//!
//! The headline claims of the degraded-plant layer: (1) for a mid-run
//! cavity quench, `VoltageRematch` compensation strictly extends the
//! beam-loss turn over no policy on the same seed, (2) the compensated
//! trajectory replays bit-identically across engine block sizes {1, 64,
//! 1000} and across a checkpoint kill-and-resume *inside* the quench
//! window, (3) a zero-amplitude cavity program is bit-identical to a
//! fault-free run, and (4) the quench → sag → compensate → lose ladder
//! plays out consistently across engine fidelities.

use cil_core::checkpoint::CheckpointConfig;
use cil_core::fault::{FaultProgram, LoopEvent, LossCause};
use cil_core::harness::{LoopHarness, LoopTrace, RunSpec};
use cil_core::hil::EngineKind;
use cil_core::signalgen::PhaseJumpProgram;
use cil_core::{CompensationPolicy, LoopOutcome, LoopSupervisor, MdeScenario, SignalLevelLoop};
use std::path::PathBuf;

fn ckpt_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/ckpt-tests")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A persistent (non-toggling within the run) jump at `t0`.
fn persistent_jump(amplitude_deg: f64, t0: f64) -> PhaseJumpProgram {
    PhaseJumpProgram {
        amplitude_deg,
        interval_s: 10.0,
        path_latency_s: -(10.0 - t0),
    }
}

/// The headline quench scenario: an 8° persistent jump at 50 ms sets the
/// beam oscillating, and 0.2 ms later — near peak energy swing — the
/// cavity quenches with a 1 ms collapse constant. The surviving voltage
/// freezes whatever synchrotron motion is left, so the beam phase drifts
/// out of the (vanishing) bucket unless compensation buys the controller
/// time to damp the swing first.
fn quench_scenario() -> MdeScenario {
    let mut s = MdeScenario::nov24_2023();
    s.duration_s = 0.3;
    s.bunches = 1;
    s.jumps = persistent_jump(8.0, 0.05);
    s.faults = FaultProgram::cavity_quench(0.0502, 1e-3, 0xCAF0);
    s
}

fn run_supervised(
    s: &MdeScenario,
    kind: EngineKind,
    policy: CompensationPolicy,
) -> (LoopTrace, LoopSupervisor) {
    let mut harness = LoopHarness::for_scenario(s, true);
    let mut sup = LoopSupervisor::for_scenario(s);
    sup.config.compensation = policy;
    let trace = harness
        .run_supervised(s, kind, s.duration_s, &mut sup)
        .expect("supervised run completes");
    (trace, sup)
}

fn loss_turn(trace: &LoopTrace) -> usize {
    match trace.outcome {
        LoopOutcome::Lost {
            turn,
            cause: LossCause::CavityFault,
            ..
        } => turn,
        ref other => panic!("expected a cavity-fault loss, got {other:?}"),
    }
}

fn sag_turn(trace: &LoopTrace) -> usize {
    trace
        .events
        .iter()
        .find_map(|e| match *e {
            LoopEvent::CavitySagDetected { turn, .. } => Some(turn),
            _ => None,
        })
        .expect("sag was detected")
}

fn assert_traces_identical(a: &LoopTrace, b: &LoopTrace) {
    assert_eq!(a.times, b.times, "row times");
    assert_eq!(a.bunch_phase_deg, b.bunch_phase_deg, "bunch rows");
    assert_eq!(a.mean_phase_deg, b.mean_phase_deg, "mean phase");
    assert_eq!(a.control_hz, b.control_hz, "actuation");
    assert_eq!(a.jump_times, b.jump_times, "jump edges");
    assert_eq!(a.events, b.events, "audit events");
    assert_eq!(a.outcome, b.outcome, "outcome");
}

// ---------------------------------------------------------------------------
// The escalation ladder and the headline survival claim
// ---------------------------------------------------------------------------

#[test]
fn voltage_rematch_strictly_extends_survival_over_no_policy() {
    let s = quench_scenario();

    let (none, _) = run_supervised(&s, EngineKind::Map, CompensationPolicy::None);
    let (rematch, sup) = run_supervised(&s, EngineKind::Map, CompensationPolicy::voltage_rematch());

    // Both runs end in a declared cavity-fault loss with the turn stamped.
    let t_none = loss_turn(&none);
    let t_rematch = loss_turn(&rematch);
    assert!(
        t_rematch > t_none,
        "voltage rematch extends survival: {t_rematch} vs {t_none}"
    );

    // The ladder fired in order: sag detected, compensation engaged, beam
    // lost — all before/at the loss turn.
    let sag = sag_turn(&rematch);
    let engaged = rematch
        .events
        .iter()
        .find_map(|e| match *e {
            LoopEvent::CompensationEngaged { turn, boost, .. } => Some((turn, boost)),
            _ => None,
        })
        .expect("compensation engaged");
    assert!(sag <= engaged.0 && engaged.0 < t_rematch);
    // The quench never recovers, so the boost railed at its ceiling.
    assert_eq!(sup.commanded_boost(), 3.0);

    // Without a policy the supervisor still *detects* the sag (audit
    // channel), it just cannot act on it.
    assert!(sag_turn(&none) < t_none);
    assert!(
        !none
            .events
            .iter()
            .any(|e| matches!(e, LoopEvent::CompensationEngaged { .. })),
        "no-policy run never engages compensation"
    );
}

#[test]
fn gain_rescale_also_extends_survival() {
    let s = quench_scenario();
    let (none, _) = run_supervised(&s, EngineKind::Map, CompensationPolicy::None);
    let (rescale, sup) = run_supervised(&s, EngineKind::Map, CompensationPolicy::gain_rescale());
    assert!(
        loss_turn(&rescale) > loss_turn(&none),
        "gain rescale extends survival"
    );
    assert_eq!(sup.commanded_gain_scale(), 4.0, "gain railed at its cap");
    assert_eq!(
        sup.commanded_boost(),
        1.0,
        "gain rescale commands no voltage"
    );
}

#[test]
fn cavity_trip_recovers_and_compensation_walks_back() {
    // A 15 ms hard trip with a 10 ms recovery ramp, placed while the beam
    // is quiet: the loop rides through it and the rematch command walks
    // back to exactly 1.0 (FP-exact — the slew lands on the target) once
    // the plant is healthy again.
    let mut s = MdeScenario::nov24_2023();
    s.duration_s = 0.2;
    s.bunches = 1;
    s.faults = FaultProgram::cavity_trip(0.12, 0.135, 0.01, 0xCAF1);
    let (trace, sup) = run_supervised(&s, EngineKind::Map, CompensationPolicy::voltage_rematch());
    assert!(
        trace.outcome.survived(),
        "brief trip with rematch rides through: {:?}",
        trace.outcome
    );
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(e, LoopEvent::CavitySagDetected { .. })));
    assert_eq!(
        sup.commanded_boost(),
        1.0,
        "boost walked back down after recovery"
    );
}

#[test]
fn detune_drift_is_survivable_but_not_free() {
    // A slow 20 Hz/s tune drift over 100 ms: the loop survives, but the
    // trajectory measurably differs from the fault-free run. (At a few
    // hundred Hz/s the accumulated detune phase outruns the loop and the
    // beam is declared lost to the cavity fault.)
    let mut s = MdeScenario::nov24_2023();
    s.duration_s = 0.15;
    s.bunches = 1;
    s.faults = FaultProgram::cavity_detune(0.03, 0.13, 20.0, 0xCAF2);
    let (faulty, _) = run_supervised(&s, EngineKind::Map, CompensationPolicy::None);
    assert!(faulty.outcome.survived(), "{:?}", faulty.outcome);

    let mut clean = s.clone();
    clean.faults = FaultProgram::none();
    let (reference, _) = run_supervised(&clean, EngineKind::Map, CompensationPolicy::None);
    assert_eq!(reference.times.len(), faulty.times.len());
    assert_ne!(
        reference.mean_phase_deg, faulty.mean_phase_deg,
        "the detune visibly perturbs the trajectory"
    );
}

// ---------------------------------------------------------------------------
// Determinism: replay, block sizes, kill-and-resume, noop programs
// ---------------------------------------------------------------------------

#[test]
fn compensated_replay_is_bit_identical_across_block_sizes() {
    let s = quench_scenario();
    let run = |block: usize| {
        let mut harness = LoopHarness::for_scenario(&s, true)
            .with_block_rows(block)
            .unwrap();
        let mut sup = LoopSupervisor::for_scenario(&s);
        sup.config.compensation = CompensationPolicy::voltage_rematch();
        harness
            .run_supervised(&s, EngineKind::Map, s.duration_s, &mut sup)
            .unwrap()
    };
    let reference = run(64);
    assert!(matches!(
        reference.outcome,
        LoopOutcome::Lost {
            cause: LossCause::CavityFault,
            ..
        }
    ));
    for block in [1usize, 1000] {
        assert_traces_identical(&reference, &run(block));
    }
}

#[test]
fn kill_and_resume_inside_the_quench_window_is_bit_identical() {
    let s = quench_scenario();
    let policy = CompensationPolicy::voltage_rematch();

    // Reference: uninterrupted, no checkpointing.
    let (reference, _) = run_supervised(&s, EngineKind::Map, policy);
    let t_loss = loss_turn(&reference);

    // Kill *inside* the quench window, after compensation engaged but
    // before the loss: the snapshot must carry the plant's collapse state,
    // the commanded boost and the sag latch across the cut.
    let sag = sag_turn(&reference);
    let cut_s = (sag + (t_loss - sag) / 2) as f64 / s.f_rev;
    assert!(cut_s > 0.0502 && cut_s < t_loss as f64 / s.f_rev);

    let dir = ckpt_dir("cavity-quench");
    let mut cfg = CheckpointConfig::new(dir.clone());
    cfg.every_turns = 256;
    let mut harness = LoopHarness::for_scenario(&s, true).with_checkpointing(cfg.clone());
    let mut sup = LoopSupervisor::for_scenario(&s);
    sup.config.compensation = policy;
    let _ = harness
        .run_supervised(&s, EngineKind::Map, cut_s, &mut sup)
        .unwrap();

    // Resume in a fresh harness and carry the run to its (lost) end.
    let mut harness = LoopHarness::for_scenario(&s, true).with_checkpointing(cfg);
    let mut sup = LoopSupervisor::for_scenario(&s);
    sup.config.compensation = policy;
    let resumed = harness
        .run_spec(&s, RunSpec::resume(s.duration_s).supervised(&mut sup))
        .unwrap();
    assert_traces_identical(&reference, &resumed);
    assert_eq!(sup.commanded_boost(), 3.0, "boost restored across the cut");
}

#[test]
fn zero_amplitude_cavity_program_is_bit_identical_to_fault_free() {
    let mut clean = MdeScenario::nov24_2023();
    clean.duration_s = 0.05;
    clean.bunches = 1;

    // Noop by amplitude: zero drift and an infinite collapse constant.
    let mut noop = clean.clone();
    noop.faults = FaultProgram {
        seed: 7,
        events: vec![
            FaultProgram::cavity_detune(0.01, 0.05, 0.0, 7).events[0],
            FaultProgram::cavity_quench(0.01, f64::INFINITY, 7).events[0],
        ],
    };
    assert!(!noop.faults.has_cavity_faults(), "all events are noops");

    let (a, _) = run_supervised(&clean, EngineKind::Map, CompensationPolicy::None);
    let (b, _) = run_supervised(&noop, EngineKind::Map, CompensationPolicy::None);
    assert_eq!(a.times.len(), b.times.len());
    // The watchdog's modeled deadline events fire identically in both
    // runs; the noop cavity program must add nothing on top.
    assert_eq!(a.events, b.events, "noop cavity faults log nothing extra");
    for (x, y) in a.mean_phase_deg.iter().zip(&b.mean_phase_deg) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    for (x, y) in a.control_hz.iter().zip(&b.control_hz) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn seeded_replay_is_deterministic() {
    let s = quench_scenario();
    let (a, _) = run_supervised(&s, EngineKind::Map, CompensationPolicy::voltage_rematch());
    let (b, _) = run_supervised(&s, EngineKind::Map, CompensationPolicy::voltage_rematch());
    assert_traces_identical(&a, &b);
    assert!(!a.events.is_empty());
}

// ---------------------------------------------------------------------------
// Cross-fidelity agreement
// ---------------------------------------------------------------------------

#[test]
fn quench_ladder_agrees_across_fidelities() {
    // The same quench + rematch program on the analytic map, the CGRA
    // kernel and the single-particle reference tracker: every fidelity
    // must see the sag at the same actuation tick, engage compensation,
    // and lose the beam to the same declared cause in the same
    // neighbourhood of turns (the engines differ in the last ulps, and a
    // near-separatrix trajectory amplifies that — the *ladder*, not the
    // exact loss turn, is the cross-fidelity contract).
    let s = quench_scenario();
    let kinds = [
        EngineKind::Map,
        EngineKind::Cgra,
        EngineKind::RefTrack {
            particles: 1,
            seed: 3,
        },
    ];
    let mut results = Vec::new();
    for kind in kinds {
        let (trace, _) = run_supervised(&s, kind, CompensationPolicy::voltage_rematch());
        let turn = loss_turn(&trace);
        results.push((kind, sag_turn(&trace), turn));
    }
    let (_, sag0, loss0) = results[0];
    for &(kind, sag, loss) in &results[1..] {
        assert_eq!(sag, sag0, "sag tick agrees for {kind:?}");
        let spread = (loss as f64 - loss0 as f64).abs() / loss0 as f64;
        assert!(
            spread < 0.2,
            "loss turn for {kind:?} within 20%: {loss} vs {loss0}"
        );
    }
}

#[test]
fn signal_level_chain_rides_through_a_cavity_trip() {
    // The signal-level fidelity sees the same plant hook through the gap
    // DDS (amplitude × scale, frequency + detune): a short trip mutes the
    // gap signal — the detector stops measuring, the chain must not panic
    // or lose lock permanently — and measurement resumes after recovery.
    let mut s = MdeScenario::nov24_2023();
    s.bunches = 1;
    s.faults = FaultProgram::cavity_trip(1.0e-3, 1.5e-3, 0.5e-3, 0xCAF3);
    let result = SignalLevelLoop::new(s).run(3e-3, true).unwrap();
    assert!(result.outcome.survived(), "trip does not kill the chain");
    assert!(result.phase_deg.len() > 1000, "measurement resumed");
}
