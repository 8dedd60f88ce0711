//! Differential-testing harness for the RefTrack wide-lane kernel.
//!
//! Three layers of cross-checks, each over the shared matched-ensemble
//! generators in `tests/common`:
//!
//! 1. **Sine accuracy** — the deterministic polynomial sine against the
//!    host libm, to the stated bound (≤ 2 ulp, or ≤ 1e-24 absolute in the
//!    cancellation-dominated neighbourhood of sine zeros).
//! 2. **Backend bit-identity** — scalar-libm-structured, portable
//!    autovectorised and every runtime-dispatched wide backend (AVX2,
//!    AVX-512), quantified over
//!    {threads × chunk size × block size}: trajectories, centroid moments
//!    and harness traces must agree to the bit.
//! 3. **Trajectory envelope** — the polynomial kernel against the libm
//!    reference over whole tracked trajectories: not bit-equal (different
//!    sine), but within a tight absolute envelope.
//!
//! Plus a checkpoint kill-and-resume through the intra-step parallel path,
//! the property the harness's CILCKPT layer depends on.

mod common;

use cavity_in_the_loop::checkpoint::CheckpointConfig;
use cavity_in_the_loop::engine::RefTrackEngine;
use cavity_in_the_loop::harness::{LoopHarness, RunSpec, RunStart};
use cavity_in_the_loop::hil::EngineKind;
use cavity_in_the_loop::reftrack::kernel::{poly_sin, ulp_distance, KernelBackend, REDUCE_QUANTUM};
use cavity_in_the_loop::reftrack::{MultiParticleTracker, TrackerConfig};
use cavity_in_the_loop::scenario::MdeScenario;
use common::{matched_case, worker_matrix, MatchedCase};
use proptest::prelude::*;
use std::path::PathBuf;

/// Engine-level block sizes from the acceptance criteria.
const BLOCK_SIZES: [usize; 3] = [1, 64, 1000];

fn tracker(
    case: &MatchedCase,
    threads: usize,
    min_chunk: usize,
    backend: KernelBackend,
) -> MultiParticleTracker {
    let (op, e) = case.build();
    MultiParticleTracker::new(
        op,
        e,
        TrackerConfig {
            threads,
            min_chunk,
            backend,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Layer 1: the polynomial sine is within 2 ulp of libm — or within
    /// 1e-24 absolute where sin(x) itself is below the ~1e-26 two-term
    /// reduction residue — over the whole argument range the tracker can
    /// produce (|ω_rf·Δt + φ| ≲ 10³ rad) and well beyond.
    #[test]
    fn poly_sin_matches_libm(x in -1.0e4f64..1.0e4, scale in 0.0f64..1.0) {
        // Two scales: raw draws cover the coarse range; scaled draws
        // concentrate around the small |x| the kick actually evaluates.
        for arg in [x, x * scale * 1e-3] {
            let (a, b) = (poly_sin(arg), arg.sin());
            prop_assert!(
                ulp_distance(a, b) <= 2 || (a - b).abs() < 1e-24,
                "x = {arg}: poly {a} vs libm {b} ({} ulp)",
                ulp_distance(a, b)
            );
        }
    }

    /// Layer 2 (tracker): every polynomial backend × every worker
    /// configuration produces bit-identical phase-space arrays *and*
    /// bit-identical centroid moments.
    #[test]
    fn kernel_bit_identity_over_backends_and_threads(
        case in matched_case(1..6_000),
        phase in -0.3f64..0.3,
    ) {
        let mut reference: Option<(Vec<f64>, Vec<f64>, Vec<u64>)> = None;
        for backend in KernelBackend::poly_available() {
            for (threads, min_chunk) in worker_matrix() {
                let mut tr = tracker(&case, threads, min_chunk, backend);
                let mut moment_bits = Vec::new();
                for _ in 0..8 {
                    let m = tr.step(phase);
                    moment_bits.push(m.sum_dt.to_bits());
                    moment_bits.push(m.sum_dgamma.to_bits());
                }
                let got = (tr.ensemble.dt, tr.ensemble.dgamma, moment_bits);
                match &reference {
                    None => reference = Some(got),
                    Some(want) => {
                        prop_assert!(
                            want.0 == got.0 && want.1 == got.1,
                            "phase space differs: backend {} threads {threads} min_chunk {min_chunk}",
                            backend.label()
                        );
                        prop_assert!(
                            want.2 == got.2,
                            "centroid moments differ: backend {} threads {threads} min_chunk {min_chunk}",
                            backend.label()
                        );
                    }
                }
            }
        }
    }

    /// Layer 3: over whole trajectories the polynomial kernel stays inside
    /// a tight absolute envelope of the libm reference — the two are the
    /// same physics, differing only by ≤2 ulp per sine evaluation.
    #[test]
    fn poly_trajectory_tracks_libm_reference(case in matched_case(16..2_000)) {
        let mut libm = tracker(&case, 1, 1, KernelBackend::Libm);
        let mut poly = tracker(&case, 1, 1, KernelBackend::Auto);
        let turns = 200;
        let mut max_dt_err = 0.0f64;
        for _ in 0..turns {
            let a = libm.step(0.05);
            let b = poly.step(0.05);
            max_dt_err = max_dt_err.max((a.centroid_dt() - b.centroid_dt()).abs());
        }
        // Per-turn sine discrepancy is ≲1e-16 relative; through the kick it
        // perturbs Δt by ≲1e-20 s/turn at SIS18 scales. 1e-15 s over 200
        // turns is ~5 orders of slack yet still 10⁶× tighter than any
        // physical signal (Δt ~ 1e-8 s).
        prop_assert!(
            max_dt_err < 1e-15,
            "centroid diverged {max_dt_err} s over {turns} turns"
        );
    }
}

/// Layer 2 (engine): the full harness trace is bit-identical across block
/// sizes {1, 64, 1000} × worker configurations, on the parallel path.
#[test]
fn engine_trace_invariant_over_block_size_and_threads() {
    let mut s = MdeScenario::nov24_2023();
    s.duration_s = 0.005;
    s.bunches = 1;
    // Same construction as EngineKind::RefTrack{..}.build(): 15 ns sigma,
    // no displacement. Ragged particle count exercises the remainder slots.
    let particles = 3 * REDUCE_QUANTUM + 17;

    let mut reference = None;
    for block in BLOCK_SIZES {
        for (threads, min_chunk) in worker_matrix() {
            let mut engine =
                RefTrackEngine::from_scenario(&s, particles, 0xD1FF, 15e-9, 0.0).unwrap();
            engine.set_tracker_config(TrackerConfig {
                threads,
                min_chunk,
                backend: KernelBackend::Auto,
            });
            let trace = LoopHarness::for_scenario(&s, true)
                .with_block_rows(block)
                .unwrap()
                .run(&mut engine, s.duration_s);
            match &reference {
                None => reference = Some(trace),
                Some(want) => {
                    assert_eq!(want.times, trace.times, "block {block} t{threads}");
                    assert_eq!(
                        want.bunch_phase_deg, trace.bunch_phase_deg,
                        "block {block} threads {threads} min_chunk {min_chunk}"
                    );
                    assert_eq!(
                        want.control_hz, trace.control_hz,
                        "block {block} t{threads}"
                    );
                    assert_eq!(want.outcome, trace.outcome, "block {block} t{threads}");
                }
            }
        }
    }
}

/// Checkpoint kill-and-resume *through the intra-step parallel path*: the
/// killed run uses 8 worker threads, the resume rebuilds with the default
/// configuration — bit-identity across worker configurations is exactly
/// what makes the CILCKPT bytes replayable.
#[test]
fn checkpoint_resume_through_parallel_step() {
    let mut s = MdeScenario::nov24_2023();
    s.duration_s = 0.004;
    s.bunches = 1;
    let kind = EngineKind::RefTrack {
        particles: 2048,
        seed: 42,
    };
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/ckpt-tests"))
        .join("reftrack-kernel-parallel");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = CheckpointConfig::new(dir);
    cfg.every_turns = 256;

    // Reference: uninterrupted, default workers, no checkpointing.
    let mut engine = kind.build(&s).unwrap();
    let reference = LoopHarness::for_scenario(&s, true).run(engine.as_mut(), s.duration_s);

    // Killed run at 8 threads through the parallel step (same construction
    // as kind.build, then retuned).
    let mut engine = RefTrackEngine::from_scenario(&s, 2048, 42, 15e-9, 0.0).unwrap();
    engine.set_tracker_config(TrackerConfig {
        threads: 8,
        min_chunk: 64,
        backend: KernelBackend::Auto,
    });
    let mut harness = LoopHarness::for_scenario(&s, true).with_checkpointing(cfg.clone());
    let _ = harness
        .run_spec(
            &s,
            RunSpec {
                duration_s: s.duration_s * 0.6,
                start: RunStart::Fresh {
                    engine: Box::new(engine),
                    kind,
                },
                supervisor: None,
            },
        )
        .unwrap();

    // Fresh harness resumes (rebuilds the engine with default workers).
    let mut harness = LoopHarness::for_scenario(&s, true).with_checkpointing(cfg);
    let resumed = harness.run_spec(&s, RunSpec::resume(s.duration_s)).unwrap();

    assert_eq!(reference.times, resumed.times);
    assert_eq!(reference.bunch_phase_deg, resumed.bunch_phase_deg);
    assert_eq!(reference.mean_phase_deg, resumed.mean_phase_deg);
    assert_eq!(reference.control_hz, resumed.control_hz);
    assert_eq!(reference.outcome, resumed.outcome);
}
