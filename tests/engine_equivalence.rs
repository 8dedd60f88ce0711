//! Cross-fidelity equivalence of the [`BeamEngine`] implementations, and
//! the compiled-kernel cache's correctness guarantees — every engine runs
//! through the same [`LoopHarness`] code path, so agreement here means the
//! fidelity tiers are interchangeable views of one experiment (the paper's
//! Fig. 5 "remarkable similarity" claim, made testable).

use cavity_in_the_loop::cgra::cache::CompiledKernelCache;
use cavity_in_the_loop::cgra::kernels::build_beam_kernel_opts;
use cavity_in_the_loop::cgra::sched::ListScheduler;
use cavity_in_the_loop::engine::EngineKind;
use cavity_in_the_loop::harness::LoopHarness;
use cavity_in_the_loop::hil::TurnLevelLoop;
use cavity_in_the_loop::scenario::MdeScenario;
use cavity_in_the_loop::signalgen::PhaseJumpProgram;
use cavity_in_the_loop::sweep::parallel_sweep;
use proptest::prelude::*;
use std::sync::Arc;

fn scenario() -> MdeScenario {
    let mut s = MdeScenario::nov24_2023();
    s.duration_s = 0.1; // one full jump cycle
    s.bunches = 1;
    s
}

/// Run one engine kind through the shared harness, closed loop.
fn trace_of(kind: EngineKind, s: &MdeScenario) -> cavity_in_the_loop::harness::LoopTrace {
    let mut engine = kind.build(s).expect("engine builds for the scenario");
    let mut harness = LoopHarness::for_scenario(s, true);
    harness.run(engine.as_mut(), s.duration_s)
}

fn rms_diff(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    assert!(n > 1000, "traces long enough to compare ({n} rows)");
    let sum: f64 = a[..n]
        .iter()
        .zip(&b[..n])
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    (sum / n as f64).sqrt()
}

#[test]
fn map_and_cgra_engines_agree_within_rms_bound() {
    let s = scenario();
    let map = trace_of(EngineKind::Map, &s);
    let cgra = trace_of(EngineKind::Cgra, &s);

    assert!(map.survived() && cgra.survived());
    // Same jump schedule observed by both fidelities.
    assert_eq!(map.jump_times.len(), cgra.jump_times.len());
    for (a, b) in map.jump_times.iter().zip(&cgra.jump_times) {
        assert!(
            (a - b).abs() < 5e-6,
            "jump edges within a few turns: {a} vs {b}"
        );
    }
    // The CGRA executes the same recursive map the analytic engine steps, so
    // the closed-loop traces track each other tightly (sub-degree RMS over a
    // full 8-degree jump/damp cycle).
    let rms = rms_diff(&map.mean_phase_deg, &cgra.mean_phase_deg);
    assert!(rms < 0.8, "Map-vs-Cgra RMS = {rms} deg");
}

#[test]
fn reftrack_engine_matches_turn_level_dynamics_loosely() {
    // The multi-macro-particle reference has Landau damping the two-particle
    // map lacks, so pointwise RMS is only loosely bounded — but the response
    // shape (oscillation frequency, first-peak height) must agree, which is
    // exactly how the paper compares Fig. 5a to Fig. 5b.
    let s = scenario();
    let map = trace_of(EngineKind::Map, &s);
    let reft = trace_of(
        EngineKind::RefTrack {
            particles: 1500,
            seed: 20231124,
        },
        &s,
    );

    assert!(reft.survived());
    let rms = rms_diff(&map.mean_phase_deg, &reft.mean_phase_deg);
    assert!(rms < 4.0, "Map-vs-RefTrack RMS = {rms} deg");

    let series = |t: &cavity_in_the_loop::harness::LoopTrace| {
        cavity_in_the_loop::trace::TimeSeries::new(0.0, 1.0 / s.f_rev, t.mean_phase_deg.clone())
    };
    let t_jump = map.jump_times[0];
    let fs = |t: &cavity_in_the_loop::harness::LoopTrace| {
        series(t)
            .window(t_jump + 1e-4, t_jump + 0.045)
            .dominant_frequency(600.0, 3000.0)
            .0
    };
    let (fs_map, fs_reft) = (fs(&map), fs(&reft));
    assert!(
        (fs_map - fs_reft).abs() < 150.0,
        "fs {fs_map} vs {fs_reft} Hz"
    );
}

#[test]
fn displaced_jump_program_reports_an_event_at_t_zero() {
    // A negative path latency means the program is already displaced when
    // the run starts; the harness must stamp that edge at t = 0 rather than
    // leave `jump_times` empty (which used to panic downstream consumers
    // that index `jump_times[0]`).
    let mut s = scenario();
    s.jumps = PhaseJumpProgram {
        amplitude_deg: 8.0,
        interval_s: 0.05,
        path_latency_s: -0.06,
    };
    let result = TurnLevelLoop::new(s, EngineKind::Map).run(true).unwrap();
    assert_eq!(result.jump_times.first().copied(), Some(0.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A cache hit hands back schedule and DFG bit-identical to what a cold
    /// compile of the same configuration produces — memoisation never
    /// changes the artifact.
    #[test]
    fn cache_hit_schedule_is_identical_to_cold_compile(
        fs_scale in 0.8f64..1.2,
        bunches in 1usize..4,
        pipelined_bit in 0u32..2,
    ) {
        let mut s = MdeScenario::nov24_2023();
        s.fs_target *= fs_scale;
        s.bunches = bunches;
        s.pipelined = pipelined_bit == 1;
        let params = s.kernel_params().unwrap();

        let cache = CompiledKernelCache::new();
        let cold = cache.get_or_compile(&params, s.bunches, s.pipelined, true, s.grid);
        let warm = cache.get_or_compile(&params, s.bunches, s.pipelined, true, s.grid);
        prop_assert_eq!((cache.hits(), cache.misses()), (1, 1));
        prop_assert!(Arc::ptr_eq(&cold, &warm), "hit returns the cached artifact");

        // Recompile from scratch, bypassing the cache entirely.
        let fresh = build_beam_kernel_opts(&params, s.bunches, s.pipelined, true);
        let fresh_schedule = ListScheduler::new(s.grid).schedule(&fresh.kernel.dfg);
        prop_assert_eq!(warm.schedule.makespan, fresh_schedule.makespan);
        prop_assert_eq!(warm.schedule.placements.len(), fresh_schedule.placements.len());
        for (node, (a, b)) in
            warm.schedule.placements.iter().zip(&fresh_schedule.placements).enumerate()
        {
            prop_assert_eq!(a, b, "placement of node {} differs on a warm hit", node);
        }
    }
}

#[test]
fn sweep_over_cgra_engines_hits_the_kernel_cache() {
    // The acceptance demonstration: repeated engine construction across a
    // sweep compiles the kernel once and reuses it. Warm the global cache
    // with one run, then every worker in the sweep must hit.
    let mut s = scenario();
    s.duration_s = 4e-3;
    let _ = trace_of(EngineKind::Cgra, &s);

    let cache = cavity_in_the_loop::cgra::cache::global();
    let (hits0, misses0) = (cache.hits(), cache.misses());

    let gains = [-2.0, -5.0, -8.0, -12.0];
    let results = parallel_sweep(
        &gains,
        2,
        || (),
        |_, &gain| {
            let mut v = s.clone();
            v.controller.gain = gain;
            let trace = trace_of(EngineKind::Cgra, &v);
            trace.mean_phase_deg.len()
        },
        |_| {},
    );

    assert_eq!(results.len(), gains.len());
    assert!(results.iter().all(|&rows| rows > 1000));
    let hit_delta = cache.hits() - hits0;
    assert!(
        hit_delta >= gains.len() as u64,
        "cache hits across the sweep: {hit_delta}"
    );
    // Controller settings are not part of the kernel key: no new compiles.
    assert_eq!(cache.misses(), misses0);
}
