//! Telemetry acceptance tests: the golden-trace suite.
//!
//! The layer is only trustworthy if its numbers are pinned down: (1) every
//! counter a supervised storm run exports equals what an auditor counts in
//! the trace's event log, exactly and deterministically; (2) kernel-cache
//! stats are exact on a private cache; (3) merging N per-worker registries
//! is order-independent and lossless; (4) intervention/demotion metrics
//! show up nonzero in both Prometheus and JSON exports; (5) the
//! warmup-step calibration is recorded and exported without perturbing
//! the run. The overhead bound (telemetry on < 1.10x off) is the
//! release-only `telemetry_guard` in `crates/bench/tests/`.
//!
//! Convention under test: metric names containing `wall` are wall-clock
//! derived and excluded from determinism comparisons; everything else must
//! be bit-identical across reruns.

use cil_core::fault::{FaultEvent, FaultKind, FaultProgram, LoopEvent};
use cil_core::hil::{EngineKind, TurnLevelLoop};
use cil_core::signalgen::PhaseJumpProgram;
use cil_core::sweep::parallel_sweep;
use cil_core::telemetry::{sample_kernel_cache, TelemetrySnapshot};
use cil_core::{LoopSupervisor, MdeScenario, TelemetryRegistry};
use proptest::prelude::*;

/// A persistent (non-toggling within the run) jump at `t0` (same trick as
/// tests/fault_injection.rs).
fn persistent_jump(amplitude_deg: f64, t0: f64) -> PhaseJumpProgram {
    PhaseJumpProgram {
        amplitude_deg,
        interval_s: 10.0,
        path_latency_s: -(10.0 - t0),
    }
}

/// The fixed seeded scenario the golden counters are pinned to: a 15° jump
/// under a detector-outlier storm.
fn storm_scenario() -> MdeScenario {
    let mut s = MdeScenario::nov24_2023();
    s.duration_s = 0.2;
    s.bunches = 1;
    s.jumps = persistent_jump(15.0, 0.06);
    s.faults = FaultProgram::detector_outlier_storm(0.05, 0.2, 0.08, 120.0, 0xBAD5EED);
    s
}

/// Scenario whose modelled CGRA step cost is stretched past the deadline,
/// forcing a watchdog demotion.
fn overrun_scenario() -> MdeScenario {
    let mut s = MdeScenario::nov24_2023();
    s.duration_s = 0.05;
    s.bunches = 1;
    s.faults = FaultProgram {
        seed: 0,
        events: vec![FaultEvent {
            start_s: 0.01,
            end_s: s.duration_s,
            kind: FaultKind::DeadlineOverrun { factor: 3.0 },
        }],
    };
    s
}

/// Drop wall-clock-derived metrics (names containing `wall`) — the only
/// part of a snapshot allowed to differ between reruns of the same seed.
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

fn count_events(events: &[LoopEvent], pred: impl Fn(&LoopEvent) -> bool) -> u64 {
    events.iter().filter(|e| pred(e)).count() as u64
}

#[test]
fn golden_counters_equal_trace_audit_exactly() {
    let s = storm_scenario();
    let run = || {
        let registry = TelemetryRegistry::new();
        let mut sup = LoopSupervisor::for_scenario(&s);
        let result = TurnLevelLoop::new(s.clone(), EngineKind::Map)
            .with_telemetry(&registry)
            .run_supervised(true, &mut sup)
            .unwrap();
        (registry.snapshot(), result)
    };
    let (snap, result) = run();

    // Counters equal an independent count over the audit channel.
    let rows = s.revolutions() as u64;
    assert_eq!(snap.counter("cil_loop_revolutions_total"), Some(rows));
    assert_eq!(
        snap.counter("cil_loop_jump_edges_total"),
        Some(result.jump_times.len() as u64)
    );
    type AuditPred<'a> = &'a dyn Fn(&LoopEvent) -> bool;
    let audits: [(&str, AuditPred); 5] = [
        ("cil_fault_rows_corrupted_total", &|e| {
            matches!(e, LoopEvent::RowCorrupted { .. })
        }),
        ("cil_supervisor_outliers_rejected_total", &|e| {
            matches!(e, LoopEvent::OutlierRejected { .. })
        }),
        ("cil_supervisor_deadline_overruns_total", &|e| {
            matches!(e, LoopEvent::DeadlineOverrun { .. })
        }),
        ("cil_supervisor_demotions_total", &|e| {
            matches!(e, LoopEvent::EngineDemoted { .. })
        }),
        ("cil_loop_beam_losses_total", &|e| {
            matches!(e, LoopEvent::BeamLost { .. })
        }),
    ];
    for (name, pred) in audits {
        assert_eq!(
            snap.counter(name),
            Some(count_events(&result.events, pred)),
            "{name} equals the audit count"
        );
    }
    // The storm must actually exercise the gate — a golden zero proves
    // nothing.
    assert!(
        snap.counter("cil_supervisor_outliers_rejected_total")
            .unwrap()
            > 0
    );
    assert!(snap.counter("cil_fault_rows_corrupted_total").unwrap() > 0);
    assert_eq!(snap.counter("cil_loop_beam_losses_total"), Some(0));

    // Supervised histograms observe once per measured row.
    for name in [
        "cil_supervisor_step_modeled_seconds",
        "cil_supervisor_deadline_headroom_seconds",
    ] {
        let h = snap.histogram(name).unwrap();
        assert_eq!(h.count, rows, "{name} observes every row");
    }
    // Structural invariant on every exported histogram.
    for (name, h) in &snap.histograms {
        assert_eq!(h.bucket_total(), h.count, "{name} buckets sum to count");
    }

    // Same seed, same numbers: rerun and compare everything but wall-clock.
    let (snap2, _) = run();
    assert_eq!(deterministic_part(&snap), deterministic_part(&snap2));
}

#[test]
fn kernel_cache_golden_counts_on_private_cache() {
    // A private cache, not the process-global one (other tests pollute it).
    let cache = cil_cgra::cache::CompiledKernelCache::new();
    let s = storm_scenario();
    let params = s.kernel_params().unwrap();
    let _a = cache.get_or_compile(&params, 1, s.pipelined, true, s.grid);
    let _b = cache.get_or_compile(&params, 1, s.pipelined, true, s.grid);
    assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
    assert!(cache.compile_seconds() > 0.0, "cold compile took time");

    let registry = TelemetryRegistry::new();
    sample_kernel_cache(&registry, &cache);
    let snap = registry.snapshot();
    assert_eq!(snap.gauge("cil_cgra_cache_hits"), Some(1.0));
    assert_eq!(snap.gauge("cil_cgra_cache_misses"), Some(1.0));
    assert_eq!(snap.gauge("cil_cgra_cache_entries"), Some(1.0));
    assert!(snap.gauge("cil_cgra_cache_compile_wall_seconds").unwrap() > 0.0);
}

#[test]
fn storm_and_demotion_metrics_appear_in_both_exports() {
    // Storm: supervisor interventions; forced overrun: an engine demotion.
    // One registry accumulates both supervised runs.
    let registry = TelemetryRegistry::new();
    let storm = storm_scenario();
    let mut sup = LoopSupervisor::for_scenario(&storm);
    let r1 = TurnLevelLoop::new(storm.clone(), EngineKind::Map)
        .with_telemetry(&registry)
        .run_supervised(true, &mut sup)
        .unwrap();
    assert!(r1.outcome.survived());

    let overrun = overrun_scenario();
    let mut sup = LoopSupervisor::for_scenario(&overrun);
    let r2 = TurnLevelLoop::new(overrun, EngineKind::Cgra)
        .with_telemetry(&registry)
        .run_supervised(true, &mut sup)
        .unwrap();
    assert!(r2.outcome.survived());

    let snap = registry.snapshot();
    let rejected = snap
        .counter("cil_supervisor_outliers_rejected_total")
        .unwrap();
    let demoted = snap.counter("cil_supervisor_demotions_total").unwrap();
    assert!(rejected > 0, "storm run rejected outliers");
    assert!(demoted > 0, "overrun run demoted the engine");

    let prom = snap.to_prometheus();
    assert!(prom.contains(&format!(
        "cil_supervisor_outliers_rejected_total {rejected}"
    )));
    assert!(prom.contains(&format!("cil_supervisor_demotions_total {demoted}")));
    assert!(prom.contains("# TYPE cil_supervisor_step_modeled_seconds histogram"));
    assert!(prom.contains("cil_supervisor_calibrated_step_wall_seconds{fidelity=\"cgra\"}"));

    let json = snap.to_json();
    assert!(json.contains(&format!(
        "\"cil_supervisor_outliers_rejected_total\":{rejected}"
    )));
    assert!(json.contains(&format!("\"cil_supervisor_demotions_total\":{demoted}")));
    assert!(json.contains("cil_supervisor_calibrated_step_wall_seconds{fidelity=\\\"cgra\\\"}"));
}

#[test]
fn sweep_merge_is_exact_and_thread_count_invariant() {
    let gains: Vec<f64> = (0..12).map(|i| -2.0 - 0.5 * f64::from(i)).collect();
    let run_sweep = |threads: usize| {
        let root = TelemetryRegistry::new();
        let residuals = parallel_sweep(
            &gains,
            threads,
            TelemetryRegistry::new,
            |reg, &gain| {
                let mut s = MdeScenario::nov24_2023();
                s.duration_s = 0.02;
                s.bunches = 1;
                s.controller.gain = gain;
                let r = TurnLevelLoop::new(s, EngineKind::Map)
                    .with_telemetry(reg)
                    .run(true)
                    .unwrap();
                r.phase_deg.values.last().copied().unwrap()
            },
            |reg| root.absorb(&reg),
        );
        (root.snapshot(), residuals)
    };
    let (par, res_par) = run_sweep(4);
    let (seq, res_seq) = run_sweep(1);
    assert_eq!(res_par, res_seq, "sweep results thread-count invariant");
    assert_eq!(
        deterministic_part(&par),
        deterministic_part(&seq),
        "merged telemetry thread-count invariant"
    );
    // Lossless: every run of every item counted exactly once.
    let s = MdeScenario::nov24_2023();
    let expected_rows = (0.02 * s.f_rev).round() as u64 * gains.len() as u64;
    assert_eq!(
        par.counter("cil_loop_revolutions_total"),
        Some(expected_rows)
    );
}

#[test]
fn calibration_is_recorded_and_exported_without_perturbing_the_run() {
    let mut s = MdeScenario::nov24_2023();
    s.duration_s = 0.02;
    s.bunches = 1;

    let registry = TelemetryRegistry::new();
    let mut sup = LoopSupervisor::for_scenario(&s);
    assert!(sup.calibration().is_none());
    let r = TurnLevelLoop::new(s.clone(), EngineKind::Map)
        .with_telemetry(&registry)
        .run_supervised(true, &mut sup)
        .unwrap();
    assert!(r.outcome.survived());

    let cal = sup.calibration().expect("warmup calibration recorded");
    assert_eq!(cal.kind, EngineKind::Map);
    assert!(cal.step_seconds > 0.0 && cal.step_seconds < 1.0);
    let snap = registry.snapshot();
    let gauge = snap
        .gauge("cil_supervisor_calibrated_step_wall_seconds{fidelity=\"map\"}")
        .expect("calibration exported");
    assert_eq!(gauge, cal.step_seconds);

    // Opting in to the measured figure keeps a healthy Map loop healthy:
    // the measured step sits far under the 1.25 µs deadline, so the only
    // overruns are the jitter model's rare scheduling-tail spikes — never
    // enough consecutive ones to trip the watchdog.
    let mut sup = LoopSupervisor::for_scenario(&s);
    sup.config.use_measured_step = true;
    let r = TurnLevelLoop::new(s, EngineKind::Map)
        .run_supervised(true, &mut sup)
        .unwrap();
    assert!(r.outcome.survived());
    assert!(
        !r.events
            .iter()
            .any(|e| matches!(e, LoopEvent::EngineDemoted { .. })),
        "measured Map step cost does not demote a healthy loop"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Merging N per-worker registries into a root is order-independent
    /// (counters, gauges and buckets exactly; float sums to rounding) and
    /// lossless (root totals equal the sum over workers).
    #[test]
    fn registry_merge_is_order_independent_and_lossless(
        workers in 2u64..6,
        seed in 0u64..u64::MAX / 2,
    ) {
        // Deterministic pseudo-random per-worker registries from `seed`
        // (plain LCG — no nested proptest strategies needed).
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let names = ["a_total", "b_total", "c_total"];
        let mut regs = Vec::new();
        let mut expect_counts = [0u64; 3];
        let mut expect_obs = 0u64;
        for _ in 0..workers {
            let reg = TelemetryRegistry::new();
            for (i, name) in names.iter().enumerate() {
                let n = next() % 100;
                reg.counter(name).add(n);
                expect_counts[i] += n;
            }
            reg.gauge("g").set(next() as f64 / 1e6);
            let h = reg.histogram("h_seconds");
            for _ in 0..(next() % 20) {
                h.observe(next() as f64 * 1e-9);
                expect_obs += 1;
            }
            regs.push(reg);
        }

        let forward = TelemetryRegistry::new();
        for r in &regs {
            forward.absorb(r);
        }
        let backward = TelemetryRegistry::new();
        for r in regs.iter().rev() {
            backward.absorb(r);
        }

        let fs = forward.snapshot();
        let bs = backward.snapshot();
        // Counters and gauges: exactly order-independent.
        prop_assert_eq!(&fs.counters, &bs.counters);
        prop_assert_eq!(&fs.gauges, &bs.gauges);
        // Lossless counter totals.
        for (i, name) in names.iter().enumerate() {
            prop_assert_eq!(fs.counter(name), Some(expect_counts[i]));
        }
        // Histogram buckets and counts: exact; sums: to rounding.
        let fh = fs.histogram("h_seconds").unwrap();
        let bh = bs.histogram("h_seconds").unwrap();
        prop_assert_eq!(&fh.buckets, &bh.buckets);
        prop_assert_eq!(fh.count, bh.count);
        prop_assert_eq!(fh.count, expect_obs);
        prop_assert_eq!(fh.bucket_total(), expect_obs);
        let scale = fh.sum.abs().max(bh.sum.abs()).max(1e-300);
        prop_assert!((fh.sum - bh.sum).abs() / scale < 1e-9);
    }
}
