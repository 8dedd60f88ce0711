//! Standing closed-loop throughput benchmark (revolutions per second).
//!
//! Measures the full harness + engine hot loop — the path every executive,
//! sweep and ablation sits on — for each fidelity and execution mode this
//! repo ships: batched [`step_block`] stepping vs per-turn blocks, with and
//! without a sampled observer. The `bench_loop` binary prints the table and
//! writes `results/BENCH_loop.json`; the release-only `loop_guard` test
//! pins plan+batched CGRA at ≥ [`PLAN_VS_MAP_BOUND`] × `map_batched` and
//! the observed loop at ≥ [`OBSERVED_VS_PLAN_BOUND`] × the unobserved one,
//! so the optimisation cannot silently regress.
//!
//! [`step_block`]: cil_core::engine::BeamEngine::step_block

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use cil_core::engine::{BeamEngine, CgraEngine, EngineKind};
use cil_core::harness::{LoopHarness, DEFAULT_BLOCK_ROWS};
use cil_core::scenario::MdeScenario;

/// The benchmark scenario: the Nov-24 MDE operating point trimmed to
/// `revolutions` turns of a single bunch, loop closed.
pub fn bench_scenario(revolutions: u64) -> MdeScenario {
    let mut s = MdeScenario::nov24_2023();
    s.bunches = 1;
    s.duration_s = revolutions as f64 / s.f_rev;
    s
}

/// Which engine + execution path a case exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseKind {
    /// Analytic two-particle map.
    Map,
    /// CGRA executor replaying the pre-decoded micro-op plan.
    CgraPlan,
    /// Multi-particle reference tracker.
    RefTrack,
}

/// One benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct CaseSpec {
    /// Stable case id, `fidelity_mode` (keys the JSON artifact).
    pub label: &'static str,
    /// Engine + execution path.
    pub kind: CaseKind,
    /// Force one-row step blocks (per-turn stepping) instead of the
    /// harness default batch.
    pub per_turn: bool,
    /// Attach a sampled observer hook (cadence = the default block size).
    /// Under the event-scheduled core an observer no longer forces
    /// per-turn stepping, so this case must stay near the unobserved
    /// batched throughput.
    pub observed: bool,
}

/// Particles in the reference-tracker case — enough to be representative,
/// small enough that the case doesn't dominate the benchmark's runtime.
pub const REFTRACK_PARTICLES: usize = 256;

/// Every fidelity × mode the standing benchmark covers.
pub fn standard_cases() -> Vec<CaseSpec> {
    vec![
        CaseSpec {
            label: "map_batched",
            kind: CaseKind::Map,
            per_turn: false,
            observed: false,
        },
        CaseSpec {
            label: "map_per_turn",
            kind: CaseKind::Map,
            per_turn: true,
            observed: false,
        },
        CaseSpec {
            label: "cgra_plan_batched",
            kind: CaseKind::CgraPlan,
            per_turn: false,
            observed: false,
        },
        CaseSpec {
            label: "cgra_plan_observed",
            kind: CaseKind::CgraPlan,
            per_turn: false,
            observed: true,
        },
        CaseSpec {
            label: "cgra_plan_per_turn",
            kind: CaseKind::CgraPlan,
            per_turn: true,
            observed: false,
        },
        CaseSpec {
            label: "reftrack_batched",
            kind: CaseKind::RefTrack,
            per_turn: false,
            observed: false,
        },
    ]
}

/// One measured configuration of the standing loop benchmark.
#[derive(Debug, Clone)]
pub struct LoopBenchRow {
    /// Stable case id (`fidelity_mode`).
    pub label: &'static str,
    /// Measured rows per run.
    pub revolutions: u64,
    /// Best-of-runs wall clock, seconds.
    pub wall_s: f64,
    /// `revolutions / wall_s`.
    pub revs_per_sec: f64,
}

fn build_engine(s: &MdeScenario, kind: CaseKind) -> Box<dyn BeamEngine> {
    match kind {
        CaseKind::Map => EngineKind::Map.build(s).expect("map engine builds"),
        CaseKind::CgraPlan => {
            Box::new(CgraEngine::from_scenario(s, 1, &[]).expect("cgra engine builds"))
        }
        CaseKind::RefTrack => EngineKind::RefTrack {
            particles: REFTRACK_PARTICLES,
            seed: 0x5EED,
        }
        .build(s)
        .expect("reftrack engine builds"),
    }
}

/// Measure one case: best-of-`runs` wall clock over the closed loop.
/// Engine construction (and for the CGRA fidelity the cached kernel
/// compile) happens outside the timed region — this benchmarks the hot
/// loop, not setup.
pub fn measure_case(s: &MdeScenario, case: CaseSpec, runs: usize) -> LoopBenchRow {
    let mut best = f64::INFINITY;
    let mut rows = 0u64;
    for _ in 0..runs {
        let mut engine = build_engine(s, case.kind);
        let mut harness = LoopHarness::for_scenario(s, true);
        if case.per_turn {
            harness = harness
                .with_block_rows(1)
                .expect("per-turn block size is valid");
        }
        let t0 = Instant::now();
        let trace = if case.observed {
            // A sampled observer at the default block cadence: the event
            // core schedules it between blocks, so the hot loop stays
            // batched. `black_box` keeps the hook from optimising away.
            harness
                .run_with_every(
                    engine.as_mut(),
                    s.duration_s,
                    DEFAULT_BLOCK_ROWS as u64,
                    |e| {
                        std::hint::black_box(e.time());
                    },
                )
                .expect("observer cadence is valid")
        } else {
            harness.run(engine.as_mut(), s.duration_s)
        };
        let dt = t0.elapsed().as_secs_f64();
        assert!(
            trace.outcome.survived(),
            "{}: beam lost mid-bench",
            case.label
        );
        rows = trace.times.len() as u64;
        best = best.min(dt);
    }
    LoopBenchRow {
        label: case.label,
        revolutions: rows,
        wall_s: best,
        revs_per_sec: rows as f64 / best,
    }
}

/// Run the full standard-case matrix (first case doubles as warmup: one
/// untimed run pages in code and settles the allocator and kernel cache).
pub fn run_loop_bench(revolutions: u64, runs: usize) -> Vec<LoopBenchRow> {
    let s = bench_scenario(revolutions);
    let cases = standard_cases();
    let _ = measure_case(&s, cases[0], 1);
    cases.iter().map(|&c| measure_case(&s, c, runs)).collect()
}

/// Throughput ratio between two measured cases (`num` over `den`).
pub fn speedup(rows: &[LoopBenchRow], num: &str, den: &str) -> f64 {
    let find = |label: &str| {
        rows.iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("no case {label}"))
            .revs_per_sec
    };
    find(num) / find(den)
}

/// Guard bound: `cgra_plan_batched` must reach at least this fraction of
/// `map_batched`. It is 1.5 × the median `cgra_walk_per_turn / map_batched`
/// ratio (0.2044, 7 `bench_loop` runs on a 2-core AVX-512 host, rustc 1.95)
/// rounded up, so it is the old "≥ 1.5× the per-turn node walk" bound
/// restated against a row that still exists.
pub const PLAN_VS_MAP_BOUND: f64 = 0.31;

/// Guard bound: `cgra_plan_observed` must reach at least this fraction of
/// `cgra_plan_batched`. It is 1.5 × the median `cgra_walk_per_turn /
/// cgra_plan_batched` ratio (0.5059, same runs) rounded up — the old
/// observed-loop bound over the node walk, restated the same way.
pub const OBSERVED_VS_PLAN_BOUND: f64 = 0.76;

/// The guard's two ratios: plan+batched CGRA over `map_batched`, and the
/// observer-attached plan loop over the unobserved one.
pub fn guard_ratios(rows: &[LoopBenchRow]) -> (f64, f64) {
    (
        speedup(rows, "cgra_plan_batched", "map_batched"),
        speedup(rows, "cgra_plan_observed", "cgra_plan_batched"),
    )
}

/// Write `results/BENCH_loop.json` (repo-root `results/`, independent of
/// the working directory); returns the path written.
pub fn write_bench_json(revolutions: u64, runs: usize, rows: &[LoopBenchRow]) -> PathBuf {
    let (plan_vs_map, observed_vs_plan) = guard_ratios(rows);
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    std::fs::create_dir_all(&dir).unwrap();
    let mut cases = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            cases.push(',');
        }
        write!(
            cases,
            "{{\"label\":\"{}\",\"revolutions\":{},\"wall_s\":{},\"revs_per_sec\":{}}}",
            r.label, r.revolutions, r.wall_s, r.revs_per_sec
        )
        .unwrap();
    }
    let path = dir.join("BENCH_loop.json");
    std::fs::write(
        &path,
        format!(
            "{{\"bench\":\"loop_throughput\",\"revolutions\":{revolutions},\"runs\":{runs},\
             \"cases\":[{cases}],\
             \"ratio_plan_batched_vs_map_batched\":{plan_vs_map},\
             \"bound_plan_batched_vs_map_batched\":{PLAN_VS_MAP_BOUND},\
             \"ratio_plan_observed_vs_plan_batched\":{observed_vs_plan},\
             \"bound_plan_observed_vs_plan_batched\":{OBSERVED_VS_PLAN_BOUND}}}\n"
        ),
    )
    .unwrap();
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_have_unique_labels_and_cover_both_modes() {
        let cases = standard_cases();
        let mut labels: Vec<_> = cases.iter().map(|c| c.label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), cases.len(), "labels are unique");
        assert!(cases
            .iter()
            .any(|c| c.kind == CaseKind::CgraPlan && !c.per_turn));
        assert!(cases
            .iter()
            .any(|c| c.kind == CaseKind::CgraPlan && c.per_turn));
        assert!(
            cases
                .iter()
                .any(|c| c.kind == CaseKind::CgraPlan && c.observed && !c.per_turn),
            "the observer-attached batched case must be in the matrix"
        );
    }

    #[test]
    fn speedup_reads_the_named_cases() {
        let rows = vec![
            LoopBenchRow {
                label: "a",
                revolutions: 10,
                wall_s: 1.0,
                revs_per_sec: 10.0,
            },
            LoopBenchRow {
                label: "b",
                revolutions: 10,
                wall_s: 2.0,
                revs_per_sec: 5.0,
            },
        ];
        assert!((speedup(&rows, "a", "b") - 2.0).abs() < 1e-12);
    }

    /// A tiny smoke run (debug build, so no timing claims): every case
    /// completes and records the same number of rows.
    #[test]
    fn all_cases_complete_and_agree_on_rows() {
        let rows = run_loop_bench(200, 1);
        assert_eq!(rows.len(), standard_cases().len());
        for r in &rows {
            assert_eq!(r.revolutions, rows[0].revolutions, "{}", r.label);
            assert!(r.revs_per_sec > 0.0);
        }
    }
}
