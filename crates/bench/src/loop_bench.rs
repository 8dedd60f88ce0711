//! Standing closed-loop throughput benchmark (revolutions per second).
//!
//! Measures the full harness + engine hot loop — the path every executive,
//! sweep and ablation sits on — for each fidelity and execution mode this
//! repo ships: batched [`step_block`] stepping vs per-turn blocks, with and
//! without a sampled observer. The `bench_loop` binary and the
//! release-only `loop_guard` test both measure through
//! [`measure`](crate::measure) and write `target/bench/BENCH_loop.json`;
//! the guard pins plan+batched CGRA at ≥ [`PLAN_VS_MAP_BOUND`] × `map_batched` and
//! the observed loop at ≥ [`OBSERVED_VS_PLAN_BOUND`] × the unobserved one,
//! so the optimisation cannot silently regress.
//!
//! [`step_block`]: cil_core::engine::BeamEngine::step_block

use std::path::PathBuf;

use crate::measure::{paired, samples, timed, write_bench, Json, Paired, Spread};
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
    /// Trace rows per run.
    pub revolutions: u64,
    /// Revolutions per second over the case's samples.
    pub revs_per_sec: Spread,
}

/// The standing loop benchmark: the case matrix and the guard's two
/// paired ratios.
#[derive(Debug, Clone)]
pub struct LoopBench {
    /// Revolutions each run asks for.
    pub revolutions: u64,
    /// One row per [`standard_cases`] entry.
    pub rows: Vec<LoopBenchRow>,
    /// `cgra_plan_batched` over `map_batched` throughput.
    pub plan_vs_map: Paired,
    /// `cgra_plan_observed` over `cgra_plan_batched` throughput.
    pub observed_vs_plan: Paired,
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

/// One closed-loop run of a case: its trace rows and the seconds the loop
/// took. Engine construction (and for the CGRA fidelity the cached kernel
/// compile) happens outside the timed region — this benchmarks the hot
/// loop, not setup.
pub(crate) fn case_run(s: &MdeScenario, case: CaseSpec) -> (u64, f64) {
    let mut engine = build_engine(s, case.kind);
    let mut harness = LoopHarness::for_scenario(s, true);
    if case.per_turn {
        harness = harness
            .with_block_rows(1)
            .expect("per-turn block size is valid");
    }
    let (trace, secs) = timed(|| {
        if case.observed {
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
        }
    });
    assert!(
        trace.outcome.survived(),
        "{}: beam lost mid-bench",
        case.label
    );
    (trace.times.len() as u64, secs)
}

/// The standard case called `label`.
pub(crate) fn case(label: &str) -> CaseSpec {
    standard_cases()
        .into_iter()
        .find(|c| c.label == label)
        .unwrap_or_else(|| panic!("no case {label}"))
}

/// Run the full standard-case matrix, `samples_per_case` samples each,
/// and the guard's two paired ratios.
pub fn run_loop_bench(revolutions: u64, samples_per_case: usize) -> LoopBench {
    let s = bench_scenario(revolutions);
    let rows = standard_cases()
        .into_iter()
        .map(|c| {
            let rows = case_run(&s, c).0;
            LoopBenchRow {
                label: c.label,
                revolutions: rows,
                revs_per_sec: samples(samples_per_case, rows as f64, || case_run(&s, c).1),
            }
        })
        .collect();
    let [map, plan, observed] =
        ["map_batched", "cgra_plan_batched", "cgra_plan_observed"].map(case);
    let s = &s;
    let run = |c| move || case_run(s, c).1;
    LoopBench {
        revolutions,
        rows,
        plan_vs_map: paired(run(plan), run(map)),
        observed_vs_plan: paired(run(observed), run(plan)),
    }
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

impl LoopBench {
    /// Write `target/bench/BENCH_loop.json`; returns the path written.
    pub fn write(&self) -> PathBuf {
        let cases = self
            .rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("label", r.label.into()),
                    ("revolutions", r.revolutions.into()),
                    ("revs_per_sec", r.revs_per_sec.json()),
                ])
            })
            .collect::<Vec<_>>();
        write_bench(
            "loop",
            vec![
                ("revolutions", self.revolutions.into()),
                ("cases", cases.into()),
                ("plan_batched_vs_map_batched", self.plan_vs_map.json()),
                (
                    "bound_plan_batched_vs_map_batched",
                    PLAN_VS_MAP_BOUND.into(),
                ),
                (
                    "plan_observed_vs_plan_batched",
                    self.observed_vs_plan.json(),
                ),
                (
                    "bound_plan_observed_vs_plan_batched",
                    OBSERVED_VS_PLAN_BOUND.into(),
                ),
            ],
        )
    }
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

    /// A tiny smoke run (no timing claims): every case completes and
    /// records the same number of rows.
    #[test]
    fn all_cases_complete_and_agree_on_rows() {
        let s = bench_scenario(200);
        let rows: Vec<u64> = standard_cases()
            .into_iter()
            .map(|c| case_run(&s, c).0)
            .collect();
        assert!(rows.iter().all(|&r| r == rows[0] && r > 0), "{rows:?}");
    }
}
