//! Standing RefTrack kernel benchmark — the case matrix behind the wide-lane
//! sine kick.
//!
//! Two levels, one table:
//!
//! * **Tracker cases** (`<backend>_n<particles>`): raw `MultiParticleTracker`
//!   turns, sequential, one row per kernel backend (host libm reference,
//!   `Auto` runtime dispatch, and every polynomial backend the host exposes)
//!   at small / medium / large ensembles — particle-turns/s and
//!   ns/particle-turn. A threaded `Auto` row at the largest ensemble pins the
//!   intra-step parallel path.
//! * **Engine cases** (`engine_libm` / `engine_auto`): the full closed loop —
//!   `RefTrackEngine` through `LoopHarness` batched stepping, the same path
//!   `loop_bench`'s `reftrack_batched` case measures — so the kernel's effect
//!   on end-to-end revolutions/s is on record next to the raw numbers.
//!
//! The `bench_reftrack` binary and the release-only `reftrack_guard` test
//! both measure through [`measure`](crate::measure) and write
//! `target/bench/BENCH_reftrack.json`; the guard pins the `Auto` kernel at
//! ≥ [`KERNEL_BOUND`]x host libm in the same process, the box-independent
//! form of the "3x the recorded `reftrack_batched` baseline" acceptance bar.

use std::path::PathBuf;

use cil_core::harness::LoopHarness;
use cil_core::scenario::MdeScenario;
use cil_physics::distribution::BunchSpec;
use cil_physics::machine::{MachineParams, OperatingPoint};
use cil_physics::synchrotron::SynchrotronCalc;
use cil_physics::IonSpecies;
use cil_reftrack::ensemble::Ensemble;
use cil_reftrack::kernel::KernelBackend;
use cil_reftrack::tracker::{MultiParticleTracker, TrackerConfig};

use crate::loop_bench::{bench_scenario, REFTRACK_PARTICLES};
use crate::measure::{oversubscribed, paired, samples, timed, write_bench, Json, Paired, Spread};

/// Release guard bound: the `Auto` kernel (the widest polynomial backend
/// the host has) must beat the host-libm backend by at least this factor
/// on the kernel-dominated large-ensemble case.
pub const KERNEL_BOUND: f64 = 3.0;

/// Release guard bound for the full closed loop: the batched `RefTrackEngine`
/// on the `Auto` backend vs the same engine pinned to libm. Conservative —
/// harness bookkeeping dilutes the raw kernel ratio at the standing 256
/// macro-particle case.
pub const ENGINE_BOUND: f64 = 1.5;

/// Ensemble sizes the tracker-level matrix covers.
pub const PARTICLE_SIZES: [usize; 3] = [256, 4_096, 32_768];

/// Worker threads in the threaded large-ensemble case.
pub const PAR_THREADS: usize = 8;

/// Per-case measurement budget, in particle-turns: turn counts are scaled so
/// every tracker case does the same amount of kick work.
const PARTICLE_TURNS_PER_CASE: u64 = 2_000_000;

/// The Nov-24 MDE operating point (N7+ at 800 kHz, fs = 1.28 kHz) — the same
/// point the closed-loop bench runs.
pub fn bench_op() -> OperatingPoint {
    let m = MachineParams::sis18();
    let ion = IonSpecies::n14_7plus();
    let v = SynchrotronCalc::new(m, ion)
        .voltage_for_fs(800e3, 1.28e3)
        .expect("bench operating point is below transition");
    OperatingPoint::from_revolution_frequency(m, ion, 800e3, v)
}

/// One configuration of the kernel case matrix.
#[derive(Debug, Clone)]
pub struct ReftrackCase {
    /// Stable case id (keys the JSON artifact).
    pub label: String,
    /// Kernel backend; `None` marks a closed-loop engine case (which always
    /// compares `Auto` vs libm via its own pair of rows).
    pub backend: KernelBackend,
    /// Macro particles.
    pub particles: usize,
    /// Worker threads (1 = sequential path).
    pub threads: usize,
    /// `true` for the `engine_*` closed-loop cases.
    pub engine: bool,
}

/// The full standing matrix: every backend × every ensemble size
/// (sequential), one threaded `Auto` row at the largest ensemble, and the
/// two closed-loop engine rows.
pub fn standard_cases() -> Vec<ReftrackCase> {
    let mut cases = Vec::new();
    for &n in &PARTICLE_SIZES {
        let mut backends = vec![KernelBackend::Libm, KernelBackend::Auto];
        backends.extend(KernelBackend::poly_available());
        for backend in backends {
            cases.push(ReftrackCase {
                label: format!("{}_n{n}", backend.label()),
                backend,
                particles: n,
                threads: 1,
                engine: false,
            });
        }
    }
    let n = *PARTICLE_SIZES.last().unwrap();
    cases.push(ReftrackCase {
        label: format!("auto_t{PAR_THREADS}_n{n}"),
        backend: KernelBackend::Auto,
        particles: n,
        threads: PAR_THREADS,
        engine: false,
    });
    for (label, backend) in [
        ("engine_libm", KernelBackend::Libm),
        ("engine_auto", KernelBackend::Auto),
    ] {
        cases.push(ReftrackCase {
            label: label.to_string(),
            backend,
            particles: REFTRACK_PARTICLES,
            threads: 1,
            engine: true,
        });
    }
    cases
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct ReftrackBenchRow {
    /// The case measured.
    pub case: ReftrackCase,
    /// Turns per run (tracker cases) or harness revolutions (engine cases).
    pub turns: u64,
    /// Particle-turns per second over the case's samples.
    pub particle_turns_per_sec: Spread,
}

impl ReftrackBenchRow {
    /// `1e9 / particle_turns_per_sec`, at the median.
    pub fn ns_per_particle_turn(&self) -> f64 {
        1e9 / self.particle_turns_per_sec.median
    }
}

/// The standing RefTrack benchmark: the case matrix and the guard's two
/// paired ratios.
#[derive(Debug, Clone)]
pub struct ReftrackBench {
    /// Harness revolutions of the engine cases.
    pub engine_revolutions: u64,
    /// One row per [`standard_cases`] entry.
    pub rows: Vec<ReftrackBenchRow>,
    /// `Auto` over libm on the largest sequential ensemble.
    pub kernel: Paired,
    /// `engine_auto` over `engine_libm` on the closed loop.
    pub engine: Paired,
}

/// What a case runs on: the bench operating point, one matched ensemble
/// per [`PARTICLE_SIZES`] entry, and the engine cases' scenario.
struct ReftrackSetup {
    op: OperatingPoint,
    ensembles: Vec<(usize, Ensemble)>,
    scenario: MdeScenario,
}

impl ReftrackSetup {
    /// Build the ensembles and the `engine_revolutions`-turn scenario.
    fn new(engine_revolutions: u64) -> Self {
        let op = bench_op();
        let ensembles = PARTICLE_SIZES
            .iter()
            .map(|&n| {
                (
                    n,
                    Ensemble::matched(&BunchSpec::gaussian(15e-9), n, &op, 7)
                        .expect("matched ensemble at the bench operating point"),
                )
            })
            .collect();
        Self {
            op,
            ensembles,
            scenario: bench_scenario(engine_revolutions),
        }
    }

    /// One run of `case`: turns (tracker cases) or harness revolutions
    /// (engine cases), and the seconds they took.
    fn run(&self, case: &ReftrackCase) -> (u64, f64) {
        if case.engine {
            self.engine_run(case)
        } else {
            self.tracker_run(case)
        }
    }

    fn tracker_run(&self, case: &ReftrackCase) -> (u64, f64) {
        let ensemble = &self
            .ensembles
            .iter()
            .find(|(n, _)| *n == case.particles)
            .expect("ensemble pre-built for every matrix size")
            .1;
        let turns = (PARTICLE_TURNS_PER_CASE / case.particles as u64).max(1);
        let mut tr = MultiParticleTracker::new(
            self.op,
            ensemble.clone(),
            TrackerConfig {
                threads: case.threads,
                min_chunk: if case.threads > 1 { 4096 } else { 1 << 30 },
                backend: case.backend,
            },
        );
        let ((), secs) = timed(|| {
            for _ in 0..turns {
                tr.step(0.0);
            }
        });
        std::hint::black_box(tr.ensemble.dt[0]);
        (turns, secs)
    }

    fn engine_run(&self, case: &ReftrackCase) -> (u64, f64) {
        let s = &self.scenario;
        let mut engine =
            cil_core::engine::RefTrackEngine::from_scenario(s, case.particles, 0x5EED, 15e-9, 0.0)
                .expect("reftrack engine builds");
        engine.set_tracker_config(TrackerConfig {
            backend: case.backend,
            ..TrackerConfig::default()
        });
        let mut harness = LoopHarness::for_scenario(s, true);
        let (trace, secs) = timed(|| harness.run(&mut engine, s.duration_s));
        assert!(
            trace.outcome.survived(),
            "{}: beam lost mid-bench",
            case.label
        );
        (trace.times.len() as u64, secs)
    }
}

/// Run the full matrix, `samples_per_case` samples each, and the guard's
/// two paired ratios.
pub fn run_reftrack_bench(engine_revolutions: u64, samples_per_case: usize) -> ReftrackBench {
    let setup = ReftrackSetup::new(engine_revolutions);
    let cases = standard_cases();
    let rows = cases
        .iter()
        .map(|c| {
            let turns = setup.run(c).0;
            let work = c.particles as f64 * turns as f64;
            ReftrackBenchRow {
                case: c.clone(),
                turns,
                particle_turns_per_sec: samples(samples_per_case, work, || setup.run(c).1),
            }
        })
        .collect();
    let find = |label: String| {
        cases
            .iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("no case {label}"))
    };
    let n = *PARTICLE_SIZES.last().unwrap();
    let (auto, libm) = (find(format!("auto_n{n}")), find(format!("libm_n{n}")));
    let (engine_auto, engine_libm) = (find("engine_auto".into()), find("engine_libm".into()));
    let setup = &setup;
    let run = |c| move || setup.run(c).1;
    ReftrackBench {
        engine_revolutions,
        rows,
        kernel: paired(run(auto), run(libm)),
        engine: paired(run(engine_auto), run(engine_libm)),
    }
}

impl ReftrackBench {
    /// Write `target/bench/BENCH_reftrack.json`; returns the path written.
    pub fn write(&self) -> PathBuf {
        let cases = self
            .rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("label", r.case.label.as_str().into()),
                    ("particles", r.case.particles.into()),
                    ("threads", r.case.threads.into()),
                    ("oversubscribed", oversubscribed(r.case.threads).into()),
                    ("turns", r.turns.into()),
                    ("particle_turns_per_sec", r.particle_turns_per_sec.json()),
                    ("ns_per_particle_turn", r.ns_per_particle_turn().into()),
                ])
            })
            .collect::<Vec<_>>();
        write_bench(
            "reftrack",
            vec![
                ("engine_revolutions", self.engine_revolutions.into()),
                ("cases", cases.into()),
                ("auto_vs_libm_large", self.kernel.json()),
                ("engine_auto_vs_libm", self.engine.json()),
                ("kernel_bound", KERNEL_BOUND.into()),
                ("engine_bound", ENGINE_BOUND.into()),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_backends_sizes_and_both_guard_pairs() {
        let cases = standard_cases();
        let mut labels: Vec<_> = cases.iter().map(|c| c.label.clone()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), cases.len(), "labels are unique");
        let n = *PARTICLE_SIZES.last().unwrap();
        for want in [
            format!("libm_n{n}"),
            format!("auto_n{n}"),
            format!("auto_t{PAR_THREADS}_n{n}"),
            "engine_libm".to_string(),
            "engine_auto".to_string(),
        ] {
            assert!(
                cases.iter().any(|c| c.label == want),
                "matrix must contain {want}"
            );
        }
        // Every ensemble size gets both the libm reference and Auto dispatch.
        for &n in &PARTICLE_SIZES {
            assert!(cases.iter().any(|c| c.label == format!("libm_n{n}")));
            assert!(cases.iter().any(|c| c.label == format!("auto_n{n}")));
        }
    }

    /// Tiny smoke run (no timing claims): every case completes and does
    /// work.
    #[test]
    fn all_cases_complete() {
        let setup = ReftrackSetup::new(50);
        for c in &standard_cases() {
            let (turns, secs) = setup.run(c);
            assert!(turns > 0 && secs > 0.0, "{}", c.label);
        }
    }
}
