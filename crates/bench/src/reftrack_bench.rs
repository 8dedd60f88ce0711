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
//! The `bench_reftrack` binary prints the table and writes
//! `results/BENCH_reftrack.json`; the release-only `reftrack_guard` test pins
//! the polynomial kernel at ≥ [`KERNEL_BOUND`]x host libm in the same
//! process, the box-independent form of the "3x the recorded
//! `reftrack_batched` baseline" acceptance bar.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

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

/// Release guard bound: the polynomial kernel (best measured backend at the
/// largest ensemble — see [`guard_ratios`]) must beat the host-libm backend
/// by at least this factor on the kernel-dominated large-ensemble case.
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
    /// Stable case id.
    pub label: String,
    /// Macro particles tracked.
    pub particles: usize,
    /// Worker threads.
    pub threads: usize,
    /// Turns per run (tracker cases) or harness revolutions (engine cases).
    pub turns: u64,
    /// Best-of-runs wall clock, seconds.
    pub wall_s: f64,
    /// `particles * turns / wall_s`.
    pub particle_turns_per_sec: f64,
    /// `1e9 * wall_s / (particles * turns)`.
    pub ns_per_particle_turn: f64,
}

fn row(case: &ReftrackCase, turns: u64, wall_s: f64) -> ReftrackBenchRow {
    let pt = case.particles as f64 * turns as f64;
    ReftrackBenchRow {
        label: case.label.clone(),
        particles: case.particles,
        threads: case.threads,
        turns,
        wall_s,
        particle_turns_per_sec: pt / wall_s,
        ns_per_particle_turn: 1e9 * wall_s / pt,
    }
}

fn measure_tracker_once(
    op: &OperatingPoint,
    ensembles: &[(usize, Ensemble)],
    case: &ReftrackCase,
) -> (u64, f64) {
    let ensemble = &ensembles
        .iter()
        .find(|(n, _)| *n == case.particles)
        .expect("ensemble pre-built for every matrix size")
        .1;
    let turns = (PARTICLE_TURNS_PER_CASE / case.particles as u64).max(1);
    let mut tr = MultiParticleTracker::new(
        *op,
        ensemble.clone(),
        TrackerConfig {
            threads: case.threads,
            min_chunk: if case.threads > 1 { 4096 } else { 1 << 30 },
            backend: case.backend,
        },
    );
    let t0 = Instant::now();
    for _ in 0..turns {
        tr.step(0.0);
    }
    std::hint::black_box(tr.ensemble.dt[0]);
    (turns, t0.elapsed().as_secs_f64())
}

fn measure_engine_once(s: &MdeScenario, case: &ReftrackCase) -> (u64, f64) {
    let mut engine =
        cil_core::engine::RefTrackEngine::from_scenario(s, case.particles, 0x5EED, 15e-9, 0.0)
            .expect("reftrack engine builds");
    engine.set_tracker_config(TrackerConfig {
        backend: case.backend,
        ..TrackerConfig::default()
    });
    let mut harness = LoopHarness::for_scenario(s, true);
    let t0 = Instant::now();
    let trace = harness.run(&mut engine, s.duration_s);
    let dt = t0.elapsed().as_secs_f64();
    assert!(
        trace.outcome.survived(),
        "{}: beam lost mid-bench",
        case.label
    );
    (trace.times.len() as u64, dt)
}

/// Run the full matrix. Measurement is interleaved: `runs` complete passes
/// over the whole case list, per-case best across passes — so a transient
/// slow window on a shared box (scheduler preemption, frequency dips)
/// degrades one pass of every case instead of every run of one case, and
/// the per-case best still comes from a clean pass. The first pass is
/// preceded by one untimed warmup run of the first case (pages in code,
/// settles the allocator).
pub fn run_reftrack_bench(engine_revolutions: u64, runs: usize) -> Vec<ReftrackBenchRow> {
    let op = bench_op();
    let ensembles: Vec<(usize, Ensemble)> = PARTICLE_SIZES
        .iter()
        .map(|&n| {
            (
                n,
                Ensemble::matched(&BunchSpec::gaussian(15e-9), n, &op, 7)
                    .expect("matched ensemble at the bench operating point"),
            )
        })
        .collect();
    let s = bench_scenario(engine_revolutions);
    let cases = standard_cases();
    let _ = measure_tracker_once(&op, &ensembles, &cases[0]);
    let mut best: Vec<(u64, f64)> = vec![(0, f64::INFINITY); cases.len()];
    for _ in 0..runs.max(1) {
        for (case, slot) in cases.iter().zip(best.iter_mut()) {
            let (turns, wall_s) = if case.engine {
                measure_engine_once(&s, case)
            } else {
                measure_tracker_once(&op, &ensembles, case)
            };
            slot.0 = turns;
            slot.1 = slot.1.min(wall_s);
        }
    }
    cases
        .iter()
        .zip(best)
        .map(|(c, (turns, wall_s))| row(c, turns, wall_s))
        .collect()
}

/// Throughput ratio between two measured cases (`num` over `den`).
pub fn speedup(rows: &[ReftrackBenchRow], num: &str, den: &str) -> f64 {
    let find = |label: &str| {
        rows.iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("no case {label}"))
            .particle_turns_per_sec
    };
    find(num) / find(den)
}

/// The two guard ratios: (best polynomial backend vs libm on the
/// kernel-dominated large sequential cases, `engine_auto` vs `engine_libm`
/// on the closed loop). The kernel ratio takes the best measured polynomial
/// row — `Auto` resolves to the widest backend, so its row and the explicit
/// widest-backend row measure the same code; using the max keeps one noisy
/// sample on a shared box from masking the kernel's real speedup.
pub fn guard_ratios(rows: &[ReftrackBenchRow]) -> (f64, f64) {
    let n = *PARTICLE_SIZES.last().unwrap();
    let suffix = format!("_n{n}");
    let libm = format!("libm{suffix}");
    let best_poly = rows
        .iter()
        .filter(|r| r.label.ends_with(&suffix) && r.label != libm && r.threads == 1)
        .map(|r| r.particle_turns_per_sec)
        .fold(0.0f64, f64::max);
    let libm_rate = rows
        .iter()
        .find(|r| r.label == libm)
        .unwrap_or_else(|| panic!("no case {libm}"))
        .particle_turns_per_sec;
    (
        best_poly / libm_rate,
        speedup(rows, "engine_auto", "engine_libm"),
    )
}

/// Write `results/BENCH_reftrack.json` (repo-root `results/`, independent of
/// the working directory); returns the path written.
pub fn write_bench_json(runs: usize, rows: &[ReftrackBenchRow]) -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    std::fs::create_dir_all(&dir).unwrap();
    let mut cases = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            cases.push(',');
        }
        write!(
            cases,
            "{{\"label\":\"{}\",\"particles\":{},\"threads\":{},\"turns\":{},\"wall_s\":{},\
             \"particle_turns_per_sec\":{},\"ns_per_particle_turn\":{}}}",
            r.label,
            r.particles,
            r.threads,
            r.turns,
            r.wall_s,
            r.particle_turns_per_sec,
            r.ns_per_particle_turn
        )
        .unwrap();
    }
    let (kernel_ratio, engine_ratio) = guard_ratios(rows);
    let path = dir.join("BENCH_reftrack.json");
    std::fs::write(
        &path,
        format!(
            "{{\"bench\":\"reftrack_kernel\",\"runs\":{runs},\
             \"cases\":[{cases}],\
             \"speedup_poly_vs_libm_large\":{kernel_ratio},\
             \"speedup_engine_auto_vs_libm\":{engine_ratio},\
             \"kernel_bound\":{KERNEL_BOUND},\"engine_bound\":{ENGINE_BOUND}}}\n"
        ),
    )
    .unwrap();
    path
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

    /// Tiny smoke run (debug build, so no timing claims): every case
    /// completes, ratios are finite and positive.
    #[test]
    fn all_cases_complete() {
        let rows = run_reftrack_bench(50, 1);
        assert_eq!(rows.len(), standard_cases().len());
        for r in &rows {
            assert!(r.particle_turns_per_sec > 0.0, "{}", r.label);
            assert!(r.ns_per_particle_turn > 0.0, "{}", r.label);
        }
        let (k, e) = guard_ratios(&rows);
        assert!(k.is_finite() && k > 0.0);
        assert!(e.is_finite() && e > 0.0);
    }
}
