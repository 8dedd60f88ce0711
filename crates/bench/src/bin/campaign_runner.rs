//! Controller-stability phase diagram via the crash-safe campaign runner —
//! the headline experiment the paper couldn't run in hardware.
//!
//! The MDE validated one controller setting (gain −5, recursion 0.99,
//! 8° jumps) in a few hours of beam time. With the loop fully simulated,
//! the same closed loop can be swept across the whole
//! gain × recursion × jump-amplitude cube — ~10⁵ scenario points — and the
//! campaign layer makes that a single resumable run: shards commit to
//! `campaign.log` as they finish, a kill resumes at the last committed
//! shard, and any point whose controller drives the engine into a panic or
//! error is quarantined instead of sinking the sweep.
//!
//! Outputs:
//! * `results/phase_diagram.csv` — one row per point: the swept knobs plus
//!   first-peak ratio, residual ratio and damping time (empty cells for
//!   quarantined points). Plot with `scripts/plot_phase_diagram.py`.
//! * `target/bench/BENCH_campaign.json` — points/s at several worker
//!   counts on a subset (median and quartiles over samples, rows with more
//!   workers than cores marked oversubscribed), the full campaign's
//!   throughput, and the resume overhead (re-running a completed campaign:
//!   WAL scan + CSV rewrite, no simulation). `scripts/bench.sh` copies it
//!   into `results/`.
//!
//! `--quick` shrinks the cube to a few hundred points (CI smoke); the full
//! diagram is the default. `--dir <path>` relocates the campaign
//! directory (default `target/campaign_runner`).

use cil_bench::measure::{oversubscribed, samples, timed, write_bench, Json};
use cil_bench::{arg_flag, arg_value, write_csv};
use cil_core::campaign::{Campaign, CampaignConfig, CampaignWorker, PointStatus};
use cil_core::error::Result as CilResult;
use cil_core::hil::{EngineKind, TurnLevelLoop};
use cil_core::scenario::MdeScenario;
use cil_core::telemetry::TelemetryRegistry;
use cil_core::trace::score_jump_response;
use std::fmt::Write as _;
use std::path::PathBuf;

/// One closed-loop evaluation: turn-level Map-fidelity loop, one phase
/// jump, scored over the window up to the next jump edge.
fn evaluate(worker: &mut CampaignWorker, s: &MdeScenario) -> CilResult<Vec<f64>> {
    let engine = worker.arena.engine(s, EngineKind::Map)?;
    let result = TurnLevelLoop::new(s.clone(), EngineKind::Map)
        .with_telemetry(&worker.telemetry)
        .run_on(engine, true)?;
    let t_jump = result.jump_times[0];
    let r = score_jump_response(
        &result.phase_deg,
        t_jump,
        t_jump + s.jumps.interval_s - 2e-4,
        s.jumps.amplitude_deg,
    );
    Ok(vec![
        r.first_peak_ratio,
        r.residual_ratio,
        r.damping_time_s.unwrap_or(f64::NAN),
    ])
}

/// The swept cube. Scenario trimmed so one point is ~10⁴ revolutions:
/// jump at 5 ms, scored to the next jump edge at 10 ms (~6.4 synchrotron
/// periods at f_s = 1.28 kHz — enough to classify damped vs ringing vs
/// diverging).
fn grid(quick: bool) -> Vec<MdeScenario> {
    let (gains, recursions, amplitudes): (Vec<f64>, Vec<f64>, Vec<f64>) = if quick {
        (lin(-12.0, 4.0, 8), lin(0.90, 1.0, 4), lin(2.0, 20.0, 4))
    } else {
        (
            lin(-14.0, 6.0, 47),
            lin(0.90, 1.005, 43),
            lin(1.0, 25.0, 50),
        )
    };
    let mut points = Vec::with_capacity(gains.len() * recursions.len() * amplitudes.len());
    for &gain in &gains {
        for &recursion in &recursions {
            for &e_deg in &amplitudes {
                let mut s = MdeScenario::nov24_2023();
                s.duration_s = 0.0125;
                s.bunches = 1;
                s.jumps.interval_s = 0.005;
                s.jumps.amplitude_deg = e_deg;
                s.controller.gain = gain;
                s.controller.recursion = recursion;
                points.push(s);
            }
        }
    }
    points
}

fn lin(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1).max(1) as f64)
        .collect()
}

fn config(dir: PathBuf, workers: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(
        dir,
        &["first_peak_ratio", "residual_ratio", "damping_time_s"],
    );
    cfg.shard_points = 512;
    cfg.workers = workers;
    // The loop is deterministic: a failing point fails identically on
    // every retry, so one retry (which proves the retry path) is plenty.
    cfg.max_retries = 1;
    cfg
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = arg_flag(&args, "--quick");
    let base_dir =
        PathBuf::from(arg_value(&args, "--dir").unwrap_or_else(|| "target/campaign_runner".into()));
    let nproc = std::thread::available_parallelism().map_or(1, |v| v.get());

    println!("Campaign runner — controller-stability phase diagram");
    // The recursion ≥ 1.0 boundary of the cube is rejected by the DSP
    // layer with a panic; the campaign quarantines those points, which is
    // the point — but the default panic hook would print thousands of
    // backtraces while it does, so quiet it for the run.
    std::panic::set_hook(Box::new(|_| {}));
    let points = grid(quick);
    println!(
        "grid: {} points (gain x recursion x jump amplitude), {} workers max\n",
        points.len(),
        nproc
    );

    // ---- worker-scaling subset -------------------------------------------
    let subset_n = if quick { 64 } else { 1024 };
    let subset = &points[..subset_n.min(points.len())];
    let mut worker_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&w| w <= 2 * nproc)
        .collect();
    if !worker_counts.contains(&nproc) {
        worker_counts.push(nproc);
    }
    let mut scaling = Vec::new();
    for &workers in &worker_counts {
        let dir = base_dir.join(format!("scaling_w{workers}"));
        let points_per_sec = samples(3, subset.len() as f64, || {
            let _ = std::fs::remove_dir_all(&dir);
            let campaign =
                Campaign::new(subset, config(dir.clone(), workers)).expect("config is valid");
            let (report, secs) = timed(|| campaign.run(evaluate).expect("subset campaign runs"));
            assert_eq!(report.completed + report.quarantined, subset.len());
            secs
        });
        println!(
            "  workers={workers:<2} subset={:<5} {points_per_sec} points/s{}",
            subset.len(),
            if oversubscribed(workers) {
                "  (oversubscribed)"
            } else {
                ""
            }
        );
        scaling.push(Json::obj(vec![
            ("workers", workers.into()),
            ("oversubscribed", oversubscribed(workers).into()),
            ("points", subset.len().into()),
            ("points_per_sec", points_per_sec.json()),
        ]));
    }

    // ---- the full (or quick) phase diagram -------------------------------
    let dir = base_dir.join(if quick { "diagram_quick" } else { "diagram" });
    let root = TelemetryRegistry::new();
    let campaign = Campaign::new(&points, config(dir.clone(), nproc)).expect("config is valid");
    let (report, fresh_wall) = timed(|| {
        campaign
            .run_with_telemetry(&root, evaluate)
            .expect("phase-diagram campaign runs")
    });
    println!(
        "\nphase diagram: {} completed, {} quarantined, {} retries, {} shards ({} resumed) in {:.1}s ({:.1} points/s)",
        report.completed,
        report.quarantined,
        report.retries,
        report.shards_total,
        report.shards_resumed,
        fresh_wall,
        points.len() as f64 / fresh_wall
    );

    // ---- resume overhead: re-run the finished campaign --------------------
    let campaign2 = Campaign::new(&points, config(dir, nproc)).expect("config is valid");
    let (resumed, resume_wall) = timed(|| campaign2.run(evaluate).expect("resume runs"));
    assert_eq!(resumed.shards_resumed, report.shards_total);
    println!(
        "resume of completed campaign: {resume_wall:.3}s (WAL scan + CSV rewrite, no simulation)"
    );

    // ---- results/phase_diagram.csv ---------------------------------------
    let mut csv = String::from(
        "gain,recursion,jump_amplitude_deg,first_peak_ratio,residual_ratio,damping_time_s\n",
    );
    for (s, o) in points.iter().zip(&report.outcomes) {
        let _ = write!(
            csv,
            "{},{},{}",
            s.controller.gain, s.controller.recursion, s.jumps.amplitude_deg
        );
        match &o.status {
            PointStatus::Completed(v) => {
                for x in v {
                    if x.is_nan() {
                        csv.push(',');
                    } else {
                        let _ = write!(csv, ",{x}");
                    }
                }
            }
            PointStatus::Quarantined(_) => csv.push_str(",,,"),
        }
        csv.push('\n');
    }
    let csv_path = write_csv("phase_diagram.csv", &csv);
    println!("wrote {}", csv_path.display());

    // ---- target/bench/BENCH_campaign.json ---------------------------------
    // The full diagram and its resume each run once: they are single
    // timings, not samples.
    let snap = root.snapshot();
    let path = write_bench(
        "campaign",
        vec![
            ("quick", quick.into()),
            ("points", points.len().into()),
            ("shards", report.shards_total.into()),
            ("completed", report.completed.into()),
            ("quarantined", report.quarantined.into()),
            ("retries", report.retries.into()),
            ("fresh_wall_s", fresh_wall.into()),
            ("points_per_sec", (points.len() as f64 / fresh_wall).into()),
            ("resume_wall_s", resume_wall.into()),
            ("resume_overhead_frac", (resume_wall / fresh_wall).into()),
            (
                "arena_hits",
                snap.counter("cil_arena_hits_total").unwrap_or(0).into(),
            ),
            (
                "arena_misses",
                snap.counter("cil_arena_misses_total").unwrap_or(0).into(),
            ),
            ("scaling", scaling.into()),
        ],
    );
    println!("wrote {}", path.display());
}
