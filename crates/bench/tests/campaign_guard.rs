//! Release-only overhead guard for the campaign runner.
//!
//! The campaign layer's durability (WAL shard commits, per-point
//! `catch_unwind`, retry bookkeeping) must stay cheap next to the
//! simulation it wraps: the same point list run through a `Campaign` must
//! take no more than 1.15x the wall time of a raw `parallel_sweep` over
//! identical work. Meaningless at
//! opt-level 0, so ignored in debug builds and run via `--include-ignored`
//! in release, like every guard in this directory. The ratio is the median
//! of `cil_bench::measure`'s alternating sample pairs, so ambient load
//! hits both sides alike. Writes `target/bench/BENCH_campaign_guard.json`.

use cil_bench::measure::{paired, timed, write_bench};
use cil_core::campaign::{Campaign, CampaignConfig};
use cil_core::hil::{EngineKind, TurnLevelLoop};
use cil_core::scenario::MdeScenario;
use cil_core::sweep::{parallel_sweep, EngineArena};
use std::path::PathBuf;

fn points() -> Vec<MdeScenario> {
    (0..256)
        .map(|i| {
            let mut s = MdeScenario::nov24_2023();
            s.duration_s = 0.002;
            s.bunches = 1;
            s.jumps.interval_s = 0.0008;
            s.controller.gain = -1.0 - 0.05 * f64::from(i);
            s
        })
        .collect()
}

fn run_point(arena: &mut EngineArena, s: &MdeScenario) -> f64 {
    let engine = arena.engine(s, EngineKind::Map).expect("engine builds");
    let r = TurnLevelLoop::new(s.clone(), EngineKind::Map)
        .run_on(engine, true)
        .expect("loop runs");
    r.phase_deg.values.iter().map(|v| v.abs()).sum()
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn campaign_overhead_within_bound_of_raw_sweep() {
    let points = points();
    let threads = std::thread::available_parallelism().map_or(1, |v| v.get());
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/campaign-guard");

    let raw = || {
        let (out, secs) =
            timed(|| parallel_sweep(&points, threads, EngineArena::new, run_point, |_| {}));
        assert_eq!(out.len(), points.len());
        secs
    };
    let campaign = || {
        timed(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let mut cfg = CampaignConfig::new(&dir, &["sum_abs_phase"]);
            cfg.shard_points = 32;
            cfg.workers = threads;
            let report = Campaign::new(&points, cfg)
                .expect("config is valid")
                .run(|w, s| Ok(vec![run_point(&mut w.arena, s)]))
                .expect("campaign runs");
            assert_eq!(report.completed, points.len());
            assert_eq!(report.quarantined, 0);
        })
        .1
    };

    let p = paired(raw, campaign);
    write_bench(
        "campaign_guard",
        vec![
            ("points", points.len().into()),
            ("raw_vs_campaign", p.json()),
            ("bound", 1.15.into()),
        ],
    );
    // The ratio is campaign seconds over raw-sweep seconds.
    let overhead = p.ratio;
    assert!(
        overhead.median <= 1.15,
        "campaign overhead {overhead}x over the raw sweep exceeds the 1.15x bound"
    );
}
