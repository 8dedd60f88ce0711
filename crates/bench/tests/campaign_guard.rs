//! Release-only overhead guard for the campaign runner.
//!
//! The campaign layer's durability (WAL shard commits, per-point
//! `catch_unwind`, retry bookkeeping) must stay cheap next to the
//! simulation it wraps: the same point list run through a `Campaign` must
//! take no more than 1.15x the wall time of a raw `parallel_sweep` over
//! identical work. Meaningless at
//! opt-level 0, so ignored in debug builds and run via `--include-ignored`
//! in release (tier1/CI) — the same pattern as the loop and checkpoint
//! guards. Interleaves best-of-3 passes of both variants so ambient load
//! hits both sides alike.

use cil_core::campaign::{Campaign, CampaignConfig};
use cil_core::hil::{EngineKind, TurnLevelLoop};
use cil_core::scenario::MdeScenario;
use cil_core::sweep::{parallel_sweep, EngineArena};
use std::path::PathBuf;
use std::time::Instant;

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

    let raw =
        |pts: &[MdeScenario]| parallel_sweep(pts, threads, EngineArena::new, run_point, |_| {});
    let campaign = |pts: &[MdeScenario]| {
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = CampaignConfig::new(&dir, &["sum_abs_phase"]);
        cfg.shard_points = 32;
        cfg.workers = threads;
        Campaign::new(pts, cfg)
            .expect("config is valid")
            .run(|w, s| Ok(vec![run_point(&mut w.arena, s)]))
            .expect("campaign runs")
    };

    // Warmup both paths, then interleave best-of-3.
    let _ = raw(&points[..8]);
    let _ = campaign(&points[..8]);
    let mut best_raw = f64::INFINITY;
    let mut best_campaign = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let out = raw(&points);
        best_raw = best_raw.min(t.elapsed().as_secs_f64());
        assert_eq!(out.len(), points.len());

        let t = Instant::now();
        let report = campaign(&points);
        best_campaign = best_campaign.min(t.elapsed().as_secs_f64());
        assert_eq!(report.completed, points.len());
        assert_eq!(report.quarantined, 0);
    }

    let overhead = best_campaign / best_raw;
    assert!(
        overhead <= 1.15,
        "campaign {best_campaign:.3}s vs raw sweep {best_raw:.3}s — overhead {overhead:.3}x \
         exceeds the 1.15x bound"
    );
}
