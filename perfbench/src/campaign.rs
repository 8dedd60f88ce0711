//! `campaign`: a crash-safe `Campaign` over a seeded controller-stability
//! cube (gain × recursion × jump amplitude), Map fidelity, ~10⁴ revolutions
//! per point, one worker per core.
//!
//! Each repetition runs the whole cube into a fresh WAL directory. One
//! recursion value per cube row sits on the recursion ≥ 1.0 edge, which the
//! DSP layer rejects with a panic, so the retry and quarantine paths run in
//! every repetition; those quarantines are the campaign's correct output.
//! The campaign scheduler, the WAL commit, arena reuse, the Map engine and
//! `score_jump_response` do the work. No mux, no CGRA engine and no signal
//! chain is built.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cil_core::campaign::{
    Campaign, CampaignConfig, CampaignWorker, PointStatus, CAMPAIGN_LOG_NAME,
};
use cil_core::engine::EngineKind;
use cil_core::error::{CilError, Result as CilResult};
use cil_core::hil::TurnLevelLoop;
use cil_core::telemetry::TelemetryRegistry;
use cil_core::trace::score_jump_response;
use cil_core::MdeScenario;

use crate::host;
use crate::seed::Rng;
use crate::stats::{self, Chunked};
use crate::tracing::{Layer, Open, Tracer, NO_PARENT};
use crate::{rounds, timed_setup, write_spans, Config, Latency, Report};

/// Cube edge lengths: gains × recursions × amplitudes.
const GAINS: usize = 8;
const RECURSIONS: usize = 8;
const AMPLITUDES: usize = 8;

/// Points per WAL shard.
const SHARD_POINTS: usize = 32;

/// Seed stream of the cube jitter.
const CUBE_STREAM: u64 = 2;

/// The DSP layer's panic message for a recursion factor outside [0, 1).
const EDGE_PANIC: &str = "r must be in [0, 1)";

const COLUMNS: [&str; 3] = ["first_peak_ratio", "residual_ratio", "damping_time_s"];

/// The seeded cube. Each knob takes one value per grid cell, jittered
/// inside its cell; the last recursion cell is the ≥ 1.0 edge.
pub fn cube(seed: u64) -> Vec<MdeScenario> {
    let mut rng = Rng::new(seed, CUBE_STREAM);
    let cells = |rng: &mut Rng, n: usize, lo: f64, hi: f64| -> Vec<f64> {
        (0..n)
            .map(|k| lo + (hi - lo) * (k as f64 + rng.unit()) / n as f64)
            .collect()
    };
    let gains = cells(&mut rng, GAINS, -14.0, -1.0);
    let mut recursions = cells(&mut rng, RECURSIONS - 1, 0.90, 0.99);
    recursions.push(1.0 + 0.005 * rng.unit());
    let amplitudes = cells(&mut rng, AMPLITUDES, 2.0, 20.0);
    let mut points = Vec::with_capacity(GAINS * RECURSIONS * AMPLITUDES);
    for &gain in &gains {
        for &recursion in &recursions {
            for &amplitude in &amplitudes {
                let mut s = MdeScenario::nov24_2023();
                s.duration_s = 0.0125;
                s.bunches = 1;
                s.jumps.interval_s = 0.005;
                s.jumps.amplitude_deg = amplitude;
                s.controller.gain = gain;
                s.controller.recursion = recursion;
                points.push(s);
            }
        }
    }
    points
}

/// Closure-side accounting shared by the workers.
struct PointLog {
    /// Nanoseconds spent inside point closures (every attempt).
    closure_ns: AtomicU64,
    /// Latency of each completed point, microseconds (untraced reps).
    latency_us: Mutex<Vec<f64>>,
}

/// Times one point closure; records on drop, so a panicking attempt
/// counts too.
struct PointTimer<'a> {
    log: &'a PointLog,
    tracer: &'a Tracer,
    open: Open,
    t0: Instant,
    completed: bool,
    tag: u64,
}

impl Drop for PointTimer<'_> {
    fn drop(&mut self) {
        let ns = self.t0.elapsed().as_nanos() as u64;
        self.log.closure_ns.fetch_add(ns, Ordering::Relaxed);
        self.tracer
            .close(self.open, Layer::CampaignPoint, NO_PARENT, self.tag);
        if self.completed && !self.tracer.enabled() {
            if let Ok(mut v) = self.log.latency_us.lock() {
                v.push(ns as f64 * 1e-3);
            }
        }
    }
}

/// One point: lease a Map engine, close the loop, score the first jump.
fn evaluate(
    worker: &mut CampaignWorker,
    s: &MdeScenario,
    tracer: &Tracer,
    log: &PointLog,
) -> CilResult<Vec<f64>> {
    let open = tracer.open();
    let mut timer = PointTimer {
        log,
        tracer,
        open,
        t0: Instant::now(),
        completed: false,
        tag: s.digest(),
    };
    let parent = open.id;
    let engine = tracer.span(Layer::CampaignLease, parent, 0, || {
        worker.arena.engine(s, EngineKind::Map)
    })?;
    let result = tracer.span(Layer::CampaignLoop, parent, 0, || {
        TurnLevelLoop::new(s.clone(), EngineKind::Map)
            .with_telemetry(&worker.telemetry)
            .run_on(engine, true)
    })?;
    let &t_jump = result
        .jump_times
        .first()
        .ok_or_else(|| CilError::InvalidConfig("no jump in the point's trace".into()))?;
    let r = tracer.span(Layer::CampaignScore, parent, 0, || {
        score_jump_response(
            &result.phase_deg,
            t_jump,
            t_jump + s.jumps.interval_s - 2e-4,
            s.jumps.amplitude_deg,
        )
    });
    timer.completed = true;
    Ok(vec![
        r.first_peak_ratio,
        r.residual_ratio,
        r.damping_time_s.unwrap_or(f64::NAN),
    ])
}

/// One finished repetition.
struct Rep {
    wall_s: f64,
    closure_s: f64,
    completed: usize,
    traced: bool,
}

fn config(dir: &Path, workers: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(dir, &COLUMNS);
    cfg.shard_points = SHARD_POINTS;
    cfg.workers = workers;
    // The loop is deterministic: an edge point fails identically on every
    // attempt, so one retry proves the retry path.
    cfg.max_retries = 1;
    cfg
}

/// The `campaign` workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains(EDGE_PANIC) {
            hook(info);
        }
    }));
    let tmp = cfg
        .out_dir
        .join(format!("campaign-tmp-{}", std::process::id()));
    let result = run_in(cfg, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::panic::take_hook();
    result
}

fn run_in(cfg: &Config, tmp: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let workers = host::nproc();
    let mut built = 0u64;
    let (setup_s, points) = timed_setup(|| {
        let points = cube(cfg.seed);
        let dir = tmp.join("setup");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        Campaign::new(&points, config(&dir, workers)).map_err(|e| e.to_string())?;
        built += 1;
        Ok(points)
    })?;
    report.setup_s = setup_s;
    let edge: BTreeSet<usize> = points
        .iter()
        .enumerate()
        .filter(|(_, s)| s.controller.recursion >= 1.0)
        .map(|(i, _)| i)
        .collect();
    let revs_per_point = points[0].revolutions() as f64;

    let on = Tracer::new(true);
    let off = Tracer::new(false);
    let log = PointLog {
        closure_ns: AtomicU64::new(0),
        latency_us: Mutex::new(Vec::new()),
    };
    let root = TelemetryRegistry::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut reference_csv: Option<Vec<u8>> = None;
    let mut wal_bytes = None;
    let (mut quarantined, mut retries) = (0usize, 0u64);
    let mut latency = Chunked::default();
    rounds(cfg, |traced, r| {
        let tracer = if traced { &on } else { &off };
        let dir: PathBuf = tmp.join(format!("rep{r}"));
        let campaign = Campaign::new(&points, config(&dir, workers)).map_err(|e| e.to_string())?;
        built += 1;
        let closure_before = log.closure_ns.load(Ordering::Relaxed);
        let span = tracer.open();
        let t0 = Instant::now();
        let out = campaign
            .run_with_telemetry(&root, |w, s| evaluate(w, s, tracer, &log))
            .map_err(|e| format!("campaign repetition {r} failed: {e}"))?;
        let wall_s = t0.elapsed().as_secs_f64();
        tracer.close(span, Layer::CampaignRun, NO_PARENT, r);
        let closure_s = (log.closure_ns.load(Ordering::Relaxed) - closure_before) as f64 * 1e-9;

        report.attempted += points.len() as u64;
        let q: BTreeSet<usize> = out
            .outcomes
            .iter()
            .filter(|o| matches!(o.status, PointStatus::Quarantined(_)))
            .map(|o| o.index)
            .collect();
        report.failed += q.symmetric_difference(&edge).count() as u64;
        if out.completed + out.quarantined != points.len() {
            report.problem(format!(
                "repetition {r}: {} completed + {} quarantined != {} points",
                out.completed,
                out.quarantined,
                points.len()
            ));
        }
        if q != edge {
            report.problem(format!(
                "repetition {r}: quarantined {} points, expected exactly the {} recursion >= 1.0 points",
                q.len(),
                edge.len()
            ));
        }
        let csv = std::fs::read(&out.aggregate_csv).map_err(|e| e.to_string())?;
        match &reference_csv {
            None => reference_csv = Some(csv),
            Some(first) if *first != csv => report.problem(format!(
                "repetition {r}: aggregate.csv differs from repetition 0"
            )),
            Some(_) => {}
        }
        let wal = std::fs::metadata(dir.join(CAMPAIGN_LOG_NAME))
            .map_err(|e| e.to_string())?
            .len();
        if *wal_bytes.get_or_insert(wal) != wal {
            report.problem(format!(
                "repetition {r}: WAL is {wal} bytes, repetition 0 wrote {wal_bytes:?}"
            ));
        }
        latency.extend(std::mem::take(
            &mut *log.latency_us.lock().map_err(|_| "latency log poisoned")?,
        ));
        quarantined = out.quarantined;
        retries = out.retries;
        let _ = std::fs::remove_dir_all(&dir);
        reps.push(Rep {
            wall_s,
            closure_s,
            completed: out.completed,
            traced,
        });
        Ok(())
    })?;

    let rates = |traced: bool, per: &dyn Fn(&Rep) -> f64| -> Vec<f64> {
        reps.iter()
            .filter(|x| x.traced == traced)
            .map(per)
            .collect()
    };
    let revs_rates = rates(false, &|x| x.completed as f64 * revs_per_point / x.wall_s);
    let point_rates = rates(false, &|x| points.len() as f64 / x.wall_s);
    report.revs_per_s = stats::median(&revs_rates).unwrap_or(0.0);
    report.latency = Latency::from_chunks(
        latency,
        1.0,
        "point closure latency (completed points)",
        &mut report,
    );
    report.notes.push(format!(
        "campaign_points_per_s = {:.1} points/s (median of {} repetitions of {} points, {} quarantined each, \
         {workers} workers), {:.0} revolutions per point",
        stats::median(&point_rates).unwrap_or(0.0),
        point_rates.len(),
        points.len(),
        edge.len(),
        revs_per_point
    ));

    report.layer("campaign.built", built as f64);
    report.layer(
        "cgra.kernel_compiles",
        cil_cgra::cache::global().misses() as f64,
    );
    if cfg.trace {
        let snap = root.snapshot();
        let traced: Vec<&Rep> = reps.iter().filter(|x| x.traced).collect();
        let capacity: f64 = traced.iter().map(|x| x.wall_s * workers as f64).sum();
        let closure: f64 = traced.iter().map(|x| x.closure_s).sum();
        let mean_ms = |layer: Layer| {
            let (ns, n) = on.total(layer);
            ns as f64 * 1e-6 / n.max(1) as f64
        };
        report.layer("campaign.point_ms", mean_ms(Layer::CampaignPoint));
        report.layer("campaign.loop_ms", mean_ms(Layer::CampaignLoop));
        report.layer("campaign.lease_us", mean_ms(Layer::CampaignLease) * 1e3);
        report.layer("campaign.score_us", mean_ms(Layer::CampaignScore) * 1e3);
        report.layer(
            "campaign.overhead_frac",
            1.0 - closure / capacity.max(f64::MIN_POSITIVE),
        );
        report.layer("campaign.wal_bytes", wal_bytes.unwrap_or(0) as f64);
        report.layer("campaign.quarantined", quarantined as f64);
        report.layer("campaign.retries", retries as f64);
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let (hits, misses) = (
            counter("cil_arena_hits_total"),
            counter("cil_arena_misses_total"),
        );
        report.layer("arena.hit_rate", hits / (hits + misses).max(1.0));
        let layer_s = on.seconds(Layer::CampaignLease)
            + on.seconds(Layer::CampaignLoop)
            + on.seconds(Layer::CampaignScore);
        report.layer(
            "trace.coverage_frac",
            layer_s / capacity.max(f64::MIN_POSITIVE),
        );
        let traced_rates = rates(true, &|x| points.len() as f64 / x.wall_s);
        let overhead = match (stats::median(&point_rates), stats::median(&traced_rates)) {
            (Some(u), Some(t)) if t > 0.0 => u / t - 1.0,
            _ => 0.0,
        };
        report.layer("trace.overhead_frac", overhead);
        report.layer("trace.spans", on.spans_closed() as f64);
        write_spans(cfg, &on, &mut report, "campaign");
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_is_seeded_and_has_one_edge_row() {
        let a = cube(5);
        let b = cube(5);
        let c = cube(6);
        let key = |s: &MdeScenario| s.digest();
        assert_eq!(a.len(), GAINS * RECURSIONS * AMPLITUDES);
        assert!(a.iter().zip(&b).all(|(x, y)| key(x) == key(y)));
        assert!(a.iter().zip(&c).any(|(x, y)| key(x) != key(y)));
        let edge = a.iter().filter(|s| s.controller.recursion >= 1.0).count();
        assert_eq!(edge, GAINS * AMPLITUDES);
        assert!(a
            .iter()
            .all(|s| s.controller.recursion >= 1.0 || s.controller.recursion < 0.99));
    }
}
