//! Standing multi-session service benchmark (aggregate revolutions per
//! second and dispatch latency).
//!
//! Measures the [`SessionMux`] hosting a skewed fleet — every tenth
//! session runs the full benchmark length, the rest one tenth of it, so
//! the run queues see the hot/cold mix a real fleet produces — across a
//! sweep of worker counts, against the single-loop `map_batched` rate
//! from [`loop_bench`](crate::loop_bench) as the per-core baseline. The
//! `bench_service` binary and the release-only `service_guard` test both
//! measure through [`measure`](crate::measure) and write
//! `target/bench/BENCH_service.json`; the guard pins the 1k-session
//! aggregate at ≥ [`BASELINE_BOUND`]x the per-core baseline (and the 1→8
//! worker scaling at ≥ [`SCALING_BOUND`]x on machines with ≥8 cores) so
//! mux overhead cannot silently regress.

use std::path::PathBuf;

use crate::loop_bench::{bench_scenario, case, case_run};
use crate::measure::{oversubscribed, paired, samples, timed, write_bench, Json, Paired, Spread};
use cil_core::hil::EngineKind;
use cil_core::{MuxConfig, SessionMux, SessionSpec};

/// Guard bound: the 1-worker fleet aggregate over the single-loop
/// `map_batched` rate.
pub const BASELINE_BOUND: f64 = 0.5;

/// Guard bound: 8-worker over 1-worker aggregate, checked only where 8
/// workers do not outnumber the cores.
pub const SCALING_BOUND: f64 = 2.5;

/// Dispatch-latency histogram the mux exports (p99 is read from it).
pub const DISPATCH_HISTOGRAM: &str = "cil_mux_dispatch_latency_wall_seconds";

/// Fraction of the fleet that runs the full benchmark length; the rest
/// run [`COLD_FRACTION`] of it.
pub const HOT_EVERY: usize = 10;

/// Length of a cold session relative to a hot one.
pub const COLD_FRACTION: u64 = 10;

/// One measured worker count of the standing service benchmark.
#[derive(Debug, Clone)]
pub struct ServiceBenchRow {
    /// Mux worker threads.
    pub workers: usize,
    /// Sessions in the fleet.
    pub sessions: usize,
    /// Trace rows produced across the whole fleet.
    pub total_rows: u64,
    /// Aggregate fleet throughput, rows per second, over the samples.
    pub revs_per_sec: Spread,
    /// p99 queue→worker dispatch latency of the last fleet run, seconds.
    pub p99_dispatch_s: f64,
}

/// The standing service benchmark.
#[derive(Debug, Clone)]
pub struct ServiceBench {
    /// Rows of a hot session.
    pub hot_revolutions: u64,
    /// Trace rows of the single-loop baseline run.
    pub baseline_rows: u64,
    /// One row per worker count.
    pub rows: Vec<ServiceBenchRow>,
    /// The 1-worker fleet aggregate over the single-loop `map_batched`
    /// rate (`a` and `b` in seconds per run).
    pub vs_baseline: Paired,
    /// 8-worker over 1-worker aggregate; `None` when 8 workers would
    /// outnumber the cores or either count is not in the sweep.
    pub scaling: Option<Paired>,
}

/// The skewed fleet: session `i` runs `hot_revolutions` rows when
/// `i % HOT_EVERY == 0`, else `hot_revolutions / COLD_FRACTION`.
fn session_rows(i: usize, hot_revolutions: u64) -> u64 {
    if i.is_multiple_of(HOT_EVERY) {
        hot_revolutions
    } else {
        (hot_revolutions / COLD_FRACTION).max(1)
    }
}

/// Run one fleet on one (fresh) mux and measure it end to end. Sessions
/// are created and armed in one burst (the worst case for the run
/// queues), then joined in creation order. Returns the fleet's trace rows,
/// the seconds they took, and the p99 dispatch latency in seconds.
fn fleet_run(workers: usize, sessions: usize, hot_revolutions: u64) -> (u64, f64, f64) {
    let mux = SessionMux::new(MuxConfig {
        workers,
        ..MuxConfig::default()
    })
    .expect("mux config is valid");
    let (total_rows, secs) = timed(|| {
        let handles: Vec<_> = (0..sessions)
            .map(|i| {
                let s = bench_scenario(session_rows(i, hot_revolutions));
                let h = mux
                    .create(SessionSpec::new(s, EngineKind::Map))
                    .expect("session creates");
                h.run_to_end().expect("session arms");
                h
            })
            .collect();
        let mut total_rows = 0u64;
        for h in &handles {
            let trace = h.join().expect("session joins");
            assert!(trace.outcome.survived(), "beam lost mid-bench");
            total_rows += trace.times.len() as u64;
        }
        total_rows
    });
    let p99_dispatch_s = mux
        .telemetry()
        .snapshot()
        .histogram(DISPATCH_HISTOGRAM)
        .and_then(|h| h.quantile(0.99))
        .unwrap_or(0.0);
    (total_rows, secs, p99_dispatch_s)
}

/// Run the worker-count sweep (`samples_per_count` samples each, every
/// fleet run on a fresh mux) and the guard's paired ratios against the
/// single-loop `map_batched` rate over `baseline_revolutions`.
pub fn run_service_bench(
    worker_counts: &[usize],
    sessions: usize,
    hot_revolutions: u64,
    baseline_revolutions: u64,
    samples_per_count: usize,
) -> ServiceBench {
    let rows = worker_counts
        .iter()
        .map(|&workers| {
            let (total_rows, _, mut p99_dispatch_s) = fleet_run(workers, sessions, hot_revolutions);
            let revs_per_sec = samples(samples_per_count, total_rows as f64, || {
                let (_, secs, p99) = fleet_run(workers, sessions, hot_revolutions);
                p99_dispatch_s = p99;
                secs
            });
            ServiceBenchRow {
                workers,
                sessions,
                total_rows,
                revs_per_sec,
                p99_dispatch_s,
            }
        })
        .collect::<Vec<_>>();
    let baseline = bench_scenario(baseline_revolutions);
    let map = case("map_batched");
    let baseline_rows = case_run(&baseline, map).0;
    let fleet = |workers| move || fleet_run(workers, sessions, hot_revolutions).1;
    let mut vs_baseline = paired(fleet(1), || case_run(&baseline, map).1);
    // Seconds per run over seconds per run; the two runs differ in rows.
    let rows_ratio = rows[0].total_rows as f64 / baseline_rows as f64;
    vs_baseline.ratio = vs_baseline.ratio.scaled(rows_ratio);
    let scaling = [1, 8].iter().all(|w| worker_counts.contains(w)) && !oversubscribed(8);
    ServiceBench {
        hot_revolutions,
        baseline_rows,
        rows,
        vs_baseline,
        scaling: scaling.then(|| paired(fleet(8), fleet(1))),
    }
}

impl ServiceBench {
    /// The single-loop `map_batched` rate, rows per second, at the median.
    pub fn baseline_revs_per_sec(&self) -> f64 {
        self.baseline_rows as f64 / self.vs_baseline.b.median
    }

    /// Write `target/bench/BENCH_service.json`; returns the path written.
    pub fn write(&self) -> PathBuf {
        let cases = self
            .rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("workers", r.workers.into()),
                    ("oversubscribed", oversubscribed(r.workers).into()),
                    ("sessions", r.sessions.into()),
                    ("total_rows", r.total_rows.into()),
                    ("revs_per_sec", r.revs_per_sec.json()),
                    ("p99_dispatch_s", r.p99_dispatch_s.into()),
                ])
            })
            .collect::<Vec<_>>();
        write_bench(
            "service",
            vec![
                ("hot_revolutions", self.hot_revolutions.into()),
                ("hot_every", HOT_EVERY.into()),
                ("cold_fraction", COLD_FRACTION.into()),
                ("baseline_rows", self.baseline_rows.into()),
                ("baseline_revs_per_sec", self.baseline_revs_per_sec().into()),
                ("cases", cases.into()),
                ("fleet_w1_vs_map_batched", self.vs_baseline.json()),
                ("bound_vs_baseline", BASELINE_BOUND.into()),
                ("bound_scaling", SCALING_BOUND.into()),
                (
                    "scaling_w8_vs_w1",
                    self.scaling.map_or_else(Json::null, |p| p.json()),
                ),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_is_ninety_ten() {
        let rows: Vec<u64> = (0..100).map(|i| session_rows(i, 1000)).collect();
        assert_eq!(rows.iter().filter(|&&r| r == 1000).count(), 10);
        assert_eq!(rows.iter().filter(|&&r| r == 100).count(), 90);
    }

    /// Tiny smoke fleet (no timing claims): the mux hosts
    /// a skewed mix end to end and the dispatch histogram fills.
    #[test]
    fn smoke_fleet_completes_and_measures() {
        let (rows, secs, p99_dispatch_s) = fleet_run(2, 20, 400);
        // 2 hot sessions x ~400 rows + 18 cold x ~40 rows (the harness may
        // land a row either side of the scheduled end).
        let expected = 2 * 400 + 18 * 40;
        assert!(
            (rows as i64 - expected).abs() <= 20,
            "total rows {rows} far from expected {expected}"
        );
        assert!(secs > 0.0);
        assert!(p99_dispatch_s > 0.0, "dispatch histogram must fill");
    }
}
