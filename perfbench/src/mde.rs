//! The paper's experiment run as single closed loops, one engine per
//! workload:
//!
//! * `mde_loop` — the cavity in the loop itself: the Nov-24 MDE scenario
//!   (8° jumps every 50 ms, controller at gain −5 / recursion 0.99) on the
//!   CGRA-fidelity engine, telemetry on. Two passes alternate sub-run by
//!   sub-run: a batched pass (throughput) and a real-time pass that steps
//!   one revolution per block and timestamps every revolution through a
//!   cadence-1 observer (per-revolution latency against the 1 250 ns
//!   revolution period).
//! * `mde_signal` — the Fig. 4 signal-level bench: every 250 MHz sample
//!   through the converter, detector and CGRA chain.
//! * `mde_reftrack` — the 32 768-particle reference tracker at its default
//!   configuration (one intra-step thread per core).
//!
//! Every sub-run is a fresh engine on the same scenario, so every sub-run's
//! trace must be bit-identical. Sub-runs rotate over the cores in pairs;
//! the reported rate and latency quantiles are the mean over cores of each
//! core's median, which absorbs host drift within a run and a slow core.
//! No mux, no campaign and no checkpoint is built here.

use std::time::Instant;

use cil_core::control::BeamPhaseController;
use cil_core::engine::{BeamEngine, CgraEngine, EngineKind, RefTrackEngine, SignalLevelEngine};
use cil_core::fault::{LoopEvent, LoopSupervisor};
use cil_core::harness::{LoopHarness, LoopTrace};
use cil_core::hil::{SignalLevelLoop, TurnLevelLoop};
use cil_core::telemetry::TelemetryRegistry;
use cil_core::trace::TimeSeries;
use cil_core::MdeScenario;

use cil_reftrack::TrackerConfig;

use crate::check::{first_peak_problem, first_peak_ratio, resample, trace_difference};
use crate::host::CpuRotation;
use crate::probe::TimedEngine;
use crate::seed::Rng;
use crate::stats::{self, Chunked};
use crate::tracing::{Layer, Tracer, NO_PARENT};
use crate::{rounds, timed_setup, write_spans, Config, Latency, Report};

/// Macro particles of the RefTrack workload: a realistic ensemble, eight
/// chunks of the tracker's 4 096-particle `min_chunk`.
pub const REFTRACK_PARTICLES: usize = 32_768;

/// Seed stream of the RefTrack ensemble.
const ENSEMBLE_STREAM: u64 = 4;

/// `mde_loop`: the paper's scenario, one bunch (the 100-tick kernel the
/// paper's 93-tick schedule corresponds to), two jump periods.
pub fn cgra_scenario() -> MdeScenario {
    let mut s = MdeScenario::nov24_2023();
    s.bunches = 1;
    s.duration_s = 0.1;
    s
}

/// `mde_signal`: the full four-bunch chain, jumps every 5 ms so each
/// 10 ms sub-run scores one jump.
pub fn signal_scenario() -> MdeScenario {
    let mut s = MdeScenario::nov24_2023();
    s.jumps.interval_s = 0.005;
    s.duration_s = 0.01;
    s
}

/// `mde_reftrack`: one bunch, jumps every 1.25 ms, 2 000 revolutions.
pub fn reftrack_scenario() -> MdeScenario {
    let mut s = MdeScenario::nov24_2023();
    s.bunches = 1;
    s.jumps.interval_s = 0.00125;
    s.duration_s = 0.0025;
    s
}

/// One closed-loop sub-run on a timed engine.
struct SubRun {
    trace: LoopTrace,
    /// Wall time of the harness run alone, seconds.
    run_s: f64,
    /// Revolutions simulated.
    revs: f64,
}

/// Build an engine, wrap it, close the loop around it. With `stamps` the
/// run goes through a cadence-1 observer that timestamps every row.
fn sub_run<E: BeamEngine>(
    tracer: &Tracer,
    (run_layer, step_layer): (Layer, Layer),
    tag: u64,
    engine: E,
    mut harness: LoopHarness,
    s: &MdeScenario,
    stamps: Option<&mut Vec<Instant>>,
) -> SubRun {
    let span = tracer.open();
    let mut engine = TimedEngine::new(engine, tracer, step_layer);
    engine.parent = span.id;
    let t0 = Instant::now();
    let trace = match stamps {
        Some(stamps) => {
            stamps.clear();
            harness.run_with(&mut engine, s.duration_s, |_| stamps.push(Instant::now()))
        }
        None => harness.run(&mut engine, s.duration_s),
    };
    let run_s = t0.elapsed().as_secs_f64();
    let revs = (engine.time() * s.f_rev).round();
    tracer.close(span, run_layer, NO_PARENT, tag);
    SubRun { trace, run_s, revs }
}

/// Per-pass accounting across sub-runs, kept per core slot (see
/// [`pin_round`]): each reported figure is the mean over cores of that
/// core's median, so every core weighs the same.
#[derive(Default)]
struct Pass {
    /// Per core slot: revolutions per second of each untraced sub-run.
    rates: Vec<Vec<f64>>,
    /// Revolutions per second of each traced sub-run.
    traced_rates: Vec<f64>,
    /// Per core slot: per-revolution latency of the untraced observed
    /// sub-runs, nanoseconds.
    latency: Vec<Chunked>,
    /// Traced totals.
    traced_revs: f64,
    traced_run_s: f64,
    /// Sub-runs run and how many failed.
    runs: u64,
    failed: u64,
}

impl Pass {
    /// Account one sub-run run on core slot `slot`. `stamps` are its per-row
    /// timestamps, `rows_per_rev` measured rows per revolution (the
    /// signal-level chain measures every bunch passage), so latency samples
    /// are always whole revolutions.
    fn record(
        &mut self,
        slot: usize,
        traced: bool,
        r: &SubRun,
        stamps: Option<&[Instant]>,
        rows_per_rev: usize,
    ) {
        self.runs += 1;
        if !r.trace.survived()
            || r.trace
                .events
                .iter()
                .any(|e| matches!(e, LoopEvent::EngineDemoted { .. }))
        {
            self.failed += 1;
        }
        let rate = r.revs / r.run_s;
        if traced {
            self.traced_rates.push(rate);
            self.traced_revs += r.revs;
            self.traced_run_s += r.run_s;
            return;
        }
        if self.rates.len() <= slot {
            self.rates.resize_with(slot + 1, Vec::new);
            self.latency.resize_with(slot + 1, Chunked::default);
        }
        self.rates[slot].push(rate);
        if let Some(stamps) = stamps {
            self.latency[slot].extend(
                stamps
                    .iter()
                    .step_by(rows_per_rev)
                    .zip(stamps.iter().skip(rows_per_rev).step_by(rows_per_rev))
                    .map(|(a, b)| b.duration_since(*a).as_nanos() as f64),
            );
        }
    }

    /// Mean over cores of each core's median rate.
    fn rate(&self) -> f64 {
        let per_core: Vec<f64> = self.rates.iter().filter_map(|r| stats::median(r)).collect();
        stats::mean(&per_core).unwrap_or(0.0)
    }

    /// Per-core rate medians and quartiles (human-readable).
    fn rate_detail(&self) -> String {
        let per_core: Vec<String> = self
            .rates
            .iter()
            .enumerate()
            .map(|(slot, r)| {
                let mut v = r.clone();
                stats::sort(&mut v);
                let q = |x| stats::quantile_sorted(&v, x).unwrap_or(0.0);
                format!(
                    "core slot {slot}: {:.1} ({:.1}..{:.1}, {} sub-runs)",
                    q(0.5),
                    q(0.25),
                    q(0.75),
                    v.len()
                )
            })
            .collect();
        per_core.join(", ")
    }

    /// Per-revolution latency quantiles, microseconds: the mean over cores
    /// of each core's chunked quantiles.
    fn latency(&mut self, what: &str, report: &mut Report) -> Latency {
        let (mut p50, mut p99, mut detail) = (Vec::new(), Vec::new(), Vec::new());
        for (slot, chunks) in std::mem::take(&mut self.latency).into_iter().enumerate() {
            if let Some((a, b, d)) = chunks.finish(1e-3, "us") {
                p50.push(a);
                p99.push(b);
                detail.push(format!("core slot {slot}: {d}"));
            }
        }
        match (stats::mean(&p50), stats::mean(&p99)) {
            (Some(p50_us), Some(p99_us)) => Latency {
                p50_us,
                p99_us,
                detail: format!(
                    "{what}: mean over {} core slots of each slot's values; {}",
                    p50.len(),
                    detail.join("; ")
                ),
            },
            _ => {
                report.problem(format!("{what}: fewer than 100 samples"));
                Latency::default()
            }
        }
    }

    /// Tracing overhead: untraced over traced median rate, minus one.
    fn overhead(&self) -> f64 {
        match (
            stats::median(&self.rates.concat()),
            stats::median(&self.traced_rates),
        ) {
            (Some(u), Some(t)) if t > 0.0 => u / t - 1.0,
            _ => 0.0,
        }
    }

    /// Engine and harness self time per revolution over traced sub-runs,
    /// nanoseconds.
    fn split(&self, tracer: &Tracer, step: Layer) -> (f64, f64) {
        if self.traced_revs <= 0.0 {
            return (0.0, 0.0);
        }
        let step_ns = tracer.total(step).0 as f64;
        (
            step_ns / self.traced_revs,
            (self.traced_run_s * 1e9 - step_ns) / self.traced_revs,
        )
    }
}

/// Compare `trace` with the reference trace of this workload (the first
/// sub-run's), noting the first few differences.
fn check_against(
    reference: &mut Option<LoopTrace>,
    trace: &LoopTrace,
    what: &str,
    i: u64,
    report: &mut Report,
) {
    match reference {
        None => *reference = Some(trace.clone()),
        Some(r) => {
            if let Some(diff) = trace_difference(r, trace) {
                if report.problems.len() < 8 {
                    report.problem(format!(
                        "{what} sub-run {i}: {diff} differ from the first sub-run's trace"
                    ));
                }
            }
        }
    }
}

/// Pin the loop thread for round `i` and return its core slot. Pairs of
/// rounds share a core, so a traced round runs where its untraced twin ran.
fn pin_round(rotation: Option<&CpuRotation>, i: u64) -> usize {
    match rotation {
        Some(r) => {
            let slot = (i / 2) as usize % r.len();
            r.pin(slot);
            slot
        }
        None => 0,
    }
}

fn per_rev_phase(trace: &LoopTrace, s: &MdeScenario) -> TimeSeries {
    TimeSeries::new(0.0, 1.0 / s.f_rev, trace.mean_phase_deg.clone())
}

/// The `mde_loop` workload.
pub fn run_cgra(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let (setup_s, (s, registry, ticks)) = timed_setup(|| {
        // Clearing the kernel cache makes every repetition pay the compile
        // a fresh process pays.
        cil_cgra::cache::global().clear();
        let s = cgra_scenario();
        let engine = CgraEngine::from_scenario(&s, 1, &[]).map_err(|e| e.to_string())?;
        let registry = TelemetryRegistry::new();
        let _harness = LoopHarness::for_scenario(&s, true).with_telemetry(&registry);
        let ticks = engine.compiled().schedule.makespan;
        Ok((s, registry, ticks))
    })?;
    report.setup_s = setup_s;

    let on = Tracer::new(true);
    let off = Tracer::new(false);
    let (mut batched, mut realtime) = (Pass::default(), Pass::default());
    let mut reference: Option<LoopTrace> = None;
    let mut stamps = Vec::with_capacity(s.revolutions() + 16);
    let rotation = CpuRotation::new();
    rounds(cfg, |traced, i| {
        let tracer = if traced { &on } else { &off };
        let slot = pin_round(rotation.as_ref(), i);
        let engine = || {
            CgraEngine::from_scenario(&s, 1, &[])
                .map_err(|e| format!("CGRA engine build failed: {e}"))
        };
        let (e1, e2) = (engine()?, engine()?);
        let harness = LoopHarness::for_scenario(&s, true).with_telemetry(&registry);
        let r = sub_run(
            tracer,
            (Layer::CgraRun, Layer::CgraStep),
            i,
            e1,
            harness,
            &s,
            None,
        );
        batched.record(slot, traced, &r, None, 1);
        check_against(&mut reference, &r.trace, "batched", i, &mut report);

        let harness = LoopHarness::for_scenario(&s, true)
            .with_telemetry(&registry)
            .with_block_rows(1)
            .expect("one row per block is a valid block size");
        let r = sub_run(
            tracer,
            (Layer::RealtimeRun, Layer::RealtimeStep),
            i,
            e2,
            harness,
            &s,
            Some(&mut stamps),
        );
        realtime.record(slot, traced, &r, Some(&stamps), 1);
        check_against(&mut reference, &r.trace, "real-time", i, &mut report);
        Ok(())
    })?;
    let reference = reference.ok_or("no sub-run completed")?;

    // The supervised executive on the same scenario: on a clean loop the
    // supervisor must neither demote nor alter a single row.
    let mut supervisor = LoopSupervisor::for_scenario(&s);
    match TurnLevelLoop::new(s.clone(), EngineKind::Cgra)
        .with_telemetry(&registry)
        .run_supervised(true, &mut supervisor)
    {
        Ok(sup) => {
            let same = sup.phase_deg.values.len() == reference.mean_phase_deg.len()
                && sup
                    .phase_deg
                    .values
                    .iter()
                    .zip(&reference.mean_phase_deg)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !sup.outcome.survived() || !same {
                report.problem("supervised CGRA run differs from the unsupervised batched trace");
            }
        }
        Err(e) => report.problem(format!("supervised CGRA run failed: {e}")),
    }
    if let Some(p) = first_peak_problem(
        "mde_loop",
        first_peak_ratio(&per_rev_phase(&reference, &s), &reference.jump_times, &s),
    ) {
        report.problem(p);
    }

    report.attempted = batched.runs + realtime.runs;
    report.failed = batched.failed + realtime.failed;
    report.revs_per_s = batched.rate();
    let latency = realtime.latency(
        "per-revolution host latency, real-time CGRA pass",
        &mut report,
    );
    report.latency = latency;
    let period_ns = 1e9 / s.f_rev;
    report.notes.push(format!(
        "cgra_revs_per_s = {:.1} rev/s (mean over cores of per-core medians: {}; batched sub-runs of {} revolutions)",
        batched.rate(),
        batched.rate_detail(),
        s.revolutions()
    ));
    report.notes.push(format!(
        "rev_latency_p50_ns = {:.1} ns, rev_latency_p99_ns = {:.1} ns (host time; deadline = revolution period {period_ns:.0} ns)",
        report.latency.p50_us * 1e3,
        report.latency.p99_us * 1e3
    ));
    report.notes.push(format!(
        "cgra_schedule_ticks = {ticks} (simulated CGRA ticks per revolution; paper: 93)"
    ));

    report.layer("cgra.schedule_ticks", f64::from(ticks));
    report.layer(
        "cgra.kernel_compiles",
        cil_cgra::cache::global().misses() as f64,
    );
    if cfg.trace {
        let (step, harness) = batched.split(&on, Layer::CgraStep);
        report.layer("cgra.step_ns_per_rev", step);
        report.layer("cgra.harness_ns_per_rev", harness);
        let blocks = on.total(Layer::CgraStep).1 as f64;
        report.layer("cgra.rows_per_block", batched.traced_revs / blocks.max(1.0));
        let (step, harness) = realtime.split(&on, Layer::RealtimeStep);
        report.layer("realtime.step_ns_per_rev", step);
        report.layer("realtime.harness_ns_per_rev", harness);
        let overhead = stats::median(&[batched.overhead(), realtime.overhead()]).unwrap_or(0.0);
        finish_trace(
            "mde_loop",
            cfg,
            &on,
            &mut report,
            overhead,
            batched.traced_run_s + realtime.traced_run_s,
            on.seconds(Layer::CgraRun) + on.seconds(Layer::RealtimeRun),
        );
    }
    Ok(report)
}

/// Shared tail of a traced mde run: overhead, coverage, span counts and
/// the written span trace.
fn finish_trace(
    workload: &str,
    cfg: &Config,
    on: &Tracer,
    report: &mut Report,
    overhead: f64,
    layer_s: f64,
    traced_s: f64,
) {
    report.layer("trace.overhead_frac", overhead);
    report.layer(
        "trace.coverage_frac",
        if traced_s > 0.0 {
            layer_s / traced_s
        } else {
            0.0
        },
    );
    report.layer("trace.spans", on.spans_closed() as f64);
    write_spans(cfg, on, report, workload);
}

/// The `mde_signal` workload.
pub fn run_signal(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let s = signal_scenario();
    let mut chains_built = 0u64;
    let harness = |s: &MdeScenario| {
        // The detector measures once per bunch passage, so the controller's
        // decimated rate derives from f_rev × bunches (as SignalLevelLoop).
        let mut controller = BeamPhaseController::new(s.controller, s.f_rev * s.bunches as f64);
        controller.enabled = true;
        LoopHarness::new(controller, s.jumps, s.instrument_offset_deg)
    };
    let (setup_s, ()) = timed_setup(|| {
        let _engine = SignalLevelEngine::from_scenario(&s).map_err(|e| e.to_string())?;
        chains_built += 1;
        let _harness = harness(&s);
        Ok(())
    })?;
    report.setup_s = setup_s;

    let on = Tracer::new(true);
    let off = Tracer::new(false);
    let mut pass = Pass::default();
    let mut reference: Option<LoopTrace> = None;
    let mut stamps = Vec::with_capacity(s.revolutions() * s.bunches + 64);
    let rotation = CpuRotation::new();
    rounds(cfg, |traced, i| {
        let tracer = if traced { &on } else { &off };
        let slot = pin_round(rotation.as_ref(), i);
        let engine = SignalLevelEngine::from_scenario(&s)
            .map_err(|e| format!("signal-level engine build failed: {e}"))?;
        chains_built += 1;
        let r = sub_run(
            tracer,
            (Layer::SignalRun, Layer::SignalStep),
            i,
            engine,
            harness(&s),
            &s,
            Some(&mut stamps),
        );
        pass.record(slot, traced, &r, Some(&stamps), s.bunches);
        check_against(&mut reference, &r.trace, "signal", i, &mut report);
        Ok(())
    })?;
    let reference = reference.ok_or("no sub-run completed")?;

    // The wrapped harness must reproduce the library's own executive.
    let t_rev = 1.0 / s.f_rev;
    let ours = resample(
        &reference.times,
        &reference.mean_phase_deg,
        t_rev,
        s.duration_s,
    );
    match SignalLevelLoop::new(s.clone()).run(s.duration_s, true) {
        Ok(lib) => {
            chains_built += 1;
            let same = lib.phase_deg.values.len() == ours.values.len()
                && lib
                    .phase_deg
                    .values
                    .iter()
                    .zip(&ours.values)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same || lib.jump_times != reference.jump_times {
                report.problem("signal-level sub-run differs from SignalLevelLoop::run");
            }
        }
        Err(e) => report.problem(format!("SignalLevelLoop::run failed: {e}")),
    }
    if let Some(p) = first_peak_problem(
        "mde_signal",
        first_peak_ratio(&ours, &reference.jump_times, &s),
    ) {
        report.problem(p);
    }

    report.attempted = pass.runs;
    report.failed = pass.failed;
    report.revs_per_s = pass.rate();
    let latency = pass.latency(
        "per-revolution host latency, signal-level chain",
        &mut report,
    );
    report.latency = latency;
    report.notes.push(format!(
        "signal_revs_per_s = {:.1} rev/s (mean over cores of per-core medians: {}; sub-runs of {} revolutions, {} bunches)",
        pass.rate(),
        pass.rate_detail(),
        s.revolutions(),
        s.bunches
    ));
    report.layer("signal.chains_built", chains_built as f64);
    if cfg.trace {
        let (step, harness) = pass.split(&on, Layer::SignalStep);
        report.layer("signal.step_ns_per_rev", step);
        report.layer("signal.harness_ns_per_rev", harness);
        finish_trace(
            "mde_signal",
            cfg,
            &on,
            &mut report,
            pass.overhead(),
            pass.traced_run_s,
            on.seconds(Layer::SignalRun),
        );
    }
    Ok(report)
}

/// The `mde_reftrack` workload.
pub fn run_reftrack(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let s = reftrack_scenario();
    let ensemble_seed = Rng::new(cfg.seed, ENSEMBLE_STREAM).next_u64();
    // The timed loop steps the ensemble on one thread. The tracker's
    // default forks one thread per core every revolution, and on a shared
    // host a core stolen by the hypervisor then stalls every turn: runs
    // under steal read 2-4x slower, far outside any bound. Traced runs
    // also time the default configuration and report what it buys.
    let build = |threads: usize| -> Result<RefTrackEngine, String> {
        let mut engine =
            RefTrackEngine::from_scenario(&s, REFTRACK_PARTICLES, ensemble_seed, 15e-9, 0.0)
                .map_err(|e| format!("RefTrack engine build failed: {e}"))?;
        engine.set_tracker_config(TrackerConfig {
            threads,
            ..engine.tracker_config()
        });
        Ok(engine)
    };
    let default_threads = TrackerConfig::default().threads;
    let (setup_s, ()) = timed_setup(|| {
        let _engine = build(1)?;
        let _harness = LoopHarness::for_scenario(&s, true);
        Ok(())
    })?;
    report.setup_s = setup_s;

    let on = Tracer::new(true);
    let off = Tracer::new(false);
    let mut pass = Pass::default();
    let mut reference: Option<LoopTrace> = None;
    let mut stamps = Vec::with_capacity(s.revolutions() + 16);
    let mut default_rates = Vec::new();
    let rotation = CpuRotation::new();
    rounds(cfg, |traced, i| {
        let tracer = if traced { &on } else { &off };
        if traced {
            // The default configuration forks threads of its own: run it
            // unpinned.
            if let Some(r) = &rotation {
                r.release();
            }
            let layers = (Layer::ReftrackRun, Layer::ReftrackStep);
            let harness = LoopHarness::for_scenario(&s, true);
            let r = sub_run(&off, layers, i, build(default_threads)?, harness, &s, None);
            default_rates.push(r.revs / r.run_s);
            check_against(
                &mut reference,
                &r.trace,
                "reftrack (default threads)",
                i,
                &mut report,
            );
        }
        let slot = pin_round(rotation.as_ref(), i);
        let engine = build(1)?;
        let harness = LoopHarness::for_scenario(&s, true);
        let r = sub_run(
            tracer,
            (Layer::ReftrackRun, Layer::ReftrackStep),
            i,
            engine,
            harness,
            &s,
            Some(&mut stamps),
        );
        pass.record(slot, traced, &r, Some(&stamps), 1);
        check_against(&mut reference, &r.trace, "reftrack", i, &mut report);
        Ok(())
    })?;
    let reference = reference.ok_or("no sub-run completed")?;
    if let Some(p) = first_peak_problem(
        "mde_reftrack",
        first_peak_ratio(&per_rev_phase(&reference, &s), &reference.jump_times, &s),
    ) {
        report.problem(p);
    }

    report.attempted = pass.runs;
    report.failed = pass.failed;
    report.revs_per_s = pass.rate();
    let latency = pass.latency("per-revolution host latency, RefTrack loop", &mut report);
    report.latency = latency;
    report.notes.push(format!(
        "reftrack_revs_per_s = {:.1} rev/s (mean over cores of per-core medians: {}; sub-runs of {} revolutions, {REFTRACK_PARTICLES} particles, 1 intra-step thread, ensemble seed {ensemble_seed:#x})",
        pass.rate(),
        pass.rate_detail(),
        s.revolutions(),
    ));
    report.layer("reftrack.threads", 1.0);
    if cfg.trace {
        let default_rate = stats::median(&default_rates).unwrap_or(0.0);
        report.layer("reftrack.default_threads", default_threads as f64);
        report.layer("reftrack.default_speedup", default_rate / pass.rate());
        report.notes.push(format!(
            "reftrack at the default {default_threads} intra-step threads: {default_rate:.1} rev/s \
             (median of {} untraced sub-runs)",
            default_rates.len()
        ));
        let (step, harness) = pass.split(&on, Layer::ReftrackStep);
        report.layer(
            "reftrack.step_ns_per_particle_turn",
            step / REFTRACK_PARTICLES as f64,
        );
        report.layer("reftrack.harness_ns_per_rev", harness);
        finish_trace(
            "mde_reftrack",
            cfg,
            &on,
            &mut report,
            pass.overhead(),
            pass.traced_run_s,
            on.seconds(Layer::ReftrackRun),
        );
    }
    Ok(report)
}
