//! `fleet`: hardware-in-the-loop as a service.
//!
//! A `SessionMux` with one worker per core serves a closed-loop client that
//! keeps `IN_FLIGHT_PER_WORKER × workers` sessions in flight and creates
//! the next one as soon as one finishes. The session mix is drawn from the
//! seed in decks of ten — eight short Map sessions (one of which is paused
//! mid-run, evicted to `CILCKPT` bytes and resumed), one CGRA session and
//! one 2 048-particle RefTrack session (below the tracker's 4 096-particle
//! `min_chunk`, so single-threaded — the opposite use of RefTrack to
//! `mde_reftrack`). Slicing, work stealing, arena leases and the checkpoint
//! codec do the work; no signal chain and no campaign is built.
//!
//! A mux keeps every finished session's trace until it is dropped (it has
//! no call that forgets a session), so the fleet runs in epochs of
//! `EPOCH_SESSIONS` sessions, each on a fresh mux that is dropped when the
//! epoch drains. That bounds memory; the mux build and the drain are part
//! of every epoch's measured time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use cil_core::engine::EngineKind;
use cil_core::fault::{LoopSupervisor, SupervisorConfig};
use cil_core::harness::{LoopHarness, LoopTrace};
use cil_core::telemetry::TelemetryRegistry;
use cil_core::{MdeScenario, MuxConfig, SessionMux, SessionSpec, SessionState};

use crate::check::trace_difference;
use crate::host;
use crate::seed::Rng;
use crate::stats::{self, Chunked};
use crate::tracing::{Layer, Tracer, NO_PARENT};
use crate::{rounds, timed_setup, write_spans, Config, Latency, Report};

/// Sessions in flight per mux worker.
const IN_FLIGHT_PER_WORKER: usize = 4;

/// Sessions served by one mux before it is dropped (whole decks of ten).
const EPOCH_SESSIONS: usize = 100;

/// Rows at which an evicted session is paused (every evicted session is a
/// Map session paused here, so its snapshot size is exact).
pub const PAUSE_ROWS: u64 = 512;

/// Particles of a RefTrack session.
pub const SESSION_PARTICLES: usize = 2048;

/// Seed stream of the session plan.
const PLAN_STREAM: u64 = 1;

/// Evicted sessions of the first epoch checked against their yardstick.
const EVICTED_SAMPLES: usize = 3;

/// One in this many other sessions is checked against its yardstick.
const SAMPLE_ONE_IN: usize = 1000;

/// One planned session.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// Engine fidelity.
    pub kind: EngineKind,
    /// Revolutions to run.
    pub revs: u64,
    /// Pause at [`PAUSE_ROWS`], evict, resume.
    pub evict: bool,
    /// Check the finished trace against `LoopHarness::run_supervised`.
    pub sample: bool,
}

/// The sessions of one epoch: decks of ten in seeded order.
pub fn plan(seed: u64, epoch: usize) -> Vec<Planned> {
    let mut rng = Rng::new(seed, PLAN_STREAM + ((epoch as u64) << 8));
    let mut out = Vec::with_capacity(EPOCH_SESSIONS);
    let mut evicted = 0usize;
    while out.len() < EPOCH_SESSIONS {
        let mut deck: Vec<Planned> = Vec::with_capacity(10);
        for slot in 0..10 {
            let (kind, revs) = match slot {
                0 => (EngineKind::Cgra, 512 + rng.below(513) as u64),
                1 => (
                    EngineKind::RefTrack {
                        particles: SESSION_PARTICLES,
                        seed: rng.next_u64(),
                    },
                    128 + rng.below(129) as u64,
                ),
                _ => (EngineKind::Map, 1024 + rng.below(1025) as u64),
            };
            deck.push(Planned {
                kind,
                revs,
                evict: slot == 2,
                sample: false,
            });
        }
        rng.shuffle(&mut deck);
        for mut p in deck {
            p.sample = if p.evict {
                evicted += 1;
                epoch == 0 && evicted <= EVICTED_SAMPLES
            } else {
                rng.below(SAMPLE_ONE_IN) == 0
            };
            out.push(p);
        }
    }
    out
}

/// The scenario of one session: the paper's loop, one bunch, a jump every
/// 1.25 ms, `revs` revolutions.
pub fn session_scenario(revs: u64) -> MdeScenario {
    let mut s = MdeScenario::nov24_2023();
    s.bunches = 1;
    s.jumps.interval_s = 0.00125;
    s.duration_s = revs as f64 / s.f_rev;
    s
}

/// What the clients of one epoch saw.
#[derive(Default)]
struct ClientLog {
    /// Revolutions of sessions that finished cleanly.
    revs: u64,
    /// Turnaround of each clean session, microseconds.
    turnaround_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    snapshot_bytes: Vec<usize>,
    samples: Vec<(usize, Planned, LoopTrace)>,
}

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        self.revs += other.revs;
        self.turnaround_us.extend(other.turnaround_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.snapshot_bytes.extend(other.snapshot_bytes);
        self.samples.extend(other.samples);
    }
}

/// One closed-loop client: serve sessions `next..` of the epoch's `plan`
/// (numbered from `base`) until none are left.
fn client(
    mux: &SessionMux,
    plan: &[Planned],
    base: usize,
    next: &AtomicUsize,
    tracer: &Tracer,
) -> ClientLog {
    let mut log = ClientLog::default();
    loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        let Some(&p) = plan.get(k) else { break };
        let i = base + k;
        log.attempted += 1;
        let tag = i as u64;
        let session = tracer.open();
        let t0 = Instant::now();
        let created = tracer.span(Layer::MuxCreate, session.id, tag, || {
            let h = mux.create(SessionSpec::new(session_scenario(p.revs), p.kind))?;
            if p.evict {
                h.step_to(PAUSE_ROWS)?;
            } else {
                h.run_to_end()?;
            }
            Ok::<_, cil_core::CilError>(h)
        });
        let h = match created {
            Ok(h) => h,
            Err(e) => {
                log.failed += 1;
                log.problems
                    .push(format!("session {i}: create failed: {e}"));
                continue;
            }
        };
        if p.evict {
            let evicted = tracer
                .span(Layer::MuxPause, session.id, tag, || h.wait())
                .and_then(|_| tracer.span(Layer::CheckpointEvict, session.id, tag, || h.evict()))
                .and_then(|ok| {
                    if !ok {
                        return Err(cil_core::CilError::Session(
                            "parked session did not evict".into(),
                        ));
                    }
                    let bytes = h.snapshot()?.len();
                    h.run_to_end()?;
                    Ok(bytes)
                });
            match evicted {
                Ok(bytes) => log.snapshot_bytes.push(bytes),
                Err(e) => log
                    .problems
                    .push(format!("session {i}: eviction failed: {e}")),
            }
        }
        // `wait` blocks until the session is terminal without copying its
        // trace out; only sessions checked against a yardstick are joined.
        let waited = tracer.span(Layer::MuxJoin, session.id, tag, || h.wait());
        let turnaround = t0.elapsed();
        tracer.close(session, Layer::FleetSession, NO_PARENT, tag);
        match waited {
            Ok(status) if status.state == SessionState::Finished => {
                log.revs += status.rows;
                log.turnaround_us.push(turnaround.as_secs_f64() * 1e6);
                if p.sample {
                    match h.join() {
                        Ok(trace) => log.samples.push((i, p, trace)),
                        Err(e) => log.problems.push(format!("session {i}: join failed: {e}")),
                    }
                }
            }
            _ => log.failed += 1,
        }
    }
    log
}

fn new_mux(workers: usize) -> Result<SessionMux, String> {
    SessionMux::new(MuxConfig {
        workers,
        ..MuxConfig::default()
    })
    .map_err(|e| e.to_string())
}

/// The `fleet` workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let workers = host::nproc();
    let in_flight = IN_FLIGHT_PER_WORKER * workers;
    let mut muxes_built = 0u64;
    let (setup_s, (first_plan, first_mux)) = timed_setup(|| {
        // Each repetition pays the kernel compile a fresh process pays.
        cil_cgra::cache::global().clear();
        let plan = plan(cfg.seed, 0);
        EngineKind::Cgra
            .build(&session_scenario(PAUSE_ROWS))
            .map_err(|e| e.to_string())?;
        let mux = new_mux(workers)?;
        muxes_built += 1;
        Ok((plan, mux))
    })?;
    report.setup_s = setup_s;

    let on = Tracer::new(true);
    let off = Tracer::new(false);
    let fleet_registry = TelemetryRegistry::new();
    let mut next_mux = Some(first_mux);
    let mut next_plan = Some(first_plan);
    let mut seen = ClientLog::default();
    let (mut rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut turnaround = Chunked::default();
    rounds(cfg, |traced, epoch| {
        let epoch = epoch as usize;
        let tracer = if traced { &on } else { &off };
        let t0 = Instant::now();
        let mux = match next_mux.take() {
            Some(m) => m,
            None => {
                muxes_built += 1;
                new_mux(workers)?
            }
        };
        let plan = next_plan.take().unwrap_or_else(|| plan(cfg.seed, epoch));
        let next = AtomicUsize::new(0);
        let base = epoch * EPOCH_SESSIONS;
        let mut log = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..in_flight)
                .map(|_| scope.spawn(|| client(&mux, &plan, base, &next, tracer)))
                .collect();
            let mut log = ClientLog::default();
            for h in handles {
                log.absorb(h.join().expect("fleet client thread panicked"));
            }
            log
        });
        let registry = mux.telemetry().clone();
        // Dropping the mux joins its workers, folds in the arena counters
        // and frees the finished sessions.
        drop(mux);
        let wall_s = t0.elapsed().as_secs_f64();
        fleet_registry.absorb(&registry);
        let rate = log.revs as f64 / wall_s;
        let samples = std::mem::take(&mut log.turnaround_us);
        if traced {
            traced_rates.push(rate);
        } else {
            rates.push(rate);
            turnaround.extend(samples);
        }
        seen.absorb(log);
        Ok(())
    })?;
    let snap = fleet_registry.snapshot();

    report.attempted = seen.attempted;
    report.failed = seen.failed;
    for p in std::mem::take(&mut seen.problems) {
        report.problem(p);
    }
    report.revs_per_s = stats::median(&rates).unwrap_or(0.0);
    report.latency = Latency::from_chunks(
        turnaround,
        1.0,
        "session turnaround (create to finished, as the client sees it)",
        &mut report,
    );

    // Yardsticks: a seeded sample of sessions, evicted ones included, must
    // match an unsliced, never-evicted supervised run bit for bit.
    seen.samples.sort_by_key(|(i, _, _)| *i);
    let mut evicted_checked = 0;
    for (i, p, trace) in &seen.samples {
        let s = session_scenario(p.revs);
        let mut supervisor = LoopSupervisor::new(SupervisorConfig::for_scenario(&s));
        match LoopHarness::for_scenario(&s, true).run_supervised(
            &s,
            p.kind,
            s.duration_s,
            &mut supervisor,
        ) {
            Ok(yardstick) => {
                if let Some(diff) = trace_difference(&yardstick, trace) {
                    report.problem(format!(
                        "session {i} ({}{}): {diff} differ from LoopHarness::run_supervised",
                        p.kind.fidelity_label(),
                        if p.evict { ", evicted" } else { "" }
                    ));
                }
                evicted_checked += usize::from(p.evict);
            }
            Err(e) => report.problem(format!("yardstick for session {i} failed: {e}")),
        }
    }
    if evicted_checked == 0 {
        report.problem("no evicted session was checked against its yardstick");
    }

    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let evictions = counter("cil_mux_evictions_total");
    let restores = counter("cil_mux_restores_total");
    if evictions != restores || evictions != seen.snapshot_bytes.len() as f64 {
        report.problem(format!(
            "{evictions} evictions and {restores} restores, {} sessions evicted by the client",
            seen.snapshot_bytes.len()
        ));
    }
    let mut sorted = rates.clone();
    stats::sort(&mut sorted);
    let q = |x: f64| stats::quantile_sorted(&sorted, x).unwrap_or(0.0);
    report.notes.push(format!(
        "fleet_revs_per_s = {:.1} rev/s (median of {} epochs of {EPOCH_SESSIONS} sessions, \
         quartiles {:.1}..{:.1}), fleet_turnaround_p50_ms = {:.3}, fleet_turnaround_p99_ms = {:.3}; \
         {} sessions attempted, {in_flight} in flight, {workers} mux workers, {} sessions checked \
         against their yardstick ({evicted_checked} evicted)",
        report.revs_per_s,
        rates.len(),
        q(0.25),
        q(0.75),
        report.latency.p50_us * 1e-3,
        report.latency.p99_us * 1e-3,
        report.attempted,
        seen.samples.len()
    ));

    report.layer("mux.built", muxes_built as f64);
    report.layer(
        "cgra.kernel_compiles",
        cil_cgra::cache::global().misses() as f64,
    );
    if cfg.trace {
        let mean = |layer: Layer, scale: f64| {
            let (ns, n) = on.total(layer);
            ns as f64 * scale / n.max(1) as f64
        };
        report.layer("mux.create_us", mean(Layer::MuxCreate, 1e-3));
        report.layer("mux.join_wait_ms", mean(Layer::MuxJoin, 1e-6));
        let dispatches = counter("cil_mux_dispatches_total");
        let finished = counter("cil_mux_sessions_finished_total");
        report.layer("mux.dispatches_per_session", dispatches / finished.max(1.0));
        report.layer(
            "mux.steal_frac",
            counter("cil_mux_steals_total") / dispatches.max(1.0),
        );
        let (hits, misses) = (
            counter("cil_arena_hits_total"),
            counter("cil_arena_misses_total"),
        );
        report.layer("arena.hit_rate", hits / (hits + misses).max(1.0));
        report.layer("checkpoint.evictions", evictions);
        report.layer("checkpoint.restores", restores);
        report.layer("checkpoint.evict_us", mean(Layer::CheckpointEvict, 1e-3));
        let n = seen.snapshot_bytes.len().max(1) as f64;
        report.layer(
            "checkpoint.snapshot_kb",
            seen.snapshot_bytes.iter().sum::<usize>() as f64 / n / 1024.0,
        );
        let overhead = match (stats::median(&rates), stats::median(&traced_rates)) {
            (Some(u), Some(t)) if t > 0.0 => u / t - 1.0,
            _ => 0.0,
        };
        report.layer("trace.overhead_frac", overhead);
        report.layer("trace.spans", on.spans_closed() as f64);
        write_spans(cfg, &on, &mut report, "fleet");
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_seeded_and_stratified() {
        let key = |p: &Planned| (p.kind.fidelity_label(), p.revs, p.evict, p.sample);
        let same = |a: &[Planned], b: &[Planned]| a.iter().zip(b).all(|(x, y)| key(x) == key(y));
        let a = plan(11, 0);
        assert_eq!(a.len(), EPOCH_SESSIONS);
        assert!(same(&a, &plan(11, 0)));
        assert!(!same(&a, &plan(12, 0)));
        assert!(!same(&a, &plan(11, 1)));
        let count = |f: &dyn Fn(&Planned) -> bool| a.iter().filter(|p| f(p)).count();
        let decks = EPOCH_SESSIONS / 10;
        assert_eq!(count(&|p| p.kind == EngineKind::Cgra), decks);
        assert_eq!(count(&|p| p.kind.fidelity_label() == "reftrack"), decks);
        assert_eq!(count(&|p| p.evict), decks);
        assert!(a
            .iter()
            .filter(|p| p.evict)
            .all(|p| p.kind == EngineKind::Map && p.revs > PAUSE_ROWS));
        assert_eq!(count(&|p| p.evict && p.sample), EVICTED_SAMPLES);
        assert!(!plan(11, 1).iter().any(|p| p.evict && p.sample));
    }
}
