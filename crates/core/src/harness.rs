//! The shared closed-loop harness.
//!
//! Every executive — turn-level, signal-level, ramp, multi-bunch — runs the
//! same experiment skeleton: step the beam model, watch the jump program
//! toggle, feed the (offset-corrected) mean phase to the beam-phase
//! controller, actuate, record. [`LoopHarness`] owns that skeleton once;
//! the executives in [`crate::hil`], [`crate::ramploop`] and
//! [`crate::multibunch`] reduce to scenario adapters that pick an engine,
//! run the harness, and reshape the [`LoopTrace`] into their result type.
//!
//! Since the event-core refactor there is exactly **one** loop body,
//! [`LoopHarness::run_dispatch`]: the engine steps in blocks
//! ([`crate::engine::BeamEngine::step_block`]) whose budget is the
//! [`EventQueue::horizon`] — the distance to the next scheduled
//! [`SimEvent`] (controller actuation, checkpoint cadence, observer hook,
//! wall-clock sample, supervisor watchdog). Events fire *between* blocks,
//! in the queue's fixed `(tick, priority, seq)` order, so the recorded
//! trace, audit events and checkpoint bytes are bit-identical for every
//! block size — there is no per-turn fallback any more, not even under an
//! observer hook or an active fault program (fault windows and jump edges
//! are time-keyed and therefore *detected* per step, not queued).
//!
//! [`LoopHarness::run`] borrows a caller-built engine; every run whose
//! engine the harness owns goes through [`LoopHarness::run_spec`]: fresh or
//! resumed from a checkpoint, under a [`LoopSupervisor`] or not (deadline
//! watchdog, outlier gate, actuation clamp, demotion through
//! [`EngineKind::demote`]). A [`FaultInjector`] corrupts measured rows per
//! the scenario's fault schedule.
//!
//! Telemetry is opt-in via [`LoopHarness::with_telemetry`]: the harness
//! resolves all metric handles up front ([`LoopMetrics`]), records
//! per-revolution wall-clock (sampled every
//! [`crate::telemetry::WALL_SAMPLE_ROWS`] rows via a scheduled
//! [`SimEvent::WallSample`], keeping `Instant::now` off the per-row path),
//! modelled step cost and deadline headroom, folds the finished trace's
//! event log into the counters, and exports the queue's per-kind
//! scheduled/fired tallies ([`LoopMetrics::note_events`]) so the exported
//! numbers always agree with the audit channel.

use crate::checkpoint::{Checkpoint, CheckpointConfig, CheckpointError, CheckpointSession};
use crate::control::BeamPhaseController;
use crate::engine::{BeamEngine, EngineKind, EngineState, EngineStep, StepBlock};
use crate::error::Result;
use crate::event::{EventQueue, SimEvent};
use crate::fault::{
    FaultInjector, FaultProgram, LoopEvent, LoopOutcome, LoopSupervisor, LossCause, StepCalibration,
};
use crate::scenario::MdeScenario;
use crate::signalgen::PhaseJumpProgram;
use crate::telemetry::{LoopMetrics, TelemetryRegistry, WALL_SAMPLE_ROWS};
use cil_physics::constants::TWO_PI;
use std::time::Instant;

/// Everything one closed-loop run records.
#[derive(Debug, Clone)]
pub struct LoopTrace {
    /// Measurement time of each row, seconds (uniform per revolution for
    /// turn-level engines, detector-event times for the signal level,
    /// ramp-varying for [`crate::engine::RampEngine`]).
    pub times: Vec<f64>,
    /// Per-bunch phase rows, degrees at the RF harmonic (instrumentation
    /// offset included), indexed `[bunch][row]`. Rows carry the *raw*
    /// (possibly fault-corrupted) measurements; supervision acts on the
    /// admitted mean.
    pub bunch_phase_deg: Vec<Vec<f64>>,
    /// Pickup-average phase per row — what the controller acted on (the
    /// supervisor's held value when a row was rejected).
    pub mean_phase_deg: Vec<f64>,
    /// Controller actuation after each row, Hz.
    pub control_hz: Vec<f64>,
    /// Times at which the jump program toggled, seconds. A program that
    /// starts displaced (negative path latency) records its first event at
    /// t = 0.
    pub jump_times: Vec<f64>,
    /// Audit channel: every fault activation, rejection, clamp, overrun,
    /// demotion and loss, in order.
    pub events: Vec<LoopEvent>,
    /// How the run ended (loss carries turn index, time and cause).
    pub outcome: LoopOutcome,
}

impl LoopTrace {
    pub(crate) fn empty(bunches: usize) -> Self {
        Self {
            times: Vec::new(),
            bunch_phase_deg: vec![Vec::new(); bunches],
            mean_phase_deg: Vec::new(),
            control_hz: Vec::new(),
            jump_times: Vec::new(),
            events: Vec::new(),
            outcome: LoopOutcome::Survived,
        }
    }

    /// True when the run reached its scheduled end time.
    pub fn survived(&self) -> bool {
        self.outcome.survived()
    }
}

/// The closed-loop skeleton: controller + jump program + instrumentation
/// offset + fault injector + trace recording, generic over the
/// [`BeamEngine`] fidelity.
pub struct LoopHarness {
    /// The beam-phase controller (owns the loop-enable flag).
    pub controller: BeamPhaseController,
    /// The AWG jump program handed to the engine each step.
    pub jumps: PhaseJumpProgram,
    /// Constant instrumentation phase offset added to every measurement,
    /// degrees.
    pub instrument_offset_deg: f64,
    /// Run-time state of the scenario's fault schedule (empty = clean run).
    pub faults: FaultInjector,
    /// Resolved metric handles when telemetry is enabled (None = zero-cost).
    telemetry: Option<LoopMetrics>,
    /// Periodic checkpointing, when configured via
    /// [`Self::with_checkpointing`] (None = no checkpoint I/O at all).
    checkpoint: Option<CheckpointConfig>,
    /// Measured rows per [`StepBlock`] on the batched stepping path
    /// (1 = per-turn stepping; see [`Self::with_block_rows`]).
    block_rows: usize,
}

/// Default measured rows per engine step block — matches the wall-clock
/// sampling cadence, so one block is one wall sample.
pub const DEFAULT_BLOCK_ROWS: usize = WALL_SAMPLE_ROWS as usize;

/// Wall-clock sampler for the hot loop: fired through a scheduled
/// [`SimEvent::WallSample`] every [`WALL_SAMPLE_ROWS`] measured rows, it
/// reads `Instant::now` once per firing and records the per-row average, so
/// the clock read never rivals the cost of a Map-fidelity step.
struct WallSampler {
    histogram: crate::telemetry::Histogram,
    block_start: Instant,
}

impl WallSampler {
    fn new(metrics: &LoopMetrics) -> Self {
        Self {
            histogram: metrics.revolution_wall.clone(),
            block_start: Instant::now(),
        }
    }

    fn sample(&mut self) {
        let now = Instant::now();
        let per_row = now.duration_since(self.block_start).as_secs_f64() / WALL_SAMPLE_ROWS as f64;
        self.histogram.observe(per_row);
        self.block_start = now;
    }
}

/// Continuable cursor for the dispatch loop: an existing trace prefix
/// (empty for a fresh run, restored for a resume or a previous time slice)
/// plus the jump level it left off at. [`LoopHarness::run_dispatch`] both
/// consumes and returns one, so slice-based callers (the
/// [`crate::session`] executor) can feed the next slice from exactly where
/// the last one stopped.
pub(crate) struct RunCursor {
    pub(crate) trace: LoopTrace,
    pub(crate) last_jump: f64,
}

impl RunCursor {
    /// Fresh cursor: empty trace, jump program at its rest level.
    pub(crate) fn fresh(bunches: usize) -> Self {
        Self {
            trace: LoopTrace::empty(bunches),
            last_jump: 0.0,
        }
    }
}

/// A harness-owned run's state besides engine and supervisor: the fidelity
/// running now, the control-phase mirror a demoted engine is seeded with,
/// and the cursor. A [`crate::session`] body keeps one across slices.
pub(crate) struct RunState {
    pub(crate) kind: EngineKind,
    pub(crate) ctrl_phase_rad: f64,
    pub(crate) cursor: RunCursor,
}

impl RunState {
    /// Row zero of a run on a fresh build of `kind`.
    pub(crate) fn fresh(kind: EngineKind, bunches: usize) -> Self {
        Self {
            kind,
            ctrl_phase_rad: 0.0,
            cursor: RunCursor::fresh(bunches),
        }
    }
}

/// Where one call into the dispatch loop stops: at the scheduled end, or
/// for a time slice once the trace holds `limit_rows` rows.
#[derive(Clone, Copy)]
pub(crate) struct Until {
    pub(crate) duration_s: f64,
    pub(crate) limit_rows: Option<u64>,
}

impl Until {
    /// Run to the scheduled end (or beam loss).
    fn end(duration_s: f64) -> Self {
        Self {
            duration_s,
            limit_rows: None,
        }
    }
}

/// How a harness-owned run starts.
pub enum RunStart {
    /// Row zero on a freshly built engine, possibly retuned (every worker
    /// configuration replays bit-identically). `kind` must describe it:
    /// demotion and resume rebuild from it.
    Fresh {
        /// The engine.
        engine: Box<dyn BeamEngine>,
        /// Its fidelity.
        kind: EngineKind,
    },
    /// The newest good snapshot in the checkpoint directory, at the
    /// fidelity it recorded.
    Resume,
}

/// One run whose engine the harness owns ([`LoopHarness::run_spec`]).
pub struct RunSpec<'a> {
    /// Scheduled end time, seconds of engine time.
    pub duration_s: f64,
    /// Fresh or resumed.
    pub start: RunStart,
    /// Supervision; a resume must match the snapshot's, or the run fails
    /// with [`CheckpointError::Incompatible`].
    pub supervisor: Option<&'a mut LoopSupervisor>,
}

impl<'a> RunSpec<'a> {
    /// An unsupervised run from row zero on a new build of `kind`.
    pub fn fresh(scenario: &MdeScenario, kind: EngineKind, duration_s: f64) -> Result<Self> {
        let engine = kind.build(scenario)?;
        Ok(Self {
            duration_s,
            start: RunStart::Fresh { engine, kind },
            supervisor: None,
        })
    }

    /// An unsupervised resume from the newest good snapshot.
    pub fn resume(duration_s: f64) -> Self {
        Self {
            duration_s,
            start: RunStart::Resume,
            supervisor: None,
        }
    }

    /// Run under `supervisor` (builder style).
    pub fn supervised(self, supervisor: &'a mut LoopSupervisor) -> Self {
        Self {
            supervisor: Some(supervisor),
            ..self
        }
    }
}

/// How the dispatch loop holds its engine. The supervised path must be
/// able to *rebuild* the engine mid-run (watchdog demotion swaps the
/// fidelity); the plain path borrows a caller-built engine whose
/// [`EngineKind`] it cannot know, so rebuilding is a config error there.
trait EngineSlot {
    type E: BeamEngine + ?Sized;
    fn engine(&mut self) -> &mut Self::E;
    fn rebuild(&mut self, to: EngineKind, scenario: &MdeScenario) -> Result<()>;
}

/// A caller-owned engine: steppable, never rebuildable.
struct BorrowedEngine<'a, E: BeamEngine + ?Sized>(&'a mut E);

impl<E: BeamEngine + ?Sized> EngineSlot for BorrowedEngine<'_, E> {
    type E = E;
    fn engine(&mut self) -> &mut E {
        self.0
    }
    fn rebuild(&mut self, _to: EngineKind, _scenario: &MdeScenario) -> Result<()> {
        Err(crate::error::CilError::InvalidConfig(
            "engine demotion requires an owned engine (run_supervised)".into(),
        ))
    }
}

/// A boxed engine — the supervised run's own, or the session executor's
/// arena lease: steppable *and* rebuildable in place — a watchdog demotion
/// swaps the box, so the owner sees the new fidelity when the run returns.
struct LeasedEngine<'a>(&'a mut Box<dyn BeamEngine>);

impl EngineSlot for LeasedEngine<'_> {
    type E = dyn BeamEngine;
    fn engine(&mut self) -> &mut (dyn BeamEngine + 'static) {
        self.0.as_mut()
    }
    fn rebuild(&mut self, to: EngineKind, scenario: &MdeScenario) -> Result<()> {
        *self.0 = to.build(scenario)?;
        Ok(())
    }
}

/// An executive observer hook with its row cadence (1 = see every row).
struct ObserverHook<'a, E: ?Sized> {
    hook: &'a mut dyn FnMut(&E),
    every_rows: u64,
}

/// Supervision context threaded through the dispatch loop. The fidelity
/// and control-phase mirror are borrowed, not owned: a demotion mid-run
/// mutates them, and slice-based callers need the updated values back to
/// seed the next slice.
struct SupCtx<'a> {
    supervisor: &'a mut LoopSupervisor,
    scenario: &'a MdeScenario,
    kind: &'a mut EngineKind,
    /// Mirror of the engine's accumulated control phase, so a freshly
    /// built engine can be seeded mid-run after a demotion.
    ctrl_phase_rad: &'a mut f64,
    t_rev: f64,
}

impl SupCtx<'_> {
    /// Demote the engine in `slot` to fidelity `to` at `turn`: audit the
    /// demotion, seed the fresh engine at `time_s` with the control phase,
    /// and re-arm the watchdog after the rows already in `trace`. The
    /// caller counts the watchdog firing.
    fn demote<S: EngineSlot>(
        &mut self,
        to: EngineKind,
        turn: usize,
        time_s: f64,
        slot: &mut S,
        trace: &mut LoopTrace,
        queue: &mut EventQueue,
    ) -> Result<()> {
        trace.events.push(LoopEvent::EngineDemoted {
            turn,
            time_s,
            from: *self.kind,
            to,
        });
        // The cavity plant's dynamic state (compensation boost, integrated
        // detune phase) survives the fidelity swap — the fault degrades the
        // *plant*, not the model of it.
        let cavity = slot.engine().cavity_state();
        slot.rebuild(to, self.scenario)?;
        slot.engine().seed_state(time_s, *self.ctrl_phase_rad);
        slot.engine().restore_cavity(&cavity);
        *self.kind = to;
        self.supervisor.reset_watchdog();
        queue.schedule(
            SimEvent::Watchdog,
            trace.times.len() as u64 + watchdog_headroom(self.supervisor),
        );
        Ok(())
    }
}

/// Measured rows before the watchdog could possibly intervene: it counts
/// *consecutive* bad rows, so it cannot fire before `max_consecutive_bad -
/// bad_streak` more rows have passed. Floored at 1 so the loop always makes
/// progress.
fn watchdog_headroom(supervisor: &LoopSupervisor) -> u64 {
    u64::from(
        supervisor
            .config
            .max_consecutive_bad
            .saturating_sub(supervisor.bad_streak())
            .max(1),
    )
}

impl LoopHarness {
    /// Harness from parts (no faults scheduled).
    pub fn new(
        controller: BeamPhaseController,
        jumps: PhaseJumpProgram,
        instrument_offset_deg: f64,
    ) -> Self {
        Self {
            controller,
            jumps,
            instrument_offset_deg,
            faults: FaultInjector::none(),
            telemetry: None,
            checkpoint: None,
            block_rows: DEFAULT_BLOCK_ROWS,
        }
    }

    /// The scenario's turn-level harness: controller at the revolution
    /// frequency, the scenario's jump program, instrumentation offset and
    /// fault schedule.
    pub fn for_scenario(s: &MdeScenario, control_enabled: bool) -> Self {
        let mut controller = BeamPhaseController::new(s.controller, s.f_rev);
        controller.enabled = control_enabled;
        let mut harness = Self::new(controller, s.jumps, s.instrument_offset_deg);
        harness.faults = FaultInjector::new(s.faults.clone());
        harness
    }

    /// Replace the fault schedule (builder style).
    pub fn with_fault_program(mut self, program: FaultProgram) -> Self {
        self.faults = FaultInjector::new(program);
        self
    }

    /// Record run metrics into `registry` (builder style). All handles are
    /// resolved here, once — the run loops only touch atomics.
    pub fn with_telemetry(mut self, registry: &TelemetryRegistry) -> Self {
        self.telemetry = Some(LoopMetrics::register(registry));
        self
    }

    /// Measured rows per engine step block (builder style; 1 reproduces
    /// per-turn stepping, 0 is an [`crate::error::CilError::InvalidConfig`]
    /// error). Blocks amortise per-revolution harness overhead; the event
    /// queue caps every block at the next scheduled event
    /// ([`EventQueue::horizon`]) — controller actuation, checkpoint
    /// cadence, observer hook, wall sample, watchdog — so the recorded
    /// trace, events and checkpoint bytes are bit-identical for every
    /// block size.
    pub fn with_block_rows(mut self, rows: usize) -> Result<Self> {
        if rows == 0 {
            return Err(crate::error::CilError::InvalidConfig(
                "block size (measured rows per step block) must be >= 1".into(),
            ));
        }
        self.block_rows = rows;
        Ok(self)
    }

    /// Checkpoint periodically into `config.dir` (builder style). Only
    /// harness-owned runs ([`Self::run_spec`] and [`Self::run_supervised`])
    /// honour this — plain [`Self::run`] borrows an engine whose
    /// [`EngineKind`] it cannot know, so it could not rebuild the engine on
    /// resume and therefore never checkpoints. [`Self::run_spec`] validates
    /// the configuration (non-zero cadence and retention).
    pub fn with_checkpointing(mut self, config: CheckpointConfig) -> Self {
        self.checkpoint = Some(config);
        self
    }

    /// Run the loop until the engine's time reaches `duration_s`.
    pub fn run<E: BeamEngine + ?Sized>(&mut self, engine: &mut E, duration_s: f64) -> LoopTrace {
        self.run_dispatch(
            RunCursor::fresh(engine.bunches()),
            &mut BorrowedEngine(engine),
            Until::end(duration_s),
            None,
            None,
            None,
        )
        .expect("unsupervised run never rebuilds the engine")
        .trace
    }

    /// Like [`Self::run`], calling `observer` after every recorded row —
    /// the hook through which executives capture engine-specific telemetry
    /// (e.g. γ_R and φ_s along a ramp) without widening the trace type.
    /// A cadence-1 observer must see the engine *at* each row, so the
    /// scheduled [`SimEvent::Observer`] caps every block at one measured
    /// row. For a cheaper sampled view use [`Self::run_with_every`].
    pub fn run_with<E, F>(&mut self, engine: &mut E, duration_s: f64, observer: F) -> LoopTrace
    where
        E: BeamEngine + ?Sized,
        F: FnMut(&E),
    {
        self.run_with_every(engine, duration_s, 1, observer)
            .expect("cadence 1 is always valid and the run never rebuilds the engine")
    }

    /// Like [`Self::run_with`], but the observer fires only every
    /// `every_rows` measured rows (as a scheduled [`SimEvent::Observer`],
    /// so blocks stay as large as the cadence allows — the trace itself is
    /// bit-identical to [`Self::run`] at any cadence). `every_rows = 0` is
    /// an [`crate::error::CilError::InvalidConfig`] error.
    pub fn run_with_every<E, F>(
        &mut self,
        engine: &mut E,
        duration_s: f64,
        every_rows: u64,
        mut observer: F,
    ) -> Result<LoopTrace>
    where
        E: BeamEngine + ?Sized,
        F: FnMut(&E),
    {
        if every_rows == 0 {
            return Err(crate::error::CilError::InvalidConfig(
                "observer cadence (every_rows) must be >= 1 row".into(),
            ));
        }
        let hook = ObserverHook {
            hook: &mut observer,
            every_rows,
        };
        self.run_dispatch(
            RunCursor::fresh(engine.bunches()),
            &mut BorrowedEngine(engine),
            Until::end(duration_s),
            Some(hook),
            None,
            None,
        )
        .map(|c| c.trace)
    }

    /// The single loop body every entry point funnels into. Steps the
    /// engine in blocks whose budget is the event queue's horizon, records
    /// rows, and dispatches due [`SimEvent`]s between blocks in the queue's
    /// fixed total order. Continuable: starts from an existing trace prefix
    /// `start` (the resume path), checkpoints through `ckpt` when one is
    /// attached, and supervises through `sup` when attached.
    ///
    /// Fault windows and jump-program toggles are keyed to *engine time*
    /// (non-uniform for ramp and signal-level engines), so their edges are
    /// detected per step rather than queued; the queue carries their fired
    /// tallies ([`SimEvent::FaultEdge`], [`SimEvent::JumpEdge`]). A forced
    /// beam loss is checked exactly where per-turn stepping would have
    /// checked it: at the block's first step and at every step following a
    /// measured row — those positions are precisely the block boundaries of
    /// the old budget-1 stepping under an active fault program.
    ///
    /// `until.limit_rows` is the cooperative time-slice budget: an
    /// *absolute* cap on the trace's row count at which the loop returns
    /// early (engine and peripheral state left live, telemetry not yet
    /// folded). A slice boundary is just an extra block boundary, so the
    /// recorded trace, events and checkpoint bytes are bit-identical
    /// whether or not a run was sliced.
    fn run_dispatch<S: EngineSlot>(
        &mut self,
        start: RunCursor,
        slot: &mut S,
        until: Until,
        mut observer: Option<ObserverHook<'_, S::E>>,
        mut ckpt: Option<CkptRun<'_>>,
        mut sup: Option<SupCtx<'_>>,
    ) -> Result<RunCursor> {
        let RunCursor {
            mut trace,
            mut last_jump,
        } = start;
        let Until {
            duration_s,
            limit_rows,
        } = until;
        let bunches = slot.engine().bunches();
        let mut wall = self.telemetry.as_ref().map(WallSampler::new);
        let mut block = StepBlock::new();
        let mut queue = EventQueue::new();

        // Seed the queue. The tick domain is the count of measured trace
        // rows, so on resume `rows0` restarts every cadence exactly where
        // the interrupted run left it and the seeded history reconstructs
        // the prefix's tallies — a resumed run exports the same totals as
        // an uninterrupted one.
        let rows0 = trace.times.len() as u64;
        let decimation = u64::from(self.controller.params.decimation);
        let until_actuation = u64::from(self.controller.rows_until_actuation());
        // Actuations completed so far: the accumulator advances on every
        // row regardless of the enable flag, so this is pure row counting.
        let acted = (rows0 + until_actuation).saturating_sub(decimation) / decimation;
        queue.seed_history(SimEvent::Actuation, acted, acted);
        queue.schedule(SimEvent::Actuation, rows0 + until_actuation);
        queue.seed_history(SimEvent::JumpEdge, 0, trace.jump_times.len() as u64);
        let fault_edges0 = trace
            .events
            .iter()
            .filter(|e| matches!(e, LoopEvent::FaultActive { .. }))
            .count() as u64;
        queue.seed_history(SimEvent::FaultEdge, 0, fault_edges0);
        if let Some(obs) = &observer {
            let seen = rows0 / obs.every_rows;
            queue.seed_history(SimEvent::Observer, seen, seen);
            queue.schedule(SimEvent::Observer, rows0 + obs.every_rows);
        }
        if wall.is_some() {
            let sampled = rows0 / WALL_SAMPLE_ROWS;
            queue.seed_history(SimEvent::WallSample, sampled, sampled);
            queue.schedule(SimEvent::WallSample, rows0 + WALL_SAMPLE_ROWS);
        }
        if let Some(c) = ckpt.as_ref() {
            let every = self
                .checkpoint
                .as_ref()
                .map_or(1, |cfg| cfg.every_turns.max(1)) as u64;
            let written = rows0 / every;
            queue.seed_history(SimEvent::Checkpoint, written, written);
            let until = c.session.rows_until_due(rows0 as usize) as u64;
            queue.schedule(SimEvent::Checkpoint, rows0.saturating_add(until));
        }
        if let Some(s) = sup.as_ref() {
            let demoted = trace
                .events
                .iter()
                .filter(|e| matches!(e, LoopEvent::EngineDemoted { .. }))
                .count() as u64;
            queue.seed_history(SimEvent::Watchdog, demoted, demoted);
            queue.schedule(SimEvent::Watchdog, rows0 + watchdog_headroom(s.supervisor));
        }

        'run: while slot.engine().time() < duration_s
            && limit_rows.is_none_or(|l| (trace.times.len() as u64) < l)
        {
            // The watchdog's earliest possible intervention moves with the
            // live bad-streak; reposition (not re-schedule — the tallies
            // must not depend on block boundaries) before sizing the block.
            if let Some(s) = sup.as_ref() {
                queue.defer(
                    SimEvent::Watchdog,
                    trace.times.len() as u64 + watchdog_headroom(s.supervisor),
                );
            }
            let rows_now = trace.times.len() as u64;
            let mut budget = queue.horizon(rows_now, self.block_rows);
            if let Some(l) = limit_rows {
                // The loop condition guarantees l > rows_now, so the capped
                // budget stays >= 1 and the block always makes progress.
                budget = budget.min((l - rows_now) as usize);
            }
            slot.engine()
                .step_block(&self.jumps, duration_s, budget, &mut block);

            let rows = block.rows();
            trace.times.reserve(rows);
            trace.mean_phase_deg.reserve(rows);
            trace.control_hz.reserve(rows);
            for col in trace.bunch_phase_deg.iter_mut() {
                col.reserve(rows);
            }
            let mut row = 0usize;
            // Forced-loss eligibility: true at the block's first step and
            // at every step following a measured row — exactly the block
            // boundaries per-turn stepping would have checked at.
            let mut check_loss = true;
            for i in 0..block.steps().len() {
                let step = block.steps()[i];
                let turn = trace.times.len();
                if check_loss
                    && !self.faults.program.is_empty()
                    && self.faults.forced_loss_at(step.t_pre)
                {
                    trace.outcome = LoopOutcome::Lost {
                        turn,
                        time_s: step.t_pre,
                        cause: LossCause::Injected,
                    };
                    trace.events.push(LoopEvent::BeamLost {
                        turn,
                        time_s: step.t_pre,
                        cause: LossCause::Injected,
                    });
                    break 'run;
                }
                check_loss = false;
                // The engine evaluated the jump program for this step at
                // its pre-step time, so an edge is stamped there — a
                // program that starts displaced therefore records its first
                // event at t = 0.
                if step.jump_deg != last_jump {
                    trace.jump_times.push(step.t_pre);
                    last_jump = step.jump_deg;
                    queue.count_fired(SimEvent::JumpEdge);
                }
                match step.result {
                    EngineStep::Lost(cause) => {
                        let time_s = step.t_post;
                        // A garbage-producing engine is demotable; injected
                        // or physical losses are not. A loss ends the block
                        // early, so a demotion resumes stepping from the
                        // fresh engine immediately (the post-block dispatch
                        // is a no-op: the loss row precedes every armed
                        // tick).
                        if let Some(s) = sup.as_mut() {
                            if cause == LossCause::NonFinitePhase
                                && s.supervisor.config.allow_demotion
                            {
                                if let Some(to) = s.kind.demote() {
                                    s.demote(to, turn, time_s, slot, &mut trace, &mut queue)?;
                                    queue.count_fired(SimEvent::Watchdog);
                                    break;
                                }
                            }
                        }
                        trace.outcome = LoopOutcome::Lost {
                            turn,
                            time_s,
                            cause,
                        };
                        trace.events.push(LoopEvent::BeamLost {
                            turn,
                            time_s,
                            cause,
                        });
                        break 'run;
                    }
                    EngineStep::Idle => {
                        if let Some(m) = &self.telemetry {
                            m.idle_steps.inc();
                        }
                    }
                    EngineStep::Measured => {
                        let time_s = step.t_post;
                        let mut overrun = false;
                        if let Some(s) = sup.as_mut() {
                            // Deadline accounting: one measured row = one
                            // revolution of wall-clock budget.
                            let modeled = s.supervisor.model_step_seconds(
                                *s.kind,
                                self.faults.overrun_factor_at(step.t_pre),
                            );
                            overrun = modeled > s.supervisor.config.deadline_s;
                            if let Some(m) = &self.telemetry {
                                m.step_modeled.observe(modeled);
                                m.deadline_headroom
                                    .observe((s.supervisor.config.deadline_s - modeled).max(0.0));
                            }
                            if overrun {
                                trace.events.push(LoopEvent::DeadlineOverrun {
                                    turn,
                                    time_s,
                                    budget_s: s.supervisor.config.deadline_s,
                                    modeled_s: modeled,
                                });
                            }
                        }

                        let phase = block.phase_row_mut(row);
                        row += 1;
                        let events_before = trace.events.len();
                        self.faults
                            .apply_row(turn, time_s, phase, &mut trace.events);
                        let fault_edges = trace.events[events_before..]
                            .iter()
                            .filter(|e| matches!(e, LoopEvent::FaultActive { .. }))
                            .count();
                        for _ in 0..fault_edges {
                            queue.count_fired(SimEvent::FaultEdge);
                        }
                        let mut acc = 0.0;
                        for (col, &p) in trace.bunch_phase_deg.iter_mut().zip(phase.iter()) {
                            let deg = p + self.instrument_offset_deg;
                            col.push(deg);
                            acc += deg;
                        }
                        let mean = acc / bunches as f64;
                        match sup.as_mut() {
                            None => {
                                trace.times.push(time_s);
                                trace.mean_phase_deg.push(mean);
                                if let Some(u) = self.controller.push_measurement(mean) {
                                    slot.engine()
                                        .apply_control(u, self.controller.params.decimation);
                                }
                                trace.control_hz.push(self.controller.output());
                            }
                            Some(s) => {
                                let admission = s.supervisor.admit(mean);
                                if admission.rejected {
                                    trace.events.push(LoopEvent::OutlierRejected {
                                        turn,
                                        time_s,
                                        measured_deg: mean,
                                        held_deg: admission.value_deg,
                                    });
                                }
                                trace.times.push(time_s);
                                trace.mean_phase_deg.push(admission.value_deg);
                                if let Some(ctrl) = self.controller.push_measurement_limited(
                                    admission.value_deg,
                                    s.supervisor.config.max_actuation_hz,
                                ) {
                                    if ctrl.clamped {
                                        trace.events.push(LoopEvent::ActuationClamped {
                                            turn,
                                            time_s,
                                            raw_hz: ctrl.raw_hz,
                                            limit_hz: ctrl.limit_hz,
                                        });
                                    }
                                    let decimation = self.controller.params.decimation;
                                    slot.engine().apply_control(ctrl.actuation_hz, decimation);
                                    *s.ctrl_phase_rad += TWO_PI
                                        * ctrl.actuation_hz
                                        * s.t_rev
                                        * f64::from(decimation);
                                }
                                trace.control_hz.push(self.controller.output());

                                // Watchdog: consecutive bad steps demote
                                // (or, with no fidelity left, lose the
                                // beam). Every intervention counts as one
                                // watchdog firing; a demotion does *not*
                                // end the block — the remaining pre-stepped
                                // rows belonged to the old engine and are
                                // simply discarded by the budget math, so
                                // the post-block dispatch runs against the
                                // fresh engine exactly as per-turn stepping
                                // would.
                                if s.supervisor.note_step(overrun || admission.rejected) {
                                    queue.count_fired(SimEvent::Watchdog);
                                    let demoted = if s.supervisor.config.allow_demotion {
                                        s.kind.demote()
                                    } else {
                                        None
                                    };
                                    match demoted {
                                        Some(to) => {
                                            s.demote(
                                                to, turn, time_s, slot, &mut trace, &mut queue,
                                            )?;
                                        }
                                        None => {
                                            trace.outcome = LoopOutcome::Lost {
                                                turn,
                                                time_s,
                                                cause: LossCause::Watchdog,
                                            };
                                            trace.events.push(LoopEvent::BeamLost {
                                                turn,
                                                time_s,
                                                cause: LossCause::Watchdog,
                                            });
                                            break 'run;
                                        }
                                    }
                                }
                            }
                        }
                        check_loss = true;
                    }
                }
            }

            // Dispatch everything that fell due on the block's last row, in
            // the queue's fixed (tick, priority, seq) order. The horizon
            // guarantees no event tick lies strictly inside the block, so
            // an early break above can never have skipped a due event.
            let rows_now = trace.times.len() as u64;
            while let Some(kind) = queue.pop_due(rows_now) {
                match kind {
                    SimEvent::Actuation => {
                        // The control output itself was applied on the row
                        // (bit-identity demands it); the event is the
                        // cadence bookkeeping and the horizon constraint.
                        queue.count_fired(SimEvent::Actuation);
                        // Cavity degradation ladder, one tick per completed
                        // actuation: observe the effective gap-voltage scale
                        // on the audit channel, latch sag episodes, and push
                        // any changed compensation command to the plant and
                        // the controller. Healthy plant + policy `None` is a
                        // strict no-op (no events, no commands, no RNG), so
                        // cavity-free supervised runs are bit-identical to
                        // before. The horizon pins this tick to a block
                        // boundary, so the observed scale — and with it the
                        // whole ladder — is block-size invariant.
                        if let Some(s) = sup.as_mut() {
                            let eff = slot.engine().cavity_voltage_scale();
                            if let Some((boost, gain)) = s.supervisor.observe_cavity(
                                rows_now as usize,
                                slot.engine().time(),
                                eff,
                                &mut trace.events,
                            ) {
                                slot.engine().command_voltage(boost);
                                self.controller.set_gain_scale(gain);
                            }
                        }
                        queue.schedule(
                            SimEvent::Actuation,
                            rows_now + u64::from(self.controller.rows_until_actuation()),
                        );
                    }
                    SimEvent::Observer => {
                        queue.count_fired(SimEvent::Observer);
                        let obs = observer
                            .as_mut()
                            .expect("observer event armed without a hook");
                        (obs.hook)(slot.engine());
                        queue.schedule(SimEvent::Observer, rows_now + obs.every_rows);
                    }
                    SimEvent::WallSample => {
                        queue.count_fired(SimEvent::WallSample);
                        if let Some(w) = &mut wall {
                            w.sample();
                        }
                        queue.schedule(SimEvent::WallSample, rows_now + WALL_SAMPLE_ROWS);
                    }
                    SimEvent::Checkpoint => {
                        queue.count_fired(SimEvent::Checkpoint);
                        let c = ckpt
                            .as_mut()
                            .expect("checkpoint event armed without a session");
                        let t0 = Instant::now();
                        let ck = self.snapshot(
                            slot.engine().time(),
                            slot.engine().save_state(),
                            sup.as_ref().map_or(c.kind, |s| *s.kind),
                            sup.as_ref().map_or(0.0, |s| *s.ctrl_phase_rad),
                            last_jump,
                            sup.as_ref().map(|s| &*s.supervisor),
                        );
                        c.session.checkpoint(&trace, ck);
                        if let Some(m) = &self.telemetry {
                            m.checkpoint_writes.inc();
                            m.checkpoint_write_wall.observe(t0.elapsed().as_secs_f64());
                        }
                        // A latched write error pushes the next due row to
                        // usize::MAX — the event stays armed but never
                        // fires again.
                        let until = c.session.rows_until_due(rows_now as usize) as u64;
                        queue.schedule(SimEvent::Checkpoint, rows_now.saturating_add(until));
                    }
                    // A watchdog check that reached its tick found nothing
                    // to do (interventions are counted inline where they
                    // happen); the marker keeps the horizon honest and is
                    // repositioned at the top of the loop.
                    SimEvent::Watchdog => {}
                    SimEvent::FaultEdge | SimEvent::JumpEdge => {
                        unreachable!("time-keyed edges are detected per step, never queued")
                    }
                }
            }
        }
        // Telemetry folds exactly once, at run completion. A cooperative
        // slice that stopped on its row budget comes through here again on
        // a later slice — folding the (whole-prefix-derived) trace counters
        // per slice would double-count them.
        let completed = !trace.outcome.survived() || slot.engine().time() >= duration_s;
        if completed {
            if let Some(m) = &self.telemetry {
                m.note_trace(&trace);
                slot.engine().sample_telemetry(&m.registry);
                m.note_events(&queue, ckpt.is_some());
            }
        }
        Ok(RunCursor { trace, last_jump })
    }

    /// Run the loop on an engine the harness owns, as `spec` says.
    /// Checkpointing is on exactly when [`Self::with_checkpointing`] was
    /// set. A [`LoopSupervisor`] adds a per-revolution deadline budget,
    /// outlier rejection with hold-last-good, actuation clamping, and a
    /// watchdog that demotes the engine through [`EngineKind::demote`]
    /// instead of aborting; a snapshot records the fidelity running now.
    ///
    /// A resume restores everything the snapshot holds (the supervisor's
    /// calibration included), so the trace is bit-identical to an
    /// uninterrupted run's, plus one [`LoopEvent::CheckpointRejected`] per
    /// corrupted newer snapshot. A resume without a checkpoint
    /// configuration is [`crate::error::CilError::InvalidConfig`]; a
    /// checkpoint write failure stops checkpointing and is returned after
    /// the complete run ("succeeded but not resumable").
    pub fn run_spec(&mut self, scenario: &MdeScenario, spec: RunSpec<'_>) -> Result<LoopTrace> {
        let RunSpec {
            duration_s,
            start,
            mut supervisor,
        } = spec;
        let cfg = self.checkpoint.clone();
        if let Some(cfg) = &cfg {
            cfg.validate()?;
        }
        let (mut engine, mut state, mut session) = match start {
            RunStart::Fresh { engine, kind } => {
                let session = cfg.as_ref().map(CheckpointSession::begin).transpose()?;
                // Startup calibration on a scratch engine, so the run stays
                // bit-identical whether or not it happened; the figure
                // replaces the nominal only under `use_measured_step`.
                if let Some(sup) = supervisor.as_deref_mut() {
                    if sup.calibration().is_none_or(|cal| cal.kind != kind) {
                        sup.set_calibration(measure_step_seconds(scenario, kind)?);
                    }
                }
                let state = RunState::fresh(kind, engine.bunches());
                (engine, state, session)
            }
            RunStart::Resume => {
                let cfg = cfg.ok_or_else(|| {
                    crate::error::CilError::InvalidConfig(
                        "a resumed run requires with_checkpointing".into(),
                    )
                })?;
                let resumed = CheckpointSession::resume(&cfg, EngineKind::BUILT_BUNCHES)?;
                let ck = resumed.checkpoint;
                let mut engine = ck.kind.build(scenario)?;
                let mut state = self.restore(
                    &ck,
                    resumed.trace,
                    Some(engine.as_mut()),
                    supervisor.as_deref_mut(),
                    true,
                )?;
                let rejected = LoopEvent::CheckpointRejected {
                    turn: ck.turn as usize,
                    time_s: ck.time_s,
                };
                let events = &mut state.cursor.trace.events;
                events.extend(std::iter::repeat_n(rejected, resumed.rejected));
                (engine, state, Some(resumed.session))
            }
        };
        if let (Some(m), Some(cal)) = (
            &self.telemetry,
            supervisor.as_ref().and_then(|s| s.calibration()),
        ) {
            m.registry
                .gauge(&format!(
                    "cil_supervisor_calibrated_step_wall_seconds{{fidelity=\"{}\"}}",
                    cal.kind.fidelity_label()
                ))
                .set(cal.step_seconds);
        }
        self.run_owned(
            scenario,
            &mut engine,
            &mut state,
            Until::end(duration_s),
            supervisor,
            session.as_mut(),
        )?;
        if let Some(s) = session {
            s.into_result()?;
        }
        Ok(state.cursor.trace)
    }

    /// A fresh supervised run on a new build of `kind` — [`Self::run_spec`]
    /// with a [`LoopSupervisor`] attached.
    pub fn run_supervised(
        &mut self,
        scenario: &MdeScenario,
        kind: EngineKind,
        duration_s: f64,
        supervisor: &mut LoopSupervisor,
    ) -> Result<LoopTrace> {
        self.run_spec(
            scenario,
            RunSpec::fresh(scenario, kind, duration_s)?.supervised(supervisor),
        )
    }

    /// The core behind [`Self::run_spec`] and each [`crate::session`] time
    /// slice: continue `state` on `engine` until `until`. A demotion
    /// rebuilds the engine *in the caller's box* and updates `state.kind`
    /// (an arena must not re-admit the lease under its old key). No startup
    /// calibration here: a fleet must not pay a scratch engine per session.
    /// Telemetry folds only on the call that completes the run.
    pub(crate) fn run_owned(
        &mut self,
        scenario: &MdeScenario,
        engine: &mut Box<dyn BeamEngine>,
        state: &mut RunState,
        until: Until,
        supervisor: Option<&mut LoopSupervisor>,
        session: Option<&mut CheckpointSession>,
    ) -> Result<()> {
        let ckpt = session.map(|session| CkptRun {
            session,
            kind: state.kind,
        });
        let cursor = std::mem::replace(&mut state.cursor, RunCursor::fresh(0));
        let sup = supervisor.map(|supervisor| SupCtx {
            supervisor,
            scenario,
            kind: &mut state.kind,
            ctrl_phase_rad: &mut state.ctrl_phase_rad,
            t_rev: 1.0 / scenario.f_rev,
        });
        state.cursor =
            self.run_dispatch(cursor, &mut LeasedEngine(engine), until, None, ckpt, sup)?;
        Ok(())
    }

    /// The one mapping from loop state to a [`Checkpoint`]; a supervisor
    /// marks it supervised. The writer fills in the fields of the trace it
    /// pairs it with: the log cut and `bunches`.
    pub(crate) fn snapshot(
        &self,
        time_s: f64,
        engine: EngineState,
        kind: EngineKind,
        ctrl_phase_rad: f64,
        last_jump_deg: f64,
        supervisor: Option<&LoopSupervisor>,
    ) -> Checkpoint {
        Checkpoint {
            turn: 0,
            time_s,
            supervised: supervisor.is_some(),
            kind,
            bunches: 0,
            engine,
            controller: self.controller.state(),
            injector: self.faults.state(),
            supervisor: supervisor.map(LoopSupervisor::state),
            ctrl_phase_rad,
            last_jump_deg,
            rows: 0,
            events: 0,
            jumps: 0,
            log_bytes: 0,
            telemetry: self
                .telemetry
                .as_ref()
                .map(LoopMetrics::checkpoint_snapshot),
        }
    }

    /// The one way a [`Checkpoint`] goes back into a harness, with the
    /// `trace` prefix it pairs with. `engine` is `None` for the session
    /// executor, which applies engine state to each slice's lease.
    pub(crate) fn restore(
        &mut self,
        ck: &Checkpoint,
        trace: LoopTrace,
        engine: Option<&mut dyn BeamEngine>,
        supervisor: Option<&mut LoopSupervisor>,
        telemetry: bool,
    ) -> Result<RunState> {
        let incompatible = |what| Err(CheckpointError::Incompatible(what).into());
        if ck.bunches as usize != trace.bunch_phase_deg.len() {
            return incompatible("bunch count differs from the scenario");
        }
        if ck.supervised != supervisor.is_some() {
            return incompatible("supervised and unsupervised runs cannot resume each other");
        }
        if let Some(engine) = engine {
            if !engine.restore_state(&ck.engine) {
                return incompatible("engine state does not fit the scenario");
            }
        }
        if !self.controller.restore(&ck.controller) {
            return incompatible("controller state does not fit the scenario");
        }
        if !self.faults.restore(&ck.injector) {
            return incompatible("fault-injector state does not fit the scenario's fault program");
        }
        if let Some(supervisor) = supervisor {
            let lacking =
                CheckpointError::Malformed("supervised checkpoint lacks supervisor state");
            supervisor.restore(ck.supervisor.as_ref().ok_or(lacking)?);
        }
        if let (true, Some(m), Some(t)) = (telemetry, &self.telemetry, &ck.telemetry) {
            if !m.restore_checkpoint(t) {
                return incompatible("telemetry histogram shape changed");
            }
        }
        Ok(RunState {
            kind: ck.kind,
            ctrl_phase_rad: ck.ctrl_phase_rad,
            cursor: RunCursor {
                trace,
                last_jump: ck.last_jump_deg,
            },
        })
    }
}

/// Checkpoint context threaded through the dispatch loop.
struct CkptRun<'a> {
    session: &'a mut CheckpointSession,
    kind: EngineKind,
}

/// Measure the median per-step wall-clock of `kind` over three warmup steps
/// on a scratch engine (discarded afterwards, so the caller's run is
/// unaffected by the measurement ever having happened).
fn measure_step_seconds(scenario: &MdeScenario, kind: EngineKind) -> Result<StepCalibration> {
    let mut engine = kind.build(scenario)?;
    let mut phase = vec![0.0; engine.bunches()];
    let mut samples = [0.0f64; 3];
    for s in &mut samples {
        let t0 = Instant::now();
        let _ = engine.step(&scenario.jumps, &mut phase);
        *s = t0.elapsed().as_secs_f64();
    }
    samples.sort_by(f64::total_cmp);
    Ok(StepCalibration {
        kind,
        step_seconds: samples[1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineKind, MapEngine};
    use crate::fault::{FaultEvent, FaultKind};

    fn scenario() -> MdeScenario {
        let mut s = MdeScenario::nov24_2023();
        s.duration_s = 0.02;
        s.bunches = 1;
        s
    }

    #[test]
    fn records_one_row_per_turn() {
        let s = scenario();
        let mut engine = MapEngine::from_scenario(&s).unwrap();
        let mut harness = LoopHarness::for_scenario(&s, true);
        let trace = harness.run(&mut engine, s.duration_s);
        assert_eq!(trace.times.len(), s.revolutions());
        assert_eq!(trace.mean_phase_deg.len(), trace.control_hz.len());
        assert_eq!(trace.bunch_phase_deg.len(), 1);
        assert!(trace.survived());
        assert!(trace.events.is_empty());
    }

    #[test]
    fn displaced_jump_program_records_t0_event() {
        // Regression: a jump program already displaced at t = 0 must put
        // its first event at exactly 0.0, so `jump_times[0]`-based analyses
        // cannot panic or mis-window.
        let mut s = scenario();
        s.duration_s = 1e-3;
        s.jumps = PhaseJumpProgram {
            amplitude_deg: 8.0,
            interval_s: 0.05,
            path_latency_s: -0.06,
        };
        let mut engine = MapEngine::from_scenario(&s).unwrap();
        let mut harness = LoopHarness::for_scenario(&s, true);
        let trace = harness.run(&mut engine, s.duration_s);
        assert_eq!(trace.jump_times.first().copied(), Some(0.0));
    }

    #[test]
    fn open_loop_never_actuates() {
        let s = scenario();
        let mut engine = MapEngine::from_scenario(&s).unwrap();
        let mut harness = LoopHarness::for_scenario(&s, false);
        let trace = harness.run(&mut engine, s.duration_s);
        assert!(trace.control_hz.iter().all(|&u| u == 0.0));
    }

    #[test]
    fn observer_sees_every_row() {
        let s = scenario();
        let mut engine = MapEngine::from_scenario(&s).unwrap();
        let mut harness = LoopHarness::for_scenario(&s, true);
        let mut rows = 0usize;
        let trace = harness.run_with(&mut engine, s.duration_s, |_| rows += 1);
        assert_eq!(rows, trace.times.len());
    }

    #[test]
    fn sampled_observer_fires_on_its_cadence_only() {
        let s = scenario();
        let mut engine = MapEngine::from_scenario(&s).unwrap();
        let mut harness = LoopHarness::for_scenario(&s, true);
        let mut fired = 0u64;
        let trace = harness
            .run_with_every(&mut engine, s.duration_s, 100, |_| fired += 1)
            .unwrap();
        assert_eq!(fired, trace.times.len() as u64 / 100);
        // And the sampled-observer trace is identical to an unobserved run.
        let mut engine2 = MapEngine::from_scenario(&s).unwrap();
        let mut harness2 = LoopHarness::for_scenario(&s, true);
        let reference = harness2.run(&mut engine2, s.duration_s);
        assert_eq!(trace.times, reference.times);
        assert_eq!(trace.mean_phase_deg, reference.mean_phase_deg);
        assert_eq!(trace.control_hz, reference.control_hz);
    }

    #[test]
    fn zero_block_rows_is_a_config_error() {
        let s = scenario();
        let err = LoopHarness::for_scenario(&s, true)
            .with_block_rows(0)
            .err()
            .expect("block size 0 must be rejected");
        assert!(matches!(err, crate::error::CilError::InvalidConfig(_)));
    }

    #[test]
    fn zero_observer_cadence_is_a_config_error() {
        let s = scenario();
        let mut engine = MapEngine::from_scenario(&s).unwrap();
        let mut harness = LoopHarness::for_scenario(&s, true);
        let err = harness
            .run_with_every(&mut engine, s.duration_s, 0, |_| {})
            .expect_err("observer cadence 0 must be rejected");
        assert!(matches!(err, crate::error::CilError::InvalidConfig(_)));
    }

    #[test]
    fn boxed_engine_runs_through_the_harness() {
        let s = scenario();
        let mut engine = EngineKind::Map.build(&s).unwrap();
        let mut harness = LoopHarness::for_scenario(&s, true);
        let trace = harness.run(engine.as_mut(), s.duration_s);
        assert_eq!(trace.times.len(), s.revolutions());
    }

    #[test]
    fn injected_beam_loss_stamps_turn_and_cause() {
        let mut s = scenario();
        s.faults = FaultProgram {
            seed: 0,
            events: vec![FaultEvent {
                start_s: 0.01,
                end_s: 0.02,
                kind: FaultKind::BeamLoss,
            }],
        };
        let mut engine = MapEngine::from_scenario(&s).unwrap();
        let mut harness = LoopHarness::for_scenario(&s, true);
        let trace = harness.run(&mut engine, s.duration_s);
        assert!(!trace.survived());
        let LoopOutcome::Lost {
            turn,
            time_s,
            cause,
        } = trace.outcome
        else {
            panic!("expected loss");
        };
        assert_eq!(cause, LossCause::Injected);
        assert!((time_s - 0.01).abs() < 2.0 / s.f_rev, "loss at {time_s}");
        assert_eq!(turn, trace.times.len());
        assert!(matches!(
            trace.events.last(),
            Some(LoopEvent::BeamLost { .. })
        ));
    }

    /// FNV-1a 64 over every file a checkpointed run leaves behind, taken in
    /// name order with each name hashed ahead of its bytes; the directory
    /// is removed afterwards.
    fn dir_digest(dir: &std::path::Path) -> u64 {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for path in files {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            for &b in name.as_bytes().iter().chain(&std::fs::read(&path).unwrap()) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        let _ = std::fs::remove_dir_all(dir);
        h
    }

    fn pin_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cil-harness-pin-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The `CILCKPT` snapshots and `trace.log` a harness-owned run writes
    /// are pinned byte for byte: an unsupervised Map run, a supervised Map
    /// run through a detector-outlier storm with telemetry attached, and a
    /// supervised CGRA run demoted to Map by forced overruns. Each
    /// supervisor is seeded with a fixed calibration, because a measured
    /// one is wall-clock and lands in the bytes.
    #[test]
    fn checkpoint_files_written_by_a_run_are_pinned() {
        let cfg = |dir: &std::path::Path| {
            let mut cfg = CheckpointConfig::new(dir);
            cfg.every_turns = 300;
            cfg
        };
        let calibrated = |s: &MdeScenario, kind| {
            let mut sup = LoopSupervisor::for_scenario(s);
            sup.set_calibration(StepCalibration {
                kind,
                step_seconds: 2.5e-7,
            });
            sup
        };
        let mut got = Vec::new();

        let mut s = scenario();
        s.faults = FaultProgram::detector_outlier_storm(0.005, 0.015, 0.1, 120.0, 0xBAD5EED);
        let dir = pin_dir("plain");
        LoopHarness::for_scenario(&s, true)
            .with_checkpointing(cfg(&dir))
            .run_spec(
                &s,
                RunSpec::fresh(&s, EngineKind::Map, s.duration_s).unwrap(),
            )
            .unwrap();
        got.push(dir_digest(&dir));

        let dir = pin_dir("storm");
        let mut sup = calibrated(&s, EngineKind::Map);
        LoopHarness::for_scenario(&s, true)
            .with_telemetry(&TelemetryRegistry::new())
            .with_checkpointing(cfg(&dir))
            .run_supervised(&s, EngineKind::Map, s.duration_s, &mut sup)
            .unwrap();
        got.push(dir_digest(&dir));

        let mut s = scenario();
        s.faults = FaultProgram {
            seed: 0,
            events: vec![FaultEvent {
                start_s: 0.005,
                end_s: 0.02,
                kind: FaultKind::DeadlineOverrun { factor: 3.0 },
            }],
        };
        let dir = pin_dir("demotion");
        let mut sup = calibrated(&s, EngineKind::Cgra);
        let trace = LoopHarness::for_scenario(&s, true)
            .with_checkpointing(cfg(&dir))
            .run_supervised(&s, EngineKind::Cgra, s.duration_s, &mut sup)
            .unwrap();
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e, LoopEvent::EngineDemoted { .. })));
        got.push(dir_digest(&dir));

        assert_eq!(
            got,
            [
                0x6600_eb01_41ff_e821,
                0x2924_82dd_977a_f188,
                0xec59_50e0_fcf3_7483
            ]
        );
    }

    #[test]
    fn supervised_clean_run_matches_plain_loop_length() {
        let s = scenario();
        let mut harness = LoopHarness::for_scenario(&s, true);
        let mut sup = LoopSupervisor::for_scenario(&s);
        let trace = harness
            .run_supervised(&s, EngineKind::Map, s.duration_s, &mut sup)
            .unwrap();
        assert!(trace.survived());
        assert_eq!(trace.times.len(), s.revolutions());
        assert!(
            !trace
                .events
                .iter()
                .any(|e| matches!(e, LoopEvent::EngineDemoted { .. })),
            "clean run must not demote"
        );
    }
}
