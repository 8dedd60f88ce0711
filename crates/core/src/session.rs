//! The multi-session execution core: thousands of concurrent closed-loop
//! sessions on one box.
//!
//! The ROADMAP's "HIL-as-a-service" target is a *fleet*, not a single
//! loop — the ESS cavity-simulator deployment runs 120+ plant instances
//! concurrently, and LLRF development wants many always-on sessions to
//! exercise controllers against. Per-loop performance is already solved
//! (plan+batched stepping, the event core, wide-lane RefTrack); what is
//! left is sessions-per-box, which is purely a scheduling and sharing
//! problem. This module solves it with four pieces the rest of the crate
//! already provides:
//!
//! * **Cooperative time slices.** Every session is a resumable closed-loop
//!   job on the event core: the harness core behind
//!   [`LoopHarness::run_spec`] runs at most [`MuxConfig::slice_rows`]
//!   measured rows per dispatch, then returns the live run state. A slice
//!   boundary is just an extra block boundary, so the recorded trace,
//!   audit events and deterministic telemetry are bit-identical to an
//!   unsliced [`LoopHarness::run_supervised`] — no session can starve the
//!   fleet, and slicing costs nothing in fidelity.
//! * **Work-stealing workers.** The [`SessionMux`] owns one run queue per
//!   worker (one OS thread each); a worker pops its own queue front and
//!   steals from other queues' backs when idle. Sessions requeue onto the
//!   worker that last ran them, so engine-arena affinity is preserved
//!   unless load imbalance forces a steal.
//! * **Per-worker engine arenas.** Engines are not `Send`, so sessions
//!   carry only their plain-data [`EngineState`] between slices; each
//!   worker leases a warm engine from its private [`EngineArena`]
//!   ([`EngineArena::checkout`]), restores the session's state on top,
//!   and checks the engine back in after the slice. All workers share the
//!   process-wide [`cil_cgra::cache::global`] compiled-kernel cache, so
//!   kernel compilation is paid once per scenario shape.
//! * **Checkpoint-backed eviction.** A session parked longer than
//!   [`MuxConfig::evict_after`] is serialised to `CILCKPT` bytes (the
//!   PR 4 snapshot format plus one framed trace block) and its live state
//!   dropped; the next touch restores it transparently on a worker. The
//!   restore path is the checkpoint layer's resume path, so an evicted
//!   session's trace and telemetry stay bit-identical to an unevicted
//!   run. [`SessionHandle::snapshot`] exposes the same bytes for
//!   cross-mux migration ([`SessionMux::create_from_snapshot`]).
//!
//! What is *not* shared between sessions: controller, supervisor, fault
//! injector, trace, per-session telemetry registry and engine state are
//! all private per session. Shared: worker threads, engine arenas (rewound
//! between leases), the compiled-kernel cache, and the fleet registry.
//!
//! Fleet telemetry flows through the existing [`TelemetryRegistry`]:
//! sessions live/evicted/restored, dispatch-latency and slice wall-clock
//! histograms, steal counters and the arena hit/miss totals
//! ([`SessionMux::telemetry`]).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::checkpoint::{
    decode_snapshot, decode_trace_log, encode_snapshot, encode_trace_block, Checkpoint,
    CheckpointError,
};
use crate::engine::{EngineKind, EngineState};
use crate::error::{CilError, Result};
use crate::fault::{LoopSupervisor, SupervisorConfig};
use crate::harness::{LoopHarness, LoopTrace, RunState, Until, DEFAULT_BLOCK_ROWS};
use crate::scenario::MdeScenario;
use crate::sweep::{EngineArena, ARENA_SLOTS};
use crate::telemetry::{Counter, Gauge, Histogram, TelemetryRegistry};

/// Session-record shards (fixed; ids hash by modulo). More shards than
/// workers keeps handle operations and worker postludes from contending on
/// one map lock.
const SHARDS: usize = 16;

/// How long an idle worker parks before rechecking queues (and whether a
/// shard is due an eviction scan). Pushes notify the condvar, so this
/// bounds only the *eviction* latency, not dispatch latency.
const IDLE_PARK: Duration = Duration::from_micros(500);

/// Configuration of a [`SessionMux`].
#[derive(Debug, Clone)]
pub struct MuxConfig {
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// Cooperative time-slice budget: measured rows per dispatch before a
    /// session is requeued. Must be ≥ 1.
    pub slice_rows: u64,
    /// Measured rows per engine step block inside a slice (block-size
    /// invariance makes this a pure throughput knob). Must be ≥ 1.
    pub block_rows: usize,
    /// Evict sessions parked longer than this to checkpoint bytes
    /// (`None` = never evict automatically; [`SessionHandle::evict`] still
    /// works).
    pub evict_after: Option<Duration>,
    /// Warm engines each worker's arena keeps (floored at 1).
    pub arena_slots: usize,
}

impl Default for MuxConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            slice_rows: 1024,
            block_rows: DEFAULT_BLOCK_ROWS,
            evict_after: None,
            arena_slots: ARENA_SLOTS,
        }
    }
}

/// Everything needed to (re)build one session's loop: the immutable
/// configuration half of a session (the mutable half lives in the session
/// body and its checkpoint bytes).
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The experiment the session runs.
    pub scenario: MdeScenario,
    /// Starting engine fidelity (the supervisor may demote it mid-run).
    pub kind: EngineKind,
    /// Scheduled end time, seconds of engine time.
    pub duration_s: f64,
    /// Supervision policy.
    pub supervisor: SupervisorConfig,
    /// Per-session loop telemetry, recorded into this registry when set.
    /// The registry persists in the session record across eviction, so
    /// evicted-and-restored sessions export the same totals as undisturbed
    /// ones.
    pub registry: Option<TelemetryRegistry>,
    /// Whether the beam-phase control loop is closed.
    pub control_enabled: bool,
}

impl SessionSpec {
    /// Spec running `scenario` to its own duration under
    /// [`SupervisorConfig::for_scenario`], closed-loop, no telemetry.
    pub fn new(scenario: MdeScenario, kind: EngineKind) -> Self {
        let supervisor = SupervisorConfig::for_scenario(&scenario);
        let duration_s = scenario.duration_s;
        Self {
            scenario,
            kind,
            duration_s,
            supervisor,
            registry: None,
            control_enabled: true,
        }
    }

    /// Record this session's loop telemetry into `registry` (builder
    /// style).
    pub fn with_registry(mut self, registry: &TelemetryRegistry) -> Self {
        self.registry = Some(registry.clone());
        self
    }
}

/// Where a session asked to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// Stop at the next slice boundary.
    Pause,
    /// Park once the trace holds at least this many rows.
    Rows(u64),
    /// Run to the scenario end (or beam loss).
    End,
}

/// The mutable, `Send` half of a live session: everything
/// [`LoopHarness::run_owned`] needs, *except* the engine, which is leased
/// per slice from the dispatching worker's arena and carried between
/// slices as plain [`EngineState`] data.
struct SessionBody {
    harness: LoopHarness,
    supervisor: LoopSupervisor,
    state: RunState,
    /// `None` until the first slice has run (a fresh lease is already
    /// bit-identical to a new build, so there is nothing to restore).
    engine_state: Option<EngineState>,
    /// Engine time after the last slice, seconds.
    time_s: f64,
}

/// A parked or queued session's state: live, or evicted to checkpoint
/// bytes (restored lazily on the next dispatch).
enum Work {
    Body(Box<SessionBody>),
    Bytes(Vec<u8>),
}

/// Session lifecycle.
enum Phase {
    /// Not queued; waiting for a step/resume (or for the eviction scan).
    Parked(Work),
    /// In a run queue, waiting for a worker.
    Queued(Work),
    /// A worker holds the body and is running a slice.
    Running,
    /// Ran to scheduled end or beam loss; the trace is ready to join.
    Finished(Box<LoopTrace>),
    /// A slice or restore failed; the message is surfaced by
    /// [`SessionHandle::join`].
    Failed(String),
    /// Killed.
    Dead,
}

struct SessionRecord {
    spec: Arc<SessionSpec>,
    phase: Phase,
    target: Target,
    /// Target to re-arm on [`SessionHandle::resume`] after a pause.
    resume_target: Target,
    killed: bool,
    /// True only for sessions seeded from external snapshot bytes
    /// ([`SessionMux::create_from_snapshot`]): the first restore must
    /// re-apply the snapshot's mid-run telemetry onto the (fresh)
    /// registry. In-mux eviction keeps the registry alive in this record,
    /// so re-applying would double-count.
    restore_telemetry: bool,
    rows: u64,
    time_s: f64,
    /// Set when the session was pushed to a run queue; cleared at
    /// dispatch (feeds the dispatch-latency histogram).
    enqueued_at: Option<Instant>,
    last_touch: Instant,
}

struct Shard {
    sessions: Mutex<HashMap<u64, SessionRecord>>,
    cv: Condvar,
}

/// Fleet-level metric handles, resolved once against the mux's registry.
struct FleetMetrics {
    registry: TelemetryRegistry,
    live: Gauge,
    live_count: AtomicI64,
    created: Counter,
    finished: Counter,
    failed: Counter,
    killed: Counter,
    evicted: Counter,
    restored: Counter,
    steals: Counter,
    dispatches: Counter,
    dispatch_latency: Histogram,
    slice_wall: Histogram,
}

impl FleetMetrics {
    fn new(registry: TelemetryRegistry) -> Self {
        Self {
            live: registry.gauge("cil_mux_sessions_live"),
            live_count: AtomicI64::new(0),
            created: registry.counter("cil_mux_sessions_created_total"),
            finished: registry.counter("cil_mux_sessions_finished_total"),
            failed: registry.counter("cil_mux_sessions_failed_total"),
            killed: registry.counter("cil_mux_sessions_killed_total"),
            evicted: registry.counter("cil_mux_evictions_total"),
            restored: registry.counter("cil_mux_restores_total"),
            steals: registry.counter("cil_mux_steals_total"),
            dispatches: registry.counter("cil_mux_dispatches_total"),
            dispatch_latency: registry.histogram("cil_mux_dispatch_latency_wall_seconds"),
            slice_wall: registry.histogram("cil_mux_slice_wall_seconds"),
            registry,
        }
    }

    fn session_opened(&self) {
        self.created.inc();
        let n = self.live_count.fetch_add(1, Ordering::Relaxed) + 1;
        self.live.set(n as f64);
    }

    fn session_closed(&self, outcome: &Counter) {
        outcome.inc();
        let n = self.live_count.fetch_sub(1, Ordering::Relaxed) - 1;
        self.live.set(n as f64);
    }
}

struct MuxShared {
    cfg: MuxConfig,
    shards: Vec<Shard>,
    /// One run queue per worker; a worker pops its own front and steals
    /// from other backs.
    queues: Vec<Mutex<VecDeque<u64>>>,
    /// Wakeup channel for idle workers (version counter + condvar).
    work: (Mutex<u64>, Condvar),
    next_id: AtomicU64,
    shutdown: AtomicBool,
    fleet: FleetMetrics,
}

impl MuxShared {
    fn shard(&self, id: u64) -> &Shard {
        &self.shards[(id as usize) % self.shards.len()]
    }

    /// Push a session onto a run queue and wake a worker.
    fn push_job(&self, queue: usize, id: u64) {
        self.queues[queue % self.queues.len()]
            .lock()
            .unwrap()
            .push_back(id);
        let (lock, cv) = &self.work;
        *lock.lock().unwrap() += 1;
        cv.notify_all();
    }
}

/// The work-stealing multi-session executor. Owns its worker threads;
/// dropping the mux shuts the workers down (sessions still queued at that
/// point never run, and their handles' waits return an error).
pub struct SessionMux {
    shared: Arc<MuxShared>,
    workers: Vec<JoinHandle<()>>,
}

/// A cloneable typed handle to one session in a [`SessionMux`]. Handles
/// stay valid after the mux is dropped (terminal-state queries still
/// answer), but waits on a shut-down mux return a
/// [`CilError::Session`] error.
#[derive(Clone)]
pub struct SessionHandle {
    shared: Arc<MuxShared>,
    id: u64,
}

/// Coarse public session lifecycle, for [`SessionStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Parked with live in-memory state.
    Parked,
    /// Parked as checkpoint bytes (restored transparently on next touch).
    Evicted,
    /// Waiting in a run queue.
    Queued,
    /// A worker is running a slice right now.
    Running,
    /// Ran to scheduled end or beam loss.
    Finished,
    /// A slice or restore failed.
    Failed,
    /// Killed.
    Dead,
}

impl SessionState {
    /// True for states the session can never leave.
    pub fn is_terminal(self) -> bool {
        matches!(self, Self::Finished | Self::Failed | Self::Dead)
    }
}

/// Point-in-time view of one session.
#[derive(Debug, Clone)]
pub struct SessionStatus {
    /// Lifecycle state.
    pub state: SessionState,
    /// Trace rows recorded so far.
    pub rows: u64,
    /// Engine time reached so far, seconds.
    pub time_s: f64,
    /// Failure message, for [`SessionState::Failed`].
    pub error: Option<String>,
}

impl SessionMux {
    /// Start a mux with `cfg.workers` worker threads (0 = one per
    /// available core).
    pub fn new(cfg: MuxConfig) -> Result<Self> {
        if cfg.slice_rows == 0 {
            return Err(CilError::InvalidConfig(
                "session time-slice budget (slice_rows) must be >= 1".into(),
            ));
        }
        if cfg.block_rows == 0 {
            return Err(CilError::InvalidConfig(
                "block size (measured rows per step block) must be >= 1".into(),
            ));
        }
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            cfg.workers
        };
        let shared = Arc::new(MuxShared {
            cfg,
            shards: (0..SHARDS)
                .map(|_| Shard {
                    sessions: Mutex::new(HashMap::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            work: (Mutex::new(0), Condvar::new()),
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            fleet: FleetMetrics::new(TelemetryRegistry::new()),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cil-mux-{w}"))
                    .spawn(move || worker_main(&shared, w))
                    .map_err(|e| CilError::Session(format!("failed to spawn worker thread: {e}")))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            shared,
            workers: handles,
        })
    }

    /// The fleet registry (sessions live/evicted/restored, dispatch
    /// latency, steals, arena hit/miss totals). Arena counters are folded
    /// in when workers exit (mux drop); everything else is live.
    pub fn telemetry(&self) -> &TelemetryRegistry {
        &self.shared.fleet.registry
    }

    /// Create a session, parked. [`SessionHandle::run_to_end`],
    /// [`SessionHandle::step_to`] or [`SessionHandle::resume`] start it.
    pub fn create(&self, spec: SessionSpec) -> Result<SessionHandle> {
        let body = build_body(&spec, self.shared.cfg.block_rows)?;
        self.insert(
            spec,
            Phase::Parked(Work::Body(Box::new(body))),
            0,
            0.0,
            false,
        )
    }

    /// Create a session from [`SessionHandle::snapshot`] bytes — possibly
    /// from another mux or a previous process. The bytes are validated
    /// eagerly against `spec`; the full restore happens on first dispatch.
    /// The snapshot's mid-run telemetry is re-applied onto `spec`'s (fresh)
    /// registry, as a resumed [`LoopHarness::run_spec`] does, so the
    /// continued session's exported totals match an uninterrupted run.
    pub fn create_from_snapshot(&self, spec: SessionSpec, bytes: Vec<u8>) -> Result<SessionHandle> {
        let (ck, _) = split_evicted(&bytes, EngineKind::BUILT_BUNCHES)?;
        let rows = ck.turn;
        let time_s = ck.time_s;
        self.insert(spec, Phase::Parked(Work::Bytes(bytes)), rows, time_s, true)
    }

    fn insert(
        &self,
        spec: SessionSpec,
        phase: Phase,
        rows: u64,
        time_s: f64,
        restore_telemetry: bool,
    ) -> Result<SessionHandle> {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let record = SessionRecord {
            spec: Arc::new(spec),
            phase,
            target: Target::End,
            resume_target: Target::End,
            killed: false,
            restore_telemetry,
            rows,
            time_s,
            enqueued_at: None,
            last_touch: Instant::now(),
        };
        self.shared
            .shard(id)
            .sessions
            .lock()
            .unwrap()
            .insert(id, record);
        self.shared.fleet.session_opened();
        Ok(SessionHandle {
            shared: Arc::clone(&self.shared),
            id,
        })
    }
}

impl Drop for SessionMux {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work.1.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        for shard in &self.shared.shards {
            shard.cv.notify_all();
        }
    }
}

impl SessionHandle {
    /// This session's mux-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Run until the trace holds at least `rows` rows (or the run ends
    /// first). Returns immediately; [`Self::wait`] blocks until parked.
    pub fn step_to(&self, rows: u64) -> Result<()> {
        self.arm(Target::Rows(rows))
    }

    /// Run to the scenario end (or beam loss). Returns immediately;
    /// [`Self::join`] blocks for the trace.
    pub fn run_to_end(&self) -> Result<()> {
        self.arm(Target::End)
    }

    /// Re-arm the target in force before the last [`Self::pause`] and
    /// requeue.
    pub fn resume(&self) -> Result<()> {
        let target = self.wait_for(|rec| Some(Ok(rec.resume_target)))?;
        self.arm(target)
    }

    fn arm(&self, target: Target) -> Result<()> {
        let shard = self.shared.shard(self.id);
        let mut map = shard.sessions.lock().unwrap();
        let rec = map.get_mut(&self.id).ok_or_else(|| self.unknown())?;
        match &rec.phase {
            Phase::Finished(_) => return Ok(()), // nothing left to run
            Phase::Failed(msg) => return Err(CilError::Session(msg.clone())),
            Phase::Dead => return Err(CilError::Session("session was killed".into())),
            Phase::Parked(_) | Phase::Queued(_) | Phase::Running => {}
        }
        rec.target = target;
        rec.resume_target = target;
        rec.last_touch = Instant::now();
        if matches!(rec.phase, Phase::Parked(_)) {
            let Phase::Parked(work) = std::mem::replace(&mut rec.phase, Phase::Running) else {
                unreachable!("matched Parked above");
            };
            rec.phase = Phase::Queued(work);
            rec.enqueued_at = Some(Instant::now());
            drop(map);
            let queues = self.shared.queues.len();
            self.shared.push_job(self.id as usize % queues, self.id);
            shard.cv.notify_all();
        }
        Ok(())
    }

    /// Stop at the next slice boundary and park. A queued session is
    /// parked immediately; a running one parks when its slice returns.
    pub fn pause(&self) -> Result<()> {
        let shard = self.shared.shard(self.id);
        let mut map = shard.sessions.lock().unwrap();
        let rec = map.get_mut(&self.id).ok_or_else(|| self.unknown())?;
        rec.target = Target::Pause;
        if matches!(rec.phase, Phase::Queued(_)) {
            let Phase::Queued(work) = std::mem::replace(&mut rec.phase, Phase::Running) else {
                unreachable!("matched Queued above");
            };
            // The stale run-queue entry is harmless: dispatch ignores
            // sessions that are not Queued.
            rec.phase = Phase::Parked(work);
            rec.enqueued_at = None;
        }
        drop(map);
        shard.cv.notify_all();
        Ok(())
    }

    /// Kill the session. Parked and queued sessions die immediately;
    /// a running one dies when its slice returns. Terminal sessions are
    /// left as they are.
    pub fn kill(&self) -> Result<()> {
        let shard = self.shared.shard(self.id);
        let mut map = shard.sessions.lock().unwrap();
        let rec = map.get_mut(&self.id).ok_or_else(|| self.unknown())?;
        rec.killed = true;
        if matches!(rec.phase, Phase::Parked(_) | Phase::Queued(_)) {
            rec.phase = Phase::Dead;
            self.shared.fleet.session_closed(&self.shared.fleet.killed);
        }
        drop(map);
        shard.cv.notify_all();
        Ok(())
    }

    /// Point-in-time status.
    pub fn status(&self) -> Result<SessionStatus> {
        self.wait_for(|rec| Some(Ok(status_of(rec))))
    }

    /// This session's loop-telemetry registry, when one was attached.
    pub fn registry(&self) -> Result<Option<TelemetryRegistry>> {
        self.wait_for(|rec| Some(Ok(rec.spec.registry.clone())))
    }

    /// Block until the session is parked or terminal (i.e. not queued and
    /// not running), and return its status.
    pub fn wait(&self) -> Result<SessionStatus> {
        self.wait_for(|rec| {
            let settled = !matches!(rec.phase, Phase::Queued(_) | Phase::Running);
            settled.then(|| Ok(status_of(rec)))
        })
    }

    /// Block until the session is terminal and return its trace.
    /// [`SessionState::Failed`] and [`SessionState::Dead`] surface as
    /// [`CilError::Session`]. The trace is cloned, so every clone of the
    /// handle can join.
    pub fn join(&self) -> Result<LoopTrace> {
        self.wait_for(|rec| match &rec.phase {
            Phase::Finished(trace) => Some(Ok((**trace).clone())),
            Phase::Failed(msg) => Some(Err(CilError::Session(msg.clone()))),
            Phase::Dead => Some(Err(CilError::Session("session was killed".into()))),
            _ => None,
        })
    }

    /// Serialise the session to `CILCKPT` bytes: a framed snapshot of the
    /// complete mutable loop state plus one framed trace block. Waits out
    /// a running slice first. The bytes restore bit-identically through
    /// [`SessionMux::create_from_snapshot`] — on this mux, another, or a
    /// later process. The session itself is left untouched.
    pub fn snapshot(&self) -> Result<Vec<u8>> {
        self.wait_for(|rec| match &rec.phase {
            Phase::Parked(work) | Phase::Queued(work) => Some(match work {
                Work::Bytes(bytes) => Ok(bytes.clone()),
                Work::Body(body) => serialize_body(&rec.spec, body, rec.rows),
            }),
            Phase::Running => None,
            Phase::Finished(_) => Some(Err(CilError::Session(
                "session already finished; join it for the trace".into(),
            ))),
            Phase::Failed(msg) => Some(Err(CilError::Session(msg.clone()))),
            Phase::Dead => Some(Err(CilError::Session("session was killed".into()))),
        })
    }

    /// Answer from the session's record under its shard lock. While
    /// `ready` has no answer, block and recheck on every wakeup; a
    /// shut-down mux ends the wait.
    fn wait_for<T>(&self, ready: impl Fn(&SessionRecord) -> Option<Result<T>>) -> Result<T> {
        let shard = self.shared.shard(self.id);
        let mut map = shard.sessions.lock().unwrap();
        loop {
            let rec = map.get(&self.id).ok_or_else(|| self.unknown())?;
            if let Some(answer) = ready(rec) {
                return answer;
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                return Err(CilError::Session("session executor shut down".into()));
            }
            map = shard
                .cv
                .wait_timeout(map, Duration::from_millis(50))
                .unwrap()
                .0;
        }
    }

    fn unknown(&self) -> CilError {
        CilError::Session(format!("unknown session {}", self.id))
    }

    /// Force-evict a *parked* session to checkpoint bytes right now,
    /// regardless of [`MuxConfig::evict_after`]. Returns `true` when the
    /// session was evicted (false: already evicted, never ran, queued,
    /// running, or terminal).
    pub fn evict(&self) -> Result<bool> {
        let shard = self.shared.shard(self.id);
        let mut map = shard.sessions.lock().unwrap();
        let rec = map.get_mut(&self.id).ok_or_else(|| self.unknown())?;
        Ok(evict_record(rec, &self.shared.fleet))
    }
}

fn status_of(rec: &SessionRecord) -> SessionStatus {
    let (state, error) = match &rec.phase {
        Phase::Parked(Work::Body(_)) => (SessionState::Parked, None),
        Phase::Parked(Work::Bytes(_)) => (SessionState::Evicted, None),
        Phase::Queued(_) => (SessionState::Queued, None),
        Phase::Running => (SessionState::Running, None),
        Phase::Finished(_) => (SessionState::Finished, None),
        Phase::Failed(msg) => (SessionState::Failed, Some(msg.clone())),
        Phase::Dead => (SessionState::Dead, None),
    };
    SessionStatus {
        state,
        rows: rec.rows,
        time_s: rec.time_s,
        error,
    }
}

/// Evict one record if (and only if) it is parked with live, previously
/// run state. Serialisation failures park the session as Failed.
fn evict_record(rec: &mut SessionRecord, fleet: &FleetMetrics) -> bool {
    let Phase::Parked(Work::Body(body)) = &rec.phase else {
        return false;
    };
    if body.engine_state.is_none() {
        // Never ran: there is no engine state to capture, and the body is
        // nothing but the spec's defaults — eviction would save nothing.
        return false;
    }
    match serialize_body(&rec.spec, body, rec.rows) {
        Ok(bytes) => {
            rec.phase = Phase::Parked(Work::Bytes(bytes));
            fleet.evicted.inc();
            true
        }
        Err(e) => {
            rec.phase = Phase::Failed(e.to_string());
            fleet.session_closed(&fleet.failed);
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Session body construction / serialisation
// ---------------------------------------------------------------------------

/// Build a fresh (row-zero) session body from its spec.
fn build_body(spec: &SessionSpec, block_rows: usize) -> Result<SessionBody> {
    let mut harness = LoopHarness::for_scenario(&spec.scenario, spec.control_enabled)
        .with_block_rows(block_rows)?;
    if let Some(registry) = &spec.registry {
        harness = harness.with_telemetry(registry);
    }
    Ok(SessionBody {
        harness,
        supervisor: LoopSupervisor::new(spec.supervisor),
        state: RunState::fresh(spec.kind, EngineKind::BUILT_BUNCHES),
        engine_state: None,
        time_s: 0.0,
    })
}

/// Serialise a session body to eviction bytes:
/// `[u64 le snapshot_len][CILCKPT snapshot][framed trace block]`.
fn serialize_body(spec: &SessionSpec, body: &SessionBody, rows: u64) -> Result<Vec<u8>> {
    let run = &body.state;
    let engine = match &body.engine_state {
        Some(state) => state.clone(),
        // Snapshot of a session that never ran a slice: a fresh build's
        // state is exactly what a restore should produce.
        None => run.kind.build(&spec.scenario)?.save_state(),
    };
    let mut ck = body.harness.snapshot(
        body.time_s,
        engine,
        run.kind,
        run.ctrl_phase_rad,
        run.cursor.last_jump,
        Some(&body.supervisor),
    );
    // The cut covers the whole trace, which travels in one block.
    let trace = &run.cursor.trace;
    ck.turn = rows;
    ck.rows = rows;
    ck.events = trace.events.len() as u64;
    ck.jumps = trace.jump_times.len() as u64;
    ck.bunches = trace.bunch_phase_deg.len() as u32;
    let snap = encode_snapshot(&ck);
    let block = encode_trace_block(trace, 0, 0, 0);
    let mut out = Vec::with_capacity(8 + snap.len() + block.len());
    out.extend_from_slice(&(snap.len() as u64).to_le_bytes());
    out.extend_from_slice(&snap);
    out.extend_from_slice(&block);
    Ok(out)
}

/// Split eviction bytes back into their snapshot and trace prefix. The
/// snapshot's bunch count must equal `bunches` (the built engines') before
/// the trace is decoded against it.
fn split_evicted(bytes: &[u8], bunches: usize) -> Result<(Checkpoint, LoopTrace)> {
    if bytes.len() < 8 {
        return Err(CheckpointError::TooShort.into());
    }
    let snap_len = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
    let rest = &bytes[8..];
    if rest.len() < snap_len {
        return Err(CheckpointError::TooShort.into());
    }
    let ck = decode_snapshot(&rest[..snap_len])?;
    if ck.bunches as usize != bunches {
        return Err(CheckpointError::Incompatible("bunch count differs from the scenario").into());
    }
    let trace = decode_trace_log(&rest[snap_len..], bunches)?;
    Ok((ck, trace))
}

/// Rebuild a live session body from eviction bytes. `restore_telemetry`
/// re-applies the snapshot's mid-run telemetry (external snapshots into a
/// fresh registry); in-mux restores skip it — the registry never left the
/// session record, so its values are already correct.
fn restore_body(
    spec: &SessionSpec,
    bytes: &[u8],
    block_rows: usize,
    restore_telemetry: bool,
) -> Result<SessionBody> {
    let (ck, trace) = split_evicted(bytes, EngineKind::BUILT_BUNCHES)?;
    let mut body = build_body(spec, block_rows)?;
    body.state = body.harness.restore(
        &ck,
        trace,
        None,
        Some(&mut body.supervisor),
        restore_telemetry,
    )?;
    body.engine_state = Some(ck.engine);
    body.time_s = ck.time_s;
    Ok(body)
}

// ---------------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------------

fn worker_main(shared: &MuxShared, worker: usize) {
    let mut arena = EngineArena::with_slots(shared.cfg.arena_slots);
    let mut evict_cursor = worker; // stagger scan starts across workers
    while !shared.shutdown.load(Ordering::Acquire) {
        match next_job(shared, worker) {
            Some(id) => dispatch(shared, &mut arena, worker, id),
            None => {
                if shared.cfg.evict_after.is_some() {
                    scan_evictions(shared, evict_cursor % shared.shards.len());
                    evict_cursor = evict_cursor.wrapping_add(1);
                }
                let (lock, cv) = &shared.work;
                let guard = lock.lock().unwrap();
                let _ = cv.wait_timeout(guard, IDLE_PARK).unwrap();
            }
        }
    }
    // Fold this worker's arena reuse counters into the fleet registry
    // (counters sum across workers, so the totals are fleet-exact).
    arena.sample_telemetry(&shared.fleet.registry);
}

/// Pop the worker's own queue front, else steal another queue's back.
fn next_job(shared: &MuxShared, worker: usize) -> Option<u64> {
    if let Some(id) = shared.queues[worker].lock().unwrap().pop_front() {
        return Some(id);
    }
    let n = shared.queues.len();
    for i in 1..n {
        let victim = (worker + i) % n;
        if let Some(id) = shared.queues[victim].lock().unwrap().pop_back() {
            shared.fleet.steals.inc();
            return Some(id);
        }
    }
    None
}

/// Evict every over-deadline parked session in one shard.
fn scan_evictions(shared: &MuxShared, shard_idx: usize) {
    let Some(deadline) = shared.cfg.evict_after else {
        return;
    };
    let shard = &shared.shards[shard_idx];
    let mut map = shard.sessions.lock().unwrap();
    let mut changed = false;
    for rec in map.values_mut() {
        if rec.last_touch.elapsed() >= deadline {
            changed |= evict_record(rec, &shared.fleet);
        }
    }
    drop(map);
    if changed {
        shard.cv.notify_all();
    }
}

/// Run one cooperative time slice of session `id` on this worker.
fn dispatch(shared: &MuxShared, arena: &mut EngineArena, worker: usize, id: u64) {
    let shard = shared.shard(id);
    // Claim the session. Stale queue entries (paused, killed, already
    // claimed) are simply dropped.
    let (work, spec, target, restore_telemetry) = {
        let mut map = shard.sessions.lock().unwrap();
        let Some(rec) = map.get_mut(&id) else { return };
        if !matches!(rec.phase, Phase::Queued(_)) {
            return;
        }
        let Phase::Queued(work) = std::mem::replace(&mut rec.phase, Phase::Running) else {
            unreachable!("matched Queued above");
        };
        if let Some(t0) = rec.enqueued_at.take() {
            shared
                .fleet
                .dispatch_latency
                .observe(t0.elapsed().as_secs_f64());
        }
        shared.fleet.dispatches.inc();
        (
            work,
            Arc::clone(&rec.spec),
            rec.target,
            rec.restore_telemetry,
        )
    };

    let t_slice = Instant::now();
    let mut body = match work {
        Work::Body(body) => body,
        Work::Bytes(bytes) => {
            match restore_body(&spec, &bytes, shared.cfg.block_rows, restore_telemetry) {
                Ok(body) => {
                    shared.fleet.restored.inc();
                    Box::new(body)
                }
                Err(e) => {
                    let mut map = shard.sessions.lock().unwrap();
                    if let Some(rec) = map.get_mut(&id) {
                        rec.phase = Phase::Failed(e.to_string());
                        shared.fleet.session_closed(&shared.fleet.failed);
                    }
                    drop(map);
                    shard.cv.notify_all();
                    return;
                }
            }
        }
    };

    // The slice itself: lease an engine, restore the session's state on
    // top, run up to slice_rows more rows, save the state back.
    let rows_before = body.state.cursor.trace.times.len() as u64;
    let limit = match target {
        Target::Pause => rows_before,
        Target::Rows(n) => n.min(rows_before + shared.cfg.slice_rows),
        Target::End => rows_before + shared.cfg.slice_rows,
    };
    let slice_result: Result<()> = (|| {
        if limit <= rows_before {
            return Ok(());
        }
        let mut lease = arena.checkout(&spec.scenario, body.state.kind)?;
        if let Some(state) = &body.engine_state {
            if !lease.engine().restore_state(state) {
                return Err(CheckpointError::Incompatible(
                    "saved engine state does not fit a freshly built engine",
                )
                .into());
            }
        }
        let until = Until {
            duration_s: spec.duration_s,
            limit_rows: Some(limit),
        };
        body.harness.run_owned(
            &spec.scenario,
            lease.engine(),
            &mut body.state,
            until,
            Some(&mut body.supervisor),
            None,
        )?;
        body.engine_state = Some(lease.engine().save_state());
        body.time_s = lease.engine().time();
        // A demotion rebuilt the engine in the lease's box; the arena must
        // not re-admit it under the checkout key.
        if lease.kind() == body.state.kind {
            arena.checkin(lease);
        }
        Ok(())
    })();
    shared
        .fleet
        .slice_wall
        .observe(t_slice.elapsed().as_secs_f64());

    // Postlude: decide the session's next phase under the shard lock,
    // honouring any pause/kill that arrived mid-slice.
    let mut map = shard.sessions.lock().unwrap();
    let Some(rec) = map.get_mut(&id) else { return };
    rec.restore_telemetry = false;
    rec.rows = body.state.cursor.trace.times.len() as u64;
    rec.time_s = body.time_s;
    rec.last_touch = Instant::now();
    match slice_result {
        Err(e) => {
            rec.phase = Phase::Failed(e.to_string());
            shared.fleet.session_closed(&shared.fleet.failed);
        }
        Ok(()) => {
            let trace = &body.state.cursor.trace;
            let completed = !trace.outcome.survived() || body.time_s >= spec.duration_s;
            if rec.killed {
                rec.phase = Phase::Dead;
                shared.fleet.session_closed(&shared.fleet.killed);
            } else if completed {
                rec.phase = Phase::Finished(Box::new(body.state.cursor.trace));
                shared.fleet.session_closed(&shared.fleet.finished);
            } else {
                let reached = match rec.target {
                    Target::Pause => true,
                    Target::Rows(n) => rec.rows >= n,
                    Target::End => false,
                };
                if reached {
                    rec.phase = Phase::Parked(Work::Body(body));
                } else {
                    rec.phase = Phase::Queued(Work::Body(body));
                    rec.enqueued_at = Some(Instant::now());
                    drop(map);
                    // Requeue onto this worker: arena affinity, stolen
                    // only under load imbalance.
                    shared.push_job(worker, id);
                    shard.cv.notify_all();
                    return;
                }
            }
        }
    }
    drop(map);
    shard.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LoopSupervisor;

    fn scenario() -> MdeScenario {
        let mut s = MdeScenario::nov24_2023();
        s.duration_s = 0.01;
        s.bunches = 1;
        s
    }

    fn mux(workers: usize, slice_rows: u64) -> SessionMux {
        SessionMux::new(MuxConfig {
            workers,
            slice_rows,
            ..MuxConfig::default()
        })
        .unwrap()
    }

    fn reference(s: &MdeScenario, registry: Option<&TelemetryRegistry>) -> LoopTrace {
        let mut harness = LoopHarness::for_scenario(s, true);
        if let Some(r) = registry {
            harness = harness.with_telemetry(r);
        }
        let mut sup = LoopSupervisor::for_scenario(s);
        harness
            .run_supervised(s, EngineKind::Map, s.duration_s, &mut sup)
            .unwrap()
    }

    fn assert_traces_equal(a: &LoopTrace, b: &LoopTrace) {
        assert_eq!(a.times, b.times);
        assert_eq!(a.bunch_phase_deg, b.bunch_phase_deg);
        assert_eq!(a.mean_phase_deg, b.mean_phase_deg);
        assert_eq!(a.control_hz, b.control_hz);
        assert_eq!(a.jump_times, b.jump_times);
        assert_eq!(a.events, b.events);
    }

    /// Deterministic (non-wall) metric values, sorted by name.
    fn deterministic_metrics(r: &TelemetryRegistry) -> Vec<(String, String)> {
        let snap = r.snapshot();
        let mut out: Vec<(String, String)> = Vec::new();
        for (name, v) in &snap.counters {
            if !name.contains("wall") {
                out.push((name.clone(), v.to_string()));
            }
        }
        for (name, v) in &snap.gauges {
            if !name.contains("wall") {
                out.push((name.clone(), format!("{v:?}")));
            }
        }
        for (name, h) in &snap.histograms {
            if !name.contains("wall") {
                out.push((
                    name.clone(),
                    format!("{:?}/{}/{:?}", h.buckets, h.count, h.sum),
                ));
            }
        }
        out.sort();
        out
    }

    #[test]
    fn sliced_session_matches_run_supervised() {
        let s = scenario();
        let want = reference(&s, None);
        let m = mux(1, 64);
        let h = m
            .create(SessionSpec::new(s.clone(), EngineKind::Map))
            .unwrap();
        h.run_to_end().unwrap();
        let got = h.join().unwrap();
        assert_traces_equal(&got, &want);
        assert!(got.survived());
    }

    #[test]
    fn fleet_of_sessions_all_match_on_several_workers() {
        let s = scenario();
        let want = reference(&s, None);
        let m = mux(4, 128);
        let handles: Vec<_> = (0..24)
            .map(|_| {
                let h = m
                    .create(SessionSpec::new(s.clone(), EngineKind::Map))
                    .unwrap();
                h.run_to_end().unwrap();
                h
            })
            .collect();
        for h in &handles {
            assert_traces_equal(&h.join().unwrap(), &want);
        }
        let snap = m.telemetry().snapshot();
        assert_eq!(snap.counter("cil_mux_sessions_finished_total"), Some(24));
        assert_eq!(snap.gauge("cil_mux_sessions_live"), Some(0.0));
        assert!(snap.counter("cil_mux_dispatches_total").unwrap() >= 24);
    }

    #[test]
    fn pause_evict_resume_stays_bit_identical() {
        let s = scenario();
        let reg_ref = TelemetryRegistry::new();
        let want = reference(&s, Some(&reg_ref));
        let m = mux(2, 64);
        let reg = TelemetryRegistry::new();
        let h = m
            .create(SessionSpec::new(s.clone(), EngineKind::Map).with_registry(&reg))
            .unwrap();
        h.step_to(300).unwrap();
        let st = h.wait().unwrap();
        assert!(st.rows >= 300, "stepped to {}", st.rows);
        assert_eq!(st.state, SessionState::Parked);
        assert!(h.evict().unwrap(), "parked session must evict");
        assert_eq!(h.status().unwrap().state, SessionState::Evicted);
        h.run_to_end().unwrap();
        let got = h.join().unwrap();
        assert_traces_equal(&got, &want);
        assert_eq!(deterministic_metrics(&reg), deterministic_metrics(&reg_ref));
        let snap = m.telemetry().snapshot();
        assert_eq!(snap.counter("cil_mux_evictions_total"), Some(1));
        assert_eq!(snap.counter("cil_mux_restores_total"), Some(1));
    }

    #[test]
    fn snapshot_restores_into_a_fresh_mux_bit_identically() {
        let s = scenario();
        let reg_ref = TelemetryRegistry::new();
        let want = reference(&s, Some(&reg_ref));

        let m1 = mux(1, 64);
        let reg1 = TelemetryRegistry::new();
        let h1 = m1
            .create(SessionSpec::new(s.clone(), EngineKind::Map).with_registry(&reg1))
            .unwrap();
        h1.step_to(500).unwrap();
        h1.wait().unwrap();
        let bytes = h1.snapshot().unwrap();
        h1.kill().unwrap();
        assert!(h1.join().is_err(), "killed session must not join");

        let m2 = mux(2, 128);
        let reg2 = TelemetryRegistry::new();
        let h2 = m2
            .create_from_snapshot(
                SessionSpec::new(s.clone(), EngineKind::Map).with_registry(&reg2),
                bytes,
            )
            .unwrap();
        assert_eq!(h2.status().unwrap().state, SessionState::Evicted);
        h2.run_to_end().unwrap();
        let got = h2.join().unwrap();
        assert_traces_equal(&got, &want);
        assert_eq!(
            deterministic_metrics(&reg2),
            deterministic_metrics(&reg_ref)
        );
    }

    #[test]
    fn snapshot_of_a_never_run_session_restores_from_row_zero() {
        let s = scenario();
        let want = reference(&s, None);
        let m = mux(1, 256);
        let h = m
            .create(SessionSpec::new(s.clone(), EngineKind::Map))
            .unwrap();
        let bytes = h.snapshot().unwrap();
        let h2 = m
            .create_from_snapshot(SessionSpec::new(s.clone(), EngineKind::Map), bytes)
            .unwrap();
        h2.run_to_end().unwrap();
        assert_traces_equal(&h2.join().unwrap(), &want);
    }

    #[test]
    fn deadline_eviction_fires_without_explicit_evict() {
        let s = scenario();
        let m = SessionMux::new(MuxConfig {
            workers: 1,
            slice_rows: 64,
            evict_after: Some(Duration::from_millis(1)),
            ..MuxConfig::default()
        })
        .unwrap();
        let h = m
            .create(SessionSpec::new(s.clone(), EngineKind::Map))
            .unwrap();
        h.step_to(200).unwrap();
        h.wait().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while h.status().unwrap().state != SessionState::Evicted {
            assert!(Instant::now() < deadline, "eviction scan never fired");
            std::thread::sleep(Duration::from_millis(2));
        }
        h.run_to_end().unwrap();
        let want = reference(&s, None);
        assert_traces_equal(&h.join().unwrap(), &want);
    }

    /// Eviction bytes are pinned: [`SessionHandle::snapshot`] of a Map and
    /// a CGRA session paused at row 300, each with and without a
    /// per-session registry (FNV-1a 64).
    #[test]
    fn session_snapshot_bytes_are_pinned() {
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        let mut s = scenario();
        s.faults = crate::fault::FaultProgram::detector_outlier_storm(0.002, 0.008, 0.1, 120.0, 7);
        let m = mux(1, 64);
        let mut got = Vec::new();
        for kind in [EngineKind::Map, EngineKind::Cgra] {
            for registry in [None, Some(TelemetryRegistry::new())] {
                let mut spec = SessionSpec::new(s.clone(), kind);
                spec.registry = registry;
                let h = m.create(spec).unwrap();
                h.step_to(300).unwrap();
                assert_eq!(h.wait().unwrap().rows, 300);
                got.push(fnv1a(&h.snapshot().unwrap()));
            }
        }
        assert_eq!(
            got,
            [
                0x3932_eaed_9a90_f447,
                0x5a83_fd76_c7a7_252a,
                0x9e7a_f016_9588_8e28,
                0x14e0_b543_2e1c_3145,
            ]
        );
    }

    /// A multi-bunch scenario runs the single-bunch engines
    /// [`EngineKind::build`] makes, as [`LoopHarness::run_supervised`]
    /// does: the session trace matches it column for column, and the
    /// session snapshots and restores.
    #[test]
    fn multi_bunch_scenario_session_matches_run_supervised() {
        let mut s = scenario();
        s.bunches = 2;
        let want = reference(&s, None);
        let m = mux(1, 64);
        let h = m
            .create(SessionSpec::new(s.clone(), EngineKind::Map))
            .unwrap();
        h.step_to(300).unwrap();
        h.wait().unwrap();
        let bytes = h.snapshot().unwrap();
        let h2 = m
            .create_from_snapshot(SessionSpec::new(s, EngineKind::Map), bytes)
            .unwrap();
        h2.run_to_end().unwrap();
        assert_traces_equal(&h2.join().unwrap(), &want);
    }

    #[test]
    fn kill_while_parked_is_immediate_and_final() {
        let s = scenario();
        let m = mux(1, 64);
        let h = m.create(SessionSpec::new(s, EngineKind::Map)).unwrap();
        h.kill().unwrap();
        assert_eq!(h.status().unwrap().state, SessionState::Dead);
        assert!(h.run_to_end().is_err());
        assert!(matches!(h.join(), Err(CilError::Session(_))));
        let snap = m.telemetry().snapshot();
        assert_eq!(snap.counter("cil_mux_sessions_killed_total"), Some(1));
        assert_eq!(snap.gauge("cil_mux_sessions_live"), Some(0.0));
    }

    #[test]
    fn invalid_config_is_rejected() {
        assert!(SessionMux::new(MuxConfig {
            slice_rows: 0,
            ..MuxConfig::default()
        })
        .is_err());
        assert!(SessionMux::new(MuxConfig {
            block_rows: 0,
            ..MuxConfig::default()
        })
        .is_err());
    }
}
