//! Crash-safe campaign runner: resumable 10⁵-point sweeps with panic
//! isolation, retry/backoff and poison-point quarantine.
//!
//! The paper's closed-loop results come from sweeping many scenario
//! variants; the facilities behind the related work run these loops as
//! fleets. At 10⁵ points a sweep stops being a function call and becomes a
//! *campaign*: it will be killed (preemption, OOM, power), individual
//! points will misbehave (a pathological controller setting panics an
//! engine), and nobody wants to restart from zero or babysit the fleet.
//! This module layers three robustness contracts over
//! [`crate::sweep::parallel_sweep_with_merge`]:
//!
//! 1. **Durability** — points are grouped into fixed-size *shards*; each
//!    finished shard is appended to `campaign.log`, a framed write-ahead
//!    log reusing the checkpoint layer's CRC32/length framing. A killed
//!    campaign resumes from the WAL: recorded shards are never
//!    re-executed, a torn tail (the frame being written at the kill) is
//!    truncated away, and the final aggregate CSV is byte-identical to an
//!    uninterrupted run's.
//! 2. **Isolation** — every point executes under `catch_unwind`; a panic
//!    poisons only that point (the worker's [`EngineArena`] is cleared, so
//!    the next lease rebuilds from scratch) and the campaign completes
//!    around it.
//! 3. **Bounded retry + quarantine** — failed points are retried up to
//!    [`CampaignConfig::max_retries`] times with exponential backoff
//!    counted in *simulated ticks* (one tick = one point execution on that
//!    worker), never wall-clock, so replay is bit-identical. Points that
//!    exhaust retries are quarantined into `poisoned.csv` with the typed
//!    [`CilError`](crate::error::CilError) message or panic payload; a
//!    result row of the wrong arity is a harness bug, not transient, and
//!    quarantines immediately without retry.
//!
//! What is *not* retried: wrong result arity (see above) and campaign-level
//! failures (WAL I/O errors, incompatible point lists) — those surface as
//! [`CampaignError`], because retrying cannot fix a broken disk or a wrong
//! directory.
//!
//! Work distribution is dynamic: workers claim shards from a shared atomic
//! cursor (work stealing), so a shard full of slow or retried points does
//! not idle the rest of the fleet. Determinism is preserved because shards
//! are self-contained — a shard's records depend only on its own points
//! and the (deterministic) retry schedule, never on which worker ran it or
//! when. Aggregation is streaming: a shard commits one summary record per
//! point (a few f64 columns), not full traces, so a 10⁵-point campaign's
//! memory footprint is megabytes.

use crate::checkpoint::{
    codec_enum, codec_struct, frame_block, next_frame, CheckpointError, Codec, Dec, Enc,
};
use crate::error::Result as CilResult;
use crate::scenario::MdeScenario;
use crate::sweep::{panic_message, parallel_sweep_with_merge, EngineArena};
use crate::telemetry::TelemetryRegistry;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// `"CAMH"` — campaign WAL header frame.
const HEADER_MAGIC: u32 = 0x484D_4143;
/// `"CAMS"` — campaign WAL shard frame.
const SHARD_MAGIC: u32 = 0x534D_4143;
/// Campaign WAL format version.
const WAL_VERSION: u32 = 1;
/// WAL file name inside the campaign directory.
pub const CAMPAIGN_LOG_NAME: &str = "campaign.log";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Campaign-level failure: the campaign itself could not run or resume.
/// (Per-point failures never surface here — they are retried and
/// quarantined.)
#[derive(Debug)]
pub enum CampaignError {
    /// Filesystem failure on the WAL or the output CSVs.
    Io(std::io::Error),
    /// The WAL header exists but cannot be decoded.
    Wal(CheckpointError),
    /// The WAL was written by a different campaign: point count, point
    /// digests, shard size or result columns disagree with this one.
    Incompatible(&'static str),
    /// The configuration is rejected before any work starts.
    InvalidConfig(&'static str),
    /// A shared state lock was poisoned by a panicking worker thread. The
    /// WAL on disk is still valid (frames are CRC-framed and appended
    /// whole), so a rerun resumes from the committed prefix.
    Poisoned(&'static str),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "campaign I/O error: {e}"),
            Self::Wal(e) => write!(f, "campaign WAL error: {e}"),
            Self::Incompatible(msg) => {
                write!(f, "campaign.log belongs to a different campaign: {msg}")
            }
            Self::InvalidConfig(msg) => write!(f, "invalid campaign configuration: {msg}"),
            Self::Poisoned(msg) => write!(f, "campaign state lock poisoned: {msg}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(io) => Self::Io(io),
            other => Self::Wal(other),
        }
    }
}

type R<T> = std::result::Result<T, CampaignError>;

// ---------------------------------------------------------------------------
// Points and configuration
// ---------------------------------------------------------------------------

/// A sweepable input with a stable identity. The digest names the point in
/// quarantine records and lets a resumed campaign verify the regenerated
/// point list is the one the WAL was written against.
pub trait CampaignPoint: Sync {
    /// Deterministic, platform-independent 64-bit identity of this point.
    fn digest(&self) -> u64;
}

impl CampaignPoint for MdeScenario {
    fn digest(&self) -> u64 {
        MdeScenario::digest(self)
    }
}

/// Handy for tests and synthetic benches: the value is its own identity.
impl CampaignPoint for u64 {
    fn digest(&self) -> u64 {
        *self
    }
}

/// How a campaign shards, retries and persists.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign directory: holds `campaign.log`, `aggregate.csv` and
    /// `poisoned.csv`. Created on first use.
    pub dir: PathBuf,
    /// Points per shard (the durability granule: a kill loses at most the
    /// in-flight shards). Default 256.
    pub shard_points: usize,
    /// Worker threads. Default: available parallelism.
    pub workers: usize,
    /// Retries allowed per point *after* its first attempt. Default 2.
    pub max_retries: u32,
    /// Backoff after the first failure, in simulated ticks (one tick = one
    /// point execution on the same worker). Doubles per failure. Default 1.
    pub backoff_base_ticks: u64,
    /// Backoff ceiling, ticks. Default 64.
    pub backoff_cap_ticks: u64,
    /// Sync the WAL to stable storage after every shard commit (and the
    /// output CSVs before their rename). Same trade-off as
    /// [`crate::checkpoint::CheckpointConfig::fsync`]; default `false`.
    pub fsync: bool,
    /// Names of the per-point result columns (`aggregate.csv` header). A
    /// point whose result row has a different length is quarantined
    /// immediately — that is a harness bug, not a transient failure.
    pub columns: Vec<String>,
}

impl CampaignConfig {
    /// Defaults in `dir` with the given result columns.
    pub fn new(dir: impl Into<PathBuf>, columns: &[&str]) -> Self {
        Self {
            dir: dir.into(),
            shard_points: 256,
            workers: std::thread::available_parallelism().map_or(1, |v| v.get()),
            max_retries: 2,
            backoff_base_ticks: 1,
            backoff_cap_ticks: 64,
            fsync: false,
            columns: columns.iter().map(|s| (*s).to_string()).collect(),
        }
    }

    fn validate(&self) -> R<()> {
        if self.shard_points == 0 {
            return Err(CampaignError::InvalidConfig("shard_points must be >= 1"));
        }
        if self.workers == 0 {
            return Err(CampaignError::InvalidConfig("workers must be >= 1"));
        }
        if self.columns.is_empty() {
            return Err(CampaignError::InvalidConfig(
                "columns must name at least one result column",
            ));
        }
        if self.columns.iter().any(|c| c.contains([',', '\n', '\r'])) {
            return Err(CampaignError::InvalidConfig(
                "column names must not contain commas or newlines",
            ));
        }
        if self.backoff_cap_ticks < self.backoff_base_ticks {
            return Err(CampaignError::InvalidConfig(
                "backoff_cap_ticks must be >= backoff_base_ticks",
            ));
        }
        Ok(())
    }

    /// Backoff before attempt `failures + 1`, given `failures` failed
    /// attempts so far: `base · 2^(failures−1)`, capped.
    fn backoff_ticks(&self, failures: u32) -> u64 {
        if failures == 0 {
            return 0;
        }
        let shift = failures - 1;
        let doubled = if shift >= 64 || self.backoff_base_ticks.leading_zeros() < shift {
            u64::MAX
        } else {
            self.backoff_base_ticks << shift
        };
        doubled.min(self.backoff_cap_ticks)
    }
}

// ---------------------------------------------------------------------------
// Outcomes and report
// ---------------------------------------------------------------------------

/// Terminal state of one point.
#[derive(Debug, Clone, PartialEq)]
pub enum PointStatus {
    /// The point produced its result row (possibly after retries).
    Completed(Vec<f64>),
    /// The point exhausted its retries (or failed a non-retryable check);
    /// the string is the final error or panic message.
    Quarantined(String),
}

/// One point's record as committed to the WAL.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// Index in the campaign's point list.
    pub index: usize,
    /// [`CampaignPoint::digest`] of the input.
    pub digest: u64,
    /// Executions performed (1 = first try succeeded).
    pub attempts: u32,
    /// Total simulated-tick backoff the point waited across its retries.
    pub backoff_ticks: u64,
    /// How the point ended.
    pub status: PointStatus,
}

/// What a finished campaign did.
#[derive(Debug)]
pub struct CampaignReport {
    /// Every point's outcome, in point order.
    pub outcomes: Vec<PointOutcome>,
    /// Points that completed.
    pub completed: usize,
    /// Points quarantined into `poisoned.csv`.
    pub quarantined: usize,
    /// Re-executions beyond each point's first attempt, summed. Counts
    /// only shards executed by *this* run — a resumed campaign does not
    /// re-count retries already absorbed into the WAL.
    pub retries: u64,
    /// Shards in the campaign.
    pub shards_total: usize,
    /// Shards recovered from the WAL instead of executed.
    pub shards_resumed: usize,
    /// Path of the aggregate results CSV.
    pub aggregate_csv: PathBuf,
    /// Path of the quarantine CSV.
    pub poisoned_csv: PathBuf,
}

// ---------------------------------------------------------------------------
// Worker-visible state
// ---------------------------------------------------------------------------

/// Per-worker state handed to the point function: a warm [`EngineArena`]
/// and a private [`TelemetryRegistry`] (absorbed into the campaign's root
/// registry when the worker finishes).
pub struct CampaignWorker {
    /// Engine cache — lease engines through this so identical engine
    /// configurations skip construction.
    pub arena: EngineArena,
    /// Worker-private metrics; record freely, no shared lock.
    pub telemetry: TelemetryRegistry,
    attempt: u32,
}

impl CampaignWorker {
    fn new() -> Self {
        Self {
            arena: EngineArena::new(),
            telemetry: TelemetryRegistry::new(),
            attempt: 1,
        }
    }

    /// Which attempt of the current point is executing (1-based). Lets the
    /// point function vary behaviour across retries (the retry tests lean
    /// on this).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }
}

// ---------------------------------------------------------------------------
// WAL encode / decode
// ---------------------------------------------------------------------------

/// Combined identity of the whole point list (FNV-1a over `(index,
/// digest)` pairs) — one u64 in the header instead of 10⁵ digests.
fn points_digest(digests: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut byte = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for (i, &d) in digests.iter().enumerate() {
        for b in (i as u64).to_le_bytes() {
            byte(b);
        }
        for b in d.to_le_bytes() {
            byte(b);
        }
    }
    h
}

/// The WAL's first frame after its `u32` version: which campaign the log
/// belongs to. Retry policy is recorded but is *not* identity — resuming
/// with a different retry budget only affects shards not yet recorded,
/// which is exactly the knob an operator may want to turn mid-campaign;
/// the already-recorded shards keep their outcomes.
#[derive(Debug, PartialEq)]
struct WalHeader {
    n_points: u64,
    shard_points: u64,
    points_digest: u64,
    max_retries: u32,
    backoff_base_ticks: u64,
    backoff_cap_ticks: u64,
    columns: Vec<String>,
}

codec_struct! {
    WalHeader {
        n_points: u64, shard_points: u64, points_digest: u64, max_retries: u32,
        backoff_base_ticks: u64, backoff_cap_ticks: u64, columns: Vec<String>,
    }
    PointOutcome {
        index: usize, digest: u64, attempts: u32, backoff_ticks: u64, status: PointStatus,
    }
}

codec_enum! {
    PointStatus { 0 => Completed(values: Vec<f64>), 1 => Quarantined(msg: String) }
}

impl WalHeader {
    fn new(cfg: &CampaignConfig, n_points: usize, points_digest: u64) -> Self {
        Self {
            n_points: n_points as u64,
            shard_points: cfg.shard_points as u64,
            points_digest,
            max_retries: cfg.max_retries,
            backoff_base_ticks: cfg.backoff_base_ticks,
            backoff_cap_ticks: cfg.backoff_cap_ticks,
            columns: cfg.columns.clone(),
        }
    }
}

fn encode_header(cfg: &CampaignConfig, n_points: usize, points_digest: u64) -> Vec<u8> {
    let mut e = Enc::default();
    WAL_VERSION.enc(&mut e);
    WalHeader::new(cfg, n_points, points_digest).enc(&mut e);
    frame_block(HEADER_MAGIC, &e.buf)
}

/// Check a decoded header against this campaign (see [`WalHeader`] for
/// what counts as identity).
fn check_header(payload: &[u8], cfg: &CampaignConfig, n_points: usize, digest: u64) -> R<()> {
    let mut d = Dec::new(payload);
    let version = u32::dec(&mut d)?;
    if version != WAL_VERSION {
        return Err(CampaignError::Wal(CheckpointError::UnsupportedVersion(
            version,
        )));
    }
    let got = WalHeader::dec(&mut d)?;
    d.finish()?;
    let want = WalHeader::new(cfg, n_points, digest);
    let checks = [
        (got.n_points == want.n_points, "point count differs"),
        (got.shard_points == want.shard_points, "shard size differs"),
        (
            got.points_digest == want.points_digest,
            "point digests differ",
        ),
        (
            got.columns.len() == want.columns.len(),
            "column count differs",
        ),
        (got.columns == want.columns, "column names differ"),
    ];
    match checks.iter().find(|(same, _)| !same) {
        Some(&(_, why)) => Err(CampaignError::Incompatible(why)),
        None => Ok(()),
    }
}

/// A shard frame: its index, then its records behind a `u32` count.
fn encode_shard(shard_index: usize, records: &[PointOutcome]) -> Vec<u8> {
    let mut e = Enc::default();
    shard_index.enc(&mut e);
    e.run32(records);
    frame_block(SHARD_MAGIC, &e.buf)
}

fn decode_shard(payload: &[u8]) -> R<(usize, Vec<PointOutcome>)> {
    let mut d = Dec::new(payload);
    let shard_index = usize::dec(&mut d)?;
    let records = d.run32()?;
    d.finish()?;
    Ok((shard_index, records))
}

/// What scanning an existing `campaign.log` recovered.
struct ScannedWal {
    /// Fully committed shards, by shard index (duplicates keep the first
    /// occurrence — a shard is never re-emitted, so later duplicates could
    /// only come from a bug and the first is the one the CSVs saw).
    shards: BTreeMap<usize, Vec<PointOutcome>>,
    /// Byte offset of the first torn/invalid frame; the file is truncated
    /// here before appending resumes.
    valid_bytes: u64,
}

/// Scan header + shard frames. Any framing damage — torn tail from a kill
/// mid-append, CRC mismatch, foreign magic — ends the scan at the last
/// good frame rather than failing the campaign: everything before it is
/// intact (CRC-verified), everything after is discarded and re-executed.
fn scan_wal(bytes: &[u8], cfg: &CampaignConfig, n_points: usize, digest: u64) -> R<ScannedWal> {
    let (header, mut pos) = match next_frame(bytes, 0, HEADER_MAGIC) {
        Ok(Some(pair)) => pair,
        // Empty or torn-before-header: treat as a fresh log.
        Ok(None) | Err(_) => {
            return Ok(ScannedWal {
                shards: BTreeMap::new(),
                valid_bytes: 0,
            })
        }
    };
    // A *valid* header that names a different campaign is an error, not a
    // torn tail — silently clobbering someone else's WAL is how campaigns
    // lose a night of work.
    check_header(header, cfg, n_points, digest)?;

    let mut shards = BTreeMap::new();
    loop {
        match next_frame(bytes, pos, SHARD_MAGIC) {
            Ok(None) => break,
            Ok(Some((payload, next))) => match decode_shard(payload) {
                Ok((shard_index, records)) => {
                    shards.entry(shard_index).or_insert(records);
                    pos = next;
                }
                // Framing was intact but the payload is malformed —
                // truncate from here like a torn tail.
                Err(_) => break,
            },
            Err(_) => break,
        }
    }
    Ok(ScannedWal {
        shards,
        valid_bytes: pos as u64,
    })
}

// ---------------------------------------------------------------------------
// The campaign
// ---------------------------------------------------------------------------

/// A durable sweep over a list of points. See the module docs for the
/// robustness contracts.
pub struct Campaign<'a, P: CampaignPoint> {
    points: &'a [P],
    cfg: CampaignConfig,
}

/// Shared commit state: one WAL appender guarded by a mutex. Workers hold
/// the lock only for the append itself (microseconds against seconds of
/// simulation per shard). The first I/O failure latches; later commits
/// become no-ops and the error surfaces when the campaign joins — same
/// latching discipline as the checkpoint session.
struct CommitState {
    log: File,
    error: Option<CampaignError>,
    shards_left: usize,
}

impl<'a, P: CampaignPoint> Campaign<'a, P> {
    /// Validate the configuration and bind the point list.
    pub fn new(points: &'a [P], cfg: CampaignConfig) -> R<Self> {
        cfg.validate()?;
        Ok(Self { points, cfg })
    }

    /// Shards in this campaign.
    pub fn shards_total(&self) -> usize {
        self.points.len().div_ceil(self.cfg.shard_points.max(1))
    }

    /// Run (or resume) the campaign with a throwaway telemetry registry.
    pub fn run<F>(&self, f: F) -> R<CampaignReport>
    where
        F: Fn(&mut CampaignWorker, &P) -> CilResult<Vec<f64>> + Sync,
    {
        self.run_with_telemetry(&TelemetryRegistry::new(), f)
    }

    /// Run (or resume) the campaign.
    ///
    /// `f` maps one point to one result row (`cfg.columns.len()` values).
    /// It may fail with a [`CilError`](crate::error::CilError) or panic;
    /// both are retried and eventually quarantined. On return, every point
    /// has a terminal outcome, `aggregate.csv` and `poisoned.csv` are in
    /// place (tmp+rename, so a kill during the final write leaves the old
    /// files), and `root` holds the campaign metrics.
    pub fn run_with_telemetry<F>(&self, root: &TelemetryRegistry, f: F) -> R<CampaignReport>
    where
        F: Fn(&mut CampaignWorker, &P) -> CilResult<Vec<f64>> + Sync,
    {
        let digests: Vec<u64> = self.points.iter().map(CampaignPoint::digest).collect();
        let identity = points_digest(&digests);
        fs::create_dir_all(&self.cfg.dir)?;
        let log_path = self.cfg.dir.join(CAMPAIGN_LOG_NAME);

        // Recover whatever a previous run committed.
        let existing = match fs::read(&log_path) {
            Ok(bytes) => scan_wal(&bytes, &self.cfg, self.points.len(), identity)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => ScannedWal {
                shards: BTreeMap::new(),
                valid_bytes: 0,
            },
            Err(e) => return Err(e.into()),
        };

        // Open for appending at the end of the valid prefix (discarding
        // any torn tail), writing the header if this is a fresh log.
        let mut log = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&log_path)?;
        log.set_len(existing.valid_bytes)?;
        use std::io::Seek;
        log.seek(std::io::SeekFrom::End(0))?;
        if existing.valid_bytes == 0 {
            log.write_all(&encode_header(&self.cfg, self.points.len(), identity))?;
            if self.cfg.fsync {
                log.sync_data()?;
            }
        }

        let shards_total = self.shards_total();
        let shards_resumed = existing.shards.len().min(shards_total);
        let pending: Vec<usize> = (0..shards_total)
            .filter(|i| !existing.shards.contains_key(i))
            .collect();
        root.gauge("cil_campaign_queue_depth")
            .set(pending.len() as f64);

        let commit = Mutex::new(CommitState {
            log,
            error: None,
            shards_left: pending.len(),
        });
        let cursor = AtomicUsize::new(0);
        let executed: Mutex<BTreeMap<usize, Vec<PointOutcome>>> = Mutex::new(BTreeMap::new());

        // Work-stealing fleet: one sweep item per worker; each worker loops
        // claiming pending shards off the shared cursor until none remain.
        let worker_ids: Vec<usize> = (0..self.cfg.workers).collect();
        parallel_sweep_with_merge(
            &worker_ids,
            self.cfg.workers,
            CampaignWorker::new,
            |worker, _id| loop {
                let slot = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&shard_index) = pending.get(slot) else {
                    return;
                };
                let records = self.execute_shard(shard_index, worker, &digests, &f);
                self.commit_shard(&commit, root, shard_index, &records, worker);
                match executed.lock() {
                    Ok(mut g) => {
                        g.insert(shard_index, records);
                    }
                    Err(p) => {
                        // Another worker panicked while holding the map;
                        // surface a typed error through the commit channel
                        // instead of compounding the panic.
                        drop(p);
                        let mut c = commit
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        c.error.get_or_insert(CampaignError::Poisoned(
                            "executed-shard map poisoned by a worker panic",
                        ));
                    }
                }
            },
            |worker| {
                worker.arena.sample_telemetry(&worker.telemetry);
                root.absorb(&worker.telemetry);
            },
        );

        let commit = match commit.into_inner() {
            Ok(c) => c,
            Err(p) => {
                let mut c = p.into_inner();
                c.error.get_or_insert(CampaignError::Poisoned(
                    "commit lock poisoned by a worker panic",
                ));
                c
            }
        };
        if let Some(e) = commit.error {
            return Err(e);
        }

        // Assemble outcomes in point order from resumed + executed shards.
        let executed = executed.into_inner().map_err(|_| {
            CampaignError::Poisoned("executed-shard map poisoned by a worker panic")
        })?;
        let mut outcomes: Vec<Option<PointOutcome>> =
            (0..self.points.len()).map(|_| None).collect();
        for records in existing.shards.values().chain(executed.values()) {
            for r in records {
                if r.index < outcomes.len() {
                    outcomes[r.index] = Some(r.clone());
                }
            }
        }
        let outcomes: Vec<PointOutcome> = outcomes
            .into_iter()
            .map(|o| {
                o.ok_or(CampaignError::Wal(CheckpointError::Malformed(
                    "a committed shard is missing points",
                )))
            })
            .collect::<R<_>>()?;

        let completed = outcomes
            .iter()
            .filter(|o| matches!(o.status, PointStatus::Completed(_)))
            .count();
        let quarantined = outcomes.len() - completed;
        let retries = executed
            .values()
            .flatten()
            .map(|r| u64::from(r.attempts.saturating_sub(1)))
            .sum();

        let aggregate_csv = self.write_aggregate_csv(&outcomes)?;
        let poisoned_csv = self.write_poisoned_csv(&outcomes)?;

        Ok(CampaignReport {
            outcomes,
            completed,
            quarantined,
            retries,
            shards_total,
            shards_resumed,
            aggregate_csv,
            poisoned_csv,
        })
    }

    /// Execute one shard to terminal outcomes. Deterministic: the schedule
    /// is a queue ordered by (ready tick, enqueue sequence) and ticks
    /// advance only on executions, so the same points and the same failure
    /// pattern replay the same attempts/backoff bit-for-bit regardless of
    /// worker or wall-clock.
    fn execute_shard<F>(
        &self,
        shard_index: usize,
        worker: &mut CampaignWorker,
        digests: &[u64],
        f: &F,
    ) -> Vec<PointOutcome>
    where
        F: Fn(&mut CampaignWorker, &P) -> CilResult<Vec<f64>> + Sync,
    {
        let lo = shard_index * self.cfg.shard_points;
        let hi = (lo + self.cfg.shard_points).min(self.points.len());

        struct Pending {
            index: usize,
            attempts: u32,
            backoff_total: u64,
            ready_at: u64,
            last_error: String,
        }
        let mut queue: Vec<Pending> = (lo..hi)
            .map(|index| Pending {
                index,
                attempts: 0,
                backoff_total: 0,
                ready_at: 0,
                last_error: String::new(),
            })
            .collect();
        let mut done: Vec<PointOutcome> = Vec::with_capacity(hi - lo);
        let mut tick = 0u64;

        while !queue.is_empty() {
            // Earliest-ready first; FIFO (stable position) on ties. The
            // queue is small (one shard), so a linear scan is fine.
            let Some(pos) = queue
                .iter()
                .enumerate()
                .min_by_key(|(i, p)| (p.ready_at, *i))
                .map(|(i, _)| i)
            else {
                break;
            };
            tick = tick.max(queue[pos].ready_at) + 1;
            let mut p = queue.remove(pos);
            p.attempts += 1;
            worker.attempt = p.attempts;

            let outcome = catch_unwind(AssertUnwindSafe(|| f(worker, &self.points[p.index])));
            worker.attempt = 1;
            let failure = match outcome {
                Ok(Ok(values)) => {
                    if values.len() == self.cfg.columns.len() {
                        worker
                            .telemetry
                            .counter("cil_campaign_points_completed_total")
                            .inc();
                        done.push(PointOutcome {
                            index: p.index,
                            digest: digests[p.index],
                            attempts: p.attempts,
                            backoff_ticks: p.backoff_total,
                            status: PointStatus::Completed(values),
                        });
                        continue;
                    }
                    // Wrong arity is a harness bug — deterministic, so a
                    // retry would only burn the budget. Quarantine now.
                    p.last_error = format!(
                        "result row has {} values, campaign declares {} columns",
                        values.len(),
                        self.cfg.columns.len()
                    );
                    None
                }
                Ok(Err(e)) => Some(format!("error: {e}")),
                Err(payload) => {
                    // The engine the panic unwound through is suspect;
                    // drop it so the next lease rebuilds.
                    worker.arena.clear();
                    Some(format!("panic: {}", panic_message(&payload)))
                }
            };

            match failure {
                Some(msg) if p.attempts <= self.cfg.max_retries => {
                    let backoff = self.cfg.backoff_ticks(p.attempts);
                    worker
                        .telemetry
                        .counter("cil_campaign_points_retried_total")
                        .inc();
                    p.last_error = msg;
                    p.backoff_total += backoff;
                    p.ready_at = tick + backoff;
                    queue.push(p);
                }
                failure => {
                    if let Some(msg) = failure {
                        p.last_error = msg;
                    }
                    worker
                        .telemetry
                        .counter("cil_campaign_points_quarantined_total")
                        .inc();
                    done.push(PointOutcome {
                        index: p.index,
                        digest: digests[p.index],
                        attempts: p.attempts,
                        backoff_ticks: p.backoff_total,
                        status: PointStatus::Quarantined(p.last_error),
                    });
                }
            }
        }

        done.sort_by_key(|o| o.index);
        done
    }

    /// Append one shard frame to the WAL under the commit lock. The frame
    /// is built outside the lock; the append is a single `write_all`, so a
    /// kill leaves either the whole frame (CRC-valid) or a torn tail the
    /// next resume truncates — a shard is durable exactly when its frame
    /// is, which is what makes the commit exactly-once.
    fn commit_shard(
        &self,
        commit: &Mutex<CommitState>,
        root: &TelemetryRegistry,
        shard_index: usize,
        records: &[PointOutcome],
        worker: &mut CampaignWorker,
    ) {
        let frame = encode_shard(shard_index, records);
        let started = Instant::now();
        let mut c = match commit.lock() {
            Ok(c) => c,
            Err(p) => {
                // A worker panicked while holding the log. The WAL append
                // below is a single whole-frame write, so the log itself is
                // not torn — but stop committing and report a typed error.
                let mut c = p.into_inner();
                c.error.get_or_insert(CampaignError::Poisoned(
                    "commit lock poisoned by a worker panic",
                ));
                return;
            }
        };
        if c.error.is_some() {
            return;
        }
        let res = c.log.write_all(&frame).and_then(|()| {
            if self.cfg.fsync {
                c.log.sync_data()
            } else {
                Ok(())
            }
        });
        match res {
            Ok(()) => {
                c.shards_left -= 1;
                root.gauge("cil_campaign_queue_depth")
                    .set(c.shards_left as f64);
                worker
                    .telemetry
                    .histogram("cil_campaign_shard_commit_wall_seconds")
                    .observe(started.elapsed().as_secs_f64());
            }
            Err(e) => c.error = Some(e.into()),
        }
    }

    /// `aggregate.csv`: one row per point in point order — index, digest,
    /// attempts, then the result columns (empty cells for quarantined
    /// points, whose rows live in `poisoned.csv`). Written tmp+rename like
    /// the snapshot files; byte-identical for a resumed and an
    /// uninterrupted campaign because outcomes are deterministic and the
    /// row order is the point order, not the commit order.
    fn write_aggregate_csv(&self, outcomes: &[PointOutcome]) -> R<PathBuf> {
        let mut csv = String::new();
        csv.push_str("index,digest,attempts");
        for c in &self.cfg.columns {
            csv.push(',');
            csv.push_str(c);
        }
        csv.push('\n');
        for o in outcomes {
            use std::fmt::Write as _;
            let _ = write!(csv, "{},{:016x},{}", o.index, o.digest, o.attempts);
            match &o.status {
                PointStatus::Completed(values) => {
                    for v in values {
                        let _ = write!(csv, ",{v:?}");
                    }
                }
                PointStatus::Quarantined(_) => {
                    for _ in &self.cfg.columns {
                        csv.push(',');
                    }
                }
            }
            csv.push('\n');
        }
        self.write_atomic("aggregate.csv", csv.as_bytes())
    }

    /// `poisoned.csv`: quarantined points only — index, digest, attempts,
    /// total backoff and the final error/panic message.
    fn write_poisoned_csv(&self, outcomes: &[PointOutcome]) -> R<PathBuf> {
        let mut csv = String::from("index,digest,attempts,backoff_ticks,error\n");
        for o in outcomes {
            if let PointStatus::Quarantined(msg) = &o.status {
                use std::fmt::Write as _;
                let _ = writeln!(
                    csv,
                    "{},{:016x},{},{},{}",
                    o.index,
                    o.digest,
                    o.attempts,
                    o.backoff_ticks,
                    csv_escape_field(msg)
                );
            }
        }
        self.write_atomic("poisoned.csv", csv.as_bytes())
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> R<PathBuf> {
        let tmp = self.cfg.dir.join(format!(".{name}.tmp"));
        let path = self.cfg.dir.join(name);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            if self.cfg.fsync {
                f.sync_all()?;
            }
        }
        fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

/// RFC 4180 escaping for one CSV field: the field is always quoted,
/// embedded quotes are doubled, and CR/LF are flattened to spaces so a
/// multi-line panic message stays on one CSV row. Used for the campaign
/// quarantine report and shared with the cil-bench CSV writer, which
/// quotes lazily but defers the escaping rules here.
pub fn csv_escape_field(field: &str) -> String {
    let flat = field.replace(['\n', '\r'], " ");
    format!("\"{}\"", flat.replace('"', "\"\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/campaign-unit-tests")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(dir: PathBuf) -> CampaignConfig {
        let mut c = CampaignConfig::new(dir, &["value"]);
        c.shard_points = 4;
        c.workers = 2;
        c
    }

    #[test]
    fn completes_all_points() {
        let points: Vec<u64> = (0..23).collect();
        let campaign = Campaign::new(&points, cfg(test_dir("completes"))).unwrap();
        let report = campaign.run(|_w, &p| Ok(vec![p as f64 * 2.0])).unwrap();
        assert_eq!(report.completed, 23);
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.shards_total, 6);
        assert_eq!(report.shards_resumed, 0);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.index, i);
            assert_eq!(o.attempts, 1);
            assert_eq!(o.status, PointStatus::Completed(vec![i as f64 * 2.0]));
        }
    }

    #[test]
    fn panicking_point_is_quarantined_not_fatal() {
        let points: Vec<u64> = (0..8).collect();
        let mut c = cfg(test_dir("quarantine"));
        c.max_retries = 1;
        let campaign = Campaign::new(&points, c).unwrap();
        let report = campaign
            .run(|_w, &p| {
                if p == 5 {
                    panic!("engine blew up on {p}");
                }
                Ok(vec![p as f64])
            })
            .unwrap();
        assert_eq!(report.completed, 7);
        assert_eq!(report.quarantined, 1);
        let bad = &report.outcomes[5];
        assert_eq!(bad.attempts, 2, "one retry before quarantine");
        match &bad.status {
            PointStatus::Quarantined(msg) => assert!(msg.contains("engine blew up on 5")),
            other => panic!("expected quarantine, got {other:?}"),
        }
        let poisoned = fs::read_to_string(&report.poisoned_csv).unwrap();
        assert!(poisoned.contains("engine blew up on 5"));
    }

    #[test]
    fn hostile_panic_message_stays_one_escaped_csv_field() {
        // Panic payloads quote user code, so they can carry every CSV
        // metacharacter at once: delimiters, quotes, CR/LF, even a fake
        // extra row. The quarantine report must keep the whole message in
        // one RFC 4180-quoted field on one physical line.
        let hostile = "phase=\"NaN\", code=7,\n8,deadbeef,1,0,\"forged row\"\r\n";
        let points: Vec<u64> = (0..2).collect();
        let mut c = cfg(test_dir("hostile-panic"));
        c.max_retries = 0;
        c.workers = 1;
        let campaign = Campaign::new(&points, c).unwrap();
        let report = campaign
            .run(|_w, &p| {
                if p == 1 {
                    panic!("{hostile}");
                }
                Ok(vec![p as f64])
            })
            .unwrap();
        assert_eq!(report.quarantined, 1);

        let poisoned = fs::read_to_string(&report.poisoned_csv).unwrap();
        let lines: Vec<&str> = poisoned.lines().collect();
        assert_eq!(lines.len(), 2, "header + exactly one quarantined point");
        let row = lines[1];
        // Four metadata columns, then the escaped message field: always
        // quoted, embedded quotes doubled, CR/LF flattened to spaces.
        let field = row.splitn(5, ',').nth(4).unwrap();
        assert!(field.starts_with('"') && field.ends_with('"'));
        assert!(field.contains("\"\"NaN\"\""), "quotes are doubled: {field}");
        assert!(!field.contains('\n') && !field.contains('\r'));
        // Un-escaping recovers the panic message (newlines flattened).
        let unescaped = field[1..field.len() - 1].replace("\"\"", "\"");
        assert!(unescaped.contains("phase=\"NaN\", code=7, 8,deadbeef"));
    }

    #[test]
    fn retry_then_succeed_counts_attempts_and_backoff() {
        use std::sync::atomic::AtomicU32;
        let points: Vec<u64> = vec![42];
        let mut c = cfg(test_dir("retry"));
        c.max_retries = 3;
        c.workers = 1;
        let campaign = Campaign::new(&points, c).unwrap();
        let calls = AtomicU32::new(0);
        let report = campaign
            .run(|w, &p| {
                calls.fetch_add(1, Ordering::Relaxed);
                if w.attempt() < 3 {
                    Err(crate::error::CilError::InvalidConfig("transient".into()))
                } else {
                    Ok(vec![p as f64])
                }
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(report.retries, 2);
        let o = &report.outcomes[0];
        assert_eq!(o.attempts, 3);
        // backoff 1 after first failure, 2 after second (base 1, doubling).
        assert_eq!(o.backoff_ticks, 3);
        assert_eq!(o.status, PointStatus::Completed(vec![42.0]));
    }

    #[test]
    fn wrong_arity_quarantines_without_retry() {
        let points: Vec<u64> = vec![1];
        let campaign = Campaign::new(&points, cfg(test_dir("arity"))).unwrap();
        let report = campaign.run(|_w, &p| Ok(vec![p as f64, 0.0])).unwrap();
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.outcomes[0].attempts, 1, "no retry for arity bugs");
    }

    #[test]
    fn resume_skips_recorded_shards_and_matches_csv() {
        let points: Vec<u64> = (0..20).collect();
        let dir = test_dir("resume");
        let run = |d: PathBuf| {
            Campaign::new(&points, cfg(d))
                .unwrap()
                .run(|_w, &p| Ok(vec![(p as f64).sin()]))
                .unwrap()
        };
        let full = run(test_dir("resume-ref"));
        let first = run(dir.clone());
        assert_eq!(first.shards_resumed, 0);
        // Truncate the WAL to header + 2 shard frames to fake a kill,
        // plus a torn half-frame that resume must discard.
        let log_path = dir.join(CAMPAIGN_LOG_NAME);
        let bytes = fs::read(&log_path).unwrap();
        let (_, mut pos) = next_frame(&bytes, 0, HEADER_MAGIC).unwrap().unwrap();
        for _ in 0..2 {
            let (_, next) = next_frame(&bytes, pos, SHARD_MAGIC).unwrap().unwrap();
            pos = next;
        }
        let mut cut = bytes[..pos].to_vec();
        cut.extend_from_slice(&bytes[pos..pos + 7]); // torn tail
        fs::write(&log_path, &cut).unwrap();

        let resumed = Campaign::new(&points, cfg(dir.clone()))
            .unwrap()
            .run(|_w, &p| Ok(vec![(p as f64).sin()]))
            .unwrap();
        assert_eq!(resumed.shards_resumed, 2);
        assert_eq!(resumed.completed, 20);
        let a = fs::read(&full.aggregate_csv).unwrap();
        let b = fs::read(&resumed.aggregate_csv).unwrap();
        assert_eq!(a, b, "resumed aggregate CSV is byte-identical");
    }

    #[test]
    fn incompatible_wal_is_rejected() {
        let points: Vec<u64> = (0..8).collect();
        let dir = test_dir("incompatible");
        Campaign::new(&points, cfg(dir.clone()))
            .unwrap()
            .run(|_w, &p| Ok(vec![p as f64]))
            .unwrap();
        let other: Vec<u64> = (100..108).collect();
        let err = Campaign::new(&other, cfg(dir))
            .unwrap()
            .run(|_w, &p| Ok(vec![p as f64]))
            .unwrap_err();
        assert!(matches!(err, CampaignError::Incompatible(_)), "{err:?}");
    }

    /// The WAL header and a shard with both statuses are pinned: the
    /// digests were computed before the WAL records moved onto the shared
    /// `Codec` trait, and any change to them must bump `WAL_VERSION`.
    #[test]
    fn golden_wal_bytes_are_pinned() {
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
        };
        let mut c = CampaignConfig::new("unused", &["peak_ratio", "résidu"]);
        c.shard_points = 3;
        c.max_retries = 4;
        c.backoff_base_ticks = 2;
        c.backoff_cap_ticks = 32;
        let header = encode_header(&c, 7, 0x0123_4567_89AB_CDEF);
        let frame = |h: &[u8]| next_frame(h, 0, HEADER_MAGIC).unwrap().unwrap().0.to_vec();
        check_header(&frame(&header), &c, 7, 0x0123_4567_89AB_CDEF).unwrap();
        let records = vec![
            PointOutcome {
                index: 3,
                digest: 0xFEED,
                attempts: 1,
                backoff_ticks: 0,
                status: PointStatus::Completed(vec![2.25, -0.0]),
            },
            PointOutcome {
                index: 4,
                digest: u64::MAX,
                attempts: 5,
                backoff_ticks: 30,
                status: PointStatus::Quarantined("panic: \"bad\" point".into()),
            },
            PointOutcome {
                index: 5,
                digest: 0,
                attempts: 2,
                backoff_ticks: 2,
                status: PointStatus::Completed(Vec::new()),
            },
        ];
        let shard = encode_shard(1, &records);
        let payload = next_frame(&shard, 0, SHARD_MAGIC).unwrap().unwrap().0;
        assert_eq!(decode_shard(payload).unwrap(), (1, records));
        assert_eq!(
            (fnv1a(&header), fnv1a(&shard), WAL_VERSION),
            (0xABA39D221FDF7888, 0x9EA3422270FEAD3B, 1),
            "WAL bytes changed"
        );
    }

    #[test]
    fn wal_records_satisfy_the_codec_properties() {
        crate::checkpoint::tests::check_type::<WalHeader>();
        crate::checkpoint::tests::check_type::<PointOutcome>();
        crate::checkpoint::tests::check_type::<PointStatus>();
        // The shard record cap was the literal 29: index, digest, attempts
        // and backoff plus the status tag. Every status also carries an
        // 8-byte length (values or message), which the derived bound adds.
        assert_eq!(PointOutcome::MIN_BYTES, 29 + 8);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let mut c = CampaignConfig::new("unused", &["v"]);
        c.backoff_base_ticks = 2;
        c.backoff_cap_ticks = 16;
        assert_eq!(c.backoff_ticks(0), 0);
        assert_eq!(c.backoff_ticks(1), 2);
        assert_eq!(c.backoff_ticks(2), 4);
        assert_eq!(c.backoff_ticks(3), 8);
        assert_eq!(c.backoff_ticks(4), 16);
        assert_eq!(c.backoff_ticks(5), 16, "capped");
        assert_eq!(c.backoff_ticks(63), 16);
    }

    #[test]
    fn telemetry_counts_points() {
        let points: Vec<u64> = (0..10).collect();
        let mut c = cfg(test_dir("telemetry"));
        c.max_retries = 1;
        let campaign = Campaign::new(&points, c).unwrap();
        let root = TelemetryRegistry::new();
        campaign
            .run_with_telemetry(&root, |_w, &p| {
                if p == 3 {
                    Err(crate::error::CilError::InvalidConfig("always bad".into()))
                } else {
                    Ok(vec![p as f64])
                }
            })
            .unwrap();
        let snap = root.snapshot();
        assert_eq!(snap.counter("cil_campaign_points_completed_total"), Some(9));
        assert_eq!(snap.counter("cil_campaign_points_retried_total"), Some(1));
        assert_eq!(
            snap.counter("cil_campaign_points_quarantined_total"),
            Some(1)
        );
        assert_eq!(snap.gauge("cil_campaign_queue_depth"), Some(0.0));
        assert!(snap
            .histogram("cil_campaign_shard_commit_wall_seconds")
            .is_some_and(|h| h.count == 3));
    }
}
