//! Zero-allocation-on-hot-path telemetry for the closed loop.
//!
//! The paper validates its HIL rig by *observing* it — phase transients,
//! tick-accurate schedule lengths, deadline headroom per revolution. This
//! module gives the reproduction the same eyes: a [`TelemetryRegistry`] of
//! named counters, gauges and fixed-log2-bucket histograms whose hot-path
//! operations are single atomic instructions on pre-resolved handles.
//! Registration (name → cell) takes a mutex and allocates; recording through
//! a [`Counter`], [`Gauge`] or [`Histogram`] handle never does.
//!
//! Layering: the loop layers ([`crate::harness`], [`crate::hil`],
//! [`crate::sweep`]) thread a registry through their hot paths via
//! [`LoopMetrics`]; leaf crates that must not depend on `cil-core`
//! (`cil-dsp`, `cil-cgra`) expose plain stat accessors which are *sampled*
//! into a registry here ([`sample_kernel_cache`],
//! [`crate::engine::BeamEngine::sample_telemetry`]).
//!
//! A [`TelemetrySnapshot`] freezes the registry for export in Prometheus
//! text exposition format ([`TelemetrySnapshot::to_prometheus`]) or JSON
//! ([`TelemetrySnapshot::to_json`]). Registries merge losslessly and
//! order-independently with [`TelemetryRegistry::absorb`] — the merge hook a
//! telemetry [`crate::sweep::parallel_sweep`] runs at each worker's join.
//!
//! Metric naming: `cil_<subsystem>_<quantity>[_total]`, with Prometheus
//! labels embedded in the name string (e.g.
//! `cil_supervisor_calibrated_step_seconds{fidelity="cgra"}`). Counters end
//! in `_total`; histograms and gauges are named by unit (`_seconds`,
//! `_samples`). Wall-clock-derived metrics contain `wall` in their name so
//! determinism tests can filter them out.

use crate::fault::LoopEvent;
use crate::harness::LoopTrace;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of histogram buckets. Bucket `i` (for `0 < i < 63`) covers values
/// in `[2^(i-32), 2^(i-31))`; bucket 0 collects everything below `2^-31`
/// (including zero, negatives and subnormals), bucket 63 everything from
/// `2^31` up. That spans nanoseconds to decades when observing seconds.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Exponent bias that maps the f64 binary exponent onto bucket 32 for
/// values in `[1, 2)`.
const BUCKET_BIAS: i64 = 32;

/// Bucket index for a value (see [`HISTOGRAM_BUCKETS`] for the scheme).
/// Non-finite values are treated as zero by [`Histogram::observe`], so they
/// land in bucket 0 and never poison the running sum.
fn bucket_index(v: f64) -> usize {
    if v <= 0.0 {
        return 0;
    }
    let biased_exp = ((v.to_bits() >> 52) & 0x7FF) as i64;
    if biased_exp == 0 {
        return 0; // subnormal
    }
    (biased_exp - 1023 + BUCKET_BIAS).clamp(0, HISTOGRAM_BUCKETS as i64 - 1) as usize
}

/// Upper bound (`le` label) of bucket `i`; `f64::INFINITY` for the last.
fn bucket_upper_bound(i: usize) -> f64 {
    if i >= HISTOGRAM_BUCKETS - 1 {
        f64::INFINITY
    } else {
        // 2^(i - 31)
        f64::from_bits((((i as i64 - 31 + 1023) as u64) & 0x7FF) << 52)
    }
}

#[derive(Debug, Default)]
struct CounterCell {
    value: AtomicU64,
}

#[derive(Debug, Default)]
struct GaugeCell {
    /// `f64` bit pattern (0u64 == 0.0).
    bits: AtomicU64,
}

impl GaugeCell {
    fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    /// Running sum of observations, `f64` bit pattern, CAS-updated.
    sum_bits: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }
}

impl HistogramCell {
    fn add_to_sum(&self, v: f64) {
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }
}

/// Monotonic event counter handle. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<CounterCell>,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

/// Last-value gauge handle. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<GaugeCell>,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.cell.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger (merge semantics — used by
    /// [`TelemetryRegistry::absorb`], where per-worker gauges sampling the
    /// same shared source must not add up).
    pub fn set_max(&self, v: f64) {
        if v > self.get() {
            self.set(v);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.cell.get()
    }
}

/// Fixed-log2-bucket histogram handle. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Record one observation. Non-finite values are recorded as zero
    /// (bucket 0, no sum contribution) so a poisoned measurement can never
    /// NaN the export.
    #[inline]
    pub fn observe(&self, v: f64) {
        let v = if v.is_finite() { v } else { 0.0 };
        self.cell.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.cell.count.fetch_add(1, Ordering::Relaxed);
        self.cell.add_to_sum(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.cell.sum()
    }

    /// Span-style timing: returns a guard that observes the elapsed
    /// wall-clock seconds into this histogram when dropped.
    pub fn time(&self) -> Span {
        Span {
            histogram: self.clone(),
            start: Instant::now(),
        }
    }

    /// Overwrite this histogram's cells from a frozen snapshot — the
    /// checkpoint-resume path, which must reproduce the deterministic
    /// histograms bit-for-bit (the sum is restored as its exact bit pattern
    /// so continued sequential addition matches an uninterrupted run).
    /// Fails (returns `false`) on a bucket-count mismatch.
    pub fn restore_snapshot(&self, snap: &HistogramSnapshot) -> bool {
        if snap.buckets.len() != HISTOGRAM_BUCKETS {
            return false;
        }
        for (cell, &v) in self.cell.buckets.iter().zip(&snap.buckets) {
            cell.store(v, Ordering::Relaxed);
        }
        self.cell.count.store(snap.count, Ordering::Relaxed);
        self.cell
            .sum_bits
            .store(snap.sum.to_bits(), Ordering::Relaxed);
        true
    }

    /// Freeze this histogram's current state (checkpoint capture).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .cell
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.cell.count.load(Ordering::Relaxed),
            sum: self.cell.sum(),
        }
    }
}

/// Timing guard returned by [`Histogram::time`]; records the elapsed
/// wall-clock into the histogram on drop.
#[derive(Debug)]
pub struct Span {
    histogram: Histogram,
    start: Instant,
}

impl Span {
    /// Elapsed seconds so far (without ending the span).
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.histogram.observe(self.start.elapsed().as_secs_f64());
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Arc<CounterCell>>,
    gauges: BTreeMap<String, Arc<GaugeCell>>,
    histograms: BTreeMap<String, Arc<HistogramCell>>,
}

/// A registry of named metrics. Cheap to clone (shared handle); safe to use
/// from many threads. The name → cell map is mutex-guarded, but only
/// registration touches it — recording goes through pre-resolved
/// [`Counter`]/[`Gauge`]/[`Histogram`] handles and is lock- and
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct TelemetryRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl TelemetryRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        let cell = inner.counters.entry(name.to_string()).or_default();
        Counter {
            cell: Arc::clone(cell),
        }
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().unwrap();
        let cell = inner.gauges.entry(name.to_string()).or_default();
        Gauge {
            cell: Arc::clone(cell),
        }
    }

    /// Get or register the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().unwrap();
        let cell = inner.histograms.entry(name.to_string()).or_default();
        Histogram {
            cell: Arc::clone(cell),
        }
    }

    /// Merge another registry into this one: counters and histogram
    /// buckets/counts/sums add, gauges take the maximum. Counter and bucket
    /// merges are exact and order-independent; histogram sums are float
    /// additions (commutative, so N-way merges agree to rounding).
    pub fn absorb(&self, other: &TelemetryRegistry) {
        // Snapshot the other side's cells first so we never hold two
        // registry locks at once (self.absorb(self) or cross-absorb from
        // two threads must not deadlock).
        let (counters, gauges, histograms) = {
            let o = other.inner.lock().unwrap();
            (
                o.counters
                    .iter()
                    .map(|(n, c)| (n.clone(), Arc::clone(c)))
                    .collect::<Vec<_>>(),
                o.gauges
                    .iter()
                    .map(|(n, c)| (n.clone(), Arc::clone(c)))
                    .collect::<Vec<_>>(),
                o.histograms
                    .iter()
                    .map(|(n, c)| (n.clone(), Arc::clone(c)))
                    .collect::<Vec<_>>(),
            )
        };
        for (name, cell) in counters {
            self.counter(&name).add(cell.value.load(Ordering::Relaxed));
        }
        for (name, cell) in gauges {
            self.gauge(&name).set_max(cell.get());
        }
        for (name, cell) in histograms {
            let h = self.histogram(&name);
            for (i, b) in cell.buckets.iter().enumerate() {
                h.cell.buckets[i].fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            h.cell
                .count
                .fetch_add(cell.count.load(Ordering::Relaxed), Ordering::Relaxed);
            h.cell.add_to_sum(cell.sum());
        }
    }

    /// Freeze the current values into a [`TelemetrySnapshot`].
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.inner.lock().unwrap();
        TelemetrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.value.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, c)| {
                    (
                        n.clone(),
                        HistogramSnapshot {
                            buckets: c
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                            count: c.count.load(Ordering::Relaxed),
                            sum: c.sum(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Frozen state of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Sum over all buckets — equals [`Self::count`] by construction; the
    /// golden-trace tests assert this invariant on every exported histogram.
    pub fn bucket_total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper-bound estimate of the `q`-quantile (`q` in `[0, 1]`): the `le`
    /// edge of the bucket containing the `ceil(q · count)`-th observation.
    /// Conservative by construction — the true quantile lies at or below
    /// the returned edge (within one power of two). `None` on an empty
    /// histogram; the top bucket reports `f64::INFINITY`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cumulative += b;
            if cumulative >= rank {
                return Some(bucket_upper_bound(i));
            }
        }
        Some(f64::INFINITY)
    }
}

/// Frozen registry state, ready for export. Metric names are sorted, so two
/// snapshots of identical registries compare (and serialise) identically.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Counter values by name (sorted).
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name (sorted).
    pub gauges: Vec<(String, f64)>,
    /// Histogram states by name (sorted).
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Split `name{label="x"}` into `(base, Some(label="x"))`; a plain name
/// yields `(name, None)`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (base, Some(rest.trim_end_matches('}'))),
        None => (name, None),
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) — the
/// metric names carry embedded `label="value"` quotes. Returns the body of
/// the literal, without the surrounding quotes.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl TelemetrySnapshot {
    /// Value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// State of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Prometheus text exposition format. Histograms render cumulative
    /// `_bucket{le=...}` lines plus `_sum` and `_count`, skipping empty
    /// leading buckets to keep the output readable.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let (base, _) = split_labels(name);
            let _ = writeln!(out, "# TYPE {base} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let (base, _) = split_labels(name);
            let _ = writeln!(out, "# TYPE {base} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, h) in &self.histograms {
            let (base, labels) = split_labels(name);
            let _ = writeln!(out, "# TYPE {base} histogram");
            let mut cumulative = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                cumulative += b;
                // Print only the populated range plus the mandatory +Inf.
                let last = i == HISTOGRAM_BUCKETS - 1;
                if b == 0 && !last {
                    continue;
                }
                let le = bucket_upper_bound(i);
                let le = if le.is_infinite() {
                    "+Inf".to_string()
                } else {
                    format!("{le:e}")
                };
                let line = match labels {
                    Some(l) => format!("{base}_bucket{{{l},le=\"{le}\"}} {cumulative}"),
                    None => format!("{base}_bucket{{le=\"{le}\"}} {cumulative}"),
                };
                let _ = writeln!(out, "{line}");
            }
            let suffix = |metric: &str| match labels {
                Some(l) => format!("{base}_{metric}{{{l}}}"),
                None => format!("{base}_{metric}"),
            };
            let _ = writeln!(out, "{} {}", suffix("sum"), h.sum);
            let _ = writeln!(out, "{} {}", suffix("count"), h.count);
        }
        out
    }

    /// JSON object with `counters`, `gauges` and `histograms` maps
    /// (hand-rolled — the export must not drag a serialisation dependency
    /// into the hot-loop crate).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{value}", json_escape(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{value}", json_escape(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                json_escape(name),
                h.count,
                h.sum
            );
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// How many measured rows share one wall-clock sample in the harness hot
/// loop. `Instant::now()` costs about as much as a Map-fidelity step, so the
/// harness reads the clock once per block and records the per-row average —
/// that is what keeps telemetry-on within 10% of telemetry-off (the
/// throughput-guard test). The harness's batched stepping
/// ([`crate::harness::LoopHarness::with_block_rows`]) defaults its block
/// size to this figure, so one engine block and one wall sample cover the
/// same row span; the sampler counts rows itself and stays correct (same
/// samples, same averages) for any other block size.
pub const WALL_SAMPLE_ROWS: u64 = 64;

/// Pre-resolved handles for every metric the loop harness records; built
/// once per run by [`LoopMetrics::register`] so the hot loop touches only
/// atomics.
#[derive(Debug, Clone)]
pub struct LoopMetrics {
    /// The registry the handles live in (engine-side sampling needs it).
    pub registry: TelemetryRegistry,
    pub(crate) idle_steps: Counter,
    pub(crate) revolution_wall: Histogram,
    pub(crate) step_modeled: Histogram,
    pub(crate) deadline_headroom: Histogram,
    revolutions: Counter,
    jump_edges: Counter,
    fault_activations: Counter,
    rows_corrupted: Counter,
    outliers_rejected: Counter,
    actuation_clamps: Counter,
    deadline_overruns: Counter,
    demotions: Counter,
    beam_losses: Counter,
    checkpoint_rejections: Counter,
    cavity_sags: Counter,
    compensations: Counter,
    pub(crate) checkpoint_writes: Counter,
    pub(crate) checkpoint_write_wall: Histogram,
}

impl LoopMetrics {
    /// Resolve (registering on first use) every loop metric in `registry`.
    pub fn register(registry: &TelemetryRegistry) -> Self {
        Self {
            idle_steps: registry.counter("cil_loop_idle_steps_total"),
            revolution_wall: registry.histogram("cil_loop_revolution_wall_seconds"),
            step_modeled: registry.histogram("cil_supervisor_step_modeled_seconds"),
            deadline_headroom: registry.histogram("cil_supervisor_deadline_headroom_seconds"),
            revolutions: registry.counter("cil_loop_revolutions_total"),
            jump_edges: registry.counter("cil_loop_jump_edges_total"),
            fault_activations: registry.counter("cil_fault_activations_total"),
            rows_corrupted: registry.counter("cil_fault_rows_corrupted_total"),
            outliers_rejected: registry.counter("cil_supervisor_outliers_rejected_total"),
            actuation_clamps: registry.counter("cil_supervisor_actuation_clamps_total"),
            deadline_overruns: registry.counter("cil_supervisor_deadline_overruns_total"),
            demotions: registry.counter("cil_supervisor_demotions_total"),
            beam_losses: registry.counter("cil_loop_beam_losses_total"),
            checkpoint_rejections: registry.counter("cil_checkpoint_rejections_total"),
            cavity_sags: registry.counter("cil_cavity_sags_total"),
            compensations: registry.counter("cil_cavity_compensations_total"),
            checkpoint_writes: registry.counter("cil_checkpoint_writes_total"),
            checkpoint_write_wall: registry.histogram("cil_checkpoint_write_wall_seconds"),
            registry: registry.clone(),
        }
    }

    /// Fold a finished run's trace into the counters. Counting from the
    /// recorded trace (rather than shadow-counting in the loop) guarantees
    /// the exported counters always equal what an auditor would count in
    /// `trace.events` — the invariant the golden-trace tests pin down.
    pub fn note_trace(&self, trace: &LoopTrace) {
        self.revolutions.add(trace.times.len() as u64);
        self.jump_edges.add(trace.jump_times.len() as u64);
        for event in &trace.events {
            match event {
                LoopEvent::FaultActive { .. } => self.fault_activations.inc(),
                LoopEvent::RowCorrupted { .. } => self.rows_corrupted.inc(),
                LoopEvent::OutlierRejected { .. } => self.outliers_rejected.inc(),
                LoopEvent::ActuationClamped { .. } => self.actuation_clamps.inc(),
                LoopEvent::DeadlineOverrun { .. } => self.deadline_overruns.inc(),
                LoopEvent::EngineDemoted { .. } => self.demotions.inc(),
                LoopEvent::BeamLost { .. } => self.beam_losses.inc(),
                LoopEvent::CheckpointRejected { .. } => self.checkpoint_rejections.inc(),
                LoopEvent::CavitySagDetected { .. } => self.cavity_sags.inc(),
                LoopEvent::CompensationEngaged { .. } => self.compensations.inc(),
            }
        }
    }

    /// Snapshot the metrics the loop accumulates *mid-run* (everything not
    /// derived from the trace at run end, minus wall-clock metrics, which
    /// are excluded from determinism comparisons anyway).
    pub(crate) fn checkpoint_snapshot(&self) -> crate::checkpoint::TelemetryCheckpoint {
        crate::checkpoint::TelemetryCheckpoint {
            idle_steps: self.idle_steps.get(),
            step_modeled: self.step_modeled.snapshot(),
            deadline_headroom: self.deadline_headroom.snapshot(),
        }
    }

    /// Fold a finished run's event-queue accounting into the registry:
    /// `cil_events_scheduled_total` / `cil_events_fired_total` per
    /// [`SimEvent`](crate::event::SimEvent) kind and the end-of-run queue
    /// depth gauge. Every kind is exported (zeros included) so two runs of
    /// the same configuration always produce identical metric name sets.
    /// Handles are resolved here, at fold time — the queue itself keeps
    /// plain per-kind arrays on the hot path. The depth gauge's label key
    /// (`checkpointing`) deliberately contains `checkpoint`: the armed
    /// count legitimately differs between a checkpointing run and its
    /// plain reference, so the determinism filters must drop it.
    pub fn note_events(&self, queue: &crate::event::EventQueue, checkpointing: bool) {
        for kind in crate::event::SimEvent::ALL {
            self.registry
                .counter(&format!(
                    "cil_events_scheduled_total{{kind=\"{}\"}}",
                    kind.label()
                ))
                .add(queue.scheduled_total(kind));
            self.registry
                .counter(&format!(
                    "cil_events_fired_total{{kind=\"{}\"}}",
                    kind.label()
                ))
                .add(queue.fired_total(kind));
        }
        self.registry
            .gauge(&format!(
                "cil_events_queue_depth{{checkpointing=\"{}\"}}",
                if checkpointing { "on" } else { "off" }
            ))
            .set(queue.depth() as f64);
    }

    /// Re-apply a mid-run telemetry snapshot onto this (fresh) registry.
    /// Counters are *added* (a resumed run starts from zero), histograms
    /// restored bit-exact. Returns `false` on a histogram shape mismatch.
    pub(crate) fn restore_checkpoint(&self, t: &crate::checkpoint::TelemetryCheckpoint) -> bool {
        self.idle_steps.add(t.idle_steps);
        self.step_modeled.restore_snapshot(&t.step_modeled)
            && self
                .deadline_headroom
                .restore_snapshot(&t.deadline_headroom)
    }
}

/// Sample a [`cil_cgra::cache::CompiledKernelCache`]'s statistics into
/// `registry` as gauges. Gauges (absolute samples), not counters: several
/// workers sampling the *shared* process-wide cache must not add up on
/// merge — [`TelemetryRegistry::absorb`] takes the max instead.
pub fn sample_kernel_cache(
    registry: &TelemetryRegistry,
    cache: &cil_cgra::cache::CompiledKernelCache,
) {
    registry
        .gauge("cil_cgra_cache_hits")
        .set(cache.hits() as f64);
    registry
        .gauge("cil_cgra_cache_misses")
        .set(cache.misses() as f64);
    registry
        .gauge("cil_cgra_cache_entries")
        .set(cache.len() as f64);
    registry
        .gauge("cil_cgra_cache_compile_wall_seconds")
        .set(cache.compile_seconds());
}

/// [`sample_kernel_cache`] over the process-wide [`cil_cgra::cache::global`]
/// cache — what the examples and bench binaries call before exporting.
pub fn sample_global_kernel_cache(registry: &TelemetryRegistry) {
    sample_kernel_cache(registry, cil_cgra::cache::global());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_the_line() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(f64::MIN_POSITIVE / 2.0), 0, "subnormal");
        assert_eq!(bucket_index(1.0), 32);
        assert_eq!(bucket_index(1.999), 32);
        assert_eq!(bucket_index(2.0), 33);
        assert_eq!(bucket_index(0.5), 31);
        assert_eq!(bucket_index(1e-9), 2); // 2^-30 ≈ 9.3e-10 ≤ 1e-9 < 2^-29
        assert_eq!(bucket_index(1e300), 63);
        assert_eq!(bucket_index(f64::MAX), 63);
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let hi = bucket_upper_bound(i);
            let lo = bucket_upper_bound(i - 1);
            assert_eq!(bucket_index(lo), i, "lower edge lands in bucket {i}");
            assert_eq!(
                bucket_index(hi * (1.0 - 1e-12)),
                i,
                "just below the upper edge stays in bucket {i}"
            );
        }
        assert!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1).is_infinite());
    }

    #[test]
    fn counter_gauge_histogram_roundtrip() {
        let reg = TelemetryRegistry::new();
        let c = reg.counter("c_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-resolving the same name shares the cell.
        assert_eq!(reg.counter("c_total").get(), 5);

        let g = reg.gauge("g");
        g.set(2.5);
        g.set_max(1.0);
        assert_eq!(g.get(), 2.5);
        g.set_max(3.0);
        assert_eq!(g.get(), 3.0);

        let h = reg.histogram("h_seconds");
        h.observe(1.5);
        h.observe(3.0);
        h.observe(f64::NAN); // folded to zero, never poisons the sum
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 4.5).abs() < 1e-12);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("c_total"), Some(5));
        assert_eq!(snap.gauge("g"), Some(3.0));
        let hs = snap.histogram("h_seconds").unwrap();
        assert_eq!(hs.count, 3);
        assert_eq!(hs.bucket_total(), hs.count);
        assert_eq!(hs.buckets[0], 1, "NaN observation fell into bucket 0");
        assert_eq!(hs.buckets[32], 1, "1.5 in [1,2)");
        assert_eq!(hs.buckets[33], 1, "3.0 in [2,4)");
    }

    #[test]
    fn span_records_elapsed_time() {
        let reg = TelemetryRegistry::new();
        let h = reg.histogram("span_wall_seconds");
        {
            let span = h.time();
            std::thread::sleep(std::time::Duration::from_millis(2));
            assert!(span.elapsed_seconds() > 0.0);
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 2e-3, "slept 2 ms, recorded {}", h.sum());
    }

    #[test]
    fn absorb_adds_counters_and_histograms_and_maxes_gauges() {
        let a = TelemetryRegistry::new();
        let b = TelemetryRegistry::new();
        a.counter("c_total").add(2);
        b.counter("c_total").add(3);
        b.counter("only_b_total").add(7);
        a.gauge("g").set(1.0);
        b.gauge("g").set(9.0);
        a.histogram("h").observe(1.0);
        b.histogram("h").observe(1.0);
        b.histogram("h").observe(100.0);

        a.absorb(&b);
        let snap = a.snapshot();
        assert_eq!(snap.counter("c_total"), Some(5));
        assert_eq!(snap.counter("only_b_total"), Some(7));
        assert_eq!(snap.gauge("g"), Some(9.0));
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.bucket_total(), 3);
        assert!((h.sum - 102.0).abs() < 1e-9);
        // b is untouched.
        assert_eq!(b.snapshot().counter("c_total"), Some(3));
    }

    #[test]
    fn prometheus_export_renders_all_kinds() {
        let reg = TelemetryRegistry::new();
        reg.counter("cil_demo_events_total").add(3);
        reg.gauge("cil_demo_level{channel=\"ref\"}").set(0.5);
        let h = reg.histogram("cil_demo_latency_seconds{fidelity=\"map\"}");
        h.observe(1.5);
        h.observe(1e-9);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE cil_demo_events_total counter"));
        assert!(text.contains("cil_demo_events_total 3"));
        assert!(text.contains("# TYPE cil_demo_level gauge"));
        assert!(text.contains("cil_demo_level{channel=\"ref\"} 0.5"));
        assert!(text.contains("# TYPE cil_demo_latency_seconds histogram"));
        // Labelled histograms splice the labels before the le bucket label.
        assert!(
            text.contains("cil_demo_latency_seconds_bucket{fidelity=\"map\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("cil_demo_latency_seconds_count{fidelity=\"map\"} 2"));
        assert!(text.contains("cil_demo_latency_seconds_sum{fidelity=\"map\"}"));
    }

    #[test]
    fn json_export_is_well_formed_and_escaped() {
        let reg = TelemetryRegistry::new();
        reg.counter("a_total").add(1);
        reg.gauge("g{label=\"x\"}").set(2.0);
        reg.histogram("h").observe(4.0);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a_total\":1"));
        // Embedded label quotes must be escaped.
        assert!(json.contains("\"g{label=\\\"x\\\"}\":2"));
        assert!(json.contains("\"count\":1"));
        // Balanced braces/brackets (cheap well-formedness check; the names
        // contain no raw braces once escaped).
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let make = |order: &[&str]| {
            let reg = TelemetryRegistry::new();
            for name in order {
                reg.counter(name).inc();
            }
            reg.snapshot()
        };
        let a = make(&["x_total", "a_total", "m_total"]);
        let b = make(&["m_total", "x_total", "a_total"]);
        assert_eq!(a, b);
        assert_eq!(a.to_prometheus(), b.to_prometheus());
        assert_eq!(a.to_json(), b.to_json());
    }
}
