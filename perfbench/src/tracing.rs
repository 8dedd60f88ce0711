//! Outside-in tracing: spans the benchmark records around its own calls
//! into the program's public API (step blocks, point closures, mux calls).
//!
//! A span carries its layer name, start, end, the span that caused it and a
//! tag (the session, point or sub-run id). Every closed span adds to its
//! layer's running totals; the first [`SPAN_CAPACITY`] spans are also kept
//! in a buffer allocated up front and written out as JSON lines when the
//! run ends. With tracing off every call is a no-op that reads no clock.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept for the written trace; later spans only feed the totals.
pub const SPAN_CAPACITY: usize = 1 << 16;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// The layer boundaries the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One batched CGRA sub-run (engine build + closed loop).
    CgraRun,
    /// One `step`/`step_block` call into the CGRA engine, batched pass.
    CgraStep,
    /// One real-time CGRA sub-run (one revolution per block).
    RealtimeRun,
    /// One engine call of the real-time pass.
    RealtimeStep,
    /// One signal-level sub-run.
    SignalRun,
    /// One engine call into the signal-level chain.
    SignalStep,
    /// One RefTrack sub-run.
    ReftrackRun,
    /// One engine call into the RefTrack tracker.
    ReftrackStep,
    /// One fleet session, from `create` to the client seeing it finish.
    FleetSession,
    /// `SessionMux::create` plus `run_to_end`.
    MuxCreate,
    /// Client time blocked in `SessionHandle::wait` until the session is
    /// terminal.
    MuxJoin,
    /// `step_to` plus `wait` of a session paused for eviction.
    MuxPause,
    /// `SessionHandle::evict`.
    CheckpointEvict,
    /// One campaign repetition (fresh WAL directory, full cube).
    CampaignRun,
    /// One point closure.
    CampaignPoint,
    /// Engine lease from the worker's arena inside a point closure.
    CampaignLease,
    /// `TurnLevelLoop::run_on` inside a point closure.
    CampaignLoop,
    /// `score_jump_response` inside a point closure.
    CampaignScore,
}

impl Layer {
    /// Every layer, in declaration order (indexes the totals table).
    pub const ALL: [Layer; 18] = [
        Layer::CgraRun,
        Layer::CgraStep,
        Layer::RealtimeRun,
        Layer::RealtimeStep,
        Layer::SignalRun,
        Layer::SignalStep,
        Layer::ReftrackRun,
        Layer::ReftrackStep,
        Layer::FleetSession,
        Layer::MuxCreate,
        Layer::MuxJoin,
        Layer::MuxPause,
        Layer::CheckpointEvict,
        Layer::CampaignRun,
        Layer::CampaignPoint,
        Layer::CampaignLease,
        Layer::CampaignLoop,
        Layer::CampaignScore,
    ];

    /// Span name as written to the trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::CgraRun => "cgra.run",
            Layer::CgraStep => "cgra.step",
            Layer::RealtimeRun => "realtime.run",
            Layer::RealtimeStep => "realtime.step",
            Layer::SignalRun => "signal.run",
            Layer::SignalStep => "signal.step",
            Layer::ReftrackRun => "reftrack.run",
            Layer::ReftrackStep => "reftrack.step",
            Layer::FleetSession => "fleet.session",
            Layer::MuxCreate => "mux.create",
            Layer::MuxJoin => "mux.join",
            Layer::MuxPause => "mux.pause",
            Layer::CheckpointEvict => "checkpoint.evict",
            Layer::CampaignRun => "campaign.run",
            Layer::CampaignPoint => "campaign.point",
            Layer::CampaignLease => "campaign.lease",
            Layer::CampaignLoop => "campaign.loop",
            Layer::CampaignScore => "campaign.score",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One closed span.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    parent: u32,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    tag: u64,
}

/// An opened span: its id (usable as a child's parent) and start time.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// Span id; [`NO_PARENT`] when tracing is off.
    pub id: u32,
    start_ns: u64,
}

#[derive(Default)]
struct Totals {
    ns: AtomicU64,
    count: AtomicU64,
}

/// The span recorder. Shared by reference across worker threads.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    full: AtomicBool,
    closed: AtomicU64,
    totals: [Totals; Layer::ALL.len()],
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::with_capacity(if enabled { SPAN_CAPACITY } else { 0 })),
            full: AtomicBool::new(!enabled),
            closed: AtomicU64::new(0),
            totals: Default::default(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span (reads the clock only when enabled).
    pub fn open(&self) -> Open {
        if !self.enabled {
            return Open {
                id: NO_PARENT,
                start_ns: 0,
            };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_ns: self.now_ns(),
        }
    }

    /// Close `open` as a span of `layer` under `parent`, tagged `tag`.
    pub fn close(&self, open: Open, layer: Layer, parent: u32, tag: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let ns = end_ns.saturating_sub(open.start_ns);
        let totals = &self.totals[layer.index()];
        totals.ns.fetch_add(ns, Ordering::Relaxed);
        totals.count.fetch_add(1, Ordering::Relaxed);
        self.closed.fetch_add(1, Ordering::Relaxed);
        if !self.full.load(Ordering::Relaxed) {
            let mut spans = self.spans.lock().expect("span buffer lock poisoned");
            if spans.len() < SPAN_CAPACITY {
                spans.push(Span {
                    id: open.id,
                    parent,
                    layer,
                    start_ns: open.start_ns,
                    end_ns,
                    tag,
                });
            } else {
                self.full.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Run `f` inside a span; returns its result.
    pub fn span<T>(&self, layer: Layer, parent: u32, tag: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open();
        let out = f();
        self.close(open, layer, parent, tag);
        out
    }

    /// Total nanoseconds and span count recorded for `layer`.
    pub fn total(&self, layer: Layer) -> (u64, u64) {
        let t = &self.totals[layer.index()];
        (
            t.ns.load(Ordering::Relaxed),
            t.count.load(Ordering::Relaxed),
        )
    }

    /// Total seconds recorded for `layer`.
    pub fn seconds(&self, layer: Layer) -> f64 {
        self.total(layer).0 as f64 * 1e-9
    }

    /// Spans closed (kept or not).
    pub fn spans_closed(&self) -> u64 {
        self.closed.load(Ordering::Relaxed)
    }

    /// Write the kept spans as JSON lines, in close order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer lock poisoned");
        let mut out = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"tag\":{}}}",
                s.id,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.tag
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let o = t.open();
        assert_eq!(o.id, NO_PARENT);
        t.close(o, Layer::CgraStep, NO_PARENT, 0);
        assert_eq!(t.total(Layer::CgraStep), (0, 0));
        assert_eq!(t.spans_closed(), 0);
    }

    #[test]
    fn spans_accumulate_per_layer_and_keep_their_parent() {
        let t = Tracer::new(true);
        let run = t.open();
        let child = t.span(Layer::CgraStep, run.id, 7, || 42);
        assert_eq!(child, 42);
        t.close(run, Layer::CgraRun, NO_PARENT, 1);
        assert_eq!(t.total(Layer::CgraStep).1, 1);
        assert_eq!(t.total(Layer::CgraRun).1, 1);
        assert!(t.total(Layer::CgraRun).0 >= t.total(Layer::CgraStep).0);
        let spans = t.spans.lock().unwrap();
        assert_eq!(spans[0].parent, run.id);
        assert_eq!(spans[0].tag, 7);
        assert_eq!(spans[1].parent, NO_PARENT);
    }

    #[test]
    fn layer_table_is_in_declaration_order_with_unique_names() {
        for (i, l) in Layer::ALL.iter().enumerate() {
            assert_eq!(l.index(), i, "{}", l.name());
        }
        let mut names: Vec<_> = Layer::ALL.iter().map(|l| l.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Layer::ALL.len());
    }
}
