//! Parallel scenario sweeps.
//!
//! The ablations (A3, A5, …) evaluate many independent scenario variants;
//! each variant is seconds of simulation, so running them across cores is
//! the difference between an interactive sweep and a coffee break. Inputs
//! are split into contiguous chunks, one scoped thread per chunk, and every
//! worker writes its results into its own disjoint `&mut` slice of the
//! output — no locks anywhere. [`parallel_sweep_with`] additionally hands
//! each worker a reusable per-thread state arena (e.g. a warm
//! engine/trace allocation, or a handle that keeps compiled-kernel cache
//! entries alive) built once per thread instead of once per item.
//! [`parallel_sweep_telemetry`] specialises the state arena to a per-worker
//! [`TelemetryRegistry`] merged into a root registry at join — each worker
//! records into private atomics, so the sweep hot path takes no shared lock.

use crate::engine::{BeamEngine, EngineKind};
use crate::error::Result;
use crate::scenario::MdeScenario;
use crate::telemetry::TelemetryRegistry;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Context attached to a panic that escaped a sweep worker: which input
/// blew up, and its scenario digest when the caller supplied one.
///
/// A bare worker panic used to surface as an anonymous join panic — useless
/// for a 10⁵-point campaign where "which point?" is the whole question. Every
/// `parallel_sweep_*` entry point now re-raises worker panics through
/// [`resume_unwind`] with this struct as the payload; callers that want to
/// map a panic back to a point (the campaign layer's quarantine path)
/// downcast the payload to `SweepPanic`.
pub struct SweepPanic {
    /// Index of the failing item in the sweep's input slice.
    pub index: usize,
    /// Caller-supplied digest of the failing input (e.g.
    /// [`MdeScenario::digest`]); 0 when the sweep variant attaches none.
    pub digest: u64,
    /// The original panic payload.
    pub payload: Box<dyn Any + Send>,
}

impl SweepPanic {
    /// Human-readable form of the original payload: the `&str` / `String`
    /// message when the panic carried one, a placeholder otherwise.
    pub fn message(&self) -> &str {
        panic_message(&self.payload)
    }
}

impl std::fmt::Debug for SweepPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepPanic")
            .field("index", &self.index)
            .field("digest", &format_args!("{:016x}", self.digest))
            .field("message", &self.message())
            .finish()
    }
}

/// Extract the conventional `&str` / `String` message from a panic payload.
pub(crate) fn panic_message(payload: &Box<dyn Any + Send>) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "<non-string panic payload>"
    }
}

/// Slots an [`EngineArena`] keeps warm before evicting least-recently-used
/// engines. Sized for the fleet executor's working set: one slot per
/// fidelity a mixed-session worker realistically cycles through.
pub const ARENA_SLOTS: usize = 4;

/// Per-worker engine cache: keeps recently-built engines alive (LRU over
/// [`ARENA_SLOTS`] slots, keyed on [`EngineKind`] +
/// [`MdeScenario::engine_config_eq`]) and leases them out again — rewound
/// to their freshly-built state — whenever the next lease would build an
/// identical engine.
///
/// Sweeps that vary only harness-side knobs (controller gain, jump program,
/// duration) hit the cache on every point after the first, skipping engine
/// construction — for the CGRA fidelity that is the schedule lookup,
/// executor build and pipeline warmup per point. The rewind goes through
/// [`BeamEngine::restore_state`], the same snapshot/restore pair the
/// checkpoint layer proves bit-identical, so a leased engine is
/// indistinguishable from a freshly built one. The session executor
/// ([`crate::session`]) additionally checks engines *out* of the arena
/// ([`Self::checkout`]/[`Self::checkin`]), holding one across a time slice
/// while the arena stays usable for the worker's other sessions.
pub struct EngineArena {
    /// Warm engines, least-recently-used first.
    slots: Vec<ArenaSlot>,
    /// LRU capacity (≥ 1).
    capacity: usize,
    hits: usize,
    misses: usize,
}

impl Default for EngineArena {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            capacity: ARENA_SLOTS,
            hits: 0,
            misses: 0,
        }
    }
}

struct ArenaSlot {
    kind: EngineKind,
    scenario: MdeScenario,
    engine: Box<dyn BeamEngine>,
    fresh: crate::engine::EngineState,
}

/// An engine checked out of an [`EngineArena`]: the engine itself plus the
/// bookkeeping needed to re-admit it ([`EngineArena::checkin`]). The engine
/// is handed over rewound to its freshly-built state; the holder may
/// restore any saved state on top.
pub struct ArenaLease {
    engine: Box<dyn BeamEngine>,
    kind: EngineKind,
    scenario: MdeScenario,
    fresh: crate::engine::EngineState,
}

impl ArenaLease {
    /// The leased engine (boxed, so a supervised slice can swap the
    /// fidelity in place on demotion).
    pub fn engine(&mut self) -> &mut Box<dyn BeamEngine> {
        &mut self.engine
    }

    /// Fidelity the lease was checked out under.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }
}

impl EngineArena {
    /// An empty arena (no engine cached yet), [`ARENA_SLOTS`] slots.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena holding up to `slots` warm engines (floored at 1).
    pub fn with_slots(slots: usize) -> Self {
        Self {
            capacity: slots.max(1),
            ..Self::default()
        }
    }

    /// Index of the slot matching (`kind`, `scenario`), if any.
    fn find(&self, scenario: &MdeScenario, kind: EngineKind) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.kind == kind && s.scenario.engine_config_eq(scenario))
    }

    /// Take the matching slot out, rewound to its freshly-built state; a
    /// rewind failure (the fresh snapshot no longer fits the engine that
    /// produced it) discards the slot — the caller must rebuild.
    fn take_rewound(&mut self, scenario: &MdeScenario, kind: EngineKind) -> Option<ArenaSlot> {
        let i = self.find(scenario, kind)?;
        let mut slot = self.slots.remove(i);
        if slot.engine.restore_state(&slot.fresh) {
            Some(slot)
        } else {
            None
        }
    }

    /// Push a slot, evicting the least-recently-used one over capacity.
    fn admit(&mut self, slot: ArenaSlot) {
        self.slots.push(slot);
        while self.slots.len() > self.capacity {
            self.slots.remove(0);
        }
    }

    /// Lease an engine for `scenario` at fidelity `kind`: reuses a cached
    /// engine rewound to its initial state when the configuration matches,
    /// builds (and caches) a fresh one otherwise.
    pub fn engine(
        &mut self,
        scenario: &MdeScenario,
        kind: EngineKind,
    ) -> Result<&mut dyn BeamEngine> {
        match self.take_rewound(scenario, kind) {
            Some(slot) => {
                self.hits += 1;
                self.admit(slot);
            }
            None => {
                let engine = kind.build(scenario)?;
                let fresh = engine.save_state();
                self.misses += 1;
                self.admit(ArenaSlot {
                    kind,
                    scenario: scenario.clone(),
                    engine,
                    fresh,
                });
            }
        }
        Ok(self
            .slots
            .last_mut()
            .expect("slot was just admitted")
            .engine
            .as_mut())
    }

    /// Check an engine *out* of the arena (building one on a miss): the
    /// caller owns it until [`Self::checkin`]. The engine comes rewound to
    /// its freshly-built state, bit-identical to a new build.
    pub fn checkout(&mut self, scenario: &MdeScenario, kind: EngineKind) -> Result<ArenaLease> {
        let slot = match self.take_rewound(scenario, kind) {
            Some(slot) => {
                self.hits += 1;
                slot
            }
            None => {
                let engine = kind.build(scenario)?;
                let fresh = engine.save_state();
                self.misses += 1;
                ArenaSlot {
                    kind,
                    scenario: scenario.clone(),
                    engine,
                    fresh,
                }
            }
        };
        Ok(ArenaLease {
            engine: slot.engine,
            kind: slot.kind,
            scenario: slot.scenario,
            fresh: slot.fresh,
        })
    }

    /// Return a checked-out engine to the warm pool. Callers must *drop*
    /// (not check in) a lease whose engine was rebuilt at another fidelity
    /// mid-slice — the lease's fresh-state snapshot no longer describes the
    /// box's contents; [`Self::checkin`] detects the mismatch and discards
    /// the lease rather than poisoning the cache.
    pub fn checkin(&mut self, lease: ArenaLease) {
        let ArenaLease {
            mut engine,
            kind,
            scenario,
            fresh,
        } = lease;
        // A demoted lease holds a different fidelity than it was checked
        // out under; its fresh-state snapshot no longer fits the box's
        // contents. The rewind doubles as the compatibility check — on
        // failure the lease is discarded rather than poisoning the cache.
        if !engine.restore_state(&fresh) {
            return;
        }
        // One warm engine per key: a concurrent-looking checkout/checkin
        // sequence on the same key keeps the most recent engine.
        if let Some(i) = self.find(&scenario, kind) {
            self.slots.remove(i);
        }
        self.admit(ArenaSlot {
            kind,
            scenario,
            engine,
            fresh,
        });
    }

    /// Leases served from the cached engine.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Leases that had to build a fresh engine.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Drop every cached engine (hit/miss counters survive). The campaign
    /// runner calls this after a leased engine panicked mid-point: the
    /// engine's internal state is suspect, so the next lease must rebuild.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Record the arena's lease counters into `reg` as
    /// `cil_arena_hits_total` / `cil_arena_misses_total`.
    ///
    /// Call once per worker at sweep join (before the registry is absorbed
    /// into the root): counters sum across workers under
    /// [`TelemetryRegistry::absorb`], so the root totals are exact over the
    /// whole sweep. (The ISSUE sketch said "gauges", but absorb merges
    /// gauges by max — summing lease counts across workers needs counters.)
    pub fn sample_telemetry(&self, reg: &TelemetryRegistry) {
        reg.counter("cil_arena_hits_total").add(self.hits as u64);
        reg.counter("cil_arena_misses_total")
            .add(self.misses as u64);
    }
}

/// Run `f` over every item of `inputs` on up to `threads` worker threads,
/// giving each worker a private state value built by `init` (once per
/// thread). Results come back in input order; `f` must be deterministic per
/// input for the sweep to be reproducible (all our simulations are).
///
/// Chunking is contiguous, so for a fixed input list the (input, worker)
/// assignment — and therefore any per-thread state reuse — is itself
/// deterministic for a given thread count, and the *results* are identical
/// across thread counts.
pub fn parallel_sweep_with<I, O, S, G, F>(inputs: &[I], threads: usize, init: G, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, &I) -> O + Sync,
{
    parallel_sweep_with_merge(inputs, threads, init, f, |_| {})
}

/// [`parallel_sweep_with`] plus a `merge` hook: each worker calls
/// `merge(state)` on its own thread after finishing its chunk, before
/// joining. `merge` observes every worker's final state exactly once
/// regardless of thread count — the primitive behind
/// [`parallel_sweep_telemetry`]'s lossless registry merging.
pub fn parallel_sweep_with_merge<I, O, S, G, F, M>(
    inputs: &[I],
    threads: usize,
    init: G,
    f: F,
    merge: M,
) -> Vec<O>
where
    I: Sync,
    O: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, &I) -> O + Sync,
    M: Fn(S) + Sync,
{
    parallel_sweep_with_merge_digest(inputs, threads, init, f, merge, |_| 0)
}

/// [`parallel_sweep_with_merge`] plus a `digest` hook used only on the
/// failure path: when `f` panics, the unwind is resumed with a
/// [`SweepPanic`] payload carrying the failing input's index and
/// `digest(input)` so the error names the point instead of just the thread.
pub fn parallel_sweep_with_merge_digest<I, O, S, G, F, M, D>(
    inputs: &[I],
    threads: usize,
    init: G,
    f: F,
    merge: M,
    digest: D,
) -> Vec<O>
where
    I: Sync,
    O: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, &I) -> O + Sync,
    M: Fn(S) + Sync,
    D: Fn(&I) -> u64 + Sync,
{
    assert!(threads >= 1);
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let chunk = n.div_ceil(threads.min(n));

    let init = &init;
    let f = &f;
    let merge = &merge;
    let digest = &digest;
    // Each worker returns its chunk's results through the join handle;
    // joining in spawn order reassembles the input order without ever
    // holding partially-filled slots. Worker panics are caught per item so
    // the re-raise can say *which* item; the chunk stops at the first
    // panic (its state is suspect) and skips its merge.
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .chunks(chunk)
            .enumerate()
            .map(|(ci, in_chunk)| {
                scope.spawn(move || {
                    let mut state = init();
                    let mut out = Vec::with_capacity(in_chunk.len());
                    for (li, input) in in_chunk.iter().enumerate() {
                        match catch_unwind(AssertUnwindSafe(|| f(&mut state, input))) {
                            Ok(o) => out.push(o),
                            Err(payload) => {
                                return Err(SweepPanic {
                                    index: ci * chunk + li,
                                    digest: digest(input),
                                    payload,
                                })
                            }
                        }
                    }
                    merge(state);
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(Ok(chunk_out)) => chunk_out,
                Ok(Err(sweep_panic)) => resume_unwind(Box::new(sweep_panic)),
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    })
}

/// Telemetry-carrying sweep: each worker gets a private
/// [`TelemetryRegistry`] to record into (passed to `f` alongside the input),
/// absorbed into `root` when the worker finishes its chunk. Recording is
/// per-worker atomics — no shared lock on the hot path; the only
/// synchronisation is one absorb per worker at join. Counter and
/// histogram-bucket totals in `root` are exact sums over all items,
/// independent of thread count.
pub fn parallel_sweep_telemetry<I, O, F>(
    inputs: &[I],
    threads: usize,
    root: &TelemetryRegistry,
    f: F,
) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&TelemetryRegistry, &I) -> O + Sync,
{
    parallel_sweep_with_merge(
        inputs,
        threads,
        TelemetryRegistry::new,
        |reg, input| f(reg, input),
        |reg| root.absorb(&reg),
    )
}

/// Stateless sweep: run `f` over every item on up to `threads` workers;
/// results in input order.
pub fn parallel_sweep<I, O, F>(inputs: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    parallel_sweep_with(inputs, threads, || (), |(), input| f(input))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;
    use crate::hil::TurnLevelLoop;
    use crate::scenario::MdeScenario;

    #[test]
    fn results_in_input_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = parallel_sweep(&inputs, 8, |&x| x * x);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64).pow(2));
        }
    }

    #[test]
    fn single_thread_matches_parallel() {
        let inputs: Vec<f64> = (0..50).map(|i| f64::from(i) * 0.1).collect();
        let seq = parallel_sweep(&inputs, 1, |&x| (x.sin() * 1e6).round());
        let par = parallel_sweep(&inputs, 16, |&x| (x.sin() * 1e6).round());
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = parallel_sweep(&Vec::<u32>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let inputs = [1u32, 2, 3];
        let out = parallel_sweep(&inputs, 64, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn worker_state_is_reused_within_a_thread() {
        // One worker, stateful counter: proves `init` ran once and the
        // arena persisted across items of the chunk.
        let inputs: Vec<u32> = (0..10).collect();
        let out = parallel_sweep_with(
            &inputs,
            1,
            || 0u32,
            |seen, &x| {
                *seen += 1;
                (x, *seen)
            },
        );
        for (i, &(x, seen)) in out.iter().enumerate() {
            assert_eq!(x, i as u32);
            assert_eq!(seen, i as u32 + 1, "state carried across items");
        }
    }

    #[test]
    fn telemetry_sweep_counts_every_item_once() {
        let inputs: Vec<u32> = (0..40).collect();
        let root = TelemetryRegistry::new();
        let out = parallel_sweep_telemetry(&inputs, 4, &root, |reg, &x| {
            reg.counter("items_total").inc();
            reg.histogram("value_hist").observe(f64::from(x));
            x
        });
        assert_eq!(out.len(), 40);
        let snap = root.snapshot();
        assert_eq!(snap.counter("items_total"), Some(40));
        assert_eq!(snap.histogram("value_hist").unwrap().count, 40);
    }

    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_builds() {
        let gains = [-2.0, -5.0, -8.0];
        let mut arena = EngineArena::new();
        for kind in [EngineKind::Map, EngineKind::Cgra] {
            for &gain in &gains {
                let mut s = MdeScenario::nov24_2023();
                s.duration_s = 0.01;
                s.bunches = 1;
                s.controller.gain = gain;
                let hil = TurnLevelLoop::new(s.clone(), kind);
                let fresh = hil.run(true).unwrap();
                let leased = hil.run_on(arena.engine(&s, kind).unwrap(), true).unwrap();
                assert_eq!(
                    fresh.phase_deg.values, leased.phase_deg.values,
                    "kind={kind:?} gain={gain}"
                );
                assert_eq!(fresh.control_hz.values, leased.control_hz.values);
                assert_eq!(fresh.jump_times, leased.jump_times);
            }
        }
        // First point of each fidelity builds; the rest rewind the slot.
        assert_eq!(arena.misses(), 2);
        assert_eq!(arena.hits(), 4);
    }

    #[test]
    fn arena_rebuilds_on_engine_facing_change() {
        let mut arena = EngineArena::new();
        let mut s = MdeScenario::nov24_2023();
        s.duration_s = 0.005;
        s.bunches = 1;
        arena.engine(&s, EngineKind::Map).unwrap();
        s.fs_target = 1.0e3; // engine-facing: changes the operating point
        arena.engine(&s, EngineKind::Map).unwrap();
        assert_eq!(arena.misses(), 2);
        assert_eq!(arena.hits(), 0);
    }

    #[test]
    fn worker_panic_carries_index_and_digest() {
        let inputs: Vec<u32> = (0..10).collect();
        let res = catch_unwind(AssertUnwindSafe(|| {
            parallel_sweep_with_merge_digest(
                &inputs,
                2,
                || (),
                |(), &x| {
                    if x == 7 {
                        panic!("boom at {x}");
                    }
                    x
                },
                |()| {},
                |&x| u64::from(x) * 3,
            )
        }));
        let payload = res.expect_err("sweep must re-raise the worker panic");
        let sp = payload
            .downcast::<SweepPanic>()
            .expect("payload must be a SweepPanic");
        assert_eq!(sp.index, 7);
        assert_eq!(sp.digest, 21);
        assert!(sp.message().contains("boom at 7"));
    }

    #[test]
    fn arena_checkout_checkin_round_trip_is_bit_identical() {
        let mut s = MdeScenario::nov24_2023();
        s.duration_s = 0.01;
        s.bunches = 1;
        let mut arena = EngineArena::new();
        // First checkout builds; run a loop on it to dirty its state.
        let mut lease = arena.checkout(&s, EngineKind::Map).unwrap();
        let hil = TurnLevelLoop::new(s.clone(), EngineKind::Map);
        let first = hil.run_on(lease.engine().as_mut(), true).unwrap();
        arena.checkin(lease);
        // Second checkout must hit and come back rewound: same trace again.
        let mut lease = arena.checkout(&s, EngineKind::Map).unwrap();
        let second = hil.run_on(lease.engine().as_mut(), true).unwrap();
        arena.checkin(lease);
        assert_eq!(arena.misses(), 1);
        assert_eq!(arena.hits(), 1);
        assert_eq!(first.phase_deg.values, second.phase_deg.values);
        assert_eq!(first.control_hz.values, second.control_hz.values);
    }

    #[test]
    fn arena_lru_keeps_both_fidelities_warm() {
        let mut s = MdeScenario::nov24_2023();
        s.duration_s = 0.005;
        s.bunches = 1;
        let mut arena = EngineArena::new();
        for _ in 0..3 {
            arena.engine(&s, EngineKind::Map).unwrap();
            arena.engine(&s, EngineKind::Cgra).unwrap();
        }
        // Alternating fidelities: one build each, every later lease warm —
        // the single-slot arena this replaces would have rebuilt every time.
        assert_eq!(arena.misses(), 2);
        assert_eq!(arena.hits(), 4);
    }

    #[test]
    fn arena_capacity_one_evicts_on_alternation() {
        let mut s = MdeScenario::nov24_2023();
        s.duration_s = 0.005;
        s.bunches = 1;
        let mut arena = EngineArena::with_slots(1);
        arena.engine(&s, EngineKind::Map).unwrap();
        arena.engine(&s, EngineKind::Cgra).unwrap();
        arena.engine(&s, EngineKind::Map).unwrap();
        assert_eq!(arena.misses(), 3);
        assert_eq!(arena.hits(), 0);
    }

    #[test]
    fn arena_checkin_discards_demoted_lease() {
        let mut s = MdeScenario::nov24_2023();
        s.duration_s = 0.005;
        s.bunches = 1;
        let mut arena = EngineArena::new();
        let mut lease = arena.checkout(&s, EngineKind::Cgra).unwrap();
        // Simulate a mid-slice demotion: the box now holds a Map engine.
        *lease.engine() = EngineKind::Map.build(&s).unwrap();
        arena.checkin(lease);
        // The stale lease must not have been admitted under the Cgra key.
        arena.engine(&s, EngineKind::Cgra).unwrap();
        assert_eq!(arena.misses(), 2);
        assert_eq!(arena.hits(), 0);
    }

    #[test]
    fn arena_sample_telemetry_sums_across_absorb() {
        let root = TelemetryRegistry::new();
        for (hits, misses) in [(3usize, 1usize), (5, 2)] {
            let reg = TelemetryRegistry::new();
            let arena = EngineArena {
                slots: Vec::new(),
                capacity: ARENA_SLOTS,
                hits,
                misses,
            };
            arena.sample_telemetry(&reg);
            root.absorb(&reg);
        }
        let snap = root.snapshot();
        assert_eq!(snap.counter("cil_arena_hits_total"), Some(8));
        assert_eq!(snap.counter("cil_arena_misses_total"), Some(3));
    }

    #[test]
    fn gain_sweep_over_threads_is_deterministic() {
        // A real use: damping-residual vs controller gain, in parallel.
        let gains = [-2.0, -5.0, -8.0];
        let run = |gain: &f64| {
            let mut s = MdeScenario::nov24_2023();
            s.duration_s = 0.02;
            s.bunches = 1;
            s.controller.gain = *gain;
            let r = TurnLevelLoop::new(s, EngineKind::Map).run(true).unwrap();
            // Hashable summary: sum of |phase| over the tail.
            r.phase_deg.values[10_000..]
                .iter()
                .map(|v| v.abs())
                .sum::<f64>()
        };
        let a = parallel_sweep(&gains, 3, run);
        let b = parallel_sweep(&gains, 1, run);
        assert_eq!(a, b, "bit-identical across thread counts");
    }
}
