//! The customised resource-constrained list scheduler (Section III-C).
//!
//! "The scheduler is a customised resource-constrained list scheduler.
//! Output of the scheduler are the contents for all context memories."
//!
//! The scheduler performs combined scheduling + binding:
//!
//! * priority = longest latency-weighted path to a sink (critical path);
//! * each PE issues at most one operation per cycle (operators are
//!   internally pipelined, so issue slots, not whole durations, conflict);
//! * moving an operand between PEs costs one cycle per interconnect hop
//!   (the "results can be passed on" routing of Section III-C);
//! * sensor/actuator operations bind only to I/O-capable PEs.
//!
//! Schedule length ("ticks") and the CGRA clock give the maximum real-time
//! revolution frequency — the Section IV-B table this reproduction scores.

use crate::dfg::{Dfg, NodeId};
use crate::grid::{GridConfig, PeId};

/// Why a DFG could not be scheduled on a grid. These are input problems
/// (the DFG/grid combination is unusable), not scheduler bugs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The DFG contains sensor/actuator ops but the grid has no
    /// I/O-capable PEs to bind them to.
    NoIoCapablePe,
    /// The grid has no PEs at all.
    EmptyGrid,
    /// Some nodes never became ready — their operand edges form a cycle,
    /// which a dataflow graph for a feed-forward kernel iteration must not.
    DependencyCycle {
        /// How many nodes were left unscheduled.
        unscheduled: usize,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoIoCapablePe => write!(f, "DFG has I/O ops but grid has no I/O-capable PEs"),
            Self::EmptyGrid => write!(f, "grid has no PEs"),
            Self::DependencyCycle { unscheduled } => write!(
                f,
                "{unscheduled} node(s) never became ready: the DFG has a dependency cycle"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Placement of one DFG node in space and time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Executing PE.
    pub pe: PeId,
    /// Issue cycle.
    pub start: u32,
    /// Cycle at which the result is available for same-PE consumers.
    pub finish: u32,
}

/// A complete schedule for one kernel iteration.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Grid the schedule is bound to.
    pub grid: GridConfig,
    /// Per-node placement, indexed by `NodeId`.
    pub placements: Vec<Placement>,
    /// Total schedule length in CGRA clock ticks ("111 clock ticks").
    pub makespan: u32,
}

impl Schedule {
    /// Placement of a node.
    pub fn placement(&self, id: NodeId) -> Placement {
        self.placements[id.0 as usize]
    }

    /// Maximum real-time revolution frequency this schedule supports at a
    /// given CGRA clock: one kernel iteration must finish within one
    /// revolution, so `f_rev,max = f_clk / makespan` (Section IV-B: 111
    /// ticks at 111 MHz → 1 MHz).
    pub fn max_revolution_frequency(&self, f_clk: f64) -> f64 {
        f_clk / f64::from(self.makespan)
    }

    /// Validate the schedule against its DFG: dependency timing (including
    /// routing hops), one issue per PE per cycle, and I/O placement rules.
    /// Returns a human-readable violation if any.
    pub fn validate(&self, dfg: &Dfg) -> Result<(), String> {
        use std::collections::HashSet;
        if self.placements.len() != dfg.len() {
            return Err(format!(
                "placement count {} != node count {}",
                self.placements.len(),
                dfg.len()
            ));
        }
        let mut issue: HashSet<(PeId, u32)> = HashSet::new();
        for (id, node) in dfg.nodes() {
            let p = self.placement(id);
            if p.finish != p.start + node.op.latency() {
                return Err(format!("{id:?}: finish != start + latency"));
            }
            if node.op.needs_io() && !self.grid.is_io_capable(p.pe) {
                return Err(format!("{id:?}: I/O op on non-I/O PE {:?}", p.pe));
            }
            if !issue.insert((p.pe, p.start)) {
                return Err(format!(
                    "{id:?}: issue-slot conflict on {:?} @ {}",
                    p.pe, p.start
                ));
            }
            for &o in &node.operands {
                let po = self.placement(o);
                let arrive = po.finish + self.grid.distance(po.pe, p.pe);
                if p.start < arrive {
                    return Err(format!(
                        "{id:?} starts at {} before operand {o:?} arrives at {arrive}",
                        p.start
                    ));
                }
            }
            if p.finish > self.makespan {
                return Err(format!("{id:?} finishes after makespan"));
            }
        }
        Ok(())
    }

    /// Per-PE utilisation: fraction of cycles with an issued op.
    pub fn utilisation(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.placements.len() as f64 / (self.makespan as f64 * self.grid.pe_count() as f64)
    }
}

/// Ready-list priority heuristic (the "customised" part of a customised
/// resource-constrained list scheduler — compared in the scheduler
/// ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Longest latency-weighted path to a sink (classic critical-path
    /// priority; the default).
    CriticalPath,
    /// Least slack first: ALAP − ASAP mobility, critical path as the
    /// tie-break.
    Mobility,
    /// DFG definition order — the naive baseline a "customised" scheduler
    /// is measured against.
    SourceOrder,
}

/// The list scheduler.
#[derive(Debug, Clone)]
pub struct ListScheduler {
    grid: GridConfig,
    policy: SchedulerPolicy,
}

impl ListScheduler {
    /// Scheduler for a given grid with the default critical-path priority.
    pub fn new(grid: GridConfig) -> Self {
        Self {
            grid,
            policy: SchedulerPolicy::CriticalPath,
        }
    }

    /// Scheduler with an explicit priority policy.
    pub fn with_policy(grid: GridConfig, policy: SchedulerPolicy) -> Self {
        Self { grid, policy }
    }

    /// Per-node priority keys (higher = scheduled first among ready nodes).
    fn priorities(&self, dfg: &Dfg) -> Vec<(i64, i64)> {
        let (heights, cp) = dfg.critical_path();
        match self.policy {
            SchedulerPolicy::CriticalPath => heights.iter().map(|&h| (i64::from(h), 0)).collect(),
            SchedulerPolicy::Mobility => {
                // ASAP: longest latency-weighted path from sources.
                let mut asap = vec![0u32; dfg.len()];
                for (id, node) in dfg.nodes() {
                    let mut start = 0;
                    for &o in &node.operands {
                        let on = dfg.node(o);
                        start = start.max(asap[o.0 as usize] + on.op.latency());
                    }
                    asap[id.0 as usize] = start;
                }
                heights
                    .iter()
                    .zip(&asap)
                    .map(|(&h, &a)| {
                        let alap = cp - h; // latest start preserving cp
                        let mobility = i64::from(alap) - i64::from(a);
                        (-mobility, i64::from(h))
                    })
                    .collect()
            }
            SchedulerPolicy::SourceOrder => (0..dfg.len()).map(|i| (-(i as i64), 0)).collect(),
        }
    }

    /// Schedule a DFG, panicking on an unschedulable input.
    ///
    /// Convenience wrapper over [`ListScheduler::try_schedule`] for the
    /// common case where the DFG comes from the kernel generator and the
    /// grid from a validated configuration, so the error cases are
    /// unreachable by construction.
    pub fn schedule(&self, dfg: &Dfg) -> Schedule {
        self.try_schedule(dfg)
            .unwrap_or_else(|e| panic!("unschedulable DFG: {e}"))
    }

    /// Schedule a DFG, reporting unschedulable inputs as a typed
    /// [`ScheduleError`] (I/O ops with no I/O-capable PE, an empty grid, a
    /// dependency cycle) instead of panicking.
    pub fn try_schedule(&self, dfg: &Dfg) -> Result<Schedule, ScheduleError> {
        let n = dfg.len();
        if self.grid.pe_count() == 0 && n > 0 {
            return Err(ScheduleError::EmptyGrid);
        }
        let heights = self.priorities(dfg);

        // users count for ready-set maintenance.
        let mut unscheduled_operands: Vec<usize> =
            dfg.nodes().map(|(_, node)| node.operands.len()).collect();
        let mut users: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (id, node) in dfg.nodes() {
            for &o in &node.operands {
                users[o.0 as usize].push(id);
            }
        }

        let mut ready: Vec<NodeId> = dfg
            .nodes()
            .filter(|(_, node)| node.operands.is_empty())
            .map(|(id, _)| id)
            .collect();

        let mut placements: Vec<Option<Placement>> = vec![None; n];
        // Issue occupancy per PE as bitsets over cycles, grown on demand.
        let pe_count = self.grid.pe_count();
        let mut busy: Vec<Vec<bool>> = vec![Vec::new(); pe_count];
        let mut load: Vec<u32> = vec![0; pe_count];
        let mut makespan = 0u32;

        let io_pes = self.grid.io_pes();

        while let Some(pick_idx) = ready
            .iter()
            .enumerate()
            .max_by_key(|(_, id)| heights[id.0 as usize])
            .map(|(i, _)| i)
        {
            let id = ready.swap_remove(pick_idx);
            let node = dfg.node(id);

            // Candidate PEs.
            let candidates: &[PeId] = if node.op.needs_io() {
                if io_pes.is_empty() {
                    return Err(ScheduleError::NoIoCapablePe);
                }
                &io_pes
            } else {
                // All PEs; allocate a scratch list lazily only once.
                // (grid.pes() is cheap.)
                &[]
            };

            let mut best: Option<(u32, u32, PeId)> = None; // (start, load, pe)
            let consider =
                |pe: PeId, busy: &mut Vec<Vec<bool>>, best: &mut Option<(u32, u32, PeId)>| {
                    // Earliest data-ready cycle on this PE. A node enters
                    // the ready list only once every operand is placed, so
                    // the lookup cannot miss.
                    let mut earliest = 0u32;
                    for &o in &node.operands {
                        let po = placements[o.0 as usize].expect("operand scheduled");
                        earliest = earliest.max(po.finish + self.grid.distance(po.pe, pe));
                    }
                    // First free issue slot ≥ earliest.
                    let lane = &mut busy[pe.0 as usize];
                    let mut t = earliest;
                    loop {
                        if (t as usize) >= lane.len() || !lane[t as usize] {
                            break;
                        }
                        t += 1;
                    }
                    let cand = (t, load[pe.0 as usize], pe);
                    if best.is_none_or(|b| (cand.0, cand.1, cand.2 .0) < (b.0, b.1, b.2 .0)) {
                        *best = Some(cand);
                    }
                };

            if node.op.needs_io() {
                for &pe in candidates {
                    consider(pe, &mut busy, &mut best);
                }
            } else {
                for pe in self.grid.pes() {
                    consider(pe, &mut busy, &mut best);
                }
            }

            // The grid was checked non-empty (and the I/O PE list non-empty
            // for I/O ops) above, so some candidate was considered.
            let (start, _, pe) = best.expect("at least one candidate PE");
            let lane = &mut busy[pe.0 as usize];
            if lane.len() <= start as usize {
                lane.resize(start as usize + 1, false);
            }
            lane[start as usize] = true;
            load[pe.0 as usize] += 1;
            let finish = start + node.op.latency();
            placements[id.0 as usize] = Some(Placement { pe, start, finish });
            makespan = makespan.max(finish);

            for &u in &users[id.0 as usize] {
                let slot = &mut unscheduled_operands[u.0 as usize];
                *slot -= 1;
                if *slot == 0 {
                    ready.push(u);
                }
            }
        }

        // Nodes on an operand cycle never enter the ready list and stay
        // unplaced — surface that as a typed error, not a corrupt schedule.
        let unscheduled = placements.iter().filter(|p| p.is_none()).count();
        if unscheduled > 0 {
            return Err(ScheduleError::DependencyCycle { unscheduled });
        }
        let placements: Vec<Placement> = placements.into_iter().flatten().collect();
        Ok(Schedule {
            grid: self.grid,
            placements,
            makespan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::OpKind;

    fn chain(len: usize) -> Dfg {
        let mut g = Dfg::new();
        let mut v = g.konst(2.0);
        for _ in 0..len {
            v = g.add(OpKind::Sqrt, &[v]);
        }
        g.add(OpKind::Output(0), &[v]);
        g
    }

    #[test]
    fn chain_schedule_is_serial() {
        let g = chain(4);
        let s = ListScheduler::new(GridConfig::mesh_3x3()).schedule(&g);
        s.validate(&g).unwrap();
        let (_, cp) = g.critical_path();
        // A pure chain cannot beat its critical path; with zero routing it
        // matches it exactly (all ops can sit on one PE).
        assert_eq!(s.makespan, cp);
    }

    #[test]
    fn independent_ops_run_in_parallel() {
        // 9 independent sqrt chains on a 3x3 grid: makespan ≈ one chain.
        let mut g = Dfg::new();
        for i in 0..9 {
            let c = g.konst(f64::from(i));
            let s1 = g.add(OpKind::Sqrt, &[c]);
            g.add(OpKind::Output(i as u16), &[s1]);
        }
        let s = ListScheduler::new(GridConfig::mesh_3x3()).schedule(&g);
        s.validate(&g).unwrap();
        // Serial execution would be ~9*(1+16+1); parallel must be far less.
        assert!(s.makespan <= 16 + 6, "makespan = {}", s.makespan);
    }

    #[test]
    fn issue_slots_are_exclusive() {
        // Many 1-latency consts: a kxk grid can issue at most k*k per cycle.
        let mut g = Dfg::new();
        for _ in 0..40 {
            g.konst(1.0);
        }
        let s = ListScheduler::new(GridConfig::mesh(2, 2)).schedule(&g);
        s.validate(&g).unwrap();
        // 40 consts on 4 PEs -> at least 10 cycles + latency.
        assert!(s.makespan >= 10, "makespan = {}", s.makespan);
    }

    #[test]
    fn io_ops_land_on_io_column() {
        let mut g = Dfg::new();
        let a = g.konst(0.0);
        let r = g.add(OpKind::SensorRead(0), &[a]);
        g.add(OpKind::ActuatorWrite(0), &[r]);
        let s = ListScheduler::new(GridConfig::mesh_3x3()).schedule(&g);
        s.validate(&g).unwrap();
        for (id, node) in g.nodes() {
            if node.op.needs_io() {
                assert!(s.grid.is_io_capable(s.placement(id).pe));
            }
        }
    }

    #[test]
    fn routing_distance_delays_consumers() {
        // Force spatial spread: 30 parallel consts fill the 2x2 grid, then a
        // final sum tree must pay hop latency. Mostly a validate() check.
        let mut g = Dfg::new();
        let mut vals: Vec<NodeId> = (0..16).map(|i| g.konst(f64::from(i))).collect();
        while vals.len() > 1 {
            let mut next = Vec::new();
            for pair in vals.chunks(2) {
                if pair.len() == 2 {
                    next.push(g.add(OpKind::Add, &[pair[0], pair[1]]));
                } else {
                    next.push(pair[0]);
                }
            }
            vals = next;
        }
        g.add(OpKind::Output(0), &[vals[0]]);
        let s = ListScheduler::new(GridConfig::mesh(2, 2)).schedule(&g);
        s.validate(&g).unwrap();
    }

    #[test]
    fn bigger_grid_never_slower() {
        let g = {
            // A mix of parallel work.
            let mut g = Dfg::new();
            let mut outs = Vec::new();
            for i in 0..12 {
                let c = g.konst(f64::from(i) + 1.0);
                let d = g.konst(2.0);
                let m = g.add(OpKind::Mul, &[c, d]);
                let q = g.add(OpKind::Div, &[m, d]);
                outs.push(q);
            }
            let mut acc = outs[0];
            for &o in &outs[1..] {
                acc = g.add(OpKind::Add, &[acc, o]);
            }
            g.add(OpKind::Output(0), &[acc]);
            g
        };
        let s2 = ListScheduler::new(GridConfig::mesh(2, 2)).schedule(&g);
        let s5 = ListScheduler::new(GridConfig::mesh_5x5()).schedule(&g);
        s2.validate(&g).unwrap();
        s5.validate(&g).unwrap();
        // Allow a small tolerance: greedy list scheduling is not monotone in
        // general, but must be close.
        assert!(
            s5.makespan <= s2.makespan + 4,
            "5x5 {} vs 2x2 {}",
            s5.makespan,
            s2.makespan
        );
    }

    #[test]
    fn pipelined_dfg_schedules_shorter() {
        // Two long dependent stages; after pipeline_split the halves overlap.
        let mut g = Dfg::new();
        let i = g.add_staged(OpKind::Input(0), &[], 0);
        let mut x = i;
        for _ in 0..3 {
            x = g.add_staged(OpKind::Sqrt, &[x], 0);
        }
        let mut y = x;
        for _ in 0..3 {
            y = g.add_staged(OpKind::Sqrt, &[y], 1);
        }
        g.add_staged(OpKind::Output(0), &[y], 1);

        let sched = ListScheduler::new(GridConfig::mesh_3x3());
        let plain = sched.schedule(&g);
        let split_dfg = g.pipeline_split();
        let split = sched.schedule(&split_dfg);
        plain.validate(&g).unwrap();
        split.validate(&split_dfg).unwrap();
        assert!(
            split.makespan < plain.makespan,
            "pipelining must shorten: {} -> {}",
            plain.makespan,
            split.makespan
        );
    }

    #[test]
    fn utilisation_bounded() {
        let g = chain(3);
        let s = ListScheduler::new(GridConfig::mesh_3x3()).schedule(&g);
        let u = s.utilisation();
        assert!(u > 0.0 && u <= 1.0);
    }

    #[test]
    fn validate_catches_tampering() {
        let g = chain(2);
        let mut s = ListScheduler::new(GridConfig::mesh_3x3()).schedule(&g);
        s.placements[1].start = 0; // sqrt issued before const finished
        s.placements[1].finish = s.placements[1].start + 16;
        assert!(s.validate(&g).is_err());
    }

    #[test]
    fn all_policies_produce_valid_schedules() {
        // Policies differ in quality, never in correctness.
        let mut g = Dfg::new();
        let mut outs = Vec::new();
        for i in 0..10 {
            let a = g.konst(f64::from(i));
            let b = g.konst(2.0);
            let m = g.add(OpKind::Mul, &[a, b]);
            let q = g.add(OpKind::Sqrt, &[m]);
            outs.push(q);
        }
        let mut acc = outs[0];
        for &o in &outs[1..] {
            acc = g.add(OpKind::Add, &[acc, o]);
        }
        g.add(OpKind::Output(0), &[acc]);

        let grid = GridConfig::mesh_3x3();
        let mut spans = Vec::new();
        for policy in [
            SchedulerPolicy::CriticalPath,
            SchedulerPolicy::Mobility,
            SchedulerPolicy::SourceOrder,
        ] {
            let s = ListScheduler::with_policy(grid, policy).schedule(&g);
            s.validate(&g).unwrap_or_else(|e| panic!("{policy:?}: {e}"));
            spans.push((policy, s.makespan));
        }
        // The informed policies must not lose to the naive baseline.
        let get = |p: SchedulerPolicy| spans.iter().find(|(q, _)| *q == p).unwrap().1;
        assert!(get(SchedulerPolicy::CriticalPath) <= get(SchedulerPolicy::SourceOrder));
        assert!(get(SchedulerPolicy::Mobility) <= get(SchedulerPolicy::SourceOrder) + 2);
    }

    #[test]
    fn unschedulable_inputs_are_typed_errors() {
        // I/O op on a grid whose I/O column has been configured away.
        let mut g = Dfg::new();
        let a = g.konst(0.0);
        let r = g.add(OpKind::SensorRead(0), &[a]);
        g.add(OpKind::ActuatorWrite(0), &[r]);
        let mut grid = GridConfig::mesh_3x3();
        grid.io_columns = 0;
        assert!(matches!(
            ListScheduler::new(grid).try_schedule(&g),
            Err(ScheduleError::NoIoCapablePe)
        ));
        // A grid with no PEs at all (constructible via the public fields
        // or deserialization, which skip the mesh() constructor's check).
        let empty = GridConfig {
            rows: 0,
            cols: 0,
            ..GridConfig::mesh_3x3()
        };
        assert!(matches!(
            ListScheduler::new(empty).try_schedule(&chain(1)),
            Err(ScheduleError::EmptyGrid)
        ));
        // The happy path through try_schedule matches schedule().
        let ok = ListScheduler::new(GridConfig::mesh_3x3())
            .try_schedule(&chain(3))
            .unwrap();
        ok.validate(&chain(3)).unwrap();
    }

    #[test]
    fn max_rev_frequency_formula() {
        let g = chain(1);
        let s = ListScheduler::new(GridConfig::mesh_3x3()).schedule(&g);
        let f = s.max_revolution_frequency(111e6);
        assert!((f - 111e6 / f64::from(s.makespan)).abs() < 1e-6);
    }
}
