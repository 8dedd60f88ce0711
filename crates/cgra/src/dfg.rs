//! The SCAR-style control/data-flow graph (Section III-C).
//!
//! "A code parser converts the program into a Scheduler Application
//! Representation (SCAR) control and data flow graph format, which is
//! processed by the CGRA scheduler."
//!
//! The graph describes *one iteration* of the kernel main loop. Loop-carried
//! state flows through register pairs ([`OpKind::RegRead`] /
//! [`OpKind::RegWrite`]), which keeps the graph acyclic — exactly the trick
//! that also enables the paper's factor-2 loop pipelining (stage-crossing
//! values are demoted to registers, see [`Dfg::pipeline_split`]).

use crate::isa::OpKind;

/// Handle of a DFG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// One DFG node: an operation plus its operand edges.
#[derive(Debug, Clone)]
pub struct Node {
    /// Operation.
    pub op: OpKind,
    /// Operand nodes, in positional order.
    pub operands: Vec<NodeId>,
    /// Pipeline stage tag (0 = first loop half, 1 = second). Only meaningful
    /// before [`Dfg::pipeline_split`]; the paper's manual split corresponds
    /// to assigning these tags in the C source.
    pub stage: u8,
}

/// A dataflow graph for one kernel iteration.
#[derive(Debug, Clone, Default)]
pub struct Dfg {
    nodes: Vec<Node>,
    next_reg: u16,
}

impl Dfg {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node with the given operation and operands; returns its id.
    ///
    /// Panics if the operand count does not match the op's arity or an
    /// operand id is out of range (forward references are impossible by
    /// construction, keeping the graph acyclic).
    pub fn add(&mut self, op: OpKind, operands: &[NodeId]) -> NodeId {
        assert_eq!(operands.len(), op.arity(), "arity mismatch for {op:?}");
        for &o in operands {
            assert!(
                (o.0 as usize) < self.nodes.len(),
                "operand {o:?} not yet defined"
            );
        }
        if let OpKind::RegRead(r) | OpKind::RegWrite(r) = op {
            self.next_reg = self.next_reg.max(r + 1);
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            op,
            operands: operands.to_vec(),
            stage: 0,
        });
        id
    }

    /// Add a node tagged with a pipeline stage.
    pub fn add_staged(&mut self, op: OpKind, operands: &[NodeId], stage: u8) -> NodeId {
        let id = self.add(op, operands);
        self.nodes[id.0 as usize].stage = stage;
        id
    }

    /// Convenience: add a constant.
    pub fn konst(&mut self, v: f64) -> NodeId {
        self.add(OpKind::Const(v), &[])
    }

    /// Allocate a fresh loop-carried register index.
    pub fn alloc_reg(&mut self) -> u16 {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// All nodes in definition order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of loop-carried registers in use.
    pub fn reg_count(&self) -> u16 {
        self.next_reg
    }

    /// Longest path to any sink, in latency ticks, per node — the classic
    /// list-scheduling priority. Also yields the overall critical-path
    /// length (the lower bound on the schedule).
    pub fn critical_path(&self) -> (Vec<u32>, u32) {
        let n = self.nodes.len();
        // users[i] = nodes that consume i.
        let mut height = vec![0u32; n];
        let mut best = 0u32;
        // Process in reverse definition order: operands always precede users,
        // so a reverse sweep sees all users first.
        for i in (0..n).rev() {
            let lat = self.nodes[i].op.latency();
            let mut h = lat;
            // Height through users.
            for (j, node) in self.nodes.iter().enumerate().skip(i + 1) {
                if node.operands.contains(&NodeId(i as u32)) {
                    h = h.max(lat + height[j]);
                }
            }
            height[i] = h;
            best = best.max(h);
        }
        (height, best)
    }

    /// The paper's factor-2 loop pipelining: every edge from a stage-0 node
    /// to a stage-1 node is replaced by a loop-carried register pair, so the
    /// two halves no longer depend on each other *within* an iteration and
    /// the scheduler can overlap them.
    ///
    /// Semantically, stage 1 then consumes stage 0's values from the
    /// *previous* iteration: "at the end of the loop any results from the
    /// first loop iteration that are needed for the second iteration are
    /// assigned to new variables" (Section IV-B). One iteration of the
    /// transformed kernel completes one stage-0 *and* one stage-1
    /// computation, for different logical revolutions.
    pub fn pipeline_split(&self) -> Dfg {
        let mut out = Dfg::new();
        out.next_reg = self.next_reg;
        // Map old ids to new ids. Nodes are copied in order; stage-crossing
        // edges are rerouted through fresh registers.
        let mut map: Vec<NodeId> = Vec::with_capacity(self.nodes.len());
        // For each stage-0 node consumed by stage 1, a register id.
        let mut bridge: Vec<Option<u16>> = vec![None; self.nodes.len()];
        // First pass: find crossing edges.
        for node in &self.nodes {
            if node.stage == 1 {
                for &o in &node.operands {
                    if self.nodes[o.0 as usize].stage == 0 && bridge[o.0 as usize].is_none() {
                        bridge[o.0 as usize] = Some(out.alloc_reg());
                    }
                }
            }
        }
        // Second pass: emit nodes. Stage-1 reads of bridged values become
        // RegReads (emitted lazily, memoised per bridged source).
        let mut reg_read_of: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            let mut ops: Vec<NodeId> = Vec::with_capacity(node.operands.len());
            for &o in &node.operands {
                let src = &self.nodes[o.0 as usize];
                if node.stage == 1 && src.stage == 0 {
                    let reg = bridge[o.0 as usize].expect("bridge allocated");
                    let rr = *reg_read_of[o.0 as usize]
                        .get_or_insert_with(|| out.add_staged(OpKind::RegRead(reg), &[], 1));
                    ops.push(rr);
                } else {
                    ops.push(map[o.0 as usize]);
                }
            }
            let new_id = out.add_staged(node.op, &ops, node.stage);
            map.push(new_id);
            // If this node bridges, also emit its RegWrite.
            if let Some(reg) = bridge[i] {
                out.add_staged(OpKind::RegWrite(reg), &[new_id], 0);
            }
        }
        out
    }

    /// Count of nodes per op-category — used in reports.
    pub fn op_histogram(&self) -> Vec<(String, usize)> {
        use std::collections::BTreeMap;
        let mut m: BTreeMap<String, usize> = BTreeMap::new();
        for n in &self.nodes {
            let key = match n.op {
                OpKind::Const(_) => "const".into(),
                OpKind::Input(_) => "input".into(),
                OpKind::Output(_) => "output".into(),
                OpKind::SensorRead(_) => "sensor_read".into(),
                OpKind::ActuatorWrite(_) => "actuator_write".into(),
                OpKind::RegRead(_) => "reg_read".into(),
                OpKind::RegWrite(_) => "reg_write".into(),
                other => format!("{other:?}").to_lowercase(),
            };
            *m.entry(key).or_default() += 1;
        }
        m.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a = 2 + 3; b = sqrt(a); out b
    fn tiny() -> Dfg {
        let mut g = Dfg::new();
        let c2 = g.konst(2.0);
        let c3 = g.konst(3.0);
        let a = g.add(OpKind::Add, &[c2, c3]);
        let b = g.add(OpKind::Sqrt, &[a]);
        g.add(OpKind::Output(0), &[b]);
        g
    }

    #[test]
    fn build_and_inspect() {
        let g = tiny();
        assert_eq!(g.len(), 5);
        assert_eq!(g.node(NodeId(2)).op, OpKind::Add);
        assert_eq!(g.node(NodeId(2)).operands, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let mut g = Dfg::new();
        let c = g.konst(1.0);
        g.add(OpKind::Add, &[c]);
    }

    #[test]
    #[should_panic(expected = "not yet defined")]
    fn forward_reference_rejected() {
        let mut g = Dfg::new();
        g.add(OpKind::Sqrt, &[NodeId(5)]);
    }

    #[test]
    fn critical_path_of_chain() {
        let g = tiny();
        let (_, cp) = g.critical_path();
        // const(1) -> add(4) -> sqrt(16) -> output(1) = 22.
        assert_eq!(cp, 22);
    }

    #[test]
    fn critical_path_of_parallel_branches() {
        let mut g = Dfg::new();
        let a = g.konst(1.0);
        let b = g.konst(2.0);
        let s = g.add(OpKind::Sqrt, &[a]); // 1+16
        let m = g.add(OpKind::Neg, &[b]); // 1+2
        let r = g.add(OpKind::Add, &[s, m]);
        g.add(OpKind::Output(0), &[r]);
        let (_, cp) = g.critical_path();
        // 1 + 16 + 4 + 1 = 22 through the sqrt branch.
        assert_eq!(cp, 22);
    }

    #[test]
    fn register_allocation_is_fresh() {
        let mut g = Dfg::new();
        let r0 = g.alloc_reg();
        let r1 = g.alloc_reg();
        assert_ne!(r0, r1);
        assert_eq!(g.reg_count(), 2);
    }

    #[test]
    fn explicit_reg_ops_bump_counter() {
        let mut g = Dfg::new();
        let v = g.konst(1.0);
        g.add(OpKind::RegWrite(7), &[v]);
        assert_eq!(g.reg_count(), 8);
        assert_eq!(g.alloc_reg(), 8);
    }

    #[test]
    fn pipeline_split_breaks_cross_stage_edges() {
        // stage0: x = in + 1;  stage1: y = x * 2; out y
        let mut g = Dfg::new();
        let i = g.add_staged(OpKind::Input(0), &[], 0);
        let c1 = g.add_staged(OpKind::Const(1.0), &[], 0);
        let x = g.add_staged(OpKind::Add, &[i, c1], 0);
        let c2 = g.add_staged(OpKind::Const(2.0), &[], 1);
        let y = g.add_staged(OpKind::Mul, &[x, c2], 1);
        g.add_staged(OpKind::Output(0), &[y], 1);

        let split = g.pipeline_split();
        // The mul must now read a RegRead, and a RegWrite of x must exist.
        let has_regread = split
            .nodes()
            .any(|(_, n)| matches!(n.op, OpKind::RegRead(_)));
        let has_regwrite = split
            .nodes()
            .any(|(_, n)| matches!(n.op, OpKind::RegWrite(_)));
        assert!(has_regread && has_regwrite);
        // No stage-1 node consumes a stage-0 node anymore.
        for (_, n) in split.nodes() {
            if n.stage == 1 {
                for &o in &n.operands {
                    assert_ne!(split.node(o).stage, 0, "crossing edge survived");
                }
            }
        }
    }

    #[test]
    fn pipeline_split_shortens_critical_path() {
        // Long chain split across stages: stage0 = sqrt chain, stage1 = div
        // chain; splitting should roughly halve the critical path.
        let mut g = Dfg::new();
        let i = g.add_staged(OpKind::Input(0), &[], 0);
        let s1 = g.add_staged(OpKind::Sqrt, &[i], 0);
        let s2 = g.add_staged(OpKind::Sqrt, &[s1], 0);
        let c = g.add_staged(OpKind::Const(2.0), &[], 1);
        let d1 = g.add_staged(OpKind::Div, &[s2, c], 1);
        let d2 = g.add_staged(OpKind::Div, &[d1, c], 1);
        g.add_staged(OpKind::Output(0), &[d2], 1);
        let (_, before) = g.critical_path();
        let (_, after) = g.pipeline_split().critical_path();
        assert!(after < before, "cp {before} -> {after}");
    }

    #[test]
    fn pipeline_split_reuses_one_register_per_source() {
        // One stage-0 value consumed twice in stage 1 → exactly one bridge
        // register and one RegRead.
        let mut g = Dfg::new();
        let i = g.add_staged(OpKind::Input(0), &[], 0);
        let x = g.add_staged(OpKind::Sqrt, &[i], 0);
        let y = g.add_staged(OpKind::Mul, &[x, x], 1);
        g.add_staged(OpKind::Output(0), &[y], 1);
        let split = g.pipeline_split();
        let rr = split
            .nodes()
            .filter(|(_, n)| matches!(n.op, OpKind::RegRead(_)))
            .count();
        let rw = split
            .nodes()
            .filter(|(_, n)| matches!(n.op, OpKind::RegWrite(_)))
            .count();
        assert_eq!(rr, 1);
        assert_eq!(rw, 1);
    }

    #[test]
    fn histogram_counts_ops() {
        let g = tiny();
        let h = g.op_histogram();
        let get = |k: &str| h.iter().find(|(n, _)| n == k).map(|(_, c)| *c).unwrap_or(0);
        assert_eq!(get("const"), 2);
        assert_eq!(get("add"), 1);
        assert_eq!(get("sqrt"), 1);
        assert_eq!(get("output"), 1);
    }
}
