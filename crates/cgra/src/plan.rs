//! Pre-decoded micro-op execution plans.
//!
//! Replaying a schedule through [`crate::exec::CgraExecutor`] used to mean
//! chasing the `Arc<Dfg>` per node per revolution: load the node, read its
//! operand `Vec`, dispatch a wide [`OpKind`] match. This module lowers a
//! validated `(Dfg, Schedule)` pair **once, at compile time** into a flat
//! [`MicroOpPlan`]: a contiguous array of pre-decoded [`MicroOp`]s with a
//! small discriminant and pre-resolved `u16` value-slot indices, in exact
//! schedule order. The executor then replays the plan with no pointer
//! chasing and no per-iteration allocation.
//!
//! Lowering performs three semantics-preserving simplifications:
//!
//! * **Constant pre-folding** — `Const` nodes carry no runtime work; their
//!   values are baked into [`MicroOpPlan::values_template`], which seeds the
//!   executor's scratch value store. No micro-op is emitted for them.
//! * **Output forwarding** — `Output` nodes only copy their operand's value
//!   slot; they are collected into a dedicated output stream `(port, slot)`
//!   replayed after the compute stream (every slot is written exactly once,
//!   so reading at the end observes the same value an in-place read would). Consumers of an `Output` node are rewired to its source.
//! * **Stream typing** — ops are pre-split by kind (input / sensor /
//!   register / pure / output) at the discriminant level, with per-stream
//!   counts recorded in [`StreamStats`]. The compute stream itself stays in
//!   schedule order because sensor reads, actuator writes and the
//!   mid-iteration fault point are order-observable through the
//!   [`crate::exec::SensorBus`]; only the output stream is hoisted.
//!
//! Bit-identity with [`crate::exec::interpret_dfg`] is enforced by the
//! differential proptest suite (`tests/plan_equivalence.rs`), including
//! the `MissingInput` register-rollback guarantee.

use crate::dfg::{Dfg, NodeId};
use crate::isa::OpKind;
use crate::sched::Schedule;

/// A pre-decoded unary pure op (operand/result slots live in the micro-op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// √a.
    Sqrt,
    /// −a.
    Neg,
    /// |a|.
    Abs,
    /// ⌊a⌋.
    Floor,
    /// Routing hop: a.
    Pass,
}

impl UnOp {
    #[inline]
    fn apply(self, a: f64) -> f64 {
        match self {
            Self::Sqrt => a.sqrt(),
            Self::Neg => -a,
            Self::Abs => a.abs(),
            Self::Floor => a.floor(),
            Self::Pass => a,
        }
    }
}

/// A pre-decoded binary pure op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// a + b.
    Add,
    /// a − b.
    Sub,
    /// a × b.
    Mul,
    /// a ÷ b.
    Div,
    /// min(a, b).
    Min,
    /// max(a, b).
    Max,
    /// 1.0 if a < b else 0.0.
    CmpLt,
    /// 1.0 if a ≤ b else 0.0.
    CmpLe,
}

impl BinOp {
    #[inline]
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            Self::Add => a + b,
            Self::Sub => a - b,
            Self::Mul => a * b,
            Self::Div => a / b,
            Self::Min => a.min(b),
            Self::Max => a.max(b),
            Self::CmpLt => f64::from(a < b),
            Self::CmpLe => f64::from(a <= b),
        }
    }
}

/// One pre-decoded operation of the compute stream. All slot indices are
/// resolved at plan-build time; the replay loop never touches the DFG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MicroOp {
    /// `values[dst] = inputs[port]`, failing with
    /// [`crate::exec::ExecError::MissingInput`] when absent.
    Input {
        /// Kernel input port.
        port: u16,
        /// Result value slot.
        dst: u16,
    },
    /// `values[dst] = bus.read(port, values[addr])`.
    SensorRead {
        /// Sensor port.
        port: u16,
        /// Value slot holding the address operand.
        addr: u16,
        /// Result value slot.
        dst: u16,
    },
    /// `bus.write(port, values[src]); values[dst] = values[src]`.
    ActuatorWrite {
        /// Actuator port.
        port: u16,
        /// Value slot of the written operand.
        src: u16,
        /// Result value slot (the node's own — actuator writes forward
        /// their operand and may have consumers).
        dst: u16,
    },
    /// `values[dst] = regs_current[reg]`.
    RegRead {
        /// Loop-carried register.
        reg: u16,
        /// Result value slot.
        dst: u16,
    },
    /// `regs_next[reg] = values[src]; values[dst] = values[src]`.
    RegWrite {
        /// Loop-carried register.
        reg: u16,
        /// Value slot of the written operand.
        src: u16,
        /// Result value slot.
        dst: u16,
    },
    /// `values[dst] = op(values[a])`.
    Un {
        /// The operation.
        op: UnOp,
        /// Operand slot.
        a: u16,
        /// Result slot.
        dst: u16,
    },
    /// `values[dst] = op(values[a], values[b])`.
    Bin {
        /// The operation.
        op: BinOp,
        /// Left operand slot.
        a: u16,
        /// Right operand slot.
        b: u16,
        /// Result slot.
        dst: u16,
    },
    /// `values[dst] = if values[c] != 0 { values[a] } else { values[b] }`.
    Select {
        /// Condition slot.
        c: u16,
        /// Then slot.
        a: u16,
        /// Else slot.
        b: u16,
        /// Result slot.
        dst: u16,
    },
}

impl MicroOp {
    /// Apply one micro-op against the executor's run state. Kept here so
    /// the replay loop in `exec.rs` and any future batched interpreter
    /// share one definition.
    #[inline]
    pub(crate) fn dispatch<B: crate::exec::SensorBus>(
        self,
        values: &mut [f64],
        regs_current: &[f64],
        regs_next: &mut [f64],
        bus: &mut B,
        inputs: &[f64],
    ) -> Result<(), u16> {
        match self {
            Self::Input { port, dst } => match inputs.get(port as usize) {
                Some(&v) => values[dst as usize] = v,
                None => return Err(port),
            },
            Self::SensorRead { port, addr, dst } => {
                let a = values[addr as usize];
                values[dst as usize] = bus.read(port, a);
            }
            Self::ActuatorWrite { port, src, dst } => {
                let v = values[src as usize];
                bus.write(port, v);
                values[dst as usize] = v;
            }
            Self::RegRead { reg, dst } => values[dst as usize] = regs_current[reg as usize],
            Self::RegWrite { reg, src, dst } => {
                let v = values[src as usize];
                regs_next[reg as usize] = v;
                values[dst as usize] = v;
            }
            Self::Un { op, a, dst } => values[dst as usize] = op.apply(values[a as usize]),
            Self::Bin { op, a, b, dst } => {
                values[dst as usize] = op.apply(values[a as usize], values[b as usize]);
            }
            Self::Select { c, a, b, dst } => {
                values[dst as usize] = if values[c as usize] != 0.0 {
                    values[a as usize]
                } else {
                    values[b as usize]
                };
            }
        }
        Ok(())
    }
}

/// Per-stream op counts, for reports and plan inspection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// `Input` ops in the compute stream.
    pub inputs: usize,
    /// `SensorRead` + `ActuatorWrite` ops.
    pub sensor_io: usize,
    /// `RegRead` + `RegWrite` ops.
    pub registers: usize,
    /// Pure arithmetic ops (unary/binary/select).
    pub pure_ops: usize,
    /// Entries in the hoisted output stream.
    pub outputs: usize,
    /// `Const` nodes folded into the values template (no runtime op).
    pub folded_consts: usize,
}

/// Why a `(Dfg, Schedule)` pair could not be lowered to a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The DFG has more nodes than the `u16` slot index space.
    TooManyNodes(usize),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooManyNodes(n) => {
                write!(f, "DFG has {n} nodes, exceeding the u16 slot space")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A flat, cache-friendly execution plan lowered from a validated
/// `(Dfg, Schedule)` pair. Built once (typically inside
/// [`crate::cache::CompiledKernel`], where it is `Arc`-shared across all
/// executors stamped from one cached compile) and replayed every iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroOpPlan {
    /// The compute stream, in exact schedule order `(start, pe)`.
    ops: Vec<MicroOp>,
    /// The hoisted output stream: `(port, value slot)` in schedule order.
    outputs: Vec<(u16, u16)>,
    /// Scratch value store template with constants pre-folded.
    values_template: Vec<f64>,
    /// Loop-carried register count.
    reg_count: u16,
    /// Per-stream counts.
    stats: StreamStats,
}

impl MicroOpPlan {
    /// Lower a `(Dfg, Schedule)` pair. The schedule must already be valid
    /// for the DFG (the executor validates before planning).
    pub fn try_build(dfg: &Dfg, schedule: &Schedule) -> Result<Self, PlanError> {
        if dfg.len() > usize::from(u16::MAX) {
            return Err(PlanError::TooManyNodes(dfg.len()));
        }
        // Schedule order: (start cycle, PE).
        let mut order: Vec<NodeId> = dfg.nodes().map(|(id, _)| id).collect();
        order.sort_by_key(|&id| {
            let p = schedule.placement(id);
            (p.start, p.pe.0)
        });

        // Forwarding map: consumers of an `Output` node read its source
        // slot directly (an Output's value *is* its operand's value).
        let mut fwd: Vec<u16> = (0..dfg.len() as u32).map(|i| i as u16).collect();
        let mut values_template = vec![0.0f64; dfg.len()];
        let mut stats = StreamStats::default();
        let mut ops = Vec::new();
        let mut outputs = Vec::new();

        for &id in &order {
            let node = dfg.node(id);
            let dst = id.0 as u16;
            let slot = |op_idx: usize| fwd[node.operands[op_idx].0 as usize];
            match node.op {
                OpKind::Const(c) => {
                    values_template[dst as usize] = c;
                    stats.folded_consts += 1;
                }
                OpKind::Input(port) => {
                    stats.inputs += 1;
                    ops.push(MicroOp::Input { port, dst });
                }
                OpKind::Output(port) => {
                    stats.outputs += 1;
                    let src = slot(0);
                    fwd[dst as usize] = src;
                    outputs.push((port, src));
                }
                OpKind::SensorRead(port) => {
                    stats.sensor_io += 1;
                    ops.push(MicroOp::SensorRead {
                        port,
                        addr: slot(0),
                        dst,
                    });
                }
                OpKind::ActuatorWrite(port) => {
                    stats.sensor_io += 1;
                    ops.push(MicroOp::ActuatorWrite {
                        port,
                        src: slot(0),
                        dst,
                    });
                }
                OpKind::RegRead(reg) => {
                    stats.registers += 1;
                    ops.push(MicroOp::RegRead { reg, dst });
                }
                OpKind::RegWrite(reg) => {
                    stats.registers += 1;
                    ops.push(MicroOp::RegWrite {
                        reg,
                        src: slot(0),
                        dst,
                    });
                }
                OpKind::Sqrt | OpKind::Neg | OpKind::Abs | OpKind::Floor | OpKind::Pass => {
                    stats.pure_ops += 1;
                    let op = match node.op {
                        OpKind::Sqrt => UnOp::Sqrt,
                        OpKind::Neg => UnOp::Neg,
                        OpKind::Abs => UnOp::Abs,
                        OpKind::Floor => UnOp::Floor,
                        _ => UnOp::Pass,
                    };
                    ops.push(MicroOp::Un {
                        op,
                        a: slot(0),
                        dst,
                    });
                }
                OpKind::Add
                | OpKind::Sub
                | OpKind::Mul
                | OpKind::Div
                | OpKind::Min
                | OpKind::Max
                | OpKind::CmpLt
                | OpKind::CmpLe => {
                    stats.pure_ops += 1;
                    let op = match node.op {
                        OpKind::Add => BinOp::Add,
                        OpKind::Sub => BinOp::Sub,
                        OpKind::Mul => BinOp::Mul,
                        OpKind::Div => BinOp::Div,
                        OpKind::Min => BinOp::Min,
                        OpKind::Max => BinOp::Max,
                        OpKind::CmpLt => BinOp::CmpLt,
                        _ => BinOp::CmpLe,
                    };
                    ops.push(MicroOp::Bin {
                        op,
                        a: slot(0),
                        b: slot(1),
                        dst,
                    });
                }
                OpKind::Select => {
                    stats.pure_ops += 1;
                    ops.push(MicroOp::Select {
                        c: slot(0),
                        a: slot(1),
                        b: slot(2),
                        dst,
                    });
                }
            }
        }
        Ok(Self {
            ops,
            outputs,
            values_template,
            reg_count: dfg.reg_count(),
            stats,
        })
    }

    /// Panicking wrapper of [`Self::try_build`] for contexts that already
    /// guarantee a plannable DFG (kernel compilation caps node counts far
    /// below the slot space).
    pub fn build(dfg: &Dfg, schedule: &Schedule) -> Self {
        match Self::try_build(dfg, schedule) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// The compute stream, in schedule order.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// The hoisted output stream: `(port, value slot)` in schedule order.
    pub fn outputs(&self) -> &[(u16, u16)] {
        &self.outputs
    }

    /// Scratch value store template (constants pre-folded, rest zero).
    pub fn values_template(&self) -> &[f64] {
        &self.values_template
    }

    /// Loop-carried register count the plan expects.
    pub fn reg_count(&self) -> u16 {
        self.reg_count
    }

    /// Number of kernel output ports an iteration produces — the capacity
    /// callers should reserve in the scratch output buffer.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Per-stream op counts.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridConfig;
    use crate::sched::ListScheduler;

    fn plan_of(dfg: &Dfg) -> MicroOpPlan {
        let s = ListScheduler::new(GridConfig::mesh_5x5()).schedule(dfg);
        MicroOpPlan::build(dfg, &s)
    }

    #[test]
    fn constants_fold_into_template() {
        let mut g = Dfg::new();
        let c = g.konst(2.5);
        let s = g.add(OpKind::Sqrt, &[c]);
        g.add(OpKind::Output(0), &[s]);
        let plan = plan_of(&g);
        assert_eq!(plan.values_template()[0], 2.5);
        assert_eq!(plan.stats().folded_consts, 1);
        // Only the sqrt remains in the compute stream.
        assert_eq!(plan.ops().len(), 1);
        assert_eq!(plan.output_count(), 1);
    }

    #[test]
    fn output_consumers_forward_to_source() {
        // out0 = x; y = out0 + 1 — the add must read x's slot directly.
        let mut g = Dfg::new();
        let x = g.konst(3.0);
        let o = g.add(OpKind::Output(0), &[x]);
        let one = g.konst(1.0);
        let y = g.add(OpKind::Add, &[o, one]);
        g.add(OpKind::Output(1), &[y]);
        let plan = plan_of(&g);
        let adds: Vec<_> = plan
            .ops()
            .iter()
            .filter_map(|op| match *op {
                MicroOp::Bin {
                    op: BinOp::Add, a, ..
                } => Some(a),
                _ => None,
            })
            .collect();
        assert_eq!(adds, vec![x.0 as u16], "add reads the const's slot");
    }

    #[test]
    fn streams_are_counted() {
        let mut g = Dfg::new();
        let zero = g.konst(0.0);
        let s = g.add(OpKind::SensorRead(0), &[zero]);
        let r = g.add(OpKind::RegRead(0), &[]);
        let sum = g.add(OpKind::Add, &[s, r]);
        g.add(OpKind::RegWrite(0), &[sum]);
        g.add(OpKind::ActuatorWrite(0), &[sum]);
        g.add(OpKind::Output(0), &[sum]);
        let plan = plan_of(&g);
        let st = plan.stats();
        assert_eq!(st.sensor_io, 2);
        assert_eq!(st.registers, 2);
        assert_eq!(st.pure_ops, 1);
        assert_eq!(st.outputs, 1);
        assert_eq!(st.folded_consts, 1);
        assert_eq!(plan.reg_count(), 1);
    }
}
