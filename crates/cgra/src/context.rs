//! Context memories (Section III-C).
//!
//! "Output of the scheduler are the contents for all context memories, which
//! can be inserted into the final FPGA bitstream without requiring a new
//! synthesis. This allows very fast iterations of the model."
//!
//! A context memory is, per PE, one instruction slot per schedule cycle. We
//! also provide a compact binary serialisation (manual little-endian
//! packing) standing in for the bitstream-patch artifact, so the
//! "reconfiguration in seconds" workflow can be benchmarked end to end.

use crate::dfg::{Dfg, NodeId};
use crate::grid::PeId;
use crate::isa::OpKind;
use crate::sched::Schedule;

/// One context-memory slot: the operation a PE issues in a given cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextSlot {
    /// Cycle at which the op is issued.
    pub cycle: u32,
    /// The node this slot executes (for tracing back to the DFG).
    pub node: NodeId,
    /// Operation.
    pub op: OpKind,
    /// Operand sources: the producing node ids (resolved to PE/cycle by the
    /// executor via the schedule).
    pub operands: Vec<NodeId>,
}

/// All context memories of a configured CGRA.
#[derive(Debug, Clone)]
pub struct ContextMemories {
    /// Slots per PE, sorted by cycle.
    pub per_pe: Vec<Vec<ContextSlot>>,
    /// Schedule length.
    pub makespan: u32,
}

impl ContextMemories {
    /// Derive context memories from a schedule.
    pub fn from_schedule(dfg: &Dfg, schedule: &Schedule) -> Self {
        let mut per_pe: Vec<Vec<ContextSlot>> = vec![Vec::new(); schedule.grid.pe_count()];
        for (id, node) in dfg.nodes() {
            let p = schedule.placement(id);
            per_pe[p.pe.0 as usize].push(ContextSlot {
                cycle: p.start,
                node: id,
                op: node.op,
                operands: node.operands.clone(),
            });
        }
        for lane in &mut per_pe {
            lane.sort_by_key(|s| s.cycle);
        }
        Self {
            per_pe,
            makespan: schedule.makespan,
        }
    }

    /// Slots of one PE.
    pub fn pe(&self, pe: PeId) -> &[ContextSlot] {
        &self.per_pe[pe.0 as usize]
    }

    /// Total configured slots.
    pub fn slot_count(&self) -> usize {
        self.per_pe.iter().map(Vec::len).sum()
    }

    /// Pack into the "bitstream patch" byte image: a flat, deterministic
    /// little-endian encoding (PE count, then per PE: slot count and slots).
    /// The inverse is [`Self::unpack`]; the pair stands in for writing the
    /// context contents into the FPGA bitstream.
    pub fn pack(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.slot_count() * 24);
        out.extend_from_slice(&(self.per_pe.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.makespan.to_le_bytes());
        for lane in &self.per_pe {
            out.extend_from_slice(&(lane.len() as u32).to_le_bytes());
            for slot in lane {
                out.extend_from_slice(&slot.cycle.to_le_bytes());
                out.extend_from_slice(&slot.node.0.to_le_bytes());
                out.extend_from_slice(&encode_op(&slot.op));
                out.extend_from_slice(&(slot.operands.len() as u32).to_le_bytes());
                for o in &slot.operands {
                    out.extend_from_slice(&o.0.to_le_bytes());
                }
            }
        }
        out
    }

    /// Unpack a byte image produced by [`Self::pack`].
    pub fn unpack(bytes: &[u8]) -> Result<Self, String> {
        let mut cur = Cursor { b: bytes, pos: 0 };
        let pe_count = cur.u32()? as usize;
        let makespan = cur.u32()?;
        if pe_count > 1 << 16 {
            return Err("implausible PE count".into());
        }
        let mut per_pe = Vec::with_capacity(pe_count);
        for _ in 0..pe_count {
            let n = cur.u32()? as usize;
            let mut lane = Vec::with_capacity(n);
            for _ in 0..n {
                let cycle = cur.u32()?;
                let node = NodeId(cur.u32()?);
                let op = decode_op(&mut cur)?;
                let argc = cur.u32()? as usize;
                let mut operands = Vec::with_capacity(argc);
                for _ in 0..argc {
                    operands.push(NodeId(cur.u32()?));
                }
                lane.push(ContextSlot {
                    cycle,
                    node,
                    op,
                    operands,
                });
            }
            per_pe.push(lane);
        }
        Ok(Self { per_pe, makespan })
    }
}

struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        if self.pos + n > self.b.len() {
            return Err("truncated context image".into());
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn encode_op(op: &OpKind) -> Vec<u8> {
    // tag byte + optional payload.
    let mut v = Vec::with_capacity(9);
    match op {
        OpKind::Const(c) => {
            v.push(0);
            v.extend_from_slice(&c.to_le_bytes());
        }
        OpKind::Input(p) => {
            v.push(1);
            v.extend_from_slice(&p.to_le_bytes());
        }
        OpKind::Output(p) => {
            v.push(2);
            v.extend_from_slice(&p.to_le_bytes());
        }
        OpKind::Add => v.push(3),
        OpKind::Sub => v.push(4),
        OpKind::Mul => v.push(5),
        OpKind::Div => v.push(6),
        OpKind::Sqrt => v.push(7),
        OpKind::Neg => v.push(8),
        OpKind::Abs => v.push(9),
        OpKind::Floor => v.push(10),
        OpKind::Min => v.push(11),
        OpKind::Max => v.push(12),
        OpKind::CmpLt => v.push(13),
        OpKind::CmpLe => v.push(14),
        OpKind::Select => v.push(15),
        OpKind::SensorRead(p) => {
            v.push(16);
            v.extend_from_slice(&p.to_le_bytes());
        }
        OpKind::ActuatorWrite(p) => {
            v.push(17);
            v.extend_from_slice(&p.to_le_bytes());
        }
        OpKind::RegRead(p) => {
            v.push(18);
            v.extend_from_slice(&p.to_le_bytes());
        }
        OpKind::RegWrite(p) => {
            v.push(19);
            v.extend_from_slice(&p.to_le_bytes());
        }
        OpKind::Pass => v.push(20),
    }
    v
}

fn decode_op(cur: &mut Cursor) -> Result<OpKind, String> {
    let tag = cur.take(1)?[0];
    Ok(match tag {
        0 => OpKind::Const(cur.f64()?),
        1 => OpKind::Input(cur.u16()?),
        2 => OpKind::Output(cur.u16()?),
        3 => OpKind::Add,
        4 => OpKind::Sub,
        5 => OpKind::Mul,
        6 => OpKind::Div,
        7 => OpKind::Sqrt,
        8 => OpKind::Neg,
        9 => OpKind::Abs,
        10 => OpKind::Floor,
        11 => OpKind::Min,
        12 => OpKind::Max,
        13 => OpKind::CmpLt,
        14 => OpKind::CmpLe,
        15 => OpKind::Select,
        16 => OpKind::SensorRead(cur.u16()?),
        17 => OpKind::ActuatorWrite(cur.u16()?),
        18 => OpKind::RegRead(cur.u16()?),
        19 => OpKind::RegWrite(cur.u16()?),
        20 => OpKind::Pass,
        t => return Err(format!("unknown op tag {t}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridConfig;
    use crate::sched::ListScheduler;

    fn sample() -> (Dfg, ContextMemories) {
        let mut g = Dfg::new();
        let c = g.konst(0.0);
        let r = g.add(OpKind::SensorRead(1), &[c]);
        let s = g.add(OpKind::Sqrt, &[r]);
        let two = g.konst(2.0);
        let m = g.add(OpKind::Mul, &[s, two]);
        g.add(OpKind::ActuatorWrite(0), &[m]);
        let sched = ListScheduler::new(GridConfig::mesh_3x3()).schedule(&g);
        let ctx = ContextMemories::from_schedule(&g, &sched);
        (g, ctx)
    }

    #[test]
    fn every_node_has_a_slot() {
        let (g, ctx) = sample();
        assert_eq!(ctx.slot_count(), g.len());
    }

    #[test]
    fn slots_sorted_by_cycle() {
        let (_, ctx) = sample();
        for lane in &ctx.per_pe {
            for w in lane.windows(2) {
                assert!(w[0].cycle < w[1].cycle, "one issue per cycle per PE");
            }
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let (_, ctx) = sample();
        let img = ctx.pack();
        let back = ContextMemories::unpack(&img).unwrap();
        assert_eq!(back.makespan, ctx.makespan);
        assert_eq!(back.per_pe.len(), ctx.per_pe.len());
        for (a, b) in ctx.per_pe.iter().zip(&back.per_pe) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn unpack_rejects_truncation() {
        let (_, ctx) = sample();
        let img = ctx.pack();
        assert!(ContextMemories::unpack(&img[..img.len() - 3]).is_err());
        assert!(ContextMemories::unpack(&[1, 2]).is_err());
    }

    #[test]
    fn image_is_compact() {
        // Reconfiguration artifact stays in the kilobyte range for realistic
        // kernels — that is what makes "seconds" turnarounds possible.
        let (_, ctx) = sample();
        assert!(ctx.pack().len() < 4096);
    }
}
