//! The processing-element operator set.
//!
//! "Each PE can have its own set of operators to perform numerical
//! operations, with a selection ranging from pure integer arithmetic to
//! floating point operations up to CORDIC for trigonometric functions. For
//! this experiment, basic floating point and square-root operators are in
//! use." (Section III-C.)
//!
//! Latencies are pipeline depths of typical FPGA floating-point operator
//! cores at ~110 MHz; they set the absolute schedule lengths, so they are
//! the main free parameter when comparing against the paper's tick counts
//! (see DESIGN.md §17).

/// Operation kind of a DFG node / context-memory slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpKind {
    /// Floating-point constant, materialised in a PE register.
    Const(f64),
    /// Kernel input port (live-in value, e.g. an initialisation constant).
    Input(u16),
    /// Kernel output port (live-out value).
    Output(u16),
    /// a + b.
    Add,
    /// a − b.
    Sub,
    /// a × b.
    Mul,
    /// a ÷ b.
    Div,
    /// √a.
    Sqrt,
    /// −a.
    Neg,
    /// |a|.
    Abs,
    /// ⌊a⌋ — used to split a fractional buffer address into the two integer
    /// reads + interpolation weight of Section IV-B.
    Floor,
    /// min(a, b).
    Min,
    /// max(a, b).
    Max,
    /// 1.0 if a < b else 0.0.
    CmpLt,
    /// 1.0 if a ≤ b else 0.0.
    CmpLe,
    /// select(cond, a, b): a if cond ≠ 0 else b.
    Select,
    /// Read from the SensorAccess module: `read_sensor(port, addr)`.
    /// Operand 0 is the address (may be a constant 0 for scalar sensors).
    SensorRead(u16),
    /// Write to the SensorAccess module: `write_actuator(port, value)`.
    ActuatorWrite(u16),
    /// Read a loop-carried state register (value produced by the *previous*
    /// iteration's matching `RegWrite`).
    RegRead(u16),
    /// Write a loop-carried state register for the next iteration.
    RegWrite(u16),
    /// Explicit routing hop inserted by the binder.
    Pass,
}

impl OpKind {
    /// Number of value operands the op consumes.
    pub fn arity(&self) -> usize {
        match self {
            Self::Const(_) | Self::Input(_) | Self::RegRead(_) => 0,
            Self::Sqrt
            | Self::Neg
            | Self::Abs
            | Self::Floor
            | Self::Output(_)
            | Self::ActuatorWrite(_)
            | Self::RegWrite(_)
            | Self::SensorRead(_)
            | Self::Pass => 1,
            Self::Add
            | Self::Sub
            | Self::Mul
            | Self::Div
            | Self::Min
            | Self::Max
            | Self::CmpLt
            | Self::CmpLe => 2,
            Self::Select => 3,
        }
    }

    /// Pipeline latency in CGRA clock ticks.
    pub fn latency(&self) -> u32 {
        match self {
            Self::Const(_) | Self::Input(_) => 1,
            Self::RegRead(_) | Self::RegWrite(_) => 1,
            Self::Pass => 1,
            Self::Output(_) => 1,
            Self::Add | Self::Sub => 4,
            Self::Neg | Self::Abs | Self::Floor | Self::Min | Self::Max => 2,
            Self::CmpLt | Self::CmpLe | Self::Select => 2,
            Self::Mul => 5,
            Self::Div => 14,
            Self::Sqrt => 16,
            Self::SensorRead(_) => 4,
            Self::ActuatorWrite(_) => 2,
        }
    }

    /// True for operations that interact with the SensorAccess module and
    /// therefore must be bound to an I/O-capable PE.
    pub fn needs_io(&self) -> bool {
        matches!(self, Self::SensorRead(_) | Self::ActuatorWrite(_))
    }

    /// True for operations with side effects that must execute even if the
    /// value is unused (actuator/register writes, outputs).
    pub fn has_side_effect(&self) -> bool {
        matches!(
            self,
            Self::ActuatorWrite(_) | Self::RegWrite(_) | Self::Output(_)
        )
    }

    /// Evaluate the pure arithmetic ops. Returns `None` for ops that need
    /// external state (sensors, registers, I/O ports).
    pub fn eval_pure(&self, args: &[f64]) -> Option<f64> {
        debug_assert_eq!(args.len(), self.arity());
        Some(match self {
            Self::Const(c) => *c,
            Self::Add => args[0] + args[1],
            Self::Sub => args[0] - args[1],
            Self::Mul => args[0] * args[1],
            Self::Div => args[0] / args[1],
            Self::Sqrt => args[0].sqrt(),
            Self::Neg => -args[0],
            Self::Abs => args[0].abs(),
            Self::Floor => args[0].floor(),
            Self::Min => args[0].min(args[1]),
            Self::Max => args[0].max(args[1]),
            Self::CmpLt => f64::from(args[0] < args[1]),
            Self::CmpLe => f64::from(args[0] <= args[1]),
            Self::Select => {
                if args[0] != 0.0 {
                    args[1]
                } else {
                    args[2]
                }
            }
            Self::Pass => args[0],
            Self::Input(_)
            | Self::Output(_)
            | Self::SensorRead(_)
            | Self::ActuatorWrite(_)
            | Self::RegRead(_)
            | Self::RegWrite(_) => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_semantics() {
        assert_eq!(OpKind::Const(1.0).arity(), 0);
        assert_eq!(OpKind::Sqrt.arity(), 1);
        assert_eq!(OpKind::Add.arity(), 2);
        assert_eq!(OpKind::Select.arity(), 3);
        assert_eq!(OpKind::SensorRead(0).arity(), 1);
        assert_eq!(OpKind::ActuatorWrite(0).arity(), 1);
    }

    #[test]
    fn latencies_reflect_fpga_cores() {
        // Div and sqrt are the long-latency ops that dominate the beam
        // kernel's critical path.
        assert!(OpKind::Div.latency() > OpKind::Mul.latency());
        assert!(OpKind::Sqrt.latency() > OpKind::Div.latency() / 2);
        assert!(OpKind::Add.latency() >= 1);
    }

    #[test]
    fn eval_pure_arithmetic() {
        assert_eq!(OpKind::Add.eval_pure(&[2.0, 3.0]), Some(5.0));
        assert_eq!(OpKind::Sub.eval_pure(&[2.0, 3.0]), Some(-1.0));
        assert_eq!(OpKind::Mul.eval_pure(&[2.0, 3.0]), Some(6.0));
        assert_eq!(OpKind::Div.eval_pure(&[3.0, 2.0]), Some(1.5));
        assert_eq!(OpKind::Sqrt.eval_pure(&[9.0]), Some(3.0));
        assert_eq!(OpKind::Neg.eval_pure(&[2.0]), Some(-2.0));
        assert_eq!(OpKind::Abs.eval_pure(&[-2.0]), Some(2.0));
        assert_eq!(OpKind::Floor.eval_pure(&[2.7]), Some(2.0));
        assert_eq!(OpKind::Floor.eval_pure(&[-0.5]), Some(-1.0));
        assert_eq!(OpKind::Min.eval_pure(&[1.0, 2.0]), Some(1.0));
        assert_eq!(OpKind::Max.eval_pure(&[1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn compare_and_select() {
        assert_eq!(OpKind::CmpLt.eval_pure(&[1.0, 2.0]), Some(1.0));
        assert_eq!(OpKind::CmpLt.eval_pure(&[2.0, 1.0]), Some(0.0));
        assert_eq!(OpKind::CmpLe.eval_pure(&[2.0, 2.0]), Some(1.0));
        assert_eq!(OpKind::Select.eval_pure(&[1.0, 10.0, 20.0]), Some(10.0));
        assert_eq!(OpKind::Select.eval_pure(&[0.0, 10.0, 20.0]), Some(20.0));
    }

    #[test]
    fn io_ops_flagged() {
        assert!(OpKind::SensorRead(3).needs_io());
        assert!(OpKind::ActuatorWrite(0).needs_io());
        assert!(!OpKind::Add.needs_io());
        assert!(OpKind::RegWrite(0).has_side_effect());
        assert!(!OpKind::Mul.has_side_effect());
    }

    #[test]
    fn stateful_ops_not_pure() {
        assert_eq!(OpKind::SensorRead(0).eval_pure(&[0.0]), None);
        assert_eq!(OpKind::RegRead(0).eval_pure(&[]), None);
    }
}
