//! The straight-line program representation and its executor.
//!
//! A compiled PC-set simulation is a flat list of fixed-shape operations
//! over a dense `u64` arena — the in-process equivalent of the generated
//! C of the paper's Fig. 4. There is no scheduling and no branching in
//! the op stream: executing a vector is one pass over `init` (retention
//! copies), the primary-input stores, and `ops` (gate simulations).
//!
//! Every arena word carries 64 bit lanes. A one-vector step broadcasts
//! its inputs to all of them; a block step puts 64 consecutive vectors
//! on lanes `0..64` — the data-parallel multi-vector mode the paper
//! credits the PC-set method with.

use std::ops::Range;

use uds_netlist::GateKind;

/// One gate simulation: `arena[dst] = kind(arena[operands...])`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct GateOp {
    pub kind: GateKind,
    pub dst: u32,
    pub first_operand: u32,
    pub operand_count: u32,
}

/// One retention copy: `arena[dst] = arena[src]` (move the final value of
/// the previous vector into the time-0 variable).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct CopyOp {
    pub dst: u32,
    pub src: u32,
}

/// A complete compiled PC-set program.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub(crate) struct Program {
    /// Retention copies, executed first (they read previous-vector state).
    pub init: Vec<CopyOp>,
    /// Arena slots of the time-0 variable of each primary input.
    pub input_slots: Vec<u32>,
    /// Gate simulations in levelized order.
    pub ops: Vec<GateOp>,
    /// The op of each gate that writes its net's final (largest-time)
    /// slot, in `ops` order. Its operands are the inputs' final slots,
    /// so running these alone is a zero-delay sweep: it settles every
    /// final slot whatever the time-0 slots hold.
    pub settle: Vec<GateOp>,
    /// Shared operand pool referenced by [`GateOp`].
    pub operands: Vec<u32>,
    /// Total arena slots.
    pub slot_count: usize,
}

impl Program {
    /// The per-vector prologue: retention copies (they read the
    /// previous vector's state) followed by the primary-input stores
    /// (`inputs[i]` carries the 64 stream bits of primary input `i`).
    /// A profiled step times it as level-0 work.
    pub(crate) fn run_prologue(&self, arena: &mut [u64], inputs: &[u64]) {
        debug_assert_eq!(inputs.len(), self.input_slots.len());
        debug_assert_eq!(arena.len(), self.slot_count);
        for copy in &self.init {
            arena[copy.dst as usize] = arena[copy.src as usize];
        }
        for (&slot, &word) in self.input_slots.iter().zip(inputs) {
            arena[slot as usize] = word;
        }
    }

    /// The retention copies of a block's second pass: lane `k` of each
    /// time-0 slot takes lane `k - 1` of the final slot (the previous
    /// vector's settled value, left there by the first pass), and lane 0
    /// keeps the carry the first pass's plain copy put there — the final
    /// value of the vector before the block.
    pub(crate) fn run_carried_retention(&self, arena: &mut [u64]) {
        for copy in &self.init {
            let carry = arena[copy.dst as usize] & 1;
            arena[copy.dst as usize] = arena[copy.src as usize] << 1 | carry;
        }
    }

    /// Executes the gate ops in `ops` — the whole stream after the
    /// prologue, or one compile-time level segment of it when profiling.
    pub(crate) fn run(&self, arena: &mut [u64], ops: Range<usize>) {
        for op in &self.ops[ops] {
            self.exec_op(arena, op);
        }
    }

    /// Executes the [`Program::settle`] sweep.
    pub(crate) fn run_settle(&self, arena: &mut [u64]) {
        for op in &self.settle {
            self.exec_op(arena, op);
        }
    }

    #[inline(always)]
    fn exec_op(&self, arena: &mut [u64], op: &GateOp) {
        let operands = &self.operands
            [op.first_operand as usize..(op.first_operand + op.operand_count) as usize];
        let value = match op.kind {
            GateKind::And => operands
                .iter()
                .fold(!0u64, |acc, &s| acc & arena[s as usize]),
            GateKind::Nand => !operands
                .iter()
                .fold(!0u64, |acc, &s| acc & arena[s as usize]),
            GateKind::Or => operands
                .iter()
                .fold(0u64, |acc, &s| acc | arena[s as usize]),
            GateKind::Nor => !operands
                .iter()
                .fold(0u64, |acc, &s| acc | arena[s as usize]),
            GateKind::Xor => operands
                .iter()
                .fold(0u64, |acc, &s| acc ^ arena[s as usize]),
            GateKind::Xnor => !operands
                .iter()
                .fold(0u64, |acc, &s| acc ^ arena[s as usize]),
            GateKind::Not => !arena[operands[0] as usize],
            GateKind::Buf => arena[operands[0] as usize],
            GateKind::Const0 => 0,
            GateKind::Const1 => !0,
            GateKind::Dff => unreachable!("sequential gates are rejected at compile time"),
        };
        arena[op.dst as usize] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_executes_copies_inputs_then_ops() {
        // Hand-built program: two slots a(0), b(1); c(2) = a AND b;
        // a is "retained" from c for demonstration.
        let program = Program {
            init: vec![CopyOp { dst: 0, src: 2 }],
            input_slots: vec![1],
            ops: vec![GateOp {
                kind: GateKind::And,
                dst: 2,
                first_operand: 0,
                operand_count: 2,
            }],
            operands: vec![0, 1],
            slot_count: 3,
            ..Program::default()
        };
        let mut arena = vec![0u64; 3];
        arena[2] = !0; // previous final value of c
        program.run_prologue(&mut arena, &[!0]);
        program.run(&mut arena, 0..program.ops.len());
        assert_eq!(arena[0], !0, "copy ran before ops");
        assert_eq!(arena[2], !0, "AND of retained 1 and input 1");

        program.run_prologue(&mut arena, &[0]);
        program.run(&mut arena, 0..program.ops.len());
        assert_eq!(arena[2], 0);
        program.run_prologue(&mut arena, &[!0]);
        program.run(&mut arena, 0..program.ops.len());
        assert_eq!(arena[0], 0, "retention picked up the 0 from last run");
        assert_eq!(arena[2], 0);
    }

    #[test]
    fn streams_are_independent() {
        // c = XOR(a, b) on distinct bit lanes.
        let program = Program {
            init: vec![],
            input_slots: vec![0, 1],
            ops: vec![GateOp {
                kind: GateKind::Xor,
                dst: 2,
                first_operand: 0,
                operand_count: 2,
            }],
            operands: vec![0, 1],
            slot_count: 3,
            ..Program::default()
        };
        let mut arena = vec![0u64; 3];
        program.run_prologue(&mut arena, &[0b1100, 0b1010]);
        program.run(&mut arena, 0..program.ops.len());
        assert_eq!(arena[2], 0b0110);
    }
}
