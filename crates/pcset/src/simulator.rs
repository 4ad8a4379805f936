//! The compiled PC-set simulator: compilation and execution.

use std::fmt;
use std::sync::Arc;

use uds_netlist::limits::narrow_u32;
use uds_netlist::{
    levelize, static_profile, LevelProfile, LevelSegment, LevelSink, LevelizeError, LimitExceeded,
    NetId, Netlist, NoopProbe, Probe, ProbeSpan, ResourceLimits, SegmentBuilder, Unprofiled,
};

use crate::program::{CopyOp, GateOp, Program};
use crate::zero_insert::insert_zeros;
use crate::PcSets;

/// Error returned by [`PcSetSimulator::compile`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CompileError {
    /// The netlist cannot be levelized (cycle or flip-flop).
    Levelize(LevelizeError),
    /// A monitored net id is out of range for the netlist.
    UnknownMonitor,
    /// A resource budget was exceeded (depth, gates, estimated memory,
    /// deadline, or addressable-size arithmetic).
    Limit(LimitExceeded),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Levelize(err) => write!(f, "{err}"),
            CompileError::UnknownMonitor => write!(f, "monitored net does not exist"),
            CompileError::Limit(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Levelize(err) => Some(err),
            CompileError::UnknownMonitor => None,
            CompileError::Limit(err) => Some(err),
        }
    }
}

impl From<LevelizeError> for CompileError {
    fn from(err: LevelizeError) -> Self {
        CompileError::Levelize(err)
    }
}

impl From<LimitExceeded> for CompileError {
    fn from(err: LimitExceeded) -> Self {
        CompileError::Limit(err)
    }
}

/// Size metrics of a compiled PC-set program — the quantities behind the
/// paper's code-size remarks (">100,000 lines for c6288").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProgramStats {
    /// Variables allocated (one per (net, PC-element), after zero
    /// insertion).
    pub variables: usize,
    /// Gate simulations generated (one per element of every gate's
    /// PC-set).
    pub gate_simulations: usize,
    /// Retention copies executed per vector.
    pub retention_copies: usize,
}

/// A compiled unit-delay simulator using the PC-set method (§2).
///
/// Compile once with [`PcSetSimulator::compile`], then call
/// [`PcSetSimulator::simulate_vector`] per input vector; the complete
/// unit-delay history of every monitored net is available afterwards via
/// [`PcSetSimulator::history`].
///
/// Every state word has 64 bit lanes: [`PcSetSimulator::simulate_block`]
/// runs up to 64 consecutive vectors in one pass over the program.
#[derive(Clone, Debug)]
pub struct PcSetSimulator {
    /// Everything compilation fixed, shared by every clone: a fork
    /// copies only the per-run state below.
    compiled: Arc<Compiled>,
    arena: Vec<u64>,
    /// The current step's input lane words, kept across steps so a step
    /// allocates nothing.
    input_words: Vec<u64>,
}

/// The immutable half of a [`PcSetSimulator`]: the program and the
/// slot tables that read it back.
#[derive(Debug)]
struct Compiled {
    program: Program,
    /// Per net: PC-set times after zero insertion (slots are contiguous
    /// per net, in time order, starting at `net_base`).
    net_times: Vec<Vec<u32>>,
    net_base: Vec<u32>,
    monitored: Vec<NetId>,
    input_count: usize,
    depth: u32,
    initial_arena: Vec<u64>,
    /// Run-length level segments of the op stream in emission order
    /// (segment 0 is the zero-length level-0 prologue carrying the
    /// retention-copy/input-store static counts). A profiled step walks
    /// them; the plain step never reads them.
    level_segments: Vec<LevelSegment>,
}

impl PcSetSimulator {
    /// Compiles a combinational netlist, monitoring its primary outputs.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Levelize`] for cyclic/sequential netlists.
    pub fn compile(netlist: &Netlist) -> Result<Self, CompileError> {
        Self::compile_with_monitors(netlist, netlist.primary_outputs())
    }

    /// Compiles with an explicit set of monitored nets (the paper's
    /// `PRINT` pseudo-gate inputs). Monitored nets always have a full
    /// reconstructible history; other nets only expose their final value
    /// and their values at their own PC times.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Levelize`] for cyclic/sequential netlists
    /// or [`CompileError::UnknownMonitor`] for out-of-range ids.
    pub fn compile_with_monitors(
        netlist: &Netlist,
        monitored: &[NetId],
    ) -> Result<Self, CompileError> {
        Self::compile_probed(netlist, monitored, &ResourceLimits::unlimited(), &NoopProbe)
    }

    /// The general constructor: [`PcSetSimulator::compile_with_monitors`]
    /// under a resource budget, with compile phases and the paper's
    /// static metrics (PC-set size distribution, zero insertions,
    /// program size) reported through `probe` (see DESIGN.md §11 for
    /// the span and gauge names). Depth, gate, input, and
    /// estimated-memory ceilings are checked before allocation, slot
    /// arithmetic is overflow-checked, and violations surface as
    /// [`CompileError::Limit`].
    pub fn compile_probed(
        netlist: &Netlist,
        monitored: &[NetId],
        limits: &ResourceLimits,
        probe: &dyn Probe,
    ) -> Result<Self, CompileError> {
        if monitored.iter().any(|&n| n.index() >= netlist.net_count()) {
            return Err(CompileError::UnknownMonitor);
        }
        let levels = {
            let _span = ProbeSpan::new(probe, "pcset.levelize");
            levelize(netlist)?
        };
        limits.check_depth(levels.depth)?;
        limits.check_gates(netlist.gate_count())?;
        limits.check_inputs(netlist.primary_inputs().len())?;
        limits.check_deadline()?;
        let mut sets = {
            let _span = ProbeSpan::new(probe, "pcset.sets");
            PcSets::compute(netlist)?
        };
        let retention = {
            let _span = ProbeSpan::new(probe, "pcset.zero-insert");
            insert_zeros(netlist, &mut sets, monitored)
        };

        // Fig. 4's static picture: the PC-set size distribution after
        // zero insertion, and how many nets retain across vectors.
        let (mut max_set, mut total_set) = (0u64, 0u64);
        for net in netlist.net_ids() {
            let size = sets.net[net].len() as u64;
            max_set = max_set.max(size);
            total_set += size;
        }
        probe.gauge("pcset.set_size.nets", netlist.net_count() as u64);
        probe.gauge("pcset.set_size.max", max_set);
        probe.gauge("pcset.set_size.total", total_set);
        probe.gauge("pcset.zero_insertions", retention.retained_count() as u64);
        probe.gauge("pcset.depth", u64::from(levels.depth));

        let _codegen_span = ProbeSpan::new(probe, "pcset.codegen");

        // Slot allocation: contiguous per net, ascending time.
        let mut net_base = Vec::with_capacity(netlist.net_count());
        let mut slot_count: u32 = 0;
        for net in netlist.net_ids() {
            net_base.push(slot_count);
            slot_count = narrow_u32(slot_count as u64 + sets.net[net].len() as u64)?;
        }
        // One u64 word per slot, both live and power-up copies.
        limits.check_memory((slot_count as u64).saturating_mul(16))?;
        limits.check_deadline()?;
        let slot_of = |net: NetId, time: u32| -> u32 {
            let idx = sets.net[net]
                .times()
                .binary_search(&time)
                .expect("slot lookup for a time in the PC-set");
            net_base[net.index()] + idx as u32
        };

        // Retention copies: time-0 slot <- final (max-time) slot.
        let mut init = Vec::with_capacity(retention.retained_count());
        for net in netlist.net_ids() {
            if retention.retains[net] {
                let max = sets.net[net].max().expect("retaining net is nonempty");
                init.push(CopyOp {
                    dst: slot_of(net, 0),
                    src: slot_of(net, max),
                });
            }
        }

        let input_slots: Vec<u32> = netlist
            .primary_inputs()
            .iter()
            .map(|&pi| slot_of(pi, 0))
            .collect();

        // Gate simulations: levelized order; one op per PC element of the
        // gate; operands use each input's largest PC element strictly
        // below the element being generated (Fig. 4).
        let mut ops = Vec::new();
        let mut settle = Vec::new();
        let mut operands = Vec::new();
        // Level segments ride along in emission order (topo_gates is a
        // worklist order, *not* sorted by level, so runs of one level
        // are recorded rather than assumed). Segment 0 is the level-0
        // prologue: retention copies plus input stores, zero gate ops.
        let mut segments = SegmentBuilder::new();
        segments.emit(
            0,
            0,
            (init.len() + input_slots.len()) as u64,
            0,
            (init.len() * 2 + input_slots.len()) as u64 * 8,
        );
        for &gid in &levels.topo_gates {
            let gate = netlist.gate(gid);
            let level = levels.gate_level[gid.index()] as usize;
            let emitted = sets.gate[gid.index()].times().len();
            segments.emit(
                level,
                emitted,
                emitted as u64,
                emitted as u64,
                (emitted * (gate.inputs.len() + 1)) as u64 * 8,
            );
            for &t in sets.gate[gid.index()].times() {
                let first_operand = narrow_u32(operands.len() as u64)?;
                for &input in &gate.inputs {
                    let src_time = sets.net[input]
                        .largest_below(t)
                        .expect("zero insertion guarantees an operand");
                    operands.push(slot_of(input, src_time));
                }
                ops.push(GateOp {
                    kind: gate.kind,
                    dst: slot_of(gate.output, t),
                    first_operand,
                    operand_count: gate.inputs.len() as u32,
                });
            }
            // Times ascend, so the gate's last op writes its final slot.
            if emitted > 0 {
                settle.push(ops[ops.len() - 1]);
            }
        }
        let level_segments = segments.finish();
        // The static per-level instruction distribution (one sample per
        // level) — the measured-vs-static axis of hotspot reports.
        for cost in &static_profile(&level_segments).levels {
            probe.record("pcset.level_instructions", cost.word_ops);
        }

        let program = Program {
            init,
            input_slots,
            ops,
            settle,
            operands,
            slot_count: slot_count as usize,
        };
        // The quantities behind the paper's Fig. 4 / code-size remarks.
        probe.gauge("pcset.variables", program.slot_count as u64);
        probe.gauge("pcset.gate_simulations", program.ops.len() as u64);
        probe.gauge("pcset.retention_copies", program.init.len() as u64);

        // Consistent power-up state: the all-0 settled state, seeded
        // into a zeroed arena as `seed_stable` seeds any other.
        let mut settled = vec![0u64; netlist.net_count()];
        uds_netlist::settle(netlist, &levels, &mut settled);
        let settled_zero: Vec<bool> = settled.iter().map(|&v| v != 0).collect();
        let net_times: Vec<Vec<u32>> = sets.net.iter().map(|s| s.times().to_vec()).collect();
        let mut initial_arena = vec![0u64; slot_count as usize];
        fill_slots(&net_base, &net_times, &mut initial_arena, &settled_zero);

        Ok(PcSetSimulator {
            arena: initial_arena.clone(),
            input_words: Vec::with_capacity(netlist.primary_inputs().len()),
            compiled: Arc::new(Compiled {
                initial_arena,
                net_times,
                net_base,
                monitored: monitored.to_vec(),
                input_count: netlist.primary_inputs().len(),
                depth: levels.depth,
                program,
                level_segments,
            }),
        })
    }

    /// Circuit depth; histories cover times `0..=depth()`.
    pub fn depth(&self) -> u32 {
        self.compiled.depth
    }

    /// The monitored nets.
    pub fn monitored(&self) -> &[NetId] {
        &self.compiled.monitored
    }

    /// Program size metrics.
    pub fn stats(&self) -> ProgramStats {
        ProgramStats {
            variables: self.compiled.program.slot_count,
            gate_simulations: self.compiled.program.ops.len(),
            retention_copies: self.compiled.program.init.len(),
        }
    }

    /// `true` when `other` runs the very same compiled program and
    /// slot tables as `self` — as every clone of one compile does.
    pub fn shares_compiled(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.compiled, &other.compiled)
    }

    /// Replaces the power-up state with an arbitrary stable state
    /// (`stable` is parallel to the netlist's nets), so a simulation can
    /// resume mid-stream as if every earlier vector had been applied.
    /// Only the retained final bits influence later vectors, but every
    /// slot is filled, as the power-up arena is.
    ///
    /// # Panics
    ///
    /// Panics if `stable.len()` differs from the net count.
    pub fn seed_stable(&mut self, stable: &[bool]) {
        assert_eq!(
            stable.len(),
            self.compiled.net_times.len(),
            "seed length must match the net count"
        );
        let Compiled {
            net_base,
            net_times,
            ..
        } = &*self.compiled;
        fill_slots(net_base, net_times, &mut self.arena, stable);
    }

    /// Simulates one input vector (all 64 lanes carry the same bits).
    ///
    /// `inputs` is parallel to the netlist's primary inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count.
    pub fn simulate_vector(&mut self, inputs: &[bool]) {
        self.step(inputs, &mut Unprofiled);
    }

    /// Simulates one input vector through the interpreted program,
    /// walked as `sink` directs: [`Unprofiled`] runs the op stream in
    /// one call, a [`uds_netlist::LevelTimer`] runs it in compile-time
    /// level segments and attributes wall time and work to netlist
    /// levels (level 0 holds the retention/input prologue). Both
    /// execute exactly the same ops in exactly the same order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count.
    pub fn step<S: LevelSink>(&mut self, inputs: &[bool], sink: &mut S) {
        self.step_with(broadcast(inputs), |program, segments, arena, words| {
            program.run_prologue(arena, words);
            sink.walk(segments, program.ops.len(), |ops| program.run(arena, ops));
        });
    }

    /// The static per-level cost model of the compiled program (zero
    /// `self_ns`): per-level generated instructions, gate simulations,
    /// and estimated state bytes — the paper's side of a
    /// measured-vs-static hotspot comparison.
    pub fn level_static_profile(&self) -> LevelProfile {
        static_profile(&self.compiled.level_segments)
    }

    /// Like [`PcSetSimulator::simulate_vector`], but with `kernel`
    /// running the whole program in place of the interpreter: it is
    /// handed the arena and `inputs` broadcast to lane words. The
    /// native engine routes the step through compiled C this way while
    /// this simulator's arena stays the authoritative state.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count.
    pub fn simulate_vector_with(
        &mut self,
        inputs: &[bool],
        kernel: impl FnOnce(&mut [u64], &[u64]),
    ) {
        self.step_with(broadcast(inputs), |_, _, arena, words| kernel(arena, words));
    }

    /// Simulates up to 64 consecutive vectors, exactly as if each had
    /// run through [`PcSetSimulator::simulate_vector`] in turn: bit `k`
    /// of `finals[o]` is the settled value of `outputs[o]` after
    /// `vectors[k]`, and every readback afterwards answers for the last
    /// vector.
    ///
    /// Vector `k` rides lane `k`. A combinational circuit's settled
    /// values do not depend on retained state (DESIGN.md §12), so a
    /// settle sweep — each gate's last op, whose operands are its inputs'
    /// final slots — gives every lane its final values first. The
    /// retention copies then hand lane `k` the finals of lane
    /// `k - 1` (lane 0 those of the vector before the block), and one
    /// pass of the op stream computes every lane's exact history.
    /// Broadcasting lane `n - 1` over the arena leaves the state a
    /// one-vector step would have left.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 64 vectors, if a vector's length
    /// differs from the primary-input count, or if `finals` and
    /// `outputs` differ in length.
    pub fn simulate_block(&mut self, vectors: &[&[bool]], outputs: &[NetId], finals: &mut [u64]) {
        assert!(vectors.len() <= 64, "a block holds at most 64 vectors");
        assert_eq!(finals.len(), outputs.len(), "one finals word per output");
        let Some(last) = vectors.len().checked_sub(1) else {
            finals.fill(0);
            return;
        };
        let width = self.compiled.input_count;
        self.input_words.clear();
        self.input_words.resize(width, 0);
        for (lane, inputs) in vectors.iter().enumerate() {
            assert_eq!(
                inputs.len(),
                width,
                "input vector length must match the primary input count"
            );
            for (word, &bit) in self.input_words.iter_mut().zip(*inputs) {
                *word |= u64::from(bit) << lane;
            }
        }
        let program = &self.compiled.program;
        // The plain copies leave each time-0 slot holding the carry.
        program.run_prologue(&mut self.arena, &self.input_words);
        program.run_settle(&mut self.arena);
        program.run_carried_retention(&mut self.arena);
        program.run(&mut self.arena, 0..program.ops.len());
        let lanes = u64::MAX >> (63 - last);
        for (word, &net) in finals.iter_mut().zip(outputs) {
            *word = self.final_word(net) & lanes;
        }
        for slot in &mut self.arena {
            *slot = 0u64.wrapping_sub(*slot >> last & 1);
        }
    }

    /// The engine's one per-vector body: checks the input width, loads
    /// the lane words into the reused `input_words` buffer, then
    /// hands the arena and those words to `body` to execute the program.
    fn step_with(
        &mut self,
        inputs: impl ExactSizeIterator<Item = u64>,
        body: impl FnOnce(&Program, &[LevelSegment], &mut [u64], &[u64]),
    ) {
        assert_eq!(
            inputs.len(),
            self.compiled.input_count,
            "input vector length must match the primary input count"
        );
        self.input_words.clear();
        self.input_words.extend(inputs);
        body(
            &self.compiled.program,
            &self.compiled.level_segments,
            &mut self.arena,
            &self.input_words,
        );
    }

    /// The final settled value of any net for the last vector.
    pub fn final_value(&self, net: NetId) -> bool {
        self.final_word(net) & 1 != 0
    }

    /// The word of `net`'s final slot, one lane per bit.
    fn final_word(&self, net: NetId) -> u64 {
        let times = &self.compiled.net_times[net.index()];
        let last = times.len() - 1;
        self.arena[(self.compiled.net_base[net.index()] as usize) + last]
    }

    /// The value of `net` at time `time` for the last vector,
    /// or `None` if the net's history at that time is not reconstructible
    /// (the net is unmonitored and has no PC element at or below `time`).
    pub fn value_at(&self, net: NetId, time: u32) -> Option<bool> {
        let times = &self.compiled.net_times[net.index()];
        let idx = match times.binary_search(&time) {
            Ok(idx) => idx,
            Err(0) => return None,
            Err(idx) => idx - 1,
        };
        Some(self.arena[(self.compiled.net_base[net.index()] as usize) + idx] & 1 != 0)
    }

    /// The complete unit-delay history of `net` for the last vector, at
    /// times `0..=depth()`. Returns `None` when time 0 is
    /// not reconstructible — monitor the net to guarantee it.
    pub fn history(&self, net: NetId) -> Option<Vec<bool>> {
        if self.compiled.net_times[net.index()].first() != Some(&0) {
            return None;
        }
        Some(
            (0..=self.compiled.depth)
                .map(|t| self.value_at(net, t).expect("time 0 exists"))
                .collect(),
        )
    }

    /// Internal accessors used by the C emitter.
    pub(crate) fn program(&self) -> &Program {
        &self.compiled.program
    }

    /// The program's run-length level table, where the native kernel
    /// may be cut into parts.
    pub(crate) fn level_segments(&self) -> &[LevelSegment] {
        &self.compiled.level_segments
    }

    pub(crate) fn initial_arena(&self) -> &[u64] {
        &self.compiled.initial_arena
    }

    pub(crate) fn net_times(&self) -> &[Vec<u32>] {
        &self.compiled.net_times
    }

    pub(crate) fn net_base(&self) -> &[u32] {
        &self.compiled.net_base
    }
}

/// Fills every slot of every net with the net's value in `stable`, in
/// all 64 lanes: the power-up arena, and any seeded state.
fn fill_slots(net_base: &[u32], net_times: &[Vec<u32>], arena: &mut [u64], stable: &[bool]) {
    for ((&base, times), &value) in net_base.iter().zip(net_times).zip(stable) {
        let base = base as usize;
        arena[base..base + times.len()].fill(if value { !0 } else { 0 });
    }
}

/// One vector's inputs broadcast to all 64 lanes.
fn broadcast(inputs: &[bool]) -> impl ExactSizeIterator<Item = u64> + '_ {
    inputs.iter().map(|&b| if b { !0u64 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uds_netlist::{GateKind, NetlistBuilder};

    /// The paper's Fig. 4 network.
    fn fig4() -> (Netlist, NetId, NetId, NetId, NetId, NetId) {
        let mut b = NetlistBuilder::new();
        let a = b.input("A");
        let bn = b.input("B");
        let c = b.input("C");
        let d = b.gate(GateKind::And, &[a, bn], "D").unwrap();
        let e = b.gate(GateKind::And, &[d, c], "E").unwrap();
        b.output(e);
        (b.finish().unwrap(), a, bn, c, d, e)
    }

    #[test]
    fn clones_share_the_compiled_program_but_not_the_state() {
        let (nl, .., e) = fig4();
        let mut original = PcSetSimulator::compile(&nl).unwrap();
        let mut fork = original.clone();
        assert!(fork.shares_compiled(&original));
        let recompiled = PcSetSimulator::compile(&nl).unwrap();
        assert!(!recompiled.shares_compiled(&original));
        fork.simulate_vector(&[true, true, true]);
        assert!(fork.final_value(e));
        assert!(!original.final_value(e), "the original keeps its own arena");
        original.simulate_vector(&[false, true, true]);
        assert!(fork.final_value(e), "and the fork keeps its own");
    }

    #[test]
    fn fig4_variable_allocation_matches_paper() {
        // Paper: variables A_0, B_0, C_0, D_0, D_1, E_1, E_2 — with our
        // conservative extension E (monitored) also gets E_0.
        let (nl, ..) = fig4();
        let sim = PcSetSimulator::compile(&nl).unwrap();
        let stats = sim.stats();
        assert_eq!(stats.variables, 8);
        // Gate sims: D at time 1; E at times 1 and 2 => 3 (as in Fig. 4).
        assert_eq!(stats.gate_simulations, 3);
        // Retention copies: D_0 = D_1 and E_0 = E_2.
        assert_eq!(stats.retention_copies, 2);
    }

    #[test]
    fn fig4_history_shows_the_intermediate_value() {
        let (nl, _, _, _, d, e) = fig4();
        let mut sim = PcSetSimulator::compile(&nl).unwrap();
        // Settle with A=1,B=1,C=1: D=1, E=1.
        sim.simulate_vector(&[true, true, true]);
        assert!(sim.final_value(d));
        assert!(sim.final_value(e));
        // Now drop A. D falls at time 1; E sees old D at time 1 (stays 1
        // at time 1 via E_1 = D_0 & C_0 = 1), then falls at time 2.
        sim.simulate_vector(&[false, true, true]);
        let history = sim.history(e).unwrap();
        assert_eq!(history, vec![true, true, false]);
        assert!(!sim.final_value(d));
    }

    #[test]
    fn unmonitored_net_history_is_none_but_final_value_works() {
        let (nl, _, _, _, d, _) = fig4();
        let mut sim = PcSetSimulator::compile(&nl).unwrap();
        sim.simulate_vector(&[true, true, false]);
        // D is not monitored but retains (feeds E alongside C)... so it
        // has a 0 element and history IS available.
        assert!(sim.history(d).is_some());
        assert!(sim.final_value(d));
    }

    #[test]
    fn value_at_none_before_first_pc_element() {
        // A net with PC-set {2} and no zero: nothing forces retention.
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let x = b.gate(GateKind::Not, &[a], "x").unwrap();
        let y = b.gate(GateKind::Not, &[x], "y").unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        // Monitor nothing to keep PC-sets pristine.
        let mut sim = PcSetSimulator::compile_with_monitors(&nl, &[]).unwrap();
        sim.simulate_vector(&[true]);
        assert_eq!(sim.value_at(x, 0), None);
        assert_eq!(sim.value_at(x, 1), Some(false));
        assert_eq!(sim.history(x), None);
    }

    #[test]
    fn a_block_carries_each_vector_into_the_next() {
        let (nl, _, _, _, d, e) = fig4();
        let mut sim = PcSetSimulator::compile(&nl).unwrap();
        let mut finals = [0u64];
        // Lane 1 drops A after lane 0 set every input: E glitches high
        // at time 1 only because lane 1 retains lane 0's D.
        sim.simulate_block(
            &[&[true, true, true], &[false, true, true]],
            &[e],
            &mut finals,
        );
        assert_eq!(finals, [0b01]);
        assert_eq!(sim.history(e).unwrap(), vec![true, true, false]);
        assert!(!sim.final_value(d));
        // Lane 0 retains the block's last vector.
        sim.simulate_block(&[&[true, true, true]], &[e], &mut finals);
        assert_eq!(finals, [0b1]);
        assert_eq!(sim.history(e).unwrap(), vec![false, false, true]);
    }

    #[test]
    fn unknown_monitor_is_rejected() {
        let (nl, ..) = fig4();
        let bogus = NetId::from_index(nl.net_count());
        assert_eq!(
            PcSetSimulator::compile_with_monitors(&nl, &[bogus]).unwrap_err(),
            CompileError::UnknownMonitor
        );
    }

    #[test]
    fn cyclic_netlist_is_rejected() {
        let mut b = NetlistBuilder::new();
        let a = b.input("A");
        let x = b.fresh_net();
        let y = b.fresh_net();
        b.gate_onto(GateKind::And, &[a, y], x).unwrap();
        b.gate_onto(GateKind::Not, &[x], y).unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        assert!(matches!(
            PcSetSimulator::compile(&nl),
            Err(CompileError::Levelize(_))
        ));
    }

    #[test]
    fn budget_violations_are_typed() {
        let (nl, ..) = fig4();
        let tight = ResourceLimits {
            max_gates: Some(1),
            ..ResourceLimits::unlimited()
        };
        match PcSetSimulator::compile_probed(&nl, nl.primary_outputs(), &tight, &NoopProbe) {
            Err(CompileError::Limit(err)) => {
                assert_eq!(err.resource, uds_netlist::Resource::Gates);
                assert_eq!(err.needed, 2);
                assert_eq!(err.allowed, 1);
            }
            other => panic!("expected gate-count violation, got {other:?}"),
        }
        assert!(PcSetSimulator::compile_probed(
            &nl,
            nl.primary_outputs(),
            &ResourceLimits::production(),
            &NoopProbe,
        )
        .is_ok());
    }

    #[test]
    fn constant_gates_hold_their_value() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let k = b.gate(GateKind::Const1, &[], "k").unwrap();
        let y = b.gate(GateKind::And, &[a, k], "y").unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        let mut sim = PcSetSimulator::compile(&nl).unwrap();
        sim.simulate_vector(&[true]);
        assert!(sim.final_value(y));
        sim.simulate_vector(&[false]);
        assert!(!sim.final_value(y));
        assert!(sim.final_value(k));
    }
}
