//! The interpreted event-driven unit-delay simulator.
//!
//! This is the baseline the paper's compiled techniques are measured
//! against: a conventional selective-trace simulator with an event list.
//! Every gate has a delay of one time unit, so events scheduled at time
//! `t` can only produce events at time `t + 1`; the "event queue" is two
//! buckets swapped each step (a degenerate timing wheel, the efficient
//! implementation for a pure unit-delay model).
//!
//! The per-event costs that compiled simulation eliminates are all here
//! and all deliberate: queue push/pop, fan-out list traversal, per-gate
//! input gathering through the netlist data structures, and dynamic
//! dispatch on the gate kind.

use uds_netlist::{levelize, GateId, LevelSink, LevelizeError, NetId, Netlist, Unprofiled};

use crate::LogicFamily;

/// Counters describing one simulated vector.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SimStats {
    /// Net-change events processed (events that actually changed a value).
    pub events: usize,
    /// Net toggles: committed changes at time `>= 1`. Primary-input
    /// changes land at time 0 — the vector *starts* there, the net does
    /// not switch mid-settling — so `toggles <= events`, and the count
    /// matches toggles derived from any engine's unit-delay history.
    pub toggles: usize,
    /// Gate evaluations performed.
    pub gate_evaluations: usize,
    /// The last time unit at which anything changed.
    pub settle_time: u32,
}

/// Interpreted event-driven unit-delay simulator.
///
/// Generic over the [`LogicFamily`]: `EventDrivenUnitDelay<bool>` is the
/// paper's two-valued baseline, `EventDrivenUnitDelay<Logic3>` the
/// three-valued one.
///
/// State persists across vectors (as in the paper, where values computed
/// from the previous input vector matter); a fresh simulator starts
/// from the power-up state.
#[derive(Clone, Debug)]
pub struct EventDrivenUnitDelay<L: LogicFamily> {
    netlist: Netlist,
    value: Vec<L>,
    /// Current / next event buckets: nets whose new value is pending.
    current: Vec<(NetId, L)>,
    next: Vec<(NetId, L)>,
    /// Per-gate stamp to evaluate a gate at most once per time unit.
    gate_stamp: Vec<u64>,
    stamp: u64,
}

impl<L: LogicFamily> EventDrivenUnitDelay<L> {
    /// Builds a simulator for a combinational netlist.
    ///
    /// The power-up state is *consistent*: the circuit is settled once
    /// under all-[`LogicFamily::initial`] primary inputs (all 0 for the
    /// two-valued model, all X for the three-valued one), so constant
    /// generators and inverters hold correct values before the first
    /// vector — exactly the "initialization value of the net" the paper's
    /// compiled code generators assume.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] if the netlist is cyclic or sequential
    /// (the simulator itself would tolerate cycles that settle, but the
    /// paper's model and the compiled comparators require acyclic input,
    /// so it is rejected up front for comparability).
    pub fn new(netlist: &Netlist) -> Result<Self, LevelizeError> {
        let levels = levelize(netlist)?;
        let mut initial_state = vec![L::initial(); netlist.net_count()];
        for &gid in &levels.topo_gates {
            let gate = netlist.gate(gid);
            let inputs: Vec<L> = gate.inputs.iter().map(|&n| initial_state[n]).collect();
            initial_state[gate.output] = L::eval(gate.kind, &inputs);
        }
        Ok(EventDrivenUnitDelay {
            value: initial_state,
            current: Vec::new(),
            next: Vec::new(),
            gate_stamp: vec![0; netlist.gate_count()],
            stamp: 0,
            netlist: netlist.clone(),
        })
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The current value of a net.
    pub fn value(&self, net: NetId) -> L {
        self.value[net]
    }

    /// Current values of all nets, indexed by [`NetId`].
    pub fn values(&self) -> &[L] {
        &self.value
    }

    /// Overwrites every net's value with `values` (indexed by [`NetId`])
    /// and discards pending events, as if the circuit had settled in
    /// exactly that state. The caller is responsible for `values` being
    /// a consistent (settled) assignment; seeding an unsettled one makes
    /// the next vector's waveform start from it regardless.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the net count.
    pub fn seed_values(&mut self, values: &[L]) {
        assert_eq!(
            values.len(),
            self.value.len(),
            "seed length must match the net count"
        );
        self.value.copy_from_slice(values);
        self.current.clear();
        self.next.clear();
    }

    /// Simulates one input vector to settlement.
    ///
    /// `inputs` is parallel to [`Netlist::primary_inputs`]. Internal nets
    /// keep their values from the previous vector, exactly as the
    /// compiled techniques assume.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary input count.
    pub fn simulate_vector(&mut self, inputs: &[L]) -> SimStats {
        self.simulate_vector_traced(inputs, |_, _, _| {})
    }

    /// Like [`Self::simulate_vector`], invoking `on_change(time, net,
    /// value)` for every committed net change (primary-input changes are
    /// reported at time 0).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary input count.
    pub fn simulate_vector_traced(
        &mut self,
        inputs: &[L],
        on_change: impl FnMut(u32, NetId, L),
    ) -> SimStats {
        self.step(inputs, &mut Unprofiled, on_change)
    }

    /// The simulator's one per-vector body: like
    /// [`Self::simulate_vector_traced`], additionally reporting each
    /// unit-delay time step to `sink`. The pre-loop input scan is level
    /// 0 and the settling iteration at time `t` is level `t`. For an
    /// event-driven simulator the time step *is* the natural analogue
    /// of the compiled engines' netlist level — events committed at
    /// time `t` are toggles of nets at levels `<= t` — so hotspot
    /// reports from a [`uds_netlist::LevelTimer`] sink line up across
    /// engines.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary input count.
    pub fn step<S: LevelSink>(
        &mut self,
        inputs: &[L],
        sink: &mut S,
        mut on_change: impl FnMut(u32, NetId, L),
    ) -> SimStats {
        assert_eq!(
            inputs.len(),
            self.netlist.primary_inputs().len(),
            "input vector length must match the primary input count"
        );
        let mut stats = SimStats::default();
        let value_bytes = std::mem::size_of::<L>() as u64;

        debug_assert!(self.current.is_empty());
        for (&pi, &bit) in self.netlist.primary_inputs().iter().zip(inputs) {
            if self.value[pi] != bit {
                self.current.push((pi, bit));
            }
        }
        let scanned = self.netlist.primary_inputs().len() as u64;
        sink.segment(0, scanned, 0, scanned * value_bytes * 2);

        let mut time: u32 = 0;
        while !self.current.is_empty() {
            self.stamp += 1;
            let step_events_start = stats.events;
            let step_evals_start = stats.gate_evaluations;
            // Commit all changes for this time unit first, so gates see a
            // consistent snapshot of time `time`.
            let mut changed: Vec<NetId> = Vec::with_capacity(self.current.len());
            let events = std::mem::take(&mut self.current);
            for (net, new_value) in events {
                if self.value[net] != new_value {
                    self.value[net] = new_value;
                    changed.push(net);
                    stats.events += 1;
                    stats.toggles += usize::from(time >= 1);
                    stats.settle_time = time;
                    on_change(time, net, new_value);
                }
            }
            // Selective trace: evaluate each affected gate once.
            for net in changed {
                for &gate in self.netlist.fanout(net) {
                    if self.gate_stamp[gate.index()] == self.stamp {
                        continue;
                    }
                    self.gate_stamp[gate.index()] = self.stamp;
                    let new_out = self.evaluate(gate);
                    stats.gate_evaluations += 1;
                    let out_net = self.netlist.gate(gate).output;
                    if new_out != self.value[out_net] {
                        self.next.push((out_net, new_out));
                    }
                }
            }
            std::mem::swap(&mut self.current, &mut self.next);
            let step_events = (stats.events - step_events_start) as u64;
            let step_evals = (stats.gate_evaluations - step_evals_start) as u64;
            // Rough bytes: each event rewrites a value, each evaluation
            // gathers its inputs through the netlist (call it 4 values).
            sink.segment(
                time as usize,
                step_events,
                step_evals,
                (step_events + step_evals * 4) * value_bytes * 2,
            );
            time += 1;
        }
        stats
    }

    fn evaluate(&self, gate: GateId) -> L {
        let gate = self.netlist.gate(gate);
        // Gather through the data structure — the interpretive overhead
        // compiled simulation removes.
        let mut scratch = [L::initial(); 16];
        if gate.inputs.len() <= scratch.len() {
            for (slot, &input) in scratch.iter_mut().zip(&gate.inputs) {
                *slot = self.value[input];
            }
            L::eval(gate.kind, &scratch[..gate.inputs.len()])
        } else {
            let values: Vec<L> = gate.inputs.iter().map(|&n| self.value[n]).collect();
            L::eval(gate.kind, &values)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uds_netlist::generators::iscas::c17;
    use uds_netlist::{GateKind, Logic3, NetlistBuilder};

    fn fig1() -> (Netlist, NetId, NetId) {
        let mut b = NetlistBuilder::new();
        let a = b.input("A");
        let bb = b.input("B");
        let c = b.input("C");
        let d = b.gate(GateKind::And, &[a, bb], "D").unwrap();
        let e = b.gate(GateKind::And, &[c, d], "E").unwrap();
        b.output(e);
        (b.finish().unwrap(), d, e)
    }

    #[test]
    fn settles_to_combinational_values() {
        let (nl, d, e) = fig1();
        let mut sim = EventDrivenUnitDelay::<bool>::new(&nl).unwrap();
        sim.simulate_vector(&[true, true, true]);
        assert!(sim.value(d));
        assert!(sim.value(e));
        sim.simulate_vector(&[true, false, true]);
        assert!(!sim.value(d));
        assert!(!sim.value(e));
    }

    #[test]
    fn unit_delay_timing_is_respected() {
        let (nl, d, e) = fig1();
        let mut sim = EventDrivenUnitDelay::<bool>::new(&nl).unwrap();
        // Establish steady state 0.
        sim.simulate_vector(&[false, false, false]);
        // A,B,C all rise at time 0: D rises at 1, E at 2.
        let mut changes = Vec::new();
        sim.simulate_vector_traced(&[true, true, true], |t, net, v| changes.push((t, net, v)));
        assert!(changes.contains(&(1, d, true)));
        assert!(changes.contains(&(2, e, true)));
    }

    #[test]
    fn static_hazard_produces_glitch_events() {
        // y = AND(a, NOT a): a 0->1 edge makes y pulse high for one unit
        // in a unit-delay model (the NOT lags the direct path).
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let na = b.gate(GateKind::Not, &[a], "na").unwrap();
        let y = b.gate(GateKind::And, &[a, na], "y").unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        let mut sim = EventDrivenUnitDelay::<bool>::new(&nl).unwrap();
        sim.simulate_vector(&[false]);
        let mut y_changes = Vec::new();
        sim.simulate_vector_traced(&[true], |t, net, v| {
            if net == y {
                y_changes.push((t, v));
            }
        });
        // y rises at 1 (a high, na still high) and falls at 2.
        assert_eq!(y_changes, vec![(1, true), (2, false)]);
    }

    #[test]
    fn three_valued_starts_unknown_and_resolves() {
        let (nl, d, e) = fig1();
        let mut sim = EventDrivenUnitDelay::<Logic3>::new(&nl).unwrap();
        assert_eq!(sim.value(e), Logic3::X);
        // AND with a controlling 0 resolves despite X partner.
        sim.simulate_vector(&[Logic3::Zero, Logic3::X, Logic3::One]);
        assert_eq!(sim.value(d), Logic3::Zero);
        assert_eq!(sim.value(e), Logic3::Zero);
    }

    #[test]
    fn stable_vector_causes_no_events() {
        let (nl, _, _) = fig1();
        let mut sim = EventDrivenUnitDelay::<bool>::new(&nl).unwrap();
        sim.simulate_vector(&[true, true, true]);
        let stats = sim.simulate_vector(&[true, true, true]);
        assert_eq!(stats.events, 0);
        assert_eq!(stats.gate_evaluations, 0);
    }

    #[test]
    fn c17_matches_direct_evaluation() {
        let nl = c17();
        let mut sim = EventDrivenUnitDelay::<bool>::new(&nl).unwrap();
        for pattern in 0u32..32 {
            let inputs: Vec<bool> = (0..5).map(|i| pattern >> i & 1 != 0).collect();
            sim.simulate_vector(&inputs);
            // Compare against fresh topological evaluation.
            let levels = levelize(&nl).unwrap();
            let mut value = vec![false; nl.net_count()];
            for (&pi, &b) in nl.primary_inputs().iter().zip(&inputs) {
                value[pi] = b;
            }
            for &gid in &levels.topo_gates {
                let gate = nl.gate(gid);
                let bits: Vec<bool> = gate.inputs.iter().map(|&n| value[n]).collect();
                value[gate.output] = gate.kind.eval_bits(&bits);
            }
            for net in nl.net_ids() {
                assert_eq!(sim.value(net), value[net], "net {net} pattern {pattern}");
            }
        }
    }

    #[test]
    fn settle_time_bounded_by_depth() {
        let nl = c17();
        let depth = levelize(&nl).unwrap().depth;
        let mut sim = EventDrivenUnitDelay::<bool>::new(&nl).unwrap();
        for pattern in 0u32..32 {
            let inputs: Vec<bool> = (0..5).map(|i| pattern >> i & 1 != 0).collect();
            let stats = sim.simulate_vector(&inputs);
            assert!(stats.settle_time <= depth);
        }
    }

    #[test]
    #[should_panic(expected = "input vector length")]
    fn wrong_input_length_panics() {
        let (nl, _, _) = fig1();
        let mut sim = EventDrivenUnitDelay::<bool>::new(&nl).unwrap();
        sim.simulate_vector(&[true]);
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
        assert!(EventDrivenUnitDelay::<bool>::new(&nl).is_err());
    }
}
