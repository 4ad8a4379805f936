//! A *conventional* interpreted event-driven simulator — the cost model
//! of the simulators the paper benchmarks against.
//!
//! [`crate::EventDrivenUnitDelay`] is a modern, tightly-engineered
//! two-bucket engine; a 1990 general-purpose interpreted simulator looked
//! different, and its per-event constant factor is what compiled
//! simulation beats. This engine reproduces that classic structure
//! faithfully:
//!
//! * a **timing wheel** of time slots, each a linked list of event
//!   records drawn from a free-list pool (pointer chasing per event);
//! * **per-pin activation**: a gate with several changed inputs at one
//!   time is re-evaluated once per triggering event — there is no
//!   once-per-timestep memoization;
//! * **event cancellation**: scheduling checks the pending event for the
//!   target net and overwrites its value in place, as classic
//!   implementations did, rather than deduplicating at dequeue only;
//! * **table-driven gate models**: every evaluation goes through a
//!   function pointer fetched from a per-gate model table, the way
//!   interpreted simulators bind primitive models (no inlining, an
//!   indirect call per evaluation).
//!
//! Same logic families and the same observable results as the optimized
//! engine (a cross-check test enforces it); only the interpretive
//! overhead differs. DESIGN.md §4 documents why Fig. 19's baseline
//! columns are measured with this engine.

use uds_netlist::{levelize, LevelizeError, NetId, Netlist};

use crate::unit_delay::SimStats;
use crate::LogicFamily;

const NIL: u32 = u32::MAX;

/// A primitive gate model: interpreted simulators bind these through a
/// table of function pointers, one slot per gate.
type GateModel<L> = fn(&[L]) -> L;

fn model_for<L: LogicFamily>(kind: uds_netlist::GateKind) -> GateModel<L> {
    use uds_netlist::GateKind;
    match kind {
        GateKind::And => |v| L::eval(GateKind::And, v),
        GateKind::Nand => |v| L::eval(GateKind::Nand, v),
        GateKind::Or => |v| L::eval(GateKind::Or, v),
        GateKind::Nor => |v| L::eval(GateKind::Nor, v),
        GateKind::Xor => |v| L::eval(GateKind::Xor, v),
        GateKind::Xnor => |v| L::eval(GateKind::Xnor, v),
        GateKind::Not => |v| L::eval(GateKind::Not, v),
        GateKind::Buf => |v| L::eval(GateKind::Buf, v),
        GateKind::Const0 => |v| L::eval(GateKind::Const0, v),
        GateKind::Const1 => |v| L::eval(GateKind::Const1, v),
        GateKind::Dff => unreachable!("levelize rejects sequential netlists"),
    }
}

#[derive(Clone, Debug)]
struct Event<L> {
    net: NetId,
    value: L,
    next: u32,
}

/// Conventional interpreted event-driven unit-delay simulator (timing
/// wheel + linked event records + per-pin activation).
#[derive(Clone, Debug)]
pub struct ConventionalEventDriven<L: LogicFamily> {
    netlist: Netlist,
    value: Vec<L>,
    /// Timing wheel: head event index per slot.
    wheel: Vec<u32>,
    pool: Vec<Event<L>>,
    free_head: u32,
    /// Per net: index of the pending (scheduled, not yet dequeued) event,
    /// and the time it is scheduled for.
    pending_event: Vec<u32>,
    pending_time: Vec<u32>,
    /// Per net: the value the net will hold once all scheduled events
    /// have been applied — the "last scheduled value" that classic
    /// simulators filter against.
    last_scheduled: Vec<L>,
    /// Per-gate model table (function pointers, as in table-driven
    /// interpreted simulators).
    models: Vec<GateModel<L>>,
}

impl<L: LogicFamily> ConventionalEventDriven<L> {
    /// Builds a simulator; the power-up state is the circuit settled
    /// under all-[`LogicFamily::initial`] inputs, like the optimized
    /// engine's.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] for cyclic or sequential netlists.
    pub fn new(netlist: &Netlist) -> Result<Self, LevelizeError> {
        let levels = levelize(netlist)?;
        let mut initial_state = vec![L::initial(); netlist.net_count()];
        for &gid in &levels.topo_gates {
            let gate = netlist.gate(gid);
            let inputs: Vec<L> = gate.inputs.iter().map(|&n| initial_state[n]).collect();
            initial_state[gate.output] = L::eval(gate.kind, &inputs);
        }
        // Wheel size: events only ever land one unit ahead, but keep a
        // full revolution of depth + 2 slots like a general simulator.
        let wheel_slots = levels.depth as usize + 2;
        let models = netlist
            .gates()
            .iter()
            .map(|g| model_for::<L>(g.kind))
            .collect();
        Ok(ConventionalEventDriven {
            value: initial_state.clone(),
            last_scheduled: initial_state,
            models,
            wheel: vec![NIL; wheel_slots],
            pool: Vec::new(),
            free_head: NIL,
            pending_event: vec![NIL; netlist.net_count()],
            pending_time: vec![NIL; netlist.net_count()],
            netlist: netlist.clone(),
        })
    }

    /// The current value of a net.
    pub fn value(&self, net: NetId) -> L {
        self.value[net]
    }

    /// Current values of all nets, indexed by [`NetId`].
    pub fn values(&self) -> &[L] {
        &self.value
    }

    /// Simulates one input vector to settlement.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary input count.
    pub fn simulate_vector(&mut self, inputs: &[L]) -> SimStats {
        assert_eq!(
            inputs.len(),
            self.netlist.primary_inputs().len(),
            "input vector length must match the primary input count"
        );
        let mut stats = SimStats::default();

        let primary_inputs: Vec<NetId> = self.netlist.primary_inputs().to_vec();
        for (&pi, &bit) in primary_inputs.iter().zip(inputs) {
            if self.value[pi] != bit {
                self.schedule(0, pi, bit);
            }
        }

        let mut time = 0u32;
        let mut remaining = self.count_scheduled();
        while remaining > 0 {
            let slot = (time as usize) % self.wheel.len();
            let mut head = std::mem::replace(&mut self.wheel[slot], NIL);
            while head != NIL {
                let index = head;
                let event = self.pool[head as usize].clone();
                self.release(head);
                head = event.next;
                remaining -= 1;
                // Clear the pending pointer only if it still refers to
                // THIS record: the net may already have a newer event
                // pending one time unit ahead (scheduled while an earlier
                // event in this same slot re-evaluated its driver), and
                // that bookkeeping must survive.
                if self.pending_event[event.net] == index {
                    self.pending_event[event.net] = NIL;
                    self.pending_time[event.net] = NIL;
                }
                if self.value[event.net] == event.value {
                    continue; // cancelled: no actual change
                }
                self.value[event.net] = event.value;
                stats.events += 1;
                stats.settle_time = time;
                // Per-pin activation: every fanout gate is evaluated for
                // every triggering event.
                let fanout: Vec<_> = self.netlist.fanout(event.net).to_vec();
                for gate in fanout {
                    let gate_ref = self.netlist.gate(gate);
                    let model = self.models[gate.index()];
                    let mut scratch = [L::initial(); 16];
                    let new_out = if gate_ref.inputs.len() <= scratch.len() {
                        for (slot, &input) in scratch.iter_mut().zip(&gate_ref.inputs) {
                            *slot = self.value[input];
                        }
                        model(&scratch[..gate_ref.inputs.len()])
                    } else {
                        let values: Vec<L> =
                            gate_ref.inputs.iter().map(|&n| self.value[n]).collect();
                        model(&values)
                    };
                    stats.gate_evaluations += 1;
                    let out = gate_ref.output;
                    // Overwrites and filtered no-changes leave `remaining`
                    // untouched; only fresh records add to it.
                    if self.schedule_or_cancel(time + 1, out, new_out) {
                        remaining += 1;
                    }
                }
            }
            time += 1;
        }
        stats
    }

    fn count_scheduled(&self) -> usize {
        let mut count = 0;
        for &head in &self.wheel {
            let mut cursor = head;
            while cursor != NIL {
                count += 1;
                cursor = self.pool[cursor as usize].next;
            }
        }
        count
    }

    /// Schedules `net := value` at `time`, allocating an event record.
    fn schedule(&mut self, time: u32, net: NetId, value: L) {
        let slot = (time as usize) % self.wheel.len();
        let index = self.allocate(Event {
            net,
            value,
            next: self.wheel[slot],
        });
        self.wheel[slot] = index;
        self.pending_event[net] = index;
        self.pending_time[net] = time;
        self.last_scheduled[net] = value;
    }

    /// Classic schedule-with-cancellation: if an event for `net` is
    /// already pending at `time`, overwrite its value in place (no new
    /// record); returns whether a new record was created.
    fn schedule_or_cancel(&mut self, time: u32, net: NetId, value: L) -> bool {
        if self.pending_time[net] == time {
            let index = self.pending_event[net];
            self.pool[index as usize].value = value;
            self.last_scheduled[net] = value;
            return false;
        }
        if value == self.last_scheduled[net] {
            // No change relative to the last scheduled value: filtered at
            // source, as conventional simulators do.
            return false;
        }
        self.schedule(time, net, value);
        true
    }

    fn allocate(&mut self, event: Event<L>) -> u32 {
        if self.free_head != NIL {
            let index = self.free_head;
            self.free_head = self.pool[index as usize].next;
            self.pool[index as usize] = event;
            index
        } else {
            let index = self.pool.len() as u32;
            self.pool.push(event);
            index
        }
    }

    fn release(&mut self, index: u32) {
        self.pool[index as usize].next = self.free_head;
        self.free_head = index;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventDrivenUnitDelay;
    use uds_netlist::generators::iscas::c17;
    use uds_netlist::Logic3;

    #[test]
    fn agrees_with_the_optimized_engine_exhaustively() {
        let nl = c17();
        let mut conventional = ConventionalEventDriven::<bool>::new(&nl).unwrap();
        let mut optimized = EventDrivenUnitDelay::<bool>::new(&nl).unwrap();
        for pattern in 0u32..32 {
            for follow_up in 0u32..32 {
                for p in [pattern, follow_up] {
                    let inputs: Vec<bool> = (0..5).map(|i| p >> i & 1 != 0).collect();
                    conventional.simulate_vector(&inputs);
                    optimized.simulate_vector(&inputs);
                    for net in nl.net_ids() {
                        assert_eq!(
                            conventional.value(net),
                            optimized.value(net),
                            "{net} after {pattern:05b}->{follow_up:05b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn three_valued_model_works() {
        let nl = c17();
        let mut sim = ConventionalEventDriven::<Logic3>::new(&nl).unwrap();
        let stats = sim.simulate_vector(&[Logic3::One; 5]);
        assert!(stats.events > 0);
        for &po in nl.primary_outputs() {
            assert_ne!(sim.value(po), Logic3::X, "resolved after full drive");
        }
    }

    #[test]
    fn per_pin_activation_costs_more_evaluations() {
        // On a gate whose inputs change together, the conventional engine
        // evaluates once per pin event; the optimized engine once.
        use uds_netlist::{GateKind, NetlistBuilder};
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let c = b.input("c");
        let x = b.gate(GateKind::Not, &[a], "x").unwrap();
        let y = b.gate(GateKind::Not, &[c], "y").unwrap();
        let z = b.gate(GateKind::And, &[x, y], "z").unwrap();
        b.output(z);
        let nl = b.finish().unwrap();
        let mut conventional = ConventionalEventDriven::<bool>::new(&nl).unwrap();
        let mut optimized = EventDrivenUnitDelay::<bool>::new(&nl).unwrap();
        let stats_c = conventional.simulate_vector(&[true, true]);
        let stats_o = optimized.simulate_vector(&[true, true]);
        assert!(stats_c.gate_evaluations > stats_o.gate_evaluations);
    }

    #[test]
    fn stable_vector_schedules_nothing() {
        let nl = c17();
        let mut sim = ConventionalEventDriven::<bool>::new(&nl).unwrap();
        sim.simulate_vector(&[true; 5]);
        let stats = sim.simulate_vector(&[true; 5]);
        assert_eq!(stats.events, 0);
        assert_eq!(stats.gate_evaluations, 0);
    }
}
