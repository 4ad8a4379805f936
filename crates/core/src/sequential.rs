//! Multi-cycle simulation of synchronous sequential circuits.
//!
//! §1 of the paper: cut every feedback cycle at a flip-flop
//! ([`uds_netlist::sequential::cut_flip_flops`]), simulate the acyclic
//! remainder with any compiled unit-delay engine, and feed each
//! flip-flop's `D` back into its `Q` between clock cycles.
//! [`SequentialSimulator`] packages that loop.

// SimError deliberately carries full context and only travels on cold
// failure paths; see guard.rs for the same trade.
#![allow(clippy::result_large_err)]

use uds_netlist::sequential::{cut_flip_flops, CutCircuit, CutError};
use uds_netlist::{LevelizeError, NetId, Netlist};

use crate::{build_simulator, Engine, SimError, UnitDelaySimulator};

/// Error from [`SequentialSimulator::new`].
#[derive(Debug)]
pub enum SequentialError {
    /// The flip-flop cut failed (malformed netlist).
    Cut(CutError),
    /// The cut circuit could not be compiled.
    Build(SimError),
    /// The netlist is combinationally cyclic even after cutting.
    Levelize(LevelizeError),
}

impl std::fmt::Display for SequentialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SequentialError::Cut(e) => write!(f, "{e}"),
            SequentialError::Build(e) => write!(f, "{e}"),
            SequentialError::Levelize(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SequentialError {}

/// A clocked simulator for synchronous sequential circuits, built on any
/// compiled combinational engine.
///
/// # Example
///
/// ```
/// use uds_core::sequential::SequentialSimulator;
/// use uds_core::Engine;
/// use uds_netlist::{NetlistBuilder, GateKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A toggle flip-flop: q' = q XOR en.
/// let mut b = NetlistBuilder::named("toggle");
/// let en = b.input("en");
/// let q = b.get_or_create_net("q");
/// let d = b.gate(GateKind::Xor, &[en, q], "d")?;
/// b.gate_onto(GateKind::Dff, &[d], q)?;
/// b.output(q);
/// let nl = b.finish()?;
///
/// let mut sim = SequentialSimulator::new(&nl, Engine::ParallelPathTracingTrimming)?;
/// assert_eq!(sim.output_bit(q), false);
/// sim.clock(&[true]); // toggle
/// assert_eq!(sim.output_bit(q), true);
/// sim.clock(&[false]); // hold
/// assert_eq!(sim.output_bit(q), true);
/// sim.clock(&[true]); // toggle back
/// assert_eq!(sim.output_bit(q), false);
/// # Ok(())
/// # }
/// ```
pub struct SequentialSimulator {
    cut: CutCircuit,
    engine: Box<dyn UnitDelaySimulator>,
    state: Vec<bool>,
    original_inputs: usize,
}

impl SequentialSimulator {
    /// Cuts `netlist` at its flip-flops and compiles the remainder with
    /// `engine`. All state bits start at 0.
    ///
    /// # Errors
    ///
    /// Returns [`SequentialError`] if the cut or compilation fails (e.g.
    /// a combinational cycle not broken by any flip-flop).
    pub fn new(netlist: &Netlist, engine: Engine) -> Result<Self, SequentialError> {
        let cut = cut_flip_flops(netlist).map_err(SequentialError::Cut)?;
        let compiled =
            build_simulator(&cut.combinational, engine).map_err(SequentialError::Build)?;
        let state = vec![false; cut.state_bits()];
        Ok(SequentialSimulator {
            original_inputs: netlist.primary_inputs().len(),
            cut,
            engine: compiled,
            state,
        })
    }

    /// Number of flip-flops.
    pub fn state_bits(&self) -> usize {
        self.cut.state.len()
    }

    /// The current state vector (one bit per cut flip-flop, in cut
    /// order).
    pub fn state(&self) -> &[bool] {
        &self.state
    }

    /// Forces the state (e.g. to apply a reset value).
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from [`Self::state_bits`].
    pub fn set_state(&mut self, state: &[bool]) {
        assert_eq!(
            state.len(),
            self.state.len(),
            "state width must match the flip-flop count"
        );
        self.state.copy_from_slice(state);
    }

    /// Advances one clock cycle: applies `inputs` (the original
    /// netlist's primary inputs) together with the current state,
    /// simulates the combinational logic to settlement, and latches
    /// every flip-flop's `D` into its `Q`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the original primary-input
    /// count.
    pub fn clock(&mut self, inputs: &[bool]) {
        assert_eq!(
            inputs.len(),
            self.original_inputs,
            "input vector length must match the primary input count"
        );
        let mut full = Vec::with_capacity(inputs.len() + self.state.len());
        full.extend_from_slice(inputs);
        full.extend_from_slice(&self.state);
        self.engine.simulate_vector(&full);
        for (slot, element) in self.state.iter_mut().zip(&self.cut.state) {
            *slot = self.engine.final_value(element.d);
        }
    }

    /// The settled value of any net of the cut circuit after the last
    /// clock cycle (for flip-flop outputs this is the value *during*
    /// that cycle; the newly latched value is in [`Self::state`]).
    pub fn output_bit(&self, net: NetId) -> bool {
        // For flip-flop outputs, report the freshly latched state.
        if let Some(position) = self.cut.state.iter().position(|e| e.q == net) {
            return self.state[position];
        }
        self.engine.final_value(net)
    }

    /// The cut bookkeeping (flip-flop d/q pairs, the combinational
    /// netlist).
    pub fn cut(&self) -> &CutCircuit {
        &self.cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uds_netlist::{GateKind, NetlistBuilder};

    /// A 3-bit ripple-ish counter built from toggle flip-flops.
    fn counter3() -> (Netlist, Vec<NetId>) {
        let mut b = NetlistBuilder::named("ctr3");
        let en = b.input("en");
        let q: Vec<NetId> = (0..3)
            .map(|i| b.get_or_create_net(&format!("q{i}")))
            .collect();
        let mut carry = en;
        for (i, &qi) in q.iter().enumerate() {
            let d = b
                .gate(GateKind::Xor, &[qi, carry], format!("d{i}"))
                .unwrap();
            b.gate_onto(GateKind::Dff, &[d], qi).unwrap();
            if i < 2 {
                carry = b
                    .gate(GateKind::And, &[qi, carry], format!("c{i}"))
                    .unwrap();
            }
            b.output(qi);
        }
        (b.finish().unwrap(), q)
    }

    #[test]
    fn counter_counts_on_every_engine() {
        let (nl, q) = counter3();
        for engine in [
            Engine::PcSet,
            Engine::Parallel,
            Engine::ParallelPathTracingTrimming,
        ] {
            let mut sim = SequentialSimulator::new(&nl, engine).unwrap();
            for expected in 1..=10u32 {
                sim.clock(&[true]);
                let count: u32 = q
                    .iter()
                    .enumerate()
                    .map(|(i, &net)| (sim.output_bit(net) as u32) << i)
                    .sum();
                assert_eq!(count, expected % 8, "{engine} at cycle {expected}");
            }
        }
    }

    #[test]
    fn disabled_counter_holds() {
        let (nl, q) = counter3();
        let mut sim = SequentialSimulator::new(&nl, Engine::PcSet).unwrap();
        sim.clock(&[true]);
        sim.clock(&[false]);
        sim.clock(&[false]);
        let count: u32 = q
            .iter()
            .enumerate()
            .map(|(i, &net)| (sim.output_bit(net) as u32) << i)
            .sum();
        assert_eq!(count, 1);
    }

    #[test]
    fn set_state_applies_reset_values() {
        let (nl, q) = counter3();
        let mut sim = SequentialSimulator::new(&nl, Engine::Parallel).unwrap();
        sim.set_state(&[true, false, true]); // 5
        sim.clock(&[true]);
        let count: u32 = q
            .iter()
            .enumerate()
            .map(|(i, &net)| (sim.output_bit(net) as u32) << i)
            .sum();
        assert_eq!(count, 6);
    }

    #[test]
    fn combinational_netlist_has_no_state() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let y = b.gate(GateKind::Not, &[a], "y").unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        let mut sim = SequentialSimulator::new(&nl, Engine::PcSet).unwrap();
        assert_eq!(sim.state_bits(), 0);
        sim.clock(&[true]);
        assert!(!sim.output_bit(y));
    }
}
