//! The **PC-set method** of unit-delay compiled simulation.
//!
//! Section 2 of Maurer's *"Two New Techniques for Unit-Delay Compiled
//! Simulation"* (DAC 1990). The key idea (Lemma 1 of the paper): *the
//! value of a net is permitted to change at time `t` if and only if there
//! is a path of length `t` between the net and the primary inputs*. The
//! set of such times is the net's **PC-set** (potential-change set).
//!
//! Given the PC-sets, a compiler generates one variable per (net, time)
//! pair and one straight-line gate evaluation per element of each gate's
//! PC-set — no event queue, no tests, no branches. Executing the program
//! once per input vector produces the complete unit-delay time history of
//! the vector.
//!
//! The pipeline:
//!
//! 1. [`PcSets::compute`] — the worklist algorithm of §2;
//! 2. [`zero_insert::insert_zeros`] — mark nets that must retain their
//!    previous-vector value and extend their PC-sets with element 0;
//! 3. [`PcSetSimulator::compile`] — allocate variables, generate the
//!    straight-line program, and execute it per vector;
//! 4. [`codegen_c::emit`] — the same program as compilable C text,
//!    exactly the code of the paper's Fig. 4.
//!
//! The executor is word-parallel: [`PcSetSimulator::simulate_block`]
//! runs up to 64 consecutive vectors per pass, vector `k` on bit `k` of
//! every word, which is the "bit-parallel simulation of multiple input
//! vectors" the paper notes the PC-set method is amenable to (its
//! advantage over the parallel technique).
//!
//! # Example
//!
//! ```
//! use uds_netlist::{NetlistBuilder, GateKind};
//! use uds_pcset::PcSetSimulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Fig. 4 network: D = A & B; E = D & C.
//! let mut b = NetlistBuilder::new();
//! let a = b.input("A");
//! let bn = b.input("B");
//! let c = b.input("C");
//! let d = b.gate(GateKind::And, &[a, bn], "D")?;
//! let e = b.gate(GateKind::And, &[d, c], "E")?;
//! b.output(e);
//! let nl = b.finish()?;
//!
//! let mut sim = PcSetSimulator::compile(&nl)?;
//! sim.simulate_vector(&[true, true, true]);
//! assert_eq!(sim.final_value(e), true);
//! // The full unit-delay history of E for this vector:
//! let history = sim.history(e).expect("E is monitored");
//! assert_eq!(history.len() as u32, sim.depth() + 1);
//! # Ok(())
//! # }
//! ```

pub mod codegen_c;
mod pcset;
mod program;
mod simulator;
pub mod zero_insert;

pub use pcset::{PcSet, PcSets};
pub use simulator::{CompileError, PcSetSimulator, ProgramStats};
