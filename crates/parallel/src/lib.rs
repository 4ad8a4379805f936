//! The **parallel technique** of unit-delay compiled simulation.
//!
//! Sections 3 and 4 of Maurer's *"Two New Techniques for Unit-Delay
//! Compiled Simulation"* (DAC 1990). Every net gets an *n*-bit field
//! (*n* = depth + 1), one bit per time unit, packed into 32-bit words.
//! A gate is simulated with one bit-parallel logic operation per word;
//! its unit delay is a one-bit left shift of the intermediate result
//! (Fig. 5). Executing the straight-line program once per input vector
//! computes the complete unit-delay time history of every net at once.
//!
//! Two optimizations from §4:
//!
//! * **bit-field trimming** ([`trimming`]) — skip the words of multi-word
//!   fields that carry no PC-set representatives (low-order constant
//!   words, gaps) and the corresponding parts of shift operations;
//! * **shift elimination** ([`path_tracing`], [`cycle_breaking`]) — give
//!   nets differing *alignments* so the per-gate shift disappears
//!   wherever the alignment conditions (1)–(4) of §4 can be enforced;
//!   retained shifts move to the gate inputs (Fig. 18).
//!
//! Entry point: [`ParallelSimulator::compile`] with an
//! [`Optimization`] level.
//!
//! # Example
//!
//! ```
//! use uds_netlist::{NetlistBuilder, GateKind};
//! use uds_parallel::{Optimization, ParallelSimulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Fig. 6's network: D = A & B; E = D & C.
//! let mut b = NetlistBuilder::new();
//! let a = b.input("A");
//! let bn = b.input("B");
//! let c = b.input("C");
//! let d = b.gate(GateKind::And, &[a, bn], "D")?;
//! let e = b.gate(GateKind::And, &[d, c], "E")?;
//! b.output(e);
//! let nl = b.finish()?;
//!
//! let mut sim = ParallelSimulator::compile(&nl, Optimization::None)?;
//! sim.simulate_vector(&[true, true, true]);
//! assert!(sim.final_value(e));
//! // The whole history arrived in one pass:
//! assert_eq!(sim.history(e), Some(vec![false, false, true]));
//! # Ok(())
//! # }
//! ```

mod alignment;
mod bitfield;
mod block;
pub mod codegen_c;
mod compile;
mod compile_aligned;
pub mod cycle_breaking;
pub mod path_tracing;
mod program;
#[cfg(test)]
mod shape_oracle;
mod simulator;
pub mod trimming;
pub mod undirected;
mod word;

pub use alignment::{Alignment, AlignmentStats, ShiftKind};
pub use bitfield::{FieldLayout, WORD_BITS};
pub use block::block_isa;
pub use simulator::{
    CompileError, Optimization, ParallelSim, ParallelSimulator, ParallelSimulator64, ProgramStats,
};
pub use word::Word;
