//! Gate-level netlist substrate for unit-delay compiled simulation.
//!
//! This crate provides everything the simulation techniques of
//! Maurer's *"Two New Techniques for Unit-Delay Compiled Simulation"*
//! (DAC 1990) need from a circuit representation:
//!
//! * a compact arena-based [`Netlist`] with typed [`NetId`]/[`GateId`]
//!   handles and a [`NetlistBuilder`] for programmatic construction;
//! * the ISCAS-85 `.bench` text format ([`bench_format`]), reader and
//!   writer, including `DFF` for sequential circuits;
//! * [`levelize`](mod@levelize): the levelization / minlevel worklist algorithm that both
//!   the PC-set method and the parallel technique are built on;
//! * structural [`generators`] (adders, an array multiplier, parity and mux
//!   trees, decoders, comparators, an ALU slice, random layered DAGs) and an
//!   ISCAS-85-like benchmark suite calibrated to the statistics the paper
//!   reports;
//! * [`sequential`]: cutting synchronous circuits at their flip-flops so the
//!   acyclic techniques apply (§1 of the paper);
//! * [`validate`]: structural checks with typed errors, and [`stats`] for
//!   circuit statistics;
//! * [`c_emit`]: the C naming layer both techniques' code emitters share.
//!
//! # Example
//!
//! Build the two-gate network of the paper's Fig. 1 and levelize it:
//!
//! ```
//! use uds_netlist::{NetlistBuilder, GateKind, levelize};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new();
//! let a = b.input("A");
//! let bn = b.input("B");
//! let c = b.input("C");
//! let d = b.gate(GateKind::And, &[a, bn], "D")?;
//! let e = b.gate(GateKind::And, &[c, d], "E")?;
//! b.output(e);
//! let netlist = b.finish()?;
//!
//! let levels = levelize(&netlist)?;
//! assert_eq!(levels.net_level[d], 1);
//! assert_eq!(levels.net_level[e], 2);
//! assert_eq!(levels.depth, 2);
//! # Ok(())
//! # }
//! ```

pub mod bench_format;
mod builder;
pub mod c_emit;
pub mod cone;
mod gate;
pub mod generators;
mod ids;
pub mod levelize;
pub mod levelprof;
pub mod limits;
mod netlist;
pub mod probe;
pub mod sequential;
pub mod stats;
#[cfg(test)]
pub(crate) mod test_oracle;
pub mod validate;

pub use builder::{BuildError, NetlistBuilder};
pub use gate::{settle, sweep_gates, GateKind, Logic3, ParseGateKindError};
pub use ids::{GateId, NetId};
pub use levelize::{levelize, LevelizeError, Levels};
pub use levelprof::{
    static_profile, LevelCost, LevelProfile, LevelSegment, LevelSink, LevelTimer, SegmentBuilder,
    Unprofiled,
};
pub use limits::{LimitExceeded, Resource, ResourceLimits};
pub use netlist::{Gate, Netlist};
pub use probe::{NoopProbe, Probe, ProbeSpan};
