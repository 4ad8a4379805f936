//! Common abstractions over the unit-delay simulators.
//!
//! The technique crates ([`uds_pcset`], [`uds_parallel`], the
//! [`uds_eventsim`] baselines) each expose their own compile/run API;
//! this crate ties them together for users who want to mix, compare or
//! validate them:
//!
//! * [`UnitDelaySimulator`] — one trait over every engine, plus one
//!   builder that turns any [`Engine`] into its compiled program:
//!   [`DefaultEngineFactory`] (word width and monitor choice as
//!   fields) through [`guard::EngineFactory::build`]. The free
//!   functions [`build_simulator`], [`build_simulator_with_word`],
//!   [`build_engine_with_limits_probed_word`] and [`build_native`] are
//!   thin calls into it, and every error is a [`SimError`];
//! * [`vectors`] — deterministic stimulus generators (random streams,
//!   walking ones, exhaustive);
//! * [`waveform`] — dense per-net time histories with edge/transition
//!   queries;
//! * [`hazard`] — static/dynamic hazard detection over unit-delay
//!   histories (the analysis §3 of the paper sketches for the parallel
//!   technique's bit-fields);
//! * [`crosscheck`] — the workspace's strongest invariant as a library
//!   function: run N engines in lockstep and demand identical waveforms;
//! * [`error`], [`guard`], [`chaos`] — the guarded execution layer: a
//!   unified failure taxonomy ([`SimError`]), budget-enforced and
//!   panic-contained engine construction with graceful degradation
//!   ([`GuardedSimulator`]), and deterministic fault injection for
//!   proving no failure is ever silent;
//! * [`telemetry`] — the observability layer: hierarchical spans,
//!   counters/gauges holding the paper's static compile metrics, and a
//!   schema-stable JSON report (`--stats` in the CLI), with a Chrome
//!   `trace_event` timeline exporter ([`telemetry::trace`]);
//! * [`activity`], [`progress`], [`stream`] — runtime observability:
//!   word-parallel toggle profiling (`udsim profile`), live batch
//!   heartbeats (`--progress`), and the shared stdout contract every
//!   `-` stream flag obeys;
//! * [`http`], [`cache`], [`serve`], [`loadgen`] — the service layer:
//!   a dependency-free HTTP/1.1 core with keep-alive, an observable
//!   LRU of compiled engine prototypes, the `udsim serve` daemon (a
//!   bounded worker pool with admission control, per-request
//!   deadlines via [`cancel`], and an async job API) exposing
//!   simulation over `POST /simulate` with Prometheus `/metrics`
//!   (rendered by [`telemetry::prom`]), health probes, and structured
//!   request logs — plus the `udsim loadgen` client fleet that proves
//!   the overload behavior;
//! * [`perf`] — machine calibration: the ALU/memory microbenchmark
//!   fingerprint stamped into `BENCH_*.json` baselines (normalizing
//!   `tables compare` across hosts) and the `uds_perf_class` gauge
//!   family the daemon self-reports at startup.
//!
//! # Example
//!
//! ```
//! use uds_core::{build_simulator, Engine, UnitDelaySimulator};
//! use uds_core::vectors::RandomVectors;
//! use uds_netlist::generators::iscas::c17;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = c17();
//! let mut sim = build_simulator(&nl, Engine::ParallelPathTracingTrimming)?;
//! for vector in RandomVectors::new(nl.primary_inputs().len(), 42).take(100) {
//!     sim.simulate_vector(&vector);
//! }
//! let out = nl.primary_outputs()[0];
//! println!("{}", sim.final_value(out));
//! # Ok(())
//! # }
//! ```

pub mod activity;
pub mod batch;
pub mod cache;
pub mod cancel;
pub mod chaos;
pub mod crosscheck;
pub mod error;
pub mod guard;
pub mod hazard;
pub mod hotspot;
pub mod http;
pub mod loadgen;
pub mod native;
pub mod perf;
pub mod progress;
pub mod sequential;
pub mod serve;
mod simulator;
pub mod stream;
pub mod telemetry;
pub mod vcd;
pub mod vectors;
mod wake;
pub mod waveform;

pub use activity::{ActivityProfiler, ActivityReport, ACTIVITY_SCHEMA};
pub use batch::{
    discard, run_batch, run_stream, BatchOutput, RunControl, Shard, ShardReport, Step, MAX_JOBS,
    WINDOW,
};
pub use cache::{netlist_hash, CacheKey, EngineCache};
pub use cancel::{CancelCause, CancelToken};
pub use error::{FailureClass, SimError, SimErrorKind, SimPhase};
pub use guard::{chain_for, chain_preferring, DefaultEngineFactory, GuardedSimulator};
pub use hotspot::{
    HotspotReport, HotspotRing, HotspotSample, HotspotWindow, LeveledStep, HOTSPOT_SCHEMA,
};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport, LOADGEN_SCHEMA};
pub use native::{build_native, compiler_available};
pub use perf::{calibrate, measure_perf, record_perf_class, Calibration, PerfClass, PerfReport};
pub use progress::{BatchProbe, Heartbeat, NdjsonProgress, PROGRESS_SCHEMA};
pub use serve::{
    install_signal_handlers, ServeConfig, ShutdownHandle, SimServer, JOB_SCHEMA, REQLOG_SCHEMA,
    SERVE_SCHEMA,
};
pub use simulator::{
    build_engine_with_limits_probed_word, build_simulator, build_simulator_with_word, Engine,
    TracedEventSim, UnitDelaySimulator, WordWidth, BLOCK,
};
pub use stream::{is_closed_pipe, open_sink, write_text, HumanOut, StreamContract};
pub use telemetry::trace::{chrome_trace, render_chrome_trace};
pub use telemetry::{
    record_build_info, Histogram, SpanNode, Telemetry, TelemetryReport, BUILD_INFO_GAUGE,
};
