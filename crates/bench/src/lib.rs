//! Benchmark harness for the paper's evaluation section (§5).
//!
//! Every table and figure of the evaluation is regenerated by the
//! `tables` binary:
//!
//! | Experiment | Paper | Regenerate with |
//! |---|---|---|
//! | Fig. 19 | technique comparison (seconds) | `tables fig19` |
//! | zero-delay aside | compiled ≈ 1/23 interpreted | `tables zero-delay` |
//! | Fig. 20 | bit-field trimming | `tables fig20` |
//! | Fig. 21 | retained shifts | `tables fig21` |
//! | Fig. 22 | bit-field widths | `tables fig22` |
//! | Fig. 23 | shift-elimination performance | `tables fig23` |
//! | Fig. 24 | shift elimination + trimming | `tables fig24` |
//!
//! Run the whole evaluation with
//! `cargo run --release -p uds-bench --bin tables -- all --vectors 5000`.
//! The two Criterion benches (`compile_time`, `ablation_streams`)
//! measure what no figure covers: compile cost and the PC-set method's
//! 64-stream mode.
//!
//! [`paper`] embeds the numbers the paper reports so the `tables` binary
//! can print paper-vs-measured side by side; [`runner`] holds the
//! measurement code shared by the binary and the Criterion benches;
//! [`compare`] is the regression gate behind `tables compare OLD NEW`,
//! matching cells across two `BENCH_*.json` documents and classifying
//! every throughput delta (DESIGN.md §16).

pub mod compare;
pub mod paper;
pub mod runner;
pub mod table;
