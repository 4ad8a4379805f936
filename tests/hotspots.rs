//! End-to-end and property coverage of the hot-path execution
//! profiler (`udsim hotspots`, `uds_core::hotspot`).
//!
//! Pins the contracts the tooling depends on: the folded output is
//! valid collapsed-stack format (every line `stack N` with `N > 0`),
//! `--json -` and `--folded -` cannot both claim stdout (exit 2 naming
//! both flags, the same StreamContract every `-` flag follows), the
//! per-level self-times sum to within 20% of the profiled simulate
//! span across engines × word widths × job counts, and the leveled
//! entry point is behaviorally identical to the plain one — profiling
//! changes where time is *attributed*, never what the circuit computes.

use std::path::PathBuf;
use std::process::Command;

use unit_delay_sim::core::telemetry::json::Json;
use unit_delay_sim::core::{
    compiler_available, hotspot, DefaultEngineFactory, Engine, GuardedSimulator, WordWidth,
};
use unit_delay_sim::netlist::generators::iscas::Iscas85;
use unit_delay_sim::netlist::{bench_format, ResourceLimits};
use unit_delay_sim::prelude::Netlist;

fn udsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_udsim"))
}

/// Writes the synthetic c432 stand-in as a `.bench` fixture.
fn c432_fixture(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir exists");
    let path = dir.join(name);
    std::fs::write(&path, bench_format::write(&Iscas85::C432.build())).expect("fixture written");
    path
}

/// A deterministic stimulus stream: `n` vectors of `width` bits.
fn patterns(n: usize, width: usize) -> Vec<Vec<bool>> {
    (0..n)
        .map(|i| {
            (0..width)
                .map(|b| (i.wrapping_mul(2_654_435_761) >> (b % 31)) & 1 != 0)
                .collect()
        })
        .collect()
}

fn guard_for(nl: &Netlist, engine: Engine, word: WordWidth) -> GuardedSimulator {
    GuardedSimulator::with_factory(
        nl,
        ResourceLimits::unlimited(),
        &[engine],
        Box::new(DefaultEngineFactory::with_word(word)),
    )
    .expect("engine compiles")
}

#[test]
fn json_and_folded_cannot_both_claim_stdout() {
    let bench = c432_fixture("hotspots_conflict.bench");
    let output = udsim()
        .args([
            "hotspots",
            bench.to_str().unwrap(),
            "--json",
            "-",
            "--folded",
            "-",
        ])
        .output()
        .expect("udsim runs");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--json"),
        "conflict must name --json: {stderr}"
    );
    assert!(
        stderr.contains("--folded"),
        "conflict must name --folded: {stderr}"
    );
}

#[test]
fn folded_output_is_valid_collapsed_stack_on_c432() {
    let bench = c432_fixture("hotspots_folded.bench");
    for engine in ["pc-set", "parallel+pt+trim"] {
        let output = udsim()
            .args([
                "hotspots",
                bench.to_str().unwrap(),
                "--engine",
                engine,
                "--vectors",
                "256",
                "--folded",
                "-",
            ])
            .output()
            .expect("udsim runs");
        assert!(output.status.success(), "{output:?}");
        let folded = String::from_utf8(output.stdout).expect("utf8 folded output");
        assert!(!folded.trim().is_empty(), "no folded lines for {engine}");
        for line in folded.lines() {
            let (stack, count) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("not `stack N`: {line:?}"));
            let frames: Vec<&str> = stack.split(';').collect();
            assert_eq!(frames.len(), 2, "{line:?}");
            assert_eq!(frames[0], engine, "{line:?}");
            assert!(frames[1].starts_with("level_"), "{line:?}");
            frames[1]["level_".len()..]
                .parse::<usize>()
                .unwrap_or_else(|_| panic!("level frame not numeric: {line:?}"));
            let n: u64 = count
                .parse()
                .unwrap_or_else(|_| panic!("count not numeric: {line:?}"));
            assert!(n > 0, "folded counts must be positive: {line:?}");
        }
    }
}

#[test]
fn cli_json_report_sums_within_20pct_of_span_on_c432() {
    let bench = c432_fixture("hotspots_json.bench");
    for engine in ["pc-set", "parallel+pt+trim"] {
        let output = udsim()
            .args([
                "hotspots",
                bench.to_str().unwrap(),
                "--engine",
                engine,
                "--vectors",
                "512",
                "--json",
                "-",
            ])
            .output()
            .expect("udsim runs");
        assert!(output.status.success(), "{output:?}");
        let doc = Json::parse(&String::from_utf8_lossy(&output.stdout)).expect("JSON parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("uds-hotspot-v1")
        );
        let span = doc.get("span_ns").and_then(Json::as_u64).expect("span_ns");
        let levels = doc.get("levels").and_then(Json::as_arr).expect("levels");
        let attributed: u64 = levels
            .iter()
            .filter_map(|l| l.get("self_ns").and_then(Json::as_u64))
            .sum();
        let totals = doc
            .get("totals")
            .and_then(|t| t.get("self_ns"))
            .and_then(Json::as_u64)
            .expect("totals.self_ns");
        assert_eq!(attributed, totals, "levels must sum to the totals line");
        assert!(
            attributed <= span,
            "{engine}: attributed {attributed} exceeds span {span}"
        );
        assert!(
            attributed as f64 >= span as f64 * 0.8,
            "{engine}: attributed {attributed} is below 80% of span {span}"
        );
    }
}

#[test]
fn self_times_sum_within_20pct_of_span_across_engines_words_jobs() {
    let nl = Iscas85::C432.build();
    let vectors = patterns(512, nl.primary_inputs().len());
    for engine in [
        Engine::PcSet,
        Engine::Parallel,
        Engine::ParallelPathTracingTrimming,
    ] {
        for word in [WordWidth::W32, WordWidth::W64] {
            for jobs in [1usize, 2] {
                let guard = guard_for(&nl, engine, word);
                let report =
                    hotspot::collect(&nl, &guard, &vectors, vectors.len(), jobs, word.bits())
                        .expect("collect succeeds");
                let attributed = report.measured.total_self_ns();
                let span = report.span_ns;
                assert!(span > 0, "{engine} word={word:?} jobs={jobs}");
                assert!(
                    attributed <= span,
                    "{engine} word={word:?} jobs={jobs}: {attributed} > {span}"
                );
                assert!(
                    attributed as f64 >= span as f64 * 0.8,
                    "{engine} word={word:?} jobs={jobs}: \
                     attributed {attributed} below 80% of span {span}"
                );
                assert_eq!(report.measured.vectors, vectors.len() as u64);
            }
        }
    }
}

#[test]
fn leveled_entry_point_matches_plain_simulation_exactly() {
    let nl = Iscas85::C432.build();
    let vectors = patterns(64, nl.primary_inputs().len());
    let outputs = nl.primary_outputs().to_vec();
    // The native engine's plain step is its compiled kernel and its
    // profiled step the interpreted twin: the pair must agree too.
    let native = compiler_available().then_some(Engine::Native);
    for engine in Engine::ALL.into_iter().chain(native) {
        for word in [WordWidth::W32, WordWidth::W64] {
            let mut plain = guard_for(&nl, engine, word);
            let mut leveled = guard_for(&nl, engine, word);
            let mut profile = unit_delay_sim::netlist::LevelProfile::default();
            for (index, vector) in vectors.iter().enumerate() {
                plain.simulate_vector(vector).expect("plain run");
                leveled
                    .simulate_vector_leveled(vector, &mut profile)
                    .expect("leveled run");
                for &po in &outputs {
                    assert_eq!(
                        plain.final_value(po),
                        leveled.final_value(po),
                        "{engine} {word:?} vector {index}: leveled final diverged"
                    );
                    assert_eq!(
                        plain.active_simulator().history(po),
                        leveled.active_simulator().history(po),
                        "{engine} {word:?} vector {index}: leveled history diverged"
                    );
                }
            }
            assert!(
                profile.total_self_ns() > 0,
                "{engine} {word:?}: the leveled run must attribute time"
            );
        }
    }
}
