//! End-to-end proof that the emitted C actually compiles and runs: for
//! every native flavor (the PC-set method and each parallel
//! optimization level) at every arena word width, compile the emitted C
//! with the system C compiler, `dlopen` it, and cross-check its
//! waveforms vector by vector against the interpreted event-driven
//! baseline on the fixture circuits.
//!
//! The whole suite skips — with a visible notice on stderr — when no C
//! compiler is on `PATH` (`$UDS_CC` overrides the default `cc`), so
//! toolchain-free hosts stay green without silently losing coverage.

use std::path::Path;
use std::process::{Command, Output};
use std::sync::Once;

use unit_delay_sim::core::vectors::{Exhaustive, RandomVectors};
use unit_delay_sim::core::{build_native, compiler_available, crosscheck, WordWidth};
use unit_delay_sim::netlist::generators::adders::{ripple_carry_adder, AdderStyle};
use unit_delay_sim::netlist::generators::iscas::{c17, Iscas85};
use unit_delay_sim::netlist::generators::trees::mux_tree;
use unit_delay_sim::netlist::{NoopProbe, ResourceLimits};
use unit_delay_sim::parallel::codegen_c::emit_native;
use unit_delay_sim::parallel::ParallelSimulator64;
use unit_delay_sim::prelude::*;

/// Every engine flavor the native builder can compile to C. The
/// PC-set method's stream is always 64-bit, so it is paired only with
/// [`WordWidth::W64`]; each parallel level runs at both widths.
fn flavors() -> Vec<(Engine, Vec<WordWidth>)> {
    let both = vec![WordWidth::W32, WordWidth::W64];
    vec![
        (Engine::PcSet, vec![WordWidth::W64]),
        (Engine::Parallel, both.clone()),
        (Engine::ParallelTrimming, both.clone()),
        (Engine::ParallelPathTracing, both.clone()),
        (Engine::ParallelPathTracingTrimming, both.clone()),
        (Engine::ParallelCycleBreaking, both),
    ]
}

/// True (after printing the visible notice) when the suite cannot run
/// because the host has no C compiler. Otherwise points every build in
/// this binary at its own artifact cache, emptied once when the first
/// test gets here, so each `cargo test` compiles every kernel cold.
fn skip_without_compiler(test: &str) -> bool {
    static CACHE: Once = Once::new();
    CACHE.call_once(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("native-e2e-cache");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("UDS_NATIVE_CACHE", &dir);
    });
    if compiler_available() {
        return false;
    }
    eprintln!("SKIP {test}: no C compiler on PATH (set $UDS_CC to override) — native e2e not run");
    true
}

/// Cross-checks every flavor × width of `netlist` against the
/// interpreted event-driven baseline over `stimulus`.
fn check_all_flavors(netlist: &Netlist, stimulus: &[Vec<bool>]) {
    for (flavor, widths) in flavors() {
        for word in widths {
            let native = build_native(
                netlist,
                flavor,
                word,
                &ResourceLimits::unlimited(),
                &NoopProbe,
            )
            .unwrap_or_else(|e| panic!("{flavor} at w{} must build: {e}", word.bits()));
            assert_eq!(native.engine_name(), "native");
            let baseline = build_simulator(netlist, Engine::EventDriven).expect("baseline builds");
            let mut sims = vec![baseline, native];
            crosscheck::run(netlist, &mut sims, stimulus.iter().cloned()).unwrap_or_else(|e| {
                panic!(
                    "{flavor} at w{} diverged from the interpreter on {}: {e}",
                    word.bits(),
                    netlist.name()
                )
            });
        }
    }
}

#[test]
fn c17_exhaustive_every_flavor_and_width() {
    if skip_without_compiler("c17_exhaustive_every_flavor_and_width") {
        return;
    }
    let nl = c17();
    // Every consecutive pair of the 32 patterns, in both orders.
    let stimulus: Vec<Vec<bool>> = Exhaustive::new(5)
        .chain(Exhaustive::new(5).skip(1))
        .collect();
    check_all_flavors(&nl, &stimulus);
}

#[test]
fn generator_circuits_random_every_flavor_and_width() {
    if skip_without_compiler("generator_circuits_random_every_flavor_and_width") {
        return;
    }
    for nl in [
        ripple_carry_adder(6, AdderStyle::NativeXor).unwrap(),
        mux_tree(3).unwrap(),
    ] {
        let width = nl.primary_inputs().len();
        let stimulus: Vec<Vec<bool>> = RandomVectors::new(width, 0x17).take(24).collect();
        check_all_flavors(&nl, &stimulus);
    }
}

#[test]
fn c432_random_every_flavor_and_width() {
    if skip_without_compiler("c432_random_every_flavor_and_width") {
        return;
    }
    let nl = Iscas85::C432.build();
    let width = nl.primary_inputs().len();
    let stimulus: Vec<Vec<bool>> = RandomVectors::new(width, 1990).take(16).collect();
    check_all_flavors(&nl, &stimulus);
}

/// How many translation units the default native flavor (parallel
/// pt+trim) of `netlist` is cut into at `word`.
fn default_flavor_units(netlist: &Netlist, word: WordWidth) -> usize {
    let pt_trim = Optimization::PathTracingTrimming;
    let source = match word {
        WordWidth::W32 => emit_native(
            netlist,
            &ParallelSimulator::compile(netlist, pt_trim).unwrap(),
        ),
        WordWidth::W64 => emit_native(
            netlist,
            &ParallelSimulator64::compile(netlist, pt_trim).unwrap(),
        ),
    };
    source.unwrap().units().count()
}

/// Cross-checks the default native flavor (parallel pt+trim) of
/// `circuit` at both widths against the event-driven baseline, after
/// checking that its kernel is cut into `units` translation units.
fn check_default_flavor(circuit: Iscas85, seed: u64, units: usize) {
    let nl = circuit.build();
    let mut sims = vec![build_simulator(&nl, Engine::EventDriven).expect("baseline builds")];
    for word in [WordWidth::W32, WordWidth::W64] {
        assert_eq!(
            default_flavor_units(&nl, word),
            units,
            "{} at w{}",
            nl.name(),
            word.bits()
        );
        sims.push(
            build_native(
                &nl,
                Engine::ParallelPathTracingTrimming,
                word,
                &ResourceLimits::unlimited(),
                &NoopProbe,
            )
            .unwrap_or_else(|e| panic!("{} at w{} must build: {e}", nl.name(), word.bits())),
        );
    }
    let width = nl.primary_inputs().len();
    crosscheck::run(&nl, &mut sims, RandomVectors::new(width, seed).take(16)).unwrap();
}

#[test]
fn c432_default_flavor_is_one_unit_at_both_widths() {
    if skip_without_compiler("c432_default_flavor_is_one_unit_at_both_widths") {
        return;
    }
    // Small kernels stay one translation unit: splitting them would
    // only add `cc` start-ups.
    check_default_flavor(Iscas85::C432, 432, 1);
}

#[test]
fn c1908_default_flavor_at_both_widths() {
    if skip_without_compiler("c1908_default_flavor_at_both_widths") {
        return;
    }
    // Depth 40: 2-word fields at 32 bits, one word at the 64-bit
    // default; four translation units at either width.
    check_default_flavor(Iscas85::C1908, 1908, 4);
}

#[test]
fn c6288_default_flavor_at_both_widths() {
    if skip_without_compiler("c6288_default_flavor_at_both_widths") {
        return;
    }
    // The 16x16 multiplier: the deepest circuit and the largest kernel
    // of the suite, in over a hundred parts and four translation units
    // at either width.
    check_default_flavor(Iscas85::C6288, 6288, 4);
}

#[test]
fn nets_named_like_generated_words_keep_their_own_slots() {
    if skip_without_compiler("nets_named_like_generated_words_keep_their_own_slots") {
        return;
    }
    // A 40-deep chain makes 32-bit unoptimized fields span two words,
    // so net `x` owns the C names `x_w0`/`x_w1`; nets literally named
    // that (and like the dedup alias) must still get slots of their own.
    let mut b = NetlistBuilder::new();
    let early = b.input("x_w0");
    let x = b.input("x");
    let late = b.input("x_w1");
    let alias = b.input("x_w0_d1");
    let mut tail = x;
    for k in 0..40 {
        tail = b.gate(GateKind::Not, &[tail], format!("g{k}")).unwrap();
    }
    let y = b
        .gate(GateKind::Xor, &[tail, early, late, alias], "y")
        .unwrap();
    b.output(y);
    let nl = b.finish().unwrap();
    let stimulus: Vec<Vec<bool>> = RandomVectors::new(4, 0x40).take(24).collect();
    check_all_flavors(&nl, &stimulus);
}

#[test]
fn nets_named_like_kernel_parts_keep_their_own_slots() {
    if skip_without_compiler("nets_named_like_kernel_parts_keep_their_own_slots") {
        return;
    }
    // Nets named like the native kernel's part functions and their
    // attributes must be renamed: `#define uds_part0 uds_a[0]` would
    // turn the part's definition into nonsense. Sixty levels of a
    // four-wide XOR ladder give every flavor several parts.
    let mut b = NetlistBuilder::new();
    let hostile: Vec<NetId> = ["uds_part0", "uds_part1", "UDS_NOINLINE", "__noinline__"]
        .into_iter()
        .map(|name| b.input(name))
        .collect();
    let mut rung = hostile.clone();
    for level in 0..60 {
        rung = (0..4)
            .map(|j| {
                let pair = [rung[j], rung[(j + 1) % 4]];
                b.gate(GateKind::Xor, &pair, format!("g{level}_{j}"))
                    .unwrap()
            })
            .collect();
    }
    let y = b
        .gate(
            GateKind::And,
            &[rung[0], rung[1], hostile[2], hostile[3]],
            "y",
        )
        .unwrap();
    let hidden = b
        .gate(GateKind::Xor, &[rung[0], rung[3]], "UDS_HIDDEN")
        .unwrap();
    let visibility = b.gate(GateKind::Not, &[hidden], "__visibility__").unwrap();
    b.output(y);
    b.output(rung[2]);
    b.output(visibility);
    let nl = b.finish().unwrap();
    let stimulus: Vec<Vec<bool>> = RandomVectors::new(4, 0x9a).take(24).collect();
    check_all_flavors(&nl, &stimulus);
}

/// Runs `udsim simulate FILE --engine native --vectors N ARGS...` with
/// the artifact cache at `cache` and, when given, `$UDS_CC` at `cc`.
fn udsim_native(
    file: &str,
    vectors: &str,
    args: &[&str],
    cache: &Path,
    cc: Option<&Path>,
) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_udsim"));
    command
        .args(["simulate", file, "--engine", "native", "--vectors", vectors])
        .args(args)
        .env("UDS_NATIVE_CACHE", cache);
    if let Some(cc) = cc {
        command.env("UDS_CC", cc);
    }
    command.output().expect("udsim binary runs")
}

#[test]
fn cli_native_batch_crosschecks_on_c432() {
    if skip_without_compiler("cli_native_batch_crosschecks_on_c432") {
        return;
    }
    // Two shards run forks of one native engine concurrently on one
    // loaded object; every row they print must match the baseline.
    let cache = Path::new(env!("CARGO_TARGET_TMPDIR")).join("native-cli-cache");
    let c432 = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/c432.bench");
    let out = udsim_native(c432, "2000", &["--jobs", "2", "--crosscheck"], &cache, None);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(err.contains("on native"), "both shards run native: {err}");
    assert!(
        err.contains("cross-check: native agrees with the event-driven baseline over 2000 vectors"),
        "{err}"
    );
}

#[test]
fn cli_crosscheck_convicts_a_miscompiled_kernel_in_every_mode() {
    if skip_without_compiler("cli_crosscheck_convicts_a_miscompiled_kernel_in_every_mode") {
        return;
    }
    // A compiler that turns every NAND of c17's kernel into an AND: the
    // kernel builds, loads and runs, and only the cross-check can tell
    // its rows are wrong. Its artifact lands under the honest name, so
    // it gets a cache of its own.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("native-miscompile");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cc = dir.join("cc-nand-to-and.sh");
    let real_cc = std::env::var("UDS_CC").unwrap_or_else(|_| "cc".to_owned());
    std::fs::write(
        &cc,
        format!(
            "#!/bin/sh\nfor a in \"$@\"; do case \"$a\" in *.c) \
             sed 's/ = ~(/ = (/' \"$a\" > \"$a.bad\" && mv \"$a.bad\" \"$a\";; esac; done\n\
             exec {real_cc} \"$@\"\n"
        ),
    )
    .unwrap();
    use std::os::unix::fs::PermissionsExt as _;
    std::fs::set_permissions(&cc, std::fs::Permissions::from_mode(0o755)).unwrap();
    // A `udsim` another test forked while the script was open for
    // writing holds it until its own exec: wait that out (ETXTBSY).
    for _ in 0..100 {
        match Command::new(&cc).arg("--version").output() {
            Err(e) if e.raw_os_error() == Some(26) => {
                std::thread::sleep(std::time::Duration::from_millis(10))
            }
            _ => break,
        }
    }
    let cache = dir.join("cache");
    let c17 = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/c17.bench");
    let unchecked = udsim_native(c17, "64", &[], &cache, Some(&cc));
    let err = String::from_utf8_lossy(&unchecked.stderr);
    assert_eq!(unchecked.status.code(), Some(0), "{err}");
    assert!(
        err.contains("engine: native"),
        "the miscompiled kernel runs: {err}"
    );
    for jobs in [None, Some("2"), Some("3")] {
        let mut args = vec!["--crosscheck"];
        args.extend(jobs.iter().flat_map(|jobs| ["--jobs", *jobs]));
        let out = udsim_native(c17, "64", &args, &cache, Some(&cc));
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(7), "--jobs {jobs:?}: {err}");
        assert!(
            err.contains("native disagrees with event-driven"),
            "--jobs {jobs:?}: {err}"
        );
        assert!(!err.contains("cross-check:"), "--jobs {jobs:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
