//! C code emission for the parallel technique — the output format of the
//! paper's Figs. 6, 8, and 18.
//!
//! The emitted translation unit declares one `word` static per arena
//! word plus the scratch words, and a `simulate_one_vector` function
//! whose statements correspond one-to-one to the compiled word ops, so
//! its line count tracks the generated-code-size comparison between the
//! techniques. The output is self-contained — every referenced
//! identifier is defined in the same translation unit — so `cc` can
//! compile it directly.
//!
//! [`emit_native`] is the native engine's variant: the same statement
//! body, but every arena word is a macro over a caller-owned arena
//! (`#define D uds_a[3]`) instead of a static, so the compiled kernel
//! holds no state of its own, and the body is cut into level-range
//! part functions, grouped into a few translation units, that `cc`
//! compiles quickly. The naming layer around
//! the body is [`uds_netlist::c_emit`], shared with the PC-set emitter.

use std::collections::HashSet;
use std::fmt::Write as _;

pub use uds_netlist::c_emit::EmitError;
use uds_netlist::c_emit::{claim, gate_expression, sanitize, Kernel, NativeSource};
use uds_netlist::Netlist;

use crate::program::{FieldShift, WOp};
use crate::word::Word;
use crate::ParallelSim;

/// Emits the compiled program as a C translation unit. The `word`
/// typedef and shift-merge carry counts follow the simulator's word
/// width (`uint32_t` / `uint64_t`).
///
/// # Errors
///
/// Returns [`EmitError`] when `simulator` was not compiled from
/// `netlist` (net or primary-input counts disagree).
pub fn emit<W: Word>(netlist: &Netlist, simulator: &ParallelSim<W>) -> Result<String, EmitError> {
    Ok(kernel(netlist, simulator, false)?.close())
}

/// Like [`emit`], but as a stateless kernel over memory the caller
/// owns: `void simulate_one_vector(word *uds_a, const word *pi)`, where
/// `uds_a` is the simulator's arena in arena-index order and each named
/// word is `#define <name> uds_a[<slot>]`. The statement body is the
/// same text [`emit`] produces, cut at level-segment ends into hidden
/// parts that the entry calls in order, and the parts grouped into
/// translation units ([`NativeSource`]); no statics are declared, so
/// concurrent calls on distinct arenas never share state.
///
/// # Errors
///
/// As [`emit`].
pub fn emit_native<W: Word>(
    netlist: &Netlist,
    simulator: &ParallelSim<W>,
) -> Result<NativeSource, EmitError> {
    Ok(kernel(netlist, simulator, true)?.close_native(simulator.level_segments()))
}

/// Number of lines [`emit`] produces.
///
/// # Errors
///
/// Returns [`EmitError`] when `simulator` was not compiled from
/// `netlist`.
pub fn line_count<W: Word>(
    netlist: &Netlist,
    simulator: &ParallelSim<W>,
) -> Result<usize, EmitError> {
    Ok(emit(netlist, simulator)?.lines().count())
}

/// The translation unit up to the end of the kernel's statement body:
/// one run of statements per compiled word op.
fn kernel<W: Word>(
    netlist: &Netlist,
    simulator: &ParallelSim<W>,
    native: bool,
) -> Result<Kernel, EmitError> {
    let program = simulator.program();
    EmitError::check(netlist, simulator.layout_count(), program.input_count)?;
    // Name every arena word: field words get net-derived names,
    // scratch words get t<k>. Every generated name (stem, dedup alias
    // and per-word `{stem}_w{w}`) is claimed before use, so no two arena
    // words share a C variable — in the native kernel two `#define`s of
    // one name would otherwise make two nets share a slot silently.
    let mut names: Vec<String> = (0..program.arena_words).map(|w| format!("t{w}")).collect();
    // Reserve the generic scratch names so a net literally named `t5`
    // dedups instead of aliasing scratch word 5.
    let mut used: HashSet<String> = names.iter().cloned().collect();
    for net in netlist.net_ids() {
        let layout = simulator.field_layout(net);
        let stem = claim(&mut used, sanitize(netlist.net_name(net)));
        for w in 0..layout.words {
            names[(layout.base + w) as usize] = if layout.words == 1 {
                stem.clone()
            } else {
                claim(&mut used, format!("{stem}_w{w}"))
            };
        }
    }

    let b = W::BITS;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "/* parallel-technique unit-delay simulation of `{}` ({}) */",
        netlist.name(),
        simulator.optimization()
    );
    let _ = writeln!(out, "#include <stdint.h>");
    let _ = writeln!(out, "typedef {} word;", W::C_TYPE);
    // Initializers reproduce the simulator's consistent power-up state
    // (every field filled with the value the circuit settles to under
    // all-zero inputs), so the first vector's retained bits are right.
    let set = simulator.initial_arena().iter().map(|&w| w != W::ZERO);
    let mut kernel = Kernel::open(out, &names, set, native, "const word *pi");
    for op in &program.ops {
        let out = kernel.op();
        match *op {
            WOp::MergeShl1Low { dst, src } => {
                let _ = writeln!(
                    out,
                    "    {} |= {} << 1;",
                    names[dst as usize], names[src as usize]
                );
            }
            WOp::MergeShl1 { dst, src, carry } => {
                let _ = writeln!(
                    out,
                    "    {} |= ({} << 1) | ({} >> {});",
                    names[dst as usize],
                    names[src as usize],
                    names[carry as usize],
                    b - 1
                );
            }
            WOp::BroadcastBit { dst, src, bit } => {
                let _ = writeln!(
                    out,
                    "    {} = (word)0 - ({} >> {bit} & 1);",
                    names[dst as usize], names[src as usize]
                );
            }
            WOp::ExtractBit { dst, src, bit } => {
                let _ = writeln!(
                    out,
                    "    {} = {} >> {bit} & 1;",
                    names[dst as usize], names[src as usize]
                );
            }
            WOp::Zero { dst } => {
                let _ = writeln!(out, "    {} = 0;", names[dst as usize]);
            }
            WOp::InputBroadcast { dst, words, index } => {
                for w in 0..u32::from(words) {
                    let _ = writeln!(
                        out,
                        "    {} = (word)0 - pi[{index}];",
                        names[(dst + w) as usize]
                    );
                }
            }
            WOp::InputAligned {
                dst,
                words,
                neg_bits,
                index,
            } => {
                // The low `neg_bits` bits keep the previous input value
                // (read before any word is overwritten); all other bits
                // get the new one. Word counts and split masks are
                // compile-time constants, so the load unrolls into
                // straight-line statements.
                let neg = u32::from(neg_bits);
                if neg == 0 {
                    // No negative times: degenerates to a broadcast.
                    for w in 0..u32::from(words) {
                        let _ = writeln!(
                            out,
                            "    {} = (word)0 - pi[{index}];",
                            names[(dst + w) as usize]
                        );
                    }
                    continue;
                }
                let prev_word = names[(dst + neg / b) as usize].clone();
                let _ = writeln!(
                    out,
                    "    {{ /* input {index}: {neg_bits} previous-value bit(s) */"
                );
                let _ = writeln!(
                    out,
                    "        const word uds_p = (word)0 - ({prev_word} >> {} & (word)1);",
                    neg % b
                );
                let _ = writeln!(out, "        const word uds_n = (word)0 - pi[{index}];");
                for w in 0..u32::from(words) {
                    let name = &names[(dst + w) as usize];
                    let low = w * b;
                    if neg >= low + b {
                        let _ = writeln!(out, "        {name} = uds_p;");
                    } else if neg <= low {
                        let _ = writeln!(out, "        {name} = uds_n;");
                    } else {
                        let mask = mask_literal(neg - low);
                        let _ = writeln!(
                            out,
                            "        {name} = (uds_p & {mask}) | (uds_n & ~{mask});"
                        );
                    }
                }
                let _ = writeln!(out, "    }}");
            }
            WOp::ShiftField { .. } | WOp::ShiftRight { .. } => {
                // Materialize a shifted presentation of a field
                // (Fig. 18). Bottom/top fills and the funnel offsets are
                // compile-time constants; source and destination never
                // overlap, so the per-word funnel unrolls directly. Both
                // ops emit this one text: the executor's decode is not
                // the C compiler's business.
                let FieldShift {
                    dst,
                    dst_words,
                    src,
                    src_width,
                    shift,
                } = op.as_field_shift::<W>().expect("a shift op");
                let top_word = (src_width - 1) / b;
                // The bit of the top word that holds the field's top bit.
                let top_bit = (src_width - 1) % b;
                let offset = (-i64::from(shift)).rem_euclid(i64::from(b));
                let base = (-i64::from(shift) - offset) / i64::from(b);
                let src_at = |i: i64| -> String {
                    if i < 0 {
                        "uds_bf".to_owned()
                    } else if i as u32 > top_word {
                        "uds_tf".to_owned()
                    } else if i as u32 == top_word {
                        "uds_st".to_owned()
                    } else {
                        names[(src + i as u32) as usize].clone()
                    }
                };
                let raw_top = names[(src + top_word) as usize].clone();
                let _ = writeln!(out, "    {{ /* shifted field presentation ({shift:+}) */");
                let _ = writeln!(
                    out,
                    "        const word uds_bf = (word)0 - ({} & (word)1);",
                    names[src as usize]
                );
                let _ = writeln!(
                    out,
                    "        const word uds_tf = (word)0 - ({raw_top} >> {top_bit} & (word)1);"
                );
                if top_bit == b - 1 {
                    // Full top word: the sanitization mask is all ones.
                    let _ = writeln!(out, "        const word uds_st = {raw_top};");
                } else {
                    let mask = mask_literal(top_bit + 1);
                    let _ = writeln!(
                        out,
                        "        const word uds_st = ({raw_top} & {mask}) | (uds_tf & ~{mask});"
                    );
                }
                for w in 0..i64::from(dst_words) {
                    let dname = names[(dst + w as u32) as usize].clone();
                    if offset == 0 {
                        let _ = writeln!(out, "        {dname} = {};", src_at(base + w));
                    } else {
                        let _ = writeln!(
                            out,
                            "        {dname} = ({} >> {offset}) | ({} << {});",
                            src_at(base + w),
                            src_at(base + w + 1),
                            i64::from(b) - offset
                        );
                    }
                }
                let _ = writeln!(out, "    }}");
            }
            _ => {
                let (kind, dst, slots) = op
                    .as_gate(&program.operands)
                    .expect("every other op is a gate evaluation");
                let operands: Vec<&str> =
                    slots.iter().map(|&s| names[s as usize].as_str()).collect();
                let _ = writeln!(
                    out,
                    "    {} = {};",
                    names[dst as usize],
                    gate_expression(kind, &operands)
                );
            }
        }
    }
    Ok(kernel)
}

/// Low-mask constant with the bottom `k` bits set, as a C literal.
/// Emitted as a hex literal (never a shift expression) so mask
/// plumbing is not mistaken for a retained `<< 1` merge by code-size
/// accounting. `k` is always strictly between 0 and the word width.
fn mask_literal(k: u32) -> String {
    debug_assert!(k > 0 && k < 128);
    format!("(word)0x{:x}", (1u128 << k) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Optimization, ParallelSimulator, ParallelSimulator64};
    use uds_netlist::c_emit::PART_LINES;
    use uds_netlist::{GateKind, NetlistBuilder};

    fn fig6() -> Netlist {
        let mut b = NetlistBuilder::new();
        let a = b.input("A");
        let bn = b.input("B");
        let c = b.input("C");
        let d = b.gate(GateKind::And, &[a, bn], "D").unwrap();
        let e = b.gate(GateKind::And, &[d, c], "E").unwrap();
        b.output(e);
        b.finish().unwrap()
    }

    #[test]
    fn unoptimized_code_has_fig6_shape() {
        let nl = fig6();
        let sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        let code = emit(&nl, &sim).unwrap();
        // Fig. 6: initialization moves the final value into bit 0; each
        // gate is an AND followed by a shift-merge.
        assert!(
            code.contains("D = D >> 2 & 1;"),
            "expected extract-bit init:\n{code}"
        );
        assert!(code.contains("|="), "expected shift-merge:\n{code}");
        assert!(code.contains("A & B"), "{code}");
    }

    #[test]
    fn shift_eliminated_code_has_fig10_shape() {
        let nl = fig6();
        let sim = ParallelSimulator::compile(&nl, Optimization::PathTracing).unwrap();
        let code = emit(&nl, &sim).unwrap();
        // Fig. 10: no shifts at all, plain assignments.
        assert!(!code.contains("<< 1"), "{code}");
        assert!(!code.contains("shift_field"), "{code}");
        assert!(code.contains("D = A & B;"), "{code}");
        assert!(code.contains("E = D & C;"), "{code}");
    }

    #[test]
    fn dedup_chain_cannot_alias_nets() {
        // n.1 and n_1 sanitize identically; a third net literally named
        // n_1_d1 must not collide with the generated alias either.
        let mut b = NetlistBuilder::new();
        let a = b.input("n.1");
        let c = b.input("n_1");
        let d = b.input("n_1_d1");
        let y = b.gate(GateKind::And, &[a, c, d], "t0").unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        let sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        let code = emit(&nl, &sim).unwrap();
        let decls: Vec<&str> = code
            .lines()
            .filter(|l| l.starts_with("static word "))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for decl in &decls {
            assert!(seen.insert(*decl), "duplicate declaration {decl}:\n{code}");
        }
        // The net named like a scratch word got deduplicated too.
        assert!(code.contains("t0_d1"), "{code}");
    }

    /// `#define` names of a native kernel's arena words, in slot order.
    fn defines(code: &str) -> Vec<&str> {
        code.lines()
            .filter_map(|l| l.strip_prefix("#define "))
            .filter(|l| l.contains(" uds_a["))
            .map(|l| l.split(' ').next().unwrap())
            .collect()
    }

    /// The bodies of a native kernel's part functions, in definition
    /// order.
    fn part_bodies(code: &str) -> Vec<&str> {
        code.split("\nUDS_HIDDEN UDS_NOINLINE void uds_part")
            .skip(1)
            .map(|part| {
                let body = &part[part.find("\n{\n").unwrap() + 3..];
                &body[..body.find("\n}\n").unwrap() + 1]
            })
            .collect()
    }

    /// The statement body of a paper-form kernel.
    fn paper_body(code: &str) -> &str {
        &code[code.find("\n{\n").unwrap() + 3..code.len() - 2]
    }

    #[test]
    fn per_word_names_cannot_alias_literal_nets() {
        // Unoptimized 32-bit fields of a 40-deep chain span two words,
        // so net `x` owns `x_w0`/`x_w1`; nets literally named `x_w0`
        // (before and after `x`) and `x_d1` must not share its slots.
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
            .gate(GateKind::And, &[tail, early, late, alias], "y")
            .unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        let sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        assert_eq!(
            sim.field_layout(x).words,
            2,
            "the chain must span two words"
        );
        let code = emit_native(&nl, &sim).unwrap().text().to_owned();
        let names = defines(&code);
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate #define:\n{code}");
        let paper = emit(&nl, &sim).unwrap();
        let statics: std::collections::HashSet<&str> = paper
            .lines()
            .filter(|l| l.starts_with("static word "))
            .collect();
        assert_eq!(statics.len(), names.len(), "duplicate static:\n{paper}");
    }

    #[test]
    fn a_literal_net_claiming_an_alias_first_still_dedups() {
        // `n_1_d1` arrives before the nets whose dedup would produce it.
        let mut b = NetlistBuilder::new();
        let d = b.input("n_1_d1");
        let a = b.input("n.1");
        let c = b.input("n_1");
        let y = b.gate(GateKind::And, &[d, a, c], "y").unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        let sim = ParallelSimulator::compile(&nl, Optimization::PathTracing).unwrap();
        let code = emit_native(&nl, &sim).unwrap().text().to_owned();
        assert_eq!(&defines(&code)[..3], ["n_1_d1", "n_1", "n_1_d2"], "{code}");
    }

    #[test]
    fn reserved_names_cannot_shadow_emitted_identifiers() {
        // Nets named after C keywords or the emitter's own identifiers
        // must not produce uncompilable or shadowing declarations.
        let mut b = NetlistBuilder::new();
        let a = b.input("if");
        let c = b.input("word");
        let d = b.input("pi");
        let y = b.gate(GateKind::And, &[a, c, d], "int").unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        let sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        let code = emit(&nl, &sim).unwrap();
        for renamed in ["if_", "word_", "pi_", "int_"] {
            assert!(
                code.contains(&format!("static word {renamed} = ")),
                "expected {renamed}:\n{code}"
            );
        }
        for shadowed in [
            "static word if =",
            "static word word =",
            "static word pi =",
            "static word int =",
        ] {
            assert!(!code.contains(shadowed), "emitted `{shadowed}`:\n{code}");
        }
    }

    #[test]
    fn emit_rejects_a_mismatched_netlist() {
        let nl = fig6();
        let sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        let mut b = NetlistBuilder::new();
        let a = b.input("A");
        let y = b.gate(GateKind::Not, &[a], "Y").unwrap();
        b.output(y);
        let other = b.finish().unwrap();
        assert!(matches!(
            emit(&other, &sim),
            Err(EmitError::NetlistMismatch { .. })
        ));
        assert!(line_count(&other, &sim).is_err());
    }

    #[test]
    fn native_emit_runs_on_the_callers_arena() {
        let nl = fig6();
        let sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        let code = emit_native(&nl, &sim).unwrap().text().to_owned();
        assert!(
            code.ends_with(
                "void simulate_one_vector(word *uds_a, const word *pi)\n{\n    \
                 uds_part0(uds_a, pi);\n}\n"
            ),
            "{code}"
        );
        // Every arena word, scratch included, is a slot of the caller's
        // arena in arena-index order; the kernel keeps no state.
        for (slot, name) in ["A", "B", "C", "D", "E", "t5"].iter().enumerate() {
            assert!(
                code.contains(&format!("#define {name} uds_a[{slot}]\n")),
                "{name}:\n{code}"
            );
        }
        assert!(!code.contains("static word"), "{code}");
        assert!(!code.contains("uds_state_"), "{code}");
        assert!(!code.contains("uds_arena"), "{code}");
        // The statement body is the paper emitter's, text for text, in
        // the one part this small kernel needs.
        assert_eq!(part_bodies(&code), [paper_body(&emit(&nl, &sim).unwrap())]);
    }

    #[test]
    fn native_parts_regroup_the_paper_body_at_level_segment_ends() {
        // c1908's kernel spans many parts. They hold the paper body's
        // statements in its order, every cut falls on a level-segment
        // end, and only a part of one segment may exceed the budget.
        let nl = uds_netlist::generators::iscas::Iscas85::C1908.build();
        let pt_trim = Optimization::PathTracingTrimming;
        let sim32 = ParallelSimulator::compile(&nl, pt_trim).unwrap();
        let sim64 = ParallelSimulator64::compile(&nl, pt_trim).unwrap();
        check_parts(&nl, &sim32);
        check_parts(&nl, &sim64);
    }

    fn check_parts<W: Word>(nl: &Netlist, sim: &ParallelSim<W>) {
        let code = emit_native(nl, sim).unwrap().text().to_owned();
        let parts = part_bodies(&code);
        assert!(parts.len() > 1, "one part for c1908 at w{}", W::BITS);
        let calls: String = (0..parts.len())
            .map(|k| format!("    uds_part{k}(uds_a, pi);\n"))
            .collect();
        let entry =
            format!("void simulate_one_vector(word *uds_a, const word *pi)\n{{\n{calls}}}\n");
        assert!(
            code.ends_with(&entry),
            "the entry calls every part in order"
        );
        assert_eq!(parts.concat(), paper_body(&emit(nl, sim).unwrap()));
        let kernel = kernel(nl, sim, true).unwrap();
        let ends: Vec<usize> = sim
            .level_segments()
            .iter()
            .map(|segment| kernel.op_start(segment.end))
            .collect();
        let mut start = 0;
        for part in &parts {
            let end = start + part.len();
            assert!(ends.contains(&end), "a part ends mid-segment at byte {end}");
            let inner = ends.iter().filter(|&&e| start < e && e < end).count();
            assert!(
                part.lines().count() <= PART_LINES || inner == 0,
                "a part of {} lines spans several segments",
                part.lines().count()
            );
            start = end;
        }
    }

    #[test]
    fn paper_emit_is_unchanged() {
        // `emit` is the paper-faithful text behind `udsim codegen` and
        // the code-size tables: the native kernel's ABI must not move it
        // by a byte. The full text of Fig. 6, then an FNV-1a of c432's
        // emit at every optimization and width.
        let nl = fig6();
        let sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        assert_eq!(
            emit(&nl, &sim).unwrap(),
            "/* parallel-technique unit-delay simulation of `unnamed` (unoptimized) */
#include <stdint.h>
typedef uint32_t word;
static word A = 0;
static word B = 0;
static word C = 0;
static word D = 0;
static word E = 0;
static word t5 = 0;

void simulate_one_vector(const word *pi)
{
    A = (word)0 - pi[0];
    B = (word)0 - pi[1];
    C = (word)0 - pi[2];
    D = D >> 2 & 1;
    E = E >> 2 & 1;
    t5 = A & B;
    D |= t5 << 1;
    t5 = D & C;
    E |= t5 << 1;
}
"
        );
        let fnv = |text: String| {
            text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let nl = uds_netlist::generators::iscas::Iscas85::C432.build();
        for (optimization, w32, w64) in [
            (
                Optimization::None,
                0xdb9e_c62c_4d39_075d,
                0xe140_9e0a_e30b_6b04,
            ),
            (
                Optimization::Trimming,
                0x9002_7cde_dd12_e11c,
                0x8015_058e_c293_f019,
            ),
            (
                Optimization::PathTracing,
                0xfb48_a82a_e776_76f0,
                0xa096_e76d_206e_4732,
            ),
            (
                Optimization::PathTracingTrimming,
                0x9a38_a14c_085f_2594,
                0xcfcd_094b_78ae_c086,
            ),
            (
                Optimization::CycleBreaking,
                0x2987_1ef5_0d11_71a5,
                0x6682_7209_efe3_16d6,
            ),
            (
                Optimization::CycleBreakingTrimming,
                0xa985_22fb_2e92_9c61,
                0x7edf_dd74_2309_202a,
            ),
        ] {
            let sim32 = ParallelSimulator::compile(&nl, optimization).unwrap();
            let sim64 = ParallelSimulator64::compile(&nl, optimization).unwrap();
            assert_eq!(fnv(emit(&nl, &sim32).unwrap()), w32, "{optimization} w32");
            assert_eq!(fnv(emit(&nl, &sim64).unwrap()), w64, "{optimization} w64");
        }
    }

    #[test]
    fn native_kernel_text_is_pinned() {
        // The native kernel's text names its artifact and is `cc`'s
        // input, so it is pinned too: c432 pt+trim at both widths, and
        // c1908 pt+trim at 64 bits.
        let fnv = |text: String| {
            text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let nl = uds_netlist::generators::iscas::Iscas85::C432.build();
        let c1908 = uds_netlist::generators::iscas::Iscas85::C1908.build();
        let pt_trim = Optimization::PathTracingTrimming;
        for (netlist, bits, pinned) in [
            (&nl, 32, 0x590c_144e_d932_6106),
            (&nl, 64, 0xb430_cb3b_c37a_c0ca),
            (&c1908, 64, 0xcd27_935c_408b_8550),
        ] {
            let source = if bits == 32 {
                emit_native(
                    netlist,
                    &ParallelSimulator::compile(netlist, pt_trim).unwrap(),
                )
            } else {
                emit_native(
                    netlist,
                    &ParallelSimulator64::compile(netlist, pt_trim).unwrap(),
                )
            };
            assert_eq!(
                fnv(source.unwrap().text().to_owned()),
                pinned,
                "{} native w{bits}",
                netlist.name()
            );
        }
    }

    #[test]
    fn a_net_named_like_the_arena_parameter_is_renamed() {
        // `#define uds_a uds_a[0]` would make every arena access
        // recursive nonsense; the net must take a deduplicated name.
        let mut b = NetlistBuilder::new();
        let a = b.input("uds_a");
        let c = b.input("defined");
        let y = b.gate(GateKind::And, &[a, c], "y").unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        let sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        let code = emit_native(&nl, &sim).unwrap().text().to_owned();
        assert!(code.contains("#define uds_a_ uds_a[0]\n"), "{code}");
        assert!(code.contains("#define defined_ uds_a[1]\n"), "{code}");
        assert!(!code.contains("#define uds_a "), "{code}");
        assert!(code.contains(" = uds_a_ & defined_;"), "{code}");
    }

    #[test]
    fn aligned_ops_unroll_without_undefined_references() {
        // The shift-eliminated compiler's aligned loads and shifted
        // presentations must emit self-contained statements, not calls
        // to helper functions that exist nowhere.
        use uds_netlist::generators::iscas::Iscas85;
        let nl = Iscas85::C432.build();
        for optimization in [Optimization::PathTracing, Optimization::CycleBreaking] {
            let sim = ParallelSimulator::compile(&nl, optimization).unwrap();
            let code = emit(&nl, &sim).unwrap();
            assert!(
                !code.contains("load_aligned_input") && !code.contains("shift_field"),
                "undefined helper referenced ({optimization}):\n{}",
                &code[..code.len().min(2000)]
            );
        }
        // Non-vacuous: c432's retained shifts emit the funnel blocks.
        let sim = ParallelSimulator::compile(&nl, Optimization::PathTracing).unwrap();
        let code = emit(&nl, &sim).unwrap();
        assert!(code.contains("uds_"), "expected unrolled blocks:\n{code}");
    }

    #[test]
    fn declarations_carry_settled_initializers() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let y = b.gate(GateKind::Not, &[a], "y").unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        let sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        let code = emit(&nl, &sim).unwrap();
        // y settles to 1 under all-zero inputs: its field initializes to
        // all-ones so the first vector's retained bit 0 is correct.
        assert!(code.contains("static word y = ~(word)0;"), "{code}");
        assert!(code.contains("static word a = 0;"), "{code}");
    }

    #[test]
    fn emitted_word_type_follows_the_width() {
        let nl = fig6();
        let sim32 = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        let sim64 = ParallelSimulator64::compile(&nl, Optimization::None).unwrap();
        assert!(emit(&nl, &sim32)
            .unwrap()
            .contains("typedef uint32_t word;"));
        let code64 = emit(&nl, &sim64).unwrap();
        assert!(code64.contains("typedef uint64_t word;"), "{code64}");
        assert!(
            !code64.contains(">> 31"),
            "carry must use bit 63:\n{code64}"
        );
    }

    #[test]
    fn shift_statements_track_retained_shifts() {
        let nl = fig6();
        let unopt = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        let aligned = ParallelSimulator::compile(&nl, Optimization::PathTracing).unwrap();
        let shifts = |sim: &ParallelSimulator| emit(&nl, sim).unwrap().matches("<< 1").count();
        assert_eq!(shifts(&unopt), nl.gate_count());
        assert_eq!(shifts(&aligned), 0);
        assert!(line_count(&nl, &unopt).unwrap() > 0);
    }
}
