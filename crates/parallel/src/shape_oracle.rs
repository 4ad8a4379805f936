//! Bit-level oracle for every word-op shape the executor runs.
//!
//! Each shape runs alone on a random arena, at `u32` and `u64`, and every
//! bit of the arena afterwards is compared with a definition written bit
//! by bit — the gate's truth table ([`GateKind::eval_bits`]) at that bit
//! position, or, for a shifted presentation, source bit
//! `clamp(i - shift, 0, width - 1)` — never with the executor's own word
//! arithmetic. A fused gate's operand is that presentation too, fed to
//! the truth table. Words the op does not own must come back unchanged.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uds_netlist::generators::iscas::Iscas85;
use uds_netlist::generators::random::{layered, LayeredConfig};
use uds_netlist::GateKind;

use crate::block::LaneIsa;
use crate::program::{Fused, Operand, OperandPool, Program, WOp};
use crate::word::{Lanes, Word, LANES};
use crate::{Optimization, ParallelSim};

const ARENA_WORDS: usize = 16;

pub(crate) fn random_arena<W: Word>(rng: &mut StdRng, words: usize) -> Vec<W> {
    (0..words)
        .map(|_| {
            (0..W::BITS).fold(W::ZERO, |word, k| {
                if rng.gen() {
                    word | (W::ONE << k)
                } else {
                    word
                }
            })
        })
        .collect()
}

/// Bit `i` of the field whose word 0 is `arena[base]`.
fn field_bit<W: Word>(arena: &[W], base: usize, i: u32) -> bool {
    arena[base + (i / W::BITS) as usize].bit(i % W::BITS)
}

/// Runs `op` on a copy of `before` and checks every bit: `expected`
/// defines bit `i` of each word in `written`; every other word must be
/// unchanged. Returns the first bit that differs.
fn first_mismatch<W: Word>(
    op: &WOp,
    pool: OperandPool,
    before: &[W],
    written: std::ops::Range<usize>,
    expected: impl Fn(usize, u32) -> bool,
) -> Option<String> {
    let mut arena = before.to_vec();
    let program = Program {
        ops: vec![op.clone()],
        operands: pool,
        arena_words: arena.len(),
        ..Program::default()
    };
    program.run(&mut arena, &[], 0..1);
    for (w, word) in arena.iter().enumerate() {
        for i in 0..W::BITS {
            let want = if written.contains(&w) {
                expected(w, i)
            } else {
                before[w].bit(i)
            };
            if word.bit(i) != want {
                return Some(format!("{op:?} at {} bits: word {w}, bit {i}", W::BITS));
            }
        }
    }
    None
}

/// [`first_mismatch`], which must find none.
fn check_op<W: Word>(
    op: WOp,
    pool: OperandPool,
    before: &[W],
    written: std::ops::Range<usize>,
    expected: impl Fn(usize, u32) -> bool,
) {
    if let Some(mismatch) = first_mismatch(&op, pool, before, written, expected) {
        panic!("{mismatch}");
    }
}

/// A gate operand and, when it reads a one-word right-shift
/// presentation, that presentation's field width and right shift.
type Input = (Operand, Option<(u32, u32)>);

/// Bit `i` of `input` by definition: the source word's bit `i`, or for
/// a presentation of a `width`-bit field shifted right by `right`,
/// field bit `clamp(i + right, 0, width - 1)`.
fn input_bit<W: Word>(before: &[W], input: &Input, i: u32) -> bool {
    let (operand, presentation) = input;
    match *presentation {
        None => before[operand.slot as usize].bit(i),
        Some((width, right)) => {
            field_bit(before, operand.slot as usize, (i + right).min(width - 1))
        }
    }
}

/// A random operand slot, read through a random one-word right-shift
/// presentation when `shifted`.
fn random_input<W: Word>(rng: &mut StdRng, shifted: bool) -> Input {
    let slot = rng.gen_range(0..ARENA_WORDS as u32);
    if !shifted {
        return (Operand::plain(slot), None);
    }
    let width = rng.gen_range(2..=W::BITS);
    let right = rng.gen_range(1..width);
    let shift = Fused::of::<W>(width, -(right as i32), 1).expect("a one-word right shift fuses");
    (Operand { slot, shift }, Some((width, right)))
}

/// A `kind` gate over `fan_in` random operands, operand `k` read
/// through a presentation when `shifted(k)`.
fn check_gate<W: Word>(
    rng: &mut StdRng,
    kind: GateKind,
    fan_in: usize,
    shifted: impl Fn(usize) -> bool,
) {
    let before = random_arena::<W>(rng, ARENA_WORDS);
    // Operands may repeat and may include the destination: every read
    // happens before the write.
    let inputs: Vec<Input> = (0..fan_in)
        .map(|k| random_input::<W>(rng, shifted(k)))
        .collect();
    let operands: Vec<Operand> = inputs.iter().map(|input| input.0).collect();
    let dst = rng.gen_range(0..ARENA_WORDS as u32);
    // A pool that already holds other gates' operands.
    let mut pool = OperandPool {
        plain: vec![3, 1, 4],
        fused: vec![Operand::plain(5)],
    };
    let op = WOp::gate(kind, dst, &operands, &mut pool).unwrap();
    let pooled = matches!(op, WOp::Eval { .. } | WOp::FusedEval { .. });
    assert_eq!(
        pooled,
        !(1..=2).contains(&fan_in),
        "{kind} with {fan_in} inputs became {op:?}"
    );
    let any_shifted = inputs.iter().any(|input| input.1.is_some());
    assert_eq!(op.fused_presentations(&pool) > 0, any_shifted, "{op:?}");
    assert_eq!(op.as_gate(&pool), Some((kind, dst, operands)));
    check_op(op, pool, &before, dst as usize..dst as usize + 1, |_, i| {
        let bits: Vec<bool> = inputs
            .iter()
            .map(|input| input_bit(&before, input, i))
            .collect();
        kind.eval_bits(&bits)
    });
}

fn check_shift<W: Word>(rng: &mut StdRng, dst_words: u32, src_width: u32, shift: i32) {
    // One guard word below the source and one between source and
    // destination: neither may be read into the result or written.
    let src = 1usize;
    let dst = src + src_width.div_ceil(W::BITS) as usize + 1;
    let before = random_arena::<W>(rng, dst + dst_words as usize + 1);
    // The op the compilers emit (decoded where the shape allows) and
    // the general funnel, which the decoded shapes would otherwise
    // never exercise.
    let ops = [
        WOp::shift_field::<W>(dst as u32, dst_words, src as u32, src_width, shift).unwrap(),
        WOp::funnel_field::<W>(dst as u32, dst_words, src as u32, src_width, shift).unwrap(),
    ];
    for op in ops {
        check_op(
            op,
            OperandPool::default(),
            &before,
            dst..dst + dst_words as usize,
            |w, i| {
                let presented = ((w - dst) as u32 * W::BITS + i) as i64;
                let source = (presented - i64::from(shift)).clamp(0, i64::from(src_width) - 1);
                field_bit(&before, src, source as u32)
            },
        );
    }
}

fn check_every_shape<W: Word>(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let b = W::BITS as i32;
    for kind in [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ] {
        for fan_in in 2..=6 {
            check_gate::<W>(&mut rng, kind, fan_in, |_| false);
            // The fused twin: every operand shifted, then each mix.
            check_gate::<W>(&mut rng, kind, fan_in, |_| true);
            for mask in 1..(1u32 << fan_in) - 1 {
                check_gate::<W>(&mut rng, kind, fan_in, |k| mask >> k & 1 == 1);
            }
        }
    }
    for kind in [GateKind::Not, GateKind::Buf] {
        check_gate::<W>(&mut rng, kind, 1, |_| false);
        check_gate::<W>(&mut rng, kind, 1, |_| true);
    }
    check_gate::<W>(&mut rng, GateKind::Const0, 0, |_| false);
    check_gate::<W>(&mut rng, GateKind::Const1, 0, |_| false);
    for dst_words in 1..=6 {
        for src_width in [W::BITS - 1, W::BITS, W::BITS + 1, 2 * W::BITS + 1] {
            // Whole-word shifts (funnel offset 0) and offsets inside a
            // word, both directions, plus one anywhere in ±3 words.
            let random = rng.gen_range(-3 * b..=3 * b);
            for shift in [-2 * b, -b, -b - 3, -5, -1, 1, 7, b, b + 3, 2 * b, random] {
                check_shift::<W>(&mut rng, dst_words, src_width, shift);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_shape_matches_its_bit_level_definition(seed in any::<u64>()) {
        check_every_shape::<u32>(seed);
        check_every_shape::<u64>(seed);
    }
}

/// One op of every shape, over a random arena of `words` words: gates
/// of every kind and fan-in, plain and fused; shifted presentations,
/// decoded and funneled, both directions; and the loads and fills.
fn one_of_each_shape<W: Word>(rng: &mut StdRng, words: u32) -> Vec<(WOp, OperandPool)> {
    let mut ops = Vec::new();
    let slot = |rng: &mut StdRng| rng.gen_range(0..words);
    for kind in [
        GateKind::And,
        GateKind::Nor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Const1,
    ] {
        let fan_ins: &[usize] = match kind {
            GateKind::Not => &[1],
            GateKind::Const1 => &[0],
            _ => &[2, 3],
        };
        for &fan_in in fan_ins {
            for shifted in [false, true] {
                let mut pool = OperandPool::default();
                let operands: Vec<Operand> = (0..fan_in)
                    .map(|_| random_input::<W>(rng, shifted).0)
                    .map(|operand| Operand {
                        slot: operand.slot % words,
                        ..operand
                    })
                    .collect();
                let op = WOp::gate(kind, slot(rng), &operands, &mut pool).unwrap();
                ops.push((op, pool));
            }
        }
    }
    let b = W::BITS as i32;
    for (dst_words, src_width, shift) in [
        (1, W::BITS, -3),
        (2, 2 * W::BITS - 1, -5),
        (3, W::BITS + 1, 7),
    ] {
        let dst = words - 3;
        for op in [
            WOp::shift_field::<W>(dst, dst_words, 0, src_width, shift).unwrap(),
            WOp::funnel_field::<W>(dst, dst_words, 0, src_width, shift - b).unwrap(),
        ] {
            ops.push((op, OperandPool::default()));
        }
    }
    let (dst, src) = (slot(rng), slot(rng));
    for op in [
        WOp::MergeShl1Low { dst, src },
        WOp::MergeShl1 {
            dst,
            src,
            carry: slot(rng),
        },
        WOp::BroadcastBit { dst, src, bit: 5 },
        WOp::ExtractBit { dst, src, bit: 7 },
        WOp::Zero { dst },
        WOp::InputBroadcast {
            dst: 0,
            words: 2,
            index: 1,
        },
        WOp::InputAligned {
            dst: 0,
            words: 3,
            neg_bits: W::BITS as u16 + 9,
            index: 0,
        },
    ] {
        ops.push((op, OperandPool::default()));
    }
    ops
}

/// Every op shape run once over a lane arena whose lanes hold different
/// random arenas and inputs, in every instance of the block pass this
/// CPU supports: each lane must come out as the one-lane executor
/// leaves that lane's arena alone.
#[test]
fn lanes_run_each_shape_as_its_lane_alone() {
    fn check<W: Word>(isa: LaneIsa) {
        let mut rng = StdRng::seed_from_u64(0x1A9E_5EED);
        let words = ARENA_WORDS;
        for (op, pool) in one_of_each_shape::<W>(&mut rng, words as u32) {
            let lane_arenas: Vec<Vec<W>> = (0..LANES)
                .map(|_| random_arena::<W>(&mut rng, words))
                .collect();
            let lane_inputs: Vec<[bool; 2]> = (0..LANES).map(|_| [rng.gen(), rng.gen()]).collect();
            let program = Program {
                ops: vec![op.clone()],
                operands: pool,
                arena_words: words,
                input_count: 2,
                ..Program::default()
            };
            let mut lanes: Vec<Lanes<W>> = (0..words)
                .map(|w| Lanes(std::array::from_fn(|k| lane_arenas[k][w])))
                .collect();
            let mut inputs: Vec<Lanes<W>> = (0..2)
                .map(|i| Lanes(std::array::from_fn(|k| W::splat(lane_inputs[k][i]))))
                .collect();
            isa.run(&program, &mut lanes, &mut inputs);
            for (k, before) in lane_arenas.iter().enumerate() {
                let mut alone = before.clone();
                let inputs = lane_inputs[k].map(W::splat);
                program.run(&mut alone, &inputs, 0..1);
                let lane: Vec<W> = lanes.iter().map(|row| row.0[k]).collect();
                assert_eq!(lane, alone, "{isa:?}: {op:?} at {} bits, lane {k}", W::BITS);
            }
        }
    }
    for isa in LaneIsa::ALL {
        if isa.supported() {
            check::<u32>(isa);
            check::<u64>(isa);
        } else {
            println!("skipped the {} block pass: not supported here", isa.name());
        }
    }
}

#[test]
fn op_stays_within_twenty_bytes() {
    assert!(
        std::mem::size_of::<WOp>() <= 20,
        "{}",
        std::mem::size_of::<WOp>()
    );
}

/// A fused BUF of every one-word right shift — field widths `2..=B`,
/// shifts `1..width` — with the pair `fuse(width, right)`, checked bit
/// by bit against the presentation's definition: the first shape that
/// differs, if any.
fn first_fused_mismatch<W: Word>(fuse: impl Fn(u32, u32) -> Fused) -> Option<String> {
    let mut rng = StdRng::seed_from_u64(0x5EED_F05E);
    for width in 2..=W::BITS {
        for right in 1..width {
            let before = random_arena::<W>(&mut rng, 3);
            let input = (
                Operand {
                    slot: 1,
                    shift: fuse(width, right),
                },
                Some((width, right)),
            );
            let op = WOp::FusedBuf {
                dst: 2,
                src: 1,
                shift: input.0.shift,
            };
            let mismatch = first_mismatch(&op, OperandPool::default(), &before, 2..3, |_, i| {
                input_bit(&before, &input, i)
            });
            if mismatch.is_some() {
                return mismatch.map(|m| format!("width {width}, right {right}: {m}"));
            }
        }
    }
    None
}

#[test]
fn fused_right_shifts_match_their_definition() {
    fn check<W: Word>() {
        let fuse = |width, right: u32| Fused::of::<W>(width, -(right as i32), 1).unwrap();
        assert_eq!(first_fused_mismatch::<W>(fuse), None);
    }
    check::<u32>();
    check::<u64>();
}

/// Negative control: a fused right shift one bit short must be caught.
#[test]
fn an_off_by_one_fusion_is_caught() {
    fn short<W: Word>(width: u32, right: u32) -> Fused {
        let fused = Fused::of::<W>(width, -(right as i32), 1).unwrap();
        Fused {
            right: fused.right - 1,
            ..fused
        }
    }
    assert!(first_fused_mismatch::<u32>(short::<u32>).is_some());
    assert!(first_fused_mismatch::<u64>(short::<u64>).is_some());
}

/// The path each presentation of the path-tracing + trimming programs
/// takes, pinned on the benchmark's circuits (c432, c880, c1908 and
/// c6288) at both widths: every right shift from one word into one word
/// is fused into its gate, so no op materializes one; the rest (c6288's
/// two-word fields) stay decoded [`WOp::ShiftRight`] ops. At 64 bits no
/// presentation of any ISCAS-85 stand-in runs through the funnel. A
/// change that sends presentations back to a slower path fails here,
/// not only in a timing.
#[test]
fn benchmark_presentations_take_the_fused_or_decoded_path() {
    fn check<W: Word>(circuit: Iscas85) {
        let nl = circuit.build();
        let sim = ParallelSim::<W>::compile(&nl, Optimization::PathTracingTrimming).unwrap();
        let program = sim.program();
        let stats = sim.stats();
        let name = format!("{} at {} bits", nl.name(), W::BITS);
        for op in &program.ops {
            if let Some(shift) = op.as_field_shift::<W>() {
                let fuses = Fused::of::<W>(shift.src_width, shift.shift, shift.dst_words);
                assert_eq!(fuses, None, "{name}: unfused {op:?}");
            }
        }
        assert_eq!(
            stats.fused_presentations + stats.decoded_presentations + stats.funnel_presentations,
            stats.retained_shifts,
            "{name}"
        );
        if W::BITS == 64 {
            assert_eq!(stats.funnel_presentations, 0, "{name}");
        }
        let benchmark = [Iscas85::C432, Iscas85::C880, Iscas85::C1908, Iscas85::C6288];
        if !benchmark.contains(&circuit) {
            return;
        }
        assert!(stats.fused_presentations > 0, "{name}: nothing fused");
        if W::BITS == 64 {
            // Depth 124: c6288's fields reach two 64-bit words; the
            // other circuits' all fit one.
            let multi_word = circuit == Iscas85::C6288;
            assert_eq!(stats.decoded_presentations > 0, multi_word, "{name}");
        }
    }
    for circuit in Iscas85::ALL {
        check::<u32>(circuit);
        check::<u64>(circuit);
    }
}

/// No compiler emits a 1- or 2-input gate through the operand pool:
/// every pooled evaluation has 3+ inputs or none (the constants).
#[test]
fn compilers_never_pool_narrow_gates() {
    let mut config = LayeredConfig::new("narrow", 300, 70);
    config.inverter_fraction = 0.2;
    config.xor_fraction = 0.3;
    let netlists = [
        Iscas85::C432.build(),
        Iscas85::C1908.build(),
        layered(&config).unwrap(),
    ];
    for nl in &netlists {
        for optimization in Optimization::ALL {
            let programs = [
                ParallelSim::<u32>::compile(nl, optimization)
                    .unwrap()
                    .program()
                    .clone(),
                ParallelSim::<u64>::compile(nl, optimization)
                    .unwrap()
                    .program()
                    .clone(),
            ];
            for program in &programs {
                let mut shaped = 0;
                for op in &program.ops {
                    match *op {
                        WOp::Eval { operand_count, .. } | WOp::FusedEval { operand_count, .. } => {
                            assert!(
                                operand_count == 0 || operand_count >= 3,
                                "{}: {optimization} pooled {op:?}",
                                nl.name()
                            )
                        }
                        _ if op.as_gate(&program.operands).is_some() => shaped += 1,
                        _ => {}
                    }
                }
                assert!(
                    shaped > 0,
                    "{}: {optimization} emitted no shaped gate",
                    nl.name()
                );
            }
        }
    }
}
