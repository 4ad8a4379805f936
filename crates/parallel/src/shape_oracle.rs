//! Bit-level oracle for every word-op shape the executor runs.
//!
//! Each shape runs alone on a random arena, at `u32` and `u64`, and every
//! bit of the arena afterwards is compared with a definition written bit
//! by bit — the gate's truth table ([`GateKind::eval_bits`]) at that bit
//! position, or, for a shifted presentation, source bit
//! `clamp(i - shift, 0, width - 1)` — never with the executor's own word
//! arithmetic. Words the op does not own must come back unchanged.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uds_netlist::generators::iscas::Iscas85;
use uds_netlist::generators::random::{layered, LayeredConfig};
use uds_netlist::GateKind;

use crate::program::{Program, WOp};
use crate::word::Word;
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
/// unchanged.
fn check_op<W: Word>(
    op: WOp,
    pool: Vec<u32>,
    before: &[W],
    written: std::ops::Range<usize>,
    expected: impl Fn(usize, u32) -> bool,
) {
    let mut arena = before.to_vec();
    let program = Program {
        ops: vec![op.clone()],
        operands: pool,
        arena_words: arena.len(),
        input_count: 0,
    };
    program.run(&mut arena, &[], 0..1);
    for (w, word) in arena.iter().enumerate() {
        for i in 0..W::BITS {
            let want = if written.contains(&w) {
                expected(w, i)
            } else {
                before[w].bit(i)
            };
            assert_eq!(
                word.bit(i),
                want,
                "{op:?} at {} bits: word {w}, bit {i}",
                W::BITS
            );
        }
    }
}

fn check_gate<W: Word>(rng: &mut StdRng, kind: GateKind, fan_in: usize) {
    let before = random_arena::<W>(rng, ARENA_WORDS);
    // Operands may repeat and may include the destination: every read
    // happens before the write.
    let inputs: Vec<u32> = (0..fan_in)
        .map(|_| rng.gen_range(0..ARENA_WORDS as u32))
        .collect();
    let dst = rng.gen_range(0..ARENA_WORDS as u32);
    // A pool that already holds another gate's operands.
    let mut pool = vec![3, 1, 4];
    let op = WOp::gate(kind, dst, &inputs, &mut pool).unwrap();
    let pooled = matches!(op, WOp::Eval { .. });
    assert_eq!(
        pooled,
        !(1..=2).contains(&fan_in),
        "{kind} with {fan_in} inputs became {op:?}"
    );
    assert_eq!(op.as_gate(&pool), Some((kind, dst, inputs.clone())));
    check_op(op, pool, &before, dst as usize..dst as usize + 1, |_, i| {
        let bits: Vec<bool> = inputs.iter().map(|&s| before[s as usize].bit(i)).collect();
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
            Vec::new(),
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
            check_gate::<W>(&mut rng, kind, fan_in);
        }
    }
    check_gate::<W>(&mut rng, GateKind::Not, 1);
    check_gate::<W>(&mut rng, GateKind::Buf, 1);
    check_gate::<W>(&mut rng, GateKind::Const0, 0);
    check_gate::<W>(&mut rng, GateKind::Const1, 0);
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

#[test]
fn op_stays_within_twenty_bytes() {
    assert!(
        std::mem::size_of::<WOp>() <= 20,
        "{}",
        std::mem::size_of::<WOp>()
    );
}

/// Every presentation of the 64-bit path-tracing + trimming programs of
/// the ISCAS-85 stand-ins (c432, c880, c1908 and c6288 are the
/// benchmark's circuits) runs decoded, none through the funnel: a
/// change that sends them back to the slow path fails here, not only
/// in a timing.
#[test]
fn benchmark_presentations_are_decoded_at_64_bits() {
    for circuit in Iscas85::ALL {
        let nl = circuit.build();
        let sim = ParallelSim::<u64>::compile(&nl, Optimization::PathTracingTrimming).unwrap();
        let ops = &sim.program().ops;
        let decoded = ops
            .iter()
            .filter(|op| matches!(op, WOp::ShiftRight { .. }))
            .count();
        let funnel: Vec<&WOp> = ops
            .iter()
            .filter(|op| matches!(op, WOp::ShiftField { .. }))
            .collect();
        assert!(decoded > 0, "{}: no presentation", nl.name());
        assert!(funnel.is_empty(), "{}: funnel {:?}", nl.name(), funnel[0]);
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
                        WOp::Eval { operand_count, .. } => assert!(
                            operand_count == 0 || operand_count >= 3,
                            "{}: {optimization} pooled {op:?}",
                            nl.name()
                        ),
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
