//! The unoptimized parallel-technique compiler (§3), with optional
//! bit-field trimming (§4, Fig. 9).
//!
//! Every net gets an identically shaped field: `n = depth + 1` bits at
//! alignment 0, rounded up to whole 32-bit words. Per input vector the
//! generated code
//!
//! 1. re-initializes each field: primary inputs broadcast their new bit
//!    through every word; other nets move their final value into bit 0
//!    and clear the rest;
//! 2. simulates each gate in levelized order: one bit-parallel
//!    evaluation per word into a scratch field, then the one-bit
//!    shift-merge of Fig. 6/8 into the output field.
//!
//! With trimming enabled, low-constant and gap words are replaced by
//! single broadcasts and their evaluations/shift parts disappear.

use uds_netlist::limits::{checked_add_u64, checked_mul_u64, narrow_u16, narrow_u32};
use uds_netlist::{levelize, LevelSegment, Netlist, ResourceLimits, SegmentBuilder};

use crate::bitfield::FieldLayout;
use crate::program::{Operand, OperandPool, Program, Staging, WOp};
use crate::simulator::CompileError;
use crate::trimming::{WordClass, WordClasses};
use crate::word::Word;

/// Output of both compilers: this one and the shift-eliminated one in
/// `compile_aligned`.
pub(crate) struct Compiled {
    pub program: Program,
    pub layouts: Vec<FieldLayout>,
    pub depth: u32,
    /// Shifts the generated code retains: one per gate here, the
    /// alignment's retained shifts in the aligned compiler.
    pub retained_shifts: usize,
    /// Words of gate simulation skipped by trimming (0 when disabled).
    pub trimmed_words: usize,
    /// Run-length level segments of the op stream in emission order
    /// (the init block is level 0); drives the leveled profiling
    /// executor and the static per-level cost model.
    pub level_segments: Vec<LevelSegment>,
}

pub(crate) fn compile<W: Word>(
    netlist: &Netlist,
    trim: bool,
    limits: &ResourceLimits,
) -> Result<Compiled, CompileError> {
    let levels = levelize(netlist)?;
    let n = narrow_u32(u64::from(levels.depth) + 1)?;
    let words = n.div_ceil(W::BITS);
    limits.check_field_words(words)?;

    // Field layout: one uniform field per net, then one scratch field.
    // `scratch` fitting u32 (checked below) bounds every per-net base.
    let scratch = narrow_u32(checked_mul_u64(
        netlist.net_count() as u64,
        u64::from(words),
    )?)?;
    let layouts: Vec<FieldLayout> = netlist
        .net_ids()
        .map(|net| FieldLayout::with_word_bits(net.index() as u32 * words, n, 0, W::BITS))
        .collect();
    let arena_words = narrow_u32(checked_add_u64(u64::from(scratch), u64::from(words))?)? as usize;
    limits.check_memory(checked_mul_u64(arena_words as u64, u64::from(W::BITS / 8))?)?;
    limits.check_deadline()?;

    let classes = WordClasses::compute::<W>(netlist, &layouts, trim)?;

    let mut ops = Vec::new();
    let mut operands = OperandPool::default();
    let mut slots = Vec::new();
    let mut trimmed_words = 0usize;
    let mut segments = SegmentBuilder::new();
    let word_bytes = u64::from(W::BITS / 8);

    // --- Per-vector initialization -------------------------------------
    let final_bit = n - 1;
    let final_word_offset = final_bit / W::BITS;
    let final_bit_in_word = (final_bit % W::BITS) as u8;

    for (index, &pi) in netlist.primary_inputs().iter().enumerate() {
        ops.push(WOp::InputBroadcast {
            dst: layouts[pi].base,
            words: narrow_u16(words as usize)?,
            index: narrow_u16(index)?,
        });
    }
    for net in netlist.net_ids() {
        if netlist.driver(net).is_none() {
            continue; // primary inputs handled above; dangling sources stay 0
        }
        let base = layouts[net].base;
        let final_src = base + final_word_offset;
        // Reads of the final bit (extract + low-constant broadcasts)
        // must precede the zeroing of upper words.
        match classes.of(net, 0) {
            WordClass::LowConstant => {
                // Broadcast the previous final value through every
                // low-constant word (the minlevel is >= the word size).
                for w in 0..words {
                    if classes.of(net, w) == WordClass::LowConstant {
                        ops.push(WOp::BroadcastBit {
                            dst: base + w,
                            src: final_src,
                            bit: final_bit_in_word,
                        });
                    }
                }
            }
            WordClass::Active => {
                ops.push(WOp::ExtractBit {
                    dst: base,
                    src: final_src,
                    bit: final_bit_in_word,
                });
            }
            WordClass::Gap => unreachable!("word 0 is low-constant or contains the minlevel"),
        }
        for w in 1..words {
            if classes.of(net, w) == WordClass::Active {
                ops.push(WOp::Zero { dst: base + w });
            }
        }
    }

    // The whole init block is level-0 work. Input broadcasts write
    // `words` words each; every other init op touches one word.
    let init_ops = ops.len();
    let init_word_ops = checked_add_u64(
        checked_mul_u64(netlist.primary_inputs().len() as u64, u64::from(words))?,
        (init_ops - netlist.primary_inputs().len()) as u64,
    )?;
    segments.emit(
        0,
        init_ops,
        init_word_ops,
        0,
        init_word_ops * 2 * word_bytes,
    );

    // --- Gate simulations, levelized order ------------------------------
    for &gid in &levels.topo_gates {
        let gate = netlist.gate(gid);
        let out = gate.output;
        let out_base = layouts[out].base;
        let gate_ops_start = ops.len();

        // Which scratch (intermediate) words are needed: an active word
        // consumes scratch[w] and scratch[w-1] (shift carry).
        let mut scratch_needed = vec![false; words as usize];
        let mut any_active = false;
        for w in 0..words {
            if classes.of(out, w) == WordClass::Active {
                any_active = true;
                scratch_needed[w as usize] = true;
                if w > 0 {
                    scratch_needed[w as usize - 1] = true;
                }
            } else {
                trimmed_words += 1;
            }
        }
        debug_assert!(any_active, "every net's level word is active");

        for w in 0..words {
            if !scratch_needed[w as usize] {
                continue;
            }
            slots.clear();
            slots.extend(
                gate.inputs
                    .iter()
                    .map(|&input| Operand::plain(layouts[input].base + w)),
            );
            ops.push(WOp::gate(gate.kind, scratch + w, &slots, &mut operands)?);
        }
        for w in 0..words {
            match classes.of(out, w) {
                WordClass::Active => {
                    if w == 0 {
                        ops.push(WOp::MergeShl1Low {
                            dst: out_base,
                            src: scratch,
                        });
                    } else {
                        ops.push(WOp::MergeShl1 {
                            dst: out_base + w,
                            src: scratch + w,
                            carry: scratch + w - 1,
                        });
                    }
                }
                WordClass::Gap => {
                    ops.push(WOp::BroadcastBit {
                        dst: out_base + w,
                        src: out_base + w - 1,
                        bit: (W::BITS - 1) as u8,
                    });
                }
                WordClass::LowConstant => {} // initialization covered it
            }
        }
        let gate_ops = ops.len() - gate_ops_start;
        segments.emit(
            levels.gate_level[gid.index()] as usize,
            gate_ops,
            gate_ops as u64,
            1,
            gate_ops as u64 * 3 * word_bytes,
        );
    }

    Ok(Compiled {
        program: Program {
            ops,
            operands,
            arena_words,
            input_count: netlist.primary_inputs().len(),
            staging: Staging::default(),
        },
        layouts,
        depth: levels.depth,
        retained_shifts: netlist.gate_count(),
        trimmed_words,
        level_segments: segments.finish(),
    })
}
