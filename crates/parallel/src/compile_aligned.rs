//! The shift-eliminated compiler (§4, Figs. 10–18): code generation for
//! netlists whose nets carry differing alignments.
//!
//! Differences from the unoptimized compiler:
//!
//! * per-net field shapes: width = `level − align + 1`;
//! * **no per-vector initialization** for internal nets — previous-vector
//!   values are recomputed wherever needed, because every bit of a field
//!   is overwritten each vector (the paper's observation for Fig. 10);
//! * primary inputs use the negative-alignment load: bits at negative
//!   times keep the previous input value;
//! * retained shifts are generated **at gate inputs** (Fig. 18), as
//!   multi-bit [`WOp::ShiftField`] materializations into scratch — or,
//!   for a right shift from one word into one word, fused into the
//!   gate's operand ([`Fused`]), so the presentation costs no op;
//!   cycle breaking may additionally retain an output re-alignment.
//!
//! With trimming, low-constant words are re-initialized by broadcast
//! (the paper: initialization "must be reintroduced for the low-order
//! words ... that do not contain PC-set representatives") and gap words
//! become broadcasts, exactly as in the unoptimized compiler.

use uds_netlist::limits::{checked_add_u64, checked_mul_u64, narrow_u16, narrow_u32};
use uds_netlist::{levelize, NetId, Netlist, ResourceLimits, SegmentBuilder};

use crate::bitfield::FieldLayout;
use crate::compile::Compiled;
use crate::program::{Fused, Operand, OperandPool, Program, Staging, WOp};
use crate::simulator::CompileError;
use crate::trimming::{WordClass, WordClasses};
use crate::word::Word;
use crate::Alignment;

pub(crate) fn compile<W: Word>(
    netlist: &Netlist,
    alignment: &Alignment,
    trim: bool,
    limits: &ResourceLimits,
) -> Result<Compiled, CompileError> {
    let levels = levelize(netlist)?;
    debug_assert!(alignment.validate(netlist, &levels).is_ok());

    // Per-net field layouts.
    let mut layouts = Vec::with_capacity(netlist.net_count());
    let mut next_word = 0u32;
    for net in netlist.net_ids() {
        let width = alignment.width(&levels, net);
        let layout =
            FieldLayout::with_word_bits(next_word, width, alignment.net_align[net], W::BITS);
        limits.check_field_words(layout.words)?;
        next_word = narrow_u32(checked_add_u64(
            u64::from(next_word),
            u64::from(layout.words),
        )?)?;
        layouts.push(layout);
    }

    // A gate whose output must be re-aligned computes into a staging
    // field covering times `align(gate) ..= level(output)`; everything
    // else computes the output field's own shape.
    let compute_width_of = |gid: uds_netlist::GateId| -> u32 {
        let out = netlist.gate(gid).output;
        if alignment.output_shift(netlist, gid) == 0 {
            layouts[out].width
        } else {
            let width =
                i64::from(levels.net_level[out]) - i64::from(alignment.gate_align[gid.index()]) + 1;
            u32::try_from(width).expect("gate alignment never exceeds its output's level")
        }
    };

    // Scratch: one staging field per distinct gate input that needs
    // materialization, plus one for output re-alignment. Sized by the
    // largest gate.
    let max_gate_words = netlist
        .gate_ids()
        .map(|g| compute_width_of(g).div_ceil(W::BITS))
        .max()
        .unwrap_or(1);
    let max_operands = netlist
        .gates()
        .iter()
        .map(|g| {
            let mut distinct: Vec<NetId> = Vec::new();
            for &i in &g.inputs {
                if !distinct.contains(&i) {
                    distinct.push(i);
                }
            }
            distinct.len()
        })
        .max()
        .unwrap_or(1);
    // Extension words: a consumer computing more words than a (shift-free)
    // input's field owns reads the input's *extension word* — one word
    // holding the input's final value in every bit, refreshed right after
    // the input is computed. This models the one-statement top-bit
    // replication real generated code uses, instead of materializing a
    // whole widened copy per gate.
    let mut needs_ext = vec![false; netlist.net_count()];
    for gid in netlist.gate_ids() {
        let gate_words = compute_width_of(gid).div_ceil(W::BITS);
        for &input in &netlist.gate(gid).inputs {
            if alignment.input_shift(gid, input) == 0 && layouts[input].words < gate_words {
                needs_ext[input] = true;
            }
        }
    }
    let mut ext_word = vec![u32::MAX; netlist.net_count()];
    for net in netlist.net_ids() {
        if needs_ext[net] {
            ext_word[net] = next_word;
            next_word = narrow_u32(checked_add_u64(u64::from(next_word), 1)?)?;
        }
    }
    let ext_broadcast = |net: NetId| -> WOp {
        let layout = &layouts[net];
        let final_bit = layout.final_bit();
        WOp::BroadcastBit {
            dst: ext_word[net],
            src: layout.base + final_bit / W::BITS,
            bit: (final_bit % W::BITS) as u8,
        }
    };

    let scratch_base = next_word;
    let stage_base = narrow_u32(checked_add_u64(
        u64::from(scratch_base),
        checked_mul_u64(max_operands as u64, u64::from(max_gate_words))?,
    )?)?;
    let staging = Staging {
        base: scratch_base,
        stride: max_gate_words,
        end: stage_base,
    };
    let arena_words = narrow_u32(checked_add_u64(
        u64::from(stage_base),
        u64::from(max_gate_words),
    )?)? as usize;
    limits.check_memory(checked_mul_u64(arena_words as u64, u64::from(W::BITS / 8))?)?;
    limits.check_deadline()?;

    let classes = WordClasses::compute::<W>(netlist, &layouts, trim)?;

    let mut ops = Vec::new();
    let mut operands = OperandPool::default();
    let mut slots = Vec::new();
    let mut retained_shifts = 0usize;
    let mut trimmed_words = 0usize;

    // --- Per-vector initialization -------------------------------------
    for (index, &pi) in netlist.primary_inputs().iter().enumerate() {
        let layout = &layouts[pi];
        let neg_bits = narrow_u16((-layout.align).max(0) as usize)?;
        ops.push(WOp::InputAligned {
            dst: layout.base,
            words: narrow_u16(layout.words as usize)?,
            neg_bits,
            index: narrow_u16(index)?,
        });
        if needs_ext[pi] {
            ops.push(ext_broadcast(pi));
        }
    }
    if trim {
        for net in netlist.net_ids() {
            if netlist.driver(net).is_none() {
                continue;
            }
            let layout = &layouts[net];
            let final_bit = layout.final_bit();
            for w in 0..layout.words {
                if classes.of(net, w) == WordClass::LowConstant {
                    ops.push(WOp::BroadcastBit {
                        dst: layout.base + w,
                        src: layout.base + final_bit / W::BITS,
                        bit: (final_bit % W::BITS) as u8,
                    });
                }
            }
        }
    }

    // The whole init block is level-0 work; weights come from each
    // op's word span.
    let mut segments = SegmentBuilder::new();
    let word_bytes = u64::from(W::BITS / 8);
    let init_word_ops: u64 = ops.iter().map(|op| op.weight(&operands)).sum();
    segments.emit(
        0,
        ops.len(),
        init_word_ops,
        0,
        init_word_ops * 2 * word_bytes,
    );

    // --- Gate simulations, levelized order ------------------------------
    for &gid in &levels.topo_gates {
        let gate = netlist.gate(gid);
        let out = gate.output;
        let out_layout = layouts[out];
        let gate_ops_start = ops.len();
        let compute_width = compute_width_of(gid);
        let gate_words = compute_width.div_ceil(W::BITS);
        let output_shift = alignment.output_shift(netlist, gid);
        if output_shift != 0 {
            retained_shifts += 1;
        }
        // Where evaluation results land before any output re-alignment.
        let compute_base = if output_shift == 0 {
            out_layout.base
        } else {
            stage_base
        };

        // Present each distinct input. Four cases: already aligned and
        // wide enough (read the field directly); aligned but narrower
        // (read the field, extension word beyond it); misaligned — a
        // retained shift — from one word into one word (the gate's
        // operand reads the source word through the shift pair);
        // otherwise materialize one shifted copy into scratch. A fused
        // presentation still takes its scratch slot, which the emitted
        // C writes.
        #[derive(Clone, Copy)]
        enum Presentation {
            Field { base: u32, words: u32, ext: u32 },
            Scratch(u32),
            Fused(Operand),
        }
        let mut presented: Vec<(NetId, Presentation)> = Vec::new();
        let mut scratch_used = 0u32;
        for &input in &gate.inputs {
            if presented.iter().any(|&(n, _)| n == input) {
                continue;
            }
            let in_layout = layouts[input];
            let shift = alignment.input_shift(gid, input);
            let presentation = if shift == 0 {
                Presentation::Field {
                    base: in_layout.base,
                    words: in_layout.words,
                    ext: ext_word[input],
                }
            } else {
                retained_shifts += 1;
                let dst = staging.slot(scratch_used);
                scratch_used += 1;
                match Fused::of::<W>(in_layout.width, shift, gate_words) {
                    Some(shift) => Presentation::Fused(Operand {
                        slot: in_layout.base,
                        shift,
                    }),
                    None => {
                        ops.push(WOp::shift_field::<W>(
                            dst,
                            gate_words,
                            in_layout.base,
                            in_layout.width,
                            shift,
                        )?);
                        Presentation::Scratch(dst)
                    }
                }
            };
            presented.push((input, presentation));
        }
        let operand_at = |net: NetId, w: u32| -> Operand {
            let presentation = presented
                .iter()
                .find(|&&(n, _)| n == net)
                .expect("every input was presented")
                .1;
            match presentation {
                Presentation::Field { base, words, ext } => Operand::plain(if w < words {
                    base + w
                } else {
                    debug_assert_ne!(ext, u32::MAX, "extension word allocated");
                    ext
                }),
                Presentation::Scratch(base) => Operand::plain(base + w),
                Presentation::Fused(operand) => operand,
            }
        };

        // Trimming skips apply only when the evaluation writes the output
        // field directly; an output re-alignment needs every word.
        let can_trim = output_shift == 0;
        for w in 0..gate_words {
            let class = if can_trim {
                classes.of(out, w)
            } else {
                WordClass::Active
            };
            match class {
                WordClass::Active => {
                    slots.clear();
                    slots.extend(gate.inputs.iter().map(|&input| operand_at(input, w)));
                    ops.push(WOp::gate(
                        gate.kind,
                        compute_base + w,
                        &slots,
                        &mut operands,
                    )?);
                }
                WordClass::Gap => {
                    trimmed_words += 1;
                    ops.push(WOp::BroadcastBit {
                        dst: out_layout.base + w,
                        src: out_layout.base + w - 1,
                        bit: (W::BITS - 1) as u8,
                    });
                }
                WordClass::LowConstant => {
                    trimmed_words += 1; // initialization broadcast covered it
                }
            }
        }
        if output_shift != 0 {
            ops.push(WOp::shift_field::<W>(
                out_layout.base,
                out_layout.words,
                stage_base,
                compute_width,
                output_shift,
            )?);
        }
        if needs_ext[out] {
            ops.push(ext_broadcast(out));
        }
        let gate_word_ops: u64 = ops[gate_ops_start..]
            .iter()
            .map(|op| op.weight(&operands))
            .sum();
        segments.emit(
            levels.gate_level[gid.index()] as usize,
            ops.len() - gate_ops_start,
            gate_word_ops,
            1,
            gate_word_ops * 3 * word_bytes,
        );
    }

    Ok(Compiled {
        program: Program {
            ops,
            operands,
            arena_words,
            input_count: netlist.primary_inputs().len(),
            staging,
        },
        layouts,
        depth: levels.depth,
        retained_shifts,
        trimmed_words,
        level_segments: segments.finish(),
    })
}
