//! The straight-line word-op program and its executor.
//!
//! Compiled parallel-technique simulations lower to a flat list of
//! fixed-shape operations over a dense word arena. The op inventory
//! mirrors the statements the paper's code generator emits — per-word
//! bit-parallel gate evaluations, one-bit shift-merges (Fig. 6/8),
//! initialization loads, trimming's broadcast fills (Fig. 9), and the
//! multi-bit input-alignment shifts of the shift-eliminated compiler
//! (Fig. 18) — so op counts and execution time track generated-code size
//! and speed the way the paper's tables do.
//!
//! The op encodings bake in the word size the program was compiled for
//! (word counts, bit positions), so [`Program::run`] must be driven with
//! cells of the same [`Word`] type the compiler used; [`crate::ParallelSim`]
//! pairs them by construction. The executor is written once over
//! [`Cell`]: a word runs one vector per pass, a [`Lanes`] row runs a
//! block of vectors, each in its own lane.
//!
//! [`Lanes`]: crate::word::Lanes

use std::ops::Range;

use uds_netlist::limits::{narrow_i16, narrow_u16, narrow_u32};
use uds_netlist::{GateKind, LimitExceeded};

use crate::word::{Cell, Word};

/// One word-level operation.
///
/// Gate evaluations carry their shape: the 1- and 2-input kinds each
/// have a variant with their operand slots inline, so the executor runs
/// one of them with a single dispatch and two loads, and only wider
/// (3+ input) and constant gates go through the operand pool of
/// [`WOp::Eval`]. A gate that reads a one-word shifted presentation
/// (Fig. 18) has a fused twin of its shape (`FusedAnd2`, …,
/// [`WOp::FusedEval`]) whose operands each carry a [`Fused`] shift
/// pair, so the presentation costs no op of its own. [`WOp::gate`] is
/// the one constructor that picks the shape; [`WOp::as_gate`] recovers
/// the gate from any of them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum WOp {
    /// `arena[dst] = arena[a] & arena[b]`.
    And2 { dst: u32, a: u32, b: u32 },
    /// `arena[dst] = !(arena[a] & arena[b])`.
    Nand2 { dst: u32, a: u32, b: u32 },
    /// `arena[dst] = arena[a] | arena[b]`.
    Or2 { dst: u32, a: u32, b: u32 },
    /// `arena[dst] = !(arena[a] | arena[b])`.
    Nor2 { dst: u32, a: u32, b: u32 },
    /// `arena[dst] = arena[a] ^ arena[b]`.
    Xor2 { dst: u32, a: u32, b: u32 },
    /// `arena[dst] = !(arena[a] ^ arena[b])`.
    Xnor2 { dst: u32, a: u32, b: u32 },
    /// `arena[dst] = !arena[src]`.
    Not { dst: u32, src: u32 },
    /// `arena[dst] = arena[src]`.
    Buf { dst: u32, src: u32 },
    /// `arena[dst] = kind(arena[operands...])` — one word of a
    /// bit-parallel evaluation of a gate with 3+ inputs (or none, for
    /// the constants), its operand slots in [`Program::operands`].
    Eval {
        kind: GateKind,
        dst: u32,
        first_operand: u32,
        operand_count: u16,
    },
    /// [`WOp::And2`] over fused operands: `arena[dst] = sa(a) & sb(b)`,
    /// where `s(x)` reads `arena[x]` through [`Fused`] shift pair `s`.
    FusedAnd2 {
        dst: u32,
        a: u32,
        b: u32,
        sa: Fused,
        sb: Fused,
    },
    /// `arena[dst] = !(sa(a) & sb(b))`.
    FusedNand2 {
        dst: u32,
        a: u32,
        b: u32,
        sa: Fused,
        sb: Fused,
    },
    /// `arena[dst] = sa(a) | sb(b)`.
    FusedOr2 {
        dst: u32,
        a: u32,
        b: u32,
        sa: Fused,
        sb: Fused,
    },
    /// `arena[dst] = !(sa(a) | sb(b))`.
    FusedNor2 {
        dst: u32,
        a: u32,
        b: u32,
        sa: Fused,
        sb: Fused,
    },
    /// `arena[dst] = sa(a) ^ sb(b)`.
    FusedXor2 {
        dst: u32,
        a: u32,
        b: u32,
        sa: Fused,
        sb: Fused,
    },
    /// `arena[dst] = !(sa(a) ^ sb(b))`.
    FusedXnor2 {
        dst: u32,
        a: u32,
        b: u32,
        sa: Fused,
        sb: Fused,
    },
    /// `arena[dst] = !shift(src)`.
    FusedNot { dst: u32, src: u32, shift: Fused },
    /// `arena[dst] = shift(src)`.
    FusedBuf { dst: u32, src: u32, shift: Fused },
    /// [`WOp::Eval`] over fused operands, in [`OperandPool::fused`].
    FusedEval {
        kind: GateKind,
        dst: u32,
        first_operand: u32,
        operand_count: u16,
    },
    /// `arena[dst] |= arena[src] << 1` — low word of a unit-delay
    /// shift-merge (preserves bit 0, the time-zero value).
    MergeShl1Low { dst: u32, src: u32 },
    /// `arena[dst] |= (arena[src] << 1) | (arena[carry] >> (B-1))` —
    /// upper word of a multi-word shift-merge (Fig. 8).
    MergeShl1 { dst: u32, src: u32, carry: u32 },
    /// `arena[dst] = broadcast(bit of arena[src])` — trimming's fills:
    /// low-order constant words and gap words (Fig. 9).
    BroadcastBit { dst: u32, src: u32, bit: u8 },
    /// `arena[dst] = (arena[src] >> bit) & 1` — unoptimized per-vector
    /// initialization: the final value moves into the low-order bit.
    ExtractBit { dst: u32, src: u32, bit: u8 },
    /// `arena[dst] = 0`.
    Zero { dst: u32 },
    /// Broadcast primary input `index` through `words` words at `dst`.
    InputBroadcast { dst: u32, words: u16, index: u16 },
    /// Aligned primary-input load: the low `neg_bits` bits (negative
    /// times) keep the *previous* input value; all remaining bits get
    /// the new one (§4's negative alignments).
    InputAligned {
        dst: u32,
        words: u16,
        neg_bits: u16,
        index: u16,
    },
    /// Materialize a shifted presentation of a field (Fig. 18: shifts at
    /// gate inputs; also output re-alignment under cycle breaking).
    /// Presented bit `i` is source bit `i - shift`, with bottom/top-bit
    /// replication outside `0..src_width`. Built by [`WOp::shift_field`],
    /// which decodes the shift into the funnel's word geometry once, at
    /// compile time. The general shape: any direction, any width; the
    /// common right shift of a narrow field is a [`WOp::ShiftRight`].
    ShiftField {
        dst: u32,
        src: u32,
        dst_words: u16,
        /// The source's top word, relative to `src`.
        top_word: u16,
        /// The source word (relative to `src`, negative below bit 0)
        /// that destination word 0 starts in.
        base: i16,
        /// Bits of the top word past `src_width`.
        spare: u8,
        /// The bit of word `base` at which destination word 0 starts.
        offset: u8,
    },
    /// A [`WOp::ShiftField`] presentation shifted right (`shift < 0`)
    /// from a source of at most two words into at most two words —
    /// every presentation of the ISCAS-85 stand-ins' 64-bit
    /// path-tracing programs. The source's
    /// top word, its `spare` bits above the field replaced by copies of
    /// the top bit, and the word below it (the top word itself for a
    /// one-word field) form a sign-extended double word `high:low`;
    /// destination word `w` is that pair shifted right arithmetically
    /// by `shift + w * B` ([`Word::sar_wide`]). Bits below the field
    /// are never read, so no bottom fill is needed.
    ShiftRight {
        dst: u32,
        src: u32,
        /// Right shift of the pair for destination word 0: the
        /// presentation's shift, plus `B` for a one-word source (whose
        /// field starts at bit `B` of the pair).
        shift: u16,
        /// The source's top word, relative to `src`: 0 or 1.
        top_word: u8,
        /// Bits of the top word past `src_width`.
        spare: u8,
        /// 1 or 2.
        dst_words: u8,
    },
}

/// The parameters of a shifted field presentation, whichever op runs
/// it: `dst_words` words at `dst` whose bit `i` is bit `i - shift` of
/// the `src_width`-bit field at `src`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct FieldShift {
    pub dst: u32,
    pub dst_words: u32,
    pub src: u32,
    pub src_width: u32,
    pub shift: i32,
}

/// A one-word shifted presentation fused into the operand that reads
/// it: the operand is `((x << left) as signed) >> right` of its arena
/// word `x`. A right shift by `s` of a `width`-bit field in one word
/// into one word is exactly `left = B - width` (the spare bits above
/// the field, shifted out so the field's top bit becomes the sign) and
/// `right = left + s` (the sign fills the bits past the field). The
/// pair `(0, 0)` reads the word unchanged.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Fused {
    pub left: u8,
    pub right: u8,
}

impl Fused {
    /// The unshifted read.
    pub const NONE: Fused = Fused { left: 0, right: 0 };

    /// The pair presenting the `src_width`-bit field shifted by `shift`
    /// into `dst_words` words of `W`, if that presentation fuses: a
    /// right shift, within the field, from one word into one word.
    pub(crate) fn of<W: Word>(src_width: u32, shift: i32, dst_words: u32) -> Option<Fused> {
        let right = shift.unsigned_abs();
        (shift < 0 && dst_words == 1 && src_width <= W::BITS && right < src_width).then(|| {
            let left = W::BITS - src_width;
            Fused {
                left: left as u8,
                right: (left + right) as u8,
            }
        })
    }

    /// Whether this operand reads a shifted presentation.
    pub(crate) fn is_shift(self) -> bool {
        self != Fused::NONE
    }

    /// The presentation this pair reads from the field whose one word
    /// is `src`, staged at `dst` — the inverse of [`Fused::of`].
    pub(crate) fn presentation<W: Word>(self, src: u32, dst: u32) -> FieldShift {
        FieldShift {
            dst,
            dst_words: 1,
            src,
            src_width: W::BITS - u32::from(self.left),
            shift: i32::from(self.left) - i32::from(self.right),
        }
    }

    /// The operand's value: `arena[slot]` through the pair.
    #[inline(always)]
    fn read<C: Cell>(self, arena: &[C], slot: u32) -> C {
        arena[slot as usize].shl_sar(u32::from(self.left), u32::from(self.right))
    }
}

/// One operand of a gate: arena word `slot`, read through `shift`
/// ([`Fused::NONE`] for a plain read).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Operand {
    pub slot: u32,
    pub shift: Fused,
}

impl Operand {
    /// The plain read of `slot`.
    pub(crate) fn plain(slot: u32) -> Operand {
        Operand {
            slot,
            shift: Fused::NONE,
        }
    }
}

/// A gate op's operands, read in place: inline in the op (one or two of
/// them), or a run of one of the pools.
#[derive(Clone, Copy, Debug)]
pub(crate) enum GateOperands<'a> {
    /// The first `len` of the array.
    Inline([Operand; 2], usize),
    /// A [`WOp::Eval`]'s plain slots.
    Plain(&'a [u32]),
    /// A [`WOp::FusedEval`]'s operands.
    Fused(&'a [Operand]),
}

impl GateOperands<'_> {
    /// How many operands the gate reads.
    pub(crate) fn len(&self) -> usize {
        match *self {
            GateOperands::Inline(_, len) => len,
            GateOperands::Plain(slots) => slots.len(),
            GateOperands::Fused(operands) => operands.len(),
        }
    }

    /// The operands, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Operand> + '_ {
        (0..self.len()).map(|k| match *self {
            GateOperands::Inline(operands, _) => operands[k],
            GateOperands::Plain(slots) => Operand::plain(slots[k]),
            GateOperands::Fused(operands) => operands[k],
        })
    }
}

/// The operands of the pooled gates: plain slots for [`WOp::Eval`],
/// slots with their shift pairs for [`WOp::FusedEval`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub(crate) struct OperandPool {
    pub plain: Vec<u32>,
    pub fused: Vec<Operand>,
}

impl OperandPool {
    /// Every operand slot `w` moved to `at(w)`, as [`WOp::renumber`].
    pub(crate) fn renumber(&self, at: impl Fn(u32) -> u32) -> OperandPool {
        OperandPool {
            plain: self.plain.iter().map(|&slot| at(slot)).collect(),
            fused: self
                .fused
                .iter()
                .map(|operand| Operand {
                    slot: at(operand.slot),
                    shift: operand.shift,
                })
                .collect(),
        }
    }
}

impl WOp {
    /// One word of a gate evaluation, `arena[dst] = kind(inputs)`, in
    /// its shape: `Not`/`Buf` and 2-input gates inline their operands;
    /// any other fan-in (3+ inputs, or the constants' none) appends its
    /// operands to `pool` and becomes a pooled evaluation. A gate with a
    /// shifted operand takes the fused twin of its shape.
    ///
    /// # Errors
    ///
    /// Returns [`LimitExceeded`] when the pool or the fan-in outgrows
    /// the op's index fields.
    pub(crate) fn gate(
        kind: GateKind,
        dst: u32,
        inputs: &[Operand],
        pool: &mut OperandPool,
    ) -> Result<WOp, LimitExceeded> {
        if !inputs.iter().any(|input| input.shift.is_shift()) {
            let slot = |k: usize| inputs[k].slot;
            return Ok(match (kind, inputs.len()) {
                (GateKind::Not, 1) => WOp::Not { dst, src: slot(0) },
                (GateKind::Buf, 1) => WOp::Buf { dst, src: slot(0) },
                (GateKind::And, 2) => WOp::And2 {
                    dst,
                    a: slot(0),
                    b: slot(1),
                },
                (GateKind::Nand, 2) => WOp::Nand2 {
                    dst,
                    a: slot(0),
                    b: slot(1),
                },
                (GateKind::Or, 2) => WOp::Or2 {
                    dst,
                    a: slot(0),
                    b: slot(1),
                },
                (GateKind::Nor, 2) => WOp::Nor2 {
                    dst,
                    a: slot(0),
                    b: slot(1),
                },
                (GateKind::Xor, 2) => WOp::Xor2 {
                    dst,
                    a: slot(0),
                    b: slot(1),
                },
                (GateKind::Xnor, 2) => WOp::Xnor2 {
                    dst,
                    a: slot(0),
                    b: slot(1),
                },
                _ => {
                    let first_operand = narrow_u32(pool.plain.len() as u64)?;
                    pool.plain.extend(inputs.iter().map(|input| input.slot));
                    WOp::Eval {
                        kind,
                        dst,
                        first_operand,
                        operand_count: narrow_u16(inputs.len())?,
                    }
                }
            });
        }
        Ok(match (kind, inputs) {
            (GateKind::Not, &[Operand { slot, shift }]) => WOp::FusedNot {
                dst,
                src: slot,
                shift,
            },
            (GateKind::Buf, &[Operand { slot, shift }]) => WOp::FusedBuf {
                dst,
                src: slot,
                shift,
            },
            (
                GateKind::And
                | GateKind::Nand
                | GateKind::Or
                | GateKind::Nor
                | GateKind::Xor
                | GateKind::Xnor,
                &[a, b],
            ) => {
                let (sa, sb) = (a.shift, b.shift);
                let (a, b) = (a.slot, b.slot);
                match kind {
                    GateKind::And => WOp::FusedAnd2 { dst, a, b, sa, sb },
                    GateKind::Nand => WOp::FusedNand2 { dst, a, b, sa, sb },
                    GateKind::Or => WOp::FusedOr2 { dst, a, b, sa, sb },
                    GateKind::Nor => WOp::FusedNor2 { dst, a, b, sa, sb },
                    GateKind::Xor => WOp::FusedXor2 { dst, a, b, sa, sb },
                    _ => WOp::FusedXnor2 { dst, a, b, sa, sb },
                }
            }
            _ => {
                let first_operand = narrow_u32(pool.fused.len() as u64)?;
                pool.fused.extend_from_slice(inputs);
                WOp::FusedEval {
                    kind,
                    dst,
                    first_operand,
                    operand_count: narrow_u16(inputs.len())?,
                }
            }
        })
    }

    /// The op writing `dst_words` words at `dst` whose bit `i` is bit
    /// `i - shift` of the `src_width`-bit field at `src`, for `W`-bit
    /// words: a [`WOp::ShiftRight`] where the shape allows, otherwise
    /// the general [`WOp::ShiftField`] funnel.
    ///
    /// # Errors
    ///
    /// Returns [`LimitExceeded`] when the field or the shift outgrows
    /// the op's fields.
    pub(crate) fn shift_field<W: Word>(
        dst: u32,
        dst_words: u32,
        src: u32,
        src_width: u32,
        shift: i32,
    ) -> Result<WOp, LimitExceeded> {
        let top_word = (src_width - 1) / W::BITS;
        if shift < 0 && dst_words <= 2 && top_word <= 1 {
            let pair_shift = u64::from(shift.unsigned_abs()) + u64::from((1 - top_word) * W::BITS);
            if let Ok(pair_shift) = u16::try_from(pair_shift) {
                return Ok(WOp::ShiftRight {
                    dst,
                    src,
                    shift: pair_shift,
                    top_word: top_word as u8,
                    spare: (W::BITS - 1 - (src_width - 1) % W::BITS) as u8,
                    dst_words: dst_words as u8,
                });
            }
        }
        WOp::funnel_field::<W>(dst, dst_words, src, src_width, shift)
    }

    /// The general [`WOp::ShiftField`] for any presentation shape.
    ///
    /// # Errors
    ///
    /// As [`WOp::shift_field`].
    pub(crate) fn funnel_field<W: Word>(
        dst: u32,
        dst_words: u32,
        src: u32,
        src_width: u32,
        shift: i32,
    ) -> Result<WOp, LimitExceeded> {
        let top_bit = src_width - 1;
        let offset = (-i64::from(shift)).rem_euclid(i64::from(W::BITS));
        // start(w) = w*B - shift = (base + w)*B + offset
        let base = (-i64::from(shift) - offset) / i64::from(W::BITS);
        Ok(WOp::ShiftField {
            dst,
            src,
            dst_words: narrow_u16(dst_words as usize)?,
            top_word: narrow_u16((top_bit / W::BITS) as usize)?,
            base: narrow_i16(base)?,
            spare: (W::BITS - 1 - top_bit % W::BITS) as u8,
            offset: offset as u8,
        })
    }

    /// The presentation a shift op materializes, or `None` for every
    /// other op. The inverse of [`WOp::shift_field`] for `W`-bit words.
    pub(crate) fn as_field_shift<W: Word>(&self) -> Option<FieldShift> {
        let b = W::BITS;
        Some(match *self {
            WOp::ShiftField {
                dst,
                src,
                dst_words,
                top_word,
                base,
                spare,
                offset,
            } => FieldShift {
                dst,
                dst_words: u32::from(dst_words),
                src,
                src_width: (u32::from(top_word) + 1) * b - u32::from(spare),
                shift: -(i32::from(base) * b as i32 + i32::from(offset)),
            },
            WOp::ShiftRight {
                dst,
                src,
                shift,
                top_word,
                spare,
                dst_words,
            } => FieldShift {
                dst,
                dst_words: u32::from(dst_words),
                src,
                src_width: (u32::from(top_word) + 1) * b - u32::from(spare),
                shift: (1 - i32::from(top_word)) * b as i32 - i32::from(shift),
            },
            _ => return None,
        })
    }

    /// The gate an evaluation op computes — its kind, destination and
    /// operands (`pool` resolves the pooled ones) — or `None` for every
    /// other op. The inverse of [`WOp::gate`]. Nothing is copied out of
    /// the op or the pool: compilation walks every op this way.
    pub(crate) fn as_gate<'a>(
        &self,
        pool: &'a OperandPool,
    ) -> Option<(GateKind, u32, GateOperands<'a>)> {
        let plain = Operand::plain;
        let fused = |slot, shift| Operand { slot, shift };
        let one = |operand| GateOperands::Inline([operand, operand], 1);
        let two = |a, b| GateOperands::Inline([a, b], 2);
        Some(match *self {
            WOp::And2 { dst, a, b } => (GateKind::And, dst, two(plain(a), plain(b))),
            WOp::Nand2 { dst, a, b } => (GateKind::Nand, dst, two(plain(a), plain(b))),
            WOp::Or2 { dst, a, b } => (GateKind::Or, dst, two(plain(a), plain(b))),
            WOp::Nor2 { dst, a, b } => (GateKind::Nor, dst, two(plain(a), plain(b))),
            WOp::Xor2 { dst, a, b } => (GateKind::Xor, dst, two(plain(a), plain(b))),
            WOp::Xnor2 { dst, a, b } => (GateKind::Xnor, dst, two(plain(a), plain(b))),
            WOp::Not { dst, src } => (GateKind::Not, dst, one(plain(src))),
            WOp::Buf { dst, src } => (GateKind::Buf, dst, one(plain(src))),
            WOp::Eval {
                kind,
                dst,
                first_operand,
                operand_count,
            } => {
                let first = first_operand as usize;
                let slots = &pool.plain[first..first + usize::from(operand_count)];
                (kind, dst, GateOperands::Plain(slots))
            }
            WOp::FusedAnd2 { dst, a, b, sa, sb } => {
                (GateKind::And, dst, two(fused(a, sa), fused(b, sb)))
            }
            WOp::FusedNand2 { dst, a, b, sa, sb } => {
                (GateKind::Nand, dst, two(fused(a, sa), fused(b, sb)))
            }
            WOp::FusedOr2 { dst, a, b, sa, sb } => {
                (GateKind::Or, dst, two(fused(a, sa), fused(b, sb)))
            }
            WOp::FusedNor2 { dst, a, b, sa, sb } => {
                (GateKind::Nor, dst, two(fused(a, sa), fused(b, sb)))
            }
            WOp::FusedXor2 { dst, a, b, sa, sb } => {
                (GateKind::Xor, dst, two(fused(a, sa), fused(b, sb)))
            }
            WOp::FusedXnor2 { dst, a, b, sa, sb } => {
                (GateKind::Xnor, dst, two(fused(a, sa), fused(b, sb)))
            }
            WOp::FusedNot { dst, src, shift } => (GateKind::Not, dst, one(fused(src, shift))),
            WOp::FusedBuf { dst, src, shift } => (GateKind::Buf, dst, one(fused(src, shift))),
            WOp::FusedEval {
                kind,
                dst,
                first_operand,
                operand_count,
            } => {
                let first = first_operand as usize;
                let operands = &pool.fused[first..first + usize::from(operand_count)];
                (kind, dst, GateOperands::Fused(operands))
            }
            _ => return None,
        })
    }

    /// The shifted presentations fused into this op's operands: one
    /// per distinct shifted operand (a gate reading one presentation
    /// twice fuses it twice but stages it once), 0 for every op but a
    /// fused gate.
    pub(crate) fn fused_presentations(&self, pool: &OperandPool) -> u64 {
        let Some((_, _, operands)) = self.as_gate(pool) else {
            return 0;
        };
        let first_reads = operands.iter().enumerate().filter(|&(k, operand)| {
            operand.shift.is_shift() && !operands.iter().take(k).any(|o| o == operand)
        });
        first_reads.count() as u64
    }

    /// The arena words this op touches, for a `W`-bit program: calls
    /// `read(word, bit)` for each word it reads — `bit` is `Some` when
    /// the op reads that one bit of the word alone — and returns the
    /// words it writes. Every read comes before the op's first write.
    pub(crate) fn accesses<W: Word>(
        &self,
        pool: &OperandPool,
        mut read: impl FnMut(u32, Option<u32>),
    ) -> Range<u32> {
        let span = |dst: u32, words: u32| dst..dst + words;
        match *self {
            WOp::MergeShl1Low { dst, src } => {
                read(src, None);
                read(dst, None);
                span(dst, 1)
            }
            WOp::MergeShl1 { dst, src, carry } => {
                read(src, None);
                read(carry, None);
                read(dst, None);
                span(dst, 1)
            }
            WOp::BroadcastBit { dst, src, bit } | WOp::ExtractBit { dst, src, bit } => {
                read(src, Some(u32::from(bit)));
                span(dst, 1)
            }
            WOp::Zero { dst } => span(dst, 1),
            WOp::InputBroadcast { dst, words, .. } => span(dst, u32::from(words)),
            WOp::InputAligned {
                dst,
                words,
                neg_bits,
                ..
            } => {
                let neg_bits = u32::from(neg_bits);
                read(dst + neg_bits / W::BITS, Some(neg_bits % W::BITS));
                span(dst, u32::from(words))
            }
            WOp::ShiftField {
                dst,
                src,
                dst_words,
                top_word,
                ..
            } => {
                (src..=src + u32::from(top_word)).for_each(|word| read(word, None));
                span(dst, u32::from(dst_words))
            }
            WOp::ShiftRight {
                dst,
                src,
                top_word,
                dst_words,
                ..
            } => {
                read(src, None);
                read(src + u32::from(top_word), None);
                span(dst, u32::from(dst_words))
            }
            _ => {
                let (_, dst, operands) = self.as_gate(pool).expect("every other op is a gate");
                operands.iter().for_each(|operand| read(operand.slot, None));
                span(dst, 1)
            }
        }
    }

    /// Approximate word writes this op performs — the static work
    /// weight the level profiler uses (most ops touch one word; the
    /// multi-word loads and shifts touch their whole span). A fused
    /// gate also counts each presentation it fused, the word the
    /// paper-form C still writes.
    pub(crate) fn weight(&self, pool: &OperandPool) -> u64 {
        match *self {
            WOp::InputBroadcast { words, .. } | WOp::InputAligned { words, .. } => u64::from(words),
            WOp::ShiftField { dst_words, .. } => u64::from(dst_words),
            WOp::ShiftRight { dst_words, .. } => u64::from(dst_words),
            _ => 1 + self.fused_presentations(pool),
        }
    }

    /// This op with every arena word `w` it names moved to `at(w)`. The
    /// words an op addresses as one run from a base (a multi-word write,
    /// a shift's source field) must move as one run; the pooled gates'
    /// operands move with [`OperandPool::renumber`].
    pub(crate) fn renumber(&self, at: impl Fn(u32) -> u32) -> WOp {
        let mut op = self.clone();
        match &mut op {
            WOp::And2 { dst, a, b }
            | WOp::Nand2 { dst, a, b }
            | WOp::Or2 { dst, a, b }
            | WOp::Nor2 { dst, a, b }
            | WOp::Xor2 { dst, a, b }
            | WOp::Xnor2 { dst, a, b }
            | WOp::FusedAnd2 { dst, a, b, .. }
            | WOp::FusedNand2 { dst, a, b, .. }
            | WOp::FusedOr2 { dst, a, b, .. }
            | WOp::FusedNor2 { dst, a, b, .. }
            | WOp::FusedXor2 { dst, a, b, .. }
            | WOp::FusedXnor2 { dst, a, b, .. } => {
                (*dst, *a, *b) = (at(*dst), at(*a), at(*b));
            }
            WOp::Not { dst, src }
            | WOp::Buf { dst, src }
            | WOp::FusedNot { dst, src, .. }
            | WOp::FusedBuf { dst, src, .. }
            | WOp::MergeShl1Low { dst, src }
            | WOp::BroadcastBit { dst, src, .. }
            | WOp::ExtractBit { dst, src, .. }
            | WOp::ShiftField { dst, src, .. }
            | WOp::ShiftRight { dst, src, .. } => (*dst, *src) = (at(*dst), at(*src)),
            WOp::MergeShl1 { dst, src, carry } => {
                (*dst, *src, *carry) = (at(*dst), at(*src), at(*carry));
            }
            WOp::Eval { dst, .. }
            | WOp::FusedEval { dst, .. }
            | WOp::Zero { dst }
            | WOp::InputBroadcast { dst, .. }
            | WOp::InputAligned { dst, .. } => *dst = at(*dst),
        }
        op
    }
}

/// Where the shift-eliminated compiler stages gate-input presentations:
/// a gate's `k`-th distinct shifted input is presented at
/// `base + k * stride`, and every staging word lies in `base..end`.
/// A fused presentation keeps its staging word in the arena, unwritten
/// by the executor and the native kernel, so the paper-form C (which
/// still writes it), the native kernel and the interpreter share one
/// layout.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct Staging {
    pub base: u32,
    pub stride: u32,
    pub end: u32,
}

impl Staging {
    /// Whether arena word `word` stages a presentation.
    pub(crate) fn holds(&self, word: u32) -> bool {
        (self.base..self.end).contains(&word)
    }

    /// The word presentation `k` of a gate starts at.
    pub(crate) fn slot(&self, k: u32) -> u32 {
        self.base + k * self.stride
    }
}

/// A compiled parallel-technique program.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub(crate) struct Program {
    pub ops: Vec<WOp>,
    /// Operand pool for the pooled gates (3+ inputs).
    pub operands: OperandPool,
    /// Total arena words (fields + scratch).
    pub arena_words: usize,
    pub input_count: usize,
    /// The presentation staging words (empty for the unoptimized
    /// compiler, which stages none).
    pub staging: Staging,
}

impl Program {
    /// Shifted presentations fused into gate operands.
    pub(crate) fn fused_presentations(&self) -> usize {
        let fused = self
            .ops
            .iter()
            .map(|op| op.fused_presentations(&self.operands));
        fused.sum::<u64>() as usize
    }

    /// The word operations the program stands for: one per op, plus one
    /// per fused presentation — the count before fusion, which the
    /// paper's op-count figures and the generated C still have.
    pub(crate) fn word_ops(&self) -> usize {
        self.ops.len() + self.fused_presentations()
    }

    /// Executes the ops in `ops` — the whole stream, or one
    /// compile-time level segment of it when profiling — over `arena`,
    /// with primary input `i` broadcast through `inputs[i]` (all ones
    /// or all zeros in each lane). A word cell runs one vector; a lane
    /// row runs one vector per lane. The cell's word type must be the
    /// one the program was compiled for.
    pub(crate) fn run<C: Cell>(&self, arena: &mut [C], inputs: &[C], ops: Range<usize>) {
        self.run_inline(arena, inputs, ops);
    }

    /// [`Program::run`], inlined into its caller: the block pass's
    /// x86-64-v3 and v4 instances compile the op loop with their own
    /// target features this way.
    #[inline(always)]
    pub(crate) fn run_inline<C: Cell>(&self, arena: &mut [C], inputs: &[C], ops: Range<usize>) {
        debug_assert_eq!(inputs.len(), self.input_count);
        debug_assert_eq!(arena.len(), self.arena_words);
        for op in &self.ops[ops] {
            self.exec_op(arena, inputs, op);
        }
    }

    /// Runs one op: a single dispatch on its shape, every arena index
    /// bounds-checked.
    #[inline(always)]
    fn exec_op<C: Cell>(&self, arena: &mut [C], inputs: &[C], op: &WOp) {
        match *op {
            WOp::And2 { dst, a, b } => {
                arena[dst as usize] = arena[a as usize] & arena[b as usize];
            }
            WOp::Nand2 { dst, a, b } => {
                arena[dst as usize] = !(arena[a as usize] & arena[b as usize]);
            }
            WOp::Or2 { dst, a, b } => {
                arena[dst as usize] = arena[a as usize] | arena[b as usize];
            }
            WOp::Nor2 { dst, a, b } => {
                arena[dst as usize] = !(arena[a as usize] | arena[b as usize]);
            }
            WOp::Xor2 { dst, a, b } => {
                arena[dst as usize] = arena[a as usize] ^ arena[b as usize];
            }
            WOp::Xnor2 { dst, a, b } => {
                arena[dst as usize] = !(arena[a as usize] ^ arena[b as usize]);
            }
            WOp::Not { dst, src } => arena[dst as usize] = !arena[src as usize],
            WOp::Buf { dst, src } => arena[dst as usize] = arena[src as usize],
            WOp::Eval {
                kind,
                dst,
                first_operand,
                operand_count,
            } => {
                let operands = &self.operands.plain
                    [first_operand as usize..(first_operand as usize + operand_count as usize)];
                let words = operands.iter().map(|&slot| arena[slot as usize]);
                arena[dst as usize] = eval_word(kind, words);
            }
            WOp::FusedAnd2 { dst, a, b, sa, sb } => {
                arena[dst as usize] = sa.read(arena, a) & sb.read(arena, b);
            }
            WOp::FusedNand2 { dst, a, b, sa, sb } => {
                arena[dst as usize] = !(sa.read(arena, a) & sb.read(arena, b));
            }
            WOp::FusedOr2 { dst, a, b, sa, sb } => {
                arena[dst as usize] = sa.read(arena, a) | sb.read(arena, b);
            }
            WOp::FusedNor2 { dst, a, b, sa, sb } => {
                arena[dst as usize] = !(sa.read(arena, a) | sb.read(arena, b));
            }
            WOp::FusedXor2 { dst, a, b, sa, sb } => {
                arena[dst as usize] = sa.read(arena, a) ^ sb.read(arena, b);
            }
            WOp::FusedXnor2 { dst, a, b, sa, sb } => {
                arena[dst as usize] = !(sa.read(arena, a) ^ sb.read(arena, b));
            }
            WOp::FusedNot { dst, src, shift } => arena[dst as usize] = !shift.read(arena, src),
            WOp::FusedBuf { dst, src, shift } => arena[dst as usize] = shift.read(arena, src),
            WOp::FusedEval {
                kind,
                dst,
                first_operand,
                operand_count,
            } => {
                let operands = &self.operands.fused
                    [first_operand as usize..(first_operand as usize + operand_count as usize)];
                arena[dst as usize] = eval_fused(kind, operands, arena);
            }
            WOp::MergeShl1Low { dst, src } => {
                let merged = arena[src as usize] << 1;
                arena[dst as usize] |= merged;
            }
            WOp::MergeShl1 { dst, src, carry } => {
                let merged =
                    (arena[src as usize] << 1) | (arena[carry as usize] >> (C::Word::BITS - 1));
                arena[dst as usize] |= merged;
            }
            WOp::BroadcastBit { dst, src, bit } => {
                arena[dst as usize] = arena[src as usize].broadcast_bit(u32::from(bit));
            }
            WOp::ExtractBit { dst, src, bit } => {
                let one = C::splat_word(C::Word::ONE);
                arena[dst as usize] = (arena[src as usize] >> u32::from(bit)) & one;
            }
            WOp::Zero { dst } => arena[dst as usize] = C::ZERO,
            WOp::InputBroadcast { dst, words, index } => {
                let fill = inputs[index as usize];
                for w in 0..words {
                    arena[(dst + u32::from(w)) as usize] = fill;
                }
            }
            WOp::InputAligned {
                dst,
                words,
                neg_bits,
                index,
            } => {
                // The previous value currently occupies every
                // non-negative-time bit; bit `neg_bits` is time 0.
                let neg_bits = u32::from(neg_bits);
                let b = C::Word::BITS;
                let prev = arena[(dst + neg_bits / b) as usize].broadcast_bit(neg_bits % b);
                let new = inputs[index as usize];
                for w in 0..u32::from(words) {
                    // Word `w` keeps the previous value in its low
                    // `neg_bits - w*B` bits (none, some, or all).
                    let keep =
                        C::splat_word(C::Word::low_mask(neg_bits.saturating_sub(w * b).min(b)));
                    arena[(dst + w) as usize] = (prev & keep) | (new & !keep);
                }
            }
            WOp::ShiftField {
                dst,
                src,
                dst_words,
                top_word,
                base,
                spare,
                offset,
            } => {
                debug_assert!(
                    dst + u32::from(dst_words) <= src || src + u32::from(top_word) < dst,
                    "shift source and destination must not overlap"
                );
                let window = SourceWindow {
                    src: src as usize,
                    top_word: top_word as isize,
                    spare: u32::from(spare),
                    base: isize::from(base),
                    offset: u32::from(offset),
                };
                match dst_words {
                    1 => window.funnel::<C, 1>(arena, dst),
                    2 => window.funnel::<C, 2>(arena, dst),
                    3 => window.funnel::<C, 3>(arena, dst),
                    4 => window.funnel::<C, 4>(arena, dst),
                    words => window.funnel_n(arena, dst, usize::from(words)),
                }
            }
            WOp::ShiftRight {
                dst,
                src,
                shift,
                top_word,
                spare,
                dst_words,
            } => {
                debug_assert!(
                    dst + u32::from(dst_words) <= src || src + u32::from(top_word) < dst,
                    "shift source and destination must not overlap"
                );
                let spare = u32::from(spare);
                let low = arena[src as usize];
                let high = arena[(src + u32::from(top_word)) as usize].shl_sar(spare, spare);
                let shift = u32::from(shift);
                arena[dst as usize] = C::sar_wide(low, high, shift);
                if dst_words == 2 {
                    arena[dst as usize + 1] = C::sar_wide(low, high, shift + C::Word::BITS);
                }
            }
        }
    }
}

/// Evaluates one word of a pooled gate — the 3+ input kinds and the
/// constants; the 1- and 2-input kinds have shapes of their own —
/// from its operand words.
fn eval_word<C: Cell>(kind: GateKind, mut words: impl Iterator<Item = C>) -> C {
    match kind {
        GateKind::And => words.fold(C::ONES, |acc, w| acc & w),
        GateKind::Nand => !words.fold(C::ONES, |acc, w| acc & w),
        GateKind::Or => words.fold(C::ZERO, |acc, w| acc | w),
        GateKind::Nor => !words.fold(C::ZERO, |acc, w| acc | w),
        GateKind::Xor => words.fold(C::ZERO, |acc, w| acc ^ w),
        GateKind::Xnor => !words.fold(C::ZERO, |acc, w| acc ^ w),
        GateKind::Not => !words.next().expect("a NOT has one operand"),
        GateKind::Buf => words.next().expect("a BUF has one operand"),
        GateKind::Const0 => C::ZERO,
        GateKind::Const1 => C::ONES,
        GateKind::Dff => unreachable!("sequential gates are rejected at compile time"),
    }
}

/// [`eval_word`] over fused operands. Out of line: inlined into the
/// dispatch loop, the six shifted folds slowed every other op (c6288's
/// unoptimized program by about a fifth, measured through `udsim
/// simulate`), while one call per pooled gate is small beside its fold.
#[inline(never)]
fn eval_fused<C: Cell>(kind: GateKind, operands: &[Operand], arena: &[C]) -> C {
    eval_word(kind, operands.iter().map(|o| o.shift.read(arena, o.slot)))
}

/// The source side of a [`WOp::ShiftField`]: the field words a shifted
/// presentation reads, extended below bit 0 with copies of bit 0 and
/// above `src_width` with copies of the top bit.
///
/// Every window word is one clamped read of a field word followed by a
/// left shift and an arithmetic right shift: `(0, 0)` inside the field;
/// `(spare, spare)` at the top word, which replicates the top bit over
/// the `spare` bits past `src_width`; `(spare, B-1)` above it, which
/// broadcasts the top bit; and `(B-1, B-1)` below bit 0, which
/// broadcasts bit 0. Only those shift counts depend on where the word
/// falls, so the read never branches.
struct SourceWindow {
    src: usize,
    top_word: isize,
    /// Bits of the top word past `src_width`.
    spare: u32,
    /// Window index of destination word 0's low source word.
    base: isize,
    /// Funnel offset: destination word `w` starts `offset` bits into
    /// window word `base + w`.
    offset: u32,
}

impl SourceWindow {
    /// Window word `index`.
    #[inline(always)]
    fn word<C: Cell>(&self, arena: &[C], index: isize) -> C {
        let raw = arena[self.src + index.max(0).min(self.top_word) as usize];
        let full = C::Word::BITS - 1;
        let below = full & 0u32.wrapping_sub(u32::from(index < 0));
        let at_top = self.spare & 0u32.wrapping_sub(u32::from(index >= self.top_word));
        let above = (full - self.spare) & 0u32.wrapping_sub(u32::from(index > self.top_word));
        raw.shl_sar(below + at_top, below + at_top + above)
    }

    /// Funnels `N` destination words, unrolled: the `N + 1` window
    /// words are read once into registers, then each destination word
    /// is a funnel shift of two neighbours. `N` is at most 4. Reading
    /// the whole window before the first write is what [`funnel_n`]
    /// cannot do (the compiler must assume a write may alias a later
    /// read); measured against it, this kernel is faster on 1-word
    /// (c432) and 4-word (c6288 at 32 bits) fields and even elsewhere.
    ///
    /// [`funnel_n`]: SourceWindow::funnel_n
    #[inline(always)]
    fn funnel<C: Cell, const N: usize>(&self, arena: &mut [C], dst: u32) {
        let mut window = [C::ZERO; 5];
        for (k, slot) in window[..=N].iter_mut().enumerate() {
            *slot = self.word(arena, self.base + k as isize);
        }
        let out = &mut arena[dst as usize..dst as usize + N];
        for (k, word) in out.iter_mut().enumerate() {
            *word = self.join(window[k], window[k + 1]);
        }
    }

    /// [`SourceWindow::funnel`] for any word count: each window word
    /// is read once and carried to the next destination word.
    fn funnel_n<C: Cell>(&self, arena: &mut [C], dst: u32, words: usize) {
        let mut low = self.word(arena, self.base);
        for k in 0..words {
            let high = self.word(arena, self.base + k as isize + 1);
            arena[dst as usize + k] = self.join(low, high);
            low = high;
        }
    }

    /// The destination word starting `offset` bits into `low`. The
    /// high word's contribution shifts in two steps, so offset 0 (the
    /// whole of `low`) needs no branch.
    #[inline(always)]
    fn join<C: Cell>(&self, low: C, high: C) -> C {
        (low >> self.offset) | ((high << 1) << (C::Word::BITS - 1 - self.offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape_oracle::random_arena;

    #[test]
    fn merge_shl1_carries_across_words() {
        let program = Program {
            ops: vec![
                WOp::MergeShl1Low { dst: 2, src: 0 },
                WOp::MergeShl1 {
                    dst: 3,
                    src: 1,
                    carry: 0,
                },
            ],
            operands: OperandPool::default(),
            staging: Staging::default(),
            arena_words: 4,
            input_count: 0,
        };
        let mut arena = vec![0x8000_0001u32, 0b0101, 0, 0];
        program.run(&mut arena, &[], 0..program.ops.len());
        assert_eq!(arena[2], 0b10);
        assert_eq!(arena[3], 0b1011, "carry bit 31 became bit 0");
    }

    #[test]
    fn merge_shl1_carries_across_u64_words() {
        let program = Program {
            ops: vec![
                WOp::MergeShl1Low { dst: 2, src: 0 },
                WOp::MergeShl1 {
                    dst: 3,
                    src: 1,
                    carry: 0,
                },
            ],
            operands: OperandPool::default(),
            staging: Staging::default(),
            arena_words: 4,
            input_count: 0,
        };
        let mut arena = vec![0x8000_0000_0000_0001u64, 0b0101, 0, 0];
        program.run(&mut arena, &[], 0..program.ops.len());
        assert_eq!(arena[2], 0b10);
        assert_eq!(arena[3], 0b1011, "carry bit 63 became bit 0");
    }

    #[test]
    fn broadcast_and_extract() {
        let program = Program {
            ops: vec![
                WOp::ExtractBit {
                    dst: 1,
                    src: 0,
                    bit: 7,
                },
                WOp::BroadcastBit {
                    dst: 2,
                    src: 0,
                    bit: 7,
                },
            ],
            operands: OperandPool::default(),
            staging: Staging::default(),
            arena_words: 3,
            input_count: 0,
        };
        let mut arena = vec![1u32 << 7, 0xDEAD, 0xBEEF];
        program.run(&mut arena, &[], 0..program.ops.len());
        assert_eq!(arena[1], 1);
        assert_eq!(arena[2], !0);
    }

    #[test]
    fn input_broadcast_fills_words() {
        let program = Program {
            ops: vec![WOp::InputBroadcast {
                dst: 0,
                words: 2,
                index: 0,
            }],
            operands: OperandPool::default(),
            staging: Staging::default(),
            arena_words: 2,
            input_count: 1,
        };
        let mut arena = vec![0u32, 0];
        program.run(&mut arena, &[!0u32], 0..program.ops.len());
        assert_eq!(arena, vec![!0u32, !0]);
        program.run(&mut arena, &[0u32], 0..program.ops.len());
        assert_eq!(arena, vec![0, 0]);
    }

    #[test]
    fn input_aligned_keeps_previous_value_in_negative_bits() {
        // Field of width 3, align -2: bits 0,1 = times -2,-1; bit 2 = time 0.
        let program = Program {
            ops: vec![WOp::InputAligned {
                dst: 0,
                words: 1,
                neg_bits: 2,
                index: 0,
            }],
            operands: OperandPool::default(),
            staging: Staging::default(),
            arena_words: 1,
            input_count: 1,
        };
        let mut arena = vec![0u32];
        program.run(&mut arena, &[!0u32], 0..program.ops.len());
        // prev was 0 (bit 2 of zeroed arena), new is 1.
        assert_eq!(arena[0] & 0b111, 0b100);
        program.run(&mut arena, &[0u32], 0..program.ops.len());
        // prev is 1 now, new is 0.
        assert_eq!(arena[0] & 0b111, 0b011);
    }

    #[test]
    fn input_aligned_spanning_words() {
        // 40 negative bits: words 0 fully prev, word 1 split at bit 8.
        let program = Program {
            ops: vec![WOp::InputAligned {
                dst: 0,
                words: 2,
                neg_bits: 40,
                index: 0,
            }],
            operands: OperandPool::default(),
            staging: Staging::default(),
            arena_words: 2,
            input_count: 1,
        };
        let mut arena = vec![0u32, 0];
        program.run(&mut arena, &[!0u32], 0..program.ops.len());
        assert_eq!(arena[0], 0);
        assert_eq!(arena[1], !0u32 << 8);
    }

    #[test]
    fn input_aligned_split_lands_differently_in_u64_words() {
        // The same 40 negative bits fit inside one 64-bit word: the
        // split mask is exercised at bit 40 instead of a word boundary.
        let program = Program {
            ops: vec![WOp::InputAligned {
                dst: 0,
                words: 1,
                neg_bits: 40,
                index: 0,
            }],
            operands: OperandPool::default(),
            staging: Staging::default(),
            arena_words: 1,
            input_count: 1,
        };
        let mut arena = vec![0u64];
        program.run(&mut arena, &[!0u64], 0..program.ops.len());
        assert_eq!(arena[0], !0u64 << 40);
    }

    #[test]
    fn shift_field_right_replicates_top() {
        // src field: width 4 (one word), bits = 0b1010 (t0=0,t1=1,t2=0,t3=1).
        // Right shift by 2 (shift = -2): presented[i] = src[i + 2]:
        // presented bits: i0=src2=0, i1=src3=1, i2..=replicate src3=1.
        let program = Program {
            ops: vec![WOp::shift_field::<u32>(1, 1, 0, 4, -2).unwrap()],
            operands: OperandPool::default(),
            staging: Staging::default(),
            arena_words: 2,
            input_count: 0,
        };
        let mut arena = vec![0b1010u32, 0];
        program.run(&mut arena, &[], 0..program.ops.len());
        assert_eq!(arena[1], !0u32 << 1, "i0=0 then all 1s");
    }

    #[test]
    fn shift_field_left_replicates_bottom() {
        // src bits 0b0110 (t0=0): left shift 2: presented[0..2] = src[0] = 0,
        // presented[2] = src[0] = 0, presented[3] = src[1] = 1, ...
        let program = Program {
            ops: vec![WOp::shift_field::<u32>(1, 1, 0, 4, 2).unwrap()],
            operands: OperandPool::default(),
            staging: Staging::default(),
            arena_words: 2,
            input_count: 0,
        };
        let mut arena = vec![0b0110u32, 0];
        program.run(&mut arena, &[], 0..program.ops.len());
        // presented[i] = src[i-2] clamped: i=0,1 -> src[0]=0; i=2 -> src[0]=0;
        // i=3 -> src[1]=1; i=4 -> src[2]=1; i=5 -> src[3]=0; i>=6 -> src[3]=0.
        assert_eq!(arena[1] & 0x3F, 0b011000);
    }

    #[test]
    fn shift_field_across_words() {
        // 40-bit field over two words; right shift by 8.
        let program = Program {
            ops: vec![WOp::shift_field::<u32>(2, 2, 0, 40, -8).unwrap()],
            operands: OperandPool::default(),
            staging: Staging::default(),
            arena_words: 4,
            input_count: 0,
        };
        let mut arena = vec![0x1234_5678u32, 0x9A, 0, 0];
        program.run(&mut arena, &[], 0..program.ops.len());
        assert_eq!(arena[2], 0x9A12_3456);
        // Word 1: bits 40.. replicate top bit (bit 39 of src = 1).
        assert_eq!(arena[3], 0xFFFF_FFFF, "top replication above bit 39");
    }

    #[test]
    fn shift_field_with_full_top_word() {
        // A 32-bit-wide source exercises the `valid == BITS` boundary of
        // the top-word sanitization mask: `low_mask(32)` must be all
        // ones, not a shift panic (the consolidated-helper regression).
        let program = Program {
            ops: vec![WOp::shift_field::<u32>(1, 1, 0, 32, -1).unwrap()],
            operands: OperandPool::default(),
            staging: Staging::default(),
            arena_words: 2,
            input_count: 0,
        };
        let mut arena = vec![0x8000_0001u32, 0];
        program.run(&mut arena, &[], 0..program.ops.len());
        // presented[i] = src[i+1]: bits 0..=30 of src>>1, bit 31
        // replicates src bit 31 (= 1).
        assert_eq!(arena[1], 0xC000_0000);
    }

    /// Every shape [`WOp::shift_field`] can decode — source widths
    /// `1..=2B+1`, right shifts `1..2B`, one or two destination words —
    /// built by `decode` and by the general funnel and run on copies of
    /// one random arena: the first shape whose words differ, if any.
    fn first_decode_mismatch<W: Word>(
        decode: impl Fn(u32, u32, u32, u32, i32) -> WOp,
    ) -> Option<String> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED_1990);
        let b = W::BITS;
        let run = |op: WOp, before: &[W]| {
            let mut arena = before.to_vec();
            let program = Program {
                ops: vec![op],
                operands: OperandPool::default(),
                staging: Staging::default(),
                arena_words: arena.len(),
                input_count: 0,
            };
            program.run(&mut arena, &[], 0..1);
            arena
        };
        for src_width in 1..=2 * b + 1 {
            // A guard word below the source and one between it and the
            // destination.
            let src = 1;
            let dst = src + src_width.div_ceil(b) + 1;
            for right in 1..2 * b as i32 {
                let before = random_arena::<W>(&mut rng, (dst + 3) as usize);
                for dst_words in 1..=2 {
                    let decoded = decode(dst, dst_words, src, src_width, -right);
                    let funnel =
                        WOp::funnel_field::<W>(dst, dst_words, src, src_width, -right).unwrap();
                    if run(decoded.clone(), &before) != run(funnel, &before) {
                        return Some(format!(
                            "{b}-bit width {src_width}, shift -{right}, {dst_words} word(s): {decoded:?}"
                        ));
                    }
                }
            }
        }
        None
    }

    #[test]
    fn decoded_right_shifts_match_the_funnel() {
        fn check<W: Word>() {
            let decode = |dst, dst_words, src, src_width: u32, shift| {
                let op = WOp::shift_field::<W>(dst, dst_words, src, src_width, shift).unwrap();
                assert_eq!(
                    matches!(op, WOp::ShiftRight { .. }),
                    src_width <= 2 * W::BITS,
                    "{op:?}"
                );
                op
            };
            assert_eq!(first_decode_mismatch::<W>(decode), None);
        }
        check::<u32>();
        check::<u64>();
    }

    /// Negative control: a decode whose pair shift is one bit short
    /// must be caught.
    #[test]
    fn an_off_by_one_decode_is_caught() {
        fn off_by_one<W: Word>(dst: u32, dst_words: u32, src: u32, width: u32, shift: i32) -> WOp {
            match WOp::shift_field::<W>(dst, dst_words, src, width, shift).unwrap() {
                WOp::ShiftRight {
                    dst,
                    src,
                    shift,
                    top_word,
                    spare,
                    dst_words,
                } => WOp::ShiftRight {
                    dst,
                    src,
                    shift: shift - 1,
                    top_word,
                    spare,
                    dst_words,
                },
                funnel => funnel,
            }
        }
        assert!(first_decode_mismatch::<u32>(off_by_one::<u32>).is_some());
        assert!(first_decode_mismatch::<u64>(off_by_one::<u64>).is_some());
    }

    #[test]
    fn shift_ops_recover_their_presentation() {
        for (dst_words, src_width, shift) in [(1, 4, -2), (2, 40, -8), (1, 4, 2), (3, 70, -1)] {
            let op = WOp::shift_field::<u32>(9, dst_words, 1, src_width, shift).unwrap();
            let expected = FieldShift {
                dst: 9,
                dst_words,
                src: 1,
                src_width,
                shift,
            };
            assert_eq!(op.as_field_shift::<u32>(), Some(expected), "{op:?}");
        }
        assert_eq!(WOp::Zero { dst: 0 }.as_field_shift::<u32>(), None);
    }

    #[test]
    fn eval_word_all_kinds() {
        let words = || [0b1100u32, 0b1010].into_iter();
        assert_eq!(eval_word(GateKind::And, words()), 0b1000);
        assert_eq!(eval_word(GateKind::Or, words()), 0b1110);
        assert_eq!(eval_word(GateKind::Xor, words()), 0b0110);
        assert_eq!(eval_word(GateKind::Nand, words()), !0b1000u32);
        assert_eq!(eval_word(GateKind::Not, words().take(1)), !0b1100u32);
        assert_eq!(eval_word(GateKind::Const1, words().take(0)), !0u32);
    }
}
