//! Bit-field layout: one field per net, one bit per time unit, packed
//! into machine words exactly as the paper's implementation does.

use crate::word::Word;

/// Bits per machine word in the paper's own implementation. Its tables
/// (1/2/4 words per field) are in terms of 32-bit words, so `u32` is
/// this crate's default arena word type ([`ParallelSimulator`]); see
/// [`Word`] for the 64-bit option, which the runtime engines default to.
///
/// [`ParallelSimulator`]: crate::ParallelSimulator
pub const WORD_BITS: u32 = 32;

/// Placement of one net's bit-field inside the word arena.
///
/// Bit `i` of the field (bit `i % B` of word `base + i / B`, for a
/// `B`-bit arena word) represents the net's value at time `align + i`.
/// In the unoptimized technique `align` is 0 for every net; shift
/// elimination assigns differing (possibly negative) alignments.
///
/// The word size is fixed at construction (`words` is derived from it);
/// the accessors are generic and must be used with the same word type
/// the layout was built for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FieldLayout {
    /// First word of the field in the arena.
    pub base: u32,
    /// Field width in bits (time points covered).
    pub width: u32,
    /// Words allocated (`ceil(width / word_bits)`).
    pub words: u32,
    /// Time represented by bit 0.
    pub align: i32,
}

impl FieldLayout {
    /// Creates a layout over [`WORD_BITS`]-bit (32-bit) words; `words`
    /// is derived from `width`.
    pub fn new(base: u32, width: u32, align: i32) -> Self {
        Self::with_word_bits(base, width, align, WORD_BITS)
    }

    /// Creates a layout over `word_bits`-bit words.
    pub fn with_word_bits(base: u32, width: u32, align: i32, word_bits: u32) -> Self {
        FieldLayout {
            base,
            width,
            words: width.div_ceil(word_bits),
            align,
        }
    }

    /// The bit index holding the value at `time`, or `None` if the field
    /// does not cover that time.
    pub fn bit_of_time(&self, time: i64) -> Option<u32> {
        let offset = time - i64::from(self.align);
        if offset < 0 || offset >= i64::from(self.width) {
            None
        } else {
            Some(offset as u32)
        }
    }

    /// Reads the bit for `time` from the arena, replicating the top bit
    /// for times beyond the field (a net never changes after its level)
    /// and the bottom bit for earlier times (it cannot have changed yet).
    pub fn read_time<W: Word>(&self, arena: &[W], time: i64) -> bool {
        // max(0) before clamp: a degenerate zero-width field must not
        // panic with an inverted clamp range.
        let top = (i64::from(self.width) - 1).max(0);
        let offset = (time - i64::from(self.align)).clamp(0, top) as u32;
        self.read_bit(arena, offset)
    }

    /// The arena index of the word holding field bit `bit`, widened to
    /// `usize` *before* the add so the sum cannot wrap `u32`.
    fn word_index<W: Word>(&self, bit: u32) -> usize {
        self.base as usize + (bit / W::BITS) as usize
    }

    /// Reads field bit `bit` (must be `< width`... clamped to the top
    /// word's valid range by construction).
    pub fn read_bit<W: Word>(&self, arena: &[W], bit: u32) -> bool {
        debug_assert!(bit < self.width);
        arena[self.word_index::<W>(bit)].bit(bit % W::BITS)
    }

    /// Writes field bit `bit`.
    pub fn write_bit<W: Word>(&self, arena: &mut [W], bit: u32, value: bool) {
        debug_assert!(bit < self.width);
        let word = &mut arena[self.word_index::<W>(bit)];
        let mask = W::ONE << (bit % W::BITS);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// The bit index of the final (settled) value: the value at the
    /// net's level, which is the highest time the field represents
    /// meaningfully (`width - 1`; saturates for zero-width fields).
    pub fn final_bit(&self) -> u32 {
        self.width.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_up() {
        assert_eq!(FieldLayout::new(0, 1, 0).words, 1);
        assert_eq!(FieldLayout::new(0, 32, 0).words, 1);
        assert_eq!(FieldLayout::new(0, 33, 0).words, 2);
        assert_eq!(FieldLayout::new(0, 125, 0).words, 4);
    }

    #[test]
    fn wider_words_halve_the_count() {
        assert_eq!(FieldLayout::with_word_bits(0, 33, 0, 64).words, 1);
        assert_eq!(FieldLayout::with_word_bits(0, 65, 0, 64).words, 2);
        assert_eq!(FieldLayout::with_word_bits(0, 125, 0, 64).words, 2);
    }

    #[test]
    fn bit_of_time_respects_alignment() {
        let f = FieldLayout::new(0, 4, -1);
        assert_eq!(f.bit_of_time(-1), Some(0));
        assert_eq!(f.bit_of_time(0), Some(1));
        assert_eq!(f.bit_of_time(2), Some(3));
        assert_eq!(f.bit_of_time(3), None);
        assert_eq!(f.bit_of_time(-2), None);
    }

    #[test]
    fn read_write_bits_across_words() {
        let f = FieldLayout::new(1, 40, 0);
        let mut arena = vec![0u32; 3];
        f.write_bit(&mut arena, 0, true);
        f.write_bit(&mut arena, 35, true);
        assert!(f.read_bit(&arena, 0));
        assert!(f.read_bit(&arena, 35));
        assert!(!f.read_bit(&arena, 34));
        assert_eq!(arena[0], 0, "field starts at word 1");
        assert_eq!(arena[1], 1);
        assert_eq!(arena[2], 1 << 3);
        f.write_bit(&mut arena, 35, false);
        assert!(!f.read_bit(&arena, 35));
    }

    #[test]
    fn read_write_bits_in_u64_words() {
        let f = FieldLayout::with_word_bits(0, 70, 0, 64);
        assert_eq!(f.words, 2);
        let mut arena = vec![0u64; 2];
        f.write_bit(&mut arena, 63, true);
        f.write_bit(&mut arena, 64, true);
        assert_eq!(arena[0], 1 << 63);
        assert_eq!(arena[1], 1);
        assert!(f.read_bit(&arena, 63));
        assert!(f.read_bit(&arena, 64));
        assert!(!f.read_bit(&arena, 65));
    }

    #[test]
    fn read_time_replicates_at_the_edges() {
        let f = FieldLayout::new(0, 3, 1); // times 1..=3
        let mut arena = vec![0u32; 1];
        f.write_bit(&mut arena, 0, true); // time 1 = 1
        f.write_bit(&mut arena, 2, false); // time 3 = 0 (already)
        assert!(f.read_time(&arena, 0), "below field: bottom bit");
        assert!(f.read_time(&arena, 1));
        assert!(!f.read_time(&arena, 3));
        assert!(!f.read_time(&arena, 99), "beyond field: top bit");
    }

    #[test]
    fn final_bit_is_top_of_width() {
        assert_eq!(FieldLayout::new(0, 19, 0).final_bit(), 18);
    }
}
