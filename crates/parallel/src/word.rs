//! The arena word abstraction: the parallel technique packs one time
//! step per bit into machine words, and every layer of the compiler —
//! field sizing, trimming classification, shift-merge carries, the C
//! emitter — must agree on how wide those words are.
//!
//! The paper's implementation and its tables (1/2/4 words per field) are
//! in terms of 32-bit words; [`u32`] reproduces them. On a 64-bit host
//! [`u64`] halves the word count of every multi-word field, which is the
//! obvious modernization §3 invites ("the number of instructions ...
//! proportional to the number of words").

use std::fmt::Debug;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, Not, Shl, Shr};

/// An unsigned machine word usable as the bit-field arena element.
///
/// Implemented for [`u32`] (the paper's width) and [`u64`].
pub trait Word:
    Copy
    + Eq
    + Debug
    + Default
    + Send
    + Sync
    + 'static
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
    + BitOrAssign
    + BitAndAssign
{
    /// Bits per word.
    const BITS: u32;
    /// The all-zeros word.
    const ZERO: Self;
    /// The word with value 1.
    const ONE: Self;
    /// The all-ones word.
    const ONES: Self;
    /// The C type the code generator emits for this width.
    const C_TYPE: &'static str;

    /// All bits set to `bit` (the broadcast fill the paper's Fig. 9
    /// trimming statements use).
    fn splat(bit: bool) -> Self;

    /// Value of bit `index` (must be `< BITS`).
    fn bit(self, index: u32) -> bool;

    /// The mask with the low `bits` bits set. Unlike a raw
    /// `(1 << bits) - 1`, this is well-defined for `bits == BITS`
    /// (all ones) — the boundary a 32-level circuit hits on a 32-bit
    /// word. `bits > BITS` is a caller bug.
    fn low_mask(bits: u32) -> Self;

    /// `self << left`, then an arithmetic (sign-replicating) shift right
    /// by `right` (both `< BITS`).
    fn shl_sar(self, left: u32, right: u32) -> Self;

    /// The low word of the double-width value `high:low`, sign-extended
    /// from `high`'s top bit, after an arithmetic shift right by
    /// `shift`. Shifts of `2 * BITS` or more leave the sign broadcast.
    /// One shift of a wider signed integer: [`i64`] for [`u32`], [`i128`]
    /// for [`u64`].
    fn sar_wide(low: Self, high: Self, shift: u32) -> Self;

    /// Number of set bits.
    fn count_ones(self) -> u32;

    /// Number of trailing zero bits (`BITS` for the zero word) — the
    /// activity profiler walks set bits with it.
    fn trailing_zeros(self) -> u32;
}

macro_rules! impl_word {
    ($ty:ty, $signed:ty, $wide:ty, $c_type:literal) => {
        impl Word for $ty {
            const BITS: u32 = <$ty>::BITS;
            const ZERO: Self = 0;
            const ONE: Self = 1;
            const ONES: Self = !0;
            const C_TYPE: &'static str = $c_type;

            #[inline]
            fn splat(bit: bool) -> Self {
                (bit as $ty).wrapping_neg()
            }

            #[inline]
            fn bit(self, index: u32) -> bool {
                self >> index & 1 != 0
            }

            #[inline]
            fn low_mask(bits: u32) -> Self {
                debug_assert!(
                    bits <= Self::BITS,
                    "low_mask({bits}) exceeds the {}-bit word",
                    Self::BITS
                );
                if bits >= Self::BITS {
                    !0
                } else {
                    (1 << bits) - 1
                }
            }

            #[inline]
            fn shl_sar(self, left: u32, right: u32) -> Self {
                (((self << left) as $signed) >> right) as $ty
            }

            #[inline]
            fn sar_wide(low: Self, high: Self, shift: u32) -> Self {
                let pair = (<$wide>::from(high as $signed) << Self::BITS) | <$wide>::from(low);
                (pair >> shift.min(2 * Self::BITS - 1)) as $ty
            }

            #[inline]
            fn count_ones(self) -> u32 {
                <$ty>::count_ones(self)
            }

            #[inline]
            fn trailing_zeros(self) -> u32 {
                <$ty>::trailing_zeros(self)
            }
        }
    };
}

impl_word!(u32, i32, i64, "uint32_t");
impl_word!(u64, i64, i128, "uint64_t");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_broadcasts() {
        assert_eq!(<u32 as Word>::splat(true), u32::MAX);
        assert_eq!(<u32 as Word>::splat(false), 0);
        assert_eq!(<u64 as Word>::splat(true), u64::MAX);
    }

    #[test]
    fn low_mask_covers_the_word_boundary() {
        assert_eq!(<u32 as Word>::low_mask(0), 0);
        assert_eq!(<u32 as Word>::low_mask(1), 1);
        assert_eq!(<u32 as Word>::low_mask(31), u32::MAX >> 1);
        assert_eq!(<u32 as Word>::low_mask(32), u32::MAX, "full-width mask");
        assert_eq!(<u64 as Word>::low_mask(63), u64::MAX >> 1);
        assert_eq!(<u64 as Word>::low_mask(64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "low_mask")]
    #[cfg(debug_assertions)]
    fn low_mask_rejects_oversized_counts() {
        let _ = <u32 as Word>::low_mask(33);
    }

    #[test]
    fn shl_sar_replicates_the_bit_it_moves_to_the_top() {
        // Bit 2 to the top and back: every bit above it copies it.
        assert_eq!(<u32 as Word>::shl_sar(0b0100, 29, 29), 0xFFFF_FFFC);
        // ... or all the way down: a broadcast of bit 2.
        assert_eq!(<u32 as Word>::shl_sar(0b0100, 29, 31), u32::MAX);
        assert_eq!(<u32 as Word>::shl_sar(0b0110, 31, 31), 0, "bit 0 broadcast");
        assert_eq!(<u32 as Word>::shl_sar(0xDEAD_BEEF, 0, 0), 0xDEAD_BEEF);
        assert_eq!(<u64 as Word>::shl_sar(1 << 40, 23, 23), u64::MAX << 40);
    }

    #[test]
    fn sar_wide_shifts_the_sign_extended_pair() {
        assert_eq!(
            <u32 as Word>::sar_wide(0x89AB_CDEF, 0x0123_4567, 8),
            0x6789_ABCD
        );
        assert_eq!(
            <u32 as Word>::sar_wide(0x89AB_CDEF, 0x8123_4567, 40),
            0xFF81_2345
        );
        assert_eq!(<u32 as Word>::sar_wide(0, 0x8000_0000, 63), u32::MAX);
        assert_eq!(
            <u32 as Word>::sar_wide(!0, 0x7FFF_FFFF, 99),
            0,
            "past the pair: sign"
        );
        assert_eq!(<u64 as Word>::sar_wide(1 << 63, 1, 63), 0b11);
        assert_eq!(<u64 as Word>::sar_wide(0, 1 << 63, 64), 1 << 63);
        assert_eq!(<u64 as Word>::sar_wide(0, 1 << 63, 200), u64::MAX);
    }

    #[test]
    fn bit_reads() {
        assert!(<u32 as Word>::bit(1 << 31, 31));
        assert!(!<u32 as Word>::bit(1 << 31, 0));
        assert!(<u64 as Word>::bit(1 << 63, 63));
    }
}
