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
    /// The signed C type of the same width: the native kernel's fused
    /// operands shift through it arithmetically, as [`Word::shl_sar`].
    const C_SIGNED_TYPE: &'static str;

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
    ($ty:ty, $signed:ty, $wide:ty, $c_type:literal, $c_signed_type:literal) => {
        impl Word for $ty {
            const BITS: u32 = <$ty>::BITS;
            const ZERO: Self = 0;
            const ONE: Self = 1;
            const ONES: Self = !0;
            const C_TYPE: &'static str = $c_type;
            const C_SIGNED_TYPE: &'static str = $c_signed_type;

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

impl_word!(u32, i32, i64, "uint32_t", "int32_t");
impl_word!(u64, i64, i128, "uint64_t", "int64_t");

/// Vectors one block carries through a pass of the op stream, and the
/// widest lane row: one vector per lane of a [`Lanes`] cell.
pub(crate) const LANES: usize = 64;

/// The narrow lane row: a block whose 64-lane rows would outgrow the
/// lane budget runs its vectors through rows of this many lanes, one
/// group of vectors after another.
pub(crate) const GROUP_LANES: usize = 8;

/// One slot of the executor's arena: a [`Word`] when one vector runs
/// per pass, or a [`Lanes`] row of words when a block of vectors
/// shares the pass. The op semantics are written once over this trait;
/// every operation acts on each lane's word alone.
pub(crate) trait Cell:
    Copy
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
    + BitOrAssign
{
    /// The word each lane holds.
    type Word: Word;
    /// Every lane all zeros.
    const ZERO: Self;
    /// Every lane all ones.
    const ONES: Self;

    /// Every lane holding `word`.
    fn splat_word(word: Self::Word) -> Self;

    /// Each lane's bit `index`, broadcast through that lane's word.
    fn broadcast_bit(self, index: u32) -> Self;

    /// [`Word::shl_sar`] in every lane.
    fn shl_sar(self, left: u32, right: u32) -> Self;

    /// [`Word::sar_wide`] in every lane.
    fn sar_wide(low: Self, high: Self, shift: u32) -> Self;
}

impl<W: Word> Cell for W {
    type Word = W;
    const ZERO: Self = <W as Word>::ZERO;
    const ONES: Self = <W as Word>::ONES;

    #[inline(always)]
    fn splat_word(word: W) -> Self {
        word
    }

    #[inline(always)]
    fn broadcast_bit(self, index: u32) -> Self {
        W::splat(self.bit(index))
    }

    #[inline(always)]
    fn shl_sar(self, left: u32, right: u32) -> Self {
        Word::shl_sar(self, left, right)
    }

    #[inline(always)]
    fn sar_wide(low: Self, high: Self, shift: u32) -> Self {
        Word::sar_wide(low, high, shift)
    }
}

/// A block's arena slot: lane `k` is the slot's word for the `k`-th
/// vector the row carries. An arena of these is lane-major — slot `s`,
/// lane `k` at word `s * N + k` — so each op reads and writes whole
/// rows. `N` is [`LANES`] or [`GROUP_LANES`].
///
/// `INLINE_SHIFTS` says where [`Cell::shl_sar`] runs: out of line in
/// the baseline executor (`false`), inlined into the x86-64-v3 and v4
/// instances of the block pass (`true`, see the `block` module). The
/// two types share one layout ([`Lanes::inline_shifts`]).
///
/// A row is aligned as its word: the block's scratch places rows on
/// 64-byte boundaries, and an 8-lane row of `u32` (32 bytes) is not
/// padded to a cache line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(transparent)]
pub(crate) struct Lanes<W, const N: usize, const INLINE_SHIFTS: bool = false>(pub [W; N]);

impl<W: Word, const N: usize, const I: bool> Lanes<W, N, I> {
    #[inline(always)]
    fn map(self, f: impl Fn(W) -> W) -> Self {
        Lanes(std::array::from_fn(|k| f(self.0[k])))
    }

    #[inline(always)]
    fn zip(self, other: Self, f: impl Fn(W, W) -> W) -> Self {
        Lanes(std::array::from_fn(|k| f(self.0[k], other.0[k])))
    }

    /// [`Word::shl_sar`] in every lane, inlined wherever it is called.
    #[inline(always)]
    fn shl_sar_inline(self, left: u32, right: u32) -> Self {
        self.map(|w| w.shl_sar(left, right))
    }

    /// The words of `rows`, row after row.
    pub(crate) fn words(rows: &[Self]) -> &[W] {
        // SAFETY: `Lanes` is `repr(transparent)` over `[W; N]`, so the
        // rows are `rows.len() * N` consecutive words.
        unsafe { std::slice::from_raw_parts(rows.as_ptr().cast(), rows.len() * N) }
    }
}

impl<W: Word, const N: usize> Lanes<W, N> {
    /// The same rows as the type whose executor inlines its shifts.
    pub(crate) fn inline_shifts(rows: &mut [Self]) -> &mut [Lanes<W, N, true>] {
        // SAFETY: `Lanes` is `repr(transparent)` over `[W; N]`, so both
        // instantiations have the same size, alignment and layout; the
        // cast slice borrows `rows` mutably for its whole life.
        unsafe { std::slice::from_raw_parts_mut(rows.as_mut_ptr().cast(), rows.len()) }
    }
}

macro_rules! lanes_binary_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<W: Word, const N: usize, const I: bool> $trait for Lanes<W, N, I> {
            type Output = Self;

            #[inline(always)]
            fn $method(self, rhs: Self) -> Self {
                self.zip(rhs, |a, b| a $op b)
            }
        }
    };
}

lanes_binary_op!(BitAnd, bitand, &);
lanes_binary_op!(BitOr, bitor, |);
lanes_binary_op!(BitXor, bitxor, ^);

impl<W: Word, const N: usize, const I: bool> Not for Lanes<W, N, I> {
    type Output = Self;

    #[inline(always)]
    fn not(self) -> Self {
        self.map(|w| !w)
    }
}

impl<W: Word, const N: usize, const I: bool> Shl<u32> for Lanes<W, N, I> {
    type Output = Self;

    #[inline(always)]
    fn shl(self, bits: u32) -> Self {
        self.map(|w| w << bits)
    }
}

impl<W: Word, const N: usize, const I: bool> Shr<u32> for Lanes<W, N, I> {
    type Output = Self;

    #[inline(always)]
    fn shr(self, bits: u32) -> Self {
        self.map(|w| w >> bits)
    }
}

impl<W: Word, const N: usize, const I: bool> BitOrAssign for Lanes<W, N, I> {
    #[inline(always)]
    fn bitor_assign(&mut self, rhs: Self) {
        *self = *self | rhs;
    }
}

/// The shifts inlined into `shl_sar` (each fused gate arm reads one or
/// two operands through it), but in the baseline x86-64 executor only.
#[inline(never)]
fn shl_sar_outlined<W: Word, const N: usize>(
    lanes: Lanes<W, N>,
    left: u32,
    right: u32,
) -> Lanes<W, N> {
    lanes.shl_sar_inline(left, right)
}

/// Every operation runs lane by lane and unrolls into vector
/// instructions over the row: 32 SSE2 ops for a row of 64 `u64` lanes
/// in the baseline x86-64 executor, 16 AVX2 ops in the x86-64-v3
/// instance, 8 AVX-512 ops in the v4 instance (a row of 8 `u64` lanes:
/// 4, 2 and 1).
///
/// `shl_sar` is the exception in the baseline executor: SSE2 has no
/// 64-bit arithmetic shift, so it runs one lane at a time, and inlined
/// into every fused gate arm it made that executor several times larger,
/// which a block run pays for in resident code pages (outlining cost
/// blocks about 8% on c432 through `udsim simulate` and took about
/// 0.06 MiB off the peak resident set). The v3 and v4 instances inline
/// it (`vpsraq` on v4). `sar_wide` picks its case once per row, since
/// the shift is the same in every lane, so each case vectorizes.
impl<W: Word, const N: usize, const INLINE_SHIFTS: bool> Cell for Lanes<W, N, INLINE_SHIFTS> {
    type Word = W;
    const ZERO: Self = Lanes([W::ZERO; N]);
    const ONES: Self = Lanes([W::ONES; N]);

    #[inline(always)]
    fn splat_word(word: W) -> Self {
        Lanes([word; N])
    }

    #[inline(always)]
    fn broadcast_bit(self, index: u32) -> Self {
        self.map(|w| W::splat(w.bit(index)))
    }

    #[inline(always)]
    fn shl_sar(self, left: u32, right: u32) -> Self {
        if INLINE_SHIFTS {
            self.shl_sar_inline(left, right)
        } else {
            let rows = shl_sar_outlined(Lanes(self.0), left, right);
            Lanes(rows.0)
        }
    }

    #[inline(always)]
    fn sar_wide(low: Self, high: Self, shift: u32) -> Self {
        let b = W::BITS;
        if shift == 0 {
            low
        } else if shift < b {
            low.zip(high, |low, high| (low >> shift) | (high << (b - shift)))
        } else {
            high.shl_sar_inline(0, (shift - b).min(b - 1))
        }
    }
}

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

    /// The lane `sar_wide`, which picks its case per row, against the
    /// word's double-width shift in every lane, over every shift count,
    /// at both row widths.
    #[test]
    fn lane_sar_wide_matches_each_word() {
        fn check<W: Word, const N: usize>(word: impl Fn(u64) -> W) {
            let mut state = 0x5EED_1990_u64;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                word(state)
            };
            let low: Lanes<W, N> = Lanes(std::array::from_fn(|_| next()));
            let high: Lanes<W, N, true> = Lanes(std::array::from_fn(|_| next()));
            for shift in 0..=2 * W::BITS + 1 {
                let lanes = Cell::sar_wide(Lanes(low.0), high, shift);
                for k in 0..N {
                    let expected = W::sar_wide(low.0[k], high.0[k], shift);
                    assert_eq!(
                        lanes.0[k],
                        expected,
                        "{} bits, {N} lanes, shift {shift}",
                        W::BITS
                    );
                }
            }
        }
        check::<u32, LANES>(|bits| (bits >> 32) as u32);
        check::<u64, LANES>(|bits| bits);
        check::<u32, GROUP_LANES>(|bits| (bits >> 32) as u32);
        check::<u64, GROUP_LANES>(|bits| bits);
    }

    #[test]
    fn bit_reads() {
        assert!(<u32 as Word>::bit(1 << 31, 31));
        assert!(!<u32 as Word>::bit(1 << 31, 0));
        assert!(<u64 as Word>::bit(1 << 63, 63));
    }
}
