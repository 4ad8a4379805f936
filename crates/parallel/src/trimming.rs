//! Bit-field trimming (§4, Fig. 9): classifying the words of a
//! multi-word bit-field so the code generator can skip work.
//!
//! Each element of a net's PC-set marks a *representative* bit position.
//! A word of the field is:
//!
//! * **low-constant** — all of its bit times fall below the net's
//!   minlevel: every bit holds the final value from the previous vector,
//!   so one broadcast at initialization replaces all simulation;
//! * a **gap** — above the minlevel but containing no representative:
//!   every bit equals the high-order bit of the preceding word, restored
//!   with one broadcast *during* simulation;
//! * **active** — contains at least one representative and must be
//!   computed.
//!
//! Trimming has no effect on single-word fields, exactly as the paper's
//! Fig. 20 shows (c432–c1355 unchanged).

use uds_netlist::{LevelizeError, NetId, Netlist};
use uds_pcset::PcSets;

use crate::bitfield::FieldLayout;
use crate::word::Word;

/// Classification of one word of a bit-field.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WordClass {
    /// All times below minlevel: initialize by broadcasting the previous
    /// final value; no simulation code.
    LowConstant,
    /// No PC-set representative: broadcast the previous word's high bit;
    /// no simulation code.
    Gap,
    /// Contains a representative: simulate.
    Active,
}

/// Classifies every word of a 32-bit-word field (the paper's width).
///
/// `times` is the net's PC-set (ascending), `minlevel` its smallest
/// element. Bit `i` of the field represents time `layout.align + i`.
pub fn classify(layout: &FieldLayout, times: &[u32], minlevel: u32) -> Vec<WordClass> {
    classify_words::<u32>(layout, times, minlevel)
}

/// Classifies every word of a field packed into `W` words — the word
/// size must match the one the layout was built for, since it decides
/// which times share a word (a 64-bit word trims less often but trims
/// twice as much when it does).
///
/// Invariants (checked by debug assertions): the word containing the
/// level (the field's top bit) is always active, and no gap ever
/// precedes the first active word — below the minlevel everything is
/// low-constant.
pub fn classify_words<W: Word>(
    layout: &FieldLayout,
    times: &[u32],
    minlevel: u32,
) -> Vec<WordClass> {
    let mut classes = Vec::with_capacity(layout.words as usize);
    for w in 0..layout.words {
        let first_time = i64::from(layout.align) + i64::from(w) * i64::from(W::BITS);
        let last_time = (first_time + i64::from(W::BITS) - 1)
            .min(i64::from(layout.align) + i64::from(layout.width) - 1);
        if last_time < i64::from(minlevel) {
            classes.push(WordClass::LowConstant);
            continue;
        }
        let has_representative = times.iter().any(|&t| {
            let t = i64::from(t);
            t >= first_time && t <= last_time
        });
        classes.push(if has_representative {
            WordClass::Active
        } else {
            WordClass::Gap
        });
    }
    // Note: trailing words CAN be gaps — in the unoptimized layout every
    // field spans the full depth, and "nets near the primary inputs ...
    // have no PC-set representatives in their high-order words" (§4).
    debug_assert!(
        classes.contains(&WordClass::Active),
        "the minlevel word is always a representative"
    );
    debug_assert!(
        classes
            .iter()
            .find(|&&c| c != WordClass::LowConstant)
            .is_none_or(|&c| c == WordClass::Active),
        "the minlevel word is active, so no gap precedes the first active word"
    );
    classes
}

/// The word classes of every net's field, read by both compilers:
/// each field classified by its net's PC-set when trimming, every word
/// active otherwise.
pub(crate) struct WordClasses(Option<Vec<Vec<WordClass>>>);

impl WordClasses {
    /// Classifies the field `layouts` gives each net of `netlist` if
    /// `trim` is set; computes no PC-sets otherwise.
    pub(crate) fn compute<W: Word>(
        netlist: &Netlist,
        layouts: &[FieldLayout],
        trim: bool,
    ) -> Result<WordClasses, LevelizeError> {
        if !trim {
            return Ok(WordClasses(None));
        }
        let sets = PcSets::compute(netlist)?;
        let classes = netlist
            .net_ids()
            .map(|net| {
                let times = sets.net[net].times();
                classify_words::<W>(&layouts[net.index()], times, times[0])
            })
            .collect();
        Ok(WordClasses(Some(classes)))
    }

    /// The class of word `w` of `net`'s field.
    pub(crate) fn of(&self, net: NetId, w: u32) -> WordClass {
        match &self.0 {
            Some(classes) => classes[net.index()][w as usize],
            None => WordClass::Active,
        }
    }
}

/// Counts how many words of simulation work trimming removes
/// (low-constant + gap words).
pub fn trimmed_words(classes: &[WordClass]) -> usize {
    classes.iter().filter(|&&c| c != WordClass::Active).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_word_fields_are_untouched() {
        let layout = FieldLayout::new(0, 20, 0);
        let classes = classify(&layout, &[3, 7, 19], 3);
        assert_eq!(classes, vec![WordClass::Active]);
        assert_eq!(trimmed_words(&classes), 0);
    }

    #[test]
    fn deep_net_gets_low_constant_words() {
        // minlevel 70, level 130: words 0 and 1 all-below-minlevel.
        let layout = FieldLayout::new(0, 131, 0);
        let classes = classify(&layout, &[70, 100, 130], 70);
        assert_eq!(
            classes,
            vec![
                WordClass::LowConstant,
                WordClass::LowConstant,
                WordClass::Active,
                WordClass::Active,
                WordClass::Active,
            ]
        );
        assert_eq!(trimmed_words(&classes), 2);
    }

    #[test]
    fn gaps_between_representatives() {
        // Representatives at 5 and 100 with nothing in words 1 and 2.
        let layout = FieldLayout::new(0, 125, 0);
        let classes = classify(&layout, &[5, 100], 5);
        assert_eq!(
            classes,
            vec![
                WordClass::Active,
                WordClass::Gap,
                WordClass::Gap,
                WordClass::Active,
            ]
        );
    }

    #[test]
    fn alignment_moves_the_window() {
        // Same PC-set, field aligned at 64: times 64..=127 are bits 0..63.
        let layout = FieldLayout::new(0, 64, 64);
        let classes = classify(&layout, &[70, 120], 70);
        assert_eq!(classes, vec![WordClass::Active, WordClass::Active]);
        // Aligned at 0, the first two words would be low-constant.
        let layout0 = FieldLayout::new(0, 128, 0);
        let classes0 = classify(&layout0, &[70, 120], 70);
        assert_eq!(classes0[0], WordClass::LowConstant);
        assert_eq!(classes0[1], WordClass::LowConstant);
    }

    #[test]
    fn wider_words_merge_classes() {
        // minlevel 70, level 130 over 64-bit words: word 0 (times
        // 0..=63) is all below the minlevel, words 1 and 2 are active —
        // the u32 classification's two low-constant words collapse into
        // one twice-as-wide skip.
        let layout = FieldLayout::with_word_bits(0, 131, 0, 64);
        let classes = classify_words::<u64>(&layout, &[70, 100, 130], 70);
        assert_eq!(
            classes,
            vec![WordClass::LowConstant, WordClass::Active, WordClass::Active]
        );
    }

    #[test]
    fn negative_alignment_bits_are_low_constant() {
        // Align -40, minlevel 2: word 0 covers times -40..-9, all < 2.
        let layout = FieldLayout::new(0, 45, -40);
        let classes = classify(&layout, &[2, 4], 2);
        assert_eq!(classes[0], WordClass::LowConstant);
        assert_eq!(classes[1], WordClass::Active);
    }
}
