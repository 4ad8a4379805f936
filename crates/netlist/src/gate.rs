//! Gate kinds and their evaluation semantics.
//!
//! Two evaluation flavors are provided:
//!
//! * **bit-parallel two-valued** ([`GateKind::eval_words`]): operates on
//!   whole machine words, one circuit "sample" per bit. This is exactly the
//!   operation the parallel technique compiles to, and is also used (masked
//!   to one bit) by the other simulators.
//! * **scalar three-valued** ([`GateKind::eval_logic3`]): Kleene logic over
//!   `0 / 1 / X`, used by the interpreted three-valued event-driven
//!   baseline of the paper's Fig. 19.

use std::fmt;
use std::str::FromStr;

use crate::{Levels, NetId, Netlist};

/// The kind of a logic gate.
///
/// All multi-input kinds (`And`, `Nand`, `Or`, `Nor`, `Xor`, `Xnor`) accept
/// two or more inputs. `Not` and `Buf` take exactly one input. `Const0` and
/// `Const1` take none and drive a constant signal (the paper treats constant
/// signals as level-0 sources, like primary inputs). `Dff` is a unit that
/// only appears in *sequential* netlists; the combinational techniques
/// require it to be cut away first (see [`crate::sequential`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum GateKind {
    /// Logical AND of all inputs.
    And,
    /// Complement of the AND of all inputs.
    Nand,
    /// Logical OR of all inputs.
    Or,
    /// Complement of the OR of all inputs.
    Nor,
    /// Exclusive OR (parity) of all inputs.
    Xor,
    /// Complement of the XOR of all inputs.
    Xnor,
    /// Complement of the single input.
    Not,
    /// The single input, unchanged (a buffer).
    Buf,
    /// Constant logic 0 (no inputs).
    Const0,
    /// Constant logic 1 (no inputs).
    Const1,
    /// D flip-flop (sequential only; output follows input one clock later).
    Dff,
}

impl GateKind {
    /// All gate kinds, in a fixed order (useful for exhaustive tests).
    pub const ALL: [GateKind; 11] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
        GateKind::Const0,
        GateKind::Const1,
        GateKind::Dff,
    ];

    /// Returns the valid input-count range `(min, max)` for this kind.
    /// `max` is `usize::MAX` for unbounded multi-input gates.
    pub fn arity(self) -> (usize, usize) {
        match self {
            GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => (2, usize::MAX),
            GateKind::Not | GateKind::Buf | GateKind::Dff => (1, 1),
            GateKind::Const0 | GateKind::Const1 => (0, 0),
        }
    }

    /// Returns `true` if `n` inputs is a legal fan-in for this kind.
    pub fn accepts_inputs(self, n: usize) -> bool {
        let (lo, hi) = self.arity();
        n >= lo && n <= hi
    }

    /// Returns `true` for the kinds whose output is the complement of the
    /// underlying associative operation (`Nand`, `Nor`, `Xnor`, `Not`).
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor | GateKind::Not
        )
    }

    /// Evaluates the gate bit-parallel over machine words.
    ///
    /// Each bit position of the inputs is an independent two-valued sample;
    /// the result carries the gate function applied position-wise. This is
    /// the primitive that compiled simulation lowers to.
    ///
    /// For inverting kinds all 64 bits of the result are complemented;
    /// callers that care about fewer bit positions must mask.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs is not legal for the kind (a netlist
    /// accepted by [`crate::validate`] never triggers this), or if called on
    /// [`GateKind::Dff`], which has no combinational function.
    pub fn eval_words(self, inputs: &[u64]) -> u64 {
        debug_assert!(
            self.accepts_inputs(inputs.len()),
            "{self:?} cannot take {} inputs",
            inputs.len()
        );
        match self {
            GateKind::And => inputs.iter().fold(!0u64, |acc, &w| acc & w),
            GateKind::Nand => !inputs.iter().fold(!0u64, |acc, &w| acc & w),
            GateKind::Or => inputs.iter().fold(0u64, |acc, &w| acc | w),
            GateKind::Nor => !inputs.iter().fold(0u64, |acc, &w| acc | w),
            GateKind::Xor => inputs.iter().fold(0u64, |acc, &w| acc ^ w),
            GateKind::Xnor => !inputs.iter().fold(0u64, |acc, &w| acc ^ w),
            GateKind::Not => !inputs[0],
            GateKind::Buf => inputs[0],
            GateKind::Const0 => 0,
            GateKind::Const1 => !0,
            GateKind::Dff => panic!("DFF has no combinational evaluation"),
        }
    }

    /// Evaluates the gate on single two-valued bits.
    ///
    /// Convenience wrapper over [`GateKind::eval_words`] masked to bit 0.
    ///
    /// # Panics
    ///
    /// Same conditions as [`GateKind::eval_words`].
    pub fn eval_bits(self, inputs: &[bool]) -> bool {
        let mut words = [0u64; 16];
        let mut heap;
        let slice: &mut [u64] = if inputs.len() <= 16 {
            &mut words[..inputs.len()]
        } else {
            heap = vec![0u64; inputs.len()];
            &mut heap
        };
        for (w, &b) in slice.iter_mut().zip(inputs) {
            *w = b as u64;
        }
        self.eval_words(slice) & 1 != 0
    }

    /// Evaluates the gate in three-valued (Kleene) logic.
    ///
    /// # Panics
    ///
    /// Same conditions as [`GateKind::eval_words`].
    pub fn eval_logic3(self, inputs: &[Logic3]) -> Logic3 {
        debug_assert!(
            self.accepts_inputs(inputs.len()),
            "{self:?} cannot take {} inputs",
            inputs.len()
        );
        match self {
            GateKind::And => inputs.iter().fold(Logic3::One, |a, &b| a.and(b)),
            GateKind::Nand => inputs.iter().fold(Logic3::One, |a, &b| a.and(b)).not(),
            GateKind::Or => inputs.iter().fold(Logic3::Zero, |a, &b| a.or(b)),
            GateKind::Nor => inputs.iter().fold(Logic3::Zero, |a, &b| a.or(b)).not(),
            GateKind::Xor => inputs.iter().fold(Logic3::Zero, |a, &b| a.xor(b)),
            GateKind::Xnor => inputs.iter().fold(Logic3::Zero, |a, &b| a.xor(b)).not(),
            GateKind::Not => inputs[0].not(),
            GateKind::Buf => inputs[0],
            GateKind::Const0 => Logic3::Zero,
            GateKind::Const1 => Logic3::One,
            GateKind::Dff => panic!("DFF has no combinational evaluation"),
        }
    }

    /// The upper-case keyword used by the ISCAS-85 `.bench` format.
    pub fn bench_keyword(self) -> &'static str {
        match self {
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUFF",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
            GateKind::Dff => "DFF",
        }
    }
}

/// Settles `netlist` under the input bits `values` holds, one lane per
/// bit: bit `k` of every gate output's word becomes its zero-delay value
/// under bit `k` of the primary inputs' words. Undriven nets keep what
/// `values` holds. Under all-0 inputs this is the power-up state every
/// compiled engine starts from.
pub fn settle(netlist: &Netlist, levels: &Levels, values: &mut [u64]) {
    let gates = levels.topo_gates.iter().map(|&gid| {
        let gate = netlist.gate(gid);
        (gate.kind, gate.output, gate.inputs.as_slice())
    });
    sweep_gates(gates, values, &mut Vec::new());
}

/// The one zero-delay sweep: each gate `(kind, output, inputs)`, in
/// topological order, sets bit `k` of its output's word to its value
/// under bit `k` of its inputs' words. `operands` is scratch.
pub fn sweep_gates<'a>(
    gates: impl Iterator<Item = (GateKind, NetId, &'a [NetId])>,
    values: &mut [u64],
    operands: &mut Vec<u64>,
) {
    for (kind, output, inputs) in gates {
        operands.clear();
        operands.extend(inputs.iter().map(|net| values[net.index()]));
        values[output.index()] = kind.eval_words(operands);
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_keyword())
    }
}

/// Error returned when parsing a [`GateKind`] from text fails.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseGateKindError {
    /// The unrecognized keyword.
    pub keyword: String,
}

impl fmt::Display for ParseGateKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown gate kind keyword `{}`", self.keyword)
    }
}

impl std::error::Error for ParseGateKindError {}

impl FromStr for GateKind {
    type Err = ParseGateKindError;

    /// Parses a `.bench` keyword, case-insensitively. `BUF` and `BUFF` are
    /// both accepted (the benchmarks use both spellings).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let upper = s.to_ascii_uppercase();
        Ok(match upper.as_str() {
            "AND" => GateKind::And,
            "NAND" => GateKind::Nand,
            "OR" => GateKind::Or,
            "NOR" => GateKind::Nor,
            "XOR" => GateKind::Xor,
            "XNOR" => GateKind::Xnor,
            "NOT" | "INV" => GateKind::Not,
            "BUF" | "BUFF" => GateKind::Buf,
            "CONST0" => GateKind::Const0,
            "CONST1" => GateKind::Const1,
            "DFF" => GateKind::Dff,
            _ => {
                return Err(ParseGateKindError {
                    keyword: s.to_owned(),
                })
            }
        })
    }
}

/// A three-valued (Kleene) logic value: `0`, `1`, or unknown `X`.
///
/// Used by the interpreted three-valued event-driven baseline, which the
/// paper calls "the more natural model for event-driven simulation".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Logic3 {
    /// Logic low.
    Zero,
    /// Logic high.
    One,
    /// Unknown / uninitialized.
    #[default]
    X,
}

impl Logic3 {
    /// Kleene AND: `0` dominates, `X` otherwise taints.
    pub fn and(self, other: Logic3) -> Logic3 {
        match (self, other) {
            (Logic3::Zero, _) | (_, Logic3::Zero) => Logic3::Zero,
            (Logic3::One, Logic3::One) => Logic3::One,
            _ => Logic3::X,
        }
    }

    /// Kleene OR: `1` dominates, `X` otherwise taints.
    pub fn or(self, other: Logic3) -> Logic3 {
        match (self, other) {
            (Logic3::One, _) | (_, Logic3::One) => Logic3::One,
            (Logic3::Zero, Logic3::Zero) => Logic3::Zero,
            _ => Logic3::X,
        }
    }

    /// Kleene XOR: any `X` input yields `X`.
    pub fn xor(self, other: Logic3) -> Logic3 {
        match (self, other) {
            (Logic3::X, _) | (_, Logic3::X) => Logic3::X,
            (a, b) if a == b => Logic3::Zero,
            _ => Logic3::One,
        }
    }

    /// Kleene NOT: `X` stays `X`. An inherent method (not the `Not`
    /// trait) so it chains postfix in the fold expressions alongside
    /// `and`/`or`/`xor`, which have no operator traits either.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Logic3 {
        match self {
            Logic3::Zero => Logic3::One,
            Logic3::One => Logic3::Zero,
            Logic3::X => Logic3::X,
        }
    }

    /// Converts a two-valued bit.
    pub fn from_bool(b: bool) -> Logic3 {
        if b {
            Logic3::One
        } else {
            Logic3::Zero
        }
    }

    /// Returns the two-valued interpretation, or `None` for `X`.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic3::Zero => Some(false),
            Logic3::One => Some(true),
            Logic3::X => None,
        }
    }
}

impl fmt::Display for Logic3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Logic3::Zero => "0",
            Logic3::One => "1",
            Logic3::X => "X",
        })
    }
}

impl From<bool> for Logic3 {
    fn from(b: bool) -> Logic3 {
        Logic3::from_bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_eval_matches_truth_tables() {
        // Exhaustive over 2-input patterns packed into 4 bit positions:
        // a = 0011, b = 0101.
        let a = 0b0011u64;
        let b = 0b0101u64;
        let mask = 0b1111u64;
        assert_eq!(GateKind::And.eval_words(&[a, b]) & mask, 0b0001);
        assert_eq!(GateKind::Nand.eval_words(&[a, b]) & mask, 0b1110);
        assert_eq!(GateKind::Or.eval_words(&[a, b]) & mask, 0b0111);
        assert_eq!(GateKind::Nor.eval_words(&[a, b]) & mask, 0b1000);
        assert_eq!(GateKind::Xor.eval_words(&[a, b]) & mask, 0b0110);
        assert_eq!(GateKind::Xnor.eval_words(&[a, b]) & mask, 0b1001);
        assert_eq!(GateKind::Not.eval_words(&[a]) & mask, 0b1100);
        assert_eq!(GateKind::Buf.eval_words(&[a]) & mask, 0b0011);
        assert_eq!(GateKind::Const0.eval_words(&[]) & mask, 0b0000);
        assert_eq!(GateKind::Const1.eval_words(&[]) & mask, 0b1111);
    }

    #[test]
    fn three_input_gates() {
        // a=00001111 b=00110011 c=01010101 over 8 positions.
        let (a, b, c) = (0x0Fu64, 0x33, 0x55);
        let m = 0xFF;
        assert_eq!(GateKind::And.eval_words(&[a, b, c]) & m, a & b & c);
        assert_eq!(GateKind::Nor.eval_words(&[a, b, c]) & m, !(a | b | c) & m);
        assert_eq!(GateKind::Xor.eval_words(&[a, b, c]) & m, a ^ b ^ c);
    }

    #[test]
    fn bit_eval_agrees_with_word_eval() {
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for pattern in 0u32..8 {
                let bits = [pattern & 1 != 0, pattern & 2 != 0, pattern & 4 != 0];
                let words: Vec<u64> = bits.iter().map(|&b| b as u64).collect();
                assert_eq!(
                    kind.eval_bits(&bits),
                    kind.eval_words(&words) & 1 != 0,
                    "{kind:?} on {bits:?}"
                );
            }
        }
    }

    #[test]
    fn logic3_agrees_with_two_valued_on_known_inputs() {
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for pattern in 0u32..4 {
                let bits = [pattern & 1 != 0, pattern & 2 != 0];
                let l3: Vec<Logic3> = bits.iter().map(|&b| Logic3::from_bool(b)).collect();
                assert_eq!(
                    kind.eval_logic3(&l3).to_bool(),
                    Some(kind.eval_bits(&bits)),
                    "{kind:?} on {bits:?}"
                );
            }
        }
    }

    #[test]
    fn logic3_controlling_values_beat_x() {
        assert_eq!(Logic3::Zero.and(Logic3::X), Logic3::Zero);
        assert_eq!(Logic3::One.or(Logic3::X), Logic3::One);
        assert_eq!(Logic3::One.and(Logic3::X), Logic3::X);
        assert_eq!(Logic3::Zero.or(Logic3::X), Logic3::X);
        assert_eq!(Logic3::X.xor(Logic3::One), Logic3::X);
        assert_eq!(Logic3::X.not(), Logic3::X);
    }

    #[test]
    fn logic3_gate_eval_with_x() {
        use Logic3::*;
        assert_eq!(GateKind::And.eval_logic3(&[Zero, X]), Zero);
        assert_eq!(GateKind::Nand.eval_logic3(&[Zero, X]), One);
        assert_eq!(GateKind::Or.eval_logic3(&[One, X]), One);
        assert_eq!(GateKind::Nor.eval_logic3(&[One, X]), Zero);
        assert_eq!(GateKind::Xor.eval_logic3(&[One, X]), X);
    }

    #[test]
    fn keyword_round_trips() {
        for kind in GateKind::ALL {
            let parsed: GateKind = kind.bench_keyword().parse().expect("round trip");
            assert_eq!(parsed, kind);
        }
        assert_eq!("buf".parse::<GateKind>(), Ok(GateKind::Buf));
        assert_eq!("inv".parse::<GateKind>(), Ok(GateKind::Not));
        assert!("FROB".parse::<GateKind>().is_err());
    }

    #[test]
    fn arity_checks() {
        assert!(GateKind::And.accepts_inputs(2));
        assert!(GateKind::And.accepts_inputs(9));
        assert!(!GateKind::And.accepts_inputs(1));
        assert!(GateKind::Not.accepts_inputs(1));
        assert!(!GateKind::Not.accepts_inputs(2));
        assert!(GateKind::Const1.accepts_inputs(0));
        assert!(!GateKind::Const1.accepts_inputs(1));
    }

    #[test]
    fn parse_error_display_names_keyword() {
        let err = "ZAP".parse::<GateKind>().unwrap_err();
        assert_eq!(err.to_string(), "unknown gate kind keyword `ZAP`");
    }
}
