//! The ISCAS-85 / ISCAS-89 `.bench` text format.
//!
//! This is the format the original benchmark circuits are distributed in:
//!
//! ```text
//! # c17 from the ISCAS-85 benchmark set
//! INPUT(1)
//! INPUT(2)
//! OUTPUT(22)
//! 10 = NAND(1, 3)
//! 22 = NAND(10, 16)
//! ```
//!
//! [`parse`] accepts the full format (including `DFF` from the sequential
//! ISCAS-89 set and constant generators), tolerates forward references and
//! arbitrary declaration order, and reports errors with line numbers.
//! [`write`](fn@write) emits text that `parse` round-trips bit-for-bit structurally.

mod parser;
mod writer;

pub use parser::{parse, ParseError, ParseErrorKind};
pub use writer::{write, write_to};

/// The ISCAS-85 `c17` circuit, verbatim (it is six NAND gates and appears
/// in every logic-synthesis textbook). The larger ISCAS-85 circuits are
/// not redistributable here; see `generators::iscas` for calibrated
/// synthetic stand-ins.
pub const C17: &str = "\
# c17 — ISCAS-85 benchmark (6 NAND gates)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{levelize, validate};

    #[test]
    fn c17_parses_and_validates() {
        let nl = parse(C17, "c17").unwrap();
        assert_eq!(nl.gate_count(), 6);
        assert_eq!(nl.primary_inputs().len(), 5);
        assert_eq!(nl.primary_outputs().len(), 2);
        validate::check(&nl, validate::Mode::Combinational).unwrap();
        let levels = levelize(&nl).unwrap();
        assert_eq!(levels.depth, 3);
    }

    #[test]
    fn c17_round_trips() {
        let nl = parse(C17, "c17").unwrap();
        let text = write(&nl);
        let reparsed = parse(&text, "c17").unwrap();
        assert_eq!(nl.gate_count(), reparsed.gate_count());
        assert_eq!(nl.net_count(), reparsed.net_count());
        for net in nl.net_ids() {
            assert_eq!(nl.net_name(net), reparsed.net_name(net));
        }
        assert_eq!(
            nl.primary_outputs()
                .iter()
                .map(|&n| nl.net_name(n))
                .collect::<Vec<_>>(),
            reparsed
                .primary_outputs()
                .iter()
                .map(|&n| reparsed.net_name(n))
                .collect::<Vec<_>>()
        );
    }
}
