//! `.bench` emission.

use crate::Netlist;

/// Renders a netlist as `.bench` text.
///
/// Output order: a comment header, `INPUT` declarations, `OUTPUT`
/// declarations, then one assignment per gate in gate-id order. The text
/// parses back ([`super::parse`]) to a structurally identical netlist
/// (same net names, same gates, same port lists).
///
/// # Example
///
/// ```
/// use uds_netlist::{NetlistBuilder, GateKind, bench_format};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::named("tiny");
/// let a = b.input("a");
/// let y = b.gate(GateKind::Not, &[a], "y")?;
/// b.output(y);
/// let text = bench_format::write(&b.finish()?);
/// assert!(text.contains("y = NOT(a)"));
/// # Ok(())
/// # }
/// ```
pub fn write(netlist: &Netlist) -> String {
    let mut out = String::new();
    write_to(&mut out, netlist).expect("writing to a String cannot fail");
    out
}

/// Like [`write`](fn@write), but appends to any [`std::fmt::Write`] sink.
///
/// # Errors
///
/// Propagates errors from the sink (a `String` sink never fails).
pub fn write_to(out: &mut impl std::fmt::Write, netlist: &Netlist) -> std::fmt::Result {
    writeln!(out, "# {}", netlist.name())?;
    writeln!(
        out,
        "# {} inputs, {} outputs, {} gates",
        netlist.primary_inputs().len(),
        netlist.primary_outputs().len(),
        netlist.gate_count()
    )?;
    for &pi in netlist.primary_inputs() {
        writeln!(out, "INPUT({})", netlist.net_name(pi))?;
    }
    for &po in netlist.primary_outputs() {
        writeln!(out, "OUTPUT({})", netlist.net_name(po))?;
    }
    for gate in netlist.gates() {
        write!(
            out,
            "{} = {}(",
            netlist.net_name(gate.output),
            gate.kind.bench_keyword()
        )?;
        for (i, &input) in gate.inputs.iter().enumerate() {
            if i > 0 {
                write!(out, ", ")?;
            }
            write!(out, "{}", netlist.net_name(input))?;
        }
        writeln!(out, ")")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::parse;
    use super::*;
    use crate::{GateKind, NetlistBuilder};

    #[test]
    fn writes_ports_and_gates() {
        let mut b = NetlistBuilder::named("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateKind::Nand, &[a, c], "y").unwrap();
        b.output(y);
        let text = write(&b.finish().unwrap());
        assert!(text.contains("INPUT(a)"));
        assert!(text.contains("INPUT(b)"));
        assert!(text.contains("OUTPUT(y)"));
        assert!(text.contains("y = NAND(a, b)"));
    }

    #[test]
    fn constants_and_dffs_round_trip() {
        let mut b = NetlistBuilder::named("seq");
        let d = b.input("d");
        let q = b.gate(GateKind::Dff, &[d], "q").unwrap();
        let k = b.gate(GateKind::Const0, &[], "k").unwrap();
        let y = b.gate(GateKind::Or, &[q, k], "y").unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        let text = write(&nl);
        let reparsed = parse(&text, "seq").unwrap();
        assert_eq!(reparsed.gate_count(), 3);
        assert!(reparsed.is_sequential());
    }

    #[test]
    fn round_trip_preserves_structure() {
        let mut b = NetlistBuilder::named("rt");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let x = b.gate(GateKind::Xor, &[a, c, d], "x").unwrap();
        let y = b.gate(GateKind::Not, &[x], "y").unwrap();
        b.output(y);
        b.output(x);
        let nl = b.finish().unwrap();
        let reparsed = parse(&write(&nl), "rt").unwrap();
        assert_eq!(nl.gate_count(), reparsed.gate_count());
        assert_eq!(nl.primary_outputs().len(), reparsed.primary_outputs().len());
        for (g1, g2) in nl.gates().iter().zip(reparsed.gates()) {
            assert_eq!(g1.kind, g2.kind);
            assert_eq!(g1.inputs.len(), g2.inputs.len());
        }
    }
}
