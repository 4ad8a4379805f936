//! The C naming layer both techniques' emitters share.
//!
//! The PC-set code of the paper's Fig. 4 and the bit-field code of
//! Figs. 6, 8 and 18 differ only in their statement bodies. Everything
//! around those bodies lives here: the netlist/program shape check
//! ([`EmitError`]), the gate operator table ([`gate_expression`]), C
//! identifiers derived from net names ([`sanitize`], [`claim`]), and the
//! arena declarations that open a kernel ([`open_kernel`]).
//!
//! Every kernel comes in two forms. The paper form declares one
//! `static word` per arena word, initialized to its power-up value.
//! The native form keeps no state: it exports `void
//! simulate_one_vector(word *uds_a, const word *pi)` and names each
//! arena word as a slot of the caller's `uds_a`.

use std::collections::HashSet;
use std::fmt::{self, Write as _};

use crate::{GateKind, Netlist};

/// The netlist handed to an emitter does not match the simulator's
/// compiled program, so the variable names would be lies. Detected
/// structurally (net and primary-input counts), which catches swapped
/// or re-parsed netlists before any misleading C escapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmitError {
    /// Net counts disagree.
    NetlistMismatch {
        /// Nets in the netlist offered for naming.
        netlist_nets: usize,
        /// Nets the simulator was compiled for.
        program_nets: usize,
    },
    /// Primary-input counts disagree.
    InputMismatch {
        /// Primary inputs in the netlist offered for naming.
        netlist_inputs: usize,
        /// Primary inputs the compiled program consumes.
        program_inputs: usize,
    },
}

impl EmitError {
    /// `Ok` when `netlist` has the `program_nets` nets and
    /// `program_inputs` primary inputs the program was compiled for.
    ///
    /// # Errors
    ///
    /// The first count that disagrees.
    pub fn check(
        netlist: &Netlist,
        program_nets: usize,
        program_inputs: usize,
    ) -> Result<(), EmitError> {
        if program_nets != netlist.net_count() {
            return Err(EmitError::NetlistMismatch {
                netlist_nets: netlist.net_count(),
                program_nets,
            });
        }
        if program_inputs != netlist.primary_inputs().len() {
            return Err(EmitError::InputMismatch {
                netlist_inputs: netlist.primary_inputs().len(),
                program_inputs,
            });
        }
        Ok(())
    }
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::NetlistMismatch {
                netlist_nets,
                program_nets,
            } => write!(
                f,
                "simulator was compiled from a different netlist: \
                 netlist has {netlist_nets} nets, program expects {program_nets}"
            ),
            Self::InputMismatch {
                netlist_inputs,
                program_inputs,
            } => write!(
                f,
                "simulator was compiled from a different netlist: \
                 netlist has {netlist_inputs} primary inputs, program expects {program_inputs}"
            ),
        }
    }
}

impl std::error::Error for EmitError {}

/// The C expression for one gate over `operands` (C identifiers).
///
/// # Panics
///
/// On [`GateKind::Dff`]: sequential gates are rejected at compile time,
/// so no emitter ever sees one.
pub fn gate_expression(kind: GateKind, operands: &[&str]) -> String {
    let join = |sep: &str| operands.join(sep);
    match kind {
        GateKind::And => join(" & "),
        GateKind::Nand => format!("~({})", join(" & ")),
        GateKind::Or => join(" | "),
        GateKind::Nor => format!("~({})", join(" | ")),
        GateKind::Xor => join(" ^ "),
        GateKind::Xnor => format!("~({})", join(" ^ ")),
        GateKind::Not => format!("~{}", operands[0]),
        GateKind::Buf => operands[0].to_owned(),
        GateKind::Const0 => "(word)0".to_owned(),
        GateKind::Const1 => "~(word)0".to_owned(),
        GateKind::Dff => unreachable!("sequential gates are rejected at compile time"),
    }
}

/// Identifiers an emitted translation unit already claims: C keywords
/// (a net named `if` or `int` must not produce `static word if`), the
/// `word` typedef and the `<stdint.h>` types behind it, the entry point
/// and its parameters (`uds_a` is the native kernel's arena), the
/// block-local temporaries of the parallel emitter's unrolled
/// aligned-load and shifted-presentation statements, and `defined`,
/// which the preprocessor refuses as a macro name.
fn is_reserved(name: &str) -> bool {
    matches!(
        name,
        "auto"
            | "break"
            | "case"
            | "char"
            | "const"
            | "continue"
            | "default"
            | "do"
            | "double"
            | "else"
            | "enum"
            | "extern"
            | "float"
            | "for"
            | "goto"
            | "if"
            | "inline"
            | "int"
            | "long"
            | "register"
            | "restrict"
            | "return"
            | "short"
            | "signed"
            | "sizeof"
            | "static"
            | "struct"
            | "switch"
            | "typedef"
            | "union"
            | "unsigned"
            | "void"
            | "volatile"
            | "while"
            | "word"
            | "pi"
            | "po"
            | "simulate_one_vector"
            | "uint32_t"
            | "uint64_t"
            | "uds_p"
            | "uds_n"
            | "uds_bf"
            | "uds_tf"
            | "uds_st"
            | "uds_a"
            | "defined"
    )
}

/// `name` as a C identifier: every non-alphanumeric character becomes
/// `_`, a leading digit (or an empty name) gains an `s` prefix, and a
/// reserved identifier gains a `_` suffix.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    if name.starts_with(|c: char| c.is_ascii_digit()) {
        out.push('s');
    }
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    if out.is_empty() {
        out.push('s');
    }
    if is_reserved(&out) {
        out.push('_');
    }
    out
}

/// `candidate`, or the first free `{candidate}_d{k}` when another name
/// already holds it; the returned name is marked used. Every alias is
/// claimed too, so a net whose literal name equals an earlier alias
/// dedups again instead of sharing a C variable.
pub fn claim(used: &mut HashSet<String>, candidate: String) -> String {
    if used.insert(candidate.clone()) {
        return candidate;
    }
    (1u32..)
        .map(|k| format!("{candidate}_d{k}"))
        .find(|alias| used.insert(alias.clone()))
        .expect("some alias is free")
}

/// Declares the arena word `names[slot]` for every slot, then opens the
/// kernel `simulate_one_vector`.
///
/// The paper form gives each word a static holding its power-up value
/// (the circuit settled under all-zero inputs; `set` says which words
/// are non-zero), so the first vector's retained values are right, and
/// the kernel takes `paper_params`. The native form (`native`) keeps no
/// state: each word is `#define NAME uds_a[slot]` over the caller's
/// arena, which carries the power-up state itself, and the kernel takes
/// `word *uds_a, const word *pi`.
pub fn open_kernel(
    out: &mut String,
    names: &[String],
    set: impl IntoIterator<Item = bool>,
    native: bool,
    paper_params: &str,
) {
    for ((slot, name), set) in names.iter().enumerate().zip(set) {
        let _ = if native {
            writeln!(out, "#define {name} uds_a[{slot}]")
        } else {
            let value = if set { "~(word)0" } else { "0" };
            writeln!(out, "static word {name} = {value};")
        };
    }
    let params = if native {
        "word *uds_a, const word *pi"
    } else {
        paper_params
    };
    let _ = writeln!(out, "\nvoid simulate_one_vector({params})\n{{");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    #[test]
    fn sanitize_renames_every_reserved_name_for_both_emitters() {
        // One list serves both techniques: the parallel emitter's
        // block temporaries are reserved for PC-set nets too.
        assert_eq!(sanitize(""), "s");
        for reserved in ["if", "word", "pi", "po", "uds_a", "uds_st", "defined"] {
            assert_eq!(sanitize(reserved), format!("{reserved}_"));
        }
    }

    #[test]
    fn check_names_the_count_that_disagrees() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let y = b.gate(GateKind::Not, &[a], "y").unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        assert_eq!(EmitError::check(&nl, 2, 1), Ok(()));
        let nets = EmitError::check(&nl, 3, 1).unwrap_err();
        assert!(matches!(nets, EmitError::NetlistMismatch { .. }), "{nets}");
        let inputs = EmitError::check(&nl, 2, 2).unwrap_err();
        assert!(
            matches!(inputs, EmitError::InputMismatch { .. }),
            "{inputs}"
        );
        assert!(inputs.to_string().contains("different netlist"), "{inputs}");
    }
}
