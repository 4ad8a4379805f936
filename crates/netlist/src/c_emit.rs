//! The C naming layer both techniques' emitters share.
//!
//! The PC-set code of the paper's Fig. 4 and the bit-field code of
//! Figs. 6, 8 and 18 differ only in their statement bodies. Everything
//! around those bodies lives here: the netlist/program shape check
//! ([`EmitError`]), the gate operator table ([`gate_expression`]), C
//! identifiers derived from net names ([`sanitize`], [`claim`]), and the
//! kernel around a statement body ([`Kernel`]).
//!
//! Every kernel comes in two forms. The paper form declares one
//! `static word` per arena word, initialized to its power-up value,
//! and holds the whole body in `simulate_one_vector`. The native form
//! keeps no state and names each arena word as a slot of the caller's
//! `uds_a`. Its body is cut at level-segment ends into `static`
//! non-inlined part functions of about [`PART_LINES`] lines, and the one
//! exported entry, `void simulate_one_vector(word *uds_a, const word
//! *pi)`, calls them in order: `cc` compiles many small functions much
//! faster than one straight-line body.

use std::collections::HashSet;
use std::fmt::{self, Write as _};

use crate::{GateKind, LevelSegment, Netlist};

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
/// native kernel's part functions `uds_part{k}` and the identifiers of
/// its no-inline attribute, the block-local temporaries of the parallel
/// emitter's unrolled aligned-load and shifted-presentation statements,
/// and `defined`, which the preprocessor refuses as a macro name.
fn is_reserved(name: &str) -> bool {
    let part = name
        .strip_prefix("uds_part")
        .is_some_and(|k| !k.is_empty() && k.bytes().all(|b| b.is_ascii_digit()));
    part || matches!(
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
            | "UDS_NOINLINE"
            | "__GNUC__"
            | "__attribute__"
            | "__noinline__"
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

/// Statement lines one native part function holds: level segments are
/// packed into a part until the next one would take it past this
/// budget (a single larger segment gets a part of its own). `cc -O1`'s
/// time grows faster than linearly with function size, so many small
/// parts compile in well under half the time of one straight-line
/// body, and the kernel runs no slower.
pub const PART_LINES: usize = 200;

/// Keeps `cc` from inlining the parts back into the entry: gcc inlines
/// a static function called once, even at `-O1`. Other compilers get an
/// empty attribute and still compile the file.
const NOINLINE: &str = "#ifdef __GNUC__
#define UDS_NOINLINE __attribute__((__noinline__))
#else
#define UDS_NOINLINE
#endif
";

/// The parameters of every native part and of the native entry.
const NATIVE_PARAMS: &str = "word *uds_a, const word *pi";

/// A translation unit being written: everything before the kernel's
/// statement body, then the body, with where each compiled op's
/// statements begin in it, so the native form can cut the body between
/// ops. The body is written once, into the unit's own buffer, and the
/// cut moves it in place, so a large kernel is never held twice.
#[derive(Debug)]
pub struct Kernel {
    out: String,
    /// Where the body begins in `out`.
    body_start: usize,
    /// Where each op's statements begin, relative to `body_start`.
    op_starts: Vec<usize>,
    native: bool,
}

impl Kernel {
    /// Declares the arena word `names[slot]` for every slot after the
    /// text already in `out`, and opens the kernel.
    ///
    /// The paper form gives each word a static holding its power-up
    /// value (the circuit settled under all-zero inputs; `set` says
    /// which words are non-zero), so the first vector's retained values
    /// are right, and opens `simulate_one_vector(paper_params)`, which
    /// will hold the whole body. The native form (`native`) keeps no
    /// state: each word is `#define NAME uds_a[slot]` over the caller's
    /// arena, which carries the power-up state itself, and
    /// [`Kernel::close`] cuts the body into parts.
    pub fn open(
        mut out: String,
        names: &[String],
        set: impl IntoIterator<Item = bool>,
        native: bool,
        paper_params: &str,
    ) -> Kernel {
        for ((slot, name), set) in names.iter().enumerate().zip(set) {
            let _ = if native {
                writeln!(out, "#define {name} uds_a[{slot}]")
            } else {
                let value = if set { "~(word)0" } else { "0" };
                writeln!(out, "static word {name} = {value};")
            };
        }
        if !native {
            let _ = writeln!(out, "\nvoid simulate_one_vector({paper_params})\n{{");
        }
        Kernel {
            body_start: out.len(),
            out,
            op_starts: Vec::new(),
            native,
        }
    }

    /// The body, to append statements that belong to no op (a prologue
    /// before the first op's, or an epilogue after the last).
    pub fn text(&mut self) -> &mut String {
        &mut self.out
    }

    /// Marks where the next op's statements begin; returns the body to
    /// append them to.
    pub fn op(&mut self) -> &mut String {
        self.op_starts.push(self.out.len() - self.body_start);
        &mut self.out
    }

    /// Byte offset in the body where op `op`'s statements begin; the
    /// body's length for `op` = the op count (the end of the last op).
    pub fn op_start(&self, op: usize) -> usize {
        self.op_starts
            .get(op)
            .copied()
            .unwrap_or(self.out.len() - self.body_start)
    }

    /// Byte offsets in the body that cut it into parts of whole level
    /// segments, at most [`PART_LINES`] lines each unless one segment
    /// is longer: `0`, each cut, then the body's length. A prologue
    /// rides with the first segment; `segments` cover the ops in order.
    fn part_bounds(&self, segments: &[LevelSegment]) -> Vec<usize> {
        let body = &self.out.as_bytes()[self.body_start..];
        let lines = |from: usize, to: usize| body[from..to].iter().filter(|&&b| b == b'\n').count();
        let mut bounds = vec![0];
        let (mut at, mut filled) = (0, 0);
        for segment in segments {
            let end = self.op_start(segment.end);
            let added = lines(at, end);
            if filled > 0 && filled + added > PART_LINES {
                bounds.push(at);
                filled = 0;
            }
            filled += added;
            at = end;
        }
        bounds.push(body.len());
        bounds
    }

    /// Closes the kernel and returns the translation unit.
    ///
    /// The paper form closes `simulate_one_vector`. The native form
    /// cuts the body at level-segment ends (`segments`, the program's
    /// run-length level table) into `static` non-inlined parts
    /// `uds_part0`, `uds_part1`, … of about [`PART_LINES`] lines, each
    /// taking `word *uds_a, const word *pi`, and exports
    /// `simulate_one_vector` with the same parameters, calling the
    /// parts in order. The parts hold the body's statements in the
    /// body's order.
    pub fn close(mut self, segments: &[LevelSegment]) -> String {
        if !self.native {
            self.out.push_str("}\n");
            return self.out;
        }
        let bounds = self.part_bounds(segments);
        let parts = bounds.len() - 1;
        let header =
            |k: usize| format!("\nstatic UDS_NOINLINE void uds_part{k}({NATIVE_PARAMS})\n{{\n");
        let mut entry = format!("\nvoid simulate_one_vector({NATIVE_PARAMS})\n{{\n");
        for k in 0..parts {
            let _ = writeln!(entry, "    uds_part{k}(uds_a, pi);");
        }
        entry.push_str("}\n");
        let grow =
            NOINLINE.len() + (0..parts).map(|k| header(k).len() + 2).sum::<usize>() + entry.len();
        // Fill the grown buffer from its end: the entry, then each part
        // (closing brace, body slice, header) from the last to the
        // first, then the macro. Every slice moves up, never over a
        // byte not yet moved.
        let body_start = self.body_start;
        let mut bytes = self.out.into_bytes();
        let mut at = bytes.len() + grow;
        bytes.resize(at, 0);
        put_below(&mut bytes, &mut at, entry.as_bytes());
        for k in (0..parts).rev() {
            put_below(&mut bytes, &mut at, b"}\n");
            let (from, to) = (body_start + bounds[k], body_start + bounds[k + 1]);
            at -= to - from;
            bytes.copy_within(from..to, at);
            put_below(&mut bytes, &mut at, header(k).as_bytes());
        }
        put_below(&mut bytes, &mut at, NOINLINE.as_bytes());
        debug_assert_eq!(at, body_start, "every byte moved once");
        String::from_utf8(bytes).expect("whole ASCII pieces and UTF-8 slices cut at line ends")
    }
}

/// Writes `piece` just below `*at` in `bytes` and moves `at` down to it.
fn put_below(bytes: &mut [u8], at: &mut usize, piece: &[u8]) {
    *at -= piece.len();
    bytes[*at..*at + piece.len()].copy_from_slice(piece);
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
        // The native kernel's part functions and no-inline attribute.
        for reserved in ["uds_part0", "uds_part17", "UDS_NOINLINE", "__noinline__"] {
            assert_eq!(sanitize(reserved), format!("{reserved}_"));
        }
        for free in ["uds_part", "uds_part_0", "uds_part0x"] {
            assert_eq!(sanitize(free), free);
        }
    }

    /// A kernel over the one arena word `t0` whose body is a one-line
    /// prologue, then one level segment of `len` one-line ops per entry
    /// of `lengths`.
    fn kernel_and_segments(native: bool, lengths: &[usize]) -> (Kernel, Vec<LevelSegment>) {
        let names = ["t0".to_owned()];
        let mut kernel = Kernel::open(String::new(), &names, [true], native, "const word *pi");
        kernel.text().push_str("    /* prologue */\n");
        let mut segments = Vec::new();
        let mut start = 0;
        for (level, &len) in lengths.iter().enumerate() {
            for op in start..start + len {
                let _ = writeln!(kernel.op(), "    t0 = t0 ^ {op};");
            }
            segments.push(LevelSegment {
                level,
                start,
                end: start + len,
                word_ops: len as u64,
                gate_evals: len as u64,
                bytes_touched_est: 0,
            });
            start += len;
        }
        (kernel, segments)
    }

    #[test]
    fn parts_pack_whole_segments_up_to_the_budget() {
        let half = PART_LINES / 2;
        let (kernel, segments) = kernel_and_segments(true, &[half - 1, half, 1, 3 * PART_LINES, 2]);
        let cut = |op: usize| kernel.op_start(op);
        // The prologue line rides with the first segment, which the
        // second fills to the budget; a segment over the budget gets a
        // part of its own.
        assert_eq!(
            kernel.part_bounds(&segments),
            [
                0,
                cut(2 * half - 1),
                cut(2 * half),
                cut(2 * half + 3 * PART_LINES),
                cut(2 * half + 3 * PART_LINES + 2),
            ]
        );
        let (empty, none) = kernel_and_segments(true, &[]);
        assert_eq!(empty.part_bounds(&none), [0, empty.op_start(0)]);
    }

    #[test]
    fn native_kernel_calls_its_parts_in_order() {
        let (kernel, segments) = kernel_and_segments(true, &[PART_LINES, PART_LINES]);
        let bounds = kernel.part_bounds(&segments);
        let body = kernel.out[kernel.body_start..].to_owned();
        let part = |k: usize| &body[bounds[k]..bounds[k + 1]];
        let params = "(word *uds_a, const word *pi)\n{\n";
        assert_eq!(
            kernel.close(&segments),
            format!(
                "#define t0 uds_a[0]\n{NOINLINE}\
                 \nstatic UDS_NOINLINE void uds_part0{params}{}}}\n\
                 \nstatic UDS_NOINLINE void uds_part1{params}{}}}\n\
                 \nvoid simulate_one_vector{params}    \
                 uds_part0(uds_a, pi);\n    uds_part1(uds_a, pi);\n}}\n",
                part(0),
                part(1)
            )
        );
        let (paper, segments) = kernel_and_segments(false, &[PART_LINES, PART_LINES]);
        let body = paper.out[paper.body_start..].to_owned();
        assert_eq!(
            paper.close(&segments),
            format!(
                "static word t0 = ~(word)0;\n\nvoid simulate_one_vector(const word *pi)\n{{\n{body}}}\n"
            )
        );
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
