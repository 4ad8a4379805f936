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
//! ([`NativeSource`]) keeps no state and names each arena word as a
//! slot of the caller's `uds_a`. Its body is cut at level-segment ends
//! into hidden, non-inlined part functions of about [`PART_LINES`]
//! lines, and the parts are grouped in order into at most
//! [`MAX_UNITS`] translation units of at least [`UNIT_LINES`] lines.
//! The one exported entry, `void simulate_one_vector(word *uds_a, const
//! word *pi)`, sits in the last unit and calls the parts in order. `cc`
//! compiles many small functions much faster than one straight-line
//! body, and several units can compile at once, one `cc` per core.

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
/// their attributes, the block-local temporaries of the parallel
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
            | "UDS_HIDDEN"
            | "__GNUC__"
            | "__attribute__"
            | "__noinline__"
            | "__visibility__"
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

/// Statement lines each translation unit of a native kernel holds at
/// least: a kernel is cut into one unit per whole `UNIT_LINES` of its
/// body, so a small kernel stays one unit (splitting c432 only adds
/// `cc` start-ups) while c880 gets two.
pub const UNIT_LINES: usize = 1000;

/// Most translation units one native kernel is cut into. The cut is a
/// function of the kernel alone, never of the host's core count, so an
/// artifact's name does not depend on where it was built.
pub const MAX_UNITS: usize = 4;

/// The attributes of the native kernel's part functions. `noinline`
/// keeps `cc` from inlining a part back into the entry (gcc inlines a
/// function called once, even at `-O1`); `hidden` keeps each part out
/// of the shared object's exports, so the entry calls it directly,
/// without a PLT stub, from whichever unit defines it. Other compilers
/// get empty attributes and still compile the kernel.
const PART_ATTRIBUTES: &str = "#ifdef __GNUC__
#define UDS_NOINLINE __attribute__((__noinline__))
#define UDS_HIDDEN __attribute__((__visibility__(\"hidden\")))
#else
#define UDS_NOINLINE
#define UDS_HIDDEN
#endif
";

/// The parameters of every native part and of the native entry.
const NATIVE_PARAMS: &str = "word *uds_a, const word *pi";

/// A native kernel's C, cut into translation units: one text that is a
/// shared prelude (the `word` typedef, the arena `#define`s and the
/// part attributes) followed by each unit in order. `cc` compiles the
/// prelude followed by one unit, once per unit, and links the objects;
/// the whole text is also one valid translation unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NativeSource {
    text: String,
    /// Where each unit begins in `text`, in order.
    unit_starts: Vec<usize>,
}

impl NativeSource {
    /// The whole kernel: the prelude, then every unit.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Where each unit begins in [`NativeSource::text`]; the prelude is
    /// everything before the first.
    pub fn unit_starts(&self) -> &[usize] {
        &self.unit_starts
    }

    /// The text every unit is compiled after.
    pub fn prelude(&self) -> &str {
        &self.text[..self.unit_starts[0]]
    }

    /// The translation units, without the prelude, in order. The last
    /// one holds the exported entry.
    pub fn units(&self) -> impl Iterator<Item = &str> {
        let ends = self.unit_starts[1..].iter().copied();
        self.unit_starts
            .iter()
            .zip(ends.chain([self.text.len()]))
            .map(|(&from, to)| &self.text[from..to])
    }
}

/// The first part of each translation unit, given each part's
/// statement lines: one unit per whole [`UNIT_LINES`] of the body, at
/// least one and at most [`MAX_UNITS`], each closed at the part end
/// nearest its share of the lines. The cut depends on the part sizes
/// alone.
fn unit_firsts(part_lines: &[usize]) -> Vec<usize> {
    let total: usize = part_lines.iter().sum();
    let units = (total / UNIT_LINES).clamp(1, MAX_UNITS);
    let mut firsts = vec![0];
    let mut filled = 0;
    for (k, &lines) in part_lines.iter().enumerate() {
        // Part `k` opens the next unit once its midpoint is past the
        // current unit's share.
        let share = firsts.len() * total / units;
        if firsts.len() < units && filled > 0 && 2 * filled + lines > 2 * share {
            firsts.push(k);
        }
        filled += lines;
    }
    firsts
}

/// One piece of a native kernel's text after the prelude's arena
/// words, in order.
enum Piece {
    /// Generated text.
    Text(String),
    /// The body's bytes `from..to`, relative to its start.
    Body(usize, usize),
    /// Where a translation unit begins (no bytes).
    Unit,
}

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
    /// [`Kernel::close_native`] cuts the body into parts and units.
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

    /// The body's statement lines from byte `from` to byte `to`.
    fn lines(&self, from: usize, to: usize) -> usize {
        let body = &self.out.as_bytes()[self.body_start..];
        body[from..to].iter().filter(|&&b| b == b'\n').count()
    }

    /// Byte offsets in the body that cut it into parts of whole level
    /// segments, at most [`PART_LINES`] lines each unless one segment
    /// is longer: `0`, each cut, then the body's length. A prologue
    /// rides with the first segment; `segments` cover the ops in order.
    fn part_bounds(&self, segments: &[LevelSegment]) -> Vec<usize> {
        let mut bounds = vec![0];
        let (mut at, mut filled) = (0, 0);
        for segment in segments {
            let end = self.op_start(segment.end);
            let added = self.lines(at, end);
            if filled > 0 && filled + added > PART_LINES {
                bounds.push(at);
                filled = 0;
            }
            filled += added;
            at = end;
        }
        bounds.push(self.out.len() - self.body_start);
        bounds
    }

    /// Closes the paper form's `simulate_one_vector` and returns the
    /// translation unit.
    pub fn close(mut self) -> String {
        debug_assert!(!self.native, "a native kernel closes into units");
        self.out.push_str("}\n");
        self.out
    }

    /// Closes the native form and returns its translation units.
    ///
    /// The body is cut at level-segment ends (`segments`, the program's
    /// run-length level table) into non-inlined, hidden parts
    /// `uds_part0`, `uds_part1`, … of about [`PART_LINES`] lines, each
    /// taking `word *uds_a, const word *pi`, and the parts are grouped
    /// in order into units of at least [`UNIT_LINES`] lines, at most
    /// [`MAX_UNITS`] of them. Each unit opens with a `/* unit k of n */`
    /// comment. The last unit also declares the parts the other units
    /// define and exports `simulate_one_vector` with the same
    /// parameters, calling every part in order. The parts hold the
    /// body's statements in the body's order.
    pub fn close_native(self, segments: &[LevelSegment]) -> NativeSource {
        debug_assert!(self.native, "a paper kernel closes into one function");
        let bounds = self.part_bounds(segments);
        let parts = bounds.len() - 1;
        let part_lines: Vec<usize> = bounds.windows(2).map(|b| self.lines(b[0], b[1])).collect();
        let firsts = unit_firsts(&part_lines);
        let units = firsts.len();
        let last_first = firsts[units - 1];

        let mut pieces = vec![Piece::Text(PART_ATTRIBUTES.to_owned())];
        for k in 0..parts {
            if let Ok(unit) = firsts.binary_search(&k) {
                pieces.push(Piece::Unit);
                pieces.push(Piece::Text(format!("\n/* unit {unit} of {units} */\n")));
            }
            pieces.push(Piece::Text(format!(
                "\nUDS_HIDDEN UDS_NOINLINE void uds_part{k}({NATIVE_PARAMS})\n{{\n"
            )));
            pieces.push(Piece::Body(bounds[k], bounds[k + 1]));
            pieces.push(Piece::Text("}\n".to_owned()));
        }
        let mut entry = String::from("\n");
        for k in 0..last_first {
            let _ = writeln!(entry, "UDS_HIDDEN void uds_part{k}({NATIVE_PARAMS});");
        }
        let _ = write!(entry, "\nvoid simulate_one_vector({NATIVE_PARAMS})\n{{\n");
        for k in 0..parts {
            let _ = writeln!(entry, "    uds_part{k}(uds_a, pi);");
        }
        entry.push_str("}\n");
        pieces.push(Piece::Text(entry));

        let len = |piece: &Piece| match piece {
            Piece::Text(text) => text.len(),
            Piece::Body(from, to) => to - from,
            Piece::Unit => 0,
        };
        let body_start = self.body_start;
        let mut unit_starts = Vec::with_capacity(units);
        let mut at = body_start;
        for piece in &pieces {
            if let Piece::Unit = piece {
                unit_starts.push(at);
            }
            at += len(piece);
        }
        // Fill the grown buffer from its end, piece by piece from the
        // last: every body slice moves up, never over a byte not yet
        // moved.
        let mut bytes = self.out.into_bytes();
        bytes.resize(at, 0);
        for piece in pieces.iter().rev() {
            match *piece {
                Piece::Text(ref text) => {
                    at -= text.len();
                    bytes[at..at + text.len()].copy_from_slice(text.as_bytes());
                }
                Piece::Body(from, to) => {
                    at -= to - from;
                    bytes.copy_within(body_start + from..body_start + to, at);
                }
                Piece::Unit => {}
            }
        }
        debug_assert_eq!(at, body_start, "every byte moved once");
        NativeSource {
            text: String::from_utf8(bytes)
                .expect("whole ASCII pieces and UTF-8 slices cut at line ends"),
            unit_starts,
        }
    }
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
        // The native kernel's part functions and their attributes.
        for reserved in [
            "uds_part0",
            "uds_part17",
            "UDS_NOINLINE",
            "UDS_HIDDEN",
            "__noinline__",
            "__visibility__",
        ] {
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
        let source = kernel.close_native(&segments);
        let prelude = format!("#define t0 uds_a[0]\n{PART_ATTRIBUTES}");
        assert_eq!(source.prelude(), prelude);
        assert_eq!(
            source.text(),
            format!(
                "{prelude}\n/* unit 0 of 1 */\n\
                 \nUDS_HIDDEN UDS_NOINLINE void uds_part0{params}{}}}\n\
                 \nUDS_HIDDEN UDS_NOINLINE void uds_part1{params}{}}}\n\
                 \n\nvoid simulate_one_vector{params}    \
                 uds_part0(uds_a, pi);\n    uds_part1(uds_a, pi);\n}}\n",
                part(0),
                part(1)
            )
        );
        let (paper, _) = kernel_and_segments(false, &[PART_LINES, PART_LINES]);
        let body = paper.out[paper.body_start..].to_owned();
        assert_eq!(
            paper.close(),
            format!(
                "static word t0 = ~(word)0;\n\nvoid simulate_one_vector(const word *pi)\n{{\n{body}}}\n"
            )
        );
    }

    #[test]
    fn units_group_whole_parts_by_the_kernel_size_alone() {
        // One unit per whole UNIT_LINES of body, capped at MAX_UNITS.
        let units = |lines: usize| unit_firsts(&vec![PART_LINES; lines / PART_LINES]).len();
        assert_eq!(units(0), 1);
        assert_eq!(units(2 * UNIT_LINES - PART_LINES), 1);
        assert_eq!(units(2 * UNIT_LINES), 2);
        assert_eq!(units(4 * UNIT_LINES), 4);
        assert_eq!(units(40 * UNIT_LINES), MAX_UNITS);
        // Units close at the part end nearest their share of the lines;
        // a unit is never empty, so there are never more than parts.
        assert_eq!(unit_firsts(&[5, 5, 2000, 5]), [0, 2]);
        assert_eq!(unit_firsts(&[4000, 1]), [0, 1]);
        assert_eq!(unit_firsts(&[4000]), [0]);
    }

    #[test]
    fn the_unit_cut_is_a_function_of_the_kernel_alone() {
        // The same kernel closes into the same text and the same units
        // every time: nothing about the host (its core count above all)
        // enters the cut, so the artifact a kernel names is the same
        // wherever it is built.
        let lengths = [PART_LINES; 2 * UNIT_LINES / PART_LINES + 1];
        let close = || {
            let (kernel, segments) = kernel_and_segments(true, &lengths);
            kernel.close_native(&segments)
        };
        let source = close();
        assert_eq!(source, close());
        let units: Vec<&str> = source.units().collect();
        assert_eq!(units.len(), 2);
        assert!(
            units[0].starts_with("\n/* unit 0 of 2 */\n"),
            "{}",
            units[0]
        );
        assert!(
            units[1].starts_with("\n/* unit 1 of 2 */\n"),
            "{}",
            units[1]
        );
        assert_eq!(
            source.prelude().len() + units.concat().len(),
            source.text().len()
        );
        // The first unit exports nothing; the last declares the parts
        // the first defines and holds the entry, which calls them all.
        assert!(!units[0].contains("simulate_one_vector"));
        let first_parts = units[0].matches("UDS_NOINLINE void uds_part").count();
        let declared = units[1].matches("\nUDS_HIDDEN void uds_part").count();
        assert_eq!(declared, first_parts);
        assert_eq!(
            units[1].matches("(uds_a, pi);\n").count(),
            lengths.len(),
            "{}",
            units[1]
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
