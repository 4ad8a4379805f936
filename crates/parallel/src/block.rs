//! Blocks: up to [`LANES`] consecutive vectors of one stream share one
//! pass of the op stream.
//!
//! The parallel technique spends each word's bits on time, so it cannot
//! carry several vectors in the bits of a word the way the PC-set block
//! does. It carries them in more words instead: a block runs the
//! program once over a lane-major arena of [`Lanes`] cells, vector `k`
//! in lane `k` of every slot, so each op is dispatched once per block.
//!
//! Lane `k` must start from the state vector `k - 1` left behind. The
//! pass reads that state only through its *live-in* words — the words
//! an op reads before any op of the pass writes them — and, as compile
//! time checks, each such read is either one bit of a net's field at or
//! after the net's level (its settled value) or a word the pass never
//! writes. A combinational circuit's settled values do not depend on
//! retained state, so a zero-delay sweep over the block's vectors gives
//! every lane its predecessor's settled values first; a settled
//! live-in word of lane `k` is then that value broadcast, and lane 0
//! takes the carried word itself. The sweep is skipped when every
//! settled live-in is a primary-input field, whose settled value is
//! the input itself.

//! Blocks: up to [`LANES`] consecutive vectors of one stream share one
//! pass of the op stream.
//!
//! The parallel technique spends each word's bits on time, so it cannot
//! carry several vectors in the bits of a word the way the PC-set block
//! does. It carries them in more words instead: a block runs the
//! program once over a lane-major arena of [`Lanes`] rows, vector `k`
//! in lane `k` of every row, so each op is dispatched once per block.
//!
//! Lane `k` must start from the state vector `k - 1` left behind. The
//! pass reads that state only through its *live-in* words — the words
//! an op reads before any op of the pass writes them — and, as compile
//! time checks, each such read is either one bit of a net's field at or
//! after the net's level (its settled value) or a word the pass never
//! writes. A combinational circuit's settled values do not depend on
//! retained state, so a zero-delay sweep over the block's vectors gives
//! every lane its predecessor's settled values first; a settled
//! live-in word of lane `k` is then that value broadcast, and lane 0
//! takes the carried word itself. The sweep is skipped when every
//! settled live-in is a primary-input field, whose settled value is
//! the input itself.
//!
//! The lane arena is packed by liveness: a word has a row only while
//! its value can still be read. Each *object* — a net's field, any
//! other run of words an op addresses from one base (a staging chunk,
//! a re-alignment stage), or a lone scratch word — lives from its first
//! access to its last; the fields of the primary outputs and tracked
//! nets live to the end of the pass, where a block reads their lanes.
//! Objects whose lives do not overlap share rows, and the block runs a
//! copy of the op stream renumbered onto them. Packed rows no longer
//! hold the whole arena, so the block's last vector then runs once more,
//! one lane over the full arena, from its predecessor's settled values:
//! afterwards the arena is what one-vector steps would have left.
//!
//! The pass over the rows runs in the widest instance of the executor
//! the CPU supports ([`LaneIsa`]), picked once per process.

use std::any::Any;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::OnceLock;

use uds_netlist::{GateKind, Levels, NetId, Netlist};

use crate::bitfield::FieldLayout;
use crate::program::{Program, Staging, WOp};
use crate::word::{Cell, Lanes, Word, LANES};

/// The most bytes a block's packed lane arena may take: an engine whose
/// rows need more steps one vector per pass. At 64-bit words the
/// path-tracing+trimming programs of c432 (29 KiB), c880 (51 KiB) and
/// c1908 (101 KiB) fit; c6288's (about 1.4 MiB) does not. Unpacked, at
/// one row per arena word, c1908 took 459 KiB, and a 512 KiB budget that
/// took it in left a daemon serving it among other circuits about
/// 2 MiB higher: the allocator kept its freed lane arenas
/// (EXPERIMENTS.md).
pub(crate) const LANE_ARENA_BUDGET: usize = 256 * 1024;

/// The instances of the block pass over lane rows: the baseline
/// executor, and on x86-64 the same op loop compiled for x86-64-v3
/// (AVX2, BMI2) and x86-64-v4 (AVX-512 F/VL/BW/DQ/CD), where a row of 64
/// `u64` lanes is 16 or 8 vector ops instead of 32.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum LaneIsa {
    Baseline,
    V3,
    V4,
}

impl LaneIsa {
    /// Narrowest first.
    pub(crate) const ALL: [LaneIsa; 3] = [LaneIsa::Baseline, LaneIsa::V3, LaneIsa::V4];

    /// The `build.block_isa` label.
    pub(crate) fn name(self) -> &'static str {
        match self {
            LaneIsa::Baseline => "baseline",
            LaneIsa::V3 => "x86-64-v3",
            LaneIsa::V4 => "x86-64-v4",
        }
    }

    /// Whether this CPU runs the instance: every feature it is compiled
    /// with is present.
    pub(crate) fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            let v3 = || {
                is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("bmi1")
                    && is_x86_feature_detected!("bmi2")
                    && is_x86_feature_detected!("f16c")
                    && is_x86_feature_detected!("fma")
                    && is_x86_feature_detected!("lzcnt")
                    && is_x86_feature_detected!("movbe")
                    && is_x86_feature_detected!("popcnt")
            };
            match self {
                LaneIsa::Baseline => true,
                LaneIsa::V3 => v3(),
                LaneIsa::V4 => {
                    v3() && is_x86_feature_detected!("avx512f")
                        && is_x86_feature_detected!("avx512vl")
                        && is_x86_feature_detected!("avx512bw")
                        && is_x86_feature_detected!("avx512dq")
                        && is_x86_feature_detected!("avx512cd")
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == LaneIsa::Baseline
        }
    }

    /// The widest instance this CPU supports, detected once.
    pub(crate) fn widest() -> LaneIsa {
        static WIDEST: OnceLock<LaneIsa> = OnceLock::new();
        *WIDEST.get_or_init(|| {
            let mut supported = LaneIsa::ALL.into_iter().filter(|isa| isa.supported());
            supported.next_back().unwrap_or(LaneIsa::Baseline)
        })
    }

    /// The instance this thread's blocks run: the widest, unless a test
    /// picked another with [`with_isa`].
    pub(crate) fn current() -> LaneIsa {
        #[cfg(test)]
        if let Some(isa) = FORCED_ISA.get() {
            return isa;
        }
        LaneIsa::widest()
    }

    /// Runs `program` once over the lane rows `arena`, primary input `i`
    /// broadcast per lane through `inputs[i]`.
    pub(crate) fn run<W: Word>(
        self,
        program: &Program,
        arena: &mut [Lanes<W>],
        inputs: &mut [Lanes<W>],
    ) {
        debug_assert!(self.supported(), "{self:?} on a CPU without it");
        #[cfg(target_arch = "x86_64")]
        if self != LaneIsa::Baseline {
            let (arena, inputs) = (Lanes::inline_shifts(arena), Lanes::inline_shifts(inputs));
            // SAFETY: the instance is only picked where `supported` found
            // every feature it is compiled with.
            unsafe {
                match self {
                    LaneIsa::V4 => x86::pass_v4(program, arena, inputs),
                    _ => x86::pass_v3(program, arena, inputs),
                }
            }
            return;
        }
        program.run(arena, inputs, 0..program.ops.len());
    }
}

/// Which instance of the block pass this process runs: `x86-64-v4`,
/// `x86-64-v3` or `baseline` (the `build.block_isa` label).
pub fn block_isa() -> &'static str {
    LaneIsa::widest().name()
}

/// The op loop compiled for the x86-64 feature levels: each instance
/// inlines the whole executor, lane shifts included.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::program::Program;
    use crate::word::{Lanes, Word};

    #[target_feature(enable = "avx2,bmi1,bmi2,f16c,fma,lzcnt,movbe,popcnt")]
    pub(super) fn pass_v3<W: Word>(
        program: &Program,
        arena: &mut [Lanes<W, true>],
        inputs: &[Lanes<W, true>],
    ) {
        program.run_inline(arena, inputs, 0..program.ops.len());
    }

    #[target_feature(
        enable = "avx2,bmi1,bmi2,f16c,fma,lzcnt,movbe,popcnt,avx512f,avx512vl,avx512bw,avx512dq,avx512cd"
    )]
    pub(super) fn pass_v4<W: Word>(
        program: &Program,
        arena: &mut [Lanes<W, true>],
        inputs: &[Lanes<W, true>],
    ) {
        program.run_inline(arena, inputs, 0..program.ops.len());
    }
}

#[cfg(test)]
thread_local! {
    static FORCED_ISA: std::cell::Cell<Option<LaneIsa>> = const { std::cell::Cell::new(None) };
}

/// Runs `body` with this thread's blocks in instance `isa`, which the
/// CPU must support.
#[cfg(test)]
pub(crate) fn with_isa<R>(isa: LaneIsa, body: impl FnOnce() -> R) -> R {
    assert!(isa.supported(), "{isa:?} is not supported here");
    let before = FORCED_ISA.replace(Some(isa));
    let result = body();
    FORCED_ISA.set(before);
    result
}

/// What seeds each lane of a live-in word before a block's pass.
#[derive(Clone, Copy, Debug)]
enum Seed {
    /// One bit of `net`'s field at or after its level: lane `k` gets
    /// the net's settled value after vector `k - 1`, broadcast.
    Settled(NetId),
    /// A word the pass never writes: every lane gets the carried word.
    Carried,
}

/// A live-in word: arena word `word`, at lane row `row`.
#[derive(Clone, Copy, Debug)]
struct LiveIn {
    word: u32,
    row: u32,
    seed: Seed,
}

/// One gate of the zero-delay sweep: `output = kind(operands)`, the
/// operand nets at `operands` in [`Settle::operands`].
#[derive(Clone, Debug)]
struct SettleGate {
    kind: GateKind,
    output: NetId,
    operands: Range<usize>,
}

/// The zero-delay sweep a block runs when a live-in word is not a
/// primary-input field, flattened at compile time.
#[derive(Clone, Debug)]
struct Settle {
    /// In topological order.
    gates: Vec<SettleGate>,
    operands: Vec<NetId>,
    /// Nets neither an input nor driven, with the word and bit of their
    /// final value: they keep the carried value.
    undriven: Vec<(NetId, u32, u32)>,
}

/// Why a program steps one vector per pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum NoBlocks {
    /// Its packed lane arena, `rows` rows, would outgrow
    /// [`LANE_ARENA_BUDGET`].
    OverBudget { rows: usize },
    /// A live-in read is neither a settled bit nor of a word the pass
    /// never writes.
    UnsettledRead,
}

/// A row-set of the packed lane arena: `words` arena words from
/// `base`, live from half-step `start` to half-step `end` (see
/// [`BlockPlan::new`]).
struct Object {
    base: u32,
    words: u32,
    start: u32,
    end: u32,
}

/// How a compiled program runs a block, fixed at compile time.
#[derive(Clone, Debug)]
pub(crate) struct BlockPlan {
    /// The op stream renumbered onto the packed lane rows.
    packed: Program,
    live_ins: Vec<LiveIn>,
    /// Per net, the row its field starts at for the nets pinned to the
    /// end of the pass (the primary outputs and tracked nets), or
    /// `u32::MAX`.
    pinned: Vec<u32>,
    /// The primary-input nets, by input index.
    inputs: Vec<NetId>,
    /// The net count: one settled-value word per net.
    nets: usize,
    settle: Option<Settle>,
    /// How many vectors back lane `k`'s settled live-ins come from: 1,
    /// except where a test shows that a wrong seed is caught.
    #[cfg(test)]
    pub(crate) lag: usize,
}

impl BlockPlan {
    /// The plan for `program` (compiled for `W`-bit words) whose block
    /// reads the lanes of `pinned` nets' fields, or why it has none.
    pub(crate) fn new<W: Word>(
        netlist: &Netlist,
        levels: &Levels,
        program: &Program,
        layouts: &[FieldLayout],
        pinned: &[NetId],
    ) -> Result<BlockPlan, NoBlocks> {
        Self::packed::<W>(
            netlist,
            levels,
            program,
            layouts,
            pinned,
            LANE_ARENA_BUDGET,
            0,
        )
    }

    /// [`BlockPlan::new`] under `budget` bytes, with every object freed
    /// `early` half-steps before its last use (0, except in a test that
    /// shows a wrong packing is caught).
    ///
    /// Time runs in half-steps: op `i` reads at `2i` and writes at
    /// `2i + 1`, so an object read for the last time by an op may give
    /// its rows to one that op writes first. A shift's source is read
    /// at `2i + 1` instead, since the funnel may write a destination
    /// word before reading the next source word.
    fn packed<W: Word>(
        netlist: &Netlist,
        levels: &Levels,
        program: &Program,
        layouts: &[FieldLayout],
        pinned: &[NetId],
        budget: usize,
        early: u32,
    ) -> Result<BlockPlan, NoBlocks> {
        let words = program.arena_words;
        let mut owner = vec![None; words];
        // `joined[w]`: word `w` is in the same object as word `w - 1`.
        let mut joined = vec![false; words];
        for net in netlist.net_ids() {
            let layout = &layouts[net.index()];
            let field = layout.base as usize..(layout.base + layout.words) as usize;
            owner[field.clone()].fill(Some(net));
            joined[field.start + 1..field.end].fill(true);
        }
        let mut written = vec![false; words];
        let mut first_reads = Vec::new();
        let (mut first, mut last) = (vec![u32::MAX; words], vec![0u32; words]);
        for (index, op) in program.ops.iter().enumerate() {
            let (read_at, write_at) = (2 * index as u32, 2 * index as u32 + 1);
            let source_at = match op {
                WOp::ShiftField { .. } | WOp::ShiftRight { .. } => write_at,
                _ => read_at,
            };
            let writes = op.accesses::<W>(&program.operands, |word, bit| {
                if !written[word as usize] {
                    first_reads.push((word, bit));
                }
                let word = word as usize;
                first[word] = first[word].min(source_at);
                last[word] = last[word].max(source_at);
            });
            let writes = writes.start as usize..writes.end as usize;
            written[writes.clone()].fill(true);
            for word in writes.clone() {
                first[word] = first[word].min(write_at);
                last[word] = last[word].max(write_at);
            }
            joined[writes.start + 1..writes.end].fill(true);
            if let WOp::ShiftField { src, top_word, .. } = *op {
                joined[src as usize + 1..=(src + u32::from(top_word)) as usize].fill(true);
            }
            if let WOp::ShiftRight { src, top_word, .. } = *op {
                joined[src as usize + 1..=(src + u32::from(top_word)) as usize].fill(true);
            }
        }

        // The net whose settled value a one-bit read of `word` sees.
        let settled_net = |word: u32, bit: Option<u32>| {
            let net = owner[word as usize]?;
            let layout = &layouts[net.index()];
            let field_bit = (word - layout.base) * W::BITS + bit?;
            let time = i64::from(layout.align) + i64::from(field_bit);
            let settled = time >= i64::from(levels.net_level[net.index()]);
            (field_bit < layout.width && settled).then_some(net)
        };
        let mut is_pinned = vec![false; netlist.net_count()];
        for &net in pinned {
            is_pinned[net.index()] = true;
        }
        // A pinned field's word the pass never writes is carried in
        // every lane, read or not: the block reads the field's lanes.
        let unwritten_pinned = (0..words as u32)
            .filter(|&word| {
                let pinned = owner[word as usize].is_some_and(|net| is_pinned[net.index()]);
                pinned && !written[word as usize]
            })
            .map(|word| (word, None));
        let mut seen = vec![false; words];
        let mut live_ins = Vec::new();
        for (word, bit) in first_reads.into_iter().chain(unwritten_pinned) {
            let seed = if written[word as usize] {
                Seed::Settled(settled_net(word, bit).ok_or(NoBlocks::UnsettledRead)?)
            } else {
                Seed::Carried
            };
            if !std::mem::replace(&mut seen[word as usize], true) {
                live_ins.push(LiveIn { word, row: 0, seed });
                first[word as usize] = 0;
            }
        }

        // Objects: runs of joined words, each live from its first access
        // to its last (a pinned field to the end of the pass).
        let end_of_pass = 2 * program.ops.len() as u32;
        let mut objects: Vec<Object> = Vec::new();
        for word in 0..words {
            if joined[word] {
                let object = objects.last_mut().expect("word 0 starts an object");
                object.words += 1;
                object.start = object.start.min(first[word]);
                object.end = object.end.max(last[word]);
            } else {
                objects.push(Object {
                    base: word as u32,
                    words: 1,
                    start: first[word],
                    end: last[word],
                });
            }
        }
        for net in pinned {
            let base = layouts[net.index()].base;
            let at = objects.partition_point(|object| object.base <= base) - 1;
            objects[at].end = end_of_pass;
        }
        objects.retain(|object| object.start != u32::MAX);
        objects.sort_unstable_by_key(|object| (object.start, object.base));

        // Linear scan: an object takes rows freed by one whose life ended
        // before it began, of its own size, or new rows past the end.
        let mut row_of = vec![u32::MAX; words];
        let mut rows = 0u32;
        let mut free: Vec<Vec<u32>> = Vec::new();
        let mut live: BinaryHeap<Reverse<(u32, u32, u32)>> = BinaryHeap::new();
        for object in &objects {
            while let Some(&Reverse((end, base, size))) = live.peek() {
                if end >= object.start {
                    break;
                }
                live.pop();
                free[size as usize].push(base);
            }
            let size = object.words as usize;
            if free.len() <= size {
                free.resize_with(size + 1, Vec::new);
            }
            let base = free[size].pop().unwrap_or_else(|| {
                rows += object.words;
                rows - object.words
            });
            let end = object.end.saturating_sub(early).max(object.start);
            live.push(Reverse((end, base, object.words)));
            for offset in 0..object.words {
                row_of[(object.base + offset) as usize] = base + offset;
            }
        }
        let rows = rows as usize;
        if rows.saturating_mul(std::mem::size_of::<Lanes<W>>()) > budget {
            return Err(NoBlocks::OverBudget { rows });
        }

        for live in &mut live_ins {
            live.row = row_of[live.word as usize];
        }
        let at = |word: u32| row_of[word as usize];
        let packed = Program {
            ops: program.ops.iter().map(|op| op.renumber(at)).collect(),
            operands: program.operands.renumber(at),
            arena_words: rows,
            input_count: program.input_count,
            staging: Staging::default(),
        };
        let mut pinned_rows = vec![u32::MAX; netlist.net_count()];
        for &net in pinned {
            pinned_rows[net.index()] = row_of[layouts[net.index()].base as usize];
        }
        let inputs = netlist.primary_inputs().to_vec();
        let is_input = |net: NetId| inputs.contains(&net);
        let needs_settle = live_ins
            .iter()
            .any(|live| matches!(live.seed, Seed::Settled(net) if !is_input(net)));
        Ok(BlockPlan {
            packed,
            live_ins,
            pinned: pinned_rows,
            inputs,
            nets: netlist.net_count(),
            settle: needs_settle.then(|| Settle::new::<W>(netlist, levels, layouts)),
            #[cfg(test)]
            lag: 1,
        })
    }

    /// [`BlockPlan::new`] over any budget, with every object freed
    /// `early` half-steps before its last use.
    #[cfg(test)]
    pub(crate) fn unbudgeted<W: Word>(
        netlist: &Netlist,
        levels: &Levels,
        program: &Program,
        layouts: &[FieldLayout],
        pinned: &[NetId],
        early: u32,
    ) -> BlockPlan {
        Self::packed::<W>(netlist, levels, program, layouts, pinned, usize::MAX, early)
            .expect("every live-in read is settled")
    }

    /// The live-in words a block seeds.
    #[cfg(test)]
    pub(crate) fn live_ins(&self) -> usize {
        self.live_ins.len()
    }

    /// Rows of the packed lane arena.
    pub(crate) fn rows(&self) -> usize {
        self.packed.arena_words
    }

    /// Whether a block reads `net`'s lanes: its field is pinned.
    pub(crate) fn pins(&self, net: NetId) -> bool {
        self.pinned[net.index()] != u32::MAX
    }

    /// Bit `bit` of pinned `net`'s field (laid out as `layout`) in lane
    /// `lane` of the last block run on `lanes`.
    pub(crate) fn lane_bit<W: Word>(
        &self,
        lanes: &LaneScratch<W>,
        net: NetId,
        bit: u32,
        lane: usize,
    ) -> bool {
        let row = self.pinned[net.index()] + bit / W::BITS;
        lanes.arena[row as usize].0[lane].bit(bit % W::BITS)
    }

    /// Runs `vectors` (2 to [`LANES`] of them, each as wide as the
    /// input count) as one pass of the packed program over `lanes`,
    /// starting from the one-lane `arena`, then the last of them once
    /// more through `program` over `arena`, which then holds what
    /// one-vector steps would have left.
    pub(crate) fn run<W: Word>(
        &self,
        program: &Program,
        arena: &mut [W],
        lanes: &mut LaneScratch<W>,
        vectors: &[&[bool]],
    ) {
        let n = vectors.len();
        debug_assert!((2..=LANES).contains(&n));
        lanes.prepare(self.rows(), self.inputs.len(), self.nets);
        // Lane `k` of input `i` is vector `k`'s bit `i`, broadcast;
        // bit `k` of `values[net]` is the net's settled value after
        // vector `k`.
        for (index, &net) in self.inputs.iter().enumerate() {
            let bits = vectors.iter().enumerate().fold(0u64, |bits, (k, vector)| {
                bits | u64::from(vector[index]) << k
            });
            lanes.values[net.index()] = bits;
            lanes.inputs[index] = Lanes(std::array::from_fn(|k| W::splat(bits >> k & 1 != 0)));
        }
        if let Some(settle) = &self.settle {
            settle.sweep(arena, &mut lanes.values, &mut lanes.operands);
        }
        #[cfg(not(test))]
        let lag = 1;
        #[cfg(test)]
        let lag = self.lag;
        for live in &self.live_ins {
            let carried = arena[live.word as usize];
            let row = &mut lanes.arena[live.row as usize].0;
            match live.seed {
                Seed::Settled(net) => {
                    let settled = lanes.values[net.index()];
                    row[0] = carried;
                    for (k, lane) in row.iter_mut().enumerate().take(n).skip(1) {
                        *lane = W::splat(settled >> (k - lag) & 1 != 0);
                    }
                }
                Seed::Carried => row.fill(carried),
            }
        }
        LaneIsa::current().run(&self.packed, &mut lanes.arena, &mut lanes.inputs);

        // The last vector over the whole arena, from its predecessor's
        // settled values; carried words are already in place.
        for live in &self.live_ins {
            if let Seed::Settled(net) = live.seed {
                let settled = lanes.values[net.index()] >> (n - 1 - lag) & 1 != 0;
                arena[live.word as usize] = W::splat(settled);
            }
        }
        lanes.last.clear();
        lanes
            .last
            .extend(lanes.inputs.iter().map(|input| input.0[n - 1]));
        program.run(arena, &lanes.last, 0..program.ops.len());
    }

    /// The first read in the packed pass of a row that holds another
    /// word than the one the program reads there — a row an object was
    /// given while its previous owner was still live — or of a pinned
    /// field's row at the end of the pass; `None` when every read sees
    /// the word it names.
    #[cfg(test)]
    pub(crate) fn first_stale_read<W: Word>(
        &self,
        program: &Program,
        layouts: &[FieldLayout],
    ) -> Option<String> {
        let mut holds = vec![u32::MAX; self.rows()];
        for live in &self.live_ins {
            holds[live.row as usize] = live.word;
        }
        for (index, (op, packed)) in program.ops.iter().zip(&self.packed.ops).enumerate() {
            let mut reads = Vec::new();
            let writes = op.accesses::<W>(&program.operands, |word, _| reads.push(word));
            let mut rows = Vec::new();
            let row_writes = packed.accesses::<W>(&self.packed.operands, |row, _| rows.push(row));
            assert_eq!(reads.len(), rows.len(), "op {index}: {op:?} as {packed:?}");
            for (&word, &row) in reads.iter().zip(&rows) {
                if holds[row as usize] != word {
                    let holder = holds[row as usize];
                    return Some(format!(
                        "op {index} reads word {word} at row {row}, which holds {holder}"
                    ));
                }
            }
            for (word, row) in writes.zip(row_writes) {
                holds[row as usize] = word;
            }
        }
        for (net, &row) in self.pinned.iter().enumerate() {
            let layout = &layouts[net];
            let lost = || (0..layout.words).any(|w| holds[(row + w) as usize] != layout.base + w);
            if row != u32::MAX && lost() {
                return Some(format!("net {net} lost its field by the end of the pass"));
            }
        }
        None
    }
}

impl Settle {
    /// The sweep over `netlist`'s gates in topological order, reading
    /// an undriven net's final bit from `W`-bit fields at `layouts`.
    fn new<W: Word>(netlist: &Netlist, levels: &Levels, layouts: &[FieldLayout]) -> Settle {
        let mut operands = Vec::new();
        let gates = levels
            .topo_gates
            .iter()
            .map(|&gid| {
                let gate = netlist.gate(gid);
                let start = operands.len();
                operands.extend_from_slice(&gate.inputs);
                SettleGate {
                    kind: gate.kind,
                    output: gate.output,
                    operands: start..operands.len(),
                }
            })
            .collect();
        let inputs = netlist.primary_inputs();
        let undriven = netlist
            .net_ids()
            .filter(|&net| netlist.driver(net).is_none() && !inputs.contains(&net))
            .map(|net| {
                let layout = &layouts[net.index()];
                let bit = layout.final_bit();
                (net, layout.base + bit / W::BITS, bit % W::BITS)
            })
            .collect();
        Settle {
            gates,
            operands,
            undriven,
        }
    }

    /// Settles every lane: bit `k` of `values[net]` becomes the net's
    /// zero-delay value under vector `k`, whose input bits `values`
    /// already holds. An undriven net keeps its carried final bit.
    fn sweep<W: Word>(&self, arena: &[W], values: &mut [u64], operands: &mut Vec<u64>) {
        for &(net, word, bit) in &self.undriven {
            values[net.index()] = 0u64.wrapping_sub(u64::from(arena[word as usize].bit(bit)));
        }
        let gates = self.gates.iter().map(|gate| {
            let inputs = &self.operands[gate.operands.clone()];
            (gate.kind, gate.output, inputs)
        });
        sweep_gates(gates, values, operands);
    }
}

/// Settles `netlist` under the input bits `values` holds, one lane per
/// bit: the power-up state is lane 0 of the sweep under all-0 inputs.
/// Undriven nets keep what `values` holds.
pub(crate) fn settle(netlist: &Netlist, levels: &Levels, values: &mut [u64]) {
    let gates = levels.topo_gates.iter().map(|&gid| {
        let gate = netlist.gate(gid);
        (gate.kind, gate.output, gate.inputs.as_slice())
    });
    sweep_gates(gates, values, &mut Vec::new());
}

/// The one zero-delay sweep: each gate `(kind, output, inputs)`, in
/// topological order, sets bit `k` of its output's word to its value
/// under bit `k` of its inputs' words.
fn sweep_gates<'a>(
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

thread_local! {
    /// This thread's block scratch, one per word width. A run borrows
    /// it for one block; every block overwrites what it reads, so
    /// nothing carries over from another run. The lane arena is
    /// allocated once per thread with the whole budget's capacity and
    /// kept until the thread ends: freeing it after each run raised
    /// glibc's mmap threshold, after which a daemon's worker heaps kept
    /// the freed arenas.
    static SCRATCH: RefCell<(LaneScratch<u32>, LaneScratch<u64>)> = RefCell::default();
}

/// Runs `body` on this thread's block scratch for `W`-bit words.
pub(crate) fn with_scratch<W: Word, R>(body: impl FnOnce(&mut LaneScratch<W>) -> R) -> R {
    SCRATCH.with_borrow_mut(|(narrow, wide)| {
        let scratch: &mut dyn Any = if W::BITS == 32 { narrow } else { wide };
        let scratch = scratch
            .downcast_mut()
            .expect("a lane scratch per word width");
        body(scratch)
    })
}

/// A block's scratch: the lane arena, the lane inputs, the settled
/// values of the block's vectors and the last vector's input words.
#[derive(Default)]
pub(crate) struct LaneScratch<W: Word> {
    arena: Vec<Lanes<W>>,
    inputs: Vec<Lanes<W>>,
    values: Vec<u64>,
    operands: Vec<u64>,
    last: Vec<W>,
}

impl<W: Word> LaneScratch<W> {
    /// Makes the buffers hold `rows` lane rows, `inputs` primary inputs
    /// and `nets` nets. The first lane arena takes the whole budget's
    /// capacity, of which only the rows in use are touched. Its rows may
    /// hold another run's words: a block writes every row before
    /// reading it, apart from the live-ins it seeds.
    fn prepare(&mut self, rows: usize, inputs: usize, nets: usize) {
        if self.arena.capacity() == 0 {
            self.arena = Vec::with_capacity(LANE_ARENA_BUDGET / std::mem::size_of::<Lanes<W>>());
        }
        self.arena.resize(rows, Lanes::ZERO);
        self.inputs.resize(inputs, Lanes::ZERO);
        self.values.resize(nets, 0);
    }

    /// Lanes `0..lanes` of every row in use.
    #[cfg(test)]
    pub(crate) fn rows(&self, lanes: usize) -> Vec<Vec<W>> {
        self.arena
            .iter()
            .map(|row| row.0[..lanes].to_vec())
            .collect()
    }
}
