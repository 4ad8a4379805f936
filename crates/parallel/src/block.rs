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
//! copy of the op stream renumbered onto them. The copy leaves out the
//! ops whose words neither a later op of the copy nor a pinned field
//! reads — on c6288's default program, 880 of its 8014 ops, trimming's
//! fills of words only a history readback reads — so their words take
//! no rows. Packed rows no longer hold the whole arena, so the block's
//! last vector then runs once more, through the whole program, one lane
//! over the full arena, from its predecessor's settled values:
//! afterwards the arena is what one-vector steps would have left.
//!
//! *Lane groups.* A row is 64 lanes wide when the packed rows fit
//! [`LANE_ARENA_BUDGET`] at that width, and [`GROUP_LANES`] (8) wide
//! when only the narrow rows do (c6288's default program).
//! A block still carries 64 vectors: the inputs are folded and the
//! settle sweep runs once for all of them, then the rows carry them 8
//! at a time, one pass of the packed program per group. Lane 0 of
//! group `g > 0` is seeded like any other lane, from the sweep's settled
//! values after the vector just before it; only the block's first
//! vector takes the carried words. Each group's pinned lanes are read
//! before the next group's pass, and the last vector's one-lane rerun
//! comes once, after the last group.
//!
//! The pass over the rows runs in the widest instance of the executor
//! the CPU supports ([`LaneIsa`]), picked once per process.

use std::any::Any;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::OnceLock;

use uds_netlist::{sweep_gates, GateKind, Levels, NetId, Netlist};

use crate::bitfield::FieldLayout;
use crate::program::{Program, Staging, WOp};
use crate::word::{Lanes, Word, GROUP_LANES, LANES};

/// The most bytes a block's packed lane arena may take, and the size of
/// each thread's lane scratch. A program whose 64-lane rows need more
/// runs its blocks through rows of 8 lanes; one whose 8-lane rows need
/// more too steps one vector per pass. At 64-bit words the
/// path-tracing+trimming programs of c432 (29 KiB), c880 (51 KiB) and
/// c1908 (101 KiB) fit at 64 lanes; c6288's (588 KiB at 64 lanes)
/// fits at 8 (74 KiB), and so does its 32-bit program (101 KiB); its
/// unoptimized program (412 KiB at 8 lanes) steps. Unpacked, at one row
/// per arena word, c1908 took 459 KiB, and
/// a 512 KiB budget that took it in left a daemon serving it among
/// other circuits about 2 MiB higher: the allocator kept its freed lane
/// arenas (EXPERIMENTS.md).
pub(crate) const LANE_ARENA_BUDGET: usize = 256 * 1024;

/// The instances of the block pass over lane rows: the baseline
/// executor, and on x86-64 the same op loop compiled for x86-64-v3
/// (AVX2, BMI2) and x86-64-v4 (AVX-512 F/VL/BW/DQ/CD), where a row of 64
/// `u64` lanes is 16 or 8 vector ops instead of 32. Each exists for
/// both row widths.
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
    pub(crate) fn run<W: Word, const N: usize>(
        self,
        program: &Program,
        arena: &mut [Lanes<W, N>],
        inputs: &mut [Lanes<W, N>],
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
    pub(super) fn pass_v3<W: Word, const N: usize>(
        program: &Program,
        arena: &mut [Lanes<W, N, true>],
        inputs: &[Lanes<W, N, true>],
    ) {
        program.run_inline(arena, inputs, 0..program.ops.len());
    }

    #[target_feature(
        enable = "avx2,bmi1,bmi2,f16c,fma,lzcnt,movbe,popcnt,avx512f,avx512vl,avx512bw,avx512dq,avx512cd"
    )]
    pub(super) fn pass_v4<W: Word, const N: usize>(
        program: &Program,
        arena: &mut [Lanes<W, N, true>],
        inputs: &[Lanes<W, N, true>],
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
    operands: Range<u32>,
}

/// The zero-delay sweep a block runs when a live-in word is not a
/// primary-input field, flattened at compile time over the gates whose
/// settled values a live-in reads, directly or through other gates.
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
    /// [`LANE_ARENA_BUDGET`] even at [`GROUP_LANES`] lanes.
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
    /// Lanes per row: [`LANES`], or [`GROUP_LANES`] when 64-lane rows
    /// would outgrow the budget.
    lanes: usize,
    /// The live-ins of the lane pass.
    live_ins: Vec<LiveIn>,
    /// The settled live-ins of the whole program, which the last
    /// vector's rerun reads: arena word, and the net whose settled
    /// value it holds.
    rerun: Vec<(u32, NetId)>,
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
    /// Whether lane 0 of every group takes the carried words, as the
    /// block's first vector does: `false`, except where a test shows
    /// that a wrong seed at a group's edge is caught.
    #[cfg(test)]
    pub(crate) carry_group_heads: bool,
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
        let live_ops = live_ops::<W>(program, layouts, pinned);
        // The live-ins of the whole program, which the last vector's
        // rerun runs, and of the ops the lane pass runs; only the latter
        // give words their lives and rows.
        let (mut written, mut written_live) = (vec![false; words], vec![false; words]);
        let (mut first_reads, mut lane_reads) = (Vec::new(), Vec::new());
        let (mut first, mut last) = (vec![u32::MAX; words], vec![0u32; words]);
        for (index, op) in program.ops.iter().enumerate() {
            let live = live_ops[index];
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
                if live {
                    if !written_live[word] {
                        lane_reads.push(word as u32);
                    }
                    first[word] = first[word].min(source_at);
                    last[word] = last[word].max(source_at);
                }
            });
            let writes = writes.start as usize..writes.end as usize;
            written[writes.clone()].fill(true);
            if !live {
                continue;
            }
            written_live[writes.clone()].fill(true);
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
        // Every read before the program writes its word must see a
        // settled bit or a word the program never writes.
        let mut seed = vec![None; words];
        let mut rerun = Vec::new();
        for (word, bit) in first_reads {
            if !written[word as usize] {
                seed[word as usize] = Some(Seed::Carried);
                continue;
            }
            let net = settled_net(word, bit).ok_or(NoBlocks::UnsettledRead)?;
            if seed[word as usize].replace(Seed::Settled(net)).is_none() {
                rerun.push((word, net));
            }
        }
        // A pinned field's word the pass never writes is carried in
        // every lane, read or not: the block reads the field's lanes.
        let unwritten_pinned = (0..words as u32).filter(|&word| {
            let pinned = owner[word as usize].is_some_and(|net| is_pinned[net.index()]);
            pinned && !written[word as usize]
        });
        let mut seen = vec![false; words];
        let mut live_ins = Vec::new();
        for word in lane_reads.into_iter().chain(unwritten_pinned) {
            if !std::mem::replace(&mut seen[word as usize], true) {
                let seed = seed[word as usize].unwrap_or(Seed::Carried);
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
        let fits = |lanes: usize| rows.saturating_mul(lanes * std::mem::size_of::<W>()) <= budget;
        let Some(lanes) = [LANES, GROUP_LANES].into_iter().find(|&lanes| fits(lanes)) else {
            return Err(NoBlocks::OverBudget { rows });
        };

        for live in &mut live_ins {
            live.row = row_of[live.word as usize];
        }
        let at = |word: u32| row_of[word as usize];
        let live = program.ops.iter().zip(&live_ops).filter(|&(_, &live)| live);
        let packed = Program {
            ops: live.map(|(op, _)| op.renumber(at)).collect(),
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
        // The lanes and the rerun read these nets' settled values.
        let settled: Vec<NetId> = rerun
            .iter()
            .map(|&(_, net)| net)
            .filter(|&net| !is_input(net))
            .collect();
        Ok(BlockPlan {
            packed,
            lanes,
            live_ins,
            rerun,
            pinned: pinned_rows,
            inputs,
            nets: netlist.net_count(),
            settle: (!settled.is_empty())
                .then(|| Settle::new::<W>(netlist, levels, layouts, &settled)),
            #[cfg(test)]
            lag: 1,
            #[cfg(test)]
            carry_group_heads: false,
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

    /// Lanes per row: [`LANES`] or [`GROUP_LANES`].
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// The row pinned `net`'s field starts at.
    #[cfg(test)]
    pub(crate) fn field_row(&self, net: NetId) -> usize {
        assert!(self.pins(net), "net {net:?} is not pinned");
        self.pinned[net.index()] as usize
    }

    /// Whether a block reads `net`'s lanes: its field is pinned.
    pub(crate) fn pins(&self, net: NetId) -> bool {
        self.pinned[net.index()] != u32::MAX
    }

    /// Runs `vectors` (2 to [`LANES`] of them, each as wide as the
    /// input count) through the packed program over `lanes`, one pass
    /// per group of [`BlockPlan::lanes`] vectors, starting from the
    /// one-lane `arena`; hands each group's lanes to `read` after its
    /// pass; then runs the last vector once more through `program` over
    /// `arena`, which then holds what one-vector steps would have left.
    pub(crate) fn run<W: Word>(
        &self,
        program: &Program,
        arena: &mut [W],
        lanes: &mut LaneScratch<W>,
        vectors: &[&[bool]],
        read: impl FnMut(&LaneGroup<'_, W>),
    ) {
        debug_assert!((2..=LANES).contains(&vectors.len()));
        if self.lanes == LANES {
            self.run_groups::<W, LANES>(arena, lanes, vectors, read);
        } else {
            self.run_groups::<W, GROUP_LANES>(arena, lanes, vectors, read);
        }

        // The last vector over the whole arena, from its predecessor's
        // settled values; carried words are already in place.
        let n = vectors.len();
        for &(word, net) in &self.rerun {
            let settled = lanes.values[net.index()] >> (n - 1 - self.lag()) & 1 != 0;
            arena[word as usize] = W::splat(settled);
        }
        lanes.last.clear();
        lanes
            .last
            .extend(vectors[n - 1].iter().map(|&bit| W::splat(bit)));
        program.run(arena, &lanes.last, 0..program.ops.len());
    }

    /// How many vectors back a lane's settled live-ins come from.
    fn lag(&self) -> usize {
        #[cfg(test)]
        return self.lag;
        #[cfg(not(test))]
        1
    }

    /// The lane passes of [`BlockPlan::run`] over rows of `N` lanes.
    fn run_groups<W: Word, const N: usize>(
        &self,
        arena: &[W],
        lanes: &mut LaneScratch<W>,
        vectors: &[&[bool]],
        mut read: impl FnMut(&LaneGroup<'_, W>),
    ) {
        let n = vectors.len();
        let groups = n.div_ceil(N);
        let input_count = self.inputs.len();
        let LaneScratch {
            arena: lines,
            inputs: input_lines,
            values,
            operands,
            ..
        } = lanes;
        if lines.capacity() == 0 {
            *lines = Vec::with_capacity(LANE_ARENA_BUDGET / std::mem::size_of::<Line>());
        }
        let rows = rows_in::<W, N>(lines, self.rows());
        // Group `g`'s inputs are rows `g * input_count..`: lane `k` of
        // input `i` is vector `g * N + k`'s bit `i`, broadcast. Bit `v`
        // of `values[net]` is the net's settled value after vector `v`.
        let inputs = rows_in::<W, N>(input_lines, groups * input_count);
        values.resize(self.nets, 0);
        for (index, &net) in self.inputs.iter().enumerate() {
            let bits = vectors.iter().enumerate().fold(0u64, |bits, (v, vector)| {
                bits | u64::from(vector[index]) << v
            });
            values[net.index()] = bits;
            for group in 0..groups {
                let bits = bits >> (group * N);
                inputs[group * input_count + index] =
                    Lanes(std::array::from_fn(|k| W::splat(bits >> k & 1 != 0)));
            }
        }
        if let Some(settle) = &self.settle {
            settle.sweep(arena, values, operands);
        }
        #[cfg(not(test))]
        let carry_group_heads = false;
        #[cfg(test)]
        let carry_group_heads = self.carry_group_heads;
        #[cfg(test)]
        lanes.trail.clear();
        for group in 0..groups {
            let first = group * N;
            let len = N.min(n - first);
            for live in &self.live_ins {
                let carried = arena[live.word as usize];
                let row = &mut rows[live.row as usize].0;
                match live.seed {
                    Seed::Settled(net) => {
                        let settled = values[net.index()];
                        for (k, lane) in row.iter_mut().enumerate().take(len) {
                            let vector = first + k;
                            *lane = if vector == 0 || (k == 0 && carry_group_heads) {
                                carried
                            } else {
                                W::splat(settled >> (vector - self.lag()) & 1 != 0)
                            };
                        }
                    }
                    Seed::Carried => row.fill(carried),
                }
            }
            let inputs = &mut inputs[group * input_count..(group + 1) * input_count];
            LaneIsa::current().run(&self.packed, rows, inputs);
            #[cfg(test)]
            lanes
                .trail
                .extend((0..len).map(|k| rows.iter().map(|row| row.0[k]).collect()));
            read(&LaneGroup {
                plan: self,
                words: Lanes::words(rows),
                lanes: N,
                first,
                len,
            });
        }
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
        let pinned: Vec<NetId> = (0..self.pinned.len())
            .map(NetId::from_index)
            .filter(|&net| self.pins(net))
            .collect();
        let live_ops = live_ops::<W>(program, layouts, &pinned);
        let ops = program
            .ops
            .iter()
            .enumerate()
            .filter(|&(index, _)| live_ops[index]);
        for ((index, op), packed) in ops.zip(&self.packed.ops) {
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

/// Which ops of `program` (compiled for `W`-bit words) the lane pass
/// runs: those that write a word a later op that runs reads, or a word
/// of a `pinned` net's field. The block reads nothing else from its
/// lanes, and the last vector's one-lane rerun runs the whole program.
fn live_ops<W: Word>(program: &Program, layouts: &[FieldLayout], pinned: &[NetId]) -> Vec<bool> {
    let mut needed = vec![false; program.arena_words];
    for &net in pinned {
        let layout = &layouts[net.index()];
        needed[layout.base as usize..(layout.base + layout.words) as usize].fill(true);
    }
    let mut reads = Vec::new();
    let mut live = vec![false; program.ops.len()];
    for (index, op) in program.ops.iter().enumerate().rev() {
        reads.clear();
        let writes = op.accesses::<W>(&program.operands, |word, _| reads.push(word));
        let writes = writes.start as usize..writes.end as usize;
        if needed[writes.clone()].contains(&true) {
            live[index] = true;
            needed[writes].fill(false);
            for &word in &reads {
                needed[word as usize] = true;
            }
        }
    }
    live
}

/// One group's lanes after its pass: vectors `first..first + len` of
/// the block, in lanes `0..len`.
pub(crate) struct LaneGroup<'a, W> {
    plan: &'a BlockPlan,
    /// The lane rows, row after row.
    words: &'a [W],
    lanes: usize,
    pub(crate) first: usize,
    pub(crate) len: usize,
}

impl<W: Word> LaneGroup<'_, W> {
    /// Bit `bit` of pinned `net`'s field in lane `lane`.
    pub(crate) fn bit(&self, net: NetId, bit: u32, lane: usize) -> bool {
        let row = (self.plan.pinned[net.index()] + bit / W::BITS) as usize;
        self.words[row * self.lanes + lane].bit(bit % W::BITS)
    }
}

impl Settle {
    /// The sweep that settles `read` nets, over the gates of their
    /// fan-in cones in topological order, reading an undriven net's
    /// final bit from `W`-bit fields at `layouts`. On c6288's default
    /// program that is 1307 of its 3264 gates.
    fn new<W: Word>(
        netlist: &Netlist,
        levels: &Levels,
        layouts: &[FieldLayout],
        read: &[NetId],
    ) -> Settle {
        let mut cone = vec![false; netlist.net_count()];
        let mut stack = read.to_vec();
        while let Some(net) = stack.pop() {
            if !std::mem::replace(&mut cone[net.index()], true) {
                if let Some(gate) = netlist.driver(net) {
                    stack.extend_from_slice(&netlist.gate(gate).inputs);
                }
            }
        }
        let mut operands = Vec::new();
        let gates = levels
            .topo_gates
            .iter()
            .map(|&gid| netlist.gate(gid))
            .filter(|gate| cone[gate.output.index()])
            .map(|gate| {
                let start = operands.len() as u32;
                operands.extend_from_slice(&gate.inputs);
                SettleGate {
                    kind: gate.kind,
                    output: gate.output,
                    operands: start..operands.len() as u32,
                }
            })
            .collect();
        let inputs = netlist.primary_inputs();
        let undriven = netlist
            .net_ids()
            .filter(|&net| cone[net.index()] && netlist.driver(net).is_none())
            .filter(|net| !inputs.contains(net))
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
            let inputs = &self.operands[gate.operands.start as usize..gate.operands.end as usize];
            (gate.kind, gate.output, inputs)
        });
        sweep_gates(gates, values, operands);
    }
}

thread_local! {
    /// This thread's block scratch, one per word width; rows of either
    /// width view the same lines. A run borrows it for one block; every
    /// block overwrites what it reads, so nothing carries over from
    /// another run. The lane arena is allocated once per thread with the
    /// whole budget's capacity and kept until the thread ends: freeing it
    /// after each run raised glibc's mmap threshold, after which a
    /// daemon's worker heaps kept the freed arenas.
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

/// 64 bytes of lane rows on a 64-byte boundary: the unit a scratch
/// allocates, so a row of either width starts on a boundary of its own
/// size, up to a cache line.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([u64; 8]);

/// `rows` lane rows of `N` lanes over `lines`, grown to hold them. Rows
/// past those a previous run used are zero; the others may hold that
/// run's words.
fn rows_in<W: Word, const N: usize>(lines: &mut Vec<Line>, rows: usize) -> &mut [Lanes<W, N>] {
    let bytes = rows * std::mem::size_of::<Lanes<W, N>>();
    lines.resize(bytes.div_ceil(std::mem::size_of::<Line>()), Line([0; 8]));
    // SAFETY: the lines hold at least `rows` rows' bytes, initialized and
    // aligned for any word; every bit pattern is a valid word; the slice
    // borrows `lines` mutably for its whole life.
    unsafe { std::slice::from_raw_parts_mut(lines.as_mut_ptr().cast(), rows) }
}

/// A block's scratch: the lane arena and the lane inputs (as lines), the
/// settled values of the block's vectors and the last vector's input
/// words. Its rows may hold another run's words: a block writes every
/// row before reading it, apart from the live-ins it seeds.
#[derive(Default)]
pub(crate) struct LaneScratch<W: Word> {
    arena: Vec<Line>,
    inputs: Vec<Line>,
    values: Vec<u64>,
    operands: Vec<u64>,
    last: Vec<W>,
    /// Per vector of the last block, its lane of every row after its
    /// group's pass.
    #[cfg(test)]
    trail: Vec<Vec<W>>,
}

#[cfg(test)]
impl<W: Word> LaneScratch<W> {
    /// Per vector of the last block, its lane of every row after its
    /// group's pass.
    pub(crate) fn trail(&self) -> Vec<Vec<W>> {
        self.trail.clone()
    }
}
