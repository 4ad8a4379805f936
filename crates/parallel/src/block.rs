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

use std::any::Any;
use std::cell::RefCell;
use std::ops::Range;

use uds_netlist::{GateKind, Levels, NetId, Netlist};

use crate::bitfield::FieldLayout;
use crate::program::Program;
use crate::word::{Cell, Lanes, Word, LANES};

/// The most bytes a block's lane arena may take: an engine whose arena
/// needs more steps one vector per pass. At 64-bit words this covers
/// the c432 (103 KiB) and c880 (224 KiB) programs, not c1908's (459 KiB)
/// or c6288's (3 MiB). At 512 KiB, which took c1908 in, a daemon
/// serving c1908 among other circuits peaked about 2 MiB higher: the
/// allocator kept its freed lane arenas (EXPERIMENTS.md).
pub(crate) const LANE_ARENA_BUDGET: usize = 256 * 1024;

/// What seeds each lane of a live-in word before a block's pass.
#[derive(Clone, Copy, Debug)]
enum Seed {
    /// One bit of `net`'s field at or after its level: lane `k` gets
    /// the net's settled value after vector `k - 1`, broadcast.
    Settled(NetId),
    /// A word the pass never writes: every lane gets the carried word.
    Carried,
}

#[derive(Clone, Copy, Debug)]
struct LiveIn {
    word: u32,
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

/// How a compiled program runs a block, fixed at compile time.
#[derive(Clone, Debug)]
pub(crate) struct BlockPlan {
    live_ins: Vec<LiveIn>,
    /// Every word the pass writes, ascending: the words a block copies
    /// back from its last lane.
    written: Vec<u32>,
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
    /// The plan for `program` (compiled for `W`-bit words), or `None`
    /// when its lane arena would outgrow [`LANE_ARENA_BUDGET`] or a
    /// live-in read is neither a settled bit nor of a word the pass
    /// never writes.
    pub(crate) fn new<W: Word>(
        netlist: &Netlist,
        levels: &Levels,
        program: &Program,
        layouts: &[FieldLayout],
    ) -> Option<BlockPlan> {
        let lane_bytes = LANES * std::mem::size_of::<W>();
        if program.arena_words.checked_mul(lane_bytes)? > LANE_ARENA_BUDGET {
            return None;
        }
        let mut owner = vec![None; program.arena_words];
        for net in netlist.net_ids() {
            let layout = &layouts[net.index()];
            for word in layout.base..layout.base + layout.words {
                owner[word as usize] = Some(net);
            }
        }
        let mut written = vec![false; program.arena_words];
        let mut first_reads = Vec::new();
        for op in &program.ops {
            let writes = op.accesses::<W>(&program.operands, |word, bit| {
                if !written[word as usize] {
                    first_reads.push((word, bit));
                }
            });
            written[writes.start as usize..writes.end as usize].fill(true);
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
        let mut seen = vec![false; program.arena_words];
        let mut live_ins = Vec::new();
        // A field word the pass never writes is carried in every lane,
        // read or not: a readback of its net reads it from the lanes.
        let unwritten_fields = (0..program.arena_words as u32)
            .filter(|&word| owner[word as usize].is_some() && !written[word as usize])
            .map(|word| (word, None));
        for (word, bit) in first_reads.into_iter().chain(unwritten_fields) {
            let seed = if written[word as usize] {
                Seed::Settled(settled_net(word, bit)?)
            } else {
                Seed::Carried
            };
            if !std::mem::replace(&mut seen[word as usize], true) {
                live_ins.push(LiveIn { word, seed });
            }
        }

        let inputs = netlist.primary_inputs().to_vec();
        let is_input = |net: NetId| inputs.contains(&net);
        let needs_settle = live_ins
            .iter()
            .any(|live| matches!(live.seed, Seed::Settled(net) if !is_input(net)));
        Some(BlockPlan {
            live_ins,
            written: (0..program.arena_words as u32)
                .filter(|&word| written[word as usize])
                .collect(),
            inputs,
            nets: netlist.net_count(),
            settle: needs_settle.then(|| Settle::new::<W>(netlist, levels, layouts)),
            #[cfg(test)]
            lag: 1,
        })
    }

    /// The live-in words a block seeds.
    #[cfg(test)]
    pub(crate) fn live_ins(&self) -> usize {
        self.live_ins.len()
    }

    /// Runs `vectors` (2 to [`LANES`] of them, each as wide as the
    /// input count) as one pass of `program` over `lanes`, starting
    /// from the one-lane `arena`, then copies the last lane of every
    /// word the pass writes back into `arena`, which then holds what
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
        lanes.prepare(arena.len(), self.inputs.len(), self.nets);
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
        for live in &self.live_ins {
            let word = live.word as usize;
            let row = &mut lanes.arena[word].0;
            row[0] = arena[word];
            match live.seed {
                Seed::Settled(net) => {
                    #[cfg(not(test))]
                    let lag = 1;
                    #[cfg(test)]
                    let lag = self.lag;
                    let settled = lanes.values[net.index()];
                    for (k, lane) in row.iter_mut().enumerate().take(n).skip(1) {
                        *lane = W::splat(settled >> (k - lag) & 1 != 0);
                    }
                }
                Seed::Carried => row.fill(arena[word]),
            }
        }
        program.run(&mut lanes.arena, &lanes.inputs, 0..program.ops.len());
        for &word in &self.written {
            arena[word as usize] = lanes.arena[word as usize].0[n - 1];
        }
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

/// A block's scratch: the lane arena, the lane inputs and the settled
/// values of the block's vectors.
#[derive(Default)]
pub(crate) struct LaneScratch<W: Word> {
    arena: Vec<Lanes<W>>,
    inputs: Vec<Lanes<W>>,
    values: Vec<u64>,
    operands: Vec<u64>,
}

impl<W: Word> LaneScratch<W> {
    /// Makes the buffers hold `words` arena slots, `inputs` primary
    /// inputs and `nets` nets. The first lane arena takes the whole
    /// budget's capacity, of which only the rows in use are touched.
    /// Its rows may hold another run's words: a block writes every
    /// word before reading it, apart from the live-ins it seeds.
    fn prepare(&mut self, words: usize, inputs: usize, nets: usize) {
        if self.arena.capacity() == 0 {
            self.arena = Vec::with_capacity(LANE_ARENA_BUDGET / std::mem::size_of::<Lanes<W>>());
        }
        self.arena.resize(words, Lanes::ZERO);
        self.inputs.resize(inputs, Lanes::ZERO);
        self.values.resize(nets, 0);
    }

    /// Bit `bit` of `layout`'s field in lane `lane` of the last block.
    pub(crate) fn bit(&self, layout: &FieldLayout, bit: u32, lane: usize) -> bool {
        self.arena[layout.base as usize + (bit / W::BITS) as usize].0[lane].bit(bit % W::BITS)
    }
}
