//! The public compiled-simulator API for the parallel technique.

use std::fmt;
use std::sync::Arc;

use uds_netlist::{
    levelize, static_profile, LevelProfile, LevelSegment, LevelSink, LevelizeError, LimitExceeded,
    NetId, Netlist, NoopProbe, Probe, ProbeSpan, ResourceLimits, Unprofiled,
};

use crate::bitfield::FieldLayout;
use crate::block::{self, BlockPlan, NoBlocks};
use crate::program::{Program, WOp};
use crate::word::{Word, LANES};
use crate::{cycle_breaking, path_tracing, Alignment};

/// Which §4 optimizations to apply at compile time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Optimization {
    /// The unoptimized technique of §3 (Fig. 19's "Parallel Technique").
    #[default]
    None,
    /// Bit-field trimming only (Fig. 20).
    Trimming,
    /// Path-tracing shift elimination (Fig. 23).
    PathTracing,
    /// Path tracing combined with trimming (Fig. 24, "With Trimming").
    PathTracingTrimming,
    /// Cycle-breaking shift elimination (Fig. 23).
    CycleBreaking,
    /// Cycle breaking combined with trimming.
    CycleBreakingTrimming,
}

impl Optimization {
    /// All variants, in the order the paper's evaluation discusses them.
    pub const ALL: [Optimization; 6] = [
        Optimization::None,
        Optimization::Trimming,
        Optimization::PathTracing,
        Optimization::PathTracingTrimming,
        Optimization::CycleBreaking,
        Optimization::CycleBreakingTrimming,
    ];

    fn trims(self) -> bool {
        matches!(
            self,
            Optimization::Trimming
                | Optimization::PathTracingTrimming
                | Optimization::CycleBreakingTrimming
        )
    }

    /// Short stable key used in telemetry gauge names (matches the CLI
    /// `--opt` tokens): `none`, `trim`, `pt`, `pt-trim`, `cb`, `cb-trim`.
    pub fn key(self) -> &'static str {
        match self {
            Optimization::None => "none",
            Optimization::Trimming => "trim",
            Optimization::PathTracing => "pt",
            Optimization::PathTracingTrimming => "pt-trim",
            Optimization::CycleBreaking => "cb",
            Optimization::CycleBreakingTrimming => "cb-trim",
        }
    }
}

impl fmt::Display for Optimization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Optimization::None => "unoptimized",
            Optimization::Trimming => "trimming",
            Optimization::PathTracing => "path-tracing",
            Optimization::PathTracingTrimming => "path-tracing+trimming",
            Optimization::CycleBreaking => "cycle-breaking",
            Optimization::CycleBreakingTrimming => "cycle-breaking+trimming",
        })
    }
}

/// Error returned by [`ParallelSim::compile`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CompileError {
    /// The netlist cannot be levelized (cycle or flip-flop).
    Levelize(LevelizeError),
    /// A resource budget was exceeded (depth, gates, field words,
    /// estimated memory, deadline, or addressable-size arithmetic).
    Limit(LimitExceeded),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Levelize(err) => write!(f, "{err}"),
            CompileError::Limit(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Levelize(err) => Some(err),
            CompileError::Limit(err) => Some(err),
        }
    }
}

impl From<LevelizeError> for CompileError {
    fn from(err: LevelizeError) -> Self {
        CompileError::Levelize(err)
    }
}

impl From<LimitExceeded> for CompileError {
    fn from(err: LimitExceeded) -> Self {
        CompileError::Limit(err)
    }
}

/// Size metrics of a compiled parallel-technique program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProgramStats {
    /// Straight-line word operations executed per vector.
    pub word_ops: usize,
    /// Arena words (fields + scratch).
    pub arena_words: usize,
    /// Rows of a block's liveness-packed lane arena, each one word per
    /// lane: the arena words live at once, whether or not the rows fit
    /// the block budget (0 when the program cannot run in blocks, or was
    /// compiled by [`ParallelSim::compile_stepping`], which plans none).
    pub lane_arena_words: usize,
    /// Shifts retained in the generated code: equals the gate count for
    /// the unoptimized/trimmed compilers (one per gate simulation), and
    /// the alignment-derived count for the shift-eliminated ones.
    pub retained_shifts: usize,
    /// Words of gate simulation removed by trimming.
    pub trimmed_words: usize,
    /// Shifted field presentations (Fig. 18) fused into the operand of
    /// the gate that reads them: right shifts from one word into one
    /// word, which cost no op of their own.
    pub fused_presentations: usize,
    /// Shifted field presentations decoded at compile time into one
    /// double-width arithmetic shift per word: the right shifts that do
    /// not fuse (a two-word source or destination).
    pub decoded_presentations: usize,
    /// Shifted field presentations the general funnel runs: left
    /// shifts, and sources or destinations wider than two words.
    pub funnel_presentations: usize,
}

/// A compiled unit-delay simulator using the parallel technique (§3–§4).
///
/// One call to [`ParallelSim::simulate_vector`] computes the whole
/// unit-delay time history of every net for that vector; read it back
/// with [`ParallelSim::history`] or [`ParallelSim::value_at`].
/// [`ParallelSim::simulate_block`] runs up to 64 consecutive vectors in
/// one pass of the op stream, one per lane of a lane-major arena.
///
/// The word type `W` fixes the arena width: [`u32`] reproduces the
/// paper's tables, [`u64`] halves the word count of multi-word fields
/// on 64-bit hosts. [`ParallelSimulator`] / [`ParallelSimulator64`]
/// name the two instantiations.
#[derive(Clone, Debug)]
pub struct ParallelSim<W: Word = u32> {
    /// Everything compilation fixed, shared by every clone: a fork
    /// copies only the per-run state below.
    compiled: Arc<Compiled<W>>,
    arena: Vec<W>,
    /// Settled value, before the current vector, of the nets whose
    /// history below their alignment cannot be read back from the field
    /// (exactly those with `align == minlevel > 0`; everywhere else bit 0
    /// recomputes the previous value). Indexed by [`NetId`]; only entries
    /// listed in `tracked` are refreshed per vector.
    prev_final: Vec<bool>,
    /// The primary inputs as words, refilled per vector: broadcast for
    /// the interpreter, 0 or 1 for a [`ParallelSim::simulate_vector_with`]
    /// kernel.
    input_words: Vec<W>,
}

/// The immutable half of a [`ParallelSim`]: the op stream and the
/// tables that read it back.
#[derive(Debug)]
struct Compiled<W: Word> {
    program: Program,
    initial_arena: Vec<W>,
    layouts: Vec<FieldLayout>,
    tracked: Vec<NetId>,
    /// Per net: `false` iff history below the alignment is unavailable
    /// (needs tracking but is not monitored).
    trackable: Vec<bool>,
    depth: u32,
    optimization: Optimization,
    alignment: Option<Alignment>,
    stats: ProgramStats,
    /// Run-length level segments of the op stream in emission order
    /// (segment 0 is the level-0 init block). A profiled step walks
    /// them; the plain step never reads them.
    level_segments: Vec<LevelSegment>,
    /// How a block runs, or `None` when this program steps one vector
    /// per pass (its lane arena would outgrow the budget even in rows of
    /// 8 lanes, or it was compiled for a native kernel).
    block: Option<BlockPlan>,
}

/// Fills every bit of every net's field with the net's value in
/// `stable`: the power-up arena, and any seeded state.
fn fill_fields<W: Word>(layouts: &[FieldLayout], arena: &mut [W], stable: &[bool]) {
    for (layout, &value) in layouts.iter().zip(stable) {
        let base = layout.base as usize;
        arena[base..base + layout.words as usize].fill(W::splat(value));
    }
}

/// The paper's 32-bit-word instantiation of [`ParallelSim`] — the
/// default everywhere a width is not explicitly requested.
pub type ParallelSimulator = ParallelSim<u32>;

/// The 64-bit-word instantiation of [`ParallelSim`].
pub type ParallelSimulator64 = ParallelSim<u64>;

impl<W: Word> ParallelSim<W> {
    /// Compiles a combinational netlist with the given optimization.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] for cyclic or sequential netlists.
    pub fn compile(netlist: &Netlist, optimization: Optimization) -> Result<Self, CompileError> {
        Self::compile_probed(
            netlist,
            optimization,
            false,
            &ResourceLimits::unlimited(),
            &NoopProbe,
        )
    }

    /// Like [`ParallelSim::compile`], but keeps every net's history
    /// fully reconstructible (see [`ParallelSim::history`]). Adds a
    /// small per-vector cost proportional to the number of nets whose
    /// alignment equals their minlevel; intended for verification
    /// harnesses.
    pub fn compile_monitoring_all(
        netlist: &Netlist,
        optimization: Optimization,
    ) -> Result<Self, CompileError> {
        Self::compile_probed(
            netlist,
            optimization,
            true,
            &ResourceLimits::unlimited(),
            &NoopProbe,
        )
    }

    /// The general constructor. `monitor_all` chooses between
    /// [`ParallelSim::compile`] and [`ParallelSim::compile_monitoring_all`].
    /// `limits` is a resource budget: depth, gate, input,
    /// words-per-field, and estimated-memory ceilings are checked
    /// *before* the corresponding allocations, the sizing arithmetic
    /// itself is overflow-checked, and violations surface as
    /// [`CompileError::Limit`]. Compile phases (levelize, alignment,
    /// codegen) and the paper's static metrics (word ops, words
    /// trimmed, shifts retained and eliminated, field widths) are
    /// reported through `probe`; gauge names are namespaced by
    /// [`Optimization::key`] (see DESIGN.md §11).
    pub fn compile_probed(
        netlist: &Netlist,
        optimization: Optimization,
        monitor_all: bool,
        limits: &ResourceLimits,
        probe: &dyn Probe,
    ) -> Result<Self, CompileError> {
        Self::compile_planned(netlist, optimization, monitor_all, limits, probe, true)
    }

    /// [`ParallelSim::compile_probed`] for a simulator that only ever
    /// steps one vector per pass — the twin whose program a native
    /// kernel runs: it plans no blocks, so it holds no packed copy of
    /// the op stream, and its [`ParallelSim::block_len`] is 1.
    pub fn compile_stepping(
        netlist: &Netlist,
        optimization: Optimization,
        monitor_all: bool,
        limits: &ResourceLimits,
        probe: &dyn Probe,
    ) -> Result<Self, CompileError> {
        Self::compile_planned(netlist, optimization, monitor_all, limits, probe, false)
    }

    /// The compiler behind both entry points; `blocks` says whether to
    /// plan how a block runs.
    fn compile_planned(
        netlist: &Netlist,
        optimization: Optimization,
        monitor_all: bool,
        limits: &ResourceLimits,
        probe: &dyn Probe,
        blocks: bool,
    ) -> Result<Self, CompileError> {
        let levels = {
            let _span = ProbeSpan::new(probe, "parallel.levelize");
            levelize(netlist)?
        };
        limits.check_depth(levels.depth)?;
        limits.check_gates(netlist.gate_count())?;
        limits.check_inputs(netlist.primary_inputs().len())?;
        limits.check_deadline()?;

        let alignment = match optimization {
            Optimization::None | Optimization::Trimming => None,
            Optimization::PathTracing | Optimization::PathTracingTrimming => {
                let _span = ProbeSpan::new(probe, "parallel.alignment");
                Some(path_tracing::align(netlist)?)
            }
            Optimization::CycleBreaking | Optimization::CycleBreakingTrimming => {
                let _span = ProbeSpan::new(probe, "parallel.alignment");
                Some(cycle_breaking::align(netlist)?.alignment)
            }
        };
        let crate::compile::Compiled {
            program,
            layouts,
            depth,
            retained_shifts,
            trimmed_words,
            level_segments,
        } = {
            let _span = ProbeSpan::new(probe, "parallel.codegen");
            let trim = optimization.trims();
            match &alignment {
                None => crate::compile::compile::<W>(netlist, trim, limits)?,
                Some(alignment) => {
                    crate::compile_aligned::compile::<W>(netlist, alignment, trim, limits)?
                }
            }
        };

        // The paper's Fig. 20/23/24 static columns, namespaced by
        // optimization so several compiles can share one report.
        let key = optimization.key();
        let word_ops = program.word_ops();
        probe.gauge(&format!("parallel.{key}.word_ops"), word_ops as u64);
        probe.gauge(
            &format!("parallel.{key}.arena_words"),
            program.arena_words as u64,
        );
        probe.gauge(
            &format!("parallel.{key}.shifts_retained"),
            retained_shifts as u64,
        );
        probe.gauge(
            &format!("parallel.{key}.shifts_eliminated"),
            netlist.gate_count().saturating_sub(retained_shifts) as u64,
        );
        probe.gauge(
            &format!("parallel.{key}.words_trimmed"),
            trimmed_words as u64,
        );
        // Which path runs each retained input shift.
        let count = |shape: fn(&WOp) -> bool| program.ops.iter().filter(|op| shape(op)).count();
        let fused_presentations = program.fused_presentations();
        let decoded_presentations = count(|op| matches!(op, WOp::ShiftRight { .. }));
        let funnel_presentations = count(|op| matches!(op, WOp::ShiftField { .. }));
        for (path, presentations) in [
            ("fused", fused_presentations),
            ("decoded", decoded_presentations),
            ("funnel", funnel_presentations),
        ] {
            probe.gauge(
                &format!("parallel.{key}.{path}_presentations"),
                presentations as u64,
            );
        }
        let max_width_bits = match &alignment {
            Some(alignment) => alignment.stats(netlist, &levels).max_width_bits,
            None => depth + 1,
        };
        probe.gauge(
            &format!("parallel.{key}.max_width_bits"),
            u64::from(max_width_bits),
        );
        // Fig. 20's opt-independent columns: levels and words per field.
        probe.gauge("parallel.levels", u64::from(depth) + 1);
        probe.gauge(
            "parallel.field_words",
            u64::from((depth + 1).div_ceil(W::BITS)),
        );
        // The static per-level word-op distribution (one sample per
        // level) — the measured-vs-static axis of hotspot reports.
        let level_word_ops = format!("parallel.{key}.level_word_ops");
        for cost in &static_profile(&level_segments).levels {
            probe.record(&level_word_ops, cost.word_ops);
        }

        let _power_up_span = ProbeSpan::new(probe, "parallel.power-up");
        // Consistent power-up state: the all-0 settled state, seeded
        // into a zeroed arena as `seed_stable` seeds any other.
        let mut settled = vec![0u64; netlist.net_count()];
        uds_netlist::settle(netlist, &levels, &mut settled);
        let settled_zero: Vec<bool> = settled.iter().map(|&v| v != 0).collect();
        let mut initial_arena = vec![W::ZERO; program.arena_words];
        fill_fields(&layouts, &mut initial_arena, &settled_zero);

        // Nets whose pre-vector settled value must be tracked on the
        // side to reconstruct history below their alignment: bit 0 of
        // their field is their first *potential change* (align ==
        // minlevel), so the previous value is not recomputed anywhere.
        // With align < minlevel, bit 0 itself holds it. Tracking costs
        // one bit read per net per vector, so by default only the
        // monitored nets (the primary outputs — the paper's PRINT set)
        // are covered; `compile_monitoring_all` covers every net.
        let needs_tracking = |net: NetId| {
            let align = layouts[net].align;
            align > 0 && align == levels.net_minlevel[net] as i32
        };
        let tracked: Vec<NetId> = if monitor_all {
            netlist.net_ids().filter(|&n| needs_tracking(n)).collect()
        } else {
            let mut tracked: Vec<NetId> = netlist
                .primary_outputs()
                .iter()
                .copied()
                .filter(|&n| needs_tracking(n))
                .collect();
            tracked.sort_unstable();
            tracked.dedup();
            tracked
        };
        let mut trackable = vec![true; netlist.net_count()];
        for net in netlist.net_ids() {
            if needs_tracking(net) && !tracked.contains(&net) {
                trackable[net.index()] = false;
            }
        }

        // A block reads the lanes of the primary outputs (its finals)
        // and of the tracked nets (their previous finals).
        let pinned: Vec<NetId> = netlist
            .primary_outputs()
            .iter()
            .chain(&tracked)
            .copied()
            .collect();
        let block =
            blocks.then(|| BlockPlan::new::<W>(netlist, &levels, &program, &layouts, &pinned));
        let lane_rows = match &block {
            Some(Ok(plan)) => Some(plan.rows()),
            Some(Err(NoBlocks::OverBudget { rows })) => Some(*rows),
            Some(Err(NoBlocks::UnsettledRead)) | None => None,
        };
        if let Some(rows) = lane_rows {
            probe.gauge(&format!("parallel.{key}.lane_arena_words"), rows as u64);
        }
        let block = block.and_then(Result::ok);
        let block_lanes = block.as_ref().map_or(1, BlockPlan::lanes);
        probe.gauge(&format!("parallel.{key}.block_lanes"), block_lanes as u64);
        let lane_arena_words = lane_rows.unwrap_or(0);
        let stats = ProgramStats {
            word_ops,
            arena_words: program.arena_words,
            lane_arena_words,
            retained_shifts,
            trimmed_words,
            fused_presentations,
            decoded_presentations,
            funnel_presentations,
        };
        Ok(ParallelSim {
            arena: initial_arena.clone(),
            prev_final: settled_zero,
            input_words: vec![W::ZERO; program.input_count],
            compiled: Arc::new(Compiled {
                program,
                initial_arena,
                layouts,
                tracked,
                trackable,
                depth,
                optimization,
                alignment,
                stats,
                level_segments,
                block,
            }),
        })
    }

    /// Circuit depth; histories cover times `0..=depth()`.
    pub fn depth(&self) -> u32 {
        self.compiled.depth
    }

    /// Bits per arena word this simulator was compiled for.
    pub fn word_bits(&self) -> u32 {
        W::BITS
    }

    /// The optimization this simulator was compiled with.
    pub fn optimization(&self) -> Optimization {
        self.compiled.optimization
    }

    /// The alignment in effect (None for the unoptimized/trimmed modes).
    pub fn alignment(&self) -> Option<&Alignment> {
        self.compiled.alignment.as_ref()
    }

    /// Program size metrics.
    pub fn stats(&self) -> ProgramStats {
        self.compiled.stats
    }

    /// `true` when `other` runs the very same compiled program and
    /// tables as `self` — as every clone of one compile does.
    pub fn shares_compiled(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.compiled, &other.compiled)
    }

    /// The field layout of a net (for inspection and tests).
    pub fn field_layout(&self, net: NetId) -> FieldLayout {
        self.compiled.layouts[net]
    }

    /// Internal accessors used by the C emitter.
    pub(crate) fn program(&self) -> &Program {
        &self.compiled.program
    }

    /// The program's run-length level table, where the native kernel
    /// may be cut into parts.
    pub(crate) fn level_segments(&self) -> &[LevelSegment] {
        &self.compiled.level_segments
    }

    pub(crate) fn initial_arena(&self) -> &[W] {
        &self.compiled.initial_arena
    }

    /// Number of per-net field layouts — the net count this simulator
    /// was compiled for (used by the C emitter's mismatch check).
    pub(crate) fn layout_count(&self) -> usize {
        self.compiled.layouts.len()
    }

    /// Overwrites the retained state as if the previous vector had
    /// settled to `stable` (one value per net, primary inputs included).
    ///
    /// Every bit of every field is filled with the net's stable value —
    /// exactly the shape the power-up arena holds for the all-zero
    /// settled state — so the next vector's retained bits
    /// (initialization extracts, negative-alignment input bits,
    /// trimming's low-constant broadcasts) read the seeded values.
    /// Scratch and extension words need no seeding: they are written
    /// before any read within each vector.
    ///
    /// # Panics
    ///
    /// Panics if `stable.len()` differs from the net count.
    pub fn seed_stable(&mut self, stable: &[bool]) {
        assert_eq!(
            stable.len(),
            self.compiled.layouts.len(),
            "seed length must match the net count"
        );
        fill_fields(&self.compiled.layouts, &mut self.arena, stable);
        self.prev_final.copy_from_slice(stable);
    }

    /// Simulates one input vector (parallel to the primary inputs),
    /// producing the complete time history of every net.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count.
    pub fn simulate_vector(&mut self, inputs: &[bool]) {
        self.step(inputs, &mut Unprofiled);
    }

    /// Simulates one input vector through the interpreted op stream,
    /// walked as `sink` directs: [`Unprofiled`] runs it in one call, a
    /// [`uds_netlist::LevelTimer`] runs it in compile-time level
    /// segments and attributes wall time and work to netlist levels
    /// (level 0 holds the per-vector latch). Both execute exactly the
    /// same word ops in exactly the same order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count.
    pub fn step<S: LevelSink>(&mut self, inputs: &[bool], sink: &mut S) {
        let words = self.load_inputs(inputs, W::ONES);
        self.step_with(inputs, |program, segments, arena| {
            sink.walk(segments, program.ops.len(), |ops| {
                program.run(arena, &words, ops);
            });
        });
        self.input_words = words;
    }

    /// The vectors [`ParallelSim::simulate_block`] runs together: 64,
    /// or 1 when the program steps one vector per pass — its packed lane
    /// arena would outgrow a fixed 256 KiB budget even in rows of 8
    /// lanes (c6288's unoptimized program), or it was built by
    /// [`ParallelSim::compile_stepping`]. See
    /// [`ParallelSim::block_lanes`] for how many share each op pass.
    pub fn block_len(&self) -> usize {
        if self.compiled.block.is_some() {
            LANES
        } else {
            1
        }
    }

    /// The vectors one pass of a block's op stream carries, one per lane
    /// of a row: 64 where 64-lane rows fit the lane budget (c432's, c880's
    /// and c1908's default programs), 8 where only 8-lane rows do (c6288's
    /// default program, c1908's unoptimized one), and 1 when the program
    /// steps. The `parallel.<opt>.block_lanes` gauge.
    pub fn block_lanes(&self) -> usize {
        self.compiled.block.as_ref().map_or(1, BlockPlan::lanes)
    }

    /// Simulates up to 64 consecutive vectors, leaving the simulator
    /// exactly as running each through [`ParallelSim::simulate_vector`]
    /// in turn would: bit `k` of `finals[o]` is the settled value of
    /// `outputs[o]` after `vectors[k]`, and every readback afterwards
    /// answers for the last vector.
    ///
    /// Vector `k` runs in a lane of a lane-major arena, so each op is
    /// dispatched once per group of [`ParallelSim::block_lanes`] vectors
    /// (see the `block` module); the last vector then runs once more
    /// over the one-lane arena. A program whose
    /// [`ParallelSim::block_len`] is 1, a block of one vector, and a
    /// block asked for a net that is neither a primary output nor
    /// tracked (whose lanes a block does not keep) step vector by vector
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 64 vectors, if a vector's length
    /// differs from the primary-input count, or if `finals` and
    /// `outputs` differ in length.
    pub fn simulate_block(&mut self, vectors: &[&[bool]], outputs: &[NetId], finals: &mut [u64]) {
        assert!(vectors.len() <= LANES, "a block holds at most 64 vectors");
        assert_eq!(finals.len(), outputs.len(), "one finals word per output");
        finals.fill(0);
        let compiled = &*self.compiled;
        let plan = compiled
            .block
            .as_ref()
            .filter(|plan| vectors.len() > 1 && outputs.iter().all(|&net| plan.pins(net)));
        let Some(plan) = plan else {
            for (lane, inputs) in vectors.iter().enumerate() {
                self.simulate_vector(inputs);
                for (word, &net) in finals.iter_mut().zip(outputs) {
                    *word |= u64::from(self.final_value(net)) << lane;
                }
            }
            return;
        };
        for inputs in vectors {
            assert_eq!(
                inputs.len(),
                compiled.program.input_count,
                "input vector length must match the primary input count"
            );
        }
        // The tracked nets' previous finals are the next-to-last vector's.
        let before_last = vectors.len() - 2;
        let prev_final = &mut self.prev_final;
        block::with_scratch(|lanes| {
            plan.run(
                &compiled.program,
                &mut self.arena,
                lanes,
                vectors,
                |group| {
                    let final_bit = |net: NetId, lane: usize| {
                        group.bit(net, compiled.layouts[net].final_bit(), lane)
                    };
                    for (word, &net) in finals.iter_mut().zip(outputs) {
                        let lanes = (0..group.len)
                            .fold(0, |word, k| word | u64::from(final_bit(net, k)) << k);
                        *word |= lanes << group.first;
                    }
                    if let Some(lane) = before_last
                        .checked_sub(group.first)
                        .filter(|&k| k < group.len)
                    {
                        for &net in &compiled.tracked {
                            prev_final[net.index()] = final_bit(net, lane);
                        }
                    }
                },
            );
        });
    }

    /// Like [`ParallelSim::simulate_vector`], but with `kernel` running
    /// the whole op stream in place of the interpreter: it is handed the
    /// arena and `inputs` as words (0 or 1). The native engine passes
    /// its compiled shared object here, so this simulator's arena stays
    /// the authoritative state and every readback path (`history`,
    /// `final_value`, toggles) keeps working.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count.
    pub fn simulate_vector_with(&mut self, inputs: &[bool], kernel: impl FnOnce(&mut [W], &[W])) {
        let words = self.load_inputs(inputs, W::ONE);
        self.step_with(inputs, |_, _, arena| kernel(arena, &words));
        self.input_words = words;
    }

    /// `inputs` as words, `one` for each set input and 0 otherwise, in
    /// the reused input buffer (hand it back to `input_words`).
    fn load_inputs(&mut self, inputs: &[bool], one: W) -> Vec<W> {
        let mut words = std::mem::take(&mut self.input_words);
        words.clear();
        words.extend(inputs.iter().map(|&b| if b { one } else { W::ZERO }));
        words
    }

    /// The engine's one per-vector body: checks the input width,
    /// latches the tracked nets' previous finals, then hands the arena
    /// to `body` to execute the op stream.
    fn step_with(
        &mut self,
        inputs: &[bool],
        body: impl FnOnce(&Program, &[LevelSegment], &mut [W]),
    ) {
        assert_eq!(
            inputs.len(),
            self.compiled.program.input_count,
            "input vector length must match the primary input count"
        );
        for &net in &self.compiled.tracked {
            let layout = &self.compiled.layouts[net];
            self.prev_final[net.index()] = layout.read_bit(&self.arena, layout.final_bit());
        }
        body(
            &self.compiled.program,
            &self.compiled.level_segments,
            &mut self.arena,
        );
    }

    /// The static per-level cost model of the compiled program (zero
    /// `self_ns`): per-level word operations, gate sweeps, and
    /// estimated state bytes — the paper's side of a measured-vs-static
    /// hotspot comparison.
    pub fn level_static_profile(&self) -> LevelProfile {
        static_profile(&self.compiled.level_segments)
    }

    /// The final settled value of a net for the last vector.
    pub fn final_value(&self, net: NetId) -> bool {
        let layout = &self.compiled.layouts[net];
        layout.read_bit(&self.arena, layout.final_bit())
    }

    /// The value of `net` at `time` for the last vector: times beyond
    /// the net's level report the final value; times below the field's
    /// alignment report the previous vector's settled value, or `None`
    /// when that value is not reconstructible (the net would need
    /// monitoring — see [`ParallelSim::compile_monitoring_all`]).
    pub fn value_at(&self, net: NetId, time: u32) -> Option<bool> {
        let layout = &self.compiled.layouts[net];
        if i64::from(time) < i64::from(layout.align) {
            // Below the field: the net cannot have changed yet, so this
            // is the previous vector's settled value. When align is
            // strictly below the minlevel, bit 0 recomputes it; otherwise
            // it must have been tracked before this vector ran.
            if !self.compiled.trackable[net.index()] {
                return None;
            }
            if self.compiled.tracked.contains(&net) {
                return Some(self.prev_final[net.index()]);
            }
            return Some(layout.read_bit(&self.arena, 0));
        }
        Some(layout.read_time(&self.arena, i64::from(time)))
    }

    /// The complete unit-delay history of `net` for the last vector, at
    /// times `0..=depth()`, or `None` when the pre-alignment part is not
    /// reconstructible for this net (monitor it, or compile with
    /// [`ParallelSim::compile_monitoring_all`]).
    pub fn history(&self, net: NetId) -> Option<Vec<bool>> {
        (0..=self.compiled.depth)
            .map(|t| self.value_at(net, t))
            .collect::<Option<Vec<bool>>>()
    }

    /// `Some(true)` if `net` changed at most once in the last vector —
    /// hazard-free per the paper's `0…01…1` / `1…10…0` comparison-field
    /// criterion — counted on the bit-field by
    /// [`ParallelSim::for_each_toggle_in_field`]. `None` exactly when
    /// [`ParallelSim::history`] is `None`.
    pub fn is_hazard_free(&self, net: NetId) -> Option<bool> {
        self.for_each_toggle_in_field(net, &mut |_| {})
            .map(|toggles| toggles <= 1)
    }

    /// Visits every *history* toggle of `net` for the last vector —
    /// each time `t` in `1..=depth()` where the net's unit-delay value
    /// differs from its value at `t - 1` — and returns the toggle
    /// count, computed word-parallel on the bit-field
    /// (`popcount(f ^ (f >> 1))` per word) instead of materializing the
    /// history. Returns `None` exactly when [`ParallelSim::history`]
    /// does (the pre-alignment part is not reconstructible).
    ///
    /// The count is alignment-aware at both ends, so it agrees
    /// bit-for-bit with one derived from `history()`: pairs below time
    /// 0 (negative alignment places field bits before the vector
    /// starts) are masked off, and for positive alignment — path
    /// tracing sets it to the net's minlevel — the step from the
    /// pre-field value into bit 0 is checked separately.
    pub fn for_each_toggle_in_field(&self, net: NetId, visit: &mut dyn FnMut(u32)) -> Option<u32> {
        if !self.compiled.trackable[net.index()] {
            return None;
        }
        let layout = &self.compiled.layouts[net];
        if layout.words == 0 {
            return Some(0);
        }
        let mut count = 0u32;
        // Toggle at `align` itself (align >= 1): the step from the value
        // just below the field — value_at(align - 1), which history()
        // also reports — to field bit 0.
        if layout.align >= 1 {
            let below = self
                .value_at(net, (layout.align - 1) as u32)
                .expect("trackable net has a value below its alignment");
            if below != layout.read_bit(&self.arena, 0) {
                count += 1;
                visit(layout.align as u32);
            }
        }
        // Pair p (field bits p, p+1) is a toggle at time align + p + 1;
        // pairs with p < skip land at time <= 0 and are not history.
        let skip = u32::try_from(-i64::from(layout.align.min(0))).expect("align fits");
        let mut previous_top: Option<bool> = None;
        for w in 0..layout.words {
            let word = self.arena[(layout.base + w) as usize];
            let bit_offset = w * W::BITS;
            let valid = (layout.width - bit_offset).min(W::BITS);
            // Bit i of `xor` set <=> pair (bit_offset + i) toggles.
            let mut xor = (word ^ (word >> 1)) & W::low_mask(valid.saturating_sub(1));
            if skip > bit_offset {
                xor &= !W::low_mask((skip - bit_offset).min(W::BITS));
            }
            count += xor.count_ones();
            while xor != W::ZERO {
                let i = xor.trailing_zeros();
                let time = i64::from(layout.align) + i64::from(bit_offset + i) + 1;
                visit(u32::try_from(time).expect("masked pairs land at positive times"));
                xor &= !W::low_mask((i + 1).min(W::BITS));
            }
            // The cross-word pair (bit_offset - 1): previous word's top
            // field bit against this word's bit 0.
            if let Some(top) = previous_top {
                let pair = bit_offset - 1;
                if pair >= skip && top != word.bit(0) {
                    count += 1;
                    visit(
                        u32::try_from(i64::from(layout.align) + i64::from(pair) + 1)
                            .expect("cross-word pair lands at a positive time"),
                    );
                }
            }
            previous_top = Some(word.bit(valid - 1));
        }
        Some(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{LaneIsa, LaneScratch};
    use crate::word::GROUP_LANES;
    use uds_netlist::{GateKind, NetlistBuilder};

    /// Fig. 6's network: D = A & B; E = D & C.
    fn fig6() -> (Netlist, NetId, NetId) {
        let mut b = NetlistBuilder::new();
        let a = b.input("A");
        let bn = b.input("B");
        let c = b.input("C");
        let d = b.gate(GateKind::And, &[a, bn], "D").unwrap();
        let e = b.gate(GateKind::And, &[d, c], "E").unwrap();
        b.output(e);
        (b.finish().unwrap(), d, e)
    }

    #[test]
    fn fig7_bitfields_match_the_paper() {
        // Fig. 7: starting from all nets 0, apply A=B=C=1. The paper's
        // computed bit-fields: D = x110 (times 0..3: 0,1,1), E = xx10
        // at times 0,1,2: 0,0,1 — i.e. D rises at 1, E at 2.
        let (nl, d, e) = fig6();
        let mut sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        sim.simulate_vector(&[true, true, true]);
        assert_eq!(sim.history(d), Some(vec![false, true, true]));
        assert_eq!(sim.history(e), Some(vec![false, false, true]));
        assert!(sim.final_value(e));
    }

    #[test]
    fn clones_share_the_compiled_program_but_not_the_state() {
        let (nl, _, e) = fig6();
        for optimization in Optimization::ALL {
            let mut original = ParallelSimulator::compile(&nl, optimization).unwrap();
            let mut fork = original.clone();
            assert!(fork.shares_compiled(&original), "{optimization}");
            let recompiled = ParallelSimulator::compile(&nl, optimization).unwrap();
            assert!(!recompiled.shares_compiled(&original), "{optimization}");
            fork.simulate_vector(&[true, true, true]);
            assert!(fork.final_value(e));
            assert!(!original.final_value(e), "{optimization}: own arena");
            original.simulate_vector(&[false, true, true]);
            assert!(fork.final_value(e), "{optimization}: own arena");
            assert_eq!(fork.history(e), Some(vec![false, false, true]));
        }
    }

    #[test]
    fn retention_across_vectors() {
        let (nl, d, e) = fig6();
        let mut sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        sim.simulate_vector(&[true, true, true]);
        // Drop A: E holds its old value through time 1 (old D), falls at 2.
        sim.simulate_vector(&[false, true, true]);
        assert_eq!(sim.history(d), Some(vec![true, false, false]));
        assert_eq!(sim.history(e), Some(vec![true, true, false]));
    }

    #[test]
    fn all_optimizations_agree_on_fig6() {
        let (nl, d, e) = fig6();
        for optimization in Optimization::ALL {
            let mut reference =
                ParallelSimulator::compile_monitoring_all(&nl, Optimization::None).unwrap();
            let mut sim = ParallelSimulator::compile_monitoring_all(&nl, optimization).unwrap();
            for pattern in [0b111u32, 0b011, 0b101, 0b000, 0b111, 0b001] {
                let inputs: Vec<bool> = (0..3).map(|i| pattern >> i & 1 != 0).collect();
                sim.simulate_vector(&inputs);
                reference.simulate_vector(&inputs);
                for net in [d, e] {
                    assert_eq!(
                        sim.history(net),
                        reference.history(net),
                        "{optimization} diverged on pattern {pattern:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn path_tracing_eliminates_fig10_shifts() {
        let (nl, ..) = fig6();
        let sim = ParallelSimulator::compile(&nl, Optimization::PathTracing).unwrap();
        assert_eq!(sim.stats().retained_shifts, 0);
        // And the field width shrank from 3 to 2 (the paper's remark).
        let alignment = sim.alignment().unwrap();
        let levels = uds_netlist::levelize(&nl).unwrap();
        assert_eq!(alignment.stats(&nl, &levels).max_width_bits, 2);
    }

    #[test]
    fn unoptimized_counts_one_shift_per_gate() {
        let (nl, ..) = fig6();
        let sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        assert_eq!(sim.stats().retained_shifts, nl.gate_count());
    }

    #[test]
    fn cyclic_netlist_is_rejected() {
        let mut b = NetlistBuilder::new();
        let a = b.input("A");
        let x = b.fresh_net();
        let y = b.fresh_net();
        b.gate_onto(GateKind::And, &[a, y], x).unwrap();
        b.gate_onto(GateKind::Not, &[x], y).unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        assert!(ParallelSimulator::compile(&nl, Optimization::None).is_err());
    }

    #[test]
    #[should_panic(expected = "input vector length")]
    fn wrong_input_length_panics() {
        let (nl, ..) = fig6();
        let mut sim = ParallelSimulator::compile(&nl, Optimization::None).unwrap();
        sim.simulate_vector(&[true]);
    }

    #[test]
    fn budget_violations_are_typed() {
        let (nl, ..) = fig6();
        let tight = ResourceLimits {
            max_depth: Some(1),
            ..ResourceLimits::unlimited()
        };
        for optimization in Optimization::ALL {
            match ParallelSimulator::compile_probed(&nl, optimization, false, &tight, &NoopProbe) {
                Err(CompileError::Limit(err)) => {
                    assert_eq!(err.resource, uds_netlist::Resource::Depth);
                    assert_eq!(err.needed, 2);
                    assert_eq!(err.allowed, 1);
                }
                other => panic!("{optimization}: expected depth violation, got {other:?}"),
            }
        }
        let roomy = ResourceLimits::production();
        assert!(ParallelSimulator::compile_probed(
            &nl,
            Optimization::None,
            false,
            &roomy,
            &NoopProbe
        )
        .is_ok());
    }

    #[test]
    fn expired_deadline_fails_compilation() {
        let (nl, ..) = fig6();
        let limits = ResourceLimits {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            ..ResourceLimits::unlimited()
        };
        match ParallelSimulator::compile_probed(&nl, Optimization::None, false, &limits, &NoopProbe)
        {
            Err(CompileError::Limit(err)) => {
                assert_eq!(err.resource, uds_netlist::Resource::Deadline)
            }
            other => panic!("expected deadline violation, got {other:?}"),
        }
    }

    /// Runs `check` under every instance of the block pass this CPU
    /// supports, and says which it skipped.
    fn for_each_isa(mut check: impl FnMut(LaneIsa)) {
        for isa in LaneIsa::ALL {
            if isa.supported() {
                block::with_isa(isa, || check(isa));
            } else {
                println!("skipped the {} block pass: not supported here", isa.name());
            }
        }
    }

    /// Runs `vectors` through a copy of `sim` in blocks of `lengths`
    /// (cycled), and through another copy one vector at a time. After
    /// every block, the first mismatch: in the packed finals, the
    /// one-lane arena or `prev_final`; in any vector's lane of a pinned
    /// field (the outputs' and tracked nets' whole histories) after its
    /// group's pass; or, in an instance of the block pass other than the
    /// baseline, in any lane a group's pass used.
    fn first_block_mismatch<W: Word>(
        sim: &ParallelSim<W>,
        outputs: &[NetId],
        vectors: &[Vec<bool>],
        lengths: &[usize],
    ) -> Option<String> {
        let (mut blocked, mut stepped) = (sim.clone(), sim.clone());
        let mut finals = vec![0u64; outputs.len()];
        let mut start = 0;
        for &len in lengths.iter().cycle() {
            if start == vectors.len() {
                return None;
            }
            let block: Vec<&[bool]> = vectors[start..vectors.len().min(start + len)]
                .iter()
                .map(Vec::as_slice)
                .collect();
            let mut baseline = blocked.clone();
            blocked.simulate_block(&block, outputs, &mut finals);
            let rows = block::with_scratch(|lanes: &mut LaneScratch<W>| lanes.trail());
            let at = format!("{} bits, block at vector {start}", W::BITS);
            if LaneIsa::current() != LaneIsa::Baseline {
                block::with_isa(LaneIsa::Baseline, || {
                    baseline.simulate_block(&block, outputs, &mut vec![0; outputs.len()])
                });
                let expected = block::with_scratch(|lanes: &mut LaneScratch<W>| lanes.trail());
                if rows != expected {
                    return Some(format!("{at}: lane rows differ from the baseline pass"));
                }
            }
            let compiled = &blocked.compiled;
            let plan = compiled
                .block
                .as_ref()
                .filter(|plan| block.len() > 1 && outputs.iter().all(|&net| plan.pins(net)));
            let mut expected = vec![0u64; outputs.len()];
            for (lane, inputs) in block.iter().enumerate() {
                stepped.simulate_vector(inputs);
                for (word, &net) in expected.iter_mut().zip(outputs) {
                    *word |= u64::from(stepped.final_value(net)) << lane;
                }
                let Some(plan) = plan else { continue };
                for &net in outputs.iter().chain(&compiled.tracked) {
                    let layout = &compiled.layouts[net];
                    let (row, base) = (plan.field_row(net), layout.base as usize);
                    let words = 0..layout.words as usize;
                    if words
                        .into_iter()
                        .any(|w| rows[lane][row + w] != stepped.arena[base + w])
                    {
                        return Some(format!("{at}: lane {lane} of net {net:?}'s field"));
                    }
                }
            }
            if finals != expected {
                return Some(format!("{at}: finals"));
            }
            if blocked.arena != stepped.arena {
                return Some(format!("{at}: arena"));
            }
            if blocked.prev_final != stepped.prev_final {
                return Some(format!("{at}: prev_final"));
            }
            start += block.len();
        }
        None
    }

    fn random_vectors(inputs: usize, len: usize, seed: u64) -> Vec<Vec<bool>> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| (0..inputs).map(|_| rng.gen()).collect())
            .collect()
    }

    /// Checks blocks against one-vector steps on every optimization that
    /// runs `nl` in blocks, with lane `k`'s settled live-ins seeded from
    /// vector `k - lag`.
    fn check_blocks<W: Word>(nl: &Netlist, lag: usize) -> Vec<String> {
        let vectors = random_vectors(nl.primary_inputs().len(), 300, 1990);
        let mut mismatches = Vec::new();
        for optimization in Optimization::ALL {
            for mut sim in [
                ParallelSim::<W>::compile(nl, optimization).unwrap(),
                ParallelSim::<W>::compile_monitoring_all(nl, optimization).unwrap(),
            ] {
                let compiled = Arc::get_mut(&mut sim.compiled).expect("a fresh compile");
                let Some(plan) = compiled.block.as_mut() else {
                    continue;
                };
                plan.lag = lag;
                let lengths = [64, 1, 63, 2, 40, 17];
                let found = first_block_mismatch(&sim, nl.primary_outputs(), &vectors, &lengths);
                mismatches.extend(found.map(|m| format!("{optimization}: {m}")));
            }
        }
        mismatches
    }

    /// The optimizations that run `nl` in blocks at `W` bits, with the
    /// lanes per row of each.
    fn blocking<W: Word>(nl: &Netlist) -> Vec<(Optimization, usize)> {
        let lanes = |optimization: Optimization| {
            let sim = ParallelSim::<W>::compile(nl, optimization).unwrap();
            assert_eq!(sim.block_len() == LANES, sim.block_lanes() > 1);
            (optimization, sim.block_lanes())
        };
        let blocks = |&(_, lanes): &(Optimization, usize)| lanes > 1;
        Optimization::ALL
            .into_iter()
            .map(lanes)
            .filter(blocks)
            .collect()
    }

    #[test]
    fn a_block_leaves_the_state_of_one_vector_per_pass() {
        use uds_netlist::generators::iscas::Iscas85;
        let c1908 = Iscas85::C1908.build();
        // The unoptimized and trimmed programs write every field in
        // their init block, so packing leaves c1908's rows over budget
        // at 64 lanes; they run 8-lane rows. The default program's fit
        // 64 lanes.
        for blocking in [blocking::<u32>(&c1908), blocking::<u64>(&c1908)] {
            assert_eq!(blocking.len(), Optimization::ALL.len(), "{blocking:?}");
            for (optimization, lanes) in blocking {
                match optimization {
                    Optimization::None | Optimization::Trimming => {
                        assert_eq!(lanes, GROUP_LANES, "{optimization}")
                    }
                    Optimization::PathTracingTrimming => assert_eq!(lanes, LANES),
                    _ => {}
                }
            }
        }
        for_each_isa(|isa| {
            for nl in [Iscas85::C432.build(), Iscas85::C880.build()] {
                let all_wide: Vec<_> = Optimization::ALL.map(|o| (o, LANES)).into();
                assert_eq!(blocking::<u32>(&nl), all_wide, "{}", nl.name());
                assert_eq!(blocking::<u64>(&nl), all_wide, "{}", nl.name());
            }
            for nl in [Iscas85::C432.build(), Iscas85::C880.build(), c1908.clone()] {
                let name = nl.name();
                assert_eq!(
                    check_blocks::<u32>(&nl, 1),
                    Vec::<String>::new(),
                    "{isa:?} {name}"
                );
                assert_eq!(
                    check_blocks::<u64>(&nl, 1),
                    Vec::<String>::new(),
                    "{isa:?} {name}"
                );
            }
        });
    }

    /// c6288's default program runs 8-lane rows (its 64-lane rows are
    /// 588 KiB at 64 bits): a block is 8 groups, each group's lane 0
    /// seeded from the vector before it.
    #[test]
    fn c6288_blocks_run_in_groups_of_eight_lanes() {
        use uds_netlist::generators::iscas::Iscas85;
        let nl = Iscas85::C6288.build();
        let vectors = random_vectors(nl.primary_inputs().len(), 140, 6288);
        for_each_isa(|isa| {
            for sim in [
                ParallelSimulator64::compile(&nl, Optimization::PathTracingTrimming).unwrap(),
                ParallelSimulator64::compile_monitoring_all(&nl, Optimization::PathTracingTrimming)
                    .unwrap(),
            ] {
                assert_eq!((sim.block_len(), sim.block_lanes()), (LANES, GROUP_LANES));
                let found = first_block_mismatch(&sim, nl.primary_outputs(), &vectors, &[64, 9]);
                assert_eq!(found, None, "{isa:?}");
            }
        });
    }

    /// Streams of 2 to 65 vectors in blocks of 64 on the 8-lane
    /// programs, so each ends inside, at or just past a group's edge:
    /// every final, the arena and every tracked `prev_final` against
    /// one-vector steps.
    #[test]
    fn ragged_blocks_cross_group_edges() {
        use uds_netlist::generators::iscas::Iscas85;
        fn check<W: Word>(nl: &Netlist, optimization: Optimization) {
            for sim in [
                ParallelSim::<W>::compile(nl, optimization).unwrap(),
                ParallelSim::<W>::compile_monitoring_all(nl, optimization).unwrap(),
            ] {
                assert_eq!(sim.block_lanes(), GROUP_LANES, "{optimization}");
                for len in [2, 7, 8, 9, 15, 63, 64, 65] {
                    let vectors = random_vectors(nl.primary_inputs().len(), len, len as u64);
                    let found = first_block_mismatch(&sim, nl.primary_outputs(), &vectors, &[64]);
                    assert_eq!(found, None, "{optimization}, {len} vectors");
                }
            }
        }
        let c1908 = Iscas85::C1908.build();
        check::<u32>(&c1908, Optimization::None);
        check::<u64>(&c1908, Optimization::Trimming);
        check::<u64>(&Iscas85::C6288.build(), Optimization::PathTracingTrimming);
    }

    /// Negative control: lane 0 of every group seeded from the carried
    /// words, as only the block's first vector may be, must be caught.
    #[test]
    fn seeding_a_group_head_from_the_carried_words_is_caught() {
        use uds_netlist::generators::iscas::Iscas85;
        fn check<W: Word>(nl: &Netlist, optimization: Optimization) -> Option<String> {
            let mut sim = ParallelSim::<W>::compile(nl, optimization).unwrap();
            let compiled = Arc::get_mut(&mut sim.compiled).unwrap();
            let plan = compiled.block.as_mut().expect("an 8-lane plan");
            assert_eq!(plan.lanes(), GROUP_LANES);
            plan.carry_group_heads = true;
            let vectors = random_vectors(nl.primary_inputs().len(), 130, 17);
            first_block_mismatch(&sim, nl.primary_outputs(), &vectors, &[64])
        }
        let c1908 = Iscas85::C1908.build();
        for optimization in [Optimization::None, Optimization::Trimming] {
            assert!(
                check::<u32>(&c1908, optimization).is_some(),
                "{optimization}"
            );
            assert!(
                check::<u64>(&c1908, optimization).is_some(),
                "{optimization}"
            );
        }
        let c6288 = Iscas85::C6288.build();
        assert!(check::<u64>(&c6288, Optimization::PathTracingTrimming).is_some());
    }

    /// A net no gate drives keeps whatever state it was seeded with:
    /// a block must read its carried words, in the settle sweep, in
    /// every lane and in its finals, as a step does.
    #[test]
    fn a_block_keeps_an_undriven_net_as_seeded() {
        let mut b = NetlistBuilder::new();
        let a = b.input("A");
        let floating = b.fresh_net();
        let x = b.gate(GateKind::Xor, &[a, floating], "X").unwrap();
        let y = b.gate(GateKind::Not, &[x], "Y").unwrap();
        let unread = b.fresh_net();
        let outputs = [x, y, floating, unread];
        for net in outputs {
            b.output(net);
        }
        let nl = b.finish().unwrap();
        let vectors = random_vectors(1, 100, 5);
        for_each_isa(|isa| {
            for optimization in Optimization::ALL {
                let mut sim = ParallelSimulator::compile_monitoring_all(&nl, optimization).unwrap();
                let mut stable = vec![false; nl.net_count()];
                stable[floating.index()] = true;
                stable[unread.index()] = true;
                stable[x.index()] = true;
                sim.seed_stable(&stable);
                assert_eq!(sim.block_len(), LANES, "{optimization}");
                let found = first_block_mismatch(&sim, &outputs, &vectors, &[64, 3, 33]);
                assert_eq!(found, None, "{isa:?} {optimization}");
            }
        });
    }

    /// A block asked for nets whose lanes it does not keep — neither
    /// primary outputs nor tracked — steps them one vector per pass.
    #[test]
    fn a_block_of_internal_nets_steps() {
        use uds_netlist::generators::iscas::Iscas85;
        let nl = Iscas85::C432.build();
        let sim = ParallelSimulator64::compile(&nl, Optimization::PathTracingTrimming).unwrap();
        let plan = sim.compiled.block.as_ref().unwrap();
        let internal: Vec<NetId> = nl
            .net_ids()
            .filter(|&net| !plan.pins(net))
            .take(20)
            .collect();
        assert_eq!(internal.len(), 20);
        let vectors = random_vectors(nl.primary_inputs().len(), 130, 3);
        assert_eq!(first_block_mismatch(&sim, &internal, &vectors, &[64]), None);
    }

    /// Negative control: seeding lane `k` from vector `k` instead of
    /// `k - 1` must be caught on every optimization.
    #[test]
    fn seeding_lanes_from_their_own_vector_is_caught() {
        use uds_netlist::generators::iscas::Iscas85;
        let nl = Iscas85::C432.build();
        for mismatches in [check_blocks::<u32>(&nl, 0), check_blocks::<u64>(&nl, 0)] {
            assert_eq!(
                mismatches.len(),
                2 * Optimization::ALL.len(),
                "{mismatches:?}"
            );
        }
    }

    /// The packed plan of every optimization of `nl` at `W` bits, rows
    /// freed `early` half-steps before their last use, over any budget.
    fn packed_plans<W: Word>(
        nl: &Netlist,
        early: u32,
    ) -> Vec<(Optimization, BlockPlan, ParallelSim<W>)> {
        let levels = uds_netlist::levelize(nl).unwrap();
        Optimization::ALL
            .into_iter()
            .map(|optimization| {
                let sim = ParallelSim::<W>::compile(nl, optimization).unwrap();
                let compiled = &sim.compiled;
                let pinned: Vec<NetId> = nl
                    .primary_outputs()
                    .iter()
                    .chain(&compiled.tracked)
                    .copied()
                    .collect();
                let plan = BlockPlan::unbudgeted::<W>(
                    nl,
                    &levels,
                    &compiled.program,
                    &compiled.layouts,
                    &pinned,
                    early,
                );
                (optimization, plan, sim)
            })
            .collect()
    }

    /// Every packed pass reads each row while it still holds the word
    /// the program reads there, and ends with the pinned fields intact.
    #[test]
    fn packed_passes_read_only_live_rows() {
        use uds_netlist::generators::iscas::Iscas85;
        fn check<W: Word>(nl: &Netlist) {
            for (optimization, plan, sim) in packed_plans::<W>(nl, 0) {
                let compiled = &sim.compiled;
                let stale = plan.first_stale_read::<W>(&compiled.program, &compiled.layouts);
                assert_eq!(
                    stale,
                    None,
                    "{} {optimization} at {} bits",
                    nl.name(),
                    W::BITS
                );
                assert!(plan.rows() <= compiled.program.arena_words);
            }
        }
        for circuit in [Iscas85::C432, Iscas85::C880, Iscas85::C1908, Iscas85::C6288] {
            let nl = circuit.build();
            check::<u32>(&nl);
            check::<u64>(&nl);
        }
    }

    /// Negative control: a packing that frees every object one op
    /// before its last use must fail the row check and the blocks. The
    /// aligned programs share rows; the unoptimized and trimmed ones
    /// write every field in their init block, so nothing is freed
    /// before its rows are all taken and freeing early changes nothing.
    #[test]
    fn a_packing_that_frees_a_word_early_is_caught() {
        use uds_netlist::generators::iscas::Iscas85;
        let nl = Iscas85::C432.build();
        let vectors = random_vectors(nl.primary_inputs().len(), 128, 11);
        let plans = packed_plans::<u64>(&nl, 2).into_iter();
        let aligned = plans.filter(|(optimization, ..)| {
            !matches!(optimization, Optimization::None | Optimization::Trimming)
        });
        for (optimization, plan, mut sim) in aligned {
            let compiled = &sim.compiled;
            let stale = plan.first_stale_read::<u64>(&compiled.program, &compiled.layouts);
            assert!(stale.is_some(), "{optimization}: the row check missed it");
            Arc::get_mut(&mut sim.compiled).unwrap().block = Some(plan);
            // A debug build may stop sooner, at the executor's check
            // that a shift's source and destination do not overlap.
            let found = std::panic::catch_unwind(|| {
                first_block_mismatch(&sim, nl.primary_outputs(), &vectors, &[64])
            });
            assert!(
                !matches!(found, Ok(None)),
                "{optimization}: the blocks missed it"
            );
        }
    }

    /// The default program's live-in words on c432 are the 36 input
    /// fields its `InputAligned` ops read.
    #[test]
    fn c432_blocks_seed_only_input_fields() {
        let text = include_str!("../../../examples/c432.bench");
        let nl = uds_netlist::bench_format::parse(text, "c432").unwrap();
        let sim = ParallelSimulator64::compile(&nl, Optimization::PathTracingTrimming).unwrap();
        let live_ins = sim.compiled.block.as_ref().map(BlockPlan::live_ins);
        assert_eq!(live_ins, Some(nl.primary_inputs().len()));
    }

    /// c6288's unoptimized program packs to 6594 rows: 412 KiB even at
    /// 8 lanes of 64 bits.
    #[test]
    fn an_arena_over_the_lane_budget_steps_one_vector_per_pass() {
        use uds_netlist::generators::iscas::Iscas85;
        let nl = Iscas85::C6288.build();
        let sim = ParallelSimulator64::compile(&nl, Optimization::None).unwrap();
        let lane_bytes = sim.stats().lane_arena_words * GROUP_LANES * 8;
        assert!(lane_bytes > crate::block::LANE_ARENA_BUDGET, "{lane_bytes}");
        assert_eq!((sim.block_len(), sim.block_lanes()), (1, 1));
        assert!(sim.compiled.block.is_none());
        let vectors = random_vectors(nl.primary_inputs().len(), 70, 7);
        let outputs = nl.primary_outputs();
        assert_eq!(first_block_mismatch(&sim, outputs, &vectors, &[64]), None);
    }

    #[test]
    fn optimization_display_names() {
        assert_eq!(Optimization::None.to_string(), "unoptimized");
        assert_eq!(
            Optimization::PathTracingTrimming.to_string(),
            "path-tracing+trimming"
        );
    }
}
