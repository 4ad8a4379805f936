//! Per-level execution profiling: the hot-path accumulator behind
//! `udsim hotspots` and `GET /debug/hotspots`.
//!
//! The paper's cost model says compiled-simulation time is dominated by
//! per-level word operations over the levelized netlist; this module is
//! the measurement side of that claim. Every engine has one per-vector
//! body, generic over a [`LevelSink`]: the zero-sized [`Unprofiled`]
//! sink runs the whole op stream in one call, while a [`LevelTimer`]
//! walks the compiled program level by level and takes each sweep's
//! report, attributing wall-clock **self time**
//! to levels while reading the clock only every
//! [`TIMER_GRANULARITY_WORD_OPS`] units of work — the amortization that
//! keeps profiling overhead small on wide levels and bounded (two clock
//! reads per vector) on tiny circuits.
//!
//! Attribution contract: everything an engine does inside one profiled
//! vector lands in *some* level — per-vector setup (input broadcasts,
//! waveform resets, retention copies) belongs to level 0 — so the
//! per-level `self_ns` of a [`LevelProfile`] sums to exactly the time
//! spent inside the profiled calls. The `udsim hotspots` property tests
//! hold engines to that: level self-times must sum to within 20% of the
//! enclosing simulate span.
//!
//! Level indexing: slot 0 is per-vector setup plus any level-0 work;
//! slot `k` (1..=depth) is the sweep of gates at level `k`. Event-driven
//! engines map simulated time step `t` to slot `t` (unit delay makes
//! the two coincide for glitch-free propagation).

use std::ops::Range;
use std::time::Instant;

/// Clock-read granularity of [`LevelTimer`], in weighted work units
/// (word operations). Pending level segments accumulate until their
/// combined work crosses this threshold; one `Instant` read then covers
/// them all, and the elapsed time is distributed proportionally to each
/// segment's work. At one clock read per ~4096 word ops the timer adds
/// well under 5% even when a word op is a single machine instruction.
pub const TIMER_GRANULARITY_WORD_OPS: u64 = 4096;

/// Accumulated cost of one netlist level across profiled vectors.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LevelCost {
    /// Wall-clock self time attributed to this level, in nanoseconds.
    pub self_ns: u64,
    /// Word operations executed (compiled instructions for the code
    /// generators; for event-driven engines, scheduled events).
    pub word_ops: u64,
    /// Gate evaluations performed.
    pub gate_evals: u64,
    /// Estimated bytes of simulation state touched (reads + writes).
    pub bytes_touched_est: u64,
}

impl LevelCost {
    /// Folds `other` into `self`, field by field.
    pub fn merge(&mut self, other: &LevelCost) {
        self.self_ns = self.self_ns.saturating_add(other.self_ns);
        self.word_ops = self.word_ops.saturating_add(other.word_ops);
        self.gate_evals = self.gate_evals.saturating_add(other.gate_evals);
        self.bytes_touched_est = self
            .bytes_touched_est
            .saturating_add(other.bytes_touched_est);
    }
}

/// Per-level cost accumulator for one engine over some number of
/// profiled vectors. Index `k` of [`LevelProfile::levels`] is netlist
/// level `k` (0 = per-vector setup; see the module docs).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LevelProfile {
    /// One accumulated cost per level, index = level.
    pub levels: Vec<LevelCost>,
    /// Vectors folded into this profile.
    pub vectors: u64,
}

impl LevelProfile {
    /// An empty profile sized for a circuit of the given `depth`
    /// (slots 0..=depth).
    pub fn with_depth(depth: usize) -> Self {
        LevelProfile {
            levels: vec![LevelCost::default(); depth + 1],
            vectors: 0,
        }
    }

    /// Grows the level vector so `levels[level]` exists.
    pub fn ensure_level(&mut self, level: usize) {
        if self.levels.len() <= level {
            self.levels.resize(level + 1, LevelCost::default());
        }
    }

    /// Sum of every level's cost.
    pub fn total(&self) -> LevelCost {
        let mut total = LevelCost::default();
        for cost in &self.levels {
            total.merge(cost);
        }
        total
    }

    /// Sum of per-level self time, in nanoseconds.
    pub fn total_self_ns(&self) -> u64 {
        self.levels
            .iter()
            .fold(0u64, |acc, c| acc.saturating_add(c.self_ns))
    }

    /// Folds another profile in (levelwise; vector counts add).
    pub fn merge(&mut self, other: &LevelProfile) {
        if let Some(top) = other.levels.len().checked_sub(1) {
            self.ensure_level(top);
        }
        for (slot, cost) in self.levels.iter_mut().zip(&other.levels) {
            slot.merge(cost);
        }
        self.vectors = self.vectors.saturating_add(other.vectors);
    }
}

/// One compile-time level segment of a compiled program: a contiguous
/// op range that belongs to a single netlist level, with its static
/// work counts. The code generators emit ops grouped by the levelized
/// worklist order, which is *not* sorted by level — so each compiler
/// records the run-length segments of its own emission order and a
/// [`LevelSink::walk`] replays exactly those ranges. Op order is never
/// changed for profiling.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LevelSegment {
    /// Netlist level this segment's ops belong to.
    pub level: usize,
    /// First op index of the segment (engine-defined op stream).
    pub start: usize,
    /// One past the last op index.
    pub end: usize,
    /// Static word operations in the segment.
    pub word_ops: u64,
    /// Gate evaluations the segment performs per vector.
    pub gate_evals: u64,
    /// Estimated bytes touched per execution of the segment.
    pub bytes_touched_est: u64,
}

/// Builds run-length [`LevelSegment`]s in emission order: feed it one
/// `(level, op_count, …)` record per emitted op group and it merges
/// consecutive records at the same level.
#[derive(Clone, Debug, Default)]
pub struct SegmentBuilder {
    segments: Vec<LevelSegment>,
    cursor: usize,
}

impl SegmentBuilder {
    /// An empty builder starting at op index 0.
    pub fn new() -> Self {
        SegmentBuilder::default()
    }

    /// Records `ops` consecutive ops at `level` performing `gate_evals`
    /// gate evaluations and touching ~`bytes` of state, merging into
    /// the previous segment when the level is unchanged.
    pub fn emit(&mut self, level: usize, ops: usize, word_ops: u64, gate_evals: u64, bytes: u64) {
        let start = self.cursor;
        self.cursor += ops;
        if let Some(last) = self.segments.last_mut() {
            if last.level == level && last.end == start {
                last.end = self.cursor;
                last.word_ops += word_ops;
                last.gate_evals += gate_evals;
                last.bytes_touched_est += bytes;
                return;
            }
        }
        self.segments.push(LevelSegment {
            level,
            start,
            end: self.cursor,
            word_ops,
            gate_evals,
            bytes_touched_est: bytes,
        });
    }

    /// Total ops emitted so far (the next segment's start index).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// The finished segment list.
    pub fn finish(self) -> Vec<LevelSegment> {
        self.segments
    }
}

/// Derives the static per-level profile (zero `self_ns`) from a
/// segment list — the "paper side" of measured-vs-static hotspot
/// comparisons, and the partition-weight vector the ROADMAP's
/// partitioner consumes.
pub fn static_profile(segments: &[LevelSegment]) -> LevelProfile {
    let mut profile = LevelProfile::default();
    for segment in segments {
        profile.ensure_level(segment.level);
        let slot = &mut profile.levels[segment.level];
        slot.word_ops += segment.word_ops;
        slot.gate_evals += segment.gate_evals;
        slot.bytes_touched_est += segment.bytes_touched_est;
    }
    profile
}

/// Chunked per-level wall-clock attributor for one profiled vector.
///
/// Create one at the top of a leveled simulate call and hand it to the
/// engine's body as its [`LevelSink`]; the timer reads the clock only
/// when pending work crosses [`TIMER_GRANULARITY_WORD_OPS`] (or on
/// drop) and splits the elapsed nanoseconds across the pending
/// segments proportionally to their work. Dropping the timer flushes,
/// so the profile's `self_ns` always accounts for the full span from
/// construction to drop — early returns included.
pub struct LevelTimer<'p> {
    profile: &'p mut LevelProfile,
    mark: Instant,
    /// (level, weight) pairs since the last clock read.
    pending: Vec<(usize, u64)>,
    pending_weight: u64,
    granularity: u64,
}

impl<'p> LevelTimer<'p> {
    /// Starts the clock and counts one vector into `profile`.
    pub fn new(profile: &'p mut LevelProfile) -> Self {
        profile.vectors = profile.vectors.saturating_add(1);
        LevelTimer {
            profile,
            mark: Instant::now(),
            pending: Vec::with_capacity(8),
            pending_weight: 0,
            granularity: TIMER_GRANULARITY_WORD_OPS,
        }
    }

    /// As [`LevelTimer::new`] with a custom clock-read granularity
    /// (tests use 0 to force one read per segment).
    pub fn with_granularity(profile: &'p mut LevelProfile, granularity: u64) -> Self {
        let mut timer = LevelTimer::new(profile);
        timer.granularity = granularity;
        timer
    }

    /// Reads the clock once and distributes the elapsed time over the
    /// pending segments proportionally to their weights (remainder to
    /// the last segment, so no nanosecond is dropped).
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let now = Instant::now();
        let elapsed = u64::try_from(now.duration_since(self.mark).as_nanos()).unwrap_or(u64::MAX);
        self.mark = now;
        let total_weight = self.pending_weight.max(1);
        let mut distributed = 0u64;
        let last = self.pending.len() - 1;
        for (index, &(level, weight)) in self.pending.iter().enumerate() {
            let share = if index == last {
                elapsed.saturating_sub(distributed)
            } else {
                ((elapsed as u128 * weight as u128) / total_weight as u128) as u64
            };
            distributed = distributed.saturating_add(share);
            self.profile.ensure_level(level);
            self.profile.levels[level].self_ns =
                self.profile.levels[level].self_ns.saturating_add(share);
        }
        self.pending.clear();
        self.pending_weight = 0;
    }
}

/// Where an engine's per-vector body sends its op stream and its level
/// reports. Each engine has exactly one body, generic over the sink, so
/// plain and profiled runs execute the same ops in the same order:
/// [`Unprofiled`] compiles to the bare op-stream walk, [`LevelTimer`]
/// walks it segment by segment and times each level.
pub trait LevelSink {
    /// Reports that the sweep of `level` just finished, having executed
    /// `word_ops` word operations, `gate_evals` gate evaluations, and
    /// touched ~`bytes` of state since the previous report.
    fn segment(&mut self, level: usize, word_ops: u64, gate_evals: u64, bytes: u64);

    /// Executes ops `0..total` of a compiled op stream by calling `run`
    /// on consecutive ranges, in order: by default one level segment
    /// at a time, reporting each (`segments` cover `0..total`).
    fn walk(&mut self, segments: &[LevelSegment], total: usize, mut run: impl FnMut(Range<usize>)) {
        debug_assert_eq!(segments.last().map_or(0, |s| s.end), total);
        for segment in segments {
            run(segment.start..segment.end);
            self.segment(
                segment.level,
                segment.word_ops,
                segment.gate_evals,
                segment.bytes_touched_est,
            );
        }
    }
}

/// The plain path's sink: no reports, and the whole op stream in one
/// call. Walking level segments here would add one loop per segment —
/// c432 under path tracing + trimming has 134 segments for 327 ops.
pub struct Unprofiled;

impl LevelSink for Unprofiled {
    #[inline(always)]
    fn segment(&mut self, _: usize, _: u64, _: u64, _: u64) {}

    #[inline(always)]
    fn walk(&mut self, _: &[LevelSegment], total: usize, mut run: impl FnMut(Range<usize>)) {
        run(0..total);
    }
}

impl LevelSink for LevelTimer<'_> {
    fn segment(&mut self, level: usize, word_ops: u64, gate_evals: u64, bytes: u64) {
        self.profile.ensure_level(level);
        let slot = &mut self.profile.levels[level];
        slot.word_ops = slot.word_ops.saturating_add(word_ops);
        slot.gate_evals = slot.gate_evals.saturating_add(gate_evals);
        slot.bytes_touched_est = slot.bytes_touched_est.saturating_add(bytes);
        // Weight 1 floor: a segment with no counted ops (e.g. an empty
        // level) still gets a share of elapsed time, keeping the total
        // self time equal to the total elapsed time.
        let weight = word_ops.max(gate_evals).max(1);
        match self.pending.last_mut() {
            Some((last, w)) if *last == level => *w += weight,
            _ => self.pending.push((level, weight)),
        }
        self.pending_weight += weight;
        if self.pending_weight >= self.granularity {
            self.flush();
        }
    }
}

impl Drop for LevelTimer<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unprofiled_walks_the_whole_stream_in_one_call() {
        let segments = [
            LevelSegment {
                level: 0,
                start: 0,
                end: 2,
                word_ops: 2,
                gate_evals: 0,
                bytes_touched_est: 0,
            },
            LevelSegment {
                level: 1,
                start: 2,
                end: 5,
                word_ops: 3,
                gate_evals: 3,
                bytes_touched_est: 0,
            },
        ];
        let mut plain = Vec::new();
        Unprofiled.walk(&segments, 5, |ops| plain.push(ops));
        assert_eq!(plain, vec![0..5]);
        let mut profile = LevelProfile::default();
        let mut leveled = Vec::new();
        LevelTimer::new(&mut profile).walk(&segments, 5, |ops| leveled.push(ops));
        assert_eq!(leveled, vec![0..2, 2..5]);
        assert_eq!(profile.levels[1].gate_evals, 3);
    }

    #[test]
    fn segment_builder_merges_runs_and_tracks_the_cursor() {
        let mut builder = SegmentBuilder::new();
        builder.emit(0, 3, 3, 0, 24);
        builder.emit(1, 2, 2, 1, 16);
        builder.emit(1, 4, 4, 2, 32); // same level, contiguous → merge
        builder.emit(2, 1, 1, 1, 8);
        builder.emit(1, 2, 2, 1, 16); // level 1 again → new segment
        assert_eq!(builder.cursor(), 12);
        let segments = builder.finish();
        assert_eq!(segments.len(), 4);
        assert_eq!(
            (segments[1].level, segments[1].start, segments[1].end),
            (1, 3, 9)
        );
        assert_eq!(segments[1].word_ops, 6);
        assert_eq!(segments[1].gate_evals, 3);
        assert_eq!((segments[3].start, segments[3].end), (10, 12));
    }

    #[test]
    fn static_profile_accumulates_by_level() {
        let mut builder = SegmentBuilder::new();
        builder.emit(0, 2, 2, 0, 16);
        builder.emit(1, 3, 3, 3, 24);
        builder.emit(2, 1, 1, 1, 8);
        builder.emit(1, 2, 2, 2, 16);
        let profile = static_profile(&builder.finish());
        assert_eq!(profile.levels.len(), 3);
        assert_eq!(profile.levels[1].word_ops, 5);
        assert_eq!(profile.levels[1].gate_evals, 5);
        assert_eq!(profile.levels[0].gate_evals, 0);
        assert_eq!(profile.total().word_ops, 8);
    }

    #[test]
    fn timer_self_times_sum_to_the_timed_span() {
        let mut profile = LevelProfile::default();
        let clock = Instant::now();
        {
            let mut timer = LevelTimer::new(&mut profile);
            for level in 0..4 {
                std::hint::black_box(vec![level as u64; 512]);
                timer.segment(level, 100, 10, 800);
            }
        }
        let span = u64::try_from(clock.elapsed().as_nanos()).unwrap();
        let total = profile.total_self_ns();
        assert!(total > 0, "timer recorded nothing");
        assert!(
            total <= span,
            "attributed {total} ns exceeds the enclosing span {span} ns"
        );
        assert_eq!(profile.vectors, 1);
        assert_eq!(profile.total().word_ops, 400);
        assert_eq!(profile.total().gate_evals, 40);
    }

    #[test]
    fn chunked_timer_reads_distribute_proportionally() {
        let mut profile = LevelProfile::default();
        {
            // Granularity high enough that every segment lands in one
            // pending batch, flushed only on drop.
            let mut timer = LevelTimer::with_granularity(&mut profile, u64::MAX);
            timer.segment(0, 1, 0, 0);
            timer.segment(1, 999, 0, 0);
        }
        let total = profile.total_self_ns();
        // One clock interval split 1:999 — level 1 must dominate.
        assert_eq!(profile.levels[0].self_ns + profile.levels[1].self_ns, total);
        assert!(
            profile.levels[1].self_ns >= profile.levels[0].self_ns,
            "heavy level got less time: {profile:?}"
        );
    }

    #[test]
    fn merge_is_levelwise_and_grows() {
        let mut a = LevelProfile::with_depth(1);
        a.levels[1].self_ns = 10;
        a.vectors = 2;
        let mut b = LevelProfile::with_depth(3);
        b.levels[1].self_ns = 5;
        b.levels[3].gate_evals = 7;
        b.vectors = 1;
        a.merge(&b);
        assert_eq!(a.levels.len(), 4);
        assert_eq!(a.levels[1].self_ns, 15);
        assert_eq!(a.levels[3].gate_evals, 7);
        assert_eq!(a.vectors, 3);
    }
}
