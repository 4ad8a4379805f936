//! The streaming vector runner: the one loop that drives a
//! [`GuardedSimulator`] over a vector stream, for every caller — the
//! CLI's `simulate`, `profile` and `hotspots`, the serve daemon, and
//! [`run_batch`].
//!
//! Unit-delay simulation of a stream looks inherently sequential:
//! vector *i* starts from the settled state vector *i - 1* left behind
//! (retention). The runner breaks that dependency with a cheap
//! **zero-delay prepass**: for a combinational circuit the unit-delay
//! settled state after vector *i* is exactly the zero-delay (levelized)
//! evaluation of vector *i* alone — the fixpoint is unique and
//! history-free (see
//! [`stable_states`](uds_eventsim::zero_delay::stable_states)).
//!
//! One shard runs inline on the calling thread: no thread, no prepass,
//! no buffer. Several shards take the stream in windows of [`WINDOW`]
//! vectors, one bulk-synchronous superstep each: the window is split
//! into contiguous shards, every shard is seeded with the zero-delay
//! state of the vector just before it (O(jobs) per window), the shards
//! run on scoped threads, and after the barrier the window's rows go to
//! the sink in stream order. Memory is O([`WINDOW`] · jobs) whatever
//! the stream length, and the rows are bit-exact with a sequential run
//! for any shard count.
//!
//! Each shard owns a [`GuardedSimulator`] that persists across windows,
//! so a panicking or budget-blowing engine degrades only its own shard,
//! and a fallback sticks to it. A shard steps its vectors in blocks
//! ([`GuardedSimulator::simulate_block`]) of the active engine's
//! [`GuardedSimulator::block_len`] — [`BLOCK`] on the PC-set engine,
//! which runs a block on its 64 bit lanes, one vector on the others —
//! and polls its cancel token once per block; heartbeats follow the
//! rows as they go to the sink.
//! A per-shard [`Step`] decides what a vector does beyond simulating:
//! per-level timing, activity, or a waveform dump ride the same loop,
//! one vector at a time. Shard timings surface as one
//! `batch.shard.<k>` telemetry span per shard, with `batch.shards` /
//! `batch.vectors_per_shard` gauges and one `batch.prepass` span.

// SimError is large but cold; see guard.rs.
#![allow(clippy::result_large_err)]

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use uds_eventsim::zero_delay::ZeroDelayCompiled;
use uds_netlist::{NetId, Netlist};

use crate::cancel::CancelToken;
use crate::error::{SimError, SimErrorKind, SimPhase};
use crate::guard::{panicked, GuardedSimulator};
use crate::progress::{BatchProbe, Heartbeat};
use crate::simulator::pack_lane;
use crate::telemetry::{nanos, Telemetry};
use crate::{Engine, BLOCK};

/// Vectors per window of a multi-shard run — what bounds its memory.
pub const WINDOW: usize = 4096;

/// The most worker threads one run may use; [`run_stream`] clamps to
/// it, and the CLI and the serve daemon reject larger requests.
pub const MAX_JOBS: usize = 256;

/// What one shard did: its share of the stream, wall-clock time, and
/// how its fallback chain fared.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index: shard `k` takes the `k`-th slice of every window.
    pub index: usize,
    /// Vectors the shard simulated.
    pub vectors: usize,
    /// When the shard started, in nanoseconds since the telemetry
    /// registry's epoch (0 when the run carried no telemetry) — what
    /// places `batch.shard.<k>` spans on the exported timeline.
    pub start_ns: u64,
    /// Wall-clock time the shard spent running its vectors, summed over
    /// windows; excludes the prepass and the barrier waits.
    pub wall_ns: u64,
    /// The engine that survived the shard.
    pub engine: Engine,
    /// Fallbacks fired inside this shard alone.
    pub fallbacks: usize,
}

/// The assembled result of a batch run.
#[derive(Clone, Debug)]
pub struct BatchOutput {
    /// Per-vector primary-output settled values, in stream order —
    /// bit-identical to a sequential run regardless of shard count.
    pub rows: Vec<Vec<bool>>,
    /// Per-shard execution reports, in shard order (none for an empty
    /// stream).
    pub shards: Vec<ShardReport>,
}

/// What a shard does with each vector. `()` only simulates it, a block
/// at a time; the other implementations (activity, per-level timing,
/// waveforms) also record something per vector into state the shard
/// owns, handed back in [`Shard::step`] when the run ends.
pub trait Step: Send {
    /// Runs `inputs` on `guard`, recording whatever the step keeps.
    ///
    /// # Errors
    ///
    /// The guard's error when its whole fallback chain fails.
    fn step(&mut self, guard: &mut GuardedSimulator, inputs: &[bool]) -> Result<(), SimError>;

    /// Runs at most [`BLOCK`] consecutive vectors on `guard`; bit `k`
    /// of `finals[o]` is then `outputs[o]` after `vectors[k]`. The
    /// default calls [`Step::step`] per vector.
    ///
    /// # Errors
    ///
    /// As [`Step::step`].
    fn step_block(
        &mut self,
        guard: &mut GuardedSimulator,
        vectors: &[&[bool]],
        outputs: &[NetId],
        finals: &mut [u64],
    ) -> Result<(), SimError> {
        finals.fill(0);
        for (lane, inputs) in vectors.iter().enumerate() {
            self.step(guard, inputs)?;
            pack_lane(finals, lane, outputs, |net| guard.final_value(net));
        }
        Ok(())
    }
}

impl Step for () {
    fn step(&mut self, guard: &mut GuardedSimulator, inputs: &[bool]) -> Result<(), SimError> {
        guard.simulate_vector(inputs).map(drop)
    }

    fn step_block(
        &mut self,
        guard: &mut GuardedSimulator,
        vectors: &[&[bool]],
        outputs: &[NetId],
        finals: &mut [u64],
    ) -> Result<(), SimError> {
        guard.simulate_block(vectors, outputs, finals).map(drop)
    }
}

/// `None` steps plainly, so a step can be switched on per run.
impl<S: Step> Step for Option<S> {
    fn step(&mut self, guard: &mut GuardedSimulator, inputs: &[bool]) -> Result<(), SimError> {
        match self {
            Some(step) => step.step(guard, inputs),
            None => ().step(guard, inputs),
        }
    }

    fn step_block(
        &mut self,
        guard: &mut GuardedSimulator,
        vectors: &[&[bool]],
        outputs: &[NetId],
        finals: &mut [u64],
    ) -> Result<(), SimError> {
        match self {
            Some(step) => step.step_block(guard, vectors, outputs, finals),
            None => ().step_block(guard, vectors, outputs, finals),
        }
    }
}

/// How a run is split, watched and stopped. The default runs one shard
/// inline, unobserved and uncancellable.
#[derive(Clone, Copy, Default)]
pub struct RunControl<'a> {
    /// Worker threads; 0 and 1 both run inline, and more than
    /// [`MAX_JOBS`] is clamped.
    pub jobs: usize,
    /// Receives the per-shard spans, the gauges and the prepass span.
    pub telemetry: Option<&'a Telemetry>,
    /// Receives per-shard heartbeats.
    pub progress: Option<&'a dyn BatchProbe>,
    /// Polled before every block of every shard (one vector, or 64 on
    /// the PC-set engine).
    pub cancel: Option<&'a CancelToken>,
}

/// One shard of a finished run.
pub struct Shard<H> {
    /// What the shard did.
    pub report: ShardReport,
    /// The guard that ran it: the prototype itself for an inline run, a
    /// fork otherwise.
    pub guard: GuardedSimulator,
    /// The shard's [`Step`] state.
    pub step: H,
}

/// The sink for runs that keep only their shards' [`Step`] state.
pub fn discard(_index: usize, _inputs: &[bool], _row: &[bool]) -> Result<(), SimError> {
    Ok(())
}

/// Splits `total` vectors into `jobs` contiguous, near-equal shards
/// (the first `total % jobs` shards get one extra vector). Returns
/// `(start, len)` pairs; empty shards are dropped, so they are always
/// the trailing ones.
fn shard_bounds(total: usize, jobs: usize) -> Vec<(usize, usize)> {
    let jobs = jobs.clamp(1, total.max(1));
    let base = total / jobs;
    let extra = total % jobs;
    let mut bounds = Vec::with_capacity(jobs);
    let mut start = 0;
    for k in 0..jobs {
        let len = base + usize::from(k < extra);
        if len > 0 {
            bounds.push((start, len));
            start += len;
        }
    }
    bounds
}

/// What every shard shares for one run.
struct Context<'a> {
    outputs: &'a [NetId],
    control: RunControl<'a>,
    interval: Duration,
}

/// A shard's state across windows.
struct Worker<H> {
    index: usize,
    guard: GuardedSimulator,
    step: H,
    /// Fallbacks the guard had fired before the run.
    inherited: usize,
    /// Vectors the shard owns over the whole run, and has finished.
    total: usize,
    done: usize,
    /// The primary-output row being emitted.
    row: Vec<bool>,
    /// The current block's primary-output words, one lane per vector.
    finals: Vec<u64>,
    started: Option<Instant>,
    wall_ns: u64,
    last_beat: Instant,
}

impl<H: Step> Worker<H> {
    fn new(index: usize, guard: GuardedSimulator, step: H, total: usize) -> Self {
        Worker {
            index,
            inherited: guard.fallbacks().len(),
            guard,
            step,
            total,
            done: 0,
            row: Vec::new(),
            finals: Vec::new(),
            started: None,
            wall_ns: 0,
            last_beat: Instant::now(),
        }
    }

    /// Runs `vectors` (after seeding the guard with `seed`) in blocks of
    /// the active engine's [`GuardedSimulator::block_len`], handing each
    /// vector's inputs and output row to `emit`. A tripped cancel token stops the shard before its next
    /// block; a panic anywhere in the loop becomes this shard's error
    /// instead of unwinding further.
    fn run<V: AsRef<[bool]>, E: From<SimError>>(
        &mut self,
        mut vectors: impl Iterator<Item = V>,
        seed: Option<&[bool]>,
        ctx: &Context<'_>,
        emit: &mut impl FnMut(&[bool], &[bool]) -> Result<(), E>,
    ) -> Result<(), E> {
        let clock = Instant::now();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(seed) = seed {
                self.guard.seed_stable(seed);
            }
            if self.started.is_none() {
                self.started = Some(clock);
                self.last_beat = clock;
                self.beat(ctx);
            }
            self.finals.resize(ctx.outputs.len(), 0);
            let mut block: Vec<V> = Vec::with_capacity(BLOCK);
            loop {
                block.clear();
                block.extend(vectors.by_ref().take(self.guard.block_len()));
                if block.is_empty() {
                    break;
                }
                if let Some(cause) = ctx.control.cancel.and_then(CancelToken::cause) {
                    let vectors_done = self.done;
                    let kind = SimErrorKind::Cancelled {
                        cause,
                        vectors_done,
                    };
                    return Err(SimError::new(kind, SimPhase::Run).into());
                }
                let mut lanes: [&[bool]; BLOCK] = [&[]; BLOCK];
                for (lane, vector) in lanes.iter_mut().zip(&block) {
                    *lane = vector.as_ref();
                }
                let lanes = &lanes[..block.len()];
                self.step
                    .step_block(&mut self.guard, lanes, ctx.outputs, &mut self.finals)?;
                for (lane, inputs) in lanes.iter().enumerate() {
                    self.row.clear();
                    self.row
                        .extend(self.finals.iter().map(|word| word >> lane & 1 != 0));
                    emit(inputs, &self.row)?;
                    self.done += 1;
                    if ctx.control.progress.is_some() {
                        let now = Instant::now();
                        if self.done == self.total
                            || now.duration_since(self.last_beat) >= ctx.interval
                        {
                            self.last_beat = now;
                            self.beat(ctx);
                        }
                    }
                }
            }
            Ok(())
        }));
        self.wall_ns = self.wall_ns.saturating_add(nanos(clock.elapsed()));
        result.unwrap_or_else(|payload| {
            Err(panicked(payload, SimPhase::Run, self.guard.active_engine()).into())
        })
    }

    /// Sends the shard's progress record; it is final once every vector
    /// the shard owns is done.
    fn beat(&self, ctx: &Context<'_>) {
        if let Some(progress) = ctx.control.progress {
            progress.heartbeat(&Heartbeat {
                shard: self.index,
                done: self.done,
                total: self.total,
                wall_ns: self.started.map_or(0, |at| nanos(at.elapsed())),
                engine: self.guard.active_engine(),
                fallbacks: self.fallbacks(),
                finished: self.done == self.total,
            });
        }
    }

    fn fallbacks(&self) -> usize {
        self.guard.fallbacks().len() - self.inherited
    }

    fn finish(self, telemetry: Option<&Telemetry>) -> Shard<H> {
        let start_ns = match (telemetry, self.started) {
            (Some(t), Some(at)) => nanos(at.saturating_duration_since(t.epoch())),
            _ => 0,
        };
        let report = ShardReport {
            index: self.index,
            vectors: self.done,
            start_ns,
            wall_ns: self.wall_ns,
            engine: self.guard.active_engine(),
            fallbacks: self.fallbacks(),
        };
        if let (Some(telemetry), Some(at)) = (telemetry, self.started) {
            // Worker spans get their own timeline lane: tid 0 is the
            // coordinating thread's span stack.
            telemetry.attach_timed(
                &format!("batch.shard.{}", report.index),
                at,
                report.wall_ns,
                report.index as u64 + 1,
            );
            telemetry.add("batch.shard_fallbacks", report.fallbacks as u64);
        }
        Shard {
            report,
            guard: self.guard,
            step: self.step,
        }
    }
}

/// Runs the first `len` vectors of `stimulus` through `prototype` and
/// hands each vector's index, inputs and primary-output row to `sink`,
/// in stream order. `control.jobs` shards the stream (see the module
/// docs); every shard gets its own `step()` state. The rows are
/// bit-identical to a sequential run for any shard count. Returns the
/// shards in order — always at least one, even for an empty stream.
///
/// `prototype` should be freshly built or seeded: its engine state is
/// where the stream starts. An inline run steps the prototype itself
/// (keeping its telemetry); a sharded one steps forks of it.
///
/// # Errors
///
/// A vector of the wrong width is a usage error, raised before its
/// window's threads spawn. A zero-delay prepass failure surfaces as its
/// structural class, a shard whose entire fallback chain dies returns
/// that shard's [`SimError`], a tripped cancel token returns
/// [`SimErrorKind::Cancelled`] with the vectors that shard had done,
/// and whatever `sink` returns stops the run as it is.
pub fn run_stream<V, H, E>(
    netlist: &Netlist,
    prototype: GuardedSimulator,
    stimulus: impl IntoIterator<Item = V>,
    len: usize,
    control: RunControl<'_>,
    mut step: impl FnMut() -> H,
    mut sink: impl FnMut(usize, &[bool], &[bool]) -> Result<(), E>,
) -> Result<Vec<Shard<H>>, E>
where
    V: AsRef<[bool]> + Sync,
    H: Step,
    E: From<SimError>,
{
    let jobs = control.jobs.clamp(1, MAX_JOBS);
    // Every window but the last holds WINDOW vectors, so shard k's total
    // is its share of a full window times the full windows, plus its
    // share of the tail.
    let full = shard_bounds(WINDOW, jobs);
    let tail = shard_bounds(len % WINDOW, jobs);
    let share = |bounds: &[(usize, usize)], k: usize| bounds.get(k).map_or(0, |&(_, n)| n);
    let shards = shard_bounds(len.min(WINDOW), jobs).len();
    let totals: Vec<usize> = (0..shards.max(1))
        .map(|k| len / WINDOW * share(&full, k) + share(&tail, k))
        .collect();
    if let Some(telemetry) = control.telemetry {
        telemetry.set_gauge("batch.shards", shards as u64);
        telemetry.set_gauge(
            "batch.vectors_per_shard",
            totals.iter().copied().max().unwrap_or(0) as u64,
        );
    }
    let ctx = Context {
        outputs: netlist.primary_outputs(),
        control,
        interval: control
            .progress
            .map_or(Duration::ZERO, |progress| progress.heartbeat_interval()),
    };
    let mut stimulus = stimulus.into_iter().take(len);
    let workers = if shards <= 1 {
        let mut worker = Worker::new(0, prototype, step(), totals[0]);
        if len == 0 {
            // Even an empty run announces completion: consumers keyed on
            // `finished` must never wait on a run that says nothing.
            worker.beat(&ctx);
        } else {
            let mut index = 0;
            worker.run(stimulus, None, &ctx, &mut |inputs, row| {
                index += 1;
                sink(index - 1, inputs, row)
            })?;
        }
        vec![worker]
    } else {
        let mut workers: Vec<Worker<H>> = totals
            .iter()
            .enumerate()
            .map(|(k, &total)| Worker::new(k, prototype.fork(), step(), total))
            .collect();
        run_windows(netlist, &mut workers, &mut stimulus, jobs, &ctx, &mut sink)?;
        workers
    };
    Ok(workers
        .into_iter()
        .map(|worker| worker.finish(control.telemetry))
        .collect())
}

/// The multi-shard loop: one superstep per window of [`WINDOW`] vectors.
fn run_windows<V, H, E>(
    netlist: &Netlist,
    workers: &mut [Worker<H>],
    stimulus: &mut impl Iterator<Item = V>,
    jobs: usize,
    ctx: &Context<'_>,
    sink: &mut impl FnMut(usize, &[bool], &[bool]) -> Result<(), E>,
) -> Result<(), E>
where
    V: AsRef<[bool]> + Sync,
    H: Step,
    E: From<SimError>,
{
    let expected = netlist.primary_inputs().len();
    let width = ctx.outputs.len();
    let mut zero_delay = ZeroDelayCompiled::compile(netlist).map_err(SimError::from)?;
    let mut prepass: Option<(Instant, u64)> = None;
    let mut window: Vec<V> = Vec::with_capacity(WINDOW);
    let mut rows: Vec<Vec<bool>> = vec![Vec::new(); workers.len()];
    // The last vector of the previous window: shard 0's boundary.
    let mut before: Option<Vec<bool>> = None;
    let mut first = 0;
    loop {
        window.clear();
        window.extend(stimulus.by_ref().take(WINDOW));
        if window.is_empty() {
            break;
        }
        if let Some(got) = window
            .iter()
            .map(|vector| vector.as_ref().len())
            .find(|&got| got != expected)
        {
            let kind = SimErrorKind::VectorWidth { expected, got };
            return Err(SimError::new(kind, SimPhase::Run).into());
        }
        let bounds = shard_bounds(window.len(), jobs);

        // Zero-delay prepass: the settled state before each shard's
        // first vector. Only the stream's very first shard starts from
        // the prototype's own state.
        let clock = Instant::now();
        let seeds: Vec<Option<Vec<bool>>> = bounds
            .iter()
            .map(|&(start, _)| {
                let boundary = match start {
                    0 => before.as_deref(),
                    _ => Some(window[start - 1].as_ref()),
                };
                boundary.map(|vector| {
                    zero_delay.simulate_vector(vector);
                    zero_delay.values()
                })
            })
            .collect();
        let (_, prepass_ns) = prepass.get_or_insert((clock, 0));
        *prepass_ns += nanos(clock.elapsed());

        let results: Vec<Result<(), SimError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .iter_mut()
                .zip(&mut rows)
                .zip(bounds.iter().zip(&seeds))
                .map(|((worker, rows), (&(start, len), seed))| {
                    let slice = &window[start..start + len];
                    scope.spawn(move || {
                        rows.clear();
                        worker.run(slice.iter(), seed.as_deref(), ctx, &mut |_, row| {
                            rows.extend_from_slice(row);
                            Ok::<_, SimError>(())
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().unwrap_or_else(|p| panic::resume_unwind(p)))
                .collect()
        });
        for result in results {
            result?;
        }
        for (&(start, len), rows) in bounds.iter().zip(&rows) {
            for offset in 0..len {
                let at = start + offset;
                let row = &rows[offset * width..(offset + 1) * width];
                sink(first + at, window[at].as_ref(), row)?;
            }
        }
        before = window.last().map(|vector| vector.as_ref().to_vec());
        first += window.len();
    }
    if let (Some(telemetry), Some((at, wall_ns))) = (ctx.control.telemetry, prepass) {
        telemetry.attach_timed("batch.prepass", at, wall_ns, 0);
    }
    Ok(())
}

/// Runs `vectors` through `prototype` (forked, so it stays as it was)
/// sharded across `jobs` worker threads, and returns per-vector
/// primary-output rows exactly as a sequential run would produce them.
/// Pass the session's [`Telemetry`] to collect per-shard spans and
/// gauges.
///
/// # Errors
///
/// As [`run_stream`].
pub fn run_batch(
    netlist: &Netlist,
    prototype: &GuardedSimulator,
    vectors: &[Vec<bool>],
    jobs: usize,
    telemetry: Option<&Telemetry>,
) -> Result<BatchOutput, SimError> {
    let mut rows = Vec::with_capacity(vectors.len());
    let control = RunControl {
        jobs,
        telemetry,
        ..RunControl::default()
    };
    let shards = run_stream(
        netlist,
        prototype.fork(),
        vectors,
        vectors.len(),
        control,
        || (),
        |_, _, row| {
            rows.push(row.to_vec());
            Ok::<_, SimError>(())
        },
    )?;
    let shards = shards
        .into_iter()
        .map(|shard| shard.report)
        .filter(|report| report.vectors > 0)
        .collect();
    Ok(BatchOutput { rows, shards })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardedSimulator;
    use std::sync::Mutex;
    use uds_netlist::generators::iscas::c17;
    use uds_netlist::ResourceLimits;

    fn stimulus(vectors: usize) -> Vec<Vec<bool>> {
        // A fixed LCG keeps the stream deterministic without rand.
        let mut state = 0x5EED_1990_u64;
        (0..vectors)
            .map(|_| {
                (0..5)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        state >> 63 != 0
                    })
                    .collect()
            })
            .collect()
    }

    fn sequential_rows(vectors: &[Vec<bool>]) -> Vec<Vec<bool>> {
        let nl = c17();
        let mut guard = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        vectors
            .iter()
            .map(|v| {
                guard.simulate_vector(v).unwrap();
                nl.primary_outputs()
                    .iter()
                    .map(|&po| guard.final_value(po))
                    .collect()
            })
            .collect()
    }

    fn guard() -> GuardedSimulator {
        GuardedSimulator::new(&c17(), ResourceLimits::production()).unwrap()
    }

    /// Runs `vectors` with `control`, collecting the rows.
    fn run(vectors: &[Vec<bool>], control: RunControl<'_>) -> Result<Vec<Vec<bool>>, SimError> {
        let mut rows = Vec::new();
        let sink = |_: usize, _: &[bool], row: &[bool]| {
            rows.push(row.to_vec());
            Ok::<_, SimError>(())
        };
        run_stream(
            &c17(),
            guard(),
            vectors,
            vectors.len(),
            control,
            || (),
            sink,
        )?;
        Ok(rows)
    }

    #[derive(Default)]
    struct Recorder(Mutex<Vec<Heartbeat>>);

    impl BatchProbe for Recorder {
        fn heartbeat(&self, beat: &Heartbeat) {
            self.0.lock().unwrap().push(*beat);
        }
    }

    #[test]
    fn shard_bounds_partition_the_stream() {
        for total in [0usize, 1, 2, 7, 100] {
            for jobs in [1usize, 2, 3, 8, 200] {
                let bounds = shard_bounds(total, jobs);
                let mut next = 0;
                for &(start, len) in &bounds {
                    assert_eq!(start, next, "contiguous");
                    assert!(len > 0, "no empty shards");
                    next += len;
                }
                assert_eq!(next, total, "total={total} jobs={jobs}");
                if total > 0 {
                    let max = bounds.iter().map(|&(_, l)| l).max().unwrap();
                    let min = bounds.iter().map(|&(_, l)| l).min().unwrap();
                    assert!(max - min <= 1, "near-equal: total={total} jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn batch_rows_match_sequential_for_any_shard_count() {
        let nl = c17();
        let vectors = stimulus(23);
        let expected = sequential_rows(&vectors);
        for jobs in [1usize, 2, 5, 23, 64] {
            let out = run_batch(&nl, &guard(), &vectors, jobs, None).unwrap();
            assert_eq!(out.rows, expected, "jobs={jobs}");
            assert_eq!(
                out.shards.iter().map(|s| s.vectors).sum::<usize>(),
                vectors.len()
            );
        }
    }

    #[test]
    fn empty_stream_is_a_noop() {
        let out = run_batch(&c17(), &guard(), &[], 4, None).unwrap();
        assert!(out.rows.is_empty());
        assert!(out.shards.is_empty());
    }

    #[test]
    fn empty_stream_still_announces_completion() {
        let recorder = Recorder::default();
        let control = RunControl {
            jobs: 4,
            progress: Some(&recorder),
            ..RunControl::default()
        };
        run(&[], control).unwrap();
        let beats = recorder.0.lock().unwrap();
        assert_eq!(beats.len(), 1, "exactly one completion record");
        assert!(beats[0].finished);
        assert_eq!((beats[0].done, beats[0].total), (0, 0));
    }

    #[test]
    fn wrong_width_vector_is_a_usage_error_before_any_thread_spawns() {
        for vectors in [vec![vec![true; 3]], vec![vec![true; 5], vec![true; 3]]] {
            let err = run_batch(&c17(), &guard(), &vectors, 2, None).unwrap_err();
            assert_eq!(err.class(), crate::FailureClass::Usage);
        }
    }

    #[test]
    fn observed_batch_fires_heartbeats_and_vector_hooks() {
        /// Counts the vectors its shard stepped.
        struct Counted(usize);
        impl Step for Counted {
            fn step(
                &mut self,
                guard: &mut GuardedSimulator,
                inputs: &[bool],
            ) -> Result<(), SimError> {
                self.0 += 1;
                ().step(guard, inputs)
            }
        }

        let vectors = stimulus(10);
        let recorder = Recorder::default();
        let control = RunControl {
            jobs: 3,
            progress: Some(&recorder),
            ..RunControl::default()
        };
        let shards = run_stream(
            &c17(),
            guard(),
            &vectors,
            10,
            control,
            || Counted(0),
            discard,
        );
        let stepped: Vec<usize> = shards.unwrap().iter().map(|s| s.step.0).collect();
        assert_eq!(stepped, [4, 3, 3], "one step per vector, in its own shard");
        let beats = recorder.0.lock().unwrap();
        for shard in 0..3 {
            assert!(
                beats
                    .iter()
                    .any(|b| b.shard == shard && b.finished && b.done == b.total),
                "shard {shard} must emit a final heartbeat"
            );
        }
    }

    #[test]
    fn tripped_token_stops_the_batch_as_budget_class() {
        use crate::cancel::CancelCause;

        let vectors = stimulus(40);
        let cancel = CancelToken::new();
        cancel.cancel();
        for jobs in [1, 2] {
            let control = RunControl {
                jobs,
                cancel: Some(&cancel),
                ..RunControl::default()
            };
            let err = run(&vectors, control).expect_err("cancelled");
            assert_eq!(err.class(), crate::FailureClass::Budget);
            match err.kind {
                SimErrorKind::Cancelled {
                    cause,
                    vectors_done,
                } => {
                    assert_eq!(cause, CancelCause::Cancelled);
                    assert_eq!(vectors_done, 0, "tripped before the first vector");
                }
                other => panic!("expected Cancelled, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_token_tripped_mid_run_stops_within_one_block_of_the_engine() {
        // Event-driven takes the default loop, so it stops after the
        // very vector that tripped the token; the PC-set engine finishes
        // the 64-lane block that vector rode in.
        for (engine, stopped_after) in [(Engine::EventDriven, 6), (Engine::PcSet, 64)] {
            let nl = c17();
            let guard = GuardedSimulator::with_factory(
                &nl,
                ResourceLimits::production(),
                &[engine],
                Box::new(crate::DefaultEngineFactory::default()),
            )
            .unwrap();
            let vectors = stimulus(200);
            let cancel = CancelToken::new();
            let control = RunControl {
                cancel: Some(&cancel),
                ..RunControl::default()
            };
            let sink = |index: usize, _: &[bool], _: &[bool]| {
                if index == 5 {
                    cancel.cancel();
                }
                Ok::<_, SimError>(())
            };
            let err = run_stream(&nl, guard, &vectors, 200, control, || (), sink)
                .err()
                .expect("cancelled");
            match err.kind {
                SimErrorKind::Cancelled { vectors_done, .. } => {
                    assert_eq!(vectors_done, stopped_after, "{engine:?}");
                }
                other => panic!("expected Cancelled, got {other:?}"),
            }
        }
    }

    #[test]
    fn live_token_leaves_the_batch_bit_exact() {
        let vectors = stimulus(23);
        let cancel = CancelToken::new();
        let control = RunControl {
            jobs: 3,
            cancel: Some(&cancel),
            ..RunControl::default()
        };
        assert_eq!(run(&vectors, control).unwrap(), sequential_rows(&vectors));
    }

    #[test]
    fn shard_spans_carry_distinct_thread_ids() {
        let nl = c17();
        let vectors = stimulus(10);
        let telemetry = Telemetry::new();
        run_batch(&nl, &guard(), &vectors, 2, Some(&telemetry)).unwrap();
        let report = telemetry.snapshot();
        let mut tids: Vec<u64> = (0..2)
            .map(|shard| {
                report
                    .find_span(&format!("batch.shard.{shard}"))
                    .expect("shard span")
                    .tid
            })
            .collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids, vec![1, 2], "each shard on its own timeline lane");
    }

    #[test]
    fn telemetry_gains_shard_spans_and_gauges() {
        let nl = c17();
        let vectors = stimulus(10);
        let telemetry = Telemetry::new();
        run_batch(&nl, &guard(), &vectors, 3, Some(&telemetry)).unwrap();
        assert_eq!(telemetry.gauge_value("batch.shards"), Some(3));
        assert_eq!(telemetry.gauge_value("batch.vectors_per_shard"), Some(4));
        let report = telemetry.snapshot();
        for shard in 0..3 {
            assert!(
                report.find_span(&format!("batch.shard.{shard}")).is_some(),
                "missing span for shard {shard}"
            );
        }
        assert!(report.find_span("batch.prepass").is_some());
    }
}
