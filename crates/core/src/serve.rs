//! The resident simulation daemon behind `udsim serve`.
//!
//! Every other entry point in the workspace is a one-shot run: parse,
//! compile, simulate, exit — the compiled artifact dies with the
//! process. [`SimServer`] keeps it alive: a long-running HTTP service
//! (on the hand-rolled [`crate::http`] core) that compiles once per
//! distinct circuit, caches the compiled prototype in an
//! [`EngineCache`], and serves every later request with a fork — the
//! compiled-reuse payoff the paper's straight-line code exists for.
//!
//! # Execution model
//!
//! One acceptor thread plus a fixed pool of [`ServeConfig::workers`]
//! worker threads, joined by a bounded work queue. A running request
//! adds threads of its own: `jobs` > 1 steps its shards on that many
//! scoped threads (at most [`MAX_JOBS`]), and a cold native build runs
//! up to one `cc` helper per core. Whatever the load, that is at most
//! `1 + workers × (1 + MAX_JOBS)` threads plus the builds' `cc` helpers.
//! The acceptor only accepts and enqueues, and between connections it
//! blocks in `poll(2)` on the listener and a waker (see
//! `crate::wake`): an idle daemon makes no wake-ups, and every drain
//! trigger — a [`ShutdownHandle`], `/quitquitquit`, the last busy
//! worker finishing during a drain, SIGTERM/SIGINT — wakes it at once.
//! Workers own a connection
//! for its whole keep-alive life and run a small state machine per
//! request: read (bounded by read/idle timeouts, so slowloris senders
//! are reaped, not leaked) → execute → write → loop while the client
//! keeps the connection alive, up to [`ServeConfig::keep_alive_max`]
//! requests.
//!
//! Admission control is explicit: a full queue sheds new connections
//! immediately with `429` + `Retry-After` (written by the acceptor —
//! shedding must not queue), per-peer token buckets rate-limit
//! work-bearing requests ([`ServeConfig::rate_limit_per_s`]), and a
//! per-request deadline ([`ServeConfig::request_timeout`]) is enforced
//! *inside* the simulation loop via a cooperative [`CancelToken`],
//! mapping to `504` with the partial-work count recorded. During a
//! drain every response announces `Connection: close`, work-bearing
//! requests answer `503` + `Retry-After`, and the acceptor keeps
//! serving read-only endpoints inline so the drain stays observable.
//!
//! # Endpoints
//!
//! | Route                   | Answer |
//! |-------------------------|--------|
//! | `POST /simulate`        | run a netlist + vector batch, JSON reply (`uds-serve-v1`) |
//! | `POST /jobs`            | submit the same body asynchronously → `202` + job id (`uds-job-v1`) |
//! | `GET /jobs/:id`         | job state + latest per-shard `uds-progress-v1` heartbeats |
//! | `GET /jobs/:id/result`  | page finished rows (`?offset=N&limit=M`) |
//! | `DELETE /jobs/:id`      | cancel via the job's cancellation token |
//! | `GET /metrics`          | live telemetry in Prometheus text exposition |
//! | `GET /healthz`          | liveness: `200 ok` while the process can answer at all |
//! | `GET /readyz`           | readiness: `200 ready` while accepting work, `503 draining` during shutdown |
//! | `POST /quitquitquit`    | graceful shutdown (only with [`ServeConfig::allow_quit`]) |
//!
//! Jobs execute on the same worker pool through the same bounded
//! queue, so admission control applies uniformly; the job table is
//! bounded by [`ServeConfig::max_jobs`] with TTL eviction of finished
//! entries, keeping memory flat under sustained submission.
//!
//! Every request emits one `uds-reqlog-v1` NDJSON line to the optional
//! request-log sink, carrying the connection id, the request's ordinal
//! on its connection, queue wait, and a shed/timeout disposition so
//! 429/504 events are attributable from logs alone. Shutdown —
//! SIGTERM/SIGINT (via [`install_signal_handlers`]) or
//! `/quitquitquit` — stops admitting, finishes queued work, and
//! returns from [`SimServer::run`] so the caller can flush a final
//! telemetry snapshot.
//!
//! # The hit path
//!
//! A cache hit should cost what its vectors cost. The cache keeps, with
//! each compiled prototype, the raw `(name, bench)` text it was parsed
//! from ([`crate::cache::Spelling`]); a request whose text matches one
//! byte for byte reuses that entry's netlist and canonical hash and
//! skips the parse, the canonical rewrite and the hash. Other text is
//! parsed and keyed canonically, so re-spelled circuits still hit. The
//! fork a hit runs on shares the prototype's netlist and compiled
//! program and copies only per-run state.
//!
//! Telemetry: the daemon keeps no per-request spans in the shared
//! registry (handler threads would interleave one span stack, and a
//! span per miss would grow without bound). Each compile folds its wall
//! time into the bounded `serve.compile_wall_ns` distribution, so its
//! count is the number of compiles: a cache hit adds no sample — the
//! observable proof that recompilation was skipped. Queue depth
//! (`serve.queue_depth`), queue wait (`serve.queue_wait_ms`), end-to-
//! end latency (`serve.request_ms`), and shed counts (`serve.shed.*`)
//! export through the same registry as SLO-ready histograms. A
//! request's latency, like the reqlog line's `wall_ns`, counts from
//! when its connection was queued for a first request that waited, and
//! from the start of its read otherwise: the instant its trace starts.
//!
//! # Request tracing
//!
//! Every request carries a trace id: the sanitized inbound
//! `x-uds-trace-id` header when the client sent one, else a generated
//! id. The id is echoed on the response, stamped on the `uds-reqlog-v1`
//! line, and inherited by async jobs submitted under it. Handlers
//! collect per-phase timings (queue wait, parse, cache lookup, compile
//! with its compiler sub-phases, simulate, serialize) into a private
//! `RequestTrace` — never the shared span stack — and a sink installed with
//! [`SimServer::set_trace`] streams each finished request's span tree
//! as Chrome `trace_event` JSON (`udsim serve --trace OUT`), one
//! timeline lane per connection and per job. The same completions feed
//! the rolling throughput window ([`Telemetry::record_throughput`]), so
//! `/metrics` reports live `uds_engine_vectors_per_s` gauges instead of
//! only the startup warmup number.

// SimError is large but cold; see guard.rs.
#![allow(clippy::result_large_err)]

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use uds_netlist::{bench_format, Netlist, Probe, ResourceLimits};

use crate::cache::{netlist_hash, CacheKey, EngineCache, Spelling};
use crate::cancel::{CancelCause, CancelToken};
use crate::error::{FailureClass, SimError, SimErrorKind};
use crate::guard::{chain_for, DefaultEngineFactory, GuardedSimulator};
use crate::hotspot::{HotspotRing, HotspotSample, LeveledStep, HOTSPOT_SCHEMA};
use crate::http::{read_request, HttpError, Request, Response, TRACE_ID_HEADER};
use crate::progress::{BatchProbe, Heartbeat};
use crate::telemetry::json::Json;
use crate::telemetry::{prom, trace, SpanNode, SpanStack, Telemetry};
use crate::wake::Waker;
use crate::{run_stream, Engine, RunControl, WordWidth, MAX_JOBS};

pub use crate::wake::{install_signal_handlers, signal_shutdown_requested};

/// Schema tag on every request-log line.
pub const REQLOG_SCHEMA: &str = "uds-reqlog-v1";

/// Schema tag on every `POST /simulate` response.
pub const SERVE_SCHEMA: &str = "uds-serve-v1";

/// Schema tag on every job-API response.
pub const JOB_SCHEMA: &str = "uds-job-v1";

/// Upper bucket bounds (milliseconds) of the serve-side latency
/// histograms (`serve.request_ms`, `serve.queue_wait_ms`).
pub const LATENCY_BOUNDS_MS: &[u64] = &[
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 30_000,
];

/// How long the acceptor backs off after a failed `accept` (say, out
/// of descriptors), so a listener that stays readable cannot spin it.
/// Drain triggers still end the back-off at once.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(2);

/// Tuning knobs for a [`SimServer`].
#[derive(Debug)]
pub struct ServeConfig {
    /// Compiled prototypes kept resident (LRU beyond this).
    pub cache_capacity: usize,
    /// Whether `POST /quitquitquit` is honored (else 403).
    pub allow_quit: bool,
    /// Compile budget enforced per request — untrusted input.
    pub limits: ResourceLimits,
    /// Word width when a request names none.
    pub default_word: WordWidth,
    /// Worker threads per request when a request names none.
    pub default_jobs: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: u64,
    /// Largest accepted vector batch per request.
    pub max_vectors: usize,
    /// Worker threads serving connections and jobs (0 = one per
    /// available core); the module docs give the thread bound.
    pub workers: usize,
    /// Bounded backpressure queue: connections and jobs waiting for a
    /// worker. A full queue sheds with 429 + `Retry-After`.
    pub queue_depth: usize,
    /// Socket read/write timeout while a request is in flight
    /// (zero = none). A mid-request stall answers 408 and closes.
    pub read_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before it is reaped (zero = forever).
    pub idle_timeout: Duration,
    /// Requests served per connection before the server closes it
    /// (bounds how long one client can own a worker).
    pub keep_alive_max: u64,
    /// Per-request wall-clock deadline, enforced cooperatively inside
    /// the simulation loop; a blown deadline answers 504 with the
    /// partial-work count recorded. `None` disables.
    pub request_timeout: Option<Duration>,
    /// Token-bucket rate limit per peer IP on work-bearing requests
    /// (`/simulate`, `/jobs` submission), in requests per second with
    /// a burst of twice the rate. 0 disables.
    pub rate_limit_per_s: u32,
    /// Most jobs resident in the job table (queued, running, or
    /// finished-but-unexpired). Submissions beyond it answer 429.
    pub max_jobs: usize,
    /// How long a finished job's result is kept before TTL eviction.
    pub job_ttl: Duration,
    /// Per-level hotspot sampling of `/simulate` requests (`--hotspots`).
    /// Off by default: the profiled path times every level sweep, and a
    /// daemon that was not asked to self-profile must run the seed-
    /// identical hot loop.
    pub hotspots: bool,
}

/// Samples the serve hotspot ring retains; memory stays bounded by
/// `capacity × (depth + 1)` level slots regardless of traffic.
pub const HOTSPOT_RING_CAPACITY: usize = 256;

/// Trailing window `/debug/hotspots` aggregates when the query names
/// no `window_s`.
pub const HOTSPOT_WINDOW_DEFAULT_S: u64 = 60;

/// Labeled gauges `/metrics` exposes for the hottest levels.
pub const HOTSPOT_METRIC_TOP_K: usize = 5;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_capacity: 64,
            allow_quit: false,
            limits: ResourceLimits::production(),
            default_word: WordWidth::default(),
            default_jobs: 1,
            max_body_bytes: 16 << 20,
            max_vectors: 1 << 20,
            workers: 0,
            queue_depth: 64,
            read_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(5),
            keep_alive_max: 100,
            request_timeout: None,
            rate_limit_per_s: 0,
            max_jobs: 64,
            job_ttl: Duration::from_secs(600),
            hotspots: false,
        }
    }
}

impl ServeConfig {
    /// The worker-pool size after resolving the 0 = per-core default.
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        }
    }
}

/// `Some(timeout)` for the socket API, which treats `None` as "block
/// forever" and rejects a zero duration.
fn socket_timeout(timeout: Duration) -> Option<Duration> {
    (!timeout.is_zero()).then_some(timeout)
}

/// The HTTP status a [`SimError`] answers with: bad requests are the
/// client's fault (4xx), contained engine failures are ours (5xx).
fn status_for(class: FailureClass) -> u16 {
    match class {
        FailureClass::Usage | FailureClass::Parse => 400,
        FailureClass::Structural | FailureClass::Budget => 422,
        _ => 500,
    }
}

/// One parsed `POST /simulate` (or `POST /jobs`) body.
struct SimRequest {
    netlist: Arc<Netlist>,
    /// [`netlist_hash`] of `netlist`, computed once per request (or
    /// taken from the cache entry the body's text matched).
    netlist_hash: u64,
    /// The body's raw `(name, bench)` text, kept with the entry a
    /// miss compiles.
    spelling: Spelling,
    stimulus: Vec<Vec<bool>>,
    engine: Option<Engine>,
    word: WordWidth,
    jobs: usize,
}

/// What a finished simulation hands back, before rendering.
struct SimOutcome {
    rows: Vec<Vec<bool>>,
    fallbacks: usize,
    engine: Engine,
    cache: &'static str,
    hash: u64,
    wall_ns: u64,
}

/// Which stage of [`SimServer::run_simulation`] failed.
enum FailedAt {
    Compile,
    Run,
}

/// Fields a handler contributes to its request-log line.
#[derive(Default)]
struct LogFacts {
    circuit: Option<String>,
    netlist_hash: Option<u64>,
    engine: Option<String>,
    cache: Option<&'static str>,
    vectors: Option<usize>,
    fallbacks: Option<usize>,
    error: Option<String>,
    /// Why the request did not get normal service: `shed:queue_full`,
    /// `shed:rate_limited`, `shed:draining`, `shed:jobs_full`, or
    /// `timeout`.
    disposition: Option<&'static str>,
    job: Option<u64>,
    /// Vectors finished before a deadline cut the run short.
    vectors_done: Option<usize>,
}

/// Per-request context the connection loop owns: identity of the
/// connection, the request's ordinal on it, and how long the
/// connection waited in the admission queue (first request only —
/// later keep-alive requests never re-queue).
#[derive(Clone, Copy)]
struct RequestContext {
    conn: u64,
    requests_on_connection: u64,
    queue_wait_ms: u64,
}

/// Timeline lane offset for async jobs in the exported trace, so job
/// executions never collide with connection ids.
const JOB_TRACE_TID: u64 = 1 << 32;

/// Nanoseconds from `epoch` to `at`, saturating (same convention as
/// the telemetry span clock).
fn ns_since(epoch: Instant, at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// The per-request span recorder. Handler threads must never open
/// spans on the shared telemetry stack (they would interleave), so
/// each request records its phases on its own [`SpanStack`] and the
/// connection loop folds them into one `serve.request` (or
/// `serve.job`) root exported to the trace sink and summarized as
/// `phase_ms` on the reqlog line. During a miss's compile the trace is
/// the build [`Probe`]: compile sub-spans nest under `serve.compile`,
/// counters (`native.cache.*` among them) go to the shared registry,
/// and gauges and distributions are dropped — per-netlist static
/// metrics from concurrent requests for different circuits would
/// fight over one global value.
struct RequestTrace {
    /// The request's trace id (inbound header or generated).
    id: String,
    /// Timeline lane: the connection id, or `JOB_TRACE_TID + job id`.
    tid: u64,
    /// Where the root span starts: when the work was enqueued if it
    /// waited in the queue, so every phase nests inside the root.
    started: Instant,
    /// The shared registry, which takes the compile's counters.
    telemetry: Telemetry,
    /// The request's phases, on the telemetry epoch's timeline.
    spans: RefCell<SpanStack>,
}

impl RequestTrace {
    fn new(id: String, telemetry: &Telemetry, tid: u64, started: Instant) -> RequestTrace {
        RequestTrace {
            id,
            tid,
            started,
            telemetry: telemetry.clone(),
            spans: RefCell::new(SpanStack::new(telemetry.epoch())),
        }
    }

    /// Times `f` as one phase span.
    fn phase<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        self.span_start(name);
        let value = f();
        self.span_end(name);
        value
    }

    /// Records a phase that began at `at` and lasted `wall_ns` (queue
    /// wait, measured before the trace existed).
    fn lead_phase(&self, name: &str, at: Instant, wall_ns: u64) {
        self.spans.borrow_mut().attach_timed(name, at, wall_ns, 0);
    }

    /// `{"parse": 0.12, "simulate": 3.4, ...}` — phase wall times in
    /// float milliseconds, keyed by the phase name sans `serve.`.
    /// Only phases that actually ran appear: a cache hit carries no
    /// `compile` key, a parse failure stops at `parse`. Consumers must
    /// treat the key set as the executed-phase set, never as a fixed
    /// schema with zeros for skipped work. `None` when no phase ran.
    fn phase_ms(&self) -> Option<Json> {
        let spans = self.spans.borrow();
        let phases = spans.finished();
        (!phases.is_empty()).then(|| {
            Json::Obj(
                phases
                    .iter()
                    .map(|phase| {
                        let short = phase.name.strip_prefix("serve.").unwrap_or(&phase.name);
                        (short.to_owned(), Json::Float(phase.wall_ns as f64 / 1e6))
                    })
                    .collect(),
            )
        })
    }

    /// Folds the finished phases into one root span on this trace's
    /// timeline lane, from [`RequestTrace::started`] to now.
    fn into_root(self, name: &str) -> SpanNode {
        let spans = self.spans.into_inner();
        let wall_ns = ns_since(self.started, Instant::now());
        let mut root = SpanNode::timed(name, spans.epoch(), self.started, wall_ns, self.tid);
        root.children = spans.into_finished();
        root
    }
}

impl Probe for RequestTrace {
    fn span_start(&self, name: &str) {
        self.spans.borrow_mut().start(name);
    }

    fn span_end(&self, name: &str) {
        self.spans.borrow_mut().end(name);
    }

    fn count(&self, name: &str, delta: u64) {
        self.telemetry.add(name, delta);
    }

    fn gauge(&self, _name: &str, _value: u64) {}
}

/// Streams finished request/job span trees as one Chrome `trace_event`
/// document: preamble on first write, events comma-separated as they
/// complete, `]}` on [`TraceSink::close`]. A crash mid-stream leaves a
/// truncated-but-prefix-valid file, the same contract the one-shot
/// `--trace` export has.
struct TraceSink {
    out: Box<dyn Write + Send>,
    started: bool,
    wrote_event: bool,
}

impl TraceSink {
    fn new(out: Box<dyn Write + Send>) -> TraceSink {
        TraceSink {
            out,
            started: false,
            wrote_event: false,
        }
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let _ = write!(self.out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        self.write_event(&trace::metadata_event("process_name", 0, "udsim serve"));
    }

    fn write_event(&mut self, event: &Json) {
        let separator = if self.wrote_event { "," } else { "" };
        let _ = write!(self.out, "{separator}\n{}", event.render());
        self.wrote_event = true;
    }

    /// Writes `root`'s subtree, first naming its timeline lane when
    /// `lane` is `Some` (the caller's first export on that lane), and
    /// stamps the trace id into the root event's `args`.
    fn write_span(&mut self, root: &SpanNode, trace_id: &str, lane: Option<&str>) {
        self.ensure_started();
        if let Some(lane) = lane {
            self.write_event(&trace::metadata_event("thread_name", root.tid, lane));
        }
        let mut events = Vec::new();
        trace::span_events(root, &mut events);
        if let Some(Json::Obj(members)) = events.first_mut() {
            members.push((
                "args".to_owned(),
                Json::obj([("trace_id", Json::Str(trace_id.to_owned()))]),
            ));
        }
        for event in &events {
            self.write_event(event);
        }
        let _ = self.out.flush();
    }

    fn close(&mut self) {
        self.ensure_started();
        let _ = write!(self.out, "\n]}}\n");
        let _ = self.out.flush();
    }
}

/// One unit of work for the pool: a connection to serve through its
/// keep-alive life, or an async job to execute. Jobs ride the same
/// bounded queue as connections, so admission control and the thread
/// bound apply uniformly.
enum WorkItem {
    Conn {
        stream: TcpStream,
        peer: IpAddr,
        conn: u64,
        enqueued: Instant,
    },
    Job(u64),
}

/// Bounded MPMC queue (mutex + condvar): the backpressure seam between
/// the acceptor and the worker pool. `busy` counts items popped but
/// not yet finished, so "no work anywhere" is one consistent check.
struct WorkQueue {
    capacity: usize,
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    items: VecDeque<WorkItem>,
    busy: usize,
    closed: bool,
}

impl WorkQueue {
    fn new(capacity: usize) -> Self {
        WorkQueue {
            capacity: capacity.max(1),
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues unless the queue is full or closed; a rejected item
    /// comes back to the caller, whose job is to shed it.
    fn try_push(&self, item: WorkItem) -> Result<(), WorkItem> {
        let mut state = self.lock();
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next item; `None` once the queue is closed and
    /// empty (the worker's exit signal). A popped item counts as busy
    /// until [`WorkQueue::done`].
    fn pop(&self) -> Option<WorkItem> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                state.busy += 1;
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Marks a popped item finished; `true` when nothing is queued or
    /// busy any more.
    fn done(&self) -> bool {
        let mut state = self.lock();
        state.busy = state.busy.saturating_sub(1);
        state.items.is_empty() && state.busy == 0
    }

    /// `(queued, busy)` under one lock — the drain-completion check.
    fn load(&self) -> (usize, usize) {
        let state = self.lock();
        (state.items.len(), state.busy)
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// Per-peer token buckets for work-bearing requests. Buckets refill at
/// the configured rate with a burst of twice the rate; the map is
/// cleared wholesale if it ever grows past a bound — brief
/// over-admission beats unbounded memory on a spoofed-source flood.
struct RateLimiter {
    buckets: Mutex<HashMap<IpAddr, TokenBucket>>,
}

struct TokenBucket {
    tokens: f64,
    refilled: Instant,
}

impl RateLimiter {
    const MAX_PEERS: usize = 4096;

    fn new() -> Self {
        RateLimiter {
            buckets: Mutex::new(HashMap::new()),
        }
    }

    fn allow(&self, peer: IpAddr, rate_per_s: u32) -> bool {
        if rate_per_s == 0 {
            return true;
        }
        let rate = f64::from(rate_per_s);
        let burst = rate * 2.0;
        let now = Instant::now();
        let mut buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        if buckets.len() >= Self::MAX_PEERS && !buckets.contains_key(&peer) {
            buckets.clear();
        }
        let bucket = buckets.entry(peer).or_insert(TokenBucket {
            tokens: burst,
            refilled: now,
        });
        let elapsed = now.saturating_duration_since(bucket.refilled).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * rate).min(burst);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Lifecycle of an async job. Terminal states keep their result or
/// error until TTL eviction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// One async job: the parsed request rides in until a worker takes it,
/// then the result (or error) rides out until eviction.
struct Job {
    state: JobState,
    cancel: CancelToken,
    request: Option<SimRequest>,
    /// Inherited from the submitting request, so one id follows the
    /// work from submission through async execution.
    trace_id: String,
    vectors_total: usize,
    progress: BTreeMap<usize, Heartbeat>,
    outcome: Option<SimOutcome>,
    error: Option<(u16, String)>,
    finished: Option<Instant>,
}

/// Bounded job table with TTL eviction of finished entries.
struct JobTable {
    state: Mutex<JobTableState>,
}

#[derive(Default)]
struct JobTableState {
    next_id: u64,
    jobs: BTreeMap<u64, Arc<Mutex<Job>>>,
}

impl JobTable {
    fn new() -> Self {
        JobTable {
            state: Mutex::new(JobTableState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JobTableState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a queued job, evicting expired finished jobs first.
    /// `None` when the table is at capacity with live entries.
    fn submit(
        &self,
        request: SimRequest,
        trace_id: String,
        max_jobs: usize,
        ttl: Duration,
    ) -> Option<u64> {
        let now = Instant::now();
        let mut state = self.lock();
        state.jobs.retain(|_, job| {
            let job = job.lock().unwrap_or_else(|e| e.into_inner());
            match job.finished {
                Some(at) => now.saturating_duration_since(at) < ttl,
                None => true,
            }
        });
        if state.jobs.len() >= max_jobs.max(1) {
            return None;
        }
        state.next_id += 1;
        let id = state.next_id;
        let vectors_total = request.stimulus.len();
        state.jobs.insert(
            id,
            Arc::new(Mutex::new(Job {
                state: JobState::Queued,
                cancel: CancelToken::new(),
                request: Some(request),
                trace_id,
                vectors_total,
                progress: BTreeMap::new(),
                outcome: None,
                error: None,
                finished: None,
            })),
        );
        Some(id)
    }

    fn get(&self, id: u64) -> Option<Arc<Mutex<Job>>> {
        self.lock().jobs.get(&id).cloned()
    }

    fn resident(&self) -> usize {
        self.lock().jobs.len()
    }
}

/// A [`BatchProbe`] that folds each shard's latest heartbeat into the
/// job table entry, so `GET /jobs/:id` reports live progress — the
/// same seam `--progress` uses, pointed at a map instead of a stream.
struct JobProbe<'a> {
    job: &'a Mutex<Job>,
}

impl BatchProbe for JobProbe<'_> {
    fn heartbeat(&self, beat: &Heartbeat) {
        let mut job = self.job.lock().unwrap_or_else(|e| e.into_inner());
        job.progress.insert(beat.shard, *beat);
    }
}

/// A long-running simulation service bound to one listener.
pub struct SimServer {
    listener: TcpListener,
    config: ServeConfig,
    telemetry: Telemetry,
    cache: EngineCache,
    shutdown: Arc<Shutdown>,
    reqlog: Option<Mutex<Box<dyn Write + Send>>>,
    trace: Option<Mutex<TraceSink>>,
    connections: AtomicU64,
    in_flight: AtomicU64,
    trace_seq: AtomicU64,
    queue: WorkQueue,
    jobs: JobTable,
    limiter: RateLimiter,
    /// `Some` only with [`ServeConfig::hotspots`]: the bounded ring of
    /// recent per-request level profiles `/debug/hotspots` windows.
    hotspots: Option<Mutex<HotspotRing>>,
}

/// A drain request and the waker that carries it to the acceptor.
struct Shutdown {
    requested: AtomicBool,
    waker: Waker,
}

impl Shutdown {
    fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        self.waker.wake();
    }
}

/// A clonable handle that asks a running server to drain and stop.
#[derive(Clone)]
pub struct ShutdownHandle(Arc<Shutdown>);

impl ShutdownHandle {
    /// Requests a graceful drain; [`SimServer::run`] returns once every
    /// queued and in-flight piece of work finished.
    pub fn request(&self) {
        self.0.request();
    }
}

impl SimServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// prepares the service. Counters, the cache, and build facts all
    /// report into `telemetry`; `reqlog`, when given, receives one
    /// NDJSON line per request.
    ///
    /// # Errors
    ///
    /// Bind failures pass through, as do failures to set up the
    /// acceptor's waker.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServeConfig,
        telemetry: Telemetry,
        reqlog: Option<Box<dyn Write + Send>>,
    ) -> std::io::Result<SimServer> {
        let listener = TcpListener::bind(addr)?;
        let waker = Waker::new(&listener)?;
        let cache = EngineCache::new(config.cache_capacity, telemetry.clone());
        telemetry.set_level("serve.in_flight", 0);
        telemetry.set_level("serve.queue_depth", 0);
        telemetry.set_level("serve.jobs.resident", 0);
        telemetry.add("serve.accept_wakeups", 0);
        let queue = WorkQueue::new(config.queue_depth);
        let hotspots = config
            .hotspots
            .then(|| Mutex::new(HotspotRing::new(HOTSPOT_RING_CAPACITY)));
        Ok(SimServer {
            listener,
            config,
            telemetry,
            cache,
            shutdown: Arc::new(Shutdown {
                requested: AtomicBool::new(false),
                waker,
            }),
            reqlog: reqlog.map(Mutex::new),
            trace: None,
            connections: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            trace_seq: AtomicU64::new(0),
            queue,
            jobs: JobTable::new(),
            limiter: RateLimiter::new(),
            hotspots,
        })
    }

    /// Installs a live trace sink: every finished request and job
    /// streams its span tree to `out` as Chrome `trace_event` JSON,
    /// closed into a loadable document when [`SimServer::run`]
    /// returns. Install before `run` — the sink is part of the
    /// server's wiring, not a runtime toggle.
    pub fn set_trace(&mut self, out: Box<dyn Write + Send>) {
        self.trace = Some(Mutex::new(TraceSink::new(out)));
    }

    /// A fresh trace id for a request that carried none: a short hash
    /// of a process-wide sequence number, the connection id, and the
    /// uptime clock — unique within this server's lifetime and cheap.
    fn next_trace_id(&self, conn: u64) -> String {
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        let uptime_ns = ns_since(self.telemetry.epoch(), Instant::now());
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for word in [seq, conn, uptime_ns] {
            hash ^= word;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{hash:016x}")
    }

    /// Streams one finished request/job tree to the trace sink, if any.
    /// `new_lane` says this is the first export on the trace's lane (a
    /// connection's first routed request, or a job), which names it.
    fn export_trace(&self, trace: RequestTrace, name: &str, new_lane: bool) {
        let Some(sink) = &self.trace else { return };
        let lane = new_lane.then(|| {
            if trace.tid >= JOB_TRACE_TID {
                format!("job {}", trace.tid - JOB_TRACE_TID)
            } else {
                format!("conn {}", trace.tid)
            }
        });
        let id = trace.id.clone();
        let root = trace.into_root(name);
        sink.lock()
            .unwrap_or_else(|e| e.into_inner())
            .write_span(&root, &id, lane.as_deref());
    }

    /// The bound address (the real port when bound to `:0`).
    ///
    /// # Errors
    ///
    /// Socket introspection failures pass through.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that triggers a graceful drain from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shutdown))
    }

    fn draining(&self) -> bool {
        self.shutdown.requested.load(Ordering::SeqCst) || signal_shutdown_requested()
    }

    fn note_queue_depth(&self) {
        let (depth, _) = self.queue.load();
        self.telemetry.set_level("serve.queue_depth", depth as u64);
        self.telemetry
            .observe_rolling("serve.queue_depth", depth as u64);
    }

    /// Serves until shutdown is requested (handle, `/quitquitquit`, or
    /// a signal), then finishes every queued connection and job before
    /// returning — `/readyz` answers `503 draining` for the whole
    /// tail. The caller owns the final telemetry snapshot.
    ///
    /// Between connections the acceptor blocks in `poll(2)` (see
    /// `crate::wake`); every drain trigger wakes it, and
    /// `serve.accept_wakeups` counts how often it woke.
    ///
    /// # Errors
    ///
    /// Only a failing `poll(2)`, after the drain it forces; per-
    /// connection errors are answered, logged, and counted instead.
    pub fn run(&self) -> std::io::Result<()> {
        let workers = self.config.resolved_workers();
        let mut failure = None;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| self.worker_loop());
            }
            loop {
                if self.draining() {
                    let (depth, busy) = self.queue.load();
                    if depth == 0 && busy == 0 {
                        break;
                    }
                }
                match self.listener.accept() {
                    Ok((stream, peer)) => {
                        // Accepted sockets always get timeouts before
                        // any read — an unconfigured socket blocks
                        // forever and a stalled client would pin
                        // whichever thread touches it. No Nagle delay:
                        // a response's body would otherwise wait for the
                        // peer's delayed ACK of its head on a keep-alive
                        // connection.
                        let _ = stream.set_read_timeout(socket_timeout(self.config.read_timeout));
                        let _ = stream.set_write_timeout(socket_timeout(self.config.read_timeout));
                        let _ = stream.set_nodelay(true);
                        let conn = self.connections.fetch_add(1, Ordering::Relaxed) + 1;
                        if self.draining() {
                            // Inline, short-fused service keeps the
                            // drain observable (readyz/metrics/job
                            // polls) without re-opening admission.
                            let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
                            self.serve_connection(stream, peer.ip(), conn, None);
                        } else {
                            self.admit(stream, peer.ip(), conn);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        let waited = self.shutdown.waker.wait(Some(&self.listener), None);
                        self.telemetry.add("serve.accept_wakeups", 1);
                        if let Err(error) = waited {
                            // The acceptor cannot wait any more: the
                            // workers drain what was admitted, and the
                            // failure is reported.
                            failure = Some(error);
                            self.shutdown.request();
                            break;
                        }
                    }
                    Err(_) => {
                        self.telemetry.add("serve.accept_errors", 1);
                        let _ = self.shutdown.waker.wait(None, Some(ACCEPT_ERROR_BACKOFF));
                    }
                }
            }
            self.queue.close();
            // Scope exit joins the workers: the drain barrier.
        });
        if let Some(sink) = &self.trace {
            sink.lock().unwrap_or_else(|e| e.into_inner()).close();
        }
        failure.map_or(Ok(()), Err)
    }

    /// Enqueues an accepted connection, or sheds it with an immediate
    /// 429 written from the acceptor — shedding must not itself queue,
    /// and writing ~100 bytes to a fresh socket cannot meaningfully
    /// block under the write timeout already set.
    fn admit(&self, stream: TcpStream, peer: IpAddr, conn: u64) {
        let item = WorkItem::Conn {
            stream,
            peer,
            conn,
            enqueued: Instant::now(),
        };
        match self.queue.try_push(item) {
            Ok(()) => self.note_queue_depth(),
            Err(WorkItem::Conn { stream, .. }) => {
                self.telemetry.add("serve.shed.queue_full", 1);
                let response =
                    Response::text(429, "server overloaded\n").with_header("Retry-After", "1");
                let _ = response.write_to(&mut (&stream), false);
                // Discard whatever request bytes already arrived: closing
                // a socket with unread data RSTs the peer and the kernel
                // may throw away the 429 we just queued. Non-blocking so
                // a slow peer cannot stall the acceptor.
                if stream.set_nonblocking(true).is_ok() {
                    let mut sink = [0u8; 4096];
                    while matches!((&stream).read(&mut sink), Ok(n) if n > 0) {}
                }
                let context = RequestContext {
                    conn,
                    requests_on_connection: 1,
                    queue_wait_ms: 0,
                };
                let facts = LogFacts {
                    disposition: Some("shed:queue_full"),
                    ..LogFacts::default()
                };
                self.finish_request(None, &response, Instant::now(), context, &facts, None);
            }
            Err(WorkItem::Job(_)) => unreachable!("pushed a Conn"),
        }
    }

    fn worker_loop(&self) {
        while let Some(item) = self.queue.pop() {
            self.note_queue_depth();
            match item {
                WorkItem::Conn {
                    stream,
                    peer,
                    conn,
                    enqueued,
                } => self.serve_connection(stream, peer, conn, Some(enqueued)),
                WorkItem::Job(id) => self.execute_job(id),
            }
            // The acceptor waits for the last item of a drain.
            if self.queue.done() && self.draining() {
                self.shutdown.waker.wake();
            }
        }
    }

    /// The per-connection state machine: read → execute → write,
    /// looping while keep-alive holds. `enqueued` is `Some` for
    /// pooled connections (queue wait is measured) and `None` for the
    /// acceptor's inline drain service.
    fn serve_connection(
        &self,
        stream: TcpStream,
        peer: IpAddr,
        conn: u64,
        enqueued: Option<Instant>,
    ) {
        let queue_wait_ns = enqueued.map_or(0, |at| {
            let wait_ns = u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.telemetry.record("serve.queue_wait_ns", wait_ns);
            self.telemetry.observe_histogram(
                "serve.queue_wait_ms",
                LATENCY_BOUNDS_MS,
                wait_ns / 1_000_000,
            );
            wait_ns
        });
        let queue_wait_ms = queue_wait_ns / 1_000_000;
        let level = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.telemetry.set_level("serve.in_flight", level);
        self.telemetry.observe_rolling("serve.in_flight", level);

        let mut reader = BufReader::new(&stream);
        let mut served = 0u64;
        loop {
            if served > 0 {
                // Between requests the clock is the idle budget, not
                // the mid-request read budget.
                let _ = stream.set_read_timeout(socket_timeout(self.config.idle_timeout));
            }
            // A request's wall time starts where its trace does: when
            // the connection was queued for its first request, so the
            // time covers the queue-wait phase that request leads with,
            // and when its read began for every other.
            let queued = enqueued.filter(|_| served == 0 && queue_wait_ns > 0);
            let started = queued.unwrap_or_else(Instant::now);
            let waited_ms = if served == 0 { queue_wait_ms } else { 0 };
            match read_request(&mut reader, self.config.max_body_bytes) {
                Ok(request) => {
                    let _ = stream.set_read_timeout(socket_timeout(self.config.read_timeout));
                    served += 1;
                    let context = RequestContext {
                        conn,
                        requests_on_connection: served,
                        queue_wait_ms: waited_ms,
                    };
                    let trace_id = request
                        .trace_id()
                        .unwrap_or_else(|| self.next_trace_id(conn));
                    let trace = RequestTrace::new(trace_id, &self.telemetry, conn, started);
                    if let Some(at) = queued {
                        trace.lead_phase("serve.queue_wait", at, queue_wait_ns);
                    }
                    let (response, facts) = self.route(&request, peer, &trace);
                    let response = response.with_header(TRACE_ID_HEADER, trace.id.clone());
                    let keep_alive = request.keep_alive
                        && served < self.config.keep_alive_max.max(1)
                        && enqueued.is_some()
                        && !self.draining();
                    let written = response.write_to(&mut (&stream), keep_alive);
                    self.finish_request(
                        Some(&request),
                        &response,
                        started,
                        context,
                        &facts,
                        Some(trace),
                    );
                    if written.is_err() || !keep_alive {
                        break;
                    }
                }
                Err(error) => {
                    if error.deserves_response() {
                        let response = Response::text(error.status(), format!("{error}\n"));
                        let _ = response.write_to(&mut (&stream), false);
                        let context = RequestContext {
                            conn,
                            requests_on_connection: served + 1,
                            queue_wait_ms: waited_ms,
                        };
                        let facts = LogFacts {
                            error: Some(error.to_string()),
                            disposition: matches!(error, HttpError::TimedOut { .. })
                                .then_some("timeout"),
                            ..LogFacts::default()
                        };
                        self.finish_request(None, &response, started, context, &facts, None);
                    }
                    break;
                }
            }
        }
        let level = self.in_flight.fetch_sub(1, Ordering::Relaxed) - 1;
        self.telemetry.set_level("serve.in_flight", level);
        self.telemetry.observe_rolling("serve.in_flight", level);
    }

    /// Counts, measures, logs, and (when traced) exports one answered
    /// request. `trace` is `None` only for requests that never reached
    /// routing (sheds, read errors).
    fn finish_request(
        &self,
        request: Option<&Request>,
        response: &Response,
        started: Instant,
        context: RequestContext,
        facts: &LogFacts,
        trace: Option<RequestTrace>,
    ) {
        self.telemetry.add("serve.requests", 1);
        if response.status >= 400 {
            self.telemetry.add("serve.http_errors", 1);
        }
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.telemetry.observe_histogram(
            "serve.request_ms",
            LATENCY_BOUNDS_MS,
            wall_ns / 1_000_000,
        );
        self.log_request(
            request,
            response.status,
            wall_ns,
            context,
            facts,
            trace.as_ref(),
        );
        if let Some(trace) = trace {
            self.export_trace(trace, "serve.request", context.requests_on_connection == 1);
        }
    }

    /// Work-bearing admission: drain first, then the per-peer bucket.
    /// `Some` is the shed response to answer with.
    fn admission_check(&self, peer: IpAddr, facts: &mut LogFacts) -> Option<Response> {
        if self.draining() {
            self.telemetry.add("serve.shed.draining", 1);
            facts.disposition = Some("shed:draining");
            return Some(Response::text(503, "draining\n").with_header("Retry-After", "1"));
        }
        if !self.limiter.allow(peer, self.config.rate_limit_per_s) {
            self.telemetry.add("serve.shed.rate_limited", 1);
            facts.disposition = Some("shed:rate_limited");
            return Some(
                Response::text(429, "rate limit exceeded\n").with_header("Retry-After", "1"),
            );
        }
        None
    }

    fn route(&self, request: &Request, peer: IpAddr, trace: &RequestTrace) -> (Response, LogFacts) {
        let no_facts = LogFacts::default();
        let (path, query) = request
            .path
            .split_once('?')
            .unwrap_or((request.path.as_str(), ""));
        match (request.method.as_str(), path) {
            ("GET", "/healthz") => (Response::text(200, "ok\n"), no_facts),
            ("GET", "/readyz") => {
                if self.draining() {
                    (Response::text(503, "draining\n"), no_facts)
                } else {
                    (Response::text(200, "ready\n"), no_facts)
                }
            }
            ("GET", "/metrics") => {
                let mut body = prom::render(&self.telemetry.snapshot());
                self.append_hotspot_gauges(&mut body);
                (
                    Response {
                        status: 200,
                        content_type: prom::CONTENT_TYPE,
                        extra_headers: Vec::new(),
                        body: body.into_bytes(),
                    },
                    no_facts,
                )
            }
            ("GET", "/debug/hotspots") => (self.hotspots_get(query), no_facts),
            ("POST", "/simulate") => {
                let mut facts = LogFacts::default();
                if let Some(shed) = self.admission_check(peer, &mut facts) {
                    return (shed, facts);
                }
                self.simulate(request, trace)
            }
            ("POST", "/jobs") => {
                let mut facts = LogFacts::default();
                if let Some(shed) = self.admission_check(peer, &mut facts) {
                    return (shed, facts);
                }
                self.submit_job(request, trace)
            }
            ("GET", jobs_path) if jobs_path.starts_with("/jobs/") => {
                self.job_get(&jobs_path["/jobs/".len()..], query)
            }
            ("DELETE", jobs_path) if jobs_path.starts_with("/jobs/") => {
                self.job_cancel(&jobs_path["/jobs/".len()..])
            }
            ("POST", "/quitquitquit") => {
                if self.config.allow_quit {
                    self.shutdown.request();
                    (Response::text(200, "draining, goodbye\n"), no_facts)
                } else {
                    (
                        Response::text(403, "shutdown endpoint disabled (run with --allow-quit)\n"),
                        no_facts,
                    )
                }
            }
            (
                _,
                "/healthz" | "/readyz" | "/metrics" | "/debug/hotspots" | "/simulate" | "/jobs"
                | "/quitquitquit",
            ) => (
                Response::text(405, format!("{} not allowed here\n", request.method)),
                no_facts,
            ),
            (_, jobs_path) if jobs_path.starts_with("/jobs/") => (
                Response::text(405, format!("{} not allowed here\n", request.method)),
                no_facts,
            ),
            (_, path) => (
                Response::text(404, format!("no route for {path}\n")),
                no_facts,
            ),
        }
    }

    /// The shared execution core of `/simulate` and job workers:
    /// cache lookup, (maybe) compile, run under `cancel`.
    fn run_simulation(
        &self,
        parsed: &SimRequest,
        cancel: &CancelToken,
        progress: Option<&dyn BatchProbe>,
        trace: &RequestTrace,
    ) -> Result<SimOutcome, (FailedAt, SimError)> {
        let hash = parsed.netlist_hash;
        let key = CacheKey {
            netlist_hash: hash,
            engine: parsed.engine,
            word: parsed.word,
        };
        let lookup = trace.phase("serve.cache_lookup", || self.cache.lookup(&key));
        let (guard, cache_state) = match lookup {
            Some(fork) => (fork, "hit"),
            None => {
                // A request naming no engine runs the whole chain.
                let chain = chain_for(parsed.engine, parsed.engine.is_none());
                let factory = Box::new(DefaultEngineFactory::with_word(parsed.word));
                let compile_clock = Instant::now();
                trace.span_start("serve.compile");
                // A failed compile ends the request with its span still
                // open, so neither the trace nor `phase_ms` shows it.
                let prototype = GuardedSimulator::with_probe(
                    Arc::clone(&parsed.netlist),
                    self.config.limits,
                    &chain,
                    factory,
                    trace,
                    None,
                )
                .map_err(|error| (FailedAt::Compile, error))?;
                trace.span_end("serve.compile");
                // One bounded sample per miss; a cache hit records none,
                // which is the no-recompile proof.
                self.telemetry.record(
                    "serve.compile_wall_ns",
                    ns_since(compile_clock, Instant::now()),
                );
                let fork = prototype.fork();
                self.cache
                    .insert_spelled(key, prototype, parsed.spelling.clone());
                (fork, "miss")
            }
        };

        let sim_clock = Instant::now();
        // With `--hotspots` every request rides the leveled step; a
        // daemon without it takes the unprofiled one.
        let sample_hotspots = self.hotspots.is_some();
        let control = RunControl {
            jobs: parsed.jobs,
            progress,
            cancel: Some(cancel),
            ..RunControl::default()
        };
        // Rows are read through the netlist the engine was compiled
        // from. A re-spelled hit parsed its own copy, whose net ids may
        // be numbered differently (say, OUTPUT lines after the gates).
        let netlist = Arc::clone(guard.netlist());
        let mut rows = Vec::with_capacity(parsed.stimulus.len());
        let result = trace.phase("serve.simulate", || {
            run_stream(
                &netlist,
                guard,
                &parsed.stimulus,
                parsed.stimulus.len(),
                control,
                || sample_hotspots.then(LeveledStep::default),
                |_, _, row| {
                    rows.push(row.to_vec());
                    Ok::<_, SimError>(())
                },
            )
        });
        let shards = result.map_err(|error| (FailedAt::Run, error))?;
        let fallbacks = shards.iter().map(|shard| shard.report.fallbacks).sum();
        let engine = shards[shards.len() - 1].report.engine;
        let wall_ns = u64::try_from(sim_clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.telemetry.record("serve.simulate_wall_ns", wall_ns);
        self.telemetry.add("serve.vectors", rows.len() as u64);
        self.telemetry.add("serve.fallbacks", fallbacks as u64);
        // Feed the rolling window so `/metrics` reports live
        // vectors/sec for this engine/word pair, not just the warmup.
        self.telemetry.record_throughput(
            &engine.to_string(),
            parsed.word.bits(),
            rows.len() as u64,
            wall_ns,
        );
        if let Some(ring) = &self.hotspots {
            let sample = LeveledStep::merged(shards.iter().filter_map(|shard| shard.step.as_ref()));
            ring.lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(HotspotSample {
                    at: Instant::now(),
                    engine,
                    profile: sample.profile,
                    span_ns: sample.span_ns,
                    vectors: rows.len() as u64,
                });
            self.telemetry.add("serve.hotspot_samples", 1);
        }
        Ok(SimOutcome {
            rows,
            fallbacks,
            engine,
            cache: cache_state,
            hash,
            wall_ns,
        })
    }

    /// Appends the `uds_hotspot_level_self_ns{engine,level}` gauge set
    /// to a rendered `/metrics` body: the hottest
    /// [`HOTSPOT_METRIC_TOP_K`] levels over the default trailing
    /// window. No-op (not even the `# TYPE` header) when sampling is
    /// off, so a default daemon's scrape is byte-identical to before.
    fn append_hotspot_gauges(&self, body: &mut String) {
        let Some(ring) = &self.hotspots else { return };
        let window = ring.lock().unwrap_or_else(|e| e.into_inner()).window(
            Instant::now(),
            Duration::from_secs(HOTSPOT_WINDOW_DEFAULT_S),
        );
        let top = window.top_levels(HOTSPOT_METRIC_TOP_K);
        if top.is_empty() {
            return;
        }
        body.push_str(concat!(
            "# HELP uds_hotspot_level_self_ns Hottest level self-times over the trailing ",
            "sampling window, nanoseconds.\n",
            "# TYPE uds_hotspot_level_self_ns gauge\n",
        ));
        for (engine, level, self_ns) in top {
            body.push_str(&format!(
                "uds_hotspot_level_self_ns{{engine=\"{engine}\",level=\"{level}\"}} {self_ns}\n"
            ));
        }
    }

    /// `GET /debug/hotspots?window_s=S`: the per-engine, per-level
    /// aggregation of every sampled request in the trailing window
    /// (default [`HOTSPOT_WINDOW_DEFAULT_S`]). Before any traffic the
    /// document is empty but valid — same schema, zero samples.
    fn hotspots_get(&self, query: &str) -> Response {
        let Some(ring) = &self.hotspots else {
            return error_response(404, "hotspot sampling disabled (run with --hotspots)");
        };
        let mut window_s = HOTSPOT_WINDOW_DEFAULT_S;
        let parsed = parse_query(query, |key, value| {
            match (key, value.parse::<u64>()) {
                ("window_s", Ok(s)) if s > 0 => window_s = s.min(86_400),
                _ => return false,
            }
            true
        });
        if let Err(response) = parsed {
            return response;
        }
        let window = ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .window(Instant::now(), Duration::from_secs(window_s));
        let engines: Vec<Json> = window
            .engines
            .iter()
            .map(|(engine, profile)| {
                let mut members = vec![("engine", Json::Str(engine.to_string()))];
                members.extend(crate::hotspot::levels_and_totals(profile, &[]));
                Json::obj(members)
            })
            .collect();
        let body = Json::obj([
            ("schema", Json::Str(HOTSPOT_SCHEMA.to_owned())),
            ("window_s", Json::UInt(window_s)),
            ("samples", Json::UInt(window.samples as u64)),
            ("vectors", Json::UInt(window.vectors)),
            ("span_ns", Json::UInt(window.span_ns)),
            ("engines", Json::Arr(engines)),
        ]);
        Response::json(200, body)
    }

    /// Folds a failed simulation into counters, log facts, and the
    /// HTTP response. A blown per-request deadline is its own story:
    /// 504 plus the partial-work count, not a generic 4xx/5xx.
    fn failure_response(&self, at: FailedAt, error: &SimError, facts: &mut LogFacts) -> Response {
        if let SimErrorKind::Cancelled {
            cause: CancelCause::DeadlineExceeded,
            vectors_done,
        } = &error.kind
        {
            let vectors_done = *vectors_done;
            self.telemetry.add("serve.timeouts", 1);
            self.telemetry
                .add("serve.timeout_vectors_done", vectors_done as u64);
            facts.disposition = Some("timeout");
            facts.vectors_done = Some(vectors_done);
            facts.error = Some(error.to_string());
            return error_response(504, &error.to_string());
        }
        let counter = match at {
            FailedAt::Compile => "serve.compile_errors",
            FailedAt::Run => "serve.simulate_errors",
        };
        self.telemetry.add(counter, 1);
        facts.error = Some(error.to_string());
        error_response(status_for(error.class()), &error.to_string())
    }

    /// `POST /simulate`: parse, check the cache, (maybe) compile, run,
    /// answer. The simulation rows for a given request body are
    /// byte-identical whether the engine came from the cache or a fresh
    /// compile — forks always start from power-up state.
    fn simulate(&self, request: &Request, trace: &RequestTrace) -> (Response, LogFacts) {
        let mut facts = LogFacts::default();
        let parsed = match trace.phase("serve.parse", || self.parse_simulate(&request.body)) {
            Ok(parsed) => parsed,
            Err((status, message)) => {
                facts.error = Some(message.clone());
                return (error_response(status, &message), facts);
            }
        };
        facts.circuit = Some(parsed.netlist.name().to_owned());
        facts.netlist_hash = Some(parsed.netlist_hash);
        facts.vectors = Some(parsed.stimulus.len());

        let cancel = match self.config.request_timeout {
            Some(deadline) => CancelToken::with_deadline(Instant::now() + deadline),
            None => CancelToken::new(),
        };
        let outcome = match self.run_simulation(&parsed, &cancel, None, trace) {
            Ok(outcome) => outcome,
            Err((at, error)) => return (self.failure_response(at, &error, &mut facts), facts),
        };
        facts.engine = Some(outcome.engine.to_string());
        facts.fallbacks = Some(outcome.fallbacks);
        facts.cache = Some(outcome.cache);

        let response = trace.phase("serve.serialize", || {
            let body = Json::obj([
                ("schema", Json::Str(SERVE_SCHEMA.to_owned())),
                ("circuit", Json::Str(parsed.netlist.name().to_owned())),
                ("netlist_hash", Json::Str(format!("{:016x}", outcome.hash))),
                ("engine", Json::Str(outcome.engine.to_string())),
                ("word_bits", Json::UInt(u64::from(parsed.word.bits()))),
                ("jobs", Json::UInt(parsed.jobs as u64)),
                ("cache", Json::Str(outcome.cache.to_owned())),
                ("vectors", Json::UInt(outcome.rows.len() as u64)),
                ("fallbacks", Json::UInt(outcome.fallbacks as u64)),
                ("rows", rows_json(&outcome.rows, 0, outcome.rows.len())),
                ("wall_ns", Json::UInt(outcome.wall_ns)),
            ]);
            Response::json(200, body)
        });
        (response, facts)
    }

    /// `POST /jobs`: parse eagerly (a malformed job fails now, not
    /// asynchronously), register in the bounded table, enqueue on the
    /// same worker queue connections ride.
    fn submit_job(&self, request: &Request, trace: &RequestTrace) -> (Response, LogFacts) {
        let mut facts = LogFacts::default();
        let parsed = match trace.phase("serve.parse", || self.parse_simulate(&request.body)) {
            Ok(parsed) => parsed,
            Err((status, message)) => {
                facts.error = Some(message.clone());
                return (error_response(status, &message), facts);
            }
        };
        facts.circuit = Some(parsed.netlist.name().to_owned());
        facts.vectors = Some(parsed.stimulus.len());
        let Some(id) = self.jobs.submit(
            parsed,
            trace.id.clone(),
            self.config.max_jobs,
            self.config.job_ttl,
        ) else {
            self.telemetry.add("serve.shed.jobs_full", 1);
            facts.disposition = Some("shed:jobs_full");
            return (
                Response::text(429, "job table full\n").with_header("Retry-After", "1"),
                facts,
            );
        };
        self.telemetry
            .set_level("serve.jobs.resident", self.jobs.resident() as u64);
        if self.queue.try_push(WorkItem::Job(id)).is_err() {
            // The queue filled between admission and enqueue: undo the
            // registration so the client can resubmit cleanly.
            self.jobs.lock().jobs.remove(&id);
            self.telemetry.add("serve.shed.queue_full", 1);
            facts.disposition = Some("shed:queue_full");
            return (
                Response::text(429, "work queue full\n").with_header("Retry-After", "1"),
                facts,
            );
        }
        self.note_queue_depth();
        self.telemetry.add("serve.jobs.submitted", 1);
        facts.job = Some(id);
        let body = Json::obj([
            ("schema", Json::Str(JOB_SCHEMA.to_owned())),
            ("job", Json::UInt(id)),
            ("state", Json::Str("queued".to_owned())),
        ]);
        (Response::json(202, body), facts)
    }

    /// A queued job, picked up by a worker: run it under the job's
    /// cancellation token, folding heartbeats into the table.
    fn execute_job(&self, id: u64) {
        let Some(job_arc) = self.jobs.get(id) else {
            return;
        };
        let (parsed, cancel, trace_id) = {
            let mut job = job_arc.lock().unwrap_or_else(|e| e.into_inner());
            if job.cancel.is_cancelled() {
                job.state = JobState::Cancelled;
                job.finished = Some(Instant::now());
                self.telemetry.add("serve.jobs.cancelled", 1);
                return;
            }
            job.state = JobState::Running;
            let Some(parsed) = job.request.take() else {
                return;
            };
            (parsed, job.cancel.clone(), job.trace_id.clone())
        };
        let probe = JobProbe { job: &job_arc };
        let trace = RequestTrace::new(
            trace_id,
            &self.telemetry,
            JOB_TRACE_TID + id,
            Instant::now(),
        );
        let result = self.run_simulation(&parsed, &cancel, Some(&probe), &trace);
        self.export_trace(trace, "serve.job", true);
        let mut job = job_arc.lock().unwrap_or_else(|e| e.into_inner());
        job.finished = Some(Instant::now());
        match result {
            Ok(outcome) => {
                job.state = JobState::Done;
                job.outcome = Some(outcome);
                self.telemetry.add("serve.jobs.completed", 1);
            }
            Err((_, error)) => {
                if matches!(error.kind, SimErrorKind::Cancelled { .. }) {
                    job.state = JobState::Cancelled;
                    self.telemetry.add("serve.jobs.cancelled", 1);
                } else {
                    job.state = JobState::Failed;
                    job.error = Some((status_for(error.class()), error.to_string()));
                    self.telemetry.add("serve.jobs.failed", 1);
                }
            }
        }
    }

    /// `GET /jobs/:id` (state + progress) and `GET /jobs/:id/result`
    /// (row paging).
    fn job_get(&self, tail: &str, query: &str) -> (Response, LogFacts) {
        let (id_text, want_result) = match tail.strip_suffix("/result") {
            Some(id_text) => (id_text, true),
            None => (tail, false),
        };
        let Ok(id) = id_text.parse::<u64>() else {
            return (
                error_response(404, &format!("no such job `{id_text}`")),
                LogFacts::default(),
            );
        };
        let mut facts = LogFacts {
            job: Some(id),
            ..LogFacts::default()
        };
        let Some(job_arc) = self.jobs.get(id) else {
            return (error_response(404, &format!("no such job {id}")), facts);
        };
        let job = job_arc.lock().unwrap_or_else(|e| e.into_inner());
        if want_result {
            return (job_result_response(id, &job, query), facts);
        }
        let vectors_done: usize = job.progress.values().map(|beat| beat.done).sum();
        facts.vectors_done = Some(vectors_done);
        let progress: Vec<Json> = job.progress.values().map(Heartbeat::to_json).collect();
        let mut members = vec![
            ("schema".to_owned(), Json::Str(JOB_SCHEMA.to_owned())),
            ("job".to_owned(), Json::UInt(id)),
            ("state".to_owned(), Json::Str(job.state.name().to_owned())),
            ("vectors".to_owned(), Json::UInt(job.vectors_total as u64)),
            ("vectors_done".to_owned(), Json::UInt(vectors_done as u64)),
            ("progress".to_owned(), Json::Arr(progress)),
        ];
        if let Some((_, message)) = &job.error {
            members.push(("error".to_owned(), Json::Str(message.clone())));
        }
        (Response::json(200, Json::Obj(members)), facts)
    }

    /// `DELETE /jobs/:id`: trip the job's cancellation token. A queued
    /// job cancels before it runs; a running one stops within a vector
    /// per shard; a terminal one just reports its state (idempotence).
    fn job_cancel(&self, tail: &str) -> (Response, LogFacts) {
        let Ok(id) = tail.parse::<u64>() else {
            return (
                error_response(404, &format!("no such job `{tail}`")),
                LogFacts::default(),
            );
        };
        let facts = LogFacts {
            job: Some(id),
            ..LogFacts::default()
        };
        let Some(job_arc) = self.jobs.get(id) else {
            return (error_response(404, &format!("no such job {id}")), facts);
        };
        let job = job_arc.lock().unwrap_or_else(|e| e.into_inner());
        let (status, state) = if job.state.terminal() {
            (200, job.state.name())
        } else {
            job.cancel.cancel();
            (202, "cancelling")
        };
        drop(job);
        let body = Json::obj([
            ("schema", Json::Str(JOB_SCHEMA.to_owned())),
            ("job", Json::UInt(id)),
            ("state", Json::Str(state.to_owned())),
        ]);
        (Response::json(status, body), facts)
    }

    /// Parses a `POST /simulate` body. Errors are `(status, message)`.
    fn parse_simulate(&self, body: &[u8]) -> Result<SimRequest, (u16, String)> {
        let bad = |msg: String| (400u16, msg);
        let text =
            std::str::from_utf8(body).map_err(|_| bad("request body is not UTF-8".to_owned()))?;
        let doc = Json::parse(text).map_err(|e| bad(format!("request body: {e}")))?;
        let bench = doc
            .get("bench")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing string field `bench`".to_owned()))?;
        let name = doc.get("name").and_then(Json::as_str).unwrap_or("request");
        // Text some cache entry was compiled from needs no parse; any
        // other text is parsed and keyed canonically.
        let resolution = self.cache.resolve(name, bench);
        let (netlist, netlist_hash) = match resolution.known {
            Some(known) => known,
            None => {
                let netlist = bench_format::parse(bench, name)
                    .map_err(|e| bad(format!("bench netlist: {e}")))?;
                let hash = netlist_hash(&netlist);
                (Arc::new(netlist), hash)
            }
        };

        let engine = match doc.get("engine").and_then(Json::as_str) {
            Some(wanted) => Some(
                Engine::parse(wanted).ok_or_else(|| bad(format!("unknown engine `{wanted}`")))?,
            ),
            None => None,
        };
        let word = match doc.get("word").and_then(Json::as_u64) {
            Some(32) => WordWidth::W32,
            Some(64) => WordWidth::W64,
            Some(other) => return Err(bad(format!("`word` must be 32 or 64, not {other}"))),
            None => self.config.default_word,
        };
        let jobs = match doc.get("jobs").and_then(Json::as_u64) {
            Some(0) => return Err(bad("`jobs` must be at least 1".to_owned())),
            Some(n) if n > MAX_JOBS as u64 => {
                return Err(bad(format!("`jobs` is capped at {MAX_JOBS}")))
            }
            Some(n) => n as usize,
            None => self.config.default_jobs,
        };

        let stimulus = match (doc.get("vectors"), doc.get("random")) {
            (Some(explicit), None) => {
                let rows = explicit
                    .as_arr()
                    .ok_or_else(|| bad("`vectors` must be an array of bit arrays".to_owned()))?;
                if rows.len() > self.config.max_vectors {
                    return Err(bad(format!(
                        "{} vectors exceed the per-request cap of {}",
                        rows.len(),
                        self.config.max_vectors
                    )));
                }
                rows.iter()
                    .map(|row| {
                        row.as_arr()
                            .ok_or_else(|| bad("each vector must be a bit array".to_owned()))?
                            .iter()
                            .map(|bit| match bit {
                                Json::UInt(0) => Ok(false),
                                Json::UInt(1) => Ok(true),
                                Json::Bool(b) => Ok(*b),
                                other => {
                                    Err(bad(format!("vector bits must be 0/1, not {other:?}")))
                                }
                            })
                            .collect()
                    })
                    .collect::<Result<Vec<Vec<bool>>, _>>()?
            }
            (None, Some(random)) => {
                let count = random
                    .get("count")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("`random` needs an integer `count`".to_owned()))?;
                if count as usize > self.config.max_vectors {
                    return Err(bad(format!(
                        "{count} vectors exceed the per-request cap of {}",
                        self.config.max_vectors
                    )));
                }
                let seed = random.get("seed").and_then(Json::as_u64).unwrap_or(1990);
                crate::vectors::RandomVectors::new(netlist.primary_inputs().len(), seed)
                    .take(count as usize)
                    .collect()
            }
            (Some(_), Some(_)) => {
                return Err(bad("give `vectors` or `random`, not both".to_owned()))
            }
            (None, None) => {
                return Err(bad(
                    "missing stimulus: give `vectors` (bit arrays) or `random` {count, seed}"
                        .to_owned(),
                ))
            }
        };

        Ok(SimRequest {
            netlist,
            netlist_hash,
            spelling: resolution.spelling,
            stimulus,
            engine,
            word,
            jobs,
        })
    }

    /// Emits one `uds-reqlog-v1` NDJSON line, best-effort (a dead log
    /// sink must not take the service down).
    fn log_request(
        &self,
        request: Option<&Request>,
        status: u16,
        wall_ns: u64,
        context: RequestContext,
        facts: &LogFacts,
        trace: Option<&RequestTrace>,
    ) {
        let Some(reqlog) = &self.reqlog else { return };
        let mut members = vec![
            ("schema".to_owned(), Json::Str(REQLOG_SCHEMA.to_owned())),
            (
                "method".to_owned(),
                Json::Str(request.map_or("-", |r| r.method.as_str()).to_owned()),
            ),
            (
                "path".to_owned(),
                Json::Str(request.map_or("-", |r| r.path.as_str()).to_owned()),
            ),
            ("status".to_owned(), Json::UInt(u64::from(status))),
            ("wall_ns".to_owned(), Json::UInt(wall_ns)),
            ("connection_id".to_owned(), Json::UInt(context.conn)),
            (
                "requests_on_connection".to_owned(),
                Json::UInt(context.requests_on_connection),
            ),
            (
                "queue_wait_ms".to_owned(),
                Json::UInt(context.queue_wait_ms),
            ),
        ];
        if let Some(disposition) = facts.disposition {
            members.push(("disposition".to_owned(), Json::Str(disposition.to_owned())));
        }
        if let Some(job) = facts.job {
            members.push(("job".to_owned(), Json::UInt(job)));
        }
        if let Some(done) = facts.vectors_done {
            members.push(("vectors_done".to_owned(), Json::UInt(done as u64)));
        }
        if let Some(circuit) = &facts.circuit {
            members.push(("circuit".to_owned(), Json::Str(circuit.clone())));
        }
        if let Some(hash) = facts.netlist_hash {
            members.push(("netlist_hash".to_owned(), Json::Str(format!("{hash:016x}"))));
        }
        if let Some(engine) = &facts.engine {
            members.push(("engine".to_owned(), Json::Str(engine.clone())));
        }
        if let Some(cache) = facts.cache {
            members.push(("cache".to_owned(), Json::Str(cache.to_owned())));
        }
        if let Some(vectors) = facts.vectors {
            members.push(("vectors".to_owned(), Json::UInt(vectors as u64)));
        }
        if let Some(fallbacks) = facts.fallbacks {
            members.push(("fallbacks".to_owned(), Json::UInt(fallbacks as u64)));
        }
        if let Some(error) = &facts.error {
            members.push(("error".to_owned(), Json::Str(error.clone())));
        }
        if let Some(trace) = trace {
            members.push(("trace_id".to_owned(), Json::Str(trace.id.clone())));
            if let Some(phase_ms) = trace.phase_ms() {
                members.push(("phase_ms".to_owned(), phase_ms));
            }
        }
        let line = Json::Obj(members).render();
        let mut out = reqlog.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

/// Renders `rows[offset..offset+len]` as an array of bit strings.
fn rows_json(rows: &[Vec<bool>], offset: usize, len: usize) -> Json {
    Json::Arr(
        rows.iter()
            .skip(offset)
            .take(len)
            .map(|row| {
                Json::Str(
                    row.iter()
                        .map(|&b| char::from(b'0' + u8::from(b)))
                        .collect(),
                )
            })
            .collect(),
    )
}

/// `GET /jobs/:id/result`: pages rows of a finished job.
fn job_result_response(id: u64, job: &Job, query: &str) -> Response {
    match job.state {
        JobState::Done => {}
        JobState::Failed => {
            let (status, message) = job.error.clone().unwrap_or((500, "job failed".to_owned()));
            return error_response(status, &message);
        }
        JobState::Cancelled => return error_response(410, &format!("job {id} was cancelled")),
        JobState::Queued | JobState::Running => {
            return error_response(409, &format!("job {id} is still {}", job.state.name()))
        }
    }
    // A done-state job without an outcome is a broken invariant, but
    // one request must not kill the worker thread that answers it —
    // surface it through the failure taxonomy like any other 500.
    let Some(outcome) = job.outcome.as_ref() else {
        return error_response(500, &format!("job {id} is done but recorded no outcome"));
    };
    let mut offset = 0usize;
    let mut limit = 10_000usize;
    let parsed = parse_query(query, |key, value| {
        match (key, value.parse::<usize>()) {
            ("offset", Ok(n)) => offset = n,
            ("limit", Ok(n)) => limit = n.clamp(1, 100_000),
            _ => return false,
        }
        true
    });
    if let Err(response) = parsed {
        return response;
    }
    let total = outcome.rows.len();
    let page_len = limit.min(total.saturating_sub(offset));
    let body = Json::obj([
        ("schema", Json::Str(JOB_SCHEMA.to_owned())),
        ("job", Json::UInt(id)),
        ("state", Json::Str("done".to_owned())),
        ("engine", Json::Str(outcome.engine.to_string())),
        ("cache", Json::Str(outcome.cache.to_owned())),
        ("netlist_hash", Json::Str(format!("{:016x}", outcome.hash))),
        ("fallbacks", Json::UInt(outcome.fallbacks as u64)),
        ("wall_ns", Json::UInt(outcome.wall_ns)),
        ("total", Json::UInt(total as u64)),
        ("offset", Json::UInt(offset as u64)),
        ("rows", rows_json(&outcome.rows, offset, page_len)),
        (
            "complete",
            Json::Bool(offset.saturating_add(page_len) >= total),
        ),
    ]);
    Response::json(200, body)
}

/// Hands each `key=value` pair of a `&`-separated query to `apply`;
/// the first pair it rejects (returns `false` for) is a 400.
fn parse_query(query: &str, mut apply: impl FnMut(&str, &str) -> bool) -> Result<(), Response> {
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if !apply(key, value) {
            return Err(error_response(
                400,
                &format!("bad query parameter `{pair}`"),
            ));
        }
    }
    Ok(())
}

fn error_response(status: u16, message: &str) -> Response {
    let body = Json::obj([("error", Json::Str(message.to_owned()))]);
    Response::json(status, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Read};

    const C17: &str = "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
                       10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
                       22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

    /// A shared byte sink for capturing the request log.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// One raw HTTP exchange against `addr`; returns (status, body).
    /// The request must carry `Connection: close` (the server keeps
    /// HTTP/1.1 connections alive otherwise and `read_to_string`
    /// would wait out the idle timeout).
    fn exchange(addr: SocketAddr, raw: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        let status: u16 = reply
            .split_whitespace()
            .nth(1)
            .expect("status line")
            .parse()
            .expect("numeric status");
        let body = reply
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_owned())
            .unwrap_or_default();
        (status, body)
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        exchange(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
        )
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        exchange(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    fn delete(addr: SocketAddr, path: &str) -> (u16, String) {
        exchange(
            addr,
            &format!("DELETE {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
        )
    }

    /// Reads exactly one framed response off a keep-alive connection.
    fn read_one_response(reader: &mut BufReader<&TcpStream>) -> (u16, String, String) {
        let mut head = String::new();
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "unexpected EOF");
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .expect("status line")
            .parse()
            .unwrap();
        let length: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(str::to_owned)
            })
            .expect("content-length")
            .trim()
            .parse()
            .unwrap();
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).unwrap();
        (status, head, String::from_utf8(body).unwrap())
    }

    fn with_server<T>(
        config: ServeConfig,
        telemetry: Telemetry,
        reqlog: Option<Box<dyn Write + Send>>,
        body: impl FnOnce(SocketAddr) -> T,
    ) -> T {
        let server = SimServer::bind("127.0.0.1:0", config, telemetry, reqlog).expect("bind");
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        std::thread::scope(|scope| {
            let runner = scope.spawn(|| server.run().expect("serve"));
            // A failed assertion in `body` must still stop the server,
            // or the scope would wait for it forever.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(addr)));
            handle.request();
            runner.join().expect("server thread");
            result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    }

    fn simulate_body(engine: Option<&str>) -> String {
        let engine_field = engine
            .map(|e| format!("\"engine\":\"{e}\","))
            .unwrap_or_default();
        format!(
            "{{\"bench\":{},{engine_field}\"vectors\":[[0,1,0,1,0],[1,1,1,1,1],[0,0,0,0,0]]}}",
            Json::Str(C17.to_owned()).render()
        )
    }

    #[test]
    fn health_ready_metrics_and_unknown_routes() {
        with_server(ServeConfig::default(), Telemetry::new(), None, |addr| {
            assert_eq!(get(addr, "/healthz"), (200, "ok\n".to_owned()));
            assert_eq!(get(addr, "/readyz"), (200, "ready\n".to_owned()));
            let (status, metrics) = get(addr, "/metrics");
            assert_eq!(status, 200);
            assert!(
                metrics.contains("# TYPE uds_serve_in_flight gauge"),
                "{metrics}"
            );
            assert!(
                metrics.contains("# TYPE uds_serve_queue_depth gauge"),
                "{metrics}"
            );
            assert_eq!(get(addr, "/nope").0, 404);
            assert_eq!(post(addr, "/healthz", "x").0, 405);
            assert_eq!(post(addr, "/quitquitquit", "").0, 403, "quit is gated");
        });
    }

    #[test]
    fn done_job_without_outcome_answers_500_not_a_panic() {
        // The invariant break the worker must survive: a job in the
        // done state whose outcome was never recorded.
        let job = Job {
            state: JobState::Done,
            cancel: CancelToken::new(),
            request: None,
            trace_id: "t".to_owned(),
            vectors_total: 0,
            progress: BTreeMap::new(),
            outcome: None,
            error: None,
            finished: None,
        };
        let response = job_result_response(7, &job, "");
        assert_eq!(response.status, 500);
        let body = String::from_utf8(response.body.clone()).unwrap();
        assert!(body.contains("no outcome"), "{body}");
    }

    #[test]
    fn native_engine_request_serves_or_degrades_gracefully() {
        // `engine: "native"` heads the degradation chain instead of
        // being a strict single-engine request: with a C toolchain the
        // answer comes from compiled C, without one an interpreted
        // engine answers — never a 4xx/5xx for a missing compiler.
        let _env = crate::native::env_lock();
        with_server(ServeConfig::default(), Telemetry::new(), None, |addr| {
            let (status, body) = post(addr, "/simulate", &simulate_body(Some("native")));
            assert_eq!(status, 200, "{body}");
            let doc = Json::parse(&body).unwrap();
            let engine = doc.get("engine").unwrap().as_str().unwrap().to_owned();
            if crate::native::compiler_available() {
                assert_eq!(engine, "native", "{body}");
            }
            let (_, reference) = post(addr, "/simulate", &simulate_body(None));
            let reference = Json::parse(&reference).unwrap();
            assert_eq!(
                doc.get("rows").unwrap(),
                reference.get("rows").unwrap(),
                "native answers must match the interpreted engines"
            );
        });
    }

    #[test]
    fn simulate_misses_then_hits_with_identical_rows() {
        let telemetry = Telemetry::new();
        let log = Shared::default();
        let (first, second) = with_server(
            ServeConfig::default(),
            telemetry.clone(),
            Some(Box::new(log.clone())),
            |addr| {
                let first = post(addr, "/simulate", &simulate_body(None));
                let second = post(addr, "/simulate", &simulate_body(None));
                (first, second)
            },
        );
        assert_eq!(first.0, 200, "{}", first.1);
        assert_eq!(second.0, 200, "{}", second.1);
        let a = Json::parse(&first.1).unwrap();
        let b = Json::parse(&second.1).unwrap();
        assert_eq!(a.get("cache").unwrap().as_str(), Some("miss"));
        assert_eq!(b.get("cache").unwrap().as_str(), Some("hit"));
        assert_eq!(
            a.get("rows").unwrap(),
            b.get("rows").unwrap(),
            "cached runs are byte-identical"
        );
        assert_eq!(telemetry.counter("cache.hits"), 1);
        assert_eq!(telemetry.counter("cache.misses"), 1);
        assert_eq!(telemetry.counter("serve.vectors"), 6);
        // Exactly one compile sample despite two requests: the hit
        // skipped recompilation.
        let report = telemetry.snapshot();
        assert_eq!(report.distributions["serve.compile_wall_ns"].count, 1);
        // The request log carries one line per request, schema-tagged
        // and attributable to its connection.
        let bytes = log.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let doc = Json::parse(line).expect("reqlog line parses");
            assert_eq!(doc.get("schema").unwrap().as_str(), Some(REQLOG_SCHEMA));
            assert_eq!(doc.get("path").unwrap().as_str(), Some("/simulate"));
            assert_eq!(doc.get("status").unwrap().as_u64(), Some(200));
            assert!(doc.get("netlist_hash").is_some());
            assert!(doc.get("connection_id").unwrap().as_u64().unwrap() >= 1);
            assert_eq!(doc.get("requests_on_connection").unwrap().as_u64(), Some(1));
            assert!(doc.get("queue_wait_ms").is_some());
        }
    }

    #[test]
    fn simulate_matches_direct_engine_rows() {
        let (status, body) = with_server(ServeConfig::default(), Telemetry::new(), None, |addr| {
            post(addr, "/simulate", &simulate_body(Some("event-driven")))
        });
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("engine").unwrap().as_str(), Some("event-driven"));
        // Against a directly built engine.
        let nl = bench_format::parse(C17, "request").unwrap();
        let mut sim = crate::build_simulator(&nl, Engine::EventDriven).unwrap();
        let stimulus = [
            [false, true, false, true, false],
            [true, true, true, true, true],
            [false, false, false, false, false],
        ];
        let expected: Vec<String> = stimulus
            .iter()
            .map(|v| {
                sim.simulate_vector(v);
                nl.primary_outputs()
                    .iter()
                    .map(|&po| char::from(b'0' + u8::from(sim.final_value(po))))
                    .collect()
            })
            .collect();
        let rows: Vec<&str> = doc
            .get("rows")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|r| r.as_str().unwrap())
            .collect();
        assert_eq!(rows, expected);
    }

    #[test]
    fn bad_requests_are_client_errors() {
        with_server(ServeConfig::default(), Telemetry::new(), None, |addr| {
            let (status, body) = post(addr, "/simulate", "this is not json");
            assert_eq!(status, 400, "{body}");
            let (status, _) = post(addr, "/simulate", "{\"bench\":\"INPUT(a)\\nbroken\"}");
            assert_eq!(status, 400);
            let wrong_width = format!(
                "{{\"bench\":{},\"vectors\":[[1]]}}",
                Json::Str(C17.to_owned()).render()
            );
            let (status, body) = post(addr, "/simulate", &wrong_width);
            assert_eq!(status, 400, "{body}");
            assert!(body.contains("error"));
        });
    }

    #[test]
    fn quit_endpoint_drains_when_allowed() {
        let config = ServeConfig {
            allow_quit: true,
            ..ServeConfig::default()
        };
        let server = SimServer::bind("127.0.0.1:0", config, Telemetry::new(), None).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::scope(|scope| {
            let runner = scope.spawn(|| server.run().expect("serve"));
            let (status, _) = post(addr, "/quitquitquit", "");
            assert_eq!(status, 200);
            runner.join().expect("run() returns after quit");
        });
    }

    #[test]
    fn batch_requests_match_sequential_requests() {
        let body = format!(
            "{{\"bench\":{},\"random\":{{\"count\":37,\"seed\":7}},\"jobs\":3}}",
            Json::Str(C17.to_owned()).render()
        );
        let sequential = body.replace(",\"jobs\":3", "");
        let (rows_batch, rows_seq) =
            with_server(ServeConfig::default(), Telemetry::new(), None, |addr| {
                let (status, batch) = post(addr, "/simulate", &body);
                assert_eq!(status, 200, "{batch}");
                let (status, seq) = post(addr, "/simulate", &sequential);
                assert_eq!(status, 200, "{seq}");
                (batch, seq)
            });
        let batch = Json::parse(&rows_batch).unwrap();
        let seq = Json::parse(&rows_seq).unwrap();
        assert_eq!(batch.get("jobs").unwrap().as_u64(), Some(3));
        assert_eq!(batch.get("rows").unwrap(), seq.get("rows").unwrap());
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let telemetry = Telemetry::new();
        with_server(ServeConfig::default(), telemetry.clone(), None, |addr| {
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(&stream);
            for round in 1..=3u64 {
                (&stream)
                    .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                    .unwrap();
                let (status, head, body) = read_one_response(&mut reader);
                assert_eq!((status, body.as_str()), (200, "ok\n"), "round {round}");
                assert!(
                    head.to_ascii_lowercase().contains("connection: keep-alive"),
                    "{head}"
                );
            }
            // `Connection: close` is honored: response says close and
            // the server hangs up.
            (&stream)
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                .unwrap();
            let (status, head, _) = read_one_response(&mut reader);
            assert_eq!(status, 200);
            assert!(
                head.to_ascii_lowercase().contains("connection: close"),
                "{head}"
            );
            let mut rest = String::new();
            reader.read_to_string(&mut rest).unwrap();
            assert!(rest.is_empty(), "clean EOF after close");
        });
        // All four requests rode one connection.
        assert_eq!(telemetry.counter("serve.requests"), 4);
    }

    #[test]
    fn keep_alive_responses_do_not_wait_for_delayed_acks() {
        // A response sent as many small writes waited, under Nagle's
        // algorithm, for the client's delayed ACK (about 40 ms on
        // Linux) on every keep-alive request: 20 requests on one
        // connection must take well under 20 x 40 ms (half of it, to
        // leave room for a loaded test host).
        with_server(ServeConfig::default(), Telemetry::new(), None, |addr| {
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(&stream);
            let body = simulate_body(None);
            let request = format!(
                "POST /simulate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            // The first request compiles c17; time the cache hits.
            (&stream).write_all(request.as_bytes()).unwrap();
            assert_eq!(read_one_response(&mut reader).0, 200);
            let started = Instant::now();
            for round in 0..20 {
                (&stream).write_all(request.as_bytes()).unwrap();
                let (status, head, _) = read_one_response(&mut reader);
                assert_eq!(status, 200, "round {round}: {head}");
                assert!(
                    head.to_ascii_lowercase().contains("connection: keep-alive"),
                    "{head}"
                );
            }
            let elapsed = started.elapsed();
            assert!(
                elapsed < Duration::from_millis(400),
                "20 keep-alive requests took {elapsed:?}"
            );
        });
    }

    #[test]
    fn keep_alive_max_closes_the_connection() {
        let config = ServeConfig {
            keep_alive_max: 2,
            ..ServeConfig::default()
        };
        with_server(config, Telemetry::new(), None, |addr| {
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(&stream);
            for _ in 0..2 {
                (&stream)
                    .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                    .unwrap();
            }
            let (_, first_head, _) = read_one_response(&mut reader);
            assert!(first_head.to_ascii_lowercase().contains("keep-alive"));
            let (_, second_head, _) = read_one_response(&mut reader);
            assert!(
                second_head
                    .to_ascii_lowercase()
                    .contains("connection: close"),
                "request keep_alive_max closes: {second_head}"
            );
            let mut rest = String::new();
            reader.read_to_string(&mut rest).unwrap();
            assert!(rest.is_empty());
        });
    }

    #[test]
    fn job_lifecycle_submit_poll_page_matches_simulate() {
        let body = format!(
            "{{\"bench\":{},\"random\":{{\"count\":10,\"seed\":3}}}}",
            Json::Str(C17.to_owned()).render()
        );
        with_server(ServeConfig::default(), Telemetry::new(), None, |addr| {
            let (status, sync_body) = post(addr, "/simulate", &body);
            assert_eq!(status, 200, "{sync_body}");
            let sync = Json::parse(&sync_body).unwrap();

            let (status, submitted) = post(addr, "/jobs", &body);
            assert_eq!(status, 202, "{submitted}");
            let id = Json::parse(&submitted)
                .unwrap()
                .get("job")
                .unwrap()
                .as_u64()
                .unwrap();

            // Poll to completion.
            let deadline = Instant::now() + Duration::from_secs(10);
            let final_state = loop {
                let (status, text) = get(addr, &format!("/jobs/{id}"));
                assert_eq!(status, 200, "{text}");
                let doc = Json::parse(&text).unwrap();
                let state = doc.get("state").unwrap().as_str().unwrap().to_owned();
                if state != "queued" && state != "running" {
                    break state;
                }
                assert!(Instant::now() < deadline, "job never finished");
                std::thread::sleep(Duration::from_millis(5));
            };
            assert_eq!(final_state, "done");

            // Result pages concatenate to the synchronous rows.
            let mut rows: Vec<Json> = Vec::new();
            for offset in [0usize, 6] {
                let (status, text) =
                    get(addr, &format!("/jobs/{id}/result?offset={offset}&limit=6"));
                assert_eq!(status, 200, "{text}");
                let page = Json::parse(&text).unwrap();
                assert_eq!(page.get("total").unwrap().as_u64(), Some(10));
                rows.extend(page.get("rows").unwrap().as_arr().unwrap().iter().cloned());
                if offset == 6 {
                    assert_eq!(page.get("complete"), Some(&Json::Bool(true)));
                }
            }
            assert_eq!(&Json::Arr(rows), sync.get("rows").unwrap());

            // Cancelling a finished job is a no-op that reports state.
            let (status, text) = delete(addr, &format!("/jobs/{id}"));
            assert_eq!(status, 200, "{text}");
            assert_eq!(
                Json::parse(&text).unwrap().get("state").unwrap().as_str(),
                Some("done")
            );

            // Unknown jobs are 404; a running/queued-only endpoint
            // answers 409 before completion (checked via a fresh job
            // against /result on id+1 which does not exist).
            assert_eq!(get(addr, "/jobs/99999").0, 404);
            assert_eq!(get(addr, "/jobs/not-a-number").0, 404);
        });
    }

    #[test]
    fn job_progress_entries_are_the_progress_stream_records() {
        let body = format!(
            "{{\"bench\":{},\"random\":{{\"count\":10,\"seed\":3}}}}",
            Json::Str(C17.to_owned()).render()
        );
        with_server(ServeConfig::default(), Telemetry::new(), None, |addr| {
            let (status, submitted) = post(addr, "/jobs", &body);
            assert_eq!(status, 202, "{submitted}");
            let submitted = Json::parse(&submitted).unwrap();
            let id = submitted.get("job").and_then(Json::as_u64).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            let (text, doc) = loop {
                let (status, text) = get(addr, &format!("/jobs/{id}"));
                assert_eq!(status, 200, "{text}");
                let doc = Json::parse(&text).unwrap();
                if doc.get("state").unwrap().as_str() == Some("done") {
                    break (text, doc);
                }
                assert!(Instant::now() < deadline, "job never finished");
                std::thread::sleep(Duration::from_millis(5));
            };
            let entries = doc.get("progress").unwrap().as_arr().unwrap();
            assert!(!entries.is_empty(), "{text}");
            for entry in entries {
                let uint = |key: &str| entry.get(key).and_then(Json::as_u64).unwrap();
                let beat = Heartbeat {
                    shard: uint("shard") as usize,
                    done: uint("done") as usize,
                    total: uint("total") as usize,
                    wall_ns: uint("wall_ns"),
                    engine: Engine::parse(entry.get("engine").unwrap().as_str().unwrap()).unwrap(),
                    fallbacks: uint("fallbacks") as usize,
                    finished: entry.get("finished") == Some(&Json::Bool(true)),
                };
                let record = crate::NdjsonProgress::render(&beat);
                assert!(text.contains(&record), "{record} not in {text}");
            }
        });
    }

    #[test]
    fn trace_id_threads_from_header_to_reqlog_and_response() {
        let log = Shared::default();
        let (inbound_head, generated_head) = with_server(
            ServeConfig::default(),
            Telemetry::new(),
            Some(Box::new(log.clone())),
            |addr| {
                // A client-supplied id is echoed verbatim...
                let body = simulate_body(None);
                let stream = TcpStream::connect(addr).unwrap();
                (&stream)
                    .write_all(
                        format!(
                            "POST /simulate HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                             x-uds-trace-id: req-abc.123\r\nContent-Length: {}\r\n\r\n{body}",
                            body.len()
                        )
                        .as_bytes(),
                    )
                    .unwrap();
                let mut reader = BufReader::new(&stream);
                let (status, inbound_head, _) = read_one_response(&mut reader);
                assert_eq!(status, 200);
                // ...and a request without one gets a generated id.
                let stream = TcpStream::connect(addr).unwrap();
                (&stream)
                    .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                    .unwrap();
                let mut reader = BufReader::new(&stream);
                let (_, generated_head, _) = read_one_response(&mut reader);
                (inbound_head, generated_head)
            },
        );
        assert!(
            inbound_head
                .to_ascii_lowercase()
                .contains("x-uds-trace-id: req-abc.123"),
            "{inbound_head}"
        );
        let generated = generated_head
            .to_ascii_lowercase()
            .lines()
            .find_map(|l| l.strip_prefix("x-uds-trace-id: ").map(str::to_owned))
            .expect("generated trace id header");
        assert_eq!(generated.trim().len(), 16, "{generated}");

        let bytes = log.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let simulate_line = text
            .lines()
            .map(|l| Json::parse(l).expect("reqlog line parses"))
            .find(|doc| doc.get("path").and_then(Json::as_str) == Some("/simulate"))
            .expect("simulate reqlog line");
        assert_eq!(
            simulate_line.get("trace_id").and_then(Json::as_str),
            Some("req-abc.123")
        );
        // Phases sum to no more than the recorded request time.
        let wall_ns = simulate_line.get("wall_ns").unwrap().as_u64().unwrap();
        let Some(Json::Obj(phases)) = simulate_line.get("phase_ms") else {
            panic!("phase_ms missing: {simulate_line:?}");
        };
        let keys: Vec<&str> = phases.iter().map(|(k, _)| k.as_str()).collect();
        for key in ["parse", "cache_lookup", "compile", "simulate", "serialize"] {
            assert!(keys.contains(&key), "missing phase {key}: {keys:?}");
        }
        let sum_ms: f64 = phases.iter().filter_map(|(_, v)| v.as_f64()).sum();
        assert!(
            sum_ms <= wall_ns as f64 / 1e6,
            "phases ({sum_ms} ms) exceed request wall ({wall_ns} ns)"
        );
    }

    #[test]
    fn a_queued_requests_wall_time_covers_its_phases() {
        // One worker, held by a connection that has not sent its
        // request: the second connection waits in the queue, and its
        // reqlog line leads with that wait. Its wall time must count
        // from the same instant, so the phases fit inside it.
        let log = Shared::default();
        let telemetry = Telemetry::new();
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let request = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
        let until = |name: &str, value: u64| {
            while telemetry.gauge_value(name) != Some(value) {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let reqlog: Box<dyn Write + Send> = Box::new(log.clone());
        with_server(config, telemetry.clone(), Some(reqlog), |addr| {
            let holder = TcpStream::connect(addr).unwrap();
            until("serve.in_flight", 1);
            let queued = TcpStream::connect(addr).unwrap();
            (&queued).write_all(request).unwrap();
            until("serve.queue_depth", 1);
            // The wait the queued request's line must account for.
            std::thread::sleep(Duration::from_millis(50));
            (&holder).write_all(request).unwrap();
            assert_eq!(read_one_response(&mut BufReader::new(&holder)).0, 200);
            assert_eq!(read_one_response(&mut BufReader::new(&queued)).0, 200);
        });
        let bytes = log.0.lock().unwrap().clone();
        let lines: Vec<Json> = String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).expect("reqlog line parses"))
            .collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        let waited = lines
            .iter()
            .find(|doc| doc.get("queue_wait_ms").and_then(Json::as_u64) >= Some(40))
            .unwrap_or_else(|| panic!("no request waited in the queue: {lines:?}"));
        let wall_ms = waited.get("wall_ns").unwrap().as_u64().unwrap() as f64 / 1e6;
        let Some(Json::Obj(phases)) = waited.get("phase_ms") else {
            panic!("phase_ms missing: {waited:?}");
        };
        assert!(
            phases.iter().any(|(name, _)| name == "queue_wait"),
            "{phases:?}"
        );
        let sum_ms: f64 = phases.iter().filter_map(|(_, v)| v.as_f64()).sum();
        assert!(
            sum_ms <= wall_ms,
            "phases ({sum_ms} ms) exceed request wall ({wall_ms} ms)"
        );
    }

    #[test]
    fn debug_hotspots_is_gated_empty_before_traffic_and_populated_after() {
        // Without the opt-in the route does not exist as a data source
        // and /metrics stays free of hotspot gauges.
        with_server(ServeConfig::default(), Telemetry::new(), None, |addr| {
            let (status, body) = get(addr, "/debug/hotspots");
            assert_eq!(status, 404, "{body}");
            assert!(body.contains("--hotspots"), "{body}");
        });

        let config = ServeConfig {
            hotspots: true,
            ..ServeConfig::default()
        };
        with_server(config, Telemetry::new(), None, |addr| {
            // Empty-but-valid before any traffic.
            let (status, body) = get(addr, "/debug/hotspots");
            assert_eq!(status, 200, "{body}");
            let doc = Json::parse(&body).expect("valid JSON");
            assert_eq!(
                doc.get("schema").and_then(Json::as_str),
                Some(HOTSPOT_SCHEMA)
            );
            assert_eq!(doc.get("samples").and_then(Json::as_u64), Some(0));
            assert_eq!(
                doc.get("engines").and_then(Json::as_arr).map(|a| a.len()),
                Some(0)
            );
            assert_eq!(get(addr, "/debug/hotspots?window_s=0").0, 400);
            assert_eq!(get(addr, "/debug/hotspots?nope=1").0, 400);
            assert_eq!(post(addr, "/debug/hotspots", "").0, 405);

            // A simulate request lands one sample in the window.
            let (status, body) = post(addr, "/simulate", &simulate_body(None));
            assert_eq!(status, 200, "{body}");
            let (status, body) = get(addr, "/debug/hotspots?window_s=600");
            assert_eq!(status, 200);
            let doc = Json::parse(&body).expect("valid JSON");
            assert_eq!(doc.get("samples").and_then(Json::as_u64), Some(1));
            assert_eq!(doc.get("vectors").and_then(Json::as_u64), Some(3));
            let engines = doc.get("engines").and_then(Json::as_arr).unwrap();
            assert_eq!(engines.len(), 1, "{body}");
            let levels = engines[0].get("levels").and_then(Json::as_arr).unwrap();
            assert!(levels.len() >= 4, "c17 has levels 0..=3: {body}");
            let attributed: u64 = levels
                .iter()
                .filter_map(|l| l.get("self_ns").and_then(Json::as_u64))
                .sum();
            let span = doc.get("span_ns").and_then(Json::as_u64).unwrap();
            assert!(attributed > 0, "{body}");
            assert!(attributed <= span, "{body}");

            // The top-K gauges ride the same scrape as everything else.
            let (status, metrics) = get(addr, "/metrics");
            assert_eq!(status, 200);
            assert!(
                metrics.contains("# TYPE uds_hotspot_level_self_ns gauge"),
                "{metrics}"
            );
            assert!(
                metrics.contains("uds_hotspot_level_self_ns{engine=\""),
                "{metrics}"
            );
        });
    }

    #[test]
    fn cache_hit_phase_ms_omits_compile() {
        let log = Shared::default();
        with_server(
            ServeConfig::default(),
            Telemetry::new(),
            Some(Box::new(log.clone())),
            |addr| {
                for _ in 0..2 {
                    let (status, body) = post(addr, "/simulate", &simulate_body(None));
                    assert_eq!(status, 200, "{body}");
                }
            },
        );
        let bytes = log.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("reqlog line parses"))
            .filter(|doc| doc.get("path").and_then(Json::as_str) == Some("/simulate"))
            .collect();
        assert_eq!(lines.len(), 2);
        let executed = [
            "queue_wait",
            "parse",
            "cache_lookup",
            "compile",
            "simulate",
            "serialize",
        ];
        for line in &lines {
            let Some(Json::Obj(phases)) = line.get("phase_ms") else {
                panic!("phase_ms missing: {line:?}");
            };
            // Keys ⊆ the executed-phase universe, never a fixed schema.
            for (key, _) in phases {
                assert!(executed.contains(&key.as_str()), "unknown phase {key}");
            }
        }
        let hit = lines
            .iter()
            .find(|l| l.get("cache").and_then(Json::as_str) == Some("hit"))
            .expect("second request hits the prototype cache");
        let Some(Json::Obj(phases)) = hit.get("phase_ms") else {
            panic!("phase_ms missing on the cache hit");
        };
        assert!(
            phases.iter().all(|(key, _)| key != "compile"),
            "a cache hit must not report a compile phase: {phases:?}"
        );
    }

    #[test]
    fn trace_sink_streams_loadable_chrome_trace() {
        let sink = Shared::default();
        let config = ServeConfig {
            allow_quit: true,
            ..ServeConfig::default()
        };
        let mut server = SimServer::bind("127.0.0.1:0", config, Telemetry::new(), None).unwrap();
        server.set_trace(Box::new(sink.clone()));
        let addr = server.local_addr().unwrap();
        std::thread::scope(|scope| {
            let runner = scope.spawn(|| server.run().expect("serve"));
            let (status, body) = post(addr, "/simulate", &simulate_body(None));
            assert_eq!(status, 200, "{body}");
            let (status, _) = post(addr, "/quitquitquit", "");
            assert_eq!(status, 200);
            runner.join().expect("server thread");
        });
        let bytes = sink.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let doc = Json::parse(&text).expect("trace document parses after close");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let request_root = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("serve.request"))
            .expect("serve.request root span");
        let trace_id = request_root
            .get("args")
            .and_then(|a| a.get("trace_id"))
            .and_then(Json::as_str)
            .expect("trace id stamped on the root");
        assert!(!trace_id.is_empty());
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        for name in ["serve.parse", "serve.cache_lookup", "serve.simulate"] {
            assert!(names.contains(&name), "missing {name}: {names:?}");
        }
        // Phase children ride the root's timeline lane.
        let tid = request_root.get("tid").and_then(Json::as_u64).unwrap();
        let parse = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("serve.parse"))
            .unwrap();
        assert_eq!(parse.get("tid").and_then(Json::as_u64), Some(tid));
    }

    #[test]
    fn trace_lanes_are_named_once_per_connection() {
        // Two keep-alive requests on one connection, one on another:
        // each lane is named by its first request only.
        let sink = Shared::default();
        let mut server = SimServer::bind(
            "127.0.0.1:0",
            ServeConfig::default(),
            Telemetry::new(),
            None,
        )
        .unwrap();
        server.set_trace(Box::new(sink.clone()));
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        std::thread::scope(|scope| {
            let runner = scope.spawn(|| server.run().expect("serve"));
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(&stream);
            for close in ["", "Connection: close\r\n"] {
                (&stream)
                    .write_all(
                        format!("GET /healthz HTTP/1.1\r\nHost: t\r\n{close}\r\n").as_bytes(),
                    )
                    .unwrap();
                assert_eq!(read_one_response(&mut reader).0, 200);
            }
            assert_eq!(get(addr, "/healthz").0, 200);
            handle.request();
            runner.join().expect("server thread");
        });
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let doc = Json::parse(&text).expect("trace document parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let tids = |name: &str| -> Vec<u64> {
            let mut tids: Vec<u64> = events
                .iter()
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .map(|e| e.get("tid").and_then(Json::as_u64).unwrap())
                .collect();
            tids.sort_unstable();
            tids
        };
        let (lanes, roots) = (tids("thread_name"), tids("serve.request"));
        assert_eq!(roots.len(), 3, "{text}");
        let mut distinct = roots.clone();
        distinct.dedup();
        assert_eq!(lanes, distinct, "one thread_name per lane: {text}");
        assert_eq!(lanes.len(), 2);
    }

    #[test]
    fn compiles_leave_a_bounded_sample_and_nest_their_phases_in_the_trace() {
        // K distinct circuits compile K times. The shared registry keeps
        // one distribution sample per compile and no span at all; each
        // request's own trace shows its compile with the compiler's
        // phases inside it.
        const K: usize = 3;
        let telemetry = Telemetry::new();
        let sink = Shared::default();
        let config = ServeConfig {
            allow_quit: true,
            ..ServeConfig::default()
        };
        let mut server = SimServer::bind("127.0.0.1:0", config, telemetry.clone(), None).unwrap();
        server.set_trace(Box::new(sink.clone()));
        let addr = server.local_addr().unwrap();
        std::thread::scope(|scope| {
            let runner = scope.spawn(|| server.run().expect("serve"));
            for k in 0..K {
                // Circuit k is c17 plus k inverters on primary outputs.
                let extra: String = (0..k)
                    .map(|i| format!("OUTPUT(x{i})\nx{i} = NOT(1)\n"))
                    .collect();
                let bench = Json::Str(format!("{C17}{extra}")).render();
                let body = format!("{{\"bench\":{bench},\"vectors\":[[0,1,0,1,0]]}}");
                let (status, reply) = post(addr, "/simulate", &body);
                assert_eq!(status, 200, "{reply}");
                let doc = Json::parse(&reply).unwrap();
                assert_eq!(doc.get("cache").unwrap().as_str(), Some("miss"));
            }
            let (status, _) = post(addr, "/quitquitquit", "");
            assert_eq!(status, 200);
            runner.join().expect("server thread");
        });
        let report = telemetry.snapshot();
        assert!(report.spans.is_empty(), "{:?}", report.spans);
        assert_eq!(
            report.distributions["serve.compile_wall_ns"].count,
            K as u64
        );

        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let doc = Json::parse(&text).expect("trace document parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let named = |name: &'static str| {
            events
                .iter()
                .filter(move |e| e.get("name").and_then(Json::as_str) == Some(name))
        };
        let compiles: Vec<&Json> = named("serve.compile").collect();
        assert_eq!(compiles.len(), K);
        for compile in compiles {
            let field = |event: &Json, key: &str| event.get(key).and_then(Json::as_f64).unwrap();
            let (start, end) = (
                field(compile, "ts"),
                field(compile, "ts") + field(compile, "dur"),
            );
            let tid = compile.get("tid").and_then(Json::as_u64);
            let inside = |event: &&Json| {
                event.get("tid").and_then(Json::as_u64) == tid
                    // One nanosecond of slack for the microsecond floats.
                    && field(event, "ts") >= start - 1e-3
                    && field(event, "ts") + field(event, "dur") <= end + 1e-3
            };
            for phase in ["parallel.levelize", "parallel.codegen"] {
                assert!(
                    named(phase).any(|e| inside(&e)),
                    "{phase} not inside serve.compile on lane {tid:?}"
                );
            }
        }
    }

    #[test]
    fn live_traffic_feeds_the_rolling_throughput_gauge() {
        let telemetry = Telemetry::new();
        with_server(ServeConfig::default(), telemetry.clone(), None, |addr| {
            let (status, body) = post(addr, "/simulate", &simulate_body(None));
            assert_eq!(status, 200, "{body}");
            let (status, metrics) = get(addr, "/metrics");
            assert_eq!(status, 200);
            let sample = metrics
                .lines()
                .find(|l| l.starts_with("uds_engine_vectors_per_s{"))
                .expect("rolling throughput gauge after traffic");
            assert!(sample.contains("engine=\""), "{sample}");
            assert!(sample.contains("word=\""), "{sample}");
            let value: f64 = sample.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value > 0.0, "{sample}");
        });
    }

    #[test]
    fn rate_limit_sheds_burst_with_retry_after() {
        let config = ServeConfig {
            rate_limit_per_s: 1, // burst of 2
            ..ServeConfig::default()
        };
        let telemetry = Telemetry::new();
        with_server(config, telemetry.clone(), None, |addr| {
            let codes: Vec<u16> = (0..4)
                .map(|_| post(addr, "/simulate", &simulate_body(None)).0)
                .collect();
            assert_eq!(&codes[..2], &[200, 200], "burst admits");
            assert!(codes[2..].contains(&429), "{codes:?}");
            // Read-only endpoints are never rate limited.
            assert_eq!(get(addr, "/healthz").0, 200);
        });
        assert!(telemetry.counter("serve.shed.rate_limited") >= 1);
    }
}
