//! The telemetry registry: hierarchical spans, counters, gauges,
//! distributions, and a schema-stable JSON report.
//!
//! Maurer's results are *static* code metrics (PC-set sizes,
//! instructions generated, words trimmed, shifts retained) plus run
//! times; the engines compute all of those internally. [`Telemetry`]
//! is the measurement substrate that keeps them: it implements
//! [`uds_netlist::Probe`], so the pc-set and parallel compilers report
//! their phases and paper metrics into it, while callers add their own
//! spans (parse → compile → simulate) and runtime counters around it.
//! [`Telemetry::snapshot`] freezes everything into a
//! [`TelemetryReport`] that renders as JSON ([`json::Json`], written
//! by hand — the workspace builds offline, so no serde).
//!
//! Determinism contract: for a fixed netlist, engine, and seed, every
//! metric in the report is byte-identical across runs *except* the
//! wall-clock fields, which are exactly the object keys listed in
//! [`TIMING_KEYS`]. Strip those (see [`json::Json::without_keys`]) and
//! two identical runs compare equal — the property the harness uses
//! to diff perf PRs. DESIGN.md §11 documents the span and metric
//! names.
//!
//! Thread safety: the registry is `Clone` (shared handle) and every
//! method takes `&self` behind a mutex. Span nesting uses one shared
//! stack, so concurrent spans from *different* threads interleave into
//! one tree; the workspace's compilers are single-threaded, which
//! keeps the tree well-formed. Counters, gauges, and distributions
//! are safe from any thread.

pub mod json;
pub mod prom;
pub mod rolling;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use uds_netlist::Probe;

use json::Json;

/// Schema identifier embedded in every report.
pub const SCHEMA: &str = "uds-telemetry-v1";

/// Object keys holding wall-clock measurements — the only fields that
/// may differ between two identical runs.
pub const TIMING_KEYS: &[&str] = &["wall_ns", "start_ns"];

/// Warning counter bumped when a gauge is re-registered under a
/// different value (see [`Telemetry::set_gauge`]).
pub const GAUGE_CONFLICTS: &str = "telemetry.gauge_conflicts";

/// One finished span: a named wall-clock phase with nested children.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpanNode {
    /// Phase name (e.g. `"compile"`, `"pcset.codegen"`).
    pub name: String,
    /// Start time in nanoseconds since the registry's [`Telemetry::epoch`].
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub wall_ns: u64,
    /// Logical thread id for timeline export: 0 for the registry's own
    /// span stack, nonzero for spans attached from worker threads.
    pub tid: u64,
    /// Phases that ran nested inside this one, in start order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A finished, childless span that began at `at` and lasted
    /// `wall_ns`, placed on the timeline that starts at `epoch`.
    pub(crate) fn timed(
        name: impl Into<String>,
        epoch: Instant,
        at: Instant,
        wall_ns: u64,
        tid: u64,
    ) -> SpanNode {
        SpanNode {
            name: name.into(),
            start_ns: nanos(at.saturating_duration_since(epoch)),
            wall_ns,
            tid,
            children: Vec::new(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("start_ns", Json::UInt(self.start_ns)),
            ("wall_ns", Json::UInt(self.wall_ns)),
            ("tid", Json::UInt(self.tid)),
            (
                "children",
                Json::Arr(self.children.iter().map(SpanNode::to_json).collect()),
            ),
        ])
    }

    /// Depth-first search for a span by name.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// Running summary of a sampled quantity.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Distribution {
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl Distribution {
    /// Folds one sample in.
    pub fn record(&mut self, sample: u64) {
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.count += 1;
        self.sum += sample;
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("min", Json::UInt(self.min)),
            ("max", Json::UInt(self.max)),
            ("sum", Json::UInt(self.sum)),
            ("mean", Json::Float(self.mean())),
        ])
    }
}

/// Fixed-bucket latency histogram with cumulative Prometheus
/// semantics: `bounds` are inclusive upper bucket edges (strictly
/// increasing), `counts[i]` holds the samples with
/// `sample <= bounds[i]` that fell in no earlier bucket, and the final
/// slot of `counts` is the `+Inf` overflow bucket. Unlike
/// [`Distribution`] (a running min/max/sum summary), a histogram keeps
/// enough shape to read SLO percentiles off a scrape.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    /// Inclusive upper bucket edges, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket sample counts; `bounds.len() + 1` entries, the last
    /// being the overflow (`+Inf`) bucket.
    pub counts: Vec<u64>,
    /// Sum of all samples.
    pub sum: u64,
    /// Samples recorded.
    pub count: u64,
}

impl Histogram {
    /// An empty histogram over the given upper bounds. Bounds are
    /// sorted and deduplicated, so any bucket layout is accepted.
    pub fn new(bounds: &[u64]) -> Self {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let counts = vec![0; bounds.len() + 1];
        Histogram {
            bounds,
            counts,
            sum: 0,
            count: 0,
        }
    }

    /// Folds one sample into its bucket.
    pub fn observe(&mut self, sample: u64) {
        let bucket = self.bounds.partition_point(|&bound| bound < sample);
        self.counts[bucket] += 1;
        self.sum = self.sum.saturating_add(sample);
        self.count += 1;
    }

    /// Cumulative count of samples at or under each bound, ending with
    /// the total — the exact `_bucket{le=...}` series Prometheus
    /// expects, `+Inf` last.
    pub fn cumulative(&self) -> Vec<u64> {
        let mut running = 0;
        self.counts
            .iter()
            .map(|&c| {
                running += c;
                running
            })
            .collect()
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "bounds",
                Json::Arr(self.bounds.iter().map(|&b| Json::UInt(b)).collect()),
            ),
            (
                "counts",
                Json::Arr(self.counts.iter().map(|&c| Json::UInt(c)).collect()),
            ),
            ("sum", Json::UInt(self.sum)),
            ("count", Json::UInt(self.count)),
        ])
    }
}

/// Nanoseconds in `elapsed`, saturating at `u64::MAX`.
pub(crate) fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// An in-flight span (still on the stack).
#[derive(Debug)]
struct OpenSpan {
    name: String,
    start: Instant,
    children: Vec<SpanNode>,
}

/// A span recorder: spans opened with [`SpanStack::start`] nest until
/// [`SpanStack::end`] closes them, and closed outermost spans collect,
/// in the order they close, as the finished roots. Spans timed elsewhere join
/// the innermost open span through [`SpanStack::attach`]. The
/// registry keeps one behind its lock; a serve request keeps its own.
#[derive(Debug)]
pub(crate) struct SpanStack {
    /// Time zero for every `start_ns` recorded here.
    epoch: Instant,
    open: Vec<OpenSpan>,
    finished: Vec<SpanNode>,
}

impl SpanStack {
    pub(crate) fn new(epoch: Instant) -> SpanStack {
        SpanStack {
            epoch,
            open: Vec::new(),
            finished: Vec::new(),
        }
    }

    pub(crate) fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span nested in the innermost open one.
    pub(crate) fn start(&mut self, name: impl Into<String>) {
        self.open.push(OpenSpan {
            name: name.into(),
            start: Instant::now(),
            children: Vec::new(),
        });
    }

    /// Closes the innermost open span; `name` must match its opener.
    pub(crate) fn end(&mut self, name: &str) {
        let Some(open) = self.open.pop() else {
            debug_assert!(false, "span_end(`{name}`) with no open span");
            return;
        };
        debug_assert_eq!(open.name, name, "span_end out of order");
        let wall_ns = nanos(open.start.elapsed());
        let mut node = SpanNode::timed(open.name, self.epoch, open.start, wall_ns, 0);
        node.children = open.children;
        self.attach(node);
    }

    /// Adds a finished span under the innermost open span, or as a
    /// root when none is open.
    pub(crate) fn attach(&mut self, node: SpanNode) {
        match self.open.last_mut() {
            Some(parent) => parent.children.push(node),
            None => self.finished.push(node),
        }
    }

    /// [`SpanStack::attach`] of a span that began at `at` and lasted
    /// `wall_ns` on timeline lane `tid`.
    pub(crate) fn attach_timed(&mut self, name: &str, at: Instant, wall_ns: u64, tid: u64) {
        self.attach(SpanNode::timed(name, self.epoch, at, wall_ns, tid));
    }

    /// The closed outermost spans, in the order they closed.
    pub(crate) fn finished(&self) -> &[SpanNode] {
        &self.finished
    }

    /// Consumes the recorder for its finished roots; spans still open
    /// are dropped unrecorded.
    pub(crate) fn into_finished(self) -> Vec<SpanNode> {
        self.finished
    }
}

#[derive(Debug)]
struct Inner {
    labels: BTreeMap<String, String>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    distributions: BTreeMap<String, Distribution>,
    histograms: BTreeMap<String, Histogram>,
    /// Its epoch (the registry's creation time) is time zero for every
    /// `start_ns` in the registry.
    spans: SpanStack,
    rolling: rolling::RollingState,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            labels: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            distributions: BTreeMap::new(),
            histograms: BTreeMap::new(),
            spans: SpanStack::new(Instant::now()),
            rolling: rolling::RollingState::default(),
        }
    }
}

/// The shared telemetry registry. Cheap to clone (all clones share
/// state); see the module docs for semantics and determinism.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Arc<Mutex<Inner>>,
}

impl Telemetry {
    /// An empty registry.
    pub fn new() -> Self {
        Telemetry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panicking engine is contained by the guard layer; its
        // poisoned lock must not take the telemetry down with it.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attaches a key/value label (circuit name, engine, command).
    pub fn label(&self, key: impl Into<String>, value: impl Into<String>) {
        self.lock().labels.insert(key.into(), value.into());
    }

    /// Opens a span; it closes (and is recorded) when the guard drops.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard {
        let name = name.into();
        self.lock().spans.start(name.clone());
        SpanGuard {
            telemetry: self.clone(),
            name,
        }
    }

    /// Time zero of the registry: every [`SpanNode::start_ns`] counts
    /// nanoseconds from this instant. Worker threads timing spans with
    /// their own [`Instant`]s use it to place [`attach_span`] nodes on
    /// the same timeline.
    ///
    /// [`attach_span`]: Telemetry::attach_span
    pub fn epoch(&self) -> Instant {
        self.lock().spans.epoch()
    }

    /// Attaches an already-finished span tree under the currently open
    /// span (or at the top level when none is open). Lets work timed
    /// off-thread — batch workers time their shards with plain
    /// [`Instant`]s — appear in the single-threaded span hierarchy.
    pub fn attach_span(&self, node: SpanNode) {
        self.lock().spans.attach(node);
    }

    /// [`Telemetry::attach_span`] of a childless span that began at
    /// `at` and lasted `wall_ns`, on timeline lane `tid`.
    pub(crate) fn attach_timed(&self, name: &str, at: Instant, wall_ns: u64, tid: u64) {
        self.lock().spans.attach_timed(name, at, wall_ns, tid);
    }

    /// Adds `delta` to a monotonic counter (created at 0). Saturates at
    /// `u64::MAX` — a pegged counter is visible, a wrapped one lies.
    pub fn add(&self, name: impl Into<String>, delta: u64) {
        let mut inner = self.lock();
        let slot = inner.counters.entry(name.into()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Sets a gauge (idempotent; deterministic static metrics).
    ///
    /// Re-registering a gauge under a *different* value is a contract
    /// violation (two writers disagree about a supposedly deterministic
    /// metric): the last write wins, but the conflict is surfaced by
    /// bumping the [`GAUGE_CONFLICTS`] counter so reports show it.
    pub fn set_gauge(&self, name: impl Into<String>, value: u64) {
        let mut inner = self.lock();
        let previous = inner.gauges.insert(name.into(), value);
        if previous.is_some_and(|p| p != value) {
            let warn = inner
                .counters
                .entry(GAUGE_CONFLICTS.to_owned())
                .or_insert(0);
            *warn = warn.saturating_add(1);
        }
    }

    /// Updates a *level* gauge: a quantity that legitimately moves over
    /// a process's lifetime (resident cache entries, in-flight
    /// requests). Unlike [`Telemetry::set_gauge`], changing the value
    /// is not a conflict — level gauges are expected to change — so
    /// [`GAUGE_CONFLICTS`] is never bumped. Levels share the gauge
    /// namespace and render identically in reports.
    pub fn set_level(&self, name: impl Into<String>, value: u64) {
        self.lock().gauges.insert(name.into(), value);
    }

    /// Folds one completed simulate into the rolling throughput
    /// sampler: `vectors` results produced in `wall_ns` by `engine` at
    /// `word_bits`. Snapshots export the per-key window rate and EWMA
    /// as the labeled gauge families `engine.vectors_per_s` and
    /// `engine.vectors_per_s.ewma` (see [`rolling`]).
    pub fn record_throughput(&self, engine: &str, word_bits: u32, vectors: u64, wall_ns: u64) {
        let mut inner = self.lock();
        let now_s = inner.spans.epoch().elapsed().as_secs();
        inner
            .rolling
            .record_throughput(engine, word_bits, vectors, wall_ns, now_s);
    }

    /// Samples a moving level (queue depth, in-flight requests) into
    /// the rolling sampler. Unlike [`Telemetry::set_level`] — which
    /// keeps only the latest value — the rolling view exports the
    /// last-60s mean and an EWMA as the labeled family
    /// `<name>.rolling{stat}`.
    pub fn observe_rolling(&self, name: &str, value: u64) {
        let mut inner = self.lock();
        let now_s = inner.spans.epoch().elapsed().as_secs();
        inner.rolling.observe_level(name, value, now_s);
    }

    /// Folds a sample into a named distribution.
    pub fn record(&self, name: impl Into<String>, sample: u64) {
        self.lock()
            .distributions
            .entry(name.into())
            .or_default()
            .record(sample);
    }

    /// Folds a sample into a named fixed-bucket histogram. The first
    /// observation fixes the bucket layout; `bounds` is ignored on
    /// every later call, so one call site's layout wins and samples
    /// from all writers land in the same buckets.
    pub fn observe_histogram(&self, name: impl Into<String>, bounds: &[u64], sample: u64) {
        self.lock()
            .histograms
            .entry(name.into())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(sample);
    }

    /// A snapshot of a named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        self.lock().gauges.get(name).copied()
    }

    /// Freezes the registry into a report. Spans still open (guards
    /// alive) are not included — drop them first. Rolling samplers are
    /// folded into labeled gauges at this moment, so every snapshot
    /// reads a fresh window.
    pub fn snapshot(&self) -> TelemetryReport {
        let inner = self.lock();
        debug_assert!(
            inner.spans.open.is_empty(),
            "snapshot with {} span(s) still open",
            inner.spans.open.len()
        );
        let mut labeled_gauges: BTreeMap<String, Vec<LabeledGauge>> = BTreeMap::new();
        if !inner.rolling.is_empty() {
            let now_s = inner.spans.epoch().elapsed().as_secs();
            for ((engine, word), stat) in inner.rolling.throughput_stats(now_s) {
                let labels = vec![
                    ("engine".to_owned(), engine),
                    ("word".to_owned(), word.to_string()),
                ];
                labeled_gauges
                    .entry("engine.vectors_per_s".to_owned())
                    .or_default()
                    .push(LabeledGauge {
                        labels: labels.clone(),
                        value: stat.window,
                    });
                labeled_gauges
                    .entry("engine.vectors_per_s.ewma".to_owned())
                    .or_default()
                    .push(LabeledGauge {
                        labels,
                        value: stat.ewma,
                    });
            }
            for (name, stat) in inner.rolling.level_stats(now_s) {
                labeled_gauges
                    .entry(format!("{name}.rolling"))
                    .or_default()
                    .extend([
                        LabeledGauge {
                            labels: vec![("stat".to_owned(), "window_avg".to_owned())],
                            value: stat.window,
                        },
                        LabeledGauge {
                            labels: vec![("stat".to_owned(), "ewma".to_owned())],
                            value: stat.ewma,
                        },
                    ]);
            }
        }
        TelemetryReport {
            labels: inner.labels.clone(),
            spans: inner.spans.finished().to_vec(),
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            labeled_gauges,
            distributions: inner.distributions.clone(),
            histograms: inner.histograms.clone(),
        }
    }
}

/// One sample of a labeled gauge family: its label pairs (in render
/// order) plus a floating-point value. Only the rolling samplers
/// produce these today; plain gauges stay unlabeled integers.
#[derive(Clone, PartialEq, Debug)]
pub struct LabeledGauge {
    /// Label key/value pairs, rendered in this order.
    pub labels: Vec<(String, String)>,
    /// The gauge value at snapshot time.
    pub value: f64,
}

/// Name of the build-information gauge (value is always 1; the build
/// facts ride as `build.*` labels — the standard Prometheus
/// `*_build_info` idiom, which [`prom`] renders as labels on
/// `uds_build_info`).
pub const BUILD_INFO_GAUGE: &str = "build_info";

/// Registers the standard build-info gauge: `build_info = 1` plus
/// `build.version` / `build.word_bits` / `build.profile` /
/// `build.block_isa` labels, so every `--stats` report and `/metrics`
/// scrape identifies the binary that produced it and the parallel block
/// executor it runs on this CPU.
pub fn record_build_info(telemetry: &Telemetry, word_bits: u32) {
    telemetry.set_gauge(BUILD_INFO_GAUGE, 1);
    telemetry.label("build.version", env!("CARGO_PKG_VERSION"));
    telemetry.label("build.word_bits", word_bits.to_string());
    telemetry.label("build.block_isa", uds_parallel::block_isa());
    telemetry.label(
        "build.profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
}

/// The compilers see [`Telemetry`] through the base crate's
/// [`Probe`] trait; counters map to add semantics, gauges to set.
impl Probe for Telemetry {
    fn span_start(&self, name: &str) {
        self.lock().spans.start(name);
    }

    fn span_end(&self, name: &str) {
        self.lock().spans.end(name);
    }

    fn count(&self, name: &str, delta: u64) {
        self.add(name, delta);
    }

    fn gauge(&self, name: &str, value: u64) {
        self.set_gauge(name, value);
    }

    fn record(&self, name: &str, sample: u64) {
        Telemetry::record(self, name, sample);
    }
}

/// RAII guard returned by [`Telemetry::span`].
#[must_use = "dropping the guard immediately would close the span at once"]
pub struct SpanGuard {
    telemetry: Telemetry,
    name: String,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.telemetry.lock().spans.end(&self.name);
    }
}

/// A frozen snapshot of a [`Telemetry`] registry, renderable as JSON.
#[derive(Clone, PartialEq, Debug)]
pub struct TelemetryReport {
    /// Free-form labels (circuit, engine, command, seed…).
    pub labels: BTreeMap<String, String>,
    /// Top-level finished spans in start order.
    pub spans: Vec<SpanNode>,
    /// Monotonic runtime counters.
    pub counters: BTreeMap<String, u64>,
    /// Deterministic static metrics.
    pub gauges: BTreeMap<String, u64>,
    /// Labeled gauge families from the rolling samplers, keyed by
    /// family name. Empty (and omitted from JSON) unless live traffic
    /// was sampled.
    pub labeled_gauges: BTreeMap<String, Vec<LabeledGauge>>,
    /// Sampled distributions.
    pub distributions: BTreeMap<String, Distribution>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl TelemetryReport {
    /// Depth-first search across all top-level spans.
    pub fn find_span(&self, name: &str) -> Option<&SpanNode> {
        self.spans.iter().find_map(|s| s.find(name))
    }

    /// The report as a JSON document (see DESIGN.md §11 for the
    /// schema). Key order is fixed: `BTreeMap` sources make the
    /// rendering byte-stable for identical runs.
    pub fn to_json(&self) -> Json {
        let string_map = |map: &BTreeMap<String, String>| {
            Json::Obj(
                map.iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            )
        };
        let uint_map = |map: &BTreeMap<String, u64>| {
            Json::Obj(
                map.iter()
                    .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                    .collect(),
            )
        };
        let mut members = vec![
            ("schema".to_owned(), Json::Str(SCHEMA.to_owned())),
            ("labels".to_owned(), string_map(&self.labels)),
            (
                "spans".to_owned(),
                Json::Arr(self.spans.iter().map(SpanNode::to_json).collect()),
            ),
            ("counters".to_owned(), uint_map(&self.counters)),
            ("gauges".to_owned(), uint_map(&self.gauges)),
        ];
        // Additive: the member exists only when a rolling sampler has
        // live data, so reports from one-shot runs stay byte-stable.
        if !self.labeled_gauges.is_empty() {
            members.push((
                "labeled_gauges".to_owned(),
                Json::Obj(
                    self.labeled_gauges
                        .iter()
                        .map(|(family, samples)| {
                            (
                                family.clone(),
                                Json::Arr(
                                    samples
                                        .iter()
                                        .map(|s| {
                                            Json::obj([
                                                (
                                                    "labels",
                                                    Json::Obj(
                                                        s.labels
                                                            .iter()
                                                            .map(|(k, v)| {
                                                                (k.clone(), Json::Str(v.clone()))
                                                            })
                                                            .collect(),
                                                    ),
                                                ),
                                                ("value", Json::Float(s.value)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ));
        }
        members.extend([
            (
                "distributions".to_owned(),
                Json::Obj(
                    self.distributions
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "histograms".to_owned(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ]);
        Json::Obj(members)
    }

    /// Renders the JSON report with a trailing newline.
    pub fn render_json(&self) -> String {
        let mut out = self.to_json().render();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_guard_scope() {
        let telemetry = Telemetry::new();
        {
            let _outer = telemetry.span("compile");
            {
                let _inner = telemetry.span("levelize");
            }
            let _sibling = telemetry.span("codegen");
        }
        let report = telemetry.snapshot();
        assert_eq!(report.spans.len(), 1);
        let compile = &report.spans[0];
        assert_eq!(compile.name, "compile");
        let names: Vec<&str> = compile.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["levelize", "codegen"]);
        assert!(report.find_span("levelize").is_some());
    }

    #[test]
    fn timed_spans_attach_under_the_open_span() {
        let telemetry = Telemetry::new();
        let at = telemetry.epoch() + Duration::from_millis(3);
        {
            let _outer = telemetry.span("run");
            telemetry.attach_timed("batch.shard.0", at, 5, 1);
        }
        telemetry.attach_timed("batch.prepass", at, 7, 0);
        let report = telemetry.snapshot();
        let names: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["run", "batch.prepass"]);
        let shard = &report.spans[0].children[0];
        assert_eq!(
            (
                shard.name.as_str(),
                shard.start_ns,
                shard.wall_ns,
                shard.tid
            ),
            ("batch.shard.0", 3_000_000, 5, 1)
        );
        assert!(report.spans[1].children.is_empty());
    }

    #[test]
    fn counters_gauges_and_distributions() {
        let telemetry = Telemetry::new();
        telemetry.add("vectors", 3);
        telemetry.add("vectors", 2);
        assert_eq!(telemetry.counter("vectors"), 5);
        telemetry.set_gauge("word_ops", 10);
        telemetry.set_gauge("word_ops", 10); // idempotent
        assert_eq!(telemetry.gauge_value("word_ops"), Some(10));
        telemetry.record("settle", 4);
        telemetry.record("settle", 2);
        let report = telemetry.snapshot();
        let dist = report.distributions["settle"];
        assert_eq!((dist.count, dist.min, dist.max, dist.sum), (2, 2, 4, 6));
        assert_eq!(dist.mean(), 3.0);
    }

    #[test]
    fn histograms_bucket_cumulatively() {
        let telemetry = Telemetry::new();
        let bounds = [5, 10, 50];
        telemetry.observe_histogram("req_ms", &bounds, 3);
        telemetry.observe_histogram("req_ms", &bounds, 5); // inclusive edge
        telemetry.observe_histogram("req_ms", &bounds, 7);
        telemetry.observe_histogram("req_ms", &bounds, 999); // overflow
        let histo = telemetry.histogram("req_ms").unwrap();
        assert_eq!(histo.counts, vec![2, 1, 0, 1]);
        assert_eq!(histo.cumulative(), vec![2, 3, 3, 4]);
        assert_eq!((histo.sum, histo.count), (1014, 4));
        // Later callers cannot re-shape the buckets.
        telemetry.observe_histogram("req_ms", &[1], 2);
        let histo = telemetry.histogram("req_ms").unwrap();
        assert_eq!(histo.bounds, vec![5, 10, 50]);
        assert_eq!(histo.count, 5);
        // Unsorted bounds with duplicates normalize.
        assert_eq!(Histogram::new(&[10, 5, 10]).bounds, vec![5, 10]);
    }

    #[test]
    fn clones_share_state() {
        let telemetry = Telemetry::new();
        let handle = telemetry.clone();
        handle.add("n", 1);
        assert_eq!(telemetry.counter("n"), 1);
    }

    #[test]
    fn report_json_parses_and_is_stable_modulo_timing() {
        let build = || {
            let telemetry = Telemetry::new();
            telemetry.label("circuit", "c17");
            {
                let _span = telemetry.span("compile");
                telemetry.set_gauge("word_ops", 7);
            }
            telemetry.add("vectors", 2);
            telemetry.snapshot().render_json()
        };
        let (a, b) = (build(), build());
        let ja = Json::parse(&a).unwrap().without_keys(TIMING_KEYS);
        let jb = Json::parse(&b).unwrap().without_keys(TIMING_KEYS);
        assert_eq!(ja, jb);
        let doc = Json::parse(&a).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert!(doc.get("spans").unwrap().as_arr().is_some());
    }

    #[test]
    fn level_gauges_move_without_conflict() {
        let telemetry = Telemetry::new();
        telemetry.set_level("cache.entries", 1);
        telemetry.set_level("cache.entries", 5);
        telemetry.set_level("cache.entries", 2);
        assert_eq!(telemetry.gauge_value("cache.entries"), Some(2));
        assert_eq!(telemetry.counter(GAUGE_CONFLICTS), 0);
    }

    #[test]
    fn build_info_gauge_and_labels() {
        let telemetry = Telemetry::new();
        record_build_info(&telemetry, 64);
        assert_eq!(telemetry.gauge_value(BUILD_INFO_GAUGE), Some(1));
        let report = telemetry.snapshot();
        assert_eq!(report.labels["build.word_bits"], "64");
        assert!(!report.labels["build.version"].is_empty());
        assert!(matches!(
            report.labels["build.profile"].as_str(),
            "debug" | "release"
        ));
        assert!(matches!(
            report.labels["build.block_isa"].as_str(),
            "x86-64-v4" | "x86-64-v3" | "baseline"
        ));
        // Registering twice is idempotent — no gauge conflict.
        record_build_info(&telemetry, 64);
        assert_eq!(telemetry.counter(GAUGE_CONFLICTS), 0);
    }

    #[test]
    fn rolling_samples_export_as_labeled_gauges() {
        let telemetry = Telemetry::new();
        // Nothing sampled → no member in the JSON at all.
        let report = telemetry.snapshot();
        assert!(report.labeled_gauges.is_empty());
        assert!(report.to_json().get("labeled_gauges").is_none());

        telemetry.record_throughput("parallel-pt-trim", 32, 640, 1_000_000);
        telemetry.observe_rolling("serve.queue_depth", 3);
        let report = telemetry.snapshot();
        let vps = &report.labeled_gauges["engine.vectors_per_s"];
        assert_eq!(vps.len(), 1);
        assert_eq!(
            vps[0].labels,
            vec![
                ("engine".to_owned(), "parallel-pt-trim".to_owned()),
                ("word".to_owned(), "32".to_owned()),
            ]
        );
        assert!(vps[0].value > 0.0);
        assert!(report
            .labeled_gauges
            .contains_key("engine.vectors_per_s.ewma"));
        let depth = &report.labeled_gauges["serve.queue_depth.rolling"];
        let stats: Vec<&str> = depth.iter().map(|s| s.labels[0].1.as_str()).collect();
        assert_eq!(stats, ["window_avg", "ewma"]);
        let doc = Json::parse(&report.render_json()).unwrap();
        assert!(doc.get("labeled_gauges").is_some());
    }

    #[test]
    fn probe_impl_maps_to_registry() {
        let telemetry = Telemetry::new();
        let probe: &dyn Probe = &telemetry;
        probe.span_start("phase");
        probe.count("c", 2);
        probe.gauge("g", 9);
        probe.span_end("phase");
        assert_eq!(telemetry.counter("c"), 2);
        assert_eq!(telemetry.gauge_value("g"), Some(9));
        assert!(telemetry.snapshot().find_span("phase").is_some());
    }
}
