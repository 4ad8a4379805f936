//! The metric table and the statistics every figure is reduced with.
//!
//! `BENCHMARK.json` at the repository root mirrors [`END_TO_END`] and
//! [`PER_LAYER`]; a unit test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

/// One end-to-end metric: what it is called, its unit, and the share of
/// the baseline median by which it may worsen before `compare` calls it
/// a regression — but never less than `floor`, in the metric's unit.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub floor: f64,
}

const fn spec(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
        floor: 0.0,
    }
}

impl Spec {
    /// The bound as a share of `baseline`, raised to the floor.
    pub fn bound_at(&self, baseline: f64) -> f64 {
        self.bound.max(self.floor / baseline.abs())
    }
}

/// The gated metrics: every workload reports them with tracing off,
/// `BENCHMARK.json` lists them, and each is steady enough on a shared
/// host to hold to its bound (README.md, "End-to-end metrics").
pub const END_TO_END: [Spec; 3] = [
    spec("vectors_per_s", "vectors/s", Better::Higher, 0.25),
    spec("peak_rss_mb", "MiB", Better::Lower, 0.10),
    // A few-millisecond set-up moves by more than a share between two
    // quiet runs, so it may also grow by 10 ms.
    Spec {
        floor: 0.010,
        ..spec("setup_s", "s", Better::Lower, 0.25)
    },
];

/// The daemon's own metrics: `serve-mix` alone reports them, so they
/// are recorded by `run` and judged by `compare` but not listed in
/// `BENCHMARK.json`, whose end-to-end metrics every workload reports.
pub const REPORTED: [Spec; 4] = [
    spec("latency_p50_ms", "ms", Better::Lower, 0.25),
    spec("requests_per_s", "req/s", Better::Higher, 0.25),
    spec("latency_p99_ms", "ms", Better::Lower, 0.25),
    spec("miss_latency_p50_ms", "ms", Better::Lower, 0.25),
];

/// Per-layer metrics of the traced run, with units; lower is better for
/// all of them. Each is measured on the workload's own circuit (c432
/// for `serve-mix`) by calling the layer's public function in-process.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("netlist.parse_us", "us"),
    ("parallel.build_ms", "ms"),
    ("pcset.build_ms", "ms"),
    ("native.build_cold_ms", "ms"),
    ("parallel.simulate_ns_per_vector", "ns"),
    ("parallel.word_ops_per_vector", "count"),
    ("pcset.simulate_ns_per_vector", "ns"),
    ("native.simulate_ns_per_vector", "ns"),
    ("guard.simulate_ns_per_vector", "ns"),
    ("guard.self_ns_per_vector", "ns"),
    ("guard.retained_bytes_per_vector", "B"),
    ("batch.fork_us", "us"),
    ("batch.run_ns_per_vector", "ns"),
    ("batch.self_ns_per_vector", "ns"),
    ("vectors.generate_ns_per_vector", "ns"),
    ("frontend.self_ns_per_vector", "ns"),
    ("cache.lookup_hit_us", "us"),
    ("cache.insert_us", "us"),
    ("serve.body_parse_us", "us"),
    ("serve.simulate_us", "us"),
    ("perf.measure_s", "s"),
];

/// The end-to-end spec named `name`, from either table.
pub fn end_to_end_spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(&REPORTED).find(|s| s.name == name)
}

/// A measured value with its unit and the number of samples it was
/// reduced from.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Measured {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Measured {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Median, minimum and maximum of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Summarizes `samples`; `None` when there are none.
pub fn summary(samples: &[f64]) -> Option<Summary> {
    let sorted = sorted(samples);
    let n = sorted.len();
    let (&min, &max) = (sorted.first()?, sorted.last()?);
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Some(Summary {
        median,
        min,
        max,
        n,
    })
}

/// The median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    summary(samples).map_or(f64::NAN, |s| s.median)
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(samples, n=4)` (the default "exclusive"
/// method) does; `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(samples);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median: the
/// run-to-run spread `compare` holds against a metric's bound.
pub fn relative_spread(samples: &[f64]) -> f64 {
    match quartiles(samples) {
        Some((q1, q3)) => (q3 - q1) / median(samples).abs(),
        None => 0.0,
    }
}

/// The nearest-rank `p`-quantile of `samples`, refused unless at least
/// ten samples lie beyond it — a tail percentile resting on fewer is
/// noise, and the caller fails the run rather than report it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let data = sorted(samples);
    let n = data.len();
    // The epsilon keeps float error in `p * n` (0.99 × 1000) from
    // pushing the rank up by one.
    let rank = (p * n as f64 - 1e-9).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < 10 {
        return Err(format!(
            "p{} needs at least 10 samples beyond it, but {n} samples leave {beyond}",
            p * 100.0
        ));
    }
    Ok(data[rank - 1])
}

/// A layer's self time: the median of the layer minus the median of the
/// layer it wraps. Negative results are kept — they mean the two
/// medians do not resolve the layer, which is itself worth reporting.
pub fn self_time(outer: &[f64], inner: &[f64]) -> f64 {
    median(outer) - median(inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_and_max() {
        let s = summary(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 3));
        let s = summary(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max), (2.5, 1.0, 4.0));
        assert!(summary(&[]).is_none());
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), Some((1.25, 7.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((relative_spread(&data) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&data, 0.99), Ok(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        let err = tail_percentile(&short, 0.99).unwrap_err();
        assert!(err.contains("leave 9"), "{err}");
        assert!(tail_percentile(&[], 0.5).is_err());
        let small: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail_percentile(&small, 0.5), Ok(11.0));
    }

    #[test]
    fn ledger_subtraction_keeps_negative_self_times() {
        assert_eq!(self_time(&[10.0, 12.0, 11.0], &[4.0, 5.0, 6.0]), 6.0);
        assert_eq!(self_time(&[4.0, 5.0, 6.0], &[10.0, 12.0, 11.0]), -6.0);
    }

    #[test]
    fn benchmark_json_mirrors_the_metric_tables() {
        use uds_core::telemetry::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, spec) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(spec.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(spec.unit));
            let better = match spec.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(spec.bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, (name, unit)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(*name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some("lower"));
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
