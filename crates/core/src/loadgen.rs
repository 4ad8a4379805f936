//! A small load generator for the simulation daemon (`udsim loadgen`).
//!
//! Robustness claims about the serve path — "sheds deterministically
//! under overload", "never melts down at concurrency above the worker
//! pool" — are only claims until something actually applies the load.
//! This module is that something: a hand-rolled, dependency-free HTTP
//! client fleet that hammers one endpoint and reports per-status
//! counts plus latency percentiles as a schema-stable JSON document
//! (`uds-loadgen-v1`), machine-checkable in CI.
//!
//! Two pacing modes:
//!
//! * **closed loop** (`rate_per_s == 0`): each of the `concurrency`
//!   workers fires its next request the moment the previous answer
//!   lands. Offered load adapts to the server — the classic saturation
//!   probe.
//! * **open loop** (`rate_per_s > 0`): arrivals are scheduled on a
//!   fixed global cadence that does *not* slow down when the server
//!   does, which is what exposes queueing collapse. Arrivals are still
//!   executed by the worker fleet, so a stalled server caps in-flight
//!   requests at `concurrency` (a fully unbounded open loop would need
//!   unbounded sockets).
//!
//! Every request rides its own connection and asks `Connection:
//! close` — deliberately the worst case for the daemon's accept path,
//! and immune to keep-alive accounting skew.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::telemetry::json::Json;

/// Schema tag on the loadgen JSON report.
pub const LOADGEN_SCHEMA: &str = "uds-loadgen-v1";

/// One load-generation campaign.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Target `host:port`.
    pub addr: String,
    /// Request path, e.g. `/simulate`.
    pub path: String,
    /// `GET`, `POST`, …
    pub method: String,
    /// Request body (`POST` only; empty for `GET`).
    pub body: String,
    /// Worker fleet size (max in-flight requests).
    pub concurrency: usize,
    /// Open-loop arrival rate in requests per second; 0 = closed loop.
    pub rate_per_s: u32,
    /// Campaign length, measured from the first arrival.
    pub duration: Duration,
    /// Per-request socket timeout (connect, read, write).
    pub timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:1990".to_owned(),
            path: "/healthz".to_owned(),
            method: "GET".to_owned(),
            body: String::new(),
            concurrency: 4,
            rate_per_s: 0,
            duration: Duration::from_secs(2),
            timeout: Duration::from_secs(30),
        }
    }
}

/// What one finished campaign measured.
#[derive(Debug)]
pub struct LoadgenReport {
    /// `"closed"` or `"open"`.
    pub mode: &'static str,
    /// Requests that produced a parseable HTTP status.
    pub requests: u64,
    /// Requests that died in transport (connect/read/write failure).
    pub errors: u64,
    /// Completed requests per HTTP status code.
    pub status_counts: BTreeMap<u16, u64>,
    /// End-to-end latency percentiles in nanoseconds, keyed by
    /// `"p50"`, `"p90"`, `"p99"`, plus `"min"`/`"max"`/`"mean"`.
    pub latency_ns: BTreeMap<&'static str, u64>,
    /// Wall clock of the whole campaign.
    pub elapsed: Duration,
    /// The server's own post-campaign view, scraped from `/metrics`
    /// after the fleet drained (`None` if the scrape failed — the
    /// client-side numbers stand on their own).
    pub server: Option<ServerSample>,
}

/// A point-in-time scrape of the target daemon's `/metrics`, pairing
/// the client-side latency picture with the server's live rolling
/// throughput — one document answers both "how fast did
/// requests complete" and "how fast did the server think it was".
#[derive(Debug, Default, PartialEq)]
pub struct ServerSample {
    /// Every live `uds_engine_vectors_per_s{engine,word}` sample — the
    /// rolling-window rate fed by real traffic, absent until the
    /// server has simulated something.
    pub engine_vectors_per_s: Vec<EngineThroughput>,
}

/// One `uds_engine_vectors_per_s` sample.
#[derive(Debug, PartialEq)]
pub struct EngineThroughput {
    /// The `engine` label.
    pub engine: String,
    /// The `word` label (32 or 64).
    pub word_bits: u64,
    /// The windowed vectors-per-second rate.
    pub vectors_per_s: f64,
}

impl ServerSample {
    /// The `server` member of the `uds-loadgen-v1` document.
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "engine_vectors_per_s",
            Json::Arr(
                self.engine_vectors_per_s
                    .iter()
                    .map(|sample| {
                        Json::obj([
                            ("engine", Json::Str(sample.engine.clone())),
                            ("word_bits", Json::UInt(sample.word_bits)),
                            ("vectors_per_s", Json::Float(sample.vectors_per_s)),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

/// The value of `key="…"` inside a Prometheus label block.
fn label_value(labels: &str, key: &str) -> Option<String> {
    let marker = format!("{key}=\"");
    let start = labels.find(&marker)? + marker.len();
    let rest = &labels[start..];
    Some(rest[..rest.find('"')?].to_owned())
}

/// Extracts the fields [`ServerSample`] cares about from a Prometheus
/// text exposition. Unknown lines are skipped — the scrape must work
/// against both older and newer daemons.
pub fn parse_metrics_sample(metrics: &str) -> ServerSample {
    let mut sample = ServerSample::default();
    for line in metrics.lines() {
        if let Some(rest) = line.strip_prefix("uds_engine_vectors_per_s{") {
            let Some((labels, value)) = rest.split_once('}') else {
                continue;
            };
            let (Some(engine), Some(word), Ok(rate)) = (
                label_value(labels, "engine"),
                label_value(labels, "word"),
                value.trim().parse::<f64>(),
            ) else {
                continue;
            };
            sample.engine_vectors_per_s.push(EngineThroughput {
                engine,
                word_bits: word.parse().unwrap_or(0),
                vectors_per_s: rate,
            });
        }
    }
    sample
}

/// One `GET` on a fresh connection, returning the response body.
fn http_get_body(addr: &str, path: &str, timeout: Duration) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply)?;
    let text = String::from_utf8_lossy(&reply);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_owned())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "unframed HTTP response")
        })?;
    Ok(body)
}

impl LoadgenReport {
    /// Completed requests per second over the campaign.
    pub fn throughput_per_s(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.requests as f64 / secs
        } else {
            0.0
        }
    }

    /// Total responses in the given status class (e.g. `5` for 5xx).
    pub fn class_count(&self, class: u16) -> u64 {
        self.status_counts
            .iter()
            .filter(|(status, _)| *status / 100 == class)
            .map(|(_, n)| n)
            .sum()
    }

    /// The `uds-loadgen-v1` document.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj([
            ("schema", Json::Str(LOADGEN_SCHEMA.to_owned())),
            ("mode", Json::Str(self.mode.to_owned())),
            ("requests", Json::UInt(self.requests)),
            ("errors", Json::UInt(self.errors)),
            ("elapsed_ns", {
                Json::UInt(u64::try_from(self.elapsed.as_nanos()).unwrap_or(u64::MAX))
            }),
            ("throughput_per_s", Json::Float(self.throughput_per_s())),
            (
                "status_counts",
                Json::Obj(
                    self.status_counts
                        .iter()
                        .map(|(status, n)| (status.to_string(), Json::UInt(*n)))
                        .collect(),
                ),
            ),
            (
                "latency_ns",
                Json::Obj(
                    self.latency_ns
                        .iter()
                        .map(|(key, value)| ((*key).to_owned(), Json::UInt(*value)))
                        .collect(),
                ),
            ),
        ]);
        if let (Json::Obj(members), Some(server)) = (&mut doc, &self.server) {
            members.push(("server".to_owned(), server.to_json()));
        }
        doc
    }
}

/// Per-worker tally, merged after the fleet joins.
#[derive(Default)]
struct WorkerTally {
    statuses: BTreeMap<u16, u64>,
    latencies_ns: Vec<u64>,
    errors: u64,
}

/// Issues one request on a fresh connection; returns the status code.
fn one_request(config: &LoadgenConfig) -> std::io::Result<u16> {
    let stream = TcpStream::connect(&config.addr)?;
    stream.set_read_timeout(Some(config.timeout))?;
    stream.set_write_timeout(Some(config.timeout))?;
    let mut stream = stream;
    let head = if config.body.is_empty() {
        format!(
            "{} {} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\r\n",
            config.method, config.path
        )
    } else {
        format!(
            "{} {} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            config.method,
            config.path,
            config.body.len(),
            config.body
        )
    };
    stream.write_all(head.as_bytes())?;
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply)?;
    let status = reply
        .split(|&b| b == b' ')
        .nth(1)
        .and_then(|token| std::str::from_utf8(token).ok())
        .and_then(|token| token.parse::<u16>().ok());
    status.ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "unparseable status line")
    })
}

/// Percentile by nearest-rank over a sorted sample set.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Runs the campaign and blocks until the fleet drains.
pub fn run_loadgen(config: &LoadgenConfig) -> LoadgenReport {
    let start = Instant::now();
    let deadline = start + config.duration;
    // Open-loop arrivals draw monotone ticket numbers; ticket `n`
    // fires at `start + n / rate`. Closed loop ignores tickets.
    let tickets = AtomicU64::new(0);
    let tallies: Mutex<Vec<WorkerTally>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..config.concurrency.max(1) {
            scope.spawn(|| {
                let mut tally = WorkerTally::default();
                loop {
                    if config.rate_per_s > 0 {
                        let ticket = tickets.fetch_add(1, Ordering::Relaxed);
                        let due = start
                            + Duration::from_secs_f64(ticket as f64 / f64::from(config.rate_per_s));
                        if due >= deadline {
                            break;
                        }
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                    } else if Instant::now() >= deadline {
                        break;
                    }
                    let clock = Instant::now();
                    match one_request(config) {
                        Ok(status) => {
                            let wall =
                                u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
                            tally.latencies_ns.push(wall);
                            *tally.statuses.entry(status).or_insert(0) += 1;
                        }
                        Err(_) => tally.errors += 1,
                    }
                }
                tallies
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(tally);
            });
        }
    });

    let elapsed = start.elapsed();
    let merged = tallies.into_inner().unwrap_or_else(|e| e.into_inner());
    let mut status_counts: BTreeMap<u16, u64> = BTreeMap::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut errors = 0u64;
    for tally in merged {
        for (status, n) in tally.statuses {
            *status_counts.entry(status).or_insert(0) += n;
        }
        latencies.extend(tally.latencies_ns);
        errors += tally.errors;
    }
    latencies.sort_unstable();
    let requests = latencies.len() as u64;
    let mean = latencies
        .iter()
        .sum::<u64>()
        .checked_div(requests)
        .unwrap_or(0);
    let latency_ns = BTreeMap::from([
        ("min", latencies.first().copied().unwrap_or(0)),
        ("p50", percentile(&latencies, 0.50)),
        ("p90", percentile(&latencies, 0.90)),
        ("p99", percentile(&latencies, 0.99)),
        ("max", latencies.last().copied().unwrap_or(0)),
        ("mean", mean),
    ]);
    // The fleet is drained; one last scrape captures the server's own
    // rolling view of the traffic it just absorbed. Best-effort — a
    // dead or pre-metrics server degrades to `server: None`.
    let server = http_get_body(&config.addr, "/metrics", config.timeout)
        .ok()
        .map(|metrics| parse_metrics_sample(&metrics));
    LoadgenReport {
        mode: if config.rate_per_s > 0 {
            "open"
        } else {
            "closed"
        },
        requests,
        errors,
        status_counts,
        latency_ns,
        elapsed,
        server,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{ServeConfig, SimServer};
    use crate::telemetry::Telemetry;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&sorted, 0.5), 51); // rank round(99*.5)=50
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn closed_loop_campaign_counts_every_response() {
        let server = SimServer::bind(
            "127.0.0.1:0",
            ServeConfig::default(),
            Telemetry::new(),
            None,
        )
        .expect("bind");
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.shutdown_handle();
        std::thread::scope(|scope| {
            let runner = scope.spawn(|| server.run().expect("serve"));
            let report = run_loadgen(&LoadgenConfig {
                addr,
                concurrency: 2,
                duration: Duration::from_millis(200),
                ..LoadgenConfig::default()
            });
            handle.request();
            runner.join().expect("server thread");

            assert_eq!(report.mode, "closed");
            assert!(report.requests > 0, "{report:?}");
            assert_eq!(report.errors, 0, "{report:?}");
            assert_eq!(report.class_count(2), report.requests, "{report:?}");
            assert!(report.latency_ns["max"] >= report.latency_ns["p50"]);
            let doc = report.to_json();
            assert_eq!(doc.get("schema").unwrap().as_str(), Some(LOADGEN_SCHEMA));
            assert!(doc.get("status_counts").unwrap().get("200").is_some());
            // The end-of-run scrape reached the live server.
            assert!(report.server.is_some(), "{report:?}");
            assert!(doc.get("server").is_some());
        });
    }

    #[test]
    fn metrics_scrape_extracts_rolling_throughput() {
        let metrics = "uds_build_info{version=\"0.1.0\"} 1\n\
                       # TYPE uds_engine_vectors_per_s gauge\n\
                       uds_engine_vectors_per_s{engine=\"native\",word=\"64\"} 1250000.5\n\
                       uds_engine_vectors_per_s{engine=\"parallel\",word=\"32\"} 300.25\n\
                       uds_engine_vectors_per_s_ewma{engine=\"native\",word=\"64\"} 99\n";
        let sample = parse_metrics_sample(metrics);
        assert_eq!(sample.engine_vectors_per_s.len(), 2, "{sample:?}");
        assert_eq!(sample.engine_vectors_per_s[0].engine, "native");
        assert_eq!(sample.engine_vectors_per_s[0].word_bits, 64);
        assert!((sample.engine_vectors_per_s[0].vectors_per_s - 1_250_000.5).abs() < 1e-9);
        let json = sample.to_json().render();
        assert!(json.contains("\"engine\":\"native\""), "{json}");
    }

    #[test]
    fn open_loop_paces_arrivals() {
        let server = SimServer::bind(
            "127.0.0.1:0",
            ServeConfig::default(),
            Telemetry::new(),
            None,
        )
        .expect("bind");
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.shutdown_handle();
        std::thread::scope(|scope| {
            let runner = scope.spawn(|| server.run().expect("serve"));
            let report = run_loadgen(&LoadgenConfig {
                addr,
                concurrency: 2,
                rate_per_s: 50,
                duration: Duration::from_millis(300),
                ..LoadgenConfig::default()
            });
            handle.request();
            runner.join().expect("server thread");

            assert_eq!(report.mode, "open");
            // 50/s over 300ms schedules ~15 arrivals; the pacer must
            // not blast them all instantly nor drop below the floor a
            // healthy local server trivially sustains.
            assert!(report.requests >= 5, "{report:?}");
            assert!(report.requests <= 20, "{report:?}");
        });
    }
}
