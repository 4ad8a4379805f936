//! End-to-end contract of live request tracing (`udsim serve --trace`)
//! and the rolling throughput gauges.
//!
//! A real daemon process on an ephemeral port, driven over raw TCP and
//! with `udsim loadgen`. Pins the observability chain the tooling
//! depends on: an inbound `x-uds-trace-id` header must surface in the
//! `uds-reqlog-v1` line, echo on the response, and label the exported
//! span tree; the `--trace` file must be a loadable Chrome-trace
//! document whose per-request phase spans sum to no more than the
//! request wall time the reqlog recorded; and
//! `uds_engine_vectors_per_s` in `/metrics` must reflect *live*
//! traffic — moving between scrapes without a restart.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use unit_delay_sim::core::telemetry::json::Json;

const C17: &str = "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
                   10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
                   22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

fn tmpfile(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir exists");
    dir.join(name)
}

/// A running daemon plus the address it announced. Killed on drop so a
/// failing test never leaks the process.
struct Daemon {
    child: Child,
    addr: String,
    /// Held open so the daemon's stderr writes never hit a closed pipe.
    _stderr: BufReader<std::process::ChildStderr>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_daemon(extra: &[&str]) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_udsim"))
        .args(["serve", "--addr", "127.0.0.1:0", "--allow-quit"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("announcement line");
    let addr = line
        .split("http://")
        .nth(1)
        .unwrap_or_else(|| panic!("no announcement in {line:?}"))
        .trim()
        .to_owned();
    Daemon {
        child,
        addr,
        _stderr: stderr,
    }
}

/// One raw HTTP/1.1 exchange; returns the whole reply (status line,
/// headers, body) so header assertions stay possible.
fn exchange(addr: &str, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("full response");
    reply
}

fn get(addr: &str, path: &str) -> String {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn simulate_body() -> String {
    format!(
        "{{\"bench\":{},\"name\":\"c17\",\"vectors\":[[0,1,0,1,0],[1,1,1,1,1]]}}",
        Json::Str(C17.to_owned()).render()
    )
}

/// POSTs /simulate carrying an explicit trace id header.
fn post_simulate_traced(addr: &str, trace_id: &str) -> String {
    let body = simulate_body();
    exchange(
        addr,
        &format!(
            "POST /simulate HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             x-uds-trace-id: {trace_id}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Asks the daemon to drain and waits for a clean exit (flushes and
/// closes the trace file).
fn quit(mut daemon: Daemon) {
    let body = "";
    let reply = exchange(
        &daemon.addr,
        &format!(
            "POST /quitquitquit HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    let exit = daemon.child.wait().expect("daemon exits");
    assert_eq!(exit.code(), Some(0), "clean shutdown exits 0");
}

/// Value of the first `uds_engine_vectors_per_s{...}` sample in a
/// `/metrics` scrape (the windowed gauge, not the `_ewma` variant).
fn rolling_gauge(metrics: &str) -> Option<f64> {
    metrics
        .lines()
        .find(|l| l.starts_with("uds_engine_vectors_per_s{"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn trace_id_propagates_header_to_reqlog_to_response_to_span_tree() {
    let trace_path = tmpfile("e2e_trace.json");
    let reqlog_path = tmpfile("e2e_trace_reqlog.ndjson");
    let daemon = spawn_daemon(&[
        "--trace",
        trace_path.to_str().expect("utf8 path"),
        "--reqlog",
        reqlog_path.to_str().expect("utf8 path"),
    ]);

    let reply = post_simulate_traced(&daemon.addr, "e2e-trace-42");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    // The response echoes the request's trace id.
    assert!(
        reply
            .lines()
            .any(|l| l.eq_ignore_ascii_case("x-uds-trace-id: e2e-trace-42")),
        "no echoed trace id in {reply}"
    );
    // A second, identical request hits the prototype cache — its
    // reqlog line must *omit* the compile phase, not report it as 0.
    let reply = post_simulate_traced(&daemon.addr, "e2e-trace-43-hit");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    quit(daemon);

    // The reqlog line carries the id, the request wall time, and the
    // per-phase breakdown.
    let reqlog = std::fs::read_to_string(&reqlog_path).expect("reqlog readable");
    let line = reqlog
        .lines()
        .map(|l| Json::parse(l).expect("reqlog line parses"))
        .find(|doc| doc.get("trace_id").and_then(Json::as_str) == Some("e2e-trace-42"))
        .expect("a reqlog line carries the inbound trace id");
    let wall_ns = line
        .get("wall_ns")
        .and_then(Json::as_u64)
        .expect("wall_ns recorded");
    let phase_ms = line.get("phase_ms").expect("phase_ms recorded");
    let phases = match phase_ms {
        Json::Obj(members) => members,
        other => panic!("phase_ms is not an object: {other:?}"),
    };
    // The cold request executes the full pipeline...
    for expected in ["parse", "cache_lookup", "compile", "simulate", "serialize"] {
        assert!(
            phases.iter().any(|(name, _)| name == expected),
            "phase_ms misses {expected}: {phase_ms:?}"
        );
    }
    // ...and the key set is exactly the executed-phase set: nothing
    // outside the phase universe, and no zero-filled placeholders.
    let executed = [
        "queue_wait",
        "parse",
        "cache_lookup",
        "compile",
        "simulate",
        "serialize",
    ];
    for (name, _) in phases {
        assert!(executed.contains(&name.as_str()), "unknown phase {name}");
    }
    let hit_line = reqlog
        .lines()
        .map(|l| Json::parse(l).expect("reqlog line parses"))
        .find(|doc| doc.get("trace_id").and_then(Json::as_str) == Some("e2e-trace-43-hit"))
        .expect("the cache-hit request logs a line");
    assert_eq!(
        hit_line.get("cache").and_then(Json::as_str),
        Some("hit"),
        "second identical request must hit the cache"
    );
    let hit_phases = match hit_line.get("phase_ms").expect("phase_ms on the hit") {
        Json::Obj(members) => members,
        other => panic!("phase_ms is not an object: {other:?}"),
    };
    assert!(
        hit_phases.iter().all(|(name, _)| name != "compile"),
        "a cache hit never ran compile, so the key must be absent: {hit_phases:?}"
    );
    for (name, _) in hit_phases {
        assert!(executed.contains(&name.as_str()), "unknown phase {name}");
    }

    // The trace file is one loadable Chrome-trace document whose
    // request span carries the same id and whose phase spans sum to
    // no more than the recorded request time.
    let trace = std::fs::read_to_string(&trace_path).expect("trace readable");
    let doc = Json::parse(&trace).expect("trace file is valid JSON after close");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let root = events
        .iter()
        .find(|e| {
            e.get("name").and_then(Json::as_str) == Some("serve.request")
                && e.get("args")
                    .and_then(|a| a.get("trace_id"))
                    .and_then(Json::as_str)
                    == Some("e2e-trace-42")
        })
        .expect("a serve.request span labeled with the trace id");
    let (root_dur, phase_dur) = root_and_phase_durations(events, root);
    assert!(
        phase_dur <= root_dur * 1.001,
        "phase spans ({phase_dur} us) exceed the request span ({root_dur} us)"
    );
    // The root span starts when the connection was queued, so it covers
    // the queue wait the reqlog keeps apart from `wall_ns` (in whole
    // milliseconds, hence the extra one).
    let queue_wait_ms = line
        .get("queue_wait_ms")
        .and_then(Json::as_u64)
        .expect("queue_wait_ms recorded");
    let reqlog_ns = wall_ns as f64 + (queue_wait_ms + 1) as f64 * 1e6;
    assert!(
        root_dur * 1000.0 <= reqlog_ns * 1.5 + 1_000_000.0,
        "trace span ({root_dur} us) wildly exceeds reqlog wall ({wall_ns} ns) plus queue wait"
    );
}

/// The duration of `root` and the summed durations of the phase spans
/// on its lane (compile sub-phases excluded: they nest in
/// `serve.compile`), both in microseconds.
fn root_and_phase_durations(events: &[Json], root: &Json) -> (f64, f64) {
    let root_tid = root.get("tid").and_then(Json::as_u64).expect("root tid");
    let root_dur = root.get("dur").and_then(Json::as_f64).expect("root dur");
    let phase_dur: f64 = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("tid").and_then(Json::as_u64) == Some(root_tid)
                && e.get("name").and_then(Json::as_str).is_some_and(|n| {
                    n.starts_with("serve.") && n != "serve.request" && n != "serve.compile"
                })
        })
        .filter_map(|e| e.get("dur").and_then(Json::as_f64))
        .sum();
    (root_dur, phase_dur)
}

#[test]
fn a_queued_request_nests_its_queue_wait_inside_its_span() {
    // One worker, held by a request whose body arrives late: the next
    // connection waits in the queue for as long as the first one stalls.
    let trace_path = tmpfile("queued_trace.json");
    let reqlog_path = tmpfile("queued_trace_reqlog.ndjson");
    let daemon = spawn_daemon(&[
        "--workers",
        "1",
        "--trace",
        trace_path.to_str().expect("utf8 path"),
        "--reqlog",
        reqlog_path.to_str().expect("utf8 path"),
    ]);
    // Served once the acceptor runs, so both connections below meet a
    // running worker rather than a backlog.
    let ready = get(&daemon.addr, "/healthz");
    assert!(ready.starts_with("HTTP/1.1 200"), "{ready}");
    let body = simulate_body();
    let (head, tail) = body.split_at(body.len() / 2);
    let mut slow = TcpStream::connect(&daemon.addr).expect("connect");
    write!(
        slow,
        "POST /simulate HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
         x-uds-trace-id: slow-first\r\nContent-Length: {}\r\n\r\n{head}",
        body.len()
    )
    .expect("send the first half");
    std::thread::scope(|scope| {
        let queued = scope.spawn(|| post_simulate_traced(&daemon.addr, "queued-second"));
        // The stall is what the queued request waits out; its length
        // only sets how long that wait is.
        std::thread::sleep(std::time::Duration::from_millis(300));
        slow.write_all(tail.as_bytes()).expect("send the rest");
        let mut reply = String::new();
        slow.read_to_string(&mut reply).expect("first reply");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        let reply = queued.join().expect("queued client");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    });
    quit(daemon);

    let reqlog = std::fs::read_to_string(&reqlog_path).expect("reqlog readable");
    let line = reqlog
        .lines()
        .map(|l| Json::parse(l).expect("reqlog line parses"))
        .find(|doc| doc.get("trace_id").and_then(Json::as_str) == Some("queued-second"))
        .expect("the queued request logs a line");
    let queue_wait_ms = line.get("queue_wait_ms").and_then(Json::as_u64);
    assert!(
        queue_wait_ms.is_some_and(|ms| ms >= 100),
        "the second request waited behind the first: {line:?}"
    );
    let trace = std::fs::read_to_string(&trace_path).expect("trace readable");
    let doc = Json::parse(&trace).expect("trace file is valid JSON after close");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let root = events
        .iter()
        .find(|e| {
            e.get("name").and_then(Json::as_str) == Some("serve.request")
                && e.get("args")
                    .and_then(|a| a.get("trace_id"))
                    .and_then(Json::as_str)
                    == Some("queued-second")
        })
        .expect("a serve.request span for the queued request");
    let wait = events
        .iter()
        .find(|e| {
            e.get("name").and_then(Json::as_str) == Some("serve.queue_wait")
                && e.get("tid") == root.get("tid")
        })
        .expect("a queue_wait phase on the queued request's lane");
    let ts = |e: &Json| e.get("ts").and_then(Json::as_f64).expect("ts");
    let dur = |e: &Json| e.get("dur").and_then(Json::as_f64).expect("dur");
    assert!(
        ts(wait) >= ts(root) && ts(wait) + dur(wait) <= ts(root) + dur(root) + 1.0,
        "queue_wait [{}, +{}] lies outside its request [{}, +{}]",
        ts(wait),
        dur(wait),
        ts(root),
        dur(root)
    );
    let (root_dur, phase_dur) = root_and_phase_durations(events, root);
    assert!(
        phase_dur <= root_dur * 1.001,
        "phase spans ({phase_dur} us) exceed the request span ({root_dur} us)"
    );
}

#[test]
fn rolling_throughput_gauge_tracks_live_traffic_between_scrapes() {
    let bench_path = tmpfile("rolling_c17.bench");
    std::fs::write(&bench_path, C17).expect("bench written");
    let daemon = spawn_daemon(&[]);

    // Before any simulate traffic the live gauge has no samples; only
    // the startup warmup number exists under its own metric name.
    let before = get(&daemon.addr, "/metrics");
    assert_eq!(
        rolling_gauge(&before),
        None,
        "live gauge must not exist before traffic"
    );

    // A short loadgen burst; its JSON report embeds the server-side
    // sample scraped at end of run.
    let output = Command::new(env!("CARGO_BIN_EXE_udsim"))
        .args([
            "loadgen",
            "--addr",
            &daemon.addr,
            "--bench",
            bench_path.to_str().expect("utf8 path"),
            "--vectors",
            "64",
            "--concurrency",
            "2",
            "--duration-ms",
            "400",
            "--json",
            "-",
        ])
        .output()
        .expect("loadgen runs");
    assert!(output.status.success(), "{output:?}");
    let report =
        Json::parse(&String::from_utf8_lossy(&output.stdout)).expect("loadgen JSON parses");
    let server = report.get("server").expect("report embeds server sample");
    let samples = server
        .get("engine_vectors_per_s")
        .and_then(Json::as_arr)
        .expect("engine_vectors_per_s array");
    assert!(
        samples
            .iter()
            .any(|s| { s.get("vectors_per_s").and_then(Json::as_f64).unwrap_or(0.0) > 0.0 }),
        "loadgen saw no live throughput: {samples:?}"
    );

    // The gauge converged under the burst and keeps moving with new
    // traffic — no restart in between.
    let first = rolling_gauge(&get(&daemon.addr, "/metrics"))
        .expect("gauge exists after the loadgen burst");
    assert!(first > 0.0, "gauge should be positive, got {first}");
    for _ in 0..5 {
        let reply = post_simulate_traced(&daemon.addr, "rolling-refresh");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    }
    let second =
        rolling_gauge(&get(&daemon.addr, "/metrics")).expect("gauge persists across scrapes");
    assert!(
        (second - first).abs() > f64::EPSILON,
        "gauge did not move between scrapes: {first} vs {second}"
    );
    quit(daemon);
}
