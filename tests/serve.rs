//! End-to-end contract of `udsim serve`: a real daemon process on an
//! ephemeral port, driven over raw TCP. Pins the parts scripts and
//! scrapers depend on — the stderr `listening on` announcement, the
//! health/readiness probes, Prometheus `/metrics`, the compile-once
//! cache behavior (hit counter moves, rows stay byte-identical), the
//! `uds-reqlog-v1` request log, HTTP error statuses, and a clean
//! drain + final `--stats` snapshot through `/quitquitquit`.

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
    stderr: BufReader<std::process::ChildStderr>,
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
        stderr,
    }
}

/// One raw HTTP/1.1 exchange; returns (status, body).
fn exchange(addr: &str, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("full response");
    let status = reply
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

fn get(addr: &str, path: &str) -> (u16, String) {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn simulate_body() -> String {
    format!(
        "{{\"bench\":{},\"name\":\"c17\",\"vectors\":[[0,1,0,1,0],[1,1,1,1,1]]}}",
        Json::Str(C17.to_owned()).render()
    )
}

/// Asks the daemon to drain and waits for a clean exit.
fn quit(mut daemon: Daemon) {
    let (status, _) = post(&daemon.addr, "/quitquitquit", "");
    assert_eq!(status, 200);
    let exit = daemon.child.wait().expect("daemon exits");
    assert_eq!(exit.code(), Some(0), "clean shutdown exits 0");
    let mut rest = String::new();
    daemon
        .stderr
        .read_to_string(&mut rest)
        .expect("stderr drains");
    assert!(rest.contains("goodbye"), "{rest}");
}

#[test]
fn lifecycle_probes_metrics_and_errors() {
    let daemon = spawn_daemon(&[]);
    let addr = &daemon.addr;

    assert_eq!(get(addr, "/healthz"), (200, "ok\n".to_owned()));
    assert_eq!(get(addr, "/readyz"), (200, "ready\n".to_owned()));
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("# TYPE uds_build_info gauge"), "{metrics}");
    assert!(metrics.contains("uds_serve_requests"), "{metrics}");
    // The startup self-measurement: the perf-class gauge family is
    // exported before the first request is answered, and the class
    // label rides build_info.
    assert!(metrics.contains("# TYPE uds_perf_class gauge"), "{metrics}");
    let class_value = metrics
        .lines()
        .find_map(|l| l.strip_prefix("uds_perf_class "))
        .unwrap_or_else(|| panic!("no uds_perf_class sample in {metrics}"))
        .trim()
        .parse::<u64>()
        .expect("perf class is an integer code");
    assert!(class_value <= 3, "class codes are 0..=3, got {class_value}");
    assert!(metrics.contains("uds_perf_class_score_milli"), "{metrics}");
    assert!(
        metrics.contains("uds_perf_class_warmup_vectors_per_s"),
        "{metrics}"
    );
    assert!(metrics.contains("perf_class=\""), "{metrics}");

    assert_eq!(get(addr, "/no-such-route").0, 404);
    assert_eq!(post(addr, "/metrics", "x").0, 405);
    assert_eq!(post(addr, "/simulate", "not json").0, 400);
    let (status, body) = post(addr, "/simulate", "{\"bench\":\"INPUT(a)\\ngarbage\"}");
    assert_eq!(status, 400, "{body}");
    // Raw protocol violations answer with their own 4xx family.
    assert_eq!(
        exchange(addr, "POST /simulate HTTP/1.1\r\nHost: t\r\n\r\n").0,
        411,
        "POST without Content-Length"
    );

    quit(daemon);
}

#[test]
fn cache_serves_repeats_without_recompiling() {
    let reqlog = tmpfile("serve_reqlog.ndjson");
    let stats = tmpfile("serve_stats.json");
    let daemon = spawn_daemon(&[
        "--reqlog",
        reqlog.to_str().unwrap(),
        "--stats",
        stats.to_str().unwrap(),
    ]);
    let addr = &daemon.addr;

    let (status, first) = post(addr, "/simulate", &simulate_body());
    assert_eq!(status, 200, "{first}");
    let (status, second) = post(addr, "/simulate", &simulate_body());
    assert_eq!(status, 200, "{second}");

    let a = Json::parse(first.trim()).expect("first response parses");
    let b = Json::parse(second.trim()).expect("second response parses");
    assert_eq!(a.get("schema").unwrap().as_str(), Some("uds-serve-v1"));
    assert_eq!(a.get("circuit").unwrap().as_str(), Some("c17"));
    assert_eq!(a.get("cache").unwrap().as_str(), Some("miss"));
    assert_eq!(b.get("cache").unwrap().as_str(), Some("hit"));
    assert_eq!(
        a.get("rows").unwrap(),
        b.get("rows").unwrap(),
        "cached answers are byte-identical"
    );
    assert_eq!(
        a.get("netlist_hash").unwrap().as_str(),
        b.get("netlist_hash").unwrap().as_str()
    );

    // The hit is observable in /metrics before shutdown.
    let (_, metrics) = get(addr, "/metrics");
    assert!(metrics.contains("uds_cache_hits 1"), "{metrics}");
    assert!(metrics.contains("uds_cache_misses 1"), "{metrics}");
    assert!(metrics.contains("uds_cache_entries 1"), "{metrics}");

    quit(daemon);

    // The final stats snapshot: exactly one serve.compile_wall_ns
    // sample for two requests — the recompile never happened — plus
    // the counters.
    let stats_doc = Json::parse(
        std::fs::read_to_string(&stats)
            .expect("stats written")
            .trim(),
    )
    .expect("stats parse");
    let compiles = stats_doc
        .get("distributions")
        .and_then(|d| d.get("serve.compile_wall_ns"))
        .and_then(|d| d.get("count"))
        .and_then(Json::as_u64);
    assert_eq!(compiles, Some(1), "one compile for two identical requests");
    let counters = stats_doc.get("counters").expect("counters");
    assert_eq!(counters.get("cache.hits").unwrap().as_u64(), Some(1));
    // Two simulates, the /metrics scrape, and the quit itself.
    assert_eq!(counters.get("serve.requests").unwrap().as_u64(), Some(4));
    // The startup perf self-measurement survives into the final
    // snapshot: the gauge family plus the build_info class label.
    let gauges = stats_doc.get("gauges").expect("gauges");
    let class = gauges
        .get("perf_class")
        .and_then(Json::as_u64)
        .expect("perf_class gauge in stats");
    assert!(class <= 3, "class codes are 0..=3, got {class}");
    assert!(gauges.get("perf_class.score_milli").is_some());
    assert!(gauges.get("perf_class.warmup_vectors_per_s").is_some());
    let labels = stats_doc.get("labels").expect("labels");
    let class_label = labels
        .get("build.perf_class")
        .and_then(Json::as_str)
        .expect("build.perf_class label in stats");
    assert!(
        ["degraded", "slow", "baseline", "fast"].contains(&class_label),
        "{class_label}"
    );

    // The request log: one schema-tagged line per request, in order.
    let log = std::fs::read_to_string(&reqlog).expect("reqlog written");
    let lines: Vec<Json> = log
        .lines()
        .map(|l| Json::parse(l).expect("reqlog line parses"))
        .collect();
    assert_eq!(lines.len(), 4, "{log}");
    for line in &lines {
        assert_eq!(line.get("schema").unwrap().as_str(), Some("uds-reqlog-v1"));
        assert!(line.get("status").unwrap().as_u64().is_some());
        assert!(line.get("wall_ns").unwrap().as_u64().is_some());
    }
    assert_eq!(lines[0].get("cache").unwrap().as_str(), Some("miss"));
    assert_eq!(lines[1].get("cache").unwrap().as_str(), Some("hit"));
    assert_eq!(
        lines[0].get("netlist_hash").unwrap().as_str(),
        lines[1].get("netlist_hash").unwrap().as_str()
    );
    assert_eq!(lines[2].get("path").unwrap().as_str(), Some("/metrics"));
    assert_eq!(
        lines[3].get("path").unwrap().as_str(),
        Some("/quitquitquit")
    );
}

#[test]
fn quit_is_forbidden_without_the_flag() {
    // Spawn without --allow-quit: need a bespoke spawn.
    let mut child = Command::new(env!("CARGO_BIN_EXE_udsim"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("announcement line");
    let addr = line.split("http://").nth(1).expect("announcement").trim();
    let (status, body) = post(addr, "/quitquitquit", "");
    assert_eq!(status, 403, "{body}");
    // Still alive and serving afterwards.
    assert_eq!(get(addr, "/healthz").0, 200);
    let _ = child.kill();
    let _ = child.wait();
}

#[test]
fn engine_and_jobs_requests_agree_with_defaults() {
    let daemon = spawn_daemon(&[]);
    let addr = &daemon.addr;

    let base = simulate_body();
    let pinned = base.replacen(
        "\"vectors\"",
        "\"engine\":\"event-driven\",\"jobs\":2,\"vectors\"",
        1,
    );
    let (status, default_reply) = post(addr, "/simulate", &base);
    assert_eq!(status, 200, "{default_reply}");
    let (status, pinned_reply) = post(addr, "/simulate", &pinned);
    assert_eq!(status, 200, "{pinned_reply}");
    let a = Json::parse(default_reply.trim()).unwrap();
    let b = Json::parse(pinned_reply.trim()).unwrap();
    assert_eq!(b.get("engine").unwrap().as_str(), Some("event-driven"));
    assert_eq!(b.get("jobs").unwrap().as_u64(), Some(2));
    assert_eq!(
        a.get("rows").unwrap(),
        b.get("rows").unwrap(),
        "every engine and sharding computes the same rows"
    );
    // A different engine is a different cache key: both were misses.
    assert_eq!(a.get("cache").unwrap().as_str(), Some("miss"));
    assert_eq!(b.get("cache").unwrap().as_str(), Some("miss"));

    quit(daemon);
}

#[test]
fn unknown_engine_and_bad_vectors_are_client_errors() {
    let daemon = spawn_daemon(&[]);
    let addr = &daemon.addr;

    let bad_engine =
        simulate_body().replacen("\"vectors\"", "\"engine\":\"warp-drive\",\"vectors\"", 1);
    let (status, body) = post(addr, "/simulate", &bad_engine);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("warp-drive"), "{body}");

    let wrong_width = format!(
        "{{\"bench\":{},\"vectors\":[[1,0]]}}",
        Json::Str(C17.to_owned()).render()
    );
    let (status, body) = post(addr, "/simulate", &wrong_width);
    assert_eq!(status, 400, "{body}");

    let no_stimulus = format!("{{\"bench\":{}}}", Json::Str(C17.to_owned()).render());
    let (status, body) = post(addr, "/simulate", &no_stimulus);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("stimulus"), "{body}");

    quit(daemon);
}

/// Polls `child` until it exits or `limit` passes; the exit status and
/// how long the exit took after the call.
fn exit_within(
    child: &mut Child,
    limit: std::time::Duration,
) -> Option<(std::process::ExitStatus, std::time::Duration)> {
    let clock = std::time::Instant::now();
    while clock.elapsed() < limit {
        if let Some(status) = child.try_wait().expect("wait on the daemon") {
            return Some((status, clock.elapsed()));
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    None
}

/// Value of counter `name` in a `/metrics` scrape.
fn metric(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no {name} sample in {metrics}"))
        .trim()
        .parse()
        .expect("integer counter")
}

#[test]
fn quit_ends_an_idle_daemon_within_a_second() {
    let mut daemon = spawn_daemon(&[]);
    // A served request proves the acceptor is running, not starting.
    assert_eq!(get(&daemon.addr, "/healthz").0, 200);
    assert_eq!(post(&daemon.addr, "/quitquitquit", "").0, 200);
    let (status, took) = exit_within(&mut daemon.child, std::time::Duration::from_secs(1))
        .expect("/quitquitquit ends an idle daemon within 1 s");
    assert!(status.success(), "{status:?} after {took:?}");
}

#[cfg(unix)]
#[test]
fn sigterm_ends_an_idle_daemon_within_a_second() {
    let mut daemon = spawn_daemon(&[]);
    assert_eq!(get(&daemon.addr, "/healthz").0, 200);
    let killed = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(killed.success());
    let (status, took) = exit_within(&mut daemon.child, std::time::Duration::from_secs(1))
        .expect("SIGTERM ends an idle daemon within 1 s");
    assert_eq!(status.code(), Some(0), "a signal drains cleanly ({took:?})");
    let mut rest = String::new();
    daemon
        .stderr
        .read_to_string(&mut rest)
        .expect("stderr drains");
    assert!(rest.contains("goodbye"), "{rest}");
}

#[test]
fn shutdown_handle_ends_an_idle_server_within_a_second() {
    use unit_delay_sim::core::serve::{ServeConfig, SimServer};
    use unit_delay_sim::core::Telemetry;

    let server = SimServer::bind(
        "127.0.0.1:0",
        ServeConfig::default(),
        Telemetry::new(),
        None,
    )
    .expect("binds an ephemeral port");
    let addr = server.local_addr().expect("bound").to_string();
    let handle = server.shutdown_handle();
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let result = server.run();
            done.send(result.is_ok()).expect("test waits");
        });
        assert_eq!(get(&addr, "/healthz").0, 200);
        handle.request();
        let ok = finished
            .recv_timeout(std::time::Duration::from_secs(1))
            .expect("the handle ends an idle server within 1 s");
        assert!(ok, "run returns Ok after a drain");
    });
}

#[test]
fn the_last_busy_worker_ends_a_drain_within_a_second() {
    use unit_delay_sim::core::serve::{ServeConfig, SimServer};
    use unit_delay_sim::core::Telemetry;

    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = SimServer::bind("127.0.0.1:0", config, Telemetry::new(), None)
        .expect("binds an ephemeral port");
    let addr = server.local_addr().expect("bound").to_string();
    let handle = server.shutdown_handle();
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let result = server.run();
            done.send(result.is_ok()).expect("test waits");
        });
        assert_eq!(get(&addr, "/healthz").0, 200);
        // A worker reads a request whose body has not arrived, so the
        // drain must wait for it.
        let body = simulate_body();
        let (head, tail) = body.split_at(body.len() / 2);
        let mut slow = TcpStream::connect(&addr).expect("connect");
        write!(
            slow,
            "POST /simulate HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{head}",
            body.len()
        )
        .expect("send the first half");
        // The other worker answers scrapes: two in flight means the
        // slow request is on a worker, not in the acceptor's backlog.
        while metric(&get(&addr, "/metrics").1, "uds_serve_in_flight") < 2 {}
        handle.request();
        assert!(
            finished
                .recv_timeout(std::time::Duration::from_millis(200))
                .is_err(),
            "the drain waits for the busy worker"
        );
        slow.write_all(tail.as_bytes()).expect("send the rest");
        let mut reply = String::new();
        slow.read_to_string(&mut reply).expect("reply");
        assert!(reply.starts_with("HTTP/1.1 "), "{reply}");
        let ok = finished
            .recv_timeout(std::time::Duration::from_secs(1))
            .expect("the worker's finish ends the drain within 1 s");
        assert!(ok, "run returns Ok after a drain");
    });
}

#[test]
fn an_idle_daemon_never_wakes_its_acceptor() {
    // Negative control for the blocking accept: a sleep-polling
    // acceptor wakes every few milliseconds, about 150 times here.
    let daemon = spawn_daemon(&[]);
    let (_, before) = get(&daemon.addr, "/metrics");
    std::thread::sleep(std::time::Duration::from_millis(300));
    let (_, after) = get(&daemon.addr, "/metrics");
    let woke =
        metric(&after, "uds_serve_accept_wakeups") - metric(&before, "uds_serve_accept_wakeups");
    assert_eq!(
        woke, 1,
        "only the second scrape's connection woke the acceptor"
    );
    quit(daemon);
}

/// A `/simulate` body for `bench` under `name`, with a fixed stimulus.
fn body_for(bench: &str, name: &str) -> String {
    format!(
        "{{\"bench\":{},\"name\":{},\"random\":{{\"count\":32,\"seed\":5}}}}",
        Json::Str(bench.to_owned()).render(),
        Json::Str(name.to_owned()).render()
    )
}

/// Posts a `/simulate` body; the parsed `200` reply.
fn simulate(addr: &str, body: &str) -> Json {
    let (status, reply) = post(addr, "/simulate", body);
    assert_eq!(status, 200, "{reply}");
    Json::parse(reply.trim()).expect("reply parses")
}

fn field<'a>(doc: &'a Json, name: &str) -> &'a Json {
    doc.get(name)
        .unwrap_or_else(|| panic!("no `{name}` in {doc:?}"))
}

/// c17 spelled differently: comments, blank lines, indentation, and
/// the OUTPUT lines moved below the gates (which numbers its nets in
/// another order).
fn c17_respelled() -> String {
    let lines: Vec<&str> = C17.lines().collect();
    let (outputs, rest): (Vec<&str>, Vec<&str>) =
        lines.iter().partition(|l| l.starts_with("OUTPUT"));
    let mut text = String::from("# c17, spelled another way\n\n");
    for line in rest.iter().chain(&outputs) {
        text.push_str(&format!("  {line}   # kept\n"));
    }
    text
}

#[test]
fn repeated_and_respelled_text_hit_with_identical_rows() {
    let daemon = spawn_daemon(&[]);
    let addr = &daemon.addr;
    let first = simulate(addr, &body_for(C17, "c17"));
    let repeat = simulate(addr, &body_for(C17, "c17"));
    let respelled = simulate(addr, &body_for(&c17_respelled(), "c17"));
    assert_eq!(field(&first, "cache").as_str(), Some("miss"));
    assert_eq!(field(&repeat, "cache").as_str(), Some("hit"));
    assert_eq!(field(&respelled, "cache").as_str(), Some("hit"));
    for doc in [&repeat, &respelled] {
        assert_eq!(field(doc, "netlist_hash"), field(&first, "netlist_hash"));
        assert_eq!(field(doc, "circuit"), field(&first, "circuit"));
        assert_eq!(field(doc, "rows"), field(&first, "rows"), "{doc:?}");
    }
    let (_, metrics) = get(addr, "/metrics");
    // Only the byte-identical repeat skipped the parse; the re-spelled
    // text was parsed and found its entry canonically.
    assert_eq!(metric(&metrics, "uds_cache_spelling_hits"), 1);
    assert_eq!(metric(&metrics, "uds_cache_hits"), 2);
    assert_eq!(metric(&metrics, "uds_cache_misses"), 1);
    quit(daemon);
}

#[test]
fn one_text_under_two_names_echoes_each_name() {
    let daemon = spawn_daemon(&[]);
    let addr = &daemon.addr;
    let a = simulate(addr, &body_for(C17, "alpha"));
    let b = simulate(addr, &body_for(C17, "beta"));
    let a_again = simulate(addr, &body_for(C17, "alpha"));
    assert_eq!(field(&a, "circuit").as_str(), Some("alpha"));
    assert_eq!(field(&b, "circuit").as_str(), Some("beta"));
    assert_eq!(field(&a_again, "circuit").as_str(), Some("alpha"));
    // The name is part of the canonical text, so each name has its
    // own entry; the rows agree all the same.
    assert_eq!(field(&b, "cache").as_str(), Some("miss"));
    assert_eq!(field(&a_again, "cache").as_str(), Some("hit"));
    assert_ne!(field(&a, "netlist_hash"), field(&b, "netlist_hash"));
    assert_eq!(field(&a_again, "netlist_hash"), field(&a, "netlist_hash"));
    assert_eq!(field(&a, "rows"), field(&b, "rows"));
    quit(daemon);
}

#[test]
fn one_changed_gate_misses_with_its_own_rows() {
    let daemon = spawn_daemon(&[]);
    let addr = &daemon.addr;
    let original = simulate(addr, &body_for(C17, "c17"));
    let changed_text = C17.replace("22 = NAND(10, 16)", "22 = NOR(10, 16)");
    assert_ne!(changed_text, C17);
    let changed = simulate(addr, &body_for(&changed_text, "c17"));
    assert_eq!(field(&changed, "cache").as_str(), Some("miss"));
    assert_ne!(
        field(&changed, "netlist_hash"),
        field(&original, "netlist_hash")
    );
    assert_ne!(field(&changed, "rows"), field(&original, "rows"));
    quit(daemon);
}

#[test]
fn an_evicted_spelling_recompiles() {
    let daemon = spawn_daemon(&["--cache", "1"]);
    let addr = &daemon.addr;
    let other = C17.replace("23 = NAND(16, 19)", "23 = AND(16, 19)");
    let sequence: Vec<String> = [
        (C17, "miss"),
        (&*other, "miss"),
        (C17, "miss"),
        (C17, "hit"),
    ]
    .iter()
    .map(|(text, expected)| {
        let doc = simulate(addr, &body_for(text, "c17"));
        assert_eq!(field(&doc, "cache").as_str(), Some(*expected), "{doc:?}");
        field(&doc, "rows").render()
    })
    .collect();
    assert_eq!(
        sequence[0], sequence[2],
        "the recompiled entry computes the same rows"
    );
    assert_eq!(sequence[2], sequence[3]);
    let (_, metrics) = get(addr, "/metrics");
    assert_eq!(metric(&metrics, "uds_cache_evictions"), 2);
    assert_eq!(metric(&metrics, "uds_cache_spelling_hits"), 1);
    quit(daemon);
}

#[test]
fn jobs_reuse_the_spelling_a_simulate_compiled() {
    let daemon = spawn_daemon(&[]);
    let addr = &daemon.addr;
    let body = body_for(C17, "c17");
    let direct = simulate(addr, &body);
    let (status, reply) = post(addr, "/jobs", &body);
    assert_eq!(status, 202, "{reply}");
    let id = Json::parse(reply.trim())
        .ok()
        .and_then(|doc| doc.get("job").and_then(Json::as_u64))
        .expect("job id");
    let result = (0..500)
        .find_map(|_| {
            let (status, text) = get(addr, &format!("/jobs/{id}/result"));
            if status == 200 {
                return Some(Json::parse(text.trim()).expect("result parses"));
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
            None
        })
        .expect("the job finishes");
    assert_eq!(field(&result, "cache").as_str(), Some("hit"));
    assert_eq!(
        field(&result, "netlist_hash"),
        field(&direct, "netlist_hash")
    );
    assert_eq!(field(&result, "rows"), field(&direct, "rows"));
    let (_, metrics) = get(addr, "/metrics");
    assert_eq!(metric(&metrics, "uds_cache_spelling_hits"), 1);
    quit(daemon);
}
