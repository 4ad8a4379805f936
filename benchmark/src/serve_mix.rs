//! `serve-mix`: a closed loop of `POST /simulate` requests against
//! `udsim serve`, mixing cache hits on four circuits and three engines
//! with never-seen circuits that compile, insert and evict.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use uds_core::telemetry::json::Json;
use uds_netlist::{bench_format, Netlist};

use crate::host;
use crate::metrics::{median, tail_percentile, Measured};
use crate::oracle::{check_serve_body, expected_rows};
use crate::proc::{read_status_kib, Reaper};
use crate::{splitmix, Ctx, Outcome};

/// The mix's circuits; indices below refer to this list.
pub const CIRCUITS: [&str; 4] = ["c432", "c880", "c1908", "c6288"];
/// Client connections, each with one request in flight.
const CONNECTIONS: usize = 2;
/// Vectors per request.
pub const VECTORS: usize = 256;
/// Stimulus seeds each circuit's requests draw from.
const SEEDS_PER_CIRCUIT: u64 = 16;
/// Daemon spawns whose median time-to-first-`/healthz` is `setup_s`.
const SETUP_REPS: usize = 5;
/// Traffic after the per-key warm-up and before the timed window.
const WARM_TRAFFIC: Duration = Duration::from_secs(3);
/// The timed window is a run of slices of traffic, each right after a
/// host probe taken while the daemon is idle (see `host.rs`).
const SLICE: Duration = Duration::from_secs(1);
/// Requests the timed window holds at least, so that the p99 has ten
/// samples beyond it.
const WINDOW_REQUESTS: usize = 1000;

/// A request class that stays hot in the daemon's cache: a circuit
/// (index into [`CIRCUITS`]), an engine (`None` = the default chain),
/// and its share of every block of [`BLOCK`] requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hot {
    pub circuit: usize,
    pub engine: Option<&'static str>,
    pub per_block: usize,
}

const fn hot(circuit: usize, engine: Option<&'static str>, per_block: usize) -> Hot {
    Hot {
        circuit,
        engine,
        per_block,
    }
}

/// c432 40%, c880 25%, c1908 20%, c6288 10%; engines 60/20/20 on the
/// small circuits (default, pc-set, native) and 80/20 on the large ones.
pub const HOT: [Hot; 10] = [
    hot(0, None, 24),
    hot(0, Some("pc-set"), 8),
    hot(0, Some("native"), 8),
    hot(1, None, 15),
    hot(1, Some("pc-set"), 5),
    hot(1, Some("native"), 5),
    hot(2, None, 16),
    hot(2, Some("pc-set"), 4),
    hot(3, None, 8),
    hot(3, Some("pc-set"), 2),
];
/// The remaining 5% of each block: c880 plus one extra XOR output, a
/// circuit the daemon has never seen, so it misses, compiles and evicts.
const VARIANTS_PER_BLOCK: usize = 5;
/// Requests per shuffled block; every block holds the exact mix, so the
/// seed changes the order and the stimulus but not the proportions.
const BLOCK: usize = 100;

impl Hot {
    /// The engine the response must name.
    pub fn served_engine(self) -> &'static str {
        self.engine.unwrap_or("parallel+pt+trim")
    }

    pub fn label(self) -> String {
        format!(
            "{}/{}",
            CIRCUITS[self.circuit],
            self.engine.unwrap_or("default")
        )
    }
}

/// What request `index` of a run sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Hot(usize),
    /// c880 with `extra = XOR(nets[a], nets[b])` as an output.
    Variant {
        a: usize,
        b: usize,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    pub kind: Kind,
    /// Which of the circuit's [`SEEDS_PER_CIRCUIT`] stimulus seeds.
    pub slot: u64,
}

/// The deterministic schedule: request `index` under run seed `seed`.
pub fn spec(seed: u64, index: usize, c880_nets: usize) -> Spec {
    let block = (index / BLOCK) as u64;
    let mut order: Vec<Option<usize>> = HOT
        .iter()
        .enumerate()
        .flat_map(|(class, h)| std::iter::repeat_n(Some(class), h.per_block))
        .chain(std::iter::repeat_n(None, VARIANTS_PER_BLOCK))
        .collect();
    let mut state = seed ^ block.wrapping_mul(0xA076_1D64_78BD_642F);
    for i in (1..order.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut state = seed ^ (index as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB);
    let slot = splitmix(&mut state) % SEEDS_PER_CIRCUIT;
    let kind = match order[index % BLOCK] {
        Some(class) => Kind::Hot(class),
        None => {
            let a = (splitmix(&mut state) % c880_nets as u64) as usize;
            let b = (a + 1 + (splitmix(&mut state) % (c880_nets as u64 - 1)) as usize) % c880_nets;
            Kind::Variant { a, b }
        }
    };
    Spec { kind, slot }
}

/// The stimulus seed of `slot` for `circuit`.
pub fn stimulus_seed(seed: u64, circuit: usize, slot: u64) -> u64 {
    let mut state = seed ^ ((circuit as u64) << 32 | slot).wrapping_mul(0x8EBC_6AF0_9C88_C6E3);
    splitmix(&mut state)
}

/// A `POST /simulate` body.
pub fn body(bench: &str, name: &str, stimulus_seed: u64, engine: Option<&str>) -> String {
    let mut members = vec![
        ("bench".to_owned(), Json::Str(bench.to_owned())),
        ("name".to_owned(), Json::Str(name.to_owned())),
        (
            "random".to_owned(),
            Json::obj([
                ("count", Json::UInt(VECTORS as u64)),
                ("seed", Json::UInt(stimulus_seed)),
            ]),
        ),
    ];
    if let Some(engine) = engine {
        members.push(("engine".to_owned(), Json::Str(engine.to_owned())));
    }
    Json::Obj(members).render()
}

/// The circuits of the mix, with every request body and expected row
/// set precomputed for the hot classes.
pub struct Mix {
    pub seed: u64,
    pub texts: Vec<String>,
    pub netlists: Vec<Netlist>,
    /// `[class][slot]`.
    bodies: Vec<Vec<String>>,
    /// `[circuit][slot]`.
    expected: Vec<Vec<Vec<String>>>,
}

impl Mix {
    pub fn new(ctx: &Ctx, seed: u64) -> Result<Mix, String> {
        let mut texts = Vec::new();
        let mut netlists = Vec::new();
        for name in CIRCUITS {
            texts.push(ctx.circuit_text(name)?);
            netlists.push(ctx.netlist(name)?);
        }
        let bodies = HOT
            .iter()
            .map(|h| {
                (0..SEEDS_PER_CIRCUIT)
                    .map(|slot| {
                        let s = stimulus_seed(seed, h.circuit, slot);
                        body(&texts[h.circuit], CIRCUITS[h.circuit], s, h.engine)
                    })
                    .collect()
            })
            .collect();
        let expected = (0..CIRCUITS.len())
            .map(|c| {
                (0..SEEDS_PER_CIRCUIT)
                    .map(|slot| expected_rows(&netlists[c], stimulus_seed(seed, c, slot), VECTORS))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Mix {
            seed,
            texts,
            netlists,
            bodies,
            expected,
        })
    }

    /// A request body of hot class `class` (its first stimulus seed).
    pub fn hot_body(&self, class: usize) -> &str {
        &self.bodies[class][0]
    }

    pub fn spec(&self, index: usize) -> Spec {
        spec(self.seed, index, self.netlists[1].net_count())
    }

    /// The variant circuit's `.bench` text: c880 plus one XOR output.
    fn variant_text(&self, index: usize, a: usize, b: usize) -> String {
        let nl = &self.netlists[1];
        let net = |i: usize| nl.net_name(uds_netlist::NetId::from_index(i));
        format!(
            "{}OUTPUT(mix_x{index})\nmix_x{index} = XOR({}, {})\n",
            self.texts[1],
            net(a),
            net(b)
        )
    }

    /// The body request `index` sends.
    pub fn body(&self, index: usize) -> String {
        let spec = self.spec(index);
        match spec.kind {
            Kind::Hot(class) => self.bodies[class][spec.slot as usize].clone(),
            Kind::Variant { a, b } => body(
                &self.variant_text(index, a, b),
                CIRCUITS[1],
                stimulus_seed(self.seed, 1, spec.slot),
                None,
            ),
        }
    }

    /// Checks a response body; returns its `cache` field.
    pub fn check(&self, index: usize, body: &str) -> Result<String, String> {
        let spec = self.spec(index);
        match spec.kind {
            Kind::Hot(class) => {
                let h = HOT[class];
                check_serve_body(
                    body,
                    &self.expected[h.circuit][spec.slot as usize],
                    h.served_engine(),
                )
            }
            Kind::Variant { a, b } => {
                let text = self.variant_text(index, a, b);
                let nl = bench_format::parse(&text, CIRCUITS[1]).map_err(|e| e.to_string())?;
                let seed = stimulus_seed(self.seed, 1, spec.slot);
                check_serve_body(
                    body,
                    &expected_rows(&nl, seed, VECTORS)?,
                    "parallel+pt+trim",
                )
            }
        }
        .map_err(|e| format!("request {index}: {e}"))
    }
}

/// One HTTP/1.1 request on a fresh `Connection: close` connection;
/// returns the status and body once the server closes.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply)?;
    let text = String::from_utf8(reply)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 reply"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "unframed reply"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status"))?;
    Ok((status, body.to_owned()))
}

/// A running daemon and the thread draining its stderr.
pub struct Daemon {
    child: Reaper,
    pub addr: SocketAddr,
    drain: std::thread::JoinHandle<()>,
}

impl Daemon {
    /// Spawns `udsim serve` and waits for its first `200` on
    /// `/healthz`; returns the daemon and that spawn-to-200 time.
    pub fn start(ctx: &Ctx, native_cache: &std::path::Path) -> Result<(Daemon, f64), String> {
        let clock = Instant::now();
        let child = Command::new(&ctx.udsim)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--allow-quit",
            ])
            .env("UDS_NATIVE_CACHE", native_cache)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning udsim serve: {e}"))?;
        let mut child = Reaper(child);
        let mut stderr = BufReader::new(child.0.stderr.take().expect("stderr is piped"));
        // The first stderr line announces the bound port.
        let mut line = String::new();
        stderr
            .read_line(&mut line)
            .map_err(|e| format!("reading udsim serve: {e}"))?;
        let addr: SocketAddr = line
            .trim()
            .strip_prefix("udsim: listening on http://")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected first line from udsim serve: `{}`", line.trim()))?;
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = stderr.read_to_end(&mut sink);
        });
        let daemon = Daemon { child, addr, drain };
        match http(addr, "GET", "/healthz", "") {
            Ok((200, _)) => Ok((daemon, clock.elapsed().as_secs_f64())),
            other => {
                daemon.stop().ok();
                Err(format!("/healthz answered {other:?}"))
            }
        }
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        read_status_kib(&self.child.0.id().to_string(), "VmHWM")
            .map(|kib| kib as f64 / 1024.0)
            .map_err(|e| e.to_string())
    }

    /// Asks the daemon to drain and waits until it and the stderr thread
    /// have ended.
    pub fn stop(self) -> Result<(), String> {
        let quit = http(self.addr, "POST", "/quitquitquit", "");
        let status = self.child.finish(Duration::from_secs(20));
        let _ = self.drain.join();
        match (quit, status) {
            (Ok((200, _)), Ok(status)) if status.success() => Ok(()),
            (quit, status) => Err(format!(
                "udsim serve did not stop cleanly: {quit:?} {status:?}"
            )),
        }
    }
}

/// One finished request.
struct Done {
    index: usize,
    conn: usize,
    slice: Option<usize>,
    start: Instant,
    end: Instant,
    reply: Result<(u16, String), String>,
}

/// A checked request: its schedule index, client connection, the slice
/// of the timed window it ran in (`None` for warm traffic), timing, and
/// the `cache` field of its response (`None` when it failed).
pub struct Checked {
    pub index: usize,
    pub conn: usize,
    pub slice: Option<usize>,
    pub start: Instant,
    pub end: Instant,
    pub cache: Option<String>,
}

impl Checked {
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// One slice of the timed window: from its first request to its last
/// reply, and the host probe taken just before it.
pub struct Slice {
    pub start: Instant,
    pub end: Instant,
    pub probe_s: f64,
}

/// Everything one serve-mix run observed.
pub struct MixRun {
    /// Spawn-to-first-200 times, as measured: unlike the traffic, a
    /// spawn does not slow with the host probe (README.md, "Host noise").
    pub setup: Vec<f64>,
    pub peak_rss_mb: f64,
    pub slices: Vec<Slice>,
    pub requests: Vec<Checked>,
}

impl MixRun {
    /// Requests of the timed window.
    pub fn in_window(&self) -> impl Iterator<Item = &Checked> {
        self.requests.iter().filter(|r| r.slice.is_some())
    }

    /// Seconds of traffic in the timed window (the probes excluded).
    pub fn window_s(&self) -> f64 {
        self.slices
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Vectors served per second of the window, by good replies, as
    /// measured.
    pub fn raw_vectors_per_s(&self) -> f64 {
        let ok = self.in_window().filter(|r| r.cache.is_some()).count();
        (ok * VECTORS) as f64 / self.window_s()
    }

    /// `vectors_per_s`: the window's rate, scaled by the mean of its
    /// slices' probes. The window's time is the sum of the slices' times,
    /// each stretched by the host's speed then, so the mean probe is its
    /// match. A slice's own rate is too noisy to scale alone: a second of
    /// traffic holds only a few of the 100 ms c6288 requests.
    pub fn vectors_per_s(&self) -> f64 {
        let probes: f64 = self.slices.iter().map(|s| s.probe_s).sum();
        let mean_probe = probes / self.slices.len() as f64;
        self.raw_vectors_per_s() / host::scale(mean_probe)
    }
}

/// Closed-loop traffic, resuming the schedule at `next`, until `until`;
/// each request is tagged with `slice`.
fn traffic(
    mix: &Mix,
    addr: SocketAddr,
    next: &AtomicUsize,
    until: Instant,
    slice: Option<usize>,
) -> Vec<Done> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    while Instant::now() < until {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let body = mix.body(index);
                        let start = Instant::now();
                        let reply =
                            http(addr, "POST", "/simulate", &body).map_err(|e| e.to_string());
                        let broken = reply.is_err();
                        done.push(Done {
                            index,
                            conn,
                            slice,
                            start,
                            end: Instant::now(),
                            reply,
                        });
                        // A transport error means the daemon is gone;
                        // retrying would only spin.
                        if broken {
                            break;
                        }
                    }
                    done
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client threads do not panic"))
            .collect()
    })
}

/// Runs the mix: set-up spawns, a warm-up request per hot key, warm
/// traffic, then slices of timed traffic until `closes`, or until
/// [`WINDOW_REQUESTS`] timed requests have completed if that is later.
/// Every response is checked after the window closes.
pub fn run(ctx: &Ctx, mix: &Mix, closes: Instant, outcome: &mut Outcome) -> Result<MixRun, String> {
    let native_cache = ctx.scratch.join("serve-native");
    let mut setup = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let (started, secs) = Daemon::start(ctx, &native_cache)?;
        setup.push(secs);
        if rep + 1 < SETUP_REPS {
            started.stop()?;
        } else {
            daemon = Some(started);
        }
    }
    let daemon = daemon.expect("SETUP_REPS is at least one");

    // One request per hot key, so every compile (cc included) happens
    // before the clock starts; the schedule resumes after them.
    for (class, h) in HOT.iter().enumerate() {
        let reply = http(daemon.addr, "POST", "/simulate", &mix.bodies[class][0]);
        outcome.tally(match &reply {
            Ok((200, text)) => {
                check_serve_body(text, &mix.expected[h.circuit][0], h.served_engine())
            }
            other => Err(format!("warm-up {}: {other:?}", h.label())),
        });
    }

    let next = AtomicUsize::new(0);
    let mut done = traffic(mix, daemon.addr, &next, Instant::now() + WARM_TRAFFIC, None);
    let (mut slices, mut timed) = (Vec::new(), 0);
    while Instant::now() < closes || timed < WINDOW_REQUESTS {
        let probe_s = host::probe();
        let start = Instant::now();
        let replies = traffic(mix, daemon.addr, &next, start + SLICE, Some(slices.len()));
        let end = replies.iter().map(|d| d.end).max().unwrap_or(start);
        let broken = replies.iter().any(|d| d.reply.is_err());
        timed += replies.len();
        done.extend(replies);
        slices.push(Slice {
            start,
            end,
            probe_s,
        });
        // A transport error means the daemon is gone.
        if broken {
            break;
        }
    }
    let peak_rss_mb = daemon.peak_rss_mb()?;
    daemon.stop()?;

    let requests = done
        .into_iter()
        .map(|d| {
            let cache = match &d.reply {
                Ok((200, text)) => mix.check(d.index, text),
                other => Err(format!("request {}: {other:?}", d.index)),
            };
            Checked {
                index: d.index,
                conn: d.conn,
                slice: d.slice,
                start: d.start,
                end: d.end,
                cache: outcome.tally(cache),
            }
        })
        .collect();
    Ok(MixRun {
        setup,
        peak_rss_mb,
        slices,
        requests,
    })
}

/// Measures `serve-mix` with tracing off. The timed window closes
/// `seconds` after the measurement began (see [`run`] for when it
/// closes later), so the set-up spawns, the warm-up compiles and the
/// warm traffic all count inside `seconds`.
pub fn measure(ctx: &Ctx, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let closes = Instant::now() + Duration::from_secs_f64(seconds);
    let mix = Mix::new(ctx, seed)?;
    let mut outcome = Outcome::default();
    let run = run(ctx, &mix, closes, &mut outcome)?;
    let latencies: Vec<f64> = run.in_window().map(Checked::latency_ms).collect();
    let misses: Vec<f64> = run
        .in_window()
        .filter(|r| r.cache.as_deref() == Some("miss"))
        .map(Checked::latency_ms)
        .collect();
    let hits = run
        .in_window()
        .filter(|r| r.cache.as_deref() == Some("hit"))
        .count();
    if misses.is_empty() {
        return Err("no cache miss completed inside the window".to_owned());
    }
    let n = latencies.len();
    outcome.metrics = vec![
        Measured::new(
            "vectors_per_s",
            "vectors/s",
            run.vectors_per_s(),
            run.slices.len(),
        ),
        Measured::new("latency_p50_ms", "ms", median(&latencies), n),
        Measured::new("peak_rss_mb", "MiB", run.peak_rss_mb, 1),
        Measured::new("setup_s", "s", median(&run.setup), run.setup.len()),
        Measured::new("requests_per_s", "req/s", n as f64 / run.window_s(), n),
        Measured::new(
            "latency_p99_ms",
            "ms",
            tail_percentile(&latencies, 0.99)?,
            n,
        ),
        Measured::new("miss_latency_p50_ms", "ms", median(&misses), misses.len()),
    ];
    outcome.notes.push(format!(
        "unscaled: vectors_per_s = {:.1} over {} slices",
        run.raw_vectors_per_s(),
        run.slices.len(),
    ));
    outcome.notes.push(format!(
        "cache.hit_ratio = {:.4} ({hits} hits of {n} requests completed in the window)",
        hits as f64 / n as f64
    ));
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_holds_the_exact_mix() {
        assert_eq!(
            HOT.iter().map(|h| h.per_block).sum::<usize>() + VARIANTS_PER_BLOCK,
            BLOCK
        );
        for seed in [1, 1990] {
            for block in 0..3 {
                let mut counts = [0usize; HOT.len()];
                let mut variants = 0;
                for index in block * BLOCK..(block + 1) * BLOCK {
                    let s = spec(seed, index, 500);
                    assert!(s.slot < SEEDS_PER_CIRCUIT);
                    match s.kind {
                        Kind::Hot(class) => counts[class] += 1,
                        Kind::Variant { a, b } => {
                            assert!(a != b && a < 500 && b < 500);
                            variants += 1;
                        }
                    }
                }
                assert_eq!(variants, VARIANTS_PER_BLOCK);
                for (count, h) in counts.iter().zip(&HOT) {
                    assert_eq!(*count, h.per_block);
                }
            }
        }
        assert_ne!(
            (0..BLOCK).map(|i| spec(1, i, 500)).collect::<Vec<_>>(),
            (0..BLOCK).map(|i| spec(2, i, 500)).collect::<Vec<_>>(),
            "the seed reorders the block"
        );
    }
}
