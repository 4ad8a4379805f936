//! Live progress for the streaming runner.
//!
//! [`run_stream`](crate::batch::run_stream) hands each shard's progress
//! to a [`BatchProbe`]: periodic records (vectors done, throughput,
//! fallback state), throttled to [`BatchProbe::heartbeat_interval`],
//! plus one final record per shard. A run without a probe pays nothing
//! for the hook.
//!
//! [`NdjsonProgress`] is the CLI's heartbeat sink: one JSON object per
//! line (`uds-progress-v1`), flushed per record so `--progress -` can
//! be tailed live.

use std::io::Write;
use std::sync::Mutex;
use std::time::Duration;

use crate::telemetry::json::Json;
use crate::Engine;

/// Schema tag of [`NdjsonProgress`] records.
pub const PROGRESS_SCHEMA: &str = "uds-progress-v1";

/// One progress record from one shard.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Heartbeat {
    /// The reporting shard.
    pub shard: usize,
    /// Vectors the shard has finished.
    pub done: usize,
    /// Vectors the shard owns in total.
    pub total: usize,
    /// Wall-clock time since the shard started.
    pub wall_ns: u64,
    /// The engine currently running the shard (may change as the
    /// fallback chain degrades).
    pub engine: Engine,
    /// Fallbacks fired inside the shard so far.
    pub fallbacks: usize,
    /// `true` on the shard's final record.
    pub finished: bool,
}

impl Heartbeat {
    /// Throughput so far, in vectors per second (0 before any time has
    /// passed).
    pub fn vectors_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.done as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// The `uds-progress-v1` record: what `--progress` streams and what
    /// the serve daemon's `GET /jobs/:id` lists per shard.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(PROGRESS_SCHEMA.to_owned())),
            ("shard", Json::UInt(self.shard as u64)),
            ("done", Json::UInt(self.done as u64)),
            ("total", Json::UInt(self.total as u64)),
            ("wall_ns", Json::UInt(self.wall_ns)),
            ("vectors_per_sec", Json::Float(self.vectors_per_sec())),
            ("engine", Json::Str(self.engine.to_string())),
            ("fallbacks", Json::UInt(self.fallbacks as u64)),
            ("finished", Json::Bool(self.finished)),
        ])
    }
}

/// Where a run's heartbeats go. Probes are shared by every shard's
/// thread concurrently, hence `Sync`; implementations own their
/// interior synchronization.
pub trait BatchProbe: Sync {
    /// Minimum spacing between a shard's heartbeats (the first and the
    /// final record always fire).
    fn heartbeat_interval(&self) -> Duration {
        Duration::from_millis(100)
    }

    /// A shard progress record. Called from the shard's thread.
    fn heartbeat(&self, beat: &Heartbeat);
}

/// Streams heartbeats as newline-delimited JSON (`uds-progress-v1`),
/// one object per line, flushed per record.
pub struct NdjsonProgress {
    out: Mutex<Box<dyn Write + Send>>,
    interval: Duration,
}

impl NdjsonProgress {
    /// Streams to `out` at the default ~100 ms cadence.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        Self::with_interval(out, Duration::from_millis(100))
    }

    /// Streams to `out`, spacing each shard's records at least
    /// `interval` apart.
    pub fn with_interval(out: Box<dyn Write + Send>, interval: Duration) -> Self {
        NdjsonProgress {
            out: Mutex::new(out),
            interval,
        }
    }

    /// Renders one heartbeat as its NDJSON line (no trailing newline).
    pub fn render(beat: &Heartbeat) -> String {
        beat.to_json().render()
    }
}

impl BatchProbe for NdjsonProgress {
    fn heartbeat_interval(&self) -> Duration {
        self.interval
    }

    fn heartbeat(&self, beat: &Heartbeat) {
        let line = Self::render(beat);
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        // A dead sink (closed pipe) must not kill the batch; progress
        // is best-effort by design.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_lines_are_parseable_and_schema_tagged() {
        let beat = Heartbeat {
            shard: 2,
            done: 50,
            total: 100,
            wall_ns: 1_000_000_000,
            engine: Engine::EventDriven,
            fallbacks: 1,
            finished: false,
        };
        let line = NdjsonProgress::render(&beat);
        let json = Json::parse(&line).expect("NDJSON lines are valid JSON");
        let obj = json.as_obj().unwrap();
        let field = |k: &str| obj.iter().find(|(key, _)| key == k).unwrap().1.clone();
        assert_eq!(field("schema").as_str(), Some(PROGRESS_SCHEMA));
        assert_eq!(field("shard").as_u64(), Some(2));
        assert_eq!(field("done").as_u64(), Some(50));
        assert_eq!(field("vectors_per_sec").as_f64(), Some(50.0));
        assert!(!line.contains('\n'), "one record per line");
    }

    #[test]
    fn throughput_handles_zero_time() {
        let beat = Heartbeat {
            shard: 0,
            done: 0,
            total: 10,
            wall_ns: 0,
            engine: Engine::Parallel,
            fallbacks: 0,
            finished: false,
        };
        assert_eq!(beat.vectors_per_sec(), 0.0);
    }

    #[test]
    fn sink_collects_flushed_lines() {
        use std::sync::Arc;

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

        let sink = Shared::default();
        let progress = NdjsonProgress::new(Box::new(sink.clone()));
        for shard in 0..3 {
            progress.heartbeat(&Heartbeat {
                shard,
                done: shard + 1,
                total: 4,
                wall_ns: 1000,
                engine: Engine::PcSet,
                fallbacks: 0,
                finished: shard == 2,
            });
        }
        let bytes = sink.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            Json::parse(line).expect("every line parses standalone");
        }
    }
}
