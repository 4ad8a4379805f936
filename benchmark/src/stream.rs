//! The CLI workloads: `udsim simulate FILE --vectors N --seed S --jobs 1`
//! timed from outside the process, one child per repetition.
//!
//! A measurement is a fixed number of short runs, so the number of
//! samples does not depend on the speed being measured and a slow
//! episode of the host spoils a few of them rather than the whole
//! measurement: one warm-up (checked row by row, then kept as the
//! reference), then [`Workload::reps`] timed runs, each right after a
//! host probe and scaled by it (see `host.rs`), reduced to their median.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::host;
use crate::metrics::{median, Measured};
use crate::oracle::check_cli_output;
use crate::proc::{run_timed, Exit};
use crate::{Ctx, Outcome, Workload};

/// Cold native set-ups, each into an empty artifact cache (each pays
/// the full `cc` compile); their median is `native-c1908`'s `setup_s`.
const NATIVE_SETUP_REPS: usize = 3;
/// A safety stop, not a time budget: timed runs end early once the
/// measurement has taken this many times `--seconds`, which happens only
/// when the host runs far slower than the quiet host the run counts were
/// sized on. The median of scaled runs does not lean on their number.
const OVERRUN: f64 = 1.5;
/// Timed runs taken whatever the time.
pub const MIN_REPS: usize = 5;

/// A workload's `udsim simulate` command, and whether a checked
/// reference output exists for later runs to match.
pub struct Cli<'a> {
    ctx: &'a Ctx,
    workload: Workload,
    seed: u64,
    vectors: usize,
    has_reference: bool,
}

impl<'a> Cli<'a> {
    /// The workload's command for `seed`.
    pub fn new(ctx: &'a Ctx, workload: Workload, seed: u64) -> Self {
        Cli {
            ctx,
            workload,
            seed,
            vectors: workload.vectors(),
            has_reference: false,
        }
    }

    /// Vectors per full run.
    pub fn vectors(&self) -> usize {
        self.vectors
    }

    /// The engine the header must name.
    pub fn engine(&self) -> &'static str {
        if self.workload.native() {
            "native"
        } else {
            "parallel+pt+trim"
        }
    }

    /// Runs the workload's command over `vectors` vectors, stdout to
    /// `out`, native artifacts cached in `cache`. A non-zero exit is an
    /// error carrying the command's stderr.
    fn run(&self, vectors: usize, out: &Path, cache: &Path) -> Result<Exit, String> {
        let stderr = self.ctx.scratch.join("udsim.stderr");
        let mut command = Command::new(&self.ctx.udsim);
        command
            .arg("simulate")
            .arg(self.ctx.circuit_path(self.workload.circuit()))
            .args(["--vectors", &vectors.to_string()])
            .args(["--seed", &self.seed.to_string(), "--jobs", "1"])
            .env("UDS_NATIVE_CACHE", cache)
            .stdin(Stdio::null())
            .stdout(create(out)?)
            .stderr(create(&stderr)?);
        if self.workload.native() {
            command.args(["--engine", "native"]);
        }
        let exit = run_timed(&mut command).map_err(|e| format!("running udsim: {e}"))?;
        if exit.code != Some(0) {
            let said = std::fs::read_to_string(&stderr).unwrap_or_default();
            return Err(format!(
                "udsim exited with {:?}: {}",
                exit.code,
                said.trim()
            ));
        }
        Ok(exit)
    }

    /// Checks a run's stdout against the oracle.
    fn verify(&self, out: &Path, vectors: usize) -> Result<(), String> {
        let netlist = self.ctx.netlist(self.workload.circuit())?;
        let file = File::open(out).map_err(|e| format!("{}: {e}", out.display()))?;
        check_cli_output(
            BufReader::new(file),
            &netlist,
            self.seed,
            vectors,
            self.engine(),
        )
    }

    /// One checked `--vectors 1` run: the command's set-up cost, in
    /// seconds, or `None` when the run failed (counted in `outcome`).
    pub fn setup(&self, cache: &Path, outcome: &mut Outcome) -> Option<f64> {
        let out = self.ctx.scratch.join("setup.out");
        let checked = self.run(1, &out, cache).and_then(|exit| {
            self.verify(&out, 1)?;
            Ok(exit.wall.as_secs_f64())
        });
        outcome.tally(checked)
    }

    /// One full run of the workload's command, checked after its clock
    /// stopped: row by row against the oracle until a run passes, and
    /// every later one byte for byte against that run's output. `None`
    /// when the run failed (counted in `outcome`).
    pub fn full_run(&mut self, cache: &Path, outcome: &mut Outcome) -> Option<Exit> {
        let reference = self.ctx.scratch.join("reference.out");
        let out = if self.has_reference {
            self.ctx.scratch.join("rep.out")
        } else {
            reference.clone()
        };
        let checked = self.run(self.vectors, &out, cache).and_then(|exit| {
            if !self.has_reference {
                self.verify(&out, self.vectors)?;
            } else if !same_bytes(&reference, &out)
                .map_err(|e| format!("comparing outputs: {e}"))?
            {
                return Err("a run's output differs from the checked reference".to_owned());
            }
            Ok(exit)
        });
        self.has_reference |= checked.is_ok();
        outcome.tally(checked)
    }
}

fn create(path: &Path) -> Result<File, String> {
    File::create(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// `true` when the two files hold the same bytes (read in chunks, so
/// the harness's own footprint stays small).
fn same_bytes(a: &Path, b: &Path) -> std::io::Result<bool> {
    let (mut a, mut b) = (File::open(a)?, File::open(b)?);
    if a.metadata()?.len() != b.metadata()?.len() {
        return Ok(false);
    }
    let (mut x, mut y) = (vec![0u8; 1 << 16], vec![0u8; 1 << 16]);
    loop {
        let n = a.read(&mut x)?;
        if n == 0 {
            return Ok(true);
        }
        b.read_exact(&mut y[..n])?;
        if x[..n] != y[..n] {
            return Ok(false);
        }
    }
}

/// Measures a stream workload with tracing off. A failed run is counted
/// and its sample skipped; a metric none of whose samples succeeded is
/// left out.
pub fn measure(ctx: &Ctx, workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut cli = Cli::new(ctx, workload, seed);
    let mut outcome = Outcome::default();
    // Scaled samples, and the same samples as measured.
    let (mut setup, mut raw_setup) = (Vec::new(), Vec::new());
    let mut cache = ctx.scratch.join("native-warm");
    if workload.native() {
        // The last cold set-up's artifact cache serves the warm runs.
        for rep in 0..NATIVE_SETUP_REPS {
            cache = ctx.scratch.join(format!("native-cold-{rep}"));
            let scale = host::scale(host::probe());
            if let Some(secs) = cli.setup(&cache, &mut outcome) {
                setup.push(secs * scale);
                raw_setup.push(secs);
            }
        }
    }

    // Warm-up: fills the page and artifact caches and becomes the
    // checked reference.
    cli.full_run(&cache, &mut outcome);
    let (mut walls, mut raw_walls, mut rss, mut probes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let reps = workload.reps(seconds);
    for rep in 0..reps {
        if rep >= MIN_REPS && started.elapsed().as_secs_f64() > OVERRUN * seconds {
            outcome.notes.push(format!(
                "stopped after {rep} of {reps} timed runs: {OVERRUN} × --seconds had passed"
            ));
            break;
        }
        let probe = host::probe();
        probes.push(probe);
        if !workload.native() {
            if let Some(secs) = cli.setup(&cache, &mut outcome) {
                setup.push(secs * host::scale(probe));
                raw_setup.push(secs);
            }
        }
        if let Some(exit) = cli.full_run(&cache, &mut outcome) {
            let wall = exit.wall.as_secs_f64();
            walls.push(wall * host::scale(probe));
            raw_walls.push(wall);
            rss.push(exit.max_rss_kib as f64 / 1024.0);
        }
    }

    let vectors = cli.vectors() as f64;
    outcome.metrics = [
        (
            "vectors_per_s",
            "vectors/s",
            &walls,
            vectors / median(&walls),
        ),
        ("peak_rss_mb", "MiB", &rss, median(&rss)),
        ("setup_s", "s", &setup, median(&setup)),
    ]
    .into_iter()
    .filter(|(_, _, samples, _)| !samples.is_empty())
    .map(|(name, unit, samples, value)| Measured::new(name, unit, value, samples.len()))
    .collect();
    outcome.notes.push(format!(
        "unscaled: vectors_per_s = {:.1}, setup_s = {:.5}; host probe median {:.4} s against {} s",
        vectors / median(&raw_walls),
        median(&raw_setup),
        median(&probes),
        host::REFERENCE_S
    ));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use uds_core::telemetry::json::Json;

    #[test]
    fn a_command_that_exits_non_zero_is_counted_and_measuring_goes_on() {
        let scratch = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("test-failing-command-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let ctx = Ctx {
            root: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/..")),
            // Exits 1 whatever its arguments.
            udsim: PathBuf::from("false"),
            scratch,
        };
        let outcome = measure(&ctx, Workload::StreamC432, 1, 1.0);
        // Warm-up, then each rep's set-up run and full run: all failed,
        // none abandoned the measurement.
        let runs = (1 + Workload::StreamC432.reps(1.0) * 2) as u64;
        assert_eq!((outcome.attempted, outcome.failed), (runs, runs));
        assert!(outcome.errors[0].contains("exited with Some(1)"));
        assert!(outcome.metrics.is_empty());
        let result = outcome.result(&[("vectors_per_s", "vectors/s")]).unwrap();
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    }
}
