//! The stdout contract shared by every `-` stream flag.
//!
//! Several CLI flags can stream a machine-readable report to a path or
//! to stdout (`--stats -`, `--trace -`, `--progress -`, the bench
//! tables' `--json -`). The contract is uniform:
//!
//! * at most **one** flag per invocation may claim stdout — a second
//!   `-` is a usage error, not silently interleaved JSON;
//! * when any flag claims stdout, the human-readable output moves to
//!   stderr, so `udsim … --trace - | jq .` always parses.
//!
//! [`StreamContract`] tracks the claim while flags parse; [`HumanOut`]
//! is the resulting human-output sink, written through one buffer
//! ([`HumanOut::writer`]) under the closed-pipe rule
//! ([`is_closed_pipe`]); [`open_sink`] / [`write_text`] resolve a
//! destination (`-` or a path) consistently.

use std::io::{self, BufWriter, Write};

/// Tracks which stream flag, if any, has claimed stdout.
#[derive(Clone, Debug, Default)]
pub struct StreamContract {
    claimed: Option<String>,
}

impl StreamContract {
    /// No stream flag seen yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `flag` (e.g. `"--trace"`) writing to `dest`. A `dest`
    /// of `-` claims stdout; claiming it twice is an error whose
    /// message names both flags.
    ///
    /// # Errors
    ///
    /// When `dest` is `-` and another flag already claimed stdout.
    pub fn claim(&mut self, flag: &str, dest: &str) -> Result<(), String> {
        if dest != "-" {
            return Ok(());
        }
        if let Some(previous) = &self.claimed {
            return Err(format!(
                "{flag} -: stdout is already claimed by `{previous} -` \
                 (at most one stream flag may write to stdout)"
            ));
        }
        self.claimed = Some(flag.to_owned());
        Ok(())
    }

    /// `true` once some flag claimed stdout.
    pub fn stdout_claimed(&self) -> bool {
        self.claimed.is_some()
    }

    /// The matching human-output sink: stderr when stdout is claimed.
    pub fn human(&self) -> HumanOut {
        HumanOut {
            to_stderr: self.stdout_claimed(),
        }
    }
}

/// Routes human-readable output: stdout normally, stderr when a stream
/// flag owns stdout.
#[derive(Clone, Copy, Debug, Default)]
pub struct HumanOut {
    /// `true` when human output must yield stdout to a machine stream.
    pub to_stderr: bool,
}

impl HumanOut {
    /// The routed stream behind one 64 KiB buffer. The stream is
    /// unlocked: a worker's panic report must not wait on a lock of the
    /// stream it writes to. A write error that [`is_closed_pipe`] means
    /// the reader went away, and the run should end quietly; flush
    /// before exiting, as the buffer may hold the last lines back.
    pub fn writer(self) -> BufWriter<Box<dyn Write>> {
        let stream: Box<dyn Write> = if self.to_stderr {
            Box::new(io::stderr())
        } else {
            Box::new(io::stdout())
        };
        BufWriter::with_capacity(1 << 16, stream)
    }
}

/// `true` when a write failed because its reader closed the pipe
/// (`udsim simulate … | head`): the closed-pipe rule ends such a run
/// quietly with exit 0, as `cat` would.
pub fn is_closed_pipe(err: &io::Error) -> bool {
    err.kind() == io::ErrorKind::BrokenPipe
}

/// Opens `dest` as a writable sink: `-` is stdout, anything else is a
/// (created or truncated) file.
///
/// # Errors
///
/// File creation errors pass through.
pub fn open_sink(dest: &str) -> io::Result<Box<dyn Write + Send>> {
    if dest == "-" {
        Ok(Box::new(io::stdout()))
    } else {
        Ok(Box::new(std::fs::File::create(dest)?))
    }
}

/// Writes a fully rendered report to `dest`: `-` prints to stdout, a
/// path writes the file and notes `wrote <dest>` on stderr.
///
/// # Errors
///
/// File write errors pass through.
pub fn write_text(dest: &str, text: &str) -> io::Result<()> {
    if dest == "-" {
        let mut out = io::stdout();
        out.write_all(text.as_bytes())?;
        out.flush()
    } else {
        std::fs::write(dest, text)?;
        eprintln!("wrote {dest}");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_destinations_never_conflict() {
        let mut contract = StreamContract::new();
        contract.claim("--stats", "a.json").unwrap();
        contract.claim("--trace", "b.json").unwrap();
        contract.claim("--progress", "c.ndjson").unwrap();
        assert!(!contract.stdout_claimed());
        assert!(!contract.human().to_stderr);
    }

    #[test]
    fn one_stdout_claim_moves_human_output_to_stderr() {
        let mut contract = StreamContract::new();
        contract.claim("--trace", "-").unwrap();
        assert!(contract.stdout_claimed());
        assert!(contract.human().to_stderr);
        contract.claim("--stats", "out.json").unwrap();
    }

    #[test]
    fn second_stdout_claim_is_an_error_naming_both_flags() {
        let mut contract = StreamContract::new();
        contract.claim("--stats", "-").unwrap();
        let err = contract.claim("--trace", "-").unwrap_err();
        assert!(err.contains("--stats"), "{err}");
        assert!(err.contains("--trace"), "{err}");
    }
}
