//! Child processes: timed runs reaped with `wait4` (for `ru_maxrss`),
//! `/proc/<pid>/status` memory readers, and a guard that never leaves a
//! daemon behind.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` (x86_64 and aarch64 share the layout).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a timed child ended.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended the child.
    pub code: Option<i32>,
    /// Spawn to reap.
    pub wall: Duration,
    /// The child's peak resident set (`ru_maxrss`), in KiB. Linux folds
    /// the spawning process's high-water mark into it at `exec`, so the
    /// harness keeps its own footprint small before timing a child.
    pub max_rss_kib: u64,
}

/// Reaps `pid` with `wait4`, returning the raw status and `ru_maxrss`.
fn reap(pid: u32) -> io::Result<(i32, u64)> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are valid, writable, and laid out
        // as the kernel's `int` and `struct rusage`; `pid` is our child.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            return Ok((status, u64::try_from(usage.maxrss).unwrap_or(0)));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Runs `command` to completion, timing it from spawn to reap.
pub fn run_timed(command: &mut Command) -> io::Result<Exit> {
    let start = Instant::now();
    let mut child = command.spawn()?;
    match reap(child.id()) {
        Ok((status, max_rss_kib)) => Ok(Exit {
            // WIFEXITED / WEXITSTATUS.
            code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
            wall: start.elapsed(),
            max_rss_kib,
        }),
        Err(err) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(err)
        }
    }
}

/// The `key:` line of a `/proc/<pid>/status` text, in KiB.
pub fn status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Reads `key` (`VmHWM`, `VmRSS`, ...) of process `pid` (`"self"` for
/// the harness), in KiB.
pub fn read_status_kib(pid: &str, key: &str) -> io::Result<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status_kib(&text, key)
        .ok_or_else(|| io::Error::other(format!("/proc/{pid}/status has no {key}")))
}

/// A spawned child that is killed and waited for if it is still running
/// when the guard drops, so no error path leaves a process behind.
pub struct Reaper(pub Child);

impl Reaper {
    /// Waits for a clean exit, killing the child if it has not exited
    /// within `grace`.
    pub fn finish(mut self, grace: Duration) -> io::Result<std::process::ExitStatus> {
        let deadline = Instant::now() + grace;
        loop {
            if let Some(status) = self.0.try_wait()? {
                return Ok(status);
            }
            if Instant::now() >= deadline {
                self.0.kill()?;
                return self.0.wait();
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Reaper {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// Builds `udsim` from the checkout at `root` and returns its path. The
/// build shares `$CARGO_TARGET_DIR` when set (the harness's own build
/// uses it too), else the workspace's `target/`.
pub fn build_udsim(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "udsim",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building udsim failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let binary = target.join("release").join("udsim");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("built udsim is missing at {}", binary.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_reader_parses_proc_lines() {
        let text = "Name:\tudsim\nVmPeak:\t  120000 kB\nVmHWM:\t   28100 kB\nVmRSS:\t   20480 kB\n";
        assert_eq!(status_kib(text, "VmHWM"), Some(28100));
        assert_eq!(status_kib(text, "VmRSS"), Some(20480));
        assert_eq!(status_kib(text, "VmSwap"), None);
        assert_eq!(status_kib("VmHWM:\tgarbage kB\n", "VmHWM"), None);
        // RSS first: the high-water mark read after it can only be larger.
        let own_rss = read_status_kib("self", "VmRSS").unwrap();
        let own_hwm = read_status_kib("self", "VmHWM").unwrap();
        assert!(own_hwm >= own_rss && own_rss > 0, "{own_hwm} {own_rss}");
    }

    #[test]
    fn wait4_reports_exit_codes_and_peak_rss() {
        let ok = run_timed(Command::new("true").arg("x")).unwrap();
        assert_eq!(ok.code, Some(0));
        assert!(ok.max_rss_kib > 0);
        let failed = run_timed(&mut Command::new("false")).unwrap();
        assert_eq!(failed.code, Some(1));
        // A shell holding a 16 MiB string must report at least that much.
        let big = run_timed(Command::new("sh").args([
            "-c",
            "x=$(head -c 16777216 /dev/zero | tr '\\0' a); test ${#x} -gt 0",
        ]))
        .unwrap();
        assert_eq!(big.code, Some(0));
        assert!(big.max_rss_kib >= 16 * 1024, "{}", big.max_rss_kib);
    }

    #[test]
    fn reaper_kills_a_child_left_running() {
        let child = Command::new("sleep").arg("30").spawn().unwrap();
        let pid = child.id();
        drop(Reaper(child));
        assert!(!Path::new(&format!("/proc/{pid}")).exists());
    }
}
