//! The host-speed probe that the gated timings are scaled by.
//!
//! The shared 2-core host changes speed by up to 1.5× from one minute to
//! the next, and CPU time moves with wall time, so the slowdown is in
//! the hardware, not in scheduling. The probe is a fixed piece of the
//! harness's own code, shaped like the workloads: a bit-parallel pass
//! over a random gate list, then hex formatting of the last words. It
//! does not depend on the crates under test, so a change to `udsim`
//! cannot move it. Each timed CLI run and each slice of serve traffic is
//! taken right after a probe and scaled by [`scale`], so the figures read
//! as on a host where the probe takes [`REFERENCE_S`]. A daemon spawn is
//! not: its time hardly follows the probe, and scaling it widened the
//! spread of `serve-mix`'s `setup_s` threefold.

use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

use crate::splitmix;

/// The probe's median time, in seconds, on the quiet 2-core host the
/// benchmark was set up on: a unit convention, identical for both sides
/// of any comparison.
pub const REFERENCE_S: f64 = 0.045;

const INPUTS: usize = 64;
const GATES: usize = 3000;
const PASSES: usize = 4500;
/// Words of each pass formatted as hex, as a row printer would.
const PRINTED: usize = 100;

/// Runs the probe once and returns its time, in seconds.
pub fn probe() -> f64 {
    let mut state = 0x5EED_u64;
    let gates: Vec<(usize, usize, u64)> = (0..GATES)
        .map(|g| {
            let nets = (INPUTS + g) as u64;
            let a = (splitmix(&mut state) % nets) as usize;
            let b = (splitmix(&mut state) % nets) as usize;
            (a, b, splitmix(&mut state) % 4)
        })
        .collect();
    let mut words = vec![0u64; INPUTS + GATES];
    let mut row = String::with_capacity(PRINTED * 16);
    let mut check = 0u64;
    let start = Instant::now();
    for _ in 0..black_box(PASSES) {
        for word in &mut words[..INPUTS] {
            *word = splitmix(&mut state);
        }
        for (g, &(a, b, kind)) in gates.iter().enumerate() {
            let (x, y) = (words[a], words[b]);
            words[INPUTS + g] = match kind {
                0 => x & y,
                1 => x | y,
                2 => x ^ y,
                _ => !(x & y),
            };
        }
        row.clear();
        for word in &words[words.len() - PRINTED..] {
            write!(row, "{word:016x}").expect("writing to a String cannot fail");
        }
        check ^= row.len() as u64 ^ words[words.len() - 1];
    }
    black_box(check);
    start.elapsed().as_secs_f64()
}

/// The factor that turns a time taken right after a probe that read
/// `probe_s` into reference-host time.
pub fn scale(probe_s: f64) -> f64 {
    REFERENCE_S / probe_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_time_grows_with_its_work() {
        let once = probe();
        let start = Instant::now();
        for _ in 0..3 {
            probe();
        }
        let thrice = start.elapsed().as_secs_f64();
        // Not 3×: the host may change speed between the two readings.
        assert!(once > 0.0 && thrice > 1.5 * once, "{once} {thrice}");
        assert!((scale(REFERENCE_S * 2.0) - 0.5).abs() < 1e-12);
    }
}
