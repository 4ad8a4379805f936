//! Minimal VCD (Value Change Dump) emission for unit-delay histories.
//!
//! Compiled unit-delay simulation produces the complete time history of
//! every monitored net per vector; dumping those histories as VCD makes
//! them inspectable in any waveform viewer (GTKWave etc.). The writer
//! covers the small subset of IEEE 1364 VCD needed for that: a header,
//! one scope, `wire` declarations, and `#time` change records.

use std::fmt::Write as _;

use uds_netlist::{NetId, Netlist};

use crate::batch::Step;
use crate::error::SimError;
use crate::guard::GuardedSimulator;
use crate::UnitDelaySimulator;

/// Accumulates unit-delay waveforms across vectors and renders VCD.
///
/// Each simulated vector occupies a window of `depth + 1` VCD time
/// units; vector `k`'s time `t` lands at VCD time `k * (depth + 1) + t`.
///
/// # Example
///
/// ```
/// use uds_core::vcd::VcdRecorder;
/// use uds_core::{build_simulator, Engine};
/// use uds_netlist::generators::iscas::c17;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = c17();
/// let mut sim = build_simulator(&nl, Engine::Parallel)?;
/// let mut recorder = VcdRecorder::new(&nl, nl.primary_outputs().to_vec());
/// for pattern in [0b10101u32, 0b01010, 0b11111] {
///     let inputs: Vec<bool> = (0..5).map(|i| pattern >> i & 1 != 0).collect();
///     sim.simulate_vector(&inputs);
///     recorder.record(sim.as_ref());
/// }
/// let vcd = recorder.render();
/// assert!(vcd.contains("$var wire 1"));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct VcdRecorder {
    module: String,
    nets: Vec<(NetId, String)>,
    /// Per recorded vector, per net: the history.
    frames: Vec<Vec<Vec<bool>>>,
    depth: Option<u32>,
}

impl VcdRecorder {
    /// Creates a recorder for the given nets (names are taken from the
    /// netlist).
    pub fn new(netlist: &Netlist, nets: Vec<NetId>) -> Self {
        let nets = nets
            .into_iter()
            .map(|n| (n, netlist.net_name(n).to_owned()))
            .collect();
        VcdRecorder {
            module: netlist.name().to_owned(),
            nets,
            frames: Vec::new(),
            depth: None,
        }
    }

    /// Captures the histories of all recorded nets for the simulator's
    /// most recent vector.
    ///
    /// # Panics
    ///
    /// Panics if a recorded net has no reconstructible history in this
    /// engine (monitor it), or if the engine's depth changes between
    /// records.
    pub fn record(&mut self, simulator: &dyn UnitDelaySimulator) {
        let depth = simulator.depth();
        if let Some(previous) = self.depth {
            assert_eq!(previous, depth, "all records must share one circuit");
        }
        self.depth = Some(depth);
        let frame = self
            .nets
            .iter()
            .map(|&(net, ref name)| {
                simulator
                    .history(net)
                    .unwrap_or_else(|| panic!("net {name} has no recorded history"))
            })
            .collect();
        self.frames.push(frame);
    }

    /// Number of recorded vectors.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Renders the accumulated waveforms as VCD text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$comment unit-delay-sim waveform dump $end");
        let _ = writeln!(out, "$timescale 1ns $end");
        let _ = writeln!(out, "$scope module {} $end", sanitize(&self.module));
        let ids: Vec<String> = (0..self.nets.len()).map(vcd_identifier).collect();
        for ((_, name), id) in self.nets.iter().zip(&ids) {
            let _ = writeln!(out, "$var wire 1 {id} {} $end", sanitize(name));
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");

        let window = self.depth.map_or(1, |d| u64::from(d) + 1);
        let mut last: Vec<Option<bool>> = vec![None; self.nets.len()];
        for (frame_index, frame) in self.frames.iter().enumerate() {
            for t in 0..window {
                let mut stamped = false;
                for (net_index, history) in frame.iter().enumerate() {
                    let value = history[t as usize];
                    if last[net_index] != Some(value) {
                        if !stamped {
                            let _ = writeln!(out, "#{}", frame_index as u64 * window + t);
                            stamped = true;
                        }
                        let _ = writeln!(out, "{}{}", value as u8, ids[net_index]);
                        last[net_index] = Some(value);
                    }
                }
            }
        }
        let _ = writeln!(out, "#{}", self.frames.len() as u64 * window);
        out
    }
}

/// VCD identifier codes: printable ASCII 33..=126, multi-character for
/// more than 94 nets.
fn vcd_identifier(mut index: usize) -> String {
    let mut id = String::new();
    loop {
        id.push(char::from(b'!' + (index % 94) as u8));
        index /= 94;
        if index == 0 {
            break;
        }
        index -= 1;
    }
    id
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

/// The waveform step: every vector's histories become a VCD frame.
impl Step for VcdRecorder {
    fn step(&mut self, guard: &mut GuardedSimulator, inputs: &[bool]) -> Result<(), SimError> {
        guard.simulate_vector(inputs)?;
        self.record(guard.active_simulator());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_simulator, Engine};
    use uds_netlist::generators::iscas::c17;

    #[test]
    fn vcd_has_header_vars_and_changes() {
        let nl = c17();
        let mut sim = build_simulator(&nl, Engine::Parallel).unwrap();
        let mut recorder = VcdRecorder::new(&nl, nl.primary_outputs().to_vec());
        for pattern in [0u32, 31, 0] {
            let inputs: Vec<bool> = (0..5).map(|i| pattern >> i & 1 != 0).collect();
            sim.simulate_vector(&inputs);
            recorder.record(sim.as_ref());
        }
        assert_eq!(recorder.frame_count(), 3);
        let vcd = recorder.render();
        assert!(vcd.contains("$enddefinitions $end"));
        assert_eq!(vcd.matches("$var wire 1").count(), 2);
        assert!(vcd.contains("#0"));
        // Values actually change across the three vectors.
        assert!(vcd.contains("1!") || vcd.contains("1\""), "{vcd}");
    }

    #[test]
    fn identifiers_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let id = vcd_identifier(i);
            assert!(id.bytes().all(|b| (33..=126).contains(&b)));
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn changes_only_emitted_on_change() {
        let nl = c17();
        let mut sim = build_simulator(&nl, Engine::Parallel).unwrap();
        let mut recorder = VcdRecorder::new(&nl, vec![nl.primary_outputs()[0]]);
        sim.simulate_vector(&[false; 5]);
        recorder.record(sim.as_ref());
        sim.simulate_vector(&[false; 5]);
        recorder.record(sim.as_ref());
        let vcd = recorder.render();
        // One initial value statement only; the stable second frame adds
        // nothing.
        let changes = vcd
            .lines()
            .filter(|l| l.starts_with('0') || l.starts_with('1'))
            .count();
        assert_eq!(changes, 1, "{vcd}");
    }
}
