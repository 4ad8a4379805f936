//! Minimal VCD (Value Change Dump) emission for unit-delay histories.
//!
//! Compiled unit-delay simulation produces the complete time history of
//! every monitored net per vector; dumping those histories as VCD makes
//! them inspectable in any waveform viewer (GTKWave etc.). The writer
//! covers the small subset of IEEE 1364 VCD needed for that: a header,
//! one scope, `wire` declarations, and `#time` change records.
//!
//! The dump is written as the run streams, and the recorder keeps only
//! the last value of every net: memory is bounded at any stream length.

use std::io::{self, Write};

use uds_netlist::{NetId, Netlist};

use crate::batch::Step;
use crate::error::SimError;
use crate::guard::GuardedSimulator;
use crate::UnitDelaySimulator;

/// Writes unit-delay waveforms as VCD, one vector at a time.
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
/// let mut vcd = Vec::new();
/// let mut recorder = VcdRecorder::new(&nl, nl.primary_outputs().to_vec(), &mut vcd);
/// for pattern in [0b10101u32, 0b01010, 0b11111] {
///     let inputs: Vec<bool> = (0..5).map(|i| pattern >> i & 1 != 0).collect();
///     sim.simulate_vector(&inputs);
///     recorder.record(sim.as_ref());
/// }
/// recorder.finish()?;
/// assert!(String::from_utf8(vcd)?.contains("$var wire 1"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct VcdRecorder<W: Write> {
    out: W,
    /// Per net: its id, name and VCD identifier code.
    nets: Vec<(NetId, String, String)>,
    /// Each net's last written value (`None` before the first vector).
    last: Vec<Option<bool>>,
    depth: Option<u32>,
    /// VCD time at which the next vector's window starts.
    time: u64,
    error: Option<io::Error>,
}

impl<W: Write> VcdRecorder<W> {
    /// Creates a recorder for the given nets (names are taken from the
    /// netlist) and writes the VCD header to `out`.
    pub fn new(netlist: &Netlist, nets: Vec<NetId>, out: W) -> Self {
        let nets: Vec<_> = nets
            .into_iter()
            .enumerate()
            .map(|(i, n)| (n, netlist.net_name(n).to_owned(), vcd_identifier(i)))
            .collect();
        let mut recorder = VcdRecorder {
            out,
            last: vec![None; nets.len()],
            nets,
            depth: None,
            time: 0,
            error: None,
        };
        recorder.error = recorder.header(netlist.name()).err();
        recorder
    }

    /// Writes the value changes of all recorded nets for the
    /// simulator's most recent vector.
    ///
    /// # Panics
    ///
    /// Panics if a recorded net has no reconstructible history in this
    /// engine (monitor it), or if the engine's depth changes between
    /// records.
    pub fn record(&mut self, simulator: &dyn UnitDelaySimulator) {
        let depth = simulator.depth();
        let first = *self.depth.get_or_insert(depth);
        assert_eq!(first, depth, "all records must share one circuit");
        let histories: Vec<Vec<bool>> = self
            .nets
            .iter()
            .map(|(net, name, _)| {
                simulator
                    .history(*net)
                    .unwrap_or_else(|| panic!("net {name} has no recorded history"))
            })
            .collect();
        let window = u64::from(depth) + 1;
        if self.error.is_none() {
            self.error = self.changes(&histories, window).err();
        }
        self.time += window;
    }

    /// Writes the closing timestamp and flushes the writer.
    ///
    /// # Errors
    ///
    /// The first error any write of this recorder met; nothing was
    /// written after it.
    pub fn finish(mut self) -> io::Result<()> {
        if let Some(error) = self.error {
            return Err(error);
        }
        writeln!(self.out, "#{}", self.time)?;
        self.out.flush()
    }

    fn header(&mut self, module: &str) -> io::Result<()> {
        let out = &mut self.out;
        writeln!(out, "$comment unit-delay-sim waveform dump $end")?;
        writeln!(out, "$timescale 1ns $end")?;
        writeln!(out, "$scope module {} $end", sanitize(module))?;
        for (_, name, id) in &self.nets {
            writeln!(out, "$var wire 1 {id} {} $end", sanitize(name))?;
        }
        writeln!(out, "$upscope $end")?;
        writeln!(out, "$enddefinitions $end")
    }

    /// One vector's changes: at each time with a change, a `#time`
    /// line, then one line per net whose value changed.
    fn changes(&mut self, histories: &[Vec<bool>], window: u64) -> io::Result<()> {
        for t in 0..window {
            let mut stamped = false;
            for (net_index, history) in histories.iter().enumerate() {
                let value = history[t as usize];
                if self.last[net_index] != Some(value) {
                    if !stamped {
                        writeln!(self.out, "#{}", self.time + t)?;
                        stamped = true;
                    }
                    writeln!(self.out, "{}{}", u8::from(value), self.nets[net_index].2)?;
                    self.last[net_index] = Some(value);
                }
            }
        }
        Ok(())
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

/// The waveform step: every vector's changes go to the VCD writer.
impl<W: Write + Send> Step for VcdRecorder<W> {
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

    /// Records `patterns` on c17's nets `nets` and returns the VCD text.
    fn dump(nets: impl FnOnce(&Netlist) -> Vec<NetId>, patterns: &[u32]) -> String {
        let nl = c17();
        let mut sim = build_simulator(&nl, Engine::Parallel).unwrap();
        let mut vcd = Vec::new();
        let mut recorder = VcdRecorder::new(&nl, nets(&nl), &mut vcd);
        for pattern in patterns {
            let inputs: Vec<bool> = (0..5).map(|i| pattern >> i & 1 != 0).collect();
            sim.simulate_vector(&inputs);
            recorder.record(sim.as_ref());
        }
        recorder.finish().unwrap();
        String::from_utf8(vcd).unwrap()
    }

    #[test]
    fn vcd_has_header_vars_and_changes() {
        let vcd = dump(|nl| nl.primary_outputs().to_vec(), &[0, 31, 0]);
        assert!(vcd.contains("$enddefinitions $end"));
        assert_eq!(vcd.matches("$var wire 1").count(), 2);
        assert!(vcd.contains("#0"));
        // Values actually change across the three vectors.
        assert!(vcd.contains("1!") || vcd.contains("1\""), "{vcd}");
        // Three windows of depth + 1 = 4 time units each.
        assert!(vcd.ends_with("\n#12\n"), "{vcd}");
    }

    /// Takes `room` bytes, fails one write, then takes everything: a
    /// device that recovers must not hide the bytes it lost.
    struct Glitch {
        room: usize,
        failed: bool,
    }

    impl Write for Glitch {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 && !self.failed {
                self.failed = true;
                return Err(io::Error::new(io::ErrorKind::StorageFull, "device full"));
            }
            let n = if self.failed {
                buf.len()
            } else {
                buf.len().min(self.room)
            };
            self.room -= n.min(self.room);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_write_error_mid_stream_is_returned_by_finish() {
        let nl = c17();
        let mut sim = build_simulator(&nl, Engine::Parallel).unwrap();
        let header = dump(|nl| nl.primary_outputs().to_vec(), &[]).len() - "#0\n".len();
        let room = header + 10;
        let out = Glitch {
            room,
            failed: false,
        };
        let mut recorder = VcdRecorder::new(&nl, nl.primary_outputs().to_vec(), out);
        for pattern in 0..32u32 {
            let inputs: Vec<bool> = (0..5).map(|i| pattern >> i & 1 != 0).collect();
            sim.simulate_vector(&inputs);
            recorder.record(sim.as_ref());
        }
        let err = recorder.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
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
        let vcd = dump(|nl| vec![nl.primary_outputs()[0]], &[0, 0]);
        // One initial value statement only; the stable second vector
        // adds nothing.
        let changes = vcd
            .lines()
            .filter(|l| l.starts_with('0') || l.starts_with('1'))
            .count();
        assert_eq!(changes, 1, "{vcd}");
    }
}
