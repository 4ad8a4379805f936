//! The correctness gate: every row `udsim` prints or serves is checked
//! against the harness's own stimulus and an independent oracle.
//!
//! For a combinational circuit the settled unit-delay value after a
//! vector equals its zero-delay value (DESIGN.md §12), so the compiled
//! zero-delay simulator is a valid oracle for every settled row. The
//! event-driven unit-delay engine — the repository's reference — checks
//! the oracle itself on the first vectors of each CLI stream.

use std::io::BufRead;

use uds_core::telemetry::json::Json;
use uds_core::vectors::RandomVectors;
use uds_eventsim::{EventDrivenUnitDelay, ZeroDelayCompiled};
use uds_netlist::{NetId, Netlist};

/// Vectors of each CLI stream also replayed through the event-driven
/// unit-delay engine.
pub const EVENT_DRIVEN_VECTORS: usize = 1000;

/// One `udsim simulate` row: `{index:>6} {input bits} -> {output bits}`.
#[derive(Debug, PartialEq, Eq)]
pub struct Row<'a> {
    pub index: usize,
    pub inputs: &'a str,
    pub outputs: &'a str,
}

fn is_bits(text: &str) -> bool {
    !text.is_empty() && text.bytes().all(|b| b == b'0' || b == b'1')
}

/// Parses one CLI row; `None` for anything else.
pub fn parse_row(line: &str) -> Option<Row<'_>> {
    let (index, rest) = line.trim_start().split_once(' ')?;
    let (inputs, outputs) = rest.split_once(" -> ")?;
    (is_bits(inputs) && is_bits(outputs)).then_some(())?;
    Some(Row {
        index: index.parse().ok()?,
        inputs,
        outputs,
    })
}

fn bits(values: impl Iterator<Item = bool>) -> String {
    values.map(|b| if b { '1' } else { '0' }).collect()
}

/// Replays the stimulus `udsim` derives from a seed and yields the rows
/// it must print.
pub struct Oracle {
    vectors: RandomVectors,
    zero_delay: ZeroDelayCompiled,
    event_driven: EventDrivenUnitDelay<bool>,
    event_driven_left: usize,
    outputs: Vec<NetId>,
}

impl Oracle {
    /// An oracle for `seed`'s stream on `netlist`, cross-checked by the
    /// event-driven engine on its first `event_driven` vectors.
    pub fn new(netlist: &Netlist, seed: u64, event_driven: usize) -> Result<Self, String> {
        Ok(Oracle {
            vectors: RandomVectors::new(netlist.primary_inputs().len(), seed),
            zero_delay: ZeroDelayCompiled::compile(netlist).map_err(|e| e.to_string())?,
            event_driven: EventDrivenUnitDelay::new(netlist).map_err(|e| e.to_string())?,
            event_driven_left: event_driven,
            outputs: netlist.primary_outputs().to_vec(),
        })
    }

    /// The next vector's input and output bits.
    pub fn next_row(&mut self) -> Result<(String, String), String> {
        let vector = self.vectors.next().expect("the stimulus stream is endless");
        self.zero_delay.simulate_vector(&vector);
        let outputs = bits(self.outputs.iter().map(|&po| self.zero_delay.value(po)));
        if self.event_driven_left > 0 {
            self.event_driven_left -= 1;
            self.event_driven.simulate_vector(&vector);
            let reference = bits(self.outputs.iter().map(|&po| self.event_driven.value(po)));
            if reference != outputs {
                return Err(format!(
                    "oracle disagreement: zero-delay {outputs}, event-driven {reference}"
                ));
            }
        }
        Ok((bits(vector.into_iter()), outputs))
    }
}

/// Checks a complete `udsim simulate --jobs 1` stdout: the header names
/// `engine` and the netlist's outputs, and rows `0..vectors` carry the
/// seeded inputs with their settled outputs, in order.
pub fn check_cli_output(
    out: impl BufRead,
    netlist: &Netlist,
    seed: u64,
    vectors: usize,
    engine: &str,
) -> Result<(), String> {
    let names: Vec<&str> = netlist
        .primary_outputs()
        .iter()
        .map(|&po| netlist.net_name(po))
        .collect();
    let mut oracle = Oracle::new(netlist, seed, EVENT_DRIVEN_VECTORS)?;
    let mut rows = 0usize;
    for (number, line) in out.lines().enumerate() {
        let line = line.map_err(|e| format!("reading output: {e}"))?;
        let at = |what: String| format!("line {}: {what}", number + 1);
        match number {
            0 => {
                if !line.ends_with(&format!(", engine {engine}")) {
                    return Err(at(format!("expected engine {engine} in `{line}`")));
                }
            }
            1 => {
                if line != format!("# vector -> {}", names.join(" ")) {
                    return Err(at(format!("unexpected output header `{line}`")));
                }
            }
            _ => {
                let row = parse_row(&line).ok_or_else(|| at(format!("not a row: `{line}`")))?;
                let (inputs, outputs) = oracle.next_row()?;
                if row.index != rows || row.inputs != inputs || row.outputs != outputs {
                    return Err(at(format!(
                        "row {rows}: expected {inputs} -> {outputs}, got `{line}`"
                    )));
                }
                rows += 1;
            }
        }
    }
    if rows != vectors {
        return Err(format!("expected {vectors} rows, got {rows}"));
    }
    Ok(())
}

/// The `rows` a `POST /simulate` with `random {count, seed}` must
/// return, as the response's bit strings.
pub fn expected_rows(netlist: &Netlist, seed: u64, count: usize) -> Result<Vec<String>, String> {
    let mut oracle = Oracle::new(netlist, seed, 0)?;
    (0..count)
        .map(|_| oracle.next_row().map(|(_, outputs)| outputs))
        .collect()
}

/// Checks a `POST /simulate` response body: it ran on `engine` and its
/// rows equal `expected`. Returns the body's `cache` field.
pub fn check_serve_body(body: &str, expected: &[String], engine: &str) -> Result<String, String> {
    let doc = Json::parse(body).map_err(|e| format!("response body: {e}"))?;
    let served = doc.get("engine").and_then(Json::as_str);
    if served != Some(engine) {
        return Err(format!("served by {served:?}, expected {engine}"));
    }
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("response has no rows")?;
    if rows.len() != expected.len() {
        return Err(format!("{} rows, expected {}", rows.len(), expected.len()));
    }
    for (index, (row, want)) in rows.iter().zip(expected).enumerate() {
        if row.as_str() != Some(want.as_str()) {
            return Err(format!("row {index}: got {row:?}, expected {want}"));
        }
    }
    doc.get("cache")
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| "response has no cache field".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uds_netlist::bench_format;

    const CLI_FIXTURE: &str = include_str!("../fixtures/c432-simulate.txt");
    const SERVE_FIXTURE: &str = include_str!("../fixtures/c432-serve.json");
    // The commands that captured the fixtures.
    const FIXTURE_SEED: u64 = 5;
    const FIXTURE_VECTORS: usize = 20;

    fn c432() -> Netlist {
        let text = include_str!("../circuits/c432.bench");
        bench_format::parse(text, "c432").unwrap()
    }

    /// Flips the bit at byte `at` of `text`.
    fn flip(text: &str, at: usize) -> String {
        let mut bytes = text.as_bytes().to_vec();
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn row_parser_accepts_rows_and_rejects_the_rest() {
        assert_eq!(
            parse_row("    12 0101 -> 10"),
            Some(Row {
                index: 12,
                inputs: "0101",
                outputs: "10"
            })
        );
        assert_eq!(parse_row("1234567 1 -> 0").unwrap().index, 1234567);
        for bad in [
            "# vector -> a b",
            "     0 0101 -> ",
            "     0 0121 -> 10",
            "     x 0101 -> 10",
            "     0 0101 10",
            "",
        ] {
            assert_eq!(parse_row(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn captured_cli_output_passes_and_a_flipped_bit_fails() {
        let nl = c432();
        let check = |text: &str| {
            check_cli_output(
                text.as_bytes(),
                &nl,
                FIXTURE_SEED,
                FIXTURE_VECTORS,
                "parallel+pt+trim",
            )
        };
        check(CLI_FIXTURE).unwrap();
        // The last character before the final newline is an output bit;
        // the first bit after row 7's index is an input bit.
        let output_bit = CLI_FIXTURE.trim_end().len() - 1;
        let err = check(&flip(CLI_FIXTURE, output_bit)).unwrap_err();
        assert!(err.contains("row 19"), "{err}");
        let row7 = CLI_FIXTURE.find("     7 ").unwrap() + 7;
        let err = check(&flip(CLI_FIXTURE, row7)).unwrap_err();
        assert!(err.contains("row 7"), "{err}");
        let truncated: String = CLI_FIXTURE
            .lines()
            .take(10)
            .map(|l| l.to_owned() + "\n")
            .collect();
        assert!(check(&truncated).unwrap_err().contains("expected 20 rows"));
        let wrong_engine = check_cli_output(
            CLI_FIXTURE.as_bytes(),
            &nl,
            FIXTURE_SEED,
            FIXTURE_VECTORS,
            "native",
        );
        assert!(wrong_engine.unwrap_err().contains("expected engine native"));
    }

    #[test]
    fn captured_serve_body_passes_and_a_flipped_bit_fails() {
        let expected = expected_rows(&c432(), FIXTURE_SEED, 8).unwrap();
        let cache = check_serve_body(SERVE_FIXTURE, &expected, "parallel+pt+trim").unwrap();
        assert_eq!(cache, "miss");
        let first_row = SERVE_FIXTURE.find("\"rows\":[\"").unwrap() + 9;
        let err = check_serve_body(
            &flip(SERVE_FIXTURE, first_row),
            &expected,
            "parallel+pt+trim",
        )
        .unwrap_err();
        assert!(err.contains("row 0"), "{err}");
        assert!(check_serve_body(SERVE_FIXTURE, &expected, "pc-set").is_err());
    }
}
