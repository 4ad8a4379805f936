//! Lockstep cross-validation of simulation engines.
//!
//! Runs any set of engines on the same stimulus and demands bit-exact
//! agreement on final values everywhere and on histories wherever both
//! engines expose one. This is the library form of the invariant the
//! workspace's integration tests enforce: [`run`] and [`compare`] step
//! engines side by side, and [`RowCheck`] checks the rows a run prints
//! against the event-driven baseline as they stream out.

use std::fmt;

use uds_eventsim::EventDrivenUnitDelay;
use uds_netlist::{LevelizeError, NetId, Netlist};

use crate::UnitDelaySimulator;

/// A disagreement between two engines.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Mismatch {
    /// Index of the vector (0-based) at which the engines diverged.
    pub vector_index: usize,
    /// The reference engine's name.
    pub reference: &'static str,
    /// The diverging engine's name.
    pub candidate: &'static str,
    /// The net that differs.
    pub net: NetId,
    /// Net name, for readable reports.
    pub net_name: String,
    /// Reference history (or single final value).
    pub expected: Vec<bool>,
    /// Candidate history (or single final value).
    pub got: Vec<bool>,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vector {}: {} disagrees with {} on net {} ({}): expected {:?}, got {:?}",
            self.vector_index,
            self.candidate,
            self.reference,
            self.net,
            self.net_name,
            self.expected,
            self.got
        )
    }
}

impl std::error::Error for Mismatch {}

/// Compares two engines that have both just run vector
/// `vector_index`: the final value of every net, and the complete
/// history of every net for which both report one.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
pub fn compare(
    netlist: &Netlist,
    vector_index: usize,
    reference: &dyn UnitDelaySimulator,
    candidate: &dyn UnitDelaySimulator,
) -> Result<(), Mismatch> {
    let mismatch = |net: NetId, expected: Vec<bool>, got: Vec<bool>| Mismatch {
        vector_index,
        reference: reference.engine_name(),
        candidate: candidate.engine_name(),
        net,
        net_name: netlist.net_name(net).to_owned(),
        expected,
        got,
    };
    for net in netlist.net_ids() {
        let expected = reference.final_value(net);
        let got = candidate.final_value(net);
        if expected != got {
            return Err(mismatch(net, vec![expected], vec![got]));
        }
        if let (Some(expected), Some(got)) = (reference.history(net), candidate.history(net)) {
            if expected != got {
                return Err(mismatch(net, expected, got));
            }
        }
    }
    Ok(())
}

/// Feeds every vector of `stimulus` to all `simulators` and
/// [`compare`]s each against the first (the reference).
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
///
/// # Panics
///
/// Panics if `simulators` is empty or a vector length does not match
/// the netlist.
pub fn run(
    netlist: &Netlist,
    simulators: &mut [Box<dyn UnitDelaySimulator>],
    stimulus: impl IntoIterator<Item = Vec<bool>>,
) -> Result<(), Mismatch> {
    assert!(
        !simulators.is_empty(),
        "cross-checking needs at least one engine"
    );
    for (vector_index, vector) in stimulus.into_iter().enumerate() {
        for sim in simulators.iter_mut() {
            sim.simulate_vector(&vector);
        }
        let (reference, candidates) = simulators.split_first().expect("nonempty");
        for candidate in candidates {
            compare(
                netlist,
                vector_index,
                reference.as_ref(),
                candidate.as_ref(),
            )?;
        }
    }
    Ok(())
}

/// Checks a stream of primary-output rows, in vector order, against
/// the event-driven baseline: each [`RowCheck::row`] steps the baseline
/// on the row's inputs and compares its settled outputs with the row.
/// This is what `udsim simulate --crosscheck` runs on every row it
/// prints, whichever engine, fallback or shard produced it; internal
/// nets and histories are [`compare`]'s job.
pub struct RowCheck {
    baseline: EventDrivenUnitDelay<bool>,
    candidate: &'static str,
    vectors: usize,
}

impl RowCheck {
    /// A check of `candidate`'s rows on `netlist`, with the baseline at
    /// power-up.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] for cyclic or sequential netlists.
    pub fn new(netlist: &Netlist, candidate: &'static str) -> Result<Self, LevelizeError> {
        Ok(RowCheck {
            baseline: EventDrivenUnitDelay::new(netlist)?,
            candidate,
            vectors: 0,
        })
    }

    /// Steps the baseline on `inputs` and compares its primary outputs
    /// with `row` (parallel to [`Netlist::primary_outputs`]).
    ///
    /// # Errors
    ///
    /// Returns a [`Mismatch`] naming this row's vector index and the
    /// first output that differs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `row` does not match the netlist's ports.
    pub fn row(&mut self, inputs: &[bool], row: &[bool]) -> Result<(), Mismatch> {
        self.baseline.simulate_vector(inputs);
        let netlist = self.baseline.netlist();
        let outputs = netlist.primary_outputs();
        assert_eq!(row.len(), outputs.len(), "one row bit per primary output");
        let vector_index = self.vectors;
        self.vectors += 1;
        match outputs
            .iter()
            .zip(row)
            .find(|&(&net, &got)| self.baseline.value(net) != got)
        {
            None => Ok(()),
            Some((&net, &got)) => Err(Mismatch {
                vector_index,
                reference: "event-driven",
                candidate: self.candidate,
                net,
                net_name: netlist.net_name(net).to_owned(),
                expected: vec![!got],
                got: vec![got],
            }),
        }
    }

    /// How many rows have been checked.
    pub fn vectors(&self) -> usize {
        self.vectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::RandomVectors;
    use crate::{build_simulator, Engine};
    use uds_netlist::generators::iscas::c17;

    #[test]
    fn all_engines_agree_on_c17() {
        let nl = c17();
        let mut sims: Vec<Box<dyn UnitDelaySimulator>> = Engine::ALL
            .iter()
            .map(|&e| build_simulator(&nl, e).unwrap())
            .collect();
        run(&nl, &mut sims, RandomVectors::new(5, 99).take(200)).unwrap();
    }

    #[test]
    fn a_broken_candidate_is_caught() {
        // Use two different circuits' simulators of the same port shape:
        // an inverter vs a buffer must mismatch.
        use uds_netlist::{GateKind, NetlistBuilder};
        let build = |kind: GateKind| {
            let mut b = NetlistBuilder::new();
            let a = b.input("a");
            let y = b.gate(kind, &[a], "y").unwrap();
            b.output(y);
            b.finish().unwrap()
        };
        let good = build(GateKind::Buf);
        let bad = build(GateKind::Not);
        let mut sims: Vec<Box<dyn UnitDelaySimulator>> = vec![
            build_simulator(&good, Engine::Parallel).unwrap(),
            build_simulator(&bad, Engine::Parallel).unwrap(),
        ];
        let err = run(&good, &mut sims, vec![vec![true]]).unwrap_err();
        assert_eq!(err.vector_index, 0);
        assert!(err.to_string().contains("disagrees"));
    }

    #[test]
    fn the_row_check_passes_true_rows_and_names_a_flipped_output() {
        let nl = c17();
        let mut sim = build_simulator(&nl, Engine::ParallelPathTracingTrimming).unwrap();
        let mut check = RowCheck::new(&nl, sim.engine_name()).unwrap();
        let stimulus: Vec<Vec<bool>> = RandomVectors::new(5, 7).take(8).collect();
        let row = |sim: &dyn UnitDelaySimulator| -> Vec<bool> {
            nl.primary_outputs()
                .iter()
                .map(|&po| sim.final_value(po))
                .collect()
        };
        for inputs in &stimulus[..5] {
            sim.simulate_vector(inputs);
            check.row(inputs, &row(sim.as_ref())).unwrap();
        }
        sim.simulate_vector(&stimulus[5]);
        let mut flipped = row(sim.as_ref());
        flipped[1] = !flipped[1];
        let err = check.row(&stimulus[5], &flipped).unwrap_err();
        let net = nl.primary_outputs()[1];
        assert_eq!(err.vector_index, 5);
        assert_eq!((err.net, err.net_name.as_str()), (net, nl.net_name(net)));
        assert_eq!(
            (err.reference, err.candidate),
            ("event-driven", "parallel+pt+trim")
        );
        assert_eq!(err.got, vec![flipped[1]]);
        assert_eq!(check.vectors(), 6);
    }
}
