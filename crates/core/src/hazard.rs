//! Hazard analysis over unit-delay histories.
//!
//! §3 of the paper notes that the parallel technique's bit-fields make
//! hazard analysis cheap: "such analysis could be done quickly by using
//! a binary search technique and comparison fields of the form 0...01...1
//! and 1...10...0" — i.e. a field is hazard-free exactly when it is a
//! *monotone* step function of time, at most one transition. This
//! module classifies a net's vector activity from that transition count:
//!
//! * [`classify_toggle_count`] maps a count to an [`Activity`];
//! * [`classify`] applies it to one history;
//! * [`scan`] sweeps a whole simulator state after a vector and reports
//!   every hazardous net among those the engine can read, and how many
//!   it could not, counting through
//!   [`UnitDelaySimulator::for_each_toggle`] — word-parallel on the
//!   parallel engines' bit-fields.

use uds_netlist::{NetId, Netlist};

use crate::waveform::for_each_transition;
use crate::UnitDelaySimulator;

/// What one net did during one vector.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Activity {
    /// No transitions at all.
    Stable,
    /// Exactly one clean edge.
    CleanEdge,
    /// Initial and final values agree but the net pulsed in between.
    StaticHazard,
    /// Initial and final values differ and the net changed more than
    /// once on the way.
    DynamicHazard,
}

/// Classifies one history (values at times `0..=depth`).
pub fn classify(history: &[bool]) -> Activity {
    classify_toggle_count(for_each_transition(history, &mut |_| {}))
}

/// Classifies a net's vector activity from its toggle count alone. The
/// endpoints are a parity function of the count: an even count returns
/// to the initial value, an odd one ends opposite.
pub fn classify_toggle_count(toggles: u32) -> Activity {
    match (toggles, toggles.is_multiple_of(2)) {
        (0, _) => Activity::Stable,
        (1, _) => Activity::CleanEdge,
        (_, true) => Activity::StaticHazard,
        (_, false) => Activity::DynamicHazard,
    }
}

/// One hazardous net found by [`scan`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Hazard {
    /// The affected net.
    pub net: NetId,
    /// Static or dynamic.
    pub activity: Activity,
    /// Transitions during the vector (at least 2).
    pub toggles: u32,
    /// The offending history.
    pub history: Vec<bool>,
}

/// What [`scan`] found after one vector. Every net of the netlist is
/// counted once, in `examined` or in `unreadable`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Scan {
    /// Every hazardous net among the examined ones, in net-id order.
    pub hazards: Vec<Hazard>,
    /// Nets whose toggle count the engine reported.
    pub examined: usize,
    /// Nets the engine keeps no history for (an unmonitored internal
    /// net of a trimmed or path-traced program, say): nothing is known
    /// of their hazards.
    pub unreadable: usize,
}

/// Scans every net after a vector and returns all hazards, in net-id
/// order, with how many nets were examined and how many the engine
/// could not read.
pub fn scan(netlist: &Netlist, simulator: &dyn UnitDelaySimulator) -> Scan {
    let mut scan = Scan::default();
    for net in netlist.net_ids() {
        let Some(toggles) = simulator.for_each_toggle(net, &mut |_| {}) else {
            scan.unreadable += 1;
            continue;
        };
        scan.examined += 1;
        let activity = classify_toggle_count(toggles);
        if matches!(activity, Activity::StaticHazard | Activity::DynamicHazard) {
            scan.hazards.push(Hazard {
                net,
                activity,
                toggles,
                history: simulator
                    .history(net)
                    .expect("a net with a toggle count has a history"),
            });
        }
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;
    use uds_netlist::{GateKind, NetlistBuilder};
    use uds_parallel::{Optimization, ParallelSimulator};

    #[test]
    fn classification_table() {
        assert_eq!(classify(&[false, false, false]), Activity::Stable);
        assert_eq!(classify(&[false, true, true]), Activity::CleanEdge);
        assert_eq!(classify(&[false, true, false]), Activity::StaticHazard);
        assert_eq!(
            classify(&[false, true, false, true]),
            Activity::DynamicHazard
        );
        assert_eq!(classify(&[true]), Activity::Stable);
    }

    #[test]
    fn parity_classification_matches_the_endpoint_definition() {
        // The definition on the variants: count the transitions, then
        // tell static from dynamic by comparing the endpoints.
        for width in 1u32..=10 {
            for pattern in 0u64..(1 << width) {
                let history: Vec<bool> = (0..width).map(|i| pattern >> i & 1 != 0).collect();
                let transitions = history.windows(2).filter(|p| p[0] != p[1]).count();
                let ends_equal = history[0] == history[history.len() - 1];
                let expected = match (transitions, ends_equal) {
                    (0, _) => Activity::Stable,
                    (1, _) => Activity::CleanEdge,
                    (_, true) => Activity::StaticHazard,
                    (_, false) => Activity::DynamicHazard,
                };
                assert_eq!(
                    classify(&history),
                    expected,
                    "width {width} pattern {pattern:b}"
                );
            }
        }
    }

    #[test]
    fn scan_finds_the_classic_static_hazard() {
        // y = AND(a, NOT a) pulses on a rising a.
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let na = b.gate(GateKind::Not, &[a], "na").unwrap();
        let y = b.gate(GateKind::And, &[a, na], "y").unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        for optimization in Optimization::ALL {
            let mut sim = ParallelSimulator::compile(&nl, optimization).unwrap();
            sim.simulate_vector(&[false]);
            assert!(scan(&nl, &sim).hazards.is_empty(), "{optimization}");
            sim.simulate_vector(&[true]);
            let hazards = scan(&nl, &sim).hazards;
            assert_eq!(hazards.len(), 1, "{optimization}");
            assert_eq!(hazards[0].net, y);
            assert_eq!(hazards[0].activity, Activity::StaticHazard);
            assert_eq!(hazards[0].toggles, 2);
            assert_eq!(hazards[0].history, vec![false, true, false]);
        }
    }

    #[test]
    fn scan_counts_every_net_it_cannot_read() {
        // Unmonitored, path tracing keeps no history for internal nets
        // whose field starts at their minlevel; monitoring every net
        // makes them all readable. Either way every net is counted once,
        // and the unreadable count is exactly the nets without a history.
        let nl = uds_netlist::generators::alu::alu(4).unwrap();
        let pt_trim = Optimization::PathTracingTrimming;
        for monitor_all in [false, true] {
            let mut sim = if monitor_all {
                ParallelSimulator::compile_monitoring_all(&nl, pt_trim).unwrap()
            } else {
                ParallelSimulator::compile(&nl, pt_trim).unwrap()
            };
            let blind = nl.net_ids().filter(|&n| sim.history(n).is_none()).count();
            assert_eq!(blind == 0, monitor_all, "{blind} nets without a history");
            let width = nl.primary_inputs().len();
            for vector in crate::vectors::RandomVectors::new(width, 0x4A2).take(64) {
                sim.simulate_vector(&vector);
                let found = scan(&nl, &sim);
                assert_eq!(found.examined, nl.net_count() - blind);
                assert_eq!(found.unreadable, blind);
            }
        }
    }
}
