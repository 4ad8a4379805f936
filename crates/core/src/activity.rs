//! Runtime activity profiling: per-net toggle counts and per-time-slot
//! histograms.
//!
//! The parallel technique's bit-fields make activity measurement almost
//! free: a net's toggles for a vector are `popcount(f ^ (f >> 1))` over
//! its packed history words ([`for_each_toggle`]), so the profiler
//! piggybacks on state the engine already computed. The same counts are
//! derivable from any engine that exposes histories — the event-driven
//! baseline and the sequential engine agree bit-exactly (the crosscheck
//! invariant extends to activity), which is what makes the profile a
//! trustworthy annotation for the paper's compiled-vs-event-driven
//! comparison: the event-driven technique's cost is proportional to
//! exactly this activity, while the compiled techniques' cost is not.
//!
//! [`for_each_toggle`]: crate::UnitDelaySimulator::for_each_toggle
//!
//! The profiler is deliberately engine-, word-width- and
//! shard-agnostic: toggle totals are sums of per-vector counts, so the
//! same stimulus yields byte-identical reports no matter which engine
//! produced the histories or how many shards split the stream (each
//! shard of [`run_stream`](crate::batch::run_stream) owns a profiler as
//! its [`Step`]; the shards' profiles merge into one).

use uds_netlist::{Levels, NetId, Netlist};

use crate::batch::Step;
use crate::error::SimError;
use crate::guard::GuardedSimulator;
use crate::telemetry::json::Json;
use crate::UnitDelaySimulator;

/// Schema tag of [`ActivityReport::to_json`].
pub const ACTIVITY_SCHEMA: &str = "uds-activity-v1";

/// Accumulates toggle activity over a stream of vectors.
///
/// One profiler observes one engine (or one shard); profiles merge with
/// [`ActivityProfiler::merge`] because every field is a plain sum.
#[derive(Clone, Debug)]
pub struct ActivityProfiler {
    depth: u32,
    vectors: u64,
    /// Total toggles per net, across all observed vectors.
    per_net: Vec<u64>,
    /// Total toggles per time slot `0..=depth` (slot 0 never toggles:
    /// inputs change *at* time 0, the first observable edge is time 1).
    per_slot: Vec<u64>,
    /// Nets the engine exposed a toggle stream for at least once.
    observed: Vec<bool>,
}

impl ActivityProfiler {
    /// An empty profile for a circuit with `nets` nets and the given
    /// depth.
    pub fn new(nets: usize, depth: u32) -> Self {
        ActivityProfiler {
            depth,
            vectors: 0,
            per_net: vec![0; nets],
            per_slot: vec![0; depth as usize + 1],
            observed: vec![false; nets],
        }
    }

    /// Sized for a netlist and its levelization.
    pub fn for_netlist(netlist: &Netlist, levels: &Levels) -> Self {
        Self::new(netlist.net_count(), levels.depth)
    }

    /// Folds the simulator's last vector into the profile. Call once
    /// per simulated vector, after `simulate_vector`. Nets whose engine
    /// exposes no toggle stream are skipped (and reported as
    /// unobserved).
    pub fn record_vector(&mut self, sim: &dyn UnitDelaySimulator) {
        self.vectors += 1;
        let per_slot = &mut self.per_slot;
        for (index, (total, seen)) in self
            .per_net
            .iter_mut()
            .zip(self.observed.iter_mut())
            .enumerate()
        {
            let count = sim.for_each_toggle(NetId::from_index(index), &mut |t| {
                if let Some(slot) = per_slot.get_mut(t as usize) {
                    *slot += 1;
                }
            });
            if let Some(count) = count {
                *seen = true;
                *total += u64::from(count);
            }
        }
    }

    /// Adds another profile into this one (e.g. a shard's). Both must
    /// describe the same circuit.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn merge(&mut self, other: &ActivityProfiler) {
        assert_eq!(self.per_net.len(), other.per_net.len(), "same circuit");
        assert_eq!(self.depth, other.depth, "same depth");
        self.vectors += other.vectors;
        for (a, b) in self.per_net.iter_mut().zip(&other.per_net) {
            *a += b;
        }
        for (a, b) in self.per_slot.iter_mut().zip(&other.per_slot) {
            *a += b;
        }
        for (a, b) in self.observed.iter_mut().zip(&other.observed) {
            *a |= b;
        }
    }

    /// Vectors folded in so far.
    pub fn vectors(&self) -> u64 {
        self.vectors
    }

    /// Total toggles across all nets and vectors.
    pub fn total_toggles(&self) -> u64 {
        self.per_net.iter().sum()
    }

    /// Toggles of one net.
    pub fn net_toggles(&self, net: NetId) -> u64 {
        self.per_net[net.index()]
    }

    /// Toggles per time slot `0..=depth`.
    pub fn per_slot(&self) -> &[u64] {
        &self.per_slot
    }

    /// The mean fraction of (net, time-slot) opportunities that
    /// actually toggled: `total / (nets × depth × vectors)`. The
    /// event-driven baseline's work scales with this; the compiled
    /// techniques' work does not (the paper's central trade-off).
    pub fn activity_factor(&self) -> f64 {
        let opportunities = self.per_net.len() as f64 * f64::from(self.depth) * self.vectors as f64;
        if opportunities == 0.0 {
            0.0
        } else {
            self.total_toggles() as f64 / opportunities
        }
    }

    /// The `top` most active nets, `(net, toggles)`, most active first
    /// (ties broken by net id for determinism). Quiet nets (zero
    /// toggles) never make the list.
    pub fn hot_nets(&self, top: usize) -> Vec<(NetId, u64)> {
        let mut ranked: Vec<(NetId, u64)> = self
            .per_net
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t > 0)
            .map(|(i, &t)| (NetId::from_index(i), t))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
        ranked.truncate(top);
        ranked
    }

    /// Nets no engine ever exposed a toggle stream for.
    pub fn unobserved_nets(&self) -> usize {
        self.observed.iter().filter(|&&seen| !seen).count()
    }

    /// Assembles the full report against the netlist (for names) and
    /// its levelization (for the per-level distribution).
    pub fn report(&self, netlist: &Netlist, levels: &Levels, top: usize) -> ActivityReport {
        let mut per_level = vec![0u64; levels.depth as usize + 1];
        for (index, &toggles) in self.per_net.iter().enumerate() {
            per_level[levels.net_level[index] as usize] += toggles;
        }
        ActivityReport {
            circuit: netlist.name().to_owned(),
            nets: self.per_net.len(),
            depth: self.depth,
            vectors: self.vectors,
            total_toggles: self.total_toggles(),
            activity_factor: self.activity_factor(),
            hot_nets: self
                .hot_nets(top)
                .into_iter()
                .map(|(net, toggles)| HotNet {
                    net: netlist.net_name(net).to_owned(),
                    level: levels.net_level[net.index()],
                    toggles,
                })
                .collect(),
            per_level,
            per_slot: self.per_slot.clone(),
            unobserved_nets: self.unobserved_nets(),
            labels: Vec::new(),
        }
    }
}

/// One entry of [`ActivityReport::hot_nets`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HotNet {
    /// The net's name in the netlist.
    pub net: String,
    /// Its longest-path level.
    pub level: u32,
    /// Total toggles across the profiled stream.
    pub toggles: u64,
}

/// The aggregated activity profile of one stimulus stream.
///
/// Everything except `labels` is a pure function of the circuit and
/// stimulus — byte-identical across engines, word widths and `--jobs`
/// values. `labels` records how the profile was measured (engine,
/// word width, jobs, seed) without perturbing the payload.
#[derive(Clone, Debug)]
pub struct ActivityReport {
    /// Circuit name.
    pub circuit: String,
    /// Number of nets.
    pub nets: usize,
    /// Circuit depth.
    pub depth: u32,
    /// Vectors profiled.
    pub vectors: u64,
    /// Total toggles.
    pub total_toggles: u64,
    /// `total_toggles / (nets × depth × vectors)`.
    pub activity_factor: f64,
    /// The most active nets, most active first.
    pub hot_nets: Vec<HotNet>,
    /// Toggles grouped by net level `0..=depth`.
    pub per_level: Vec<u64>,
    /// Toggles grouped by time slot `0..=depth`.
    pub per_slot: Vec<u64>,
    /// Nets with no observable history under the profiled engine.
    pub unobserved_nets: usize,
    /// Measurement context (engine, word, jobs, seed, …) — the only
    /// part of the report that may differ between equivalent runs.
    pub labels: Vec<(String, String)>,
}

impl ActivityReport {
    /// Adds a measurement-context label.
    pub fn label(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.labels.push((key.into(), value.into()));
    }

    /// Renders as schema-versioned JSON (`uds-activity-v1`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(ACTIVITY_SCHEMA.to_owned())),
            ("circuit", Json::Str(self.circuit.clone())),
            ("nets", Json::UInt(self.nets as u64)),
            ("depth", Json::UInt(u64::from(self.depth))),
            ("vectors", Json::UInt(self.vectors)),
            ("total_toggles", Json::UInt(self.total_toggles)),
            ("activity_factor", Json::Float(self.activity_factor)),
            (
                "hot_nets",
                Json::Arr(
                    self.hot_nets
                        .iter()
                        .map(|h| {
                            Json::obj([
                                ("net", Json::Str(h.net.clone())),
                                ("level", Json::UInt(u64::from(h.level))),
                                ("toggles", Json::UInt(h.toggles)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "toggles_by_level",
                Json::Arr(self.per_level.iter().map(|&t| Json::UInt(t)).collect()),
            ),
            (
                "toggles_by_time",
                Json::Arr(self.per_slot.iter().map(|&t| Json::UInt(t)).collect()),
            ),
            ("unobserved_nets", Json::UInt(self.unobserved_nets as u64)),
            (
                "labels",
                Json::Obj(
                    self.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The activity step: every vector's toggles fold into the shard's
/// profiler.
impl Step for ActivityProfiler {
    fn step(&mut self, guard: &mut GuardedSimulator, inputs: &[bool]) -> Result<(), SimError> {
        guard.simulate_vector(inputs)?;
        self.record_vector(guard.active_simulator());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_simulator, Engine};
    use uds_netlist::generators::iscas::c17;
    use uds_netlist::levelize;

    fn profile(engine: Engine, vectors: usize) -> ActivityProfiler {
        let nl = c17();
        let levels = levelize(&nl).unwrap();
        let mut sim = build_simulator(&nl, engine).unwrap();
        let mut profiler = ActivityProfiler::for_netlist(&nl, &levels);
        let mut state = 0x5EED_1990_u64;
        for _ in 0..vectors {
            let vector: Vec<bool> = (0..5)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    state >> 63 != 0
                })
                .collect();
            sim.simulate_vector(&vector);
            profiler.record_vector(&*sim);
        }
        profiler
    }

    #[test]
    fn event_driven_observes_every_net() {
        let profiler = profile(Engine::EventDriven, 16);
        assert_eq!(profiler.unobserved_nets(), 0);
        assert!(profiler.total_toggles() > 0);
        assert_eq!(profiler.vectors(), 16);
        // Slot 0 can never toggle: inputs change at time 0.
        assert_eq!(profiler.per_slot()[0], 0);
        // The histogram and the per-net totals count the same toggles.
        assert_eq!(
            profiler.per_slot().iter().sum::<u64>(),
            profiler.total_toggles()
        );
    }

    #[test]
    fn merge_is_concatenation() {
        let whole = profile(Engine::EventDriven, 16);
        // Same stream, recorded as 16 = 16 vectors in one go vs. merged
        // halves would need stream splitting; instead merge two
        // identical profiles and check pure additivity.
        let half = profile(Engine::EventDriven, 16);
        let mut doubled = whole.clone();
        doubled.merge(&half);
        assert_eq!(doubled.total_toggles(), 2 * whole.total_toggles());
        assert_eq!(doubled.vectors(), 32);
    }

    #[test]
    fn report_is_schema_versioned_and_consistent() {
        let nl = c17();
        let levels = levelize(&nl).unwrap();
        let profiler = profile(Engine::EventDriven, 16);
        let mut report = profiler.report(&nl, &levels, 3);
        report.label("engine", "event-driven");
        let json = report.to_json();
        let obj = json.as_obj().unwrap();
        assert_eq!(
            obj.iter().find(|(k, _)| k == "schema").unwrap().1.as_str(),
            Some(ACTIVITY_SCHEMA)
        );
        assert!(report.hot_nets.len() <= 3);
        assert!(report
            .hot_nets
            .windows(2)
            .all(|w| w[0].toggles >= w[1].toggles));
        assert_eq!(report.per_level.iter().sum::<u64>(), report.total_toggles);
        // Level 0 nets are primary inputs: they change at time 0, which
        // is not a toggle, so all their activity is zero.
        assert_eq!(report.per_level[0], 0);
    }
}
