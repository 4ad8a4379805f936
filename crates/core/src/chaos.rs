//! Deterministic fault injection for the guarded execution layer.
//!
//! A [`FaultPlan`] names exactly which faults to inject — an engine
//! build failing inside a named compile phase, a budget tripping, a
//! panic at vector N, silent output corruption from vector N, a
//! poisoned stimulus bit, a truncated `.bench` source. Nothing is
//! random: the same plan injects the same faults every run, so the
//! chaos suite's invariant ("no injected fault ever yields silently
//! wrong outputs") is reproducible.
//!
//! The harness plugs in through [`crate::guard::EngineFactory`]:
//! [`ChaosFactory`] builds real engines and sabotages the ones the plan
//! names, wrapping them in [`ChaosSimulator`] for runtime faults.

use std::panic::{self, AssertUnwindSafe};

use uds_netlist::{LimitExceeded, NetId, Netlist, Probe, Resource, ResourceLimits};

use crate::error::{SimError, SimErrorKind, SimPhase};
use crate::guard::{DefaultEngineFactory, EngineFactory};
use crate::{Engine, UnitDelaySimulator, WordWidth};

/// One injected fault.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Building `engine` panics inside the named compile phase (the
    /// panic is injected for real and contained with `catch_unwind`).
    CompilePhasePanic {
        /// The engine whose build is sabotaged.
        engine: Engine,
        /// The compile phase named in the panic message.
        phase: &'static str,
    },
    /// Building `engine` reports an exhausted budget.
    CompileBudget {
        /// The engine whose budget trips.
        engine: Engine,
    },
    /// `engine` panics while simulating vector `vector` (0-based).
    RunPanicAt {
        /// The engine that panics.
        engine: Engine,
        /// Which vector triggers the panic.
        vector: usize,
    },
    /// `engine` silently inverts every reported value once vector
    /// `vector` has run — the fault only cross-checking can catch.
    SilentCorruptionFrom {
        /// The engine that corrupts.
        engine: Engine,
        /// First vector after which outputs lie.
        vector: usize,
    },
    /// Stimulus bit `bit` of vector `vector` is flipped before it
    /// reaches any engine (apply with [`FaultPlan::poison_stimulus`]).
    PoisonInput {
        /// Which vector is poisoned.
        vector: usize,
        /// Which input bit flips.
        bit: usize,
    },
}

/// A named, fully deterministic set of faults to inject.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    /// Plan name, for reports.
    pub name: String,
    /// The faults, all injected.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan injecting a single fault.
    pub fn single(name: impl Into<String>, fault: Fault) -> Self {
        FaultPlan {
            name: name.into(),
            faults: vec![fault],
        }
    }

    /// Faults targeting `engine`'s build, if any.
    fn compile_fault(&self, engine: Engine) -> Option<&Fault> {
        self.faults.iter().find(|f| {
            matches!(f,
                Fault::CompilePhasePanic { engine: e, .. } | Fault::CompileBudget { engine: e }
                if *e == engine
            )
        })
    }

    /// Runtime faults targeting `engine`, if any.
    fn run_faults(&self, engine: Engine) -> (Option<usize>, Option<usize>) {
        let mut panic_at = None;
        let mut corrupt_from = None;
        for fault in &self.faults {
            match *fault {
                Fault::RunPanicAt { engine: e, vector } if e == engine => {
                    panic_at = Some(vector);
                }
                Fault::SilentCorruptionFrom { engine: e, vector } if e == engine => {
                    corrupt_from = Some(vector);
                }
                _ => {}
            }
        }
        (panic_at, corrupt_from)
    }

    /// Applies every [`Fault::PoisonInput`] to a stimulus, in place.
    /// Out-of-range coordinates are ignored (a poison that misses is
    /// still deterministic).
    pub fn poison_stimulus(&self, stimulus: &mut [Vec<bool>]) {
        for fault in &self.faults {
            if let Fault::PoisonInput { vector, bit } = *fault {
                if let Some(v) = stimulus.get_mut(vector) {
                    if let Some(b) = v.get_mut(bit) {
                        *b = !*b;
                    }
                }
            }
        }
    }
}

/// Deterministically truncates `.bench` source to its first
/// `keep_bytes` bytes, respecting UTF-8 boundaries — the "input cut off
/// mid-write" fault. Feed the result to the parser; it must answer with
/// a netlist or a typed parse error, never a panic.
pub fn truncate_bench(text: &str, keep_bytes: usize) -> &str {
    if keep_bytes >= text.len() {
        return text;
    }
    let mut end = keep_bytes;
    while end > 0 && !text.is_char_boundary(end) {
        end -= 1;
    }
    &text[..end]
}

/// An engine wrapper that injects runtime faults: a panic at a chosen
/// vector, or silent output inversion after one.
pub struct ChaosSimulator {
    inner: Box<dyn UnitDelaySimulator>,
    vectors_seen: usize,
    panic_at: Option<usize>,
    corrupt_from: Option<usize>,
}

impl ChaosSimulator {
    /// Wraps an engine with the given faults.
    pub fn new(
        inner: Box<dyn UnitDelaySimulator>,
        panic_at: Option<usize>,
        corrupt_from: Option<usize>,
    ) -> Self {
        ChaosSimulator {
            inner,
            vectors_seen: 0,
            panic_at,
            corrupt_from,
        }
    }

    fn corrupting(&self) -> bool {
        self.corrupt_from
            .is_some_and(|from| self.vectors_seen > from)
    }
}

impl UnitDelaySimulator for ChaosSimulator {
    fn engine_name(&self) -> &'static str {
        self.inner.engine_name()
    }

    fn simulate_vector(&mut self, inputs: &[bool]) {
        if self.panic_at == Some(self.vectors_seen) {
            panic!(
                "injected fault: engine panic at vector {}",
                self.vectors_seen
            );
        }
        self.inner.simulate_vector(inputs);
        self.vectors_seen += 1;
    }

    /// The wrapped engine's, so a fault lands inside the blocks it
    /// would be fed; the default loop places it on its vector.
    fn block_len(&self) -> usize {
        self.inner.block_len()
    }

    fn final_value(&self, net: NetId) -> bool {
        let value = self.inner.final_value(net);
        if self.corrupting() {
            !value
        } else {
            value
        }
    }

    fn history(&self, net: NetId) -> Option<Vec<bool>> {
        let history = self.inner.history(net)?;
        Some(if self.corrupting() {
            history.into_iter().map(|b| !b).collect()
        } else {
            history
        })
    }

    fn depth(&self) -> u32 {
        self.inner.depth()
    }

    fn seed_stable(&mut self, stable: &[bool]) {
        // Fault coordinates stay relative to this wrapper's own vector
        // count — a seed moves the *state*, not the sabotage schedule.
        self.inner.seed_stable(stable);
    }

    fn clone_box(&self) -> Box<dyn UnitDelaySimulator> {
        Box::new(ChaosSimulator {
            inner: self.inner.clone_box(),
            vectors_seen: self.vectors_seen,
            panic_at: self.panic_at,
            corrupt_from: self.corrupt_from,
        })
    }
}

/// An [`EngineFactory`] executing a [`FaultPlan`]: engines the plan
/// names come up sabotaged; everything else builds normally.
#[derive(Clone)]
pub struct ChaosFactory {
    plan: FaultPlan,
    inner: DefaultEngineFactory,
}

impl ChaosFactory {
    /// A factory injecting `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self::with_word(plan, WordWidth::default())
    }

    /// A factory injecting `plan` into engines built at `word`.
    pub fn with_word(plan: FaultPlan, word: WordWidth) -> Self {
        ChaosFactory {
            plan,
            inner: DefaultEngineFactory::with_word(word),
        }
    }
}

impl EngineFactory for ChaosFactory {
    fn build(
        &self,
        netlist: &Netlist,
        engine: Engine,
        limits: &ResourceLimits,
        probe: &dyn Probe,
    ) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
        match self.plan.compile_fault(engine) {
            Some(&Fault::CompilePhasePanic { phase, .. }) => {
                // Panic for real and contain it, exercising the same
                // path a genuine compiler bug would take.
                let payload = panic::catch_unwind(AssertUnwindSafe(|| -> () {
                    panic!("injected fault: compile phase '{phase}' failed");
                }))
                .expect_err("the injected panic always fires");
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_else(|| "injected compile panic".to_owned());
                return Err(SimError::new(
                    SimErrorKind::EnginePanicked { message },
                    SimPhase::Compile,
                )
                .with_engine(engine));
            }
            Some(&Fault::CompileBudget { .. }) => {
                return Err(SimError::new(
                    SimErrorKind::Budget(LimitExceeded {
                        resource: Resource::MemoryBytes,
                        needed: u64::MAX,
                        allowed: 0,
                    }),
                    SimPhase::Compile,
                )
                .with_engine(engine));
            }
            _ => {}
        }
        let sim = self.inner.build(netlist, engine, limits, probe)?;
        let (panic_at, corrupt_from) = self.plan.run_faults(engine);
        if panic_at.is_some() || corrupt_from.is_some() {
            Ok(Box::new(ChaosSimulator::new(sim, panic_at, corrupt_from)))
        } else {
            Ok(sim)
        }
    }

    fn clone_box(&self) -> Box<dyn EngineFactory> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_is_utf8_safe() {
        let text = "INPUT(é)\n";
        for keep in 0..=text.len() {
            let cut = truncate_bench(text, keep);
            assert!(cut.len() <= keep);
            assert!(text.starts_with(cut));
        }
        assert_eq!(truncate_bench("abc", 10), "abc");
    }

    #[test]
    fn poison_flips_exactly_one_bit() {
        let plan = FaultPlan::single("poison", Fault::PoisonInput { vector: 1, bit: 2 });
        let mut stimulus = vec![vec![false; 4], vec![false; 4]];
        plan.poison_stimulus(&mut stimulus);
        assert_eq!(stimulus[0], vec![false; 4]);
        assert_eq!(stimulus[1], vec![false, false, true, false]);
        // Out-of-range poison is a no-op, not a panic.
        let oob = FaultPlan::single("oob", Fault::PoisonInput { vector: 9, bit: 9 });
        oob.poison_stimulus(&mut stimulus);
    }
}
