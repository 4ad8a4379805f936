//! Dense per-net time histories and transition queries.

use uds_netlist::NetId;

/// Invokes `visit(t)` for every time `t` at which `history[t]` differs
/// from `history[t - 1]`, in ascending order, and returns how many
/// there were. The one transition walk over a dense history:
/// [`Waveform`], [`crate::hazard::classify`] and the default
/// [`crate::UnitDelaySimulator::for_each_toggle`] all count with it.
pub fn for_each_transition(history: &[bool], visit: &mut dyn FnMut(u32)) -> u32 {
    let mut count = 0;
    for (i, pair) in history.windows(2).enumerate() {
        if pair[0] != pair[1] {
            count += 1;
            visit(i as u32 + 1);
        }
    }
    count
}

/// The unit-delay history of one net for one input vector: entry `t` is
/// the net's value at time `t` (gate delays after the inputs changed).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Waveform {
    /// The net this history belongs to.
    pub net: NetId,
    /// Values at times `0..=depth`.
    pub values: Vec<bool>,
}

impl Waveform {
    /// Wraps a history.
    pub fn new(net: NetId, values: Vec<bool>) -> Self {
        Waveform { net, values }
    }

    /// The settled (final) value.
    ///
    /// # Panics
    ///
    /// Panics on an empty history (histories always have depth+1 ≥ 1
    /// entries).
    pub fn final_value(&self) -> bool {
        *self.values.last().expect("histories are nonempty")
    }

    /// The value before the vector was applied (time 0 holds the
    /// retained previous value for non-input nets).
    ///
    /// # Panics
    ///
    /// Panics on an empty history.
    pub fn initial_value(&self) -> bool {
        self.values[0]
    }

    /// Times `t` at which the value differs from `t - 1`.
    pub fn transitions(&self) -> Vec<u32> {
        let mut times = Vec::new();
        for_each_transition(&self.values, &mut |t| times.push(t));
        times
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        for_each_transition(&self.values, &mut |_| {}) as usize
    }

    /// `true` if the net never changed during this vector.
    pub fn is_stable(&self) -> bool {
        self.transition_count() == 0
    }
}

impl std::fmt::Display for Waveform {
    /// Renders as a compact trace like `0011101`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for &v in &self.values {
            write!(f, "{}", v as u8)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wf(bits: &[u8]) -> Waveform {
        Waveform::new(NetId::from_index(0), bits.iter().map(|&b| b != 0).collect())
    }

    #[test]
    fn transitions_are_found() {
        let w = wf(&[0, 0, 1, 1, 0, 1]);
        assert_eq!(w.transitions(), vec![2, 4, 5]);
        assert_eq!(w.transition_count(), 3);
        assert!(!w.is_stable());
        assert!(!w.initial_value());
        assert!(w.final_value());
    }

    #[test]
    fn stable_waveform() {
        let w = wf(&[1, 1, 1]);
        assert!(w.is_stable());
        assert_eq!(w.transitions(), Vec::<u32>::new());
    }

    #[test]
    fn display_is_bit_string() {
        assert_eq!(wf(&[0, 1, 1, 0]).to_string(), "0110");
    }
}
