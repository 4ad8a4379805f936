//! Rolling (windowed) samplers for live-traffic telemetry.
//!
//! The startup warmup measures throughput once, on an idle process;
//! a loaded daemon needs the same number sampled from real traffic.
//! `RollingState` keeps a ring of one-second slots per key — 60 of
//! them, so a sample ages out exactly [`WINDOW_SECS`] seconds after it
//! landed — plus an exponentially weighted moving average that reacts
//! faster than the window but never forgets more than `1 - ALPHA` per
//! sample. Two kinds of keys live here:
//!
//! - **throughput** keys `(engine, word_bits)`: each completed
//!   simulate folds `vectors` into the current slot; the window rate
//!   is total vectors over the seconds the window actually covers,
//!   and the EWMA tracks each completion's instantaneous
//!   `vectors / wall` rate.
//! - **level** keys (queue depth, in-flight): each observation folds
//!   the sampled value in; the window statistic is the mean of the
//!   observations still inside the window.
//!
//! The state is plain data — the [`Telemetry`] registry owns one
//! behind its existing mutex and folds it into labeled gauges at
//! snapshot time, so a `/metrics` scrape always reads a fresh rate.
//!
//! [`Telemetry`]: super::Telemetry

/// Width of the sampling window, in seconds (and ring slots).
pub const WINDOW_SECS: u64 = 60;

/// EWMA smoothing factor: each new sample contributes 20%.
const ALPHA: f64 = 0.2;

/// One second-aligned accumulator slot. A slot is live only while
/// `second` matches the second it was last written for; a ring index
/// reached again 60 seconds later sees a stale `second` and resets.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    second: u64,
    sum: u64,
    count: u64,
}

/// A 60-slot ring of one-second accumulators plus the running EWMA.
#[derive(Clone, Debug)]
pub(super) struct Ring {
    slots: [Slot; WINDOW_SECS as usize],
    ewma: Option<f64>,
}

impl Default for Ring {
    fn default() -> Self {
        Ring {
            slots: [Slot::default(); WINDOW_SECS as usize],
            ewma: None,
        }
    }
}

/// A windowed statistic read off a ring: the per-window aggregate and
/// the EWMA, both `None`-free (a ring only exists once it has a
/// sample).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowStat {
    /// Window aggregate: vectors/sec for throughput rings, mean
    /// observation for level rings.
    pub window: f64,
    /// Exponentially weighted moving average of the same quantity.
    pub ewma: f64,
}

impl Ring {
    /// Folds `value` into the slot for `now_s`, evicting anything the
    /// ring index last held 60+ seconds ago.
    fn fold(&mut self, now_s: u64, value: u64) {
        let slot = &mut self.slots[(now_s % WINDOW_SECS) as usize];
        if slot.second != now_s || slot.count == 0 {
            *slot = Slot {
                second: now_s,
                sum: 0,
                count: 0,
            };
        }
        slot.sum = slot.sum.saturating_add(value);
        slot.count += 1;
    }

    /// Folds an instantaneous sample into the EWMA.
    fn smooth(&mut self, sample: f64) {
        self.ewma = Some(match self.ewma {
            Some(previous) => ALPHA * sample + (1.0 - ALPHA) * previous,
            None => sample,
        });
    }

    /// Live slots as seen from `now_s`: written within the last
    /// [`WINDOW_SECS`] seconds and holding at least one sample.
    fn live(&self, now_s: u64) -> impl Iterator<Item = &Slot> {
        self.slots
            .iter()
            .filter(move |s| s.count > 0 && s.second <= now_s && now_s - s.second < WINDOW_SECS)
    }

    /// Window rate: total across live slots divided by the seconds the
    /// window actually covers (so a 3-second-old daemon reports its
    /// 3-second rate, not a 60th of it).
    fn rate(&self, now_s: u64) -> Option<WindowStat> {
        let oldest = self.live(now_s).map(|s| s.second).min()?;
        let total: u64 = self.live(now_s).map(|s| s.sum).sum();
        let covered = (now_s - oldest + 1).max(1) as f64;
        Some(WindowStat {
            window: total as f64 / covered,
            ewma: self.ewma.unwrap_or(0.0),
        })
    }

    /// Window mean: average observation across live slots.
    fn mean(&self, now_s: u64) -> Option<WindowStat> {
        let (mut sum, mut count) = (0u64, 0u64);
        for slot in self.live(now_s) {
            sum = sum.saturating_add(slot.sum);
            count += slot.count;
        }
        if count == 0 {
            return None;
        }
        Some(WindowStat {
            window: sum as f64 / count as f64,
            ewma: self.ewma.unwrap_or(0.0),
        })
    }
}

/// All rolling samplers owned by one registry. Keys are created on
/// first sample, so an idle process exports nothing.
#[derive(Clone, Debug, Default)]
pub(super) struct RollingState {
    /// `(engine, word_bits)` → vectors-throughput ring.
    throughput: std::collections::BTreeMap<(String, u32), Ring>,
    /// Level name → sampled-value ring.
    levels: std::collections::BTreeMap<String, Ring>,
}

impl RollingState {
    /// Folds one completed simulate: `vectors` results produced in
    /// `wall_ns` by `engine` at `word_bits`.
    pub(super) fn record_throughput(
        &mut self,
        engine: &str,
        word_bits: u32,
        vectors: u64,
        wall_ns: u64,
        now_s: u64,
    ) {
        let ring = self
            .throughput
            .entry((engine.to_owned(), word_bits))
            .or_default();
        ring.fold(now_s, vectors);
        let seconds = wall_ns.max(1) as f64 / 1e9;
        ring.smooth(vectors as f64 / seconds);
    }

    /// Folds one observation of a moving level (queue depth,
    /// in-flight requests).
    pub(super) fn observe_level(&mut self, name: &str, value: u64, now_s: u64) {
        let ring = self.levels.entry(name.to_owned()).or_default();
        ring.fold(now_s, value);
        ring.smooth(value as f64);
    }

    /// Current throughput stats per `(engine, word_bits)` key, in key
    /// order. Keys whose window has fully aged out are omitted.
    pub(super) fn throughput_stats(&self, now_s: u64) -> Vec<((String, u32), WindowStat)> {
        self.throughput
            .iter()
            .filter_map(|(key, ring)| Some((key.clone(), ring.rate(now_s)?)))
            .collect()
    }

    /// Current level stats per name, in name order.
    pub(super) fn level_stats(&self, now_s: u64) -> Vec<(String, WindowStat)> {
        self.levels
            .iter()
            .filter_map(|(name, ring)| Some((name.clone(), ring.mean(now_s)?)))
            .collect()
    }

    /// True when no key has ever been sampled.
    pub(super) fn is_empty(&self) -> bool {
        self.throughput.is_empty() && self.levels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_window_rate_covers_elapsed_seconds() {
        let mut state = RollingState::default();
        // 1000 vectors in each of seconds 10, 11, 12.
        for s in 10..13 {
            state.record_throughput("parallel", 32, 1000, 1_000_000, s);
        }
        let stats = state.throughput_stats(12);
        assert_eq!(stats.len(), 1);
        let (key, stat) = &stats[0];
        assert_eq!(key, &("parallel".to_owned(), 32));
        // 3000 vectors over 3 covered seconds.
        assert!((stat.window - 1000.0).abs() < 1e-9, "{stat:?}");
        // Each completion's instantaneous rate was 1000 / 1ms = 1M/s.
        assert!((stat.ewma - 1e9 / 1e3).abs() < 1e-3, "{stat:?}");
    }

    #[test]
    fn samples_age_out_after_the_window() {
        let mut state = RollingState::default();
        state.record_throughput("parallel", 32, 500, 1_000, 5);
        assert_eq!(state.throughput_stats(5).len(), 1);
        // 60 seconds later the slot is stale.
        assert!(state.throughput_stats(5 + WINDOW_SECS).is_empty());
        // …but the key comes back with fresh samples.
        state.record_throughput("parallel", 32, 250, 1_000, 100);
        let stats = state.throughput_stats(100);
        assert!((stats[0].1.window - 250.0).abs() < 1e-9);
    }

    #[test]
    fn ring_index_reuse_resets_stale_slot() {
        let mut state = RollingState::default();
        state.record_throughput("e", 64, 100, 1_000, 3);
        // Second 63 maps to the same ring index as second 3.
        state.record_throughput("e", 64, 7, 1_000, 3 + WINDOW_SECS);
        let stats = state.throughput_stats(3 + WINDOW_SECS);
        assert!((stats[0].1.window - 7.0).abs() < 1e-9, "{stats:?}");
    }

    #[test]
    fn levels_average_observations_in_window() {
        let mut state = RollingState::default();
        state.observe_level("serve.queue_depth", 2, 1);
        state.observe_level("serve.queue_depth", 4, 1);
        state.observe_level("serve.queue_depth", 6, 2);
        let stats = state.level_stats(2);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].0, "serve.queue_depth");
        assert!((stats[0].1.window - 4.0).abs() < 1e-9, "{stats:?}");
    }

    #[test]
    fn ewma_tracks_recent_samples() {
        let mut ring = Ring::default();
        ring.smooth(100.0);
        assert_eq!(ring.ewma, Some(100.0));
        ring.smooth(0.0);
        assert!((ring.ewma.unwrap() - 80.0).abs() < 1e-9);
        for _ in 0..100 {
            ring.smooth(0.0);
        }
        assert!(ring.ewma.unwrap() < 1e-6);
    }

    #[test]
    fn empty_state_exports_nothing() {
        let state = RollingState::default();
        assert!(state.is_empty());
        assert!(state.throughput_stats(0).is_empty());
        assert!(state.level_stats(0).is_empty());
    }
}
