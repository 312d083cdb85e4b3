//! Link-latency models.
//!
//! The paper's complexity analysis (§3.5) measures cost in units of
//! message-transmission time, i.e. a constant one-tick latency. Uniform
//! jitter lets the simulated-network experiments check that the scheme's
//! behaviour is insensitive to latency distribution.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// A model producing per-message link latencies.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this many ticks.
    Constant(u64),
    /// Latency uniform in `[lo, hi]` ticks.
    Uniform {
        /// Inclusive lower bound in ticks.
        lo: u64,
        /// Inclusive upper bound in ticks.
        hi: u64,
    },
}

impl LatencyModel {
    /// Convenience constructor for [`LatencyModel::Constant`].
    pub fn constant(ticks: u64) -> Self {
        LatencyModel::Constant(ticks)
    }

    /// Convenience constructor for [`LatencyModel::Uniform`].
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "uniform latency requires lo <= hi");
        LatencyModel::Uniform { lo, hi }
    }

    /// Samples a latency for one message.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let ticks = match *self {
            LatencyModel::Constant(t) => t,
            LatencyModel::Uniform { lo, hi } => lo + rng.gen_range(hi - lo + 1),
        };
        SimDuration::from_ticks(ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::constant(3);
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            assert_eq!(m.sample(&mut rng).ticks(), 3);
        }
    }

    #[test]
    fn uniform_stays_in_bounds_and_covers() {
        let m = LatencyModel::uniform(2, 5);
        let mut rng = SimRng::new(2);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let t = m.sample(&mut rng).ticks();
            assert!((2..=5).contains(&t));
            seen[t as usize] = true;
        }
        assert!(seen[2] && seen[3] && seen[4] && seen[5]);
    }

    #[test]
    fn uniform_degenerate_single_point() {
        let m = LatencyModel::uniform(4, 4);
        let mut rng = SimRng::new(3);
        assert_eq!(m.sample(&mut rng).ticks(), 4);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn uniform_inverted_panics() {
        LatencyModel::uniform(5, 2);
    }
}
