//! Link-latency models.
//!
//! The paper's complexity analysis (§3.5) measures cost in units of
//! message-transmission time, i.e. a constant one-tick latency. Richer
//! models (uniform jitter, long-tailed Pareto) are provided so the
//! simulated-network experiments can check that the scheme's behaviour is
//! insensitive to latency distribution.

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
    /// Long-tailed latency: `scale / U^(1/shape)` ticks, clamped to `cap`.
    ///
    /// Models occasional slow wide-area links; `shape` around 2.0 gives a
    /// realistic heavy tail.
    Pareto {
        /// Minimum latency in ticks (the distribution's scale).
        scale: u64,
        /// Tail index; larger values make the tail lighter. Must be > 0.
        shape: f64,
        /// Hard upper bound in ticks to keep simulations finite.
        cap: u64,
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
            LatencyModel::Pareto { scale, shape, cap } => {
                let u = rng.gen_f64().max(f64::MIN_POSITIVE);
                let raw = scale as f64 / u.powf(1.0 / shape);
                (raw as u64).min(cap)
            }
        };
        SimDuration::from_ticks(ticks)
    }
}

impl Default for LatencyModel {
    /// One tick per message: the paper's unit-cost model.
    fn default() -> Self {
        LatencyModel::Constant(1)
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

    #[test]
    fn pareto_bounded_by_scale_and_cap() {
        let m = LatencyModel::Pareto {
            scale: 10,
            shape: 2.0,
            cap: 500,
        };
        let mut rng = SimRng::new(4);
        for _ in 0..2000 {
            let t = m.sample(&mut rng).ticks();
            assert!((10..=500).contains(&t), "latency {t}");
        }
    }

    #[test]
    fn pareto_has_tail() {
        let m = LatencyModel::Pareto {
            scale: 10,
            shape: 1.2,
            cap: 10_000,
        };
        let mut rng = SimRng::new(5);
        let slow = (0..5000)
            .filter(|_| m.sample(&mut rng).ticks() > 100)
            .count();
        assert!(slow > 0, "expected at least one slow sample");
    }

    #[test]
    fn default_is_unit_cost() {
        assert_eq!(LatencyModel::default(), LatencyModel::Constant(1));
    }
}
