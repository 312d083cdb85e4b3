//! Counters and histograms for experiment accounting.
//!
//! The paper's figures report counts — messages exchanged, nodes
//! contacted — and distributions (load per node). These small utilities
//! collect both without any external dependency.

use std::fmt;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Message-level accounting for a simulated network.
///
/// Every counter is maintained by [`crate::net::Network`] itself; the
/// first three obey the conservation law `messages_sent ==
/// messages_delivered + messages_dropped` at quiescence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Messages handed to the network by `send`.
    pub messages_sent: Counter,
    /// Messages delivered to a live endpoint.
    pub messages_delivered: Counter,
    /// Messages dropped by fault injection or dead endpoints.
    pub messages_dropped: Counter,
    /// Approximate payload bytes sent (when the caller reports sizes).
    pub bytes_sent: Counter,
    /// Timers scheduled via `set_timer`.
    pub timers_set: Counter,
    /// Timers that fired (reached a live owner uncancelled).
    pub timers_fired: Counter,
    /// Timers cancelled before firing.
    pub timers_cancelled: Counter,
}

impl NetMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A collection of `f64` observations supporting summary statistics.
///
/// Stores raw observations (experiments here are small enough that exact
/// quantiles beat a sketching structure).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    values: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN — a NaN observation would poison every
    /// summary statistic.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN");
        self.values.push(value);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.sum() / self.values.len() as f64)
        }
    }

    /// Minimum observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Maximum observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank on sorted data, or
    /// `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded at record"));
            self.sorted = true;
        }
        let idx = ((self.values.len() - 1) as f64 * q).round() as usize;
        Some(self.values[idx])
    }

    /// Iterates over raw observations in insertion or sorted order
    /// (unspecified which; do not rely on ordering).
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter().copied()
    }
}

impl FromIterator<f64> for Histogram {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

impl Extend<f64> for Histogram {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_summary_stats() {
        let mut h: Histogram = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(h.len(), 4);
        assert_eq!(h.mean(), Some(2.5));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(4.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(4.0));
    }

    #[test]
    fn histogram_median() {
        let mut h: Histogram = [5.0, 1.0, 3.0].into_iter().collect();
        assert_eq!(h.quantile(0.5), Some(3.0));
    }

    #[test]
    fn histogram_empty() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn histogram_rejects_nan() {
        Histogram::new().record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "[0,1]")]
    fn quantile_out_of_range_panics() {
        let mut h: Histogram = [1.0].into_iter().collect();
        h.quantile(1.5);
    }

    #[test]
    fn record_after_quantile_resorts() {
        let mut h: Histogram = [3.0, 1.0].into_iter().collect();
        assert_eq!(h.quantile(1.0), Some(3.0));
        h.record(10.0);
        assert_eq!(h.quantile(1.0), Some(10.0));
    }
}
