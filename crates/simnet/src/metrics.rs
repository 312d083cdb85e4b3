//! Counters for experiment accounting.
//!
//! The paper's figures report counts — messages exchanged, nodes
//! contacted. These small utilities collect them without any external
//! dependency.

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
}
