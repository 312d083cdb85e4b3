//! Counters for experiment accounting.
//!
//! The paper's figures report counts — messages exchanged, nodes
//! contacted. [`NetMetrics`] collects the network's.

/// Message-level accounting for a simulated network.
///
/// Every counter is maintained by [`crate::net::Network`] itself; the
/// first three obey the conservation law `messages_sent ==
/// messages_delivered + messages_dropped` at quiescence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Messages handed to the network by `send`.
    pub messages_sent: u64,
    /// Messages delivered to a live endpoint.
    pub messages_delivered: u64,
    /// Messages dropped by fault injection or dead endpoints.
    pub messages_dropped: u64,
    /// Approximate payload bytes sent (when the caller reports sizes).
    pub bytes_sent: u64,
    /// Timers scheduled via `set_timer`.
    pub timers_set: u64,
    /// Timers that fired (reached a live owner uncancelled).
    pub timers_fired: u64,
    /// Timers cancelled before firing.
    pub timers_cancelled: u64,
}

impl NetMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }
}
