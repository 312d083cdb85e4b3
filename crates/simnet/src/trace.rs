//! Structured event tracing for simulations.
//!
//! A [`Trace`] is a bounded ring buffer of network events (sends,
//! deliveries, drops) that a [`crate::net::Network`] records when
//! tracing is enabled. Tests assert on traces instead of sprinkling
//! `println!`; experiment debugging replays them after the fact.

use std::collections::VecDeque;

use crate::net::EndpointId;
use crate::time::SimTime;

/// What happened to one message or timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The message was handed to the network.
    Sent,
    /// The message reached a live destination.
    Delivered,
    /// The message was lost (dead sender/receiver or link loss).
    Dropped,
    /// A timer was scheduled (`from == to == owner`).
    TimerSet,
    /// A timer fired at its live owner (`from == to == owner`).
    TimerFired,
}

/// One traced network event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened (virtual time).
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
    /// Sending endpoint.
    pub from: EndpointId,
    /// Destination endpoint.
    pub to: EndpointId,
}

/// A bounded ring buffer of [`TraceEvent`]s.
///
/// # Example
///
/// ```
/// use hyperdex_simnet::latency::LatencyModel;
/// use hyperdex_simnet::net::Network;
///
/// let mut net: Network<u32> = Network::new(LatencyModel::constant(1), 0);
/// net.enable_tracing(2);
/// let (a, b) = (net.add_endpoint(), net.add_endpoint());
/// for i in 0..3 {
///     net.send(a, b, i);
/// }
/// // Bounded: only the last two events survive.
/// assert_eq!(net.trace().count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: VecDeque<TraceEvent>,
    capacity: usize,
}

impl Trace {
    /// Creates a trace keeping at most `capacity` recent events
    /// (0 disables recording).
    pub fn new(capacity: usize) -> Self {
        Trace {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
        }
    }

    /// Records an event, evicting the oldest if full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }

    /// Events currently buffered (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_ticks(t),
            kind,
            from: EndpointId(0),
            to: EndpointId(1),
        }
    }

    #[test]
    fn bounded_eviction() {
        let mut trace = Trace::new(3);
        for i in 0..5 {
            trace.record(ev(i, TraceKind::Sent));
        }
        assert_eq!(trace.events.len(), 3);
        let first = trace.iter().next().unwrap();
        assert_eq!(first.at, SimTime::from_ticks(2), "oldest evicted");
    }

    #[test]
    fn zero_capacity_disables() {
        let mut trace = Trace::new(0);
        trace.record(ev(1, TraceKind::Sent));
        assert!(trace.events.is_empty());
    }

    #[test]
    fn filter_by_kind() {
        let mut trace = Trace::new(10);
        trace.record(ev(1, TraceKind::Sent));
        trace.record(ev(2, TraceKind::Delivered));
        trace.record(ev(3, TraceKind::Dropped));
        trace.record(ev(4, TraceKind::Delivered));
        let of_kind = |kind| trace.iter().filter(|e| e.kind == kind).count();
        assert_eq!(of_kind(TraceKind::Delivered), 2);
        assert_eq!(of_kind(TraceKind::Dropped), 1);
    }
}
