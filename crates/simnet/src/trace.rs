//! Structured event tracing for simulations.
//!
//! A [`Trace`] is a bounded ring buffer of network events (sends,
//! deliveries, drops) that a [`crate::net::Network`] records when
//! tracing is enabled. Tests assert on traces instead of sprinkling
//! `println!`; experiment debugging replays them after the fact.

use std::collections::VecDeque;
use std::fmt;

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

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceKind::Sent => "sent",
            TraceKind::Delivered => "delivered",
            TraceKind::Dropped => "dropped",
            TraceKind::TimerSet => "timer-set",
            TraceKind::TimerFired => "timer-fired",
        };
        f.write_str(s)
    }
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

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {} -> {}",
            self.at, self.kind, self.from, self.to
        )
    }
}

/// A bounded ring buffer of [`TraceEvent`]s.
///
/// # Example
///
/// ```
/// use hyperdex_simnet::trace::{Trace, TraceEvent, TraceKind};
/// use hyperdex_simnet::net::EndpointId;
/// use hyperdex_simnet::time::SimTime;
///
/// let mut trace = Trace::new(2);
/// for i in 0..3 {
///     trace.record(TraceEvent {
///         at: SimTime::from_ticks(i),
///         kind: TraceKind::Sent,
///         from: EndpointId::from_raw(0),
///         to: EndpointId::from_raw(1),
///     });
/// }
/// // Bounded: only the last two events survive.
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.iter().next().unwrap().at, SimTime::from_ticks(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    recorded: u64,
}

impl Trace {
    /// Creates a trace keeping at most `capacity` recent events
    /// (0 disables recording).
    pub fn new(capacity: usize) -> Self {
        Trace {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            recorded: 0,
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
        self.recorded += 1;
    }

    /// Events currently buffered (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Clears the buffer (the `recorded` total is kept).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_ticks(t),
            kind,
            from: EndpointId::from_raw(0),
            to: EndpointId::from_raw(1),
        }
    }

    #[test]
    fn bounded_eviction() {
        let mut trace = Trace::new(3);
        for i in 0..5 {
            trace.record(ev(i, TraceKind::Sent));
        }
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.recorded(), 5);
        let first = trace.iter().next().unwrap();
        assert_eq!(first.at, SimTime::from_ticks(2), "oldest evicted");
    }

    #[test]
    fn zero_capacity_disables() {
        let mut trace = Trace::new(0);
        trace.record(ev(1, TraceKind::Sent));
        assert!(trace.is_empty());
        assert_eq!(trace.recorded(), 0);
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

    #[test]
    fn clear_keeps_total() {
        let mut trace = Trace::new(4);
        trace.record(ev(1, TraceKind::Sent));
        trace.clear();
        assert!(trace.is_empty());
        assert_eq!(trace.recorded(), 1);
    }

    #[test]
    fn display_formats() {
        let e = ev(7, TraceKind::Dropped);
        assert_eq!(e.to_string(), "[t=7] dropped ep0 -> ep1");
    }
}
