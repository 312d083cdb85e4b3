//! A deterministic discrete-event queue.
//!
//! Events are delivered in non-decreasing time order; events scheduled for
//! the same instant are delivered in the order they were scheduled (stable
//! FIFO tie-breaking), which keeps whole-simulation runs reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// An entry in the queue: payload plus its due time and a sequence number
/// used for stable tie-breaking.
#[derive(Debug)]
struct Scheduled<E> {
    due: SimTime,
    seq: u64,
    payload: E,
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest
// (and, within a tick, the first-scheduled) event.
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

/// A discrete-event queue advancing a virtual clock.
///
/// # Example
///
/// ```
/// use hyperdex_simnet::event::EventQueue;
/// use hyperdex_simnet::time::SimDuration;
///
/// let mut q = EventQueue::new();
/// q.schedule_after(SimDuration::from_ticks(5), "later");
/// q.schedule_after(SimDuration::from_ticks(1), "sooner");
/// assert_eq!(q.pop().map(|(_, e)| e), Some("sooner"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("later"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// Returns the current virtual time (the due time of the most recently
    /// popped event, or zero initially).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at the absolute instant `due`.
    ///
    /// # Panics
    ///
    /// Panics if `due` is earlier than the current time: delivering into
    /// the past would violate causality.
    pub fn schedule_at(&mut self, due: SimTime, payload: E) {
        assert!(
            due >= self.now,
            "cannot schedule an event in the past ({due} < {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { due, seq, payload });
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Pops the next event, advancing the clock to its due time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.due >= self.now);
        self.now = entry.due;
        Some((entry.due, entry.payload))
    }

    /// Peeks at the due time of the next event without popping it.
    pub fn peek_due(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(n: u64) -> SimTime {
        SimTime::from_ticks(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(tick(30), "c");
        q.schedule_at(tick(10), "a");
        q.schedule_at(tick(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(tick(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(tick(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (due, _) = q.pop().unwrap();
        assert_eq!(due, tick(42));
        assert_eq!(q.now(), tick(42));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(tick(10), "first");
        q.pop();
        q.schedule_after(SimDuration::from_ticks(5), "second");
        assert_eq!(q.peek_due(), Some(tick(15)));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(tick(10), ());
        q.pop();
        q.schedule_at(tick(5), ());
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::new();
        q.schedule_at(tick(1), ());
        q.schedule_at(tick(2), ());
        assert_eq!(q.heap.len(), 2);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule_at(tick(1), 1);
        q.schedule_at(tick(3), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule_at(tick(2), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }
}
