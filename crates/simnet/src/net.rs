//! An in-memory message-passing network between simulated endpoints.
//!
//! [`Network`] owns the event queue, the latency model, fault injection,
//! and message accounting. Higher layers (the keyword index's simulator
//! and its churn engine) register endpoints, send typed messages, and
//! drain events one at a time with [`Network::step_event`].
//!
//! Endpoints may also schedule **timers** ([`Network::set_timer`]): a
//! local event delivered back to the owning endpoint at a virtual
//! deadline, the primitive that lets protocols detect lost messages and
//! crashed peers. [`Network::step_event`] interleaves deliveries and
//! timer firings in global time order, so no loop that delivers one
//! conversation can eat another's deadlines.

use std::collections::HashSet;

use crate::event::EventQueue;
use crate::fault::FaultPlan;
use crate::latency::LatencyModel;
use crate::metrics::NetMetrics;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEvent, TraceKind};

/// Identifies an endpoint (a simulated process) within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EndpointId(pub(crate) u64);

impl std::fmt::Display for EndpointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// A message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
struct InFlight<M> {
    from: EndpointId,
    to: EndpointId,
    payload: M,
}

/// Anything the event queue can hold: a message or a pending timer.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Queued<M, T> {
    Message(InFlight<M>),
    Timer {
        owner: EndpointId,
        token: T,
        id: u64,
    },
}

/// Handle to a pending timer, used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(u64);

/// A timer that fired at its owner, carrying the token of type `T` it
/// was set with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerFired<T = u64> {
    /// Firing instant.
    pub at: SimTime,
    /// The endpoint that set the timer.
    pub owner: EndpointId,
    /// The caller-chosen token passed to [`Network::set_timer`].
    pub token: T,
    /// The timer's handle.
    pub id: TimerId,
}

/// One event as seen by [`Network::step_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent<M, T = u64> {
    /// A message arrived at a live endpoint.
    Delivery(Delivery<M>),
    /// A timer fired at its live owner.
    Timer(TimerFired<T>),
}

/// A delivered message, as [`Network::step_event`] returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Delivery instant.
    pub at: SimTime,
    /// Sender endpoint.
    pub from: EndpointId,
    /// Receiving endpoint.
    pub to: EndpointId,
    /// The message payload.
    pub payload: M,
}

/// A deterministic simulated network carrying messages of type `M`,
/// whose timers carry tokens of type `T` (an enum when one network
/// hosts several kinds of timer; a plain `u64` by default).
///
/// # Example
///
/// ```
/// use hyperdex_simnet::{net::NetEvent, net::Network, latency::LatencyModel};
///
/// let mut net: Network<u32> = Network::new(LatencyModel::constant(2), 1);
/// let a = net.add_endpoint();
/// let b = net.add_endpoint();
/// net.send(a, b, 7);
/// let Some(NetEvent::Delivery(d)) = net.step_event() else {
///     panic!("one message in flight");
/// };
/// assert_eq!((d.from, d.to, d.payload), (a, b, 7));
/// assert_eq!(d.at.ticks(), 2);
/// ```
#[derive(Debug)]
pub struct Network<M, T = u64> {
    queue: EventQueue<Queued<M, T>>,
    latency: LatencyModel,
    faults: FaultPlan,
    rng: SimRng,
    metrics: NetMetrics,
    endpoints: u64,
    trace: Trace,
    next_timer: u64,
    /// Timers scheduled but not yet fired or cancelled.
    live_timers: HashSet<u64>,
    /// Timers cancelled while still in the queue.
    cancelled_timers: HashSet<u64>,
}

impl<M, T> Network<M, T> {
    /// Creates a network with the given latency model and RNG seed.
    pub fn new(latency: LatencyModel, seed: u64) -> Self {
        Network {
            queue: EventQueue::new(),
            latency,
            faults: FaultPlan::new(),
            rng: SimRng::new(seed),
            metrics: NetMetrics::new(),
            endpoints: 0,
            trace: Trace::new(0),
            next_timer: 0,
            live_timers: HashSet::new(),
            cancelled_timers: HashSet::new(),
        }
    }

    /// Enables event tracing, keeping the `capacity` most recent
    /// events (0 disables). See [`crate::trace`].
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = Trace::new(capacity);
    }

    /// The recorded trace, oldest event first (empty unless tracing
    /// is enabled).
    pub fn trace(&self) -> impl Iterator<Item = &TraceEvent> {
        self.trace.iter()
    }

    /// Registers a new endpoint and returns its id.
    pub fn add_endpoint(&mut self) -> EndpointId {
        let id = EndpointId(self.endpoints);
        self.endpoints += 1;
        id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Due time of the next queued event (message or timer), if any.
    ///
    /// Lets drivers advance the network only up to a wall-clock
    /// boundary: process events while `next_due() <= until`, then stop
    /// with later events still queued.
    pub fn next_due(&self) -> Option<SimTime> {
        self.queue.peek_due()
    }

    /// Message accounting so far.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Mutable access to the fault plan.
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// Whether `ep` is currently alive under the fault plan.
    pub fn is_up(&self, ep: EndpointId) -> bool {
        self.faults.is_up(ep)
    }

    /// Sends `payload` from `from` to `to`.
    ///
    /// The message is queued with a latency drawn from the model. It may
    /// later be dropped by fault injection or a dead destination; the send
    /// itself always succeeds (fire-and-forget, like UDP).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint id was never registered.
    pub fn send(&mut self, from: EndpointId, to: EndpointId, payload: M) {
        self.send_sized(from, to, payload, 0);
    }

    /// Like [`Network::send`] but also accounts `bytes` of payload size.
    pub fn send_sized(&mut self, from: EndpointId, to: EndpointId, payload: M, bytes: u64) {
        assert!(from.0 < self.endpoints, "unknown sender {from}");
        assert!(to.0 < self.endpoints, "unknown destination {to}");
        self.metrics.messages_sent += 1;
        self.metrics.bytes_sent += bytes;
        self.trace.record(TraceEvent {
            at: self.now(),
            kind: TraceKind::Sent,
            from,
            to,
        });
        // A dead sender cannot emit; the message silently vanishes.
        if !self.faults.is_up(from) || self.faults.should_drop(&mut self.rng) {
            self.metrics.messages_dropped += 1;
            self.trace.record(TraceEvent {
                at: self.now(),
                kind: TraceKind::Dropped,
                from,
                to,
            });
            return;
        }
        let delay = self.latency.sample(&mut self.rng);
        self.queue
            .schedule_after(delay, Queued::Message(InFlight { from, to, payload }));
    }

    /// Schedules a timer that fires at `owner` after `after`, returning
    /// a handle for [`Network::cancel_timer`].
    ///
    /// The `token` is an opaque caller-chosen value handed back in the
    /// [`TimerFired`] event, identifying what is being timed. A timer whose owner is down at the deadline is silently
    /// discarded (a crashed process observes nothing).
    ///
    /// # Panics
    ///
    /// Panics if `owner` was never registered.
    pub fn set_timer(&mut self, owner: EndpointId, after: SimDuration, token: T) -> TimerId {
        assert!(owner.0 < self.endpoints, "unknown timer owner {owner}");
        let id = self.next_timer;
        self.next_timer += 1;
        self.live_timers.insert(id);
        self.metrics.timers_set += 1;
        self.trace.record(TraceEvent {
            at: self.now(),
            kind: TraceKind::TimerSet,
            from: owner,
            to: owner,
        });
        self.queue
            .schedule_after(after, Queued::Timer { owner, token, id });
        TimerId(id)
    }

    /// Cancels a pending timer. Cancelling a timer that already fired
    /// (or was already cancelled) is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        if self.live_timers.remove(&id.0) {
            self.cancelled_timers.insert(id.0);
            self.metrics.timers_cancelled += 1;
        }
    }

    /// Delivers the next event — a message delivery or a timer firing —
    /// in global virtual-time order, advancing the clock.
    ///
    /// Returns `None` when the network is quiescent (no messages in
    /// flight and no live timers pending). Messages whose destination
    /// is down at delivery time are counted as dropped and skipped;
    /// cancelled timers and timers of dead owners are skipped silently.
    pub fn step_event(&mut self) -> Option<NetEvent<M, T>> {
        while let Some((at, queued)) = self.queue.pop() {
            match queued {
                Queued::Timer { owner, token, id } => {
                    if self.cancelled_timers.remove(&id) {
                        continue;
                    }
                    self.live_timers.remove(&id);
                    if !self.faults.is_up(owner) {
                        continue;
                    }
                    self.metrics.timers_fired += 1;
                    self.trace.record(TraceEvent {
                        at,
                        kind: TraceKind::TimerFired,
                        from: owner,
                        to: owner,
                    });
                    return Some(NetEvent::Timer(TimerFired {
                        at,
                        owner,
                        token,
                        id: TimerId(id),
                    }));
                }
                Queued::Message(msg) => {
                    if !self.faults.is_up(msg.to) {
                        self.metrics.messages_dropped += 1;
                        self.trace.record(TraceEvent {
                            at,
                            kind: TraceKind::Dropped,
                            from: msg.from,
                            to: msg.to,
                        });
                        continue;
                    }
                    self.metrics.messages_delivered += 1;
                    self.trace.record(TraceEvent {
                        at,
                        kind: TraceKind::Delivered,
                        from: msg.from,
                        to: msg.to,
                    });
                    return Some(NetEvent::Delivery(Delivery {
                        at,
                        from: msg.from,
                        to: msg.to,
                        payload: msg.payload,
                    }));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    /// The next event, which is a delivery: these tests arm no timers.
    pub(super) fn next_delivery<M>(n: &mut Network<M>) -> Option<Delivery<M>> {
        n.step_event().map(|event| match event {
            NetEvent::Delivery(d) => d,
            NetEvent::Timer(_) => panic!("no timer was armed"),
        })
    }

    fn net(latency: LatencyModel) -> (Network<u32>, EndpointId, EndpointId) {
        let mut n = Network::new(latency, 42);
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        (n, a, b)
    }

    #[test]
    fn delivers_with_latency() {
        let (mut n, a, b) = net(LatencyModel::constant(3));
        n.send(a, b, 1);
        let d = next_delivery(&mut n).unwrap();
        assert_eq!(d.at, SimTime::from_ticks(3));
        assert_eq!(d.payload, 1);
        assert!(next_delivery(&mut n).is_none());
    }

    #[test]
    fn fifo_between_same_instant_messages() {
        let (mut n, a, b) = net(LatencyModel::constant(1));
        for i in 0..10 {
            n.send(a, b, i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| next_delivery(&mut n))
            .map(|d| d.payload)
            .collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn metrics_account_sends_and_deliveries() {
        let (mut n, a, b) = net(LatencyModel::constant(1));
        n.send_sized(a, b, 1, 100);
        n.send_sized(b, a, 2, 50);
        while next_delivery(&mut n).is_some() {}
        let m = n.metrics();
        assert_eq!(m.messages_sent, 2);
        assert_eq!(m.messages_delivered, 2);
        assert_eq!(m.messages_dropped, 0);
        assert_eq!(m.bytes_sent, 150);
    }

    #[test]
    fn dead_destination_drops() {
        let (mut n, a, b) = net(LatencyModel::constant(1));
        n.faults_mut().kill(b);
        n.send(a, b, 1);
        assert!(next_delivery(&mut n).is_none());
        assert_eq!(n.metrics().messages_dropped, 1);
    }

    #[test]
    fn dead_sender_drops() {
        let (mut n, a, b) = net(LatencyModel::constant(1));
        n.faults_mut().kill(a);
        n.send(a, b, 1);
        assert!(next_delivery(&mut n).is_none());
        assert_eq!(n.metrics().messages_dropped, 1);
        assert!(n.next_due().is_none());
    }

    #[test]
    fn lossy_link_drops_fraction() {
        let (mut n, a, b) = net(LatencyModel::constant(1));
        n.faults_mut().set_drop_probability(0.5);
        for i in 0..1000 {
            n.send(a, b, i);
        }
        let delivered = std::iter::from_fn(|| next_delivery(&mut n)).count() as u64;
        assert!((300..700).contains(&delivered), "delivered {delivered}");
        assert_eq!(
            n.metrics().messages_dropped + delivered,
            1000,
            "every message is either dropped or delivered"
        );
    }

    #[test]
    #[should_panic(expected = "unknown destination")]
    fn unknown_endpoint_panics() {
        let mut n: Network<u32> = Network::new(LatencyModel::constant(1), 1);
        let a = n.add_endpoint();
        n.send(a, EndpointId(5), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut n: Network<u64> = Network::new(LatencyModel::uniform(1, 10), 7);
            let eps: Vec<EndpointId> = (0..4).map(|_| n.add_endpoint()).collect();
            for i in 0..100u64 {
                n.send(eps[(i % 4) as usize], eps[((i + 1) % 4) as usize], i);
            }
            let mut trace = Vec::new();
            while let Some(d) = next_delivery(&mut n) {
                trace.push((d.at, d.from, d.to, d.payload));
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn add_endpoint_registers_in_order() {
        let mut n: Network<()> = Network::new(LatencyModel::constant(1), 1);
        let eps: Vec<EndpointId> = (0..5).map(|_| n.add_endpoint()).collect();
        assert_eq!(n.endpoints, 5);
        assert!(eps.windows(2).all(|w| w[0] < w[1]));
    }
}

#[cfg(test)]
mod timer_tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};
    use proptest::prelude::*;

    fn net() -> (Network<u32>, EndpointId, EndpointId) {
        let mut n = Network::new(LatencyModel::constant(2), 42);
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        (n, a, b)
    }

    #[test]
    fn timer_fires_at_deadline() {
        let (mut n, a, _) = net();
        let id = n.set_timer(a, SimDuration::from_ticks(7), 99);
        match n.step_event() {
            Some(NetEvent::Timer(t)) => {
                assert_eq!(t.at, SimTime::from_ticks(7));
                assert_eq!(t.owner, a);
                assert_eq!(t.token, 99);
                assert_eq!(t.id, id);
            }
            other => panic!("expected timer, got {other:?}"),
        }
        assert!(n.step_event().is_none());
        assert_eq!(n.metrics().timers_set, 1);
        assert_eq!(n.metrics().timers_fired, 1);
    }

    #[test]
    fn timers_and_messages_interleave_in_time_order() {
        let (mut n, a, b) = net();
        n.set_timer(a, SimDuration::from_ticks(1), 0); // fires t=1
        n.send(a, b, 5); // delivered t=2
        n.set_timer(a, SimDuration::from_ticks(3), 1); // fires t=3
        let mut order = Vec::new();
        while let Some(ev) = n.step_event() {
            match ev {
                NetEvent::Timer(t) => order.push(("timer", t.at.ticks())),
                NetEvent::Delivery(d) => order.push(("msg", d.at.ticks())),
            }
        }
        assert_eq!(order, vec![("timer", 1), ("msg", 2), ("timer", 3)]);
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let (mut n, a, _) = net();
        let id = n.set_timer(a, SimDuration::from_ticks(5), 0);
        n.cancel_timer(id);
        n.cancel_timer(id); // double-cancel is a no-op
        assert!(n.step_event().is_none());
        assert_eq!(n.metrics().timers_cancelled, 1);
        assert_eq!(n.metrics().timers_fired, 0);
        assert_eq!(n.live_timers.len(), 0);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let (mut n, a, _) = net();
        let id = n.set_timer(a, SimDuration::from_ticks(1), 0);
        assert!(matches!(n.step_event(), Some(NetEvent::Timer(_))));
        n.cancel_timer(id);
        assert_eq!(n.metrics().timers_cancelled, 0);
    }

    #[test]
    fn dead_owner_timer_is_suppressed() {
        let (mut n, a, _) = net();
        n.set_timer(a, SimDuration::from_ticks(4), 0);
        n.faults_mut().kill(a);
        assert!(n.step_event().is_none(), "owner down at deadline");
        assert_eq!(n.metrics().timers_fired, 0);
    }

    #[test]
    fn timer_ids_are_unique_and_deterministic() {
        let run = || {
            let (mut n, a, _) = net();
            let ids: Vec<u64> = (0..5)
                .map(|i| n.set_timer(a, SimDuration::from_ticks(i + 1), i).0)
                .collect();
            ids
        };
        let ids = run();
        assert_eq!(ids, run());
        let unique: HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len());
    }

    #[test]
    fn timer_trace_events() {
        let (mut n, a, _) = net();
        n.enable_tracing(16);
        n.set_timer(a, SimDuration::from_ticks(1), 0);
        n.step_event();
        let kinds: Vec<TraceKind> = n.trace().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![TraceKind::TimerSet, TraceKind::TimerFired]);
    }

    proptest! {
        /// Timers never leak: at quiescence every timer set was fired,
        /// cancelled, or suppressed by a dead owner, and none remain
        /// pending. Timer activity must not perturb message conservation.
        #[test]
        fn timer_accounting(
            seed in any::<u64>(),
            timers in prop::collection::vec((0u64..4, 1u64..30), 0..40),
            cancel_every in 1usize..5,
            kills in prop::collection::vec(0u64..4, 0..2),
            sends in prop::collection::vec((0u64..4, 0u64..4), 0..30),
        ) {
            let mut net: Network<usize> = Network::new(LatencyModel::uniform(1, 5), seed);
            let eps: Vec<EndpointId> = (0..4).map(|_| net.add_endpoint()).collect();
            for ep in &kills {
                net.faults_mut().kill(eps[*ep as usize]);
            }
            let mut set = 0u64;
            let mut cancelled = 0u64;
            for (i, (owner, after)) in timers.iter().enumerate() {
                let id = net.set_timer(
                    eps[*owner as usize],
                    SimDuration::from_ticks(*after),
                    i as u64,
                );
                set += 1;
                if i % cancel_every == 0 {
                    net.cancel_timer(id);
                    cancelled += 1;
                }
            }
            for (i, (from, to)) in sends.iter().enumerate() {
                net.send(eps[*from as usize], eps[*to as usize], i);
            }
            let mut fired = 0u64;
            let mut delivered = 0u64;
            while let Some(ev) = net.step_event() {
                match ev {
                    NetEvent::Timer(_) => fired += 1,
                    NetEvent::Delivery(_) => delivered += 1,
                }
            }
            let m = net.metrics();
            prop_assert_eq!(m.timers_set, set);
            prop_assert_eq!(m.timers_cancelled, cancelled);
            prop_assert_eq!(m.timers_fired, fired);
            prop_assert!(fired + cancelled <= set, "rest suppressed by dead owners");
            // Nothing is queued, and no live or cancelled timer is left
            // behind in the bookkeeping.
            prop_assert!(net.next_due().is_none());
            prop_assert!(net.live_timers.is_empty() && net.cancelled_timers.is_empty());
            prop_assert_eq!(
                m.messages_delivered + m.messages_dropped,
                m.messages_sent
            );
            prop_assert_eq!(m.messages_delivered, delivered);
        }
    }
}

#[cfg(test)]
mod trace_tests {
    use super::tests::next_delivery;
    use super::*;
    use crate::trace::TraceKind;

    #[test]
    fn tracing_records_send_and_delivery() {
        let mut n: Network<u8> = Network::new(LatencyModel::constant(1), 1);
        n.enable_tracing(16);
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        n.send(a, b, 1);
        next_delivery(&mut n);
        let kinds: Vec<TraceKind> = n.trace().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![TraceKind::Sent, TraceKind::Delivered]);
    }

    #[test]
    fn tracing_records_drops() {
        let mut n: Network<u8> = Network::new(LatencyModel::constant(1), 1);
        n.enable_tracing(16);
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        n.faults_mut().kill(b);
        n.send(a, b, 1);
        assert!(next_delivery(&mut n).is_none());
        let dropped = n.trace().filter(|e| e.kind == TraceKind::Dropped);
        assert_eq!(dropped.count(), 1);
    }

    #[test]
    fn tracing_disabled_by_default() {
        let mut n: Network<u8> = Network::new(LatencyModel::constant(1), 1);
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        n.send(a, b, 1);
        next_delivery(&mut n);
        assert_eq!(n.trace().count(), 0);
    }
}
