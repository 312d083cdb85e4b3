//! Property-based tests for the simulation substrate.

use hyperdex_simnet::latency::LatencyModel;
use hyperdex_simnet::net::{EndpointId, NetEvent, Network};
use hyperdex_simnet::rng::SimRng;
use hyperdex_simnet::time::{SimDuration, SimTime};
use hyperdex_simnet::trace::TraceKind;
use hyperdex_simnet::EventQueue;
use proptest::prelude::*;

/// Registers `n` endpoints on `net`, returning their ids.
fn endpoints(net: &mut Network<usize>, n: usize) -> Vec<EndpointId> {
    (0..n).map(|_| net.add_endpoint()).collect()
}

/// Steps `net` to quiescence, returning how many messages it delivered
/// (these networks arm no timers).
fn deliver_all(net: &mut Network<usize>) -> u64 {
    let mut delivered = 0;
    while let Some(event) = net.step_event() {
        assert!(matches!(event, NetEvent::Delivery(_)), "no timer is set");
        delivered += 1;
    }
    delivered
}

proptest! {
    /// Events always pop in non-decreasing time order, whatever the
    /// scheduling order.
    #[test]
    fn event_queue_monotone(delays in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, d) in delays.iter().enumerate() {
            q.schedule_at(SimTime::from_ticks(*d), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
        }
    }

    /// Same-instant events preserve scheduling order (stable FIFO).
    #[test]
    fn event_queue_fifo_within_tick(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule_at(SimTime::from_ticks(7), i);
        }
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        prop_assert_eq!(popped, (0..n).collect::<Vec<_>>());
    }

    /// gen_range never exceeds its bound and hits both halves of the
    /// domain over enough draws.
    #[test]
    fn rng_range_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..64 {
            prop_assert!(rng.gen_range(bound) < bound);
        }
    }

    /// Identical seeds give identical streams; shuffles are permutations.
    #[test]
    fn rng_shuffle_permutes(seed in any::<u64>(), len in 0usize..64) {
        let mut rng = SimRng::new(seed);
        let mut v: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
    }

    /// Every sent message is exactly once delivered or dropped, and the
    /// simulation reaches quiescence.
    #[test]
    fn network_conservation(
        seed in any::<u64>(),
        sends in prop::collection::vec((0u64..8, 0u64..8), 0..200),
        drop_p in 0.0f64..1.0,
    ) {
        let mut net: Network<usize> = Network::new(LatencyModel::uniform(1, 5), seed);
        let eps = endpoints(&mut net, 8);
        net.faults_mut().set_drop_probability(drop_p);
        for (i, (from, to)) in sends.iter().enumerate() {
            net.send(eps[*from as usize], eps[*to as usize], i);
        }
        let delivered = deliver_all(&mut net);
        let m = net.metrics();
        prop_assert_eq!(m.messages_sent, sends.len() as u64);
        prop_assert_eq!(delivered + m.messages_dropped, sends.len() as u64);
        prop_assert!(net.next_due().is_none());
    }

    /// Under *any* seed, fault plan (link loss and permanent kills),
    /// and latency model, every sent message is
    /// exactly once delivered or dropped — and the trace agrees with
    /// the counters event for event.
    #[test]
    fn conservation_with_trace_agreement(
        seed in any::<u64>(),
        sends in prop::collection::vec((0u64..8, 0u64..8), 0..150),
        drop_p in 0.0f64..1.0,
        latency_kind in 0u8..2,
        kills in prop::collection::vec(0u64..8, 0..3),
    ) {
        let latency = match latency_kind {
            0 => LatencyModel::constant(2),
            _ => LatencyModel::uniform(1, 9),
        };
        let mut net: Network<usize> = Network::new(latency, seed);
        let eps = endpoints(&mut net, 8);
        net.enable_tracing(4096);
        net.faults_mut().set_drop_probability(drop_p);
        for ep in &kills {
            net.faults_mut().kill(eps[*ep as usize]);
        }
        for (i, (from, to)) in sends.iter().enumerate() {
            net.send(eps[*from as usize], eps[*to as usize], i);
        }
        let delivered = deliver_all(&mut net);
        let m = *net.metrics();
        prop_assert_eq!(m.messages_sent, sends.len() as u64);
        prop_assert_eq!(m.messages_delivered, delivered);
        prop_assert_eq!(
            m.messages_delivered + m.messages_dropped,
            m.messages_sent
        );
        prop_assert!(net.next_due().is_none());
        // Trace agreement: the buffer is large enough to hold every
        // event (≤ 3 per send), so per-kind counts must equal counters.
        let of_kind = |kind| net.trace().filter(|e| e.kind == kind).count() as u64;
        prop_assert_eq!(of_kind(TraceKind::Sent), m.messages_sent);
        prop_assert_eq!(of_kind(TraceKind::Delivered), m.messages_delivered);
        prop_assert_eq!(of_kind(TraceKind::Dropped), m.messages_dropped);
    }

    /// Latency samples respect each model's support.
    #[test]
    fn latency_support(seed in any::<u64>(), lo in 0u64..50, span in 0u64..50) {
        let mut rng = SimRng::new(seed);
        let hi = lo + span;
        let m = LatencyModel::uniform(lo, hi);
        for _ in 0..32 {
            let t = m.sample(&mut rng).ticks();
            prop_assert!(t >= lo && t <= hi);
        }
    }

    /// SimTime arithmetic: (t + d) since t == d.
    #[test]
    fn time_roundtrip(t in 0u64..u64::MAX / 2, d in 0u64..u64::MAX / 2) {
        let t0 = SimTime::from_ticks(t);
        let dur = SimDuration::from_ticks(d);
        prop_assert_eq!((t0 + dur).saturating_since(t0), dur);
    }
}
