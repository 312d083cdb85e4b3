//! # hyperdex-simnet
//!
//! A deterministic discrete-event network simulation substrate.
//!
//! The evaluation in *Keyword Search in DHT-based Peer-to-Peer Networks*
//! (Joung, Fang & Yang, ICDCS 2005) is simulation-based: it counts the
//! number of nodes contacted and messages exchanged by the index scheme.
//! This crate provides the machinery those measurements rest on:
//!
//! * [`rng`] — a seeded, dependency-free PRNG (xoshiro256++) so every
//!   experiment is bit-reproducible from a `u64` seed.
//! * [`time`] — virtual simulation time ([`SimTime`], [`SimDuration`]).
//! * [`event`] — a deterministic event queue with stable FIFO tie-breaking.
//! * [`latency`] — pluggable link-latency models.
//! * [`net`] — an in-memory message-passing network between endpoints with
//!   per-message accounting, stepped one event at a time
//!   ([`net::Network::step_event`]: deliveries and timers in time order).
//! * [`fault`] — crash/recovery schedules and probabilistic message loss.
//! * [`churn`] — seeded membership-change schedules (joins, graceful
//!   leaves, crashes) for the index handoff and repair experiments.
//! * [`metrics`] — counters and histograms used by the experiment harness.
//!
//! # Example
//!
//! ```
//! use hyperdex_simnet::net::{NetEvent, Network};
//! use hyperdex_simnet::latency::LatencyModel;
//!
//! let mut net: Network<&'static str> = Network::new(LatencyModel::constant(1), 42);
//! let a = net.add_endpoint();
//! let b = net.add_endpoint();
//! net.send(a, b, "hello");
//! let mut delivered = 0;
//! while let Some(event) = net.step_event() {
//!     let NetEvent::Delivery(d) = event else { unreachable!("no timer is set") };
//!     assert_eq!((d.to, d.payload), (b, "hello"));
//!     delivered += 1;
//! }
//! assert_eq!(delivered, 1);
//! assert_eq!(net.metrics().messages_sent.get(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod event;
pub mod fault;
pub mod latency;
pub mod metrics;
pub mod net;
pub mod rng;
pub mod time;
pub mod trace;

pub use churn::{ChurnConfig, ChurnEvent, ChurnKind, ChurnPlan};
pub use event::EventQueue;
pub use fault::FaultPlan;
pub use latency::LatencyModel;
pub use metrics::{Counter, Histogram, NetMetrics};
pub use net::{EndpointId, Network};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
