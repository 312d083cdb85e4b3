//! Membership churn schedules: seeded join/leave/crash plans.
//!
//! Where [`crate::fault::FaultPlan`] describes *availability* (an endpoint
//! that is silent for good), a [`ChurnPlan`] describes
//! *membership*: nodes that arrive and depart, changing who owns which
//! slice of the key space. The paper's one-node insert/delete claim
//! (§3.2) only matters if the index survives such movement; the churn
//! experiments drive the handoff and repair protocol through this module.
//!
//! A plan is a time-ordered list of [`ChurnEvent`]s over raw node ids
//! (`u64`). The simnet layer knows nothing about rings or DHT node ids;
//! higher layers map the raw ids onto whatever identity space they use.

use crate::rng::SimRng;
use crate::time::SimTime;

/// What happens to a node at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// A new node joins the overlay and must take over its key range.
    Join,
    /// A node announces departure and hands its index entries off first.
    GracefulLeave,
    /// A node vanishes without warning; its primary postings are lost
    /// until replica repair restores them.
    Crash,
}

/// One scheduled membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// When the change occurs.
    pub at: SimTime,
    /// The raw node id affected.
    pub node: u64,
    /// The kind of change.
    pub kind: ChurnKind,
}

/// Parameters for [`ChurnPlan::generate`].
///
/// Rates are expressed per 1000 ticks of virtual time so that typical
/// experiment horizons (a few thousand ticks) yield single-digit to
/// double-digit event counts at rate 1–10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// End of the generation window; events land in `(0, horizon)`.
    pub horizon: SimTime,
    /// Expected membership events per 1000 ticks. `0.0` yields an empty
    /// plan (a frozen membership).
    pub events_per_kilotick: f64,
    /// Probability that an event is a join (vs. a departure).
    pub join_fraction: f64,
    /// Probability that a departure is graceful (vs. a crash).
    pub graceful_fraction: f64,
}

impl ChurnConfig {
    /// Validates the configuration, returning a human-readable reason on
    /// failure.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.horizon == SimTime::ZERO {
            return Err("horizon must be positive");
        }
        if self.events_per_kilotick.is_nan()
            || self.events_per_kilotick < 0.0
            || !self.events_per_kilotick.is_finite()
        {
            return Err("events_per_kilotick must be finite and non-negative");
        }
        if !(0.0..=1.0).contains(&self.join_fraction) {
            return Err("join_fraction must be in [0,1]");
        }
        if !(0.0..=1.0).contains(&self.graceful_fraction) {
            return Err("graceful_fraction must be in [0,1]");
        }
        Ok(())
    }
}

/// A time-ordered schedule of membership changes.
///
/// Events may be added manually ([`ChurnPlan::join_at`] and friends) or
/// drawn from seeded distributions ([`ChurnPlan::generate`]). Iteration
/// order is by time, ties broken by insertion order — the same stable
/// discipline as the event queue.
///
/// # Example
///
/// ```
/// use hyperdex_simnet::churn::{ChurnKind, ChurnPlan};
/// use hyperdex_simnet::time::SimTime;
///
/// let mut plan = ChurnPlan::new();
/// plan.crash_at(SimTime::from_ticks(50), 3);
/// plan.join_at(SimTime::from_ticks(10), 7);
/// let order: Vec<u64> = plan.events().iter().map(|e| e.node).collect();
/// assert_eq!(order, vec![7, 3]);
/// assert_eq!(plan.events()[1].kind, ChurnKind::Crash);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// Creates an empty plan (frozen membership).
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, at: SimTime, node: u64, kind: ChurnKind) {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, ChurnEvent { at, node, kind });
    }

    /// Schedules `node` to join at `at`.
    pub fn join_at(&mut self, at: SimTime, node: u64) {
        self.push(at, node, ChurnKind::Join);
    }

    /// Schedules `node` to leave gracefully (handing off its entries) at
    /// `at`.
    pub fn leave_at(&mut self, at: SimTime, node: u64) {
        self.push(at, node, ChurnKind::GracefulLeave);
    }

    /// Schedules `node` to crash (no handoff) at `at`.
    pub fn crash_at(&mut self, at: SimTime, node: u64) {
        self.push(at, node, ChurnKind::Crash);
    }

    /// The scheduled events in time order.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Draws a plan from seeded distributions.
    ///
    /// Event instants are uniform over `(0, horizon)`; each event is a
    /// join with probability `join_fraction`, otherwise a departure,
    /// graceful with probability `graceful_fraction`. The generator
    /// tracks the live set so departures always target a currently live
    /// node (never the last one — an empty overlay has no owner for any
    /// key) and joins always introduce a fresh id above every initial
    /// member.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ChurnConfig::validate`] or
    /// `initial_members` is empty.
    pub fn generate(cfg: &ChurnConfig, initial_members: &[u64], seed: u64) -> Self {
        cfg.validate().expect("invalid churn config");
        assert!(
            !initial_members.is_empty(),
            "need at least one initial member"
        );
        let mut rng = SimRng::new(seed ^ 0xC0FF_EE00_C4A8_0001);
        let horizon = cfg.horizon.ticks();
        let expected = cfg.events_per_kilotick * horizon as f64 / 1000.0;
        // Deterministic count: round the expectation rather than sampling
        // a Poisson, so churn rate maps 1:1 onto event count.
        let count = expected.round() as usize;

        let mut times: Vec<u64> = (0..count)
            .map(|_| 1 + rng.gen_range(horizon.saturating_sub(1).max(1)))
            .collect();
        times.sort_unstable();

        let mut live: Vec<u64> = initial_members.to_vec();
        live.sort_unstable();
        live.dedup();
        let mut next_fresh = live.iter().copied().max().unwrap_or(0) + 1;

        let mut plan = ChurnPlan::new();
        for t in times {
            let at = SimTime::from_ticks(t);
            if rng.chance(cfg.join_fraction) || live.len() <= 1 {
                let node = next_fresh;
                next_fresh += 1;
                live.push(node);
                plan.join_at(at, node);
            } else {
                let idx = rng.gen_index(live.len());
                let node = live.swap_remove(idx);
                if rng.chance(cfg.graceful_fraction) {
                    plan.leave_at(at, node);
                } else {
                    plan.crash_at(at, node);
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four thousand ticks, two events a kilotick, half joins, half of
    /// the departures graceful.
    fn config() -> ChurnConfig {
        ChurnConfig {
            horizon: SimTime::from_ticks(4000),
            events_per_kilotick: 2.0,
            join_fraction: 0.5,
            graceful_fraction: 0.5,
        }
    }

    fn t(n: u64) -> SimTime {
        SimTime::from_ticks(n)
    }

    #[test]
    fn manual_events_sorted_by_time() {
        let mut plan = ChurnPlan::new();
        plan.crash_at(t(30), 1);
        plan.join_at(t(10), 2);
        plan.leave_at(t(20), 3);
        let order: Vec<(u64, u64)> = plan
            .events()
            .iter()
            .map(|e| (e.at.ticks(), e.node))
            .collect();
        assert_eq!(order, vec![(10, 2), (20, 3), (30, 1)]);
    }

    #[test]
    fn same_instant_preserves_insertion_order() {
        let mut plan = ChurnPlan::new();
        plan.join_at(t(5), 1);
        plan.join_at(t(5), 2);
        plan.join_at(t(5), 3);
        let order: Vec<u64> = plan.events().iter().map(|e| e.node).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn generate_is_deterministic() {
        let cfg = config();
        let members: Vec<u64> = (0..16).collect();
        let a = ChurnPlan::generate(&cfg, &members, 42);
        let b = ChurnPlan::generate(&cfg, &members, 42);
        assert_eq!(a, b);
        let c = ChurnPlan::generate(&cfg, &members, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn generate_rate_zero_is_empty() {
        let cfg = ChurnConfig {
            events_per_kilotick: 0.0,
            ..config()
        };
        let plan = ChurnPlan::generate(&cfg, &[1, 2, 3], 7);
        assert!(plan.events().is_empty());
    }

    #[test]
    fn generate_count_tracks_rate() {
        let cfg = ChurnConfig {
            horizon: t(4000),
            events_per_kilotick: 3.0,
            ..config()
        };
        let plan = ChurnPlan::generate(&cfg, &[1, 2, 3, 4], 5);
        assert_eq!(plan.events().len(), 12, "3 per kilotick over 4000 ticks");
    }

    #[test]
    fn generate_departures_target_live_nodes() {
        let cfg = ChurnConfig {
            horizon: t(10_000),
            events_per_kilotick: 5.0,
            join_fraction: 0.3,
            graceful_fraction: 0.5,
        };
        let initial: Vec<u64> = (0..8).collect();
        let plan = ChurnPlan::generate(&cfg, &initial, 99);
        let mut live: Vec<u64> = initial.clone();
        for ev in plan.events() {
            match ev.kind {
                ChurnKind::Join => {
                    assert!(!live.contains(&ev.node), "join of a live node");
                    live.push(ev.node);
                }
                ChurnKind::GracefulLeave | ChurnKind::Crash => {
                    let pos = live
                        .iter()
                        .position(|&n| n == ev.node)
                        .expect("departure of a dead node");
                    live.remove(pos);
                    assert!(!live.is_empty(), "plan emptied the overlay");
                }
            }
        }
    }

    #[test]
    fn generate_joins_use_fresh_ids() {
        let cfg = ChurnConfig {
            join_fraction: 1.0,
            ..config()
        };
        let plan = ChurnPlan::generate(&cfg, &[10, 20], 1);
        let ids: Vec<u64> = plan.events().iter().map(|e| e.node).collect();
        assert!(
            ids.iter().all(|&n| n > 20),
            "fresh ids above initial members"
        );
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "fresh ids are distinct");
    }

    #[test]
    fn generate_events_within_horizon() {
        let cfg = ChurnConfig {
            horizon: t(500),
            events_per_kilotick: 20.0,
            ..config()
        };
        let plan = ChurnPlan::generate(&cfg, &[1, 2], 3);
        assert!(plan
            .events()
            .iter()
            .all(|e| e.at > SimTime::ZERO && e.at < t(500)));
    }

    #[test]
    #[should_panic(expected = "invalid churn config")]
    fn generate_rejects_bad_config() {
        let cfg = ChurnConfig {
            join_fraction: 1.5,
            ..config()
        };
        ChurnPlan::generate(&cfg, &[1], 0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn generate_rejects_empty_membership() {
        ChurnPlan::generate(&config(), &[], 0);
    }

    #[test]
    fn config_validation() {
        assert!(config().validate().is_ok());
        let bad = ChurnConfig {
            events_per_kilotick: f64::NAN,
            ..config()
        };
        assert!(bad.validate().is_err());
        let bad = ChurnConfig {
            horizon: SimTime::ZERO,
            ..config()
        };
        assert!(bad.validate().is_err());
        let bad = ChurnConfig {
            graceful_fraction: -0.1,
            ..config()
        };
        assert!(bad.validate().is_err());
    }
}
