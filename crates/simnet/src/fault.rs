//! Fault injection: endpoint crashes and message loss.
//!
//! §3.4 of the paper argues that the hypercube scheme tolerates node
//! failures because a keyword is spread over many index nodes. The
//! fault-tolerance experiments drive that claim through this module.

use crate::net::EndpointId;
use crate::rng::SimRng;

/// A set of crashed endpoints plus an optional uniform message-drop
/// probability.
///
/// A crashed endpoint neither receives nor emits messages, and never
/// recovers.
///
/// # Example
///
/// ```
/// use hyperdex_simnet::fault::FaultPlan;
/// use hyperdex_simnet::latency::LatencyModel;
/// use hyperdex_simnet::net::Network;
///
/// let ep = Network::<()>::new(LatencyModel::constant(1), 0).add_endpoint();
/// let mut plan = FaultPlan::new();
/// assert!(plan.is_up(ep));
/// plan.kill(ep);
/// assert!(!plan.is_up(ep));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    drop_probability: f64,
    permanently_down: Vec<EndpointId>,
}

impl FaultPlan {
    /// Creates an empty plan: every endpoint up, no message loss.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `ep` as crashed forever (never recovers).
    pub fn kill(&mut self, ep: EndpointId) {
        if !self.permanently_down.contains(&ep) {
            self.permanently_down.push(ep);
        }
    }

    /// Sets a uniform probability in `[0, 1]` that any message is lost in
    /// transit.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn set_drop_probability(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.drop_probability = p;
    }

    /// Whether `ep` is alive.
    pub fn is_up(&self, ep: EndpointId) -> bool {
        !self.permanently_down.contains(&ep)
    }

    /// Decides whether a message sent at `now` should be dropped.
    ///
    /// A message is dropped when the link loses it (probabilistic) — the
    /// network separately checks that the *destination* is up on delivery.
    pub fn should_drop(&self, rng: &mut SimRng) -> bool {
        self.drop_probability > 0.0 && rng.chance(self.drop_probability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(n: u64) -> EndpointId {
        EndpointId(n)
    }

    #[test]
    fn default_everything_up() {
        let plan = FaultPlan::new();
        assert!(plan.is_up(ep(0)));
        assert!(plan.is_up(ep(99)));
    }

    #[test]
    fn kill_is_permanent() {
        let mut plan = FaultPlan::new();
        plan.kill(ep(2));
        plan.kill(ep(2)); // idempotent
        assert!(!plan.is_up(ep(2)));
        assert!(plan.is_up(ep(1)));
        assert_eq!(plan.permanently_down, [ep(2)]);
    }

    #[test]
    fn drop_probability_zero_never_drops() {
        let plan = FaultPlan::new();
        let mut rng = SimRng::new(1);
        assert!((0..100).all(|_| !plan.should_drop(&mut rng)));
    }

    #[test]
    fn drop_probability_one_always_drops() {
        let mut plan = FaultPlan::new();
        plan.set_drop_probability(1.0);
        let mut rng = SimRng::new(1);
        assert!((0..100).all(|_| plan.should_drop(&mut rng)));
    }

    #[test]
    fn drop_probability_partial() {
        let mut plan = FaultPlan::new();
        plan.set_drop_probability(0.5);
        let mut rng = SimRng::new(2);
        let drops = (0..10_000).filter(|_| plan.should_drop(&mut rng)).count();
        assert!((4_000..6_000).contains(&drops), "drops {drops}");
    }

    #[test]
    #[should_panic(expected = "[0,1]")]
    fn bad_probability_panics() {
        FaultPlan::new().set_drop_probability(1.5);
    }
}
