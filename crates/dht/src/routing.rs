//! Greedy finger routing.
//!
//! [`Router`] materializes the finger tables of every live node and
//! computes hop-by-hop lookup paths. The DOLR operations route through
//! it, and the experiment harness uses its hop counts wherever the
//! paper's cost model charges "one lookup in the DHT overlay".

use std::collections::HashMap;

use crate::finger::FingerTable;
use crate::id::NodeId;
use crate::ring::Ring;

/// Routing state for a whole ring: one finger table per live node.
///
/// Rebuild after churn with [`Router::rebuild`] — the simulation
/// equivalent of Chord stabilization having converged.
///
/// # Example
///
/// ```
/// use hyperdex_dht::{NodeId, Ring, Router};
///
/// let mut ring = Ring::new();
/// for i in 0..32 {
///     ring.join(NodeId::from_raw(i << 58));
/// }
/// let router = Router::build(&ring);
/// let from = NodeId::from_raw(0);
/// let path = router.path(from, NodeId::from_raw(u64::MAX / 3));
/// assert!(path.len() <= 6, "O(log n) hops, got {}", path.len());
/// ```
#[derive(Debug, Clone)]
pub struct Router {
    ring: Ring,
    tables: HashMap<NodeId, FingerTable>,
}

impl Router {
    /// Builds routing state for every member of `ring`.
    pub fn build(ring: &Ring) -> Self {
        let tables = ring
            .iter()
            .map(|n| (n, FingerTable::build(n, ring)))
            .collect();
        Router {
            ring: ring.clone(),
            tables,
        }
    }

    /// Rebuilds all tables from a new ring view.
    pub fn rebuild(&mut self, ring: &Ring) {
        *self = Router::build(ring);
    }

    /// The greedy lookup path from `from` to the surrogate of `key`,
    /// inclusive of both endpoints.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty or `from` is not a member.
    pub fn path(&self, from: NodeId, key: NodeId) -> Vec<NodeId> {
        let dest = self
            .ring
            .surrogate(key)
            .expect("cannot route on an empty ring");
        assert!(
            self.tables.contains_key(&from),
            "routing from non-member node {from}"
        );
        let mut path = vec![from];
        let mut cur = from;
        while cur != dest {
            let succ = self.ring.successor(cur).expect("members have successors");
            let next = if key.in_interval(cur, succ) {
                // The successor owns the key: final hop.
                succ
            } else {
                self.tables[&cur].closest_preceding(key).unwrap_or(succ)
            };
            cur = next;
            path.push(cur);
            assert!(
                path.len() <= self.ring.len() + 1,
                "routing loop towards {key} via {path:?}"
            );
        }
        path
    }

    /// Number of overlay hops from `from` to the surrogate of `key`
    /// (0 when `from` already owns the key).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty or `from` is not a member.
    pub fn hops(&self, from: NodeId, key: NodeId) -> usize {
        self.path(from, key).len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyhash::stable_hash_u64;

    fn id(n: u64) -> NodeId {
        NodeId::from_raw(n)
    }

    /// A ring of `n` pseudo-random node ids.
    fn random_ring(n: u64, seed: u64) -> Ring {
        let mut ring = Ring::new();
        for i in 0..n {
            ring.join(id(stable_hash_u64(i, seed)));
        }
        ring
    }

    #[test]
    fn path_starts_and_ends_correctly() {
        let ring = random_ring(50, 1);
        let router = Router::build(&ring);
        let from = ring.iter().next().unwrap();
        let key = id(0xDEAD_BEEF);
        let path = router.path(from, key);
        assert_eq!(path[0], from);
        assert_eq!(*path.last().unwrap(), ring.surrogate(key).unwrap());
    }

    #[test]
    fn path_to_own_key_is_trivial() {
        let ring = random_ring(10, 2);
        let router = Router::build(&ring);
        let node = ring.iter().next().unwrap();
        assert_eq!(router.path(node, node), vec![node]);
        assert_eq!(router.hops(node, node), 0);
    }

    #[test]
    fn hops_are_logarithmic() {
        let ring = random_ring(1024, 3);
        let router = Router::build(&ring);
        let members: Vec<NodeId> = ring.iter().collect();
        let mut max_hops = 0;
        for i in 0..200u64 {
            let from = members[(i as usize * 5) % members.len()];
            let key = id(stable_hash_u64(i, 99));
            max_hops = max_hops.max(router.hops(from, key));
        }
        // log2(1024) = 10; greedy Chord stays within ~2x.
        assert!(max_hops <= 20, "max hops {max_hops}");
        assert!(max_hops >= 2, "suspiciously short paths");
    }

    #[test]
    fn all_pairs_reachable_small_ring() {
        let ring = random_ring(16, 4);
        let router = Router::build(&ring);
        let members: Vec<NodeId> = ring.iter().collect();
        for &from in &members {
            for &to in &members {
                let path = router.path(from, to);
                assert_eq!(*path.last().unwrap(), to, "surrogate of a member is itself");
            }
        }
    }

    #[test]
    fn hops_strictly_progress() {
        let ring = random_ring(128, 5);
        let router = Router::build(&ring);
        let from = ring.iter().next().unwrap();
        let key = id(u64::MAX / 7);
        let path = router.path(from, key);
        // Remaining clockwise distance decreases monotonically until the
        // final hop (which may overshoot onto the surrogate).
        for w in path.windows(2).take(path.len().saturating_sub(2)) {
            assert!(
                w[1].clockwise_distance(key) < w[0].clockwise_distance(key),
                "no progress at {w:?}"
            );
        }
    }

    #[test]
    fn rebuild_after_churn() {
        let mut ring = random_ring(32, 6);
        let mut router = Router::build(&ring);
        let victim = ring.iter().nth(3).unwrap();
        ring.leave(victim);
        router.rebuild(&ring);
        let from = ring.iter().next().unwrap();
        let path = router.path(from, victim);
        // The victim's keys now route to its old successor.
        assert_eq!(*path.last().unwrap(), ring.surrogate(victim).unwrap());
        assert!(!path.contains(&victim));
    }

    #[test]
    #[should_panic(expected = "non-member")]
    fn routing_from_non_member_panics() {
        let ring = random_ring(4, 7);
        let router = Router::build(&ring);
        router.path(id(12345), id(1));
    }

    #[test]
    fn single_node_routes_to_itself() {
        let mut ring = Ring::new();
        ring.join(id(9));
        let router = Router::build(&ring);
        assert_eq!(router.path(id(9), id(12345)), vec![id(9)]);
    }
}
