//! Chord finger tables.
//!
//! The `k`-th finger of node `n` is the live node serving id
//! `n + 2^k`. Greedy routing over fingers halves the remaining clockwise
//! distance per hop, giving the `O(log n)` lookups the paper's cost
//! model assumes for each DHT operation.

use crate::id::NodeId;
use crate::ring::Ring;

/// A node's finger table: 64 entries, entry `k` serving `n + 2^k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerTable {
    owner: NodeId,
    fingers: Vec<NodeId>,
}

impl FingerTable {
    /// Builds the finger table for `owner` from the current ring view.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    pub fn build(owner: NodeId, ring: &Ring) -> Self {
        assert!(!ring.is_empty(), "cannot build fingers on an empty ring");
        let fingers = (0..64)
            .map(|k| {
                ring.surrogate(owner.finger_target(k))
                    .expect("non-empty ring")
            })
            .collect();
        FingerTable { owner, fingers }
    }

    /// The best next hop towards `key`: the finger that makes the most
    /// clockwise progress without overshooting past `key`.
    ///
    /// Returns `None` when no finger makes strict progress (the owner is
    /// the last hop before the key's surrogate).
    pub fn closest_preceding(&self, key: NodeId) -> Option<NodeId> {
        let total = self.owner.clockwise_distance(key);
        if total == 0 {
            return None;
        }
        // Scan from the longest finger down; pick the first that lands
        // strictly between owner and key (exclusive of both).
        let mut best: Option<(u64, NodeId)> = None;
        for &f in &self.fingers {
            if f == self.owner {
                continue;
            }
            let progress = self.owner.clockwise_distance(f);
            if progress < total {
                match best {
                    Some((best_progress, _)) if best_progress >= progress => {}
                    _ => best = Some((progress, f)),
                }
            }
        }
        best.map(|(_, f)| f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> NodeId {
        NodeId::from_raw(n)
    }

    fn ring(ids: &[u64]) -> Ring {
        let mut ring = Ring::new();
        for &n in ids {
            ring.join(id(n));
        }
        ring
    }

    #[test]
    fn fingers_are_surrogates_of_doubling_targets() {
        let r = ring(&[0, 1 << 10, 1 << 20, 1 << 40]);
        let ft = FingerTable::build(id(0), &r);
        assert_eq!(ft.fingers[0], id(1 << 10), "0+1 served by 2^10");
        assert_eq!(ft.fingers[10], id(1 << 10));
        assert_eq!(ft.fingers[11], id(1 << 20));
        assert_eq!(ft.fingers[40], id(1 << 40));
        assert_eq!(ft.fingers[63], id(0), "wraps to self");
    }

    #[test]
    #[should_panic(expected = "empty ring")]
    fn empty_ring_panics() {
        FingerTable::build(id(0), &Ring::new());
    }

    #[test]
    fn closest_preceding_makes_progress_without_overshoot() {
        let r = ring(&[0, 100, 1000, 50_000, 1 << 30]);
        let ft = FingerTable::build(id(0), &r);
        let hop = ft.closest_preceding(id(60_000)).unwrap();
        // Must progress beyond 0 but not pass 60000.
        let progress = id(0).clockwise_distance(hop);
        assert!(progress > 0 && progress < 60_000, "hop {hop}");
        assert_eq!(hop, id(50_000), "longest non-overshooting finger");
    }

    #[test]
    fn closest_preceding_none_when_adjacent() {
        let r = ring(&[0, 100]);
        let ft = FingerTable::build(id(0), &r);
        // Key 50: no node strictly inside (0, 50).
        assert_eq!(ft.closest_preceding(id(50)), None);
    }

    #[test]
    fn closest_preceding_zero_distance() {
        let r = ring(&[0, 100]);
        let ft = FingerTable::build(id(0), &r);
        assert_eq!(ft.closest_preceding(id(0)), None);
    }

    #[test]
    fn single_node_ring_all_self() {
        let r = ring(&[42]);
        let ft = FingerTable::build(id(42), &r);
        assert_eq!(ft.closest_preceding(id(7)), None);
    }
}
