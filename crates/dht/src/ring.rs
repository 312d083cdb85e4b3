//! The identifier ring and surrogate routing.
//!
//! §2.1: *"if a node v is absent, then the scheme will find an existing
//! node S(v) in V to play the role of v so that every message to v will
//! be automatically routed to S(v)."* Here `S(v)` is the ring successor —
//! the first live node clockwise from `v` — the standard Chord choice.

use std::collections::BTreeSet;

use crate::id::NodeId;

/// The membership view of the identifier ring: the sorted set of live
/// node ids with successor/predecessor/surrogate queries.
///
/// # Example
///
/// ```
/// use hyperdex_dht::{NodeId, Ring};
///
/// let mut ring = Ring::new();
/// ring.join(NodeId::from_raw(10));
/// ring.join(NodeId::from_raw(200));
/// // Key 50 is served by its clockwise successor, node 200.
/// assert_eq!(ring.surrogate(NodeId::from_raw(50)), Some(NodeId::from_raw(200)));
/// // Wrap-around: key 201 is served by node 10.
/// assert_eq!(ring.surrogate(NodeId::from_raw(201)), Some(NodeId::from_raw(10)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ring {
    members: BTreeSet<NodeId>,
}

impl Ring {
    /// Creates an empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node. Returns `false` if it was already present.
    pub fn join(&mut self, id: NodeId) -> bool {
        self.members.insert(id)
    }

    /// Removes a node. Returns `false` if it was not present.
    pub fn leave(&mut self, id: NodeId) -> bool {
        self.members.remove(&id)
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring has no nodes.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Iterates over members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().copied()
    }

    /// The surrogate `S(key)`: the first live node clockwise from `key`
    /// (inclusive), or `None` on an empty ring.
    ///
    /// When `key` itself is a live node, the surrogate is `key`.
    pub fn surrogate(&self, key: NodeId) -> Option<NodeId> {
        self.members
            .range(key..)
            .next()
            .or_else(|| self.members.iter().next())
            .copied()
    }

    /// The successor of a *member*: the next live node strictly
    /// clockwise, wrapping around. Returns `id` itself in a 1-node ring,
    /// or `None` if `id` is not a member or the ring is empty.
    pub fn successor(&self, id: NodeId) -> Option<NodeId> {
        if !self.members.contains(&id) {
            return None;
        }
        self.members
            .range((std::ops::Bound::Excluded(id), std::ops::Bound::Unbounded))
            .next()
            .or_else(|| self.members.iter().next())
            .copied()
    }

    /// The first `k` distinct successors of `id` (the successor list used
    /// for replication). Shorter than `k` on small rings. Returns an
    /// empty list if `id` is not a member.
    pub fn successor_list(&self, id: NodeId, k: usize) -> Vec<NodeId> {
        let mut list = Vec::with_capacity(k);
        let mut cur = id;
        for _ in 0..k {
            match self.successor(cur) {
                Some(next) if next != id => {
                    list.push(next);
                    cur = next;
                }
                _ => break,
            }
        }
        list
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
    fn join_and_leave() {
        let mut r = Ring::new();
        assert!(r.join(id(5)));
        assert!(!r.join(id(5)), "duplicate join");
        assert_eq!(r.iter().collect::<Vec<_>>(), [id(5)]);
        assert!(r.leave(id(5)));
        assert!(!r.leave(id(5)), "double leave");
        assert!(r.is_empty());
    }

    #[test]
    fn surrogate_is_clockwise_successor() {
        let r = ring(&[10, 100, 200]);
        assert_eq!(
            r.surrogate(id(10)),
            Some(id(10)),
            "live node is its own surrogate"
        );
        assert_eq!(r.surrogate(id(11)), Some(id(100)));
        assert_eq!(r.surrogate(id(150)), Some(id(200)));
        assert_eq!(r.surrogate(id(201)), Some(id(10)), "wraps");
        assert_eq!(r.surrogate(id(u64::MAX)), Some(id(10)));
    }

    #[test]
    fn surrogate_empty_ring() {
        assert_eq!(Ring::new().surrogate(id(1)), None);
    }

    #[test]
    fn successor_strictly_clockwise() {
        let r = ring(&[10, 100, 200]);
        assert_eq!(r.successor(id(10)), Some(id(100)));
        assert_eq!(r.successor(id(200)), Some(id(10)), "wraps");
        assert_eq!(r.successor(id(50)), None, "non-member");
    }

    #[test]
    fn successor_single_node() {
        let r = ring(&[7]);
        assert_eq!(r.successor(id(7)), Some(id(7)));
    }

    #[test]
    fn successor_list_distinct() {
        let r = ring(&[1, 2, 3, 4]);
        assert_eq!(r.successor_list(id(1), 2), vec![id(2), id(3)]);
        assert_eq!(
            r.successor_list(id(1), 10),
            vec![id(2), id(3), id(4)],
            "stops before wrapping to self"
        );
        assert!(r.successor_list(id(99), 2).is_empty());
    }
}
