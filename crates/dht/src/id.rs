//! Ring identifiers.
//!
//! The paper's model assigns every node an `a`-bit identifier; we fix
//! `a = 64`, which is "much larger than the actual number of nodes" as
//! §2.1 requires, making ID collisions negligible and surrogate routing
//! the common case.

use std::fmt;

/// A point on the 64-bit identifier ring.
///
/// Both nodes and keys live in the same space; a key is *owned* by its
/// ring successor (the first live node clockwise from it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u64);

impl NodeId {
    /// Creates an id from its raw 64-bit value.
    pub const fn from_raw(raw: u64) -> Self {
        NodeId(raw)
    }

    /// Clockwise distance from `self` to `other` (how far to travel
    /// forward around the ring).
    pub const fn clockwise_distance(self, other: NodeId) -> u64 {
        other.0.wrapping_sub(self.0)
    }

    /// The id `2^k` positions clockwise — the `k`-th finger target.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ 64`.
    pub const fn finger_target(self, k: u8) -> NodeId {
        assert!(k < 64, "finger index out of range");
        NodeId(self.0.wrapping_add(1u64 << k))
    }

    /// Whether `self` lies in the half-open clockwise interval
    /// `(from, to]`.
    ///
    /// This is the Chord ownership test: key `x` belongs to node `n`
    /// iff `x ∈ (predecessor(n), n]`.
    pub fn in_interval(self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            // The interval spans the whole ring.
            true
        } else {
            from.clockwise_distance(self) <= from.clockwise_distance(to) && self != from
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> NodeId {
        NodeId::from_raw(n)
    }

    #[test]
    fn clockwise_distance_wraps() {
        assert_eq!(id(10).clockwise_distance(id(15)), 5);
        assert_eq!(id(15).clockwise_distance(id(10)), u64::MAX - 4);
        assert_eq!(id(7).clockwise_distance(id(7)), 0);
    }

    #[test]
    fn finger_targets_double() {
        let n = id(100);
        assert_eq!(n.finger_target(0), id(101));
        assert_eq!(n.finger_target(3), id(108));
        assert_eq!(n.finger_target(63), id(100u64.wrapping_add(1 << 63)));
    }

    #[test]
    fn finger_target_wraps_ring() {
        let n = id(u64::MAX);
        assert_eq!(n.finger_target(0), id(0));
    }

    #[test]
    fn interval_simple() {
        assert!(id(5).in_interval(id(3), id(8)));
        assert!(id(8).in_interval(id(3), id(8)), "to end inclusive");
        assert!(!id(3).in_interval(id(3), id(8)), "from end exclusive");
        assert!(!id(9).in_interval(id(3), id(8)));
    }

    #[test]
    fn interval_wrapping() {
        // (250, 5] on a ring: 251..=255 wraps to 0..=5.
        assert!(id(255).in_interval(id(250), id(5)));
        assert!(id(0).in_interval(id(250), id(5)));
        assert!(id(5).in_interval(id(250), id(5)));
        assert!(!id(100).in_interval(id(250), id(5)));
    }

    #[test]
    fn interval_full_ring() {
        assert!(id(42).in_interval(id(7), id(7)));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(id(255).to_string(), "00000000000000ff");
    }
}
