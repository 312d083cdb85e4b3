//! Direct DHT hashing — the `DHT-r` load-balance reference of Figure 6.
//!
//! "A typical DHT network hashes objects (by their names) to determine
//! their handling nodes, as well as to balance load. So the reference
//! lines provide a guideline to see if our index scheme can achieve the
//! load balance of regular DHT networks." This is *not* a keyword index;
//! it only answers how evenly `|O|` objects spread over `2^r` nodes
//! under a uniform hash.

use std::collections::HashMap;

use hyperdex_dht::keyhash::stable_hash_u64;
use hyperdex_dht::ObjectId;

use crate::error::Error;

/// Seed-space tag separating direct placement from other hash families.
const DIRECT_SEED_TAG: u64 = 0x4448_5452; // "DHTR"

/// Uniform object→node placement over `2^r` logical nodes.
///
/// # Example
///
/// ```
/// use hyperdex_core::baseline::DirectHashPlacement;
/// use hyperdex_core::ObjectId;
///
/// let mut dht = DirectHashPlacement::new(10, 0)?;
/// let node = dht.insert(ObjectId::from_raw(7));
/// assert_eq!(dht.node_loads(), vec![(node, 1)]);
/// # Ok::<(), hyperdex_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct DirectHashPlacement {
    r: u8,
    seed: u64,
    loads: HashMap<u64, usize>,
}

impl DirectHashPlacement {
    /// Creates a placement over `2^r` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Dimension`] unless `1 ≤ r ≤ 63`.
    pub fn new(r: u8, seed: u64) -> Result<Self, Error> {
        hyperdex_hypercube::Shape::new(r)?;
        Ok(DirectHashPlacement {
            r,
            seed,
            loads: HashMap::new(),
        })
    }

    /// The node `object` hashes to.
    pub fn node_for(&self, object: ObjectId) -> u64 {
        stable_hash_u64(object.raw(), self.seed ^ DIRECT_SEED_TAG) % (1u64 << self.r)
    }

    /// Places one object; returns its node.
    pub fn insert(&mut self, object: ObjectId) -> u64 {
        let node = self.node_for(object);
        *self.loads.entry(node).or_insert(0) += 1;
        node
    }

    /// Storage load per non-empty node — the `DHT-r` series.
    pub fn node_loads(&self) -> Vec<(u64, usize)> {
        self.loads
            .iter()
            .map(|(&node, &load)| (node, load))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic() {
        let d = DirectHashPlacement::new(10, 1).unwrap();
        let obj = ObjectId::from_raw(99);
        assert_eq!(d.node_for(obj), d.node_for(obj));
    }

    #[test]
    fn loads_sum_to_object_count() {
        let mut d = DirectHashPlacement::new(8, 0).unwrap();
        for i in 0..500 {
            d.insert(ObjectId::from_raw(i));
        }
        let total: usize = d.node_loads().iter().map(|&(_, l)| l).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn spread_is_roughly_uniform() {
        let mut d = DirectHashPlacement::new(6, 0).unwrap(); // 64 nodes
        for i in 0..6400 {
            d.insert(ObjectId::from_raw(i));
        }
        // Mean 100/node: every node should be populated and no node
        // should exceed ~2x the mean under a uniform hash.
        let loads = d.node_loads();
        assert_eq!(loads.len(), 64);
        let max = loads.iter().map(|&(_, l)| l).max().unwrap();
        assert!(max < 200, "max load {max}");
    }

    #[test]
    fn nodes_within_range() {
        let mut d = DirectHashPlacement::new(4, 7).unwrap();
        for i in 0..100 {
            assert!(d.insert(ObjectId::from_raw(i)) < 16);
        }
    }
}
