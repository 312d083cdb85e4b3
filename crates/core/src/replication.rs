//! Index replication via a secondary hypercube (§3.4).
//!
//! "If one wishes, (index) replication can be done in two ways. One is
//! to deal with it directly in the index layer, for example, by
//! building a **secondary hypercube**." This module is that option: a
//! second [`HypercubeIndex`] whose keyword hash family uses an
//! independent seed, so every object is indexed at two *independently
//! placed* vertices. A failure of any single index node (and, with high
//! probability, any small set of failures) leaves every object
//! reachable through the other cube.
//!
//! Costs double exactly where the paper says they should: insert and
//! delete touch two nodes instead of one; storage doubles; queries pay
//! for the secondary cube only when the primary traversal crossed a
//! failed vertex.

use std::collections::HashSet;

use hyperdex_dht::ObjectId;
use hyperdex_hypercube::Vertex;

use crate::cluster::HypercubeIndex;
use crate::error::Error;
use crate::keyword::KeywordSet;
use crate::search::{SupersetOutcome, SupersetQuery};

/// Seed offset separating the secondary hash family from the primary.
pub(crate) const SECONDARY_SEED_OFFSET: u64 = 0x5EC0_0DA2_CB0E_71CE;

/// A primary + secondary hypercube index with failover search.
///
/// # Example
///
/// ```
/// use hyperdex_core::replication::ReplicatedIndex;
/// use hyperdex_core::{HypercubeIndex, KeywordSet, ObjectId, SupersetQuery};
///
/// let mut idx = ReplicatedIndex::new(8, 0)?;
/// let k = KeywordSet::parse("p2p dht")?;
/// idx.insert(ObjectId::from_raw(1), k.clone())?;
/// // Crash the primary index node for this keyword set (the primary
/// // cube hashes as a plain index of the same `r` and seed):
/// idx.fail_primary(HypercubeIndex::new(8, 0)?.vertex_for(&k));
/// // The object is still found through the secondary cube.
/// assert_eq!(idx.superset_search(&SupersetQuery::new(k))?.results.len(), 1);
/// # Ok::<(), hyperdex_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReplicatedIndex {
    primary: HypercubeIndex,
    secondary: HypercubeIndex,
    failed_primary: HashSet<u64>,
}

impl ReplicatedIndex {
    /// Creates a replicated index over two `r`-dimensional hypercubes
    /// with independent hash families derived from `seed`. The primary
    /// cube is `HypercubeIndex::new(r, seed)`: a plain index of the same
    /// `r` and seed, given the same inserts, holds what it holds where
    /// it holds it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Dimension`] unless `1 ≤ r ≤ 63`.
    pub fn new(r: u8, seed: u64) -> Result<Self, Error> {
        Ok(ReplicatedIndex {
            primary: HypercubeIndex::new(r, seed)?,
            secondary: HypercubeIndex::new(r, seed ^ SECONDARY_SEED_OFFSET)?,
            failed_primary: HashSet::new(),
        })
    }

    /// Indexes an object in both cubes (two node touches — the §3.4
    /// replication cost).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyKeywordSet`] for an empty keyword set.
    pub fn insert(&mut self, object: ObjectId, keywords: KeywordSet) -> Result<(), Error> {
        // Both cubes hold the one buffer.
        self.primary.insert(object, keywords.clone())?;
        self.secondary.insert(object, keywords)?;
        Ok(())
    }

    /// Crashes a primary index node: its entries are lost there.
    pub fn fail_primary(&mut self, vertex: Vertex) {
        self.primary.drop_node(vertex);
        self.failed_primary.insert(vertex.bits());
    }

    /// Crashes a secondary index node.
    pub fn fail_secondary(&mut self, vertex: Vertex) {
        self.secondary.drop_node(vertex);
    }

    /// Superset search with failover: the primary traversal runs first;
    /// if it crossed any failed vertex (so results may be incomplete),
    /// the secondary cube is searched too and the results merged.
    ///
    /// # Errors
    ///
    /// Returns the underlying search errors.
    pub fn superset_search(&mut self, query: &SupersetQuery) -> Result<SupersetOutcome, Error> {
        let mut out = self.primary.superset_search(query)?;
        if !self.primary_traversal_compromised(&query.keywords) {
            return Ok(out);
        }
        let secondary_out = self.secondary.superset_search(query)?;
        // Merge, dedup by object id, respect the threshold.
        let mut seen: HashSet<ObjectId> = out.results.iter().map(|r| r.object).collect();
        for r in secondary_out.results {
            if seen.insert(r.object) {
                out.results.push(r);
            }
        }
        out.results.truncate(query.threshold);
        out.stats.add(&secondary_out.stats);
        out.exhausted = out.exhausted && secondary_out.exhausted;
        Ok(out)
    }

    /// Whether any failed primary vertex lies inside the query's
    /// induced subhypercube (making a primary-only answer possibly
    /// incomplete).
    fn primary_traversal_compromised(&self, keywords: &KeywordSet) -> bool {
        let root = self.primary.vertex_for(keywords);
        let shape = self.primary.shape();
        self.failed_primary.iter().any(|&bits| {
            Vertex::from_bits(shape, bits)
                .map(|v| v.contains(root))
                .unwrap_or(false)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(s: &str) -> KeywordSet {
        KeywordSet::parse(s).unwrap()
    }

    fn oid(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    fn replicated_with(objects: &[(u64, &str)]) -> ReplicatedIndex {
        let mut idx = ReplicatedIndex::new(8, 0).unwrap();
        for &(id, kws) in objects {
            idx.insert(oid(id), set(kws)).unwrap();
        }
        idx
    }

    /// The objects a superset search for `keywords` finds, sorted.
    fn found(idx: &mut ReplicatedIndex, keywords: &str) -> Vec<ObjectId> {
        let out = idx
            .superset_search(&SupersetQuery::new(set(keywords)))
            .unwrap();
        let mut ids: Vec<ObjectId> = out.results.iter().map(|r| r.object).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn placements_are_independent() {
        let idx = ReplicatedIndex::new(10, 0).unwrap();
        // Over many sets, the two cubes disagree on placement almost
        // always (independent hash families).
        let differing = (0..100)
            .filter(|i| {
                let k = set(&format!("word{i} other{i}"));
                idx.primary.vertex_for(&k).bits() != idx.secondary.vertex_for(&k).bits()
            })
            .count();
        assert!(differing > 90, "only {differing}/100 placements differ");
    }

    #[test]
    fn failover_survives_primary_crash() {
        let mut idx = replicated_with(&[(1, "a b"), (2, "c d")]);
        let v = idx.primary.vertex_for(&set("a b"));
        idx.fail_primary(v);
        assert_eq!(found(&mut idx, "a b"), vec![oid(1)]);
        // The other object still comes from the primary.
        assert_eq!(found(&mut idx, "c d"), vec![oid(2)]);
    }

    #[test]
    fn unreplicated_crash_loses_data_for_contrast() {
        let mut plain = HypercubeIndex::new(8, 0).unwrap();
        plain.insert(oid(1), set("a b")).unwrap();
        let v = plain.vertex_for(&set("a b"));
        assert_eq!(plain.drop_node(v), 1);
        assert!(plain.pin_search(&set("a b")).results.is_empty());
    }

    #[test]
    fn superset_failover_restores_completeness() {
        let objects: Vec<(u64, String)> = (0..40).map(|i| (i, format!("shared tag{i}"))).collect();
        let mut idx = ReplicatedIndex::new(8, 0).unwrap();
        for (id, kws) in &objects {
            idx.insert(oid(*id), set(kws)).unwrap();
        }
        // Crash the three heaviest primary vertices in the query cube.
        let victims: Vec<Vertex> = idx
            .primary
            .node_loads()
            .iter()
            .map(|&(v, _)| v)
            .take(3)
            .collect();
        for v in victims {
            idx.fail_primary(v);
        }
        let out = idx
            .superset_search(&SupersetQuery::new(set("shared")))
            .unwrap();
        assert_eq!(out.results.len(), 40, "failover must restore completeness");
    }

    #[test]
    fn untouched_queries_pay_no_failover_cost() {
        let mut idx = replicated_with(&[(1, "a")]);
        // Fail a vertex OUTSIDE the query's subcube: zero bits vertex
        // can't work (it's in every... actually the all-ones vertex is
        // in the subcube of anything it contains). Pick a vertex that
        // does not contain the query root.
        let root = idx.primary.vertex_for(&set("a"));
        let outside = (0..256u64)
            .map(|b| Vertex::from_bits(idx.primary.shape(), b).unwrap())
            .find(|v| !v.contains(root))
            .expect("exists");
        idx.fail_primary(outside);
        let published = SupersetQuery::new(set("a")).prune(false);
        let baseline = idx.superset_search(&published).unwrap();
        // Single-cube traversal only: as published, nodes contacted
        // equals the subcube size.
        assert_eq!(baseline.stats.nodes_contacted, 1u64 << root.zero_count());
    }

    #[test]
    fn double_failure_of_both_copies_loses_the_object() {
        // Honest negative: replication factor 2 tolerates one copy's
        // loss, not both.
        let mut idx = replicated_with(&[(1, "q r")]);
        idx.fail_primary(idx.primary.vertex_for(&set("q r")));
        idx.fail_secondary(idx.secondary.vertex_for(&set("q r")));
        assert!(found(&mut idx, "q r").is_empty());
    }
}
