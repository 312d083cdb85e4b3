//! The distributed inverted index baseline.
//!
//! Each keyword hashes to one of the `2^r` nodes, which stores the
//! posting list of every object containing that keyword. A `k`-keyword
//! query fetches `k` posting lists and intersects them; a `k`-keyword
//! object insert/delete touches `k` nodes. This is the §1 strawman whose
//! problems (Zipf-skewed load, hot spots, per-keyword single points of
//! failure, `k`-fold storage and update cost) motivate the hypercube
//! scheme.

use std::collections::{BTreeSet, HashMap};

use hyperdex_dht::keyhash::stable_hash64_seeded;
use hyperdex_dht::ObjectId;

use crate::error::Error;
use crate::keyword::{Keyword, KeywordRef, KeywordSet};
use crate::search::SearchStats;

/// Seed-space tag separating DII placement from other hash families.
const DII_SEED_TAG: u64 = 0x4449_4931; // "DII1"

/// Outcome of a DII conjunctive query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiiQueryOutcome {
    /// Objects containing *all* queried keywords.
    pub results: Vec<ObjectId>,
    /// Cost accounting. `result_messages` counts posting-list transfers;
    /// `entries_scanned` counts posting entries shipped — the bandwidth
    /// the hypercube scheme avoids.
    pub stats: SearchStats,
}

/// A distributed inverted index over `2^r` logical nodes.
///
/// # Example
///
/// ```
/// use hyperdex_core::baseline::DistributedInvertedIndex;
/// use hyperdex_core::{KeywordSet, ObjectId};
///
/// let mut dii = DistributedInvertedIndex::new(10, 0)?;
/// dii.insert(ObjectId::from_raw(1), &KeywordSet::parse("jazz piano")?);
/// let out = dii.query(&KeywordSet::parse("jazz")?);
/// assert_eq!(out.results, vec![ObjectId::from_raw(1)]);
/// # Ok::<(), hyperdex_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct DistributedInvertedIndex {
    r: u8,
    seed: u64,
    /// node → keyword → posting list.
    postings: HashMap<u64, HashMap<Keyword, BTreeSet<ObjectId>>>,
    object_count: usize,
}

impl DistributedInvertedIndex {
    /// Creates an index over `2^r` logical nodes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Dimension`] unless `1 ≤ r ≤ 63`.
    pub fn new(r: u8, seed: u64) -> Result<Self, Error> {
        // Reuse the shape validation for consistent limits.
        hyperdex_hypercube::Shape::new(r)?;
        Ok(DistributedInvertedIndex {
            r,
            seed,
            postings: HashMap::new(),
            object_count: 0,
        })
    }

    /// The node a keyword hashes to.
    pub fn node_for(&self, keyword: KeywordRef<'_>) -> u64 {
        stable_hash64_seeded(keyword.as_bytes(), self.seed ^ DII_SEED_TAG) % (1u64 << self.r)
    }

    /// Indexes `object` under every keyword in `keywords`, touching one
    /// node per keyword. Returns how many nodes were updated — the
    /// `k`-lookup insert cost the paper contrasts with its single
    /// lookup.
    pub fn insert(&mut self, object: ObjectId, keywords: &KeywordSet) -> usize {
        let mut touched = 0;
        for k in keywords {
            let node = self.node_for(k);
            self.postings
                .entry(node)
                .or_default()
                .entry(k.to_keyword())
                .or_default()
                .insert(object);
            touched += 1;
        }
        if touched > 0 {
            self.object_count += 1;
        }
        touched
    }

    /// Removes `object` from every keyword's posting list; returns the
    /// number of nodes touched.
    pub fn remove(&mut self, object: ObjectId, keywords: &KeywordSet) -> usize {
        let mut touched = 0;
        for k in keywords {
            let node = self.node_for(k);
            if let Some(node_postings) = self.postings.get_mut(&node) {
                if let Some(list) = node_postings.get_mut(k.as_str()) {
                    if list.remove(&object) {
                        touched += 1;
                    }
                    if list.is_empty() {
                        node_postings.remove(k.as_str());
                    }
                }
            }
        }
        if touched > 0 {
            self.object_count = self.object_count.saturating_sub(1);
        }
        touched
    }

    /// Conjunctive query: fetch each keyword's posting list (one node
    /// each) and intersect.
    pub fn query(&self, keywords: &KeywordSet) -> DiiQueryOutcome {
        let mut stats = SearchStats::default();
        let mut intersection: Option<BTreeSet<ObjectId>> = None;
        for k in keywords {
            stats.query_messages += 1;
            stats.nodes_contacted += 1;
            let list = self
                .postings
                .get(&self.node_for(k))
                .and_then(|np| np.get(k.as_str()))
                .cloned()
                .unwrap_or_default();
            stats.entries_scanned += list.len() as u64;
            if !list.is_empty() {
                stats.result_messages += 1;
            }
            intersection = Some(match intersection {
                None => list,
                Some(acc) => acc.intersection(&list).copied().collect(),
            });
            if intersection.as_ref().is_some_and(BTreeSet::is_empty) {
                break; // empty intersection cannot recover
            }
        }
        DiiQueryOutcome {
            results: intersection.unwrap_or_default().into_iter().collect(),
            stats,
        }
    }

    /// Simulates the crash of one node: every posting list it held is
    /// lost. Returns the number of posting entries that disappeared.
    ///
    /// The keywords owned by this node become entirely unsearchable —
    /// the single-point-of-failure §1 charges this scheme with.
    pub fn drop_node(&mut self, node: u64) -> usize {
        match self.postings.remove(&node) {
            None => 0,
            Some(lists) => lists.values().map(BTreeSet::len).sum(),
        }
    }

    /// Storage load per node (posting entries) — the `DII-r` series of
    /// Figure 6. Only nodes with at least one entry appear.
    pub fn node_loads(&self) -> Vec<(u64, usize)> {
        self.postings
            .iter()
            .map(|(node, lists)| (*node, lists.values().map(BTreeSet::len).sum()))
            .filter(|&(_, load)| load > 0)
            .collect()
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.object_count
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.object_count == 0
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

    /// Posting entries across all nodes.
    fn total_postings(dii: &DistributedInvertedIndex) -> usize {
        dii.node_loads().iter().map(|&(_, l)| l).sum()
    }

    #[test]
    fn insert_touches_k_nodes_worth() {
        let mut dii = DistributedInvertedIndex::new(10, 0).unwrap();
        let touched = dii.insert(oid(1), &set("a b c d"));
        assert_eq!(touched, 4, "one update per keyword");
        assert_eq!(total_postings(&dii), 4, "4x storage for one object");
        assert_eq!(dii.len(), 1);
    }

    #[test]
    fn conjunctive_query_intersects() {
        let mut dii = DistributedInvertedIndex::new(10, 0).unwrap();
        dii.insert(oid(1), &set("jazz piano"));
        dii.insert(oid(2), &set("jazz sax"));
        dii.insert(oid(3), &set("rock piano"));
        assert_eq!(dii.query(&set("jazz piano")).results, vec![oid(1)]);
        assert_eq!(dii.query(&set("jazz")).results, vec![oid(1), oid(2)]);
        assert!(dii.query(&set("jazz rock")).results.is_empty());
    }

    #[test]
    fn query_costs_one_node_per_keyword() {
        let mut dii = DistributedInvertedIndex::new(10, 0).unwrap();
        dii.insert(oid(1), &set("a b c"));
        let out = dii.query(&set("a b c"));
        assert_eq!(out.stats.nodes_contacted, 3);
        assert_eq!(out.stats.query_messages, 3);
    }

    #[test]
    fn empty_intersection_short_circuits() {
        let mut dii = DistributedInvertedIndex::new(10, 0).unwrap();
        dii.insert(oid(1), &set("a"));
        // "zzz" has an empty posting list; later keywords are skipped.
        let out = dii.query(&set("zzz a b c d e"));
        assert!(out.results.is_empty());
        assert!(out.stats.nodes_contacted < 6);
    }

    #[test]
    fn remove_cleans_postings() {
        let mut dii = DistributedInvertedIndex::new(10, 0).unwrap();
        dii.insert(oid(1), &set("x y"));
        assert_eq!(dii.remove(oid(1), &set("x y")), 2);
        assert_eq!(dii.remove(oid(1), &set("x y")), 0);
        assert!(dii.is_empty());
        assert_eq!(total_postings(&dii), 0);
    }

    #[test]
    fn popular_keyword_concentrates_load() {
        // 100 objects all share "mp3": one node's load grows linearly —
        // the hot-spot pathology.
        let mut dii = DistributedInvertedIndex::new(10, 0).unwrap();
        for i in 0..100 {
            dii.insert(oid(i), &set(&format!("mp3 unique{i}")));
        }
        let loads = dii.node_loads();
        let max_load = loads.iter().map(|&(_, l)| l).max().unwrap();
        assert!(max_load >= 100, "hot node holds every mp3 posting");
    }

    #[test]
    fn query_empty_keyword_set_returns_nothing() {
        let dii = DistributedInvertedIndex::new(8, 0).unwrap();
        let out = dii.query(&KeywordSet::new());
        assert!(out.results.is_empty());
        assert_eq!(out.stats.nodes_contacted, 0);
    }
}
