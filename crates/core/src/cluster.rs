//! The logical hypercube index — the paper's measurement substrate.
//!
//! [`HypercubeIndex`] materializes the index scheme over the *logical*
//! hypercube: every vertex is its own index node, exactly as in the
//! paper's experiments (§4), so "nodes contacted" counts hypercube
//! vertices. The DHT-backed deployment ([`crate::service`]) maps these
//! vertices onto ring nodes via `g` but reuses this same structure and
//! protocol.
//!
//! Vertices are materialized lazily: a 2^16-vertex hypercube costs
//! memory only for vertices that actually index objects.
//!
//! The index holds no result cache: a search is a walk, and what it
//! costs depends only on the data and the query. Figure 9's per-node
//! FIFO caches are kept by the replay that measures them
//! (`hyperdex-bench`'s `fig9`), in front of this index.

use std::collections::VecDeque;
use std::hint::black_box;

use hyperdex_dht::ObjectId;
use hyperdex_hypercube::{Shape, Vertex};

use crate::error::Error;
use crate::hashing::KeywordHasher;
use crate::keyword::{KeywordSet, WideSig};
use crate::search::{superset, PinOutcome, SearchStats, SupersetOutcome, SupersetQuery};
use crate::store::{ByVertex, PostingStore, StoreBackend, StoreFootprint};
use crate::summary::OccupancySummary;

/// The hypercube keyword index over a logical `r`-dimensional hypercube.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct HypercubeIndex {
    hasher: KeywordHasher,
    nodes: ByVertex<PostingStore>,
    object_count: usize,
    // Occupancy and keyword signatures of the cube's prefix regions,
    // kept exact on every insert/remove so searches prune provably
    // match-free SBT subtrees.
    summary: OccupancySummary,
    // The sequential protocol's frontier queue `U`, lent to the search
    // engine per query so searches stop allocating a fresh one.
    pub(crate) frontier: VecDeque<(u64, u8)>,
}

impl HypercubeIndex {
    /// Creates an index over an `r`-dimensional hypercube with hash
    /// seed `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Dimension`] unless `1 ≤ r ≤ 63`.
    pub fn new(r: u8, seed: u64) -> Result<Self, Error> {
        Ok(HypercubeIndex {
            hasher: KeywordHasher::new(r, seed)?,
            nodes: ByVertex::default(),
            object_count: 0,
            summary: OccupancySummary::new(r),
            frontier: VecDeque::new(),
        })
    }

    /// [`HypercubeIndex::new`]. Shim: `benchmark/` names the (only)
    /// backend here; remove with [`StoreBackend`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Dimension`] unless `1 ≤ r ≤ 63`.
    pub fn with_store(r: u8, seed: u64, _backend: StoreBackend) -> Result<Self, Error> {
        Self::new(r, seed)
    }

    /// Aggregate memory footprint of every materialized posting store
    /// (see [`StoreFootprint`]), plus the node table that holds them.
    pub fn store_footprint(&self) -> StoreFootprint {
        let mut total = StoreFootprint::default();
        for store in self.nodes.values() {
            total.add(&store.footprint());
        }
        // Each store reports its own struct, which sits inline in a
        // table slot; the table's spare slots and the rest of each
        // occupied one are the index's to report.
        let slot = std::mem::size_of::<(u64, PostingStore)>();
        total.bytes_resident +=
            self.nodes.capacity() * slot - self.nodes.len() * std::mem::size_of::<PostingStore>();
        total
    }

    /// The hypercube shape.
    pub fn shape(&self) -> Shape {
        self.hasher.shape()
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.object_count
    }

    /// Whether no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.object_count == 0
    }

    /// The vertex responsible for a keyword set — `F_h(K)`.
    pub fn vertex_for(&self, keywords: &KeywordSet) -> Vertex {
        self.hasher.vertex_for(keywords)
    }

    /// Indexes `object` under `keywords` at the single vertex
    /// `F_h(keywords)`, returning that vertex.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyKeywordSet`] for an empty keyword set.
    pub fn insert(&mut self, object: ObjectId, keywords: KeywordSet) -> Result<Vertex, Error> {
        if keywords.is_empty() {
            return Err(Error::EmptyKeywordSet);
        }
        let vertex = self.vertex_for(&keywords);
        let sig = keywords.wide_signature();
        let store = self.nodes.entry(vertex.bits()).or_default();
        if store.insert(keywords, object) {
            self.object_count += 1;
            let bits = vertex.bits();
            let old = self
                .summary
                .region(0, bits)
                .map_or(WideSig::EMPTY, |v| v.sig);
            self.summary.set_vertex(bits, old | sig);
        }
        Ok(vertex)
    }

    /// Removes the entry `⟨keywords, object⟩`. Returns `true` if it was
    /// present. Exactly one node is touched (§3.4: delete is one
    /// lookup).
    pub fn remove(&mut self, object: ObjectId, keywords: &KeywordSet) -> bool {
        let vertex = self.vertex_for(keywords);
        let Some(store) = self.nodes.get_mut(&vertex.bits()) else {
            return false;
        };
        let removed = store.remove(keywords, object);
        if removed {
            self.object_count -= 1;
            // Killing a slot shrinks the vertex's signature unless the
            // survivors' cover the dead set's: fold them until they do.
            if store.objects_with(keywords).next().is_none() {
                let dead = keywords.wide_signature();
                // Each survivor's buffer is a cache miss of its own: read
                // them all first, so the misses overlap, then hash.
                black_box(store.keyword_sets().map(KeywordSet::len).sum::<usize>());
                let mut sig = WideSig::EMPTY;
                let covered = store.keyword_sets().any(|k| {
                    sig = sig | k.wide_signature();
                    sig.covers(dead)
                });
                if !covered {
                    self.summary.set_vertex(vertex.bits(), sig);
                }
            }
            // An emptied vertex goes back to unmaterialized — its arena
            // and table slot with it.
            if store.is_empty() {
                self.nodes.remove(&vertex.bits());
                if self.nodes.is_empty() {
                    self.nodes.shrink_to_fit();
                }
            }
        }
        removed
    }

    /// Pin search: the objects indexed under *exactly* `keywords` — one
    /// query message to one node, one reply (§3.5).
    pub fn pin_search(&self, keywords: &KeywordSet) -> PinOutcome {
        let vertex = self.vertex_for(keywords);
        let results: Vec<ObjectId> = self
            .nodes
            .get(&vertex.bits())
            .map(|store| store.objects_with(keywords).collect())
            .unwrap_or_default();
        let stats = SearchStats {
            nodes_contacted: 1,
            query_messages: 1,
            result_messages: 1,
            entries_scanned: results.len() as u64,
            ..Default::default()
        };
        PinOutcome { results, stats }
    }

    /// Superset search per §3.3's protocol. See [`SupersetQuery`] for
    /// the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroThreshold`] for a zero threshold.
    pub fn superset_search(&mut self, query: &SupersetQuery) -> Result<SupersetOutcome, Error> {
        superset::run(self, query)
    }

    /// Ground truth `|O_K|`: how many indexed objects `keywords`
    /// describes. Used by the experiments to convert recall rates into
    /// thresholds. (Centralized oracle — not part of the protocol.)
    pub fn matching_count(&self, keywords: &KeywordSet) -> usize {
        let root = self.vertex_for(keywords);
        self.nodes
            .iter()
            .filter(|(bits, _)| {
                Vertex::from_bits(self.shape(), **bits)
                    .expect("stored vertices are valid")
                    .contains(root)
            })
            .map(|(_, store)| {
                store
                    .superset_entries(keywords)
                    .map(|(_, objs)| objs.count())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Per-vertex storage load (object entries), for every vertex that
    /// indexes at least one object — the input to Figure 6.
    pub fn node_loads(&self) -> Vec<(Vertex, usize)> {
        let shape = self.shape();
        self.nodes
            .iter()
            .map(|(bits, store)| {
                (
                    Vertex::from_bits(shape, *bits).expect("valid"),
                    store.object_count(),
                )
            })
            .collect()
    }

    /// Simulates the crash of one index node: its table is lost.
    /// Returns the number of object entries that disappeared.
    ///
    /// Queries keep working — the vertex simply answers empty — but its
    /// objects become unfindable until re-published, unless a
    /// replication layer (see [`crate::replication`]) covers them.
    pub fn drop_node(&mut self, vertex: Vertex) -> usize {
        match self.nodes.remove(&vertex.bits()) {
            None => 0,
            Some(store) => {
                let lost = store.object_count();
                self.object_count -= lost;
                self.summary.set_vertex(vertex.bits(), WideSig::EMPTY);
                lost
            }
        }
    }

    /// The occupancy summary over the cube's prefix regions — what the
    /// top-down walks consult to prune match-free SBT subtrees.
    pub fn summary(&self) -> &OccupancySummary {
        &self.summary
    }

    // ---- crate-internal accessors used by the search engine ----

    /// The posting store at `vertex`, if materialized.
    pub(crate) fn store_at(&self, vertex: Vertex) -> Option<&PostingStore> {
        self.nodes.get(&vertex.bits())
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

    #[test]
    fn insert_is_single_vertex() {
        let mut idx = HypercubeIndex::new(10, 0).unwrap();
        let v = idx.insert(oid(1), set("a b c")).unwrap();
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.nodes.len(), 1);
        assert_eq!(v, idx.vertex_for(&set("a b c")));
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut idx = HypercubeIndex::new(8, 0).unwrap();
        idx.insert(oid(1), set("x")).unwrap();
        idx.insert(oid(1), set("x")).unwrap();
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn empty_keyword_set_rejected() {
        let mut idx = HypercubeIndex::new(8, 0).unwrap();
        assert_eq!(
            idx.insert(oid(1), KeywordSet::new()),
            Err(Error::EmptyKeywordSet)
        );
    }

    #[test]
    fn pin_search_exact_only() {
        let mut idx = HypercubeIndex::new(10, 0).unwrap();
        idx.insert(oid(1), set("a b")).unwrap();
        idx.insert(oid(2), set("a b c")).unwrap();
        let out = idx.pin_search(&set("a b"));
        assert_eq!(out.results, vec![oid(1)]);
        assert_eq!(out.stats.nodes_contacted, 1);
        assert!(idx.pin_search(&set("a")).results.is_empty());
    }

    #[test]
    fn remove_roundtrip() {
        let mut idx = HypercubeIndex::new(10, 0).unwrap();
        idx.insert(oid(1), set("m n")).unwrap();
        assert!(idx.remove(oid(1), &set("m n")));
        assert!(!idx.remove(oid(1), &set("m n")));
        assert!(idx.is_empty());
        assert!(idx.pin_search(&set("m n")).results.is_empty());
    }

    #[test]
    fn matching_count_ground_truth() {
        let mut idx = HypercubeIndex::new(10, 0).unwrap();
        idx.insert(oid(1), set("a")).unwrap();
        idx.insert(oid(2), set("a b")).unwrap();
        idx.insert(oid(3), set("a b c")).unwrap();
        idx.insert(oid(4), set("z")).unwrap();
        assert_eq!(idx.matching_count(&set("a")), 3);
        assert_eq!(idx.matching_count(&set("a b")), 2);
        assert_eq!(idx.matching_count(&set("q")), 0);
    }

    #[test]
    fn node_loads_reflect_storage() {
        let mut idx = HypercubeIndex::new(10, 0).unwrap();
        idx.insert(oid(1), set("a")).unwrap();
        idx.insert(oid(2), set("a")).unwrap();
        idx.insert(oid(3), set("b c d")).unwrap();
        let loads = idx.node_loads();
        let total: usize = loads.iter().map(|(_, l)| l).sum();
        assert_eq!(total, 3);
        assert!(loads.iter().any(|&(_, l)| l == 2));
    }

    #[test]
    fn summary_tracks_inserts_removes_and_drops() {
        let mut idx = HypercubeIndex::new(10, 0).unwrap();
        let v = idx.insert(oid(3), set("c d e")).unwrap();
        let sig = |idx: &HypercubeIndex| idx.summary().region(0, v.bits()).map(|g| g.sig);
        let cde = set("c d e").wide_signature();
        assert_eq!(sig(&idx), Some(cde));
        // A second set at the same vertex, with bits the first lacks,
        // stored under two objects.
        let wider = (0..)
            .map(|i| set(&format!("c d e w{i}")))
            .find(|k| idx.vertex_for(k) == v && k.wide_signature() != cde)
            .unwrap();
        idx.insert(oid(4), wider.clone()).unwrap();
        idx.insert(oid(5), wider.clone()).unwrap();
        assert_eq!(idx.len(), 3);
        assert_eq!(sig(&idx), Some(wider.wide_signature()));
        assert!(idx.remove(oid(4), &wider));
        assert_eq!(sig(&idx), Some(wider.wide_signature()), "the slot lives");
        assert!(idx.remove(oid(5), &wider));
        assert_eq!(sig(&idx), Some(cde), "a killed slot shrinks it");
        idx.insert(oid(1), set("a b")).unwrap();
        idx.drop_node(v);
        assert_eq!(idx.len(), usize::from(idx.vertex_for(&set("a b")) != v));
        assert_eq!(sig(&idx), None);
    }

    /// A vertex whose last entry goes is unmaterialized again: churn
    /// does not accumulate empty nodes, and an emptied index reports
    /// the footprint of a new one.
    #[test]
    fn emptied_vertices_are_dropped() {
        let mut idx = HypercubeIndex::new(10, 0).unwrap();
        let empty = idx.store_footprint();
        let words: Vec<KeywordSet> = (0..200).map(|i| set(&format!("w{i} x{}", i % 7))).collect();
        for round in 0..2 {
            for (i, k) in words.iter().enumerate() {
                idx.insert(oid(i as u64), k.clone()).unwrap();
            }
            let occupied = idx.node_loads().len();
            assert_eq!(idx.nodes.len(), occupied, "round {round}");
            for (i, k) in words.iter().enumerate() {
                assert!(idx.remove(oid(i as u64), k));
            }
            assert_eq!(idx.nodes.len(), 0, "round {round}");
            assert_eq!(idx.store_footprint(), empty, "round {round}");
            assert_eq!(*idx.summary(), OccupancySummary::new(10), "round {round}");
        }
    }
}
