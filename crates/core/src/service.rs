//! The full keyword-search service over a DHT (§2's four-layer system).
//!
//! [`KeywordSearchService`] wires the pieces together exactly as §3.3
//! describes:
//!
//! * **Publish**: the publisher routes `Insert(L(σ), σ, u)` to place the
//!   reference; if this created the *first* copy, node `L(σ)` computes
//!   `F_h(K_σ)` and routes an index entry to the physical node
//!   `g(F_h(K_σ))`.
//! * **Withdraw**: the reverse; the index entry is deleted only when the
//!   last copy disappears.
//! * **Pin / superset search**: resolved in the hypercube layer; every
//!   logical message is one message between physical DHT nodes (the
//!   direct `g`-mapping means no extra routing per hop once neighbor
//!   contacts are known — the paper's fourth remark).
//!
//! Costs are accounted in DHT hops (`Receipt`-style) plus the search
//! layer's [`crate::search::SearchStats`].

use hyperdex_dht::{Dolr, NodeId, ObjectId};
use hyperdex_hypercube::Vertex;

use crate::cluster::HypercubeIndex;
use crate::error::Error;
use crate::keyword::KeywordSet;
use crate::mapping::VertexMap;
use crate::search::{PinOutcome, SupersetOutcome, SupersetQuery};

/// Builder for [`KeywordSearchService`].
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    nodes: usize,
    r: u8,
    seed: u64,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder {
            nodes: 64,
            r: 10,
            seed: 0,
        }
    }
}

impl ServiceBuilder {
    /// Number of physical DHT nodes (default 64).
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// Hypercube dimensionality `r` (default 10).
    pub fn dimension(mut self, r: u8) -> Self {
        self.r = r;
        self
    }

    /// Master seed for all hash families and placement (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// No-op shim: `benchmark/` names the (only) posting backend here;
    /// remove with [`StoreBackend`](crate::store::StoreBackend).
    pub fn store(self, _store: crate::store::StoreBackend) -> Self {
        self
    }

    /// Builds the service.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Dimension`] for an invalid `r`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn build(self) -> Result<KeywordSearchService, Error> {
        let index = HypercubeIndex::new(self.r, self.seed)?;
        Ok(KeywordSearchService {
            dht: Dolr::builder().nodes(self.nodes).seed(self.seed).build(),
            index,
            map: VertexMap::new(self.seed),
        })
    }
}

/// Cost receipt for a publish or withdraw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishReceipt {
    /// The DHT node holding the object's references (`S(L(σ))`).
    pub ref_node: NodeId,
    /// Hops to place/remove the reference.
    pub ref_hops: usize,
    /// The hypercube vertex indexing the object, when the index layer
    /// was touched (first copy on publish / last copy on withdraw).
    pub index_vertex: Option<Vertex>,
    /// The physical node playing that vertex.
    pub index_node: Option<NodeId>,
    /// Hops to update the index entry (0 when the index was untouched).
    pub index_hops: usize,
}

impl PublishReceipt {
    /// Total DHT hops charged to the operation.
    pub fn total_hops(&self) -> usize {
        self.ref_hops + self.index_hops
    }
}

/// Search outcome annotated with the DHT routing cost to reach the
/// hypercube layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSearchOutcome<T> {
    /// The hypercube-layer outcome.
    pub outcome: T,
    /// Hops from the requester to the root index node, plus one physical
    /// message per logical hypercube message (direct `g`-mapping).
    pub dht_hops: usize,
}

/// The assembled keyword/attribute search layer over a Chord-like DHT.
///
/// # Example
///
/// ```
/// use hyperdex_core::{KeywordSearchService, KeywordSet, ObjectId, SupersetQuery};
///
/// let mut svc = KeywordSearchService::builder()
///     .nodes(32)
///     .dimension(10)
///     .build()?;
/// let publisher = svc.random_node();
/// let obj = ObjectId::from_name("whitepaper.pdf");
/// svc.publish(publisher, obj, KeywordSet::parse("p2p search dht")?)?;
///
/// let hit = svc.pin_search(publisher, &KeywordSet::parse("p2p search dht")?);
/// assert_eq!(hit.outcome.results, vec![obj]);
/// # Ok::<(), hyperdex_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct KeywordSearchService {
    dht: Dolr,
    index: HypercubeIndex,
    map: VertexMap,
}

impl KeywordSearchService {
    /// Starts building a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// A uniformly random live DHT node (useful as a requester).
    pub fn random_node(&mut self) -> NodeId {
        self.dht.random_node()
    }

    /// The underlying DHT (read access).
    pub fn dht(&self) -> &Dolr {
        &self.dht
    }

    /// The hypercube index layer (read access).
    pub fn index(&self) -> &HypercubeIndex {
        &self.index
    }

    /// The physical node playing hypercube vertex `v` — `S(g(v))`.
    pub fn node_for_vertex(&self, v: Vertex) -> NodeId {
        self.map
            .physical_node(v, self.dht.ring())
            .expect("ring is never empty")
    }

    /// Publishes a copy of `object` held at `publisher` with keyword set
    /// `keywords` (§3.3 Insert).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyKeywordSet`] for an empty keyword set.
    pub fn publish(
        &mut self,
        publisher: NodeId,
        object: ObjectId,
        keywords: KeywordSet,
    ) -> Result<PublishReceipt, Error> {
        if keywords.is_empty() {
            return Err(Error::EmptyKeywordSet);
        }
        let first_copy = self.dht.read(publisher, object).is_none();
        let receipt = self.dht.insert(publisher, object, publisher);
        let (index_vertex, index_node, index_hops) = if first_copy {
            // Node L(σ) computes F_h(K_σ) and routes the index entry to
            // g(F_h(K_σ)).
            let vertex = self.index.vertex_for(&keywords);
            let index_node = self.node_for_vertex(vertex);
            let hops = self
                .dht
                .router()
                .hops(receipt.target, self.map.ring_key(vertex));
            self.index.insert(object, keywords)?;
            (Some(vertex), Some(index_node), hops)
        } else {
            (None, None, 0)
        };
        Ok(PublishReceipt {
            ref_node: receipt.target,
            ref_hops: receipt.hops,
            index_vertex,
            index_node,
            index_hops,
        })
    }

    /// Withdraws the copy of `object` held at `publisher` (§3.3 Delete).
    /// The index entry disappears only with the last copy.
    pub fn withdraw(
        &mut self,
        publisher: NodeId,
        object: ObjectId,
        keywords: &KeywordSet,
    ) -> PublishReceipt {
        let receipt = self.dht.delete(publisher, object, publisher);
        let last_copy = self.dht.read(publisher, object).is_none();
        let (index_vertex, index_node, index_hops) = if last_copy {
            let vertex = self.index.vertex_for(keywords);
            let index_node = self.node_for_vertex(vertex);
            let hops = self
                .dht
                .router()
                .hops(receipt.target, self.map.ring_key(vertex));
            self.index.remove(object, keywords);
            (Some(vertex), Some(index_node), hops)
        } else {
            (None, None, 0)
        };
        PublishReceipt {
            ref_node: receipt.target,
            ref_hops: receipt.hops,
            index_vertex,
            index_node,
            index_hops,
        }
    }

    /// Pin search from `requester`: one route to `g(F_h(K))`.
    pub fn pin_search(
        &mut self,
        requester: NodeId,
        keywords: &KeywordSet,
    ) -> ServiceSearchOutcome<PinOutcome> {
        let vertex = self.index.vertex_for(keywords);
        let dht_hops = self.dht.router().hops(requester, self.map.ring_key(vertex));
        ServiceSearchOutcome {
            outcome: self.index.pin_search(keywords),
            dht_hops,
        }
    }

    /// Superset search from `requester`: route to the root index node,
    /// then one physical message per logical `T_QUERY` (direct mapping).
    ///
    /// # Errors
    ///
    /// Returns the hypercube layer's errors.
    pub fn superset_search(
        &mut self,
        requester: NodeId,
        query: &SupersetQuery,
    ) -> Result<ServiceSearchOutcome<SupersetOutcome>, Error> {
        let vertex = self.index.vertex_for(&query.keywords);
        let route_hops = self.dht.router().hops(requester, self.map.ring_key(vertex));
        let outcome = self.index.superset_search(query)?;
        // Beyond the initial route, each logical query message crosses
        // one physical link (neighbor contacts are cached, §3.4).
        let dht_hops = route_hops + (outcome.stats.query_messages.saturating_sub(1)) as usize;
        Ok(ServiceSearchOutcome { outcome, dht_hops })
    }

    /// Retrieves a copy reference for `object` via the DHT (the final
    /// `Read(σ)` step after a search returns object ids).
    pub fn fetch_reference(
        &self,
        requester: NodeId,
        object: ObjectId,
    ) -> Option<hyperdex_dht::ReadResult> {
        self.dht.read(requester, object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::TraversalOrder;

    fn service() -> KeywordSearchService {
        KeywordSearchService::builder()
            .nodes(32)
            .dimension(10)
            .seed(7)
            .build()
            .unwrap()
    }

    fn set(s: &str) -> KeywordSet {
        KeywordSet::parse(s).unwrap()
    }

    #[test]
    fn publish_indexes_first_copy_only() {
        let mut svc = service();
        let obj = ObjectId::from_name("shared-file");
        let a = svc.random_node();
        let b = svc.random_node();
        let r1 = svc.publish(a, obj, set("p2p index")).unwrap();
        assert!(r1.index_vertex.is_some(), "first copy creates the index");
        let r2 = svc.publish(b, obj, set("p2p index")).unwrap();
        assert!(r2.index_vertex.is_none(), "second copy skips the index");
        assert_eq!(svc.index().len(), 1);
    }

    #[test]
    fn withdraw_removes_index_with_last_copy() {
        let mut svc = service();
        let obj = ObjectId::from_name("departing");
        let nodes: Vec<NodeId> = svc.dht().ring().iter().take(2).collect();
        svc.publish(nodes[0], obj, set("a b")).unwrap();
        svc.publish(nodes[1], obj, set("a b")).unwrap();
        let r1 = svc.withdraw(nodes[0], obj, &set("a b"));
        assert!(r1.index_vertex.is_none(), "copies remain");
        assert_eq!(svc.index().len(), 1);
        let r2 = svc.withdraw(nodes[1], obj, &set("a b"));
        assert!(r2.index_vertex.is_some(), "last copy clears the index");
        assert!(svc.index().is_empty());
    }

    #[test]
    fn pin_and_superset_find_published_objects() {
        let mut svc = service();
        let obj = ObjectId::from_name("doc");
        let publisher = svc.random_node();
        svc.publish(publisher, obj, set("rust dht paper")).unwrap();
        let requester = svc.random_node();
        let pin = svc.pin_search(requester, &set("rust dht paper"));
        assert_eq!(pin.outcome.results, vec![obj]);
        let sup = svc
            .superset_search(requester, &SupersetQuery::new(set("rust")).threshold(10))
            .unwrap();
        assert!(sup.outcome.results.iter().any(|r| r.object == obj));
        assert!(sup.dht_hops >= sup.outcome.stats.query_messages as usize - 1);
    }

    #[test]
    fn fetch_reference_completes_the_loop() {
        let mut svc = service();
        let obj = ObjectId::from_name("payload");
        let publisher = svc.random_node();
        svc.publish(publisher, obj, set("k1 k2")).unwrap();
        let found = svc.fetch_reference(publisher, obj).expect("reference");
        assert_eq!(found.refs[0].owner, publisher);
    }

    #[test]
    fn publish_indexes_first_copies_under_their_set() {
        let mut svc = service();
        let publisher = svc.random_node();
        // Four objects, two distinct keyword sets (one given in both
        // orders — a set is its keywords, not their spelling order).
        svc.publish(publisher, ObjectId::from_raw(1), set("news tvbs"))
            .unwrap();
        svc.publish(publisher, ObjectId::from_raw(2), set("tvbs news"))
            .unwrap();
        svc.publish(publisher, ObjectId::from_raw(3), set("news tvbs"))
            .unwrap();
        svc.publish(publisher, ObjectId::from_raw(4), set("movies"))
            .unwrap();
        assert_eq!(svc.index().len(), 4, "all four objects indexed");
        assert_eq!(svc.index().pin_search(&set("tvbs news")).results.len(), 3);
        // Re-publishing an existing copy never touches the index.
        svc.publish(publisher, ObjectId::from_raw(4), set("something else"))
            .unwrap();
        assert_eq!(svc.index().len(), 4);
        assert!(svc
            .index()
            .pin_search(&set("something else"))
            .results
            .is_empty());
    }

    #[test]
    fn publish_rejects_empty_keywords() {
        let mut svc = service();
        let publisher = svc.random_node();
        assert_eq!(
            svc.publish(publisher, ObjectId::from_raw(1), KeywordSet::new()),
            Err(Error::EmptyKeywordSet)
        );
    }

    #[test]
    fn bottom_up_order_prefers_specific() {
        let mut svc = service();
        let publisher = svc.random_node();
        svc.publish(publisher, ObjectId::from_raw(1), set("q"))
            .unwrap();
        svc.publish(publisher, ObjectId::from_raw(2), set("q extra1 extra2"))
            .unwrap();
        let requester = svc.random_node();
        let out = svc
            .superset_search(
                requester,
                &SupersetQuery::new(set("q"))
                    .order(TraversalOrder::BottomUp)
                    .threshold(1),
            )
            .unwrap();
        assert_eq!(out.outcome.results[0].object, ObjectId::from_raw(2));
    }
}
