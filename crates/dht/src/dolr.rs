//! The DOLR scheme: distributed object location and routing (§2.1).
//!
//! Objects have unique ids; the mapping `L` sends each object to the
//! live node owning `L(σ)` on the ring. Publishing a copy places a
//! *reference* `(σ, u)` — "object σ has a copy at node u" — at that
//! node; locating the object means fetching a reference. [`Dolr`] is the
//! *direct* evaluation mode: routing paths are computed analytically
//! (with exact hop counts) rather than by exchanging simulated messages.

use std::collections::{BTreeSet, HashMap};

use hyperdex_simnet::rng::SimRng;

use crate::id::NodeId;
use crate::keyhash::{stable_hash64, stable_hash_u64};
use crate::ring::Ring;
use crate::routing::Router;

/// Seed for the object→ring placement hash family (`L`).
const PLACEMENT_SEED: u64 = 0x4C_50_4C_41_43_45; // "LPLACE"

/// A unique object identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(u64);

impl ObjectId {
    /// Creates an id from its raw value.
    pub const fn from_raw(raw: u64) -> Self {
        ObjectId(raw)
    }

    /// Derives an id by hashing a name.
    pub fn from_name(name: &str) -> Self {
        ObjectId(stable_hash64(name.as_bytes()))
    }

    /// The raw value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The ring key this object maps to — the paper's `L(σ)`.
    pub fn placement(self) -> NodeId {
        NodeId::from_raw(stable_hash_u64(self.0, PLACEMENT_SEED))
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj:{:016x}", self.0)
    }
}

/// A reference `(σ, u)`: object `σ` has a physical copy at node `u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectRef {
    /// The object.
    pub object: ObjectId,
    /// The node holding a physical copy.
    pub owner: NodeId,
}

/// Outcome of an insert or delete: where the operation landed and what
/// it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// The node that now (or no longer) holds the reference.
    pub target: NodeId,
    /// Overlay hops taken to reach it.
    pub hops: usize,
    /// Nodes that received a replica of the update.
    pub replicas: Vec<NodeId>,
}

/// Outcome of a read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadResult {
    /// All known references for the object.
    pub refs: Vec<ObjectRef>,
    /// Overlay hops taken.
    pub hops: usize,
    /// The node that answered (the primary, or a replica after a crash).
    pub served_by: NodeId,
}

/// Per-node reference storage — the paper's `Refs_v`.
type RefStore = HashMap<ObjectId, BTreeSet<ObjectRef>>;

/// Builder for [`Dolr`].
#[derive(Debug, Clone)]
pub struct DolrBuilder {
    nodes: usize,
    seed: u64,
    replication: usize,
}

impl Default for DolrBuilder {
    fn default() -> Self {
        DolrBuilder {
            nodes: 64,
            seed: 0,
            replication: 0,
        }
    }
}

impl DolrBuilder {
    /// Number of initial nodes (default 64).
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// RNG seed controlling node-id placement (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of successor replicas per reference (default 0).
    pub fn replication(mut self, k: usize) -> Self {
        self.replication = k;
        self
    }

    /// Builds the DHT.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn build(self) -> Dolr {
        assert!(self.nodes > 0, "a DHT needs at least one node");
        let mut rng = SimRng::new(self.seed);
        let mut ring = Ring::new();
        while ring.len() < self.nodes {
            ring.join(NodeId::from_raw(rng.next_u64()));
        }
        let router = Router::build(&ring);
        let stores = ring.iter().map(|n| (n, RefStore::new())).collect();
        Dolr {
            ring,
            router,
            stores,
            replication: self.replication,
            rng,
        }
    }
}

/// A Chord-like DHT supporting the DOLR `Insert` / `Delete` / `Read`
/// operations with exact hop accounting, churn, and replication.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Dolr {
    ring: Ring,
    router: Router,
    stores: HashMap<NodeId, RefStore>,
    replication: usize,
    rng: SimRng,
}

impl Dolr {
    /// Starts building a DHT.
    pub fn builder() -> DolrBuilder {
        DolrBuilder::default()
    }

    /// The current ring view.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The current router (finger tables).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// A uniformly random live node.
    pub fn random_node(&mut self) -> NodeId {
        let members: Vec<NodeId> = self.ring.iter().collect();
        *self.rng.choose(&members).expect("ring is never empty")
    }

    /// The live node responsible for `obj` — `S(L(σ))`.
    pub fn locate(&self, obj: ObjectId) -> NodeId {
        self.ring
            .surrogate(obj.placement())
            .expect("ring is never empty")
    }

    /// `Insert(L(σ), σ, owner)`: publish a reference for a copy of `obj`
    /// held at `owner`, routing from `publisher`.
    ///
    /// # Panics
    ///
    /// Panics if `publisher` is not a live node.
    pub fn insert(&mut self, publisher: NodeId, obj: ObjectId, owner: NodeId) -> Receipt {
        let hops = self.router.hops(publisher, obj.placement());
        let target = self.locate(obj);
        let new_ref = ObjectRef { object: obj, owner };
        self.store_mut(target)
            .entry(obj)
            .or_default()
            .insert(new_ref);
        let replicas = self.ring.successor_list(target, self.replication);
        for &rep in &replicas {
            self.store_mut(rep).entry(obj).or_default().insert(new_ref);
        }
        Receipt {
            target,
            hops,
            replicas,
        }
    }

    /// `Delete(L(σ), σ, owner)`: withdraw the reference for the copy at
    /// `owner`, routing from `publisher`.
    ///
    /// # Panics
    ///
    /// Panics if `publisher` is not a live node.
    pub fn delete(&mut self, publisher: NodeId, obj: ObjectId, owner: NodeId) -> Receipt {
        let hops = self.router.hops(publisher, obj.placement());
        let target = self.locate(obj);
        let doomed = ObjectRef { object: obj, owner };
        Self::remove_ref(self.store_mut(target), &doomed);
        let replicas = self.ring.successor_list(target, self.replication);
        for &rep in &replicas {
            Self::remove_ref(self.store_mut(rep), &doomed);
        }
        Receipt {
            target,
            hops,
            replicas,
        }
    }

    /// `Read(σ)`: fetch the references for `obj`, routing from `reader`.
    ///
    /// Falls back to successor replicas (one extra hop each) when the
    /// primary has no data — e.g. after a crash, before re-replication.
    /// Returns `None` if no live node knows the object.
    ///
    /// # Panics
    ///
    /// Panics if `reader` is not a live node.
    pub fn read(&self, reader: NodeId, obj: ObjectId) -> Option<ReadResult> {
        let route_hops = self.router.hops(reader, obj.placement());
        let primary = self.locate(obj);
        let mut candidates = vec![primary];
        candidates.extend(self.ring.successor_list(primary, self.replication));
        // Walking the successor list costs one extra hop per candidate.
        for (extra, node) in candidates.into_iter().enumerate() {
            if let Some(refs) = self.stores[&node].get(&obj) {
                if !refs.is_empty() {
                    return Some(ReadResult {
                        refs: refs.iter().copied().collect(),
                        hops: route_hops + extra,
                        served_by: node,
                    });
                }
            }
        }
        None
    }

    /// A node joins the ring: it takes over the key range between its
    /// predecessor and itself, receiving the matching references from
    /// its successor, and all finger tables re-stabilize.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already a member.
    pub fn join(&mut self, id: NodeId) {
        assert!(self.ring.join(id), "node {id} already in the ring");
        self.stores.insert(id, RefStore::new());
        // Handover: references whose placement now lands on the new node
        // move from its successor.
        let succ = self.ring.successor(id).expect("ring non-empty");
        if succ != id {
            let moving: Vec<ObjectId> = self.stores[&succ]
                .keys()
                .filter(|o| self.ring.surrogate(o.placement()) == Some(id))
                .copied()
                .collect();
            for obj in moving {
                if let Some(refs) = self.stores.get_mut(&succ).and_then(|s| s.remove(&obj)) {
                    self.store_mut(id).insert(obj, refs);
                }
            }
        }
        self.router.rebuild(&self.ring);
        self.re_replicate();
    }

    /// A node leaves gracefully: its references transfer to its
    /// successor before departure.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a member or is the last node.
    pub fn leave(&mut self, id: NodeId) {
        assert!(self.ring.len() > 1, "cannot remove the last node");
        let succ = self.ring.successor(id).expect("member has a successor");
        assert!(self.ring.leave(id), "node {id} not in the ring");
        let departing = self.stores.remove(&id).unwrap_or_default();
        let succ_store = self.store_mut(succ);
        for (obj, refs) in departing {
            succ_store.entry(obj).or_default().extend(refs);
        }
        self.router.rebuild(&self.ring);
        self.re_replicate();
    }

    /// A node crashes: its store is lost. Data survives only on
    /// replicas. Finger tables re-stabilize and surviving replicas
    /// re-replicate to restore the replication factor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a member or is the last node.
    pub fn crash(&mut self, id: NodeId) {
        assert!(self.ring.len() > 1, "cannot crash the last node");
        assert!(self.ring.leave(id), "node {id} not in the ring");
        self.stores.remove(&id);
        self.router.rebuild(&self.ring);
        self.re_replicate();
    }

    /// Total number of stored references across all nodes (replicas
    /// included).
    pub fn total_refs(&self) -> usize {
        self.stores
            .values()
            .flat_map(|s| s.values())
            .map(|refs| refs.len())
            .sum()
    }

    /// Restores the invariant that every object's references live on its
    /// current primary plus `replication` successors.
    fn re_replicate(&mut self) {
        if self.replication == 0 {
            // Still need to move keys onto new primaries after churn;
            // handled by join/leave handover, nothing to do here.
            return;
        }
        // Gather every known (object, refs) pair, then rewrite placement.
        let mut all: HashMap<ObjectId, BTreeSet<ObjectRef>> = HashMap::new();
        for store in self.stores.values() {
            for (obj, refs) in store {
                all.entry(*obj).or_default().extend(refs.iter().copied());
            }
        }
        for store in self.stores.values_mut() {
            store.clear();
        }
        for (obj, refs) in all {
            let primary = self.locate(obj);
            let targets =
                std::iter::once(primary).chain(self.ring.successor_list(primary, self.replication));
            for t in targets {
                self.store_mut(t).insert(obj, refs.clone());
            }
        }
    }

    fn store_mut(&mut self, node: NodeId) -> &mut RefStore {
        self.stores.get_mut(&node).expect("store exists for member")
    }

    fn remove_ref(store: &mut RefStore, doomed: &ObjectRef) {
        if let Some(refs) = store.get_mut(&doomed.object) {
            refs.remove(doomed);
            if refs.is_empty() {
                store.remove(&doomed.object);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dht(nodes: usize, replication: usize) -> Dolr {
        Dolr::builder()
            .nodes(nodes)
            .seed(42)
            .replication(replication)
            .build()
    }

    #[test]
    fn insert_then_read_roundtrip() {
        let mut d = dht(32, 0);
        let obj = ObjectId::from_name("song.mp3");
        let publisher = d.random_node();
        let receipt = d.insert(publisher, obj, publisher);
        assert_eq!(receipt.target, d.locate(obj));
        let read = d.read(publisher, obj).expect("present");
        assert_eq!(
            read.refs,
            vec![ObjectRef {
                object: obj,
                owner: publisher
            }]
        );
        assert_eq!(read.served_by, receipt.target);
    }

    #[test]
    fn read_missing_is_none() {
        let mut d = dht(8, 0);
        let reader = d.random_node();
        assert!(d.read(reader, ObjectId::from_name("ghost")).is_none());
    }

    #[test]
    fn multiple_copies_accumulate_refs() {
        let mut d = dht(16, 0);
        let obj = ObjectId::from_name("popular");
        let a = d.random_node();
        let b = d.random_node();
        d.insert(a, obj, a);
        d.insert(b, obj, b);
        let read = d.read(a, obj).unwrap();
        let owners: Vec<NodeId> = read.refs.iter().map(|r| r.owner).collect();
        assert!(owners.contains(&a));
        if a != b {
            assert!(owners.contains(&b));
            assert_eq!(read.refs.len(), 2);
        }
    }

    #[test]
    fn delete_removes_only_that_owner() {
        let mut d = dht(16, 0);
        let obj = ObjectId::from_name("shared");
        let nodes: Vec<NodeId> = d.ring().iter().take(2).collect();
        let (a, b) = (nodes[0], nodes[1]);
        d.insert(a, obj, a);
        d.insert(b, obj, b);
        d.delete(a, obj, a);
        let read = d.read(b, obj).expect("b's copy remains");
        assert_eq!(
            read.refs,
            vec![ObjectRef {
                object: obj,
                owner: b
            }]
        );
        d.delete(b, obj, b);
        assert!(d.read(b, obj).is_none(), "last copy gone");
    }

    #[test]
    fn hops_logarithmic_in_network_size() {
        let mut d = dht(512, 0);
        let publisher = d.random_node();
        let mut max_hops = 0;
        for i in 0..100 {
            let obj = ObjectId::from_name(&format!("o{i}"));
            max_hops = max_hops.max(d.insert(publisher, obj, publisher).hops);
        }
        assert!(max_hops <= 18, "max {max_hops} hops in 512-node ring");
    }

    #[test]
    fn join_takes_over_range() {
        let mut d = dht(16, 0);
        let publisher = d.random_node();
        let objs: Vec<ObjectId> = (0..200)
            .map(|i| ObjectId::from_name(&format!("obj-{i}")))
            .collect();
        for &o in &objs {
            d.insert(publisher, o, publisher);
        }
        // Join a node and verify every object still readable at its
        // (possibly new) primary.
        d.join(NodeId::from_raw(0x8000_0000_0000_0000));
        for &o in &objs {
            let r = d.read(d.locate(o), o).expect("survives join");
            assert_eq!(r.served_by, d.locate(o), "served by current primary");
        }
    }

    #[test]
    fn graceful_leave_preserves_data() {
        let mut d = dht(16, 0);
        let publisher = d.random_node();
        let objs: Vec<ObjectId> = (0..100)
            .map(|i| ObjectId::from_name(&format!("keep-{i}")))
            .collect();
        for &o in &objs {
            d.insert(publisher, o, publisher);
        }
        let victim = d.ring().iter().nth(5).unwrap();
        d.leave(victim);
        let reader = d.random_node();
        for &o in &objs {
            assert!(d.read(reader, o).is_some(), "object {o} lost on leave");
        }
    }

    #[test]
    fn crash_without_replication_loses_data() {
        let mut d = dht(8, 0);
        let obj = ObjectId::from_name("fragile");
        let publisher = d.ring().iter().next().unwrap();
        d.insert(publisher, obj, publisher);
        let primary = d.locate(obj);
        let reader = d.ring().iter().find(|&n| n != primary).unwrap();
        d.crash(primary);
        assert!(d.read(reader, obj).is_none(), "unreplicated data dies");
    }

    #[test]
    fn crash_with_replication_preserves_data() {
        let mut d = dht(8, 2);
        let obj = ObjectId::from_name("durable");
        let publisher = d.ring().iter().next().unwrap();
        d.insert(publisher, obj, publisher);
        let primary = d.locate(obj);
        let reader = d.ring().iter().find(|&n| n != primary).unwrap();
        d.crash(primary);
        let read = d.read(reader, obj).expect("replica serves");
        assert_eq!(read.refs[0].owner, publisher);
    }

    #[test]
    fn replication_survives_repeated_crashes() {
        let mut d = dht(16, 3);
        let obj = ObjectId::from_name("very-durable");
        let publisher = d.ring().iter().next().unwrap();
        d.insert(publisher, obj, publisher);
        for _ in 0..5 {
            let primary = d.locate(obj);
            if d.ring().len() <= 2 {
                break;
            }
            d.crash(primary);
            let reader = d.random_node();
            assert!(d.read(reader, obj).is_some(), "lost after crash");
        }
    }

    #[test]
    fn replicas_are_successors_of_target() {
        let mut d = dht(16, 2);
        let obj = ObjectId::from_name("replicated");
        let publisher = d.random_node();
        let receipt = d.insert(publisher, obj, publisher);
        assert_eq!(receipt.replicas, d.ring().successor_list(receipt.target, 2));
    }

    #[test]
    fn placement_is_stable() {
        let obj = ObjectId::from_name("pin");
        assert_eq!(obj.placement(), obj.placement());
        assert_eq!(ObjectId::from_name("pin"), obj);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        Dolr::builder().nodes(0).build();
    }

    #[test]
    fn total_refs_counts_replicas() {
        let mut d = dht(16, 2);
        let publisher = d.random_node();
        d.insert(publisher, ObjectId::from_name("x"), publisher);
        assert_eq!(d.total_refs(), 3, "primary + 2 replicas");
    }
}
