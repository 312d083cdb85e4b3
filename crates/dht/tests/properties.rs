//! Property-based tests for ring invariants and DOLR behaviour.

use hyperdex_dht::{keyhash, Dolr, NodeId, ObjectId, Ring, Router};
use proptest::prelude::*;

fn id(n: u64) -> NodeId {
    NodeId::from_raw(n)
}

fn ring(ids: &[u64]) -> Ring {
    ring_of(ids.iter().copied().map(id))
}

fn ring_of(ids: impl IntoIterator<Item = NodeId>) -> Ring {
    let mut ring = Ring::new();
    for id in ids {
        ring.join(id);
    }
    ring
}

/// The member before `id` counter-clockwise, wrapping; `None` if `id`
/// is not a member.
fn predecessor(ring: &Ring, id: NodeId) -> Option<NodeId> {
    if !ring.iter().any(|m| m == id) {
        return None;
    }
    ring.iter()
        .filter(|&m| m < id)
        .last()
        .or_else(|| ring.iter().last())
}

/// Whether `owner` is responsible for `key`: `key ∈ (pred(owner),
/// owner]` — the ownership rule the surrogate must agree with.
fn owns(ring: &Ring, owner: NodeId, key: NodeId) -> bool {
    match predecessor(ring, owner) {
        None => false,
        Some(pred) if pred == owner => true, // 1-node ring owns all
        Some(pred) => key.in_interval(pred, owner),
    }
}

#[test]
fn predecessor_wraps() {
    let r = ring(&[10, 100, 200]);
    assert_eq!(predecessor(&r, id(100)), Some(id(10)));
    assert_eq!(predecessor(&r, id(10)), Some(id(200)));
    assert_eq!(predecessor(&r, id(42)), None);
}

#[test]
fn ownership_intervals() {
    let r = ring(&[10, 100, 200]);
    // Node 100 owns (10, 100].
    assert!(owns(&r, id(100), id(11)));
    assert!(owns(&r, id(100), id(100)));
    assert!(!owns(&r, id(100), id(10)));
    assert!(!owns(&r, id(100), id(150)));
    // Node 10 owns the wrapping range (200, 10].
    assert!(owns(&r, id(10), id(250)));
    assert!(owns(&r, id(10), id(5)));
}

#[test]
fn single_node_owns_everything() {
    let r = ring(&[77]);
    assert!(owns(&r, id(77), id(0)));
    assert!(owns(&r, id(77), id(u64::MAX)));
}

#[test]
fn every_key_has_exactly_one_owner() {
    let r = ring(&[10, 100, 200, 5000]);
    for key in [0u64, 10, 11, 99, 100, 150, 200, 4999, 5000, 9999, u64::MAX] {
        let owners: Vec<NodeId> = r.iter().filter(|&n| owns(&r, n, id(key))).collect();
        assert_eq!(owners.len(), 1, "key {key} owners {owners:?}");
        assert_eq!(owners[0], r.surrogate(id(key)).unwrap());
    }
}

fn ids(seed: u64, n: usize) -> Vec<NodeId> {
    (0..n as u64)
        .map(|i| NodeId::from_raw(keyhash::stable_hash_u64(i, seed)))
        .collect()
}

proptest! {
    /// Every key has exactly one owner, and it is the surrogate.
    #[test]
    fn unique_ownership(seed in any::<u64>(), n in 1usize..40, key in any::<u64>()) {
        let ring = ring_of(ids(seed, n));
        let key = NodeId::from_raw(key);
        let owners: Vec<NodeId> = ring.iter().filter(|&m| owns(&ring, m, key)).collect();
        prop_assert_eq!(owners.len(), 1);
        prop_assert_eq!(owners[0], ring.surrogate(key).unwrap());
    }

    /// successor and predecessor are inverse on members.
    #[test]
    fn successor_predecessor_inverse(seed in any::<u64>(), n in 2usize..40) {
        let ring = ring_of(ids(seed, n));
        for m in ring.iter() {
            let s = ring.successor(m).unwrap();
            prop_assert_eq!(predecessor(&ring, s), Some(m));
        }
    }

    /// Routing always terminates at the surrogate within n hops.
    #[test]
    fn routing_terminates(seed in any::<u64>(), n in 1usize..64, key in any::<u64>()) {
        let ring = ring_of(ids(seed, n));
        let router = Router::build(&ring);
        let from = ring.iter().next().unwrap();
        let key = NodeId::from_raw(key);
        let path = router.path(from, key);
        prop_assert!(path.len() <= n + 1);
        prop_assert_eq!(*path.last().unwrap(), ring.surrogate(key).unwrap());
        // No node repeats on the path.
        let mut seen = std::collections::HashSet::new();
        for hop in &path {
            prop_assert!(seen.insert(*hop), "loop through {hop}");
        }
    }

    /// Insert → read returns the inserted owner; delete removes it.
    #[test]
    fn insert_read_delete(seed in any::<u64>(), n in 1usize..32, name in "[a-z]{1,12}") {
        let mut dht = Dolr::builder().nodes(n).seed(seed).build();
        let obj = ObjectId::from_name(&name);
        let publisher = dht.random_node();
        dht.insert(publisher, obj, publisher);
        let read = dht.read(publisher, obj).unwrap();
        prop_assert!(read.refs.iter().any(|r| r.owner == publisher));
        dht.delete(publisher, obj, publisher);
        prop_assert!(dht.read(publisher, obj).is_none());
    }

    /// Churn (graceful leave) never loses data.
    #[test]
    fn graceful_churn_preserves(seed in any::<u64>(), n in 4usize..24, leaves in 1usize..3) {
        let mut dht = Dolr::builder().nodes(n).seed(seed).build();
        let publisher = dht.random_node();
        let objs: Vec<ObjectId> =
            (0..30).map(|i| ObjectId::from_raw(i * 7 + 1)).collect();
        for &o in &objs {
            dht.insert(publisher, o, publisher);
        }
        for k in 0..leaves.min(n - 1) {
            let victim = dht.ring().iter().nth(k + 1).unwrap();
            dht.leave(victim);
        }
        let reader = dht.random_node();
        for &o in &objs {
            prop_assert!(dht.read(reader, o).is_some(), "lost {o}");
        }
    }

    /// Arbitrary seeded membership sequences keep the key space an exact
    /// partition: after every join/leave step, each probed key has
    /// exactly one live owner, and it is the surrogate.
    #[test]
    fn membership_sequences_partition_key_space(
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u64>(), any::<bool>()), 1..40),
        key in any::<u64>(),
    ) {
        let mut ring = Ring::new();
        for (i, &(raw, join)) in ops.iter().enumerate() {
            // Hash the raw op id so ids spread over the whole ring.
            let node = NodeId::from_raw(keyhash::stable_hash_u64(raw, seed));
            if join {
                ring.join(node);
            } else {
                ring.leave(node);
            }
            let probe = NodeId::from_raw(key.wrapping_add(i as u64));
            let owners: Vec<NodeId> =
                ring.iter().filter(|&m| owns(&ring, m, probe)).collect();
            if ring.is_empty() {
                prop_assert!(owners.is_empty());
                prop_assert_eq!(ring.surrogate(probe), None);
            } else {
                prop_assert_eq!(owners.len(), 1, "step {}: owners {:?}", i, owners);
                prop_assert_eq!(owners[0], ring.surrogate(probe).unwrap());
            }
        }
    }

    /// successor_list never returns duplicates, even when k is at least
    /// the ring size or the ring has a single node.
    #[test]
    fn successor_list_no_duplicates(seed in any::<u64>(), n in 1usize..20, k in 0usize..64) {
        let ring = ring_of(ids(seed, n));
        let size = ring.len();
        for m in ring.iter() {
            let list = ring.successor_list(m, k);
            let mut dedup = list.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), list.len(), "duplicates in {:?}", list);
            prop_assert!(!list.contains(&m), "successor list contains self");
            prop_assert!(list.len() <= k.min(size.saturating_sub(1)));
            if size == 1 {
                prop_assert!(list.is_empty(), "single-node ring has no successors");
            }
        }
    }

    /// With replication k, data survives k crashes of arbitrary nodes.
    #[test]
    fn replicated_crash_tolerance(seed in any::<u64>(), n in 6usize..20) {
        let k = 2usize;
        let mut dht = Dolr::builder().nodes(n).seed(seed).replication(k).build();
        let publisher = dht.random_node();
        let obj = ObjectId::from_raw(99);
        dht.insert(publisher, obj, publisher);
        for _ in 0..k {
            let primary = dht.locate(obj);
            dht.crash(primary);
            let reader = dht.random_node();
            prop_assert!(dht.read(reader, obj).is_some(), "lost after crash");
        }
    }
}
