//! Property-based tests of the DHT-backed service and the hash-mapping
//! invariants the scheme's correctness rests on.

use hyperdex_core::{KeywordHasher, KeywordSearchService, KeywordSet, ObjectId, SupersetQuery};
use proptest::prelude::*;

fn keyword_set() -> impl Strategy<Value = KeywordSet> {
    prop::collection::vec(0u8..20, 1..=5).prop_map(|words| {
        KeywordSet::from_strs(words.iter().map(|w| format!("w{w}"))).expect("non-empty words")
    })
}

proptest! {
    /// F_h is monotone: K ⊆ K' implies F_h(K') contains F_h(K) — the
    /// geometric property every search guarantee rests on.
    #[test]
    fn vertex_mapping_monotone(a in keyword_set(), b in keyword_set(), r in 2u8..16, seed in any::<u64>()) {
        let hasher = KeywordHasher::new(r, seed).expect("valid");
        let union = a.union(&b);
        prop_assert!(hasher.vertex_for(&union).contains(hasher.vertex_for(&a)));
        prop_assert!(hasher.vertex_for(&union).contains(hasher.vertex_for(&b)));
    }

    /// |One(F_h(K))| never exceeds |K| and is at least 1 for non-empty K.
    #[test]
    fn one_count_bounds(k in keyword_set(), r in 2u8..16, seed in any::<u64>()) {
        let hasher = KeywordHasher::new(r, seed).expect("valid");
        let ones = hasher.vertex_for(&k).one_count() as usize;
        prop_assert!(ones >= 1);
        prop_assert!(ones <= k.len());
    }

    /// Publish → pin-findable → withdraw → gone, through the full
    /// DHT-backed service, for arbitrary keyword sets.
    #[test]
    fn service_publish_search_withdraw(
        sets in prop::collection::vec(keyword_set(), 1..12),
        nodes in 2usize..24,
        seed in any::<u64>(),
    ) {
        let mut svc = KeywordSearchService::builder()
            .nodes(nodes)
            .dimension(8)
            .seed(seed)
            .build()
            .expect("valid configuration");
        let publisher = svc.random_node();
        for (i, k) in sets.iter().enumerate() {
            svc.publish(publisher, ObjectId::from_raw(i as u64), k.clone())
                .expect("publishable");
        }
        // Every object pin-findable.
        for (i, k) in sets.iter().enumerate() {
            let out = svc.pin_search(publisher, k);
            prop_assert!(out.outcome.results.contains(&ObjectId::from_raw(i as u64)));
        }
        // Superset search with the first keyword finds supersets only.
        let first: KeywordSet = sets[0].iter().take(1).collect();
        let out = svc
            .superset_search(publisher, &SupersetQuery::new(first.clone()))
            .expect("valid");
        for r in &out.outcome.results {
            prop_assert!(r.keyword_set.is_superset(&first));
        }
        // Withdraw everything; nothing remains findable.
        for (i, k) in sets.iter().enumerate() {
            svc.withdraw(publisher, ObjectId::from_raw(i as u64), k);
        }
        // An object's one index entry sits under its own keyword set.
        for k in &sets {
            prop_assert!(svc.pin_search(publisher, k).outcome.results.is_empty());
        }
    }

    /// matching_count (the oracle) equals the exhaustive search's result
    /// count — they are independent code paths.
    #[test]
    fn oracle_matches_search(
        sets in prop::collection::vec(keyword_set(), 1..20),
        query in keyword_set(),
    ) {
        let mut index = hyperdex_core::HypercubeIndex::new(8, 0).expect("valid");
        for (i, k) in sets.iter().enumerate() {
            index.insert(ObjectId::from_raw(i as u64), k.clone()).expect("non-empty");
        }
        let oracle = index.matching_count(&query);
        let found = index
            .superset_search(&SupersetQuery::new(query))
            .expect("valid")
            .results
            .len();
        prop_assert_eq!(oracle, found);
    }

    /// The replicated index survives the crash of every primary vertex
    /// it uses — any object remains findable by its own keyword set.
    #[test]
    fn replication_total_primary_wipe(sets in prop::collection::vec(keyword_set(), 1..10)) {
        let mut idx = hyperdex_core::replication::ReplicatedIndex::new(8, 0).expect("valid");
        // The primary cube hashes as a plain index of the same r and seed.
        let plain = hyperdex_core::HypercubeIndex::new(8, 0).expect("valid");
        for (i, k) in sets.iter().enumerate() {
            idx.insert(ObjectId::from_raw(i as u64), k.clone()).expect("non-empty");
        }
        let primaries: Vec<_> = sets.iter().map(|k| plain.vertex_for(k)).collect();
        for v in primaries {
            idx.fail_primary(v);
        }
        for (i, k) in sets.iter().enumerate() {
            let out = idx
                .superset_search(&hyperdex_core::SupersetQuery::new(k.clone()))
                .expect("valid");
            prop_assert!(
                out.results.iter().any(|r| r.object == ObjectId::from_raw(i as u64)),
                "object {i} lost after total primary wipe"
            );
        }
    }
}
