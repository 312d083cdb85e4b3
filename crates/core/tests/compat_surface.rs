//! The `StoreBackend` positions `benchmark/` spells, written exactly
//! as it writes them. `benchmark/` is its own workspace, so nothing in
//! tier-1 compiles it: this file is what breaks when a cleanup removes
//! a shim the benchmark still names. Delete it together with the shims
//! in the `benchmark` PR that stops naming them.

use hyperdex_core::{
    HypercubeIndex, KeywordSearchService, KeywordSet, ObjectId, PostingStore, ProtocolSim,
    StoreBackend,
};
use hyperdex_simnet::latency::LatencyModel;

#[test]
fn every_store_backend_position_still_compiles_and_selects_nothing() {
    let set = KeywordSet::parse("a b").expect("non-empty words");
    let object = ObjectId::from_raw(1);

    let mut store = PostingStore::new(StoreBackend::Slab);
    store.insert(set.clone(), object);
    assert_eq!(store.object_count(), 1);

    let mut index = HypercubeIndex::with_store(10, 1, StoreBackend::Slab).expect("valid r");
    index.insert(object, set.clone()).expect("non-empty set");
    assert_eq!(index.pin_search(&set).results, vec![object]);

    let mut sim = ProtocolSim::with_store(10, 1, LatencyModel::constant(1), StoreBackend::Slab)
        .expect("valid dimension");
    sim.insert(object, set.clone()).expect("non-empty set");
    assert_eq!(sim.pin_search(&set).results, vec![object]);

    let mut service = KeywordSearchService::builder()
        .nodes(64)
        .dimension(10)
        .seed(1)
        .store(StoreBackend::Slab)
        .build()
        .expect("valid dimension");
    let from = service.random_node();
    assert!(service.pin_search(from, &set).outcome.results.is_empty());
}
