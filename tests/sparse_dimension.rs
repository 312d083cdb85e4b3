//! Regression: a 48-dimensional cube must construct in O(1) and serve
//! inserts, pin lookups, and superset queries end-to-end.
//!
//! The protocol simulation used to allocate two dense `2^r` table
//! vectors plus one endpoint per vertex at construction — `r = 48`
//! meant ~2.3 PB of `Vec` headers before the first insert. Vertex
//! state is now materialized lazily in sparse maps keyed by vertex
//! bits, so memory follows the corpus footprint, not the cube size.

use hyperdex::core::sim_protocol::ProtocolSim;
use hyperdex::core::{HypercubeIndex, KeywordSet, ObjectId, SupersetQuery};
use hyperdex::simnet::latency::LatencyModel;

const R: u8 = 48;

fn set(s: &str) -> KeywordSet {
    KeywordSet::parse(s).expect("valid keywords")
}

fn oid(n: u64) -> ObjectId {
    ObjectId::from_raw(n)
}

/// A small corpus where every object shares one keyword, so a single
/// superset query must recover all of it.
fn corpus() -> Vec<(u64, KeywordSet)> {
    (0..60)
        .map(|i| (i, set(&format!("shared topic{} item{i}", i % 7))))
        .collect()
}

#[test]
fn r48_sim_constructs_sparse_and_serves_insert_and_superset() {
    // Construction itself is the regression: dense allocation at
    // r = 48 would abort long before any assertion ran.
    let mut sim = ProtocolSim::new(R, 7, LatencyModel::constant(1)).expect("r = 48 is legal now");
    for (id, k) in corpus() {
        sim.insert(oid(id), k).expect("non-empty");
    }

    // Pin search is one request and one reply, whatever the cube size.
    for (id, k) in corpus() {
        let pin = sim.pin_search(&k);
        assert_eq!(pin.results, vec![oid(id)], "pin {k}");
        assert_eq!(pin.messages, 2, "pin {k}");
    }

    // The simulator walks as published, so at r = 48 a threshold is
    // what bounds a superset search: `shared` induces a 2^47-vertex
    // subcube, but every object lies within two levels of its root and
    // the walk stops at the first one it reaches.
    let out = sim.search_sequential(&set("shared"), 1).expect("valid");
    assert_eq!(out.results.len(), 1);
    assert!(out.results[0].object.raw() < 60);
    // An object's own keyword set is answered by its root alone.
    let exact = sim
        .search_sequential(&set("shared topic3 item3"), 1)
        .expect("valid");
    let exact_ids: Vec<ObjectId> = exact.results.iter().map(|r| r.object).collect();
    assert_eq!(exact_ids, vec![oid(3)]);
    assert_eq!(exact.nodes_contacted, 1);

    // Sparse footprint: far fewer vertices (and endpoints) materialized
    // than the 2^48 a dense layout would demand — bounded by corpus
    // placements plus the vertices the bounded walks touched.
    assert!(
        sim.materialized_vertices() < 4_096,
        "materialized {} vertices",
        sim.materialized_vertices()
    );
    assert!(
        sim.network().endpoint_count() < 4_096,
        "allocated {} endpoints",
        sim.network().endpoint_count()
    );
}

#[test]
fn r48_direct_engine_serves_pin_and_superset() {
    let mut idx = HypercubeIndex::new(R, 7).expect("valid");
    for (id, k) in corpus() {
        idx.insert(oid(id), k).expect("non-empty");
    }
    // Pin search is a single-vertex lookup — cube size is irrelevant.
    let pin = idx.pin_search(&set("shared topic3 item3"));
    assert_eq!(pin.results, vec![oid(3)]);
    assert_eq!(pin.stats.nodes_contacted, 1);

    // The default superset search prunes: it stays within the
    // occupied subtrees.
    let out = idx
        .superset_search(&SupersetQuery::new(set("shared")))
        .expect("valid");
    assert_eq!(out.results.len(), 60, "full recall at r = 48");
}

#[test]
fn churn_runs_at_sparse_dimensions() {
    // Ownership reconciliation used to sweep all 2^r vertices per
    // round, capping churn at r <= 16. The sparse tracked-set port
    // walks only occupied/faulted vertices, so the full r = 48 cube
    // enables churn and converges without materializing anything
    // proportional to 2^48.
    let mut sim = ProtocolSim::new(R, 7, LatencyModel::constant(1)).expect("valid");
    for (id, k) in corpus() {
        sim.insert(oid(id), k).expect("non-empty");
    }
    sim.enable_churn(
        &hyperdex::simnet::churn::ChurnPlan::default(),
        hyperdex::core::churn::StabilizationConfig::default(),
        &[1, 2],
    )
    .expect("churn at r = 48 is no longer capped");
    sim.run_churn_to_quiescence();
    let st = sim.churn().expect("enabled");
    assert!(st.converged());
    assert!((st.consistency() - 1.0).abs() < f64::EPSILON);
}
