//! Fault-tolerance integration: churn, crashes, surrogate routing, and
//! the §3.4 claim that no single failure blocks a keyword's queries.

use hyperdex::core::sim_protocol::{FtSearchOutcome, ProtocolSim, RecoveryStrategy};
use hyperdex::core::{HypercubeIndex, KeywordHasher, KeywordSet, ObjectId, SupersetQuery};
use hyperdex::dht::{Dolr, NodeId};
use hyperdex::hypercube::Vertex;
use hyperdex::simnet::latency::LatencyModel;

#[test]
fn graceful_churn_preserves_all_references() {
    let mut dht = Dolr::builder().nodes(32).seed(1).build();
    let publisher = dht.random_node();
    let objects: Vec<ObjectId> = (0..200).map(ObjectId::from_raw).collect();
    for &obj in &objects {
        dht.insert(publisher, obj, publisher);
    }
    // Half the ring leaves gracefully.
    for _ in 0..16 {
        let victim = dht.ring().iter().nth(1).expect("nodes remain");
        dht.leave(victim);
    }
    let reader = dht.random_node();
    for &obj in &objects {
        assert!(dht.read(reader, obj).is_some(), "{obj} lost in churn");
    }
}

#[test]
fn joins_rebalance_without_losing_data() {
    let mut dht = Dolr::builder().nodes(8).seed(2).build();
    let publisher = dht.random_node();
    let objects: Vec<ObjectId> = (0..100).map(ObjectId::from_raw).collect();
    for &obj in &objects {
        dht.insert(publisher, obj, publisher);
    }
    for i in 0..24u64 {
        dht.join(NodeId::from_raw(i.wrapping_mul(0x0765_4321_FEDC_BA98)));
    }
    assert_eq!(dht.ring().len(), 32);
    let reader = dht.random_node();
    for &obj in &objects {
        assert!(dht.read(reader, obj).is_some(), "{obj} lost on join");
    }
}

#[test]
fn replication_covers_cascading_crashes() {
    let mut dht = Dolr::builder().nodes(24).seed(3).replication(3).build();
    let publisher = dht.random_node();
    let objects: Vec<ObjectId> = (0..50).map(ObjectId::from_raw).collect();
    for &obj in &objects {
        dht.insert(publisher, obj, publisher);
    }
    // Crash 10 nodes one at a time (re-replication runs after each).
    for _ in 0..10 {
        let victim = dht.ring().iter().last().expect("nodes remain");
        dht.crash(victim);
        let reader = dht.random_node();
        for &obj in &objects {
            assert!(dht.read(reader, obj).is_some(), "{obj} lost after crash");
        }
    }
}

#[test]
fn keyword_queries_survive_single_index_node_loss() {
    // §3.4: a popular keyword's objects spread over many vertices, so
    // deleting any single vertex's table loses only that vertex's
    // objects, never the whole keyword.
    let mut index = HypercubeIndex::new(8, 0).expect("valid");
    let common = "popular";
    let objects: Vec<(ObjectId, KeywordSet)> = (0..200)
        .map(|i| {
            (
                ObjectId::from_raw(i),
                KeywordSet::parse(&format!("{common} unique{i} extra{}", i % 7)).expect("parses"),
            )
        })
        .collect();
    for (id, k) in &objects {
        index.insert(*id, k.clone()).expect("non-empty");
    }
    let loads = index.node_loads();
    assert!(
        loads.len() > 10,
        "a popular keyword spreads over many vertices ({} here)",
        loads.len()
    );
    // Simulate losing the heaviest index vertex: remove its entries.
    let (heaviest, heavy_load) = loads
        .iter()
        .max_by_key(|&&(_, l)| l)
        .copied()
        .expect("non-empty");
    let lost: Vec<(ObjectId, KeywordSet)> = objects
        .iter()
        .filter(|(_, k)| index.vertex_for(k) == heaviest)
        .cloned()
        .collect();
    assert_eq!(lost.len(), heavy_load);
    for (id, k) in &lost {
        index.remove(*id, k);
    }
    // The keyword remains queryable; only the lost vertex's objects are
    // missing.
    let out = index
        .superset_search(&SupersetQuery::new(
            KeywordSet::parse(common).expect("parses"),
        ))
        .expect("valid");
    assert_eq!(out.results.len(), objects.len() - lost.len());
    assert!(
        out.results.len() > objects.len() / 2,
        "single node loss must not block the keyword"
    );
}

// ---------------------------------------------------------------------
// Message-level fault-tolerant superset search
// ---------------------------------------------------------------------

/// Unbounded-but-valid threshold (usize::MAX would be fine too; this
/// mirrors the unit tests).
const ALL: usize = usize::MAX >> 1;

fn set(s: &str) -> KeywordSet {
    KeywordSet::parse(s).expect("parses")
}

/// A populated 8-dimensional protocol simulation: 300 objects sharing
/// the keyword `common`, spread over the subcube by unique keywords.
fn protocol_sim(seed: u64) -> ProtocolSim {
    let mut sim = ProtocolSim::new(8, seed, LatencyModel::constant(1)).expect("valid");
    for i in 0..300u64 {
        let k = set(&format!("common unique{i} tag{}", i % 5));
        sim.insert(ObjectId::from_raw(i), k).expect("non-empty");
    }
    sim
}

/// The vertex `F_h(K)` a search for `keywords` starts at in
/// `protocol_sim(seed)`'s primary cube: the keyword hash of that
/// dimension and seed.
fn query_root(seed: u64, keywords: &str) -> Vertex {
    KeywordHasher::new(8, seed)
        .expect("valid")
        .vertex_for(&set(keywords))
}

fn sorted_ids(out: &FtSearchOutcome) -> Vec<ObjectId> {
    let mut v: Vec<ObjectId> = out.results.iter().map(|r| r.object).collect();
    v.sort_unstable();
    v
}

#[test]
fn lossy_search_with_retry_budget_matches_fault_free_run() {
    // Fault-free reference: even the naive strategy covers everything.
    let baseline = protocol_sim(7)
        .search_fault_tolerant(&set("common"), ALL, RecoveryStrategy::Naive)
        .expect("valid");
    let baseline_ids = sorted_ids(&baseline);
    assert!(!baseline_ids.is_empty(), "reference run must find objects");

    // Same index, 20% message loss, the simulator's retry budget.
    let mut sim = protocol_sim(7);
    sim.network_mut().faults_mut().set_drop_probability(0.2);
    let out = sim
        .search_fault_tolerant(&set("common"), ALL, RecoveryStrategy::RetryOnly)
        .expect("valid");
    assert_eq!(
        sorted_ids(&out),
        baseline_ids,
        "retries must recover the exact fault-free result set"
    );
    assert!(out.coverage.ft.retries > 0, "20% loss must trigger retries");
    assert_eq!(out.coverage.ft.reached, out.coverage.ft.subcube_vertices);
    assert!(out.coverage.ft.skipped.is_empty());
}

#[test]
fn crashed_subtree_root_is_fully_covered_by_redelegation() {
    // Kill the root's highest-dimension SBT child: its subtree is half
    // the query subcube — the worst single crash below the root.
    let mut sim = protocol_sim(7);
    let root = query_root(7, "common");
    let dead = root.flip(root.zero_positions().next_back().expect("has zeros"));
    let dead_ep = sim.endpoint_of(dead.bits());
    sim.network_mut().faults_mut().kill(dead_ep);

    let out = sim
        .search_fault_tolerant(&set("common"), ALL, RecoveryStrategy::Redelegate)
        .expect("valid");
    // Exactly the crashed vertex is lost; every vertex of its subtree
    // was re-delegated and answered.
    assert_eq!(out.coverage.ft.skipped, vec![dead.bits()]);
    assert_eq!(
        out.coverage.ft.reached,
        out.coverage.ft.subcube_vertices - 1
    );
    assert!(
        out.coverage.ft.redelegations >= 1,
        "subtree must be re-delegated"
    );

    // Contrast: retry-only abandons the whole half-cube. Endpoints are
    // materialized lazily per simulation, so the dead vertex must be
    // re-resolved in the fresh one.
    let mut sim = protocol_sim(7);
    let dead_ep = sim.endpoint_of(dead.bits());
    sim.network_mut().faults_mut().kill(dead_ep);
    let abandoned = sim
        .search_fault_tolerant(&set("common"), ALL, RecoveryStrategy::RetryOnly)
        .expect("valid");
    assert_eq!(
        abandoned.coverage.ft.skipped.len() as u64,
        out.coverage.ft.subcube_vertices / 2,
        "without re-delegation the dead child's half-cube is lost"
    );
}

#[test]
fn acceptance_crashes_plus_loss_terminate_with_exact_accounting() {
    // The headline scenario: fixed seed, 20% drop, three crashed
    // vertices inside the query subcube. The search must terminate,
    // cover every live vertex, and account exactly for the dead ones —
    // deterministically.
    let run = || {
        let mut sim = protocol_sim(11);
        let root = query_root(11, "common");
        let root_bits = root.bits();
        // Three proper superset vertices of the root (in its subcube).
        let crashed: Vec<u64> = (0..256u64)
            .filter(|&bits| bits != root_bits && bits & root_bits == root_bits)
            .take(3)
            .collect();
        assert_eq!(crashed.len(), 3, "subcube too small for the scenario");
        for &bits in &crashed {
            let ep = sim.endpoint_of(bits);
            sim.network_mut().faults_mut().kill(ep);
        }
        sim.network_mut().faults_mut().set_drop_probability(0.2);
        let out = sim
            .search_fault_tolerant(&set("common"), ALL, RecoveryStrategy::Redelegate)
            .expect("valid");

        // Terminated (we are here) with every live vertex covered:
        // skipped is exactly the crashed set.
        let mut expected = crashed.clone();
        expected.sort_unstable();
        assert_eq!(out.coverage.ft.skipped, expected);
        assert_eq!(
            out.coverage.ft.reached,
            out.coverage.ft.subcube_vertices - 3
        );
        assert!(out.coverage.ft.timeouts >= 3, "each dead vertex times out");
        assert!(out.coverage.ft.retries >= out.coverage.ft.timeouts);
        (sorted_ids(&out), out.coverage)
    };
    let (ids_a, cov_a) = run();
    let (ids_b, cov_b) = run();
    assert_eq!(ids_a, ids_b, "result set must be reproducible");
    assert_eq!(cov_a, cov_b, "coverage report must be reproducible");
}
