//! Parity between the direct search engine and the message-level
//! protocol execution, on a realistic corpus — plus replicated-index
//! failover end-to-end.

use hyperdex::core::replication::ReplicatedIndex;
use hyperdex::core::sim_protocol::ProtocolSim;
use hyperdex::core::{HypercubeIndex, KeywordSet, ObjectId, SupersetQuery};
use hyperdex::simnet::latency::LatencyModel;
use hyperdex::simnet::rng::SimRng;
use hyperdex::workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

fn corpus() -> Corpus {
    Corpus::generate(&CorpusConfig::small_test().with_objects(1_500), 21)
}

#[test]
fn message_protocol_matches_direct_engine_on_corpus() {
    let corpus = corpus();
    let log = QueryLog::generate(&QueryLogConfig::small_test(), &corpus, 22);
    let mut direct = HypercubeIndex::new(9, 0).expect("valid");
    let mut sim = ProtocolSim::new(9, 0, LatencyModel::constant(1)).expect("valid");
    for (id, k) in corpus.indexable() {
        direct.insert(id, k.clone()).expect("non-empty");
        sim.insert(id, k.clone()).expect("non-empty");
    }
    for q in log.pool().iter().take(25) {
        // The simulator's default is the protocol as published; the
        // direct engine is held to the same walk.
        let published = SupersetQuery::new(q.clone()).prune(false);
        let d = direct.superset_search(&published).expect("valid");
        let s = sim.search_sequential(q, usize::MAX - 1).expect("valid");
        let mut d_ids: Vec<ObjectId> = d.results.iter().map(|r| r.object).collect();
        let mut s_ids: Vec<ObjectId> = s.results.iter().map(|r| r.object).collect();
        d_ids.sort_unstable();
        s_ids.sort_unstable();
        assert_eq!(d_ids, s_ids, "query {q}");
        assert_eq!(
            d.stats.nodes_contacted, s.nodes_contacted,
            "node-count parity for {q}"
        );
        assert_eq!(
            d.stats.query_messages, s.nodes_contacted,
            "one T_QUERY per contacted node"
        );
    }
}

#[test]
fn protocol_latency_reflects_execution_mode() {
    let corpus = corpus();
    let mut sim = ProtocolSim::new(10, 0, LatencyModel::constant(3)).expect("valid");
    for (id, k) in corpus.indexable() {
        sim.insert(id, k.clone()).expect("non-empty");
    }
    // Use a popular single keyword: a large subcube.
    let q = KeywordSet::parse("kw000000").expect("valid");
    let seq = sim.search_sequential(&q, usize::MAX - 1).expect("valid");
    let par = sim.search_parallel(&q, usize::MAX - 1).expect("valid");
    assert!(
        par.elapsed.ticks() * 4 < seq.elapsed.ticks(),
        "parallel ({}) should be several times faster than sequential ({})",
        par.elapsed.ticks(),
        seq.elapsed.ticks()
    );
    // Both exchange roughly the same number of query messages.
    assert_eq!(seq.nodes_contacted, par.nodes_contacted);
}

#[test]
fn replicated_index_survives_random_vertex_crashes() {
    let corpus = corpus();
    let mut idx = ReplicatedIndex::new(9, 0).expect("valid");
    for (id, k) in corpus.indexable() {
        idx.insert(id, k.clone()).expect("non-empty");
    }
    // Crash 40 random primary vertices.
    let loads: Vec<_> = idx.primary().node_loads();
    let mut rng = SimRng::new(5);
    let victims: Vec<_> = (0..40)
        .map(|_| loads[rng.gen_index(loads.len())].0)
        .collect();
    for v in victims {
        idx.fail_primary(v);
    }
    // Every object remains pin-findable through failover.
    for record in corpus.records().iter().take(300) {
        let out = idx.pin_search(&record.keywords);
        assert!(
            out.results.contains(&record.object_id()),
            "record {} lost despite replication",
            record.id
        );
    }
}

#[test]
fn replicated_superset_completeness_after_crashes() {
    let corpus = corpus();
    let mut idx = ReplicatedIndex::new(9, 0).expect("valid");
    for (id, k) in corpus.indexable() {
        idx.insert(id, k.clone()).expect("non-empty");
    }
    let q = KeywordSet::parse("kw000000").expect("valid");
    let truth = idx.primary().matching_count(&q);
    // Crash the three heaviest primary nodes in the query's subcube.
    let root = idx.primary().vertex_for(&q);
    let mut in_cube: Vec<_> = idx
        .primary()
        .node_loads()
        .into_iter()
        .filter(|&(v, _)| v.contains(root))
        .collect();
    in_cube.sort_by_key(|&(_, l)| std::cmp::Reverse(l));
    for &(v, _) in in_cube.iter().take(3) {
        idx.fail_primary(v);
    }
    let out = idx.superset_search(&SupersetQuery::new(q)).expect("valid");
    assert_eq!(
        out.results.len(),
        truth,
        "failover search must restore full recall"
    );
}
