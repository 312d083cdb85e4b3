//! The runtime over real processes: the loopback cluster must return
//! the direct engine's answers, id for id in order — at workers ∈ {1,2,4}
//! and r ∈ {8,12}, including cells where several shards share one
//! process — with the cross-process frame ledger balancing on every
//! shutdown. (That the machine answers as `ProtocolSim` does is the
//! runtime's machine suite's to show; what is asserted here is what
//! processes and sockets add.) A final cell crashes a worker mid-run and
//! grades every fault-tolerant answer against the direct engine.

use std::path::PathBuf;
use std::time::Duration;

use hyperdex_core::{HypercubeIndex, KeywordSet, ObjectId, SupersetQuery};
use hyperdex_net::client::NetClient;
use hyperdex_net::cluster::{Cluster, ClusterConfig};
use hyperdex_runtime::CrashPoint;
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

/// A generated corpus plus a query mix of broad, thresholded, and
/// definitely-missing sets, sized down because each cell pays real
/// process startup.
#[allow(clippy::type_complexity)]
fn workload(seed: u64, objects: usize) -> (Vec<(ObjectId, KeywordSet)>, Vec<(KeywordSet, usize)>) {
    let corpus = Corpus::generate(&CorpusConfig::pchome().with_objects(objects), seed);
    let log = QueryLog::generate(&QueryLogConfig::small_test(), &corpus, seed.wrapping_add(1));
    let entries: Vec<(ObjectId, KeywordSet)> = corpus
        .indexable()
        .map(|(id, kw)| (id, kw.clone()))
        .collect();
    let mut queries: Vec<(KeywordSet, usize)> = Vec::new();
    for kw in log.popular_of_size(1, 3) {
        queries.push((kw.clone(), usize::MAX - 1));
        queries.push((kw, 3));
    }
    for kw in log.popular_of_size(2, 3) {
        queries.push((kw, usize::MAX - 1));
    }
    queries.push((KeywordSet::parse("no such keyword anywhere").unwrap(), 10));
    assert!(queries.len() >= 6, "query mix shrank");
    (entries, queries)
}

/// A loopback cluster shaped by `cfg`, running the server binary Cargo
/// built alongside this test, loaded with `corpus`.
fn loaded(mut cfg: ClusterConfig, corpus: &[(ObjectId, KeywordSet)]) -> (Cluster, NetClient) {
    cfg.server_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_hyperdex-server")));
    let cluster = Cluster::launch(cfg).expect("cluster launch");
    let mut client = cluster.client().expect("cluster client");
    for (object, keywords) in corpus {
        client.insert(*object, keywords.clone()).expect("insert");
    }
    client.flush().expect("flush barrier");
    (cluster, client)
}

/// The direct engine over `corpus`.
fn direct(r: u8, seed: u64, corpus: &[(ObjectId, KeywordSet)]) -> HypercubeIndex {
    let mut index = HypercubeIndex::new(r, seed).expect("valid r");
    for (object, keywords) in corpus {
        index.insert(*object, keywords.clone()).expect("non-empty");
    }
    index
}

/// Sorted, deduplicated id list — the set pin parity compares.
fn ids(objects: impl Iterator<Item = ObjectId>) -> Vec<ObjectId> {
    let mut out: Vec<ObjectId> = objects.collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The direct engine's answer, in its order.
fn direct_superset(index: &mut HypercubeIndex, keywords: &KeywordSet, t: usize) -> Vec<ObjectId> {
    let query = SupersetQuery::new(keywords.clone()).threshold(t);
    let out = index.superset_search(&query).expect("valid query");
    out.results.iter().map(|m| m.object).collect()
}

/// Runs `corpus` and `queries` through a `servers`-process cluster of
/// `workers` shards and panics unless every superset answer equals the
/// direct engine's id for id, in order, every pin result its id set,
/// and the ledger closes at shutdown.
fn assert_tcp_parity(
    r: u8,
    seed: u64,
    workers: u32,
    servers: u32,
    corpus: &[(ObjectId, KeywordSet)],
    queries: &[(KeywordSet, usize)],
) {
    let mut index = direct(r, seed, corpus);
    let (cluster, mut client) = loaded(ClusterConfig::new(r, seed, workers, servers), corpus);
    let cell = format!("r={r} seed={seed} workers={workers} servers={servers}");
    for (keywords, threshold) in queries {
        let found = client
            .superset_search(keywords, *threshold)
            .expect("superset over TCP");
        assert_eq!(
            found.iter().map(|m| m.object).collect::<Vec<_>>(),
            direct_superset(&mut index, keywords, *threshold),
            "net/direct superset divergence: {cell} K={keywords:?}"
        );
        let pinned = client.pin_search(keywords).expect("pin over TCP");
        assert_eq!(
            ids(pinned.into_iter()),
            ids(index.pin_search(keywords).results.into_iter()),
            "net/direct pin divergence: {cell} K={keywords:?}"
        );
    }
    cluster
        .shutdown(client)
        .expect("cluster shutdown")
        .assert_conserved();
}

#[test]
fn single_process_single_worker_matches_the_direct_engine() {
    let (corpus, queries) = workload(42, 160);
    assert_tcp_parity(8, 42, 1, 1, &corpus, &queries);
}

#[test]
fn two_processes_two_workers_match_at_r8_and_r12() {
    for (r, seed) in [(8u8, 42u64), (12, 7)] {
        let (corpus, queries) = workload(seed, 160);
        assert_tcp_parity(r, seed, 2, 2, &corpus, &queries);
    }
}

#[test]
fn placement_agrees_across_two_processes() {
    // Placement must be invisible to results over TCP too: client and
    // servers all build the same map.
    let (corpus, queries) = workload(7, 120);
    assert_tcp_parity(8, 7, 4, 2, &corpus, &queries);
}

#[test]
fn four_workers_across_two_processes_share_shards_per_process() {
    // workers > servers: two shards per process, so frames travel both
    // in-process channels and the TCP mesh within one run.
    let (corpus, queries) = workload(1234, 160);
    assert_tcp_parity(12, 1234, 4, 2, &corpus, &queries);
}

#[test]
fn four_processes_four_workers_match_at_r8_and_r12() {
    for (r, seed) in [(8u8, 99u64), (12, 1234)] {
        let (corpus, queries) = workload(seed, 160);
        assert_tcp_parity(r, seed, 4, 4, &corpus, &queries);
    }
}

/// `machine/parity.rs`'s `ONE_ANSWER`: the answer the direct engine,
/// `ProtocolSim` and the mesh give the r = 8, seed 42 corpus of 400
/// objects for its most popular keyword at t = 12.
const ONE_ANSWER: [u64; 12] = [196, 161, 223, 267, 288, 336, 9, 67, 344, 347, 73, 391];

#[test]
fn two_servers_give_every_executors_answer() {
    let (corpus, queries) = workload(42, 400);
    let keywords = &queries[0].0;
    let (cluster, mut client) = loaded(ClusterConfig::new(8, 42, 2, 2), &corpus);
    let found = client
        .superset_search(keywords, ONE_ANSWER.len())
        .expect("superset over TCP");
    let answer: Vec<u64> = found.iter().map(|m| m.object.raw()).collect();
    assert_eq!(answer, ONE_ANSWER);
    let mut index = direct(8, 42, &corpus);
    let direct = direct_superset(&mut index, keywords, ONE_ANSWER.len());
    assert_eq!(direct, ONE_ANSWER.map(ObjectId::from_raw));
    cluster
        .shutdown(client)
        .expect("cluster shutdown")
        .assert_conserved();
}

/// A crash is the one fault that crosses processes, so every answer is
/// graded against the direct engine: a coordinator retries an owner
/// that restarted until it answers, so an answer is the engine's id
/// set exactly. The one query a crash can swallow — the worker that
/// dropped it was coordinating it — is never answered, and times out.
#[test]
fn crashed_worker_recovers_over_tcp_and_the_ledger_still_balances() {
    let (corpus, queries) = workload(42, 120);
    let mut index = direct(8, 42, &corpus);
    let mut cfg = ClusterConfig::new(8, 42, 4, 2);
    cfg.net.request_timeout = Duration::from_secs(3);
    // Worker 1 dies on its 3rd query-path frame and restarts in place
    // from its own load log.
    cfg.crash = Some(CrashPoint {
        worker: 1,
        after_query_frames: 3,
    });
    let (cluster, mut client) = loaded(cfg, &corpus);
    let mut answered = 0;
    for (keywords, _) in &queries {
        let Ok(found) = client.superset_search(keywords, usize::MAX - 1) else {
            continue;
        };
        answered += 1;
        let truth = direct_superset(&mut index, keywords, usize::MAX - 1);
        let got: Vec<ObjectId> = found.iter().map(|m| m.object).collect();
        assert_eq!(got, truth, "{keywords}: an answer diverged");
    }
    assert!(
        answered + 1 >= queries.len(),
        "{answered} of {} queries answered",
        queries.len()
    );

    let report = cluster.shutdown(client).expect("shutdown");
    report.assert_conserved();
    assert!(
        report.supervisor.respawns >= 1,
        "the scheduled crash never fired: {report:?}"
    );
}
