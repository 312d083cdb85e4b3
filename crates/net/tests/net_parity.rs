//! Four-executor parity over real processes: the loopback cluster must
//! return result sets identical to the direct engine, the
//! message-level sim, and the threaded runtime — at workers ∈ {1,2,4}
//! and r ∈ {8,12}, including a cell where several shards share one
//! process — with the cross-process frame ledger balancing on every
//! shutdown. A final cell crashes a worker mid-run and checks its
//! restart end to end over TCP.

use std::path::PathBuf;

use hyperdex_core::{KeywordSet, ObjectId};
use hyperdex_net::cluster::{Cluster, ClusterConfig};
use hyperdex_net::parity::assert_net_parity;
use hyperdex_runtime::fault::CrashPoint;
use hyperdex_runtime::runtime::FtSearchOptions;
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

/// The server binary Cargo built alongside this test.
fn server_bin() -> Option<PathBuf> {
    Some(PathBuf::from(env!("CARGO_BIN_EXE_hyperdex-server")))
}

/// A generated corpus plus a query mix of broad, thresholded, and
/// definitely-missing sets — same recipe as the runtime parity suite,
/// sized down because each cell pays real process startup.
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
    (entries, queries)
}

#[test]
fn single_process_single_worker_matches_all_executors() {
    let (corpus, queries) = workload(42, 160);
    let report = assert_net_parity(8, 42, 1, 1, &corpus, &queries, server_bin());
    assert!(report.queries_checked >= 6, "query mix shrank");
    assert_eq!(report.shutdown.in_flight(), 0);
}

#[test]
fn two_processes_two_workers_match_at_r8_and_r12() {
    for (r, seed) in [(8u8, 42u64), (12, 7)] {
        let (corpus, queries) = workload(seed, 160);
        let report = assert_net_parity(r, seed, 2, 2, &corpus, &queries, server_bin());
        assert!(report.queries_checked >= 6);
        assert_eq!(report.shutdown.in_flight(), 0);
    }
}

#[test]
fn placement_agrees_across_two_processes() {
    // Placement must be invisible to results over TCP too: client,
    // servers, and the in-process executors all build the same map.
    let (corpus, queries) = workload(7, 120);
    let report = assert_net_parity(8, 7, 4, 2, &corpus, &queries, server_bin());
    assert!(report.queries_checked >= 6);
    assert_eq!(report.shutdown.in_flight(), 0);
}

#[test]
fn four_workers_across_two_processes_share_shards_per_process() {
    // workers > servers: two shards per process, so frames travel both
    // in-process channels and the TCP mesh within one run.
    let (corpus, queries) = workload(1234, 160);
    let report = assert_net_parity(12, 1234, 4, 2, &corpus, &queries, server_bin());
    assert!(report.queries_checked >= 6);
    assert_eq!(report.shutdown.in_flight(), 0);
}

#[test]
fn four_processes_four_workers_match_at_r8_and_r12() {
    for (r, seed) in [(8u8, 99u64), (12, 1234)] {
        let (corpus, queries) = workload(seed, 160);
        let report = assert_net_parity(r, seed, 4, 4, &corpus, &queries, server_bin());
        assert!(report.queries_checked >= 6);
        assert_eq!(report.shutdown.in_flight(), 0);
    }
}

#[test]
fn crashed_worker_recovers_over_tcp_and_the_ledger_still_balances() {
    let (corpus, queries) = workload(42, 120);
    let mut cfg = ClusterConfig::new(8, 42, 4, 2);
    cfg.server_bin = server_bin();
    // Worker 1 dies on its 3rd query-path frame and restarts in place
    // from its own load log.
    cfg.crash = Some(CrashPoint {
        worker: 1,
        after_query_frames: 3,
    });
    let cluster = Cluster::launch(cfg).expect("cluster launch");
    let mut client = cluster.client().expect("client");
    for (object, keywords) in &corpus {
        client.insert(*object, keywords.clone()).expect("insert");
    }
    client.flush().expect("flush");

    let opts = FtSearchOptions::default();
    let mut answered = 0;
    for (keywords, _) in &queries {
        let out = client
            .superset_search_ft(keywords, usize::MAX - 1, &opts)
            .expect("ft search");
        if out.coverage.is_some() {
            answered += 1;
        }
    }
    assert!(answered > 0, "no FT query ever completed");

    let report = cluster.shutdown(client).expect("shutdown");
    report.assert_conserved();
    assert!(
        report.supervisor.respawns >= 1,
        "the scheduled crash never fired: {report:?}"
    );
    assert_eq!(report.in_flight(), 0);
}
