//! The serving-path result cache across real processes: a two-process
//! loopback cluster answers a skewed request list with the same frames
//! and the same cache decisions on every run, its answers equal the
//! threaded runtime's, and the per-worker cache counters survive the
//! `WSTATS` report line into the cluster's `ShutdownReport`.

use std::collections::HashMap;
use std::path::PathBuf;

use hyperdex_core::cache::CacheCounters;
use hyperdex_core::{KeywordSet, ObjectId};
use hyperdex_net::cluster::{Cluster, ClusterConfig};
use hyperdex_runtime::{Request, ShutdownReport};
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

const R: u8 = 8;
const SEED: u64 = 42;
const WINDOW: usize = 32;

/// A corpus and a skewed request list over a dozen popular queries
/// (the recipe of the runtime crate's `result_cache` suite).
fn hot_workload() -> (Vec<(ObjectId, KeywordSet)>, Vec<Request>) {
    let corpus = Corpus::generate(&CorpusConfig::pchome().with_objects(2_000), SEED);
    let log = QueryLog::generate(&QueryLogConfig::small_test(), &corpus, SEED + 1);
    let entries = corpus.indexable().map(|(id, k)| (id, k.clone())).collect();
    let mut hot = log.popular_of_size(1, 6);
    hot.extend(log.popular_of_size(2, 6));
    let mut x = 0x9E37_79B9u64;
    let requests = (0..400)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let u = (x >> 33) as usize % 144;
            Request::Superset {
                keywords: hot[(u as f64).sqrt() as usize % hot.len()].clone(),
                threshold: 20,
            }
        })
        .collect();
    (entries, requests)
}

/// What must repeat exactly: hits and coalesced waits are summed,
/// because which of the two a repeat becomes is a race by design.
fn fingerprint(report: &ShutdownReport) -> (u64, Vec<(u64, u64, u64, u64)>) {
    let per_worker = report
        .workers
        .iter()
        .map(|w| {
            (
                w.cache_hits + w.cache_coalesced,
                w.cache_misses,
                w.cache_stale,
                w.cache_evictions,
            )
        })
        .collect();
    (report.total_sent(), per_worker)
}

fn sorted(ids: &[ObjectId]) -> Vec<ObjectId> {
    let mut ids = ids.to_vec();
    ids.sort_unstable();
    ids
}

fn over_tcp(
    entries: &[(ObjectId, KeywordSet)],
    requests: &[Request],
) -> (Vec<Vec<ObjectId>>, ShutdownReport) {
    let mut cfg = ClusterConfig::new(R, SEED, 2, 2);
    cfg.server_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_hyperdex-server")));
    let cluster = Cluster::launch(cfg).expect("cluster launch");
    let mut client = cluster.client().expect("client");
    for (object, keywords) in entries {
        client.insert(*object, keywords.clone()).expect("insert");
    }
    client.flush().expect("flush");
    let answers = client
        .run_batch(requests, WINDOW)
        .expect("batch")
        .iter()
        .map(|b| sorted(&b.objects))
        .collect();
    let report = cluster.shutdown(client).expect("shutdown");
    report.assert_conserved();
    assert_eq!(report.in_flight(), 0);
    (answers, report)
}

#[test]
fn two_processes_repeat_their_frames_and_cache_decisions() {
    let (entries, requests) = hot_workload();
    let (answers, first) = over_tcp(&entries, &requests);
    let (again, second) = over_tcp(&entries, &requests);
    assert_eq!(fingerprint(&first), fingerprint(&second));
    assert_eq!(answers, again);

    let mut cache = CacheCounters::default();
    for w in &first.workers {
        cache.hits += w.cache_hits;
        cache.misses += w.cache_misses;
        cache.coalesced += w.cache_coalesced;
        cache.stale += w.cache_stale;
    }
    assert_eq!(
        cache.hits + cache.coalesced + cache.misses + cache.stale,
        requests.len() as u64,
        "every query is exactly one outcome: {cache:?}"
    );
    assert!(
        (cache.hits + cache.coalesced) * 2 > requests.len() as u64,
        "a dozen hot queries must mostly repeat: {cache:?}"
    );
    // Every arrival of a query lands on its root's owner, and a cache
    // with room admits a first sighting: the cluster walks a repeated
    // query once, not once per worker.
    let mut arrivals: HashMap<&KeywordSet, u64> = HashMap::new();
    for request in &requests {
        let Request::Superset { keywords, .. } = request else {
            unreachable!("only supersets were built");
        };
        *arrivals.entry(keywords).or_default() += 1;
    }
    assert_eq!(
        cache.misses,
        arrivals.values().map(|&count| count.min(1)).sum::<u64>(),
        "a repeated query was admitted on more than one worker: {cache:?}"
    );
}
