//! Runtime ↔ simulator ↔ direct-engine parity over generated
//! workloads.
//!
//! The ISSUE-5 contract: for a shared seed and corpus, the threaded
//! runtime returns set-identical pin and superset results to
//! `ProtocolSim` at r ∈ {8, 12} across at least three worker counts,
//! with frame conservation holding on every shutdown.

use hyperdex_core::{KeywordSet, ObjectId};
use hyperdex_runtime::{assert_sim_parity, NodeRuntime, Request, RuntimeConfig};
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

/// Worker counts under test.
const WORKER_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// A generated corpus plus a query mix of broad (|K| = 1), narrower
/// (|K| = 2), thresholded, and definitely-missing sets.
#[allow(clippy::type_complexity)]
fn workload(seed: u64, objects: usize) -> (Vec<(ObjectId, KeywordSet)>, Vec<(KeywordSet, usize)>) {
    let corpus = Corpus::generate(&CorpusConfig::pchome().with_objects(objects), seed);
    let log = QueryLog::generate(&QueryLogConfig::small_test(), &corpus, seed.wrapping_add(1));
    let entries: Vec<(ObjectId, KeywordSet)> = corpus
        .indexable()
        .map(|(id, kw)| (id, kw.clone()))
        .collect();

    let mut queries: Vec<(KeywordSet, usize)> = Vec::new();
    for kw in log.popular_of_size(1, 4) {
        queries.push((kw.clone(), usize::MAX - 1));
        // The same broad query under a binding threshold exercises the
        // early-stop path.
        queries.push((kw, 3));
    }
    for kw in log.popular_of_size(2, 4) {
        queries.push((kw, usize::MAX - 1));
    }
    queries.push((KeywordSet::parse("no such keyword anywhere").unwrap(), 10));
    (entries, queries)
}

#[test]
fn runtime_matches_sim_at_r8_across_worker_counts() {
    let (corpus, queries) = workload(42, 400);
    for workers in WORKER_COUNTS {
        let report = assert_sim_parity(8, 42, workers, &corpus, &queries);
        assert!(report.superset_checked >= 9, "query mix shrank");
        assert!(report.pin_checked >= 9);
        assert_eq!(report.shutdown.in_flight(), 0);
    }
}

#[test]
fn runtime_matches_sim_at_r12_across_worker_counts() {
    let (corpus, queries) = workload(7, 400);
    for workers in WORKER_COUNTS {
        let report = assert_sim_parity(12, 7, workers, &corpus, &queries);
        assert!(report.superset_checked >= 9);
        assert_eq!(report.shutdown.in_flight(), 0);
    }
}

#[test]
fn parity_survives_a_second_seed_and_small_corpus() {
    // A second (seed, size) point so a lucky hash layout cannot hide a
    // divergence; exercises sparse vertices (many unmaterialized).
    let (corpus, queries) = workload(1234, 120);
    for workers in WORKER_COUNTS {
        assert_sim_parity(8, 1234, workers, &corpus, &queries);
    }
}

/// Frames the `scans` themselves cost on a `workers`-thread runtime
/// loaded with `corpus` at r = 8: a conserved run that replays them
/// once, minus an identical run that only loads.
fn scan_frames(workers: u32, corpus: &[(ObjectId, KeywordSet)], scans: &[Request]) -> u64 {
    let total_sent = |requests: &[Request]| {
        let mut rt = NodeRuntime::start(RuntimeConfig::new(8, workers).seed(42)).expect("valid r");
        rt.bulk_load(corpus.iter().map(|(id, k)| (*id, k)))
            .expect("non-empty sets");
        rt.flush();
        rt.run_batch(requests, 32);
        let report = rt.shutdown();
        report.assert_conserved();
        assert_eq!(
            report.cache().hit_ratio(),
            0.0,
            "a never-repeating scan was served from a result cache"
        );
        report.total_sent()
    };
    total_sent(scans) - total_sent(&[])
}

#[test]
fn scan_frames_stay_within_the_locality_envelope() {
    // A query spanning R prefix regions costs 2(R−1) + 2 frames against
    // the single worker's 2, and R ≤ w — so sharding may multiply the
    // frames of exhaustive scans by at most the worker count (5.9× at
    // w = 8 here; per-vertex dispatch was 22–64×).
    let (corpus, queries) = workload(42, 4_000);
    let scans: Vec<Request> = queries
        .into_iter()
        .filter(|(_, threshold)| *threshold == usize::MAX - 1)
        .map(|(keywords, threshold)| Request::Superset {
            keywords,
            threshold,
        })
        .collect();
    assert!(scans.len() >= 8, "query mix shrank");
    let single = scan_frames(1, &corpus, &scans);
    assert_eq!(single, 2 * scans.len() as u64);
    for workers in WORKER_COUNTS {
        let frames = scan_frames(workers, &corpus, &scans);
        assert!(
            frames <= u64::from(workers) * single,
            "scan frame fan-out regressed: {frames} frames at {workers} workers vs {single} at 1"
        );
        assert_eq!(
            frames,
            scan_frames(workers, &corpus, &scans),
            "frame counts are not deterministic at {workers} workers"
        );
    }
}

#[test]
fn a_region_longer_than_one_batch_frame_is_answered_in_several() {
    // Two workers at r = 18: a one-keyword query's subcube is 2^17
    // vertices, half of them the non-coordinating worker's — one more
    // than a batch frame's u16 entry count holds, answered in one eager
    // expansion. (The count used to wrap to 0, the peer read a corrupt
    // frame and died.)
    let (corpus, queries) = workload(42, 400);
    let scan = queries[0].clone();
    assert_eq!((scan.0.len(), scan.1), (1, usize::MAX - 1));
    let report = assert_sim_parity(18, 42, 2, &corpus, &[scan]);
    let entries = report.shutdown.workers.iter().map(|w| w.batch_entries_sent);
    assert!(entries.max() > Some(u64::from(u16::MAX)), "{report:?}");
}
