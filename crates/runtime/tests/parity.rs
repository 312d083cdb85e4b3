//! Runtime ↔ simulator ↔ direct-engine parity over generated
//! workloads.
//!
//! The ISSUE-5 contract: for a shared seed and corpus, the threaded
//! runtime returns set-identical pin and superset results to
//! `ProtocolSim` at r ∈ {8, 12} across at least three worker counts,
//! with frame conservation holding on every shutdown.

mod mesh;

use std::collections::BTreeSet;

use hyperdex_core::{FtPolicy, KeywordHasher, KeywordSet, ObjectId};
use hyperdex_runtime::{
    assert_sim_parity, FtSearchOptions, NodeRuntime, Request, RuntimeConfig, RuntimeMatch,
};
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};
use mesh::MeshRuntime;

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
/// once, minus an identical run that only loads. The replay is one
/// pipelined batch of plain queries or, `with_ft`, each scan as a
/// plain query and then as a fault-tolerant one, which must find the
/// same matches.
fn scan_frames(
    workers: u32,
    corpus: &[(ObjectId, KeywordSet)],
    scans: &[Request],
    with_ft: bool,
) -> u64 {
    let sorted = |mut matches: Vec<RuntimeMatch>| {
        matches.sort_unstable_by_key(|m| m.object);
        matches
    };
    // Nothing is lost here, so no deadline may pass: patience beyond
    // any stall keeps the count exact on a loaded machine.
    let patient = FtSearchOptions {
        policy: FtPolicy {
            base_timeout: 60_000,
            ..FtSearchOptions::default().policy
        },
        attempt_timeout_ms: 600_000,
        attempts: 1,
    };
    let total_sent = |requests: &[Request]| {
        let mut rt = NodeRuntime::start(RuntimeConfig::new(8, workers).seed(42)).expect("valid r");
        rt.bulk_load(corpus.iter().map(|(id, k)| (*id, k)))
            .expect("non-empty sets");
        rt.flush();
        if !with_ft {
            rt.run_batch(requests, 32);
        } else {
            for request in requests {
                let Request::Superset {
                    keywords,
                    threshold,
                } = request
                else {
                    unreachable!("only supersets were built");
                };
                let plain = rt.superset_search(keywords, *threshold).expect("t > 0");
                let ft = rt
                    .superset_search_ft(keywords, *threshold, &patient)
                    .expect("t > 0");
                assert!(ft.complete, "{keywords}: {:?}", ft.coverage);
                assert_eq!(sorted(ft.matches), sorted(plain), "{keywords}");
            }
        }
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

/// A corpus at r = 8, seed 42, and the never-repeating scans of it:
/// the suites' exhaustive queries and one that settles at its root.
fn scan_mix() -> (Vec<(ObjectId, KeywordSet)>, Vec<Request>) {
    let (corpus, queries) = workload(42, 4_000);
    let mut scans: Vec<Request> = queries
        .into_iter()
        .filter(|(_, threshold)| *threshold == usize::MAX - 1)
        .map(|(keywords, threshold)| Request::Superset {
            keywords,
            threshold,
        })
        .collect();
    assert!(scans.len() >= 8, "query mix shrank");
    // A stored set asked for with `t = 1`: its own vertex answers.
    let settled_at_the_root = Request::Superset {
        keywords: corpus[0].1.clone(),
        threshold: 1,
    };
    assert!(!scans.contains(&Request::Superset {
        keywords: corpus[0].1.clone(),
        threshold: usize::MAX - 1,
    }));
    scans.push(settled_at_the_root);
    (corpus, scans)
}

/// `Query`/`QueryDone` (or `FtQuery`/`FtQueryDone`), and one
/// `RegionQuery`/`RegionDone` pair for every worker other than the
/// coordinator (the root's owner) that owns a vertex of the query's
/// subcube — unless the root alone fills the threshold, which ends
/// the query before anyone is asked.
fn expected_frames(workers: u32, scans: &[Request]) -> u64 {
    let hasher = KeywordHasher::new(8, 42).expect("valid r");
    let shards = RuntimeConfig::new(8, workers).seed(42).shard_map();
    scans
        .iter()
        .map(|scan| {
            let Request::Superset {
                keywords,
                threshold,
            } = scan
            else {
                unreachable!("only supersets were built");
            };
            if *threshold == 1 {
                return 2;
            }
            let root = hasher.vertex_for(keywords);
            let owners: BTreeSet<u32> = root
                .subcube()
                .iter()
                .map(|v| shards.owner_of(v.bits()))
                .collect();
            assert!(owners.contains(&shards.owner_of(root.bits())));
            2 + 2 * (owners.len() as u64 - 1)
        })
        .sum()
}

#[test]
fn an_uncached_query_costs_two_frames_and_two_per_other_owner_in_its_subcube() {
    let (corpus, scans) = scan_mix();
    for workers in [1, 2, 3, 4, 8] {
        let expected = expected_frames(workers, &scans);
        let frames = scan_frames(workers, &corpus, &scans, false);
        assert_eq!(frames, expected, "{workers} workers");
        assert_eq!(
            frames,
            scan_frames(workers, &corpus, &scans, false),
            "frame counts are not deterministic at {workers} workers"
        );
        // A fault-tolerant query is the same one round per region.
        assert_eq!(
            scan_frames(workers, &corpus, &scans, true),
            2 * expected,
            "{workers} workers, plain + FT"
        );
    }
}

/// The same law with no thread in sight: the production client over
/// the mesh, whose latencies permute the order across lanes. The counts
/// are pinned too — they are what `benchmark/`'s `frames_per_op` is
/// made of.
#[test]
fn an_uncached_query_costs_the_same_frames_on_the_mesh() {
    let (corpus, scans) = scan_mix();
    let total_sent = |workers, requests: &[Request]| {
        let mut rt = MeshRuntime::start(8, workers, 42);
        rt.bulk_load(corpus.iter().map(|(id, k)| (*id, k)))
            .expect("non-empty sets");
        rt.flush();
        rt.run_batch(requests, 32).expect("nothing is lost");
        let report = rt.shutdown();
        report.assert_conserved();
        assert_eq!(report.cache().hit_ratio(), 0.0);
        report.total_sent()
    };
    for (workers, pinned) in [(1, 16), (2, 28), (3, 36), (4, 46), (8, 92)] {
        let frames = total_sent(workers, &scans) - total_sent(workers, &[]);
        assert_eq!(
            frames,
            expected_frames(workers, &scans),
            "{workers} workers"
        );
        // The eight exhaustive scans, and two frames for the one that
        // settles at its root.
        assert_eq!(frames, pinned + 2, "{workers} workers");
    }
}

#[test]
fn thresholded_answers_match_the_sequential_machines_at_every_worker_count() {
    // Which matches a binding threshold keeps is decided by the visit
    // order: the region merge must keep the ones the simulator's and
    // the direct engine's sequential fold keeps, however many workers
    // the subcube is cut across (non-powers of two included). First
    // the suites' own query mix ...
    let (corpus, queries) = workload(42, 400);
    // ... then every threshold that matters, over a corpus whose every
    // set has three words: all matches of a query then carry the same
    // extra-keyword count, so the direct engine's ranking within a
    // vertex (the one thing it does that the message executors do not)
    // is the scan order, and the three must agree id for id wherever
    // the cut falls.
    let words: Vec<String> = (0..12).map(|w| format!("w{w}")).collect();
    let mut uniform = Vec::new();
    for a in 0..words.len() {
        for b in a + 1..words.len() {
            for c in b + 1..words.len() {
                let set = KeywordSet::from_strs([&words[a], &words[b], &words[c]]).unwrap();
                for _ in 0..2 {
                    let id = ObjectId::from_raw(uniform.len() as u64);
                    uniform.push((id, set.clone()));
                }
            }
        }
    }
    let thresholded: Vec<(KeywordSet, usize)> = (0..words.len())
        .map(|w| KeywordSet::from_strs([&words[w]]).unwrap())
        .chain((0..4).map(|w| KeywordSet::from_strs([&words[w], &words[w + 5]]).unwrap()))
        .flat_map(|keywords| {
            [1, 2, 20, usize::MAX - 1].map(|threshold| (keywords.clone(), threshold))
        })
        .collect();
    for workers in 1..=9 {
        let report = assert_sim_parity(8, 42, workers, &corpus, &queries);
        assert_eq!(report.superset_checked, queries.len());
        let report = assert_sim_parity(8, 42, workers, &uniform, &thresholded);
        assert_eq!(report.superset_checked, thresholded.len());
        assert_eq!(report.shutdown.in_flight(), 0);
    }
}

#[test]
fn a_broad_scan_at_r18_is_answered_in_one_round() {
    // Two workers at r = 18: a one-keyword query's subcube is 2^17
    // vertices, half of them the non-coordinating worker's — walked
    // there in one go and answered by naming only the vertices that
    // hold a match.
    let (corpus, queries) = workload(42, 400);
    let scan = queries[0].clone();
    assert_eq!((scan.0.len(), scan.1), (1, usize::MAX - 1));
    let report = assert_sim_parity(18, 42, 2, &corpus, &[scan]);
    let workers = &report.shutdown.workers;
    let scans: u64 = workers.iter().map(|w| w.scans).sum();
    assert!(scans > 1 << 17, "{report:?}");
    let groups: u64 = workers.iter().map(|w| w.batch_entries_sent).sum();
    assert!(groups <= corpus.len() as u64, "{report:?}");
}
