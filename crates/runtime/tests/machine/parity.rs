//! The mesh ↔ simulator ↔ direct-engine parity over generated
//! workloads, and the frame law.
//!
//! For a shared seed and corpus, the production client over the mesh
//! returns the superset answers of `ProtocolSim`'s message-level
//! traversal and of the direct `HypercubeIndex`, id for id in order,
//! and their pin results, at r ∈ {8, 12} across worker counts 1–9,
//! with frame conservation holding on every shutdown; and an uncached
//! query costs exactly the frames its subcube's owners say,
//! fault-tolerant or not.

use std::collections::BTreeSet;

use hyperdex_core::sim_protocol::ProtocolSim;
use hyperdex_core::{HypercubeIndex, KeywordHasher, KeywordSet, ObjectId, SupersetQuery};
use hyperdex_runtime::{Request, RuntimeConfig, ShutdownReport};
use hyperdex_simnet::LatencyModel;

use crate::mesh::MeshRuntime;
use crate::{ids, match_ids, report_cache, workload, R, SEED};

/// Worker counts under test.
const WORKER_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Loads `corpus` into the mesh, `ProtocolSim` and the direct engine,
/// runs every query on all three — each set as a superset search at
/// its threshold and as a pin — and panics on any divergence, or on a
/// ledger that does not close at shutdown.
fn assert_sim_parity(
    r: u8,
    seed: u64,
    workers: u32,
    corpus: &[(ObjectId, KeywordSet)],
    queries: &[(KeywordSet, usize)],
) -> ShutdownReport {
    let mut direct = HypercubeIndex::new(r, seed).expect("valid r");
    let mut sim = ProtocolSim::new(r, seed, LatencyModel::constant(1)).expect("valid r");
    let mut rt = MeshRuntime::start(r, workers, seed);
    for (object, keywords) in corpus {
        direct.insert(*object, keywords.clone()).expect("non-empty");
        sim.insert(*object, keywords.clone()).expect("non-empty");
        rt.insert(*object, keywords.clone()).expect("non-empty");
    }
    rt.flush();

    for (keywords, threshold) in queries {
        let cell = format!("r={r} seed={seed} workers={workers} K={keywords:?}");
        let found = rt.superset_search(keywords, *threshold).expect("t > 0");
        let sim_found = sim.search_sequential(keywords, *threshold).expect("t > 0");
        let query = SupersetQuery::new(keywords.clone()).threshold(*threshold);
        let direct_found = direct.superset_search(&query).expect("valid query");
        // Id for id, in order: the stores filled in one order, so
        // every executor breaks a rank's ties alike.
        let mesh: Vec<ObjectId> = found.iter().map(|m| m.object).collect();
        let sim_ids: Vec<ObjectId> = sim_found.results.iter().map(|m| m.object).collect();
        let direct_ids: Vec<ObjectId> = direct_found.results.iter().map(|m| m.object).collect();
        assert_eq!(mesh, sim_ids, "mesh/sim superset divergence: {cell}");
        assert_eq!(mesh, direct_ids, "mesh/direct superset divergence: {cell}");

        let mesh = ids(rt.pin_search(keywords).expect("nothing is lost"));
        let direct_pin = ids(direct.pin_search(keywords).results);
        assert_eq!(mesh, direct_pin, "mesh/direct pin divergence: {cell}");
    }

    let shutdown = rt.shutdown();
    shutdown.assert_conserved();
    shutdown
}

#[test]
fn runtime_matches_sim_at_r8_across_worker_counts() {
    let (corpus, queries) = workload(42, 400);
    for workers in WORKER_COUNTS {
        assert_sim_parity(8, 42, workers, &corpus, &queries);
    }
}

#[test]
fn runtime_matches_sim_at_r12_across_worker_counts() {
    let (corpus, queries) = workload(7, 400);
    for workers in WORKER_COUNTS {
        assert_sim_parity(12, 7, workers, &corpus, &queries);
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

/// A corpus at r = 8, seed 42, and the never-repeating scans of it:
/// the suites' exhaustive queries and one that settles at its root.
fn scan_mix() -> (Vec<(ObjectId, KeywordSet)>, Vec<Request>) {
    let (corpus, queries) = workload(SEED, 4_000);
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
    let hasher = KeywordHasher::new(R, SEED).expect("valid r");
    let shards = RuntimeConfig::new(R, workers).seed(SEED).shard_map();
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

/// The counts are pinned too — they are what `benchmark/`'s
/// `frames_per_op` is made of — and the mesh's latencies permute the
/// order across lanes, so none of them rests on one arrival order.
#[test]
fn an_uncached_query_costs_two_frames_and_two_per_other_owner_in_its_subcube() {
    let (corpus, scans) = scan_mix();
    // Frames a run of `requests` costs on top of loading and shutting
    // down: one pipelined batch of plain queries or, `with_ft`, each
    // scan as a plain query and then as a fault-tolerant one, which
    // must find the same matches.
    let frames = |workers, requests: &[Request], with_ft: bool| {
        let total_sent = |requests: &[Request]| {
            let mut rt = MeshRuntime::start(R, workers, SEED);
            rt.bulk_load(corpus.iter().map(|(id, k)| (*id, k)))
                .expect("non-empty sets");
            rt.flush();
            if !with_ft {
                rt.run_batch(requests, 32).expect("nothing is lost");
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
                    let ft = rt.superset_search_ft(keywords, *threshold).expect("t > 0");
                    assert!(ft.complete, "{keywords}: {:?}", ft.coverage);
                    assert_eq!(match_ids(&ft.matches), match_ids(&plain), "{keywords}");
                }
            }
            let report = rt.shutdown();
            report.assert_conserved();
            let cache = report_cache(&report);
            assert_eq!(
                cache.hits + cache.coalesced,
                0,
                "a never-repeating scan was served from a result cache"
            );
            report.total_sent()
        };
        total_sent(requests) - total_sent(&[])
    };
    for (workers, pinned) in [(1, 16), (2, 28), (3, 36), (4, 46), (8, 92)] {
        let plain = frames(workers, &scans, false);
        assert_eq!(plain, expected_frames(workers, &scans), "{workers} workers");
        // The eight exhaustive scans, and two frames for the one that
        // settles at its root.
        assert_eq!(plain, pinned + 2, "{workers} workers");
        // A lossless fault-tolerant query is the same one round per
        // region: a plain and an FT pass over the scans cost twice one.
        assert_eq!(
            frames(workers, &scans, true),
            2 * plain,
            "{workers} workers, plain + FT"
        );
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
    // extra-keyword count, so within a vertex only the store's order
    // breaks the rank's ties, and the three must agree id for id
    // wherever the cut falls.
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
        assert_sim_parity(8, 42, workers, &corpus, &queries);
        assert_sim_parity(8, 42, workers, &uniform, &thresholded);
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
    let scans: u64 = report.workers.iter().map(|w| w.scans).sum();
    assert!(scans > 1 << 17, "{report:?}");
    let groups: u64 = report.workers.iter().map(|w| w.batch_entries_sent).sum();
    assert!(groups <= corpus.len() as u64, "{report:?}");
}

/// One seeded `(K, t)` and its answer: the r = 8, seed 42 corpus of 400
/// objects, its most popular keyword, and a threshold that cuts inside
/// a vertex holding matches of several ranks. `net_parity.rs` holds a
/// two-server TCP cluster to the same list.
const ONE_ANSWER: [u64; 12] = [196, 161, 223, 267, 288, 336, 9, 67, 344, 347, 73, 391];

#[test]
fn one_query_is_one_id_list_on_every_executor() {
    let (corpus, queries) = workload(42, 400);
    let query = (queries[0].0.clone(), ONE_ANSWER.len());
    // The mesh at two workers, the simulator and the direct engine
    // agree, in order ...
    assert_sim_parity(8, 42, 2, &corpus, std::slice::from_ref(&query));
    // ... on this list.
    let mut direct = HypercubeIndex::new(8, 42).expect("valid r");
    for (object, keywords) in &corpus {
        direct.insert(*object, keywords.clone()).expect("non-empty");
    }
    let out = direct
        .superset_search(&SupersetQuery::new(query.0).threshold(query.1))
        .expect("valid query");
    let answer: Vec<u64> = out.results.iter().map(|m| m.object.raw()).collect();
    assert_eq!(answer, ONE_ANSWER);
}
