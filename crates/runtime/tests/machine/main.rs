//! What the worker machine decides — results, frame counts, coverage,
//! retries, recovery, cache decisions, what it refuses — asserted on
//! the deterministic mesh (`mesh.rs`): the production `ClientCore` and
//! N `NodeMachine`s in one thread under virtual time. Nothing here
//! sleeps, spawns or waits on a wall clock. What a *driver* owes its
//! machine (blocking when idle, surviving a full sink, a tick by every
//! deadline) is asserted on threads, in `src/runtime.rs`; what a
//! transport adds, on sockets, in `hyperdex-net`'s suites. A crash is
//! no driver's: the machine restarts itself.
//!
//! * this file — the fixtures every module shares, and the machine's
//!   own cases: round trips, frame and coverage counts, retries, what
//!   it refuses, what it counts abandoned;
//! * [`model`] — the seeded schedule suite: 2,080 drop / duplicate /
//!   delay / crash schedules held to an uncached oracle;
//! * [`cache`] — the result cache's scripts, a lane held where an
//!   interleaving must be forced;
//! * [`parity`] — the mesh, `ProtocolSim` and the direct engine answer
//!   alike, and the frame law;
//! * [`recovery`] — faulted runs against unfaulted ones, a restart
//!   against its predecessor, a plain query that loses an owner.

mod cache;
mod mesh;
mod model;
mod parity;
mod recovery;

use hyperdex_core::cache::CacheCounters;
use hyperdex_core::{KeywordSet, ObjectId};
use hyperdex_runtime::{
    FaultPlan, FtSearchOptions, Request, RuntimeMatch, ShutdownReport, WireMsg, WorkerStats,
};
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};
use mesh::{Mesh, MeshRuntime};

/// The seed the fixtures hash, place and generate with.
const SEED: u64 = 42;

/// The fixtures' cube dimension.
const R: u8 = 8;

fn set(s: &str) -> KeywordSet {
    KeywordSet::parse(s).unwrap()
}

/// The fixtures' fault-tolerant search: two retries from a 25 ms
/// deadline, three client attempts of two seconds each.
fn ft_opts() -> FtSearchOptions {
    FtSearchOptions {
        max_retries: 2,
        base_timeout: 25,
        attempt_timeout_ms: 2_000,
        attempts: 3,
    }
}

fn oid(n: u64) -> ObjectId {
    ObjectId::from_raw(n)
}

const CORPUS: &[(u64, &str)] = &[
    (1, "a"),
    (2, "a b"),
    (3, "a b c"),
    (4, "a c"),
    (5, "b c"),
    (6, "a d e"),
    (7, "x y"),
    (8, "a b d"),
];

/// What `CORPUS` holds under `a`.
const UNDER_A: [u64; 6] = [1, 2, 3, 4, 6, 8];

/// A fault-free mesh of `workers` machines, loaded with `CORPUS`.
fn loaded(workers: u32) -> MeshRuntime {
    loaded_faulted(workers, FaultPlan::default())
}

fn loaded_faulted(workers: u32, plan: FaultPlan) -> MeshRuntime {
    let mut rt = MeshRuntime::start_faulted(R, workers, SEED, plan);
    for &(id, kws) in CORPUS {
        rt.insert(oid(id), set(kws)).unwrap();
    }
    rt.flush();
    rt
}

/// A generated corpus plus a query mix of broad (|K| = 1), narrower
/// (|K| = 2), thresholded, and definitely-missing sets.
#[allow(clippy::type_complexity)]
fn workload(seed: u64, objects: usize) -> (Vec<(ObjectId, KeywordSet)>, Vec<(KeywordSet, usize)>) {
    let corpus = Corpus::generate(&CorpusConfig::pchome().with_objects(objects), seed);
    let log = QueryLog::generate(&QueryLogConfig::small_test(), &corpus, seed.wrapping_add(1));
    let entries = corpus
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
    queries.push((set("no such keyword anywhere"), 10));
    assert!(queries.len() >= 9, "query mix shrank");
    (entries, queries)
}

/// The sorted raw ids of an answer — what every module compares.
/// A worker's result-cache counters, from its five `cache_*` columns.
fn worker_cache(w: &WorkerStats) -> CacheCounters {
    CacheCounters {
        hits: w.cache_hits,
        misses: w.cache_misses,
        coalesced: w.cache_coalesced,
        stale: w.cache_stale,
        evictions: w.cache_evictions,
    }
}

/// What the workers' result caches did, summed over a report's workers.
fn report_cache(report: &ShutdownReport) -> CacheCounters {
    let sum = |column: fn(&WorkerStats) -> u64| report.workers.iter().map(column).sum();
    CacheCounters {
        hits: sum(|w| w.cache_hits),
        misses: sum(|w| w.cache_misses),
        coalesced: sum(|w| w.cache_coalesced),
        stale: sum(|w| w.cache_stale),
        evictions: sum(|w| w.cache_evictions),
    }
}

fn ids(objects: impl IntoIterator<Item = ObjectId>) -> Vec<u64> {
    let mut ids: Vec<u64> = objects.into_iter().map(ObjectId::raw).collect();
    ids.sort_unstable();
    ids
}

/// The object ids of a superset answer, sorted.
fn match_ids(matches: &[RuntimeMatch]) -> Vec<u64> {
    ids(matches.iter().map(|m| m.object))
}

#[test]
fn insert_pin_superset_roundtrip() {
    for workers in [1, 2, 4] {
        let mut rt = loaded(workers);
        let pin = rt.pin_search(&set("a b")).unwrap();
        assert_eq!(pin, vec![oid(2)], "{workers} workers");
        let all = rt.superset_search(&set("a"), usize::MAX - 1).unwrap();
        assert_eq!(match_ids(&all), UNDER_A, "{workers} workers");
        rt.shutdown().assert_conserved();
    }
}

#[test]
fn threshold_caps_results() {
    let mut rt = loaded(4);
    let out = rt.superset_search(&set("a"), 2).unwrap();
    assert_eq!(out.len(), 2);
    rt.shutdown().assert_conserved();
}

#[test]
fn bulk_load_matches_incremental_inserts() {
    let corpus: Vec<(ObjectId, KeywordSet)> = [(1, "a b"), (2, "a"), (3, "a b c")]
        .into_iter()
        .map(|(id, k)| (oid(id), set(k)))
        .collect();

    let mut inc = MeshRuntime::start(R, 3, 7);
    for (id, k) in &corpus {
        inc.insert(*id, k.clone()).unwrap();
    }
    inc.flush();

    let mut bulk = MeshRuntime::start(R, 3, 7);
    bulk.bulk_load(corpus.iter().map(|(id, k)| (*id, k)))
        .unwrap();
    bulk.flush();

    for query in ["a", "a b", "zzz"] {
        let a = inc.superset_search(&set(query), 100).unwrap();
        let b = bulk.superset_search(&set(query), 100).unwrap();
        assert_eq!(match_ids(&a), match_ids(&b), "query {query}");
    }
    inc.shutdown().assert_conserved();
    bulk.shutdown().assert_conserved();
}

#[test]
fn batch_matches_one_at_a_time() {
    let mut rt = loaded(4);
    let requests = vec![
        Request::Superset {
            keywords: set("a"),
            threshold: 100,
        },
        Request::Pin(set("a b")),
        Request::Superset {
            keywords: set("b"),
            threshold: 100,
        },
        Request::Pin(set("zzz")),
    ];
    let batch = rt.run_batch(&requests, 4).unwrap();
    assert_eq!(batch.len(), 4);
    let solo = rt.superset_search(&set("a"), 100).unwrap();
    assert_eq!(ids(batch[0].objects.clone()), match_ids(&solo));
    assert_eq!(batch[1].objects, vec![oid(2)]);
    assert!(batch[3].objects.is_empty());
    // A request's latency is virtual too: at least the two hops of its
    // frames, each of at least one tick.
    assert!(batch.iter().all(|r| r.latency.as_millis() >= 2));
    rt.shutdown().assert_conserved();
}

#[test]
fn region_frames_count_once_and_carry_only_the_vertices_that_hold_matches() {
    // The one-keyword query's subcube spans all four prefix regions
    // (`a` fixes bit 5, below the two prefix bits): the root's owner
    // coordinates, each of the three other owners is asked once and
    // answers once. A region frame is one ledger frame on both
    // sides — conservation closes — and an answer names the
    // vertices where something matched, not the vertices walked.
    let mut rt = loaded(4);
    let extra: Vec<(u64, String)> = (100..132).map(|i| (i, format!("a w{i}"))).collect();
    for (id, kws) in &extra {
        rt.insert(oid(*id), set(kws)).unwrap();
    }
    rt.flush();
    let found = rt.superset_search(&set("a"), usize::MAX - 1).unwrap();
    assert_eq!(found.len(), 6 + extra.len());
    let mesh = std::rc::Rc::clone(&rt.mesh);
    let report = rt.shutdown();
    report.assert_conserved();

    let mesh = mesh.borrow();
    let owner = |kws: &str| mesh.owner(&set(kws));
    let coordinator = owner("a");
    let remote_vertices: std::collections::BTreeSet<u64> = extra
        .iter()
        .filter(|(_, kws)| owner(kws) != coordinator)
        .map(|(_, kws)| mesh.hasher.vertex_for(&set(kws)).bits())
        .collect();
    // (Of `CORPUS` itself, every match is the coordinator's.)
    assert!(!remote_vertices.is_empty());
    let region_frames: u64 = report.workers.iter().map(|w| w.batch_frames_sent).sum();
    let groups: u64 = report.workers.iter().map(|w| w.batch_entries_sent).sum();
    assert_eq!(region_frames, 2 * 3);
    assert_eq!(groups, remote_vertices.len() as u64);
    assert_eq!(
        report.workers[coordinator as usize].queries_coordinated, 1,
        "the root's owner coordinates"
    );
}

#[test]
fn ft_search_matches_sequential_on_a_clean_runtime() {
    let mut rt = loaded(4);
    let out = rt
        .superset_search_ft(&set("a"), usize::MAX - 1, &ft_opts())
        .unwrap();
    assert!(out.complete);
    assert_eq!(out.attempts, 1);
    let cov = out.coverage.expect("coordinator answered");
    assert_eq!(cov.reached, cov.subcube_vertices);
    assert!(cov.skipped.is_empty());
    assert_eq!(match_ids(&out.matches), UNDER_A);
    rt.shutdown().assert_conserved();
}

#[test]
fn ft_search_survives_frame_loss() {
    // 10% drop + 5% duplicate + 5% delay on the traversal path. A
    // search is six region frames, so a few of them meet the plan.
    let plan = FaultPlan::lossy(9, 100, 50, 50);
    let mut rt = loaded_faulted(4, plan);
    for _ in 0..8 {
        let out = rt
            .superset_search_ft(&set("a"), usize::MAX - 1, &ft_opts())
            .unwrap();
        // Of `CORPUS`, every match is the coordinator's: recall is
        // total even if an owner exhausts its retry budget and its
        // (empty) regions are written off.
        assert_eq!(match_ids(&out.matches), UNDER_A);
        let cov = out.coverage.expect("coordinator answered");
        assert_eq!(
            cov.reached + cov.skipped.len() as u64,
            cov.subcube_vertices,
            "coverage accounting must be exact: {cov:?}"
        );
    }
    let report = rt.shutdown();
    report.assert_conserved();
    assert!(
        report.total_dropped() + report.total_duplicated() > 0,
        "the plan should actually have injected faults: {report:?}"
    );
}

#[test]
fn duplicated_frames_do_not_double_count_results() {
    // Duplicate a third of all traversal frames; the coordinator
    // takes each owner's answer once, so the result set is exact.
    let plan = FaultPlan::lossy(5, 0, 333, 0);
    let mut rt = loaded_faulted(4, plan);
    let out = rt
        .superset_search_ft(&set("a"), usize::MAX - 1, &ft_opts())
        .unwrap();
    assert!(out.complete);
    assert_eq!(match_ids(&out.matches), UNDER_A);
    let report = rt.shutdown();
    report.assert_conserved();
    assert!(report.total_duplicated() > 0);
}

#[test]
fn an_ft_query_without_retries_gives_a_silent_owner_up_after_one_base_timeout() {
    // No retransmission is owed, yet the traversal must end: the
    // coordinator waits out one base timeout for the other worker's
    // (dropped) region frame and gives it up.
    let mut rt = loaded_faulted(2, FaultPlan::lossy(7, 1000, 0, 0));
    let opts = FtSearchOptions {
        max_retries: 0,
        base_timeout: 20,
        attempt_timeout_ms: 10_000,
        attempts: 1,
    };
    let started = rt.mesh.borrow().now();
    let out = rt
        .superset_search_ft(&set("a"), usize::MAX - 1, &opts)
        .unwrap();
    let took = rt.mesh.borrow().now() - started;
    rt.shutdown().assert_conserved();
    assert!(!out.complete, "{out:?}");
    let cov = out.coverage.as_ref().expect("coordinator answered");
    assert_eq!(
        (cov.queries_sent, cov.timeouts, cov.retries),
        (1, 1, 0),
        "{cov:?}"
    );
    assert!(
        (20..40).contains(&took.as_millis()),
        "answered after {took:?}"
    );
}

#[test]
fn late_completion_of_an_abandoned_ft_attempt_is_discarded_by_later_requests() {
    // Every traversal frame is dropped and owners are written off
    // after one 30 ms deadline, so the coordinator completes no
    // sooner than 30 ms in — long after the client's 1 ms attempt
    // budget ran out. Its `FtQueryDone` then sits in the client
    // inbox ahead of whatever the next request waits for. (The
    // one-keyword subcube spans all four prefix regions, so every
    // attempt has region frames to lose.)
    let plan = FaultPlan::lossy(11, 1000, 0, 0);
    let mut rt = loaded_faulted(4, plan);
    let abandon = FtSearchOptions {
        max_retries: 0,
        base_timeout: 30,
        attempt_timeout_ms: 1,
        attempts: 1,
    };
    // (Pins and the barrier only: under total loss a plain superset is
    // abandoned unanswered.)
    let next_requests: [fn(&mut MeshRuntime); 3] = [
        |rt| assert_eq!(rt.pin_search(&set("a b")).unwrap(), vec![oid(2)]),
        |rt| rt.flush(),
        |rt| {
            assert_eq!(
                rt.run_batch(&[Request::Pin(set("x y"))], 1).unwrap().len(),
                1
            )
        },
    ];
    for next_request in next_requests {
        let out = rt
            .superset_search_ft(&set("a"), usize::MAX - 1, &abandon)
            .unwrap();
        assert!(!out.complete && out.coverage.is_none(), "{out:?}");
        // Let the abandoned attempt finish and its completion land.
        rt.mesh.borrow_mut().settle();
        next_request(&mut rt);
    }
    let report = rt.shutdown();
    report.assert_conserved();
    assert!(report.total_dropped() > 0, "no region frame was dropped");
}

/// A `RegionQuery` whose `coord` is not another worker has nobody to
/// answer: counted, not answered, and no panic — in a debug build and
/// in a release one (`Fabric::append` used to index out of bounds on
/// the first and `debug_assert!` on the third).
#[test]
fn a_region_query_whose_coord_is_not_another_worker_is_counted_and_not_answered() {
    let mut mesh = Mesh::quiet(R, 2, SEED);
    for coord in [99, 2, 0] {
        mesh.send(
            0,
            &WireMsg::RegionQuery {
                query_id: 1,
                keywords: set("a"),
                threshold: 5,
                coord,
                attempt: 0,
            },
        );
    }
    // Worker 1 coordinates for real: worker 0 answers that one.
    mesh.send(
        0,
        &WireMsg::RegionQuery {
            query_id: 2,
            keywords: set("a"),
            threshold: 5,
            coord: 1,
            attempt: 0,
        },
    );
    mesh.settle();
    assert!(mesh.replies().is_empty());
    let (w0, w1) = (mesh.stats(0), mesh.stats(1));
    assert_eq!(
        (w0.frames_misrouted, w0.frames_sent, w0.frames_dropped),
        (3, 1, 0),
        "{w0:?}"
    );
    // The answer nobody at worker 1 waits for is received and dropped.
    assert_eq!((w1.frames_received, w1.frames_sent), (1, 0), "{w1:?}");
    mesh.shutdown().assert_conserved();
}

/// A traversal still parked when its worker exits is counted abandoned,
/// whichever kind it is; and a repeat of a query still parked is not a
/// second traversal under its id: counted, and not started.
#[test]
fn a_traversal_parked_at_exit_is_counted_abandoned() {
    let mut mesh = Mesh::quiet(R, 2, SEED);
    // Worker 1 never hears: the lane to it is held.
    mesh.hold(0, 1);
    let keywords = set("a");
    mesh.send(
        0,
        &WireMsg::Query {
            query_id: 1,
            keywords: keywords.clone(),
            threshold: 5,
        },
    );
    let ft = WireMsg::FtQuery {
        query_id: 2,
        keywords,
        threshold: 5,
        max_retries: 0,
        base_timeout: 60_000,
    };
    mesh.send(0, &ft);
    mesh.send(0, &ft);
    mesh.deliver();
    let stats = mesh.stats(0);
    assert_eq!((stats.queries_abandoned, stats.frames_misrouted), (0, 1));
    mesh.lose(0, 1);
    mesh.send(0, &WireMsg::Shutdown);
    mesh.deliver();
    assert_eq!(mesh.stats(0).queries_abandoned, 2);
}
