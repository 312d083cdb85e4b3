//! What the worker machine decides — results, frame counts, coverage,
//! retries, what it refuses — asserted on the deterministic mesh
//! (`mesh/mod.rs`): the production `ClientCore` and N `NodeMachine`s in
//! one thread under virtual time. Nothing here sleeps, spawns or waits
//! on a wall clock; what a *driver* owes (blocking when idle, surviving
//! a full sink) is asserted on threads, in `src/runtime.rs` and
//! `fault_recovery.rs`. A crash is no driver's: the machine restarts
//! itself, here as on threads.

mod mesh;

use hyperdex_core::{FtPolicy, KeywordHasher, KeywordSet, ObjectId, RecoveryStrategy};
use hyperdex_runtime::{FaultPlan, FtSearchOptions, Request, RuntimeConfig, WireMsg};
use hyperdex_simnet::LatencyModel;
use mesh::{Mesh, MeshRuntime};

fn set(s: &str) -> KeywordSet {
    KeywordSet::parse(s).unwrap()
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

fn loaded(workers: u32) -> MeshRuntime {
    loaded_faulted(workers, FaultPlan::default())
}

fn loaded_faulted(workers: u32, plan: FaultPlan) -> MeshRuntime {
    let mut rt = MeshRuntime::start_faulted(8, workers, 42, plan);
    for &(id, kws) in CORPUS {
        rt.insert(oid(id), set(kws)).unwrap();
    }
    rt.flush();
    rt
}

#[test]
fn insert_pin_superset_roundtrip() {
    for workers in [1, 2, 4] {
        let mut rt = loaded(workers);
        let pin = rt.pin_search(&set("a b")).unwrap();
        assert_eq!(pin, vec![oid(2)], "{workers} workers");

        let mut ids: Vec<u64> = rt
            .superset_search(&set("a"), usize::MAX - 1)
            .unwrap()
            .iter()
            .map(|m| m.object.raw())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4, 6, 8], "{workers} workers");

        let report = rt.shutdown();
        report.assert_conserved();
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

    let mut inc = MeshRuntime::start(8, 3, 7);
    for (id, k) in &corpus {
        inc.insert(*id, k.clone()).unwrap();
    }
    inc.flush();

    let mut bulk = MeshRuntime::start(8, 3, 7);
    bulk.bulk_load(corpus.iter().map(|(id, k)| (*id, k)))
        .unwrap();
    bulk.flush();

    for query in ["a", "a b", "zzz"] {
        let mut a: Vec<u64> = inc
            .superset_search(&set(query), 100)
            .unwrap()
            .iter()
            .map(|m| m.object.raw())
            .collect();
        let mut b: Vec<u64> = bulk
            .superset_search(&set(query), 100)
            .unwrap()
            .iter()
            .map(|m| m.object.raw())
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "query {query}");
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

    let mut solo: Vec<u64> = rt
        .superset_search(&set("a"), 100)
        .unwrap()
        .iter()
        .map(|m| m.object.raw())
        .collect();
    solo.sort_unstable();
    let mut batched: Vec<u64> = batch[0].objects.iter().map(|o| o.raw()).collect();
    batched.sort_unstable();
    assert_eq!(batched, solo);
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
    let report = rt.shutdown();
    report.assert_conserved();

    let hasher = KeywordHasher::new(8, 42).unwrap();
    let shards = RuntimeConfig::new(8, 4).seed(42).shard_map();
    let owner = |kws: &str| shards.owner_of(hasher.vertex_for(&set(kws)).bits());
    let coordinator = owner("a");
    let remote_vertices: std::collections::BTreeSet<u64> = extra
        .iter()
        .filter(|(_, kws)| owner(kws) != coordinator)
        .map(|(_, kws)| hasher.vertex_for(&set(kws)).bits())
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
        .superset_search_ft(&set("a"), usize::MAX - 1, &FtSearchOptions::default())
        .unwrap();
    assert!(out.complete);
    assert_eq!(out.attempts, 1);
    let cov = out.coverage.expect("coordinator answered");
    assert_eq!(cov.reached, cov.subcube_vertices);
    assert!(cov.skipped.is_empty());
    let mut ids: Vec<u64> = out.matches.iter().map(|m| m.object.raw()).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2, 3, 4, 6, 8]);
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
            .superset_search_ft(&set("a"), usize::MAX - 1, &FtSearchOptions::default())
            .unwrap();
        // Of `CORPUS`, every match is the coordinator's: recall is
        // total even if an owner exhausts its retry budget and its
        // (empty) regions are written off.
        let mut ids: Vec<u64> = out.matches.iter().map(|m| m.object.raw()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4, 6, 8]);
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
        .superset_search_ft(&set("a"), usize::MAX - 1, &FtSearchOptions::default())
        .unwrap();
    assert!(out.complete);
    let mut ids: Vec<u64> = out.matches.iter().map(|m| m.object.raw()).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2, 3, 4, 6, 8]);
    let report = rt.shutdown();
    report.assert_conserved();
    assert!(report.total_duplicated() > 0);
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
        policy: FtPolicy {
            strategy: RecoveryStrategy::RetryOnly,
            max_retries: 0,
            base_timeout: 30,
        },
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
    for (round, next_request) in (1..).zip(next_requests) {
        let out = rt
            .superset_search_ft(&set("a"), usize::MAX - 1, &abandon)
            .unwrap();
        assert!(!out.complete && out.coverage.is_none(), "{out:?}");
        // Let the abandoned attempt finish and its completion land.
        rt.mesh.borrow_mut().settle();
        next_request(&mut rt);
        assert_eq!(rt.core.stale_replies(), round);
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
    let mut mesh = Mesh::quiet(8, 2, 42);
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
/// whichever kind it is.
#[test]
fn a_traversal_parked_at_exit_is_counted_abandoned() {
    let mut mesh = Mesh::quiet(8, 2, 42);
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
    mesh.send(
        0,
        &WireMsg::FtQuery {
            query_id: 2,
            keywords,
            threshold: 5,
            policy: FtPolicy {
                strategy: RecoveryStrategy::RetryOnly,
                max_retries: 0,
                base_timeout: 60_000,
            },
        },
    );
    mesh.deliver();
    assert_eq!(mesh.stats(0).queries_abandoned, 0);
    mesh.lose(0, 1);
    mesh.send(0, &WireMsg::Shutdown);
    mesh.deliver();
    assert_eq!(mesh.stats(0).queries_abandoned, 2);
}

/// Recovery is the constructor, and the log it reads is written ahead.
/// One worker, crashed by its tenth query-path frame, with an insert
/// packed behind the trigger: the insert dies with the worker — counted
/// dropped — and the machine, rebuilt in place from its own log, has
/// it, answers every pin as its predecessor did and reports the
/// predecessor's epoch plus that one, having been sent nothing. Its own
/// counters cover both lives.
#[test]
fn a_machine_built_from_its_predecessors_log_is_its_predecessor() {
    let cfg = RuntimeConfig::new(8, 1).seed(42);
    let plan = FaultPlan::default().crash(0, 10);
    let mut mesh = Mesh::start(cfg, plan, LatencyModel::uniform(1, 3), 42);
    let keywords = set("late");
    let late = [
        WireMsg::Pin {
            query_id: 0,
            keywords,
        },
        insert(9, "late"),
    ];
    for &(object, kws) in CORPUS {
        mesh.send(0, &insert(object, kws));
    }
    // A search, so the result cache has counted something.
    let search = WireMsg::Query {
        query_id: 99,
        keywords: set("a"),
        threshold: 100,
    };
    mesh.send(0, &search);
    mesh.deliver();
    assert!(matches!(
        mesh.replies()[..],
        [WireMsg::QueryDone { query_id: 99, .. }]
    ));
    // A barrier and a pin of every set: the epoch, then the tables.
    let probe = |mesh: &mut Mesh| {
        mesh.send(0, &WireMsg::Flush { token: 0 });
        for &(query_id, kws) in CORPUS {
            let keywords = set(kws);
            mesh.send(0, &WireMsg::Pin { query_id, keywords });
        }
        mesh.deliver();
        mesh.replies()
    };
    let expected = probe(&mut mesh);
    assert!(matches!(expected[0], WireMsg::FlushAck { epoch: 8, .. }));
    let before = mesh.stats(0);
    assert_eq!(before.cache_misses, 1);

    // The trigger dies with the worker, and the insert behind it.
    mesh.send_packed(0, &late);
    mesh.deliver();
    assert!(mesh.replies().is_empty());
    let after = mesh.stats(0);
    assert_eq!((after.respawns, after.replayed_frames), (1, 9));
    assert_eq!(after.cache(), before.cache());
    assert_eq!(after.inserts, before.inserts + 9, "the late one too");
    assert_eq!(after.frames_received, before.frames_received + 1);
    assert_eq!(after.frames_dropped, before.frames_dropped + 1);
    assert_eq!(after.frames_sent, before.frames_sent);

    let answers = probe(&mut mesh);
    assert!(matches!(answers[0], WireMsg::FlushAck { epoch: 9, .. }));
    assert_eq!(answers[1..], expected[1..]);
    mesh.send(0, &late[0]);
    mesh.deliver();
    let (query_id, objects) = (0, vec![9]);
    assert_eq!(mesh.replies(), [WireMsg::PinResults { query_id, objects }]);
    mesh.check_respawns();
    mesh.shutdown().assert_conserved();
}

fn insert(object: u64, kws: &str) -> WireMsg {
    let keywords = set(kws);
    WireMsg::Insert { object, keywords }
}
