//! The machine under injected faults, as exact payloads and counts (the
//! model of `model.rs` grades the same, schedule by schedule): a crashed
//! or lossy run returns the unfaulted payload, plain and fault-tolerant,
//! across workers × {crash, loss, crash+loss}; a plain query that loses
//! an owner for good is dropped after its whole retry budget — fifteen
//! virtual seconds — never answered short; a machine built from its
//! predecessor's log is its predecessor; a load delivered twice is
//! indexed once.

use std::time::Duration;

use hyperdex_core::{KeywordHasher, KeywordSet, ObjectId};
use hyperdex_runtime::{FaultPlan, RuntimeConfig, RuntimeMatch, WireMsg};
use hyperdex_simnet::LatencyModel;

use crate::mesh::{Mesh, MeshRuntime, Script};
use crate::{loaded_faulted, match_ids, oid, set, worker_cache, CORPUS, R, SEED, UNDER_A};

/// The matrix: every worker count under every fault mode.
const WORKER_COUNTS: [u32; 3] = [2, 4, 8];
const FAULT_MODES: [&str; 3] = ["crash", "loss", "crash+loss"];

/// The fault plan a mode names. Crashes target `victim`; loss is 8%
/// drop + 4% duplicate + 4% delay on the traversal path.
fn plan_for(mode: &str, fault_seed: u64, victim: u32) -> FaultPlan {
    let lossy = FaultPlan::lossy(fault_seed, 80, 40, 40);
    match mode {
        "crash" => FaultPlan::default().crash(victim, 1),
        "loss" => lossy,
        "crash+loss" => lossy.crash(victim, 1),
        other => unreachable!("{other} is not in FAULT_MODES"),
    }
}

/// The worker owning object 2's home vertex — crashing it provably
/// destroys indexed state, so recovery must actually replay the shard.
fn data_owning_worker(workers: u32) -> u32 {
    let hasher = KeywordHasher::new(R, SEED).unwrap();
    RuntimeConfig::new(R, workers)
        .seed(SEED)
        .shard_map()
        .owner_of(hasher.vertex_for(&set("a b")).bits())
}

/// Sorted `(id, extra_keywords)` pairs — the full observable payload of
/// a search, so equality here is byte-identity of the result frames
/// modulo arrival order.
fn payload(found: &[RuntimeMatch]) -> Vec<(u64, u32)> {
    let mut pairs: Vec<(u64, u32)> = found
        .iter()
        .map(|m| (m.object.raw(), m.extra_keywords))
        .collect();
    pairs.sort_unstable();
    pairs
}

/// The fault-tolerant payload, and a plain query over the same lossy
/// wires (the crash is spent) — whole answers only, so the same
/// payload. The fault-tolerant budget recovers every owner under the
/// fixed seeds below, so the faulted runs reproduce the unfaulted
/// payload exactly; a query whose coordinator is the crash victim dies
/// with it, and the client re-issues it an attempt later.
#[test]
fn faulted_plain_and_ft_queries_reproduce_the_unfaulted_payload() {
    let payloads = |workers, plan: FaultPlan| {
        let mut rt = loaded_faulted(workers, plan);
        let out = rt.superset_search_ft(&set("a"), usize::MAX - 1).unwrap();
        assert!(out.complete, "{:?}", out.coverage);
        let plain = rt.superset_search(&set("a"), usize::MAX - 1).unwrap();
        let report = rt.shutdown();
        report.assert_conserved();
        (payload(&out.matches), payload(&plain), report)
    };
    for workers in WORKER_COUNTS {
        let (truth, plain, _) = payloads(workers, FaultPlan::default());
        assert!(!truth.is_empty());
        assert_eq!(plain, truth);
        for mode in FAULT_MODES {
            let victim = data_owning_worker(workers);
            let (got, plain, report) = payloads(workers, plan_for(mode, 0xFA17, victim));
            assert_eq!(
                got, truth,
                "mode={mode} workers={workers}: faulted payload diverged"
            );
            assert_eq!(plain, truth, "mode={mode} workers={workers}: plain query");
            if mode.contains("crash") {
                assert_eq!(report.supervisor.respawns, 1, "mode={mode}");
                assert!(
                    report.supervisor.replayed_frames > 0,
                    "mode={mode}: crash of a data-owning worker must replay state"
                );
            }
        }
    }
}

#[test]
fn duplicate_insert_frames_are_idempotent() {
    // The same bulk load delivered twice — every `Insert` frame is a
    // duplicate the second time — must change nothing: same inserts
    // counted, same results returned.
    let corpus: Vec<(ObjectId, KeywordSet)> =
        CORPUS.iter().map(|&(id, k)| (oid(id), set(k))).collect();
    let mut rt = MeshRuntime::start(R, 4, SEED);
    for _ in 0..2 {
        rt.bulk_load(corpus.iter().map(|(id, k)| (*id, k))).unwrap();
    }
    rt.flush();
    let found = rt.superset_search(&set("a"), usize::MAX - 1).unwrap();
    assert_eq!(match_ids(&found), UNDER_A);

    let report = rt.shutdown();
    report.assert_conserved();
    let inserts: u64 = report.workers.iter().map(|w| w.inserts).sum();
    assert_eq!(
        inserts,
        CORPUS.len() as u64,
        "a duplicate insert must not count again"
    );
}

#[test]
fn a_plain_query_that_loses_an_owner_for_good_is_dropped_not_answered_short() {
    // Worker 0 of a two-worker cluster under total loss, the test as
    // its client: every `RegionQuery` it sends worker 1 is dropped.
    let cfg = RuntimeConfig::new(R, 2).seed(SEED);
    let plan = FaultPlan::lossy(7, 1000, 0, 0);
    let mut mesh = Mesh::start(cfg, plan, LatencyModel::uniform(1, 3), SEED);
    // A one-word query: its subcube spans both workers' halves.
    let ask = |mesh: &mut Mesh, query_id| {
        let query = WireMsg::Query {
            query_id,
            keywords: set("a"),
            threshold: u64::MAX - 1,
        };
        mesh.send(0, &query);
    };
    // The first sighting reserves the cache slot and parks on worker 1;
    // the second joins it as a waiter. Query 1 stays parked through
    // the whole budget — four transmissions, 1 s doubling — then gives
    // up and releases its slot, and its waiter starts over as a new
    // arrival: a walk of its own, through a budget of its own.
    ask(&mut mesh, 1);
    ask(&mut mesh, 2);
    mesh.deliver();
    let stats = mesh.stats(0);
    assert_eq!(
        (
            stats.cache_misses,
            stats.cache_coalesced,
            stats.batch_frames_sent
        ),
        (1, 1, 1),
        "{stats:?}"
    );
    let asked = mesh.now();
    mesh.settle();
    let gave_up = mesh.now() - asked;
    let budgets = Duration::from_secs(2 * (1 + 2 + 4 + 8));
    let slack = Duration::from_millis(10);
    assert!(
        (budgets - slack..budgets + slack).contains(&gave_up),
        "{gave_up:?}"
    );
    // Had query 2's reservation outlived it, query 3 would wait for a
    // traversal that is gone; it leads its own walk instead.
    ask(&mut mesh, 3);
    mesh.deliver();
    let stats = mesh.stats(0);
    assert_eq!(stats.queries_abandoned, 2, "{stats:?}");
    assert_eq!(
        (stats.cache_misses, stats.cache_coalesced, stats.cache_stale),
        (3, 1, 0),
        "{stats:?}"
    );
    // Four `RegionQuery`s each for the abandoned two, one for the
    // third: nothing reached worker 1, nothing was said to the client.
    assert_eq!((stats.batch_frames_sent, mesh.lost), (9, 9));
    assert_eq!(stats.frames_sent, 9, "{stats:?}");
    assert!(mesh.stats(1).frames_received == 0 && mesh.replies().is_empty());
    // Query 3 is still parked when its worker is told to go: counted.
    let report = mesh.shutdown();
    report.assert_conserved();
    assert_eq!(report.workers[0].queries_abandoned, 3);
}

fn insert(object: u64, kws: &str) -> WireMsg {
    let keywords = set(kws);
    WireMsg::Insert { object, keywords }
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
    let cfg = RuntimeConfig::new(R, 1).seed(SEED);
    let plan = FaultPlan::default().crash(0, 10);
    let mut mesh = Mesh::start(cfg, plan, LatencyModel::uniform(1, 3), SEED);
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
    assert_eq!(worker_cache(&after), worker_cache(&before));
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
