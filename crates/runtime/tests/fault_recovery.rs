//! Integration: the threaded runtime under injected faults.
//!
//! The ISSUE-6 contract: a worker crash mid-superset-scan is survived
//! — the supervisor respawns the worker, replays its shard from the
//! load journal, and the recovered query returns results byte-identical
//! to an unfaulted run; lossy wires are absorbed by the coordinator's
//! per-owner deadlines, for fault-tolerant and plain queries alike (a
//! plain query that loses an owner for good is dropped, never answered
//! short); and graded fault parity holds across a worker-count ×
//! fault-mode matrix, with frame conservation on every shutdown.

use std::sync::mpsc::sync_channel;
use std::time::Duration;

use hyperdex_core::{FtPolicy, KeywordHasher, KeywordSet, ObjectId, RecoveryStrategy};
use hyperdex_hypercube::Shape;
use hyperdex_runtime::{
    assert_fault_parity, run_worker, Fabric, FaultInjector, FaultPlan, FtSearchOptions,
    NodeRuntime, RuntimeConfig, WireMsg, WorkerContext,
};
use hyperdex_workload::{Corpus, CorpusConfig};

const R: u8 = 8;
const SEED: u64 = 42;

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

fn set(s: &str) -> KeywordSet {
    KeywordSet::parse(s).unwrap()
}

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
/// Built via [`RuntimeConfig::shard_map`] so the victim tracks the
/// runtime's actual placement policy.
fn data_owning_worker(workers: u32) -> u32 {
    let hasher = KeywordHasher::new(R, SEED).unwrap();
    RuntimeConfig::new(R, workers)
        .seed(SEED)
        .shard_map()
        .owner_of(hasher.vertex_for(&set("a b")).bits())
}

fn loaded(workers: u32, plan: FaultPlan) -> NodeRuntime {
    let mut rt =
        NodeRuntime::start_faulted(RuntimeConfig::new(R, workers).seed(SEED), plan).unwrap();
    for &(id, kws) in CORPUS {
        rt.insert(ObjectId::from_raw(id), set(kws)).unwrap();
    }
    rt.flush();
    rt
}

/// Sorted `(id, extra_keywords)` pairs — the full observable payload of
/// a search, so equality here is byte-identity of the result frames
/// modulo arrival order.
fn payload(rt: &mut NodeRuntime, opts: &FtSearchOptions) -> Vec<(u64, u32)> {
    let out = rt
        .superset_search_ft(&set("a"), usize::MAX - 1, opts)
        .unwrap();
    assert!(
        out.complete,
        "recovery should reach every vertex here: {:?}",
        out.coverage
    );
    let mut pairs: Vec<(u64, u32)> = out
        .matches
        .iter()
        .map(|m| (m.object.raw(), m.extra_keywords))
        .collect();
    pairs.sort_unstable();
    pairs
}

/// Generous retry budget: with the fixed seeds below, every vertex is
/// recovered and faulted runs must reproduce the unfaulted payload
/// exactly.
fn recovering_opts() -> FtSearchOptions {
    FtSearchOptions {
        policy: FtPolicy {
            strategy: RecoveryStrategy::Redelegate,
            max_retries: 5,
            base_timeout: 20,
        },
        attempt_timeout_ms: 1_500,
        attempts: 3,
    }
}

#[test]
fn faulted_runs_reproduce_the_unfaulted_payload_byte_for_byte() {
    let opts = recovering_opts();
    for workers in WORKER_COUNTS {
        let mut clean = loaded(workers, FaultPlan::default());
        let truth = payload(&mut clean, &opts);
        assert!(!truth.is_empty());
        clean.shutdown().assert_conserved();

        for mode in FAULT_MODES {
            let victim = data_owning_worker(workers);
            let mut faulted = loaded(workers, plan_for(mode, 0xFA17, victim));
            let got = payload(&mut faulted, &opts);
            assert_eq!(
                got, truth,
                "mode={mode} workers={workers}: faulted payload diverged"
            );
            // A plain query rides the same lossy wires (the crash is
            // spent): whole answers only, so the same payload.
            if mode.contains("loss") {
                let mut plain: Vec<(u64, u32)> = faulted
                    .superset_search(&set("a"), usize::MAX - 1)
                    .unwrap()
                    .iter()
                    .map(|m| (m.object.raw(), m.extra_keywords))
                    .collect();
                plain.sort_unstable();
                assert_eq!(plain, truth, "mode={mode} workers={workers}: plain query");
            }
            let report = faulted.shutdown();
            report.assert_conserved();
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
fn fault_parity_holds_across_the_matrix() {
    let corpus: Vec<(ObjectId, KeywordSet)> =
        Corpus::generate(&CorpusConfig::pchome().with_objects(120), SEED)
            .indexable()
            .map(|(id, kw)| (id, kw.clone()))
            .collect();
    // Broad single-keyword probes: large subcubes, long traversals.
    let mut queries: Vec<KeywordSet> = Vec::new();
    for (_, kw) in corpus.iter().take(60) {
        if kw.len() == 1 && !queries.contains(kw) {
            queries.push(kw.clone());
        }
        if queries.len() == 3 {
            break;
        }
    }
    if queries.is_empty() {
        queries.push(corpus[0].1.clone());
    }

    for workers in WORKER_COUNTS {
        for mode in FAULT_MODES {
            let victim = data_owning_worker(workers);
            let plan = plan_for(mode, 0xBEEF, victim);
            let report = assert_fault_parity(
                R,
                SEED,
                workers,
                &plan,
                &recovering_opts(),
                &corpus,
                &queries,
            );
            assert_eq!(
                report.complete + report.partial + report.degraded,
                queries.len(),
                "mode={mode} workers={workers}"
            );
            assert_eq!(report.shutdown.in_flight(), 0);
        }
    }
}

#[test]
fn duplicate_handoff_frames_are_idempotent() {
    // The same bulk load delivered twice — every Handoff frame is a
    // duplicate the second time — must change nothing: same inserts
    // counted, same results returned.
    let corpus: Vec<(ObjectId, KeywordSet)> = CORPUS
        .iter()
        .map(|&(id, k)| (ObjectId::from_raw(id), set(k)))
        .collect();
    let mut rt = NodeRuntime::start(RuntimeConfig::new(R, 4).seed(SEED)).unwrap();
    rt.bulk_load(corpus.iter().map(|(id, k)| (*id, k))).unwrap();
    rt.bulk_load(corpus.iter().map(|(id, k)| (*id, k))).unwrap();
    rt.flush();

    let mut ids: Vec<u64> = rt
        .superset_search(&set("a"), usize::MAX - 1)
        .unwrap()
        .iter()
        .map(|m| m.object.raw())
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2, 3, 4, 6, 8]);

    let report = rt.shutdown();
    report.assert_conserved();
    let inserts: u64 = report.workers.iter().map(|w| w.inserts).sum();
    assert_eq!(
        inserts,
        CORPUS.len() as u64,
        "replayed handoffs must not re-count inserts"
    );
}

#[test]
fn a_plain_query_that_loses_an_owner_for_good_is_dropped_not_answered_short() {
    // Worker 0 of a two-worker cluster under total loss, the test as
    // its client: every `RegionQuery` it sends worker 1 is dropped.
    let hasher = KeywordHasher::new(R, SEED).unwrap();
    let shards = RuntimeConfig::new(R, 2).seed(SEED).shard_map();
    let (inbox_tx, inbox) = sync_channel::<Vec<u8>>(64);
    let (peer_tx, peer) = sync_channel::<Vec<u8>>(64);
    let (client_tx, client) = sync_channel::<Vec<u8>>(64);
    let ctx = WorkerContext {
        index: 0,
        shape: Shape::new(R).unwrap(),
        hasher,
        shards,
        injector: Some(FaultInjector::new(FaultPlan::lossy(7, 1000, 0, 0), 0)),
        repairing: false,
    };
    let links = vec![None, Some(peer_tx), Some(client_tx)];
    let worker = std::thread::spawn(move || run_worker(ctx, Fabric::inboxes(links), inbox));
    // A one-word query: its subcube spans both workers' halves.
    let ask = |query_id| {
        let query = WireMsg::Query {
            query_id,
            keywords: set("a"),
            threshold: u64::MAX - 1,
        };
        inbox_tx.send(query.encode()).unwrap();
    };
    // The first sighting walks and keeps nothing; the second reserves
    // the cache slot. Both park on worker 1, and stay parked through
    // the whole budget: four transmissions, 1 s doubling.
    ask(1);
    ask(2);
    std::thread::sleep(Duration::from_secs(1 + 2 + 4 + 8 + 1));
    // Had query 2's reservation outlived it, query 3 would wait for a
    // traversal that is gone; it leads its own walk instead.
    ask(3);
    inbox_tx.send(WireMsg::Shutdown.encode()).unwrap();
    let stats = worker.join().unwrap().stats;
    assert_eq!(stats.queries_abandoned, 2, "{stats:?}");
    assert_eq!(
        (stats.cache_misses, stats.cache_coalesced, stats.cache_stale),
        (3, 0, 0),
        "{stats:?}"
    );
    // Four `RegionQuery`s each for the abandoned two, one for the
    // third: nothing reached worker 1, nothing was said to the client.
    assert_eq!((stats.batch_frames_sent, stats.frames_dropped), (9, 9));
    assert_eq!(stats.frames_sent, 9, "{stats:?}");
    assert!(peer.try_recv().is_err() && client.try_recv().is_err());
}
