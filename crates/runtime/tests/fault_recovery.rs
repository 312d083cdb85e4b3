//! Integration: the threaded runtime under injected faults.
//!
//! The ISSUE-6 contract: a worker crash mid-superset-scan is survived
//! — the machine restarts in place from its shard's load log, and the
//! recovered query returns results byte-identical
//! to an unfaulted run; lossy wires are absorbed by the coordinator's
//! per-owner deadlines, for fault-tolerant and plain queries alike (a
//! plain query that loses an owner for good is dropped, never answered
//! short); and graded fault parity holds across a worker-count ×
//! fault-mode matrix, with frame conservation on every shutdown. The
//! matrix runs on real threads — the exited inboxes' drain is the
//! host's — and on the mesh, and the one case that is purely the
//! machine's, a plain query sitting out its whole retry budget, on the
//! mesh alone (`mesh/mod.rs`), where fifteen seconds cost nothing.

mod mesh;

use std::time::Duration;

use hyperdex_core::{FtPolicy, KeywordHasher, KeywordSet, ObjectId, RecoveryStrategy};
use hyperdex_runtime::{
    assert_fault_parity, FaultPlan, FtSearchOptions, NodeRuntime, RuntimeConfig, WireMsg,
};
use hyperdex_simnet::LatencyModel;
use hyperdex_workload::{Corpus, CorpusConfig};
use mesh::{Mesh, MeshRuntime};

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
/// exactly. The client's patience is many short attempts rather than
/// few long ones: a query whose coordinator is the crash victim dies
/// with it, and on threads the first attempt's deadline is real time
/// the matrix sits out six times over.
fn recovering_opts() -> FtSearchOptions {
    FtSearchOptions {
        policy: FtPolicy {
            strategy: RecoveryStrategy::Redelegate,
            max_retries: 5,
            base_timeout: 20,
        },
        attempt_timeout_ms: 250,
        attempts: 16,
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

/// The same matrix on the mesh, where a lost frame's one-second
/// deadline is virtual: the fault-tolerant payload again, and a plain
/// query over the same lossy wires (the crash is spent) — whole answers
/// only, so the same payload.
#[test]
fn faulted_plain_and_ft_queries_reproduce_the_unfaulted_payload_on_the_mesh() {
    let opts = recovering_opts();
    let payloads = |workers, plan: FaultPlan| {
        let mut rt = MeshRuntime::start_faulted(R, workers, SEED, plan);
        for &(id, kws) in CORPUS {
            rt.insert(ObjectId::from_raw(id), set(kws)).unwrap();
        }
        rt.flush();
        let out = rt
            .superset_search_ft(&set("a"), usize::MAX - 1, &opts)
            .unwrap();
        assert!(out.complete, "{:?}", out.coverage);
        let sorted = |mut pairs: Vec<(u64, u32)>| {
            pairs.sort_unstable();
            pairs
        };
        let ft = sorted(
            out.matches
                .iter()
                .map(|m| (m.object.raw(), m.extra_keywords))
                .collect(),
        );
        let plain = sorted(
            rt.superset_search(&set("a"), usize::MAX - 1)
                .unwrap()
                .iter()
                .map(|m| (m.object.raw(), m.extra_keywords))
                .collect(),
        );
        let report = rt.shutdown();
        report.assert_conserved();
        (ft, plain, report)
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
                assert!(report.supervisor.replayed_frames > 0, "mode={mode}");
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
    // The first sighting walks and keeps nothing; the second reserves
    // the cache slot. Both park on worker 1, and stay parked through
    // the whole budget: four transmissions, 1 s doubling.
    ask(&mut mesh, 1);
    ask(&mut mesh, 2);
    mesh.deliver();
    let asked = mesh.now();
    mesh.settle();
    let gave_up = mesh.now() - asked;
    let budget = Duration::from_secs(1 + 2 + 4 + 8);
    assert!(
        (budget..budget + Duration::from_millis(10)).contains(&gave_up),
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
        (3, 0, 0),
        "{stats:?}"
    );
    // Four `RegionQuery`s each for the abandoned two, one for the
    // third: nothing reached worker 1, nothing was said to the client.
    assert_eq!((stats.batch_frames_sent, stats.frames_dropped), (9, 9));
    assert_eq!(stats.frames_sent, 9, "{stats:?}");
    assert!(mesh.stats(1).frames_received == 0 && mesh.replies().is_empty());
    // Query 3 is still parked when its worker is told to go: counted.
    let report = mesh.shutdown();
    report.assert_conserved();
    assert_eq!(report.workers[0].queries_abandoned, 3);
}
