//! The serving-path result cache, script by script.
//!
//! * A request list with repeats: the cluster admits a repeated query
//!   once — on its root's owner — not once per worker.
//! * Two worker machines with a lane held, so the interleavings the
//!   epoch rules exist for are forced frame by frame: a repeat
//!   answered with no traversal frame, a flushed write made visible by
//!   the request's marks, a waiter whose marks the finished traversal
//!   cannot satisfy, a traversal whose answer the wire lost and one it
//!   duplicated, an answer that arrives in several frames and one that
//!   arrives with a frame missing, a query sent to a worker that does
//!   not own its root, a restarted worker's epoch.
//! * A worker crash between two cached answers.
//! * An answer too long to keep.

use std::collections::{BTreeSet, HashMap};

use hyperdex_core::{KeywordHasher, KeywordSet, ObjectId};
use hyperdex_runtime::{
    FaultPlan, FtSearchOptions, Request, RuntimeConfig, ShutdownReport, WireMsg,
};
use hyperdex_simnet::LatencyModel;
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

use crate::mesh::{decode_all, Mesh, MeshRuntime};
use crate::{ft_opts, match_ids, report_cache, set, worker_cache, SEED};

/// The scripts' cube: small, so one word's subcube is most of it.
const RIG_R: u8 = 6;

// ---------------------------------------------------------------
// A request list with repeats
// ---------------------------------------------------------------

/// A corpus and a skewed request list over a dozen popular queries.
fn hot_workload() -> (Vec<(ObjectId, KeywordSet)>, Vec<Request>) {
    let corpus = Corpus::generate(&CorpusConfig::pchome().with_objects(2_000), SEED);
    let log = QueryLog::generate(&QueryLogConfig::small_test(), &corpus, SEED + 1);
    let entries = corpus.indexable().map(|(id, k)| (id, k.clone())).collect();
    let mut hot = log.popular_of_size(1, 6);
    hot.extend(log.popular_of_size(2, 6));
    // A fixed multiplicative walk: low picks (the hottest queries)
    // come up far more often than high ones.
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

#[test]
fn a_repeated_query_is_admitted_once_on_its_roots_owner() {
    let (entries, requests) = hot_workload();
    for workers in [1, 2, 4, 8] {
        let mut rt = MeshRuntime::start(8, workers, SEED);
        rt.bulk_load(entries.iter().map(|(id, k)| (*id, k)))
            .unwrap();
        rt.flush();
        rt.run_batch(&requests, 32).unwrap();
        let owner_of = |keywords: &KeywordSet| rt.mesh.borrow().owner(keywords);
        // Every arrival of a query lands on its root's owner, so the
        // cluster walks a repeated query twice (first sighting, then the
        // admitting walk) — not twice per worker — and nobody else ever
        // hears of it.
        let mut arrivals: HashMap<&KeywordSet, (u32, u64)> = HashMap::new();
        for request in &requests {
            let Request::Superset { keywords, .. } = request else {
                unreachable!("only supersets were built");
            };
            arrivals
                .entry(keywords)
                .or_insert((owner_of(keywords), 0))
                .1 += 1;
        }
        let report = rt.shutdown();
        report.assert_conserved();
        let cache = report_cache(&report);
        assert_eq!(
            cache.hits + cache.coalesced + cache.misses + cache.stale,
            requests.len() as u64,
            "every query is exactly one outcome: {cache:?}"
        );
        assert_eq!(cache.stale, 0, "nothing was written after the flush");
        assert!(
            (cache.hits + cache.coalesced) * 2 > requests.len() as u64,
            "workers={workers}: a dozen hot queries must mostly repeat: {cache:?}"
        );
        for (w, stats) in report.workers.iter().enumerate() {
            let here = || arrivals.values().filter(|(owner, _)| *owner == w as u32);
            assert_eq!(
                stats.cache_misses,
                here().map(|(_, count)| (*count).min(2)).sum::<u64>(),
                "workers={workers}: worker {w} admitted a query that is not its own"
            );
            assert_eq!(
                stats.queries_coordinated,
                here().map(|(_, count)| count).sum::<u64>()
            );
        }
    }
}

// ---------------------------------------------------------------
// Two worker machines, the test as the client, a lane held
// ---------------------------------------------------------------

/// Workers 0 and 1 of a two-worker cluster on the mesh.
fn rig() -> Mesh {
    Mesh::quiet(RIG_R, 2, SEED)
}

/// The one frame the client has been sent.
fn client_frame(mesh: &mut Mesh) -> WireMsg {
    let mut msgs = mesh.replies();
    assert_eq!(msgs.len(), 1, "one reply at a time in these scripts");
    msgs.pop().unwrap()
}

/// Inserts at the owner and waits for its barrier; the epoch the
/// `FlushAck` shows.
fn insert_flushed(mesh: &mut Mesh, object: u64, keywords: &KeywordSet) -> u64 {
    let owner = mesh.owner(keywords);
    mesh.send(
        owner,
        &WireMsg::Insert {
            object,
            keywords: keywords.clone(),
        },
    );
    flush(mesh, owner)
}

fn flush(mesh: &mut Mesh, worker: u32) -> u64 {
    mesh.send(worker, &WireMsg::Flush { token: 0 });
    mesh.deliver();
    match client_frame(mesh) {
        WireMsg::FlushAck {
            worker: acked,
            epoch,
            ..
        } => {
            assert_eq!(acked, worker);
            epoch
        }
        other => panic!("expected a flush ack, got {other:?}"),
    }
}

fn query_at(query_id: u64, keywords: &KeywordSet, marks: &[u64]) -> WireMsg {
    WireMsg::QueryAt {
        query_id,
        keywords: keywords.clone(),
        threshold: u64::MAX - 1,
        marks: marks.to_vec(),
    }
}

/// Sends a superset query to worker 0 and lets it complete: the sorted
/// ids and the worker-to-worker frames that crossed.
fn search(mesh: &mut Mesh, query_id: u64, keywords: &KeywordSet, marks: &[u64]) -> (Vec<u64>, u64) {
    search_at(mesh, 0, query_id, keywords, marks)
}

fn search_at(
    mesh: &mut Mesh,
    coordinator: u32,
    query_id: u64,
    keywords: &KeywordSet,
    marks: &[u64],
) -> (Vec<u64>, u64) {
    let crossed = mesh.crossed;
    mesh.send(coordinator, &query_at(query_id, keywords, marks));
    mesh.deliver();
    (
        done_ids(client_frame(mesh), query_id),
        mesh.crossed - crossed,
    )
}

/// Shuts the cluster down; the ledger closes.
fn shutdown(mut mesh: Mesh) -> ShutdownReport {
    let report = mesh.shutdown();
    report.assert_conserved();
    report
}

fn done_ids(reply: WireMsg, expect_id: u64) -> Vec<u64> {
    match reply {
        WireMsg::QueryDone { query_id, objects } => {
            assert_eq!(query_id, expect_id);
            let mut ids: Vec<u64> = objects.into_iter().map(|(id, _)| id).collect();
            ids.sort_unstable();
            ids
        }
        other => panic!("expected QueryDone for {expect_id}, got {other:?}"),
    }
}

fn done_query(query_id: u64, ids: &[u64]) -> WireMsg {
    WireMsg::QueryDone {
        query_id,
        objects: ids.iter().map(|&id| (id, 1)).collect(),
    }
}

/// A one-word query whose subcube both workers own part of, and for
/// each worker a keyword set under it that the worker owns.
fn spanning_query(mesh: &Mesh) -> (KeywordSet, [Vec<KeywordSet>; 2]) {
    for q in 0..64 {
        let query = set(&format!("q{q}"));
        let mut owned: [Vec<KeywordSet>; 2] = [Vec::new(), Vec::new()];
        for extra in 0..64 {
            let keywords = set(&format!("q{q} x{extra}"));
            owned[mesh.owner(&keywords) as usize].push(keywords);
        }
        if owned.iter().all(|sets| sets.len() >= 4) {
            return (query, owned);
        }
    }
    panic!("no query spans both workers at this seed");
}

#[test]
fn a_repeat_costs_two_frames_and_a_flushed_write_costs_no_extra_frame() {
    let mut rig = rig();
    let (query, owned) = spanning_query(&rig);
    assert_eq!(insert_flushed(&mut rig, 1, &owned[0][0]), 1);
    assert_eq!(insert_flushed(&mut rig, 2, &owned[1][0]), 1);
    let marks = [1, 1];

    // First sighting walks and keeps nothing; the second walks and
    // fills the slot; from the third on nothing crosses the wire.
    let (first, walked) = search(&mut rig, 1, &query, &marks);
    assert_eq!(first, vec![1, 2]);
    assert_eq!(walked, 2, "one round: worker 1 is asked and answers");
    assert_eq!(search(&mut rig, 2, &query, &marks), (vec![1, 2], walked));
    assert_eq!(search(&mut rig, 3, &query, &marks), (vec![1, 2], 0));
    // A bare `Query` is the same request with no marks.
    let crossed = rig.crossed;
    rig.send(
        0,
        &WireMsg::Query {
            query_id: 4,
            keywords: query.clone(),
            threshold: u64::MAX - 1,
        },
    );
    rig.deliver();
    assert_eq!(
        (client_frame(&mut rig), rig.crossed - crossed),
        (done_query(4, &[1, 2]), 0)
    );

    // A write lands on worker 1 and is flushed: the ack shows epoch 2.
    assert_eq!(insert_flushed(&mut rig, 3, &owned[1][1]), 2);
    // The flushing client's next request carries that mark: worker 0
    // has heard nothing from worker 1 since, but must not answer from
    // the entry stamped at epoch 1.
    assert_eq!(
        search(&mut rig, 5, &query, &[1, 2]),
        (vec![1, 2, 3], walked)
    );
    // The recomputed entry replaced the old one and serves again.
    assert_eq!(search(&mut rig, 6, &query, &[1, 2]), (vec![1, 2, 3], 0));

    // A write on the coordinator's own shard moves its own epoch.
    assert_eq!(insert_flushed(&mut rig, 4, &owned[0][1]), 2);
    assert_eq!(
        search(&mut rig, 7, &query, &[2, 2]),
        (vec![1, 2, 3, 4], walked)
    );
    assert_eq!(search(&mut rig, 8, &query, &[2, 2]), (vec![1, 2, 3, 4], 0));

    let w0 = &shutdown(rig).workers[0];
    assert_eq!(
        (w0.cache_hits, w0.cache_misses, w0.cache_stale),
        (4, 2, 2),
        "{w0:?}"
    );
    assert_eq!(w0.queries_coordinated, 8);
}

#[test]
fn a_waiter_the_running_traversal_is_too_old_for_starts_over() {
    let mut rig = rig();
    let (query, owned) = spanning_query(&rig);
    insert_flushed(&mut rig, 1, &owned[0][0]);
    insert_flushed(&mut rig, 2, &owned[1][0]);
    search(&mut rig, 1, &query, &[1, 1]);
    search(&mut rig, 2, &query, &[1, 1]);
    assert_eq!(search(&mut rig, 3, &query, &[1, 1]), (vec![1, 2], 0));

    // A local write outdates the entry, so query 10 walks again — and
    // its first frame to worker 1 is scanned there at epoch 1 ...
    insert_flushed(&mut rig, 3, &owned[0][1]);
    rig.hold(1, 0);
    let sent = rig.trace.len();
    rig.send(0, &query_at(10, &query, &[2, 1]));
    rig.deliver();
    assert!(matches!(
        rig.crossed_since(sent)[..],
        [WireMsg::RegionQuery { .. }]
    ));
    // ... while the reply is still on the wire, another client's write
    // reaches worker 1 and is flushed (epoch 2), and that client asks
    // the same query: it joins the running traversal.
    assert!(matches!(
        rig.held(1, 0)[..],
        [WireMsg::RegionDone {
            worker: 1,
            epoch: 1,
            part: 0,
            more: false,
            ..
        }]
    ));
    assert_eq!(insert_flushed(&mut rig, 4, &owned[1][1]), 2);
    rig.send(0, &query_at(11, &query, &[2, 2]));
    // Worker 0 takes query 11 in before the held reply.
    assert_eq!(flush(&mut rig, 0), 2);
    let released = rig.trace.len();
    rig.release(1, 0);
    rig.deliver();

    // Query 10 is answered by its own traversal, as of its arrival.
    let [first, second] = <[WireMsg; 2]>::try_from(rig.replies()).expect("two answers");
    assert_eq!(done_ids(first, 10), vec![1, 2, 3]);
    // Query 11 flushed object 4 before asking: the traversal it joined
    // scanned worker 1 too early, so it walks again and sees it.
    assert_eq!(done_ids(second, 11), vec![1, 2, 3, 4]);
    let crossed = rig
        .crossed_since(released)
        .into_iter()
        .filter(|msg| {
            matches!(
                msg,
                WireMsg::RegionQuery { query_id: 11, .. }
                    | WireMsg::RegionDone { query_id: 11, .. }
            )
        })
        .count();
    assert_eq!(crossed, 2, "query 11 needed its own walk");

    // Every waiter's `QueryDone` is in the ledger that closes.
    let w0 = &shutdown(rig).workers[0];
    assert_eq!(w0.cache_coalesced, 1, "{w0:?}");
    assert_eq!(w0.cache_stale, 2, "query 10, then query 11 starting over");
}

#[test]
fn a_lost_answer_is_asked_for_again_and_a_duplicated_one_is_heard_once() {
    // Worker 1's first answer arrives, its second is lost, its third
    // arrives twice.
    let mut rig = rig();
    let (query, owned) = spanning_query(&rig);
    insert_flushed(&mut rig, 1, &owned[0][0]);
    insert_flushed(&mut rig, 2, &owned[1][0]);
    let marks = vec![1, 1];
    assert_eq!(search(&mut rig, 1, &query, &marks), (vec![1, 2], 2));

    // The second sighting reserves the slot, and worker 1's answer to
    // it never reaches worker 0.
    rig.hold(1, 0);
    let sent = rig.trace.len();
    let asked_at = rig.now().as_millis() as u64;
    rig.send(0, &query_at(2, &query, &marks));
    rig.deliver();
    assert!(matches!(
        rig.crossed_since(sent)[..],
        [WireMsg::RegionQuery {
            query_id: 2,
            attempt: 0,
            ..
        }]
    ));
    rig.lose(1, 0);
    // An identical query right behind it waits for that traversal:
    // the acks are the only frames either worker has for anybody.
    rig.send(0, &query_at(3, &query, &marks));
    assert_eq!(flush(&mut rig, 1), 1);
    assert_eq!(flush(&mut rig, 0), 1);
    assert!(rig.held(1, 0).is_empty());

    // The owner's deadline passes and it is asked again. That answer
    // arrives twice — the copy behind a finished query — and is the
    // answer of the traversal and of its waiter, in one packet.
    rig.release(1, 0);
    rig.copy_next(1, 0);
    let crossed = rig.crossed;
    rig.settle();
    assert_eq!(
        rig.replies(),
        [done_query(2, &[1, 2]), done_query(3, &[1, 2])]
    );
    let (answered_at, _, _, answers) = rig
        .trace
        .iter()
        .rfind(|(_, _, to, _)| *to == 2)
        .expect("the answers' packet");
    assert_eq!(decode_all(answers).len(), 2);
    // One second after the first `RegionQuery`: the plain policy's
    // first deadline, in virtual time.
    assert!((1_000..1_050).contains(&(answered_at - asked_at)));
    assert_eq!(
        rig.crossed - crossed,
        3,
        "the second `RegionQuery`, the answer twice"
    );
    // The traversal filled the slot it held all along.
    assert_eq!(search(&mut rig, 4, &query, &marks), (vec![1, 2], 0));
    // The wire dealt the fates here, not worker 1's injector: the
    // ledger the mesh closes at shutdown counts the copy and the loss.
    assert_eq!((rig.lost, rig.copied), (1, 1));
    let report = rig.shutdown();
    let (w0, w1) = (&report.workers[0], &report.workers[1]);
    // Sighted, reserved, joined, served: nothing went stale, because no
    // reservation ever outlives a traversal that is still being waited
    // for.
    assert_eq!(
        (
            w0.cache_hits,
            w0.cache_misses,
            w0.cache_coalesced,
            w0.cache_stale
        ),
        (1, 2, 1, 0),
        "{w0:?}"
    );
    assert_eq!(w0.queries_abandoned, 0, "{w0:?}");
    assert_eq!((w1.frames_dropped, w1.frames_duplicated), (0, 0), "{w1:?}");
}

// ---------------------------------------------------------------
// One round per region
// ---------------------------------------------------------------

#[test]
fn an_answer_that_arrives_in_several_frames_merges_to_the_same_result() {
    let mut rig = rig();
    let (query, owned) = spanning_query(&rig);
    insert_flushed(&mut rig, 1, &owned[0][0]);
    // Worker 1's matches, on as many vertices as its sets reach.
    let mut vertices = BTreeSet::new();
    let hasher = rig.hasher;
    let spread = owned[1]
        .iter()
        .filter(|keywords| vertices.insert(hasher.vertex_for(keywords).bits()));
    for (object, keywords) in (2..).zip(spread) {
        insert_flushed(&mut rig, object, keywords);
    }
    assert!(vertices.len() >= 3, "worker 1's sets share two vertices");
    let marks = [1, vertices.len() as u64];
    let everything: Vec<u64> = (1..=1 + vertices.len() as u64).collect();
    let (whole, _) = search(&mut rig, 1, &query, &marks);
    assert_eq!(whole, everything);

    // The same walk again, but worker 1's answer is cut on the wire
    // into one frame per vertex — what a body cap would force. One of
    // the frames is delivered twice, and a middle one not at all.
    rig.hold(1, 0);
    rig.send(0, &query_at(2, &query, &marks));
    rig.deliver();
    let [WireMsg::RegionDone {
        query_id,
        worker,
        epoch,
        attempt: 0,
        part: 0,
        more: false,
        groups,
    }] = &rig.take_held(1, 0)[..]
    else {
        panic!("one whole answer expected");
    };
    assert_eq!(groups.len(), vertices.len());
    for (part, group) in groups.iter().enumerate() {
        let frame = WireMsg::RegionDone {
            query_id: *query_id,
            worker: *worker,
            epoch: *epoch,
            attempt: 0,
            part: part as u32,
            more: part + 1 < groups.len(),
            groups: vec![group.clone()],
        };
        for _ in 0..[2, 0, 1][part.min(2)] {
            rig.send(0, &frame);
        }
    }
    // The frames behind the gap — the last one too — are not an
    // answer: worker 0 says nothing until the owner's deadline passes,
    // asks again, and merges the second answer, whole.
    assert_eq!(flush(&mut rig, 0), 1);
    rig.release(1, 0);
    let crossed = rig.crossed;
    rig.settle();
    let reply = client_frame(&mut rig);
    assert_eq!((done_ids(reply, 2), rig.crossed - crossed), (whole, 2));
    // It filled the slot like any other answer.
    assert_eq!(search(&mut rig, 3, &query, &marks), (everything, 0));
    rig.shutdown();
}

#[test]
fn a_worker_that_does_not_own_the_root_coordinates_what_it_is_sent() {
    let mut rig = rig();
    let (query, owned) = spanning_query(&rig);
    insert_flushed(&mut rig, 1, &owned[0][0]);
    insert_flushed(&mut rig, 2, &owned[1][0]);
    insert_flushed(&mut rig, 3, &owned[1][1]);
    let marks = [1, 2];
    // One of the two is not the root's owner: to it the root's region
    // is one more remote region. Same answer, same two frames.
    let root_owner = rig.owner(&query);
    let at_owner = search_at(&mut rig, root_owner, 1, &query, &marks);
    let elsewhere = search_at(&mut rig, 1 - root_owner, 2, &query, &marks);
    assert_eq!(at_owner, (vec![1, 2, 3], 2));
    assert_eq!(elsewhere, at_owner);
    for exit in shutdown(rig).workers {
        assert_eq!(exit.queries_coordinated, 1);
        assert_eq!(exit.frames_misrouted, 0, "a query is nobody's to refuse");
    }
}

#[test]
fn a_replayed_workers_epoch_never_goes_backwards() {
    // One worker, crashed on its first query-path frame and restarted
    // the way it always is: in place, from its own log.
    let cfg = RuntimeConfig::new(RIG_R, 1).seed(SEED);
    let plan = FaultPlan::default().crash(0, 1);
    let mut rig = Mesh::start(cfg, plan, LatencyModel::uniform(1, 3), SEED);
    let epoch_at_barrier = |rig: &mut Mesh, token| {
        rig.send(0, &WireMsg::Flush { token });
        rig.deliver();
        match rig.replies()[..] {
            [WireMsg::FlushAck { epoch, .. }] => epoch,
            ref other => panic!("expected a flush ack, got {other:?}"),
        }
    };
    let loads: Vec<WireMsg> = (1..=3)
        .map(|object| WireMsg::Insert {
            object,
            keywords: set(&format!("a b{object}")),
        })
        .collect();

    for frame in &loads {
        rig.send(0, frame);
    }
    // A duplicate insert changes nothing and must not count.
    rig.send(0, &loads[0]);
    let before = epoch_at_barrier(&mut rig, 1);
    assert_eq!(before, 3, "one epoch per object newly indexed");
    let pin = WireMsg::Pin {
        query_id: 9,
        keywords: set("a b1"),
    };
    rig.send(0, &pin);
    rig.deliver();
    assert_eq!(rig.stats(0).respawns, 1);
    assert!(rig.replies().is_empty(), "the trigger died with the worker");

    // The restart was whole before it was handed a frame: the first
    // barrier it acks already reports the restored shard.
    let replayed = epoch_at_barrier(&mut rig, 2);
    assert!(replayed >= before, "epoch went from {before} to {replayed}");
    rig.send(
        0,
        &WireMsg::Insert {
            object: 4,
            keywords: set("a b4"),
        },
    );
    assert_eq!(epoch_at_barrier(&mut rig, 3), replayed + 1);
    rig.check_respawns();
    assert_eq!(shutdown(rig).supervisor.replayed_frames, 4);
}

// ---------------------------------------------------------------
// A crash between two cached answers
// ---------------------------------------------------------------

const CRASH_WORKERS: u32 = 2;

fn crash_corpus_set(object: u64) -> KeywordSet {
    set(&format!("hot w{}", object % 10))
}

/// Loads a small corpus and warms the coordinator's cache with the
/// query (three sightings: pass, fill, hit). Then, when `whole`: an FT
/// search rooted on the victim (the crash trigger — the one request
/// whose loss the client survives), the query again, one more flushed
/// write on the victim's shard, and the query twice more.
fn crash_script(
    plan: FaultPlan,
    victim_set: &KeywordSet,
    whole: bool,
) -> (Vec<Vec<u64>>, ShutdownReport) {
    let mut rt = MeshRuntime::start_faulted(8, CRASH_WORKERS, SEED, plan);
    for object in 0..40u64 {
        rt.insert(ObjectId::from_raw(object), crash_corpus_set(object))
            .unwrap();
    }
    rt.flush();
    let query = set("hot");
    let ask =
        |rt: &mut MeshRuntime| match_ids(&rt.superset_search(&query, usize::MAX - 1).unwrap());
    let mut answers = Vec::new();
    for _ in 0..3 {
        answers.push(ask(&mut rt));
    }
    if whole {
        let opts = FtSearchOptions {
            attempt_timeout_ms: 400,
            ..ft_opts()
        };
        let out = rt.superset_search_ft(victim_set, 5, &opts).unwrap();
        assert!(out.complete, "{out:?}");
        answers.push(ask(&mut rt));
        rt.insert(ObjectId::from_raw(40), victim_set.clone())
            .unwrap();
        rt.flush();
        for _ in 0..2 {
            answers.push(ask(&mut rt));
        }
    }
    let report = rt.shutdown();
    report.assert_conserved();
    (answers, report)
}

#[test]
fn no_entry_of_a_crashed_peers_previous_incarnation_answers_differently_than_a_fresh_walk() {
    let shards = RuntimeConfig::new(8, CRASH_WORKERS).seed(SEED).shard_map();
    let hasher = KeywordHasher::new(8, SEED).unwrap();
    let owner = |keywords: &KeywordSet| shards.owner_of(hasher.vertex_for(keywords).bits());
    // The query's one cache entry lives on its root's owner; the
    // victim is the other worker, which stamps part of that entry.
    let coordinator = owner(&set("hot"));
    let victim = 1 - coordinator;
    let victim_set = (0..10)
        .map(crash_corpus_set)
        .find(|keywords| owner(keywords) == victim)
        .expect("the victim owns part of the corpus");

    // What a run without faults answers.
    let (expected, clean) = crash_script(FaultPlan::default(), &victim_set, true);
    let before: Vec<u64> = (0..40).collect();
    let after: Vec<u64> = (0..41).collect();
    assert!(expected[..4].iter().all(|answer| answer == &before));
    assert!(expected[4..].iter().all(|answer| answer == &after));
    let at_coordinator = &clean.workers[coordinator as usize];
    assert_eq!(
        (at_coordinator.cache_hits, at_coordinator.cache_stale),
        (3, 1),
        "the coordinator must have answered from an entry the victim stamped: {at_coordinator:?}"
    );
    assert_eq!(
        worker_cache(&clean.workers[victim as usize]),
        Default::default()
    );

    // Where the trigger falls: every frame the victim receives up to
    // it is a load frame, one of two barriers (ours and shutdown's),
    // the final `Shutdown`, or a query-path frame.
    let (_, warm) = crash_script(FaultPlan::default(), &victim_set, false);
    let loads = (0..40)
        .filter(|&object| owner(&crash_corpus_set(object)) == victim)
        .count() as u64;
    let query_path = warm.workers[victim as usize].frames_received - loads - 2 - 1;
    assert_eq!(
        query_path, 2,
        "the pass and the fill each asked the victim once"
    );

    // The victim dies on the FT query: its tables and every epoch it
    // ever reported are gone; the restart restores its shard. The
    // coordinator still holds an entry stamped by the previous
    // incarnation — and every answer must be what a fresh walk gives.
    let plan = FaultPlan::default().crash(victim, query_path + 1);
    let (answers, report) = crash_script(plan, &victim_set, true);
    assert_eq!(report.supervisor.respawns, 1, "{report:?}");
    assert!(report.supervisor.replayed_frames > 0);
    assert_eq!(answers, expected);
    assert!(
        report.workers[coordinator as usize].cache_hits >= 2,
        "the coordinator's entry outlived the crash and still served: {report:?}"
    );
}

// ---------------------------------------------------------------
// An answer too long to keep
// ---------------------------------------------------------------

#[test]
fn an_answer_longer_than_the_item_bound_is_shared_but_not_kept() {
    // 5,000 objects under one keyword: the exhaustive answer is past
    // the 4,096 items an entry may hold, the thresholded one is not.
    let objects: Vec<(ObjectId, KeywordSet)> = (0..5_000u64)
        .map(|i| (ObjectId::from_raw(i), set(&format!("big x{}", i % 7))))
        .collect();
    let mut rt = MeshRuntime::start(RIG_R, 1, SEED);
    rt.bulk_load(objects.iter().map(|(id, k)| (*id, k)))
        .unwrap();
    rt.flush();
    let big = set("big");
    for _ in 0..4 {
        assert_eq!(
            rt.superset_search(&big, usize::MAX - 1).unwrap().len(),
            5_000
        );
    }
    for _ in 0..4 {
        assert_eq!(rt.superset_search(&big, 20).unwrap().len(), 20);
    }
    let cache = report_cache(&rt.shutdown());
    // Exhaustive: four walks, nothing kept. Thresholded: the query is
    // long since sighted, so the first reserves and fills, three hit.
    assert_eq!(
        (cache.hits, cache.misses, cache.stale),
        (3, 5, 0),
        "{cache:?}"
    );
}
