//! The serving-path result cache, from the outside.
//!
//! * A property test: random interleavings of writes, flushes, single
//!   searches and pipelined batches with duplicated queries, every
//!   answer compared with a `HypercubeIndex` oracle that never caches.
//! * Determinism: the same request list gives the same frame count and
//!   the same cache decisions on every run, and the cluster admits a
//!   repeated query once — on its root's owner — not once per worker.
//! * Two real workers with the test standing in for the wire between
//!   them (and for the client), so the interleavings the epoch rules
//!   exist for can be forced frame by frame: a repeat answered with no
//!   traversal frame, a flushed write made visible by the request's
//!   marks, a waiter whose marks the finished traversal cannot
//!   satisfy, a traversal whose answer the fault plan lost and one it
//!   duplicated, an answer that arrives in several frames and one that
//!   arrives with a frame missing, a query sent to a worker that does
//!   not own its root, a respawned worker's epoch.
//! * A worker crash between two cached answers.
//! * An answer too long to keep.

use std::collections::{BTreeSet, HashMap};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::thread::JoinHandle;
use std::time::Duration;

use hyperdex_core::{HypercubeIndex, KeywordHasher, KeywordSet, ObjectId, SupersetQuery};
use hyperdex_hypercube::Shape;
use hyperdex_runtime::{
    run_worker, take_frame, ExitCause, Fabric, Fate, FaultInjector, FaultPlan, FtSearchOptions,
    NodeRuntime, Request, RuntimeConfig, ShardMap, ShutdownReport, WireMsg, WorkerContext,
    WorkerExit,
};
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};
use proptest::prelude::*;

const SEED: u64 = 42;

fn set(s: &str) -> KeywordSet {
    KeywordSet::parse(s).unwrap()
}

/// Worker counts the first two run at.
const WORKER_COUNTS: [u32; 4] = [1, 2, 4, 8];

// ---------------------------------------------------------------
// Coherence: random interleavings against an uncached oracle
// ---------------------------------------------------------------

const WORDS: [&str; 5] = ["k0", "k1", "k2", "k3", "k4"];
const THRESHOLDS: [usize; 3] = [1, 20, usize::MAX - 1];
const PROP_R: u8 = 6;

/// One of the 31 non-empty subsets of [`WORDS`].
fn record(pick: usize) -> KeywordSet {
    let mask = pick % 31 + 1;
    let words: Vec<&str> = WORDS
        .iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, w)| *w)
        .collect();
    set(&words.join(" "))
}

/// Six queries, so every one repeats often: each word, and one pair.
fn query(pick: usize) -> KeywordSet {
    match pick % 6 {
        5 => set("k0 k1"),
        word => set(WORDS[word]),
    }
}

fn oracle_ids(index: &mut HypercubeIndex, keywords: &KeywordSet, threshold: usize) -> Vec<u64> {
    let out = index
        .superset_search(
            &SupersetQuery::new(keywords.clone())
                .threshold(threshold)
                .use_cache(false),
        )
        .expect("valid query");
    out.results.iter().map(|r| r.object.raw()).collect()
}

/// The runtime's view of the corpus beside the two oracles: `flushed`
/// holds every write a flush has made visible, `all` every write sent.
struct Model {
    rt: NodeRuntime,
    flushed: HypercubeIndex,
    all: HypercubeIndex,
    next_id: u64,
}

impl Model {
    fn new(workers: u32) -> Model {
        let index = HypercubeIndex::new(PROP_R, SEED).unwrap();
        Model {
            rt: NodeRuntime::start(RuntimeConfig::new(PROP_R, workers).seed(SEED)).unwrap(),
            flushed: index.clone(),
            all: index,
            next_id: 0,
        }
    }

    fn fresh_object(&mut self, keywords: &KeywordSet) -> ObjectId {
        self.next_id += 1;
        let id = ObjectId::from_raw(self.next_id);
        self.all.insert(id, keywords.clone()).unwrap();
        id
    }

    /// Checks one answer against the uncached oracle. With nothing
    /// unflushed it must hold `min(t, matches)` of the oracle's
    /// matches — all of them, id for id, unless `t` binds (which
    /// matches a binding `t` keeps is the executor's choice: the
    /// direct engine ranks within a vertex, the workers do not). With
    /// writes in the air either state of each is allowed — but never
    /// an object that was not inserted, and never fewer than the
    /// flushed state owes.
    fn check(
        &mut self,
        answer: &[u64],
        keywords: &KeywordSet,
        threshold: usize,
    ) -> Result<(), String> {
        let got: BTreeSet<u64> = answer.iter().copied().collect();
        prop_assert_eq!(got.len(), answer.len(), "duplicate ids for {keywords}");
        let owed = oracle_ids(&mut self.flushed, keywords, usize::MAX - 1);
        let allowed: BTreeSet<u64> = oracle_ids(&mut self.all, keywords, usize::MAX - 1)
            .into_iter()
            .collect();
        prop_assert!(
            got.is_subset(&allowed),
            "{keywords}: {got:?} holds an object never inserted"
        );
        let settled = self.flushed.len() == self.all.len();
        let at_least = owed.len().min(threshold);
        let at_most = if settled { at_least } else { threshold };
        prop_assert!(
            (at_least..=at_most).contains(&got.len()),
            "{keywords} t={threshold}: {} results, the flushed state owes {at_least}",
            got.len()
        );
        if threshold >= allowed.len() {
            prop_assert!(
                owed.iter().all(|id| got.contains(id)),
                "{keywords} t={threshold}: a flushed object is missing from {got:?}"
            );
        }
        Ok(())
    }

    fn apply(&mut self, (kind, a, b): (u8, usize, usize)) -> Result<(), String> {
        match kind {
            0 | 1 => {
                let keywords = record(a);
                let id = self.fresh_object(&keywords);
                self.rt.insert(id, keywords).unwrap();
            }
            2 => {
                let sets = [record(a), record(b), record(a + b)];
                let entries: Vec<(ObjectId, &KeywordSet)> =
                    sets.iter().map(|k| (self.fresh_object(k), k)).collect();
                self.rt.bulk_load(entries).unwrap();
            }
            3 => {
                self.rt.flush();
                self.flushed = self.all.clone();
            }
            4 | 5 => {
                let (keywords, threshold) = (query(a), THRESHOLDS[b % 3]);
                let answer: Vec<u64> = self
                    .rt
                    .superset_search(&keywords, threshold)
                    .unwrap()
                    .iter()
                    .map(|m| m.object.raw())
                    .collect();
                self.check(&answer, &keywords, threshold)?;
            }
            _ => {
                // Two queries, duplicated, at rotating thresholds:
                // with a window of 4 the duplicates are in flight
                // together.
                let requests: Vec<Request> = (0..6)
                    .map(|slot| Request::Superset {
                        keywords: query(if slot % 2 == 0 { a } else { b }),
                        threshold: THRESHOLDS[(b + slot) % 3],
                    })
                    .collect();
                let answers = self.rt.run_batch(&requests, 4);
                for (request, result) in requests.iter().zip(&answers) {
                    let Request::Superset {
                        keywords,
                        threshold,
                    } = request
                    else {
                        unreachable!("only supersets were sent");
                    };
                    let answer: Vec<u64> = result.objects.iter().map(|o| o.raw()).collect();
                    self.check(&answer, keywords, *threshold)?;
                }
            }
        }
        Ok(())
    }
}

proptest! {
    /// Whatever the interleaving, the cached serving path answers as
    /// the uncached direct engine does: identical after every flush,
    /// and a `t`-truncated entry never answers a larger `t` short.
    #[test]
    fn answers_match_an_uncached_oracle(
        ops in prop::collection::vec((0u8..8, 0usize..64, 0usize..64), 20..60),
    ) {
        for workers in WORKER_COUNTS {
            let mut model = Model::new(workers);
            for op in &ops {
                model.apply(*op)?;
            }
            // Settle, then every query at every threshold once more.
            model.apply((3, 0, 0))?;
            for pick in 0..6 {
                for t in 0..3 {
                    model.apply((4, pick, t))?;
                }
            }
            let report = model.rt.shutdown();
            prop_assert_eq!(report.in_flight(), 0, "workers={workers}: {report:?}");
        }
    }
}

// ---------------------------------------------------------------
// Determinism
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

/// What must repeat exactly. Whether a repeat found the entry filled
/// (`hits`) or its traversal still running (`coalesced`) is a race by
/// design — both cost the same two frames — so the two are summed.
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

#[test]
fn the_same_request_list_costs_the_same_frames_and_cache_decisions() {
    let (entries, requests) = hot_workload();
    let hasher = KeywordHasher::new(8, SEED).unwrap();
    let shards = |workers| RuntimeConfig::new(8, workers).seed(SEED).shard_map();
    for workers in WORKER_COUNTS {
        let run = || {
            let mut rt = NodeRuntime::start(RuntimeConfig::new(8, workers).seed(SEED)).unwrap();
            rt.bulk_load(entries.iter().map(|(id, k)| (*id, k)))
                .unwrap();
            rt.flush();
            rt.run_batch(&requests, 32);
            let report = rt.shutdown();
            report.assert_conserved();
            report
        };
        let (first, second) = (run(), run());
        assert_eq!(
            fingerprint(&first),
            fingerprint(&second),
            "workers={workers}"
        );
        let cache = first.cache();
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
        // Every arrival of a query lands on its root's owner, so the
        // cluster walks a repeated query twice (first sighting, then the
        // admitting walk) — not twice per worker — and nobody else ever
        // hears of it.
        let mut arrivals: HashMap<&KeywordSet, (u32, u64)> = HashMap::new();
        for request in &requests {
            let Request::Superset { keywords, .. } = request else {
                unreachable!("only supersets were built");
            };
            let owner = shards(workers).owner_of(hasher.vertex_for(keywords).bits());
            arrivals.entry(keywords).or_insert((owner, 0)).1 += 1;
        }
        for (w, stats) in first.workers.iter().enumerate() {
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
// Two real workers, the test as the wire and the client
// ---------------------------------------------------------------

const RIG_R: u8 = 6;

fn decode_all(packet: &[u8]) -> Vec<WireMsg> {
    let mut out = Vec::new();
    let mut rest = packet;
    while !rest.is_empty() {
        let (frame, tail) = take_frame(rest).expect("workers emit whole frames");
        out.push(WireMsg::decode_exact(frame).expect("workers emit valid frames"));
        rest = tail;
    }
    out
}

/// Workers 0 and 1 of a two-worker runtime, each on its own thread,
/// with every channel end that would join them held by the test: a
/// frame crosses only when the test carries it.
struct Rig {
    hasher: KeywordHasher,
    shards: ShardMap,
    inbox: [SyncSender<Vec<u8>>; 2],
    /// `wire[w]`: what worker `w` sent toward the other worker.
    wire: [Receiver<Vec<u8>>; 2],
    client: Receiver<Vec<u8>>,
    threads: Vec<JoinHandle<WorkerExit>>,
}

impl Rig {
    fn start() -> Rig {
        Rig::start_faulted([FaultPlan::default(), FaultPlan::default()])
    }

    /// Worker `w` sends its traversal frames through `plans[w]`.
    fn start_faulted(plans: [FaultPlan; 2]) -> Rig {
        let hasher = KeywordHasher::new(RIG_R, SEED).unwrap();
        let shards = ShardMap::new(RIG_R, 2, SEED);
        let (client_tx, client) = sync_channel(1024);
        let mut inbox = Vec::new();
        let mut wire = Vec::new();
        let mut threads = Vec::new();
        for (index, plan) in (0..2u32).zip(plans) {
            let (inbox_tx, inbox_rx) = sync_channel(1024);
            let (wire_tx, wire_rx) = sync_channel(1024);
            let mut links = vec![Some(wire_tx), Some(client_tx.clone())];
            links.insert(index as usize, None);
            let ctx = WorkerContext {
                index,
                shape: Shape::new(RIG_R).unwrap(),
                hasher,
                shards,
                injector: plan.is_active().then(|| FaultInjector::new(plan, index)),
                repairing: false,
            };
            threads.push(std::thread::spawn(move || {
                run_worker(ctx, Fabric::inboxes(links), inbox_rx)
            }));
            inbox.push(inbox_tx);
            wire.push(wire_rx);
        }
        Rig {
            hasher,
            shards,
            inbox: inbox.try_into().unwrap(),
            wire: wire.try_into().unwrap(),
            client,
            threads,
        }
    }

    fn owner(&self, keywords: &KeywordSet) -> u32 {
        self.shards
            .owner_of(self.hasher.vertex_for(keywords).bits())
    }

    fn send(&self, worker: u32, msg: &WireMsg) {
        self.inbox[worker as usize].send(msg.encode()).unwrap();
    }

    /// Inserts at the owner and waits for its barrier; the epoch the
    /// `FlushAck` shows.
    fn insert_flushed(&self, object: u64, keywords: &KeywordSet) -> u64 {
        let owner = self.owner(keywords);
        self.send(
            owner,
            &WireMsg::Insert {
                object,
                keywords: keywords.clone(),
            },
        );
        self.flush(owner)
    }

    fn flush(&self, worker: u32) -> u64 {
        self.send(worker, &WireMsg::Flush { token: 0 });
        match self.client_frame() {
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

    fn client_frame(&self) -> WireMsg {
        let packet = self
            .client
            .recv_timeout(Duration::from_secs(10))
            .expect("a client-bound frame");
        let mut msgs = decode_all(&packet);
        assert_eq!(msgs.len(), 1, "one reply at a time in these scripts");
        msgs.pop().unwrap()
    }

    /// Carries one packet from worker `from` to the other worker,
    /// returning what it held.
    fn carry(&self, from: usize) -> Vec<WireMsg> {
        let packet = self.wire[from]
            .recv_timeout(Duration::from_secs(10))
            .expect("a worker-to-worker frame");
        let msgs = decode_all(&packet);
        self.inbox[1 - from].send(packet).unwrap();
        msgs
    }

    /// Carries frames both ways until the next client-bound frame,
    /// returning it and how many worker-to-worker frames crossed.
    fn carry_until_reply(&self) -> (WireMsg, usize) {
        let (mut msgs, crossed) = self.carry_until_replies();
        assert_eq!(msgs.len(), 1);
        (msgs.pop().unwrap(), crossed)
    }

    /// [`Rig::carry_until_reply`] for a traversal that answers several
    /// queries at once: the next client-bound packet, whole.
    fn carry_until_replies(&self) -> (Vec<WireMsg>, usize) {
        let mut crossed = 0;
        loop {
            if let Ok(packet) = self.client.recv_timeout(Duration::from_millis(1)) {
                return (decode_all(&packet), crossed);
            }
            for from in 0..2 {
                match self.wire[from].try_recv() {
                    Ok(packet) => {
                        crossed += decode_all(&packet).len();
                        self.inbox[1 - from].send(packet).unwrap();
                    }
                    Err(TryRecvError::Empty) => {}
                    Err(TryRecvError::Disconnected) => panic!("worker {from} is gone"),
                }
            }
        }
    }

    /// Sends a superset query to worker 0 and carries frames until it
    /// completes: the sorted ids and the frames that crossed.
    fn search(&self, query_id: u64, keywords: &KeywordSet, marks: &[u64]) -> (Vec<u64>, usize) {
        self.search_at(0, query_id, keywords, marks)
    }

    fn search_at(
        &self,
        coordinator: u32,
        query_id: u64,
        keywords: &KeywordSet,
        marks: &[u64],
    ) -> (Vec<u64>, usize) {
        self.send(
            coordinator,
            &WireMsg::QueryAt {
                query_id,
                keywords: keywords.clone(),
                threshold: u64::MAX - 1,
                marks: marks.to_vec(),
            },
        );
        let (reply, crossed) = self.carry_until_reply();
        (done_ids(reply, query_id), crossed)
    }

    fn shutdown(self) -> Vec<WorkerExit> {
        for worker in 0..2 {
            self.send(worker, &WireMsg::Shutdown);
        }
        self.threads
            .into_iter()
            .map(|t| t.join().expect("worker thread"))
            .collect()
    }
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

/// A one-word query whose subcube both workers own part of, and for
/// each worker a keyword set under it that the worker owns.
fn spanning_query(rig: &Rig) -> (KeywordSet, [Vec<KeywordSet>; 2]) {
    for q in 0..64 {
        let query = set(&format!("q{q}"));
        let mut owned: [Vec<KeywordSet>; 2] = [Vec::new(), Vec::new()];
        for extra in 0..64 {
            let keywords = set(&format!("q{q} x{extra}"));
            owned[rig.owner(&keywords) as usize].push(keywords);
        }
        if owned.iter().all(|sets| sets.len() >= 4) {
            return (query, owned);
        }
    }
    panic!("no query spans both workers at this seed");
}

#[test]
fn a_repeat_costs_two_frames_and_a_flushed_write_costs_no_extra_frame() {
    let rig = Rig::start();
    let (query, owned) = spanning_query(&rig);
    assert_eq!(rig.insert_flushed(1, &owned[0][0]), 1);
    assert_eq!(rig.insert_flushed(2, &owned[1][0]), 1);
    let marks = [1, 1];

    // First sighting walks and keeps nothing; the second walks and
    // fills the slot; from the third on nothing crosses the wire.
    let (first, walked) = rig.search(1, &query, &marks);
    assert_eq!(first, vec![1, 2]);
    assert_eq!(walked, 2, "one round: worker 1 is asked and answers");
    assert_eq!(rig.search(2, &query, &marks), (vec![1, 2], walked));
    assert_eq!(rig.search(3, &query, &marks), (vec![1, 2], 0));
    // A bare `Query` is the same request with no marks.
    rig.send(
        0,
        &WireMsg::Query {
            query_id: 4,
            keywords: query.clone(),
            threshold: u64::MAX - 1,
        },
    );
    assert_eq!(rig.carry_until_reply(), (done_query(4, &[1, 2]), 0));

    // A write lands on worker 1 and is flushed: the ack shows epoch 2.
    assert_eq!(rig.insert_flushed(3, &owned[1][1]), 2);
    // The flushing client's next request carries that mark: worker 0
    // has heard nothing from worker 1 since, but must not answer from
    // the entry stamped at epoch 1.
    assert_eq!(rig.search(5, &query, &[1, 2]), (vec![1, 2, 3], walked));
    // The recomputed entry replaced the old one and serves again.
    assert_eq!(rig.search(6, &query, &[1, 2]), (vec![1, 2, 3], 0));

    // A write on the coordinator's own shard moves its own epoch.
    assert_eq!(rig.insert_flushed(4, &owned[0][1]), 2);
    assert_eq!(rig.search(7, &query, &[2, 2]), (vec![1, 2, 3, 4], walked));
    assert_eq!(rig.search(8, &query, &[2, 2]), (vec![1, 2, 3, 4], 0));

    let exits = rig.shutdown();
    let w0 = &exits[0].stats;
    assert_eq!(
        (w0.cache_hits, w0.cache_misses, w0.cache_stale),
        (4, 2, 2),
        "{w0:?}"
    );
    assert_eq!(w0.queries_coordinated, 8);
}

fn done_query(query_id: u64, ids: &[u64]) -> WireMsg {
    WireMsg::QueryDone {
        query_id,
        objects: ids.iter().map(|&id| (id, 1)).collect(),
    }
}

#[test]
fn a_waiter_the_running_traversal_is_too_old_for_starts_over() {
    let rig = Rig::start();
    let (query, owned) = spanning_query(&rig);
    rig.insert_flushed(1, &owned[0][0]);
    rig.insert_flushed(2, &owned[1][0]);
    rig.search(1, &query, &[1, 1]);
    rig.search(2, &query, &[1, 1]);
    assert_eq!(rig.search(3, &query, &[1, 1]), (vec![1, 2], 0));

    // A local write outdates the entry, so query 10 walks again — and
    // its first frame to worker 1 is scanned there at epoch 1 ...
    rig.insert_flushed(3, &owned[0][1]);
    rig.send(
        0,
        &WireMsg::QueryAt {
            query_id: 10,
            keywords: query.clone(),
            threshold: u64::MAX - 1,
            marks: vec![2, 1],
        },
    );
    assert!(matches!(rig.carry(0)[..], [WireMsg::RegionQuery { .. }]));
    // ... while the reply is still on the wire, another client's write
    // reaches worker 1 and is flushed (epoch 2), and that client asks
    // the same query: it joins the running traversal.
    let reply = rig.wire[1]
        .recv_timeout(Duration::from_secs(10))
        .expect("worker 1 answers for its region");
    assert!(matches!(
        decode_all(&reply)[..],
        [WireMsg::RegionDone {
            worker: 1,
            epoch: 1,
            part: 0,
            more: false,
            ..
        }]
    ));
    assert_eq!(rig.insert_flushed(4, &owned[1][1]), 2);
    rig.send(
        0,
        &WireMsg::QueryAt {
            query_id: 11,
            keywords: query.clone(),
            threshold: u64::MAX - 1,
            marks: vec![2, 2],
        },
    );
    // Let worker 0 take query 11 in before the held reply: its inbox
    // is FIFO, so a barrier behind the query proves it was handled.
    assert_eq!(rig.flush(0), 2);
    rig.inbox[0].send(reply).unwrap();

    // Query 10 is answered by its own traversal, as of its arrival.
    let (first, _) = rig.carry_until_reply();
    assert_eq!(done_ids(first, 10), vec![1, 2, 3]);
    // Query 11 flushed object 4 before asking: the traversal it joined
    // scanned worker 1 too early, so it walks again and sees it.
    let (second, crossed) = rig.carry_until_reply();
    assert_eq!(done_ids(second, 11), vec![1, 2, 3, 4]);
    assert_eq!(crossed, 2, "query 11 needed its own walk");

    let exits = rig.shutdown();
    let w0 = &exits[0].stats;
    assert_eq!(w0.cache_coalesced, 1, "{w0:?}");
    assert_eq!(w0.cache_stale, 2, "query 10, then query 11 starting over");
    let sent: u64 = exits.iter().map(|e| e.stats.frames_sent).sum();
    let received: u64 = exits.iter().map(|e| e.stats.frames_received).sum();
    // Test-sent frames: 4 inserts, 5 flushes, 5 queries, 2 shutdowns.
    // Client-bound frames: 5 flush acks, 5 QueryDone.
    assert_eq!(
        sent + 16,
        received + 10,
        "every waiter's QueryDone is in the ledger"
    );
}

/// A plan under which worker 1's traversal frames toward worker 0 meet,
/// in send order, exactly `fates` (and are delivered from then on for a
/// while).
fn plan_with_fates(fates: &[Fate]) -> FaultPlan {
    (0..100_000)
        .map(|seed| FaultPlan::lossy(seed, 250, 250, 0))
        .find(|plan| {
            let mut injector = FaultInjector::new(plan.clone(), 1);
            fates.iter().all(|&fate| injector.fate(0) == fate)
                && (0..4).all(|_| injector.fate(0) == Fate::Deliver)
        })
        .expect("some seed deals these fates")
}

#[test]
fn a_lost_answer_is_asked_for_again_and_a_duplicated_one_is_heard_once() {
    // Worker 1's first answer arrives, its second is lost, its third
    // arrives twice.
    let plan = plan_with_fates(&[Fate::Deliver, Fate::Drop, Fate::Duplicate]);
    let rig = Rig::start_faulted([FaultPlan::default(), plan]);
    let (query, owned) = spanning_query(&rig);
    rig.insert_flushed(1, &owned[0][0]);
    rig.insert_flushed(2, &owned[1][0]);
    let marks = vec![1, 1];
    let ask = |query_id: u64| {
        rig.send(
            0,
            &WireMsg::QueryAt {
                query_id,
                keywords: query.clone(),
                threshold: u64::MAX - 1,
                marks: marks.clone(),
            },
        );
    };
    assert_eq!(rig.search(1, &query, &marks), (vec![1, 2], 2));

    // The second sighting reserves the slot, and worker 1's answer to
    // it never leaves worker 1.
    ask(2);
    assert!(matches!(
        rig.carry(0)[..],
        [WireMsg::RegionQuery {
            query_id: 2,
            attempt: 0,
            ..
        }]
    ));
    // An identical query right behind it waits for that traversal. The
    // barriers prove both workers are through: worker 1 has answered
    // into the void, and the ack is the only frame worker 0 has for
    // the client.
    ask(3);
    assert_eq!(rig.flush(1), 1);
    assert_eq!(rig.flush(0), 1);
    assert!(matches!(rig.wire[1].try_recv(), Err(TryRecvError::Empty)));

    // The owner's deadline passes and it is asked again. That answer
    // arrives twice — the copy behind a finished query — and is the
    // answer of the traversal and of its waiter, in one packet.
    let (replies, crossed) = rig.carry_until_replies();
    assert_eq!(replies, [done_query(2, &[1, 2]), done_query(3, &[1, 2])]);
    assert_eq!(crossed, 3, "the second `RegionQuery`, the answer twice");
    // The traversal filled the slot it held all along.
    assert_eq!(rig.search(4, &query, &marks), (vec![1, 2], 0));

    let exits = rig.shutdown();
    let (w0, w1) = (&exits[0].stats, &exits[1].stats);
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
    assert_eq!((w1.frames_dropped, w1.frames_duplicated), (1, 1), "{w1:?}");
    // Every copy that travelled was received: two inserts, four
    // barriers, four queries and two shutdowns came from the test,
    // four acks and four `QueryDone`s went to it.
    let sent = w0.frames_sent + w1.frames_sent + w1.frames_duplicated;
    let received = w0.frames_received + w1.frames_received + w1.frames_dropped;
    assert_eq!(sent + 12, received + 8, "{exits:?}");
}

// ---------------------------------------------------------------
// One round per region
// ---------------------------------------------------------------

#[test]
fn an_answer_that_arrives_in_several_frames_merges_to_the_same_result() {
    let rig = Rig::start();
    let (query, owned) = spanning_query(&rig);
    rig.insert_flushed(1, &owned[0][0]);
    // Worker 1's matches, on as many vertices as its sets reach.
    let mut vertices = BTreeSet::new();
    let spread = owned[1]
        .iter()
        .filter(|keywords| vertices.insert(rig.hasher.vertex_for(keywords).bits()));
    for (object, keywords) in (2..).zip(spread) {
        rig.insert_flushed(object, keywords);
    }
    assert!(vertices.len() >= 3, "worker 1's sets share two vertices");
    let marks = [1, vertices.len() as u64];
    let everything: Vec<u64> = (1..=1 + vertices.len() as u64).collect();
    let (whole, _) = rig.search(1, &query, &marks);
    assert_eq!(whole, everything);

    // The same walk again, but worker 1's answer is cut on the wire
    // into one frame per vertex — what a body cap would force. One of
    // the frames is delivered twice, and a middle one not at all.
    rig.send(
        0,
        &WireMsg::QueryAt {
            query_id: 2,
            keywords: query.clone(),
            threshold: u64::MAX - 1,
            marks: marks.to_vec(),
        },
    );
    rig.carry(0);
    let answer = rig.wire[1]
        .recv_timeout(Duration::from_secs(10))
        .expect("worker 1 answers for its region");
    let [WireMsg::RegionDone {
        query_id,
        worker,
        epoch,
        attempt: 0,
        part: 0,
        more: false,
        groups,
    }] = &decode_all(&answer)[..]
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
    assert_eq!(rig.flush(0), 1);
    let (reply, crossed) = rig.carry_until_reply();
    assert_eq!((done_ids(reply, 2), crossed), (whole, 2));
    // It filled the slot like any other answer.
    assert_eq!(rig.search(3, &query, &marks), (everything, 0));
    rig.shutdown();
}

#[test]
fn a_worker_that_does_not_own_the_root_coordinates_what_it_is_sent() {
    let rig = Rig::start();
    let (query, owned) = spanning_query(&rig);
    rig.insert_flushed(1, &owned[0][0]);
    rig.insert_flushed(2, &owned[1][0]);
    rig.insert_flushed(3, &owned[1][1]);
    let marks = [1, 2];
    // One of the two is not the root's owner: to it the root's region
    // is one more remote region. Same answer, same two frames.
    let at_owner = rig.search_at(rig.owner(&query), 1, &query, &marks);
    let elsewhere = rig.search_at(1 - rig.owner(&query), 2, &query, &marks);
    assert_eq!(at_owner, (vec![1, 2, 3], 2));
    assert_eq!(elsewhere, at_owner);
    for exit in rig.shutdown() {
        assert_eq!(exit.stats.queries_coordinated, 1);
        assert_eq!(
            exit.stats.frames_misrouted, 0,
            "a query is nobody's to refuse"
        );
    }
}

#[test]
fn a_replayed_workers_epoch_never_goes_backwards() {
    // One worker, crashed on its first query-path frame and respawned
    // on the same inbox the way the supervisor does it.
    let hasher = KeywordHasher::new(RIG_R, SEED).unwrap();
    let shards = ShardMap::new(RIG_R, 1, SEED);
    let (client_tx, client) = sync_channel(64);
    let (inbox_tx, inbox_rx) = sync_channel::<Vec<u8>>(64);
    let spawn = |inbox, injector, repairing| {
        let ctx = WorkerContext {
            index: 0,
            shape: Shape::new(RIG_R).unwrap(),
            hasher,
            shards,
            injector,
            repairing,
        };
        let links = vec![None, Some(client_tx.clone())];
        std::thread::spawn(move || run_worker(ctx, Fabric::inboxes(links), inbox))
    };
    let epoch_at_barrier = |token| {
        inbox_tx.send(WireMsg::Flush { token }.encode()).unwrap();
        let packet = client.recv_timeout(Duration::from_secs(10)).unwrap();
        match decode_all(&packet)[..] {
            [WireMsg::FlushAck { epoch, .. }] => epoch,
            ref other => panic!("expected a flush ack, got {other:?}"),
        }
    };
    let journal: Vec<Vec<u8>> = (1..=3)
        .map(|object| {
            WireMsg::Insert {
                object,
                keywords: set(&format!("a b{object}")),
            }
            .encode()
        })
        .collect();

    let plan = FaultPlan::default().crash(0, 1);
    let first = spawn(inbox_rx, Some(FaultInjector::new(plan, 0)), false);
    for frame in &journal {
        inbox_tx.send(frame.clone()).unwrap();
    }
    // A duplicate insert changes nothing and must not count.
    inbox_tx.send(journal[0].clone()).unwrap();
    let before = epoch_at_barrier(1);
    assert_eq!(before, 3, "one epoch per object newly indexed");
    let pin = WireMsg::Pin {
        query_id: 9,
        keywords: set("a b1"),
    };
    inbox_tx.send(pin.encode()).unwrap();
    let exit = first.join().unwrap();
    assert_eq!(exit.cause, ExitCause::Crashed);

    // Respawn in repair mode, replay the journal, release.
    let second = spawn(exit.inbox, None, true);
    for frame in &journal {
        inbox_tx.send(frame.clone()).unwrap();
    }
    // Another worker's release does not end this one's repair: the
    // barrier behind it stays parked until its own arrives.
    for worker in [7, 0] {
        inbox_tx
            .send(WireMsg::RepairDone { worker }.encode())
            .unwrap();
    }
    let replayed = epoch_at_barrier(2);
    assert!(replayed >= before, "epoch went from {before} to {replayed}");
    inbox_tx
        .send(
            WireMsg::Insert {
                object: 4,
                keywords: set("a b4"),
            }
            .encode(),
        )
        .unwrap();
    assert_eq!(epoch_at_barrier(3), replayed + 1);
    inbox_tx.send(WireMsg::Shutdown.encode()).unwrap();
    let exit = second.join().unwrap();
    assert_eq!(
        (exit.cause, exit.stats.frames_misrouted),
        (ExitCause::Clean, 1)
    );
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
    let cfg = RuntimeConfig::new(8, CRASH_WORKERS).seed(SEED);
    let mut rt = NodeRuntime::start_faulted(cfg, plan).unwrap();
    for object in 0..40u64 {
        rt.insert(ObjectId::from_raw(object), crash_corpus_set(object))
            .unwrap();
    }
    rt.flush();
    let query = set("hot");
    let ask = |rt: &mut NodeRuntime| {
        let mut ids: Vec<u64> = rt
            .superset_search(&query, usize::MAX - 1)
            .unwrap()
            .iter()
            .map(|m| m.object.raw())
            .collect();
        ids.sort_unstable();
        ids
    };
    let mut answers = Vec::new();
    for _ in 0..3 {
        answers.push(ask(&mut rt));
    }
    if whole {
        let opts = FtSearchOptions {
            attempt_timeout_ms: 400,
            ..FtSearchOptions::default()
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
    assert_eq!(clean.workers[victim as usize].cache(), Default::default());

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
    // ever reported are gone; the supervisor replays its shard. The
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
    let mut rt = NodeRuntime::start(RuntimeConfig::new(PROP_R, 1).seed(SEED)).unwrap();
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
    let cache = rt.shutdown().cache();
    // Exhaustive: four walks, nothing kept. Thresholded: the query is
    // long since sighted, so the first reserves and fills, three hit.
    assert_eq!(
        (cache.hits, cache.misses, cache.stale),
        (3, 5, 0),
        "{cache:?}"
    );
}
