//! The serving-path result cache, from the outside — and, because it
//! holds the one model of what a cluster owes its client, the seeded
//! schedule suite of the whole worker machine.
//!
//! * Coherence: seeded scripts of writes, flushes, pins, single
//!   searches, fault-tolerant searches and pipelined batches with
//!   duplicated queries, every answer compared with a `HypercubeIndex`
//!   oracle that never caches. The model is generic over the cluster:
//!   thousands of fault schedules run on the deterministic mesh
//!   (`mesh/mod.rs` — drop, duplicate, delay and crash plans, five
//!   worker counts, two dimensions, latencies that permute the order
//!   across lanes), where every quiescent point also balances the frame
//!   ledger and has no traversal parked; a handful of fault-free scripts
//!   run on real worker threads as the transport smoke.
//! * Determinism: the same request list gives the same frame count and
//!   the same cache decisions on every run, and the cluster admits a
//!   repeated query once — on its root's owner — not once per worker;
//!   on the mesh one seed is one byte-identical packet trace.
//! * Two worker machines on the mesh with a lane held, so the
//!   interleavings the epoch rules exist for are forced frame by frame:
//!   a repeat answered with no traversal frame, a flushed write made
//!   visible by the request's marks, a waiter whose marks the finished
//!   traversal cannot satisfy, a traversal whose answer the wire lost
//!   and one it duplicated, an answer that arrives in several frames
//!   and one that arrives with a frame missing, a query sent to a worker
//!   that does not own its root, a restarted worker's epoch.
//! * A worker crash between two cached answers.
//! * An answer too long to keep.

mod mesh;

use std::collections::{BTreeSet, HashMap};

use hyperdex_core::{Error, HypercubeIndex, KeywordHasher, KeywordSet, ObjectId, SupersetQuery};
use hyperdex_runtime::{
    BatchResult, FaultPlan, FtSearchOptions, FtSearchOutcome, NodeRuntime, Request, RuntimeConfig,
    RuntimeMatch, ShardMap, ShutdownReport, WireMsg, WorkerStats,
};
use hyperdex_simnet::{LatencyModel, SimRng};
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};
use mesh::{Mesh, MeshRuntime, Trace};

const SEED: u64 = 42;

fn set(s: &str) -> KeywordSet {
    KeywordSet::parse(s).unwrap()
}

/// Worker counts the thread suites run at.
const WORKER_COUNTS: [u32; 4] = [1, 2, 4, 8];

// ---------------------------------------------------------------
// Coherence: seeded scripts against an uncached oracle
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

/// What the model drives: the in-process runtime on worker threads, or
/// the production client over the mesh.
trait Cluster {
    fn insert(&mut self, object: ObjectId, keywords: KeywordSet);
    fn bulk_load(&mut self, entries: Vec<(ObjectId, &KeywordSet)>);
    fn flush(&mut self);
    fn pin(&mut self, keywords: &KeywordSet) -> Result<Vec<ObjectId>, Error>;
    fn superset(
        &mut self,
        keywords: &KeywordSet,
        threshold: usize,
    ) -> Result<Vec<RuntimeMatch>, Error>;
    fn superset_ft(&mut self, keywords: &KeywordSet, threshold: usize) -> FtSearchOutcome;
    fn batch(&mut self, requests: &[Request], window: usize) -> Result<Vec<BatchResult>, Error>;
    /// Requests the cluster has given up or lost so far (plain queries
    /// abandoned, workers restarted): what an unanswered one is
    /// accounted by.
    fn unanswered(&self) -> u64;
    /// Runs everything out and checks what holds at a quiescent point.
    fn quiesce(&mut self);
    fn shutdown(self) -> ShutdownReport;
}

/// Worker threads lose nothing here: every request is answered.
impl Cluster for NodeRuntime {
    fn insert(&mut self, object: ObjectId, keywords: KeywordSet) {
        NodeRuntime::insert(self, object, keywords).unwrap();
    }
    fn bulk_load(&mut self, entries: Vec<(ObjectId, &KeywordSet)>) {
        NodeRuntime::bulk_load(self, entries).unwrap();
    }
    fn flush(&mut self) {
        NodeRuntime::flush(self);
    }
    fn pin(&mut self, keywords: &KeywordSet) -> Result<Vec<ObjectId>, Error> {
        Ok(self.pin_search(keywords))
    }
    fn superset(
        &mut self,
        keywords: &KeywordSet,
        threshold: usize,
    ) -> Result<Vec<RuntimeMatch>, Error> {
        self.superset_search(keywords, threshold)
    }
    fn superset_ft(&mut self, keywords: &KeywordSet, threshold: usize) -> FtSearchOutcome {
        self.superset_search_ft(keywords, threshold, &FtSearchOptions::default())
            .unwrap()
    }
    fn batch(&mut self, requests: &[Request], window: usize) -> Result<Vec<BatchResult>, Error> {
        Ok(self.run_batch(requests, window))
    }
    fn unanswered(&self) -> u64 {
        0
    }
    fn quiesce(&mut self) {}
    fn shutdown(self) -> ShutdownReport {
        NodeRuntime::shutdown(self)
    }
}

impl Cluster for MeshRuntime {
    fn insert(&mut self, object: ObjectId, keywords: KeywordSet) {
        self.core.insert(object, keywords).unwrap();
    }
    fn bulk_load(&mut self, entries: Vec<(ObjectId, &KeywordSet)>) {
        self.core.bulk_load(entries).unwrap();
    }
    fn flush(&mut self) {
        MeshRuntime::flush(self);
    }
    fn pin(&mut self, keywords: &KeywordSet) -> Result<Vec<ObjectId>, Error> {
        self.core.pin_search(keywords)
    }
    fn superset(
        &mut self,
        keywords: &KeywordSet,
        threshold: usize,
    ) -> Result<Vec<RuntimeMatch>, Error> {
        self.core.superset_search(keywords, threshold)
    }
    fn superset_ft(&mut self, keywords: &KeywordSet, threshold: usize) -> FtSearchOutcome {
        self.core
            .superset_search_ft(keywords, threshold, &FtSearchOptions::default())
            .unwrap()
    }
    fn batch(&mut self, requests: &[Request], window: usize) -> Result<Vec<BatchResult>, Error> {
        self.core.run_batch(requests, window)
    }
    fn unanswered(&self) -> u64 {
        self.mesh.borrow().unanswered()
    }
    fn quiesce(&mut self) {
        let mut mesh = self.mesh.borrow_mut();
        mesh.settle();
        mesh.check_respawns();
    }
    fn shutdown(self) -> ShutdownReport {
        MeshRuntime::shutdown(self)
    }
}

/// One step of a script: `(kind, a, b)`. Kinds 0–1 insert, 2 bulk-load,
/// 3 flush (and check the quiescent point), 4–5 search, 6–7 a batch of
/// duplicated searches, 8 pin, 9 search fault-tolerantly, 10 settle and
/// compare a thresholded answer with the exhaustive one.
type Op = (u8, usize, usize);

/// The cluster's view of the corpus beside the two oracles: `flushed`
/// holds every write a flush has made visible, `all` every write sent.
struct Model<C> {
    rt: C,
    hasher: KeywordHasher,
    shards: ShardMap,
    flushed: HypercubeIndex,
    all: HypercubeIndex,
    /// Every object written, in id order (ids count from 1), and how
    /// many of them a flush has made visible.
    written: Vec<KeywordSet>,
    flushed_len: usize,
}

impl<C: Cluster> Model<C> {
    fn new(rt: C, cfg: RuntimeConfig) -> Model<C> {
        let index = HypercubeIndex::new(cfg.r, cfg.seed).unwrap();
        Model {
            rt,
            hasher: index.hasher(),
            shards: cfg.shard_map(),
            flushed: index.clone(),
            all: index,
            written: Vec::new(),
            flushed_len: 0,
        }
    }

    fn fresh_object(&mut self, keywords: &KeywordSet) -> ObjectId {
        self.written.push(keywords.clone());
        let id = ObjectId::from_raw(self.written.len() as u64);
        self.all.insert(id, keywords.clone()).unwrap();
        id
    }

    fn settled(&self) -> bool {
        self.flushed_len == self.written.len()
    }

    /// A request the cluster did not answer — `Error::Timeout` under
    /// the client's (virtual) request deadline is the only way — is one
    /// it gave up or lost since `before`: a plain query is answered
    /// whole or not at all.
    fn unanswered(&self, error: &Error, before: u64) -> Result<(), String> {
        if !matches!(error, Error::Timeout { .. }) {
            return Err(format!("a request failed with {error:?}"));
        }
        if self.rt.unanswered() <= before {
            return Err("a request timed out that no worker gave up or lost".into());
        }
        Ok(())
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
        if got.len() != answer.len() {
            return Err(format!("duplicate ids for {keywords}"));
        }
        let owed = oracle_ids(&mut self.flushed, keywords, usize::MAX - 1);
        let allowed: BTreeSet<u64> = oracle_ids(&mut self.all, keywords, usize::MAX - 1)
            .into_iter()
            .collect();
        if !got.is_subset(&allowed) {
            return Err(format!(
                "{keywords}: {got:?} holds an object never inserted"
            ));
        }
        let at_least = owed.len().min(threshold);
        let at_most = if self.settled() { at_least } else { threshold };
        if !(at_least..=at_most).contains(&got.len()) {
            return Err(format!(
                "{keywords} t={threshold}: {} results, the flushed state owes {at_least}",
                got.len()
            ));
        }
        if threshold >= allowed.len() && !owed.iter().all(|id| got.contains(id)) {
            return Err(format!(
                "{keywords} t={threshold}: a flushed object is missing from {got:?}"
            ));
        }
        Ok(())
    }

    /// Checks a fault-tolerant outcome: its coverage adds up, what it
    /// skipped is whole regions of owners other than the coordinator —
    /// every region of each — and its matches are the oracle's outside
    /// the skipped vertices. One nobody answered (every client attempt
    /// timed out) lost its coordinator to a crash.
    fn check_ft(
        &mut self,
        out: &FtSearchOutcome,
        keywords: &KeywordSet,
        threshold: usize,
        before: u64,
    ) -> Result<(), String> {
        let Some(coverage) = &out.coverage else {
            if out.complete || !out.matches.is_empty() || self.rt.unanswered() <= before {
                return Err(format!("{keywords}: degraded for no reason: {out:?}"));
            }
            return Ok(());
        };
        let root = self.hasher.vertex_for(keywords);
        let coordinator = self.shards.owner_of(root.bits());
        let skipped: BTreeSet<u64> = coverage.skipped.iter().copied().collect();
        let got: BTreeSet<u64> = out.matches.iter().map(|m| m.object.raw()).collect();
        let subcube: Vec<u64> = root.subcube().iter().map(|v| v.bits()).collect();
        // Every vertex is reached or skipped — unless the root alone
        // filled the threshold: then nobody was asked, and only the
        // coordinator's own regions count as reached.
        let reached = if coverage.queries_sent == 0 && got.len() >= threshold {
            let own = |&&v: &&u64| self.shards.owner_of(v) == coordinator;
            subcube.iter().filter(own).count()
        } else {
            subcube.len() - skipped.len()
        };
        if coverage.reached != reached as u64
            || coverage.subcube_vertices != subcube.len() as u64
            || out.complete != skipped.is_empty()
        {
            return Err(format!("{keywords}: coverage does not add up: {out:?}"));
        }
        let given_up: BTreeSet<u32> = skipped.iter().map(|&v| self.shards.owner_of(v)).collect();
        let their_regions: BTreeSet<u64> = subcube
            .iter()
            .copied()
            .filter(|&v| given_up.contains(&self.shards.owner_of(v)))
            .collect();
        if given_up.contains(&coordinator) || skipped != their_regions {
            return Err(format!(
                "{keywords}: skipped is not the regions of {given_up:?}: {coverage:?}"
            ));
        }
        if got.len() != out.matches.len() {
            return Err(format!("duplicate ids for {keywords}"));
        }
        let matching = |upto: usize| -> Vec<u64> {
            (1..=upto as u64)
                .filter(|&id| self.written[id as usize - 1].is_superset(keywords))
                .collect()
        };
        let allowed = matching(self.written.len());
        if !got.iter().all(|id| allowed.contains(id)) {
            return Err(format!(
                "{keywords}: {got:?} holds an object never inserted"
            ));
        }
        let owed: Vec<u64> = matching(self.flushed_len)
            .into_iter()
            .filter(|&id| {
                let vertex = self.hasher.vertex_for(&self.written[id as usize - 1]);
                !skipped.contains(&vertex.bits())
            })
            .collect();
        if got.len() < owed.len().min(threshold)
            || (threshold >= allowed.len() && !owed.iter().all(|id| got.contains(id)))
        {
            return Err(format!(
                "{keywords} t={threshold}: the vertices reached owe {owed:?}, got {got:?}"
            ));
        }
        Ok(())
    }

    fn search(&mut self, keywords: &KeywordSet, threshold: usize) -> Result<(), String> {
        let before = self.rt.unanswered();
        match self.rt.superset(keywords, threshold) {
            Ok(found) => {
                let answer: Vec<u64> = found.iter().map(|m| m.object.raw()).collect();
                self.check(&answer, keywords, threshold)
            }
            Err(error) => self.unanswered(&error, before),
        }
    }

    fn apply(&mut self, (kind, a, b): Op) -> Result<(), String> {
        match kind {
            0 | 1 => {
                let keywords = record(a);
                let id = self.fresh_object(&keywords);
                self.rt.insert(id, keywords);
            }
            2 => {
                let sets = [record(a), record(b), record(a + b)];
                let entries: Vec<(ObjectId, &KeywordSet)> =
                    sets.iter().map(|k| (self.fresh_object(k), k)).collect();
                self.rt.bulk_load(entries);
            }
            3 => {
                self.rt.flush();
                self.flushed = self.all.clone();
                self.flushed_len = self.written.len();
                self.rt.quiesce();
            }
            4 | 5 => self.search(&query(a), THRESHOLDS[b % 3])?,
            6 | 7 => {
                // Two queries, duplicated, at rotating thresholds:
                // with a window of 4 the duplicates are in flight
                // together.
                let requests: Vec<Request> = (0..6)
                    .map(|slot| Request::Superset {
                        keywords: query(if slot % 2 == 0 { a } else { b }),
                        threshold: THRESHOLDS[(b + slot) % 3],
                    })
                    .collect();
                let before = self.rt.unanswered();
                let answers = match self.rt.batch(&requests, 4) {
                    Ok(answers) => answers,
                    Err(error) => return self.unanswered(&error, before),
                };
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
            8 => {
                let keywords = record(a);
                let before = self.rt.unanswered();
                let got = match self.rt.pin(&keywords) {
                    Ok(got) => got,
                    Err(error) => return self.unanswered(&error, before),
                };
                let exact = |upto: usize| -> Vec<ObjectId> {
                    (1..=upto as u64)
                        .filter(|&id| self.written[id as usize - 1] == keywords)
                        .map(ObjectId::from_raw)
                        .collect()
                };
                let (owed, allowed) = (exact(self.flushed_len), exact(self.written.len()));
                if !owed.iter().all(|id| got.contains(id))
                    || !got.iter().all(|id| allowed.contains(id))
                {
                    return Err(format!("pin {keywords}: {got:?}, owed {owed:?}"));
                }
            }
            9 => {
                let (keywords, threshold) = (query(a), THRESHOLDS[b % 3]);
                let before = self.rt.unanswered();
                let out = self.rt.superset_ft(&keywords, threshold);
                self.check_ft(&out, &keywords, threshold, before)?;
            }
            _ => {
                // With no write in the air, a thresholded answer is the
                // first `t` of the exhaustive one — in its order.
                self.apply((3, 0, 0))?;
                let keywords = query(a);
                let Ok(whole) = self.rt.superset(&keywords, usize::MAX - 1) else {
                    return Ok(());
                };
                for t in [1, 2, 20] {
                    let Ok(cut) = self.rt.superset(&keywords, t) else {
                        continue;
                    };
                    if cut[..] != whole[..t.min(whole.len())] {
                        return Err(format!(
                            "{keywords} t={t}: {cut:?} is not the head of {whole:?}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs `script`, settles, asks every query at every threshold once
    /// more and shuts down: the ledger must close.
    fn run(mut self, script: &[Op]) -> Result<ShutdownReport, String> {
        for op in script {
            self.apply(*op)?;
        }
        self.apply((3, 0, 0))?;
        for pick in 0..6 {
            for t in 0..3 {
                self.apply((4, pick, t))?;
            }
        }
        let report = self.rt.shutdown();
        if report.in_flight() != 0 {
            return Err(format!("frames unaccounted for: {report:?}"));
        }
        report.assert_conserved();
        Ok(report)
    }
}

/// The schedule `seed` names: the cluster's shape, its fault plan, how
/// far apart in time two lanes can drift, and the client's script.
fn schedule(seed: u64) -> (RuntimeConfig, FaultPlan, LatencyModel, Vec<Op>) {
    let mut rng = SimRng::new(seed ^ 0x5C4E_D01E);
    let workers = [1, 2, 3, 4, 8][(seed % 5) as usize];
    let r = [6, 8][(seed / 5 % 2) as usize];
    // 8% drop + 4% duplicate + 4% delay, `fault_recovery`'s mix.
    let lossy = FaultPlan::lossy(seed, 80, 40, 40);
    let victim = rng.gen_range(u64::from(workers)) as u32;
    let crash_at = 1 + rng.gen_range(6);
    let plan = match seed / 10 % 5 {
        0 => FaultPlan::default(),
        1 => lossy,
        2 => FaultPlan::default().crash(victim, crash_at),
        3 => lossy.crash(victim, crash_at),
        // Half of everything lost: owners do get given up.
        _ => FaultPlan::lossy(seed, 500, 100, 100),
    };
    // Under the wide one a healthy answer can outlast an `FtQuery`'s
    // 25 ms deadline: retries cross their own answers.
    let latency = match seed / 50 % 2 {
        0 => LatencyModel::uniform(1, 5),
        _ => LatencyModel::uniform(1, 60),
    };
    let script = (0..10 + rng.gen_range(16))
        .map(|_| {
            let kind = rng.gen_range(11) as u8;
            (kind, rng.gen_index(64), rng.gen_index(64))
        })
        .collect();
    (
        RuntimeConfig::new(r, workers).seed(SEED),
        plan,
        latency,
        script,
    )
}

/// Runs schedule `seed` on the mesh against the model and returns the
/// packet trace. The one helper to call from a `#[test]` with a seed a
/// failure printed: a failing run prints the seed, its schedule and
/// every packet delivered.
fn run_schedule(seed: u64) -> Trace {
    let (cfg, plan, latency, script) = schedule(seed);
    let mut mesh = Mesh::start(cfg, plan.clone(), latency.clone(), seed);
    mesh.label = format!("schedule {seed}: {cfg:?} {plan:?} {latency:?}\n  script {script:?}");
    let rt = MeshRuntime::over(mesh);
    let mesh = std::rc::Rc::clone(&rt.mesh);
    if let Err(failure) = Model::new(rt, cfg).run(&script) {
        panic!("{failure}");
    }
    let trace = std::mem::take(&mut mesh.borrow_mut().trace);
    trace
}

/// Whatever the schedule, the cached serving path answers as the
/// uncached direct engine does, whole or not at all; see [`Model`] for
/// everything else a schedule is held to.
fn run_schedules(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        run_schedule(seed);
    }
}

// Four tests so the suite uses the cores it is given.
#[test]
fn seeded_fault_schedules_0() {
    run_schedules(0..520);
}

#[test]
fn seeded_fault_schedules_1() {
    run_schedules(520..1040);
}

#[test]
fn seeded_fault_schedules_2() {
    run_schedules(1040..1560);
}

#[test]
fn seeded_fault_schedules_3() {
    run_schedules(1560..2080);
}

#[test]
fn one_seed_is_one_trace() {
    for seed in (0..2080).step_by(83) {
        let first = run_schedule(seed);
        assert!(!first.is_empty());
        assert!(first == run_schedule(seed), "schedule {seed} diverged");
    }
}

/// The same model over real worker threads, fault-free: the transport
/// smoke. (Which fates a thread schedule deals is the machine's to
/// decide and the mesh's to vary; a channel only has to carry bytes.)
#[test]
fn answers_match_an_uncached_oracle_on_worker_threads() {
    for seed in 0..2 {
        let (cfg, _, _, script) = schedule(seed);
        for workers in WORKER_COUNTS {
            let cfg = RuntimeConfig::new(cfg.r, workers).seed(SEED);
            let rt = NodeRuntime::start(cfg).unwrap();
            if let Err(failure) = Model::new(rt, cfg).run(&script) {
                panic!("seed {seed}, {workers} workers: {failure}");
            }
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
// Two worker machines, the test as the client, a lane held
// ---------------------------------------------------------------

const RIG_R: u8 = 6;

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

/// Shuts the cluster down: each worker's lifetime counters.
fn shutdown(mut mesh: Mesh) -> Vec<WorkerStats> {
    mesh.shutdown().workers
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

    let exits = shutdown(rig);
    let w0 = &exits[0];
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

    let exits = shutdown(rig);
    let w0 = &exits[0];
    assert_eq!(w0.cache_coalesced, 1, "{w0:?}");
    assert_eq!(w0.cache_stale, 2, "query 10, then query 11 starting over");
    let sent: u64 = exits.iter().map(|e| e.frames_sent).sum();
    let received: u64 = exits.iter().map(|e| e.frames_received).sum();
    // Test-sent frames: 4 inserts, 5 flushes, 5 queries, 2 shutdowns.
    // Client-bound frames: 5 flush acks, 5 QueryDone.
    assert_eq!(
        sent + 16,
        received + 10,
        "every waiter's QueryDone is in the ledger"
    );
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
    assert_eq!(mesh::decode_all(answers).len(), 2);
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

    let (lost, copied) = (rig.lost, rig.copied);
    let exits = shutdown(rig);
    let (w0, w1) = (&exits[0], &exits[1]);
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
    // The wire dealt the fates here, not worker 1's injector.
    assert_eq!((lost, copied), (1, 1));
    assert_eq!((w1.frames_dropped, w1.frames_duplicated), (0, 0), "{w1:?}");
    // Every copy that travelled was received: two inserts, four
    // barriers, four queries and two shutdowns came from the test,
    // four acks and four `QueryDone`s went to it.
    let sent = w0.frames_sent + w1.frames_sent + copied;
    let received = w0.frames_received + w1.frames_received + lost;
    assert_eq!(sent + 12, received + 8, "{exits:?}");
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
    shutdown(rig);
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
    for exit in shutdown(rig) {
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
    let report = rig.shutdown();
    report.assert_conserved();
    assert_eq!(report.supervisor.replayed_frames, 4);
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
