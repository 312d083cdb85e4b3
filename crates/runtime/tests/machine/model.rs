//! The seeded schedule suite: the one model of what a cluster owes its
//! client, held against the production machines and client on the mesh.
//! A schedule's seed draws the cluster (workers {1, 2, 3, 4, 8},
//! r ∈ {6, 8}), its fault plan (none; drop, duplicate and delay; a
//! crash; both; half of everything lost), how far apart in time two
//! lanes can drift, and a client script of writes, flushes, pins, plain
//! and fault-tolerant searches and pipelined batches with duplicated
//! queries. Every answer is compared with a `HypercubeIndex` oracle that
//! never caches; every quiescent point balances the frame ledger, has no
//! traversal parked and holds each restarted machine to a never-crashed
//! twin; and one seed is one byte-identical packet trace.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use hyperdex_core::protocol::visit_order_key;
use hyperdex_core::{Error, HypercubeIndex, KeywordHasher, KeywordSet, ObjectId, SupersetQuery};
use hyperdex_runtime::{
    FaultPlan, FtSearchOutcome, Request, RuntimeConfig, ShardMap, ShutdownReport,
};
use hyperdex_simnet::{LatencyModel, SimRng};

use crate::mesh::{Mesh, MeshRuntime, Script, Trace};
use crate::{set, SEED};

const WORDS: [&str; 5] = ["k0", "k1", "k2", "k3", "k4"];
const THRESHOLDS: [usize; 3] = [1, 20, usize::MAX - 1];

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
        .superset_search(&SupersetQuery::new(keywords.clone()).threshold(threshold))
        .expect("valid query");
    out.results.iter().map(|r| r.object.raw()).collect()
}

/// One step of a script: `(kind, a, b)`. Kinds 0–1 insert, 2 bulk-load,
/// 3 flush (and check the quiescent point), 4–5 search, 6–7 a batch of
/// duplicated searches, 8 pin, 9 search fault-tolerantly, 10 settle and
/// compare a thresholded answer with the exhaustive one.
type Op = (u8, usize, usize);

/// The cluster's view of the corpus beside the two oracles: `flushed`
/// holds every write a flush has made visible, `all` every write sent.
struct Model {
    rt: MeshRuntime,
    hasher: KeywordHasher,
    shards: ShardMap,
    flushed: HypercubeIndex,
    all: HypercubeIndex,
    /// Every object written, in id order (ids count from 1), and how
    /// many of them a flush has made visible.
    written: Vec<KeywordSet>,
    flushed_len: usize,
}

impl Model {
    fn new(rt: MeshRuntime, cfg: RuntimeConfig) -> Model {
        let index = HypercubeIndex::new(cfg.r, cfg.seed).unwrap();
        Model {
            rt,
            hasher: KeywordHasher::new(cfg.r, cfg.seed).unwrap(),
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

    /// Requests the cluster has given up or lost so far (plain queries
    /// abandoned, workers restarted): what an unanswered one is
    /// accounted by.
    fn given_up(&self) -> u64 {
        self.rt.mesh.borrow().unanswered()
    }

    /// A request the cluster did not answer — `Error::Timeout` under
    /// the client's (virtual) request deadline is the only way — is one
    /// it gave up or lost since `before`: a plain query is answered
    /// whole or not at all.
    fn unanswered(&self, error: &Error, before: u64) -> Result<(), String> {
        if !matches!(error, Error::Timeout { .. }) {
            return Err(format!("a request failed with {error:?}"));
        }
        if self.given_up() <= before {
            return Err("a request timed out that no worker gave up or lost".into());
        }
        Ok(())
    }

    /// Checks one answer against the uncached oracle. With nothing
    /// unflushed it holds `min(t, matches)` of the oracle's matches;
    /// with writes in the air either state of each is allowed — but
    /// never an object that was not inserted, and never fewer than the
    /// flushed state owes. Either way it is a ranked prefix of them
    /// ([`Model::ranked_prefix`]).
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
        self.ranked_prefix(answer, keywords, threshold, &owed)
    }

    /// Where object `id` ranks in the answer to `keywords`: its vertex's
    /// place in the sequential walk ([`visit_order_key`]), then its
    /// extra keywords (Lemma 3.2's generality, which a vertex's scan
    /// ranks by).
    fn rank(&self, keywords: &KeywordSet, id: u64) -> ((u32, Reverse<u64>), usize) {
        let set = &self.written[id as usize - 1];
        let root = self.hasher.vertex_for(keywords).bits();
        let at = self.hasher.vertex_for(set).bits();
        (visit_order_key(root, at), set.len() - keywords.len())
    }

    /// The answer is what the sequential walk keeps, whichever
    /// executor and cache served it: its ranks never fall, and every
    /// `owed` match ranked strictly before its last item is in it —
    /// every one, when it is short of `threshold`.
    fn ranked_prefix(
        &self,
        answer: &[u64],
        keywords: &KeywordSet,
        threshold: usize,
        owed: &[u64],
    ) -> Result<(), String> {
        let ranks: Vec<_> = answer.iter().map(|&id| self.rank(keywords, id)).collect();
        if ranks.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!(
                "{keywords} t={threshold}: {answer:?} is out of rank order"
            ));
        }
        let last = ranks.last().filter(|_| answer.len() >= threshold);
        let skipped = owed.iter().find(|&&id| {
            !answer.contains(&id) && last.is_none_or(|last| self.rank(keywords, id) < *last)
        });
        if let Some(id) = skipped {
            return Err(format!(
                "{keywords} t={threshold}: {answer:?} passes over object {id}"
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
            if out.complete || !out.matches.is_empty() || self.given_up() <= before {
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
        if got.len() < owed.len().min(threshold) {
            return Err(format!(
                "{keywords} t={threshold}: the vertices reached owe {owed:?}, got {got:?}"
            ));
        }
        let answer: Vec<u64> = out.matches.iter().map(|m| m.object.raw()).collect();
        self.ranked_prefix(&answer, keywords, threshold, &owed)
    }

    fn search(&mut self, keywords: &KeywordSet, threshold: usize) -> Result<(), String> {
        let before = self.given_up();
        match self.rt.superset_search(keywords, threshold) {
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
                self.flushed_len = self.written.len();
                let mut mesh = self.rt.mesh.borrow_mut();
                mesh.settle();
                mesh.check_respawns();
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
                let before = self.given_up();
                let answers = match self.rt.run_batch(&requests, 4) {
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
                let before = self.given_up();
                let got = match self.rt.pin_search(&keywords) {
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
                let before = self.given_up();
                let out = self.rt.superset_search_ft(&keywords, threshold).unwrap();
                self.check_ft(&out, &keywords, threshold, before)?;
            }
            _ => {
                // With no write in the air, a thresholded answer is the
                // first `t` of the exhaustive one — in its order.
                self.apply((3, 0, 0))?;
                let keywords = query(a);
                let Ok(whole) = self.rt.superset_search(&keywords, usize::MAX - 1) else {
                    return Ok(());
                };
                for t in [1, 2, 20] {
                    let Ok(cut) = self.rt.superset_search(&keywords, t) else {
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
    // 8% drop + 4% duplicate + 4% delay.
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
    // 50 ms deadline: retries cross their own answers.
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
    let mesh = Mesh::start(cfg, plan.clone(), latency.clone(), seed);
    let mut rt = MeshRuntime::over(mesh);
    rt.label = format!("schedule {seed}: {cfg:?} {plan:?} {latency:?}\n  script {script:?}");
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
