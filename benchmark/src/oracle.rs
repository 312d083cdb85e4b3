//! Expected answers, computed from the generated records alone.
//!
//! No executor is asked: a keyword → record posting map is built from
//! the dataset and every reply is checked against it. The records of
//! a run form one global sequence (preloaded first, then held-out in
//! insertion order), and every workload keeps a contiguous window
//! `lo..hi` of it live — inserts raise `hi`, removes raise `lo` — so
//! "what is indexed right now" is two integers.

use std::collections::HashMap;
use std::ops::Range;

use hyperdex_core::{KeywordSet, ObjectId};

use crate::inputs::{miss_keyword, Dataset, Read, THRESHOLD};

/// Keyword → ascending global record indices.
pub struct Oracle {
    postings: HashMap<String, Vec<u32>>,
}

impl Oracle {
    /// Indexes every record of `data`, preloaded and held-out.
    pub fn build(data: &Dataset) -> Oracle {
        let mut postings: HashMap<String, Vec<u32>> = HashMap::new();
        for g in 0..data.len() {
            for keyword in data.keywords(g) {
                match postings.get_mut(keyword.as_str()) {
                    Some(list) => list.push(g),
                    None => {
                        postings.insert(keyword.as_str().to_owned(), vec![g]);
                    }
                }
            }
        }
        Oracle { postings }
    }

    /// The first `cap` records of `live`, ascending, whose keyword set
    /// contains every keyword of `query`.
    pub fn supersets(&self, query: &KeywordSet, live: Range<u32>, cap: usize) -> Vec<u32> {
        let mut lists = Vec::with_capacity(query.len());
        for keyword in query {
            match self.postings.get(keyword.as_str()) {
                Some(list) => lists.push(list.as_slice()),
                None => return Vec::new(),
            }
        }
        lists.sort_unstable_by_key(|l| l.len());
        let Some((shortest, rest)) = lists.split_first() else {
            return Vec::new();
        };
        let from = shortest.partition_point(|&g| g < live.start);
        shortest[from..]
            .iter()
            .copied()
            .take_while(|&g| g < live.end)
            .filter(|g| rest.iter().all(|l| l.binary_search(g).is_ok()))
            .take(cap)
            .collect()
    }
}

/// Checks replies and keeps the failure ledger of one run.
pub struct Verifier<'a> {
    data: &'a Dataset,
    oracle: &'a Oracle,
    /// Per pin target: every record with exactly its keyword set.
    exact: HashMap<u32, Vec<u32>>,
    /// Per (query, window): matches, counted up to the threshold.
    counts: HashMap<(u32, u32, u32), usize>,
    /// Ops issued, whether or not they came back.
    pub attempted: u64,
    /// Ops that errored, timed out or disagreed with the oracle.
    pub failed: u64,
    /// The first few disagreements, for the failure message.
    pub examples: Vec<String>,
}

impl<'a> Verifier<'a> {
    /// A ledger with nothing attempted.
    pub fn new(data: &'a Dataset, oracle: &'a Oracle) -> Verifier<'a> {
        Verifier {
            data,
            oracle,
            exact: HashMap::new(),
            counts: HashMap::new(),
            attempted: 0,
            failed: 0,
            examples: Vec::new(),
        }
    }

    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(what());
        }
    }

    /// Counts `ops` operations as attempted and failed (an executor
    /// error takes its whole batch with it).
    pub fn errored(&mut self, ops: u64, error: &dyn std::fmt::Display) {
        self.attempted += ops;
        self.failed += ops;
        if self.examples.len() < 5 {
            self.examples.push(format!("{ops} ops lost to: {error}"));
        }
    }

    /// Counts `ops` writes the executor accepted; their effect is
    /// checked by the reads that follow.
    pub fn wrote(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Checks one read's reply against the records live in `live`.
    pub fn read(&mut self, read: Read, live: Range<u32>, reply: &[ObjectId]) {
        self.attempted += 1;
        match read {
            Read::Pin { target, miss } => self.pin(target, miss, live, reply),
            Read::Superset { query } => self.superset(query, live, reply),
        }
    }

    /// A pin reply must be set-equal to the live records carrying
    /// exactly the requested keyword set.
    fn pin(&mut self, target: u32, miss: bool, live: Range<u32>, reply: &[ObjectId]) {
        let (data, oracle) = (self.data, self.oracle);
        let same = self.exact.entry(target).or_insert_with(|| {
            let set = data.keywords(target);
            let mut same = oracle.supersets(set, 0..data.len(), usize::MAX);
            same.retain(|&g| data.keywords(g).len() == set.len());
            same
        });
        let mut want: Vec<u64> = if miss {
            debug_assert!(oracle
                .supersets(&KeywordSet::from_iter([miss_keyword()]), 0..data.len(), 1)
                .is_empty());
            Vec::new()
        } else {
            same.iter()
                .filter(|g| live.contains(g))
                .map(|&g| u64::from(g))
                .collect()
        };
        let mut got: Vec<u64> = reply.iter().map(|o| o.raw()).collect();
        got.sort_unstable();
        want.sort_unstable();
        if got != want {
            self.fail(|| {
                format!("pin of record {target} (miss={miss}): got {got:?}, want {want:?}")
            });
        }
    }

    /// A superset reply must hold `min(t, matches)` distinct live
    /// records, each a true superset of the query.
    fn superset(&mut self, query: u32, live: Range<u32>, reply: &[ObjectId]) {
        let (data, oracle) = (self.data, self.oracle);
        let set = data.query(query);
        let want = *self
            .counts
            .entry((query, live.start, live.end))
            .or_insert_with(|| oracle.supersets(set, live.clone(), THRESHOLD).len());
        let mut got: Vec<u64> = reply.iter().map(|o| o.raw()).collect();
        got.sort_unstable();
        got.dedup();
        let sound = got.len() == reply.len()
            && got.iter().all(|&raw| {
                u32::try_from(raw)
                    .is_ok_and(|g| live.contains(&g) && data.keywords(g).is_superset(set))
            });
        if !sound || reply.len() != want {
            self.fail(|| {
                format!(
                    "superset of query {query} {set}: {} replies (sound={sound}), want {want}",
                    reply.len()
                )
            });
        }
    }

    /// One line naming the failures, `None` when there were none.
    pub fn problem(&self, what: &str) -> Option<String> {
        (self.failed > 0).then(|| {
            format!(
                "{what}: {} of {} ops failed, e.g. {}",
                self.failed,
                self.attempted,
                self.examples.join("; ")
            )
        })
    }

    /// Share of attempted ops that failed.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdex_core::{HypercubeIndex, StoreBackend, SupersetQuery};

    /// The definition the posting map must agree with.
    fn brute(data: &Dataset, query: &KeywordSet, live: Range<u32>) -> Vec<u32> {
        live.filter(|&g| data.keywords(g).is_superset(query))
            .collect()
    }

    #[test]
    fn posting_map_agrees_with_a_full_scan() {
        let data = Dataset::generate(3, 3_000, 300);
        let oracle = Oracle::build(&data);
        for q in 0..data.pool_len().min(150) {
            let set = data.query(q);
            for live in [0..3_000, 100..3_100, 0..3_300, 2_900..3_300] {
                let want = brute(&data, set, live.clone());
                assert_eq!(oracle.supersets(set, live.clone(), usize::MAX), want);
                let capped: Vec<u32> = want.into_iter().take(THRESHOLD).collect();
                assert_eq!(oracle.supersets(set, live, THRESHOLD), capped);
            }
        }
    }

    #[test]
    fn verifier_accepts_the_engine_and_rejects_tampering() {
        let data = Dataset::generate(5, 2_000, 50);
        let oracle = Oracle::build(&data);
        let mut index = HypercubeIndex::with_store(10, 1, StoreBackend::Slab).unwrap();
        for g in 0..2_000 {
            index
                .insert(Dataset::object(g), data.keywords(g).clone())
                .unwrap();
        }
        let mut v = Verifier::new(&data, &oracle);
        for q in 0..40 {
            let out = index
                .superset_search(&SupersetQuery::new(data.query(q).clone()).threshold(THRESHOLD))
                .unwrap();
            let reply: Vec<ObjectId> = out.results.iter().map(|r| r.object).collect();
            v.read(Read::Superset { query: q }, 0..2_000, &reply);
        }
        for target in 0..200 {
            let hit = index.pin_search(data.keywords(target)).results;
            v.read(
                Read::Pin {
                    target,
                    miss: false,
                },
                0..2_000,
                &hit,
            );
            v.read(Read::Pin { target, miss: true }, 0..2_000, &[]);
        }
        assert_eq!((v.failed, v.attempted), (0, 440), "{:?}", v.examples);

        // A record outside the live window, a non-matching record, a
        // duplicate and a short reply are all failures.
        v.read(
            Read::Pin {
                target: 7,
                miss: false,
            },
            8..2_000,
            &[Dataset::object(7)],
        );
        v.read(
            Read::Pin {
                target: 7,
                miss: true,
            },
            0..2_000,
            &[Dataset::object(7)],
        );
        let full = oracle.supersets(data.query(0), 0..2_000, THRESHOLD);
        let ids = |gs: &[u32]| gs.iter().map(|&g| Dataset::object(g)).collect::<Vec<_>>();
        v.read(Read::Superset { query: 0 }, 0..2_000, &ids(&full[1..]));
        let mut dup = full.clone();
        dup[0] = dup[1];
        v.read(Read::Superset { query: 0 }, 0..2_000, &ids(&dup));
        assert_eq!(v.failed, 4, "{:?}", v.examples);
        assert_eq!(v.examples.len(), 4);
    }
}
