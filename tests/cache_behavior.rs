//! Cache-layer integration: correctness of cached answers under a
//! realistic skewed replay, through Figure 9's recipe — a FIFO cache at
//! each root vertex, in front of a cache-free index.

use std::collections::HashMap;
use std::sync::Arc;

use hyperdex::core::cache::FifoCache;
use hyperdex::core::{HypercubeIndex, KeywordSet, ObjectId, SupersetQuery};
use hyperdex::workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

/// Figure 9's recipe: an index and one FIFO cache of `capacity`
/// queries per root vertex, each made on its root's first query.
struct Cached {
    index: HypercubeIndex,
    capacity: usize,
    caches: HashMap<u64, FifoCache>,
}

impl Cached {
    /// The query's matches, sorted; the nodes it contacted; whether the
    /// root's cache answered it (a hit costs the root alone). A miss
    /// walks the index and keeps its page, flagged exhaustive or not.
    fn search(&mut self, query: &SupersetQuery) -> (Vec<ObjectId>, u64, bool) {
        let root = self.index.vertex_for(&query.keywords).bits();
        let capacity = self.capacity;
        let cache = self
            .caches
            .entry(root)
            .or_insert_with(|| FifoCache::new(capacity));
        let (results, contacted, hit) = match cache.lookup(&query.keywords, query.threshold) {
            Some(hit) => (
                hit.results.iter().take(query.threshold).cloned().collect(),
                1,
                true,
            ),
            None => {
                let out = self.index.superset_search(query).expect("valid");
                let page = Arc::new(out.results.clone());
                cache.put(query.keywords.clone(), page, out.exhausted);
                (out.results, out.stats.nodes_contacted, false)
            }
        };
        let mut ids: Vec<ObjectId> = results.iter().map(|r| r.object).collect();
        ids.sort_unstable();
        (ids, contacted, hit)
    }

    /// After a write to the index: every cache's owner bumps its
    /// generation, so no entry computed before the write serves.
    fn wrote(&mut self) {
        self.caches
            .values_mut()
            .for_each(FifoCache::bump_generation);
    }
}

fn cached(index: HypercubeIndex, capacity: usize) -> Cached {
    let caches = HashMap::new();
    Cached {
        index,
        capacity,
        caches,
    }
}

fn setup() -> (HypercubeIndex, Corpus, QueryLog) {
    let corpus = Corpus::generate(&CorpusConfig::small_test(), 5);
    let log = QueryLog::generate(&QueryLogConfig::small_test(), &corpus, 6);
    let mut index = HypercubeIndex::new(10, 0).expect("valid");
    for (id, k) in corpus.indexable() {
        index.insert(id, k.clone()).expect("non-empty");
    }
    (index, corpus, log)
}

#[test]
fn cached_answers_equal_uncached_answers() {
    let (index, _corpus, log) = setup();
    let mut index = cached(index, 500);
    // Replay a prefix twice; second pass must produce identical result
    // sets from cache.
    let queries: Vec<KeywordSet> = log.iter().take(100).cloned().collect();
    let mut first_pass = Vec::new();
    for q in &queries {
        first_pass.push(index.search(&SupersetQuery::new(q.clone())).0);
    }
    for (q, expected) in queries.iter().zip(&first_pass) {
        let (ids, _, _) = index.search(&SupersetQuery::new(q.clone()));
        assert_eq!(&ids, expected, "cache changed the answer for {q}");
    }
}

#[test]
fn cache_cuts_nodes_contacted_under_skew() {
    let (index, _corpus, log) = setup();
    let replay: Vec<KeywordSet> = log.iter().take(1_000).cloned().collect();
    let run = |capacity: usize| -> u64 {
        let mut idx = cached(index.clone(), capacity);
        let mut contacted = 0;
        for q in &replay {
            contacted += idx.search(&SupersetQuery::new(q.clone())).1;
        }
        contacted
    };
    let without = run(0);
    let with = run(200);
    assert!(
        with * 4 < without,
        "cache should cut contacted nodes by >4x under 60% top-10 skew: {with} vs {without}"
    );
}

#[test]
fn cached_search_after_a_write_equals_the_uncached_search() {
    // Every write bumps each cache's generation, so an entry cached
    // before a write never serves after it: with the cache on, a search
    // sees exactly what its uncached twin, given the same writes, sees.
    let (uncached, corpus, _log) = setup();
    let mut index = cached(uncached.clone(), 100);
    let mut uncached = cached(uncached, 0);
    let query = SupersetQuery::new(corpus.records()[0].keywords.clone());
    let keywords = &query.keywords;
    let (before, _, _) = index.search(&query);
    assert!(
        index.search(&query).2,
        "the repeat is served from the cache"
    );

    // Insert a brand-new object matching the same query.
    let new_id = ObjectId::from_raw(9_999_999);
    for index in [&mut index, &mut uncached] {
        index
            .index
            .insert(new_id, keywords.clone())
            .expect("non-empty");
        index.wrote();
    }
    let (after_insert, _, hit) = index.search(&query);
    assert!(!hit, "the pre-insert entry must not serve");
    assert_eq!(after_insert, uncached.search(&query).0);
    assert_eq!(after_insert.len(), before.len() + 1);
    assert!(index.search(&query).2, "the recomputed entry serves again");

    for index in [&mut index, &mut uncached] {
        assert!(index.index.remove(new_id, keywords));
        index.wrote();
    }
    let (after_remove, _, hit) = index.search(&query);
    assert!(!hit, "the pre-remove entry must not serve");
    assert_eq!(after_remove, uncached.search(&query).0);
    assert_eq!(after_remove, before);
}

#[test]
fn partial_thresholds_never_lose_matches_via_cache() {
    let (index, _corpus, log) = setup();
    let mut index = cached(index, 300);
    // Ask with a small threshold first (partial entry cached), then a
    // larger one: the larger query must NOT be served short.
    let q = log.pool()[0].clone();
    let full_truth = index.index.matching_count(&q);
    assert!(full_truth > 1, "a threshold-1 page of {q} is partial");
    let one = SupersetQuery::new(q.clone()).threshold(1);
    let (small, _, hit) = index.search(&one);
    assert!(!hit, "the first threshold-1 search walks");
    let walked: Vec<ObjectId> = (index.index.superset_search(&one).expect("valid").results)
        .iter()
        .map(|r| r.object)
        .collect();
    assert_eq!(small.len(), 1, "a threshold-1 answer holds one id");
    assert_eq!(small, walked, "the answer is the cache-free walk's");
    let (again, _, hit) = index.search(&one);
    assert!(hit, "a threshold-1 repeat is served from the partial entry");
    assert_eq!(again, small, "the hit returns the same id");
    let (large, _, _) = index.search(&SupersetQuery::new(q.clone()));
    assert_eq!(
        large.len(),
        full_truth,
        "large-threshold query served from a partial cache entry"
    );
}
