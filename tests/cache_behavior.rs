//! Cache-layer integration: correctness of cached answers under a
//! realistic skewed replay (the Figure 9 machinery).

use hyperdex::core::{HypercubeIndex, KeywordSet, SupersetQuery};
use hyperdex::workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

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
    let (mut index, _corpus, log) = setup();
    index.set_cache_capacity(500);
    // Replay a prefix twice; second pass must produce identical result
    // sets from cache.
    let queries: Vec<KeywordSet> = log.iter().take(100).cloned().collect();
    let mut first_pass = Vec::new();
    for q in &queries {
        let out = index
            .superset_search(&SupersetQuery::new(q.clone()))
            .expect("valid");
        let mut ids: Vec<_> = out.results.iter().map(|r| r.object).collect();
        ids.sort_unstable();
        first_pass.push(ids);
    }
    for (q, expected) in queries.iter().zip(&first_pass) {
        let out = index
            .superset_search(&SupersetQuery::new(q.clone()))
            .expect("valid");
        let mut ids: Vec<_> = out.results.iter().map(|r| r.object).collect();
        ids.sort_unstable();
        assert_eq!(&ids, expected, "cache changed the answer for {q}");
    }
}

#[test]
fn cache_cuts_nodes_contacted_under_skew() {
    let (index, _corpus, log) = setup();
    let replay: Vec<KeywordSet> = log.iter().take(1_000).cloned().collect();
    let run = |capacity: usize| -> u64 {
        let mut idx = index.clone();
        idx.set_cache_capacity(capacity);
        let mut contacted = 0;
        for q in &replay {
            contacted += idx
                .superset_search(&SupersetQuery::new(q.clone()))
                .expect("valid")
                .stats
                .nodes_contacted;
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
    // Every insert and remove bumps the index generation, so an entry
    // cached before a write never serves after it: with the cache on,
    // a search sees exactly what its uncached twin, given the same
    // writes, sees.
    let (mut uncached, corpus, _log) = setup();
    let mut index = uncached.clone();
    index.set_cache_capacity(100);
    let query = corpus.records()[0].keywords.clone();
    let ids = |index: &mut HypercubeIndex| {
        let out = index
            .superset_search(&SupersetQuery::new(query.clone()))
            .expect("valid");
        let mut ids: Vec<_> = out.results.iter().map(|r| r.object).collect();
        ids.sort_unstable();
        (ids, out.stats.cache_hit)
    };
    let (before, _) = ids(&mut index);
    assert!(ids(&mut index).1, "the repeat is served from the cache");

    // Insert a brand-new object matching the same query.
    let new_id = hyperdex::core::ObjectId::from_raw(9_999_999);
    for index in [&mut index, &mut uncached] {
        index.insert(new_id, query.clone()).expect("non-empty");
    }
    let (after_insert, hit) = ids(&mut index);
    assert!(!hit, "the pre-insert entry must not serve");
    assert_eq!(after_insert, ids(&mut uncached).0);
    assert_eq!(after_insert.len(), before.len() + 1);
    assert!(ids(&mut index).1, "the recomputed entry serves again");

    for index in [&mut index, &mut uncached] {
        assert!(index.remove(new_id, &query));
    }
    let (after_remove, hit) = ids(&mut index);
    assert!(!hit, "the pre-remove entry must not serve");
    assert_eq!(after_remove, ids(&mut uncached).0);
    assert_eq!(after_remove, before);
}

#[test]
fn partial_thresholds_never_lose_matches_via_cache() {
    let (mut index, _corpus, log) = setup();
    index.set_cache_capacity(300);
    // Ask with a small threshold first (partial entry cached), then a
    // larger one: the larger query must NOT be served short.
    let q = log.pool()[0].clone();
    let small = index
        .superset_search(&SupersetQuery::new(q.clone()).threshold(1))
        .expect("valid");
    assert_eq!(small.results.len().min(1), small.results.len().min(1));
    let full_truth = index.matching_count(&q);
    let large = index
        .superset_search(&SupersetQuery::new(q.clone()))
        .expect("valid");
    assert_eq!(
        large.results.len(),
        full_truth,
        "large-threshold query served from a partial cache entry"
    );
}
