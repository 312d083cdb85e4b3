//! Query-log generation with calibrated skew.
//!
//! The paper replays PCHome query logs: ~178,000 queries per day, and
//! "on average, the ten most popular queries account for more than 60 %
//! of the total queries per day" (footnote 1) — the statistic that
//! makes per-node caching so effective in Figure 9. We synthesize a log
//! with exactly that structure: a pool of distinct query keyword sets
//! (each a subset of some corpus record's keywords, so queries have
//! matches), replayed under a Zipf law whose exponent is calibrated so
//! the top-10 distinct queries carry the target share.

use std::collections::BTreeSet;

use hyperdex_core::KeywordSet;
use hyperdex_simnet::rng::SimRng;

use crate::corpus::Corpus;
use crate::zipf::ZipfSampler;

/// Configuration for query-log generation.
#[derive(Debug, Clone)]
pub struct QueryLogConfig {
    /// Total queries in the log (paper: ~178,000/day).
    pub queries: usize,
    /// Distinct query keyword sets in the popularity pool.
    pub distinct_pool: usize,
    /// Target share of volume carried by the top-10 distinct queries.
    pub top10_share: f64,
    /// Maximum query size in keywords (paper sweeps m = 1..5).
    pub max_query_size: u32,
}

impl QueryLogConfig {
    /// The paper-scale day: 178k queries, 10k distinct sets, top-10
    /// share 60 %, sizes 1..=5.
    pub fn pchome_day() -> Self {
        QueryLogConfig {
            queries: 178_000,
            distinct_pool: 10_000,
            top10_share: 0.6,
            max_query_size: 5,
        }
    }

    /// A miniature for tests: 2k queries over a 200-set pool.
    pub fn small_test() -> Self {
        QueryLogConfig {
            queries: 2_000,
            distinct_pool: 200,
            top10_share: 0.6,
            max_query_size: 5,
        }
    }

    /// Overrides the total query count.
    pub fn with_queries(mut self, n: usize) -> Self {
        self.queries = n;
        self
    }
}

/// A synthetic query log: a ranked pool of distinct query sets plus the
/// replayed sequence.
#[derive(Debug, Clone)]
pub struct QueryLog {
    pool: Vec<KeywordSet>,
    queries: Vec<usize>, // indices into the pool, in arrival order
}

impl QueryLog {
    /// Generates a log against `corpus` deterministically from a seed.
    ///
    /// # Panics
    ///
    /// Panics if the corpus is empty or the configuration degenerate
    /// (zero pool or zero queries).
    pub fn generate(config: &QueryLogConfig, corpus: &Corpus, seed: u64) -> Self {
        assert!(!corpus.is_empty(), "query log needs a corpus");
        assert!(config.distinct_pool > 10, "pool must exceed the top-10");
        assert!(config.queries > 0, "log must contain queries");
        let mut rng = SimRng::new(seed ^ 0x9E_11_07);

        // Build the distinct pool. Stratify the first slots across
        // sizes 1..=max so every size has popular representatives
        // (Figure 8 samples "popular keyword sets of size m").
        let mut seen: BTreeSet<KeywordSet> = BTreeSet::new();
        let mut pool: Vec<KeywordSet> = Vec::with_capacity(config.distinct_pool);
        let records = corpus.records();
        let mut attempts = 0usize;
        let max_attempts = config.distinct_pool * 200;
        while pool.len() < config.distinct_pool && attempts < max_attempts {
            attempts += 1;
            // Round-robin target size while stratifying; afterwards bias
            // towards small queries ("this kind of simple queries play a
            // major part in user query behavior", §3.4).
            let target_size = if pool.len() < 5 * config.max_query_size as usize {
                (pool.len() as u32 % config.max_query_size) + 1
            } else {
                1 + rng.geometric(0.45, config.max_query_size - 1)
            };
            let record = &records[rng.gen_index(records.len())];
            if record.keywords.len() < target_size as usize {
                continue;
            }
            let words: Vec<_> = record.keywords.iter().collect();
            let chosen = rng.sample_indices(words.len(), target_size as usize);
            let set: KeywordSet = chosen.into_iter().map(|i| words[i]).collect();
            if seen.insert(set.clone()) {
                pool.push(set);
            }
        }
        assert!(
            pool.len() > 10,
            "could not build a query pool from this corpus"
        );

        // Calibrate the replay skew to the top-10 share.
        let s = ZipfSampler::calibrate_exponent(pool.len(), 10, config.top10_share);
        let zipf = ZipfSampler::new(pool.len(), s);
        let queries = (0..config.queries).map(|_| zipf.sample(&mut rng)).collect();
        QueryLog { pool, queries }
    }

    /// The distinct query sets, most popular first.
    pub fn pool(&self) -> &[KeywordSet] {
        &self.pool
    }

    /// Number of queries in the log.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Iterates over the queries in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &KeywordSet> {
        self.queries.iter().map(|&i| &self.pool[i])
    }

    /// Empirical share of the log carried by the `k` most frequent
    /// distinct queries.
    pub fn top_share(&self, k: usize) -> f64 {
        let mut counts = vec![0usize; self.pool.len()];
        for &i in &self.queries {
            counts[i] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts.iter().take(k).sum::<usize>() as f64 / self.queries.len().max(1) as f64
    }

    /// The most popular distinct query sets of exactly `m` keywords —
    /// the Figure 8 query sample.
    pub fn popular_of_size(&self, m: u32, count: usize) -> Vec<KeywordSet> {
        self.pool
            .iter()
            .filter(|q| q.len() == m as usize)
            .take(count)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;

    fn log() -> QueryLog {
        let corpus = Corpus::generate(&CorpusConfig::small_test(), 3);
        QueryLog::generate(&QueryLogConfig::small_test(), &corpus, 4)
    }

    #[test]
    fn generates_requested_volume() {
        let l = log();
        assert_eq!(l.len(), 2_000);
        assert!(l.pool().len() > 10);
    }

    #[test]
    fn top10_share_calibrated() {
        let l = log();
        let share = l.top_share(10);
        assert!(
            (share - 0.6).abs() < 0.06,
            "top-10 share {share}, expected ≈ 0.6"
        );
    }

    #[test]
    fn queries_have_bounded_sizes() {
        let l = log();
        for q in l.iter() {
            assert!((1..=5).contains(&q.len()), "size {}", q.len());
        }
    }

    #[test]
    fn every_size_has_popular_representatives() {
        let l = log();
        for m in 1..=5u32 {
            assert!(
                !l.popular_of_size(m, 3).is_empty(),
                "no popular size-{m} queries"
            );
        }
    }

    #[test]
    fn queries_match_corpus_records() {
        // Every pool query is a subset of some record's keywords, so the
        // index will return at least one hit.
        let corpus = Corpus::generate(&CorpusConfig::small_test(), 3);
        let l = QueryLog::generate(&QueryLogConfig::small_test(), &corpus, 4);
        for q in l.pool().iter().take(50) {
            assert!(
                corpus.records().iter().any(|r| r.keywords.is_superset(q)),
                "query {q} matches nothing"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let corpus = Corpus::generate(&CorpusConfig::small_test(), 3);
        let a = QueryLog::generate(&QueryLogConfig::small_test(), &corpus, 9);
        let b = QueryLog::generate(&QueryLogConfig::small_test(), &corpus, 9);
        assert_eq!(a.pool(), b.pool());
        assert!(a.iter().eq(b.iter()));
    }

    #[test]
    fn small_queries_dominate() {
        let l = log();
        let small = l.iter().filter(|q| q.len() <= 2).count();
        assert!(
            small * 2 > l.len(),
            "simple queries should dominate: {small}/{}",
            l.len()
        );
    }
}
