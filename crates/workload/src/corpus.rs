//! Corpus generation: the synthetic PCHome website directory.
//!
//! The generated corpus reproduces the two statistics §4's results rest
//! on: the keyword-set-size distribution of Figure 5 (mean 7.3) and
//! Zipf keyword popularity. Record count defaults to the paper's
//! 131,180.

use hyperdex_core::KeywordSet;
use hyperdex_simnet::rng::SimRng;

use crate::records::WebsiteRecord;
use crate::setsize::SetSizeDistribution;
use crate::vocab::Vocabulary;

/// Configuration for corpus generation.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of records (paper: 131,180).
    pub objects: usize,
    /// Vocabulary size (distinct keywords in the corpus universe).
    pub vocab_size: usize,
    /// Zipf exponent of keyword popularity.
    pub zipf_exponent: f64,
    /// Keyword-set-size distribution.
    pub set_sizes: SetSizeDistribution,
}

impl CorpusConfig {
    /// The paper-scale corpus: 131,180 records, 60k-word vocabulary,
    /// Zipf(1.0) popularity, Figure 5 set sizes.
    pub fn pchome() -> Self {
        CorpusConfig {
            objects: 131_180,
            vocab_size: 60_000,
            zipf_exponent: 1.0,
            set_sizes: SetSizeDistribution::pchome(),
        }
    }

    /// A laptop-friendly miniature with the same distributions
    /// (2,000 records, 3k words) for tests and examples.
    pub fn small_test() -> Self {
        CorpusConfig {
            objects: 2_000,
            vocab_size: 3_000,
            zipf_exponent: 1.0,
            set_sizes: SetSizeDistribution::pchome(),
        }
    }

    /// Overrides the record count.
    pub fn with_objects(mut self, n: usize) -> Self {
        self.objects = n;
        self
    }
}

/// A generated corpus of website records.
#[derive(Debug, Clone)]
pub struct Corpus {
    records: Vec<WebsiteRecord>,
}

impl Corpus {
    /// Generates a corpus deterministically from a seed.
    pub fn generate(config: &CorpusConfig, seed: u64) -> Self {
        let vocab = Vocabulary::new(config.vocab_size, config.zipf_exponent);
        let mut words = vocab.by_rank();
        let mut rng = SimRng::new(seed ^ 0xC0_4F_05);
        let records = (0..config.objects)
            .map(|i| {
                let size = config.set_sizes.sample(&mut rng);
                WebsiteRecord {
                    id: i as u64,
                    keywords: words.sample_set(size, &mut rng),
                }
            })
            .collect();
        Corpus { records }
    }

    /// The records.
    pub fn records(&self) -> &[WebsiteRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over `(object id, keyword set)` pairs ready for
    /// indexing.
    pub fn indexable(&self) -> impl Iterator<Item = (hyperdex_core::ObjectId, &KeywordSet)> {
        self.records.iter().map(|r| (r.object_id(), &r.keywords))
    }

    /// Mean keywords per record (the paper reports 7.3).
    pub fn mean_keywords_per_object(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.keywords.len()).sum::<usize>() as f64
            / self.records.len() as f64
    }

    /// Histogram of keyword-set sizes — the Figure 5 data series.
    /// Index `i` holds the count of records with `i` keywords.
    pub fn set_size_histogram(&self) -> Vec<usize> {
        let max = self
            .records
            .iter()
            .map(|r| r.keywords.len())
            .max()
            .unwrap_or(0);
        let mut hist = vec![0usize; max + 1];
        for r in &self.records {
            hist[r.keywords.len()] += 1;
        }
        hist
    }

    /// Empirical `(size, fraction)` weights for analytical consumers.
    pub fn size_weights(&self) -> Vec<(u32, f64)> {
        let hist = self.set_size_histogram();
        let total = self.len() as f64;
        hist.into_iter()
            .enumerate()
            .filter(|&(size, count)| size > 0 && count > 0)
            .map(|(size, count)| (size as u32, count as f64 / total))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Corpus {
        Corpus::generate(&CorpusConfig::small_test(), 7)
    }

    #[test]
    fn generates_requested_count() {
        let c = small();
        assert_eq!(c.len(), 2_000);
        assert!(!c.is_empty());
    }

    #[test]
    fn mean_tracks_figure_5() {
        let c = small();
        let mean = c.mean_keywords_per_object();
        assert!((mean - 7.3).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn histogram_sums_to_len_and_has_no_empty_sets() {
        let c = small();
        let hist = c.set_size_histogram();
        assert_eq!(hist.iter().sum::<usize>(), c.len());
        assert_eq!(hist[0], 0, "every record has at least one keyword");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Corpus::generate(&CorpusConfig::small_test(), 5);
        let b = Corpus::generate(&CorpusConfig::small_test(), 5);
        assert_eq!(a.records()[..10], b.records()[..10]);
        let c = Corpus::generate(&CorpusConfig::small_test(), 6);
        assert_ne!(a.records()[..10], c.records()[..10]);
    }

    #[test]
    fn popular_keywords_shared_across_records() {
        // Zipf popularity ⇒ the rank-0 word appears in many records.
        let c = small();
        let top = hyperdex_core::KeywordSet::parse("kw000000").expect("non-empty");
        let containing = c
            .records()
            .iter()
            .filter(|r| r.keywords.is_superset(&top))
            .count();
        assert!(containing > 50, "top word in only {containing} records");
    }

    #[test]
    fn indexable_pairs_align() {
        let c = small();
        let (id, kw) = c.indexable().next().unwrap();
        assert_eq!(id, c.records()[0].object_id());
        assert_eq!(kw, &c.records()[0].keywords);
        assert_eq!(c.indexable().count(), c.len());
    }

    #[test]
    fn size_weights_sum_to_one() {
        let c = small();
        let total: f64 = c.size_weights().iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
