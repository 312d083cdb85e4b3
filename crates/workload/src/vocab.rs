//! A synthetic keyword vocabulary with Zipf popularity.
//!
//! Keywords are identified by rank: rank 0 is the most popular word
//! (think `mp3` in the paper's discussion). Word strings are synthetic
//! but stable, so two generators with the same configuration agree on
//! every word.

use std::io::Write;

use hyperdex_core::keyword::MAX_KEYWORDS;
use hyperdex_core::{KeywordRef, KeywordSet};
use hyperdex_simnet::rng::SimRng;

use crate::zipf::ZipfSampler;

/// A ranked vocabulary with a Zipf popularity law.
///
/// # Example
///
/// ```
/// use hyperdex_simnet::rng::SimRng;
/// use hyperdex_workload::vocab::Vocabulary;
///
/// let vocab = Vocabulary::new(1000, 1.0);
/// let mut words = vocab.by_rank();
/// let mut rng = SimRng::new(1);
/// let set = words.sample_set(3, &mut rng);
/// assert_eq!(set.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Vocabulary {
    zipf: ZipfSampler,
    /// Every word `kw{rank:06}`, packed, in rank order: one set per run
    /// of at most [`MAX_KEYWORDS`] ranks whose words are equally wide.
    /// Within such a run byte order is rank order; across the widening
    /// at rank 10⁶ it is not (`kw1000000` sorts before `kw999999`).
    words: Vec<KeywordSet>,
}

impl Vocabulary {
    /// Creates a vocabulary of `size` words with Zipf exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` (via the Zipf sampler).
    pub fn new(size: usize, s: f64) -> Self {
        let zipf = ZipfSampler::new(size, s);
        let mut words = Vec::new();
        let mut packed = Vec::new();
        let mut start = 0;
        while start < size {
            let end = size.min(start + MAX_KEYWORDS).min(next_wider(start));
            let count = u16::try_from(end - start).expect("a run is at most MAX_KEYWORDS words");
            packed.clear();
            packed.extend_from_slice(&count.to_le_bytes());
            for rank in start..end {
                // A length placeholder, the word, then its length.
                let at = packed.len();
                packed.extend_from_slice(&[0, 0]);
                write!(packed, "kw{rank:06}").expect("writing to a Vec cannot fail");
                let len = u16::try_from(packed.len() - at - 2).expect("a word is a few bytes");
                packed[at..at + 2].copy_from_slice(&len.to_le_bytes());
            }
            let (run, _) = KeywordSet::decode_packed(&packed)
                .expect("equally wide words written in rank order are ascending");
            words.push(run);
            start = end;
        }
        Vocabulary { zipf, words }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.zipf.len()
    }

    /// Whether the vocabulary is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.zipf.is_empty()
    }

    /// Draws one word rank by popularity.
    pub fn sample_rank(&self, rng: &mut SimRng) -> usize {
        self.zipf.sample(rng)
    }

    /// The words indexed by rank, viewed in the packed runs: what
    /// keyword sets are drawn from.
    pub fn by_rank(&self) -> RankedWords<'_> {
        let mut words = Vec::with_capacity(self.len());
        words.extend(self.words.iter().flat_map(KeywordSet::iter));
        RankedWords {
            vocab: self,
            words,
            ranks: Vec::new(),
        }
    }
}

/// The first rank whose word is wider than `rank`'s: words are padded
/// to six digits, so the first widening is at 10⁶.
fn next_wider(rank: usize) -> usize {
    let mut bound = 1_000_000usize;
    while bound <= rank {
        bound = bound.saturating_mul(10);
    }
    bound
}

/// A [`Vocabulary`]'s words by rank, borrowed from its packed runs.
#[derive(Debug)]
pub struct RankedWords<'a> {
    vocab: &'a Vocabulary,
    /// `words[rank]`.
    words: Vec<KeywordRef<'a>>,
    /// The ranks of the set being drawn; kept so a draw reuses it.
    ranks: Vec<usize>,
}

impl RankedWords<'_> {
    /// Draws a keyword set of exactly `size` *distinct* words by
    /// popularity (rejection on duplicates).
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds the vocabulary size.
    pub fn sample_set(&mut self, size: u32, rng: &mut SimRng) -> KeywordSet {
        let vocab = self.vocab;
        assert!(
            (size as usize) <= vocab.len(),
            "cannot draw {size} distinct words from {} total",
            vocab.len()
        );
        let size = size as usize;
        let ranks = &mut self.ranks;
        ranks.clear();
        let mut attempts = 0;
        while ranks.len() < size {
            // Popular words collide often; cap rejection rounds, then
            // fill from uniform ranks to guarantee termination.
            let rank = if attempts < 64 * size {
                attempts += 1;
                vocab.sample_rank(rng)
            } else {
                rng.gen_index(vocab.len())
            };
            if !ranks.contains(&rank) {
                ranks.push(rank);
            }
        }
        // In rank order the views arrive ascending, so the collect has
        // nothing to sort; past 10⁶ words `kw{rank:06}` stops sorting
        // like the rank, and the collect sorts them itself.
        ranks.sort_unstable();
        ranks.iter().map(|&r| self.words[r]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every rank's word, read through the rank table.
    fn assert_ranked(v: &Vocabulary, ranks: impl IntoIterator<Item = usize>) {
        let words = v.by_rank();
        assert_eq!(words.words.len(), v.len());
        for rank in ranks {
            assert_eq!(words.words[rank].as_str(), format!("kw{rank:06}"));
        }
    }

    #[test]
    fn words_are_stable_and_distinct() {
        let v = Vocabulary::new(100, 1.0);
        assert_eq!(v.words, Vocabulary::new(100, 1.0).words);
        assert_eq!(v.words.len(), 1, "one packed set");
        assert_ranked(&v, 0..100);
    }

    #[test]
    fn a_vocabulary_past_max_keywords_packs_one_set_per_run() {
        let v = Vocabulary::new(MAX_KEYWORDS + 10, 1.0);
        assert_eq!(v.words.len(), 2);
        assert_eq!(v.words[0].len(), MAX_KEYWORDS);
        assert_ranked(&v, 0..v.len());
    }

    #[test]
    fn runs_break_where_the_words_widen() {
        assert_eq!(next_wider(0), 1_000_000);
        assert_eq!(next_wider(999_999), 1_000_000);
        assert_eq!(next_wider(1_000_000), 10_000_000);
        assert_eq!(next_wider(usize::MAX - 1), usize::MAX);
        // Past 10⁶ the table holds ranks, not byte order.
        let v = Vocabulary::new(1_000_010, 0.0);
        let runs: Vec<usize> = v.words.iter().map(KeywordSet::len).collect();
        assert_eq!(runs.len(), 17);
        assert_eq!(runs[15], 1_000_000 - 15 * MAX_KEYWORDS);
        assert_eq!(runs[16], 10);
        assert_ranked(&v, (999_990..1_000_010).chain([0, 65_535, 65_536]));
    }

    #[test]
    fn popular_words_sampled_more() {
        let v = Vocabulary::new(1000, 1.0);
        let mut rng = SimRng::new(2);
        let mut top = 0;
        let mut deep = 0;
        for _ in 0..10_000 {
            let r = v.sample_rank(&mut rng);
            if r == 0 {
                top += 1;
            }
            if r >= 500 {
                deep += 1;
            }
        }
        assert!(top > 1000, "rank 0 drew {top}");
        assert!(deep < top, "deep ranks drew {deep}");
    }

    #[test]
    fn sample_set_has_exact_size() {
        let vocab = Vocabulary::new(50, 1.2);
        let mut v = vocab.by_rank();
        let mut rng = SimRng::new(3);
        for size in [1u32, 2, 5, 10, 30] {
            assert_eq!(v.sample_set(size, &mut rng).len(), size as usize);
        }
    }

    #[test]
    fn sample_set_full_vocabulary() {
        let vocab = Vocabulary::new(5, 1.0);
        let mut v = vocab.by_rank();
        let mut rng = SimRng::new(4);
        let set = v.sample_set(5, &mut rng);
        assert_eq!(set.len(), 5, "exhausts the vocabulary");
    }

    #[test]
    #[should_panic(expected = "distinct words")]
    fn oversized_set_panics() {
        Vocabulary::new(3, 1.0)
            .by_rank()
            .sample_set(4, &mut SimRng::new(0));
    }

    #[test]
    fn deterministic_given_seed() {
        let v = Vocabulary::new(200, 1.0);
        let mut words = v.by_rank();
        let a = words.sample_set(6, &mut SimRng::new(9));
        let b = words.sample_set(6, &mut SimRng::new(9));
        assert_eq!(a, b);
    }
}
