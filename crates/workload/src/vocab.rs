//! A synthetic keyword vocabulary with Zipf popularity.
//!
//! Keywords are identified by rank: rank 0 is the most popular word
//! (think `mp3` in the paper's discussion). Word strings are synthetic
//! but stable, so two generators with the same configuration agree on
//! every word.

use hyperdex_core::{Keyword, KeywordSet};
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
/// let mut rng = SimRng::new(1);
/// let set = vocab.sample_set(3, &mut rng);
/// assert_eq!(set.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Vocabulary {
    zipf: ZipfSampler,
    /// `words[rank]`, rendered once.
    words: Vec<Keyword>,
}

impl Vocabulary {
    /// Creates a vocabulary of `size` words with Zipf exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` (via the Zipf sampler).
    pub fn new(size: usize, s: f64) -> Self {
        let zipf = ZipfSampler::new(size, s);
        let words = (0..size)
            .map(|rank| {
                Keyword::new(&format!("kw{rank:06}")).expect("synthetic words are non-empty")
            })
            .collect();
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

    /// Draws a keyword set of exactly `size` *distinct* words by
    /// popularity (rejection on duplicates).
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds the vocabulary size.
    pub fn sample_set(&self, size: u32, rng: &mut SimRng) -> KeywordSet {
        assert!(
            (size as usize) <= self.len(),
            "cannot draw {size} distinct words from {} total",
            self.len()
        );
        let size = size as usize;
        let mut ranks = Vec::with_capacity(size);
        let mut attempts = 0;
        while ranks.len() < size {
            // Popular words collide often; cap rejection rounds, then
            // fill from uniform ranks to guarantee termination.
            let rank = if attempts < 64 * size {
                attempts += 1;
                self.sample_rank(rng)
            } else {
                rng.gen_index(self.len())
            };
            if !ranks.contains(&rank) {
                ranks.push(rank);
            }
        }
        // In rank order the views arrive ascending, so the collect has
        // nothing to sort; past 10⁶ words `kw{rank:06}` stops sorting
        // like the rank, and the collect sorts them itself.
        ranks.sort_unstable();
        ranks.iter().map(|&r| self.words[r].view()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_stable_and_distinct() {
        let v = Vocabulary::new(100, 1.0);
        assert_eq!(v.words[3], Vocabulary::new(100, 1.0).words[3]);
        assert_ne!(v.words[3], v.words[4]);
        assert_eq!(v.words[0].view().as_str(), "kw000000");
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
        let v = Vocabulary::new(50, 1.2);
        let mut rng = SimRng::new(3);
        for size in [1u32, 2, 5, 10, 30] {
            assert_eq!(v.sample_set(size, &mut rng).len(), size as usize);
        }
    }

    #[test]
    fn sample_set_full_vocabulary() {
        let v = Vocabulary::new(5, 1.0);
        let mut rng = SimRng::new(4);
        let set = v.sample_set(5, &mut rng);
        assert_eq!(set.len(), 5, "exhausts the vocabulary");
    }

    #[test]
    #[should_panic(expected = "distinct words")]
    fn oversized_set_panics() {
        let v = Vocabulary::new(3, 1.0);
        v.sample_set(4, &mut SimRng::new(0));
    }

    #[test]
    fn deterministic_given_seed() {
        let v = Vocabulary::new(200, 1.0);
        let a = v.sample_set(6, &mut SimRng::new(9));
        let b = v.sample_set(6, &mut SimRng::new(9));
        assert_eq!(a, b);
    }
}
