//! Generator identity: `Corpus::generate` draws the records the
//! binary-search Zipf sampler and `BTreeSet` keyword sets drew, byte
//! for byte. The reference below is that generator, kept verbatim; only
//! its sampler is cut down to the CDF and the search it drew with, and
//! its records are a local struct of all six fields. A generated record
//! holds its id and keyword set and builds its four text fields when
//! asked; every field is compared with the reference's.
//!
//! A change that alters one generated record is a workload change, with
//! fresh baselines, never a speed-up (DESIGN.md §4). The full-corpus
//! cases run optimized: `cargo test --release -p hyperdex-workload`.

use hyperdex_core::{Keyword, KeywordSet};
use hyperdex_simnet::rng::SimRng;
use hyperdex_workload::{Corpus, CorpusConfig, SetSizeDistribution};

/// The reference Zipf sampler: inverse-CDF binary search.
struct ReferenceZipf {
    cdf: Vec<f64>,
}

impl ReferenceZipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against rounding leaving the last value below 1.
        *cdf.last_mut().expect("non-empty") = 1.0;
        ReferenceZipf { cdf }
    }

    fn len(&self) -> usize {
        self.cdf.len()
    }

    fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.gen_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The reference vocabulary: each word rendered when drawn.
struct ReferenceVocabulary {
    zipf: ReferenceZipf,
}

impl ReferenceVocabulary {
    fn len(&self) -> usize {
        self.zipf.len()
    }

    fn word(&self, rank: usize) -> Keyword {
        assert!(rank < self.len(), "vocabulary rank {rank} out of range");
        Keyword::new(&format!("kw{rank:06}")).expect("synthetic words are non-empty")
    }

    fn sample_rank(&self, rng: &mut SimRng) -> usize {
        self.zipf.sample(rng)
    }

    fn sample_set(&self, size: u32, rng: &mut SimRng) -> KeywordSet {
        assert!(
            (size as usize) <= self.len(),
            "cannot draw {size} distinct words from {} total",
            self.len()
        );
        let mut ranks = std::collections::BTreeSet::new();
        // Popular words collide often; cap rejection rounds, then fill
        // from uniform ranks to guarantee termination.
        let mut attempts = 0;
        while ranks.len() < size as usize && attempts < 64 * size {
            ranks.insert(self.sample_rank(rng));
            attempts += 1;
        }
        while ranks.len() < size as usize {
            ranks.insert(rng.gen_index(self.len()));
        }
        ranks.into_iter().map(|r| self.word(r)).collect()
    }
}

/// A record as the reference generator built it: every text field
/// formatted up front.
#[derive(Debug, PartialEq, Eq)]
struct ReferenceRecord {
    id: u64,
    title: String,
    url: String,
    category: String,
    description: String,
    keywords: KeywordSet,
}

fn reference_generate(config: &CorpusConfig, seed: u64) -> Vec<ReferenceRecord> {
    let vocab = ReferenceVocabulary {
        zipf: ReferenceZipf::new(config.vocab_size, config.zipf_exponent),
    };
    let mut rng = SimRng::new(seed ^ 0xC0_4F_05);
    (0..config.objects)
        .map(|i| {
            let size = config.set_sizes.sample(&mut rng);
            let keywords = vocab.sample_set(size, &mut rng);
            reference_record(i as u64, keywords)
        })
        .collect()
}

fn reference_record(id: u64, keywords: KeywordSet) -> ReferenceRecord {
    ReferenceRecord {
        id,
        title: format!("Site {id}"),
        url: format!("http://site{id}.example"),
        category: format!("{:010}", id % 9_999_999),
        description: format!("Synthetic directory record {id}"),
        keywords,
    }
}

/// Generates with both generators and compares record by record.
fn assert_identical(config: &CorpusConfig, seed: u64) -> Corpus {
    let corpus = Corpus::generate(config, seed);
    let reference = reference_generate(config, seed);
    assert_eq!(corpus.len(), reference.len());
    for (got, want) in corpus.records().iter().zip(&reference) {
        // A record builds its text from its id when asked.
        let got = ReferenceRecord {
            id: got.id,
            title: got.title(),
            url: got.url(),
            category: got.category(),
            description: got.description(),
            keywords: got.keywords.clone(),
        };
        assert_eq!(&got, want, "seed {seed}, record {}", want.id);
    }
    corpus
}

#[test]
fn small_test_corpora_match_the_reference() {
    for seed in 0..20 {
        assert_identical(&CorpusConfig::small_test(), seed);
    }
}

#[test]
fn a_tiny_vocabulary_matches_the_reference_through_the_uniform_fill() {
    // At s = 8 the fourth and fifth words are drawn ~10⁻⁵ of the time,
    // so nearly every four- or five-word set ends in the uniform fill.
    let config = CorpusConfig {
        objects: 2_000,
        vocab_size: 5,
        zipf_exponent: 8.0,
        set_sizes: SetSizeDistribution::from_weights(&[1.0; 5]),
    };
    let corpus = assert_identical(&config, 3);
    assert!(corpus.records().iter().any(|r| r.keywords.len() == 5));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "60k-word vocabulary: runs under `cargo test --release`"
)]
fn pchome_prefixes_match_the_reference() {
    // The benchmark's preset seed and its held-out seed at `--seed 42`.
    for seed in [2005, 42 ^ 0x4845_4C44] {
        assert_identical(&CorpusConfig::pchome().with_objects(20_000), seed);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1.2M-word vocabulary: runs under `cargo test --release`"
)]
fn a_vocabulary_past_a_million_words_matches_the_reference() {
    // `kw{rank:06}` widens at rank 10⁶, so `kw1000000` sorts between
    // `kw100000` and `kw100001`: the set cannot be packed in rank order.
    let config = CorpusConfig {
        objects: 2_000,
        vocab_size: 1_200_000,
        zipf_exponent: 0.0,
        set_sizes: SetSizeDistribution::pchome(),
    };
    let corpus = assert_identical(&config, 11);
    let wide = corpus
        .records()
        .iter()
        .filter(|r| r.keywords.iter().any(|k| k.as_str().len() > 8))
        .count();
    assert!(wide > 100, "{wide} records hold a seven-digit word");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full pchome corpus: runs under `cargo test --release`"
)]
fn the_full_pchome_corpus_keeps_its_digest() {
    // FNV-1a over every record's packed keyword set, in record order.
    // Pinned from the binary-search generator, so it also trips on a
    // change to `SimRng` or to `KeywordSet`'s packing.
    let corpus = Corpus::generate(&CorpusConfig::pchome(), 2005);
    let digest = corpus
        .records()
        .iter()
        .flat_map(|r| r.keywords.as_packed())
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(corpus.len(), 131_180);
    assert_eq!(digest, 0xb003_acd3_1889_6d7e);
}
