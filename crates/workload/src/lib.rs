//! # hyperdex-workload
//!
//! Synthetic workload generation calibrated to the paper's dataset.
//!
//! The evaluation in §4 of *Keyword Search in DHT-based Peer-to-Peer
//! Networks* (ICDCS 2005) uses two proprietary inputs we cannot obtain:
//!
//! 1. the **PCHome website directory** — 131,180 hand-edited records
//!    averaging 7.3 keywords each, with the keyword-set-size histogram
//!    of Figure 5;
//! 2. two weeks of **PCHome query logs** (~178,000 queries/day), whose
//!    top-10 distinct queries carry over 60 % of daily volume.
//!
//! This crate substitutes statistically equivalent synthetic versions:
//! every §4 result depends only on (a) the keyword-set-size
//! distribution, (b) Zipf-skewed keyword popularity, and (c) query
//! skew — all three are reproduced and unit-tested here. See DESIGN.md
//! §4 for the substitution argument.
//!
//! * [`zipf`] — an exact, seedable Zipf sampler.
//! * [`setsize`] — the keyword-set-size distribution (Figure 5's shape).
//! * [`vocab`] — a synthetic keyword vocabulary, packed in keyword sets.
//! * [`corpus`] — website-record corpus generation (Table 1's schema).
//! * [`queries`] — query-log generation with calibrated skew.
//! * [`stats`] — histograms and the ranked-load curves of Figure 6.
//!
//! # Example
//!
//! ```
//! use hyperdex_workload::corpus::{Corpus, CorpusConfig};
//!
//! let corpus = Corpus::generate(&CorpusConfig::small_test(), 42);
//! assert_eq!(corpus.len(), CorpusConfig::small_test().objects);
//! let mean = corpus.mean_keywords_per_object();
//! assert!((5.0..10.0).contains(&mean), "mean keywords {mean}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod queries;
pub mod records;
pub mod setsize;
pub mod stats;
pub mod vocab;
pub mod zipf;

pub use corpus::{Corpus, CorpusConfig};
pub use queries::{QueryLog, QueryLogConfig};
pub use records::WebsiteRecord;
pub use setsize::SetSizeDistribution;
pub use vocab::Vocabulary;
pub use zipf::ZipfSampler;
