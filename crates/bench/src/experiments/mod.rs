//! The per-figure experiment runners.
//!
//! Each submodule regenerates one published artifact; `SharedContext`
//! builds the (expensive) corpus and query log once per process.

pub mod ablation;
pub mod availability;
pub mod churn;
pub mod eq1;
pub mod faults;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod prune;
pub mod table1;
pub mod xcheck;

use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

/// Experiment scale: the paper's full corpus, or a laptop-quick
/// miniature with the same distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 131,180 objects / 178k queries — the paper's numbers.
    Full,
    /// 10,000 objects / 20k queries — same shapes, seconds to run.
    Small,
}

impl Scale {
    /// The corpus configuration for this scale.
    pub fn corpus_config(self) -> CorpusConfig {
        match self {
            Scale::Full => CorpusConfig::pchome(),
            Scale::Small => CorpusConfig::pchome().with_objects(10_000),
        }
    }

    /// The query-log configuration for this scale.
    pub fn query_config(self) -> QueryLogConfig {
        match self {
            Scale::Full => QueryLogConfig::pchome_day(),
            Scale::Small => QueryLogConfig::pchome_day().with_queries(20_000),
        }
    }
}

/// Corpus and query log shared by all experiments in one run.
#[derive(Debug)]
pub struct SharedContext {
    /// The experiment scale.
    pub scale: Scale,
    /// The master seed.
    pub seed: u64,
    /// The synthetic corpus.
    pub corpus: Corpus,
    /// The synthetic query log.
    pub queries: QueryLog,
}

impl SharedContext {
    /// Builds the corpus and query log for a scale and seed.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let corpus = Corpus::generate(&scale.corpus_config(), seed);
        let queries = QueryLog::generate(&scale.query_config(), &corpus, seed ^ 0xF00D);
        SharedContext {
            scale,
            seed,
            corpus,
            queries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_context_builds() {
        let ctx = SharedContext::new(Scale::Small, 1);
        assert_eq!(ctx.corpus.len(), 10_000);
        assert_eq!(ctx.queries.len(), 20_000);
    }

    #[test]
    fn scale_configs_differ() {
        assert_eq!(Scale::Full.corpus_config().objects, 131_180);
        assert_eq!(Scale::Small.corpus_config().objects, 10_000);
    }
}
