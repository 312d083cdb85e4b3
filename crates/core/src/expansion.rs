//! Query expansion (§3.4).
//!
//! Simple one- or two-keyword queries dominate real logs, and their
//! roots sit near the bottom of the hypercube where subcubes — and thus
//! search cost — are largest. The paper's remedy: "query expansion can
//! be used to expand keyword sets … the applications can add some
//! keywords, based on, say, the user's preference or his past logs.
//! This customization not only improves search quality, but also
//! alleviates the potential hot spot."
//!
//! [`QueryExpander`] implements that loop with zero global knowledge:
//! a cheap sampled search surfaces the *actual* refinement categories
//! present in the index (via [`crate::ranking::sample_categories`]),
//! the user's preference history ranks them, and every expanded query
//! provably searches a subcube nested inside the original (Lemma 3.3).

use std::collections::HashMap;

use crate::cluster::HypercubeIndex;
use crate::error::Error;
use crate::keyword::{Keyword, KeywordRef, KeywordSet};
use crate::ranking;
use crate::search::SupersetQuery;

/// A proposed expansion of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expansion {
    /// The expanded query (`original ∪ extra`).
    pub query: KeywordSet,
    /// The keywords added.
    pub added: KeywordSet,
    /// Matches observed for this category in the sampling search (a
    /// lower bound on the category's true size).
    pub sampled_matches: usize,
    /// How many of the added keywords are in the user's preference
    /// history (primary ranking signal).
    pub preference_hits: usize,
}

/// Learns a user's keyword preferences and expands broad queries into
/// more specific ones that exist in the index.
///
/// # Example
///
/// ```
/// use hyperdex_core::expansion::QueryExpander;
/// use hyperdex_core::{HypercubeIndex, KeywordSet, ObjectId};
///
/// let mut index = HypercubeIndex::new(8, 0)?;
/// index.insert(ObjectId::from_raw(1), KeywordSet::parse("jazz piano")?)?;
/// index.insert(ObjectId::from_raw(2), KeywordSet::parse("jazz sax")?)?;
///
/// let mut expander = QueryExpander::new();
/// expander.note(&KeywordSet::parse("piano")?); // past behaviour
/// let expansions =
///     expander.expand(&mut index, &KeywordSet::parse("jazz")?, 16, 3)?;
/// // The user's piano preference ranks {jazz, piano} first.
/// assert_eq!(expansions[0].query, KeywordSet::parse("jazz piano")?);
/// # Ok::<(), hyperdex_core::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryExpander {
    preference_counts: HashMap<Keyword, u64>,
}

impl QueryExpander {
    /// Creates an expander with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the keywords of a past query (or click) into the
    /// preference history.
    pub fn note(&mut self, keywords: &KeywordSet) {
        for k in keywords {
            *self.preference_counts.entry(k.to_keyword()).or_insert(0) += 1;
        }
    }

    /// How often `keyword` appeared in the history.
    pub fn preference(&self, keyword: KeywordRef<'_>) -> u64 {
        self.preference_counts
            .get(keyword.as_str())
            .copied()
            .unwrap_or(0)
    }

    /// Proposes up to `limit` expanded queries for `query`.
    ///
    /// Runs one sampled superset search (threshold `sample_size`,
    /// cache-enabled), groups the sample into refinement categories,
    /// and ranks single-step expansions by preference hits, then by
    /// sampled category size. Every proposal's root subcube nests
    /// inside the original query's (Lemma 3.3), so expanded searches
    /// are never more expensive.
    ///
    /// # Errors
    ///
    /// Returns the underlying search errors.
    pub fn expand(
        &self,
        index: &mut HypercubeIndex,
        query: &KeywordSet,
        sample_size: usize,
        limit: usize,
    ) -> Result<Vec<Expansion>, Error> {
        let sample = index
            .superset_search(&SupersetQuery::new(query.clone()).threshold(sample_size.max(1)))?;
        let categories = ranking::sample_categories(&sample.results, query, 1);
        let mut expansions: Vec<Expansion> = categories
            .into_iter()
            .filter(|c| !c.extra.is_empty())
            .map(|c| {
                let preference_hits = c.extra.iter().filter(|&k| self.preference(k) > 0).count();
                Expansion {
                    query: query.union(&c.extra),
                    added: c.extra,
                    sampled_matches: c.total,
                    preference_hits,
                }
            })
            .collect();
        expansions.sort_by(|a, b| {
            b.preference_hits
                .cmp(&a.preference_hits)
                .then_with(|| b.sampled_matches.cmp(&a.sampled_matches))
                .then_with(|| a.added.len().cmp(&b.added.len()))
                .then_with(|| a.added.cmp(&b.added))
        });
        expansions.truncate(limit);
        Ok(expansions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdex_dht::ObjectId;

    fn set(s: &str) -> KeywordSet {
        KeywordSet::parse(s).unwrap()
    }

    fn music_index() -> HypercubeIndex {
        let mut index = HypercubeIndex::new(8, 0).unwrap();
        let records = [
            (1, "jazz piano"),
            (2, "jazz piano 1959"),
            (3, "jazz sax"),
            (4, "jazz sax"),
            (5, "jazz sax"),
            (6, "rock guitar"),
        ];
        for (id, k) in records {
            index.insert(ObjectId::from_raw(id), set(k)).unwrap();
        }
        index
    }

    #[test]
    fn expansions_come_from_real_categories() {
        let mut index = music_index();
        let expander = QueryExpander::new();
        let exps = expander.expand(&mut index, &set("jazz"), 64, 10).unwrap();
        assert!(!exps.is_empty());
        for e in &exps {
            assert!(e.query.is_superset(&set("jazz")));
            assert!(
                index.matching_count(&e.query) > 0,
                "expansion {} matches nothing",
                e.query
            );
        }
    }

    #[test]
    fn preferences_outrank_popularity() {
        let mut index = music_index();
        // "sax" is the popular category (3 objects), but the user keeps
        // asking for piano.
        let mut expander = QueryExpander::new();
        expander.note(&set("piano"));
        expander.note(&set("piano 1959"));
        let exps = expander.expand(&mut index, &set("jazz"), 64, 10).unwrap();
        assert!(
            exps[0].added.iter().any(|k| k.as_str() == "piano"),
            "first expansion should honor the preference, got +{}",
            exps[0].added
        );
        // Without history, popularity wins.
        let neutral = QueryExpander::new();
        let exps = neutral.expand(&mut index, &set("jazz"), 64, 10).unwrap();
        assert_eq!(exps[0].added, set("sax"), "most-sampled category first");
    }

    #[test]
    fn expansion_shrinks_search_cost() {
        let mut index = music_index();
        let expander = QueryExpander::new();
        let exps = expander.expand(&mut index, &set("jazz"), 64, 1).unwrap();
        let broad = index
            .superset_search(&SupersetQuery::new(set("jazz")))
            .unwrap();
        let narrow = index
            .superset_search(&SupersetQuery::new(exps[0].query.clone()))
            .unwrap();
        assert!(
            narrow.stats.nodes_contacted <= broad.stats.nodes_contacted,
            "expanded query must not search a larger subcube (Lemma 3.3)"
        );
        // Geometric nesting.
        assert!(index
            .vertex_for(&exps[0].query)
            .contains(index.vertex_for(&set("jazz"))));
    }

    #[test]
    fn no_matches_no_expansions() {
        let mut index = music_index();
        let expander = QueryExpander::new();
        let exps = expander.expand(&mut index, &set("polka"), 16, 5).unwrap();
        assert!(exps.is_empty());
    }

    #[test]
    fn limit_respected_and_exact_matches_excluded() {
        let mut index = music_index();
        let expander = QueryExpander::new();
        let exps = expander.expand(&mut index, &set("jazz"), 64, 1).unwrap();
        assert_eq!(exps.len(), 1);
        // The ∅ category (objects with exactly {jazz}) is not an
        // expansion.
        assert!(exps.iter().all(|e| !e.added.is_empty()));
    }
}
