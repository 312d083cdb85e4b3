//! Result ranking and category sampling (§1).
//!
//! The index scheme distinguishes matches by the number (and identity)
//! of keywords they carry beyond the query: "objects that are associated
//! with exactly the set K, objects associated with K plus one more
//! keyword, and so on; within each category, objects can be further
//! distinguished by which extra keywords they have." No global knowledge
//! (e.g. IDF) is needed — the grouping falls out of the index geometry.

use std::collections::BTreeMap;

use crate::keyword::KeywordSet;
use crate::search::RankedObject;

/// Groups results by their exact extra-keyword *set* relative to the
/// query — the categories `K ∪ {σ₁}`, `K ∪ {σ₂}`, `K ∪ {σ₁, σ₂}`, … of
/// §1's refinement mechanism.
pub fn group_by_extra_set<'a>(
    results: &'a [RankedObject],
    query: &KeywordSet,
) -> BTreeMap<KeywordSet, Vec<&'a RankedObject>> {
    let mut groups: BTreeMap<KeywordSet, Vec<&RankedObject>> = BTreeMap::new();
    for r in results {
        groups
            .entry(r.keyword_set.difference(query))
            .or_default()
            .push(r);
    }
    groups
}

/// A sampled refinement category: an extra-keyword set, the number of
/// matches carrying it, and up to `per_category` example objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategorySample<'a> {
    /// The keywords these objects have beyond the query.
    pub extra: KeywordSet,
    /// Total matches in the category.
    pub total: usize,
    /// Example objects (at most the requested sample size).
    pub examples: Vec<&'a RankedObject>,
}

/// Samples each refinement category, "to help users refine their
/// queries" (§1): categories appear sorted by extra-set size then
/// lexicographically, each carrying up to `per_category` examples.
pub fn sample_categories<'a>(
    results: &'a [RankedObject],
    query: &KeywordSet,
    per_category: usize,
) -> Vec<CategorySample<'a>> {
    let mut samples: Vec<CategorySample<'a>> = group_by_extra_set(results, query)
        .into_iter()
        .map(|(extra, members)| CategorySample {
            extra,
            total: members.len(),
            examples: members.into_iter().take(per_category).collect(),
        })
        .collect();
    samples.sort_by(|a, b| {
        a.extra
            .len()
            .cmp(&b.extra.len())
            .then_with(|| a.extra.cmp(&b.extra))
    });
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdex_dht::ObjectId;

    fn ranked(id: u64, keywords: &str, query: &str) -> RankedObject {
        let keyword_set = KeywordSet::parse(keywords).unwrap();
        let q = KeywordSet::parse(query).unwrap();
        let extra_keywords = (keyword_set.len() - q.len()) as u32;
        RankedObject {
            object: ObjectId::from_raw(id),
            keyword_set,
            extra_keywords,
        }
    }

    fn sample_results() -> (Vec<RankedObject>, KeywordSet) {
        let query = KeywordSet::parse("jazz").unwrap();
        let results = vec![
            ranked(1, "jazz", "jazz"),
            ranked(2, "jazz piano", "jazz"),
            ranked(3, "jazz piano", "jazz"),
            ranked(4, "jazz sax", "jazz"),
            ranked(5, "jazz piano 1959", "jazz"),
        ];
        (results, query)
    }

    #[test]
    fn group_by_set_distinguishes_categories() {
        let (results, query) = sample_results();
        let groups = group_by_extra_set(&results, &query);
        assert_eq!(groups.len(), 4, "∅, {{piano}}, {{sax}}, {{piano,1959}}");
        assert_eq!(groups[&KeywordSet::parse("piano").unwrap()].len(), 2);
        assert_eq!(groups[&KeywordSet::new()].len(), 1);
    }

    #[test]
    fn categories_sampled_and_ordered() {
        let (results, query) = sample_results();
        let samples = sample_categories(&results, &query, 1);
        // Order: ∅ (0 extra), then {piano}, {sax} (1 extra, lexicographic),
        // then {1959, piano}.
        assert_eq!(samples[0].extra, KeywordSet::new());
        assert_eq!(samples[1].extra, KeywordSet::parse("piano").unwrap());
        assert_eq!(samples[2].extra, KeywordSet::parse("sax").unwrap());
        assert_eq!(samples[3].extra, KeywordSet::parse("piano 1959").unwrap());
        assert_eq!(samples[1].total, 2);
        assert_eq!(samples[1].examples.len(), 1, "sampled down");
    }

    #[test]
    fn empty_results_empty_groups() {
        let query = KeywordSet::parse("q").unwrap();
        assert!(sample_categories(&[], &query, 3).is_empty());
    }
}
