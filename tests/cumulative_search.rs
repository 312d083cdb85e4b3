//! Cumulative (paged) search integration over a realistic corpus.

use hyperdex::core::search::cumulative::CumulativeSearch;
use hyperdex::core::{HypercubeIndex, KeywordSet, SearchStats, SupersetQuery};
use hyperdex::workload::{Corpus, CorpusConfig};

fn setup() -> (HypercubeIndex, KeywordSet, usize) {
    let corpus = Corpus::generate(&CorpusConfig::small_test(), 13);
    let mut index = HypercubeIndex::new(10, 0).expect("valid");
    for (id, k) in corpus.indexable() {
        index.insert(id, k.clone()).expect("non-empty");
    }
    // The most popular word (the vocabulary's rank 0) has many
    // matches — good for paging.
    let query = KeywordSet::parse("kw000000").expect("one keyword");
    let total = index.matching_count(&query);
    assert!(total > 20, "need a popular query, got {total}");
    (index, query, total)
}

#[test]
fn paging_covers_everything_without_repeats() {
    let (index, query, total) = setup();
    let mut session = CumulativeSearch::new(&index, query);
    let mut seen = std::collections::HashSet::new();
    let page_size = 7;
    let mut pages = 0;
    while !session.is_finished() && pages < 10_000 {
        let batch = session.next_batch(&index, page_size).expect("valid");
        for r in &batch.results {
            assert!(seen.insert(r.object), "object repeated across pages");
        }
        pages += 1;
        if batch.results.is_empty() {
            break;
        }
    }
    assert_eq!(seen.len(), total, "paging must cover every match");
}

#[test]
fn paged_and_oneshot_return_the_same_set() {
    let (mut index, query, total) = setup();
    let oneshot: std::collections::BTreeSet<_> = index
        .superset_search(&SupersetQuery::new(query.clone()))
        .expect("valid")
        .results
        .iter()
        .map(|r| r.object)
        .collect();
    assert_eq!(oneshot.len(), total);
    let mut session = CumulativeSearch::new(&index, query);
    let mut paged = std::collections::BTreeSet::new();
    while !session.is_finished() {
        let batch = session.next_batch(&index, 16).expect("valid");
        if batch.results.is_empty() && session.is_finished() {
            break;
        }
        paged.extend(batch.results.iter().map(|r| r.object));
    }
    assert_eq!(paged, oneshot);
}

#[test]
fn total_paged_cost_matches_oneshot_cost() {
    let (mut index, query, _) = setup();
    let oneshot_nodes = index
        .superset_search(&SupersetQuery::new(query.clone()))
        .expect("valid")
        .stats
        .nodes_contacted;
    let mut session = CumulativeSearch::new(&index, query);
    let mut paged_nodes = 0;
    while !session.is_finished() {
        let batch = session.next_batch(&index, 10).expect("valid");
        paged_nodes += batch.stats.nodes_contacted;
        if batch.results.is_empty() && session.is_finished() {
            break;
        }
    }
    // The session never re-contacts a node, so total cost equals the
    // one-shot traversal.
    assert_eq!(paged_nodes, oneshot_nodes);
}

#[test]
fn small_pages_contact_few_nodes_per_page() {
    let (index, query, _) = setup();
    let mut session = CumulativeSearch::new(&index, query);
    let first = session.next_batch(&index, 3).expect("valid");
    assert_eq!(first.results.len(), 3);
    // Popular query ⇒ the first page should come from a handful of
    // nodes, not the whole subcube.
    assert!(
        first.stats.nodes_contacted < 64,
        "first page contacted {} nodes",
        first.stats.nodes_contacted
    );
}

proptest::proptest! {
    /// Both walks are the one coordinator machine, so for any corpus,
    /// dimension and page size the concatenated pages are the one-shot
    /// top-down result list — same objects in the same order — and the
    /// pages contact, in total, exactly the nodes the one-shot search
    /// does.
    #[test]
    fn concatenated_pages_equal_the_oneshot_walk(seed in 0u64..64, page in 1usize..40) {
        let mut rng = hyperdex::simnet::rng::SimRng::new(seed);
        let r = 4 + rng.gen_range(6) as u8; // 4..=9
        let mut index = HypercubeIndex::new(r, seed).expect("valid r");
        for id in 0..(40 + rng.gen_index(160)) as u64 {
            let words: Vec<String> = (0..1 + rng.gen_index(4))
                .map(|_| format!("kw{}", rng.gen_index(12)))
                .collect();
            let k = KeywordSet::parse(&words.join(" ")).expect("valid words");
            index.insert(hyperdex::core::ObjectId::from_raw(id), k).expect("non-empty");
        }
        let query = KeywordSet::parse(&format!("kw{}", rng.gen_index(12))).expect("valid");

        let oneshot = index
            .superset_search(&SupersetQuery::new(query.clone()))
            .expect("valid");
        let mut session = CumulativeSearch::new(&index, query);
        let mut paged = Vec::new();
        let mut paged_nodes = 0;
        while !session.is_finished() {
            let batch = session.next_batch(&index, page).expect("valid");
            paged_nodes += batch.stats.nodes_contacted;
            paged.extend(batch.results);
        }
        proptest::prop_assert_eq!(&paged, &oneshot.results);
        proptest::prop_assert_eq!(paged_nodes, oneshot.stats.nodes_contacted);
    }
}

/// One seeded one-shot top-down search per row, pinned whole: `(r,
/// prune, threshold, query, [nodes_contacted, query_messages,
/// control_messages, result_messages, entries_scanned,
/// pruned_subtrees], exhausted, result count, FNV-1a of the result ids
/// in order)`; `cache_hit` is false and `rounds` 0 throughout. The
/// queries are the corpus's first and second words and the pair of its
/// first and third; a threshold of 5 binds on every one of them.
#[rustfmt::skip]
const ONESHOT_PINS: [OneshotPin; 24] = [
    (8, true, 5, 0, [3, 3, 2, 3, 8, 0], false, 5, 0x03e5664ce4e7fa16),
    (8, true, 5, 1, [5, 5, 4, 4, 9, 1], false, 5, 0xf4e7214d1ba35898),
    (8, true, 5, 2, [3, 3, 2, 2, 17, 0], false, 5, 0x43ab9c5b32d57f35),
    (8, true, ALL, 0, [124, 124, 123, 124, 1435, 0], true, 1159, 0x52e905009442b97b),
    (8, true, ALL, 1, [121, 121, 120, 120, 1329, 3], true, 742, 0x9bd63abbf9e57876),
    (8, true, ALL, 2, [63, 63, 62, 61, 935, 0], true, 312, 0x2f846d04572f4a2f),
    (8, false, 5, 0, [5, 5, 4, 3, 8, 0], false, 5, 0x03e5664ce4e7fa16),
    (8, false, 5, 1, [5, 5, 4, 4, 9, 0], false, 5, 0xf4e7214d1ba35898),
    (8, false, 5, 2, [3, 3, 2, 2, 17, 0], false, 5, 0x43ab9c5b32d57f35),
    (8, false, ALL, 0, [128, 128, 127, 124, 1436, 0], true, 1159, 0x52e905009442b97b),
    (8, false, ALL, 1, [128, 128, 127, 120, 1345, 0], true, 742, 0x9bd63abbf9e57876),
    (8, false, ALL, 2, [64, 64, 63, 61, 936, 0], true, 312, 0x2f846d04572f4a2f),
    (12, true, 5, 0, [3, 3, 2, 3, 5, 1], false, 5, 0x7f44983eea98cc63),
    (12, true, 5, 1, [5, 5, 4, 4, 12, 12], false, 5, 0x86afe1e2fff0cd29),
    (12, true, 5, 2, [3, 3, 2, 3, 14, 2], false, 5, 0x98a8ceb2d685f559),
    (12, true, ALL, 0, [786, 786, 785, 786, 1356, 684], true, 1159, 0x4c953c75a4f0cdf7),
    (12, true, ALL, 1, [549, 549, 548, 546, 987, 697], true, 742, 0x2e47558e52ee5cee),
    (12, true, ALL, 2, [275, 275, 274, 259, 543, 365], true, 312, 0x958a276eb4e876d3),
    (12, false, 5, 0, [3, 3, 2, 3, 5, 0], false, 5, 0x7f44983eea98cc63),
    (12, false, 5, 1, [8, 8, 7, 4, 15, 0], false, 5, 0x86afe1e2fff0cd29),
    (12, false, 5, 2, [4, 4, 3, 3, 15, 0], false, 5, 0x98a8ceb2d685f559),
    (12, false, ALL, 0, [2048, 2048, 2047, 786, 1492, 0], true, 1159, 0x4c953c75a4f0cdf7),
    (12, false, ALL, 1, [2048, 2048, 2047, 546, 1257, 0], true, 742, 0x2e47558e52ee5cee),
    (12, false, ALL, 2, [1024, 1024, 1023, 259, 790, 0], true, 312, 0x958a276eb4e876d3),
];

const ALL: usize = usize::MAX;

type OneshotPin = (u8, bool, usize, usize, [u64; 6], bool, usize, u64);

#[test]
fn oneshot_searches_keep_their_pinned_stats_and_results() {
    let corpus = Corpus::generate(&CorpusConfig::small_test(), 13);
    // The vocabulary's ranks 0, 1 and 2.
    let queries: [KeywordSet; 3] =
        ["kw000000", "kw000001", "kw000000 kw000002"].map(|q| KeywordSet::parse(q).expect("valid"));
    let mut indexes = [8u8, 12].map(|r| {
        let mut index = HypercubeIndex::new(r, 0).expect("valid");
        for (id, k) in corpus.indexable() {
            index.insert(id, k.clone()).expect("non-empty");
        }
        (r, index)
    });
    for (r, prune, t, q, counts, exhausted, len, digest) in ONESHOT_PINS {
        let (_, index) = indexes
            .iter_mut()
            .find(|(ir, _)| *ir == r)
            .expect("pinned r");
        let query = SupersetQuery::new(queries[q].clone())
            .threshold(t)
            .prune(prune);
        let out = index.superset_search(&query).expect("valid");
        let [nodes_contacted, query_messages, control_messages, result_messages, entries_scanned, pruned_subtrees] =
            counts;
        let stats = SearchStats {
            nodes_contacted,
            query_messages,
            control_messages,
            result_messages,
            entries_scanned,
            cache_hit: false,
            rounds: 0,
            pruned_subtrees,
        };
        let ids = out.results.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, res| {
            res.object
                .raw()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        });
        let row = format!("r {r}, prune {prune}, t {t}, query {q}");
        assert_eq!(out.stats, stats, "{row}");
        assert_eq!(out.exhausted, exhausted, "{row}");
        assert_eq!((out.results.len(), ids), (len, digest), "{row}");
    }
}

/// A session reports what it scanned on every page, so its pages add
/// up to the one-shot search's `entries_scanned` as they do to its
/// nodes contacted.
#[test]
fn paged_entries_scanned_sum_to_the_oneshot_count() {
    let (mut index, query, _) = setup();
    let oneshot = index
        .superset_search(&SupersetQuery::new(query.clone()))
        .expect("valid")
        .stats
        .entries_scanned;
    let mut session = CumulativeSearch::new(&index, query);
    let mut paged = 0;
    while !session.is_finished() {
        paged += session
            .next_batch(&index, 10)
            .expect("valid")
            .stats
            .entries_scanned;
    }
    assert!(oneshot > 0);
    assert_eq!(paged, oneshot);
}
