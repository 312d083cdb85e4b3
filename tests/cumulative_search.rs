//! Cumulative (paged) search integration over a realistic corpus.

use hyperdex::core::search::cumulative::CumulativeSearch;
use hyperdex::core::{HypercubeIndex, KeywordSet, SupersetQuery};
use hyperdex::workload::{Corpus, CorpusConfig};

fn setup() -> (HypercubeIndex, KeywordSet, usize) {
    let corpus = Corpus::generate(&CorpusConfig::small_test(), 13);
    let mut index = HypercubeIndex::new(10, 0).expect("valid");
    for (id, k) in corpus.indexable() {
        index.insert(id, k.clone()).expect("non-empty");
    }
    // The most popular word has many matches — good for paging.
    let query: KeywordSet = [hyperdex::workload::Vocabulary::new(3_000, 1.0).word(0)]
        .into_iter()
        .collect();
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
        .superset_search(&SupersetQuery::new(query.clone()).use_cache(false))
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
        .superset_search(&SupersetQuery::new(query.clone()).use_cache(false))
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
            .superset_search(&SupersetQuery::new(query.clone()).use_cache(false))
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
