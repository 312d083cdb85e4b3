//! End-to-end integration: corpus → DHT-backed service → search →
//! reference fetch, across crate boundaries.

use hyperdex::core::search::TraversalOrder;
use hyperdex::core::{KeywordSearchService, KeywordSet, SupersetQuery};
use hyperdex::workload::{Corpus, CorpusConfig};

fn service_with_corpus(objects: usize) -> (KeywordSearchService, Corpus, hyperdex::dht::NodeId) {
    let corpus = Corpus::generate(&CorpusConfig::small_test().with_objects(objects), 7);
    let mut svc = KeywordSearchService::builder()
        .nodes(48)
        .dimension(10)
        .seed(3)
        .build()
        .expect("valid configuration");
    let publisher = svc.random_node();
    for (id, keywords) in corpus.indexable() {
        svc.publish(publisher, id, keywords.clone())
            .expect("publishable");
    }
    (svc, corpus, publisher)
}

#[test]
fn every_published_object_is_pin_findable() {
    let (mut svc, corpus, _publisher) = service_with_corpus(300);
    let requester = svc.random_node();
    for record in corpus.records().iter().take(100) {
        let out = svc.pin_search(requester, &record.keywords);
        assert!(
            out.outcome.results.contains(&record.object_id()),
            "record {} not pin-findable under {}",
            record.id,
            record.keywords
        );
    }
}

#[test]
fn superset_search_finds_all_and_only_matches() {
    let (mut svc, corpus, _publisher) = service_with_corpus(300);
    let requester = svc.random_node();
    // Use each of the first few records' first keyword as a query.
    for record in corpus.records().iter().take(10) {
        let first_kw = record.keywords.iter().next().expect("non-empty");
        let query: KeywordSet = [first_kw].into_iter().collect();
        let out = svc
            .superset_search(requester, &SupersetQuery::new(query.clone()))
            .expect("valid query");
        let expected: std::collections::BTreeSet<_> = corpus
            .records()
            .iter()
            .filter(|r| r.keywords.is_superset(&query))
            .map(|r| r.object_id())
            .collect();
        let got: std::collections::BTreeSet<_> =
            out.outcome.results.iter().map(|r| r.object).collect();
        assert_eq!(got, expected, "query {query}");
    }
}

#[test]
fn search_results_lead_to_fetchable_references() {
    let (mut svc, corpus, _publisher) = service_with_corpus(100);
    let requester = svc.random_node();
    let record = &corpus.records()[0];
    let out = svc.pin_search(requester, &record.keywords);
    for obj in &out.outcome.results {
        let reference = svc
            .fetch_reference(requester, *obj)
            .expect("every indexed object has a reference");
        assert!(!reference.refs.is_empty());
    }
}

#[test]
fn withdraw_makes_objects_unfindable() {
    // Withdraw from the SAME node that published: references are
    // per-owner pairs (σ, u), so another node's withdraw is a no-op.
    let (mut svc, corpus, publisher) = service_with_corpus(50);
    for record in corpus.records().iter().take(20) {
        svc.withdraw(publisher, record.object_id(), &record.keywords);
    }
    let requester = svc.random_node();
    for record in corpus.records().iter().take(20) {
        let out = svc.pin_search(requester, &record.keywords);
        assert!(
            !out.outcome.results.contains(&record.object_id()),
            "withdrawn record {} still findable",
            record.id
        );
    }
}

#[test]
fn dht_hops_stay_logarithmic() {
    let (mut svc, corpus, _publisher) = service_with_corpus(100);
    let requester = svc.random_node();
    for record in corpus.records().iter().take(30) {
        let out = svc.pin_search(requester, &record.keywords);
        assert!(
            out.dht_hops <= 12,
            "pin search took {} hops on a 48-node ring",
            out.dht_hops
        );
    }
}

#[test]
fn bottom_up_returns_deepest_first_end_to_end() {
    let (mut svc, corpus, _publisher) = service_with_corpus(200);
    let requester = svc.random_node();
    let record = &corpus.records()[0];
    let first_kw = record.keywords.iter().next().expect("non-empty");
    let query: KeywordSet = [first_kw].into_iter().collect();
    let td = svc
        .superset_search(requester, &SupersetQuery::new(query.clone()))
        .expect("valid");
    let bu = svc
        .superset_search(
            requester,
            &SupersetQuery::new(query).order(TraversalOrder::BottomUp),
        )
        .expect("valid");
    // Same set, opposite preference.
    let td_set: std::collections::BTreeSet<_> =
        td.outcome.results.iter().map(|r| r.object).collect();
    let bu_set: std::collections::BTreeSet<_> =
        bu.outcome.results.iter().map(|r| r.object).collect();
    assert_eq!(td_set, bu_set);
}
