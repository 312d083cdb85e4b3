//! Baseline comparisons: the hypercube scheme vs. the distributed
//! inverted index — result equivalence and the cost/load asymmetries
//! the paper claims.

use hyperdex::core::baseline::DistributedInvertedIndex;
use hyperdex::core::{HypercubeIndex, KeywordSet, SupersetQuery};
use hyperdex::workload::stats::gini;
use hyperdex::workload::{Corpus, CorpusConfig};

fn corpus() -> Corpus {
    Corpus::generate(&CorpusConfig::small_test(), 9)
}

fn build_both(corpus: &Corpus, r: u8) -> (HypercubeIndex, DistributedInvertedIndex) {
    let mut cube = HypercubeIndex::new(r, 0).expect("valid");
    let mut dii = DistributedInvertedIndex::new(r, 0).expect("valid");
    for (id, k) in corpus.indexable() {
        cube.insert(id, k.clone()).expect("non-empty");
        dii.insert(id, k);
    }
    (cube, dii)
}

#[test]
fn both_schemes_answer_conjunctive_queries_identically() {
    let corpus = corpus();
    let (mut cube, dii) = build_both(&corpus, 10);
    for record in corpus.records().iter().take(20) {
        // Query: the first two keywords of the record.
        let query: KeywordSet = record.keywords.iter().take(2).collect();
        let mut cube_hits: Vec<_> = cube
            .superset_search(&SupersetQuery::new(query.clone()))
            .expect("valid")
            .results
            .iter()
            .map(|r| r.object)
            .collect();
        cube_hits.sort_unstable();
        let mut dii_hits = dii.query(&query).results;
        dii_hits.sort_unstable();
        assert_eq!(cube_hits, dii_hits, "query {query}");
    }
}

#[test]
fn insert_cost_one_vs_k() {
    let corpus = corpus();
    let r = 10u8;
    let mut dii = DistributedInvertedIndex::new(r, 0).expect("valid");
    let mut total_dii_cost = 0usize;
    let mut total_keywords = 0usize;
    for (id, k) in corpus.indexable().take(500) {
        total_dii_cost += dii.insert(id, k);
        total_keywords += k.len();
    }
    assert_eq!(
        total_dii_cost, total_keywords,
        "DII pays one node update per keyword"
    );
    // The hypercube pays exactly one node per object, by construction:
    // insert() returns the single vertex.
    let mut cube = HypercubeIndex::new(r, 0).expect("valid");
    for (id, k) in corpus.indexable().take(500) {
        cube.insert(id, k.clone()).expect("non-empty");
    }
    // 500 objects → at most 500 touched vertices, exactly one entry
    // each.
    let loads = cube.node_loads();
    assert!(loads.len() <= 500);
    assert_eq!(loads.iter().map(|&(_, l)| l).sum::<usize>(), 500);
}

#[test]
fn storage_redundancy_k_fold_for_dii() {
    let corpus = corpus();
    let (cube, dii) = build_both(&corpus, 10);
    let cube_storage: usize = cube.node_loads().iter().map(|&(_, l)| l).sum();
    assert_eq!(cube_storage, corpus.len(), "one entry per object");
    let mean_k = corpus.mean_keywords_per_object();
    // The redundant storage the paper charges the DII for: one posting
    // per keyword of every object.
    let dii_storage: usize = dii.node_loads().iter().map(|&(_, l)| l).sum();
    let ratio = dii_storage as f64 / cube_storage as f64;
    assert!(
        (ratio - mean_k).abs() < 0.5,
        "DII storage should be ≈{mean_k:.1}× ({ratio:.1}× measured)"
    );
}

#[test]
fn load_balance_hypercube_beats_dii() {
    let corpus = corpus();
    let (cube, dii) = build_both(&corpus, 10);
    let cube_loads: Vec<usize> = cube.node_loads().iter().map(|&(_, l)| l).collect();
    let dii_loads: Vec<usize> = dii.node_loads().iter().map(|&(_, l)| l).collect();
    let cube_gini = gini(&cube_loads, 1 << 10);
    let dii_gini = gini(&dii_loads, 1 << 10);
    assert!(
        cube_gini + 0.1 < dii_gini,
        "hypercube gini {cube_gini:.3} should beat DII gini {dii_gini:.3}"
    );
}

#[test]
fn dii_hot_spot_single_node_per_keyword() {
    // The paper's availability argument: in DII one node owns each
    // keyword; in the hypercube the keyword's objects spread.
    let corpus = corpus();
    let (cube, dii) = build_both(&corpus, 10);
    // Most popular keyword (the vocabulary's rank 0):
    let query = KeywordSet::parse("kw000000").expect("one keyword");
    // DII: every posting for it lives on ONE node.
    let out = dii.query(&query);
    assert_eq!(out.stats.nodes_contacted, 1);
    // Hypercube: the same objects are indexed across many vertices.
    let holding_vertices = cube
        .node_loads()
        .iter()
        .filter(|&&(v, _)| {
            // Vertex indexes at least one object containing the keyword iff it
            // is in the query's subcube and has a matching entry — cheap
            // proxy: subcube membership.
            v.contains(cube.vertex_for(&query))
        })
        .count();
    assert!(
        holding_vertices > 10,
        "hypercube spreads the keyword over {holding_vertices} vertices"
    );
}
