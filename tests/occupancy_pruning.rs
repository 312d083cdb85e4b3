//! Occupancy-guided SBT pruning, end to end: the pruned traversal
//! returns the unpruned result sequence while contacting strictly fewer
//! nodes on a realistic corpus, and the summaries track ground-truth
//! occupancy and signatures through inserts and deletes. Pruning is the
//! direct engine's sequential top-down walk's; its level-order walks
//! and the message-level protocol walk as published.

use std::collections::BTreeMap;

use hyperdex::core::keyword::WideSig;
use hyperdex::core::search::ExecutionMode;
use hyperdex::core::{
    HypercubeIndex, ObjectId, OccupancySummary, RankedObject, SupersetQuery, TraversalOrder,
};
use hyperdex::workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

/// Threshold of the benchmark's superset searches.
const T: usize = 20;

fn corpus() -> Corpus {
    Corpus::generate(&CorpusConfig::small_test().with_objects(1_500), 33)
}

#[test]
fn pruned_search_is_lossless_and_strictly_cheaper_on_a_corpus() {
    let corpus = corpus();
    let log = QueryLog::generate(&QueryLogConfig::small_test(), &corpus, 34);
    let mut index = HypercubeIndex::new(10, 7).expect("valid");
    for (id, k) in corpus.indexable() {
        index.insert(id, k.clone()).expect("non-empty");
    }

    let mut plain_nodes = 0u64;
    let mut pruned_nodes = 0u64;
    let mut subtrees_cut = 0u64;
    for (qi, q) in log.pool().iter().take(30).enumerate() {
        let base = SupersetQuery::new(q.clone());
        // The walk as published is the baseline the default is held
        // against.
        let plain = index
            .superset_search(&base.clone().prune(false))
            .expect("valid");
        let pruned = index.superset_search(&base).expect("valid");

        // Pruning skips only subtrees that hold no match, so the walk
        // meets the same matches in the same order.
        let want: Vec<_> = plain.results.iter().map(|r| r.object).collect();
        let got: Vec<_> = pruned.results.iter().map(|r| r.object).collect();
        assert_eq!(want, got, "query {qi} ({q}) changed its result sequence");
        // Every vertex holding a match is still contacted, and the walk
        // drains the subcube exactly when the published one does.
        assert_eq!(
            pruned.stats.result_messages, plain.stats.result_messages,
            "query {qi} ({q}) skipped a vertex holding a match"
        );
        assert_eq!(
            pruned.exhausted, plain.exhausted,
            "query {qi} ({q}) changed `exhausted`"
        );
        assert!(
            pruned.stats.nodes_contacted <= plain.stats.nodes_contacted,
            "query {qi} ({q}) got more expensive"
        );
        assert!(
            pruned.stats.entries_scanned <= plain.stats.entries_scanned,
            "query {qi} ({q}) scanned more entries"
        );
        plain_nodes += plain.stats.nodes_contacted;
        pruned_nodes += pruned.stats.nodes_contacted;
        subtrees_cut += pruned.stats.pruned_subtrees;
    }
    // 1024 vertices, ≤1500 objects: real queries must leave match-free
    // subtrees behind, and the summary must actually cut them.
    assert!(
        pruned_nodes < plain_nodes,
        "pruning saved nothing ({pruned_nodes} vs {plain_nodes})"
    );
    assert!(subtrees_cut > 0, "no subtree was ever pruned");
}

/// `prune` is the sequential top-down walk's flag: the level-order walks
/// (bottom-up, §3.5 level-parallel) run as published whatever it says —
/// the same results, the same `exhausted`, the same cost, and nothing
/// pruned — at a binding threshold and at none.
#[test]
fn level_order_walks_run_as_published_whatever_prune_says() {
    let corpus = corpus();
    let log = QueryLog::generate(&QueryLogConfig::small_test(), &corpus, 34);
    let mut index = HypercubeIndex::new(10, 7).expect("valid");
    for (id, k) in corpus.indexable() {
        index.insert(id, k.clone()).expect("non-empty");
    }

    let walks = [
        (TraversalOrder::BottomUp, ExecutionMode::Sequential),
        (TraversalOrder::TopDown, ExecutionMode::LevelParallel),
        (TraversalOrder::BottomUp, ExecutionMode::LevelParallel),
    ];
    for q in log.pool().iter().take(30) {
        for t in [T, usize::MAX] {
            for (order, mode) in walks {
                let query = SupersetQuery::new(q.clone())
                    .threshold(t)
                    .order(order)
                    .mode(mode);
                let pruned = index
                    .superset_search(&query.clone().prune(true))
                    .expect("valid");
                let published = index.superset_search(&query.prune(false)).expect("valid");
                let at = format!("{order:?} {mode:?}, t = {t}, {q}");
                let ids = |results: &[RankedObject]| -> Vec<ObjectId> {
                    results.iter().map(|r| r.object).collect()
                };
                assert_eq!(ids(&pruned.results), ids(&published.results), "{at}");
                assert_eq!(pruned.exhausted, published.exhausted, "{at}");
                assert_eq!(
                    pruned.stats.nodes_contacted, published.stats.nodes_contacted,
                    "{at}"
                );
                assert_eq!(pruned.stats.pruned_subtrees, 0, "{at}");
            }
        }
    }
}

/// The gate behind the product default, on the benchmark's shape (the
/// pchome corpus and query pool at r = 16, thinned to test size): the
/// default walk returns the as-published walk's result *sequence* at
/// t = 20 and t = all for every query of the pool, and over the pool
/// contacts at most `MAX_NODES_RATIO` of the nodes it does — on the
/// loaded index, and again after a round of removes and a crashed
/// vertex have moved the summary. Occupancy and position masks alone
/// leave 17–22 % of the walk at this shape; the regions' keyword
/// signatures bring it to 5–7 %.
#[test]
fn default_walk_is_the_published_walk_minus_match_free_subtrees_at_r16() {
    const MAX_NODES_RATIO: f64 = 0.12;
    let corpus = Corpus::generate(&CorpusConfig::pchome().with_objects(20_000), 2005);
    let mut log_cfg = QueryLogConfig::pchome_day().with_queries(1);
    log_cfg.distinct_pool = 60;
    let log = QueryLog::generate(&log_cfg, &corpus, 2005);
    let mut index = HypercubeIndex::new(16, 7).expect("valid");
    for (id, k) in corpus.indexable() {
        index.insert(id, k.clone()).expect("non-empty");
    }

    let check = |index: &mut HypercubeIndex, when: &str| {
        for t in [T, usize::MAX] {
            let (mut default_nodes, mut published_nodes) = (0, 0);
            for q in log.pool() {
                let query = SupersetQuery::new(q.clone()).threshold(t);
                let default = index.superset_search(&query).expect("valid");
                let published = index.superset_search(&query.prune(false)).expect("valid");
                assert_eq!(default.results, published.results, "{when}, t = {t}, {q}");
                assert_eq!(
                    default.exhausted, published.exhausted,
                    "{when}, t = {t}, {q}"
                );
                default_nodes += default.stats.nodes_contacted;
                published_nodes += published.stats.nodes_contacted;
            }
            let ratio = default_nodes as f64 / published_nodes as f64;
            assert!(
                ratio <= MAX_NODES_RATIO,
                "{when}, t = {t}: {default_nodes} nodes by default, {published_nodes} as published"
            );
        }
    };
    check(&mut index, "loaded");

    for (id, k) in corpus.indexable().step_by(3) {
        assert!(index.remove(id, k), "inserted object must be removable");
    }
    let (busiest, _) = index
        .node_loads()
        .into_iter()
        .max_by_key(|&(v, load)| (load, v.bits()))
        .expect("objects remain");
    assert!(index.drop_node(busiest) > 0);
    check(&mut index, "after removes and a crash");
}

#[test]
fn summaries_track_ground_truth_occupancy_through_deletes() {
    let corpus = corpus();
    let mut index = HypercubeIndex::new(10, 7).expect("valid");
    let mut inserted = Vec::new();
    for (id, k) in corpus.indexable() {
        index.insert(id, k.clone()).expect("non-empty");
        inserted.push((id, k.clone()));
    }
    // Delete every third object again.
    let mut live: BTreeMap<u64, WideSig> = BTreeMap::new();
    let mut survivors = 0;
    for (i, (id, k)) in inserted.iter().enumerate() {
        if i % 3 == 0 {
            assert!(index.remove(*id, k), "inserted object must be removable");
        } else {
            let sig = live.entry(index.vertex_for(k).bits()).or_default();
            *sig = *sig | k.wide_signature();
            survivors += 1;
        }
    }
    assert_eq!(index.len(), survivors, "total drifted");

    // A summary is a function of its per-vertex signatures, so it
    // equals one built from the survivors alone: every vertex and
    // region matches, no remove left a region behind that would never
    // prune, and no killed slot left its signature bits behind.
    let mut truth = OccupancySummary::new(10);
    for (&bits, &sig) in &live {
        truth.set_vertex(bits, sig);
    }
    assert_eq!(*index.summary(), truth, "summary drifted from ground truth");
}
