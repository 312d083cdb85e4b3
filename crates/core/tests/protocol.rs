//! Property-based tests of the search protocol against brute force.
//!
//! Every test builds a random corpus from a small vocabulary (so keyword
//! sets overlap heavily), indexes it, and checks the protocol's results
//! against a straightforward scan of the corpus.

use hyperdex_core::search::{ExecutionMode, SupersetQuery, TraversalOrder};
use hyperdex_core::{HypercubeIndex, KeywordSet, ObjectId};
use proptest::prelude::*;

/// A corpus: object id → keyword set (1..=4 words from a 12-word
/// vocabulary), plus a query of 1..=3 words from the same vocabulary.
fn corpus_and_query() -> impl Strategy<Value = (Vec<Vec<u8>>, Vec<u8>)> {
    let word = 0u8..12;
    (
        prop::collection::vec(prop::collection::vec(word.clone(), 1..=4), 1..40),
        prop::collection::vec(word, 1..=3),
    )
}

fn to_set(words: &[u8]) -> KeywordSet {
    KeywordSet::from_strs(words.iter().map(|w| format!("word{w}"))).unwrap()
}

fn build_index(r: u8, corpus: &[Vec<u8>]) -> (HypercubeIndex, Vec<(ObjectId, KeywordSet)>) {
    let mut index = HypercubeIndex::new(r, 0).unwrap();
    let mut objects = Vec::new();
    for (i, words) in corpus.iter().enumerate() {
        let id = ObjectId::from_raw(i as u64);
        let set = to_set(words);
        index.insert(id, set.clone()).unwrap();
        objects.push((id, set));
    }
    (index, objects)
}

/// Brute-force ground truth: all objects whose keyword set contains the
/// query.
fn brute_force(objects: &[(ObjectId, KeywordSet)], query: &KeywordSet) -> Vec<ObjectId> {
    let mut hits: Vec<ObjectId> = objects
        .iter()
        .filter(|(_, k)| query.describes(k))
        .map(|(id, _)| *id)
        .collect();
    hits.sort_unstable();
    hits
}

fn sorted_objects(results: &[hyperdex_core::RankedObject]) -> Vec<ObjectId> {
    let mut ids: Vec<ObjectId> = results.iter().map(|r| r.object).collect();
    ids.sort_unstable();
    ids
}

proptest! {
    /// Exhaustive superset search returns exactly the describable set
    /// (Lemma 3.1 made executable).
    #[test]
    fn superset_search_is_complete((corpus, qwords) in corpus_and_query(), r in 4u8..10) {
        let (mut index, objects) = build_index(r, &corpus);
        let query = to_set(&qwords);
        let out = index
            .superset_search(&SupersetQuery::new(query.clone()))
            .unwrap();
        prop_assert!(out.exhausted);
        prop_assert_eq!(sorted_objects(&out.results), brute_force(&objects, &query));
    }

    /// All four protocol variants agree on the exhaustive result set.
    #[test]
    fn variants_agree((corpus, qwords) in corpus_and_query(), r in 4u8..9) {
        let (mut index, _) = build_index(r, &corpus);
        let query = to_set(&qwords);
        let base = SupersetQuery::new(query);
        let td = index.superset_search(&base.clone()).unwrap();
        let bu = index
            .superset_search(&base.clone().order(TraversalOrder::BottomUp))
            .unwrap();
        let lp = index
            .superset_search(&base.clone().mode(ExecutionMode::LevelParallel))
            .unwrap();
        let lpb = index
            .superset_search(
                &base
                    .order(TraversalOrder::BottomUp)
                    .mode(ExecutionMode::LevelParallel),
            )
            .unwrap();
        let expect = sorted_objects(&td.results);
        prop_assert_eq!(sorted_objects(&bu.results), expect.clone());
        prop_assert_eq!(sorted_objects(&lp.results), expect.clone());
        prop_assert_eq!(sorted_objects(&lpb.results), expect);
    }

    /// Threshold semantics: exactly min(t, |O_K|) results, and results
    /// are always describable by the query.
    #[test]
    fn threshold_respected(
        (corpus, qwords) in corpus_and_query(),
        r in 4u8..10,
        t in 1usize..10,
    ) {
        let (mut index, objects) = build_index(r, &corpus);
        let query = to_set(&qwords);
        let truth = brute_force(&objects, &query);
        let out = index
            .superset_search(&SupersetQuery::new(query.clone()).threshold(t))
            .unwrap();
        prop_assert_eq!(out.results.len(), t.min(truth.len()));
        for r in &out.results {
            prop_assert!(query.describes(&r.keyword_set));
            prop_assert_eq!(
                r.extra_keywords as usize,
                r.keyword_set.len() - query.len()
            );
        }
    }

    /// Nodes contacted never exceed the induced subcube size (§3.5's
    /// worst case), and a full traversal as published contacts exactly
    /// that many.
    #[test]
    fn nodes_contacted_bounded((corpus, qwords) in corpus_and_query(), r in 4u8..10) {
        let (mut index, _) = build_index(r, &corpus);
        let query = to_set(&qwords);
        let subcube_size = 1u64 << index.vertex_for(&query).zero_count();
        let out = index
            .superset_search(&SupersetQuery::new(query).prune(false))
            .unwrap();
        prop_assert_eq!(out.stats.nodes_contacted, subcube_size,
            "exhaustive search visits the whole subcube exactly once");
    }

    /// Pin search equals filtering the brute-force set to exact matches.
    #[test]
    fn pin_matches_brute_force((corpus, qwords) in corpus_and_query(), r in 4u8..10) {
        let (index, objects) = build_index(r, &corpus);
        let query = to_set(&qwords);
        let mut expected: Vec<ObjectId> = objects
            .iter()
            .filter(|(_, k)| *k == query)
            .map(|(id, _)| *id)
            .collect();
        expected.sort_unstable();
        let mut got = index.pin_search(&query).results;
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// A cached repeat of an exhaustive query contacts only the root and
    /// returns identical results.
    #[test]
    fn cache_serves_repeats((corpus, qwords) in corpus_and_query(), r in 4u8..9) {
        let (mut index, _) = build_index(r, &corpus);
        index.set_cache_capacity(1000);
        let query = to_set(&qwords);
        let first = index
            .superset_search(&SupersetQuery::new(query.clone()))
            .unwrap();
        let second = index
            .superset_search(&SupersetQuery::new(query))
            .unwrap();
        prop_assert!(!first.stats.cache_hit);
        prop_assert!(second.stats.cache_hit);
        prop_assert_eq!(second.stats.nodes_contacted, 1);
        prop_assert_eq!(
            sorted_objects(&second.results),
            sorted_objects(&first.results)
        );
    }

    /// Removing every object leaves nothing findable, and each removal
    /// touches exactly one node (the paper's single-lookup delete).
    #[test]
    fn insert_remove_symmetry((corpus, _q) in corpus_and_query(), r in 4u8..10) {
        let (mut index, objects) = build_index(r, &corpus);
        for (id, set) in &objects {
            index.remove(*id, set);
        }
        prop_assert!(index.is_empty());
        for (_, set) in &objects {
            prop_assert!(index.pin_search(set).results.is_empty());
        }
    }

    /// Lemma 3.2's ordering guarantee is about *tree depth* (a lower
    /// bound on extra keywords, exact when hashes don't collide): the
    /// SBT depth of top-down's first result never exceeds the depth of
    /// bottom-up's first result.
    #[test]
    fn order_preference((corpus, qwords) in corpus_and_query(), r in 5u8..9) {
        let (mut index, objects) = build_index(r, &corpus);
        let query = to_set(&qwords);
        if brute_force(&objects, &query).is_empty() {
            return Ok(());
        }
        let root = index.vertex_for(&query);
        let base = SupersetQuery::new(query).threshold(1);
        let td = index.superset_search(&base.clone()).unwrap();
        let bu = index
            .superset_search(&base.order(TraversalOrder::BottomUp))
            .unwrap();
        let depth_of = |res: &hyperdex_core::RankedObject| {
            index.vertex_for(&res.keyword_set).hamming(root)
        };
        let td_depth = depth_of(&td.results[0]);
        let bu_depth = depth_of(&bu.results[0]);
        prop_assert!(td_depth <= bu_depth,
            "top-down depth ({td_depth}) <= bottom-up depth ({bu_depth})");
        // Depth lower-bounds extra keywords (Lemma 3.2).
        for res in td.results.iter().chain(bu.results.iter()) {
            prop_assert!(res.extra_keywords >= depth_of(res));
        }
    }
}

/// Regression: a threshold-truncated result must never be cached as
/// exhaustive, even when the truncation happens on the final node or
/// level of the traversal.
#[test]
fn truncated_results_never_poison_the_cache() {
    use hyperdex_core::search::ExecutionMode;

    for mode in [ExecutionMode::Sequential, ExecutionMode::LevelParallel] {
        let mut index = HypercubeIndex::new(4, 0).unwrap();
        index.set_cache_capacity(16);
        // Ten objects sharing one keyword set: all matches live at the
        // single root vertex, so any traversal "completes" immediately.
        let k = KeywordSet::from_strs(["only"]).unwrap();
        for i in 0..10 {
            index.insert(ObjectId::from_raw(i), k.clone()).unwrap();
        }
        // First query truncates to 3 — must not be cached as complete.
        let small = index
            .superset_search(&SupersetQuery::new(k.clone()).threshold(3).mode(mode))
            .unwrap();
        assert_eq!(small.results.len(), 3);
        // Second query wants everything; a poisoned cache would return 3.
        let full = index
            .superset_search(&SupersetQuery::new(k.clone()).mode(mode))
            .unwrap();
        assert_eq!(
            full.results.len(),
            10,
            "mode {mode:?} lost matches via cache"
        );
    }
}

/// Regression: the per-root result cache is keyed by the keyword set
/// alone, so it may serve one walk only. At a binding threshold the
/// walks answer with different sets — top-down the most general
/// matches, bottom-up the most specific, level-parallel a whole level —
/// and whichever ran first must not answer for the others. The cache
/// serves the sequential top-down walk (§4's cache experiment); every
/// other walk runs uncached.
#[test]
fn the_result_cache_never_serves_one_walk_another_walks_answer() {
    const CORPUS: &[&str] = &["a", "a b", "a b c", "a c", "b c", "a d e", "x y", "a b d"];
    let walks = [
        (TraversalOrder::TopDown, ExecutionMode::Sequential),
        (TraversalOrder::BottomUp, ExecutionMode::Sequential),
        (TraversalOrder::TopDown, ExecutionMode::LevelParallel),
        (TraversalOrder::BottomUp, ExecutionMode::LevelParallel),
    ];
    let build = |capacity| {
        let mut index = HypercubeIndex::new(6, 0).unwrap();
        index.set_cache_capacity(capacity);
        for (i, words) in CORPUS.iter().enumerate() {
            let set = KeywordSet::parse(words).unwrap();
            index.insert(ObjectId::from_raw(i as u64 + 1), set).unwrap();
        }
        index
    };
    let query = |(order, mode)| {
        SupersetQuery::new(KeywordSet::parse("a").unwrap())
            .threshold(2)
            .order(order)
            .mode(mode)
    };
    let ids = |results: &[hyperdex_core::RankedObject]| -> Vec<u64> {
        results.iter().map(|r| r.object.raw()).collect()
    };
    let mut uncached = build(0);
    let want: Vec<Vec<u64>> = walks
        .iter()
        .map(|&walk| ids(&uncached.superset_search(&query(walk)).unwrap().results))
        .collect();
    assert_ne!(
        want[0], want[1],
        "t = 2 must bind: top-down and bottom-up differ"
    );

    for first in walks {
        for (second, want) in walks.iter().zip(&want) {
            let mut index = build(16);
            index.superset_search(&query(first)).unwrap();
            let got = index.superset_search(&query(*second)).unwrap();
            assert_eq!(&ids(&got.results), want, "{second:?} after {first:?}");
            let top_down = (TraversalOrder::TopDown, ExecutionMode::Sequential);
            assert_eq!(
                got.stats.cache_hit,
                first == top_down && *second == top_down,
                "{second:?} after {first:?}"
            );
        }
    }
}

proptest! {
    /// The lemma a runtime worker's region merge rests on (Lemma 3.2
    /// with the frontier's FIFO and `child_contacts`' descending
    /// dimensions): the order the sequential coordinator issues its
    /// visits in has a closed form, and cutting the subcube at any
    /// dimension leaves regions that each walk, on their own, exactly
    /// their share of that order.
    #[test]
    fn the_visit_order_has_a_closed_form_and_every_region_walks_its_share_of_it(
        r in 1u8..=12,
        root_bits in any::<u64>(),
        prefix_dims in 0u8..=4,
    ) {
        use std::collections::VecDeque;

        use hyperdex_core::protocol::{
            child_contacts, region_entries, visit_order_key, Step, SupersetCoordinator,
        };
        use hyperdex_hypercube::{Sbt, Shape, Vertex};

        let shape = Shape::new(r).unwrap();
        let vertex = |bits: u64| Vertex::from_bits(shape, bits).unwrap();
        let root = vertex(root_bits & shape.full_mask());

        let mut coord = SupersetCoordinator::new(root, usize::MAX - 1);
        let mut issued = Vec::new();
        while let Step::Visit { bits, via_dim } = coord.next_step() {
            issued.push(bits);
            coord.record_visit(0, child_contacts(vertex(bits), via_dim));
        }
        let mut sorted: Vec<u64> = root.subcube().iter().map(Vertex::bits).collect();
        sorted.sort_by_key(|&bits| visit_order_key(root.bits(), bits));
        prop_assert_eq!(&sorted, &issued);
        let bfs: Vec<u64> = Sbt::induced(root).bfs().map(|(v, _)| v.bits()).collect();
        prop_assert_eq!(&bfs, &issued);

        let cut = r - prefix_dims.min(r);
        let mut covered = Vec::new();
        for entry in region_entries(root, cut) {
            let mut walk = Vec::new();
            let mut queue = VecDeque::from([(entry, cut)]);
            while let Some((bits, via_dim)) = queue.pop_front() {
                walk.push(bits);
                queue.extend(child_contacts(vertex(bits), Some(via_dim)));
            }
            let share: Vec<u64> = issued
                .iter()
                .copied()
                .filter(|bits| bits >> cut == entry >> cut)
                .collect();
            prop_assert_eq!(&walk, &share, "region {:#b} cut at {}", entry, cut);
            covered.extend(walk);
        }
        // Every vertex of the subcube in exactly one region.
        covered.sort_unstable();
        sorted.sort_unstable();
        prop_assert_eq!(covered, sorted);
    }
}
