//! The superset-search protocol (§3.3) and its variants.
//!
//! The sequential top-down protocol is implemented exactly as published:
//! the root `F_h(K)` keeps a frontier queue `U` of `(node, dimension)`
//! pairs and a remaining-count `c`; one `T_QUERY` is outstanding at a
//! time; a contacted node `w` reached via dimension `d` scans its table
//! for entries `K' ⊇ K`, sends matches directly to the requester, and
//! answers the root with `T_STOP` (done) or `T_CONT` carrying its child
//! list `{(x, i) | i < d ∧ i ∈ Zero(w)}`.
//!
//! Variants: bottom-up (deepest tree levels first — most-specific
//! objects first), and level-parallel (§3.5 — whole tree levels queried
//! per round, time `r − |One(F_h(K))|` instead of `2^{r−|One|}`).
//!
//! The sequential top-down search is the first page of a
//! [`CumulativeSearch`] (§2.2: the root keeps `U` for later pages; a
//! one-shot search simply never asks for one) — the shared
//! [`crate::protocol::SupersetCoordinator`] machine in a loop, the one
//! the simulator feeds with messages (a runtime worker walks the
//! subcube's prefix regions instead) — and is the one walk that prunes
//! and the one the per-root result cache serves; the level-order
//! variants walk [`Sbt::level`] depth by depth, as published; every
//! per-node scan is the shared [`scan_store`], ranked by
//! [`crate::ranking`].
//!
//! Hot-path notes: the query's 64-bit keyword signature is computed
//! once per traversal and passed to every per-node scan (the prefilter
//! of [`crate::store`]); the frontier queue lives in the index and is
//! reused across queries instead of being reallocated per search.

use std::sync::Arc;

use hyperdex_hypercube::{Sbt, Vertex};

use crate::cluster::HypercubeIndex;
use crate::error::Error;
use crate::protocol::scan_store;
use crate::ranking::{prefer_general, prefer_specific};
use crate::search::cumulative::CumulativeSearch;
use crate::search::{
    ExecutionMode, RankedObject, SearchStats, SupersetOutcome, SupersetQuery, TraversalOrder,
};

/// Runs a superset search against a logical hypercube index.
pub(crate) fn run(
    index: &mut HypercubeIndex,
    query: &SupersetQuery,
) -> Result<SupersetOutcome, Error> {
    query.validate()?;
    let root = index.vertex_for(&query.keywords);
    let mut stats = SearchStats::default();

    // The requester's T_QUERY reaches the root node.
    stats.query_messages += 1;
    stats.nodes_contacted += 1;

    // Query signature, computed once for the whole traversal.
    let qsig = query.keywords.signature();
    match (query.mode, query.order) {
        (ExecutionMode::Sequential, TraversalOrder::TopDown) => {
            cached_top_down(index, query, root, stats)
        }
        (ExecutionMode::Sequential, TraversalOrder::BottomUp) => {
            Ok(by_levels(index, query, qsig, root, stats))
        }
        (ExecutionMode::LevelParallel, _) => Ok(level_parallel(index, query, qsig, root, stats)),
    }
}

/// The sequential top-down walk behind the root's result cache (§4).
/// The cache is keyed by the keyword set alone, so it holds this walk's
/// answers only: at a binding threshold every other walk answers with
/// a different set, and runs uncached. `stats` has the root charged,
/// which is what a cache hit costs; a walk charges its own visits.
fn cached_top_down(
    index: &mut HypercubeIndex,
    query: &SupersetQuery,
    root: Vertex,
    mut stats: SearchStats,
) -> Result<SupersetOutcome, Error> {
    // An exhaustive entry serves any threshold; a partial entry serves
    // thresholds it covers.
    if let Some(cache) = index.cache_mut(root) {
        if let Some(cached) = cache.lookup(&query.keywords, query.threshold) {
            let exhausted = cached.exhausted && cached.results.len() <= query.threshold;
            let results: Vec<RankedObject> = cached
                .results
                .iter()
                .take(query.threshold)
                .cloned()
                .collect();
            stats.cache_hit = true;
            stats.result_messages += 1;
            return Ok(SupersetOutcome {
                results,
                stats,
                exhausted,
            });
        }
    }

    // A miss is a session's first page, walked on the index's reusable
    // frontier queue, moved out for the duration of the search (the
    // session borrows the index immutably).
    let queue = std::mem::take(&mut index.frontier);
    let mut session = CumulativeSearch::open(index, query.keywords.clone(), query.prune, queue);
    let mut outcome = session.next_batch(index, query.threshold)?;
    // A threshold met beyond the root stopped the traversal early. Met
    // at the root itself, the result is exhaustive only if the root is
    // the whole subcube AND nothing is truncated away — a truncated
    // result set must never be cached as complete.
    let found = outcome.results.len() + session.buffered();
    outcome.exhausted =
        found < query.threshold || (root.zero_count() == 0 && found == query.threshold);
    index.frontier = session.into_queue();

    // Cache the traversal's results; the exhausted flag records whether
    // they can serve any threshold or only covered ones. The result vec
    // moves into the cache instead of being deep-copied: the caller's
    // copy is rebuilt (bounded by the threshold — traversals truncate)
    // only when the cache actually kept the entry, and moves back for
    // free when it declined.
    if let Some(cache) = index.cache_mut(root) {
        let shared = Arc::new(std::mem::take(&mut outcome.results));
        cache.put(
            query.keywords.clone(),
            Arc::clone(&shared),
            outcome.exhausted,
        );
        outcome.results = Arc::try_unwrap(shared)
            .unwrap_or_else(|kept| kept.iter().take(query.threshold).cloned().collect());
    }
    Ok(outcome)
}

/// Sequential bottom-up traversal by whole tree levels, deepest first
/// (most-specific objects first).
fn by_levels(
    index: &HypercubeIndex,
    query: &SupersetQuery,
    qsig: u64,
    root: Vertex,
    mut stats: SearchStats,
) -> SupersetOutcome {
    let sbt = Sbt::induced(root);
    let mut results = Vec::new();
    for depth in (0..=sbt.height()).rev() {
        for w in sbt.level(depth) {
            // The root was already charged for receiving the query.
            if w != root {
                stats.query_messages += 1;
                stats.nodes_contacted += 1;
                stats.control_messages += 1; // T_CONT / T_STOP ack
            }
            scan_node(index, w, query, qsig, &mut results, &mut stats);
            if results.len() >= query.threshold {
                results.truncate(query.threshold);
                return SupersetOutcome {
                    results,
                    stats,
                    exhausted: false,
                };
            }
        }
    }
    SupersetOutcome {
        results,
        stats,
        exhausted: true,
    }
}

/// §3.5's parallel execution: tree levels are queried in rounds; the
/// search stops after the first round that satisfies the threshold.
fn level_parallel(
    index: &HypercubeIndex,
    query: &SupersetQuery,
    qsig: u64,
    root: Vertex,
    mut stats: SearchStats,
) -> SupersetOutcome {
    let sbt = Sbt::induced(root);
    let height = sbt.height();
    let mut results = Vec::new();
    for round in 0..=height {
        let depth = match query.order {
            TraversalOrder::TopDown => round,
            TraversalOrder::BottomUp => height - round,
        };
        stats.rounds += 1;
        // All level-d nodes are queried simultaneously; results within a
        // round may overshoot the threshold and are truncated afterwards.
        for w in sbt.level(depth) {
            if w != root {
                stats.query_messages += 1;
                stats.nodes_contacted += 1;
            }
            scan_node(index, w, query, qsig, &mut results, &mut stats);
        }
        if results.len() >= query.threshold {
            // Exhausted only when every level was visited and nothing
            // was truncated.
            let exhausted = round == height && results.len() == query.threshold;
            results.truncate(query.threshold);
            return SupersetOutcome {
                results,
                stats,
                exhausted,
            };
        }
    }
    SupersetOutcome {
        results,
        stats,
        exhausted: true,
    }
}

/// One node's table scan: every entry `K' ⊇ K` (signature prefilter
/// first, string comparison second), ranked locally by extra-keyword
/// count (ascending for top-down preference, descending for bottom-up),
/// appended to `results`. Returns how many it found.
fn scan_node(
    index: &HypercubeIndex,
    vertex: Vertex,
    query: &SupersetQuery,
    qsig: u64,
    results: &mut Vec<RankedObject>,
    stats: &mut SearchStats,
) -> usize {
    let store = index.store_at(vertex);
    if let Some(store) = store {
        stats.entries_scanned += store.keyword_set_count() as u64;
    }
    let start = results.len();
    let found = scan_store(store, &query.keywords, qsig, usize::MAX, results);
    match query.order {
        TraversalOrder::TopDown => prefer_general(&mut results[start..]),
        TraversalOrder::BottomUp => prefer_specific(&mut results[start..]),
    }
    if found > 0 {
        stats.result_messages += 1;
    }
    found
}
