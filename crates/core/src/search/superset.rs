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
//! `run` dispatches to two walks. The sequential top-down search is
//! the first page of a [`CumulativeSearch`] (§2.2: the root keeps `U`
//! for later pages; a one-shot search simply never asks for one) — the
//! shared [`crate::protocol::SupersetCoordinator`] machine in a loop,
//! the one the simulator feeds with messages (a runtime worker walks
//! the subcube's prefix regions instead) — and is the one walk that
//! prunes. Every other (order, mode) is `by_levels`, which walks
//! [`Sbt::level`] depth by depth, as published. Every per-node scan is
//! the shared [`scan_store`], which ranks in the walk's order. No walk
//! consults a cache: Figure 9's caches sit in front of the index.
//!
//! Hot-path notes: the query's 64-bit keyword signature is computed
//! once per traversal and passed to every per-node scan (the prefilter
//! of [`crate::store`]); the frontier queue lives in the index and is
//! reused across queries instead of being reallocated per search.

use hyperdex_hypercube::{Sbt, Vertex};

use crate::cluster::HypercubeIndex;
use crate::error::Error;
use crate::keyword::KeywordSet;
use crate::protocol::scan_store;
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
    match (query.mode, query.order) {
        (ExecutionMode::Sequential, TraversalOrder::TopDown) => first_page(index, query, root),
        _ => Ok(by_levels(index, query, root)),
    }
}

/// The sequential top-down walk: a session's first page, walked on the
/// index's reusable frontier queue, moved out for the duration of the
/// search (the session borrows the index immutably).
fn first_page(
    index: &mut HypercubeIndex,
    query: &SupersetQuery,
    root: Vertex,
) -> Result<SupersetOutcome, Error> {
    let queue = std::mem::take(&mut index.frontier);
    let mut session = CumulativeSearch::open(index, query.keywords.clone(), query.prune, queue);
    let mut outcome = session.next_batch(index, query.threshold)?;
    // A threshold met beyond the root stopped the traversal early. Met
    // at the root itself, the result is exhaustive only if the root is
    // the whole subcube AND nothing is truncated away — a truncated
    // result set must never pass for a complete one.
    let found = outcome.results.len() + session.buffered();
    outcome.exhausted =
        found < query.threshold || (root.zero_count() == 0 && found == query.threshold);
    index.frontier = session.into_queue();
    Ok(outcome)
}

/// The level-order walks: whole tree levels, root first (top-down) or
/// deepest first (bottom-up — most-specific objects first).
///
/// Sequentially, one `T_QUERY` is outstanding at a time: each non-root
/// visit answers the root with a `T_CONT` / `T_STOP`, and the walk stops
/// at the node that fills `t`. In §3.5's parallel execution a level is
/// one round, queried at once: the walk stops after the round that
/// fills `t`, which may overshoot and is truncated.
fn by_levels(index: &HypercubeIndex, query: &SupersetQuery, root: Vertex) -> SupersetOutcome {
    let sequential = query.mode == ExecutionMode::Sequential;
    // The requester's T_QUERY reaches the root node.
    let mut stats = SearchStats {
        query_messages: 1,
        nodes_contacted: 1,
        ..SearchStats::default()
    };
    // Query signature, computed once for the whole traversal.
    let qsig = query.keywords.signature();
    let sbt = Sbt::induced(root);
    let height = sbt.height();
    let mut results = Vec::new();
    let mut exhausted = true;
    'rounds: for round in 0..=height {
        let depth = match query.order {
            TraversalOrder::TopDown => round,
            TraversalOrder::BottomUp => height - round,
        };
        stats.rounds += u32::from(!sequential);
        for w in sbt.level(depth) {
            // The root was already charged for receiving the query.
            if w != root {
                stats.query_messages += 1;
                stats.nodes_contacted += 1;
                stats.control_messages += u64::from(sequential);
            }
            scan_node(
                index,
                w.bits(),
                &query.keywords,
                qsig,
                query.order,
                &mut results,
                &mut stats,
            );
            if sequential && results.len() >= query.threshold {
                exhausted = false;
                break 'rounds;
            }
        }
        if results.len() >= query.threshold {
            // Exhausted only when every level was visited and nothing
            // was truncated.
            exhausted = round == height && results.len() == query.threshold;
            break;
        }
    }
    results.truncate(query.threshold);
    SupersetOutcome {
        results,
        stats,
        exhausted,
    }
}

/// One vertex's scan in the direct engine: [`scan_store`] into
/// `results`, with its entries and any result message counted.
pub(crate) fn scan_node(
    index: &HypercubeIndex,
    bits: u64,
    keywords: &KeywordSet,
    qsig: u64,
    order: TraversalOrder,
    results: &mut Vec<RankedObject>,
    stats: &mut SearchStats,
) -> usize {
    let store = index.store_at(bits);
    stats.entries_scanned += store.map_or(0, |store| store.keyword_set_count() as u64);
    let found = scan_store(store, keywords, qsig, order, usize::MAX, results);
    stats.result_messages += u64::from(found > 0);
    found
}
