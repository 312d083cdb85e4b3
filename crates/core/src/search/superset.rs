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
//! The sequential top-down traversal is a plain loop around the shared
//! [`SupersetCoordinator`] state machine — the same one the simulator
//! feeds with messages (a runtime worker walks the subcube's prefix
//! regions instead); the level-order variants walk this module's
//! per-depth frontier, full or summary-pruned; every per-node scan is
//! the shared [`scan_store`], ranked by [`crate::ranking`].
//!
//! Hot-path notes: the query's 64-bit keyword signature is computed
//! once per traversal and passed to every per-node scan (the prefilter
//! of [`crate::index`]); the frontier queue lives in the index and is
//! reused across queries instead of being reallocated per search.

use std::collections::VecDeque;
use std::sync::Arc;

use hyperdex_hypercube::{Sbt, Vertex};

use crate::cluster::HypercubeIndex;
use crate::error::Error;
use crate::protocol::{child_contacts, scan_store, Step, SupersetCoordinator};
use crate::ranking::{prefer_general, prefer_specific};
use crate::search::{
    ExecutionMode, RankedObject, SearchStats, SupersetOutcome, SupersetQuery, TraversalOrder,
};
use crate::summary::{OccupancySummary, Pruner};

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

    // Cache check at the root. An exhaustive entry serves any
    // threshold; a partial entry serves thresholds it covers.
    if query.use_cache {
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
    }

    // Query signature, computed once for the whole traversal.
    let qsig = query.keywords.signature();

    // The reusable frontier queue, moved out for the duration of the
    // search (the traversals borrow the index immutably).
    let mut frontier = std::mem::take(&mut index.frontier);
    let bottom_up = query.order == TraversalOrder::BottomUp;
    let mut outcome = match (query.mode, bottom_up) {
        (ExecutionMode::Sequential, false) => {
            sequential_top_down(index, query, qsig, root, stats, &mut frontier)
        }
        (ExecutionMode::Sequential, true) => by_levels(index, query, qsig, root, stats),
        (ExecutionMode::LevelParallel, _) => level_parallel(index, query, qsig, root, stats),
    };
    index.frontier = frontier;

    // Cache the traversal's results; the exhausted flag records whether
    // they can serve any threshold or only covered ones. The result vec
    // moves into the cache instead of being deep-copied: the caller's
    // copy is rebuilt (bounded by the threshold — traversals truncate)
    // only when the cache actually kept the entry, and moves back for
    // free when it declined.
    if query.use_cache {
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
    }
    Ok(outcome)
}

/// The paper's sequential top-down protocol: the shared coordinator
/// machine, every `T_QUERY` a local scan. With pruning on, children
/// whose occupancy digest disproves any match (empty region, or
/// keyword-position mask not covering `One(F_h(K))`) never enter the
/// frontier.
fn sequential_top_down(
    index: &HypercubeIndex,
    query: &SupersetQuery,
    qsig: u64,
    root: Vertex,
    mut stats: SearchStats,
    frontier: &mut VecDeque<(u64, u8)>,
) -> SupersetOutcome {
    let mut pruner = query.prune.then(|| index.summary().pruner(root.bits()));
    let mut coord =
        SupersetCoordinator::with_queue(root, query.threshold, std::mem::take(frontier));
    let mut results = Vec::new();
    let mut beyond_root = false;
    while let Step::Visit { bits, via_dim } = coord.next_step() {
        let w = Vertex::from_bits(root.shape(), bits).expect("coordinator stays in the cube");
        // The root was already charged for receiving the query and
        // answers nobody; every other node costs a T_QUERY and answers
        // the root with T_CONT or T_STOP.
        if via_dim.is_some() {
            beyond_root = true;
            stats.query_messages += 1;
            stats.nodes_contacted += 1;
            stats.control_messages += 1;
        }
        let found = scan_node(index, w, query, qsig, &mut results, &mut stats);
        let children = unpruned_children(pruner.as_mut(), (w, via_dim), &mut stats.pruned_subtrees);
        coord.record_visit(found, children);
    }
    *frontier = coord.into_queue();

    // A threshold met beyond the root stopped the traversal early. Met
    // at the root itself, the result is exhaustive only if the root is
    // the whole subcube AND nothing is truncated away — a truncated
    // result set must never be cached as complete.
    let exhausted = results.len() < query.threshold
        || (!beyond_root && root.zero_count() == 0 && results.len() == query.threshold);
    results.truncate(query.threshold);
    SupersetOutcome {
        results,
        stats,
        exhausted,
    }
}

/// The child contacts a top-down walk still owes a visit after `w`
/// (reached via `via_dim`): all of them as published; with a `pruner`,
/// those whose subtree the occupancy summary cannot prove free of
/// matches, the rest counted in `pruned`. The one-shot and the paged
/// walk both enumerate through here, so they visit the same nodes.
pub(crate) fn unpruned_children(
    pruner: Option<&mut Pruner<'_>>,
    (w, via_dim): (Vertex, Option<u8>),
    pruned: &mut u64,
) -> impl Iterator<Item = (u64, u8)> {
    let cut = pruner.map_or(0, |pruner| {
        let below = (1u64 << via_dim.unwrap_or(w.shape().r())) - 1;
        pruner.prunable_dims(w.bits(), w.zero_mask() & below)
    });
    *pruned += u64::from(cut.count_ones());
    child_contacts(w, via_dim).filter(move |&(_, dim)| cut >> dim & 1 == 0)
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
    let mut levels = FrontierLevels::new(index.summary(), root, query.prune, true);
    let mut results = Vec::new();
    let mut stopped_early = false;
    'outer: while let Some(level) = levels.next_level() {
        for w in level {
            // The root was already charged for receiving the query.
            if w != root {
                stats.query_messages += 1;
                stats.nodes_contacted += 1;
                stats.control_messages += 1; // T_CONT / T_STOP ack
            }
            scan_node(index, w, query, qsig, &mut results, &mut stats);
            if results.len() >= query.threshold {
                results.truncate(query.threshold);
                stopped_early = true;
                break 'outer;
            }
        }
    }
    stats.pruned_subtrees += levels.drain();
    SupersetOutcome {
        results,
        stats,
        exhausted: !stopped_early,
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
    let bottom_up = query.order == TraversalOrder::BottomUp;
    let mut levels = FrontierLevels::new(index.summary(), root, query.prune, bottom_up);
    let mut results = Vec::new();
    let mut stopped_early = false;
    while let Some(level) = levels.next_level() {
        stats.rounds += 1;
        // All level-d nodes are queried simultaneously; results within a
        // round may overshoot the threshold and are truncated afterwards.
        for &w in &level {
            if w != root {
                stats.query_messages += 1;
                stats.nodes_contacted += 1;
            }
            scan_node(index, w, query, qsig, &mut results, &mut stats);
        }
        if results.len() >= query.threshold {
            // Exhausted only when every level was visited AND nothing
            // was truncated (a truncated set must not be cached as
            // complete).
            stopped_early = !levels.is_done() || results.len() > query.threshold;
            results.truncate(query.threshold);
            break;
        }
    }
    stats.pruned_subtrees += levels.drain();
    SupersetOutcome {
        results,
        stats,
        exhausted: !stopped_early,
    }
}

/// The per-depth frontier of the level-order traversals (bottom-up,
/// §3.5 level-parallel) over the SBT induced by a query root.
///
/// [`FrontierLevels::next_level`] yields one `Vec<Vertex>` per tree
/// depth in visit order, holding one level at a time:
///
/// * **Full** levels enumerate [`Sbt::level`] (subset order) lazily in
///   either direction — nothing beyond the current level is touched,
///   so a search that exits at depth 2 of an `r = 20` cube never
///   allocates the million-vertex tail.
/// * **Pruned** levels run the wave expansion under the occupancy
///   summary (protocol child order, summary-disproven subtrees
///   skipped), holding only the current wave.
/// * **Pruned bottom-up** is the one combination that materializes the
///   tree (at construction): the wave expansion is inherently
///   top-down, and deepest-first visiting needs its last wave first.
///
/// Early exits may leave a pruned expansion mid-tree;
/// [`FrontierLevels::drain`] finishes it for the exact pruned-subtree
/// count (the summary lookups still run, but no vertex is scanned).
#[derive(Debug)]
struct FrontierLevels<'a> {
    /// Consulted by the pruned variants only.
    summary: &'a OccupancySummary,
    source: LevelSource,
    /// `One(F_h(K))` — the positions every match must cover, which the
    /// pruning test checks the summary against.
    required: u64,
    /// Subtrees pruned so far.
    pruned: u64,
    /// Whether the last yielded level was the final one.
    done: bool,
}

#[derive(Debug)]
enum LevelSource {
    /// Unpruned: direct per-depth enumeration of the induced SBT.
    Full {
        sbt: Sbt,
        /// Next depth to yield.
        depth: u32,
        /// Deepest level first.
        bottom_up: bool,
    },
    /// Pruned top-down: the live wave, each node with its arrival
    /// dimension so its children enumerate as [`child_contacts`] would.
    Wave(Vec<(Vertex, Option<u8>)>),
    /// Pruned bottom-up: every level, expanded up front (shallowest
    /// first; yielded from the back).
    Reversed(Vec<Vec<Vertex>>),
}

impl<'a> FrontierLevels<'a> {
    /// The levels of the SBT induced by `root`: deepest first when
    /// `bottom_up`, with subtrees `summary` disproves left out when
    /// `prune`.
    fn new(summary: &'a OccupancySummary, root: Vertex, prune: bool, bottom_up: bool) -> Self {
        let required = root.bits();
        let mut pruned = 0;
        let source = match (prune, bottom_up) {
            (false, _) => {
                let sbt = Sbt::induced(root);
                LevelSource::Full {
                    sbt,
                    depth: if bottom_up { sbt.height() } else { 0 },
                    bottom_up,
                }
            }
            (true, false) => LevelSource::Wave(vec![(root, None)]),
            (true, true) => {
                let (mut wave, mut levels) = (vec![(root, None)], Vec::new());
                while !wave.is_empty() {
                    levels.push(advance_wave(&mut wave, summary, required, &mut pruned));
                }
                LevelSource::Reversed(levels)
            }
        };
        FrontierLevels {
            summary,
            source,
            required,
            pruned,
            done: false,
        }
    }

    /// Whether every level has been yielded (i.e. the last yield was
    /// the final one) — distinguishes "stopped early" from "exhausted"
    /// without knowing the level count up front.
    fn is_done(&self) -> bool {
        self.done
    }

    /// Runs whatever is left of the expansion without yielding and
    /// returns how many subtrees the whole tree's expansion pruned (0
    /// on the full paths) — exact even after an early exit.
    fn drain(&mut self) -> u64 {
        while self.next_level().is_some() {}
        self.pruned
    }

    /// The next level in visit order, or `None` once every level was
    /// yielded.
    fn next_level(&mut self) -> Option<Vec<Vertex>> {
        if self.done {
            return None;
        }
        match &mut self.source {
            LevelSource::Full {
                sbt,
                depth,
                bottom_up,
            } => {
                let level: Vec<Vertex> = sbt.level(*depth).collect();
                let last = if *bottom_up { 0 } else { sbt.height() };
                if *depth == last {
                    self.done = true;
                } else if *bottom_up {
                    *depth -= 1;
                } else {
                    *depth += 1;
                }
                Some(level)
            }
            LevelSource::Wave(wave) => {
                let level = advance_wave(wave, self.summary, self.required, &mut self.pruned);
                self.done = wave.is_empty();
                Some(level)
            }
            LevelSource::Reversed(levels) => {
                let level = levels.pop();
                self.done = levels.is_empty();
                level
            }
        }
    }
}

/// Yields the current wave's vertices and replaces the wave with the
/// children the summary cannot disprove, counting the rest in `pruned`.
fn advance_wave(
    wave: &mut Vec<(Vertex, Option<u8>)>,
    summary: &OccupancySummary,
    required: u64,
    pruned: &mut u64,
) -> Vec<Vertex> {
    let mut next = Vec::new();
    for &(w, via) in wave.iter() {
        for (child, dim) in child_contacts(w, via) {
            if summary.can_prune(child, dim, required) {
                *pruned += 1;
            } else {
                next.push((w.flip(dim), Some(dim)));
            }
        }
    }
    let level = wave.iter().map(|&(v, _)| v).collect();
    *wave = next;
    level
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

#[cfg(test)]
mod tests {
    use hyperdex_hypercube::Shape;

    use super::*;

    #[test]
    fn frontier_levels_agree_across_directions_and_pruning() {
        let shape = Shape::new(6).unwrap();
        let root = Vertex::from_bits(shape, 0b000001).unwrap();
        let mut summary = OccupancySummary::new(6);
        for bits in [0b000101, 0b010111, 0b100001] {
            summary.record_insert(bits);
        }
        let collect = |prune, bottom_up| {
            let mut levels = FrontierLevels::new(&summary, root, prune, bottom_up);
            let mut out = Vec::new();
            while let Some(level) = levels.next_level() {
                out.push(level);
            }
            assert!(levels.is_done());
            (out, levels.drain())
        };
        let (full, none) = collect(false, false);
        assert_eq!(none, 0);
        assert_eq!(full.iter().map(Vec::len).sum::<usize>(), 1 << 5);
        let (mut full_up, _) = collect(false, true);
        full_up.reverse();
        assert_eq!(full_up, full, "bottom-up is the same levels, deepest first");

        let (pruned, cut) = collect(true, false);
        assert!(cut > 0, "the sparse summary must disprove something");
        assert!(pruned.iter().map(Vec::len).sum::<usize>() < 1 << 5);
        for occupied in [0b000101u64, 0b010111, 0b100001] {
            assert!(pruned.iter().flatten().any(|v| v.bits() == occupied));
        }
        let (mut pruned_up, cut_up) = collect(true, true);
        pruned_up.reverse();
        assert_eq!((pruned_up, cut_up), (pruned, cut));

        // An early exit leaves the expansion mid-tree; drain finishes the
        // accounting without yielding.
        let mut early = FrontierLevels::new(&summary, root, true, false);
        early.next_level();
        assert!(!early.is_done());
        assert_eq!(early.drain(), cut);
    }
}
