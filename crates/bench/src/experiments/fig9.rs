//! Figure 9: query performance with per-node FIFO caches.
//!
//! Replays a prefix of the day's (heavily skewed) query log — at most
//! 10,000 queries, 4,000 at small scale (`replay_len`) — against
//! indexes with cache capacity `α · |O| / 2^r` and measures the average
//! fraction of nodes contacted per query. The paper's headline: with
//! `α = 1/6`, fewer than 1 % of nodes are contacted per query even at
//! 100 % recall (for `r = 10` and `12`), because the top-10 queries are
//! ~60 % of the volume and hit the root's cache after their first
//! execution.

use hyperdex_core::cache::alpha_capacity;
use hyperdex_core::{HypercubeIndex, SupersetQuery};

use crate::report::{f as fmt_f, pct, section, Table};
use crate::SharedContext;

/// Cache-capacity factors swept (the paper's X axis).
///
/// Four points suffice to draw the curve: the cacheless baseline, the
/// paper's headline α = 1/6, and two larger capacities showing the
/// plateau. (Every α level replays the log against a fresh index, so
/// each extra point costs a full cold-start sweep.)
pub const ALPHAS: [f64; 4] = [0.0, 1.0 / 6.0, 1.0 / 3.0, 1.0];

/// One measured line point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Cell {
    /// Hypercube dimension.
    pub r: u8,
    /// Recall rate requested.
    pub recall: f64,
    /// Cache capacity factor α.
    pub alpha: f64,
    /// Average fraction of nodes contacted per query.
    pub nodes_fraction: f64,
    /// Overall cache hit rate across the replay.
    pub hit_rate: f64,
}

/// How many log queries to replay per configuration (the full log at
/// full scale is 178k; a prefix keeps the sweep tractable and the skew
/// statistics are stationary).
fn replay_len(scale: crate::Scale, total: usize) -> usize {
    match scale {
        crate::Scale::Full => total.min(10_000),
        crate::Scale::Small => total.min(4_000),
    }
}

/// Runs the sweep and returns every point.
pub fn run(ctx: &SharedContext) -> Vec<Fig9Cell> {
    section("Figure 9 — query performance with per-node FIFO caches");
    let mut cells = Vec::new();
    let replay: Vec<_> = ctx
        .queries
        .iter()
        .take(replay_len(ctx.scale, ctx.queries.len()))
        .collect();
    for r in [10u8, 12] {
        // Base index built once per r; per-α runs clone it.
        let mut base = HypercubeIndex::new(r, ctx.seed).expect("valid dimension");
        for (id, keywords) in ctx.corpus.indexable() {
            base.insert(id, keywords.clone()).expect("non-empty");
        }
        let total_nodes = (1u64 << r) as f64;
        // Ground-truth |O_K| per distinct replayed query, computed once
        // per r (an oracle, not part of the protocol cost).
        let mut matching: std::collections::HashMap<&hyperdex_core::KeywordSet, usize> =
            std::collections::HashMap::new();
        for q in &replay {
            matching.entry(q).or_insert_with(|| base.matching_count(q));
        }
        for &recall in &[0.5f64, 1.0] {
            for &alpha in &ALPHAS {
                let mut index = base.clone();
                index.set_cache_capacity(alpha_capacity(alpha, ctx.corpus.len(), r));
                let mut contacted = 0u64;
                let mut hits = 0u64;
                for q in &replay {
                    let found = matching[q];
                    if found == 0 {
                        continue;
                    }
                    let threshold = ((found as f64 * recall).ceil() as usize).max(1);
                    // Figure 9 counts the walk as published.
                    let published = SupersetQuery::new((*q).clone())
                        .threshold(threshold)
                        .prune(false);
                    let out = index
                        .superset_search(&published)
                        .expect("positive threshold");
                    contacted += out.stats.nodes_contacted;
                    hits += u64::from(out.stats.cache_hit);
                }
                let n = replay.len() as f64;
                cells.push(Fig9Cell {
                    r,
                    recall,
                    alpha,
                    nodes_fraction: contacted as f64 / n / total_nodes,
                    hit_rate: hits as f64 / n,
                });
            }
        }
    }

    let mut table = Table::new(["r", "recall", "alpha", "nodes contacted", "cache hit rate"]);
    for c in &cells {
        table.row([
            c.r.to_string(),
            pct(c.recall),
            fmt_f(c.alpha, 3),
            pct(c.nodes_fraction),
            pct(c.hit_rate),
        ]);
    }
    print!("{}", table.to_markdown());
    println!(
        "\nPaper: with α = 1/6, < 1% of nodes contacted per query at 100% recall \
         (top-10 queries ≈ 60% of volume)."
    );
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn reproduces_paper_shape() {
        let ctx = SharedContext::new(Scale::Small, 1);
        let cells = run(&ctx);
        let cell = |r: u8, recall: f64, alpha: f64| {
            cells
                .iter()
                .find(|c| {
                    c.r == r && (c.recall - recall).abs() < 1e-9 && (c.alpha - alpha).abs() < 1e-9
                })
                .copied()
                .expect("cell present")
        };
        for r in [10u8, 12] {
            let no_cache = cell(r, 1.0, 0.0);
            let small_cache = cell(r, 1.0, 1.0 / 6.0);
            // (1) A small cache slashes the per-query cost. (The paper's
            // absolute <1% needs the full 131k-object / 178k-query
            // scale, where each node's slots cover its whole hot query
            // set; the miniature keeps the shape.)
            assert!(
                small_cache.nodes_fraction < no_cache.nodes_fraction / 2.5,
                "r={r}: α=1/6 gives {} vs cacheless {}",
                small_cache.nodes_fraction,
                no_cache.nodes_fraction
            );
            // (2) Hit rate reflects the 60% top-10 query skew.
            assert!(
                small_cache.hit_rate > 0.4,
                "r={r}: hit rate {}",
                small_cache.hit_rate
            );
            // (3) More cache never hurts.
            let big_cache = cell(r, 1.0, 1.0);
            assert!(big_cache.nodes_fraction <= small_cache.nodes_fraction + 1e-6);
            // (4) Lower recall costs fewer nodes at equal α.
            let half = cell(r, 0.5, 1.0 / 6.0);
            assert!(half.nodes_fraction <= small_cache.nodes_fraction + 1e-6);
        }
    }
}
