//! Figure 8: cacheless query performance.
//!
//! For `r ∈ {8, 10, 12}` and query sizes `m = 1..5`, run popular
//! superset queries at increasing recall rates and measure the fraction
//! of hypercube nodes contacted. The paper's observations:
//!
//! * at 100 % recall roughly `2^−m` of the nodes are contacted (for
//!   `r ∈ {10, 12}`; `r = 8` is higher for `m > 1` because bit
//!   collisions shrink `|One(F_h(K))|`);
//! * nodes contacted grow roughly linearly with the recall rate
//!   (indexing load is evenly spread).

use hyperdex_core::{HypercubeIndex, SupersetQuery};

use crate::report::{pct, section, Table};
use crate::SharedContext;

/// Recall rates swept (the paper's X axis).
pub const RECALLS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

/// Queries sampled per (r, m) cell.
const QUERIES_PER_CELL: usize = 10;

/// One measured cell: dimension, query size, recall, and the average
/// fraction of nodes contacted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Cell {
    /// Hypercube dimension.
    pub r: u8,
    /// Query size in keywords.
    pub m: u32,
    /// Recall rate requested.
    pub recall: f64,
    /// Average fraction of the `2^r` nodes contacted.
    pub nodes_fraction: f64,
}

/// Runs the sweep and returns every cell.
pub fn run(ctx: &SharedContext) -> Vec<Fig8Cell> {
    section("Figure 8 — query performance, cacheless");
    let mut cells = Vec::new();
    for r in [8u8, 10, 12] {
        let mut index = HypercubeIndex::new(r, ctx.seed).expect("valid dimension");
        for (id, keywords) in ctx.corpus.indexable() {
            index.insert(id, keywords.clone()).expect("non-empty");
        }
        let total_nodes = (1u64 << r) as f64;
        for m in 1..=5u32 {
            let queries = ctx.queries.popular_of_size(m, QUERIES_PER_CELL);
            if queries.is_empty() {
                continue;
            }
            // Ground truth once per query (oracle, not protocol cost).
            let counts: Vec<usize> = queries.iter().map(|q| index.matching_count(q)).collect();
            for &recall in &RECALLS {
                let mut fractions = Vec::new();
                for (q, &matching) in queries.iter().zip(&counts) {
                    if matching == 0 {
                        continue;
                    }
                    let threshold = ((matching as f64 * recall).ceil() as usize).max(1);
                    let out = index
                        .superset_search(
                            // Figure 8 counts the walk as published.
                            &SupersetQuery::new(q.clone())
                                .threshold(threshold)
                                .prune(false),
                        )
                        .expect("positive threshold");
                    debug_assert!(out.results.len() >= threshold.min(matching));
                    fractions.push(out.stats.nodes_contacted as f64 / total_nodes);
                }
                if fractions.is_empty() {
                    continue;
                }
                let avg = fractions.iter().sum::<f64>() / fractions.len() as f64;
                cells.push(Fig8Cell {
                    r,
                    m,
                    recall,
                    nodes_fraction: avg,
                });
            }
        }
    }

    // Print one table per r: rows = m, columns = recall.
    for r in [8u8, 10, 12] {
        println!("\nr = {r} (% of 2^{r} nodes contacted)");
        let mut table = Table::new(["m", "20%", "40%", "60%", "80%", "100%", "2^-m"]);
        for m in 1..=5u32 {
            let row: Vec<String> = RECALLS
                .iter()
                .map(|&recall| {
                    cells
                        .iter()
                        .find(|c| c.r == r && c.m == m && (c.recall - recall).abs() < 1e-9)
                        .map(|c| pct(c.nodes_fraction))
                        .unwrap_or_else(|| "-".into())
                })
                .collect();
            if row.iter().all(|v| v == "-") {
                continue;
            }
            let mut cells_row = vec![m.to_string()];
            cells_row.extend(row);
            cells_row.push(pct(2f64.powi(-(m as i32))));
            table.row(cells_row);
        }
        print!("{}", table.to_markdown());
    }
    println!(
        "\nPaper: ≈2^-m of nodes at 100% recall for r = 10, 12; higher for r = 8; \
         roughly linear in recall."
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
        assert!(!cells.is_empty());
        let cell = |r: u8, m: u32, recall: f64| {
            cells
                .iter()
                .find(|c| c.r == r && c.m == m && (c.recall - recall).abs() < 1e-9)
                .copied()
        };
        // (1) At 100% recall and r = 12, m = 1: about half the subcube ≈
        // 2^-1 of nodes. Allow generous tolerance for the small corpus.
        if let Some(c) = cell(12, 1, 1.0) {
            let ideal = 0.5;
            assert!(
                c.nodes_fraction > ideal * 0.5 && c.nodes_fraction < ideal * 1.6,
                "r=12 m=1: {} vs 2^-1",
                c.nodes_fraction
            );
        }
        // (2) More keywords → smaller searched fraction (monotone in m).
        for r in [10u8, 12] {
            if let (Some(a), Some(b)) = (cell(r, 1, 1.0), cell(r, 3, 1.0)) {
                assert!(
                    b.nodes_fraction < a.nodes_fraction,
                    "r={r}: m=3 ({}) should cost less than m=1 ({})",
                    b.nodes_fraction,
                    a.nodes_fraction
                );
            }
        }
        // (3) Fractions grow with recall.
        for r in [8u8, 10, 12] {
            if let (Some(lo), Some(hi)) = (cell(r, 1, 0.2), cell(r, 1, 1.0)) {
                assert!(lo.nodes_fraction <= hi.nodes_fraction + 1e-9);
            }
        }
        // (4) r = 8 contacts a larger fraction than r = 12 for m >= 2
        // (collisions shrink |One| on a small cube).
        if let (Some(small), Some(large)) = (cell(8, 3, 1.0), cell(12, 3, 1.0)) {
            assert!(
                small.nodes_fraction >= large.nodes_fraction,
                "r=8 ({}) >= r=12 ({}) at m=3",
                small.nodes_fraction,
                large.nodes_fraction
            );
        }
    }
}
