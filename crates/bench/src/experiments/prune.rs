//! Occupancy-guided pruning: nodes contacted with and without subtree
//! summaries.
//!
//! Superset search must visit every vertex of the subcube induced by
//! `F_h(K)` — unless something proves a subtree free of matches. The
//! summaries of [`hyperdex_core::summary`] do exactly that: each prefix
//! region covering an SBT subtree carries whether it is occupied, a
//! keyword-position bitmask and the OR of its keyword-set signatures,
//! and the traversal skips any subtree whose region is empty, whose
//! mask cannot cover the query vertex, or whose signature cannot cover
//! the query's.
//!
//! This sweep crosses **corpus size** (how full the cube is) with the
//! **Zipf exponent** of keyword popularity (how skewed occupancy is)
//! and **query specificity** (`|K|` — larger queries induce larger,
//! emptier subcubes), and reports per cell, summed over the query
//! batch:
//!
//! * nodes contacted by the unpruned and the pruned traversal;
//! * `T_QUERY`/`T_CONT`/`T_STOP` messages for both;
//! * subtrees pruned and the fraction of node visits saved.
//!
//! Every query is run both ways on the *same* index and the result
//! sequences are asserted identical, object by object in order —
//! pruning skips only match-free subtrees and keeps the walk's order,
//! so it is an optimization, never a recall trade. A vertex whose own
//! signature cannot cover the query's is walked through, not contacted.
//! The run panics (non-zero exit under the CI bench-smoke job) if any
//! query returns a different result sequence, a different `exhausted`
//! or a different count of vertices sending results, or the pruned
//! traversal contacts more nodes or scans more entries.

use std::path::Path;

use hyperdex_core::{HypercubeIndex, SupersetQuery};
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

use crate::report::{f, json_series, pct, section, Table};
use crate::{Scale, SharedContext};

/// Corpus sizes swept at full scale.
pub const CORPUS_SIZES_FULL: [usize; 2] = [2_000, 8_000];
/// Corpus sizes swept at small scale (CI smoke).
pub const CORPUS_SIZES_SMALL: [usize; 2] = [500, 2_000];
/// Zipf exponents of keyword popularity (skew of cube occupancy).
pub const ZIPF_EXPONENTS: [f64; 2] = [0.8, 1.2];
/// Query sizes `|K|` (specificity; larger ⇒ larger induced subcube).
pub const QUERY_SIZES: [u32; 3] = [1, 2, 3];

/// Cube dimension: 4096 vertices, so even the large corpus leaves
/// most of the cube empty — the regime pruning exploits.
const PRUNE_R: u8 = 12;
/// Queries evaluated per sweep cell.
const QUERIES_PER_CELL: usize = 8;

/// One measured cell of the pruning sweep (sums over its query batch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneRow {
    /// Objects indexed.
    pub corpus_size: usize,
    /// Zipf exponent of keyword popularity.
    pub zipf: f64,
    /// Query size `|K|`.
    pub query_size: u32,
    /// Queries actually evaluated (the popular pool may run short).
    pub queries: usize,
    /// Nodes contacted without pruning.
    pub nodes_unpruned: u64,
    /// Nodes contacted with occupancy-guided pruning.
    pub nodes_pruned: u64,
    /// Total messages without pruning.
    pub msgs_unpruned: u64,
    /// Total messages with pruning.
    pub msgs_pruned: u64,
    /// SBT subtrees skipped by the summary.
    pub pruned_subtrees: u64,
}

impl PruneRow {
    /// Fraction of node visits the summaries saved.
    pub fn savings(&self) -> f64 {
        if self.nodes_unpruned == 0 {
            0.0
        } else {
            1.0 - self.nodes_pruned as f64 / self.nodes_unpruned as f64
        }
    }
}

/// Runs the pruning sweep, prints the markdown table and JSON series,
/// and returns the rows.
///
/// # Panics
///
/// Panics if any query's pruned result sequence, `exhausted` or
/// result-message count differs from the unpruned one, if pruning ever
/// contacts *more* nodes or scans *more* entries, or if the largest,
/// most specific cell fails to contact *strictly fewer* nodes — these
/// are the experiment's invariants and CI runs this as a smoke check.
pub fn run(ctx: &SharedContext) -> Vec<PruneRow> {
    section("Prune — nodes contacted with occupancy-guided SBT pruning");
    let corpus_sizes = match ctx.scale {
        Scale::Full => CORPUS_SIZES_FULL,
        Scale::Small => CORPUS_SIZES_SMALL,
    };

    let mut rows = Vec::new();
    for &n in &corpus_sizes {
        for &zipf in &ZIPF_EXPONENTS {
            let cfg = CorpusConfig {
                zipf_exponent: zipf,
                ..CorpusConfig::pchome().with_objects(n)
            };
            let cell_seed = ctx.seed ^ (n as u64) ^ zipf.to_bits();
            let corpus = Corpus::generate(&cfg, cell_seed);
            let queries = QueryLog::generate(
                &QueryLogConfig::pchome_day().with_queries(4_000),
                &corpus,
                cell_seed ^ 0xF00D,
            );

            let mut index = HypercubeIndex::new(PRUNE_R, ctx.seed).expect("valid");
            for (id, k) in corpus.indexable() {
                index.insert(id, k.clone()).expect("non-empty");
            }

            for &m in &QUERY_SIZES {
                let batch = queries.popular_of_size(m, QUERIES_PER_CELL);
                let mut row = PruneRow {
                    corpus_size: n,
                    zipf,
                    query_size: m,
                    queries: batch.len(),
                    nodes_unpruned: 0,
                    nodes_pruned: 0,
                    msgs_unpruned: 0,
                    msgs_pruned: 0,
                    pruned_subtrees: 0,
                };
                for q in &batch {
                    let base = SupersetQuery::new(q.clone());
                    // Baseline column: the walk as published.
                    let plain = index
                        .superset_search(&base.clone().prune(false))
                        .expect("valid");
                    let pruned = index.superset_search(&base).expect("valid");

                    let ids: Vec<_> = plain.results.iter().map(|r| r.object).collect();
                    let pruned_ids: Vec<_> = pruned.results.iter().map(|r| r.object).collect();
                    assert_eq!(
                        ids, pruned_ids,
                        "pruning changed the result sequence for {q} (n={n}, zipf={zipf})"
                    );
                    assert_eq!(
                        (pruned.stats.result_messages, pruned.exhausted),
                        (plain.stats.result_messages, plain.exhausted),
                        "pruning skipped a vertex holding a match for {q} (n={n}, zipf={zipf})"
                    );
                    assert!(
                        pruned.stats.nodes_contacted <= plain.stats.nodes_contacted,
                        "pruning contacted more nodes for {q} (n={n}, zipf={zipf})"
                    );
                    assert!(
                        pruned.stats.entries_scanned <= plain.stats.entries_scanned,
                        "pruning scanned more entries for {q} (n={n}, zipf={zipf})"
                    );

                    row.nodes_unpruned += plain.stats.nodes_contacted;
                    row.nodes_pruned += pruned.stats.nodes_contacted;
                    row.msgs_unpruned += plain.stats.total_messages();
                    row.msgs_pruned += pruned.stats.total_messages();
                    row.pruned_subtrees += pruned.stats.pruned_subtrees;
                }
                rows.push(row);
            }
        }
    }

    // The headline acceptance point: on the largest corpus at the most
    // specific query size, pruning must *strictly* beat the full walk.
    let largest = rows
        .iter()
        .filter(|r| r.corpus_size == corpus_sizes[corpus_sizes.len() - 1])
        .filter(|r| r.query_size == QUERY_SIZES[QUERY_SIZES.len() - 1])
        .max_by(|a, b| a.nodes_unpruned.cmp(&b.nodes_unpruned))
        .expect("sweep is non-empty");
    assert!(
        largest.nodes_pruned < largest.nodes_unpruned,
        "largest cell saved nothing: {largest:?}"
    );

    let mut table = Table::new([
        "objects",
        "zipf",
        "|K|",
        "queries",
        "nodes (plain)",
        "nodes (pruned)",
        "msgs (plain)",
        "msgs (pruned)",
        "subtrees cut",
        "saved",
    ]);
    for row in &rows {
        table.row([
            row.corpus_size.to_string(),
            f(row.zipf, 1),
            row.query_size.to_string(),
            row.queries.to_string(),
            row.nodes_unpruned.to_string(),
            row.nodes_pruned.to_string(),
            row.msgs_unpruned.to_string(),
            row.msgs_pruned.to_string(),
            row.pruned_subtrees.to_string(),
            pct(row.savings()),
        ]);
    }
    print!("{}", table.to_markdown());

    println!("\n### JSON series (vs corpus size)\n");
    for &zipf in &ZIPF_EXPONENTS {
        for &m in &QUERY_SIZES {
            let points: Vec<(f64, f64)> = rows
                .iter()
                .filter(|r| r.zipf == zipf && r.query_size == m)
                .map(|r| (r.corpus_size as f64, r.savings()))
                .collect();
            println!(
                "{}",
                json_series(
                    "prune_savings",
                    &[("zipf", f(zipf, 1)), ("query_size", m.to_string())],
                    "corpus_size",
                    "node visits saved",
                    &points,
                )
            );
        }
    }
    rows
}

/// Writes the sweep as a seed-stamped JSON object (the
/// `BENCH_prune.json` artifact): `{"seed":N,"rows":[…]}`.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing `path`.
pub fn write_json(rows: &[PruneRow], seed: u64, path: &Path) -> std::io::Result<()> {
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"corpus_size\":{},\"zipf\":{:.2},\"query_size\":{},\
                 \"queries\":{},\"nodes_unpruned\":{},\"nodes_pruned\":{},\
                 \"msgs_unpruned\":{},\"msgs_pruned\":{},\
                 \"pruned_subtrees\":{},\"savings\":{:.6}}}",
                r.corpus_size,
                r.zipf,
                r.query_size,
                r.queries,
                r.nodes_unpruned,
                r.nodes_pruned,
                r.msgs_unpruned,
                r.msgs_pruned,
                r.pruned_subtrees,
                r.savings(),
            )
        })
        .collect();
    crate::report::write_json_artifact(path, seed, &rendered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_holds_invariants_and_is_deterministic() {
        let ctx = SharedContext::new(Scale::Small, 1);
        let rows = run(&ctx);
        assert_eq!(
            rows.len(),
            CORPUS_SIZES_SMALL.len() * ZIPF_EXPONENTS.len() * QUERY_SIZES.len()
        );
        for row in &rows {
            assert!(row.queries > 0, "empty query batch in {row:?}");
            // `run` already asserted per-query parity; the sums must
            // agree with it.
            assert!(row.nodes_pruned <= row.nodes_unpruned, "{row:?}");
            assert!(row.msgs_pruned <= row.msgs_unpruned, "{row:?}");
            assert!((0.0..=1.0).contains(&row.savings()), "{row:?}");
        }
        // Specific queries over a mostly-empty cube must show real
        // savings, with the summary doing the cutting.
        let best = rows
            .iter()
            .filter(|r| r.query_size == 3)
            .max_by(|a, b| a.nodes_unpruned.cmp(&b.nodes_unpruned))
            .expect("non-empty");
        assert!(best.nodes_pruned < best.nodes_unpruned, "{best:?}");
        assert!(best.pruned_subtrees > 0, "{best:?}");

        // Same seed ⇒ identical rows.
        let again = run(&ctx);
        assert_eq!(rows, again, "sweep is not deterministic");
    }

    #[test]
    fn json_artifact_shape() {
        let row = PruneRow {
            corpus_size: 100,
            zipf: 1.0,
            query_size: 2,
            queries: 8,
            nodes_unpruned: 40,
            nodes_pruned: 10,
            msgs_unpruned: 120,
            msgs_pruned: 30,
            pruned_subtrees: 6,
        };
        let dir = std::env::temp_dir().join("hyperdex_prune_json_test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("BENCH_prune.json");
        write_json(&[row], 42, &path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.starts_with("{\"seed\":42,\"rows\":[\n"));
        assert!(text.contains("\"nodes_pruned\":10"));
        assert!(text.contains("\"savings\":0.750000"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
