//! Cross-validation: the direct measurement engine vs. the
//! message-level protocol execution.
//!
//! Every figure is produced by the direct engine (analytic routing,
//! exact counters). This experiment certifies that the engine and the
//! actual message protocol agree — the same results in the same order,
//! also at a binding threshold, node counts identical, one `T_QUERY`
//! per contacted node — on live corpus queries, and reports the
//! latency the direct engine cannot measure.

use hyperdex_core::sim_protocol::ProtocolSim;
use hyperdex_core::{HypercubeIndex, SupersetQuery};
use hyperdex_simnet::latency::LatencyModel;

use crate::report::{f, section, Table};
use crate::SharedContext;

/// Per-query-size cross-validation summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XcheckRow {
    /// Query size in keywords.
    pub m: u32,
    /// Queries checked.
    pub queries: usize,
    /// Queries where results and node counts matched exactly.
    pub matched: usize,
    /// Mean sequential latency (ticks, unit link latency).
    pub seq_ticks: f64,
    /// Mean level-parallel latency (ticks).
    pub par_ticks: f64,
}

/// Objects loaded into the protocol simulator (kept moderate: each
/// search is a full event-loop run).
const XCHECK_OBJECTS: usize = 4_000;
/// Queries cross-checked per size.
const QUERIES_PER_SIZE: usize = 5;

/// Runs the cross-validation and returns per-size rows.
pub fn run(ctx: &SharedContext) -> Vec<XcheckRow> {
    section("Cross-check — direct engine vs. message-level protocol");
    let r = 10u8;
    let mut direct = HypercubeIndex::new(r, ctx.seed).expect("valid dimension");
    let mut sim =
        ProtocolSim::new(r, ctx.seed, LatencyModel::constant(1)).expect("valid dimension");
    for (id, keywords) in ctx.corpus.indexable().take(XCHECK_OBJECTS) {
        direct.insert(id, keywords.clone()).expect("non-empty");
        sim.insert(id, keywords.clone()).expect("non-empty");
    }

    let mut rows = Vec::new();
    for m in 1..=3u32 {
        let queries = ctx.queries.popular_of_size(m, QUERIES_PER_SIZE);
        if queries.is_empty() {
            continue;
        }
        let mut matched = 0;
        let mut seq_total = 0u64;
        let mut par_total = 0u64;
        for q in &queries {
            // The simulator runs the protocol as published; the direct
            // engine is counted on the same walk, exhaustively and at a
            // binding threshold (3), where the rank decides what is kept.
            let published = SupersetQuery::new(q.clone()).prune(false);
            let d = direct.superset_search(&published).expect("valid");
            let s = sim.search_sequential(q, usize::MAX - 1).expect("valid");
            let p = sim.search_parallel(q, usize::MAX - 1).expect("valid");
            let d_cut = direct
                .superset_search(&published.threshold(3))
                .expect("valid");
            let s_cut = sim.search_sequential(q, 3).expect("valid");
            if (d.results, d.stats.nodes_contacted) == (s.results, s.nodes_contacted)
                && (d_cut.results, d_cut.stats.nodes_contacted)
                    == (s_cut.results, s_cut.nodes_contacted)
            {
                matched += 1;
            }
            seq_total += s.elapsed.ticks();
            par_total += p.elapsed.ticks();
        }
        rows.push(XcheckRow {
            m,
            queries: queries.len(),
            matched,
            seq_ticks: seq_total as f64 / queries.len() as f64,
            par_ticks: par_total as f64 / queries.len() as f64,
        });
    }

    let mut table = Table::new([
        "m",
        "queries",
        "exact matches",
        "seq latency (ticks)",
        "parallel latency",
        "speedup",
    ]);
    for row in &rows {
        table.row([
            row.m.to_string(),
            row.queries.to_string(),
            format!("{}/{}", row.matched, row.queries),
            f(row.seq_ticks, 1),
            f(row.par_ticks, 1),
            format!("{:.1}x", row.seq_ticks / row.par_ticks.max(1.0)),
        ]);
    }
    print!("{}", table.to_markdown());
    println!(
        "\nEvery figure uses the direct engine; this certifies it agrees with \
         the real T_QUERY/T_CONT/T_STOP message exchange."
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn engines_agree_perfectly() {
        let ctx = SharedContext::new(Scale::Small, 1);
        let rows = run(&ctx);
        assert!(!rows.is_empty());
        for row in &rows {
            assert_eq!(
                row.matched,
                row.queries,
                "m={}: engines disagreed on {} queries",
                row.m,
                row.queries - row.matched
            );
            assert!(
                row.par_ticks <= row.seq_ticks,
                "m={}: parallel latency should not exceed sequential",
                row.m
            );
        }
    }
}
