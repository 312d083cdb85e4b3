//! Ablations over the design choices DESIGN.md calls out.
//!
//! Not published figures, but the studies a systems reviewer would ask
//! for:
//!
//! 1. **Sequential vs. level-parallel** traversal — message count vs.
//!    round count (§3.5's latency/overhead trade-off).
//! 2. **Top-down vs. bottom-up** — generality of the first results.
//! 3. **Insert/delete cost vs. DII** — the paper's 1-lookup-vs-k claim.
//! 4. **Monolithic vs. decomposed** hypercube (§3.4's last remark).
//! 5. **Query-load distribution** — §3.4's hot-spot argument: replaying
//!    the skewed log, how evenly does *query-processing* load spread
//!    over nodes under the hypercube scheme vs. the DII (where one node
//!    owns each keyword)?

use hyperdex_core::baseline::DistributedInvertedIndex;
use hyperdex_core::decompose::DecomposedIndex;
use hyperdex_core::search::{ExecutionMode, TraversalOrder};
use hyperdex_core::{HypercubeIndex, SupersetQuery};

use crate::report::{f, section, Table};
use crate::SharedContext;

/// Aggregated ablation results (consumed by tests and EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationSummary {
    /// Gini of per-node *query-processing* load, hypercube scheme.
    pub hypercube_query_gini: f64,
    /// Gini of per-node query-processing load, DII baseline.
    pub dii_query_gini: f64,
    /// Sequential protocol: average messages per exhaustive query.
    pub sequential_messages: f64,
    /// Sequential protocol: nodes contacted (== time in message units).
    pub sequential_time: f64,
    /// Parallel protocol: average rounds per exhaustive query.
    pub parallel_rounds: f64,
    /// Average extra keywords of the first top-down result.
    pub top_down_first_extra: f64,
    /// Average extra keywords of the first bottom-up result.
    pub bottom_up_first_extra: f64,
    /// Hypercube nodes touched per insert (always 1).
    pub hypercube_insert_cost: f64,
    /// DII nodes touched per insert (≈ keywords per object).
    pub dii_insert_cost: f64,
}

/// Runs all ablations and returns the summary.
pub fn run(ctx: &SharedContext) -> AblationSummary {
    section("Ablations — protocol variants and §3.4 remarks");
    let r = 10u8;
    let mut index = HypercubeIndex::new(r, ctx.seed).expect("valid dimension");
    for (id, keywords) in ctx.corpus.indexable() {
        index.insert(id, keywords.clone()).expect("non-empty");
    }

    // --- 1 & 2: traversal variants over popular 2-keyword queries.
    let queries = ctx.queries.popular_of_size(2, 10);
    let mut seq_msgs = 0.0;
    let mut seq_time = 0.0;
    let mut par_rounds = 0.0;
    let mut td_extra = 0.0;
    let mut bu_extra = 0.0;
    let mut measured = 0.0;
    for q in &queries {
        // Every arm of the ablation varies the walk as published.
        let base = SupersetQuery::new(q.clone()).prune(false);
        let seq = index.superset_search(&base.clone()).expect("valid");
        let par = index
            .superset_search(&base.clone().mode(ExecutionMode::LevelParallel))
            .expect("valid");
        let td = index
            .superset_search(&base.clone().threshold(1))
            .expect("valid");
        let bu = index
            .superset_search(&base.clone().threshold(1).order(TraversalOrder::BottomUp))
            .expect("valid");
        if td.results.is_empty() || bu.results.is_empty() {
            continue;
        }
        seq_msgs += seq.stats.total_messages() as f64;
        seq_time += seq.stats.nodes_contacted as f64;
        par_rounds += f64::from(par.stats.rounds);
        td_extra += f64::from(td.results[0].extra_keywords);
        bu_extra += f64::from(bu.results[0].extra_keywords);
        measured += 1.0;
    }
    let measured = f64::max(measured, 1.0);
    let summary_traversal = (
        seq_msgs / measured,
        seq_time / measured,
        par_rounds / measured,
        td_extra / measured,
        bu_extra / measured,
    );

    let mut t = Table::new(["variant", "avg messages", "avg time (rounds/messages)"]);
    t.row([
        "sequential".into(),
        f(summary_traversal.0, 1),
        f(summary_traversal.1, 1),
    ]);
    t.row([
        "level-parallel".to_string(),
        f(summary_traversal.0, 1),
        f(summary_traversal.2, 1),
    ]);
    print!("{}", t.to_markdown());
    println!(
        "\nfirst-result extra keywords: top-down = {}, bottom-up = {}",
        f(summary_traversal.3, 2),
        f(summary_traversal.4, 2)
    );

    // --- 3: insert cost vs. DII.
    let mut dii = DistributedInvertedIndex::new(r, ctx.seed).expect("valid dimension");
    let mut dii_cost = 0usize;
    let sample = ctx.corpus.records().iter().take(2_000);
    let mut sampled = 0usize;
    for record in sample {
        dii_cost += dii.insert(record.object_id(), &record.keywords);
        sampled += 1;
    }
    let dii_insert_cost = dii_cost as f64 / sampled.max(1) as f64;
    println!(
        "\ninsert cost (nodes touched per object): hypercube = 1.0, DII = {}",
        f(dii_insert_cost, 2)
    );

    // --- 4: monolithic vs. decomposed search cost.
    let mut deco = DecomposedIndex::new(ctx.seed);
    deco.add_field("kw", 6).expect("valid dimension");
    for (id, keywords) in ctx.corpus.indexable().take(2_000) {
        deco.insert("kw", id, keywords.clone()).expect("insertable");
    }
    if let Some(q) = queries.first() {
        let published = SupersetQuery::new(q.clone()).prune(false);
        let mono = index.superset_search(&published).expect("valid");
        let sub = deco
            .superset_search("kw", &published)
            .expect("field exists");
        println!(
            "decomposition: monolithic r=10 contacted {} nodes; decomposed r=6 field \
             contacted {} (smaller cube ⇒ cheaper field-scoped search)",
            mono.stats.nodes_contacted, sub.stats.nodes_contacted
        );
    }

    // --- 5: query-load distribution under the skewed log.
    // Contacted vertices of the sequential engine are exactly a BFS
    // prefix of the induced SBT (same child order), so the per-node
    // query load can be reconstructed from the contacted count.
    let mut cube_load: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut dii_load: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let replay: Vec<_> = ctx.queries.iter().take(2_000).collect();
    for q in &replay {
        let out = index
            .superset_search(&SupersetQuery::new((*q).clone()).threshold(20).prune(false))
            .expect("valid");
        let sbt = hyperdex_hypercube::Sbt::induced(index.vertex_for(q));
        for (v, _) in sbt.bfs().take(out.stats.nodes_contacted as usize) {
            *cube_load.entry(v.bits()).or_insert(0) += 1;
        }
        for k in q.iter() {
            *dii_load.entry(dii.node_for(k)).or_insert(0) += 1;
        }
    }
    let cube_loads: Vec<usize> = cube_load.values().copied().collect();
    let dii_loads: Vec<usize> = dii_load.values().copied().collect();
    let hypercube_query_gini = hyperdex_workload::stats::gini(&cube_loads, 1 << r);
    let dii_query_gini = hyperdex_workload::stats::gini(&dii_loads, 1 << r);
    println!(
        "\nquery-processing load gini over 2^{r} nodes (2,000 skewed queries, t=20): \
         hypercube = {}, DII = {}",
        f(hypercube_query_gini, 3),
        f(dii_query_gini, 3)
    );

    AblationSummary {
        hypercube_query_gini,
        dii_query_gini,
        sequential_messages: summary_traversal.0,
        sequential_time: summary_traversal.1,
        parallel_rounds: summary_traversal.2,
        top_down_first_extra: summary_traversal.3,
        bottom_up_first_extra: summary_traversal.4,
        hypercube_insert_cost: 1.0,
        dii_insert_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn ablations_support_the_claims() {
        let ctx = SharedContext::new(Scale::Small, 1);
        let s = run(&ctx);
        // Parallel rounds are far below sequential time.
        assert!(
            s.parallel_rounds < s.sequential_time / 4.0,
            "rounds {} vs time {}",
            s.parallel_rounds,
            s.sequential_time
        );
        // Bottom-up first results carry at least as many extra keywords.
        assert!(s.bottom_up_first_extra >= s.top_down_first_extra);
        // DII pays ~k lookups per insert; the hypercube pays one.
        assert!(s.dii_insert_cost > 3.0, "dii {}", s.dii_insert_cost);
        assert_eq!(s.hypercube_insert_cost, 1.0);
        // Query-processing load spreads better under the hypercube than
        // under per-keyword ownership (§3.4's hot-spot argument).
        assert!(
            s.hypercube_query_gini < s.dii_query_gini,
            "hypercube query gini {} should beat DII {}",
            s.hypercube_query_gini,
            s.dii_query_gini
        );
    }
}
