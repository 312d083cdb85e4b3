//! Availability under index-node failures (§3.4's fault-tolerance
//! argument, made quantitative).
//!
//! The paper argues qualitatively: "since a number of nodes are
//! responsible for a single keyword, any failure of them cannot block
//! all queries involving the keyword" — unlike the DII, where one node
//! owns each keyword outright. This experiment kills a growing fraction
//! of index nodes and measures, over popular queries:
//!
//! * **recall retained** — the fraction of the original matches still
//!   returned (hypercube degrades gracefully; DII drops a keyword's
//!   entire result set the moment its owner dies);
//! * **queries fully blocked** — zero results returned despite a
//!   non-empty ground truth;
//! * the same with the **secondary-hypercube replication** of §3.4
//!   ([`hyperdex_core::replication::ReplicatedIndex`]), which restores
//!   recall until both copies of an entry are lost.

use hyperdex_core::baseline::DistributedInvertedIndex;
use hyperdex_core::replication::ReplicatedIndex;
use hyperdex_core::sim_protocol::{ProtocolSim, RecoveryStrategy};
use hyperdex_core::{FtCoverage, FtPolicy, HypercubeIndex, SupersetQuery};
use hyperdex_simnet::latency::LatencyModel;
use hyperdex_simnet::rng::SimRng;

use crate::report::{f, json_series, pct, section, Table};
use crate::SharedContext;

/// Failed fractions of the node population swept.
pub const FAILURE_FRACTIONS: [f64; 4] = [0.05, 0.10, 0.20, 0.40];

/// One measured row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityRow {
    /// Fraction of index nodes failed.
    pub failed_fraction: f64,
    /// Mean recall retained by the plain hypercube index.
    pub hypercube_recall: f64,
    /// Mean recall retained by the DII baseline.
    pub dii_recall: f64,
    /// Mean recall retained with secondary-hypercube replication.
    pub replicated_recall: f64,
    /// Fraction of queries fully blocked (hypercube / DII).
    pub hypercube_blocked: f64,
    /// Fraction of queries fully blocked under DII.
    pub dii_blocked: f64,
}

/// Objects loaded (a sample keeps the sweep fast; availability ratios
/// are scale-free).
const OBJECTS: usize = 8_000;
/// Queries evaluated per failure level.
const QUERIES: usize = 30;

/// Runs the sweep and returns the rows.
pub fn run(ctx: &SharedContext) -> Vec<AvailabilityRow> {
    section("Availability — recall under index-node failures (§3.4)");
    let r = 10u8;
    let mut rows = Vec::new();

    // Queries: popular sets of sizes 1..=2 (the hot, fragile ones).
    let mut queries = ctx.queries.popular_of_size(1, QUERIES / 2);
    queries.extend(ctx.queries.popular_of_size(2, QUERIES / 2));

    for &fraction in &FAILURE_FRACTIONS {
        // Fresh indexes per level so failures do not accumulate.
        let mut cube = HypercubeIndex::new(r, ctx.seed).expect("valid");
        let mut dii = DistributedInvertedIndex::new(r, ctx.seed).expect("valid");
        let mut replicated = ReplicatedIndex::new(r, ctx.seed).expect("valid");
        for (id, k) in ctx.corpus.indexable().take(OBJECTS) {
            cube.insert(id, k.clone()).expect("non-empty");
            dii.insert(id, k);
            replicated.insert(id, k.clone()).expect("non-empty");
        }
        let truths: Vec<usize> = queries.iter().map(|q| cube.matching_count(q)).collect();

        // Fail the same uniformly chosen fraction of the 2^r nodes in
        // every scheme (same RNG stream → comparable failure sets).
        let mut rng = SimRng::new(ctx.seed ^ 0xFA11 ^ fraction.to_bits());
        let n_fail = ((1u64 << r) as f64 * fraction) as usize;
        let shape = cube.shape();
        let mut failed_bits = Vec::with_capacity(n_fail);
        while failed_bits.len() < n_fail {
            let bits = rng.gen_range(1u64 << r);
            if !failed_bits.contains(&bits) {
                failed_bits.push(bits);
            }
        }
        for &bits in &failed_bits {
            let v = hyperdex_hypercube::Vertex::from_bits(shape, bits).expect("valid");
            cube.drop_node(v);
            replicated.fail_primary(v);
            dii.drop_node(bits);
        }
        // Independently fail the same fraction of secondary nodes (the
        // replicated scheme's copies fail too — no free lunch).
        for _ in 0..n_fail {
            let bits = rng.gen_range(1u64 << r);
            let v = hyperdex_hypercube::Vertex::from_bits(shape, bits).expect("valid");
            replicated.fail_secondary(v);
        }

        // Measure.
        let mut cube_recall = 0.0;
        let mut dii_recall = 0.0;
        let mut rep_recall = 0.0;
        let mut cube_blocked = 0usize;
        let mut dii_blocked = 0usize;
        let mut counted = 0usize;
        for (q, &truth) in queries.iter().zip(&truths) {
            if truth == 0 {
                continue;
            }
            counted += 1;
            let got_cube = cube
                .superset_search(&SupersetQuery::new(q.clone()))
                .expect("valid")
                .results
                .len();
            let got_dii = dii.query(q).results.len();
            let got_rep = replicated
                .superset_search(&SupersetQuery::new(q.clone()))
                .expect("valid")
                .results
                .len();
            cube_recall += got_cube as f64 / truth as f64;
            dii_recall += got_dii as f64 / truth as f64;
            rep_recall += got_rep as f64 / truth as f64;
            // "Blocked" is only meaningful for genuinely popular
            // queries: a query with a couple of matches on one vertex
            // dies with that vertex under any placement scheme.
            if truth >= 10 {
                cube_blocked += usize::from(got_cube == 0);
                dii_blocked += usize::from(got_dii == 0);
            }
        }
        let n = counted.max(1) as f64;
        rows.push(AvailabilityRow {
            failed_fraction: fraction,
            hypercube_recall: cube_recall / n,
            dii_recall: dii_recall / n,
            replicated_recall: rep_recall / n,
            hypercube_blocked: cube_blocked as f64 / n,
            dii_blocked: dii_blocked as f64 / n,
        });
    }

    let mut table = Table::new([
        "nodes failed",
        "hypercube recall",
        "DII recall",
        "replicated recall",
        "hypercube blocked",
        "DII blocked",
    ]);
    for row in &rows {
        table.row([
            pct(row.failed_fraction),
            pct(row.hypercube_recall),
            pct(row.dii_recall),
            pct(row.replicated_recall),
            pct(row.hypercube_blocked),
            pct(row.dii_blocked),
        ]);
    }
    print!("{}", table.to_markdown());
    println!(
        "\n§3.4's claim: the hypercube loses recall proportionally and never \
         blocks a keyword outright; DII queries die whole when a keyword's \
         single owner dies; a secondary hypercube restores recall."
    );
    rows
}

// ---------------------------------------------------------------------
// Message-level sweep: recovery strategies under crashes and loss
// ---------------------------------------------------------------------

/// Strategies compared by the protocol-level sweep.
pub const STRATEGIES: [(&str, RecoveryStrategy); 4] = [
    ("naive", RecoveryStrategy::Naive),
    ("retry", RecoveryStrategy::RetryOnly),
    ("redelegate", RecoveryStrategy::Redelegate),
    ("failover", RecoveryStrategy::ReplicatedFailover),
];

/// Crashed fractions of the endpoint population swept.
pub const CRASH_FRACTIONS: [f64; 4] = [0.0, 0.05, 0.1, 0.2];

/// Link-loss probabilities swept.
pub const DROP_PROBABILITIES: [f64; 2] = [0.0, 0.2];

/// One cell of the protocol-level sweep (means over the query set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolAvailabilityRow {
    /// Strategy label (see [`STRATEGIES`]).
    pub strategy: &'static str,
    /// Fraction of endpoints crashed before the searches.
    pub crash_fraction: f64,
    /// Uniform message-loss probability.
    pub drop_probability: f64,
    /// Mean recall vs the fault-free ground truth.
    pub recall: f64,
    /// Mean retransmissions per query.
    pub retries: f64,
    /// Mean subtree re-delegations per query.
    pub redelegations: f64,
    /// Mean messages per query.
    pub messages: f64,
}

/// Cube dimension for the message-level sweep (kept small: every
/// vertex is a simulated endpoint).
const SIM_R: u8 = 8;
/// Objects loaded into the simulated index.
const SIM_OBJECTS: usize = 2_000;
/// Queries evaluated per cell.
const SIM_QUERIES: usize = 12;

/// Runs the message-level recovery sweep and returns its rows; also
/// prints a markdown table and one JSON series per strategy × loss
/// level (recall vs crash fraction) for downstream plotting.
pub fn run_protocol(ctx: &SharedContext) -> Vec<ProtocolAvailabilityRow> {
    section("Availability — message-level recovery strategies (§3.4)");
    let mut queries = ctx.queries.popular_of_size(1, SIM_QUERIES / 2);
    queries.extend(ctx.queries.popular_of_size(2, SIM_QUERIES / 2));

    // Ground truth from the direct engine (same hasher seed).
    let mut truth_index = HypercubeIndex::new(SIM_R, ctx.seed).expect("valid");
    for (id, k) in ctx.corpus.indexable().take(SIM_OBJECTS) {
        truth_index.insert(id, k.clone()).expect("non-empty");
    }
    let truths: Vec<usize> = queries
        .iter()
        .map(|q| truth_index.matching_count(q))
        .collect();

    let mut rows = Vec::new();
    for &(name, strategy) in &STRATEGIES {
        for &drop_p in &DROP_PROBABILITIES {
            for &crash in &CRASH_FRACTIONS {
                // A fresh simulation per cell; the crash set depends
                // only on the fraction, so every strategy faces the
                // same dead vertices.
                let mut sim =
                    ProtocolSim::new(SIM_R, ctx.seed, LatencyModel::constant(1)).expect("valid");
                for (id, k) in ctx.corpus.indexable().take(SIM_OBJECTS) {
                    sim.insert(id, k.clone()).expect("non-empty");
                }
                let mut rng = SimRng::new(ctx.seed ^ 0xC4A5 ^ crash.to_bits());
                let n_fail = ((1u64 << SIM_R) as f64 * crash) as usize;
                let mut killed = Vec::with_capacity(n_fail);
                while killed.len() < n_fail {
                    let bits = rng.gen_range(1u64 << SIM_R);
                    if !killed.contains(&bits) {
                        killed.push(bits);
                        let ep = sim.endpoint_of(bits);
                        sim.network_mut().faults_mut().kill(ep);
                    }
                }
                sim.network_mut().faults_mut().set_drop_probability(drop_p);

                let policy = FtPolicy {
                    strategy,
                    max_retries: 8,
                    base_timeout: 16,
                };
                let mut recall = 0.0;
                let mut counted = 0usize;
                let mut traffic = FtCoverage::default();
                let before = sim.network().metrics().messages_sent;
                for (q, &truth) in queries.iter().zip(&truths) {
                    if truth == 0 {
                        continue;
                    }
                    counted += 1;
                    let out = sim
                        .search_fault_tolerant(q, usize::MAX >> 1, policy)
                        .expect("valid");
                    recall += out.results.len() as f64 / truth as f64;
                    traffic.add_traffic(&out.coverage.ft);
                }
                let messages = sim.network().metrics().messages_sent - before;
                let n = counted.max(1) as f64;
                rows.push(ProtocolAvailabilityRow {
                    strategy: name,
                    crash_fraction: crash,
                    drop_probability: drop_p,
                    recall: recall / n,
                    retries: traffic.retries as f64 / n,
                    redelegations: traffic.redelegations as f64 / n,
                    messages: messages as f64 / n,
                });
            }
        }
    }

    let mut table = Table::new([
        "strategy",
        "loss",
        "crashed",
        "recall",
        "retries/q",
        "redelegations/q",
        "msgs/q",
    ]);
    for row in &rows {
        table.row([
            row.strategy.to_string(),
            pct(row.drop_probability),
            pct(row.crash_fraction),
            pct(row.recall),
            f(row.retries, 1),
            f(row.redelegations, 1),
            f(row.messages, 0),
        ]);
    }
    print!("{}", table.to_markdown());

    println!("\n### JSON series (recall vs crash fraction)\n");
    for &(name, _) in &STRATEGIES {
        for &drop_p in &DROP_PROBABILITIES {
            let points: Vec<(f64, f64)> = rows
                .iter()
                .filter(|r| r.strategy == name && r.drop_probability == drop_p)
                .map(|r| (r.crash_fraction, r.recall))
                .collect();
            println!(
                "{}",
                json_series(
                    "protocol_recall",
                    &[
                        ("strategy", name.to_string()),
                        ("drop_probability", format!("{drop_p}")),
                    ],
                    "crash_fraction",
                    "recall",
                    &points,
                )
            );
        }
    }
    println!(
        "\nTimeout-driven retries absorb link loss; re-delegation routes \
         around crashed vertices (Lemma 3.2); the secondary cube recovers \
         the objects the dead vertices held."
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn supports_the_fault_tolerance_claims() {
        let ctx = SharedContext::new(Scale::Small, 1);
        let rows = run(&ctx);
        for row in &rows {
            // Proportional degradation: recall loss tracks the failed
            // fraction (generous tolerance: hot nodes may be hit).
            assert!(
                row.hypercube_recall >= 1.0 - 2.5 * row.failed_fraction,
                "at {}: hypercube recall {}",
                row.failed_fraction,
                row.hypercube_recall
            );
            // The hypercube never blocks more popular queries than the
            // DII, whose per-keyword owners are single points of
            // failure.
            assert!(
                row.hypercube_blocked <= row.dii_blocked + 1e-9,
                "at {}: hypercube blocked {} vs DII {}",
                row.failed_fraction,
                row.hypercube_blocked,
                row.dii_blocked
            );
            // Replication dominates the plain cube.
            assert!(row.replicated_recall >= row.hypercube_recall - 1e-9);
        }
        // At low failure levels popular queries survive the hypercube
        // outright.
        assert_eq!(rows[0].hypercube_blocked, 0.0, "5% failures block nothing");
        // DII eventually blocks whole queries; the hypercube does not.
        let worst = rows.last().expect("non-empty");
        assert!(
            worst.dii_blocked > 0.0,
            "at 40% failures some DII keyword owners must be dead"
        );
        assert!(
            worst.replicated_recall > worst.hypercube_recall,
            "replication should visibly help at 40% failures"
        );
    }

    #[test]
    fn protocol_sweep_ranks_strategies() {
        let ctx = SharedContext::new(Scale::Small, 1);
        let rows = run_protocol(&ctx);
        assert_eq!(
            rows.len(),
            STRATEGIES.len() * DROP_PROBABILITIES.len() * CRASH_FRACTIONS.len()
        );
        let cell = |strategy: &str, drop_p: f64, crash: f64| -> ProtocolAvailabilityRow {
            *rows
                .iter()
                .find(|r| {
                    r.strategy == strategy
                        && r.drop_probability == drop_p
                        && r.crash_fraction == crash
                })
                .expect("cell present")
        };
        // Fault-free cells: perfect recall for every strategy, no
        // recovery machinery engaged.
        for &(name, _) in &STRATEGIES {
            let row = cell(name, 0.0, 0.0);
            assert!(
                row.recall > 0.999,
                "{name} fault-free recall {}",
                row.recall
            );
            assert_eq!(row.retries, 0.0, "{name} retried without faults");
        }
        // Retries engage under loss and recover full recall.
        let retry_lossy = cell("retry", 0.2, 0.0);
        assert!(retry_lossy.retries > 0.0, "loss must trigger retries");
        assert!(
            retry_lossy.recall > 0.999,
            "retries must absorb pure loss: recall {}",
            retry_lossy.recall
        );
        // Under combined crash + loss the strategies are ordered (small
        // slack: different strategies draw different drop streams).
        let worst_crash = *CRASH_FRACTIONS.last().expect("non-empty");
        let naive = cell("naive", 0.2, worst_crash);
        let retry = cell("retry", 0.2, worst_crash);
        let redelegate = cell("redelegate", 0.2, worst_crash);
        let failover = cell("failover", 0.2, worst_crash);
        assert!(naive.recall <= retry.recall + 0.05);
        assert!(retry.recall <= redelegate.recall + 0.02);
        assert!(redelegate.recall <= failover.recall + 0.02);
        assert!(
            failover.recall > naive.recall,
            "failover {} must beat naive {}",
            failover.recall,
            naive.recall
        );
        assert!(
            redelegate.redelegations > 0.0,
            "crashes must trigger re-delegations"
        );
    }
}
