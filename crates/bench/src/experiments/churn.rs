//! Search quality and repair cost under live membership churn.
//!
//! The paper's availability experiment (§3.4, [`crate::experiments::
//! availability`]) kills a *static* fraction of index nodes. Here the
//! population is **live**: a seeded [`ChurnPlan`] joins, gracefully
//! removes, and crashes physical hosts while queries run, and the
//! churn engine of [`hyperdex_core::churn`] moves each vertex's index
//! table to its new surrogate (bounded handoff batches), reassigns
//! orphans at stabilization rounds, and anti-entropy-repairs crash
//! losses from the secondary cube.
//!
//! The sweep crosses **churn rate** (membership events per 1000 ticks)
//! with the **stabilization interval** and reports, per cell:
//!
//! * **recall** — mean fraction of the static ground truth returned by
//!   fault-tolerant searches probing at four instants mid-churn;
//! * **lookup consistency** — fraction of vertices answered by their
//!   true surrogate owner at the probe instants;
//! * **handoff traffic** — batches, entries, and payload bytes moved;
//! * **repair lag** — mean/max ticks from a crash loss to the diff
//!   against the secondary cube reaching empty;
//! * the settled (quiescent) consistency, which must return to 1.0.
//!
//! A churn rate of zero reproduces the static ring: full recall, full
//! consistency, zero handoff traffic — the availability experiment's
//! fault-free baseline.

use std::path::Path;

use hyperdex_core::churn::StabilizationConfig;
use hyperdex_core::sim_protocol::{ProtocolSim, RecoveryStrategy};
use hyperdex_core::HypercubeIndex;
use hyperdex_simnet::churn::{ChurnConfig, ChurnPlan};
use hyperdex_simnet::latency::LatencyModel;
use hyperdex_simnet::time::SimTime;

use crate::report::{f, json_series, pct, section, Table};
use crate::SharedContext;

/// Membership events per 1000 ticks (0 = static ring baseline).
pub const CHURN_RATES: [f64; 4] = [0.0, 5.0, 20.0, 60.0];
/// Stabilization intervals (ticks) crossed with every churn rate.
pub const STAB_INTERVALS: [u64; 2] = [32, 128];

/// Cube dimension (every vertex is a simulated endpoint).
const SIM_R: u8 = 7;
/// Objects loaded into the simulated index.
const SIM_OBJECTS: usize = 2_000;
/// Queries evaluated per probe instant.
const SIM_QUERIES: usize = 12;
/// Physical hosts alive at time zero.
const HOSTS: u64 = 48;
/// Virtual-time horizon of each churn plan.
const HORIZON: u64 = 2_000;
/// Probe instants per cell (evenly spaced across the horizon).
const PROBES: u64 = 4;

/// One measured cell of the churn sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnRow {
    /// Membership events per 1000 ticks.
    pub rate: f64,
    /// Ticks between stabilization rounds.
    pub stab_interval: u64,
    /// Plan events actually applied (joins + leaves + crashes).
    pub events: u64,
    /// Mean recall vs the static ground truth over all probes.
    pub recall: f64,
    /// Mean lookup consistency at the probe instants.
    pub consistency: f64,
    /// Consistency after the plan drains to quiescence.
    pub settled_consistency: f64,
    /// Handoff batches installed.
    pub handoff_batches: u64,
    /// Index entries moved by handoffs.
    pub handoff_entries: u64,
    /// Handoff payload bytes (retransmits included).
    pub handoff_bytes: u64,
    /// Mean ticks from crash loss to repaired (0 when no crash lost
    /// postings).
    pub repair_lag_mean: f64,
    /// Worst repair lag in ticks.
    pub repair_lag_max: u64,
    /// Stabilization rounds executed.
    pub stabilization_rounds: u64,
}

/// Runs the churn sweep, prints the markdown table and JSON series,
/// and returns the rows.
pub fn run(ctx: &SharedContext) -> Vec<ChurnRow> {
    section("Churn — recall, consistency, and repair under live membership");
    let mut queries = ctx.queries.popular_of_size(1, SIM_QUERIES / 2);
    queries.extend(ctx.queries.popular_of_size(2, SIM_QUERIES / 2));

    // Static ground truth from the direct engine (same hasher seed).
    let mut truth_index = HypercubeIndex::new(SIM_R, ctx.seed).expect("valid");
    for (id, k) in ctx.corpus.indexable().take(SIM_OBJECTS) {
        truth_index.insert(id, k.clone()).expect("non-empty");
    }
    let truths: Vec<usize> = queries
        .iter()
        .map(|q| truth_index.matching_count(q))
        .collect();

    let members: Vec<u64> = (1..=HOSTS).collect();
    let mut rows = Vec::new();
    for &rate in &CHURN_RATES {
        for &stab in &STAB_INTERVALS {
            let gen_cfg = ChurnConfig {
                horizon: SimTime::from_ticks(HORIZON),
                events_per_kilotick: rate,
                join_fraction: 0.4,
                graceful_fraction: 0.6,
            };
            let plan = ChurnPlan::generate(&gen_cfg, &members, ctx.seed ^ rate.to_bits());
            let stab_cfg = StabilizationConfig {
                stabilization_interval: stab,
                ..StabilizationConfig::default()
            };

            let mut sim =
                ProtocolSim::new(SIM_R, ctx.seed, LatencyModel::constant(1)).expect("valid");
            for (id, k) in ctx.corpus.indexable().take(SIM_OBJECTS) {
                sim.insert(id, k.clone()).expect("non-empty");
            }
            sim.enable_churn(&plan, stab_cfg, &members).expect("valid");

            let mut recall = 0.0;
            let mut counted = 0usize;
            let mut consistency = 0.0;
            for probe in 1..=PROBES {
                sim.run_churn_to(SimTime::from_ticks(HORIZON * probe / PROBES));
                // Consistency snapshot *before* the searches: their
                // event-loop drain settles in-flight handoffs.
                consistency += sim.churn().expect("enabled").consistency();
                for (q, &truth) in queries.iter().zip(&truths) {
                    if truth == 0 {
                        continue;
                    }
                    counted += 1;
                    let out = sim
                        .search_fault_tolerant(
                            q,
                            usize::MAX >> 1,
                            RecoveryStrategy::ReplicatedFailover,
                        )
                        .expect("valid");
                    recall += out.results.len() as f64 / truth as f64;
                }
            }
            sim.run_churn_to_quiescence();
            let st = sim.churn().expect("enabled");
            let stats = *st.stats();
            rows.push(ChurnRow {
                rate,
                stab_interval: stab,
                events: stats.joins + stats.leaves + stats.crashes,
                recall: recall / counted.max(1) as f64,
                consistency: consistency / PROBES as f64,
                settled_consistency: st.consistency(),
                handoff_batches: stats.handoff_batches,
                handoff_entries: stats.handoff_entries,
                handoff_bytes: stats.handoff_bytes,
                repair_lag_mean: stats.repair_lag_mean(),
                repair_lag_max: stats.repair_lag_max,
                stabilization_rounds: stats.stabilization_rounds,
            });
        }
    }

    let mut table = Table::new([
        "rate/kt",
        "stab",
        "events",
        "recall",
        "consistency",
        "settled",
        "handoff batches",
        "handoff KiB",
        "repair lag (mean/max)",
        "rounds",
    ]);
    for row in &rows {
        table.row([
            f(row.rate, 0),
            row.stab_interval.to_string(),
            row.events.to_string(),
            pct(row.recall),
            pct(row.consistency),
            pct(row.settled_consistency),
            row.handoff_batches.to_string(),
            f(row.handoff_bytes as f64 / 1024.0, 1),
            format!("{}/{}", f(row.repair_lag_mean, 0), row.repair_lag_max),
            row.stabilization_rounds.to_string(),
        ]);
    }
    print!("{}", table.to_markdown());

    println!("\n### JSON series (vs churn rate)\n");
    for &stab in &STAB_INTERVALS {
        for (name, y, pick) in [
            ("churn_recall", "recall", 0usize),
            ("churn_consistency", "lookup consistency", 1),
            ("churn_handoff_bytes", "handoff bytes", 2),
        ] {
            let points: Vec<(f64, f64)> = rows
                .iter()
                .filter(|r| r.stab_interval == stab)
                .map(|r| {
                    let v = match pick {
                        0 => r.recall,
                        1 => r.consistency,
                        _ => r.handoff_bytes as f64,
                    };
                    (r.rate, v)
                })
                .collect();
            println!(
                "{}",
                json_series(
                    name,
                    &[("stabilization_interval", stab.to_string())],
                    "events_per_kilotick",
                    y,
                    &points,
                )
            );
        }
    }
    rows
}

/// Writes the sweep as a seed-stamped JSON object (the
/// `BENCH_churn.json` artifact): `{"seed":N,"rows":[…]}`.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing `path`.
pub fn write_json(rows: &[ChurnRow], seed: u64, path: &Path) -> std::io::Result<()> {
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"rate\":{},\"stab_interval\":{},\"events\":{},\"recall\":{:.6},\
                 \"consistency\":{:.6},\"settled_consistency\":{:.6},\
                 \"handoff_batches\":{},\"handoff_entries\":{},\"handoff_bytes\":{},\
                 \"repair_lag_mean\":{:.3},\"repair_lag_max\":{},\
                 \"stabilization_rounds\":{}}}",
                r.rate,
                r.stab_interval,
                r.events,
                r.recall,
                r.consistency,
                r.settled_consistency,
                r.handoff_batches,
                r.handoff_entries,
                r.handoff_bytes,
                r.repair_lag_mean,
                r.repair_lag_max,
                r.stabilization_rounds,
            )
        })
        .collect();
    crate::report::write_json_artifact(path, seed, &rendered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn zero_churn_reproduces_the_static_ring_and_sweep_is_deterministic() {
        let ctx = SharedContext::new(Scale::Small, 1);
        let rows = run(&ctx);
        assert_eq!(rows.len(), CHURN_RATES.len() * STAB_INTERVALS.len());
        for row in &rows {
            // Every cell settles back to a fully consistent ring.
            assert_eq!(
                row.settled_consistency, 1.0,
                "rate {} stab {} never settled",
                row.rate, row.stab_interval
            );
            if row.rate == 0.0 {
                // The static baseline: nothing moves, nothing is lost.
                assert_eq!(row.recall, 1.0, "static ring lost recall");
                assert_eq!(row.consistency, 1.0);
                assert_eq!(row.handoff_bytes, 0);
                assert_eq!(row.events, 0);
            } else {
                // Replicated failover holds recall high through churn.
                assert!(
                    row.recall > 0.85,
                    "rate {} stab {}: recall {}",
                    row.rate,
                    row.stab_interval,
                    row.recall
                );
            }
        }
        // Churn moves index state: the busiest cell pays real traffic.
        let busiest = rows.last().expect("non-empty");
        assert!(busiest.handoff_bytes > 0, "60 events/kt moved nothing");

        // Same seed ⇒ byte-identical series.
        let again = run(&ctx);
        assert_eq!(rows, again, "sweep is not deterministic");
    }
}
