//! Fault-injected runtime: recall and latency under lossy wires and
//! worker crashes, by recovery strategy.
//!
//! The robustness claim of the threaded runtime is graded, not binary:
//! under frame loss and crash-stops, **re-delegation** (Lemma 3.2's
//! subtree reconstruction, ported from the simulator into the shared
//! [`hyperdex_core::FtCoordinator`]) keeps recall at 1.0 while plain
//! **retry-only** recovery degrades — it can only write off a dead
//! child's whole subtree. This sweep measures that difference across
//! **frame-loss rate** × **worker crashes** × **strategy** on a fixed
//! 4-worker cluster:
//!
//! * every query's result set is scored against the fault-free direct
//!   engine (recall = found/truth, aggregated over the query mix);
//! * per-query wall latency is reported as median and worst of the
//!   cell (eight samples carry no percentile beyond that) — the price
//!   of timeouts, backoff, and supervised repair is visible in the max;
//! * retries, timeouts, re-delegations, supervisor respawns, and the
//!   injector's dropped/duplicated frame counts come from the
//!   [`hyperdex_core::FtCoverage`]s and the conservation-checked
//!   shutdown report. Per-frame fates replay exactly for a seed, but
//!   *how many* frames a run sends depends on wall-clock timeout races
//!   — so the sweep asserts determinism only on the schedule-driven
//!   columns (crash/respawn counts) and reports the rest;
//! * the acceptance gate runs in-process: with **re-delegation**, at
//!   ≤ 10% frame loss and a mid-scan crash of a data-owning worker,
//!   recall must be exactly 1.0 — the bench panics otherwise (CI runs
//!   this as its fault smoke).

use std::path::Path;
use std::time::Instant;

use hyperdex_core::{
    FtCoverage, FtPolicy, HypercubeIndex, KeywordHasher, KeywordSet, ObjectId, RecoveryStrategy,
    SupersetQuery,
};
use hyperdex_runtime::{FaultPlan, FtSearchOptions, NodeRuntime, RuntimeConfig};
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

use crate::report::{f, json_series, section, Table};
use crate::SharedContext;

/// Frame-loss rates swept, in per-mille (0%, 5%, 10%).
pub const LOSS_PER_MILLE: [u16; 3] = [0, 50, 100];
/// Crash counts swept (0 = wires only; 1 = a data-owning worker dies
/// on its first mid-scan frame).
pub const CRASHES: [u32; 2] = [0, 1];
/// Recovery strategies swept.
pub const STRATEGIES: [RecoveryStrategy; 2] =
    [RecoveryStrategy::RetryOnly, RecoveryStrategy::Redelegate];

/// Cube dimension: dense vertices, long broad-query traversals.
const FAULTS_R: u8 = 8;
/// Worker threads per cell.
const FAULTS_WORKERS: u32 = 4;
/// Objects indexed per cell.
const FAULTS_OBJECTS: usize = 2_000;

/// One measured cell of the fault sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsRow {
    /// Cube dimension `r`.
    pub r: u8,
    /// Worker threads.
    pub workers: u32,
    /// Injected frame loss, per mille of traversal sends.
    pub loss_per_mille: u16,
    /// Scheduled worker crashes.
    pub crashes: u32,
    /// Recovery strategy name.
    pub strategy: &'static str,
    /// Queries scored.
    pub queries: usize,
    /// Found / truth over all queries (1.0 = nothing lost).
    pub recall: f64,
    /// Queries whose coverage reported every vertex reached.
    pub complete: usize,
    /// Median per-query latency, microseconds.
    pub p50_us: f64,
    /// Worst per-query latency of the cell, microseconds.
    pub max_us: f64,
    /// Retransmissions across all queries.
    pub retries: u64,
    /// Children declared dead across all queries.
    pub timeouts: u64,
    /// Dead subtrees re-delegated across all queries.
    pub redelegations: u64,
    /// Workers the supervisor respawned.
    pub respawns: u64,
    /// Frames the injector (or a crash) destroyed.
    pub dropped_frames: u64,
    /// Extra frame copies the injector delivered.
    pub duplicated_frames: u64,
}

impl FaultsRow {
    /// The seed-reproducible projection of the row: the cell identity
    /// plus the schedule-driven counters. Frame and retry totals are
    /// excluded — per-frame fates replay exactly, but how many frames
    /// a run sends depends on wall-clock timeout races.
    pub fn deterministic_key(&self) -> (u8, u32, u16, u32, &'static str, usize, u64) {
        (
            self.r,
            self.workers,
            self.loss_per_mille,
            self.crashes,
            self.strategy,
            self.queries,
            self.respawns,
        )
    }
}

fn strategy_name(s: RecoveryStrategy) -> &'static str {
    match s {
        RecoveryStrategy::Naive => "naive",
        RecoveryStrategy::RetryOnly => "retry",
        RecoveryStrategy::Redelegate => "redelegate",
        RecoveryStrategy::ReplicatedFailover => "failover",
    }
}

/// Runs the fault sweep, prints the markdown table and JSON series,
/// and returns the rows.
///
/// # Panics
///
/// Panics when the acceptance gate fails — re-delegation must hold
/// recall at exactly 1.0 for every swept loss rate (≤ 10%) with a
/// worker crash — or when any shutdown violates frame conservation.
pub fn run(ctx: &SharedContext) -> Vec<FaultsRow> {
    section("Faults — recall and latency under loss, crashes, and recovery strategy");

    let cell_seed = ctx.seed ^ 0xFA17_0000;
    let corpus = Corpus::generate(
        &CorpusConfig::pchome().with_objects(FAULTS_OBJECTS),
        cell_seed,
    );
    let log = QueryLog::generate(
        &QueryLogConfig::pchome_day().with_queries(2_000),
        &corpus,
        cell_seed ^ 0xF00D,
    );
    let entries: Vec<(ObjectId, KeywordSet)> =
        corpus.indexable().map(|(id, k)| (id, k.clone())).collect();

    // Query mix: broad (|K|=1) and narrower (|K|=2) popular sets.
    let mut queries: Vec<KeywordSet> = log.popular_of_size(1, 4);
    queries.extend(log.popular_of_size(2, 4));
    assert!(!queries.is_empty(), "query log produced no popular sets");

    // Fault-free ground truth per query, from the direct engine.
    let mut direct = HypercubeIndex::new(FAULTS_R, cell_seed).expect("valid r");
    for (id, k) in &entries {
        direct.insert(*id, k.clone()).expect("non-empty");
    }
    let truths: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| {
            let mut ids: Vec<u64> = direct
                .superset_search(
                    &SupersetQuery::new(q.clone())
                        .threshold(usize::MAX - 1)
                        .use_cache(false),
                )
                .expect("valid query")
                .results
                .iter()
                .map(|m| m.object.raw())
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        })
        .collect();

    // The crash victim provably owns indexed state: the home vertex of
    // the first corpus object, located under the placement policy the
    // runtime will actually use.
    let hasher = KeywordHasher::new(FAULTS_R, cell_seed).expect("valid r");
    let victim = RuntimeConfig::new(FAULTS_R, FAULTS_WORKERS)
        .seed(cell_seed)
        .shard_map()
        .owner_of(hasher.vertex_for(&entries[0].1).bits());

    let mut rows = Vec::new();
    for &loss in &LOSS_PER_MILLE {
        for &crashes in &CRASHES {
            for &strategy in &STRATEGIES {
                // Loss is split: 80% outright drops, 10% duplicates,
                // 10% delays (which reorder).
                let mut plan = FaultPlan::lossy(
                    cell_seed ^ u64::from(loss),
                    loss - loss / 5,
                    loss / 10,
                    loss / 10,
                );
                for c in 0..crashes {
                    plan = plan.crash(victim, u64::from(c) + 1);
                }
                // Patience is sized for a loaded machine (the sweep
                // also runs inside the parallel test suite): timers
                // only fire on real drops/crashes, so generous budgets
                // cost nothing in the fault-free cells but keep
                // scheduler starvation from masquerading as frame
                // loss and exhausting the retry budget.
                let opts = FtSearchOptions {
                    policy: FtPolicy {
                        strategy,
                        max_retries: 6,
                        base_timeout: 50,
                    },
                    attempt_timeout_ms: 5_000,
                    attempts: 5,
                };

                let mut rt = NodeRuntime::start_faulted(
                    RuntimeConfig::new(FAULTS_R, FAULTS_WORKERS).seed(cell_seed),
                    plan,
                )
                .expect("valid r");
                rt.bulk_load(entries.iter().map(|(id, k)| (*id, k)))
                    .expect("non-empty sets");
                rt.flush();

                let mut lat_us: Vec<f64> = Vec::new();
                let (mut found, mut truth_total) = (0usize, 0usize);
                let mut complete = 0usize;
                let mut traffic = FtCoverage::default();
                for (q, truth) in queries.iter().zip(&truths) {
                    let t0 = Instant::now();
                    let out = rt
                        .superset_search_ft(q, usize::MAX - 1, &opts)
                        .expect("non-zero threshold");
                    lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    let mut got: Vec<u64> = out.matches.iter().map(|m| m.object.raw()).collect();
                    got.sort_unstable();
                    got.dedup();
                    found += got
                        .iter()
                        .filter(|id| truth.binary_search(id).is_ok())
                        .count();
                    truth_total += truth.len();
                    complete += usize::from(out.complete);
                    if let Some(cov) = &out.coverage {
                        traffic.add_traffic(cov);
                    }
                }
                let report = rt.shutdown();
                report.assert_conserved();

                let recall = if truth_total == 0 {
                    1.0
                } else {
                    found as f64 / truth_total as f64
                };
                // The acceptance gate: re-delegation survives every
                // swept loss rate plus a data-owning crash at full
                // recall.
                if strategy == RecoveryStrategy::Redelegate {
                    assert!(
                        (recall - 1.0).abs() < f64::EPSILON,
                        "re-delegation lost recall: loss={loss}‰ crashes={crashes} \
                         recall={recall}"
                    );
                }

                lat_us.sort_by(|a, b| a.total_cmp(b));
                rows.push(FaultsRow {
                    r: FAULTS_R,
                    workers: FAULTS_WORKERS,
                    loss_per_mille: loss,
                    crashes,
                    strategy: strategy_name(strategy),
                    queries: queries.len(),
                    recall,
                    complete,
                    p50_us: lat_us[(lat_us.len() - 1) / 2],
                    max_us: lat_us[lat_us.len() - 1],
                    retries: traffic.retries,
                    timeouts: traffic.timeouts,
                    redelegations: traffic.redelegations,
                    respawns: report.supervisor.respawns,
                    dropped_frames: report.total_dropped(),
                    duplicated_frames: report.total_duplicated(),
                });
            }
        }
    }

    let mut table = Table::new([
        "loss ‰", "crashes", "strategy", "queries", "recall", "complete", "p50 µs", "max µs",
        "retries", "timeouts", "redeleg", "respawns", "dropped", "dup",
    ]);
    for row in &rows {
        table.row([
            row.loss_per_mille.to_string(),
            row.crashes.to_string(),
            row.strategy.to_string(),
            row.queries.to_string(),
            f(row.recall, 4),
            row.complete.to_string(),
            f(row.p50_us, 1),
            f(row.max_us, 1),
            row.retries.to_string(),
            row.timeouts.to_string(),
            row.redelegations.to_string(),
            row.respawns.to_string(),
            row.dropped_frames.to_string(),
            row.duplicated_frames.to_string(),
        ]);
    }
    print!("{}", table.to_markdown());
    println!(
        "\nre-delegation held recall 1.0 across loss {:?}‰ × crashes {:?} (asserted in-run)",
        LOSS_PER_MILLE, CRASHES
    );

    println!("\n### JSON series (vs loss rate)\n");
    for &crashes in &CRASHES {
        for &strategy in &STRATEGIES {
            let name = strategy_name(strategy);
            let points: Vec<(f64, f64)> = rows
                .iter()
                .filter(|row| row.crashes == crashes && row.strategy == name)
                .map(|row| (f64::from(row.loss_per_mille) / 10.0, row.recall))
                .collect();
            println!(
                "{}",
                json_series(
                    "faults_recall",
                    &[
                        ("strategy", name.to_string()),
                        ("crashes", crashes.to_string()),
                    ],
                    "loss %",
                    "recall",
                    &points,
                )
            );
        }
    }
    rows
}

/// Writes the sweep as a seed-stamped JSON object (the
/// `BENCH_faults.json` artifact): `{"seed":N,"rows":[…]}`.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing `path`.
pub fn write_json(rows: &[FaultsRow], seed: u64, path: &Path) -> std::io::Result<()> {
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"r\":{},\"workers\":{},\"loss_per_mille\":{},\"crashes\":{},\
                 \"strategy\":\"{}\",\"queries\":{},\"recall\":{:.6},\"complete\":{},\
                 \"p50_us\":{:.2},\"max_us\":{:.2},\"retries\":{},\"timeouts\":{},\
                 \"redelegations\":{},\"respawns\":{},\"dropped_frames\":{},\
                 \"duplicated_frames\":{}}}",
                r.r,
                r.workers,
                r.loss_per_mille,
                r.crashes,
                r.strategy,
                r.queries,
                r.recall,
                r.complete,
                r.p50_us,
                r.max_us,
                r.retries,
                r.timeouts,
                r.redelegations,
                r.respawns,
                r.dropped_frames,
                r.duplicated_frames,
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
    fn sweep_grades_strategies_and_is_deterministic() {
        let ctx = SharedContext::new(Scale::Small, 1);
        let rows = run(&ctx);
        assert_eq!(
            rows.len(),
            LOSS_PER_MILLE.len() * CRASHES.len() * STRATEGIES.len()
        );
        for row in &rows {
            assert!(row.queries > 0, "{row:?}");
            assert!((0.0..=1.0).contains(&row.recall), "{row:?}");
            assert!(row.p50_us <= row.max_us, "{row:?}");
            if row.strategy == "redelegate" {
                assert!((row.recall - 1.0).abs() < f64::EPSILON, "{row:?}");
            }
            if row.loss_per_mille == 0 && row.crashes == 0 {
                assert_eq!(row.recall, 1.0, "fault-free cell lost recall: {row:?}");
                assert_eq!(row.dropped_frames, 0, "{row:?}");
                assert_eq!(row.respawns, 0, "{row:?}");
            }
            if row.crashes > 0 {
                assert!(row.respawns >= 1, "crash cell never respawned: {row:?}");
            }
        }
        // Fault schedules and frame accounting replay exactly.
        let again = run(&ctx);
        let keys: Vec<_> = rows.iter().map(FaultsRow::deterministic_key).collect();
        let again_keys: Vec<_> = again.iter().map(FaultsRow::deterministic_key).collect();
        assert_eq!(keys, again_keys, "fault sweep is not deterministic");
    }

    #[test]
    fn json_artifact_shape() {
        let row = FaultsRow {
            r: 8,
            workers: 4,
            loss_per_mille: 100,
            crashes: 1,
            strategy: "redelegate",
            queries: 8,
            recall: 1.0,
            complete: 7,
            p50_us: 900.0,
            max_us: 40_000.0,
            retries: 31,
            timeouts: 2,
            redelegations: 2,
            respawns: 1,
            dropped_frames: 120,
            duplicated_frames: 14,
        };
        let dir = std::env::temp_dir().join("hyperdex_faults_json_test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("BENCH_faults.json");
        write_json(&[row], 42, &path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.starts_with("{\"seed\":42,\"rows\":[\n"));
        assert!(text.contains("\"strategy\":\"redelegate\""));
        assert!(text.contains("\"recall\":1.000000"));
        assert!(text.contains("\"respawns\":1"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
