//! Faults on the mesh: recall, latency and frames under lossy wires
//! and worker crashes, in virtual time.
//!
//! The runtime has one superset traversal — one round per prefix
//! region — and one unit of recovery, a region owner still awaited:
//! its `RegionQuery` is sent again when its deadline passes, and an
//! owner silent through the whole budget is given up as skipped
//! coverage. (A region has no subtree to route around, so the retry
//! and re-delegation strategies the simulator's `availability` sweep
//! compares are the same thing here; the sweep has no strategy axis.)
//! This sweep measures that machine across **frame-loss rate** ×
//! **worker crashes** on a fixed 4-worker cluster, run by the
//! production machines and client on the virtual-time mesh
//! ([`hyperdex_runtime::Mesh`]): links of 1–10 ms drawn from a seeded
//! latency model, the wire's drop/duplicate/delay fates seeded too, so
//! a seed is one run, to the byte.
//!
//! * every query's result set is scored against the fault-free direct
//!   engine (recall = found/truth, aggregated over the query mix);
//! * per-query latency, in virtual milliseconds, is reported as median,
//!   99th percentile and worst of the cell's 200 samples — the price of
//!   a deadline, backoff and a restart is visible in the tail;
//! * `frames_per_query` is every frame the cell's queries caused — the
//!   ledger once the mesh has settled, less the ledger after the load —
//!   so retransmissions and the answers to them count (a restart
//!   restores its shard from its load log in its constructor: no
//!   frame);
//! * retries, timeouts, worker restarts, and the dropped/duplicated
//!   frame counts come from the [`hyperdex_core::FtCoverage`]s and the
//!   conservation-checked shutdown report;
//! * the acceptance gates run in-process: at every swept loss rate
//!   (≤ 10%), with and without a mid-scan crash of a data-owning
//!   worker, recall must be exactly 1.0, and a restarted worker must
//!   answer as a twin that never crashed; and the fault-free cell must
//!   cost exactly the floor, `2 + 2·(other owners of the query's
//!   subcube)` frames a query, with no retry — the bench panics
//!   otherwise (CI runs this as its fault smoke).

use std::collections::BTreeSet;
use std::path::Path;

use hyperdex_core::{
    FtCoverage, HypercubeIndex, KeywordHasher, KeywordSet, ObjectId, SupersetQuery,
};
use hyperdex_runtime::{ClientCore, FaultPlan, Mesh, RuntimeConfig};
use hyperdex_simnet::LatencyModel;
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

use crate::report::{f, json_series, section, Table};
use crate::SharedContext;

/// Frame-loss rates swept, in per-mille (0%, 5%, 10%).
pub const LOSS_PER_MILLE: [u16; 3] = [0, 50, 100];
/// Crash counts swept (0 = wires only; 1 = a data-owning worker dies
/// on its first mid-scan frame).
pub const CRASHES: [u32; 2] = [0, 1];

/// Cube dimension: dense vertices, long broad-query traversals.
const FAULTS_R: u8 = 8;
/// Workers per cell.
const FAULTS_WORKERS: u32 = 4;
/// Link latencies, in virtual milliseconds: a healthy region round
/// trip stays under the 50 ms first deadline of the workers'
/// fault-tolerant policy.
const LINK_MS: (u64, u64) = (1, 10);
/// Objects indexed per cell.
const FAULTS_OBJECTS: usize = 2_000;
/// Queries per cell: enough for the 99th percentile to have samples
/// beyond it.
const FAULTS_QUERIES: usize = 200;

/// One measured cell of the fault sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsRow {
    /// Cube dimension `r`.
    pub r: u8,
    /// Workers.
    pub workers: u32,
    /// Injected frame loss, per mille of traversal sends.
    pub loss_per_mille: u16,
    /// Scheduled worker crashes.
    pub crashes: u32,
    /// Queries scored.
    pub queries: usize,
    /// Found / truth over all queries (1.0 = nothing lost).
    pub recall: f64,
    /// Queries whose coverage reported every vertex reached.
    pub complete: usize,
    /// Median per-query latency, virtual milliseconds.
    pub p50_ms: u64,
    /// 99th-percentile per-query latency, virtual milliseconds.
    pub p99_ms: u64,
    /// Worst per-query latency of the cell, virtual milliseconds.
    pub max_ms: u64,
    /// Frames the cell's queries caused, per query.
    pub frames_per_query: f64,
    /// `RegionQuery` retransmissions across all queries.
    pub retries: u64,
    /// Region owners given up across all queries.
    pub timeouts: u64,
    /// Worker restarts after a crash.
    pub respawns: u64,
    /// Frames the wire lost or a crash destroyed.
    pub dropped_frames: u64,
    /// Extra frame copies the wire delivered.
    pub duplicated_frames: u64,
}

/// Runs the fault sweep, prints the markdown table and JSON series,
/// and returns the rows.
///
/// # Panics
///
/// Panics when an acceptance gate fails — recall must be exactly 1.0
/// in every cell, a restarted worker must answer as its twin, the
/// fault-free cell must cost exactly the frame floor with no retry —
/// or when any shutdown violates frame conservation.
pub fn run(ctx: &SharedContext) -> Vec<FaultsRow> {
    section("Faults — recall, latency and frames under loss and crashes");

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

    // Query mix: broad (|K|=1) and narrower (|K|=2) popular sets,
    // cycled: an `FtQuery` is never served from a cache, so a repeat is
    // a whole traversal again.
    let mut mix: Vec<KeywordSet> = log.popular_of_size(1, 20);
    mix.extend(log.popular_of_size(2, 20));
    assert!(!mix.is_empty(), "query log produced no popular sets");
    let queries: Vec<&KeywordSet> = mix.iter().cycle().take(FAULTS_QUERIES).collect();

    // Fault-free ground truth per query, from the direct engine.
    let mut direct = HypercubeIndex::new(FAULTS_R, cell_seed).expect("valid r");
    for (id, k) in &entries {
        direct.insert(*id, k.clone()).expect("non-empty");
    }
    let truths: Vec<Vec<u64>> = queries
        .iter()
        .map(|&q| {
            let mut ids: Vec<u64> = direct
                .superset_search(&SupersetQuery::new(q.clone()).threshold(usize::MAX - 1))
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
    let cfg = RuntimeConfig::new(FAULTS_R, FAULTS_WORKERS).seed(cell_seed);
    let shards = cfg.shard_map();
    let victim = shards.owner_of(hasher.vertex_for(&entries[0].1).bits());
    // What the mix costs when nothing is lost: `FtQuery`/`FtQueryDone`
    // and one region round with every other owner of the subcube.
    let floor: u64 = queries
        .iter()
        .map(|&q| {
            let owners: BTreeSet<u32> = hasher
                .vertex_for(q)
                .subcube()
                .iter()
                .map(|v| shards.owner_of(v.bits()))
                .collect();
            2 * owners.len() as u64
        })
        .sum();

    let mut rows = Vec::new();
    for &loss in &LOSS_PER_MILLE {
        for &crashes in &CRASHES {
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
            let latency = LatencyModel::uniform(LINK_MS.0, LINK_MS.1);
            let mesh = Mesh::start(cfg, plan, latency, cell_seed);
            let mut client = ClientCore::new(hasher, shards, mesh, None);
            client
                .bulk_load(entries.iter().map(|(id, k)| (*id, k)))
                .expect("non-empty sets");
            client.flush().expect("the barrier is answered");
            let loaded = frames_sent(client.link());
            let mut lat_ms: Vec<u64> = Vec::new();
            let (mut found, mut truth_total) = (0usize, 0usize);
            let mut complete = 0usize;
            let mut traffic = FtCoverage::default();
            for (&q, truth) in queries.iter().zip(&truths) {
                let t0 = client.link().now();
                let out = client
                    .superset_search_ft(q, usize::MAX - 1)
                    .expect("non-zero threshold");
                lat_ms.push((client.link().now() - t0).as_millis() as u64);
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
            // Every straggler delivered and every deadline met: what
            // the queries cost is all on the books.
            let mut mesh = client.into_link();
            mesh.settle();
            let query_frames = frames_sent(&mesh) - loaded;
            mesh.check_respawns();
            let report = mesh.shutdown();
            report.assert_conserved();

            let recall = if truth_total == 0 {
                1.0
            } else {
                found as f64 / truth_total as f64
            };
            // The acceptance gates: every swept loss rate, with or
            // without a data-owning crash, is survived at full recall;
            // and with no fault a query costs the floor, to the frame.
            assert!(
                (recall - 1.0).abs() < f64::EPSILON,
                "recall lost: loss={loss}‰ crashes={crashes} recall={recall}"
            );
            if loss == 0 && crashes == 0 {
                assert_eq!(
                    (query_frames, traffic.retries),
                    (floor, 0),
                    "a fault-free query costs the floor"
                );
            }

            lat_ms.sort_unstable();
            let percentile = |p: usize| lat_ms[(lat_ms.len() - 1) * p / 100];
            rows.push(FaultsRow {
                r: FAULTS_R,
                workers: FAULTS_WORKERS,
                loss_per_mille: loss,
                crashes,
                queries: queries.len(),
                recall,
                complete,
                p50_ms: percentile(50),
                p99_ms: percentile(99),
                max_ms: percentile(100),
                frames_per_query: query_frames as f64 / queries.len() as f64,
                retries: traffic.retries,
                timeouts: traffic.timeouts,
                respawns: report.supervisor.respawns,
                dropped_frames: report.total_dropped(),
                duplicated_frames: report.copied,
            });
        }
    }

    let mut table = Table::new([
        "loss ‰",
        "crashes",
        "queries",
        "recall",
        "complete",
        "p50 ms",
        "p99 ms",
        "max ms",
        "frames/query",
        "retries",
        "timeouts",
        "respawns",
        "dropped",
        "dup",
    ]);
    for row in &rows {
        table.row([
            row.loss_per_mille.to_string(),
            row.crashes.to_string(),
            row.queries.to_string(),
            f(row.recall, 4),
            row.complete.to_string(),
            row.p50_ms.to_string(),
            row.p99_ms.to_string(),
            row.max_ms.to_string(),
            f(row.frames_per_query, 3),
            row.retries.to_string(),
            row.timeouts.to_string(),
            row.respawns.to_string(),
            row.dropped_frames.to_string(),
            row.duplicated_frames.to_string(),
        ]);
    }
    print!("{}", table.to_markdown());
    println!(
        "\nrecall held at 1.0 across loss {:?}‰ × crashes {:?}, and the fault-free cell cost \
         the floor of {:.3} frames a query (both asserted in-run)",
        LOSS_PER_MILLE,
        CRASHES,
        floor as f64 / queries.len() as f64
    );

    println!("\n### JSON series (vs loss rate)\n");
    for &crashes in &CRASHES {
        let points: Vec<(f64, f64)> = rows
            .iter()
            .filter(|row| row.crashes == crashes)
            .map(|row| (f64::from(row.loss_per_mille) / 10.0, row.frames_per_query))
            .collect();
        println!(
            "{}",
            json_series(
                "faults_frames_per_query",
                &[("crashes", crashes.to_string())],
                "loss %",
                "frames per query",
                &points,
            )
        );
    }
    rows
}

/// Frames the mesh's client and workers have sent so far.
fn frames_sent(mesh: &Mesh) -> u64 {
    let workers = 0..FAULTS_WORKERS as usize;
    mesh.client_sent + workers.map(|w| mesh.stats(w).frames_sent).sum::<u64>()
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
                 \"queries\":{},\"recall\":{:.6},\"complete\":{},\
                 \"p50_ms\":{},\"p99_ms\":{},\"max_ms\":{},\
                 \"frames_per_query\":{:.3},\"retries\":{},\"timeouts\":{},\
                 \"respawns\":{},\"dropped_frames\":{},\
                 \"duplicated_frames\":{}}}",
                r.r,
                r.workers,
                r.loss_per_mille,
                r.crashes,
                r.queries,
                r.recall,
                r.complete,
                r.p50_ms,
                r.p99_ms,
                r.max_ms,
                r.frames_per_query,
                r.retries,
                r.timeouts,
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
    fn sweep_holds_recall_and_is_deterministic() {
        // The checked-in file's seed, whose floor is 7.000 a query.
        let ctx = SharedContext::new(Scale::Small, 42);
        let rows = run(&ctx);
        assert_eq!(rows.len(), LOSS_PER_MILLE.len() * CRASHES.len());
        for row in &rows {
            assert_eq!(row.queries, FAULTS_QUERIES, "{row:?}");
            assert_eq!(row.recall, 1.0, "{row:?}");
            assert!(
                row.p50_ms <= row.p99_ms && row.p99_ms <= row.max_ms,
                "{row:?}"
            );
            if row.loss_per_mille == 0 && row.crashes == 0 {
                assert_eq!(row.complete, row.queries, "{row:?}");
                assert_eq!((row.dropped_frames, row.respawns), (0, 0), "{row:?}");
                assert_eq!((row.retries, row.frames_per_query), (0, 7.0), "{row:?}");
            }
            if row.crashes > 0 {
                assert!(row.respawns >= 1, "crash cell never respawned: {row:?}");
            }
        }
        // A seed is one run: every column of every cell replays.
        assert_eq!(rows, run(&ctx), "fault sweep is not deterministic");
    }

    #[test]
    fn json_artifact_shape() {
        let row = FaultsRow {
            r: 8,
            workers: 4,
            loss_per_mille: 100,
            crashes: 1,
            queries: 200,
            recall: 1.0,
            complete: 199,
            p50_ms: 9,
            p99_ms: 300,
            max_ms: 1_550,
            frames_per_query: 6.25,
            retries: 31,
            timeouts: 2,
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
        assert!(text.contains("\"p50_ms\":9,\"p99_ms\":300,\"max_ms\":1550,"));
        assert!(text.contains("\"frames_per_query\":6.250"));
        assert!(text.contains("\"recall\":1.000000"));
        assert!(text.contains("\"respawns\":1"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
