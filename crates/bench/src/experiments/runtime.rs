//! Threaded-runtime throughput: queries/second and tail latency as
//! worker threads scale, with hard sim-parity asserts per cell.
//!
//! The shared-nothing runtime claims that sharding the hypercube's
//! vertices across worker threads buys throughput without changing a
//! single result. This sweep measures both halves of the claim across
//! **worker count**, **corpus size**, and **query mix**:
//!
//! * before anything is timed, every `(corpus, workers)` cell runs
//!   [`hyperdex_runtime::assert_sim_parity`] — runtime vs.
//!   message simulator vs. direct engine, set-identical results per
//!   query plus frame conservation at shutdown, or the bench panics
//!   (non-zero exit under the CI smoke job);
//! * then each query mix is replayed through
//!   [`hyperdex_runtime::NodeRuntime::run_batch`] with a fixed
//!   in-flight window — one untimed warmup pass, then the best of
//!   three timed passes — reporting queries/second and p50/p99
//!   per-request latency.
//!
//! Most wall-clock numbers are reported, not asserted — CI boxes are
//! noisy — but the issue-8 regression bar *is* enforced in-run: the
//! scan mix at the widest worker count `w` must
//! stay within the locality envelope of `w`× the 1-worker frame
//! volume — the point-to-point floor is 2(regions−1)+2 frames per
//! query against a 2-frame baseline, so the ratio is bounded by `w`
//! and measures ~5.5 at `w = 8` versus 22–64× before locality
//! sharding (deterministic, always checked) — and must beat the
//! 1-worker throughput (checked in optimized builds on hosts with at
//! least `w` cores, where the claim is meaningful). Everything else
//! is carried by the checked-in `BENCH_runtime.json` artifact, whose
//! frame counts are deterministic and double as a regression surface.
//!
//! Every worker answers a repeated superset query from its result
//! cache (`cache_hit_ratio` per row). The scan mix is the traversal
//! measure both bars rest on, so it never repeats a query — every
//! pass replays its own distinct keyword sets and every request walks
//! the cube (checked: its `cache_hit_ratio` is 0). The mixed mix
//! repeats a handful of popular queries the way a skewed stream does
//! and shows what the cache makes of them.

use std::path::Path;
use std::time::Instant;

use hyperdex_core::{KeywordSet, ObjectId};
use hyperdex_runtime::{assert_sim_parity, NodeRuntime, Request, RuntimeConfig};
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

use crate::report::{f, json_series, section, Table};
use crate::{Scale, SharedContext};

/// Worker-thread counts swept (the thread-count axis).
pub const WORKER_COUNTS: [u32; 4] = [1, 2, 4, 8];
/// Corpus sizes swept at full scale.
pub const CORPUS_SIZES_FULL: [usize; 2] = [16_000, 64_000];
/// Corpus sizes swept at small scale (CI smoke). Sharding only pays
/// once per-vertex scans outweigh per-hop frame costs, so even the
/// small scale needs dense vertices (~16 and ~64 entries each).
pub const CORPUS_SIZES_SMALL: [usize; 2] = [4_000, 16_000];
/// Query-mix names, in sweep order.
pub const MIXES: [&str; 3] = ["pin", "scan", "mixed"];

/// Cube dimension: a small cube packs many entries per vertex, the
/// scan-heavy regime where extra workers have real work to steal.
const RUNTIME_R: u8 = 8;
/// Requests kept in flight by `run_batch` — fixed across worker counts
/// so the sweep varies exactly one thing.
const WINDOW: usize = 32;
/// Timed repetitions per cell; the best one is reported. One untimed
/// warmup pass runs first so no worker count pays the page-fault and
/// allocator warmup for the others.
pub(crate) const REPS: usize = 3;
/// Passes a cell replays: the warmup, then the timed repetitions.
pub(crate) const PASSES: usize = 1 + REPS;

/// One measured cell of the runtime sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeRow {
    /// Cube dimension `r`.
    pub r: u8,
    /// Objects indexed.
    pub corpus_size: usize,
    /// Query-mix name (one of [`MIXES`]).
    pub mix: &'static str,
    /// Worker threads.
    pub workers: u32,
    /// Requests replayed through the batch window.
    pub requests: usize,
    /// Completed requests per second.
    pub qps: f64,
    /// Median per-request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-request latency, microseconds.
    pub p99_us: f64,
    /// Total frames sent over the run (deterministic for a fixed seed,
    /// corpus, and worker count; conservation-checked at shutdown).
    pub frames: u64,
    /// This cell's frames over the 1-worker frames of the same
    /// `(corpus, mix)` — the fan-out factor sharding costs.
    /// Deterministic, so it doubles as a regression surface.
    pub frames_vs_single: f64,
    /// This cell's qps over the 1-worker qps of the same `(corpus,
    /// mix)` — > 1 ⇒ the extra threads paid for themselves.
    pub speedup: f64,
    /// Share of the superset queries the workers' result caches
    /// answered without a traversal (hits plus coalesced waits) — a
    /// count, deterministic like `frames`; 0 on the pin mix.
    pub cache_hit_ratio: f64,
}

impl RuntimeRow {
    /// The deterministic (seed-reproducible) projection of the row —
    /// everything except the wall-clock numbers.
    pub fn deterministic_key(&self) -> (u8, usize, &'static str, u32, usize, u64) {
        (
            self.r,
            self.corpus_size,
            self.mix,
            self.workers,
            self.requests,
            self.frames,
        )
    }
}

/// Builds the request batch pass number `pass` (of [`PASSES`]) of one
/// mix replays, from a cell's corpus and query log. Only the scan mix
/// differs from pass to pass. Shared with the `net` experiment so
/// channel and socket modes replay byte-identical workloads.
pub(crate) fn requests_for(
    mix: &str,
    corpus: &Corpus,
    log: &QueryLog,
    pass: usize,
) -> Vec<Request> {
    let broad = log.popular_of_size(1, 4);
    let narrow = log.popular_of_size(2, 4);
    let sets: Vec<&KeywordSet> = corpus.indexable().map(|(_, k)| k).collect();
    let mut out = Vec::new();
    match mix {
        // Pin-heavy: exact lookups, two frames each — the
        // frame-overhead floor.
        "pin" => {
            for i in 0..512 {
                out.push(Request::Pin(sets[i % sets.len()].clone()));
            }
        }
        // Scan-heavy: exhaustive superset traversals over the induced
        // subcubes — the regime where sharding the scans should scale.
        // Twelve tiles of four broad and four narrow queries, no query
        // used twice in any pass, so no result cache ever answers one.
        "scan" => {
            const PER_PASS: usize = 12 * 4;
            let broad = log.popular_of_size(1, PER_PASS * PASSES);
            let narrow = log.popular_of_size(2, PER_PASS * PASSES);
            assert_eq!(
                (broad.len(), narrow.len()),
                (PER_PASS * PASSES, PER_PASS * PASSES),
                "the query pool is too small for a non-repeating scan mix"
            );
            let mine = pass * PER_PASS..(pass + 1) * PER_PASS;
            for (b, n) in broad[mine.clone()].chunks(4).zip(narrow[mine].chunks(4)) {
                for q in b.iter().chain(n) {
                    out.push(Request::Superset {
                        keywords: q.clone(),
                        threshold: usize::MAX - 1,
                    });
                }
            }
        }
        // Mixed: thresholded supersets (early-stop path) interleaved
        // with pins, the shape a real front-end would send.
        "mixed" => {
            for tile in 0..16 {
                for q in &broad {
                    out.push(Request::Superset {
                        keywords: q.clone(),
                        threshold: 32,
                    });
                }
                for q in &narrow {
                    out.push(Request::Superset {
                        keywords: q.clone(),
                        threshold: usize::MAX - 1,
                    });
                }
                for i in 0..6 {
                    out.push(Request::Pin(sets[(tile * 6 + i) % sets.len()].clone()));
                }
            }
        }
        other => panic!("unknown mix {other:?}"),
    }
    out
}

/// The per-cell parity queries: broad and narrow popular sets, an
/// early-stop threshold, and a guaranteed miss.
pub(crate) fn parity_queries(log: &QueryLog) -> Vec<(KeywordSet, usize)> {
    let mut queries: Vec<(KeywordSet, usize)> = Vec::new();
    for kw in log.popular_of_size(1, 2) {
        queries.push((kw.clone(), usize::MAX - 1));
        queries.push((kw, 3));
    }
    for kw in log.popular_of_size(2, 2) {
        queries.push((kw, usize::MAX - 1));
    }
    queries.push((
        KeywordSet::parse("no such keyword anywhere").expect("parses"),
        10,
    ));
    queries
}

/// Runs the runtime sweep, prints the markdown table and JSON series,
/// and returns the rows.
///
/// # Panics
///
/// Panics if any `(corpus, workers)` cell fails sim parity (result
/// sets or frame conservation), or a timed run's shutdown loses a
/// frame — the invariants CI runs as a smoke check.
pub fn run(ctx: &SharedContext) -> Vec<RuntimeRow> {
    section("Runtime — threaded shared-nothing throughput vs. worker count");
    let corpus_sizes = match ctx.scale {
        Scale::Full => CORPUS_SIZES_FULL,
        Scale::Small => CORPUS_SIZES_SMALL,
    };

    let mut rows: Vec<RuntimeRow> = Vec::new();
    for &n in &corpus_sizes {
        let cell_seed = ctx.seed ^ (u64::from(RUNTIME_R) << 32) ^ (n as u64);
        let corpus = Corpus::generate(&CorpusConfig::pchome().with_objects(n), cell_seed);
        let log = QueryLog::generate(
            &QueryLogConfig::pchome_day().with_queries(4_000),
            &corpus,
            cell_seed ^ 0xF00D,
        );
        let entries: Vec<(ObjectId, KeywordSet)> =
            corpus.indexable().map(|(id, k)| (id, k.clone())).collect();

        // Parity first, untimed: every worker count must return
        // set-identical results to the simulator and the direct
        // engine, and conserve frames.
        let checks = parity_queries(&log);
        for &workers in &WORKER_COUNTS {
            let report = assert_sim_parity(RUNTIME_R, cell_seed, workers, &entries, &checks);
            assert_eq!(report.shutdown.in_flight(), 0);
        }
        println!(
            "parity: {} objects × {} queries × workers {WORKER_COUNTS:?} — ok",
            entries.len(),
            checks.len()
        );

        for mix in MIXES {
            let passes: Vec<Vec<Request>> = (0..PASSES)
                .map(|pass| requests_for(mix, &corpus, &log, pass))
                .collect();
            for &workers in &WORKER_COUNTS {
                let mut rt =
                    NodeRuntime::start(RuntimeConfig::new(RUNTIME_R, workers).seed(cell_seed))
                        .expect("valid r");
                rt.bulk_load(entries.iter().map(|(id, k)| (*id, k)))
                    .expect("non-empty sets");
                rt.flush();

                // One warmup pass, then the best of REPS timed passes.
                rt.run_batch(&passes[0], WINDOW);
                let mut best_qps = 0.0f64;
                let mut best_lat: Vec<f64> = Vec::new();
                for requests in &passes[1..] {
                    let t0 = Instant::now();
                    let batch = rt.run_batch(requests, WINDOW);
                    let secs = t0.elapsed().as_secs_f64();
                    let qps = if secs == 0.0 {
                        f64::INFINITY
                    } else {
                        requests.len() as f64 / secs
                    };
                    if qps >= best_qps {
                        best_qps = qps;
                        best_lat = batch
                            .iter()
                            .map(|b| b.latency.as_secs_f64() * 1e6)
                            .collect();
                    }
                }
                best_lat.sort_by(|a, b| a.total_cmp(b));
                let pct = |p: f64| best_lat[((best_lat.len() - 1) as f64 * p) as usize];

                let report = rt.shutdown();
                report.assert_conserved();

                rows.push(RuntimeRow {
                    r: RUNTIME_R,
                    corpus_size: n,
                    mix,
                    workers,
                    requests: passes[0].len(),
                    qps: best_qps,
                    p50_us: pct(0.50),
                    p99_us: pct(0.99),
                    frames: report.total_sent(),
                    // Both filled in below from the 1-worker
                    // baseline of the same (corpus, mix).
                    frames_vs_single: 0.0,
                    speedup: 0.0,
                    cache_hit_ratio: report.cache().hit_ratio(),
                });
            }
        }
    }

    // Speedup and frame fan-out over the 1-worker run of the same
    // (corpus, mix).
    let baselines: Vec<(usize, &'static str, f64, u64)> = rows
        .iter()
        .filter(|r| r.workers == 1)
        .map(|r| (r.corpus_size, r.mix, r.qps, r.frames))
        .collect();
    for row in &mut rows {
        let (_, _, base_qps, base_frames) = *baselines
            .iter()
            .find(|(n, m, ..)| *n == row.corpus_size && *m == row.mix)
            .expect("1-worker baseline exists");
        row.speedup = if base_qps == 0.0 {
            0.0
        } else {
            row.qps / base_qps
        };
        row.frames_vs_single = if base_frames == 0 {
            0.0
        } else {
            row.frames as f64 / base_frames as f64
        };
    }

    // The issue-8 regression bar, asserted in-run so the CI bench
    // smoke fails the build on a locality regression: at the widest
    // worker count, scans must beat the 1-worker
    // baseline and stay within the locality envelope on frames. The
    // envelope is the point-to-point floor: a query spanning R prefix
    // regions needs one dispatch and one reply per cross-region edge
    // (2(R-1) frames) plus Query/QueryDone, R ≤ 2^⌈log2 w⌉ ≤ 2w, and
    // the 1-worker baseline pays 2 frames per query — so the ratio is
    // bounded by w. (Measured: ~5.5 at w = 8, versus 22-64× for
    // per-vertex hash placement or per-vertex dispatch.) The frame bound is
    // deterministic and always enforced; the wall-clock half only
    // means something in an optimized build on a host that actually
    // has `widest` cores — w threads on fewer cores can only
    // timeslice, never scale. Both halves are about traversals, so
    // first: no scan request was answered from a result cache.
    let widest = *WORKER_COUNTS.last().expect("non-empty sweep");
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    for row in rows.iter().filter(|r| r.mix == "scan") {
        assert!(
            row.cache_hit_ratio == 0.0,
            "a scan request was served from a result cache: {row:?}"
        );
    }
    for row in rows
        .iter()
        .filter(|r| r.mix == "scan" && r.workers == widest)
    {
        assert!(
            row.frames_vs_single <= widest as f64,
            "scan frame fan-out regressed: {row:?}"
        );
        #[cfg(not(debug_assertions))]
        if cores >= widest as usize {
            assert!(
                row.speedup > 1.0,
                "scan no longer scales at {widest} workers on {cores} cores: {row:?}"
            );
        }
    }
    #[cfg(debug_assertions)]
    let _ = cores;

    let mut table = Table::new([
        "r",
        "objects",
        "mix",
        "workers",
        "requests",
        "qps",
        "p50 µs",
        "p99 µs",
        "frames",
        "f×1w",
        "speedup",
        "cache hit",
    ]);
    for row in &rows {
        table.row([
            row.r.to_string(),
            row.corpus_size.to_string(),
            row.mix.to_string(),
            row.workers.to_string(),
            row.requests.to_string(),
            f(row.qps, 0),
            f(row.p50_us, 1),
            f(row.p99_us, 1),
            row.frames.to_string(),
            f(row.frames_vs_single, 2),
            f(row.speedup, 2),
            f(row.cache_hit_ratio, 3),
        ]);
    }
    print!("{}", table.to_markdown());

    let wins = rows
        .iter()
        .filter(|r| r.workers > 1 && r.speedup > 1.0)
        .count();
    let multi = rows.iter().filter(|r| r.workers > 1).count();
    println!("\nmulti-worker runs beat the 1-worker baseline in {wins}/{multi} cells");

    println!("\n### JSON series (vs worker count)\n");
    for &n in &corpus_sizes {
        for mix in MIXES {
            let points: Vec<(f64, f64)> = rows
                .iter()
                .filter(|row| row.corpus_size == n && row.mix == mix)
                .map(|row| (f64::from(row.workers), row.qps))
                .collect();
            println!(
                "{}",
                json_series(
                    "runtime_qps",
                    &[("objects", n.to_string()), ("mix", mix.to_string())],
                    "workers",
                    "queries/sec",
                    &points,
                )
            );
        }
    }
    rows
}

/// Writes the sweep as a seed-stamped JSON object (the
/// `BENCH_runtime.json` artifact): `{"seed":N,"rows":[…]}`.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing `path`.
pub fn write_json(rows: &[RuntimeRow], seed: u64, path: &Path) -> std::io::Result<()> {
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"r\":{},\"corpus_size\":{},\"mix\":\"{}\",\
                 \"workers\":{},\"requests\":{},\"qps\":{:.2},\"p50_us\":{:.2},\
                 \"p99_us\":{:.2},\"frames\":{},\"frames_vs_single\":{:.4},\
                 \"speedup\":{:.4},\"cache_hit_ratio\":{:.4}}}",
                r.r,
                r.corpus_size,
                r.mix,
                r.workers,
                r.requests,
                r.qps,
                r.p50_us,
                r.p99_us,
                r.frames,
                r.frames_vs_single,
                r.speedup,
                r.cache_hit_ratio,
            )
        })
        .collect();
    crate::report::write_json_artifact(path, seed, &rendered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_passes_parity_and_frame_counts_are_deterministic() {
        let ctx = SharedContext::new(Scale::Small, 1);
        let rows = run(&ctx);
        assert_eq!(
            rows.len(),
            CORPUS_SIZES_SMALL.len() * MIXES.len() * WORKER_COUNTS.len()
        );
        for row in &rows {
            assert!(row.requests > 0, "empty batch in {row:?}");
            assert!(row.qps > 0.0, "{row:?}");
            assert!(row.p50_us <= row.p99_us, "{row:?}");
            assert!(row.frames > 0, "{row:?}");
            if row.workers == 1 {
                assert!((row.speedup - 1.0).abs() < 1e-9, "{row:?}");
                assert!((row.frames_vs_single - 1.0).abs() < 1e-9, "{row:?}");
            }
        }
        // Wall-clock rates vary run to run; the frame counts must not.
        let again = run(&ctx);
        let keys: Vec<_> = rows.iter().map(RuntimeRow::deterministic_key).collect();
        let again_keys: Vec<_> = again.iter().map(RuntimeRow::deterministic_key).collect();
        assert_eq!(keys, again_keys, "frame counts are not deterministic");
    }

    #[test]
    fn json_artifact_shape() {
        let row = RuntimeRow {
            r: 8,
            corpus_size: 1_000,
            mix: "scan",
            workers: 4,
            requests: 96,
            qps: 1234.5,
            p50_us: 800.0,
            p99_us: 2500.0,
            frames: 42_000,
            frames_vs_single: 1.25,
            speedup: 2.5,
            cache_hit_ratio: 0.875,
        };
        let dir = std::env::temp_dir().join("hyperdex_runtime_json_test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("BENCH_runtime.json");
        write_json(&[row], 42, &path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.starts_with("{\"seed\":42,\"rows\":[\n"));
        assert!(text.contains("\"mix\":\"scan\""));
        assert!(text.contains("\"qps\":1234.50"));
        assert!(text.contains("\"frames_vs_single\":1.2500"));
        assert!(text.contains("\"speedup\":2.5000"));
        assert!(text.contains("\"cache_hit_ratio\":0.8750"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
