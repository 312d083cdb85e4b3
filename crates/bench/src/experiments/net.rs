//! Socket-mode throughput: the same batched workload through a real
//! multi-process TCP cluster, side by side with the in-process
//! channel fabric.
//!
//! Every cell replays a byte-identical request batch (shared with the
//! `runtime` sweep via [`super::runtime::requests_for`]) two ways:
//!
//! * **channel mode** — [`hyperdex_runtime::NodeRuntime::run_batch`]
//!   with `workers` threads, the PR 6 baseline;
//! * **socket mode** — a loopback cluster of `workers` server
//!   processes (one shard each) driven through
//!   [`hyperdex_net::NetClient::run_batch`] with the same in-flight
//!   window.
//!
//! Before anything is timed the cell runs the four-executor parity
//! check ([`hyperdex_net::assert_net_parity`]), so a socket-layer bug
//! cannot masquerade as a performance result. Both modes assert frame
//! conservation at shutdown. The `socket/channel` column is the
//! honest price of real syscalls and process hops: expected **below
//! 1** on loopback, shrinking as scans dominate frames. The scan mix
//! never repeats a query, so every one of its requests is a traversal
//! whatever the servers' result caches hold (`cache_hit_ratio` per
//! row: 0 there, and what the cache makes of a skewed stream on the
//! mixed mix).

use std::path::Path;
use std::time::Instant;

use hyperdex_core::{KeywordSet, ObjectId};
use hyperdex_net::client::NetConfig;
use hyperdex_net::cluster::{server_binary, Cluster, ClusterConfig};
use hyperdex_net::parity::assert_net_parity;
use hyperdex_runtime::{NodeRuntime, Request, RuntimeConfig};
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

use crate::experiments::runtime::{parity_queries, requests_for, PASSES};
use crate::report::{f, json_series, section, Table};
use crate::{Scale, SharedContext};

/// Cluster sizes swept: `workers` processes, one shard each.
pub const CLUSTER_SIZES: [u32; 3] = [1, 2, 4];
/// Query-mix names, in sweep order (shared with the runtime sweep).
pub const MIXES: [&str; 3] = ["pin", "scan", "mixed"];

/// Cube dimension (same scan-heavy regime as the runtime sweep).
const NET_R: u8 = 8;

/// Objects indexed per scale. One size per scale — each cell pays
/// real process launches, so the sweep axis is cluster size, not
/// corpus size.
const OBJECTS_FULL: usize = 16_000;
const OBJECTS_SMALL: usize = 4_000;

/// One measured cell of the socket sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct NetRow {
    /// Cube dimension `r`.
    pub r: u8,
    /// Objects indexed.
    pub corpus_size: usize,
    /// Query-mix name (one of [`MIXES`]).
    pub mix: &'static str,
    /// Server processes (= worker shards).
    pub servers: u32,
    /// Requests kept in flight per connection (`NetConfig::window`).
    pub window: usize,
    /// Requests replayed through the batch window.
    pub requests: usize,
    /// Socket-mode completed requests per second.
    pub qps: f64,
    /// Socket-mode median per-request latency, microseconds.
    pub p50_us: f64,
    /// Socket-mode p99 per-request latency, microseconds.
    pub p99_us: f64,
    /// Socket-mode frames sent over the run (deterministic;
    /// conservation-checked at shutdown).
    pub frames: u64,
    /// Channel-mode qps on the same batch and worker count.
    pub channel_qps: f64,
    /// `qps / channel_qps` — the cost of real sockets.
    pub socket_vs_channel: f64,
    /// Share of the superset queries the servers' result caches
    /// answered without a traversal (hits plus coalesced waits) — a
    /// count, deterministic like `frames`; 0 on the pin mix.
    pub cache_hit_ratio: f64,
}

impl NetRow {
    /// The deterministic (seed-reproducible) projection of the row.
    pub fn deterministic_key(&self) -> (u8, usize, &'static str, u32, usize, u64) {
        (
            self.r,
            self.corpus_size,
            self.mix,
            self.servers,
            self.requests,
            self.frames,
        )
    }
}

/// Times one warmup pass plus the best of the timed passes; `run`
/// replays one pass's batch and returns its per-request latencies in
/// microseconds.
fn best_of(
    passes: &[Vec<Request>],
    mut run: impl FnMut(&[Request]) -> Vec<f64>,
) -> (f64, Vec<f64>) {
    run(&passes[0]); // warmup
    let mut best_qps = 0.0f64;
    let mut best_lat: Vec<f64> = Vec::new();
    for requests in &passes[1..] {
        let t0 = Instant::now();
        let lat = run(requests);
        let secs = t0.elapsed().as_secs_f64();
        let qps = if secs == 0.0 {
            f64::INFINITY
        } else {
            requests.len() as f64 / secs
        };
        if qps >= best_qps {
            best_qps = qps;
            best_lat = lat;
        }
    }
    best_lat.sort_by(|a, b| a.total_cmp(b));
    (best_qps, best_lat)
}

/// Runs the socket sweep, prints the markdown table and JSON series,
/// and returns the rows.
///
/// # Panics
///
/// Panics when the `hyperdex-server` binary cannot be found (build it
/// with `cargo build -p hyperdex-net` first), when any cell fails
/// four-executor parity, or when either mode's shutdown loses a frame.
pub fn run(ctx: &SharedContext) -> Vec<NetRow> {
    section("Net — socket-mode throughput vs. the in-process channel fabric");
    let bin = server_binary().expect("hyperdex-server binary (cargo build -p hyperdex-net)");
    // `HYPERDEX_NET_SMOKE=1` shrinks the sweep to the CI throughput
    // smoke: pin mix only, {1, 2} processes, small corpus — enough to
    // catch a transport regression without a full bench run.
    let smoke = std::env::var("HYPERDEX_NET_SMOKE").is_ok_and(|v| v == "1");
    let sizes: &[u32] = if smoke {
        &CLUSTER_SIZES[..2]
    } else {
        &CLUSTER_SIZES
    };
    let mixes: &[&'static str] = if smoke { &MIXES[..1] } else { &MIXES };
    let window = NetConfig::default().window;
    let objects = match ctx.scale {
        Scale::Full => OBJECTS_FULL,
        Scale::Small => OBJECTS_SMALL,
    };
    let cell_seed = ctx.seed ^ (u64::from(NET_R) << 32) ^ (objects as u64);
    let corpus = Corpus::generate(&CorpusConfig::pchome().with_objects(objects), cell_seed);
    let log = QueryLog::generate(
        &QueryLogConfig::pchome_day().with_queries(4_000),
        &corpus,
        cell_seed ^ 0xF00D,
    );
    let entries: Vec<(ObjectId, KeywordSet)> =
        corpus.indexable().map(|(id, k)| (id, k.clone())).collect();

    // Parity first, untimed: every cluster size must agree with the
    // direct engine, the sim, and the threaded runtime.
    let checks = parity_queries(&log);
    for &servers in sizes {
        let report = assert_net_parity(
            NET_R,
            cell_seed,
            servers,
            servers,
            &entries,
            &checks,
            Some(bin.clone()),
        );
        assert_eq!(report.shutdown.in_flight(), 0);
    }
    println!(
        "parity: {} objects × {} queries × processes {sizes:?} — ok (4 executors)",
        entries.len(),
        checks.len()
    );

    let mut rows: Vec<NetRow> = Vec::new();
    for &mix in mixes {
        let passes: Vec<Vec<Request>> = (0..PASSES)
            .map(|pass| requests_for(mix, &corpus, &log, pass))
            .collect();
        for &servers in sizes {
            // Channel mode: the in-process baseline on the same batch.
            let mut rt = NodeRuntime::start(RuntimeConfig::new(NET_R, servers).seed(cell_seed))
                .expect("valid r");
            rt.bulk_load(entries.iter().map(|(id, k)| (*id, k)))
                .expect("non-empty sets");
            rt.flush();
            let (channel_qps, _) = best_of(&passes, |requests| {
                rt.run_batch(requests, window)
                    .iter()
                    .map(|b| b.latency.as_secs_f64() * 1e6)
                    .collect()
            });
            rt.shutdown().assert_conserved();

            // Socket mode: one process per shard over loopback.
            let mut cfg = ClusterConfig::new(NET_R, cell_seed, servers, servers);
            cfg.server_bin = Some(bin.clone());
            let cluster = Cluster::launch(cfg).expect("cluster launch");
            let mut client = cluster.client().expect("cluster client");
            for (id, k) in &entries {
                client.insert(*id, k.clone()).expect("insert");
            }
            client.flush().expect("flush barrier");
            let (qps, lat) = best_of(&passes, |requests| {
                client
                    .run_batch(requests, window)
                    .expect("batch over TCP")
                    .iter()
                    .map(|b| b.latency.as_secs_f64() * 1e6)
                    .collect()
            });
            let report = cluster.shutdown(client).expect("cluster shutdown");
            report.assert_conserved();

            let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
            rows.push(NetRow {
                r: NET_R,
                corpus_size: objects,
                mix,
                servers,
                window,
                requests: passes[0].len(),
                qps,
                p50_us: pct(0.50),
                p99_us: pct(0.99),
                frames: report.total_sent(),
                channel_qps,
                socket_vs_channel: if channel_qps == 0.0 {
                    0.0
                } else {
                    qps / channel_qps
                },
                cache_hit_ratio: report.cache().hit_ratio(),
            });
        }
    }

    // The scan bar below is about traversals: no scan request may
    // have been answered from a result cache.
    for row in rows.iter().filter(|r| r.mix == "scan") {
        assert!(
            row.cache_hit_ratio == 0.0,
            "a scan request was served from a result cache: {row:?}"
        );
    }

    // In-run throughput bars: real perf claims only hold in release
    // builds on hosts with enough cores to actually run the processes
    // in parallel, so both gates check that first.
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    #[cfg(not(debug_assertions))]
    for row in &rows {
        if row.mix == "pin" && row.servers == 2 && cores >= 2 {
            assert!(
                row.socket_vs_channel >= 0.5,
                "socket throughput bar: pin mix at 2 processes reached only \
                 {:.3}× of channel mode (bar: 0.5)",
                row.socket_vs_channel
            );
        }
        if row.mix == "scan" && row.servers == 4 && cores >= 4 {
            assert!(
                row.socket_vs_channel >= 0.8,
                "socket throughput bar: scan mix at 4 processes reached only \
                 {:.3}× of channel mode (bar: 0.8)",
                row.socket_vs_channel
            );
        }
    }
    let _ = cores;

    let mut table = Table::new([
        "r",
        "objects",
        "mix",
        "processes",
        "window",
        "requests",
        "qps",
        "p50 µs",
        "p99 µs",
        "frames",
        "channel qps",
        "socket/channel",
        "cache hit",
    ]);
    for row in &rows {
        table.row([
            row.r.to_string(),
            row.corpus_size.to_string(),
            row.mix.to_string(),
            row.servers.to_string(),
            row.window.to_string(),
            row.requests.to_string(),
            f(row.qps, 0),
            f(row.p50_us, 1),
            f(row.p99_us, 1),
            row.frames.to_string(),
            f(row.channel_qps, 0),
            f(row.socket_vs_channel, 3),
            f(row.cache_hit_ratio, 3),
        ]);
    }
    print!("{}", table.to_markdown());

    println!("\n### JSON series (vs cluster size)\n");
    for &mix in mixes {
        let points: Vec<(f64, f64)> = rows
            .iter()
            .filter(|row| row.mix == mix)
            .map(|row| (f64::from(row.servers), row.qps))
            .collect();
        println!(
            "{}",
            json_series(
                "net_qps",
                &[("objects", objects.to_string()), ("mix", mix.to_string()),],
                "processes",
                "queries/sec",
                &points,
            )
        );
    }
    rows
}

/// Writes the sweep as a seed-stamped JSON object (the
/// `BENCH_net.json` artifact): `{"seed":N,"rows":[…]}`.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing `path`.
pub fn write_json(rows: &[NetRow], seed: u64, path: &Path) -> std::io::Result<()> {
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"r\":{},\"corpus_size\":{},\"mix\":\"{}\",\
                 \"servers\":{},\"window\":{},\
                 \"requests\":{},\"qps\":{:.2},\"p50_us\":{:.2},\"p99_us\":{:.2},\
                 \"frames\":{},\"channel_qps\":{:.2},\"socket_vs_channel\":{:.4},\
                 \"cache_hit_ratio\":{:.4}}}",
                r.r,
                r.corpus_size,
                r.mix,
                r.servers,
                r.window,
                r.requests,
                r.qps,
                r.p50_us,
                r.p99_us,
                r.frames,
                r.channel_qps,
                r.socket_vs_channel,
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
    fn json_artifact_shape() {
        let row = NetRow {
            r: 8,
            corpus_size: 1_000,
            mix: "pin",
            servers: 2,
            window: 32,
            requests: 512,
            qps: 900.5,
            p50_us: 950.0,
            p99_us: 4200.0,
            frames: 2048,
            channel_qps: 4500.0,
            socket_vs_channel: 0.2,
            cache_hit_ratio: 0.0,
        };
        let dir = std::env::temp_dir().join("hyperdex_net_json_test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("BENCH_net.json");
        write_json(&[row], 42, &path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.starts_with("{\"seed\":42,\"rows\":[\n"));
        assert!(text.contains("\"servers\":2"));
        assert!(text.contains("\"window\":32"));
        assert!(text.contains("\"channel_qps\":4500.00"));
        assert!(text.contains("\"socket_vs_channel\":0.2000"));
        assert!(text.contains("\"cache_hit_ratio\":0.0000"));
        assert!(text.trim_end().ends_with("]}"));
    }

    #[test]
    fn one_socket_cell_end_to_end() {
        // The full sweep runs under the bench smoke job; here one tiny
        // two-process cell proves the plumbing. Skipped when the server
        // binary has not been built (plain `cargo test` ordering).
        let Ok(bin) = server_binary() else {
            eprintln!("skipping: hyperdex-server not built");
            return;
        };
        let seed = 7u64;
        let corpus = Corpus::generate(&CorpusConfig::pchome().with_objects(300), seed);
        let entries: Vec<(ObjectId, KeywordSet)> =
            corpus.indexable().map(|(id, k)| (id, k.clone())).collect();
        let mut cfg = ClusterConfig::new(8, seed, 2, 2);
        cfg.server_bin = Some(bin);
        let cluster = Cluster::launch(cfg).expect("launch");
        let mut client = cluster.client().expect("client");
        for (id, k) in &entries {
            client.insert(*id, k.clone()).expect("insert");
        }
        client.flush().expect("flush");
        let requests: Vec<hyperdex_runtime::Request> = entries
            .iter()
            .take(32)
            .map(|(_, k)| hyperdex_runtime::Request::Pin(k.clone()))
            .collect();
        let results = client.run_batch(&requests, 8).expect("batch");
        assert_eq!(results.len(), 32);
        assert!(results.iter().all(|b| !b.objects.is_empty()));
        let report = cluster.shutdown(client).expect("shutdown");
        report.assert_conserved();
    }
}
