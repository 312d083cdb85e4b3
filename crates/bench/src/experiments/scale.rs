//! Million-object scale harness: sustained mixed traffic against both
//! posting-store backends with latency SLOs and bytes-per-object
//! accounting.
//!
//! Every other experiment answers "is the scheme right?" at corpus
//! sizes the paper used; this one answers "does the index hold up at
//! deployment scale?". The harness builds the *same* corpus into a
//! [`StoreBackend::Table`] index and a [`StoreBackend::Slab`] index,
//! then:
//!
//! * asserts **byte-identical result parity** between the backends on
//!   a sampled pin + superset query set (always on — a layout bug
//!   cannot hide behind a fast run);
//! * drives sustained mixed traffic (Zipf pins and pruned superset
//!   searches) per backend, recording p50/p99 per operation class
//!   against explicit latency budgets;
//! * accounts memory per backend via [`HypercubeIndex::store_footprint`]
//!   — resident bytes, bytes/object, slab slot occupancy and arena
//!   waste — and asserts the slab's bytes/object lands **strictly
//!   below** the table estimate and within an absolute budget
//!   ([`SLAB_BYTES_PER_OBJECT_BUDGET`]; both always on).
//!
//! Environment knobs (all optional):
//!
//! * `HYPERDEX_SCALE_OBJECTS` — corpus size (default 1,000,000);
//! * `HYPERDEX_SCALE_SMOKE=1` — CI smoke preset (60,000 objects over
//!   an `r = 12` cube — same objects-per-vertex density as the full
//!   run — with trimmed traffic) unless the explicit knobs override
//!   it;
//! * `HYPERDEX_SCALE_R` — cube dimension (default 16, smoke 12);
//! * `HYPERDEX_SCALE_PIN_P99_US` / `HYPERDEX_SCALE_SUP_P99_US` —
//!   p99 budgets in microseconds (defaults 500 / 180,000), enforced in
//!   release builds only, like the other wall-clock bars.
//!
//! Every executor defaults to the slab (DESIGN.md §17); this harness
//! builds both backends explicitly, since the comparison is the
//! experiment.

use std::path::Path;
use std::time::Instant;

use hyperdex_core::{HypercubeIndex, KeywordSet, ObjectId, StoreBackend, SupersetQuery};
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

use crate::report::{f, json_series, section, Table};
use crate::SharedContext;

/// Corpus size when no knob overrides it: the million-object bar from
/// the issue.
const DEFAULT_OBJECTS: usize = 1_000_000;
/// Corpus size under `HYPERDEX_SCALE_SMOKE=1`.
const SMOKE_OBJECTS: usize = 60_000;
/// Default cube dimension (2^16 vertices spreads a million objects at
/// ~15 objects/occupied-vertex under the pchome distribution).
const DEFAULT_R: u8 = 16;
/// Smoke cube dimension: 2^12 vertices keeps the full run's
/// objects-per-vertex density at [`SMOKE_OBJECTS`], so the slab-vs-
/// table byte comparison measures the same regime. (A near-empty
/// vertex is where the table's pointer graph is at its *cheapest*;
/// the slab's contiguous arrays win on populated vertices.)
const SMOKE_R: u8 = 12;
/// Default p99 budget for pin search, microseconds.
const DEFAULT_PIN_P99_US: f64 = 500.0;
/// Default p99 budget for pruned superset search, microseconds. A
/// pruned threshold-64 search over a million objects touches hundreds
/// of vertices; ~85 ms p99 measured on a 2025 container host, budget
/// set with ~2× headroom.
const DEFAULT_SUP_P99_US: f64 = 180_000.0;
/// Most resident bytes the slab index may spend per object. The
/// pchome corpus measures 188 B/object at both presets (~7.2 keywords
/// of ~8 bytes packed into one buffer, its `Arc` block, a slab slot, a
/// varint posting and the vertex's share of the node table); the
/// budget leaves ~25 % for a corpus with longer keywords, not for a
/// second allocation per keyword.
pub const SLAB_BYTES_PER_OBJECT_BUDGET: f64 = 240.0;
/// Result budget per superset search (early exit, like real clients).
const SUP_THRESHOLD: usize = 64;

/// Timed pin lookups per backend (full run / smoke).
const PINS: usize = 6_000;
const PINS_SMOKE: usize = 1_500;
/// Timed superset searches per backend (full run / smoke).
const SUPS: usize = 1_200;
const SUPS_SMOKE: usize = 300;
/// Queries cross-checked byte-for-byte between the backends.
const PARITY_PINS: usize = 800;
const PARITY_SUPS: usize = 200;

/// One backend's measured row.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleRow {
    /// Cube dimension `r`.
    pub r: u8,
    /// Objects indexed.
    pub objects: usize,
    /// Posting-store backend name (`table` | `slab`).
    pub backend: &'static str,
    /// Bulk-insert throughput, objects/second.
    pub insert_rate: f64,
    /// Pin-search latency percentiles, microseconds.
    pub pin_p50_us: f64,
    /// Pin p99, microseconds (SLO column).
    pub pin_p99_us: f64,
    /// The pin p99 budget the run was held to, microseconds.
    pub pin_slo_us: f64,
    /// Superset-search latency percentiles, microseconds.
    pub sup_p50_us: f64,
    /// Superset p99, microseconds (SLO column).
    pub sup_p99_us: f64,
    /// The superset p99 budget the run was held to, microseconds.
    pub sup_slo_us: f64,
    /// Resident posting-store bytes across every occupied vertex.
    pub bytes_resident: usize,
    /// `bytes_resident / objects`.
    pub bytes_per_object: f64,
    /// Live slots / total slots of the slab (1.0 for the table).
    pub slot_occupancy: f64,
    /// Dead bytes awaiting compaction in the posting arena (0 for the
    /// table).
    pub arena_waste: usize,
}

impl ScaleRow {
    /// The deterministic (seed-reproducible) projection of the row.
    pub fn deterministic_key(&self) -> (u8, usize, &'static str, usize, usize) {
        (
            self.r,
            self.objects,
            self.backend,
            self.bytes_resident,
            self.arena_waste,
        )
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Builds one index on `backend`, timing the bulk load.
fn build(
    backend: StoreBackend,
    r: u8,
    seed: u64,
    entries: &[(ObjectId, KeywordSet)],
) -> (HypercubeIndex, f64) {
    let mut index = HypercubeIndex::with_store(r, seed, backend).expect("valid r");
    let t0 = Instant::now();
    for (id, k) in entries {
        index.insert(*id, k.clone()).expect("non-empty set");
    }
    let secs = t0.elapsed().as_secs_f64();
    let rate = if secs == 0.0 {
        f64::INFINITY
    } else {
        entries.len() as f64 / secs
    };
    (index, rate)
}

/// Every `len / n`-th element of `items` — a deterministic stride
/// sample spread across the whole corpus.
fn stride<'a, T>(items: &'a [T], n: usize) -> impl Iterator<Item = &'a T> + 'a {
    let step = (items.len() / n.max(1)).max(1);
    items.iter().step_by(step).take(n)
}

/// Asserts byte-identical answers from both backends on sampled pin
/// and superset queries. Always on: this is the four-executor parity
/// discipline applied to the storage layer.
fn assert_backend_parity(
    table: &mut HypercubeIndex,
    slab: &mut HypercubeIndex,
    entries: &[(ObjectId, KeywordSet)],
    sups: &[KeywordSet],
) {
    for (_, k) in stride(entries, PARITY_PINS) {
        let a = table.pin_search(k);
        let b = slab.pin_search(k);
        assert_eq!(
            a.results, b.results,
            "pin parity broke between table and slab for {k:?}"
        );
    }
    for q in stride(sups, PARITY_SUPS) {
        let query = SupersetQuery::new(q.clone())
            .threshold(SUP_THRESHOLD)
            .use_cache(false)
            .prune(true);
        let a = table.superset_search(&query).expect("valid query");
        let b = slab.superset_search(&query).expect("valid query");
        assert_eq!(
            a.results, b.results,
            "superset parity broke between table and slab for {q:?}"
        );
        assert_eq!(a.stats.nodes_contacted, b.stats.nodes_contacted);
    }
}

/// Drives the mixed traffic against one index; returns sorted pin and
/// superset latencies in microseconds.
fn drive(
    index: &mut HypercubeIndex,
    entries: &[(ObjectId, KeywordSet)],
    sups: &[KeywordSet],
    pins: usize,
    sup_count: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mut pin_lat = Vec::with_capacity(pins);
    let mut sup_lat = Vec::with_capacity(sup_count);
    let pin_sample: Vec<&KeywordSet> = stride(entries, pins).map(|(_, k)| k).collect();
    let sup_sample: Vec<&KeywordSet> = stride(sups, sup_count).collect();
    // Interleave the classes so neither gets a warm-cache advantage:
    // one superset search per `pins / sup_count` pins.
    let per = (pin_sample.len() / sup_sample.len().max(1)).max(1);
    let mut sup_it = sup_sample.iter();
    for (i, k) in pin_sample.iter().enumerate() {
        let t0 = Instant::now();
        let out = index.pin_search(k);
        pin_lat.push(t0.elapsed().as_secs_f64() * 1e6);
        assert!(!out.results.is_empty(), "indexed set must pin-hit");
        if i % per == 0 {
            if let Some(q) = sup_it.next() {
                let query = SupersetQuery::new((*q).clone())
                    .threshold(SUP_THRESHOLD)
                    .use_cache(false)
                    .prune(true);
                let t0 = Instant::now();
                index.superset_search(&query).expect("valid query");
                sup_lat.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    pin_lat.sort_by(|a, b| a.total_cmp(b));
    sup_lat.sort_by(|a, b| a.total_cmp(b));
    (pin_lat, sup_lat)
}

/// Runs the scale harness, prints the markdown table and JSON series,
/// and returns one row per backend.
///
/// # Panics
///
/// Panics when backend parity breaks, when the slab does not beat the
/// table's bytes/object or exceeds [`SLAB_BYTES_PER_OBJECT_BUDGET`], or
/// (release builds only) when a p99 exceeds its budget.
pub fn run(ctx: &SharedContext) -> Vec<ScaleRow> {
    section("Scale — million-object mixed traffic, table vs slab store");
    let smoke = std::env::var("HYPERDEX_SCALE_SMOKE").is_ok_and(|v| v == "1");
    let objects = env_usize(
        "HYPERDEX_SCALE_OBJECTS",
        if smoke {
            SMOKE_OBJECTS
        } else {
            DEFAULT_OBJECTS
        },
    );
    let default_r = if smoke { SMOKE_R } else { DEFAULT_R };
    let r = env_usize("HYPERDEX_SCALE_R", default_r as usize) as u8;
    let pin_slo_us = env_f64("HYPERDEX_SCALE_PIN_P99_US", DEFAULT_PIN_P99_US);
    let sup_slo_us = env_f64("HYPERDEX_SCALE_SUP_P99_US", DEFAULT_SUP_P99_US);
    let (pins, sup_count) = if smoke {
        (PINS_SMOKE, SUPS_SMOKE)
    } else {
        (PINS, SUPS)
    };

    let cell_seed = ctx.seed ^ (u64::from(r) << 24) ^ (objects as u64);
    println!("generating {objects} objects (r = {r}, seed {cell_seed})...");
    let corpus = Corpus::generate(&CorpusConfig::pchome().with_objects(objects), cell_seed);
    let log = QueryLog::generate(
        &QueryLogConfig::pchome_day().with_queries(8_000),
        &corpus,
        cell_seed ^ 0xF00D,
    );
    let entries: Vec<(ObjectId, KeywordSet)> =
        corpus.indexable().map(|(id, k)| (id, k.clone())).collect();
    let sups: Vec<KeywordSet> = log.iter().cloned().collect();

    let (mut table_idx, table_rate) = build(StoreBackend::Table, r, cell_seed, &entries);
    let (mut slab_idx, slab_rate) = build(StoreBackend::Slab, r, cell_seed, &entries);
    println!(
        "loaded both backends: table {}/s, slab {}/s",
        f(table_rate, 0),
        f(slab_rate, 0)
    );

    // Result parity first, untimed, always on.
    assert_backend_parity(&mut table_idx, &mut slab_idx, &entries, &sups);
    println!(
        "parity: {PARITY_PINS} pins + {PARITY_SUPS} supersets — table ≡ slab (byte-identical)"
    );

    let mut rows = Vec::with_capacity(2);
    for (backend, index, insert_rate) in [
        (StoreBackend::Table, &mut table_idx, table_rate),
        (StoreBackend::Slab, &mut slab_idx, slab_rate),
    ] {
        let (pin_lat, sup_lat) = drive(index, &entries, &sups, pins, sup_count);
        let pct = |lat: &[f64], p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
        let foot = index.store_footprint();
        rows.push(ScaleRow {
            r,
            objects: entries.len(),
            backend: backend.name(),
            insert_rate,
            pin_p50_us: pct(&pin_lat, 0.50),
            pin_p99_us: pct(&pin_lat, 0.99),
            pin_slo_us,
            sup_p50_us: pct(&sup_lat, 0.50),
            sup_p99_us: pct(&sup_lat, 0.99),
            sup_slo_us,
            bytes_resident: foot.bytes_resident,
            bytes_per_object: foot.bytes_resident as f64 / entries.len() as f64,
            slot_occupancy: foot.slot_occupancy,
            arena_waste: foot.arena_waste,
        });
    }

    // In-run bars. Memory and SLO-column sanity are always on; the
    // wall-clock SLO itself is a release-build claim, like every
    // other timing bar in this suite.
    let (t, s) = (&rows[0], &rows[1]);
    assert!(
        s.bytes_resident < t.bytes_resident,
        "slab must be strictly smaller than the table: {} vs {} bytes",
        s.bytes_resident,
        t.bytes_resident
    );
    assert!(
        s.bytes_per_object <= SLAB_BYTES_PER_OBJECT_BUDGET,
        "slab index spends {:.1} bytes/object (budget {SLAB_BYTES_PER_OBJECT_BUDGET})",
        s.bytes_per_object
    );
    for row in &rows {
        assert!(
            row.pin_p99_us.is_finite() && row.pin_p99_us > 0.0,
            "pin p99 SLO column must be populated"
        );
        assert!(
            row.sup_p99_us.is_finite() && row.sup_p99_us > 0.0,
            "superset p99 SLO column must be populated"
        );
    }
    #[cfg(not(debug_assertions))]
    for row in &rows {
        assert!(
            row.pin_p99_us <= row.pin_slo_us,
            "{} pin p99 {:.1}µs blew the {:.1}µs budget",
            row.backend,
            row.pin_p99_us,
            row.pin_slo_us
        );
        assert!(
            row.sup_p99_us <= row.sup_slo_us,
            "{} superset p99 {:.1}µs blew the {:.1}µs budget",
            row.backend,
            row.sup_p99_us,
            row.sup_slo_us
        );
    }

    let mut out = Table::new([
        "r",
        "objects",
        "backend",
        "insert/s",
        "pin p50 µs",
        "pin p99 µs",
        "pin SLO µs",
        "sup p50 µs",
        "sup p99 µs",
        "sup SLO µs",
        "resident MiB",
        "bytes/object",
        "occupancy",
        "arena waste",
    ]);
    for row in &rows {
        out.row([
            row.r.to_string(),
            row.objects.to_string(),
            row.backend.to_string(),
            f(row.insert_rate, 0),
            f(row.pin_p50_us, 1),
            f(row.pin_p99_us, 1),
            f(row.pin_slo_us, 0),
            f(row.sup_p50_us, 1),
            f(row.sup_p99_us, 1),
            f(row.sup_slo_us, 0),
            f(row.bytes_resident as f64 / (1024.0 * 1024.0), 1),
            f(row.bytes_per_object, 1),
            f(row.slot_occupancy, 3),
            row.arena_waste.to_string(),
        ]);
    }
    print!("{}", out.to_markdown());
    println!(
        "\nslab/table bytes: {:.3}× ({} vs {} per object)",
        s.bytes_resident as f64 / t.bytes_resident as f64,
        f(s.bytes_per_object, 1),
        f(t.bytes_per_object, 1)
    );

    println!("\n### JSON series (vs backend)\n");
    let points: Vec<(f64, f64)> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| (i as f64, row.bytes_per_object))
        .collect();
    println!(
        "{}",
        json_series(
            "scale_bytes_per_object",
            &[("objects", objects.to_string()), ("r", r.to_string())],
            "backend (0=table, 1=slab)",
            "bytes/object",
            &points,
        )
    );

    rows
}

/// Writes the rows to `path` as a seed-stamped JSON artifact.
///
/// # Errors
///
/// Propagates I/O errors from writing `path`.
pub fn write_json(rows: &[ScaleRow], seed: u64, path: &Path) -> std::io::Result<()> {
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"r\":{},\"objects\":{},\"backend\":\"{}\",\"insert_rate\":{:.2},\
                 \"pin_p50_us\":{:.2},\"pin_p99_us\":{:.2},\"pin_slo_us\":{:.2},\
                 \"sup_p50_us\":{:.2},\"sup_p99_us\":{:.2},\"sup_slo_us\":{:.2},\
                 \"bytes_resident\":{},\"bytes_per_object\":{:.2},\
                 \"slot_occupancy\":{:.4},\"arena_waste\":{}}}",
                r.r,
                r.objects,
                r.backend,
                r.insert_rate,
                r.pin_p50_us,
                r.pin_p99_us,
                r.pin_slo_us,
                r.sup_p50_us,
                r.sup_p99_us,
                r.sup_slo_us,
                r.bytes_resident,
                r.bytes_per_object,
                r.slot_occupancy,
                r.arena_waste,
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
        let row = ScaleRow {
            r: 16,
            objects: 1_000_000,
            backend: "slab",
            insert_rate: 350_000.0,
            pin_p50_us: 4.2,
            pin_p99_us: 61.0,
            pin_slo_us: 500.0,
            sup_p50_us: 180.0,
            sup_p99_us: 2_400.0,
            sup_slo_us: 25_000.0,
            bytes_resident: 48_000_000,
            bytes_per_object: 48.0,
            slot_occupancy: 0.97,
            arena_waste: 1_024,
        };
        let dir = std::env::temp_dir().join("hyperdex_scale_json_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_scale.json");
        write_json(std::slice::from_ref(&row), 42, &path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.starts_with("{\"seed\":42,\"rows\":[\n"));
        assert!(text.contains("\"backend\":\"slab\""));
        assert!(text.contains("\"pin_p99_us\":61.00"));
        assert!(text.contains("\"sup_slo_us\":25000.00"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stride_covers_without_replacement() {
        let items: Vec<usize> = (0..100).collect();
        let picked: Vec<usize> = stride(&items, 10).copied().collect();
        assert_eq!(picked.len(), 10);
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
    }
}
