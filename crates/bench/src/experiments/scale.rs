//! Million-object scale harness: sustained mixed traffic against the
//! index with latency SLOs and bytes-per-object accounting.
//!
//! Every other experiment answers "is the scheme right?" at corpus
//! sizes the paper used; this one answers "does the index hold up at
//! deployment scale?". The harness builds the corpus into a
//! [`HypercubeIndex`], then:
//!
//! * drives sustained mixed traffic (Zipf pins and pruned superset
//!   searches), recording p50/p99 per operation class against explicit
//!   latency budgets (`PIN_P99_US` / `SUP_P99_US`, enforced in
//!   release builds only, like the other wall-clock bars);
//! * accounts memory via [`HypercubeIndex::store_footprint`] —
//!   resident bytes, bytes/object, slab slot occupancy and arena waste
//!   — and asserts bytes/object lands within an absolute budget
//!   ([`SLAB_BYTES_PER_OBJECT_BUDGET`]; always on).
//!
//! Two presets: the full run (1,000,000 objects, `r = 16`) and, under
//! `HYPERDEX_SCALE_SMOKE=1`, the CI smoke (60,000 objects over an
//! `r = 12` cube — same objects-per-vertex density — with trimmed
//! traffic). Result parity of the store against its `IndexTable`
//! oracle is `tests/store_parity.rs`'s job, not this harness's.

use std::path::Path;
use std::time::Instant;

use hyperdex_core::{HypercubeIndex, KeywordSet, ObjectId, SupersetQuery};
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig};

use crate::report::{f, section, Table};
use crate::SharedContext;

/// Corpus size of the full run: the million-object bar.
const FULL_OBJECTS: usize = 1_000_000;
/// Corpus size under `HYPERDEX_SCALE_SMOKE=1`.
const SMOKE_OBJECTS: usize = 60_000;
/// Full-run cube dimension (2^16 vertices spreads a million objects at
/// ~15 objects/occupied-vertex under the pchome distribution).
const FULL_R: u8 = 16;
/// Smoke cube dimension: 2^12 vertices keeps the full run's
/// objects-per-vertex density at [`SMOKE_OBJECTS`], so the byte
/// accounting measures the same regime.
const SMOKE_R: u8 = 12;
/// p99 budget for pin search, microseconds.
const PIN_P99_US: f64 = 500.0;
/// p99 budget for pruned superset search, microseconds. A pruned
/// threshold-64 search over a million objects touches hundreds of
/// vertices; ~85 ms p99 measured on a 2025 container host, budget set
/// with ~2× headroom.
const SUP_P99_US: f64 = 180_000.0;
/// Most resident bytes the slab index may spend per object. The
/// pchome corpus measures 188 B/object at both presets (~7.2 keywords
/// of ~8 bytes packed into one buffer, its `Arc` block, a slab slot, a
/// varint posting and the vertex's share of the node table); the
/// budget leaves ~25 % for a corpus with longer keywords, not for a
/// second allocation per keyword.
pub const SLAB_BYTES_PER_OBJECT_BUDGET: f64 = 240.0;
/// Result budget per superset search (early exit, like real clients).
const SUP_THRESHOLD: usize = 64;

/// Timed pin lookups (full run / smoke).
const PINS: usize = 6_000;
const PINS_SMOKE: usize = 1_500;
/// Timed superset searches (full run / smoke).
const SUPS: usize = 1_200;
const SUPS_SMOKE: usize = 300;

/// One preset's measured row.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleRow {
    /// Cube dimension `r`.
    pub r: u8,
    /// Objects indexed.
    pub objects: usize,
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
    /// Live slots / total slots of the slab.
    pub slot_occupancy: f64,
    /// Dead bytes awaiting compaction in the posting arena.
    pub arena_waste: usize,
}

impl ScaleRow {
    /// The deterministic (seed-reproducible) projection of the row.
    pub fn deterministic_key(&self) -> (u8, usize, usize, usize) {
        (self.r, self.objects, self.bytes_resident, self.arena_waste)
    }
}

/// Builds the index, timing the bulk load.
fn build(r: u8, seed: u64, entries: &[(ObjectId, KeywordSet)]) -> (HypercubeIndex, f64) {
    let mut index = HypercubeIndex::new(r, seed).expect("valid r");
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

/// Runs the scale harness on the preset `HYPERDEX_SCALE_SMOKE`
/// selects, prints the markdown table, and returns its row.
///
/// # Panics
///
/// Panics when the index exceeds [`SLAB_BYTES_PER_OBJECT_BUDGET`], or
/// (release builds only) when a p99 exceeds its budget.
pub fn run(ctx: &SharedContext) -> Vec<ScaleRow> {
    section("Scale — million-object mixed traffic on the slab store");
    let smoke = std::env::var("HYPERDEX_SCALE_SMOKE").is_ok_and(|v| v == "1");
    let (objects, r, pins, sup_count) = if smoke {
        (SMOKE_OBJECTS, SMOKE_R, PINS_SMOKE, SUPS_SMOKE)
    } else {
        (FULL_OBJECTS, FULL_R, PINS, SUPS)
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

    let (mut index, insert_rate) = build(r, cell_seed, &entries);
    println!("loaded: {}/s", f(insert_rate, 0));

    let (pin_lat, sup_lat) = drive(&mut index, &entries, &sups, pins, sup_count);
    let pct = |lat: &[f64], p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
    let foot = index.store_footprint();
    let row = ScaleRow {
        r,
        objects: entries.len(),
        insert_rate,
        pin_p50_us: pct(&pin_lat, 0.50),
        pin_p99_us: pct(&pin_lat, 0.99),
        pin_slo_us: PIN_P99_US,
        sup_p50_us: pct(&sup_lat, 0.50),
        sup_p99_us: pct(&sup_lat, 0.99),
        sup_slo_us: SUP_P99_US,
        bytes_resident: foot.bytes_resident,
        bytes_per_object: foot.bytes_resident as f64 / entries.len() as f64,
        slot_occupancy: foot.slot_occupancy,
        arena_waste: foot.arena_waste,
    };

    // In-run bars. Memory and SLO-column sanity are always on; the
    // wall-clock SLO itself is a release-build claim, like every
    // other timing bar in this suite.
    assert!(
        row.bytes_per_object <= SLAB_BYTES_PER_OBJECT_BUDGET,
        "slab index spends {:.1} bytes/object (budget {SLAB_BYTES_PER_OBJECT_BUDGET})",
        row.bytes_per_object
    );
    assert!(
        row.pin_p99_us.is_finite() && row.pin_p99_us > 0.0,
        "pin p99 SLO column must be populated"
    );
    assert!(
        row.sup_p99_us.is_finite() && row.sup_p99_us > 0.0,
        "superset p99 SLO column must be populated"
    );
    #[cfg(not(debug_assertions))]
    {
        assert!(
            row.pin_p99_us <= row.pin_slo_us,
            "pin p99 {:.1}µs blew the {:.1}µs budget",
            row.pin_p99_us,
            row.pin_slo_us
        );
        assert!(
            row.sup_p99_us <= row.sup_slo_us,
            "superset p99 {:.1}µs blew the {:.1}µs budget",
            row.sup_p99_us,
            row.sup_slo_us
        );
    }

    let mut out = Table::new([
        "r",
        "objects",
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
    out.row([
        row.r.to_string(),
        row.objects.to_string(),
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
    print!("{}", out.to_markdown());

    vec![row]
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
                "{{\"r\":{},\"objects\":{},\"insert_rate\":{:.2},\
                 \"pin_p50_us\":{:.2},\"pin_p99_us\":{:.2},\"pin_slo_us\":{:.2},\
                 \"sup_p50_us\":{:.2},\"sup_p99_us\":{:.2},\"sup_slo_us\":{:.2},\
                 \"bytes_resident\":{},\"bytes_per_object\":{:.2},\
                 \"slot_occupancy\":{:.4},\"arena_waste\":{}}}",
                r.r,
                r.objects,
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
        assert!(text.contains("\"objects\":1000000"));
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
