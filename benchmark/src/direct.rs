//! `direct_scale`: the in-process index alone, at four times the
//! corpus and sixteen times the cube of the TCP workloads.
//!
//! One thread, closed loop, per-call latencies. Each round is one
//! superset search (query-log skew), a block of Zipf-ranked pins, then
//! as many inserts as removes, so the index stays at its preloaded
//! size while every vertex's store sees appends, tombstones and
//! compaction. Nothing here touches `runtime` or `net`: a transport
//! change must read as no change, a store or traversal change has
//! nowhere to hide.

use std::time::Instant;

use hyperdex_core::{
    HypercubeIndex, KeywordSet, ObjectId, SearchStats, StoreBackend, SupersetQuery,
};
use hyperdex_runtime::Request;

use crate::hist::{quiet_quartile, us, Histogram, Quiet, Windows};
use crate::inputs::{
    Dataset, PinSource, Read, Scale, DIRECT_OBJECTS, HASH_SEED, R_DIRECT, THRESHOLD,
};
use crate::oracle::{Oracle, Verifier};
use crate::procfs;
use crate::report::{Metrics, RunResult};
use crate::tcp::Env;
use crate::trace::{footprint_metrics, sim_layers, CoreCounts, Layers, Micro, Recorder};

/// Rounds the reference host completes per second.
const ROUNDS_S: f64 = 185.0;
/// Per round: pins after the superset search.
const PINS: usize = 2_000;
/// Per round: inserts of held-out records, then as many removes of
/// the oldest live ones. Sized so each op class holds between a fifth
/// and a half of the timed interval (`core.time_share.*`).
const WRITES: usize = 125;
/// Separates the warm-up's draws from the timed phase's.
const WARM_SALT: u64 = 0x5741_524D;
/// Supersets in every set-up's warm-up.
const WARM_SUPERSETS: usize = 32;
/// Pins in every set-up's warm-up.
const WARM_PINS: usize = 1_000;
/// Rounds the traced run records spans for.
const TRACED_ROUNDS: usize = 500;
/// The run gives up after this multiple of its sized length.
const OVERRUN: f64 = 4.0;

/// Everything a set-up produces.
struct Ready {
    data: Dataset,
    oracle: Oracle,
    index: HypercubeIndex,
    total_s: f64,
    /// This process's resident MiB just before the index was built.
    rss_before_mb: f64,
}

/// One full set-up: generate, build the oracle, build the index with
/// product-default cache settings, warm up.
fn set_up(seed: u64, scale: &Scale, rounds: usize) -> Result<Ready, String> {
    let t0 = Instant::now();
    let base = DIRECT_OBJECTS / scale.corpus_div;
    let data = Dataset::generate(seed, base, rounds * WRITES);
    let oracle = Oracle::build(&data);
    let rss_before_mb = procfs::status_mib(None, "VmRSS").unwrap_or(0.0);
    let mut index = HypercubeIndex::with_store(R_DIRECT, HASH_SEED, StoreBackend::Slab)
        .map_err(|e| format!("index: {e}"))?;
    for g in 0..data.base_len() {
        index
            .insert(Dataset::object(g), data.keywords(g).clone())
            .map_err(|e| format!("insert of record {g}: {e}"))?;
    }
    let mut warm = PinSource::new(seed ^ WARM_SALT, data.base_len());
    for _ in 0..WARM_PINS {
        std::hint::black_box(index.pin_search(&warm.next(0).keywords(&data)));
    }
    for q in data.replay(seed ^ WARM_SALT, WARM_SUPERSETS) {
        let query = SupersetQuery::new(data.query(q).clone()).threshold(THRESHOLD);
        std::hint::black_box(
            index
                .superset_search(&query)
                .map_err(|e| format!("warm-up: {e}"))?,
        );
    }
    Ok(Ready {
        total_s: t0.elapsed().as_secs_f64(),
        rss_before_mb,
        data,
        oracle,
        index,
    })
}

/// Rounds in one window; timings are quiet quartiles over windows.
const WINDOW_ROUNDS: usize = 100;

/// What the rounds measured.
#[derive(Default)]
struct Timed {
    pin: Windows,
    superset: Windows,
    write: Windows,
    /// Logical messages: nodes contacted, one per pin and per write.
    messages: u64,
    /// Processor nanoseconds spent between each round's first call
    /// and its last.
    cpu_ns: u64,
    ops: u64,
    rounds: usize,
    counts: CoreCounts,
}

impl Timed {
    /// Per window and in all: nanoseconds inside pin, superset and
    /// write calls.
    fn busy_ns(&self) -> (Vec<[f64; 3]>, [f64; 3]) {
        let per_window: Vec<[f64; 3]> = (0..self.rounds.div_ceil(WINDOW_ROUNDS))
            .map(|w| [&self.pin, &self.superset, &self.write].map(|c| c.window_sum(w) as f64))
            .collect();
        let total = per_window.iter().fold([0.0; 3], |acc, w| {
            [acc[0] + w[0], acc[1] + w[1], acc[2] + w[2]]
        });
        (per_window, total)
    }
}

/// Span sink of the traced run.
struct Tracing<'a> {
    rec: Recorder,
    micro: Micro,
    data: &'a Dataset,
    /// Superset call minus the estimate of its hashing, SBT walk and
    /// posting scans.
    core_self: Histogram,
}

/// Which rounds [`run_rounds`] runs.
#[derive(Clone, Copy)]
struct Rounds {
    seed: u64,
    /// Rounds to run, from the first.
    run: usize,
    /// Rounds the whole run has: fixes the query order and which
    /// records pins may aim at.
    of: usize,
    /// Seconds `of` rounds are sized for.
    sized_for: f64,
}

/// Runs rounds `0..plan.run` against `index`. Every call is timed from
/// the previous call's end (one clock read per call); replies are kept
/// per round and verified after it, outside the timed calls. With
/// `tracing`, each round also becomes a span with one child per op
/// class, followed by the micro-spans of its superset search and
/// first pin.
fn run_rounds(
    index: &mut HypercubeIndex,
    data: &Dataset,
    plan: Rounds,
    verifier: &mut Verifier<'_>,
    mut tracing: Option<&mut Tracing<'_>>,
) -> Timed {
    let Rounds {
        seed,
        run: rounds,
        of: total_rounds,
        sized_for,
    } = plan;
    let mut t = Timed::default();
    let base = data.base_len();
    // Pins aim at records no round of this run removes.
    let stable = (total_rounds * WRITES) as u32;
    let mut pins = PinSource::new(seed, base - stable);
    let log = data.replay(seed, total_rounds);
    let mut pin_replies: Vec<Vec<ObjectId>> = Vec::with_capacity(PINS);
    let started = Instant::now();
    for (round, &query) in log.iter().enumerate().take(rounds) {
        if started.elapsed().as_secs_f64() > sized_for * OVERRUN {
            break;
        }
        let trace = round as u32 + 1;
        let window = round / WINDOW_ROUNDS;
        let lo = (round * WRITES) as u32;
        let live = lo..base + lo;
        let pin_reads: Vec<Read> = (0..PINS).map(|_| pins.next(stable)).collect();
        let pin_sets: Vec<KeywordSet> = pin_reads.iter().map(|r| r.keywords(data)).collect();
        let inserts: Vec<_> = (live.end..live.end + WRITES as u32)
            .map(|g| (Dataset::object(g), data.keywords(g).clone()))
            .collect();
        pin_replies.clear();
        // One clock read per call: each call is timed from the end
        // of the one before it.
        let search = SupersetQuery::new(data.query(query).clone()).threshold(THRESHOLD);
        let cpu0 = procfs::cpu_ns(None);
        let round_start = Instant::now();
        let found = index.superset_search(&search);
        let searched = Instant::now();
        t.superset.record(window, searched - round_start);
        let mut at = searched;
        for keywords in &pin_sets {
            let out = index.pin_search(keywords);
            let now = Instant::now();
            t.pin.record(window, now - at);
            at = now;
            t.messages += out.stats.nodes_contacted;
            pin_replies.push(out.results);
        }
        let pinned = at;
        let mut write_failures = 0u64;
        for (object, keywords) in inserts {
            let ok = index.insert(object, keywords).is_ok();
            let now = Instant::now();
            t.write.record(window, now - at);
            at = now;
            write_failures += u64::from(!ok);
        }
        let inserted = at;
        for g in lo..lo + WRITES as u32 {
            let removed = index.remove(Dataset::object(g), data.keywords(g));
            let now = Instant::now();
            t.write.record(window, now - at);
            at = now;
            write_failures += u64::from(!removed);
        }
        let round_end = at;
        t.cpu_ns += procfs::cpu_ns(None) - cpu0;
        t.messages += 2 * WRITES as u64;
        t.ops += (1 + PINS + 2 * WRITES) as u64;
        t.rounds += 1;

        // Verification, outside every timed call.
        let stats = match found {
            Ok(out) => {
                let reply: Vec<ObjectId> = out.results.iter().map(|r| r.object).collect();
                verifier.read(Read::Superset { query }, live.clone(), &reply);
                t.messages += out.stats.nodes_contacted;
                t.counts.add(&out.stats, reply.len());
                out.stats
            }
            Err(e) => {
                verifier.errored(1, &e);
                SearchStats::default()
            }
        };
        for (&read, reply) in pin_reads.iter().zip(&pin_replies) {
            verifier.read(read, live.clone(), reply);
        }
        verifier.wrote(2 * WRITES as u64 - write_failures);
        if write_failures > 0 {
            verifier.errored(
                write_failures,
                &format!("index refused writes of round {round}"),
            );
        }
        if let Some(tr) = tracing.as_deref_mut() {
            let root = tr.rec.push(trace, 0, "round", round_start, round_end);
            tr.rec
                .push(trace, root, "core.superset_search", round_start, searched);
            tr.rec
                .push(trace, root, "core.pin_search[x2000]", searched, pinned);
            tr.rec
                .push(trace, root, "core.insert[x125]", pinned, inserted);
            tr.rec
                .push(trace, root, "core.remove[x125]", inserted, round_end);
            let search_time = searched - round_start;
            let superset = Request::Superset {
                keywords: search.keywords,
                threshold: THRESHOLD,
            };
            let inside = tr
                .micro
                .core(&mut tr.rec, tr.data, trace, root, &superset, &stats);
            tr.core_self
                .record_duration(search_time.saturating_sub(inside));
            let pin = Request::Pin(pin_sets[0].clone());
            tr.micro.core(
                &mut tr.rec,
                tr.data,
                trace,
                root,
                &pin,
                &SearchStats::default(),
            );
            tr.micro.store_writes(&mut tr.rec, tr.data, trace, root);
        }
    }
    t
}

/// Runs `direct_scale`. The measured set-up comes first, on a fresh
/// heap, so the resident-memory growth across index build and timed
/// phase is this index's alone; the further set-ups only contribute
/// their times to `setup_s`.
pub fn run(seed: u64, scale: &Scale, traced: bool, env: &Env) -> Result<RunResult, String> {
    let base = DIRECT_OBJECTS / scale.corpus_div;
    // Pins need records no round removes: never turn over more than
    // three fifths of the preloaded index.
    let rounds = scale.ops(ROUNDS_S, 8).min(base * 3 / 5 / WRITES);
    let mut problems = Vec::new();

    let Ready {
        data,
        oracle,
        mut index,
        total_s,
        rss_before_mb,
        ..
    } = set_up(seed, scale, rounds)?;
    let mut setup_s = vec![total_s];
    let mut verifier = Verifier::new(&data, &oracle);
    let plan = Rounds {
        seed,
        run: rounds,
        of: rounds,
        sized_for: scale.seconds,
    };
    let timed = run_rounds(&mut index, &data, plan, &mut verifier, None);
    let peak_rss_mb = procfs::status_mib(None, "VmHWM").unwrap_or(0.0) - rss_before_mb;
    if index.len() != base {
        problems.push(format!(
            "index holds {} objects after the run, not {base}",
            index.len()
        ));
    }
    problems.extend(verifier.problem("timed rounds"));
    let (attempted, failed, failed_ratio) =
        (verifier.attempted, verifier.failed, verifier.failed_ratio());
    // Everything later needs of the measured set-up, so that it does
    // not stay resident through the next ones.
    let mut layers = Layers::default();
    if traced {
        layers.metrics.extend([
            ("workload.corpus_gen_s", data.corpus_gen_s),
            ("workload.querylog_gen_s", data.querylog_gen_s),
            ("workload.top10_share", data.top10_share()),
        ]);
        layers.metrics.extend(footprint_metrics(&index));
    }
    drop(verifier);
    drop((index, oracle, data));

    // Gated: set-up time (below), logical messages per op, and this
    // process's memory growth across index build and timed phase.
    let mut m = Metrics::default();
    m.set(
        "frames_per_op",
        timed.messages as f64 / timed.ops.max(1) as f64,
    );
    m.set("peak_rss_mb", peak_rss_mb);

    // Reported with their noise: quiet quartiles over windows of
    // rounds.
    let (per_window, busy_ns) = timed.busy_ns();
    let busy_total_ns: f64 = busy_ns.iter().sum();
    let rounds_in = |w: usize| (timed.rounds - w * WINDOW_ROUNDS).min(WINDOW_ROUNDS) as f64;
    let rate =
        |w: usize, per_round: usize, ns: f64| rounds_in(w) * per_round as f64 * 1e9 / ns.max(1.0);
    let windows = per_window.iter().enumerate();
    let mut ops_s: Vec<f64> = windows
        .clone()
        .map(|(w, ns)| rate(w, 1 + PINS + 2 * WRITES, ns.iter().sum()))
        .collect();
    let mut writes_s: Vec<f64> = windows.map(|(w, ns)| rate(w, 2 * WRITES, ns[2])).collect();
    m.set(
        "client.throughput_ops_s",
        quiet_quartile(&mut ops_s, Quiet::High),
    );
    m.set(
        "client.insert_ops_s",
        quiet_quartile(&mut writes_s, Quiet::High),
    );
    m.set_client_latencies(&timed.pin, &timed.superset);
    m.set("client.failed_ops_ratio", failed_ratio);
    let (all_pins, all_supersets, all_writes) = (
        timed.pin.total(),
        timed.superset.total(),
        timed.write.total(),
    );
    eprintln!("[direct_scale] pin      {}", all_pins.summary_us());
    eprintln!("[direct_scale] superset {}", all_supersets.summary_us());
    eprintln!("[direct_scale] write    {}", all_writes.summary_us());

    let mut spans = None;
    for i in 1..scale.setups.max(2) {
        let mut again = set_up(seed, scale, rounds)?;
        setup_s.push(again.total_s);
        if traced && i == 1 {
            // The first rounds again, on an index in the state the
            // untraced run found, this time with spans.
            let n = TRACED_ROUNDS.min(rounds);
            let mut tr = Tracing {
                rec: Recorder::new(),
                micro: Micro::new(&again.data, R_DIRECT),
                data: &again.data,
                core_self: Histogram::new(),
            };
            let mut v = Verifier::new(&again.data, &again.oracle);
            let first = Rounds { run: n, ..plan };
            let t = run_rounds(&mut again.index, &again.data, first, &mut v, Some(&mut tr));
            layers.attempted = v.attempted;
            layers.failed = v.failed;
            layers.problems.extend(v.problem("traced rounds"));
            // The same rounds, untraced then traced.
            let same: f64 = per_window
                .iter()
                .take(n.div_ceil(WINDOW_ROUNDS))
                .flatten()
                .sum();
            let untraced_ns_per_op = same / t.ops.max(1) as f64;
            let traced_ns_per_op = t.busy_ns().1.iter().sum::<f64>() / t.ops.max(1) as f64;
            layers.metrics.push((
                "client.tracing_overhead_ratio",
                traced_ns_per_op / untraced_ns_per_op.max(1e-9),
            ));
            layers.metrics.extend(tr.micro.metrics());
            layers
                .metrics
                .push(("core.self_us_p50", us(tr.core_self.p50())));
            drop(v);
            spans = Some(tr.rec);
            layers.metrics.extend(sim_layers(&again.data));
        }
    }
    m.set("setup_s", quiet_quartile(&mut setup_s, Quiet::Low));

    let mut result = RunResult {
        workload: "direct_scale",
        seed,
        metrics: m,
        attempted,
        failed,
        problems,
        op_counts: vec![
            ("rounds", timed.rounds as u64),
            ("ops", timed.ops),
            ("pins_per_round", PINS as u64),
            ("writes_per_round", 2 * WRITES as u64),
            ("preloaded_objects", base as u64),
        ],
    };
    if let Some(rec) = spans {
        let m = &mut result.metrics;
        let share = |class: usize| busy_ns[class] / busy_total_ns.max(1.0);
        m.set("core.time_share.pin", share(0));
        m.set("core.time_share.superset", share(1));
        m.set("core.time_share.write", share(2));
        m.set("core.pin_us_p50", us(all_pins.p50()));
        m.set("core.superset_us_p50", us(all_supersets.p50()));
        m.set("core.superset_us_p99", us(all_supersets.p99()));
        m.set(
            "client.cpu_ms_per_kop",
            timed.cpu_ns as f64 / 1e3 / timed.ops.max(1) as f64,
        );
        m.set(
            "client.achieved_ops_s",
            timed.ops as f64 * 1e9 / busy_total_ns.max(1.0),
        );
        layers.metrics.extend(timed.counts.metrics());
        layers.apply(&mut result);
        rec.write(env, "direct_scale", seed)?;
    }
    Ok(result)
}
