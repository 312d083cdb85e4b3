//! The traced run: layer attribution measured from outside.
//!
//! The program has three nested executors — the in-process index
//! (`core`), worker threads around it (`runtime`), and server
//! processes around those (`net`). The same seeded request is timed
//! through all three, one in flight, on the same corpus; per request
//!
//! ```text
//! net.self + runtime.self + core.total = request
//! ```
//!
//! where `request` is the TCP time, `runtime.self` the threaded time
//! minus the direct time and `net.self` the TCP time minus the
//! threaded time. Around them, micro-spans time the public leaf
//! functions on that request's own bytes. Spans stay in memory and are
//! written to `out/trace-<workload>-<seed>.jsonl` at the end; stamping
//! stages inside the program is a later issue.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use hyperdex_core::{
    HypercubeIndex, KeywordHasher, KeywordSearchService, KeywordSet, ObjectId, PostingStore,
    ProtocolSim, SearchStats, StoreBackend, SupersetQuery,
};
use hyperdex_hypercube::Sbt;
use hyperdex_net::stream::{push_unit, StreamDecoder, CLIENT_DEST};
use hyperdex_runtime::{NodeRuntime, Request, RuntimeConfig, ShardMap, ShardPolicy, WireMsg};
use hyperdex_simnet::latency::LatencyModel;

use crate::hist::{us, Histogram};
use crate::inputs::{Dataset, Read, HASH_SEED, PRESET_SEED, R_TCP, SERVERS, THRESHOLD};
use crate::oracle::{Oracle, Verifier};
use crate::report::RunResult;
use crate::tcp::{Env, Stack};

/// Calls per micro-span: one call is shorter than two clock reads.
const REPS: u32 = 16;
/// Records in the posting store the store micro-spans run against: a
/// well-filled vertex of the preset (131,180 objects over 4,096
/// vertices average 32).
const SAMPLE_RECORDS: u32 = 64;
/// Requests of the untraced one-in-flight pass the traced pass is
/// compared with.
const OVERHEAD_SAMPLE: usize = 500;
/// Idle-cluster flush barriers timed.
const FLUSH_BARRIERS: usize = 200;
/// Log queries the simulator columns are taken over.
const SIM_QUERIES: usize = 500;
/// Records the simulator indexes: the pchome corpus size, also under
/// `direct_scale`'s larger one.
const SIM_OBJECTS: u32 = 131_180;

/// One timed interval. `parent` 0 marks a request's root span.
pub struct Span {
    pub trace: u32,
    pub span: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log of one run.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` as span `name` of `trace` under `parent`; returns its
    /// value, the span's id and its length.
    pub fn span<T>(
        &mut self,
        trace: u32,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u32, Duration) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        (
            value,
            self.push(trace, parent, name, start, end),
            end - start,
        )
    }

    /// Records an interval timed by the caller; returns its id.
    pub fn push(
        &mut self,
        trace: u32,
        parent: u32,
        name: &'static str,
        from: Instant,
        to: Instant,
    ) -> u32 {
        let span = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            trace,
            span,
            parent,
            name,
            start_ns: from.saturating_duration_since(self.t0).as_nanos() as u64,
            end_ns: to.saturating_duration_since(self.t0).as_nanos() as u64,
        });
        span
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"trace\": {}, \"span\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.trace, s.span, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// Writes the log to `out/trace-<workload>-<seed>.jsonl`.
    pub fn write(&self, env: &Env, workload: &str, seed: u64) -> Result<(), String> {
        std::fs::create_dir_all(&env.out_dir)
            .map_err(|e| format!("{}: {e}", env.out_dir.display()))?;
        let path = env.out_dir.join(format!("trace-{workload}-{seed}.jsonl"));
        std::fs::write(&path, self.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Micro-spans over the public leaf functions, and the per-call
/// figures derived from them.
pub struct Micro {
    hasher: KeywordHasher,
    shards: ShardMap,
    store: PostingStore,
    sample: u32,
    frame: Vec<u8>,
    reply_frame: Vec<u8>,
    packet: Vec<u8>,
    vertex_for: Histogram,
    owner_of: Histogram,
    wire_encode: Histogram,
    wire_decode: Histogram,
    wire_bytes: Histogram,
    stream_encode: Histogram,
    stream_decode: Histogram,
    bfs_per_vertex: Histogram,
    scan_per_entry: Histogram,
    pin_lookup: Histogram,
    store_insert: Histogram,
    store_remove: Histogram,
}

/// Nanoseconds per call of a span that looped `calls` times.
fn per_call(d: Duration, calls: u32) -> u64 {
    (d.as_nanos() / u128::from(calls.max(1))) as u64
}

impl Micro {
    /// Micro-span fixtures for a cube of dimension `r`; the store
    /// micro-spans run on a slab store of the first records.
    pub fn new(data: &Dataset, r: u8) -> Micro {
        let sample = SAMPLE_RECORDS.min(data.base_len());
        let mut store = PostingStore::new(StoreBackend::Slab);
        for g in 0..sample {
            store.insert(data.keywords(g).clone(), Dataset::object(g));
        }
        Micro {
            hasher: KeywordHasher::new(r, HASH_SEED).expect("valid dimension"),
            shards: ShardMap::with_policy(ShardPolicy::Prefix, r, SERVERS, HASH_SEED),
            store,
            sample,
            frame: Vec::new(),
            reply_frame: Vec::new(),
            packet: Vec::new(),
            vertex_for: Histogram::new(),
            owner_of: Histogram::new(),
            wire_encode: Histogram::new(),
            wire_decode: Histogram::new(),
            wire_bytes: Histogram::new(),
            stream_encode: Histogram::new(),
            stream_decode: Histogram::new(),
            bfs_per_vertex: Histogram::new(),
            scan_per_entry: Histogram::new(),
            pin_lookup: Histogram::new(),
            store_insert: Histogram::new(),
            store_remove: Histogram::new(),
        }
    }

    /// The `core` leaf functions on one request: hashing, the SBT walk
    /// to the visited vertex count, a posting scan or pin lookup, and
    /// a remove/insert pair. Returns the estimate of the time the
    /// direct call spent inside them.
    pub fn core(
        &mut self,
        rec: &mut Recorder,
        data: &Dataset,
        trace: u32,
        parent: u32,
        request: &Request,
        stats: &SearchStats,
    ) -> Duration {
        let (keywords, superset) = match request {
            Request::Pin(k) => (k, false),
            Request::Superset { keywords, .. } => (keywords, true),
        };
        let hasher = self.hasher;
        let (root, _, d) = rec.span(trace, parent, "core.hashing.vertex_for[x16]", || {
            let mut root = hasher.vertex_for(keywords);
            for _ in 1..REPS {
                root = black_box(hasher).vertex_for(black_box(keywords));
            }
            root
        });
        let hashing = per_call(d, REPS);
        self.vertex_for.record(hashing);
        let mut inside = Duration::from_nanos(hashing);

        if superset {
            let visited = stats.nodes_contacted.max(1) as usize;
            let (walked, _, d) = rec.span(trace, parent, "hypercube.sbt.bfs", || {
                Sbt::induced(root).bfs().take(visited).count()
            });
            self.bfs_per_vertex.record(per_call(d, walked as u32));
            inside += d;

            let entries = self.store.keyword_set_count().max(1) as u32;
            let store = &self.store;
            let (_, _, d) = rec.span(trace, parent, "core.store.scan", || {
                black_box(
                    store
                        .superset_entries(keywords)
                        .map(|(_, o)| o.count())
                        .sum::<usize>(),
                )
            });
            let per_entry = d.as_nanos() as f64 / f64::from(entries);
            self.scan_per_entry.record(per_entry.round() as u64);
            inside += Duration::from_nanos((per_entry * stats.entries_scanned as f64) as u64);
        } else {
            // A key the fixture store holds, so the lookup walks the
            // hit path the request's own key walks in the full index.
            let store = &self.store;
            let key = data.keywords(trace % self.sample);
            let (_, _, d) = rec.span(trace, parent, "core.store.pin_lookup[x16]", || {
                for _ in 0..REPS {
                    black_box(store.objects_with(black_box(key)).count());
                }
            });
            let lookup = per_call(d, REPS);
            self.pin_lookup.record(lookup);
            inside += Duration::from_nanos(lookup);
        }
        inside
    }

    /// A remove and a re-insert of sampled records on the fixture
    /// store (`core.store.remove_ns` / `insert_ns`).
    pub fn store_writes(&mut self, rec: &mut Recorder, data: &Dataset, trace: u32, parent: u32) {
        let picks: Vec<u32> = (0..REPS)
            .map(|j| trace.wrapping_mul(REPS).wrapping_add(j) % self.sample)
            .collect();
        let store = &mut self.store;
        let (_, _, d) = rec.span(trace, parent, "core.store.remove[x16]", || {
            for &g in &picks {
                black_box(store.remove(data.keywords(g), Dataset::object(g)));
            }
        });
        self.store_remove.record(per_call(d, REPS));
        let sets: Vec<KeywordSet> = picks.iter().map(|&g| data.keywords(g).clone()).collect();
        let (_, _, d) = rec.span(trace, parent, "core.store.insert[x16]", || {
            for (&g, set) in picks.iter().zip(sets) {
                black_box(store.insert(set, Dataset::object(g)));
            }
        });
        self.store_insert.record(per_call(d, REPS));
    }

    /// The `runtime` and `net` leaf functions on one request's own
    /// request and reply frames: shard routing, frame codec, stream
    /// units.
    pub fn wire(
        &mut self,
        rec: &mut Recorder,
        trace: u32,
        runtime_parent: u32,
        net_parent: u32,
        request: &Request,
        reply: &[ObjectId],
    ) {
        let query_id = u64::from(trace);
        let (msg, answer) = match request {
            Request::Pin(keywords) => (
                WireMsg::Pin {
                    query_id,
                    keywords: keywords.clone(),
                },
                WireMsg::PinResults {
                    query_id,
                    objects: reply.iter().map(|o| o.raw()).collect(),
                },
            ),
            Request::Superset {
                keywords,
                threshold,
            } => (
                WireMsg::Query {
                    query_id,
                    keywords: keywords.clone(),
                    threshold: *threshold as u64,
                },
                WireMsg::QueryDone {
                    query_id,
                    objects: reply.iter().map(|o| (o.raw(), 0)).collect(),
                },
            ),
        };
        let bits = match request {
            Request::Pin(k) | Request::Superset { keywords: k, .. } => {
                self.hasher.vertex_for(k).bits()
            }
        };
        let shards = self.shards;
        let (owner, _, d) = rec.span(trace, runtime_parent, "runtime.shard.owner_of[x16]", || {
            let mut owner = 0;
            for _ in 0..REPS {
                owner = black_box(shards).owner_of(black_box(bits));
            }
            owner
        });
        self.owner_of.record(per_call(d, REPS));

        let (frame, reply_frame) = (&mut self.frame, &mut self.reply_frame);
        let (_, _, d) = rec.span(trace, runtime_parent, "runtime.wire.encode[x16]", || {
            for _ in 0..REPS {
                black_box(&msg).encode_into(frame);
                black_box(&answer).encode_into(reply_frame);
            }
        });
        self.wire_encode.record(per_call(d, 2 * REPS));
        self.wire_bytes
            .record((frame.len() + reply_frame.len()) as u64);
        let (_, _, d) = rec.span(trace, runtime_parent, "runtime.wire.decode[x16]", || {
            for _ in 0..REPS {
                black_box(WireMsg::decode(black_box(frame)).is_ok());
                black_box(WireMsg::decode(black_box(reply_frame)).is_ok());
            }
        });
        self.wire_decode.record(per_call(d, 2 * REPS));

        let packet = &mut self.packet;
        let (_, _, d) = rec.span(trace, net_parent, "net.stream.encode[x16]", || {
            for _ in 0..REPS {
                packet.clear();
                push_unit(packet, black_box(owner), frame);
                push_unit(packet, CLIENT_DEST, reply_frame);
            }
        });
        self.stream_encode.record(per_call(d, 2 * REPS));
        let mut decoder = StreamDecoder::new();
        let (_, _, d) = rec.span(trace, net_parent, "net.stream.decode[x16]", || {
            for _ in 0..REPS {
                decoder.push(packet);
                while let Ok(Some(unit)) = decoder.next_unit_ref() {
                    black_box(unit);
                }
            }
        });
        self.stream_decode.record(per_call(d, 2 * REPS));
    }

    /// Medians of everything measured, under their metric names.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        [
            ("core.hashing.vertex_for_ns", &self.vertex_for),
            ("runtime.shard.owner_of_ns", &self.owner_of),
            ("runtime.wire.encode_ns", &self.wire_encode),
            ("runtime.wire.decode_ns", &self.wire_decode),
            ("runtime.wire.bytes_per_op", &self.wire_bytes),
            ("net.stream.encode_ns", &self.stream_encode),
            ("net.stream.decode_ns", &self.stream_decode),
            ("hypercube.sbt_bfs_ns_per_vertex", &self.bfs_per_vertex),
            ("core.store.scan_ns_per_entry", &self.scan_per_entry),
            ("core.store.pin_lookup_ns", &self.pin_lookup),
            ("core.store.insert_ns", &self.store_insert),
            ("core.store.remove_ns", &self.store_remove),
        ]
        .into_iter()
        .filter(|(_, h)| h.count() > 0)
        .map(|(name, h)| (name, h.p50() as f64))
        .collect()
    }
}

/// Counts the direct engine reports per request, summed.
#[derive(Default)]
pub struct CoreCounts {
    queries: f64,
    nodes: f64,
    results: f64,
    scanned: f64,
    cache_hits: f64,
}

impl CoreCounts {
    pub fn add(&mut self, stats: &SearchStats, results: usize) {
        self.queries += 1.0;
        self.nodes += stats.nodes_contacted as f64;
        self.results += results as f64;
        self.scanned += stats.entries_scanned as f64;
        self.cache_hits += f64::from(u8::from(stats.cache_hit));
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let per = |x: f64| x / self.queries.max(1.0);
        vec![
            ("core.nodes_contacted_per_query", per(self.nodes)),
            ("hypercube.vertices_per_query", per(self.nodes)),
            ("core.results_per_query", per(self.results)),
            ("core.entries_scanned_per_query", per(self.scanned)),
            ("core.cache_hit_ratio", per(self.cache_hits)),
        ]
    }
}

/// Store footprint of a direct index, per object.
pub fn footprint_metrics(index: &HypercubeIndex) -> Vec<(&'static str, f64)> {
    let fp = index.store_footprint();
    vec![
        (
            "core.store.bytes_per_object",
            fp.bytes_resident as f64 / index.len().max(1) as f64,
        ),
        (
            "core.store.arena_waste_ratio",
            fp.arena_waste as f64 / fp.arena_bytes.max(1) as f64,
        ),
    ]
}

/// What a traced section adds to a run's result.
#[derive(Default)]
pub struct Layers {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Layers {
    pub fn apply(self, result: &mut RunResult) {
        for (name, value) in self.metrics {
            result.metrics.set(name, value);
        }
        result.attempted += self.attempted;
        result.failed += self.failed;
        result.problems.extend(self.problems);
    }
}

/// The threaded executor in the preset's shape.
fn threaded(r: u8) -> Result<NodeRuntime, String> {
    NodeRuntime::start(RuntimeConfig {
        r,
        seed: HASH_SEED,
        workers: SERVERS,
        channel_capacity: 256,
        policy: ShardPolicy::Prefix,
        store: StoreBackend::Slab,
    })
    .map_err(|e| format!("runtime start: {e}"))
}

/// Times `reads` through TCP, threads and the direct index on the same
/// corpus and derives every `net.*`, `runtime.*` and `core.*` layer
/// metric a TCP workload reports.
pub fn tcp_layers(
    workload: &str,
    seed: u64,
    data: &Dataset,
    oracle: &Oracle,
    reads: &[Read],
    env: &Env,
) -> Result<Layers, String> {
    let live = 0..data.base_len();
    let mut out = Layers::default();

    // The same corpus in all three stacks.
    let mut stack = Stack::launch(env)?;
    stack.load(data, live.clone())?;
    let mut rt = threaded(R_TCP)?;
    let t0 = Instant::now();
    rt.bulk_load(live.clone().map(|g| (Dataset::object(g), data.keywords(g))))
        .map_err(|e| format!("bulk load: {e}"))?;
    rt.flush();
    out.metrics
        .push(("runtime.bulk_load_s", t0.elapsed().as_secs_f64()));
    let mut index = HypercubeIndex::with_store(R_TCP, HASH_SEED, StoreBackend::Slab)
        .map_err(|e| format!("index: {e}"))?;
    for g in live.clone() {
        index
            .insert(Dataset::object(g), data.keywords(g).clone())
            .map_err(|e| format!("index insert: {e}"))?;
    }

    let tcp_call =
        |stack: &mut Stack, request: &Request| -> Result<Vec<ObjectId>, hyperdex_core::Error> {
            match request {
                Request::Pin(k) => stack.client.pin_search(k),
                Request::Superset {
                    keywords,
                    threshold,
                } => Ok(stack
                    .client
                    .superset_search(keywords, *threshold)?
                    .into_iter()
                    .map(|m| m.object)
                    .collect()),
            }
        };

    // Untraced pass, for the tracing overhead.
    let requests: Vec<Request> = reads.iter().map(|r| r.request(data)).collect();
    let sample = &requests[..OVERHEAD_SAMPLE.min(requests.len())];
    let t0 = Instant::now();
    for request in sample {
        tcp_call(&mut stack, request).map_err(|e| format!("untraced pass: {e}"))?;
    }
    let untraced = t0.elapsed();

    // Traced pass.
    let mut rec = Recorder::new();
    let mut micro = Micro::new(data, R_TCP);
    let mut verifier = Verifier::new(data, oracle);
    let mut counts = CoreCounts::default();
    let (mut net_pin, mut net_sup) = (Histogram::new(), Histogram::new());
    let (mut rt_pin, mut rt_sup) = (Histogram::new(), Histogram::new());
    let (mut core_pin, mut core_sup) = (Histogram::new(), Histogram::new());
    let (mut net_self, mut rt_self, mut core_self) =
        (Histogram::new(), Histogram::new(), Histogram::new());
    let mut traced_sample = Duration::ZERO;
    // Summed over all requests: TCP, threaded and direct time. Sums
    // add up across layers where medians do not.
    let mut sums = [Duration::ZERO; 3];
    for (i, (&read, request)) in reads.iter().zip(&requests).enumerate() {
        let trace = i as u32 + 1;
        let (tcp_reply, root, tcp) =
            rec.span(trace, 0, "request", || tcp_call(&mut stack, request));
        if i < sample.len() {
            traced_sample += tcp;
        }
        let (rt_reply, rt_span, threaded) =
            rec.span(trace, root, "runtime.request", || match request {
                Request::Pin(k) => rt.pin_search(k),
                Request::Superset {
                    keywords,
                    threshold,
                } => rt
                    .superset_search(keywords, *threshold)
                    .map(|ms| ms.into_iter().map(|m| m.object).collect())
                    .unwrap_or_default(),
            });
        let ((core_reply, stats), core_span, direct) =
            rec.span(trace, rt_span, "core.request", || match request {
                Request::Pin(k) => {
                    let out = index.pin_search(k);
                    (out.results, out.stats)
                }
                Request::Superset {
                    keywords,
                    threshold,
                } => {
                    let query = SupersetQuery::new(keywords.clone()).threshold(*threshold);
                    match index.superset_search(&query) {
                        Ok(out) => (out.results.iter().map(|r| r.object).collect(), out.stats),
                        Err(_) => (Vec::new(), SearchStats::default()),
                    }
                }
            });
        match &tcp_reply {
            Ok(reply) => verifier.read(read, live.clone(), reply),
            Err(e) => verifier.errored(1, e),
        }
        verifier.read(read, live.clone(), &rt_reply);
        verifier.read(read, live.clone(), &core_reply);
        counts.add(&stats, core_reply.len());

        let inside = micro.core(&mut rec, data, trace, core_span, request, &stats);
        micro.store_writes(&mut rec, data, trace, core_span);
        micro.wire(&mut rec, trace, rt_span, root, request, &core_reply);

        // Self times; the identity holds by construction, clamping
        // only hides a negative self time from the histogram.
        let ns = |d: Duration| d.as_nanos() as u64;
        sums = [sums[0] + tcp, sums[1] + threaded, sums[2] + direct];
        net_self.record(ns(tcp.saturating_sub(threaded)));
        rt_self.record(ns(threaded.saturating_sub(direct)));
        core_self.record(ns(direct.saturating_sub(inside)));
        let (net_h, rt_h, core_h) = match read {
            Read::Pin { .. } => (&mut net_pin, &mut rt_pin, &mut core_pin),
            Read::Superset { .. } => (&mut net_sup, &mut rt_sup, &mut core_sup),
        };
        net_h.record(ns(tcp));
        rt_h.record(ns(threaded));
        core_h.record(ns(direct));
    }

    // Idle-cluster flush barriers.
    let mut barrier = Histogram::new();
    for _ in 0..FLUSH_BARRIERS {
        let t0 = Instant::now();
        stack
            .client
            .flush()
            .map_err(|e| format!("flush barrier: {e}"))?;
        barrier.record_duration(t0.elapsed());
    }

    // Both ledgers must balance.
    let report = stack.shutdown()?;
    if report.in_flight() != 0 {
        out.problems.push(format!(
            "traced cluster: {} frames in flight",
            report.in_flight()
        ));
    }
    let report = rt.shutdown();
    if report.in_flight() != 0 {
        out.problems.push(format!(
            "traced runtime: {} frames in flight",
            report.in_flight()
        ));
    }
    out.problems.extend(verifier.problem("traced run"));
    out.attempted = verifier.attempted;
    out.failed = verifier.failed;

    out.metrics.extend([
        ("net.pin_us_p50", us(net_pin.p50())),
        ("net.superset_us_p50", us(net_sup.p50())),
        ("net.self_us_p50", us(net_self.p50())),
        ("runtime.pin_us_p50", us(rt_pin.p50())),
        ("runtime.superset_us_p50", us(rt_sup.p50())),
        ("runtime.superset_us_p99", us(rt_sup.p99())),
        ("runtime.self_us_p50", us(rt_self.p50())),
        ("core.pin_us_p50", us(core_pin.p50())),
        ("core.superset_us_p50", us(core_sup.p50())),
        ("core.superset_us_p99", us(core_sup.p99())),
        ("core.self_us_p50", us(core_self.p50())),
        ("net.flush_barrier_us_p50", us(barrier.p50())),
        (
            "client.tracing_overhead_ratio",
            traced_sample.as_secs_f64() / untraced.as_secs_f64().max(1e-9),
        ),
    ]);
    out.metrics.extend(micro.metrics());
    out.metrics.extend(counts.metrics());
    out.metrics.extend(footprint_metrics(&index));
    out.metrics.extend(sim_layers(data));
    let [tcp, threaded, direct] = sums.map(|d| d.as_secs_f64() * 1e6 / reads.len().max(1) as f64);
    eprintln!(
        "[{workload}] traced {} requests, {} spans: mean request {tcp:.1} us = net.self {:.1} ({:.0} %) \
         + runtime.self {:.1} ({:.0} %) + core {direct:.1} ({:.0} %); medians: pin {:.1} / superset {:.1} us",
        reads.len(),
        rec.len(),
        tcp - threaded,
        (tcp - threaded) * 100.0 / tcp.max(1e-9),
        threaded - direct,
        (threaded - direct) * 100.0 / tcp.max(1e-9),
        direct * 100.0 / tcp.max(1e-9),
        us(net_pin.p50()),
        us(net_sup.p50()),
    );
    rec.write(env, workload, seed)?;
    Ok(out)
}

/// The simulator's deterministic columns: `ProtocolSim` over the base
/// corpus answering the first log queries, and DHT hops per pin lookup
/// through `KeywordSearchService`. Exact counts, pinned so a later
/// "one engine" refactor can show they did not move.
pub fn sim_layers(data: &Dataset) -> Vec<(&'static str, f64)> {
    let mut sim = ProtocolSim::with_store(
        R_TCP,
        HASH_SEED,
        LatencyModel::constant(1),
        StoreBackend::Slab,
    )
    .expect("valid dimension");
    for g in 0..data.base_len().min(SIM_OBJECTS) {
        sim.insert(Dataset::object(g), data.keywords(g).clone())
            .expect("non-empty keyword set");
    }
    let queries = data.replay(PRESET_SEED, SIM_QUERIES);
    let (mut messages, mut nodes) = (0u64, 0u64);
    let mut virtual_ms = Histogram::new();
    for &q in &queries {
        let out = sim
            .search_sequential(data.query(q), THRESHOLD)
            .expect("non-zero threshold");
        messages += out.messages;
        nodes += out.nodes_contacted;
        virtual_ms.record(out.elapsed.ticks());
    }
    let mut service = KeywordSearchService::builder()
        .nodes(64)
        .dimension(R_TCP)
        .seed(HASH_SEED)
        .store(StoreBackend::Slab)
        .build()
        .expect("valid dimension");
    let hops: usize = queries
        .iter()
        .map(|&q| {
            let from = service.random_node();
            service.pin_search(from, data.query(q)).dht_hops
        })
        .sum();
    let n = queries.len().max(1) as f64;
    vec![
        ("sim.messages_per_query", messages as f64 / n),
        ("sim.nodes_contacted_per_query", nodes as f64 / n),
        ("sim.virtual_ms_p50", virtual_ms.p50() as f64),
        ("dht.hops_per_lookup", hops as f64 / n),
    ]
}
