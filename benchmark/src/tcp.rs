//! The three TCP workloads: `pin_tcp`, `superset_tcp`, `mixed_rw_tcp`.
//!
//! Topology (preset `pchome-r12`): two `hyperdex-server` processes
//! with one worker each on loopback, prefix placement, slab store,
//! capacity 64; one `NetClient` with one connection per server, one
//! generator thread, window 32. Every knob is set explicitly, so no
//! `HYPERDEX_*` variable can change a number.

use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hyperdex_core::StoreBackend;
use hyperdex_net::{Cluster, ClusterConfig, NetClient, NetConfig};
use hyperdex_runtime::{BatchResult, Request, ShardPolicy, ShutdownReport};

use crate::hist::{quiet_quartile, Histogram, Quiet, Windows};
use crate::inputs::{
    arrival_schedule, Dataset, PinSource, Read, Scale, CAPACITY, HASH_SEED, R_TCP, SERVERS, WINDOW,
};
use crate::oracle::{Oracle, Verifier};
use crate::procfs;
use crate::report::{Metrics, RunResult};
use crate::trace;

/// Preloaded objects: `CorpusConfig::pchome()`.
const CORPUS_OBJECTS: usize = 131_180;
/// Share of a run's seconds the closed-loop phase is sized for; the
/// open-loop phase gets the rest.
const CLOSED_SHARE: f64 = 0.4;
/// Window-32 closed-loop pins the reference host completes per second.
const PIN_CLOSED_OPS_S: f64 = 60_000.0;
/// Open-loop pin arrivals per second, about a sixth of capacity: at a
/// third, a slow spell of the host drops capacity below the arrival
/// rate for seconds and the backlog, not the program, sets the median.
const PIN_OPEN_RATE: f64 = 10_000.0;
/// Window-32 closed-loop supersets the reference host completes per
/// second.
const SUPERSET_CLOSED_OPS_S: f64 = 700.0;
/// Open-loop superset arrivals per second, about a sixth of capacity:
/// a tick waits for its slowest superset, so queueing sets in early.
const SUPERSET_OPEN_RATE: f64 = 120.0;
/// `mixed_rw_tcp` rounds the reference host completes per second.
const MIXED_ROUNDS_S: f64 = 100.0;
/// Per `mixed_rw_tcp` round: fire-and-forget inserts, then a flush.
const MIXED_INSERTS: usize = 25;
/// Per round: pins in the read batch.
const MIXED_PINS: usize = 150;
/// Per round: supersets in the read batch.
const MIXED_SUPERSETS: usize = 2;
/// Seconds of work in one closed-loop chunk: requests are built,
/// issued and verified a chunk at a time and only the issue is timed.
/// Throughput is a quartile over chunks, so a chunk is long enough for
/// the window's drain at its end not to matter and short enough for a
/// run to hold a couple of dozen.
const CHUNK_S: f64 = 0.25;
/// Samples an open-loop latency window holds at least.
const WINDOW_SAMPLES: f64 = 100.0;
/// Rounds of `mixed_rw_tcp` in one window.
const MIXED_WINDOW: usize = 50;
/// A closed-loop phase gives up after this multiple of its sized
/// length, so a badly slowed program still ends inside the driver's
/// limit; the ops not issued are not counted.
const OVERRUN: f64 = 4.0;
/// Reads the traced run sends through all three executors.
const TRACED_READS: usize = 2_000;

/// Which TCP workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Pin,
    Superset,
    Mixed,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Pin => "pin_tcp",
            Kind::Superset => "superset_tcp",
            Kind::Mixed => "mixed_rw_tcp",
        }
    }
}

/// Paths the run needs.
pub struct Env {
    /// The `hyperdex-server` built from the root workspace.
    pub server_bin: PathBuf,
    /// `benchmark/out`.
    pub out_dir: PathBuf,
}

/// Op counts of one run, fixed by `(workload, seconds)`.
struct Plan {
    kind: Kind,
    /// Seconds the timed phases of one trial are sized for.
    sized_for: f64,
    closed: usize,
    open: usize,
    open_rate: f64,
    rounds: usize,
}

impl Plan {
    fn of(kind: Kind, scale: &Scale) -> Plan {
        let (closed_s, open_s) = (CLOSED_SHARE, 1.0 - CLOSED_SHARE);
        let sized_for = scale.seconds;
        match kind {
            Kind::Pin => Plan {
                kind,
                sized_for,
                closed: scale.ops(PIN_CLOSED_OPS_S * closed_s, 256),
                open: scale.ops(PIN_OPEN_RATE * open_s, 256),
                open_rate: PIN_OPEN_RATE,
                rounds: 0,
            },
            Kind::Superset => Plan {
                kind,
                sized_for,
                closed: scale.ops(SUPERSET_CLOSED_OPS_S * closed_s, 64),
                open: scale.ops(SUPERSET_OPEN_RATE * open_s, 64),
                open_rate: SUPERSET_OPEN_RATE,
                rounds: 0,
            },
            Kind::Mixed => Plan {
                kind,
                sized_for,
                closed: 0,
                open: 0,
                open_rate: 0.0,
                rounds: scale.ops(MIXED_ROUNDS_S, 8),
            },
        }
    }

    fn held(&self) -> usize {
        self.rounds * MIXED_INSERTS
    }
}

/// The cluster and its one client.
pub struct Stack {
    cluster: Cluster,
    pub client: NetClient,
}

impl Stack {
    /// Launches the preset topology and connects the client.
    pub fn launch(env: &Env) -> Result<Stack, String> {
        let cfg = ClusterConfig {
            r: R_TCP,
            seed: HASH_SEED,
            total_workers: SERVERS,
            servers: SERVERS,
            capacity: CAPACITY,
            policy: ShardPolicy::Prefix,
            store: StoreBackend::Slab,
            crash: None,
            server_bin: Some(env.server_bin.clone()),
            net: NetConfig {
                connect_timeout: Duration::from_secs(2),
                request_timeout: Duration::from_secs(10),
                reconnect_attempts: 4,
                reconnect_backoff: Duration::from_millis(25),
                window: WINDOW,
            },
        };
        let cluster = Cluster::launch(cfg).map_err(|e| format!("cluster launch: {e}"))?;
        let client = cluster
            .client()
            .map_err(|e| format!("client connect: {e}"))?;
        Ok(Stack { cluster, client })
    }

    /// Inserts records `range` of `data` and waits for the flush
    /// barrier; returns the seconds both took.
    pub fn load(&mut self, data: &Dataset, range: Range<u32>) -> Result<f64, String> {
        let t0 = Instant::now();
        for g in range {
            self.client
                .insert(Dataset::object(g), data.keywords(g).clone())
                .map_err(|e| format!("insert of record {g}: {e}"))?;
        }
        self.client.flush().map_err(|e| format!("flush: {e}"))?;
        Ok(t0.elapsed().as_secs_f64())
    }

    /// Pids of the server processes.
    pub fn server_pids() -> Vec<u32> {
        procfs::children_named("hyperdex-server")
    }

    /// Shuts the cluster down and returns the frame ledger.
    pub fn shutdown(self) -> Result<ShutdownReport, String> {
        self.cluster
            .shutdown(self.client)
            .map_err(|e| format!("cluster shutdown: {e}"))
    }
}

/// Separates the warm-up's draws from the timed phases'.
const WARM_SALT: u64 = 0x5741_524D;
/// Supersets in every set-up's warm-up.
const WARM_SUPERSETS: usize = 64;
/// Pins in every set-up's warm-up.
const WARM_PINS: usize = 2_000;

/// Everything a set-up produces.
struct Ready {
    data: Dataset,
    oracle: Oracle,
    stack: Stack,
    total_s: f64,
    launch_s: f64,
    load_ops_s: f64,
}

/// One full set-up: generate, launch, load, flush, build the oracle,
/// warm up. The warm-up is a fixed seeded read mix, the same in every
/// set-up, so a set-up that is shut down straight away gives the exact
/// frame count the timed phases' count is taken against.
fn set_up(seed: u64, scale: &Scale, plan: &Plan, env: &Env) -> Result<Ready, String> {
    let t0 = Instant::now();
    let data = Dataset::generate(seed, CORPUS_OBJECTS / scale.corpus_div, plan.held());
    let t_launch = Instant::now();
    let mut stack = Stack::launch(env)?;
    let launch_s = t_launch.elapsed().as_secs_f64();
    let load_s = stack.load(&data, 0..data.base_len())?;
    let oracle = Oracle::build(&data);
    let mut warm = PinSource::new(seed ^ WARM_SALT, data.base_len());
    let mut reads: Vec<Read> = (0..WARM_PINS).map(|_| warm.next(0)).collect();
    reads.extend(
        data.replay(seed ^ WARM_SALT, WARM_SUPERSETS)
            .into_iter()
            .map(|query| Read::Superset { query }),
    );
    let requests: Vec<Request> = reads.iter().map(|r| r.request(&data)).collect();
    stack
        .client
        .run_batch(&requests, WINDOW)
        .map_err(|e| format!("warm-up: {e}"))?;
    Ok(Ready {
        load_ops_s: f64::from(data.base_len()) / load_s,
        total_s: t0.elapsed().as_secs_f64(),
        launch_s,
        data,
        oracle,
        stack,
    })
}

/// Latencies of one run by request class.
#[derive(Default)]
struct Latencies {
    pin: Windows,
    superset: Windows,
}

impl Latencies {
    fn of(&mut self, read: Read) -> &mut Windows {
        match read {
            Read::Pin { .. } => &mut self.pin,
            Read::Superset { .. } => &mut self.superset,
        }
    }
}

/// Closed loop: `reads` through `run_batch` at window 32, `chunk`
/// requests at a time. Returns each chunk's ops per second inside
/// `run_batch` and the ops issued; replies are verified between
/// chunks, outside that time.
fn closed_loop(
    client: &mut NetClient,
    data: &Dataset,
    reads: &[Read],
    chunk: usize,
    sized_for: f64,
    verifier: &mut Verifier<'_>,
) -> (Vec<f64>, usize) {
    let live = 0..data.base_len();
    let (mut busy, mut issued, mut ops_s) = (0.0f64, 0usize, Vec::new());
    for chunk in reads.chunks(chunk.max(WINDOW)) {
        if busy > sized_for * OVERRUN {
            break;
        }
        let requests: Vec<Request> = chunk.iter().map(|r| r.request(data)).collect();
        let t0 = Instant::now();
        let replies = client.run_batch(&requests, WINDOW);
        let took = t0.elapsed().as_secs_f64();
        busy += took;
        issued += chunk.len();
        match replies {
            Ok(replies) => {
                ops_s.push(chunk.len() as f64 / took.max(1e-9));
                for (&read, reply) in chunk.iter().zip(&replies) {
                    verifier.read(read, live.clone(), &reply.objects);
                }
            }
            Err(e) => {
                verifier.errored(chunk.len() as u64, &e);
                break;
            }
        }
    }
    (ops_s, issued)
}

/// What the open-loop phases saw beside the latencies.
#[derive(Default)]
struct OpenLoop {
    lag: Histogram,
    /// Arrivals scheduled and the seconds they were spread over.
    scheduled: usize,
    scheduled_s: f64,
    /// Arrivals answered and the seconds that took.
    issued: usize,
    elapsed_s: f64,
}

/// Open loop: request `i` is due `due_ns[i]` after the phase starts,
/// whatever the program does. Each tick takes the requests already due
/// (at most a window, so all of them are sent at once and none waits
/// inside `run_batch` unseen) and issues them as one `run_batch`;
/// latency is counted from the due time and filed under the window of
/// the run the due time falls in.
fn open_loop(
    client: &mut NetClient,
    data: &Dataset,
    reads: &[Read],
    due_ns: &[u64],
    window_ns: u64,
    verifier: &mut Verifier<'_>,
    m: &mut Measured,
) {
    let (lat, out) = (&mut m.lat, &mut m.open);
    let first_window = lat.pin.len().max(lat.superset.len());
    let requests: Vec<Request> = reads.iter().map(|r| r.request(data)).collect();
    let mut replies: Vec<BatchResult> = Vec::with_capacity(reads.len());
    let sized_for = *due_ns.last().unwrap_or(&0) as f64 / 1e9;
    let t0 = Instant::now();
    let mut next = 0usize;
    while next < reads.len() {
        let now = t0.elapsed().as_nanos() as u64;
        let due = due_ns[next..]
            .iter()
            .take(WINDOW)
            .take_while(|&&d| d <= now)
            .count();
        if due == 0 {
            wait_until(t0, due_ns[next]);
            continue;
        }
        if now as f64 / 1e9 > sized_for * OVERRUN {
            break;
        }
        match client.run_batch(&requests[next..next + due], WINDOW) {
            Ok(batch) => {
                for (i, reply) in batch.iter().enumerate() {
                    let due_at = due_ns[next + i];
                    let late = Duration::from_nanos(now - due_at);
                    out.lag.record_duration(late);
                    let window = first_window + (due_at / window_ns) as usize;
                    lat.of(reads[next + i]).record(window, late + reply.latency);
                }
                replies.extend(batch);
            }
            Err(e) => {
                verifier.errored(due as u64, &e);
                break;
            }
        }
        next += due;
    }
    out.elapsed_s += t0.elapsed().as_secs_f64();
    out.issued += replies.len();
    out.scheduled += reads.len();
    out.scheduled_s += sized_for;
    let live = 0..data.base_len();
    for (&read, reply) in reads.iter().zip(&replies) {
        verifier.read(read, live.clone(), &reply.objects);
    }
}

/// Sleeps through most of a long gap and yields through the rest: a
/// sleep alone overshoots by the timer slack, a spin alone would take
/// a core from the two servers.
fn wait_until(t0: Instant, due_ns: u64) {
    let due = Duration::from_nanos(due_ns);
    loop {
        let now = t0.elapsed();
        if now >= due {
            return;
        }
        let gap = due - now;
        if gap > Duration::from_micros(300) {
            std::thread::sleep(gap - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The reads of one `mixed_rw_tcp` round: half the pins aim at records
/// inserted in an earlier round, supersets sit at seeded slots.
fn mixed_reads(data: &Dataset, pins: &mut PinSource, supersets: &[u32], round: usize) -> Vec<Read> {
    let base = data.base_len();
    let inserted = (round * MIXED_INSERTS) as u32;
    let mut reads: Vec<Read> = (0..MIXED_PINS)
        .map(|i| {
            if i % 2 == 1 && inserted > 0 {
                let target = base + pins.rng().gen_range(u64::from(inserted)) as u32;
                pins.next_at(target)
            } else {
                pins.next(0)
            }
        })
        .collect();
    for &query in supersets {
        let slot = pins.rng().gen_index(reads.len() + 1);
        reads.insert(slot, Read::Superset { query });
    }
    reads
}

/// Sums of the counters the runtime's workers and supervisors keep.
#[derive(Default, Clone, Copy)]
struct Ledger([f64; 9]);

const FRAMES: usize = 0;
const WORKER_FRAMES: usize = 1;
const SCANS: usize = 2;
const BATCH_FRAMES: usize = 3;
const BATCH_ENTRIES: usize = 4;
const BACKPRESSURE: usize = 5;
const WAKEUPS: usize = 6;
const DRAINED: usize = 7;
const RESPAWNS: usize = 8;

impl Ledger {
    fn of(report: &ShutdownReport) -> Ledger {
        let sum = |f: fn(&hyperdex_runtime::WorkerStats) -> u64| {
            report.workers.iter().map(f).sum::<u64>() as f64
        };
        Ledger([
            report.total_sent() as f64,
            sum(|w| w.frames_sent),
            sum(|w| w.scans),
            sum(|w| w.batch_frames_sent),
            sum(|w| w.batch_entries_sent),
            sum(|w| w.backpressure_hits),
            sum(|w| w.wakeups),
            report.supervisor.frames_drained as f64,
            report.supervisor.respawns as f64,
        ])
    }

    /// Adds what `trial` counted beyond an identical bare set-up.
    fn add_since(&mut self, trial: Ledger, setup: Ledger) {
        for (total, (t, s)) in self.0.iter_mut().zip(trial.0.iter().zip(setup.0)) {
            *total += t - s;
        }
    }
}

/// What the timed phases of a run's trials measured, pooled.
#[derive(Default)]
struct Measured {
    lat: Latencies,
    open: OpenLoop,
    /// Per closed-loop chunk (or window of rounds): ops per second
    /// over the whole mix.
    mix_ops_s: Vec<f64>,
    /// Per window of rounds: inserts made visible per second.
    insert_ops_s: Vec<f64>,
    closed_ops: usize,
    inserts: usize,
    /// Processor time over the timed phases, generation and
    /// verification between them included on the client's side.
    server_cpu_ns: u64,
    client_cpu_ns: u64,
    peak_rss_mb: Vec<f64>,
    ledger: Ledger,
    in_flight: u64,
    attempted: u64,
    failed: u64,
    /// The first reads of the first trial, for the traced run.
    traced_reads: Vec<Read>,
}

/// The timed phases of one trial on a freshly set-up cluster.
fn timed_phases(
    plan: &Plan,
    seed: u64,
    stack: &mut Stack,
    data: &Dataset,
    verifier: &mut Verifier<'_>,
    m: &mut Measured,
) {
    let (kind, sized_for) = (plan.kind, plan.sized_for);
    let mut pins = PinSource::new(seed, data.base_len());
    let stream = |pins: &mut PinSource, phase: u64, n: usize| -> Vec<Read> {
        match kind {
            Kind::Pin => (0..n).map(|_| pins.next(0)).collect(),
            _ => data
                .replay(seed ^ phase, n)
                .into_iter()
                .map(|query| Read::Superset { query })
                .collect(),
        }
    };
    let keep_traced = m.traced_reads.is_empty();
    match kind {
        Kind::Pin | Kind::Superset => {
            let closed = stream(&mut pins, 1, plan.closed);
            let sized = sized_for * CLOSED_SHARE;
            let chunk = (plan.closed as f64 / sized * CHUNK_S) as usize;
            let (ops_s, issued) =
                closed_loop(&mut stack.client, data, &closed, chunk, sized, verifier);
            m.mix_ops_s.extend(ops_s);
            m.closed_ops += issued;
            let reads = stream(&mut pins, 2, plan.open);
            let due = arrival_schedule(seed, plan.open_rate, plan.open);
            let window_ns = ((WINDOW_SAMPLES / plan.open_rate).max(0.5) * 1e9) as u64;
            open_loop(
                &mut stack.client,
                data,
                &reads,
                &due,
                window_ns,
                verifier,
                m,
            );
            if keep_traced {
                m.traced_reads = closed.into_iter().take(TRACED_READS).collect();
            }
        }
        Kind::Mixed => {
            let pool = data.distinct_queries(seed, plan.rounds * MIXED_SUPERSETS);
            let first_window = m.lat.superset.len();
            let t_start = Instant::now();
            let (mut busy, mut insert_busy, mut ops) = (0.0f64, 0.0f64, 0usize);
            for round in 0..plan.rounds {
                if t_start.elapsed().as_secs_f64() > sized_for * OVERRUN {
                    break;
                }
                let first = data.base_len() + (round * MIXED_INSERTS) as u32;
                let t0 = Instant::now();
                let written = (first..first + MIXED_INSERTS as u32).try_for_each(|g| {
                    stack
                        .client
                        .insert(Dataset::object(g), data.keywords(g).clone())
                });
                let flushed = written.and_then(|()| stack.client.flush());
                insert_busy += t0.elapsed().as_secs_f64();
                if let Err(e) = flushed {
                    verifier.errored(MIXED_INSERTS as u64, &e);
                    break;
                }
                verifier.wrote(MIXED_INSERTS as u64);
                m.inserts += MIXED_INSERTS;

                let supersets = &pool[round * MIXED_SUPERSETS..][..MIXED_SUPERSETS];
                let reads = mixed_reads(data, &mut pins, supersets, round + 1);
                let requests: Vec<Request> = reads.iter().map(|r| r.request(data)).collect();
                let live = 0..first + MIXED_INSERTS as u32;
                let t1 = Instant::now();
                let replies = stack.client.run_batch(&requests, WINDOW);
                busy += t1.elapsed().as_secs_f64();
                ops += MIXED_INSERTS + reads.len();
                match replies {
                    Ok(replies) => {
                        let window = first_window + round / MIXED_WINDOW;
                        for (&read, reply) in reads.iter().zip(&replies) {
                            m.lat.of(read).record(window, reply.latency);
                            verifier.read(read, live.clone(), &reply.objects);
                        }
                    }
                    Err(e) => {
                        verifier.errored(reads.len() as u64, &e);
                        break;
                    }
                }
                if keep_traced && m.traced_reads.len() < TRACED_READS {
                    m.traced_reads.extend(reads);
                }
                if (round + 1) % MIXED_WINDOW == 0 {
                    m.mix_ops_s
                        .push(ops as f64 / (busy + insert_busy).max(1e-9));
                    m.insert_ops_s
                        .push((MIXED_WINDOW * MIXED_INSERTS) as f64 / insert_busy.max(1e-9));
                    m.closed_ops += ops;
                    (busy, insert_busy, ops) = (0.0, 0.0, 0);
                }
            }
            if ops > 0 {
                // A last, partial window (every window of a --smoke).
                m.mix_ops_s
                    .push(ops as f64 / (busy + insert_busy).max(1e-9));
                let written = ops / (MIXED_INSERTS + MIXED_PINS + MIXED_SUPERSETS) * MIXED_INSERTS;
                m.insert_ops_s.push(written as f64 / insert_busy.max(1e-9));
                m.closed_ops += ops;
            }
            m.traced_reads.truncate(TRACED_READS);
        }
    }
}

/// Runs one TCP workload. A run is one bare set-up, whose ledger is
/// the frame count every set-up costs, and then `scale.setups` trials:
/// set-up, timed phases at a share of the run's seconds, shutdown with
/// the ledger checked. How fast a cluster runs depends on where its
/// threads happened to land, for as long as it lives; chunks and
/// windows of several clusters vote on every timing.
pub fn run(
    kind: Kind,
    seed: u64,
    scale: &Scale,
    traced: bool,
    env: &Env,
) -> Result<RunResult, String> {
    let trials = scale.setups.max(1);
    let per_trial = Scale {
        seconds: scale.seconds / trials as f64,
        ..*scale
    };
    let plan = Plan::of(kind, &per_trial);
    let mut problems = Vec::new();
    let (mut setup_s, mut launch_s, mut load_ops_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut set_up_timed = || -> Result<Ready, String> {
        let ready = set_up(seed, scale, &plan, env)?;
        setup_s.push(ready.total_s);
        launch_s.push(ready.launch_s);
        load_ops_s.push(ready.load_ops_s);
        Ok(ready)
    };

    let bare = set_up_timed()?.stack.shutdown()?;
    if bare.in_flight() != 0 {
        problems.push(format!(
            "bare set-up: {} frames in flight at shutdown",
            bare.in_flight()
        ));
    }
    let setup_ledger = Ledger::of(&bare);

    let mut m = Measured::default();
    let mut last = None;
    for trial in 0..trials {
        let Ready {
            data,
            oracle,
            mut stack,
            ..
        } = set_up_timed()?;
        let mut verifier = Verifier::new(&data, &oracle);
        let servers = Stack::server_pids();
        let cpu = |pids: &[u32]| pids.iter().map(|&p| procfs::cpu_ns(Some(p))).sum::<u64>();
        let (server_cpu0, client_cpu0) = (cpu(&servers), procfs::cpu_ns(None));
        let trial_seed = seed ^ ((trial as u64) << 56);
        timed_phases(&plan, trial_seed, &mut stack, &data, &mut verifier, &mut m);

        // After the phases, before shutdown: CPU and peak memory of
        // the servers, then the ledger.
        m.server_cpu_ns += cpu(&servers) - server_cpu0;
        m.client_cpu_ns += procfs::cpu_ns(None) - client_cpu0;
        m.peak_rss_mb.push(
            servers
                .iter()
                .filter_map(|&p| procfs::status_mib(Some(p), "VmHWM"))
                .sum(),
        );
        let report = stack.shutdown()?;
        m.in_flight += report.in_flight();
        m.ledger.add_since(Ledger::of(&report), setup_ledger);
        m.attempted += verifier.attempted;
        m.failed += verifier.failed;
        problems.extend(verifier.problem(&format!("trial {trial}")));
        drop(verifier);
        last = Some((data, oracle));
    }
    let (data, oracle) = last.expect("at least one trial");
    if m.in_flight != 0 {
        problems.push(format!(
            "frame ledger does not balance: {} frames in flight at shutdown",
            m.in_flight
        ));
    }

    // Gated: set-up time, frames per op, the servers' peak memory.
    let timed_ops = (m.closed_ops + m.open.issued) as f64;
    let mut metrics = Metrics::default();
    metrics.set("setup_s", quiet_quartile(&mut setup_s, Quiet::Low));
    metrics.set("frames_per_op", m.ledger.0[FRAMES] / timed_ops.max(1.0));
    metrics.set(
        "peak_rss_mb",
        m.peak_rss_mb.iter().copied().fold(0.0, f64::max),
    );

    // Reported with their noise: every wall-clock rate and latency is
    // the quiet quartile over the run's chunks or windows.
    if kind != Kind::Mixed {
        m.insert_ops_s = load_ops_s.clone();
    }
    metrics.set(
        "client.throughput_ops_s",
        quiet_quartile(&mut m.mix_ops_s, Quiet::High),
    );
    metrics.set(
        "client.insert_ops_s",
        quiet_quartile(&mut m.insert_ops_s, Quiet::High),
    );
    metrics.set_client_latencies(&m.lat.pin, &m.lat.superset);
    metrics.set(
        "client.failed_ops_ratio",
        m.failed as f64 / m.attempted.max(1) as f64,
    );

    let (all_pins, all_supersets) = (m.lat.pin.total(), m.lat.superset.total());
    eprintln!("[{}] pin       {}", kind.name(), all_pins.summary_us());
    eprintln!("[{}] superset  {}", kind.name(), all_supersets.summary_us());
    eprintln!("[{}] sched lag {}", kind.name(), m.open.lag.summary_us());

    let mut result = RunResult {
        workload: kind.name(),
        seed,
        metrics,
        attempted: m.attempted,
        failed: m.failed,
        problems,
        op_counts: vec![
            ("trials", trials as u64),
            ("closed_loop_ops", m.closed_ops as u64),
            ("open_loop_arrivals", m.open.issued as u64),
            ("inserts", m.inserts as u64),
            ("rounds_per_trial", plan.rounds as u64),
            ("preloaded_objects", u64::from(data.base_len())),
        ],
    };
    if traced {
        let per_op = |x: f64| x / timed_ops.max(1.0);
        let layer = &mut result.metrics;
        layer.set("workload.corpus_gen_s", data.corpus_gen_s);
        layer.set("workload.querylog_gen_s", data.querylog_gen_s);
        layer.set("workload.top10_share", data.top10_share());
        layer.set("client.sched_lag_p99_us", m.open.lag.p99() as f64 / 1e3);
        layer.set(
            "client.offered_ops_s",
            m.open.scheduled as f64 / m.open.scheduled_s.max(1e-9),
        );
        layer.set(
            "client.achieved_ops_s",
            m.open.issued as f64 / m.open.elapsed_s.max(1e-9),
        );
        layer.set(
            "client.cpu_ms_per_kop",
            per_op(m.client_cpu_ns as f64 / 1e3),
        );
        layer.set(
            "net.server_cpu_ms_per_kop",
            per_op(m.server_cpu_ns as f64 / 1e3),
        );
        layer.set(
            "net.load_ins_s",
            quiet_quartile(&mut load_ops_s, Quiet::High),
        );
        layer.set(
            "net.cluster_launch_s",
            quiet_quartile(&mut launch_s, Quiet::Low),
        );
        layer.set("net.frames_drained", m.ledger.0[DRAINED]);
        layer.set("net.respawns", m.ledger.0[RESPAWNS]);
        layer.set("net.in_flight_at_shutdown", m.in_flight as f64);
        layer.set("runtime.frames_per_op", per_op(m.ledger.0[WORKER_FRAMES]));
        layer.set("runtime.scans_per_op", per_op(m.ledger.0[SCANS]));
        layer.set(
            "runtime.batch_entries_per_frame",
            m.ledger.0[BATCH_ENTRIES] / m.ledger.0[BATCH_FRAMES].max(1.0),
        );
        layer.set("runtime.backpressure_hits", m.ledger.0[BACKPRESSURE]);
        layer.set("runtime.wakeups", m.ledger.0[WAKEUPS]);
        let layers = trace::tcp_layers(kind.name(), seed, &data, &oracle, &m.traced_reads, env)?;
        layers.apply(&mut result);
    }
    Ok(result)
}
