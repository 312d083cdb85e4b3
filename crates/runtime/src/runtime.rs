//! The threaded node runtime: sharded workers, bounded channels,
//! explicit backpressure, and crash restarts.
//!
//! # Shard ownership
//!
//! [`NodeRuntime::start`] spawns `workers` OS threads and no other.
//! Each owns the disjoint set of hypercube vertices [`ShardMap`]
//! assigns to it — `PostingStore`s and per-query
//! coordinator state live on exactly one thread and are never shared,
//! never locked. Everything that crosses a thread boundary is a
//! length-prefixed byte frame ([`crate::wire`]), so the worker boundary
//! behaves like a socket.
//!
//! # Channel topology and backpressure
//!
//! Every endpoint (each worker, plus the client handle) has one
//! bounded `std::sync::mpsc::sync_channel` inbox. The client may
//! block on `send` — workers always return to draining their inboxes,
//! so a blocked client always unblocks. Workers themselves **never**
//! block on a send: a full peer inbox would otherwise deadlock two
//! workers sending to each other. Instead a worker encodes each frame
//! onto its destination's lane ([`crate::transport::Fabric`]) and
//! `try_send`s the lane's packet once per loop turn; on `Full` the
//! lane simply keeps its bytes — the parked outbox *is* the lane — and
//! is offered again next turn, the event counted in
//! [`WorkerStats::backpressure_hits`]. When a worker is fully idle —
//! no parked frames, no traversal waiting on an owner — it blocks on
//! `recv` and burns no CPU ([`WorkerStats::wakeups`] counts the timed
//! polls it did need).
//!
//! # Queries
//!
//! The request protocol itself — ids, routing, reply matching, FT
//! re-issue — is the shared [`ClientCore`]; [`NodeRuntime`] plugs the
//! in-process channel link into it and adds what only a process that
//! owns its workers can do: start them and shut them down. On the
//! worker side there is one superset traversal: one
//! round per prefix region, merged into the very answer the
//! `SupersetCoordinator` machine of the simulator and the direct
//! engine folds, every awaited region owner under a deadline (on the
//! wall clock here: [`run_worker`] is the thread driver of the
//! clockless [`NodeMachine`]) and the retry rule `ProtocolSim`'s `FtCoordinator` reads
//! too (`FtPolicy::attempt_timeout`). [`NodeRuntime::superset_search`]
//! runs it under the worker's own patient policy and is answered whole
//! or not at all.
//!
//! # Restarts
//!
//! A worker a [`crate::CrashPoint`] names ([`WorkerContext::new`])
//! crashes at its scheduled point, losing every byte of in-memory state
//! but the shard's load log — the paper's surviving copy, which it
//! writes ahead of every load frame it handles ([`WorkerContext::log`]).
//! A crash is the machine's own business: it rebuilds itself in place
//! from that log and carries on reading **the same inbox** (peers never
//! observe a disconnect — exactly a process restart behind a stable
//! address), its thread none the wiser. `hyperdex-net`'s server arms
//! crash points; a [`NodeRuntime`] has none. Lost, copied and delayed
//! frames are a wire's faults, dealt by the virtual-time mesh
//! ([`crate::mesh`]).
//!
//! # Shutdown protocol and conservation
//!
//! [`NodeRuntime::shutdown`] first runs the flush barrier (a `Flush`
//! token to every worker, answered by `FlushAck` after all prior
//! frames on that inbox were processed), then sends `Shutdown` to every
//! worker and [`Host::join`]s them: it collects every worker's exit and
//! drains the exited inboxes. The conservation law covers crashes and
//! a faulty wire:
//!
//! ```text
//! sent + copied == received + dropped + drained
//! ```
//!
//! where `dropped` counts frames lost inside crashed workers and, on
//! the mesh, frames its wire lost; `copied` the extra copies that wire
//! delivered; and `drained` frames still buffered on an inbox after its
//! worker exited. The test suites and the bench assert it on every run,
//! faulted or not.

use std::collections::VecDeque;
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError,
};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hyperdex_core::{Error, KeywordHasher, KeywordSet, ObjectId, StoreBackend};

use crate::client_core::{ClientCore, ClientLink};
use crate::shard::{ShardMap, ShardPolicy};
use crate::transport::Fabric;
use crate::wire::{self, WireMsg};
use crate::worker::{counter_record, Flow, NodeMachine, WorkerContext, WorkerStats};

pub use crate::client_core::{
    BatchResult, FtSearchOptions, FtSearchOutcome, Request, RuntimeMatch,
};

/// How a [`NodeRuntime`] is shaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Hypercube dimension `r` (1 ..= 63).
    pub r: u8,
    /// Seed for keyword hashing and shard placement.
    pub seed: u64,
    /// Worker threads (each owns one shard); at least 1.
    pub workers: u32,
    /// Bound of every inbox channel, in frames.
    pub channel_capacity: usize,
    /// Zero-sized, selects nothing: `benchmark/` writes this field in
    /// its struct literal. Remove with [`ShardPolicy`].
    pub policy: ShardPolicy,
    /// Zero-sized, selects nothing: `benchmark/` writes this field in
    /// its struct literal. Remove with [`StoreBackend`].
    pub store: StoreBackend,
}

impl RuntimeConfig {
    /// A config with the default seed (0) and channel bound (256).
    pub fn new(r: u8, workers: u32) -> RuntimeConfig {
        RuntimeConfig {
            r,
            seed: 0,
            workers,
            channel_capacity: 256,
            policy: ShardPolicy::Prefix,
            store: StoreBackend::Slab,
        }
    }

    /// Overrides the seed.
    pub fn seed(mut self, seed: u64) -> RuntimeConfig {
        self.seed = seed;
        self
    }

    /// The [`ShardMap`] this config's runtime routes with — exposed so
    /// tests and benches can compute ownership (e.g. pick a crash
    /// victim that provably holds data) without duplicating the
    /// construction recipe.
    pub fn shard_map(&self) -> ShardMap {
        ShardMap::new(self.r, self.workers, self.seed)
    }
}

counter_record! {
    /// The counters of a process hosting workers, beyond the workers'
    /// own.
    SupervisorStats, "SSTATS",
    {
        /// Worker restarts, summed over the hosted workers.
        respawns,
        /// Load-log frames those restarts restored shards from.
        replayed_frames,
        /// Frames drained from inboxes after their workers exited.
        frames_drained,
        /// Inbound connections a server dropped because their byte
        /// stream stopped parsing as units, or ended before its hello.
        streams_corrupt,
        /// Inbound units a server skipped because they named a worker
        /// it does not host.
        units_misrouted,
    }
}

/// Frame accounting for a whole runtime run, built at shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Frames the client handle sent (`Shutdown` included).
    pub client_sent: u64,
    /// Frames the client handle received (including the final drain).
    pub client_received: u64,
    /// Per-worker lifetime counters, indexed by shard.
    pub workers: Vec<WorkerStats>,
    /// The hosting processes' counters.
    pub supervisor: SupervisorStats,
    /// Frames the wire lost (the mesh's drop fate, or a script);
    /// zero on channels and sockets.
    pub lost: u64,
    /// Extra copies the wire delivered (the mesh's duplicate fate, or
    /// a script); zero on channels and sockets.
    pub copied: u64,
}

impl ShutdownReport {
    /// Logical frames sent by every endpoint (client and workers).
    pub fn total_sent(&self) -> u64 {
        self.client_sent + self.workers.iter().map(|w| w.frames_sent).sum::<u64>()
    }

    /// Frames received by every endpoint.
    pub fn total_received(&self) -> u64 {
        self.client_received + self.workers.iter().map(|w| w.frames_received).sum::<u64>()
    }

    /// Frames lost to crashes or on the wire.
    pub fn total_dropped(&self) -> u64 {
        self.lost + self.workers.iter().map(|w| w.frames_dropped).sum::<u64>()
    }

    /// Frames unaccounted for after every thread exited. The
    /// conservation law says this is zero: every logical send was
    /// either delivered (possibly twice), dropped with a count, or
    /// drained from a dead worker's inbox.
    pub fn in_flight(&self) -> u64 {
        (self.total_sent() + self.copied).saturating_sub(
            self.total_received() + self.total_dropped() + self.supervisor.frames_drained,
        )
    }

    /// Panics unless `sent + copied == received + dropped + drained`
    /// (no frame lost or conjured, whatever the wire did).
    pub fn assert_conserved(&self) {
        assert_eq!(
            self.total_sent() + self.copied,
            self.total_received() + self.total_dropped() + self.supervisor.frames_drained,
            "message conservation violated: {self:?}"
        );
    }
}

/// Client handle to a running sharded cluster: the shared request
/// protocol ([`ClientCore`]) over the in-process channel link, plus
/// ownership of the worker threads. All methods are synchronous from
/// the caller's point of view; concurrency lives in the worker threads.
#[derive(Debug)]
pub struct NodeRuntime {
    core: ClientCore<ChannelLink>,
    host: Host,
}

/// The in-process [`ClientLink`]: one bounded channel into each worker,
/// one shared inbox back. It cannot fail — a crashed worker restarts
/// behind its channel — so every method returns `Ok`.
#[derive(Debug)]
struct ChannelLink {
    to_worker: Vec<SyncSender<Vec<u8>>>,
    inbox: Receiver<Vec<u8>>,
    /// Per worker: the frames queued for the next ship, back to back in
    /// queue order — the packet that ship sends — and how many.
    queued: Vec<(Vec<u8>, u64)>,
    /// Frames decoded out of a multi-frame packet, ahead of the inbox.
    pending: VecDeque<WireMsg>,
    clock: Clock,
    sent: u64,
    received: u64,
}

/// The wall clock a thread driver or the channel link hands its
/// machine: time since the clock was started.
#[derive(Debug)]
struct Clock(Instant);

impl Clock {
    fn start() -> Clock {
        Clock(Instant::now())
    }

    fn now(&self) -> Duration {
        self.0.elapsed()
    }
}

impl ClientLink for ChannelLink {
    fn queue(&mut self, worker: u32, msg: &WireMsg) {
        let (packet, frames) = &mut self.queued[worker as usize];
        msg.encode_append(packet);
        *frames += 1;
    }

    fn queued_bytes(&self) -> usize {
        self.queued.iter().map(|(packet, _)| packet.len()).sum()
    }

    /// One packet per worker with frames queued; the worker splits it
    /// with [`wire::frames`], as it does a peer's.
    fn ship(&mut self) -> Result<(), Error> {
        for (tx, (packet, frames)) in self.to_worker.iter().zip(&mut self.queued) {
            if *frames == 0 {
                continue;
            }
            // Blocking send is safe from the client: workers always
            // return to their inboxes, so a full channel always drains.
            tx.send(std::mem::take(packet))
                .expect("worker channel alive");
            self.sent += std::mem::take(frames);
        }
        Ok(())
    }

    fn now(&self) -> Duration {
        self.clock.now()
    }

    /// `awaiting` has nothing to report here: a worker that crashes
    /// restarts behind the same channel, so no wait is ever orphaned.
    fn recv(
        &mut self,
        deadline: Option<Duration>,
        _awaiting: Option<u32>,
    ) -> Result<Option<WireMsg>, Error> {
        loop {
            if let Some(msg) = self.pending.pop_front() {
                return Ok(Some(msg));
            }
            let packet = match deadline {
                None => self.inbox.recv().expect("worker threads alive"),
                Some(deadline) => {
                    let wait = deadline.saturating_sub(self.clock.now());
                    match self.inbox.recv_timeout(wait) {
                        Ok(packet) => packet,
                        Err(_) => return Ok(None),
                    }
                }
            };
            // A packet may coalesce several frames; every one is a
            // logical receive.
            for frame in wire::frames(&packet).expect_whole() {
                self.received += 1;
                self.pending.push_back(
                    WireMsg::decode_exact(frame).expect("workers emit well-formed frames"),
                );
            }
        }
    }
}

/// A handle dropped with inserts still queued ships them, best-effort:
/// it loses no write that reached the link.
impl Drop for ChannelLink {
    fn drop(&mut self) {
        for (tx, (packet, frames)) in self.to_worker.iter().zip(&mut self.queued) {
            if *frames > 0 {
                let _ = tx.send(std::mem::take(packet));
            }
        }
    }
}

/// Why a [`NodeRuntime`] request cannot fail: it validated its
/// arguments, and [`ChannelLink`] neither errors nor times out.
const INFALLIBLE: &str = "the channel link neither fails nor times out";

impl NodeRuntime {
    /// Spawns the worker threads and returns the client handle.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Dimension`] when `r` is outside `1..=63`.
    pub fn start(cfg: RuntimeConfig) -> Result<NodeRuntime, Error> {
        let hasher = KeywordHasher::new(cfg.r, cfg.seed)?;
        let workers = cfg.workers.max(1);
        let shards = cfg.shard_map();
        let cap = cfg.channel_capacity.max(1);

        let (worker_tx, worker_rx): (Vec<_>, Vec<_>) =
            (0..workers).map(|_| sync_channel::<Vec<u8>>(cap)).unzip();
        // The client inbox absorbs replies from every worker; scale its
        // bound so a reply burst cannot stall the whole fleet.
        let (client_tx, client_rx) = sync_channel::<Vec<u8>>(cap * workers as usize);
        let host = Host::start(worker_rx.into_iter().zip(0..).map(|(inbox, index)| {
            // A worker's fabric: an inbox lane to every other worker,
            // none to itself, the client inbox last.
            let links = worker_tx
                .iter()
                .zip(0..)
                .map(|(tx, j)| (j != index).then(|| tx.clone()))
                .chain(std::iter::once(Some(client_tx.clone())))
                .collect();
            let ctx = WorkerContext::new(index, hasher, shards, &[]);
            (ctx, Fabric::inboxes(links), inbox)
        }));

        let link = ChannelLink {
            to_worker: worker_tx,
            inbox: client_rx,
            queued: vec![(Vec::new(), 0); workers as usize],
            pending: VecDeque::new(),
            clock: Clock::start(),
            sent: 0,
            received: 0,
        };
        Ok(NodeRuntime {
            // No request deadline: a worker outlives its crashes.
            core: ClientCore::new(hasher, shards, link, None),
            host,
        })
    }

    /// The number of worker threads.
    pub fn workers(&self) -> u32 {
        self.core.shards().workers()
    }

    /// Queues one insert per entry, in input order:
    /// [`ClientCore::bulk_load`]; [`NodeRuntime::flush`] says when
    /// they have landed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyKeywordSet`] if any entry's set is empty.
    pub fn bulk_load<'a, I>(&mut self, entries: I) -> Result<(), Error>
    where
        I: IntoIterator<Item = (ObjectId, &'a KeywordSet)>,
    {
        self.core.bulk_load(entries)
    }

    /// Drain barrier: returns once every worker has processed every
    /// frame enqueued on its inbox before this call.
    pub fn flush(&mut self) {
        self.core.flush().expect(INFALLIBLE);
    }

    /// Pin search (§3.2): one frame to `F_h(K)`'s owner, one reply.
    pub fn pin_search(&mut self, keywords: &KeywordSet) -> Vec<ObjectId> {
        self.core.pin_search(keywords).expect(INFALLIBLE)
    }

    /// Superset search (§3.3), coordinated by the owner of `F_h(K)`.
    /// Blocks until the traversal finishes. Nothing here loses a frame
    /// or crashes a worker, and this handle has no request deadline.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroThreshold`] when `threshold == 0`.
    pub fn superset_search(
        &mut self,
        keywords: &KeywordSet,
        threshold: usize,
    ) -> Result<Vec<RuntimeMatch>, Error> {
        self.core.superset_search(keywords, threshold)
    }

    /// Runs the drain barrier, sends every worker `Shutdown`, joins
    /// them, and returns the conservation report.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.flush();
        for worker in 0..self.workers() {
            self.core
                .send(worker, &WireMsg::Shutdown)
                .expect(INFALLIBLE);
        }
        let mut link = self.core.into_link();
        drop(std::mem::take(&mut link.to_worker));
        let (workers, supervisor) = self.host.join();
        // Drain stragglers buffered on the client inbox (none are
        // expected after the barrier, but every frame must be counted
        // for conservation to be exact).
        while let Ok(packet) = link.inbox.recv() {
            link.received += wire::frames(&packet).expect_whole().count() as u64;
        }
        ShutdownReport {
            client_sent: link.sent,
            client_received: link.received,
            workers,
            supervisor,
            lost: 0,
            copied: 0,
        }
    }
}

/// The thread driver: runs one [`NodeMachine`] to completion on the
/// calling thread, under the wall clock, fed from `inbox`, and returns
/// its lifetime counters and the still-open inbox, for draining. The
/// fabric's lanes decide where frames physically go; the machine and
/// this wait policy are identical across deployments. The clock is read
/// once per packet and once per timed wake.
pub fn run_worker(
    ctx: WorkerContext,
    fabric: Fabric,
    inbox: Receiver<Vec<u8>>,
) -> (WorkerStats, Receiver<Vec<u8>>) {
    let clock = Clock::start();
    let mut node = NodeMachine::new(ctx, fabric);
    let mut now = Duration::ZERO;
    let mut wakeups = 0;
    let mut leaving = false;
    loop {
        // The turn's one offer waits for the inbox's answer, because
        // that decides whether the batching window is still open:
        // drain without waiting while more inbound work is
        // immediately available (outbound frames keep batching).
        // Otherwise the worker is about to wait, and any wait is a
        // window close: no lane's packet can grow further, so every
        // lane is offered. On the way out the window is closed and
        // the inbox is not consulted until the lanes are empty.
        let polled = if leaving {
            Err(TryRecvError::Empty)
        } else {
            inbox.try_recv()
        };
        let idle = matches!(polled, Err(TryRecvError::Empty));
        node.fabric().offer(idle);
        if leaving && node.fabric().pending() == 0 {
            break;
        }
        // Pick the cheapest wait that can't stall anything: poll
        // while a full sink still has frames parked on its lane
        // (on the way out that is the only case left, so a worker
        // shutting down never blocks), sleep until the earliest
        // deadline while a traversal is parked, and block outright
        // when idle (zero wakeups, zero CPU).
        let recv = match polled {
            Ok(packet) => Ok(packet),
            Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) => {
                if node.fabric().pending() > 0 {
                    inbox.recv_timeout(Duration::from_millis(1))
                } else if let Some(deadline) = node.next_deadline() {
                    inbox.recv_timeout(deadline.saturating_sub(now))
                } else {
                    inbox.recv().map_err(|_| RecvTimeoutError::Disconnected)
                }
            }
        };
        now = clock.now();
        node.tick(now);
        let packet = match recv {
            Ok(packet) => packet,
            Err(RecvTimeoutError::Timeout) => {
                wakeups += 1;
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        leaving |= node.receive(now, &packet) == Flow::Leaving;
        node.fabric().recycle(packet);
    }
    let mut stats = node.exit();
    stats.wakeups = wakeups;
    (stats, inbox)
}

/// The workers one process hosts — a [`NodeRuntime`]'s, or a
/// `hyperdex-net` server's — one thread each, running [`run_worker`].
#[derive(Debug)]
pub struct Host {
    threads: Vec<JoinHandle<()>>,
    exits: Receiver<(WorkerStats, Receiver<Vec<u8>>)>,
}

impl Host {
    /// Spawns a thread per worker, each given its context, its fabric
    /// and its inbox.
    pub fn start(
        workers: impl IntoIterator<Item = (WorkerContext, Fabric, Receiver<Vec<u8>>)>,
    ) -> Host {
        let (exit_tx, exits) = channel();
        let threads = workers
            .into_iter()
            .map(|(ctx, fabric, inbox)| {
                let exit_tx = exit_tx.clone();
                std::thread::Builder::new()
                    .name(format!("hyperdex-worker-{}", ctx.index))
                    .spawn(move || {
                        let _ = exit_tx.send(run_worker(ctx, fabric, inbox));
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Host { threads, exits }
    }

    /// Waits until every worker has left — each on its `Shutdown` —
    /// and closes the books: the workers' counters in index order, and
    /// the process's, their restarts summed and every frame drained
    /// from an exited worker's inbox. Blocks until the first exit; from
    /// then on polls, draining, so that a worker still running never
    /// waits on a full inbox nobody reads any more.
    pub fn join(self) -> (Vec<WorkerStats>, SupervisorStats) {
        let mut workers: Vec<WorkerStats> = Vec::new();
        let mut exited: Vec<Receiver<Vec<u8>>> = Vec::new();
        let mut sup = SupervisorStats::default();
        while workers.len() < self.threads.len() {
            let exit = if exited.is_empty() {
                self.exits
                    .recv()
                    .map_err(|_| RecvTimeoutError::Disconnected)
            } else {
                self.exits.recv_timeout(Duration::from_millis(1))
            };
            match exit {
                Ok((stats, inbox)) => {
                    workers.push(stats);
                    exited.push(inbox);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            // After the last exit this is the final sweep: a worker's
            // lanes are gone before its exit is sent.
            for inbox in &exited {
                for packet in inbox.try_iter() {
                    sup.frames_drained += wire::frames(&packet).expect_whole().count() as u64;
                }
            }
        }
        for thread in self.threads {
            thread.join().expect("worker thread panicked");
        }
        workers.sort_unstable_by_key(|w| w.worker);
        sup.respawns = workers.iter().map(|w| w.respawns).sum();
        sup.replayed_frames = workers.iter().map(|w| w.replayed_frames).sum();
        (workers, sup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(s: &str) -> KeywordSet {
        KeywordSet::parse(s).unwrap()
    }

    fn oid(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    const CORPUS: &[(u64, &str)] = &[
        (1, "a"),
        (2, "a b"),
        (3, "a b c"),
        (4, "a c"),
        (5, "b c"),
        (6, "a d e"),
        (7, "x y"),
        (8, "a b d"),
    ];

    fn loaded(workers: u32) -> NodeRuntime {
        let mut rt = NodeRuntime::start(RuntimeConfig::new(8, workers).seed(42)).unwrap();
        let entries: Vec<(ObjectId, KeywordSet)> = CORPUS
            .iter()
            .map(|&(id, kws)| (oid(id), set(kws)))
            .collect();
        rt.bulk_load(entries.iter().map(|(id, k)| (*id, k)))
            .unwrap();
        rt.flush();
        rt
    }

    #[test]
    fn conservation_holds_on_an_idle_runtime() {
        let rt = NodeRuntime::start(RuntimeConfig::new(8, 8)).unwrap();
        let report = rt.shutdown();
        report.assert_conserved();
        // Flush (8) + acks (8) + shutdowns (8).
        assert_eq!(report.total_sent(), 24);
    }

    #[test]
    fn broad_scan_frame_count_is_pinned() {
        // The broad scan's ledger is a golden number: 8 inserts, two
        // flush rounds and the shutdown round (48), `Query`/`QueryDone`,
        // and one `RegionQuery` + one `RegionDone` for each of the three
        // other owners of the prefix regions the subcube spans (`a`
        // fixes bit 5, halving the eight). The retired per-vertex hash
        // placement shipped 210 frames for the same scan.
        let mut rt = loaded(8);
        let mut ids: Vec<u64> = rt
            .superset_search(&set("a"), usize::MAX - 1)
            .unwrap()
            .iter()
            .map(|m| m.object.raw())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4, 6, 8]);
        let report = rt.shutdown();
        report.assert_conserved();
        assert_eq!(report.total_sent(), 56);
    }

    #[test]
    fn idle_workers_block_instead_of_spinning() {
        let rt = NodeRuntime::start(RuntimeConfig::new(8, 4)).unwrap();
        // Long enough that a 1 ms poll loop would rack up ~100 wakeups
        // per worker; a blocking worker records none.
        std::thread::sleep(Duration::from_millis(120));
        let report = rt.shutdown();
        report.assert_conserved();
        for w in &report.workers {
            assert_eq!(w.wakeups, 0, "worker {} busy-waited while idle", w.worker);
        }
    }

    /// A worker shutting down with a frame parked on a capacity-1 sink
    /// that flaps between full and free: whichever of its offers the
    /// free slot meets, the worker must hand the frame over exactly
    /// once and exit — a blocking wait here would never be woken (the
    /// test holds the inbox open).
    #[test]
    fn a_worker_leaves_through_a_sink_that_flaps_between_full_and_free() {
        let filler = WireMsg::Flush { token: 0 }.encode();
        for round in 1..=256 {
            let (client_tx, client) = std::sync::mpsc::sync_channel::<Vec<u8>>(1);
            let (inbox_tx, inbox) = std::sync::mpsc::sync_channel::<Vec<u8>>(1);
            client_tx.try_send(filler.clone()).unwrap();
            // One packet, so one turn: the ack parks on the full lane
            // and the worker is on its way out.
            let mut packet = WireMsg::Flush { token: round }.encode();
            packet.extend(WireMsg::Shutdown.encode());
            inbox_tx.send(packet).unwrap();
            let hasher = KeywordHasher::new(8, 42).unwrap();
            let shards = ShardMap::new(8, 1, 42);
            let ctx = WorkerContext::new(0, hasher, shards, &[]);
            let links = vec![None, Some(client_tx.clone())];
            let worker = std::thread::spawn(move || run_worker(ctx, Fabric::inboxes(links), inbox));
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut acks = 0;
            while !worker.is_finished() {
                assert!(
                    Instant::now() < deadline,
                    "round {round}: blocked on the way out"
                );
                acks += client.try_recv().is_ok_and(|p| p != filler) as u32;
                let _ = client_tx.try_send(filler.clone());
            }
            acks += client.try_iter().filter(|p| *p != filler).count() as u32;
            let (stats, _) = worker.join().unwrap();
            assert_eq!((acks, stats.frames_dropped), (1, 0), "round {round}");
        }
    }

    #[test]
    fn tiny_channels_still_complete_under_backpressure() {
        // Capacity 1 forces constant try_send rejections; the outbox
        // discipline must still deliver everything.
        let mut rt = NodeRuntime::start(RuntimeConfig {
            channel_capacity: 1,
            ..RuntimeConfig::new(8, 4).seed(3)
        })
        .unwrap();
        let entries: Vec<(ObjectId, KeywordSet)> = (0..200u64)
            .map(|i| (oid(i), set(&format!("common tag{}", i % 5))))
            .collect();
        rt.bulk_load(entries.iter().map(|(id, k)| (*id, k)))
            .unwrap();
        rt.flush();
        let out = rt.superset_search(&set("common"), usize::MAX - 1).unwrap();
        assert_eq!(out.len(), 200);
        let report = rt.shutdown();
        report.assert_conserved();
    }

    /// What a driver owes its machine (DESIGN.md §12): a `tick` no later
    /// than `next_deadline()`, packet or no packet. Worker 0 runs on a
    /// real thread; worker 1 is a silent peer — an inbox the test holds
    /// and never reads — so only worker 0's own timers end the query it
    /// coordinates: three transmissions, 20 ms doubling, then the owner
    /// is given up, long before the test's five-second wait would run
    /// out.
    #[test]
    fn a_parked_traversal_ends_on_its_own_deadlines() {
        let hasher = KeywordHasher::new(8, 42).unwrap();
        let shards = ShardMap::new(8, 2, 42);
        let (inbox_tx, inbox) = sync_channel::<Vec<u8>>(4);
        let (peer_tx, peer) = sync_channel::<Vec<u8>>(4);
        let (client_tx, client) = sync_channel::<Vec<u8>>(4);
        let ctx = WorkerContext::new(0, hasher, shards, &[]);
        let links = vec![None, Some(peer_tx), Some(client_tx)];
        let worker = std::thread::spawn(move || run_worker(ctx, Fabric::inboxes(links), inbox));
        // A one-word query: its subcube spans both workers' halves.
        let query = WireMsg::FtQuery {
            query_id: 1,
            keywords: set("a"),
            threshold: u64::MAX - 1,
            max_retries: 2,
            base_timeout: 20,
        };
        let started = Instant::now();
        inbox_tx.send(query.encode()).unwrap();
        let done = client
            .recv_timeout(Duration::from_secs(5))
            .expect("worker 0's own deadlines end the query");
        let took = started.elapsed();
        let Ok(WireMsg::FtQueryDone { coverage, .. }) = WireMsg::decode_exact(&done) else {
            panic!("not an FT answer: {done:?}");
        };
        assert_eq!(
            (coverage.queries_sent, coverage.retries, coverage.timeouts),
            (3, 2, 1),
            "{coverage:?}"
        );
        assert!(!coverage.skipped.is_empty(), "{coverage:?}");
        assert!(took < Duration::from_secs(1), "answered after {took:?}");
        inbox_tx.send(WireMsg::Shutdown.encode()).unwrap();
        let (stats, _) = worker.join().unwrap();
        let asked: usize = peer
            .try_iter()
            .map(|packet| wire::frames(&packet).expect_whole().count())
            .sum();
        assert_eq!((stats.frames_sent, asked), (4, 3), "{stats:?}");
    }
}
