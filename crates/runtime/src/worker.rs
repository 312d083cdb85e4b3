//! The shard-owning worker event loop, factored out of the in-process
//! runtime so any deployment can host it.
//!
//! A worker is a pure protocol engine: it drains one inbox of packets
//! (each packet one or more length-prefixed [`WireMsg`] frames),
//! mutates only its own shard's `PostingStore`s, and encodes each
//! outbound frame once, onto its destination's lane of a [`Fabric`].
//! Nothing in here knows whether a lane ends in a co-located inbox
//! (every lane of a [`crate::runtime::NodeRuntime`]) or in a socket's
//! writer queue (`hyperdex-net`'s multi-process deployment) — which is
//! exactly what lets the parity harness demand identical results from
//! both.
//!
//! Every worker keeps a result cache in front of its coordinator path
//! ([`hyperdex_core::cache::FifoCache`], DESIGN.md § "Serving-path
//! result cache"): a `Query` whose answer is cached is answered with
//! one `QueryDone` and no traversal frame, identical queries already
//! being coordinated here wait for the running traversal, and the
//! worker's *write epoch* — the cache's generation, bumped once per
//! object newly indexed on this shard, reported on every `FlushAck`
//! and `TContBatch` — keeps the answers coherent with flushed writes
//! without a single extra frame.
//!
//! [`run_worker`] is the entry point: it consumes a [`WorkerContext`],
//! runs the loop until shutdown or a scheduled crash, and returns a
//! [`WorkerExit`] carrying the lifetime counters and the still-open
//! inbox (so a supervisor can respawn the shard on the same address).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperdex_core::cache::{CacheCounters, Claim, FifoCache};
use hyperdex_core::protocol::{child_contacts, scan_store, SupersetCoordinator};
use hyperdex_core::{
    FtCmd, FtCoordinator, KeywordHasher, KeywordInterner, KeywordSet, ObjectId, PostingStore,
};
use hyperdex_hypercube::{Shape, Vertex};

use crate::fault::{Fate, FaultInjector};
use crate::shard::ShardMap;
use crate::transport::{count_frames, take_frame, Fabric};
use crate::wire::{self, WireMsg, CONTACT_LEN, MAX_BATCH_ENTRIES, MAX_BODY_LEN};

/// Self-owned visits run from the in-worker queue in slices of this
/// many scans per loop iteration, so a deep local subtree cannot
/// starve the inbox (the loop polls for frames between slices).
const LOCAL_WORK_BUDGET: usize = 32;

/// Cached queries a worker's result cache holds. The paper sizes a
/// node's cache at `α = 1/6` of its index — tens of thousands of
/// queries for a shard of the pchome corpus; a stream as skewed as the
/// query log keeps its whole repeating head in far fewer, and a fixed
/// bound keeps the cache's footprint independent of the shard.
const RESULT_CACHE_SLOTS: usize = 1024;

/// Longest answer, in result items, the cache keeps. A longer one is
/// still shared with the queries waiting for it, then dropped, so a
/// full cache retains at most `RESULT_CACHE_SLOTS` × this many
/// 16-byte items — 64 MiB per worker — however broad the popular
/// queries are.
const RESULT_CACHE_MAX_ITEMS: usize = 4096;

/// How long a traversal may sit parked with no reply arriving before
/// identical queries stop waiting for it. Replies of a healthy
/// traversal are milliseconds apart; one silent this long has lost a
/// frame for good (a dropped batch, a crashed peer), so the next
/// identical query walks the cube itself and takes the cache slot
/// over. Equal to the fault-tolerant path's default attempt deadline
/// and well below `NetConfig`'s default request timeout, so a client
/// that retries after timing out is answered.
pub const LEADER_SILENCE: Duration = Duration::from_secs(2);

/// Declares a record of `u64` counters once: the struct, `merge`
/// (the field-wise sum) and the text form a server process reports it
/// in — one line, `TAG v1 v2 …` in declaration order — with its
/// parser. An optional leading `u32` key names whose record it is: it
/// is written first and never summed.
macro_rules! counter_record {
    (
        $(#[$meta:meta])*
        $name:ident, $tag:literal,
        $(key { $(#[$kmeta:meta])* $key:ident },)?
        { $($(#[$fmeta:meta])* $field:ident,)* }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$kmeta])* pub $key: u32,)?
            $($(#[$fmeta])* pub $field: u64,)*
        }

        impl $name {
            /// Adds `other`'s counters to this record's.
            pub fn merge(&mut self, other: &$name) {
                $(debug_assert_eq!(self.$key, other.$key);)?
                $(self.$field += other.$field;)*
            }

            /// The record as one report line.
            pub fn report_line(&self) -> String {
                let mut line = String::from($tag);
                $(line.push_str(&format!(" {}", self.$key));)?
                $(line.push_str(&format!(" {}", self.$field));)*
                line
            }

            /// Reads a [`Self::report_line`] back; `None` for any other
            /// line, and for one with a field missing or to spare.
            pub fn parse_line(line: &str) -> Option<$name> {
                let mut fields = line.strip_prefix(concat!($tag, " "))?.split(' ');
                let record = $name {
                    $($key: fields.next()?.parse().ok()?,)?
                    $($field: fields.next()?.parse().ok()?,)*
                };
                fields.next().is_none().then_some(record)
            }
        }
    };
}
pub(crate) use counter_record;

counter_record! {
    /// One worker's lifetime counters, returned when its thread exits.
    /// After a crash the supervisor merges the counters of every
    /// incarnation of the shard into one entry.
    WorkerStats, "WSTATS",
    key {
        /// The worker's shard index.
        worker
    },
    {
        /// Frames this worker decided to send (logical sends, before the
        /// fault injector rolled their fate).
        frames_sent,
        /// Frames received and decoded from the inbox.
        frames_received,
        /// Times a lane was offered and its full sink pushed back,
        /// leaving the frames parked on it: at most one per lane per
        /// loop turn (the loop offers once a turn).
        backpressure_hits,
        /// Objects newly indexed on this shard.
        inserts,
        /// Vertex scans served (local visits, `T_QUERY`s, and pins).
        scans,
        /// Superset queries this worker coordinated (sequential + FT).
        queries_coordinated,
        /// Frames the injector dropped, plus delay-stash remnants and
        /// lane/stash frames lost in a crash.
        frames_dropped,
        /// Frames the injector delivered twice (counted once per extra
        /// copy).
        frames_duplicated,
        /// Frames the injector stashed behind a later send.
        frames_delayed,
        /// Timed `recv` polls that expired without a frame. Zero on an
        /// idle worker — idleness blocks, it doesn't spin.
        wakeups,
        /// Batch frames (`TQueryBatch`/`TContBatch`) among `frames_sent`.
        /// Each counts **once** in the frame ledger no matter how many
        /// entries it aggregates.
        batch_frames_sent,
        /// Logical per-vertex entries carried inside those batch frames —
        /// the traversal volume the batching collapsed.
        batch_entries_sent,
        /// Superset queries answered from the result cache: one
        /// `QueryDone`, no traversal.
        cache_hits,
        /// Superset queries that found no usable entry (absent, first
        /// sighting, or not covering the threshold) and walked the cube.
        cache_misses,
        /// Superset queries that waited for a running traversal of the
        /// same query instead of starting their own.
        cache_coalesced,
        /// Superset queries whose cached entry (or running traversal) the
        /// epoch check rejected; they walked the cube and replaced it.
        cache_stale,
        /// Cache slots pushed out by a newer reservation.
        cache_evictions,
        /// Inbox frames that did not decode (or a packet remainder that
        /// did not split into frames): skipped, and counted here
        /// *instead of* `frames_received` — no honest sender counted
        /// them as sent, so the frame ledger balances without them.
        frames_undecodable,
    }
}

impl WorkerStats {
    /// The result cache's share of the counters.
    pub fn cache(&self) -> CacheCounters {
        CacheCounters {
            hits: self.cache_hits,
            misses: self.cache_misses,
            coalesced: self.cache_coalesced,
            stale: self.cache_stale,
            evictions: self.cache_evictions,
        }
    }
}

/// Why a worker's event loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitCause {
    /// Processed `Shutdown` and flushed everything.
    Clean,
    /// Hit a scheduled crash point; in-memory state is gone.
    Crashed,
}

/// A worker's parting message to its supervisor. The inbox `Receiver`
/// rides along so the channel never disconnects: a respawned worker
/// resumes the same address, and peers' sends keep landing.
#[derive(Debug)]
pub struct WorkerExit {
    /// Clean shutdown or crash-stop.
    pub cause: ExitCause,
    /// The incarnation's lifetime counters.
    pub stats: WorkerStats,
    /// The still-open inbox, for respawn or draining.
    pub inbox: Receiver<Vec<u8>>,
}

/// Everything a worker needs besides its fabric and inbox.
#[derive(Debug)]
pub struct WorkerContext {
    /// The worker's global shard index.
    pub index: u32,
    /// Hypercube shape (dimension `r`).
    pub shape: Shape,
    /// The keyword → vertex hash every endpoint shares.
    pub hasher: KeywordHasher,
    /// The global vertex → worker map.
    pub shards: ShardMap,
    /// Seeded fault injector, when the deployment schedules faults.
    pub injector: Option<FaultInjector>,
    /// `true` when respawning after a crash: query frames park until
    /// the supervisor's `RepairDone` arrives.
    pub repairing: bool,
}

/// Runs one worker to completion on the calling thread. The fabric's
/// lanes decide where frames physically go; the loop is identical
/// across deployments.
pub fn run_worker(ctx: WorkerContext, fabric: Fabric, inbox: Receiver<Vec<u8>>) -> WorkerExit {
    let endpoints = fabric.endpoints();
    let worker = Worker {
        index: ctx.index,
        shape: ctx.shape,
        hasher: ctx.hasher,
        shards: ctx.shards,
        tables: HashMap::new(),
        interner: KeywordInterner::new(),
        fabric,
        stash: vec![Vec::new(); endpoints],
        queries: HashMap::new(),
        ft_queries: HashMap::new(),
        cache: FifoCache::new(RESULT_CACHE_SLOTS),
        heard: vec![0; endpoints - 1],
        local_work: VecDeque::new(),
        timers: BinaryHeap::new(),
        injector: ctx.injector,
        repair: ctx.repairing.then(Vec::new),
        stats: WorkerStats {
            worker: ctx.index,
            ..WorkerStats::default()
        },
    };
    worker.run(inbox)
}

/// One visit's answer: the vertex's matching objects plus its frontier
/// children as `(bits, via_dim)` pairs.
type VisitReply = (Vec<(u64, u32)>, Vec<(u64, u8)>);

/// In-progress sequential query on its coordinator worker.
///
/// The batched drive keeps many visits outstanding at once, but the
/// fold order is pinned: `pending` records the dispatch order (which
/// equals the sequential machine's visit order), and replies park in
/// `replies` until their vertex reaches the front. Folding strictly
/// in dispatch order, truncating each reply to the budget live at
/// fold time, makes the batched traversal result-identical to the
/// one-visit-at-a-time machine — including under a binding threshold.
#[derive(Debug)]
struct QueryState {
    coord: SupersetCoordinator,
    keywords: Arc<KeywordSet>,
    results: Vec<(u64, u32)>,
    /// Dispatched, not-yet-folded vertices in dispatch order.
    pending: VecDeque<u64>,
    /// Replies that arrived out of order, keyed by vertex bits.
    replies: HashMap<u64, VisitReply>,
    /// Cross-cut children a remote expansion already forwarded to
    /// their owner on this query's behalf (chained delegation): their
    /// replies arrive unsolicited, so the dispatcher must not ship a
    /// second visit when they surface in the frontier.
    predelegated: HashSet<u64>,
    /// Whether this traversal holds the query's cache slot (and fills
    /// it when done) or runs on a first sighting and keeps nothing.
    slot: bool,
    /// This worker's write epoch when the traversal started.
    own_epoch: u64,
    /// `(peer, epoch)`: the lowest write epoch each peer reported on a
    /// `TContBatch` of this traversal.
    peer_epochs: Vec<(u32, u64)>,
    /// Identical queries that arrived while this traversal ran.
    waiters: Vec<Waiter>,
    /// When the traversal last parked to wait for replies.
    parked_at: Instant,
}

/// A query waiting for another query's traversal (single flight).
#[derive(Debug)]
struct Waiter {
    query_id: u64,
    threshold: usize,
    marks: Vec<u64>,
}

/// Whether an answer stamped with the `remote` peer epochs may still
/// be served: each contributing peer's stamp must be no older than
/// what the request's `marks` demand (writes its client saw flushed)
/// and than the newest epoch this worker has `heard` from that peer.
fn fresh(remote: &[(u32, u64)], heard: &[u64], marks: &[u64]) -> bool {
    remote.iter().all(|&(peer, epoch)| {
        let peer = peer as usize;
        epoch >= heard[peer].max(marks.get(peer).copied().unwrap_or(0))
    })
}

/// In-progress fault-tolerant query on its coordinator worker: the
/// shared sans-I/O machine over the `(object id, extra keywords)` pairs
/// a `T_CONT` carries. The worker only turns its commands into frames
/// and deadlines and feeds frames and expirations back.
type FtMachine = FtCoordinator<(u64, u32)>;

/// A frame's matches as the machine takes them: keyed by object id.
fn keyed(objects: Vec<(u64, u32)>) -> impl Iterator<Item = (ObjectId, (u64, u32))> {
    objects
        .into_iter()
        .map(|hit| (ObjectId::from_raw(hit.0), hit))
}

/// One shard-owning thread. Fabric endpoints `0..W` address fellow
/// workers, endpoint `W` the client.
struct Worker {
    index: u32,
    shape: Shape,
    hasher: KeywordHasher,
    shards: ShardMap,
    tables: HashMap<u64, PostingStore>,
    interner: KeywordInterner,
    fabric: Fabric,
    /// Injector-delayed frames, per destination; released behind the
    /// next same-destination send.
    stash: Vec<Vec<WireMsg>>,
    queries: HashMap<u64, QueryState>,
    ft_queries: HashMap<u64, FtMachine>,
    /// Results of the superset queries this worker coordinated, as the
    /// `(object id, extra keywords)` pairs a `QueryDone` carries. Its
    /// generation is this worker's write epoch.
    cache: FifoCache<(u64, u32)>,
    /// Per worker: the highest write epoch heard on a `TContBatch`.
    heard: Vec<u64>,
    /// Self-owned visits awaiting a local scan, as `(query_id, bits,
    /// via_dim)` — the fast path that skips encode/decode entirely.
    /// Entries whose query has since completed are skipped on pop.
    local_work: VecDeque<(u64, u64, Option<u8>)>,
    /// `(deadline, query_id, vertex bits, generation)` — min-heap by
    /// deadline. Entries are never removed early: the machine ignores
    /// a timer that is no longer its vertex's current one.
    timers: BinaryHeap<Reverse<(Instant, u64, u64, u64)>>,
    injector: Option<FaultInjector>,
    /// `Some` while repairing after a respawn: parked frames awaiting
    /// `RepairDone`.
    repair: Option<Vec<WireMsg>>,
    stats: WorkerStats,
}

impl Worker {
    fn client_slot(&self) -> usize {
        self.fabric.endpoints() - 1
    }

    fn run(mut self, inbox: Receiver<Vec<u8>>) -> WorkerExit {
        let mut shutting_down = false;
        loop {
            self.fire_expired_timers();
            self.run_local_work();
            // The turn's one offer waits for the inbox's answer, because
            // that decides whether the batching window is still open:
            // drain without waiting while local work is queued (the
            // fast path must not starve peers) or more inbound work is
            // immediately available (outbound frames keep batching).
            // Otherwise the worker is about to wait, and any wait is a
            // window close: no lane's packet can grow further, so every
            // lane is offered. On the way out the window is closed and
            // the inbox is not consulted until the lanes are empty.
            let leaving = shutting_down && self.local_work.is_empty();
            let polled = if leaving {
                Err(TryRecvError::Empty)
            } else {
                inbox.try_recv()
            };
            let idle = self.local_work.is_empty() && matches!(polled, Err(TryRecvError::Empty));
            self.fabric.offer(idle);
            if leaving && self.fabric.pending() == 0 {
                break;
            }
            // Pick the cheapest wait that can't stall anything: poll
            // while a full sink still has frames parked on its lane
            // (on the way out that is the only case left, so a worker
            // shutting down never blocks), sleep until the earliest FT
            // deadline when one is armed, and block outright when idle
            // (zero wakeups, zero CPU).
            let recv = match polled {
                Ok(packet) => Ok(packet),
                Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
                // Not a wakeup: the loop turn does local scans.
                Err(TryRecvError::Empty) if !idle => continue,
                Err(TryRecvError::Empty) => {
                    if self.fabric.pending() > 0 {
                        inbox.recv_timeout(Duration::from_millis(1))
                    } else if let Some(deadline) = self.next_timer_deadline() {
                        let wait = deadline.saturating_duration_since(Instant::now());
                        if wait.is_zero() {
                            continue;
                        }
                        inbox.recv_timeout(wait)
                    } else {
                        inbox.recv().map_err(|_| RecvTimeoutError::Disconnected)
                    }
                }
            };
            let packet = match recv {
                Ok(packet) => packet,
                Err(RecvTimeoutError::Timeout) => {
                    self.stats.wakeups += 1;
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            };
            // A packet may coalesce several frames; every one is a
            // logical receive.
            let mut rest: &[u8] = &packet;
            while !rest.is_empty() {
                // The bytes may have come off a socket: what does not
                // split or decode is counted and skipped — a remainder
                // that cannot be split, once.
                let Ok((frame, tail)) = take_frame(rest) else {
                    self.stats.frames_undecodable += 1;
                    break;
                };
                rest = tail;
                let Ok(msg) = WireMsg::decode_exact(frame) else {
                    self.stats.frames_undecodable += 1;
                    continue;
                };
                self.stats.frames_received += 1;
                if matches!(msg, WireMsg::Shutdown) {
                    shutting_down = true;
                    // Delayed frames still stashed will never be
                    // released; account them as dropped so conservation
                    // closes.
                    self.abandon_stash();
                    continue;
                }
                if self.is_query_path(&msg)
                    && self
                        .injector
                        .as_mut()
                        .is_some_and(FaultInjector::should_crash)
                {
                    // Frames packed behind the crash trigger die with
                    // the worker, exactly like bytes buffered in a
                    // killed process.
                    self.stats.frames_dropped += count_frames(rest);
                    return self.crash(inbox);
                }
                if let Some(parked) = self.repair.as_mut() {
                    match msg {
                        WireMsg::RepairDone { worker } => {
                            debug_assert_eq!(worker, self.index, "misrouted RepairDone");
                            let backlog = self.repair.take().expect("repair mode");
                            for parked_msg in backlog {
                                self.handle(parked_msg);
                            }
                        }
                        // Load frames restore state — exactly what
                        // repair is replaying — and are idempotent;
                        // apply them.
                        WireMsg::Insert { .. } | WireMsg::Handoff { .. } => self.handle(msg),
                        other => parked.push(other),
                    }
                    continue;
                }
                self.handle(msg);
            }
            self.fabric.recycle(packet);
        }
        self.abandon_stash();
        WorkerExit {
            cause: ExitCause::Clean,
            stats: self.final_stats(),
            inbox,
        }
    }

    /// The incarnation's counters, the cache's and the fabric's folded
    /// in.
    fn final_stats(mut self) -> WorkerStats {
        self.stats.backpressure_hits += self.fabric.backpressure_hits();
        self.stats.frames_dropped += self.fabric.frames_dropped();
        let cache = self.cache.counters();
        self.stats.cache_hits = cache.hits;
        self.stats.cache_misses = cache.misses;
        self.stats.cache_coalesced = cache.coalesced;
        self.stats.cache_stale = cache.stale;
        self.stats.cache_evictions = cache.evictions;
        self.stats
    }

    /// Crash-stop: everything in memory is lost. Frames still on a
    /// lane or in the delay stash were promised to the network but
    /// will never leave — count them dropped so conservation closes.
    fn crash(mut self, inbox: Receiver<Vec<u8>>) -> WorkerExit {
        self.abandon_stash();
        self.stats.frames_dropped += self.fabric.pending();
        WorkerExit {
            cause: ExitCause::Crashed,
            stats: self.final_stats(),
            inbox,
        }
    }

    /// Frames that count toward a crash point: the traversal and
    /// lookup path, not loads or control.
    fn is_query_path(&self, msg: &WireMsg) -> bool {
        matches!(
            msg,
            WireMsg::Query { .. }
                | WireMsg::QueryAt { .. }
                | WireMsg::FtQuery { .. }
                | WireMsg::TQuery { .. }
                | WireMsg::TQueryBatch { .. }
                | WireMsg::TCont { .. }
                | WireMsg::TContBatch { .. }
                | WireMsg::Pin { .. }
        )
    }

    fn handle(&mut self, msg: WireMsg) {
        match msg {
            WireMsg::Insert { object, keywords } => {
                let kw = self.interner.intern(keywords);
                let bits = self.hasher.vertex_for(&kw).bits();
                debug_assert_eq!(self.shards.owner_of(bits), self.index, "misrouted insert");
                if self
                    .tables
                    .entry(bits)
                    .or_default()
                    .insert_arc(kw, ObjectId::from_raw(object))
                {
                    self.stats.inserts += 1;
                    self.cache.bump_generation();
                }
            }
            WireMsg::Handoff { bits, entries } => {
                debug_assert_eq!(self.shards.owner_of(bits), self.index, "misrouted handoff");
                let table = self.tables.entry(bits).or_default();
                for (set, objects) in entries {
                    let kw = self.interner.intern(set);
                    for raw in objects {
                        if table.insert_arc(Arc::clone(&kw), ObjectId::from_raw(raw)) {
                            self.stats.inserts += 1;
                            self.cache.bump_generation();
                        }
                    }
                }
            }
            // Any worker coordinates: the client round-robins
            // sequential queries, and a remote root region is
            // delegated to its owner like every other region.
            WireMsg::Query {
                query_id,
                keywords,
                threshold,
            } => self.coordinate(query_id, keywords, threshold, Vec::new()),
            WireMsg::QueryAt {
                query_id,
                keywords,
                threshold,
                marks,
            } => self.coordinate(query_id, keywords, threshold, marks),
            WireMsg::FtQuery {
                query_id,
                keywords,
                threshold,
                mut policy,
            } => {
                self.stats.queries_coordinated += 1;
                let kw = self.interner.intern(keywords);
                let root = self.hasher.vertex_for(&kw);
                debug_assert_eq!(
                    self.shards.owner_of(root.bits()),
                    self.index,
                    "FT query routed to a non-root worker"
                );
                policy.base_timeout = policy.base_timeout.max(1);
                let mut state = FtCoordinator::new(root, kw, threshold.max(1) as usize, policy);
                let mut cmds = Vec::new();
                state.start(&mut cmds);
                self.ft_drive(query_id, state, cmds);
            }
            WireMsg::TQuery {
                query_id,
                bits,
                keywords,
                remaining,
                via_dim,
                coord,
            } => {
                debug_assert_eq!(self.shards.owner_of(bits), self.index, "misrouted T_QUERY");
                let (objects, children) = self.visit(bits, via_dim, &keywords, remaining as usize);
                self.send(
                    coord as usize,
                    &WireMsg::TCont {
                        query_id,
                        bits,
                        objects,
                        children,
                    },
                );
            }
            WireMsg::TQueryBatch {
                query_id,
                keywords,
                remaining,
                coord,
                entries,
            } => {
                // Expand each entry's whole locally-owned subtree
                // region right here: a discovered child that this
                // worker also owns is scanned immediately instead of
                // bouncing through the coordinator, so one delegation
                // covers the region and the per-query frame count is
                // bounded by the number of ownership cuts, not the
                // subcube size. The reply still carries one entry per
                // vertex (with its full child list), and the
                // coordinator folds them in sequential dispatch order
                // — the traversal's observable behaviour is identical
                // to per-vertex hops. Scans run against the shared
                // budget; the coordinator re-truncates each reply to
                // its live budget at fold time, so over-scanning here
                // is safe.
                let mut queue: VecDeque<(u64, u8)> = entries.into();
                let mut replies = Vec::with_capacity(queue.len());
                // Cross-cut children grouped per owner in discovery
                // order (deterministic), forwarded straight to their
                // owners below — chained delegation — so the region
                // pipeline is one hop per ownership cut instead of a
                // coordinator round trip per cut.
                let mut forwards: Vec<(u32, Vec<(u64, u8)>)> = Vec::new();
                while let Some((bits, via_dim)) = queue.pop_front() {
                    debug_assert_eq!(
                        self.shards.owner_of(bits),
                        self.index,
                        "misrouted batch entry"
                    );
                    let (objects, children) =
                        self.visit(bits, Some(via_dim), &keywords, remaining as usize);
                    for &(child, dim) in &children {
                        let owner = self.shards.owner_of(child);
                        if owner == self.index {
                            queue.push_back((child, dim));
                        } else if owner != coord {
                            // The coordinator's own children stay in
                            // the reply only: it runs them through its
                            // local fast path when they surface.
                            match forwards.iter_mut().find(|(o, _)| *o == owner) {
                                Some((_, group)) => group.push((child, dim)),
                                None => forwards.push((owner, vec![(child, dim)])),
                            }
                        }
                    }
                    replies.push((bits, objects, children));
                }
                let forward_header = wire::batch_header_len(Some(&keywords));
                for (owner, group) in forwards {
                    self.send_batched(
                        owner as usize,
                        group,
                        forward_header,
                        |_| CONTACT_LEN,
                        |entries| WireMsg::TQueryBatch {
                            query_id,
                            keywords: keywords.clone(),
                            remaining,
                            coord,
                            entries,
                        },
                    );
                }
                let epoch = self.cache.generation();
                self.send_batched(
                    coord as usize,
                    replies,
                    wire::batch_header_len(None),
                    wire::batch_reply_len,
                    |entries| WireMsg::TContBatch {
                        query_id,
                        epoch,
                        entries,
                    },
                );
            }
            WireMsg::TCont {
                query_id,
                bits,
                objects,
                children,
            } => {
                if let Some(mut state) = self.ft_queries.remove(&query_id) {
                    let mut cmds = Vec::new();
                    state.on_reply(bits, keyed(objects), &children, |_, _| false, &mut cmds);
                    self.ft_drive(query_id, state, cmds);
                }
                // else: a duplicate or post-completion continuation —
                // injected faults make these normal; drop it. (Only the
                // FT path sends a bare `TQuery`; the sequential
                // coordinator always ships batches.)
            }
            WireMsg::TContBatch {
                query_id,
                epoch,
                entries,
            } => {
                // One batch is one worker's scans: its first vertex
                // names the sender. Late and duplicate batches still
                // say how far that peer's shard has moved.
                let sender = entries
                    .first()
                    .map(|&(bits, ..)| self.shards.owner_of(bits));
                if let Some(sender) = sender {
                    let heard = &mut self.heard[sender as usize];
                    *heard = (*heard).max(epoch);
                }
                if let Some(mut state) = self.queries.remove(&query_id) {
                    if let Some(sender) = sender {
                        match state.peer_epochs.iter_mut().find(|(p, _)| *p == sender) {
                            Some((_, lowest)) => *lowest = (*lowest).min(epoch),
                            None => state.peer_epochs.push((sender, epoch)),
                        }
                    }
                    let mut listed: Vec<u64> = Vec::new();
                    for (bits, objects, children) in entries {
                        listed.extend(children.iter().map(|&(child, _)| child));
                        state.replies.insert(bits, (objects, children));
                    }
                    // A remote child this batch lists but does not
                    // answer (here or in an already-parked reply) was
                    // forwarded onward by the expanding worker, or is
                    // answered in a later frame of a reply too long for
                    // one; either way its reply arrives unsolicited,
                    // so mark it dispatch-exempt. Our own children go
                    // through the local fast path as usual.
                    for child in listed {
                        if self.shards.owner_of(child) != self.index
                            && !state.replies.contains_key(&child)
                        {
                            state.predelegated.insert(child);
                        }
                    }
                    if !self.drive(query_id, &mut state) {
                        self.queries.insert(query_id, state);
                    }
                }
                // else: duplicate or post-completion (threshold met
                // mid-burst) — drop, like a stray TCont.
            }
            WireMsg::Pin { query_id, keywords } => {
                self.stats.scans += 1;
                let bits = self.hasher.vertex_for(&keywords).bits();
                debug_assert_eq!(self.shards.owner_of(bits), self.index, "misrouted pin");
                let objects = self
                    .tables
                    .get(&bits)
                    .map(|t| t.objects_with(&keywords).map(|o| o.raw()).collect())
                    .unwrap_or_default();
                let client = self.client_slot();
                self.send(client, &WireMsg::PinResults { query_id, objects });
            }
            WireMsg::Flush { token } => {
                let client = self.client_slot();
                self.send(
                    client,
                    &WireMsg::FlushAck {
                        token,
                        worker: self.index,
                        epoch: self.cache.generation(),
                    },
                );
            }
            // A RepairDone outside repair mode is a duplicate (repair
            // frames are reliable, so this should not happen).
            WireMsg::RepairDone { .. } => {
                debug_assert!(false, "RepairDone outside repair mode");
            }
            // Client-bound and control frames never reach a worker's
            // handler (Shutdown is intercepted in the loop).
            WireMsg::QueryDone { .. }
            | WireMsg::FtQueryDone { .. }
            | WireMsg::PinResults { .. }
            | WireMsg::FlushAck { .. } => {
                debug_assert!(false, "client-bound frame delivered to a worker");
            }
            WireMsg::Shutdown => unreachable!("intercepted by the event loop"),
        }
    }

    /// The per-vertex `T_QUERY` handler, however the visit arrived (a
    /// frame, a batch entry, the local fast path, an FT command): scan
    /// the vertex's store for at most `remaining` supersets of
    /// `keywords` and derive its SBT children from its bits and arrival
    /// dimension alone (Lemma 3.2).
    fn visit(
        &mut self,
        bits: u64,
        via_dim: Option<u8>,
        keywords: &KeywordSet,
        remaining: usize,
    ) -> VisitReply {
        self.stats.scans += 1;
        let store = self.tables.get(&bits);
        // Most visited vertices hold nothing: hash the query's
        // signature only where there is a store to prefilter.
        let qsig = store.map_or(0, |_| keywords.signature());
        let mut found = Vec::new();
        scan_store(store, keywords, qsig, remaining, &mut found);
        let objects = found
            .iter()
            .map(|r| (r.object.raw(), r.extra_keywords))
            .collect();
        let vertex = Vertex::from_bits(self.shape, bits).expect("coordinators stay in the cube");
        (objects, child_contacts(vertex, via_dim).collect())
    }

    /// Advances one batched sequential query: folds buffered replies
    /// strictly in dispatch order, then — once the whole outstanding
    /// wave has folded — dispatches the next frontier at once,
    /// self-owned visits onto the local work queue, remote visits
    /// grouped per owner into `TQueryBatch` frames. Returns `true`
    /// when the query finished (`QueryDone` sent), `false` while
    /// visits are outstanding.
    fn drive(&mut self, query_id: u64, state: &mut QueryState) -> bool {
        loop {
            // Fold in dispatch order only — a reply for a later vertex
            // parks until everything dispatched before it has folded,
            // which reproduces the sequential machine's budget
            // accounting exactly.
            while !state.coord.is_done() {
                let Some(&bits) = state.pending.front() else {
                    break;
                };
                let Some((objects, children)) = state.replies.remove(&bits) else {
                    break;
                };
                state.pending.pop_front();
                // The scan ran under the budget live at dispatch (or
                // scan) time, which is ≥ the budget live now; the scan
                // order is deterministic, so the fold-time prefix is
                // exactly what a sequential visit would have returned.
                let take = objects.len().min(state.coord.remaining());
                state.results.extend(objects.into_iter().take(take));
                state.coord.record_visit(take, children);
            }
            if state.coord.is_done() {
                // Threshold met: replies still in flight (or parked,
                // or queued locally) are discarded on arrival.
                self.finish_query(query_id, state, false);
                return true;
            }
            if !state.pending.is_empty() {
                // Wave barrier: the next frontier ships only once
                // every visit from the current one has folded, so
                // burst composition — and with it the batch-frame
                // count — is a pure function of the traversal, never
                // of reply arrival timing.
                state.parked_at = Instant::now();
                return false;
            }
            let mut burst = Vec::new();
            state.coord.drain_frontier(&mut burst);
            if burst.is_empty() {
                // Frontier exhausted, nothing outstanding: the
                // traversal covered its subcube.
                self.finish_query(query_id, state, true);
                return true;
            }
            self.dispatch_burst(query_id, state, burst);
        }
    }

    /// Ships one frontier burst: `pending` records the burst order,
    /// self-owned vertices queue for the local fast path, and remote
    /// vertices group per owner into `TQueryBatch` frames. Vertices
    /// whose reply is already parked — delivered ahead of time by a
    /// remote worker's eager region expansion — enter `pending` but
    /// are never re-dispatched.
    fn dispatch_burst(
        &mut self,
        query_id: u64,
        state: &mut QueryState,
        burst: Vec<(u64, Option<u8>)>,
    ) {
        let remaining = state.coord.remaining() as u64;
        // Insertion-ordered grouping keeps frame emission (and thus
        // the bench's frame counts) deterministic.
        let mut groups: Vec<(u32, Vec<(u64, u8)>)> = Vec::new();
        for (bits, via_dim) in burst {
            state.pending.push_back(bits);
            if state.replies.contains_key(&bits) {
                // Already answered by the owning worker's eager
                // expansion; the fold loop will consume it in order.
                state.predelegated.remove(&bits);
                continue;
            }
            if state.predelegated.remove(&bits) {
                // A remote expansion already forwarded this visit to
                // its owner; the reply is on its way unsolicited.
                continue;
            }
            let owner = self.shards.owner_of(bits);
            if owner == self.index {
                self.local_work.push_back((query_id, bits, via_dim));
                continue;
            }
            // Only the traversal root lacks a dimension. An arrival dim
            // of `r` spans every free dim below it — exactly the root's
            // frontier — so the root rides the same batch path and its
            // region expands eagerly at the owner like any other.
            let dim = via_dim.unwrap_or(self.shape.r());
            match groups.iter_mut().find(|(o, _)| *o == owner) {
                Some((_, entries)) => entries.push((bits, dim)),
                None => groups.push((owner, vec![(bits, dim)])),
            }
        }
        let coord = self.index;
        for (owner, group) in groups {
            // Always a batch, even for a single entry: the batch
            // handler eagerly expands the receiver's whole region, so
            // a lone cross-cut edge still delegates the subtree below
            // it instead of bouncing every child through here.
            self.send_batched(
                owner as usize,
                group,
                wire::batch_header_len(Some(&state.keywords)),
                |_| CONTACT_LEN,
                |entries| WireMsg::TQueryBatch {
                    query_id,
                    keywords: (*state.keywords).clone(),
                    remaining,
                    coord,
                    entries,
                },
            );
        }
    }

    /// Sends `entries` to `dest` in the batch frame `frame` builds —
    /// in several when there are more than one frame's count field
    /// holds or more bytes than one frame's body may carry
    /// (`header_len` of it spent before the entries, `entry_len` per
    /// entry). Entries are keyed by vertex, so the receiver folds each
    /// frame on its own.
    fn send_batched<T>(
        &mut self,
        dest: usize,
        mut entries: Vec<T>,
        header_len: usize,
        entry_len: impl Fn(&T) -> usize,
        frame: impl Fn(Vec<T>) -> WireMsg,
    ) {
        let room = MAX_BODY_LEN as usize - header_len;
        loop {
            let sizes = entries.iter().map(&entry_len);
            let rest = entries.split_off(wire::batch_prefix(sizes, MAX_BATCH_ENTRIES, room));
            self.send(dest, &frame(entries));
            if rest.is_empty() {
                return;
            }
            entries = rest;
        }
    }

    /// Completes one sequential query: ships `QueryDone` to the client
    /// (the fold loop takes at most the live budget from every reply,
    /// so the results never exceed the threshold) and, when the
    /// traversal holds its query's cache slot, to every waiter the
    /// answer is fresh enough for, then fills the slot. `exhausted`
    /// says the traversal covered its whole subcube.
    fn finish_query(&mut self, query_id: u64, state: &mut QueryState, exhausted: bool) {
        state.coord.stop();
        let objects = std::mem::take(&mut state.results);
        if !state.slot {
            let client = self.client_slot();
            self.send(client, &WireMsg::QueryDone { query_id, objects });
            return;
        }
        self.reply(query_id, &objects, usize::MAX);
        // A waiter is served under the rule a later arrival would be
        // served from the entry under; one the answer is too old for
        // (its client flushed a write this traversal scanned before)
        // starts over as a new arrival.
        let own_moved = self.cache.generation() != state.own_epoch;
        let mut starting_over = Vec::new();
        for waiter in std::mem::take(&mut state.waiters) {
            if !own_moved && fresh(&state.peer_epochs, &self.heard, &waiter.marks) {
                self.reply(waiter.query_id, &objects, waiter.threshold);
            } else {
                starting_over.push(waiter);
            }
        }
        if objects.len() > RESULT_CACHE_MAX_ITEMS {
            self.cache.release(&state.keywords, query_id);
        } else {
            self.cache.fill(
                &state.keywords,
                query_id,
                Arc::new(objects),
                exhausted,
                std::mem::take(&mut state.peer_epochs),
            );
        }
        for waiter in starting_over {
            self.start_query(
                waiter.query_id,
                Arc::clone(&state.keywords),
                waiter.threshold,
                waiter.marks,
            );
        }
    }

    /// Ships one `QueryDone` carrying at most `threshold` of `results`.
    fn reply(&mut self, query_id: u64, results: &[(u64, u32)], threshold: usize) {
        let objects = results[..results.len().min(threshold)].to_vec();
        let client = self.client_slot();
        self.send(client, &WireMsg::QueryDone { query_id, objects });
    }

    /// One superset query arrives at its coordinator.
    fn coordinate(&mut self, query_id: u64, keywords: KeywordSet, threshold: u64, marks: Vec<u64>) {
        self.stats.queries_coordinated += 1;
        let keywords = self.interner.intern(keywords);
        self.start_query(query_id, keywords, threshold as usize, marks);
    }

    /// Answers the query from the result cache, parks it behind the
    /// running traversal of the same query, or starts its own
    /// traversal — whichever the cache decides from the arrival order.
    /// `marks` are the per-worker write epochs the client saw flushed.
    fn start_query(
        &mut self,
        query_id: u64,
        keywords: Arc<KeywordSet>,
        threshold: usize,
        marks: Vec<u64>,
    ) {
        let (heard, queries) = (&self.heard, &self.queries);
        let slot = match self.cache.claim(
            &keywords,
            threshold,
            query_id,
            |remote| fresh(remote, heard, &marks),
            |leader| {
                queries
                    .get(&leader)
                    .is_some_and(|q| q.parked_at.elapsed() < LEADER_SILENCE)
            },
        ) {
            Claim::Hit(results) => return self.reply(query_id, &results, threshold),
            Claim::Join(leader) => {
                let leader = self
                    .queries
                    .get_mut(&leader)
                    .expect("a live leader is a parked traversal");
                leader.waiters.push(Waiter {
                    query_id,
                    threshold,
                    marks,
                });
                return;
            }
            Claim::Lead => true,
            Claim::Pass => false,
        };
        let root = self.hasher.vertex_for(&keywords);
        let mut state = QueryState {
            coord: SupersetCoordinator::new(root, threshold),
            keywords,
            results: Vec::new(),
            pending: VecDeque::new(),
            replies: HashMap::new(),
            predelegated: HashSet::new(),
            slot,
            own_epoch: self.cache.generation(),
            peer_epochs: Vec::new(),
            waiters: Vec::new(),
            parked_at: Instant::now(),
        };
        if !self.drive(query_id, &mut state) {
            self.queries.insert(query_id, state);
        }
    }

    /// Runs up to [`LOCAL_WORK_BUDGET`] queued self-owned visits: scan
    /// inline (no encode/decode), park the reply, re-drive the query.
    /// Entries whose query has completed (threshold met while they
    /// waited) are skipped, mirroring a dropped late continuation.
    fn run_local_work(&mut self) {
        for _ in 0..LOCAL_WORK_BUDGET {
            let Some((query_id, bits, via_dim)) = self.local_work.pop_front() else {
                return;
            };
            let Some(mut state) = self.queries.remove(&query_id) else {
                continue;
            };
            let reply = self.visit(bits, via_dim, &state.keywords, state.coord.remaining());
            state.replies.insert(bits, reply);
            if !self.drive(query_id, &mut state) {
                self.queries.insert(query_id, state);
            }
        }
    }

    /// Executes a batch of [`FtCmd`]s from the shared machine — local
    /// scans run inline (their replies may emit more commands, hence
    /// the work queue), remote visits become `T_QUERY` frames with a
    /// wall-clock deadline — then re-files the query, or completes it
    /// when nothing is left in flight.
    fn ft_drive(&mut self, query_id: u64, mut state: FtMachine, cmds: Vec<FtCmd>) {
        let mut queue: VecDeque<FtCmd> = cmds.into();
        while let Some(cmd) = queue.pop_front() {
            match cmd {
                // The runtime's requester is the client, which cannot
                // coordinate; and the root scan is always local to this
                // worker, so the root can never time out here.
                FtCmd::Promote => debug_assert!(false, "root cannot die on its own coordinator"),
                // A heap entry cannot be pulled out; it fires into the
                // machine's stale-timer check instead.
                FtCmd::Cancel { .. } => {}
                FtCmd::Send {
                    bits,
                    via_dim,
                    attempt: _,
                    timeout,
                    generation,
                } => {
                    let owner = self.shards.owner_of(bits);
                    if owner == self.index {
                        let (objects, children) =
                            self.visit(bits, via_dim, state.keywords(), state.remaining());
                        let mut more = Vec::new();
                        state.on_scan(bits, keyed(objects), &children, |_, _| false, &mut more);
                        queue.extend(more);
                    } else {
                        let keywords: KeywordSet = (**state.keywords()).clone();
                        self.send(
                            owner as usize,
                            &WireMsg::TQuery {
                                query_id,
                                bits,
                                keywords,
                                remaining: state.remaining() as u64,
                                via_dim,
                                coord: self.index,
                            },
                        );
                        if let Some(ms) = timeout {
                            self.timers.push(Reverse((
                                Instant::now() + Duration::from_millis(ms),
                                query_id,
                                bits,
                                generation,
                            )));
                        }
                    }
                }
            }
        }
        if state.in_flight() > 0 {
            self.ft_queries.insert(query_id, state);
            return;
        }
        let coverage = state.finish();
        let client = self.client_slot();
        self.send(
            client,
            &WireMsg::FtQueryDone {
                query_id,
                objects: state.into_results(),
                coverage,
            },
        );
    }

    fn next_timer_deadline(&self) -> Option<Instant> {
        self.timers.peek().map(|Reverse((deadline, ..))| *deadline)
    }

    /// Fires every expired FT deadline through the shared machine,
    /// which ignores the stale ones (answered or already retried).
    fn fire_expired_timers(&mut self) {
        loop {
            let now = Instant::now();
            match self.timers.peek() {
                Some(Reverse((deadline, ..))) if *deadline <= now => {}
                _ => return,
            }
            let Reverse((_, query_id, bits, generation)) = self.timers.pop().expect("peeked");
            let Some(mut state) = self.ft_queries.remove(&query_id) else {
                continue;
            };
            let mut cmds = Vec::new();
            state.on_timeout(bits, generation, |_, _| false, &mut cmds);
            self.ft_drive(query_id, state, cmds);
        }
    }

    /// Encodes one frame onto `dest`'s lane, rolling its fate when the
    /// fault injector covers it (worker→worker traversal frames only).
    /// The lane is offered at the next loop turn, which is what lets
    /// every frame emitted while handling one packet travel as a
    /// single fabric operation per destination.
    fn send(&mut self, dest: usize, msg: &WireMsg) {
        self.stats.frames_sent += 1;
        if let WireMsg::TQueryBatch { entries, .. } = msg {
            self.stats.batch_frames_sent += 1;
            self.stats.batch_entries_sent += entries.len() as u64;
        }
        if let WireMsg::TContBatch { entries, .. } = msg {
            self.stats.batch_frames_sent += 1;
            self.stats.batch_entries_sent += entries.len() as u64;
        }
        let injectable = dest != self.client_slot()
            && matches!(
                msg,
                WireMsg::TQuery { .. }
                    | WireMsg::TQueryBatch { .. }
                    | WireMsg::TCont { .. }
                    | WireMsg::TContBatch { .. }
            );
        if injectable {
            if let Some(injector) = &mut self.injector {
                match injector.fate(dest as u32) {
                    Fate::Deliver => {}
                    Fate::Drop => {
                        self.stats.frames_dropped += 1;
                        return;
                    }
                    Fate::Duplicate => {
                        self.stats.frames_duplicated += 1;
                        self.fabric.append(dest, msg);
                    }
                    Fate::Delay => {
                        self.stats.frames_delayed += 1;
                        self.stash[dest].push(msg.clone());
                        return;
                    }
                }
            }
        }
        self.fabric.append(dest, msg);
        // A delivered frame releases anything stashed for this
        // destination *behind* it — delay == reorder.
        for stashed in self.stash[dest].drain(..) {
            self.fabric.append(dest, &stashed);
        }
    }

    /// Writes off frames still sitting in the delay stash (shutdown or
    /// crash): they were counted as sent but will never travel.
    fn abandon_stash(&mut self) {
        for stashed in &mut self.stash {
            self.stats.frames_dropped += stashed.len() as u64;
            stashed.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::SupervisorStats;

    #[test]
    fn report_lines_roundtrip_in_declaration_order() {
        let line = "WSTATS 3 10 11 1 2 3 4 5 6 7 8 9 27 12 13 14 15 16 17";
        let stats = WorkerStats::parse_line(line).unwrap();
        assert_eq!(
            (stats.worker, stats.frames_sent, stats.scans),
            (3, 10, 3),
            "{stats:?}"
        );
        assert_eq!((stats.batch_entries_sent, stats.cache_evictions), (27, 16));
        assert_eq!(stats.frames_undecodable, 17);
        assert_eq!(stats.report_line(), line);
        // A line one counter short (the cache columns' predecessor
        // format included) or long is rejected, never zero-filled.
        assert!(WorkerStats::parse_line(line.rsplit_once(' ').unwrap().0).is_none());
        assert!(WorkerStats::parse_line("WSTATS 3 10 11 1 2 3 4 5 6 7 8 9 27").is_none());
        assert!(WorkerStats::parse_line(&format!("{line} 18")).is_none());
        assert!(WorkerStats::parse_line(&line.replace("WSTATS", "SSTATS")).is_none());
        // Merging sums every counter and leaves the key alone.
        let mut merged = stats.clone();
        merged.merge(&stats);
        assert_eq!(
            merged.report_line(),
            "WSTATS 3 20 22 2 4 6 8 10 12 14 16 18 54 24 26 28 30 32 34"
        );

        let sup = SupervisorStats::parse_line("SSTATS 1 2 3 4 5 6").unwrap();
        assert_eq!(
            (sup.respawns, sup.replayed_frames, sup.frames_sent),
            (1, 2, 3)
        );
        assert_eq!(
            (sup.frames_drained, sup.streams_corrupt, sup.units_misrouted),
            (4, 5, 6)
        );
        assert_eq!(sup.report_line(), "SSTATS 1 2 3 4 5 6");
        assert!(SupervisorStats::parse_line("garbage").is_none());
    }

    /// A worker shutting down with a frame parked on a capacity-1 sink
    /// that flaps between full and free: whichever of its offers the
    /// free slot meets, the worker must hand the frame over exactly
    /// once and exit — a blocking wait here would never be woken (the
    /// supervisor holds the inbox open).
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
            let ctx = WorkerContext {
                index: 0,
                shape: Shape::new(8).unwrap(),
                hasher: KeywordHasher::new(8, 42).unwrap(),
                shards: ShardMap::new(8, 1, 42),
                injector: None,
                repairing: false,
            };
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
            let exit = worker.join().unwrap();
            assert_eq!(exit.cause, ExitCause::Clean);
            assert_eq!((acks, exit.stats.frames_dropped), (1, 0), "round {round}");
        }
    }
}
