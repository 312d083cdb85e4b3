//! The shard-owning worker as a machine, so any deployment — and any
//! test — can drive it.
//!
//! A worker is a pure protocol engine: it is handed packets (each one
//! or more length-prefixed [`WireMsg`] frames),
//! mutates only its own shard's `PostingStore`s, and encodes each
//! outbound frame once, onto its destination's lane of a [`Fabric`].
//! Nothing in here knows whether a lane ends in a co-located inbox
//! (every lane of a [`crate::runtime::NodeRuntime`]) or in a socket's
//! writer queue (`hyperdex-net`'s multi-process deployment) — which is
//! exactly what lets the test suites demand identical results from
//! both.
//!
//! Every worker keeps a result cache in front of its coordinator path
//! ([`hyperdex_core::cache::FifoCache`], DESIGN.md § "Serving-path
//! result cache"): a `Query` whose answer is cached is answered with
//! one `QueryDone` and no traversal frame, identical queries already
//! being coordinated here wait for the running traversal, and the
//! worker's *write epoch* — the cache's generation, bumped once per
//! object newly indexed on this shard, reported on every `FlushAck`
//! and `RegionDone` — keeps the answers coherent with flushed writes
//! without a single extra frame.
//!
//! A query that does walk costs one round per prefix region
//! (DESIGN.md § "One round per region"): the coordinator walks the
//! regions of the query's subcube it owns, every other owner walks its
//! own on one `RegionQuery` and answers with one `RegionDone`, and the
//! coordinator merges the answers in the sequential traversal's visit
//! order. `Query`, `QueryAt` and `FtQuery` are that one traversal; its
//! unit of recovery is an owner still awaited, which has a deadline and
//! a retry budget (`FtPolicy::attempt_timeout`), so a parked traversal
//! always ends: an `FtQuery` with an exact account of the regions it
//! gave up, a plain query whole or not at all.
//!
//! [`NodeMachine`] is that engine and nothing else: it has no loop, no
//! inbox and no clock. A **driver** hands it each inbound packet and
//! the time ([`NodeMachine::receive`]), wakes it no later than the
//! deadline it names ([`NodeMachine::next_deadline`],
//! [`NodeMachine::tick`]) and offers its lanes once a turn; time is a
//! `Duration` on whatever clock the driver keeps. The deployed driver
//! is [`crate::runtime::run_worker`], a thread blocking on a channel
//! under the wall clock; the other is the [`crate::mesh::Mesh`] over
//! `hyperdex-simnet`'s virtual time (DESIGN.md § "The node is a
//! machine"). Neither sees a crash: a crash point the machine meets
//! restarts it in place, from its own load log (DESIGN.md § "A crash
//! is a restart"). What a wire does to a frame — lose it, copy it, hold
//! it back — is the wire's, not the machine's: the mesh deals it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use hyperdex_core::cache::{CacheCounters, Claim, FifoCache};
use hyperdex_core::protocol::{
    child_contacts, region_entries, scan_store, subtree_bits, visit_order_key, Step,
    SupersetCoordinator,
};
use hyperdex_core::store::ByVertex;
use hyperdex_core::{
    FtCoverage, FtPolicy, KeywordHasher, KeywordSet, ObjectId, PostingStore, RecoveryStrategy,
};
use hyperdex_hypercube::{Shape, Vertex};

use crate::shard::ShardMap;
use crate::transport::{Fabric, PacketPool};
use crate::wire::{
    self, RegionGroup, WireMsg, MAX_BATCH_ENTRIES, MAX_BODY_LEN, REGION_DONE_HEADER_LEN,
};

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

/// What a plain `Query`/`QueryAt` holds each owner to: four
/// transmissions, 1 s doubling (TCP's initial retransmission timeout:
/// a healthy answer is milliseconds away, so only a lost frame, a dead
/// peer or a second-long stall ever meets the first deadline) — 15 s
/// until an owner is given up and the query with it, which outlasts
/// `NetConfig`'s default request timeout (10 s): no client still
/// listening is given up on.
const PLAIN_QUERY_POLICY: FtPolicy = FtPolicy {
    strategy: RecoveryStrategy::RetryOnly,
    max_retries: 3,
    base_timeout: 1_000,
};

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
    /// One worker's lifetime counters, returned when it exits. A crash
    /// restarts the machine in place and keeps them.
    WorkerStats, "WSTATS",
    key {
        /// The worker's shard index.
        worker
    },
    {
        /// Frames this worker sent: encoded onto a lane.
        frames_sent,
        /// Frames received and decoded.
        frames_received,
        /// Times a lane was offered and its full sink pushed back,
        /// leaving the frames parked on it: at most one per lane per
        /// turn (a driver offers once a turn).
        backpressure_hits,
        /// Objects newly indexed on this shard.
        inserts,
        /// Vertex scans served (region walks and pins).
        scans,
        /// Superset queries this worker coordinated (plain + FT).
        queries_coordinated,
        /// Frames lost in a crash — written off the lanes, or packed
        /// behind the trigger — and frames a closed sink refused.
        frames_dropped,
        /// The thread driver's timed waits that expired without a
        /// packet: a full sink polled, or an awaited owner's deadline
        /// met. Zero on an idle worker — idleness blocks, it doesn't
        /// spin. The machine never touches it.
        wakeups,
        /// Region frames (`RegionQuery`/`RegionDone`) among `frames_sent`.
        /// Each counts **once** in the frame ledger no matter how many
        /// vertices it answers for.
        batch_frames_sent,
        /// Vertex groups carried inside those region frames: the
        /// vertices that held a match, not the vertices walked.
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
        /// Frames that are not this worker's to act on. About a vertex
        /// (an insert, a pin) or a subcube (a `RegionQuery`)
        /// none of which it owns: a write is dropped — indexed here,
        /// nobody would ever ask for it — and a read is answered with
        /// what this worker holds of it, nothing. Or of a kind no
        /// worker is sent — a client-bound reply: dropped. An anomaly
        /// count, not a term of the frame ledger: the frames are
        /// received like any other.
        frames_misrouted,
        /// Plain queries dropped unanswered because an owner of part of
        /// their subcube stayed silent through the whole retry budget
        /// (or parked when the worker crashed or exited): a short answer
        /// would have passed for the whole one.
        queries_abandoned,
        /// Times a crash point restarted the machine.
        respawns,
        /// Load-log frames the restarts restored the shard from.
        replayed_frames,
    }
}

impl WorkerStats {
    /// Adds `cache`'s counts to the result cache's share.
    fn add_cache(&mut self, cache: CacheCounters) {
        self.cache_hits += cache.hits;
        self.cache_misses += cache.misses;
        self.cache_coalesced += cache.coalesced;
        self.cache_stale += cache.stale;
        self.cache_evictions += cache.evictions;
    }
}

/// Crash-stop one worker after it has received `after_query_frames`
/// query-path frames (inserts and control frames don't count): tables,
/// frames parked on lanes and coordinator state vanish, exactly like a
/// process kill, and the machine restarts in place from its shard's
/// load log — the paper's surviving copy (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Which worker dies.
    pub worker: u32,
    /// How many query-path frames it survives; the N-th is the trigger
    /// and is **not** processed.
    pub after_query_frames: u64,
}

/// What [`NodeMachine::receive`] tells its driver to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep feeding packets.
    Continue,
    /// The packet held `Shutdown`: the window is closed. Offer the
    /// lanes until nothing is pending, then [`NodeMachine::exit`].
    Leaving,
}

/// Everything a worker needs besides its fabric.
#[derive(Debug)]
pub struct WorkerContext {
    /// The worker's global shard index.
    pub index: u32,
    /// The keyword → vertex hash every endpoint shares (and with it the
    /// cube's shape).
    pub hasher: KeywordHasher,
    /// The global vertex → worker map.
    pub shards: ShardMap,
    /// Query-path frames left until the crash, the trigger included,
    /// when a crash point names this worker.
    pub crash_after: Option<u64>,
    /// The shard's load log, for a worker a crash point names: every
    /// `Insert` frame the shard was handed, in order. Empty,
    /// it starts a shard; full, it restores one — which is what the
    /// machine's restart hands its constructor.
    pub log: Option<Vec<Vec<u8>>>,
}

impl WorkerContext {
    /// Worker `index`'s context: a crash countdown and a load log when
    /// one of `crashes` names it (the first that does).
    pub fn new(
        index: u32,
        hasher: KeywordHasher,
        shards: ShardMap,
        crashes: &[CrashPoint],
    ) -> Self {
        let crash = crashes.iter().find(|c| c.worker == index);
        WorkerContext {
            index,
            hasher,
            shards,
            crash_after: crash.map(|c| c.after_query_frames.max(1)),
            log: crash.map(|_| Vec::new()),
        }
    }
}

/// In-progress superset query on its coordinator worker: the
/// coordinator's own share is walked, the other owners' answers are
/// still arriving.
#[derive(Debug)]
struct QueryState {
    query_id: u64,
    keywords: KeywordSet,
    /// `F_h(K)`, which the merge orders vertices around.
    root: Vertex,
    threshold: usize,
    /// The vertices holding matches: this worker's share, then each
    /// owner's answer as it was committed. [`cut_groups`] puts them in
    /// visit order.
    groups: Vec<RegionGroup>,
    /// Owners whose whole `RegionDone` is still to come. A frame from
    /// anyone else is a duplicate or a straggler.
    awaiting: Vec<Awaited>,
    /// The deadline and retry rule every awaited owner is held to.
    policy: FtPolicy,
    /// `Some` for an `FtQuery`: the tally its `FtQueryDone` reports,
    /// the regions of the owners given up in `skipped`. A plain query
    /// keeps none — it is answered whole or dropped.
    coverage: Option<FtCoverage>,
    /// Whether this traversal holds the query's cache slot (and fills
    /// it when done) or keeps nothing: a first sighting, an `FtQuery`.
    slot: bool,
    /// This worker's write epoch when the traversal started.
    own_epoch: u64,
    /// `(peer, epoch)`: the write epoch each owner scanned under, as
    /// its committed answer reported it.
    peer_epochs: Vec<(u32, u64)>,
    /// Identical queries that arrived while this traversal ran.
    waiters: Vec<Waiter>,
}

/// One owner a traversal waits for.
#[derive(Debug)]
struct Awaited {
    owner: u32,
    /// `RegionQuery` transmissions sent to it so far.
    sent: u32,
    /// When the latest of them counts as lost, on the driver's clock.
    deadline: Duration,
    answer: Staged,
}

/// The parts of one owner's answer that arrived so far. An answer is
/// merged only whole, so a lost part can never pass for a short answer;
/// the retry repairs it.
#[derive(Debug, Default)]
struct Staged {
    /// The attempt whose parts are staged, once `next_part > 0`.
    attempt: u32,
    /// The part that attempt continues with.
    next_part: u32,
    groups: Vec<RegionGroup>,
}

impl Staged {
    /// Takes one `RegionDone` frame: part 0 of an attempt not yet
    /// staged starts staging over, the staged attempt's next part
    /// extends it, anything else — a duplicate, a part out of order or
    /// behind a gap — is dropped. Whether the frame was taken.
    fn take(&mut self, attempt: u32, part: u32, groups: Vec<RegionGroup>) -> bool {
        let staging = self.next_part > 0 && attempt == self.attempt;
        if part == 0 && !staging {
            self.attempt = attempt;
            self.groups = groups;
        } else if staging && part == self.next_part {
            self.groups.extend(groups);
        } else {
            return false;
        }
        self.next_part = part + 1;
        true
    }
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

/// Puts `groups` — vertices of `H_r(root)` with their matches, from any
/// number of regions, each scanned under a budget no smaller than the
/// sequential traversal's at that vertex — in the traversal's visit
/// order, one group per vertex, and cuts the list where `threshold`
/// matches are reached: what is left is, vertex for vertex and object
/// for object, what [`hyperdex_core::protocol::SupersetCoordinator`]
/// would have folded.
fn cut_groups(root_bits: u64, groups: &mut Vec<RegionGroup>, threshold: usize) {
    groups.sort_unstable_by_key(|&(bits, _)| visit_order_key(root_bits, bits));
    let mut wanted = threshold;
    let mut keep = 0;
    for (_, objects) in groups.iter_mut() {
        if wanted == 0 {
            break;
        }
        objects.truncate(wanted);
        wanted -= objects.len();
        keep += 1;
    }
    groups.truncate(keep);
}

/// Whether the traversal root alone fills the threshold. The root is
/// first in visit order, so then its matches are the whole answer and
/// no other vertex needs a look. `groups` is a walk that began at the
/// root's region.
fn root_fills(groups: &[RegionGroup], root_bits: u64, threshold: usize) -> bool {
    matches!(groups.first(), Some((bits, objects)) if *bits == root_bits && objects.len() >= threshold)
}

/// One owner's answer to transmission `attempt` as the `RegionDone`
/// frames that carry it: all of `groups` in order, a frame closed
/// where the next group would pass the group-count field or `room`
/// body bytes, numbered from 0 and all but the last flagged `more`.
fn region_done_frames(
    query_id: u64,
    worker: u32,
    epoch: u64,
    attempt: u32,
    mut groups: Vec<RegionGroup>,
    room: usize,
) -> Vec<WireMsg> {
    let mut frames = Vec::new();
    loop {
        let sizes = groups.iter().map(wire::region_group_len);
        let rest = groups.split_off(wire::batch_prefix(sizes, MAX_BATCH_ENTRIES, room));
        frames.push(WireMsg::RegionDone {
            query_id,
            worker,
            epoch,
            attempt,
            part: frames.len() as u32,
            more: !rest.is_empty(),
            groups,
        });
        if rest.is_empty() {
            return frames;
        }
        groups = rest;
    }
}

/// One shard-owning worker: tables, result cache, parked traversals,
/// load log, counters, and the [`Fabric`] its frames leave on —
/// encoded once, in place, onto the destination's lane, so whoever
/// holds the lanes' far ends is its driver. Fabric endpoints `0..W`
/// address fellow workers, endpoint `W` the client.
#[derive(Debug)]
pub struct NodeMachine {
    index: u32,
    shape: Shape,
    hasher: KeywordHasher,
    shards: ShardMap,
    tables: ByVertex<PostingStore>,
    fabric: Fabric,
    /// The driver's clock at the call being served.
    now: Duration,
    /// The traversals parked on an awaited owner, by query id. Their
    /// deadlines are the only timers a worker has.
    queries: HashMap<u64, QueryState>,
    /// Results of the superset queries this worker coordinated, as the
    /// `(object id, extra keywords)` pairs a `QueryDone` carries. Its
    /// generation is this worker's write epoch.
    cache: FifoCache<(u64, u32)>,
    /// Per worker: the highest write epoch heard on a `RegionDone`.
    heard: Vec<u64>,
    /// [`WorkerContext::crash_after`], counting down.
    crash_after: Option<u64>,
    /// [`WorkerContext::log`], written ahead of every load handled.
    log: Option<Vec<Vec<u8>>>,
    stats: WorkerStats,
}

impl NodeMachine {
    /// A worker whose frames leave on `fabric`, its tables what
    /// `ctx.log` holds: recovery is this constructor, and a crash calls
    /// it. The logged frames go through the arms that handled them the
    /// first time — the tables, `inserts` and the write epoch land
    /// where the crashed incarnation had them, no frame is sent,
    /// received or counted — before the shard is handed a query. An
    /// entry that is no load frame is skipped.
    pub fn new(ctx: WorkerContext, fabric: Fabric) -> NodeMachine {
        let endpoints = fabric.endpoints();
        let mut node = NodeMachine {
            index: ctx.index,
            shape: ctx.hasher.shape(),
            hasher: ctx.hasher,
            shards: ctx.shards,
            tables: ByVertex::default(),
            fabric,
            now: Duration::ZERO,
            queries: HashMap::new(),
            cache: FifoCache::new(RESULT_CACHE_SLOTS),
            heard: vec![0; endpoints - 1],
            crash_after: ctx.crash_after,
            log: None,
            stats: WorkerStats {
                worker: ctx.index,
                ..WorkerStats::default()
            },
        };
        for frame in ctx.log.iter().flatten() {
            if let Ok(msg @ WireMsg::Insert { .. }) = WireMsg::decode_exact(frame) {
                node.handle(msg);
            }
        }
        node.log = ctx.log;
        node
    }

    fn client_slot(&self) -> usize {
        self.fabric.endpoints() - 1
    }

    /// The lanes, for the driver to offer once a turn (and to recycle
    /// a consumed packet's buffer into).
    pub fn fabric(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// Takes one inbound packet in at time `now`: splits it, and
    /// decodes, counts and handles every frame. A packet may coalesce
    /// several frames; every one is a logical receive. The load log
    /// is written ahead: every load frame of `packet` is in it before
    /// a crash point met in the packet restarts the machine.
    pub fn receive(&mut self, now: Duration, packet: &[u8]) -> Flow {
        self.now = now;
        let mut flow = Flow::Continue;
        let mut crashed = false;
        // The bytes may have come off a socket: what does not split or
        // decode is counted and skipped — a remainder that cannot be
        // split, once.
        for frame in wire::frames(packet) {
            let Ok((frame, msg)) =
                frame.and_then(|frame| Ok((frame, WireMsg::decode_exact(frame)?)))
            else {
                self.stats.frames_undecodable += 1;
                continue;
            };
            if let (Some(log), WireMsg::Insert { .. }) = (&mut self.log, &msg) {
                log.push(frame.to_vec());
            }
            if crashed {
                // Packed behind the crash trigger, it dies with the
                // worker like bytes buffered in a killed process — but
                // it was delivered: a load is in the log all the same.
                self.stats.frames_dropped += 1;
                continue;
            }
            self.stats.frames_received += 1;
            if matches!(msg, WireMsg::Shutdown) {
                flow = Flow::Leaving;
                continue;
            }
            if self.is_query_path(&msg)
                && self.crash_after.as_mut().is_some_and(|left| {
                    *left -= 1;
                    *left == 0
                })
            {
                crashed = true;
                continue;
            }
            self.handle(msg);
        }
        if crashed {
            self.restart();
        }
        flow
    }

    /// A crash point fired: all in memory is lost but the counters and
    /// the load log, from which the constructor rebuilds the machine in
    /// place, with no crash point left. What the lanes held never
    /// leaves — counted dropped — and a parked traversal is abandoned.
    fn restart(&mut self) {
        self.stats.frames_dropped += self.fabric.write_off();
        self.stats.queries_abandoned += self.parked();
        let mut lifetime = self.stats.clone();
        lifetime.add_cache(self.cache.counters());
        let log = self.log.take();
        lifetime.respawns += 1;
        lifetime.replayed_frames += log.as_ref().map_or(0, Vec::len) as u64;
        let ctx = WorkerContext {
            index: self.index,
            hasher: self.hasher,
            shards: self.shards,
            crash_after: None,
            log,
        };
        let fabric = std::mem::replace(&mut self.fabric, Fabric::new(0, PacketPool::default()));
        *self = NodeMachine::new(ctx, fabric);
        self.stats.merge(&lifetime);
    }

    /// The traversals parked on an awaited owner.
    pub fn parked(&self) -> u64 {
        self.queries.len() as u64
    }

    /// The lifetime counters so far, the cache's and the fabric's
    /// folded in.
    pub fn stats(&self) -> WorkerStats {
        let mut stats = self.stats.clone();
        stats.backpressure_hits += self.fabric.backpressure_hits();
        stats.frames_dropped += self.fabric.frames_dropped();
        stats.add_cache(self.cache.counters());
        stats
    }

    /// Ends the worker and returns its lifetime counters. A traversal
    /// still parked is counted abandoned: nobody will answer it now.
    pub fn exit(mut self) -> WorkerStats {
        self.stats.queries_abandoned += self.parked();
        self.stats()
    }

    /// Frames that count toward a crash point: the traversal and
    /// lookup path, not loads or control.
    fn is_query_path(&self, msg: &WireMsg) -> bool {
        matches!(
            msg,
            WireMsg::Query { .. }
                | WireMsg::QueryAt { .. }
                | WireMsg::FtQuery { .. }
                | WireMsg::RegionQuery { .. }
                | WireMsg::RegionDone { .. }
                | WireMsg::Pin { .. }
        )
    }

    /// Whether this worker owns vertex `bits`; counts the frame that
    /// named it when not.
    fn owns(&mut self, bits: u64) -> bool {
        let mine = self.shards.owner_of(bits) == self.index;
        if !mine {
            self.stats.frames_misrouted += 1;
        }
        mine
    }

    fn handle(&mut self, msg: WireMsg) {
        match msg {
            WireMsg::Insert { object, keywords } => {
                let bits = self.hasher.vertex_for(&keywords).bits();
                if !self.owns(bits) {
                    return;
                }
                if self
                    .tables
                    .entry(bits)
                    .or_default()
                    .insert(keywords, ObjectId::from_raw(object))
                {
                    self.stats.inserts += 1;
                    self.cache.bump_generation();
                }
            }
            // Clients send a query to its root's owner, but any worker
            // coordinates what it is sent: a root region it does not
            // own is one more remote region.
            WireMsg::Query {
                query_id,
                keywords,
                threshold,
            } => self.coordinate(query_id, keywords, threshold, Vec::new(), None),
            WireMsg::QueryAt {
                query_id,
                keywords,
                threshold,
                marks,
            } => self.coordinate(query_id, keywords, threshold, marks, None),
            WireMsg::FtQuery {
                query_id,
                keywords,
                threshold,
                max_retries,
                base_timeout,
            } => {
                // A region has no subtree to route around: retrying an
                // owner is every strategy's whole recovery.
                let policy = FtPolicy {
                    strategy: RecoveryStrategy::RetryOnly,
                    max_retries,
                    base_timeout: base_timeout.max(1),
                };
                self.coordinate(
                    query_id,
                    keywords,
                    threshold.max(1),
                    Vec::new(),
                    Some(policy),
                );
            }
            WireMsg::RegionQuery {
                query_id,
                keywords,
                threshold,
                coord,
                attempt,
            } => {
                // The answer goes to `coord`, which came off the wire:
                // only another worker coordinates.
                if coord == self.index || coord as usize >= self.client_slot() {
                    self.stats.frames_misrouted += 1;
                    return;
                }
                let root = self.hasher.vertex_for(&keywords);
                let epoch = self.cache.generation();
                let groups = self
                    .walk_share(root, &keywords, threshold as usize)
                    .unwrap_or_else(|| {
                        self.stats.frames_misrouted += 1;
                        Vec::new()
                    });
                let room = MAX_BODY_LEN as usize - REGION_DONE_HEADER_LEN;
                let frames = region_done_frames(query_id, self.index, epoch, attempt, groups, room);
                for frame in frames {
                    self.send(coord as usize, &frame);
                }
            }
            WireMsg::RegionDone {
                query_id,
                worker,
                epoch,
                attempt,
                part,
                more,
                groups,
            } => {
                // Late and duplicate answers still say how far that
                // peer's shard has moved.
                if let Some(heard) = self.heard.get_mut(worker as usize) {
                    *heard = (*heard).max(epoch);
                }
                // Only an owner still waited for is listened to: a
                // duplicate, a straggler behind a finished query or a
                // frame nobody asked for is dropped.
                let Some(state) = self.queries.get_mut(&query_id) else {
                    return;
                };
                if let Some(coverage) = &mut state.coverage {
                    coverage.conts += 1;
                    coverage.result_messages += u64::from(!groups.is_empty());
                }
                let Some(at) = state.awaiting.iter().position(|a| a.owner == worker) else {
                    return;
                };
                if !state.awaiting[at].answer.take(attempt, part, groups) || more {
                    return;
                }
                // The answer is whole: every part was cut from the one
                // walk this epoch stamps.
                let answered = state.awaiting.swap_remove(at);
                state.groups.extend(answered.answer.groups);
                state.peer_epochs.push((worker, epoch));
                if state.awaiting.is_empty() {
                    let state = self.queries.remove(&query_id).expect("looked up above");
                    self.finish_query(state);
                }
            }
            WireMsg::Pin { query_id, keywords } => {
                self.stats.scans += 1;
                let bits = self.hasher.vertex_for(&keywords).bits();
                // Misrouted, it finds no table and answers empty.
                self.owns(bits);
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
            // Nothing an honest peer sends a worker: a reply meant for
            // a client. Bytes off a socket can be anything that decodes.
            WireMsg::QueryDone { .. }
            | WireMsg::FtQueryDone { .. }
            | WireMsg::PinResults { .. }
            | WireMsg::FlushAck { .. } => self.stats.frames_misrouted += 1,
            WireMsg::Shutdown => unreachable!("intercepted by `receive`"),
        }
    }

    /// At most `limit` of vertex `bits`' matches for `keywords`, in the
    /// store's order.
    fn scan(
        &mut self,
        bits: u64,
        keywords: &KeywordSet,
        qsig: u64,
        limit: usize,
    ) -> Vec<(u64, u32)> {
        self.stats.scans += 1;
        let mut found = Vec::new();
        scan_store(self.tables.get(&bits), keywords, qsig, limit, &mut found);
        found
            .iter()
            .map(|r| (r.object.raw(), r.extra_keywords))
            .collect()
    }

    /// This worker's share of one superset query: every prefix region
    /// of `H_r(root)` it owns, walked; the vertices holding matches in
    /// visit order, cut at the share's first `threshold` matches — the
    /// query's first `threshold` are among them and the other owners'.
    /// `None` when it owns no region of the subcube. The coordinator
    /// and every other owner answer through here.
    fn walk_share(
        &mut self,
        root: Vertex,
        keywords: &KeywordSet,
        threshold: usize,
    ) -> Option<Vec<RegionGroup>> {
        let cut = self.shards.region_cut();
        let qsig = keywords.signature();
        let mut groups = Vec::new();
        let mut regions = 0;
        // The root's region comes first.
        for entry in region_entries(root, cut) {
            if self.shards.owner_of(entry) != self.index {
                continue;
            }
            regions += 1;
            self.walk_region(entry, cut, keywords, qsig, threshold, &mut groups);
            if root_fills(&groups, root.bits(), threshold) {
                break;
            }
        }
        if regions > 1 {
            cut_groups(root.bits(), &mut groups, threshold);
        }
        (regions > 0).then_some(groups)
    }

    /// Walks one region from its `entry` vertex with arrival dimension
    /// `cut` — the coordinator's walk of it
    /// ([`SupersetCoordinator::region`]) — pushing every vertex that
    /// holds a match, until the region has yielded `threshold` of them:
    /// whatever it holds beyond is behind `threshold` matches in the
    /// whole query's order too.
    fn walk_region(
        &mut self,
        entry: u64,
        cut: u8,
        keywords: &KeywordSet,
        qsig: u64,
        threshold: usize,
        groups: &mut Vec<RegionGroup>,
    ) {
        let mut walk = SupersetCoordinator::region(entry, cut, threshold);
        while let Step::Visit { bits, via_dim } = walk.next_step() {
            let objects = self.scan(bits, keywords, qsig, walk.remaining());
            let found = objects.len();
            if found > 0 {
                groups.push((bits, objects));
            }
            let vertex = Vertex::from_bits(self.shape, bits).expect("regions stay in the cube");
            walk.record_visit(found, child_contacts(vertex, via_dim));
        }
    }

    /// Completes one query once no owner is awaited any more — each has
    /// answered whole or, for an `FtQuery`, been given up: merges the
    /// groups into the sequential traversal's answer and ships it. An
    /// `FtQuery` gets `FtQueryDone` with its coverage; a plain query
    /// `QueryDone`, which, when the traversal holds its query's cache
    /// slot, also goes to every waiter the answer is fresh enough for,
    /// and fills the slot.
    fn finish_query(&mut self, mut state: QueryState) {
        let query_id = state.query_id;
        cut_groups(state.root.bits(), &mut state.groups, state.threshold);
        let objects: Vec<(u64, u32)> = state
            .groups
            .drain(..)
            .flat_map(|(_, objects)| objects)
            .collect();
        let client = self.client_slot();
        if let Some(mut coverage) = state.coverage {
            // Regions are all one size. Answered for are this worker's
            // and those of the owners whose answer was committed; every
            // other owner, if any was asked at all, was given up.
            let cut = self.shards.region_cut();
            let region = 1u64 << (state.root.zero_mask() & ((1u64 << cut) - 1)).count_ones();
            for entry in region_entries(state.root, cut) {
                let owner = self.shards.owner_of(entry);
                if owner == self.index || state.peer_epochs.iter().any(|&(p, _)| p == owner) {
                    coverage.reached += region;
                } else if coverage.queries_sent > 0 {
                    let entry =
                        Vertex::from_bits(self.shape, entry).expect("regions stay in the cube");
                    subtree_bits(self.shape, entry, Some(cut), &mut coverage.skipped);
                }
            }
            coverage.skipped.sort_unstable();
            let done = WireMsg::FtQueryDone {
                query_id,
                objects,
                coverage,
            };
            return self.send(client, &done);
        }
        // Short of the threshold, every region was walked to its end.
        let exhausted = objects.len() < state.threshold;
        if !state.slot {
            return self.send(client, &WireMsg::QueryDone { query_id, objects });
        }
        self.reply(query_id, &objects, usize::MAX);
        // A waiter is served under the rule a later arrival would be
        // served from the entry under; one the answer is too old for
        // (its client flushed a write this traversal scanned before)
        // starts over as a new arrival.
        let own_moved = self.cache.generation() != state.own_epoch;
        let mut starting_over = Vec::new();
        for waiter in state.waiters {
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
                state.peer_epochs,
            );
        }
        self.start_over(&state.keywords, starting_over);
    }

    /// Runs `waiters` of a traversal that will not answer them as the
    /// new arrivals of its query they now are.
    fn start_over(&mut self, keywords: &KeywordSet, waiters: Vec<Waiter>) {
        for waiter in waiters {
            self.start_query(
                waiter.query_id,
                keywords.clone(),
                waiter.threshold,
                waiter.marks,
                None,
            );
        }
    }

    /// Ships one `QueryDone` carrying at most `threshold` of `results`.
    fn reply(&mut self, query_id: u64, results: &[(u64, u32)], threshold: usize) {
        let objects = results[..results.len().min(threshold)].to_vec();
        let client = self.client_slot();
        self.send(client, &WireMsg::QueryDone { query_id, objects });
    }

    /// One superset query arrives at its coordinator: a plain one with
    /// the `marks` its client saw flushed, an `FtQuery` with the policy
    /// (`ft`) its frame carried.
    fn coordinate(
        &mut self,
        query_id: u64,
        keywords: KeywordSet,
        threshold: u64,
        marks: Vec<u64>,
        ft: Option<FtPolicy>,
    ) {
        self.stats.queries_coordinated += 1;
        self.start_query(query_id, keywords, threshold as usize, marks, ft);
    }

    /// Answers a plain query from the result cache, parks it behind the
    /// running traversal of the same query, or starts its own traversal
    /// — whichever the cache decides from the arrival order. `marks`
    /// are the per-worker write epochs the client saw flushed. An
    /// `FtQuery` (`ft` is its policy) always walks and keeps nothing:
    /// it has no marks to be fresh against, and a cached answer has no
    /// coverage to report.
    fn start_query(
        &mut self,
        query_id: u64,
        keywords: KeywordSet,
        threshold: usize,
        marks: Vec<u64>,
        ft: Option<FtPolicy>,
    ) {
        // An id that names a traversal still parked here is a repeat of
        // its request or another sender's id colliding with it: either
        // way not a second traversal under the one name the first's
        // answers, waiters and cache reservation go by.
        if self.queries.contains_key(&query_id) {
            self.stats.frames_misrouted += 1;
            return;
        }
        let heard = &self.heard;
        let slot = ft.is_none()
            && match self.cache.claim(&keywords, threshold, query_id, |remote| {
                fresh(remote, heard, &marks)
            }) {
                Claim::Hit(results) => return self.reply(query_id, &results, threshold),
                Claim::Join(leader) => {
                    let leader = self
                        .queries
                        .get_mut(&leader)
                        .expect("a reservation's holder is a parked traversal");
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
        let own_epoch = self.cache.generation();
        let groups = self
            .walk_share(root, &keywords, threshold)
            .unwrap_or_default();
        let mut state = QueryState {
            query_id,
            keywords,
            root,
            threshold,
            groups,
            awaiting: Vec::new(),
            policy: ft.unwrap_or(PLAIN_QUERY_POLICY),
            coverage: ft.map(|_| FtCoverage {
                subcube_vertices: 1u64 << root.zero_count(),
                ..FtCoverage::default()
            }),
            slot,
            own_epoch,
            peer_epochs: Vec::new(),
            waiters: Vec::new(),
        };
        // One round: every other owner of a region hears once, unless
        // the root already settled the answer.
        if !root_fills(&state.groups, root.bits(), threshold) {
            for entry in region_entries(root, self.shards.region_cut()) {
                let owner = self.shards.owner_of(entry);
                if owner != self.index && state.awaiting.iter().all(|a| a.owner != owner) {
                    self.ask(&mut state, owner, 0, Staged::default());
                }
            }
        }
        if state.awaiting.is_empty() {
            self.finish_query(state);
        } else {
            self.queries.insert(query_id, state);
        }
    }

    /// Sends `owner` transmission number `attempt` of the query's
    /// `RegionQuery` and awaits its answer, `answer` being what is
    /// staged of it so far: the first transmission, or a retry
    /// [`NodeMachine::tick`] found left in the budget.
    fn ask(&mut self, state: &mut QueryState, owner: u32, attempt: u32, answer: Staged) {
        self.send(
            owner as usize,
            &WireMsg::RegionQuery {
                query_id: state.query_id,
                keywords: state.keywords.clone(),
                threshold: state.threshold as u64,
                coord: self.index,
                attempt,
            },
        );
        if let Some(coverage) = &mut state.coverage {
            coverage.queries_sent += 1;
            coverage.retries += u64::from(attempt > 0);
        }
        let wait = state
            .policy
            .attempt_timeout(attempt)
            .expect("a worker's policy retries and times every transmission");
        state.awaiting.push(Awaited {
            owner,
            sent: attempt.saturating_add(1),
            // The timeout came off the wire: far enough is forever.
            deadline: self.now.saturating_add(Duration::from_millis(wait)),
            answer,
        });
    }

    /// The earliest deadline among the parked traversals' awaited
    /// owners: the one timer a worker waits on. Its driver calls
    /// [`NodeMachine::tick`] no later than this.
    pub fn next_deadline(&self) -> Option<Duration> {
        self.queries
            .values()
            .flat_map(|q| &q.awaiting)
            .map(|a| a.deadline)
            .min()
    }

    /// Holds every parked traversal to its deadlines. An awaited owner
    /// whose latest `RegionQuery` went unanswered for its whole wait is
    /// asked again while the policy's budget lasts, then given up: its
    /// regions are the skipped vertices of an `FtQuery`, which ends
    /// once nobody is awaited; a plain query ends there and then,
    /// unanswered — a short answer must never pass for the whole one.
    pub fn tick(&mut self, now: Duration) {
        self.now = now;
        let mut due: Vec<u64> = self
            .queries
            .iter()
            .filter(|(_, q)| q.awaiting.iter().any(|a| a.deadline <= now))
            .map(|(&query_id, _)| query_id)
            .collect();
        // In id order, so one input schedule is one output schedule.
        due.sort_unstable();
        for query_id in due {
            let mut state = self.queries.remove(&query_id).expect("listed above");
            let (expired, awaiting): (Vec<_>, Vec<_>) = std::mem::take(&mut state.awaiting)
                .into_iter()
                .partition(|a| a.deadline <= now);
            state.awaiting = awaiting;
            let mut given_up = 0;
            for awaited in expired {
                if state.policy.attempt_timeout(awaited.sent).is_some() {
                    self.ask(&mut state, awaited.owner, awaited.sent, awaited.answer);
                } else {
                    given_up += 1;
                }
            }
            if let Some(coverage) = &mut state.coverage {
                coverage.timeouts += given_up;
            } else if given_up > 0 {
                self.stats.queries_abandoned += 1;
                self.cache.release(&state.keywords, query_id);
                self.start_over(&state.keywords, state.waiters);
                continue;
            }
            if state.awaiting.is_empty() {
                self.finish_query(state);
            } else {
                self.queries.insert(query_id, state);
            }
        }
    }

    /// Encodes one frame onto `dest`'s lane. The driver offers the
    /// lane at the end of the turn, which is what lets every frame
    /// emitted while handling one packet travel as a single fabric
    /// operation per destination.
    fn send(&mut self, dest: usize, msg: &WireMsg) {
        self.stats.frames_sent += 1;
        match msg {
            WireMsg::RegionQuery { .. } => self.stats.batch_frames_sent += 1,
            WireMsg::RegionDone { groups, .. } => {
                self.stats.batch_frames_sent += 1;
                self.stats.batch_entries_sent += groups.len() as u64;
            }
            _ => {}
        }
        self.fabric.append(dest, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::SupervisorStats;

    #[test]
    fn report_lines_roundtrip_in_declaration_order() {
        let line = "WSTATS 3 10 11 1 2 3 4 5 8 9 27 12 13 14 15 16 17 18 19 20 21";
        let stats = WorkerStats::parse_line(line).unwrap();
        assert_eq!(
            (stats.worker, stats.frames_sent, stats.scans),
            (3, 10, 3),
            "{stats:?}"
        );
        assert_eq!((stats.batch_entries_sent, stats.cache_evictions), (27, 16));
        assert_eq!((stats.frames_undecodable, stats.frames_misrouted), (17, 18));
        assert_eq!(stats.queries_abandoned, 19);
        assert_eq!((stats.respawns, stats.replayed_frames), (20, 21));
        assert_eq!(stats.report_line(), line);
        // A line one counter short (the cache columns' predecessor
        // format included) or long is rejected, never zero-filled.
        assert!(WorkerStats::parse_line(line.rsplit_once(' ').unwrap().0).is_none());
        assert!(WorkerStats::parse_line("WSTATS 3 10 11 1 2 3 4 5 8 9 27").is_none());
        assert!(WorkerStats::parse_line(&format!("{line} 22")).is_none());
        assert!(WorkerStats::parse_line(&line.replace("WSTATS", "SSTATS")).is_none());
        // Merging sums every counter and leaves the key alone.
        let mut merged = stats.clone();
        merged.merge(&stats);
        assert_eq!(
            merged.report_line(),
            "WSTATS 3 20 22 2 4 6 8 10 16 18 54 24 26 28 30 32 34 36 38 40 42"
        );

        let sup = SupervisorStats::parse_line("SSTATS 1 2 3 4 5").unwrap();
        assert_eq!((sup.respawns, sup.replayed_frames), (1, 2));
        assert_eq!(
            (sup.frames_drained, sup.streams_corrupt, sup.units_misrouted),
            (3, 4, 5)
        );
        assert_eq!(sup.report_line(), "SSTATS 1 2 3 4 5");
        assert!(SupervisorStats::parse_line("garbage").is_none());
    }

    /// An answer forced over a tiny body cap travels in several frames,
    /// every one within the cap, numbered in order and all but the last
    /// flagged `more`. The coordinator stages them and reads the same
    /// answer out — with a frame duplicated on the way, too — but only
    /// whole: with a middle frame lost nothing is committed until the
    /// retry's answer has arrived, and then it is the unsplit one.
    #[test]
    fn an_answer_split_over_several_frames_merges_to_the_unsplit_answer() {
        let root = 0b0000_0100u64;
        // Vertices of `H_8(root)` in visit order, 1–3 matches each.
        let mut vertices: Vec<u64> = (0..256)
            .filter(|v| v & root == root && v % 3 != 0)
            .collect();
        vertices.sort_by_key(|&v| visit_order_key(root, v));
        let groups: Vec<RegionGroup> = vertices
            .iter()
            .map(|&v| (v, (0..=v % 3).map(|i| (v * 10 + i, i as u32)).collect()))
            .collect();
        let merged = |mut groups: Vec<RegionGroup>, threshold| {
            cut_groups(root, &mut groups, threshold);
            groups
        };
        let room = 100;
        let answer = |attempt| region_done_frames(7, 1, 42, attempt, groups.clone(), room);
        // Stages `frames` in order; whether the last one taken closed
        // the answer.
        let deliver = |staged: &mut Staged, frames: &[WireMsg]| {
            let mut whole = false;
            for frame in frames {
                let WireMsg::RegionDone {
                    attempt,
                    part,
                    more,
                    groups,
                    ..
                } = frame.clone()
                else {
                    panic!("not a region answer: {frame:?}");
                };
                if staged.take(attempt, part, groups) {
                    whole = !more;
                }
            }
            whole
        };

        let frames = answer(0);
        assert!(frames.len() > 10, "{} frames", frames.len());
        for (i, frame) in frames.iter().enumerate() {
            assert!(frame.encode().len() - wire::PREFIX_LEN <= REGION_DONE_HEADER_LEN + room);
            assert!(
                matches!(frame, WireMsg::RegionDone { part, more, groups, .. }
                    if *part as usize == i && *more == (i + 1 < frames.len()) && !groups.is_empty())
            );
        }
        // Frame 3 twice, and a stray copy of frame 0 behind it.
        let mut doubled = frames.clone();
        doubled.insert(4, frames[0].clone());
        doubled.insert(4, frames[3].clone());
        let mut staged = Staged::default();
        assert!(deliver(&mut staged, &doubled));
        assert_eq!(staged.groups, groups);
        for threshold in [1, 2, 20, usize::MAX - 1] {
            assert_eq!(
                merged(staged.groups.clone(), threshold),
                merged(groups.clone(), threshold)
            );
        }

        // Frame 5 lost: everything behind the gap is dropped, the last
        // frame included. The retry's answer replaces what was staged.
        let mut gapped = frames.clone();
        gapped.remove(5);
        let mut staged = Staged::default();
        assert!(!deliver(&mut staged, &gapped));
        assert_eq!(staged.next_part, 5);
        assert!(deliver(&mut staged, &answer(1)));
        assert_eq!(staged.groups, groups);
        // Nothing to say is still one frame: the coordinator waits for it.
        assert_eq!(region_done_frames(7, 1, 42, 0, Vec::new(), room).len(), 1);
    }
}
