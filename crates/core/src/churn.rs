//! Live membership, index handoff, and self-healing replication for the
//! message-level protocol simulation.
//!
//! The hypercube of §2–3 is an *overlay*: its `2^r` logical vertices are
//! mapped onto whatever physical nodes currently exist by the underlying
//! DHT's surrogate rule (§2.1). This module makes that mapping **live**.
//! A [`ChurnPlan`] schedules joins,
//! graceful leaves, and crashes of physical hosts; each vertex's primary
//! index table follows its surrogate owner around the identifier ring:
//!
//! * **Graceful leave** — the departing host streams every vertex table
//!   it owns to that vertex's new surrogate in bounded-size
//!   [`ChurnMsg::HandoffBatch`] messages (stop-and-wait, retransmitted on
//!   timeout). The host stays online until its last batch is
//!   acknowledged, then goes dark.
//! * **Join** — the new host's ownership claims are reconciled at the
//!   next *stabilization round*: every vertex whose believed owner
//!   differs from its ideal surrogate starts a handoff from the former
//!   to the latter.
//! * **Crash** — the host vanishes with its primary tables. The next
//!   stabilization round assigns each orphaned vertex to its new
//!   surrogate (with an empty table), and periodic **anti-entropy
//!   repair** re-pushes the lost postings from the secondary hypercube
//!   (the second hash seed of [`crate::replication`]) in
//!   [`ChurnMsg::RepairPush`] batches until the diff is empty.
//!
//! While a vertex is mid-handoff, crashed and not yet reassigned, or
//! reassigned but still awaiting repair, it answers nothing: a
//! fault-tolerant search treats it as a *retriable target* — the
//! coordinator's timer fires, the query is retransmitted, and a retry
//! after the handoff (or repair) lands succeeds. A vertex that stays
//! silent past the retry budget is re-delegated or failed over exactly
//! as in §3.4, so every search still returns an exact
//! [`CoverageReport`](crate::sim_protocol::CoverageReport). The other
//! searches have no timers: a sequential walk stops at a silent vertex,
//! a parallel round or a pin lookup misses its postings, and each
//! returns what it collected once the network is quiescent — no hang.
//!
//! Membership traffic and searches share one network and one receive
//! path ([`crate::sim_protocol`] § "One receive path"): whichever
//! driver steps the network — a search of any kind or
//! [`ProtocolSim::run_churn_to`] — handoff batches, repair pushes and
//! churn timers reach this module, and queries reach their vertex.
//!
//! # Limitations
//!
//! Inserts while the target vertex is mid-handoff land in the table that
//! the installing batch stream then overwrites; index the corpus before
//! (or between) churn windows. The secondary cube is the stable replica
//! store — its own churn is out of scope here.
//!
//! # Example
//!
//! ```
//! use hyperdex_core::churn::StabilizationConfig;
//! use hyperdex_core::{KeywordSet, ProtocolSim, RecoveryStrategy};
//! use hyperdex_dht::ObjectId;
//! use hyperdex_simnet::churn::ChurnPlan;
//! use hyperdex_simnet::latency::LatencyModel;
//! use hyperdex_simnet::time::SimTime;
//!
//! let mut sim = ProtocolSim::new(4, 7, LatencyModel::constant(1))?;
//! sim.insert(ObjectId::from_raw(1), KeywordSet::parse("tvbs, news")?)?;
//! let mut plan = ChurnPlan::default();
//! plan.leave_at(SimTime::from_ticks(50), 3); // node 3 departs gracefully
//! sim.enable_churn(&plan, StabilizationConfig::default(), &[1, 2, 3, 4])?;
//! sim.run_churn_to_quiescence();
//! assert!(sim.churn().unwrap().converged());
//! let news = KeywordSet::parse("news")?;
//! let out = sim.search_fault_tolerant(&news, 8, RecoveryStrategy::Redelegate)?;
//! assert_eq!(out.results.len(), 1); // nothing lost to the departure
//! # Ok::<(), hyperdex_core::Error>(())
//! ```

use std::collections::{BTreeMap, HashSet};

use hyperdex_dht::{keyhash, NodeId, ObjectId, Ring};
use hyperdex_simnet::churn::{ChurnEvent, ChurnKind, ChurnPlan};
use hyperdex_simnet::net::{EndpointId, TimerId};
use hyperdex_simnet::time::{SimDuration, SimTime};

use crate::error::Error;
use crate::keyword::KeywordSet;
use crate::sim_protocol::{KwMsg, ProtocolSim, SimTimer, Until};
use crate::store::PostingStore;

/// What a membership timer is for ([`SimTimer::Churn`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnTimer {
    /// A stabilization round is due.
    Stabilize,
    /// An anti-entropy repair round is due.
    Repair,
    /// Retransmit the current batch of the handoff of this vertex.
    Handoff(u64),
    /// Clock marker [`ProtocolSim::run_churn_to`] uses to advance
    /// virtual time to a membership event's instant.
    Marker,
}

/// Membership messages ([`KwMsg::Churn`]), exchanged in churn mode
/// only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnMsg {
    /// Host → host: one bounded batch of a vertex's index entries,
    /// streamed during a key-range handoff (stop-and-wait).
    HandoffBatch {
        /// The vertex whose table is being moved.
        bits: u64,
        /// Batch sequence number (0-based).
        seq: u32,
        /// The entries in this batch (each keyword set shares the
        /// sender's buffer).
        entries: EntryBatch,
        /// Whether this is the final batch.
        last: bool,
    },
    /// Host → host: acknowledges one handoff batch.
    HandoffAck {
        /// The vertex being moved.
        bits: u64,
        /// The acknowledged sequence number.
        seq: u32,
    },
    /// Secondary-cube vertex → primary host: replica entries re-pushed
    /// by anti-entropy repair after a crash lost the primary copy.
    RepairPush {
        /// The primary vertex being repaired.
        bits: u64,
        /// The entries restored by this push.
        entries: EntryBatch,
    },
}

/// Posting-list entries moved by one handoff or repair batch: keyword
/// sets, sharing the sender's buffers, with the objects homed under
/// each.
type EntryBatch = Vec<(KeywordSet, Vec<ObjectId>)>;

/// Seed tweak separating vertex ring keys from node ring ids.
const VERTEX_KEY_TWEAK: u64 = 0x7E57_ED00_5EED_0001;
/// Seed tweak for host placement on the identifier ring.
const NODE_KEY_TWEAK: u64 = 0xA11C_E000_0000_0B0B;

/// Ticks before an unacknowledged handoff batch is retransmitted.
const HANDOFF_TIMEOUT: u64 = 24;
/// Retransmissions per handoff before it is abandoned (the in-flight
/// postings are then declared lost and left to repair).
const MAX_HANDOFF_RETRANSMITS: u32 = 10;

/// Tuning for the membership / handoff / repair machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilizationConfig {
    /// Ticks between stabilization rounds (ownership reconciliation),
    /// and between anti-entropy repair rounds.
    pub stabilization_interval: u64,
    /// Maximum index entries (keyword-set groups) per handoff or repair
    /// batch.
    pub batch_entries: usize,
}

impl Default for StabilizationConfig {
    fn default() -> Self {
        StabilizationConfig {
            stabilization_interval: 64,
            batch_entries: 32,
        }
    }
}

impl StabilizationConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidChurnConfig`] for a zero interval or a
    /// zero batch size.
    pub fn validate(&self) -> Result<(), Error> {
        if self.stabilization_interval == 0 {
            return Err(Error::InvalidChurnConfig {
                reason: "stabilization interval must be positive",
            });
        }
        if self.batch_entries == 0 {
            return Err(Error::InvalidChurnConfig {
                reason: "handoff batches must hold at least one entry",
            });
        }
        Ok(())
    }
}

/// Counters for everything the churn machinery did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Joins applied.
    pub joins: u64,
    /// Graceful leaves applied.
    pub leaves: u64,
    /// Crashes applied.
    pub crashes: u64,
    /// Handoffs started (including instant empty-table flips).
    pub handoffs_started: u64,
    /// Handoffs whose table installed at the new owner.
    pub handoffs_completed: u64,
    /// Handoffs abandoned (endpoint death or retransmit budget), their
    /// in-flight postings left to repair.
    pub handoffs_aborted: u64,
    /// Handoff batches installed (first delivery only).
    pub handoff_batches: u64,
    /// Index entries moved by handoff batches.
    pub handoff_entries: u64,
    /// Payload bytes of every handoff batch sent (retransmits included).
    pub handoff_bytes: u64,
    /// Handoff batch retransmissions.
    pub handoff_retransmits: u64,
    /// Repair push messages sent.
    pub repair_pushes: u64,
    /// Index entries restored by repair pushes.
    pub repair_entries: u64,
    /// Vertices whose post-crash diff against the secondary cube
    /// reached empty.
    pub repairs_completed: u64,
    /// Sum over completed repairs of (completion − loss) in ticks.
    pub repair_lag_total: u64,
    /// Worst single repair lag in ticks.
    pub repair_lag_max: u64,
    /// Stabilization rounds executed.
    pub stabilization_rounds: u64,
}

impl ChurnStats {
    /// Mean repair lag in ticks over completed repairs (0 when none).
    pub fn repair_lag_mean(&self) -> f64 {
        if self.repairs_completed == 0 {
            0.0
        } else {
            self.repair_lag_total as f64 / self.repairs_completed as f64
        }
    }
}

/// One in-flight vertex-table transfer (stop-and-wait).
#[derive(Debug)]
struct Handoff {
    /// Streaming host (the former owner).
    src: u64,
    /// Receiving host (the new owner).
    dst: u64,
    /// The table, serialized into bounded batches (retransmits clone
    /// keyword-set handles, not sets).
    batches: Vec<EntryBatch>,
    /// Batches acknowledged so far (== index of the next batch to send).
    acked: usize,
    /// Batches received in order at the destination.
    received: usize,
    /// Destination-side accumulation, installed on the final batch.
    staged: PostingStore,
    /// The final batch was delivered and the table installed; only the
    /// closing ack is outstanding.
    complete: bool,
    /// Retransmissions of the current batch.
    attempts: u32,
    /// The armed retransmit timer, if any.
    timer: Option<TimerId>,
}

/// Live-membership state attached to a [`ProtocolSim`] by
/// [`ProtocolSim::enable_churn`].
#[derive(Debug)]
pub struct ChurnState {
    cfg: StabilizationConfig,
    plan: Vec<ChurnEvent>,
    /// Index of the next unapplied plan event.
    next_event: usize,
    /// True membership: hashed host ids on the identifier ring.
    ring: Ring,
    ring_seed: u64,
    /// Reverse map: ring id → raw host id.
    node_of: BTreeMap<NodeId, u64>,
    /// Host id → its endpoint (dead hosts keep their entry).
    hosts: BTreeMap<u64, EndpointId>,
    /// Currently live host ids.
    live: HashSet<u64>,
    /// Believed owner of each *tracked* vertex, keyed by vertex bits.
    /// Sparse: a vertex appears only once something distinguishes it
    /// from the ideal baseline — it holds postings, is mid-handoff, or
    /// lost its owner to a crash (absent-but-unavailable until the next
    /// stabilization round reassigns it). An untracked vertex is
    /// implicitly owned by its ideal surrogate, so reconciliation cost
    /// scales with the corpus footprint, not `2^r` — churn runs at any
    /// dimension the search layers accept.
    view: BTreeMap<u64, u64>,
    /// Number of logical vertices (`2^r`), the consistency denominator.
    vertex_count: u64,
    /// Vertices that answer nothing (mid-handoff or crashed-unassigned).
    unavailable: HashSet<u64>,
    /// Active transfers by vertex bits.
    handoffs: BTreeMap<u64, Handoff>,
    /// Vertices whose primary postings were lost, with the loss instant.
    repair_pending: BTreeMap<u64, SimTime>,
    /// Gracefully departing hosts still streaming: host id → transfers
    /// left. The host's endpoint dies when the count reaches zero.
    departing: BTreeMap<u64, usize>,
    stab_armed: bool,
    repair_armed: bool,
    stats: ChurnStats,
}

impl ChurnState {
    fn node_key(&self, node: u64) -> NodeId {
        NodeId::from_raw(keyhash::stable_hash_u64(
            node,
            self.ring_seed ^ NODE_KEY_TWEAK,
        ))
    }

    fn vertex_key(&self, bits: u64) -> NodeId {
        NodeId::from_raw(keyhash::stable_hash_u64(
            bits,
            self.ring_seed ^ VERTEX_KEY_TWEAK,
        ))
    }

    /// Tracks `bits` in the ownership view (at its ideal surrogate) if
    /// it is not already tracked — called when an insert materializes a
    /// table at a previously-empty vertex, preserving the invariant
    /// that every vertex holding postings appears in the view.
    pub(crate) fn track_vertex(&mut self, bits: u64) {
        if !self.view.contains_key(&bits) {
            if let Some(owner) = self.ideal_owner(bits) {
                self.view.insert(bits, owner);
            }
        }
    }

    /// The host that *should* own `bits` under the current membership.
    fn ideal_owner(&self, bits: u64) -> Option<u64> {
        let s = self.ring.surrogate(self.vertex_key(bits))?;
        self.node_of.get(&s).copied()
    }

    /// Every vertex the churn machinery has an opinion about: believed
    /// owners, mid-handoff vertices, crash orphans, pending repairs.
    /// Any vertex outside this set is empty and implicitly owned by its
    /// ideal surrogate.
    fn tracked_vertices(&self) -> std::collections::BTreeSet<u64> {
        let mut tracked: std::collections::BTreeSet<u64> = self.view.keys().copied().collect();
        tracked.extend(self.unavailable.iter().copied());
        tracked.extend(self.repair_pending.keys().copied());
        tracked.extend(self.handoffs.keys().copied());
        tracked
    }

    /// Vertices whose believed owner differs from the ideal surrogate.
    /// Untracked vertices follow the surrogate by construction, so only
    /// the tracked set is consulted.
    fn divergence(&self) -> usize {
        self.tracked_vertices()
            .into_iter()
            .filter(|&bits| self.view.get(&bits).copied() != self.ideal_owner(bits))
            .count()
    }

    /// Counters for everything the churn machinery did so far.
    pub fn stats(&self) -> &ChurnStats {
        &self.stats
    }

    /// Fraction of vertices whose believed owner is the ideal surrogate
    /// *and* that are currently answering queries — the probability a
    /// uniformly random lookup is served by the true owner.
    pub fn consistency(&self) -> f64 {
        // An untracked vertex is empty and served by its ideal
        // surrogate, so it always counts as good; only tracked
        // vertices can be stale or dark.
        let bad = self
            .tracked_vertices()
            .into_iter()
            .filter(|&bits| {
                self.unavailable.contains(&bits)
                    || self.view.get(&bits).copied() != self.ideal_owner(bits)
            })
            .count() as u64;
        (self.vertex_count - bad.min(self.vertex_count)) as f64 / self.vertex_count as f64
    }

    /// Whether the system is fully settled: every plan event applied, no
    /// transfer or repair in flight, every vertex available under its
    /// ideal owner.
    pub fn converged(&self) -> bool {
        self.next_event == self.plan.len()
            && self.handoffs.is_empty()
            && self.repair_pending.is_empty()
            && self.unavailable.is_empty()
            && self.divergence() == 0
    }
}

/// Payload bytes of one batch: 16 per keyword, 8 per object id, 16 of
/// framing per entry.
fn entries_bytes(entries: &[(KeywordSet, Vec<ObjectId>)]) -> u64 {
    entries
        .iter()
        .map(|(k, objs)| 16 + 16 * k.len() as u64 + 8 * objs.len() as u64)
        .sum()
}

impl ProtocolSim {
    /// Attaches a churn plan and live-membership state to this
    /// simulation.
    ///
    /// `initial_members` are the host ids alive at time zero; every
    /// vertex's believed owner starts at its ideal surrogate. Events in
    /// `plan` are applied by [`ProtocolSim::run_churn_to`] /
    /// [`ProtocolSim::run_churn_to_quiescence`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidChurnConfig`] if churn is already
    /// enabled, `cfg` fails validation, or `initial_members` is empty.
    /// Any dimension the search layers accept works: ownership
    /// reconciliation walks only the *tracked* vertices (occupied,
    /// mid-handoff, or crash-orphaned), never all `2^r`.
    pub fn enable_churn(
        &mut self,
        plan: &ChurnPlan,
        cfg: StabilizationConfig,
        initial_members: &[u64],
    ) -> Result<(), Error> {
        if self.churn.is_some() {
            return Err(Error::InvalidChurnConfig {
                reason: "churn is already enabled on this simulation",
            });
        }
        cfg.validate()?;
        if initial_members.is_empty() {
            return Err(Error::InvalidChurnConfig {
                reason: "at least one initial member is required",
            });
        }
        let n = self.shape.vertex_count();
        let mut st = ChurnState {
            cfg,
            plan: plan.events().to_vec(),
            next_event: 0,
            ring: Ring::new(),
            ring_seed: self.seed,
            node_of: BTreeMap::new(),
            hosts: BTreeMap::new(),
            live: HashSet::new(),
            view: BTreeMap::new(),
            vertex_count: n,
            unavailable: HashSet::new(),
            handoffs: BTreeMap::new(),
            repair_pending: BTreeMap::new(),
            departing: BTreeMap::new(),
            stab_armed: false,
            repair_armed: false,
            stats: ChurnStats::default(),
        };
        let mut members: Vec<u64> = initial_members.to_vec();
        members.sort_unstable();
        members.dedup();
        for &m in &members {
            add_host(self, &mut st, m);
        }
        // Track only the occupied vertices; everything else follows
        // its ideal surrogate implicitly until postings or faults give
        // churn a reason to care about it.
        for &bits in self.tables.keys() {
            if let Some(owner) = st.ideal_owner(bits) {
                st.view.insert(bits, owner);
            }
        }
        self.churn = Some(Box::new(st));
        Ok(())
    }

    /// The churn state, if [`ProtocolSim::enable_churn`] was called.
    pub fn churn(&self) -> Option<&ChurnState> {
        self.churn.as_deref()
    }

    /// Applies every plan event scheduled at or before `until`, then
    /// drains network events due by then (handoff batches, acks,
    /// stabilization and repair rounds). Later events stay queued.
    pub fn run_churn_to(&mut self, until: SimTime) {
        while self
            .churn
            .as_ref()
            .and_then(|c| c.plan.get(c.next_event))
            .is_some_and(|e| e.at <= until)
        {
            self.apply_next_plan_event();
        }
        self.pump(Until::Instant(until), &mut |_, _| {});
    }

    /// Applies the whole remaining plan and drains the network to
    /// quiescence: every handoff completes or aborts, every lost vertex
    /// is reassigned and repaired, stabilization stops re-arming.
    pub fn run_churn_to_quiescence(&mut self) {
        while self
            .churn
            .as_ref()
            .is_some_and(|c| c.next_event < c.plan.len())
        {
            self.apply_next_plan_event();
        }
        self.pump(Until::Quiescence, &mut |_, _| {});
    }

    /// Advances the clock to the next plan event's instant (via a marker
    /// timer, draining whatever fires on the way) and dispatches it.
    fn apply_next_plan_event(&mut self) {
        let Some(ev) = self
            .churn
            .as_ref()
            .and_then(|c| c.plan.get(c.next_event).copied())
        else {
            return;
        };
        let delay = ev.at.saturating_since(self.net.now());
        let marker = self
            .net
            .set_timer(self.requester, delay, SimTimer::Churn(ChurnTimer::Marker));
        self.pump(Until::Timer(marker), &mut |_, _| {});
        let Some(mut st) = self.churn.take() else {
            return;
        };
        st.next_event += 1;
        dispatch_membership(self, &mut st, ev);
        self.churn = Some(st);
    }

    /// A membership message arrived (the pump routes every
    /// [`KwMsg::Churn`] here). With churn disabled it is dropped.
    pub(crate) fn churn_deliver(&mut self, to: EndpointId, from: EndpointId, msg: ChurnMsg) {
        let Some(mut st) = self.churn.take() else {
            return;
        };
        match msg {
            ChurnMsg::HandoffBatch {
                bits,
                seq,
                entries,
                last,
            } => on_handoff_batch(self, &mut st, to, from, bits, seq, entries, last),
            ChurnMsg::HandoffAck { bits, seq } => on_handoff_ack(self, &mut st, bits, seq),
            ChurnMsg::RepairPush { bits, entries } => on_repair_push(self, &mut st, bits, entries),
        }
        self.churn = Some(st);
    }

    /// A membership timer fired (the pump routes every
    /// [`SimTimer::Churn`] here).
    pub(crate) fn churn_timer(&mut self, timer: ChurnTimer) {
        let Some(mut st) = self.churn.take() else {
            return;
        };
        match timer {
            ChurnTimer::Stabilize => on_stabilize(self, &mut st),
            ChurnTimer::Repair => on_repair(self, &mut st),
            ChurnTimer::Handoff(bits) => on_handoff_timer(self, &mut st, bits),
            // Only [`ProtocolSim::apply_next_plan_event`] arms one, and
            // the pump consumes it there.
            ChurnTimer::Marker => {}
        }
        self.churn = Some(st);
    }

    /// Whether vertex `bits` must stay silent: mid-handoff, crashed and
    /// not yet reassigned, or reassigned but still awaiting anti-entropy
    /// repair. A mid-repair vertex answering with its partial table
    /// would silently truncate recall — staying silent instead makes it
    /// a retriable target, so a search either retries into the repaired
    /// table or times out and fails over to the replica cube.
    pub(crate) fn churn_vertex_silent(&self, bits: u64) -> bool {
        self.churn
            .as_deref()
            .is_some_and(|c| c.unavailable.contains(&bits) || c.repair_pending.contains_key(&bits))
    }
}

/// Registers a host: endpoint, ring membership, reverse map. A host id
/// rejoining after a death gets a fresh endpoint (the old one stays
/// dead under the fault plan).
fn add_host(sim: &mut ProtocolSim, st: &mut ChurnState, node: u64) {
    match st.hosts.get(&node) {
        Some(&ep) if sim.net.is_up(ep) => {}
        _ => {
            let ep = sim.net.add_endpoint();
            st.hosts.insert(node, ep);
        }
    }
    let key = st.node_key(node);
    st.ring.join(key);
    st.node_of.insert(key, node);
    st.live.insert(node);
}

/// Applies one membership event from the plan.
fn dispatch_membership(sim: &mut ProtocolSim, st: &mut ChurnState, ev: ChurnEvent) {
    match ev.kind {
        ChurnKind::Join => {
            if st.live.contains(&ev.node) {
                return;
            }
            add_host(sim, st, ev.node);
            st.stats.joins += 1;
            arm_stabilize(sim, st);
        }
        ChurnKind::GracefulLeave => {
            if !st.live.contains(&ev.node) || st.live.len() <= 1 {
                return; // unknown node, or would empty the network
            }
            st.live.remove(&ev.node);
            let key = st.node_key(ev.node);
            st.ring.leave(key);
            st.node_of.remove(&key);
            st.stats.leaves += 1;
            let owned: Vec<u64> = st
                .view
                .iter()
                .filter(|&(_, &owner)| owner == ev.node)
                .map(|(&bits, _)| bits)
                .collect();
            if owned.is_empty() {
                let ep = st.hosts[&ev.node];
                sim.net.faults_mut().kill(ep);
            } else {
                st.departing.insert(ev.node, owned.len());
                for bits in owned {
                    let dst = st
                        .ideal_owner(bits)
                        .expect("a non-empty ring has surrogates");
                    start_handoff(sim, st, bits, ev.node, dst);
                }
            }
            arm_stabilize(sim, st);
        }
        ChurnKind::Crash => {
            if !st.live.contains(&ev.node) || st.live.len() <= 1 {
                return;
            }
            st.live.remove(&ev.node);
            let key = st.node_key(ev.node);
            st.ring.leave(key);
            st.node_of.remove(&key);
            st.stats.crashes += 1;
            sim.net.faults_mut().kill(st.hosts[&ev.node]);
            let now = sim.net.now();
            // Transfers through the dead host are lost mid-stream.
            let involved: Vec<u64> = st
                .handoffs
                .iter()
                .filter(|(_, h)| h.src == ev.node || h.dst == ev.node)
                .map(|(&bits, _)| bits)
                .collect();
            for bits in involved {
                abort_handoff(sim, st, bits, now);
            }
            // Its primary tables vanish with it.
            let orphaned: Vec<u64> = st
                .view
                .iter()
                .filter(|&(_, &owner)| owner == ev.node)
                .map(|(&bits, _)| bits)
                .collect();
            for bits in orphaned {
                sim.tables.remove(&bits);
                st.view.remove(&bits);
                st.unavailable.insert(bits);
                st.repair_pending.insert(bits, now);
            }
            arm_stabilize(sim, st);
            arm_repair(sim, st);
        }
    }
}

/// Begins moving vertex `bits` from host `src` to host `dst`. An empty
/// table flips ownership instantly; otherwise the table is taken
/// offline and streamed batch by batch.
fn start_handoff(sim: &mut ProtocolSim, st: &mut ChurnState, bits: u64, src: u64, dst: u64) {
    if st.handoffs.contains_key(&bits) {
        return;
    }
    st.stats.handoffs_started += 1;
    let table = sim.tables.remove(&bits).unwrap_or_default();
    let entries: EntryBatch = table
        .iter()
        .map(|(k, objs)| (k.clone(), objs.collect()))
        .collect();
    if entries.is_empty() {
        install_ownership(st, bits, dst);
        st.stats.handoffs_completed += 1;
        handoff_done_for_src(sim, st, src);
        return;
    }
    st.unavailable.insert(bits);
    let batch_entries = st.cfg.batch_entries;
    let batches: Vec<EntryBatch> = entries
        .chunks(batch_entries)
        .map(<[(KeywordSet, Vec<ObjectId>)]>::to_vec)
        .collect();
    st.handoffs.insert(
        bits,
        Handoff {
            src,
            dst,
            batches,
            acked: 0,
            received: 0,
            staged: PostingStore::default(),
            complete: false,
            attempts: 0,
            timer: None,
        },
    );
    send_current_batch(sim, st, bits);
}

/// Flips vertex `bits` to owner `dst`: available again.
fn install_ownership(st: &mut ChurnState, bits: u64, dst: u64) {
    st.view.insert(bits, dst);
    st.unavailable.remove(&bits);
}

/// (Re)transmits the current unacknowledged batch and arms its timer.
fn send_current_batch(sim: &mut ProtocolSim, st: &mut ChurnState, bits: u64) {
    let (entries, seq, last, src, dst, stale_timer) = {
        let Some(h) = st.handoffs.get_mut(&bits) else {
            return;
        };
        let idx = h.acked.min(h.batches.len() - 1);
        (
            h.batches[idx].clone(),
            idx as u32,
            idx + 1 == h.batches.len(),
            h.src,
            h.dst,
            h.timer.take(),
        )
    };
    if let Some(t) = stale_timer {
        sim.net.cancel_timer(t);
    }
    let bytes = entries_bytes(&entries);
    let (src_ep, dst_ep) = (st.hosts[&src], st.hosts[&dst]);
    sim.net.send_sized(
        src_ep,
        dst_ep,
        KwMsg::Churn(ChurnMsg::HandoffBatch {
            bits,
            seq,
            entries,
            last,
        }),
        bytes,
    );
    let timer = sim.net.set_timer(
        sim.requester,
        SimDuration::from_ticks(HANDOFF_TIMEOUT),
        SimTimer::Churn(ChurnTimer::Handoff(bits)),
    );
    st.stats.handoff_bytes += bytes;
    if let Some(h) = st.handoffs.get_mut(&bits) {
        h.timer = Some(timer);
    }
}

/// Destination side of the stop-and-wait stream: stage in-order batches,
/// install on the last one, always (re-)acknowledge.
#[allow(clippy::too_many_arguments)]
fn on_handoff_batch(
    sim: &mut ProtocolSim,
    st: &mut ChurnState,
    to: EndpointId,
    from: EndpointId,
    bits: u64,
    seq: u32,
    entries: EntryBatch,
    last: bool,
) {
    // Out-of-order batches cannot occur under stop-and-wait; anything
    // but the expected in-order batch is a duplicate worth
    // re-acknowledging (including batches after the record is gone —
    // only the final ack was lost).
    let fresh = {
        let Some(h) = st.handoffs.get_mut(&bits) else {
            sim.net
                .send(to, from, KwMsg::Churn(ChurnMsg::HandoffAck { bits, seq }));
            return;
        };
        if h.complete || (seq as usize) != h.received {
            None
        } else {
            let count = entries.len() as u64;
            for (k, objs) in entries {
                for o in objs {
                    h.staged.insert(k.clone(), o);
                }
            }
            h.received += 1;
            let installed = last.then(|| {
                h.complete = true;
                (std::mem::take(&mut h.staged), h.dst)
            });
            Some((count, installed))
        }
    };
    if let Some((count, installed)) = fresh {
        st.stats.handoff_batches += 1;
        st.stats.handoff_entries += count;
        if let Some((table, dst)) = installed {
            sim.tables.insert(bits, table);
            install_ownership(st, bits, dst);
            st.stats.handoffs_completed += 1;
        }
    }
    sim.net
        .send(to, from, KwMsg::Churn(ChurnMsg::HandoffAck { bits, seq }));
}

/// Source side: an in-order ack advances the window; the final ack
/// closes the transfer (and lets a departing source go dark).
fn on_handoff_ack(sim: &mut ProtocolSim, st: &mut ChurnState, bits: u64, seq: u32) {
    let Some(h) = st.handoffs.get_mut(&bits) else {
        return;
    };
    if (seq as usize) != h.acked {
        return; // stale duplicate
    }
    h.acked += 1;
    h.attempts = 0;
    if let Some(t) = h.timer.take() {
        sim.net.cancel_timer(t);
    }
    if h.acked == h.batches.len() {
        let src = h.src;
        st.handoffs.remove(&bits);
        handoff_done_for_src(sim, st, src);
    } else {
        send_current_batch(sim, st, bits);
    }
}

/// Retransmit timer: resend the current batch, or give up past the
/// budget.
fn on_handoff_timer(sim: &mut ProtocolSim, st: &mut ChurnState, bits: u64) {
    let now = sim.net.now();
    let over_budget = {
        let Some(h) = st.handoffs.get_mut(&bits) else {
            return;
        };
        h.timer = None;
        h.attempts += 1;
        h.attempts > MAX_HANDOFF_RETRANSMITS
    };
    if over_budget {
        abort_handoff(sim, st, bits, now);
        arm_stabilize(sim, st);
        return;
    }
    st.stats.handoff_retransmits += 1;
    send_current_batch(sim, st, bits);
}

/// Abandons a transfer. If the table already installed, this is just
/// cleanup of a lost final ack; otherwise the in-flight postings are
/// declared lost and queued for repair.
fn abort_handoff(sim: &mut ProtocolSim, st: &mut ChurnState, bits: u64, now: SimTime) {
    let Some(h) = st.handoffs.remove(&bits) else {
        return;
    };
    if let Some(t) = h.timer {
        sim.net.cancel_timer(t);
    }
    if h.complete {
        handoff_done_for_src(sim, st, h.src);
        return;
    }
    st.stats.handoffs_aborted += 1;
    st.view.remove(&bits);
    st.unavailable.insert(bits);
    st.repair_pending.insert(bits, now);
    handoff_done_for_src(sim, st, h.src);
    arm_repair(sim, st);
}

/// One of a departing host's transfers finished; the host goes dark
/// when its last one does.
fn handoff_done_for_src(sim: &mut ProtocolSim, st: &mut ChurnState, src: u64) {
    if let Some(left) = st.departing.get_mut(&src) {
        *left = left.saturating_sub(1);
        if *left == 0 {
            st.departing.remove(&src);
            let ep = st.hosts[&src];
            sim.net.faults_mut().kill(ep);
        }
    }
}

/// Arms the next stabilization round unless one is already pending.
fn arm_stabilize(sim: &mut ProtocolSim, st: &mut ChurnState) {
    if !st.stab_armed {
        st.stab_armed = true;
        sim.net.set_timer(
            sim.requester,
            SimDuration::from_ticks(st.cfg.stabilization_interval),
            SimTimer::Churn(ChurnTimer::Stabilize),
        );
    }
}

/// Arms the next repair round unless one is already pending.
fn arm_repair(sim: &mut ProtocolSim, st: &mut ChurnState) {
    if !st.repair_armed {
        st.repair_armed = true;
        sim.net.set_timer(
            sim.requester,
            SimDuration::from_ticks(st.cfg.stabilization_interval),
            SimTimer::Churn(ChurnTimer::Repair),
        );
    }
}

/// One stabilization round: reconcile every *tracked* vertex's
/// believed owner with its ideal surrogate — orphans are taken over
/// directly, stale owners start handoffs. Untracked vertices are empty
/// and implicitly ideal, so the sweep costs the corpus footprint, not
/// `2^r`. Re-arms itself only while work remains, so a settled network
/// goes quiescent.
fn on_stabilize(sim: &mut ProtocolSim, st: &mut ChurnState) {
    st.stab_armed = false;
    st.stats.stabilization_rounds += 1;
    let mut tracked = st.tracked_vertices();
    tracked.extend(sim.tables.keys().copied());
    for bits in tracked {
        if st.handoffs.contains_key(&bits) {
            continue; // transfer already in flight
        }
        let Some(ideal) = st.ideal_owner(bits) else {
            continue;
        };
        match st.view.get(&bits).copied() {
            Some(v) if v == ideal => {}
            Some(v) => start_handoff(sim, st, bits, v, ideal),
            None => {
                // Crashed owner: the surrogate takes over with an empty
                // table; repair refills it from the secondary cube.
                install_ownership(st, bits, ideal);
            }
        }
    }
    if !st.handoffs.is_empty() || st.divergence() > 0 {
        arm_stabilize(sim, st);
    }
    if !st.repair_pending.is_empty() {
        arm_repair(sim, st);
    }
}

/// One anti-entropy repair round: for every vertex that lost postings,
/// diff its primary table against the secondary cube and re-push
/// whatever is missing. Idempotent pushes absorb message loss; the
/// round re-arms until every diff is empty.
fn on_repair(sim: &mut ProtocolSim, st: &mut ChurnState) {
    st.repair_armed = false;
    let pending: Vec<(u64, SimTime)> = st.repair_pending.iter().map(|(&b, &t)| (b, t)).collect();
    for (bits, lost_at) in pending {
        let Some(owner) = st.view.get(&bits).copied() else {
            continue; // awaiting takeover by a stabilization round
        };
        if !st.live.contains(&owner) {
            continue;
        }
        // Missing entries, grouped by the secondary vertex that holds
        // the replica. Only *occupied* secondary vertices are visited —
        // the sweep is proportional to the corpus footprint, not 2^r —
        // and BTreeMap order keeps it deterministic.
        let mut missing: BTreeMap<u64, EntryBatch> = BTreeMap::new();
        for (&bits2, table2) in sim.tables2.iter() {
            for (k, objs) in table2.iter() {
                if sim.hasher.vertex_for(k).bits() != bits {
                    continue;
                }
                let have: Vec<ObjectId> = sim
                    .tables
                    .get(&bits)
                    .map(|t| t.objects_with(k).collect())
                    .unwrap_or_default();
                let lost: Vec<ObjectId> = objs.filter(|o| !have.contains(o)).collect();
                if !lost.is_empty() {
                    missing.entry(bits2).or_default().push((k.clone(), lost));
                }
            }
        }
        if missing.is_empty() {
            let lag = sim.net.now().saturating_since(lost_at).ticks();
            st.stats.repairs_completed += 1;
            st.stats.repair_lag_total += lag;
            st.stats.repair_lag_max = st.stats.repair_lag_max.max(lag);
            st.repair_pending.remove(&bits);
            continue;
        }
        let owner_ep = st.hosts[&owner];
        for (bits2, entries) in missing {
            let from = sim.endpoint_of(bits2);
            for chunk in entries.chunks(st.cfg.batch_entries) {
                let bytes = entries_bytes(chunk);
                sim.net.send_sized(
                    from,
                    owner_ep,
                    KwMsg::Churn(ChurnMsg::RepairPush {
                        bits,
                        entries: chunk.to_vec(),
                    }),
                    bytes,
                );
                st.stats.repair_pushes += 1;
            }
        }
    }
    if !st.repair_pending.is_empty() {
        arm_repair(sim, st);
    }
}

/// Installs re-pushed replica entries into the primary table.
fn on_repair_push(sim: &mut ProtocolSim, st: &mut ChurnState, bits: u64, entries: EntryBatch) {
    let mut added = 0u64;
    let table = sim.tables.entry(bits).or_default();
    for (k, objs) in entries {
        for o in objs {
            if table.insert(k.clone(), o) {
                added += 1;
            }
        }
    }
    st.stats.repair_entries += added;
}

#[cfg(test)]
mod tests {
    use hyperdex_simnet::churn::ChurnConfig;
    use hyperdex_simnet::latency::LatencyModel;
    use hyperdex_simnet::time::SimTime;

    use super::*;
    use crate::fixtures::{set, CORPUS};
    use crate::protocol::{RecoveryStrategy, SIM_RETRY_BUDGET};

    impl ChurnState {
        /// The believed owner (host id) of vertex `bits`. Untracked
        /// vertices are empty and implicitly owned by their ideal
        /// surrogate; `None` means the vertex lost its owner to a crash
        /// and has not been reassigned yet.
        fn view_owner(&self, bits: u64) -> Option<u64> {
            match self.view.get(&bits) {
                Some(&owner) => Some(owner),
                None if self.unavailable.contains(&bits) => None,
                None => self.ideal_owner(bits),
            }
        }
    }

    fn sim_with_corpus(r: u8, seed: u64) -> ProtocolSim {
        let mut sim = ProtocolSim::new(r, seed, LatencyModel::constant(1)).unwrap();
        for &(id, kws) in CORPUS {
            sim.insert(ObjectId::from_raw(id), set(kws)).unwrap();
        }
        sim
    }

    /// The ids a failover search for `query` returns, up to `threshold`.
    fn ids_within(sim: &mut ProtocolSim, query: &str, threshold: usize) -> Vec<u64> {
        let out = sim
            .search_fault_tolerant(&set(query), threshold, RecoveryStrategy::ReplicatedFailover)
            .unwrap();
        let mut ids: Vec<u64> = out.results.iter().map(|r| r.object.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The ids a failover search for `query` returns.
    fn recall_ids(sim: &mut ProtocolSim, query: &str) -> Vec<u64> {
        ids_within(sim, query, usize::MAX - 1)
    }

    #[test]
    fn enable_validates_and_rejects_double_enable() {
        let mut sim = sim_with_corpus(4, 0);
        let plan = ChurnPlan::default();
        assert!(matches!(
            sim.enable_churn(&plan, StabilizationConfig::default(), &[]),
            Err(Error::InvalidChurnConfig { .. })
        ));
        let bad = StabilizationConfig {
            stabilization_interval: 0,
            ..StabilizationConfig::default()
        };
        assert!(matches!(
            sim.enable_churn(&plan, bad, &[1, 2]),
            Err(Error::InvalidChurnConfig { .. })
        ));
        sim.enable_churn(&plan, StabilizationConfig::default(), &[1, 2])
            .unwrap();
        assert!(matches!(
            sim.enable_churn(&plan, StabilizationConfig::default(), &[1, 2]),
            Err(Error::InvalidChurnConfig { .. })
        ));
    }

    #[test]
    fn dimensions_past_the_old_dense_cap_churn_cleanly() {
        // Churn used to reject r > 16 (`DENSE_R_CAP`) because every
        // stabilization round swept all 2^r vertices. The sparse
        // tracked-set port lifts that: a 2^32-vertex cube enables
        // churn, survives a crash, repairs from the secondary cube,
        // and converges — sweeping only the handful of occupied
        // vertices.
        let mut sim = ProtocolSim::new(32, 7, LatencyModel::constant(1)).unwrap();
        for &(id, kws) in CORPUS {
            sim.insert(ObjectId::from_raw(id), set(kws)).unwrap();
        }
        let mut plan = ChurnPlan::default();
        plan.crash_at(SimTime::from_ticks(10), 20);
        sim.enable_churn(&plan, StabilizationConfig::default(), &[10, 20, 30, 40])
            .unwrap();
        sim.run_churn_to_quiescence();
        let st = sim.churn().unwrap();
        assert!(st.converged());
        assert!((st.consistency() - 1.0).abs() < f64::EPSILON);
        // Inserts made after churn was enabled join the tracked view
        // too (the invariant the sparse sweep depends on).
        sim.insert(ObjectId::from_raw(99), set("z z2 z3")).unwrap();
        let bits = sim.hasher.vertex_for(&set("z z2 z3")).bits();
        assert!(sim.churn().unwrap().view.contains_key(&bits));
        // Nothing was lost to the crash. The query's induced subcube
        // has 2^31 vertices; what bounds the walk is the threshold: all
        // six matches lie within two levels of the root, and the sixth
        // stops the search.
        assert_eq!(ids_within(&mut sim, "a", 6), vec![1, 2, 3, 4, 6, 8]);
    }

    #[test]
    fn static_membership_is_fully_consistent_and_free() {
        let mut sim = sim_with_corpus(5, 3);
        sim.enable_churn(
            &ChurnPlan::default(),
            StabilizationConfig::default(),
            &[10, 20, 30, 40],
        )
        .unwrap();
        sim.run_churn_to_quiescence();
        let st = sim.churn().unwrap();
        assert!(st.converged());
        assert_eq!(st.consistency(), 1.0);
        assert_eq!(st.stats().handoffs_started, 0);
        assert_eq!(st.stats().stabilization_rounds, 0);
        assert_eq!(recall_ids(&mut sim, "a"), vec![1, 2, 3, 4, 6, 8]);
    }

    #[test]
    fn graceful_leave_streams_every_owned_table() {
        let mut sim = sim_with_corpus(5, 7);
        let members = [1u64, 2, 3, 4];
        let mut plan = ChurnPlan::default();
        for (i, &m) in members.iter().enumerate().take(3) {
            plan.leave_at(SimTime::from_ticks(40 + 40 * i as u64), m);
        }
        let cfg = StabilizationConfig {
            batch_entries: 1, // force multi-batch streams
            ..StabilizationConfig::default()
        };
        sim.enable_churn(&plan, cfg, &members).unwrap();
        sim.run_churn_to_quiescence();
        let st = sim.churn().unwrap();
        assert!(st.converged(), "not converged: {:?}", st.stats());
        assert_eq!(st.consistency(), 1.0);
        assert_eq!(st.stats().leaves, 3);
        assert!(st.stats().handoffs_completed >= st.stats().leaves);
        assert!(st.stats().handoff_bytes > 0);
        assert_eq!(st.stats().handoffs_aborted, 0);
        // Everything survives three sequential departures.
        assert_eq!(recall_ids(&mut sim, "a"), vec![1, 2, 3, 4, 6, 8]);
        assert_eq!(recall_ids(&mut sim, "x"), vec![7]);
        // The sole survivor owns every vertex.
        let st = sim.churn().unwrap();
        assert_eq!(st.live.len(), 1);
        assert!((0..32).all(|b| st.view_owner(b) == Some(4)));
    }

    #[test]
    fn crash_recovers_via_takeover_and_repair() {
        let mut sim = sim_with_corpus(5, 11);
        let members = [1u64, 2, 3, 4, 5, 6];
        // Crash half the network at once.
        let mut plan = ChurnPlan::default();
        plan.crash_at(SimTime::from_ticks(30), 2);
        plan.crash_at(SimTime::from_ticks(30), 4);
        plan.crash_at(SimTime::from_ticks(30), 6);
        sim.enable_churn(&plan, StabilizationConfig::default(), &members)
            .unwrap();
        sim.run_churn_to_quiescence();
        let st = sim.churn().unwrap();
        assert!(st.converged(), "not converged: {:?}", st.stats());
        assert_eq!(st.stats().crashes, 3);
        // Some vertex the crashed hosts owned held postings, so repair
        // had work to do and measured a positive lag.
        assert!(st.stats().repairs_completed > 0);
        assert!(st.stats().repair_entries > 0);
        assert!(st.stats().repair_lag_max > 0);
        assert!(st.stats().repair_lag_mean() > 0.0);
        // Anti-entropy restored every lost posting.
        assert_eq!(recall_ids(&mut sim, "a"), vec![1, 2, 3, 4, 6, 8]);
        assert_eq!(recall_ids(&mut sim, "b"), vec![2, 3, 5, 8]);
    }

    #[test]
    fn lossy_links_retransmit_until_the_handoff_lands() {
        let mut sim = sim_with_corpus(5, 13);
        let mut plan = ChurnPlan::default();
        plan.leave_at(SimTime::from_ticks(25), 1);
        plan.leave_at(SimTime::from_ticks(60), 2);
        let cfg = StabilizationConfig {
            batch_entries: 1,
            ..StabilizationConfig::default()
        };
        sim.enable_churn(&plan, cfg, &[1, 2, 3, 4]).unwrap();
        sim.network_mut().faults_mut().set_drop_probability(0.3);
        sim.run_churn_to_quiescence();
        sim.network_mut().faults_mut().set_drop_probability(0.0);
        let st = sim.churn().unwrap();
        assert!(st.converged(), "not converged: {:?}", st.stats());
        assert!(
            st.stats().handoff_retransmits > 0,
            "30% loss must cost retransmits: {:?}",
            st.stats()
        );
        assert_eq!(recall_ids(&mut sim, "a"), vec![1, 2, 3, 4, 6, 8]);
    }

    #[test]
    fn timers_keep_their_kind_at_dimensions_past_the_old_token_fields() {
        // Timer tokens used to pack `namespace | kind << 40 | bits` into
        // one u64: at r = 50 a vertex with bit 42 set corrupted a
        // handoff timer's kind (the handoff never retransmitted) and an
        // FT retry timer for a vertex with bit 48 set was taken for a
        // churn timer (the coordinator never retried).
        const R: u8 = 50;
        let mut sim = ProtocolSim::new(R, 7, LatencyModel::constant(1)).unwrap();
        let hasher = sim.hasher;
        // One-keyword sets `w0, w1, …` with the bit each hashes to.
        let words = || {
            (0..).map(|i| {
                let word = set(&format!("w{i}"));
                let bit = hasher.vertex_for(&word).bits().trailing_zeros();
                (word, bit)
            })
        };

        // An object homed on a vertex with bit 42 set.
        let (word42, _) = words().find(|&(_, bit)| bit == 42).unwrap();
        let home = 1 << 42;
        sim.insert(ObjectId::from_raw(1), word42).unwrap();
        // Host 1, the sole member, owns it; the plan has host 2 join
        // and host 1 leave, streaming the table to it.
        let mut plan = ChurnPlan::default();
        plan.join_at(SimTime::from_ticks(1), 2);
        plan.leave_at(SimTime::from_ticks(5), 1);
        sim.enable_churn(&plan, StabilizationConfig::default(), &[1])
            .unwrap();

        // First a search, over a dead vertex with bit 48 set: a query
        // whose root leaves that bit (and few others) free, so its
        // subcube is small.
        let mut query = KeywordSet::new();
        for (word, _) in words().filter(|&(_, bit)| bit != 48) {
            query = query.union(&word);
            if hasher.vertex_for(&query).bits().count_ones() >= u32::from(R) - 6 {
                break;
            }
        }
        let root = sim.hasher.vertex_for(&query);
        let dead = root.flip(48).bits();
        let ep = sim.endpoint_of(dead);
        sim.network_mut().faults_mut().kill(ep);
        let out = sim
            .search_fault_tolerant(&query, usize::MAX - 1, RecoveryStrategy::RetryOnly)
            .unwrap();
        assert_eq!(
            out.coverage.ft.retries,
            u64::from(SIM_RETRY_BUDGET.max_retries),
            "{:?}",
            out.coverage
        );
        assert_eq!(out.coverage.ft.timeouts, 1);

        // Then the plan, with half of all messages lost.
        sim.network_mut().faults_mut().set_drop_probability(0.5);
        sim.run_churn_to_quiescence();
        sim.network_mut().faults_mut().set_drop_probability(0.0);
        let st = sim.churn().unwrap();
        assert!(
            st.stats().handoff_retransmits > 0,
            "50% loss must cost retransmits: {:?}",
            st.stats()
        );
        assert!(st.converged(), "handoff never landed: {:?}", st.stats());
        assert_eq!(st.view_owner(home), Some(2));
    }

    #[test]
    fn generated_plans_converge_deterministically() {
        let members: Vec<u64> = (1..=8).collect();
        let cfg = ChurnConfig {
            horizon: SimTime::from_ticks(600),
            events_per_kilotick: 20.0,
            join_fraction: 0.4,
            graceful_fraction: 0.5,
        };
        for seed in [0u64, 1, 42, 0xDEAD] {
            let plan = ChurnPlan::generate(&cfg, &members, seed);
            let run = |()| {
                let mut sim = sim_with_corpus(5, seed);
                sim.enable_churn(&plan, StabilizationConfig::default(), &members)
                    .unwrap();
                sim.run_churn_to_quiescence();
                let st = sim.churn().unwrap();
                assert!(st.converged(), "seed {seed}: {:?}", st.stats());
                assert_eq!(st.consistency(), 1.0, "seed {seed}");
                // Quiescent convergence takes boundedly many rounds:
                // each round makes progress on every divergent vertex.
                assert!(
                    st.stats().stabilization_rounds <= 4 * (plan.events().len() as u64 + 2),
                    "seed {seed}: {} rounds for {} events",
                    st.stats().stabilization_rounds,
                    plan.events().len()
                );
                *st.stats()
            };
            assert_eq!(run(()), run(()), "seed {seed} not deterministic");
        }
    }

    proptest::proptest! {
        /// A fault-tolerant search keeps full recall across arbitrary
        /// generated churn plans: at every probe instant — mid-plan and
        /// at quiescence — it returns the full static result set. A
        /// vertex mid-handoff or awaiting repair stays silent, so the
        /// search retries into the landed table or fails over to the
        /// replica cube; it never takes a partial table for an answer.
        #[test]
        fn search_keeps_full_recall_across_churn_plans(seed in 0u64..24) {
            let members: Vec<u64> = (1..=6).collect();
            let cfg = ChurnConfig {
                horizon: SimTime::from_ticks(400),
                events_per_kilotick: 15.0,
                join_fraction: 0.3,
                graceful_fraction: 0.4,
            };
            let plan = ChurnPlan::generate(&cfg, &members, seed);
            let mut sim = sim_with_corpus(5, seed);
            sim.enable_churn(&plan, StabilizationConfig::default(), &members)
                .unwrap();
            for probe in [150u64, 400] {
                sim.run_churn_to(SimTime::from_ticks(probe));
                for (query, want) in [
                    ("a", vec![1u64, 2, 3, 4, 6, 8]),
                    ("b", vec![2, 3, 5, 8]),
                    ("x", vec![7]),
                ] {
                    proptest::prop_assert_eq!(
                        recall_ids(&mut sim, query), want,
                        "seed {} probe {} query {}: churn lost recall",
                        seed, probe, query
                    );
                }
            }
            sim.run_churn_to_quiescence();
            proptest::prop_assert!(sim.churn().unwrap().converged());
        }
    }

    #[test]
    fn search_concurrent_with_handoff_retries_and_keeps_recall() {
        // Start a handoff, then search *before* draining the network:
        // the mid-handoff vertex is silent, the coordinator retries, and
        // the retry lands after the batches install.
        let mut sim = sim_with_corpus(5, 7);
        let mut plan = ChurnPlan::default();
        plan.leave_at(SimTime::from_ticks(5), 1);
        let cfg = StabilizationConfig {
            batch_entries: 1,
            ..StabilizationConfig::default()
        };
        sim.enable_churn(&plan, cfg, &[1, 2, 3, 4]).unwrap();
        // Apply the leave (starts the streams) but drain nothing else.
        sim.run_churn_to(SimTime::from_ticks(5));
        assert!(
            !sim.churn().unwrap().converged(),
            "handoff should still be in flight"
        );
        assert_eq!(
            recall_ids(&mut sim, "a"),
            vec![1, 2, 3, 4, 6, 8],
            "recall lost mid-handoff"
        );
        // Draining the search also drained the handoff.
        assert!(sim.churn().unwrap().converged());
    }

    #[test]
    fn every_search_kind_shares_the_network_with_handoffs_in_flight() {
        // Host 1 leaves at 40 and is still streaming its tables when a
        // search starts at 41; host 2's leave is yet to come. Whatever
        // the search, the membership traffic it steps over is consumed
        // by the churn engine, not eaten.
        type Search = fn(&mut ProtocolSim, &KeywordSet) -> Vec<ObjectId>;
        fn ranked(out: crate::sim_protocol::SimSearchOutcome) -> Vec<ObjectId> {
            out.results.iter().map(|r| r.object).collect()
        }
        let searches: [(Search, &[u64]); 2] = [
            (
                |sim, q| ranked(sim.search_sequential(q, usize::MAX - 1).unwrap()),
                &[2, 3, 8],
            ),
            (
                |sim, q| ranked(sim.search_parallel(q, usize::MAX - 1).unwrap()),
                &[2, 3, 8],
            ),
        ];
        for (kind, (search, settled)) in searches.into_iter().enumerate() {
            let mut sim = sim_with_corpus(5, 7);
            let mut plan = ChurnPlan::default();
            plan.leave_at(SimTime::from_ticks(40), 1);
            plan.leave_at(SimTime::from_ticks(80), 2);
            let cfg = StabilizationConfig {
                batch_entries: 1,
                ..StabilizationConfig::default()
            };
            sim.enable_churn(&plan, cfg, &[1, 2, 3, 4]).unwrap();
            sim.run_churn_to(SimTime::from_ticks(41));

            // `F_h({a, b})` is one of the vertices mid-handoff: it is
            // silent, so the search returns what it collected — nothing
            // — once the network is quiescent.
            let query = set("a b");
            let home = sim.hasher.vertex_for(&query).bits();
            assert!(sim.churn_vertex_silent(home));
            assert_eq!(search(&mut sim, &query), vec![], "search kind {kind}");

            sim.run_churn_to_quiescence();
            let st = sim.churn().unwrap();
            assert!(st.converged(), "kind {kind}: {:?}", st.stats());
            assert_eq!(st.consistency(), 1.0, "kind {kind}");
            assert_eq!(st.stats().leaves, 2, "kind {kind}");
            assert!(st.stats().handoffs_completed >= st.stats().leaves);
            assert_eq!(recall_ids(&mut sim, "a"), vec![1, 2, 3, 4, 6, 8]);
            let mut got = search(&mut sim, &query);
            got.sort_unstable();
            let settled: Vec<ObjectId> = settled.iter().map(|&n| ObjectId::from_raw(n)).collect();
            assert_eq!(got, settled, "kind {kind}: the landed table answers");
        }
    }

    /// A top-down superset search racing a scheduled index handoff on
    /// its own SBT path keeps full recall, deterministically.
    #[test]
    fn search_racing_handoff_keeps_full_recall_and_reproduces() {
        assert_eq!(
            racing_handoff_transcript(),
            racing_handoff_transcript(),
            "fixed seed must reproduce byte-for-byte"
        );
    }

    /// Builds the simulation, schedules the owner of the query-path
    /// vertex holding object 2 (`{a, b}` ⊇ `{a}`) to leave at tick 5,
    /// advances to the leave so the handoff is in flight, and runs the
    /// search. Returns a byte-exact transcript of everything observable.
    fn racing_handoff_transcript() -> String {
        const SEED: u64 = 0xC0DE;
        const MEMBERS: &[u64] = &[11, 22, 33, 44, 55];
        let mut sim = sim_with_corpus(5, SEED);

        // The vertex of {a, b} lies in the induced subcube of query {a}:
        // its one-bits are a superset of the query's, so the top-down SBT
        // walk must visit it.
        let root = sim.hasher.vertex_for(&set("a"));
        let target = sim.hasher.vertex_for(&set("a b"));
        assert_eq!(
            target.bits() & root.bits(),
            root.bits(),
            "target must be on the query's SBT path"
        );

        // Find who owns that vertex and schedule their graceful departure.
        let cfg = StabilizationConfig {
            batch_entries: 1, // several batches → a real mid-flight window
            ..StabilizationConfig::default()
        };
        let mut probe = ChurnPlan::default();
        let mut scratch = ProtocolSim::new(5, SEED, LatencyModel::constant(1)).unwrap();
        scratch.enable_churn(&probe, cfg, MEMBERS).unwrap();
        let owner = scratch.churn().unwrap().view_owner(target.bits()).unwrap();
        probe.leave_at(SimTime::from_ticks(5), owner);
        sim.enable_churn(&probe, cfg, MEMBERS).unwrap();

        // Apply the leave; its handoff batches are now in flight and the
        // target vertex is silent.
        sim.run_churn_to(SimTime::from_ticks(5));
        assert!(
            sim.churn_vertex_silent(target.bits()),
            "the target vertex should be mid-handoff"
        );

        let out = sim
            .search_fault_tolerant(
                &set("a"),
                usize::MAX - 1,
                RecoveryStrategy::ReplicatedFailover,
            )
            .unwrap();
        // Full recall: every object whose keyword set contains `a`.
        let mut ids: Vec<u64> = out.results.iter().map(|r| r.object.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, vec![1, 2, 3, 4, 6, 8], "recall lost mid-handoff");

        // The search interleaved with (and completed) the handoff.
        let st = sim.churn().unwrap();
        assert!(st.converged(), "search drain should settle churn");
        assert!(st.stats().handoffs_completed > 0);

        format!(
            "ids={ids:?} coverage={:?} stats={:?} consistency={} now={:?}",
            out.coverage,
            st.stats(),
            st.consistency(),
            sim.network().now(),
        )
    }
}
