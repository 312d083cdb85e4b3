//! Message-level execution of the superset-search protocol.
//!
//! The figure sweeps use the *direct* engine in [`crate::search`] (exact
//! node/message counts, no event loop). This module runs the **same
//! protocol as actual messages** over `hyperdex-simnet`: every logical
//! hypercube node is an endpoint, `T_QUERY` / `T_CONT` / `T_STOP` /
//! result deliveries are messages with latency, and the measured
//! quantity the direct engine cannot give — **elapsed virtual time** —
//! falls out of the event clock. §3.5's claim that level-parallel
//! execution cuts time from `2^{r−|One|}` to `r − |One|` message delays
//! is validated here as an actual latency measurement.
//!
//! # Fault tolerance
//!
//! [`ProtocolSim::search_fault_tolerant`] runs the same traversal
//! against crashed vertices and lossy links (§3.4). The coordinator
//! tracks every outstanding child query with a network timer, retries
//! with exponential backoff up to a budget, and — under
//! [`RecoveryStrategy::Redelegate`] — routes around a dead child by
//! expanding its SBT children directly: by Lemma 3.2 a child's subtree
//! is computable from its bits and arrival dimension alone, so no state
//! from the dead node is needed. [`RecoveryStrategy::ReplicatedFailover`]
//! additionally sweeps the secondary hypercube (a second hash seed, as
//! in [`crate::replication`]) when any vertex stayed dead. Every search
//! returns a [`CoverageReport`] accounting exactly for reached and
//! skipped vertices, retries, timeouts, and messages by kind.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use hyperdex_simnet::latency::LatencyModel;
use hyperdex_simnet::net::{EndpointId, NetEvent, Network, TimerId};
use hyperdex_simnet::time::SimDuration;

use hyperdex_dht::ObjectId;
use hyperdex_hypercube::{Shape, Vertex};

use crate::churn::{ChurnMsg, ChurnTimer};
use crate::error::Error;
use crate::hashing::KeywordHasher;
use crate::keyword::KeywordSet;
use crate::protocol::{
    child_contacts, scan_store, FrontierLevels, FtCmd, FtCoordinator, FtCoverage, FtPolicy, Step,
    SupersetCoordinator,
};
use crate::search::RankedObject;
use crate::store::{PostingStore, StoreBackend};
use crate::summary::OccupancySummary;

/// Protocol messages (§3.3's `T_QUERY`, `T_CONT`, `T_STOP`, plus the
/// direct result deliveries to the requester).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KwMsg {
    /// Query forwarded to one tree node.
    TQuery {
        /// The queried keyword set `K` (interned: every hop shares one
        /// allocation instead of deep-cloning the set per message).
        keywords: Arc<KeywordSet>,
        /// Objects still wanted (`c` in the paper).
        remaining: usize,
        /// Endpoint collecting results (`u`).
        requester: EndpointId,
        /// The dimension via which this node was reached (`d`); `None`
        /// for the initial query to the root.
        via_dim: Option<u8>,
        /// The coordinating root endpoint (`v`).
        root: EndpointId,
    },
    /// Node → root: found `c1` objects, here are my children.
    TCont {
        /// Number of objects this node returned.
        found: usize,
        /// Child contacts `(vertex bits, dimension)`.
        children: Vec<(u64, u8)>,
    },
    /// Node → root: the threshold is satisfied; stop the search.
    TStop,
    /// Node → coordinator, fault-tolerant mode only: the continuation
    /// with results piggybacked, so a retransmitted query re-delivers
    /// them — a separately routed result message would be lost for good
    /// if dropped, even after the traversal recovered.
    TContFt {
        /// The matches found at this node.
        objects: Vec<RankedObject>,
        /// Child contacts `(vertex bits, dimension)`.
        children: Vec<(u64, u8)>,
    },
    /// Node → requester: matching objects.
    Results {
        /// The matches found at one node.
        objects: Vec<RankedObject>,
    },
    /// Membership traffic (handoff, repair, summary refresh), churn
    /// mode only; [`crate::churn`] consumes it before a search loop
    /// looks at the event.
    Churn(ChurnMsg),
    /// Requester → `F_h(K)`'s host: exact-match pin lookup (§3.2) —
    /// one message to the single vertex the full keyword set hashes to.
    Pin {
        /// The queried keyword set `K` (interned).
        keywords: Arc<KeywordSet>,
        /// Endpoint collecting results.
        requester: EndpointId,
    },
    /// Node → requester: the pin lookup's exact matches.
    PinResults {
        /// Objects indexed under exactly the queried set.
        objects: Vec<ObjectId>,
    },
}

pub use crate::protocol::RecoveryStrategy;

/// What a timer on a [`ProtocolSim`]'s network is for. Searches and
/// membership share one network, so the token is typed: no vertex's
/// bits can be mistaken for another layer's timer, at any `r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimTimer {
    /// A fault-tolerant search's retransmission timer for vertex
    /// `bits` ([`FtCmd::Send`]'s generation rides along).
    Ft {
        /// The vertex whose answer is awaited.
        bits: u64,
        /// The transmission the timer guards.
        generation: u64,
    },
    /// A membership timer; [`crate::churn`] consumes it.
    Churn(ChurnTimer),
}

/// Tuning for [`ProtocolSim::search_fault_tolerant`]: the shared
/// [`FtPolicy`] (timeouts in virtual ticks) plus the simulator's
/// pruning switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FtConfig {
    /// Strategy, retry budget and base timeout.
    pub policy: FtPolicy,
    /// Whether occupancy summaries may prune provably-empty SBT
    /// subtrees before enqueuing them (recall-safe; see
    /// [`crate::summary`]). Off by default.
    pub prune: bool,
}

impl FtConfig {
    /// A sensible default for the given strategy: 4 retries, 16-tick
    /// base timeout, pruning off.
    pub fn new(strategy: RecoveryStrategy) -> Self {
        FtConfig {
            policy: FtPolicy {
                strategy,
                max_retries: 4,
                base_timeout: 16,
            },
            prune: false,
        }
    }

    /// Overrides the retry budget.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.policy.max_retries = n;
        self
    }

    /// Enables or disables occupancy-guided subtree pruning.
    pub fn prune(mut self, on: bool) -> Self {
        self.prune = on;
        self
    }
}

/// Exact coordinator-side accounting for one fault-tolerant search:
/// the shared [`FtCoverage`] plus what only the simulator has —
/// pruning, the secondary-cube sweep, virtual time.
///
/// At quiescence every vertex of the query's induced subcube is either
/// *reached* (it answered), *skipped* (declared dead, or unreachable
/// behind a dead ancestor), *pruned*, or unvisited because the result
/// threshold stopped the traversal early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageReport {
    /// The primary cube's vertex accounting (`subcube_vertices`,
    /// `reached`, `skipped`), with the message and recovery counters of
    /// both sweeps.
    pub ft: FtCoverage,
    /// SBT subtrees never enqueued because an occupancy summary
    /// disproved them (pruning mode only; 0 otherwise).
    pub pruned_subtrees: u64,
    /// Total vertices inside those pruned subtrees (each counts
    /// `2^{free dims below the arrival dimension}`).
    pub vertices_pruned: u64,
    /// Whether the secondary hypercube was swept.
    pub failed_over: bool,
    /// Vertices reached in the secondary sweep (0 without failover).
    pub secondary_reached: u64,
    /// Vertices skipped in the secondary sweep (0 without failover).
    pub secondary_skipped: u64,
    /// Virtual time from first send to last event.
    pub elapsed: SimDuration,
}

/// Outcome of [`ProtocolSim::search_fault_tolerant`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FtSearchOutcome {
    /// Deduplicated results in arrival order at the requester.
    pub results: Vec<RankedObject>,
    /// Exact traversal accounting.
    pub coverage: CoverageReport,
}

/// Outcome of a message-level search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimSearchOutcome {
    /// Results in arrival order at the requester.
    pub results: Vec<RankedObject>,
    /// Distinct hypercube nodes that processed a `T_QUERY`.
    pub nodes_contacted: u64,
    /// Total messages the network carried.
    pub messages: u64,
    /// Virtual time from first send to last delivery.
    pub elapsed: hyperdex_simnet::time::SimDuration,
    /// SBT subtrees skipped by occupancy-guided pruning (0 unless
    /// [`ProtocolSim::set_pruning`] enabled it).
    pub pruned_subtrees: u64,
}

/// Outcome of a message-level pin search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimPinOutcome {
    /// Objects indexed under exactly the queried set, in arrival order.
    pub results: Vec<ObjectId>,
    /// Total messages the network carried (request + reply).
    pub messages: u64,
    /// Virtual time from send to the reply's delivery.
    pub elapsed: hyperdex_simnet::time::SimDuration,
}

/// Root-side coordinator state for one sequential search: the shared
/// [`SupersetCoordinator`] state machine plus the sim-only bookkeeping
/// (the query payload, who gets the results, what pruning skipped).
#[derive(Debug)]
struct Coordinator {
    /// The transport-agnostic traversal machine — the same one the
    /// direct engine and the threaded runtime execute.
    core: SupersetCoordinator,
    keywords: Arc<KeywordSet>,
    requester: EndpointId,
    /// Subtrees the coordinator pruned instead of querying.
    pruned: u64,
}

/// A logical hypercube whose nodes exchange real protocol messages.
///
/// # Example
///
/// ```
/// use hyperdex_core::sim_protocol::ProtocolSim;
/// use hyperdex_core::{KeywordSet, ObjectId};
/// use hyperdex_simnet::latency::LatencyModel;
///
/// let mut sim = ProtocolSim::new(6, 0, LatencyModel::constant(1))?;
/// sim.insert(ObjectId::from_raw(1), KeywordSet::parse("a b")?)?;
/// let out = sim.search_sequential(&KeywordSet::parse("a")?, 10)?;
/// assert_eq!(out.results.len(), 1);
/// # Ok::<(), hyperdex_core::Error>(())
/// ```
#[derive(Debug)]
pub struct ProtocolSim {
    pub(crate) net: Network<KwMsg, SimTimer>,
    pub(crate) shape: Shape,
    pub(crate) hasher: KeywordHasher,
    /// Primary index tables, keyed by vertex bits. Sparse and
    /// deterministic: only occupied vertices cost memory, and
    /// iteration order is ascending bits (churn repair depends on it).
    pub(crate) tables: BTreeMap<u64, PostingStore>,
    /// Secondary-cube hasher (different seed, same dimension).
    pub(crate) hasher2: KeywordHasher,
    /// Secondary index tables, co-hosted on the same endpoints.
    pub(crate) tables2: BTreeMap<u64, PostingStore>,
    /// Endpoint of vertex `bits`, materialized lazily on first
    /// contact — a cube at `r = 48` costs endpoints only for the
    /// vertices a workload actually touches.
    pub(crate) eps: BTreeMap<u64, EndpointId>,
    /// Reverse map: which vertex an endpoint hosts.
    pub(crate) ep_vertex: HashMap<EndpointId, u64>,
    pub(crate) requester: EndpointId,
    /// One canonical `Arc` per distinct keyword set, shared by both
    /// cubes' tables and by query messages.
    pub(crate) interner: crate::intern::KeywordInterner,
    /// The sequential coordinator's frontier queue `U`, reused across
    /// searches (the machine clears it; only capacity carries over).
    frontier: VecDeque<(u64, u8)>,
    /// The seed this simulation was built with (churn derives its ring
    /// placement from it).
    pub(crate) seed: u64,
    /// Occupancy summary of the primary cube (maintained at inserts;
    /// refreshed by `T_SUMMARY` deltas under churn).
    pub(crate) summary: OccupancySummary,
    /// Occupancy summary of the secondary cube.
    pub(crate) summary2: OccupancySummary,
    /// Whether sequential/parallel searches consult the summaries.
    pub(crate) prune: bool,
    /// Live-membership state, present once [`ProtocolSim::enable_churn`]
    /// has been called (boxed: it is large and usually absent).
    pub(crate) churn: Option<Box<crate::churn::ChurnState>>,
}

impl ProtocolSim {
    /// Creates a hypercube of dimension `r`. Vertex endpoints and
    /// index tables are materialized lazily, so construction is O(1)
    /// and memory stays proportional to the vertices actually touched
    /// — `r = 48` is as cheap to build as `r = 6`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Dimension`] unless `1 ≤ r ≤ 63`.
    pub fn new(r: u8, seed: u64, latency: LatencyModel) -> Result<Self, Error> {
        let hasher = KeywordHasher::new(r, seed)?;
        let shape = hasher.shape();
        let hasher2 = KeywordHasher::new(r, seed ^ crate::replication::SECONDARY_SEED_OFFSET)?;
        let mut net = Network::new(latency, seed ^ 0x51AE);
        let requester = net.add_endpoint();
        Ok(ProtocolSim {
            net,
            shape,
            hasher,
            tables: BTreeMap::new(),
            hasher2,
            tables2: BTreeMap::new(),
            eps: BTreeMap::new(),
            ep_vertex: HashMap::new(),
            requester,
            interner: crate::intern::KeywordInterner::new(),
            frontier: VecDeque::new(),
            seed,
            summary: OccupancySummary::new(r),
            summary2: OccupancySummary::new(r),
            prune: false,
            churn: None,
        })
    }

    /// [`ProtocolSim::new`]. Shim: `benchmark/` names the (only)
    /// posting backend here; remove with [`StoreBackend`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Dimension`] unless `1 ≤ r ≤ 63`.
    pub fn with_store(
        r: u8,
        seed: u64,
        latency: LatencyModel,
        _store: StoreBackend,
    ) -> Result<Self, Error> {
        Self::new(r, seed, latency)
    }

    /// Enables or disables occupancy-guided pruning for
    /// [`ProtocolSim::search_sequential`] and
    /// [`ProtocolSim::search_parallel`] (fault-tolerant searches opt in
    /// per call via [`FtConfig::prune`]). Off by default; pruning is
    /// recall-safe.
    pub fn set_pruning(&mut self, on: bool) {
        self.prune = on;
    }

    /// The primary cube's occupancy summary.
    pub fn summary(&self) -> &OccupancySummary {
        &self.summary
    }

    /// The hypercube shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Indexes an object at `F_h(keywords)` (local table write; the
    /// DOLR routing cost of inserts is covered by `hyperdex-dht`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyKeywordSet`] for an empty set.
    pub fn insert(&mut self, object: ObjectId, keywords: KeywordSet) -> Result<(), Error> {
        if keywords.is_empty() {
            return Err(Error::EmptyKeywordSet);
        }
        // Intern: re-inserting a known set (or another object with the
        // same popular set) reuses one Arc across both cubes instead of
        // minting a fresh allocation per call.
        let keywords = self.interner.intern(keywords);
        let vertex = self.hasher.vertex_for(&keywords);
        let vertex2 = self.hasher2.vertex_for(&keywords);
        if self
            .tables
            .entry(vertex.bits())
            .or_default()
            .insert_arc(Arc::clone(&keywords), object)
        {
            self.summary.record_insert(vertex.bits());
        }
        if self
            .tables2
            .entry(vertex2.bits())
            .or_default()
            .insert_arc(keywords, object)
        {
            self.summary2.record_insert(vertex2.bits());
        }
        // Churn's sparse ownership sweep only visits tracked vertices,
        // so a vertex gaining its first postings must join the view.
        if let Some(st) = self.churn.as_deref_mut() {
            st.track_vertex(vertex.bits());
        }
        Ok(())
    }

    /// Runs the paper's sequential top-down protocol as messages.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroThreshold`] when `threshold == 0`.
    pub fn search_sequential(
        &mut self,
        keywords: &KeywordSet,
        threshold: usize,
    ) -> Result<SimSearchOutcome, Error> {
        if threshold == 0 {
            return Err(Error::ZeroThreshold);
        }
        let root_vertex = self.hasher.vertex_for(keywords);
        let root_ep = self.endpoint_of(root_vertex.bits());
        let start = self.net.now();
        let sent_before = self.net.metrics().messages_sent.get();

        // Interned: repeated queries for the same set share one Arc,
        // and every later hop of this search shares it too.
        let shared_kw = self.interner.intern(keywords.clone());
        self.net.send(
            self.requester,
            root_ep,
            KwMsg::TQuery {
                keywords: shared_kw,
                remaining: threshold,
                requester: self.requester,
                via_dim: None,
                root: root_ep,
            },
        );

        let mut coordinator: Option<Coordinator> = None;
        let mut results = Vec::new();
        let mut contacted = 0u64;
        let mut last_at = start;

        while let Some(d) = self.net.step() {
            last_at = d.at;
            let to = d.to;
            match d.payload {
                KwMsg::TQuery {
                    keywords,
                    remaining,
                    requester,
                    via_dim,
                    root,
                } => {
                    contacted += 1;
                    let vertex = self.vertex_of(to);
                    let found = self.scan_and_reply(vertex, &keywords, remaining, requester);
                    if to == root {
                        // The root doubles as coordinator. Its frontier
                        // queue is the sim's reused buffer.
                        let frontier = std::mem::take(&mut self.frontier);
                        let mut core = SupersetCoordinator::with_queue(vertex, remaining, frontier);
                        // Consume the machine's root step — this arm IS
                        // that visit — and fold the local scan in.
                        let _root = core.next_step();
                        core.record_visit(found, child_contacts(vertex, None));
                        let mut coord = Coordinator {
                            core,
                            keywords,
                            requester,
                            pruned: 0,
                        };
                        self.advance(&mut coord, root);
                        coordinator = Some(coord);
                    } else {
                        // Ordinary node: report back to the root.
                        let dim = via_dim.expect("non-root nodes are reached via a dimension");
                        if found >= remaining {
                            self.net.send(to, root, KwMsg::TStop);
                        } else {
                            let children = child_contacts(vertex, Some(dim)).collect();
                            self.net.send(to, root, KwMsg::TCont { found, children });
                        }
                    }
                }
                KwMsg::TCont { found, children } => {
                    let coord = coordinator.as_mut().expect("TCont implies a coordinator");
                    coord.core.record_visit(found, children);
                    self.advance(coord, to);
                }
                KwMsg::TStop => {
                    if let Some(coord) = coordinator.as_mut() {
                        coord.core.stop();
                    }
                }
                KwMsg::Results { objects } => {
                    debug_assert_eq!(to, self.requester);
                    results.extend(objects);
                }
                // Fault-tolerant-/churn-/pin-mode messages; never sent
                // by this path (churned networks search via
                // `search_fault_tolerant`).
                KwMsg::TContFt { .. }
                | KwMsg::Churn(_)
                | KwMsg::Pin { .. }
                | KwMsg::PinResults { .. } => {}
            }
        }

        // Reclaim the frontier buffer for the next search.
        let pruned_subtrees = match coordinator {
            Some(c) => {
                self.frontier = c.core.into_queue();
                c.pruned
            }
            None => 0,
        };
        results.truncate(threshold);
        Ok(SimSearchOutcome {
            results,
            nodes_contacted: contacted,
            messages: self.net.metrics().messages_sent.get() - sent_before,
            elapsed: last_at.saturating_since(start),
            pruned_subtrees,
        })
    }

    /// Runs the paper's pin search (§3.2) as messages: one `Pin` to the
    /// vertex the full keyword set hashes to, one `PinResults` back.
    pub fn pin_search(&mut self, keywords: &KeywordSet) -> SimPinOutcome {
        let vertex = self.hasher.vertex_for(keywords);
        let ep = self.endpoint_of(vertex.bits());
        let start = self.net.now();
        let sent_before = self.net.metrics().messages_sent.get();
        let shared_kw = self.interner.intern(keywords.clone());
        self.net.send(
            self.requester,
            ep,
            KwMsg::Pin {
                keywords: shared_kw,
                requester: self.requester,
            },
        );

        let mut results = Vec::new();
        let mut last_at = start;
        while let Some(d) = self.net.step() {
            last_at = d.at;
            let to = d.to;
            match d.payload {
                KwMsg::Pin {
                    keywords,
                    requester,
                } => {
                    let vertex = self.vertex_of(to);
                    let objects: Vec<ObjectId> = self
                        .tables
                        .get(&vertex.bits())
                        .map(|t| t.objects_with(&keywords).collect())
                        .unwrap_or_default();
                    self.net.send(to, requester, KwMsg::PinResults { objects });
                }
                KwMsg::PinResults { objects } => {
                    debug_assert_eq!(to, self.requester);
                    results.extend(objects);
                }
                // Traversal/churn messages cannot appear: every search
                // drains the network before returning.
                KwMsg::TQuery { .. }
                | KwMsg::TCont { .. }
                | KwMsg::TStop
                | KwMsg::TContFt { .. }
                | KwMsg::Results { .. }
                | KwMsg::Churn(_) => {}
            }
        }

        SimPinOutcome {
            results,
            messages: self.net.metrics().messages_sent.get() - sent_before,
            elapsed: last_at.saturating_since(start),
        }
    }

    /// Runs the §3.5 level-parallel variant as messages: the root
    /// queries whole SBT levels in rounds.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroThreshold`] when `threshold == 0`.
    pub fn search_parallel(
        &mut self,
        keywords: &KeywordSet,
        threshold: usize,
    ) -> Result<SimSearchOutcome, Error> {
        if threshold == 0 {
            return Err(Error::ZeroThreshold);
        }
        let root_vertex = self.hasher.vertex_for(keywords);
        let root_ep = self.endpoint_of(root_vertex.bits());
        let start = self.net.now();
        let sent_before = self.net.metrics().messages_sent.get();

        // Interned: every per-node query (and repeat searches for the
        // same set) share one allocation.
        let shared_kw = self.interner.intern(keywords.clone());
        // With pruning on, whole levels shrink to the vertices whose
        // subtree the occupancy summary cannot disprove. Either way the
        // frontier streams one level at a time — an early threshold
        // exit never enumerates the deeper levels at all.
        let mut levels = FrontierLevels::new(&self.summary, root_vertex, self.prune, false);

        let mut results = Vec::new();
        let mut contacted = 0u64;
        let mut last_at = start;
        let mut satisfied = 0usize;
        let mut depth = 0usize;

        while let Some(level) = levels.next_level(&self.summary) {
            // The root addresses every level-d node directly (any node
            // is reachable through the underlying DHT).
            for w in &level {
                let from = if depth == 0 { self.requester } else { root_ep };
                let to = self.endpoint_of(w.bits());
                self.net.send(
                    from,
                    to,
                    KwMsg::TQuery {
                        keywords: Arc::clone(&shared_kw),
                        remaining: threshold - satisfied.min(threshold),
                        requester: self.requester,
                        via_dim: None,
                        root: root_ep,
                    },
                );
            }
            // Synchronize the round: deliver everything in flight.
            while let Some(d) = self.net.step() {
                last_at = d.at;
                match d.payload {
                    KwMsg::TQuery {
                        keywords,
                        remaining,
                        requester,
                        ..
                    } => {
                        contacted += 1;
                        let vertex = self.vertex_of(d.to);
                        self.scan_and_reply(vertex, &keywords, remaining, requester);
                    }
                    KwMsg::Results { objects } => {
                        satisfied += objects.len();
                        results.extend(objects);
                    }
                    KwMsg::TCont { .. }
                    | KwMsg::TStop
                    | KwMsg::TContFt { .. }
                    | KwMsg::Churn(_)
                    | KwMsg::Pin { .. }
                    | KwMsg::PinResults { .. } => {}
                }
            }
            if satisfied >= threshold {
                break;
            }
            depth += 1;
        }

        results.truncate(threshold);
        Ok(SimSearchOutcome {
            results,
            nodes_contacted: contacted,
            messages: self.net.metrics().messages_sent.get() - sent_before,
            elapsed: last_at.saturating_since(start),
            // The whole-tree count, even after an early exit.
            pruned_subtrees: levels.drain(&self.summary),
        })
    }

    /// Runs the fault-tolerant superset search (§3.4).
    ///
    /// The traversal is an eager SBT walk: the coordinator (the query
    /// root, or the requester if the root is dead) tracks every
    /// outstanding child query with a network timer, retransmits with
    /// exponential backoff up to `config.max_retries`, and applies
    /// `config.strategy` once a child's budget is exhausted. The event
    /// loop drains the network to quiescence, so the search terminates
    /// even when every vertex is dead — losses show up as skipped
    /// vertices in the [`CoverageReport`], never as a hang.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroThreshold`] when `threshold == 0`, and
    /// [`Error::ZeroTimeout`] when the strategy needs timers but
    /// `config.base_timeout` is zero.
    pub fn search_fault_tolerant(
        &mut self,
        keywords: &KeywordSet,
        threshold: usize,
        config: FtConfig,
    ) -> Result<FtSearchOutcome, Error> {
        if threshold == 0 {
            return Err(Error::ZeroThreshold);
        }
        let policy = config.policy;
        if policy.strategy != RecoveryStrategy::Naive && policy.base_timeout == 0 {
            return Err(Error::ZeroTimeout);
        }
        let start = self.net.now();
        // Interned: every (re)transmission of both sweeps shares it.
        let kw = self.interner.intern(keywords.clone());
        let mut core = FtCoordinator::new(self.hasher.vertex_for(&kw), kw, threshold, policy);
        let (ft, pruned) = self.run_ft_pass(&mut core, config.prune, false);
        let mut report = CoverageReport {
            ft,
            pruned_subtrees: pruned.subtrees,
            vertices_pruned: pruned.vertices,
            failed_over: false,
            secondary_reached: 0,
            secondary_skipped: 0,
            elapsed: SimDuration::ZERO,
        };
        if policy.strategy == RecoveryStrategy::ReplicatedFailover && !report.ft.skipped.is_empty()
        {
            // Objects homed on the skipped vertices are lost to the
            // primary sweep; recover them from the secondary cube. The
            // sweep itself recovers via re-delegation (no third cube to
            // fail over to).
            report.failed_over = true;
            self.net.metrics_mut().failovers.incr();
            core = core.sweep_again(
                self.hasher2.vertex_for(keywords),
                FtPolicy {
                    strategy: RecoveryStrategy::Redelegate,
                    ..policy
                },
            );
            let (sec, pruned) = self.run_ft_pass(&mut core, config.prune, true);
            report.ft.add_traffic(&sec);
            report.secondary_reached = sec.reached;
            report.secondary_skipped = sec.skipped.len() as u64;
            report.pruned_subtrees += pruned.subtrees;
            report.vertices_pruned += pruned.vertices;
        }
        report.elapsed = self.net.now().saturating_since(start);
        Ok(FtSearchOutcome {
            results: core.into_results(),
            coverage: report,
        })
    }

    /// One coordinator-driven sweep over the primary or secondary cube.
    ///
    /// Everything but I/O — retry budgets, backoff, stale timers,
    /// subtree re-delegation, result collection, coverage accounting —
    /// lives in the shared sans-I/O [`FtCoordinator`]; this method is
    /// only the simnet substrate: it turns [`FtCmd`]s into messages and
    /// virtual-time timers, scans vertices, and feeds deliveries and
    /// expirations back into the machine. The threaded runtime drives
    /// the *same* machine over wire frames and wall-clock deadlines.
    fn run_ft_pass(
        &mut self,
        core: &mut FtCoordinator<RankedObject>,
        prune: bool,
        secondary: bool,
    ) -> (FtCoverage, Pruned) {
        let root_vertex = core.root();
        let root_ep = self.endpoint_of(root_vertex.bits());
        let prune = prune.then(|| FtPrune {
            required: root_vertex.bits(),
            zero_mask: root_vertex.zero_positions().fold(0u64, |m, i| m | 1 << i),
            secondary,
        });
        let mut pruned = Pruned::default();
        // Coordinator endpoint: the root, until a dead root promotes
        // the requester (`FtCmd::Promote`).
        let mut coord = root_ep;
        // Armed retransmission timers by vertex bits, kept only to
        // disarm them: a timer left to fire into the machine's no-op
        // would still advance the clock `elapsed` is read from.
        let mut timers: HashMap<u64, TimerId> = HashMap::new();
        let mut cmds = Vec::new();

        core.start(&mut cmds);
        self.ft_exec(core, &mut cmds, &mut coord, &mut timers);

        while let Some(ev) = self.net.step_event() {
            // Churn traffic (membership timers, handoff batches, repair
            // pushes) interleaves with the search on the same network;
            // it is consumed here.
            let Some(ev) = self.churn_intercept(ev) else {
                continue;
            };
            match ev {
                NetEvent::Delivery(d) => {
                    let (to, from) = (d.to, d.from);
                    match d.payload {
                        KwMsg::TQuery {
                            keywords: qkw,
                            remaining: rem,
                            via_dim,
                            root,
                            ..
                        } => {
                            let vertex = self.vertex_of(to);
                            if self.churn_vertex_silent(vertex.bits()) {
                                // Mid-handoff or crashed-unreassigned:
                                // the vertex stays silent, so the
                                // coordinator's timer makes it a
                                // retriable target — a later retry can
                                // succeed once the handoff lands.
                                continue;
                            }
                            if to == coord && via_dim.is_none() {
                                // The root doubles as coordinator: it
                                // scans locally, no self-messages.
                                let bits = vertex.bits();
                                if core.is_covered(bits) {
                                    continue; // duplicate of a retried query
                                }
                                let objects = self.scan(vertex, &qkw, rem, secondary);
                                let children: Vec<_> = child_contacts(vertex, None).collect();
                                core.on_scan(
                                    bits,
                                    objects.into_iter().map(|o| (o.object, o)),
                                    &children,
                                    |b, dim| self.ft_try_prune(prune, &mut pruned, b, dim),
                                    &mut cmds,
                                );
                                self.ft_exec(core, &mut cmds, &mut coord, &mut timers);
                            } else {
                                // Ordinary node: continuation back to
                                // the coordinator named in the query,
                                // results piggybacked so retransmitted
                                // queries re-deliver them.
                                let objects = self.scan(vertex, &qkw, rem, secondary);
                                let children = child_contacts(vertex, via_dim).collect();
                                if root != to {
                                    self.net
                                        .send(to, root, KwMsg::TContFt { objects, children });
                                }
                            }
                        }
                        KwMsg::TContFt { objects, children } => {
                            if to != coord {
                                continue; // stale coordinator address
                            }
                            core.on_reply(
                                self.vertex_of(from).bits(),
                                objects.into_iter().map(|o| (o.object, o)),
                                &children,
                                |b, dim| self.ft_try_prune(prune, &mut pruned, b, dim),
                                &mut cmds,
                            );
                            self.ft_exec(core, &mut cmds, &mut coord, &mut timers);
                        }
                        // Legacy sequential/parallel variants cannot
                        // appear mid-pass (every search drains the
                        // network first); ignore them defensively.
                        // Churn messages were consumed by the intercept
                        // above.
                        KwMsg::TCont { .. }
                        | KwMsg::TStop
                        | KwMsg::Results { .. }
                        | KwMsg::Churn(_)
                        | KwMsg::Pin { .. }
                        | KwMsg::PinResults { .. } => {}
                    }
                }
                NetEvent::Timer(t) => {
                    let SimTimer::Ft { bits, generation } = t.token else {
                        continue; // a churn timer, with churn disabled
                    };
                    core.on_timeout(
                        bits,
                        generation,
                        |b, dim| self.ft_try_prune(prune, &mut pruned, b, dim),
                        &mut cmds,
                    );
                    self.ft_exec(core, &mut cmds, &mut coord, &mut timers);
                }
            }
        }

        // Quiescence: the machine accounts queries still outstanding
        // (no timers were armed, or the coordinator died) as skipped
        // subtrees; the network's recovery counters take its tallies.
        let coverage = core.finish();
        let metrics = self.net.metrics_mut();
        metrics.retries.add(coverage.retries);
        metrics.timeouts.add(coverage.timeouts);
        metrics.redelegations.add(coverage.redelegations);
        (coverage, pruned)
    }

    /// Executes the machine's pending commands over simnet transport:
    /// `Send` becomes a `T_QUERY` (plus a virtual-time timer when
    /// armed), `Cancel` disarms, `Promote` redirects the coordinator to
    /// the requester.
    fn ft_exec(
        &mut self,
        core: &FtCoordinator<RankedObject>,
        cmds: &mut Vec<FtCmd>,
        coord: &mut EndpointId,
        timers: &mut HashMap<u64, TimerId>,
    ) {
        for cmd in cmds.drain(..) {
            match cmd {
                FtCmd::Promote => *coord = self.requester,
                FtCmd::Cancel { bits } => {
                    if let Some(t) = timers.remove(&bits) {
                        self.net.cancel_timer(t);
                    }
                }
                FtCmd::Send {
                    bits,
                    via_dim,
                    attempt: _,
                    timeout,
                    generation,
                } => {
                    // The requester owns the root query and its retries
                    // (the root itself may be dead); the coordinator
                    // owns every child query.
                    let owner = if via_dim.is_none() {
                        self.requester
                    } else {
                        *coord
                    };
                    let to = self.endpoint_of(bits);
                    self.net.send(
                        owner,
                        to,
                        KwMsg::TQuery {
                            keywords: Arc::clone(core.keywords()),
                            remaining: core.remaining(),
                            requester: self.requester,
                            via_dim,
                            root: *coord,
                        },
                    );
                    if let Some(ticks) = timeout {
                        let timer = self.net.set_timer(
                            owner,
                            SimDuration::from_ticks(ticks),
                            SimTimer::Ft { bits, generation },
                        );
                        timers.insert(bits, timer);
                    }
                }
            }
        }
    }

    /// Prune filter handed to the shared machine: consults the
    /// occupancy summary of the swept cube and accounts what it
    /// disproves.
    fn ft_try_prune(
        &self,
        prune: Option<FtPrune>,
        pruned: &mut Pruned,
        bits: u64,
        dim: u8,
    ) -> bool {
        let Some(p) = prune else {
            return false;
        };
        let summary = if p.secondary {
            &self.summary2
        } else {
            &self.summary
        };
        if summary.can_prune(bits, dim, p.required) {
            pruned.subtrees += 1;
            // The child's subtree spans the free dims strictly below
            // its arrival dimension.
            let free_below = (p.zero_mask & ((1u64 << dim) - 1)).count_ones();
            pruned.vertices += 1u64 << free_below;
            true
        } else {
            false
        }
    }

    /// Scans a vertex's table (primary or secondary) for supersets of
    /// `keywords`, returning at most `remaining` matches.
    fn scan(
        &self,
        vertex: Vertex,
        keywords: &KeywordSet,
        remaining: usize,
        secondary: bool,
    ) -> Vec<RankedObject> {
        let tables = if secondary {
            &self.tables2
        } else {
            &self.tables
        };
        // Unmaterialized vertex: logically contacted, holds nothing
        // (`scan_store` treats `None` exactly that way).
        let mut found = Vec::new();
        scan_store(
            tables.get(&vertex.bits()),
            keywords,
            keywords.signature(),
            remaining,
            &mut found,
        );
        found
    }

    /// Scans a vertex's primary table, sends matches to the requester,
    /// and returns how many were sent.
    fn scan_and_reply(
        &mut self,
        vertex: Vertex,
        keywords: &KeywordSet,
        remaining: usize,
        requester: EndpointId,
    ) -> usize {
        let found = self.scan(vertex, keywords, remaining, false);
        let count = found.len();
        if count > 0 {
            let from = self.endpoint_of(vertex.bits());
            self.net
                .send(from, requester, KwMsg::Results { objects: found });
        }
        count
    }

    /// Pops the coordinator's next frontier node and queries it, or
    /// marks the search done.
    fn advance(&mut self, coord: &mut Coordinator, root_ep: EndpointId) {
        // With pruning on, provably-empty frontier entries are consumed
        // (and counted) without sending anything; the coordinator
        // carries `One(F_h(K))` explicitly.
        loop {
            match coord.core.next_step() {
                Step::Finished => return,
                Step::Visit { bits, via_dim } => {
                    let dim = via_dim.expect("the root visit was consumed at creation");
                    if self.prune && self.summary.can_prune(bits, dim, coord.core.root_bits()) {
                        coord.pruned += 1;
                        continue;
                    }
                    let to = self.endpoint_of(bits);
                    self.net.send(
                        root_ep,
                        to,
                        KwMsg::TQuery {
                            keywords: Arc::clone(&coord.keywords),
                            remaining: coord.core.remaining(),
                            requester: coord.requester,
                            via_dim: Some(dim),
                            root: root_ep,
                        },
                    );
                    return;
                }
            }
        }
    }

    fn vertex_of(&self, ep: EndpointId) -> Vertex {
        let bits = *self
            .ep_vertex
            .get(&ep)
            .expect("queries target vertex endpoints");
        Vertex::from_bits(self.shape, bits).expect("mapped bits are valid vertices")
    }

    /// Read access to the underlying network (metrics, faults).
    pub fn network(&self) -> &Network<KwMsg, SimTimer> {
        &self.net
    }

    /// Mutable access to the underlying network, for fault injection
    /// (kills, outages, link loss) in tests and experiments.
    pub fn network_mut(&mut self) -> &mut Network<KwMsg, SimTimer> {
        &mut self.net
    }

    /// The vertex a query hashes to (the traversal root), in the
    /// primary cube.
    pub fn query_root(&self, keywords: &KeywordSet) -> Vertex {
        self.hasher.vertex_for(keywords)
    }

    /// The endpoint hosting vertex `bits`, materializing it lazily on
    /// first contact.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside the cube.
    pub fn endpoint_of(&mut self, bits: u64) -> EndpointId {
        assert!(
            self.shape.check_bits(bits).is_ok(),
            "vertex {bits:#x} outside H_{}",
            self.shape.r()
        );
        if let Some(&ep) = self.eps.get(&bits) {
            return ep;
        }
        let ep = self.net.add_endpoint();
        self.eps.insert(bits, ep);
        self.ep_vertex.insert(ep, bits);
        ep
    }

    /// How many vertices have materialized state (an endpoint or an
    /// index table in either cube) — the sparse-storage footprint.
    pub fn materialized_vertices(&self) -> usize {
        // Endpoints are a superset of table-bearing vertices only after
        // they have been contacted; count the union explicitly.
        let mut bits: BTreeSet<u64> = self.eps.keys().copied().collect();
        bits.extend(self.tables.keys());
        bits.extend(self.tables2.keys());
        bits.len()
    }
}

/// What one pass's occupancy pruning left out — the one tally the
/// simnet substrate owns, since pruning is its filter.
#[derive(Debug, Default)]
struct Pruned {
    subtrees: u64,
    vertices: u64,
}

/// Pass-constant pruning context for the fault-tolerant traversal.
#[derive(Debug, Clone, Copy)]
struct FtPrune {
    /// `One(F_h(K))`: the keyword positions every match must cover.
    required: u64,
    /// Mask of the query root's free dimensions (subtree sizing).
    zero_mask: u64,
    /// Whether this pass sweeps the secondary cube.
    secondary: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::HypercubeIndex;
    use crate::fixtures::{oid, set, CORPUS};
    use crate::search::SupersetQuery;

    /// Builds both the direct index and the protocol sim with identical
    /// content.
    fn twin(r: u8, objects: &[(u64, &str)]) -> (HypercubeIndex, ProtocolSim) {
        let mut direct = HypercubeIndex::new(r, 0).unwrap();
        let mut sim = ProtocolSim::new(r, 0, LatencyModel::constant(1)).unwrap();
        for &(id, kws) in objects {
            direct.insert(oid(id), set(kws)).unwrap();
            sim.insert(oid(id), set(kws)).unwrap();
        }
        (direct, sim)
    }

    #[test]
    fn sequential_matches_direct_engine() {
        let (mut direct, mut sim) = twin(8, CORPUS);
        for query in ["a", "a b", "b", "x", "zzz"] {
            let d = direct
                .superset_search(&SupersetQuery::new(set(query)).use_cache(false))
                .unwrap();
            let s = sim.search_sequential(&set(query), usize::MAX - 1).unwrap();
            assert_eq!(ids(&d.results), ids(&s.results), "query {query}");
            assert_eq!(
                d.stats.nodes_contacted, s.nodes_contacted,
                "node parity for {query}"
            );
        }
    }

    #[test]
    fn pin_matches_direct_engine() {
        let (direct, mut sim) = twin(8, CORPUS);
        for query in ["a", "a b", "a b c", "x y", "zzz"] {
            let d = direct.pin_search(&set(query));
            let s = sim.pin_search(&set(query));
            let mut d_ids = d.results.clone();
            let mut s_ids = s.results.clone();
            d_ids.sort_unstable();
            s_ids.sort_unstable();
            assert_eq!(d_ids, s_ids, "pin parity for {query}");
            // Exactly one request and one reply — the reply is sent
            // even when empty, so the requester observes completion.
            assert_eq!(s.messages, 2, "message count for {query}");
        }
    }

    #[test]
    fn parallel_matches_sequential_results() {
        let (_, mut sim) = twin(8, CORPUS);
        let seq = sim.search_sequential(&set("a"), 100).unwrap();
        let par = sim.search_parallel(&set("a"), 100).unwrap();
        assert_eq!(ids(&seq.results), ids(&par.results));
    }

    #[test]
    fn parallel_is_faster_sequential_cheaper_in_messages() {
        // A query whose subcube is big enough to show the asymmetry.
        let (_, mut sim) = twin(10, CORPUS);
        let seq = sim.search_sequential(&set("a"), usize::MAX - 1).unwrap();
        let par = sim.search_parallel(&set("a"), usize::MAX - 1).unwrap();
        assert!(
            par.elapsed < seq.elapsed,
            "parallel {} vs sequential {} ticks",
            par.elapsed,
            seq.elapsed
        );
        // §3.5: sequential time ≈ 2 messages per node (query + ack);
        // parallel time ≈ tree height × one latency per level + replies.
        assert!(
            seq.elapsed.ticks() >= seq.nodes_contacted,
            "sequential latency grows with every contacted node"
        );
    }

    #[test]
    fn threshold_stops_early_with_tstop() {
        let (_, mut sim) = twin(8, CORPUS);
        let full = sim.search_sequential(&set("a"), 100).unwrap();
        let early = sim.search_sequential(&set("a"), 1).unwrap();
        assert_eq!(early.results.len(), 1);
        assert!(
            early.nodes_contacted < full.nodes_contacted,
            "T_STOP must cut the traversal: {} vs {}",
            early.nodes_contacted,
            full.nodes_contacted
        );
    }

    #[test]
    fn elapsed_time_accounts_latency() {
        let mut slow = ProtocolSim::new(6, 0, LatencyModel::constant(10)).unwrap();
        slow.insert(oid(1), set("k")).unwrap();
        let out = slow.search_sequential(&set("k"), 10).unwrap();
        assert!(out.elapsed.ticks() >= 10, "at least one 10-tick hop");
        assert_eq!(out.results.len(), 1);
    }

    #[test]
    fn zero_threshold_rejected() {
        let (_, mut sim) = twin(6, CORPUS);
        assert!(sim.search_sequential(&set("a"), 0).is_err());
        assert!(sim.search_parallel(&set("a"), 0).is_err());
    }

    #[test]
    fn empty_query_browses_whole_cube() {
        let (_, mut sim) = twin(6, &[(1, "p"), (2, "q")]);
        let out = sim.search_sequential(&KeywordSet::new(), 100).unwrap();
        assert_eq!(out.results.len(), 2);
        assert_eq!(out.nodes_contacted, 64, "empty query spans the full cube");
    }

    #[test]
    fn rejects_oversized_dimension() {
        // r = 17 used to be rejected because the sim allocated dense
        // 2^r state; with sparse vertex storage only the hash family's
        // own 1 ≤ r ≤ 63 bound remains.
        assert!(ProtocolSim::new(17, 0, LatencyModel::default()).is_ok());
        assert!(ProtocolSim::new(64, 0, LatencyModel::default()).is_err());
        assert!(ProtocolSim::new(0, 0, LatencyModel::default()).is_err());
    }

    // ------------------------------------------------------------------
    // Fault-tolerant search
    // ------------------------------------------------------------------

    const BIG: usize = usize::MAX >> 1;

    fn ft(strategy: RecoveryStrategy) -> FtConfig {
        FtConfig::new(strategy).max_retries(10)
    }

    fn ids(results: &[RankedObject]) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = results.iter().map(|r| r.object).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn ft_fault_free_matches_sequential() {
        for strategy in [
            RecoveryStrategy::Naive,
            RecoveryStrategy::RetryOnly,
            RecoveryStrategy::Redelegate,
            RecoveryStrategy::ReplicatedFailover,
        ] {
            let (_, mut sim) = twin(8, CORPUS);
            let seq = sim.search_sequential(&set("a"), BIG).unwrap();
            let out = sim
                .search_fault_tolerant(&set("a"), BIG, ft(strategy))
                .unwrap();
            assert_eq!(ids(&seq.results), ids(&out.results), "{strategy:?}");
            let c = &out.coverage;
            assert_eq!(c.ft.reached, c.ft.subcube_vertices, "{strategy:?}");
            assert_eq!(c.ft.skipped.len() as u64, 0);
            assert_eq!(c.ft.retries, 0);
            assert_eq!(c.ft.timeouts, 0);
            assert!(!c.failed_over);
        }
    }

    #[test]
    fn ft_retry_recovers_from_20pct_loss() {
        let (_, mut clean) = twin(8, CORPUS);
        let want = ids(&clean
            .search_fault_tolerant(&set("a"), BIG, ft(RecoveryStrategy::RetryOnly))
            .unwrap()
            .results);
        let (_, mut lossy) = twin(8, CORPUS);
        lossy.network_mut().faults_mut().set_drop_probability(0.2);
        let out = lossy
            .search_fault_tolerant(&set("a"), BIG, ft(RecoveryStrategy::RetryOnly))
            .unwrap();
        assert_eq!(want, ids(&out.results), "retries must restore full recall");
        assert!(out.coverage.ft.retries > 0, "20% loss must trigger retries");
        assert_eq!(
            out.coverage.ft.reached, out.coverage.ft.subcube_vertices,
            "every vertex is live, so all must eventually answer"
        );
    }

    /// Kills the root's highest-dimension child: its SBT subtree is
    /// half the subcube.
    fn kill_big_child(sim: &mut ProtocolSim, query: &KeywordSet) -> u64 {
        let root = sim.query_root(query);
        let top = root
            .zero_positions()
            .next_back()
            .expect("query has free dims");
        let dead = root.flip(top).bits();
        let ep = sim.endpoint_of(dead);
        sim.network_mut().faults_mut().kill(ep);
        dead
    }

    #[test]
    fn ft_redelegation_covers_crashed_subtree() {
        let (_, mut sim) = twin(8, CORPUS);
        let dead = kill_big_child(&mut sim, &set("a"));
        let out = sim
            .search_fault_tolerant(&set("a"), BIG, ft(RecoveryStrategy::Redelegate))
            .unwrap();
        let c = &out.coverage;
        assert_eq!(c.ft.skipped, vec![dead], "only the crashed vertex is lost");
        assert_eq!(c.ft.reached, c.ft.subcube_vertices - 1);
        assert!(c.ft.redelegations >= 1);
        assert!(c.ft.timeouts >= 1);
    }

    #[test]
    fn ft_retry_only_loses_the_whole_subtree() {
        let (_, mut sim) = twin(8, CORPUS);
        kill_big_child(&mut sim, &set("a"));
        let out = sim
            .search_fault_tolerant(&set("a"), BIG, ft(RecoveryStrategy::RetryOnly))
            .unwrap();
        let c = &out.coverage;
        assert_eq!(
            c.ft.skipped.len() as u64,
            c.ft.subcube_vertices / 2,
            "the dead child's subtree is half the subcube"
        );
        assert_eq!(
            c.ft.reached + c.ft.skipped.len() as u64,
            c.ft.subcube_vertices
        );
    }

    #[test]
    fn ft_naive_terminates_under_crash_with_exact_accounting() {
        let (_, mut sim) = twin(8, CORPUS);
        kill_big_child(&mut sim, &set("a"));
        let out = sim
            .search_fault_tolerant(&set("a"), BIG, ft(RecoveryStrategy::Naive))
            .unwrap();
        let c = &out.coverage;
        assert_eq!(c.ft.retries, 0);
        assert!(c.ft.reached < c.ft.subcube_vertices);
        assert_eq!(
            c.ft.reached + c.ft.skipped.len() as u64,
            c.ft.subcube_vertices,
            "quiescence accounting must cover the whole subcube"
        );
    }

    #[test]
    fn ft_dead_root_promotes_requester() {
        let (_, mut sim) = twin(8, CORPUS);
        let root = sim.query_root(&set("a")).bits();
        let ep = sim.endpoint_of(root);
        sim.network_mut().faults_mut().kill(ep);
        let out = sim
            .search_fault_tolerant(&set("a"), BIG, ft(RecoveryStrategy::Redelegate))
            .unwrap();
        let c = &out.coverage;
        assert_eq!(c.ft.skipped, vec![root], "only the root itself is lost");
        assert_eq!(
            c.ft.reached,
            c.ft.subcube_vertices - 1,
            "the requester must take over the dead root's frontier"
        );
    }

    #[test]
    fn ft_failover_recovers_objects_from_dead_vertex() {
        // Object 2 ("a b") is homed at F_h({a,b}); kill that vertex.
        let (_, mut sim) = twin(8, CORPUS);
        let home = sim.query_root(&set("a b")).bits();
        let ep = sim.endpoint_of(home);
        sim.network_mut().faults_mut().kill(ep);
        let redel = sim
            .search_fault_tolerant(&set("a"), BIG, ft(RecoveryStrategy::Redelegate))
            .unwrap();
        assert!(
            !ids(&redel.results).contains(&oid(2)),
            "without a replica the dead vertex's objects are gone"
        );

        let (_, mut sim2) = twin(8, CORPUS);
        let ep2 = sim2.endpoint_of(home);
        sim2.network_mut().faults_mut().kill(ep2);
        let failover = sim2
            .search_fault_tolerant(&set("a"), BIG, ft(RecoveryStrategy::ReplicatedFailover))
            .unwrap();
        assert!(failover.coverage.failed_over);
        assert!(
            ids(&failover.results).contains(&oid(2)),
            "the secondary cube holds a copy under a different hash"
        );
        let (_, mut clean) = twin(8, CORPUS);
        let full = clean.search_sequential(&set("a"), BIG).unwrap();
        assert_eq!(ids(&full.results), ids(&failover.results));
    }

    #[test]
    fn ft_threshold_stops_early() {
        let (_, mut sim) = twin(8, CORPUS);
        let out = sim
            .search_fault_tolerant(&set("a"), 1, ft(RecoveryStrategy::Redelegate))
            .unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.coverage.ft.skipped.len(), 0);
    }

    #[test]
    fn ft_deterministic_across_runs() {
        let run = || {
            let (_, mut sim) = twin(8, CORPUS);
            sim.network_mut().faults_mut().set_drop_probability(0.2);
            kill_big_child(&mut sim, &set("a"));
            let out = sim
                .search_fault_tolerant(&set("a"), BIG, ft(RecoveryStrategy::Redelegate))
                .unwrap();
            (ids(&out.results), out.coverage)
        };
        assert_eq!(run(), run());
    }

    // ------------------------------------------------------------------
    // Occupancy-guided pruning
    // ------------------------------------------------------------------

    #[test]
    fn pruned_sequential_matches_unpruned_and_contacts_fewer_nodes() {
        let (_, mut plain) = twin(10, CORPUS);
        let (_, mut pruned) = twin(10, CORPUS);
        pruned.set_pruning(true);
        for query in ["a", "a b", "b", "x", "zzz"] {
            let p = plain.search_sequential(&set(query), BIG).unwrap();
            let q = pruned.search_sequential(&set(query), BIG).unwrap();
            assert_eq!(ids(&p.results), ids(&q.results), "query {query}");
            assert!(
                q.nodes_contacted <= p.nodes_contacted,
                "query {query}: pruning contacted more nodes"
            );
        }
        // On this sparse corpus the one-keyword query must show real
        // savings, not just parity.
        let p = plain.search_sequential(&set("a"), BIG).unwrap();
        let q = pruned.search_sequential(&set("a"), BIG).unwrap();
        assert!(
            q.nodes_contacted < p.nodes_contacted,
            "pruned {} vs unpruned {}",
            q.nodes_contacted,
            p.nodes_contacted
        );
        assert!(q.pruned_subtrees > 0);
        assert_eq!(p.pruned_subtrees, 0, "pruning is opt-in");
    }

    #[test]
    fn pruned_parallel_matches_unpruned_and_contacts_fewer_nodes() {
        let (_, mut plain) = twin(10, CORPUS);
        let (_, mut pruned) = twin(10, CORPUS);
        pruned.set_pruning(true);
        let p = plain.search_parallel(&set("a"), BIG).unwrap();
        let q = pruned.search_parallel(&set("a"), BIG).unwrap();
        assert_eq!(ids(&p.results), ids(&q.results));
        assert!(
            q.nodes_contacted < p.nodes_contacted,
            "pruned {} vs unpruned {}",
            q.nodes_contacted,
            p.nodes_contacted
        );
        assert!(q.pruned_subtrees > 0);
    }

    #[test]
    fn pruned_ft_matches_unpruned_with_exact_accounting() {
        let (_, mut plain) = twin(10, CORPUS);
        let (_, mut pruned) = twin(10, CORPUS);
        let a = plain
            .search_fault_tolerant(&set("a"), BIG, ft(RecoveryStrategy::Redelegate))
            .unwrap();
        let b = pruned
            .search_fault_tolerant(&set("a"), BIG, ft(RecoveryStrategy::Redelegate).prune(true))
            .unwrap();
        assert_eq!(ids(&a.results), ids(&b.results));
        let c = &b.coverage;
        assert!(c.pruned_subtrees > 0);
        assert!(c.ft.reached < a.coverage.ft.reached);
        assert_eq!(
            c.ft.reached + c.ft.skipped.len() as u64 + c.vertices_pruned,
            c.ft.subcube_vertices,
            "every subcube vertex is reached, skipped, or pruned"
        );
        assert_eq!(a.coverage.pruned_subtrees, 0, "pruning is opt-in");
    }

    #[test]
    fn pruning_never_contacts_a_dead_empty_subtree() {
        // Kill a root child whose region the summary disproves: the
        // pruned traversal must never query it, so no timeouts fire.
        let (_, mut sim) = twin(10, CORPUS);
        let root = sim.query_root(&set("a"));
        let required = root.bits();
        let (dead_bits, _) = root
            .zero_positions()
            .rev()
            .map(|i| (root.flip(i).bits(), i))
            .find(|&(bits, dim)| sim.summary().can_prune(bits, dim, required))
            .expect("a sparse corpus leaves some root child provably empty");
        let ep = sim.endpoint_of(dead_bits);
        sim.network_mut().faults_mut().kill(ep);
        let out = sim
            .search_fault_tolerant(&set("a"), BIG, ft(RecoveryStrategy::Redelegate).prune(true))
            .unwrap();
        assert_eq!(
            out.coverage.ft.timeouts, 0,
            "the dead vertex was never contacted"
        );
        assert!(out.coverage.pruned_subtrees > 0);
        let (_, mut clean) = twin(10, CORPUS);
        let want = clean
            .search_fault_tolerant(&set("a"), BIG, ft(RecoveryStrategy::Redelegate))
            .unwrap();
        assert_eq!(ids(&want.results), ids(&out.results), "recall intact");
    }

    #[test]
    fn ft_rejects_bad_config() {
        let (_, mut sim) = twin(6, CORPUS);
        assert_eq!(
            sim.search_fault_tolerant(&set("a"), 0, ft(RecoveryStrategy::Redelegate)),
            Err(Error::ZeroThreshold)
        );
        let mut zero = FtConfig::new(RecoveryStrategy::RetryOnly);
        zero.policy.base_timeout = 0;
        assert_eq!(
            sim.search_fault_tolerant(&set("a"), 5, zero),
            Err(Error::ZeroTimeout)
        );
        // Naive never waits, so a zero timeout is fine there.
        zero.policy.strategy = RecoveryStrategy::Naive;
        assert!(sim.search_fault_tolerant(&set("a"), 5, zero).is_ok());
    }
}
