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
//! against crashed vertices and lossy links (§3.4), under the
//! [`RecoveryStrategy`] the caller picks — the one option; the retry
//! budget is a constant, [`crate::protocol::SIM_RETRY_BUDGET`]. The
//! coordinator tracks every outstanding child query with a network
//! timer, retries with exponential backoff up to that budget, and —
//! under [`RecoveryStrategy::Redelegate`] — routes around a dead child by
//! expanding its SBT children directly: by Lemma 3.2 a child's subtree
//! is computable from its bits and arrival dimension alone, so no state
//! from the dead node is needed. [`RecoveryStrategy::ReplicatedFailover`]
//! additionally sweeps the secondary hypercube (a second hash seed, as
//! in [`crate::replication`]) when any vertex stayed dead. Every search
//! returns a [`CoverageReport`] accounting exactly for reached and
//! skipped vertices, retries, timeouts, and messages by kind.
//!
//! # One receive path
//!
//! Every search, and every churn driver in [`crate::churn`], steps the
//! network through one pump. It gives membership traffic and timers to
//! the churn engine, answers a node-bound message (`T_QUERY`) in the
//! single node handler — what the node sends back is named by
//! the query itself ([`QueryReply`]) — and hands what is addressed to
//! a coordinator or the requester to the search in progress. A vertex
//! that is mid-handoff or awaiting repair answers nothing, whoever
//! asks: a fault-tolerant coordinator retries it; a sequential or
//! parallel search returns what it collected once the network is
//! quiescent — never a hang.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use hyperdex_simnet::latency::LatencyModel;
use hyperdex_simnet::net::{Delivery, EndpointId, NetEvent, Network, TimerId};
use hyperdex_simnet::time::{SimDuration, SimTime};

use hyperdex_dht::ObjectId;
use hyperdex_hypercube::{Sbt, Shape, Vertex};

use crate::churn::{ChurnMsg, ChurnTimer};
use crate::error::Error;
use crate::hashing::KeywordHasher;
use crate::keyword::KeywordSet;
use crate::protocol::{
    child_contacts, scan_store, FtCmd, FtCoordinator, FtCoverage, Step, SupersetCoordinator,
};
use crate::search::{RankedObject, TraversalOrder};
use crate::store::{PostingStore, StoreBackend};

/// Protocol messages (§3.3's `T_QUERY`, `T_CONT`, `T_STOP`, plus the
/// direct result deliveries to the requester).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KwMsg {
    /// Query forwarded to one tree node.
    TQuery {
        /// The queried keyword set `K` (every hop shares its buffer
        /// instead of deep-cloning the set per message).
        keywords: KeywordSet,
        /// Objects still wanted (`c` in the paper).
        remaining: usize,
        /// Endpoint collecting results (`u`).
        requester: EndpointId,
        /// The dimension via which this node was reached (`d`); `None`
        /// for the initial query to the root.
        via_dim: Option<u8>,
        /// The coordinating root endpoint (`v`).
        root: EndpointId,
        /// What the node sends back, and from which cube.
        reply: QueryReply,
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
    /// Membership traffic (handoff, repair), churn mode only;
    /// [`crate::churn`] consumes it.
    Churn(ChurnMsg),
}

/// What a `T_QUERY`'s receiver sends back, and from which cube it
/// scans — carried by the query, so a node's reaction never depends on
/// who coordinates or what else is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryReply {
    /// §3.3: matches to the requester, `T_CONT` or `T_STOP` to the root.
    Cont,
    /// §3.5: matches to the requester and nothing else — the root
    /// enumerates the SBT levels itself.
    Results,
    /// §3.4: one `TContFt` to the coordinator, matches piggybacked.
    ContFt {
        /// Scan the secondary cube's table instead of the primary's.
        secondary: bool,
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

/// Exact coordinator-side accounting for one fault-tolerant search:
/// the shared [`FtCoverage`] plus what only the simulator has — the
/// secondary-cube sweep and virtual time.
///
/// At quiescence every vertex of the query's induced subcube is either
/// *reached* (it answered), *skipped* (declared dead, or unreachable
/// behind a dead ancestor), or unvisited because the result threshold
/// stopped the traversal early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageReport {
    /// The primary cube's vertex accounting (`subcube_vertices`,
    /// `reached`, `skipped`), with the message and recovery counters of
    /// both sweeps.
    pub ft: FtCoverage,
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
    /// Virtual time from first send to the last network event.
    pub elapsed: hyperdex_simnet::time::SimDuration,
}

/// Where one search started ([`ProtocolSim::begin`]): the query, its
/// root in the primary cube, and the readings its cost is measured
/// against.
#[derive(Debug)]
struct Started {
    keywords: KeywordSet,
    root: Vertex,
    root_ep: EndpointId,
    at: SimTime,
    sent: u64,
    visits: u64,
}

/// How far [`ProtocolSim::pump`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Until {
    /// Until nothing is in flight and no timer is armed.
    Quiescence,
    /// While the next event is due at or before this instant.
    Instant(SimTime),
    /// Until this timer fires (the pump consumes it).
    Timer(TimerId),
}

/// What the pump hands the search in progress: everything addressed to
/// a coordinator or to the requester.
#[derive(Debug)]
pub(crate) enum SearchEvent {
    /// `T_CONT`, or the coordinating root's own visit.
    Cont {
        found: usize,
        children: Vec<(u64, u8)>,
    },
    /// `T_STOP`.
    Stop,
    /// `TContFt` from vertex `bits` reaching coordinator endpoint `at`,
    /// or — `local` — the coordinating root's own visit.
    ContFt {
        at: EndpointId,
        bits: u64,
        objects: Vec<RankedObject>,
        children: Vec<(u64, u8)>,
        local: bool,
    },
    Results(Vec<RankedObject>),
    /// A fault-tolerant search's retransmission timer fired.
    Timeout {
        bits: u64,
        generation: u64,
    },
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
    /// The sequential coordinator's frontier queue `U`, reused across
    /// searches (the machine clears it; only capacity carries over).
    frontier: VecDeque<(u64, u8)>,
    /// The seed this simulation was built with (churn derives its ring
    /// placement from it).
    pub(crate) seed: u64,
    /// `T_QUERY`s answered so far, by any vertex for any search; a
    /// search's `nodes_contacted` is the difference across it.
    visits: u64,
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
            frontier: VecDeque::new(),
            seed,
            visits: 0,
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
        let vertex = self.hasher.vertex_for(&keywords);
        let vertex2 = self.hasher2.vertex_for(&keywords);
        self.tables
            .entry(vertex.bits())
            .or_default()
            .insert(keywords.clone(), object);
        self.tables2
            .entry(vertex2.bits())
            .or_default()
            .insert(keywords, object);
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
        let run = self.begin(keywords);
        self.net.send(
            self.requester,
            run.root_ep,
            KwMsg::TQuery {
                keywords: run.keywords.clone(),
                remaining: threshold,
                requester: self.requester,
                via_dim: None,
                root: run.root_ep,
                reply: QueryReply::Cont,
            },
        );
        // The root doubles as coordinator; its frontier queue is the
        // sim's reused buffer. The machine's root step is consumed
        // here: that visit is the query just sent, and its outcome
        // arrives as the first continuation.
        let frontier = std::mem::take(&mut self.frontier);
        let mut core = SupersetCoordinator::with_queue(run.root, threshold, frontier);
        let _root = core.next_step();
        let mut results = Vec::new();
        self.pump(Until::Quiescence, &mut |sim, event| match event {
            SearchEvent::Cont { found, children } => {
                core.record_visit(found, children);
                sim.advance(&mut core, &run);
            }
            SearchEvent::Stop => core.stop(),
            SearchEvent::Results(objects) => results.extend(objects),
            _ => {}
        });
        // Reclaim the frontier buffer for the next search.
        self.frontier = core.into_queue();
        Ok(self.outcome(&run, results, threshold))
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
        let run = self.begin(keywords);
        // One SBT level per round, enumerated as it is sent — an early
        // threshold exit never enumerates the deeper levels at all.
        let sbt = Sbt::induced(run.root);
        let mut results = Vec::new();
        // The requester asks the root (level 0); the root addresses
        // every deeper node directly (any node is reachable through the
        // underlying DHT).
        let mut from = self.requester;
        for depth in 0..=sbt.height() {
            for w in sbt.level(depth) {
                let to = self.endpoint_of(w.bits());
                self.net.send(
                    from,
                    to,
                    KwMsg::TQuery {
                        keywords: run.keywords.clone(),
                        remaining: threshold - results.len().min(threshold),
                        requester: self.requester,
                        via_dim: None,
                        root: run.root_ep,
                        reply: QueryReply::Results,
                    },
                );
            }
            // Synchronize the round: deliver everything in flight.
            self.pump(Until::Quiescence, &mut |_, event| {
                if let SearchEvent::Results(objects) = event {
                    results.extend(objects);
                }
            });
            if results.len() >= threshold {
                break;
            }
            from = run.root_ep;
        }
        Ok(self.outcome(&run, results, threshold))
    }

    /// Runs the fault-tolerant superset search (§3.4).
    ///
    /// The traversal is an eager SBT walk: the coordinator (the query
    /// root, or the requester if the root is dead) tracks every
    /// outstanding child query with a network timer, retransmits with
    /// exponential backoff under
    /// [`crate::protocol::SIM_RETRY_BUDGET`] (except under
    /// [`RecoveryStrategy::Naive`], which arms no timer), and applies
    /// `strategy` once a child's budget is exhausted. The pump drains
    /// the network to quiescence, so the search terminates even when
    /// every vertex is dead — losses show up as skipped vertices in
    /// the [`CoverageReport`], never as a hang.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroThreshold`] when `threshold == 0`.
    pub fn search_fault_tolerant(
        &mut self,
        keywords: &KeywordSet,
        threshold: usize,
        strategy: RecoveryStrategy,
    ) -> Result<FtSearchOutcome, Error> {
        if threshold == 0 {
            return Err(Error::ZeroThreshold);
        }
        // Every (re)transmission of both sweeps shares the set's buffer.
        let run = self.begin(keywords);
        let mut core = FtCoordinator::new(run.root, run.keywords.clone(), threshold, strategy);
        let mut report = CoverageReport {
            ft: self.run_ft_pass(&mut core, false),
            failed_over: false,
            secondary_reached: 0,
            secondary_skipped: 0,
            elapsed: SimDuration::ZERO,
        };
        if strategy == RecoveryStrategy::ReplicatedFailover && !report.ft.skipped.is_empty() {
            // Objects homed on the skipped vertices are lost to the
            // primary sweep; recover them from the secondary cube.
            report.failed_over = true;
            core = core.sweep_again(self.hasher2.vertex_for(keywords));
            let sec = self.run_ft_pass(&mut core, true);
            report.ft.add_traffic(&sec);
            report.secondary_reached = sec.reached;
            report.secondary_skipped = sec.skipped.len() as u64;
        }
        report.elapsed = self.cost(&run).1;
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
    /// virtual-time timers and feeds the pump's continuations and
    /// expirations back into the machine. The runtime workers do not
    /// drive it: they recover per region owner and share only the retry
    /// rule and the coverage record (see [`crate::protocol`]).
    fn run_ft_pass(
        &mut self,
        core: &mut FtCoordinator<RankedObject>,
        secondary: bool,
    ) -> FtCoverage {
        let mut pass = FtPass {
            coord: self.endpoint_of(core.root().bits()),
            timers: HashMap::new(),
            secondary,
        };
        let mut cmds = Vec::new();

        core.start(&mut cmds);
        self.ft_exec(core, &mut cmds, &mut pass);
        self.pump(Until::Quiescence, &mut |sim, event| {
            match event {
                SearchEvent::ContFt {
                    at,
                    bits,
                    objects,
                    children,
                    local,
                } => {
                    // A stale coordinator address, or the duplicate of
                    // a retried root query.
                    if at != pass.coord || (local && core.is_covered(bits)) {
                        return;
                    }
                    let objects = objects.into_iter().map(|o| (o.object, o));
                    if local {
                        core.on_scan(bits, objects, &children, &mut cmds);
                    } else {
                        core.on_reply(bits, objects, &children, &mut cmds);
                    }
                }
                SearchEvent::Timeout { bits, generation } => {
                    core.on_timeout(bits, generation, &mut cmds);
                }
                _ => return,
            }
            sim.ft_exec(core, &mut cmds, &mut pass);
        });

        // Quiescence: the machine accounts queries still outstanding
        // (no timers were armed, or the coordinator died) as skipped
        // subtrees.
        core.finish()
    }

    /// Executes the machine's pending commands over simnet transport:
    /// `Send` becomes a `T_QUERY` (plus a virtual-time timer when
    /// armed), `Cancel` disarms, `Promote` redirects the coordinator to
    /// the requester.
    fn ft_exec(
        &mut self,
        core: &FtCoordinator<RankedObject>,
        cmds: &mut Vec<FtCmd>,
        pass: &mut FtPass,
    ) {
        for cmd in cmds.drain(..) {
            match cmd {
                FtCmd::Promote => pass.coord = self.requester,
                FtCmd::Cancel { bits } => {
                    if let Some(t) = pass.timers.remove(&bits) {
                        self.net.cancel_timer(t);
                    }
                }
                FtCmd::Send {
                    bits,
                    via_dim,
                    timeout,
                    generation,
                } => {
                    // The requester owns the root query and its retries
                    // (the root itself may be dead); the coordinator
                    // owns every child query.
                    let owner = if via_dim.is_none() {
                        self.requester
                    } else {
                        pass.coord
                    };
                    let to = self.endpoint_of(bits);
                    self.net.send(
                        owner,
                        to,
                        KwMsg::TQuery {
                            keywords: core.keywords().clone(),
                            remaining: core.remaining(),
                            requester: self.requester,
                            via_dim,
                            root: pass.coord,
                            reply: QueryReply::ContFt {
                                secondary: pass.secondary,
                            },
                        },
                    );
                    if let Some(ticks) = timeout {
                        let timer = self.net.set_timer(
                            owner,
                            SimDuration::from_ticks(ticks),
                            SimTimer::Ft { bits, generation },
                        );
                        pass.timers.insert(bits, timer);
                    }
                }
            }
        }
    }

    /// Every search's prologue, taken before its first send. Every hop
    /// shares the caller's keyword buffer.
    fn begin(&mut self, keywords: &KeywordSet) -> Started {
        let root = self.hasher.vertex_for(keywords);
        Started {
            keywords: keywords.clone(),
            root,
            root_ep: self.endpoint_of(root.bits()),
            at: self.net.now(),
            sent: self.net.metrics().messages_sent,
            visits: self.visits,
        }
    }

    /// Messages carried and virtual time passed since `run` began, up
    /// to the last network event.
    fn cost(&self, run: &Started) -> (u64, SimDuration) {
        (
            self.net.metrics().messages_sent - run.sent,
            self.net.now().saturating_since(run.at),
        )
    }

    fn outcome(
        &self,
        run: &Started,
        mut results: Vec<RankedObject>,
        threshold: usize,
    ) -> SimSearchOutcome {
        results.truncate(threshold);
        let (messages, elapsed) = self.cost(run);
        SimSearchOutcome {
            results,
            nodes_contacted: self.visits - run.visits,
            messages,
            elapsed,
        }
    }

    /// The one place the network is stepped. Pops events until `until`,
    /// gives membership timers to the churn engine and deliveries to
    /// [`ProtocolSim::receive`], and hands whatever is addressed to a
    /// coordinator or the requester to `search` — the one search in
    /// progress (the churn drivers run none and pass a no-op).
    pub(crate) fn pump(&mut self, until: Until, search: &mut dyn FnMut(&mut Self, SearchEvent)) {
        loop {
            if let Until::Instant(t) = until {
                if self.net.next_due().is_none_or(|due| due > t) {
                    return;
                }
            }
            let event = match self.net.step_event() {
                None => return,
                Some(NetEvent::Timer(t)) if until == Until::Timer(t.id) => return,
                Some(NetEvent::Timer(t)) => match t.token {
                    SimTimer::Churn(timer) => {
                        self.churn_timer(timer);
                        None
                    }
                    SimTimer::Ft { bits, generation } => {
                        Some(SearchEvent::Timeout { bits, generation })
                    }
                },
                Some(NetEvent::Delivery(d)) => self.receive(d),
            };
            if let Some(event) = event {
                search(self, event);
            }
        }
    }

    /// One delivery, received — the single message handler, shaped
    /// `handle(msg) → sends`. Membership traffic goes to the churn
    /// engine; a node-bound message (`T_QUERY`) is answered
    /// here, whatever search sent it; a message for a coordinator or
    /// the requester is returned for the search in progress, as is the
    /// continuation of a root that coordinates its own query (it scans
    /// locally, no self-message).
    fn receive(&mut self, d: Delivery<KwMsg>) -> Option<SearchEvent> {
        let to = d.to;
        match d.payload {
            KwMsg::Churn(msg) => {
                self.churn_deliver(to, d.from, msg);
                None
            }
            KwMsg::TQuery {
                keywords,
                remaining,
                requester,
                via_dim,
                root,
                reply,
            } => {
                let vertex = self.vertex_of(to);
                if self.churn_vertex_silent(vertex.bits()) {
                    return None;
                }
                self.visits += 1;
                let secondary = reply == QueryReply::ContFt { secondary: true };
                let tables = if secondary {
                    &self.tables2
                } else {
                    &self.tables
                };
                // Unmaterialized vertex: logically contacted, holds
                // nothing (`scan_store` treats `None` exactly that way).
                let mut objects = Vec::new();
                scan_store(
                    tables.get(&vertex.bits()),
                    &keywords,
                    keywords.signature(),
                    TraversalOrder::TopDown,
                    remaining,
                    &mut objects,
                );
                let children = || child_contacts(vertex, via_dim).collect();
                if let QueryReply::ContFt { .. } = reply {
                    // Results ride the continuation, so a retransmitted
                    // query re-delivers them.
                    if to != root {
                        let children = children();
                        self.net
                            .send(to, root, KwMsg::TContFt { objects, children });
                        return None;
                    }
                    return via_dim.is_none().then(|| SearchEvent::ContFt {
                        at: to,
                        bits: vertex.bits(),
                        objects,
                        children: children(),
                        local: true,
                    });
                }
                let found = objects.len();
                if found > 0 {
                    self.net.send(to, requester, KwMsg::Results { objects });
                }
                if reply == QueryReply::Results {
                    None
                } else if to == root {
                    let children = children();
                    Some(SearchEvent::Cont { found, children })
                } else if found >= remaining {
                    self.net.send(to, root, KwMsg::TStop);
                    None
                } else {
                    let children = children();
                    self.net.send(to, root, KwMsg::TCont { found, children });
                    None
                }
            }
            KwMsg::TCont { found, children } => Some(SearchEvent::Cont { found, children }),
            KwMsg::TStop => Some(SearchEvent::Stop),
            KwMsg::TContFt { objects, children } => Some(SearchEvent::ContFt {
                at: to,
                bits: self.vertex_of(d.from).bits(),
                objects,
                children,
                local: false,
            }),
            KwMsg::Results { objects } => Some(SearchEvent::Results(objects)),
        }
    }

    /// Pops the sequential coordinator's next frontier node and queries
    /// it, or finds the search done.
    fn advance(&mut self, core: &mut SupersetCoordinator, run: &Started) {
        if let Step::Visit { bits, via_dim } = core.next_step() {
            let dim = via_dim.expect("the root visit was consumed at creation");
            let to = self.endpoint_of(bits);
            self.net.send(
                run.root_ep,
                to,
                KwMsg::TQuery {
                    keywords: run.keywords.clone(),
                    remaining: core.remaining(),
                    requester: self.requester,
                    via_dim: Some(dim),
                    root: run.root_ep,
                    reply: QueryReply::Cont,
                },
            );
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
    /// (kills, link loss) in tests and experiments.
    pub fn network_mut(&mut self) -> &mut Network<KwMsg, SimTimer> {
        &mut self.net
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

/// The simnet side of one fault-tolerant sweep.
#[derive(Debug)]
struct FtPass {
    /// Coordinator endpoint: the root, until a dead root promotes the
    /// requester (`FtCmd::Promote`).
    coord: EndpointId,
    /// Armed retransmission timers by vertex bits, kept only to disarm
    /// them.
    timers: HashMap<u64, TimerId>,
    /// Whether this pass sweeps the secondary cube.
    secondary: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::HypercubeIndex;
    use crate::fixtures::{oid, set, CORPUS};
    use crate::protocol::{subtree_bits, SIM_RETRY_BUDGET};
    use crate::search::SupersetQuery;
    use hyperdex_simnet::trace::TraceKind;

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
            // The simulator runs the protocol as published; so does
            // the engine it is held against.
            let published = SupersetQuery::new(set(query)).prune(false);
            let d = direct.superset_search(&published).unwrap();
            let s = sim.search_sequential(&set(query), usize::MAX - 1).unwrap();
            assert_eq!(ids(&d.results), ids(&s.results), "query {query}");
            assert_eq!(
                d.stats.nodes_contacted, s.nodes_contacted,
                "node parity for {query}"
            );
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
            par.elapsed.ticks(),
            seq.elapsed.ticks()
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
        assert!(ProtocolSim::new(17, 0, LatencyModel::constant(1)).is_ok());
        assert!(ProtocolSim::new(64, 0, LatencyModel::constant(1)).is_err());
        assert!(ProtocolSim::new(0, 0, LatencyModel::constant(1)).is_err());
    }

    // ------------------------------------------------------------------
    // Fault-tolerant search
    // ------------------------------------------------------------------

    const BIG: usize = usize::MAX >> 1;

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
            let out = sim.search_fault_tolerant(&set("a"), BIG, strategy).unwrap();
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
            .search_fault_tolerant(&set("a"), BIG, RecoveryStrategy::RetryOnly)
            .unwrap()
            .results);
        let (_, mut lossy) = twin(8, CORPUS);
        lossy.network_mut().faults_mut().set_drop_probability(0.2);
        let out = lossy
            .search_fault_tolerant(&set("a"), BIG, RecoveryStrategy::RetryOnly)
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
        let root = sim.hasher.vertex_for(query);
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
            .search_fault_tolerant(&set("a"), BIG, RecoveryStrategy::Redelegate)
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
            .search_fault_tolerant(&set("a"), BIG, RecoveryStrategy::RetryOnly)
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

    /// A dead child lives exactly [`SIM_RETRY_BUDGET`]: sent once and
    /// retransmitted `max_retries` times, then given up with its whole
    /// subtree. Every other vertex answers long before, so the search
    /// ends when the last wait does: the budget's total wait after the
    /// coordinator first asks, which is one link latency after the
    /// requester asks the root. Naive asks it once and waits for
    /// nothing.
    #[test]
    fn a_dead_child_lives_exactly_the_simulators_retry_budget() {
        let total_wait: u64 = (0..)
            .map_while(|attempt| SIM_RETRY_BUDGET.attempt_timeout(attempt))
            .sum();
        let latency = 1; // `twin`'s constant link latency
        let root = KeywordHasher::new(8, 0).unwrap().vertex_for(&set("a"));
        for strategy in [RecoveryStrategy::RetryOnly, RecoveryStrategy::Naive] {
            let (_, mut sim) = twin(8, CORPUS);
            sim.network_mut().enable_tracing(1 << 12);
            let dead = kill_big_child(&mut sim, &set("a"));
            let dead_ep = sim.endpoint_of(dead);
            let out = sim.search_fault_tolerant(&set("a"), BIG, strategy).unwrap();
            let sends = sim
                .network()
                .trace()
                .filter(|e| e.kind == TraceKind::Sent && e.to == dead_ep)
                .count();
            let mut subtree = Vec::new();
            let dim = (dead ^ root.bits()).trailing_zeros() as u8;
            subtree_bits(root.flip(dim), Some(dim), &mut subtree);
            subtree.sort_unstable();
            let c = &out.coverage;
            assert_eq!(c.ft.skipped, subtree, "{strategy:?}");
            if strategy == RecoveryStrategy::Naive {
                assert_eq!((sends, c.ft.retries, c.ft.timeouts), (1, 0, 0));
                continue;
            }
            let retries = u64::from(SIM_RETRY_BUDGET.max_retries);
            assert_eq!(sends as u64, retries + 1);
            assert_eq!((c.ft.retries, c.ft.timeouts), (retries, 1));
            assert_eq!(c.elapsed, SimDuration::from_ticks(total_wait + latency));
        }
    }

    #[test]
    fn ft_naive_terminates_under_crash_with_exact_accounting() {
        let (_, mut sim) = twin(8, CORPUS);
        kill_big_child(&mut sim, &set("a"));
        let out = sim
            .search_fault_tolerant(&set("a"), BIG, RecoveryStrategy::Naive)
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
        let root = sim.hasher.vertex_for(&set("a")).bits();
        let ep = sim.endpoint_of(root);
        sim.network_mut().faults_mut().kill(ep);
        let out = sim
            .search_fault_tolerant(&set("a"), BIG, RecoveryStrategy::Redelegate)
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
        let home = sim.hasher.vertex_for(&set("a b")).bits();
        let ep = sim.endpoint_of(home);
        sim.network_mut().faults_mut().kill(ep);
        let redel = sim
            .search_fault_tolerant(&set("a"), BIG, RecoveryStrategy::Redelegate)
            .unwrap();
        assert!(
            !ids(&redel.results).contains(&oid(2)),
            "without a replica the dead vertex's objects are gone"
        );

        let (_, mut sim2) = twin(8, CORPUS);
        let ep2 = sim2.endpoint_of(home);
        sim2.network_mut().faults_mut().kill(ep2);
        let failover = sim2
            .search_fault_tolerant(&set("a"), BIG, RecoveryStrategy::ReplicatedFailover)
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
            .search_fault_tolerant(&set("a"), 1, RecoveryStrategy::Redelegate)
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
                .search_fault_tolerant(&set("a"), BIG, RecoveryStrategy::Redelegate)
                .unwrap();
            (ids(&out.results), out.coverage)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ft_rejects_a_zero_threshold() {
        let (_, mut sim) = twin(6, CORPUS);
        assert_eq!(
            sim.search_fault_tolerant(&set("a"), 0, RecoveryStrategy::Redelegate),
            Err(Error::ZeroThreshold)
        );
    }
}
