//! Engine-agnostic core of the superset/pin/insert protocol.
//!
//! Four execution substrates run the paper's §3.3 protocol: the
//! **direct engine** ([`crate::cluster::HypercubeIndex`], plain function
//! calls), the **simulator** ([`crate::sim_protocol::ProtocolSim`],
//! discrete-event messages), and the **threaded** and **TCP** runtimes
//! (`hyperdex-runtime` / `hyperdex-net`, wire frames between workers).
//! Each request-path step they share exists once, here:
//!
//! * [`SupersetCoordinator`] — the root-side sequential state machine
//!   (frontier queue `U`, budget `c`, `T_CONT`/`T_STOP`).
//!   [`crate::search::cumulative::CumulativeSearch`] — the direct
//!   engine's one top-down walk, whose first page is its one-shot
//!   search — and a runtime worker's region walk drive it through one
//!   loop, [`SupersetCoordinator::walk`]; the simulator feeds it
//!   `T_CONT` messages.
//! * [`child_contacts`] — a node's SBT children from its bits and
//!   arrival dimension alone (Lemma 3.2) — with [`visit_order_key`], the
//!   closed form of the order the coordinator visits them in, and
//!   [`region_entries`], the subcube cut into regions that can each be
//!   walked on their own: what lets a runtime worker answer a sequential
//!   search in one round per region instead of driving the machine over
//!   the wire.
//! * [`scan_store`] — the per-vertex `T_QUERY` handler: the ranked scan
//!   of one posting store.
//! * [`FtCoordinator`] — the §3.4 per-vertex recovery machine (retry,
//!   backoff, subtree re-delegation, coverage accounting) the
//!   simulator drives. A runtime worker recovers per region owner, a
//!   unit with no children to re-delegate to; what the two share is
//!   the retry rule, [`RetryBudget::attempt_timeout`] (each substrate
//!   under its own constant budgets), and the [`FtCoverage`] record.
//!
//! Everything here is sans-I/O: the substrate supplies transport (a
//! call, a simnet message, a wire frame) and timers.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

use hyperdex_dht::ObjectId;
use hyperdex_hypercube::sbt::child_dims;
use hyperdex_hypercube::{bits, Shape, Vertex};

use crate::keyword::KeywordSet;
use crate::search::{RankedObject, TraversalOrder};
use crate::store::PostingStore;
use crate::summary::Pruner;

/// What the coordinator wants executed next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Deliver a `T_QUERY` to vertex `bits` (reached via `via_dim`;
    /// `None` marks the traversal root) and report the answer back via
    /// [`SupersetCoordinator::record_visit`].
    Visit {
        /// The vertex to query.
        bits: u64,
        /// The dimension through which the SBT reaches it (`None` for
        /// the root).
        via_dim: Option<u8>,
    },
    /// The traversal is complete: the threshold was met or the induced
    /// subcube is exhausted.
    Finished,
}

/// The root-side coordinator state machine of one sequential superset
/// search (§3.3): the frontier queue `U`, the remaining-result budget
/// `c`, and the termination rule.
///
/// The machine is sans-I/O and payload-free (the substrate carries the
/// keyword set): call [`SupersetCoordinator::next_step`] to learn the
/// next vertex to query, execute the query however the substrate
/// likes, then feed the answer to
/// [`SupersetCoordinator::record_visit`]. A `T_STOP` (the queried node
/// saw the threshold met) maps to [`SupersetCoordinator::stop`]. The
/// same machine walks one region of the subcube
/// ([`SupersetCoordinator::region`]): a runtime worker's share of the
/// traversal.
///
/// # Example
///
/// ```
/// use std::collections::VecDeque;
///
/// use hyperdex_core::protocol::{child_contacts, SupersetCoordinator, Step};
/// use hyperdex_core::{KeywordHasher, KeywordSet};
///
/// let hasher = KeywordHasher::new(6, 0)?;
/// let root = hasher.vertex_for(&KeywordSet::parse("a")?);
/// let mut coord = SupersetCoordinator::with_queue(root, 10, VecDeque::new());
/// // The first step is always the root itself.
/// assert_eq!(
///     coord.next_step(),
///     Step::Visit { bits: root.bits(), via_dim: None }
/// );
/// coord.record_visit(0, child_contacts(root, None));
/// # Ok::<(), hyperdex_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct SupersetCoordinator {
    remaining: usize,
    root_bits: u64,
    frontier: VecDeque<(u64, u8)>,
    /// Whether the root's visit — the one reached via no dimension —
    /// is behind the walk. A region walk has none: its entry waits in
    /// the frontier.
    root_issued: bool,
    done: bool,
}

impl SupersetCoordinator {
    /// Starts a traversal rooted at `root` wanting up to `threshold`
    /// results, in an existing frontier buffer (cleared first) — hot
    /// loops recycle the queue's capacity across searches instead of
    /// reallocating it.
    pub fn with_queue(root: Vertex, threshold: usize, mut frontier: VecDeque<(u64, u8)>) -> Self {
        frontier.clear();
        SupersetCoordinator {
            remaining: threshold,
            root_bits: root.bits(),
            frontier,
            root_issued: false,
            done: false,
        }
    }

    /// A walk of one region of a traversal's subcube: breadth-first from
    /// the region's `entry` vertex, which the whole traversal reaches via
    /// dimension `cut`, wanting up to `threshold` results — the region's
    /// share of the traversal's visits, in the traversal's order.
    pub fn region(entry: u64, cut: u8, threshold: usize) -> Self {
        SupersetCoordinator {
            remaining: threshold,
            root_bits: entry,
            frontier: VecDeque::from([(entry, cut)]),
            root_issued: true,
            done: false,
        }
    }

    /// Results still wanted (the paper's `c`).
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The walk's first vertex: the traversal root's bits —
    /// `One(F_h(K))`, the mask occupancy pruning tests against — or a
    /// region's entry.
    pub fn root_bits(&self) -> u64 {
        self.root_bits
    }

    /// Whether the traversal has terminated.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Marks the traversal complete (threshold met, `T_STOP` received,
    /// or the substrate aborts).
    pub fn stop(&mut self) {
        self.done = true;
    }

    /// The next vertex to query: the root first, then the frontier in
    /// FIFO order. Returns [`Step::Finished`] — and latches done — once
    /// the threshold is met or the frontier is exhausted.
    pub fn next_step(&mut self) -> Step {
        if self.done || self.remaining == 0 {
            self.done = true;
            return Step::Finished;
        }
        if !self.root_issued {
            self.root_issued = true;
            return Step::Visit {
                bits: self.root_bits,
                via_dim: None,
            };
        }
        match self.frontier.pop_front() {
            Some((bits, dim)) => Step::Visit {
                bits,
                via_dim: Some(dim),
            },
            None => {
                self.done = true;
                Step::Finished
            }
        }
    }

    /// Folds one node's answer back in: `found` results consume budget,
    /// its SBT children join the frontier. (When the budget reaches
    /// zero the machine is done and `children` is not iterated.)
    pub fn record_visit(&mut self, found: usize, children: impl IntoIterator<Item = (u64, u8)>) {
        self.remaining = self.remaining.saturating_sub(found);
        if self.remaining == 0 {
            self.done = true;
        } else {
            self.frontier.extend(children);
        }
    }

    /// The one SBT walk loop: visits until `wanted` matches are found or
    /// the traversal is done. `visit(bits, via_dim, remaining)` scans a
    /// vertex under the budget left and returns its matches. With a
    /// `pruner` (DESIGN.md §10), a vertex other than the root that
    /// cannot match is walked through, and a child whose subtree cannot
    /// is never enqueued. Returns the subtrees pruned.
    pub fn walk(
        &mut self,
        shape: Shape,
        mut pruner: Option<&mut Pruner<'_>>,
        wanted: usize,
        mut visit: impl FnMut(u64, Option<u8>, usize) -> usize,
    ) -> u64 {
        let (mut found, mut pruned) = (0, 0);
        while found < wanted {
            let Step::Visit { bits, via_dim } = self.next_step() else {
                break;
            };
            let w = Vertex::from_bits(shape, bits).expect("the walk stays in the cube");
            // The requester's query lands at the root.
            let contact = via_dim.is_none() || pruner.as_mut().is_none_or(|p| p.may_match(bits));
            let here = if contact {
                visit(bits, via_dim, self.remaining)
            } else {
                0
            };
            found += here;
            let cut = pruner
                .as_mut()
                .map_or(0, |p| p.prunable_dims(bits, child_dims(w, via_dim)));
            pruned += u64::from(cut.count_ones());
            let children = child_contacts(w, via_dim).filter(|&(_, dim)| cut >> dim & 1 == 0);
            self.record_visit(here, children);
        }
        pruned
    }

    /// Surrenders the frontier buffer so the caller can recycle its
    /// capacity (see [`SupersetCoordinator::with_queue`]).
    pub fn into_queue(self) -> VecDeque<(u64, u8)> {
        self.frontier
    }
}

/// The SBT child contacts of `w` reached via `via_dim` (`None` for the
/// traversal root), as `(bits, dimension)` pairs in the protocol's
/// descending-dimension order: one per dimension of [`child_dims`]
/// (Lemma 3.2: no state from `w` itself is needed). Allocation-free;
/// collect it where a message needs an owned list.
pub fn child_contacts(w: Vertex, via_dim: Option<u8>) -> impl Iterator<Item = (u64, u8)> {
    bits::ones(child_dims(w, via_dim))
        .rev()
        .map(move |i| (w.flip(i).bits(), i))
}

/// Where the sequential traversal rooted at `root_bits` visits `bits`
/// among the vertices of `H_r(root)`: sort by this key and you have the
/// order [`SupersetCoordinator`] issues its visits in. The frontier is
/// a FIFO and [`child_contacts`] enumerates dimensions downward, so a
/// vertex is visited after everything with fewer extra dimensions set
/// (breadth first) and, within a depth, after everything whose extra
/// dimensions read as a larger number.
pub fn visit_order_key(root_bits: u64, bits: u64) -> (u32, Reverse<u64>) {
    let extra = bits ^ root_bits;
    (extra.count_ones(), Reverse(extra))
}

/// The entry vertices of the regions `H_r(root)` falls into when the
/// dimensions from `cut` upward name a region: `root | P` for every
/// setting `P` of root's free dimensions at or above `cut`, the root's
/// own region (`P = 0`) first. Walking an entry breadth-first with
/// arrival dimension `cut` — `child_contacts(entry, Some(cut))` and on
/// down — visits exactly its region's share of the subcube, in
/// [`visit_order_key`] order.
pub fn region_entries(root: Vertex, cut: u8) -> impl Iterator<Item = u64> {
    let free = root.zero_mask() & !((1u64 << cut) - 1);
    std::iter::successors(Some(0u64), move |&prefix| bits::next_subset(prefix, free))
        .map(move |prefix| root.bits() | prefix)
}

/// Collects the bits of every vertex in the SBT subtree rooted at `w`
/// (reached via `via_dim`; `None` means `w` is the query root). By
/// Lemma 3.2 the subtree is fully determined by `w` and the arrival
/// dimension — no state from `w` itself is needed. Allocation-free:
/// children are enumerated directly off the bits, no intermediate
/// child list per node.
pub fn subtree_bits(w: Vertex, via_dim: Option<u8>, out: &mut Vec<u64>) {
    out.push(w.bits());
    for i in bits::ones(child_dims(w, via_dim)).rev() {
        subtree_bits(w.flip(i), Some(i), out);
    }
}

/// The per-vertex `T_QUERY` handler every substrate shares: the ranked
/// scan of one posting store. The keyword sets indexed under supersets
/// of `keywords` are stable-sorted by extra keywords, fewest first (most
/// for [`TraversalOrder::BottomUp`]); their objects are appended to
/// `out` in that order, each ranked by its count, until `limit` are, and
/// how many were is returned. `None` stands for an unmaterialized vertex
/// (logically contacted, holds nothing). `qsig` is the query's
/// [`KeywordSet::signature`] — computed once per traversal — or `0` to
/// scan without the signature prefilter.
pub fn scan_store(
    store: Option<&PostingStore>,
    keywords: &KeywordSet,
    qsig: u64,
    order: TraversalOrder,
    limit: usize,
    out: &mut Vec<RankedObject>,
) -> usize {
    let Some(store) = store else { return 0 };
    let mut sets = store.superset_entries_sig(keywords, qsig);
    match order {
        TraversalOrder::TopDown => sets.sort_by_set_key(KeywordSet::len),
        TraversalOrder::BottomUp => sets.sort_by_set_key(|set| Reverse(set.len())),
    }
    let start = out.len();
    for (keyword_set, objects) in sets {
        let extra = (keyword_set.len() - keywords.len()) as u32;
        let room = limit - (out.len() - start);
        out.extend(objects.take(room).map(|object| RankedObject {
            object,
            keyword_set: keyword_set.clone(),
            extra_keywords: extra,
        }));
        if out.len() - start == limit {
            break;
        }
    }
    out.len() - start
}

/// How the coordinator reacts to unresponsive vertices (§3.4): the
/// simulator's ablation axis, which `ProtocolSim::search_fault_tolerant`
/// takes per search. The runtime has no such choice — a region owner
/// has no subtree to route around, so retrying it is the whole
/// recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStrategy {
    /// Fire-and-forget: no timers, no retries. Any lost message
    /// silently truncates the traversal — the paper's baseline.
    Naive,
    /// Retransmit under [`SIM_RETRY_BUDGET`], then abandon the
    /// unresponsive child's whole subtree.
    RetryOnly,
    /// Retry, then route around a dead child by querying its SBT
    /// children directly from the coordinator (Lemma 3.2: the subtree
    /// is computable from the child's bits and arrival dimension).
    Redelegate,
    /// [`RecoveryStrategy::Redelegate`], plus a sweep of the secondary
    /// hypercube (second hash seed, as in [`crate::replication`]) when
    /// any vertex stayed dead, recovering its locally stored objects.
    ReplicatedFailover,
}

/// How often, and how patiently, one unit is asked before it is given
/// up, in substrate-defined timeout ticks (virtual ticks in the
/// simulator, where the unit is a vertex; milliseconds in the runtime,
/// where it is a region owner). Three exist, all constants:
/// [`SIM_RETRY_BUDGET`], and the runtime worker's two, which the
/// request's kind picks. No search option and no frame carries one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudget {
    /// Retransmissions per unit before declaring it dead.
    pub max_retries: u32,
    /// Timeout for the first attempt; doubles per retry (capped at
    /// `base_timeout × 64`).
    pub base_timeout: u64,
}

impl RetryBudget {
    /// The one retry rule, whatever the unit retried (a vertex for
    /// [`FtCoordinator`], a region owner for the runtime worker): how
    /// many ticks transmission number `attempt` (0 = the first) waits
    /// for its answer — `base_timeout << attempt`, capped at
    /// `base_timeout × 64` — or `None` past the budget's `max_retries`
    /// retransmissions. A unit whose wait expired is sent again exactly
    /// when `attempt_timeout(attempt + 1)` is `Some`.
    pub fn attempt_timeout(&self, attempt: u32) -> Option<u64> {
        (attempt <= self.max_retries)
            .then(|| self.base_timeout.saturating_mul(1u64 << attempt.min(6)))
    }
}

/// The simulator's budget, every [`FtCoordinator`]'s: nine
/// transmissions per vertex, 16 ticks doubling — what the
/// `availability` and `churn` experiments sweep the strategies under.
pub const SIM_RETRY_BUDGET: RetryBudget = RetryBudget {
    max_retries: 8,
    base_timeout: 16,
};

/// What the fault-tolerant coordinator wants its substrate to do.
///
/// The substrate (the simnet event loop) executes each command with
/// its own transport and timer facility and feeds
/// outcomes back via [`FtCoordinator::on_reply`] /
/// [`FtCoordinator::on_scan`] / [`FtCoordinator::on_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtCmd {
    /// (Re)transmit a `T_QUERY` to vertex `bits` and, when `timeout` is
    /// set, arm a retransmission timer for that many ticks. A vertex
    /// the substrate can scan locally may be answered inline by calling
    /// [`FtCoordinator::on_scan`] instead of sending anything.
    Send {
        /// The vertex to query.
        bits: u64,
        /// SBT arrival dimension (`None` for the traversal root).
        via_dim: Option<u8>,
        /// Timer to arm, in ticks ([`RecoveryStrategy::Naive`] arms
        /// none).
        timeout: Option<u64>,
        /// Names this transmission's timer: hand it back to
        /// [`FtCoordinator::on_timeout`], which ignores every
        /// generation but the vertex's latest — a substrate need not
        /// be able to disarm a timer.
        generation: u64,
    },
    /// Disarm the timer guarding `bits` (the vertex answered, or the
    /// threshold was met and the outstanding query no longer matters).
    /// Advisory: a timer left armed fires into a no-op.
    Cancel {
        /// The vertex whose timer dies.
        bits: u64,
    },
    /// The traversal root itself was declared dead: the requester
    /// promotes itself to coordinator (Lemma 3.2 hands it the root's
    /// frontier from the bits alone): continuations are redirected to
    /// the requester's endpoint.
    Promote,
}

/// Exact coverage accounting produced by [`FtCoordinator::finish`] —
/// the one declaration of these counters: `WireMsg::FtQueryDone`
/// carries it, `CoverageReport` embeds it, the runtime client hands it
/// through. A runtime worker fills it per region: `reached` and
/// `skipped` are the vertices of the regions answered for and given
/// up, the message counters count region frames, the recovery counters
/// region owners, `redelegations` stays 0.
///
/// The invariant every substrate asserts: `reached + skipped.len() ==
/// subcube_vertices`, unless the threshold stopped the traversal early
/// (then the remainder is simply unvisited).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FtCoverage {
    /// Vertices in the query's induced subcube (`2^{r−|One|}`).
    pub subcube_vertices: u64,
    /// Distinct vertices confirmed by the coordinator.
    pub reached: u64,
    /// Bits of the vertices given up on, sorted ascending.
    pub skipped: Vec<u64>,
    /// `T_QUERY` transmissions, including retransmissions.
    pub queries_sent: u64,
    /// Continuation messages the coordinator received.
    pub conts: u64,
    /// Continuations that carried at least one result object.
    pub result_messages: u64,
    /// Retransmissions after a timeout.
    pub retries: u64,
    /// Children declared dead after the retry budget ran out.
    pub timeouts: u64,
    /// Dead children whose subtrees were re-delegated.
    pub redelegations: u64,
}

impl FtCoverage {
    /// Adds another pass's message and recovery counters (everything
    /// but the vertex accounting, which stays this pass's own).
    pub fn add_traffic(&mut self, other: &FtCoverage) {
        self.queries_sent += other.queries_sent;
        self.conts += other.conts;
        self.result_messages += other.result_messages;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.redelegations += other.redelegations;
    }
}

/// One outstanding fault-tolerant child query.
#[derive(Debug, Clone, Copy)]
struct FtPending {
    attempts: u32,
    via_dim: Option<u8>,
    /// Generation of the latest transmission (the live timer).
    generation: u64,
}

/// The root-side coordinator of one fault-tolerant superset pass
/// (§3.4) — retry with exponential backoff, SBT subtree re-delegation,
/// result collection, and exact reached/skipped accounting — as a
/// sans-I/O state machine over result items of type `T`.
///
/// The simulator drives it with virtual-time timers and simnet
/// messages (the runtime workers retry per region owner under the same
/// [`RetryBudget::attempt_timeout`], without this machine). The
/// substrate owns transport, timers and per-vertex scans; the machine
/// owns everything else: which vertex is outstanding and which timer is
/// current, the retry budget ([`SIM_RETRY_BUDGET`]), the recovery
/// strategy, the de-duplicated result list and its threshold cut, and
/// every counter of [`FtCoverage`]. It enqueues every SBT child it
/// learns of — the walk as published.
///
/// Protocol: call [`FtCoordinator::start`], execute the emitted
/// [`FtCmd`]s, then feed every continuation to `on_reply` (a local
/// scan to `on_scan`) and every expired timer to `on_timeout`,
/// executing the commands each emits, until nothing is left in flight
/// (the simulator runs its network to quiescence). Finally
/// [`FtCoordinator::finish`] accounts whatever never answered and
/// [`FtCoordinator::into_results`] yields the results.
#[derive(Debug)]
pub struct FtCoordinator<T> {
    root: Vertex,
    keywords: KeywordSet,
    threshold: usize,
    remaining: usize,
    strategy: RecoveryStrategy,
    pending: BTreeMap<u64, FtPending>,
    covered: HashSet<u64>,
    skipped: BTreeSet<u64>,
    done: bool,
    /// Accepted results in arrival order, and the ids among them.
    results: Vec<T>,
    seen: HashSet<ObjectId>,
    /// Counters accumulated so far; `subcube_vertices` is set at
    /// construction, the vertex accounting at [`FtCoordinator::finish`].
    tally: FtCoverage,
}

impl<T> FtCoordinator<T> {
    /// A machine for one pass rooted at `root` wanting up to
    /// `threshold` results, recovering under `strategy`. Callers
    /// validate `threshold > 0` (see [`crate::Error::ZeroThreshold`]).
    pub fn new(
        root: Vertex,
        keywords: KeywordSet,
        threshold: usize,
        strategy: RecoveryStrategy,
    ) -> Self {
        FtCoordinator {
            root,
            keywords,
            threshold,
            remaining: threshold,
            strategy,
            pending: BTreeMap::new(),
            covered: HashSet::new(),
            skipped: BTreeSet::new(),
            done: false,
            results: Vec::new(),
            seen: HashSet::new(),
            tally: FtCoverage {
                subcube_vertices: 1u64 << root.zero_positions().count(),
                ..FtCoverage::default()
            },
        }
    }

    /// A machine for a second sweep of the same query — rooted at
    /// `root` in another cube — that keeps this one's results, so an
    /// object both cubes hold is returned once. The budget starts over
    /// at the threshold; the sweep recovers by re-delegation (there is
    /// no third cube to fail over to).
    pub fn sweep_again(self, root: Vertex) -> Self {
        FtCoordinator {
            results: self.results,
            seen: self.seen,
            ..FtCoordinator::new(
                root,
                self.keywords,
                self.threshold,
                RecoveryStrategy::Redelegate,
            )
        }
    }

    /// The traversal root this pass sweeps from.
    pub fn root(&self) -> Vertex {
        self.root
    }

    /// The queried keyword set (shared across every hop).
    pub fn keywords(&self) -> &KeywordSet {
        &self.keywords
    }

    /// Results still wanted (the paper's `c`).
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Whether `bits` already answered — substrates use this to drop
    /// duplicate deliveries of a retried root query without re-scanning.
    pub fn is_covered(&self, bits: u64) -> bool {
        self.covered.contains(&bits)
    }

    /// Emits the initial root query. Call exactly once.
    pub fn start(&mut self, cmds: &mut Vec<FtCmd>) {
        debug_assert!(self.pending.is_empty() && self.covered.is_empty());
        self.transmit(self.root.bits(), None, 0, cmds);
    }

    /// Folds in one continuation *message* from vertex `bits`:
    /// `objects` are the matches it carried, keyed by object id (a
    /// retransmitted query re-delivers its results, so only ids not
    /// seen before are kept and consume budget); `children` are the
    /// vertex's SBT child contacts.
    ///
    /// A reply from a vertex already given up on resurrects it: it is
    /// alive, merely slow or unlucky. Duplicate replies still consume
    /// budget for any genuinely-new objects but never re-enqueue
    /// children.
    pub fn on_reply(
        &mut self,
        bits: u64,
        objects: impl IntoIterator<Item = (ObjectId, T)>,
        children: &[(u64, u8)],
        cmds: &mut Vec<FtCmd>,
    ) {
        let mut objects = objects.into_iter().peekable();
        self.tally.conts += 1;
        self.tally.result_messages += u64::from(objects.peek().is_some());
        self.on_scan(bits, objects, children, cmds);
    }

    /// [`FtCoordinator::on_reply`] for a vertex the substrate scanned
    /// in place of executing a [`FtCmd::Send`]: no message travelled,
    /// so none is counted.
    pub fn on_scan(
        &mut self,
        bits: u64,
        objects: impl IntoIterator<Item = (ObjectId, T)>,
        children: &[(u64, u8)],
        cmds: &mut Vec<FtCmd>,
    ) {
        let fresh = !self.covered.contains(&bits);
        if fresh {
            self.skipped.remove(&bits);
            if self.pending.remove(&bits).is_some() {
                cmds.push(FtCmd::Cancel { bits });
            }
            self.covered.insert(bits);
        }
        let before = self.results.len();
        for (id, object) in objects {
            if self.seen.insert(id) {
                self.results.push(object);
            }
        }
        self.remaining = self.remaining.saturating_sub(self.results.len() - before);
        if self.remaining == 0 {
            self.stop(cmds);
        } else if fresh && !self.done {
            self.enqueue_children(children, cmds);
        }
    }

    /// The retransmission timer armed by the [`FtCmd::Send`] of
    /// `generation` for `bits` expired: retry with doubled timeout
    /// while budget remains, otherwise declare the child dead and apply
    /// the recovery strategy. A timer that is not the vertex's current
    /// one (it answered, was retried, or the threshold was met) is
    /// ignored.
    pub fn on_timeout(&mut self, bits: u64, generation: u64, cmds: &mut Vec<FtCmd>) {
        if self.done {
            return;
        }
        let Some(p) = self.pending.get(&bits).copied() else {
            return;
        };
        if p.generation != generation {
            return;
        }
        if SIM_RETRY_BUDGET.attempt_timeout(p.attempts + 1).is_some() {
            self.tally.retries += 1;
            self.transmit(bits, p.via_dim, p.attempts + 1, cmds);
            return;
        }
        // Budget exhausted: the child is dead.
        self.pending.remove(&bits);
        self.tally.timeouts += 1;
        let vertex = Vertex::from_bits(self.root.shape(), bits).expect("pending keys are vertices");
        match self.strategy {
            RecoveryStrategy::Naive => unreachable!("naive arms no timers"),
            // The whole subtree behind the dead child is unreachable.
            RecoveryStrategy::RetryOnly => self.skip_subtree(vertex, p.via_dim),
            RecoveryStrategy::Redelegate | RecoveryStrategy::ReplicatedFailover => {
                self.skipped.insert(bits);
                if p.via_dim.is_none() {
                    // The root itself is dead: promote the requester.
                    cmds.push(FtCmd::Promote);
                }
                let children = child_contacts(vertex, p.via_dim).collect::<Vec<_>>();
                if !children.is_empty() {
                    self.tally.redelegations += 1;
                    self.enqueue_children(&children, cmds);
                }
            }
        }
    }

    /// Quiescence: accounts queries still outstanding (no timers were
    /// armed, or the coordinator died) as skipped subtrees and returns
    /// the pass's exact coverage.
    pub fn finish(&mut self) -> FtCoverage {
        for (bits, p) in std::mem::take(&mut self.pending) {
            let vertex =
                Vertex::from_bits(self.root.shape(), bits).expect("pending keys are vertices");
            self.skip_subtree(vertex, p.via_dim);
        }
        FtCoverage {
            reached: self.covered.len() as u64,
            skipped: self.skipped.iter().copied().collect(),
            ..self.tally.clone()
        }
    }

    /// The de-duplicated results in arrival order, cut to the
    /// threshold.
    pub fn into_results(mut self) -> Vec<T> {
        self.results.truncate(self.threshold);
        self.results
    }

    /// Marks every not-yet-covered vertex of the SBT subtree under
    /// `vertex` as given up on.
    fn skip_subtree(&mut self, vertex: Vertex, via_dim: Option<u8>) {
        let mut subtree = Vec::new();
        subtree_bits(vertex, via_dim, &mut subtree);
        self.skipped
            .extend(subtree.into_iter().filter(|w| !self.covered.contains(w)));
    }

    /// Threshold met: latch done and cancel everything outstanding
    /// (those vertices are unvisited, not skipped).
    fn stop(&mut self, cmds: &mut Vec<FtCmd>) {
        self.done = true;
        for (bits, _) in std::mem::take(&mut self.pending) {
            cmds.push(FtCmd::Cancel { bits });
        }
    }

    /// Queries every not-yet-tracked child.
    fn enqueue_children(&mut self, children: &[(u64, u8)], cmds: &mut Vec<FtCmd>) {
        for &(bits, dim) in children {
            if self.covered.contains(&bits)
                || self.skipped.contains(&bits)
                || self.pending.contains_key(&bits)
            {
                continue;
            }
            self.transmit(bits, Some(dim), 0, cmds);
        }
    }

    /// Emits one (re)transmission and makes its timer the vertex's
    /// current one.
    fn transmit(&mut self, bits: u64, via_dim: Option<u8>, attempt: u32, cmds: &mut Vec<FtCmd>) {
        self.tally.queries_sent += 1;
        // Transmissions are numbered as they are counted, so every one
        // has a generation of its own.
        let generation = self.tally.queries_sent;
        self.pending.insert(
            bits,
            FtPending {
                attempts: attempt,
                via_dim,
                generation,
            },
        );
        // Naive is fire-and-forget: it arms no timer, so it never
        // retries.
        let timeout = match self.strategy {
            RecoveryStrategy::Naive => None,
            _ => SIM_RETRY_BUDGET.attempt_timeout(attempt),
        };
        cmds.push(FtCmd::Send {
            bits,
            via_dim,
            timeout,
            generation,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::HypercubeIndex;
    use crate::fixtures::{oid, set, CORPUS};
    use crate::search::SupersetQuery;
    use hyperdex_hypercube::Shape;

    fn index(r: u8) -> HypercubeIndex {
        let mut idx = HypercubeIndex::new(r, 0).unwrap();
        for &(id, kws) in CORPUS {
            idx.insert(oid(id), set(kws)).unwrap();
        }
        idx
    }

    #[test]
    fn coordinator_covers_the_whole_subcube_once() {
        let shape = Shape::new(6).unwrap();
        let hasher = crate::hashing::KeywordHasher::new(6, 0).unwrap();
        let kw = set("a");
        let root = hasher.vertex_for(&kw);
        let mut coord = SupersetCoordinator::with_queue(root, usize::MAX - 1, VecDeque::new());
        let mut seen = std::collections::BTreeSet::new();
        loop {
            match coord.next_step() {
                Step::Finished => break,
                Step::Visit { bits, via_dim } => {
                    assert!(seen.insert(bits), "vertex {bits:#x} visited twice");
                    let v = Vertex::from_bits(shape, bits).unwrap();
                    coord.record_visit(0, child_contacts(v, via_dim));
                }
            }
        }
        let free = root.zero_positions().count();
        assert_eq!(seen.len() as u64, 1u64 << free, "full induced subcube");
        assert!(seen.iter().all(|&b| b & root.bits() == root.bits()));
    }

    #[test]
    fn coordinator_stops_at_threshold() {
        let hasher = crate::hashing::KeywordHasher::new(6, 0).unwrap();
        let kw = set("a");
        let root = hasher.vertex_for(&kw);
        let mut coord = SupersetCoordinator::with_queue(root, 3, VecDeque::new());
        // Root answers 2, first child answers 1 — done, rest unvisited.
        assert!(matches!(
            coord.next_step(),
            Step::Visit { via_dim: None, .. }
        ));
        coord.record_visit(2, child_contacts(root, None));
        assert_eq!(coord.remaining(), 1);
        let Step::Visit { bits, via_dim } = coord.next_step() else {
            panic!("frontier must be non-empty");
        };
        let v = Vertex::from_bits(root.shape(), bits).unwrap();
        coord.record_visit(1, child_contacts(v, via_dim));
        assert!(coord.is_done());
        assert_eq!(coord.next_step(), Step::Finished);
    }

    #[test]
    fn coordinator_stop_latches() {
        let hasher = crate::hashing::KeywordHasher::new(6, 0).unwrap();
        let kw = set("a");
        let root = hasher.vertex_for(&kw);
        let mut coord = SupersetCoordinator::with_queue(root, 10, VecDeque::new());
        coord.next_step();
        coord.record_visit(0, child_contacts(root, None));
        coord.stop();
        assert_eq!(coord.next_step(), Step::Finished);
    }

    #[test]
    fn queue_reuse_keeps_capacity_and_clears_contents() {
        let hasher = crate::hashing::KeywordHasher::new(8, 0).unwrap();
        let kw = set("a");
        let root = hasher.vertex_for(&kw);
        let mut coord = SupersetCoordinator::with_queue(root, usize::MAX - 1, VecDeque::new());
        coord.next_step();
        coord.record_visit(0, child_contacts(root, None));
        let queue = coord.into_queue();
        assert!(!queue.is_empty(), "children were queued");
        let reused = SupersetCoordinator::with_queue(root, 10, queue);
        assert!(reused.frontier.is_empty(), "reused queue starts empty");
    }

    /// The direct engine's sequential top-down search is the
    /// coordinator loop: it must return exactly the brute-force match
    /// set and contact every vertex of the induced subcube once.
    #[test]
    fn direct_engine_covers_the_subcube_and_matches_brute_force() {
        let mut idx = index(10);
        for query in ["a", "a b", "b", "x", "zzz"] {
            let kw = set(query);
            let root = idx.vertex_for(&kw);
            // The walk as published: it is the one that visits all of
            // `H_r(root)`.
            let published = SupersetQuery::new(kw.clone()).prune(false);
            let direct = idx.superset_search(&published).unwrap();
            let mut got: Vec<ObjectId> = direct.results.iter().map(|r| r.object).collect();
            got.sort_unstable();
            let want: Vec<ObjectId> = CORPUS
                .iter()
                .filter(|(_, kws)| set(kws).is_superset(&kw))
                .map(|&(id, _)| oid(id))
                .collect();
            assert_eq!(got, want, "query {query}");
            assert_eq!(
                direct.stats.nodes_contacted,
                1u64 << root.zero_count(),
                "node count for {query}"
            );
            assert!(direct.exhausted);
        }
    }

    #[test]
    fn direct_engine_respects_threshold() {
        let mut idx = index(8);
        let out = idx
            .superset_search(&SupersetQuery::new(set("a")).threshold(2))
            .unwrap();
        assert_eq!(out.results.len(), 2);
        assert!(!out.exhausted);
    }

    #[test]
    fn scan_store_honors_limit_and_missing_stores() {
        use TraversalOrder::{BottomUp, TopDown};
        let q = set("a");
        let mut out = Vec::new();
        assert_eq!(
            scan_store(None, &q, q.signature(), TopDown, 10, &mut out),
            0
        );
        let mut store = PostingStore::default();
        for i in 0..5 {
            store.insert(set(&format!("a extra{i}")), oid(i));
        }
        out.clear();
        let qsig = q.signature();
        assert_eq!(scan_store(Some(&store), &q, qsig, TopDown, 3, &mut out), 3);
        assert_eq!(out.len(), 3);
        // Appends: earlier contents stay, the prefilter-off scan agrees.
        assert_eq!(scan_store(Some(&store), &q, 0, TopDown, 99, &mut out), 5);
        assert_eq!(out.len(), 8);
        assert_eq!(out[..3], out[3..6]);
        assert!(out.iter().all(|r| r.extra_keywords == 1));
        let miss = set("q");
        let msig = miss.signature();
        assert_eq!(
            scan_store(Some(&store), &miss, msig, TopDown, 99, &mut out),
            0
        );

        // The cut falls in ranked order, not the store's: the store
        // keeps `a b c` ahead of `a z`, a scan keeps the fewest extra
        // keywords first (the most, walking bottom-up).
        let mut store = PostingStore::default();
        store.insert(set("a z"), oid(11));
        store.insert(set("a b c"), oid(10));
        store.insert(set("a b d"), oid(12));
        let stored: Vec<_> = store
            .superset_entries_sig(&q, qsig)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(stored, [&set("a b c"), &set("a b d"), &set("a z")]);
        let ranked = |order, limit| {
            let mut out = Vec::new();
            scan_store(Some(&store), &q, qsig, order, limit, &mut out);
            out.iter()
                .map(|r| (r.object, r.extra_keywords))
                .collect::<Vec<_>>()
        };
        assert_eq!(ranked(TopDown, 1), [(oid(11), 1)]);
        assert_eq!(ranked(TopDown, 2), [(oid(11), 1), (oid(10), 2)]);
        assert_eq!(ranked(BottomUp, 2), [(oid(10), 2), (oid(12), 2)]);
        assert_eq!(ranked(BottomUp, 9).last(), Some(&(oid(11), 1)));
    }

    /// The machine over bare object ids.
    type Machine = FtCoordinator<ObjectId>;

    /// A machine for the query `a` in `H_6`, with its root.
    fn machine(threshold: usize, strategy: RecoveryStrategy) -> (Machine, Vertex) {
        let kw = set("a");
        let root = crate::hashing::KeywordHasher::new(6, 0)
            .unwrap()
            .vertex_for(&kw);
        (Machine::new(root, kw, threshold, strategy), root)
    }

    /// `n` result items with ids `from..from + n`.
    fn hits(from: u64, n: u64) -> Vec<(ObjectId, ObjectId)> {
        (from..from + n).map(|i| (oid(i), oid(i))).collect()
    }

    /// Fires the timer of every transmission to `bits`, the first
    /// among `cmds`, until the machine gives the vertex up; returns the
    /// timeout each transmission armed, in order, and the commands the
    /// last expiry emitted.
    fn time_out(m: &mut Machine, bits: u64, cmds: &[FtCmd]) -> (Vec<Option<u64>>, Vec<FtCmd>) {
        let mut waits = Vec::new();
        let mut cmds = cmds.to_vec();
        while let Some((generation, timeout)) = cmds.iter().find_map(|c| match *c {
            FtCmd::Send {
                bits: b,
                timeout,
                generation,
                ..
            } if b == bits => Some((generation, timeout)),
            _ => None,
        }) {
            waits.push(timeout);
            cmds.clear();
            m.on_timeout(bits, generation, &mut cmds);
            // The timer that just fired is spent: firing it again (a
            // substrate that cannot disarm) changes nothing.
            let mut none = Vec::new();
            m.on_timeout(bits, generation, &mut none);
            assert!(none.is_empty(), "stale timer acted: {none:?}");
        }
        (waits, cmds)
    }

    /// An unarmed first transmission, for re-driving a consumed `Send`.
    fn resend(bits: u64, dim: u8) -> FtCmd {
        FtCmd::Send {
            bits,
            via_dim: Some(dim),
            timeout: None,
            generation: 0,
        }
    }

    /// A perfect substrate: every `Send` among `cmds`, and every one
    /// answering it emits, is answered at once with zero results and
    /// the true SBT children.
    fn answer_all(machine: &mut Machine, root: Vertex, mut cmds: Vec<FtCmd>) {
        while let Some(cmd) = cmds.pop() {
            if let FtCmd::Send { bits, via_dim, .. } = cmd {
                let v = Vertex::from_bits(root.shape(), bits).unwrap();
                let children = child_contacts(v, via_dim).collect::<Vec<_>>();
                machine.on_reply(bits, hits(0, 0), &children, &mut cmds);
            }
        }
        assert_eq!(machine.pending.len(), 0);
    }

    #[test]
    fn ft_machine_fault_free_covers_the_subcube() {
        for strategy in [
            RecoveryStrategy::Naive,
            RecoveryStrategy::RetryOnly,
            RecoveryStrategy::Redelegate,
        ] {
            let (mut m, root) = machine(usize::MAX - 1, strategy);
            let mut cmds = Vec::new();
            m.start(&mut cmds);
            answer_all(&mut m, root, cmds);
            let cov = m.finish();
            assert_eq!(cov.reached, cov.subcube_vertices, "{strategy:?}");
            assert!(cov.skipped.is_empty());
            assert_eq!(cov.retries, 0);
            assert_eq!(cov.timeouts, 0);
            assert_eq!(cov.queries_sent, cov.subcube_vertices);
        }
    }

    #[test]
    fn ft_machine_retries_then_redelegates_a_dead_child() {
        let (mut m, root) = machine(usize::MAX - 1, RecoveryStrategy::Redelegate);
        let mut cmds = Vec::new();
        m.start(&mut cmds);
        // Root answers with its children; pick the first child as dead.
        let children = child_contacts(root, None).collect::<Vec<_>>();
        cmds.clear();
        m.on_reply(root.bits(), hits(0, 0), &children, &mut cmds);
        let (dead, dead_dim) = children[0];
        // Timers expire: one `Send` per transmission, the first and
        // `max_retries` retransmissions, each waiting twice the last
        // (capped at 64 × the base); then the child is declared dead
        // and re-delegated.
        let (waits, mut cmds) = time_out(&mut m, dead, &cmds);
        let base = SIM_RETRY_BUDGET.base_timeout;
        let schedule = (0..=SIM_RETRY_BUDGET.max_retries)
            .map(|attempt| Some(base << attempt.min(6)))
            .collect::<Vec<_>>();
        assert_eq!(waits, schedule);
        let dead_vertex = Vertex::from_bits(root.shape(), dead).unwrap();
        for (gc, _) in child_contacts(dead_vertex, Some(dead_dim)) {
            assert!(
                cmds.iter()
                    .any(|c| matches!(c, FtCmd::Send { bits, .. } if *bits == gc)),
                "grandchild {gc:#x} re-delegated"
            );
        }
        // Answer everything still outstanding: the re-delegated
        // grandchildren plus the root's other children (whose original
        // `Send`s were consumed above).
        cmds.extend(children.iter().skip(1).map(|&(b, d)| resend(b, d)));
        answer_all(&mut m, root, cmds);
        let cov = m.finish();
        assert_eq!(cov.skipped, vec![dead], "only the dead child skipped");
        assert_eq!(cov.reached, cov.subcube_vertices - 1);
        assert_eq!(cov.retries, u64::from(SIM_RETRY_BUDGET.max_retries));
        assert_eq!(cov.timeouts, 1);
        assert_eq!(cov.redelegations, 1);
    }

    #[test]
    fn ft_machine_threshold_stop_cancels_not_skips() {
        let (mut m, root) = machine(1, RecoveryStrategy::RetryOnly);
        let mut cmds = Vec::new();
        m.start(&mut cmds);
        let children = child_contacts(root, None).collect::<Vec<_>>();
        cmds.clear();
        m.on_reply(root.bits(), hits(0, 0), &children, &mut cmds);
        assert!(!m.pending.is_empty());
        // First child satisfies the threshold: everything else cancels.
        cmds.clear();
        m.on_reply(children[0].0, hits(0, 1), &[], &mut cmds);
        assert!(m.done);
        assert_eq!(m.pending.len(), 0);
        assert!(cmds.iter().all(|c| matches!(c, FtCmd::Cancel { .. })));
        let cov = m.finish();
        assert!(cov.skipped.is_empty(), "early stop skips nothing");
    }

    #[test]
    fn ft_machine_late_reply_resurrects_a_skipped_vertex() {
        let (mut m, root) = machine(usize::MAX - 1, RecoveryStrategy::Redelegate);
        let mut cmds = Vec::new();
        m.start(&mut cmds);
        let children = child_contacts(root, None).collect::<Vec<_>>();
        cmds.clear();
        m.on_reply(root.bits(), hits(0, 0), &children, &mut cmds);
        let (dead, dead_dim) = children[0];
        let (_, redelegated) = time_out(&mut m, dead, &cmds);
        assert!(m.skipped.contains(&dead));
        // The "dead" child answers after all — it returns to reached and
        // its (already re-delegated) children are not double-enqueued.
        cmds.clear();
        let dead_vertex = Vertex::from_bits(root.shape(), dead).unwrap();
        let kids = child_contacts(dead_vertex, Some(dead_dim)).collect::<Vec<_>>();
        m.on_reply(dead, hits(0, 0), &kids, &mut cmds);
        assert!(m.is_covered(dead));
        assert!(!cmds
            .iter()
            .any(|c| matches!(c, FtCmd::Send { bits, .. } if kids.iter().any(|k| k.0 == *bits))));
        // Answer everything still outstanding (original children and the
        // re-delegated grandchildren), then verify the resurrection.
        let mut queue: Vec<FtCmd> = redelegated;
        queue.extend(children.iter().skip(1).map(|&(b, d)| resend(b, d)));
        answer_all(&mut m, root, queue);
        let cov = m.finish();
        assert!(cov.skipped.is_empty(), "resurrected: {:?}", cov.skipped);
        assert_eq!(cov.reached, cov.subcube_vertices);
    }

    #[test]
    fn ft_machine_collects_each_object_once_and_cuts_at_the_threshold() {
        let (mut m, root) = machine(4, RecoveryStrategy::Redelegate);
        let mut cmds = Vec::new();
        m.start(&mut cmds);
        let children = child_contacts(root, None).collect::<Vec<_>>();
        // The root is scanned in place: objects 0 and 1, no message.
        m.on_scan(root.bits(), hits(0, 2), &children, &mut cmds);
        assert_eq!(m.remaining(), 2);
        // A continuation re-delivering object 1 beside the new object 2
        // consumes budget for the new one only…
        m.on_reply(children[0].0, hits(1, 2), &[], &mut cmds);
        assert_eq!(m.remaining(), 1);
        // …an empty one is a continuation but no result message, and a
        // duplicate of the first changes nothing but the tallies…
        m.on_reply(children[1].0, hits(0, 0), &[], &mut cmds);
        m.on_reply(children[0].0, hits(1, 2), &[], &mut cmds);
        assert!(!m.done);
        // …and one that overshoots the budget stops the pass.
        m.on_reply(children[2].0, hits(3, 3), &[], &mut cmds);
        assert!(m.done);
        let cov = m.finish();
        assert_eq!((cov.conts, cov.result_messages), (4, 3));
        assert_eq!(cov.reached, 4);

        // A second sweep keeps what the first collected: a replica of
        // object 0 is not returned again, and the results are cut to
        // the threshold in arrival order.
        let mut again = m.sweep_again(root);
        cmds.clear();
        again.start(&mut cmds);
        assert_eq!(again.remaining(), 4);
        again.on_scan(root.bits(), hits(0, 1), &[], &mut cmds);
        assert_eq!(again.remaining(), 4);
        assert_eq!(again.finish().conts, 0);
        assert_eq!(again.into_results(), [0, 1, 2, 3].map(oid));
    }

    #[test]
    fn ft_machine_naive_arms_no_timers_and_accounts_pending() {
        let (mut m, _) = machine(usize::MAX - 1, RecoveryStrategy::Naive);
        let mut cmds = Vec::new();
        m.start(&mut cmds);
        assert!(matches!(cmds[0], FtCmd::Send { timeout: None, .. }));
        // The root query is lost; quiescence accounts the whole subcube.
        let cov = m.finish();
        assert_eq!(cov.skipped.len() as u64, cov.subcube_vertices);
        assert_eq!(cov.reached, 0);
    }

    #[test]
    fn subtree_bits_counts_lemma_3_2() {
        let shape = Shape::new(6).unwrap();
        let root = Vertex::from_bits(shape, 0b100).unwrap();
        let mut out = Vec::new();
        subtree_bits(root, None, &mut out);
        assert_eq!(out.len() as u64, 1 << 5, "root subtree spans free dims");
        let child = root.flip(4);
        out.clear();
        subtree_bits(child, Some(4), &mut out);
        // Free dims strictly below 4 excluding bit 2 (set): {0, 1, 3}.
        assert_eq!(out.len(), 1 << 3);
    }
}
