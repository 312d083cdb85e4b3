//! Search operations: pin search and the superset-search protocol.
//!
//! §2.2 defines the two services the index must provide:
//!
//! * **Pin search** — objects whose keyword set is *exactly* `K`: one
//!   lookup to the node `F_h(K)`.
//! * **Superset search** — up to `t` objects whose keyword sets
//!   *contain* `K`: a traversal of the subhypercube induced by `F_h(K)`
//!   along its spanning binomial tree, with early exit.
//!
//! [`SupersetQuery`] configures the traversal (threshold, top-down vs.
//! bottom-up preference, sequential vs. level-parallel execution,
//! pruning); [`SearchStats`] carries the cost accounting the paper's
//! figures report.

pub mod cumulative;
pub mod superset;

use hyperdex_dht::ObjectId;

use crate::error::Error;
use crate::keyword::KeywordSet;

/// The order in which the spanning binomial tree is explored (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraversalOrder {
    /// Breadth-first from the root: prefers *general* objects (fewest
    /// extra keywords first). The paper's presented variant.
    #[default]
    TopDown,
    /// Deepest levels first: prefers *specific* objects (most extra
    /// keywords first). The paper's "slight modification".
    BottomUp,
}

/// How query messages propagate through the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// One `T_QUERY` outstanding at a time, coordinated by the root
    /// (§3.3's protocol). Time ∝ nodes contacted.
    #[default]
    Sequential,
    /// All nodes of a tree level queried simultaneously (§3.5). Time ∝
    /// tree depth; may overshoot the threshold within the final level.
    LevelParallel,
}

/// A superset-search request.
///
/// # Example
///
/// ```
/// use hyperdex_core::{KeywordSet, SupersetQuery, TraversalOrder};
///
/// let query = SupersetQuery::new(KeywordSet::parse("jazz piano")?)
///     .threshold(20)
///     .order(TraversalOrder::BottomUp);
/// assert_eq!(query.threshold, 20);
/// # Ok::<(), hyperdex_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupersetQuery {
    /// The keyword set `K` that results must contain.
    pub keywords: KeywordSet,
    /// Maximum number of objects to return (`t` in the paper).
    pub threshold: usize,
    /// Result-ordering preference.
    pub order: TraversalOrder,
    /// Sequential protocol or level-parallel broadcast.
    pub mode: ExecutionMode,
    /// Whether the occupancy summary prunes provably match-free SBT
    /// subtrees of the sequential top-down walk (recall-safe; see
    /// [`crate::summary`]). `false` is the walk as published, which the
    /// reproduction's figures count; the level-order walks (bottom-up,
    /// level-parallel) always run as published.
    pub prune: bool,
}

impl SupersetQuery {
    /// Creates a query returning *all* matches (threshold `usize::MAX`),
    /// top-down, sequential, pruning enabled. Such a search is
    /// exhaustive, so a cache in front of the index (§4's cache
    /// experiment) may keep its answer for any threshold.
    pub fn new(keywords: KeywordSet) -> Self {
        SupersetQuery {
            keywords,
            threshold: usize::MAX,
            order: TraversalOrder::TopDown,
            mode: ExecutionMode::Sequential,
            prune: true,
        }
    }

    /// Sets the result threshold `t`.
    pub fn threshold(mut self, t: usize) -> Self {
        self.threshold = t;
        self
    }

    /// Sets the traversal order.
    pub fn order(mut self, order: TraversalOrder) -> Self {
        self.order = order;
        self
    }

    /// Sets the execution mode.
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables or disables occupancy-guided pruning of provably
    /// match-free subtrees — the same result sequence from fewer nodes;
    /// `false` selects the walk exactly as published. The flag applies
    /// to the sequential top-down walk: the level-order walks
    /// (bottom-up, level-parallel) run as published either way, with
    /// identical results and costs and `pruned_subtrees == 0`.
    pub fn prune(mut self, on: bool) -> Self {
        self.prune = on;
        self
    }

    /// Validates the query (non-zero threshold).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroThreshold`] when `threshold == 0`.
    pub fn validate(&self) -> Result<(), Error> {
        if self.threshold == 0 {
            return Err(Error::ZeroThreshold);
        }
        Ok(())
    }
}

/// Cost accounting for one search operation — the quantities the
/// paper's evaluation reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Distinct hypercube nodes that processed the query (the Y axis of
    /// Figures 8 and 9, as a fraction of `2^r`). A vertex a pruned walk
    /// walks through — its own signature cannot cover the query's — is
    /// not contacted.
    pub nodes_contacted: u64,
    /// `T_QUERY` messages sent.
    pub query_messages: u64,
    /// `T_CONT` / `T_STOP` coordination messages sent back to the root.
    pub control_messages: u64,
    /// Result-delivery messages sent directly to the requester.
    pub result_messages: u64,
    /// Index entries scanned across all contacted nodes.
    pub entries_scanned: u64,
    /// Whether a cache served (part of) the query. No search sets it:
    /// the index holds no cache, and Figure 9's replay counts its own
    /// hits. It stays only because `benchmark/` reads it, so its
    /// `core.cache_hit_ratio` reads 0.
    pub cache_hit: bool,
    /// Parallel rounds used (level-parallel mode only; 0 otherwise).
    pub rounds: u32,
    /// SBT subtrees skipped because the occupancy summary proved them
    /// match-free (a pruned top-down walk only; 0 otherwise).
    pub pruned_subtrees: u64,
}

impl SearchStats {
    /// Component-wise sum — one row for a search made of several walks
    /// (from `SearchStats::default()`, all zero): every counter adds,
    /// and the flag ORs.
    pub fn add(&mut self, other: &SearchStats) {
        self.nodes_contacted += other.nodes_contacted;
        self.query_messages += other.query_messages;
        self.control_messages += other.control_messages;
        self.result_messages += other.result_messages;
        self.entries_scanned += other.entries_scanned;
        self.cache_hit |= other.cache_hit;
        self.rounds += other.rounds;
        self.pruned_subtrees += other.pruned_subtrees;
    }

    /// Total messages of all kinds.
    pub fn total_messages(&self) -> u64 {
        self.query_messages + self.control_messages + self.result_messages
    }
}

/// One search result: an object together with the keyword set it is
/// indexed under and how many keywords it has beyond the query — the
/// ranking signal of §1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedObject {
    /// The matching object.
    pub object: ObjectId,
    /// The full keyword set the object is indexed under (its buffer
    /// shared with the index table — cloning a result is
    /// pointer-cheap).
    pub keyword_set: KeywordSet,
    /// `|K_σ| − |K|`: extra keywords beyond the query.
    pub extra_keywords: u32,
}

/// Outcome of a pin search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinOutcome {
    /// Objects indexed under exactly the queried keyword set.
    pub results: Vec<ObjectId>,
    /// Cost accounting (always one node, one query message).
    pub stats: SearchStats,
}

/// Outcome of a superset search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupersetOutcome {
    /// Matching objects in traversal order (top-down: fewest extra
    /// keywords first).
    pub results: Vec<RankedObject>,
    /// Cost accounting.
    pub stats: SearchStats,
    /// Whether the traversal covered the entire subhypercube (`false`
    /// when the threshold stopped it early).
    pub exhausted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_builder_defaults() {
        let q = SupersetQuery::new(KeywordSet::parse("a").unwrap());
        assert_eq!(q.threshold, usize::MAX);
        assert_eq!(q.order, TraversalOrder::TopDown);
        assert_eq!(q.mode, ExecutionMode::Sequential);
        assert!(q.prune, "the product walk prunes");
        assert!(q.validate().is_ok());
        assert!(
            !q.prune(false).prune,
            "the as-published walk is one call away"
        );
    }

    #[test]
    fn zero_threshold_invalid() {
        let q = SupersetQuery::new(KeywordSet::new()).threshold(0);
        assert_eq!(q.validate(), Err(Error::ZeroThreshold));
    }

    #[test]
    fn stats_total() {
        let stats = SearchStats {
            query_messages: 3,
            control_messages: 2,
            result_messages: 4,
            ..Default::default()
        };
        assert_eq!(stats.total_messages(), 9);
    }
}
