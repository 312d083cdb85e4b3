//! Cumulative (resumable) superset search (§2.2, §3.3).
//!
//! "Superset search can be designated as *cumulative*, where the results
//! returned by consecutive searches with the same keyword set must be
//! different … implemented by letting the root node `F_h(K)` keep the
//! queue `U` for subsequent queries until the search has completed."
//!
//! [`CumulativeSearch`] is that session state: the shared
//! [`SupersetCoordinator`] machine (whose frontier queue is `U`) plus a
//! buffer of scanned-but-undelivered results (a node may hold more
//! matches than the batch needed; the root buffers the overflow so
//! later batches do not re-contact the node). The walk is the product
//! default — children the occupancy summary disproves at the time
//! their parent is visited never enter `U` — so the pages of a session
//! over an unchanging index cost what the one-shot search costs.
//!
//! The one-shot sequential top-down search *is* such a session's first
//! page: [`crate::search::superset`] opens one per query (pruning or
//! walking as published, as the query says, with the index's recycled
//! queue), takes a page of `t` and closes it. The direct engine has no
//! other top-down walk.

use std::collections::VecDeque;

use hyperdex_hypercube::Vertex;

use crate::cluster::HypercubeIndex;
use crate::error::Error;
use crate::keyword::KeywordSet;
use crate::protocol::{child_contacts, scan_store, Step, SupersetCoordinator};
use crate::ranking::prefer_general;
use crate::search::{RankedObject, SearchStats, SupersetOutcome};
use crate::summary::Pruner;

/// A resumable top-down superset search over one keyword set.
///
/// # Example
///
/// ```
/// use hyperdex_core::search::cumulative::CumulativeSearch;
/// use hyperdex_core::{HypercubeIndex, KeywordSet, ObjectId};
///
/// let mut index = HypercubeIndex::new(8, 0)?;
/// for i in 0..10 {
///     index.insert(
///         ObjectId::from_raw(i),
///         KeywordSet::parse(&format!("rock track{i}"))?,
///     )?;
/// }
/// let mut session = CumulativeSearch::new(&index, KeywordSet::parse("rock")?);
/// let first = session.next_batch(&index, 4)?;
/// let second = session.next_batch(&index, 4)?;
/// assert_eq!(first.results.len(), 4);
/// // Consecutive batches never repeat an object.
/// for r in &second.results {
///     assert!(!first.results.contains(r));
/// }
/// # Ok::<(), hyperdex_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct CumulativeSearch {
    keywords: KeywordSet,
    /// The traversal machine. Its budget is unbounded: the session, not
    /// the machine, meters results per batch, because a node's overflow
    /// is buffered for the next batch instead of stopping the walk.
    coord: SupersetCoordinator,
    /// Whether the occupancy summary prunes the walk (`false` only for a
    /// one-shot search that asked for the walk as published).
    prune: bool,
    pending: VecDeque<RankedObject>,
    delivered: usize,
}

impl CumulativeSearch {
    /// Opens a session for `keywords` against `index`.
    pub fn new(index: &HypercubeIndex, keywords: KeywordSet) -> Self {
        Self::open(index, keywords, true, VecDeque::new())
    }

    /// [`CumulativeSearch::new`] walking as published unless `prune`,
    /// its queue `U` in `queue`'s buffer (cleared first); hand the
    /// buffer back with [`CumulativeSearch::into_queue`].
    pub(crate) fn open(
        index: &HypercubeIndex,
        keywords: KeywordSet,
        prune: bool,
        queue: VecDeque<(u64, u8)>,
    ) -> Self {
        let root = index.vertex_for(&keywords);
        CumulativeSearch {
            keywords,
            coord: SupersetCoordinator::with_queue(root, usize::MAX, queue),
            prune,
            pending: VecDeque::new(),
            delivered: 0,
        }
    }

    /// Closes the session, surrendering its queue's buffer for reuse.
    pub(crate) fn into_queue(self) -> VecDeque<(u64, u8)> {
        self.coord.into_queue()
    }

    /// Results scanned but not yet delivered.
    pub(crate) fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Whether the whole subhypercube has been drained.
    pub fn is_finished(&self) -> bool {
        self.coord.is_done() && self.pending.is_empty()
    }

    /// Total objects delivered across all batches so far.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// Fetches the next `t` results, contacting only as many additional
    /// nodes as needed. Consecutive batches are disjoint.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroThreshold`] when `t == 0`.
    pub fn next_batch(
        &mut self,
        index: &HypercubeIndex,
        t: usize,
    ) -> Result<SupersetOutcome, Error> {
        if t == 0 {
            return Err(Error::ZeroThreshold);
        }
        let mut stats = SearchStats::default();
        let qsig = self.keywords.signature();
        let mut pruner = self
            .prune
            .then(|| index.summary().pruner(self.coord.root_bits()));

        // Buffered results first; a node is contacted (the root first)
        // only once the buffer is empty, so its matches go straight
        // onto the page, and what overflows it waits for the next.
        let mut results = Vec::with_capacity(t.min(64));
        results.extend(self.pending.drain(..t.min(self.pending.len())));
        while results.len() < t {
            let Step::Visit { bits, via_dim } = self.coord.next_step() else {
                break;
            };
            stats.query_messages += 1;
            stats.nodes_contacted += 1;
            if via_dim.is_some() {
                stats.control_messages += 1; // T_CONT back to the root
            }
            let w = Vertex::from_bits(index.shape(), bits).expect("coordinator stays in the cube");
            let store = index.store_at(w);
            if let Some(store) = store {
                stats.entries_scanned += store.keyword_set_count() as u64;
            }
            let start = results.len();
            if scan_store(store, &self.keywords, qsig, usize::MAX, &mut results) > 0 {
                stats.result_messages += 1;
            }
            prefer_general(&mut results[start..]);
            let children =
                unpruned_children(pruner.as_mut(), (w, via_dim), &mut stats.pruned_subtrees);
            self.coord.record_visit(0, children);
        }
        if results.len() > t {
            self.pending.extend(results.drain(t..));
        }

        self.delivered += results.len();
        Ok(SupersetOutcome {
            results,
            stats,
            exhausted: self.is_finished(),
        })
    }
}

/// The child contacts the walk still owes a visit after `w` (reached
/// via `via_dim`): all of them as published; with a `pruner`, those
/// whose subtree the occupancy summary cannot prove free of matches,
/// the rest counted in `pruned`.
fn unpruned_children(
    pruner: Option<&mut Pruner<'_>>,
    (w, via_dim): (Vertex, Option<u8>),
    pruned: &mut u64,
) -> impl Iterator<Item = (u64, u8)> {
    let cut = pruner.map_or(0, |pruner| {
        let below = (1u64 << via_dim.unwrap_or(w.shape().r())) - 1;
        pruner.prunable_dims(w.bits(), w.zero_mask() & below)
    });
    *pruned += u64::from(cut.count_ones());
    child_contacts(w, via_dim).filter(move |&(_, dim)| cut >> dim & 1 == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdex_dht::ObjectId;

    fn index_with(n: u64) -> (HypercubeIndex, KeywordSet) {
        let mut index = HypercubeIndex::new(8, 0).unwrap();
        for i in 0..n {
            index
                .insert(
                    ObjectId::from_raw(i),
                    KeywordSet::parse(&format!("base extra{i}")).unwrap(),
                )
                .unwrap();
        }
        (index, KeywordSet::parse("base").unwrap())
    }

    #[test]
    fn batches_are_disjoint_and_cover_everything() {
        let (index, q) = index_with(25);
        let mut session = CumulativeSearch::new(&index, q);
        let mut seen = std::collections::HashSet::new();
        let mut total = 0;
        while !session.is_finished() {
            let batch = session.next_batch(&index, 7).unwrap();
            for r in &batch.results {
                assert!(seen.insert(r.object), "duplicate {:?}", r.object);
            }
            total += batch.results.len();
            if batch.results.is_empty() {
                break;
            }
        }
        assert_eq!(total, 25);
        assert_eq!(session.delivered(), 25);
    }

    #[test]
    fn later_batches_skip_already_contacted_nodes() {
        let (index, q) = index_with(40);
        let mut session = CumulativeSearch::new(&index, q.clone());
        let b1 = session.next_batch(&index, 10).unwrap();
        let b2 = session.next_batch(&index, 10).unwrap();
        // Fresh full searches would re-contact the whole prefix; the
        // session only pays for new nodes.
        let fresh_nodes = {
            let mut idx2 = index.clone();
            idx2.superset_search(&crate::search::SupersetQuery::new(q).threshold(20))
                .unwrap()
                .stats
                .nodes_contacted
        };
        assert!(
            b1.stats.nodes_contacted + b2.stats.nodes_contacted <= fresh_nodes + 1,
            "cumulative ({} + {}) should not exceed fresh ({})",
            b1.stats.nodes_contacted,
            b2.stats.nodes_contacted,
            fresh_nodes
        );
    }

    #[test]
    fn exhausted_flag_set_at_end() {
        let (index, q) = index_with(3);
        let mut session = CumulativeSearch::new(&index, q);
        let batch = session.next_batch(&index, 100).unwrap();
        assert_eq!(batch.results.len(), 3);
        assert!(batch.exhausted);
        assert!(session.is_finished());
        let empty = session.next_batch(&index, 5).unwrap();
        assert!(empty.results.is_empty());
    }

    #[test]
    fn zero_batch_rejected() {
        let (index, q) = index_with(1);
        let mut session = CumulativeSearch::new(&index, q);
        assert_eq!(session.next_batch(&index, 0), Err(Error::ZeroThreshold));
    }

    #[test]
    fn no_matches_finishes_cleanly() {
        let (index, _) = index_with(5);
        let mut session = CumulativeSearch::new(&index, KeywordSet::parse("absent").unwrap());
        let batch = session.next_batch(&index, 10).unwrap();
        assert!(batch.results.is_empty());
        assert!(session.is_finished());
    }
}
