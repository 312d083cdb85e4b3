//! Per-node FIFO query caches (§4, third experiment).
//!
//! The paper installs at each node a cache of query results managed by
//! "a simple FIFO scheme", with capacity `α · |O| / 2^r` — a fraction
//! `α` of the average per-node index size, measured in object entries.
//! A cached query lets the root answer without re-contacting its
//! subtree; because real query logs are heavily skewed (the top-10
//! queries exceed 60 % of daily volume), even `α = 1/6` collapses the
//! nodes-contacted metric below 1 % (Figure 9).
//!
//! An entry remembers whether it came from an *exhaustive* traversal.
//! An exhaustive entry serves any threshold (truncate); a partial entry
//! (early-terminated search) serves only thresholds it covers —
//! serving a larger threshold from it would silently drop matches.
//!
//! **Capacity units.** The paper says the capacity is "α × |O|/2^r,
//! where |O|/2^r is the average index size per node" but does not pin
//! down whether a cached *query* costs one slot or one slot per result
//! object. Only the former reproduces Figure 9's headline (<1 % of
//! nodes contacted at α = 1/6): popular queries return far more than
//! 21 objects, so under per-object accounting they would never be
//! cacheable and the cache would be useless exactly where the skewed
//! log needs it. We therefore count capacity in **cached queries**
//! (table entries), mirroring how the index itself counts entries.
//!
//! **Two callers, one type.** Figure 9's replay (`hyperdex-bench`'s
//! `fig9`, one cache per root vertex in front of a cache-free index)
//! keeps the paper's scheme verbatim: [`FifoCache::lookup`] before a
//! traversal, [`FifoCache::put`] after it. The serving path (the
//! runtime workers) has many queries in flight at once and a skewed
//! stream whose one-hit tail would flush the hot entries out of a plain
//! FIFO, so it goes through [`FifoCache::claim`] / [`FifoCache::fill`] /
//! [`FifoCache::release`] instead: a query takes a free slot on its
//! first sighting, but into a full cache it is admitted only on its
//! second (a fixed-size doorkeeper of query signatures remembers the
//! first), its slot is reserved when it *arrives* — not when its
//! traversal happens to finish — and identical queries arriving while
//! the slot's traversal runs are told to wait for it. Every decision is
//! a function of the arrival order alone: a reservation's holder always
//! ends by filling it or by giving it back, so nobody ever waits for a
//! traversal that is gone.
//!
//! **Validity.** An entry is stamped with the cache's *generation* at
//! the moment its traversal started; the owner bumps the generation on
//! every change to the data the cache fronts, and an entry of an older
//! generation never serves. An entry computed with remote help also
//! records the lowest write epoch each remote contributor reported;
//! the caller of [`FifoCache::claim`] decides whether those are still
//! good enough.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::keyword::KeywordSet;
use crate::search::RankedObject;

/// Query signatures the doorkeeper remembers: a direct-mapped table,
/// so a newer query simply overwrites the one it collides with.
const DOORKEEPER_SLOTS: usize = 4096;

/// Cached results of one superset query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResults<T = RankedObject> {
    /// The results, in traversal order. Shared with the producing
    /// search's return value, so caching never deep-copies the list.
    pub results: Arc<Vec<T>>,
    /// Whether the producing traversal covered the whole subhypercube.
    pub exhausted: bool,
    /// The cache generation the producing traversal started under.
    /// Entries of an older generation never serve — see
    /// [`FifoCache::bump_generation`].
    generation: u64,
    /// `(source, write epoch)`: the lowest epoch each remote
    /// contributor reported while the entry was computed. Empty when
    /// everything was computed locally.
    remote: Vec<(u32, u64)>,
}

impl<T> CachedResults<T> {
    /// Whether this entry can correctly answer a query wanting up to
    /// `threshold` results.
    pub fn covers(&self, threshold: usize) -> bool {
        self.exhausted || self.results.len() >= threshold
    }
}

/// One cache slot: reserved by a traversal that is still running, or
/// holding its results.
#[derive(Debug, Clone)]
enum Slot<T> {
    Reserved {
        /// The caller's name for the running traversal.
        token: u64,
        /// The threshold that traversal runs under.
        threshold: usize,
        /// The generation it started under.
        generation: u64,
    },
    Filled(CachedResults<T>),
}

/// What [`FifoCache::claim`] decided for one arriving query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Claim<T> {
    /// A current entry covers the threshold: answer from it.
    Hit(Arc<Vec<T>>),
    /// The traversal the caller named `token` holds the query's slot
    /// and its answer will cover the threshold: wait for it.
    Join(u64),
    /// Walk the cube, then [`FifoCache::fill`] the slot now reserved
    /// under the caller's token.
    Lead,
    /// Walk the cube and keep nothing (a first sighting meeting a full
    /// cache, or a cache of capacity 0).
    Pass,
}

/// What a cache did with the lookups it saw. Every [`FifoCache::lookup`]
/// or [`FifoCache::claim`] counts as exactly one of `hits`, `misses`,
/// `coalesced` or `stale`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Answered from a current, covering entry.
    pub hits: u64,
    /// No usable entry: absent, not yet admitted, or not covering the
    /// threshold.
    pub misses: u64,
    /// Told to wait for a running traversal of the same query.
    pub coalesced: u64,
    /// An entry (or reservation) existed but its stamps were out of
    /// date; it was recomputed.
    pub stale: u64,
    /// Slots pushed out by a newer reservation.
    pub evictions: u64,
}

/// The paper's cache-sizing rule: `α · |O| / 2^r` cached queries per
/// node, rounded down. At miniature scale the formula can floor to
/// zero, so a positive `α` keeps at least one slot.
pub fn alpha_capacity(alpha: f64, total_objects: usize, r: u8) -> usize {
    let raw = (alpha * total_objects as f64 / (1u64 << r) as f64).floor() as usize;
    if alpha > 0.0 {
        raw.max(1)
    } else {
        0
    }
}

/// A FIFO cache of superset-query results, sized in cached queries.
///
/// # Example
///
/// ```
/// use hyperdex_core::cache::FifoCache;
/// use hyperdex_core::{KeywordSet, RankedObject};
///
/// let mut cache: FifoCache<RankedObject> = FifoCache::new(4);
/// let q = KeywordSet::parse("mp3")?;
/// cache.put(q.clone(), std::sync::Arc::new(vec![]), true);
/// assert!(cache.lookup(&q, 10).is_some(), "exhaustive entry serves any t");
/// # Ok::<(), hyperdex_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct FifoCache<T = RankedObject> {
    /// Maximum number of cached queries (0 disables the cache).
    capacity: usize,
    slots: HashMap<KeywordSet, Slot<T>>,
    /// Slot keys in reservation order; the front is evicted first.
    order: VecDeque<KeywordSet>,
    /// Signatures of recently sighted queries; allocated when the first
    /// [`FifoCache::claim`] meets a full cache (Figure 9's replay never
    /// pays for it).
    doorkeeper: Vec<u64>,
    counters: CacheCounters,
    /// Current generation of the data this cache fronts.
    generation: u64,
}

impl<T> FifoCache<T> {
    /// Creates a cache holding at most `capacity` cached queries.
    pub fn new(capacity: usize) -> Self {
        FifoCache {
            capacity,
            slots: HashMap::new(),
            order: VecDeque::new(),
            doorkeeper: Vec::new(),
            counters: CacheCounters::default(),
            generation: 0,
        }
    }

    /// The current generation (see [`FifoCache::bump_generation`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Advances the generation, invalidating every cached entry.
    ///
    /// The owner calls this whenever the data the cache fronts changes
    /// — an insert or remove, or vertex ownership moving (index
    /// handoff after a join, leave, or crash takeover) — because an
    /// entry computed before the change may no longer be the answer.
    /// Invalidation is lazy, keeping the bump O(1): a stale entry is
    /// dropped on its next lookup, or by a [`FifoCache::claim`] that
    /// finds no slot and meets it at the front of the FIFO.
    pub fn bump_generation(&mut self) {
        self.generation += 1;
    }

    /// What the cache did with the lookups it saw.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Looks up a query for a caller wanting up to `threshold` results.
    /// A stale entry (older generation) is dropped and counted `stale`;
    /// an absent or non-covering entry counts as a miss.
    pub fn lookup(&mut self, query: &KeywordSet, threshold: usize) -> Option<&CachedResults<T>> {
        let generation = self.generation;
        let stale = matches!(
            self.slots.get(query),
            Some(Slot::Filled(e)) if e.generation != generation
        );
        if stale {
            self.slots.remove(query);
            self.order.retain(|k| k != query);
            self.counters.stale += 1;
            return None;
        }
        match self.slots.get(query) {
            Some(Slot::Filled(e)) if e.covers(threshold) => {
                self.counters.hits += 1;
                Some(e)
            }
            _ => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Caches `results` for `query`, evicting oldest entries (FIFO)
    /// until it fits. Re-inserting replaces the entry (and refreshes
    /// its position) unless the existing one is current and exhaustive
    /// and the new one is not — an exhaustive entry is strictly more
    /// useful.
    pub fn put(&mut self, query: KeywordSet, results: Arc<Vec<T>>, exhausted: bool) {
        if self.capacity == 0 {
            return;
        }
        if let Some(existing) = self.slots.get(&query) {
            // A stale exhaustive entry is worthless; only a *current*
            // exhaustive entry outranks a fresh partial one.
            let better = matches!(
                existing,
                Slot::Filled(e) if e.generation == self.generation && e.exhausted
            );
            if better && !exhausted {
                return;
            }
            self.slots.remove(&query);
            self.order.retain(|k| k != &query);
        }
        let generation = self.generation;
        self.push_back(
            query,
            Slot::Filled(CachedResults {
                results,
                exhausted,
                generation,
                remote: Vec::new(),
            }),
        );
    }

    /// The serving-path lookup: decides, from the arrival order alone,
    /// what the query arriving now should do. `token` names the
    /// traversal the caller starts if told to [`Claim::Lead`] — and
    /// must end with [`FifoCache::fill`] or [`FifoCache::release`];
    /// `fresh` judges a current-generation entry's remote stamps.
    ///
    /// * A current, fresh, covering entry → [`Claim::Hit`].
    /// * A slot reserved under the current generation by a traversal
    ///   whose threshold covers this one → [`Claim::Join`].
    /// * Any other existing slot (stale, or too short for this
    ///   threshold) is taken over in place → [`Claim::Lead`].
    /// * No slot: first the entries of an older generation at the front
    ///   of the FIFO are dropped, up to the first live entry or
    ///   reservation. Then, if the FIFO has room, a slot is reserved at
    ///   its back → [`Claim::Lead`].
    /// * No slot, and the FIFO is full: the doorkeeper decides. A first
    ///   sighting is only remembered ([`Claim::Pass`]); a later one
    ///   evicts the front and reserves a slot at the back →
    ///   [`Claim::Lead`].
    pub fn claim(
        &mut self,
        query: &KeywordSet,
        threshold: usize,
        token: u64,
        fresh: impl Fn(&[(u32, u64)]) -> bool,
    ) -> Claim<T> {
        if self.capacity == 0 {
            self.counters.misses += 1;
            return Claim::Pass;
        }
        let generation = self.generation;
        let reserved = Slot::Reserved {
            token,
            threshold,
            generation,
        };
        let Some(slot) = self.slots.get_mut(query) else {
            self.counters.misses += 1;
            self.drop_stale_front();
            if self.order.len() >= self.capacity && !self.sighted(query) {
                return Claim::Pass;
            }
            self.push_back(query.clone(), reserved);
            return Claim::Lead;
        };
        match slot {
            Slot::Filled(e) if e.generation != generation || !fresh(&e.remote) => {
                self.counters.stale += 1;
            }
            Slot::Filled(e) if e.covers(threshold) => {
                self.counters.hits += 1;
                return Claim::Hit(Arc::clone(&e.results));
            }
            Slot::Reserved {
                generation: started,
                ..
            } if *started != generation => self.counters.stale += 1,
            Slot::Reserved {
                token: leader,
                threshold: covered,
                ..
            } if threshold <= *covered => {
                self.counters.coalesced += 1;
                return Claim::Join(*leader);
            }
            // Current, but too short for this threshold.
            _ => self.counters.misses += 1,
        }
        *slot = reserved;
        Claim::Lead
    }

    /// Stores the answer of the traversal `token` in the slot
    /// [`FifoCache::claim`] reserved for it, stamped with the
    /// generation of the reservation and the `remote` epochs the
    /// traversal collected. Nothing happens when the slot has since
    /// been evicted or taken over by another traversal.
    pub fn fill(
        &mut self,
        query: &KeywordSet,
        token: u64,
        results: Arc<Vec<T>>,
        exhausted: bool,
        remote: Vec<(u32, u64)>,
    ) {
        let Some(slot) = self.slots.get_mut(query) else {
            return;
        };
        if let Slot::Reserved {
            token: holder,
            generation,
            ..
        } = *slot
        {
            if holder == token {
                *slot = Slot::Filled(CachedResults {
                    results,
                    exhausted,
                    generation,
                    remote,
                });
            }
        }
    }

    /// Gives back the slot reserved for the traversal `token` without
    /// an answer (one the caller will not keep, or a traversal it gave
    /// up): the next arrival of `query` reserves anew. Nothing happens when the slot has since
    /// been evicted or taken over by another traversal.
    pub fn release(&mut self, query: &KeywordSet, token: u64) {
        if matches!(self.slots.get(query), Some(Slot::Reserved { token: holder, .. }) if *holder == token)
        {
            self.slots.remove(query);
            self.order.retain(|k| k != query);
        }
    }

    /// Records a sighting of `query`; `true` when the doorkeeper
    /// already held it.
    fn sighted(&mut self, query: &KeywordSet) -> bool {
        if self.doorkeeper.is_empty() {
            self.doorkeeper = vec![0; DOORKEEPER_SLOTS];
        }
        let mut hasher = DefaultHasher::new();
        query.hash(&mut hasher);
        // 0 marks an empty cell, so no signature may be 0.
        let signature = hasher.finish() | 1;
        let cell = &mut self.doorkeeper[(signature >> 1) as usize % DOORKEEPER_SLOTS];
        std::mem::replace(cell, signature) == signature
    }

    /// Drops entries of an older generation from the front of the FIFO,
    /// stopping at the first live entry or reservation. They can never
    /// serve again, yet would hold their slots (and count towards a
    /// full cache) until eviction reached them. Not counted as
    /// evictions: nothing that could serve is pushed out.
    fn drop_stale_front(&mut self) {
        while let Some(front) = self.order.front() {
            let stale = matches!(
                self.slots.get(front),
                Some(Slot::Filled(e)) if e.generation < self.generation
            );
            if !stale {
                break;
            }
            let key = self.order.pop_front().expect("the front was just read");
            self.slots.remove(&key);
        }
    }

    /// Adds a slot at the back of the FIFO, evicting from the front
    /// until it fits.
    fn push_back(&mut self, query: KeywordSet, slot: Slot<T>) {
        while self.order.len() >= self.capacity {
            let evicted = self.order.pop_front().expect("capacity > 0");
            self.slots.remove(&evicted);
            self.counters.evictions += 1;
        }
        self.order.push_back(query.clone());
        self.slots.insert(query, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdex_dht::ObjectId;

    fn q(s: &str) -> KeywordSet {
        KeywordSet::parse(s).unwrap()
    }

    fn results(n: usize) -> Arc<Vec<RankedObject>> {
        Arc::new(
            (0..n)
                .map(|i| RankedObject {
                    object: ObjectId::from_raw(i as u64),
                    keyword_set: KeywordSet::new(),
                    extra_keywords: 0,
                })
                .collect(),
        )
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = FifoCache::new(10);
        assert!(c.lookup(&q("a"), 1).is_none());
        c.put(q("a"), results(2), true);
        assert!(c.lookup(&q("a"), 1).is_some());
        let n = c.counters();
        assert_eq!((n.hits, n.misses), (1, 1));
    }

    #[test]
    fn exhaustive_entry_serves_any_threshold() {
        let mut c = FifoCache::new(10);
        c.put(q("a"), results(2), true);
        assert!(c.lookup(&q("a"), 100).is_some());
    }

    #[test]
    fn partial_entry_serves_only_covered_thresholds() {
        let mut c = FifoCache::new(10);
        c.put(q("a"), results(5), false);
        assert!(c.lookup(&q("a"), 5).is_some());
        assert!(c.lookup(&q("a"), 3).is_some());
        assert!(
            c.lookup(&q("a"), 6).is_none(),
            "partial entry cannot answer a larger threshold"
        );
        assert_eq!(c.counters().misses, 1);
    }

    #[test]
    fn exhaustive_entry_not_replaced_by_partial() {
        let mut c = FifoCache::new(10);
        c.put(q("a"), results(3), true);
        c.put(q("a"), results(1), false);
        let entry = c.lookup(&q("a"), 3).expect("kept the exhaustive entry");
        assert_eq!(entry.results.len(), 3);
        assert!(entry.exhausted);
    }

    #[test]
    fn fifo_eviction_order() {
        let mut c = FifoCache::new(2);
        c.put(q("a"), results(2), true);
        c.put(q("b"), results(2), true);
        // Inserting c must evict a (oldest), not b.
        c.put(q("c"), results(2), true);
        assert!(c.lookup(&q("a"), 1).is_none());
        assert!(c.lookup(&q("b"), 1).is_some());
        assert!(c.lookup(&q("c"), 1).is_some());
        assert_eq!(c.order.len(), 2);
        assert_eq!(c.counters().evictions, 1);
    }

    #[test]
    fn large_result_sets_fit_one_slot() {
        // Per-query slot accounting: even a huge result list costs one
        // slot (see the module docs for the Figure 9 rationale).
        let mut c = FifoCache::new(1);
        c.put(q("big"), results(5_000), true);
        assert_eq!(
            c.lookup(&q("big"), 5_000).map(|e| e.results.len()),
            Some(5_000)
        );
        assert_eq!(c.order.len(), 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = FifoCache::new(0);
        c.put(q("a"), results(1), true);
        assert!(c.lookup(&q("a"), 1).is_none());
    }

    #[test]
    fn empty_results_still_occupy_a_slot() {
        let mut c = FifoCache::new(2);
        c.put(q("a"), results(0), true);
        c.put(q("b"), results(0), true);
        assert_eq!(c.order.len(), 2);
        c.put(q("c"), results(0), true);
        assert!(c.lookup(&q("a"), 1).is_none(), "oldest evicted");
        assert!(c.lookup(&q("c"), 1).is_some());
    }

    #[test]
    fn reinserting_refreshes_position() {
        let mut c = FifoCache::new(2);
        c.put(q("a"), results(1), true);
        c.put(q("b"), results(1), true);
        c.put(q("a"), results(2), true); // refresh a, now newest
        c.put(q("x"), results(2), true); // must evict b (oldest), not a
        assert!(c.lookup(&q("b"), 1).is_none());
        assert_eq!(c.lookup(&q("a"), 1).map(|e| e.results.len()), Some(2));
    }

    #[test]
    fn lookups_do_not_refresh_fifo_position() {
        // "A simple FIFO scheme": eviction order is insertion order,
        // not recency — a hit on the oldest entry must not save it.
        let mut c = FifoCache::new(2);
        c.put(q("a"), results(1), true);
        c.put(q("b"), results(1), true);
        assert!(c.lookup(&q("a"), 1).is_some(), "a is hot");
        c.put(q("x"), results(1), true); // evicts a (oldest) despite the hit
        assert!(c.lookup(&q("a"), 1).is_none(), "FIFO ignores recency");
        assert!(c.lookup(&q("b"), 1).is_some());
        assert!(c.lookup(&q("x"), 1).is_some());
    }

    #[test]
    fn non_covering_miss_keeps_the_entry_and_accounting() {
        // A partial entry missing on a larger threshold is *kept* (it
        // still answers smaller thresholds) and the slot accounting must
        // not drift.
        let mut c = FifoCache::new(4);
        c.put(q("a"), results(3), false);
        assert!(c.lookup(&q("a"), 10).is_none());
        assert_eq!(c.order.len(), 1, "non-covering entry stays cached");
        assert!(c.lookup(&q("a"), 2).is_some(), "still serves covered t");
        let n = c.counters();
        assert_eq!((n.hits, n.misses), (1, 1));
    }

    #[test]
    fn alpha_sizing_matches_paper() {
        // r = 10, 131180 objects → avg index ≈ 128; α = 1/6 → 21.
        assert_eq!(alpha_capacity(1.0 / 6.0, 131_180, 10), 21);
        // r = 12 → avg ≈ 32; α = 1 → 32.
        assert_eq!(alpha_capacity(1.0, 131_180, 12), 32);
        // 100 objects over 1024 vertices floors to zero: a positive α
        // keeps one slot, α = 0 disables the cache.
        assert_eq!(alpha_capacity(1.0 / 6.0, 100, 10), 1);
        assert_eq!(alpha_capacity(0.0, 131_180, 10), 0);
    }

    #[test]
    fn stale_entry_after_a_generation_bump_never_serves() {
        // The stale-hit bug this generation counter fixes: a query is
        // cached while vertex v is owned by node A; v's postings are
        // then handed off to node B (which may since have absorbed
        // inserts/deletes the cache never saw). Before the fix, the old
        // entry kept serving — silently wrong results. After a
        // generation bump, the entry must read as a miss and be dropped.
        let mut c = FifoCache::new(10);
        c.put(q("a"), results(3), true);
        assert!(c.lookup(&q("a"), 3).is_some(), "fresh entry hits");

        c.bump_generation(); // ownership of the vertex moved
        assert_eq!(c.generation(), 1);
        assert!(
            c.lookup(&q("a"), 3).is_none(),
            "pre-handoff entry must not serve"
        );
        assert_eq!(c.order.len(), 0, "stale entry dropped on lookup");
        let n = c.counters();
        assert_eq!((n.stale, n.misses), (1, 0), "stale is its own outcome");

        // Re-caching under the new generation works normally.
        c.put(q("a"), results(2), true);
        assert_eq!(c.lookup(&q("a"), 2).map(|e| e.results.len()), Some(2));
    }

    #[test]
    fn stale_exhaustive_entry_is_replaced_by_fresh_partial() {
        // The keep-exhaustive rule must not protect a stale entry: after
        // a handoff, a fresh partial result beats an outdated exhaustive
        // one.
        let mut c = FifoCache::new(10);
        c.put(q("a"), results(5), true);
        c.bump_generation();
        c.put(q("a"), results(2), false);
        let entry = c.lookup(&q("a"), 2).expect("fresh partial entry");
        assert_eq!(entry.results.len(), 2);
        assert!(!entry.exhausted);
    }

    #[test]
    fn bump_generation_invalidates_all_entries_lazily() {
        let mut c = FifoCache::new(10);
        c.put(q("a"), results(1), true);
        c.put(q("b"), results(1), true);
        c.bump_generation();
        assert_eq!(c.order.len(), 2, "invalidation is lazy");
        assert!(c.lookup(&q("a"), 1).is_none());
        assert!(c.lookup(&q("b"), 1).is_none());
        assert_eq!(c.order.len(), 0, "both dropped once touched");
    }

    // ---- the serving path: claim / fill ----

    /// A claim whose remote stamps are always good enough.
    fn claim(c: &mut FifoCache, query: &str, threshold: usize, token: u64) -> Claim<RankedObject> {
        c.claim(&q(query), threshold, token, |_| true)
    }

    #[test]
    fn a_first_sighting_takes_a_free_slot_and_the_doorkeeper_guards_a_full_cache() {
        let mut c = FifoCache::new(2);
        assert_eq!(claim(&mut c, "a", 5, 1), Claim::Lead, "room");
        assert_eq!(claim(&mut c, "b", 5, 2), Claim::Lead, "room");
        assert_eq!(c.order.len(), 2, "slots reserved on arrival");
        assert_eq!(claim(&mut c, "c", 5, 3), Claim::Pass, "full");
        assert_eq!(c.order.len(), 2, "a one-hit query never evicts");
        assert_eq!(claim(&mut c, "c", 5, 4), Claim::Lead, "second sighting");
        assert_eq!(c.counters().evictions, 1);
        c.fill(&q("a"), 1, results(1), true, Vec::new()); // evicted
        assert!(!c.slots.contains_key(&q("a")));
        // Traversal 2 gives its first-sighting reservation back: the
        // slot is free, so the next first sighting takes it.
        c.release(&q("b"), 2);
        assert_eq!(c.order.len(), 1);
        assert_eq!(claim(&mut c, "d", 5, 5), Claim::Lead, "room again");
        c.fill(&q("c"), 4, results(3), true, Vec::new());
        assert!(matches!(claim(&mut c, "c", 5, 6), Claim::Hit(r) if r.len() == 3));
        let n = c.counters();
        assert_eq!((n.hits, n.misses, n.coalesced, n.stale), (1, 5, 0, 0));
    }

    #[test]
    fn a_cache_full_of_stale_entries_admits_a_first_sighting() {
        let mut c = FifoCache::new(2);
        for (query, token) in [("a", 1), ("b", 2)] {
            assert_eq!(claim(&mut c, query, 5, token), Claim::Lead);
            c.fill(&q(query), token, results(1), true, Vec::new());
        }
        c.bump_generation(); // a write
        assert_eq!(
            claim(&mut c, "c", 5, 3),
            Claim::Lead,
            "stale slots are free"
        );
        assert_eq!(c.order, [q("c")], "both stale entries dropped");
        assert_eq!(c.counters().evictions, 0, "nothing live was pushed out");

        // The sweep stops at the first live entry or reservation, so a
        // stale entry behind one waits for eviction.
        let mut c = FifoCache::new(3);
        assert_eq!(claim(&mut c, "a", 5, 1), Claim::Lead);
        c.fill(&q("a"), 1, results(1), true, Vec::new());
        assert_eq!(claim(&mut c, "b", 5, 2), Claim::Lead); // still running
        assert_eq!(claim(&mut c, "c", 5, 3), Claim::Lead);
        c.fill(&q("c"), 3, results(1), true, Vec::new());
        c.bump_generation();
        assert_eq!(claim(&mut c, "d", 5, 4), Claim::Lead);
        assert_eq!(c.order, [q("b"), q("c"), q("d")]);
        let n = c.counters();
        assert_eq!((n.misses, n.stale, n.evictions), (4, 0, 0));
    }

    #[test]
    fn identical_queries_join_the_running_traversal() {
        let mut c = FifoCache::new(4);
        assert_eq!(claim(&mut c, "a", 5, 2), Claim::Lead);
        assert_eq!(claim(&mut c, "a", 5, 3), Claim::Join(2));
        assert_eq!(
            claim(&mut c, "a", 2, 4),
            Claim::Join(2),
            "smaller t is covered"
        );
        // A larger threshold may need more than the running traversal
        // will collect: it takes the slot over.
        assert_eq!(claim(&mut c, "a", 9, 5), Claim::Lead);
        assert_eq!(claim(&mut c, "a", 9, 6), Claim::Join(5));
        // The superseded traversal's answer is not kept.
        c.fill(&q("a"), 2, results(5), false, Vec::new());
        assert_eq!(claim(&mut c, "a", 1, 7), Claim::Join(5));
        c.fill(&q("a"), 5, results(9), false, Vec::new());
        assert!(matches!(claim(&mut c, "a", 9, 8), Claim::Hit(r) if r.len() == 9));
        assert_eq!(c.counters().coalesced, 4);
    }

    #[test]
    fn slots_are_reserved_in_arrival_order_not_completion_order() {
        let mut c = FifoCache::new(2);
        assert_eq!(claim(&mut c, "a", 1, 1), Claim::Lead);
        assert_eq!(claim(&mut c, "b", 1, 2), Claim::Lead);
        // b finishes first; a is still the older reservation.
        c.fill(&q("b"), 2, results(1), true, Vec::new());
        assert_eq!(claim(&mut c, "c", 1, 0), Claim::Pass, "full");
        assert_eq!(claim(&mut c, "c", 1, 3), Claim::Lead, "evicts a, the front");
        assert_eq!(c.counters().evictions, 1);
        c.fill(&q("a"), 1, results(1), true, Vec::new()); // slot is gone
        assert!(matches!(claim(&mut c, "b", 1, 4), Claim::Hit(_)));
        // a took its slot while there was room, so the doorkeeper has
        // not seen it: it starts over as a first sighting.
        assert_eq!(claim(&mut c, "a", 1, 5), Claim::Pass);
        assert_eq!(claim(&mut c, "a", 1, 6), Claim::Lead, "a starts over");
    }

    #[test]
    fn a_generation_bump_outdates_entries_and_reservations() {
        let mut c = FifoCache::new(4);
        claim(&mut c, "a", 5, 2);
        c.fill(&q("a"), 2, results(1), true, Vec::new());
        c.bump_generation();
        assert_eq!(
            claim(&mut c, "a", 5, 3),
            Claim::Lead,
            "recompute and replace"
        );
        // The entry is stamped with the generation of the reservation,
        // so a bump while the traversal runs leaves it born stale.
        c.bump_generation();
        assert_eq!(
            claim(&mut c, "a", 5, 4),
            Claim::Lead,
            "never join a doomed walk"
        );
        c.fill(&q("a"), 3, results(1), true, Vec::new());
        c.fill(&q("a"), 4, results(2), true, Vec::new());
        assert!(matches!(claim(&mut c, "a", 5, 5), Claim::Hit(r) if r.len() == 2));
        assert_eq!(c.counters().stale, 2);
    }

    #[test]
    fn remote_stamps_are_judged_by_the_caller() {
        let mut c = FifoCache::new(4);
        claim(&mut c, "a", 5, 2);
        c.fill(&q("a"), 2, results(1), true, vec![(7, 40)]);
        let at_least =
            |floor: u64| move |remote: &[(u32, u64)]| remote.iter().all(|&(_, e)| e >= floor);
        assert!(matches!(
            c.claim(&q("a"), 5, 3, at_least(40)),
            Claim::Hit(_)
        ));
        assert_eq!(c.claim(&q("a"), 5, 4, at_least(41)), Claim::Lead);
        assert_eq!(c.counters().stale, 1);
    }

    #[test]
    fn a_released_reservation_is_led_again() {
        let mut c = FifoCache::new(4);
        assert_eq!(claim(&mut c, "a", 5, 2), Claim::Lead);
        assert_eq!(claim(&mut c, "a", 5, 3), Claim::Join(2));
        c.release(&q("a"), 9); // not the holder
        assert_eq!(c.order.len(), 1);
        // The caller gives traversal 2 up: nobody waits for it again.
        c.release(&q("a"), 2);
        assert_eq!(c.order.len(), 0);
        assert_eq!(claim(&mut c, "a", 5, 4), Claim::Lead, "free again");
        assert_eq!(claim(&mut c, "a", 5, 5), Claim::Join(4));
        // Should traversal 2 finish after all, its answer is not kept.
        c.fill(&q("a"), 2, results(1), true, Vec::new());
        assert_eq!(claim(&mut c, "a", 5, 6), Claim::Join(4));
        c.fill(&q("a"), 4, results(3), true, Vec::new());
        assert!(matches!(claim(&mut c, "a", 5, 7), Claim::Hit(r) if r.len() == 3));
        let n = c.counters();
        assert_eq!((n.coalesced, n.stale, n.evictions), (3, 0, 0));
    }

    #[test]
    fn a_truncated_entry_never_answers_a_larger_threshold() {
        let mut c = FifoCache::new(4);
        claim(&mut c, "a", 2, 2);
        c.fill(&q("a"), 2, results(2), false, Vec::new());
        assert!(matches!(claim(&mut c, "a", 2, 3), Claim::Hit(_)));
        assert_eq!(claim(&mut c, "a", 3, 4), Claim::Lead, "the covers rule");
        c.fill(&q("a"), 4, results(2), true, Vec::new());
        assert!(matches!(claim(&mut c, "a", 100, 5), Claim::Hit(_)));
    }

    #[test]
    fn zero_capacity_passes_everything() {
        let mut c = FifoCache::new(0);
        for token in 0..3 {
            assert_eq!(claim(&mut c, "a", 1, token), Claim::Pass);
        }
        assert_eq!(c.counters().misses, 3);
    }
}
