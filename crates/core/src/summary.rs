//! Occupancy summaries for SBT subtree pruning (DESIGN.md §10).
//!
//! The superset search of §3.3 walks the whole spanning binomial tree of
//! the induced subcube even when most vertices index nothing. This
//! module summarizes every *prefix region* `(level j, prefix p)` — the
//! vertex set `{x : x >> j == p}` — by whether any vertex inside it
//! indexes an object and by the OR of the occupied vertices' bit
//! patterns (the union of keyword positions present).
//!
//! Why prefix regions: in any SBT, the subtree hanging off a child
//! reached across dimension `j` only varies dimensions strictly below
//! `j`, so the whole subtree lives inside the region
//! [`hyperdex_hypercube::sbt::subtree_region`]`(child, j)`. One summary
//! therefore serves *every* query root at once.
//!
//! The regions are the nodes of the bitwise trie over the occupied
//! vertices, and are stored as one. Its vertex level is a sparse bit
//! vector, 64 neighbouring vertices to the word; every region of up to
//! 64 vertices is a run of bits inside one such word, and both its
//! emptiness and its position mask are read off the run. So one word
//! answers for every child a walk reaches across its six lowest
//! dimensions — nearly all of them; a [`Pruner`] decides those together
//! — and only the regions above 64 vertices are nodes of their own,
//! each holding its mask (8 KiB of words and at most 1,023 such nodes
//! for all of an `r = 16` cube).
//! Only a vertex's empty ↔ occupied transition touches the trie; any
//! other write stops at the vertex's own entry count.
//!
//! Pruning is a recall-safe over-approximation: a region covers *at
//! least* everything in the corresponding subtree, so an unoccupied
//! region (or a position mask missing a required query bit) proves the
//! subtree holds no match. A stale, still-occupied region merely costs
//! an extra visit; it can never hide a result.

use std::collections::hash_map::Entry;

use hyperdex_hypercube::sbt::{region_index, subtree_region};

use crate::store::ByVertex;

/// The largest level whose regions are runs inside one vertex-level
/// word (64 = 2^6 vertices).
const WORD_LEVEL: u8 = 6;

/// `HAS_BIT[j]`: the positions of a word whose index has bit `j` set —
/// within a vertex-level word, the vertices that have dimension `j`.
const HAS_BIT: [u64; WORD_LEVEL as usize] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The bits of `word` that stand for region `(level ≤ WORD_LEVEL,
/// prefix)`'s vertices, in place; `word` is the one holding them.
fn run(word: u64, level: u8, prefix: u64) -> u64 {
    word & (u64::MAX >> (64 - (1u32 << level))) << ((prefix << level) & 63)
}

/// The positions below [`WORD_LEVEL`] that some vertex of `run` has.
fn low_positions(run: u64) -> u64 {
    (0..WORD_LEVEL).fold(0, |mask, j| {
        mask | u64::from(run & HAS_BIT[j as usize] != 0) << j
    })
}

/// Incrementally maintained occupancy of every prefix region of an
/// `r`-dimensional hypercube index.
///
/// Everything held is a function of the per-vertex entry counts, and
/// only non-empty state is materialized — two summaries that saw
/// different histories but agree on the counts compare equal.
/// [`OccupancySummary::record_insert`] and
/// [`OccupancySummary::record_remove`] keep it exact;
/// [`OccupancySummary::refresh_leaf`] installs full leaf state (a
/// vertex whose table was dropped whole,
/// [`crate::cluster::HypercubeIndex::drop_node`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OccupancySummary {
    r: u8,
    /// Object entries per occupied vertex.
    leaves: ByVertex<u64>,
    /// The trie's vertex level: bit `bits & 63` of word `bits >> 6` says
    /// vertex `bits` is occupied. No word is zero.
    words: ByVertex<u64>,
    /// The trie above [`WORD_LEVEL`]: each occupied region's OR of its
    /// occupied vertices' bit patterns, by [`region_index`]. An absent
    /// region is unoccupied.
    masks: ByVertex<u64>,
}

impl OccupancySummary {
    /// An empty summary for an `r`-dimensional cube (`1 ..= 63`).
    pub fn new(r: u8) -> Self {
        debug_assert!((1..=63).contains(&r), "dimension out of range: {r}");
        OccupancySummary {
            r,
            ..Default::default()
        }
    }

    /// OR of the bit patterns of the occupied vertices in region
    /// `(level, prefix)` — the union of keyword positions present there;
    /// `None` for an unoccupied region.
    pub fn position_mask(&self, level: u8, prefix: u64) -> Option<u64> {
        if level > WORD_LEVEL {
            let region = region_index(self.r, level, prefix);
            return self.masks.get(&region).copied();
        }
        let run = run(self.word(prefix << level >> 6), level, prefix);
        // A run spans only positions below `level`; the rest is `prefix`.
        (run != 0).then(|| prefix << level | low_positions(run) & !(u64::MAX << level))
    }

    /// Records one new object entry indexed at vertex `bits`.
    pub fn record_insert(&mut self, bits: u64) {
        let count = self.leaves.entry(bits).or_insert(0);
        *count += 1;
        let first = *count == 1;
        if first {
            self.occupy(bits);
        }
    }

    /// Records the removal of one object entry indexed at vertex `bits`.
    ///
    /// Removing from an empty leaf is ignored (the summary can only be
    /// over-counted by design, never driven negative).
    pub fn record_remove(&mut self, bits: u64) {
        let Some(count) = self.leaves.get_mut(&bits) else {
            return;
        };
        *count -= 1;
        let last = *count == 0;
        if last {
            self.leaves.remove(&bits);
            self.vacate(bits);
        }
    }

    /// Installs the exact entry count for leaf `bits` — what
    /// [`crate::cluster::HypercubeIndex::drop_node`] records when a
    /// vertex loses its whole table. Idempotent: installing the same
    /// count again changes nothing.
    pub fn refresh_leaf(&mut self, bits: u64, count: u64) {
        let old = if count > 0 {
            self.leaves.insert(bits, count)
        } else {
            self.leaves.remove(&bits)
        }
        .unwrap_or(0);
        match (old > 0, count > 0) {
            (false, true) => self.occupy(bits),
            (true, false) => self.vacate(bits),
            _ => {}
        }
    }

    /// The pruning tests of one search rooted at a vertex with bit
    /// pattern `required_mask`.
    pub fn pruner(&self, required_mask: u64) -> Pruner<'_> {
        Pruner {
            summary: self,
            required_mask,
            held: (u64::MAX, 0),
        }
    }

    /// Word `at` of the vertex level; an absent word is all unoccupied.
    fn word(&self, at: u64) -> u64 {
        self.words.get(&at).copied().unwrap_or(0)
    }

    /// Vertex `bits` went from empty to occupied: marks it, and ORs it
    /// into its chain of regions up to the first that already carries
    /// its bits.
    fn occupy(&mut self, bits: u64) {
        *self.words.entry(bits >> 6).or_insert(0) |= 1 << (bits & 63);
        for level in WORD_LEVEL + 1..=self.r {
            let mask = self.masks.entry(region_index(self.r, level, bits >> level));
            let mask = match mask {
                // Every region above holds this one's mask already.
                Entry::Occupied(mask) if mask.get() & bits == bits => break,
                Entry::Occupied(mask) => mask.into_mut(),
                Entry::Vacant(region) => region.insert(0),
            };
            *mask |= bits;
        }
    }

    /// Vertex `bits` went from occupied to empty: unmarks it, then
    /// rebuilds each enclosing region from its two halves (a removal
    /// can clear mask bits, which an OR cannot express) up to the first
    /// one the removal leaves as it was.
    fn vacate(&mut self, bits: u64) {
        if let Entry::Occupied(mut word) = self.words.entry(bits >> 6) {
            *word.get_mut() &= !(1 << (bits & 63));
            if *word.get() == 0 {
                word.remove();
            }
        }
        for level in WORD_LEVEL + 1..=self.r {
            let prefix = bits >> level;
            let region = region_index(self.r, level, prefix);
            let halves = [2 * prefix, 2 * prefix + 1].map(|p| self.position_mask(level - 1, p));
            match halves {
                [None, None] => {
                    self.masks.remove(&region);
                }
                [low, high] => {
                    let mask = low.unwrap_or(0) | high.unwrap_or(0);
                    if self.masks.insert(region, mask) == Some(mask) {
                        break;
                    }
                }
            }
        }
    }
}

/// The pruning tests of one search, borrowed from the summary for as
/// long as the search runs. A walk asks about neighbouring vertices
/// one after the other, so the last vertex-level word read is kept:
/// the borrow is what makes that safe.
#[derive(Debug)]
pub struct Pruner<'a> {
    summary: &'a OccupancySummary,
    required_mask: u64,
    /// The last word read and where (no word is at `u64::MAX`).
    held: (u64, u64),
}

impl Pruner<'_> {
    /// Which of the dimensions `dims` (one bit each) lead from
    /// `parent_bits` to a child the search may skip: one whose subtree
    /// provably holds no entry covering the search's required positions.
    /// That holds when the region covering the subtree is unoccupied, or
    /// when its position mask misses a required position (every match
    /// `K' ⊇ K` lives at a vertex `x ⊇ F_h(K)`). The children across
    /// dimensions 0–5 lie in the parent's own word.
    pub fn prunable_dims(&mut self, parent_bits: u64, dims: u64) -> u64 {
        let (mut cut, mut rest) = (0, dims);
        while rest != 0 {
            let dim = rest.trailing_zeros() as u8;
            rest &= rest - 1;
            cut |= u64::from(self.prunable(parent_bits ^ 1 << dim, dim)) << dim;
        }
        cut
    }

    fn prunable(&mut self, child_bits: u64, via_dim: u8) -> bool {
        let (level, prefix) = subtree_region(child_bits, via_dim);
        // Every vertex of the region carries `prefix` from `level` up,
        // so those positions need no lookup: a search only descends
        // into vertices that carry its root, and only a root with bits
        // below `level` leaves anything to look for.
        let missing = self.required_mask & !(prefix << level);
        if missing >> level != 0 {
            return true;
        }
        if level > WORD_LEVEL {
            let region = region_index(self.summary.r, level, prefix);
            let mask = self.summary.masks.get(&region);
            return mask.is_none_or(|mask| mask & missing != missing);
        }
        let at = prefix << level >> 6;
        if self.held.0 != at {
            self.held = (at, self.summary.word(at));
        }
        let run = run(self.held.1, level, prefix);
        run == 0 || missing != 0 && missing & !low_positions(run) != 0
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use proptest::prelude::*;

    /// What tests read of a summary beyond its answers, and the
    /// one-child pruning test that [`Pruner::prunable_dims`] is held to.
    impl OccupancySummary {
        /// Number of trie nodes held: occupied vertices, plus occupied
        /// regions above 64 vertices.
        pub(crate) fn region_count(&self) -> usize {
            self.leaves.len() + self.masks.len()
        }

        /// Object entries recorded at the single vertex `bits`.
        pub(crate) fn leaf_count(&self, bits: u64) -> u64 {
            self.leaves.get(&bits).copied().unwrap_or(0)
        }

        /// Whether the subtree of `child_bits` (reached across
        /// `via_dim`) provably holds no entry whose keyword positions
        /// cover `required_mask`.
        pub(crate) fn can_prune(&self, child_bits: u64, via_dim: u8, required_mask: u64) -> bool {
            self.pruner(required_mask).prunable(child_bits, via_dim)
        }
    }

    /// The regions holding vertex `bits`, from the leaf `(0, bits)` up
    /// to the whole cube `(r, 0)`: the chain an insert or a delete at
    /// `bits` may touch.
    fn summary_path(bits: u64, r: u8) -> impl Iterator<Item = (u8, u64)> {
        (0..=r).map(move |j| (j, bits >> j))
    }

    /// The model: per-vertex entry counts, recounted by brute force.
    #[derive(Default)]
    struct Model(BTreeMap<u64, u64>);

    impl Model {
        fn of(entries: &[u64]) -> Self {
            let mut model = Model::default();
            for &bits in entries {
                *model.0.entry(bits).or_insert(0) += 1;
            }
            model
        }

        fn set(&mut self, bits: u64, count: u64) {
            if count > 0 {
                self.0.insert(bits, count);
            } else {
                self.0.remove(&bits);
            }
        }

        fn count(&self, bits: u64) -> u64 {
            self.0.get(&bits).copied().unwrap_or(0)
        }

        /// Position mask of region `(level, prefix)`, if occupied.
        fn position_mask(&self, level: u8, prefix: u64) -> Option<u64> {
            let inside = self.0.keys().filter(|&&bits| bits >> level == prefix);
            inside.copied().reduce(|mask, bits| mask | bits)
        }

        /// The pruning test as defined: an empty region, or one whose
        /// mask misses a required position.
        fn can_prune(&self, child: u64, via: u8, required: u64) -> bool {
            self.position_mask(via, child >> via)
                .is_none_or(|mask| mask & required != required)
        }

        fn summary(&self, r: u8) -> OccupancySummary {
            let mut summary = OccupancySummary::new(r);
            for (&bits, &count) in &self.0 {
                for _ in 0..count {
                    summary.record_insert(bits);
                }
            }
            summary
        }
    }

    /// `summary` holds exactly what `model` says, region by region,
    /// for every region around `probes` and the occupied vertices.
    fn check_against(summary: &OccupancySummary, model: &Model, probes: &[u64]) {
        let r = summary.r;
        let mut stored_regions = std::collections::BTreeSet::new();
        for &bits in model.0.keys().chain(probes) {
            assert_eq!(
                summary.leaf_count(bits),
                model.count(bits),
                "leaf {bits:#b}"
            );
            for (level, prefix) in summary_path(bits, r) {
                let mask = model.position_mask(level, prefix);
                assert_eq!(
                    summary.position_mask(level, prefix),
                    mask,
                    "region ({level}, {prefix:#b})"
                );
                if mask.is_some() && (level == 0 || level > WORD_LEVEL) {
                    stored_regions.insert((level, prefix));
                }
                let mask = mask.unwrap_or(0);
                // Required masks that hit each branch of the test: the
                // vertex itself, nothing, one position, everything the
                // region has, and one position more than it has.
                for required in [bits, 0, 1 << (level / 2), mask, mask | (mask + 1)] {
                    let required = required & ((1 << r) - 1);
                    assert_eq!(
                        summary.can_prune(bits, level, required),
                        model.can_prune(bits, level, required),
                        "can_prune({bits:#b}, {level}, {required:#b})"
                    );
                }
            }
        }
        assert_eq!(summary.region_count(), stored_regions.len());
        assert_eq!(*summary, model.summary(r), "state depends on history");

        // The many-children test cuts exactly what the one-child test
        // cuts: every subset of a parent's free dimensions among the
        // eight lowest (in its word, and the first level above one),
        // alone and with its highest free dimension. One pruner serves
        // every probe, so the word it holds from one parent is still
        // held when the next one asks.
        let required = 1 << (r / 2);
        let mut pruner = summary.pruner(required);
        for &parent in model.0.keys().chain(probes) {
            let free = !parent & (u64::MAX >> (64 - r));
            let top = free.checked_ilog2().map_or(0, |dim| 1 << dim);
            let mut low = free & 0xFF;
            loop {
                for dims in [low, low | top] {
                    let one_by_one =
                        (0..r)
                            .filter(|&dim| dims >> dim & 1 == 1)
                            .fold(0, |cut, dim| {
                                cut | u64::from(summary.can_prune(parent ^ 1 << dim, dim, required))
                                    << dim
                            });
                    assert_eq!(
                        pruner.prunable_dims(parent, dims),
                        one_by_one,
                        "prunable_dims({parent:#b}, {dims:#b})"
                    );
                }
                if low == 0 {
                    break;
                }
                // The next smaller subset of the eight lowest.
                low = (low - 1) & free & 0xFF;
            }
        }
    }

    #[test]
    fn insert_marks_whole_ancestor_chain() {
        for r in [4, 9] {
            let mut s = OccupancySummary::new(r);
            s.record_insert(0b1010);
            for (level, prefix) in summary_path(0b1010, r) {
                assert_eq!(s.position_mask(level, prefix), Some(0b1010));
            }
            assert_eq!(s.position_mask(0, 0b1011), None, "sibling untouched");
            // The vertex, and at r = 9 the regions of levels 7, 8 and 9.
            assert_eq!(s.region_count(), if r == 4 { 1 } else { 4 });
        }
    }

    #[test]
    fn remove_restores_empty_summary() {
        let mut s = OccupancySummary::new(5);
        s.record_insert(0b10100);
        s.record_insert(0b10100);
        s.record_remove(0b10100);
        assert_eq!(s.leaf_count(0b10100), 1);
        s.record_remove(0b10100);
        assert_eq!(s.region_count(), 0, "empty regions are dropped");
        assert_eq!(s, OccupancySummary::new(5));
    }

    #[test]
    fn remove_recomputes_masks_from_siblings() {
        let mut s = OccupancySummary::new(3);
        s.record_insert(0b110);
        s.record_insert(0b101);
        // Region (3, 0) sees both patterns.
        assert_eq!(s.position_mask(3, 0), Some(0b111));
        s.record_remove(0b110);
        // The OR must shrink back to the surviving vertex's pattern.
        assert_eq!(s.position_mask(3, 0), Some(0b101));
        assert_eq!(s.position_mask(1, 0b10), Some(0b101));
    }

    #[test]
    fn remove_from_empty_leaf_is_ignored() {
        let mut s = OccupancySummary::new(4);
        s.record_insert(0b0001);
        s.record_remove(0b0010);
        check_against(&s, &Model::of(&[0b0001]), &[0b0010]);
    }

    #[test]
    fn refresh_leaf_is_idempotent_and_exact() {
        let mut s = OccupancySummary::new(4);
        s.record_insert(0b0011);
        s.record_insert(0b0011);
        s.record_insert(0b1100);
        // Model a crash losing vertex 0b0011's table: truth drops, the
        // summary stays over-counted until a refresh lands.
        assert_eq!(s.leaves[&0b0011], 2);
        s.refresh_leaf(0b0011, 0);
        s.refresh_leaf(0b0011, 0); // replayed refresh converges
        check_against(&s, &Model::of(&[0b1100]), &[0b0011]);
        // Repair restores the full pair.
        s.refresh_leaf(0b0011, 2);
        check_against(&s, &Model::of(&[0b0011, 0b0011, 0b1100]), &[]);
    }

    #[test]
    fn can_prune_empty_and_uncoverable_regions() {
        let mut s = OccupancySummary::new(4);
        // One entry at 0b0110.
        s.record_insert(0b0110);
        // Query root 0b0010 considers child 0b0110 via dim 2: region
        // (2, 0b01) holds the entry and covers bit 1 → must visit.
        assert!(!s.can_prune(0b0110, 2, 0b0010));
        // Child 0b1010 via dim 3: region (3, 0b1) is empty → prune.
        assert!(s.can_prune(0b1010, 3, 0b0010));
        // Query root 0b0001 considers child 0b0101 via dim 2: region
        // (2, 0b01) is occupied but its mask 0b0110 misses bit 0 → prune.
        assert!(s.can_prune(0b0101, 2, 0b0001));
    }

    /// One step of the model test: which vertex of the pool, which
    /// operation, and the count a refresh installs.
    fn steps() -> impl Strategy<Value = Vec<(usize, u8, u64)>> {
        prop::collection::vec((0usize..12, 0u8..3, 0u64..4), 0..96)
    }

    proptest! {
        /// Any interleaving of inserts, removes (also from empty leaves)
        /// and refreshes (also to 0) leaves exactly the state a recount
        /// gives, and `can_prune` answers as the definition does, at the
        /// smallest, the benchmarked and the largest dimension.
        #[test]
        fn matches_a_recount_after_any_interleaving(steps in steps(), salt in any::<u64>()) {
            for r in [4u8, 16, 63] {
                // A pool with siblings, cousins and far-apart vertices.
                let cube = (1u64 << r) - 1;
                let pool: Vec<u64> = (0..12u64)
                    .map(|i| match i % 4 {
                        0 => salt.rotate_left(i as u32 * 5),
                        1 => salt ^ 1,
                        2 => salt ^ (1 << (r / 2)),
                        _ => i,
                    } & cube)
                    .collect();
                let mut summary = OccupancySummary::new(r);
                let mut model = Model::default();
                for &(pick, op, count) in &steps {
                    let bits = pool[pick];
                    match op {
                        0 => {
                            summary.record_insert(bits);
                            model.set(bits, model.count(bits) + 1);
                        }
                        1 => {
                            summary.record_remove(bits);
                            model.set(bits, model.count(bits).saturating_sub(1));
                        }
                        _ => {
                            summary.refresh_leaf(bits, count);
                            model.set(bits, count);
                        }
                    }
                }
                check_against(&summary, &model, &pool);
            }
        }

        /// `can_prune` never disproves a region that actually contains a
        /// matching vertex (recall safety of the over-approximation).
        #[test]
        fn never_prunes_a_populated_matching_region(
            entries in prop::collection::vec(0u64..64, 1..24),
            required in 0u64..64,
            via in 0u8..6,
        ) {
            let summary = Model::of(&entries).summary(6);
            for &bits in &entries {
                if bits & required == required {
                    // `bits` matches and lies in region (via, bits >> via);
                    // pruning any child whose region contains it is wrong.
                    prop_assert!(
                        !summary.can_prune(bits, via, required),
                        "pruned region holding matching vertex {bits:#b}"
                    );
                }
            }
        }
    }
}
