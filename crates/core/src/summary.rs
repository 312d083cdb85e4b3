//! Occupancy summaries for SBT subtree pruning (DESIGN.md §10).
//!
//! The superset search of §3.3 walks the whole spanning binomial tree of
//! the induced subcube even when most vertices index nothing. This
//! module maintains a digest per *prefix region* `(level j, prefix p)` —
//! the vertex set `{x : x >> j == p}` — holding the number of object
//! entries indexed inside the region and the OR of the occupied
//! vertices' bit patterns (the union of keyword positions present).
//!
//! Why prefix regions: in any SBT, the subtree hanging off a child
//! reached across dimension `j` only varies dimensions strictly below
//! `j`, so the whole subtree lives inside the region
//! [`hyperdex_hypercube::sbt::subtree_region`]`(child, j)`. One digest
//! table therefore serves *every* query root at once, and an insert at
//! vertex `w` touches exactly the `r + 1` digests on `w`'s ancestor
//! chain ([`hyperdex_hypercube::sbt::summary_path`]) — O(r) updates,
//! independent of how many queries might later consult them.
//!
//! Pruning is a recall-safe over-approximation: a region digest counts
//! *at least* everything in the corresponding subtree, so a zero count
//! (or a position mask missing a required query bit) proves the subtree
//! holds no match. A stale, over-counted digest merely costs an extra
//! visit; it can never hide a result.

use std::collections::HashMap;

use hyperdex_hypercube::sbt::{subtree_region, summary_path};

/// Digest of one prefix region of the cube.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubtreeDigest {
    /// Number of `(keyword set, object)` entries indexed at vertices
    /// inside the region.
    pub object_count: u64,
    /// OR of the occupied vertices' bit patterns — the union of keyword
    /// positions present anywhere in the region.
    pub position_mask: u64,
}

/// Incrementally maintained occupancy digests for every prefix region
/// of an `r`-dimensional hypercube index.
///
/// Only regions with at least one entry are materialized; an absent
/// region is an exact zero. [`OccupancySummary::record_insert`] and
/// [`OccupancySummary::record_remove`] keep the digests exact in O(r);
/// [`OccupancySummary::refresh_leaf`] installs full leaf state (used by
/// the message-level protocol's `T_SUMMARY` refreshes, which tolerate
/// loss by leaving digests safely over-counted).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OccupancySummary {
    r: u8,
    regions: HashMap<(u8, u64), SubtreeDigest>,
}

impl OccupancySummary {
    /// An empty summary for an `r`-dimensional cube (`1 ..= 63`).
    pub fn new(r: u8) -> Self {
        debug_assert!((1..=63).contains(&r), "dimension out of range: {r}");
        OccupancySummary {
            r,
            regions: HashMap::new(),
        }
    }

    /// The cube dimension this summary covers.
    pub const fn r(&self) -> u8 {
        self.r
    }

    /// Number of materialized (non-empty) region digests.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Total object entries indexed anywhere in the cube.
    pub fn total_objects(&self) -> u64 {
        self.digest(self.r, 0).object_count
    }

    /// The digest of region `(level, prefix)`; absent regions read as
    /// the zero digest.
    pub fn digest(&self, level: u8, prefix: u64) -> SubtreeDigest {
        self.regions
            .get(&(level, prefix))
            .copied()
            .unwrap_or_default()
    }

    /// Object entries recorded at the single vertex `bits`.
    pub fn leaf_count(&self, bits: u64) -> u64 {
        self.digest(0, bits).object_count
    }

    /// Records one new object entry indexed at vertex `bits`: bubbles a
    /// `+1` delta up the ancestor chain of regions. O(r).
    pub fn record_insert(&mut self, bits: u64) {
        for key in summary_path(bits, self.r) {
            let digest = self.regions.entry(key).or_default();
            digest.object_count += 1;
            digest.position_mask |= bits;
        }
    }

    /// Records the removal of one object entry indexed at vertex `bits`:
    /// decrements counts up the ancestor chain, then recomputes the
    /// position masks bottom-up along the same path (a removal can clear
    /// bits, which OR-only deltas cannot express). O(r).
    ///
    /// Removing from an empty leaf is ignored (the summary can only be
    /// over-counted by design, never driven negative).
    pub fn record_remove(&mut self, bits: u64) {
        if self.leaf_count(bits) == 0 {
            return;
        }
        for key in summary_path(bits, self.r) {
            if let Some(digest) = self.regions.get_mut(&key) {
                digest.object_count = digest.object_count.saturating_sub(1);
            }
        }
        self.repair_path(bits);
    }

    /// Installs the exact entry count for leaf `bits`, propagating the
    /// count delta up the ancestor chain and recomputing masks. This is
    /// the full-state form carried by `T_SUMMARY` refreshes: idempotent,
    /// so replayed or reordered refreshes converge, and a lost refresh
    /// merely leaves ancestors safely over-counted.
    pub fn refresh_leaf(&mut self, bits: u64, count: u64) {
        let old = self.leaf_count(bits);
        if count > 0 {
            let leaf = self.regions.entry((0, bits)).or_default();
            leaf.object_count = count;
            leaf.position_mask = bits;
        } else {
            self.regions.remove(&(0, bits));
        }
        for key in summary_path(bits, self.r).skip(1) {
            let digest = self.regions.entry(key).or_default();
            digest.object_count = digest.object_count.saturating_sub(old) + count;
        }
        self.repair_path(bits);
    }

    /// Whether the subtree of `child_bits` (reached across `via_dim`)
    /// provably holds no entry whose keyword positions cover
    /// `required_mask` — i.e. whether a superset search rooted at a
    /// vertex with bit pattern `required_mask` may skip it.
    ///
    /// True when the covering region is empty, or when its position mask
    /// is missing one of the required positions (every match `K' ⊇ K`
    /// lives at a vertex `x ⊇ F_h(K)`).
    pub fn can_prune(&self, child_bits: u64, via_dim: u8, required_mask: u64) -> bool {
        let (level, prefix) = subtree_region(child_bits, via_dim);
        let digest = self.digest(level, prefix);
        digest.object_count == 0 || digest.position_mask & required_mask != required_mask
    }

    /// Recomputes position masks bottom-up along the ancestor chain of
    /// `bits` and drops regions whose count reached zero.
    fn repair_path(&mut self, bits: u64) {
        if let Some(leaf) = self.regions.get_mut(&(0, bits)) {
            if leaf.object_count == 0 {
                self.regions.remove(&(0, bits));
            } else {
                leaf.position_mask = bits;
            }
        }
        for (level, prefix) in summary_path(bits, self.r).skip(1) {
            let Some(count) = self.regions.get(&(level, prefix)).map(|d| d.object_count) else {
                continue;
            };
            if count == 0 {
                self.regions.remove(&(level, prefix));
                continue;
            }
            let left = self.digest(level - 1, prefix << 1).position_mask;
            let right = self.digest(level - 1, (prefix << 1) | 1).position_mask;
            if let Some(digest) = self.regions.get_mut(&(level, prefix)) {
                digest.position_mask = left | right;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Brute-force recount of every region digest from a list of
    /// occupied vertices (with multiplicity).
    fn ground_truth(r: u8, entries: &[u64]) -> OccupancySummary {
        let mut truth = OccupancySummary::new(r);
        for &bits in entries {
            truth.record_insert(bits);
        }
        truth
    }

    fn check_against(summary: &OccupancySummary, entries: &[u64]) {
        let r = summary.r();
        for level in 0..=r {
            for prefix in entries.iter().map(|&b| b >> level) {
                let count = entries.iter().filter(|&&b| b >> level == prefix).count() as u64;
                let mask = entries
                    .iter()
                    .filter(|&&b| b >> level == prefix)
                    .fold(0u64, |m, &b| m | b);
                assert_eq!(
                    summary.digest(level, prefix),
                    SubtreeDigest {
                        object_count: count,
                        position_mask: mask,
                    },
                    "region ({level}, {prefix:#b})"
                );
            }
        }
        assert_eq!(summary.total_objects(), entries.len() as u64);
    }

    #[test]
    fn insert_updates_whole_ancestor_chain() {
        let mut s = OccupancySummary::new(4);
        s.record_insert(0b1010);
        for (level, prefix) in summary_path(0b1010, 4) {
            assert_eq!(s.digest(level, prefix).object_count, 1);
            assert_eq!(s.digest(level, prefix).position_mask, 0b1010);
        }
        assert_eq!(s.digest(0, 0b1011).object_count, 0, "sibling untouched");
        assert_eq!(s.region_count(), 5);
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
        assert_eq!(s.total_objects(), 0);
    }

    #[test]
    fn remove_recomputes_masks_from_siblings() {
        let mut s = OccupancySummary::new(3);
        s.record_insert(0b110);
        s.record_insert(0b101);
        // Region (3, 0) sees both patterns.
        assert_eq!(s.digest(3, 0).position_mask, 0b111);
        s.record_remove(0b110);
        // The OR must shrink back to the surviving vertex's pattern.
        assert_eq!(s.digest(3, 0).position_mask, 0b101);
        assert_eq!(s.digest(1, 0b10).position_mask, 0b101);
    }

    #[test]
    fn remove_from_empty_leaf_is_ignored() {
        let mut s = OccupancySummary::new(4);
        s.record_insert(0b0001);
        s.record_remove(0b0010);
        assert_eq!(s.total_objects(), 1);
        check_against(&s, &[0b0001]);
    }

    #[test]
    fn refresh_leaf_is_idempotent_and_exact() {
        let mut s = OccupancySummary::new(4);
        s.record_insert(0b0011);
        s.record_insert(0b0011);
        s.record_insert(0b1100);
        // Model a crash losing vertex 0b0011's table: truth drops, the
        // summary stays over-counted until a refresh lands.
        assert_eq!(s.digest(4, 0).object_count, 3);
        s.refresh_leaf(0b0011, 0);
        s.refresh_leaf(0b0011, 0); // replayed refresh converges
        check_against(&s, &[0b1100]);
        // Repair restores one entry, then the full pair.
        s.refresh_leaf(0b0011, 2);
        check_against(&s, &[0b0011, 0b0011, 0b1100]);
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

    proptest! {
        /// Summaries equal ground-truth subtree occupancy after
        /// arbitrary interleaved insert/delete sequences.
        #[test]
        fn matches_ground_truth_after_any_sequence(
            ops in prop::collection::vec((0u64..32, any::<bool>()), 0..64)
        ) {
            let r = 5;
            let mut summary = OccupancySummary::new(r);
            let mut live: Vec<u64> = Vec::new();
            for (bits, insert) in ops {
                if insert {
                    summary.record_insert(bits);
                    live.push(bits);
                } else if let Some(pos) = live.iter().position(|&b| b == bits) {
                    summary.record_remove(bits);
                    live.remove(pos);
                } else {
                    summary.record_remove(bits); // no-op on empty leaf
                }
            }
            check_against(&summary, &live);
            prop_assert_eq!(summary, ground_truth(r, &live));
        }

        /// `can_prune` never disproves a region that actually contains a
        /// matching vertex (recall safety of the over-approximation).
        #[test]
        fn never_prunes_a_populated_matching_region(
            entries in prop::collection::vec(0u64..64, 1..24),
            required in 0u64..64,
            via in 0u8..6,
        ) {
            let summary = ground_truth(6, &entries);
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
