//! Occupancy summaries for SBT subtree pruning (DESIGN.md §10).
//!
//! The superset search of §3.3 walks the whole spanning binomial tree of
//! the induced subcube even when most vertices hold no match. This
//! module summarizes every *prefix region* `(level j, prefix p)` — the
//! vertex set `{x : x >> j == p}` — by whether any vertex inside it
//! indexes an object, by the OR of the occupied vertices' bit patterns
//! (the union of keyword positions present), and by the OR of the
//! 256-bit signatures of the keyword sets stored there
//! ([`crate::KeywordSet::wide_signature`]; the stores' 64-bit slot
//! signatures saturate at a vertex of a few sets).
//!
//! Why prefix regions: in any SBT, the subtree hanging off a child
//! reached across dimension `j` only varies dimensions strictly below
//! `j`, so the whole subtree lives inside the region
//! [`hyperdex_hypercube::sbt::subtree_region`]`(child, j)`. One summary
//! therefore serves *every* query root at once.
//!
//! The regions are the nodes of the bitwise trie over the occupied
//! vertices, and are stored as one. Its vertex level is a sparse bit
//! vector, 64 neighbouring vertices to the word, each word beside its
//! occupied vertices' signatures in vertex order; every region of up to
//! 64 vertices is a run of bits inside one such word, and its
//! emptiness, its position mask and its signature (the OR of a
//! contiguous slice) are read off the run. So one word answers for
//! every child a walk reaches across its six lowest dimensions — nearly
//! all of them; a [`Pruner`] decides those together — and only the
//! regions above 64 vertices are nodes of their own, each holding its
//! mask and signature (at most 1,023 such nodes for all of an `r = 16`
//! cube).
//! Only a change of a vertex's signature touches the trie — it is the
//! vertex's whole input, empty when the vertex is; a write that leaves
//! it as it was stops at the vertex's word.
//!
//! Pruning is a recall-safe over-approximation: a region covers *at
//! least* everything in the corresponding subtree, so an unoccupied
//! region, a position mask missing a required query bit, or a
//! signature missing a bit of the query's proves the subtree holds no
//! match. A stale, still-covering region merely costs an extra visit;
//! it can never hide a result. The smallest region is one vertex, and
//! its signature is exactly the OR of its stored sets':
//! [`Pruner::may_match`] asks that of a vertex a walk has dequeued, and
//! a vertex that cannot match is walked through, not contacted.

use std::collections::hash_map::Entry;

use hyperdex_hypercube::sbt::{region_index, subtree_region};

use crate::keyword::WideSig;
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

/// What the summary knows of one occupied prefix region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// OR of the occupied vertices' bit patterns: the union of keyword
    /// positions present.
    pub mask: u64,
    /// OR of the wide signatures of the keyword sets stored in the
    /// region.
    pub sig: WideSig,
}

/// One word of the trie's vertex level: 64 neighbouring vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Word {
    /// Bit `i` says vertex `(at << 6) | i` is occupied; never 0 in the
    /// map.
    occupied: u64,
    /// OR of `sigs`: the whole word's signature.
    sig: WideSig,
    /// The occupied vertices' signatures, in vertex order.
    sigs: Vec<WideSig>,
}

/// The word a walk holds before it has read one, and what an absent
/// word reads as.
static EMPTY: Word = Word {
    occupied: 0,
    sig: WideSig::EMPTY,
    sigs: Vec::new(),
};

impl Word {
    /// Where vertex `bit` (one bit of this word) sits in `sigs`.
    fn rank(&self, bit: u64) -> usize {
        (self.occupied & (bit - 1)).count_ones() as usize
    }

    /// OR of the signatures of the non-empty `run`'s vertices: a
    /// contiguous slice of `sigs`.
    fn sig_of(&self, run: u64) -> WideSig {
        if run == self.occupied {
            return self.sig;
        }
        let from = self.rank(run & run.wrapping_neg());
        let slice = &self.sigs[from..from + run.count_ones() as usize];
        slice.iter().fold(WideSig::EMPTY, |sig, &s| sig | s)
    }

    /// What the regions above know of this word: its positions below
    /// [`WORD_LEVEL`] and its signature.
    fn digest(&self) -> (u64, WideSig) {
        (low_positions(self.occupied), self.sig)
    }

    /// Sets vertex `bit`'s signature ([`WideSig::EMPTY`]: unoccupied),
    /// returning its old one.
    fn set(&mut self, bit: u64, sig: WideSig) -> WideSig {
        let rank = self.rank(bit);
        let old = if self.occupied & bit == 0 {
            WideSig::EMPTY
        } else {
            self.sigs[rank]
        };
        if old == sig {
            return old;
        } else if old == WideSig::EMPTY {
            self.occupied |= bit;
            self.sigs.insert(rank, sig);
        } else if sig == WideSig::EMPTY {
            self.occupied &= !bit;
            self.sigs.remove(rank);
        } else {
            self.sigs[rank] = sig;
        }
        self.sig = if sig.covers(old) {
            self.sig | sig
        } else {
            self.sigs.iter().fold(WideSig::EMPTY, |word, &s| word | s)
        };
        old
    }
}

/// Incrementally maintained occupancy and signatures of every prefix
/// region of an `r`-dimensional hypercube index.
///
/// Everything held is a function of the per-vertex signatures, and
/// only non-empty state is materialized — two summaries that saw
/// different histories but agree on the signatures compare equal.
/// [`OccupancySummary::set_vertex`] is the one write.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OccupancySummary {
    r: u8,
    /// The trie's vertex level, by word number `bits >> 6`. No word is
    /// empty.
    words: ByVertex<Word>,
    /// The trie above [`WORD_LEVEL`]: each occupied region, by
    /// [`region_index`]. An absent region is unoccupied.
    regions: ByVertex<Region>,
}

impl OccupancySummary {
    /// An empty summary for an `r`-dimensional cube.
    ///
    /// # Panics
    ///
    /// Unless `1 ≤ r ≤ 63`: the region arithmetic shifts by `r`.
    pub fn new(r: u8) -> Self {
        assert!((1..=63).contains(&r), "dimension out of range: {r}");
        OccupancySummary {
            r,
            ..Default::default()
        }
    }

    /// What region `(level, prefix)` holds; `None` for an unoccupied
    /// region.
    pub fn region(&self, level: u8, prefix: u64) -> Option<Region> {
        if level > WORD_LEVEL {
            let region = region_index(self.r, level, prefix);
            return self.regions.get(&region).copied();
        }
        let word = self.words.get(&(prefix << level >> 6)).unwrap_or(&EMPTY);
        let run = run(word.occupied, level, prefix);
        // A run spans only positions below `level`; the rest is `prefix`.
        (run != 0).then(|| Region {
            mask: prefix << level | low_positions(run) & !(u64::MAX << level),
            sig: word.sig_of(run),
        })
    }

    /// Installs vertex `bits`'s signature: the OR of its stored keyword
    /// sets' wide signatures, [`WideSig::EMPTY`] when it stores none (a
    /// non-empty set's is never empty). Installing the signature it
    /// already has changes nothing.
    pub fn set_vertex(&mut self, bits: u64, sig: WideSig) {
        let word = match self.words.entry(bits >> 6) {
            Entry::Vacant(_) if sig == WideSig::EMPTY => return,
            Entry::Vacant(word) => word.insert(EMPTY.clone()),
            Entry::Occupied(word) => word.into_mut(),
        };
        let before = word.digest();
        let old = word.set(1 << (bits & 63), sig);
        let after = word.digest();
        if word.occupied == 0 {
            self.words.remove(&(bits >> 6));
        }
        // The regions above see the vertex only through its word.
        if before != after {
            if sig.covers(old) {
                self.widen(bits, sig);
            } else {
                self.rebuild(bits);
            }
        }
    }

    /// The pruning tests of one search rooted at a vertex with bit
    /// pattern `required_mask`, for a keyword set with wide signature
    /// `required_sig`.
    pub fn pruner(&self, required_mask: u64, required_sig: WideSig) -> Pruner<'_> {
        Pruner {
            summary: self,
            required_mask,
            required_sig,
            held: (u64::MAX, &EMPTY),
        }
    }

    /// Vertex `bits` gained signature bits (or became occupied): ORs it
    /// and `sig` into its chain of regions up to the first that already
    /// covers both.
    fn widen(&mut self, bits: u64, sig: WideSig) {
        for level in WORD_LEVEL + 1..=self.r {
            let region = match self
                .regions
                .entry(region_index(self.r, level, bits >> level))
            {
                // Every region above covers this one already.
                Entry::Occupied(region)
                    if region.get().mask & bits == bits && region.get().sig.covers(sig) =>
                {
                    break
                }
                Entry::Occupied(region) => region.into_mut(),
                Entry::Vacant(region) => region.insert(Region {
                    mask: 0,
                    sig: WideSig::EMPTY,
                }),
            };
            region.mask |= bits;
            region.sig = region.sig | sig;
        }
    }

    /// Vertex `bits` lost signature bits (or became empty): rebuilds
    /// each enclosing region from its two halves (an OR cannot clear
    /// bits) up to the first one the change leaves as it was.
    fn rebuild(&mut self, bits: u64) {
        for level in WORD_LEVEL + 1..=self.r {
            let prefix = bits >> level;
            let region = region_index(self.r, level, prefix);
            let halves = [2 * prefix, 2 * prefix + 1].map(|p| self.region(level - 1, p));
            let rebuilt = match halves {
                [None, None] => {
                    self.regions.remove(&region);
                    continue;
                }
                [Some(half), None] | [None, Some(half)] => half,
                [Some(low), Some(high)] => Region {
                    mask: low.mask | high.mask,
                    sig: low.sig | high.sig,
                },
            };
            if self.regions.insert(region, rebuilt) == Some(rebuilt) {
                break;
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
    required_sig: WideSig,
    /// The last word read and where (no word is at `u64::MAX`).
    held: (u64, &'a Word),
}

impl Pruner<'_> {
    /// Which of the dimensions `dims` (one bit each) lead from
    /// `parent_bits` to a child the search may skip: one whose subtree
    /// provably holds no entry covering the search's keyword set. That
    /// holds when the region covering the subtree is unoccupied, when
    /// its position mask misses a required position (every match
    /// `K' ⊇ K` lives at a vertex `x ⊇ F_h(K)`), or when its signature
    /// misses a bit of the query's (a match's signature covers the
    /// query's). The children across dimensions 0–5 lie in the parent's
    /// own word.
    pub fn prunable_dims(&mut self, parent_bits: u64, dims: u64) -> u64 {
        let (mut cut, mut rest) = (0, dims);
        while rest != 0 {
            let dim = rest.trailing_zeros() as u8;
            rest &= rest - 1;
            cut |= u64::from(self.prunable(parent_bits ^ 1 << dim, dim)) << dim;
        }
        cut
    }

    /// Whether vertex `bits`'s own store may hold an entry covering the
    /// search's keyword set: the vertex carries every required position,
    /// is occupied, and its signature — the OR of its stored sets' wide
    /// signatures, each of which covers the query's if the set does —
    /// covers the query's. A walk passes through a vertex that may not
    /// without contacting it (its SBT children follow from its bits and
    /// arrival dimension alone, Lemma 3.2). The vertex is the region
    /// `(0, bits)`, so this is the pruning test of that region.
    pub fn may_match(&mut self, bits: u64) -> bool {
        !self.prunable(bits, 0)
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
        let sig = self.required_sig;
        if level > WORD_LEVEL {
            let region = region_index(self.summary.r, level, prefix);
            let region = self.summary.regions.get(&region);
            return region.is_none_or(|r| r.mask & missing != missing || !r.sig.covers(sig));
        }
        let at = prefix << level >> 6;
        if self.held.0 != at {
            self.held = (at, self.summary.words.get(&at).unwrap_or(&EMPTY));
        }
        let word = self.held.1;
        let run = run(word.occupied, level, prefix);
        run == 0
            || missing != 0 && missing & !low_positions(run) != 0
            || !word.sig_of(run).covers(sig)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::LazyLock;

    use super::*;
    use crate::keyword::KeywordSet;
    use proptest::prelude::*;

    /// The wide signature of the set of words `k0` … `k63` whose
    /// numbers are the bits of `words`: the model's keyword sets are
    /// named this way, so a union of sets is an OR of `words`.
    fn wide(words: u64) -> WideSig {
        static VOCABULARY: LazyLock<[WideSig; 64]> = LazyLock::new(|| {
            std::array::from_fn(|i| {
                let set = KeywordSet::from_strs([format!("k{i}")]).expect("valid");
                set.wide_signature()
            })
        });
        (0..64)
            .filter(|i| words >> i & 1 == 1)
            .fold(WideSig::EMPTY, |sig, i| sig | VOCABULARY[i])
    }

    /// What tests read of a summary beyond its answers, and the
    /// one-child pruning test that [`Pruner::prunable_dims`] is held to.
    impl OccupancySummary {
        /// Number of trie nodes held: occupied vertices, plus occupied
        /// regions above 64 vertices.
        fn region_count(&self) -> usize {
            let vertices = self.words.values().map(|w| w.occupied.count_ones());
            vertices.sum::<u32>() as usize + self.regions.len()
        }

        /// Whether the subtree of `child_bits` (reached across
        /// `via_dim`) provably holds no entry whose keyword positions
        /// cover `required_mask` and whose signature covers
        /// `required_sig`.
        fn can_prune(
            &self,
            child_bits: u64,
            via_dim: u8,
            required_mask: u64,
            required_sig: WideSig,
        ) -> bool {
            self.pruner(required_mask, required_sig)
                .prunable(child_bits, via_dim)
        }
    }

    /// The regions holding vertex `bits`, from the leaf `(0, bits)` up
    /// to the whole cube `(r, 0)`: the chain a write at `bits` may
    /// touch.
    fn summary_path(bits: u64, r: u8) -> impl Iterator<Item = (u8, u64)> {
        (0..=r).map(move |j| (j, bits >> j))
    }

    /// The model: what each vertex's store holds — keyword sets, as
    /// the [`wide`] words they are made of, with the number of objects
    /// under each, as a posting store's slots — recounted by brute
    /// force.
    #[derive(Default)]
    struct Model(BTreeMap<u64, BTreeMap<u64, u64>>);

    impl Model {
        /// One object entry under the set of `words` at `bits`.
        fn insert(&mut self, bits: u64, words: u64) {
            *self.0.entry(bits).or_default().entry(words).or_insert(0) += 1;
        }

        /// Removes one object entry under the set of `words` at `bits`,
        /// if there is one: the last one kills the slot, which may
        /// shrink the vertex's signature.
        fn remove(&mut self, bits: u64, words: u64) {
            let Some(slots) = self.0.get_mut(&bits) else {
                return;
            };
            if let Some(count) = slots.get_mut(&words) {
                *count -= 1;
                if *count == 0 {
                    slots.remove(&words);
                }
            }
            if slots.is_empty() {
                self.0.remove(&bits);
            }
        }

        /// The words of the live slots in region `(level, prefix)` (at
        /// level 0, one vertex), 0 when it has none.
        fn words(&self, level: u8, prefix: u64) -> u64 {
            let inside = self.0.iter().filter(|(&bits, _)| bits >> level == prefix);
            inside
                .flat_map(|(_, slots)| slots.keys())
                .fold(0, |words, w| words | w)
        }

        /// The vertex's signature: the OR of its live slots' wide
        /// signatures, empty when it has none.
        fn sig(&self, bits: u64) -> WideSig {
            let slots = self.0.get(&bits).into_iter().flat_map(|s| s.keys());
            slots.fold(WideSig::EMPTY, |sig, &w| sig | wide(w))
        }

        /// Region `(level, prefix)`, if occupied.
        fn region(&self, level: u8, prefix: u64) -> Option<Region> {
            let inside = self.0.keys().filter(|&&bits| bits >> level == prefix);
            inside
                .map(|&bits| Region {
                    mask: bits,
                    sig: self.sig(bits),
                })
                .reduce(|a, b| Region {
                    mask: a.mask | b.mask,
                    sig: a.sig | b.sig,
                })
        }

        /// The vertex test as defined: the vertex carries every
        /// required position, is occupied, and its signature — the OR
        /// of its slots' — covers the query's.
        fn may_match(&self, bits: u64, mask: u64, sig: WideSig) -> bool {
            bits & mask == mask && self.0.contains_key(&bits) && self.sig(bits).covers(sig)
        }

        /// Whether one slot at `bits` holds a set whose signature covers
        /// `sig`: the only slots that may hold a match.
        fn slot_covers(&self, bits: u64, sig: WideSig) -> bool {
            self.0
                .get(&bits)
                .is_some_and(|slots| slots.keys().any(|&w| wide(w).covers(sig)))
        }

        /// The pruning test as defined: an empty region, one whose mask
        /// misses a required position, or one whose signature misses a
        /// bit of the query's.
        fn can_prune(&self, child: u64, via: u8, mask: u64, sig: WideSig) -> bool {
            self.region(via, child >> via)
                .is_none_or(|region| region.mask & mask != mask || !region.sig.covers(sig))
        }

        fn summary(&self, r: u8) -> OccupancySummary {
            let mut summary = OccupancySummary::new(r);
            for &bits in self.0.keys() {
                summary.set_vertex(bits, self.sig(bits));
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
            // The vertex test, for masks the vertex carries and one it
            // does not, and for keyword sets none, each slot's, the
            // vertex's (which no one slot need cover) and one word more:
            // it says no exactly as defined, and never to a vertex with
            // a slot that may hold a match.
            let vertex_words = model.words(0, bits);
            let slots = model.0.get(&bits).into_iter().flat_map(|s| s.keys());
            let words = [0, vertex_words, vertex_words | (vertex_words + 1)];
            for required_sig in words.into_iter().chain(slots.copied()).map(wide) {
                for required in [bits, 0, 1, bits | (bits + 1)] {
                    let required = required & ((1 << r) - 1);
                    let may = summary.pruner(required, required_sig).may_match(bits);
                    let at = format!("may_match({bits:#b}), {required:#b}, {required_sig:?}");
                    assert_eq!(may, model.may_match(bits, required, required_sig), "{at}");
                    let covered =
                        bits & required == required && model.slot_covers(bits, required_sig);
                    assert!(may || !covered, "{at} walks through a match");
                }
            }
            for (level, prefix) in summary_path(bits, r) {
                let region = model.region(level, prefix);
                assert_eq!(
                    summary.region(level, prefix),
                    region,
                    "region ({level}, {prefix:#b})"
                );
                if region.is_some() && (level == 0 || level > WORD_LEVEL) {
                    stored_regions.insert((level, prefix));
                }
                let mask = region.map_or(0, |region| region.mask);
                let region_words = model.words(level, prefix);
                // Required masks that hit each branch of the test: the
                // vertex itself, nothing, one position, everything the
                // region has, and one position more than it has; and
                // keyword sets likewise: none, the vertex's own, the
                // region's, and one word more than it has.
                for required in [bits, 0, 1 << (level / 2), mask, mask | (mask + 1)] {
                    let required = required & ((1 << r) - 1);
                    let words = [
                        0,
                        vertex_words,
                        region_words,
                        region_words | (region_words + 1),
                    ];
                    for (words, required_sig) in words.map(|w| (w, wide(w))) {
                        assert_eq!(
                            summary.can_prune(bits, level, required, required_sig),
                            model.can_prune(bits, level, required, required_sig),
                            "can_prune({bits:#b}, {level}, {required:#b}, words {words:#x})"
                        );
                    }
                }
            }
        }
        assert_eq!(summary.region_count(), stored_regions.len());
        assert_eq!(*summary, model.summary(r), "state depends on history");

        // The many-children test cuts exactly what the one-child test
        // cuts: every subset of a parent's free dimensions among the
        // eight lowest (in its word, and the first level above one),
        // alone and with its highest free dimension, for a signature
        // that cuts on its own and for none. One pruner serves every
        // probe, so the word it holds from one parent is still held
        // when the next one asks.
        let required = 1 << (r / 2);
        let some_words = model
            .0
            .keys()
            .next()
            .map_or(1, |&bits| model.words(0, bits));
        for required_sig in [0, some_words].map(wide) {
            let mut pruner = summary.pruner(required, required_sig);
            for &parent in model.0.keys().chain(probes) {
                // The word held from the last probe answers as a fresh
                // read does.
                assert_eq!(
                    pruner.may_match(parent),
                    summary.pruner(required, required_sig).may_match(parent),
                    "may_match({parent:#b}) through a held word"
                );
                let free = !parent & (u64::MAX >> (64 - r));
                let top = free.checked_ilog2().map_or(0, |dim| 1 << dim);
                let mut low = free & 0xFF;
                loop {
                    for dims in [low, low | top] {
                        let one_by_one =
                            (0..r)
                                .filter(|&dim| dims >> dim & 1 == 1)
                                .fold(0, |cut, dim| {
                                    let child = parent ^ 1 << dim;
                                    let cuts =
                                        summary.can_prune(child, dim, required, required_sig);
                                    cut | u64::from(cuts) << dim
                                });
                        assert_eq!(
                            pruner.prunable_dims(parent, dims),
                            one_by_one,
                            "prunable_dims({parent:#b}, {dims:#b}), sig {required_sig:?}"
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
    }

    #[test]
    fn a_new_vertex_marks_the_whole_ancestor_chain() {
        for r in [4, 9] {
            let mut s = OccupancySummary::new(r);
            s.set_vertex(0b1010, wide(0x30));
            let only = Some(Region {
                mask: 0b1010,
                sig: wide(0x30),
            });
            for (level, prefix) in summary_path(0b1010, r) {
                assert_eq!(s.region(level, prefix), only);
            }
            assert_eq!(s.region(0, 0b1011), None, "sibling untouched");
            // The vertex, and at r = 9 the regions of levels 7, 8 and 9.
            assert_eq!(s.region_count(), if r == 4 { 1 } else { 4 });
        }
    }

    #[test]
    fn emptying_every_vertex_restores_the_empty_summary() {
        let mut s = OccupancySummary::new(9);
        s.set_vertex(0b1_0110_0100, wide(0b11));
        s.set_vertex(0b0_0000_0001, wide(0b100));
        s.set_vertex(0b1_0110_0100, wide(0b01));
        s.set_vertex(0b1_0110_0100, WideSig::EMPTY);
        s.set_vertex(0b0_0000_0001, WideSig::EMPTY);
        assert_eq!(s.region_count(), 0, "empty regions are dropped");
        assert_eq!(s, OccupancySummary::new(9));
    }

    /// A shrinking signature can clear bits an OR cannot: each region
    /// above is rebuilt from its halves, inside a word and above one.
    #[test]
    fn a_shrinking_vertex_rebuilds_masks_and_signatures_from_siblings() {
        let region = |mask, words| {
            Some(Region {
                mask,
                sig: wide(words),
            })
        };
        let mut s = OccupancySummary::new(8);
        s.set_vertex(0b110, wide(0b0011));
        s.set_vertex(0b101, wide(0b0100));
        s.set_vertex(0b1000_0000, wide(0b1000));
        assert_eq!(s.region(8, 0), region(0b1000_0111, 0b1111));
        // One slot of 0b110 goes; the vertex stays occupied.
        s.set_vertex(0b110, wide(0b0010));
        assert_eq!(s.region(2, 0b1), region(0b111, 0b0110));
        assert_eq!(s.region(7, 0), region(0b111, 0b0110));
        assert_eq!(s.region(8, 0), region(0b1000_0111, 0b1110));
        // The vertex empties: the ORs shrink back to the survivors.
        s.set_vertex(0b110, WideSig::EMPTY);
        assert_eq!(s.region(2, 0b1), region(0b101, 0b0100));
        assert_eq!(s.region(7, 0), region(0b101, 0b0100));
        assert_eq!(s.region(8, 0), region(0b1000_0101, 0b1100));
    }

    #[test]
    fn setting_a_vertex_is_idempotent_and_exact() {
        let mut s = OccupancySummary::new(4);
        s.set_vertex(0b0011, wide(0x5));
        s.set_vertex(0b1100, wide(0x9));
        // A crash loses vertex 0b0011's table; a replayed refresh
        // converges.
        s.set_vertex(0b0011, WideSig::EMPTY);
        s.set_vertex(0b0011, WideSig::EMPTY);
        let mut model = Model::default();
        model.insert(0b1100, 0x9);
        check_against(&s, &model, &[0b0011]);
        // Repair restores it.
        s.set_vertex(0b0011, wide(0x5));
        model.insert(0b0011, 0x5);
        check_against(&s, &model, &[]);
    }

    #[test]
    fn can_prune_empty_uncoverable_and_match_free_regions() {
        let mut s = OccupancySummary::new(4);
        // One entry at 0b0110 whose set is {k1, k3}.
        s.set_vertex(0b0110, wide(0b1010));
        // Query root 0b0010 considers child 0b0110 via dim 2: region
        // (2, 0b01) holds the entry and covers k1 → must visit.
        assert!(!s.can_prune(0b0110, 2, 0b0010, wide(0b0010)));
        // Child 0b1010 via dim 3: region (3, 0b1) is empty → prune.
        assert!(s.can_prune(0b1010, 3, 0b0010, wide(0b0010)));
        // Query root 0b0001 considers child 0b0101 via dim 2: region
        // (2, 0b01) is occupied but its mask 0b0110 misses bit 0 → prune.
        assert!(s.can_prune(0b0101, 2, 0b0001, wide(0b0010)));
        // The first case again for a query with a keyword, k2, whose
        // signature bits no set there has → prune.
        assert!(s.can_prune(0b0110, 2, 0b0010, wide(0b0110)));
    }

    #[test]
    fn a_dimension_outside_1_to_63_is_refused_in_every_profile() {
        for r in [0, 64] {
            let built = std::panic::catch_unwind(|| OccupancySummary::new(r));
            assert!(built.is_err(), "r = {r} was accepted");
        }
    }

    /// One step of the model test: which vertex of the pool, which
    /// operation, and which of four keyword sets.
    fn steps() -> impl Strategy<Value = Vec<(usize, u8, usize)>> {
        prop::collection::vec((0usize..12, 0u8..5, 0usize..4), 0..96)
    }

    proptest! {
        /// Any interleaving of inserts, removes (also of absent entries,
        /// and ones that kill a slot but leave the vertex occupied) and
        /// dropped tables, each followed by the write the index makes —
        /// the vertex's new signature — leaves exactly the state a
        /// recount gives, and `can_prune` answers as the definition
        /// does, at the smallest, the benchmarked and the largest
        /// dimension.
        #[test]
        fn matches_a_recount_after_any_interleaving(steps in steps(), salt in any::<u64>()) {
            // Four keyword sets that overlap, so that killing one slot
            // shrinks a vertex's signature only sometimes.
            let sets = [0, 1, 2, 3].map(|k| salt.rotate_left(k * 17) & 0x0F0F_00FF_0000_FF0F | 1 << k);
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
                for &(pick, op, k) in &steps {
                    let bits = pool[pick];
                    match op {
                        0 | 1 => model.insert(bits, sets[k]),
                        2 | 3 => model.remove(bits, sets[k]),
                        _ => {
                            model.0.remove(&bits);
                        }
                    }
                    summary.set_vertex(bits, model.sig(bits));
                }
                check_against(&summary, &model, &pool);
            }
        }

        /// `can_prune` never disproves a region that actually contains a
        /// matching vertex (recall safety of the over-approximation).
        #[test]
        fn never_prunes_a_populated_matching_region(
            entries in prop::collection::vec((0u64..64, any::<u64>()), 1..24),
            required in 0u64..64,
            query_words in any::<u64>(),
            via in 0u8..6,
        ) {
            let mut model = Model::default();
            for &(bits, words) in &entries {
                model.insert(bits, words | query_words & words.rotate_left(1));
            }
            let summary = model.summary(6);
            for &bits in model.0.keys() {
                let sig = model.sig(bits);
                for query_sig in [query_words, model.words(0, bits) & query_words].map(wide) {
                    if bits & required == required && sig.covers(query_sig) {
                        // `bits` matches and lies in region (via,
                        // bits >> via); pruning any child whose region
                        // contains it is wrong.
                        prop_assert!(
                            !summary.can_prune(bits, via, required, query_sig),
                            "pruned region holding matching vertex {bits:#b}"
                        );
                    }
                }
            }
        }
    }
}
