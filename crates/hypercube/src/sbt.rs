//! Spanning binomial trees (Definition 3.2).
//!
//! `SBT(u)` spans the whole hypercube; `SBT_{H_r}(u)` spans only the
//! subhypercube induced by `u` (the bit positions in `One(u)` are
//! masked), and is the tree superset search walks — `SBT(0)` is
//! `SBT_{H_r}(0)`. Both are binomial trees over a set of *free*
//! dimensions. A node `v` at depth `d` has Hamming distance
//! `d` from the root — the property behind Lemma 3.2 that lets superset
//! search return objects ordered by how many *extra* keywords they carry.
//!
//! Tree wiring, following the paper: a node's subtree is fixed by its
//! own bits and the dimension `p` it was reached across (Lemma 3.2) —
//! its children flip each of its zero bits below `p`, every zero bit
//! for the root. [`child_dims`] is that rule, and every walk of the
//! tree takes a node's children from it: [`Sbt::bfs`] here, and the
//! protocol's child lists, subtree collection and pruned walk in
//! `hyperdex-core`. Below `p` a node's bits are the root's, so the rule
//! needs no root: the same node reached the same way has the same
//! children in every tree that holds it.

use std::collections::VecDeque;

use crate::bits;
use crate::vertex::Vertex;

/// The dimensions across which `w`, reached across `via_dim` (`None`
/// for the root), has children in its spanning binomial tree, as a
/// bitmask: `w`'s free (zero) dimensions strictly below `via_dim`, all
/// of them for the root. Children are visited in descending dimension
/// order, largest subtree first; the child across `j` has
/// `2^popcount(child_dims(child, Some(j)))` nodes below and including it.
///
/// # Example
///
/// ```
/// use hyperdex_hypercube::{sbt::child_dims, Shape, Vertex};
///
/// // Figure 4(b): SBT_{H_4}(0100). The root's children flip its zero
/// // bits 3, 1 and 0; 1100, reached across 3, has children across 1
/// // and 0; 0110, reached across 1, across 0 only.
/// let shape = Shape::new(4)?;
/// let root = Vertex::from_bits(shape, 0b0100)?;
/// assert_eq!(child_dims(root, None), 0b1011);
/// assert_eq!(child_dims(root.flip(3), Some(3)), 0b0011);
/// assert_eq!(child_dims(root.flip(1), Some(1)), 0b0001);
/// // Entered across a dimension it does not hold — a region walk's
/// // entry — a vertex still branches only below it.
/// assert_eq!(child_dims(root, Some(3)), 0b0011);
/// # Ok::<(), hyperdex_hypercube::DimensionError>(())
/// ```
pub fn child_dims(w: Vertex, via_dim: Option<u8>) -> u64 {
    let below = via_dim.map_or(u64::MAX, |p| (1u64 << p) - 1);
    w.zero_mask() & below
}

/// A spanning binomial tree `SBT_{H_r}(u)`, rooted at a vertex and
/// spanning the subhypercube it induces.
///
/// # Example
///
/// ```
/// use hyperdex_hypercube::{Sbt, Shape, Vertex};
///
/// // Figure 4(b): SBT_{H_4}(0100).
/// let shape = Shape::new(4)?;
/// let root = Vertex::from_bits(shape, 0b0100)?;
/// let sbt = Sbt::induced(root);
/// assert_eq!(sbt.height(), 3); // 2^3 nodes
/// let order: Vec<u64> = sbt.bfs().map(|(v, _)| v.bits()).collect();
/// assert_eq!(
///     order,
///     [0b0100, 0b1100, 0b0110, 0b0101, 0b1110, 0b1101, 0b0111, 0b1111]
/// );
/// # Ok::<(), hyperdex_hypercube::DimensionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sbt {
    root: Vertex,
}

impl Sbt {
    /// The tree `SBT_{H_r}(u)` spanning the subhypercube induced by
    /// `root` (free dimensions are `Zero(root)`).
    pub fn induced(root: Vertex) -> Self {
        Sbt { root }
    }

    /// Tree height (equals the number of free dimensions).
    pub fn height(self) -> u32 {
        self.root.zero_count()
    }

    /// Iterates over the nodes at depth exactly `d`, in ascending order
    /// of their bits.
    pub fn level(self, d: u32) -> impl Iterator<Item = Vertex> {
        let subcube = self.root.subcube();
        let h = self.height();
        // A depth-`d` node is the root with `d` of its `h` free bits set:
        // the subcube vertex whose dense index has `d` bits set. Gosper's
        // step walks those indices in ascending order, and depositing
        // them onto the free positions keeps that order.
        let first = (d <= h).then(|| (1u64 << d) - 1);
        std::iter::successors(first, move |&x| {
            let low = x & x.wrapping_neg();
            let up = x + low;
            // The root's level (`x = 0`) has one node.
            let next = ((up ^ x) >> 2).checked_div(low)? | up;
            (next >> h == 0).then_some(next)
        })
        .map(move |index| subcube.vertex_at(index))
    }

    /// Breadth-first traversal yielding `(vertex, depth)` starting at the
    /// root — exactly the visit order of the paper's sequential
    /// top-down superset search, each node's children enqueued in
    /// descending dimension order.
    pub fn bfs(self) -> Bfs {
        Bfs {
            queue: VecDeque::from([(self.root, 0, None)]),
        }
    }
}

/// The prefix region `(level, prefix)` that contains the whole SBT
/// subtree of a node reached across dimension `via_dim` — for **any**
/// root.
///
/// A subtree member differs from the subtree's root only in free
/// dimensions strictly below `via_dim` ([`child_dims`]), so every
/// member shares the subtree root's bits from `via_dim` upward. The
/// region `{x : x >> via_dim == prefix}` therefore covers the subtree;
/// it may also contain vertices outside the subtree, which makes
/// region-keyed occupancy digests a *recall-safe over-approximation*
/// for pruning: an empty region implies an empty subtree.
pub fn subtree_region(child_bits: u64, via_dim: u8) -> (u8, u64) {
    (via_dim, child_bits >> via_dim)
}

/// Where region `(level, prefix)` of an `r`-cube sits when the prefix
/// regions are numbered as the binary trie they form: the whole cube is
/// node 1, the halves of node `h` are `2h` and `2h + 1` (so a parent is
/// `h >> 1`), and vertex `bits` is leaf `(1 << r) | bits`. The regions
/// holding a vertex, `(j, bits >> j)` for `j = 0 ..= r`, are therefore
/// `h`, `h >> 1`, … down to 1, and the `2^(r − level)` regions of one
/// level are consecutive. Fits a `u64` for every `r ≤ 63`.
pub const fn region_index(r: u8, level: u8, prefix: u64) -> u64 {
    debug_assert!(level <= r && prefix >> (r - level) == 0);
    (1u64 << (r - level)) | prefix
}

/// Breadth-first iterator over an [`Sbt`].
#[derive(Debug, Clone)]
pub struct Bfs {
    /// Each queued node with its depth and the dimension it was
    /// reached across.
    queue: VecDeque<(Vertex, u32, Option<u8>)>,
}

impl Iterator for Bfs {
    type Item = (Vertex, u32);

    fn next(&mut self) -> Option<(Vertex, u32)> {
        let (v, d, via_dim) = self.queue.pop_front()?;
        for j in bits::ones(child_dims(v, via_dim)).rev() {
            self.queue.push_back((v.flip(j), d + 1, Some(j)));
        }
        Some((v, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    fn v(r: u8, bits: u64) -> Vertex {
        Vertex::from_bits(Shape::new(r).unwrap(), bits).unwrap()
    }

    /// The children of `w` reached across `via`, each with the
    /// dimension it hangs across, in the order [`child_dims`] gives.
    fn children(w: Vertex, via: Option<u8>) -> impl Iterator<Item = (Vertex, u8)> {
        bits::ones(child_dims(w, via))
            .rev()
            .map(move |j| (w.flip(j), j))
    }

    /// Every node of the subtree of `w` (reached across `via`), each
    /// with the dimension it was reached across, depth first.
    fn subtree(w: Vertex, via: Option<u8>, out: &mut Vec<(Vertex, Option<u8>)>) {
        out.push((w, via));
        for (child, j) in children(w, via) {
            subtree(child, Some(j), out);
        }
    }

    /// Number of nodes, `2^(free dimensions)`.
    fn node_count(sbt: Sbt) -> u64 {
        1 << sbt.height()
    }

    /// The size of the subtree rooted at `w` reached across `via`, by
    /// Lemma 3.2: `2^(free dimensions below via)`.
    fn subtree_size(w: Vertex, via: Option<u8>) -> u64 {
        1 << child_dims(w, via).count_ones()
    }

    #[test]
    fn figure4_induced_tree_shape() {
        // SBT_{H_4}(0100): root 0100; its children flip dims 3, 1, 0.
        let sbt = Sbt::induced(v(4, 0b0100));
        let children: Vec<u64> = children(sbt.root, None).map(|(c, _)| c.bits()).collect();
        assert_eq!(children, vec![0b1100, 0b0110, 0b0101]);
        assert_eq!(node_count(sbt), 8);
        assert_eq!(sbt.height(), 3);
    }

    /// The paper's `p` — the lowest dimension where a node differs from
    /// the root — is the dimension the walk reached it across, so the
    /// rule needs no root.
    #[test]
    fn arrival_dim_is_the_lowest_dimension_differing_from_the_root() {
        for (r, root_bits) in [(4, 0b0100), (5, 0b10110), (6, 0b001001), (6, 0)] {
            let root = v(r, root_bits);
            let mut nodes = Vec::new();
            subtree(root, None, &mut nodes);
            for (node, via) in nodes {
                let diff = node.bits() ^ root.bits();
                let p = (diff != 0).then(|| diff.trailing_zeros() as u8);
                assert_eq!(via, p, "{node} in SBT({root})");
            }
        }
    }

    #[test]
    fn parent_child_inverse() {
        let root = v(5, 0b10010);
        let mut nodes = Vec::new();
        subtree(root, None, &mut nodes);
        for (node, via) in nodes {
            for (child, j) in children(node, via) {
                assert_eq!(child.flip(j), node);
                assert!(via.is_none_or(|p| j < p), "children hang below {via:?}");
                assert_eq!(child.one_count(), node.one_count() + 1);
            }
        }
    }

    /// A walk entered at a vertex across a dimension the vertex does
    /// not hold — a region walk's entry — still branches only below it.
    #[test]
    fn child_dims_lie_strictly_below_the_arrival_dimension() {
        let r = 6;
        for bits in 0..1u64 << r {
            let w = v(r, bits);
            assert_eq!(child_dims(w, None), w.zero_mask());
            for p in 0..r {
                // The free dimensions split at `p`: those below are the
                // children's, those at or above it are not.
                let dims = child_dims(w, Some(p));
                assert_eq!(dims >> p, 0, "{w} via {p}");
                assert_eq!(dims | w.zero_mask() >> p << p, w.zero_mask(), "{w} via {p}");
            }
        }
        assert_eq!(child_dims(v(4, 0b0100), Some(3)), 0b0011);
    }

    #[test]
    fn bfs_visits_every_subcube_node_once() {
        let root = v(6, 0b010010);
        let sbt = Sbt::induced(root);
        let visited: Vec<Vertex> = sbt.bfs().map(|(n, _)| n).collect();
        assert_eq!(visited.len() as u64, node_count(sbt));
        let mut bits: Vec<u64> = visited.iter().map(|n| n.bits()).collect();
        bits.sort_unstable();
        bits.dedup();
        assert_eq!(bits.len() as u64, node_count(sbt), "no duplicates");
        for n in &visited {
            assert!(n.contains(root), "every node contains the root");
        }
    }

    #[test]
    fn bfs_depths_non_decreasing_and_match_hamming() {
        let sbt = Sbt::induced(v(5, 0b00100));
        let mut last = 0;
        for (node, depth) in sbt.bfs() {
            assert!(depth >= last, "BFS order");
            assert_eq!(
                depth,
                (node.bits() ^ sbt.root.bits()).count_ones(),
                "depth = Hamming distance"
            );
            last = depth;
        }
    }

    #[test]
    fn depth_property_lemma_3_2() {
        // Nodes at depth d have exactly d more one-bits than the root
        // (in an induced tree, where all free bits start at zero).
        let root = v(6, 0b001001);
        let sbt = Sbt::induced(root);
        for (node, depth) in sbt.bfs() {
            assert_eq!(node.one_count(), root.one_count() + depth);
        }
    }

    #[test]
    fn tree_of_the_zero_vertex_covers_full_cube() {
        let sbt = Sbt::induced(v(4, 0));
        let visited: Vec<u64> = sbt.bfs().map(|(n, _)| n.bits()).collect();
        assert_eq!(visited.len(), 16);
        let mut sorted = visited.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, (0..16).collect::<Vec<u64>>());
    }

    #[test]
    fn level_sizes_are_binomial() {
        let sbt = Sbt::induced(v(6, 0b000011));
        // 4 free dims: levels 1,4,6,4,1.
        let sizes: Vec<usize> = (0..=4).map(|d| sbt.level(d).count()).collect();
        assert_eq!(sizes, vec![1, 4, 6, 4, 1]);
        assert_eq!(sbt.level(5).count(), 0, "no level below the leaves");
    }

    /// The old enumeration — every subset of the free mask, kept when
    /// its popcount is `d` — is the oracle `level` must equal, element
    /// for element, without scanning the other `2^h − C(h, d)` subsets.
    #[test]
    fn level_equals_the_filtered_subset_enumeration() {
        fn filtered(root: Vertex, d: u32) -> Vec<u64> {
            let free = root.zero_mask();
            std::iter::successors(Some(0u64), |&s| bits::next_subset(s, free))
                .filter(|s| s.count_ones() == d)
                .map(|s| root.bits() ^ s)
                .collect()
        }
        for r in 1..=12u8 {
            let full = (1u64 << r) - 1;
            for root_bits in [0, 1, full, full >> 1, 0x5A5 & full, 0xC30 & full] {
                let root = v(r, root_bits);
                let sbt = Sbt::induced(root);
                for d in 0..=sbt.height() + 1 {
                    let level: Vec<u64> = sbt.level(d).map(Vertex::bits).collect();
                    assert_eq!(level, filtered(root, d), "r={r} root={root} d={d}");
                }
            }
        }
        // The widest cube: the deepest levels end without overflowing.
        let sbt = Sbt::induced(v(63, 0));
        assert_eq!(sbt.level(63).count(), 1);
        assert_eq!(sbt.level(62).count(), 63);
    }

    #[test]
    fn subtree_sizes_sum_to_node_count() {
        let sbt = Sbt::induced(v(5, 0b01000));
        let root_children_total: u64 = children(sbt.root, None)
            .map(|(c, j)| subtree_size(c, Some(j)))
            .sum();
        assert_eq!(root_children_total + 1, node_count(sbt));
    }

    #[test]
    fn subtree_size_leaf_is_one() {
        // 0101 is reached across dim 0; no free dims below 0 → leaf.
        assert_eq!(subtree_size(v(4, 0b0101), Some(0)), 1);
    }

    #[test]
    fn unit_tree() {
        let sbt = Sbt::induced(v(3, 0b111));
        assert_eq!(node_count(sbt), 1);
        assert_eq!(sbt.bfs().count(), 1);
        assert_eq!(child_dims(sbt.root, None), 0);
    }

    #[test]
    fn children_descending_dimension_order() {
        let dims: Vec<u64> = children(v(4, 0b0000), None)
            .map(|(c, _)| c.bits())
            .collect();
        assert_eq!(dims, vec![0b1000, 0b0100, 0b0010, 0b0001]);
    }

    /// Every descendant of a child reached via dimension `j` stays inside
    /// the prefix region `(j, child >> j)`, whatever the root.
    #[test]
    fn subtree_region_contains_whole_subtree() {
        for root_bits in [0b000000u64, 0b010010, 0b001001, 0b111000] {
            let mut nodes = Vec::new();
            subtree(v(6, root_bits), None, &mut nodes);
            for &(node, via) in &nodes {
                let Some(via) = via else {
                    continue;
                };
                let (level, prefix) = subtree_region(node.bits(), via);
                let mut below = Vec::new();
                subtree(node, Some(via), &mut below);
                assert_eq!(below.len() as u64, subtree_size(node, Some(via)));
                for (w, _) in below {
                    assert_eq!(
                        w.bits() >> level,
                        prefix,
                        "descendant {w} of {node} (via {via}) left its region"
                    );
                }
            }
        }
    }
    #[test]
    fn region_index_numbers_the_prefix_trie() {
        for r in [1u8, 4, 16, 63] {
            let bits = 0x5A5A_5A5A_5A5A_5A5A & ((1u64 << r) - 1);
            let mut h = (1u64 << r) | bits;
            for level in 0..=r {
                assert_eq!(
                    region_index(r, level, bits >> level),
                    h,
                    "r={r} level={level}"
                );
                h >>= 1;
            }
            assert_eq!(h, 0, "the chain ends at node 1, the whole cube");
        }
        // The halves of a region are its two trie children.
        assert_eq!(region_index(4, 1, 0b100), 2 * region_index(4, 2, 0b10));
        assert_eq!(region_index(4, 1, 0b101), 2 * region_index(4, 2, 0b10) + 1);
    }
}
