//! Spanning binomial trees (Definition 3.2).
//!
//! `SBT(u)` spans the whole hypercube; `SBT_{H_r}(u)` spans only the
//! subhypercube induced by `u` (the bit positions in `One(u)` are
//! masked). Both are instances of one structure: a binomial tree over a
//! set of *free* dimensions. A node `v` at depth `d` has Hamming distance
//! `d` from the root — the property behind Lemma 3.2 that lets superset
//! search return objects ordered by how many *extra* keywords they carry.
//!
//! Tree wiring, following the paper: let `p` be the lowest dimension at
//! which `v` differs from the root (`p = -1` for the root itself). Then
//! the parent of `v` flips bit `p` back, and the children of `v` flip
//! each free bit `j < p` (every free bit for the root).

use std::collections::VecDeque;
use std::fmt;

use crate::bits;
use crate::vertex::Vertex;

/// A spanning binomial tree rooted at a vertex, over a set of free
/// dimensions.
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
/// assert_eq!(sbt.node_count(), 8);
/// assert_eq!(sbt.height(), 3);
/// // The node 1110 differs from the root at dims 1 and 3; its parent
/// // flips the lowest differing bit (1).
/// let v = Vertex::from_bits(shape, 0b1110)?;
/// assert_eq!(sbt.parent(v), Some(Vertex::from_bits(shape, 0b1100)?));
/// # Ok::<(), hyperdex_hypercube::DimensionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sbt {
    root: Vertex,
    free_mask: u64,
}

impl Sbt {
    /// The tree `SBT(u)` spanning the full hypercube.
    pub fn spanning(root: Vertex) -> Self {
        Sbt {
            root,
            free_mask: root.shape().full_mask(),
        }
    }

    /// The tree `SBT_{H_r}(u)` spanning the subhypercube induced by
    /// `root` (free dimensions are `Zero(root)`).
    pub fn induced(root: Vertex) -> Self {
        Sbt {
            root,
            free_mask: root.zero_mask(),
        }
    }

    /// The root vertex.
    pub const fn root(self) -> Vertex {
        self.root
    }

    /// The bitmask of free dimensions the tree spans.
    pub const fn free_mask(self) -> u64 {
        self.free_mask
    }

    /// Number of nodes, `2^(free dimensions)`.
    pub fn node_count(self) -> u64 {
        1u64 << self.free_mask.count_ones()
    }

    /// Tree height (equals the number of free dimensions).
    pub fn height(self) -> u32 {
        self.free_mask.count_ones()
    }

    /// Whether `v` is a node of this tree.
    pub fn contains(self, v: Vertex) -> bool {
        v.shape() == self.root.shape() && (v.bits() ^ self.root.bits()) & !self.free_mask == 0
    }

    /// The depth of `v` (Hamming distance from the root).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a tree node.
    pub fn depth(self, v: Vertex) -> u32 {
        self.assert_member(v);
        v.hamming(self.root)
    }

    /// The dimension across which `v` connects to its parent — the
    /// paper's `p`, the lowest dimension where `v` differs from the root.
    /// `None` for the root.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a tree node.
    pub fn branch_dim(self, v: Vertex) -> Option<u8> {
        self.assert_member(v);
        let diff = v.bits() ^ self.root.bits();
        if diff == 0 {
            None
        } else {
            Some(diff.trailing_zeros() as u8)
        }
    }

    /// The parent of `v`, or `None` for the root.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a tree node.
    pub fn parent(self, v: Vertex) -> Option<Vertex> {
        self.branch_dim(v).map(|p| v.flip(p))
    }

    /// The children of `v`, produced in **descending** dimension order
    /// (largest subtree first).
    ///
    /// Children flip each free dimension strictly below `v`'s branch
    /// dimension (all free dimensions for the root).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a tree node.
    pub fn children(self, v: Vertex) -> impl Iterator<Item = Vertex> + Clone {
        let mask = self.child_dims_mask(v);
        bits::ones(mask).rev().map(move |j| v.flip(j))
    }

    /// The dimensions across which `v` has children, as a bitmask.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a tree node.
    pub fn child_dims_mask(self, v: Vertex) -> u64 {
        self.assert_member(v);
        match self.branch_dim(v) {
            None => self.free_mask,
            Some(p) => self.free_mask & ((1u64 << p) - 1),
        }
    }

    /// Iterates over the nodes at depth exactly `d`.
    pub fn level(self, d: u32) -> impl Iterator<Item = Vertex> {
        let root = self.root;
        let mask = self.free_mask;
        // Enumerate subsets of the free mask; a subset with popcount d
        // XOR'd onto the root yields exactly the depth-d nodes.
        std::iter::successors(Some(0u64), move |&s| bits::next_subset(s, mask))
            .filter(move |s| s.count_ones() == d)
            .map(move |s| {
                Vertex::from_bits(root.shape(), root.bits() ^ s)
                    .expect("subset of free mask stays within shape")
            })
    }

    /// Breadth-first traversal yielding `(vertex, depth)` starting at the
    /// root — exactly the visit order of the paper's sequential
    /// top-down superset search when each node's children are enqueued in
    /// descending dimension order.
    pub fn bfs(self) -> Bfs {
        let mut queue = VecDeque::new();
        queue.push_back((self.root, 0));
        Bfs { sbt: self, queue }
    }

    fn assert_member(self, v: Vertex) {
        assert!(self.contains(v), "vertex {v} is not a node of {self}");
    }
}

impl fmt::Display for Sbt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SBT({}; free={:#b})", self.root, self.free_mask)
    }
}

/// The prefix region `(level, prefix)` that contains the whole SBT
/// subtree of a node reached across dimension `via_dim` — for **any**
/// root.
///
/// A subtree member differs from the subtree's root only in free
/// dimensions strictly below `via_dim` (the tree wiring above), so every
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
    sbt: Sbt,
    queue: VecDeque<(Vertex, u32)>,
}

impl Iterator for Bfs {
    type Item = (Vertex, u32);

    fn next(&mut self) -> Option<(Vertex, u32)> {
        let (v, d) = self.queue.pop_front()?;
        for child in self.sbt.children(v) {
            self.queue.push_back((child, d + 1));
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

    /// The size of the subtree rooted at `v`: `2^(free dimensions below
    /// the branch dimension)`.
    fn subtree_size(sbt: Sbt, v: Vertex) -> u64 {
        1 << sbt.child_dims_mask(v).count_ones()
    }

    #[test]
    fn figure4_induced_tree_shape() {
        // SBT_{H_4}(0100): root 0100; its children flip dims 3, 1, 0.
        let sbt = Sbt::induced(v(4, 0b0100));
        let children: Vec<u64> = sbt.children(sbt.root()).map(|c| c.bits()).collect();
        assert_eq!(children, vec![0b1100, 0b0110, 0b0101]);
        assert_eq!(sbt.node_count(), 8);
        assert_eq!(sbt.height(), 3);
    }

    #[test]
    fn parent_flips_lowest_differing_bit() {
        let sbt = Sbt::induced(v(4, 0b0100));
        // 1110 differs from 0100 at dims {1, 3}; lowest is 1.
        assert_eq!(sbt.parent(v(4, 0b1110)), Some(v(4, 0b1100)));
        // 0101 differs only at dim 0.
        assert_eq!(sbt.parent(v(4, 0b0101)), Some(v(4, 0b0100)));
        assert_eq!(sbt.parent(sbt.root()), None);
    }

    #[test]
    fn parent_child_inverse() {
        let sbt = Sbt::spanning(v(5, 0b10110));
        for (node, _) in sbt.bfs() {
            for child in sbt.children(node) {
                assert_eq!(sbt.parent(child), Some(node));
            }
        }
    }

    #[test]
    fn bfs_visits_every_subcube_node_once() {
        let root = v(6, 0b010010);
        let sbt = Sbt::induced(root);
        let visited: Vec<Vertex> = sbt.bfs().map(|(n, _)| n).collect();
        assert_eq!(visited.len() as u64, sbt.node_count());
        let mut bits: Vec<u64> = visited.iter().map(|n| n.bits()).collect();
        bits.sort_unstable();
        bits.dedup();
        assert_eq!(bits.len() as u64, sbt.node_count(), "no duplicates");
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
            assert_eq!(depth, node.hamming(sbt.root()), "depth = Hamming distance");
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
    fn spanning_tree_covers_full_cube() {
        let sbt = Sbt::spanning(v(4, 0b1010));
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
    }

    #[test]
    fn subtree_sizes_sum_to_node_count() {
        let sbt = Sbt::induced(v(5, 0b01000));
        let root_children_total: u64 = sbt.children(sbt.root()).map(|c| subtree_size(sbt, c)).sum();
        assert_eq!(root_children_total + 1, sbt.node_count());
    }

    #[test]
    fn subtree_size_leaf_is_one() {
        let sbt = Sbt::induced(v(4, 0b0100));
        // 0101 branches at dim 0; no free dims below 0 → leaf.
        assert_eq!(subtree_size(sbt, v(4, 0b0101)), 1);
    }

    #[test]
    fn contains_rejects_outsiders() {
        let sbt = Sbt::induced(v(4, 0b0100));
        assert!(sbt.contains(v(4, 0b1110)));
        assert!(
            !sbt.contains(v(4, 0b0010)),
            "does not contain the root's ones"
        );
    }

    #[test]
    #[should_panic(expected = "not a node")]
    fn depth_of_outsider_panics() {
        Sbt::induced(v(4, 0b0100)).depth(v(4, 0b0000));
    }

    #[test]
    fn unit_tree() {
        let sbt = Sbt::induced(v(3, 0b111));
        assert_eq!(sbt.node_count(), 1);
        assert_eq!(sbt.bfs().count(), 1);
        assert_eq!(sbt.children(sbt.root()).count(), 0);
    }

    #[test]
    fn children_descending_dimension_order() {
        let sbt = Sbt::spanning(v(4, 0b0000));
        let dims: Vec<u64> = sbt.children(sbt.root()).map(|c| c.bits()).collect();
        assert_eq!(dims, vec![0b1000, 0b0100, 0b0010, 0b0001]);
    }

    /// Every descendant of a child reached via dimension `j` stays inside
    /// the prefix region `(j, child >> j)`, for spanning and induced
    /// trees alike.
    #[test]
    fn subtree_region_contains_whole_subtree() {
        for root_bits in [0b000000u64, 0b010010, 0b001001, 0b111000] {
            let root = v(6, root_bits);
            for sbt in [Sbt::induced(root), Sbt::spanning(root)] {
                for (node, _) in sbt.bfs() {
                    let Some(via) = sbt.branch_dim(node) else {
                        continue;
                    };
                    let (level, prefix) = subtree_region(node.bits(), via);
                    // Collect the actual subtree below `node` by walking
                    // children recursively via BFS from `node`.
                    let mut queue = vec![node];
                    while let Some(w) = queue.pop() {
                        assert_eq!(
                            w.bits() >> level,
                            prefix,
                            "descendant {w} of {node} (via {via}) left its region"
                        );
                        queue.extend(sbt.children(w));
                    }
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
