//! Property-based tests for the hypercube lemmas the search scheme
//! relies on.

use hyperdex_hypercube::{Sbt, Shape, Subcube, Vertex};
use proptest::prelude::*;

/// Strategy: a shape with r in 1..=10 plus a valid vertex bit pattern.
fn shape_and_bits() -> impl Strategy<Value = (Shape, u64)> {
    (1u8..=10).prop_flat_map(|r| {
        let shape = Shape::new(r).unwrap();
        (Just(shape), 0u64..shape.vertex_count())
    })
}

/// Strategy: a shape plus two valid vertex bit patterns.
fn shape_and_two() -> impl Strategy<Value = (Shape, u64, u64)> {
    (1u8..=10).prop_flat_map(|r| {
        let shape = Shape::new(r).unwrap();
        let n = shape.vertex_count();
        (Just(shape), 0..n, 0..n)
    })
}

/// The number of nodes in the subtree of `sbt` rooted at `v`, counted.
fn subtree_size(sbt: Sbt, v: Vertex) -> u64 {
    1 + sbt.children(v).map(|c| subtree_size(sbt, c)).sum::<u64>()
}

proptest! {
    /// Containment is exactly the subset relation on one-positions.
    #[test]
    fn containment_is_subset((shape, a, b) in shape_and_two()) {
        let u = Vertex::from_bits(shape, a).unwrap();
        let w = Vertex::from_bits(shape, b).unwrap();
        let ones_u: Vec<u8> = u.one_positions().collect();
        let ones_w: Vec<u8> = w.one_positions().collect();
        let subset = ones_u.iter().all(|i| ones_w.contains(i));
        prop_assert_eq!(w.contains(u), subset);
    }

    /// Hamming distance is a metric (symmetry + triangle inequality
    /// against a third point chosen as the XOR midpoint).
    #[test]
    fn hamming_symmetric((shape, a, b) in shape_and_two()) {
        let u = Vertex::from_bits(shape, a).unwrap();
        let w = Vertex::from_bits(shape, b).unwrap();
        prop_assert_eq!(u.hamming(w), w.hamming(u));
        prop_assert_eq!(u.hamming(w) == 0, u == w);
    }

    /// One/Zero positions partition the dimension set.
    #[test]
    fn one_zero_partition((shape, bits) in shape_and_bits()) {
        let v = Vertex::from_bits(shape, bits).unwrap();
        let mut all: Vec<u8> = v.one_positions().chain(v.zero_positions()).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..shape.r()).collect::<Vec<_>>());
    }

    /// The induced subcube contains exactly the vertices that contain
    /// the root (Definition 3.1), and its size is 2^|Zero(u)|.
    #[test]
    fn subcube_membership((shape, bits) in shape_and_bits()) {
        let u = Vertex::from_bits(shape, bits).unwrap();
        let sub = Subcube::induced_by(u);
        let members: Vec<Vertex> = sub.iter().collect();
        prop_assert_eq!(members.len() as u64, 1u64 << u.zero_count());
        for w_bits in 0..shape.vertex_count() {
            let w = Vertex::from_bits(shape, w_bits).unwrap();
            prop_assert_eq!(members.contains(&w), w.contains(u));
        }
    }

    /// Lemma 3.3 (geometry): u ⊆ w implies H(w) ⊆ H(u).
    #[test]
    fn lemma_3_3_subcube_nesting((shape, a, b) in shape_and_two()) {
        let u = Vertex::from_bits(shape, a).unwrap();
        let w = Vertex::from_bits(shape, a | b).unwrap(); // w contains u
        prop_assert!(w.contains(u));
        let hu = Subcube::induced_by(u);
        let hw = Subcube::induced_by(w);
        for m in hw.iter() {
            prop_assert!(hu.contains(m));
        }
    }

    /// The induced SBT spans its subcube: every vertex appears exactly
    /// once in BFS order, at depth equal to its Hamming distance.
    #[test]
    fn sbt_spans_subcube((shape, bits) in shape_and_bits()) {
        let root = Vertex::from_bits(shape, bits).unwrap();
        let sbt = Sbt::induced(root);
        let mut seen = std::collections::HashSet::new();
        let mut last_depth = 0;
        for (node, depth) in sbt.bfs() {
            prop_assert!(seen.insert(node.bits()), "duplicate visit");
            prop_assert!(depth >= last_depth, "BFS depth order");
            prop_assert_eq!(depth, node.hamming(root));
            prop_assert!(node.contains(root));
            last_depth = depth;
        }
        prop_assert_eq!(seen.len() as u64, sbt.node_count());
    }

    /// Lemma 3.2: a depth-d node of the induced SBT has exactly d more
    /// one-bits than the root.
    #[test]
    fn lemma_3_2_extra_ones((shape, bits) in shape_and_bits()) {
        let root = Vertex::from_bits(shape, bits).unwrap();
        let sbt = Sbt::induced(root);
        for (node, depth) in sbt.bfs() {
            prop_assert_eq!(node.one_count(), root.one_count() + depth);
        }
    }

    /// parent(child) == node for every tree edge; depth increments by 1.
    #[test]
    fn sbt_parent_child_inverse((shape, bits) in shape_and_bits()) {
        let root = Vertex::from_bits(shape, bits).unwrap();
        let sbt = Sbt::spanning(root);
        for (node, depth) in sbt.bfs() {
            for child in sbt.children(node) {
                prop_assert_eq!(sbt.parent(child), Some(node));
                prop_assert_eq!(sbt.depth(child), depth + 1);
            }
        }
    }

    /// Walking parents from any node reaches the root in depth steps.
    #[test]
    fn sbt_root_path((shape, a, b) in shape_and_two()) {
        let root = Vertex::from_bits(shape, a).unwrap();
        let node = Vertex::from_bits(shape, b).unwrap();
        let sbt = Sbt::spanning(root);
        let mut cur = node;
        let mut steps = 0;
        while let Some(p) = sbt.parent(cur) {
            cur = p;
            steps += 1;
            prop_assert!(steps <= shape.r() as u32, "path too long");
        }
        prop_assert_eq!(cur, root);
        prop_assert_eq!(steps, node.hamming(root));
    }

    /// Subtree sizes of the root's children sum to node_count - 1.
    #[test]
    fn sbt_subtree_decomposition((shape, bits) in shape_and_bits()) {
        let root = Vertex::from_bits(shape, bits).unwrap();
        let sbt = Sbt::induced(root);
        let sum: u64 = sbt.children(root).map(|c| subtree_size(sbt, c)).sum();
        prop_assert_eq!(sum + 1, sbt.node_count());
    }
}
