//! Property-based tests for the hypercube lemmas the search scheme
//! relies on.

use hyperdex_hypercube::sbt::{child_dims, subtree_region};
use hyperdex_hypercube::{bits, Sbt, Shape, Subcube, Vertex};
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

/// The children of `w` reached across `via`, each with the dimension
/// it hangs across, in the order [`child_dims`] gives.
fn children(w: Vertex, via: Option<u8>) -> impl Iterator<Item = (Vertex, u8)> {
    bits::ones(child_dims(w, via))
        .rev()
        .map(move |j| (w.flip(j), j))
}

/// Every node of the subtree of `w` (reached across `via`) with the
/// dimension it was reached across and its depth below `w`, depth first.
fn walk(w: Vertex, via: Option<u8>, depth: u32, out: &mut Vec<(Vertex, Option<u8>, u32)>) {
    out.push((w, via, depth));
    for (child, j) in children(w, via) {
        walk(child, Some(j), depth + 1, out);
    }
}

/// The number of nodes in the subtree rooted at `w`, counted.
fn subtree_size(w: Vertex, via: Option<u8>) -> u64 {
    1 + children(w, via)
        .map(|(c, j)| subtree_size(c, Some(j)))
        .sum::<u64>()
}

proptest! {
    /// Containment is exactly the subset relation on one-positions.
    #[test]
    fn containment_is_subset((shape, a, b) in shape_and_two()) {
        let u = Vertex::from_bits(shape, a).unwrap();
        let w = Vertex::from_bits(shape, b).unwrap();
        let ones_u: Vec<u8> = bits::ones(u.bits()).collect();
        let ones_w: Vec<u8> = bits::ones(w.bits()).collect();
        let subset = ones_u.iter().all(|i| ones_w.contains(i));
        prop_assert_eq!(w.contains(u), subset);
    }


    /// One/Zero positions partition the dimension set.
    #[test]
    fn one_zero_partition((shape, bits) in shape_and_bits()) {
        let v = Vertex::from_bits(shape, bits).unwrap();
        let mut all: Vec<u8> = bits::ones(v.bits()).chain(v.zero_positions()).collect();
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
        for m in Subcube::induced_by(w).iter() {
            prop_assert!(m.contains(u));
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
            prop_assert_eq!(depth, node.one_count() - root.one_count());
            prop_assert!(node.contains(root));
            last_depth = depth;
        }
        prop_assert_eq!(seen.len() as u64, 1 << sbt.height());
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

    /// Every tree edge: flipping a child's dimension back gives its
    /// parent, the dimension lies below the parent's own arrival
    /// dimension, children come in descending dimension order, and the
    /// child is one level deeper — one more one-bit than its parent.
    #[test]
    fn sbt_parent_child_inverse((shape, bits) in shape_and_bits()) {
        let root = Vertex::from_bits(shape, bits).unwrap();
        let mut nodes = Vec::new();
        walk(root, None, 0, &mut nodes);
        for (node, via, depth) in nodes {
            let dims: Vec<u8> = children(node, via).map(|(_, j)| j).collect();
            prop_assert!(dims.windows(2).all(|w| w[0] > w[1]), "descending order");
            for (child, j) in children(node, via) {
                prop_assert_eq!(child.flip(j), node);
                prop_assert!(via.is_none_or(|p| j < p));
                prop_assert_eq!(child.one_count() - root.one_count(), depth + 1);
            }
        }
    }

    /// Every subcube node is reached from the root by setting its extra
    /// bits highest first, each an edge the rule allows, in as many
    /// steps as its depth.
    #[test]
    fn sbt_root_path((shape, a, b) in shape_and_two()) {
        let root = Vertex::from_bits(shape, a).unwrap();
        let node = Vertex::from_bits(shape, a | b).unwrap();
        let (mut cur, mut via) = (root, None);
        let mut steps = 0;
        for j in bits::ones(node.bits() ^ root.bits()).rev() {
            prop_assert!(child_dims(cur, via) >> j & 1 == 1, "{} has no child across {}", cur, j);
            cur = cur.flip(j);
            via = Some(j);
            steps += 1;
        }
        prop_assert_eq!(cur, node);
        prop_assert_eq!(steps, node.one_count() - root.one_count());
    }

    /// Lemma 3.2's subtree size: the subtree of a node reached across
    /// `d` has `2^popcount(child_dims)` nodes, and the root's children's
    /// subtrees sum to the tree less its root.
    #[test]
    fn sbt_subtree_decomposition((shape, bits) in shape_and_bits()) {
        let root = Vertex::from_bits(shape, bits).unwrap();
        let sbt = Sbt::induced(root);
        let sum: u64 = children(root, None).map(|(c, j)| subtree_size(c, Some(j))).sum();
        prop_assert_eq!(sum + 1, 1 << sbt.height());
        let mut nodes = Vec::new();
        walk(root, None, 0, &mut nodes);
        for (node, via, _) in nodes {
            prop_assert_eq!(subtree_size(node, via), 1 << child_dims(node, via).count_ones());
        }
    }

    /// A walk entered at any vertex across any dimension — held or not,
    /// as a region walk's entry need not hold it — stays in that
    /// dimension's prefix region and visits `2^popcount(child_dims)`
    /// distinct vertices.
    #[test]
    fn a_walk_entered_anywhere_stays_in_its_region((shape, bits) in shape_and_bits(), p in 0u8..10) {
        let w = Vertex::from_bits(shape, bits).unwrap();
        let p = p % shape.r();
        let (level, prefix) = subtree_region(w.bits(), p);
        let mut nodes = Vec::new();
        walk(w, Some(p), 0, &mut nodes);
        let mut seen = std::collections::HashSet::new();
        for &(node, _, _) in &nodes {
            prop_assert!(seen.insert(node.bits()), "duplicate visit");
            prop_assert_eq!(node.bits() >> level, prefix);
        }
        prop_assert_eq!(nodes.len() as u64, 1 << child_dims(w, Some(p)).count_ones());
    }
}
