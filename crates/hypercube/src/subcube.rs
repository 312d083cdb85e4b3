//! Induced subhypercubes (Definition 3.1).
//!
//! The subhypercube `H_r(u)` induced by a vertex `u` consists of every
//! vertex `w` that *contains* `u` (`One(u) ⊆ One(w)`). It is isomorphic
//! to a `|Zero(u)|`-dimensional hypercube: the free coordinates are
//! exactly the zero positions of `u`. Lemma 3.1 is the reason the search
//! scheme cares: every object describable by a keyword set `K` is indexed
//! somewhere inside `H_r(F_h(K))`.

use crate::bits;
use crate::vertex::Vertex;

/// The subhypercube `H_r(u)` induced by a root vertex `u`.
///
/// # Example
///
/// ```
/// use hyperdex_hypercube::{Shape, Subcube, Vertex};
///
/// let shape = Shape::new(4)?;
/// let u = Vertex::from_bits(shape, 0b0100)?;
/// let sub = Subcube::induced_by(u);
/// assert_eq!(sub.dim(), 3);          // isomorphic to H_3 (Fig. 3)
/// assert_eq!(sub.len(), 8);
/// assert!(sub.iter().all(|w| w.contains(u)));
/// # Ok::<(), hyperdex_hypercube::DimensionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Subcube {
    root: Vertex,
}

impl Subcube {
    /// Creates the subhypercube induced by `root`.
    pub fn induced_by(root: Vertex) -> Self {
        Subcube { root }
    }

    /// The free dimensions, `Zero(u)`, as a bitmask.
    pub fn free_mask(self) -> u64 {
        self.root.zero_mask()
    }

    /// The dimensionality of the isomorphic hypercube, `|Zero(u)|`.
    pub fn dim(self) -> u32 {
        self.root.zero_count()
    }

    /// The number of vertices, `2^|Zero(u)|`.
    // A subcube always contains at least its root, so there is no
    // meaningful `is_empty`.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> u64 {
        1u64 << self.dim()
    }

    /// Iterates over every vertex of the subcube.
    ///
    /// Vertices are produced in increasing order of the dense index over
    /// the free bits (the root first, the all-free-bits-set vertex last).
    pub fn iter(self) -> Iter {
        Iter {
            subcube: self,
            next_index: 0,
        }
    }

    /// The vertex of this subcube with the given dense index over free
    /// bits (inverse of enumeration order).
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ len()`.
    pub fn vertex_at(self, index: u64) -> Vertex {
        assert!(index < self.len(), "subcube index {index} out of range");
        let bits = self.root.bits() | bits::deposit(index, self.free_mask());
        Vertex::from_bits(self.root.shape(), bits).expect("deposit stays within shape")
    }
}

/// Iterator over all vertices of a [`Subcube`].
#[derive(Debug, Clone)]
pub struct Iter {
    subcube: Subcube,
    next_index: u64,
}

impl Iterator for Iter {
    type Item = Vertex;

    fn next(&mut self) -> Option<Vertex> {
        if self.next_index >= self.subcube.len() {
            None
        } else {
            let v = self.subcube.vertex_at(self.next_index);
            self.next_index += 1;
            Some(v)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.subcube.len() - self.next_index) as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Iter {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    fn v(r: u8, bits: u64) -> Vertex {
        Vertex::from_bits(Shape::new(r).unwrap(), bits).unwrap()
    }

    #[test]
    fn paper_figure3_h4_0100() {
        // Figure 3(b): H_4(0100) has 8 nodes, all containing 0100.
        let sub = v(4, 0b0100).subcube();
        assert_eq!(sub.dim(), 3);
        assert_eq!(sub.len(), 8);
        let members: Vec<u64> = sub.iter().map(|w| w.bits()).collect();
        let mut expected = vec![
            0b0100, 0b0101, 0b0110, 0b0111, 0b1100, 0b1101, 0b1110, 0b1111,
        ];
        let mut got = members.clone();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn root_is_first_vertex() {
        let sub = v(5, 0b00101).subcube();
        assert_eq!(sub.iter().next(), Some(sub.root));
    }

    #[test]
    fn membership_matches_containment() {
        let u = v(4, 0b0101);
        let members: Vec<Vertex> = u.subcube().iter().collect();
        let containing: Vec<Vertex> = (0..16u64)
            .map(|bits| v(4, bits))
            .filter(|w| w.contains(u))
            .collect();
        assert_eq!(members, containing);
    }

    #[test]
    fn unit_subcube() {
        let sub = v(3, 0b111).subcube();
        assert_eq!(sub.len(), 1);
        assert_eq!(sub.iter().collect::<Vec<_>>(), vec![sub.root]);
    }

    #[test]
    fn full_cube_from_zero_root() {
        let shape = Shape::new(4).unwrap();
        let sub = Vertex::from_bits(shape, 0).unwrap().subcube();
        assert_eq!(sub.len(), 16);
        assert_eq!(sub.iter().count(), 16);
    }

    #[test]
    fn vertex_at_enumerates_distinct_members() {
        let sub = v(6, 0b010010).subcube();
        let members: std::collections::BTreeSet<u64> =
            (0..sub.len()).map(|i| sub.vertex_at(i).bits()).collect();
        assert_eq!(members.len() as u64, sub.len());
        assert!(members.iter().all(|&bits| v(6, bits).contains(sub.root)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vertex_at_out_of_range_panics() {
        v(4, 0b1111).subcube().vertex_at(1);
    }

    #[test]
    fn lemma_3_3_nesting() {
        // If u ⊆ w (one-sets), H(w) ⊆ H(u).
        let u = v(6, 0b000100);
        let w = v(6, 0b010100);
        assert!(w.contains(u));
        // Every member of H(w) is a member of H(u), not the other way.
        for m in w.subcube().iter() {
            assert!(m.contains(u));
        }
        assert!(u.subcube().iter().any(|m| !m.contains(w)));
    }

    #[test]
    fn exact_size_iterator() {
        let sub = v(5, 0b00011).subcube();
        let mut it = sub.iter();
        assert_eq!(it.len(), 8);
        it.next();
        assert_eq!(it.len(), 7);
    }
}
