//! Gray-code walks of (sub)hypercubes.
//!
//! The binary-reflected Gray code visits every vertex of a hypercube
//! changing exactly **one bit per step** — i.e. every step crosses a
//! single hypercube edge. Walking a subcube in Gray order therefore
//! gives a Hamiltonian path over real overlay links, useful when a
//! traversal should hop between *neighboring* index nodes (whose
//! contact information is cached, §3.4) instead of dialing arbitrary
//! vertices.

use crate::bits;
use crate::subcube::Subcube;
use crate::vertex::Vertex;

/// The `i`-th binary-reflected Gray code.
///
/// # Example
///
/// ```
/// use hyperdex_hypercube::gray::gray_code;
///
/// let codes: Vec<u64> = (0..4).map(gray_code).collect();
/// assert_eq!(codes, vec![0b00, 0b01, 0b11, 0b10]);
/// ```
pub fn gray_code(i: u64) -> u64 {
    i ^ (i >> 1)
}

/// Iterates over a subcube's vertices in Gray order: consecutive
/// vertices differ in exactly one (free) bit.
///
/// # Example
///
/// ```
/// use hyperdex_hypercube::{gray, Shape, Vertex};
///
/// let shape = Shape::new(4)?;
/// let root = Vertex::from_bits(shape, 0b0100)?;
/// let walk: Vec<Vertex> = gray::walk(root.subcube()).collect();
/// assert_eq!(walk.len(), 8);
/// for pair in walk.windows(2) {
///     assert_eq!(pair[0].hamming(pair[1]), 1, "single-edge steps");
/// }
/// # Ok::<(), hyperdex_hypercube::DimensionError>(())
/// ```
pub fn walk(subcube: Subcube) -> impl Iterator<Item = Vertex> {
    let root = subcube.root();
    let mask = subcube.free_mask();
    (0..subcube.len()).map(move |i| {
        let scattered = bits::deposit(gray_code(i), mask);
        Vertex::from_bits(root.shape(), root.bits() | scattered)
            .expect("free-bit patterns stay within shape")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    fn v(r: u8, bits: u64) -> Vertex {
        Vertex::from_bits(Shape::new(r).unwrap(), bits).unwrap()
    }

    #[test]
    fn gray_code_prefix() {
        let codes: Vec<u64> = (0..8).map(gray_code).collect();
        assert_eq!(codes, vec![0, 1, 3, 2, 6, 7, 5, 4]);
    }

    #[test]
    fn consecutive_codes_differ_by_one_bit() {
        for i in 0..10_000u64 {
            let a = gray_code(i);
            let b = gray_code(i + 1);
            assert_eq!((a ^ b).count_ones(), 1, "at rank {i}");
        }
    }

    #[test]
    fn walk_visits_every_subcube_vertex_once() {
        let sub = v(6, 0b010010).subcube();
        let visited: Vec<u64> = walk(sub).map(|w| w.bits()).collect();
        assert_eq!(visited.len() as u64, sub.len());
        let mut sorted = visited.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len() as u64, sub.len(), "no repeats");
        for bits in sorted {
            assert!(sub.contains(v(6, bits)));
        }
    }

    #[test]
    fn walk_steps_are_single_edges() {
        let sub = v(5, 0b00100).subcube();
        let visited: Vec<Vertex> = walk(sub).collect();
        for pair in visited.windows(2) {
            assert_eq!(pair[0].hamming(pair[1]), 1);
        }
    }

    #[test]
    fn walk_starts_at_root() {
        let sub = v(4, 0b1010).subcube();
        assert_eq!(walk(sub).next(), Some(sub.root()));
    }

    #[test]
    fn unit_subcube_walk() {
        let sub = v(3, 0b111).subcube();
        assert_eq!(walk(sub).count(), 1);
    }
}
