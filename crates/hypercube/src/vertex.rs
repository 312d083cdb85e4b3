//! Hypercube vertices and the paper's bit-vector operations.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::bits;
use crate::shape::{DimensionError, Shape};
use crate::subcube::Subcube;

/// A vertex of an `r`-dimensional hypercube: an `r`-bit binary string.
///
/// Bit `i` (counting from the right, as in the paper's `u[i]`) is read
/// with [`Vertex::bit`]. The vertex remembers its [`Shape`], so mixing
/// vertices from different hypercubes is caught by assertions.
///
/// # Example
///
/// ```
/// use hyperdex_hypercube::{Shape, Vertex};
///
/// let shape = Shape::new(6)?;
/// let v = Vertex::from_bits(shape, 0b010100)?;
/// assert_eq!(v.one_count(), 2);
/// assert_eq!(v.zero_positions().collect::<Vec<_>>(), vec![0, 1, 3, 5]);
/// # Ok::<(), hyperdex_hypercube::DimensionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Vertex {
    shape: Shape,
    bits: u64,
}

impl Vertex {
    /// Creates a vertex from a bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionError::BitsOutOfRange`] if `bits` has a set bit
    /// at or above position `r`.
    pub fn from_bits(shape: Shape, bits: u64) -> Result<Self, DimensionError> {
        shape.check_bits(bits)?;
        Ok(Vertex { shape, bits })
    }

    /// The raw bit pattern.
    pub const fn bits(self) -> u64 {
        self.bits
    }

    /// The hypercube shape this vertex belongs to.
    pub const fn shape(self) -> Shape {
        self.shape
    }

    /// The `i`-th bit, `u[i]` in the paper's notation.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ r`.
    pub fn bit(self, i: u8) -> bool {
        assert!(i < self.shape.r(), "bit index {i} out of range");
        self.bits & (1u64 << i) != 0
    }

    /// `Zero(u)`: the positions at which this vertex has bit zero,
    /// ascending.
    pub fn zero_positions(self) -> impl DoubleEndedIterator<Item = u8> + Clone {
        bits::ones(self.zero_mask())
    }

    /// `|One(u)|`: the number of one bits.
    pub const fn one_count(self) -> u32 {
        self.bits.count_ones()
    }

    /// `|Zero(u)|`: the number of zero bits.
    pub const fn zero_count(self) -> u32 {
        self.shape.r() as u32 - self.bits.count_ones()
    }

    /// Mask of the zero positions.
    pub const fn zero_mask(self) -> u64 {
        !self.bits & self.shape.full_mask()
    }

    /// Whether `self` *contains* `other`: `other[i] ⇒ self[i]` for all
    /// `i`, i.e. `One(other) ⊆ One(self)`.
    ///
    /// # Panics
    ///
    /// Panics if the vertices come from different shapes.
    pub fn contains(self, other: Vertex) -> bool {
        self.assert_same_shape(other);
        other.bits & !self.bits == 0
    }

    /// The neighbor across dimension `i` (bit `i` flipped).
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ r`.
    pub fn flip(self, i: u8) -> Vertex {
        assert!(i < self.shape.r(), "dimension {i} out of range");
        Vertex {
            shape: self.shape,
            bits: self.bits ^ (1u64 << i),
        }
    }

    /// The subhypercube `H_r(u)` induced by this vertex
    /// (Definition 3.1): all vertices that contain `u`.
    pub fn subcube(self) -> Subcube {
        Subcube::induced_by(self)
    }

    /// Asserts that two vertices share a shape.
    fn assert_same_shape(self, other: Vertex) {
        assert_eq!(
            self.shape, other.shape,
            "vertices from different hypercubes: {} vs {}",
            self.shape, other.shape
        );
    }
}

impl fmt::Display for Vertex {
    /// Formats as an `r`-character binary string, most significant bit
    /// first, matching the paper's figures (e.g. `0100` in `H_4`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.shape.r()).rev() {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(r: u8) -> Shape {
        Shape::new(r).unwrap()
    }

    fn v(r: u8, bits: u64) -> Vertex {
        Vertex::from_bits(shape(r), bits).unwrap()
    }

    #[test]
    fn paper_example_one_zero_sets() {
        // §3.1: v = 010100 → One(v) = {2,4}, Zero(v) = {0,1,3,5}.
        let vx = v(6, 0b010100);
        assert_eq!(bits::ones(vx.bits()).collect::<Vec<_>>(), vec![2, 4]);
        assert_eq!(vx.zero_positions().collect::<Vec<_>>(), vec![0, 1, 3, 5]);
        assert_eq!(vx.one_count(), 2);
        assert_eq!(vx.zero_count(), 4);
    }

    #[test]
    fn from_bits_validates() {
        assert!(Vertex::from_bits(shape(3), 0b111).is_ok());
        assert!(Vertex::from_bits(shape(3), 0b1000).is_err());
    }

    #[test]
    fn bit_indexing_counts_from_right() {
        let vx = v(4, 0b0100);
        assert!(!vx.bit(0));
        assert!(!vx.bit(1));
        assert!(vx.bit(2));
        assert!(!vx.bit(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        v(4, 0).bit(4);
    }

    #[test]
    fn containment_is_subset_of_ones() {
        let u = v(4, 0b0100);
        assert!(v(4, 0b0100).contains(u));
        assert!(v(4, 0b0110).contains(u));
        assert!(v(4, 0b1111).contains(u));
        assert!(!v(4, 0b0011).contains(u));
        assert!(!v(4, 0b0000).contains(u));
    }

    #[test]
    fn containment_reflexive_and_antisymmetric() {
        for bits in 0..16u64 {
            let a = v(4, bits);
            assert!(a.contains(a));
            for other in 0..16u64 {
                let b = v(4, other);
                if a.contains(b) && b.contains(a) {
                    assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different hypercubes")]
    fn mixed_shapes_panic() {
        let _ = v(4, 1).contains(v(5, 1));
    }

    #[test]
    fn flip_is_involution_and_neighbor() {
        let vx = v(6, 0b010100);
        for i in 0..6 {
            let n = vx.flip(i);
            assert_eq!((vx.bits ^ n.bits).count_ones(), 1);
            assert_eq!(n.flip(i), vx);
        }
    }

    #[test]
    fn display_msb_first() {
        assert_eq!(v(4, 0b0100).to_string(), "0100");
        assert_eq!(v(6, 0b010100).to_string(), "010100");
    }

    #[test]
    fn masks_partition_the_shape() {
        let vx = v(7, 0b1010011);
        assert_eq!(vx.bits() | vx.zero_mask(), shape(7).full_mask());
        assert_eq!(vx.bits() & vx.zero_mask(), 0);
    }
}
