//! Hypercube dimensionality.

use std::fmt;

/// Maximum supported dimensionality.
///
/// Vertices are stored as `u64` bitmasks, and subcube sizes (`2^r`) must
/// fit in a `u64`, so `r ≤ 63`. The paper's experiments use `r ≤ 16`.
pub const MAX_DIMENSION: u8 = 63;

/// The dimensionality `r` of a hypercube `H_r` (1 ..= [`MAX_DIMENSION`]).
///
/// # Example
///
/// ```
/// use hyperdex_hypercube::Shape;
///
/// let shape = Shape::new(10)?;
/// assert_eq!(shape.r(), 10);
/// assert_eq!(shape.vertex_count(), 1024);
/// # Ok::<(), hyperdex_hypercube::DimensionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Shape {
    r: u8,
}

/// Error returned for a dimensionality outside `1..=63` or a bit pattern
/// that does not fit the shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DimensionError {
    /// The requested dimensionality is zero or exceeds [`MAX_DIMENSION`].
    InvalidDimension {
        /// The rejected dimensionality.
        r: u8,
    },
    /// A vertex bit pattern has bits set at or above position `r`.
    BitsOutOfRange {
        /// The rejected bit pattern.
        bits: u64,
        /// The shape's dimensionality.
        r: u8,
    },
}

impl fmt::Display for DimensionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimensionError::InvalidDimension { r } => {
                write!(f, "hypercube dimension {r} outside 1..={MAX_DIMENSION}")
            }
            DimensionError::BitsOutOfRange { bits, r } => {
                write!(f, "bit pattern {bits:#b} does not fit in {r} dimensions")
            }
        }
    }
}

impl std::error::Error for DimensionError {}

impl Shape {
    /// Creates a shape of dimensionality `r`.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionError::InvalidDimension`] unless `1 ≤ r ≤ 63`.
    pub fn new(r: u8) -> Result<Self, DimensionError> {
        if r == 0 || r > MAX_DIMENSION {
            Err(DimensionError::InvalidDimension { r })
        } else {
            Ok(Shape { r })
        }
    }

    /// The dimensionality `r`.
    pub const fn r(self) -> u8 {
        self.r
    }

    /// The number of vertices, `2^r`.
    pub const fn vertex_count(self) -> u64 {
        1u64 << self.r
    }

    /// A mask with the low `r` bits set — the valid bit positions.
    pub const fn full_mask(self) -> u64 {
        if self.r == 64 {
            u64::MAX
        } else {
            (1u64 << self.r) - 1
        }
    }

    /// Checks that `bits` fits within this shape.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionError::BitsOutOfRange`] if any bit at position
    /// `≥ r` is set.
    pub fn check_bits(self, bits: u64) -> Result<(), DimensionError> {
        if bits & !self.full_mask() != 0 {
            Err(DimensionError::BitsOutOfRange { bits, r: self.r })
        } else {
            Ok(())
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H_{}", self.r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_range() {
        assert!(Shape::new(1).is_ok());
        assert!(Shape::new(63).is_ok());
        assert_eq!(
            Shape::new(0),
            Err(DimensionError::InvalidDimension { r: 0 })
        );
        assert_eq!(
            Shape::new(64),
            Err(DimensionError::InvalidDimension { r: 64 })
        );
    }

    #[test]
    fn vertex_count_and_mask() {
        let s = Shape::new(4).unwrap();
        assert_eq!(s.vertex_count(), 16);
        assert_eq!(s.full_mask(), 0b1111);
        let s63 = Shape::new(63).unwrap();
        assert_eq!(s63.full_mask(), u64::MAX >> 1);
    }

    #[test]
    fn check_bits_boundary() {
        let s = Shape::new(3).unwrap();
        assert!(s.check_bits(0b111).is_ok());
        assert!(s.check_bits(0b1000).is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Shape::new(7).unwrap().to_string(), "H_7");
        let err = Shape::new(0).unwrap_err();
        assert!(err.to_string().contains("dimension 0"));
    }
}
