//! Bit-manipulation helpers shared by subcube and tree iteration.
//!
//! Enumerating the vertices of a subhypercube `H_r(u)` means enumerating
//! all assignments of the *free* bit positions `Zero(u)` while holding
//! `One(u)` fixed. [`deposit`] maps a dense index onto scattered mask
//! positions, which turns that enumeration into a simple counter loop.

/// Scatters the low bits of `index` onto the set bit positions of `mask`
/// (software PDEP).
///
/// Bit `k` of `index` lands on the `k`-th lowest set bit of `mask`. Bits
/// of `index` beyond `mask.count_ones()` are ignored.
///
/// # Example
///
/// ```
/// use hyperdex_hypercube::bits::deposit;
///
/// // mask 0b1010 has free positions 1 and 3.
/// assert_eq!(deposit(0b00, 0b1010), 0b0000);
/// assert_eq!(deposit(0b01, 0b1010), 0b0010);
/// assert_eq!(deposit(0b10, 0b1010), 0b1000);
/// assert_eq!(deposit(0b11, 0b1010), 0b1010);
/// ```
pub fn deposit(index: u64, mask: u64) -> u64 {
    let mut result = 0u64;
    let mut remaining = mask;
    let mut idx = index;
    while remaining != 0 {
        let lowest = remaining & remaining.wrapping_neg();
        if idx & 1 != 0 {
            result |= lowest;
        }
        idx >>= 1;
        remaining ^= lowest;
    }
    result
}

/// Iterates over the set bit positions of `mask`, lowest first.
///
/// # Example
///
/// ```
/// use hyperdex_hypercube::bits::ones;
///
/// assert_eq!(ones(0b10110).collect::<Vec<_>>(), vec![1, 2, 4]);
/// ```
pub fn ones(mask: u64) -> impl DoubleEndedIterator<Item = u8> + Clone {
    Ones(mask)
}

/// The set positions still to yield, taken off either end of the mask
/// one instruction at a time: a walk's child loop costs its children,
/// not the word's 64 positions.
#[derive(Clone)]
struct Ones(u64);

impl Iterator for Ones {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as u8;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

impl DoubleEndedIterator for Ones {
    fn next_back(&mut self) -> Option<u8> {
        let i = self.0.checked_ilog2()? as u8;
        self.0 ^= 1 << i;
        Some(i)
    }
}

/// Advances `subset` to the next subset of `mask` in counting order,
/// returning `None` after the full mask.
///
/// Classic "iterate all submasks" trick: `(subset - mask) & mask` walks
/// every subset of `mask` exactly once starting from 0.
///
/// # Example
///
/// ```
/// use hyperdex_hypercube::bits::next_subset;
///
/// let mask = 0b101;
/// let mut s = Some(0);
/// let mut all = vec![];
/// while let Some(v) = s {
///     all.push(v);
///     s = next_subset(v, mask);
/// }
/// assert_eq!(all, vec![0b000, 0b001, 0b100, 0b101]);
/// ```
pub fn next_subset(subset: u64, mask: u64) -> Option<u64> {
    debug_assert_eq!(subset & !mask, 0, "subset must lie within mask");
    if subset == mask {
        None
    } else {
        Some(subset.wrapping_sub(mask) & mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deposit_identity_on_full_mask() {
        for v in [0u64, 1, 0b1011, 0xFFFF] {
            assert_eq!(deposit(v, 0xFFFF), v & 0xFFFF);
        }
    }

    #[test]
    fn deposit_maps_indices_one_to_one_onto_mask_subsets() {
        let mask = 0b1011_0100_1010u64;
        let k = mask.count_ones();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..(1u64 << k) {
            let scattered = deposit(i, mask);
            assert_eq!(scattered & !mask, 0, "stays within mask");
            assert!(seen.insert(scattered), "index {i} collides");
        }
    }

    #[test]
    fn deposit_ignores_high_index_bits() {
        assert_eq!(deposit(0b111, 0b1), 0b1);
    }

    #[test]
    fn deposit_empty_mask() {
        assert_eq!(deposit(u64::MAX, 0), 0);
    }

    #[test]
    fn ones_positions() {
        assert_eq!(ones(0).count(), 0);
        assert_eq!(ones(1 << 63).collect::<Vec<_>>(), vec![63]);
        assert_eq!(ones(0b1101).collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(ones(0b1101).rev().collect::<Vec<_>>(), vec![3, 2, 0]);
        // Both ends of one iterator meet without repeating a position.
        let mut both = ones(0b1011_0001 | 1 << 63);
        assert_eq!((both.next(), both.next_back()), (Some(0), Some(63)));
        assert_eq!((both.next_back(), both.next()), (Some(7), Some(4)));
        assert_eq!((both.next(), both.next_back()), (Some(5), None));
    }

    #[test]
    fn next_subset_enumerates_all() {
        let mask = 0b11010u64;
        let mut seen = vec![];
        let mut s = Some(0u64);
        while let Some(v) = s {
            seen.push(v);
            s = next_subset(v, mask);
        }
        assert_eq!(seen.len(), 1 << mask.count_ones());
        let mut dedup = seen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seen.len(), "no duplicates");
        assert!(seen.iter().all(|v| v & !mask == 0));
    }

    #[test]
    fn next_subset_singleton_mask() {
        assert_eq!(next_subset(0, 0b100), Some(0b100));
        assert_eq!(next_subset(0b100, 0b100), None);
    }

    #[test]
    fn next_subset_empty_mask() {
        assert_eq!(next_subset(0, 0), None);
    }
}
