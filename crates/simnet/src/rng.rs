//! Seeded, dependency-free pseudo-random number generation.
//!
//! Experiments must be bit-reproducible from a single `u64` seed, so the
//! simulator carries its own generator instead of depending on `rand`
//! (whose output may change across versions). The generator is
//! xoshiro256++ seeded through SplitMix64, the initialization recommended
//! by the xoshiro authors.

/// A deterministic pseudo-random number generator (xoshiro256++).
///
/// Not cryptographically secure; intended purely for reproducible
/// simulation. Two instances created with the same seed produce identical
/// streams on every platform.
///
/// # Example
///
/// ```
/// use hyperdex_simnet::rng::SimRng;
///
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

/// Advances a SplitMix64 state and returns the next output.
///
/// Used to expand a single `u64` seed into the four xoshiro words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(&mut sm);
        }
        // An all-zero state is the one degenerate case for xoshiro; the
        // SplitMix64 expansion cannot produce it, but guard regardless.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Returns the next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform value in `[0, bound)` without modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's multiply-and-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.gen_f64() < p
        }
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_index(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.gen_index(items.len())])
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (reservoir sampling).
    ///
    /// Returns fewer than `k` indices when `n < k`. The returned order is
    /// deterministic for a given state but not sorted.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        if k >= n {
            return (0..n).collect();
        }
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..n {
            let j = self.gen_index(i + 1);
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir
    }

    /// Samples from a geometric-like distribution: returns the number of
    /// consecutive successes with probability `p` each, capped at `max`.
    pub fn geometric(&mut self, p: f64, max: u32) -> u32 {
        let mut count = 0;
        while count < max && self.chance(p) {
            count += 1;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let a_vals: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let b_vals: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(a_vals, b_vals);
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut rng = SimRng::new(5);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_covers_small_domain() {
        let mut rng = SimRng::new(11);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.gen_range(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gen_range_zero_panics() {
        SimRng::new(0).gen_range(0);
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::new(17);
        for _ in 0..1000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_f64_mean_near_half() {
        let mut rng = SimRng::new(23);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gen_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_frequency_tracks_p() {
        let mut rng = SimRng::new(31);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        let freq = hits as f64 / 10_000.0;
        assert!((freq - 0.3).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(41);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn choose_none_on_empty() {
        let mut rng = SimRng::new(1);
        assert_eq!(rng.choose::<u8>(&[]), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = SimRng::new(77);
        let sample = rng.sample_indices(50, 10);
        assert_eq!(sample.len(), 10);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "indices must be distinct");
        assert!(sample.iter().all(|&i| i < 50));
    }

    #[test]
    fn sample_indices_small_n_returns_all() {
        let mut rng = SimRng::new(7);
        let mut sample = rng.sample_indices(3, 10);
        sample.sort_unstable();
        assert_eq!(sample, vec![0, 1, 2]);
    }

    #[test]
    fn geometric_capped() {
        let mut rng = SimRng::new(13);
        for _ in 0..100 {
            assert!(rng.geometric(0.9, 5) <= 5);
        }
        assert_eq!(rng.geometric(0.0, 5), 0);
    }
}
