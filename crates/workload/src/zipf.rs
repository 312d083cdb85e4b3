//! An exact, seedable Zipf sampler.
//!
//! §1: "keyword frequency … typically follows *Zipf's law*: a few
//! keywords occur very often while many others occur rarely." Rank `k`
//! (1-based) gets probability proportional to `k^(−s)`.

use hyperdex_simnet::rng::SimRng;

/// A Zipf(`s`) distribution over ranks `0..n` sampled by inverse-CDF
/// lookup — exact (no rejection), deterministic given the RNG.
///
/// The lookup is the guide-table ("indexed search") method of Chen &
/// Asau (1974; Devroye, *Non-Uniform Random Variate Generation*, 1986,
/// ch. III): the search for `u` starts at the first rank whose CDF
/// reaches the start of the `1/n`-wide slice `u` falls in, so a draw
/// takes O(1) expected steps and returns exactly the rank a binary
/// search of the CDF would.
///
/// # Example
///
/// ```
/// use hyperdex_simnet::rng::SimRng;
/// use hyperdex_workload::zipf::ZipfSampler;
///
/// let zipf = ZipfSampler::new(1000, 1.0);
/// let mut rng = SimRng::new(7);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    /// `guide[j]`: the first rank whose CDF reaches `j / n`.
    guide: Vec<usize>,
    exponent: f64,
}

impl ZipfSampler {
    /// Creates a sampler over `n` ranks with exponent `s ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative or non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf domain must be non-empty");
        assert!(
            s >= 0.0 && s.is_finite(),
            "zipf exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        cdf.extend(running_sums(n, s));
        let total = cdf[n - 1];
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against rounding leaving the last value below 1.
        cdf[n - 1] = 1.0;
        let mut guide = Vec::with_capacity(n);
        let mut rank = 0;
        for j in 0..n {
            let start = j as f64 / n as f64;
            // `cdf[n - 1]` is 1, so this stops inside the table.
            while cdf[rank] < start {
                rank += 1;
            }
            guide.push(rank);
        }
        ZipfSampler {
            cdf,
            guide,
            exponent: s,
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the domain is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability of rank `k` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn probability(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Cumulative probability of the top `k` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > len()`.
    pub fn top_share(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.cdf.len(), "k out of range");
        self.cdf[k - 1]
    }

    /// Draws a rank (0-based; rank 0 is the most popular).
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        self.rank_of(rng.gen_f64())
    }

    /// The first rank whose CDF reaches `u` (the last rank if none
    /// does) — `cdf.partition_point(|&c| c < u).min(n - 1)` for every
    /// `u`, ties included. The guide table only picks where the walk
    /// starts; the two loops make the answer exact from any start.
    fn rank_of(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        let slice = ((u * self.cdf.len() as f64) as usize).min(last);
        let mut rank = self.guide[slice];
        while rank > 0 && self.cdf[rank - 1] >= u {
            rank -= 1;
        }
        while rank < last && self.cdf[rank] < u {
            rank += 1;
        }
        rank
    }

    /// Finds an exponent `s` such that the top `k` of `n` ranks carry
    /// approximately `share` of the mass (bisection) — used to calibrate
    /// query skew to the paper's "top-10 ≈ 60 %" statistic.
    ///
    /// # Panics
    ///
    /// Panics if `share` is not in `(0, 1)` or `k >= n`.
    pub fn calibrate_exponent(n: usize, k: usize, share: f64) -> f64 {
        assert!((0.0..1.0).contains(&share) && share > 0.0, "share in (0,1)");
        assert!(k >= 1 && k < n, "need 1 <= k < n");
        let (mut lo, mut hi) = (0.0f64, 8.0f64);
        for _ in 0..60 {
            let mid = (lo + hi) / 2.0;
            // `ZipfSampler::new(n, mid).top_share(k)` to the bit, with
            // no table: the same sums in the same order (`k < n`, so
            // the share is never the pinned last value).
            let mut sums = running_sums(n, mid);
            let top = sums.nth(k - 1).expect("k < n");
            let total = sums.last().expect("k < n");
            if top / total < share {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo + hi) / 2.0
    }
}

/// `Σ_{i ≤ k} i^(−s)` for `k = 1..=n`: the unnormalized CDF.
fn running_sums(n: usize, s: f64) -> impl Iterator<Item = f64> {
    (1..=n).scan(0.0f64, move |acc, k| {
        *acc += (k as f64).powf(-s);
        Some(*acc)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_sum_to_one() {
        let z = ZipfSampler::new(500, 1.0);
        let total: f64 = (0..500).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_one_dominates() {
        let z = ZipfSampler::new(100, 1.0);
        assert!(z.probability(0) > z.probability(1));
        assert!(z.probability(1) > z.probability(50));
        // p(k) ∝ 1/k: p(0)/p(1) = 2.
        assert!((z.probability(0) / z.probability(1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn s_zero_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for k in 0..10 {
            assert!((z.probability(k) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn sampling_matches_distribution() {
        let z = ZipfSampler::new(50, 1.2);
        let mut rng = SimRng::new(3);
        let n = 100_000;
        let mut counts = [0u32; 50];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for k in [0usize, 1, 5, 20] {
            let observed = f64::from(counts[k]) / n as f64;
            let expected = z.probability(k);
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {k}: {observed} vs {expected}"
            );
        }
    }

    #[test]
    fn samples_within_range() {
        let z = ZipfSampler::new(7, 2.0);
        let mut rng = SimRng::new(9);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn top_share_monotone_in_exponent() {
        let low = ZipfSampler::new(1000, 0.5).top_share(10);
        let high = ZipfSampler::new(1000, 1.5).top_share(10);
        assert!(high > low);
    }

    #[test]
    fn calibrate_hits_target_share() {
        // The paper's statistic: top-10 of the daily distinct queries
        // carry 60 % of the volume.
        let s = ZipfSampler::calibrate_exponent(10_000, 10, 0.6);
        let achieved = ZipfSampler::new(10_000, s).top_share(10);
        assert!((achieved - 0.6).abs() < 0.01, "achieved {achieved}");
    }

    /// Asserts `rank_of` is the binary search it replaced at 0, at
    /// every CDF value and the floats either side of it, and at
    /// `draws` seeded uniforms.
    fn assert_rank_of_is_the_search(z: &ZipfSampler, draws: usize) {
        let (n, s) = (z.len(), z.exponent());
        let mut probes = vec![0.0];
        for &c in &z.cdf {
            probes.extend([c.next_down(), c, c.next_up()]);
        }
        // Above 1 the walk runs to the last rank; once a value is
        // enough when the tail is one long tie.
        probes.sort_by(f64::total_cmp);
        probes.dedup();
        let mut rng = SimRng::new(n as u64 ^ s.to_bits());
        probes.extend((0..draws).map(|_| rng.gen_f64()));
        for u in probes {
            let searched = z.cdf.partition_point(|&c| c < u).min(n - 1);
            assert_eq!(z.rank_of(u), searched, "n {n}, s {s}, u {u:e}");
        }
    }

    #[test]
    fn the_guide_table_is_the_binary_search() {
        // s = 8 absorbs the tail's terms, so the CDF ends in long ties.
        // 20 laws × 5,000 draws: 10⁵ seeded uniforms in all.
        for n in [1, 2, 10, 10_000, 60_000] {
            for s in [0.0, 1.0, 1.2, 8.0] {
                assert_rank_of_is_the_search(&ZipfSampler::new(n, s), 5_000);
            }
        }
    }

    #[test]
    fn the_walk_is_exact_from_any_start() {
        // The table only picks where the walk starts: from the first
        // rank or the last, the answer is the same.
        for s in [0.0, 1.0, 8.0] {
            let mut z = ZipfSampler::new(50, s);
            for start in [0, 49] {
                z.guide.fill(start);
                assert_rank_of_is_the_search(&z, 1_000);
            }
        }
    }

    #[test]
    fn calibration_matches_the_sampler_to_the_bit() {
        for (n, k) in [(11, 10), (200, 10), (10_000, 10), (60_000, 1)] {
            let (mut lo, mut hi) = (0.0f64, 8.0f64);
            for _ in 0..60 {
                let mid = (lo + hi) / 2.0;
                if ZipfSampler::new(n, mid).top_share(k) < 0.6 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let calibrated = ZipfSampler::calibrate_exponent(n, k, 0.6);
            assert_eq!(calibrated.to_bits(), ((lo + hi) / 2.0).to_bits(), "n {n}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_domain_panics() {
        ZipfSampler::new(0, 1.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let z = ZipfSampler::new(100, 1.0);
        let mut a = SimRng::new(5);
        let mut b = SimRng::new(5);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }
}
