//! The keyword-set-size distribution (Figure 5).
//!
//! Figure 5 shows the PCHome corpus's keyword-set sizes: a unimodal,
//! right-skewed histogram over roughly 1..=30 keywords with mean 7.3.
//! We model it as a discretized log-normal — the standard shape for
//! such human-annotated metadata — with parameters chosen to hit the
//! published mean, and expose the probability weights so experiments
//! (and `analysis::recommended_dimension`) can consume the distribution
//! analytically as well as by sampling.

use hyperdex_simnet::rng::SimRng;

/// Maximum keyword-set size the distribution supports.
pub const MAX_SET_SIZE: u32 = 30;

/// A discretized log-normal distribution over set sizes `1..=30`.
///
/// # Example
///
/// ```
/// use hyperdex_workload::setsize::SetSizeDistribution;
///
/// let dist = SetSizeDistribution::pchome();
/// let mean = dist.mean();
/// assert!((mean - 7.3).abs() < 0.35, "mean {mean}");
/// ```
#[derive(Debug, Clone)]
pub struct SetSizeDistribution {
    /// `weights[i]` is the probability of size `i + 1`.
    weights: Vec<f64>,
    cdf: Vec<f64>,
}

impl SetSizeDistribution {
    /// The paper's corpus: log-normal with `μ = ln 7.3 − σ²/2`,
    /// `σ = 0.45`, discretized to `1..=30` — mean ≈ 7.3 keywords,
    /// mode ≈ 6, right tail to ~20+ (the Figure 5 silhouette).
    pub fn pchome() -> Self {
        let sigma = 0.45f64;
        let mu = 7.3f64.ln() - sigma * sigma / 2.0;
        Self::log_normal(mu, sigma)
    }

    /// A discretized log-normal with the given underlying parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma <= 0` or either parameter is non-finite.
    pub fn log_normal(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite() && mu.is_finite());
        // Mass of size k = ∫ density over [k − 0.5, k + 0.5], computed
        // from the log-normal CDF via erf approximation.
        let cdf_ln = |x: f64| -> f64 {
            if x <= 0.0 {
                0.0
            } else {
                0.5 * (1.0 + erf((x.ln() - mu) / (sigma * std::f64::consts::SQRT_2)))
            }
        };
        let weights: Vec<f64> = (1..=MAX_SET_SIZE)
            .map(|k| {
                let k = f64::from(k);
                (cdf_ln(k + 0.5) - cdf_ln(k - 0.5)).max(0.0)
            })
            .collect();
        Self::from_weights(&weights)
    }

    /// Builds a distribution directly from per-size weights
    /// (`weights[i]` is the *unnormalized* mass of size `i + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, longer than [`MAX_SET_SIZE`], or
    /// sums to zero.
    pub fn from_weights(weights: &[f64]) -> Self {
        assert!(
            !weights.is_empty() && weights.len() <= MAX_SET_SIZE as usize,
            "1..=30 sizes supported"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must have positive mass");
        let weights: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            cdf.push(acc);
        }
        *cdf.last_mut().expect("non-empty") = 1.0;
        SetSizeDistribution { weights, cdf }
    }

    /// The probability of set size `k` (1-based).
    pub fn probability(&self, k: u32) -> f64 {
        if k == 0 || k as usize > self.weights.len() {
            0.0
        } else {
            self.weights[(k - 1) as usize]
        }
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.weights
            .iter()
            .enumerate()
            .map(|(i, w)| (i + 1) as f64 * w)
            .sum()
    }

    /// `(size, probability)` pairs for analytical consumers (e.g.
    /// `hyperdex_core::analysis::object_fraction`).
    pub fn size_weights(&self) -> Vec<(u32, f64)> {
        self.weights
            .iter()
            .enumerate()
            .map(|(i, &w)| ((i + 1) as u32, w))
            .collect()
    }

    /// Draws a set size in `1..=30`.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        let u = rng.gen_f64();
        (self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) + 1) as u32
    }
}

/// Abramowitz–Stegun 7.1.26 rational approximation of the error
/// function (|error| < 1.5e−7, ample for a synthetic histogram).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_91).abs() < 1e-6);
    }

    #[test]
    fn pchome_mean_matches_paper() {
        let d = SetSizeDistribution::pchome();
        assert!((d.mean() - 7.3).abs() < 0.35, "mean {}", d.mean());
    }

    #[test]
    fn weights_sum_to_one() {
        let d = SetSizeDistribution::pchome();
        let total: f64 = (1..=MAX_SET_SIZE).map(|k| d.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(d.probability(0), 0.0);
        assert_eq!(d.probability(MAX_SET_SIZE + 1), 0.0);
    }

    #[test]
    fn unimodal_right_skewed() {
        let d = SetSizeDistribution::pchome();
        // Mode in the 5-8 range, with p(1) tiny and a right tail.
        let mode = (1..=MAX_SET_SIZE)
            .max_by(|&a, &b| d.probability(a).partial_cmp(&d.probability(b)).unwrap())
            .unwrap();
        assert!((5..=8).contains(&mode), "mode {mode}");
        assert!(d.probability(1) < 0.02);
        assert!(d.probability(15) > 0.001, "needs a right tail");
    }

    #[test]
    fn samples_match_mean() {
        let d = SetSizeDistribution::pchome();
        let mut rng = SimRng::new(11);
        let n = 50_000;
        let mean = (0..n).map(|_| f64::from(d.sample(&mut rng))).sum::<f64>() / n as f64;
        assert!((mean - d.mean()).abs() < 0.1, "sampled mean {mean}");
    }

    #[test]
    fn samples_in_support() {
        let d = SetSizeDistribution::pchome();
        let mut rng = SimRng::new(13);
        for _ in 0..10_000 {
            let k = d.sample(&mut rng);
            assert!((1..=MAX_SET_SIZE).contains(&k));
        }
    }

    #[test]
    fn from_weights_custom() {
        let d = SetSizeDistribution::from_weights(&[1.0, 1.0, 2.0]);
        assert!((d.probability(3) - 0.5).abs() < 1e-12);
        assert!((d.mean() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn size_weights_align_with_probability() {
        let d = SetSizeDistribution::pchome();
        for (k, w) in d.size_weights() {
            assert_eq!(w, d.probability(k));
        }
    }

    #[test]
    #[should_panic(expected = "positive mass")]
    fn zero_weights_panic() {
        SetSizeDistribution::from_weights(&[0.0, 0.0]);
    }
}
