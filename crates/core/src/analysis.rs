//! The probabilistic analysis of §3.5 — Equation (1) and dimensioning.
//!
//! `|One(F_h(K))|` for a size-`m` keyword set is the number of occupied
//! buckets when `m` distinct balls land uniformly in `r` buckets.
//! Equation (1) gives its distribution; the expected search cost of a
//! superset query is bounded by `2^{r − |One|}` nodes. §4 further uses
//! these distributions to choose `r`: load balances best when the
//! object distribution over `|One(u)| = x` approaches the node
//! distribution `Binomial(r, ½)`.

/// Binomial coefficient `C(n, k)` as `f64` (exact for the `n ≤ 63`
/// range used here).
fn binomial(n: u32, k: u32) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut result = 1.0f64;
    for i in 0..k {
        result = result * f64::from(n - i) / f64::from(i + 1);
    }
    result
}

/// Equation (1): `P(|One(F_h(K))| = j)` for `|K| = m` keywords hashed
/// uniformly into `r` positions.
///
/// Returns 0 outside the feasible range `1 ≤ j ≤ min(r, m)` (or `j = 0`
/// when `m = 0`).
///
/// # Panics
///
/// Panics if `r == 0`.
///
/// # Example
///
/// ```
/// use hyperdex_core::analysis::prob_ones;
///
/// // One keyword always occupies exactly one position.
/// assert!((prob_ones(10, 1, 1) - 1.0).abs() < 1e-12);
/// // Two keywords collide with probability 1/r.
/// assert!((prob_ones(10, 2, 1) - 0.1).abs() < 1e-12);
/// assert!((prob_ones(10, 2, 2) - 0.9).abs() < 1e-12);
/// ```
pub fn prob_ones(r: u32, m: u32, j: u32) -> f64 {
    assert!(r > 0, "hypercube dimension must be positive");
    if m == 0 {
        return if j == 0 { 1.0 } else { 0.0 };
    }
    if j == 0 || j > r.min(m) {
        return 0.0;
    }
    // C(r,j) Σ_{i=0}^{j} (−1)^i C(j,i) ((j−i)/r)^m
    let mut sum = 0.0f64;
    for i in 0..=j {
        let term = binomial(j, i) * (f64::from(j - i) / f64::from(r)).powi(m as i32);
        if i % 2 == 0 {
            sum += term;
        } else {
            sum -= term;
        }
    }
    (binomial(r, j) * sum).max(0.0)
}

/// The expected number of occupied positions `E|One(F_h(K))|`.
///
/// Computed via the closed form `r (1 − (1 − 1/r)^m)`, which equals the
/// Equation-(1) expectation (tested against it).
///
/// # Panics
///
/// Panics if `r == 0`.
pub fn expected_ones(r: u32, m: u32) -> f64 {
    assert!(r > 0, "hypercube dimension must be positive");
    let r_f = f64::from(r);
    r_f * (1.0 - (1.0 - 1.0 / r_f).powi(m as i32))
}

/// Expected *fraction* of the hypercube a size-`m` query may search:
/// `E[2^{−|One|}]` over Equation (1). Approaches `2^{−m}` when `m ≪ r`
/// (the paper's Figure 8 observation).
pub fn expected_search_fraction(r: u32, m: u32) -> f64 {
    (0..=r.min(m.max(1)))
        .map(|j| prob_ones(r, m, j) * 2f64.powi(-(j as i32)))
        .sum()
}

/// The node distribution of Figure 7: the fraction of vertices with
/// `|One(u)| = x`, i.e. `C(r, x) / 2^r`.
pub fn node_fraction(r: u32, x: u32) -> f64 {
    if x > r {
        0.0
    } else {
        binomial(r, x) / 2f64.powi(r as i32)
    }
}

/// The object distribution of Figure 7 for a keyword-set-size
/// distribution `sizes` (pairs of `(m, weight)`, weights summing to 1):
/// the probability an object lands on a vertex with `|One| = x`.
pub fn object_fraction(r: u32, sizes: &[(u32, f64)], x: u32) -> f64 {
    sizes.iter().map(|&(m, w)| w * prob_ones(r, m, x)).sum()
}

/// Chooses the dimension `r` in `r_range` whose node distribution is
/// closest (total-variation distance) to the object distribution induced
/// by `sizes` — the paper's §4 guidance for picking `r` without
/// experimentation.
///
/// # Panics
///
/// Panics if `r_range` is empty or contains 0.
pub fn recommended_dimension(sizes: &[(u32, f64)], r_range: std::ops::RangeInclusive<u32>) -> u32 {
    let mut best: Option<(f64, u32)> = None;
    for r in r_range {
        let tv: f64 = (0..=r)
            .map(|x| (object_fraction(r, sizes, x) - node_fraction(r, x)).abs())
            .sum::<f64>()
            / 2.0;
        match best {
            Some((best_tv, _)) if best_tv <= tv => {}
            _ => best = Some((tv, r)),
        }
    }
    best.expect("non-empty dimension range").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdex_simnet::rng::SimRng;

    #[test]
    fn distribution_sums_to_one() {
        for r in [4u32, 8, 10, 16] {
            for m in [1u32, 2, 5, 7, 12] {
                let total: f64 = (0..=r.min(m)).map(|j| prob_ones(r, m, j)).sum();
                assert!((total - 1.0).abs() < 1e-9, "r={r} m={m}: {total}");
            }
        }
    }

    #[test]
    fn single_keyword_is_deterministic() {
        assert_eq!(prob_ones(10, 1, 1), 1.0);
        assert_eq!(prob_ones(10, 1, 2), 0.0);
    }

    #[test]
    fn m_zero_degenerate() {
        assert_eq!(prob_ones(10, 0, 0), 1.0);
        assert_eq!(prob_ones(10, 0, 1), 0.0);
        assert_eq!(expected_ones(10, 0), 0.0);
    }

    #[test]
    fn closed_form_matches_equation_one() {
        for r in [6u32, 10, 14] {
            for m in [1u32, 3, 7, 10, 20] {
                let a = expected_ones(r, m);
                // Σ j · P(|One| = j), straight from Equation (1).
                let b: f64 = (0..=r.min(m))
                    .map(|j| f64::from(j) * prob_ones(r, m, j))
                    .sum();
                assert!((a - b).abs() < 1e-8, "r={r} m={m}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn equation_one_matches_monte_carlo() {
        // Throw m balls into r buckets many times; compare occupied-count
        // frequencies with Equation (1).
        let (r, m) = (10u32, 7u32);
        let trials = 200_000;
        let mut counts = vec![0u32; (r + 1) as usize];
        let mut rng = SimRng::new(42);
        for _ in 0..trials {
            let mut occupied = 0u64;
            for _ in 0..m {
                occupied |= 1 << rng.gen_range(u64::from(r));
            }
            counts[occupied.count_ones() as usize] += 1;
        }
        for j in 1..=r.min(m) {
            let expected = prob_ones(r, m, j);
            let observed = f64::from(counts[j as usize]) / trials as f64;
            assert!(
                (expected - observed).abs() < 0.005,
                "j={j}: eq1 {expected:.4} vs mc {observed:.4}"
            );
        }
    }

    #[test]
    fn expected_ones_monotone_in_m_and_bounded() {
        let r = 12;
        let mut last = 0.0;
        for m in 1..40 {
            let e = expected_ones(r, m);
            assert!(e > last, "monotone");
            assert!(e < f64::from(r), "bounded by r");
            last = e;
        }
    }

    #[test]
    fn search_fraction_approx_2_pow_neg_m() {
        // Paper (§4): for m small relative to r, the searched fraction is
        // ≈ 2^−m. The expectation E[2^−|One|] is tail-sensitive (each
        // collision doubles the weight), so allow a small constant
        // factor; the most likely |One| must still be exactly m.
        for m in 1..=5u32 {
            let frac = expected_search_fraction(12, m);
            let ideal = 2f64.powi(-(m as i32));
            assert!(
                frac >= ideal && frac < ideal * 2.0,
                "m={m}: {frac} vs {ideal}"
            );
        }
    }

    #[test]
    fn node_fractions_sum_to_one() {
        for r in [4u32, 10] {
            let total: f64 = (0..=r).map(|x| node_fraction(r, x)).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn object_fraction_mixes_sizes() {
        let sizes = [(1u32, 0.5f64), (3, 0.5)];
        let f = object_fraction(10, &sizes, 1);
        let expect = 0.5 * prob_ones(10, 1, 1) + 0.5 * prob_ones(10, 3, 1);
        assert!((f - expect).abs() < 1e-12);
    }

    #[test]
    fn recommended_dimension_tracks_set_sizes() {
        // Mean set size ~7.3 (the PCHome corpus): the paper found r ≈ 10
        // balances load best. Allow a small neighborhood.
        let sizes: Vec<(u32, f64)> = vec![
            (3, 0.08),
            (5, 0.17),
            (6, 0.20),
            (7, 0.20),
            (8, 0.15),
            (10, 0.12),
            (14, 0.08),
        ];
        let r = recommended_dimension(&sizes, 6..=16);
        assert!(
            (9..=12).contains(&r),
            "expected r near the paper's 10, got {r}"
        );
        // Tiny keyword sets want a smaller cube.
        let small = [(1u32, 0.7f64), (2, 0.3)];
        assert!(recommended_dimension(&small, 2..=16) <= 5);
    }
}
