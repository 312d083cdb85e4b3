//! Distribution statistics for the load-balance figures.
//!
//! Figure 6 ranks nodes from heavy to light and plots the cumulative
//! percentage of objects against the percentage of nodes; a perfectly
//! balanced scheme is the diagonal. These helpers turn raw per-node
//! loads into that curve, plus scalar summaries (Gini coefficient,
//! max/mean ratio) used by tests and the experiment report.

/// A point on a ranked cumulative-load curve: `(fraction of nodes,
/// cumulative fraction of objects)`.
pub type CurvePoint = (f64, f64);

/// Builds Figure 6's ranked cumulative curve from per-node loads.
///
/// `loads` holds the loads of the *non-empty* nodes; `total_nodes` is
/// the full population (e.g. `2^r`), so empty nodes flatten the tail.
/// The curve is downsampled to at most `points` evenly spaced ranks.
///
/// # Panics
///
/// Panics if `total_nodes` is smaller than `loads.len()` or zero.
pub fn ranked_cumulative_curve(
    loads: &[usize],
    total_nodes: u64,
    points: usize,
) -> Vec<CurvePoint> {
    assert!(total_nodes > 0, "need at least one node");
    assert!(
        (loads.len() as u64) <= total_nodes,
        "more loaded nodes than nodes"
    );
    let mut sorted: Vec<usize> = loads.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let total_objects: usize = sorted.iter().sum();
    if total_objects == 0 {
        return vec![(0.0, 0.0), (1.0, 0.0)];
    }
    let points = points.max(2);
    let mut curve = Vec::with_capacity(points + 1);
    curve.push((0.0, 0.0));
    // Prefix sums over the ranked loads (zeros implicit past the end).
    let mut prefix: Vec<usize> = Vec::with_capacity(sorted.len() + 1);
    prefix.push(0);
    for &l in &sorted {
        prefix.push(prefix.last().unwrap() + l);
    }
    for p in 1..=points {
        let node_rank = (total_nodes as f64 * p as f64 / points as f64).round() as u64;
        let covered = prefix[(node_rank as usize).min(sorted.len())];
        curve.push((
            node_rank as f64 / total_nodes as f64,
            covered as f64 / total_objects as f64,
        ));
    }
    curve
}

/// The Gini coefficient of the load distribution over `total_nodes`
/// nodes (0 = perfectly even, →1 = maximally concentrated).
///
/// # Panics
///
/// Panics if `total_nodes` is smaller than `loads.len()` or zero.
pub fn gini(loads: &[usize], total_nodes: u64) -> f64 {
    assert!(total_nodes > 0, "need at least one node");
    assert!(
        (loads.len() as u64) <= total_nodes,
        "more loaded nodes than nodes"
    );
    let total: usize = loads.iter().sum();
    if total == 0 {
        return 0.0;
    }
    // Gini = 1 − 2·(area under the Lorenz curve). Ascending order with
    // the implicit zero-load nodes first.
    let mut sorted: Vec<usize> = loads.to_vec();
    sorted.sort_unstable();
    let n = total_nodes as f64;
    let mut cumulative = 0.0f64;
    let mut area = 0.0f64;
    let zero_nodes = total_nodes - loads.len() as u64;
    // Zero-load prefix contributes zero area except the trapezoid base.
    let _ = zero_nodes; // Lorenz value stays 0 across the zero prefix.
    for (i, &l) in sorted.iter().enumerate() {
        let prev = cumulative;
        cumulative += l as f64 / total as f64;
        let rank0 = (zero_nodes + i as u64) as f64 / n;
        let rank1 = (zero_nodes + i as u64 + 1) as f64 / n;
        area += (rank1 - rank0) * (prev + cumulative) / 2.0;
    }
    1.0 - 2.0 * area
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_even_curve_is_diagonal() {
        let loads = vec![10; 100];
        let curve = ranked_cumulative_curve(&loads, 100, 10);
        for &(x, y) in &curve {
            assert!((x - y).abs() < 1e-9, "({x}, {y}) off the diagonal");
        }
    }

    #[test]
    fn concentrated_curve_jumps_early() {
        // One node holds everything.
        let mut loads = vec![0usize; 99];
        loads.push(1000);
        let curve = ranked_cumulative_curve(&loads, 100, 100);
        // After the first 1% of nodes, 100% of objects are covered.
        let (_, y) = curve[1];
        assert!((y - 1.0).abs() < 1e-9);
    }

    #[test]
    fn curve_is_monotone_and_ends_at_one() {
        let loads = vec![5, 3, 9, 1, 7, 2];
        let curve = ranked_cumulative_curve(&loads, 16, 8);
        for w in curve.windows(2) {
            assert!(w[1].0 >= w[0].0 && w[1].1 >= w[0].1, "monotone");
        }
        let &(x_end, y_end) = curve.last().unwrap();
        assert!((x_end - 1.0).abs() < 1e-9);
        assert!((y_end - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_loads_flatline() {
        let curve = ranked_cumulative_curve(&[], 8, 4);
        assert_eq!(curve, vec![(0.0, 0.0), (1.0, 0.0)]);
    }

    #[test]
    fn gini_even_is_zero() {
        assert!(gini(&[7; 50], 50).abs() < 1e-9);
    }

    #[test]
    fn gini_concentrated_near_one() {
        let g = gini(&[1000], 1000);
        assert!(g > 0.99, "gini {g}");
    }

    #[test]
    fn gini_orders_schemes() {
        // A skewed distribution has a higher Gini than a mild one.
        let mild = vec![9, 10, 11, 10, 9, 11, 10, 10];
        let skewed = vec![70, 5, 2, 1, 1, 1, 0, 0];
        assert!(gini(&skewed, 8) > gini(&mild, 8));
    }

    #[test]
    fn gini_counts_empty_nodes() {
        // Same non-empty loads, more empty nodes ⇒ more inequality.
        let loads = vec![10, 10, 10, 10];
        assert!(gini(&loads, 16) > gini(&loads, 4));
    }
}
