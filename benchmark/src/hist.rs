//! Fixed-memory log-bucket histogram for latencies in nanoseconds.
//!
//! Values below [`LINEAR`] get one bucket each; above, every power of
//! two is cut into [`SUB`] equal buckets, so a bucket is at most
//! `1/SUB` of its lower edge wide and its midpoint is within
//! `1/(2·SUB)` = 0.78 % of any value it holds. The table covers all of
//! `u64` in 3,776 counters (30 KiB) whatever the sample count, and two
//! histograms merge by adding counters.

/// Sub-buckets per power of two.
const SUB: u64 = 64;
/// `log2(SUB)`.
const SUB_BITS: u32 = 6;
/// Values below this are counted exactly.
const LINEAR: u64 = 2 * SUB;
/// Buckets in the table.
const BUCKETS: usize = (LINEAR + (63 - SUB_BITS as u64) * SUB) as usize;

/// The percentiles [`Histogram::tail`] chooses from, lowest first, as
/// `(label, one in how many samples lies beyond it)`.
const TAILS: [(&str, u64); 5] = [
    ("p90", 10),
    ("p99", 100),
    ("p99.9", 1_000),
    ("p99.99", 10_000),
    ("p99.999", 100_000),
];

/// Samples a percentile needs beyond it before it is reported.
const MIN_BEYOND: u64 = 10;

/// A latency distribution in fixed memory.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
    (LINEAR + u64::from(e - SUB_BITS - 1) * SUB + sub) as usize
}

/// Midpoint of bucket `i`'s value range.
fn value_of(i: usize) -> u64 {
    let i = i as u64;
    if i < LINEAR {
        return i;
    }
    let e = (i - LINEAR) / SUB + u64::from(SUB_BITS) + 1;
    let sub = (i - LINEAR) % SUB;
    let shift = e - u64::from(SUB_BITS);
    let lo = (SUB + sub) << shift;
    lo + (1u64 << shift) / 2
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a duration as nanoseconds.
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The value at quantile `q` in `[0, 1]`: the bucket midpoint of
    /// the `ceil(q·n)`-th smallest sample, clamped to the exact
    /// extremes. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        self.at_rank((q * self.count as f64).ceil() as u64)
    }

    /// The `rank`-th smallest sample, to the bucket's accuracy.
    fn at_rank(&self, rank: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = rank.clamp(1, self.count);
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_of(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The highest percentile with at least ten samples beyond it, as
    /// `(label, value)`; `("p50", median)` for small samples.
    pub fn tail(&self) -> (&'static str, u64) {
        TAILS
            .iter()
            .rev()
            .find(|(_, one_in)| self.count / one_in >= MIN_BEYOND)
            .map_or(("p50", self.p50()), |&(label, one_in)| {
                (label, self.at_rank(self.count - self.count / one_in))
            })
    }

    /// `median/p99/tail/count` on one line, values in microseconds.
    pub fn summary_us(&self) -> String {
        let (label, tail) = self.tail();
        format!(
            "p50 {:.3} us, p99 {:.3} us, {label} {:.3} us, n {}",
            self.p50() as f64 / 1e3,
            self.p99() as f64 / 1e3,
            tail as f64 / 1e3,
            self.count
        )
    }
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The value a quarter of the way into `values` from their low end
/// (`Quiet::Low`, for latencies) or their high end (`Quiet::High`, for
/// rates); 0 when empty.
///
/// The reference host is a two-core virtual machine whose neighbours
/// take the processor away in bursts of tenths of a second. A burst
/// only ever makes a window slower, so among a run's windows the
/// undisturbed ones sit at the fast end; the quartile from that end is
/// an order statistic of them as long as a quarter of the run was left
/// alone, where the median needs half.
pub fn quiet_quartile(values: &mut [f64], side: Quiet) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = values.len() / 4;
    let at = match side {
        Quiet::Low => rank,
        Quiet::High => values.len().saturating_sub(1 + rank),
    };
    values.get(at).copied().unwrap_or(0.0)
}

/// Which end of a run's windows is the undisturbed one.
#[derive(Clone, Copy)]
pub enum Quiet {
    /// Smaller is faster: latencies.
    Low,
    /// Larger is faster: rates.
    High,
}

/// Windows with fewer samples than this do not vote on a percentile.
const MIN_WINDOW: u64 = 30;

/// One latency stream cut into consecutive windows of a run, each with
/// its own histogram. On a shared two-core host a stall of a few
/// hundred milliseconds moves a whole run's p99 by an integer factor;
/// it moves one window's, and the quiet quartile over windows stays
/// put.
#[derive(Default, Clone)]
pub struct Windows {
    windows: Vec<Histogram>,
}

impl Windows {
    /// Records a duration into window `window` (windows are numbered
    /// from 0 in the order the run reaches them).
    pub fn record(&mut self, window: usize, d: std::time::Duration) {
        if self.windows.len() <= window {
            self.windows.resize_with(window + 1, Histogram::new);
        }
        self.windows[window].record_duration(d);
    }

    /// Windows reached so far.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Each voting window's quantile `q`, in run order.
    pub fn quantiles(&self, q: f64) -> Vec<f64> {
        self.windows
            .iter()
            .filter(|h| h.count() >= MIN_WINDOW)
            .map(|h| h.quantile(q) as f64)
            .collect()
    }

    /// Quantile `q` of the undisturbed windows: the lower quartile
    /// over the windows of each window's quantile `q`.
    pub fn quiet_quantile(&self, q: f64) -> u64 {
        let mut per_window = self.quantiles(q);
        if per_window.is_empty() {
            return self.total().quantile(q);
        }
        quiet_quartile(&mut per_window, Quiet::Low) as u64
    }

    /// Exact sum of window `window`'s samples (0 for a window the run
    /// never reached).
    pub fn window_sum(&self, window: usize) -> u128 {
        self.windows.get(window).map_or(0, Histogram::sum)
    }

    /// Every sample of every window in one histogram.
    pub fn total(&self) -> Histogram {
        let mut all = Histogram::new();
        self.windows.iter().for_each(|h| all.merge(h));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdex_simnet::rng::SimRng;

    /// The quantile definition the histogram approximates.
    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn assert_close(h: &Histogram, sorted: &[u64], q: f64) {
        let (got, want) = (h.quantile(q) as f64, exact(sorted, q) as f64);
        assert!(
            (got - want).abs() <= want * 0.01 + 0.5,
            "q={q}: histogram {got} vs sorted vector {want}"
        );
    }

    /// Samples spread over nine decades, as latencies are.
    fn samples(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SimRng::new(seed);
        (0..n)
            .map(|_| (10f64.powf(rng.gen_f64() * 9.0)) as u64 + rng.gen_range(3))
            .collect()
    }

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        for v in (0..4096).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let i = bucket_of(v);
            assert!(i < BUCKETS, "{v} -> {i}");
            let mid = value_of(i) as f64;
            assert!(
                (mid - v as f64).abs() <= v as f64 / 128.0 + 0.5,
                "{v} vs {mid}"
            );
        }
        assert_eq!(bucket_of(LINEAR - 1) + 1, bucket_of(LINEAR));
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_match_a_sorted_vector_within_one_percent() {
        for seed in 0..5 {
            let mut values = samples(seed, 20_000);
            let mut h = Histogram::new();
            values.iter().for_each(|&v| h.record(v));
            values.sort_unstable();
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_close(&h, &values, q);
            }
            assert_eq!(h.count(), 20_000);
            assert_eq!(h.sum(), values.iter().map(|&v| u128::from(v)).sum());
            assert_eq!(h.quantile(0.0), values[0]);
            assert_eq!(h.quantile(1.0), *values.last().unwrap());
        }
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let (a, b) = (samples(1, 5_000), samples(2, 7_000));
        let (mut ha, mut hb, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        a.iter().for_each(|&v| ha.record(v));
        b.iter().for_each(|&v| hb.record(v));
        a.iter().chain(&b).for_each(|&v| all.record(v));
        ha.merge(&hb);
        assert_eq!(ha.count(), all.count());
        assert_eq!(ha.sum(), all.sum());
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(ha.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn a_stalled_window_does_not_move_the_window_median() {
        let mut w = Windows::default();
        for window in 0..9 {
            for i in 0..1_000u64 {
                let stalled = window == 4 && i % 10 == 0;
                let ns = if stalled { 50_000_000 } else { 100_000 + i };
                w.record(window, std::time::Duration::from_nanos(ns));
            }
        }
        w.record(9, std::time::Duration::from_nanos(1));
        assert_eq!(w.total().count(), 9_001);
        assert!(w.total().p99() > 40_000_000, "the run's p99 is the stall");
        assert!(
            w.quiet_quantile(0.99) < 102_000,
            "the quiet windows' p99 is not"
        );
        assert_eq!(
            w.quantiles(0.5).len(),
            9,
            "a window of one sample does not vote"
        );
        assert_eq!(Windows::default().quiet_quantile(0.5), 0);
        let mut rates = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 7.0, 6.0];
        assert_eq!(quiet_quartile(&mut rates, Quiet::Low), 3.0);
        assert_eq!(quiet_quartile(&mut rates, Quiet::High), 6.0);
        assert_eq!(quiet_quartile(&mut [9.0], Quiet::High), 9.0);
        assert_eq!(quiet_quartile(&mut [], Quiet::Low), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let mut h = Histogram::new();
        assert_eq!(h.tail(), ("p50", 0));
        (1..=99).for_each(|v| h.record(v));
        assert_eq!(h.tail().0, "p50", "99 samples: 9.9 beyond p90");
        h.record(100);
        assert_eq!(h.tail(), ("p90", 90));
        (0..900).for_each(|_| h.record(50));
        assert_eq!(h.tail().0, "p99");
        (0..9_000).for_each(|_| h.record(50));
        assert_eq!(h.tail().0, "p99.9");
    }
}
