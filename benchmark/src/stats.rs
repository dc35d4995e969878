//! Sample summaries: medians, nearest-rank percentiles and the tail rule
//! every timing in this benchmark is reported under — the highest
//! percentile of a fixed ladder that still has at least
//! [`MIN_BEYOND`] samples beyond it, never above a workload's cap.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 4] = [99.0, 90.0, 75.0, 50.0];

/// 1-based nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank position of `p`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest ladder percentile no greater than `cap` with at least
/// [`MIN_BEYOND`] samples beyond it; `None` when even the median lacks
/// them (fewer than 20 samples).
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of already-sorted samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Median (nearest-rank p50) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, 50.0)
}

/// A timing summary: median, tail percentile and how many samples both
/// rest on.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile chosen by [`tail_percentile`].
    pub tail_p: f64,
    /// Value at `tail_p`.
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples` with the tail capped at `cap`.  With fewer
    /// than 20 samples the tail falls back to the maximum (labelled p100).
    pub fn of(samples: &[f64], cap: f64) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let p50 = percentile_sorted(&sorted, 50.0);
        let (tail_p, tail) = match tail_percentile(n, cap) {
            Some(p) => (p, percentile_sorted(&sorted, p)),
            None => (100.0, sorted[n - 1]),
        };
        Summary {
            n,
            p50,
            tail_p,
            tail,
        }
    }

    /// `p99 of 1200 samples`-style label stating the sample count.
    pub fn tail_label(&self) -> String {
        format!("p{} of {} samples", self.tail_p, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(999, 99.0), Some(90.0));
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        assert_eq!(tail_percentile(99, 99.0), Some(75.0));
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(19, 99.0), None);
        assert_eq!(tail_percentile(0, 99.0), None);
    }

    #[test]
    fn tail_rule_respects_the_cap() {
        assert_eq!(tail_percentile(1_000_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(5_000, 90.0), Some(90.0));
        assert_eq!(tail_percentile(5_000, 75.0), Some(75.0));
    }

    #[test]
    fn summaries_state_their_sample_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples, 99.0);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_p, 99.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.tail_label(), "p99 of 1000 samples");

        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        let s = Summary::of(&few, 99.0);
        assert_eq!((s.n, s.tail_p, s.tail), (5, 100.0, 5.0));
        assert_eq!(s.tail_label(), "p100 of 5 samples");
    }

    #[test]
    fn percentiles_are_nearest_rank_and_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0], 75.0), 3.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }
}
