//! Order statistics over timing samples.

/// Percentiles a reported tail is chosen from, highest first.
pub const REPORTED_TAILS: [usize; 4] = [99, 95, 90, 75];

/// Percentiles the `latency_tail_ms` metric is chosen from. p99 and p95
/// are printed but not gated on: on a shared host one stall moves them
/// several-fold between runs (a served p99 of 2.9 ms in one run and
/// 16.0 ms in the next, with p90 at 2.5 and 3.0 ms).
pub const GATED_TAILS: [usize; 2] = [90, 75];

/// Samples beyond a percentile needed before it is reported as a tail.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest rank of the `p`-th percentile among `n` samples (1-based).
fn rank(p: usize, n: usize) -> usize {
    (p * n).div_ceil(100).clamp(1, n)
}

/// The `p`-th percentile (nearest rank) of `xs`, which need not be sorted.
///
/// # Panics
///
/// Panics on an empty sample: every caller times at least one operation.
pub fn percentile(xs: &[f64], p: usize) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len()) - 1]
}

/// The median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of `ladder` that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with its value. Below that
/// many samples no tail can be told from noise, and the median stands
/// in (reported as percentile 50).
pub fn tail(xs: &[f64], ladder: &[usize]) -> (usize, f64) {
    for &p in ladder {
        if !xs.is_empty() && xs.len() - rank(p, xs.len()) >= TAIL_MIN_BEYOND {
            return (p, percentile(xs, p));
        }
    }
    (50, median(xs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, &REPORTED_TAILS), (99, 990.0));
        assert_eq!(tail(&xs, &GATED_TAILS), (90, 900.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, &REPORTED_TAILS), (90, 90.0));
        let xs: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(tail(&xs, &GATED_TAILS), (50, 5.0));
    }

    #[test]
    fn median_of_even_count_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 100), 3.0);
    }
}
