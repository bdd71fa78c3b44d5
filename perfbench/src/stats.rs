//! Summary statistics and metric-name rules shared by every workload.

/// Median of `values` (mean of the middle two for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples a tail percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` (0 < q < 1) among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The fewest samples for which quantile `q` keeps [`MIN_BEYOND`]
/// samples beyond it.
pub fn samples_needed(q: f64) -> usize {
    (1..).find(|&n| beyond(n, q) >= MIN_BEYOND).expect("q < 1")
}

/// Nearest-rank quantile `q` of `values`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (the percentile is then not
/// supported by the sample, and reporting it would be a guess).
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    if beyond(values.len(), q) < MIN_BEYOND {
        return None;
    }
    Some(sorted(values)[rank(values.len(), q)])
}

/// Nearest-rank quantile for a central percentile such as the median,
/// which needs no tail rule.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    sorted(values)[rank(values.len(), q)]
}

/// Interquartile range over the median, with the quartiles computed as
/// Python's `statistics.quantiles(values, n=4)` computes them (the
/// default "exclusive" method). This is the spread the benchmark's
/// bounds are checked against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(v.len() >= 2, "quartiles need at least two samples");
    let n = v.len();
    let m = (n + 1) as f64;
    let quartile = |i: f64| {
        let pos = i * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quartile(3.0) - quartile(1.0)) / median(&v)
}

/// Quantile `q` of a log2-bucketed histogram given as `(upper_bound,
/// count)` pairs in bucket order, interpolated linearly inside the
/// bucket (the scrape exposes only buckets, so resolution is a factor
/// of two). Bucket `i` covers `[previous upper bound, upper_bound)`.
pub fn bucket_quantile(buckets: &[(f64, u64)], q: f64) -> Option<f64> {
    let total: u64 = buckets.iter().map(|b| b.1).sum();
    if total == 0 {
        return None;
    }
    let target = q * total as f64;
    let mut cumulative = 0u64;
    let mut lower = 0.0;
    for &(upper, count) in buckets {
        if count > 0 && (cumulative + count) as f64 >= target {
            let within = (target - cumulative as f64) / count as f64;
            return Some(lower + (upper - lower) * within.clamp(0.0, 1.0));
        }
        cumulative += count;
        lower = upper;
    }
    buckets.last().map(|b| b.0)
}

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail_percentile(&values, 0.99), None);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_percentile(&values, 0.99), Some(990.0));
        // Shuffled input gives the same answer.
        let mut rev = values.clone();
        rev.reverse();
        assert_eq!(tail_percentile(&rev, 0.99), Some(990.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 5.0);
        assert_eq!(percentile(&values, 0.9), 9.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 12, 20], n=4) == [10.25, 11.5, 18.0]
        let values = [12.0, 20.0, 10.0, 11.0];
        assert!((quartile_spread(&values) - (18.0 - 10.25) / 11.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn bucket_quantile_interpolates_inside_the_bucket() {
        // 4 samples in [0,1), 4 in [1,2): the median sits at the top of
        // the first bucket, the 75th percentile half-way up the second.
        let buckets = [(1.0, 4), (2.0, 4)];
        assert_eq!(bucket_quantile(&buckets, 0.5), Some(1.0));
        assert_eq!(bucket_quantile(&buckets, 0.75), Some(1.5));
        assert_eq!(bucket_quantile(&[(1.0, 0)], 0.5), None);
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "setup_s",
            "core.stems_ns_per_acc",
            "closure.wire-null",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
