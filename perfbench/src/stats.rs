//! Order statistics for reported timings.
//!
//! A percentile is reported only with the number of samples beyond it:
//! a tail figure backed by fewer than [`MIN_BEYOND`] samples is flagged
//! in the run's output.

/// Fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between the two nearest order statistics. `NaN` for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let h = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (h - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// How many of `n` samples lie strictly above the order statistics the
/// `q`-quantile interpolates between.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let h = q.clamp(0.0, 1.0) * (n - 1) as f64;
    n - 1 - h.ceil() as usize
}

/// The `q`-quantile of a log2-bucketed server histogram (bucket 0 holds
/// zero, bucket `i` holds `[2^(i-1), 2^i - 1]`), interpolated linearly
/// inside the bucket the rank falls in. `NaN` when empty.
pub fn bucket_percentile(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0.0;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if seen + n as f64 >= rank {
            if i == 0 {
                return 0.0;
            }
            let lo = (1u64 << (i - 1)) as f64;
            let width = lo; // [2^(i-1), 2^i)
            return lo + width * ((rank - seen) / n as f64);
        }
        seen += n as f64;
    }
    f64::NAN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_median_is_middle() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(percentile(&xs, 0.25), 2.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn beyond_counts_the_tail() {
        // p99 of 1000 samples sits between the 990th and 991st order
        // statistics (0-based h = 989.01): nine samples lie beyond.
        assert_eq!(beyond(1000, 0.99), 9);
        assert_eq!(beyond(1001, 0.99), 10);
        assert_eq!(beyond(101, 0.9), 10);
        assert_eq!(beyond(11, 0.5), 5);
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn bucket_percentile_interpolates_within_log2_buckets() {
        let mut b = [0u64; 32];
        b[4] = 10; // values in [8, 15]
        assert_eq!(bucket_percentile(&b, 0.5), 12.0);
        b[0] = 10; // ten zeros below
        assert_eq!(bucket_percentile(&b, 0.25), 0.0);
        assert_eq!(bucket_percentile(&b, 1.0), 16.0);
        assert!(bucket_percentile(&[0; 32], 0.5).is_nan());
    }
}
