//! Exact order statistics over raw samples (no bucketing, so a reported
//! latency carries every digit the clock gave it).

fn interpolate(rank: f64, at: impl Fn(usize) -> f64) -> f64 {
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    at(lo) + (at(hi) - at(lo)) * (rank - lo as f64)
}

/// The `p`-th percentile (0-100) of an **ascending** slice, interpolating
/// linearly between the two nearest ranks; 0 for an empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    interpolate(rank, |i| sorted[i] as f64)
}

/// The median of samples in any order; 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    interpolate((sorted.len() - 1) as f64 / 2.0, |i| sorted[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Rank 0.5 x 99 = 49.5: halfway between the 50th and 51st value.
        assert_eq!(percentile(&v, 50.0), 50.5);
        assert!((percentile(&v, 95.0) - 95.05).abs() < 1e-9);
        assert!((percentile(&v, 99.0) - 99.01).abs() < 1e-9);
        assert_eq!(percentile(&[7], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Out-of-range percentiles clamp instead of indexing out of bounds.
        assert_eq!(percentile(&v, 250.0), 100.0);
    }

    #[test]
    fn median_takes_any_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }
}
