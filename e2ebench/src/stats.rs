//! Order statistics used by every metric: nearest-rank percentiles.

/// Nearest-rank percentile: the smallest sample with at least `p` of
/// the samples at or below it (`p` in `(0, 1]`). Returns `None` for an
/// empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of the sample (nearest rank, so always an observed value).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// How many samples lie strictly above the `p` percentile — the guide
/// asks for at least ten before a tail percentile is reported as such.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    match percentile(samples, p) {
        Some(cut) => samples.iter().filter(|&&v| v > cut).count(),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_pick_observed_samples() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(10.0));
        assert_eq!(percentile(&v, 0.95), Some(19.0));
        assert_eq!(percentile(&v, 1.0), Some(20.0));
        assert_eq!(percentile(&v, 0.01), Some(1.0));
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(percentile(&r, 0.95), Some(19.0));
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_sample_count_matches_the_ten_beyond_rule() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), Some(190.0));
        assert_eq!(beyond(&v, 0.95), 10);
        let short: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(beyond(&short, 0.95), 0);
    }
}
