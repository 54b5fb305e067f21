//! Order statistics over complete samples.

/// Fewest samples that must lie beyond a reported percentile for it to
/// describe the tail rather than one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Sorts a sample ascending; timings are never NaN, so the total order
/// is only a formality.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile `q` (0..=1) of an ascending sample; 0 when the
/// sample is empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Whether a sample of `n` supports quantile `q`: at least
/// [`MIN_BEYOND`] samples must lie beyond its nearest rank, on the side
/// away from the median. Every workload must print every metric, so an
/// unsupported percentile is printed and flagged, not omitted.
pub fn supported(n: usize, q: f64) -> bool {
    if n == 0 {
        return false;
    }
    let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
    let beyond = if q >= 0.5 { n - rank } else { rank - 1 };
    beyond >= MIN_BEYOND
}

/// Median by nearest rank; 0 when the sample is empty.
pub fn median(v: &[f64]) -> f64 {
    nearest_rank(&sorted(v.to_vec()), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// `a / b`, or 0 when `b` is 0 — a layer that did no work reports 0
/// rather than NaN, which JSON cannot carry.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_sample_members() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 50.0);
        assert_eq!(nearest_rank(&s, 0.95), 95.0);
        assert_eq!(nearest_rank(&s, 1.0), 100.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(supported(200, 0.95), "rank 190 of 200 leaves exactly ten");
        assert!(!supported(199, 0.95), "rank 190 of 199 leaves nine");
        assert!(!supported(24, 0.95), "24 samples carry no p95");
        assert!(supported(24, 0.5), "but they carry a median");
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5), "nine beyond the median of 19");
        assert!(supported(220, 0.05), "rank 11 has ten below it");
        assert!(!supported(200, 0.05), "rank 10 has nine");
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn median_and_ratio_survive_empty_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
