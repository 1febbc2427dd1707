//! Order statistics shared by every workload.

/// The median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The tail the benchmark reports next to a median: the highest
/// percentile that still has at least [`TAIL_BEYOND`] samples above it.
///
/// With `N` samples that is the value at 0-based rank `N − 11`, i.e. the
/// `(N − 10)/N` percentile. Below 21 samples that rank falls under the
/// median, so the tail is clamped to the median (percentile 50): the
/// run was too short to resolve a tail, and the printed percentile says
/// so. Returns `(value, percentile)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    let med = median(xs);
    if n <= 2 * TAIL_BEYOND {
        return (med, 50.0);
    }
    let s = sorted(xs);
    let rank = n - TAIL_BEYOND - 1;
    let pct = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    (s[rank].max(med), pct)
}

/// Samples a reported tail must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The maximum; `0.0` for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, pct) = tail(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
    }

    #[test]
    fn short_runs_report_the_median_as_their_tail() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), (10.5, 50.0));
        let xs: Vec<f64> = (1..=21).map(f64::from).collect();
        // Rank 10 (value 11) is the median itself: 10 samples beyond it.
        assert_eq!(tail(&xs).0, 11.0);
    }
}
