//! Order statistics for latency samples.

/// Tail percentiles the ledger may report, lowest first.
const TAILS: [u32; 4] = [75, 90, 95, 99];

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// The highest tail percentile with at least ten samples beyond it, or
/// `None` when even the median has fewer than ten on each side (n < 20):
/// p90 at n = 100, p95 at n = 200.
pub fn supported_tail(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    TAILS
        .iter()
        .rev()
        .copied()
        .find(|&p| n * (100 - p as usize) >= 1000)
        .or(Some(50))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_follows_the_ten_beyond_rule() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50));
        assert_eq!(supported_tail(40), Some(75));
        assert_eq!(supported_tail(100), Some(90));
        assert_eq!(supported_tail(199), Some(90));
        assert_eq!(supported_tail(200), Some(95));
        assert_eq!(supported_tail(1000), Some(99));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 95), 95.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
