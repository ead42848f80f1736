//! Summary statistics the benchmark reports.

/// Median of `xs` (mean of the middle pair for an even count); `None`
/// when empty. Infinite values sort last, so a failed request counted
/// as +∞ can only push the median up.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The highest percentile of `xs` that still has at least
/// [`TAIL_BEYOND`] samples beyond it: the `(TAIL_BEYOND + 1)`-th largest
/// sample, at percentile `100 · (n − TAIL_BEYOND) / n`. Returns `(value,
/// percentile, sample count)`; `None` when there are too few samples.
/// The report prints it beside `latency_tail_ms`, which [`tail`] gives.
pub fn highest_percentile(xs: &[f64]) -> Option<(f64, f64, usize)> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pct = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    Some((v[n - 1 - TAIL_BEYOND], pct, n))
}

/// Percentile where the band `latency_tail_ms` averages begins.
pub const TAIL_PCT: usize = 90;

/// Samples that must lie beyond a reported tail.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs`: the mean of the samples from its [`TAIL_PCT`]-th
/// percentile (by nearest rank) up to its `(TAIL_BEYOND + 1)`-th
/// largest, so at least [`TAIL_BEYOND`] samples lie beyond every sample
/// it averages. Under 100 samples that band is empty, and the tail is
/// the `(TAIL_BEYOND + 1)`-th largest alone. Returns `(mean, samples
/// averaged, sample count)`; `None` when there are too few samples. A
/// failed request, counted as +∞, makes the tail +∞ once more than
/// [`TAIL_BEYOND`] requests failed.
///
/// It is a band mean rather than [`highest_percentile`], one order
/// statistic. A single sample near the top reads whatever stands at
/// that rank, and on a shared host the few slowest requests of a run
/// are scheduler stalls: how many stalls a run happened to get would
/// flip the figure between them and the program's own slowest requests.
/// Latencies over the wire also come in timer-tick steps, so one order
/// statistic jumps a whole step when its rank crosses one; a mean over
/// the band moves smoothly.
pub fn tail(xs: &[f64]) -> Option<(f64, usize, usize)> {
    let n = xs.len();
    let hi = n.checked_sub(TAIL_BEYOND).filter(|&hi| hi > 0)?;
    let lo = (n * TAIL_PCT).div_ceil(100).saturating_sub(1).min(hi - 1);
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let band = &v[lo..hi];
    Some((band.iter().sum::<f64>() / band.len() as f64, band.len(), n))
}

/// Geometric mean of strictly positive, finite values; `None` if any
/// value is not, or the slice is empty.
pub fn gmean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| !(x.is_finite() && x > 0.0)) {
        return None;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    Some((log_sum / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_infinite() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(
            median(&[1.0, f64::INFINITY, f64::INFINITY]),
            Some(f64::INFINITY)
        );
        assert_eq!(median(&[1.0, 2.0, f64::INFINITY]), Some(2.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let (v, pct, n) = highest_percentile(&xs).unwrap();
        assert_eq!((v, n), (1.0, 11));
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);

        // 1000 samples: the p99 has exactly 10 beyond it.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (v, pct, n) = highest_percentile(&xs).unwrap();
        assert_eq!((v, pct, n), (990.0, 99.0, 1000));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_averages_from_the_p90_to_the_eleventh_largest() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&[1.0; 10]), None);
        // Under 100 samples the band is empty: the 11th-largest alone.
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((89.0, 1, 99)));
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((1.0, 1, 11)));

        // 100 samples: the band is the p90 alone, with 10 beyond it.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 1, 100)));

        // 336 samples: ranks 303..=326 (nearest-rank p90 to 11th-largest).
        let xs: Vec<f64> = (1..=336).map(f64::from).collect();
        let (v, k, n) = tail(&xs).unwrap();
        assert_eq!((k, n), (24, 336));
        assert!((v - (303.0 + 326.0) / 2.0).abs() < 1e-12);

        // However slow the ten slowest are, they do not move it.
        let mut xs: Vec<f64> = vec![50.0; 300];
        xs.extend([70.0; 40]);
        let base = tail(&xs).unwrap().0;
        xs.truncate(330);
        xs.extend([500.0; 10]);
        assert_eq!(tail(&xs).unwrap().0, base);
    }

    #[test]
    fn tail_counts_failures_beyond() {
        let mut xs: Vec<f64> = (1..=197).map(f64::from).collect();
        xs.extend([f64::INFINITY; 3]);
        let (v, k, n) = tail(&xs).unwrap();
        assert_eq!((k, n), (11, 200));
        assert!(
            (v - 185.0).abs() < 1e-12,
            "failures sort last, beyond the band"
        );
        xs.extend([f64::INFINITY; 10]);
        assert_eq!(tail(&xs).unwrap().0, f64::INFINITY);
    }

    #[test]
    fn gmean_is_the_geometric_mean() {
        assert_eq!(gmean(&[]), None);
        assert!((gmean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((gmean(&[5.0; 7]).unwrap() - 5.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 10.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(gmean(&[1.0, 0.0]), None);
        assert_eq!(gmean(&[1.0, f64::NAN]), None);
        assert_eq!(gmean(&[1.0, -2.0]), None);
        // Order does not matter beyond the last bits.
        let a = gmean(&[3.0, 7.0, 11.0]).unwrap();
        let b = gmean(&[11.0, 3.0, 7.0]).unwrap();
        assert!((a - b).abs() / a < 1e-15);
    }
}
