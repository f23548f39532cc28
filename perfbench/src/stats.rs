//! Sample summaries: the median and the tail percentile rule.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail metric may report, highest first. A fixed ladder
/// keeps the reported percentile from creeping with small changes in the
/// sample count.
pub const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.9, 0.75, 0.5];

/// The median (mean of the middle two for an even count); `NaN` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples, computed in
/// integer per-mille so that e.g. p99 of 1000 samples is exactly rank 990.
fn rank(n: usize, q: f64) -> usize {
    let permille = (q * 1000.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] of `n`
/// samples ranked above it, or `None` when even the median lacks them.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&q| n > 0 && n - rank(n, q) >= MIN_BEYOND)
}

/// Nearest-rank quantile `q` of `values`; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// One fixed-width slice of a closed loop, by completion time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Work completed per second in the window.
    pub rate: f64,
    /// Median latency of the operations completed in it.
    pub p50: f64,
}

/// Cuts a closed loop into `width_s` windows by completion time
/// (`done_s[i]`, seconds from the loop's start, completes an operation
/// of latency `latency[i]` carrying `work` units). A window's rate is its
/// completed work over the time since the previous window's last
/// completion, so it is not quantised to whole operations per window.
/// Only full windows count: the trailing partial window is dropped, and
/// an empty window has rate 0 and latency `NaN`.
pub fn windows(done_s: &[f64], latency: &[f64], work: f64, width_s: f64) -> Vec<Window> {
    let mut done: Vec<(f64, f64)> = done_s.iter().copied().zip(latency.iter().copied()).collect();
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    let full = (done.last().map_or(0.0, |d| d.0) / width_s) as usize;
    let mut out = Vec::with_capacity(full);
    let mut rest = done.as_slice();
    let mut since = 0.0;
    for w in 1..=full {
        let end = w as f64 * width_s;
        let split = rest.partition_point(|d| d.0 < end);
        let (inside, after) = rest.split_at(split);
        rest = after;
        let latencies: Vec<f64> = inside.iter().map(|d| d.1).collect();
        let rate = match inside.last() {
            Some(&(last, _)) if last > since => {
                let rate = inside.len() as f64 * work / (last - since);
                since = last;
                rate
            }
            _ => 0.0,
        };
        out.push(Window { rate, p50: median(&latencies) });
    }
    out
}

/// A latency sample set reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The percentile the tail value is taken at (see [`tail_quantile`]);
    /// `0.5` when the sample supports no tail at all.
    pub tail_q: f64,
    /// The tail value.
    pub tail: f64,
}

/// Summarises `samples` by nearest rank; `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |q: f64| sorted[rank(n, q) - 1];
    let tail_q = tail_quantile(n).unwrap_or(0.5);
    Some(Summary { n, p50: at(0.5), tail_q, tail: at(tail_q) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.95));
    }

    #[test]
    fn tail_steps_down_the_ladder() {
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(199), Some(0.9));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn every_reported_tail_has_ten_samples_beyond() {
        for n in 1..3000 {
            if let Some(q) = tail_quantile(n) {
                let beyond = n - rank(n, q);
                assert!(beyond >= MIN_BEYOND, "n={n} q={q} beyond={beyond}");
            }
        }
    }

    #[test]
    fn summary_reports_count_and_nearest_ranks() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 990.0);
        // Exactly ten samples (991..=1000) lie beyond the reported value.
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), MIN_BEYOND);
    }

    #[test]
    fn tiny_samples_fall_back_to_the_median() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.p50, s.tail_q, s.tail), (3, 2.0, 0.5, 2.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.75), 6.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn windows_count_full_seconds_only() {
        // Completions at 0.1, 0.2, 1.5 and 2.2 s: two full windows.
        let w = windows(&[1.5, 0.1, 0.2, 2.2], &[5.0, 10.0, 30.0, 7.0], 4.0, 1.0);
        assert_eq!(w.len(), 2);
        // Two operations of 4 units done 0.2 s after the loop began.
        assert_eq!(w[0], Window { rate: 40.0, p50: 20.0 });
        // One more, 1.3 s after the previous completion.
        assert_eq!(w[1], Window { rate: 4.0 / 1.3, p50: 5.0 });
        let half = windows(&[0.1, 0.2, 1.5, 2.2], &[10.0, 30.0, 5.0, 7.0], 4.0, 0.5);
        assert_eq!(half.len(), 4);
        assert_eq!(half[1].rate, 0.0);
        assert!(half[1].p50.is_nan());
        assert_eq!(half[3].rate, 4.0 / 1.3);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert!(median(&[]).is_nan());
    }
}
