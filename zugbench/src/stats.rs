//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank rule: the `q`-quantile of `n` sorted
//! samples is the sample at rank `ceil(q * n)`. A percentile is only
//! reported when at least [`MIN_TAIL`] samples lie beyond it, so a tail
//! figure never rests on a handful of observations.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Zero-based index of the nearest-rank `q`-quantile among `n` samples.
fn rank_index(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Samples lying strictly beyond the `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, q)
}

/// The `q`-quantile of `sorted` (ascending), or `None` when fewer than
/// [`MIN_TAIL`] samples lie beyond it (the median is exempt: it is the
/// centre, not a tail).
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    if q > 0.5 && samples_beyond(sorted.len(), q) < MIN_TAIL {
        return None;
    }
    Some(sorted[rank_index(sorted.len(), q)])
}

/// The highest of `candidates` (quantiles in `(0, 1)`) that has at least
/// [`MIN_TAIL`] samples beyond it among `n` samples.
pub fn highest_reportable(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&q| samples_beyond(n, q) >= MIN_TAIL)
        .fold(None, |best: Option<f64>, q| {
            Some(best.map_or(q, |b| b.max(q)))
        })
}

/// Sorts `samples` ascending (NaN-free input assumed).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
    samples
}

/// Median of `values` (sorted or not); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    percentile(&s, 0.5)
}

/// One completed operation of a timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Completion time, seconds since the timed phase started.
    pub at_s: f64,
    /// Issue-to-completion latency in milliseconds.
    pub latency_ms: f64,
    /// Operations the sample completed (requests in an archived segment).
    pub ops: u64,
}

/// Throughput and latency of one window of a timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Operations completed per second in the window.
    pub ops_per_s: f64,
    /// Median latency of the window's samples.
    pub p50_ms: f64,
    /// 99th-percentile latency of the window's samples.
    pub p99_ms: f64,
}

/// Splits the samples of a timed phase, in completion order, into
/// consecutive windows of equal sample count (at least `per_window` each,
/// at most `max_windows` windows) and summarises each: a window spans
/// from the previous window's last completion to its own. Windows of
/// equal count keep every window's p99 backed by [`MIN_TAIL`] samples
/// even when throughput dips.
pub fn windows(samples: &[Sample], per_window: usize, max_windows: usize) -> Vec<Window> {
    let mut ordered = samples.to_vec();
    ordered.sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("finite times"));
    let count = (ordered.len() / per_window.max(1)).min(max_windows);
    if count == 0 {
        return Vec::new();
    }
    let size = ordered.len() / count;
    let mut out = Vec::with_capacity(count);
    let mut start_s = 0.0;
    for (i, chunk) in ordered.chunks(size).take(count).enumerate() {
        // The last window absorbs the remainder.
        let chunk = if i + 1 == count {
            &ordered[i * size..]
        } else {
            chunk
        };
        let end_s = chunk.last().expect("non-empty chunk").at_s;
        let ops: u64 = chunk.iter().map(|s| s.ops).sum();
        let latencies = sorted(chunk.iter().map(|s| s.latency_ms).collect());
        if let (Some(p50_ms), Some(p99_ms)) =
            (percentile(&latencies, 0.5), percentile(&latencies, 0.99))
        {
            out.push(Window {
                ops_per_s: ops as f64 / (end_s - start_s).max(f64::MIN_POSITIVE),
                p50_ms,
                p99_ms,
            });
        }
        start_s = end_s;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 0.5), Some(5.0));
        assert_eq!(rank_index(10, 0.55), 5);
        assert_eq!(rank_index(1, 0.99), 0);
        assert_eq!(rank_index(4, 0.0), 0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, ten samples beyond.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990 again, only nine beyond.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(percentile(&ramp(999), 0.99), None);
    }

    #[test]
    fn median_is_exempt_from_the_tail_rule() {
        assert_eq!(percentile(&ramp(3), 0.5), Some(2.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn windows_hold_equal_sample_counts() {
        // 4 s at 1000 samples/s, latency = second index + 1 ms.
        let samples: Vec<Sample> = (1..=4000)
            .map(|i| Sample {
                at_s: i as f64 / 1000.0,
                latency_ms: ((i - 1) / 1000 + 1) as f64,
                ops: 2,
            })
            .collect();
        let w = windows(&samples, 1000, 10);
        assert_eq!(w.len(), 4);
        for (i, window) in w.iter().enumerate() {
            assert!((window.ops_per_s - 2000.0).abs() < 1e-6, "{window:?}");
            assert_eq!(window.p50_ms, (i + 1) as f64);
            assert_eq!(window.p99_ms, (i + 1) as f64);
        }
        // At most `max_windows`; the last one absorbs the remainder.
        let w = windows(&samples[..3500], 1000, 2);
        assert_eq!(w.len(), 2);
        assert!((w[1].ops_per_s - 2000.0).abs() < 1e-6);
        // Too few samples for one window with a backed p99.
        assert!(windows(&samples[..999], 1000, 10).is_empty());
    }

    #[test]
    fn a_slow_stretch_moves_only_its_window() {
        // 3000 fast samples, then 1000 taking ten times as long.
        let mut samples: Vec<Sample> = (1..=3000)
            .map(|i| Sample {
                at_s: i as f64 / 1000.0,
                latency_ms: 1.0,
                ops: 1,
            })
            .collect();
        samples.extend((1..=1000).map(|i| Sample {
            at_s: 3.0 + i as f64 / 100.0,
            latency_ms: 9.0,
            ops: 1,
        }));
        let w = windows(&samples, 1000, 10);
        assert_eq!(w.len(), 4);
        assert!((w[3].ops_per_s - 100.0).abs() < 1e-6);
        let median_rate = median(&w.iter().map(|w| w.ops_per_s).collect::<Vec<_>>()).unwrap();
        assert!((median_rate - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn highest_reportable_percentile_grows_with_samples() {
        let qs = [0.5, 0.9, 0.95, 0.99, 0.999];
        assert_eq!(highest_reportable(20, &qs), Some(0.5));
        assert_eq!(highest_reportable(100, &qs), Some(0.9));
        assert_eq!(highest_reportable(1000, &qs), Some(0.99));
        assert_eq!(highest_reportable(20_000, &qs), Some(0.999));
        assert_eq!(highest_reportable(5, &qs), None);
    }
}
