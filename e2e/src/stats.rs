//! Order statistics over latency samples.

/// The value at percentile `p` (0 < p ≤ 100) of an ascending-sorted
/// slice, by the nearest-rank rule: the smallest sample with at least
/// `p` % of the samples at or below it. Empty input answers 0.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` ascending in place (NaN-free by construction: every
/// sample is a measured duration).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are not NaN"));
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count). Empty input answers 0.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses, so `compare` reports the
/// spread the acceptance rule is written in. Needs ≥ 2 values.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |k: usize| {
        // Position k·(n+1)/4, 1-based, linearly interpolated and clamped.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if samples.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / m.abs()
}

/// What a run did where the host disturbed it least.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quietest {
    /// Ops per second of the fastest segment.
    pub rate: f64,
    /// The lowest of the segments' median latencies.
    pub median: f64,
}

/// Cuts a run into consecutive segments of `len` ops (`latency[i]` is op
/// i's latency, `done_s[i]` when it was done, in seconds since the
/// measured phase began) and answers the fastest segment's rate and the
/// lowest segment median. Ops after the last whole segment are left out;
/// a run shorter than one segment is one segment.
///
/// Why not the whole run: the reference host runs at two speeds 45 %
/// apart and changes between them every few seconds. A run's mean and
/// median say how much of it fell into slow spells; its quietest segment
/// says what the program did.
pub fn quietest(latency: &[f64], done_s: &[f64], len: usize) -> Quietest {
    let n = latency.len().min(done_s.len());
    let len = len.clamp(1, n.max(1));
    let mut best = Quietest {
        rate: 0.0,
        median: f64::INFINITY,
    };
    for start in (0..n.saturating_sub(len - 1)).step_by(len) {
        let began = if start == 0 { 0.0 } else { done_s[start - 1] };
        let took = done_s[start + len - 1] - began;
        best.rate = best.rate.max(len as f64 / took);
        best.median = best.median.min(median(&latency[start..start + len]));
    }
    if n == 0 {
        best.median = 0.0;
    }
    best
}

/// p50 / p95 / p99 / max and the sample count of one latency series.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        sort(&mut v);
        Summary {
            count: v.len(),
            p50: percentile_sorted(&v, 50.0),
            p95: percentile_sorted(&v, 95.0),
            p99: percentile_sorted(&v, 99.0),
            max: v.last().copied().unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 95.0), 95.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        // Fewer samples than the percentile resolves: the top sample.
        assert_eq!(percentile_sorted(&[3.0, 7.0], 95.0), 7.0);
        assert_eq!(percentile_sorted(&[3.0, 7.0], 50.0), 3.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[20.0, 10.0]);
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
    }

    #[test]
    fn quietest_segment_wins() {
        // Three segments of two ops: 10 ms ops, then 20 ms ops (a slow
        // spell), then 10 ms ops again; a seventh op is left out.
        let latency = [10.0, 10.0, 20.0, 22.0, 10.0, 12.0, 99.0];
        let done_s = [0.010, 0.020, 0.040, 0.062, 0.072, 0.084, 0.183];
        let q = quietest(&latency, &done_s, 2);
        assert!((q.rate - 100.0).abs() < 1e-9, "{q:?}");
        assert_eq!(q.median, 10.0);
        // Shorter than a segment: the whole run is the segment.
        let q = quietest(&latency[..3], &done_s[..3], 5);
        assert!((q.rate - 75.0).abs() < 1e-9 && q.median == 10.0, "{q:?}");
        assert_eq!(quietest(&[], &[], 4).median, 0.0);
    }

    #[test]
    fn summary_reports_count_and_tail() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.count, s.p50, s.max), (4, 2.0, 4.0));
    }
}
