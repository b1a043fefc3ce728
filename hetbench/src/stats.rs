//! Order statistics: the run summary, the percentile rule and the A/B
//! verdicts of `hetbench compare`.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative at the clamped ends, as in Python's exact integer math.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile `q` (in percent) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, so a tail is never read off one or two samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Quantile `q` (0..1) of an `obs` power-of-two histogram, interpolated
/// linearly inside the bucket that holds it. Buckets are
/// `(exclusive upper bound, count)` pairs; bucket `[ub/2, ub)`.
pub fn hist_quantile(buckets: &[(u64, u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0.0;
    }
    let target = q * total as f64;
    let mut seen = 0.0;
    for &(ub, count) in buckets {
        let count = count as f64;
        if seen + count >= target {
            let lo = (ub / 2) as f64;
            return lo + (ub as f64 - lo) * ((target - seen) / count);
        }
        seen += count;
    }
    buckets.last().map_or(0.0, |&(ub, _)| ub as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// True when `a` reads strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// The verdict of one metric on one workload between a parent and a change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least 9/10 of the pairs and the medians differ by
    /// more than the parent's interquartile range.
    Gain,
    /// The change's median is worse than the parent's by more than the bound.
    Regression,
    /// Either side's spread exceeds the bound, so no claim either way.
    Unresolved,
    /// Within the bound, and no gain shown.
    NoChange,
}

/// Applies the A/B rule to paired runs. `pairs` holds `(parent, change)`
/// values of the same seed; `bound` is the share of the parent's median by
/// which the metric may worsen.
pub fn verdict(pairs: &[(f64, f64)], better: Better, bound: f64) -> Verdict {
    if pairs.is_empty() {
        return Verdict::Unresolved;
    }
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let [p1, pm, p3] = quartiles(&parent);
    let cm = median(&change);
    let wins = pairs.iter().filter(|(p, c)| better.beats(*c, *p)).count();
    let gain = 10 * wins >= 9 * pairs.len() && better.beats(cm, pm) && (cm - pm).abs() > p3 - p1;
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better.beats(c, p)));
    if relative_spread(&parent) > bound || relative_spread(&change) > bound {
        return if all_better && gain {
            Verdict::Gain
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = match better {
        Better::Lower => cm - pm,
        Better::Higher => pm - cm,
    };
    if worse_by > bound * pm.abs() {
        Verdict::Regression
    } else if gain {
        Verdict::Gain
    } else {
        Verdict::NoChange
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 400 requests: p95 has 20 beyond, p99 only 4.
        assert_eq!(samples_beyond(400, 95.0), 20);
        assert_eq!(samples_beyond(400, 99.0), 4);
        assert_eq!(tail_percentile(400), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(100_000), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_bucket() {
        // 10 samples in [512, 1024), 10 in [1024, 2048).
        let b = [(1024, 10), (2048, 10)];
        assert_eq!(hist_quantile(&b, 0.5), 1024.0);
        assert_eq!(hist_quantile(&b, 0.25), 768.0);
        assert_eq!(hist_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn verdicts() {
        let steady = |base: f64, step: f64| -> Vec<(f64, f64)> {
            (0..10)
                .map(|i| (100.0 + i as f64 * 0.1, base + i as f64 * step))
                .collect()
        };
        // Lower is better: a clear, consistent 20% drop is a gain.
        assert_eq!(
            verdict(&steady(80.0, 0.1), Better::Lower, 0.1),
            Verdict::Gain
        );
        // A 20% rise is a regression beyond a 10% bound.
        assert_eq!(
            verdict(&steady(120.0, 0.1), Better::Lower, 0.1),
            Verdict::Regression
        );
        // 5% worse stays inside the bound.
        assert_eq!(
            verdict(&steady(105.0, 0.1), Better::Lower, 0.1),
            Verdict::NoChange
        );
        // The same numbers read as a gain when higher is better.
        assert_eq!(
            verdict(&steady(120.0, 0.1), Better::Higher, 0.1),
            Verdict::Gain
        );
        // A change whose own runs scatter beyond the bound is unresolved.
        let noisy: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0, if i % 2 == 0 { 60.0 } else { 140.0 }))
            .collect();
        assert_eq!(verdict(&noisy, Better::Lower, 0.1), Verdict::Unresolved);
        // 8 wins of 10 is not enough for a gain, even with a big median gap.
        let mixed: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + i as f64, if i < 8 { 90.0 } else { 200.0 }))
            .collect();
        assert_ne!(verdict(&mixed, Better::Lower, 0.5), Verdict::Gain);
        assert_eq!(verdict(&[], Better::Lower, 0.1), Verdict::Unresolved);
    }
}
