//! Order statistics over timing samples.
//!
//! Tail percentiles follow one rule: a percentile is reported only when
//! at least [`MIN_BEYOND`] samples lie beyond it, so a "p99" is never
//! the single slowest of a hundred samples.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (in `0.0..=1.0`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&p), "percentile {p} outside 0..=1");
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| v[rank - 1])
}

/// Median (mean of the two middle samples for an even count); `None`
/// for no samples. Unlike the tail percentiles it needs no margin.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `None` for no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Total length of the union of half-open intervals `[start, end)`.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is rank 90: exactly ten samples beyond.
        assert_eq!(percentile(&xs, 0.90), Some(90.0));
        // p95 and p99 would leave five and one beyond.
        assert_eq!(percentile(&xs, 0.95), None);
        assert_eq!(percentile(&xs, 0.99), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(990.0));
        // One sample fewer: rank 990 of 999 leaves only nine beyond.
        assert_eq!(percentile(&many[..999], 0.99), None);
        assert_eq!(percentile(&many[..19], 0.5), None);
        assert_eq!(percentile(&many[..20], 0.5), Some(10.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..300).map(|i| f64::from((i * 7919) % 300)).collect();
        let a = percentile(&xs, 0.95);
        xs.reverse();
        assert_eq!(a, percentile(&xs, 0.95));
        assert_eq!(a, Some(284.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_union() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let mut iv = vec![(0, 10), (5, 15), (20, 30), (25, 26)];
        assert_eq!(union_len(&mut iv), 25);
    }
}
