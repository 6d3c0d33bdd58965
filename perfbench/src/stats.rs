//! Order statistics under the benchmark's reporting rules.

use unet_obs::json::Value;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the middle pair for an even count); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; 0 when empty (per-layer means of absent layers).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A tail latency with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the chosen rank.
    pub value: f64,
    /// Nearest-rank percentile of that sample.
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
    /// Samples strictly after the chosen rank.
    pub beyond: usize,
}

impl Tail {
    /// The evidence printed next to a tail latency.
    pub fn note(&self) -> Value {
        Value::Obj(vec![
            ("percentile".into(), Value::Float(self.percentile)),
            ("samples".into(), Value::UInt(self.samples as u64)),
            ("beyond".into(), Value::UInt(self.beyond as u64)),
        ])
    }
}

/// The highest nearest-rank percentile with at least [`MIN_BEYOND`]
/// samples beyond it, but never below the (lower) median: with fewer
/// than `2 * MIN_BEYOND + 2` samples that rank would fall below it, and
/// the median is reported instead.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let rank = (n - 1).saturating_sub(MIN_BEYOND).max((n - 1) / 2);
    Some(Tail {
        value: s[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
        beyond: n - 1 - rank,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the rule cannot depend on input order.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.value, t.percentile, t.samples, t.beyond), (990.0, 99.0, 1000, 10));
        let t = tail(&ramp(200)).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond), (190.0, 95.0, 10));
    }

    #[test]
    fn tail_is_the_highest_rank_with_ten_beyond() {
        for n in 22..300 {
            let t = tail(&ramp(n)).unwrap();
            assert_eq!(t.beyond, MIN_BEYOND, "n = {n}");
            assert_eq!(t.value, (n - MIN_BEYOND) as f64, "n = {n}");
            assert!(t.value >= median(&ramp(n)).unwrap(), "n = {n}");
        }
    }

    #[test]
    fn small_samples_report_the_median_not_less() {
        for n in 1..=21 {
            let t = tail(&ramp(n)).unwrap();
            assert_eq!(t.value, n.div_ceil(2) as f64, "n = {n}");
            assert_eq!(t.beyond, n / 2, "n = {n}");
        }
        // The step from the median to the rule is continuous.
        assert_eq!(tail(&ramp(21)).unwrap().value, 11.0);
        assert_eq!(tail(&ramp(22)).unwrap().value, 12.0);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
