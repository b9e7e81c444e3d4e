//! Order statistics for latency samples.

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency distribution: the highest percentile that still
/// has at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// Percentile the value sits at, e.g. 98.7.
    pub percentile: f64,
    pub samples: usize,
}

/// [`Tail`] of `values`. With ten or fewer samples nothing has ten beyond
/// it; the maximum is returned and its percentile reads 100.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
        };
    }
    let idx = n.saturating_sub(11);
    let idx = if n <= 10 { n - 1 } else { idx };
    Tail {
        value: v[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        samples: n,
    }
}

/// One-line description of a latency sample set, for the human report.
pub fn describe(label: &str, values: &[f64], unit: &str) -> String {
    let t = tail(values);
    format!(
        "{label}: p50 {:.3} {unit}, p{:.1} {:.3} {unit} (tail), n={}",
        median(values),
        t.percentile,
        t.value,
        t.samples
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
