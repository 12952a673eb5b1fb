//! Nearest-rank percentiles and the tail rule.
//!
//! The tail is the p90, or the highest lower entry of [`TAILS`] that
//! leaves at least ten samples beyond it. The p99 of millisecond ops on a
//! small shared machine reads the host's CPU steal and other tenants
//! rather than the program, so no higher percentile is used.

/// Samples a tail percentile must leave beyond it.
const MIN_BEYOND: usize = 10;

/// Percentiles a tail may use, highest first.
const TAILS: &[f64] = &[0.9, 0.75, 0.5];

/// Share of the machine's CPU time the host stole between two
/// `(steal, total)` readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64
}

/// Nearest-rank percentile `q` of ascending `sorted` (non-empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile(&sorted(values), 0.5)
}

/// `p90=… p95=… p99=… max=…` of `values` (non-empty), for the run log.
pub fn ladder(values: &[f64]) -> String {
    let v = sorted(values);
    format!(
        "p90={:.3} p95={:.3} p99={:.3} max={:.3}",
        percentile(&v, 0.9),
        percentile(&v, 0.95),
        percentile(&v, 0.99),
        percentile(&v, 1.0)
    )
}

/// Median and tail of one timing series.
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// The tail percentile used.
    pub tail_q: f64,
    /// Its value.
    pub tail: f64,
    /// Samples beyond the tail percentile.
    pub beyond: usize,
}

impl Summary {
    /// Summarise `values` (non-empty). The tail is the highest entry of
    /// [`TAILS`] that leaves ten samples beyond it (the maximum when even
    /// the median does not).
    pub fn of(values: &[f64]) -> Self {
        let n = values.len();
        let beyond = |q: f64| n - ((q * n as f64).ceil() as usize).clamp(1, n);
        let tail_q = TAILS
            .iter()
            .copied()
            .find(|&q| beyond(q) >= MIN_BEYOND)
            .unwrap_or(1.0);
        let v = sorted(values);
        Summary {
            p50: percentile(&v, 0.5),
            tail_q,
            tail: percentile(&v, tail_q),
            beyond: beyond(tail_q),
        }
    }

    /// The tail as a label, e.g. `99`.
    pub fn tail_label(&self) -> String {
        format!("{}", (self.tail_q * 100.0).round())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_falls_back_until_ten_samples_lie_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.tail_q, s.tail, s.beyond), (0.9, 180.0, 20));
        assert_eq!(s.p50, 100.0);
        let s = Summary::of(&v[..60]);
        assert_eq!((s.tail_q, s.tail, s.beyond), (0.75, 45.0, 15));
        let s = Summary::of(&v[..5]);
        assert_eq!((s.tail_q, s.tail), (1.0, 5.0));
    }
}
