//! Order statistics over latency samples.

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`); sorts in place.
/// Returns 0 for an empty sample.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples`; sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The smallest value at each position over equally long `runs`.
pub fn fastest(runs: &[Vec<f64>]) -> Vec<f64> {
    let mut best = runs.first().cloned().unwrap_or_default();
    for run in runs.iter().skip(1) {
        for (b, &x) in best.iter_mut().zip(run) {
            *b = b.min(x);
        }
    }
    best
}

/// Nanoseconds of a duration as `f64`.
pub fn ns(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64
}

/// A sum/count pair for per-operation means.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mean {
    pub sum: f64,
    pub n: u64,
}

impl Mean {
    pub fn add(&mut self, x: f64) {
        self.sum += x;
        self.n += 1;
    }

    /// `sum / n`, or 0 with no observations.
    pub fn value(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn fastest_per_position() {
        let runs = vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 6.0]];
        assert_eq!(fastest(&runs), vec![2.0, 1.0, 5.0]);
        assert!(fastest(&[]).is_empty());
    }
}
