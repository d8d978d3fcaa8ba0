//! Fixed-width time-binned series and multi-run averaging.
//!
//! Every daily plot in the paper (Figs. 2, 3, 6, 7, 8) is "metric sampled on
//! a fixed grid over 24 h, averaged over repetitions". [`BinSeries`]
//! accumulates one run's samples on such a grid; [`average_runs`] folds
//! aligned runs together.

use serde::{Deserialize, Serialize};

/// Accumulates samples into fixed-width time bins over `[0, horizon)`.
///
/// Times are in milliseconds to match the simulation clock.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BinSeries {
    bin_ms: u64,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl BinSeries {
    /// Creates a series covering `[0, horizon_ms)` with bins of `bin_ms`.
    ///
    /// # Panics
    /// Panics on a zero bin width or zero horizon.
    pub fn new(horizon_ms: u64, bin_ms: u64) -> Self {
        assert!(bin_ms > 0 && horizon_ms > 0);
        let n = horizon_ms.div_ceil(bin_ms) as usize;
        BinSeries { bin_ms, sums: vec![0.0; n], counts: vec![0; n] }
    }

    /// Adds a sample at time `t_ms`; samples past the horizon are ignored.
    pub fn add(&mut self, t_ms: u64, value: f64) {
        let idx = (t_ms / self.bin_ms) as usize;
        if idx < self.sums.len() {
            self.sums[idx] += value;
            self.counts[idx] += 1;
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// True when the series has no bins (never: constructor forbids it) —
    /// provided for API completeness alongside `len`.
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }

    /// Bin width in milliseconds.
    pub fn bin_ms(&self) -> u64 {
        self.bin_ms
    }

    /// Mean of samples in each bin; empty bins yield `None`.
    pub fn bin_means(&self) -> Vec<Option<f64>> {
        self.sums
            .iter()
            .zip(&self.counts)
            .map(|(&s, &c)| if c == 0 { None } else { Some(s / c as f64) })
            .collect()
    }

    /// Mean of samples in each bin; empty bins yield 0.0 (useful when the
    /// sampling cadence guarantees every bin is hit).
    pub fn bin_means_or_zero(&self) -> Vec<f64> {
        self.bin_means().into_iter().map(|m| m.unwrap_or(0.0)).collect()
    }
}

/// Averages aligned per-run series elementwise. All runs must have the same
/// length.
///
/// # Panics
/// Panics when runs have different lengths or the input is empty.
pub fn average_runs(runs: &[Vec<f64>]) -> Vec<f64> {
    assert!(!runs.is_empty(), "need at least one run");
    let n = runs[0].len();
    assert!(runs.iter().all(|r| r.len() == n), "misaligned runs");
    let mut out = vec![0.0; n];
    for run in runs {
        for (o, v) in out.iter_mut().zip(run) {
            *o += v;
        }
    }
    let k = runs.len() as f64;
    for o in &mut out {
        *o /= k;
    }
    out
}

/// Downsamples a fine-grained series (e.g. per-second) into coarser means
/// (e.g. per-hour) by grouping `factor` consecutive values.
pub fn downsample_mean(values: &[f64], factor: usize) -> Vec<f64> {
    assert!(factor > 0);
    values.chunks(factor).map(|c| c.iter().sum::<f64>() / c.len() as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_accumulate_means() {
        let mut s = BinSeries::new(10_000, 1_000);
        s.add(0, 2.0);
        s.add(500, 4.0);
        s.add(1_000, 10.0);
        s.add(20_000, 99.0); // past horizon, dropped
        let means = s.bin_means();
        assert_eq!(means.len(), 10);
        assert_eq!(means[0], Some(3.0));
        assert_eq!(means[1], Some(10.0));
        assert_eq!(means[2], None);
    }

    #[test]
    fn horizon_rounds_up_to_full_bins() {
        let s = BinSeries::new(2_500, 1_000);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn average_runs_elementwise() {
        let avg = average_runs(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        assert_eq!(avg, vec![2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn average_runs_rejects_misaligned() {
        average_runs(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn downsample_means_chunks() {
        let out = downsample_mean(&[1.0, 3.0, 5.0, 7.0, 9.0], 2);
        assert_eq!(out, vec![2.0, 6.0, 9.0]);
    }
}
