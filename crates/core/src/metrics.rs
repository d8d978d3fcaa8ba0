//! Metric pipelines: from raw run series to the paper's figures.
//!
//! * Fig. 6 — energy savings vs no-sleep over the day,
//! * Fig. 7 — number of online gateways,
//! * Fig. 8 — ISP share of the total savings,
//! * Fig. 9a — CDF of flow-completion-time increase vs no-sleep,
//! * Fig. 9b — CDF of gateway online-time variation vs SoI (fairness),
//! * §5.2.3 — average online line cards in the peak window.

use crate::completion::CompletionStats;
use crate::driver::SchemeResult;
use insomnia_simcore::{Cdf, OnlineTimeHist};
use serde::{Deserialize, Serialize};

/// Percent energy savings at each sample versus a constant no-sleep draw.
pub fn savings_percent_series(total_power_w: &[f64], baseline_w: f64) -> Vec<f64> {
    assert!(baseline_w > 0.0);
    total_power_w.iter().map(|p| (1.0 - p / baseline_w) * 100.0).collect()
}

/// Percent of total savings attributable to the ISP side, per sample.
/// Samples where nothing is saved yield `None`.
pub fn isp_share_percent_series(
    user_w: &[f64],
    isp_w: &[f64],
    base_user_w: f64,
    base_isp_w: f64,
) -> Vec<Option<f64>> {
    user_w
        .iter()
        .zip(isp_w)
        .map(|(u, i)| {
            let saved = (base_user_w - u) + (base_isp_w - i);
            if saved <= 1e-9 {
                None
            } else {
                Some((base_isp_w - i) / saved * 100.0)
            }
        })
        .collect()
}

/// Downsamples a per-second series to hourly means.
pub fn hourly_means(series: &[f64], sample_period_s: f64) -> Vec<f64> {
    let per_hour = (3_600.0 / sample_period_s).round() as usize;
    insomnia_simcore::downsample_mean(series, per_hour.max(1))
}

/// Mean of a per-second series inside the peak window `[from_h, to_h)`.
pub fn window_mean(series: &[f64], sample_period_s: f64, from_h: f64, to_h: f64) -> f64 {
    let lo = ((from_h * 3_600.0 / sample_period_s) as usize).min(series.len());
    let hi = ((to_h * 3_600.0 / sample_period_s) as usize).min(series.len());
    if hi <= lo {
        return 0.0;
    }
    series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Fig. 9a: CDF of percent increase in flow completion time vs the no-sleep
/// baseline, pooled over repetitions. Only flows that completed under both
/// schemes (matched by trace index and repetition) contribute.
///
/// The pairing needs the per-flow samples, which the driver retains while
/// the flow count sits under the scenario's `completion_cutoff` (every
/// paper preset). Repetitions past the retention cutoff — mega-city-scale
/// runs, where only the quantile sketch survives — contribute nothing: a
/// per-flow join across schemes is exactly the memory the streaming model
/// exists to avoid.
pub fn completion_variation_cdf(scheme: &SchemeResult, baseline: &SchemeResult) -> Cdf {
    let mut samples = Vec::new();
    for (rep_s, rep_b) in scheme.completion.iter().zip(&baseline.completion) {
        let (Some(rep_s), Some(rep_b)) = (rep_s.per_flow(), rep_b.per_flow()) else {
            continue;
        };
        for (s, b) in rep_s.iter().zip(rep_b) {
            if let (Some(s), Some(b)) = (s, b) {
                if *b > 0.0 {
                    samples.push((s - b) / b * 100.0);
                }
            }
        }
    }
    Cdf::from_samples(samples)
}

/// The fixed quantile grid the JSONL and figure backends report for
/// completion times, read from a (merged) [`CompletionStats`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompletionQuantiles {
    /// True when the quantiles are exact (pooled samples under the
    /// cutoff); false when they come from the log-bucket sketch
    /// (≤ 0.55 % relative error).
    pub exact: bool,
    /// Flows that completed by the horizon.
    pub completed: u64,
    /// 25th-percentile completion time, seconds.
    pub p25: f64,
    /// Median completion time, seconds.
    pub p50: f64,
    /// 75th percentile, seconds.
    pub p75: f64,
    /// 90th percentile, seconds.
    pub p90: f64,
    /// 95th percentile, seconds.
    pub p95: f64,
    /// 99th percentile, seconds.
    pub p99: f64,
}

/// Reads the reporting quantile grid out of pooled completion stats.
/// `None` when no flow completed (e.g. the Optimal scheme).
pub fn completion_quantiles(pooled: &CompletionStats) -> Option<CompletionQuantiles> {
    let qs = pooled.quantiles(&[0.25, 0.5, 0.75, 0.9, 0.95, 0.99]);
    match (qs[0], qs[1], qs[2], qs[3], qs[4], qs[5]) {
        (Some(p25), Some(p50), Some(p75), Some(p90), Some(p95), Some(p99)) => {
            Some(CompletionQuantiles {
                exact: pooled.is_exact(),
                completed: pooled.completed(),
                p25,
                p50,
                p75,
                p90,
                p95,
                p99,
            })
        }
        _ => None,
    }
}

/// Fraction of flows whose completion time increased by more than
/// `threshold_pct` percent (the paper quotes "8% of flows affected" for SoI,
/// "as few as 2%" for BH2).
pub fn fraction_affected(
    scheme: &SchemeResult,
    baseline: &SchemeResult,
    threshold_pct: f64,
) -> f64 {
    let cdf = completion_variation_cdf(scheme, baseline);
    if cdf.is_empty() {
        return 0.0;
    }
    1.0 - cdf.fraction_leq(threshold_pct)
}

/// Fig. 9b: CDF of percent variation in per-gateway online time vs SoI,
/// pooled over repetitions and clamped to `[-100, +100]` (the paper's
/// x-axis). Gateways idle under both schemes contribute 0.
///
/// The positional pairing (same gateway across schemes) needs the raw
/// per-gateway samples, which the merge layer retains while the gateway
/// count sits under the scenario's `online_cutoff` (every paper preset).
/// Repetitions past the retention cutoff — tera-metro-scale runs, where
/// only the log-bucket histogram survives — contribute nothing, exactly
/// like [`completion_variation_cdf`]'s sketch-only repetitions; those runs
/// report the per-scheme quantile grid ([`online_time_quantiles`])
/// instead.
pub fn online_time_variation_cdf(scheme: &SchemeResult, soi: &SchemeResult) -> Cdf {
    let mut samples = Vec::new();
    for (rep_s, rep_b) in scheme.online_time.iter().zip(&soi.online_time) {
        let (Some(rep_s), Some(rep_b)) = (rep_s.per_gateway(), rep_b.per_gateway()) else {
            continue;
        };
        for (s, b) in rep_s.iter().zip(rep_b) {
            let v = if *b < 1.0 && *s < 1.0 {
                0.0
            } else if *b < 1.0 {
                100.0
            } else {
                ((s - b) / b * 100.0).clamp(-100.0, 100.0)
            };
            samples.push(v);
        }
    }
    Cdf::from_samples(samples)
}

/// The fixed quantile grid the JSONL and figure backends report for
/// per-gateway online time, read from a (merged) [`OnlineTimeHist`] — the
/// distributional summary that replaces per-gateway vectors at 10⁸-client
/// scale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineTimeQuantiles {
    /// True when the quantiles are exact (raw per-gateway samples under
    /// the cutoff); false when they come from the log-bucket histogram
    /// (≤ 0.55 % relative error).
    pub exact: bool,
    /// Gateways pooled into the grid.
    pub gateways: u64,
    /// Mean online time per gateway, seconds (exact in both tiers).
    pub mean_s: f64,
    /// 25th-percentile online time, seconds.
    pub p25: f64,
    /// Median online time, seconds.
    pub p50: f64,
    /// 75th percentile, seconds.
    pub p75: f64,
    /// 90th percentile, seconds.
    pub p90: f64,
    /// 95th percentile, seconds.
    pub p95: f64,
    /// 99th percentile, seconds.
    pub p99: f64,
}

/// Reads the reporting quantile grid out of a pooled online-time
/// histogram. `None` when no gateway was recorded (degenerate worlds).
pub fn online_time_quantiles(pooled: &OnlineTimeHist) -> Option<OnlineTimeQuantiles> {
    let qs = pooled.quantiles(&[0.25, 0.5, 0.75, 0.9, 0.95, 0.99]);
    match (qs[0], qs[1], qs[2], qs[3], qs[4], qs[5], pooled.mean_s()) {
        (Some(p25), Some(p50), Some(p75), Some(p90), Some(p95), Some(p99), Some(mean_s)) => {
            Some(OnlineTimeQuantiles {
                exact: pooled.is_exact(),
                gateways: pooled.gateways(),
                mean_s,
                p25,
                p50,
                p75,
                p90,
                p95,
                p99,
            })
        }
        _ => None,
    }
}

/// Compact per-scheme summary used by the report tables.
#[derive(Debug, Clone)]
pub struct SchemeSummary {
    /// Scheme label.
    pub name: String,
    /// Day-average energy savings vs no-sleep, percent.
    pub mean_savings_pct: f64,
    /// Savings inside the 11–19 h peak window, percent.
    pub peak_savings_pct: f64,
    /// Mean powered gateways over the day.
    pub mean_gateways: f64,
    /// Mean powered gateways in the peak window.
    pub peak_gateways: f64,
    /// Mean awake line cards in the peak window (§5.2.3's comparison).
    pub peak_cards: f64,
    /// ISP share of the total energy saved over the day, percent.
    pub isp_share_pct: Option<f64>,
}

/// Builds the summary from a result and the no-sleep baseline draws.
pub fn summarize(result: &SchemeResult, base_user_w: f64, base_isp_w: f64) -> SchemeSummary {
    let total = result.total_power_w();
    let baseline = base_user_w + base_isp_w;
    let savings = savings_percent_series(&total, baseline);
    let dt = result.sample_period_s;
    let user_saved: f64 = result.user_power_w.iter().map(|u| base_user_w - u).sum::<f64>() * dt;
    let isp_saved: f64 = result.isp_power_w.iter().map(|i| base_isp_w - i).sum::<f64>() * dt;
    let isp_share = if user_saved + isp_saved > 1e-9 {
        Some(isp_saved / (user_saved + isp_saved) * 100.0)
    } else {
        None
    };
    SchemeSummary {
        name: result.spec.to_string(),
        mean_savings_pct: savings.iter().sum::<f64>() / savings.len() as f64,
        peak_savings_pct: window_mean(&savings, dt, 11.0, 19.0),
        mean_gateways: result.powered_gateways.iter().sum::<f64>()
            / result.powered_gateways.len() as f64,
        peak_gateways: window_mean(&result.powered_gateways, dt, 11.0, 19.0),
        peak_cards: window_mean(&result.awake_cards, dt, 11.0, 19.0),
        isp_share_pct: isp_share,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::SchemeSpec;

    fn fake_result(
        completion: Vec<Vec<Option<f64>>>,
        online: Vec<Vec<f64>>,
        power: Vec<f64>,
    ) -> SchemeResult {
        let n = power.len();
        SchemeResult {
            spec: SchemeSpec::soi(),
            sample_period_s: 1.0,
            powered_gateways: vec![1.0; n],
            awake_cards: vec![1.0; n],
            user_power_w: power.clone(),
            isp_power_w: vec![0.0; n],
            energy: Default::default(),
            completion: completion
                .into_iter()
                .map(|rep| CompletionStats::from_samples(rep, 1_000))
                .collect(),
            online_time: online
                .into_iter()
                .map(|rep| OnlineTimeHist::from_samples(&rep, 1_000))
                .collect(),
            mean_wake_count: 0.0,
            counters: Default::default(),
            fold_ms: 0.0,
            shard_summaries: Vec::new(),
        }
    }

    #[test]
    fn savings_math() {
        let s = savings_percent_series(&[813.0, 406.5, 0.0], 813.0);
        assert!((s[0] - 0.0).abs() < 1e-9);
        assert!((s[1] - 50.0).abs() < 1e-9);
        assert!((s[2] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn isp_share_handles_zero_savings() {
        let shares = isp_share_percent_series(&[100.0, 50.0], &[100.0, 75.0], 100.0, 100.0);
        assert_eq!(shares[0], None);
        // Saved 50 user + 25 ISP ⇒ ISP share 33.3%.
        assert!((shares[1].unwrap() - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn hourly_means_downsample() {
        let series: Vec<f64> = (0..7_200).map(|i| if i < 3_600 { 1.0 } else { 3.0 }).collect();
        let hours = hourly_means(&series, 1.0);
        assert_eq!(hours, vec![1.0, 3.0]);
    }

    #[test]
    fn window_mean_selects_peak() {
        let mut series = vec![0.0; 24 * 3_600];
        for s in series.iter_mut().skip(11 * 3_600).take(8 * 3_600) {
            *s = 2.0;
        }
        assert!((window_mean(&series, 1.0, 11.0, 19.0) - 2.0).abs() < 1e-9);
        assert!((window_mean(&series, 1.0, 0.0, 24.0) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn completion_variation_requires_both_completions() {
        let scheme = fake_result(vec![vec![Some(2.0), Some(10.0), None]], vec![vec![]], vec![1.0]);
        let base = fake_result(vec![vec![Some(1.0), None, Some(5.0)]], vec![vec![]], vec![1.0]);
        let cdf = completion_variation_cdf(&scheme, &base);
        // Only the first flow matches: (2-1)/1 = +100%.
        assert_eq!(cdf.len(), 1);
        assert_eq!(cdf.quantile(1.0), Some(100.0));
        assert!((fraction_affected(&scheme, &base, 5.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn completion_quantiles_read_from_pooled_stats() {
        let scheme =
            fake_result(vec![vec![Some(1.0), Some(2.0), Some(3.0), None]], vec![vec![]], vec![1.0]);
        let q = completion_quantiles(&scheme.pooled_completion()).unwrap();
        assert!(q.exact);
        assert_eq!(q.completed, 3);
        assert_eq!(q.p50, 2.0);
        assert_eq!(q.p99, 3.0);
        // No completions (the Optimal scheme) → no quantiles.
        let none = fake_result(vec![vec![None, None]], vec![vec![]], vec![1.0]);
        assert!(completion_quantiles(&none.pooled_completion()).is_none());
    }

    #[test]
    fn variation_cdf_skips_sketch_only_repetitions() {
        let mut scheme = fake_result(vec![vec![Some(2.0)]], vec![vec![]], vec![1.0]);
        let mut base = fake_result(vec![vec![Some(1.0)]], vec![vec![]], vec![1.0]);
        assert_eq!(completion_variation_cdf(&scheme, &base).len(), 1);
        // A zero-cutoff (mega-city style) repetition has no per-flow join.
        scheme.completion = vec![CompletionStats::from_samples(vec![Some(2.0)], 0)];
        base.completion = vec![CompletionStats::from_samples(vec![Some(1.0)], 0)];
        assert!(completion_variation_cdf(&scheme, &base).is_empty());
    }

    #[test]
    fn online_variation_edge_cases() {
        let scheme = fake_result(vec![vec![]], vec![vec![0.0, 3_600.0, 1_800.0, 500.0]], vec![1.0]);
        let soi = fake_result(vec![vec![]], vec![vec![0.0, 0.0, 3_600.0, 1_000.0]], vec![1.0]);
        let cdf = online_time_variation_cdf(&scheme, &soi);
        assert_eq!(cdf.len(), 4);
        // idle→idle: 0; idle→on: +100 (clamped); halved: -50; halved: -50.
        assert_eq!(cdf.min(), Some(-50.0));
        assert_eq!(cdf.max(), Some(100.0));
        assert!((cdf.fraction_leq(0.0) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn online_variation_skips_histogram_only_repetitions() {
        let mut scheme = fake_result(vec![vec![]], vec![vec![3_600.0]], vec![1.0]);
        let mut soi = fake_result(vec![vec![]], vec![vec![1_800.0]], vec![1.0]);
        assert_eq!(online_time_variation_cdf(&scheme, &soi).len(), 1);
        // A zero-cutoff (tera-metro style) repetition has no per-gateway
        // join — the pairing degrades to empty, like Fig. 9a's sketch-only
        // case, instead of mispairing or panicking.
        scheme.online_time = vec![OnlineTimeHist::from_samples(&[3_600.0], 0)];
        soi.online_time = vec![OnlineTimeHist::from_samples(&[1_800.0], 0)];
        assert!(online_time_variation_cdf(&scheme, &soi).is_empty());
    }

    #[test]
    fn online_quantiles_read_from_pooled_hist() {
        let scheme =
            fake_result(vec![vec![]], vec![vec![0.0, 1_800.0, 3_600.0, 7_200.0]], vec![1.0]);
        let q = online_time_quantiles(&scheme.pooled_online()).unwrap();
        assert!(q.exact);
        assert_eq!(q.gateways, 4);
        assert!((q.mean_s - 3_150.0).abs() < 1e-9);
        // round((4-1)*0.5) = rank 2 of [0, 1800, 3600, 7200].
        assert_eq!(q.p50, 3_600.0);
        assert_eq!(q.p99, 7_200.0);
        assert!(q.p25 <= q.p50 && q.p50 <= q.p75 && q.p90 <= q.p99);
        // An empty world has no grid.
        let none = fake_result(vec![vec![]], vec![vec![]], vec![1.0]);
        assert!(online_time_quantiles(&none.pooled_online()).is_none());
    }

    #[test]
    fn summary_composes_metrics() {
        let n = 24 * 3_600;
        let result = fake_result(vec![vec![]], vec![vec![]], vec![50.0; n]);
        let s = summarize(&result, 100.0, 0.0);
        assert!((s.mean_savings_pct - 50.0).abs() < 1e-9);
        assert!((s.peak_savings_pct - 50.0).abs() < 1e-9);
        assert_eq!(s.isp_share_pct, Some(0.0));
    }
}
