//! Parameter sensitivity sweeps (§5.1: "We performed extensive sensitivity
//! analysis and selected the parameters that provide the best performance
//! in a wider range of situations").
//!
//! Each sweep runs the BH2+k-switch scheme across one parameter axis and
//! reports day-average savings, peak gateway count, and gateway wake churn
//! (the oscillation metric the paper minimized when picking thresholds).

use crate::config::ScenarioConfig;
use crate::driver::{run_single_source_threads, ArrivalSource, RunResult};
use crate::metrics::{savings_percent_series, window_mean};
use crate::schemes::SchemeSpec;
use insomnia_simcore::{SimDuration, SimRng};
use insomnia_traffic::Trace;
use insomnia_wireless::Topology;

/// One sweep sample.
#[derive(Debug, Clone)]
pub struct SensitivityPoint {
    /// The swept parameter's value (seconds or fraction, axis-dependent).
    pub value: f64,
    /// Day-average energy savings vs no-sleep, percent.
    pub mean_savings_pct: f64,
    /// Mean powered gateways in the 11–19 h window.
    pub peak_gateways: f64,
    /// Total gateway wake cycles over the day (oscillation indicator; the
    /// paper "paid special attention to oscillations").
    pub total_wakes: f64,
}

fn measure(cfg: &ScenarioConfig, trace: &Trace, topo: &Topology, value: f64) -> SensitivityPoint {
    let arrivals = ArrivalSource::Slice(&trace.flows);
    let spec = SchemeSpec::bh2_k_switch();
    let r: RunResult =
        run_single_source_threads(cfg, spec, arrivals, topo, SimRng::new(cfg.seed), 1);
    let base = cfg.power.no_sleep_user_w(topo.n_gateways())
        + cfg.power.no_sleep_isp_w(topo.n_gateways(), cfg.dslam.n_cards);
    let savings = savings_percent_series(
        &r.user_power_w.iter().zip(&r.isp_power_w).map(|(u, i)| u + i).collect::<Vec<_>>(),
        base,
    );
    SensitivityPoint {
        value,
        mean_savings_pct: savings.iter().sum::<f64>() / savings.len() as f64,
        peak_gateways: window_mean(&r.powered_gateways, r.sample_period_s, 11.0, 19.0),
        total_wakes: r.wake_counts.iter().sum::<u64>() as f64,
    }
}

/// Sweeps the BH2 low threshold (paper default 0.10).
pub fn sweep_low_threshold(base: &ScenarioConfig, values: &[f64]) -> Vec<SensitivityPoint> {
    let (trace, topo) = crate::driver::build_world(base);
    values
        .iter()
        .map(|&v| {
            let mut cfg = base.clone();
            cfg.bh2.low_threshold = v;
            measure(&cfg, &trace, &topo, v)
        })
        .collect()
}

/// Sweeps the BH2 high threshold (paper default 0.50).
pub fn sweep_high_threshold(base: &ScenarioConfig, values: &[f64]) -> Vec<SensitivityPoint> {
    let (trace, topo) = crate::driver::build_world(base);
    values
        .iter()
        .map(|&v| {
            let mut cfg = base.clone();
            cfg.bh2.high_threshold = v;
            measure(&cfg, &trace, &topo, v)
        })
        .collect()
}

/// Sweeps the SoI idle timeout in seconds (paper default 60 s, chosen from
/// the Fig. 4 gap analysis).
pub fn sweep_idle_timeout(base: &ScenarioConfig, seconds: &[u64]) -> Vec<SensitivityPoint> {
    let (trace, topo) = crate::driver::build_world(base);
    seconds
        .iter()
        .map(|&s| {
            let mut cfg = base.clone();
            cfg.idle_timeout = SimDuration::from_secs(s);
            measure(&cfg, &trace, &topo, s as f64)
        })
        .collect()
}

/// Sweeps the gateway wake-up time in seconds (paper measured 60 s; ADSL
/// resync "can be as high as 3 minutes").
pub fn sweep_wake_time(base: &ScenarioConfig, seconds: &[u64]) -> Vec<SensitivityPoint> {
    let (trace, topo) = crate::driver::build_world(base);
    seconds
        .iter()
        .map(|&s| {
            let mut cfg = base.clone();
            cfg.wake_time = SimDuration::from_secs(s);
            measure(&cfg, &trace, &topo, s as f64)
        })
        .collect()
}

/// Sweeps the BH2 decision epoch in seconds (paper default 150 s).
pub fn sweep_epoch(base: &ScenarioConfig, seconds: &[u64]) -> Vec<SensitivityPoint> {
    let (trace, topo) = crate::driver::build_world(base);
    seconds
        .iter()
        .map(|&s| {
            let mut cfg = base.clone();
            cfg.bh2.epoch = SimDuration::from_secs(s);
            measure(&cfg, &trace, &topo, s as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use insomnia_simcore::SimTime;

    fn mini() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::smoke();
        cfg.trace.horizon = SimTime::from_hours(14);
        cfg.repetitions = 1;
        cfg
    }

    #[test]
    fn longer_wake_time_never_helps() {
        let cfg = mini();
        let pts = sweep_wake_time(&cfg, &[10, 180]);
        // A 3-minute resync keeps woken gateways (and their line cards)
        // powered longer: savings must not improve.
        assert!(
            pts[1].mean_savings_pct <= pts[0].mean_savings_pct + 1.0,
            "wake 180 s ({:.1}%) should not beat 10 s ({:.1}%)",
            pts[1].mean_savings_pct,
            pts[0].mean_savings_pct
        );
    }

    #[test]
    fn longer_idle_timeout_keeps_gateways_up() {
        let cfg = mini();
        let pts = sweep_idle_timeout(&cfg, &[30, 300]);
        assert!(
            pts[1].mean_savings_pct <= pts[0].mean_savings_pct + 1.0,
            "timeout 300 s ({:.1}%) should not beat 30 s ({:.1}%)",
            pts[1].mean_savings_pct,
            pts[0].mean_savings_pct
        );
        // But a longer timeout reduces wake churn (fewer premature sleeps).
        assert!(pts[1].total_wakes <= pts[0].total_wakes);
    }

    #[test]
    fn threshold_sweeps_produce_finite_points() {
        let cfg = mini();
        for pts in [
            sweep_low_threshold(&cfg, &[0.05, 0.10, 0.20]),
            sweep_high_threshold(&cfg, &[0.30, 0.50, 0.80]),
            sweep_epoch(&cfg, &[60, 150, 600]),
        ] {
            for p in pts {
                assert!(p.mean_savings_pct.is_finite());
                assert!((0.0..=100.0).contains(&p.mean_savings_pct.max(0.0)));
                assert!(p.peak_gateways >= 0.0 && p.peak_gateways <= 10.0);
            }
        }
    }
}
