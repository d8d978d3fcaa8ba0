//! Builders for every figure and table in the paper's evaluation.
//!
//! Each function produces a [`FigureData`] (named columns + numeric rows)
//! that the `figures` binary prints as an aligned table or CSV. The mapping
//! figure → module is catalogued in DESIGN.md; measured-vs-paper values are
//! recorded in EXPERIMENTS.md.

use insomnia_access::{p_card_sleeps, PowerModel};
use insomnia_core::{
    build_world, completion_variation_cdf, density_sweep, hourly_means, isp_share_percent_series,
    online_time_variation_cdf, run_scheme, run_testbed, savings_percent_series, summarize,
    FigureData, ScenarioConfig, SchemeResult, SchemeSpec, ShardedWorld, TestbedConfig, WorldModel,
};
use insomnia_dslphy::{sample_attenuations, AttenuationConfig, BundleConfig, CrosstalkExperiment};
use insomnia_simcore::{Cdf, SimRng, SimTime};
use insomnia_traffic::adsl::{self, AdslConfig, Direction};
use insomnia_traffic::stats::{ap_utilization_percent_series, gap_histogram_paper_bins};

/// Scenario + run-size knobs for the harness.
///
/// Scenarios come from the `insomnia-scenarios` registry rather than
/// bespoke config code, so the figure harness runs the exact same
/// `paper-default` the CLI batch runner exposes.
#[derive(Debug, Clone)]
pub struct Harness {
    /// The evaluation scenario.
    pub scenario: ScenarioConfig,
}

impl Harness {
    /// The paper's full configuration (the `paper-default` registry
    /// preset, 10 repetitions).
    pub fn paper() -> Self {
        let scenario = insomnia_scenarios::Registry::builtin()
            .resolve("paper-default")
            .expect("builtin preset resolves");
        Harness { scenario }
    }

    /// Reduced repetitions for quick regeneration (~10× faster, same
    /// shapes).
    pub fn quick() -> Self {
        let mut h = Harness::paper();
        h.scenario.repetitions = 2;
        h
    }
}

/// The scheme runs shared by Figs. 6–9 and the card-count table.
pub struct MainRuns {
    /// No-sleep baseline.
    pub no_sleep: SchemeResult,
    /// Plain SoI.
    pub soi: SchemeResult,
    /// SoI + k-switch.
    pub soi_k: SchemeResult,
    /// SoI + full switch.
    pub soi_full: SchemeResult,
    /// BH2 (1 backup) + k-switch.
    pub bh2_k: SchemeResult,
    /// BH2 (no backup) + k-switch.
    pub bh2_nb_k: SchemeResult,
    /// BH2 (1 backup) + full switch.
    pub bh2_full: SchemeResult,
    /// Optimal (ILP + full switch).
    pub optimal: SchemeResult,
    /// Baseline user/ISP draws, watts.
    pub base_user_w: f64,
    /// Baseline ISP draw, watts.
    pub base_isp_w: f64,
}

/// Runs every scheme of the main scenario once (the expensive step; reuse
/// the result for all dependent figures).
///
/// The world is built through the sharded path, so a registry preset with
/// a `shards` axis (e.g. `dense-metro`) drives the exact same figure
/// pipeline as the paper's single-DSLAM scenario — per-shard results are
/// merged before any series math happens.
pub fn run_main(h: &Harness) -> MainRuns {
    let cfg = &h.scenario;
    let world = ShardedWorld::lazy(cfg, cfg.seed);
    let threads = insomnia_simcore::default_threads();
    let run = |spec| run_scheme(cfg, spec, &world, cfg.seed, threads);
    MainRuns {
        no_sleep: run(SchemeSpec::no_sleep()),
        soi: run(SchemeSpec::soi()),
        soi_k: run(SchemeSpec::soi_k_switch()),
        soi_full: run(SchemeSpec::soi_full_switch()),
        bh2_k: run(SchemeSpec::bh2_k_switch()),
        bh2_nb_k: run(SchemeSpec::bh2_no_backup_k_switch()),
        bh2_full: run(SchemeSpec::bh2_full_switch()),
        optimal: run(SchemeSpec::optimal()),
        base_user_w: cfg.power.no_sleep_user_w(world.n_gateways()),
        base_isp_w: cfg.power.no_sleep_isp_w_sharded(
            world.n_gateways(),
            cfg.dslam.n_cards,
            world.n_shards(),
        ),
    }
}

/// Fig. 2: daily average and median utilization of the ADSL population.
pub fn fig2(seed: u64) -> FigureData {
    let mut rng = SimRng::new(seed).fork("fig2");
    let pop = adsl::generate(&AdslConfig::default(), &mut rng);
    let mut t = FigureData::new(
        "fig2",
        "daily avg/median ADSL utilization, 10K subscribers [%]",
        vec![
            "hour".into(),
            "avg_down".into(),
            "avg_up".into(),
            "median_down".into(),
            "median_up".into(),
        ],
    );
    let ad = pop.average_percent(Direction::Down);
    let au = pop.average_percent(Direction::Up);
    let md = pop.median_percent(Direction::Down);
    let mu = pop.median_percent(Direction::Up);
    for hour in 0..24 {
        t.push_row(vec![hour as f64, ad[hour], au[hour], md[hour], mu[hour]]);
    }
    t
}

/// Fig. 3: average downlink utilization of the 40 APs at 6 Mbps backhaul.
pub fn fig3(h: &Harness) -> FigureData {
    let (trace, _) = build_world(&h.scenario);
    let series = ap_utilization_percent_series(&trace, h.scenario.backhaul_bps, 3_600_000);
    let mut t = FigureData::new(
        "fig3",
        "average AP downlink utilization at 6 Mbps [%]",
        vec!["hour".into(), "utilization_pct".into()],
    );
    for (hour, m) in series.bin_means_or_zero().iter().enumerate() {
        t.push_row(vec![hour as f64, *m]);
    }
    t
}

/// Fig. 4: fraction of peak-hour idle time per inter-packet-gap bin.
pub fn fig4(h: &Harness) -> FigureData {
    let (trace, _) = build_world(&h.scenario);
    let hist = gap_histogram_paper_bins(&trace, SimTime::from_hours(16), SimTime::from_hours(17));
    let mut labels = hist.labels();
    let mut fractions = hist.fractions();
    fractions.push(hist.overflow_fraction());
    let mut t = FigureData::new(
        "fig4",
        "share of peak-hour idle time per gap bin [fraction]",
        vec!["idle_time_fraction".into()],
    );
    for f in &fractions {
        t.push_row(vec![*f]);
    }
    labels.truncate(fractions.len());
    t.with_row_labels(labels)
}

/// Fig. 5: P{l-th line card sleeps} for k ∈ {2,4,8}, m = 24 ports.
pub fn fig5() -> FigureData {
    let mut t = FigureData::new(
        "fig5",
        "P{l-th card sleeps}, m=24 modems/card (analytic, corrected Eq. 2)",
        vec![
            "card_l".into(),
            "k2_p50".into(),
            "k4_p50".into(),
            "k8_p50".into(),
            "k2_p25".into(),
            "k4_p25".into(),
            "k8_p25".into(),
        ],
    );
    for l in 1..=8u32 {
        let row = |k: u32, p: f64| if l <= k { p_card_sleeps(l, k, 24, p) } else { 0.0 };
        t.push_row(vec![
            f64::from(l),
            row(2, 0.5),
            row(4, 0.5),
            row(8, 0.5),
            row(2, 0.25),
            row(4, 0.25),
            row(8, 0.25),
        ]);
    }
    t
}

/// Fig. 6: hourly energy savings vs no-sleep for the four plotted schemes.
pub fn fig6(h: &Harness, runs: &MainRuns) -> FigureData {
    let base = runs.base_user_w + runs.base_isp_w;
    let mut t = FigureData::new(
        "fig6",
        "energy savings vs no-sleep [%], hourly means",
        vec![
            "hour".into(),
            "optimal".into(),
            "soi".into(),
            "soi_kswitch".into(),
            "bh2_kswitch".into(),
        ],
    );
    let dt = h.scenario.sample_period.as_secs_f64();
    let series =
        |r: &SchemeResult| hourly_means(&savings_percent_series(&r.total_power_w(), base), dt);
    let opt = series(&runs.optimal);
    let soi = series(&runs.soi);
    let soik = series(&runs.soi_k);
    let bh2 = series(&runs.bh2_k);
    for hour in 0..opt.len() {
        t.push_row(vec![hour as f64, opt[hour], soi[hour], soik[hour], bh2[hour]]);
    }
    t
}

/// Fig. 7: hourly number of powered gateways per aggregation scheme.
pub fn fig7(h: &Harness, runs: &MainRuns) -> FigureData {
    let dt = h.scenario.sample_period.as_secs_f64();
    let mut t = FigureData::new(
        "fig7",
        "number of online gateways, hourly means",
        vec!["hour".into(), "soi".into(), "bh2".into(), "bh2_no_backup".into(), "optimal".into()],
    );
    let series = |r: &SchemeResult| hourly_means(&r.powered_gateways, dt);
    let soi = series(&runs.soi);
    let bh2 = series(&runs.bh2_k);
    let bh2nb = series(&runs.bh2_nb_k);
    let opt = series(&runs.optimal);
    for hour in 0..soi.len() {
        t.push_row(vec![hour as f64, soi[hour], bh2[hour], bh2nb[hour], opt[hour]]);
    }
    t
}

/// Fig. 8: hourly ISP share of the total savings.
pub fn fig8(h: &Harness, runs: &MainRuns) -> FigureData {
    let dt = h.scenario.sample_period.as_secs_f64();
    let mut t = FigureData::new(
        "fig8",
        "ISP share of total energy savings [%], hourly means",
        vec![
            "hour".into(),
            "optimal".into(),
            "soi".into(),
            "soi_kswitch".into(),
            "bh2_kswitch".into(),
        ],
    );
    let series = |r: &SchemeResult| {
        let shares = isp_share_percent_series(
            &r.user_power_w,
            &r.isp_power_w,
            runs.base_user_w,
            runs.base_isp_w,
        );
        let filled: Vec<f64> = shares.into_iter().map(|s| s.unwrap_or(0.0)).collect();
        hourly_means(&filled, dt)
    };
    let opt = series(&runs.optimal);
    let soi = series(&runs.soi);
    let soik = series(&runs.soi_k);
    let bh2 = series(&runs.bh2_k);
    for hour in 0..opt.len() {
        t.push_row(vec![hour as f64, opt[hour], soi[hour], soik[hour], bh2[hour]]);
    }
    t
}

/// Renders a CDF at fixed quantile grid points for tabular output.
fn cdf_rows(cdf: &Cdf, xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|&x| cdf.fraction_leq(x)).collect()
}

/// Fig. 9a: CDF of flow-completion-time increase vs no-sleep.
pub fn fig9a(runs: &MainRuns) -> FigureData {
    let xs: Vec<f64> = vec![0.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0, 600.0];
    let mut t = FigureData::new(
        "fig9a",
        "CDF of completion-time increase vs no-sleep [% -> P(X<=x)]",
        vec!["variation_pct".into(), "soi".into(), "bh2".into(), "bh2_no_backup".into()],
    );
    let soi = cdf_rows(&completion_variation_cdf(&runs.soi, &runs.no_sleep), &xs);
    let bh2 = cdf_rows(&completion_variation_cdf(&runs.bh2_k, &runs.no_sleep), &xs);
    let bh2nb = cdf_rows(&completion_variation_cdf(&runs.bh2_nb_k, &runs.no_sleep), &xs);
    for (i, &x) in xs.iter().enumerate() {
        t.push_row(vec![x, soi[i], bh2[i], bh2nb[i]]);
    }
    t
}

/// Fig. 9b: CDF of gateway online-time variation vs SoI.
pub fn fig9b(runs: &MainRuns) -> FigureData {
    let xs: Vec<f64> = vec![-100.0, -75.0, -50.0, -25.0, 0.0, 25.0, 50.0, 75.0, 100.0];
    let mut t = FigureData::new(
        "fig9b",
        "CDF of gateway online-time variation vs SoI [% -> P(X<=x)]",
        vec!["variation_pct".into(), "bh2".into(), "bh2_no_backup".into()],
    );
    let bh2 = cdf_rows(&online_time_variation_cdf(&runs.bh2_k, &runs.soi), &xs);
    let bh2nb = cdf_rows(&online_time_variation_cdf(&runs.bh2_nb_k, &runs.soi), &xs);
    for (i, &x) in xs.iter().enumerate() {
        t.push_row(vec![x, bh2[i], bh2nb[i]]);
    }
    t
}

/// Fig. 10: online gateways vs mean available gateways per user.
pub fn fig10(h: &Harness) -> FigureData {
    let densities: Vec<f64> = (1..=10).map(|d| d as f64).collect();
    let pts = density_sweep(&h.scenario, &densities);
    let mut t = FigureData::new(
        "fig10",
        "mean online gateways (11-19h) vs gateway density",
        vec!["mean_available".into(), "online_gateways".into()],
    );
    for p in pts {
        t.push_row(vec![p.mean_available, p.online_gateways]);
    }
    t
}

/// Fig. 12: testbed online APs over the 30-minute window.
pub fn fig12(h: &Harness) -> FigureData {
    let r = run_testbed(&h.scenario, &TestbedConfig::default());
    let mut t = FigureData::new(
        "fig12",
        "testbed: online APs per minute, 15:00-15:30 (9 gateways)",
        vec!["minute".into(), "soi".into(), "bh2".into()],
    );
    for (m, (s, b)) in r.soi_online_per_min.iter().zip(&r.bh2_online_per_min).enumerate() {
        t.push_row(vec![(m + 1) as f64, *s, *b]);
    }
    t
}

/// Summary line of the testbed run (paper: BH2 sleeps 5.46/9, SoI 3.72/9).
pub fn fig12_summary(h: &Harness) -> FigureData {
    let r = run_testbed(&h.scenario, &TestbedConfig::default());
    let mut t = FigureData::new(
        "fig12-summary",
        "testbed mean sleeping APs of 9 (paper: BH2 5.46, SoI 3.72)",
        vec!["soi_sleeping".into(), "bh2_sleeping".into()],
    );
    t.push_row(vec![r.soi_mean_sleeping, r.bh2_mean_sleeping]);
    t
}

/// Fig. 14: crosstalk speedup vs number of inactive lines, four configs.
pub fn fig14(seed: u64) -> FigureData {
    let mut rng = SimRng::new(seed).fork("fig14");
    let mut t = FigureData::new(
        "fig14",
        "mean per-line speedup vs inactive lines [%] (std in ±columns)",
        vec![
            "inactive".into(),
            "p62_mix".into(),
            "p62_mix_std".into(),
            "p62_600".into(),
            "p62_600_std".into(),
            "p30_mix".into(),
            "p30_mix_std".into(),
            "p30_600".into(),
            "p30_600_std".into(),
        ],
    );
    let cfg = BundleConfig::default();
    let results: Vec<_> =
        CrosstalkExperiment::paper_set().into_iter().map(|e| e.run(&cfg, &mut rng)).collect();
    let steps = results[0].1.len();
    for si in 0..steps {
        let mut row = vec![results[0].1[si].inactive as f64];
        for (_, pts) in &results {
            row.push(pts[si].mean_speedup_pct);
            row.push(pts[si].std_pct);
        }
        t.push_row(row);
    }
    t
}

/// The Fig. 14 baselines (paper: 41.3, 43.7, 27.8, 29.7 Mbps).
pub fn fig14_baselines(seed: u64) -> FigureData {
    let mut rng = SimRng::new(seed).fork("fig14");
    let cfg = BundleConfig::default();
    let mut t = FigureData::new(
        "fig14-baselines",
        "all-active mean sync rates [Mbps] (paper: 41.3/43.7/27.8/29.7)",
        vec!["baseline_mbps".into()],
    );
    let mut labels = Vec::new();
    for e in CrosstalkExperiment::paper_set() {
        let (baseline, _) = e.run(&cfg, &mut rng);
        labels.push(e.label());
        t.push_row(vec![baseline / 1e6]);
    }
    t.with_row_labels(labels)
}

/// Fig. 15: per-card attenuation distribution summary of the synthetic
/// production DSLAM.
pub fn fig15(seed: u64) -> FigureData {
    let mut rng = SimRng::new(seed).fork("fig15");
    let samples = sample_attenuations(&AttenuationConfig::default(), &mut rng);
    let mut t = FigureData::new(
        "fig15",
        "attenuation distribution per line card [dB]",
        vec!["card".into(), "mean_db".into(), "std_db".into()],
    );
    for (i, (mean, std)) in samples.card_summaries().iter().enumerate() {
        t.push_row(vec![(i + 1) as f64, *mean, *std]);
    }
    t
}

/// Completion-time quantile table per scheme, read from the merged
/// streaming sketches (`CompletionStats`) rather than per-flow vectors —
/// the figure backend works unchanged at mega-city scale, where only the
/// sketch survives. The `exact` column is 1 while the pooled flow count
/// sits under the scenario's `completion_cutoff` (all paper presets).
pub fn completion_table(runs: &MainRuns) -> FigureData {
    let mut t = FigureData::new(
        "completion",
        "flow completion-time quantiles per scheme [s] (streaming sketch)",
        vec![
            "p25".into(),
            "p50".into(),
            "p75".into(),
            "p90".into(),
            "p95".into(),
            "p99".into(),
            "exact".into(),
        ],
    );
    let entries: Vec<(&str, &SchemeResult)> = vec![
        ("no-sleep", &runs.no_sleep),
        ("soi", &runs.soi),
        ("soi+k", &runs.soi_k),
        ("bh2+k", &runs.bh2_k),
        ("bh2-nb+k", &runs.bh2_nb_k),
        ("bh2+full", &runs.bh2_full),
    ];
    let mut labels = Vec::new();
    for (name, r) in entries {
        let Some(q) = insomnia_core::completion_quantiles(&r.pooled_completion()) else {
            continue;
        };
        labels.push(name.to_string());
        t.push_row(vec![q.p25, q.p50, q.p75, q.p90, q.p95, q.p99, f64::from(u8::from(q.exact))]);
    }
    t.with_row_labels(labels)
}

/// §5.2.3's table: average online line cards during peak hours.
pub fn cards_table(runs: &MainRuns) -> FigureData {
    let mut t = FigureData::new(
        "cards",
        "mean awake line cards 11-19h (paper: Opt 1, BH2+full 2, BH2+k 2.88, SoI+full 3, SoI+k 3.74, SoI 3.99)",
        vec!["awake_cards".into()],
    );
    let entries: Vec<(&str, &SchemeResult)> = vec![
        ("optimal", &runs.optimal),
        ("bh2+full", &runs.bh2_full),
        ("bh2+k", &runs.bh2_k),
        ("soi+full", &runs.soi_full),
        ("soi+k", &runs.soi_k),
        ("soi", &runs.soi),
    ];
    let mut labels = Vec::new();
    for (name, r) in entries {
        labels.push(name.to_string());
        t.push_row(vec![insomnia_core::window_mean(&r.awake_cards, r.sample_period_s, 11.0, 19.0)]);
    }
    t.with_row_labels(labels)
}

/// Sleep-policy comparison: the paper's fixed-timeout SoI against the
/// multi-doze ladder and the adaptive per-gateway timeout, same scenario,
/// same no-sleep baseline. `doze_descents` counts delivered doze-ladder
/// descents (0 for the policies that sleep straight to the deepest level).
pub fn doze_table(h: &Harness) -> FigureData {
    let cfg = &h.scenario;
    let world = ShardedWorld::lazy(cfg, cfg.seed);
    let threads = insomnia_simcore::default_threads();
    let run = |spec| run_scheme(cfg, spec, &world, cfg.seed, threads);
    let base_user_w = cfg.power.no_sleep_user_w(world.n_gateways());
    let base_isp_w =
        cfg.power.no_sleep_isp_w_sharded(world.n_gateways(), cfg.dslam.n_cards, world.n_shards());
    let mut t = FigureData::new(
        "doze",
        "sleep-policy comparison: fixed SoI vs multi-doze ladder vs adaptive-SOI",
        vec![
            "mean_savings_pct".into(),
            "peak_savings_pct".into(),
            "mean_gw".into(),
            "wakes_per_gw".into(),
            "doze_descents".into(),
        ],
    );
    let mut labels = Vec::new();
    for (name, spec) in [
        ("soi", SchemeSpec::soi()),
        ("multi-doze", SchemeSpec::multi_doze()),
        ("adaptive-soi", SchemeSpec::adaptive_soi()),
    ] {
        let r = run(spec);
        let s = summarize(&r, base_user_w, base_isp_w);
        labels.push(name.to_string());
        t.push_row(vec![
            s.mean_savings_pct,
            s.peak_savings_pct,
            s.mean_gateways,
            r.mean_wake_count,
            r.counters.doze_ticks as f64,
        ]);
    }
    t.with_row_labels(labels)
}

/// Sensitivity ablation (§5.1): BH2 savings across the parameter axes the
/// paper tuned (thresholds, idle timeout, wake time, epoch).
pub fn ablation(h: &Harness) -> FigureData {
    let mut cfg = h.scenario.clone();
    cfg.repetitions = 1; // one run per point; the sweep is the signal
    let mut t = FigureData::new(
        "ablation",
        "BH2+k sensitivity: day-average savings [%] per parameter value",
        vec!["value".into(), "mean_savings_pct".into(), "peak_gw".into(), "wakes".into()],
    );
    let mut labels = Vec::new();
    let push = |name: &str,
                pts: Vec<insomnia_core::SensitivityPoint>,
                t: &mut FigureData,
                labels: &mut Vec<String>| {
        for p in pts {
            labels.push(name.to_string());
            t.push_row(vec![p.value, p.mean_savings_pct, p.peak_gateways, p.total_wakes]);
        }
    };
    push(
        "low_thresh",
        insomnia_core::sweep_low_threshold(&cfg, &[0.05, 0.10, 0.20]),
        &mut t,
        &mut labels,
    );
    push(
        "high_thresh",
        insomnia_core::sweep_high_threshold(&cfg, &[0.30, 0.50, 0.80]),
        &mut t,
        &mut labels,
    );
    push(
        "idle_timeout_s",
        insomnia_core::sweep_idle_timeout(&cfg, &[30, 60, 120]),
        &mut t,
        &mut labels,
    );
    push("wake_time_s", insomnia_core::sweep_wake_time(&cfg, &[30, 60, 180]), &mut t, &mut labels);
    push("epoch_s", insomnia_core::sweep_epoch(&cfg, &[60, 150, 600]), &mut t, &mut labels);
    t.with_row_labels(labels)
}

/// Headline summary (§5.4): savings, gateway counts, ISP share, TWh.
pub fn summary(runs: &MainRuns) -> FigureData {
    let mut t = FigureData::new(
        "summary",
        "headline metrics per scheme (paper: BH2+k 66% avg, >=50% peak, 2/3 user 1/3 ISP, 33 TWh)",
        vec![
            "mean_savings_pct".into(),
            "peak_savings_pct".into(),
            "mean_gw".into(),
            "peak_gw".into(),
            "peak_cards".into(),
            "isp_share_pct".into(),
            "world_twh_yr".into(),
        ],
    );
    let world = WorldModel::default();
    let power = PowerModel::default();
    let mut labels = Vec::new();
    for r in [&runs.soi, &runs.soi_k, &runs.bh2_nb_k, &runs.bh2_k, &runs.bh2_full, &runs.optimal] {
        let s = summarize(r, runs.base_user_w, runs.base_isp_w);
        let twh = world.savings_twh_per_year(&power, (s.mean_savings_pct / 100.0).clamp(0.0, 1.0));
        labels.push(s.name.clone());
        t.push_row(vec![
            s.mean_savings_pct,
            s.peak_savings_pct,
            s.mean_gateways,
            s.peak_gateways,
            s.peak_cards,
            s.isp_share_pct.unwrap_or(0.0),
            twh,
        ]);
    }
    t.with_row_labels(labels)
}
