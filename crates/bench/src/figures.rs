//! Builders for every figure and table in the paper's evaluation.
//!
//! Each function produces a [`FigureData`] (named columns + numeric rows)
//! that the `figures` binary prints as an aligned table or CSV. Every
//! simulated figure is an `insomnia run` or `insomnia sweep` batch of the
//! harness scenario (README, `## Figures`).

use insomnia_access::{p_card_sleeps, PowerModel};
use insomnia_core::{
    build_world, completion_variation_cdf, hourly_means, isp_share_percent_series,
    online_time_variation_cdf, run_testbed, savings_percent_series, summarize, FigureData,
    ScenarioConfig, SchemeResult, SchemeSpec, TestbedConfig, WorldModel,
};
use insomnia_dslphy::{sample_attenuations, AttenuationConfig, BundleConfig, CrosstalkExperiment};
use insomnia_scenarios::{
    job_seed, parse_scheme_list, run_batch_results, run_batch_telemetry, scheme_key, BatchRun,
    JobRecord, Registry, ScenarioSpec, Telemetry,
};
use insomnia_simcore::{Cdf, SimRng, SimTime};
use insomnia_traffic::adsl::{self, AdslConfig, Direction};
use insomnia_traffic::stats::{ap_utilization_percent_series, gap_histogram_paper_bins};
use insomnia_traffic::Trace;

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
/// the result for all dependent figures): one `insomnia run` batch of the
/// eight schemes, so each result is the one behind that scheme's JSONL
/// record. A registry preset with a `shards` axis (e.g. `dense-metro`)
/// drives the same pipeline — per-shard results are merged before any
/// series math happens.
pub fn run_main(h: &Harness) -> MainRuns {
    let [no_sleep, soi, soi_k, soi_full, bh2_k, bh2_nb_k, bh2_full, optimal] =
        run_schemes(h, "no-sleep,soi,soi+k,soi+full,bh2,bh2-nb,bh2+full,optimal");
    let (base_user_w, base_isp_w) = baseline_w(&h.scenario);
    MainRuns {
        no_sleep,
        soi,
        soi_k,
        soi_full,
        bh2_k,
        bh2_nb_k,
        bh2_full,
        optimal,
        base_user_w,
        base_isp_w,
    }
}

/// The harness scenario as a batch of `schemes` × `seeds` on every core:
/// `sets` apply to it, and each `(key, values)` axis clones it once per
/// value through [`Registry::expand`] (no axes: the scenario once).
fn harness_batch(
    h: &Harness,
    sets: &[&str],
    axes: &[(&str, &[&str])],
    schemes: Vec<SchemeSpec>,
    seeds: usize,
) -> BatchRun {
    let reg = Registry::builtin();
    let base = ("harness".to_string(), ScenarioSpec::explicit("harness", None, &h.scenario));
    let expand = |axis| reg.expand(vec![base.clone()], sets, axis, false).expect("figures resolve");
    let scenarios = if axes.is_empty() {
        expand(None)
    } else {
        axes.iter().flat_map(|&a| expand(Some(a))).collect()
    };
    BatchRun { scenarios, schemes, seeds, threads: 0 }
}

/// Runs the harness scenario as `insomnia run --schemes SCHEMES --seeds 1`
/// and returns the folded results in scheme order.
fn run_schemes<const N: usize>(h: &Harness, schemes: &str) -> [SchemeResult; N] {
    let schemes = parse_scheme_list(schemes).expect("known schemes");
    let batch = harness_batch(h, &[], &[], schemes, 1);
    let results = run_batch_results(&batch).expect("figure batch runs");
    results.try_into().expect("one result per scheme")
}

/// The no-sleep `(user, ISP)` draw of the scenario's world, watts.
fn baseline_w(cfg: &ScenarioConfig) -> (f64, f64) {
    let power = &cfg.power;
    let isp = power.no_sleep_isp_w_sharded(cfg.trace.n_aps, cfg.dslam.n_cards, cfg.shards);
    (power.no_sleep_user_w(cfg.trace.n_aps), isp)
}

/// The trace of the world the scheme figures run: seed 0 of the batch
/// (`job_seed(cfg.seed, 0)`), whole, so Figs. 3–9 describe one trace.
fn harness_trace(h: &Harness) -> Trace {
    let seed = job_seed(h.scenario.seed, 0);
    build_world(&ScenarioConfig { seed, ..h.scenario.clone() }).0
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
    let trace = harness_trace(h);
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
    let trace = harness_trace(h);
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

/// Runs a BH2 + k-switch sweep of the harness scenario as an `insomnia
/// sweep` batch ([`harness_batch`]) with the JSONL discarded and telemetry
/// off. Returns the job records in job order.
fn run_sweep(h: &Harness, sets: &[&str], axes: &[(&str, &[&str])], seeds: usize) -> Vec<JobRecord> {
    let batch = harness_batch(h, sets, axes, vec![SchemeSpec::bh2_k_switch()], seeds);
    run_batch_telemetry(&batch, &mut std::io::sink(), &Telemetry::quiet())
        .expect("figure sweep runs")
        .records
}

/// Fig. 10: online gateways vs mean available gateways per user. The
/// harness scenario on binomial topologies, one job per (density, seed)
/// with one repetition and one seed per harness repetition, so every run
/// draws a fresh trace and connectivity matrix — the batch of
/// `insomnia sweep --scenario paper-default --set topology=binomial
/// --set repetitions=1 --param mean_networks_in_range --values 1,...,10
/// --schemes bh2 --seeds 10`. Each row is the mean over its seeds of the
/// jobs' peak-window (11–19 h) powered gateways.
pub fn fig10(h: &Harness) -> FigureData {
    let densities = ["1", "2", "3", "4", "5", "6", "7", "8", "9", "10"];
    let seeds = h.scenario.repetitions;
    let sets = ["topology=binomial", "repetitions=1"];
    let records = run_sweep(h, &sets, &[("mean_networks_in_range", &densities)], seeds);
    let mut t = FigureData::new(
        "fig10",
        "mean online gateways (11-19h) vs gateway density",
        vec!["mean_available".into(), "online_gateways".into()],
    );
    for (density, runs) in densities.iter().zip(records.chunks(seeds)) {
        let online = runs.iter().map(|r| r.peak_gateways).sum::<f64>() / runs.len() as f64;
        t.push_row(vec![density.parse().expect("numeric density"), online]);
    }
    t
}

/// Fig. 12 and its summary line, from one testbed run: online APs per
/// minute over the 30-minute window, and the mean sleeping APs (paper:
/// BH2 sleeps 5.46/9, SoI 3.72/9).
pub fn fig12(h: &Harness) -> [FigureData; 2] {
    let r = run_testbed(&h.scenario, &TestbedConfig::default());
    let mut t = FigureData::new(
        "fig12",
        "testbed: online APs per minute, 15:00-15:30 (9 gateways)",
        vec!["minute".into(), "soi".into(), "bh2".into()],
    );
    for (m, (s, b)) in r.soi_online_per_min.iter().zip(&r.bh2_online_per_min).enumerate() {
        t.push_row(vec![(m + 1) as f64, *s, *b]);
    }
    let mut summary = FigureData::new(
        "fig12-summary",
        "testbed mean sleeping APs of 9 (paper: BH2 5.46, SoI 3.72)",
        vec!["soi_sleeping".into(), "bh2_sleeping".into()],
    );
    summary.push_row(vec![r.soi_mean_sleeping, r.bh2_mean_sleeping]);
    [t, summary]
}

/// Fig. 14 from one run of the four crosstalk experiments: the all-active
/// baselines (paper: 41.3, 43.7, 27.8, 29.7 Mbps), then the speedup vs
/// number of inactive lines per config.
pub fn fig14(seed: u64) -> [FigureData; 2] {
    let mut rng = SimRng::new(seed).fork("fig14");
    let cfg = BundleConfig::default();
    let experiments = CrosstalkExperiment::paper_set();
    let results: Vec<_> = experiments.iter().map(|e| e.run(&cfg, &mut rng)).collect();
    let mut baselines = FigureData::new(
        "fig14-baselines",
        "all-active mean sync rates [Mbps] (paper: 41.3/43.7/27.8/29.7)",
        vec!["baseline_mbps".into()],
    );
    for (baseline, _) in &results {
        baselines.push_row(vec![baseline / 1e6]);
    }
    let baselines = baselines.with_row_labels(experiments.iter().map(|e| e.label()).collect());
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
    let steps = results[0].1.len();
    for si in 0..steps {
        let mut row = vec![results[0].1[si].inactive as f64];
        for (_, pts) in &results {
            row.push(pts[si].mean_speedup_pct);
            row.push(pts[si].std_pct);
        }
        t.push_row(row);
    }
    [baselines, t]
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
    let runs: [SchemeResult; 3] = run_schemes(h, "soi,multi-doze,adaptive-soi");
    let (base_user_w, base_isp_w) = baseline_w(&h.scenario);
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
    for r in runs {
        let s = summarize(&r, base_user_w, base_isp_w);
        labels.push(scheme_key(r.spec));
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
/// paper tuned (thresholds, idle timeout, wake time, epoch), one job per
/// value with one repetition and one seed.
pub fn ablation(h: &Harness) -> FigureData {
    let axes: [(&str, &str, &[&str]); 5] = [
        ("low_thresh", "bh2.low_threshold", &["0.05", "0.10", "0.20"]),
        ("high_thresh", "bh2.high_threshold", &["0.30", "0.50", "0.80"]),
        ("idle_timeout_s", "idle_timeout_s", &["30", "60", "120"]),
        ("wake_time_s", "wake_time_s", &["30", "60", "180"]),
        ("epoch_s", "bh2.epoch_s", &["60", "150", "600"]),
    ];
    let swept: Vec<(&str, &[&str])> = axes.iter().map(|&(_, key, values)| (key, values)).collect();
    let records = run_sweep(h, &["repetitions=1"], &swept, 1);
    let mut t = FigureData::new(
        "ablation",
        "BH2+k sensitivity: day-average savings [%] per parameter value",
        vec!["value".into(), "mean_savings_pct".into(), "peak_gw".into(), "wakes_per_gw".into()],
    );
    let points = axes.iter().flat_map(|&(label, _, values)| values.iter().map(move |v| (label, v)));
    let mut labels = Vec::new();
    for ((label, value), r) in points.zip(&records) {
        labels.push(label.to_string());
        t.push_row(vec![
            value.parse().expect("numeric axis value"),
            r.mean_savings_pct,
            r.peak_gateways,
            r.mean_wake_count,
        ]);
    }
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
