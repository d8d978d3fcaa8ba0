//! Cross-crate integration: a miniature day through every scheme, with the
//! paper's qualitative orderings asserted end to end.

use insomnia::core::{
    build_world, run_single_source_threads, summarize, ArrivalSource, RunResult, ScenarioConfig,
    SchemeFolder, SchemeResult, SchemeSpec, ShardedWorld,
};
use insomnia::simcore::{SimRng, SimTime};
use insomnia::traffic::Trace;
use insomnia::wireless::Topology;

fn mini_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::smoke();
    cfg.trace.horizon = SimTime::from_hours(6);
    cfg.repetitions = 1;
    cfg
}

/// One day over a materialized trace.
fn run_slice(
    cfg: &ScenarioConfig,
    spec: SchemeSpec,
    trace: &Trace,
    topo: &Topology,
    rng: SimRng,
) -> RunResult {
    run_single_source_threads(cfg, spec, ArrivalSource::Slice(&trace.flows), topo, rng, 1)
}

/// One day over `build_world(cfg)`, folded into a one-repetition result.
fn wrap(
    cfg: &ScenarioConfig,
    spec: SchemeSpec,
    trace: &Trace,
    topo: &Topology,
    rng: SimRng,
) -> SchemeResult {
    let mut folder = SchemeFolder::new(cfg, spec, &ShardedWorld::lazy(cfg, cfg.seed));
    folder.absorb(0, run_slice(cfg, spec, trace, topo, rng));
    folder.finish()
}

#[test]
fn scheme_energy_ordering_matches_the_paper() {
    let cfg = mini_cfg();
    let (trace, topo) = build_world(&cfg);
    let energy = |spec| run_slice(&cfg, spec, &trace, &topo, SimRng::new(11)).energy.total_j();
    let no_sleep = energy(SchemeSpec::no_sleep());
    let soi = energy(SchemeSpec::soi());
    let soi_k = energy(SchemeSpec::soi_k_switch());
    let bh2_k = energy(SchemeSpec::bh2_k_switch());
    let optimal = energy(SchemeSpec::optimal());

    // The paper's Fig. 6 ordering: optimal < BH2+k < SoI(+k) < no-sleep.
    assert!(optimal < bh2_k, "optimal {optimal} vs bh2 {bh2_k}");
    assert!(bh2_k < soi, "bh2 {bh2_k} vs soi {soi}");
    assert!(soi_k <= soi + 1.0, "k-switch can only help SoI");
    assert!(soi < no_sleep, "soi {soi} vs no-sleep {no_sleep}");
    // And everything sits inside the physical envelope.
    assert!(optimal > 0.0);
}

#[test]
fn isp_switching_helps_only_with_aggregation_at_peak() {
    // §5.2.3: k-switches barely help SoI during peak (p ≈ 1) but clearly
    // help BH2. Compare awake cards during the busy window.
    let cfg = mini_cfg();
    let (trace, topo) = build_world(&cfg);
    let cards = |spec| {
        let r = run_slice(&cfg, spec, &trace, &topo, SimRng::new(3));
        r.awake_cards.iter().sum::<f64>() / r.awake_cards.len() as f64
    };
    let soi = cards(SchemeSpec::soi());
    let soi_k = cards(SchemeSpec::soi_k_switch());
    let bh2_k = cards(SchemeSpec::bh2_k_switch());
    assert!(soi_k <= soi + 0.05);
    assert!(bh2_k < soi, "bh2+k {bh2_k} vs soi {soi}");
}

#[test]
fn wake_stalls_stretch_completion_times() {
    // Fig. 9a: only a small fraction of flows is affected, but those can
    // stretch by minutes (the 60 s wake). Needs the busy hours in range:
    // overnight, nearly every isolated keepalive hits a sleeping gateway.
    let mut cfg = mini_cfg();
    cfg.trace.horizon = SimTime::from_hours(16);
    let (trace, topo) = build_world(&cfg);
    let base = wrap(&cfg, SchemeSpec::no_sleep(), &trace, &topo, SimRng::new(5));
    let soi = wrap(&cfg, SchemeSpec::soi(), &trace, &topo, SimRng::new(5));
    let cdf = insomnia::core::completion_variation_cdf(&soi, &base);
    assert!(!cdf.is_empty());
    // Most flows are unaffected...
    assert!(cdf.fraction_leq(1.0) > 0.5, "most flows unaffected");
    // ...but the tail contains wake-stall victims (≥ tens of percent).
    assert!(cdf.max().unwrap() > 50.0, "max stretch {:?}", cdf.max());
    // No flow completes faster than no-sleep by more than noise.
    assert!(cdf.min().unwrap() >= -1.0, "min {:?}", cdf.min());
}

#[test]
fn fairness_backup_reduces_extremes() {
    // Busy hours required: overnight both schemes sleep almost everything,
    // so no gateway can differ by -100%.
    let mut cfg = mini_cfg();
    cfg.trace.horizon = SimTime::from_hours(16);
    let (trace, topo) = build_world(&cfg);
    let soi = wrap(&cfg, SchemeSpec::soi(), &trace, &topo, SimRng::new(7));
    let bh2 = wrap(&cfg, SchemeSpec::bh2_k_switch(), &trace, &topo, SimRng::new(7));
    let cdf = insomnia::core::online_time_variation_cdf(&bh2, &soi);
    assert_eq!(cdf.len(), topo.n_gateways());
    // BH2 cuts online time deeply for a solid share of gateways (in the
    // full scenario a quarter go to -100%; the 10-gateway mini world is
    // coarser, so assert the -50% quantile instead)...
    assert!(cdf.fraction_leq(-50.0) > 0.2, "gateways must sleep much more under BH2");
    assert!(cdf.quantile(0.5).unwrap() < 0.0, "median gateway saves online time");
    // ...while the values stay in the clamped range.
    assert!(cdf.min().unwrap() >= -100.0 && cdf.max().unwrap() <= 100.0);
}

#[test]
fn summaries_are_internally_consistent() {
    let cfg = mini_cfg();
    let (trace, topo) = build_world(&cfg);
    let base_user = cfg.power.no_sleep_user_w(topo.n_gateways());
    let base_isp = cfg.power.no_sleep_isp_w(topo.n_gateways(), cfg.dslam.n_cards);
    let r = wrap(&cfg, SchemeSpec::bh2_k_switch(), &trace, &topo, SimRng::new(9));
    let s = summarize(&r, base_user, base_isp);
    assert!(s.mean_savings_pct > 0.0 && s.mean_savings_pct < 100.0);
    assert!(s.mean_gateways > 0.0 && s.mean_gateways <= topo.n_gateways() as f64);
    assert!(s.peak_cards >= 0.0 && s.peak_cards <= cfg.dslam.n_cards as f64);
    let share = s.isp_share_pct.expect("something saved");
    assert!((0.0..=100.0).contains(&share));
}
