//! Criterion benches: one per paper figure/table plus engine microbenches.
//!
//! The figure benches measure the cost of regenerating each experiment's
//! data (trace synthesis, scheme simulation, analytics) on reduced run
//! sizes; their outputs are the same series the `figures` binary prints.
//! Engine microbenches track the hot paths: event throughput, BH2
//! decisions, the ILP solver, DMT bit-loading, and the FEXT bundle sync.

use criterion::{criterion_group, criterion_main, Criterion};
use insomnia_access::{p_card_sleeps, p_card_sleeps_monte_carlo};
use insomnia_bench::figures;
use insomnia_bench::Harness;
use insomnia_core::{
    build_world, run_scheme, run_single_source_threads, run_testbed, ArrivalSource, ScenarioConfig,
    SchemeSpec, ShardedWorld, SolverInput, TestbedConfig,
};
use insomnia_dslphy::{
    fixed_length_lines, BundleConfig, BundleSim, CrosstalkExperiment, ServiceProfile,
};
use insomnia_simcore::{default_threads, Scheduler, SimRng, SimTime};
use insomnia_traffic::adsl::{self, AdslConfig};
use insomnia_traffic::crawdad::{self, CrawdadConfig};
use std::hint::black_box;

/// A scenario small enough for per-iteration benching: quarter building,
/// 3-hour day, one repetition.
fn small_scenario() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::smoke();
    cfg.trace.horizon = SimTime::from_hours(3);
    cfg.repetitions = 1;
    cfg
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("engine/event_throughput_100k", |b| {
        b.iter(|| {
            let mut s: Scheduler<u64> = Scheduler::new();
            for i in 0..100_000u64 {
                s.schedule_at(SimTime::from_millis(i % 10_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = s.next_event() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });

    c.bench_function("engine/rng_throughput_1m", |b| {
        let mut rng = SimRng::new(1);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1_000_000 {
                acc += rng.f64();
            }
            black_box(acc)
        })
    });
}

fn bench_fig02_adsl(c: &mut Criterion) {
    c.bench_function("fig02/adsl_population_1k", |b| {
        b.iter(|| {
            let mut rng = SimRng::new(7);
            let pop =
                adsl::generate(&AdslConfig { n_users: 1_000, ..Default::default() }, &mut rng);
            black_box(pop.average_percent(insomnia_traffic::Direction::Down))
        })
    });
}

fn bench_fig03_fig04_trace(c: &mut Criterion) {
    c.bench_function("fig03/crawdad_day_generation", |b| {
        b.iter(|| {
            let mut rng = SimRng::new(3);
            black_box(crawdad::generate(&CrawdadConfig::default(), &mut rng))
        })
    });

    let mut rng = SimRng::new(3);
    let trace = crawdad::generate(&CrawdadConfig::default(), &mut rng);
    c.bench_function("fig04/gap_histogram_peak_hour", |b| {
        b.iter(|| {
            black_box(insomnia_traffic::stats::gap_histogram_paper_bins(
                &trace,
                SimTime::from_hours(16),
                SimTime::from_hours(17),
            ))
        })
    });
}

fn bench_fig05_sleep_probability(c: &mut Criterion) {
    c.bench_function("fig05/analytic_curves", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for l in 1..=8 {
                for k in [2u32, 4, 8] {
                    if l <= k {
                        acc += p_card_sleeps(l, k, 24, 0.5) + p_card_sleeps(l, k, 24, 0.25);
                    }
                }
            }
            black_box(acc)
        })
    });
    c.bench_function("fig05/monte_carlo_10k", |b| {
        let mut rng = SimRng::new(5);
        b.iter(|| black_box(p_card_sleeps_monte_carlo(2, 8, 24, 0.5, 10_000, &mut rng)))
    });
}

fn bench_fig06_to_08_schemes(c: &mut Criterion) {
    let cfg = small_scenario();
    let (trace, topo) = build_world(&cfg);
    let mut group = c.benchmark_group("fig06-08/scheme_day");
    group.sample_size(10);
    for spec in [
        SchemeSpec::no_sleep(),
        SchemeSpec::soi(),
        SchemeSpec::soi_k_switch(),
        SchemeSpec::bh2_k_switch(),
        SchemeSpec::optimal(),
    ] {
        group.bench_function(spec.to_string(), |b| {
            b.iter(|| {
                let arrivals = ArrivalSource::Slice(&trace.flows);
                let rng = SimRng::new(1);
                black_box(run_single_source_threads(
                    &cfg,
                    spec,
                    arrivals,
                    &topo,
                    rng,
                    default_threads(),
                ))
            })
        });
    }
    group.finish();
}

fn bench_fig09_qos(c: &mut Criterion) {
    let cfg = small_scenario();
    let world = ShardedWorld::lazy(&cfg, cfg.seed);
    let run = |spec| run_scheme(&cfg, spec, &world, cfg.seed, default_threads());
    let (base, soi) = (run(SchemeSpec::no_sleep()), run(SchemeSpec::soi()));
    c.bench_function("fig09/completion_variation_cdf", |b| {
        b.iter(|| black_box(insomnia_core::completion_variation_cdf(&soi, &base)))
    });
}

fn bench_fig10_density(c: &mut Criterion) {
    let mut cfg = small_scenario();
    cfg.trace.horizon = SimTime::from_hours(2);
    let mut group = c.benchmark_group("fig10/density_point");
    group.sample_size(10);
    group.bench_function("bh2_density_4", |b| {
        b.iter(|| black_box(insomnia_core::density_sweep(&cfg, &[4.0])))
    });
    group.finish();
}

fn bench_fig12_testbed(c: &mut Criterion) {
    let mut scenario = ScenarioConfig::default();
    scenario.repetitions = 1;
    let tb = TestbedConfig { runs: 1, ..TestbedConfig::default() };
    let mut group = c.benchmark_group("fig12/testbed");
    group.sample_size(10);
    group.bench_function("replay_30min", |b| b.iter(|| black_box(run_testbed(&scenario, &tb))));
    group.finish();
}

fn bench_fig14_crosstalk(c: &mut Criterion) {
    let sim = BundleSim::new(
        BundleConfig { sync_jitter_db: 0.0, ..Default::default() },
        ServiceProfile::mbps62(),
        fixed_length_lines(600.0),
    );
    let active = vec![true; 24];
    c.bench_function("fig14/single_line_sync", |b| {
        b.iter(|| black_box(sim.sync_rate_bps(0, &active, None)))
    });
    let mut group = c.benchmark_group("fig14/experiment");
    group.sample_size(10);
    group.bench_function("one_order_one_config", |b| {
        let exp = CrosstalkExperiment {
            profile: ServiceProfile::mbps62(),
            setup: insomnia_dslphy::LengthSetup::Fixed600,
            n_orders: 1,
            repeats: 1,
            loss_spread_db: 2.0,
        };
        b.iter(|| {
            let mut rng = SimRng::new(14);
            black_box(exp.run(&BundleConfig::default(), &mut rng))
        })
    });
    group.finish();
}

fn bench_fig15_attenuation(c: &mut Criterion) {
    c.bench_function("fig15/attenuation_sampling", |b| {
        b.iter(|| {
            let mut rng = SimRng::new(15);
            black_box(insomnia_dslphy::sample_attenuations(
                &insomnia_dslphy::AttenuationConfig::default(),
                &mut rng,
            ))
        })
    });
}

fn bench_solver(c: &mut Criterion) {
    // A peak-load-like instance: 100 active users, 40 gateways.
    let mut rng = SimRng::new(99);
    let n_gw = 40;
    let mut reach = Vec::new();
    let mut demands = Vec::new();
    for _ in 0..100 {
        let home = rng.below_usize(n_gw);
        let mut gs = vec![(home, 12.0e6)];
        for g in 0..n_gw {
            if g != home && rng.chance(4.6 / 39.0) {
                gs.push((g, 6.0e6));
            }
        }
        reach.push(gs);
        demands.push(rng.range_f64(10e3, 400e3));
    }
    let input = SolverInput::new(demands, reach, n_gw, vec![3.0e6; n_gw], 0).unwrap();
    c.bench_function("optimal/solver_peak_instance", |b| {
        b.iter(|| black_box(insomnia_core::solve(&input)))
    });
}

fn bench_summary_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables");
    group.sample_size(10);
    group.bench_function("fig5_figure_data", |b| b.iter(|| black_box(figures::fig5())));
    let h = Harness::quick();
    group.bench_function("fig3_figure_data", |b| b.iter(|| black_box(figures::fig3(&h))));
    group.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_fig02_adsl,
    bench_fig03_fig04_trace,
    bench_fig05_sleep_probability,
    bench_fig06_to_08_schemes,
    bench_fig09_qos,
    bench_fig10_density,
    bench_fig12_testbed,
    bench_fig14_crosstalk,
    bench_fig15_attenuation,
    bench_solver,
    bench_summary_tables
);
criterion_main!(benches);
