//! The streaming-pipeline equivalence gates.
//!
//! PR 4 replaced eager trace materialization end to end: the crawdad
//! generator streams flows in arrival order ([`FlowStream`]), the driver
//! pulls arrivals from the stream cursor instead of pre-scheduling every
//! flow, and sharded worlds build their shards lazily inside each
//! `(repetition × shard)` worker. All of it is justified by one promise —
//! **bit-identical results** — which these tests enforce across every
//! preset config, both arrival sources (materialized slice and stream), and
//! lazy worlds against per-shard runs over materialized shards.

use insomnia::access::EnergyBreakdown;
use insomnia::core::{
    run_single_source_threads, ArrivalSource, RunResult, ScenarioConfig, SchemeSpec, ShardedWorld,
};
use insomnia::scenarios::{job_seed, run_batch_results, BatchRun, Registry};
use insomnia::simcore::{average_runs, SimRng, SimTime};
use insomnia::traffic::crawdad::{generate_eager, CrawdadConfig};
use insomnia::traffic::{FlowStream, Trace};
use insomnia::wireless::{shard_spans, Topology};

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

/// One day pulling arrivals straight from a stream.
fn run_stream(
    cfg: &ScenarioConfig,
    spec: SchemeSpec,
    stream: FlowStream,
    topo: &Topology,
    rng: SimRng,
) -> RunResult {
    run_single_source_threads(cfg, spec, ArrivalSource::Stream(Box::new(stream)), topo, rng, 1)
}

/// Every registry preset, reduced to a 2-hour horizon so debug-mode tests
/// stay fast; shard 0 of each preset is its genuine per-shard population
/// (5000 clients / 625 gateways for giga-metro).
fn reduced_presets() -> Vec<(String, ScenarioConfig)> {
    Registry::builtin()
        .presets()
        .iter()
        .map(|p| {
            let mut cfg = Registry::builtin().resolve(p.name).unwrap();
            cfg.trace.horizon = SimTime::from_hours(2);
            (p.name.to_string(), cfg)
        })
        .collect()
}

#[test]
fn streaming_world_build_matches_eager_for_every_preset() {
    // The world recipe against the eager reference generator, run on the
    // recipe's documented trace forks over shard 0's span:
    // `fork("trace")` for a one-shard world, `fork_idx("shard-trace", 0)`
    // for a sharded one.
    for (name, cfg) in reduced_presets() {
        let seed = cfg.seed;
        let spans = shard_spans(cfg.trace.n_clients, cfg.trace.n_aps, cfg.shards).unwrap();
        let span = spans[0];
        let master = SimRng::new(seed);
        let mut rng =
            if spans.len() == 1 { master.fork("trace") } else { master.fork_idx("shard-trace", 0) };
        let shard_trace = CrawdadConfig {
            n_clients: span.n_clients,
            n_aps: span.n_gateways,
            ..cfg.trace.clone()
        };
        let eager = generate_eager(&shard_trace, &mut rng);
        let (stream, topo, _) = ShardedWorld::lazy(&cfg, seed).build_shard(0);
        assert_eq!(stream.total_flows(), eager.flows.len(), "{name}: flow count");
        assert_eq!(stream.home(), &eager.home[..], "{name}: home assignment");
        assert_eq!(stream.sessions(), &eager.sessions[..], "{name}: sessions");
        assert_eq!(topo.n_clients(), span.n_clients, "{name}: topology clients");
        assert_eq!(topo.n_gateways(), span.n_gateways, "{name}: topology gateways");
        assert_eq!(stream.collect_trace().flows, eager.flows, "{name}: flows");
    }
}

fn assert_runs_identical(name: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.powered_gateways, b.powered_gateways, "{name}: powered series");
    assert_eq!(a.awake_cards, b.awake_cards, "{name}: cards series");
    assert_eq!(a.user_power_w, b.user_power_w, "{name}: user power");
    assert_eq!(a.isp_power_w, b.isp_power_w, "{name}: isp power");
    assert_eq!(a.energy.total_j(), b.energy.total_j(), "{name}: energy");
    assert_eq!(a.completion.total_flows(), b.completion.total_flows(), "{name}: total flows");
    assert_eq!(a.completion.completed(), b.completion.completed(), "{name}: completed");
    assert_eq!(a.completion.per_flow(), b.completion.per_flow(), "{name}: per-flow samples");
    assert_eq!(
        a.completion.quantiles(&[0.25, 0.5, 0.95, 0.99]),
        b.completion.quantiles(&[0.25, 0.5, 0.95, 0.99]),
        "{name}: quantiles"
    );
    assert_eq!(a.gateway_online_s, b.gateway_online_s, "{name}: online seconds");
    assert_eq!(a.wake_counts, b.wake_counts, "{name}: wake counts");
    assert_eq!(a.stats, b.stats, "{name}: driver stats");
    assert_eq!(a.events, b.events, "{name}: delivered events");
}

#[test]
fn streamed_driver_is_bit_identical_to_slice_driver() {
    // Every scheme class: plain SoI timers, BH2's randomized epochs (RNG
    // interleaving with arrivals), and Optimal's plan pre-pass, which
    // drains the arrival source before the event loop.
    let mut cfg = ScenarioConfig::smoke();
    cfg.trace.horizon = SimTime::from_hours(6);
    cfg.repetitions = 1;
    let (stream, topo, _) = ShardedWorld::lazy(&cfg, 2011).build_shard(0);
    let trace = stream.clone().collect_trace();
    for spec in [
        SchemeSpec::no_sleep(),
        SchemeSpec::soi(),
        SchemeSpec::bh2_k_switch(),
        SchemeSpec::optimal(),
    ] {
        let eager = run_slice(&cfg, spec, &trace, &topo, SimRng::new(7));
        let streamed = run_stream(&cfg, spec, stream.clone(), &topo, SimRng::new(7));
        assert_runs_identical(&format!("{spec}"), &eager, &streamed);
    }
}

#[test]
fn lazy_worlds_reproduce_eager_sharded_runs() {
    // 4 dense-metro-class neighborhoods, run once as a batch over the lazy
    // world (each shard streamed inside its worker, the prototype cache
    // replaying it for every later consumer) and once by hand: every
    // (repetition × shard) day over the materialized shard with the same
    // RNG fork, folded with the runner's arithmetic — byte-identical
    // results either way.
    let mut cfg = ScenarioConfig::default();
    cfg.trace.n_clients = 544;
    cfg.trace.n_aps = 80;
    cfg.trace.horizon = SimTime::from_hours(2);
    cfg.repetitions = 2;
    cfg.shards = 4;
    cfg.validate().unwrap();
    let seed = job_seed(cfg.seed, 0);
    let world = ShardedWorld::lazy(&cfg, seed);
    assert_eq!(world.n_shards(), 4);
    let shards: Vec<(Trace, Topology)> = (0..4)
        .map(|s| {
            let (stream, topo, _) = world.build_shard(s);
            (stream.collect_trace(), topo)
        })
        .collect();
    assert_eq!(world.n_clients(), shards.iter().map(|(_, t)| t.n_clients()).sum::<usize>());
    assert_eq!(world.n_gateways(), shards.iter().map(|(_, t)| t.n_gateways()).sum::<usize>());
    let k = cfg.repetitions as f64;
    let schemes = vec![SchemeSpec::soi(), SchemeSpec::bh2_k_switch()];
    let batch = BatchRun {
        scenarios: vec![("lazy".into(), cfg.clone())],
        schemes: schemes.clone(),
        seeds: 1,
        threads: 4,
    };
    for (spec, lazy) in schemes.into_iter().zip(run_batch_results(&batch).unwrap()) {
        // runs[rep][shard], each on the runner's fork of the master seed.
        let runs: Vec<Vec<RunResult>> = (0..cfg.repetitions)
            .map(|r| {
                let rep_rng = SimRng::new(seed).fork_idx("rep", r as u64);
                shards
                    .iter()
                    .enumerate()
                    .map(|(s, (trace, topo))| {
                        run_slice(&cfg, spec, trace, topo, rep_rng.fork_idx("shard", s as u64))
                    })
                    .collect()
            })
            .collect();

        let mut energy = EnergyBreakdown::default();
        let mut powered = Vec::new();
        for rep in &runs {
            let mut acc = rep[0].energy;
            let mut series = rep[0].powered_gateways.clone();
            for run in &rep[1..] {
                acc = acc.plus(&run.energy);
                for (a, v) in series.iter_mut().zip(&run.powered_gateways) {
                    *a += v;
                }
            }
            energy = energy.plus(&acc);
            powered.push(series);
        }
        let energy = EnergyBreakdown {
            user_j: energy.user_j / k,
            modems_j: energy.modems_j / k,
            cards_j: energy.cards_j / k,
            shelf_j: energy.shelf_j / k,
        };
        assert_eq!(lazy.energy, energy, "{spec}");
        assert_eq!(lazy.powered_gateways, average_runs(&powered), "{spec}");
        let events: u64 = runs.iter().flatten().map(|r| r.events).sum();
        assert_eq!(lazy.counters.delivered(), events, "{spec}");
        for (r, rep) in runs.iter().enumerate() {
            let flows: Vec<Option<f64>> =
                rep.iter().flat_map(|run| run.completion.per_flow().unwrap().to_vec()).collect();
            assert_eq!(lazy.completion[r].per_flow().unwrap().to_vec(), flows, "{spec} rep {r}");
        }

        assert_eq!(lazy.shard_summaries.len(), 4);
        for (s, sum) in lazy.shard_summaries.iter().enumerate() {
            let (trace, topo) = &shards[s];
            assert_eq!(sum.n_clients, topo.n_clients(), "{spec}");
            assert_eq!(sum.n_gateways, topo.n_gateways(), "{spec}");
            assert_eq!(sum.n_flows, trace.flows.len(), "{spec}");
            let (mut energy_j, mut gateways, mut wakes) = (0.0, 0.0, 0.0);
            for rep in &runs {
                let run = &rep[s];
                energy_j += run.energy.total_j();
                gateways +=
                    run.powered_gateways.iter().sum::<f64>() / run.powered_gateways.len() as f64;
                wakes += run.wake_counts.iter().sum::<u64>() as f64 / topo.n_gateways() as f64;
            }
            assert_eq!(sum.energy_j, energy_j / k, "{spec} shard {s}");
            assert_eq!(sum.mean_gateways, gateways / k, "{spec} shard {s}");
            assert_eq!(sum.mean_wake_count, wakes / k, "{spec} shard {s}");
        }
    }
}

#[test]
fn scheduler_heap_stays_bounded_by_active_flows_plus_timers() {
    // The O(active) property the streaming refactor buys: at every event
    // delivery the heap holds at most the active flows' departures (one
    // per busy gateway, superseded ones cancelled), the per-gateway
    // idle/wake timers, the per-client BH2 ticks, the sampler, the Optimal
    // tick and the single front-lane arrival. The pre-streaming driver
    // pre-scheduled every trace flow, so its peak was O(total flows).
    let mut cfg = ScenarioConfig::smoke();
    cfg.trace.horizon = SimTime::from_hours(16); // cover the busy hours
    cfg.repetitions = 1;
    let (stream, topo, _) = ShardedWorld::lazy(&cfg, cfg.seed).build_shard(0);
    let trace = stream.collect_trace();
    let n_gw = topo.n_gateways();
    let n_clients = topo.n_clients();
    for spec in [SchemeSpec::soi(), SchemeSpec::bh2_k_switch()] {
        let r = run_slice(&cfg, spec, &trace, &topo, SimRng::new(3));
        let (peak_heap, peak_active) = (r.counters.peak_heap, r.counters.peak_active_flows);
        let timers = (3 * n_gw + n_clients + 3) as u64;
        assert!(
            peak_heap <= peak_active + timers,
            "{spec}: peak heap {peak_heap} exceeds active {peak_active} + timers {timers}"
        );
        let total = r.completion.total_flows();
        assert!(total > 1_000, "{spec}: want a flow-heavy run, got {total}");
        assert!(
            peak_heap < total / 4,
            "{spec}: peak heap {peak_heap} is not O(active) against {total} trace flows"
        );
        assert!(peak_active > 0 && peak_heap > 0);
    }
}

#[test]
fn optimal_consumes_the_same_cursor_window() {
    // Optimal never schedules arrivals; its plan pre-pass is the one
    // demand sweep over the arrival source. A streamed Optimal run must
    // match the slice-driven one even though no Arrival event ever fires.
    let mut cfg = ScenarioConfig::smoke();
    cfg.trace.horizon = SimTime::from_hours(4);
    let (stream, topo, _) = ShardedWorld::lazy(&cfg, 5).build_shard(0);
    let a = run_slice(
        &cfg,
        SchemeSpec::optimal(),
        &stream.clone().collect_trace(),
        &topo,
        SimRng::new(1),
    );
    let b = run_stream(&cfg, SchemeSpec::optimal(), stream, &topo, SimRng::new(1));
    assert_runs_identical("optimal", &a, &b);
    assert_eq!(a.completion.completed(), 0, "optimal does not simulate flows");
}

#[test]
fn uncached_optimal_counts_only_the_pre_pass_pulls() {
    // A stream with no replay cache regenerates every flow it yields, so
    // its work counters record the pulls. Optimal's plan pre-pass is its
    // one demand sweep: it pulls each flow up to the last re-solve tick
    // plus the first flow past it, and the event loop pulls none.
    let mut cfg = ScenarioConfig::smoke();
    cfg.trace.horizon = SimTime::from_hours(9);
    let (stream, topo, _) = ShardedWorld::lazy(&cfg, 5).build_shard(0);
    let trace = stream.clone().collect_trace();
    let r = run_stream(&cfg, SchemeSpec::optimal(), stream, &topo, SimRng::new(1));
    let c = r.counters;
    assert_eq!(c.arrivals, 0, "optimal fires no arrival");
    assert_eq!(c.flows_total, trace.flows.len() as u64);
    // Ticks fire at 0 and every period after it while before the horizon.
    let mut last_tick = SimTime::ZERO;
    while last_tick + cfg.optimal_period < cfg.horizon() {
        last_tick += cfg.optimal_period;
    }
    let swept = trace.flows.iter().filter(|f| f.start <= last_tick).count() as u64;
    assert!(swept + 1 < c.flows_total, "want flows past the last tick");
    assert_eq!(c.merge_pops, (swept + 1).min(c.flows_total));
}
