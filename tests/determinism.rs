//! Reproducibility: identical seeds give bit-identical experiments across
//! the whole stack — the property every simulation result (the JSONL
//! goldens, the figure tables) relies on.

use insomnia::access::{joules_to_kwh, PowerLadder, PowerState};
use insomnia::core::{
    run_scheme_task, run_single_source_threads, ArrivalSource, CompletionStats, RunCounters,
    RunResult, ScenarioConfig, SchemeFolder, SchemeResult, SchemeSpec, ShardedWorld,
};
use insomnia::dslphy::{BundleConfig, CrosstalkExperiment};
use insomnia::scenarios::{
    job_seed, parse_scheme_list, run_batch, run_batch_controlled, run_batch_results, BatchRun,
    Registry, RunControl,
};
use insomnia::simcore::{OnlineTimeHist, SimDuration, SimRng, SimTime};
use insomnia::telemetry::{CounterTotals, ProfileReport, Telemetry};
use insomnia::traffic::CrawdadConfig;
use insomnia::traffic::{FlowStream, Trace};
use insomnia::wireless::Topology;
use std::io::Write;
use std::sync::{Arc, Mutex};

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

/// A whole scheme run as a one-job batch on `threads` workers.
fn run_lazy(cfg: &ScenarioConfig, spec: SchemeSpec, threads: usize) -> SchemeResult {
    let batch = BatchRun {
        scenarios: vec![("lazy".into(), cfg.clone())],
        schemes: vec![spec],
        seeds: 1,
        threads,
    };
    run_batch_results(&batch).unwrap().remove(0)
}

/// The reference a batch job must reproduce: every task of a `spec` run
/// over the world `(cfg, seed)`, shared by the run's repetitions, run by
/// hand and folded in task order.
fn run_whole(cfg: &ScenarioConfig, spec: SchemeSpec, seed: u64) -> SchemeResult {
    let world = &ShardedWorld::shared(cfg, seed, cfg.repetitions);
    let mut folder = SchemeFolder::new(cfg, spec, world);
    for i in 0..folder.n_tasks() {
        let mut claim = world.claim(i % world.n_shards());
        let (mut run, _) = run_scheme_task(spec, world, i, &mut claim);
        claim.attribute(&mut run.counters);
        folder.absorb(i, run);
    }
    folder.finish()
}

#[test]
fn trace_generation_is_bit_stable() {
    let cfg = CrawdadConfig { n_clients: 40, n_aps: 8, ..CrawdadConfig::default() };
    let a = FlowStream::new(&cfg, &mut SimRng::new(123)).collect_trace();
    let b = FlowStream::new(&cfg, &mut SimRng::new(123)).collect_trace();
    assert_eq!(a.flows.len(), b.flows.len());
    for (x, y) in a.flows.iter().zip(&b.flows) {
        assert_eq!(x.start, y.start);
        assert_eq!(x.bytes, y.bytes);
        assert_eq!(x.client, y.client);
    }
    assert_eq!(a.home, b.home);
}

#[test]
fn full_simulation_is_bit_stable() {
    let mut cfg = ScenarioConfig::smoke();
    cfg.trace.horizon = SimTime::from_hours(4);
    let (stream, topo, _) = ShardedWorld::lazy(&cfg, cfg.seed).build_shard(0);
    let trace = stream.collect_trace();
    for spec in [SchemeSpec::soi(), SchemeSpec::bh2_k_switch(), SchemeSpec::optimal()] {
        let a = run_slice(&cfg, spec, &trace, &topo, SimRng::new(99));
        let b = run_slice(&cfg, spec, &trace, &topo, SimRng::new(99));
        assert_eq!(a.powered_gateways, b.powered_gateways, "{spec}");
        assert_eq!(a.awake_cards, b.awake_cards, "{spec}");
        assert_eq!(a.completion.per_flow(), b.completion.per_flow(), "{spec}");
        assert_eq!(a.energy.total_j(), b.energy.total_j(), "{spec}");
        assert_eq!(a.stats, b.stats, "{spec}");
    }
}

#[test]
fn optimal_presolve_is_byte_identical_across_solve_thread_counts() {
    // The Optimal scheme's re-solves run as an index-addressed pre-pass
    // fan-out before the event loop; the loop consumes outputs strictly in
    // tick order, so every result byte must be independent of the fan-out
    // width — on both arrival feeds (slice and stream).
    let mut cfg = ScenarioConfig::smoke();
    cfg.trace.horizon = SimTime::from_hours(6);
    let (stream, topo, _) = ShardedWorld::lazy(&cfg, cfg.seed).build_shard(0);
    let trace = stream.clone().collect_trace();
    let slice = |threads: usize| {
        run_single_source_threads(
            &cfg,
            SchemeSpec::optimal(),
            ArrivalSource::Slice(&trace.flows),
            &topo,
            SimRng::new(11),
            threads,
        )
    };
    let a = slice(1);
    let b = slice(8);
    assert!(a.counters.optimal_solves > 1, "multiple ticks must fan out");
    assert_eq!(a.counters, b.counters, "work counters invariant under solve threads");
    assert_eq!(a.powered_gateways, b.powered_gateways);
    assert_eq!(a.awake_cards, b.awake_cards);
    assert_eq!(a.gateway_online_s, b.gateway_online_s);
    assert_eq!(a.wake_counts, b.wake_counts);
    assert_eq!(a.energy.total_j(), b.energy.total_j());
    assert_eq!(a.stats, b.stats);

    // Streaming feed: the pre-pass replays a clone of the stream's cursor
    // state, so the live stream's drained work counters must stay exactly
    // what the serial driver reported.
    let streamed = |threads: usize| {
        run_single_source_threads(
            &cfg,
            SchemeSpec::optimal(),
            ArrivalSource::Stream(Box::new(stream.clone())),
            &topo,
            SimRng::new(11),
            threads,
        )
    };
    let sa = streamed(1);
    let sb = streamed(8);
    assert_eq!(sa.counters, sb.counters);
    assert_eq!(sa.powered_gateways, sb.powered_gateways);
    assert_eq!(sa.energy.total_j(), sb.energy.total_j());
}

#[test]
fn different_seeds_differ() {
    // The window must include busy hours: overnight, BH2 never has a
    // randomized choice to make, so all seeds behave identically.
    let mut cfg = ScenarioConfig::smoke();
    cfg.trace.horizon = SimTime::from_hours(14);
    let (stream, topo, _) = ShardedWorld::lazy(&cfg, cfg.seed).build_shard(0);
    let trace = stream.collect_trace();
    let a = run_slice(&cfg, SchemeSpec::bh2_k_switch(), &trace, &topo, SimRng::new(1));
    let b = run_slice(&cfg, SchemeSpec::bh2_k_switch(), &trace, &topo, SimRng::new(2));
    // BH2's randomized choices must actually differ across seeds.
    assert_ne!(a.energy.total_j(), b.energy.total_j());
}

#[test]
fn crosstalk_experiment_is_bit_stable() {
    let exp = CrosstalkExperiment::paper_set().remove(1);
    let run = |seed: u64| {
        let mut rng = SimRng::new(seed);
        exp.run(&BundleConfig::default(), &mut rng)
    };
    let (b1, p1) = run(5);
    let (b2, p2) = run(5);
    assert_eq!(b1, b2);
    for (x, y) in p1.iter().zip(&p2) {
        assert_eq!(x.mean_speedup_pct, y.mean_speedup_pct);
        assert_eq!(x.std_pct, y.std_pct);
    }
}

/// A scaled-down dense-metro: each shard is one genuine dense-metro
/// neighborhood (1600 clients / 200 gateways on a 20 × 10 port DSLAM),
/// with `shards` of them and a reduced horizon so the debug-mode test
/// suite finishes in seconds. `completion_cutoff = 0` forces the
/// streaming-sketch path the mega-city preset runs in production, and
/// `online_cutoff = 0` the streamed per-gateway histogram (plus its
/// sharded JSONL grid) the tera-metro preset runs.
fn dense_metro_reduced(shards: usize) -> ScenarioConfig {
    let mut cfg = Registry::builtin().resolve("dense-metro").unwrap();
    cfg.trace.n_clients = 1_600 * shards;
    cfg.trace.n_aps = 200 * shards;
    cfg.shards = shards;
    cfg.trace.horizon = SimTime::from_hours(2);
    cfg.completion_cutoff = 0;
    cfg.online_cutoff = 0;
    cfg.validate().unwrap();
    cfg
}

#[test]
fn sharded_streaming_jsonl_is_byte_identical_across_thread_counts() {
    // The full sharded + streaming-quantile path: dense-metro
    // neighborhoods, sketch-only completion metrics, run through the
    // batch runner at 1 vs 8 threads. The JSONL (including the
    // `completion_quantiles` grid) must not depend on the thread count.
    let batch = |threads: usize| BatchRun {
        scenarios: vec![("dense-metro-reduced".into(), dense_metro_reduced(4))],
        schemes: parse_scheme_list("soi,bh2").unwrap(),
        seeds: 1,
        threads,
    };
    let mut single = Vec::new();
    run_batch(&batch(1), &mut single).unwrap();
    let mut multi = Vec::new();
    run_batch(&batch(8), &mut multi).unwrap();
    assert_eq!(single, multi, "sharded streaming JSONL must be thread-count invariant");
    let text = String::from_utf8(single).unwrap();
    for line in text.lines() {
        assert!(line.contains("\"shards\":4"), "sharded record: {line}");
        assert!(
            line.contains("\"completion_quantiles\":{\"exact\":false"),
            "sketch-mode quantiles must be streamed, not exact: {line}"
        );
        assert!(
            line.contains("\"online_time_quantiles\":{\"exact\":false"),
            "online_cutoff = 0 must stream the per-gateway histogram grid: {line}"
        );
    }
}

#[test]
fn shard_summaries_depend_only_on_seed_index_and_span() {
    // The shard contract the batch runner and checkpoint resume rely on: a
    // shard's summary is a function of the world seed, the shard index and
    // the shard's span alone. Doubling the population over twice the
    // shards keeps every span at 1 600 clients / 200 gateways, so the
    // first N shard summaries of the 2N-shard run must be the N-shard
    // run's, byte for byte in the JSONL.
    let summaries = |shards: usize| {
        let batch = BatchRun {
            scenarios: vec![("contract".into(), dense_metro_reduced(shards))],
            schemes: parse_scheme_list("soi,bh2").unwrap(),
            seeds: 1,
            threads: 2,
        };
        let mut out = Vec::new();
        run_batch(&batch, &mut out).unwrap();
        let key = "\"shard_summaries\":[{";
        let text = String::from_utf8(out).unwrap();
        let per_job: Vec<Vec<String>> = text
            .lines()
            .map(|line| {
                let start = line.find(key).expect("sharded record") + key.len();
                let end = start + line[start..].find("}]").expect("closed array");
                line[start..end].split("},{").map(str::to_string).collect()
            })
            .collect();
        per_job
    };
    let (narrow, wide) = (summaries(2), summaries(4));
    assert_eq!((narrow.len(), wide.len()), (2, 2), "one record per scheme");
    for (job, (n, w)) in narrow.iter().zip(&wide).enumerate() {
        assert_eq!((n.len(), w.len()), (2, 4), "job {job}: one entry per shard");
        assert_eq!(n[..], w[..2], "job {job}: leading shards must not see the shard count");
        assert_ne!(w[0], w[2], "job {job}: shards draw independent streams");
    }
}

#[test]
fn unsharded_streaming_jsonl_is_byte_identical_across_thread_counts() {
    // The same invariant on the `shards = 1` streaming path (cutoff 0
    // forces the sketch even though one neighborhood would fit): the
    // schema must stay frozen (no quantile grid leaks) and the bytes
    // thread-count invariant.
    let batch = |threads: usize| BatchRun {
        scenarios: vec![("dense-metro-1".into(), dense_metro_reduced(1))],
        schemes: parse_scheme_list("soi").unwrap(),
        seeds: 1,
        threads,
    };
    let mut single = Vec::new();
    run_batch(&batch(1), &mut single).unwrap();
    let mut multi = Vec::new();
    run_batch(&batch(8), &mut multi).unwrap();
    assert_eq!(single, multi);
    let text = String::from_utf8(single).unwrap();
    assert!(!text.contains("completion_quantiles"), "shards = 1 schema is frozen: {text}");
    assert!(!text.contains("online_time_quantiles"), "shards = 1 schema is frozen: {text}");
    assert!(text.contains("\"completion_p50_s\":"), "streamed p50 still reported");
}

#[test]
fn run_counters_are_byte_identical_across_thread_counts() {
    // The deterministic work counters ride the same in-order fold as the
    // results: their merged sums/maxes — and the serialized form the CI
    // drift gate `cmp`s — must not depend on the thread count.
    let cfg = dense_metro_reduced(4);
    let r1 = run_lazy(&cfg, SchemeSpec::soi(), 1);
    let r8 = run_lazy(&cfg, SchemeSpec::soi(), 8);
    assert_eq!(r1.counters, r8.counters, "counters must be thread-count invariant");
    assert_eq!(
        serde_json::to_string(&r1.counters).unwrap(),
        serde_json::to_string(&r8.counters).unwrap(),
        "serialized counters (the drift-gate payload) must be byte-identical"
    );
    // Internal consistency: every fold absorbed exactly one task, and
    // every scheduled event was delivered, cancelled, or still queued.
    assert_eq!(r1.counters.fold_absorptions, (cfg.repetitions * cfg.shards) as u64);
    assert!(r1.counters.heap_pushes >= r1.counters.delivered() + r1.counters.cancelled());
    assert_eq!(r1.counters.arrivals, r1.counters.flows_total);
}

/// A `Write` handle over a shared buffer so a sidecar's output
/// can be read back after the run (mirrors `tests/telemetry.rs`).
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn shard_major_batch_jobs_match_whole_scheme_runs() {
    // A three-scheme batch over a sharded lazy world: the shard-major pool
    // serves each shard's setup pass from the prototype cache across
    // schemes and interleaves every job's tasks. Each job must still equal
    // its (scenario, scheme, seed) run task by task and folded in order on
    // the same lazy world, the thread count may not move a byte of the result
    // JSONL, and the sidecar counter totals must be thread-count invariant.
    let cfg = dense_metro_reduced(2);
    let schemes = parse_scheme_list("no-sleep,soi,bh2").unwrap();
    let batch = |threads: usize| BatchRun {
        scenarios: vec![("dense-metro-reduced".into(), cfg.clone())],
        schemes: schemes.clone(),
        seeds: 1,
        threads,
    };
    let run = |threads: usize| {
        let sidecar = SharedBuf::default();
        let tel = Telemetry::quiet().with_jsonl(Box::new(sidecar.clone()));
        let mut out = Vec::new();
        let summary =
            run_batch_controlled(&batch(threads), &mut out, &tel, RunControl::default()).unwrap();
        let text = String::from_utf8(sidecar.0.lock().unwrap().clone()).unwrap();
        let report = ProfileReport::from_jsonl(&text).unwrap();
        (out, summary, report)
    };
    let (out1, summary1, report1) = run(1);
    let (out8, summary8, report8) = run(8);
    assert_eq!(out1, out8, "shard-major JSONL must be thread-count invariant");

    let json = |t: &CounterTotals| serde_json::to_string(t).unwrap();
    let (ct1, ct8) = (report1.counter_totals().unwrap(), report8.counter_totals().unwrap());
    assert_eq!(json(&ct1), json(&ct8), "drift payload must be thread-count invariant");

    // Each of the 2 shard prototypes was built once and served the other
    // two schemes from the cache.
    assert_eq!(ct1.counters.proto_cache_builds, 2);
    assert_eq!(ct1.counters.proto_cache_hits, 4, "(schemes - 1) x shards x reps");

    // Job by job against the whole-run reference. Only the prototype-cache
    // counters and the stream work they save (cache hits replay the
    // prototype's recording instead of re-merging) may differ.
    let neutral = |c: &RunCounters| {
        let mut c = *c;
        c.proto_cache_builds = 0;
        c.proto_cache_hits = 0;
        c.stream_refills = 0;
        c.merge_pops = 0;
        c
    };
    let seed = summary1.records[0].seed;
    let wholes: Vec<SchemeResult> =
        schemes.iter().map(|&spec| run_whole(&cfg, spec, seed)).collect();
    for (threads, summary, report) in [(1, &summary1, &report1), (8, &summary8, &report8)] {
        for (j, (&spec, whole)) in schemes.iter().zip(&wholes).enumerate() {
            let rec = &summary.records[j];
            assert_eq!(rec.seed, seed);
            assert_eq!(rec.energy_kwh, joules_to_kwh(whole.energy.total_j()), "{spec}");
            assert_eq!(rec.mean_wake_count, whole.mean_wake_count, "{spec}");
            let n_flows: usize = whole.shard_summaries.iter().map(|s| s.n_flows).sum();
            assert_eq!(rec.n_flows, n_flows, "{spec}");
            let job = &report.jobs[j];
            assert_eq!(job.job, j);
            assert_eq!(neutral(&job.counters), neutral(&whole.counters), "{spec} @ {threads}");
        }
    }
}

#[test]
fn sharded_runs_are_thread_count_invariant() {
    // Four small neighborhoods through the batch runner at 1 vs 8 threads:
    // the whole folded result — series, per-flow and per-gateway vectors,
    // shard summaries, counters — is the same, not just its JSONL line.
    let mut cfg = ScenarioConfig::default();
    cfg.trace.n_clients = 136;
    cfg.trace.n_aps = 20;
    cfg.trace.horizon = SimTime::from_hours(2);
    cfg.repetitions = 1;
    cfg.shards = 4;
    cfg.validate().unwrap();
    let world = ShardedWorld::lazy(&cfg, job_seed(cfg.seed, 0));
    assert_eq!(world.n_shards(), 4);
    assert_eq!(world.n_clients(), 136);
    assert_eq!(world.n_gateways(), 20);
    let serial = run_lazy(&cfg, SchemeSpec::soi(), 1);
    let parallel = run_lazy(&cfg, SchemeSpec::soi(), 8);
    // The small world keeps every per-flow and per-gateway sample, so the
    // fold's flow and gateway order is part of what must match.
    assert!(serial.completion.iter().all(|c| c.per_flow().is_some()));
    assert!(serial.online_time.iter().all(|o| o.per_gateway().is_some()));
    assert!(serial.counters.delivered() > 0);
    // Every field but the fold's wall-clock, bit for bit (f64 `Debug`
    // output round-trips).
    let whole = |r: SchemeResult| format!("{:?}", SchemeResult { fold_ms: 0.0, ..r });
    assert_eq!(whole(serial), whole(parallel));
}

#[test]
fn merged_shard_quantiles_are_merge_order_invariant() {
    // Merging the per-shard sketches/histograms in any order must give
    // the same quantiles the driver's fold reports — the property that
    // makes the merged result independent of scheduling.
    let cfg = dense_metro_reduced(4);
    let result = run_lazy(&cfg, SchemeSpec::soi(), 4);
    let per_rep = &result.completion[0];
    assert!(per_rep.per_flow().is_none(), "cutoff 0 must not retain per-flow samples");
    let rep_online = &result.online_time[0];
    assert!(rep_online.per_gateway().is_none(), "cutoff 0 must not retain per-gateway samples");
    assert_eq!(rep_online.gateways(), 800, "4 shards x 200 gateways");

    // Re-run each shard of the batch's world in isolation and merge
    // forwards and backwards.
    let seed = job_seed(cfg.seed, 0);
    let rng = |s: u64| SimRng::new(seed).fork_idx("rep", 0).fork_idx("shard", s);
    let world = ShardedWorld::lazy(&cfg, seed);
    let shard_runs: Vec<_> = (0..cfg.shards)
        .map(|s| {
            let (stream, topo, _) = world.build_shard(s);
            run_slice(&cfg, SchemeSpec::soi(), &stream.collect_trace(), &topo, rng(s as u64))
        })
        .collect();
    let shard_online: Vec<OnlineTimeHist> = shard_runs
        .iter()
        .map(|r| OnlineTimeHist::from_samples(&r.gateway_online_s, cfg.online_cutoff))
        .collect();
    let shard_stats: Vec<CompletionStats> = shard_runs.into_iter().map(|r| r.completion).collect();
    let forward = CompletionStats::pooled(&shard_stats);
    let reversed: Vec<CompletionStats> = shard_stats.into_iter().rev().collect();
    let backward = CompletionStats::pooled(&reversed);
    let qs = [0.25, 0.5, 0.75, 0.95, 0.99];
    assert_eq!(forward.quantiles(&qs), per_rep.quantiles(&qs));
    assert_eq!(backward.quantiles(&qs), per_rep.quantiles(&qs));
    assert_eq!(forward.completed(), per_rep.completed());

    // Same story for the per-gateway online-time histograms.
    let merge_all = |hists: &[&OnlineTimeHist]| {
        let mut out = OnlineTimeHist::new(cfg.online_cutoff);
        for h in hists {
            out.merge(h);
        }
        out
    };
    let fwd: Vec<&OnlineTimeHist> = shard_online.iter().collect();
    let bwd: Vec<&OnlineTimeHist> = shard_online.iter().rev().collect();
    assert_eq!(merge_all(&fwd).quantiles(&qs), rep_online.quantiles(&qs));
    assert_eq!(merge_all(&bwd).quantiles(&qs), rep_online.quantiles(&qs));
    assert_eq!(merge_all(&fwd).gateways(), rep_online.gateways());
}

#[test]
fn explicit_two_state_ladder_is_byte_identical_to_legacy_binary() {
    // The power-state machine's 2-state degenerate case must reproduce the
    // legacy binary on/off model *exactly*: configuring the binary ladder
    // explicitly (vs leaving `power_states` unset) may not move a single
    // byte of the batch JSONL, for every pre-ladder scheme family.
    let with_ladder = |mut cfg: ScenarioConfig| {
        cfg.power_states = Some(PowerLadder::binary(cfg.power.gateway_sleep_w, cfg.wake_time));
        cfg
    };
    let jsonl = |cfg: ScenarioConfig, schemes: &str| {
        let batch = BatchRun {
            scenarios: vec![("two-state".into(), cfg)],
            schemes: parse_scheme_list(schemes).unwrap(),
            seeds: 1,
            threads: 2,
        };
        let mut out = Vec::new();
        run_batch(&batch, &mut out).unwrap();
        out
    };
    // The sharded path over the no-sleep / SoI / BH2 families...
    let sharded = dense_metro_reduced(2);
    assert_eq!(
        jsonl(sharded.clone(), "no-sleep,soi,bh2"),
        jsonl(with_ladder(sharded), "no-sleep,soi,bh2"),
        "binary ladder must not perturb no-sleep/soi/bh2 bytes"
    );
    // ...and Optimal, whose legacy path forces wake time to zero (the
    // ladder equivalent: `with_zero_wake`), on the smoke world.
    let mut smoke = ScenarioConfig::smoke();
    smoke.trace.horizon = SimTime::from_hours(4);
    assert_eq!(
        jsonl(smoke.clone(), "optimal"),
        jsonl(with_ladder(smoke), "optimal"),
        "binary ladder must not perturb optimal bytes"
    );
}

#[test]
fn doze_schemes_are_thread_count_invariant() {
    // The multi-state sleep policies on two dense-metro neighborhoods, run
    // through the batch runner at 1 vs 8 threads. Multi-doze's descent
    // ticks and adaptive-SOI's per-gateway timeouts must be as
    // thread-count invariant as every other timer. An explicit three-level
    // ladder with dwells short enough that the overnight window sees real
    // descents.
    let mut cfg = dense_metro_reduced(2);
    cfg.power_states = Some(PowerLadder::new(vec![
        PowerState {
            watts: cfg.power.gateway_sleep_w + 1.0,
            wake: SimDuration::from_secs(15),
            dwell: SimDuration::from_secs(45),
        },
        PowerState {
            watts: cfg.power.gateway_sleep_w + 0.5,
            wake: SimDuration::from_secs(30),
            dwell: SimDuration::from_secs(90),
        },
        PowerState {
            watts: cfg.power.gateway_sleep_w,
            wake: cfg.wake_time,
            dwell: SimDuration::ZERO,
        },
    ]));
    cfg.validate().unwrap();

    let batch = |threads: usize| BatchRun {
        scenarios: vec![("doze-metro".into(), cfg.clone())],
        schemes: parse_scheme_list("multi-doze,adaptive-soi").unwrap(),
        seeds: 1,
        threads,
    };
    let mut single = Vec::new();
    run_batch(&batch(1), &mut single).unwrap();
    let mut multi = Vec::new();
    run_batch(&batch(8), &mut multi).unwrap();
    assert_eq!(single, multi, "doze-scheme JSONL must be thread-count invariant");

    // The run actually exercised the ladder: overnight re-sleeps descend
    // doze levels, and the counters ride the same order-invariant fold.
    let r1 = run_lazy(&cfg, SchemeSpec::multi_doze(), 1);
    let r8 = run_lazy(&cfg, SchemeSpec::multi_doze(), 8);
    assert_eq!(r1.counters, r8.counters);
    assert!(r1.counters.doze_ticks > 0, "multi-doze must deliver descent ticks");
}

#[test]
fn rng_forks_are_stable_across_draw_order() {
    // Components must not perturb each other's streams: forking after
    // drawing gives the same child as forking before.
    let parent = SimRng::new(42);
    let mut drained = parent.clone();
    let _: Vec<u64> = (0..1_000).map(|_| drained.below(1_000)).collect();
    let mut a = parent.fork("component");
    let mut b = drained.fork("component");
    for _ in 0..100 {
        assert_eq!(a.below(1_000_000), b.below(1_000_000));
    }
}
