//! Eager-vs-streaming benchmark: trace generation throughput (flows/s),
//! driver event throughput (events/s) — SOI over both world storages, then
//! every non-Optimal scheme family over the streamed world — and the two
//! hot-path microbenches behind them — event-queue hold churn and k-way
//! merge (16-byte-entry vs packed binary heap) — on one reduced dense-metro
//! shard.
//!
//! Run with `cargo bench -p insomnia-bench --bench streaming`. Besides the
//! usual stderr table, the bench appends a snapshot to
//! `BENCH_streaming.json` at the workspace root — prior snapshots are
//! retained, so the file is a committed perf trajectory, not a single
//! point. Setup cost and drain cost are split into separate rows: the
//! setup pass (one full RNG advance, O(clients) state) is paid once per
//! shard and amortizes over repetitions, while the drain rows measure what
//! every run pays per flow — which is the fair comparison against the
//! eager rows, whose own setup (the materialized, sorted flow vector) is
//! likewise prebuilt outside the timed loop.

use insomnia_core::{
    build_world_shard, build_world_shard_streaming, run_single_source_threads, ArrivalSource,
    ScenarioConfig, SchemeSpec,
};
use insomnia_scenarios::parse_scheme;
use insomnia_simcore::{EventQueue, SimRng, SimTime, SplitMix64};
use insomnia_traffic::crawdad::{generate_eager, CrawdadConfig};
use insomnia_traffic::merge::{PackedHeap, EXHAUSTED};
use insomnia_traffic::FlowStream;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Schemes benched as `driver/<key>` rows: one per sleep policy, fabric and
/// aggregation (Optimal excluded — it simulates no flows).
const DRIVER_SCHEMES: [&str; 7] =
    ["no-sleep", "soi", "soi+k", "soi+full", "bh2", "multi-doze", "adaptive-soi"];

/// One dense-metro neighborhood (1600 clients / 200 gateways), 6-hour
/// horizon so a full bench run stays in seconds.
fn shard_scenario() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::default();
    cfg.trace.n_clients = 1_600;
    cfg.trace.n_aps = 200;
    cfg.trace.horizon = SimTime::from_hours(6);
    cfg.dslam.n_cards = 20;
    cfg.dslam.ports_per_card = 10;
    cfg.k_switch = 4;
    cfg.mean_networks_in_range = 7.0;
    cfg.trace.rate_scale = 1.2;
    cfg.trace.always_on_frac = 0.12;
    cfg.sample_period = insomnia_simcore::SimDuration::from_secs(60);
    cfg.repetitions = 1;
    cfg.validate().expect("bench scenario validates");
    cfg
}

struct Row {
    name: String,
    unit: &'static str,
    /// Work units per iteration (flows generated / events delivered / ops).
    work: f64,
    mean_s: f64,
}

impl Row {
    fn per_s(&self) -> f64 {
        self.work / self.mean_s
    }
}

/// Times competing closures by alternating *windows* of back-to-back
/// iterations and returns each closure's `(minimum seconds, work units)`.
///
/// Two deliberate choices, both for a single-vCPU VM whose host steals
/// double-digit percentages of some wall-clock stretches:
///
/// * The **minimum**, not the mean — steal time is strictly additive, so
///   the fastest iteration is the closest observation of the code's own
///   cost.
/// * **Alternating windows**, not one block per closure — a contention
///   episode spanning one closure's entire block would tax only that side
///   of a ratio this file exists to record. Within a window, iterations
///   stay back-to-back so each closure keeps the cache warmth it would
///   have in production (where repetitions re-run the same path).
fn time_alternating(
    rounds: u32,
    per_window: u32,
    fs: &mut [&mut dyn FnMut() -> f64],
) -> Vec<(f64, f64)> {
    let works: Vec<f64> = fs.iter_mut().map(|f| f()).collect(); // warm-up + work counts
    let mut mins = vec![f64::INFINITY; fs.len()];
    for _ in 0..rounds {
        for (i, f) in fs.iter_mut().enumerate() {
            for _ in 0..per_window {
                let t0 = Instant::now();
                black_box(f());
                mins[i] = mins[i].min(t0.elapsed().as_secs_f64());
            }
        }
    }
    mins.into_iter().zip(works).collect()
}

/// Event-queue microbench: the classic DES *hold model* — seed `live`
/// pending events, then `holds` cycles of pop-min + push a successor at a
/// pseudorandom offset — on a prebuilt [`EventQueue`]. This isolates pure
/// queue churn from everything else the driver does.
fn queue_hold(mut q: EventQueue<u32>, live: u64, holds: u64) -> f64 {
    let mut mix = SplitMix64::new(0x5eed);
    let mut t = 0u64;
    for i in 0..live {
        q.push(SimTime::from_millis(t), i as u32);
        t += mix.next_u64() % 512;
    }
    for _ in 0..holds {
        let (at, ev) = q.pop().expect("hold model keeps the queue non-empty");
        q.push(at + insomnia_simcore::SimDuration::from_millis(1 + mix.next_u64() % 4096), ev);
    }
    black_box(q.len()) as f64
}

/// Sorted per-lane timestamp runs for the merge microbench: `k` lanes of
/// `per_lane` entries each, deterministic, with plenty of cross-lane ties.
fn merge_lanes(k: usize, per_lane: usize) -> Vec<Vec<SimTime>> {
    let mut mix = SplitMix64::new(0xfeed);
    (0..k)
        .map(|_| {
            let mut t = mix.next_u64() % 1_000;
            (0..per_lane)
                .map(|_| {
                    t += mix.next_u64() % 2_000;
                    SimTime::from_millis(t)
                })
                .collect()
        })
        .collect()
}

/// K-way merge via the historical unpacked shape: a `BinaryHeap` of
/// `(Reverse(key), Reverse(lane))` entries paying one pop *and* one push
/// per merged element.
fn merge_heap(lanes: &[Vec<SimTime>]) -> f64 {
    use std::cmp::Reverse;
    let mut pos = vec![0usize; lanes.len()];
    let mut heap: BinaryHeap<(Reverse<SimTime>, Reverse<usize>)> =
        lanes.iter().enumerate().map(|(i, l)| (Reverse(l[0]), Reverse(i))).collect();
    let mut merged = 0u64;
    let mut last = SimTime::ZERO;
    while let Some((Reverse(key), Reverse(lane))) = heap.pop() {
        debug_assert!(key >= last);
        last = key;
        merged += 1;
        pos[lane] += 1;
        if let Some(&next) = lanes[lane].get(pos[lane]) {
            heap.push((Reverse(next), Reverse(lane)));
        }
    }
    merged as f64
}

/// The same merge through [`PackedHeap`] — the merge behind
/// [`FlowStream`]: packed `u64` `(key, lane)` entries, one pop + push per
/// merged element.
fn merge_packed_heap(lanes: &[Vec<SimTime>]) -> f64 {
    let mut pos = vec![0usize; lanes.len()];
    let keys: Vec<SimTime> = lanes.iter().map(|l| l[0]).collect();
    let mut heap = PackedHeap::new(&keys);
    let mut merged = 0u64;
    let mut last = SimTime::ZERO;
    while heap.winner_key() != EXHAUSTED {
        let w = heap.winner();
        debug_assert!(heap.winner_key() >= last);
        last = heap.winner_key();
        merged += 1;
        pos[w] += 1;
        heap.update(w, lanes[w].get(pos[w]).copied().unwrap_or(EXHAUSTED));
    }
    merged as f64
}

/// The committed snapshot-history schema of `BENCH_streaming.json`.
#[derive(serde::Serialize, serde::Deserialize)]
struct BenchDoc {
    bench: String,
    scenario: BenchScenario,
    snapshots: Vec<BenchSnapshot>,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct BenchScenario {
    n_clients: usize,
    n_gateways: usize,
    horizon_hours: f64,
    scheme: String,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct BenchSnapshot {
    label: String,
    results: Vec<BenchRow>,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct BenchRow {
    name: String,
    work_per_iter: f64,
    mean_ms: f64,
    throughput: f64,
    unit: String,
}

/// The pre-history schema (one anonymous snapshot), kept readable so the
/// first history-appending run preserves the committed baseline.
#[derive(serde::Deserialize)]
#[allow(dead_code)]
struct LegacyBenchDoc {
    bench: String,
    scenario: BenchScenario,
    results: Vec<BenchRow>,
}

/// Appends this run's rows to `BENCH_streaming.json`, retaining every
/// prior snapshot (a legacy single-snapshot file becomes `snapshots[0]`).
fn write_snapshot(
    path: &str,
    cfg: &ScenarioConfig,
    label: &str,
    rows: &[Row],
) -> std::io::Result<()> {
    let mut snapshots: Vec<BenchSnapshot> = match std::fs::read_to_string(path) {
        Ok(text) => {
            if let Ok(doc) = serde_json::from_str::<BenchDoc>(&text) {
                doc.snapshots
            } else if let Ok(legacy) = serde_json::from_str::<LegacyBenchDoc>(&text) {
                vec![BenchSnapshot {
                    label: "pre-batching baseline".into(),
                    results: legacy.results,
                }]
            } else {
                Vec::new()
            }
        }
        Err(_) => Vec::new(),
    };
    snapshots.push(BenchSnapshot {
        label: label.into(),
        results: rows
            .iter()
            .map(|r| BenchRow {
                name: r.name.clone(),
                work_per_iter: r.work.round(),
                mean_ms: (r.mean_s * 1e6).round() / 1e3,
                throughput: r.per_s().round(),
                unit: r.unit.into(),
            })
            .collect(),
    });
    let doc = BenchDoc {
        bench: "streaming".into(),
        scenario: BenchScenario {
            n_clients: cfg.trace.n_clients,
            n_gateways: cfg.trace.n_aps,
            horizon_hours: cfg.trace.horizon.as_secs_f64() / 3_600.0,
            scheme: "soi".into(),
        },
        snapshots,
    };
    let json = serde_json::to_string(&doc).expect("bench snapshot serializes");
    std::fs::write(path, json + "\n")
}

fn main() {
    // Optional substring filter (`-- driver` runs just the driver rows) for
    // quick A/B iterations; filtered runs print but do not append to the
    // committed snapshot history. Flags (cargo passes `--bench` through)
    // are not filters.
    let filter: Option<String> = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let wanted = |group: &str| filter.as_deref().is_none_or(|f| group.contains(f));
    let cfg = shard_scenario();
    let trace_cfg: CrawdadConfig = cfg.trace.clone();
    let mut rows = Vec::new();

    // Trace generation throughput. Eager materializes and sorts; the
    // stream splits into a one-time setup pass (snapshot + count, paid per
    // shard) and the per-run drain, measured on a prebuilt stream via
    // `Clone` — the same way each repetition of a run re-drains it.
    if wanted("trace") {
        let mut rng = SimRng::new(42);
        let prebuilt = FlowStream::new(&trace_cfg, &mut rng);
        let timed = time_alternating(
            3,
            3,
            &mut [
                &mut || {
                    let mut rng = SimRng::new(42);
                    generate_eager(&trace_cfg, &mut rng).flows.len() as f64
                },
                &mut || {
                    let mut rng = SimRng::new(42);
                    FlowStream::new(&trace_cfg, &mut rng).total_flows() as f64
                },
                &mut || {
                    let stream = prebuilt.clone();
                    let total = stream.total_flows() as f64;
                    black_box(stream.count());
                    total
                },
            ],
        );
        for (name, (mean_s, flows)) in
            ["trace/eager_generate", "trace/stream_setup", "trace/flow_stream_drain"]
                .into_iter()
                .zip(timed)
        {
            rows.push(Row { name: name.into(), unit: "flows/s", work: flows, mean_s });
        }
    }

    // Driver event throughput: prebuilt trace vs prebuilt streamed world,
    // the stream cloned per run exactly like a repetition re-run — which
    // is what `run_scheme` does for multi-repetition worlds:
    // one prototype per shard, replay cache enabled, cloned per
    // repetition. The warm-up drain records; timed drains replay it, so
    // this row measures what repetitions 2..n actually pay (repetition 1's
    // regeneration cost is the `trace/flow_stream_drain` row).
    if wanted("driver") {
        let (trace, topo) = build_world_shard(&cfg, cfg.seed, 0);
        let (mut stream, stopo) = build_world_shard_streaming(&cfg, cfg.seed, 0);
        assert!(stream.enable_replay_cache(), "bench shard fits the replay gate");
        let timed = time_alternating(
            3,
            5,
            &mut [
                &mut || {
                    let arrivals = ArrivalSource::Slice(&trace.flows);
                    run_single_source_threads(
                        &cfg,
                        SchemeSpec::soi(),
                        arrivals,
                        &topo,
                        SimRng::new(1),
                        1,
                    )
                    .events as f64
                },
                &mut || {
                    let arrivals = ArrivalSource::Stream(Box::new(stream.clone()));
                    run_single_source_threads(
                        &cfg,
                        SchemeSpec::soi(),
                        arrivals,
                        &stopo,
                        SimRng::new(1),
                        1,
                    )
                    .events as f64
                },
            ],
        );
        for (name, (mean_s, events)) in
            ["driver/soi_eager_trace", "driver/soi_streamed_world"].into_iter().zip(timed)
        {
            rows.push(Row { name: name.into(), unit: "events/s", work: events, mean_s });
        }

        // Per-scheme event throughput over the same streamed world: the
        // wake/sleep-heavy schemes against the no-sleep baseline.
        let (cfg, stream, stopo) = (&cfg, &stream, &stopo);
        let mut runs: Vec<_> = DRIVER_SCHEMES
            .iter()
            .map(|key| {
                let spec = parse_scheme(key).expect("bench scheme key parses");
                move || {
                    let arrivals = ArrivalSource::Stream(Box::new(stream.clone()));
                    run_single_source_threads(cfg, spec, arrivals, stopo, SimRng::new(1), 1).events
                        as f64
                }
            })
            .collect();
        let mut fs: Vec<&mut dyn FnMut() -> f64> = runs.iter_mut().map(|f| f as _).collect();
        for (key, (mean_s, events)) in DRIVER_SCHEMES.iter().zip(time_alternating(3, 3, &mut fs)) {
            rows.push(Row {
                name: format!("driver/{key}"),
                unit: "events/s",
                work: events,
                mean_s,
            });
        }
    }

    // Event-queue microbench: hold-model churn at 100k live events.
    if wanted("queue") {
        let (live, holds) = (100_000u64, 500_000u64);
        let timed =
            time_alternating(3, 2, &mut [&mut || queue_hold(EventQueue::new(), live, holds)]);
        for (name, (mean_s, _)) in ["queue/binary_heap"].into_iter().zip(timed) {
            rows.push(Row { name: name.into(), unit: "holds/s", work: holds as f64, mean_s });
        }
    }

    // Merge microbench: the stream's historical 16-byte-entry heap merge
    // and the packed-entry heap over identical sorted lanes (1600 lanes —
    // one per dense-metro client).
    if wanted("merge") {
        let lanes = merge_lanes(1_600, 400);
        let timed = time_alternating(
            3,
            2,
            &mut [&mut || merge_heap(&lanes), &mut || merge_packed_heap(&lanes)],
        );
        for (name, (mean_s, merged)) in
            ["merge/binary_heap", "merge/packed_heap"].into_iter().zip(timed)
        {
            rows.push(Row { name: name.into(), unit: "pops/s", work: merged, mean_s });
        }
    }

    for r in &rows {
        println!(
            "bench streaming/{:<28} {:>10.3} ms/iter  {:>12.0} {}",
            r.name,
            r.mean_s * 1e3,
            r.per_s(),
            r.unit
        );
    }

    if filter.is_some() {
        return; // partial runs never append a partial snapshot
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_streaming.json");
    match write_snapshot(path, &cfg, "BH2 ticks on the monotone lane", &rows) {
        Ok(()) => println!("appended snapshot to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
