//! Traced in-process replay of one benchmark workload.
//!
//! ```text
//! perfbench-tracer --out-dir DIR --scenario NAME --schemes KEY[,KEY...]
//!                  [--set key=value]... [--seeds N] [--threads N] [--quick]
//!                  [--checkpoint FILE]
//! ```
//!
//! The workload flags mean what they mean to `insomnia run`. The tracer
//!
//! 1. replays the batch's shard-major schedule on one thread — one world
//!    prototype per shard when two or more tasks share it, the batch's RNG
//!    forks, the in-order folds — with a span around every call into a
//!    layer (`FlowStream::new`, the topology build,
//!    `run_single_source_threads`, `SchemeFolder::absorb`/`finish`), and
//!    again untraced to measure the tracing overhead;
//! 2. runs `run_batch_controlled` once, timed whole, with a telemetry
//!    sidecar and, given `--checkpoint`, a checkpoint writer;
//! 3. probes the access layer (one line power-on/off pair per fabric at
//!    40/200/500 lines) and, when the workload runs Optimal, the Eq. 1
//!    solver on the first world's re-solve inputs.
//!
//! Spans stay in memory until the end, then go to `DIR/spans.json`; the
//! batch writes `DIR/batch.jsonl` and `DIR/batch.telemetry.jsonl`. One JSON
//! object on stdout carries the replay's counts and times.

use std::fmt::Write as _;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use insomnia_access::{
    joules_to_kwh, random_mapping, Dslam, DslamConfig, Fabric, FixedFabric, FullFabric,
    KSwitchFabric,
};
use insomnia_core::{
    run_single_source_threads, solve, Aggregation, ArrivalSource, RunCounters, RunResult,
    ScenarioConfig, SchemeFolder, SchemeSpec, ShardedWorld, SolverInput, TopologyKind,
};
use insomnia_scenarios::batch::job_seed;
use insomnia_scenarios::{
    manifest_for, parse_scheme_list, run_batch_controlled, scheme_key, BatchRun, CheckpointWriter,
    Registry, RunControl, Telemetry,
};
use insomnia_simcore::{SimError, SimResult, SimRng, SimTime};
use insomnia_traffic::{CrawdadConfig, FlowStream};
use insomnia_wireless::{binomial_topology, overlap_topology, shard_spans, LoadWindow, Topology};

/// Line counts of the access probe.
const PROBE_LINES: [usize; 3] = [40, 200, 500];
/// Power-on/off pairs timed per access probe.
const PROBE_PAIRS: usize = 20_000;

struct Workload {
    name: String,
    cfg: ScenarioConfig,
    schemes: Vec<SchemeSpec>,
    seeds: usize,
    threads: usize,
    checkpoint: Option<PathBuf>,
}

fn invalid(msg: impl Into<String>) -> SimError {
    SimError::InvalidInput(msg.into())
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> SimError {
    invalid(format!("{what} {}: {e}", path.display()))
}

/// Parses the tracer's flags and resolves the scenario exactly as
/// `insomnia run` does: preset spec, `--set` overrides, inheritance, then
/// the `--quick` repetition clamp.
fn parse_args(args: &[String]) -> SimResult<(Workload, PathBuf)> {
    let (mut scenario, mut schemes, mut out_dir, mut checkpoint) = (None, None, None, None);
    let (mut sets, mut seeds, mut threads, mut quick) = (Vec::new(), 1usize, 0usize, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| invalid(format!("{flag} needs a value")))?;
        let count = || value.parse::<usize>().map_err(|_| invalid(format!("{flag}: `{value}`")));
        match flag.as_str() {
            "--scenario" => scenario = Some(value.clone()),
            "--schemes" => schemes = Some(parse_scheme_list(value)?),
            "--set" => sets.push(value.clone()),
            "--seeds" => seeds = count()?,
            "--threads" => threads = count()?,
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            "--checkpoint" => checkpoint = Some(PathBuf::from(value)),
            other => return Err(invalid(format!("unknown flag {other}"))),
        }
    }
    let name = scenario.ok_or_else(|| invalid("--scenario is required"))?;
    let reg = Registry::builtin();
    let mut spec = reg.get_or_err(&name)?.spec.clone();
    for assignment in &sets {
        let (key, value) = assignment
            .split_once('=')
            .ok_or_else(|| invalid(format!("--set expects key=value, got `{assignment}`")))?;
        spec = spec.with_assignment(key.trim(), value.trim())?;
    }
    let mut cfg = reg.flatten(&spec, 0)?.to_config()?;
    if quick {
        cfg.repetitions = cfg.repetitions.min(2);
    }
    let schemes = schemes.ok_or_else(|| invalid("--schemes is required"))?;
    let out_dir = out_dir.ok_or_else(|| invalid("--out-dir is required"))?;
    Ok((Workload { name, cfg, schemes, seeds, threads, checkpoint }, out_dir))
}

/// One recorded span, in milliseconds since the tracer started.
struct Span {
    name: String,
    start_ms: f64,
    end_ms: f64,
    parent: Option<usize>,
}

/// In-memory span recorder: spans nest by enter/exit order. A disabled
/// recorder reads no clock and records nothing; it runs the same schedule
/// untraced, so the difference is the tracing overhead.
struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer { enabled, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ms(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e3
    }

    fn enter(&mut self, name: impl Into<String>) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let start_ms = self.now_ms();
        let parent = self.open.last().copied();
        self.spans.push(Span { name: name.into(), start_ms, end_ms: start_ms, parent });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its duration.
    fn exit(&mut self, id: usize) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end_ms = self.now_ms();
        self.spans[id].end_ms = end_ms;
        end_ms - self.spans[id].start_ms
    }

    fn write(&self, path: &Path) -> SimResult<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ms\":{:?},\"end_ms\":{:?},\"parent\":{parent}}}{sep}",
                s.name, s.start_ms, s.end_ms
            );
        }
        out.push_str("]\n");
        std::fs::write(path, out).map_err(|e| io_err("write", path, e))
    }
}

/// Trace config and RNG streams of one shard — the same labels and span
/// split `build_world_shard_streaming` uses, so the replay drives the
/// batch's exact worlds.
fn shard_inputs(
    cfg: &ScenarioConfig,
    seed: u64,
    shard: usize,
) -> SimResult<(CrawdadConfig, SimRng, SimRng)> {
    let master = SimRng::new(seed);
    if cfg.shards <= 1 {
        return Ok((cfg.trace.clone(), master.fork("trace"), master.fork("topology")));
    }
    let span = shard_spans(cfg.trace.n_clients, cfg.trace.n_aps, cfg.shards)?[shard];
    let mut trace = cfg.trace.clone();
    trace.n_clients = span.n_clients;
    trace.n_aps = span.n_gateways;
    Ok((
        trace,
        master.fork_idx("shard-trace", shard as u64),
        master.fork_idx("shard-topology", shard as u64),
    ))
}

fn build_topology(
    cfg: &ScenarioConfig,
    stream: &FlowStream,
    rng: &mut SimRng,
) -> SimResult<Topology> {
    let home: Vec<usize> = stream.home().iter().map(|ap| ap.index()).collect();
    let (n, mean, channel) = (stream.n_aps(), cfg.mean_networks_in_range, cfg.channel);
    match cfg.topology {
        TopologyKind::Overlap => overlap_topology(&home, n, mean, channel, rng),
        TopologyKind::Binomial => binomial_topology(&home, n, mean, channel, rng),
    }
}

#[derive(Default)]
struct SchemeTotals {
    loop_ms: f64,
    events: u64,
}

/// What the traced schedule measured and produced.
#[derive(Default)]
struct Replay {
    counters: RunCounters,
    schemes: Vec<SchemeTotals>,
    /// Gateway wakes (DSL line power-on transitions) over all tasks.
    transitions: u64,
    setup_ms: f64,
    setup_flows: u64,
    drain_ms: f64,
    drain_flows: u64,
    topology_ms: f64,
    fold_ms: f64,
    /// Energy of every job, in batch job order (scheme-major, then seed).
    energy_kwh: Vec<f64>,
}

impl Replay {
    /// Builds one shard's stream and topology under `traffic`/`wireless`
    /// spans. A `cached` prototype publishes its replay recording with one
    /// real drain, as the batch does; `probe` drains a clone once more to
    /// time an un-replayed drain where the event loop would hide it.
    fn build_shard(
        &mut self,
        tr: &mut Tracer,
        cfg: &ScenarioConfig,
        seed: u64,
        shard: usize,
        cached: bool,
        probe: bool,
    ) -> SimResult<(FlowStream, Topology)> {
        let (trace_cfg, mut trace_rng, mut topo_rng) = shard_inputs(cfg, seed, shard)?;
        let id = tr.enter("traffic.setup");
        let mut stream = FlowStream::new(&trace_cfg, &mut trace_rng);
        self.setup_ms += tr.exit(id);
        self.setup_flows += stream.total_flows() as u64;
        let id = tr.enter("wireless.topology");
        let topo = build_topology(cfg, &stream, &mut topo_rng)?;
        self.topology_ms += tr.exit(id);
        let recorded = cached && stream.enable_replay_cache();
        if recorded || probe {
            let id = tr.enter("traffic.drain");
            let mut probe = stream.clone();
            while probe.next_flow().is_some() {
                self.drain_flows += 1;
            }
            self.drain_ms += tr.exit(id);
        }
        Ok((stream, topo))
    }

    fn note_run(&mut self, scheme: usize, loop_ms: f64, run: &RunResult) {
        self.counters.merge(&run.counters);
        self.schemes[scheme].loop_ms += loop_ms;
        self.schemes[scheme].events += run.events;
        self.transitions += run.wake_counts.iter().sum::<u64>();
    }
}

/// Replays the batch's shard-major schedule on one thread under spans.
fn replay(w: &Workload, tr: &mut Tracer) -> SimResult<(Replay, f64)> {
    let cfg = &w.cfg;
    let n_shards = cfg.shards.max(1);
    let reps = cfg.repetitions;
    // The batch shares a shard's prototype when two or more tasks use it.
    let cached = w.schemes.len() * reps >= 2;
    let mut out = Replay {
        schemes: w.schemes.iter().map(|_| SchemeTotals::default()).collect(),
        energy_kwh: vec![f64::NAN; w.schemes.len() * w.seeds],
        ..Replay::default()
    };
    let root = tr.enter("schedule");
    for ki in 0..w.seeds {
        let seed = job_seed(cfg.seed, ki);
        let world = ShardedWorld::lazy(cfg, seed);
        let master = SimRng::new(seed);
        let mut folders: Vec<Option<SchemeFolder>> =
            w.schemes.iter().map(|&s| Some(SchemeFolder::new(cfg, s, &world))).collect();
        let mut protos: Vec<Option<(FlowStream, Topology)>> = (0..n_shards).map(|_| None).collect();
        for r in 0..reps {
            for (sh, proto) in protos.iter_mut().enumerate() {
                if cached && proto.is_none() {
                    *proto = Some(out.build_shard(tr, cfg, seed, sh, true, false)?);
                }
                for (ci, &spec) in w.schemes.iter().enumerate() {
                    let (stream, own_topo) = match proto {
                        Some((s, _)) => (s.clone(), None),
                        None => {
                            let probe = sh == 0 && r == 0 && ci == 0;
                            let (s, t) = out.build_shard(tr, cfg, seed, sh, false, probe)?;
                            (s, Some(t))
                        }
                    };
                    let topo = own_topo
                        .as_ref()
                        .or(proto.as_ref().map(|(_, t)| t))
                        .expect("a task has its own topology or the prototype's");
                    let rng = if n_shards == 1 {
                        master.fork_idx("rep", r as u64)
                    } else {
                        master.fork_idx("rep", r as u64).fork_idx("shard", sh as u64)
                    };
                    let id = tr.enter(format!("driver.{}", scheme_key(spec)));
                    let arrivals = ArrivalSource::Stream(Box::new(stream));
                    let run = run_single_source_threads(cfg, spec, arrivals, topo, rng, 1);
                    let loop_ms = tr.exit(id);
                    out.note_run(ci, loop_ms, &run);

                    let id = tr.enter("fold.absorb");
                    let folder = folders[ci].as_mut().expect("folder open until its last task");
                    folder.absorb(r * n_shards + sh, run);
                    out.fold_ms += tr.exit(id);
                    if r + 1 == reps && sh + 1 == n_shards {
                        let id = tr.enter("fold.finish");
                        let result = folders[ci].take().expect("one finish per job").finish();
                        out.fold_ms += tr.exit(id);
                        out.energy_kwh[ci * w.seeds + ki] = joules_to_kwh(result.energy.total_j());
                    }
                }
                if r + 1 == reps {
                    *proto = None;
                }
            }
        }
    }
    let wall_ms = tr.exit(root);
    Ok((out, wall_ms))
}

/// Runs the batch itself once, under one span, with a telemetry sidecar and
/// the workload's checkpoint writer, if any.
fn run_batch(w: &Workload, dir: &Path, tr: &mut Tracer) -> SimResult<()> {
    let batch = BatchRun {
        scenarios: vec![(w.name.clone(), w.cfg.clone())],
        schemes: w.schemes.clone(),
        seeds: w.seeds,
        threads: w.threads,
    };
    let create = |name: &str| {
        let path = dir.join(name);
        File::create(&path).map(BufWriter::new).map_err(|e| io_err("create", &path, e))
    };
    let tel = Telemetry::quiet().with_jsonl(Box::new(create("batch.telemetry.jsonl")?));
    let checkpoint = match &w.checkpoint {
        Some(path) => Some(CheckpointWriter::create(path, &manifest_for(&batch))?),
        None => None,
    };
    let ctl = RunControl { checkpoint, ..RunControl::default() };
    let mut out = create("batch.jsonl")?;
    let id = tr.enter("scenarios.batch");
    run_batch_controlled(&batch, &mut out, &tel, ctl)?;
    out.flush().map_err(|e| invalid(format!("flush batch JSONL: {e}")))?;
    tr.exit(id);
    // Dropping the bundle flushes the sidecar before the caller reads it.
    drop(tel);
    Ok(())
}

/// Nanoseconds per `line_powering_on` + `line_powering_off` pair, per
/// fabric and line count. Cards keep the workload's ports per card and are
/// added (in multiples of the k-switch size) until the lines fit; half the
/// lines stay up while the probe toggles the other half.
fn access_probe(cfg: &ScenarioConfig, tr: &mut Tracer) -> Vec<(String, f64)> {
    let ports = cfg.dslam.ports_per_card;
    let k = cfg.k_switch.max(1);
    let mut out = Vec::new();
    for kind in ["fixed", "kswitch", "full"] {
        for n in PROBE_LINES {
            let n_cards = n.div_ceil(ports).div_ceil(k) * k;
            let mut rng = SimRng::new(n as u64);
            let fabric = match kind {
                "fixed" => Fabric::Fixed(FixedFabric::new(
                    n_cards,
                    random_mapping(n, n_cards, ports, &mut rng),
                )),
                "kswitch" => Fabric::KSwitch(KSwitchFabric::new(n, n_cards, ports, k, &mut rng)),
                _ => Fabric::Full(FullFabric::new(n, n_cards, ports)),
            };
            let geometry = DslamConfig { n_cards, ports_per_card: ports };
            let mut dslam = Dslam::new(SimTime::ZERO, geometry, cfg.power, fabric, n);
            for line in (0..n).step_by(2) {
                dslam.line_powering_on(SimTime::ZERO, line);
            }
            let id = tr.enter(format!("access.{kind}.{n}"));
            for i in 0..PROBE_PAIRS {
                let line = 1 + 2 * (i % (n / 2));
                let t = SimTime::from_millis(i as u64 + 1);
                black_box(dslam.line_powering_on(t, black_box(line)));
                dslam.line_powering_off(t, line);
            }
            let ms = tr.exit(id);
            black_box(dslam.awake_cards());
            out.push((format!("{kind}.{n}"), ms * 1e6 / PROBE_PAIRS as f64));
        }
    }
    out
}

/// Times `solve` on every re-solve input of the first world's first shard,
/// rebuilt by the driver's demand sweep. Returns the mean milliseconds per
/// solve, or zero when the workload does not run Optimal.
fn optimal_probe(w: &Workload, tr: &mut Tracer) -> SimResult<f64> {
    if !w.schemes.iter().any(|s| s.aggregation == Aggregation::Optimal) {
        return Ok(0.0);
    }
    let cfg = &w.cfg;
    let (trace_cfg, mut trace_rng, mut topo_rng) = shard_inputs(cfg, job_seed(cfg.seed, 0), 0)?;
    let mut stream = FlowStream::new(&trace_cfg, &mut trace_rng);
    let topo = build_topology(cfg, &stream, &mut topo_rng)?;
    let period = cfg.optimal_period.as_millis();
    let usable = cfg.q_max_utilization * cfg.backhaul_bps;
    let mut load: Vec<LoadWindow> =
        (0..topo.n_clients()).map(|_| LoadWindow::new(period)).collect();
    let mut next = stream.next_flow();
    let mut inputs = Vec::new();
    let mut tick = 0u64;
    loop {
        while let Some(f) = next.filter(|f| f.start.as_millis() <= tick) {
            load[f.client.index()].add(f.start.as_millis(), f.bytes);
            next = stream.next_flow();
        }
        let (mut demands, mut reach) = (Vec::new(), Vec::new());
        for (c, window) in load.iter_mut().enumerate() {
            let d = window.rate_bps(tick).min(usable);
            if d > 0.0 {
                demands.push(d);
                reach.push(topo.reachable(c).iter().map(|l| (l.gateway, l.rate_bps)).collect());
            }
        }
        let n_gw = topo.n_gateways();
        inputs.push(SolverInput::new(demands, reach, n_gw, vec![usable; n_gw], 0)?);
        tick += period;
        if tick >= cfg.horizon().as_millis() {
            break;
        }
    }
    let id = tr.enter("optimal.solve");
    for input in &inputs {
        black_box(solve(input));
    }
    let ms = tr.exit(id);
    Ok(ms / inputs.len() as f64)
}

fn run(args: &[String]) -> SimResult<String> {
    let (w, dir) = parse_args(args)?;
    std::fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, e))?;
    // Warm-up: the first replay in a process pays for page faults and heap
    // growth that later ones do not.
    replay(&w, &mut Tracer::new(false))?;
    let mut tr = Tracer::new(true);
    let (traced, schedule_ms) = replay(&w, &mut tr)?;
    let untraced = Instant::now();
    replay(&w, &mut Tracer::new(false))?;
    let untraced_ms = untraced.elapsed().as_secs_f64() * 1e3;
    run_batch(&w, &dir, &mut tr)?;
    let access = access_probe(&w.cfg, &mut tr);
    let solve_ms = optimal_probe(&w, &mut tr)?;
    tr.write(&dir.join("spans.json"))?;

    let counters = serde_json::to_string(&traced.counters)
        .map_err(|e| invalid(format!("serialize counters: {e}")))?;
    let mut o = String::new();
    let _ = write!(o, "{{\"schedule_ms\":{schedule_ms:?},\"untraced_ms\":{untraced_ms:?}");
    let _ = write!(o, ",\"counters\":{counters},\"transitions\":{}", traced.transitions);
    let _ = write!(o, ",\"traffic\":{{\"setup_ms\":{:?}", traced.setup_ms);
    let _ = write!(o, ",\"setup_flows\":{},\"drain_ms\":{:?}", traced.setup_flows, traced.drain_ms);
    let _ = write!(o, ",\"drain_flows\":{}}}", traced.drain_flows);
    let _ = write!(o, ",\"topology_ms\":{:?},\"fold_ms\":{:?}", traced.topology_ms, traced.fold_ms);
    let _ = write!(o, ",\"solve_ms\":{solve_ms:?}");
    o.push_str(",\"access_ns\":{");
    for (i, (key, ns)) in access.iter().enumerate() {
        let _ = write!(o, "{}\"{key}\":{ns:?}", if i == 0 { "" } else { "," });
    }
    o.push_str("},\"schemes\":{");
    for (i, (spec, t)) in w.schemes.iter().zip(&traced.schemes).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let key = scheme_key(*spec);
        let _ = write!(o, "{sep}\"{key}\":{{\"loop_ms\":{:?},\"events\":{}}}", t.loop_ms, t.events);
    }
    o.push_str("},\"jobs\":[");
    for (j, e) in traced.energy_kwh.iter().enumerate() {
        let (ci, ki) = (j / w.seeds, j % w.seeds);
        let key = scheme_key(w.schemes[ci]);
        let sep = if j == 0 { "" } else { "," };
        let _ = write!(o, "{sep}{{\"scheme\":\"{key}\",\"seed_index\":{ki},\"energy_kwh\":{e:?}}}");
    }
    o.push_str("]}");
    Ok(o)
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
