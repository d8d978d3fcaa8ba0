//! The parallel batch runner.
//!
//! A [`BatchRun`] expands into a (scenario × scheme × seed) job matrix.
//! Worlds are [`ShardedWorld`]s — one handle per (scenario, seed) pair,
//! shared by reference across that pair's scheme jobs and the one source
//! of a task's config, seed, shard plan and shard prototype. Each
//! `(repetition × shard)` task builds its shard inside the worker through
//! the streaming trace generator (no flow vector is ever materialized) and
//! drops it on completion, so the batch's peak RSS is
//! O(worker threads × shard), not O(world) — the property the memory-gated
//! giga-metro CI smoke enforces. The `(repetition × shard)` tasks of every
//! job execute **shard-major**: one flat pool runs all scheme tasks
//! touching one (seed, shard) back to back off the world's refcounted
//! shard prototype, so the per-shard stream setup pass runs once for the
//! whole batch instead of once per scheme. Each job's results fold
//! strictly in task order through one [`SchemeFolder`], so the thread
//! count and the interleaving never move a byte.
//!
//! This is the only code that schedules and folds scheme runs: one private
//! task loop hands each finished job's [`SchemeResult`] to
//! [`run_batch_controlled`] (the CLI: a JSONL record at once, released in
//! job order) or [`run_batch_results`] (the figure harness: kept).
//!
//! Determinism: job `k` of scenario `s` derives its RNG master from the
//! scenario's configured seed via the same fork discipline the driver
//! uses (`SimRng::fork_idx`), so results depend only on the spec — never
//! on thread count or completion order (shard builds are index-addressed
//! pure functions of `(config, seed, shard)`). JSONL output is streamed
//! through a reorder buffer that releases lines strictly in job order,
//! making the byte stream identical at 1 and N threads (asserted by
//! `tests/scenarios.rs`).
//!
//! Telemetry — wall-clock spans, deterministic work counters, the
//! shard-level heartbeat — flows through one [`Telemetry`] and never
//! into the result JSONL: by default it renders the classic stderr
//! lines, `--telemetry FILE` adds a JSONL sidecar (manifest → per-task →
//! per-job → phase table → summary; see `insomnia profile`), and
//! `--quiet` drops the stderr lines.

use crate::checkpoint::{CheckpointWriter, WriteFaults};
use crate::faults::{FaultPlan, ResolvedFaults};
use crate::schemes::scheme_key;
use insomnia_core::{
    completion_quantiles, online_time_quantiles, run_scheme_task, summarize, CompletionQuantiles,
    OnlineTimeQuantiles, RunResult, ScenarioConfig, SchemeFolder, SchemeResult, SchemeSpec,
    ShardedWorld, TaskSetup,
};
use insomnia_simcore::{par_fold_grouped, retry_unwind, SimError, SimResult, SimRng};
use insomnia_telemetry::{
    JobTelemetryRecord, ManifestRecord, ManifestScenario, PhaseAccum, RunCounters, SummaryRecord,
    TaskRecord, Telemetry, TelemetryRecord, TELEMETRY_SCHEMA_VERSION,
};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One expanded batch: named scenarios × schemes × seed indices.
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// `(name, resolved config)` per scenario.
    pub scenarios: Vec<(String, ScenarioConfig)>,
    /// Schemes to run per scenario.
    pub schemes: Vec<SchemeSpec>,
    /// Number of seeds per (scenario, scheme) cell. Seed index `k` maps to
    /// an independent RNG stream forked from the scenario's master seed.
    pub seeds: usize,
    /// Total thread budget, 0 = one per available core. Every job's
    /// `(repetition × shard)` tasks share one flat pool of
    /// `min(budget, tasks)` workers; per-task inner parallelism is pinned
    /// to one thread, so the budget is the number of live workers.
    pub threads: usize,
}

/// Per-shard summary inside a sharded [`JobRecord`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardRecord {
    /// Clients simulated in the shard.
    pub n_clients: usize,
    /// Gateways in the shard.
    pub n_gateways: usize,
    /// Trace flows of the shard.
    pub n_flows: usize,
    /// Mean energy over the day, kWh.
    pub energy_kwh: f64,
    /// Mean powered gateways over the day.
    pub mean_gateways: f64,
    /// Mean wake cycles per gateway per day.
    pub mean_wake_count: f64,
}

/// One JSONL record: the outcome of a single (scenario, scheme, seed) job.
///
/// `Serialize` is written by hand (not derived) so the two shard fields
/// are *omitted* for unsharded runs: a `shards = 1` batch must stay
/// byte-identical to the pre-shard JSONL schema.
#[derive(Debug, Clone, Deserialize)]
pub struct JobRecord {
    /// Scenario name.
    pub scenario: String,
    /// Machine scheme key (`bh2`, `soi`, ...).
    pub scheme: String,
    /// Seed index within the batch.
    pub seed_index: usize,
    /// Resolved RNG master seed of this job.
    pub seed: u64,
    /// Gateways in the world.
    pub n_gateways: usize,
    /// Clients in the world.
    pub n_clients: usize,
    /// Trace flows simulated.
    pub n_flows: usize,
    /// Day-average energy savings vs the no-sleep baseline, percent.
    pub mean_savings_pct: f64,
    /// Savings inside the 11–19 h peak window, percent.
    pub peak_savings_pct: f64,
    /// Mean powered gateways over the day.
    pub mean_gateways: f64,
    /// Mean powered gateways in the peak window.
    pub peak_gateways: f64,
    /// Mean awake line cards in the peak window.
    pub peak_cards: f64,
    /// ISP share of the saved energy, percent (absent when nothing saved).
    pub isp_share_pct: Option<f64>,
    /// Total energy over the day, kWh.
    pub energy_kwh: f64,
    /// Mean wake cycles per gateway per day.
    pub mean_wake_count: f64,
    /// Median completion time over finished flows, seconds (absent for
    /// schemes that do not simulate flows, e.g. Optimal).
    pub completion_p50_s: Option<f64>,
    /// 95th-percentile completion time, seconds.
    pub completion_p95_s: Option<f64>,
    /// Fraction of trace flows that completed by the horizon.
    pub completed_frac: Option<f64>,
    /// DSLAM-neighborhood shards of the world (`None` = 1, unsharded; the
    /// field only appears in the JSONL when sharding is on).
    pub shards: Option<usize>,
    /// Per-shard summaries, in shard order (only present when sharded).
    pub shard_summaries: Option<Vec<ShardRecord>>,
    /// Completion-time quantile grid from the merged sketch (only present
    /// when sharded — the unsharded schema is frozen; `null` inside a
    /// sharded record when no flow completed, e.g. under Optimal).
    pub completion_quantiles: Option<CompletionQuantiles>,
    /// Per-gateway online-time quantile grid from the merged histogram
    /// (only present for sharded runs of scenarios with `online_cutoff =
    /// 0` — every other sharded schema stays byte-identical).
    pub online_time_quantiles: Option<OnlineTimeQuantiles>,
}

// Hand-written: shard fields are omitted or null by `shards` (the frozen unsharded schema).
impl Serialize for JobRecord {
    fn to_value(&self) -> Value {
        // Field order mirrors the struct declaration; the shard fields are
        // appended only for sharded runs so the unsharded byte stream is
        // exactly the pre-shard schema.
        let mut m: Vec<(String, Value)> = vec![
            ("scenario".into(), self.scenario.to_value()),
            ("scheme".into(), self.scheme.to_value()),
            ("seed_index".into(), self.seed_index.to_value()),
            ("seed".into(), self.seed.to_value()),
            ("n_gateways".into(), self.n_gateways.to_value()),
            ("n_clients".into(), self.n_clients.to_value()),
            ("n_flows".into(), self.n_flows.to_value()),
            ("mean_savings_pct".into(), self.mean_savings_pct.to_value()),
            ("peak_savings_pct".into(), self.peak_savings_pct.to_value()),
            ("mean_gateways".into(), self.mean_gateways.to_value()),
            ("peak_gateways".into(), self.peak_gateways.to_value()),
            ("peak_cards".into(), self.peak_cards.to_value()),
            ("isp_share_pct".into(), self.isp_share_pct.to_value()),
            ("energy_kwh".into(), self.energy_kwh.to_value()),
            ("mean_wake_count".into(), self.mean_wake_count.to_value()),
            ("completion_p50_s".into(), self.completion_p50_s.to_value()),
            ("completion_p95_s".into(), self.completion_p95_s.to_value()),
            ("completed_frac".into(), self.completed_frac.to_value()),
        ];
        if self.shards.unwrap_or(1) > 1 {
            m.push(("shards".into(), self.shards.to_value()));
            m.push(("shard_summaries".into(), self.shard_summaries.to_value()));
            m.push(("completion_quantiles".into(), self.completion_quantiles.to_value()));
            // The online-time grid is an opt-in (`online_cutoff = 0`)
            // appended only when populated: sharded records of scenarios
            // that keep exact per-gateway accounting — e.g. the frozen
            // giga-metro smoke reference — serialize the pre-existing
            // schema byte-for-byte.
            if self.online_time_quantiles.is_some() {
                m.push(("online_time_quantiles".into(), self.online_time_quantiles.to_value()));
            }
        }
        Value::Map(m)
    }
}

/// Wall-clock phase accumulators fed from worker threads as tasks finish.
/// Scheduling-dependent by nature; frozen into sidecar `phase` records at
/// the end of the batch, never the result JSONL.
struct TaskPhases {
    world_build: PhaseAccum,
    event_loop: PhaseAccum,
}

/// Per (scenario, scheme) aggregate over seeds.
#[derive(Debug, Clone)]
pub struct SummaryRow {
    /// Scenario name.
    pub scenario: String,
    /// Machine scheme key.
    pub scheme: String,
    /// Seeds aggregated.
    pub seeds: usize,
    /// Mean of the per-seed day-average savings, percent.
    pub mean_savings_pct: f64,
    /// Sample standard deviation of the savings across seeds.
    pub std_savings_pct: f64,
    /// Mean powered gateways.
    pub mean_gateways: f64,
    /// Mean energy, kWh.
    pub energy_kwh: f64,
    /// Mean wake cycles per gateway per day.
    pub mean_wake_count: f64,
}

/// Everything a finished batch reports.
#[derive(Debug, Clone)]
pub struct BatchSummary {
    /// Per-job records, in job order.
    pub records: Vec<JobRecord>,
    /// Aggregates, in (scenario, scheme) matrix order.
    pub rows: Vec<SummaryRow>,
}

impl BatchRun {
    /// Total number of jobs in the matrix.
    pub fn n_jobs(&self) -> usize {
        self.scenarios.len() * self.schemes.len() * self.seeds
    }

    fn validate(&self) -> SimResult<()> {
        if self.scenarios.is_empty() {
            return Err(SimError::InvalidInput("batch has no scenarios".into()));
        }
        if self.schemes.is_empty() {
            return Err(SimError::InvalidInput("batch has no schemes".into()));
        }
        if self.seeds == 0 {
            return Err(SimError::InvalidInput("batch needs at least one seed".into()));
        }
        for (i, spec) in self.schemes.iter().enumerate() {
            // Schemes key the records via scheme_key; a duplicate would
            // silently pool two copies into one summary row.
            if self.schemes[..i].contains(spec) {
                return Err(SimError::InvalidInput(format!("duplicate scheme `{spec}` in batch")));
            }
        }
        for (i, (name, cfg)) in self.scenarios.iter().enumerate() {
            cfg.validate()
                .map_err(|e| SimError::InvalidConfig(format!("scenario `{name}`: {e}")))?;
            // Names key the JSONL records and summary aggregation; a
            // duplicate would silently pool two scenarios into one row.
            if self.scenarios[..i].iter().any(|(other, _)| other == name) {
                return Err(SimError::InvalidInput(format!(
                    "duplicate scenario name `{name}` in batch"
                )));
            }
        }
        Ok(())
    }

    /// The configured thread budget (defaults to the core count).
    fn thread_budget(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            insomnia_simcore::default_threads()
        }
    }
}

/// Crash-safety controls of one batch run: checkpointing, resume replay,
/// fault injection, cooperative cancellation and the per-task retry
/// budget. [`Default`] is the plain uncontrolled run (no checkpoint, one
/// attempt per task).
pub struct RunControl {
    /// Open checkpoint writer; every completed `(repetition × shard)` task
    /// appends one flushed record.
    pub checkpoint: Option<CheckpointWriter>,
    /// Task results replayed from a loaded checkpoint, keyed
    /// `(job, task)`; replayed tasks skip simulation and fold the cached
    /// bytes in index order — the output stays byte-identical.
    pub resume: Option<BTreeMap<(usize, usize), RunResult>>,
    /// Deterministic fault plan (worker panics, checkpoint IO errors,
    /// torn tail), resolved against the batch's global task ordinals.
    pub faults: Option<FaultPlan>,
    /// Cooperative cancellation (the SIGINT path): once set, workers stop
    /// claiming tasks and the run exits with [`SimError::Interrupted`]
    /// after flushing in-flight checkpoint records and telemetry.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Attempts per task before the job fails (≥ 1). Retries re-fork the
    /// task's RNG stream from scratch, so a retried run is byte-identical
    /// to an untroubled one.
    pub max_attempts: usize,
}

impl Default for RunControl {
    fn default() -> Self {
        RunControl { checkpoint: None, resume: None, faults: None, cancel: None, max_attempts: 1 }
    }
}

/// Per-job bookkeeping of the task pool: the job's coordinates and world
/// plus the pieces shared between worker threads (heartbeat atomics,
/// lazily stamped start time). The deterministic fold state lives on the
/// collector as one [`SchemeFolder`] per job.
struct JobState<'a> {
    j: usize,
    name: &'a str,
    spec: SchemeSpec,
    scheme: String,
    seed_index: usize,
    /// The job's (scenario, seed) world: its config, seed and shared
    /// shard prototypes.
    world: &'a ShardedWorld,
    /// `(repetition × shard)` tasks of the job.
    n_tasks: usize,
    /// First global task ordinal of the job (fault plans and checkpoint
    /// records address tasks run-wide, not per job).
    base: usize,
    /// Tasks finished so far (each task reports a unique value; completion
    /// order is scheduling-dependent).
    finished: AtomicUsize,
    /// Tasks absorbed by the job's in-order folder so far.
    merged: AtomicUsize,
    /// Stamped by whichever worker claims the job's first task; read when
    /// the last task folds to report the job's wall-clock span.
    started: OnceLock<Instant>,
}

/// Unwind payload a worker raises to end the batch: the cooperative cancel
/// (SIGINT, or a failed job hand-over such as a JSONL write) seen before a
/// task starts, or a task whose retry budget ran out, carrying the run's
/// [`SimError::TaskFailed`] text. Raised with `resume_unwind`, so the panic
/// hook prints nothing: the run reports it as an error.
enum TaskAbort {
    Cancelled,
    Failed(String),
}

/// Best-effort panic-payload text (matches std's unwind reporting for
/// `&str`/`String` payloads).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The run-wide state every task of the pool consults: crash-safety
/// controls and the telemetry.
struct TaskPool<'a> {
    /// Task results replayed from a loaded checkpoint, keyed `(job, task)`.
    resume: Option<Mutex<BTreeMap<(usize, usize), RunResult>>>,
    writer: Option<CheckpointWriter>,
    faults: Option<ResolvedFaults>,
    cancel: Option<Arc<AtomicBool>>,
    /// Set by the collector when the caller's job hand-over fails; stops
    /// the pool like a cancel.
    stopped: AtomicBool,
    max_attempts: usize,
    tel: &'a Telemetry,
    phases: Mutex<TaskPhases>,
}

impl TaskPool<'_> {
    /// Runs task `i` (`= rep * n_shards + shard`) of job `js`, in order:
    /// the cancel check, checkpoint replay, the prototype claim, bounded
    /// deterministic retry with fault injection, then the recovery
    /// counters, checkpoint persistence and the heartbeat record. Ends the
    /// batch by panicking with a [`TaskAbort`].
    ///
    /// None of it can change a result byte: a replayed result folds at the
    /// same index as a fresh one, and every retry re-derives the identical
    /// RNG stream; only the omit-when-zero recovery counters record that
    /// anything happened.
    fn run(&self, js: &JobState<'_>, i: usize) -> RunResult {
        js.started.get_or_init(Instant::now);
        if self.stopped.load(Ordering::Relaxed)
            || self.cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed))
        {
            std::panic::resume_unwind(Box::new(TaskAbort::Cancelled));
        }
        let n_shards = js.world.n_shards();
        let (rep, sh) = (i / n_shards, i % n_shards);
        let replayed = self
            .resume
            .as_ref()
            .and_then(|r| r.lock().expect("resume cache lock").remove(&(js.j, i)));
        if let Some(mut result) = replayed {
            // The record's recovery and prototype counters describe the
            // process that persisted it; this one only resumed the task.
            let c = &mut result.counters;
            (c.proto_cache_builds, c.proto_cache_hits) = (0, 0);
            (c.tasks_retried, c.faults_injected) = (0, 0);
            c.tasks_resumed = 1;
            // A replayed task never touches the prototype; release its
            // claim so the shard still frees at its true last consumer.
            js.world.skip(sh);
            self.report(js, i, &result, TaskSetup::default(), 0.0);
            return result;
        }
        let task_start = Instant::now();
        // One claim per task, *outside* the retry loop: a retried attempt
        // must not count the shard's consumer off twice.
        let mut claim = js.world.claim(sh);
        let ordinal = js.base + i;
        let mut attempt = 0u64;
        let mut injected = 0u64;
        let outcome = retry_unwind(self.max_attempts, || {
            let this_attempt = attempt;
            attempt += 1;
            if self.faults.as_ref().is_some_and(|f| f.should_panic(ordinal, this_attempt)) {
                injected += 1;
                panic!("injected worker fault (task {i}, attempt {this_attempt})");
            }
            run_scheme_task(js.spec, js.world, i, &mut claim)
        });
        let (retries, (mut result, setup)) = match outcome {
            Ok(retried) => (retried.retries, retried.value),
            Err(payload) => std::panic::resume_unwind(Box::new(TaskAbort::Failed(format!(
                "job {} ({} / {} seed {}): repetition {rep} shard {sh} failed after {attempt} \
                 attempt(s): {}",
                js.j,
                js.name,
                js.scheme,
                js.seed_index,
                panic_message(payload.as_ref()),
            )))),
        };
        result.counters.tasks_retried += retries;
        result.counters.faults_injected += injected;
        claim.attribute(&mut result.counters);
        let loop_ms = (task_start.elapsed().as_secs_f64() * 1e3 - setup.setup_ms).max(0.0);
        if let Some(writer) = &self.writer {
            writer.write_task(ordinal, js.j, i, rep, sh, &result);
        }
        self.report(js, i, &result, setup, loop_ms);
        result
    }

    /// The task heartbeat, sent from the worker the moment the task
    /// finishes (one slow early shard never silences it): the task's phase
    /// spans plus one sidecar [`TaskRecord`] carrying the job's merge
    /// progress as a snapshot. The human lines render it for sharded jobs
    /// only; the result JSONL is untouched either way.
    fn report(
        &self,
        js: &JobState<'_>,
        i: usize,
        result: &RunResult,
        setup: TaskSetup,
        loop_ms: f64,
    ) {
        {
            let mut ph = self.phases.lock().expect("phase lock");
            if setup.setup_ms > 0.0 {
                ph.world_build.add(setup.setup_ms);
            }
            ph.event_loop.add(loop_ms);
        }
        let finished = js.finished.fetch_add(1, Ordering::Relaxed) + 1;
        let merged = js.merged.load(Ordering::Relaxed);
        let n_shards = js.world.n_shards();
        self.tel.emit(&TelemetryRecord::Task(TaskRecord {
            job: js.j,
            scenario: js.name.to_string(),
            scheme: js.scheme.clone(),
            seed_index: js.seed_index,
            rep: i / n_shards,
            shard: i % n_shards,
            n_shards,
            setup_ms: setup.setup_ms,
            topology_ms: setup.topology_ms,
            loop_ms,
            finished,
            total: js.n_tasks,
            merged,
            // Finished-but-not-yet-merged results: completion running ahead
            // of the deterministic merge.
            fold_queue: finished.saturating_sub(merged + 1),
            counters: result.counters,
        }));
    }
}

/// Decodes job index `j` into `(scenario, scheme, seed)` coordinates.
fn job_coords(batch: &BatchRun, j: usize) -> (usize, usize, usize) {
    let per_scenario = batch.schemes.len() * batch.seeds;
    (j / per_scenario, (j % per_scenario) / batch.seeds, j % batch.seeds)
}

/// Global task ordinal layout: `base[j]` is the first ordinal of job `j`,
/// `base[n_jobs]` the batch's task total. Tasks are the `(repetition ×
/// shard)` units, numbered in job order — a thread-count-independent
/// address space shared by fault plans and checkpoint records.
fn task_bases(batch: &BatchRun) -> Vec<usize> {
    let n_jobs = batch.n_jobs();
    let mut bases = Vec::with_capacity(n_jobs + 1);
    let mut total = 0usize;
    for j in 0..n_jobs {
        bases.push(total);
        let (si, _, _) = job_coords(batch, j);
        let cfg = &batch.scenarios[si].1;
        total += cfg.repetitions * cfg.shards.max(1);
    }
    bases.push(total);
    bases
}

/// Master seed of job seed-index `k` under a scenario: fork `k` of the
/// scenario seed's `"batch"` stream. Stable against how many seeds, schemes
/// or threads a batch uses.
pub fn job_seed(scenario_seed: u64, seed_index: usize) -> u64 {
    let mut rng = SimRng::new(scenario_seed).fork_idx("batch", seed_index as u64);
    // One draw decorrelates the seed value itself from neighboring forks.
    rng.range_u64(0, u64::MAX)
}

/// Runs the batch, streaming one JSON line per job (in job order) into
/// `out`, and returns all records plus the aggregated summary. Telemetry
/// goes to the default stderr renderer (the classic heartbeat/job lines);
/// use [`run_batch_controlled`] to pick the destinations.
pub fn run_batch<W: Write>(batch: &BatchRun, out: &mut W) -> SimResult<BatchSummary> {
    run_batch_controlled(batch, out, &Telemetry::stderr(), RunControl::default())
}

/// [`run_batch`] with an explicit [`Telemetry`] under a [`RunControl`]:
/// the crash-safe entry point behind `insomnia run
/// --checkpoint/--resume/--faults`, and (with `RunControl::default()`) the
/// plain run with chosen telemetry destinations. Every run record —
/// manifest, per-task heartbeats, per-job lines, the phase-span table and
/// the final summary — is emitted through `tel`. The result JSONL written
/// to `out` is byte-identical whatever its destinations (telemetry can
/// observe the run but never affect it).
///
/// Determinism contract: none of the controls may change a result byte.
/// Replayed checkpoint tasks fold the persisted wire form at the same
/// index a live task would; retried tasks re-fork the identical RNG
/// stream; fault injection only ever panics (caught) or drops checkpoint
/// records (re-simulated on resume). A run that completes — clean,
/// retried, or resumed — writes the same JSONL as an uninterrupted
/// single-attempt run.
///
/// Failure semantics: a task that exhausts `max_attempts` fails its job;
/// the collector keeps every line *before* the failed job (the JSONL stays
/// a valid prefix), telemetry phases and summary still flush, the
/// checkpoint stays valid for `--resume`, and the run returns
/// [`SimError::TaskFailed`]. A set cancel flag ends the run the same way
/// with [`SimError::Interrupted`], and a failed JSONL write with
/// [`SimError::Io`].
pub fn run_batch_controlled<W: Write>(
    batch: &BatchRun,
    out: &mut W,
    tel: &Telemetry,
    ctl: RunControl,
) -> SimResult<BatchSummary> {
    // Each finished job becomes its record and sidecar line at once (its
    // `SchemeResult` drops here); the reorder buffer then releases them
    // strictly in job order. A failed or cancelled job stalls the release
    // point permanently — the JSONL stays a valid in-order prefix.
    let mut records: Vec<JobRecord> = Vec::with_capacity(batch.n_jobs());
    let mut pending: BTreeMap<usize, (JobRecord, JobTelemetryRecord)> = BTreeMap::new();
    run_jobs(batch, tel, ctl, |js, result, released| {
        let telemetry = JobTelemetryRecord {
            job: js.j,
            scenario: js.name.to_string(),
            scheme: js.scheme.clone(),
            seed_index: js.seed_index,
            wall_ms: js.started.get().map(|t| t.elapsed().as_secs_f64() * 1_000.0).unwrap_or(0.0),
            fold_ms: result.fold_ms,
            shards: js.world.n_shards(),
            counters: result.counters,
        };
        pending.insert(js.j, (make_record(js, &result), telemetry));
        while let Some((rec, telemetry)) = pending.remove(&records.len()) {
            let write_start = Instant::now();
            let line = serde_json::to_string(&rec)
                .map_err(|e| SimError::InvalidInput(format!("serialize record: {e}")))?;
            writeln!(out, "{line}").map_err(|e| SimError::Io(format!("write JSONL: {e}")))?;
            released.write.add(write_start.elapsed().as_secs_f64() * 1_000.0);
            released.fold.add(telemetry.fold_ms);
            released.counters.merge(&telemetry.counters);
            tel.emit(&TelemetryRecord::Job(telemetry));
            records.push(rec);
        }
        Ok(())
    })?;
    let rows = aggregate(batch, &records);
    Ok(BatchSummary { records, rows })
}

/// Runs the batch with quiet telemetry and returns every job's folded
/// [`SchemeResult`] in job order — each the one [`run_batch`] turns into
/// that job's JSONL record. The figure harness's entry point.
pub fn run_batch_results(batch: &BatchRun) -> SimResult<Vec<SchemeResult>> {
    let mut results: Vec<Option<SchemeResult>> = Vec::new();
    results.resize_with(batch.n_jobs(), || None);
    run_jobs(batch, &Telemetry::quiet(), RunControl::default(), |js, result, _| {
        results[js.j] = Some(result);
        Ok(())
    })?;
    Ok(results.into_iter().map(|r| r.expect("every job folded")).collect())
}

/// The spans and work counters of the jobs a caller has released, frozen
/// into the sidecar's phase table and summary at teardown. One `fold` span
/// per released job, so its count is the durable prefix an interrupted
/// run reports.
struct Released {
    fold: PhaseAccum,
    write: PhaseAccum,
    counters: RunCounters,
}

/// The one scheduler and fold of every batch: runs the `(repetition ×
/// shard)` tasks shard-major on one flat pool under `ctl` and hands each
/// job's [`SchemeResult`] to `on_job` the moment its last task folds
/// (completion order). An `Err` from `on_job` stops the pool like a cancel
/// and is returned after the teardown (checkpoint close, phase table, run
/// summary), which runs on every path.
fn run_jobs(
    batch: &BatchRun,
    tel: &Telemetry,
    ctl: RunControl,
    mut on_job: impl FnMut(&JobState<'_>, SchemeResult, &mut Released) -> SimResult<()>,
) -> SimResult<()> {
    batch.validate()?;
    let wall_start = Instant::now();
    let n_jobs = batch.n_jobs();

    tel.emit(&TelemetryRecord::Manifest(ManifestRecord {
        version: TELEMETRY_SCHEMA_VERSION,
        scenarios: batch
            .scenarios
            .iter()
            .map(|(name, cfg)| ManifestScenario {
                name: name.clone(),
                shards: cfg.shards.max(1),
                repetitions: cfg.repetitions,
                n_clients: cfg.trace.n_clients,
            })
            .collect(),
        schemes: batch.schemes.iter().map(|&s| scheme_key(s)).collect(),
        seeds: batch.seeds,
        threads: batch.thread_budget(),
        jobs: n_jobs,
    }));

    // Phase 1: one sharded world per (scenario, seed), shared by that
    // pair's scheme jobs — exactly like the paper shares one trace across
    // schemes, except nothing is built yet: each shard's first consumer
    // streams it into existence inside the worker and its last one drops
    // it, keeping peak RSS at O(threads × shard).
    let worlds = build_worlds(batch);

    // Crash-safety state. The fault plan resolves against the batch's
    // global task ordinals; write-side faults (IO errors, torn tail) are
    // installed into the checkpoint writer, panic faults ride into the
    // task pool's retry loop.
    let bases = task_bases(batch);
    let faults = ctl.faults.as_ref().map(|p| p.resolve(bases[n_jobs]));
    if let (Some(writer), Some(f)) = (&ctl.checkpoint, &faults) {
        writer.set_faults(WriteFaults {
            io_error_tasks: f.io_error_tasks.clone(),
            torn_tail_task: f.torn_tail_task,
        });
    }
    let pool_state = TaskPool {
        resume: ctl.resume.map(Mutex::new),
        writer: ctl.checkpoint,
        faults,
        cancel: ctl.cancel,
        stopped: AtomicBool::new(false),
        max_attempts: ctl.max_attempts.max(1),
        tel,
        // Task-level phase spans accumulate from worker threads as tasks
        // finish (world-build = per-task stream setup, event-loop = the
        // run proper); fold and write spans accumulate on the collector.
        phases: Mutex::new(TaskPhases {
            world_build: PhaseAccum::new("world-build"),
            event_loop: PhaseAccum::new("event-loop"),
        }),
    };
    let mut released = Released {
        fold: PhaseAccum::new("shard-fold"),
        write: PhaseAccum::new("jsonl-write"),
        counters: RunCounters::default(),
    };

    // Phase 2: the task matrix.
    let mut first_failure: Option<String> = None;
    let mut cancelled = false;

    // Per-job state shared by the workers (heartbeat atomics, start
    // stamp); the deterministic fold state — one folder per job —
    // lives on the collector below.
    let jobs: Vec<JobState<'_>> = (0..n_jobs)
        .map(|j| {
            let (si, ci, ki) = job_coords(batch, j);
            let name = &batch.scenarios[si].0;
            let spec = batch.schemes[ci];
            let world = &worlds[si * batch.seeds + ki];
            JobState {
                j,
                name,
                spec,
                scheme: scheme_key(spec),
                seed_index: ki,
                world,
                n_tasks: world.cfg().repetitions * world.n_shards(),
                base: bases[j],
                finished: AtomicUsize::new(0),
                merged: AtomicUsize::new(0),
                started: OnceLock::new(),
            }
        })
        .collect();
    // The execution plan: for every (scenario, seed, repetition,
    // shard), all scheme tasks back to back — consecutive
    // consumers of one prototype. Within each job the task index
    // increases monotonically along the plan (repetitions outer,
    // shards inner), which is exactly the per-group fold order
    // par_fold_grouped requires.
    let mut plan: Vec<(usize, usize)> = Vec::with_capacity(bases[n_jobs]);
    for (si, (_, cfg)) in batch.scenarios.iter().enumerate() {
        let n_shards = cfg.shards.max(1);
        for ki in 0..batch.seeds {
            for r in 0..cfg.repetitions {
                for sh in 0..n_shards {
                    for ci in 0..batch.schemes.len() {
                        let j = (si * batch.schemes.len() + ci) * batch.seeds + ki;
                        plan.push((j, r * n_shards + sh));
                    }
                }
            }
        }
    }
    debug_assert_eq!(plan.len(), bases[n_jobs]);

    let mut folders: Vec<Option<SchemeFolder>> =
        jobs.iter().map(|js| Some(SchemeFolder::new(js.world.cfg(), js.spec, js.world))).collect();
    // The fold closure has no return channel, so the first `on_job` error
    // is parked here: the pool stops claiming tasks, no later job is
    // handed over, and the error surfaces after the teardown below.
    let mut job_err: Option<SimError> = None;

    // One flat pool over the whole matrix: tasks are the unit of
    // scheduling (the driver pins per-task inner parallelism, so
    // the budget applies directly).
    let pool = batch.thread_budget().min(plan.len().max(1));
    let jobs = &jobs;
    let plan_ref = &plan;
    let pool_ref = &pool_state;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        par_fold_grouped(
            plan_ref,
            pool,
            |pos| {
                let (j, i) = plan_ref[pos];
                pool_ref.run(&jobs[j], i)
            },
            |j, i, run| {
                let js = &jobs[j];
                js.merged.store(i + 1, Ordering::Relaxed);
                let folder = folders[j].as_mut().expect("one fold per task");
                folder.absorb(i, run);
                if i + 1 != folder.n_tasks() || job_err.is_some() {
                    return;
                }
                let result = folders[j].take().expect("folder finalized once").finish();
                if let Err(e) = on_job(js, result, &mut released) {
                    pool_ref.stopped.store(true, Ordering::Relaxed);
                    job_err = Some(e);
                }
            },
        )
    }));
    if let Err(payload) = outcome {
        match payload.downcast::<TaskAbort>().map(|abort| *abort) {
            Ok(TaskAbort::Cancelled) => cancelled = true,
            Ok(TaskAbort::Failed(msg)) => first_failure = Some(msg),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    // Close the checkpoint before reporting: whatever happened above, the
    // file on disk is a valid manifest + record prefix for `--resume`.
    let TaskPool { writer, cancel, phases, .. } = pool_state;
    let ckpt_stats = writer.map(CheckpointWriter::finish);

    // Freeze the phase table and the run summary — also on the failure
    // and interrupt paths, so a crashed run still leaves a usable sidecar.
    let TaskPhases { world_build, event_loop } = phases.into_inner().expect("phase lock");
    let Released { fold: fold_phase, write: write_phase, mut counters } = released;
    let mut config_phase = PhaseAccum::new("config");
    config_phase.add(tel.config_ms);
    for phase in [&config_phase, &world_build, &event_loop, &fold_phase] {
        tel.emit(&TelemetryRecord::Phase(phase.record()));
    }
    if let Some(stats) = &ckpt_stats {
        // The checkpoint-write span appears only for checkpointed runs, so
        // pre-existing sidecar phase tables stay unchanged.
        tel.emit(&TelemetryRecord::Phase(stats.phase.clone()));
        counters.faults_injected += stats.faults_injected;
    }
    tel.emit(&TelemetryRecord::Phase(write_phase.record()));
    tel.emit(&TelemetryRecord::Summary(SummaryRecord {
        // Attribute the caller's config span to the run's wall-clock too,
        // so `insomnia profile` shares sum against the right total.
        wall_ms: tel.config_ms + wall_start.elapsed().as_secs_f64() * 1_000.0,
        workers: pool,
        jobs: n_jobs,
        tasks: event_loop.tasks(),
        events: counters.delivered(),
        flows: counters.flows_total,
        peak_rss_mib: crate::rss::peak_rss_mib(),
        counters,
    }));

    if let Some(e) = job_err {
        return Err(e);
    }
    if let Some(msg) = first_failure {
        return Err(SimError::TaskFailed(msg));
    }
    if cancelled || cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
        return Err(SimError::Interrupted(format!(
            "batch stopped after {} of {n_jobs} jobs were written",
            fold_phase.tasks()
        )));
    }
    Ok(())
}

/// Phase-1 world construction: one shared handle per (scenario, seed)
/// pair. Each shard has exactly `schemes × repetitions` consumers, so the
/// stream setup pass runs once per shard for the whole batch and the
/// prototype drops the moment its last consumer claims it.
fn build_worlds(batch: &BatchRun) -> Vec<ShardedWorld> {
    let n_worlds = batch.scenarios.len() * batch.seeds;
    (0..n_worlds)
        .map(|w| {
            let (si, ki) = (w / batch.seeds, w % batch.seeds);
            let (_, cfg) = &batch.scenarios[si];
            let consumers = batch.schemes.len() * cfg.repetitions;
            ShardedWorld::shared(cfg, job_seed(cfg.seed, ki), consumers)
        })
        .collect()
}

/// The JSONL record of a finished job.
fn make_record(js: &JobState<'_>, result: &SchemeResult) -> JobRecord {
    let (cfg, world) = (js.world.cfg(), js.world);
    let n_shards = world.n_shards();
    let base_user = cfg.power.no_sleep_user_w(world.n_gateways());
    let base_isp =
        cfg.power.no_sleep_isp_w_sharded(world.n_gateways(), cfg.dslam.n_cards, n_shards);
    let s = summarize(result, base_user, base_isp);

    // Pool completion accounting across repetitions for the tail
    // quantiles. Exact mode reproduces the historical sort-and-index
    // bytes; past the cutoff the merged sketch answers instead. One grid
    // query serves the frozen p50/p95 fields and the sharded quantile
    // record (a single sort of the pooled samples in exact mode).
    let pooled = result.pooled_completion();
    let grid = completion_quantiles(&pooled);

    // Flow counts come from the run's per-shard summaries: a lazy world
    // has no materialized traces to count, and the values are identical
    // (every repetition drives the same per-shard trace).
    let n_flows = result.shard_summaries.iter().map(|sh| sh.n_flows).sum();

    JobRecord {
        scenario: js.name.to_string(),
        scheme: js.scheme.clone(),
        seed_index: js.seed_index,
        seed: world.seed(),
        n_gateways: world.n_gateways(),
        n_clients: world.n_clients(),
        n_flows,
        mean_savings_pct: s.mean_savings_pct,
        peak_savings_pct: s.peak_savings_pct,
        mean_gateways: s.mean_gateways,
        peak_gateways: s.peak_gateways,
        peak_cards: s.peak_cards,
        isp_share_pct: s.isp_share_pct,
        energy_kwh: insomnia_access::joules_to_kwh(result.energy.total_j()),
        mean_wake_count: result.mean_wake_count,
        completion_p50_s: grid.as_ref().map(|g| g.p50),
        completion_p95_s: grid.as_ref().map(|g| g.p95),
        completed_frac: pooled.completed_frac(),
        shards: Some(n_shards),
        shard_summaries: if n_shards > 1 {
            Some(
                result
                    .shard_summaries
                    .iter()
                    .map(|sh| ShardRecord {
                        n_clients: sh.n_clients,
                        n_gateways: sh.n_gateways,
                        n_flows: sh.n_flows,
                        energy_kwh: insomnia_access::joules_to_kwh(sh.energy_j),
                        mean_gateways: sh.mean_gateways,
                        mean_wake_count: sh.mean_wake_count,
                    })
                    .collect(),
            )
        } else {
            None
        },
        completion_quantiles: grid,
        // Scenarios that stream online time (`online_cutoff = 0`) report
        // the merged histogram's grid; everyone else keeps the frozen
        // sharded schema (field absent, not null).
        online_time_quantiles: (n_shards > 1 && cfg.online_cutoff == 0)
            .then(|| online_time_quantiles(&result.pooled_online()))
            .flatten(),
    }
}

fn aggregate(batch: &BatchRun, records: &[JobRecord]) -> Vec<SummaryRow> {
    let mut rows = Vec::new();
    for (name, _) in &batch.scenarios {
        for &spec in &batch.schemes {
            let key = scheme_key(spec);
            let cell: Vec<&JobRecord> =
                records.iter().filter(|r| &r.scenario == name && r.scheme == key).collect();
            if cell.is_empty() {
                continue;
            }
            let n = cell.len() as f64;
            let mean = |f: fn(&JobRecord) -> f64| cell.iter().map(|r| f(r)).sum::<f64>() / n;
            let mean_savings = mean(|r| r.mean_savings_pct);
            let var = if cell.len() > 1 {
                cell.iter().map(|r| (r.mean_savings_pct - mean_savings).powi(2)).sum::<f64>()
                    / (n - 1.0)
            } else {
                0.0
            };
            rows.push(SummaryRow {
                scenario: name.clone(),
                scheme: key,
                seeds: cell.len(),
                mean_savings_pct: mean_savings,
                std_savings_pct: var.sqrt(),
                mean_gateways: mean(|r| r.mean_gateways),
                energy_kwh: mean(|r| r.energy_kwh),
                mean_wake_count: mean(|r| r.mean_wake_count),
            });
        }
    }
    rows
}

impl BatchSummary {
    /// Renders the aggregate rows as an aligned text table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:<9} {:>5} {:>14} {:>9} {:>11} {:>9}\n",
            "scenario", "scheme", "seeds", "savings [%]", "mean gw", "kWh/day", "wakes/gw"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<22} {:<9} {:>5} {:>8.1} ±{:<4.1} {:>9.2} {:>11.2} {:>9.1}\n",
                r.scenario,
                r.scheme,
                r.seeds,
                r.mean_savings_pct,
                r.std_savings_pct,
                r.mean_gateways,
                r.energy_kwh,
                r.mean_wake_count,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insomnia_telemetry::SummaryRecord;

    fn tiny_batch(threads: usize) -> BatchRun {
        let mut cfg = ScenarioConfig::smoke();
        cfg.trace.horizon = insomnia_simcore::SimTime::from_hours(2);
        cfg.repetitions = 1;
        BatchRun {
            scenarios: vec![("smoke".into(), cfg)],
            schemes: vec![SchemeSpec::no_sleep(), SchemeSpec::soi()],
            seeds: 2,
            threads,
        }
    }

    #[test]
    fn job_seeds_are_stable_and_distinct() {
        assert_eq!(job_seed(2011, 0), job_seed(2011, 0));
        assert_ne!(job_seed(2011, 0), job_seed(2011, 1));
        assert_ne!(job_seed(2011, 0), job_seed(2012, 0));
    }

    #[test]
    fn batch_produces_matrix_order_records() {
        let batch = tiny_batch(2);
        let mut buf = Vec::new();
        let summary = run_batch(&batch, &mut buf).unwrap();
        assert_eq!(summary.records.len(), 4);
        // Matrix order: scheme-major within scenario, then seeds.
        assert_eq!(summary.records[0].scheme, "no-sleep");
        assert_eq!(summary.records[0].seed_index, 0);
        assert_eq!(summary.records[1].seed_index, 1);
        assert_eq!(summary.records[2].scheme, "soi");
        let lines = buf.split(|b| *b == b'\n').filter(|l| !l.is_empty()).count();
        assert_eq!(lines, 4);
        assert_eq!(summary.rows.len(), 2);
        assert_eq!(summary.rows[0].seeds, 2);
        // SoI saves energy vs no-sleep in every aggregate.
        assert!(summary.rows[1].energy_kwh < summary.rows[0].energy_kwh);
        assert!(!summary.table().is_empty());
    }

    #[test]
    fn unsharded_jsonl_schema_is_frozen() {
        // The exact key list of the pre-shard schema: sharded fields must
        // never leak into `shards = 1` output (byte-compat guarantee).
        let batch = tiny_batch(1);
        let mut buf = Vec::new();
        run_batch(&batch, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let first: Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        let keys: Vec<&str> = first.as_map().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            vec![
                "scenario",
                "scheme",
                "seed_index",
                "seed",
                "n_gateways",
                "n_clients",
                "n_flows",
                "mean_savings_pct",
                "peak_savings_pct",
                "mean_gateways",
                "peak_gateways",
                "peak_cards",
                "isp_share_pct",
                "energy_kwh",
                "mean_wake_count",
                "completion_p50_s",
                "completion_p95_s",
                "completed_frac",
            ]
        );
    }

    #[test]
    fn sharded_records_carry_per_shard_summaries() {
        let mut cfg = ScenarioConfig::default();
        cfg.trace.n_clients = 136;
        cfg.trace.n_aps = 20;
        cfg.trace.horizon = insomnia_simcore::SimTime::from_hours(2);
        cfg.repetitions = 1;
        cfg.shards = 4;
        let batch = BatchRun {
            scenarios: vec![("mini-metro".into(), cfg)],
            schemes: vec![SchemeSpec::soi()],
            seeds: 1,
            threads: 2,
        };
        let mut buf = Vec::new();
        let summary = run_batch(&batch, &mut buf).unwrap();
        let rec = &summary.records[0];
        assert_eq!(rec.shards, Some(4));
        assert_eq!(rec.n_clients, 136);
        assert_eq!(rec.n_gateways, 20);
        let shards = rec.shard_summaries.as_ref().unwrap();
        assert_eq!(shards.len(), 4);
        assert_eq!(shards.iter().map(|s| s.n_clients).sum::<usize>(), 136);
        assert_eq!(shards.iter().map(|s| s.n_flows).sum::<usize>(), rec.n_flows);
        // Per-shard energies sum (approximately — each is a rounded mean)
        // to the job total.
        let sum_kwh: f64 = shards.iter().map(|s| s.energy_kwh).sum();
        assert!((sum_kwh - rec.energy_kwh).abs() / rec.energy_kwh < 1e-6);
        // Sharded records carry the streaming quantile grid; this small
        // world sits under the cutoff, so it is exact and consistent with
        // the frozen p50/p95 fields.
        let q = rec.completion_quantiles.as_ref().unwrap();
        assert!(q.exact);
        assert_eq!(Some(q.p50), rec.completion_p50_s);
        assert_eq!(Some(q.p95), rec.completion_p95_s);
        assert!(q.p25 <= q.p50 && q.p50 <= q.p75 && q.p75 <= q.p90 && q.p90 <= q.p99);
        assert_eq!(q.completed as f64 / rec.n_flows as f64, rec.completed_frac.unwrap());
        // And the JSONL line round-trips through the parser.
        let text = String::from_utf8(buf).unwrap();
        let back: JobRecord = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(back.shards, Some(4));
        assert_eq!(back.shard_summaries.unwrap().len(), 4);
        assert!(back.completion_quantiles.unwrap().exact);
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("insomnia-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// A `Write` handle over a shared buffer, so the sidecar's output can
    /// be read back after the run.
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

    /// Runs `batch` under `ctl` with a JSONL telemetry sidecar: the outcome,
    /// the result JSONL and the sidecar's closing summary record (emitted on
    /// the failure and interrupt paths too).
    fn run_controlled(
        batch: &BatchRun,
        ctl: RunControl,
    ) -> (SimResult<BatchSummary>, Vec<u8>, SummaryRecord) {
        let sidecar = SharedBuf::default();
        let tel = Telemetry::quiet().with_jsonl(Box::new(sidecar.clone()));
        let mut buf = Vec::new();
        let res = run_batch_controlled(batch, &mut buf, &tel, ctl);
        let text = String::from_utf8(sidecar.0.lock().unwrap().clone()).unwrap();
        let last = text.lines().last().expect("sidecar written");
        let TelemetryRecord::Summary(summary) = serde_json::from_str(last).unwrap() else {
            panic!("the sidecar must end with the summary: {last}");
        };
        (res, buf, summary)
    }

    /// The counters a run's recovery history cannot touch: everything but
    /// the retry/fault/resume tallies and the prototype-cache attribution.
    fn deterministic(c: &RunCounters) -> RunCounters {
        RunCounters {
            tasks_retried: 0,
            faults_injected: 0,
            tasks_resumed: 0,
            proto_cache_builds: 0,
            proto_cache_hits: 0,
            ..*c
        }
    }

    #[test]
    fn checkpointed_run_resumes_byte_identically() {
        let batch = tiny_batch(2);
        let path = tmp_path("resume.ckpt");
        let manifest = crate::checkpoint::manifest_for(&batch);

        // Uninterrupted reference run (no controls at all).
        let (base, reference, ref_summary) = run_controlled(&batch, RunControl::default());
        base.unwrap();
        assert_eq!(ref_summary.counters.tasks_resumed, 0);

        // Checkpointed run, then pretend it died: reload the sidecar and
        // keep only some tasks (as if the rest never flushed).
        let writer = CheckpointWriter::create(&path, &manifest).unwrap();
        let ctl = RunControl { checkpoint: Some(writer), ..RunControl::default() };
        let (res, checkpointed, _) = run_controlled(&batch, ctl);
        res.unwrap();
        assert_eq!(checkpointed, reference, "checkpointing must not change a byte");

        let mut loaded = crate::checkpoint::load_checkpoint(&path).unwrap();
        loaded.manifest.verify_against(&manifest).unwrap();
        assert_eq!(loaded.tasks.len(), 4, "one record per (rep × shard) task");
        loaded.tasks.remove(&(3, 0));

        // Resume: three tasks replay, one re-simulates, output identical.
        let writer = CheckpointWriter::append(&path).unwrap();
        let ctl = RunControl {
            checkpoint: Some(writer),
            resume: Some(loaded.tasks),
            ..RunControl::default()
        };
        let (res, resumed, summary) = run_controlled(&batch, ctl);
        res.unwrap();
        assert_eq!(resumed, reference, "resume must be byte-identical");
        assert_eq!(summary.counters.tasks_resumed, 3, "replayed tasks are counted");
        assert_eq!(deterministic(&summary.counters), deterministic(&ref_summary.counters));

        // The re-simulated task appended, so a second load sees all four
        // again (the replayed three were not rewritten).
        let reloaded = crate::checkpoint::load_checkpoint(&path).unwrap();
        assert_eq!(reloaded.tasks.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resumed_runs_attribute_every_task_exactly_once() {
        // Both schemes of a seed share one world, so the prototype cache
        // is active: per world one task builds and the other hits.
        let batch = tiny_batch(2);
        let path = tmp_path("attribution.ckpt");
        let manifest = crate::checkpoint::manifest_for(&batch);
        let writer = CheckpointWriter::create(&path, &manifest).unwrap();
        let ctl = RunControl { checkpoint: Some(writer), ..RunControl::default() };
        let (res, reference, ref_summary) = run_controlled(&batch, ctl);
        res.unwrap();
        let c = ref_summary.counters;
        assert_eq!((c.proto_cache_builds, c.proto_cache_hits), (2, 2));

        // Lose a record that was a cache hit: on resume its world's builder
        // replays, so the live task builds the prototype itself. The
        // replayed records must not carry their original process's
        // attributions into this one.
        let mut loaded = crate::checkpoint::load_checkpoint(&path).unwrap();
        let hit = *loaded
            .tasks
            .iter()
            .find(|(_, r)| r.counters.proto_cache_hits == 1)
            .expect("a cache-hit record")
            .0;
        loaded.tasks.remove(&hit);
        let ctl = RunControl { resume: Some(loaded.tasks), ..RunControl::default() };
        let (res, resumed, summary) = run_controlled(&batch, ctl);
        res.unwrap();
        assert_eq!(resumed, reference, "resume must be byte-identical");
        let c = summary.counters;
        assert_eq!(c.tasks_resumed, 3);
        assert_eq!(
            c.proto_cache_builds + c.proto_cache_hits + c.tasks_resumed,
            summary.tasks,
            "every task is one build, one hit or one resume: {c:?}"
        );
        assert_eq!((c.tasks_retried, c.faults_injected), (0, 0));
        assert_eq!(deterministic(&c), deterministic(&ref_summary.counters));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_faults_with_retry_change_no_bytes() {
        let batch = tiny_batch(2);
        let (base, reference, ref_summary) = run_controlled(&batch, RunControl::default());
        base.unwrap();

        // Panic two of the four tasks once each; one retry recovers.
        let plan = FaultPlan { panic_tasks: vec![1, 2], ..FaultPlan::default() };
        let ctl = RunControl { faults: Some(plan), max_attempts: 2, ..RunControl::default() };
        let (res, faulted, summary) = run_controlled(&batch, ctl);
        res.unwrap();
        assert_eq!(faulted, reference, "retried tasks must replay the identical stream");
        let (c, r) = (summary.counters, ref_summary.counters);
        assert_eq!((c.tasks_retried, c.faults_injected), (2, 2));
        assert_eq!((r.tasks_retried, r.faults_injected), (0, 0));
        assert_eq!(deterministic(&c), deterministic(&r));
    }

    #[test]
    fn exhausted_retries_fail_the_job_but_keep_the_prefix() {
        let mut batch = tiny_batch(1);
        batch.threads = 1;
        // Task ordinal 1 (= job 1) panics on every attempt.
        let plan =
            FaultPlan { panic_tasks: vec![1], panic_attempts: u64::MAX, ..FaultPlan::default() };
        let path = tmp_path("failed.ckpt");
        let writer =
            CheckpointWriter::create(&path, &crate::checkpoint::manifest_for(&batch)).unwrap();
        let ctl = RunControl {
            checkpoint: Some(writer),
            faults: Some(plan),
            max_attempts: 2,
            ..RunControl::default()
        };
        let (res, out, summary) = run_controlled(&batch, ctl);
        let err = res.unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("task failed"), "{msg}");
        assert!(msg.contains("job 1 (smoke / no-sleep seed 1)"), "job must be named: {msg}");
        assert!(msg.contains("repetition 0 shard 0"), "span must be named: {msg}");
        assert!(msg.contains("after 2 attempt(s)"), "{msg}");
        assert!(msg.contains("injected worker fault (task 0, attempt 1)"), "{msg}");
        // Jobs before the failure were written; nothing after.
        let lines: Vec<&str> =
            std::str::from_utf8(&out).unwrap().lines().filter(|l| !l.is_empty()).collect();
        assert_eq!(lines.len(), 1, "only job 0 precedes the failed job");
        assert!(lines[0].contains("no-sleep"));
        // The summary still flushes: the two tasks that finished before the
        // failure, and no recovery counts (the failed task never folds).
        assert_eq!(summary.tasks, 2);
        let c = summary.counters;
        assert_eq!((c.tasks_retried, c.faults_injected, c.tasks_resumed), (0, 0, 0));
        // The checkpoint survives the failure and still loads. Shard-major
        // order visits seed 0 of *both* schemes before seed 1 of either,
        // so job 2's task checkpointed before job 1 failed — the JSONL
        // above is still the in-order one-line prefix.
        let loaded = crate::checkpoint::load_checkpoint(&path).unwrap();
        assert_eq!(loaded.tasks.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cancel_flag_interrupts_the_run() {
        let batch = tiny_batch(2);
        let cancel = Arc::new(AtomicBool::new(true));
        let ctl = RunControl { cancel: Some(cancel), ..RunControl::default() };
        let (res, out, summary) = run_controlled(&batch, ctl);
        let err = res.unwrap_err();
        assert!(err.to_string().contains("interrupted"), "{err}");
        assert_eq!(
            err.to_string(),
            "interrupted: batch stopped after 0 of 4 jobs were written",
            "{err}"
        );
        // Cancelled before the first task: nothing simulated or written.
        assert!(out.is_empty());
        assert_eq!(summary.tasks, 0);
        assert_eq!(summary.counters, RunCounters::default());
    }

    /// A JSONL destination whose every write fails, like a closed pipe.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_jsonl_write_stops_the_run_and_still_tears_down() {
        let mut batch = tiny_batch(1);
        batch.schemes.truncate(1);
        batch.seeds = 3;
        let sidecar = SharedBuf::default();
        let tel = Telemetry::quiet().with_jsonl(Box::new(sidecar.clone()));
        let res = run_batch_controlled(&batch, &mut ClosedPipe, &tel, RunControl::default());
        let err = res.unwrap_err().to_string();
        assert!(!err.starts_with("invalid input") && err.contains("write JSONL"), "{err}");
        let text = String::from_utf8(sidecar.0.lock().unwrap().clone()).unwrap();
        let records: Vec<TelemetryRecord> =
            text.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
        // The first job's write failed, so the pool claimed no more tasks.
        let tasks = records.iter().filter(|r| matches!(r, TelemetryRecord::Task(_))).count();
        assert!(tasks < task_bases(&batch)[batch.n_jobs()], "{tasks} tasks ran");
        assert!(records.iter().any(|r| matches!(r, TelemetryRecord::Phase(_))));
        assert!(matches!(records.last(), Some(TelemetryRecord::Summary(_))), "{text}");
    }

    #[test]
    fn resume_refuses_a_mismatched_manifest() {
        let batch = tiny_batch(1);
        let mut other = tiny_batch(1);
        other.seeds = 3;
        let a = crate::checkpoint::manifest_for(&batch);
        let b = crate::checkpoint::manifest_for(&other);
        let err = b.verify_against(&a).unwrap_err().to_string();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn rejects_duplicate_scenario_names() {
        let mut b = tiny_batch(1);
        let clone = b.scenarios[0].clone();
        b.scenarios.push(clone);
        let err = run_batch(&b, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("duplicate scenario name"), "{err}");
    }

    #[test]
    fn rejects_empty_batches() {
        let mut b = tiny_batch(1);
        b.schemes.clear();
        assert!(run_batch(&b, &mut Vec::new()).is_err());
        let mut b = tiny_batch(1);
        b.seeds = 0;
        assert!(run_batch(&b, &mut Vec::new()).is_err());
    }
}
