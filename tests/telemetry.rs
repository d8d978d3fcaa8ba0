//! Sidecar schema smoke tests: `insomnia run --telemetry` must emit a
//! parseable, ordered record stream (manifest → tasks/jobs → phases →
//! summary) without perturbing the deterministic result JSONL, and
//! `insomnia profile` must be able to render it.

use insomnia::core::ScenarioConfig;
use insomnia::scenarios::{parse_scheme_list, run_batch, run_batch_telemetry, BatchRun, Registry};
use insomnia::simcore::SimTime;
use insomnia::telemetry::{
    ProfileReport, RunCounters, Telemetry, TelemetryRecord, TELEMETRY_SCHEMA_VERSION,
};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A `Write` handle over a shared buffer so the sidecar's
/// output can be read back after the run.
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

/// Two genuine dense-metro neighborhoods, reduced so the debug-mode suite
/// finishes in seconds (mirrors `tests/determinism.rs`).
fn smoke_config() -> ScenarioConfig {
    let mut cfg = Registry::builtin().resolve("dense-metro").unwrap();
    cfg.trace.n_clients = 1_600 * 2;
    cfg.trace.n_aps = 200 * 2;
    cfg.shards = 2;
    cfg.trace.horizon = SimTime::from_hours(1);
    cfg.completion_cutoff = 0;
    cfg.online_cutoff = 0;
    cfg.validate().unwrap();
    cfg
}

fn smoke_batch() -> BatchRun {
    BatchRun {
        scenarios: vec![("telemetry-smoke".into(), smoke_config())],
        schemes: parse_scheme_list("soi").unwrap(),
        seeds: 1,
        threads: 2,
    }
}

#[test]
fn sidecar_schema_smoke() {
    let batch = smoke_batch();
    let tasks = (batch.scenarios[0].1.repetitions * batch.scenarios[0].1.shards) as u64;

    // Baseline: the result JSONL of a plain (telemetry-free) run.
    let mut plain = Vec::new();
    run_batch(&batch, &mut plain).unwrap();

    // Telemetry run: quiet, plus a JSONL sidecar.
    let sidecar = SharedBuf::default();
    let tel = Telemetry::quiet().with_jsonl(Box::new(sidecar.clone()));
    let mut with_tel = Vec::new();
    run_batch_telemetry(&batch, &mut with_tel, &tel).unwrap();
    assert_eq!(plain, with_tel, "the sidecar must never perturb the result JSONL");

    let text = String::from_utf8(sidecar.0.lock().unwrap().clone()).unwrap();
    let recs: Vec<TelemetryRecord> = text
        .lines()
        .map(|line| serde_json::from_str(line).unwrap_or_else(|e| panic!("{e}: {line}")))
        .collect();

    // Stream shape: manifest first, summary last, one task record per
    // (repetition × shard), one job record, the five phase spans in order.
    match &recs[0] {
        TelemetryRecord::Manifest(m) => {
            assert_eq!(m.version, TELEMETRY_SCHEMA_VERSION);
            assert_eq!(m.jobs, 1);
            assert_eq!(m.scenarios.len(), 1);
            assert_eq!(m.scenarios[0].shards, 2);
            assert_eq!(m.scenarios[0].n_clients, 3_200);
        }
        other => panic!("first record must be the manifest, got `{}`", other.kind()),
    }
    let count = |kind: &str| recs.iter().filter(|r| r.kind() == kind).count() as u64;
    assert_eq!(count("task"), tasks);
    assert_eq!(count("job"), 1);
    let phases: Vec<&str> = recs
        .iter()
        .filter_map(|r| match r {
            TelemetryRecord::Phase(p) => Some(p.phase.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(phases, ["config", "world-build", "event-loop", "shard-fold", "jsonl-write"]);

    // Counter consistency: the job record is the fold of its task records,
    // and (with a single job) the summary repeats the job's counters.
    let mut merged = RunCounters::default();
    for r in &recs {
        if let TelemetryRecord::Task(t) = r {
            assert_eq!(t.n_shards, 2);
            merged.merge(&t.counters);
            // The topology build is part of the world build; cache hits
            // build nothing.
            if t.setup_ms > 0.0 {
                assert!(t.topology_ms > 0.0 && t.topology_ms <= t.setup_ms, "{t:?}");
            } else {
                assert_eq!(t.topology_ms, 0.0);
            }
        }
    }
    merged.fold_absorptions = tasks;
    let job = recs
        .iter()
        .find_map(|r| match r {
            TelemetryRecord::Job(j) => Some(j),
            _ => None,
        })
        .expect("one job record");
    assert_eq!(merged, job.counters, "job counters must be the fold of the task counters");
    let TelemetryRecord::Summary(summary) = recs.last().expect("non-empty sidecar") else {
        panic!("last record must be the summary, got `{}`", recs.last().unwrap().kind());
    };
    assert_eq!(summary.counters, job.counters);
    assert_eq!(summary.events, job.counters.delivered());
    assert_eq!(summary.tasks, tasks);
    assert_eq!(summary.jobs, 1);
    assert!(summary.wall_ms > 0.0, "summary must carry the run's wall-clock");

    // The profile backend parses the same text and attributes the bulk of
    // the run to named phase spans.
    let report = ProfileReport::from_jsonl(&text).unwrap();
    let rendered = report.render();
    assert!(rendered.contains("== phases"), "{rendered}");
    assert!(rendered.contains("event-loop"), "{rendered}");
    assert!(rendered.contains("% of world-build"), "{rendered}");
    assert!(rendered.contains("== deterministic counters"), "{rendered}");
    // The per-scheme table folds every task of the one soi job.
    assert!(rendered.contains("== per scheme"), "{rendered}");
    assert_eq!(report.schemes.len(), 1, "{rendered}");
    assert_eq!(report.schemes[0].scheme, "soi");
    assert_eq!(report.schemes[0].tasks, tasks);
    assert_eq!(report.schemes[0].events, summary.events);
    assert!(rendered.lines().any(|l| l.starts_with("soi ")), "{rendered}");
    let frac = report.attributed_fraction().expect("summary present");
    assert!(frac > 0.5, "named phases must cover the run, got {frac}");
    let totals = report.counter_totals().unwrap();
    assert_eq!(totals.events, summary.events);
    assert_eq!(totals.counters, summary.counters);
}

#[test]
fn task_records_report_every_task_once() {
    // Two schemes over one two-shard world: the tasks of both jobs share
    // one interleaved pool, and each job's heartbeat counts its own tasks.
    let mut batch = smoke_batch();
    batch.schemes = parse_scheme_list("no-sleep,soi").unwrap();
    let cfg = &batch.scenarios[0].1;
    let (reps, n_shards) = (cfg.repetitions, cfg.shards);
    let n_tasks = reps * n_shards;

    let mut plain = Vec::new();
    run_batch(&batch, &mut plain).unwrap();
    let sidecar = SharedBuf::default();
    let tel = Telemetry::quiet().with_jsonl(Box::new(sidecar.clone()));
    let mut observed = Vec::new();
    run_batch_telemetry(&batch, &mut observed, &tel).unwrap();
    assert_eq!(plain, observed, "observing tasks must change nothing");

    let text = String::from_utf8(sidecar.0.lock().unwrap().clone()).unwrap();
    for job in 0..batch.n_jobs() {
        let tasks: Vec<_> = text
            .lines()
            .filter_map(|line| match serde_json::from_str(line).unwrap() {
                TelemetryRecord::Task(t) if t.job == job => Some(t),
                _ => None,
            })
            .collect();
        assert_eq!(tasks.len(), n_tasks, "job {job}: one record per (rep x shard) task");
        assert!(tasks.iter().all(|t| {
            t.rep < reps && t.shard < n_shards && t.total == n_tasks && t.counters.delivered() > 0
        }));
        // Each task reports once, at completion, with a unique `finished`
        // count; the merge snapshot stays in range (the folder can never
        // absorb more than the total), and the reorder queue reports the
        // completion-ahead-of-merge gap, which the fold's claim window
        // keeps bounded.
        let mut finished: Vec<usize> = tasks.iter().map(|t| t.finished).collect();
        finished.sort_unstable();
        assert_eq!(finished, (1..=n_tasks).collect::<Vec<_>>(), "job {job}: one report per task");
        for t in &tasks {
            assert!(t.merged <= t.total, "merge snapshot in range");
            assert!(t.fold_queue < n_tasks && t.fold_queue <= t.finished, "bounded gap");
        }
    }
}
