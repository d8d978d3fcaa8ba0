//! Sidecar record types: one JSON object per line, discriminated by a
//! leading `"type"` key.
//!
//! A sidecar is a sequence of records — `manifest` first, then one `task`
//! per finished `(repetition × shard)` event loop, one `job` per
//! (scenario × scheme × seed) cell, the `phase` span table, and a final
//! `summary`. Wall-clock fields (`*_ms`) are scheduling-dependent by
//! nature; the embedded [`RunCounters`] and the event/flow totals are
//! deterministic — which is the split the CI counter-drift gate relies on.

use crate::counters::RunCounters;
use serde::{Deserialize, Error, Serialize, Value};

/// Sidecar schema version, bumped on any breaking record change.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 1;

/// One scenario of the run manifest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ManifestScenario {
    /// Scenario (preset) name.
    pub name: String,
    /// DSLAM-neighborhood shards of the scenario's world.
    pub shards: usize,
    /// Repetitions averaged per scheme run.
    pub repetitions: usize,
    /// Clients simulated.
    pub n_clients: usize,
}

/// First sidecar line: what the run was asked to do.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ManifestRecord {
    /// Sidecar schema version ([`TELEMETRY_SCHEMA_VERSION`]).
    pub version: u32,
    /// Scenarios of the batch, in matrix order.
    pub scenarios: Vec<ManifestScenario>,
    /// Machine scheme keys, in matrix order.
    pub schemes: Vec<String>,
    /// Seeds per (scenario, scheme) cell.
    pub seeds: usize,
    /// Resolved total thread budget.
    pub threads: usize,
    /// Jobs in the (scenario × scheme × seed) matrix.
    pub jobs: usize,
}

/// One finished `(repetition × shard)` task.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// Job index in the batch matrix.
    pub job: usize,
    /// Scenario name.
    pub scenario: String,
    /// Machine scheme key.
    pub scheme: String,
    /// Seed index within the batch.
    pub seed_index: usize,
    /// Repetition index of the task.
    pub rep: usize,
    /// Shard index of the task.
    pub shard: usize,
    /// Shards per repetition.
    pub n_shards: usize,
    /// World-build span of the task (stream setup plus topology),
    /// milliseconds (0 for prototype-cache hits).
    pub setup_ms: f64,
    /// The topology part of `setup_ms`, milliseconds (0, and omitted from
    /// the JSON, for prototype-cache hits).
    pub topology_ms: f64,
    /// Event-loop span of the task, milliseconds.
    pub loop_ms: f64,
    /// Tasks of this job finished when this one completed
    /// (scheduling-dependent).
    pub finished: usize,
    /// Total tasks of the job.
    pub total: usize,
    /// Tasks absorbed by the in-order folder at that moment
    /// (scheduling-dependent).
    pub merged: usize,
    /// Finished-but-not-merged results at that moment
    /// (scheduling-dependent).
    pub fold_queue: usize,
    /// Deterministic counters of the task's event loop.
    pub counters: RunCounters,
}

// Hand-written so `topology_ms` is omitted when zero (cache hits) and
// optional on input (sidecars written before it existed).
impl Serialize for TaskRecord {
    fn to_value(&self) -> Value {
        let mut m: Vec<(String, Value)> = Vec::with_capacity(15);
        let mut put = |k: &str, v: Value| m.push((k.to_string(), v));
        put("job", self.job.to_value());
        put("scenario", self.scenario.to_value());
        put("scheme", self.scheme.to_value());
        put("seed_index", self.seed_index.to_value());
        put("rep", self.rep.to_value());
        put("shard", self.shard.to_value());
        put("n_shards", self.n_shards.to_value());
        put("setup_ms", self.setup_ms.to_value());
        if self.topology_ms > 0.0 {
            put("topology_ms", self.topology_ms.to_value());
        }
        put("loop_ms", self.loop_ms.to_value());
        put("finished", self.finished.to_value());
        put("total", self.total.to_value());
        put("merged", self.merged.to_value());
        put("fold_queue", self.fold_queue.to_value());
        put("counters", self.counters.to_value());
        Value::Map(m)
    }
}

impl Deserialize for TaskRecord {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v.as_map().ok_or_else(|| Error::expected("map", v))?;
        Ok(TaskRecord {
            job: serde::__field(m, "job")?,
            scenario: serde::__field(m, "scenario")?,
            scheme: serde::__field(m, "scheme")?,
            seed_index: serde::__field(m, "seed_index")?,
            rep: serde::__field(m, "rep")?,
            shard: serde::__field(m, "shard")?,
            n_shards: serde::__field(m, "n_shards")?,
            setup_ms: serde::__field(m, "setup_ms")?,
            topology_ms: serde::__field::<Option<f64>>(m, "topology_ms")?.unwrap_or(0.0),
            loop_ms: serde::__field(m, "loop_ms")?,
            finished: serde::__field(m, "finished")?,
            total: serde::__field(m, "total")?,
            merged: serde::__field(m, "merged")?,
            fold_queue: serde::__field(m, "fold_queue")?,
            counters: serde::__field(m, "counters")?,
        })
    }
}

/// One finished (scenario × scheme × seed) job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobTelemetryRecord {
    /// Job index in the batch matrix.
    pub job: usize,
    /// Scenario name.
    pub scenario: String,
    /// Machine scheme key.
    pub scheme: String,
    /// Seed index within the batch.
    pub seed_index: usize,
    /// Wall-clock of the whole job, milliseconds.
    pub wall_ms: f64,
    /// Time the deterministic folder spent absorbing task results,
    /// milliseconds.
    pub fold_ms: f64,
    /// Shards of the job's world.
    pub shards: usize,
    /// Deterministic counters, merged over the job's tasks.
    pub counters: RunCounters,
}

/// One phase span of the run, accumulated over every task that
/// contributed to it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// Phase name (`config`, `world-build`, `event-loop`, `shard-fold`,
    /// `jsonl-write`).
    pub phase: String,
    /// Parent span (`run` for every top-level phase).
    pub parent: String,
    /// Busy time summed over contributions, milliseconds.
    pub busy_ms: f64,
    /// Contributions accumulated (tasks, jobs or write calls).
    pub tasks: u64,
    /// Smallest single contribution, milliseconds (0 when `tasks` is 0).
    pub task_ms_min: f64,
    /// Mean contribution, milliseconds.
    pub task_ms_mean: f64,
    /// Largest single contribution, milliseconds.
    pub task_ms_max: f64,
}

/// Last sidecar line: run totals.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SummaryRecord {
    /// Wall-clock of the whole batch, milliseconds.
    pub wall_ms: f64,
    /// Jobs completed.
    pub jobs: usize,
    /// `(repetition × shard)` tasks completed.
    pub tasks: u64,
    /// Events delivered, summed over jobs (deterministic).
    pub events: u64,
    /// Trace flows over the whole batch, summed over jobs (deterministic).
    pub flows: u64,
    /// Peak resident set size (`VmHWM`), MiB; absent off-Linux.
    pub peak_rss_mib: Option<f64>,
    /// Deterministic counters, merged over every job.
    pub counters: RunCounters,
}

/// Any sidecar record, tagged with a leading `"type"` key in its JSON form.
#[derive(Debug, Clone)]
pub enum TelemetryRecord {
    /// Run manifest (first line).
    Manifest(ManifestRecord),
    /// One `(repetition × shard)` task.
    Task(TaskRecord),
    /// One (scenario × scheme × seed) job.
    Job(JobTelemetryRecord),
    /// One phase span.
    Phase(PhaseRecord),
    /// Run totals (last line).
    Summary(SummaryRecord),
}

impl TelemetryRecord {
    /// The record's `"type"` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryRecord::Manifest(_) => "manifest",
            TelemetryRecord::Task(_) => "task",
            TelemetryRecord::Job(_) => "job",
            TelemetryRecord::Phase(_) => "phase",
            TelemetryRecord::Summary(_) => "summary",
        }
    }
}

impl Serialize for TelemetryRecord {
    fn to_value(&self) -> Value {
        // Internally tagged by hand: the derived (externally tagged) enum
        // form would nest the payload under the variant name, which makes
        // line-oriented consumers (grep, jq-less CI gates) needlessly
        // awkward. The tag is always the first key.
        let inner = match self {
            TelemetryRecord::Manifest(r) => r.to_value(),
            TelemetryRecord::Task(r) => r.to_value(),
            TelemetryRecord::Job(r) => r.to_value(),
            TelemetryRecord::Phase(r) => r.to_value(),
            TelemetryRecord::Summary(r) => r.to_value(),
        };
        let mut m: Vec<(String, Value)> =
            vec![("type".to_string(), Value::Str(self.kind().to_string()))];
        if let Value::Map(fields) = inner {
            m.extend(fields);
        }
        Value::Map(m)
    }
}

impl Deserialize for TelemetryRecord {
    fn from_value(v: &Value) -> Result<TelemetryRecord, Error> {
        let tag = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| Error::new("telemetry record without a `type` tag"))?;
        match tag {
            "manifest" => Ok(TelemetryRecord::Manifest(ManifestRecord::from_value(v)?)),
            "task" => Ok(TelemetryRecord::Task(TaskRecord::from_value(v)?)),
            "job" => Ok(TelemetryRecord::Job(JobTelemetryRecord::from_value(v)?)),
            "phase" => Ok(TelemetryRecord::Phase(PhaseRecord::from_value(v)?)),
            "summary" => Ok(TelemetryRecord::Summary(SummaryRecord::from_value(v)?)),
            other => Err(Error::new(&format!("unknown telemetry record type `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_with_a_leading_type_tag() {
        let rec = TelemetryRecord::Phase(PhaseRecord {
            phase: "event-loop".into(),
            parent: "run".into(),
            busy_ms: 123.5,
            tasks: 4,
            task_ms_min: 10.0,
            task_ms_mean: 30.875,
            task_ms_max: 60.0,
        });
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.starts_with("{\"type\":\"phase\",\"phase\":\"event-loop\""), "{json}");
        let back: TelemetryRecord = serde_json::from_str(&json).unwrap();
        let TelemetryRecord::Phase(p) = back else { panic!("wrong variant") };
        assert_eq!(p.tasks, 4);
        assert_eq!(p.busy_ms, 123.5);
    }

    #[test]
    fn task_topology_ms_is_omitted_when_zero() {
        let task = |topology_ms: f64| {
            TelemetryRecord::Task(TaskRecord {
                job: 0,
                scenario: "smoke".into(),
                scheme: "soi".into(),
                seed_index: 0,
                rep: 0,
                shard: 1,
                n_shards: 2,
                setup_ms: 4.0,
                topology_ms,
                loop_ms: 9.0,
                finished: 1,
                total: 2,
                merged: 0,
                fold_queue: 0,
                counters: RunCounters::default(),
            })
        };
        let hit = serde_json::to_string(&task(0.0)).unwrap();
        assert!(!hit.contains("topology_ms"), "{hit}");
        let TelemetryRecord::Task(back) = serde_json::from_str(&hit).unwrap() else {
            panic!("wrong variant")
        };
        assert_eq!((back.setup_ms, back.topology_ms), (4.0, 0.0));
        let built = serde_json::to_string(&task(1.5)).unwrap();
        assert!(built.contains("\"setup_ms\":4.0,\"topology_ms\":1.5,\"loop_ms\""), "{built}");
        let TelemetryRecord::Task(back) = serde_json::from_str(&built).unwrap() else {
            panic!("wrong variant")
        };
        assert_eq!(back.topology_ms, 1.5);
    }

    #[test]
    fn unknown_type_tags_are_rejected() {
        let err = serde_json::from_str::<TelemetryRecord>("{\"type\":\"nope\"}").unwrap_err();
        assert!(err.to_string().contains("unknown telemetry record type"), "{err}");
        assert!(serde_json::from_str::<TelemetryRecord>("{\"phase\":\"x\"}").is_err());
    }

    #[test]
    fn summary_round_trips_optional_rss() {
        let rec = TelemetryRecord::Summary(SummaryRecord {
            wall_ms: 10.0,
            jobs: 1,
            tasks: 2,
            events: 300,
            flows: 40,
            peak_rss_mib: None,
            counters: RunCounters::default(),
        });
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.contains("\"peak_rss_mib\":null"), "{json}");
        let back: TelemetryRecord = serde_json::from_str(&json).unwrap();
        let TelemetryRecord::Summary(s) = back else { panic!("wrong variant") };
        assert_eq!(s.events, 300);
        assert_eq!(s.peak_rss_mib, None);
    }
}
