//! Where run records go.
//!
//! The batch runner emits [`TelemetryRecord`]s from worker threads and the
//! collector through one [`Telemetry`], which has two destinations: the
//! classic human stderr heartbeat/job lines (the default; `--quiet` turns
//! them off) and an optional JSONL sidecar writer that gets one JSON object
//! per record (`insomnia run --telemetry FILE`).

use crate::record::TelemetryRecord;
use std::io::Write;
use std::sync::Mutex;

/// The telemetry destinations of one run, plus the config-phase span
/// measured by the CLI before the batch starts. The batch runner emits
/// every record through [`Telemetry::emit`]; [`Telemetry::quiet`] without
/// a sidecar emits nothing (`--quiet`).
#[derive(Default)]
pub struct Telemetry {
    /// Renders the human stderr lines.
    human: bool,
    /// The JSONL sidecar, if any.
    jsonl: Option<Mutex<Sidecar>>,
    /// Wall-clock the caller spent resolving specs/flags before the batch
    /// started, milliseconds — folded into the `config` phase record.
    pub config_ms: f64,
}

/// The sidecar writer and whether a write to it has failed.
struct Sidecar {
    writer: Box<dyn Write + Send>,
    failed: bool,
}

impl Telemetry {
    /// The human stderr lines only (classic behavior of `insomnia run`).
    pub fn stderr() -> Telemetry {
        Telemetry { human: true, ..Telemetry::default() }
    }

    /// No human lines and no sidecar (`--quiet`).
    pub fn quiet() -> Telemetry {
        Telemetry::default()
    }

    /// Adds a JSONL sidecar over `writer` (a `BufWriter<File>` for the CLI,
    /// a shared buffer in tests).
    pub fn with_jsonl(mut self, writer: Box<dyn Write + Send>) -> Telemetry {
        self.jsonl = Some(Mutex::new(Sidecar { writer, failed: false }));
        self
    }

    /// Sends one record to the human lines, then to the sidecar.
    pub fn emit(&self, rec: &TelemetryRecord) {
        if self.human {
            human_line(rec);
        }
        if let Some(sidecar) = &self.jsonl {
            write_jsonl(&mut sidecar.lock().expect("telemetry sidecar lock"), rec);
        }
    }
}

/// Renders `rec` as a classic human stderr line: a heartbeat per sharded
/// `(repetition × shard)` task and one line per finished job. Manifest,
/// phase and summary records are silent (the CLI prints its own end-of-run
/// summary).
fn human_line(rec: &TelemetryRecord) {
    let line = match rec {
        // The shard heartbeat: only sharded jobs are long enough to need
        // one; unsharded tasks stay silent (historical behavior).
        TelemetryRecord::Task(t) if t.n_shards > 1 => format!(
            "# shard {}/{} seed {}: rep {} shard {}/{} done ({}/{} tasks, merged shards: \
             {}/{}, fold queue {}, {} events, peak heap {}, peak active {})\n",
            t.scenario,
            t.scheme,
            t.seed_index,
            t.rep,
            t.shard,
            t.n_shards,
            t.finished,
            t.total,
            t.merged,
            t.total,
            t.fold_queue,
            t.counters.delivered(),
            t.counters.peak_heap,
            t.counters.peak_active_flows,
        ),
        TelemetryRecord::Job(j) => format!(
            "# job {}: {}/{} seed {} — {:.0} ms, {} events, {} shard(s)\n",
            j.job,
            j.scenario,
            j.scheme,
            j.seed_index,
            j.wall_ms,
            j.counters.delivered(),
            j.shards,
        ),
        _ => return,
    };
    // One write_all + explicit flush under the stderr lock, so lines from
    // concurrent workers never interleave at high thread counts.
    let mut err = std::io::stderr().lock();
    let _ = err.write_all(line.as_bytes());
    let _ = err.flush();
}

/// Writes `rec` as one JSON line and flushes it (tail-able mid-run;
/// crash-robust). A write error is reported to stderr once and further
/// records are dropped — telemetry must never fail the simulation that
/// produced it.
fn write_jsonl(sidecar: &mut Sidecar, rec: &TelemetryRecord) {
    if sidecar.failed {
        return;
    }
    let wrote = serde_json::to_string(rec)
        .map_err(std::io::Error::other)
        .and_then(|line| writeln!(sidecar.writer, "{line}").and_then(|()| sidecar.writer.flush()));
    if let Err(e) = wrote {
        sidecar.failed = true;
        eprintln!("# telemetry: sidecar write failed ({e}); sidecar truncated");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::RunCounters;
    use crate::record::JobTelemetryRecord;
    use std::sync::Arc;

    /// A Write handle over a shared buffer, so tests can read back what the
    /// sidecar wrote.
    #[derive(Clone, Default)]
    pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

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
    fn jsonl_sink_writes_one_tagged_line_per_record() {
        let buf = SharedBuf::default();
        let tel = Telemetry::quiet().with_jsonl(Box::new(buf.clone()));
        let rec = TelemetryRecord::Job(JobTelemetryRecord {
            job: 0,
            scenario: "smoke".into(),
            scheme: "soi".into(),
            seed_index: 0,
            wall_ms: 12.0,
            fold_ms: 1.0,
            shards: 1,
            counters: RunCounters::default(),
        });
        tel.emit(&rec);
        tel.emit(&rec);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with("{\"type\":\"job\","), "{line}");
        }
    }

    #[test]
    fn quiet_bundle_emits_nothing() {
        // No destination: emit must be a no-op (and must not panic).
        Telemetry::quiet().emit(&TelemetryRecord::Phase(crate::PhaseAccum::new("x").record()));
    }
}
