//! Crash-safe checkpointing of batch runs.
//!
//! `insomnia run --checkpoint FILE` appends one JSONL record per completed
//! `(repetition × shard)` task, flushed as soon as the task folds out of
//! the worker, so a killed run loses at most the tasks that were in
//! flight. Each line is framed as
//!
//! ```text
//! {"crc":"<8 hex digits>","body":{...}}
//! ```
//!
//! where the CRC-32 (IEEE, reflected — implemented in-tree, the
//! environment vendors no checksum crate) covers the serialized body
//! bytes. The first record is a [`Manifest`] binding the file to one
//! batch: checkpoint schema version
//! ([`CHECKPOINT_SCHEMA_VERSION`]), a hash of the resolved scenario
//! configs, and the job-matrix shape. Every later record is one task's
//! [`RunResult`] wire form keyed by `(job, task)`.
//!
//! On `--resume`, [`load_checkpoint`] verifies the manifest against the
//! current batch, tolerates exactly one *torn tail* (a final line cut by
//! the crash — dropped and re-simulated), treats any interior corruption
//! as a hard error (a flipped byte must never silently alter results),
//! and hands the surviving task results to the batch runner, which
//! replays them through the same in-order fold the live run uses — the
//! final JSONL is byte-identical to an uninterrupted run.
//!
//! The same framed wire form is the unit the planned distributed fan-out
//! ships between machines: a remote worker returns exactly one `task`
//! record, so "resume from local checkpoint" and "merge remote partials"
//! are the same code path.

use crate::batch::BatchRun;
use crate::schemes::scheme_key;
use insomnia_core::{RunResult, CHECKPOINT_SCHEMA_VERSION};
use insomnia_simcore::{SimError, SimResult};
use insomnia_telemetry::{PhaseAccum, PhaseRecord};
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE, reflected) of `bytes` — the polynomial `cksum`, zlib and
/// PNG use, so checkpoint frames can be verified with standard tooling.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Frames a record body into one checkpoint line (without the newline):
/// the CRC is computed over the serialized body text, so verification can
/// re-serialize the parsed body (the JSON writer is a parse∘write
/// fixpoint) and compare.
fn frame(body: &Value) -> SimResult<String> {
    let body_text = serde_json::to_string(body)
        .map_err(|e| SimError::InvalidInput(format!("serialize checkpoint record: {e}")))?;
    let crc = crc32(body_text.as_bytes());
    Ok(format!("{{\"crc\":\"{crc:08x}\",\"body\":{body_text}}}"))
}

/// Parses and CRC-verifies one checkpoint line, returning the body value.
fn unframe(line: &str) -> SimResult<Value> {
    let v: Value = serde_json::from_str(line)
        .map_err(|e| SimError::InvalidInput(format!("unparseable checkpoint line: {e}")))?;
    let m = v
        .as_map()
        .ok_or_else(|| SimError::InvalidInput("checkpoint line is not an object".into()))?;
    if m.len() != 2 {
        return Err(SimError::InvalidInput(format!(
            "checkpoint frame must have exactly crc+body, got {} keys",
            m.len()
        )));
    }
    let stored = v
        .get("crc")
        .and_then(Value::as_str)
        .ok_or_else(|| SimError::InvalidInput("checkpoint line missing crc".into()))?;
    let stored = u32::from_str_radix(stored, 16)
        .map_err(|_| SimError::InvalidInput(format!("malformed checkpoint crc `{stored}`")))?;
    let body = v
        .get("body")
        .ok_or_else(|| SimError::InvalidInput("checkpoint line missing body".into()))?;
    let body_text = serde_json::to_string(body)
        .map_err(|e| SimError::InvalidInput(format!("re-serialize checkpoint body: {e}")))?;
    let actual = crc32(body_text.as_bytes());
    if actual != stored {
        return Err(SimError::InvalidInput(format!(
            "checkpoint CRC mismatch: stored {stored:08x}, computed {actual:08x}"
        )));
    }
    Ok(body.clone())
}

/// The first record of every checkpoint file: binds the file to one batch
/// so `--resume` can refuse to replay partials into a different run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Checkpoint wire-format version ([`CHECKPOINT_SCHEMA_VERSION`]).
    pub version: u32,
    /// FNV-1a 64 hash (hex) over the resolved scenario configurations —
    /// any spec change (horizon, topology, power model, …) changes it.
    pub config_hash: String,
    /// Total jobs in the (scenario × scheme × seed) matrix.
    pub jobs: usize,
    /// Seeds per (scenario, scheme) cell.
    pub seeds: usize,
    /// Machine scheme keys, in batch order.
    pub schemes: Vec<String>,
    /// Scenario names, in batch order.
    pub scenarios: Vec<String>,
}

// Hand-written: a constant `"type":"manifest"` tag, which the derive lacks, checked on load.
impl Serialize for Manifest {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("type".into(), "manifest".to_value()),
            ("version".into(), self.version.to_value()),
            ("config_hash".into(), self.config_hash.to_value()),
            ("jobs".into(), self.jobs.to_value()),
            ("seeds".into(), self.seeds.to_value()),
            ("schemes".into(), self.schemes.to_value()),
            ("scenarios".into(), self.scenarios.to_value()),
        ])
    }
}

impl Deserialize for Manifest {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v.as_map().ok_or_else(|| Error::expected("map", v))?;
        match v.get("type").and_then(Value::as_str) {
            Some("manifest") => {}
            _ => return Err(Error::new("checkpoint file does not start with a manifest record")),
        }
        Ok(Manifest {
            version: serde::__field(m, "version")?,
            config_hash: serde::__field(m, "config_hash")?,
            jobs: serde::__field(m, "jobs")?,
            seeds: serde::__field(m, "seeds")?,
            schemes: serde::__field(m, "schemes")?,
            scenarios: serde::__field(m, "scenarios")?,
        })
    }
}

impl Manifest {
    /// Checks a loaded manifest against the batch being resumed; the error
    /// names every mismatched field so an operator can tell a stale
    /// checkpoint from a mistyped flag.
    pub fn verify_against(&self, current: &Manifest) -> SimResult<()> {
        let mut bad = Vec::new();
        if self.version != current.version {
            bad.push(format!("schema version {} vs {}", self.version, current.version));
        }
        if self.config_hash != current.config_hash {
            bad.push(format!("config hash {} vs {}", self.config_hash, current.config_hash));
        }
        if self.jobs != current.jobs {
            bad.push(format!("job count {} vs {}", self.jobs, current.jobs));
        }
        if self.seeds != current.seeds {
            bad.push(format!("seed count {} vs {}", self.seeds, current.seeds));
        }
        if self.schemes != current.schemes {
            bad.push(format!("schemes {:?} vs {:?}", self.schemes, current.schemes));
        }
        if self.scenarios != current.scenarios {
            bad.push(format!("scenarios {:?} vs {:?}", self.scenarios, current.scenarios));
        }
        if bad.is_empty() {
            Ok(())
        } else {
            Err(SimError::InvalidInput(format!(
                "checkpoint manifest does not match this batch ({}); \
                 re-run without --resume to start over",
                bad.join("; ")
            )))
        }
    }
}

/// FNV-1a 64-bit over a byte string (in-tree; no hashing crate vendored).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Builds the manifest the given batch would stamp into a fresh
/// checkpoint. The config hash covers each scenario's *resolved*
/// configuration (not the spec text), so two spellings of the same run
/// resume each other while any semantic change refuses.
pub fn manifest_for(batch: &BatchRun) -> Manifest {
    let mut desc = String::new();
    for (name, cfg) in &batch.scenarios {
        desc.push_str(name);
        desc.push('\u{1f}');
        // `ScenarioConfig` has no serialized form (it never crosses a
        // process boundary); its derived Debug output is a complete,
        // deterministic rendering of every field, which is exactly what a
        // same-binary resume check needs.
        desc.push_str(&format!("{cfg:?}"));
        desc.push('\u{1e}');
    }
    Manifest {
        version: CHECKPOINT_SCHEMA_VERSION,
        config_hash: format!("{:016x}", fnv1a64(desc.as_bytes())),
        jobs: batch.n_jobs(),
        seeds: batch.seeds,
        schemes: batch.schemes.iter().map(|&s| scheme_key(s)).collect(),
        scenarios: batch.scenarios.iter().map(|(n, _)| n.clone()).collect(),
    }
}

/// Write-side fault injection (from the `[faults]` plan): which global
/// task ordinals lose their checkpoint write, and which one tears the
/// file's tail mid-line.
#[derive(Debug, Clone, Default)]
pub struct WriteFaults {
    /// Ordinals whose record write "fails" (record dropped, run continues;
    /// resume re-simulates those tasks).
    pub io_error_tasks: BTreeSet<usize>,
    /// Ordinal after whose record the file is cut mid-line and the writer
    /// poisoned — the torn-tail crash the reader must recover from.
    pub torn_tail_task: Option<usize>,
}

struct WriterState {
    /// `None` once poisoned: a real (or injected torn-tail) write failure
    /// stops checkpointing but never the run itself.
    file: Option<std::fs::File>,
    phase: PhaseAccum,
    records: u64,
    faults_injected: u64,
    warned: bool,
    faults: WriteFaults,
}

/// Appends framed task records to a checkpoint file, one flush per record.
///
/// Shared by reference across worker threads (all methods take `&self`);
/// the internal mutex serializes appends so lines never interleave.
pub struct CheckpointWriter {
    state: Mutex<WriterState>,
}

/// What the writer did, frozen when the batch finishes.
#[derive(Debug)]
pub struct CheckpointWriteStats {
    /// The `checkpoint-write` phase span (busy ms + per-record spread).
    pub phase: PhaseRecord,
    /// Task records durably appended.
    pub records: u64,
    /// Write-side faults injected (IO errors + torn tail).
    pub faults_injected: u64,
}

impl CheckpointWriter {
    fn from_file(file: std::fs::File) -> CheckpointWriter {
        CheckpointWriter {
            state: Mutex::new(WriterState {
                file: Some(file),
                phase: PhaseAccum::new("checkpoint-write"),
                records: 0,
                faults_injected: 0,
                warned: false,
                faults: WriteFaults::default(),
            }),
        }
    }

    /// Starts a fresh checkpoint: truncates `path` and writes the manifest
    /// record (flushed before any task can complete).
    pub fn create(path: &Path, manifest: &Manifest) -> SimResult<CheckpointWriter> {
        let mut file = std::fs::File::create(path).map_err(|e| {
            SimError::InvalidInput(format!("create checkpoint {}: {e}", path.display()))
        })?;
        let line = frame(&manifest.to_value())?;
        writeln!(file, "{line}")
            .and_then(|()| file.flush())
            .map_err(|e| SimError::InvalidInput(format!("write checkpoint manifest: {e}")))?;
        Ok(CheckpointWriter::from_file(file))
    }

    /// Reopens an existing (already manifest-verified) checkpoint for
    /// appending — the resume path. Replayed tasks are *not* rewritten;
    /// only newly simulated tasks append. A torn final line (the record a
    /// crash cut short — exactly what [`load_checkpoint`] drops) is
    /// trimmed first, so the next record starts at a line boundary
    /// instead of fusing with the fragment into a corrupt interior line.
    pub fn append(path: &Path) -> SimResult<CheckpointWriter> {
        let reopen = |e: std::io::Error| {
            SimError::InvalidInput(format!("reopen checkpoint {}: {e}", path.display()))
        };
        let raw = std::fs::read(path).map_err(reopen)?;
        let keep = match raw.last() {
            Some(b'\n') | None => raw.len(),
            // rfind of the last newline; a file with no newline at all is
            // nothing but a torn fragment — load_checkpoint already
            // rejected it, so this path keeps 0 bytes only defensively.
            Some(_) => raw.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1),
        };
        let file = std::fs::OpenOptions::new().write(true).open(path).map_err(reopen)?;
        file.set_len(keep as u64).map_err(reopen)?;
        let file = std::fs::OpenOptions::new().append(true).open(path).map_err(reopen)?;
        Ok(CheckpointWriter::from_file(file))
    }

    /// Installs the write-side fault plan (tests and `--faults`).
    pub fn set_faults(&self, faults: WriteFaults) {
        self.state.lock().expect("checkpoint lock").faults = faults;
    }

    /// Appends one completed task's result, tagged with its global ordinal
    /// and `(job, task)` coordinates, and flushes. Failures (real or
    /// injected) drop the record with a warning and keep the run alive —
    /// losing a checkpoint record only costs a re-simulation on resume.
    pub fn write_task(
        &self,
        ordinal: usize,
        job: usize,
        task: usize,
        rep: usize,
        shard: usize,
        result: &RunResult,
    ) {
        let start = Instant::now();
        let mut st = self.state.lock().expect("checkpoint lock");
        if st.faults.io_error_tasks.contains(&ordinal) {
            st.faults_injected += 1;
            eprintln!(
                "warning: injected checkpoint IO error for task {ordinal} \
                 (job {job}, task {task}); record dropped"
            );
            return;
        }
        let body = Value::Map(vec![
            ("type".into(), "task".to_value()),
            ("ordinal".into(), ordinal.to_value()),
            ("job".into(), job.to_value()),
            ("task".into(), task.to_value()),
            ("rep".into(), rep.to_value()),
            ("shard".into(), shard.to_value()),
            ("result".into(), result.to_value()),
        ]);
        let line = match frame(&body) {
            Ok(line) => line,
            Err(e) => {
                st.warn(&format!("checkpoint record for task {ordinal} not serializable: {e}"));
                return;
            }
        };
        if st.faults.torn_tail_task == Some(ordinal) {
            st.faults_injected += 1;
            // Cut the line mid-frame (no newline) and poison the writer:
            // the torn bytes stay the file's tail, exactly what a crash
            // mid-`write(2)` leaves behind.
            let torn = &line.as_bytes()[..line.len() / 2];
            if let Some(file) = st.file.as_mut() {
                let _ = file.write_all(torn).and_then(|()| file.flush());
            }
            st.file = None;
            eprintln!(
                "warning: injected torn checkpoint tail at task {ordinal}; \
                 later records are dropped"
            );
            return;
        }
        let Some(file) = st.file.as_mut() else {
            return;
        };
        match writeln!(file, "{line}").and_then(|()| file.flush()) {
            Ok(()) => {
                st.records += 1;
                st.phase.add(start.elapsed().as_secs_f64() * 1_000.0);
            }
            Err(e) => {
                st.file = None;
                st.warn(&format!("checkpoint write failed, checkpointing disabled: {e}"));
            }
        }
    }

    /// Freezes the writer into its stats (consumes it; the file closes).
    pub fn finish(self) -> CheckpointWriteStats {
        let st = self.state.into_inner().expect("checkpoint lock");
        CheckpointWriteStats {
            phase: st.phase.record(),
            records: st.records,
            faults_injected: st.faults_injected,
        }
    }
}

impl WriterState {
    fn warn(&mut self, msg: &str) {
        if !self.warned {
            self.warned = true;
            eprintln!("warning: {msg}");
        }
    }
}

/// Everything a checkpoint file yields on load.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// The manifest record (verify with [`Manifest::verify_against`]).
    pub manifest: Manifest,
    /// Surviving task results keyed `(job, task)`; duplicate coordinates
    /// keep the last record (a rewritten task supersedes earlier copies).
    pub tasks: BTreeMap<(usize, usize), RunResult>,
    /// True when a torn final line was dropped.
    pub dropped_tail: bool,
}

/// Loads a checkpoint file: verifies every frame's CRC, refuses a manifest
/// of another [`CHECKPOINT_SCHEMA_VERSION`], tolerates exactly one torn
/// *final* line (dropped; its task re-simulates), and fails loud on any
/// interior corruption — a flipped byte mid-file must surface as an error,
/// never as silently different results.
pub fn load_checkpoint(path: &Path) -> SimResult<LoadedCheckpoint> {
    let raw = std::fs::read(path)
        .map_err(|e| SimError::InvalidInput(format!("read checkpoint {}: {e}", path.display())))?;
    let lines: Vec<&[u8]> = raw.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
    if lines.is_empty() {
        return Err(SimError::InvalidInput(format!(
            "checkpoint {} is empty (no manifest record)",
            path.display()
        )));
    }
    let mut manifest = None;
    let mut tasks = BTreeMap::new();
    let mut dropped_tail = false;
    let last = lines.len() - 1;
    for (idx, bytes) in lines.iter().enumerate() {
        let parsed = std::str::from_utf8(bytes)
            .map_err(|_| {
                SimError::InvalidInput(format!("checkpoint line {} is not UTF-8", idx + 1))
            })
            .and_then(unframe);
        let body = match parsed {
            Ok(body) => body,
            // Only the final line may be torn (the crash cut it short);
            // anything earlier is corruption and must not be skipped over.
            Err(_) if idx == last && idx > 0 => {
                dropped_tail = true;
                break;
            }
            Err(e) => {
                return Err(SimError::InvalidInput(format!(
                    "corrupt checkpoint record at line {}: {e}",
                    idx + 1
                )))
            }
        };
        if idx == 0 {
            let m = Manifest::from_value(&body)
                .map_err(|e| SimError::InvalidInput(format!("checkpoint manifest: {e}")))?;
            // Task records of another schema need not parse as this
            // binary's `RunResult`: refuse on the version before reading one.
            m.verify_against(&Manifest { version: CHECKPOINT_SCHEMA_VERSION, ..m.clone() })?;
            manifest = Some(m);
            continue;
        }
        if body.get("type").and_then(Value::as_str) != Some("task") {
            return Err(SimError::InvalidInput(format!(
                "unexpected checkpoint record type at line {}",
                idx + 1
            )));
        }
        let m = body
            .as_map()
            .ok_or_else(|| SimError::InvalidInput("task record is not an object".into()))?;
        let read = || -> Result<((usize, usize), RunResult), Error> {
            let job: usize = serde::__field(m, "job")?;
            let task: usize = serde::__field(m, "task")?;
            let result: RunResult = serde::__field(m, "result")?;
            Ok(((job, task), result))
        };
        let ((job, task), result) = read().map_err(|e| {
            SimError::InvalidInput(format!("checkpoint task record at line {}: {e}", idx + 1))
        })?;
        tasks.insert((job, task), result);
    }
    let manifest = manifest
        .ok_or_else(|| SimError::InvalidInput("checkpoint has no readable manifest".into()))?;
    Ok(LoadedCheckpoint { manifest, tasks, dropped_tail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use insomnia_core::{run_scheme_task, ScenarioConfig, SchemeSpec, ShardedWorld};

    /// Known-answer CRC-32 vectors (IEEE reflected; same answers as zlib).
    #[test]
    fn crc32_matches_reference_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    fn sample_manifest() -> Manifest {
        Manifest {
            version: CHECKPOINT_SCHEMA_VERSION,
            config_hash: "00ff00ff00ff00ff".into(),
            jobs: 4,
            seeds: 2,
            schemes: vec!["no-sleep".into(), "soi".into()],
            scenarios: vec!["smoke".into()],
        }
    }

    fn sample_result() -> RunResult {
        let cfg = ScenarioConfig::smoke();
        let world = ShardedWorld::lazy(&cfg, 7);
        run_scheme_task(&cfg, SchemeSpec::soi(), &world, 7, 0, None).0
    }

    #[test]
    fn frames_roundtrip_and_reject_flips() {
        let line = frame(&sample_manifest().to_value()).unwrap();
        let body = unframe(&line).unwrap();
        assert_eq!(Manifest::from_value(&body).unwrap(), sample_manifest());

        // Any single-byte flip inside the frame is caught: either the JSON
        // no longer parses, or the re-serialized body's CRC mismatches.
        for i in 0..line.len() {
            let mut bad = line.clone().into_bytes();
            bad[i] ^= 0x01;
            if let Ok(s) = std::str::from_utf8(&bad) {
                assert!(unframe(s).is_err(), "flip at byte {i} went undetected: {s}");
            }
        }
    }

    #[test]
    fn writer_then_loader_roundtrips_tasks() {
        let dir = std::env::temp_dir().join(format!("insomnia-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        let manifest = sample_manifest();
        let result = sample_result();

        let w = CheckpointWriter::create(&path, &manifest).unwrap();
        w.write_task(0, 0, 0, 0, 0, &result);
        w.write_task(5, 1, 2, 1, 0, &result);
        let stats = w.finish();
        assert_eq!(stats.records, 2);
        assert_eq!(stats.faults_injected, 0);
        assert_eq!(stats.phase.phase, "checkpoint-write");
        assert_eq!(stats.phase.tasks, 2);

        let loaded = load_checkpoint(&path).unwrap();
        assert_eq!(loaded.manifest, manifest);
        assert!(!loaded.dropped_tail);
        assert_eq!(loaded.tasks.len(), 2);
        let back = &loaded.tasks[&(1, 2)];
        assert_eq!(back.to_value(), result.to_value());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_but_interior_corruption_is_fatal() {
        let dir = std::env::temp_dir().join(format!("insomnia-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.ckpt");
        let manifest = sample_manifest();
        let result = sample_result();
        let w = CheckpointWriter::create(&path, &manifest).unwrap();
        w.write_task(0, 0, 0, 0, 0, &result);
        w.write_task(1, 0, 1, 0, 1, &result);
        w.finish();

        // Tear the final line: resume drops exactly that task.
        let full = std::fs::read(&path).unwrap();
        let keep = full.len() - 40;
        std::fs::write(&path, &full[..keep]).unwrap();
        let loaded = load_checkpoint(&path).unwrap();
        assert!(loaded.dropped_tail);
        assert_eq!(loaded.tasks.len(), 1);
        assert!(loaded.tasks.contains_key(&(0, 0)));

        // Flip one byte in an *interior* record: hard error, not a skip.
        let mut bad = full.clone();
        let second_line_start = bad.iter().position(|&b| b == b'\n').unwrap() + 1;
        bad[second_line_start + 30] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        let err = load_checkpoint(&path).unwrap_err().to_string();
        assert!(err.contains("corrupt checkpoint record at line 2"), "unexpected error: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_write_faults_drop_records_without_killing_the_writer() {
        let dir = std::env::temp_dir().join(format!("insomnia-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("faults.ckpt");
        let manifest = sample_manifest();
        let result = sample_result();
        let w = CheckpointWriter::create(&path, &manifest).unwrap();
        w.set_faults(WriteFaults {
            io_error_tasks: [1usize].into_iter().collect(),
            torn_tail_task: Some(2),
        });
        w.write_task(0, 0, 0, 0, 0, &result); // written
        w.write_task(1, 0, 1, 0, 1, &result); // injected IO error: dropped
        w.write_task(2, 1, 0, 0, 0, &result); // torn tail: half a line, poisoned
        w.write_task(3, 1, 1, 0, 1, &result); // after poison: dropped
        let stats = w.finish();
        assert_eq!(stats.records, 1);
        assert_eq!(stats.faults_injected, 2);

        // The reader recovers everything durably written before the tear.
        let loaded = load_checkpoint(&path).unwrap();
        assert!(loaded.dropped_tail);
        assert_eq!(loaded.tasks.len(), 1);
        assert!(loaded.tasks.contains_key(&(0, 0)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_old_schema_is_rejected_by_version_before_its_task_records() {
        let dir = std::env::temp_dir().join(format!("insomnia-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old-schema.ckpt");
        let old = Manifest { version: 1, ..sample_manifest() };
        // A version-1 task record: today's result with the old completion
        // shape (sketch plus per-flow copy, no `completed`) and the
        // since-removed peak fields.
        let v1_completion = serde_json::from_str::<Value>(
            r#"{"total_flows":2,"sketch":{"cutoff":8,"count":1,"exact":[1.5],"buckets":[]},
                "per_flow":[1.5,null]}"#,
        )
        .unwrap();
        let Value::Map(mut result) = sample_result().to_value() else { panic!("map") };
        for (key, value) in &mut result {
            if key == "completion" {
                *value = v1_completion.clone();
            }
        }
        result.push(("peak_heap".into(), 9usize.to_value()));
        result.push(("peak_active_flows".into(), 5usize.to_value()));
        let record = Value::Map(vec![
            ("type".into(), "task".to_value()),
            ("ordinal".into(), 0usize.to_value()),
            ("job".into(), 0usize.to_value()),
            ("task".into(), 0usize.to_value()),
            ("rep".into(), 0usize.to_value()),
            ("shard".into(), 0usize.to_value()),
            ("result".into(), Value::Map(result)),
        ]);
        let text = format!("{}\n{}\n", frame(&old.to_value()).unwrap(), frame(&record).unwrap());
        std::fs::write(&path, text).unwrap();
        let err = load_checkpoint(&path).unwrap_err().to_string();
        assert!(
            err.contains(&format!("schema version 1 vs {CHECKPOINT_SCHEMA_VERSION}")),
            "unexpected error: {err}"
        );
        assert!(err.contains("re-run without --resume"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn manifest_verification_names_every_mismatch() {
        let a = sample_manifest();
        assert!(a.verify_against(&a).is_ok());
        let mut b = a.clone();
        b.config_hash = "deadbeefdeadbeef".into();
        b.jobs = 9;
        let err = a.verify_against(&b).unwrap_err().to_string();
        assert!(err.contains("config hash"), "{err}");
        assert!(err.contains("job count 4 vs 9"), "{err}");
        assert!(err.contains("--resume"), "{err}");
    }

    #[test]
    fn manifest_for_tracks_config_changes() {
        let mut cfg = ScenarioConfig::smoke();
        let batch = |cfg: &ScenarioConfig| BatchRun {
            scenarios: vec![("smoke".into(), cfg.clone())],
            schemes: vec![SchemeSpec::soi()],
            seeds: 1,
            threads: 1,
        };
        let base = manifest_for(&batch(&cfg));
        assert_eq!(base.version, CHECKPOINT_SCHEMA_VERSION);
        assert_eq!(base.jobs, 1);
        assert_eq!(base.scenarios, vec!["smoke".to_string()]);
        // Same config hashes identically; any knob change re-hashes.
        assert_eq!(manifest_for(&batch(&cfg)).config_hash, base.config_hash);
        cfg.repetitions += 1;
        assert_ne!(manifest_for(&batch(&cfg)).config_hash, base.config_hash);
    }
}
