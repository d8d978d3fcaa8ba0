//! # insomnia-telemetry
//!
//! Structured run telemetry for the reproduction: where a run's wall-clock
//! goes and what the simulation actually did, separated along the one line
//! that matters — **deterministic vs scheduling-dependent**.
//!
//! Three pieces:
//!
//! * [`RunCounters`] — deterministic work counters (events delivered and
//!   cancelled by kind, stream refills, k-way-merge pops, heap pushes and
//!   peaks, fold absorptions, solver re-solves). Counters aggregate per
//!   `(repetition × shard)` task and [`RunCounters::merge`] is
//!   order-invariant (sums and maxes), so merged totals are byte-identical
//!   at any thread count — the same property the quantile sketches pin.
//! * [`Telemetry`] and [`TelemetryRecord`] — the reporting path replacing
//!   ad-hoc `eprintln!`: a [`Telemetry`] renders the classic stderr
//!   heartbeat/job lines (unless `--quiet`) and, with a sidecar, writes
//!   one JSON object per record into it (`insomnia run --telemetry
//!   out.jsonl`).
//!   Sidecar records carry both wall-clock spans (non-deterministic by
//!   nature) and the deterministic counters; the result JSONL is never
//!   touched.
//! * [`ProfileReport`] — parses a sidecar and renders the phase-breakdown
//!   table behind `insomnia profile`: wall-clock share, events/s and
//!   flows/s per phase, per-task spread, event-loop load per scheme, and
//!   the counter taxonomy; [`render_delta`] compares two sidecars.
//!
//! Span taxonomy (one [`PhaseRecord`] each, parent `run`): `config` →
//! `world-build` (eager builds and the stream setup pass) → `event-loop` →
//! `shard-fold` → `jsonl-write`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counters;
pub mod profile;
pub mod record;
pub mod sink;
pub mod span;

pub use counters::RunCounters;
pub use profile::{render_delta, CounterTotals, ProfileReport};
pub use record::{
    JobTelemetryRecord, ManifestRecord, ManifestScenario, PhaseRecord, SummaryRecord, TaskRecord,
    TelemetryRecord, TELEMETRY_SCHEMA_VERSION,
};
pub use sink::Telemetry;
pub use span::PhaseAccum;
