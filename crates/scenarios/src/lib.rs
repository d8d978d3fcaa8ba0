//! # insomnia-scenarios
//!
//! Scenario orchestration for the *Insomnia in the Access* reproduction:
//! the layer that turns "one hard-coded §5.1 evaluation" into "as many
//! scenarios as you can imagine, run as fast as the hardware allows".
//!
//! Four pieces:
//!
//! * [`spec`] — a declarative scenario description ([`ScenarioSpec`],
//!   TOML + serde) covering every knob of
//!   [`ScenarioConfig`](insomnia_core::ScenarioConfig), trace generation
//!   and topology generation, with inheritance from named presets
//!   (`base = "rural-sparse"`),
//! * [`registry`] — the built-in preset catalogue ([`Registry`]), shipping
//!   the paper's default plus dense-urban, rural-sparse, flash-crowd,
//!   weekend-diurnal, a no-wireless-sharing control, and the sharded
//!   dense-metro (10⁵ clients) and mega-city (10⁶ clients, streaming
//!   completion quantiles) scale presets,
//! * [`batch`] — a parallel batch runner ([`BatchRun`]) that expands a
//!   (scenario × scheme × seed) matrix into jobs over sharded worlds
//!   (`shards` axis: N independent DSLAM neighborhoods per scenario),
//!   executes them on a worker pool with per-job deterministic RNG
//!   streams, streams one JSON line per job in job order (byte-identical
//!   at any thread count), and aggregates a summary table,
//! * [`compare`] — the regression gate: diff two batch JSONL outputs with
//!   a per-metric relative tolerance,
//! * [`checkpoint`] + [`faults`] — crash safety: a CRC-framed JSONL
//!   checkpoint sidecar (`--checkpoint`/`--resume`, byte-identical
//!   resume), bounded deterministic task retry, and a seeded
//!   fault-injection harness (`--faults`) that proves both.
//!
//! The `insomnia` binary (`src/bin/insomnia.rs`) puts `list`, `show`,
//! `run`, `sweep` and `compare` subcommands on top.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod checkpoint;
pub mod compare;
pub mod faults;
pub mod registry;
pub mod rss;
pub mod schemes;
pub mod spec;

pub use batch::{
    job_seed, run_batch, run_batch_controlled, run_batch_results, run_batch_telemetry, BatchRun,
    BatchSummary, JobRecord, RunControl, ShardRecord, SummaryRow,
};
pub use checkpoint::{
    crc32, load_checkpoint, manifest_for, CheckpointWriteStats, CheckpointWriter, LoadedCheckpoint,
    Manifest, WriteFaults,
};
pub use compare::{compare_jsonl, CompareReport, MetricDiff};
pub use faults::{FaultPlan, ResolvedFaults};
pub use insomnia_telemetry::{ProfileReport, Telemetry};
pub use registry::{Preset, Registry};
pub use rss::{check_rss_budget, peak_rss_mib};
pub use schemes::{parse_scheme, parse_scheme_list, scheme_key};
pub use spec::{AdaptiveSoiSpec, Bh2Spec, PowerStatesSpec, ScenarioSpec, SurgeSpec};
