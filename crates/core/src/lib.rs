//! # insomnia-core
//!
//! The paper's contribution: the BH2 aggregation algorithm, the scheme zoo
//! of §5.1, the optimal ILP solver (Eq. 1), the flow-level trace-driven
//! simulation driver, and the metric pipelines behind Figs. 6–9 and 12.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bh2;
pub mod completion;
pub mod config;
pub mod driver;
pub mod extrapolate;
pub mod flows;
pub mod metrics;
pub mod optimal;
pub mod report;
pub mod schemes;
pub mod testbed;

pub use bh2::{decide, Bh2Decision, VisibleGateway};
pub use completion::CompletionStats;
pub use config::{
    AdaptiveSoiParams, Bh2Params, ScenarioConfig, TopologyKind, DEFAULT_COMPLETION_CUTOFF,
};
pub use driver::{
    build_world, build_world_shard, build_world_shard_streaming, run_scheme_task,
    run_single_source_threads, ArrivalSource, DriverStats, ProtoClaim, RunResult, SchemeFolder,
    SchemeResult, ShardSummary, ShardedWorld, TaskSetup, CHECKPOINT_SCHEMA_VERSION,
};
pub use extrapolate::WorldModel;
pub use insomnia_telemetry::RunCounters;
pub use metrics::{
    completion_quantiles, completion_variation_cdf, fraction_affected, hourly_means,
    isp_share_percent_series, online_time_quantiles, online_time_variation_cdf,
    savings_percent_series, summarize, window_mean, CompletionQuantiles, OnlineTimeQuantiles,
    SchemeSummary,
};
pub use optimal::{solve, SolverInput, SolverOutput};
pub use report::FigureData;
pub use schemes::{Aggregation, FabricKind, SchemeSpec, SleepPolicy};
pub use testbed::{run_testbed, TestbedConfig, TestbedResult};
