//! # insomnia-traffic
//!
//! Traffic substrate for the *Insomnia in the Access* reproduction: trace
//! containers plus synthetic equivalents of the two datasets the paper
//! measures but cannot redistribute.
//!
//! * [`crawdad`] synthesizes the UCSD CRAWDAD-like wireless day (272
//!   clients, 40 APs, 24 h) that drives the main evaluation (Figs. 3, 4,
//!   6–10, 12). Calibration targets come from every aggregate the paper
//!   reports about the real trace.
//! * [`adsl`] synthesizes the 10K-subscriber residential utilization
//!   dataset behind Fig. 2.
//! * [`stats`] computes the paper's measurement figures from any trace
//!   (utilization series, idle-gap histograms, per-client demands).
//!
//! The model is flow-level on purpose: the paper's own testbed replays its
//! traces at flow granularity (§5.3), and packet-level effects only enter
//! the evaluation through inter-burst gaps, which [`gaps::GapModel`]
//! represents explicitly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adsl;
pub mod crawdad;
pub mod diurnal;
pub mod flow;
pub mod gaps;
pub mod ids;
pub mod merge;
pub mod session;
pub mod stats;
pub mod stream;
pub mod trace;

pub use adsl::{AdslConfig, AdslPopulation, Direction};
pub use crawdad::{CrawdadConfig, SurgeWindow};
pub use diurnal::{DiurnalKind, DiurnalProfile};
pub use flow::{FlowKind, FlowRecord};
pub use gaps::{GapModel, GapThresholds};
pub use ids::{ApId, ClientId};
pub use session::Session;
pub use stream::FlowStream;
pub use trace::Trace;
