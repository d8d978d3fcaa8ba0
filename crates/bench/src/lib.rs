//! # insomnia-bench
//!
//! The figure/table harness of the reproduction: [`figures`] builds the
//! data behind every figure and table in the paper's evaluation; the
//! `figures` binary prints them (either by simulating, or — via
//! `--from-jsonl` and [`from_jsonl`] — by replaying a finished batch
//! record, so giga/tera-metro runs are plotted without re-simulating).
//! Performance is measured by perfbench and `insomnia profile`, not here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod from_jsonl;

pub use figures::{Harness, MainRuns};
pub use from_jsonl::{parse_jsonl, JsonlReport};
