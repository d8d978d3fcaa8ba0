//! # insomnia-wireless
//!
//! Wireless substrate for the *Insomnia in the Access* reproduction:
//!
//! * [`topology`] — client↔gateway reachability with per-link rates (the
//!   `w_ij` of the paper's Eq. 1),
//! * [`degree`] — Viger–Latapy-style random simple connected graphs with a
//!   prescribed degree sequence, used for the gateway overlap graph,
//! * [`builder`] — the paper's two topology settings: household overlap
//!   (mean 5.6 networks in range) and binomial density sweeps (Fig. 10),
//! * [`seqnum`] — passive load estimation from 802.11 MAC sequence numbers,
//! * [`estimator`] — byte-based sliding-window load tracking,
//! * [`shard`] — splitting one scenario's population into independent
//!   DSLAM-neighborhood shards, each with its own (small) topology.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod channel;
pub mod degree;
pub mod estimator;
pub mod seqnum;
pub mod shard;
pub mod topology;

pub use builder::{binomial_topology, overlap_topology};
pub use channel::ChannelModel;
pub use degree::{household_degree_sequence, is_graphical, prescribed_degree_graph, Graph};
pub use estimator::LoadWindow;
pub use seqnum::{SeqCounter, SeqNumEstimator, SEQ_MODULUS};
pub use shard::{
    max_per_shard, min_per_shard, shard_spans, topology_pair_count, ShardSpan, MAX_TOPOLOGY_PAIRS,
};
pub use topology::{Link, Topology};
