//! Flow records: the unit of traffic this reproduction simulates.
//!
//! The paper's own testbed replays traces at flow granularity ("for each
//! flow, we record the timestamp t and the amount of bytes b ... and we
//! replay it", §5.3), so a flow-level model is faithful by construction.
//! Packet-level behaviour only matters through inter-burst gaps, which the
//! generators model explicitly (see [`crate::gaps`]).

use crate::ids::ClientId;
use insomnia_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// What kind of traffic a flow represents. The simulator treats all kinds
/// identically for bandwidth sharing; generators use the kind to pick sizes
/// and timing, and analyses can slice metrics by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowKind {
    /// Background presence traffic: keep-alives, IM/email polling, NTP.
    /// A few hundred bytes, but constantly present while a terminal is on —
    /// the paper's "continuous light traffic" that defeats Sleep-on-Idle.
    Keepalive,
    /// Interactive web-ish request/response bursts (tens of kB, Pareto tail).
    Web,
    /// Longer media/streaming sessions (hundreds of kB to tens of MB).
    Media,
    /// Bulk downloads (software updates, file transfers).
    Bulk,
}

/// One downlink transfer initiated by a client.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// The client that requests (and receives) this flow.
    pub client: ClientId,
    /// Arrival time of the request.
    pub start: SimTime,
    /// Downlink payload size in bytes.
    pub bytes: u64,
    /// Traffic class.
    pub kind: FlowKind,
}
