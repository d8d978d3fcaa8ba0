//! Deterministic work counters of one simulation run.
//!
//! Every field is a pure function of the event loop's delivered sequence —
//! never of wall-clock, thread count or completion order — so counters from
//! independent `(repetition × shard)` tasks can be [`RunCounters::merge`]d
//! in any order and still produce byte-identical totals (sums are
//! commutative, peaks take the max). `tests/determinism.rs` pins the
//! invariance at 1 vs 8 threads.

use serde::{Deserialize, Serialize};

/// Deterministic counters of one run (or an order-invariant merge of many).
/// Keys serialize in field order, so reordering the fields changes the wire form.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
// Every key is optional on input, so sidecars predating a counter still load.
#[serde(default)]
pub struct RunCounters {
    /// Trace-arrival events delivered.
    pub arrivals: u64,
    /// Flow-departure events delivered.
    pub departures: u64,
    /// Gateway wake-completion events delivered.
    pub wake_dones: u64,
    /// SoI idle-check events delivered.
    pub idle_checks: u64,
    /// BH2 per-terminal decision epochs delivered.
    pub bh2_ticks: u64,
    /// Optimal re-solves (one ILP solve per delivered `OptimalTick`).
    pub optimal_solves: u64,
    /// Metric-sampler events delivered.
    pub samples: u64,
    /// Multi-doze descent ticks delivered (one per doze-level descent).
    // Omitted when zero so pre-doze counter goldens keep their key set.
    #[serde(skip_serializing_if = "is_zero")]
    pub doze_ticks: u64,
    /// Departure events cancelled by gateway resyncs (superseded timers).
    pub cancelled_departures: u64,
    /// Idle-check events cancelled by re-arms.
    pub cancelled_idle_checks: u64,
    /// Doze-descent ticks cancelled by wakes.
    // Omitted when zero, like `doze_ticks`.
    #[serde(skip_serializing_if = "is_zero")]
    pub cancelled_doze_ticks: u64,
    /// Events scheduled, on the heap and the monotone lane together
    /// (delivered + cancelled + still pending at the horizon).
    pub heap_pushes: u64,
    /// Peak number of pending scheduler events, heap and monotone lane
    /// together, at any delivery (max over merges).
    pub peak_heap: u64,
    /// Flows the arrival source would yield over the whole day.
    pub flows_total: u64,
    /// Flows that completed by the horizon.
    pub flows_completed: u64,
    /// Peak concurrently-active (arrived, not completed) flows (max over
    /// merges).
    pub peak_active_flows: u64,
    /// Streaming-generator cursor refills (one lazy burst regeneration per
    /// refill; 0 on the materialized-trace path).
    pub stream_refills: u64,
    /// K-way-merge heap pops of the streaming generator (one per yielded
    /// flow; 0 on the materialized-trace path).
    pub merge_pops: u64,
    /// `(repetition × shard)` task results absorbed by the deterministic
    /// in-order folder (1 for a bare single run).
    pub fold_absorptions: u64,
    /// Worker-task attempts that panicked and were retried (a task retried
    /// twice counts 2). Retries replay the identical RNG stream, so this
    /// is pure observability — never part of result bytes.
    // Omitted when zero so fault-free runs (giga/tera goldens) keep their key set.
    #[serde(skip_serializing_if = "is_zero")]
    pub tasks_retried: u64,
    /// Faults a `FaultPlan`-style chaos harness injected (worker panics,
    /// checkpoint IO errors, torn tails).
    #[serde(skip_serializing_if = "is_zero")]
    pub faults_injected: u64,
    /// `(repetition × shard)` tasks replayed from a checkpoint instead of
    /// simulated on a `--resume` run.
    #[serde(skip_serializing_if = "is_zero")]
    pub tasks_resumed: u64,
    /// Shard prototypes built by the world-prototype cache (one real
    /// `FlowStream` setup pass each; 0 when the cache is inactive).
    // Omitted when zero, so cache-off runs keep their key set.
    #[serde(skip_serializing_if = "is_zero")]
    pub proto_cache_builds: u64,
    /// Tasks served a cached shard prototype instead of rebuilding it
    /// (`setup_ms = 0` attribution; 0 when the cache is inactive).
    #[serde(skip_serializing_if = "is_zero")]
    pub proto_cache_hits: u64,
}

/// `#[serde(skip_serializing_if)]` predicate of the omit-when-zero counters.
fn is_zero(n: &u64) -> bool {
    *n == 0
}

impl RunCounters {
    /// Total events delivered, summed over kinds.
    pub fn delivered(&self) -> u64 {
        self.arrivals
            + self.departures
            + self.wake_dones
            + self.idle_checks
            + self.bh2_ticks
            + self.optimal_solves
            + self.samples
            + self.doze_ticks
    }

    /// Total events cancelled, summed over kinds.
    pub fn cancelled(&self) -> u64 {
        self.cancelled_departures + self.cancelled_idle_checks + self.cancelled_doze_ticks
    }

    /// Absorbs another task's counters: sums everywhere, maxes on the two
    /// peak fields. Commutative and associative, so the merged total is
    /// independent of fold order and thread count.
    pub fn merge(&mut self, other: &RunCounters) {
        self.arrivals += other.arrivals;
        self.departures += other.departures;
        self.wake_dones += other.wake_dones;
        self.idle_checks += other.idle_checks;
        self.bh2_ticks += other.bh2_ticks;
        self.optimal_solves += other.optimal_solves;
        self.samples += other.samples;
        self.doze_ticks += other.doze_ticks;
        self.cancelled_departures += other.cancelled_departures;
        self.cancelled_idle_checks += other.cancelled_idle_checks;
        self.cancelled_doze_ticks += other.cancelled_doze_ticks;
        self.heap_pushes += other.heap_pushes;
        self.peak_heap = self.peak_heap.max(other.peak_heap);
        self.flows_total += other.flows_total;
        self.flows_completed += other.flows_completed;
        self.peak_active_flows = self.peak_active_flows.max(other.peak_active_flows);
        self.stream_refills += other.stream_refills;
        self.merge_pops += other.merge_pops;
        self.fold_absorptions += other.fold_absorptions;
        self.tasks_retried += other.tasks_retried;
        self.faults_injected += other.faults_injected;
        self.tasks_resumed += other.tasks_resumed;
        self.proto_cache_builds += other.proto_cache_builds;
        self.proto_cache_hits += other.proto_cache_hits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(k: u64) -> RunCounters {
        RunCounters {
            arrivals: k,
            departures: 2 * k,
            wake_dones: k / 2,
            idle_checks: 3 * k,
            bh2_ticks: k + 1,
            optimal_solves: k % 3,
            samples: 7,
            doze_ticks: 0,
            cancelled_departures: k / 4,
            cancelled_idle_checks: k / 5,
            cancelled_doze_ticks: 0,
            heap_pushes: 9 * k,
            peak_heap: 100 + k,
            flows_total: k,
            flows_completed: k.saturating_sub(1),
            peak_active_flows: 50 + (k % 17),
            stream_refills: k,
            merge_pops: k,
            fold_absorptions: 1,
            tasks_retried: 0,
            faults_injected: 0,
            tasks_resumed: 0,
            proto_cache_builds: 0,
            proto_cache_hits: 0,
        }
    }

    #[test]
    fn merge_is_order_invariant() {
        let parts: Vec<RunCounters> = (1..20).map(sample).collect();
        let mut fwd = RunCounters::default();
        for p in &parts {
            fwd.merge(p);
        }
        let mut bwd = RunCounters::default();
        for p in parts.iter().rev() {
            bwd.merge(p);
        }
        assert_eq!(fwd, bwd);
        assert_eq!(fwd.fold_absorptions, 19);
        assert_eq!(fwd.peak_heap, 119);
    }

    #[test]
    fn delivered_and_cancelled_sum_the_kinds() {
        let mut c = sample(10);
        assert_eq!(c.delivered(), 10 + 20 + 5 + 30 + 11 + 1 + 7);
        assert_eq!(c.cancelled(), 2 + 2);
        c.doze_ticks = 4;
        c.cancelled_doze_ticks = 3;
        assert_eq!(c.delivered(), 10 + 20 + 5 + 30 + 11 + 1 + 7 + 4);
        assert_eq!(c.cancelled(), 2 + 2 + 3);
    }

    #[test]
    fn serializes_to_a_stable_key_order() {
        let json = serde_json::to_string(&sample(3)).unwrap();
        assert!(json.starts_with("{\"arrivals\":3,"), "{json}");
        assert!(json.contains("\"fold_absorptions\":1"));
        let back: RunCounters = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sample(3));
    }

    #[test]
    fn an_empty_map_reads_as_default_counters() {
        let empty: RunCounters = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, RunCounters::default());
    }

    #[test]
    fn doze_fields_are_omitted_when_zero_and_roundtrip_when_set() {
        // Zero doze counters serialize to the exact legacy key set — the
        // invariant that keeps pre-doze counter goldens byte-identical.
        let legacy = serde_json::to_string(&sample(3)).unwrap();
        assert!(!legacy.contains("doze"), "{legacy}");

        let mut c = sample(3);
        c.doze_ticks = 11;
        c.cancelled_doze_ticks = 5;
        let json = serde_json::to_string(&c).unwrap();
        assert!(
            json.contains("\"samples\":7,\"doze_ticks\":11,\"cancelled_departures\""),
            "{json}"
        );
        assert!(json.contains("\"cancelled_idle_checks\":0,\"cancelled_doze_ticks\":5"), "{json}");
        let back: RunCounters = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        // Absent doze keys deserialize to zero (old sidecars stay readable).
        let old: RunCounters = serde_json::from_str(&legacy).unwrap();
        assert_eq!(old, sample(3));
    }

    #[test]
    fn recovery_fields_are_omitted_when_zero_and_roundtrip_when_set() {
        let legacy = serde_json::to_string(&sample(3)).unwrap();
        assert!(!legacy.contains("retried"), "{legacy}");
        assert!(!legacy.contains("faults"), "{legacy}");
        assert!(!legacy.contains("resumed"), "{legacy}");

        let mut c = sample(3);
        c.tasks_retried = 2;
        c.faults_injected = 3;
        c.tasks_resumed = 5;
        let json = serde_json::to_string(&c).unwrap();
        assert!(
            json.ends_with("\"tasks_retried\":2,\"faults_injected\":3,\"tasks_resumed\":5}"),
            "{json}"
        );
        let back: RunCounters = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        // Recovery counters never count as delivered simulation events.
        assert_eq!(back.delivered(), sample(3).delivered());

        let mut merged = sample(3);
        merged.merge(&c);
        assert_eq!(merged.tasks_retried, 2);
        assert_eq!(merged.faults_injected, 3);
        assert_eq!(merged.tasks_resumed, 5);
    }

    #[test]
    fn proto_cache_fields_are_omitted_when_zero_and_trail_the_recovery_keys() {
        let legacy = serde_json::to_string(&sample(3)).unwrap();
        assert!(!legacy.contains("proto_cache"), "{legacy}");

        let mut c = sample(3);
        c.tasks_resumed = 5;
        c.proto_cache_builds = 64;
        c.proto_cache_hits = 128;
        let json = serde_json::to_string(&c).unwrap();
        assert!(
            json.ends_with(
                "\"tasks_resumed\":5,\"proto_cache_builds\":64,\"proto_cache_hits\":128}"
            ),
            "{json}"
        );
        let back: RunCounters = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        // Cache accounting never counts as delivered simulation events, and
        // absent keys deserialize to zero (old sidecars stay readable).
        assert_eq!(back.delivered(), sample(3).delivered());
        let old: RunCounters = serde_json::from_str(&legacy).unwrap();
        assert_eq!(old, sample(3));

        let mut merged = sample(3);
        merged.merge(&c);
        assert_eq!(merged.proto_cache_builds, 64);
        assert_eq!(merged.proto_cache_hits, 128);
    }
}
