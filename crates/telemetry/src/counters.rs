//! Deterministic work counters of one simulation run.
//!
//! Every field is a pure function of the event loop's delivered sequence —
//! never of wall-clock, thread count or completion order — so counters from
//! independent `(repetition × shard)` tasks can be [`RunCounters::merge`]d
//! in any order and still produce byte-identical totals (sums are
//! commutative, peaks take the max). `tests/determinism.rs` pins the
//! invariance at 1 vs 8 threads.

use serde::{Deserialize, Error, Serialize, Value};

/// Deterministic counters of one run (or an order-invariant merge of many).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    pub doze_ticks: u64,
    /// Departure events cancelled by gateway resyncs (superseded timers).
    pub cancelled_departures: u64,
    /// Idle-check events cancelled by re-arms.
    pub cancelled_idle_checks: u64,
    /// Doze-descent ticks cancelled by wakes.
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
    pub tasks_retried: u64,
    /// Faults a `FaultPlan`-style chaos harness injected (worker panics,
    /// checkpoint IO errors, torn tails).
    pub faults_injected: u64,
    /// `(repetition × shard)` tasks replayed from a checkpoint instead of
    /// simulated on a `--resume` run.
    pub tasks_resumed: u64,
    /// Shard prototypes built by the world-prototype cache (one real
    /// `FlowStream` setup pass each; 0 when the cache is inactive).
    pub proto_cache_builds: u64,
    /// Tasks served a cached shard prototype instead of rebuilding it
    /// (`setup_ms = 0` attribution; 0 when the cache is inactive).
    pub proto_cache_hits: u64,
}

// Serialization is hand-written so the two doze fields are *omitted when
// zero*: every counter golden predating the doze ladder — and every run of
// a scheme that never dozes — stays byte-identical, while doze-scheme runs
// record their transitions. The legacy seventeen keys always serialize, in
// the historical order; absent doze keys deserialize to 0.
impl Serialize for RunCounters {
    fn to_value(&self) -> Value {
        let mut m: Vec<(String, Value)> = Vec::with_capacity(19);
        let mut put = |k: &str, v: u64| m.push((k.to_string(), Value::Int(v as i128)));
        put("arrivals", self.arrivals);
        put("departures", self.departures);
        put("wake_dones", self.wake_dones);
        put("idle_checks", self.idle_checks);
        put("bh2_ticks", self.bh2_ticks);
        put("optimal_solves", self.optimal_solves);
        put("samples", self.samples);
        if self.doze_ticks > 0 {
            put("doze_ticks", self.doze_ticks);
        }
        put("cancelled_departures", self.cancelled_departures);
        put("cancelled_idle_checks", self.cancelled_idle_checks);
        if self.cancelled_doze_ticks > 0 {
            put("cancelled_doze_ticks", self.cancelled_doze_ticks);
        }
        put("heap_pushes", self.heap_pushes);
        put("peak_heap", self.peak_heap);
        put("flows_total", self.flows_total);
        put("flows_completed", self.flows_completed);
        put("peak_active_flows", self.peak_active_flows);
        put("stream_refills", self.stream_refills);
        put("merge_pops", self.merge_pops);
        put("fold_absorptions", self.fold_absorptions);
        // Recovery counters follow the doze precedent: omitted when zero,
        // so every fault-free run — including the committed giga/tera
        // counter goldens — keeps the legacy key set byte-identical.
        if self.tasks_retried > 0 {
            put("tasks_retried", self.tasks_retried);
        }
        if self.faults_injected > 0 {
            put("faults_injected", self.faults_injected);
        }
        if self.tasks_resumed > 0 {
            put("tasks_resumed", self.tasks_resumed);
        }
        // World-prototype cache counters, same omit-when-zero contract:
        // cache-off runs (every pre-existing golden) keep their key set.
        if self.proto_cache_builds > 0 {
            put("proto_cache_builds", self.proto_cache_builds);
        }
        if self.proto_cache_hits > 0 {
            put("proto_cache_hits", self.proto_cache_hits);
        }
        Value::Map(m)
    }
}

impl Deserialize for RunCounters {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v.as_map().ok_or_else(|| Error::expected("map", v))?;
        let get = |name: &str| -> Result<u64, Error> {
            match m.iter().find(|(k, _)| k == name) {
                Some((_, v)) => u64::from_value(v),
                None => Ok(0),
            }
        };
        Ok(RunCounters {
            arrivals: get("arrivals")?,
            departures: get("departures")?,
            wake_dones: get("wake_dones")?,
            idle_checks: get("idle_checks")?,
            bh2_ticks: get("bh2_ticks")?,
            optimal_solves: get("optimal_solves")?,
            samples: get("samples")?,
            doze_ticks: get("doze_ticks")?,
            cancelled_departures: get("cancelled_departures")?,
            cancelled_idle_checks: get("cancelled_idle_checks")?,
            cancelled_doze_ticks: get("cancelled_doze_ticks")?,
            heap_pushes: get("heap_pushes")?,
            peak_heap: get("peak_heap")?,
            flows_total: get("flows_total")?,
            flows_completed: get("flows_completed")?,
            peak_active_flows: get("peak_active_flows")?,
            stream_refills: get("stream_refills")?,
            merge_pops: get("merge_pops")?,
            fold_absorptions: get("fold_absorptions")?,
            tasks_retried: get("tasks_retried")?,
            faults_injected: get("faults_injected")?,
            tasks_resumed: get("tasks_resumed")?,
            proto_cache_builds: get("proto_cache_builds")?,
            proto_cache_hits: get("proto_cache_hits")?,
        })
    }
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
