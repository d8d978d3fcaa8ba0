//! Completion-time accounting with bounded memory.
//!
//! The paper's Fig. 9a is a distribution statement over per-flow completion
//! times. Storing one `Option<f64>` per trace flow is fine for the §5.1
//! building (2 × 10⁵ flows) but caps sharded worlds near the 10⁵-client
//! `dense-metro` preset; a mega-city day generates 10⁸ flows. This module
//! keeps exactly one store per run, chosen by the scenario's
//! [`completion_cutoff`](crate::ScenarioConfig::completion_cutoff):
//!
//! * while the flow count fits under the cutoff, the per-flow vector behind
//!   the Fig. 9a *pairing* (matching the same trace flow across schemes) is
//!   the store, and quantiles sort its completed entries exactly,
//! * past it, a [`QuantileSketch`] is the store (exact while the completions
//!   still fit under the cutoff, `O(buckets)` log-bucket counters above),
//! * merging (across shards, then across repetitions) concatenates
//!   per-flow vectors while the pooled flow count fits and otherwise moves
//!   every completion into one sketch — the sketch a single run over the
//!   pooled samples would have built.

use insomnia_simcore::QuantileSketch;
use serde::{Deserialize, Serialize};

/// Completion-time statistics of one run (or a merge of runs).
///
/// The serialized form is the exact private state (flow totals and the one
/// store), so a checkpointed or remotely-computed `CompletionStats` resumes
/// `absorb`ing bit-for-bit where it stopped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompletionStats {
    /// Trace flows the run was driven by (completed or not).
    total_flows: u64,
    /// Flows that completed by the horizon.
    completed: u64,
    /// Exact-mode cutoff: per-flow retention while `total_flows` fits under
    /// it, exact sketch quantiles while `completed` does.
    cutoff: usize,
    store: Store,
}

/// Where completion times live; never both at once.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Store {
    /// Per-flow samples (`None` = unfinished by the horizon), indexed by
    /// trace-flow position.
    PerFlow(Vec<Option<f64>>),
    /// Completed-flow durations only, once per-flow retention ended.
    Sketch(QuantileSketch),
}

impl Store {
    /// The completions as a sketch; per-flow samples move into a fresh one.
    fn into_sketch(self, cutoff: usize) -> QuantileSketch {
        match self {
            Store::Sketch(sketch) => sketch,
            Store::PerFlow(samples) => {
                let mut sketch = QuantileSketch::new(cutoff);
                for secs in samples.into_iter().flatten() {
                    sketch.push(secs);
                }
                sketch
            }
        }
    }
}

impl CompletionStats {
    /// Accounting for a run over `n_flows` trace flows with the given
    /// exact-mode cutoff (`0` = sketch-only from the first sample).
    pub fn new(n_flows: usize, cutoff: usize) -> Self {
        let store = if n_flows <= cutoff {
            Store::PerFlow(vec![None; n_flows])
        } else {
            Store::Sketch(QuantileSketch::new(cutoff))
        };
        CompletionStats { total_flows: n_flows as u64, completed: 0, cutoff, store }
    }

    /// Wraps an existing per-flow vector (tests and single-run adapters).
    pub fn from_samples(samples: Vec<Option<f64>>, cutoff: usize) -> Self {
        let mut stats = CompletionStats::new(samples.len(), cutoff);
        for (idx, s) in samples.into_iter().enumerate() {
            if let Some(secs) = s {
                stats.record(idx, secs);
            }
        }
        stats
    }

    /// Records the completion of trace flow `trace_idx` after `secs`.
    ///
    /// Non-finite or negative durations are dropped (and are loud in debug
    /// builds): a per-flow entry the sketch tier would never count would
    /// silently skew `completed_frac` against the Fig. 9a pairing.
    pub fn record(&mut self, trace_idx: usize, secs: f64) {
        debug_assert!(
            secs.is_finite() && secs >= 0.0,
            "completion time must be a finite non-negative duration, got {secs}"
        );
        if !secs.is_finite() || secs < 0.0 {
            return;
        }
        self.completed += 1;
        match &mut self.store {
            Store::PerFlow(samples) => samples[trace_idx] = Some(secs),
            Store::Sketch(sketch) => sketch.push(secs),
        }
    }

    /// Merges another run's accounting into this one. Per-flow vectors
    /// concatenate in call order (shard order, then repetition order — the
    /// layout the Fig. 9a pairing relies on) while the combined flow count
    /// fits under the smaller cutoff; otherwise every completion moves into
    /// one sketch.
    pub fn absorb(&mut self, other: CompletionStats) {
        self.total_flows += other.total_flows;
        self.completed += other.completed;
        self.cutoff = self.cutoff.min(other.cutoff);
        let mine = std::mem::replace(&mut self.store, Store::PerFlow(Vec::new()));
        self.store = match (mine, other.store) {
            (Store::PerFlow(mut a), Store::PerFlow(b))
                if self.total_flows <= self.cutoff as u64 =>
            {
                a.extend(b);
                Store::PerFlow(a)
            }
            (mine, theirs) => {
                let mut sketch = mine.into_sketch(self.cutoff);
                sketch.merge(&theirs.into_sketch(self.cutoff));
                Store::Sketch(sketch)
            }
        };
    }

    /// Pools a slice of per-repetition stats into one aggregate.
    pub fn pooled(reps: &[CompletionStats]) -> CompletionStats {
        let mut iter = reps.iter();
        let Some(first) = iter.next() else {
            return CompletionStats::new(0, 0);
        };
        let mut out = first.clone();
        for r in iter {
            out.absorb(r.clone());
        }
        out
    }

    /// Trace flows driven (completed + unfinished).
    pub fn total_flows(&self) -> u64 {
        self.total_flows
    }

    /// Flows that completed by the horizon.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Completed fraction; `None` when the run drove no flows.
    pub fn completed_frac(&self) -> Option<f64> {
        if self.total_flows == 0 {
            None
        } else {
            Some(self.completed as f64 / self.total_flows as f64)
        }
    }

    /// True while quantiles are exact (every completion held raw).
    pub fn is_exact(&self) -> bool {
        match &self.store {
            Store::PerFlow(_) => true,
            Store::Sketch(sketch) => sketch.is_exact(),
        }
    }

    /// The exact-mode cutoff.
    pub fn cutoff(&self) -> usize {
        self.cutoff
    }

    /// Completion-time quantiles, seconds; `None` entries when no flow
    /// completed. See [`QuantileSketch::quantiles`] for the rank rule.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<Option<f64>> {
        match &self.store {
            Store::PerFlow(samples) => {
                QuantileSketch::exact_quantiles(samples.iter().flatten().copied().collect(), qs)
            }
            Store::Sketch(sketch) => sketch.quantiles(qs),
        }
    }

    /// Single quantile, seconds.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.quantiles(&[q])[0]
    }

    /// Per-flow completion times when retained (small runs); `None` once
    /// the flow count crossed the cutoff and only the sketch survives.
    pub fn per_flow(&self) -> Option<&[Option<f64>]> {
        match &self.store {
            Store::PerFlow(samples) => Some(samples),
            Store::Sketch(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_runs_retain_per_flow_samples() {
        let mut s = CompletionStats::new(4, 100);
        s.record(2, 1.5);
        s.record(0, 0.5);
        assert_eq!(s.total_flows(), 4);
        assert_eq!(s.completed(), 2);
        assert_eq!(s.completed_frac(), Some(0.5));
        assert!(s.is_exact());
        assert_eq!(s.per_flow(), Some(&[Some(0.5), None, Some(1.5), None][..]));
        assert_eq!(s.quantile(1.0), Some(1.5));
    }

    #[test]
    fn zero_cutoff_never_retains() {
        let mut s = CompletionStats::new(3, 0);
        s.record(1, 2.0);
        assert!(s.per_flow().is_none());
        assert!(!s.is_exact());
        assert_eq!(s.completed(), 1);
    }

    #[test]
    fn absorb_concatenates_until_the_cutoff() {
        let mut a = CompletionStats::from_samples(vec![Some(1.0), None], 8);
        let b = CompletionStats::from_samples(vec![Some(3.0)], 8);
        a.absorb(b);
        assert_eq!(a.total_flows(), 3);
        assert_eq!(a.per_flow(), Some(&[Some(1.0), None, Some(3.0)][..]));

        // Crossing the cutoff drops the vector but keeps the counts.
        let big = CompletionStats::from_samples(vec![Some(0.1); 6], 8);
        a.absorb(big);
        assert_eq!(a.total_flows(), 9);
        assert!(a.per_flow().is_none());
        assert_eq!(a.completed(), 8);
    }

    #[test]
    fn pooled_matches_sequential_absorbs() {
        let reps: Vec<CompletionStats> = (0..3)
            .map(|r| {
                CompletionStats::from_samples(
                    (0..5).map(|i| Some((r * 5 + i) as f64 * 0.1)).collect(),
                    1_000,
                )
            })
            .collect();
        let pooled = CompletionStats::pooled(&reps);
        assert_eq!(pooled.total_flows(), 15);
        assert_eq!(pooled.completed(), 15);
        assert_eq!(pooled.quantile(0.0), Some(0.0));
        assert_eq!(pooled.quantile(1.0), Some(14.0 * 0.1));
        let empty = CompletionStats::pooled(&[]);
        assert_eq!(empty.total_flows(), 0);
        assert_eq!(empty.completed_frac(), None);
    }

    #[test]
    fn wire_form_roundtrips_and_keeps_absorbing_identically() {
        use serde::{Deserialize as _, Serialize as _};

        // Exact tier: unfinished flows (None) and samples both survive.
        let exact = CompletionStats::from_samples(vec![Some(1.5), None, Some(0.25), None], 1_000);
        let back = CompletionStats::from_value(&exact.to_value()).expect("roundtrip");
        assert_eq!(back.total_flows(), exact.total_flows());
        assert_eq!(back.completed(), exact.completed());
        assert_eq!(back.per_flow(), exact.per_flow());

        // Sketch-only tier: a rebuilt stats keeps absorbing bit-for-bit.
        let sketchy = CompletionStats::from_samples(
            (0..50).map(|i| Some(((i * 7) % 13) as f64 + 0.5)).collect(),
            8,
        );
        assert!(!sketchy.is_exact());
        let mut back = CompletionStats::from_value(&sketchy.to_value()).expect("roundtrip");
        assert!(back.per_flow().is_none());
        let extra = CompletionStats::from_samples(vec![Some(100.0)], 8);
        let mut direct = sketchy.clone();
        direct.absorb(extra.clone());
        back.absorb(extra);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(back.quantile(q), direct.quantile(q), "q {q}");
        }
        assert_eq!(back.total_flows(), direct.total_flows());
    }
}
