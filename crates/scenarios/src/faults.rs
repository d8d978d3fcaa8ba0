//! Deterministic fault injection for crash-safety testing.
//!
//! A [`FaultPlan`] (TOML `[faults]` table, `--faults FILE` on the CLI)
//! names the misfortunes a batch run must survive:
//!
//! ```toml
//! [faults]
//! panic_tasks = [3, 7]     # these global task ordinals panic...
//! panic_attempts = 1       # ...on their first N attempts (then succeed)
//! random_panics = 2        # plus this many seeded-random ordinals
//! seed = 2011              # seed of the random choice
//! io_error_tasks = [5]     # checkpoint writes that "fail" (record lost)
//! torn_tail_task = 9       # cut the checkpoint mid-line after this task
//! ```
//!
//! Ordinals are *global task ordinals*: tasks are the `(repetition ×
//! shard)` units of every job, numbered in job order (job 0's tasks
//! first). Injection is entirely deterministic — a plan plus a batch
//! yields the same faults at any thread count — and retried attempts
//! re-fork the task's RNG stream from scratch, so the chaos tests can
//! assert that a run with transient faults is byte-identical to a clean
//! one.

use insomnia_simcore::{SimError, SimResult, SimRng};
use serde::{Deserialize, Error, Value};
use std::collections::BTreeSet;

/// The declarative fault plan, straight from the `[faults]` TOML table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Global task ordinals whose simulation attempts panic.
    pub panic_tasks: Vec<usize>,
    /// How many consecutive attempts of each faulty task panic before it
    /// succeeds (default 1 — one retry recovers; set it at or above the
    /// runner's attempt budget to force a permanent failure).
    pub panic_attempts: u64,
    /// Additional panicking ordinals drawn uniformly (without
    /// replacement) from the batch's task range, seeded by `seed`.
    pub random_panics: usize,
    /// Seed of the random ordinal choice (default 0).
    pub seed: u64,
    /// Ordinals whose checkpoint record write fails (record dropped; the
    /// run continues and resume re-simulates the task).
    pub io_error_tasks: Vec<usize>,
    /// Ordinal after whose record the checkpoint file is torn mid-line.
    pub torn_tail_task: Option<usize>,
}

const FAULT_KEYS: &[&str] =
    &["panic_tasks", "panic_attempts", "random_panics", "seed", "io_error_tasks", "torn_tail_task"];

impl Deserialize for FaultPlan {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v.as_map().ok_or_else(|| Error::expected("map", v))?;
        for (key, _) in m {
            if !FAULT_KEYS.contains(&key.as_str()) {
                return Err(Error::new(&crate::spec::unknown_key_message(
                    &format!("unknown [faults] key `{key}`"),
                    key,
                    FAULT_KEYS,
                )));
            }
        }
        let opt = |name: &str| -> Option<&Value> { v.get(name) };
        fn field<T: Deserialize>(v: Option<&Value>, fallback: T) -> Result<T, Error> {
            match v {
                Some(v) => T::from_value(v),
                None => Ok(fallback),
            }
        }
        Ok(FaultPlan {
            panic_tasks: field(opt("panic_tasks"), Vec::new())?,
            panic_attempts: field(opt("panic_attempts"), 1)?,
            random_panics: field(opt("random_panics"), 0)?,
            seed: field(opt("seed"), 0)?,
            io_error_tasks: field(opt("io_error_tasks"), Vec::new())?,
            torn_tail_task: match opt("torn_tail_task") {
                Some(v) => Some(usize::from_value(v)?),
                None => None,
            },
        })
    }
}

impl FaultPlan {
    /// Parses a standalone fault-plan document: exactly one `[faults]`
    /// table, nothing else (a typo'd section fails loud, same policy as
    /// the scenario loader).
    pub fn from_toml(text: &str) -> SimResult<FaultPlan> {
        let doc: Value = toml::parse_document(text)
            .map_err(|e| SimError::InvalidInput(format!("fault plan: {e}")))?;
        let m = doc
            .as_map()
            .ok_or_else(|| SimError::InvalidInput("fault plan is not a table".into()))?;
        for (key, _) in m {
            if key != "faults" {
                return Err(SimError::InvalidInput(format!(
                    "fault plan has unknown section `{key}` (expected only [faults])"
                )));
            }
        }
        let faults = doc
            .get("faults")
            .ok_or_else(|| SimError::InvalidInput("fault plan has no [faults] table".into()))?;
        let plan = FaultPlan::from_value(faults)
            .map_err(|e| SimError::InvalidInput(format!("fault plan: {e}")))?;
        if plan.panic_attempts == 0 {
            return Err(SimError::InvalidInput(
                "fault plan: panic_attempts must be at least 1".into(),
            ));
        }
        Ok(plan)
    }

    /// Materializes the plan against a batch of `n_tasks` global task
    /// ordinals: resolves the seeded-random panics into concrete ordinals.
    pub fn resolve(&self, n_tasks: usize) -> ResolvedFaults {
        let mut panics: BTreeSet<usize> = self.panic_tasks.iter().copied().collect();
        if self.random_panics > 0 && n_tasks > 0 {
            let mut rng = SimRng::new(self.seed).fork_idx("faults", 0);
            let want = panics.len() + self.random_panics.min(n_tasks);
            while panics.len() < want.min(n_tasks) {
                panics.insert(rng.below_usize(n_tasks));
            }
        }
        ResolvedFaults {
            panics,
            panic_attempts: self.panic_attempts.max(1),
            io_error_tasks: self.io_error_tasks.iter().copied().collect(),
            torn_tail_task: self.torn_tail_task,
        }
    }
}

/// A fault plan materialized against one batch's task range.
#[derive(Debug, Clone, Default)]
pub struct ResolvedFaults {
    panics: BTreeSet<usize>,
    panic_attempts: u64,
    /// Checkpoint-write IO faults, by global ordinal.
    pub io_error_tasks: BTreeSet<usize>,
    /// Torn-tail injection point, by global ordinal.
    pub torn_tail_task: Option<usize>,
}

impl ResolvedFaults {
    /// Should attempt `attempt` (0-based) of global task `ordinal` panic?
    pub fn should_panic(&self, ordinal: usize, attempt: u64) -> bool {
        attempt < self.panic_attempts && self.panics.contains(&ordinal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_plan_with_defaults() {
        let plan = FaultPlan::from_toml(
            "[faults]\npanic_tasks = [3, 7]\nio_error_tasks = [5]\ntorn_tail_task = 9\n",
        )
        .unwrap();
        assert_eq!(plan.panic_tasks, vec![3, 7]);
        assert_eq!(plan.panic_attempts, 1);
        assert_eq!(plan.random_panics, 0);
        assert_eq!(plan.io_error_tasks, vec![5]);
        assert_eq!(plan.torn_tail_task, Some(9));

        let r = plan.resolve(16);
        assert!(r.should_panic(3, 0));
        assert!(!r.should_panic(3, 1), "retry attempt must succeed");
        assert!(!r.should_panic(4, 0));
        assert_eq!(r.torn_tail_task, Some(9));
    }

    #[test]
    fn rejects_unknown_keys_with_a_hint() {
        let err = FaultPlan::from_toml("[faults]\npanic_task = [1]\n").unwrap_err().to_string();
        assert!(err.contains("panic_task"), "{err}");
        assert!(err.contains("panic_tasks"), "should hint the close key: {err}");
        let err = FaultPlan::from_toml("[fault]\npanic_tasks = [1]\n").unwrap_err().to_string();
        assert!(err.contains("unknown section `fault`"), "{err}");
        let err = FaultPlan::from_toml("[faults]\npanic_attempts = 0\n").unwrap_err().to_string();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn random_panics_are_seeded_and_deterministic() {
        let plan = FaultPlan { random_panics: 3, seed: 42, ..FaultPlan::default() };
        let a: Vec<usize> = plan.resolve(100).panics.into_iter().collect();
        let b: Vec<usize> = plan.resolve(100).panics.into_iter().collect();
        assert_eq!(a, b, "same seed, same ordinals");
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&o| o < 100));
        let c: Vec<usize> =
            FaultPlan { seed: 43, ..plan.clone() }.resolve(100).panics.into_iter().collect();
        assert_ne!(a, c, "different seed, different ordinals");
        // More random panics than tasks saturates instead of spinning.
        let all: Vec<usize> =
            FaultPlan { random_panics: 10, ..plan }.resolve(4).panics.into_iter().collect();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }
}
