//! Error type shared by the workspace's configuration/validation paths.

use std::fmt;

/// Errors surfaced by simulation components.
///
/// Runtime simulation code prefers panics for *programming* errors (causality
/// violations, impossible states) and `SimError` for *user input* problems
/// (bad configuration, malformed traces) that a caller can reasonably handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A configuration value is out of its valid domain.
    InvalidConfig(String),
    /// An input artifact (trace file, topology) failed validation.
    InvalidInput(String),
    /// A solver or iterative procedure exhausted its budget without a
    /// feasible/optimal answer.
    BudgetExhausted(String),
    /// A worker task kept failing after its bounded retries were spent.
    /// The message names the failed (repetition × shard) span so operators
    /// know exactly which task to investigate; any checkpoint written so
    /// far remains valid for `--resume`.
    TaskFailed(String),
    /// The run was interrupted (e.g. SIGINT) after flushing in-flight
    /// state; a checkpointed run can continue with `--resume`.
    Interrupted(String),
    /// Writing a run's output failed (a closed pipe, a full disk); the
    /// message names the write.
    Io(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            SimError::BudgetExhausted(msg) => write!(f, "budget exhausted: {msg}"),
            SimError::TaskFailed(msg) => write!(f, "task failed: {msg}"),
            SimError::Interrupted(msg) => write!(f, "interrupted: {msg}"),
            SimError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience alias used across the workspace.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::InvalidConfig("q must be in (0,1]".into());
        assert_eq!(e.to_string(), "invalid configuration: q must be in (0,1]");
        let e = SimError::InvalidInput("empty trace".into());
        assert!(e.to_string().contains("empty trace"));
        let e = SimError::BudgetExhausted("B&B nodes".into());
        assert!(e.to_string().contains("B&B nodes"));
        let e = SimError::TaskFailed("rep 1 shard 3".into());
        assert_eq!(e.to_string(), "task failed: rep 1 shard 3");
        let e = SimError::Interrupted("SIGINT".into());
        assert_eq!(e.to_string(), "interrupted: SIGINT");
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SimError::InvalidConfig("x".into()));
    }
}
