//! The scheme zoo of §5.1: what aggregates user traffic, what switches
//! lines at the DSLAM, and how gateways sleep.

use serde::{Deserialize, Serialize};
use std::fmt;

/// User-side traffic aggregation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Aggregation {
    /// Clients always use their home gateway (no-sleep and SoI schemes).
    HomeOnly,
    /// The distributed BH2 algorithm with the given number of backups.
    Bh2 {
        /// Minimum backup gateways (0 = the "BH2 w/o backup" variant).
        backup: usize,
    },
    /// Centralized ILP re-solved periodically with instant migration.
    Optimal,
}

/// ISP-side switching capability at the HDF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FabricKind {
    /// Fixed random wiring (today's plant).
    Fixed,
    /// k-switches of the configured size.
    KSwitch,
    /// Idealized any-to-any switch.
    Full,
}

/// How (and whether) gateways sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SleepPolicy {
    /// Gateways never sleep (the comparison baseline).
    Never,
    /// Sleep-on-Idle with the scenario's fixed timeout, entering the
    /// deepest ladder level directly — the paper's binary on/off model
    /// whenever the ladder is the 2-state degenerate case.
    Fixed,
    /// Sleep into the *shallowest* doze level and descend one level per
    /// elapsed dwell; the wake cost depends on the depth reached.
    MultiDoze,
    /// Sleep-on-Idle whose timeout adapts per gateway from observed flow
    /// inter-arrival gaps (clamped to the scenario's bounds).
    Adaptive,
}

impl SleepPolicy {
    /// True for every policy under which gateways may sleep at all.
    pub fn enabled(self) -> bool {
        self != SleepPolicy::Never
    }
}

/// A complete scheme: aggregation + fabric + sleep policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemeSpec {
    /// User-side policy.
    pub aggregation: Aggregation,
    /// ISP-side fabric.
    pub fabric: FabricKind,
    /// Gateway sleep policy ([`SleepPolicy::Never`] only for the no-sleep
    /// baseline).
    pub sleep: SleepPolicy,
}

impl SchemeSpec {
    /// Whether SoI is enabled at all (false only for the no-sleep baseline).
    pub fn sleep_enabled(&self) -> bool {
        self.sleep.enabled()
    }

    /// Today's operation: nothing sleeps (the comparison baseline).
    pub fn no_sleep() -> Self {
        SchemeSpec {
            aggregation: Aggregation::HomeOnly,
            fabric: FabricKind::Fixed,
            sleep: SleepPolicy::Never,
        }
    }

    /// Plain Sleep-on-Idle.
    pub fn soi() -> Self {
        SchemeSpec {
            aggregation: Aggregation::HomeOnly,
            fabric: FabricKind::Fixed,
            sleep: SleepPolicy::Fixed,
        }
    }

    /// SoI with k-switches at the HDF.
    pub fn soi_k_switch() -> Self {
        SchemeSpec {
            aggregation: Aggregation::HomeOnly,
            fabric: FabricKind::KSwitch,
            sleep: SleepPolicy::Fixed,
        }
    }

    /// SoI with a full switch (§5.2.3's SoI+full-switch data point).
    pub fn soi_full_switch() -> Self {
        SchemeSpec {
            aggregation: Aggregation::HomeOnly,
            fabric: FabricKind::Full,
            sleep: SleepPolicy::Fixed,
        }
    }

    /// BH2 (one backup) with k-switches — the paper's headline scheme.
    pub fn bh2_k_switch() -> Self {
        SchemeSpec {
            aggregation: Aggregation::Bh2 { backup: 1 },
            fabric: FabricKind::KSwitch,
            sleep: SleepPolicy::Fixed,
        }
    }

    /// BH2 without backups (fairness/QoS comparison variant).
    pub fn bh2_no_backup_k_switch() -> Self {
        SchemeSpec {
            aggregation: Aggregation::Bh2 { backup: 0 },
            fabric: FabricKind::KSwitch,
            sleep: SleepPolicy::Fixed,
        }
    }

    /// BH2 with a full switch (§5.2.3's BH2+full-switch data point).
    pub fn bh2_full_switch() -> Self {
        SchemeSpec {
            aggregation: Aggregation::Bh2 { backup: 1 },
            fabric: FabricKind::Full,
            sleep: SleepPolicy::Fixed,
        }
    }

    /// The centralized upper bound.
    pub fn optimal() -> Self {
        SchemeSpec {
            aggregation: Aggregation::Optimal,
            fabric: FabricKind::Full,
            sleep: SleepPolicy::Fixed,
        }
    }

    /// SoI descending the doze ladder as idle time grows: cheap shallow
    /// wakes for briefly-idle gateways, full savings for long-idle ones.
    pub fn multi_doze() -> Self {
        SchemeSpec {
            aggregation: Aggregation::HomeOnly,
            fabric: FabricKind::Fixed,
            sleep: SleepPolicy::MultiDoze,
        }
    }

    /// SoI with a per-gateway timeout adapted from observed inter-arrival
    /// gaps: bursty gateways keep a long fuse, quiet ones sleep sooner.
    pub fn adaptive_soi() -> Self {
        SchemeSpec {
            aggregation: Aggregation::HomeOnly,
            fabric: FabricKind::Fixed,
            sleep: SleepPolicy::Adaptive,
        }
    }
}

impl fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.sleep.enabled() {
            return write!(f, "no-sleep");
        }
        let agg = match (self.sleep, self.aggregation) {
            (SleepPolicy::MultiDoze, Aggregation::HomeOnly) => "Multi-doze".to_string(),
            (SleepPolicy::Adaptive, Aggregation::HomeOnly) => "Adaptive SoI".to_string(),
            (_, Aggregation::HomeOnly) => "SoI".to_string(),
            (_, Aggregation::Bh2 { backup: 0 }) => "BH2(no backup)".to_string(),
            (_, Aggregation::Bh2 { backup }) => format!("BH2({backup} backup)"),
            (_, Aggregation::Optimal) => "Optimal".to_string(),
        };
        let sleep = match (self.sleep, self.aggregation) {
            // HomeOnly folds the policy into the name above; any other
            // aggregation carries it as a suffix.
            (SleepPolicy::MultiDoze, a) if a != Aggregation::HomeOnly => " (multi-doze)",
            (SleepPolicy::Adaptive, a) if a != Aggregation::HomeOnly => " (adaptive)",
            _ => "",
        };
        let fab = match self.fabric {
            FabricKind::Fixed => "",
            FabricKind::KSwitch => " + k-switch",
            FabricKind::Full => " + full-switch",
        };
        write!(f, "{agg}{sleep}{fab}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_are_descriptive() {
        assert_eq!(SchemeSpec::no_sleep().to_string(), "no-sleep");
        assert_eq!(SchemeSpec::soi().to_string(), "SoI");
        assert_eq!(SchemeSpec::soi_k_switch().to_string(), "SoI + k-switch");
        assert_eq!(SchemeSpec::bh2_k_switch().to_string(), "BH2(1 backup) + k-switch");
        assert_eq!(SchemeSpec::bh2_no_backup_k_switch().to_string(), "BH2(no backup) + k-switch");
        assert_eq!(SchemeSpec::optimal().to_string(), "Optimal + full-switch");
        assert_eq!(SchemeSpec::multi_doze().to_string(), "Multi-doze");
        assert_eq!(SchemeSpec::adaptive_soi().to_string(), "Adaptive SoI");
    }

    #[test]
    fn no_sleep_never_sleeps() {
        assert!(!SchemeSpec::no_sleep().sleep_enabled());
        assert!(SchemeSpec::soi().sleep_enabled());
        assert!(SchemeSpec::multi_doze().sleep_enabled());
        assert!(SchemeSpec::adaptive_soi().sleep_enabled());
    }

    #[test]
    fn legacy_schemes_keep_the_fixed_policy() {
        // Every pre-ladder scheme sleeps straight into the deepest level —
        // the degenerate case the goldens pin.
        for s in [
            SchemeSpec::soi(),
            SchemeSpec::soi_k_switch(),
            SchemeSpec::soi_full_switch(),
            SchemeSpec::bh2_k_switch(),
            SchemeSpec::bh2_no_backup_k_switch(),
            SchemeSpec::bh2_full_switch(),
            SchemeSpec::optimal(),
        ] {
            assert_eq!(s.sleep, SleepPolicy::Fixed, "{s}");
        }
    }
}
