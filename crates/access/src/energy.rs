//! Energy bookkeeping: per-component breakdown and savings arithmetic.
//!
//! The evaluation's headline metric is "total energy savings of a scheme
//! with respect to a no-sleep operation" (§5.1), broken down between the
//! user part (gateways) and the ISP part (modems + line cards + shelf) —
//! the split behind Fig. 8 and the ⅔-user/⅓-ISP summary. `user_j`
//! integrates each gateway's power meter, so multi-level doze draws
//! ([`crate::power::PowerLadder`]) flow into the breakdown with no change
//! here: a doze level is just another metered wattage.

use crate::power::PowerModel;
use serde::{Deserialize, Serialize};

/// Energy consumed over a window, by component, in joules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// User gateways.
    pub user_j: f64,
    /// ISP-side per-port modems.
    pub modems_j: f64,
    /// ISP-side line cards.
    pub cards_j: f64,
    /// DSLAM shelf.
    pub shelf_j: f64,
}

impl EnergyBreakdown {
    /// ISP-side total.
    pub fn isp_j(&self) -> f64 {
        self.modems_j + self.cards_j + self.shelf_j
    }

    /// Grand total.
    pub fn total_j(&self) -> f64 {
        self.user_j + self.isp_j()
    }

    /// The no-sleep baseline over a window of `seconds`.
    pub fn no_sleep(power: &PowerModel, n_gateways: usize, n_cards: usize, seconds: f64) -> Self {
        EnergyBreakdown {
            user_j: power.no_sleep_user_w(n_gateways) * seconds,
            modems_j: power.isp_modem_w * n_gateways as f64 * seconds,
            cards_j: power.line_card_w * n_cards as f64 * seconds,
            shelf_j: power.shelf_w * seconds,
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            user_j: self.user_j + other.user_j,
            modems_j: self.modems_j + other.modems_j,
            cards_j: self.cards_j + other.cards_j,
            shelf_j: self.shelf_j + other.shelf_j,
        }
    }
}

/// Converts joules to kWh (for reporting).
pub fn joules_to_kwh(j: f64) -> f64 {
    j / 3.6e6
}

/// Converts a mean power in watts over a year to TWh/year (for the paper's
/// §5.4 world-wide extrapolation).
pub fn watts_to_twh_per_year(w: f64) -> f64 {
    w * 8_760.0 / 1e12 * 1e-3 * 1e3 // W × hours/year → Wh → TWh
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_shares() {
        let e = EnergyBreakdown { user_j: 100.0, modems_j: 10.0, cards_j: 50.0, shelf_j: 40.0 };
        assert_eq!(e.isp_j(), 100.0);
        assert_eq!(e.total_j(), 200.0);
    }

    #[test]
    fn no_sleep_baseline_matches_power_model() {
        let p = PowerModel::default();
        let base = EnergyBreakdown::no_sleep(&p, 40, 4, 3_600.0);
        // 813 W × 3600 s.
        assert!((base.total_j() - 813.0 * 3_600.0).abs() < 1e-6);
        assert!((base.user_j - 360.0 * 3_600.0).abs() < 1e-6);
    }

    #[test]
    fn unit_conversions() {
        assert!((joules_to_kwh(3.6e6) - 1.0).abs() < 1e-12);
        // 1 GW sustained ≈ 8.76 TWh/year.
        assert!((watts_to_twh_per_year(1e9) - 8.76).abs() < 1e-9);
    }

    #[test]
    fn plus_adds_componentwise() {
        let a = EnergyBreakdown { user_j: 1.0, modems_j: 2.0, cards_j: 3.0, shelf_j: 4.0 };
        let b = a;
        let sum = a.plus(&b);
        assert_eq!(sum.total_j(), 20.0);
        assert_eq!(sum.shelf_j, 8.0);
    }
}
