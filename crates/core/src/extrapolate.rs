//! World-wide savings extrapolation (§5.4 / §1).
//!
//! "Extrapolating to all DSL users world-wide, assuming comparable link
//! utilizations and wireless gateway density that we observe, the savings
//! collectively amount to about 33 TWh per year, comparable to the output
//! of 3 nuclear power plants in the US."

use insomnia_access::PowerModel;
use serde::{Deserialize, Serialize};

/// Extrapolation inputs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldModel {
    /// DSL subscribers world-wide (paper: >320 million, Point Topic Q3'10).
    pub subscribers: f64,
    /// Ports per line card (amortizes the card's 98 W).
    pub ports_per_card: usize,
    /// Subscribers per DSLAM shelf (amortizes the shelf's 21 W).
    pub subscribers_per_shelf: usize,
}

impl Default for WorldModel {
    fn default() -> Self {
        WorldModel { subscribers: 320.0e6, ports_per_card: 12, subscribers_per_shelf: 48 }
    }
}

impl WorldModel {
    /// Always-on draw attributable to one subscriber, watts.
    pub fn per_subscriber_w(&self, power: &PowerModel) -> f64 {
        power.gateway_on_w
            + power.isp_modem_w
            + power.line_card_w / self.ports_per_card as f64
            + power.shelf_w / self.subscribers_per_shelf as f64
    }

    /// World-wide yearly savings in TWh at a given savings fraction.
    pub fn savings_twh_per_year(&self, power: &PowerModel, savings_fraction: f64) -> f64 {
        assert!((0.0..=1.0).contains(&savings_fraction));
        let saved_w = self.subscribers * self.per_subscriber_w(power) * savings_fraction;
        insomnia_access::watts_to_twh_per_year(saved_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_subscriber_power_is_about_18_6_w() {
        let w = WorldModel::default().per_subscriber_w(&PowerModel::default());
        // 9 + 1 + 98/12 + 21/48 ≈ 18.6 W.
        assert!((w - 18.604).abs() < 0.01, "got {w}");
    }

    #[test]
    fn paper_headline_33_twh() {
        let m = WorldModel::default();
        let twh = m.savings_twh_per_year(&PowerModel::default(), 0.66);
        assert!((twh - 33.0).abs() < 2.5, "66% savings ⇒ {twh:.1} TWh/yr (paper: ≈33)");
        // And the margin (80%) lands ≈ 42 TWh.
        let margin = m.savings_twh_per_year(&PowerModel::default(), 0.80);
        assert!(margin > twh);
        assert!((margin - 41.7).abs() < 2.5, "got {margin:.1}");
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_fraction() {
        WorldModel::default().savings_twh_per_year(&PowerModel::default(), 1.5);
    }
}
