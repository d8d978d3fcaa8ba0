//! Power model of the access network's devices.
//!
//! All values default to the paper's measurements (§5.1):
//! * user gateway ≈ 9 W (Telsey CPVA642WA ADSL gateway, flat across load),
//! * wireless-router-only ≈ 5 W (Netgear WNR3500L, <10% load variation),
//! * DSLAM shelf ≈ 21 W typical (Alcatel ISAM 7302 datasheet),
//! * DSL line card ≈ 98 W typical,
//! * single ISP modem (port) ≈ 1 W.
//!
//! Devices are not energy proportional (§2.2), so each component is modelled
//! as a constant draw while awake and (configurable, default zero) residual
//! draw while asleep.

use insomnia_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// Constant power draws in watts.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PowerModel {
    /// User gateway (modem + AP + router) while online or waking.
    pub gateway_on_w: f64,
    /// User gateway while sleeping (0 = powered off; WoWLAN wake receivers
    /// draw milliwatts, negligible at the paper's resolution).
    pub gateway_sleep_w: f64,
    /// One ISP-side modem (DSLAM port) while its line is active.
    pub isp_modem_w: f64,
    /// One DSL line card's shared circuitry while awake.
    pub line_card_w: f64,
    /// DSLAM shelf (common equipment), always on.
    pub shelf_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            gateway_on_w: 9.0,
            gateway_sleep_w: 0.0,
            isp_modem_w: 1.0,
            line_card_w: 98.0,
            shelf_w: 21.0,
        }
    }
}

impl PowerModel {
    /// User-side share of the no-sleep draw (§5.1's baseline scheme: every
    /// gateway, modem and card permanently on).
    pub fn no_sleep_user_w(&self, n_gateways: usize) -> f64 {
        self.gateway_on_w * n_gateways as f64
    }

    /// ISP-side share of the no-sleep draw.
    pub fn no_sleep_isp_w(&self, n_gateways: usize, n_cards: usize) -> f64 {
        self.no_sleep_isp_w_sharded(n_gateways, n_cards, 1)
    }

    /// ISP-side share of the no-sleep draw for a sharded deployment:
    /// `n_gateways` lines spread over `n_shards` DSLAMs, each DSLAM
    /// contributing its own always-on shelf and `n_cards` line cards.
    pub fn no_sleep_isp_w_sharded(
        &self,
        n_gateways: usize,
        n_cards: usize,
        n_shards: usize,
    ) -> f64 {
        self.isp_modem_w * n_gateways as f64
            + (self.line_card_w * n_cards as f64 + self.shelf_w) * n_shards.max(1) as f64
    }
}

/// One doze level of a gateway's power-state ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerState {
    /// Draw while resting in this state, watts.
    pub watts: f64,
    /// Latency to full-active from this state (boot + DSL resync share).
    pub wake: SimDuration,
    /// Idle dwell in this state before a multi-doze descent moves one level
    /// deeper. Unused at the deepest level (there is nowhere to descend).
    pub dwell: SimDuration,
}

/// Ordered doze states of a gateway, shallowest first, deepest last.
///
/// The ladder generalizes the paper's binary on/off model: a fixed-timeout
/// scheme (SoI, BH2, Optimal) sleeps straight into the *deepest* state, a
/// multi-doze scheme enters at the top and descends as idle time grows.
/// [`PowerLadder::binary`] is the 2-state degenerate case — one sleep level
/// with the legacy `gateway_sleep_w` draw and the legacy wake time — and
/// reproduces the historical gateway byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLadder {
    states: Vec<PowerState>,
}

impl PowerLadder {
    /// Builds a ladder from explicit states (shallow → deep).
    ///
    /// # Panics
    /// Panics on an empty state list; use [`PowerLadder::validate`] for the
    /// full well-formedness rules before constructing from user input.
    pub fn new(states: Vec<PowerState>) -> Self {
        assert!(!states.is_empty(), "a power ladder needs at least one sleep state");
        PowerLadder { states }
    }

    /// The 2-state degenerate case: one sleep level with the legacy draw
    /// and wake latency. Dwell never matters with a single level.
    pub fn binary(sleep_w: f64, wake: SimDuration) -> Self {
        PowerLadder::new(vec![PowerState { watts: sleep_w, wake, dwell: SimDuration::ZERO }])
    }

    /// Default three-level doze ladder for the multi-doze scheme when the
    /// scenario configures none: a shallow doze that keeps the PHY warm
    /// (fast resync, modest savings), a mid doze, and the legacy full sleep
    /// with the measured full wake. Draws interpolate between the model's
    /// on/sleep watts so a custom `PowerModel` scales the whole ladder.
    pub fn default_doze(power: &PowerModel, wake: SimDuration) -> Self {
        let span = power.gateway_on_w - power.gateway_sleep_w;
        let quarter = SimDuration::from_millis(wake.as_millis() / 4);
        let half = SimDuration::from_millis(wake.as_millis() / 2);
        PowerLadder::new(vec![
            PowerState {
                watts: power.gateway_sleep_w + 0.375 * span,
                wake: quarter,
                dwell: SimDuration::from_secs(300),
            },
            PowerState {
                watts: power.gateway_sleep_w + 0.125 * span,
                wake: half,
                dwell: SimDuration::from_secs(900),
            },
            PowerState { watts: power.gateway_sleep_w, wake, dwell: SimDuration::ZERO },
        ])
    }

    /// A copy whose every wake latency is zero — the Optimal scheme's
    /// clairvoyant gateways wake instantaneously (the ILP plans ahead), so
    /// the driver strips wake costs exactly like the legacy binary path.
    pub fn with_zero_wake(&self) -> Self {
        PowerLadder::new(
            self.states.iter().map(|s| PowerState { wake: SimDuration::ZERO, ..*s }).collect(),
        )
    }

    /// The sleep states, shallowest first.
    pub fn states(&self) -> &[PowerState] {
        &self.states
    }

    /// Number of sleep levels (always at least one).
    pub fn n_levels(&self) -> usize {
        self.states.len()
    }

    /// Index of the deepest sleep level.
    pub fn deepest(&self) -> usize {
        self.states.len() - 1
    }

    /// Draw of sleep level `level`, watts.
    pub fn watts(&self, level: usize) -> f64 {
        self.states[level].watts
    }

    /// Wake latency to full-active from sleep level `level`.
    pub fn wake(&self, level: usize) -> SimDuration {
        self.states[level].wake
    }

    /// Idle dwell at sleep level `level` before a multi-doze descent.
    pub fn dwell(&self, level: usize) -> SimDuration {
        self.states[level].dwell
    }

    /// Well-formedness for user-supplied ladders: draws finite and
    /// non-negative, non-increasing shallow → deep (a deeper state that
    /// draws *more* is never worth entering); wake latencies non-decreasing
    /// (deeper sleep cannot wake faster); every non-deepest dwell positive
    /// (a zero dwell would make the multi-doze descent spin).
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.states.iter().enumerate() {
            if !s.watts.is_finite() || s.watts < 0.0 {
                return Err(format!("power state {i}: watts must be finite and >= 0"));
            }
            if i > 0 {
                if s.watts > self.states[i - 1].watts {
                    return Err(format!(
                        "power state {i}: draw {} W exceeds the shallower level's {} W \
                         (states must go shallow -> deep)",
                        s.watts,
                        self.states[i - 1].watts
                    ));
                }
                if s.wake < self.states[i - 1].wake {
                    return Err(format!(
                        "power state {i}: wake {} is shorter than the shallower level's {} \
                         (deeper sleep cannot wake faster)",
                        s.wake,
                        self.states[i - 1].wake
                    ));
                }
            }
            if i + 1 < self.states.len() && s.dwell.is_zero() {
                return Err(format!(
                    "power state {i}: dwell must be positive below the deepest level"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_measurements() {
        let p = PowerModel::default();
        assert_eq!(p.gateway_on_w, 9.0);
        assert_eq!(p.isp_modem_w, 1.0);
        assert_eq!(p.line_card_w, 98.0);
        assert_eq!(p.shelf_w, 21.0);
        assert_eq!(p.gateway_sleep_w, 0.0);
    }

    #[test]
    fn paper_scenario_baseline_power() {
        // 40 gateways, 4 line cards: 360 + 40 + 392 + 21 = 813 W.
        let p = PowerModel::default();
        assert!((p.no_sleep_user_w(40) - 360.0).abs() < 1e-9);
        assert!((p.no_sleep_isp_w(40, 4) - 453.0).abs() < 1e-9);
    }

    #[test]
    fn sharded_baseline_counts_one_shelf_per_dslam() {
        let p = PowerModel::default();
        // 64 shards of the paper's DSLAM: 64 shelves + 64×4 cards + 2560 modems.
        let sharded = p.no_sleep_isp_w_sharded(64 * 40, 4, 64);
        assert!((sharded - 64.0 * p.no_sleep_isp_w(40, 4)).abs() < 1e-9);
        // One shard is exactly the unsharded baseline.
        assert_eq!(p.no_sleep_isp_w_sharded(40, 4, 1), p.no_sleep_isp_w(40, 4));
    }

    #[test]
    fn binary_ladder_is_the_legacy_model() {
        let p = PowerModel::default();
        let l = PowerLadder::binary(p.gateway_sleep_w, SimDuration::from_secs(60));
        assert_eq!(l.n_levels(), 1);
        assert_eq!(l.deepest(), 0);
        assert_eq!(l.watts(0), p.gateway_sleep_w);
        assert_eq!(l.wake(0), SimDuration::from_secs(60));
        l.validate().unwrap();
    }

    #[test]
    fn default_doze_ladder_is_well_formed() {
        let p = PowerModel::default();
        let l = PowerLadder::default_doze(&p, SimDuration::from_secs(60));
        l.validate().unwrap();
        assert_eq!(l.n_levels(), 3);
        // Deepest level is exactly the legacy full sleep.
        assert_eq!(l.watts(l.deepest()), p.gateway_sleep_w);
        assert_eq!(l.wake(l.deepest()), SimDuration::from_secs(60));
        // Shallow levels trade watts for wake latency.
        assert!(l.watts(0) > l.watts(1) && l.watts(1) > l.watts(2));
        assert!(l.wake(0) < l.wake(1) && l.wake(1) < l.wake(2));
        // Zero-wake stripping keeps draws, zeroes latencies.
        let z = l.with_zero_wake();
        assert_eq!(z.watts(0), l.watts(0));
        assert!(z.wake(2).is_zero());
    }

    #[test]
    fn ladder_validation_rejects_malformed_ladders() {
        let s = |w: f64, wake_s: u64, dwell_s: u64| PowerState {
            watts: w,
            wake: SimDuration::from_secs(wake_s),
            dwell: SimDuration::from_secs(dwell_s),
        };
        // Draw increasing with depth.
        let bad = PowerLadder::new(vec![s(1.0, 10, 60), s(2.0, 20, 0)]);
        assert!(bad.validate().is_err());
        // Deeper level waking faster.
        let bad = PowerLadder::new(vec![s(3.0, 30, 60), s(1.0, 10, 0)]);
        assert!(bad.validate().is_err());
        // Zero dwell above the deepest level.
        let bad = PowerLadder::new(vec![s(3.0, 10, 0), s(1.0, 20, 0)]);
        assert!(bad.validate().is_err());
        // Negative / non-finite draws.
        let bad = PowerLadder::new(vec![s(-1.0, 10, 0)]);
        assert!(bad.validate().is_err());
        let bad = PowerLadder::new(vec![s(f64::NAN, 10, 0)]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn modem_dwarfed_by_card() {
        // §1: "a single ISP modem consumes around 1 W whereas the shared
        // circuitry of the line card that hosts it consumes ~100 W".
        let p = PowerModel::default();
        assert!(p.line_card_w / p.isp_modem_w > 50.0);
    }
}
