//! Far-end crosstalk (FEXT) model.
//!
//! FEXT is the electromagnetic coupling from other pairs in the same binder
//! received at the far (customer) end — the dominant impairment for VDSL2
//! in distribution cables. We use the standard equal-level FEXT form
//! (ITU-T G.996.1 lineage):
//!
//! ```text
//! FEXT_psd(f) = PSD_tx · |H(f, L_victim)|² · K · c_ij · f_MHz² · L_shared_km
//! ```
//!
//! * `|H|²` — the victim's own channel: coupled noise rides the line and
//!   attenuates like the signal (equal-level approximation),
//! * `f²` — coupling grows 15 dB/decade-ish with frequency,
//! * `L_shared` — coupling accumulates over the length both pairs share,
//! * `c_ij` — binder-geometry weight (adjacent pairs worst, see
//!   [`crate::binder`]),
//! * `K` — coupling constant, calibrated so the 24-line/600 m bundle
//!   reproduces the sync rates and per-line-speedup slope of the paper's
//!   Fig. 14 (the physical testbed we substitute).

use serde::{Deserialize, Serialize};

/// FEXT coupling parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FextModel {
    /// Coupling constant `K` (per MHz², per km, at unit binder weight).
    pub k: f64,
}

impl Default for FextModel {
    fn default() -> Self {
        // Calibrated against Fig. 14: with 23 equal-length 600 m disturbers
        // the average VDSL2 sync lands near 43.7 Mbps and each silenced
        // disturber buys ≈1.1–1.2% of rate.
        FextModel { k: 8.5e-6 }
    }
}

impl FextModel {
    /// Linear FEXT power transfer function from one disturber into a victim:
    /// multiply the disturber's transmit PSD (linear) by this to get the
    /// received FEXT PSD (linear).
    ///
    /// * `f_hz` — frequency,
    /// * `victim_h2` — victim channel `|H(f, L_victim)|²`,
    /// * `coupling` — binder weight `c_ij ∈ [0, 1]`,
    /// * `shared_m` — length over which the two pairs run together.
    pub fn transfer(&self, f_hz: f64, victim_h2: f64, coupling: f64, shared_m: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&coupling));
        let f_mhz = f_hz / 1e6;
        self.k * coupling * f_mhz * f_mhz * (shared_m / 1_000.0) * victim_h2
    }
}

/// Length over which a victim and disturber pair run side by side. All lines
/// start at the DSLAM, so the shared span is the shorter of the two.
pub fn shared_length_m(victim_len_m: f64, disturber_len_m: f64) -> f64 {
    victim_len_m.min(disturber_len_m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cable::CableModel;
    use crate::units::dbm_hz_to_mw_hz;

    #[test]
    fn fext_grows_with_frequency_squared() {
        let m = FextModel::default();
        let t1 = m.transfer(1e6, 1.0, 1.0, 600.0);
        let t2 = m.transfer(2e6, 1.0, 1.0, 600.0);
        assert!((t2 / t1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fext_scales_with_shared_length_and_coupling() {
        let m = FextModel::default();
        let base = m.transfer(5e6, 0.5, 0.8, 300.0);
        assert!((m.transfer(5e6, 0.5, 0.8, 600.0) / base - 2.0).abs() < 1e-9);
        assert!((m.transfer(5e6, 0.5, 0.4, 300.0) / base - 0.5).abs() < 1e-9);
        assert!((m.transfer(5e6, 0.25, 0.8, 300.0) / base - 0.5).abs() < 1e-9);
    }

    #[test]
    fn shared_length_is_min() {
        assert_eq!(shared_length_m(600.0, 50.0), 50.0);
        assert_eq!(shared_length_m(100.0, 600.0), 100.0);
    }

    #[test]
    fn fext_below_signal_in_band() {
        // Sanity: FEXT from a full binder must stay below the received
        // signal (otherwise no line would ever sync).
        let m = FextModel::default();
        let cable = CableModel::default();
        let tx = dbm_hz_to_mw_hz(-60.0);
        let f = 1e6;
        let signal = tx * cable.h_squared(f, 600.0);
        let fext = 23.0 * tx * m.transfer(f, cable.h_squared(f, 600.0), 1.0, 600.0);
        assert!(fext < signal, "FEXT {fext} >= signal {signal}");
    }
}
