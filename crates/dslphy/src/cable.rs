//! Twisted-pair insertion loss model.
//!
//! Copper attenuation grows with the square root of frequency (skin effect)
//! plus a small linear term (dielectric loss), and linearly with length.
//! The coefficients below approximate a 0.4–0.5 mm PE-insulated pair — the
//! plant the paper's testbed cable bundle represents — giving ≈35 dB/km at
//! 1 MHz and ≈140 dB/km at 17.6 MHz (coefficients calibrated jointly with
//! the FEXT constant against Fig. 14).

use serde::{Deserialize, Serialize};

/// Attenuation model `a + b·√f + c·f` (dB/km, f in MHz).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CableModel {
    /// Frequency-independent loss, dB/km.
    pub a_db_km: f64,
    /// Skin-effect coefficient, dB/km per √MHz.
    pub b_db_km_sqrt_mhz: f64,
    /// Dielectric-loss coefficient, dB/km per MHz.
    pub c_db_km_mhz: f64,
}

impl Default for CableModel {
    fn default() -> Self {
        // 0.4 mm PE pair, calibrated against published 26 AWG loss tables.
        CableModel { a_db_km: 4.0, b_db_km_sqrt_mhz: 30.0, c_db_km_mhz: 0.6 }
    }
}

impl CableModel {
    /// Insertion loss in dB over `length_m` metres at `f_hz`.
    pub fn attenuation_db(&self, f_hz: f64, length_m: f64) -> f64 {
        debug_assert!(f_hz >= 0.0 && length_m >= 0.0);
        let f_mhz = f_hz / 1e6;
        let per_km = self.a_db_km + self.b_db_km_sqrt_mhz * f_mhz.sqrt() + self.c_db_km_mhz * f_mhz;
        per_km * length_m / 1_000.0
    }

    /// Squared channel magnitude `|H(f)|²` (linear) over `length_m`.
    pub fn h_squared(&self, f_hz: f64, length_m: f64) -> f64 {
        crate::units::db_to_lin(-self.attenuation_db(f_hz, length_m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attenuation_scales_linearly_with_length() {
        let c = CableModel::default();
        let a300 = c.attenuation_db(1e6, 300.0);
        let a600 = c.attenuation_db(1e6, 600.0);
        assert!((a600 - 2.0 * a300).abs() < 1e-9);
    }

    #[test]
    fn attenuation_grows_with_frequency() {
        let c = CableModel::default();
        let mut last = 0.0;
        for f in [0.2e6, 1e6, 4e6, 8.5e6, 17.6e6] {
            let a = c.attenuation_db(f, 600.0);
            assert!(a > last, "attenuation must increase with f");
            last = a;
        }
    }

    #[test]
    fn plausible_magnitudes() {
        let c = CableModel::default();
        // Calibrated 0.4 mm-class plant: ~35 dB/km at 1 MHz, ~140 dB/km
        // at 17.6 MHz (jointly with the FEXT constant, against Fig. 14).
        let km1 = c.attenuation_db(1e6, 1_000.0);
        assert!((25.0..45.0).contains(&km1), "1 MHz loss {km1} dB/km");
        let km17 = c.attenuation_db(17.6e6, 1_000.0);
        assert!((110.0..165.0).contains(&km17), "17.6 MHz loss {km17} dB/km");
    }

    #[test]
    fn h_squared_matches_attenuation() {
        let c = CableModel::default();
        let att = c.attenuation_db(2e6, 500.0);
        let h2 = c.h_squared(2e6, 500.0);
        assert!((crate::units::lin_to_db(h2) + att).abs() < 1e-9);
        assert!(h2 > 0.0 && h2 < 1.0);
    }

    #[test]
    fn zero_length_is_lossless() {
        let c = CableModel::default();
        assert_eq!(c.attenuation_db(5e6, 0.0), 0.0);
        assert!((c.h_squared(5e6, 0.0) - 1.0).abs() < 1e-12);
    }
}
