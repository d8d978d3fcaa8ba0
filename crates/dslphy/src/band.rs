//! DMT tone plans: VDSL2 profile 17a downstream bands.
//!
//! VDSL2 (ITU-T G.993.2) divides the spectrum into alternating downstream/
//! upstream bands; with band plan 998 and profile 17a the downstream uses
//! DS1 (0.138–3.75 MHz), DS2 (5.2–8.5 MHz) and DS3 (12–17.664 MHz). Tones
//! are spaced 4.3125 kHz and carry up to 15 bits each at 4000 symbols/s.

use serde::{Deserialize, Serialize};

/// DMT tone spacing (Hz), common to ADSL and VDSL2.
pub const TONE_SPACING_HZ: f64 = 4312.5;

/// DMT symbol rate (symbols/s).
pub const SYMBOL_RATE: f64 = 4000.0;

/// Maximum bits per tone (bit-loading cap in G.993.2).
pub const MAX_BITS_PER_TONE: u32 = 15;

/// A downstream frequency band `[lo_hz, hi_hz)`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Band {
    /// Lower band edge, Hz.
    pub lo_hz: f64,
    /// Upper band edge, Hz.
    pub hi_hz: f64,
}

impl Band {
    /// Tone indices covered by this band.
    pub fn tones(&self) -> impl Iterator<Item = u32> {
        let lo = (self.lo_hz / TONE_SPACING_HZ).ceil() as u32;
        let hi = (self.hi_hz / TONE_SPACING_HZ).floor() as u32;
        lo..hi
    }
}

/// Center frequency of a tone index.
pub fn tone_freq_hz(tone: u32) -> f64 {
    f64::from(tone) * TONE_SPACING_HZ
}

/// A transmission plan: the downstream bands a technology uses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TonePlan {
    /// Human-readable plan name.
    pub name: &'static str,
    /// Downstream bands.
    pub bands: Vec<Band>,
}

impl TonePlan {
    /// VDSL2 band plan 998, profile 17a, downstream direction — the paper's
    /// testbed configuration (Alcatel 7302 ISAM with VDSL2 modems).
    pub fn vdsl2_17a_down() -> Self {
        TonePlan {
            name: "VDSL2-998-17a-DS",
            bands: vec![
                Band { lo_hz: 138_000.0, hi_hz: 3_750_000.0 },   // DS1
                Band { lo_hz: 5_200_000.0, hi_hz: 8_500_000.0 }, // DS2
                Band { lo_hz: 12_000_000.0, hi_hz: 17_664_000.0 }, // DS3
            ],
        }
    }

    /// All downstream tone indices of this plan.
    pub fn tones(&self) -> Vec<u32> {
        self.bands.iter().flat_map(|b| b.tones()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vdsl2_plan_has_three_bands_with_gaps() {
        let p = TonePlan::vdsl2_17a_down();
        assert_eq!(p.bands.len(), 3);
        // US bands live in the gaps: no downstream tone may fall in 3.75–5.2
        // or 8.5–12 MHz.
        for t in p.tones() {
            let f = tone_freq_hz(t);
            assert!(
                (138_000.0..3_750_000.0).contains(&f)
                    || (5_200_000.0..8_500_000.0).contains(&f)
                    || (12_000_000.0..17_664_000.0).contains(&f),
                "tone {t} at {f} Hz outside DS bands"
            );
        }
    }

    #[test]
    fn vdsl2_capacity_ceiling_is_plausible() {
        let p = TonePlan::vdsl2_17a_down();
        // Absolute ceiling: every tone at max bit-loading.
        let max = p.tones().len() as f64 * f64::from(MAX_BITS_PER_TONE) * SYMBOL_RATE;
        // ~2900 DS tones × 15 b × 4 kHz ≈ 175 Mbps: the right order for
        // profile 17a's headline ~150 Mbps aggregate.
        assert!((1.4e8..2.1e8).contains(&max), "ceiling {max}");
    }

    #[test]
    fn tone_freq_roundtrip() {
        assert!((tone_freq_hz(1000) - 4_312_500.0).abs() < 1e-6);
        let b = Band { lo_hz: 138_000.0, hi_hz: 143_000.0 };
        let tones: Vec<u32> = b.tones().collect();
        for t in tones {
            let f = tone_freq_hz(t);
            assert!((138_000.0..143_000.0).contains(&f));
        }
    }
}
