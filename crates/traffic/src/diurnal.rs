//! Diurnal activity profiles.
//!
//! A profile maps time-of-day to a relative activity weight in `[0, 1]`.
//! Two presets mirror the paper's two datasets: an office building (the
//! UCSD CS building behind the CRAWDAD trace, Figs. 3–4) and a residential
//! ADSL population (Fig. 2). Weights are interpolated piecewise-linearly
//! between hour marks so generated intensities have no step discontinuities.

use insomnia_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// Named diurnal shape — the serializable selector scenario specs use to
/// pick a [`DiurnalProfile`] without spelling out 24 hourly weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DiurnalKind {
    /// [`DiurnalProfile::office_building`] — the paper's main setting.
    #[default]
    OfficeBuilding,
    /// [`DiurnalProfile::residential`] — the Fig. 2 ADSL population shape.
    Residential,
    /// [`DiurnalProfile::weekend`] — sparse weekend occupancy.
    Weekend,
}

impl DiurnalKind {
    /// Materializes the selected profile.
    pub fn profile(self) -> DiurnalProfile {
        match self {
            DiurnalKind::OfficeBuilding => DiurnalProfile::office_building(),
            DiurnalKind::Residential => DiurnalProfile::residential(),
            DiurnalKind::Weekend => DiurnalProfile::weekend(),
        }
    }
}

/// Relative activity level per hour of day, interpolated between hours.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiurnalProfile {
    /// Weight at each hour mark, `hourly[h]` applying at `h:00`. Values are
    /// relative; [`DiurnalProfile::new`] rescales so the maximum is 1.
    hourly: [f64; 24],
}

impl DiurnalProfile {
    /// Builds a profile from 24 non-negative hourly weights (rescaled so the
    /// largest becomes 1).
    ///
    /// # Panics
    /// Panics if all weights are zero or any is negative/non-finite.
    pub fn new(mut hourly: [f64; 24]) -> Self {
        assert!(
            hourly.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let max = hourly.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > 0.0, "at least one weight must be positive");
        for w in &mut hourly {
            *w /= max;
        }
        DiurnalProfile { hourly }
    }

    /// Office-building profile matching the UCSD CS building's wireless
    /// activity: near-empty overnight, ramp from ~08 h, sustained peak
    /// 11–19 h (the paper samples its peak hour at 16–17 h), evening decay.
    pub fn office_building() -> Self {
        DiurnalProfile::new([
            0.06, 0.05, 0.04, 0.04, 0.04, 0.05, // 00-05: stragglers + machines left on
            0.08, 0.15, 0.35, 0.60, 0.80, 0.92, // 06-11: morning ramp
            0.95, 0.97, 0.99, 1.00, 1.00, 0.95, // 12-17: sustained peak
            0.85, 0.70, 0.45, 0.30, 0.18, 0.10, // 18-23: evening decay
        ])
    }

    /// Residential profile matching the commercial ADSL population of
    /// Fig. 2: mid-day plateau, evening peak around 21–22 h, overnight low
    /// (but never zero — always-on boxes keep trickling).
    pub fn residential() -> Self {
        DiurnalProfile::new([
            0.30, 0.22, 0.16, 0.12, 0.10, 0.10, // 00-05
            0.12, 0.18, 0.30, 0.42, 0.52, 0.58, // 06-11
            0.62, 0.64, 0.66, 0.70, 0.74, 0.80, // 12-17
            0.86, 0.92, 0.97, 1.00, 0.95, 0.60, // 18-23
        ])
    }

    /// Weekend profile of the same office building: a shallow afternoon
    /// bump from the few people who come in, always-on machines otherwise.
    /// Used by the `weekend-diurnal` scenario preset.
    pub fn weekend() -> Self {
        DiurnalProfile::new([
            0.12, 0.10, 0.08, 0.07, 0.07, 0.07, // 00-05: machines left on
            0.08, 0.10, 0.14, 0.22, 0.35, 0.50, // 06-11: slow trickle in
            0.65, 0.80, 0.95, 1.00, 0.95, 0.80, // 12-17: shallow afternoon bump
            0.60, 0.45, 0.35, 0.28, 0.20, 0.15, // 18-23: early decay
        ])
    }

    /// Weight at a given instant, linearly interpolated between hour marks
    /// (wrapping at midnight).
    #[inline]
    pub fn weight_at(&self, t: SimTime) -> f64 {
        let h = t.as_hours_f64() % 24.0;
        let h0 = h.floor() as usize % 24;
        let h1 = (h0 + 1) % 24;
        let frac = h - h.floor();
        self.hourly[h0] * (1.0 - frac) + self.hourly[h1] * frac
    }

    /// Weight at an exact hour mark.
    pub fn weight_at_hour(&self, hour: usize) -> f64 {
        self.hourly[hour % 24]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peak_hour(p: &DiurnalProfile) -> usize {
        (0..24).max_by(|&a, &b| p.weight_at_hour(a).total_cmp(&p.weight_at_hour(b))).unwrap()
    }

    #[test]
    fn normalizes_to_unit_max() {
        let p = DiurnalProfile::new([2.0; 24]);
        assert!((p.weight_at_hour(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interpolates_between_hours() {
        let mut w = [0.0; 24];
        w[10] = 1.0;
        w[11] = 0.5;
        let p = DiurnalProfile::new(w);
        let t = SimTime::from_mins(10 * 60 + 30); // 10:30
        assert!((p.weight_at(t) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn wraps_at_midnight() {
        let mut w = [0.1; 24];
        w[23] = 1.0;
        w[0] = 0.5;
        let p = DiurnalProfile::new(w);
        let t = SimTime::from_mins(23 * 60 + 30); // 23:30 interpolates toward 00:00
        assert!((p.weight_at(t) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn office_peaks_in_working_hours() {
        let p = DiurnalProfile::office_building();
        let peak = peak_hour(&p);
        assert!((11..=18).contains(&peak), "office peak at {peak}");
        assert!(p.weight_at_hour(3) < 0.1, "office is empty at night");
        // The paper's measured peak window must actually be near the top.
        assert!(p.weight_at_hour(16) > 0.9);
    }

    #[test]
    fn residential_peaks_in_the_evening() {
        let p = DiurnalProfile::residential();
        let peak = peak_hour(&p);
        assert!((19..=22).contains(&peak), "residential peak at {peak}");
        assert!(p.weight_at_hour(4) > 0.0, "always-on boxes never fully stop");
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn rejects_all_zero() {
        DiurnalProfile::new([0.0; 24]);
    }
}
