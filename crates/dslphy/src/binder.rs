//! 25-pair binder geometry and pairwise crosstalk coupling weights.
//!
//! The paper's testbed connects 24 VDSL2 modems through a 25-twisted-pair
//! cable (Fig. 13a) and observes that crosstalk "depends on the distance
//! between lines inside the bundle and is worst for adjacent lines". We
//! model the binder's cross-section as two concentric rings (16 outer,
//! 8 inner) plus an unused center pair, and weight FEXT coupling between
//! two pairs by the inverse square of their center distance, normalized so
//! adjacent outer-ring pairs couple at 1.

use serde::{Deserialize, Serialize};

/// Number of usable pairs in the testbed binder.
pub const BINDER_PAIRS: usize = 24;

/// Cross-sectional geometry of the 25-pair binder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Binder {
    /// `(x, y)` of each pair's center, pair radius = 0.5 (arbitrary units).
    positions: Vec<(f64, f64)>,
    /// Normalized coupling weights `c[i][j]` in `(0, 1]`, `c[i][i] = 0`.
    coupling: Vec<Vec<f64>>,
}

impl Default for Binder {
    fn default() -> Self {
        Self::new()
    }
}

impl Binder {
    /// Builds the standard 24-pair layout: 16 pairs on an outer ring of
    /// radius 2, 8 pairs on an inner ring of radius 1.
    pub fn new() -> Self {
        let mut positions = Vec::with_capacity(BINDER_PAIRS);
        for i in 0..16 {
            let theta = 2.0 * std::f64::consts::PI * i as f64 / 16.0;
            positions.push((2.0 * theta.cos(), 2.0 * theta.sin()));
        }
        for i in 0..8 {
            let theta = 2.0 * std::f64::consts::PI * (i as f64 + 0.5) / 8.0;
            positions.push((theta.cos(), theta.sin()));
        }
        let mut coupling = vec![vec![0.0; BINDER_PAIRS]; BINDER_PAIRS];
        // Distance between adjacent outer-ring pairs — the worst case that
        // normalizes the coupling scale to 1.
        let d_min = distance(positions[0], positions[1]);
        for i in 0..BINDER_PAIRS {
            for j in 0..BINDER_PAIRS {
                if i != j {
                    let d = distance(positions[i], positions[j]);
                    coupling[i][j] = (d_min / d).powi(2).min(1.0);
                }
            }
        }
        Binder { positions, coupling }
    }

    /// Normalized FEXT coupling weight between pairs `i` and `j`.
    pub fn coupling(&self, i: usize, j: usize) -> f64 {
        self.coupling[i][j]
    }

    /// Position of pair `i` in the cross-section.
    pub fn position(&self, i: usize) -> (f64, f64) {
        self.positions[i]
    }
}

fn distance(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_has_24_pairs() {
        let b = Binder::new();
        assert_eq!(b.positions.len(), BINDER_PAIRS);
    }

    #[test]
    fn coupling_is_symmetric_and_normalized() {
        let b = Binder::new();
        for i in 0..BINDER_PAIRS {
            assert_eq!(b.coupling(i, i), 0.0);
            for j in 0..BINDER_PAIRS {
                assert!((b.coupling(i, j) - b.coupling(j, i)).abs() < 1e-12);
                assert!((0.0..=1.0).contains(&b.coupling(i, j)));
            }
        }
        // Adjacent outer-ring pairs are the worst case: weight exactly 1.
        assert!((b.coupling(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adjacent_pairs_couple_strongest() {
        let b = Binder::new();
        // Pair 0's strongest coupling among outer pairs is to its ring
        // neighbors 1 and 15.
        let c01 = b.coupling(0, 1);
        let c08 = b.coupling(0, 8); // diametrically opposite
        assert!(c01 > 5.0 * c08, "adjacent {c01} vs opposite {c08}");
    }

    #[test]
    fn inner_ring_couples_to_many() {
        let b = Binder::new();
        // An inner pair is closer to the binder center, so its mean coupling
        // to all others exceeds an outer pair's mean coupling.
        let mean = |i: usize| {
            (0..BINDER_PAIRS).map(|j| b.coupling(i, j)).sum::<f64>() / (BINDER_PAIRS - 1) as f64
        };
        let outer_mean = mean(0);
        let inner_mean = mean(20);
        assert!(inner_mean > outer_mean, "inner {inner_mean} vs outer {outer_mean}");
    }
}
