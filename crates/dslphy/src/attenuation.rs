//! Production-DSLAM attenuation sampling (the paper's appendix, Fig. 15).
//!
//! The paper measures per-port attenuation on two production ADSL2+ DSLAMs
//! (14 active line cards × 72 ports) and finds every card shows the same
//! Gaussian attenuation distribution — standard deviation about one mile of
//! loop (≈23 dB at the 1 dB ≈ 70 m conversion the paper quotes) with
//! minimal variation in means across cards. From this randomness the paper
//! concludes ports are assigned to subscribers irrespective of geography,
//! which justifies the random gateway→port wiring of the main scenario.

use insomnia_simcore::{SimRng, Welford};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic production-DSLAM measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttenuationConfig {
    /// Number of active line cards (paper: 14).
    pub n_cards: usize,
    /// Ports per card (paper: 72).
    pub ports_per_card: usize,
    /// Population mean attenuation, dB (the paper anonymizes this as `n`;
    /// any positive value preserves the analysis).
    pub mean_db: f64,
    /// Population standard deviation, dB (≈1 mile ≈ 23 dB).
    pub std_db: f64,
    /// Maximum per-card mean offset, dB ("minimal variations in mean").
    pub card_mean_jitter_db: f64,
}

impl Default for AttenuationConfig {
    fn default() -> Self {
        AttenuationConfig {
            n_cards: 14,
            ports_per_card: 72,
            mean_db: 50.0,
            std_db: 23.0,
            card_mean_jitter_db: 1.5,
        }
    }
}

/// Per-card port attenuation samples, `cards[card][port]` in dB.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttenuationSamples {
    /// Samples per card.
    pub cards: Vec<Vec<f64>>,
}

impl AttenuationSamples {
    /// Per-card `(mean, std)` summary.
    pub fn card_summaries(&self) -> Vec<(f64, f64)> {
        self.cards
            .iter()
            .map(|ports| {
                let mut w = Welford::new();
                for &p in ports {
                    w.push(p);
                }
                (w.mean(), w.std_dev())
            })
            .collect()
    }
}

/// Samples a synthetic Fig. 15 dataset: per-card Gaussian attenuations with
/// near-identical means, truncated at 0 dB.
pub fn sample(cfg: &AttenuationConfig, rng: &mut SimRng) -> AttenuationSamples {
    assert!(cfg.n_cards > 0 && cfg.ports_per_card > 0);
    let cards = (0..cfg.n_cards)
        .map(|_| {
            let card_mean =
                cfg.mean_db + rng.range_f64(-cfg.card_mean_jitter_db, cfg.card_mean_jitter_db);
            (0..cfg.ports_per_card).map(|_| rng.normal(card_mean, cfg.std_db).max(0.0)).collect()
        })
        .collect();
    AttenuationSamples { cards }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_config() {
        let mut rng = SimRng::new(1);
        let s = sample(&AttenuationConfig::default(), &mut rng);
        assert_eq!(s.cards.len(), 14);
        assert!(s.cards.iter().all(|c| c.len() == 72));
    }

    #[test]
    fn cards_share_mean_and_spread() {
        let mut rng = SimRng::new(2);
        let cfg = AttenuationConfig::default();
        let s = sample(&cfg, &mut rng);
        let summaries = s.card_summaries();
        let means: Vec<f64> = summaries.iter().map(|x| x.0).collect();
        let stds: Vec<f64> = summaries.iter().map(|x| x.1).collect();
        let mean_spread = means.iter().cloned().fold(f64::MIN, f64::max)
            - means.iter().cloned().fold(f64::MAX, f64::min);
        // "Similar Gaussian distribution ... with minimal variations in
        // mean": card means within a few dB (sampling noise ≈ 23/√72 ≈ 2.7).
        assert!(mean_spread < 12.0, "card mean spread {mean_spread} dB");
        for s in stds {
            assert!((15.0..32.0).contains(&s), "card std {s} dB vs population 23");
        }
    }

    #[test]
    fn no_negative_attenuations() {
        let mut rng = SimRng::new(3);
        let s = sample(&AttenuationConfig::default(), &mut rng);
        assert!(s.cards.iter().flatten().all(|&a| a >= 0.0));
    }

    #[test]
    fn randomness_supports_random_port_assignment() {
        // The paper's conclusion: attenuation (≈ distance) is uncorrelated
        // with port position. Check that port index explains none of the
        // variance: correlation between port index and attenuation ≈ 0.
        let mut rng = SimRng::new(4);
        let s = sample(&AttenuationConfig::default(), &mut rng);
        for card in &s.cards {
            let n = card.len() as f64;
            let mean_i = (n - 1.0) / 2.0;
            let mean_a = card.iter().sum::<f64>() / n;
            let mut cov = 0.0;
            let mut var_i = 0.0;
            let mut var_a = 0.0;
            for (i, &a) in card.iter().enumerate() {
                let di = i as f64 - mean_i;
                let da = a - mean_a;
                cov += di * da;
                var_i += di * di;
                var_a += da * da;
            }
            let corr = cov / (var_i.sqrt() * var_a.sqrt());
            assert!(corr.abs() < 0.35, "port/attenuation correlation {corr}");
        }
    }
}
