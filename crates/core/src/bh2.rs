//! The BH2 (Broadband Hitch-Hiking) decision rule — §3.1 of the paper.
//!
//! BH2 runs on every user terminal. At each decision epoch the terminal
//! looks at the load of the gateway it currently uses and of every other
//! online gateway in range, and decides to stay, hitch-hike onto a
//! neighbor, or return home:
//!
//! * a gateway with load below the **low threshold** is a candidate for
//!   going to sleep — its users should vacate it;
//! * a gateway with load above the **high threshold** is saturating — no
//!   new hitch-hikers, and remote users on it go home;
//! * move targets are gateways with load strictly between the thresholds,
//!   picked randomly **proportionally to load** (randomness prevents
//!   synchronized stampedes; weighting prefers gateways that will stay
//!   awake anyway);
//! * moving also requires enough remaining candidates to serve as
//!   **backups** for smooth hand-offs, otherwise the terminal returns (or
//!   stays) home.
//!
//! The rule is a pure function for testability; the driver owns all state.
//! It allocates nothing: in-band candidates are counted and drawn from by
//! walking `others` in place.

use crate::config::Bh2Params;
use insomnia_simcore::SimRng;

/// Outcome of one BH2 decision epoch for one terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bh2Decision {
    /// Keep routing new flows through the current gateway.
    Stay,
    /// Redirect new flows to this gateway.
    MoveTo(usize),
    /// Return to the home gateway (waking it if necessary).
    ReturnHome,
}

/// An online gateway visible to the terminal, with its estimated load.
#[derive(Debug, Clone, Copy)]
pub struct VisibleGateway {
    /// Gateway index.
    pub gateway: usize,
    /// Estimated backhaul load fraction in `[0, 1]` (from the passive
    /// sequence-number estimator in the real system).
    pub load: f64,
}

/// Runs the §3.1 decision rule.
///
/// * `at_home` — whether the terminal currently routes through its home;
/// * `current_load` — load of the current gateway;
/// * `others` — all *other* online gateways in range (excluding current).
pub fn decide(
    params: &Bh2Params,
    at_home: bool,
    current_load: f64,
    others: &[VisibleGateway],
    rng: &mut SimRng,
) -> Bh2Decision {
    let in_band =
        |g: &&VisibleGateway| g.load > params.low_threshold && g.load < params.high_threshold;
    let candidates = || others.iter().filter(in_band);

    if at_home {
        // Home is lightly loaded: try to vacate it so it can sleep.
        if current_load < params.low_threshold && candidates().count() > params.backup {
            return pick_weighted(candidates(), rng);
        }
        return Bh2Decision::Stay;
    }

    // Remote: saturation sends the user home immediately (§3.1: "if the
    // load of the assigned remote gateway increases above the high
    // threshold, the algorithm returns the user to its home gateway").
    if current_load > params.high_threshold {
        return Bh2Decision::ReturnHome;
    }
    // The current remote gateway is about to sleep: hop to another in-band
    // gateway. What happens with too few candidates is the one ambiguous
    // sentence in §3.1: read literally, the user returns home — but that
    // stampedes everyone home whenever loads dip, de-aggregating under
    // exactly the light loads the paper evaluates (the README's `## Figures`
    // has the `bh2.literal_return_home` sweep that shows it). The
    // default resolves the ambiguity the only way that reproduces Fig. 7:
    // the user stays hitched (its traffic keeps the remote awake anyway);
    // `literal_return_home` enables the verbatim reading for ablation.
    if current_load < params.low_threshold {
        if candidates().count() > params.backup {
            return pick_weighted(candidates(), rng);
        }
        if params.literal_return_home {
            return Bh2Decision::ReturnHome;
        }
    }
    Bh2Decision::Stay
}

/// Draws one candidate with probability proportional to its load.
fn pick_weighted<'a>(
    mut candidates: impl Iterator<Item = &'a VisibleGateway> + Clone,
    rng: &mut SimRng,
) -> Bh2Decision {
    match rng.pick_weighted(candidates.clone().map(|g| g.load)) {
        Some(i) => Bh2Decision::MoveTo(candidates.nth(i).expect("drawn index").gateway),
        None => Bh2Decision::Stay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Bh2Params {
        Bh2Params::default() // low 0.10, high 0.50, backup 1
    }

    fn vg(gateway: usize, load: f64) -> VisibleGateway {
        VisibleGateway { gateway, load }
    }

    #[test]
    fn home_with_normal_load_stays() {
        let mut rng = SimRng::new(1);
        let d = decide(&params(), true, 0.3, &[vg(1, 0.3), vg(2, 0.2)], &mut rng);
        assert_eq!(d, Bh2Decision::Stay);
    }

    #[test]
    fn idle_home_moves_when_candidates_exceed_backup() {
        let mut rng = SimRng::new(2);
        // Two candidates > backup=1: must move to one of them.
        let d = decide(&params(), true, 0.05, &[vg(1, 0.3), vg(2, 0.2)], &mut rng);
        assert!(matches!(d, Bh2Decision::MoveTo(1) | Bh2Decision::MoveTo(2)), "{d:?}");
    }

    #[test]
    fn idle_home_stays_without_enough_candidates() {
        let mut rng = SimRng::new(3);
        // One candidate == backup: not enough ("greater than backup").
        let d = decide(&params(), true, 0.05, &[vg(1, 0.3)], &mut rng);
        assert_eq!(d, Bh2Decision::Stay);
        // Gateways outside the (low, high) band are not candidates.
        let d = decide(&params(), true, 0.05, &[vg(1, 0.05), vg(2, 0.9), vg(3, 0.02)], &mut rng);
        assert_eq!(d, Bh2Decision::Stay);
    }

    #[test]
    fn saturated_remote_returns_home() {
        let mut rng = SimRng::new(4);
        let d = decide(&params(), false, 0.8, &[vg(1, 0.3), vg(2, 0.2)], &mut rng);
        assert_eq!(d, Bh2Decision::ReturnHome);
    }

    #[test]
    fn healthy_remote_stays_even_without_alternatives() {
        let mut rng = SimRng::new(5);
        // The paper's rule only evaluates backups when the remote gateway
        // is about to sleep (load < low) — a healthily-loaded remote keeps
        // its users regardless of what else is in range.
        let d = decide(&params(), false, 0.3, &[], &mut rng);
        assert_eq!(d, Bh2Decision::Stay);
        let d = decide(&params(), false, 0.3, &[vg(1, 0.95)], &mut rng);
        assert_eq!(d, Bh2Decision::Stay);
    }

    #[test]
    fn remote_with_healthy_load_stays() {
        let mut rng = SimRng::new(6);
        let d = decide(&params(), false, 0.3, &[vg(1, 0.2)], &mut rng);
        assert_eq!(d, Bh2Decision::Stay);
    }

    #[test]
    fn sleepy_remote_hops_or_returns() {
        let mut rng = SimRng::new(7);
        // Enough candidates: hop.
        let d = decide(&params(), false, 0.05, &[vg(1, 0.3), vg(2, 0.2)], &mut rng);
        assert!(matches!(d, Bh2Decision::MoveTo(_)));
        // Candidates == backup: no legal move target. Default reading:
        // stay hitched; literal reading: return home.
        let d = decide(&params(), false, 0.05, &[vg(1, 0.3)], &mut rng);
        assert_eq!(d, Bh2Decision::Stay);
        let literal = Bh2Params { literal_return_home: true, ..params() };
        let d = decide(&literal, false, 0.05, &[vg(1, 0.3)], &mut rng);
        assert_eq!(d, Bh2Decision::ReturnHome);
    }

    #[test]
    fn zero_backup_variant_moves_with_single_candidate() {
        let p = Bh2Params { backup: 0, ..params() };
        let mut rng = SimRng::new(8);
        let d = decide(&p, true, 0.05, &[vg(1, 0.3)], &mut rng);
        assert_eq!(d, Bh2Decision::MoveTo(1));
        // And a healthily-loaded remote without alternatives stays put.
        let d = decide(&p, false, 0.3, &[], &mut rng);
        assert_eq!(d, Bh2Decision::Stay);
    }

    #[test]
    fn selection_is_load_weighted() {
        let mut rng = SimRng::new(9);
        let others = [vg(1, 0.45), vg(2, 0.15)];
        let mut counts = [0u32; 2];
        for _ in 0..3_000 {
            match decide(&params(), true, 0.01, &others, &mut rng) {
                Bh2Decision::MoveTo(1) => counts[0] += 1,
                Bh2Decision::MoveTo(2) => counts[1] += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        let ratio = f64::from(counts[0]) / f64::from(counts[1]);
        assert!((ratio - 3.0).abs() < 0.5, "3:1 load weighting, got {ratio}");
    }

    #[test]
    fn thresholds_are_strict_boundaries() {
        let mut rng = SimRng::new(10);
        // Load exactly at low: not "below low", home stays.
        let d = decide(&params(), true, 0.10, &[vg(1, 0.3), vg(2, 0.3)], &mut rng);
        assert_eq!(d, Bh2Decision::Stay);
        // Candidate exactly at high: excluded.
        let d = decide(&params(), true, 0.05, &[vg(1, 0.50), vg(2, 0.50)], &mut rng);
        assert_eq!(d, Bh2Decision::Stay);
    }
}
