//! The DSLAM: shelf, line cards, per-port modems, and energy metering.
//!
//! Sleep semantics follow §5.1: when a gateway sleeps, its DSLAM-side modem
//! sleeps; a line card sleeps when *all* of its ports are inactive; the
//! shelf never sleeps. A line counts as active from the moment its gateway
//! starts waking (the wake time includes line-card and modem power-up plus
//! modem resync). The gateway-side doze ladder
//! ([`crate::power::PowerLadder`]) refines only the *gateway's* sleeping
//! draw: the DSL line — and therefore the modem and card metering here —
//! is binary, active iff the gateway is powered, whatever doze depth the
//! gateway rests at.

use crate::kswitch::Fabric;
use crate::power::PowerModel;
use insomnia_simcore::{SimTime, TimeWeighted};

/// DSLAM geometry.
#[derive(Debug, Clone, Copy)]
pub struct DslamConfig {
    /// Number of line cards (paper's scenario: 4).
    pub n_cards: usize,
    /// Ports per line card (paper's scenario: 12).
    pub ports_per_card: usize,
}

impl Default for DslamConfig {
    fn default() -> Self {
        DslamConfig { n_cards: 4, ports_per_card: 12 }
    }
}

/// A DSLAM with a switch fabric in front of its ports.
#[derive(Debug, Clone)]
pub struct Dslam {
    cfg: DslamConfig,
    power: PowerModel,
    fabric: Fabric,
    /// Active (powered) state per line.
    line_active: Vec<bool>,
    /// Number of `true` entries in `line_active`.
    n_active: usize,
    /// Aggregate line-card power (awake cards × card watts).
    cards_meter: TimeWeighted,
    /// Aggregate modem power (active lines × modem watts).
    modems_meter: TimeWeighted,
    started: SimTime,
    finished_at: SimTime,
}

impl Dslam {
    /// Creates a DSLAM at `t0` with all lines asleep.
    pub fn new(
        t0: SimTime,
        cfg: DslamConfig,
        power: PowerModel,
        fabric: Fabric,
        n_lines: usize,
    ) -> Self {
        assert!(n_lines <= cfg.n_cards * cfg.ports_per_card);
        assert_eq!(fabric.n_cards(), cfg.n_cards, "fabric/config card mismatch");
        Dslam {
            cfg,
            power,
            fabric,
            line_active: vec![false; n_lines],
            n_active: 0,
            cards_meter: TimeWeighted::new(t0.as_millis(), 0.0),
            modems_meter: TimeWeighted::new(t0.as_millis(), 0.0),
            started: t0,
            finished_at: t0,
        }
    }

    /// Geometry.
    pub fn config(&self) -> DslamConfig {
        self.cfg
    }

    /// Marks `line` as powering on at `t` (gateway began waking). The
    /// fabric may remap the line; returns its (possibly new) port.
    pub fn line_powering_on(&mut self, t: SimTime, line: usize) -> crate::kswitch::PortLoc {
        assert!(!self.line_active[line], "line {line} already active");
        self.line_active[line] = true;
        self.n_active += 1;
        let loc = self.fabric.on_wake(line);
        self.update_meters(t);
        loc
    }

    /// Marks `line` as powered off at `t` (gateway slept).
    pub fn line_powering_off(&mut self, t: SimTime, line: usize) {
        assert!(self.line_active[line], "line {line} already inactive");
        self.line_active[line] = false;
        self.n_active -= 1;
        self.fabric.on_sleep(line);
        self.update_meters(t);
    }

    /// Optimal-scheme hook: globally repack active lines (full switch only;
    /// no-op on other fabrics — they cannot).
    pub fn repack_full_switch(&mut self, t: SimTime) {
        if let Fabric::Full(f) = &mut self.fabric {
            f.repack_all();
            self.update_meters(t);
        }
    }

    fn update_meters(&mut self, t: SimTime) {
        #[cfg(debug_assertions)]
        self.assert_counts();
        let awake = self.fabric.awake_cards() as f64;
        let modems = self.n_active as f64;
        self.cards_meter.set(t.as_millis(), awake * self.power.line_card_w);
        self.modems_meter.set(t.as_millis(), modems * self.power.isp_modem_w);
    }

    /// Checks the incremental active-line and per-card counts against a
    /// recount from the line states and the fabric's current mapping.
    #[cfg(debug_assertions)]
    fn assert_counts(&self) {
        let mut per_card = vec![0usize; self.cfg.n_cards];
        for (line, _) in self.line_active.iter().enumerate().filter(|(_, &a)| a) {
            per_card[self.fabric.location(line).card] += 1;
        }
        assert_eq!(self.n_active, per_card.iter().sum::<usize>(), "active-line count drifted");
        assert_eq!(self.fabric.active_per_card(), per_card, "per-card active counts drifted");
        let awake = per_card.iter().filter(|&&a| a > 0).count();
        assert_eq!(self.fabric.awake_cards(), awake, "awake-card count drifted");
    }

    /// Number of line cards currently awake.
    pub fn awake_cards(&self) -> usize {
        self.fabric.awake_cards()
    }

    /// Number of active lines.
    pub fn active_lines(&self) -> usize {
        self.n_active
    }

    /// Finalizes meters at the simulation horizon.
    pub fn finish(&mut self, t: SimTime) {
        self.cards_meter.advance(t.as_millis());
        self.modems_meter.advance(t.as_millis());
        self.finished_at = t;
    }

    /// Line-card energy so far, joules.
    pub fn cards_energy_j(&self) -> f64 {
        self.cards_meter.integral()
    }

    /// Modem energy so far, joules.
    pub fn modems_energy_j(&self) -> f64 {
        self.modems_meter.integral()
    }

    /// Shelf energy over the observed window, joules (constant draw).
    pub fn shelf_energy_j(&self) -> f64 {
        self.power.shelf_w * (self.finished_at - self.started).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kswitch::{random_mapping, FixedFabric, FullFabric, KSwitchFabric};
    use insomnia_simcore::SimRng;

    fn fixed_dslam(n_lines: usize) -> Dslam {
        let mut rng = SimRng::new(1);
        let locs = random_mapping(n_lines, 4, 12, &mut rng);
        Dslam::new(
            SimTime::ZERO,
            DslamConfig::default(),
            PowerModel::default(),
            Fabric::Fixed(FixedFabric::new(4, locs)),
            n_lines,
        )
    }

    #[test]
    fn card_wakes_with_first_line_and_sleeps_with_last() {
        let mut d = fixed_dslam(40);
        assert_eq!(d.awake_cards(), 0);
        d.line_powering_on(SimTime::from_secs(10), 0);
        assert_eq!(d.awake_cards(), 1);
        assert_eq!(d.active_lines(), 1);
        d.line_powering_off(SimTime::from_secs(20), 0);
        assert_eq!(d.awake_cards(), 0);
    }

    #[test]
    fn energy_accounting_shelf_cards_modems() {
        let mut d = fixed_dslam(40);
        // One line active for 100 s: one card (98 W) + one modem (1 W).
        d.line_powering_on(SimTime::from_secs(0), 5);
        d.line_powering_off(SimTime::from_secs(100), 5);
        d.finish(SimTime::from_secs(1_000));
        assert!((d.cards_energy_j() - 98.0 * 100.0).abs() < 1e-6);
        assert!((d.modems_energy_j() - 1.0 * 100.0).abs() < 1e-6);
        assert!((d.shelf_energy_j() - 21.0 * 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn kswitch_dslam_keeps_cards_asleep() {
        let mut rng = SimRng::new(2);
        let fabric = Fabric::KSwitch(KSwitchFabric::new(40, 4, 12, 4, &mut rng));
        let mut d =
            Dslam::new(SimTime::ZERO, DslamConfig::default(), PowerModel::default(), fabric, 40);
        // Twelve fresh wakes: k-switch packing needs at most a few cards
        // (max lines per switch), against ~4 for the fixed fabric.
        for line in 0..12 {
            d.line_powering_on(SimTime::from_secs(line as u64), line);
        }
        assert!(d.awake_cards() <= 3, "k-switch must pack: {} cards", d.awake_cards());
        let mut fixed = fixed_dslam(40);
        for line in 0..12 {
            fixed.line_powering_on(SimTime::from_secs(line as u64), line);
        }
        assert!(fixed.awake_cards() >= d.awake_cards());
    }

    #[test]
    fn full_switch_repack_consolidates() {
        let fabric = Fabric::Full(FullFabric::new(40, 4, 12));
        let mut d =
            Dslam::new(SimTime::ZERO, DslamConfig::default(), PowerModel::default(), fabric, 40);
        for line in 0..40 {
            d.line_powering_on(SimTime::ZERO, line);
        }
        for line in 13..40 {
            d.line_powering_off(SimTime::from_secs(10), line);
        }
        d.repack_full_switch(SimTime::from_secs(10));
        assert_eq!(d.awake_cards(), 2, "13 actives repack onto 2 cards");
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn double_power_on_panics() {
        let mut d = fixed_dslam(4);
        d.line_powering_on(SimTime::ZERO, 0);
        d.line_powering_on(SimTime::ZERO, 0);
    }

    #[test]
    #[should_panic(expected = "fabric/config card mismatch")]
    fn fabric_must_match_config() {
        let locs = random_mapping(4, 2, 12, &mut SimRng::new(3));
        Dslam::new(
            SimTime::ZERO,
            DslamConfig::default(), // 4 cards
            PowerModel::default(),
            Fabric::Fixed(FixedFabric::new(2, locs)), // 2 cards
            4,
        );
    }
}
