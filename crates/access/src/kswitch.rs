//! Switch fabrics between the HDF and the DSLAM ports (§4).
//!
//! Three wiring options, matching the paper's schemes, each with the same
//! inherent methods (`location`, `on_wake`, `on_sleep` and the count
//! readers); [`Fabric`] picks one at run time and dispatches by `match`:
//!
//! * [`FixedFabric`] — today's plant: each line permanently terminates on
//!   one port (randomly assigned, per the appendix's attenuation analysis).
//! * [`KSwitchFabric`] — the paper's proposal: groups of `k` line cards are
//!   covered by `m` little `k×k` switches; the i-th switch connects one
//!   line to the i-th port of each card in its group and can permute that
//!   mapping, packing active lines onto the bottom cards.
//! * [`FullFabric`] — an idealized any-line-to-any-port switch (the upper
//!   bound used by the *Optimal* scheme).
//!
//! Switching discipline: active lines must not be disrupted, so remapping
//! happens only when a line *wakes* (§5.1: "switching operations happen
//! only when the gateway is being woken-up"). A waking line may swap
//! positions with a sleeping line — sleeping lines carry nothing.
//!
//! Every fabric keeps its per-card active-line counts incrementally
//! (`CardCounts`), so a wake or sleep costs O(1) bookkeeping and
//! `awake_cards` is a field read. The counts stay exact because an
//! *active* line never moves: the only remap of active lines is
//! [`FullFabric::repack_all`], which recounts.

use insomnia_simcore::SimRng;
use serde::{Deserialize, Serialize};

/// A port position at the DSLAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortLoc {
    /// Line-card index.
    pub card: usize,
    /// Port index within the card.
    pub port: usize,
}

/// Per-card active-line counts plus the number of cards with any active
/// line, maintained one transition at a time.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CardCounts {
    per_card: Vec<usize>,
    awake: usize,
}

impl CardCounts {
    fn new(n_cards: usize) -> Self {
        CardCounts { per_card: vec![0; n_cards], awake: 0 }
    }

    /// One more active line on `card`.
    fn inc(&mut self, card: usize) {
        self.awake += usize::from(self.per_card[card] == 0);
        self.per_card[card] += 1;
    }

    /// One fewer active line on `card`.
    fn dec(&mut self, card: usize) {
        self.per_card[card] -= 1;
        self.awake -= usize::from(self.per_card[card] == 0);
    }

    /// Rebuilds the counts from the cards of every active line.
    fn recount(&mut self, active_cards: impl Iterator<Item = usize>) {
        self.per_card.fill(0);
        for card in active_cards {
            self.per_card[card] += 1;
        }
        self.awake = self.per_card.iter().filter(|&&a| a > 0).count();
    }
}

/// Generates the appendix-faithful random line→port assignment: gateways
/// land on DSLAM ports irrespective of geography.
pub fn random_mapping(
    n_lines: usize,
    n_cards: usize,
    ports_per_card: usize,
    rng: &mut SimRng,
) -> Vec<PortLoc> {
    let n_ports = n_cards * ports_per_card;
    assert!(n_lines <= n_ports, "more lines than ports");
    let mut ports: Vec<PortLoc> = (0..n_cards)
        .flat_map(|card| (0..ports_per_card).map(move |port| PortLoc { card, port }))
        .collect();
    rng.shuffle(&mut ports);
    ports.truncate(n_lines);
    ports
}

// ---------------------------------------------------------------------------

/// No switching: the line→port map never changes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FixedFabric {
    locs: Vec<PortLoc>,
    active: Vec<bool>,
    counts: CardCounts,
}

impl FixedFabric {
    /// Builds from an explicit mapping (e.g. [`random_mapping`]).
    pub fn new(n_cards: usize, locs: Vec<PortLoc>) -> Self {
        let active = vec![false; locs.len()];
        FixedFabric { locs, active, counts: CardCounts::new(n_cards) }
    }

    /// Current port of a line.
    pub fn location(&self, line: usize) -> PortLoc {
        self.locs[line]
    }

    /// Notifies that `line` is about to power on; the fabric may remap it
    /// (only swapping with inactive lines) and returns its new location.
    pub fn on_wake(&mut self, line: usize) -> PortLoc {
        if !std::mem::replace(&mut self.active[line], true) {
            self.counts.inc(self.locs[line].card);
        }
        self.locs[line]
    }

    /// Notifies that `line` powered off.
    pub fn on_sleep(&mut self, line: usize) {
        if std::mem::replace(&mut self.active[line], false) {
            self.counts.dec(self.locs[line].card);
        }
    }

    /// Number of line cards behind this fabric.
    pub fn n_cards(&self) -> usize {
        self.counts.per_card.len()
    }

    /// Number of active lines per card.
    pub fn active_per_card(&self) -> &[usize] {
        &self.counts.per_card
    }

    /// Number of cards with at least one active line.
    pub fn awake_cards(&self) -> usize {
        self.counts.awake
    }
}

// ---------------------------------------------------------------------------

/// One `k×k` switch: `slots[j]` holds the line mapped to card
/// `group_base + j` at this switch's port index.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SwitchGroup {
    /// First card of the k-card group this switch spans.
    group_base: usize,
    /// Port index (same on every card in the group).
    port: usize,
    /// `slots[j] = Some(line)` if a line terminates on card group_base+j.
    slots: Vec<Option<usize>>,
}

/// The paper's k-switch fabric.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KSwitchFabric {
    k: usize,
    switches: Vec<SwitchGroup>,
    /// Per line: `(switch index, slot within switch)`.
    line_pos: Vec<(usize, usize)>,
    active: Vec<bool>,
    counts: CardCounts,
}

impl KSwitchFabric {
    /// Builds a k-switch fabric for `n_lines` lines over `n_cards` cards of
    /// `ports_per_card` ports. Cards are batched in groups of `k` (the
    /// paper's Fig. 5 convention); each group has `ports_per_card` switches;
    /// lines are dealt to switches in shuffled round-robin.
    ///
    /// # Panics
    /// Panics if `k` does not divide `n_cards`, or there are more lines
    /// than ports.
    pub fn new(
        n_lines: usize,
        n_cards: usize,
        ports_per_card: usize,
        k: usize,
        rng: &mut SimRng,
    ) -> Self {
        assert!(k >= 1 && n_cards.is_multiple_of(k), "k must divide the card count");
        assert!(n_lines <= n_cards * ports_per_card, "more lines than ports");
        let n_groups = n_cards / k;
        let mut switches = Vec::with_capacity(n_groups * ports_per_card);
        for g in 0..n_groups {
            for port in 0..ports_per_card {
                switches.push(SwitchGroup { group_base: g * k, port, slots: vec![None; k] });
            }
        }
        // Deal lines into switches round-robin after a shuffle (arbitrary
        // lines reach each switch, per §4.2).
        let mut lines: Vec<usize> = (0..n_lines).collect();
        rng.shuffle(&mut lines);
        let mut line_pos = vec![(usize::MAX, usize::MAX); n_lines];
        for (i, &line) in lines.iter().enumerate() {
            let sw = i % switches.len();
            let slot = switches[sw]
                .slots
                .iter()
                .position(|s| s.is_none())
                .expect("capacity checked above");
            switches[sw].slots[slot] = Some(line);
            line_pos[line] = (sw, slot);
        }
        KSwitchFabric {
            k,
            switches,
            line_pos,
            active: vec![false; n_lines],
            counts: CardCounts::new(n_cards),
        }
    }

    /// The switch size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current port of a line.
    pub fn location(&self, line: usize) -> PortLoc {
        let (sw, slot) = self.line_pos[line];
        let s = &self.switches[sw];
        PortLoc { card: s.group_base + slot, port: s.port }
    }

    /// Notifies that `line` is about to power on; the fabric may remap it
    /// (only swapping with inactive lines) and returns its new location.
    pub fn on_wake(&mut self, line: usize) -> PortLoc {
        if self.active[line] {
            return self.location(line);
        }
        let (sw, slot) = self.line_pos[line];
        // Find the deepest (highest-index) slot in this switch not held by
        // an active line: packing active lines onto the bottom cards lets
        // the top cards sleep (§4.2).
        let target = {
            let s = &self.switches[sw];
            (0..s.slots.len())
                .rev()
                .find(|&j| match s.slots[j] {
                    Some(other) => !self.active[other],
                    None => true,
                })
                .expect("the waking line's own slot is inactive")
        };
        if target != slot {
            let s = &mut self.switches[sw];
            let displaced = s.slots[target];
            s.slots[target] = Some(line);
            s.slots[slot] = displaced;
            self.line_pos[line] = (sw, target);
            if let Some(d) = displaced {
                self.line_pos[d] = (sw, slot);
            }
        }
        self.active[line] = true;
        let loc = self.location(line);
        self.counts.inc(loc.card);
        loc
    }

    /// Notifies that `line` powered off.
    pub fn on_sleep(&mut self, line: usize) {
        if std::mem::replace(&mut self.active[line], false) {
            self.counts.dec(self.location(line).card);
        }
    }

    /// Number of line cards behind this fabric.
    pub fn n_cards(&self) -> usize {
        self.counts.per_card.len()
    }

    /// Number of active lines per card.
    pub fn active_per_card(&self) -> &[usize] {
        &self.counts.per_card
    }

    /// Number of cards with at least one active line.
    pub fn awake_cards(&self) -> usize {
        self.counts.awake
    }
}

// ---------------------------------------------------------------------------

/// Idealized full switch: any line to any port.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FullFabric {
    ports_per_card: usize,
    /// `port_line[card][port] = Some(line)`.
    port_line: Vec<Vec<Option<usize>>>,
    locs: Vec<PortLoc>,
    active: Vec<bool>,
    counts: CardCounts,
}

impl FullFabric {
    /// Builds a full-switch fabric with an initial packed mapping.
    pub fn new(n_lines: usize, n_cards: usize, ports_per_card: usize) -> Self {
        assert!(n_lines <= n_cards * ports_per_card, "more lines than ports");
        let mut port_line = vec![vec![None; ports_per_card]; n_cards];
        let mut locs = Vec::with_capacity(n_lines);
        for line in 0..n_lines {
            let loc = PortLoc { card: line / ports_per_card, port: line % ports_per_card };
            port_line[loc.card][loc.port] = Some(line);
            locs.push(loc);
        }
        FullFabric {
            ports_per_card,
            port_line,
            locs,
            active: vec![false; n_lines],
            counts: CardCounts::new(n_cards),
        }
    }

    /// Globally repacks all *active* lines onto the minimum number of cards
    /// (the Optimal scheme's zero-disruption migration, §5.1). Sleeping
    /// lines fill the remaining ports arbitrarily.
    pub fn repack_all(&mut self) {
        let mut actives: Vec<usize> = (0..self.locs.len()).filter(|&l| self.active[l]).collect();
        let sleepers: Vec<usize> = (0..self.locs.len()).filter(|&l| !self.active[l]).collect();
        actives.extend(sleepers);
        for row in &mut self.port_line {
            row.fill(None);
        }
        for (i, &line) in actives.iter().enumerate() {
            let loc = PortLoc { card: i / self.ports_per_card, port: i % self.ports_per_card };
            self.port_line[loc.card][loc.port] = Some(line);
            self.locs[line] = loc;
        }
        let (locs, active) = (&self.locs, &self.active);
        self.counts.recount((0..locs.len()).filter(|&l| active[l]).map(|l| locs[l].card));
    }

    /// Current port of a line.
    pub fn location(&self, line: usize) -> PortLoc {
        self.locs[line]
    }

    /// Notifies that `line` is about to power on; the fabric may remap it
    /// (only swapping with inactive lines) and returns its new location.
    pub fn on_wake(&mut self, line: usize) -> PortLoc {
        if self.active[line] {
            return self.locs[line];
        }
        // Best-fit: the awake card with the most active lines that still has
        // a non-active port; otherwise the lowest-index sleeping card. Active
        // lines sit on distinct ports, so a card has a non-active port iff
        // its active count is below its port count.
        let counts = &self.counts.per_card;
        let candidate = (0..counts.len())
            .filter(|&c| counts[c] > 0 && counts[c] < self.ports_per_card)
            .max_by_key(|&c| counts[c])
            .or_else(|| counts.iter().position(|&a| a == 0));
        if let Some(card) = candidate {
            let cur = self.locs[line];
            if cur.card != card {
                let port = (0..self.ports_per_card)
                    .find(|&p| match self.port_line[card][p] {
                        Some(other) => !self.active[other],
                        None => true,
                    })
                    .expect("candidate card has a free port");
                let displaced = self.port_line[card][port];
                self.port_line[card][port] = Some(line);
                self.port_line[cur.card][cur.port] = displaced;
                self.locs[line] = PortLoc { card, port };
                if let Some(d) = displaced {
                    self.locs[d] = cur;
                }
            }
        }
        self.active[line] = true;
        self.counts.inc(self.locs[line].card);
        self.locs[line]
    }

    /// Notifies that `line` powered off.
    pub fn on_sleep(&mut self, line: usize) {
        if std::mem::replace(&mut self.active[line], false) {
            self.counts.dec(self.locs[line].card);
        }
    }

    /// Number of line cards behind this fabric.
    pub fn n_cards(&self) -> usize {
        self.counts.per_card.len()
    }

    /// Number of active lines per card.
    pub fn active_per_card(&self) -> &[usize] {
        &self.counts.per_card
    }

    /// Number of cards with at least one active line.
    pub fn awake_cards(&self) -> usize {
        self.counts.awake
    }
}

/// Runtime-selectable fabric (avoids trait objects in simulation state).
#[derive(Debug, Clone)]
pub enum Fabric {
    /// No switching capability.
    Fixed(FixedFabric),
    /// Constant-size k-switches at the HDF.
    KSwitch(KSwitchFabric),
    /// Idealized full switch.
    Full(FullFabric),
}

impl Fabric {
    /// Number of line cards behind this fabric.
    pub fn n_cards(&self) -> usize {
        self.counts().per_card.len()
    }

    /// Current port of a line.
    pub fn location(&self, line: usize) -> PortLoc {
        match self {
            Fabric::Fixed(f) => f.location(line),
            Fabric::KSwitch(f) => f.location(line),
            Fabric::Full(f) => f.location(line),
        }
    }

    /// Notifies that `line` is about to power on; returns its (possibly
    /// remapped) location.
    pub fn on_wake(&mut self, line: usize) -> PortLoc {
        match self {
            Fabric::Fixed(f) => f.on_wake(line),
            Fabric::KSwitch(f) => f.on_wake(line),
            Fabric::Full(f) => f.on_wake(line),
        }
    }

    /// Notifies that `line` powered off.
    pub fn on_sleep(&mut self, line: usize) {
        match self {
            Fabric::Fixed(f) => f.on_sleep(line),
            Fabric::KSwitch(f) => f.on_sleep(line),
            Fabric::Full(f) => f.on_sleep(line),
        }
    }

    /// Number of active lines per card.
    pub fn active_per_card(&self) -> &[usize] {
        &self.counts().per_card
    }

    /// Number of cards with at least one active line.
    pub fn awake_cards(&self) -> usize {
        self.counts().awake
    }

    fn counts(&self) -> &CardCounts {
        match self {
            Fabric::Fixed(f) => &f.counts,
            Fabric::KSwitch(f) => &f.counts,
            Fabric::Full(f) => &f.counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_mapping_is_injective_and_in_range() {
        let mut rng = SimRng::new(1);
        let locs = random_mapping(40, 4, 12, &mut rng);
        assert_eq!(locs.len(), 40);
        let mut seen = std::collections::HashSet::new();
        for l in &locs {
            assert!(l.card < 4 && l.port < 12);
            assert!(seen.insert((l.card, l.port)), "duplicate port");
        }
    }

    #[test]
    #[should_panic(expected = "more lines than ports")]
    fn random_mapping_rejects_overflow() {
        random_mapping(50, 4, 12, &mut SimRng::new(1));
    }

    #[test]
    fn fixed_fabric_never_moves_lines() {
        let mut rng = SimRng::new(2);
        let locs = random_mapping(40, 4, 12, &mut rng);
        let mut f = FixedFabric::new(4, locs.clone());
        for line in 0..40 {
            assert_eq!(f.on_wake(line), locs[line]);
        }
        assert_eq!(f.awake_cards(), 4, "random spread wakes every card");
        for line in 0..40 {
            f.on_sleep(line);
        }
        assert_eq!(f.awake_cards(), 0);
    }

    #[test]
    fn kswitch_packs_actives_onto_bottom_cards() {
        let mut rng = SimRng::new(3);
        // 40 lines, 4 cards × 12 ports, 12 4-switches: the paper's scenario.
        let mut f = KSwitchFabric::new(40, 4, 12, 4, &mut rng);
        // Fresh wakes (no interleaved sleeps) keep packing perfect: the
        // number of awake cards equals the largest number of active lines
        // sharing one switch — a k-switch cannot do better (§4.2).
        let mut per_switch = std::collections::HashMap::new();
        for line in 0..20 {
            let loc = f.on_wake(line);
            let sw = f.line_pos[line].0;
            let n = per_switch.entry(sw).or_insert(0usize);
            *n += 1;
            // The i-th wake within a switch lands on the i-th card from the
            // bottom.
            assert_eq!(loc.card, 4 - *n, "line {line}: wake #{n} in switch {sw}");
            let max_in_switch = per_switch.values().max().copied().unwrap();
            assert_eq!(f.awake_cards(), max_in_switch);
        }
    }

    #[test]
    fn kswitch_cannot_displace_active_lines() {
        let mut rng = SimRng::new(4);
        let mut f = KSwitchFabric::new(8, 4, 2, 4, &mut rng);
        for line in 0..8 {
            f.on_wake(line);
        }
        // All 8 lines active on 4 cards × 2 ports: every card busy.
        assert_eq!(f.awake_cards(), 4);
        let locs: Vec<PortLoc> = (0..8).map(|l| f.location(l)).collect();
        // Sleeping and re-waking one line cannot move any *other* line.
        f.on_sleep(3);
        f.on_wake(3);
        for l in 0..8 {
            if l != 3 {
                assert_eq!(f.location(l), locs[l], "active line {l} moved");
            }
        }
    }

    #[test]
    fn kswitch_recovers_packing_on_rewake() {
        let mut rng = SimRng::new(5);
        let mut f = KSwitchFabric::new(4, 4, 1, 4, &mut rng);
        // One switch of 4 slots. Wake all, then sleep the bottom two.
        for line in 0..4 {
            f.on_wake(line);
        }
        assert_eq!(f.awake_cards(), 4);
        let bottom_line = (0..4).find(|&l| f.location(l).card == 3).unwrap();
        let third_line = (0..4).find(|&l| f.location(l).card == 2).unwrap();
        f.on_sleep(bottom_line);
        f.on_sleep(third_line);
        // Two actives remain on cards 0 and 1 (packing degraded: they were
        // placed before the others slept and cannot move).
        assert_eq!(f.awake_cards(), 2);
        // A re-wake now lands at the bottom, not on a fresh card.
        let loc = f.on_wake(bottom_line);
        assert_eq!(loc.card, 3);
        assert_eq!(f.awake_cards(), 3);
    }

    #[test]
    fn full_fabric_packs_optimally_on_repack() {
        let mut f = FullFabric::new(40, 4, 12);
        // Wake 13 lines spread anywhere; repack ⇒ ceil(13/12) = 2 cards.
        for line in 0..13 {
            f.on_wake(line);
        }
        f.repack_all();
        assert_eq!(f.awake_cards(), 2);
        let counts = f.active_per_card();
        assert_eq!(counts.iter().sum::<usize>(), 13);
        assert_eq!(counts[0], 12, "first card fully packed after repack");
    }

    #[test]
    fn full_fabric_on_wake_prefers_fullest_card() {
        let mut f = FullFabric::new(40, 4, 12);
        for line in 0..5 {
            f.on_wake(line);
        }
        // All five on one card (initial mapping card 0 + best-fit).
        assert_eq!(f.awake_cards(), 1);
        let packed_card = f.location(0).card;
        let loc = f.on_wake(20);
        assert_eq!(loc.card, packed_card, "best-fit keeps packing");
    }

    #[test]
    fn full_fabric_swap_preserves_bijection() {
        let mut f = FullFabric::new(24, 2, 12);
        for line in 0..24 {
            f.on_wake(line);
        }
        for line in (0..24).step_by(2) {
            f.on_sleep(line);
        }
        for line in (0..24).step_by(2) {
            f.on_wake(line);
        }
        // Every line sits on a distinct port.
        let mut seen = std::collections::HashSet::new();
        for l in 0..24 {
            let loc = f.location(l);
            assert!(seen.insert((loc.card, loc.port)), "port collision at line {l}");
        }
    }

    #[test]
    fn fabric_enum_delegates() {
        let mut rng = SimRng::new(6);
        let mut f = Fabric::KSwitch(KSwitchFabric::new(8, 4, 2, 4, &mut rng));
        assert_eq!(f.n_cards(), 4);
        let loc = f.on_wake(0);
        assert_eq!(loc.card, 3);
        f.on_sleep(0);
        assert_eq!(f.awake_cards(), 0);
    }
}
