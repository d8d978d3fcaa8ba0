//! Property-based tests of the switch fabrics and the gateway FSM.

use insomnia_access::{
    p_at_least, p_card_sleeps, random_mapping, Fabric, FixedFabric, FullFabric, Gateway, GwState,
    KSwitchFabric, PowerModel,
};
use insomnia_simcore::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use std::collections::HashSet;

/// Asserts that the fabric's incremental per-card and awake-card counts
/// equal a recount from `location()` over the caller's own active set.
fn assert_counts(fabric: &Fabric, active: &[bool]) {
    let mut per_card = vec![0usize; fabric.n_cards()];
    for (line, _) in active.iter().enumerate().filter(|(_, &a)| a) {
        per_card[fabric.location(line).card] += 1;
    }
    assert_eq!(fabric.active_per_card(), per_card, "per-card active counts drifted");
    let awake = per_card.iter().filter(|&&a| a > 0).count();
    assert_eq!(fabric.awake_cards(), awake, "awake-card count drifted");
}

/// One step of a random fabric history.
#[derive(Debug, Clone, Copy)]
enum Op {
    Wake(usize),
    Sleep(usize),
    /// A global repack (full switch only; a no-op elsewhere).
    Repack,
}

/// Wakes and sleeps in equal measure, with a repack about one step in 17.
fn op_strategy(n_lines: usize) -> impl Strategy<Value = Op> {
    (0..n_lines, 0u8..17).prop_map(|(line, kind)| match kind {
        0 => Op::Repack,
        1..=8 => Op::Wake(line),
        _ => Op::Sleep(line),
    })
}

/// Replays a random wake/sleep/repack sequence against a fabric and checks
/// the structural invariants after every step.
fn check_fabric(fabric: &mut Fabric, n_lines: usize, ops: &[Op]) {
    let mut active = vec![false; n_lines];
    let mut locs_before: Vec<_> = (0..n_lines).map(|l| fabric.location(l)).collect();
    for &op in ops {
        let line = match op {
            Op::Wake(line) if !active[line] => {
                fabric.on_wake(line);
                active[line] = true;
                line
            }
            Op::Sleep(line) if active[line] => {
                fabric.on_sleep(line);
                active[line] = false;
                line
            }
            Op::Repack => {
                let Fabric::Full(f) = fabric else { continue };
                // A repack may move active lines; only the bijection and
                // the counts must survive it.
                f.repack_all();
                assert_counts(fabric, &active);
                locs_before = (0..n_lines).map(|l| fabric.location(l)).collect();
                continue;
            }
            _ => continue,
        };
        // Invariant 1: line→port is a bijection (no two lines share a port).
        let mut seen = HashSet::new();
        for l in 0..n_lines {
            let loc = fabric.location(l);
            assert!(seen.insert((loc.card, loc.port)), "port collision after op on {line}");
        }
        // Invariant 2: switching never moves *other active* lines.
        let locs_after: Vec<_> = (0..n_lines).map(|l| fabric.location(l)).collect();
        for l in 0..n_lines {
            if l != line && active[l] {
                assert_eq!(locs_after[l], locs_before[l], "active line {l} was displaced");
            }
        }
        locs_before = locs_after;
        // Invariant 3: the incremental counts match a recount (and so sum
        // to the number of active lines).
        assert_counts(fabric, &active);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The k-switch fabric keeps its bijection and never displaces active
    /// lines under arbitrary wake/sleep interleavings.
    #[test]
    fn kswitch_invariants_hold(
        seed in any::<u64>(),
        ops in prop::collection::vec(op_strategy(40), 1..200),
    ) {
        let mut rng = SimRng::new(seed);
        let mut f = Fabric::KSwitch(KSwitchFabric::new(40, 4, 12, 4, &mut rng));
        check_fabric(&mut f, 40, &ops);
    }

    /// Same invariants for the full switch, with interleaved global
    /// repacks.
    #[test]
    fn full_fabric_invariants_hold(
        ops in prop::collection::vec(op_strategy(40), 1..200),
    ) {
        let mut f = Fabric::Full(FullFabric::new(40, 4, 12));
        check_fabric(&mut f, 40, &ops);
    }

    /// Same invariants for fixed wiring (which trivially never moves a
    /// line, but keeps the same incremental counts).
    #[test]
    fn fixed_fabric_invariants_hold(
        seed in any::<u64>(),
        ops in prop::collection::vec(op_strategy(40), 1..200),
    ) {
        let mut rng = SimRng::new(seed);
        let mut f = Fabric::Fixed(FixedFabric::new(4, random_mapping(40, 4, 12, &mut rng)));
        check_fabric(&mut f, 40, &ops);
    }

    /// A full switch always needs at most as many awake cards as a k-switch
    /// over the same wake/sleep history (it has strictly more freedom).
    #[test]
    fn full_switch_dominates_kswitch(
        seed in any::<u64>(),
        ops in prop::collection::vec((0usize..40, any::<bool>()), 1..150),
    ) {
        let mut rng = SimRng::new(seed);
        let mut k = Fabric::KSwitch(KSwitchFabric::new(40, 4, 12, 4, &mut rng));
        let mut full = Fabric::Full(FullFabric::new(40, 4, 12));
        let mut active = [false; 40];
        for &(line, wake) in &ops {
            let line = line % 40;
            if wake && !active[line] {
                k.on_wake(line);
                full.on_wake(line);
                active[line] = true;
            } else if !wake && active[line] {
                k.on_sleep(line);
                full.on_sleep(line);
                active[line] = false;
            }
        }
        // After a full repack the full switch reaches the packing optimum,
        // which lower-bounds anything the k-switch can do.
        if let Fabric::Full(f) = &mut full {
            f.repack_all();
        }
        assert_counts(&full, &active);
        assert_counts(&k, &active);
        let n_active = active.iter().filter(|&&a| a).count();
        let optimum = n_active.div_ceil(12);
        prop_assert_eq!(full.awake_cards(), optimum);
        prop_assert!(k.awake_cards() >= optimum);
    }

    /// Eq. (2) is a probability, monotone in l (harder cards sleep less)
    /// and in p (more traffic, less sleep), and the tail sum matches the
    /// complement rule.
    #[test]
    fn sleep_probability_laws(
        k in 1u32..10,
        m in 1u32..60,
        p in 0.01f64..0.99,
    ) {
        let mut last = f64::INFINITY;
        for l in 1..=k {
            let v = p_card_sleeps(l, k, m, p);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v <= last + 1e-12);
            last = v;
        }
        // Monotone in p at l=1.
        let lo = p_card_sleeps(1, k, m, (p * 0.5).max(0.001));
        let hi = p_card_sleeps(1, k, m, p);
        prop_assert!(lo >= hi - 1e-12);
        // P{X ≥ 0} = 1 exactly.
        prop_assert!((p_at_least(k, 1.0 - p, 0) - 1.0).abs() < 1e-9);
    }

    /// The gateway FSM meters energy consistently: total energy equals
    /// powered-time × on-watts for a zero-sleep power model.
    #[test]
    fn gateway_energy_equals_online_time(
        idle_s in 1u64..600,
        wake_s in 1u64..600,
        events in prop::collection::vec(1u64..5_000, 1..40),
    ) {
        let power = PowerModel::default();
        let mut g = Gateway::new(
            SimTime::ZERO,
            GwState::Sleeping,
            SimDuration::from_secs(idle_s),
            SimDuration::from_secs(wake_s),
            power,
        );
        let mut t = SimTime::ZERO;
        for &step in &events {
            t += SimDuration::from_millis(step * 100);
            match g.state() {
                GwState::Sleeping => {
                    g.begin_wake(t);
                }
                GwState::Waking => {
                    if t >= g.wake_done_at() {
                        g.complete_wake(t);
                    }
                }
                GwState::Online => {
                    if !g.try_sleep(t) {
                        g.on_traffic(t);
                    }
                }
            }
        }
        g.finish(t);
        let expected = g.online_seconds() * power.gateway_on_w;
        prop_assert!((g.energy_j() - expected).abs() < 1e-6,
            "energy {} != online_s × watts {}", g.energy_j(), expected);
    }
}
