//! Property-based tests of the BH2 rule, the solver, and the flow engine.

use insomnia_core::flows::FlowEngine;
use insomnia_core::{decide, solve, Bh2Decision, Bh2Params, SolverInput, VisibleGateway};
use insomnia_simcore::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

fn arb_gateways() -> impl Strategy<Value = Vec<VisibleGateway>> {
    // Distinct gateway ids (their index), random loads.
    prop::collection::vec(0f64..1.0, 0..8).prop_map(|loads| {
        loads
            .into_iter()
            .enumerate()
            .map(|(gateway, load)| VisibleGateway { gateway, load })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// BH2 only ever moves to gateways that were offered as candidates, and
    /// only inside the (low, high) load band.
    #[test]
    fn bh2_moves_only_to_in_band_candidates(
        seed in any::<u64>(),
        at_home in any::<bool>(),
        cur_load in 0f64..1.0,
        others in arb_gateways(),
        backup in 0usize..3,
    ) {
        let params = Bh2Params { backup, ..Bh2Params::default() };
        let mut rng = SimRng::new(seed);
        match decide(&params, at_home, cur_load, &others, &mut rng) {
            Bh2Decision::MoveTo(g) => {
                let target = others.iter().find(|o| o.gateway == g).expect("offered");
                prop_assert!(target.load > params.low_threshold);
                prop_assert!(target.load < params.high_threshold);
                // Moving requires the mover to be a sleep candidate.
                prop_assert!(cur_load < params.low_threshold);
                // And enough candidates to keep backups.
                let candidates = others
                    .iter()
                    .filter(|o| o.load > params.low_threshold && o.load < params.high_threshold)
                    .count();
                prop_assert!(candidates > backup);
            }
            Bh2Decision::ReturnHome => {
                prop_assert!(!at_home, "home users never 'return home'");
                prop_assert!(
                    cur_load > params.high_threshold,
                    "default rule only returns on overload"
                );
            }
            Bh2Decision::Stay => {}
        }
    }

    /// The literal-rule variant additionally returns home when a sleepy
    /// remote has too few candidates — and in no other new case.
    #[test]
    fn bh2_literal_rule_return_conditions(
        seed in any::<u64>(),
        cur_load in 0f64..1.0,
        others in arb_gateways(),
    ) {
        let params = Bh2Params { literal_return_home: true, ..Bh2Params::default() };
        let mut rng = SimRng::new(seed);
        if let Bh2Decision::ReturnHome = decide(&params, false, cur_load, &others, &mut rng) {
            let candidates = others
                .iter()
                .filter(|o| o.load > params.low_threshold && o.load < params.high_threshold)
                .count();
            prop_assert!(
                cur_load > params.high_threshold
                    || (cur_load < params.low_threshold && candidates <= params.backup)
            );
        }
    }

    /// The solver's answer always covers every user with enough in-range
    /// online gateways.
    #[test]
    fn solver_output_is_always_a_cover(
        seed in any::<u64>(),
        n_users in 1usize..25,
        backup in 0usize..2,
    ) {
        let mut rng = SimRng::new(seed);
        let n_gw = 8;
        let mut reach = Vec::new();
        let mut demands = Vec::new();
        for _ in 0..n_users {
            let home = rng.below_usize(n_gw);
            let mut gs = vec![(home, 12.0e6)];
            for g in 0..n_gw {
                if g != home && rng.chance(0.35) {
                    gs.push((g, 6.0e6));
                }
            }
            reach.push(gs);
            demands.push(rng.range_f64(1e3, 900e3));
        }
        let input = SolverInput::new(demands, reach, n_gw, vec![3.0e6; n_gw], backup).unwrap();
        let out = solve(&input);
        prop_assert!(out.online.len() <= n_gw);
        // Every user sees at least its slot count of online gateways (the
        // overload fallback powers everything, which trivially covers).
        let online: std::collections::HashSet<usize> = out.online.iter().copied().collect();
        for options in &input.reach {
            let have = options.iter().filter(|(g, _)| online.contains(g)).count();
            let need = 1 + backup.min(options.len().saturating_sub(1));
            prop_assert!(have >= need, "user under-covered: {have} < {need}");
        }
    }

    /// Processor sharing conserves bytes: everything offered is eventually
    /// transferred, and per-gateway allocations never exceed capacity.
    #[test]
    fn flow_engine_conserves_bytes(
        adds in prop::collection::vec((1u64..2_000_000, 1u64..20), 1..30),
    ) {
        let capacity = 6.0e6;
        let mut e = FlowEngine::new(1);
        let mut t = SimTime::ZERO;
        let mut offered: f64 = 0.0;
        let mut moved: f64 = 0.0;
        for (i, &(bytes, gap_ds)) in adds.iter().enumerate() {
            e.add(t, 0, 0, i, t, bytes, 12.0e6);
            offered += bytes as f64;
            e.recompute(0, t, capacity);
            t += SimDuration::from_millis(gap_ds * 100);
            moved += e.advance(0, t);
            e.take_completed(0);
        }
        // Drain the engine completely.
        let mut guard = 0;
        while e.n_active() > 0 && guard < 20_000 {
            e.recompute(0, t, capacity);
            t += SimDuration::from_secs(1);
            let delta = e.advance(0, t);
            // Capacity respected: at most capacity × 1 s of bytes per step.
            prop_assert!(delta <= capacity / 8.0 + 1.0);
            moved += delta;
            e.take_completed(0);
            guard += 1;
        }
        prop_assert_eq!(e.n_active(), 0, "engine failed to drain");
        prop_assert!((moved - offered).abs() < 1.0, "moved {} vs offered {}", moved, offered);
    }

    /// The engine's busy-gateway list always equals the recount
    /// `{gw : n_on(gw) > 0}` over random add / advance / complete
    /// sequences — the set the driver's sampler sweeps.
    #[test]
    fn busy_list_matches_recount(
        ops in prop::collection::vec((0u8..3, 0usize..6, 1u64..400_000, 1u64..30), 1..80),
    ) {
        let n_gw = 6;
        let mut e = FlowEngine::new(n_gw);
        let mut t = SimTime::ZERO;
        for (i, &(op, gw, bytes, gap_ds)) in ops.iter().enumerate() {
            match op {
                0 => {
                    e.add(t, gw, 0, i, t, bytes, 12.0e6);
                    e.recompute(gw, t, 6.0e6);
                }
                1 => {
                    t += SimDuration::from_millis(gap_ds * 100);
                    e.advance(gw, t);
                }
                _ => {
                    e.take_completed(gw);
                    e.recompute(gw, t, 6.0e6);
                }
            }
            let mut busy: Vec<usize> = e.busy().iter().map(|&g| g as usize).collect();
            busy.sort_unstable();
            let recount: Vec<usize> = (0..n_gw).filter(|&g| e.n_on(g) > 0).collect();
            prop_assert_eq!(busy, recount);
        }
    }
}
