//! Property-based tests of the BH2 rule, the solver, the flow engine and
//! completion accounting.

use insomnia_core::flows::FlowEngine;
use insomnia_core::{
    decide, solve, Bh2Decision, Bh2Params, CompletionStats, SolverInput, VisibleGateway,
};
use insomnia_simcore::{QuantileSketch, SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

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

/// `SimRng::pick_weighted` as it was before it took an iterator: the
/// slice form, with the same sum and the same draw.
fn old_pick_weighted(rng: &mut SimRng, weights: &[f64]) -> Option<usize> {
    let clean = |w: f64| if w.is_finite() && w > 0.0 { w } else { 0.0 };
    let total: f64 = weights.iter().copied().map(clean).sum();
    if total <= 0.0 {
        return None;
    }
    let mut x = rng.f64() * total;
    for (i, &w) in weights.iter().enumerate() {
        x -= clean(w);
        if x < 0.0 {
            return Some(i);
        }
    }
    weights.iter().rposition(|&w| clean(w) > 0.0)
}

/// `bh2::decide` as it was before it stopped collecting: in-band
/// candidates and their weights gathered into `Vec`s, then a slice draw.
/// The byte-identity reference for the allocation-free rule.
fn old_decide(
    params: &Bh2Params,
    at_home: bool,
    current_load: f64,
    others: &[VisibleGateway],
    rng: &mut SimRng,
) -> Bh2Decision {
    let candidates: Vec<&VisibleGateway> = others
        .iter()
        .filter(|g| g.load > params.low_threshold && g.load < params.high_threshold)
        .collect();
    let pick = |rng: &mut SimRng| {
        let weights: Vec<f64> = candidates.iter().map(|g| g.load).collect();
        match old_pick_weighted(rng, &weights) {
            Some(i) => Bh2Decision::MoveTo(candidates[i].gateway),
            None => Bh2Decision::Stay,
        }
    };
    if at_home {
        if current_load < params.low_threshold && candidates.len() > params.backup {
            return pick(rng);
        }
        return Bh2Decision::Stay;
    }
    if current_load > params.high_threshold {
        return Bh2Decision::ReturnHome;
    }
    if current_load < params.low_threshold {
        if candidates.len() > params.backup {
            return pick(rng);
        }
        if params.literal_return_home {
            return Bh2Decision::ReturnHome;
        }
    }
    Bh2Decision::Stay
}

/// One run's per-flow completions: unfinished flows (`None`), exact zeros
/// and positive durations.
fn arb_run() -> impl Strategy<Value = Vec<Option<f64>>> {
    prop::collection::vec((0u8..4, 0f64..50.0), 0..12).prop_map(|flows| {
        flows
            .into_iter()
            .map(|(tag, secs)| match tag {
                0 => None,
                1 => Some(0.0),
                _ => Some(secs),
            })
            .collect()
    })
}

/// Folds per-run stats the way the driver does — shard runs absorbed in
/// order into one stats per repetition, then the repetitions pooled —
/// optionally rebuilding the accumulator from its wire form after fold
/// step `roundtrip_at`.
fn fold_runs(
    runs: &[CompletionStats],
    shards: usize,
    roundtrip_at: Option<usize>,
) -> CompletionStats {
    let mut reps = Vec::new();
    let mut step = 0;
    for shard_runs in runs.chunks(shards) {
        let mut acc = shard_runs[0].clone();
        for (i, run) in shard_runs.iter().enumerate() {
            if i > 0 {
                acc.absorb(run.clone());
            }
            if roundtrip_at == Some(step) {
                acc = CompletionStats::from_value(&acc.to_value()).expect("wire form");
            }
            step += 1;
        }
        reps.push(acc);
    }
    CompletionStats::pooled(&reps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Completion accounting keeps one store yet answers like one sketch
    /// over every completion: exact while the pooled completions fit under
    /// the smallest cutoff, per-flow while the pooled flows do — including
    /// the tier no preset reaches, `total_flows > cutoff ≥ completed` —
    /// and a wire-form round trip mid-fold changes nothing.
    #[test]
    fn completion_fold_answers_like_one_sketch_over_every_completion(
        runs in prop::collection::vec(arb_run(), 1..7),
        shards in 1usize..4,
        anchor in 0u8..7,
        jitter in 0usize..3,
        bumps in prop::collection::vec(0usize..3, 7),
        min_at in 0usize..7,
        roundtrip_at in 0usize..7,
    ) {
        let total: usize = runs.iter().map(Vec::len).sum();
        let completions: Vec<f64> = runs.iter().flatten().flatten().copied().collect();
        let done = completions.len();
        // The smallest run cutoff, on either side of the pooled completion
        // and flow counts (anchor 4 lands between them).
        let cutoff = match anchor {
            0 => done.saturating_sub(jitter),
            1 => done + jitter,
            2 => total.saturating_sub(jitter),
            3 => total + jitter,
            4 => done + (total - done) / 2,
            5 => 0,
            _ => jitter,
        };
        let min_at = min_at % runs.len();
        let stats: Vec<CompletionStats> = runs
            .iter()
            .enumerate()
            .map(|(i, run)| {
                let bump = if i == min_at { 0 } else { bumps[i] };
                CompletionStats::from_samples(run.clone(), cutoff + bump)
            })
            .collect();
        let direct = fold_runs(&stats, shards, None);
        let resumed = fold_runs(&stats, shards, Some(roundtrip_at % stats.len()));

        let mut reference = QuantileSketch::new(cutoff);
        for &secs in &completions {
            reference.push(secs);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let concatenated: Vec<Option<f64>> = runs.concat();
        for pooled in [&direct, &resumed] {
            prop_assert_eq!(pooled.quantiles(&qs), reference.quantiles(&qs));
            prop_assert_eq!(pooled.is_exact(), done <= cutoff);
            prop_assert_eq!(pooled.cutoff(), cutoff);
            prop_assert_eq!((pooled.total_flows(), pooled.completed()), (total as u64, done as u64));
            prop_assert_eq!(
                pooled.per_flow().map(<[Option<f64>]>::to_vec),
                (total <= cutoff).then(|| concatenated.clone())
            );
        }
        prop_assert_eq!(resumed.to_value(), direct.to_value());
    }

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

    /// The allocation-free rule decides exactly like the old collecting
    /// one and leaves the RNG in the same state. Loads are drawn from a
    /// grid that hits both thresholds, so boundary ties are exercised.
    #[test]
    fn bh2_decide_matches_collecting_reference(
        seed in any::<u64>(),
        at_home in any::<bool>(),
        literal in any::<bool>(),
        cur_tick in 0u32..21,
        ticks in prop::collection::vec(0u32..21, 0..10),
        backup in 0usize..3,
    ) {
        let params = Bh2Params { backup, literal_return_home: literal, ..Bh2Params::default() };
        let load = |tick: u32| f64::from(tick) * 0.05;
        let others: Vec<VisibleGateway> = ticks
            .iter()
            .enumerate()
            .map(|(gateway, &t)| VisibleGateway { gateway: 10 + gateway, load: load(t) })
            .collect();
        let mut rng = SimRng::new(seed);
        let mut reference = SimRng::new(seed);
        let got = decide(&params, at_home, load(cur_tick), &others, &mut rng);
        let want = old_decide(&params, at_home, load(cur_tick), &others, &mut reference);
        prop_assert_eq!(got, want);
        prop_assert_eq!(rng, reference);
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
        let mut done = Vec::new();
        for (i, &(bytes, gap_ds)) in adds.iter().enumerate() {
            e.add(t, 0, 0, i, t, bytes, 12.0e6);
            offered += bytes as f64;
            e.recompute(0, t, capacity);
            t += SimDuration::from_millis(gap_ds * 100);
            moved += e.advance(0, t);
            e.take_completed(0, &mut done);
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
            e.take_completed(0, &mut done);
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
        let mut done = Vec::new();
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
                    e.take_completed(gw, &mut done);
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
